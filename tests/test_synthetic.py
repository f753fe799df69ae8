import numpy as np
import pytest

from mlblue.synthetic import SyntheticSuite


def fresh_block(count, dim, seed, stream_index, replication):
    # the stream written out: a new generator keyed by (seed, stream_index),
    # counter at the replication's block
    key = np.array([seed, stream_index], dtype=np.uint64)
    counter = np.array([0, 0, replication, 0], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key, counter=counter))
    return rng.standard_normal((count, dim))


@pytest.mark.parametrize("seed", [0, 2**63 + 1, 2**64 - 1])
@pytest.mark.parametrize("count,dim", [(0, 3), (1, 3), (7, 1), (5, 4)])
def test_factor_blocks_are_bit_identical_to_fresh_generators(seed, count, dim):
    replications = (5, 0, 3, 0)
    blocks = list(SyntheticSuite.factor_blocks(count, dim, seed, 2, replications))
    assert len(blocks) == len(replications)
    for block, r in zip(blocks, replications):
        assert block.shape == (count, dim)
        assert np.array_equal(block, fresh_block(count, dim, seed, 2, r))
    assert np.array_equal(SyntheticSuite.factor_draws(count, dim, seed, 2, 3),
                          fresh_block(count, dim, seed, 2, 3))


@pytest.mark.parametrize("group,count", [((3, 1), 6), ((2,), 1), ((1, 2, 4), 0)])
def test_draw_sums_match_summed_draw_group(group, count):
    suite = SyntheticSuite.random(4, num_outputs=2, seed=3)
    reps, seed, k = 9, 17, 5
    out = np.empty((reps, len(group), 2))
    suite.draw_sums(group, count, seed, k, out)
    for r in range(reps):
        want = suite.draw_group(group, count, seed, k, replication=r).sum(axis=0)
        assert np.abs(out[r] - want).max() <= 1e-14 * max(np.abs(want).max(), 1.0)


def test_draw_sums_rejects_negative_count():
    suite = SyntheticSuite.random(2, seed=0)
    with pytest.raises(ValueError, match="count"):
        suite.draw_sums((1, 2), -1, 0, 0, np.empty((2, 2, 1)))
