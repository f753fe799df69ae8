import tracemalloc

import numpy as np
import pytest

from mlblue import synthetic
from mlblue.synthetic import SyntheticSuite

from conftest import assert_outcome


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


def per_replication_sums(suite, group, count, seed, k, reps):
    # the sums drawn and mapped one replication at a time
    members = [i - 1 for i in sorted(group)]
    offset = count * suite.means[:, members].T
    loads = suite.loadings[:, members, :].transpose(2, 1, 0).reshape(
        suite.num_factors, -1)
    out = np.empty((reps, len(group), suite.num_outputs))
    for r in range(reps):
        z = next(SyntheticSuite.factor_blocks(count, suite.num_factors, seed, k, (r,)))
        out[r] = offset + (z.sum(axis=0) @ loads).reshape(offset.shape)
    return out


# "several": full chunks of three replications and a partial last one;
# "one": a chunk one float smaller than a replication, so one per chunk;
# "default": the module's chunk, which holds all replications here. One
# factor is its own case: numpy sums a single factor's draws pairwise.
@pytest.mark.parametrize("layout", ["several", "one", "default"])
@pytest.mark.parametrize("factors", [1, 2, 5])
@pytest.mark.parametrize("outputs", [1, 2])
@pytest.mark.parametrize("count,reps", [(6, 23), (300, 7), (0, 23), (6, 1)])
def test_chunked_draw_sums_are_bit_identical(monkeypatch, layout, factors,
                                             outputs, count, reps):
    chunk = {"several": 3 * count * factors, "one": count * factors - 1,
             "default": synthetic._CHUNK_ELEMENTS}[layout]
    monkeypatch.setattr(synthetic, "_CHUNK_ELEMENTS", chunk)
    rng = np.random.default_rng(factors)
    suite = SyntheticSuite(rng.standard_normal((outputs, 3, factors)),
                           rng.standard_normal((outputs, 3)))
    for group in ((2,), (1, 3), (1, 2, 3)):
        out = np.empty((reps, len(group), outputs))
        suite.draw_sums(group, count, 11, 6, out)
        assert np.array_equal(
            out, per_replication_sums(suite, group, count, 11, 6, reps))


def test_draw_sums_scratch_memory_is_bounded():
    # the hot group of the seed-1 estimate-3x1 benchmark config; one buffer
    # for all its replications would take 52 MB
    suite = SyntheticSuite.hierarchy(3, 1, rate=2, strength=0.05)
    out = np.empty((4000, 1, 1))
    tracemalloc.start()
    try:
        suite.draw_sums((2,), 422, 1, 3, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


SUITE = SyntheticSuite.random(2, seed=0)
SUITE_REJECTIONS = {
    "loadings-nan": (lambda: SyntheticSuite([[1.0, np.nan]]), "loadings must be finite"),
    "means-shape": (lambda: SyntheticSuite([[1.0], [0.5]], means=[0.0]),
                    "means must be finite with shape (outputs, models)"),
    "z-shape": (lambda: SUITE.evaluate([1], np.zeros((3, 1))),
                "z must have shape (count, num_factors)"),
    "negative-count": (lambda: SUITE.draw_group((1, 2), -1, 0, 0), "count must be >= 0"),
    "no-models": (lambda: SyntheticSuite.hierarchy(0),
                  "need at least one model and one output"),
}


@pytest.mark.parametrize("call, message", SUITE_REJECTIONS.values(),
                         ids=SUITE_REJECTIONS.keys())
def test_suite_rejects_malformed_input(call, message):
    assert_outcome(call, ValueError(message))
