import numpy as np
import pytest

from mlblue.covariance import (
    CovarianceStore,
    PilotBatch,
    estimate_decay_rate,
    reconstruct_highfi_covariance,
    richardson_extrapolate,
    sample_covariance,
    spd_repair,
)
from mlblue.synthetic import SyntheticSuite


def _pilot(samples):
    arr = np.asarray(samples, dtype=float)
    if arr.ndim == 2:
        arr = arr[None]
    return PilotBatch(arr)


def test_two_point_sample_variance():
    store = sample_covariance(_pilot([[1.0], [3.0]]))
    assert store.matrix(1)[0, 0] == pytest.approx(2.0)


def test_constant_column_flagged_degenerate():
    store = sample_covariance(_pilot([[5.0], [5.0], [5.0]]))
    assert store.matrix(1)[0, 0] == 0.0
    assert store.known[0, 0, 0]  # known, but with zero variance


def test_sample_covariance_converges_at_root_n():
    # entrywise error vs the exact AA^T covariance drops like n^(-1/2), so
    # each 100x batch growth should shrink the (replicate-averaged) error
    # by about 10x
    suite = SyntheticSuite.random(3, seed=11)
    exact = suite.covariance(1)
    dim = suite.loadings.shape[2]
    sizes = (10**2, 10**4, 10**6)
    errs = []
    for n in sizes:
        tot = 0.0
        for r in range(8):
            z = suite.factor_draws(n, dim, seed=5, stream_index=1, replication=r)
            vals = suite.evaluate([1, 2, 3], z)[:, :, 0]
            est = sample_covariance(_pilot(vals)).matrix(1)
            tot += np.abs(est - exact).max()
        errs.append(tot / 8)
    slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
    assert -0.65 < slope < -0.35


def test_sample_covariance_row_permutation_equivariant():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((40, 3))
    perm = rng.permutation(40)
    a = sample_covariance(_pilot(vals)).matrix(1)
    b = sample_covariance(_pilot(vals[perm])).matrix(1)
    assert np.array_equal(a, a.T)
    assert np.allclose(a, b, rtol=0, atol=1e-14)


def test_sample_covariance_respects_availability():
    vals = np.zeros((2, 5, 3))
    vals[0] = np.random.default_rng(1).standard_normal((5, 3))
    vals[1, :, :2] = np.random.default_rng(2).standard_normal((5, 2))
    avail = np.array([[True, True, True], [True, True, False]])
    store = sample_covariance(PilotBatch(vals, available=avail))
    assert store.known[0].all()
    assert store.known[1][:2, :2].all()
    assert not store.known[1][2].any()


def test_sample_covariance_rejects_bad_input():
    with pytest.raises(ValueError, match="at least 2"):
        sample_covariance(_pilot([[1.0, 2.0]]))
    bad = np.ones((3, 2))
    bad[1, 0] = np.nan
    with pytest.raises(ValueError, match="model 1 .* output 1"):
        sample_covariance(_pilot(bad))


def test_spd_repair_leaves_identity_alone():
    assert np.array_equal(spd_repair(np.eye(3)), np.eye(3))


def test_spd_repair_lifts_zero_eigenvalue():
    out = spd_repair(np.diag([1.0, 0.0]), floor=1e-8)
    assert np.allclose(out, np.diag([1.0, 1e-8]))


def test_spd_repair_rank_one_case():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    out = spd_repair(np.outer(v, v), floor=1e-8)
    w = np.linalg.eigvalsh(out)
    assert w[-1] == pytest.approx(1.0, rel=1e-12)
    assert w[:3] == pytest.approx(np.full(3, 1e-8), rel=1e-6)


def test_spd_repair_idempotent():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((5, 5))
    m = a @ a.T - 2.0 * np.eye(5)  # indefinite on purpose
    once = spd_repair(m, floor=1e-6)
    twice = spd_repair(once, floor=1e-6)
    w1 = np.linalg.eigvalsh(once)
    w2 = np.linalg.eigvalsh(twice)
    assert np.all(np.abs(w1 - w2) <= 8 * np.spacing(np.abs(w1).max()))


def test_spd_repair_rejects_asymmetric():
    with pytest.raises(ValueError, match="asymmetric"):
        spd_repair(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_spd_repair_stack_matches_each_matrix():
    stack = np.array([
        [[2.0, 0.5], [0.5, 1.0]],
        [[1.0, 1.0], [1.0, 1.0]],  # singular: needs the repair
        [[4.0, -1.0], [-1.0, 3.0]],
    ])
    out = spd_repair(stack, floor=1e-8)
    assert out.shape == stack.shape
    for block, repaired in zip(stack, out):
        assert np.array_equal(repaired, spd_repair(block, floor=1e-8))
    assert not np.array_equal(out[1], stack[1])
    stack[2, 0, 1] = 0.0
    with pytest.raises(ValueError, match="asymmetric"):
        spd_repair(stack)


def test_store_rejects_asymmetric_known_entries():
    known = np.ones((2, 2), dtype=bool)
    known[0, 1] = False
    with pytest.raises(ValueError, match="known mask must be symmetric"):
        CovarianceStore(np.eye(2)[None], known=known[None])


def test_with_updates_sets_symmetric_entries():
    store = CovarianceStore(np.eye(2)[None], known=np.zeros((1, 2, 2), bool))
    upd = store.with_updates(1, [(1, 1, 4.0), (1, 2, 1.5)])
    assert upd.matrix(1)[0, 1] == upd.matrix(1)[1, 0] == 1.5
    assert upd.known[0][0, 1] and upd.known[0][1, 0]
    assert not store.known[0].any()  # original untouched


def test_richardson_exact_power_law():
    # v(h) = 1 + h^2 on h = 0.5, 0.25 predicts v(0.125) exactly
    out = richardson_extrapolate([1.0625, 1.25], rate=2.0)
    assert out == pytest.approx([1.015625], abs=0.0)


def test_richardson_constant_sequence():
    assert richardson_extrapolate([3.0, 3.0], rate=2.0, num_finer=3) == pytest.approx(
        [3.0, 3.0, 3.0]
    )


def test_richardson_near_power_law_with_noise():
    rng = np.random.default_rng(6)
    h = 0.5 * 0.5 ** np.arange(4)
    rate = 1.5
    vals = 2.0 + 0.7 * h**rate + rng.uniform(-1e-6, 1e-6, size=4)
    finest_first = vals[::-1]
    out = richardson_extrapolate(finest_first[:2], rate=rate)
    analytic = 2.0 + 0.7 * (h[-1] / 2.0) ** rate
    assert out[0] == pytest.approx(analytic, abs=1e-4)


def test_richardson_multiple_levels_nearest_first():
    out = richardson_extrapolate([1.0625, 1.25], rate=2.0, num_finer=2)
    assert out == pytest.approx([1.015625, 1.00390625], abs=0.0)


def test_richardson_warns_on_non_monotone_tail():
    with pytest.warns(RuntimeWarning):
        richardson_extrapolate([1.3, 1.0, 1.2], rate=2.0)


def test_decay_rate_recovers_power_law():
    h = 0.5 * 0.5 ** np.arange(5)
    vals = 3.0 * h**2.0
    assert estimate_decay_rate(vals[::-1]) == pytest.approx(2.0, rel=1e-12)
    vals = 0.2 * h**1.37
    assert estimate_decay_rate(vals[::-1]) == pytest.approx(1.37, rel=1e-10)


def test_decay_rate_input_validation():
    with pytest.raises(ValueError, match="three"):
        estimate_decay_rate([1.0, 2.0])
    with pytest.raises(ValueError, match="one sign"):
        estimate_decay_rate([1.0, 2.0, 1.5])


def test_polarization_examples():
    cov, clipped = reconstruct_highfi_covariance(1.0, 1.0, 0.2)
    assert cov == pytest.approx(0.9) and not clipped
    cov, clipped = reconstruct_highfi_covariance(1.0, 1.0, 0.0)
    assert cov == pytest.approx(1.0)
    cov, clipped = reconstruct_highfi_covariance(4.0, 1.0, 1.0)
    assert cov == pytest.approx(2.0) and clipped  # rho pinned at 1


def test_polarization_matches_direct_sampling():
    # X ~ N(0, 4), Y = X/2 gives V[X]=4, V[Y]=1, V[X-Y]=1; the clipped
    # reconstruction at the same sample moments must land on the sample
    # covariance (rho = 1 exactly, so clipping loses nothing)
    rng = np.random.default_rng(7)
    x = 2.0 * rng.standard_normal(200_000)
    y = x / 2.0
    vi, vj = x.var(ddof=1), y.var(ddof=1)
    dv = (x - y).var(ddof=1)
    cov, _ = reconstruct_highfi_covariance(vi, vj, dv)
    direct = np.cov(x, y)[0, 1]
    se = 3 * np.sqrt(2.0 / 200_000) * 2.0  # rough 3-sigma band for cov
    assert abs(cov - direct) < se


def test_polarization_diff_variance_roundtrip():
    rng = np.random.default_rng(8)
    for _ in range(50):
        vi, vj = rng.uniform(0.1, 5.0, size=2)
        rho = rng.uniform(-0.95, 0.95)
        dv = vi + vj - 2.0 * rho * np.sqrt(vi * vj)
        cov, clipped = reconstruct_highfi_covariance(vi, vj, dv)
        assert not clipped
        assert vi + vj - 2.0 * cov == pytest.approx(dv, rel=1e-12)
