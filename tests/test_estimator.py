import numpy as np
import pytest

from mlblue.covariance import CovarianceStore
from mlblue.estimator import (
    BlueSystem,
    IllPosedError,
    _batch_variance,
    assemble_psi,
    blue_variance,
    combine_samples,
    pseudo_inverse,
    realized_variance,
)
from mlblue.models import ModelSet, enumerate_groups
from mlblue.synthetic import SyntheticSuite

from conftest import all_output_modelset, random_spd


def system_for(costs, cov, kappa=None, deny=()):
    models = all_output_modelset(costs)
    gs = enumerate_groups(models, kappa=kappa, deny_list=deny)
    store = CovarianceStore(np.asarray(cov, dtype=float)[None])
    return gs, BlueSystem.from_covariance(gs, store)


def test_psi_single_model():
    _, sys1 = system_for([1.0], [[4.0]])
    assert np.allclose(assemble_psi(sys1, [25.0]), [[6.25]])


def test_psi_disjoint_singletons():
    gs, sys2 = system_for([2.0, 1.0], np.eye(2), deny=[(1, 2)])
    n = np.zeros(gs.num_groups)
    n[gs.groups.index((1,))] = 3.0
    n[gs.groups.index((2,))] = 7.0
    assert np.allclose(assemble_psi(sys2, n), np.diag([3.0, 7.0]))


def test_psi_joint_group_is_scaled_inverse():
    c = np.array([[1.0, 0.9], [0.9, 1.0]])
    gs, sys2 = system_for([2.0, 1.0], c, deny=[(1,), (2,)])
    n = np.zeros(gs.num_groups)
    n[gs.groups.index((1, 2))] = 10.0
    psi = assemble_psi(sys2, n)
    assert np.allclose(psi, 10.0 * np.linalg.inv(c), rtol=1e-12)
    assert np.allclose(pseudo_inverse(psi), c / 10.0, rtol=1e-12)


def test_pseudo_inverse_diagonal_and_identity():
    assert np.allclose(pseudo_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))
    assert np.allclose(pseudo_inverse(np.eye(3)), np.eye(3))
    # nothing kept: the empty range gives the zero matrix
    assert np.array_equal(pseudo_inverse(np.zeros((3, 3))), np.zeros((3, 3)))


def test_pseudo_inverse_penrose_conditions():
    rng = np.random.default_rng(9)
    b = rng.standard_normal((4, 2))
    a = b @ b.T  # PSD, rank 2
    p = pseudo_inverse(a)
    tol = 1e-10 * np.linalg.norm(a)
    assert np.linalg.norm(a @ p @ a - a) <= tol
    assert np.linalg.norm(p @ a @ p - p) <= tol
    assert np.linalg.norm((a @ p) - (a @ p).T) <= tol
    assert np.linalg.norm((p @ a) - (p @ a).T) <= tol


def test_variance_single_model_is_sigma2_over_n():
    _, sys1 = system_for([1.0], [[4.0]])
    assert blue_variance(sys1, [100.0]) == pytest.approx(0.04, rel=1e-12)


def test_variance_joint_group_is_plain_mc():
    c = np.array([[1.0, 0.9], [0.9, 1.0]])
    gs, sys2 = system_for([2.0, 1.0], c, deny=[(1,), (2,)])
    n = np.zeros(gs.num_groups)
    n[gs.groups.index((1, 2))] = 10.0
    assert blue_variance(sys2, n) == pytest.approx(0.1, rel=1e-12)


def test_variance_matches_monte_carlo():
    # n = ({1,2}: 10, {2}: 100) with rho = 0.9: simulate the assembled
    # estimator and compare its sample variance with the prediction
    rho = 0.9
    c = np.array([[1.0, rho], [rho, 1.0]])
    gs, sys2 = system_for([2.0, 1.0], c)
    n = np.zeros(gs.num_groups)
    k12, k2 = gs.groups.index((1, 2)), gs.groups.index((2,))
    n[k12], n[k2] = 10.0, 100.0
    predicted = blue_variance(sys2, n)

    psi = assemble_psi(sys2, n)
    w = np.linalg.solve(psi, np.eye(2)[:, 0])  # nonsingular here
    chol = np.linalg.cholesky(c)
    reps = 200_000
    rng = np.random.default_rng(10)
    pair = rng.standard_normal((reps, 10, 2)) @ chol.T
    single = rng.standard_normal((reps, 100))
    # estimator = w^T sum_k R_k^T C_k^{-1} (per-group sample sums)
    rhs = np.zeros((reps, 2))
    rhs += pair.sum(axis=1) @ np.linalg.inv(c).T
    rhs[:, 1] += single.sum(axis=1)
    est = rhs @ w
    assert est.var(ddof=1) == pytest.approx(
        predicted, rel=3.0 * np.sqrt(2.0 / reps)
    )
    assert abs(est.mean()) < 3.0 * np.sqrt(predicted / reps)


def test_variance_scaling_invariant():
    rng = np.random.default_rng(11)
    gs, sys3 = system_for([4.0, 2.0, 1.0], random_spd(rng, 3))
    n = rng.uniform(1.0, 5.0, gs.num_groups)
    v = blue_variance(sys3, n)
    for alpha in (0.25, 2.0, 117.0):
        assert blue_variance(sys3, alpha * n) == pytest.approx(v / alpha, rel=1e-10)


def test_variance_monotone_in_allocation():
    rng = np.random.default_rng(12)
    for _ in range(20):
        gs, sys3 = system_for([4.0, 2.0, 1.0], random_spd(rng, 3))
        n = rng.uniform(0.5, 3.0, gs.num_groups)
        v = blue_variance(sys3, n)
        k = rng.integers(gs.num_groups)
        bumped = n.copy()
        bumped[k] += rng.uniform(0.1, 2.0)
        assert blue_variance(sys3, bumped) <= v + 1e-10 * v


def test_unsampled_model_zeroes_psi_rows():
    rng = np.random.default_rng(13)
    gs, sys3 = system_for([4.0, 2.0, 1.0], random_spd(rng, 3))
    n = np.zeros(gs.num_groups)
    n[gs.groups.index((1, 2))] = 5.0  # model 3 never drawn
    psi = assemble_psi(sys3, n)
    pinv = pseudo_inverse(psi)
    assert np.all(psi[2] == 0) and np.all(psi[:, 2] == 0)
    assert np.all(pinv[2] == 0) and np.all(pinv[:, 2] == 0)


def test_null_space_examples():
    gs, sys2 = system_for([2.0, 1.0], np.eye(2))
    n = np.zeros(gs.num_groups)
    n[gs.groups.index((1,))] = 4.0
    # model 2 is unsampled: its coordinate vector spans Psi's null space
    psi = assemble_psi(sys2, n)
    assert np.all(psi[1] == 0) and np.all(psi[:, 1] == 0)
    w = np.linalg.eigvalsh(psi)
    assert w[0] == 0.0 and w[1] > 0.0
    # all models sampled: no null space
    psi = assemble_psi(sys2, np.full(gs.num_groups, 1.0))
    assert np.linalg.eigvalsh(psi)[0] > 0.0


def test_null_space_matches_eigendecomposition():
    rng = np.random.default_rng(14)
    gs, sys3 = system_for([4.0, 2.0, 1.0], random_spd(rng, 3))
    n = np.zeros(gs.num_groups)
    n[gs.groups.index((1, 2))] = 6.0
    psi = assemble_psi(sys3, n)
    # model 3 is unsampled: its coordinate vector is a null vector of Psi
    assert np.linalg.norm(psi @ np.array([0.0, 0.0, 1.0])) == 0.0
    w = np.linalg.eigvalsh(psi)
    assert w[0] == pytest.approx(0.0, abs=1e-12 * w[-1])


def test_all_sampled_always_nonsingular():
    # 200 random instances, every model covered by a positive entry
    rng = np.random.default_rng(15)
    for _ in range(200):
        ell = int(rng.integers(2, 7))
        gs, sysl = system_for(np.geomspace(8, 1, ell), random_spd(rng, ell))
        n = rng.uniform(0.01, 4.0, gs.num_groups)
        psi = assemble_psi(sysl, n)
        assert np.linalg.eigvalsh(psi)[0] > 0.0


def test_combine_samples_zero_variance_recovers_mean():
    gs, sys2 = system_for([2.0, 1.0], np.eye(2))
    n = np.zeros(gs.num_groups)
    k1, k12 = gs.groups.index((1,)), gs.groups.index((1, 2))
    n[k1], n[k12] = 2.0, 3.0
    mu = np.array([1.5, -0.25])
    sums = {k1: 2 * mu[:1], k12: 3 * mu}
    out = combine_samples(sys2, n, sums)
    assert np.allclose(out, mu, rtol=0, atol=1e-13)


def test_combine_samples_single_model_is_sample_mean():
    _, sys1 = system_for([1.0], [[4.0]])
    out = combine_samples(sys1, [3.0], {0: np.array([1.0 + 2.0 + 3.0])})
    assert out[0] == pytest.approx(2.0, rel=1e-15)


def test_combine_samples_replicated_unbiased_and_calibrated():
    rho = 0.9
    c = np.array([[1.0, rho], [rho, 1.0]])
    mu = np.array([2.0, -1.0])
    gs, sys2 = system_for([2.0, 1.0], c, deny=[(1,), (2,)])
    n = np.zeros(gs.num_groups)
    k12 = gs.groups.index((1, 2))
    n[k12] = 8.0
    predicted = blue_variance(sys2, n)
    chol = np.linalg.cholesky(c)
    rng = np.random.default_rng(16)
    reps = 10_000
    draws = rng.standard_normal((reps, 8, 2)) @ chol.T + mu
    ests = combine_samples(sys2, n, {k12: draws.sum(axis=1)})[:, 0]
    assert ests.shape == (reps,)
    se = np.sqrt(predicted / reps)
    assert abs(ests.mean() - mu[0]) < 3.0 * se
    assert ests.var(ddof=1) == pytest.approx(predicted, rel=0.1)


def test_combine_samples_validates_shapes():
    gs, sys2 = system_for([2.0, 1.0], np.eye(2))
    n = np.zeros(gs.num_groups)
    k12 = gs.groups.index((1, 2))
    n[k12] = 2.0
    with pytest.raises(ValueError, match=f"group {k12}"):
        combine_samples(sys2, n, {k12: np.zeros(3)})
    with pytest.raises(ValueError, match="integer"):
        combine_samples(sys2, n + 0.5, {k12: np.zeros(2)})


def test_non_finite_covariance_and_samples_raise():
    gs = enumerate_groups(all_output_modelset([2.0, 1.0]), kappa=2)
    cov = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(ValueError, match="not finite"):
        BlueSystem.from_covariance(gs, CovarianceStore(cov[None]))
    _, sys2 = system_for([2.0, 1.0], np.eye(2))
    n = np.zeros(gs.num_groups)
    k12 = gs.groups.index((1, 2))
    n[k12] = 2.0
    with pytest.raises(ValueError, match=f"group {k12} samples are not finite"):
        combine_samples(sys2, n, {k12: np.array([np.inf, 2.0])})


def test_ill_posed_allocation_raises():
    gs, sys2 = system_for([2.0, 1.0], np.eye(2))
    n = np.zeros(gs.num_groups)
    n[gs.groups.index((2,))] = 50.0  # model 1 never sampled
    with pytest.raises(IllPosedError):
        blue_variance(sys2, n)
    with pytest.raises(IllPosedError):
        combine_samples(sys2, n, {gs.groups.index((2,)): np.zeros(1)})


def test_system_construction_requires_usable_highfi_group():
    models = all_output_modelset([2.0, 1.0])
    gs = enumerate_groups(models, kappa=2)
    known = np.ones((2, 2), dtype=bool)
    known[0, :] = known[:, 0] = False  # nothing about model 1 is known
    store = CovarianceStore(np.eye(2)[None], known=known[None])
    with pytest.raises(IllPosedError):
        BlueSystem.from_covariance(gs, store)


def test_system_skips_unknown_groups():
    models = all_output_modelset([2.0, 1.0, 0.5])
    gs = enumerate_groups(models, kappa=2)
    known = np.ones((3, 3), dtype=bool)
    known[0, 2] = known[2, 0] = False
    store = CovarianceStore(np.eye(3)[None], known=known[None])
    system = BlueSystem.from_covariance(gs, store)
    usable = [gs.groups[k] for k in system.group_indices]
    assert (1, 3) not in usable
    assert (1, 2) in usable and (2, 3) in usable
    rows = np.array([[True, True, False], [True, False, True]])
    assert store.known_groups(rows).tolist() == [True, False]
    expect = gs.per_output_allowed[0] & gs.contains_highfi()
    expect[gs.groups.index((1, 3))] = False
    assert np.array_equal(system.anchor_mask, expect)


def _group_by_group_stacks(groups, store, output):
    """The stacks as built one group at a time, each block repaired, inverted
    through its Cholesky factor and lifted on its own."""
    def repair(matrix, floor=1e-10):
        sym = 0.5 * (matrix + matrix.T)
        eigvals, eigvecs = np.linalg.eigh(sym)
        level = floor * eigvals[-1] if eigvals[-1] > 0.0 else floor
        if eigvals[0] >= level:
            return sym
        out = (eigvecs * np.maximum(eigvals, level)) @ eigvecs.T
        return 0.5 * (out + out.T)

    def known(group):
        idx = np.asarray(group) - 1
        return store.known[output - 1][np.ix_(idx, idx)].all()

    allowed = groups.per_output_allowed[output - 1]
    usable = [k for k, group in enumerate(groups.groups)
              if allowed[k] and known(group)]
    size = groups.num_models
    members = np.zeros((len(usable), size), dtype=bool)
    information = np.zeros((len(usable), size, size))
    lifted = np.zeros((len(usable), size, size))
    for j, k in enumerate(usable):
        idx = np.asarray(groups.groups[k]) - 1
        cov = repair(store.matrices[output - 1][np.ix_(idx, idx)])
        linv = np.linalg.inv(np.linalg.cholesky(cov))
        inv = linv.T @ linv
        w, v = np.linalg.eigh(cov)
        lift = (v / np.maximum(w, 1e-6 * w[-1])) @ v.T
        members[j, idx] = True
        information[j, idx[:, None], idx] = 0.5 * (inv + inv.T)
        lifted[j, idx[:, None], idx] = 0.5 * (lift + lift.T)
    return np.array(usable, dtype=int), members, information, lifted


def _near_collinear(rho):
    cov = np.array([[1.0, rho, 0.5], [rho, 1.0, 0.3], [0.5, 0.3, 1.0]])
    return enumerate_groups(ModelSet([4.0, 2.0, 1.0])), CovarianceStore(cov[None])


def _rank_deficient():
    a = np.random.default_rng(3).standard_normal((5, 3))
    known = np.ones((5, 5), dtype=bool)
    known[1, 3] = known[3, 1] = False
    gs = enumerate_groups(ModelSet([16.0, 8.0, 4.0, 2.0, 1.0]), kappa=5)
    return gs, CovarianceStore((a @ a.T)[None], known=known[None])


def _two_outputs():
    b = np.random.default_rng(5).standard_normal((2, 3, 5))
    models = ModelSet([4.0, 2.0, 1.0], outputs=[[1, 2], [1], [1, 2]])
    return enumerate_groups(models), CovarianceStore(b @ b.transpose(0, 2, 1))


def _ladder():
    models = ModelSet(4.0 ** np.arange(11, -1, -1))
    store = SyntheticSuite.random(12, 1, seed=3).exact_store()
    return enumerate_groups(models, kappa=3), store


@pytest.mark.parametrize("case", [
    lambda: _near_collinear(1.0 - 1e-10),
    lambda: _near_collinear(1.0 - 1e-13),
    lambda: _near_collinear(1.0),
    lambda: _near_collinear(-1.0 + 1e-12),
    _rank_deficient,
    _two_outputs,
    _ladder,
], ids=["rho-1e-10", "rho-1e-13", "rho-1", "rho+1e-12", "rank-deficient",
        "two-outputs", "ladder-12"])
def test_stacks_bit_identical_to_group_by_group_build(case):
    gs, store = case()
    for s in range(1, store.num_outputs + 1):
        system = BlueSystem.from_covariance(gs, store, output=s)
        expect = _group_by_group_stacks(gs, store, s)
        got = (system.group_indices, system.members, system.information,
               system.lifted)
        for a, b in zip(got, expect):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_stacks_match_dense_group_reference():
    # per-group inverses scattered into full-size matrices, group by group
    rng = np.random.default_rng(41)
    cov, truth = random_spd(rng, 5), random_spd(rng, 5)
    known = np.ones((5, 5), dtype=bool)
    known[1, 3] = known[3, 1] = False
    gs = enumerate_groups(all_output_modelset([16.0, 8.0, 4.0, 2.0, 1.0]), kappa=3)
    store = CovarianceStore(cov[None], known=known[None])
    system = BlueSystem.from_covariance(gs, store)
    usable = [k for k, g in enumerate(gs.groups) if not {2, 4} <= set(g)]
    assert len(usable) < gs.num_groups
    assert system.group_indices.tolist() == usable
    for stack in (system.group_indices, system.members, system.information,
                  system.lifted):
        assert not stack.flags.writeable

    n = rng.integers(0, 4, gs.num_groups).astype(float)
    for i in range(1, 6):
        n[gs.groups.index((i,))] = rng.integers(1, 4)
    psi = np.zeros((5, 5))
    rhs = np.zeros(5)
    inverses = {}
    sums = {}
    for k in usable:
        idx = [i - 1 for i in gs.groups[k]]
        inverses[k] = np.linalg.inv(cov[np.ix_(idx, idx)])
        psi[np.ix_(idx, idx)] += n[k] * inverses[k]
        if n[k] > 0:
            sums[k] = rng.standard_normal((int(n[k]), len(idx))).sum(axis=0)
            rhs[idx] += inverses[k] @ sums[k]
    psi_inv = np.linalg.inv(psi)
    weights = psi_inv[:, 0]
    realized = 0.0
    for k in usable:
        idx = [i - 1 for i in gs.groups[k]]
        w_k = inverses[k] @ weights[idx]
        realized += n[k] * w_k @ truth[np.ix_(idx, idx)] @ w_k

    def rel(got, want):
        return np.linalg.norm(got - want) / np.linalg.norm(want)

    assert rel(assemble_psi(system, n), psi) <= 1e-12
    assert rel(combine_samples(system, n, sums), psi_inv @ rhs) <= 1e-12
    got = realized_variance(system, n, CovarianceStore(truth[None]))
    assert got == pytest.approx(realized, rel=1e-12)


def test_realized_variance_with_misjudged_covariance():
    # weights built from a wrong covariance, variance charged on the truth;
    # must be >= the optimal-weight variance on the truth
    rng = np.random.default_rng(17)
    truth = random_spd(rng, 3)
    wrong = random_spd(rng, 3)
    models = all_output_modelset([4.0, 2.0, 1.0])
    gs = enumerate_groups(models, kappa=3)
    store_t = CovarianceStore(truth[None])
    store_w = CovarianceStore(wrong[None])
    sys_t = BlueSystem.from_covariance(gs, store_t)
    sys_w = BlueSystem.from_covariance(gs, store_w)
    n = rng.uniform(0.5, 4.0, gs.num_groups)
    v_opt = blue_variance(sys_t, n)
    v_real = realized_variance(sys_w, n, store_t)
    assert v_real >= v_opt * (1.0 - 1e-10)
    # and with the correct covariance it reduces to blue_variance
    assert realized_variance(sys_t, n, store_t) == pytest.approx(v_opt, rel=1e-10)


def test_realized_variance_accepts_fractional_counts():
    rng = np.random.default_rng(18)
    truth = random_spd(rng, 2)
    models = all_output_modelset([2.0, 1.0])
    gs = enumerate_groups(models, kappa=2)
    store = CovarianceStore(truth[None])
    system = BlueSystem.from_covariance(gs, store)
    n = np.array([0.7, 2.3, 1.9])
    assert realized_variance(system, n, store) == pytest.approx(
        blue_variance(system, n), rel=1e-10
    )


def test_lifted_inverse_equals_inverse_when_well_conditioned():
    rng = np.random.default_rng(17)
    _, system = system_for([1.0, 0.5, 0.2], random_spd(rng, 3, max_corr=0.8))
    for lifted, inverse in zip(system.lifted, system.information):
        err = np.linalg.norm(lifted - inverse)
        assert err <= 1e-10 * np.linalg.norm(inverse)


def test_lifted_inverse_bounded_near_perfect_correlation():
    rho = 1.0 - 1e-10
    cov = [[1.0, rho], [rho, 1.0]]
    gs, system = system_for([1.0, 0.5], cov)
    (j,) = np.flatnonzero(system.group_indices == gs.groups.index((1, 2)))
    lam_max = np.linalg.eigvalsh(cov)[-1]
    # the lifted spectrum's floor is 1e-6 * lam_max; allow for rounding only
    assert np.linalg.norm(system.lifted[j], 2) <= 1e6 / lam_max * (1.0 + 1e-9)
    assert np.linalg.norm(system.information[j], 2) > 1e9 / lam_max


def random_group_blocks(rng, dim, kind):
    """(K, dim, dim) random PSD information blocks, each on a random subset
    of the models: of full rank on it, of random rank ("rank-deficient"),
    or with one model carrying 1e13 times the information ("ratio", as in
    the projection tests' unidentifiable case)."""
    blocks = np.zeros((rng.integers(1, 6), dim, dim))
    for block in blocks:
        models = rng.choice(dim, rng.integers(1, dim + 1), replace=False)
        rank = models.size if kind != "rank-deficient" else rng.integers(models.size + 1)
        b = rng.standard_normal((models.size, rank))
        block[np.ix_(models, models)] = b @ b.T
    if kind == "ratio":
        scale = np.ones(dim)
        scale[rng.integers(dim)] = 10.0**6.5
        blocks = scale[:, None] * blocks * scale
    return blocks


@pytest.mark.parametrize("kind", ["full", "rank-deficient", "ratio"])
def test_batch_variance_bounds_the_scalar_rule(kind):
    # every row the kernel is sure of bounds blue_variance from below, by
    # at most the factor 1.5 its shift allows; zero counts leave models
    # unsampled, and an unsure stack has nothing to check
    rng = np.random.default_rng(["full", "rank-deficient", "ratio"].index(kind))
    checked = unsure = 0
    for _ in range(300):
        dim = int(rng.integers(1, 9))
        blocks = random_group_blocks(rng, dim, kind)
        members = np.abs(blocks).sum(axis=1) > 0
        system = BlueSystem(
            num_models=dim, num_groups=len(blocks), output=1,
            group_indices=np.arange(len(blocks)), members=members,
            information=blocks, lifted=blocks, highfi_variance=1.0,
            anchor_mask=members[:, 0])
        counts = rng.integers(0, 4, (rng.integers(1, 9), len(blocks))).astype(float)
        last = np.roll(np.arange(dim), -1)  # model 1 last
        psi = np.tensordot(counts, blocks, 1)[:, last][:, :, last]
        bound = _batch_variance(psi, 1e-12)
        sure = np.isfinite(bound)
        unsure += not sure.any()
        for n, low in zip(counts[sure], bound[sure]):
            try:
                variance = blue_variance(system, n)
            except IllPosedError:
                continue
            assert variance / 1.5 <= low <= variance
            checked += 1
    assert checked > 100 and unsure > 0
