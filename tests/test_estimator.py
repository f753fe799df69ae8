import numpy as np
import pytest

from mlblue.covariance import CovarianceStore
from mlblue.estimator import (
    BlueSystem,
    IllPosedError,
    assemble_psi,
    blue_variance,
    combine_samples,
    null_space_basis,
    pseudo_inverse,
    realized_variance,
)
from mlblue.models import enumerate_groups

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
    n[gs.index_of((1,))] = 3.0
    n[gs.index_of((2,))] = 7.0
    assert np.allclose(assemble_psi(sys2, n), np.diag([3.0, 7.0]))


def test_psi_joint_group_is_scaled_inverse():
    c = np.array([[1.0, 0.9], [0.9, 1.0]])
    gs, sys2 = system_for([2.0, 1.0], c, deny=[(1,), (2,)])
    n = np.zeros(gs.num_groups)
    n[gs.index_of((1, 2))] = 10.0
    psi = assemble_psi(sys2, n)
    assert np.allclose(psi, 10.0 * np.linalg.inv(c), rtol=1e-12)
    assert np.allclose(pseudo_inverse(psi).as_matrix(), c / 10.0, rtol=1e-12)


def test_pseudo_inverse_diagonal_and_identity():
    assert np.allclose(
        pseudo_inverse(np.diag([2.0, 0.0])).as_matrix(), np.diag([0.5, 0.0])
    )
    assert np.allclose(pseudo_inverse(np.eye(3)).as_matrix(), np.eye(3))
    assert pseudo_inverse(np.diag([2.0, 0.0])).rank == 1


def test_pseudo_inverse_penrose_conditions():
    rng = np.random.default_rng(9)
    b = rng.standard_normal((4, 2))
    a = b @ b.T  # PSD, rank 2
    p = pseudo_inverse(a).as_matrix()
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
    n[gs.index_of((1, 2))] = 10.0
    assert blue_variance(sys2, n) == pytest.approx(0.1, rel=1e-12)


def test_variance_matches_monte_carlo():
    # n = ({1,2}: 10, {2}: 100) with rho = 0.9: simulate the assembled
    # estimator and compare its sample variance with the prediction
    rho = 0.9
    c = np.array([[1.0, rho], [rho, 1.0]])
    gs, sys2 = system_for([2.0, 1.0], c)
    n = np.zeros(gs.num_groups)
    k12, k2 = gs.index_of((1, 2)), gs.index_of((2,))
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
    n[gs.index_of((1, 2))] = 5.0  # model 3 never drawn
    psi = assemble_psi(sys3, n)
    pinv = pseudo_inverse(psi).as_matrix()
    assert np.all(psi[2] == 0) and np.all(psi[:, 2] == 0)
    assert np.all(pinv[2] == 0) and np.all(pinv[:, 2] == 0)


def test_null_space_examples():
    gs, sys2 = system_for([2.0, 1.0], np.eye(2))
    n = np.zeros(gs.num_groups)
    n[gs.index_of((1,))] = 4.0
    basis = null_space_basis(sys2, n)
    assert basis.shape == (2, 1)
    assert np.allclose(basis[:, 0], [0.0, 1.0])
    # all models sampled: empty basis
    assert null_space_basis(sys2, np.full(gs.num_groups, 1.0)).shape == (2, 0)


def test_null_space_matches_eigendecomposition():
    rng = np.random.default_rng(14)
    gs, sys3 = system_for([4.0, 2.0, 1.0], random_spd(rng, 3))
    n = np.zeros(gs.num_groups)
    n[gs.index_of((1, 2))] = 6.0
    basis = null_space_basis(sys3, n)
    assert np.allclose(basis[:, 0], [0.0, 0.0, 1.0])
    psi = assemble_psi(sys3, n)
    assert np.linalg.norm(psi @ basis[:, 0]) == 0.0
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
        assert null_space_basis(sysl, n).shape == (ell, 0)


def test_combine_samples_zero_variance_recovers_mean():
    gs, sys2 = system_for([2.0, 1.0], np.eye(2))
    n = np.zeros(gs.num_groups)
    k1, k12 = gs.index_of((1,)), gs.index_of((1, 2))
    n[k1], n[k12] = 2.0, 3.0
    mu = np.array([1.5, -0.25])
    samples = {
        k1: np.full((2, 1), mu[0]),
        k12: np.tile(mu, (3, 1)),
    }
    out = combine_samples(sys2, n, samples)
    assert np.allclose(out, mu, rtol=0, atol=1e-13)


def test_combine_samples_single_model_is_sample_mean():
    _, sys1 = system_for([1.0], [[4.0]])
    out = combine_samples(sys1, [3.0], {0: np.array([[1.0], [2.0], [3.0]])})
    assert out[0] == pytest.approx(2.0, rel=1e-15)


def test_combine_samples_replicated_unbiased_and_calibrated():
    rho = 0.9
    c = np.array([[1.0, rho], [rho, 1.0]])
    mu = np.array([2.0, -1.0])
    gs, sys2 = system_for([2.0, 1.0], c, deny=[(1,), (2,)])
    n = np.zeros(gs.num_groups)
    k12 = gs.index_of((1, 2))
    n[k12] = 8.0
    predicted = blue_variance(sys2, n)
    chol = np.linalg.cholesky(c)
    rng = np.random.default_rng(16)
    reps = 10_000
    draws = rng.standard_normal((reps, 8, 2)) @ chol.T + mu
    ests = np.array(
        [combine_samples(sys2, n, {k12: draws[r]})[0] for r in range(reps)]
    )
    se = np.sqrt(predicted / reps)
    assert abs(ests.mean() - mu[0]) < 3.0 * se
    assert ests.var(ddof=1) == pytest.approx(predicted, rel=0.1)


def test_combine_samples_validates_shapes():
    gs, sys2 = system_for([2.0, 1.0], np.eye(2))
    n = np.zeros(gs.num_groups)
    k12 = gs.index_of((1, 2))
    n[k12] = 2.0
    with pytest.raises(ValueError, match=f"group {k12}"):
        combine_samples(sys2, n, {k12: np.zeros((3, 2))})
    with pytest.raises(ValueError, match="integer"):
        combine_samples(sys2, n + 0.5, {k12: np.zeros((2, 2))})


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_covariance_and_samples_raise():
    gs = enumerate_groups(all_output_modelset([2.0, 1.0]), kappa=2)
    cov = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(ValueError, match="not finite"):
        BlueSystem.from_covariance(gs, CovarianceStore(cov[None]))
    _, sys2 = system_for([2.0, 1.0], np.eye(2))
    n = np.zeros(gs.num_groups)
    k12 = gs.index_of((1, 2))
    n[k12] = 2.0
    with pytest.raises(ValueError, match=f"group {k12} samples are not finite"):
        combine_samples(sys2, n, {k12: np.array([[1.0, 2.0], [np.inf, 0.0]])})


def test_ill_posed_allocation_raises():
    gs, sys2 = system_for([2.0, 1.0], np.eye(2))
    n = np.zeros(gs.num_groups)
    n[gs.index_of((2,))] = 50.0  # model 1 never sampled
    with pytest.raises(IllPosedError):
        blue_variance(sys2, n)
    with pytest.raises(IllPosedError):
        combine_samples(sys2, n, {gs.index_of((2,)): np.zeros((50, 1))})


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
    usable = [gs.groups[k] for k in system.usable_group_indices()]
    assert (1, 3) not in usable
    assert (1, 2) in usable and (2, 3) in usable
    expect = gs.highfi_mask(1).copy()
    expect[gs.index_of((1, 3))] = False
    assert np.array_equal(system.anchor_mask, expect)


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
