import itertools

import numpy as np
import pytest

from mlblue.baselines import (
    _suffix_groups,
    mfmc_allocation,
    mfmc_variance,
    mlmc_allocation,
    mlmc_levels,
    mlmc_variance,
    multi_output_baseline,
)
from mlblue.covariance import CovarianceStore
from mlblue.models import ModelSet

from conftest import all_output_modelset, random_spd


def test_mlmc_single_level_is_plain_mc():
    n = mlmc_allocation([4.0], [1.0], eps2=0.04)
    assert n == pytest.approx([100.0], rel=1e-12)


def test_mlmc_two_level_closed_form():
    eps2 = 0.01
    n = mlmc_allocation([1.0, 0.01], [0.01, 1.0], eps2)
    assert n == pytest.approx([2.0 / eps2, 0.02 / eps2], rel=1e-12)
    assert mlmc_variance([1.0, 0.01], n) == pytest.approx(eps2, rel=1e-12)


def test_mlmc_matches_grid_minimization():
    # direct 2-d search over the variance-constrained cost surface
    v = np.array([0.8, 0.05])
    c = np.array([0.3, 2.0])
    eps2 = 0.02
    n_star = mlmc_allocation(v, c, eps2)
    cost_star = float(c @ n_star)
    grid = np.geomspace(0.2, 5.0, 901)
    best = np.inf
    for f in grid:
        n1 = n_star[0] * f
        # cheapest n2 meeting the constraint given n1
        rem = eps2 - v[0] / n1
        if rem <= 0:
            continue
        n2 = v[1] / rem
        best = min(best, c[0] * n1 + c[1] * n2)
    assert cost_star <= best * (1 + 1e-9)
    assert cost_star == pytest.approx(best, rel=1e-3)


def test_mlmc_integer_counts_honor_tolerance():
    rng = np.random.default_rng(40)
    for _ in range(20):
        k = int(rng.integers(1, 5))
        v = rng.uniform(0.01, 2.0, k)
        c = rng.uniform(0.05, 3.0, k)
        eps2 = float(rng.uniform(0.005, 0.5))
        n = np.ceil(mlmc_allocation(v, c, eps2) - 1e-9)
        assert mlmc_variance(v, n) <= eps2 * (1 + 1e-9)


def test_mlmc_variance_skips_zero_variance_levels():
    assert mlmc_variance([0.0, 1.0], [0.0, 10.0]) == pytest.approx(0.1)
    assert mlmc_variance([1.0, 1.0], [0.0, 10.0]) == np.inf


def test_mlmc_levels_order_and_pairs():
    costs = np.array([5.0, 1.0, 3.0])
    order, levels = mlmc_levels((1, 2, 3), costs)
    assert order == [1, 3, 2]
    assert levels == [(1, 3), (3, 2), (2,)]
    # cost tie broken by id
    order, _ = mlmc_levels((1, 2, 3), np.array([2.0, 2.0, 2.0]))
    assert order == [1, 2, 3]


def test_mlmc_baseline_groups_are_the_level_pairs():
    rng = np.random.default_rng(48)
    for _ in range(10):
        costs = np.array([4.0, 0.5, 0.05])
        store = CovarianceStore(random_spd(rng, 3)[None])
        alloc = multi_output_baseline("mlmc", ModelSet(costs), store,
                                      [0.01 * store.matrix(1)[0, 0]])
        assert list(alloc.groups) == mlmc_levels(alloc.model_subset, costs)[1]
        assert len(alloc.counts) == len(alloc.groups)
        assert all(isinstance(c, int) and c >= 1 for c in alloc.counts)
        cost = sum(c * costs[np.asarray(g) - 1].sum()
                   for g, c in zip(alloc.groups, alloc.counts))
        assert cost == pytest.approx(alloc.total_cost, rel=1e-12)


def test_suffix_groups_split_nested_counts():
    groups, counts = _suffix_groups({1: 2, 2: 5, 3: 5})
    assert groups == ((1, 2, 3), (2, 3))
    assert counts == (2, 3)
    # per-model totals reconstruct the nested counts
    totals = {1: 0, 2: 0, 3: 0}
    for g, c in zip(groups, counts):
        for i in g:
            totals[i] += c
    assert totals == {1: 2, 2: 5, 3: 5}
    assert _suffix_groups({1: 7}) == (((1,),), (7,))


def test_mfmc_single_model_is_plain_mc():
    n = mfmc_allocation([4.0], [1.0], [1.0], eps2=0.04)
    assert n == pytest.approx([100.0], rel=1e-12)


def test_mfmc_two_model_matches_grid():
    rho, c1, c2, eps2 = 0.9, 1.0, 0.01, 0.005
    n = mfmc_allocation([1.0, 1.0], [1.0, rho], [c1, c2], eps2)
    assert n is not None
    cost_star = c1 * n[0] + c2 * n[1]
    # control-variate variance delta1/m1 + delta2/m2 with optimal weights
    d1, d2 = 1.0 - rho**2, rho**2
    best = np.inf
    for m1 in np.geomspace(n[0] / 4, n[0] * 4, 1201):
        rem = eps2 - d1 / m1
        if rem <= 0:
            continue
        m2 = d2 / rem
        if m2 < m1:
            continue
        best = min(best, c1 * m1 + c2 * m2)
    assert cost_star == pytest.approx(best, rel=1e-3)
    assert mfmc_variance([1.0, 1.0], [1.0, rho], n) == pytest.approx(
        eps2, rel=1e-12
    )


def test_mfmc_rejects_misordered_correlations():
    out = mfmc_allocation(
        [1.0, 1.0, 1.0], [1.0, 0.7, 0.9], [1.0, 0.1, 0.01], eps2=0.01
    )
    assert out is None


def test_mfmc_rejects_cost_ratio_violation():
    # second model nearly as correlated but nearly as expensive: the
    # optimal counts would not be nested
    out = mfmc_allocation([1.0, 1.0], [1.0, 0.3], [1.0, 0.99], eps2=0.01)
    assert out is None


def test_mfmc_input_validation():
    with pytest.raises(ValueError, match="correlations\\[0\\]"):
        mfmc_allocation([1.0, 1.0], [0.9, 0.9], [1.0, 0.1], eps2=0.01)
    with pytest.raises(ValueError):
        mfmc_allocation([1.0, -1.0], [1.0, 0.9], [1.0, 0.1], eps2=0.01)


def test_mfmc_admissibility_invariant_to_cost_scale():
    rng = np.random.default_rng(41)
    for _ in range(30):
        k = int(rng.integers(2, 5))
        rho = np.sort(rng.uniform(0.1, 0.99, k - 1))[::-1]
        rho = np.concatenate([[1.0], rho])
        sig2 = rng.uniform(0.5, 2.0, k)
        c = np.sort(rng.uniform(0.01, 1.0, k))[::-1]
        a = mfmc_allocation(sig2, rho, c, eps2=0.01)
        b = mfmc_allocation(sig2, rho, 173.0 * c, eps2=0.01)
        assert (a is None) == (b is None)
        if a is not None:
            assert np.allclose(a, b, rtol=1e-12)


def test_mlmc_predicted_variance_matches_simulation():
    # two-level telescoping estimator on correlated Gaussians
    rng = np.random.default_rng(42)
    cov = np.array([[2.0, 1.7], [1.7, 1.6]])
    vdiff = cov[0, 0] + cov[1, 1] - 2 * cov[0, 1]
    v = np.array([vdiff, cov[1, 1]])
    n = np.array([40, 160])
    predicted = mlmc_variance(v, n)
    chol = np.linalg.cholesky(cov)
    reps = 10_000
    fine = rng.standard_normal((reps, n[0], 2)) @ chol.T
    coarse = np.sqrt(cov[1, 1]) * rng.standard_normal((reps, n[1]))
    est = (fine[:, :, 0] - fine[:, :, 1]).mean(axis=1) + coarse.mean(axis=1)
    assert est.var(ddof=1) == pytest.approx(predicted, rel=0.1)


def test_mfmc_predicted_variance_matches_simulation():
    rng = np.random.default_rng(43)
    rho = 0.85
    cov = np.array([[1.0, rho], [rho, 1.0]])
    n = np.array([30, 300])
    predicted = mfmc_variance([1.0, 1.0], [1.0, rho], n)
    alpha = rho  # optimal control weight rho * sigma1 / sigma2
    chol = np.linalg.cholesky(cov)
    reps = 10_000
    # nested draws: first n1 rows shared by both models
    full = rng.standard_normal((reps, n[1], 2)) @ chol.T
    est = (
        full[:, : n[0], 0].mean(axis=1)
        + alpha * (full[:, :, 1].mean(axis=1) - full[:, : n[0], 1].mean(axis=1))
    )
    assert est.var(ddof=1) == pytest.approx(predicted, rel=0.1)


def _exhaustive_best(method, models, store, eps2):
    from mlblue.baselines import _evaluate_subset, _subset_outputs_ok

    best = None
    for size in range(models.num_models):
        for extra in itertools.combinations(range(2, models.num_models + 1), size):
            subset = (1,) + extra
            if not _subset_outputs_ok(models, store, subset):
                continue
            out = _evaluate_subset(method, models, store, subset, np.atleast_1d(eps2))
            if out is None:
                continue
            key = (out[1], subset)
            if best is None or key < best[0]:
                best = (key, subset)
    return best[1]


def test_multi_output_single_reduces_to_best_subset():
    rng = np.random.default_rng(44)
    cov = random_spd(rng, 3)
    models = all_output_modelset([4.0, 0.5, 0.05])
    store = CovarianceStore(cov[None])
    for method in ("mlmc", "mfmc"):
        alloc = multi_output_baseline(method, models, store, [0.01 * cov[0, 0]])
        assert alloc.model_subset == _exhaustive_best(
            method, models, store, 0.01 * cov[0, 0]
        )
        assert alloc.method == method
        assert np.all(alloc.predicted_variance <= 0.01 * cov[0, 0] * (1 + 1e-9))


def test_multi_output_identical_outputs_match_single():
    rng = np.random.default_rng(45)
    cov = random_spd(rng, 3)
    models1 = all_output_modelset([4.0, 0.5, 0.05])
    models2 = all_output_modelset([4.0, 0.5, 0.05], num_outputs=2)
    store1 = CovarianceStore(cov[None])
    store2 = CovarianceStore(np.stack([cov, cov]))
    eps2 = 0.02 * cov[0, 0]
    for method in ("mlmc", "mfmc"):
        a = multi_output_baseline(method, models1, store1, [eps2])
        b = multi_output_baseline(method, models2, store2, [eps2, eps2])
        assert a.model_subset == b.model_subset
        assert (a.groups, a.counts) == (b.groups, b.counts)
        assert a.total_cost == b.total_cost


def test_multi_output_excludes_partial_models():
    # model 3 misses output 2, so no subset containing it is admissible
    rng = np.random.default_rng(46)
    cov = np.stack([random_spd(rng, 3), random_spd(rng, 3)])
    models = ModelSet([4.0, 0.5, 0.05], outputs=[[1, 2], [1, 2], [1]], num_outputs=2)
    store = CovarianceStore(cov)
    eps2 = 0.05 * cov[:, 0, 0]
    alloc = multi_output_baseline("mlmc", models, store, eps2)
    assert 3 not in alloc.model_subset


def test_multi_output_no_admissible_configuration():
    # degenerate target variance disqualifies every mfmc subset
    cov = np.array([[0.0, 0.0], [0.0, 1.0]])
    models = all_output_modelset([4.0, 0.5])
    store = CovarianceStore(cov[None])
    with pytest.raises(ValueError, match="MFMC"):
        multi_output_baseline("mfmc", models, store, [1e9])
    # fully unknown covariance disqualifies every mlmc subset
    blank = CovarianceStore(np.eye(2)[None], known=np.zeros((1, 2, 2), bool))
    with pytest.raises(ValueError, match="MLMC"):
        multi_output_baseline("mlmc", models, blank, [0.1])


def test_unknown_method_rejected():
    models = all_output_modelset([1.0])
    store = CovarianceStore(np.eye(1)[None])
    with pytest.raises(ValueError, match="unknown baseline"):
        multi_output_baseline("mc", models, store, [0.1])
