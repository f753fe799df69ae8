import itertools

import numpy as np
import pytest

from mlblue.baselines import (
    _MAX_EXHAUSTIVE_MODELS,
    _evaluate_subset,
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

from conftest import all_output_modelset, assert_outcome, random_spd


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
    assert mlmc_levels((1, 2, 3), costs) == [(1, 3), (3, 2), (2,)]
    # cost tie broken by id
    assert mlmc_levels((1, 2, 3), np.array([2.0, 2.0, 2.0])) == [
        (1, 2), (2, 3), (3,)]


def test_mlmc_baseline_groups_are_the_level_pairs():
    rng = np.random.default_rng(48)
    for _ in range(10):
        costs = np.array([4.0, 0.5, 0.05])
        store = CovarianceStore(random_spd(rng, 3)[None])
        alloc = multi_output_baseline("mlmc", ModelSet(costs), store,
                                      [0.01 * store.matrices[0][0, 0]])
        assert list(alloc.groups) == mlmc_levels(_subset(alloc), costs)
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


def _subset(alloc):
    """The models a baseline allocation samples, ascending."""
    return tuple(sorted({i for g in alloc.groups for i in g}))


def _exhaustive_best(method, models, store, eps2):
    """``multi_output_baseline`` by brute force: (groups, counts, cost,
    variances) of the best subset, or the ValueError the search raises. A
    subset is a candidate when it holds model 1, each of its models produces
    every output, and every pair of its models is known for every output."""
    eps2 = np.asarray(eps2, dtype=float).reshape(-1)
    best = None
    for size in range(models.num_models):
        for extra in itertools.combinations(range(2, models.num_models + 1), size):
            subset = (1,) + extra
            idx = np.array(subset) - 1
            if not (models.produces[idx].all()
                    and all(known[np.ix_(idx, idx)].all() for known in store.known)):
                continue
            out = _evaluate_subset(method, models, store, subset, eps2)
            if out is not None and (best is None or (out[2], subset) < best[0]):
                best = ((out[2], subset), out)
    if best is None:
        return ValueError(f"no admissible {method.upper()} configuration")
    return best[1]


def _searched(method, models, store, eps2):
    """``multi_output_baseline``'s answer in ``_exhaustive_best``'s form."""
    try:
        alloc = multi_output_baseline(method, models, store, eps2)
    except ValueError as exc:
        return exc
    return alloc.groups, alloc.counts, alloc.total_cost, alloc.predicted_variance


def test_multi_output_single_reduces_to_best_subset():
    rng = np.random.default_rng(44)
    cov = random_spd(rng, 3)
    models = all_output_modelset([4.0, 0.5, 0.05])
    store = CovarianceStore(cov[None])
    for method in ("mlmc", "mfmc"):
        alloc = multi_output_baseline(method, models, store, [0.01 * cov[0, 0]])
        groups = _exhaustive_best(method, models, store, 0.01 * cov[0, 0])[0]
        assert alloc.groups == groups
        assert alloc.method == method
        assert np.all(alloc.predicted_variance <= 0.01 * cov[0, 0] * (1 + 1e-9))


def _correlated(rng, n):
    """A covariance where model i is a shared factor plus noise that grows
    with i, so that subsets of several models pay off."""
    load = rng.uniform(0.8, 1.2, n)
    noise = 0.05 * 2.0 ** np.arange(n) * rng.uniform(0.5, 1.5, n)
    return np.outer(load, load) + np.diag(noise ** 2)


def _two_output_case(seed, outputs, known=None, bend=None):
    """(models, store, eps2) over 4 models and 2 outputs; ``bend`` edits
    the covariances before the store is built."""
    rng = np.random.default_rng(seed)
    cov = np.stack([_correlated(rng, 4), _correlated(rng, 4)])
    if bend is not None:
        bend(cov)
    models = ModelSet([8.0, 2.0, 0.5, 0.1], outputs=outputs, num_outputs=2)
    return models, CovarianceStore(cov, known), 0.02 * np.abs(cov).max(axis=(1, 2))


def _unknown_pair(a, b):
    known = np.ones((2, 4, 4), dtype=bool)
    known[1, a - 1, b - 1] = known[1, b - 1, a - 1] = False
    return known


def _not_psd(cov):
    # the pair (2, 3) correlates past 1 in output 1, so the level (2, 3)
    # has a negative variance there, and model 4's variance in output 2
    # is negative
    cov[0, 1, 2] = cov[0, 2, 1] = 1.5 * np.sqrt(cov[0, 1, 1] * cov[0, 2, 2])
    cov[1, 3, 3] = -cov[1, 3, 3]


def _twelve_models():
    rng = np.random.default_rng(50)
    costs = 4.0 ** np.arange(11, -1, -1)
    cov = np.stack([_correlated(rng, 12), _correlated(rng, 12)])
    models = all_output_modelset(costs, num_outputs=2)
    return models, CovarianceStore(cov), 1e-3 * cov[:, 0, 0]


def _zero_highfi_variance(cov):
    # output 2's model 1 is constant: MLMC samples it once, MFMC rejects it
    cov[1, 0, :] = cov[1, :, 0] = 0.0


ALL = [[1, 2]] * 4
SEARCH_CASES = {
    "model-3-misses-output-2": lambda: _two_output_case(51, [[1, 2], [1, 2], [1], [1, 2]]),
    "unknown-pair": lambda: _two_output_case(52, ALL, known=_unknown_pair(2, 4)),
    "unknown-pair-with-model-1": lambda: _two_output_case(54, ALL, known=_unknown_pair(1, 2)),
    "not-psd": lambda: _two_output_case(56, ALL, bend=_not_psd),
    "zero-highfi-variance": lambda: _two_output_case(55, ALL, bend=_zero_highfi_variance),
    f"{_MAX_EXHAUSTIVE_MODELS}-models": _twelve_models,
}


@pytest.mark.parametrize("method", ["mlmc", "mfmc"])
@pytest.mark.parametrize("case", SEARCH_CASES.values(), ids=SEARCH_CASES.keys())
def test_search_matches_brute_force(case, method):
    models, store, eps2 = case()
    expected = _exhaustive_best(method, models, store, eps2)
    got = _searched(method, models, store, eps2)
    if isinstance(expected, Exception):
        assert (type(got), str(got)) == (type(expected), str(expected))
        return
    groups, counts, cost, variances = got
    assert (groups, counts, cost) == expected[:3]
    assert np.array_equal(variances, expected[3])


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
        assert _subset(a) == _subset(b)
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
    assert 3 not in _subset(alloc)


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


def two_model_subset(method, cov):
    """The baseline of subset (1, 2) on one output with covariance ``cov``."""
    store = CovarianceStore(np.asarray(cov, dtype=float)[None])
    return _evaluate_subset(method, ModelSet([2.0, 1.0]), store, (1, 2), np.ones(1))


TOO_MANY = _MAX_EXHAUSTIVE_MODELS + 1
BASELINE_OUTCOMES = {
    "mlmc-shapes": (lambda: mlmc_allocation([1.0, 2.0], [1.0], 1.0),
                    ValueError("need matching 1-d level variances and costs")),
    "mlmc-negative-variance": (lambda: mlmc_allocation([-1.0], [1.0], 1.0),
                               ValueError("variances must be >= 0, costs and eps2 > 0")),
    "mfmc-shapes": (lambda: mfmc_allocation([1.0, 1.0], [1.0], [1.0, 1.0], 1.0),
                    ValueError("need matching 1-d variances, correlations, costs")),
    "mfmc-correlation-range": (
        lambda: mfmc_allocation([1.0, 1.0], [1.0, 1.5], [1.0, 0.1], 1.0),
        ValueError("correlations must lie in [-1, 1]")),
    # two models with the same correlation leave no drop between them
    "mfmc-tied-correlations": (
        lambda: mfmc_allocation([1.0] * 3, [1.0, 0.9, 0.9], [1.0, 0.1, 0.01], 1.0),
        None),
    "mfmc-zero-count": (lambda: mfmc_variance([1.0], [1.0], [0.0]), float("inf")),
    "too-many-models": (
        lambda: multi_output_baseline("mlmc", ModelSet([1.0] * TOO_MANY),
                                      CovarianceStore(np.eye(TOO_MANY)), [1.0]),
        ValueError(f"exhaustive subset search is limited to "
                   f"{_MAX_EXHAUSTIVE_MODELS} models")),
    "eps2-count": (
        lambda: multi_output_baseline("mlmc", ModelSet([2.0, 1.0]),
                                      CovarianceStore(np.eye(2)), [1.0, 1.0]),
        ValueError("need one positive variance target per output")),
    # a covariance that is not PSD: the level (1, 2) has variance -2
    "mlmc-negative-level-variance": (
        lambda: two_model_subset("mlmc", [[1.0, 2.0], [2.0, 1.0]]), None),
    # model 2's correlation with model 1 exceeds 1, so it sorts first
    "mfmc-model-1-not-first": (
        lambda: two_model_subset("mfmc", [[1.0, 1.5], [1.5, 2.0]]), None),
}


@pytest.mark.parametrize("call, outcome", BASELINE_OUTCOMES.values(),
                         ids=BASELINE_OUTCOMES.keys())
def test_baseline_edge_inputs(call, outcome):
    assert_outcome(call, outcome)
