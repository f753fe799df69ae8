"""Closed-form multilevel and multifidelity baseline allocations.

Two classical estimators serve as cost references: the multilevel
difference estimator (telescoping sum over cost-ordered model pairs) and
the control-variate style multifidelity estimator (correlation-ordered,
nested sample sets). Both have closed-form optimal sample counts for a
target variance; neither searches over groups, which is exactly what the
SDP-based allocator improves on.

Multi-output variants follow the conservative rule: compute each output's
allocation separately on a candidate model subset, pay for the entrywise
maximum of the sample counts, and report each output's variance at its own
counts. The best subset is found by exhaustive search over the groups of
``enumerate_groups`` that hold model 1 and that every output can use, by
the estimator's ``usable_groups`` rule; that is why these baselines are
limited to small model counts. A subset's covariance entries are gathered
for every output by one fancy index; the allocations stay per output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceStore
from .estimator import usable_groups
from .models import ModelSet, enumerate_groups

__all__ = [
    "BaselineAllocation",
    "mlmc_allocation",
    "mlmc_levels",
    "mlmc_variance",
    "mfmc_allocation",
    "mfmc_variance",
    "multi_output_baseline",
]

_MAX_EXHAUSTIVE_MODELS = 12


@dataclass(frozen=True)
class BaselineAllocation:
    """A baseline estimator's allocation as sampling groups and their counts.

    For 'mlmc' the groups are the cost-descending level pairs, the last
    level being the cheapest model alone. For 'mfmc' they are the suffix
    groups of the nested per-model counts: the j-th holds every model whose
    count reaches the j-th distinct count, and draws the increment.
    ``predicted_variance`` is per output.
    """

    method: str
    groups: tuple[tuple[int, ...], ...]
    counts: tuple[int, ...]
    total_cost: float
    predicted_variance: np.ndarray


def mlmc_allocation(level_variances, level_costs, eps2: float) -> np.ndarray:
    """Optimal continuous per-level counts for the telescoping estimator.

    ``level_variances[k]`` is the variance of the k-th level difference and
    ``level_costs[k]`` the cost of one sample of it. The counts hit total
    variance eps2 at minimal cost.
    """
    v = np.asarray(level_variances, dtype=float)
    c = np.asarray(level_costs, dtype=float)
    if v.shape != c.shape or v.ndim != 1 or v.size == 0:
        raise ValueError("need matching 1-d level variances and costs")
    if np.any(v < 0) or np.any(c <= 0) or eps2 <= 0:
        raise ValueError("variances must be >= 0, costs and eps2 > 0")
    total = np.sum(np.sqrt(v * c))
    return np.sqrt(v / c) * total / eps2


def mlmc_variance(level_variances, counts) -> float:
    """Estimator variance at given per-level counts (zero-count levels
    contribute their full variance only if it is nonzero)."""
    v = np.asarray(level_variances, dtype=float)
    n = np.asarray(counts, dtype=float)
    out = 0.0
    for vk, nk in zip(v, n):
        if vk == 0.0:
            continue
        if nk <= 0.0:
            return float("inf")
        out += vk / nk
    return out


def _correlation_drops(rho):
    """r2 = rho**2 and its drops delta_k = r2_k - r2_(k+1), delta_0 = 1 - r2_1."""
    r2 = np.minimum(rho * rho, 1.0)
    delta = r2 - np.append(r2[1:], 0.0)
    delta[0] = 1.0 - (r2[1] if r2.size > 1 else 0.0)
    return r2, delta


def mfmc_allocation(variances, correlations, costs, eps2: float):
    """Optimal counts for the correlation-ordered multifidelity estimator.

    Inputs are per model, model 1 (the target) first, already ordered by
    nonincreasing |correlation with model 1|; ``correlations[0]`` must be 1.
    Returns the continuous per-model counts, or None when the inputs
    violate the ordering or the nestedness (cost-ratio) admissibility
    conditions. None is a rejection value: the model combination cannot be
    used by this estimator, which is an expected outcome during subset
    search, not an error.
    """
    sig2 = np.asarray(variances, dtype=float)
    rho = np.asarray(correlations, dtype=float)
    c = np.asarray(costs, dtype=float)
    if not (sig2.shape == rho.shape == c.shape) or sig2.ndim != 1:
        raise ValueError("need matching 1-d variances, correlations, costs")
    if np.any(sig2 <= 0) or np.any(c <= 0) or eps2 <= 0:
        raise ValueError("variances, costs, and eps2 must be positive")
    if abs(rho[0] - 1.0) > 1e-12:
        raise ValueError("correlations[0] must be 1 (model with itself)")
    if np.any(np.abs(rho) > 1.0 + 1e-12):
        raise ValueError("correlations must lie in [-1, 1]")

    r2, delta = _correlation_drops(rho)
    if np.any(np.diff(r2) > 1e-12):
        return None  # not ordered by decreasing squared correlation
    if np.any(delta <= 0.0):
        return None  # duplicate correlation levels give no usable ordering

    unit = np.sqrt(delta / c)
    ratios = unit / unit[0]
    if np.any(np.diff(ratios) < -1e-12):
        return None  # optimal counts would violate nestedness
    total = np.sum(np.sqrt(delta * c))
    return sig2[0] / eps2 * unit * total


def mfmc_variance(variances, correlations, counts) -> float:
    """Estimator variance at given per-model counts (same input order as
    mfmc_allocation; counts need not be the optimal ones but must be
    positive and nondecreasing)."""
    sig2 = np.asarray(variances, dtype=float)
    rho = np.asarray(correlations, dtype=float)
    n = np.asarray(counts, dtype=float)
    if np.any(n <= 0):
        return float("inf")
    return float(sig2[0] * np.sum(_correlation_drops(rho)[1] / n))


def mlmc_levels(subset, costs):
    """The level pair list of a model subset.

    Levels pair consecutive models in cost-descending order, the last level
    is the cheapest model alone. Cost ties are broken by model id.
    """
    order = sorted(subset, key=lambda i: (-costs[i - 1], i))
    levels = [(order[k], order[k + 1]) for k in range(len(order) - 1)]
    levels.append((order[-1],))
    return levels


def _suffix_groups(per_model):
    """(groups, count increments) of nested, positive per-model counts."""
    groups, counts, prev = [], [], 0
    for level in sorted(set(per_model.values())):
        groups.append(tuple(i for i in sorted(per_model) if per_model[i] >= level))
        counts.append(level - prev)
        prev = level
    return tuple(groups), tuple(counts)


def multi_output_baseline(
    method: str, models: ModelSet, store: CovarianceStore, eps2
) -> BaselineAllocation:
    """Best baseline allocation over all model subsets containing model 1.

    ``eps2`` holds one variance target per output. Subsets must produce
    every output and have fully known covariance; for 'mfmc' each output's
    ordering and admissibility conditions must also hold. Ties in total
    cost go to the lexicographically smaller subset. Raises when every
    subset is rejected.
    """
    if method not in ("mlmc", "mfmc"):
        raise ValueError(f"unknown baseline method {method!r}")
    n_models = models.num_models
    if n_models > _MAX_EXHAUSTIVE_MODELS:
        raise ValueError(
            f"exhaustive subset search is limited to {_MAX_EXHAUSTIVE_MODELS} models"
        )
    eps2 = np.asarray(eps2, dtype=float).reshape(-1)
    if eps2.size != store.num_outputs or np.any(eps2 <= 0):
        raise ValueError("need one positive variance target per output")

    # the candidates are the groups holding model 1 that every output can use
    subsets = enumerate_groups(models)
    usable = np.all([usable_groups(subsets, store, s)
                     for s in range(1, store.num_outputs + 1)], axis=0)
    best = None
    for k in np.flatnonzero(usable & subsets.members[:, 0]):
        subset = subsets.groups[k]
        result = _evaluate_subset(method, models, store, subset, eps2)
        if result is None:
            continue
        groups, counts, cost, variances = result
        key = (cost, subset)
        if best is None or key < best[0]:
            best = (key, groups, counts, cost, variances)

    if best is None:
        raise ValueError(f"no admissible {method.upper()} configuration")
    _, groups, counts, cost, variances = best
    return BaselineAllocation(
        method=method,
        groups=groups,
        counts=counts,
        total_cost=cost,
        predicted_variance=variances,
    )


def _evaluate_subset(method, models, store, subset, eps2):
    """(groups, counts, cost, per-output variances) of one model subset, or
    None when some output rejects it. Each output's covariance entries are
    gathered by one fancy index over ``store.matrices``."""
    mats = store.matrices
    if method == "mlmc":
        levels = mlmc_levels(subset, models.costs)
        # model ids in level order: level k pairs order[k] with order[k + 1]
        order = np.array([level[0] for level in levels]) - 1
        diag = mats[:, order, order]
        level_vars = np.concatenate(
            [diag[:, :-1] + diag[:, 1:] - 2 * mats[:, order[:-1], order[1:]],
             diag[:, -1:]], axis=1)
        if np.any(level_vars < 0):
            return None  # store not PSD enough to give level variances
        c = models.costs[order]
        level_costs = np.append(c[:-1] + c[1:], c[-1])
        counts = np.zeros(len(levels))
        for s in range(store.num_outputs):
            counts = np.maximum(
                counts, mlmc_allocation(level_vars[s], level_costs, eps2[s]))
        samples = np.ceil(counts - 1e-9).astype(int)
        samples = np.maximum(samples, 1)  # a level with ~0 variance still needs a sample
        cost = float(level_costs @ samples)
        variances = np.array([mlmc_variance(v, samples) for v in level_vars])
        return tuple(levels), tuple(int(v) for v in samples), cost, variances

    # mfmc: per-output ordering by |correlation with model 1|
    idx = np.asarray(subset) - 1
    sig2 = mats[:, idx, idx]
    if np.any(sig2 <= 0):
        return None
    rho = mats[:, 0, idx] / np.sqrt(mats[:, :1, 0] * sig2)
    costs = models.costs[idx]
    per_model_max = np.zeros(idx.size, dtype=int)
    variances = []
    for s in range(store.num_outputs):
        order = sorted(range(idx.size), key=lambda a: (-abs(rho[s, a]), subset[a]))
        if subset[order[0]] != 1:
            return None  # another model ties |rho|=1; ordering is degenerate
        counts = mfmc_allocation(sig2[s, order], rho[s, order], costs[order], eps2[s])
        if counts is None:
            return None
        counts = np.maximum(np.ceil(counts - 1e-9).astype(int), 1)
        per_model_max[order] = np.maximum(per_model_max[order], counts)
        variances.append(mfmc_variance(sig2[s, order], rho[s, order], counts))
    # a sequential sum in subset order, not a dot product
    cost = float(sum(costs * per_model_max))
    per_model = dict(zip(subset, per_model_max.tolist()))
    return (*_suffix_groups(per_model), cost, np.array(variances))
