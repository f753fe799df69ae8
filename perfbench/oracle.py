"""Reference computations the benchmark scores the program's outputs with.

Plain numpy, from the loadings of a generated config; nothing here imports
the program's estimator or allocator. It covers:

- the BLUE variance of each output, e1' Psi(n)^+ e1 with
  Psi(n) = sum_k n_k R_k' C_k^-1 R_k, for one allocation or a batch;
- the best floor/ceil rounding of a continuous allocation, scored by that
  variance with the program's tie-break (objective, then cost, then
  lexicographic order of the count vector);
- the closed-form variances of the multilevel (MLMC) and multifidelity
  (MFMC) baselines at given sample counts.
"""

from __future__ import annotations

import numpy as np

# an entry this close to an integer is not rounded either way
SNAP_TOL = 1e-6
# relative slack of the budget and tolerance tests, as in the program
FEAS_RTOL = 1e-12


def covariances(loadings) -> np.ndarray:
    """Per-output model covariance A_s A_s' from (outputs, models, factors)."""
    a = np.asarray(loadings, dtype=float)
    if a.ndim == 2:
        a = a[None]
    return np.einsum("smf,snf->smn", a, a)


class OutputSystem:
    """Information blocks of one output over an ordered list of groups.

    ``groups`` holds 1-based model-id tuples; every group must consist of
    models that produce this output.
    """

    def __init__(self, cov, groups):
        cov = np.asarray(cov, dtype=float)
        num_models = cov.shape[0]
        self.blocks = np.zeros((len(groups), num_models, num_models))
        self.members = np.zeros((len(groups), num_models), dtype=bool)
        for k, group in enumerate(groups):
            idx = [i - 1 for i in group]
            self.blocks[k][np.ix_(idx, idx)] = np.linalg.inv(cov[np.ix_(idx, idx)])
            self.members[k, idx] = True
        self.highfi = self.members[:, 0].copy()

    def variances(self, counts) -> np.ndarray:
        """BLUE variance for each row of ``counts`` (inf when ill-posed).

        On the models some sampled group covers, Psi is positive definite,
        so its pseudo-inverse there is the plain inverse; uncovered models
        only add zero rows and columns.
        """
        counts = np.atleast_2d(np.asarray(counts, dtype=float))
        psi = np.tensordot(counts, self.blocks, axes=(1, 0))
        covered = (counts > 0) @ self.members > 0
        out = np.full(counts.shape[0], np.inf)
        patterns, which = np.unique(covered, axis=0, return_inverse=True)
        for p, mask in enumerate(patterns):
            if not mask[0]:
                continue
            rows = np.flatnonzero(which.reshape(-1) == p)
            sub = psi[rows][:, mask][:, :, mask]
            rhs = np.zeros((rows.size, int(mask.sum()), 1))
            rhs[:, 0, 0] = 1.0
            out[rows] = np.linalg.solve(sub, rhs)[:, 0, 0]
        return out

    def variance(self, counts) -> float:
        return float(self.variances(counts)[0])


def best_rounding(systems, group_costs, n0, mode, budget=None, eps2=None):
    """The floor/ceil rounding of ``n0`` the program's projection must pick.

    Every combination of floor and ceiling of the fractional entries is
    scored. A candidate is feasible when each output keeps a sampled group
    containing model 1, the budget holds (budget mode) and every variance
    meets its tolerance (tolerance mode). The objective is the worst
    variance (budget) or the cost (tolerance); ties go to the cheaper and
    then to the lexicographically smaller count vector. Returns
    (counts, variances, number of fractional entries), or None for the
    counts when no combination is feasible.
    """
    n0 = np.asarray(n0, dtype=float)
    costs = np.asarray(group_costs, dtype=float)
    snapped = np.rint(n0)
    near = np.abs(n0 - snapped) <= SNAP_TOL
    base = np.where(near, snapped, np.floor(n0))
    frac = np.flatnonzero(~near)
    f = frac.size
    bits = (np.arange(2 ** f)[:, None] >> np.arange(f)[::-1]) & 1
    cands = np.repeat(base[None, :], 2 ** f, axis=0)
    cands[:, frac] += bits
    cost = cands @ costs

    ok = np.ones(len(cands), dtype=bool)
    for system in systems:
        ok &= cands[:, system.highfi].sum(axis=1) >= 1.0 - 1e-9
    if mode == "budget":
        ok &= cost <= budget * (1.0 + FEAS_RTOL) + FEAS_RTOL
    var = np.full((len(cands), len(systems)), np.inf)
    rows = np.flatnonzero(ok)
    for s, system in enumerate(systems):
        var[rows, s] = system.variances(cands[rows])
    ok &= np.all(np.isfinite(var), axis=1)
    if mode == "tolerance":
        ok &= np.all(var <= np.asarray(eps2) * (1.0 + FEAS_RTOL), axis=1)
    rows = np.flatnonzero(ok)
    if rows.size == 0:
        return None, None, f
    objective = var[rows].max(axis=1) if mode == "budget" else cost[rows]
    pick = min(range(rows.size),
               key=lambda i: (objective[i], cost[rows[i]], tuple(cands[rows[i]])))
    best = rows[pick]
    return cands[best], var[best], f


def mlmc_variance(cov, levels, counts) -> float:
    """sum_l V_l / N_l, V_l the variance of model i minus model j (or of
    model i alone for a one-model level)."""
    total = 0.0
    for level, n in zip(levels, counts):
        if len(level) == 1:
            (i,) = level
            v = cov[i - 1, i - 1]
        else:
            i, j = level
            v = cov[i - 1, i - 1] + cov[j - 1, j - 1] - 2.0 * cov[i - 1, j - 1]
        total += v / n
    return float(total)


def mfmc_variance(cov, per_model_counts):
    """Variance of the multifidelity estimator with optimal control weights.

    ``per_model_counts`` maps model id -> samples of that model; the sample
    sets are nested in order of decreasing |correlation with model 1|.
    Returns sigma_1^2 sum_i (rho_i^2 - rho_{i+1}^2) / m_i (rho_1 = 1), or
    None when the counts do not grow along that order, so that the sets
    cannot be nested.
    """
    models = sorted(per_model_counts)
    rho = np.array([cov[0, i - 1] / np.sqrt(cov[0, 0] * cov[i - 1, i - 1])
                    for i in models])
    order = sorted(range(len(models)), key=lambda a: (-abs(rho[a]), models[a]))
    m = np.array([per_model_counts[models[a]] for a in order], dtype=float)
    if np.any(np.diff(m) < 0):
        return None
    r2 = np.minimum(rho[order] ** 2, 1.0)
    r2[0] = 1.0
    delta = r2 - np.append(r2[1:], 0.0)
    return float(cov[0, 0] * np.sum(delta / m))
