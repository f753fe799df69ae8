"""Sample-allocation optimization over model groups.

Three modes, all built on the same semidefinite reformulation of the
variance constraint: ``budget`` minimizes the worst per-output estimator
variance subject to a cost budget; ``tolerance`` minimizes cost subject to
per-output variance bounds; ``pareto`` minimizes variance + tau * cost,
tracing the cost/accuracy frontier as tau varies.

The variance of the high-fidelity mean for output s is eligible to be at
most t exactly when the bordered matrix [[Psi_s(n), e1], [e1', t]] is PSD,
which is linear in (n, t), so each output contributes one PSD block. Rows
and columns of models that no usable group covers are dropped from the
block (they are identically zero, and keeping them would leave the SDP
without a strictly feasible point); the estimator-side matrices keep full
size.

Solutions are reported in natural units. Internally costs are normalized
by max|c|, the group allocation is expressed in units of a mode-specific
magnitude guess, and each PSD block is congruence-scaled by a scalar so
that its entries are O(1) near the solution; all three transformations are
exact reparameterizations and are undone on the way out.

The linear rows (the cost bound, each output's anchor sum, the caps) are
stated once, by ``_rows``, in the normalized cost unit. The SDP, the checks
on integer counts and the pareto ray's slack test all read them, with
slacks relative to each bound, so they agree at every unit of cost.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .covariance import CovarianceStore
from .estimator import (
    BlueSystem,
    IllPosedError,
    _batch_variance,
    _weighted_sum,
    blue_variance,
    normalized_error,
)
from .models import GroupSet
from .sdp import PsdBlock, SdpProblem, SdpSettings, solve_sdp

__all__ = [
    "MosapSpec",
    "Allocation",
    "systems_from_store",
    "solve_mosap",
    "integer_projection",
    "pareto_sweep",
]

# allocation entries below this fraction of the largest are treated as zero
_PRUNE_REL = 1e-9
# tau = 0 would leave pareto mode unbounded; cap the cost instead
_PARETO_COST_CAP = 1e12
# a pareto point lies on the optimal ray when it clears every linear row by
# this many times the solver's gap tolerance, relative (see pareto_sweep)
_RAY_SLACK = 100.0
# integer projection enumerates the roundings of at most this many entries
_ENUMERATION_CAP = 20
# projection candidates scored per batch: larger batches factor no faster,
# and the scratch grows with them (0.5 MB at 8 models and 2 outputs)
_PROJECTION_CHUNK = 250
# slack of the batched checks and shift of the batched Psi, relative: about
# 1000 times the rounding of a batched or a scalar evaluation of one
# candidate (summation order, n·ε·‖Psi‖ in a factorization or an eigh)
_BATCH_REL = 1e-12


def systems_from_store(groups: GroupSet, store: CovarianceStore):
    """One BlueSystem per output, honoring the store's known-entry masks."""
    return [
        BlueSystem.from_covariance(groups, store, output=s)
        for s in range(1, store.num_outputs + 1)
    ]


def scale_free_tau(tau_tilde, group_costs) -> float:
    """tau = tau_tilde / ||c||₂, with c in units of 2^(e-1) for max c = m 2^e.

    That unit divides exactly: the bits are tau_tilde / ||c||'s wherever that
    norm neither over- nor underflows, and tau is scale-free at every scale.
    """
    top = float(np.ldexp(1.0, np.frexp(np.max(group_costs))[1] - 1))
    return float(tau_tilde) / float(np.linalg.norm(group_costs / top)) / top


@dataclass(frozen=True)
class MosapSpec:
    """A fully specified allocation problem.

    ``extra_linear`` rows are (coefficients over groups, upper bound) pairs
    a'n <= u, used e.g. to cap how often expensive models may be sampled.
    """

    mode: str  # 'budget' | 'tolerance' | 'pareto'
    groups: GroupSet
    systems: tuple  # one BlueSystem per output, in output order
    budget: float | None = None
    tolerances: np.ndarray | None = None  # per-output variance bounds
    tau: float | None = None
    extra_linear: tuple = ()

    def __post_init__(self):
        if self.mode not in ("budget", "tolerance", "pareto"):
            raise ValueError(f"unknown mode {self.mode!r}")
        systems = tuple(self.systems)
        object.__setattr__(self, "systems", systems)
        if not systems:
            raise ValueError("at least one output system is required")
        for s, system in enumerate(systems, start=1):
            if system.output != s:
                raise ValueError("systems must be ordered by output id")
            if system.num_groups != self.groups.num_groups:
                raise ValueError("system group count does not match group set")
        if self.mode == "budget":
            if self.budget is None or not self.budget > 0:
                raise ValueError("budget mode needs a positive budget")
        if self.mode == "tolerance":
            tol = np.asarray(self.tolerances, dtype=float).reshape(-1)
            if tol.size != len(systems) or np.any(tol <= 0):
                raise ValueError("need one positive variance bound per output")
            object.__setattr__(self, "tolerances", tol)
        if self.mode == "pareto":
            if self.tau is None or self.tau < 0:
                raise ValueError("pareto mode needs tau >= 0")
        extra = []
        for coeffs, bound in self.extra_linear:
            coeffs = np.asarray(coeffs, dtype=float).reshape(-1)
            if coeffs.size != self.groups.num_groups:
                raise ValueError("extra_linear row length must match group count")
            extra.append((coeffs, float(bound)))
        object.__setattr__(self, "extra_linear", tuple(extra))

    @property
    def num_outputs(self) -> int:
        return len(self.systems)

    @property
    def group_costs(self) -> np.ndarray:
        return self.groups.group_costs


@dataclass
class Allocation:
    """Solved allocation in natural units."""

    mode: str
    n: np.ndarray  # per-group sample counts (fractional unless projected)
    per_output_variance: np.ndarray
    total_cost: float
    is_integer: bool
    objective_value: float
    solver_status: str = "optimal"
    solver_iterations: int = 0
    solver_gap: float = float("nan")
    fallback: bool = False  # integer projection had to use its fallback rule

    @property
    def max_variance(self) -> float:
        return float(np.max(self.per_output_variance))


def _feasibility_check(spec: MosapSpec) -> None:
    if spec.mode != "budget":
        return
    for system in spec.systems:
        cheapest = np.min(spec.group_costs[system.anchor_mask])
        if spec.budget < cheapest:
            raise ValueError(
                f"budget {spec.budget} cannot buy any group containing model 1 "
                f"for output {system.output} (cheapest costs {cheapest})"
            )


def _magnitude_guess(spec: MosapSpec, costs_n: np.ndarray) -> float:
    """Rough size of the allocation entries at the optimum, in solver units."""
    num_groups = spec.groups.num_groups
    mean_cost = float(np.mean(costs_n))
    v1 = max(s.highfi_variance for s in spec.systems)
    if spec.mode == "budget":
        return max(spec.budget / (num_groups * mean_cost), 1e-6)
    if spec.mode == "tolerance":
        eps = float(np.min(spec.tolerances))
        return max(v1 / (eps * num_groups), 1e-6)
    # pareto: variance ~ v1 * c_anchor / cost, optimum balances t against tau*cost
    anchor = min(
        float(np.min(costs_n[s.anchor_mask])) for s in spec.systems
    )
    tau = max(spec.tau, 1.0 / (_PARETO_COST_CAP * np.min(costs_n)))
    return max(math.sqrt(v1 * anchor / tau) / (num_groups * mean_cost), 1e-6)


def _rows(spec: MosapSpec, slack: float = 0.0):
    """(rows, bounds) of the problem's linear rows, rows @ n <= bounds, with
    costs in units of the largest group cost: the cost (bounded by the
    budget, by the pareto cost cap, or not at all in tolerance mode), each
    output's negated anchor sum, then the caps. A nonzero ``slack`` moves
    each bound by ``slack`` times its magnitude, outward when positive."""
    cost_scale = float(np.max(spec.group_costs))
    costs_n = spec.group_costs / cost_scale
    if spec.mode == "budget":
        cost_bound = float(spec.budget) / cost_scale
    elif spec.mode == "pareto":
        cost_bound = _PARETO_COST_CAP * float(np.min(costs_n))
    else:
        cost_bound = np.inf
    rows = [costs_n, *(np.where(s.anchor_mask, -1.0, 0.0) for s in spec.systems),
            *(coeffs for coeffs, _ in spec.extra_linear)]
    bounds = np.array([cost_bound, *[-1.0] * spec.num_outputs,
                       *(bound for _, bound in spec.extra_linear)])
    if slack:
        bounds = bounds + slack * np.abs(bounds)
    return np.array(rows), bounds


def _build(spec: MosapSpec):
    """Assemble the scaled SdpProblem for any mode.

    Returns the problem and the per-group scale with n = alloc_scale * x.
    In tolerance mode each block corner holds the output's variance bound;
    otherwise it holds the shared variance variable t.
    """
    groups = spec.groups
    num_groups = groups.num_groups
    cost_scale = float(np.max(groups.group_costs))
    costs_n = groups.group_costs / cost_scale
    has_t = spec.mode != "tolerance"
    dim = num_groups + 1 if has_t else num_groups

    guess = _magnitude_guess(spec, costs_n)
    # per-group variable scale: groups capped by a linear row live at the
    # bound's magnitude, not the global guess, otherwise their solver
    # variables sit many decades below the rest and the primal residual
    # drowns in cancellation noise before feas_tol is reachable
    alloc_scale = np.full(num_groups, guess)
    for coeffs_row, bound in spec.extra_linear:
        pos = np.flatnonzero(coeffs_row > 0.0)
        implied = np.maximum(bound / coeffs_row[pos], 1e-12 * guess)
        alloc_scale[pos] = np.minimum(alloc_scale[pos], implied)

    # per-output congruence scalar: the size of the information matrix at a
    # uniform allocation of the guessed magnitude
    block_scales = []
    uniform = alloc_scale / num_groups
    for system in spec.systems:
        psi = _weighted_sum(system.lifted, uniform[system.group_indices])
        scale = float(np.linalg.norm(psi, 2))
        block_scales.append(max(scale, 1e-300))
    block_scales = np.asarray(block_scales)
    var_scale = float(np.max(block_scales))

    blocks = []
    for s, (system, bscale) in enumerate(zip(spec.systems, block_scales)):
        # the block's rows: the models some usable group touches, then the
        # corner; model 1 is always among them, so it sits at row 0
        active = np.flatnonzero(system.members.any(axis=0))
        p = active.size + 1
        idx = system.group_indices
        constant = np.zeros((p, p))
        constant[0, p - 1] = constant[p - 1, 0] = 1.0
        coeffs = np.zeros((idx.size + has_t, p, p))
        coeffs[: idx.size, :-1, :-1] = system.lifted[:, active][:, :, active] * (
            alloc_scale[idx] / bscale
        )[:, None, None]
        if has_t:
            coeffs[-1, p - 1, p - 1] = bscale / var_scale
            idx = np.append(idx, num_groups)
        else:
            constant[p - 1, p - 1] = spec.tolerances[s] * bscale
        blocks.append(PsdBlock(constant, idx, coeffs))

    # the cost row is scaled by its bound, every other row by its largest
    # scaled entry
    rows, bounds = _rows(spec)
    cost_row = rows[0] * (alloc_scale / bounds[0])
    rows = rows[1:] * alloc_scale
    row_scales = np.maximum(np.abs(rows).max(axis=1), 1e-300)
    rows, bounds = rows / row_scales[:, None], bounds[1:] / row_scales
    if has_t:
        rows, bounds = np.vstack([cost_row, rows]), np.append(1.0, bounds)

    objective = np.zeros(dim)
    if spec.mode == "budget":
        objective[num_groups] = 1.0
    elif spec.mode == "tolerance":
        objective[:num_groups] = costs_n * alloc_scale
    else:  # pareto
        objective[num_groups] = 1.0
        objective[:num_groups] = spec.tau * cost_scale * costs_n * alloc_scale * var_scale

    problem = SdpProblem(
        objective=objective,
        blocks=blocks,
        ineq_matrix=np.pad(rows, ((0, 0), (0, dim - num_groups))),
        ineq_rhs=bounds,
    )
    return problem, alloc_scale


def _sanitize(spec: MosapSpec, x: np.ndarray, alloc_scale: np.ndarray) -> np.ndarray:
    n = alloc_scale * np.maximum(x[: spec.groups.num_groups], 0.0)
    top = n.max(initial=0.0)
    n[n < _PRUNE_REL * top] = 0.0
    return n


def _variances(spec: MosapSpec, n: np.ndarray) -> np.ndarray:
    return np.array([blue_variance(system, n) for system in spec.systems])


def _objective(spec: MosapSpec, cost, worst_variance):
    """The mode's objective from the cost and the largest output variance."""
    if spec.mode == "budget":
        return worst_variance
    if spec.mode == "tolerance":
        return cost
    return worst_variance + spec.tau * cost


def solve_mosap(spec: MosapSpec, settings: SdpSettings | None = None) -> Allocation:
    """Solve the allocation SDP and report everything in natural units.

    The per-output variances on the result are recomputed from the
    estimator-side matrices at the returned allocation; the SDP's own
    variance variable is only used as the optimization handle. Every
    failure past the budget check is the solver's and raises RuntimeError.
    """
    _feasibility_check(spec)
    # an overflow shows as a non-finite value, which the checks below report
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            problem, alloc_scale = _build(spec)
            sol = solve_sdp(problem, settings)
            if sol.status == "infeasible":
                raise RuntimeError("allocation SDP is infeasible")
            n = _sanitize(spec, sol.x, alloc_scale)
            total_cost = float(spec.group_costs @ n)
            if not np.isfinite(total_cost):
                raise RuntimeError("allocation SDP failed: the allocation's cost overflows")
            variances = _variances(spec, n)
        # a non-finite iterate, a LinAlgError, or an allocation the estimator cannot use
        except (ValueError, IllPosedError) as exc:
            raise RuntimeError(f"allocation SDP failed: {exc}") from exc
    return Allocation(
        mode=spec.mode,
        n=n,
        per_output_variance=variances,
        total_cost=total_cost,
        is_integer=False,
        objective_value=_objective(spec, total_cost, float(np.max(variances))),
        solver_status=sol.status,
        solver_iterations=sol.iterations,
        solver_gap=sol.residuals.get("gap", float("nan")),
    )


def _integer_feasible(spec: MosapSpec, n: np.ndarray):
    """(feasible, variances) under integer-count semantics."""
    rows, bounds = _rows(spec, 1e-12)
    if np.any(rows @ n > bounds):
        return False, None
    try:
        variances = _variances(spec, n)
    except IllPosedError:
        return False, None
    if spec.mode == "tolerance":
        if np.any(variances > spec.tolerances * (1.0 + 1e-12)):
            return False, None
    return True, variances


class _BatchScorer:
    """Lower bounds on the projection objective for batches of candidates.

    A candidate is ``base`` plus a 0/1 row of ``bits`` on the entries
    ``idx``, so every linear row and every Ψ is the base value plus
    ``bits`` times the per-entry increments. Ψ is kept with model 1 last,
    the order ``_batch_variance`` reads its variance bounds in; an output
    whose stack it cannot certify bounds nothing (-inf).
    """

    def __init__(self, spec: MosapSpec, base: np.ndarray, idx: np.ndarray):
        self.spec = spec
        rows, self.bounds = _rows(spec, 1e-12)
        self.linear = (rows @ base, rows[:, idx].T)
        self.linear_abs = (np.abs(rows) @ base, np.abs(rows[:, idx]).T)
        self.psi = []
        for system in spec.systems:
            psi_base = _weighted_sum(system.information, base[system.group_indices])
            steps = np.zeros((idx.size,) + psi_base.shape)
            local = np.full(spec.groups.num_groups, -1)
            local[system.group_indices] = np.arange(system.group_indices.size)
            hit = local[idx] >= 0
            steps[hit] = system.information[local[idx[hit]]]
            last = np.roll(np.arange(psi_base.shape[0]), -1)
            steps = steps[:, last][:, :, last].reshape(idx.size, psi_base.size)
            self.psi.append((psi_base[last][:, last], steps))

    def bounds_of(self, bits: np.ndarray):
        """(rows of ``bits`` that may be feasible, their objective lower bounds)."""
        spec = self.spec
        values = self.linear[0] + bits @ self.linear[1]
        slack = _BATCH_REL * (self.linear_abs[0] + bits @ self.linear_abs[1])
        live = np.flatnonzero(~(values - slack > self.bounds).any(axis=1))
        bits = bits[live]
        # row 0 is the cost, in units of the largest group cost
        cost_low = (values[live, 0] - slack[live, 0]) * np.max(spec.group_costs)
        var_low = np.empty((live.size, spec.num_outputs))
        for s, (psi_base, steps) in enumerate(self.psi):
            psi = psi_base + (bits @ steps).reshape((-1,) + psi_base.shape)
            var_low[:, s] = _batch_variance(psi, _BATCH_REL)
        objective = _objective(spec, cost_low, var_low.max(axis=1))
        if spec.mode == "tolerance":
            keep = ~(var_low > spec.tolerances * (1.0 + 1e-12)).any(axis=1)
            live, objective = live[keep], objective[keep]
        return live, objective


def integer_projection(spec: MosapSpec, allocation: Allocation) -> Allocation:
    """Round a continuous allocation to integers, preserving feasibility.

    Entries within 1e-6 of an integer are snapped. The floor/ceiling
    combinations of the remaining fractional entries are enumerated (up to
    ``_ENUMERATION_CAP`` entries; beyond that, the entries whose rounding
    matters least by cost-weighted ambiguity are rounded up greedily, and a
    line on stderr says how many) and the feasible combination with the best
    mode objective wins. Ties go to the cheaper allocation, then to the
    lexicographically smaller one.

    Candidates are scored in batches of ``_PROJECTION_CHUNK``: Ψ is the
    base allocation's plus the bits times each fractional entry's block,
    the linear checks are the SDP's own ``_rows``, the base values plus the
    bits times their columns, and two batched Cholesky factorizations per
    output give a lower bound on every variance, or -inf for a batch in
    which ``blue_variance``'s eigenvalue cutoff might fire. The batch only
    filters: it drops candidates that fail a check or whose objective bound
    exceeds the best so far. Every other candidate
    is rescored by ``_integer_feasible`` (``blue_variance``) before it can
    become the best, so the result, its variances and the tie-break are
    those of scoring every candidate with ``blue_variance``.

    Fallbacks when no combination is feasible: budget mode scales the
    allocation down onto the budget and floors; the other modes take the
    ceiling everywhere. Both are flagged on the result and named in one
    line on stderr.
    """
    n0 = np.asarray(allocation.n, dtype=float).copy()
    snapped = np.rint(n0)
    near = np.abs(n0 - snapped) <= 1e-6
    base = np.where(near, snapped, np.floor(n0))
    frac_idx = np.flatnonzero(~near)

    if frac_idx.size > _ENUMERATION_CAP:
        ambiguity = spec.group_costs[frac_idx] * np.minimum(
            n0[frac_idx] - np.floor(n0[frac_idx]),
            np.ceil(n0[frac_idx]) - n0[frac_idx],
        )
        order = np.argsort(-ambiguity, kind="stable")
        enumerate_idx = np.sort(frac_idx[order[:_ENUMERATION_CAP]])
        for k in frac_idx[order[_ENUMERATION_CAP:]]:
            base[k] = np.ceil(n0[k])
        print(
            f"integer projection: rounded {frac_idx.size - _ENUMERATION_CAP} of "
            f"{frac_idx.size} fractional entries up before enumerating",
            file=sys.stderr,
        )
    else:
        enumerate_idx = frac_idx

    scorer = _BatchScorer(spec, base, enumerate_idx)
    # candidate i rounds up entry j when bit f - 1 - j of i is set
    shifts = np.arange(enumerate_idx.size - 1, -1, -1)
    candidates = 1 << enumerate_idx.size
    best = None
    for start in range(0, candidates, _PROJECTION_CHUNK):
        index = np.arange(start, min(start + _PROJECTION_CHUNK, candidates))
        bits = ((index[:, None] >> shifts) & 1).astype(float)
        live, lower = scorer.bounds_of(bits)
        for i in np.argsort(lower, kind="stable"):
            if best is not None and lower[i] > best[0][0]:
                break
            cand = base.copy()
            cand[enumerate_idx] += bits[live[i]]
            ok, variances = _integer_feasible(spec, cand)
            if not ok:
                continue
            cost = float(spec.group_costs @ cand)
            obj = _objective(spec, cost, float(np.max(variances)))
            key = (obj, cost, tuple(cand))
            if best is None or key < best[0]:
                best = (key, cand, variances)

    fallback = best is None
    if fallback:
        if spec.mode == "budget":
            total = float(spec.group_costs @ np.ceil(n0))
            shrink = spec.budget / total if total > 0 else 1.0
            cand = np.floor(n0 * min(shrink, 1.0))
            rule = "scaled the allocation onto the budget and floored it"
        else:
            cand = np.ceil(n0)
            rule = "rounded every entry up"
        print(f"integer projection: no rounding is feasible; {rule}",
              file=sys.stderr)
        try:
            variances = _variances(spec, cand)
        except IllPosedError:
            variances = np.full(spec.num_outputs, np.inf)
        best = (None, cand, variances)

    _, n_int, variances = best
    cost = float(spec.group_costs @ n_int)
    worst = float(np.max(variances))
    obj = _objective(spec, cost, worst) if np.isfinite(worst) else float("inf")
    return replace(
        allocation,
        n=n_int,
        per_output_variance=variances,
        total_cost=cost,
        is_integer=True,
        objective_value=obj,
        fallback=fallback,
    )


def _ray_slack(spec: MosapSpec, n: np.ndarray, margin: float) -> bool:
    """Whether n clears each of the problem's linear rows by ``margin``,
    relative."""
    rows, bounds = _rows(spec, -margin)
    return bool(np.all(rows @ n < bounds))


def pareto_sweep(
    spec: MosapSpec, tau_tilde_values, settings: SdpSettings | None = None
):
    """Trace the cost/accuracy frontier over a grid of scale-free tau values.

    Each tau_tilde is divided by the 2-norm of the group cost vector to get
    the tau actually used. Returns one record per grid point, ascending in
    tau_tilde, with the allocation, cost, worst variance, and the
    normalized error max_s sqrt(V_s / V[model 1, output s]). Solver
    failures are recorded on the affected record and the sweep continues.

    Points on the optimal ray are placed, not solved. Psi_s is linear in n,
    so V_s(a n) = V_s(n) / a and cost(a n) = a cost(n): without its linear
    rows the problem is homogeneous, and its minimizer at tau is
    n(tau_src) * sqrt(tau_src / tau). A convex optimum stays optimal when
    inactive rows are dropped, so if a solve at tau_src > 0 is optimal with
    every row slack, each ray point whose rows are still slack is optimal
    for the full problem. A row is slack when it is cleared by
    ``_RAY_SLACK`` times the gap tolerance, relative, since a solve can
    leave a binding row inside its bound by an amount that grows with that
    tolerance. The grid is walked from the largest tau down and the source
    is the last such solve: there the solver's gap is relative rather than
    absolute (objectives above 1), it converges in fewer iterations, and
    the anchor rows that bind at large tau only loosen along the ray. A
    placed record's variances and objective are recomputed at its
    allocation; it carries ``solver_iterations`` 0 and the source's status
    and gap. Every other point is solved.
    """
    if spec.mode != "pareto":
        raise ValueError("pareto_sweep needs a pareto-mode spec")
    v1 = [s.highfi_variance for s in spec.systems]
    records = []
    margin = _RAY_SLACK * (settings or SdpSettings()).gap_tol
    source = None  # (tau, allocation) the ray starts from
    for tau_tilde in sorted((float(t) for t in tau_tilde_values), reverse=True):
        tau = scale_free_tau(tau_tilde, spec.group_costs)
        point = replace(spec, tau=tau)
        record = {"tau_tilde": tau_tilde, "tau": tau}
        try:
            n = None
            if source is not None and tau > 0:
                n = source[1].n * math.sqrt(source[0] / tau)
            if n is not None and _ray_slack(spec, n, margin):
                variances = _variances(point, n)
                cost = float(spec.group_costs @ n)
                alloc = replace(
                    source[1], n=n, per_output_variance=variances,
                    total_cost=cost,
                    objective_value=_objective(point, cost, float(np.max(variances))),
                    solver_iterations=0,
                )
            else:
                alloc = solve_mosap(point, settings)
                if (tau > 0 and alloc.solver_status == "optimal"
                        and _ray_slack(spec, alloc.n, margin)):
                    source = (tau, alloc)
            record.update(
                allocation=alloc,
                cost=alloc.total_cost,
                variance=alloc.max_variance,
                normalized_error=normalized_error(alloc.per_output_variance, v1),
                status=alloc.solver_status,
            )
        except (RuntimeError, ValueError, IllPosedError) as exc:
            record.update(status="failed", error=str(exc))
        records.append(record)
    return records[::-1]
