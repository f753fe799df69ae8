"""The benchmark's workloads: generated configs, operations and checks.

Every workload repeats one round of like-sized operations. Each
operation is one `mlblue` subcommand on a config generated here. The base
instances are fixed; the workload seed draws a permutation of the
low-fidelity models, fresh model means and the sampling seed. A relabelling
leaves the solver's path and the optimal allocation the same up to the
relabelling, so every seed gives the same amount of work while the outputs
the checks see change. Costs and variances are not rescaled: a rescaled
budget problem takes another solver path (see CHANGES.md), and so does a
rescaled pareto sweep at its small-tau end.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

import oracle

KAPPA = 3
PARETO_SWEEP = tuple(float(t) for t in np.logspace(-7.0, 4.0, 12))
# tolerances of the checks, relative
VARIANCE_RTOL = 1e-8
COST_RTOL = 1e-12
FRONTIER_RTOL = 1e-6


def random_suite(num_models, num_outputs, seed, diagonal_boost=0.1):
    """Loadings by the recipe of ``SyntheticSuite.random``.

    The recipe is repeated here so that no change to the program can change
    the benchmark's inputs.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    loadings = rng.standard_normal((num_outputs, num_models, num_models + 2))
    loadings[:, :, :num_models] += diagonal_boost * np.eye(num_models)
    return loadings


def hierarchy_suite(num_models, num_outputs, rate, strength, h0=0.5, ratio=2.0,
                    output_scale=1.0):
    """Loadings by the recipe of ``SyntheticSuite.hierarchy``: a shared unit
    factor plus a private one of weight sqrt(strength * (h0 ratio^i)^rate)."""
    eta = np.sqrt(strength * (h0 * ratio ** np.arange(num_models)) ** rate)
    base = np.zeros((num_models, num_models + 1))
    base[:, 0] = 1.0
    base[np.arange(num_models), np.arange(num_models) + 1] = eta
    return np.stack([base * output_scale ** s for s in range(num_outputs)])


@dataclass(frozen=True)
class Instance:
    """A base problem; ``config`` makes the seeded variant of it."""

    name: str
    command: str  # mlblue subcommand
    mode: str  # budget | tolerance | pareto
    costs: tuple
    loadings: np.ndarray  # (outputs, models, factors)
    budget_factor: float = 0.0  # budget = factor * sum of model costs
    eps2_divisor: float = 0.0  # eps2_s = V[model 1, output s] / divisor
    reps: int = 0  # replications of an estimate

    @property
    def num_models(self):
        return len(self.costs)

    @property
    def num_outputs(self):
        return self.loadings.shape[0]

    def config(self, rng):
        """The config dict this instance gives for one seeded generator."""
        perm = np.concatenate([[0], 1 + rng.permutation(self.num_models - 1)])
        costs = np.asarray(self.costs, dtype=float)[perm]
        loadings = self.loadings[:, perm, :]
        means = rng.standard_normal((self.num_outputs, self.num_models))
        cfg = {
            "models": {
                "costs": costs.tolist(),
                "num_outputs": self.num_outputs,
                "outputs": [list(range(1, self.num_outputs + 1))] * self.num_models,
            },
            "synthetic": {"loadings": loadings.tolist(), "means": means.tolist()},
            "covariance": {"type": "synthetic"},
            "groups": {"kappa": KAPPA},
            "seed": int(rng.integers(2 ** 31)),
        }
        v1 = oracle.covariances(loadings)[:, 0, 0]
        if self.mode == "budget":
            cfg["mode"] = {"type": "budget", "budget": self.budget_factor * float(costs.sum())}
        elif self.mode == "tolerance":
            cfg["mode"] = {"type": "tolerance", "eps2": (v1 / self.eps2_divisor).tolist()}
        else:
            cfg["mode"] = {"type": "pareto", "sweep": list(PARETO_SWEEP)}
        return cfg

    def argv(self, config_path, output_path):
        argv = [self.command, "--config", config_path, "--output", output_path]
        if self.command == "pareto":
            argv += ["--format", "json"]
        if self.command == "estimate":
            argv += ["--reps", str(self.reps)]
        return argv


def _ladder(num_models):
    return tuple(4.0 ** np.arange(num_models - 1, -1, -1))


def _unit_highfi(loadings):
    """Scale each output so model 1 has variance 1 on every output."""
    v1 = oracle.covariances(loadings)[:, 0, 0]
    return loadings / np.sqrt(v1)[:, None, None]


WORKLOADS = {
    # 12-point frontier sweeps: one SDP solve per point, no projection
    "pareto-frontier": (
        Instance("pareto-10x1", "pareto", "pareto", _ladder(10),
                 _unit_highfi(random_suite(10, 1, seed=1))),
        Instance("pareto-9x2", "pareto", "pareto", _ladder(9),
                 _unit_highfi(random_suite(9, 2, seed=1))),
    ),
    # one round of two halves of like-sized operations: multi-output
    # problems whose continuous optimum has 12-13 fractional entries (see
    # README.md), so the floor/ceil enumeration dominates, then small
    # problems with thousands of replications, so sampling and combining do
    "allocate-estimate": (
        Instance("allocate-7x3", "allocate", "budget", _ladder(7),
                 random_suite(7, 3, seed=16), budget_factor=100.0),
        Instance("benchmark-8x2", "benchmark", "tolerance", _ladder(8),
                 random_suite(8, 2, seed=7), eps2_divisor=100.0),
        Instance("estimate-3x1", "estimate", "budget", (64.0, 8.0, 1.0),
                 hierarchy_suite(3, 1, rate=2.0, strength=0.05),
                 budget_factor=2000.0 / 73.0, reps=4000),
        Instance("estimate-4x2", "estimate", "budget", _ladder(4),
                 random_suite(4, 2, seed=4), budget_factor=30.0, reps=2200),
    ),
}


def generate(workload, seed):
    """The workload's instances with their config dicts for one seed."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    return [(inst, inst.config(rng)) for inst in WORKLOADS[workload]]


# ------------------------------------------------------------------ checks


def enumerate_groups(num_models, kappa=KAPPA):
    """Groups by size, then lexicographically, as the program orders them."""
    return [g for size in range(1, kappa + 1)
            for g in itertools.combinations(range(1, num_models + 1), size)]


class Reference:
    """What the oracle says about one generated config."""

    def __init__(self, inst, cfg, continuous=None):
        self.inst = inst
        self.cfg = cfg
        self.costs = np.asarray(cfg["models"]["costs"])
        self.cov = oracle.covariances(cfg["synthetic"]["loadings"])
        self.groups = enumerate_groups(inst.num_models)
        self.index = {g: k for k, g in enumerate(self.groups)}
        self.group_costs = np.array([sum(self.costs[i - 1] for i in g) for g in self.groups])
        self.systems = [oracle.OutputSystem(c, self.groups) for c in self.cov]
        mode = cfg["mode"]
        self.budget = mode.get("budget")
        self.eps2 = np.asarray(mode["eps2"]) if "eps2" in mode else None
        self.rounding = None
        self.fractional = None
        if continuous is not None:
            self.rounding, _, self.fractional = oracle.best_rounding(
                self.systems, self.group_costs, continuous, inst.mode,
                budget=self.budget, eps2=self.eps2)


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _counts(ref, payload, errors):
    """Full count vector from the wire format's sampled groups."""
    n = np.zeros(len(ref.groups))
    for ids, count in zip(payload["groups"], payload["n"]):
        key = tuple(ids)
        if key not in ref.index:
            errors.append(f"group {ids} is not an enumerated group")
            continue
        if not isinstance(count, int) or count < 0:
            errors.append(f"count {count!r} of group {ids} is not a nonnegative integer")
            continue
        n[ref.index[key]] = count
    return n


def check_allocation(ref, payload):
    errors = []
    n = _counts(ref, payload, errors)
    cost = float(n @ ref.group_costs)
    if _rel(payload["total_cost"], cost) > COST_RTOL:
        errors.append(f"total_cost {payload['total_cost']} != sum n_k c_k = {cost}")
    if ref.budget is not None and cost > ref.budget * (1.0 + oracle.FEAS_RTOL):
        errors.append(f"cost {cost} exceeds the budget {ref.budget}")
    for s, system in enumerate(ref.systems):
        expected = system.variance(n)
        got = payload["per_output_variance"][s]
        if not _rel(got, expected) <= VARIANCE_RTOL:
            errors.append(f"output {s + 1} variance {got} != oracle {expected}")
        if ref.eps2 is not None and got > ref.eps2[s] * (1.0 + oracle.FEAS_RTOL):
            errors.append(f"output {s + 1} variance {got} exceeds eps2 {ref.eps2[s]}")
    if ref.fractional is None:  # no continuous solution to round
        return errors
    if ref.rounding is None:
        errors.append("the oracle found no feasible rounding")
    elif not np.array_equal(n, ref.rounding):
        diff = np.flatnonzero(n != ref.rounding)
        errors.append(f"allocation differs from the oracle's best rounding "
                      f"at groups {[ref.groups[k] for k in diff]}")
    return errors


def _check_baseline(ref, row, mlblue_cost):
    errors = []
    method = row["method"]
    cov = ref.cov
    if method == "mlmc":
        levels = [tuple(level) for level in row["groups"]]
        chain = [level[0] for level in levels]
        ok = (chain[0] == 1 and len(levels[-1]) == 1
              and all(len(a) == 2 and a[1] == b[0] for a, b in zip(levels, levels[1:])))
        if not ok:
            return [f"mlmc levels {levels} do not telescope from model 1"]
        cost = sum(n * sum(ref.costs[i - 1] for i in level)
                   for level, n in zip(levels, row["n"]))
        variances = [oracle.mlmc_variance(c, levels, row["n"]) for c in cov]
    else:
        per_model = {}
        for group, n in zip(row["groups"], row["n"]):
            for i in group:
                per_model[i] = per_model.get(i, 0) + n
        cost = sum(ref.costs[i - 1] * m for i, m in per_model.items())
        variances = [oracle.mfmc_variance(c, per_model) for c in cov]
        if 1 not in per_model or any(v is None for v in variances):
            return [f"mfmc sample sets {row['groups']} are not nested by correlation"]
    if _rel(row["total_cost"], cost) > COST_RTOL:
        errors.append(f"{method} total_cost {row['total_cost']} != {cost}")
    for s, v in enumerate(variances):
        if v > ref.eps2[s] * (1.0 + VARIANCE_RTOL):
            errors.append(f"{method} output {s + 1} variance {v} exceeds eps2 {ref.eps2[s]}")
    if mlblue_cost > cost * (1.0 + COST_RTOL):
        errors.append(f"mlblue cost {mlblue_cost} exceeds {method} cost {cost}")
    return errors


def check_benchmark(ref, payload):
    errors = check_allocation(ref, payload["mlblue"])
    for method in ("mlmc", "mfmc"):
        row = payload[method]
        if "error" not in row:  # a rejected baseline is not admissible
            errors += _check_baseline(ref, row, payload["mlblue"]["total_cost"])
    return errors


def check_pareto(ref, rows):
    errors = []
    if len(rows) != len(PARETO_SWEEP):
        return [f"{len(rows)} frontier rows for {len(PARETO_SWEEP)} sweep points"]
    bad = [r["tau_tilde"] for r in rows if r.get("status") != "optimal"]
    if bad:
        return [f"sweep points {bad} not solved"]
    rows = sorted(rows, key=lambda r: r["tau_tilde"])
    v1 = ref.cov[:, 0, 0]
    for a, b in zip(rows, rows[1:]):
        if b["cost"] > a["cost"] * (1.0 + FRONTIER_RTOL):
            errors.append(f"cost rises from {a['cost']} to {b['cost']} at tau {b['tau_tilde']}")
        if b["variance"] < a["variance"] * (1.0 - FRONTIER_RTOL):
            errors.append(f"variance falls from {a['variance']} to {b['variance']} "
                          f"at tau {b['tau_tilde']}")
    for r in rows:
        # every output has the same V1, so the worst normalized error and the
        # worst variance belong to the same output
        if _rel(r["normalized_error"] ** 2 * v1[0], r["variance"]) > 1e-10:
            errors.append(f"normalized_error^2 * V1 != variance at tau {r['tau_tilde']}")
    a, b = rows[0], rows[1]
    slope = math.log(b["normalized_error"] / a["normalized_error"]) / math.log(b["cost"] / a["cost"])
    if abs(slope + 0.5) > 0.05:
        errors.append(f"small-tau log-log slope {slope:.4f} is not -1/2")
    return errors


def check_estimate(ref, payload):
    alloc = payload["allocation"]
    errors = check_allocation(ref, alloc)
    reps = ref.inst.reps
    if payload["replications"] != reps:
        errors.append(f"{payload['replications']} replications, asked for {reps}")
    n = _counts(ref, alloc, [])
    if _rel(payload["total_cost"], float(n @ ref.group_costs)) > COST_RTOL:
        errors.append("cost per replication does not match the allocation")
    means = np.asarray(ref.cfg["synthetic"]["means"])[:, 0]
    bound = 5.0 * math.sqrt(2.0 / (reps - 1))
    for s, system in enumerate(ref.systems):
        predicted = system.variance(n)
        if _rel(payload["predicted_variance"][s], predicted) > VARIANCE_RTOL:
            errors.append(f"output {s + 1} predicted variance "
                          f"{payload['predicted_variance'][s]} != oracle {predicted}")
        se = math.sqrt(predicted / reps)
        if abs(payload["mean_estimate"][s] - means[s]) > 4.0 * se:
            errors.append(f"output {s + 1} mean {payload['mean_estimate'][s]} is more "
                          f"than 4 standard errors from {means[s]}")
        ratio = payload["empirical_variance"][s] / predicted
        if abs(ratio - 1.0) > bound:
            errors.append(f"output {s + 1} empirical/predicted variance {ratio:.4f}")
    return errors


CHECKS = {"pareto": check_pareto, "allocate": check_allocation,
          "benchmark": check_benchmark, "estimate": check_estimate}
