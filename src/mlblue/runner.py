"""End-to-end estimator execution and file emission.

run_estimate turns an integer allocation into actual estimates: for every
group with a positive count it draws that many common-input samples of the
group's models per replication and keeps only their sums, then combines
the sums of all replications through the linear estimator core, one call
per output. Sampling goes group by group: each sampled group's stream is
keyed by (seed, group index) and one generator serves all replications,
its counter moved to each replication's own block. The synthetic suite
maps each replication's factor sum through the loadings once instead of
evaluating every sample, drawing a chunk of replications into one reused
buffer and summing and mapping the chunk in one call each, with the same
stream and values as one replication at a time. A group whose samples of
one replication do not fit in memory, or whose count does not fit in 64
bits, is a ConfigError on ``/mode``.
Results depend only on (config, seed), never on execution order, and, with
numpy on OpenBLAS, not on the core count either, because every SDP solve
runs on one BLAS thread.

The module also owns the on-disk formats: allocation JSON, estimate-report
JSON, and the Pareto frontier CSV with its fixed header and 17-significant-
digit rows.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

from .allocate import Allocation, MosapSpec, scale_free_tau
from .baselines import BaselineAllocation
from .config import ConfigError, ProblemConfig
from .estimator import blue_variance, combine_samples
from .models import GroupSet
from .synthetic import SyntheticSuite

__all__ = [
    "EstimateReport",
    "EvaluatorError",
    "spec_from_config",
    "run_estimate",
    "allocation_to_json",
    "baseline_to_json",
    "report_to_json",
    "frontier_to_csv",
    "emit_outputs",
]


# seconds the evaluator of a successful run may take to exit before it is killed
_EVALUATOR_EXIT_GRACE = 10.0


class EvaluatorError(RuntimeError):
    """A model evaluation failed; the message names group and sample."""


@dataclass(frozen=True)
class EstimateReport:
    """What one estimation run produced.

    ``estimates`` has shape (replications, num_outputs) and holds the
    high-fidelity mean estimate of every replication. ``total_cost`` is the
    exact per-replication cost n @ group_costs. ``empirical_variance`` is
    the across-replication sample variance (None when replications == 1).
    """

    estimates: np.ndarray
    mean_estimate: np.ndarray
    predicted_variance: np.ndarray
    empirical_variance: np.ndarray | None
    total_cost: float
    replications: int
    seed: int


class _CommandEvaluator:
    """Talks to an external model over stdin/stdout, one JSON line each way.

    Request: {"model": <1-based id>, "input": [floats]}; response:
    {"values": [one finite float per output]}. A single process serves all
    requests for a run.
    """

    def __init__(self, argv, num_outputs, input_dim):
        self.num_outputs = num_outputs
        self.input_dim = input_dim
        try:
            self.proc = subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                text=True, bufsize=1,
            )
        except OSError as exc:
            raise EvaluatorError(f"cannot start evaluator {argv!r}: {exc}") from exc

    def draw_sums(self, group, count, seed, group_index, out):
        """``SyntheticSuite.draw_sums`` with the models evaluated externally:
        the same keyed streams, each sample sent model by model, and each
        replication's responses summed into ``out[r]``. Raises MemoryError
        when one replication's inputs and responses do not fit."""
        try:
            inputs = np.empty((1, count, self.input_dim))
            samples = np.empty((count, len(group), self.num_outputs))
        except ValueError as exc:  # numpy's error for an array past its largest size
            raise MemoryError(exc) from None
        blocks = SyntheticSuite.factor_blocks(count, self.input_dim, seed,
                                              group_index, range(len(out)),
                                              out=inputs)
        for r, z in enumerate(blocks):
            where = f"group {group_index} (replication {r})"
            for j in range(count):
                for a, model in enumerate(group):
                    req = json.dumps({"model": int(model), "input": list(map(float, z[j]))})
                    try:
                        self.proc.stdin.write(req + "\n")
                        self.proc.stdin.flush()
                        line = self.proc.stdout.readline()
                    except (BrokenPipeError, OSError) as exc:
                        raise EvaluatorError(f"evaluator died at {where}, sample {j}") from exc
                    if not line:
                        raise EvaluatorError(f"evaluator closed its output at {where}, sample {j}")
                    try:
                        values = json.loads(line)["values"]
                        samples[j, a, :] = np.asarray(values, dtype=float)
                        if not np.isfinite(samples[j, a]).all():
                            raise ValueError("values must be finite")
                    except (KeyError, TypeError, ValueError) as exc:
                        raise EvaluatorError(
                            f"bad evaluator response at {where}, sample {j}: {line!r}"
                        ) from exc
            out[r] = samples.sum(axis=0)

    def close(self):
        try:
            self.proc.stdin.close()
        except BrokenPipeError:  # the evaluator closed its input first
            pass
        try:
            self.proc.wait(timeout=_EVALUATOR_EXIT_GRACE)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()


def spec_from_config(config: ProblemConfig,
                     tau_tilde: float | None = None) -> MosapSpec:
    """Build the allocation problem a config describes.

    For pareto mode the scale-free tau_tilde becomes tau as in pareto_sweep.
    """
    tau = None
    if config.mode == "pareto":
        if tau_tilde is None:
            tau_tilde = config.tau_tilde
        if tau_tilde is None:
            raise ValueError("pareto spec needs a tau_tilde value")
        tau = scale_free_tau(tau_tilde, config.groups.group_costs)
    return MosapSpec(
        mode=config.mode,
        groups=config.groups,
        systems=config.systems,
        budget=config.budget,
        tolerances=config.tolerances,
        tau=tau,
        caps=config.model_caps,
    )


def _integer_counts(n, groups: GroupSet):
    n = np.asarray(n, dtype=float)
    if n.shape != (groups.num_groups,):
        raise ValueError(f"allocation must have length {groups.num_groups}")
    counts = np.rint(n)
    if (not np.isfinite(n).all() or np.abs(n - counts).max(initial=0.0) > 1e-9
            or np.any(counts < 0)):
        raise ValueError("run_estimate needs a nonnegative integer allocation")
    if counts.max(initial=0.0) >= 2.0**63:  # the cast to int64 would wrap
        k = int(np.argmax(counts))
        raise ConfigError("/mode", f"group {groups.groups[k]} needs "
                          f"{int(counts[k])} samples per replication, more "
                          "than a 64-bit count holds")
    return counts.astype(int)


def run_estimate(config: ProblemConfig, allocation,
                 replications=None) -> EstimateReport:
    """Execute the estimator: draw group samples, combine, replicate.

    ``allocation`` is an Allocation or a plain per-group count vector.
    Within a group every model sees the identical input draw; groups and
    replications use disjoint streams. The reduction order is fixed, so
    identical (config, seed) gives bit-identical reports.
    """
    n = allocation.n if isinstance(allocation, Allocation) else allocation
    counts = _integer_counts(n, config.groups)
    reps = int(config.replications if replications is None else replications)
    where = "/replications" if replications is None else "--reps"
    if reps < 1:
        raise ConfigError(where, "must be > 0")

    # an ill-posed allocation raises here, before any evaluation
    predicted = np.array([blue_variance(system, counts)
                          for system in config.systems])
    m = config.num_outputs
    # per sampled group: (replications, group size, outputs) sample sums
    try:
        sums = {int(k): np.empty((reps, len(config.groups.groups[k]), m))
                for k in np.flatnonzero(counts)}
    except (MemoryError, ValueError) as exc:
        raise ConfigError(
            where, f"{reps} replications do not fit in memory ({exc})"
        ) from None
    evaluator = None
    if config.evaluator["type"] == "command":
        evaluator = _CommandEvaluator(config.evaluator["argv"], m,
                                      config.evaluator["input_dim"])
    elif config.suite is None:
        raise ValueError("synthetic evaluator needs a suite")
    draw_sums = (evaluator or config.suite).draw_sums
    try:
        for k, buffer in sums.items():
            group, count = config.groups.groups[k], int(counts[k])
            try:
                draw_sums(group, count, config.seed, k, buffer)
            except MemoryError as exc:
                raise ConfigError(
                    "/mode", f"group {group} needs {count} samples per "
                    f"replication, which do not fit in memory ({exc})"
                ) from None
    except BaseException:  # a failed run gives the evaluator no grace to exit
        if evaluator is not None:
            evaluator.proc.kill()
        raise
    finally:
        if evaluator is not None:
            evaluator.close()

    estimates = np.empty((reps, m))
    for s, system in enumerate(config.systems):
        output_sums = {k: buffer[..., s] for k, buffer in sums.items()}
        estimates[:, s] = combine_samples(system, counts, output_sums)[:, 0]
    empirical = None
    if reps > 1:
        empirical = estimates.var(axis=0, ddof=1)
    return EstimateReport(
        estimates=estimates,
        mean_estimate=estimates.mean(axis=0),
        predicted_variance=predicted,
        empirical_variance=empirical,
        total_cost=float(counts @ config.groups.group_costs),
        replications=reps,
        seed=config.seed,
    )


def allocation_to_json(alloc: Allocation, groups: GroupSet) -> dict:
    """The allocation wire format; only sampled groups are listed."""
    sel = np.flatnonzero(alloc.n > 0)
    ints = alloc.is_integer
    return {
        "mode": alloc.mode,
        "n": [int(round(alloc.n[k])) if ints else float(alloc.n[k]) for k in sel],
        "groups": [list(groups.groups[k]) for k in sel],
        "total_cost": float(alloc.total_cost),
        "per_output_variance": [float(v) for v in alloc.per_output_variance],
        "solver": {
            "iterations": int(alloc.solver_iterations),
            "gap": float(alloc.solver_gap) if np.isfinite(alloc.solver_gap) else None,
        },
    }


def baseline_to_json(baseline: BaselineAllocation) -> dict:
    """Baseline allocation in the same wire shape, plus a method tag."""
    return {
        "method": baseline.method,
        "mode": "tolerance",
        "n": list(baseline.counts),
        "groups": [list(g) for g in baseline.groups],
        "total_cost": float(baseline.total_cost),
        "per_output_variance": [float(v) for v in baseline.predicted_variance],
        "solver": {"iterations": 0, "gap": None},
    }


def report_to_json(report: EstimateReport, alloc_json: dict | None = None) -> dict:
    out = {
        "mean_estimate": [float(v) for v in report.mean_estimate],
        "predicted_variance": [float(v) for v in report.predicted_variance],
        "empirical_variance": (
            None if report.empirical_variance is None
            else [float(v) for v in report.empirical_variance]
        ),
        "total_cost": float(report.total_cost),
        "replications": int(report.replications),
        "seed": int(report.seed),
    }
    if alloc_json is not None:
        out["allocation"] = alloc_json
    return out


def frontier_to_csv(frontier) -> str:
    """Fixed-format frontier CSV: ascending tau_tilde, 17 significant digits.

    Only optimal sweep points are written: a failed point carries no cost or
    variance, and an unconverged one carries no trustworthy ones.
    """
    lines = ["tau_tilde,cost,variance,normalized_error"]
    points = [p for p in frontier if p["status"] == "optimal"]
    for p in sorted(points, key=lambda p: p["tau_tilde"]):
        lines.append(
            "%.17g,%.17g,%.17g,%.17g"
            % (p["tau_tilde"], p["cost"], p["variance"], p["normalized_error"])
        )
    return "\n".join(lines) + "\n"


def _frontier_point_json(p):
    if p["status"] == "failed":
        return {"tau_tilde": float(p["tau_tilde"]), "status": "failed",
                "error": p["error"]}
    return {
        "tau_tilde": float(p["tau_tilde"]),
        "cost": float(p["cost"]),
        "variance": float(p["variance"]),
        "normalized_error": float(p["normalized_error"]),
        "status": p["status"],
    }


def emit_outputs(obj, path=None, format: str = "json"):
    """Write a frontier (the list of sweep records) or a JSON payload to
    ``path``, or to stdout when ``path`` is None.

    Frontiers accept 'json' or 'csv'; a payload is JSON only.
    """
    if format not in ("json", "csv"):
        raise ValueError(f"unknown format {format!r}")
    if not isinstance(obj, (list, dict)):
        raise TypeError(f"cannot emit {type(obj).__name__}")
    if format == "csv":
        if isinstance(obj, dict):
            raise ValueError("csv format is only defined for frontiers")
        text = frontier_to_csv(obj)
    else:
        if isinstance(obj, list):
            obj = [_frontier_point_json(p) for p in obj]
        text = json.dumps(obj, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
