"""Command line front end.

Four subcommands cover the workflow: `allocate` solves the sampling
problem a config describes and prints the integer allocation, `pareto`
sweeps the cost/accuracy trade-off and writes the frontier, `estimate`
executes the estimator on fresh samples, and `benchmark` compares the
allocation's cost against the classical multilevel and multifidelity
baselines at the same tolerance.

Exit codes: 0 success, 2 bad configuration, 3 solver failure, 4 evaluator
failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .allocate import integer_projection, pareto_sweep, solve_mosap
from .baselines import multi_output_baseline
from .config import ConfigError, check_seed, load_problem
from .runner import (
    EvaluatorError,
    allocation_to_json,
    baseline_to_json,
    emit_outputs,
    report_to_json,
    run_estimate,
    spec_from_config,
)
from .sdp import SdpSettings

_DEFAULT_SWEEP = tuple(float(t) for t in np.logspace(-7.0, 4.0, 12))


def _add_common(sub):
    sub.add_argument("--config", required=True, help="problem JSON file")
    sub.add_argument("--output", help="write results to this file")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_argument("--feastol", type=float, default=1e-8,
                     help="solver feasibility tolerance")
    sub.add_argument("--gap-tol", type=float, default=1e-8,
                     help="solver relative gap tolerance")


def _load(args):
    """The config, with ``--seed`` in place of its seed when given."""
    seed = None if args.seed is None else check_seed(args.seed, "--seed")
    return load_problem(args.config, seed=seed)


def _settings(args):
    for flag, value in (("--gap-tol", args.gap_tol), ("--feastol", args.feastol)):
        if not (np.isfinite(value) and value > 0):
            raise ConfigError(flag, "must be a finite number > 0")
    return SdpSettings(gap_tol=args.gap_tol, feas_tol=args.feastol)


def _solve_project(cfg, args):
    spec = spec_from_config(cfg)
    alloc = solve_mosap(spec, _settings(args))
    if alloc.solver_status != "optimal":
        raise RuntimeError(f"solver stopped with status {alloc.solver_status!r}")
    return integer_projection(spec, alloc)


def _cmd_allocate(args):
    cfg = _load(args)
    if cfg.mode == "pareto" and cfg.tau_tilde is None:
        raise ConfigError("/mode", "this config sweeps tau; use the pareto subcommand")
    alloc = _solve_project(cfg, args)
    emit_outputs(allocation_to_json(alloc, cfg.groups), args.output)
    print(f"mode={alloc.mode} cost={alloc.total_cost:.6g} "
          f"max_variance={alloc.max_variance:.6g} "
          f"iterations={alloc.solver_iterations}", file=sys.stderr)
    return 0


def _cmd_pareto(args):
    cfg = _load(args)
    if cfg.mode != "pareto":
        raise ConfigError("/mode", "pareto subcommand needs a pareto-mode config")
    # pareto_sweep sets each point's tau; the spec's own is never read
    spec = spec_from_config(cfg, tau_tilde=0.0)
    records = pareto_sweep(spec, cfg.sweep or _DEFAULT_SWEEP, _settings(args))
    solved = [r for r in records if r["status"] == "optimal"]
    if not solved:
        raise RuntimeError("no sweep point solved to optimality")
    suffix = os.path.splitext(args.output or "")[1]
    fmt = {".csv": "csv", ".json": "json"}.get(suffix, args.format)
    emit_outputs(records, args.output, format=fmt)
    print(f"{len(solved)}/{len(records)} sweep points solved", file=sys.stderr)
    return 0


def _cmd_estimate(args):
    cfg = _load(args)
    if cfg.mode == "pareto" and cfg.tau_tilde is None:
        raise ConfigError("/mode", "estimate needs budget, tolerance, or a fixed tau_tilde")
    alloc = _solve_project(cfg, args)
    report = run_estimate(cfg, alloc, replications=args.reps)
    emit_outputs(report_to_json(report, allocation_to_json(alloc, cfg.groups)),
                 args.output)
    emp = report.empirical_variance
    for s in range(report.mean_estimate.size):
        line = (f"output {s + 1}: estimate={report.mean_estimate[s]:.10g} "
                f"predicted_variance={report.predicted_variance[s]:.4g}")
        if emp is not None:
            line += f" empirical_variance={emp[s]:.4g}"
        print(line, file=sys.stderr)
    print(f"cost per replication: {report.total_cost:.6g}", file=sys.stderr)
    return 0


def _cmd_benchmark(args):
    cfg = _load(args)
    if cfg.mode != "tolerance":
        raise ConfigError("/mode", "benchmark compares methods at a tolerance")
    alloc = _solve_project(cfg, args)
    rows = {"mlblue": allocation_to_json(alloc, cfg.groups)}
    for method in ("mlmc", "mfmc"):
        try:
            base = multi_output_baseline(method, cfg.models, cfg.store,
                                         cfg.tolerances)
            rows[method] = baseline_to_json(base)
        except ValueError as exc:
            rows[method] = {"method": method, "error": str(exc)}
    if args.output:
        emit_outputs(rows, args.output)
    print(f"{'method':<8} {'cost':>14} {'max variance':>14}")
    for method in ("mlblue", "mlmc", "mfmc"):
        row = rows[method]
        if "error" in row:
            print(f"{method:<8} {'-':>14} {'-':>14}  rejected: {row['error']}")
        else:
            print(f"{method:<8} {row['total_cost']:>14.6g} "
                  f"{max(row['per_output_variance']):>14.6g}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mlblue",
        description="Variance-optimal multilevel estimation with grouped samples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("allocate", help="solve for the optimal sample allocation")
    _add_common(p)
    p.set_defaults(func=_cmd_allocate)

    p = sub.add_parser("pareto", help="sweep the cost/accuracy frontier")
    _add_common(p)
    p.add_argument("--format", choices=("json", "csv"), default="csv",
                   help="output format, on stdout too; an --output path "
                        "ending in .csv or .json picks its own")
    p.set_defaults(func=_cmd_pareto)

    p = sub.add_parser("estimate", help="allocate, sample, and estimate")
    _add_common(p)
    p.add_argument("--reps", type=int, default=None,
                   help="override the config replication count")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("benchmark", help="compare against MLMC and MFMC")
    _add_common(p)
    p.set_defaults(func=_cmd_benchmark)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EvaluatorError as exc:
        print(f"evaluator failure: {exc}", file=sys.stderr)
        return 4
    except RuntimeError as exc:  # IllPosedError among them
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # ConfigError among them
        if isinstance(exc, OSError) and exc.filename is None:
            raise  # not from opening --config or --output: a closed stdout, say
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
