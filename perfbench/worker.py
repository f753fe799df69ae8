"""One round of one workload, in a fresh process started by run.py.

    python3 perfbench/worker.py WORKLOAD SEED TRACE RUN_DIR

The worker imports the program, writes the workload's configs into RUN_DIR
and prints ``ready <time.monotonic()>``; run.py measures set-up time up to
that line. It then runs one round, every operation a call of
``mlblue.cli.main`` with ``--output`` into RUN_DIR, scores the outputs with
the oracle and prints one JSON record as its last line. With TRACE 1 the
program's layers are wrapped during the round and the record carries the
spans and the round's per-layer metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

import mlblue.cli
from mlblue.allocate import solve_mosap
from mlblue.config import load_problem
from mlblue.runner import spec_from_config
from mlblue.sdp import SdpSettings

import layers
import workloads


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _run_cli(argv):
    """Exit code and captured console text of one `mlblue` invocation."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = mlblue.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught error is a failed operation, not a crash
        code = 1
        sink.write(traceback.format_exc())
    return code, sink.getvalue()


def _continuous(path):
    """The program's continuous optimum, the input of the rounding check."""
    spec = spec_from_config(load_problem(path))
    return solve_mosap(spec, SdpSettings(gap_tol=1e-8, feas_tol=1e-8)).n


def _fingerprint(rc, payload, iterations):
    """Exit code, solver iterations, objective and digest of one output."""
    out = {"rc": rc, "iterations": iterations}
    alloc = None
    if isinstance(payload, dict):
        alloc = payload.get("mlblue") or payload.get("allocation") or payload
    if alloc and "total_cost" in alloc:
        out["objective"] = (alloc["total_cost"] if alloc["mode"] == "tolerance"
                            else max(alloc["per_output_variance"]))
    if payload is not None:
        text = json.dumps(payload, sort_keys=True).encode()
        out["digest"] = hashlib.sha256(text).hexdigest()[:16]
    return out


def main(argv):
    workload, seed, trace, run_dir = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    instances = workloads.generate(workload, seed)
    paths = []
    for inst, cfg in instances:
        paths.append(os.path.join(run_dir, f"{inst.name}.config.json"))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
    print(f"ready {time.monotonic()!r}", flush=True)

    tracer = layers.Tracer() if trace else None
    if tracer:
        tracer.install()
    ops = []
    round_wall, round_cpu = time.perf_counter(), _cpu()
    try:
        for i, (inst, _) in enumerate(instances):
            out = os.path.join(run_dir, f"{inst.name}.out.json")
            span = None
            if tracer:
                tracer.op = i
                span = tracer.open("op")
            wall, cpu = time.perf_counter(), _cpu()
            rc, log = _run_cli(inst.argv(paths[i], out))
            op = {"instance": i, "wall_s": time.perf_counter() - wall,
                  "cpu_s": _cpu() - cpu, "rc": rc, "log": log, "payload": None}
            if tracer:
                tracer.close(span)
                tracer.sample_threads()
                tracer.op = None
            if rc == 0:
                with open(out, encoding="utf-8") as fh:
                    op["payload"] = json.load(fh)
            ops.append(op)
    finally:
        if tracer:
            tracer.remove()
    round_wall, round_cpu = time.perf_counter() - round_wall, _cpu() - round_cpu
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    fractional = {}
    for op, (inst, cfg), path in zip(ops, instances, paths):
        if op["rc"] != 0:
            op["errors"] = [f"exit code {op['rc']}: {op['log'].strip()[-300:]}"]
            continue
        try:  # a check that cannot be made fails the operation, not the run
            continuous = None
            if inst.command in ("allocate", "benchmark"):
                continuous = _continuous(path)
            ref = workloads.Reference(inst, cfg, continuous)
            if ref.fractional is not None:
                fractional[inst.name] = ref.fractional
            op["errors"] = workloads.CHECKS[inst.command](ref, op["payload"])
        except Exception:
            op["errors"] = [f"check raised: {traceback.format_exc().strip()[-300:]}"]

    record = {
        "ops": [{k: op[k] for k in ("instance", "wall_s", "cpu_s", "errors")} for op in ops],
        "round_wall_s": round_wall,
        "round_cpu_s": round_cpu,
        "peak_rss_mb": peak_rss_mb,
        "fractional_entries": fractional,
    }
    if tracer:
        record["per_layer"] = layers.layer_metrics(tracer.spans, range(len(ops)))
        record["per_layer"]["process.threads"] = tracer.peak_threads
        record["spans"] = tracer.spans
        iterations = [0] * len(ops)
        for name, _, _, _, op_id, extra in tracer.spans:
            if name == "sdp.solve":
                iterations[op_id] += extra["iterations"]
        for op, rec in zip(ops, record["ops"]):
            rec["fingerprint"] = _fingerprint(op["rc"], op["payload"],
                                              iterations[op["instance"]])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
