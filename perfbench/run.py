"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout of mlblue; the program is
imported from ./src. Every round of the workload runs in a fresh process,
which first sets up (interpreter start, imports, config generation) and
then runs the round's operations once. Processes follow one another until
the rounds have taken S seconds, so a run samples several processes as
well as S seconds of the machine. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, which
holds the end-to-end metrics with --trace 0 and the per-layer metrics with
--trace 1.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from layers import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pareto-frontier", "allocate-estimate")
# no round starts after this many seconds, so that a run ends well within
# three minutes
LAST_START_S = 120.0
WORKER_TIMEOUT_S = 50.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB"}


class RunError(RuntimeError):
    pass


def _round(args, run_dir):
    """Set-up time and record of one worker process running one round."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath("src"),
                                                      env.get("PYTHONPATH")]))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
           str(args.seed), str(args.trace), run_dir]
    began = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"a round did not finish within {WORKER_TIMEOUT_S:.0f} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[0].startswith("ready "):
        raise RunError(f"worker exited with code {proc.returncode}: "
                       f"{proc.stderr.strip()[-2000:]}")
    return float(lines[0].split()[1]) - began, json.loads(lines[-1])


def run(args):
    start = time.monotonic()
    runs = os.path.join(HERE, "runs")
    os.makedirs(runs, exist_ok=True)
    setups, rounds = [], []
    while not rounds or (sum(r["round_wall_s"] for r in rounds) < args.seconds
                         and time.monotonic() - start < LAST_START_S):
        run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs)
        try:
            setup, record = _round(args, run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        setups.append(setup)
        rounds.append(record)

    ops = [op for r in rounds for op in r["ops"]]
    failed = [op for op in ops if op["errors"]]
    for op in failed[:5]:
        print(f"failed: operation {op['instance']}: {op['errors'][0]}", file=sys.stderr)
    if args.trace:
        values = {name: statistics.median(r["per_layer"][name] for r in rounds)
                  for name in PER_LAYER}
        values["process.threads"] = max(r["per_layer"]["process.threads"] for r in rounds)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        _write_trace(args, rounds)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.mean(r["round_wall_s"] for r in rounds),
            "op_p50_s": statistics.median(op["wall_s"] for op in ops),
            "cpu_s": statistics.mean(r["round_cpu_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(f"{args.workload}: {len(rounds)} rounds; operation wall and cpu times "
          f"{[[op['instance'], op['wall_s'], op['cpu_s']] for op in ops]}; "
          f"fractional entries {rounds[0]['fractional_entries'] or '-'}; "
          f"set-ups {setups}", file=sys.stderr)
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed),
            "metrics": metrics}


def _write_trace(args, rounds):
    """Spans, per-operation fingerprints and per-layer metrics of every round."""
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "span_fields": ["name", "start", "end", "parent", "op", "extra"],
        "rounds": rounds,
    }
    path = os.path.join(HERE, "runs", f"trace-{args.workload}-seed{args.seed}.json.gz")
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        json.dump(doc, fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "mlblue", "cli.py")):
        print("run.py: no src/mlblue here; run it from the root of an mlblue "
              "source checkout", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except RunError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
