"""Measure how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]

Run from the root of the checkout. Each of two sets runs every workload in
BENCHMARK.json --runs times, each run with a new seed, rotating the order
of the workloads from one run to the next. For every workload and
end-to-end metric it prints each set's median and quartiles, the spread
(interquartile range over the median) of each set, and the drift of the
second set's median from the first's. The bounds in BENCHMARK.json are compared with the drift; the
spreads should stay below a third of them. The full record goes to
perfbench/runs/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETS = 2


def _run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["summary"] = proc.stderr.strip().splitlines()[-1]  # rounds, set-ups, ...
    return out


def _summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    seed = args.first_seed
    for s in range(SETS):
        for i in range(args.runs):
            shift = i % len(workloads)
            for w in workloads[shift:] + workloads[:shift]:
                out = _run(w, seed, bench["run_seconds"])
                results[w][s].append({"seed": seed, **out})
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: failed "
                      f"{out['failed']}/{out['attempted']}", file=sys.stderr, flush=True)
            seed += 1

    report = {}
    print(f"{'workload':<18} {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'drift':>7} {'bound':>6}  failed share")
    for w in workloads:
        report[w] = {}
        shares = sorted({r["failed"] / r["attempted"] for runs in results[w] for r in runs})
        for name in bounds:
            sets = [_summary([r["metrics"][name]["value"] for r in runs])
                    for runs in results[w]]
            drift = sets[1]["median"] / sets[0]["median"] - 1.0
            report[w][name] = {"sets": sets, "drift": drift, "bound": bounds[name]}
            for k, st in enumerate(sets):
                print(f"{w:<18} {name:<12} {st['median']:>10.4g} {st['q1']:>10.4g} "
                      f"{st['q3']:>10.4g} {st['spread']:>7.3f} "
                      f"{drift if k == 1 else float('nan'):>7.3f} "
                      f"{bounds[name]:>6.2f}  {shares}")
    os.makedirs(os.path.join(HERE, "runs"), exist_ok=True)
    path = os.path.join(HERE, "runs", f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"runs": results, "summary": report}, fh, indent=1)
    print(f"record: {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
