"""Compare what `mlblue` writes from two source trees on the benchmark configs.

    python3 tools/compare_cli.py PARENT_TREE CHANGE_TREE

For seeds 1 and 2, the configs of every workload in ``perfbench/workloads.py``
(the copy next to this script, imported read-only) are generated once. Each
operation then runs as ``python -m mlblue`` with each tree's ``src`` on
PYTHONPATH, in a directory of its own with the same relative file names, so
the two runs see identical arguments. One line per operation reports whether
the ``--output`` file, stdout and stderr are byte-identical, both exit codes,
and the largest relative difference among the numeric fields of the two
JSON outputs, with the field's path. A last line gives the line count of
``src/mlblue/*.py`` in both trees, as ``wc -l`` counts it.

Exit status 0 when every operation has equal exit codes and console text,
every ``allocate``, ``benchmark`` and ``pareto`` output is byte-identical, and
every numeric difference in an ``estimate`` output is at most 1e-12 relative
(the last bits of the sample combine are not reproducible across array
layouts); 1 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

SEEDS = (1, 2)
ESTIMATE_RTOL = 1e-12


def max_rel_diff(a, b, path="/"):
    """(largest relative difference, JSON path) over the numeric leaves.

    A difference in shape, type or any non-numeric value counts as infinite.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return math.inf, path
        pairs = [(a[k], b[k], f"{path}{k}/") for k in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return math.inf, path
        pairs = [(x, y, f"{path}{i}/") for i, (x, y) in enumerate(zip(a, b))]
    elif (isinstance(a, (int, float)) and isinstance(b, (int, float))
          and not isinstance(a, bool) and not isinstance(b, bool)):
        if a == b:
            return 0.0, path
        if not (math.isfinite(a) and math.isfinite(b)):
            return math.inf, path
        return abs(a - b) / max(abs(a), abs(b)), path
    else:  # a bool is not a number here: true in place of 1 is a change
        return (0.0 if type(a) is type(b) and a == b else math.inf), path
    worst = (0.0, path)
    for x, y, sub in pairs:
        diff = max_rel_diff(x, y, sub)
        if diff[0] > worst[0]:
            worst = diff
    return worst


def run_tree(tree, argv, config, workdir):
    """Run one operation from one tree; (exit code, stdout, stderr, output)."""
    workdir.mkdir(parents=True)
    (workdir / "config.json").write_text(json.dumps(config), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
    proc = subprocess.run([sys.executable, "-m", "mlblue", *argv], cwd=workdir,
                          env=env, capture_output=True)
    out = workdir / "out.json"
    return proc.returncode, proc.stdout, proc.stderr, (
        out.read_bytes() if out.exists() else None)


def source_lines(tree):
    """Newline count of the program's modules, ``src/mlblue/*.py``."""
    modules = (Path(tree) / "src" / "mlblue").glob("*.py")
    return sum(p.read_bytes().count(b"\n") for p in modules)


def compare(parent, change):
    ok = True
    with tempfile.TemporaryDirectory(prefix="compare_cli_") as tmp:
        for seed in SEEDS:
            for workload in sorted(workloads.WORKLOADS):
                for inst, config in workloads.generate(workload, seed):
                    argv = inst.argv("config.json", "out.json")
                    runs = [run_tree(tree, argv, config,
                                     Path(tmp) / f"{seed}-{inst.name}-{side}")
                            for side, tree in (("parent", parent), ("change", change))]
                    (rc_a, out_a, err_a, file_a), (rc_b, out_b, err_b, file_b) = runs
                    diff = (0.0, "/")
                    if file_a != file_b:
                        try:
                            diff = max_rel_diff(json.loads(file_a), json.loads(file_b))
                        except (TypeError, ValueError):
                            diff = (math.inf, "unreadable output")
                    console_same = out_a == out_b and err_a == err_b
                    if inst.command == "estimate":
                        output_ok = diff[0] <= ESTIMATE_RTOL
                    else:
                        output_ok = file_a == file_b
                    ok &= rc_a == rc_b and console_same and output_ok
                    print(f"seed {seed} {inst.name:<14} {inst.command:<9} "
                          f"output={'same' if file_a == file_b else 'DIFF'} "
                          f"console={'same' if console_same else 'DIFF'} "
                          f"rc={rc_a}/{rc_b} max_rel={diff[0]:.3g} at {diff[1]}",
                          flush=True)
    return ok


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    ok = compare(*argv)
    print("src/mlblue/*.py lines: " + " -> ".join(
        str(source_lines(tree)) for tree in argv))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
