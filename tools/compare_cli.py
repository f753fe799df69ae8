"""Compare what `mlblue` writes from two source trees on the benchmark configs.

    python3 tools/compare_cli.py PARENT_TREE CHANGE_TREE

For seeds 1 and 2, the configs of every workload in ``perfbench/workloads.py``
(the copy next to this script, imported read-only) are generated once. The
benchmark's configs put every model on every output, so five fixed configs
of this script's own add groups that some output cannot use: models that
miss an output, an unknown (``null``) covariance pair, a deny list and a
model cap; each runs through every subcommand its mode allows. The one with
fewer factors than models has singular covariance blocks, which the
estimator repairs and no benchmark config has. Each
operation then runs as ``python -m mlblue`` with each tree's ``src`` on
PYTHONPATH, in a directory of its own with the same relative file names, so
the two runs see identical arguments. One line per operation reports whether
the ``--output`` file, stdout and stderr are byte-identical, both exit codes,
and the largest relative difference among the numeric fields of the two
JSON outputs, with the field's path (``max_rel``). ``answers_max_rel`` is the
same maximum with every ``solver`` object left out, so that a move in the
allocations, costs or variances is not hidden behind the solver's own
diagnostics, such as its final gap. A last line gives the line count of
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

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

SEEDS = (1, 2)
ESTIMATE_RTOL = 1e-12
# replications of each ``estimate`` run on the fixed configs
FIXED_REPS = 200


def fixed_configs(seed):
    """(name, config, subcommands) of the configs with unusable groups.

    The loadings are the benchmark's hierarchy suite, whose strong
    correlations make the low-fidelity groups worth sampling, plus 0.05
    times its random suite at ``seed``, cut to their first ``factors``
    columns when that is given; costs fall by a factor 4 per model.
    """
    def config(num_models, num_outputs, mode, outputs=None, factors=None,
               **extra):
        hierarchy = workloads.hierarchy_suite(num_models, num_outputs,
                                              rate=2.0, strength=0.05)
        loadings = 0.05 * workloads.random_suite(num_models, num_outputs, seed)
        loadings[:, :, :-1] += hierarchy
        loadings = loadings[:, :, :factors]
        models = {"costs": (4.0 ** np.arange(num_models - 1, -1, -1)).tolist(),
                  "num_outputs": num_outputs}
        if outputs is not None:
            models["outputs"] = outputs
        return {"models": models, "synthetic": {"loadings": loadings.tolist()},
                "covariance": {"type": "synthetic"}, "mode": mode,
                "seed": seed, **extra}

    outputs = config(4, 2, {"type": "tolerance"},
                     outputs=[[1, 2], [1, 2], [1], [2]])
    v1 = workloads.oracle.covariances(outputs["synthetic"]["loadings"])[:, 0, 0]
    outputs["mode"]["eps2"] = (v1 / 50.0).tolist()
    null_pair = config(4, 1, {"type": "budget", "budget": 400.0})
    matrix = workloads.oracle.covariances(null_pair["synthetic"]["loadings"])[0].tolist()
    matrix[0][2] = matrix[2][0] = None
    null_pair["covariance"] = {"type": "inline", "matrices": [matrix]}
    deny = config(5, 2, {"type": "pareto", "tau_tilde": 1e-3},
                  outputs=[[1, 2], [1, 2], [1, 2], [1], [2]],
                  groups={"kappa": 3, "deny": [[1, 2], [2, 3, 4]]})
    caps = config(4, 2, {"type": "budget", "budget": 600.0},
                  outputs=[[1, 2], [1], [1, 2], [2]],
                  constraints={"model_caps": [None, 40, 20, 30]})
    # two factors: each output's three-model group has a singular covariance
    rank_deficient = config(4, 2, {"type": "tolerance", "eps2": [0.01, 0.01]},
                            outputs=[[1, 2], [1, 2], [1], [2]], factors=2,
                            groups={"kappa": 3})
    return [("outputs-4x2", outputs, ("allocate", "benchmark", "estimate")),
            ("null-pair-4x1", null_pair, ("allocate", "estimate")),
            ("deny-5x2", deny, ("allocate", "estimate", "pareto")),
            ("caps-4x2", caps, ("allocate", "estimate")),
            ("rank-2-4x2", rank_deficient, ("allocate", "benchmark", "estimate"))]


def operations(seed):
    """(name, subcommand, argv, config) of every operation at ``seed``."""
    for workload in sorted(workloads.WORKLOADS):
        for inst, config in workloads.generate(workload, seed):
            yield (inst.name, inst.command,
                   inst.argv("config.json", "out.json"), config)
    for name, config, commands in fixed_configs(seed):
        for command in commands:
            argv = [command, "--config", "config.json", "--output", "out.json"]
            if command == "estimate":
                argv += ["--reps", str(FIXED_REPS)]
            yield name, command, argv, config


def max_rel_diff(a, b, path="/", skip=()):
    """(largest relative difference, JSON path) over the numeric leaves.

    A difference in shape, type or any non-numeric value counts as infinite.
    Object members whose key is in ``skip`` are left out, at any depth.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return math.inf, path
        pairs = [(a[k], b[k], f"{path}{k}/") for k in a if k not in skip]
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
        diff = max_rel_diff(x, y, sub, skip)
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
            for name, command, argv, config in operations(seed):
                runs = [run_tree(tree, argv, config,
                                 Path(tmp) / f"{seed}-{name}-{command}-{side}")
                        for side, tree in (("parent", parent), ("change", change))]
                (rc_a, out_a, err_a, file_a), (rc_b, out_b, err_b, file_b) = runs
                diff = answers = (0.0, "/")
                if file_a != file_b:
                    try:
                        tree_a, tree_b = json.loads(file_a), json.loads(file_b)
                    except (TypeError, ValueError):
                        diff = answers = (math.inf, "unreadable output")
                    else:
                        diff = max_rel_diff(tree_a, tree_b)
                        answers = max_rel_diff(tree_a, tree_b, skip={"solver"})
                console_same = out_a == out_b and err_a == err_b
                if command == "estimate":
                    output_ok = diff[0] <= ESTIMATE_RTOL
                else:
                    output_ok = file_a == file_b
                ok &= rc_a == rc_b and console_same and output_ok
                print(f"seed {seed} {name:<14} {command:<9} "
                      f"output={'same' if file_a == file_b else 'DIFF'} "
                      f"console={'same' if console_same else 'DIFF'} "
                      f"rc={rc_a}/{rc_b} max_rel={diff[0]:.3g} at {diff[1]} "
                      f"answers_max_rel={answers[0]:.3g} at {answers[1]}",
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
