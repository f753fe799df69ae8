"""``tools/compare_cli.py`` gates the byte-identical refactors; test its diff.

The tool is a script, not a module of the program, so it is loaded by path.
"""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from mlblue.config import parse_problem
from mlblue.estimator import _REPAIR_FLOOR, usable_groups

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_cli.py"

_spec = importlib.util.spec_from_file_location("compare_cli", TOOL)
compare_cli = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_cli)
max_rel_diff = compare_cli.max_rel_diff

TREE = {"mode": "budget", "n": [422, 53, 15], "total_cost": 2000.0,
        "per_output_variance": [0.25], "fallback": False, "error": None}


def test_equal_trees_differ_by_zero():
    assert max_rel_diff(TREE, dict(TREE)) == (0.0, "/")
    assert max_rel_diff(3, 3.0) == (0.0, "/")


def test_changed_leaf_gives_its_relative_difference_and_path():
    changed = dict(TREE, per_output_variance=[0.2])
    diff, path = max_rel_diff(TREE, changed)
    assert diff == pytest.approx(0.05 / 0.25)
    assert path == "/per_output_variance/0/"
    # the largest difference wins, wherever it sits
    changed["n"] = [422, 53, 16]
    assert max_rel_diff(TREE, changed) == (pytest.approx(0.2), "/per_output_variance/0/")
    changed["total_cost"] = 1000.0
    assert max_rel_diff(TREE, changed) == (0.5, "/total_cost/")


@pytest.mark.parametrize("other, path", [
    ({k: v for k, v in TREE.items() if k != "fallback"}, "/"),
    (dict(TREE, n=[422, 53]), "/n/"),
    (dict(TREE, mode="tolerance"), "/mode/"),
    (dict(TREE, n={"0": 422}), "/n/"),
    (dict(TREE, error=0), "/error/"),
])
def test_shape_and_non_numeric_changes_are_infinite(other, path):
    assert max_rel_diff(TREE, other) == (math.inf, path)


def test_nan_against_nan_is_infinite():
    assert max_rel_diff([math.nan], [math.nan]) == (math.inf, "/0/")
    assert max_rel_diff(math.inf, math.inf) == (0.0, "/")


def test_bool_against_number_is_a_difference():
    assert max_rel_diff(True, 1) == (math.inf, "/")
    assert max_rel_diff({"x": 0}, {"x": False}) == (math.inf, "/x/")
    assert max_rel_diff(True, True) == (0.0, "/")


def test_skipped_members_leave_the_answers_difference():
    # a solver change moves its final gap far more than the answers; with
    # the solver objects skipped, the answers' own difference shows, also
    # where they sit deeper in the tree, as in a pareto output
    tree = dict(TREE, solver={"iterations": 40, "gap": 1e-9})
    changed = dict(tree, total_cost=2000.002, solver={"iterations": 40, "gap": 2e-9})
    assert max_rel_diff(tree, changed) == (0.5, "/solver/gap/")
    diff, path = max_rel_diff(tree, changed, skip={"solver"})
    assert diff == pytest.approx(0.002 / 2000.002) and path == "/total_cost/"
    points = {"points": [tree, changed]}
    assert max_rel_diff({"points": [tree, tree]}, points, skip={"solver"}) == (
        pytest.approx(0.002 / 2000.002), "/points/1/total_cost/")
    # a skipped member still has to exist on both sides
    assert max_rel_diff(tree, TREE, skip={"solver"}) == (math.inf, "/")


def repaired_blocks(cfg, output, usable):
    """How many usable covariance blocks of ``output`` the estimator repairs:
    those with an eigenvalue below _REPAIR_FLOOR of their largest."""
    count = 0
    for k in np.flatnonzero(usable):
        idx = np.asarray(cfg.groups.groups[k]) - 1
        w = np.linalg.eigvalsh(cfg.store.matrices[output - 1][np.ix_(idx, idx)])
        count += w[0] < _REPAIR_FLOOR * w[-1]
    return count


@pytest.mark.parametrize("seed", compare_cli.SEEDS)
def test_fixed_configs_have_groups_some_output_cannot_use(seed):
    # the benchmark's configs do not, and need no repaired block either, so
    # these are the tool's only view of how such groups are handled
    for name, config, _ in compare_cli.fixed_configs(seed):
        cfg = parse_problem(json.loads(json.dumps(config)))
        usable = [usable_groups(cfg.groups, cfg.store, s)
                  for s in range(1, cfg.num_outputs + 1)]
        assert not np.all(usable), name
        if name == "rank-2-4x2":
            assert sum(repaired_blocks(cfg, s, mask)
                       for s, mask in enumerate(usable, start=1)) > 0
