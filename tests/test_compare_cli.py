"""``tools/compare_cli.py`` gates the byte-identical refactors; test its diff.

The tool is a script, not a module of the program, so it is loaded by path.
"""

import importlib.util
import math
from pathlib import Path

import pytest

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
