"""The benchmark's tracer wraps program functions by name; keep those names.

``perfbench/layers.py`` replaces each entry of its ``TARGETS`` in the
namespace of the module that calls it, reading the raw attribute from the
owner's ``__dict__``. A rename or a moved import would otherwise only show
up as a failed traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


_spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)


@pytest.mark.parametrize("name,where,attr", layers.TARGETS, ids=str)
def test_trace_target_resolves(name, where, attr):
    owner = layers._resolve(where)
    assert attr in owner.__dict__, f"{where} has no attribute {attr} for {name}"
    assert callable(getattr(owner, attr))


def test_system_builder_is_a_classmethod():
    from mlblue.estimator import BlueSystem

    assert isinstance(BlueSystem.__dict__["from_covariance"], classmethod)
