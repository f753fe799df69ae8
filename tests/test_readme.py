"""The README's quick start and its "Library use" snippet run as written.

The quick start's allocation is checked field by field: mode, counts,
groups and cost exactly, the variance to 1e-9 relative. The solver's
iteration count and gap are not pinned, since they move with its last bits.
"""

import json
import re
from pathlib import Path

import pytest

from mlblue.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _fenced(after, lang=""):
    """The first fenced block of language ``lang`` after the text ``after``."""
    start = README.index(after)
    return re.search(rf"```{lang}\n(.*?)```", README[start:], re.S).group(1)


def test_quick_start_allocation_matches_the_readme(tmp_path, capsys):
    config = tmp_path / "problem.json"
    config.write_text(_fenced("## Quick start", "json"))
    session = _fenced("then solve for the optimal allocation").splitlines()
    assert session[0] == "$ mlblue allocate --config problem.json"
    shown = json.loads("\n".join(session[1:-1]))

    assert main(["allocate", "--config", str(config)]) == 0
    got = json.loads(capsys.readouterr().out)
    for key in ("mode", "n", "groups", "total_cost"):
        assert got[key] == shown[key], key
    assert got["per_output_variance"] == pytest.approx(
        shown["per_output_variance"], rel=1e-9)


def test_library_use_snippet_runs(capsys):
    namespace = {}
    exec(_fenced("## Library use", "python"), namespace)
    alloc = namespace["alloc"]
    assert alloc.total_cost <= namespace["spec"].budget
    assert capsys.readouterr().out.startswith("[")
