"""Every public name has a reader or a documented place.

A name in the ``__all__`` of an ``mlblue`` module passes when some Python
file under ``src/``, ``perfbench/`` or ``tools/`` reads it, or when the
README's "Library use" section names it. A read is a use of the name as a
variable, an attribute or an import, or a string that is exactly the name
(the benchmark's tracer looks functions up by name); the ``def`` or
``class`` line that binds it and its own ``__all__`` entry are no reads.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
READERS = ("src", "perfbench", "tools")


def _public_names():
    """{name: module file} over the ``__all__`` lists of the package."""
    names = {}
    for path in sorted((ROOT / "src" / "mlblue").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__"
                            for t in node.targets)):
                for name in ast.literal_eval(node.value):
                    names[name] = path.name
    return names


def _reads(path):
    tree = ast.parse(path.read_text())
    listed = {
        id(const)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for const in ast.walk(node.value)
    }
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in listed):
            out.add(node.value)
    return out


def _library_use():
    text = (ROOT / "README.md").read_text()
    start = text.index("## Library use")
    end = text.find("\n## ", start)
    return text[start:] if end < 0 else text[start:end]


def test_every_public_name_has_a_reader_or_a_readme_entry():
    read = set()
    for top in READERS:
        for path in (ROOT / top).rglob("*.py"):
            read |= _reads(path)
    documented = _library_use()
    unread = sorted(
        f"{module}:{name}"
        for name, module in _public_names().items()
        if name not in read and not re.search(rf"\b{name}\b", documented)
    )
    assert not unread, f"public names with no reader: {unread}"
