"""No module reads another module's private names.

A ``src/qjulia`` module may use a ``_``-prefixed name only of its own:
``mod._x`` on another qjulia module, or ``from qjulia.mod import _x``,
fails here.  What two modules share is public in the module that owns
it.  Tests and perfbench may still read private names.
"""

import ast
from pathlib import Path

PACKAGE = sorted((Path(__file__).resolve().parent.parent / "src" / "qjulia").glob("*.py"))


def _private(name: str) -> bool:
    # a dunder such as __name__ belongs to every module
    return name.startswith("_") and not name.endswith("__")


def _private_reads(source: str, own: str) -> list[str]:
    """'other._x' once for each private name of another qjulia module
    that source, the text of module own, uses; sorted."""
    modules = {}  # a local name bound to a qjulia module -> that module
    reads = []
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = "qjulia" if node.level else ""
            dotted = ".".join(p for p in (package, node.module) if p)
            if dotted == "qjulia":
                modules.update({a.asname or a.name: a.name for a in node.names})
            elif dotted.startswith("qjulia."):
                other = dotted.split(".")[1]
                if other != own:
                    reads += [f"{other}.{a.name}" for a in node.names if _private(a.name)]
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("qjulia.") and a.asname:
                    modules[a.asname] = a.name.split(".")[1]
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and _private(node.attr)):
            continue
        base = node.value
        if isinstance(base, ast.Name):
            other = modules.get(base.id)
        elif isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            other = base.attr if base.value.id == "qjulia" else None
        else:
            other = None
        if other is not None and other != own:
            reads.append(f"{other}.{node.attr}")
    return sorted(set(reads))


def test_no_module_reads_another_modules_private_names():
    reads = [
        f"{path.stem} -> {read}"
        for path in PACKAGE
        for read in _private_reads(path.read_text(), path.stem)
    ]
    assert reads == []


def test_the_guard_sees_every_form_of_a_private_read():
    source = """
from qjulia import field as fld, dynamics
from qjulia.render import _PALETTES, Camera
from .config import _need
import qjulia.oracle2d
import qjulia.quat as q
from qjulia import cli

fld._embed_batch(dynamics._divide, qjulia.oracle2d._CHUNK, q._x, dynamics._divide)
cli._own, fld.__name__, fld.scan, _PALETTES
"""
    assert _private_reads(source, "cli") == [
        "config._need", "dynamics._divide", "field._embed_batch",
        "oracle2d._CHUNK", "quat._x", "render._PALETTES",
    ]
