"""No module reads another module's private names, and one owns ``gc``.

A ``src/qjulia`` module may use a ``_``-prefixed name only of its own:
``mod._x`` on another qjulia module, or ``from qjulia.mod import _x``,
fails here.  What two modules share is public in the module that owns
it.  Tests and perfbench may still read private names.

The garbage collector belongs to the process entry: only ``__main__``
calls a ``gc`` function, so a library caller of any other module keeps
its collector as it set it.  It is also the one entry: no other module
runs as a script, so every process freezes the import-time heap.

Parallelism has one home: only ``field`` (its two runners) forks or
imports a module that starts threads or processes.
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


def _gc_calls(source: str) -> list[str]:
    """'gc.f' once for each gc function f that source calls; sorted."""
    modules, functions = set(), {}  # local names bound to gc / to gc.f
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "gc")
        elif isinstance(node, ast.ImportFrom) and node.module == "gc" and not node.level:
            functions.update({a.asname or a.name: a.name for a in node.names})
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id in modules:
                calls.append(f"gc.{func.attr}")
        elif isinstance(func, ast.Name) and func.id in functions:
            calls.append(f"gc.{functions[func.id]}")
    return sorted(set(calls))


def test_only_the_process_entry_calls_gc():
    calls = [
        f"{path.stem} -> {call}"
        for path in PACKAGE
        if path.stem != "__main__"
        for call in _gc_calls(path.read_text())
    ]
    assert calls == []
    assert _gc_calls((PACKAGE[0].parent / "__main__.py").read_text()) == [
        "gc.disable", "gc.enable", "gc.freeze",
    ]


def test_the_gc_guard_sees_every_form_of_a_call():
    source = """
import gc, os
import gc as collector
from gc import freeze, collect as sweep

def main():
    gc.disable()
    collector.enable()
    freeze()
    sweep(0)
    os.getpid(), gc.isenabled
"""
    assert _gc_calls(source) == ["gc.collect", "gc.disable", "gc.enable", "gc.freeze"]


_MAIN_TESTS = {"__name__ == '__main__'", "'__main__' == __name__"}


def _main_blocks(source: str) -> int:
    """The number of ``if __name__ == "__main__"`` blocks in source, with
    the comparison's sides in either order."""
    return sum(
        isinstance(node, ast.If) and ast.unparse(node.test) in _MAIN_TESTS
        for node in ast.walk(ast.parse(source))
    )


def test_only_the_process_entry_runs_as_a_script():
    blocks = {path.stem: _main_blocks(path.read_text()) for path in PACKAGE}
    assert {stem: n for stem, n in blocks.items() if n} == {"__main__": 1}


def test_the_main_guard_sees_either_order():
    assert _main_blocks("""
if __name__ == "__main__":
    main()
if '__main__' == __name__:
    main()
if __name__ == "qjulia":
    main()
""") == 2


_PARALLEL = ("concurrent.futures", "threading", "multiprocessing", "subprocess")


def _parallelism(source: str) -> list[str]:
    """Each of _PARALLEL that source imports (itself or a submodule), and
    'os.fork' if it uses os.fork; sorted."""
    imported, os_names = [], set()  # dotted names imported, local names bound to os
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
            os_names.update(a.asname or a.name for a in node.names if a.name == "os")
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported += [node.module, *(f"{node.module}.{a.name}" for a in node.names)]
    found = {
        module for module in _PARALLEL for name in imported
        if name == module or name.startswith(module + ".")
    }
    if "os.fork" in imported or any(
        isinstance(node, ast.Attribute) and node.attr == "fork"
        and isinstance(node.value, ast.Name) and node.value.id in os_names
        for node in ast.walk(tree)
    ):
        found.add("os.fork")
    return sorted(found)


def test_only_field_starts_threads_or_processes():
    found = [
        f"{path.stem} -> {name}"
        for path in PACKAGE
        if path.stem != "field"
        for name in _parallelism(path.read_text())
    ]
    assert found == []
    assert _parallelism((PACKAGE[0].parent / "field.py").read_text()) == [
        "concurrent.futures", "os.fork",
    ]


def test_the_parallelism_guard_sees_every_form_of_an_import():
    assert _parallelism("""
import os as system, threading
from concurrent import futures
import multiprocessing.pool
from subprocess import run
system.fork()
""") == ["concurrent.futures", "multiprocessing", "os.fork", "subprocess", "threading"]
    assert _parallelism("from os import fork as spawn\nspawn()") == ["os.fork"]
    assert _parallelism("import os, concurrent\nos.getpid(), os.forkpty") == []
