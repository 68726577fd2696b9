"""The package ships what it runs.

Every public function, class and constant at the top level of a
``src/qjulia`` module must be read by code (a name or an attribute, not
a docstring) in the package, in ``perfbench/`` or in the acceptance
gate, or stand on KEEP with the reason it stays.  A helper that only
other tests call belongs in no public module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "qjulia").glob("*.py"))
USERS = [*PACKAGE, *sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]

# public names that nothing in USERS reads, each with the reason it stays;
# a bare module name keeps the whole module
KEEP = {
    "dynamics.eval_poly": "the Quaternion edge of the one Horner",
    "dynamics.eval_map": "the Quaternion edge of the one Horner and division",
    "quat": "the algebra acceptance criterion 1 checks",
    "field.load_raw": "the reader of the QJF1 format that render --dump-field writes",
    "config.serialize_config": "the writing half of the job format's round-trip",
}


def _public(path: Path) -> list[str]:
    """The public names a module defines at its top level."""
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if not name.startswith("_")]


def _read(path: Path) -> set[str]:
    """Every name a file's code reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _unread() -> dict[str, list[str]]:
    """Per module, the public names that nothing in USERS reads."""
    read = set().union(*map(_read, USERS))
    return {path.stem: [n for n in _public(path) if n not in read] for path in PACKAGE}


def test_every_public_name_is_read_or_kept():
    unread = [
        f"{module}.{name}"
        for module, names in _unread().items()
        for name in names
        if module not in KEEP and f"{module}.{name}" not in KEEP
    ]
    assert unread == []


def test_every_keep_entry_still_keeps_something():
    unread = _unread()
    for entry in KEEP:
        module, _, name = entry.partition(".")
        assert (name in unread[module]) if name else unread[module], entry
