"""Each `sncgeom` module uses only the public names of the others.

A module that reads `other._name` re-checks or re-derives what `other`
owns; the owner's own checks are the one place a contract lives.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sncgeom"
MODULES = {p.stem for p in SRC.glob("*.py")} - {"__init__"}


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def private_reads(path):
    """`module.name` for every private name of a sibling module that the
    source at path imports or reads as an attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    siblings, out = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None and alias.name in MODULES:
                    siblings[alias.asname or alias.name] = alias.name
                elif node.module in MODULES and _private(alias.name):
                    out.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings):
            out.append(f"{siblings[node.value.id]}.{node.attr}")
    return out


def test_no_module_reads_a_private_of_another():
    reads = {p.name: private_reads(p) for p in sorted(SRC.glob("*.py"))}
    assert {name: r for name, r in reads.items() if r} == {}


def test_private_reads_sees_attributes_and_imports(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from . import picard as pc, lattice\n"
                   "from .poly import _wrap, MultiPoly\n"
                   "x = pc._degree(1, 2) + lattice.rank([]) + pc.__name__\n")
    assert private_reads(src) == ["poly._wrap", "picard._degree"]
