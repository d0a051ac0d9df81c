"""Every name ``wavecheck`` exports, and every field it stores, is read by the
package or the benchmark.

A read anywhere in a package module counts, the defining module included,
except inside the name's own definition; a dataclass field counts as read
when some attribute access outside its own class names it.  A name read only
by tests is a public surface nothing depends on: it goes, or it is listed
below with the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wavecheck"

#: Exported names kept although no module and no benchmark file reads them.
KEPT_FOR_TESTS = {
    "antisym_index": "the per-index oracle tests/fraction_reference.py builds on",
    "dalembert_zero_velocity": "the paper's analytic solution, a standalone oracle",
}


def exported_names() -> list:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def reads(tree: ast.Module) -> set:
    """``(name, top-level definition it is read in, or None)`` for every read in ``tree``."""
    found = set()
    for statement in tree.body:
        owner = getattr(statement, "name", None)
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                found.add((node.id, owner))
            elif isinstance(node, ast.Attribute):
                found.add((node.attr, owner))
    return found


MODULES = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
BENCH = sorted((ROOT / "bench").glob("*.py"))


def test_every_exported_name_has_a_reader_outside_the_tests():
    read = set().union(*(reads(ast.parse(p.read_text())) for p in MODULES + BENCH))
    unread = [name for name in exported_names()
              if not any(n == name and owner != name for n, owner in read)]
    assert sorted(unread) == sorted(KEPT_FOR_TESTS)


def dataclass_fields(tree: ast.Module):
    """``(class name, field name)`` of every field of a top-level ``@dataclass``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            for statement in node.body:
                if isinstance(statement, ast.AnnAssign):
                    yield node.name, statement.target.id


def attribute_loads(tree: ast.Module) -> set:
    """``(attribute, top-level definition it is read in)`` of every attribute read."""
    return {(node.attr, getattr(statement, "name", None))
            for statement in tree.body for node in ast.walk(statement)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_is_read_outside_its_class():
    package = [ast.parse(p.read_text()) for p in MODULES]
    bench = [ast.parse(p.read_text()) for p in BENCH]
    loads = set().union(*map(attribute_loads, package + bench))
    unread = [f"{cls}.{field}" for tree in package for cls, field in dataclass_fields(tree)
              if not any(attr == field and owner != cls for attr, owner in loads)]
    assert unread == []
