"""Every name ``wavecheck`` exports, and every field it stores, is read by the
package or the benchmark, and every parameter default is overridden there.

A read anywhere in a package module counts, the defining module included,
except inside the name's own definition; a dataclass field counts as read
when some attribute access outside its own class names it.  A parameter
with a default counts as set when some call of a function by that name
passes it, by keyword or by position.  A name read or a parameter set only
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

#: Parameters with a default that no call in a module or a benchmark file sets.
KEPT_DEFAULTS = {
    "dalembert_zero_velocity.p1": "it refuses a nonzero second datum",
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


def defaulted_parameters(tree: ast.Module):
    """``(function, parameter, position)`` of every parameter with a default.

    The position is the number of positional arguments a call must pass to
    reach it (a method's ``self`` not counted), and None for a keyword-only one.
    """
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    for f in ast.walk(tree):
        if isinstance(f, ast.FunctionDef):
            positional = f.args.posonlyargs + f.args.args
            first = len(positional) - len(f.args.defaults)
            skip = 1 if id(f) in methods else 0
            for pos, arg in enumerate(positional[first:], first - skip):
                yield f.name, arg.arg, pos
            for arg, default in zip(f.args.kwonlyargs, f.args.kw_defaults):
                if default is not None:
                    yield f.name, arg.arg, None


def call_sites(tree: ast.Module):
    """``(callee name, positional argument count, keyword names)`` of every call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            yield name, len(node.args), {k.arg for k in node.keywords}


def test_every_defaulted_parameter_is_set_outside_the_tests():
    sites = [site for p in MODULES + BENCH for site in call_sites(ast.parse(p.read_text()))]
    unset = [f"{name}.{param}" for p in MODULES
             for name, param, pos in defaulted_parameters(ast.parse(p.read_text()))
             if not any(callee == name and (param in keys or pos is not None and count > pos)
                        for callee, count, keys in sites)]
    assert sorted(unset) == sorted(KEPT_DEFAULTS)
