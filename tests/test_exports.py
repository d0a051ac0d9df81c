"""Every name ``wavecheck`` exports, and every field it stores, is read by the
package or the benchmark, and every parameter default is both overridden and
relied on there.

A read anywhere in a package module counts, the defining module included,
except inside the name's own definition; a dataclass field counts as read
when some attribute access outside its own class names it.  A parameter
with a default counts as set when some call of a function by that name
passes it, by keyword or by position, and as omitted when some call passes
neither.  A name read or a parameter set only by tests is a public surface
nothing depends on, and a default that every call overrides is a choice no
caller makes: it goes, or it is listed below with the reason it stays.  A
top-level function or class of a package module needs a reader the same way,
exported or not, and has no such list: one that only tests read moves to
``tests/``.

Both guards match by bare name, so they cannot tell a field or a function
from another of the same name: the read of ``WaveProblem.c`` in
``scheme.solve`` would count for ``ErrorConstants.c`` too, so that field is
listed with ``analysis.bound_along_cn``, which reads it.  Every field whose
name two dataclasses share, and every default of a function whose name
another function shares, is therefore listed with the one function that
reads or sets it.

Every name a module under ``src/`` or ``tests/`` imports must be read in it.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wavecheck"

#: Exported names kept although no module and no benchmark file reads them.
KEPT_FOR_TESTS = {}

#: Parameters with a default that no call in a module or a benchmark file sets.
KEPT_DEFAULTS = {}

#: Parameters with a default that every call in a module or a benchmark file sets.
ALWAYS_SET_DEFAULTS = {}

#: ``Class.field`` of each field whose name another dataclass also has, and
#: a function (``module.name``) or method (``module.Class.name``) that reads it.
SHARED_FIELD_READERS = {
    "SchemeRun.xi": "energy.check_energy_estimate",
    "ErrorConstants.xi": "analysis.optimal_dt",
    "WaveProblem.c": "scheme.solve",
    "ErrorConstants.c": "analysis.bound_along_cn",
}

#: ``module.function.parameter`` of each default of a function whose name
#: another function in a module or a benchmark file also has, and a function
#: that sets it.
SHARED_NAME_SETTERS = {
    "cli.main.argv": "workloads.catalog_run",
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
SOURCES = {p.stem: p for p in MODULES + BENCH}


def definition(path: str) -> ast.AST:
    """The top-level function ``module.name`` or the method ``module.Class.name``."""
    module, *names = path.split(".")
    node = ast.parse(SOURCES[module].read_text())
    for name in names:
        node = next(n for n in node.body if getattr(n, "name", None) == name)
    return node


def unread(names) -> list:
    """The ``names`` that no module and no benchmark file reads outside their own definition."""
    read = set().union(*(reads(ast.parse(p.read_text())) for p in MODULES + BENCH))
    return [name for name in names if not any(n == name and owner != name for n, owner in read)]


def test_every_exported_name_has_a_reader_outside_the_tests():
    assert sorted(unread(exported_names())) == sorted(KEPT_FOR_TESTS)


def test_every_top_level_function_and_class_has_a_reader_outside_the_tests():
    # A function or class only tests read belongs with them, in tests/.
    defined = [node.name for p in MODULES for node in ast.parse(p.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert unread(defined) == []


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


def test_every_shared_field_name_has_a_listed_reader():
    fields = [pair for p in MODULES for pair in dataclass_fields(ast.parse(p.read_text()))]
    owners = Counter(field for _, field in fields)
    shared = [f"{cls}.{field}" for cls, field in fields if owners[field] > 1]
    assert sorted(SHARED_FIELD_READERS) == sorted(shared)
    unread = [key for key, reader in SHARED_FIELD_READERS.items()
              if not any(isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                         and n.attr == key.split(".")[1] for n in ast.walk(definition(reader)))]
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


def sets(sites, name: str, param: str, pos) -> bool:
    """Whether one of the ``call_sites`` calls ``name`` with ``param`` passed."""
    return any(callee == name and (param in keys or pos is not None and count > pos)
               for callee, count, keys in sites)


def test_every_defaulted_parameter_is_set_outside_the_tests():
    sites = [site for p in MODULES + BENCH for site in call_sites(ast.parse(p.read_text()))]
    unset = [f"{name}.{param}" for p in MODULES
             for name, param, pos in defaulted_parameters(ast.parse(p.read_text()))
             if not sets(sites, name, param, pos)]
    assert sorted(unset) == sorted(KEPT_DEFAULTS)


def test_every_defaulted_parameter_is_omitted_outside_the_tests():
    sites = [site for p in MODULES + BENCH for site in call_sites(ast.parse(p.read_text()))]
    always_set = [f"{name}.{param}" for p in MODULES
                  for name, param, pos in defaulted_parameters(ast.parse(p.read_text()))
                  if not any(callee == name and param not in keys
                             and (pos is None or count <= pos)
                             for callee, count, keys in sites)]
    assert sorted(always_set) == sorted(ALWAYS_SET_DEFAULTS)


def test_every_shared_function_name_default_has_a_listed_setter():
    defined = Counter(f.name for p in MODULES + BENCH for f in ast.walk(ast.parse(p.read_text()))
                      if isinstance(f, ast.FunctionDef))
    shared = {f"{p.stem}.{name}.{param}": (name, param, pos) for p in MODULES
              for name, param, pos in defaulted_parameters(ast.parse(p.read_text()))
              if defined[name] > 1}
    assert sorted(SHARED_NAME_SETTERS) == sorted(shared)
    unset = [key for key, setter in SHARED_NAME_SETTERS.items()
             if not sets(call_sites(definition(setter)), *shared[key])]
    assert unset == []


def imported_names(tree: ast.Module):
    """Every name an import in ``tree`` binds, ``from __future__`` ones aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def test_every_imported_name_is_read_in_its_module():
    # A package __init__.py imports to re-export, so it is left out.
    paths = [p for p in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
             if p.name != "__init__.py"]
    unread = []
    for p in paths:
        tree = ast.parse(p.read_text())
        loaded = {n.id for n in ast.walk(tree)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{p.relative_to(ROOT)}: {name}" for name in imported_names(tree)
                   if name not in loaded]
    assert unread == []
