"""Every top-level function and class of the package has a caller in it,
and every name a module imports is used in that module.

Code that only the tests call belongs with the tests (tests/references.py).
The package's sources are parsed with ast; a top-level function or class
that no other code of the package names fails the test.  A definition's
references to itself (recursion) and the re-exports of __init__ do not
count.  A name a module imports and never names (listing it in `__all__`
is no use: that only re-exports it) fails as well; __init__, whose imports
are the package's re-exports, is exempt.

No module but profiles.py passes a data class (Gaussian, Mixture, Bump,
Sampled1D) to isinstance: each data kind answers for its own facts
(`profiles.data_fact`).  Nor does any other module call the quadrature
engine or the data's support, or ask the data for its breakpoints: the
window, the breakpoints and the engine are one step
(`profiles.data_integral`), the engine's one caller.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "heatseries"
# perfbench's stock tracer (perfbench/tracing.py) looks these up by name in
# heatseries.specfun to time the Bessel layer; they keep that module and name
# while its target list holds them
TRACED_ONLY = ("bessel_i0", "bessel_j0")


def names_in(node) -> list:
    return [
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    ]


def unreferenced() -> list:
    """(module, name) of every top-level definition no other package code names."""
    defs, uses = [], Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        defs += [(path.name, node.name) for node in top]
        if path.name == "__init__.py":
            continue
        uses.update(names_in(tree))
        for node in top:
            uses[node.name] -= names_in(node).count(node.name)
    return [(module, name) for module, name in defs if uses[name] <= 0 and name not in TRACED_ONLY]


def unused_imports() -> list:
    """(module, name) of every name a module other than __init__ imports
    and never names."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = set(names_in(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        out.append((path.name, name))
    return out


def test_every_top_level_definition_has_a_caller_in_the_package():
    assert unreferenced() == []


def test_every_imported_name_is_used_where_it_is_imported():
    assert unused_imports() == []


def test_the_exempt_names_are_the_tracers():
    tracer = (ROOT / "perfbench" / "tracing.py").read_text()
    for name in TRACED_ONLY:
        assert f'("specfun", "{name}"' in tracer


DATA_CLASSES = {"Gaussian", "Mixture", "Bump", "Sampled1D"}
DATA_KIND_TESTS_ALLOWED = Counter()


def data_kind_tests() -> Counter:
    """(module, class) of every isinstance call on a data class outside
    profiles.py, counted."""
    out = Counter()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "profiles.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
                out.update((path.name, name) for name in names_in(node.args[1]) if name in DATA_CLASSES)
    return out


def test_only_profiles_tells_the_data_kinds_apart():
    # each data kind answers for its own facts (profiles.data_fact); the
    # other modules ask it rather than test its class
    assert data_kind_tests() == DATA_KIND_TESTS_ALLOWED


# the geometry-free part of a series solve lives in variants (`coeffs`,
# `evaluate`, `solve_grid`): a series module keeps its geometry's facts and
# neither picks a table row's scales nor builds a term matrix itself
SHARED_SOLVE = {"lookup", "check_mode", "series_terms", "pointwise_terms", "ratio_weighted"}
ROW_FACTS = {"times", "kappa", "moment_root"}


def shared_solve_calls() -> list:
    """(module, name) of every call a series module makes to the shared
    solve's own steps or to a table row's times, constants or moment root."""
    out = []
    for name in ("series_cartesian.py", "series_polar.py"):
        for node in ast.walk(ast.parse((SRC / name).read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if called in SHARED_SOLVE or (isinstance(func, ast.Attribute) and called in ROW_FACTS):
                out.append((name, called))
    return out


def test_series_modules_leave_the_solve_to_variants():
    assert shared_solve_calls() == []


# the oracles and the moment passes take the adaptive quadrature through
# `profiles.data_integral` alone
QUADRATURE_STEPS = {"integrate_vec", "profile_support"}


def quadrature_steps() -> list:
    """(module, top-level definition, name) of every call of the engine or
    of the data's support, and of every "breakpoints" the package asks for,
    sorted; a module-level statement counts as the definition "<module>"."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if called in QUADRATURE_STEPS:
                        out.append((path.name, where, called))
                elif isinstance(node, ast.Constant) and node.value == "breakpoints":
                    out.append((path.name, where, "breakpoints"))
    return sorted(out)


def test_only_data_integral_calls_the_engine():
    steps = quadrature_steps()
    assert [step for step in steps if step[2] == "integrate_vec"] == [("profiles.py", "data_integral", "integrate_vec")]
    assert {module for module, _, _ in steps} == {"profiles.py"}
