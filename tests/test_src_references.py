"""Every top-level function and class of the package has a caller in it.

Code that only the tests call belongs with the tests (tests/references.py).
The package's sources are parsed with ast; a top-level function or class
that no other code of the package names fails the test.  A definition's
references to itself (recursion) and the re-exports of __init__ do not
count.
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


def test_every_top_level_definition_has_a_caller_in_the_package():
    assert unreferenced() == []


def test_the_exempt_names_are_the_tracers():
    tracer = (ROOT / "perfbench" / "tracing.py").read_text()
    for name in TRACED_ONLY:
        assert f'("specfun", "{name}"' in tracer
