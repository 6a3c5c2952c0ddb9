"""perfbench's tracer sees every layer of a solve.

The stock `perfbench/tracing.py` is loaded from its directory, unchanged,
and installed against this package.  It wraps the public names of each
module; a grid solve, a sweep and the audit reach the coefficient passes and
the evaluators through those names, so a traced command records a solve
span with its coefficient and evaluation spans inside, and every solve takes
one coefficient pass.  A refactor that moves the work off a traced name
makes this test fail.
"""

import importlib.util
import sys
from pathlib import Path

import heatseries
import heatseries.cli as cli
from heatseries.profiles import Sampled1D

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
STUDY = "[study]\nkind = convergence\ngeometry = polar\ntau = 0.5\n\n[sweep]\norders = 0:4:2\n"
COMMANDS = {
    "line A/B forward": (
        ["forward", "--variant", "CD-A", "--tau", "0.5", "--beta", "1", "--order", "10",
         "--profile", "gaussian:a=1", "--eval-grid", "-2:2:5"],
        ("series_cartesian",),
    ),
    "polar C inverse": (
        ["inverse", "--geometry", "polar", "--variant", "PI-C", "--tau", "0.3", "--beta", "1", "--order", "10",
         "--profile", "gaussian:a=1.3", "--eval-grid", "0:2:5"],
        ("series_polar",),
    ),
    "study": (["study", "--config", "study.cfg"], ("series_polar",)),
    "validate": (["validate"], ("series_cartesian", "series_polar")),
}
CLASSICAL = ["inverse", "--variant", "CI-classical", "--tau", "0.3", "--order", "10",
             "--profile", "gaussian:a=1.3", "--eval-grid", "-2:2:5"]


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    """Every object a heatseries module binds by name, and every value of a
    dict it binds, with Sampled1D.__call__: what the tracer may replace."""
    out = {("Sampled1D", "__call__"): Sampled1D.__call__}
    for name, module in sys.modules.items():
        if name != "heatseries" and not name.startswith("heatseries."):
            continue
        for key, val in vars(module).items():
            out[name, key] = val
            if isinstance(val, dict):
                for dkey, dval in val.items():
                    out[name, key, dkey] = dval
    return out


def test_stock_tracer_records_every_series_layer(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "study.cfg").write_text(STUDY)
    before = bindings()
    assert heatseries.cd_eval is before["heatseries", "cd_eval"]
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert heatseries.cd_eval is not before["heatseries", "cd_eval"]
        spans = {}
        for label, (argv, modules) in COMMANDS.items():
            start = len(tracer.names)
            assert cli.main(argv) == 0, (label, capsys.readouterr().err)
            spans[label] = (set(tracer.names[start:]), modules)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for label, (names, modules) in spans.items():
        for module in modules:
            for layer in ("solve", "coeffs", "eval"):
                assert f"{module}.{layer}" in names, (label, sorted(names))
    metrics = tracer.metrics(len(COMMANDS))
    for module in ("series_cartesian", "series_polar"):
        assert metrics[f"{module}.eval_points"] > 0
        assert metrics[f"{module}.passes_per_solve"] == 1.0
    after = bindings()
    moved = [key for key, val in before.items() if after.get(key) is not val]
    assert not moved, moved


def test_stock_tracer_records_the_classical_solve_and_its_evaluation(capsys):
    # CI-classical takes the data's derivatives, no moments: its one solve
    # span holds its evaluation span and no coefficient pass
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(CLASSICAL) == 0, capsys.readouterr().err
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names, parents = tracer.names, tracer.parents
    solves = [i for i, name in enumerate(names) if name == "series_cartesian.classical"]
    evals = [i for i, name in enumerate(names) if name == "series_cartesian.eval"]
    assert len(solves) == 1 and len(evals) == 1 and parents[evals[0]] == solves[0]
    assert "series_cartesian.coeffs" not in names and "series_cartesian.solve" not in names


A_B_COMMANDS = {
    "series_cartesian": (COMMANDS["line A/B forward"][0], "specfun.hermite"),
    "series_polar": (
        ["forward", "--geometry", "polar", "--variant", "PD-A", "--tau", "0.5", "--beta", "1", "--order", "10",
         "--profile", "gaussian:a=1", "--eval-grid", "0:2:5"],
        "specfun.w_poly",
    ),
}


def test_the_basis_batch_of_an_a_b_sum_is_traced_inside_its_evaluation(capsys):
    # each series module's geometry record calls its basis batch through the
    # module global, where the tracer has rebound it; a record that held the
    # batch itself would evaluate untraced and lose this span without an error
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        starts = {}
        for module, (argv, _) in A_B_COMMANDS.items():
            starts[module] = len(tracer.names)
            assert cli.main(argv) == 0, capsys.readouterr().err
        ends = dict(zip(starts, list(starts.values())[1:] + [len(tracer.names)]))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names, parents = tracer.names, tracer.parents
    for module, (_, batch) in A_B_COMMANDS.items():
        spans = range(starts[module], ends[module])
        evals = [i for i in spans if names[i] == f"{module}.eval"]
        assert len(evals) == 1
        assert any(names[i] == batch and parents[i] == evals[0] for i in spans), [names[i] for i in spans]
