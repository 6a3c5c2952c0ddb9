"""Each output check accepts today's output and rejects a known-wrong one.

    python3 -m pytest perfbench -q

Known-wrong outputs: for the C variants, the same command run with
`--constants-mode paper_literal` (the published constants of ERRATA.md);
for every other command, today's output with one number or flag changed.
"""

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from heatseries import cli  # noqa: E402

ROOT = os.path.dirname(HERE)


def _run(command, argv=None) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv or command.concrete_argv(7)))
    assert code == 0, command.name
    if command.output and argv is None:
        with open(command.output) as handle:
            return handle.read()
    return out.getvalue()


def _render(meta, header, rows) -> str:
    lines = [f"# {k} = {v}" for k, v in meta.items()] + [",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _edit(text, fn) -> str:
    meta, header, rows = checks.parse_output(text)
    rows = [list(row) for row in rows]
    fn(meta, header, rows)
    return _render(meta, header, rows)


def _rejects(check, text) -> None:
    with pytest.raises(checks.CheckError):
        check(text)


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    out = {}
    for name in workloads.NAMES:
        workdir = str(tmp_path_factory.mktemp(name))
        workload = workloads.build(name, workdir, ROOT)
        workload.write_inputs()
        out[name] = workload
    return out


def _field_commands(workload):
    return [c for c in workload.commands if c.check.func is checks.check_field]


@pytest.mark.parametrize("name", ["solve_ab", "solve_c"])
def test_field_checks(built, name):
    for command in _field_commands(built[name]):
        text = _run(command)
        command.check(text)
        variant = command.argv[command.argv.index("--variant") + 1]
        if variant.endswith("-C"):
            literal = list(command.argv) + ["--constants-mode", "paper_literal"]
            _rejects(command.check, _run(command, literal))
            continue
        tol = command.check.keywords["tol"]
        scale = max(abs(v) for v in command.check.keywords["ref"])

        def shift(meta, header, rows):
            row, col = rows[len(rows) // 2], header.index("value")
            row[col] = repr(float(row[col]) + 20.0 * tol * float(scale))

        _rejects(command.check, _edit(text, shift))
        if command.check.keywords["flags_clear"]:

            def flag(meta, header, rows):
                rows[0][header.index("diverged")] = "1"

            _rejects(command.check, _edit(text, flag))


def test_every_variant_is_exercised(built):
    variants = {c.argv[c.argv.index("--variant") + 1] for c in _field_commands(built["solve_c"])}
    assert variants == {"CD-C", "CI-C", "PD-C", "PI-C"}
    names = {c.name for c in built["solve_ab"].commands}
    variants = {c.argv[c.argv.index("--variant") + 1] for c in _field_commands(built["solve_ab"])}
    assert {"CD-A", "CD-B", "CI-A", "CI-B", "PD-A", "PD-B", "PI-A", "PI-B", "CI-classical", "oracle"} <= variants
    assert "ci-classical-noise" in names


def _study(built, name):
    (command,) = [c for c in built["studies"].commands if c.name == name]
    return command, _run(command)


def test_validate_checks(built):
    command, text = _study(built, "validate-paper_literal")
    command.check(text)

    def ratio(meta, header, rows):
        ratios = json.loads(meta["literal_value_ratios"])
        ratios["PD-C"] *= 1.0 + 1e-6
        meta["literal_value_ratios"] = json.dumps(ratios)

    _rejects(command.check, _edit(text, ratio))
    command, text = _study(built, "validate-oracle_validated")
    command.check(text)

    def status(meta, header, rows):
        rows[0][header.index("status")] = "fail"

    _rejects(command.check, _edit(text, status))
    # the literal table is not the validated one
    _rejects(command.check, _study(built, "validate-paper_literal")[1])


@pytest.mark.parametrize("name", ["beta-map-line", "beta-map-polar"])
def test_beta_map_checks(built, name):
    command, text = _study(built, name)
    command.check(text)
    for beta in ("0.40000000000000002", "3.2000000000000002"):

        def flip(meta, header, rows, beta=beta):
            row = [r for r in rows if r[header.index("beta")] == beta][0]
            col = header.index("diverged")
            row[col] = "0" if row[col] == "1" else "1"

        _rejects(command.check, _edit(text, flip))


@pytest.mark.parametrize("name", ["noise-line", "noise-polar", "classical-compare"])
def test_noise_checks(built, name):
    command, text = _study(built, name)
    command.check(text)

    def flat(meta, header, rows):
        summary = json.loads(meta["semi_convergence"])
        for key in summary:
            if not key.startswith("CI-classical") and not key.endswith("=0"):
                summary[key]["u_shape"] = False
        meta["semi_convergence"] = json.dumps(summary)

    _rejects(command.check, _edit(text, flat))
    if name == "classical-compare":

        def beaten(meta, header, rows):
            summary = json.loads(meta["semi_convergence"])
            summary["CI-A@delta=0.001"]["err_at_n_star"] = 1e3
            meta["semi_convergence"] = json.dumps(summary)

        _rejects(command.check, _edit(text, beaten))


@pytest.mark.parametrize("name", ["convergence-line", "convergence-polar"])
def test_convergence_checks(built, name):
    command, text = _study(built, name)
    command.check(text)

    def stalled(meta, header, rows):
        row = [r for r in rows if r[header.index("N")] == "40"][-1]
        row[header.index("error_max")] = "1e-06"

    _rejects(command.check, _edit(text, stalled))
