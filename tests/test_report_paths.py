"""Report paths the other tests do not reach: a validate mismatch, the
divergence warning of an inverse header, study rows with error statuses, and
a quadrature that does not converge (exit 3)."""

from dataclasses import replace

import numpy as np
import pytest

from heatseries import cli, experiments, series_polar
from heatseries.cli import main
from heatseries.experiments import StudyConfig, run_beta_map, run_convergence

from references import quad_settings

STATUS = 7  # the status column of a study row


def study_rows(text):
    """The data rows of a CSV study report, split on commas."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    assert lines[0] == "variant,N,beta,delta,error_l2,error_max,diverged,status,runtime_ms"
    return [line.split(",") for line in lines[1:]]


def test_validate_mismatch_exits_1_and_names_every_mismatch(monkeypatch, capsys):
    documented = cli.expected_audit_statuses
    monkeypatch.setattr(cli, "expected_audit_statuses",
                        lambda mode: {**documented(mode), "CD-A": "fail", "PI-C": "fail"})
    assert main(["validate"]) == 1
    out, err = capsys.readouterr()
    assert err == "validate: audit table mismatch (CD-A: got pass, expected fail, PI-C: got pass, expected fail)\n"
    rows = [line.split(",") for line in out.splitlines() if line.startswith(("CD-A,", "PI-C,", "CD-B,"))]
    assert len(rows) == 12
    for row in rows:  # the table still prints, with the expectation it was held to
        assert row[4] == "pass" and row[5] == ("pass" if row[0] == "CD-B" else "fail")


WARNING = "# warning = divergence flagged at some evaluation points"


@pytest.mark.parametrize("mode, warned", [("paper_literal", True), ("oracle_validated", False)])
def test_inverse_header_warns_when_a_point_is_flagged(capsys, mode, warned):
    argv = ["inverse", "--geometry", "polar", "--variant", "PI-C", "--tau", "0.3", "--eval-grid", "0:2:5",
            "--beta", "1.3", "--order", "40", "--profile", "gaussian:a=1.3,center=0.0,amp=0.7692307692307692",
            "--constants-mode", mode]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines.index("r,value,diverged")
    flags = [row.split(",")[2] for row in lines[header + 1:]]
    assert ("1" in flags) == warned
    assert (WARNING in lines[:header]) == warned
    if warned:  # the last header line, after the echo of the command
        assert lines[header - 1] == WARNING


def counted_sweeps(monkeypatch):
    calls = []
    sweep = experiments._sweep_orders
    monkeypatch.setattr(experiments, "_sweep_orders", lambda variant, *a, **k: calls.append(variant) or sweep(
        variant, *a, **k))
    return calls


def test_beta_map_rows_are_sweeps_and_a_failed_shift_reads_its_error(monkeypatch):
    # PI-B needs beta > tau: the shift 0.2 < 0.3 is a row with its error, not
    # a failed study; every row is one order sweep at the last listed order,
    # and the failed shift fails before its coefficient pass and evaluation
    sweeps = counted_sweeps(monkeypatch)
    evaluations = []
    evaluate = series_polar.pi_eval
    monkeypatch.setattr(series_polar, "pi_eval", lambda v, *a, **k: evaluations.append(v) or evaluate(v, *a, **k))
    config = StudyConfig(study_kind="beta_map", geometry="polar", tau=0.3, variants=("PI-B", "PI-C"),
                         n_range=(4, 12), beta_range=(0.2, 0.9))
    report = run_beta_map(config)
    assert sweeps == ["PI-B", "PI-B", "PI-C", "PI-C"]
    assert evaluations == ["PI-B", "PI-C", "PI-C"]
    got = [(r.variant, r.n, r.beta, r.status, r.diverged) for r in report.rows]
    assert got == [("PI-B", 12, 0.2, "error:ValueError", True), ("PI-B", 12, 0.9, "ok", False),
                   ("PI-C", 12, 0.2, "ok", True), ("PI-C", 12, 0.9, "ok", False)]
    failed = report.rows[0]
    assert np.isnan(failed.error_l2) and np.isnan(failed.error_max)


def test_beta_map_config_reports_the_failed_shift(tmp_path, capsys):
    cfg = tmp_path / "beta_map_pi_b.cfg"
    cfg.write_text("[study]\nkind = beta_map\ngeometry = polar\ntau = 0.3\nvariants = PI-B, PI-C\n\n"
                   "[sweep]\norders = 12\nbetas = 0.2, 0.9\n")
    assert main(["study", "--config", str(cfg)]) == 0
    rows = study_rows(capsys.readouterr().out)
    assert [row[STATUS] for row in rows] == ["error:ValueError", "ok", "ok", "ok"]
    assert rows[0][4:7] == ["nan", "nan", "1"]


def test_an_overflowing_order_fails_alone_and_the_orders_below_it_build(monkeypatch):
    # the passes at 400 overflow: CD-B's H_400 at the grid's end, and CD-C's
    # exact moments (test_variants.test_cd_c_overflows_where_its_exact_moments_do);
    # each order below them reads the row of the same study over only the
    # orders that build
    sweeps = counted_sweeps(monkeypatch)
    config = StudyConfig(study_kind="convergence", tau=0.5, variants=("CD-B", "CD-C"), n_range=(0, 10, 200, 400))
    report = run_convergence(config)
    assert sweeps == ["CD-B", "CD-C"]
    assert [(r.variant, r.n) for r in report.rows] == [(v, n) for v in ("CD-B", "CD-C") for n in (0, 10, 200, 400)]
    builds = {"CD-B": (0, 10, 200), "CD-C": (0, 10, 200)}
    for row in report.rows:
        if row.n not in builds[row.variant]:
            assert row.status == "error:OverflowError" and row.diverged
            assert np.isnan(row.error_l2) and np.isnan(row.error_max)
    for variant, orders in builds.items():
        alone = run_convergence(replace(config, variants=(variant,), n_range=orders)).rows
        got = [row for row in report.rows if row.variant == variant and row.n in orders]
        assert [row.status for row in got] == ["ok"] * len(orders)
        assert [replace(row, runtime_ms=0.0) for row in got] == [replace(row, runtime_ms=0.0) for row in alone]


def test_oracle_that_does_not_converge_exits_3(capsys):
    argv = ["forward", "--variant", "oracle", "--tau", "0.5", "--profile", "gaussian:a=1", "--eval-grid", "-1:1:3"]
    with quad_settings(REL_TOL=1e-300, ABS_TOL=0.0, MAX_PANELS=4):
        assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("heatseries forward: forward oracle: quadrature did not converge: ")


def test_study_whose_quadrature_does_not_converge_exits_3(tmp_path, capsys):
    cfg = tmp_path / "convergence.cfg"
    cfg.write_text("[study]\nkind = convergence\ntau = 0.5\nvariants = CD-A\n\n[sweep]\norders = 0, 4\n")
    with quad_settings(REL_TOL=1e-300, ABS_TOL=0.0, MAX_PANELS=4):
        assert main(["study", "--config", str(cfg)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("heatseries study: study failed numerically: ")
