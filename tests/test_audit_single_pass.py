"""The audit from one coefficient pass per variant, against the per-order audit.

`run_audit` takes one coefficient pass per variant at its full order and
reads orders 0, 1, 2 and full from that one term matrix; a C variant's
off-center probe is one more point of the pass, and its literal/validated
ratio comes from the same coefficients in both constants modes.  This file
keeps the audit the library ran before as a reference: one solve per order,
one for the off-center probe and one per constants mode for the ratio.

The full order and the off-center probe are the same passes in both, so
their errors agree bit for bit.  Orders 0-2 and the ratios are truncations
of a pass at a higher order, whose quadrature refines over more components,
so they agree to a few units of rounding.
"""

import numpy as np
import pytest

from heatseries import experiments, series_cartesian, series_polar
from heatseries.experiments import (
    _AUDIT_FULL_ORDER,
    _AUDIT_SETUP,
    _AUDIT_TOL_EXACT,
    _AUDIT_TOL_FULL,
    _OFF_CENTER_PROBE,
    StudyConfig,
    _problem,
    expected_audit_statuses,
    run_audit,
)
from heatseries.profiles import Gaussian
from heatseries.specfun import KernelParams
from heatseries.series_cartesian import solve_grid_line
from heatseries.series_polar import solve_grid_polar
from heatseries.variants import CONSTANTS_MODES, LINE, VARIANTS

EPS = float(np.finfo(float).eps)


def per_order_audit(mode):
    """The audit as one solve per order: {variant: (errors by order,
    diverged by order, off-center error or None, status)} and the ratios."""
    out, ratios = {}, {}
    for variant, row in VARIANTS.items():
        tau, beta, probes, full_order = _AUDIT_SETUP[variant]
        probes = np.asarray(probes)
        data, truth = _problem(variant, Gaussian(width_a=1.0), tau)
        params = KernelParams(tau=tau, beta=beta)
        truth_vals = np.atleast_1d(truth(probes))
        scale = float(np.max(np.abs(truth_vals)))
        solve = solve_grid_line if row.geometry == LINE else solve_grid_polar
        errs, diverged, off_err = {}, {}, None
        for n in (0, 1, 2, full_order):
            series = solve(variant, data, params, n, probes, mode)
            errs[n] = float(np.max(np.abs(series.values(n) - truth_vals))) / scale
            diverged[n] = bool(np.any(series.flagged(n)))
        if row.pointwise:
            v_lit = solve(variant, data, params, 2, probes[:1], "paper_literal").values(2)
            v_ok = solve(variant, data, params, 2, probes[:1], "oracle_validated").values(2)
            ratios[variant] = float(v_lit[0] / v_ok[0])
            off = np.array([_OFF_CENTER_PROBE])
            off_vals = solve(variant, data, params, _AUDIT_FULL_ORDER, off, mode).values(_AUDIT_FULL_ORDER)
            off_err = float(abs(off_vals[0] - np.atleast_1d(truth(off))[0])) / scale
        if row.weighted:
            passed = errs[2] < 0.8 * errs[0] and errs[full_order] <= _AUDIT_TOL_FULL
        else:
            passed = all(errs[n] <= _AUDIT_TOL_EXACT for n in (0, 1, 2))
            if row.pointwise:
                passed = passed and off_err <= _AUDIT_TOL_FULL
        out[variant] = (errs, diverged, off_err, "pass" if passed else "fail")
    return out, ratios


def counted(table, monkeypatch):
    """Wrap every function of a dispatch dict; returns the call counter."""
    calls = []
    for key, fn in list(table.items()):
        monkeypatch.setitem(table, key, lambda *a, _fn=fn, _key=key, **k: calls.append(_key) or _fn(*a, **k))
    return calls


def counted_public(monkeypatch, suffix):
    """Wrap the public coefficient passes (suffix "coeffs") or evaluations
    ("eval") of both series modules, which their grid solves call by name;
    returns the call counter."""
    calls = []
    for module, prefixes in ((series_cartesian, ("cd", "ci")), (series_polar, ("pd", "pi"))):
        for name in (f"{prefix}_{suffix}" for prefix in prefixes):
            monkeypatch.setattr(module, name, lambda v, *a, _fn=getattr(module, name), **k:
                                calls.append(v) or _fn(v, *a, **k))
    return calls


@pytest.mark.parametrize("mode", CONSTANTS_MODES)
def test_single_pass_audit_matches_the_per_order_audit(monkeypatch, mode):
    config = StudyConfig(study_kind="audit", constants_mode=mode)
    reference, ref_ratios = per_order_audit(mode)
    coeff_calls = counted_public(monkeypatch, "coeffs")
    eval_calls = counted_public(monkeypatch, "eval")
    oracle_calls = counted(experiments._ORACLE, monkeypatch)
    passes = {}

    def keeping(solve):
        def solving(variant, *args, **kwargs):  # the term matrix of a variant's one pass
            series = solve(variant, *args, **kwargs)
            assert variant not in passes
            passes[variant] = series
            return series

        return solving

    for geometry, solve in list(experiments._SOLVE.items()):
        monkeypatch.setitem(experiments._SOLVE, geometry, keeping(solve))
    report = run_audit(config)
    assert sorted(coeff_calls) == sorted(eval_calls) == sorted(VARIANTS) and len(oracle_calls) == 8
    assert set(passes) == set(VARIANTS)

    for row in report.rows:
        errs, diverged, _, status = reference[row.variant]
        assert row.status == status
        assert row.diverged == diverged[row.n]
        assert row.error_l2 == row.error_max
        if row.n == _AUDIT_SETUP[row.variant][3]:
            assert row.error_max == errs[row.n]
        else:
            assert abs(row.error_max - errs[row.n]) <= 4 * EPS
    statuses = {row.variant: row.status for row in report.rows}
    assert statuses == {variant: entry[3] for variant, entry in reference.items()} == expected_audit_statuses(mode)

    ratios = report.metadata["literal_value_ratios"]
    assert set(ratios) == set(ref_ratios) == {v for v, row in VARIANTS.items() if row.pointwise}
    for variant, ratio in ratios.items():
        assert abs(ratio - ref_ratios[variant]) <= 4 * EPS * abs(ref_ratios[variant])
        # the off-center probe is the last point of the variant's one pass
        tau, _, probes, full_order = _AUDIT_SETUP[variant]
        _, truth = _problem(variant, Gaussian(width_a=1.0), tau)
        scale = float(np.max(np.abs(np.atleast_1d(truth(np.asarray(probes))))))
        off_val = passes[variant].values(full_order)[-1]
        off_err = float(abs(off_val - np.atleast_1d(truth(np.array([_OFF_CENTER_PROBE])))[0])) / scale
        assert off_err == reference[variant][2]
