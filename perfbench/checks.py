"""Output checks: each one reads what a command printed and compares it with
facts computed apart from the program (closed forms, ERRATA constants, the
CD-B convergence condition).  A check raises CheckError or returns None.
"""

from __future__ import annotations

import json
import math

import numpy as np


class CheckError(Exception):
    pass


def parse_output(text: str):
    """(metadata, header, rows) of a CSV or JSON report; rows hold strings."""
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        rows = payload["rows"]
        header = list(rows[0]) if rows else []
        return payload["metadata"], header, [[row[k] for k in header] for row in rows]
    meta, lines = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition(" = ")
            meta[key] = val
        elif line:
            lines.append(line.split(","))
    if not lines:
        raise CheckError("no header row in the output")
    return meta, lines[0], lines[1:]


def _column(header, rows, name, cast=float):
    if name not in header:
        raise CheckError(f"no column {name!r} in {header}")
    i = header.index(name)
    return [cast(row[i]) for row in rows]


def _flag(value) -> bool:
    return value is True or value in ("1", 1)


def check_field(text: str, xs: np.ndarray, ref: np.ndarray, tol: float, flags_clear: bool):
    """Values on the grid within tol of the reference, relative to max|ref|.

    flags_clear also requires every `diverged` flag to be 0, for commands
    whose series provably converges.
    """
    _, header, rows = parse_output(text)
    if len(rows) != xs.size:
        raise CheckError(f"{len(rows)} rows for a {xs.size}-point grid")
    axis = np.array(_column(header, rows, "x" if "x" in header else "r"), dtype=float)
    if np.max(np.abs(axis - xs)) > 1e-12 * (1.0 + np.max(np.abs(xs))):
        raise CheckError("evaluation points differ from the requested grid")
    values = np.array(_column(header, rows, "value"), dtype=float)
    err = float(np.max(np.abs(values - ref)) / np.max(np.abs(ref)))
    if not err <= tol:
        raise CheckError(f"relative max error {err:.3g} exceeds {tol:g}")
    if flags_clear and any(_flag(f) for f in _column(header, rows, "diverged", str)):
        raise CheckError("divergence flagged on a convergent series")


# ERRATA.md, at the audit's exact-truncation configurations: CD-C and PD-C at
# tau 0.5, beta 1 (s = 1.5); CI-C and PI-C at tau 0.3, beta 1.
LITERAL_RATIOS = {
    "CD-C": math.sqrt(math.pi),
    "CI-C": 1.0,
    "PD-C": math.pi ** 1.5 * math.sqrt(1.5),
    "PI-C": math.pi ** 1.5 * 1.0 / math.sqrt(0.3),
}
SERIES_VARIANTS = (
    "CD-A", "CD-B", "CD-C", "CI-A", "CI-B", "CI-C",
    "PD-A", "PD-B", "PD-C", "PI-A", "PI-B", "PI-C",
)
AUDIT_ORDERS = 4  # N = 0, 1, 2 and one full order per variant


def check_validate(text: str, mode: str):
    """The audit table of ERRATA.md, and the published/validated ratios."""
    meta, header, rows = parse_output(text)
    if len(rows) != len(SERIES_VARIANTS) * AUDIT_ORDERS:
        raise CheckError(f"{len(rows)} audit rows")
    statuses = {}
    for variant, status in zip(_column(header, rows, "variant", str), _column(header, rows, "status", str)):
        statuses.setdefault(variant, set()).add(status)
    for variant in SERIES_VARIANTS:
        want = "fail" if mode == "paper_literal" and variant in LITERAL_RATIOS else "pass"
        if statuses.get(variant) != {want}:
            raise CheckError(f"{variant} audit status {statuses.get(variant)}, expected {want}")
    if mode != "paper_literal":
        return
    ratios = json.loads(meta.get("literal_value_ratios", "{}"))
    for variant, want in LITERAL_RATIOS.items():
        got = ratios.get(variant)
        if got is None or not abs(got - want) <= 1e-9 * want:
            raise CheckError(f"{variant} literal ratio {got}, expected {want:.17g}")


def check_beta_map(text: str, width_a: float, tau: float, betas, order: int):
    """CD-B converges iff |a - s| < 2 tau + beta; rows near the boundary are skipped."""
    _, header, rows = parse_output(text)
    got_betas = _column(header, rows, "beta")
    if sorted(got_betas) != sorted(betas) or set(_column(header, rows, "N", int)) != {order}:
        raise CheckError(f"beta-map rows {got_betas}")
    for beta, flag, err, status in zip(
        got_betas,
        _column(header, rows, "diverged", str),
        _column(header, rows, "error_max"),
        _column(header, rows, "status", str),
    ):
        if status != "ok":
            raise CheckError(f"beta {beta}: status {status}")
        q = abs(width_a - (tau + beta)) / (2.0 * tau + beta)
        if q < 0.8 and (_flag(flag) or not err < 1e-3):
            raise CheckError(f"beta {beta}: convergent (q={q:.3f}) but diverged={flag}, error {err:g}")
        if q > 1.25 and not _flag(flag):
            raise CheckError(f"beta {beta}: divergent (q={q:.3f}) but not flagged")


def _semi_convergence(meta) -> dict:
    try:
        return json.loads(meta["semi_convergence"])
    except (KeyError, ValueError):
        raise CheckError("no semi_convergence summary") from None


def check_noise(text: str, variants, deltas, n_rows: int):
    """Every moment-series variant reports a U-shaped error curve for delta > 0."""
    meta, header, rows = parse_output(text)
    if len(rows) != n_rows or set(_column(header, rows, "status", str)) != {"ok"}:
        raise CheckError(f"{len(rows)} rows, statuses {set(_column(header, rows, 'status', str))}")
    summary = _semi_convergence(meta)
    for variant in variants:
        for delta in deltas:
            key = f"{variant}@delta={delta:.17g}"
            if key not in summary:
                raise CheckError(f"missing {key}")
            if delta > 0.0 and variant != "CI-classical" and not summary[key]["u_shape"]:
                raise CheckError(f"{key}: no U-shaped error curve")
    return summary


def check_classical_compare(text: str, deltas, n_rows: int):
    """U-shape for CI-A, and CI-A beats the derivative baseline on noisy data."""
    summary = check_noise(text, ("CI-A", "CI-classical"), deltas, n_rows)
    for delta in deltas:
        if delta > 0.0:
            ours = summary[f"CI-A@delta={delta:.17g}"]["err_at_n_star"]
            base = summary[f"CI-classical@delta={delta:.17g}"]["err_at_n_star"]
            if not ours < base:
                raise CheckError(f"delta {delta}: CI-A error {ours:g} not below classical {base:g}")


def check_convergence(text: str, variants, orders, final_tol: float):
    """Every variant reaches final_tol of the forward solution at its top order."""
    _, header, rows = parse_output(text)
    table = {}
    for variant, n, err, status in zip(
        _column(header, rows, "variant", str),
        _column(header, rows, "N", int),
        _column(header, rows, "error_max"),
        _column(header, rows, "status", str),
    ):
        if status != "ok":
            raise CheckError(f"{variant} N={n}: status {status}")
        table[variant, n] = err
    if set(table) != {(v, n) for v in variants for n in orders}:
        raise CheckError(f"convergence rows {sorted(table)}")
    for variant in variants:
        first, last = table[variant, min(orders)], table[variant, max(orders)]
        if not (last <= final_tol and last < first):
            raise CheckError(f"{variant}: error {first:g} at N={min(orders)}, {last:g} at N={max(orders)}")
