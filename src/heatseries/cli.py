"""Command-line front door.

Four subcommands:

* forward:  direct solves (series variants or the quadrature oracle)
* inverse:  backward solves (series variants, the classical baseline)
* validate: the constants audit; exit 0 iff the observed pass/fail table
  matches the documented expectation for the chosen constants mode
* study:    reproducible experiment sweeps driven by a flat config file

Outputs are CSV or JSON with a metadata header that is sufficient to re-run
the command; identical invocations write byte-identical files (study
reports carry one wall-clock column, runtime_ms, which is exempt).  Exit
codes: 0 success, 1 validation failure, 2 configuration error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from .experiments import (
    MAX_ORDER,
    MAX_TERMS,
    _ORACLE,
    _SCALE_ESTIMATE,
    _SOLVE,
    STUDY_DROPS,
    StudyConfig,
    _errors,
    _norms,
    expected_audit_statuses,
    run_audit,
    run_study,
)
from . import series_cartesian, series_polar
from .profiles import Sampled1D, parse_profile
from .quad import AccuracyError
from .series_cartesian import DEFAULT_ORDER
from .specfun import KernelParams
from .variants import AXIS, CLASSICAL, CONSTANTS_MODES, LINE, POLAR, VARIANTS, default_beta, variant_names

ORACLE = "oracle"  # the quadrature oracle, a forward pseudo-variant
_GEOMETRY = {LINE: series_cartesian.GEOMETRY, POLAR: series_polar.GEOMETRY}
FORWARD_VARIANTS = {g: variant_names(g, direct=True) + (ORACLE,) for g in (LINE, POLAR)}
INVERSE_VARIANTS = {
    LINE: variant_names(LINE, direct=False) + (CLASSICAL,),
    POLAR: variant_names(POLAR, direct=False),
}


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _atomic_write(path: str, text: str) -> None:
    """text to path as UTF-8, whatever the locale; an argument that was not
    valid text in the locale's encoding (a path echoed in the metadata) is
    written back as the bytes it came from, as stdout writes it.  A path that
    cannot be written exits 2, naming the OS's reason (not the temporary
    file's random name)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-heatseries-")
        with os.fdopen(fd, "w", encoding="utf-8", errors="surrogateescape") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise CliError(f"cannot write {path}: {exc.strerror}") from None
        raise


# the row templates of the validate and study tables: the text _fmt gives
# their str, int, float and bool fields (nan and inf included)
_VALIDATE_ROW = "%s,%d,%.17g,%.17g,%s,%s"
_STUDY_ROW = "%s,%d,%.17g,%.17g,%.17g,%.17g,%d,%s,%.17g"


def _render_csv(metadata: dict, header: list, rows: list, row_format: str) -> str:
    """row_format: one %-format for every row, the text _fmt gives its values."""
    lines = [f"# {key} = {_fmt(val)}" for key, val in metadata.items()]
    lines.append(",".join(header))
    if rows:
        # one % for the whole table, the template repeated: faster than one per row
        lines.append("\n".join([row_format] * len(rows)) % tuple(itertools.chain.from_iterable(rows)))
    return "\n".join(lines) + "\n"


def _json_value(value, indent: str) -> str:
    """json.dumps(value, indent=2, sort_keys=True) as it reads nested at indent."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _json_column(values: tuple) -> list:
    """The JSON text of each value of one row column (_json_value at a row's
    indent); a column of finite floats or of bools in one pass without
    json.dumps."""
    kinds = set(map(type, values))
    if kinds == {float} and all(map(math.isfinite, values)):
        return list(map(float.__repr__, values))
    if kinds == {bool}:
        return [("false", "true")[v] for v in values]
    return [_json_value(v, "      ") for v in values]


def _render_json(metadata: dict, header: list, rows: list) -> str:
    """json.dumps({"metadata": metadata, "rows": [dict(zip(header, row)), ...]},
    indent=2, sort_keys=True) byte for byte, the rows from one template."""
    column = {key: i for i, key in enumerate(header)}  # a repeated key keeps its last value
    keys = sorted(column)
    if not rows:
        body = "[]"
    elif not keys:
        body = "[\n" + ",\n".join("    {}" for _ in rows) + "\n  ]"
    else:
        template = "    {\n" + ",\n".join(f"      {json.dumps(key)}: %s" for key in keys) + "\n    }"
        columns = list(zip(*rows))
        texts = zip(*(_json_column(columns[column[key]]) for key in keys))
        body = "[\n" + ",\n".join(template % values for values in texts) + "\n  ]"
    return '{\n  "metadata": ' + _json_value(metadata, "  ") + ',\n  "rows": ' + body + "\n}\n"


def _emit(args, metadata: dict, header: list, rows: list, row_format: str) -> None:
    if args.format == "json":
        text = _render_json(metadata, header, rows)
    else:
        text = _render_csv(metadata, header, rows, row_format)
    if args.output:
        _atomic_write(args.output, text)
    else:
        sys.stdout.write(text)


def _parse_eval_grid(text: str, order: int) -> np.ndarray:
    """The grid of --eval-grid lo:hi:n, if its span is finite and its term
    matrix fits MAX_TERMS."""
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"--eval-grid must be lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise CliError(f"--eval-grid must be numeric lo:hi:n, got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise CliError("--eval-grid bounds must be finite")
    if not math.isfinite(hi - lo):
        raise CliError(f"--eval-grid span hi - lo must be finite, got {text!r}")
    if n < 1:
        raise CliError("--eval-grid needs at least one point")
    values = (order + 1) * n
    if values > MAX_TERMS:
        raise CliError(
            f"--eval-grid has {n} points; at order {order} the term matrix would hold "
            f"{values} values, over the {MAX_TERMS} a solve may build"
        )
    if n == 1:
        if lo != hi:
            raise CliError("--eval-grid with n=1 needs lo == hi")
        return np.array([lo])
    if not lo < hi:
        raise CliError("--eval-grid needs lo < hi")
    return np.linspace(lo, hi, n)


# the characters a sample row may hold for np.loadtxt to parse it as float()
# does: printable ASCII and tab (loadtxt also strips controls such as \x1c)
_PLAIN_TEXT = bytes(range(0x20, 0x7F)) + b"\t\n"


def _sample_table(lines: list):
    """(x, values) of the rows from the first sample on in one np.loadtxt
    pass, or None where the line loop must decide.

    On plain text np.loadtxt parses exactly the fields float() parses, to
    the same values.  A row the loop would reject (short, non-numeric or
    non-finite) makes this pass give up, and so do rows the loop skips
    after the first sample (blank-looking or commented) and rows with a
    different number of columns."""
    joined = "\n".join(lines)
    if not joined.isascii() or joined.encode("ascii").translate(None, _PLAIN_TEXT):
        return None
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape[1] < 2 or not np.all(np.isfinite(table[:, :2])):
        return None
    return table[:, 0].copy(), table[:, 1].copy()


def _read_sampled(path: str) -> Sampled1D:
    """Read `x,value` pairs; `#` lines and non-numeric header rows before the
    first sample are ignored, any other unreadable or non-finite row is an
    error naming its line.  From the first sample on, the rows go to
    `_sample_table` in one pass; where it declines, the loop reads on."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    xs, vals = [], []
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) < 2:
            raise CliError(f"{path}: expected x,value per line, got {line!r}")
        try:
            x, val = float(parts[0]), float(parts[1])
        except ValueError:
            if xs:
                raise CliError(f"{path}:{line_no}: non-numeric sample {line!r}") from None
            continue  # column-header row
        if not xs:
            table = _sample_table(lines[line_no - 1:])
            if table is not None:
                xs, vals = table
                break
        if not (math.isfinite(x) and math.isfinite(val)):
            raise CliError(f"{path}:{line_no}: non-finite sample {line!r}")
        xs.append(x)
        vals.append(val)
    xs_arr = np.asarray(xs)
    if xs_arr.size < 2:
        raise CliError(f"{path}: need at least two samples")
    steps = np.diff(xs_arr)
    if np.any(steps <= 0.0):
        raise CliError(f"{path}: sample abscissae must be strictly increasing")
    if np.max(np.abs(steps - steps[0])) > 1e-9 * max(abs(steps[0]), 1e-300):
        raise CliError(f"{path}: samples must sit on a uniform grid")
    return Sampled1D(float(xs_arr[0]), float(xs_arr[-1]), np.asarray(vals))


def _resolve_beta(args, variant: str, data, geometry: str, tau: float) -> float:
    if variant in (ORACLE, CLASSICAL):
        if args.beta is not None:
            raise CliError(f"{variant} has no shift parameter; drop --beta (got {args.beta!r})")
        return 0.0
    raw = args.beta
    if raw is None:
        raise CliError(f"{variant} needs --beta (a number or 'auto')")
    if raw != "auto":
        try:
            beta = float(raw)
        except ValueError:
            raise CliError(f"--beta must be a number or 'auto', got {raw!r}") from None
        if not (math.isfinite(beta) and beta > 0.0):
            raise CliError("--beta must be positive and finite")
        return beta
    return default_beta(variant, _SCALE_ESTIMATE[geometry](data), tau)


def _load_data(args):
    if (args.profile is None) == (args.input is None):
        raise CliError("provide exactly one of --profile or --input")
    if args.profile is not None:
        try:
            return parse_profile(args.profile), {"profile": args.profile}
        except ValueError as exc:
            raise CliError(f"bad --profile: {exc}") from None
    data = _read_sampled(args.input)
    return data, {"input": args.input}


def _check_solve_args(args, variants: dict):
    """The checks forward and inverse share; returns (data, source, xs)."""
    geometry = args.geometry
    if args.variant not in variants[geometry]:
        raise CliError(
            f"variant {args.variant!r} is not a {geometry} {args.command} variant; "
            f"choose from {variants[geometry]}"
        )
    if not (math.isfinite(args.tau) and args.tau > 0.0):
        raise CliError("--tau must be positive and finite (the kernel and every series need it)")
    if args.order < 0:
        raise CliError("--order must be non-negative")
    if args.order > MAX_ORDER:
        raise CliError(f"--order {args.order} is over {MAX_ORDER}, the largest whose moment pass fits the "
                       f"{MAX_TERMS} values a solve may build")
    data, source = _load_data(args)
    xs = _parse_eval_grid(args.eval_grid, args.order)
    if geometry == POLAR and np.any(xs < 0.0):
        raise CliError("polar evaluation radii must be non-negative")
    return data, source, xs


def _check_normaliser(args, beta: float) -> None:
    """Refuse times whose heat-kernel normaliser overflows double precision
    (2 sqrt(pi t) on the line past t of about 5.7e307, 2t in the plane past
    9e307): every value would be divided to 0.  A C variant's kappa_0 has
    its normaliser as divisor, so it reads 0 there."""
    if args.variant == CLASSICAL:
        return
    norm = _GEOMETRY[args.geometry].norm
    if args.variant == ORACLE:
        if math.isinf(norm(args.tau)):
            raise CliError(f"--tau {args.tau!r} overflows the heat kernel's normaliser; every value would read 0")
        return
    row, params = VARIANTS[args.variant], KernelParams(tau=args.tau, beta=beta)
    if row.pointwise:
        overflows = row.kappa(params, args.constants_mode, 0)[0] == 0.0
    else:
        pref = row.times(params)[3]
        overflows = pref is not None and math.isinf(norm(pref))
    if overflows:
        raise CliError(f"--tau {args.tau!r} and --beta {beta!r} overflow the heat kernel's normaliser; "
                       "every value would read 0")


def _solve(args, data, xs: np.ndarray, beta: float):
    """Values and divergence flags of the requested variant on xs."""
    _check_normaliser(args, beta)
    try:
        if args.variant == ORACLE:
            return _ORACLE[args.geometry](data, args.tau, xs), np.zeros(xs.size, dtype=bool)
        series = _SOLVE[args.geometry](args.variant, data, args.tau, beta, args.order, xs, args.constants_mode)
        return series.values(args.order), series.flagged(args.order)
    except AccuracyError as exc:
        raise CliError(f"{args.command} {args.variant}: quadrature did not converge: {exc}", code=3)
    except OverflowError as exc:
        raise CliError(f"{args.command} {args.variant}: overflow: {exc}", code=3)


def _solve_metadata(args, source: dict, beta: float, extra: dict) -> dict:
    """The header of a forward or inverse output: enough to re-run it."""
    return {
        "command": args.command,
        "geometry": args.geometry,
        **source,
        "format": args.format,
        "constants_mode": args.constants_mode,
        "variant": args.variant,
        "tau": args.tau,
        "beta": beta,
        "beta_requested": args.beta if args.beta is not None else "",
        "order": args.order,
        "eval_grid": args.eval_grid,
        **extra,
        "axis": AXIS[args.geometry],
    }


def _emit_field(args, metadata: dict, xs, values, flags) -> None:
    rows = list(zip(xs.tolist(), values.tolist(), flags.tolist()))
    _emit(args, metadata, [metadata["axis"], "value", "diverged"], rows, "%.17g,%.17g,%d")


def cmd_forward(args) -> int:
    data, source, xs = _check_solve_args(args, FORWARD_VARIANTS)
    beta = _resolve_beta(args, args.variant, data, args.geometry, args.tau)
    values, flags = _solve(args, data, xs, beta)
    _emit_field(args, _solve_metadata(args, source, beta, {}), xs, values, flags)
    return 0


def cmd_inverse(args) -> int:
    data, source, xs = _check_solve_args(args, INVERSE_VARIANTS)
    if args.noise is not None:
        if "input" not in source:
            raise CliError("--noise applies to --input sample files only")
        if not (math.isfinite(args.noise) and args.noise >= 0.0):
            raise CliError("--noise must be non-negative and finite")
        data = data.with_noise(args.noise, np.random.default_rng(args.seed))
        if not np.all(np.isfinite(data.values)):
            raise CliError(f"--noise {args.noise!r} overflows the samples to non-finite values")
    beta = _resolve_beta(args, args.variant, data, args.geometry, args.tau)
    values, flags = _solve(args, data, xs, beta)
    metadata = _solve_metadata(
        args, source, beta, {"noise": args.noise if args.noise is not None else "", "seed": args.seed}
    )
    if np.any(flags):
        metadata["warning"] = "divergence flagged at some evaluation points"
    if args.truth:
        try:
            truth_profile = parse_profile(args.truth)
        except ValueError as exc:
            raise CliError(f"bad --truth: {exc}") from None
        truth = truth_profile(xs)
        (metadata["summary_rel_l2"],), (metadata["summary_rel_max"],) = _errors(values[None], truth, _norms(truth))
    _emit_field(args, metadata, xs, values, flags)
    return 0


def cmd_validate(args) -> int:
    mode = args.constants_mode
    config = StudyConfig(study_kind="audit", constants_mode=mode)
    report = run_audit(config)
    expected = expected_audit_statuses(mode)
    observed = {row.variant: row.status for row in report.rows}
    metadata = {
        "command": "validate",
        "constants_mode": mode,
        "tolerances": json.dumps(report.metadata["tolerances"], sort_keys=True),
    }
    ratios = report.metadata.get("literal_value_ratios", {})
    if ratios:
        metadata["literal_value_ratios"] = json.dumps(ratios, sort_keys=True)
    header = ["variant", "n", "beta", "error", "status", "expected"]
    rows = [
        (r.variant, r.n, r.beta, r.error_max, r.status, expected[r.variant])
        for r in report.rows
    ]
    _emit(args, metadata, header, rows, _VALIDATE_ROW)
    mismatches = {v: (observed[v], expected[v]) for v in observed if observed[v] != expected[v]}
    if mismatches:
        detail = ", ".join(f"{v}: got {o}, expected {e}" for v, (o, e) in sorted(mismatches.items()))
        print(f"validate: audit table mismatch ({detail})", file=sys.stderr)
        return 1
    return 0


# --- study config files ---------------------------------------------------------

def _parse_number_list(text: str, line_no: int, path: str, integer: bool = False, most: int = MAX_TERMS):
    """A list `a, b, ...` or a range `lo:hi:step`, which is counted before
    it is built: one of more than `most` values exits 2."""
    text = text.strip()
    word = "integer" if integer else "numeric"
    out = []
    if ":" in text and "," not in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise CliError(f"{path}:{line_no}: ranges are lo:hi:step, got {text!r}")
        try:
            lo, hi, step = (int(p) if integer else float(p) for p in parts)
        except ValueError:
            raise CliError(f"{path}:{line_no}: non-{word} range {text!r}") from None
        if not all(math.isfinite(p) for p in (lo, hi, step)) or step <= 0 or hi < lo:
            raise CliError(f"{path}:{line_no}: bad range {text!r}")
        if integer:
            steps = (hi - lo) // step
        else:  # hi is kept when it is a whole number of steps up to rounding; a span past most (inf too) is too long
            span = min((hi - lo) / step, most)
            steps = round(span) if math.isclose(span, round(span), rel_tol=1e-9) else math.floor(span)
        if steps >= most:
            raise CliError(f"{path}:{line_no}: range {text!r} holds more than the {most} values this key may hold")
        return tuple(lo + k * step for k in range(steps + 1))
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(int(piece) if integer else float(piece))
        except ValueError:
            raise CliError(f"{path}:{line_no}: non-{word} value {piece!r}") from None
    if not out:
        raise CliError(f"{path}:{line_no}: empty list")
    return tuple(out)


def _reader(parse, fault: str = ""):
    """A config-value reader, (key, text, line_no, path) -> parse(text); a
    ValueError from parse exits 2 with fault, formatted with key, val, exc."""
    def read(key, val, line_no, path):
        try:
            return parse(val)
        except ValueError as exc:
            raise CliError(f"{path}:{line_no}: " + fault.format(key=key, val=val, exc=exc)) from None

    return read


def _numbers(integer: bool, most: int):
    return lambda key, val, line_no, path: _parse_number_list(val, line_no, path, integer=integer, most=most)


def _names(key, val, line_no, path):
    """A comma-separated list of names; empty exits 2, as an empty number list."""
    names = tuple(v.strip() for v in val.split(",") if v.strip())
    if not names:
        raise CliError(f"{path}:{line_no}: empty list")
    return names


_TEXT, _FLOAT = _reader(str), _reader(float, "{key} must be numeric, got {val!r}")
_INT = _reader(int, "{key} must be an integer, got {val!r}")

# one row per config key, in the order keys are read and checked: (section,
# key, field, reader).  A key sets that StudyConfig field, a [grid] key that
# field of the study grid.  [study] kind, read first, sets study_kind.
_CONFIG_KEYS = (
    ("study", "geometry", "geometry", _TEXT),
    ("study", "profile", "profile", _reader(parse_profile, "bad profile: {exc}")),
    ("study", "tau", "tau", _FLOAT),
    ("study", "seed", "seed", _INT),
    ("study", "constants_mode", "constants_mode", _TEXT),
    ("study", "variants", "variants", _names),
    ("grid", "lo", "lo", _FLOAT),
    ("grid", "hi", "hi", _FLOAT),
    ("grid", "n", "n", _INT),
    ("sweep", "orders", "n_range", _numbers(integer=True, most=MAX_ORDER + 1)),
    ("sweep", "deltas", "delta_range", _numbers(integer=False, most=MAX_TERMS)),
    ("sweep", "betas", "beta_range", _numbers(integer=False, most=MAX_TERMS)),
)


def _parse_study_config(path: str) -> StudyConfig:
    """Flat `key = value` lines under [study] / [grid] / [sweep] markers."""
    sections = {section: {} for section, *_ in _CONFIG_KEYS}
    current = None
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in sections:
                raise CliError(f"{path}:{line_no}: unknown section [{name}]")
            current = name
            continue
        if current is None:
            raise CliError(f"{path}:{line_no}: key outside of a [section]")
        if "=" not in line:
            raise CliError(f"{path}:{line_no}: expected key = value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key in sections[current]:
            raise CliError(f"{path}:{line_no}: [{current}] key {key!r} repeats line {sections[current][key][1]}")
        sections[current][key] = (val, line_no)
    kind, _ = sections["study"].pop("kind", (None, None))
    if kind is None:
        raise CliError(f"{path}: [study] must set kind")
    # the keys the file sets: StudyConfig declares the defaults and the fields each kind drops
    fields, grid = {"study_kind": kind}, {}
    drops, what = STUDY_DROPS.get(kind, ((), ""))
    dropped = [(sections[section][key][1], section, key) for section, key, name, _ in _CONFIG_KEYS
               if key in sections[section] and ("grid" if section == "grid" else name) in drops]
    if dropped:
        line_no, section, key = min(dropped)
        raise CliError(f"{path}:{line_no}: {what}, got [{section}] key {key!r}")
    for section, unread in sections.items():
        for _, key, name, read in (row for row in _CONFIG_KEYS if row[0] == section and row[1] in unread):
            val, line_no = unread.pop(key)
            (grid if section == "grid" else fields)[name] = read(key, val, line_no, path)
        if unread:
            key = min(unread)
            raise CliError(f"{path}:{unread[key][1]}: unknown [{section}] key {key!r}")
    try:
        config = StudyConfig(**fields)  # a partial [grid] completes the geometry's study grid
        return replace(config, grid=replace(config.grid, **grid)) if grid else config
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from None


def cmd_study(args) -> int:
    config = _parse_study_config(args.config)
    try:
        report = run_study(config)
    except (AccuracyError, OverflowError) as exc:
        raise CliError(f"study failed numerically: {exc}", code=3)
    metadata = {"command": "study", "config_file": args.config}
    for key, val in report.metadata.items():
        metadata[key] = json.dumps(val, sort_keys=True) if isinstance(val, (dict, list)) else val
    header = ["variant", "N", "beta", "delta", "error_l2", "error_max", "diverged", "status", "runtime_ms"]
    rows = [
        (r.variant, r.n, r.beta, r.delta, r.error_l2, r.error_max, r.diverged, r.status, r.runtime_ms)
        for r in report.rows
    ]
    _emit(args, metadata, header, rows, _STUDY_ROW)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatseries",
        description="Direct and inverse heat-equation solves by truncated series, "
        "with quadrature oracles and reproducible studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_io(p, constants_mode=True):
        p.add_argument("--output", help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if constants_mode:  # a study takes its mode from its config file
            p.add_argument(
                "--constants-mode",
                dest="constants_mode",
                choices=CONSTANTS_MODES,
                default="oracle_validated",
            )

    def common_solve(p, variants):
        p.add_argument("--geometry", choices=(LINE, POLAR), default=LINE)
        p.add_argument("--variant", required=True, choices=variants)
        p.add_argument("--tau", type=float, required=True)
        p.add_argument("--beta", help="shift parameter: a positive number or 'auto'")
        p.add_argument("--order", type=int, default=DEFAULT_ORDER, help="truncation order N")
        p.add_argument("--profile", help="analytic data, e.g. gaussian:a=1")
        p.add_argument("--input", help="sampled data file (x,value per line)")
        p.add_argument("--eval-grid", dest="eval_grid", required=True, help="lo:hi:n")
        common_io(p)

    fwd = sub.add_parser("forward", help="solve the direct problem")
    common_solve(fwd, sorted(set().union(*FORWARD_VARIANTS.values())))

    inv = sub.add_parser("inverse", help="solve the backward problem")
    common_solve(inv, sorted(set().union(*INVERSE_VARIANTS.values())))
    inv.add_argument("--noise", type=float, help="additive noise std-dev on --input data")
    inv.add_argument("--seed", type=int, default=0, help="noise seed")
    inv.add_argument("--truth", help="reference profile for the error summary")

    val = sub.add_parser("validate", help="run the constants audit")
    common_io(val)

    stu = sub.add_parser("study", help="run a configured study")
    stu.add_argument("--config", required=True, help="study config file")
    common_io(stu, constants_mode=False)

    return parser


_COMMANDS = {
    "forward": cmd_forward,
    "inverse": cmd_inverse,
    "validate": cmd_validate,
    "study": cmd_study,
}


def _merge_grid_args(argv):
    """Let `--eval-grid -8:8:401` work: argparse would read the value as a flag."""
    out = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--eval-grid" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"--eval-grid={argv[i + 1]}")
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """One parser per process: parse_args leaves no state in it."""
    return build_parser()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(_merge_grid_args(list(argv)))
    try:
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(f"heatseries {args.command}: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:  # a library precondition: a configuration error
        print(f"heatseries {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
