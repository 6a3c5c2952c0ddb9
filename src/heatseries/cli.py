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
import json
import math
import os
import sys
import tempfile

import numpy as np

from .experiments import (
    _ORACLE,
    _SCALE_ESTIMATE,
    _STUDY_GRID,
    GridGeom,
    StudyConfig,
    _grid_solve,
    _kernel_params,
    expected_audit_statuses,
    run_audit,
    run_study,
)
from .profiles import Sampled1D, parse_profile
from .quad import AccuracyError, QuadSpec
from .series_cartesian import DEFAULT_ORDER
from .variants import AXIS, CLASSICAL, LINE, POLAR, default_beta, variant_names

ORACLE = "oracle"  # the quadrature oracle, a forward pseudo-variant
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
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-heatseries-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _render_csv(metadata: dict, header: list, rows: list, row_format: str | None = None) -> str:
    """row_format: one %-format for every row, the text _fmt gives its values."""
    lines = [f"# {key} = {_fmt(val)}" for key, val in metadata.items()]
    lines.append(",".join(header))
    if row_format is not None:
        lines.extend(row_format % row for row in rows)
    else:
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _render_json(metadata: dict, header: list, rows: list) -> str:
    payload = {
        "metadata": metadata,
        "rows": [dict(zip(header, row)) for row in rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(args, metadata: dict, header: list, rows: list, row_format: str | None = None) -> None:
    if args.format == "json":
        text = _render_json(metadata, header, rows)
    else:
        text = _render_csv(metadata, header, rows, row_format)
    if args.output:
        _atomic_write(args.output, text)
    else:
        sys.stdout.write(text)


def _parse_eval_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"--eval-grid must be lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise CliError(f"--eval-grid must be numeric lo:hi:n, got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise CliError("--eval-grid bounds must be finite")
    if n < 1:
        raise CliError("--eval-grid needs at least one point")
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


def _load_samples(path: str):
    """(x, values) of a sample file in one vectorised pass, or None where the
    line loop must decide: it names a bad line, and reports a file it cannot
    read or decode as it reads.

    The rows before the first sample are classified as the loop does; the
    rest go to np.loadtxt, which on plain text parses exactly the fields
    float() parses, to the same values.  A row the loop would reject (short,
    non-numeric or non-finite) makes this pass give up, and so do rows the
    loop skips after the first sample (blank-looking or commented) and rows
    with a different number of columns."""
    try:
        with open(path) as handle:
            lines = handle.read().split("\n")
    except (OSError, ValueError):
        return None
    for start, line in enumerate(lines):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) < 2:
            return None
        try:
            float(parts[0]), float(parts[1])
        except ValueError:
            continue  # column-header row
        break
    else:
        return None
    body = lines[start:]
    joined = "\n".join(body)
    if not joined.isascii() or joined.encode("ascii").translate(None, _PLAIN_TEXT):
        return None
    try:
        table = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape[1] < 2 or not np.all(np.isfinite(table[:, :2])):
        return None
    return table[:, 0].copy(), table[:, 1].copy()


def _scan_samples(path: str):
    """(x, values) of a sample file, line by line; raises CliError naming the
    first bad line."""
    xs, vals = [], []
    try:
        with open(path) as handle:
            for line_no, line in enumerate(handle, start=1):
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
                if not (math.isfinite(x) and math.isfinite(val)):
                    raise CliError(f"{path}:{line_no}: non-finite sample {line!r}")
                xs.append(x)
                vals.append(val)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    return np.asarray(xs), np.asarray(vals)


def _read_sampled(path: str) -> Sampled1D:
    """Read `x,value` pairs; `#` lines and non-numeric header rows before the
    first sample are ignored, any other unreadable or non-finite row is an error."""
    samples = _load_samples(path)
    xs_arr, vals = samples if samples is not None else _scan_samples(path)
    if xs_arr.size < 2:
        raise CliError(f"{path}: need at least two samples")
    steps = np.diff(xs_arr)
    if np.any(steps <= 0.0):
        raise CliError(f"{path}: sample abscissae must be strictly increasing")
    if np.max(np.abs(steps - steps[0])) > 1e-9 * max(abs(steps[0]), 1e-300):
        raise CliError(f"{path}: samples must sit on a uniform grid")
    return Sampled1D(float(xs_arr[0]), float(xs_arr[-1]), vals)


def _resolve_beta(args, variant: str, data, geometry: str, tau: float) -> float:
    if variant in (ORACLE, CLASSICAL):
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


def _load_data(args, geometry: str):
    if (args.profile is None) == (getattr(args, "input", None) is None):
        raise CliError("provide exactly one of --profile or --input")
    if args.profile is not None:
        try:
            return parse_profile(args.profile), {"profile": args.profile}
        except ValueError as exc:
            raise CliError(f"bad --profile: {exc}") from None
    data = _read_sampled(args.input)
    return data, {"input": args.input}


def _config_echo(args, extra: dict) -> dict:
    echo = {"command": args.command, "geometry": args.geometry}
    echo.update(extra)
    echo["format"] = args.format
    echo["constants_mode"] = getattr(args, "constants_mode", "oracle_validated")
    return echo


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
    data, source = _load_data(args, geometry)
    xs = _parse_eval_grid(args.eval_grid)
    if geometry == POLAR and np.any(xs < 0.0):
        raise CliError("polar evaluation radii must be non-negative")
    return data, source, xs


def _solve(args, data, xs: np.ndarray, beta: float):
    """Values and divergence flags of the requested variant on xs."""
    spec = QuadSpec()
    try:
        if args.variant == ORACLE:
            return _ORACLE[args.geometry](data, args.tau, xs, spec), np.zeros(xs.size, dtype=bool)
        params = _kernel_params(args.variant, args.tau, beta)
        series = _grid_solve(args.variant, data, params, args.order, xs, args.constants_mode, spec, tau=args.tau)
        return series.values(args.order), series.flagged(args.order)
    except AccuracyError as exc:
        raise CliError(f"{args.command} {args.variant}: quadrature did not converge: {exc}", code=3)
    except OverflowError as exc:
        raise CliError(f"{args.command} {args.variant}: overflow: {exc}", code=3)


def _solve_metadata(args, source: dict, beta: float, extra: dict) -> dict:
    metadata = _config_echo(args, source)
    metadata.update(
        {
            "variant": args.variant,
            "tau": args.tau,
            "beta": beta,
            "beta_requested": args.beta if args.beta is not None else "",
            "order": args.order,
            "eval_grid": args.eval_grid,
        }
    )
    metadata.update(extra)
    metadata["axis"] = AXIS[args.geometry]
    return metadata


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
        if not isinstance(data, Sampled1D):
            raise CliError("--noise applies to --input sample files only")
        if not (math.isfinite(args.noise) and args.noise >= 0.0):
            raise CliError("--noise must be non-negative and finite")
        rng = np.random.default_rng(args.seed)
        data = data.with_noise(args.noise, rng)
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
        err = np.asarray(values) - truth
        metadata["summary_rel_l2"] = float(np.linalg.norm(err) / np.linalg.norm(truth))
        metadata["summary_rel_max"] = float(np.max(np.abs(err)) / np.max(np.abs(truth)))
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
        metadata["literal_value_ratios"] = json.dumps(
            {k: float(f"{v:.17g}") for k, v in sorted(ratios.items())}, sort_keys=True
        )
    header = ["variant", "n", "beta", "error", "status", "expected"]
    rows = [
        (r.variant, r.n, r.beta, r.error_max, r.status, expected[r.variant])
        for r in report.rows
    ]
    _emit(args, metadata, header, rows)
    mismatches = {v: (observed[v], expected[v]) for v in observed if observed[v] != expected[v]}
    if mismatches:
        detail = ", ".join(f"{v}: got {o}, expected {e}" for v, (o, e) in sorted(mismatches.items()))
        print(f"validate: audit table mismatch ({detail})", file=sys.stderr)
        return 1
    return 0


# --- study config files ---------------------------------------------------------

def _parse_number_list(text: str, line_no: int, path: str, integer: bool = False):
    text = text.strip()
    out = []
    if ":" in text and "," not in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise CliError(f"{path}:{line_no}: ranges are lo:hi:step, got {text!r}")
        try:
            lo, hi, step = (int(p) if integer else float(p) for p in parts)
        except ValueError:
            raise CliError(f"{path}:{line_no}: non-numeric range {text!r}") from None
        if step <= 0 or hi < lo:
            raise CliError(f"{path}:{line_no}: bad range {text!r}")
        val = lo
        while val <= hi:
            out.append(val)
            val += step
        return tuple(out)
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(int(piece) if integer else float(piece))
        except ValueError:
            raise CliError(f"{path}:{line_no}: non-numeric value {piece!r}") from None
    if not out:
        raise CliError(f"{path}:{line_no}: empty list")
    return tuple(out)


def _parse_study_config(path: str) -> StudyConfig:
    """Flat `key = value` lines under [study] / [grid] / [sweep] markers."""
    sections = {"study": {}, "grid": {}, "sweep": {}}
    current = None
    try:
        with open(path) as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
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
        sections[current][key] = (val, line_no)
    study = sections["study"]

    def take(section: dict, key: str, default=None):
        if key in section:
            return section.pop(key)
        return (default, None)

    kind, ln = take(study, "kind")
    if kind is None:
        raise CliError(f"{path}: [study] must set kind")
    geometry, _ = take(study, "geometry", "line")
    profile_text, pln = take(study, "profile", "gaussian:a=1")
    try:
        profile = parse_profile(profile_text)
    except ValueError as exc:
        raise CliError(f"{path}:{pln or 0}: bad profile: {exc}") from None

    def number(section, key, default, caster=float):
        val, line_no = take(section, key, None)
        if val is None:
            return default
        try:
            return caster(val)
        except ValueError:
            raise CliError(f"{path}:{line_no}: {key} must be numeric, got {val!r}") from None

    tau = number(study, "tau", 0.3)
    seed = number(study, "seed", 20250808, int)
    mode, _ = take(study, "constants_mode", "oracle_validated")
    variants_text, _ = take(study, "variants", "")
    variants = tuple(v.strip() for v in variants_text.split(",") if v.strip())
    if study:
        key = sorted(study)[0]
        raise CliError(f"{path}:{study[key][1]}: unknown [study] key {key!r}")

    grid_sec = sections["grid"]
    default = _STUDY_GRID.get(geometry, _STUDY_GRID[POLAR])  # StudyConfig rejects an unknown geometry
    lo = number(grid_sec, "lo", default.lo)
    hi = number(grid_sec, "hi", default.hi)
    n = number(grid_sec, "n", default.n, int)
    if grid_sec:
        key = sorted(grid_sec)[0]
        raise CliError(f"{path}:{grid_sec[key][1]}: unknown [grid] key {key!r}")

    sweep = sections["sweep"]
    orders_val, oln = take(sweep, "orders", None)
    n_range = (
        _parse_number_list(orders_val, oln, path, integer=True)
        if orders_val is not None
        else tuple(range(0, 45, 2))
    )
    deltas_val, dln = take(sweep, "deltas", None)
    delta_range = (
        _parse_number_list(deltas_val, dln, path) if deltas_val is not None else (0.0, 1e-3)
    )
    betas_val, bln = take(sweep, "betas", None)
    beta_range = _parse_number_list(betas_val, bln, path) if betas_val is not None else ()
    if sweep:
        key = sorted(sweep)[0]
        raise CliError(f"{path}:{sweep[key][1]}: unknown [sweep] key {key!r}")

    try:
        return StudyConfig(
            study_kind=kind,
            geometry=geometry,
            profile=profile,
            tau=tau,
            n_range=n_range,
            delta_range=delta_range,
            beta_range=beta_range,
            grid=GridGeom(lo, hi, n),
            seed=seed,
            variants=variants,
            constants_mode=mode,
        )
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
    _emit(args, metadata, header, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatseries",
        description="Direct and inverse heat-equation solves by truncated series, "
        "with quadrature oracles and reproducible studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_io(p):
        p.add_argument("--output", help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument(
            "--constants-mode",
            dest="constants_mode",
            choices=("oracle_validated", "paper_literal"),
            default="oracle_validated",
        )

    def common_solve(p, variants):
        p.add_argument("--geometry", choices=("line", "polar"), default="line")
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
    common_io(stu)

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
