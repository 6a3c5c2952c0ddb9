"""Reproducible studies over the series solvers.

Five study kinds:

* audit: certifies every series variant at truncation orders 0, 1, 2
  against the kernel-quadrature oracle under its exact-truncation Gaussian
  configuration, in both constants modes.  This is the arbitration protocol
  for the published-vs-validated constant sets.  Each variant takes one
  coefficient pass at its full order; orders 0, 1, 2, the full order, a C
  variant's off-center probe (one more point of the pass) and its
  literal/validated ratio (its three kept coefficients weighted by each
  mode's constants) are all read from it, the orders in one read as an
  order sweep reads its orders.
* convergence: error versus truncation order for the direct variants.
* beta_map: error and divergence flag over a grid of shift values, at the
  last listed order.
* noise: reconstruction error under additive grid noise; locates the
  error-minimizing order and the semi-convergence (U-shape) indicator.
* classical_compare: the derivative-based inverse baseline against the
  moment-based series on identical noisy data.

This module also holds the geometry dispatch: the one map from a geometry
to the functions that serve it - its series module's grid solve, oracle,
exact evolution, scale estimate - and to the study defaults.  The grid
solve (`solve_grid_line` / `solve_grid_polar`) returns the term matrix of
one coefficient pass, checked at its order: the CLI reads that order alone
(`SeriesTerms.values`), and the audit and the order sweeps (`_sweep_orders`)
read every order they need in one call (`SeriesTerms.sweep`), from one
cumulative sum down the orders: every point is summed over its kept rows
in ascending order, whatever the grid.  Every study row but the audit's
comes from one sweep (`_sweep_rows`), whose orders' errors come from one
difference matrix: the beta map sweeps its last listed order once per
shift.

Reports are deterministic given (config, seed): noise comes from a recorded
numpy PCG64 stream, summation orders are fixed, and rows are sorted
canonically.  Row runtimes are wall-clock measurements and are the one
field excluded from reproducibility comparisons.
"""

from __future__ import annotations

import math
import time
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from . import __version__ as _pkg_version
from . import series_cartesian, series_polar
from .kernels import evolve_line, evolve_polar, forward_line, forward_polar
from .profiles import AnalyticProfile, Gaussian, Sampled1D, estimate_scale_line, estimate_scale_polar, format_profile
from .quad import BLOCK_NODES
from .specfun import KernelParams
from .variants import (
    CLASSICAL, CONSTANTS_MODES, LINE, POLAR, VARIANTS, check_mode, default_beta, geometry_of, variant_names,
)

__all__ = [
    "GridGeom",
    "StudyConfig",
    "StudyReport",
    "StudyRow",
    "run_audit",
    "run_beta_map",
    "run_classical_compare",
    "run_convergence",
    "run_noise_study",
    "run_study",
]

PRNG_NAME = "numpy-PCG64"
# the most values one array of a solve may hold (128 MiB of float64): its
# term matrix, (order + 1) x points; a moment pass's integrand block,
# (order + 1) x BLOCK_NODES; the plane's C table, (order + 1)^2
MAX_TERMS = 2**24
MAX_ORDER = min(MAX_TERMS // BLOCK_NODES, math.isqrt(MAX_TERMS)) - 1


@dataclass(frozen=True)
class GridGeom:
    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if self.n < 2 or not (self.lo < self.hi and math.isfinite(self.hi - self.lo)):
            raise ValueError(f"bad grid geometry [{self.lo}, {self.hi}] n={self.n}: need finite lo < hi, n >= 2")


# --- geometry dispatch -----------------------------------------------------------
# Flat dicts of functions: a wrapper rebound over module globals and the dicts
# they hold (perfbench's tracer) reaches every call made through them.  A grid
# solve takes (variant, data, tau, beta, n, xs, mode); CI-classical, a line
# variant without a shift, runs at beta = 0.

_SOLVE = {LINE: series_cartesian.solve_grid_line, POLAR: series_polar.solve_grid_polar}
_ORACLE = {LINE: forward_line, POLAR: forward_polar}
_EVOLVE = {LINE: evolve_line, POLAR: evolve_polar}
_SCALE_ESTIMATE = {LINE: estimate_scale_line, POLAR: estimate_scale_polar}

# study defaults per geometry
_STUDY_GRID = {LINE: GridGeom(-8.0, 8.0, 401), POLAR: GridGeom(0.0, 8.0, 401)}
_COMPARE_GRID = {LINE: np.linspace(-3.0, 3.0, 121), POLAR: np.linspace(0.0, 3.0, 61)}
_STUDY_VARIANTS = {
    ("convergence", LINE): variant_names(LINE, direct=True),
    ("convergence", POLAR): variant_names(POLAR, direct=True),
    ("beta_map", LINE): ("CD-B",),
    ("beta_map", POLAR): ("PD-B",),
    ("noise", LINE): ("CI-A", CLASSICAL),
    ("noise", POLAR): ("PI-A",),
}
# fixed shift for the noise studies: deliberately scale-mismatched so the
# truncation bias is visible and the bias/variance tradeoff has an interior
# optimum (the scale-matched rule would make order 0 already optimal)
NOISE_STUDY_BETA = {LINE: 0.6, POLAR: 0.8}

# the StudyConfig fields a study kind never reads: an audit runs its own
# configurations, a convergence study or a beta map the analytic profile
_SAMPLING = ("delta_range", "grid", "seed")
STUDY_DROPS = {
    "audit": (("geometry", "profile", "tau", "n_range", "delta_range", "beta_range", "grid", "seed", "variants"),
              "an audit reads only constants_mode"),
    "convergence": (_SAMPLING, "a convergence study reads no seed, deltas or [grid] key"),
    "beta_map": (_SAMPLING, "a beta_map study reads no seed, deltas or [grid] key"),
}


@dataclass
class StudyConfig:
    study_kind: str
    geometry: str = "line"
    profile: AnalyticProfile = field(default_factory=lambda: Gaussian(width_a=1.0))
    tau: float = 0.3
    n_range: tuple = tuple(range(0, 45, 2))
    delta_range: tuple = (0.0, 1e-3)
    beta_range: tuple = ()
    grid: GridGeom | None = None
    seed: int = 20250808
    variants: tuple = ()
    constants_mode: str = "oracle_validated"

    def __post_init__(self):
        kinds = ("audit", "convergence", "beta_map", "noise", "classical_compare")
        if self.study_kind not in kinds:
            raise ValueError(f"study_kind must be one of {kinds}")
        if self.geometry not in ("line", "polar"):
            raise ValueError("geometry must be 'line' or 'polar'")
        if self.grid is None:
            self.grid = _STUDY_GRID[self.geometry]
        dropped, what = STUDY_DROPS.get(self.study_kind, ((), ""))
        defaults = {f.name: f.default if f.default_factory is MISSING else f.default_factory()
                    for f in fields(self) if f.name in dropped}
        defaults["grid"] = _STUDY_GRID[self.geometry]
        for name in dropped:  # a field set off its default would be echoed in the metadata, unread
            if getattr(self, name) != defaults[name]:
                raise ValueError(f"{what}, got {name} = {getattr(self, name)!r}")
        check_mode(self.constants_mode)
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if self.study_kind != "audit":
            if not self.n_range:
                raise ValueError("n_range must be non-empty")
            if self.study_kind in ("noise", "classical_compare") and not self.delta_range:
                raise ValueError("delta_range must be non-empty")
            if self.study_kind == "beta_map" and not self.beta_range:
                raise ValueError("beta_map needs an explicit beta_range")
        if any(n < 0 for n in self.n_range):
            raise ValueError(f"orders (n_range) must be non-negative, got {min(self.n_range)}")
        if any(n > MAX_ORDER for n in self.n_range):
            raise ValueError(f"orders (n_range) must be at most {MAX_ORDER}, whose moment pass fits the "
                             f"{MAX_TERMS} values a solve may build; got {max(self.n_range)}")
        if self.grid.n > MAX_TERMS:
            raise ValueError(f"[grid] n = {self.grid.n} is over {MAX_TERMS}, the most nodes a study may sample")
        if not all(math.isfinite(d) and d >= 0.0 for d in self.delta_range):
            raise ValueError(f"deltas (delta_range) must be non-negative and finite, got {list(self.delta_range)}")
        if not all(math.isfinite(b) and b > 0.0 for b in self.beta_range):
            raise ValueError(f"betas (beta_range) must be positive and finite, got {list(self.beta_range)}")
        if self.study_kind not in ("audit", "beta_map") and len(self.beta_range) > 1:
            raise ValueError(f"a {self.study_kind} study takes one beta, got {list(self.beta_range)}")
        for name, values in (("orders (n_range)", self.n_range), ("deltas (delta_range)", self.delta_range),
                             ("betas (beta_range)", self.beta_range), ("variants", self.variants)):
            if len(set(values)) < len(values):
                raise ValueError(f"{name} must not repeat a value, got {list(values)}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.study_kind == "classical_compare" and self.variants:
            raise ValueError(f"classical_compare runs CI-A and CI-classical, no variants; got {list(self.variants)}")
        wanted = {"convergence": "direct", "noise": "inverse"}.get(self.study_kind)  # the direction of its truth
        for variant in self.variants:
            if geometry_of(variant) != self.geometry:
                raise ValueError(f"{variant} is not a {self.geometry} variant")
            if wanted and ("direct" if variant != CLASSICAL and VARIANTS[variant].direct else "inverse") != wanted:
                raise ValueError(f"a {self.study_kind} study takes {wanted} variants, got {variant}")


@dataclass
class StudyRow:
    variant: str
    n: int
    beta: float
    delta: float
    error_l2: float
    error_max: float
    diverged: bool
    status: str
    runtime_ms: float

    def sort_key(self):
        return (self.variant, self.n, self.beta, self.delta)


@dataclass
class StudyReport:
    study_kind: str
    metadata: dict
    rows: list

    def finalize(self):
        self.rows.sort(key=StudyRow.sort_key)
        return self


def _base_metadata(config: StudyConfig) -> dict:
    return {
        "study_kind": config.study_kind,
        "geometry": config.geometry,
        "profile": format_profile(config.profile),
        "tau": config.tau,
        "n_range": list(config.n_range),
        "delta_range": list(config.delta_range),
        "beta_range": list(config.beta_range),
        "grid": [config.grid.lo, config.grid.hi, config.grid.n],
        "seed": config.seed,
        "prng": PRNG_NAME,
        "variants": list(config.variants),
        "constants_mode": config.constants_mode,
        "library_version": _pkg_version,
    }


def _norms(a: np.ndarray) -> tuple[float, float]:
    """The l2 norm and the largest magnitude of a, the truth on an evaluation
    grid; ValueError where either is 0, as errors relative to it are undefined."""
    l2, largest = float(np.linalg.norm(a)), float(np.max(np.abs(a)))
    if l2 == 0.0:  # where largest is 0, and where every square underflows (|a| below about 1.5e-162)
        raise ValueError(f"the truth's l2 norm on the evaluation grid is 0 (its largest magnitude is {largest!r}); "
                         "errors relative to it are undefined")
    return l2, largest


def _errors(values: np.ndarray, truth: np.ndarray, truth_norms: tuple[float, float]) -> tuple[list, list]:
    """The l2 and max errors of each row of values against truth, relative to
    truth_norms = _norms(truth): two lists of floats.  A row's l2 norm is
    np.linalg.norm's, the root of its dot product with itself."""
    with np.errstate(over="ignore"):  # an overflowing error is inf: the row reads error:nonfinite
        d = values - truth
        err_l2 = np.sqrt([row.dot(row) for row in d]).tolist()
        err_max = np.max(np.abs(d), axis=1).tolist()
    return [e / truth_norms[0] for e in err_l2], [e / truth_norms[1] for e in err_max]


def _problem(variant: str, f: AnalyticProfile, tau: float):
    """(data, truth): what a variant solves from, for initial data f and time
    tau, and truth(xs) that its values are measured against.  A direct
    variant maps f to the oracle's field at tau; an inverse one maps the
    exact evolution of f back to f."""
    geometry = geometry_of(variant)
    if variant != CLASSICAL and VARIANTS[variant].direct:
        return f, lambda xs: _ORACLE[geometry](f, tau, xs)
    return _EVOLVE[geometry](f, tau), lambda xs: f(np.asarray(xs, dtype=float))


def _sweep_orders(variant, data, tau, beta, n_list, xs, mode) -> list:
    """Values and divergence flags for every order in n_list, highest first.

    The grid solve at the highest order (one coefficient pass, checked at
    that order and so at every lower one) serves every order, and one read
    of its term matrix (`SeriesTerms.sweep`) takes them all: each order sums
    its own rows (up to the early stop that order makes), so its values and
    flag are bit for bit those of evaluating the same coefficients truncated
    to that order.  Every order comes from one cumulative sum down the
    orders, each point summed over its kept rows in ascending order.
    An order whose solve fails reports its error, and the next order down
    solves again, so no order fails for a higher one.  Returns (n, values,
    any_flagged, err) per order, err set to an exception when that order
    failed, as a list: a span around the sweep holds its solve.
    """
    out, orders = [], sorted((int(n) for n in n_list), reverse=True)
    for i, n in enumerate(orders):
        try:
            terms = _SOLVE[geometry_of(variant)](variant, data, tau, beta, n, xs, mode)
        except (OverflowError, ValueError) as exc:
            out.append((n, None, True, exc))
            continue
        values, flagged = terms.sweep(orders[i:])
        out.extend(zip(orders[i:], values, flagged.tolist(), [None] * len(values)))
        break
    return out


# --- audit ---------------------------------------------------------------------

_AUDIT_FULL_ORDER = 40

# exact-truncation Gaussian configurations (width a = 1) per variant:
# (tau, beta, probes, full order); C variants also get an off-center probe
# checked at full order, which is where the published CI-C constants break.
_AUDIT_SETUP = {
    "CD-A": (0.5, 1.0, (-1.3, 0.0, 0.8, 2.1), _AUDIT_FULL_ORDER),
    "CD-B": (0.4, 0.6, (-1.3, 0.0, 0.8, 2.1), _AUDIT_FULL_ORDER),
    "CD-C": (0.5, 1.0, (0.0,), _AUDIT_FULL_ORDER),
    "CI-A": (0.3, 1.0, (-1.3, 0.0, 0.8, 2.1), _AUDIT_FULL_ORDER),
    "CI-B": (0.3, 1.0, (-1.3, 0.0, 0.8, 2.1), 60),  # subgeometric at the outer probe
    "CI-C": (0.3, 1.0, (0.0,), _AUDIT_FULL_ORDER),
    "PD-A": (0.5, 1.0, (0.0, 0.7, 1.6, 2.5), _AUDIT_FULL_ORDER),
    "PD-B": (0.4, 0.6, (0.0, 0.7, 1.6, 2.5), _AUDIT_FULL_ORDER),
    "PD-C": (0.5, 1.0, (0.0,), _AUDIT_FULL_ORDER),
    "PI-A": (0.3, 1.0, (0.0, 0.7, 1.6, 2.5), _AUDIT_FULL_ORDER),
    "PI-B": (0.3, 1.3, (0.0, 0.7, 1.6, 2.5), _AUDIT_FULL_ORDER),
    "PI-C": (0.3, 1.0, (0.0,), _AUDIT_FULL_ORDER),
}

_AUDIT_TOL_EXACT = 1e-9     # N in {0, 1, 2} at the exact-truncation config
_AUDIT_TOL_FULL = 1e-8      # off-center / full-order convergence checks
_OFF_CENTER_PROBE = 1.0


def run_audit(config: StudyConfig) -> StudyReport:
    """Certify all 12 series variants at N in {0, 1, 2} against the oracle.

    Each variant takes one grid solve at its full order (a C variant's
    off-center probe is one more point of it), and every audited order, the
    full one included, is a truncation of that one term matrix, all read in
    one call as in an order sweep.  In oracle_validated mode every variant must pass.  In
    paper_literal mode the C variants fail by their documented constant
    ratios, which the report records in metadata["literal_value_ratios"]
    (the truncated-value ratio at the exact-truncation configuration, from
    the same coefficients in both constants modes).
    """
    if config.study_kind != "audit":
        raise ValueError("config.study_kind must be 'audit'")
    mode = config.constants_mode
    rows: list[StudyRow] = []
    ratios: dict[str, float] = {}
    for variant, row in VARIANTS.items():
        tau, beta, probes, full_order = _AUDIT_SETUP[variant]
        data, truth = _problem(variant, Gaussian(width_a=1.0), tau)
        truth_vals = np.atleast_1d(truth(np.asarray(probes)))
        scale = float(np.max(np.abs(truth_vals)))
        points = np.asarray(probes + ((_OFF_CENTER_PROBE,) if row.pointwise else ()))
        on_probes = slice(len(probes))
        orders = (0, 1, 2, full_order)
        t0 = time.perf_counter()
        series = _SOLVE[row.geometry](variant, data, tau, beta, full_order, points, mode)
        values, flagged = series.sweep(orders, on_probes)
        errs = dict(zip(orders, (np.max(np.abs(values[:, on_probes] - truth_vals), axis=1) / scale).tolist()))
        for n, diverged in zip(orders, flagged.tolist()):
            rows.append(StudyRow(variant, n, beta, 0.0, errs[n], errs[n], diverged, "",
                                 (time.perf_counter() - t0) * 1e3))
        if row.weighted:
            # no exact-truncation configuration exists for the weighted
            # moments; certified by strict error decrease plus full-order
            # convergence to the oracle
            passed = errs[2] < 0.8 * errs[0] and errs[full_order] <= _AUDIT_TOL_FULL
        else:
            passed = all(errs[n] <= _AUDIT_TOL_EXACT for n in (0, 1, 2))
        if row.pointwise:
            # value ratio literal/validated of the N=2 truncation at center:
            # its three kept coefficients weighted by each mode's constants
            # and summed as the series sums one point
            params = KernelParams(tau=tau, beta=beta)
            kept = np.reshape(series.coeffs[:3], (3, -1))[:, 0]
            with np.errstate(over="ignore", invalid="ignore"):
                v_ok, v_lit = (np.sum(row.kappa(params, m, 2) * kept) for m in CONSTANTS_MODES)
            ratios[variant] = float(v_lit / v_ok)
            off_err = float(abs(values[-1, -1] - np.atleast_1d(truth(points[-1:]))[0])) / scale
            passed = passed and off_err <= _AUDIT_TOL_FULL
        for audited in rows[-len(orders):]:
            audited.status = "pass" if passed else "fail"
    metadata = _base_metadata(config)
    metadata["tolerances"] = {"exact": _AUDIT_TOL_EXACT, "full": _AUDIT_TOL_FULL}
    if ratios:
        metadata["literal_value_ratios"] = ratios
    return StudyReport("audit", metadata, rows).finalize()


def expected_audit_statuses(mode: str) -> dict:
    """The documented pass/fail table per constants mode (the errata guard)."""
    # the published constants differ from the validated ones for the C variants only
    literal = mode != "oracle_validated"
    return {v: "fail" if literal and row.pointwise else "pass" for v, row in VARIANTS.items()}


# --- sampled-data scaffolding -----------------------------------------------------

def _study_variants(config: StudyConfig) -> tuple:
    return config.variants or _STUDY_VARIANTS[config.study_kind, config.geometry]


def _sweep_rows(config: StudyConfig, variant: str, data, beta: float, truth: np.ndarray, delta: float = 0.0) -> list:
    """One StudyRow per order of config.n_range: the sweep of one variant at
    config.tau and beta on the compare grid against truth, every order's
    errors from one difference matrix."""
    norms = _norms(truth)
    t0 = time.perf_counter()
    swept = _sweep_orders(variant, data, config.tau, beta, config.n_range, _COMPARE_GRID[config.geometry],
                          config.constants_mode)
    built = [vals for _, vals, _, exc in swept if exc is None]
    errors = zip(*_errors(np.reshape(built, (-1, truth.size)), truth, norms))
    rows = []
    for n, _, diverged, exc in swept:
        if exc is not None:
            err_l2 = err_max = float("nan")
            status = f"error:{type(exc).__name__}"
        else:
            err_l2, err_max = next(errors)
            status = "ok"
            if not (math.isfinite(err_l2) and math.isfinite(err_max)):
                status = "error:nonfinite"
        rows.append(StudyRow(variant, int(n), beta, delta, err_l2, err_max, diverged, status,
                             (time.perf_counter() - t0) * 1e3))
        t0 = time.perf_counter()
    return rows


def _semi_convergence_summary(rows) -> dict:
    """Per (variant, delta): the minimizing order and the U-shape indicator."""
    summary = {}
    by_key: dict = {}
    for row in rows:
        if row.status != "ok":
            continue
        by_key.setdefault((row.variant, row.delta), []).append(row)
    for (variant, delta), group in by_key.items():
        group.sort(key=lambda r: r.n)
        errs = {r.n: r.error_l2 for r in group}
        n_star = min(errs, key=errs.get)
        lo_n, hi_n = min(errs), max(errs)
        interior = (
            lo_n < n_star < hi_n
            and errs[n_star] < errs[lo_n]
            and errs[n_star] < errs[hi_n]
        )
        summary[f"{variant}@delta={delta:.17g}"] = {
            "n_star": int(n_star),
            "err_at_n_star": errs[n_star],
            "err_at_first": errs[lo_n],
            "err_at_last": errs[hi_n],
            "u_shape": bool(interior and delta > 0.0),
        }
    return summary


def run_noise_study(config: StudyConfig) -> StudyReport:
    """Reconstruction error under additive i.i.d. Gaussian grid noise.

    Each delta perturbs the clean samples as `inverse --noise` does, with a
    fresh stream of the config's seed: one noise shape, scaled by each
    delta, so rows across noise levels share the same realization.
    """
    if config.study_kind != "noise":
        raise ValueError("config.study_kind must be 'noise'")
    u, grid = _EVOLVE[config.geometry](config.profile, config.tau), config.grid
    clean = Sampled1D.from_function(u, grid.lo, grid.hi, grid.n)
    beta = config.beta_range[0] if config.beta_range else NOISE_STUDY_BETA[config.geometry]
    truth = config.profile(_COMPARE_GRID[config.geometry])
    rows: list = []
    for delta in config.delta_range:
        data = clean.with_noise(delta, np.random.default_rng(config.seed))
        for variant in _study_variants(config):
            rows.extend(_sweep_rows(config, variant, data, 0.0 if variant == CLASSICAL else beta, truth, delta))
    metadata = _base_metadata(config)
    metadata["beta_used"] = beta
    report = StudyReport("noise", metadata, rows).finalize()
    metadata["semi_convergence"] = _semi_convergence_summary(report.rows)
    return report


def run_classical_compare(config: StudyConfig) -> StudyReport:
    """CI-classical versus CI-A on identical noisy data."""
    if config.study_kind != "classical_compare":
        raise ValueError("config.study_kind must be 'classical_compare'")
    if config.geometry != "line":
        raise ValueError("the classical baseline exists on the line only")
    cfg = replace(config, study_kind="noise", variants=("CI-A", "CI-classical"))
    report = run_noise_study(cfg)
    report.study_kind = "classical_compare"
    report.metadata["study_kind"] = "classical_compare"
    return report


def run_convergence(config: StudyConfig) -> StudyReport:
    """Error versus truncation order against the forward oracle."""
    if config.study_kind != "convergence":
        raise ValueError("config.study_kind must be 'convergence'")
    truth = _ORACLE[config.geometry](config.profile, config.tau, _COMPARE_GRID[config.geometry])
    scale = _SCALE_ESTIMATE[config.geometry](config.profile)
    rows: list = []
    for variant in _study_variants(config):
        beta = config.beta_range[0] if config.beta_range else default_beta(variant, scale, config.tau)
        rows.extend(_sweep_rows(config, variant, config.profile, beta, truth))
    metadata = _base_metadata(config)
    return StudyReport("convergence", metadata, rows).finalize()


def run_beta_map(config: StudyConfig) -> StudyReport:
    """Error and divergence flag over an explicit grid of shifts, at the last
    listed order: one order sweep per (variant, shift)."""
    if config.study_kind != "beta_map":
        raise ValueError("config.study_kind must be 'beta_map'")
    last = replace(config, n_range=config.n_range[-1:])
    rows: list = []
    for variant in _study_variants(config):
        data, truth = _problem(variant, config.profile, config.tau)
        truth = truth(_COMPARE_GRID[config.geometry])
        for beta in config.beta_range:
            rows.extend(_sweep_rows(last, variant, data, float(beta), truth))
    metadata = _base_metadata(config)
    return StudyReport("beta_map", metadata, rows).finalize()


_RUNNERS = {
    "audit": run_audit,
    "convergence": run_convergence,
    "beta_map": run_beta_map,
    "noise": run_noise_study,
    "classical_compare": run_classical_compare,
}


def run_study(config: StudyConfig) -> StudyReport:
    return _RUNNERS[config.study_kind](config)
