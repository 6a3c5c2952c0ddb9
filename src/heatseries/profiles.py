"""Initial/terminal data carriers.

`Gaussian`, `Mixture` and `Bump` are closed-form profiles (the ground-truth
generators); `Sampled1D` carries a field known only on a uniform grid, the
data type every inverse study perturbs with noise.  Profiles are plain
callables on ndarrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AnalyticProfile",
    "Bump",
    "Gaussian",
    "Mixture",
    "Sampled1D",
    "estimate_scale_line",
    "estimate_scale_polar",
    "parse_profile",
    "profile_support",
]


def _check_finite_params(profile) -> None:
    for name, value in vars(profile).items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class Gaussian:
    """amplitude * exp(-(x-center)^2 / (4 width_a)); width_a is time-like."""

    width_a: float
    center: float = 0.0
    amplitude: float = 1.0

    def __post_init__(self):
        if not (self.width_a > 0.0):
            raise ValueError(f"width_a must be positive, got {self.width_a}")
        _check_finite_params(self)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.amplitude * np.exp(-((x - self.center) ** 2) / (4.0 * self.width_a))

    @property
    def sigma(self) -> float:
        """Standard-deviation-like scale sqrt(2 a)."""
        return math.sqrt(2.0 * self.width_a)


@dataclass(frozen=True)
class Mixture:
    components: tuple[Gaussian, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("mixture needs at least one component")
        object.__setattr__(self, "components", tuple(self.components))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for g in self.components:
            out += g(x)
        return out


@dataclass(frozen=True)
class Bump:
    """Smooth compactly supported bump: amp * exp(1 - R^2/(R^2 - (x-c)^2))."""

    center: float
    radius: float
    amplitude: float = 1.0

    def __post_init__(self):
        if not (self.radius > 0.0):
            raise ValueError(f"radius must be positive, got {self.radius}")
        _check_finite_params(self)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        s2 = ((x - self.center) / self.radius) ** 2
        out = np.zeros_like(x)
        inside = s2 < 1.0
        out[inside] = self.amplitude * np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
        return out


AnalyticProfile = Gaussian | Mixture | Bump


@dataclass
class Sampled1D:
    """Values on a uniform grid over [lo, hi]; zero outside, linear between.

    Zero extension keeps the integral operators well-defined on compactly
    recorded data without inventing values.
    """

    lo: float
    hi: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 2:
            raise ValueError("need a 1-D array of at least 2 samples")
        if not (self.lo < self.hi):
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def n_nodes(self) -> int:
        return self.values.size

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.n_nodes - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n_nodes)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.interp(x, self.nodes, self.values, left=0.0, right=0.0)

    @classmethod
    def from_function(cls, f, lo: float, hi: float, n_nodes: int) -> "Sampled1D":
        nodes = np.linspace(lo, hi, n_nodes)
        return cls(lo, hi, np.asarray(f(nodes), dtype=float))

    def with_noise(self, delta: float, rng: np.random.Generator) -> "Sampled1D":
        """Additive i.i.d. Gaussian perturbation of standard deviation delta."""
        if delta < 0.0:
            raise ValueError("noise level must be non-negative")
        noisy = self.values + delta * rng.standard_normal(self.n_nodes)
        return Sampled1D(self.lo, self.hi, noisy)


def profile_support(data, radius_sigmas: float = 12.0) -> tuple[float, float]:
    """Interval outside which the data is negligible (or exactly zero)."""
    if isinstance(data, Gaussian):
        r = radius_sigmas * data.sigma
        return data.center - r, data.center + r
    if isinstance(data, Mixture):
        spans = [profile_support(g, radius_sigmas) for g in data.components]
        return min(s[0] for s in spans), max(s[1] for s in spans)
    if isinstance(data, Bump):
        return data.center - data.radius, data.center + data.radius
    if isinstance(data, Sampled1D):
        return data.lo, data.hi
    raise TypeError(f"unsupported data {data!r}")


def _moments_012(data, polar: bool) -> tuple[float, float, float]:
    """m0, m1, m2 by the trapezoid rule; non-finite where they overflow
    (the estimators reject them)."""
    lo, hi = profile_support(data)
    if polar:
        lo = max(lo, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.linspace(lo, hi, 4001)
        w = np.abs(data(x)) * (x if polar else 1.0)
        m0 = float(np.trapezoid(w, x))
        m1 = float(np.trapezoid(w * x, x))
        m2 = float(np.trapezoid(w * x * x, x))
    return m0, m1, m2


def estimate_scale_line(data) -> float:
    """Time-like width estimate: central second moment of |f| over 2.

    Exact for a pure Gaussian of width a (its variance as a density is 2a).
    """
    m0, m1, m2 = _moments_012(data, polar=False)
    if not (m0 > 0.0) or not math.isfinite(m0):
        raise ValueError("cannot estimate a scale from (near-)zero-mass data")
    mean = m1 / m0
    var = m2 / m0 - mean * mean
    if not (var > 0.0) or not math.isfinite(var):
        raise ValueError("non-finite or degenerate second moment")
    return 0.5 * var


def estimate_scale_polar(data) -> float:
    """Radial analogue: second moment of xi |f| over 4 (exact for e^{-r^2/4a})."""
    m0, _, m2 = _moments_012(data, polar=True)
    if not (m0 > 0.0) or not math.isfinite(m0):
        raise ValueError("cannot estimate a scale from (near-)zero-mass data")
    ratio = m2 / m0
    if not (ratio > 0.0) or not math.isfinite(ratio):
        raise ValueError("non-finite radial second moment")
    return 0.25 * ratio


# --- profile mini-language -------------------------------------------------
#
#   gaussian:a=1,center=0,amp=1
#   bump:center=0,radius=1,amp=1
#   mixture:[a=1,center=0,amp=1; a=0.5,center=2,amp=0.4]
#
# Flat key=value pairs; a mixture is a ;-separated list of gaussian bodies.

def _parse_kv(body: str, what: str) -> dict:
    out = {}
    for part in body.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad {what} spec: expected key=value, got {part!r}")
        key, val = part.split("=", 1)
        try:
            out[key.strip()] = float(val)
        except ValueError:
            raise ValueError(f"bad {what} value in {part!r}") from None
    return out


def _gaussian_from_kv(kv: dict) -> Gaussian:
    known = {"a", "center", "amp"}
    unknown = set(kv) - known
    if unknown:
        raise ValueError(f"unknown gaussian keys {sorted(unknown)}")
    if "a" not in kv:
        raise ValueError("gaussian spec needs a=<width>")
    return Gaussian(width_a=kv["a"], center=kv.get("center", 0.0), amplitude=kv.get("amp", 1.0))


def parse_profile(text: str) -> AnalyticProfile:
    """Parse the CLI profile mini-language."""
    text = text.strip()
    if ":" not in text:
        raise ValueError(f"profile spec needs kind:args, got {text!r}")
    kind, body = text.split(":", 1)
    kind = kind.strip().lower()
    if kind == "gaussian":
        return _gaussian_from_kv(_parse_kv(body, "gaussian"))
    if kind == "bump":
        kv = _parse_kv(body, "bump")
        unknown = set(kv) - {"center", "radius", "amp"}
        if unknown:
            raise ValueError(f"unknown bump keys {sorted(unknown)}")
        if "radius" not in kv:
            raise ValueError("bump spec needs radius=<r>")
        return Bump(center=kv.get("center", 0.0), radius=kv["radius"], amplitude=kv.get("amp", 1.0))
    if kind == "mixture":
        body = body.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError("mixture spec must be mixture:[...;...]")
        comps = []
        for chunk in body[1:-1].split(";"):
            if chunk.strip():
                comps.append(_gaussian_from_kv(_parse_kv(chunk, "mixture component")))
        return Mixture(tuple(comps))
    raise ValueError(f"unknown profile kind {kind!r}")


def format_profile(profile: AnalyticProfile) -> str:
    """Inverse of parse_profile, used for config echoes."""
    if isinstance(profile, Gaussian):
        return f"gaussian:a={profile.width_a:.17g},center={profile.center:.17g},amp={profile.amplitude:.17g}"
    if isinstance(profile, Bump):
        return f"bump:center={profile.center:.17g},radius={profile.radius:.17g},amp={profile.amplitude:.17g}"
    if isinstance(profile, Mixture):
        parts = [
            f"a={g.width_a:.17g},center={g.center:.17g},amp={g.amplitude:.17g}"
            for g in profile.components
        ]
        return "mixture:[" + "; ".join(parts) + "]"
    raise TypeError(f"unsupported profile {profile!r}")
