"""Closed-form heat evolutions and sample-file writers.

Everything here is computed from the heat kernel's closed forms, apart from
the program under test:

* line: exp(-(x-c)^2/(4a)) evolves to sqrt(a/(a+t)) exp(-(x-c)^2/(4(a+t)));
* polar, centred: exp(-r^2/(4a)) evolves to (a/(a+t)) exp(-r^2/(4(a+t))).

A profile is a tuple of (a, center, amp) Gaussian components, and its text
form is the program's profile mini-language.
"""

from __future__ import annotations

import math

import numpy as np


def profile_text(components) -> str:
    """The mini-language form of a Gaussian or a Gaussian mixture."""
    if len(components) == 1:
        (a, c, amp), = components
        return f"gaussian:a={a!r},center={c!r},amp={amp!r}"
    body = "; ".join(f"a={a!r},center={c!r},amp={amp!r}" for a, c, amp in components)
    return f"mixture:[{body}]"


def line_field(components, t: float, x) -> np.ndarray:
    """The line solution at time t >= 0 for Gaussian-mixture initial data."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for a, c, amp in components:
        out += amp * math.sqrt(a / (a + t)) * np.exp(-((x - c) ** 2) / (4.0 * (a + t)))
    return out


def polar_field(components, t: float, r) -> np.ndarray:
    """The radial solution at time t >= 0 for centred radial Gaussians."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    for a, c, amp in components:
        if c != 0.0:
            raise ValueError("radial Gaussians must be centred")
        out += amp * (a / (a + t)) * np.exp(-(r * r) / (4.0 * (a + t)))
    return out


def evolved(components, t: float):
    """Components of the line solution at time t."""
    return tuple((a + t, c, amp * math.sqrt(a / (a + t))) for a, c, amp in components)


def evolved_polar(components, t: float):
    """Components of the radial solution at time t (centred components only)."""
    return tuple((a + t, c, amp * a / (a + t)) for a, c, amp in components)


def grid(text: str) -> np.ndarray:
    """The points of a lo:hi:n evaluation grid."""
    lo, hi, n = text.split(":")
    n = int(n)
    return np.array([float(lo)]) if n == 1 else np.linspace(float(lo), float(hi), n)


def samples_text(xs: np.ndarray, values: np.ndarray) -> str:
    """A sample file: one `x,value` pair per line at 17 significant digits."""
    lines = ["# written by perfbench", "x,value"]
    lines += [f"{x:.17g},{v:.17g}" for x, v in zip(xs, values)]
    return "\n".join(lines) + "\n"
