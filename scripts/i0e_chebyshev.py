"""The Chebyshev coefficients of the scaled Bessel function e^{-x} I0(x).

    python3 scripts/i0e_chebyshev.py

prints the two tuples that `heatseries.specfun` embeds:

* _I0E_LOW:  e^{-x} I0(x)          = sum_k c_k T_k(t), t = x/4 - 1,  0 <= x <= 8;
* _I0E_HIGH: sqrt(x) e^{-x} I0(x)  = sum_k c_k T_k(t), t = 16/x - 1, x >= 8.

Each series is interpolated at 64 Chebyshev nodes of the first kind, in
mpmath at 40 digits, and cut after its last coefficient of magnitude at
least 1e-18 (below double precision's resolution of either function,
whose values on its range lie in [0.16, 1] and [0.39, 0.41]); c_0 is
already halved.  The aliasing of the discrete fit touches only
coefficients from T_{128-k} on, far below the cut.  The run takes under
a second; tests/test_specfun.py reruns it and checks the embedded
tuples digit for digit.
"""

from __future__ import annotations

import mpmath

NODES = 64
DIGITS = 40
CUT = mpmath.mpf("1e-18")


def _chebyshev(f) -> tuple:
    """c_0 .. c_m of f on [-1, 1] (c_0 halved), cut after the last |c_k| >= CUT."""
    thetas = [mpmath.pi * (j + mpmath.mpf(0.5)) / NODES for j in range(NODES)]
    values = [f(mpmath.cos(th)) for th in thetas]
    coeffs = [2 * mpmath.fsum(v * mpmath.cos(k * th) for v, th in zip(values, thetas)) / NODES
              for k in range(NODES)]
    coeffs[0] /= 2
    last = max(k for k, c in enumerate(coeffs) if abs(c) >= CUT)
    return tuple(float(c) for c in coeffs[: last + 1])


def coefficients() -> tuple:
    """(_I0E_LOW, _I0E_HIGH): both series' coefficients as float64 tuples."""
    with mpmath.workdps(DIGITS):
        def low(t):
            x = 4 * (t + 1)
            return mpmath.exp(-x) * mpmath.besseli(0, x)

        def high(t):
            x = 16 / (t + 1)
            return mpmath.sqrt(x) * mpmath.exp(-x) * mpmath.besseli(0, x)

        return _chebyshev(low), _chebyshev(high)


def main() -> None:
    for name, coeffs in zip(("_I0E_LOW", "_I0E_HIGH"), coefficients()):
        print(f"{name} = (")
        for k in range(0, len(coeffs), 3):
            print("    " + " ".join(f"{c!r}," for c in coeffs[k : k + 3]))
        print(f")  # c_0 .. c_{len(coeffs) - 1}")


if __name__ == "__main__":
    main()
