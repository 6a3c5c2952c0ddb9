"""Second-opinion oracles: the specfun batches against scipy.special.

scipy evaluates the same functions by its own code (Cephes and its own
recurrences), so agreement within a few ulps of each function's natural
scale is independent evidence.  Each tolerance sits next to its assertion,
with the largest deviation measured on an x86-64 host.
"""

import math

import numpy as np
import pytest

from heatseries import specfun

special = pytest.importorskip("scipy.special")


def test_hermite_batch_matches_eval_hermite():
    n, z = 60, np.linspace(-10.0, 10.0, 401)
    ours = specfun.hermite_batch(n, z)
    for j in range(n + 1):
        # |H_j(z)| <= 1.09 sqrt(2^j j!) e^{z^2/2} (Cramer's inequality), so the
        # error is measured on that envelope, not relative to values near a
        # zero; measured at most 8e-15 of it
        envelope = math.sqrt(2.0 ** j * math.factorial(j)) * np.exp(z * z / 2.0)
        assert np.all(np.abs(ours[j] - special.eval_hermite(j, z)) <= 1e-13 * envelope)


@pytest.mark.parametrize("dtype", [float, np.longdouble])
def test_w_poly_batch_matches_eval_laguerre(dtype):
    n, z = 40, np.linspace(0.0, 8.0, 161)
    ours = specfun.w_poly_batch(n, z.astype(dtype)).astype(float)
    for j in range(n + 1):
        pref = (-1) ** j * math.factorial(2 * j) / math.factorial(j)
        # W_j(z) = (-1)^j (2j)!/j! L_j(z^2) and |L_j(y)| <= e^{y/2}; measured
        # at most 1.8e-14 of (2j)!/j! e^{z^2/2}
        envelope = abs(pref) * np.exp(z * z / 2.0)
        assert np.all(np.abs(ours[j] - pref * special.eval_laguerre(j, z * z)) <= 2e-13 * envelope)


def test_bessel_i0_scaled_matches_i0e():
    x = np.concatenate([np.linspace(-40.0, 50.0, 1801), np.geomspace(1e-8, 1e5, 500)])
    # relative error 2e-15 over both Chebyshev ranges (seam at 8) and far
    # past I0's overflow: Cephes sums the same two expansions with its own
    # coefficients, each within about 6e-16 of the truth; measured at most
    # 2.8e-16
    assert np.all(np.abs(specfun.bessel_i0_scaled(x) - special.i0e(x)) <= 2e-15 * special.i0e(x))


def test_erfc_matches_scipy_erfc():
    x = np.concatenate([np.linspace(-10.0, 30.0, 40001), np.geomspace(1e-300, 1.0, 301)])
    ours, ref = specfun.erfc(x), special.erfc(x)
    # 4 eps absolute everywhere, 1e-13 relative while erfc >= 1e-300
    # (measured: 2 eps, and 5.7e-14 of erfc near its underflow, where Cephes
    # is the less accurate of the two: against math.erfc it is 3.2 eps)
    assert np.all(np.abs(ours - ref) <= 4.0 * np.finfo(float).eps)
    big = ref >= 1e-300
    assert np.all(np.abs(ours - ref)[big] <= 1e-13 * ref[big])
