"""Initial/terminal data carriers.

`Gaussian`, `Mixture` and `Bump` are closed-form profiles (the ground-truth
generators); `Sampled1D` carries a field known only on a uniform grid, the
data type every inverse study perturbs with noise.  Profiles are plain
callables on ndarrays.

Each data kind answers for its own facts through methods that the solvers
ask for by name (`data_fact`); where a kind has no such method, or it
returns None, the caller refuses the data or takes the adaptive quadrature
on its own window cut to the data's support (`data_integral`, the package's
one call of `quad.integrate_vec`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quad import BLOCK_NODES, TRUNCATION_RADIUS_SIGMAS, integrate_vec
from .specfun import _RSQRT_PI_LD, erfc, hermite_batch, ierfc, w_poly_batch

__all__ = [
    "AnalyticProfile",
    "Bump",
    "Gaussian",
    "Mixture",
    "Sampled1D",
    "data_fact",
    "data_integral",
    "estimate_scale_line",
    "estimate_scale_polar",
    "parse_profile",
    "profile_support",
]


_CACHE_BLOCK = 1 << 15  # kernel values per closed-form block of the line oracle: its arrays stay in cache


def _check_finite_params(profile) -> None:
    for name, value in vars(profile).items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _finite(moments: np.ndarray | None, center=0.0) -> np.ndarray | None:
    """Closed-form moments as given; OverflowError where one is not finite.
    About an array of centres (one row each), NaN rows where they are not."""
    if moments is None:
        return None
    bad = ~np.isfinite(moments)
    if np.ndim(center):
        moments[np.any(bad, axis=-1)] = np.nan
    elif np.any(bad):
        raise OverflowError(f"closed-form moments of the data are not finite at order {moments.shape[-1] - 1}")
    return moments


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
        with np.errstate(over="ignore"):  # far out the square is inf and the value 0
            return self.amplitude * np.exp(-((x - self.center) ** 2) / (4.0 * self.width_a))

    @property
    def sigma(self) -> float:
        """Standard-deviation-like scale sqrt(2 a)."""
        return math.sqrt(2.0 * self.width_a)

    def hermite_moments(self, root: float, n: int, center=0.0, weighted: bool = False) -> np.ndarray:
        """int H_k((xi - center)/(2R)) self(xi) dxi, k = 0..n, R = root, in
        closed form.  The generating function e^{2yt - t^2} of H_k (DLMF
        18.12.15) integrates against A e^{-(xi - mu)^2/(4a)} to 2A sqrt(pi a)
        e^{2 y0 t - gamma^2 t^2}, so M_k = 2A sqrt(pi a) P_k with P_0 = 1,
        P_1 = 2 y0 and P_{k+1} = 2 y0 P_k - 2k gamma^2 P_{k-1}, where y0 =
        (mu - center)/(2R) and gamma^2 = 1 - a/R^2 of either sign.
        weighted (CI-B, center 0): the weight e^{-xi^2/(4R^2)}/(2R sqrt(pi))
        times the data is the Gaussian of width a' = aR^2/(a + R^2), centre
        mu R^2/(a + R^2) and amplitude A e^{-mu^2/(4(a + R^2))}/(2R sqrt(pi)).
        OverflowError where a moment is not finite.

        center may also be an array of any centres (`point_moments`): one
        recurrence runs over all of them (`_closed_moments`), one row per
        centre, the same bits as the call about that centre alone, and NaN
        where it is not finite."""
        return _closed_moments((self,), root, n, center, weighted)

    def _generating(self, root: float, center, weighted: bool, dtype=float) -> tuple:
        """(2A sqrt(pi a), 2 y0, 2 gamma^2) of `hermite_moments`, 2 y0 and
        2 gamma^2 in dtype."""
        a, mu, r = dtype(self.width_a), dtype(self.center), dtype(root)
        r2, amp = r * r, self.amplitude
        if weighted:
            amp *= math.exp(-mu * mu / (4.0 * (a + r2))) / (2.0 * root * math.sqrt(math.pi))
            a, mu = a * (r2 / (a + r2)), mu * (r2 / (a + r2))
        return 2.0 * amp * math.sqrt(math.pi * a), (mu - center) / r, 2.0 * (1.0 - a / r2)

    def point_moments(self, root: float, n: int, x: np.ndarray) -> np.ndarray:
        """The moments about each point of x itself, one row per point, NaN
        where they are not finite (`hermite_moments`): the line C
        coefficients need no lattice of centres."""
        return self.hermite_moments(root, n, x)

    def radial_moments(self, root: float, n: int, dtype=float) -> np.ndarray | None:
        """int_0^inf xi W_j(xi/(2R)) self(xi) dxi, j = 0..n, R = root, in
        closed form for a centred Gaussian, in dtype; None off centre.  With
        W_j(z) = (-1)^j (2j)!/j! L_j(z^2) and the Laplace transform of L_j
        (DLMF 18.17.34), M_j = 2AR^2 (-1)^j (2j)!/j! (s - 1)^j/s^{j+1}, s =
        R^2/a: M_0 = 2Aa and M_{j+1} = -2(2j + 1)(1 - a/R^2) M_j, the ratios
        multiplied up in dtype.  OverflowError where a moment is not finite."""
        if self.center != 0.0:
            return None
        q = 1 - dtype(self.width_a) / (dtype(root) * dtype(root))
        factors = np.empty(n + 1, dtype=dtype)  # M_0, then M_{j+1}/M_j
        with np.errstate(over="ignore", invalid="ignore"):
            factors[0] = 2 * dtype(self.amplitude) * dtype(self.width_a)
            factors[1:] = np.arange(1, 2 * n, 2, dtype=dtype) * (-2 * q)
            return _finite(np.cumprod(factors))

    def evolved(self, tau: float, polar: bool = False) -> "Gaussian":
        """The data evolved to time tau: e^{-(x-c)^2/(4a)} becomes (a/(a+tau))^{d/2}
        e^{-(x-c)^2/(4(a+tau))}, d = 1 on the line and 2 in the plane (centred)."""
        a = self.width_a
        if not polar:
            return Gaussian(width_a=a + tau, center=self.center, amplitude=self.amplitude * math.sqrt(a / (a + tau)))
        if self.center != 0.0:
            raise ValueError("radial Gaussian data must be centered at r = 0")
        return Gaussian(width_a=a + tau, center=0.0, amplitude=self.amplitude * a / (a + tau))

    def derivs_at_zero(self, n: int) -> np.ndarray:
        """f^(j)(0), j = 0..n, via H_j and the chain rule; non-finite where a
        derivative overflows (the series check fails it)."""
        root = 2.0 * math.sqrt(self.width_a)
        y0 = -self.center / root
        h = hermite_batch(n, y0)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite term fails the series check
            powers = np.cumprod(np.r_[1.0, np.full(n, -1.0 / root)])  # (-1/root)^j, multiplied up
            return self.amplitude * math.exp(-(y0 * y0)) * powers * h


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

    def _sum(self, moments):
        """The components' moments summed in order; None if any is None."""
        total = None
        with np.errstate(over="ignore", invalid="ignore"):
            for m in moments:
                if m is None:
                    return None
                total = m if total is None else total + m
        return total

    def hermite_moments(self, root: float, n: int, center=0.0, weighted: bool = False) -> np.ndarray:
        """The components' `Gaussian.hermite_moments`, summed in order
        (`_closed_moments`)."""
        return _closed_moments(self.components, root, n, center, weighted)

    point_moments = Gaussian.point_moments

    def radial_moments(self, root: float, n: int, dtype=float) -> np.ndarray | None:
        """The components' `Gaussian.radial_moments`, summed in order; None
        if any component is off centre."""
        return _finite(self._sum(g.radial_moments(root, n, dtype) for g in self.components))

    def evolved(self, tau: float, polar: bool = False) -> "Mixture":
        """The components' `Gaussian.evolved`."""
        return Mixture(tuple(g.evolved(tau, polar) for g in self.components))

    def derivs_at_zero(self, n: int) -> np.ndarray:
        """The components' `Gaussian.derivs_at_zero`, summed in order."""
        return self._sum(g.derivs_at_zero(n) for g in self.components)


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
        with np.errstate(over="ignore"):  # far out the square is inf and the value 0
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
    recorded data without inventing values.  Being linear between its
    nodes, the data integrates by parts into slope-jump sums (`by_parts`),
    which every Gaussian-kernel integral on the line and the radial moments
    in the plane take while the Gaussian, or the moments' root, is no wider
    than the data (`narrower`).
    """

    lo: float
    hi: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 2:
            raise ValueError("need a 1-D array of at least 2 samples")
        if not (self.lo < self.hi and math.isfinite(self.hi - self.lo)):
            raise ValueError(f"need lo < hi with hi - lo finite, got [{self.lo}, {self.hi}]")

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

    def narrower(self, root: float) -> bool:
        """Whether a Gaussian of width 2 root (or the radial moments' 2 root)
        is no wider than the data, 2 root <= hi - lo, so that its slope-jump
        sum (`by_parts`) keeps its accuracy.  Across a wider one every kernel
        row varies little while the jumps sum to 0, and the sum cancels about
        (2 root/(hi - lo))^2-fold; the adaptive quadrature takes those
        integrals."""
        return 2.0 * root <= self.hi - self.lo

    def by_parts(self, rows, dtype=float, step: int = BLOCK_NODES, points=None, offsets=None) -> tuple | list:
        """(sum_i w_i G(xi_i), G(xi_0), G(xi_m)) for G = rows(nodes), whose last
        axis runs over the nodes: the parts of a kernel integral against the
        piecewise-linear data integrated by parts twice.  w = [s_0, diff(s),
        -s_{m-1}] are the slope jumps, s = diff(f)/diff(nodes) at the true node
        spacing, in dtype: the jumps of noisy data cancel massively in the sum.
        rows is called on blocks of at most step nodes (or of the given
        points, one per node), whose sums add in ascending order (np.dot for
        np.longdouble, matmul for float64, as quad._sums), and the end
        columns are copied out of the first and last blocks.  Where rows
        gives a list of arrays, one per kernel, the parts come back as a list
        of such triples.  With offsets, one per node, each sum gains a last
        axis: the sums against w and against w offsets.  Not-finite sums are
        left to the caller."""
        nodes, vals = self.nodes, self.values.astype(dtype)
        jumps = np.diff(np.diff(vals) / np.diff(nodes), prepend=0.0, append=0.0)
        if offsets is not None:
            jumps = np.stack([jumps, jumps * offsets], axis=-1)
        points = nodes if points is None else points
        dot = np.dot if jumps.dtype == np.longdouble else np.matmul
        parts = None
        for start in range(0, nodes.size, step):
            blocks = rows(points[start : start + step])
            several = isinstance(blocks, list)
            blocks = blocks if several else [blocks]
            if parts is None:
                parts = [[0.0, block[..., 0].copy(), None] for block in blocks]
            for part, block in zip(parts, blocks):
                part[0] = part[0] + dot(block, jumps[start : start + step])
                if start + step >= nodes.size:
                    part[2] = block[..., -1].copy()
            del blocks, block  # freed before the next block is evaluated
        return [tuple(part) for part in parts] if several else tuple(parts[0])

    def breakpoints(self) -> np.ndarray:
        """The nodes: the panel edges of a quadrature of the data."""
        return self.nodes

    def hermite_moments(self, root: float, n: int, center=0.0, weighted: bool = False) -> np.ndarray | None:
        """The moments M_k, k = 0..n, R = root, exact for the piecewise-linear
        interpolant up to rounding, from the slope jumps w and the end values
        (`by_parts`).  Plain, with y = (xi - center)/(2R) and int H_k dxi =
        R H_{k+1}/(k+1), integrating by parts twice leaves

            M_k = R^2/((k+1)(k+2)) sum_i w_i H_{k+2}(y_i)
                  + R/(k+1) [f_m H_{k+1}(y_m) - f_0 H_{k+1}(y_0)].

        center may also be an ascending array of centres on the node lattice
        (`lattice_centres`): one row of plain moments each, from one Hermite
        batch per block of nodes for all of them (`_lattice_parts`).

        weighted (CI-B, center 0): M_k = int H_k(y) e^{-y^2} data(xi) dxi/(2R
        sqrt(pi)).  With r_k = 2 phi_k/sqrt(pi), phi_k = H_k e^{-y^2} from
        phi_{k+1} = 2y phi_k - 2k phi_{k-1} (bounded, and an exact 0 where
        e^{-y^2} underflows), extended downward by r_{-1} = -erf y and r_{-2}
        = |y| + ierfc|y| (`_weighted_rows`), it leaves

            M_k = R sum_i w_i r_{k-2}(y_i) - [f_m r_{k-1}(y_m) - f_0 r_{k-1}(y_0)]/2,

        and M_0 is the line oracle at x = 0 and tau = R^2; None under a
        weight wider than the data (`narrower`).  The rows and the sums run
        in np.longdouble; OverflowError when a moment does not fit in
        float64.
        """
        if weighted and not self.narrower(root):
            return None
        ld = np.longdouble
        r = ld(root)

        def rows(nodes):
            y = (nodes.astype(ld) - center) / (2 * r)
            return _weighted_rows(n, y) if weighted else hermite_batch(n + 2, y)

        def failed():  # named at order n: the Hermite batch names its own, n + 2
            kind = "weighted moments" if weighted else "moments"
            return OverflowError(f"{kind} of the sampled data are not finite at order {n} about {center}")

        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # a non-finite moment raises below
            try:
                parts = self._lattice_parts(r, n + 2, center) if np.ndim(center) else [self.by_parts(rows, dtype=ld)]
            except OverflowError:
                raise failed() from None
            if weighted:  # rows r_{-2} .. r_{n-1}
                inner, outer, scale, end_scale = slice(0, n + 1), slice(1, None), r, ld(-0.5)
            else:  # rows H_0 .. H_{n+2}
                k1 = np.arange(1, n + 2, dtype=ld)  # k + 1
                inner, outer, scale, end_scale = slice(2, None), slice(1, n + 2), r * r / (k1 * (k1 + 1)), r / k1
            f0, fm = ld(self.values[0]), ld(self.values[-1])
            out = np.array([
                (scale * total[inner] + end_scale * (fm * last[outer] - f0 * first[outer])).astype(float)
                for total, first, last in parts
            ])
        if not np.all(np.isfinite(out)):
            raise failed()
        return out if np.ndim(center) else out[0]

    def _lattice_parts(self, r, n: int, centres: np.ndarray) -> list:
        """The parts (`by_parts`) of the rows H_0 .. H_n at (xi - c)/(2r), in
        np.longdouble, for each of the ascending centres c = p h on the node
        lattice, from one Hermite batch per block of nodes.

        The batch lies on the lattice: centre p at node i takes y = (lo + (i
        - p) h)/(2r), built from the integer i - p alone, so its rows are a
        window of the batch and its parts the same bits whichever centres
        share it.  The float nodes and the float centre lie off the lattice
        by d = (xi_i - lo - i h) - (c - p h), a few units in the last place,
        which the slope jumps of noisy data would amplify a thousandfold
        (measured: 5200 eps int|f_k| on 1601 nodes with noise 1e-3, order
        80); each part is corrected to first order, H_k(y + d/(2r)) = H_k(y)
        + k d H_{k-1}(y)/r, its sums taking a second column against w d."""
        ld = np.longdouble
        lo, h = ld(self.lo), ld(self.spacing)
        steps = np.rint(centres / self.spacing).astype(np.int64)
        index = np.arange(self.n_nodes)
        offsets = self.nodes.astype(ld) - (lo + index.astype(ld) * h)

        def rows(block):  # each centre's window on the nodes of the block
            j = np.arange(block[0] - steps[-1], block[-1] - steps[0] + 1)
            batch = hermite_batch(n, (lo + j.astype(ld) * h) / (2 * r))
            return [batch[:, steps[-1] - p : steps[-1] - p + block.size] for p in steps]

        slope = np.arange(1, n + 1, dtype=ld) / r  # dH_k/dxi = (k/r) H_{k-1}
        parts = []
        sums = self.by_parts(rows, dtype=ld, points=index, offsets=offsets)
        for (total, first, last), shift in zip(sums, centres.astype(ld) - steps.astype(ld) * h):
            corrected = total[:, 0].copy()
            corrected[1:] += slope * (total[:-1, 1] - shift * total[:-1, 0])
            first[1:] += slope * (offsets[0] - shift) * first[:-1]
            last[1:] += slope * (offsets[-1] - shift) * last[:-1]
            parts.append((corrected, first, last))
        return parts

    def lattice_centres(self, x: np.ndarray, step: float) -> np.ndarray:
        """Each point's nearest node of the line C lattice of the given step
        (series_cartesian `_centres`), the step snapped down to the data:
        a whole number s of node spacings h, or h/ceil(h/step) below one
        spacing.  So |x - c| <= step/2 still, x = 0 is its own centre, and
        with whole spacings every centre is p h, p = s round(x/(s h)) an
        integer, which `lattice_moments` recognises."""
        h = self.spacing
        if step < h:
            fine = h / math.ceil(h / step)
            return fine * np.round(x / fine)
        whole = math.floor(step / h)
        return h * (whole * np.round(x / (whole * h)))

    def lattice_moments(self, root: float, n: int, centres: np.ndarray) -> np.ndarray:
        """`hermite_moments` about each of the ascending centres, one row
        each, NaN where they are not finite (far from the data: those
        points' sums overflow as well).  Centres p h on the node lattice
        (`lattice_centres`) go in groups whose span is at most BLOCK_NODES
        spacings, one Hermite batch per group and node block; a group that
        fails retries its centres one at a time, so only a far centre's row
        is lost.  Any other finite centre takes a pass of its own."""
        h = self.spacing
        out = np.full((centres.size, n + 1), np.nan)
        with np.errstate(over="ignore", invalid="ignore"):
            steps = np.rint(centres / h)
            on = (np.abs(steps) <= 2.0 ** 52) & (steps * h == centres)
        pending = [np.array([k]) for k in np.flatnonzero(~on & np.isfinite(centres))]
        group = np.flatnonzero(on)
        while group.size:
            size = np.searchsorted(steps[group], steps[group[0]] + BLOCK_NODES, side="right")
            pending.append(group[:size])
            group = group[size:]
        while pending:
            group = pending.pop()
            try:
                out[group] = self.hermite_moments(root, n, centres[group] if on[group[0]] else float(centres[group[0]]))
            except OverflowError:
                if group.size > 1:
                    pending += [group[k : k + 1] for k in range(group.size)]
        return out

    def radial_moments(self, root: float, n: int, dtype=float) -> np.ndarray | None:
        """int_0^inf xi W_j(xi/(2R)) self(xi) dxi, j = 0..n, R = root, in
        dtype, exact for the piecewise-linear interpolant up to rounding, from
        the slope jumps w and the end values (`by_parts`).  With s = xi/(2R),
        W_j(z) = (-1)^j (2j)!/j! L_j(z^2) and int L_j = L_j - L_{j+1}, the
        first antiderivative of xi W_j(xi/(2R)) is 2R^2 [W_j + W_{j+1}/(2(2j
        + 1))](s) and the second 4R^3 [V_j + V_{j+1}/(2(2j + 1))](s), V_k =
        int_0^s W_k (`_radial_rows`).  Both vanish at xi = 0, so with V = 0
        and the end values taken as 0 at the nodes xi <= 0 (the data cut at
        0), integrating by parts twice leaves

            M_j = X_j + X_{j+1}/(2(2j + 1)),
            X_k = 4R^3 sum_i w_i V_k(s_i) + 2R^2 [f_m W_k(s_m) - f_0 W_k(s_0)].

        The rows and sums run in np.longdouble; OverflowError when a moment
        is not finite; None under a root wider than the data (`narrower`) or
        than its part at xi > 0 (measured on 1081 nodes on [-100, 8], noise
        1e-3: 8.2 eps int|f_j| at 2R = hi - lo)."""
        if not (self.narrower(root) and 2.0 * root <= self.hi):
            return None
        r = np.longdouble(root)
        f0, fm = np.where(self.nodes[[0, -1]] > 0.0, self.values[[0, -1]], 0.0)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite moment raises below
            try:
                (total, _, _), (_, first, last) = self.by_parts(lambda nodes: _radial_rows(n, nodes, r), dtype=np.longdouble)
            except OverflowError:  # the W batch names its own order, n + 1
                raise OverflowError(f"radial moments of the sampled data are not finite at order {n}") from None
            x = 4 * r * r * r * total + 2 * r * r * (fm * last - f0 * first)
            return _finite((x[:-1] + x[1:] / (2 * np.arange(1, 2 * n + 2, 2, dtype=np.longdouble))).astype(dtype))

    def line_kernel(self, tau: float, x: np.ndarray) -> np.ndarray | None:
        """The line oracle at the points x, exact for the piecewise-linear
        interpolant f^ up to rounding; None under a kernel wider than the
        data (`narrower`).  The kernel's second antiderivative in xi is
        sqrt(tau) (|z| + ierfc|z|), z = (xi - x)/(2 sqrt(tau)); integrating by
        parts twice against it, the |z| part sums to f^(x) exactly and leaves

            u(x) = f^(x) + sqrt(tau) sum_i w_i ierfc|z_i| + e(x),

        w the slope jumps (`by_parts`).  The end term e is -(f_0 erfc|z_0| +
        f_m erfc|z_m|)/2 for xi_0 <= x <= xi_m, (f_0 erfc z_0 - f_m erfc
        z_m)/2 left of the data and its mirror right of it.  Every term
        decays like e^{-z^2}, so nothing cancels far from the data.
        OverflowError when a value is not finite.  A block holds about
        _CACHE_BLOCK kernel values: at 121 points, blocks of 256 nodes run 2.5
        times faster than blocks of BLOCK_NODES (x86-64, numpy 2.4).
        """
        if not self.narrower(math.sqrt(tau)):
            return None
        nodes, vals = self.nodes, self.values
        scale = 2.0 * math.sqrt(tau)

        def rows(block):
            z = np.subtract(block[None, :], x[:, None])
            np.abs(z, out=z)
            z /= scale
            return ierfc(z)

        step = min(BLOCK_NODES, max(1, _CACHE_BLOCK // max(x.size, 1)))
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value raises below
            total, _, _ = self.by_parts(rows, step=step)
            first, last = (nodes[0] - x) / scale, (nodes[-1] - x) / scale
            ends = np.where(first > 0.0, vals[0], -vals[0]) * erfc(np.abs(first))
            ends += np.where(last < 0.0, vals[-1], -vals[-1]) * erfc(np.abs(last))
            out = self(x) + math.sqrt(tau) * total + 0.5 * ends
        if not np.all(np.isfinite(out)):
            raise OverflowError(f"line oracle of the sampled data is not finite at tau = {tau}")
        return out

    def derivs_at_zero(self, n: int) -> np.ndarray:
        """Central finite differences of orders 0..n at x = 0.

        Order j uses the minimal stencil of width 2*ceil(j/2)+1 at the raw grid
        spacing - deliberately unregularized so that noise amplification shows.
        """
        h = self.spacing
        i0 = int(round((0.0 - self.lo) / h))
        if not (0 <= i0 < self.n_nodes) or abs(self.nodes[i0]) > 0.25 * h:
            raise ValueError("sampled data must contain x = 0 as a grid node")
        vals = self.values
        out = np.empty(n + 1)
        out[0] = vals[i0]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # a non-finite derivative raises below
            diffs = np.zeros_like(vals)  # 2h times the first central difference
            diffs[1:-1] = vals[2:] - vals[:-2]
            for j in range(1, n + 1):
                # the 2m-th central difference over 2m+1 points, of vals (even
                # order) or of the first central differences (odd order)
                m, odd = divmod(j, 2)
                if i0 - m - odd < 0 or i0 + m + odd >= self.n_nodes:
                    raise ValueError(f"stencil for order {j} exceeds the grid")
                src = diffs if odd else vals
                acc, binom = 0.0, 1.0
                for k in range(2 * m + 1):
                    acc += ((-1.0) ** k) * binom * src[i0 + m - k]
                    binom *= (2 * m - k) / (k + 1)
                out[j] = acc / ((2.0 if odd else 1.0) * h ** (2 * m + odd))
        if not np.all(np.isfinite(out)):
            raise OverflowError("finite-difference derivatives overflowed")
        return out

    @classmethod
    def from_function(cls, f, lo: float, hi: float, n_nodes: int) -> "Sampled1D":
        nodes = np.linspace(lo, hi, n_nodes)
        return cls(lo, hi, np.asarray(f(nodes), dtype=float))

    def with_noise(self, delta: float, rng: np.random.Generator) -> "Sampled1D":
        """Additive i.i.d. Gaussian perturbation of standard deviation delta;
        an overflowing sample is infinite (the caller refuses or reports it)."""
        if delta < 0.0:
            raise ValueError("noise level must be non-negative")
        with np.errstate(over="ignore"):
            noisy = self.values + delta * rng.standard_normal(self.n_nodes)
        return Sampled1D(self.lo, self.hi, noisy)


# |2 y0| = |mu - centre|/R past which a component's moments take
# np.longdouble.  Far out the recurrence's terms stop cancelling, M_k nears
# int|H_k f|, and the float64 roundings of y0 and gamma^2 (each amplified
# about k-fold in P_k) and of the k steps reach 21 eps int|H_k f| by k = 80
# (measured about 12 R and 16 R from the data); up to 4 they stayed within
# 3.6 for k <= 80 on data of widths a from 0.4 R^2 to 2 R^2
FAR_Y0 = 4.0
GENERATING_BLOCK = 1 << 18  # values of the per-term rows a mixture keeps for one block of centres


def _closed_moments(components, root: float, n: int, center, weighted: bool) -> np.ndarray:
    """The Gaussian components' `hermite_moments` summed in order, about the
    centre or each of an array of centres (one row each), into one float64
    table (`_generating_rows`).  A centre beyond FAR_Y0 of any component
    runs the recurrence in np.longdouble, from 2 y0 and 2 gamma^2 in
    np.longdouble, as a row of an array call; every row is the bits of the
    call about its centre alone."""
    terms = [g._generating(root, center, weighted) for g in components]
    if not np.ndim(center):
        if all(abs(two_y0) <= FAR_Y0 for _, two_y0, _ in terms):
            return _finite(_generating_rows(n, terms, np.empty(n + 1)))
        return _finite(_closed_moments(components, root, n, np.array([center]), weighted)[0])
    far = np.abs(terms[0][1]) > FAR_Y0
    for _, two_y0, _ in terms[1:]:
        far |= np.abs(two_y0) > FAR_Y0
    rows = np.empty((n + 1, center.size))
    if not far.all():  # every centre in float64: the far ones are overwritten below
        _generating_rows(n, terms, rows)
    if far.any():
        terms = [g._generating(root, center[far], weighted, np.longdouble) for g in components]
        _generating_rows(n, terms, rows, None if far.all() else np.flatnonzero(far))
    return _finite(rows.T, center)


def _generating_rows(n: int, terms, out: np.ndarray, columns=None) -> np.ndarray:
    """out[:, columns] (all of out by default) = the sum in order over terms
    (scale, 2 y0, 2 gamma^2) of P_k, k = 0..n, of `Gaussian.hermite_moments`:
    P_0 = scale, P_1 = 2 y0 P_0 and P_{k+1} = 2 y0 P_k - 2k gamma^2 P_{k-1},
    in the precision of 2 y0.  Several terms over an array of centres run
    at once, the terms by a block of centres, into a table of every term's
    rows (at most GENERATING_BLOCK values) that is summed once per block;
    otherwise each term runs in turn on its last two rows (Python floats
    for one centre), its P_k written (the first) or added into row k.
    Not-finite entries are left to the caller."""
    with np.errstate(over="ignore", invalid="ignore"):
        if len(terms) > 1 and np.ndim(terms[0][1]):
            scale, two_y0, two_g2 = (np.array(part) for part in zip(*terms))
            steps = np.multiply.outer(np.arange(1, n + 1), two_g2)[:, :, None]  # 2k gamma^2 by term
            width = max(GENERATING_BLOCK // ((n + 1) * len(terms)), 1)
            for lo in range(0, two_y0.shape[1], width):
                y = two_y0[:, lo:lo + width]
                p = np.empty((n + 1,) + y.shape, dtype=y.dtype)
                p[0] = scale[:, None]
                prev, cur = scale[:, None], y * scale[:, None]
                for k, step in enumerate(steps, 1):
                    p[k] = cur
                    prev, cur = cur, y * cur - step * prev
                block = slice(lo, lo + width) if columns is None else columns[lo:lo + width]
                out[:, block] = np.add.reduce(p, axis=1)  # the terms in order
            return out
        index = range(n + 1) if columns is None else [(k, columns) for k in range(n + 1)]
        for first, (scale, two_y0, two_g2) in zip([True] + [False] * (len(terms) - 1), terms):
            prev, cur = scale, two_y0 * scale  # P_0 first: 0 stays 0 however far the centre
            for k, row in enumerate(index, 1):
                if first:
                    out[row] = prev
                else:
                    out[row] += prev
                prev, cur = cur, two_y0 * cur - (k * two_g2) * prev
    return out


def _weighted_rows(n: int, y: np.ndarray) -> np.ndarray:
    """r_{-2} .. r_{n-1} at the np.longdouble y, r_k = 2 H_k(y) e^{-y^2}/sqrt(pi)
    (k >= 0), r_{-1} = -erf y and r_{-2} = |y| + ierfc|y|, so that each is
    the antiderivative of -r_{k+1}.  Every row, erf and ierfc among them
    (from erfc, ierfc t = e^{-t^2}/sqrt(pi) - t erfc t), is evaluated in
    np.longdouble: the slope jumps of noisy data amplify the rounding of
    the rows, not their smooth error."""
    rows = np.empty((n + 2, y.size), dtype=y.dtype)
    mag = np.abs(y)
    gauss = np.exp(-y * y)
    tail = erfc(mag)
    rows[0] = mag + (gauss * _RSQRT_PI_LD - mag * tail)
    rows[1] = np.sign(y) * (tail - 1)
    if n >= 1:
        rows[2:] = hermite_batch(n - 1, y, weight=2 * _RSQRT_PI_LD * gauss)
    return rows


def _radial_rows(n: int, xi: np.ndarray, r) -> list[np.ndarray]:
    """[V_0 .. V_{n+1}, W_0 .. W_{n+1}] at s = max(xi, 0)/(2r), in
    np.longdouble (`Sampled1D.radial_moments`): one W batch, and V_k = int_0^s
    W_k by V_0 = s and V_k = (s W_k - 4k(2k - 1) V_{k-1})/(2k + 1) (from t
    L_k'(t) = k (L_k - L_{k-1}), DLMF 18.9), which is exactly 0 at s = 0."""
    s = np.maximum(xi, 0.0).astype(np.longdouble) / (2 * r)
    w = w_poly_batch(n + 1, s)
    v = np.empty_like(w)
    v[0] = s
    for k in range(1, n + 2):
        np.multiply(s, w[k], out=v[k])
        v[k] -= 4 * k * (2 * k - 1) * v[k - 1]
        v[k] /= 2 * k + 1
    return [v, w]


def data_fact(data, fact: str, *args):
    """data.fact(*args) for a method name fact (`breakpoints`, `evolved`,
    `derivs_at_zero`, `hermite_moments`, `point_moments`,
    `lattice_centres`, `lattice_moments`, `radial_moments`, `line_kernel`),
    or None where the data has no such method."""
    method = getattr(data, fact, None)
    return None if method is None else method(*args)


def data_integral(data, integrand, lo: float, hi: float, empty):
    """The integral of integrand over [lo, hi] cut to the data's support
    (`profile_support`), by the adaptive engine with the data's nodes as
    breakpoints; empty where the cut window is empty.  The oracles and the
    moment passes take it where the data has no closed form."""
    lo_f, hi_f = profile_support(data)
    lo, hi = max(lo_f, lo), min(hi_f, hi)
    if lo >= hi:
        return empty
    return integrate_vec(integrand, lo, hi, breakpoints=data_fact(data, "breakpoints"))[0]


def profile_support(data) -> tuple[float, float]:
    """Interval outside which the data is negligible (or exactly zero): a
    Gaussian's tails are cut at TRUNCATION_RADIUS_SIGMAS widths."""
    if isinstance(data, Gaussian):
        r = TRUNCATION_RADIUS_SIGMAS * data.sigma
        return data.center - r, data.center + r
    if isinstance(data, Mixture):
        spans = [profile_support(g) for g in data.components]
        return min(s[0] for s in spans), max(s[1] for s in spans)
    if isinstance(data, Bump):
        return data.center - data.radius, data.center + data.radius
    if isinstance(data, Sampled1D):
        return data.lo, data.hi
    raise TypeError(f"unsupported data {data!r}")


def _moments_012(data, polar: bool) -> tuple[float, float, float]:
    """m0, m1, m2 by the trapezoid rule; ValueError unless m0 is positive and
    finite, non-finite m1, m2 where they overflow (the estimators reject them)."""
    lo, hi = profile_support(data)
    if polar:
        lo = max(lo, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.linspace(lo, hi, 4001)
        w = np.abs(data(x)) * (x if polar else 1.0)
        m0 = float(np.trapezoid(w, x))
        m1 = float(np.trapezoid(w * x, x))
        m2 = float(np.trapezoid(w * x * x, x))
    if not (m0 > 0.0) or not math.isfinite(m0):
        raise ValueError("cannot estimate a scale from (near-)zero-mass data")
    return m0, m1, m2


def estimate_scale_line(data) -> float:
    """Time-like width estimate: central second moment of |f| over 2.

    Exact for a pure Gaussian of width a (its variance as a density is 2a).
    """
    m0, m1, m2 = _moments_012(data, polar=False)
    mean = m1 / m0
    var = m2 / m0 - mean * mean
    if not (var > 0.0) or not math.isfinite(var):
        raise ValueError("non-finite or degenerate second moment")
    return 0.5 * var


def estimate_scale_polar(data) -> float:
    """Radial analogue: second moment of xi |f| over 4 (exact for e^{-r^2/4a})."""
    m0, _, m2 = _moments_012(data, polar=True)
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
