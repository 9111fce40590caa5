"""Anisotropic Levy-type integro-differential operators on 1-D grids.

The operator acting on u is

    I[u](x) = PV int ( u(x+y) - u(x) ) * g(y/|y|) |y|^(-N-2s) dy ,

with 0 < s < 1 and a positive even angular density g.  In one dimension g is
a single constant; choosing g = C(1,s) (see ``normalization_constant``) makes
I exactly the negative fractional Laplacian -(-Delta)^s with Fourier symbol
-|xi|^(2s).

Discretisation: pairing +-y symmetrises the integrand into second differences

    D_k = u(x + k h) + u(x - k h) - 2 u(x),

and the quadrature is a single weight vector c_k >= 0 with
I[u](x) ~= sum_k c_k D_k (+ closures).  Nonnegative weights make explicit
Euler updates monotone, which the evolution modules rely on.

Inner cells (below the split radius r) subtract the local curvature:
the integrand is written as D(z) = (D_1/h^2) z^2 + E(z) with E(h) = 0 and
E = O(z^3); the z^2 part is integrated in closed form and E is handled by
piecewise-linear interpolation against exact kernel moments.  This removes
the O(h^(2-2s)) error of naive cell-mass rules and restores O(h^2) accuracy
uniformly in s.

Periodic fields fold the kernel over all images using the Hurwitz zeta
function; line fields carry an explicit power-law tail model and close the
far field with a Gauss-Legendre rule after the substitution z = Z t^(-1/2s)
(which maps [Z, inf) to (0, 1] with a constant Jacobian factor).  That
closure is affine in the tail's constants, slope and power amplitudes, so
a line plan caches its basis once per (side, exponent) and an application
costs one FFT convolution of length n + 2K (rounded up to a power of two)
plus a few n-length vector operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gamma as _gamma_fn
from scipy.special import zeta as _hurwitz_zeta


__all__ = [
    "FractionalOrder",
    "AnisotropyKernel",
    "TailModel",
    "GridField",
    "SplitRadius",
    "SplitConsistencyReport",
    "normalization_constant",
    "kernel_constant",
    "levy_apply_quadrature",
    "levy_apply_spectral",
    "levy_apply_quadrature_2d",
    "split_consistency_check",
    "plan_for",
    "periodic_plan",
    "line_plan",
    "plan_2d",
]


def normalization_constant(s: float, dimension: int = 1) -> float:
    """Constant C(N,s) for which g = C(N,s) gives exactly -(-Delta)^s.

    C(N,s) = s 4^s Gamma(N/2+s) / ( pi^(N/2) Gamma(1-s) ).  At s = 1/2, N = 1
    this equals 1/pi.
    """
    s = float(s)
    if not 0.0 < s < 1.0:
        raise ValueError(f"fractional order s must satisfy 0 < s < 1 (got {s})")
    return (
        s
        * 4.0**s
        * _gamma_fn(dimension / 2.0 + s)
        / (math.pi ** (dimension / 2.0) * _gamma_fn(1.0 - s))
    )


@dataclass(frozen=True)
class FractionalOrder:
    """Order s of the operator, restricted to the open interval (0, 1)."""

    s: float

    def __post_init__(self):
        if not (isinstance(self.s, (int, float)) and math.isfinite(self.s)):
            raise ValueError(f"fractional order s must be a finite number (got {self.s!r})")
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"fractional order s must satisfy 0 < s < 1 (got {self.s})")

    @property
    def two_s(self) -> float:
        return 2.0 * self.s


def _coerce_s(s) -> float:
    if isinstance(s, FractionalOrder):
        return s.s
    return FractionalOrder(float(s)).s


@dataclass(frozen=True)
class AnisotropyKernel:
    """Angular density g on the unit sphere; must be even and positive.

    dimension == 1: a single positive constant.
    dimension == 2: an even trigonometric polynomial
        g(theta) = constant + sum_j a_j cos(2 j theta) + b_j sin(2 j theta);
    only even harmonics appear, so g(-e) = g(e) holds identically.
    """

    dimension: int = 1
    constant: float = 1.0
    cos_coeffs: tuple = ()
    sin_coeffs: tuple = ()

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError(f"kernel dimension must be 1 or 2 (got {self.dimension})")
        object.__setattr__(self, "cos_coeffs", tuple(float(a) for a in self.cos_coeffs))
        object.__setattr__(self, "sin_coeffs", tuple(float(b) for b in self.sin_coeffs))
        if self.dimension == 1:
            if self.cos_coeffs or self.sin_coeffs:
                raise ValueError("1-D kernels are a bare constant; no angular harmonics")
            if not (math.isfinite(self.constant) and self.constant > 0.0):
                raise ValueError(f"kernel constant must be positive (got {self.constant})")
        else:
            theta = np.linspace(0.0, np.pi, 721)
            gmin = float(np.min(self.angular(theta)))
            if not gmin > 0.0:
                raise ValueError(
                    f"angular density must be strictly positive (min over sphere = {gmin:.3e})"
                )

    def angular(self, theta):
        """Evaluate g at angles theta (radians)."""
        th = np.asarray(theta, dtype=float)
        out = np.full_like(th, self.constant)
        for j, a in enumerate(self.cos_coeffs, start=1):
            out += a * np.cos(2 * j * th)
        for j, b in enumerate(self.sin_coeffs, start=1):
            out += b * np.sin(2 * j * th)
        return out

    @classmethod
    def fractional_laplacian(cls, s, dimension: int = 1) -> "AnisotropyKernel":
        """The kernel whose quadrature operator is exactly -(-Delta)^s."""
        return cls(dimension=dimension, constant=normalization_constant(_coerce_s(s), dimension))


def _coerce_g_const(g) -> float:
    """1-D angular density as a bare positive float."""
    if isinstance(g, AnisotropyKernel):
        if g.dimension != 1:
            raise ValueError("expected a 1-D kernel")
        return g.constant
    g = float(g)
    if not (math.isfinite(g) and g > 0.0):
        raise ValueError(f"kernel constant must be positive (got {g})")
    return g


# ---------------------------------------------------------------------------
# tail models and grid fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailModel:
    """Far-field model for line fields:

        u(x) ~ c_side + slope * x + sum_i a_i |x|^(-beta_i)   (beta_i > 0),

    with independent constants/powers on each side and a shared linear slope.
    """

    c_minus: float = 0.0
    c_plus: float = 0.0
    slope: float = 0.0
    powers_minus: tuple = ()
    powers_plus: tuple = ()

    def __post_init__(self):
        for side in (self.powers_minus, self.powers_plus):
            for amp, beta in side:
                if not beta > 0.0:
                    raise ValueError(f"tail exponents must be positive (got beta={beta})")
        object.__setattr__(
            self, "powers_minus", tuple((float(a), float(b)) for a, b in self.powers_minus)
        )
        object.__setattr__(
            self, "powers_plus", tuple((float(a), float(b)) for a, b in self.powers_plus)
        )

    @classmethod
    def zero(cls) -> "TailModel":
        return cls()

    @classmethod
    def constant(cls, c_minus: float, c_plus: float) -> "TailModel":
        return cls(c_minus=float(c_minus), c_plus=float(c_plus))

    def shifted(self, const: float, slope: float = 0.0) -> "TailModel":
        """Tail of u - (slope * x + const); power terms are unaffected."""
        return TailModel(
            c_minus=self.c_minus - const,
            c_plus=self.c_plus - const,
            slope=self.slope - slope,
            powers_minus=self.powers_minus,
            powers_plus=self.powers_plus,
        )

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= 0.0, self.c_plus, self.c_minus) + self.slope * x
        ax = np.abs(x)
        pos = x >= 0.0
        for amp, beta in self.powers_plus:
            out = out + np.where(pos, amp * ax ** (-beta), 0.0)
        for amp, beta in self.powers_minus:
            out = out + np.where(pos, 0.0, amp * ax ** (-beta))
        return out


@dataclass
class GridField:
    """Uniformly sampled field, either on a torus of period ``period`` or on
    a symmetric line window [-half_width, half_width) with a far-field
    ``tail`` model."""

    values: np.ndarray
    geometry: str
    period: float | None = None
    half_width: float | None = None
    tail: TailModel | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 8:
            raise ValueError("field values must be a 1-D array with at least 8 samples")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")
        if self.geometry == "periodic":
            if not (self.period and self.period > 0.0):
                raise ValueError("periodic fields need a positive period")
            if self.half_width is not None:
                raise ValueError("periodic fields do not take half_width")
        elif self.geometry == "line":
            if not (self.half_width and self.half_width > 0.0):
                raise ValueError("line fields need a positive half_width")
            if self.period is not None:
                raise ValueError("line fields do not take period")
            if self.values.size % 2:
                raise ValueError("line fields need an even number of samples")
        else:
            raise ValueError(f"geometry must be 'periodic' or 'line' (got {self.geometry!r})")

    @classmethod
    def periodic(cls, values, period: float) -> "GridField":
        return cls(values=np.asarray(values, dtype=float), geometry="periodic", period=float(period))

    @classmethod
    def line(cls, values, half_width: float, tail: TailModel | None) -> "GridField":
        return cls(
            values=np.asarray(values, dtype=float),
            geometry="line",
            half_width=float(half_width),
            tail=tail,
        )

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def h(self) -> float:
        if self.geometry == "periodic":
            return self.period / self.n
        return 2.0 * self.half_width / self.n

    @property
    def nodes(self) -> np.ndarray:
        if self.geometry == "periodic":
            return self.h * np.arange(self.n)
        return self.h * (np.arange(self.n) - self.n // 2)

    def with_values(self, values) -> "GridField":
        return GridField(
            values=np.asarray(values, dtype=float),
            geometry=self.geometry,
            period=self.period,
            half_width=self.half_width,
            tail=self.tail,
        )


@dataclass(frozen=True)
class SplitRadius:
    """Radius separating the gradient-compensated inner quadrature from the
    plain-difference outer quadrature.  The returned operator value is the
    sum of both parts and is r-independent up to discretisation error."""

    r: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r > 0.0):
            raise ValueError(f"split radius must be positive (got {self.r})")


def _coerce_r(r) -> float | None:
    if r is None:
        return None
    if isinstance(r, SplitRadius):
        return r.r
    return SplitRadius(float(r)).r


# ---------------------------------------------------------------------------
# quadrature weights
# ---------------------------------------------------------------------------


def _cell_moments(s: float, a: np.ndarray, b: np.ndarray):
    """(M0, M1) with M0 = int_a^b z^(-1-2s) dz and M1 = int_a^b (z-a) z^(-1-2s) dz."""
    two_s = 2.0 * s
    M0 = (a ** (-two_s) - b ** (-two_s)) / two_s
    if s == 0.5:
        Mlin = np.log(b / a)
    else:
        Mlin = (b ** (1.0 - two_s) - a ** (1.0 - two_s)) / (1.0 - two_s)
    M1 = Mlin - a * M0
    return M0, M1


def _pair_weights(s: float, h: float, n_pairs: int, m_inner: int) -> np.ndarray:
    """Weights c[k] (k = 1..n_pairs) such that

        int_0^(n_pairs*h) D(z) z^(-1-2s) dz  ~=  sum_k c[k] D_k

    for smooth even-in-z integrands D with D(0) = D'(0) = 0.  Cells below
    m_inner*h use the curvature-subtracted representation (see module
    docstring); outer cells use piecewise-linear D against exact moments.
    All weights are nonnegative.
    """
    K = int(n_pairs)
    m = int(m_inner)
    if not 2 <= m <= K:
        raise ValueError(f"inner cell count must satisfy 2 <= m <= {K} (got {m})")
    c = np.zeros(K + 2)
    z = h * np.arange(0, K + 2)

    if K > m:
        a, b = z[m:K], z[m + 1 : K + 1]
        M0, M1 = _cell_moments(s, a, b)
        c[m:K] += M0 - M1 / h
        c[m + 1 : K + 1] += M1 / h

    # inner cells [kh, (k+1)h], k = 1..m-1, applied to E_k = D_k - k^2 D_1
    a, b = z[1:m], z[2 : m + 1]
    M0, M1 = _cell_moments(s, a, b)
    nu = np.zeros(m + 1)
    nu[1:m] += M0 - M1 / h
    nu[2 : m + 1] += M1 / h
    c[2 : m + 1] += nu[2 : m + 1]
    # curvature mass int_0^(mh) z^2 z^(-1-2s) dz carried by D_1 / h^2
    M2 = (m * h) ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
    kk = np.arange(2, m + 1, dtype=float)
    c[1] += M2 / h**2 - np.dot(nu[2 : m + 1], kk**2)

    c = c[1 : K + 1]
    if c.min() < -1e-12 * max(c.max(), 1.0):
        raise RuntimeError("quadrature produced a negative weight; monotonicity lost")
    return np.maximum(c, 0.0)


# ---------------------------------------------------------------------------
# periodic plan
# ---------------------------------------------------------------------------


class PeriodicPlan:
    """Precomputed circulant quadrature for fields of a fixed (n, period, s, g, r)."""

    def __init__(self, n: int, period: float, s: float, g_const: float, m_inner: int):
        self.n = n
        self.period = period
        self.s = s
        self.g_const = g_const
        self.m_inner = m_inner
        h = period / n
        self.h = h
        K = n // 2
        two_s = 2.0 * s

        c = _pair_weights(s, h, K, m_inner)
        # kernel images |z + m*period|, m != 0, folded with the Hurwitz zeta;
        # smooth on [0, period/2], integrated by the trapezoid rule
        zk = h * np.arange(1, K + 1)
        u = zk / period
        smooth = period ** (-1.0 - two_s) * (
            _hurwitz_zeta(1.0 + two_s, 1.0 + u) + _hurwitz_zeta(1.0 + two_s, 1.0 - u)
        )
        w_tr = np.full(K, h)
        w_tr[-1] = 0.5 * h
        c = c + smooth * w_tr
        c = g_const * c

        self.coeffs = c
        kappa = np.zeros(n)
        np.add.at(kappa, np.arange(1, K + 1), c)
        np.add.at(kappa, n - np.arange(1, K + 1), c)
        kappa[0] = -2.0 * c.sum()
        khat = np.fft.rfft(kappa)
        khat[0] = 0.0  # constants are annihilated exactly
        self.kernel_hat = khat
        self.stiffness = 2.0 * c.sum()  # Gershgorin bound on -I

    def apply(self, values: np.ndarray) -> np.ndarray:
        v = np.asarray(values, dtype=float)
        v = v - v.mean()
        return np.fft.irfft(np.fft.rfft(v) * self.kernel_hat, n=self.n)


@lru_cache(maxsize=64)
def periodic_plan(n: int, period: float, s: float, g_const: float, m_inner: int) -> PeriodicPlan:
    return PeriodicPlan(n, period, s, g_const, m_inner)


# ---------------------------------------------------------------------------
# line plan
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = leggauss(32)
_GL_T = 0.5 * (_GL_NODES + 1.0)  # nodes on (0, 1)
_GL_W = 0.5 * _GL_WEIGHTS  # weights summing to 1


class LinePlan:
    """Precomputed quadrature for line fields of fixed (n, half_width, s, g, r).

    Covers (0, Z] by paired-difference weights (Z ~ 2.2 * half_width, so both
    arguments x +- z leave the window before the closure takes over) and
    closes [Z, inf) with a 32-point Gauss-Legendre rule in the variable
    t = (Z/z)^(2s), evaluating the integrand on the field's tail model.

    The closure is affine in the tail parameters:

        sum_j w_j [u(x+z_j) + u(x-z_j) - 2u(x)]
            = (c_+ + c_- + 2 slope x - 2u(x)) sum_j w_j
              + sum_(+) a_i B(+, beta_i) + sum_(-) a_i B(-, beta_i),

    with B(+, beta) = sum_j w_j (z_j + x)^(-beta) and B(-, beta) =
    sum_j w_j (z_j - x)^(-beta).  B and the tail-pad powers |pad|^(-beta)
    depend only on the plan, so they are cached per (side, beta) on first
    use.  The convolution keeps only the n central outputs of the padded
    field, which a circular FFT of length n + 2K (rounded up to a power of
    two) gives free of wrap-around.
    """

    def __init__(self, n: int, half_width: float, s: float, g_const: float, m_inner: int):
        self.n = n
        self.half_width = half_width
        self.s = s
        self.g_const = g_const
        self.m_inner = m_inner
        h = 2.0 * half_width / n
        self.h = h
        K = int(math.ceil(1.1 * n)) + 2
        self.K = K
        self.z_max = K * h
        two_s = 2.0 * s

        c = g_const * _pair_weights(s, h, K, m_inner)
        self.coeffs = c
        kernel = np.zeros(2 * K + 1)
        kernel[K + 1 :] = c
        kernel[:K] = c[::-1]
        kernel[K] = -2.0 * c.sum()
        self.kernel = kernel
        self.fft_len = 1 << int(math.ceil(math.log2(n + 2 * K)))
        self.kernel_hat = np.fft.rfft(kernel, self.fft_len)

        # far-field closure: int_Z^inf f(z) z^(-1-2s) dz
        #                  = Z^(-2s)/(2s) * int_0^1 f(Z t^(-1/(2s))) dt
        self.far_z = self.z_max * _GL_T ** (-1.0 / two_s)
        self.far_w = _GL_W.copy()
        self.far_coeff = g_const * self.z_max ** (-two_s) / two_s
        self.stiffness = 2.0 * c.sum() + 2.0 * self.far_coeff

        x = h * (np.arange(n) - n // 2)
        x.setflags(write=False)
        self._nodes = x
        self._w_sum = float(self.far_w.sum())
        # distances from the origin of the pad nodes on each side (+1 right,
        # -1 left), where that side's tail powers are sampled
        self._pad_dist = {
            1: x[-1] + h * np.arange(1, K + 1),
            -1: h * np.arange(K, 0, -1) - x[0],
        }
        self._powers = {}  # (side, beta) -> (|pad|^(-beta), B(side, beta))

    def nodes(self) -> np.ndarray:
        return self._nodes

    def _power_basis(self, side: int, beta: float):
        """|pad|^(-beta) and B(side, beta) for one tail power, cached."""
        key = (side, beta)
        if key not in self._powers:
            far_dist = self.far_z[None, :] + side * self._nodes[:, None]
            self._powers[key] = (
                self._pad_dist[side] ** (-beta),
                far_dist ** (-beta) @ self.far_w,
            )
        return self._powers[key]

    def apply(self, values: np.ndarray, tail: TailModel) -> np.ndarray:
        if tail is None:
            raise ValueError("line quadrature requires a tail model")
        u = np.asarray(values, dtype=float)
        if u.size != self.n:
            raise ValueError(f"expected {self.n} samples (got {u.size})")
        x = self._nodes

        # subtract the affine part so that exactly-affine data maps to exact
        # zeros (no catastrophic cancellation in the convolution); the
        # reduced tail has zero slope and constants c_side - b on the pads
        a = tail.slope
        ured = u - a * x
        b = float(np.mean(ured))
        ured -= b
        pad_left = np.full(self.K, tail.c_minus - b)
        pad_right = np.full(self.K, tail.c_plus - b)
        # far field on the original (unreduced) tail, slope terms of the
        # pair u(x+z) + u(x-z) summed analytically to 2 slope x
        far = (tail.c_plus + tail.c_minus + 2.0 * a * x - 2.0 * u) * self._w_sum
        for side, powers, pad in ((1, tail.powers_plus, pad_right),
                                  (-1, tail.powers_minus, pad_left)):
            for amp, beta in powers:
                pad_pow, basis = self._power_basis(side, beta)
                pad += amp * pad_pow
                far += amp * basis

        U = np.concatenate([pad_left, ured, pad_right])
        conv = np.fft.irfft(np.fft.rfft(U, self.fft_len) * self.kernel_hat, n=self.fft_len)
        out = conv[2 * self.K : 2 * self.K + self.n]
        out += self.far_coeff * far
        return out


@lru_cache(maxsize=64)
def line_plan(n: int, half_width: float, s: float, g_const: float, m_inner: int) -> LinePlan:
    return LinePlan(n, half_width, s, g_const, m_inner)


# ---------------------------------------------------------------------------
# public operator applications
# ---------------------------------------------------------------------------


def kernel_constant(s, g=None) -> float:
    """The 1-D angular density as a float; ``g=None`` is C(1,s)."""
    return normalization_constant(_coerce_s(s)) if g is None else _coerce_g_const(g)


def _split_radius(r, extent: float) -> float:
    """The split radius: ``r`` when given, else min(1, extent/2)."""
    return min(1.0, 0.5 * extent) if r is None else _coerce_r(r)


def plan_for(geometry: str, n: int, extent: float, s, g=None, r=None):
    """The quadrature plan for an n-point grid: the one place that picks
    the split radius and the inner-cell count.

    ``extent`` is half the period for ``geometry="periodic"`` and the
    half-width for ``geometry="line"``.  ``g=None`` is C(1,s); ``r=None`` is
    min(1, extent/2).  The inner-cell count round(r/h) is clamped to
    [2, extent/h], so a grid with h > r/2 gets two cells
    (``levy_apply_quadrature`` rejects such a radius instead).
    """
    s = _coerce_s(s)
    g_const = kernel_constant(s, g)
    h = 2.0 * extent / n
    m = max(2, min(int(round(_split_radius(r, extent) / h)), int(extent / h)))
    if geometry == "periodic":
        return periodic_plan(n, 2.0 * extent, s, g_const, m)
    if geometry == "line":
        return line_plan(n, float(extent), s, g_const, m)
    raise ValueError(f"geometry must be 'periodic' or 'line' (got {geometry!r})")


def levy_apply_quadrature(field: GridField, s, g, r=None) -> GridField:
    """Apply the Levy operator by quadrature; returns inner + outer parts.

    ``r`` is the split radius (defaults to min(1, half the reachable extent));
    values below 2h are rejected.  Non-finite field samples are rejected.
    """
    s = _coerce_s(s)
    g_const = _coerce_g_const(g)
    if not np.all(np.isfinite(field.values)):
        raise ValueError("field contains non-finite samples")
    extent = 0.5 * field.period if field.geometry == "periodic" else field.half_width
    r = _split_radius(r, extent)
    if r < 2.0 * field.h:
        raise ValueError(
            f"split radius r = {r:.3g} is below 2h = {2*field.h:.3g}: too few near cells"
        )
    if r > extent + 1e-12:
        raise ValueError(f"split radius r = {r:.3g} exceeds the quadrature extent {extent:.3g}")
    plan = plan_for(field.geometry, field.n, extent, s, g_const, r)
    if field.geometry == "periodic":
        out = plan.apply(field.values)
        return GridField.periodic(out, field.period)
    out = plan.apply(field.values, field.tail)
    return GridField.line(out, field.half_width, tail=None)


def levy_apply_spectral(field: GridField, s) -> GridField:
    """Fourier-multiplier application of -(-Delta)^s on a torus.

    Mode k is multiplied by -(2 pi |k| / period)^(2s); the multiplier
    vanishes at k = 0, so constants map to the zero field.
    """
    s = _coerce_s(s)
    if field.geometry != "periodic":
        raise ValueError("spectral application requires a periodic field")
    n, q = field.n, field.period
    k = np.arange(n // 2 + 1, dtype=float)
    mult = -((2.0 * np.pi * k / q) ** (2.0 * s))
    mult[0] = 0.0
    out = np.fft.irfft(np.fft.rfft(field.values) * mult, n=n)
    return GridField.periodic(out, q)


@dataclass(frozen=True)
class SplitConsistencyReport:
    r1: float
    r2: float
    sup_diff: float
    sup_diff_coarse: float
    scale: float
    converged: bool


def split_consistency_check(field: GridField, s, g, r1, r2) -> SplitConsistencyReport:
    """Compare the operator evaluated with two split radii.

    The difference is pure quadrature error and must shrink under grid
    refinement; the report compares the native grid against the field
    restricted to every second node and flags non-convergence (e.g. for
    discontinuous data, where the difference does not decay).
    """
    s = _coerce_s(s)
    g_const = _coerce_g_const(g)
    r1 = _coerce_r(r1)
    r2 = _coerce_r(r2)

    def sup_diff(f: GridField) -> float:
        a = levy_apply_quadrature(f, s, g_const, r1).values
        b = levy_apply_quadrature(f, s, g_const, r2).values
        return float(np.max(np.abs(a - b)))

    fine = sup_diff(field)
    coarse_vals = field.values[::2]
    if field.geometry == "periodic":
        coarse = GridField.periodic(coarse_vals, field.period)
    else:
        coarse = GridField.line(coarse_vals, field.half_width, field.tail)
    coarse_diff = sup_diff(coarse)

    scale = float(np.max(np.abs(levy_apply_quadrature(field, s, g_const, r1).values)))
    tiny = 1e-13 * max(scale, 1.0)
    converged = fine <= max(0.6 * coarse_diff, tiny)
    return SplitConsistencyReport(
        r1=r1, r2=r2, sup_diff=fine, sup_diff_coarse=coarse_diff, scale=scale, converged=converged
    )


# ---------------------------------------------------------------------------
# 2-D smoke-test operator (periodic square, bilinear off-grid sampling)
# ---------------------------------------------------------------------------


class Plan2D:
    """Torus convolution stencil for the 2-D operator (smoke-test grade).

    Radial integration per angle reuses the 1-D pair weights; the inner
    curvature term is carried by exact on-grid second-difference stencils
    (angular average of e.e^T against the Hessian), so no off-grid sample is
    taken where the bilinear interpolation error would be comparable to the
    integrand itself.
    """

    def __init__(self, n: int, period: float, s: float, kernel: AnisotropyKernel, n_angles: int):
        if kernel.dimension != 2:
            raise ValueError("2-D plan needs a 2-D kernel")
        self.n = n
        self.period = period
        self.s = s
        self.n_angles = n_angles
        h = period / n
        self.h = h
        two_s = 2.0 * s

        L = n_angles
        theta = (np.arange(L) + 0.5) * np.pi / L
        gv = kernel.angular(theta)
        w_ang = np.pi / L

        # inner region [0, 3h): analytic curvature against exact on-grid
        # Hessian stencils (off-grid samples there would carry a bilinear
        # interpolation error comparable to the integrand itself)
        m = 3
        K = 8 * n  # radial reach 8 periods; torus wrapping folds the images
        r_in = m * h

        stencil = np.zeros((n, n))

        # sum_l w g_l (e_l e_l^T : D^2 u) * int_0^r z^(1-2s) dz
        M2 = r_in ** (2.0 - two_s) / (2.0 - two_s)
        Axx = w_ang * float(np.sum(gv * np.cos(theta) ** 2)) * M2 / h**2
        Ayy = w_ang * float(np.sum(gv * np.sin(theta) ** 2)) * M2 / h**2
        Axy = w_ang * float(np.sum(gv * np.sin(theta) * np.cos(theta))) * M2 / h**2
        stencil[1, 0] += Axx
        stencil[-1, 0] += Axx
        stencil[0, 0] += -2.0 * Axx
        stencil[0, 1] += Ayy
        stencil[0, -1] += Ayy
        stencil[0, 0] += -2.0 * Ayy
        # cross term 2 Axy u_xy with u_xy =~ (u_{++} + u_{--} - u_{+-} - u_{-+}) / (4 h^2)
        for di, dj, sgn in ((1, 1, 1), (-1, -1, 1), (1, -1, -1), (-1, 1, -1)):
            stencil[di % n, dj % n] += sgn * 2.0 * Axy / 4.0

        # outer radial cells [kh, (k+1)h], k = m..K-1: piecewise-linear D
        # against exact kernel moments, nodes scattered bilinearly
        ks = np.arange(m, K + 1, dtype=float)
        a = h * ks[:-1]
        b = h * ks[1:]
        M0, M1 = _cell_moments(s, a, b)
        cs = np.zeros(ks.size)
        cs[:-1] += M0 - M1 / h
        cs[1:] += M1 / h
        total = 0.0
        for l in range(L):
            ct, st = math.cos(theta[l]), math.sin(theta[l])
            for sign in (1.0, -1.0):
                dx = sign * ct * ks
                dy = sign * st * ks
                wgt = w_ang * gv[l] * cs
                i0 = np.floor(dx).astype(int)
                j0 = np.floor(dy).astype(int)
                fx = dx - i0
                fy = dy - j0
                for oi, oj, ww in (
                    (0, 0, (1 - fx) * (1 - fy)),
                    (1, 0, fx * (1 - fy)),
                    (0, 1, (1 - fx) * fy),
                    (1, 1, fx * fy),
                ):
                    np.add.at(stencil, ((i0 + oi) % n, (j0 + oj) % n), wgt * ww)
                total += wgt.sum()
        stencil[0, 0] -= total

        # remainder beyond K*h, closed against the spatial mean
        far = w_ang * float(gv.sum()) * 2.0 * (K * h) ** (-two_s) / two_s
        shat = np.fft.rfft2(stencil)
        shat -= far
        shat[0, 0] = 0.0
        self.stencil_hat = shat
        self.stiffness = float(np.abs(stencil).sum()) + 2.0 * far

    def apply(self, values: np.ndarray) -> np.ndarray:
        v = np.asarray(values, dtype=float)
        if v.shape != (self.n, self.n):
            raise ValueError(f"expected shape {(self.n, self.n)} (got {v.shape})")
        v = v - v.mean()
        return np.fft.irfft2(np.fft.rfft2(v) * self.stencil_hat, s=(self.n, self.n))


@lru_cache(maxsize=8)
def _plan_2d_cached(n, period, s, kernel: AnisotropyKernel, n_angles) -> Plan2D:
    return Plan2D(n, period, s, kernel, n_angles)


def plan_2d(n: int, period: float, s, kernel: AnisotropyKernel, n_angles: int = 16) -> Plan2D:
    return _plan_2d_cached(int(n), float(period), _coerce_s(s), kernel, int(n_angles))


def levy_apply_quadrature_2d(
    values: np.ndarray, period: float, s, kernel: AnisotropyKernel, n_angles: int = 16
) -> np.ndarray:
    """Levy operator on a doubly periodic square grid (smoke-test path)."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ValueError("2-D fields must be square arrays")
    plan = plan_2d(v.shape[0], period, s, kernel, n_angles)
    return plan.apply(v)


# ---------------------------------------------------------------------------
# paired product form (shared by the hull module's bilinear form)
# ---------------------------------------------------------------------------


def pair_product_form(
    plan: LinePlan,
    f_values: np.ndarray,
    f_tail: TailModel,
    g_values: np.ndarray,
    g_tail: TailModel,
    indices: np.ndarray,
) -> np.ndarray:
    """sum_k c_k [ (f(x+kh)-f(x)) (g(x+kh)-g(x)) + (f(x-kh)-f(x)) (g(x-kh)-g(x)) ]
    plus the matching Gauss-Legendre far-field term, at the requested node
    indices.  Uses exactly the same weights and far-field nodes as
    ``LinePlan.apply``, so the product identity

        I[f g] = f I[g] + g I[f] + pair_product_form(f, g)

    holds at shared nodes to rounding accuracy.
    """
    n, K, h = plan.n, plan.K, plan.h
    x = plan.nodes()
    pad_left = x[0] - h * np.arange(K, 0, -1)
    pad_right = x[-1] + h * np.arange(1, K + 1)

    def extend(vals, tail):
        return np.concatenate([tail.eval(pad_left), vals, tail.eval(pad_right)])

    F = extend(f_values, f_tail)
    G = extend(g_values, g_tail)
    c = plan.coeffs
    out = np.zeros(len(indices))
    for out_i, j in enumerate(indices):
        jj = j + K
        fj, gj = F[jj], G[jj]
        dfp = F[jj + 1 : jj + K + 1] - fj
        dfm = F[jj - K : jj][::-1] - fj
        dgp = G[jj + 1 : jj + K + 1] - gj
        dgm = G[jj - K : jj][::-1] - gj
        acc = float(np.dot(c, dfp * dgp + dfm * dgm))
        # far field with the same transformed Gauss-Legendre nodes
        zf = plan.far_z
        fp = f_tail.eval(x[j] + zf) - fj
        fm = f_tail.eval(x[j] - zf) - fj
        gp = g_tail.eval(x[j] + zf) - gj
        gm = g_tail.eval(x[j] - zf) - gj
        acc += plan.far_coeff * float(np.dot(plan.far_w, fp * gp + fm * gm))
        out[out_i] = acc
    return out
