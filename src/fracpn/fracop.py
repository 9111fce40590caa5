"""Anisotropic Levy-type integro-differential operators on 1-D grids.

The operator acting on u is

    I[u](x) = PV int ( u(x+y) - u(x) ) * g(y/|y|) |y|^(-N-2s) dy ,

with 0 < s < 1 and a positive even angular density g.  In one dimension g is
a single constant; choosing g = C(1,s) (see ``normalization_constant``) makes
I exactly the negative fractional Laplacian -(-Delta)^s with Fourier symbol
-|xi|^(2s).

In N = 2 dimensions the operator acts on a profile u(x) = U(e.x) along a
unit direction e as the 1-D operator with the constant

    g_e = 1/2 int_{S^1} g(theta) |theta.e|^(2s) dtheta ,

so every 1-D plan below also applies the 2-D operator to such profiles,
exactly, with ``g = AnisotropyKernel.directional_constant(s, e)``.  For
g(theta) = c + sum_j a_j cos(2 j theta) + b_j sin(2 j theta) and
e = (cos phi, sin phi) this is the closed form

    g_e = 1/2 [ c M_0 + sum_j (a_j cos(2 j phi) + b_j sin(2 j phi)) M_j ],
    M_j = int_0^(2 pi) |cos psi|^(2s) cos(2 j psi) dpsi
        = 2 pi Gamma(2s+1) / ( 2^(2s) Gamma(1+s+j) Gamma(1+s-j) ),

and the isotropic density C(2,s) gives g_e = C(1,s).

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

The periodic plan folds the kernel over all images using the Hurwitz zeta
function: a direct sum of its first 64 terms plus the Euler-Maclaurin tail
(``_em_tail``, shared with the hull's lattice sums).  Line fields
(``GridField``) are read between nodes by local cubics through four
samples, carry an explicit power-law tail model and close the far
field with a Gauss-Legendre rule after the substitution z = Z t^(-1/2s)
(which maps [Z, inf) to (0, 1] with a constant Jacobian factor).  That
closure is affine in the tail's constants, slope and power amplitudes, and
so are the tail pads; a line plan caches their responses once per (side,
exponent), and an application costs one product of length 2n with the
operator's circulant plus a few n-length vector operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest

import numpy as np


__all__ = [
    "AnisotropyKernel",
    "TailModel",
    "GridField",
    "normalization_constant",
    "kernel_constant",
    "plan_for",
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
        * math.gamma(dimension / 2.0 + s)
        / (math.pi ** (dimension / 2.0) * math.gamma(1.0 - s))
    )


def _coerce_s(s) -> float:
    """The order s of the operator as a float in the open interval (0, 1)."""
    s = float(s)
    if not math.isfinite(s):
        raise ValueError(f"fractional order s must be a finite number (got {s!r})")
    if not 0.0 < s < 1.0:
        raise ValueError(f"fractional order s must satisfy 0 < s < 1 (got {s})")
    return s


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
            gmin = self._min_lower_bound()
            if not gmin > 0.0:
                raise ValueError(
                    f"angular density must be strictly positive (lower bound of its "
                    f"min over the sphere = {gmin:.3e})"
                )

    def _min_lower_bound(self) -> float:
        """A lower bound of min g: the least of N samples at spacing delta =
        pi / N over a period, less delta * sup|g'| with sup|g'| <= sum 2 j
        sqrt(a_j^2 + b_j^2); every angle is within delta of a sample.  N grows
        with the highest harmonic J (N >= 256 J), so the margin stays below
        pi / 128 of sum sqrt(a_j^2 + b_j^2)."""
        J = max(len(self.cos_coeffs), len(self.sin_coeffs))
        a, b = np.zeros(J), np.zeros(J)
        a[:len(self.cos_coeffs)] = self.cos_coeffs
        b[:len(self.sin_coeffs)] = self.sin_coeffs
        n = 1 << max(10, math.ceil(math.log2(256 * max(J, 1))))
        # g(pi k / n) = c + Re sum_j (a_j - i b_j) e^(2 pi i j k / n)
        z = np.zeros(n, dtype=complex)
        z[0] = self.constant
        z[1:J + 1] = a - 1j * b
        samples = n * np.fft.ifft(z).real
        lipschitz = float(np.sum(2.0 * np.arange(1, J + 1) * np.hypot(a, b)))
        return float(np.min(samples)) - (np.pi / n) * lipschitz

    def angular(self, theta):
        """Evaluate g at angles theta (radians)."""
        th = np.asarray(theta, dtype=float)
        out = np.full_like(th, self.constant)
        for j, a in enumerate(self.cos_coeffs, start=1):
            out += a * np.cos(2 * j * th)
        for j, b in enumerate(self.sin_coeffs, start=1):
            out += b * np.sin(2 * j * th)
        return out

    def directional_constant(self, s, e) -> float:
        """The 1-D kernel constant g_e that the operator has along direction e.

        For u(x) = U(e.x), I[u] is the 1-D operator with constant
        g_e = 1/2 int_{S^1} g(theta) |theta.e|^(2s) dtheta; see the module
        docstring.  ``e`` is any nonzero vector of the kernel's dimension
        (only its direction matters); a 1-D kernel returns its constant.
        """
        s = _coerce_s(s)
        e = np.asarray(e, dtype=float).ravel()
        if e.size != self.dimension or not (np.all(np.isfinite(e)) and np.any(e)):
            raise ValueError(f"direction must be a nonzero {self.dimension}-vector (got {e})")
        if self.dimension == 1:
            return self.constant
        phi = math.atan2(e[1], e[0])
        # M_0 by the module docstring's Gamma form; it gives
        # M_j / M_(j-1) = (s+1-j) / (s+j), which never overflows
        m = 2.0 * math.pi * math.gamma(2.0 * s + 1.0) / (4.0**s * math.gamma(1.0 + s) ** 2)
        total = self.constant * m
        harmonics = zip_longest(self.cos_coeffs, self.sin_coeffs, fillvalue=0.0)
        for j, (a, b) in enumerate(harmonics, start=1):
            m *= (s + 1.0 - j) / (s + j)
            total += (a * math.cos(2 * j * phi) + b * math.sin(2 * j * phi)) * m
        return 0.5 * total


def _coerce_g_const(g) -> float:
    """1-D angular density as a bare positive float."""
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
    """A field sampled at n (even) uniform nodes of the line window
    [-half_width, half_width), with its far-field ``tail`` model; ``eval``
    interpolates the samples by local cubics."""

    values: np.ndarray
    half_width: float
    tail: TailModel

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.half_width = float(self.half_width)
        if self.values.ndim != 1 or self.values.size < 8:
            raise ValueError("field values must be a 1-D array with at least 8 samples")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")
        if not self.half_width > 0.0:
            raise ValueError("line fields need a positive half_width")
        if self.values.size % 2:
            raise ValueError("line fields need an even number of samples")

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / self.n

    @property
    def nodes(self) -> np.ndarray:
        return self.h * (np.arange(self.n) - self.n // 2)

    def eval(self, x):
        """The field anywhere: for |x| <= half_width - 2h the Lagrange cubic
        through the four nearest samples, the tail model beyond."""
        x = np.asarray(x, dtype=float)
        inside = np.abs(x) <= self.half_width - 2.0 * self.h
        out = np.empty_like(x)
        u = (x[inside] + self.half_width) / self.h  # x = node j + t h, cubic on j-1..j+2
        j = np.clip(np.floor(u).astype(np.intp), 1, self.n - 3)
        t = u - j
        v = self.values
        out[inside] = ((t + 1.0) * (t - 2.0) * ((t - 1.0) * v[j] - t * v[j + 1]) / 2.0
                       + t * (t - 1.0) * ((t + 1.0) * v[j + 2] - (t - 2.0) * v[j - 1]) / 6.0)
        out[~inside] = self.tail.eval(x[~inside])
        return out


def _coerce_r(r) -> float:
    """The split radius, which separates the gradient-compensated inner
    quadrature from the plain-difference outer one, as a positive float."""
    r = float(r)
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError(f"split radius must be positive (got {r})")
    return r


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
# Euler-Maclaurin sums
# ---------------------------------------------------------------------------


def _em_tail(a: int, c, beta: float):
    """sum_{i=a}^inf (i+c)^-beta for beta > 1, |c| < a: the integral from
    a + c plus the Euler-Maclaurin corrections through the B_6 term."""
    if beta <= 1.0:
        raise ValueError(f"one-sided tail needs beta > 1 (got {beta})")
    t = a + np.asarray(c, dtype=float)
    return (
        t ** (1.0 - beta) / (beta - 1.0)
        + 0.5 * t ** (-beta)
        + beta * t ** (-beta - 1.0) / 12.0
        - beta * (beta + 1.0) * (beta + 2.0) * t ** (-beta - 3.0) / 720.0
        + beta * (beta + 1.0) * (beta + 2.0) * (beta + 3.0) * (beta + 4.0)
        * t ** (-beta - 5.0) / 30240.0
    )


_ZETA_TERMS = 64


def _hurwitz_zeta(sigma: float, a):
    """Hurwitz zeta sum_{k>=0} (k+a)^-sigma for sigma > 1 and 0 < a < 64,
    elementwise in a; the value of scipy.special.zeta(sigma, a).

    64 direct terms plus the Euler-Maclaurin tail from k = 64.  For sigma in
    (1, 3) and a in [1/2, 3/2] (the periodic plan's range) the neglected
    term is below 1e-16 relative, so the result is exact to roundoff.
    """
    a = np.asarray(a, dtype=float)
    k = np.arange(_ZETA_TERMS, dtype=float)
    head = np.sum((a[..., None] + k) ** (-sigma), axis=-1)
    return head + _em_tail(_ZETA_TERMS, a, sigma)


# ---------------------------------------------------------------------------
# periodic plan
# ---------------------------------------------------------------------------

MIN_TORUS_N = 16  # fewest nodes of a cell or eps problem's torus grid


class PeriodicPlan:
    """Precomputed circulant quadrature for n samples of a torus of fixed
    (n, period, s, g, r).  ``multiplier`` is I's rfft multiplier, the name
    both torus plans give it."""

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
        self.multiplier = khat
        self.stiffness = 2.0 * c.sum()  # Gershgorin bound on -I

    def apply(self, values: np.ndarray) -> np.ndarray:
        v = np.asarray(values, dtype=float)
        v = v - v.mean()
        return np.fft.irfft(np.fft.rfft(v) * self.multiplier, n=self.n)


class SpectralPlan:
    """The exact symbol on an n-point torus: mode k is multiplied by
    ``multiplier[k]`` = -(g/C(1,s)) |2 pi k / period|^(2s).  Spectrally
    accurate, but with no nonnegative weights, so it serves solves, not
    explicit Euler steps."""

    def __init__(self, n: int, period: float, s: float, g_const: float):
        self.n = n
        self.period = period
        k = np.arange(n // 2 + 1, dtype=float)
        self.multiplier = -(g_const / normalization_constant(s)) * (2.0 * np.pi * k / period) ** (2.0 * s)

    def apply(self, values: np.ndarray) -> np.ndarray:
        return np.fft.irfft(np.fft.rfft(values) * self.multiplier, n=self.n)


# ---------------------------------------------------------------------------
# line plan
# ---------------------------------------------------------------------------

# The 32-point Gauss-Legendre rule on [-1, 1] as (node, weight) pairs for its
# 16 positive nodes; numpy.polynomial.legendre.leggauss(32) is exactly
# symmetric and gives these values.  A literal keeps numpy.polynomial out of
# every command.
_GL_HALF = np.array([
    (0.048307665687738324, 0.09654008851472766),
    (0.1444719615827965, 0.09563872007927471),
    (0.23928736225213706, 0.09384439908080451),
    (0.33186860228212767, 0.09117387869576378),
    (0.42135127613063533, 0.08765209300440378),
    (0.5068999089322294, 0.08331192422694671),
    (0.5877157572407623, 0.07819389578707023),
    (0.6630442669302152, 0.07234579410884834),
    (0.7321821187402897, 0.06582222277636168),
    (0.7944837959679424, 0.058684093478535565),
    (0.84936761373257, 0.05099805926237609),
    (0.8963211557660521, 0.042835898022226836),
    (0.9349060759377397, 0.034273862913021765),
    (0.9647622555875064, 0.025392065309262024),
    (0.9856115115452684, 0.016274394730905743),
    (0.9972638618494816, 0.007018610009470506),
])
_GL_NODES = np.concatenate([-_GL_HALF[::-1, 0], _GL_HALF[:, 0]])
_GL_WEIGHTS = np.concatenate([_GL_HALF[::-1, 1], _GL_HALF[:, 1]])
_GL_T = 0.5 * (_GL_NODES + 1.0)  # nodes on (0, 1)
_GL_W = 0.5 * _GL_WEIGHTS  # weights summing to 1
_BASIS_ROWS = 256  # nodes per block of the far-field basis (256 x 32 temporaries)


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
    sum_j w_j (z_j - x)^(-beta).

    With the zero tail the operator is a symmetric Toeplitz matrix on the
    window: coeffs[k-1] at distance k and -(2 sum(coeffs) + 2 far_coeff
    sum(far_w)) on the diagonal.  ``symbol`` caches the exact spectrum
    (rfft) of -I embedded as a circulant of length 2n: zero-padding a window
    field to 2n, multiplying by ``symbol`` in Fourier and keeping the first
    n outputs gives -apply(v, TailModel()).  The layer and corrector
    solves precondition with (alpha + symbol)^-1.

    ``apply`` runs on that circulant alone.  It subtracts the affine part
    a x + b of the field (a the tail's slope, b the mean of the rest), so the
    window holds u - a x - b and the K pads on each side hold the reduced
    tail, c_side - b plus its powers.  Every window-to-window distance is
    below n, so the window's share is the 2n product with ``symbol``.  The
    pads enter affinely: their constants through the tail sums
    S(i) = sum_(k > i) coeffs[k-1] of the ``kernel`` stencil (one reversed
    cumulative sum), and each power |pad|^(-beta) through the window's
    response to it, cached per (side, beta) together with B(side, beta).
    Once a tail has been applied, no application transforms more than 2n
    points.
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
        # _tail_sums[i] = sum of coeffs at distances i+1 .. K: the weight of
        # the left pad's constant at window node i (reversed, of the right's)
        self._tail_sums = np.cumsum(c[::-1])[::-1][:n]

        # far-field closure: int_Z^inf f(z) z^(-1-2s) dz
        #                  = Z^(-2s)/(2s) * int_0^1 f(Z t^(-1/(2s))) dt
        self.far_z = self.z_max * _GL_T ** (-1.0 / two_s)
        self.far_w = _GL_W.copy()
        self.far_coeff = g_const * self.z_max ** (-two_s) / two_s

        col = np.zeros(2 * n)  # circulant embedding of the zero-tail -I
        col[0] = 2.0 * c.sum() + 2.0 * self.far_coeff * self.far_w.sum()
        col[1:n] = -c[: n - 1]
        col[n + 1 :] = -c[n - 2 :: -1]
        self.symbol = np.fft.rfft(col).real

        x = h * (np.arange(n) - n // 2)
        x.setflags(write=False)
        self.nodes = x
        self._w_sum = float(self.far_w.sum())
        # distances from the origin of the pad nodes on each side (+1 right,
        # -1 left), where that side's tail powers are sampled
        self._pad_dist = {
            1: x[-1] + h * np.arange(1, K + 1),
            -1: h * np.arange(K, 0, -1) - x[0],
        }
        self._responses = {}  # (side, beta) -> the window's response to one tail power

    def _power_basis(self, side: int, beta: float):
        """|pad|^(-beta) and B(side, beta) for one tail power; B is summed
        over blocks of _BASIS_ROWS nodes, not as one n x 32 array."""
        x = self.nodes
        basis = np.empty(self.n)
        for lo in range(0, self.n, _BASIS_ROWS):
            far_dist = self.far_z[None, :] + side * x[lo:lo + _BASIS_ROWS, None]
            basis[lo:lo + _BASIS_ROWS] = far_dist ** (-beta) @ self.far_w
        return self._pad_dist[side] ** (-beta), basis

    def _pad_response(self, side: int, beta: float) -> np.ndarray:
        """What the tail power |x|^(-beta) on one side adds to ``apply`` per
        unit amplitude: the pad's share of the stencil plus far_coeff B, cached.

        Number the pad nodes j = 0, 1, ... outwards from the window edge and
        the window nodes m = 1..n inwards from it: they are m + j nodes
        apart, so the pad's share is the correlation
        r(m) = sum_j kernel[K + m + j] |pad_j|^(-beta).  It is summed over
        pad blocks of n nodes, each a product of length 2n whose circular
        wrap misses the lags 1..n."""
        key = (side, beta)
        if key not in self._responses:
            n, K = self.n, self.K
            pad_pow, basis = self._power_basis(side, beta)
            if side == -1:
                pad_pow = pad_pow[::-1]  # from the window edge outwards
            stencil = self.kernel[K:]  # stencil[d]: the weight at distance d
            r = np.zeros(n)
            for lo in range(0, K, n):
                seg = np.fft.rfft(stencil[lo:lo + 2 * n], 2 * n)
                seg *= np.fft.rfft(pad_pow[lo:lo + n], 2 * n).conj()
                r += np.fft.irfft(seg, 2 * n)[1:n + 1]
            if side == 1:
                r = r[::-1]  # node i is n - i nodes in from the right edge
            self._responses[key] = r + self.far_coeff * basis
        return self._responses[key]

    def apply(self, values: np.ndarray, tail: TailModel) -> np.ndarray:
        if tail is None:
            raise ValueError("line quadrature requires a tail model")
        u = np.asarray(values, dtype=float)
        if u.size != self.n:
            raise ValueError(f"expected {self.n} samples (got {u.size})")
        n = self.n

        # subtract the affine part so that exactly-affine data maps to exact
        # zeros (no catastrophic cancellation in the product); the reduced
        # tail has zero slope and constants c_side - b on the pads
        ured = u - tail.slope * self.nodes
        b = float(np.mean(ured))
        ured -= b
        # the pads' constants, and the far field's: on the unreduced tail its
        # pair u(x+z) + u(x-z) - 2u(x) sums to c_+ + c_- - 2b - 2 ured(x),
        # whose last term is on the diagonal of the symbol
        out = (tail.c_minus - b) * self._tail_sums
        out += (tail.c_plus - b) * self._tail_sums[::-1]
        out += self.far_coeff * self._w_sum * (tail.c_plus + tail.c_minus - 2.0 * b)
        for side, powers in ((1, tail.powers_plus), (-1, tail.powers_minus)):
            for amp, beta in powers:
                out += amp * self._pad_response(side, beta)
        spec = np.fft.rfft(ured, 2 * n)
        spec *= self.symbol
        out -= np.fft.irfft(spec, 2 * n)[:n]
        return out


# ---------------------------------------------------------------------------
# plan factory
# ---------------------------------------------------------------------------


def kernel_constant(s, g=None) -> float:
    """The 1-D angular density as a float; ``g=None`` is C(1,s)."""
    return normalization_constant(_coerce_s(s)) if g is None else _coerce_g_const(g)


def _split_radius(r, extent: float) -> float:
    """The split radius: ``r`` when given, else min(1, extent/2)."""
    return min(1.0, 0.5 * extent) if r is None else _coerce_r(r)


def plan_for(geometry: str, n: int, extent: float, s, g=None, r=None):
    """The plan for an n-point grid: the one place that picks a quadrature
    plan's split radius and inner-cell count, and the only plan factory.

    ``extent`` is half the period for ``geometry="periodic"`` and
    ``"spectral"`` (the exact symbol; no ``r``), and the half-width for
    ``"line"``.  ``g=None`` is C(1,s); ``r=None`` is min(1, extent/2).  The
    inner-cell count round(r/h) is clamped to [2, extent/h], so a grid with
    h > r/2 gets two cells.  Equal normalised arguments give the same plan.
    """
    s = _coerce_s(s)
    g_const = kernel_constant(s, g)
    if geometry == "spectral":
        return _plan(SpectralPlan, n, 2.0 * extent, s, g_const)
    h = 2.0 * extent / n
    m = max(2, min(int(round(_split_radius(r, extent) / h)), int(extent / h)))
    if geometry == "periodic":
        return _plan(PeriodicPlan, n, 2.0 * extent, s, g_const, m)
    if geometry == "line":
        return _plan(LinePlan, n, float(extent), s, g_const, m)
    raise ValueError(f"geometry must be 'periodic', 'spectral' or 'line' (got {geometry!r})")


@lru_cache(maxsize=128)
def _plan(cls, *args):
    """``plan_for``'s cache: one plan per class and normalised arguments."""
    return cls(*args)
