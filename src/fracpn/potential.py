"""1-periodic multi-well potentials and periodic space-time forcings.

Potentials are finite cosine series

    W(v) = sum_k a_k (1 - cos(2 pi k v)),

so W(0) = 0 and W' is 1-periodic automatically; wells sit on the integers
when the curvature at zero is positive.  The "standard" choice
a_1 = 1/(4 pi^2) has W'(v) = sin(2 pi v)/(2 pi) and unit curvature at the
wells, which keeps the transition-layer mobility constants clean.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PeriodicPotential",
    "ForcingTerm",
    "Forcing",
    "eval_potential",
    "sup_norms",
]

_TWO_PI = 2.0 * math.pi
MAX_FORCING_MODE = 512  # config limit: sup_norm's sampling grid grows as (4 * mode)^2


def _golden_min(f, bracket, xtol: float = 1e-12):
    """(x, f(x)) at a local minimum of f inside the bracket (xa, xb, xc).

    A port of scipy.optimize.minimize_scalar(method="golden") for a
    three-point bracket (scipy's _minimize_scalar_golden): the same bracket
    check, the same iterates and the same stopping rule
    |x3 - x0| <= xtol (|x1| + |x2|), so it returns the same numbers.
    """
    xa, xb, xc = bracket
    if xa > xc:
        xa, xc = xc, xa
    if not (xa < xb < xc):
        raise ValueError("Bracketing values (xa, xb, xc) do not fulfill "
                         "this requirement: (xa < xb) and (xb < xc)")
    fa, fb, fc = f(xa), f(xb), f(xc)
    if not (fb < fa and fb < fc):
        raise ValueError("Bracketing values (xa, xb, xc) do not fulfill "
                         "this requirement: (f(xb) < f(xa)) and (f(xb) < f(xc))")
    gr = 0.61803399  # scipy's rounded golden ratio conjugate
    gc = 1.0 - gr
    x0, x3 = xa, xc
    if abs(xc - xb) > abs(xb - xa):
        x1, x2 = xb, xb + gc * (xc - xb)
    else:
        x1, x2 = xb - gc * (xb - xa), xb
    f1, f2 = f(x1), f(x2)
    for _ in range(5000):
        if abs(x3 - x0) <= xtol * (abs(x1) + abs(x2)):
            break
        if f2 < f1:
            x0, x1, x2 = x1, x2, gr * x2 + gc * x3
            f1, f2 = f2, f(x2)
        else:
            x3, x2, x1 = x2, x1, gr * x1 + gc * x0
            f2, f1 = f1, f(x1)
    return (x1, f1) if f1 < f2 else (x2, f2)


@dataclass(frozen=True)
class PeriodicPotential:
    """W(v) = sum_k coeffs[k-1] * (1 - cos(2 pi k v))."""

    cosine_coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(float(a) for a in self.cosine_coeffs)
        if len(coeffs) == 0:
            raise ValueError("potential needs at least one cosine coefficient")
        if not all(math.isfinite(a) for a in coeffs):
            raise ValueError("potential coefficients must be finite")
        if all(a == 0.0 for a in coeffs):
            raise ValueError("potential must not be identically zero")
        object.__setattr__(self, "cosine_coeffs", coeffs)

    def value(self, v):
        v = np.asarray(v, dtype=float)
        out = np.zeros_like(v)
        for k, a in enumerate(self.cosine_coeffs, start=1):
            out += a * (1.0 - np.cos(_TWO_PI * k * v))
        return out

    @property
    def curvature_at_zero(self) -> float:
        """W''(0) = sum_k a_k (2 pi k)^2; must be positive for layer work."""
        return sum(a * (_TWO_PI * k) ** 2 for k, a in enumerate(self.cosine_coeffs, start=1))

    @functools.cache
    def sup_derivative(self, order: int = 1) -> float:
        """sup over a period of |W^(order)|, by dense sampling plus
        golden-section refinement around the sampled peak.  Computed once
        per process for each (potential, order): every cell row asks."""
        vs = np.linspace(0.0, 1.0, 2**14, endpoint=False)
        vals = np.abs(eval_potential(self, vs, order))
        i = int(np.argmax(vals))
        v0 = vs[i]
        dh = vs[1] - vs[0]
        _, fmin = _golden_min(
            lambda v: -abs(float(eval_potential(self, v, order))),
            (v0 - dh, v0, v0 + dh),
        )
        return max(float(vals[i]), -fmin)

    def derivative_bound(self, order: int = 1) -> float:
        """Cheap upper bound sum_k |a_k| (2 pi k)^order (used for CFL)."""
        return sum(abs(a) * (_TWO_PI * k) ** order for k, a in enumerate(self.cosine_coeffs, start=1))


def eval_potential(W: PeriodicPotential, v, order: int = 0):
    """Evaluate W or one of its first four derivatives."""
    if order not in (0, 1, 2, 3, 4):
        raise ValueError(f"derivative order must be in 0..4 (got {order})")
    v = np.asarray(v, dtype=float)
    if order == 0:
        return W.value(v)
    out = np.zeros_like(v)
    for k, a in enumerate(W.cosine_coeffs, start=1):
        w = _TWO_PI * k
        phase = w * v
        if order == 1:
            out += a * w * np.sin(phase)
        elif order == 2:
            out += a * w**2 * np.cos(phase)
        elif order == 3:
            out += -a * w**3 * np.sin(phase)
        else:
            out += -a * w**4 * np.cos(phase)
    return out


@dataclass(frozen=True)
class ForcingTerm:
    """amp * trig(2 pi mode_t * t) * trig(2 pi mode_x * y)."""

    amp: float
    mode_t: int = 0
    mode_x: int = 0
    kind_t: str = "cos"
    kind_x: str = "cos"

    def __post_init__(self):
        if self.kind_t not in ("cos", "sin") or self.kind_x not in ("cos", "sin"):
            raise ValueError("forcing factors must be 'cos' or 'sin'")
        if self.mode_t < 0 or self.mode_x < 0:
            raise ValueError("forcing modes must be nonnegative integers")

    @property
    def is_live(self) -> bool:
        """False when the term vanishes identically: amp 0 or a sin factor of mode 0."""
        return (self.amp != 0.0 and (self.mode_t > 0 or self.kind_t == "cos")
                and (self.mode_x > 0 or self.kind_x == "cos"))

    def eval(self, t, y):
        ft = np.cos(_TWO_PI * self.mode_t * np.asarray(t, dtype=float)) if self.kind_t == "cos" \
            else np.sin(_TWO_PI * self.mode_t * np.asarray(t, dtype=float))
        fy = np.cos(_TWO_PI * self.mode_x * np.asarray(y, dtype=float)) if self.kind_x == "cos" \
            else np.sin(_TWO_PI * self.mode_x * np.asarray(y, dtype=float))
        return self.amp * ft * fy


@dataclass(frozen=True)
class Forcing:
    """Finite trigonometric forcing sigma(t, y), 1-periodic in both arguments."""

    terms: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    @classmethod
    def zero(cls) -> "Forcing":
        return cls(())

    @property
    def is_zero(self) -> bool:
        return not any(t.is_live for t in self.terms)

    def __call__(self, t, y):
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast_shapes(np.shape(t), y.shape))
        for term in self.terms:
            out = out + term.eval(t, y)
        return out

    @functools.cache
    def sup_norm(self) -> float:
        """sup |sigma| over the (t, y) torus: dense sampling, then
        alternating golden-section refinement in each coordinate that some
        live term depends on.  Each axis takes at least 4 samples per period
        of its highest live mode (and at least 256): at 2 per period a term's
        equal peaks fall on neighbouring samples and leave no bracket.
        Computed once per process for each forcing: every cell row asks."""
        live = [f for f in self.terms if f.is_live]
        if not live:
            return 0.0
        m_t = max(f.mode_t for f in live)
        m_y = max(f.mode_x for f in live)
        nt, ny = (max(256, 1 << (4 * m - 1).bit_length()) for m in (m_t, m_y))
        ts = np.arange(nt) / nt
        ys = np.arange(ny) / ny
        grid = np.abs(self(ts[:, None], ys[None, :]))
        it, iy = np.unravel_index(np.argmax(grid), grid.shape)
        t0, y0 = float(ts[it]), float(ys[iy])
        best = float(grid[it, iy])
        if best == 0.0:  # more than 2 samples per period: the terms cancel identically
            return 0.0
        dt, dy = 1.0 / nt, 1.0 / ny
        for _ in range(3):
            if m_t:
                t0, _ = _golden_min(lambda t: -abs(float(self(t, y0))), (t0 - dt, t0, t0 + dt))
            if m_y:
                y0, _ = _golden_min(lambda y: -abs(float(self(t0, y))), (y0 - dy, y0, y0 + dy))
            best = max(best, abs(float(self(t0, y0))))
        return best


def sup_norms(W: PeriodicPotential | None, sigma: Forcing | None):
    """(sup |W'|, sup |sigma|); None means the term is absent."""
    w1 = W.sup_derivative(1) if W is not None else 0.0
    s0 = sigma.sup_norm() if sigma is not None else 0.0
    return w1, s0
