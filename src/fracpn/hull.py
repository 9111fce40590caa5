"""Hull-function ansatz for slowly driven lattices of layers.

A hull profile h carries a stack of unit transitions: h(x) - x is bounded
(and here exactly 1-periodic), built as

    h(x) = d^2s L0/alpha + sum_i phi((x-i)/(d|p0|)) - n
           + d^2s sum_i psi((x-i)/(d|p0|)) [* tau((x-i)/(d|p0|)) for s < 1/2]

in the n -> infinity limit, with alpha = W''(0).  Partial sums are organized
in symmetric (+i, -i) pairs (each pair term decays like i^(-1-2s)) and the
remainder beyond the truncation is closed analytically with Euler-Maclaurin
sums of the layer/corrector power tails; a doubling (n -> 2n) Cauchy check
guards the closure.  For s < 1/2 the corrector sum does not converge, so each
corrector term is cut off by a C^2 quintic bump supported in |z| <= 2R with
R = 1/(2 d |p0|); at any x at most three cutoff terms are nonzero.

The lattice sums are evaluated over blocks of 64 grid points (_BLOCK_ROWS),
so their temporaries hold 64 x n_terms values whatever the grid size:
building on 1024 points with n_terms = 64 (128 in the Cauchy pass)
allocates at most about 1 MB at once.  Each point's terms are added in the
same order as by whole-grid sums, so the blocks change no bit of h - x.

The residual operator is

    NL[h] = lam h' - d^2s L0 - d^2s |p0|^2s I[h] + W'(h),
    lam = d^(1+2s) c0 |p0| L0,

evaluated on a two-period grid with I[h] taken through the periodic plan
applied to h(x) - x (the affine part contributes nothing).

Also here: the small-slope speed law check
ratio(d) = speed(d p0, d^2s L0) / d^(1+2s) -> c0 |p0| L0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fracop import _em_tail, plan_for
from .layer import CorrectorSolution, LayerSolution, _fit_amplitude
from .potential import eval_potential

__all__ = [
    "CutoffFunction",
    "HullAnsatz",
    "HullTailError",
    "ResidualReport",
    "OrowanReport",
    "build_ansatz",
    "nl_residual",
    "orowan_check",
    "OROWAN_COLUMNS",
]

OROWAN_COLUMNS = ("delta", "lambda", "ratio", "target", "abs_err")


class HullTailError(RuntimeError):
    """Partial sums not Cauchy at the requested tolerance; carries the
    observed doubling difference."""

    def __init__(self, message, cauchy_diff=None):
        super().__init__(message)
        self.cauchy_diff = cauchy_diff


# ---------------------------------------------------------------------------
# Euler-Maclaurin tail closures
# ---------------------------------------------------------------------------


def _em_pair(a: int, gamma, beta: float):
    """sum_{i=a}^inf [(i+gamma)^-beta - (i-gamma)^-beta] for |gamma| < a.

    The two one-sided sums diverge for beta <= 1 but the pair decays like
    i^(-1-beta); the integral term is kept in combined form so the
    divergent pieces cancel analytically (log form at beta = 1).
    """
    g = np.asarray(gamma, dtype=float)
    tp = a + g
    tm = a - g
    if abs(beta - 1.0) < 1e-12:
        integral = -np.log(tp / tm)
    else:
        integral = (tp ** (1.0 - beta) - tm ** (1.0 - beta)) / (beta - 1.0)
    f0 = tp ** (-beta) - tm ** (-beta)
    f1 = -beta * (tp ** (-beta - 1.0) - tm ** (-beta - 1.0))
    f3 = (
        -beta
        * (beta + 1.0)
        * (beta + 2.0)
        * (tp ** (-beta - 3.0) - tm ** (-beta - 3.0))
    )
    return integral + 0.5 * f0 - f1 / 12.0 + f3 / 720.0


# ---------------------------------------------------------------------------
# cutoff
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CutoffFunction:
    """C^2 bump: 1 on [-R, R], 0 outside [-2R, 2R], quintic in between."""

    R: float

    def __post_init__(self):
        if self.R <= 0.0:
            raise ValueError(f"cutoff radius must be positive (got {self.R})")

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        t = np.clip((np.abs(z) - self.R) / self.R, 0.0, 1.0)
        smooth = t * t * t * (t * (6.0 * t - 15.0) + 10.0)
        return 1.0 - smooth


# ---------------------------------------------------------------------------
# layer/corrector far-field models used by the lattice sums
# ---------------------------------------------------------------------------


class _OddTailModel:
    """phi - H beyond the window: -sign(z) (A |z|^-2s + B |z|^-q2), with A
    the asymptotic amplitude g/(2 s alpha) (exact in the limit, unlike a
    finite-window fit) and B fitted against the profile remainder."""

    def __init__(self, layer: LayerSolution):
        s = layer.s
        W = layer.potential
        alpha = W.curvature_at_zero
        self.two_s = 2.0 * s
        self.q2 = min(4.0 * s, 1.0 + 2.0 * s)
        self.A = layer.g_const / (2.0 * s * alpha)
        self._field = layer.field
        R = layer.field.half_width
        self.z_switch = 0.85 * R
        x = layer.field.nodes
        phi = layer.field.values
        sel = (x >= 0.3 * R) & (x <= self.z_switch)
        rem_plus = phi[sel] - 1.0 + self.A * x[sel] ** (-self.two_s)
        selm = (x <= -0.3 * R) & (x >= -self.z_switch)
        rem_minus = phi[selm] - self.A * (-x[selm]) ** (-self.two_s)
        b_plus = -_fit_amplitude(x[sel], rem_plus, self.q2)
        b_minus = _fit_amplitude(-x[selm], rem_minus, self.q2)
        self.B = 0.5 * (b_plus + b_minus)

    def phi_tilde(self, z):
        """phi - H everywhere: profile inside the window, model outside."""
        z = np.asarray(z, dtype=float)
        out = np.empty_like(z)
        inside = np.abs(z) <= self.z_switch
        out[inside] = self._field.eval(z[inside]) - (z[inside] >= 0.0)
        zo = z[~inside]
        az = np.abs(zo)
        out[~inside] = -np.sign(zo) * (
            self.A * az ** (-self.two_s) + self.B * az ** (-self.q2)
        )
        return out

    def pair_closure(self, x, scale: float, a: int):
        """sum_{i=a}^inf [phi_tilde((x+i)/scale) + phi_tilde((x-i)/scale)]
        for 0 <= x < a, via the model and Euler-Maclaurin pair sums."""
        out = -self.A * scale**self.two_s * _em_pair(a, x, self.two_s)
        out -= self.B * scale**self.q2 * _em_pair(a, x, self.q2)
        return out


class _EvenTailModel:
    """Corrector beyond the window: C |z|^-q on both sides (even potential);
    per-side amplitudes retained for generality."""

    def __init__(self, psi: CorrectorSolution):
        (am, bm), = psi.field.tail.powers_minus
        (ap, bp), = psi.field.tail.powers_plus
        self.q = 0.5 * (bm + bp)
        self.amp_minus = am
        self.amp_plus = ap
        self.z_switch = 0.85 * psi.field.half_width
        self._field = psi.field
        # a tail fitted to solver noise (e.g. the corrector vanishes
        # identically when the drive term and c phi' cancel) carries a
        # garbage exponent; treat it as zero
        value_at_switch = max(abs(am), abs(ap)) * self.z_switch ** (-self.q)
        if value_at_switch <= 3.0 * psi.residual_sup_inner:
            self.amp_minus = 0.0
            self.amp_plus = 0.0
            self.q = 2.0

    def eval(self, z):
        z = np.asarray(z, dtype=float)
        out = np.empty_like(z)
        inside = np.abs(z) <= self.z_switch
        out[inside] = self._field.eval(z[inside])
        zo = z[~inside]
        amp = np.where(zo >= 0.0, self.amp_plus, self.amp_minus)
        out[~inside] = amp * np.abs(zo) ** (-self.q)
        return out

    def sum_closure(self, x, scale: float, a: int):
        """sum_{i=a}^inf [psi((x+i)/scale) + psi((x-i)/scale)]."""
        if self.q <= 1.0:
            raise HullTailError(
                f"corrector tail exponent {self.q:.3f} <= 1: the corrector "
                "sum does not converge (use the cutoff branch)"
            )
        return scale**self.q * (
            self.amp_plus * _em_tail(a, x, self.q)
            + self.amp_minus * _em_tail(a, -x, self.q)
        )


# ---------------------------------------------------------------------------
# ansatz
# ---------------------------------------------------------------------------

_BLOCK_ROWS = 64  # grid points per block of the lattice sums
_PERIOD = 2.0  # the evaluation grid spans two periods of the integer lattice


@dataclass(eq=False)
class HullAnsatz:
    delta: float
    p0: float
    L0: float
    s: float
    n_terms: int
    layer: LayerSolution
    psi: CorrectorSolution | None
    cutoff: CutoffFunction | None
    grid: np.ndarray               # x samples over _PERIOD
    g_values: np.ndarray           # h(x) - x on the grid
    cauchy_diff: float
    alpha: float
    phi_model: _OddTailModel            # phi - H with its far-field model
    psi_model: _EvenTailModel | None    # corrector with its tail (no cutoff only)

    @property
    def scale(self) -> float:
        return self.delta * abs(self.p0)


def _assemble_g(ansatz: HullAnsatz, x: np.ndarray, n_terms: int) -> np.ndarray:
    """h(x) - x for the lattice ansatz at points x, in blocks of _BLOCK_ROWS."""
    out = np.empty(x.shape)
    for lo in range(0, x.size, _BLOCK_ROWS):
        out[lo:lo + _BLOCK_ROWS] = _assemble_block(ansatz, x[lo:lo + _BLOCK_ROWS], n_terms)
    return out


def _assemble_block(ansatz: HullAnsatz, x: np.ndarray, n_terms: int) -> np.ndarray:
    """h(x) - x at a block of points, each lattice sum as block x n_terms arrays."""
    scale = ansatz.scale
    s = ansatz.s
    two_s = 2.0 * s
    d2s = ansatz.delta**two_s
    phi_model = ansatz.phi_model
    out = np.full(x.shape, ansatz.delta**two_s * ansatz.L0 / ansatz.alpha)

    # layer stack: phi(x/scale) + sum pairs [phi tilde(+) + phi tilde(-)];
    # the Heaviside parts of the pairs sum to floor(x) + 1 exactly
    out += phi_model.phi_tilde(x / scale) + np.floor(x) + 1.0 - x
    i = np.arange(1, n_terms + 1, dtype=float)
    zp = (x[:, None] + i[None, :]) / scale
    zm = (x[:, None] - i[None, :]) / scale
    out += np.sum(phi_model.phi_tilde(zp) + phi_model.phi_tilde(zm), axis=1)
    out += phi_model.pair_closure(x, scale, n_terms + 1)

    if ansatz.psi is not None and ansatz.L0 != 0.0:
        if ansatz.cutoff is None:
            psi_model = ansatz.psi_model
            out += d2s * psi_model.eval(x / scale)
            out += d2s * np.sum(psi_model.eval(zp) + psi_model.eval(zm), axis=1)
            out += d2s * psi_model.sum_closure(x, scale, n_terms + 1)
        else:
            tau = ansatz.cutoff
            for z in (x / scale, zp, zm):
                t = tau(z)
                mask = t > 0.0
                vals = np.zeros_like(z)
                if np.any(mask):
                    vals[mask] = ansatz.psi.field.eval(z[mask]) * t[mask]
                out += d2s * (vals if vals.ndim == 1 else np.sum(vals, axis=1))
    return out


def build_ansatz(
    delta: float,
    p0: float,
    L0: float,
    layer: LayerSolution,
    psi: CorrectorSolution | None = None,
    n_terms: int = 64,
    n_grid: int = 1024,
    cauchy_tol: float = 1e-8,
) -> HullAnsatz:
    """Assemble the hull ansatz on a two-period evaluation grid.

    For s < 1/2 the corrector terms are cut off at R = 1/(2 delta |p0|).
    The closure is validated by rebuilding with 2 n_terms: the sup change
    must be below cauchy_tol, else HullTailError (with the observed
    difference, which estimates the tail error).
    """
    if p0 == 0.0:
        raise ValueError("p0 must be nonzero")
    if n_terms < 1:
        raise ValueError(f"n_terms must be a positive integer (got {n_terms})")
    s = layer.s
    if psi is not None and psi.s != s:
        raise ValueError("layer and corrector were built at different s")
    alpha = layer.potential.curvature_at_zero
    scale = delta * abs(p0)
    if 1.0 / scale < 2.0:
        raise ValueError(
            f"lattice spacing too small: need 1/(delta |p0|) >= 2, got {1.0/scale:.3f}"
        )
    if L0 != 0.0 and psi is None:
        raise ValueError("L0 != 0 needs the corrector")

    cutoff = CutoffFunction(R=0.5 / scale) if (s < 0.5 and L0 != 0.0) else None

    x = _PERIOD * np.arange(n_grid) / n_grid
    ans = HullAnsatz(
        delta=delta, p0=p0, L0=L0, s=s, n_terms=n_terms,
        layer=layer, psi=psi if L0 != 0.0 else None, cutoff=cutoff,
        grid=x, g_values=np.empty(n_grid), cauchy_diff=math.nan,
        alpha=alpha, phi_model=_OddTailModel(layer),
        psi_model=_EvenTailModel(psi) if L0 != 0.0 and cutoff is None else None,
    )

    g_n = _assemble_g(ans, x, n_terms)
    g_2n = _assemble_g(ans, x, 2 * n_terms)
    diff = float(np.max(np.abs(g_2n - g_n)))
    if diff > cauchy_tol:
        raise HullTailError(
            f"lattice sums not Cauchy: doubling n_terms={n_terms} moves h by "
            f"{diff:.3e} > {cauchy_tol:.1e}",
            cauchy_diff=diff,
        )
    ans.g_values = g_2n
    ans.cauchy_diff = diff
    if not np.all(np.isfinite(ans.g_values)):
        raise HullTailError("tail closure produced non-finite h - x")
    return ans


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ResidualReport:
    values: np.ndarray     # NL[h] on the ansatz grid
    sup_abs: float
    over_d2s: float        # sup |NL| / delta^2s
    lam: float


def nl_residual(ansatz: HullAnsatz) -> ResidualReport:
    """NL[h] = lam h' - d^2s L0 - d^2s |p0|^2s I[h] + W'(h) on the grid,
    lam = d^(1+2s) c0 |p0| L0.

    I[h] is the periodic operator applied to h - x; h' is h by centered
    differences (exactly 1 + g').
    """
    layer = ansatz.layer
    s = ansatz.s
    two_s = 2.0 * s
    d = ansatz.delta
    L0 = ansatz.L0
    lam = d ** (1.0 + two_s) * layer.c0 * abs(ansatz.p0) * L0
    W = layer.potential
    g = ansatz.g_values
    if not np.all(np.isfinite(g)) or float(np.max(np.abs(g))) > 1e3:
        raise HullTailError("h - x is not bounded on the grid; closure invalid")
    n = g.size
    hx = _PERIOD / n
    plan = plan_for("periodic", n, 0.5 * _PERIOD, s, layer.g_const, r=0.25)
    Ih = plan.apply(g)
    hp = 1.0 + (np.roll(g, -1) - np.roll(g, 1)) / (2.0 * hx)
    h = ansatz.grid + g
    values = lam * hp - d**two_s * L0 - (d * abs(ansatz.p0))**two_s * Ih \
        + eval_potential(W, h, 1)
    sup = float(np.max(np.abs(values)))
    return ResidualReport(values=values, sup_abs=sup, over_d2s=sup / d**two_s, lam=lam)


# ---------------------------------------------------------------------------
# small-slope speed law
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrowanReport:
    rows: tuple          # dicts with OROWAN_COLUMNS keys
    target: float
    warnings: tuple


def orowan_check(
    delta_list,
    p0: float,
    L0: float,
    layer: LayerSolution,
    n: int = 512,
    horizon: float = 200.0,
) -> OrowanReport:
    """Effective speeds at slope = delta p0, drive = delta^2s L0, compared
    with the small-slope law ratio -> c0 |p0| L0.

    The speeds come from the cell module (independent of the ansatz), so the
    two pipelines cross-validate.  Fits whose uncertainty exceeds
    cell.FIT_TOL are reported in warnings and the report is still returned.
    """
    from .cell import FIT_TOL, CellProblemSpec, as_rational, hbar  # only this check steps cells

    deltas = list(delta_list)
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError(f"delta list must be strictly decreasing (got {deltas})")
    s = layer.s
    two_s = 2.0 * s
    target = layer.c0 * abs(p0) * L0
    rows = []
    warnings = []
    for d in deltas:
        spec = CellProblemSpec(
            s=s, slope=as_rational(d * p0), drive=d**two_s * L0,
            potential=layer.potential, n=n, horizon=horizon, g_const=layer.g_const,
        )
        fit = hbar(spec)
        ratio = fit.speed / d ** (1.0 + two_s)
        if not fit.converged:
            warnings.append(
                f"delta={d}: speed fit uncertainty {fit.uncertainty:.2e} above {FIT_TOL:.1e}"
            )
        rows.append({
            "delta": d,
            "lambda": fit.speed,
            "ratio": ratio,
            "target": target,
            "abs_err": abs(ratio - target),
        })
    return OrowanReport(rows=tuple(rows), target=target, warnings=tuple(warnings))
