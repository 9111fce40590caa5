"""Driven evolutions on a torus and the effective drive--speed relation.

For a rational mean slope p = r/q (in lowest terms) the pinning term
W'(p x + v) is q-periodic in x whenever v is, so the bounded part v of the
solution lives on a q-torus and evolves by

    v_t = I[v] + F - W'(p x + v) - sigma(t, x),

with F the constant drive.  The scheme is explicit Euler under the CFL
bound dt * (Lambda + sup W'') <= 0.9, which keeps the update monotone in
the initial data (discrete comparison).  The spatial mean of I[v] vanishes
identically for the periodic plan, so

    d/dt mean(v) = F - mean(W' + sigma)   (exactly),

and |mean(v)(t) - mean(v)(0) - F t| <= (sup|W'| + sup|sigma|) t along the
discrete flow; a violation beyond roundoff slack aborts the run.

The effective speed for (p, F) is the long-time slope of mean(v), fitted
by least squares over the second half [T/2, T] of the time T the run
covered.  The reported uncertainty is the spread between the slopes fitted
on the two halves of the fit window, and the corrector amplitude is the
half-range of the residual mean(v) - speed * t there.  Results carry an
explicit ``converged`` flag; nothing is clamped or hidden.

The spec's ``horizon`` is a cap.  At the checkpoints t = horizon * 2^-j,
j = 6, ..., 1 (only those at least 64 steps in, so that a fit window holds
at least 32 samples), a run stops as soon as its speed is certified, and
T is then that checkpoint; a run that is never certified runs to the cap.
Two certificates exist:

(a) Exact zero.  Without forcing, the speed is exactly 0 when F = 0, and
    when p = 0 and |F| <= sup|W'|.  At F = 0 the flow is the gradient flow
    of E(v) = -1/2 <v, I v> + sum W(p x + v): both terms are bounded below
    (I is negative semi-definite and W is bounded) and E is unchanged by v -> v + 1,
    so mean(v) cannot drift linearly in t.  The discrete scheme inherits
    this: E has gradient Lipschitz constant at most Lambda + sup W'', and
    the CFL step 0.9 / (Lambda + sup W'') is below 2 / (Lambda + sup W''),
    so each explicit Euler step decreases E.  At p = 0 the uniform states
    solve the scalar ODE c' = F - W'(c), which has rest points when
    |F| <= sup|W'| (W' is odd for the cosine potentials); by comparison any
    state stays between two of them.  Such a run stops at the first
    checkpoint where max|v_t| <= 1e-9, which confirms that the discrete
    flow has settled as the argument says, and reports speed 0.0 with
    uncertainty 0.0.  A run that fails to settle runs to the cap and is
    fitted as usual.
(b) Travelling wave.  The fit over [t/2, t] at a checkpoint certifies the
    speed when its uncertainty is at most 1e-12 * max(1, |speed|), it agrees
    with the previous checkpoint's speed to the same bound, and mean(v)
    advanced by at least 1/q over the window.  A moving state is periodic
    up to v(x) -> v(x + a) + p a + b, and mean(v) advances by 1/q per
    period, so the last condition asks for at least one whole period in
    the window: a pinned-looking run near depinning, whose mean has barely
    moved, never passes it.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .fracop import plan_for
from .potential import Forcing, PeriodicPotential, eval_potential, sup_norms

__all__ = [
    "CellProblemSpec",
    "CellTrace",
    "SpeedFit",
    "CellStabilityError",
    "as_rational",
    "solve_cell_evolution",
    "estimate_lambda",
    "hbar",
    "hbar_table",
    "TABLE_COLUMNS",
]

TABLE_COLUMNS = (
    "slope_num",
    "slope_den",
    "drive",
    "speed",
    "uncertainty",
    "corrector_amplitude",
    "converged",
    "horizon",
    "n",
)

SETTLE_TOL = 1e-9  # certificate (a): max|v_t| of a settled run
CERTIFY_RTOL = 1e-12  # certificate (b): fit spread and drift, relative to max(1, |speed|)
CHECKPOINT_LEVELS = range(6, 0, -1)  # checkpoints at horizon * 2^-j
MIN_CHECKPOINT_STEPS = 64


class CellStabilityError(RuntimeError):
    """The discrete flow left the comparison envelope (a bug or an unstable
    step, never legitimate dynamics)."""


def as_rational(p, q_max: int = 64) -> Fraction:
    """Coerce a slope to an exactly-representable Fraction.

    Floats are accepted only when some fraction with denominator <= q_max
    reproduces them to 1e-12; otherwise the caller must pass a Fraction.
    """
    if isinstance(p, Fraction):
        frac = p
    elif isinstance(p, int):
        frac = Fraction(p)
    elif isinstance(p, tuple) and len(p) == 2:
        frac = Fraction(int(p[0]), int(p[1]))
    elif isinstance(p, float):
        frac = Fraction(p).limit_denominator(q_max)
        if abs(float(frac) - p) > 1e-12:
            raise ValueError(
                f"slope {p!r} is not a rational with denominator <= {q_max}"
            )
    else:
        raise TypeError(f"cannot interpret slope of type {type(p).__name__}")
    if frac.denominator > q_max:
        raise ValueError(
            f"slope denominator {frac.denominator} exceeds the supported maximum {q_max}"
        )
    return frac


@dataclass(frozen=True)
class CellProblemSpec:
    s: float
    slope: Fraction
    drive: float
    potential: PeriodicPotential | None
    forcing: Forcing | None = None
    n: int = 512
    horizon: float = 200.0
    dt: float | None = None
    g_const: float | None = None

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must lie in (0, 1) (got {self.s})")
        object.__setattr__(self, "slope", as_rational(self.slope))
        if not math.isfinite(self.drive):
            raise ValueError("drive must be finite")
        if self.n < 16:
            raise ValueError(f"n must be at least 16 (got {self.n})")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if self.dt is not None and not 0.0 < self.dt:
            raise ValueError("dt must be positive when given")

    @property
    def torus_period(self) -> int:
        return self.slope.denominator


@dataclass(eq=False)
class CellTrace:
    spec: CellProblemSpec
    times: np.ndarray
    means: np.ndarray
    v_final: np.ndarray
    dt: float
    envelope_bound: float  # sup|W'| + sup|sigma|
    horizon: float  # the time the run covered: the cap or a checkpoint
    certified_zero: bool  # stopped by certificate (a): the speed is exactly 0


def solve_cell_evolution(spec: CellProblemSpec, initial=None) -> CellTrace:
    q = spec.torus_period
    n = spec.n
    h = q / n
    plan = plan_for("periodic", n, 0.5 * q, spec.s, spec.g_const)

    x = h * np.arange(n)
    px = float(spec.slope) * x  # enters only through 1-periodic functions
    W = spec.potential
    sigma = spec.forcing
    K, K_sigma = sup_norms(W, sigma)
    bound = K + K_sigma

    wpp = W.derivative_bound(2) if W is not None else 0.0
    dt = spec.dt if spec.dt is not None else 0.9 / (plan.stiffness + wpp)
    nsteps = int(math.ceil(spec.horizon / dt))
    checkpoints = {}  # step index -> checkpoint time
    for j in CHECKPOINT_LEVELS:
        t_j = spec.horizon * 2.0**-j
        k_j = int(math.ceil(t_j / dt))
        if k_j >= MIN_CHECKPOINT_STEPS:
            checkpoints[k_j] = t_j

    if initial is None:
        v = np.zeros(n)
    else:
        v = np.array(initial, dtype=float)
        if v.shape != (n,):
            raise ValueError(f"initial state must have shape ({n},)")

    means = np.empty(nsteps + 1)
    means[0] = v.mean()
    mean0 = means[0]
    F = spec.drive
    exact_zero = sigma is None and (F == 0.0 or (spec.slope == 0 and abs(F) <= K))
    horizon, certified_zero, last_speed = spec.horizon, False, None
    check_every = max(1, nsteps // 64)
    slack = 1e-8

    for k in range(nsteps):
        rhs = plan.apply(v) + F
        if W is not None:
            rhs -= eval_potential(W, px + v, 1)
        if sigma is not None:
            rhs -= sigma(k * dt, x)
        v = v + dt * rhs
        means[k + 1] = v.mean()
        if (k + 1) % check_every == 0:
            t = (k + 1) * dt
            drift = abs(means[k + 1] - mean0 - F * t)
            if drift > bound * t + slack * (1.0 + t):
                raise CellStabilityError(
                    f"mean drift {drift:.3e} left the comparison envelope "
                    f"{bound:.3e} * t at t = {t:.3f} (slope {spec.slope}, "
                    f"drive {F})"
                )
        t_j = checkpoints.get(k + 1)
        if t_j is None:
            continue
        m = k + 2
        if exact_zero:
            if float(np.max(np.abs(rhs))) <= SETTLE_TOL:
                horizon, certified_zero = t_j, True
                break
            continue
        times = dt * np.arange(m)
        fit = estimate_lambda(CellTrace(spec, times, means[:m], v, dt, bound, t_j, False))
        rtol = CERTIFY_RTOL * max(1.0, abs(fit.speed))
        start = int(np.searchsorted(times, fit.fit_window[0]))
        if (fit.uncertainty <= rtol and last_speed is not None
                and abs(fit.speed - last_speed) <= rtol
                and abs(means[k + 1] - means[start]) >= 1.0 / q):
            horizon = t_j
            break
        last_speed = fit.speed
    else:
        m = nsteps + 1

    return CellTrace(spec=spec, times=dt * np.arange(m), means=means[:m], v_final=v, dt=dt,
                     envelope_bound=bound, horizon=horizon, certified_zero=certified_zero)


@dataclass(frozen=True)
class SpeedFit:
    speed: float
    intercept: float
    uncertainty: float
    corrector_amplitude: float
    converged: bool
    fit_window: tuple
    envelope_bound: float
    horizon: float  # the time the run covered


def _ls_slope(t, y):
    A = np.vstack([t, np.ones_like(t)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(coef[0]), float(coef[1])


def estimate_lambda(trace: CellTrace, fit_window=(0.5, 1.0), tol: float = 1e-3) -> SpeedFit:
    """Fit the effective speed from the mean trace.

    The uncertainty is |slope(first half) - slope(second half)| over the fit
    window; ``converged`` records whether it is below ``tol``.  A trace
    stopped by the exact-zero certificate reports speed 0.0 and uncertainty
    0.0, with the window's mean as intercept.
    """
    T = trace.times[-1]
    lo, hi = fit_window[0] * T, fit_window[1] * T
    sel = (trace.times >= lo) & (trace.times <= hi)
    if sel.sum() < 16:
        raise ValueError("fit window contains fewer than 16 samples")
    t = trace.times[sel]
    y = trace.means[sel]
    if trace.certified_zero:
        speed, intercept, unc = 0.0, float(y.mean()), 0.0
    else:
        speed, intercept = _ls_slope(t, y)
        mid = t.size // 2
        s1, _ = _ls_slope(t[:mid], y[:mid])
        s2, _ = _ls_slope(t[mid:], y[mid:])
        unc = abs(s1 - s2)
    resid = y - (speed * t + intercept)
    amp = 0.5 * float(resid.max() - resid.min())
    return SpeedFit(
        speed=speed,
        intercept=intercept,
        uncertainty=unc,
        corrector_amplitude=amp,
        converged=bool(unc <= tol),
        fit_window=(float(lo), float(hi)),
        envelope_bound=trace.envelope_bound,
        horizon=trace.horizon,
    )


def hbar(spec: CellProblemSpec, tol: float = 1e-3) -> SpeedFit:
    """Effective speed for one (slope, drive) pair."""
    return estimate_lambda(solve_cell_evolution(spec), tol=tol)


def _table_worker(args):
    spec, tol = args
    fit = hbar(spec, tol)
    return {
        "slope_num": spec.slope.numerator,
        "slope_den": spec.slope.denominator,
        "drive": spec.drive,
        "speed": fit.speed,
        "uncertainty": fit.uncertainty,
        "corrector_amplitude": fit.corrector_amplitude,
        "converged": fit.converged,
        "horizon": fit.horizon,
        "n": spec.n,
    }


def hbar_table(
    base: CellProblemSpec,
    slopes,
    drives,
    tol: float = 1e-3,
    workers: int = 1,
) -> list:
    """Effective speeds over a (slope, drive) grid, sorted by (slope, drive).

    ``base`` supplies everything except the grid axes.  With workers > 1 the
    cells run in separate processes; the merged rows are sorted either way,
    so output order is deterministic.
    """
    slopes = [as_rational(p) for p in slopes]
    jobs = [
        (replace(base, slope=p, drive=float(F)), tol)
        for p in sorted(set(slopes))
        for F in sorted({float(F) for F in drives})
    ]
    if workers <= 1:
        rows = [_table_worker(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            rows = list(ex.map(_table_worker, jobs))
    rows.sort(key=lambda r: (r["slope_num"] / r["slope_den"], r["drive"]))
    return rows
