"""Driven evolutions on a torus and the effective drive--speed relation.

For a rational mean slope p = r/q (in lowest terms) the pinning term
W'(p x + v) is q-periodic in x whenever v is, so the bounded part v of the
solution lives on a q-torus and evolves by

    v_t = I[v] + F - W'(p x + v) - sigma(t, x),

with F the constant drive.  ``torus_flow`` builds the right-hand side of
v_t = a I[v] + F - W'(b (p x + v)) - sigma(c t, y), here a = b = c = 1, and
its CFL step dt = 0.9 / (a Lambda + b sup W''), which keeps the explicit
Euler update ``euler_steps`` monotone in the initial data (discrete
comparison).  ``homog`` steps its eps problems with both (a, b, c powers of
eps) and its effective equations with ``euler_steps``.  The spatial mean of
I[v] vanishes identically for the periodic plan, so

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
T is then that checkpoint; a run that is never certified runs to the cap
and is fitted as above.  Without forcing, a test made before the run
splits the rows: (a) takes F = 0 and the slope-0 rows, and (b) is tried on
every other row.

(a) Known speed.  Without forcing, the speed is known before the run when
    F = 0 or p = 0.  At F = 0 the flow is the gradient flow of
    E(v) = -1/2 <v, I v> + sum W(p x + v), which is bounded below (I is
    negative semi-definite, W bounded) and unchanged by v -> v + 1, so
    mean(v) cannot drift linearly and the speed is 0; each explicit Euler
    step decreases E, as the CFL step 0.9 / (Lambda + sup W'') is below
    2 / (Lambda + sup W''), and Lambda + sup W'' bounds the Lipschitz
    constant of grad E.  At p = 0 the uniform states v = c solve the
    scalar ODE c' = F - W'(c) (I vanishes on constants), and by comparison
    every state lies between c and c + 1, so it has their speed: 0 when
    |F| <= sup|W'| (there are rest points, W' being odd), and otherwise
    lambda = sign(F) / int_0^1 du / |F - W'(u)| (F when W is None).  The
    integrand is smooth and 1-periodic, so the trapezoid rule converges
    geometrically: the nodes are doubled from 64 until two values agree to
    1e-14 relative, and that change is the uncertainty.  Near depinning,
    roundoff at the integrand's peak keeps them apart; a quadrature not
    settled at 2^20 nodes certifies nothing, and the row is fitted as in
    (b).  The known speed is the flow's, free of time-step error.  A
    zero-speed run stops at the first checkpoint where max|v_t| <= 1e-9,
    which confirms that the discrete flow has settled (one that never
    settles is fitted at the cap); a moving run stops at the first
    checkpoint whose window [t/2, t] holds one whole advance of 1/q of
    mean(v), and its trace gives the intercept and corrector amplitude.
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
QUAD_RTOL = 1e-14  # certificate (a): relative agreement of two trapezoid values
QUAD_MAX_NODES = 2**20  # certificate (a): a quadrature unsettled here certifies nothing
FIT_TOL = 1e-3  # default fit tolerance
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
    # (speed, uncertainty) known by certificate (a); None when the speed is
    # to be fitted
    certified: tuple | None


def known_speed(W: PeriodicPotential | None, drive: float, sup_wp: float):
    """Certificate (a)'s slope-0 speed without forcing (module docstring):
    (speed, uncertainty), or None when the trapezoid rule has not settled
    by QUAD_MAX_NODES nodes."""
    a = abs(drive)  # -F has the same integral, W' being odd
    if a <= sup_wp:
        return 0.0, 0.0
    if W is None:
        return drive, 0.0
    n = 64
    total = float(np.sum(1.0 / np.abs(a - eval_potential(W, np.arange(n) / n, 1))))
    lam = n / total
    while n < QUAD_MAX_NODES:
        total += float(np.sum(1.0 / np.abs(a - eval_potential(W, (np.arange(n) + 0.5) / n, 1))))
        n *= 2
        change, lam = abs(n / total - lam), n / total
        if change <= QUAD_RTOL * lam:
            return math.copysign(lam, drive), change
    return None


def torus_flow(plan, W, sigma, px, y, drive: float = 0.0, a: float = 1.0, b: float = 1.0,
               c: float = 1.0):
    """(rhs(t, v), CFL step) of v_t = a I[v] + F - W'(b (px + v)) - sigma(c t, y)
    (module docstring).  Unit scales are skipped, so cell runs pay nothing."""
    def rhs(t, v):
        out = plan.apply(v)
        if a != 1.0:
            out *= a
        out += drive
        if W is not None:
            arg = px + v
            if b != 1.0:
                arg *= b
            out -= eval_potential(W, arg, 1)
        if sigma is not None:
            out -= sigma(c * t, y)
        return out

    stiff = a * plan.stiffness + b * (W.derivative_bound(2) if W is not None else 0.0)
    return rhs, (0.9 / stiff if stiff > 0 else math.inf)


def euler_steps(rhs, v, dt: float, nsteps: int):
    """Explicit Euler v <- v + dt rhs(k dt, v).  Yields (k, v_k, rhs of step
    k - 1) for k = 1, ..., nsteps; the caller may stop early."""
    for k in range(nsteps):
        r = rhs(k * dt, v)
        v = v + dt * r
        yield k + 1, v, r


def solve_cell_evolution(spec: CellProblemSpec, initial=None, tol: float = FIT_TOL) -> CellTrace:
    """Step the torus flow up to ``spec.horizon``, stopping early at a
    certified checkpoint (module docstring).  ``tol``, the fit tolerance
    that ``estimate_lambda`` will apply, does not move a stop."""
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

    flow, dt_cfl = torus_flow(plan, W, sigma, px, x, drive=spec.drive)
    dt = spec.dt if spec.dt is not None else dt_cfl
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
    known = known_speed(W, F, K) if sigma is None and (F == 0.0 or spec.slope == 0) else None
    moving = known is not None and known[0] != 0.0
    horizon, certified, last_speed = spec.horizon, known if moving else None, None
    check_every = max(1, nsteps // 64)
    slack = 1e-8

    for k, v, rhs in euler_steps(flow, v, dt, nsteps):
        means[k] = v.mean()
        if k % check_every == 0:
            t = k * dt
            drift = abs(means[k] - mean0 - F * t)
            if drift > bound * t + slack * (1.0 + t):
                raise CellStabilityError(
                    f"mean drift {drift:.3e} left the comparison envelope "
                    f"{bound:.3e} * t at t = {t:.3f} (slope {spec.slope}, "
                    f"drive {F})"
                )
        t_j = checkpoints.get(k)
        if t_j is None:
            continue
        m = k + 1
        times = dt * np.arange(m)
        start = int(np.searchsorted(times, 0.5 * times[-1]))  # the fit window [t/2, t]
        whole_advance = abs(means[k] - means[start]) >= 1.0 / q
        if known is not None:
            settled = float(np.max(np.abs(rhs))) <= SETTLE_TOL
            if whole_advance if moving else settled:
                horizon, certified = t_j, known
                break
            continue
        fit = estimate_lambda(CellTrace(spec, times, means[:m], v, dt, bound, t_j, None))
        rtol = CERTIFY_RTOL * max(1.0, abs(fit.speed))
        if (fit.uncertainty <= rtol and last_speed is not None
                and abs(fit.speed - last_speed) <= rtol and whole_advance):
            horizon = t_j
            break
        last_speed = fit.speed
    else:
        m = nsteps + 1

    return CellTrace(spec=spec, times=dt * np.arange(m), means=means[:m], v_final=v, dt=dt,
                     envelope_bound=bound, horizon=horizon, certified=certified)


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


def estimate_lambda(trace: CellTrace, fit_window=(0.5, 1.0), tol: float = FIT_TOL) -> SpeedFit:
    """Fit the effective speed from the mean trace.

    The uncertainty is |slope(first half) - slope(second half)| over the fit
    window; ``converged`` records whether it is below ``tol``.  A trace
    with a known speed (certificate (a)) reports that speed and its
    uncertainty instead of fitting, with the intercept that fits the window
    best at that speed.
    """
    T = trace.times[-1]
    lo, hi = fit_window[0] * T, fit_window[1] * T
    sel = (trace.times >= lo) & (trace.times <= hi)
    if sel.sum() < 16:
        raise ValueError("fit window contains fewer than 16 samples")
    t = trace.times[sel]
    y = trace.means[sel]
    if trace.certified is not None:
        speed, unc = trace.certified
        intercept = float(np.mean(y - speed * t))
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


def hbar(spec: CellProblemSpec, tol: float = FIT_TOL) -> SpeedFit:
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
    tol: float = FIT_TOL,
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
