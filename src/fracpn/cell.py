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
splits the rows: (c) takes the sloped rows started from rest at the CFL
step, and takes no time step at all; (a) takes the slope-0 rows and the
F = 0 rows that (c) does not; (b) is tried on every other row.

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
(c) Direct travelling wave.  At p = r/q != 0 the problem is translation
    invariant, so a travelling wave u(t, x) = U(x + c t), U(y) = p y + V(y),
    solves it when V on the q-torus and the wave speed c solve

        c (p + D V) = I[V] + F - W'(p x + V),    mean(V) = 0,

    with D the spectral derivative; then mean(v) = lambda t with
    lambda = p c.  Newton on this bordered system starts from V = 0,
    c = F / p (the free wave) and solves each step densely: the Jacobian
    c D - I + diag W''(p x + V), bordered by p + D V and the mean row, is
    a circulant plus a diagonal, copied into one preallocated (n + 1)^2
    array from a strided view of its first column (I's column is one
    ``PeriodicPlan.apply``).  Once a Newton step falls to WAVE_STEP_TOL,
    the change of lambda by one more step is the uncertainty, and the
    speed is certified when that is at most 1e-12 * max(1, |lambda|).
    Multiplying by U' = p + D V and summing gives the discrete identity
    c sum h (U')^2 = F p q: I and D commute and D is skew, so the operator
    term drops exactly, and the potential term sums a periodic derivative,
    which vanishes up to spectral accuracy.  So a sloped row has no
    pinning plateau: its speed has the sign of F and is 0 only at F = 0,
    where the speed stays (a)'s exact (0, 0) and the Newton stationary
    state replaces stepping to rest.  The solve runs at |F| and the
    result is reflected, v(x) -> -v(-x), for F < 0 (W' is odd), so speeds
    are exactly odd in F.  The speed is the dt -> 0 limit of the stepped
    flow at the same n, free of the Euler map's first-order bias.  A
    solve that has not converged within WAVE_MAX_ITER steps, or a grid
    with n > WAVE_MAX_N, certifies nothing, and the row is stepped.
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
CERTIFY_RTOL = 1e-12  # (b): fit spread and drift; (c): last |dlambda|; relative to max(1, |speed|)
QUAD_RTOL = 1e-14  # certificate (a): relative agreement of two trapezoid values
QUAD_MAX_NODES = 2**20  # certificate (a): a quadrature unsettled here certifies nothing
FIT_TOL = 1e-3  # default fit tolerance
CHECKPOINT_LEVELS = range(6, 0, -1)  # checkpoints at horizon * 2^-j
MIN_CHECKPOINT_STEPS = 64
WAVE_MAX_N = 1024  # route (c): largest dense Jacobian, (n + 1)^2 floats (~8.4 MB)
WAVE_MAX_ITER = 20  # route (c): Newton steps before the row is stepped instead
WAVE_STEP_TOL = 1e-10  # route (c): a converged Newton step, relative to max(1, |c|)


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
    horizon: float  # the time the run covered: the cap, a checkpoint, or 0 (route (c))
    # (speed, uncertainty) known by certificate (a) or route (c); None when
    # the speed is to be fitted
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


def travelling_wave(plan, W, px, slope: Fraction, drive: float):
    """Route (c) (module docstring): (V, speed, uncertainty) of the
    travelling wave at ``drive``, V on the plan's grid, or None when Newton
    has not converged within WAVE_MAX_ITER steps."""
    n = plan.n
    p = float(slope)
    a = abs(drive)
    e0 = np.zeros(n)
    e0[0] = 1.0
    i_col = plan.apply(e0)
    d_hat = (2j * math.pi / plan.period) * np.arange(n // 2 + 1)
    if n % 2 == 0:
        d_hat[-1] = 0.0  # the Nyquist mode: D stays real and skew
    d_col = np.fft.irfft(d_hat, n=n)

    J = np.empty((n + 1, n + 1))
    J[n, :n] = 1.0 / n
    J[n, n] = 0.0
    diag = J.reshape(-1)[: n * (n + 2): n + 2]
    r = np.empty(n + 1)
    V, c = np.zeros(n), a / p
    converged = False
    for _ in range(WAVE_MAX_ITER):
        up = p + np.fft.irfft(np.fft.rfft(V) * d_hat, n=n)
        col = c * d_col - i_col
        # circulant: J[j, k] = col[(j - k) mod n]
        J[:n, :n] = np.lib.stride_tricks.sliding_window_view(
            np.concatenate((col[1:], col)), n)[:, ::-1]
        J[:n, n] = up
        r[:n] = plan.apply(V) + a - c * up
        r[n] = -V.mean()
        if W is not None:
            arg = px + V
            r[:n] -= eval_potential(W, arg, 1)
            diag += eval_potential(W, arg, 2)
        try:
            step = np.linalg.solve(J, r)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        V += step[:n]
        c += step[n]
        if converged:
            break
        converged = float(np.max(np.abs(step))) <= WAVE_STEP_TOL * max(1.0, abs(c))
    else:
        return None
    lam, unc = float(p * c), float(abs(p * step[n]))
    if unc > CERTIFY_RTOL * max(1.0, abs(lam)):
        return None
    if drive < 0.0:
        return -np.roll(V[::-1], 1), -lam, unc  # v(x) -> -v(-x)
    return V, lam, unc


def solve_cell_evolution(spec: CellProblemSpec, initial=None) -> CellTrace:
    """The travelling wave of route (c) when it applies and converges;
    otherwise step the torus flow up to ``spec.horizon``, stopping early at
    a certified checkpoint (module docstring)."""
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

    F = spec.drive
    flow, dt_cfl = torus_flow(plan, W, sigma, px, x, drive=F)
    if (sigma is None and spec.slope != 0 and initial is None and spec.dt is None
            and n <= WAVE_MAX_N):
        wave = travelling_wave(plan, W, px, spec.slope, F)
        if wave is not None:
            V, speed, unc = wave
            return CellTrace(spec=spec, times=np.zeros(1), means=np.array([V.mean()]),
                             v_final=V, dt=dt_cfl, envelope_bound=bound, horizon=0.0,
                             certified=(speed, unc) if F != 0.0 else (0.0, 0.0))
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
    best at that speed.  A travelling wave solved directly (route (c), a
    single sample at t = 0) has mean(v) = mean(V) + speed * t exactly, so
    its corrector amplitude is 0.
    """
    if trace.times.size == 1:
        speed, unc = trace.certified
        return SpeedFit(speed=speed, intercept=float(trace.means[0]), uncertainty=unc,
                        corrector_amplitude=0.0, converged=bool(unc <= tol),
                        fit_window=(0.0, 0.0), envelope_bound=trace.envelope_bound,
                        horizon=trace.horizon)
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
