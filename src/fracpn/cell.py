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

The effective speed for (p, F) comes by one of two routes.  Each row makes
one ``solve_cell_evolution`` call, and ``estimate_lambda`` turns its trace
into the reported speed, uncertainty and corrector amplitude; the row is
``converged`` when the uncertainty is at most FIT_TOL.

Direct route.  A row with no forcing (none, or no live term, see
``Forcing.is_zero``), started from rest at the CFL step
(no ``initial`` state and no ``dt``), is solved with no time step.  Its
trace holds one sample at t = 0 and ``horizon`` 0.0, and ``certified``
holds (speed, uncertainty, corrector amplitude), which ``estimate_lambda``
reports as they stand.  The values are free of time-step error, and the
sloped ones of the quadrature's grid error too.

(a) Slope 0: the uniform orbit.  The state from v = 0 stays uniform, and
    v = c solves the scalar ODE c' = F - W'(c) (I vanishes on constants).
    Its speed is 0 when |F| <= sup|W'| (there are rest points, W' being
    odd), and otherwise lambda = sign(F) / int_0^1 du / |F - W'(u)| (F when
    W is None).  The integrand g = 1 / |F - W'| is smooth and 1-periodic,
    so the trapezoid rule converges geometrically: the nodes are doubled
    from 64 until two values agree to 1e-14 relative, and that change is
    the uncertainty.  With P the periodic antiderivative of g - mean(g),
    the orbit obeys c(t) - lambda t = -lambda P(c), so the corrector
    amplitude is 1/2 |lambda| (max P - min P).  P is taken by one rfft on
    the quadrature's final nodes and read, by spectral interpolation, on at
    least AMP_SAMPLES points: the final nodes alone miss its extrema by up
    to 2.6e-4 relative on the s = 0.3 strong table.  The state is 0 for a
    moving row and at F = 0.  For 0 < |F| <= sup|W'| it is the rest point the orbit settles
    to: the first root c* of W'(c) = |F| in the direction of F, found by
    bisection in the first sign change over REST_SAMPLES samples of a
    period.  Near depinning, roundoff at the integrand's peak keeps the
    quadrature values apart.  A quadrature not settled at 2^20 nodes, or a
    rest point with no sampled sign change, sends the row to the stepped
    route.
(b) Slope p = r/q != 0: the travelling wave.  The problem is translation
    invariant, so a travelling wave u(t, x) = U(x + c t), U(y) = p y + V(y),
    solves it when V on the q-torus and the wave speed c solve

        c (p + D V) = I[V] + F - W'(p x + V),    mean(V) = 0,

    with D the spectral derivative; then mean(v) = lambda t with
    lambda = p c, and the corrector amplitude is 0.  ``travelling_wave``
    solves it on any torus plan; the direct route uses the exact-symbol
    spectral plan on m = max(16, 8q), 2m, 4m, ... <= WAVE_MAX_N points
    until two successive speeds agree to CERTIFY_RTOL * max(1, |lambda|),
    and reports the finer grid's wave (``spec.n`` does not enter), its
    uncertainty raised to the pair difference.  On each grid Newton starts
    from V = 0, c = F / p (the free wave) and solves each step densely:
    the Jacobian c D - I + diag W''(p x + V), bordered by p + D V and the
    mean row, is a circulant plus a diagonal, copied into one preallocated
    (m + 1)^2 array from a strided view of its first column (I's column is
    one ``plan.apply``).  Once a Newton step falls to WAVE_STEP_TOL, the
    change of lambda by one more step is the uncertainty, and the speed is
    accepted when that is at most CERTIFY_RTOL * max(1, |lambda|).
    Multiplying by U' = p + D V and summing
    gives the discrete identity c sum h (U')^2 = F p q: I and D commute
    and D is skew, so the operator term drops exactly, and the potential
    term sums a periodic derivative, which vanishes up to spectral
    accuracy.  So a sloped row has no pinning plateau: its speed has the
    sign of F and is 0 only at F = 0.  There the speed is exactly (0, 0)
    and V is the Newton stationary state: at F = 0 the flow is the
    gradient flow of E(v) = -1/2 <v, I v> + sum W(p x + v), which is
    bounded below (I is negative semi-definite, W bounded) and unchanged
    by v -> v + 1, so mean(v) cannot drift linearly.  The solve runs at
    |F| and the result is reflected, v(x) -> -v(-x), for F < 0 (W' is
    odd), so speeds are exactly odd in F.  A solve that has not converged
    within WAVE_MAX_ITER steps sends the row to the stepped route at once,
    with no larger grid tried, and so does a pair not agreed by WAVE_MAX_N.

Stepped route.  Every other row -- with forcing, with an explicit ``dt``
or ``initial`` state, or a direct solve that failed -- takes Euler steps
on the quadrature plan at ``spec.n`` (comparison needs its nonnegative
weights) to ``spec.horizon``, checked only against the mean-drift
envelope above.  Its speed is the least-squares slope of mean(v) over the
second half [T/2, T] of the run, T the last step's time; the uncertainty
is the spread between the slopes fitted on the two halves of that window,
and the corrector amplitude is the half-range of the residual
mean(v) - speed * t there.  An explicit ``dt`` thus gives the Euler flow's
fitted speed at every slope, with its time-step bias.  A stepped row has no
early stop: at n = 512, p = 1/2, F = 1 it runs all 200 time units of its
horizon, where a stop on a steady fit would come at t = 25, so it takes 8x
those steps.  A stepped F = 0 row reads its fitted speed, zero to roundoff,
not an exact 0.0.  Results carry an explicit ``converged`` flag; nothing is
clamped or hidden.
"""

from __future__ import annotations

import math
import os
import pickle
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

QUAD_RTOL = 1e-14  # (a): relative agreement of two trapezoid values
QUAD_MAX_NODES = 2**20  # (a): a quadrature unsettled here sends the row to be stepped
AMP_SAMPLES = 2**16  # (a): fewest points on which the corrector's extrema are read
REST_SAMPLES = 1024  # (a): samples of a period searched for the rest point's sign change
FIT_TOL = 1e-3  # largest uncertainty of a converged speed
CERTIFY_RTOL = 1e-12  # (b): last |dlambda| and grid-pair difference, relative to max(1, |lambda|)
WAVE_MAX_N = 1024  # (b): largest spectral grid m; its dense Jacobian is (m + 1)^2 floats (~8.4 MB)
WAVE_MAX_ITER = 20  # (b): Newton steps before the row is stepped instead
WAVE_STEP_TOL = 1e-10  # (b): a converged Newton step, relative to max(1, |c|)


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
    v_final: np.ndarray  # on spec.n points; a direct sloped row's on its spectral grid
    dt: float
    envelope_bound: float  # sup|W'| + sup|sigma|
    horizon: float  # the time the run covered: spec.horizon, or 0.0 (direct route)
    # (speed, uncertainty, corrector amplitude) of the direct route; None
    # when the speed is to be fitted
    certified: tuple | None


def known_speed(W: PeriodicPotential | None, drive: float, sup_wp: float):
    """Route (a)'s slope-0 orbit without forcing (module docstring):
    (speed, uncertainty, corrector amplitude), or None when the trapezoid
    rule has not settled by QUAD_MAX_NODES nodes."""
    a = abs(drive)  # -F has the same integral, W' being odd
    if a <= sup_wp:
        return 0.0, 0.0, 0.0
    if W is None:
        return drive, 0.0, 0.0
    n = 64
    g = 1.0 / np.abs(a - eval_potential(W, np.arange(n) / n, 1))
    total = float(np.sum(g))
    lam = n / total
    while n < QUAD_MAX_NODES:
        g_mid = 1.0 / np.abs(a - eval_potential(W, (np.arange(n) + 0.5) / n, 1))
        total += float(np.sum(g_mid))
        g = np.stack((g, g_mid), axis=1).reshape(-1)  # the nodes k / 2n, in order
        n *= 2
        change, lam = abs(n / total - lam), n / total
        if change <= QUAD_RTOL * lam:
            # c(t) - lam t = -lam P(c), P the periodic antiderivative of
            # g - mean(g), read on at least AMP_SAMPLES points
            g_hat = np.fft.rfft(g)
            g_hat[0] = 0.0
            m = max(n, AMP_SAMPLES)
            P = (m / n) * np.fft.irfft(
                g_hat / (2j * math.pi * np.maximum(np.arange(n // 2 + 1), 1)), n=m)
            return math.copysign(lam, drive), change, 0.5 * lam * float(P.max() - P.min())
    return None


def rest_point(W: PeriodicPotential, drive: float):
    """Route (a)'s rest point for 0 < |drive| <= sup|W'| (module docstring):
    the first root of W'(c) = |drive| in the direction of the drive, or None
    when REST_SAMPLES samples of a period show no sign change."""
    a = abs(drive)
    c = np.linspace(0.0, 1.0, REST_SAMPLES + 1)
    k = int(np.argmax(eval_potential(W, c, 1) >= a))
    if k == 0:
        return None
    lo, hi = float(c[k - 1]), float(c[k])
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if float(eval_potential(W, mid, 1)) < a:
            lo = mid
        else:
            hi = mid
    return math.copysign(hi, drive)


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
    """Explicit Euler v <- v + dt rhs(k dt, v).  Yields (k, v_k) for
    k = 1, ..., nsteps."""
    for k in range(nsteps):
        v = v + dt * rhs(k * dt, v)
        yield k + 1, v


def travelling_wave(plan, W, px, slope: Fraction, drive: float):
    """Route (b) (module docstring): (V, (speed, uncertainty, corrector
    amplitude)) of the travelling wave at ``drive``, V on the plan's grid,
    or None when Newton has not converged within WAVE_MAX_ITER steps."""
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
    if drive == 0.0:
        return V, (0.0, 0.0, 0.0)
    if drive < 0.0:
        return -np.roll(V[::-1], 1), (-lam, unc, 0.0)  # v(x) -> -v(-x)
    return V, (lam, unc, 0.0)


def spectral_wave(spec: CellProblemSpec, W):
    """Route (b) on the spectral plan (module docstring): the wave on the
    finer grid of the first pair m, 2m whose speeds agree, or None."""
    q = spec.torus_period
    m, last = max(16, 8 * q), None
    while m <= WAVE_MAX_N:
        plan = plan_for("spectral", m, 0.5 * q, spec.s, spec.g_const)
        px = float(spec.slope) * ((q / m) * np.arange(m))
        if (wave := travelling_wave(plan, W, px, spec.slope, spec.drive)) is None:
            return None
        V, (lam, unc, amp) = wave
        if last is not None and abs(lam - last) <= CERTIFY_RTOL * max(1.0, abs(lam)):
            return V, (lam, max(unc, abs(lam - last)), amp)
        last, m = lam, 2 * m
    return None


def solve_cell_evolution(spec: CellProblemSpec, initial=None) -> CellTrace:
    """The direct route when it applies and succeeds; otherwise Euler steps
    of the torus flow to ``spec.horizon`` (module docstring)."""
    q = spec.torus_period
    n = spec.n
    h = q / n
    plan = plan_for("periodic", n, 0.5 * q, spec.s, spec.g_const)

    x = h * np.arange(n)
    px = float(spec.slope) * x  # enters only through 1-periodic functions
    W = spec.potential
    sigma = None if spec.forcing is None or spec.forcing.is_zero else spec.forcing
    K, K_sigma = sup_norms(W, sigma)
    bound = K + K_sigma

    F = spec.drive
    flow, dt_cfl = torus_flow(plan, W, sigma, px, x, drive=F)
    direct = None
    if sigma is None and initial is None and spec.dt is None:
        if spec.slope != 0:
            direct = spectral_wave(spec, W)
        elif (known := known_speed(W, F, K)) is not None:
            c = rest_point(W, F) if known[0] == 0.0 and F != 0.0 else 0.0
            if c is not None:
                direct = np.full(n, c), known
    if direct is not None:
        v, certified = direct
        return CellTrace(spec=spec, times=np.zeros(1), means=np.array([v.mean()]), v_final=v,
                         dt=dt_cfl, envelope_bound=bound, horizon=0.0, certified=certified)

    dt = spec.dt if spec.dt is not None else dt_cfl
    nsteps = int(math.ceil(spec.horizon / dt))
    if initial is None:
        v = np.zeros(n)
    else:
        v = np.array(initial, dtype=float)
        if v.shape != (n,):
            raise ValueError(f"initial state must have shape ({n},)")

    means = np.empty(nsteps + 1)
    means[0] = v.mean()
    check_every = max(1, nsteps // 64)
    slack = 1e-8
    for k, v in euler_steps(flow, v, dt, nsteps):
        means[k] = v.mean()
        if k % check_every == 0:
            t = k * dt
            drift = abs(means[k] - means[0] - F * t)
            if drift > bound * t + slack * (1.0 + t):
                raise CellStabilityError(
                    f"mean drift {drift:.3e} left the comparison envelope "
                    f"{bound:.3e} * t at t = {t:.3f} (slope {spec.slope}, "
                    f"drive {F})"
                )
    return CellTrace(spec=spec, times=dt * np.arange(nsteps + 1), means=means, v_final=v,
                     dt=dt, envelope_bound=bound, horizon=spec.horizon, certified=None)


@dataclass(frozen=True)
class SpeedFit:
    speed: float
    uncertainty: float
    corrector_amplitude: float
    converged: bool
    envelope_bound: float
    horizon: float  # the time the run covered


def _ls_slope(t, y):
    A = np.vstack([t, np.ones_like(t)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(coef[0]), float(coef[1])


def estimate_lambda(trace: CellTrace) -> SpeedFit:
    """The effective speed of a trace; ``converged`` records whether its
    uncertainty is at most FIT_TOL.

    A direct trace reports its ``certified`` (speed, uncertainty,
    corrector amplitude) as they stand.  A stepped trace is fitted over
    [T/2, T]: the uncertainty is |slope(first half) - slope(second half)|
    of that window, and the corrector amplitude the half-range of the
    residual about the fitted line (module docstring).
    """
    if trace.certified is not None:
        speed, unc, amp = trace.certified
    else:
        T = trace.times[-1]
        sel = (trace.times >= 0.5 * T) & (trace.times <= T)
        if sel.sum() < 16:
            raise ValueError("fit window contains fewer than 16 samples")
        t = trace.times[sel]
        y = trace.means[sel]
        speed, intercept = _ls_slope(t, y)
        mid = t.size // 2
        s1, _ = _ls_slope(t[:mid], y[:mid])
        s2, _ = _ls_slope(t[mid:], y[mid:])
        unc = abs(s1 - s2)
        resid = y - (speed * t + intercept)
        amp = 0.5 * float(resid.max() - resid.min())
    return SpeedFit(speed=speed, uncertainty=unc, corrector_amplitude=amp,
                    converged=bool(unc <= FIT_TOL), envelope_bound=trace.envelope_bound,
                    horizon=trace.horizon)


def hbar(spec: CellProblemSpec) -> SpeedFit:
    """Effective speed for one (slope, drive) pair."""
    return estimate_lambda(solve_cell_evolution(spec))


def _table_worker(spec):
    fit = hbar(spec)
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


def _fork_rows(jobs, workers: int) -> list:
    """``_table_worker`` of every job, in ``workers`` forked children.  The
    claims (4-byte indices of each chunk's first job) go into a pipe in one
    write of at most PIPE_BUF bytes before the fork, so none blocks or is
    read half-written.  Each child sends its (index, row) pairs, or a row's
    exception, through its own pipe and leaves by os._exit."""
    n = len(jobs)
    claims, w = os.pipe()
    size = -(-n // (os.fpathconf(w, "PC_PIPE_BUF") // 4))  # jobs per claim
    os.write(w, b"".join(i.to_bytes(4, "little") for i in range(0, n, size)))
    os.close(w)
    children = []  # (pid, result pipe) of each child not yet reaped
    try:
        for _ in range(workers):
            r, w = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    try:
                        got = []
                        while rec := os.read(claims, 4):
                            i = int.from_bytes(rec, "little")
                            got += [(j, _table_worker(jobs[j]))
                                    for j in range(i, min(i + size, n))]
                    except Exception as exc:
                        got = exc
                    with os.fdopen(w, "wb") as out:
                        out.write(pickle.dumps(got))
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        rows = [None] * n
        while children:
            pid, result = children[0]
            with result:
                data = result.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if status != 0:
                raise RuntimeError(f"table worker {pid} exited ({status}) without its rows")
            if isinstance(got := pickle.loads(data), Exception):
                raise got
            for i, row in got:
                rows[i] = row
        return rows
    finally:
        os.close(claims)
        for pid, result in children:  # left by a row's error or an interrupt
            from signal import SIGKILL
            result.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)


def hbar_table(base: CellProblemSpec, slopes, drives, workers: int = 1) -> list:
    """Effective speeds over a (slope, drive) grid, sorted by (slope, drive).

    ``base`` supplies everything except the grid axes.  With workers > 1 the
    rows run in min(workers, rows) forked children (a single row, or a
    platform without ``os.fork``, runs here); the merged rows are sorted
    either way, so output order is deterministic.
    """
    slopes = [as_rational(p) for p in slopes]
    jobs = [
        replace(base, slope=p, drive=float(F))
        for p in sorted(set(slopes))
        for F in sorted({float(F) for F in drives})
    ]
    workers = min(workers, len(jobs))
    if workers > 1 and hasattr(os, "fork"):
        rows = _fork_rows(jobs, workers)
    else:
        rows = [_table_worker(j) for j in jobs]
    rows.sort(key=lambda r: (r["slope_num"] / r["slope_den"], r["drive"]))
    return rows
