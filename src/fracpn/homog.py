"""Oscillatory-to-effective comparisons in one dimension.

Two rescalings of the driven pinning equation are solved by one kernel
parameterized by exponents (a_op, a_W, a_t):

    u_t = eps^a_op I[u] - W'(u / eps^a_W) - sigma(t / eps^a_t, x / eps),

with (2s-1, 1, 1) on the weakly non-local branch (s >= 1/2) and (0, 2s, 2s)
on the strongly non-local branch (s <= 1/2).  At s = 1/2 the two exponent
triples are equal as floats, so the branches produce bit-identical runs.

The limiting dynamics move by an effective law tabulated from the cell
module: speed = law(slope) on the weak branch (first-order front equation,
monotone Lax-Friedrichs scheme) and speed = law(I[u]) on the strong branch
(explicit stepping; the law is nondecreasing, interpolated monotonically).

Solutions are stored as u = slope * x + w with w on the unit torus; the
slope must satisfy slope / eps^a_W in Z so the pinning term stays periodic
(and 1/eps in Z when a forcing is present).  The eps problem is the cell
module's torus flow with eps-power scales (``cell.torus_flow``), and both
problems step by ``cell.euler_steps``.  dt is the largest step within the
CFL bound that splits each of the CHECKPOINTS - 1 intervals between
equally spaced checkpoints of [0, horizon] into k >= 4 whole steps, so
every snapshot is an exact Euler state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cell import euler_steps, torus_flow
from .fracop import plan_for
from .potential import Forcing, PeriodicPotential, sup_norms

__all__ = [
    "branch_exponents",
    "InitialProfile",
    "EpsProblemSpec",
    "EffectiveProblemSpec",
    "Trajectory",
    "DriveLaw",
    "SlopeLaw",
    "OutsideTableError",
    "StepBudgetError",
    "solve_eps_problem",
    "solve_effective",
    "convergence_report",
]

BRANCH_WEAK = "super"  # s >= 1/2: operator fades, speed = law(slope)
BRANCH_STRONG = "sub"  # s <= 1/2: operator survives, speed = law(I[u])
CHECKPOINTS = 33  # shared snapshot times of the eps and effective runs
COMPACT = (0.1, 1.0)  # the compared time window, as fractions of the horizon


class OutsideTableError(ValueError):
    """An effective law was queried beyond its tabulated range."""


class StepBudgetError(RuntimeError):
    """The CFL step count exceeded the budget; use a larger eps or a
    shorter horizon."""


def branch_exponents(branch: str, s: float) -> tuple:
    """(a_op, a_W, a_t) for the requested scaling branch."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1) (got {s})")
    if branch == BRANCH_WEAK:
        if s < 0.5:
            raise ValueError(f"branch {branch!r} needs s >= 1/2 (got s={s})")
        return (2.0 * s - 1.0, 1.0, 1.0)
    if branch == BRANCH_STRONG:
        if s > 0.5:
            raise ValueError(f"branch {branch!r} needs s <= 1/2 (got s={s})")
        return (0.0, 2.0 * s, 2.0 * s)
    raise ValueError(f"unknown branch {branch!r} (expected 'super' or 'sub')")


@dataclass(frozen=True)
class InitialProfile:
    """Smooth 1-periodic profile sum_i amp_i * trig(2 pi mode_i x)."""

    terms: tuple  # of (amp, mode, kind), kind in {"sin", "cos"}

    def __post_init__(self):
        for amp, mode, kind in self.terms:
            if kind not in ("sin", "cos"):
                raise ValueError(f"profile term kind must be sin or cos (got {kind!r})")
            if int(mode) != mode or mode < 0:
                raise ValueError(f"profile mode must be a nonnegative integer (got {mode})")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for amp, mode, kind in self.terms:
            f = np.sin if kind == "sin" else np.cos
            out = out + amp * f(2.0 * math.pi * mode * x)
        return out

    @classmethod
    def zero(cls) -> "InitialProfile":
        return cls(terms=())


def _check_integer(value: float, what: str):
    if abs(value - round(value)) > 1e-9 * max(1.0, abs(value)):
        raise ValueError(f"{what} = {value!r} must be an integer")


@dataclass(frozen=True)
class EpsProblemSpec:
    branch: str
    eps: float
    s: float
    slope: float
    profile: InitialProfile
    potential: PeriodicPotential | None
    forcing: Forcing | None = None
    n: int = 256
    horizon: float = 1.0
    g_const: float | None = None
    max_steps: int = 2_000_000

    def __post_init__(self):
        if not 0.0 < self.eps <= 1.0:
            raise ValueError(f"eps must lie in (0, 1] (got {self.eps})")
        a_op, a_W, a_t = branch_exponents(self.branch, self.s)
        _check_integer(self.slope * self.eps ** (-a_W),
                       "slope / eps^a_W (pinning periodicity)")
        if self.forcing is not None and not self.forcing.is_zero:
            _check_integer(1.0 / self.eps, "1/eps (forcing periodicity)")
        if self.n < 16:
            raise ValueError(f"n must be at least 16 (got {self.n})")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")

    @property
    def exponents(self) -> tuple:
        return branch_exponents(self.branch, self.s)


@dataclass(eq=False)
class Trajectory:
    times: np.ndarray      # (m,)
    remainders: np.ndarray  # (m, n): w so that u = slope * x + w
    dt: float

    @property
    def nodes(self) -> np.ndarray:
        n = self.remainders.shape[1]
        return np.arange(n) / n


def _run(rhs, w0, dt_cfl: float, T: float, max_steps: float = math.inf) -> Trajectory:
    """Explicit Euler states at CHECKPOINTS equally spaced times of [0, T],
    k >= 4 whole steps of dt <= dt_cfl apart (module docstring)."""
    spacing = T / (CHECKPOINTS - 1)
    k = max(4, math.ceil(spacing / dt_cfl))
    dt, nsteps = spacing / k, k * (CHECKPOINTS - 1)
    if nsteps > max_steps:
        raise StepBudgetError(
            f"{nsteps} steps exceed the budget {max_steps} (CFL step "
            f"{dt_cfl:.3e}); use a larger eps or a shorter horizon"
        )
    snaps = np.empty((CHECKPOINTS, w0.size))
    snaps[0] = w0
    for j, w in euler_steps(rhs, w0, dt, nsteps):
        if j % k == 0:
            snaps[j // k] = w
    return Trajectory(times=np.linspace(0.0, T, CHECKPOINTS), remainders=snaps, dt=dt)


def solve_eps_problem(spec: EpsProblemSpec) -> Trajectory:
    n = spec.n
    h = 1.0 / n
    plan = plan_for("periodic", n, 0.5, spec.s, spec.g_const)

    a_op, a_W, a_t = spec.exponents
    eps = spec.eps
    op_scale = eps**a_op

    x = h * np.arange(n)
    w0 = spec.profile(x)

    kW, ks = sup_norms(spec.potential, spec.forcing)
    envelope = kW + ks + op_scale * float(np.max(np.abs(plan.apply(w0))))

    rhs, dt_cfl = torus_flow(plan, spec.potential, spec.forcing, spec.slope * x, x / eps,
                             a=op_scale, b=eps ** (-a_W), c=eps ** (-a_t))
    traj = _run(rhs, w0, dt_cfl, spec.horizon, spec.max_steps)

    # comparison envelope: |w(t) - w0| <= (sup|W'| + sup|sigma| + eps^a_op sup|I[w0]|) t
    times = traj.times
    drift = np.max(np.abs(traj.remainders - w0), axis=1)
    bound = envelope * times + 1e-8 * (1.0 + times)
    if np.any(drift > bound):
        k = int(np.argmax(drift - bound))
        raise RuntimeError(
            f"oscillatory run left the comparison envelope at t={times[k]:.4f}: "
            f"drift {drift[k]:.3e} > {bound[k]:.3e}"
        )

    return traj


# ---------------------------------------------------------------------------
# effective laws from tabulated cell speeds
# ---------------------------------------------------------------------------


class _Table1D:
    def __init__(self, xs, ys, what):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.size < 2:
            raise ValueError(f"{what} needs at least two table points")
        order = np.argsort(xs)
        self.xs = xs[order]
        self.ys = ys[order]
        if np.any(np.diff(self.xs) <= 0):
            raise ValueError(f"{what} has duplicate abscissae")
        self.what = what

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        if np.any(v < self.xs[0] - 1e-12) or np.any(v > self.xs[-1] + 1e-12):
            raise OutsideTableError(
                f"{self.what} queried at {float(np.min(v)):.4g}..{float(np.max(v)):.4g} "
                f"outside the tabulated range [{self.xs[0]:.4g}, {self.xs[-1]:.4g}]"
            )
        return np.interp(v, self.xs, self.ys)

    @property
    def lipschitz(self) -> float:
        return float(np.max(np.abs(np.diff(self.ys) / np.diff(self.xs))))

    @property
    def coverage(self) -> tuple:
        return (float(self.xs[0]), float(self.xs[-1]))


class DriveLaw(_Table1D):
    """speed as a nondecreasing function of the operator value (strong
    branch); tabulated values are clamped monotone before interpolation."""

    def __init__(self, drives, speeds):
        speeds = np.asarray(speeds, dtype=float)
        order = np.argsort(np.asarray(drives, dtype=float))
        speeds = np.maximum.accumulate(speeds[order])
        super().__init__(np.asarray(drives, dtype=float)[order], speeds, "drive law")

    @classmethod
    def from_rows(cls, rows, slope_num=0, slope_den=1) -> "DriveLaw":
        sel = [r for r in rows
               if r["slope_num"] == slope_num and r["slope_den"] == slope_den]
        if not sel:
            raise ValueError(f"no rows with slope {slope_num}/{slope_den}")
        return cls([r["drive"] for r in sel], [r["speed"] for r in sel])


class SlopeLaw(_Table1D):
    """speed as a function of the front slope (weak branch); a table gives
    it by its rows at drive 0."""

    def __init__(self, slopes, speeds):
        super().__init__(slopes, speeds, "slope law")

    @classmethod
    def from_rows(cls, rows) -> "SlopeLaw":
        sel = [r for r in rows if r["drive"] == 0.0]
        if not sel:
            raise ValueError("no rows with drive 0.0")
        return cls([r["slope_num"] / r["slope_den"] for r in sel],
                   [r["speed"] for r in sel])

    @classmethod
    def constant(cls, value: float, radius: float) -> "SlopeLaw":
        return cls([-radius, radius], [value, value])


@dataclass(eq=False)
class EffectiveProblemSpec:
    branch: str
    law: object  # SlopeLaw (weak) or DriveLaw (strong)
    slope: float
    profile: InitialProfile
    horizon: float = 1.0
    n: int = 256
    s: float | None = None       # strong branch only
    g_const: float | None = None

    def __post_init__(self):
        if self.branch == BRANCH_WEAK and not isinstance(self.law, SlopeLaw):
            raise TypeError("weak branch needs a SlopeLaw")
        if self.branch == BRANCH_STRONG:
            if not isinstance(self.law, DriveLaw):
                raise TypeError("strong branch needs a DriveLaw")
            if self.s is None:
                raise ValueError("strong branch needs the operator order s")


def solve_effective(spec: EffectiveProblemSpec) -> Trajectory:
    n = spec.n
    h = 1.0 / n
    x = h * np.arange(n)
    w0 = spec.profile(x)
    law = spec.law

    if spec.branch == BRANCH_WEAK:
        nu = law.lipschitz
        dt_cfl = 0.4 * h / nu if nu > 0 else math.inf

        def rhs(t, w):
            fwd = (np.roll(w, -1) - w) / h + spec.slope
            bwd = (w - np.roll(w, 1)) / h + spec.slope
            return law(0.5 * (fwd + bwd)) + 0.5 * nu * (fwd - bwd)

    else:
        plan = plan_for("periodic", n, 0.5, spec.s, spec.g_const)
        lip = law.lipschitz
        dt_cfl = 0.9 / (lip * plan.stiffness) if lip > 0 else math.inf

        def rhs(t, w):
            return law(plan.apply(w))

    return _run(rhs, w0, dt_cfl, spec.horizon)


# ---------------------------------------------------------------------------
# convergence comparison
# ---------------------------------------------------------------------------


def convergence_report(eps_specs, law) -> dict:
    """Compare oscillatory runs against the effective limit on a compact.

    ``eps_specs`` are EpsProblemSpec values sharing everything but eps, in
    strictly decreasing eps order.  The error e(eps) is the sup over the
    compact time window COMPACT (fractions of the horizon) and the whole
    torus of |w_eps - w_eff| at the shared checkpoints.  Non-monotone e is
    reported as a failed flag, not an exception.
    """
    if len(eps_specs) < 2:
        raise ValueError("need at least two eps values")
    eps_list = [sp.eps for sp in eps_specs]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError(f"eps values must be strictly decreasing (got {eps_list})")
    base = eps_specs[0]
    for sp in eps_specs[1:]:
        if replace(sp, eps=base.eps) != base:
            raise ValueError("eps specs must differ only in eps")

    eff = solve_effective(EffectiveProblemSpec(
        branch=base.branch, law=law, slope=base.slope, profile=base.profile,
        horizon=base.horizon, n=base.n, s=base.s, g_const=base.g_const,
    ))
    lo, hi = COMPACT
    window = (eff.times >= lo * base.horizon - 1e-12) & (eff.times <= hi * base.horizon + 1e-12)

    errors = []
    for sp in eps_specs:
        tr = solve_eps_problem(sp)
        diff = np.abs(tr.remainders[window] - eff.remainders[window])
        errors.append(float(diff.max()))

    monotone = all(b < a for a, b in zip(errors, errors[1:]))
    return {
        "branch": base.branch,
        "eps_list": [float(e) for e in eps_list],
        "errors": errors,
        "compact": [float(lo), float(hi)],
        "grids": {"n": base.n, "checkpoints": CHECKPOINTS, "horizon": base.horizon},
        "monotone_decreasing": monotone,
    }
