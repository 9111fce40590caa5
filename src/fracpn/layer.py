"""Transition layers connecting adjacent wells, their decay laws, the
mobility constant, and the first-order corrector.

The layer profile solves I[phi] = W'(phi) on the line with phi(-inf) = 0,
phi(+inf) = 1 and phi(0) = 1/2, computed by Newton's method in three
closure passes (theory tail, then two amplitude refits); each Newton step
is pinned to phi(0) = 1/2 along the translation mode phi'.  Far-field
behavior: phi - H ~ -(g/(2 s alpha)) x/|x|^(1+2s) with alpha = W''(0), so
tail models carry the exponent 2s with least-squares-fitted amplitudes.

The corrector psi solves

    I[psi] - W''(phi) psi = (L0/alpha)(W''(phi) - alpha) + c phi',
    c = L0 / int phi'^2.

Its operator M = diag(W''(phi)) - I is also the Newton Jacobian of the
layer equation, and both solves run on one deflated PCG (``_deflated_pcg``):
M is a singular M-matrix with near-kernel phi' > 0, hence positive
semidefinite, so CG runs on the complement of phi', preconditioned by the
circulant inverse (alpha + sigma)^-1 of the plan's zero-tail symbol sigma.
Each Krylov product applies I with the zero tail (``LinePlan.apply``), the
product with -sigma: one transform pair of length 2n, as in the
preconditioner.  A Newton step is solved to relative tolerance
_NEWTON_RTOL, and each corrector solve to CORRECTOR_RTOL.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from .fracop import GridField, TailModel, plan_for
from .potential import PeriodicPotential, eval_potential

__all__ = [
    "LayerSolution",
    "CorrectorSolution",
    "LayerConvergenceError",
    "solve_layer",
    "solve_corrector_psi",
    "layer_to_dict",
    "layer_from_dict",
    "corrector_to_dict",
    "corrector_from_dict",
]


_trapz = getattr(np, "trapezoid", None) or np.trapz

_NEWTON_MAX = 20  # Newton steps per layer pass
_NEWTON_RTOL = 1e-3  # relative PCG tolerance of a Newton step
CORRECTOR_RTOL = 1e-9  # relative PCG tolerance of a corrector solve
_CG_MAX = 400  # PCG iterations per linear solve
MIN_HALF_WIDTH = 20.0  # smallest window half-width: the tail fits need room
MIN_N = 8  # fewest nodes; n is a power of two


class LayerConvergenceError(RuntimeError):
    """A layer or corrector solve did not reach the requested residual; a
    layer failure carries the last residual and the monotonicity status."""

    def __init__(self, message, last_residual=None, monotone=None):
        super().__init__(message)
        self.last_residual = last_residual
        self.monotone = monotone


def _power_of_two(n: int) -> bool:
    return n >= MIN_N and (n & (n - 1)) == 0


def _fit_amplitude(x, y, beta):
    """Least-squares a minimizing sum (y - a x^-beta)^2 for x > 0."""
    basis = x ** (-beta)
    return float(np.dot(y, basis) / np.dot(basis, basis))


def _fit_line(x, y):
    """(slope, intercept) of the least-squares line y ~ slope x + intercept,
    in closed form about the means of x and y."""
    x_mean, y_mean = float(np.mean(x)), float(np.mean(y))
    dx = x - x_mean
    slope = float(np.dot(dx, y - y_mean) / np.dot(dx, dx))
    return slope, y_mean - slope * x_mean


def _fit_exponent(x, y):
    """Log-log least-squares decay exponent of |y| ~ C x^-p (p > 0)."""
    mask = np.abs(y) > 0
    slope, intercept = _fit_line(np.log(x[mask]), np.log(np.abs(y[mask])))
    return -slope, math.exp(intercept)


@dataclass(eq=False)
class LayerSolution:
    s: float
    potential: PeriodicPotential
    g_const: float
    field: GridField  # line geometry, fitted tail attached
    phi_prime: np.ndarray
    c0: float  # 1 / int phi'^2
    residual_sup_inner: float
    dt: float
    steps: int
    diagnostics: dict = dc_field(default_factory=dict)


def _monotone(values: np.ndarray) -> bool:
    """Strictly increasing on the core; the outermost ~1.5% of nodes feel the
    tail-closure mismatch directly and may wiggle at the 1e-8 level, so only
    gross decreases are flagged there."""
    d = np.diff(values)
    edge = max(8, values.size // 64)
    return bool(np.all(d[edge:-edge] > -1e-12) and np.all(d > -1e-6))


def solve_layer(
    s: float,
    W: PeriodicPotential,
    R_dom: float = 20.0,
    n: int = 2048,
    tol: float = 1e-7,
    g: float | None = None,
) -> LayerSolution:
    """Newton-Krylov solve of the layer equation I[phi] = W'(phi).

    Requires R_dom >= MIN_HALF_WIDTH and n a power of two >= MIN_N.  Three
    closure passes: the theory tail (exponent 2s, amplitude g/(2 s alpha)),
    then two refits of the tail amplitudes to the profile.  Each pass runs
    Newton steps from the previous profile, starting from the arctan layer:
    (W''(phi) - I) delta = I[phi] - W'(phi) with zero-tail perturbations,
    solved to relative tolerance _NEWTON_RTOL by ``_deflated_pcg``
    (circulant-preconditioned CG on the complement of phi'), then
    phi <- phi + delta + t phi', with t such that phi = 1/2 at the node x = 0:
    phi' is the translation the deflation leaves free, and phi'(0) <= 0
    raises LayerConvergenceError(monotone=False).  A pass ends once the
    residual on the inner 80% of the window is <= tol; one whose residual
    stops decreasing, or that needs more than _NEWTON_MAX steps, raises
    LayerConvergenceError.  ``steps`` counts the Newton steps and
    ``diagnostics["passes"]`` the PCG iterations of each.
    """
    if R_dom < MIN_HALF_WIDTH:
        raise ValueError(f"layer window must satisfy R_dom >= {MIN_HALF_WIDTH:g} (got {R_dom})")
    if not _power_of_two(n):
        raise ValueError(f"n must be a power of two >= {MIN_N} (got {n})")
    alpha = W.curvature_at_zero
    if alpha <= 0.0:
        raise ValueError(f"potential curvature at the wells must be positive (got {alpha})")
    s = float(s)
    plan = plan_for("line", n, R_dom, s, g)
    g = plan.g_const
    two_s = 2.0 * s

    h = 2.0 * R_dom / n
    c = n // 2  # the node at x = 0
    x = h * (np.arange(n) - c)
    inner = slice(n // 10, n - n // 10)

    A_theory = g / (two_s * alpha)

    # theory-amplitude pass, then two refit passes so the final residual is
    # measured against the closure the profile converged with
    fit = (np.abs(x) >= 0.55 * R_dom) & (np.abs(x) <= 0.9 * R_dom)
    right = fit & (x > 0)
    left = fit & (x < 0)
    a_minus, a_plus = A_theory, -A_theory
    phi = 0.5 + np.arctan(x) / math.pi
    passes = []
    for label in ("theory tail", "fitted tail", "fitted tail"):
        if passes:
            a_plus = _fit_amplitude(x[right], phi[right] - 1.0, two_s)
            a_minus = _fit_amplitude(-x[left], phi[left], two_s)
        tail = TailModel(c_minus=0.0, c_plus=1.0, powers_minus=((a_minus, two_s),),
                         powers_plus=((a_plus, two_s),))
        pcg, prev = [], math.inf  # PCG iterations of each Newton step
        while True:
            F = plan.apply(phi, tail) - eval_potential(W, phi, 1)
            res = float(np.max(np.abs(F[inner])))
            if res <= tol:
                break
            if res >= prev or len(pcg) == _NEWTON_MAX:
                raise LayerConvergenceError(
                    f"layer Newton solve ({label}) stalled at residual {res:.3e} "
                    f"(tol {tol:.1e}) after {len(pcg)} steps",
                    last_residual=res,
                    monotone=_monotone(phi),
                )
            mode = np.gradient(phi, h)  # phi', the translation mode
            delta, its = _deflated_pcg(plan, eval_potential(W, phi, 2), alpha, mode, F,
                                       _NEWTON_RTOL)
            if not mode[c] > 0.0:
                raise LayerConvergenceError(f"layer Newton solve ({label}) reached phi'(0) = "
                                            f"{mode[c]:.3e}", last_residual=res, monotone=False)
            phi = phi + delta + ((0.5 - phi[c] - delta[c]) / mode[c]) * mode  # phi(0) = 1/2
            prev = res
            pcg.append(its)
        passes.append({"newton_steps": len(pcg), "pcg_iterations": pcg})

    phi[c] = 0.5  # crossing normalized exactly (each step pinned it to roundoff)
    if not _monotone(phi):
        raise LayerConvergenceError(
            "layer profile lost monotonicity", last_residual=res, monotone=False
        )

    field = GridField(phi, R_dom, tail)

    rhs = plan.apply(phi, tail) - eval_potential(W, phi, 1)
    res = float(np.max(np.abs(rhs[inner])))

    # int phi'^2: the trapezoid rule on the window plus the two tails,
    # where phi' ~ 2 s |a| |x|^(-1-2s)
    phi_prime = np.gradient(phi, h)
    grad_sq = float(_trapz(phi_prime**2, x))
    for a in (a_minus, a_plus):
        grad_sq += (two_s * abs(a))**2 * R_dom ** (-1.0 - 4.0 * s) / (1.0 + 4.0 * s)
    if grad_sq < 1e-12:
        raise LayerConvergenceError("degenerate layer: gradient integral below 1e-12")

    return LayerSolution(
        s=s,
        potential=W,
        g_const=float(g),
        field=field,
        phi_prime=phi_prime,
        c0=1.0 / grad_sq,
        residual_sup_inner=res,
        dt=0.0,
        steps=sum(p["newton_steps"] for p in passes),  # Newton steps
        diagnostics={
            "tail_amp_theory": A_theory,
            "passes": passes,
            "n": n,
            "R_dom": R_dom,
        },
    )


# ---------------------------------------------------------------------------
# corrector
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class CorrectorSolution:
    s: float
    L0: float
    c: float
    field: GridField  # the layer's line geometry, fitted tail attached
    residual_sup_inner: float
    cg_info: dict
    odd_tail_amplitude: float  # fitted amplitude of sign(x)|x|^(-2s); reported, not asserted


def solve_corrector_psi(layer: LayerSolution, L0: float) -> CorrectorSolution:
    """Solve I[psi] - W''(phi) psi = (L0/alpha)(W''(phi) - alpha) + c phi'.

    ``_deflated_pcg`` on the window with a zero far-field closure (relative
    tolerance CORRECTOR_RTOL), followed by one tail refit and a re-solve
    with the fitted tail moved to the right-hand side.  psi is linear in L0;
    L0 = 0 returns the zero corrector.
    """
    s = layer.s
    W = layer.potential
    n = layer.field.n
    x = layer.field.nodes
    R = layer.field.half_width
    plan = plan_for("line", n, R, s, layer.g_const)

    alpha = W.curvature_at_zero
    c = L0 * layer.c0
    if L0 == 0.0:
        return CorrectorSolution(
            s=s, L0=0.0, c=0.0, field=GridField(np.zeros(n), R, TailModel()),
            residual_sup_inner=0.0,
            cg_info={"iterations": 0, "passes": 0}, odd_tail_amplitude=0.0,
        )

    phi = layer.field.values
    wpp = eval_potential(W, phi, 2)
    rhs0 = (L0 / alpha) * (wpp - alpha) + c * layer.phi_prime

    psi, its0 = _deflated_pcg(plan, wpp, alpha, layer.phi_prime, -rhs0, CORRECTOR_RTOL)

    # fit an even power tail and re-solve with it on the right-hand side
    two_s = 2.0 * s
    fit = (np.abs(x) >= 0.5 * R) & (np.abs(x) <= 0.8 * R)
    beta_r, _ = _fit_exponent(x[fit & (x > 0)], psi[fit & (x > 0)])
    beta_l, _ = _fit_exponent(-x[fit & (x < 0)], psi[fit & (x < 0)])
    beta = float(np.clip(0.5 * (beta_r + beta_l), 0.5, 4.0))
    amp_r = _fit_amplitude(x[fit & (x > 0)], psi[fit & (x > 0)], beta)
    amp_l = _fit_amplitude(-x[fit & (x < 0)], psi[fit & (x < 0)], beta)
    tail = TailModel(powers_minus=((amp_l, beta),), powers_plus=((amp_r, beta),))

    tail_infl = plan.apply(np.zeros(n), tail)  # operator applied to the tail extension alone
    psi, its1 = _deflated_pcg(plan, wpp, alpha, layer.phi_prime, tail_infl - rhs0,
                              CORRECTOR_RTOL, x0=psi)

    full = plan.apply(psi, tail)
    residual = full - wpp * psi - rhs0
    inner = slice(n // 10, n - n // 10)
    res = float(np.max(np.abs(residual[inner])))

    # odd part of psi on symmetric node pairs; its sign(x)|x|^(-2s) tail
    # amplitude vanishes for even potentials (reported, never asserted)
    k = np.arange(1, n // 2)
    odd = 0.5 * (psi[n // 2 + k] - psi[n // 2 - k])
    xk = k * layer.field.h
    sel = (xk >= 0.5 * R) & (xk <= 0.8 * R)
    odd_amp = _fit_amplitude(xk[sel], odd[sel], two_s)

    return CorrectorSolution(
        s=s, L0=L0, c=c, field=GridField(psi, R, tail), residual_sup_inner=res,
        cg_info={"iterations": its0 + its1, "passes": 2,
                 "pcg_iterations": [its0, its1], "tail_exponent": beta},
        odd_tail_amplitude=odd_amp,
    )


def _deflated_pcg(plan, wpp, alpha, mode, b, tol, x0=None):
    """Solve (diag(wpp) - I) x = b with zero-tail I on the complement of
    ``mode`` (the translation mode phi'), by PCG to relative tolerance ``tol``.

    b and the iterates are projected onto phi'^perp, where the operator is
    positive definite.  The preconditioner (alpha + plan.symbol)^-1,
    alpha = W''(0), is the operator itself wherever W''(phi) = alpha, i.e.
    away from the core, so iteration counts stay flat in n.  Returns
    (x, iterations); raises LayerConvergenceError after _CG_MAX iterations.
    """
    n = b.size
    e = mode / np.linalg.norm(mode)
    zero_tail = TailModel()
    shift = alpha + plan.symbol

    def project(v):
        return v - e * np.dot(e, v)

    def matvec(v):
        v = project(v)
        return project(wpp * v - plan.apply(v, zero_tail))

    def psolve(v):
        return project(np.fft.irfft(np.fft.rfft(v, 2 * n) / shift, 2 * n)[:n])

    steps = []
    x, info = _cg(matvec, project(b), psolve, tol, _CG_MAX, steps.append, x0=x0)
    if info != 0:
        raise LayerConvergenceError(f"deflated PCG did not converge in {_CG_MAX} iterations")
    return project(x), len(steps)


def _cg(matvec, b, psolve, tol, max_iter, callback, x0=None):
    """Preconditioned conjugate gradients for a symmetric positive
    semidefinite operator, as scipy.sparse.linalg.cg (scipy 1.17) runs it
    with rtol=tol, atol=0: the same iterates, the stop once ||r|| < tol ||b||
    (tested before each iteration) and callback(x) after each iteration.
    Returns (x, 0) on convergence and (x, max_iter) otherwise."""
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(b), 0
    atol = tol * bnorm
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    r = b - matvec(x) if x.any() else b.copy()
    for it in range(max_iter):
        if np.linalg.norm(r) < atol:
            return x, 0
        z = psolve(r)
        rho = np.dot(r, z)
        if it == 0:
            p = z.copy()
        else:
            p *= rho / rho_prev
            p += z
        q = matvec(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
        callback(x)
    return x, max_iter


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _field_to_dict(f: GridField) -> dict:
    return {"half_width": f.half_width, "values": f.values.tolist(), "tail": asdict(f.tail)}


def _field_from_dict(d: dict) -> GridField:
    return GridField(np.asarray(d["values"], dtype=float), d["half_width"], TailModel(**d["tail"]))


def layer_to_dict(layer: LayerSolution) -> dict:
    return {
        "s": layer.s,
        "potential_coeffs": list(layer.potential.cosine_coeffs),
        "g_const": layer.g_const,
        **_field_to_dict(layer.field),
        "c0": layer.c0,
        "residual_sup_inner": layer.residual_sup_inner,
    }


def layer_from_dict(d: dict) -> LayerSolution:
    field = _field_from_dict(d)
    return LayerSolution(
        s=d["s"],
        potential=PeriodicPotential(tuple(d["potential_coeffs"])),
        g_const=d["g_const"],
        field=field,
        phi_prime=np.gradient(field.values, field.h),
        c0=d["c0"],
        residual_sup_inner=d["residual_sup_inner"],
        dt=0.0,
        steps=0,
        diagnostics={"loaded": True},
    )


def corrector_to_dict(psi: CorrectorSolution) -> dict:
    return {
        "s": psi.s,
        "L0": psi.L0,
        "c": psi.c,
        **_field_to_dict(psi.field),
        "residual_sup_inner": psi.residual_sup_inner,
        "odd_tail_amplitude": psi.odd_tail_amplitude,
    }


def corrector_from_dict(d: dict) -> CorrectorSolution:
    return CorrectorSolution(
        s=d["s"],
        L0=d["L0"],
        c=d["c"],
        field=_field_from_dict(d),
        residual_sup_inner=d["residual_sup_inner"],
        cg_info={"loaded": True},
        odd_tail_amplitude=d["odd_tail_amplitude"],
    )
