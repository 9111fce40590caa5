"""Reference computations that pin the paper's closed forms.

None of these is on a command's path; the tests use them to check what is:

- ``bilinear_form_B``: the paired-difference form that makes the product
  identity I[fg] = f I[g] + g I[f] - B(f, g) exact for a line plan's
  quadrature, so it checks ``LinePlan.apply``;
- ``claim1_series``: the lattice kernel sums at x = i0 + gamma, summed
  through the Euler-Maclaurin closures ``hull._em_pair`` and
  ``fracop._em_tail`` that the hull's lattice sums use;
- ``check_layer_decay``: fitted far-field decay exponents of a layer (and
  corrector) from ``solve_layer``, with factor-2 envelope checks;
- ``dense_travelling_wave``: the travelling wave by Newton with each step
  solved densely (LAPACK), so it checks the matrix-free
  ``cell.travelling_wave``.

It also builds two test inputs: ``standard_potential``, the curvature-one
well, and ``identity_law``, the drive law whose speed is the drive; and
``potential_value`` evaluates W itself, which no command needs (they use
W' and W'' through ``eval_potential``).
"""

import math
from dataclasses import dataclass

import numpy as np

from fracpn.cell import CERTIFY_RTOL, WAVE_MAX_ITER, WAVE_STEP_TOL
from fracpn.fracop import _em_tail
from fracpn.homog import DriveLaw
from fracpn.hull import _em_pair
from fracpn.layer import _fit_exponent
from fracpn.potential import PeriodicPotential, eval_potential


def standard_potential() -> PeriodicPotential:
    """W(v) = (1 - cos 2 pi v) / (4 pi^2): W'(v) = sin(2 pi v) / (2 pi), and
    unit curvature at the wells."""
    return PeriodicPotential((1.0 / (4.0 * math.pi**2),))


def potential_value(W: PeriodicPotential, v):
    """W(v) = sum_k a_k (1 - cos(2 pi k v))."""
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    for k, a in enumerate(W.cosine_coeffs, start=1):
        out += a * (1.0 - np.cos(2.0 * math.pi * k * v))
    return out


def identity_law(radius: float) -> DriveLaw:
    """The drive law speed = drive on [-radius, radius]."""
    return DriveLaw([-radius, radius], [-radius, radius])


# ---------------------------------------------------------------------------
# bilinear form
# ---------------------------------------------------------------------------


def bilinear_form_B(plan, f_values, f_tail, g_values, indices):
    """B(f, g) at the node indices, for g with the zero tail (0 outside the
    window), such that I[fg] = f I[g] + g I[f] - B(f, g) holds to rounding
    for the plan's quadrature:

        -sum_k c_k [ (f(x+kh)-f(x)) (g(x+kh)-g(x)) + (f(x-kh)-f(x)) (g(x-kh)-g(x)) ]

    minus the matching Gauss-Legendre far-field term, with exactly the
    weights and far-field nodes of ``LinePlan.apply``.
    """
    K, h = plan.K, plan.h
    x = plan.nodes
    F = np.concatenate([f_tail.eval(x[0] - h * np.arange(K, 0, -1)), f_values,
                        f_tail.eval(x[-1] + h * np.arange(1, K + 1))])
    G = np.concatenate([np.zeros(K), g_values, np.zeros(K)])
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
        acc += plan.far_coeff * float(np.dot(plan.far_w, fp * -gj + fm * -gj))
        out[out_i] = acc
    return -out


# ---------------------------------------------------------------------------
# lattice series (signed and one-sided limits)
# ---------------------------------------------------------------------------


def _em_pair_error(a: int, gamma, beta: float):
    """Magnitude of the first Euler-Maclaurin term that ``_em_pair`` neglects."""
    g = float(np.max(np.abs(np.asarray(gamma, dtype=float))))
    coef = beta * (beta + 1) * (beta + 2) * (beta + 3) * (beta + 4) / 30240.0
    return coef * abs((a - g) ** (-beta - 5.0) - (a + g) ** (-beta - 5.0) + 1e-300)


def claim1_series(gamma: float, s: float, tol: float = 1e-10):
    """Limits of the lattice kernel sums at x = i0 + gamma.

    Returns (S0, S_minus, S_plus):
        S0      = sum_{i>=1} [(i+gamma)^-2s - (i-gamma)^-2s]   (signed sum)
        S_minus = sum_{i>=1} (i+gamma)^-(1+2s)
        S_plus  = sum_{i>=1} (i-gamma)^-(1+2s)
    by direct summation plus Euler-Maclaurin closure, with the truncation
    grown until the first neglected term is below tol.
    """
    if not -0.5 < gamma <= 0.5:
        raise ValueError(f"gamma must lie in (-1/2, 1/2] (got {gamma})")
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1) (got {s})")
    two_s = 2.0 * s
    a = 64
    while _em_pair_error(a, gamma, two_s) > 0.5 * tol and a < 2**20:
        a *= 2
    if _em_pair_error(a, gamma, two_s) > 0.5 * tol:
        raise RuntimeError(f"series truncation for tol={tol} not reachable")
    i = np.arange(1, a, dtype=float)
    S0 = float(np.sum((i + gamma) ** (-two_s) - (i - gamma) ** (-two_s))
               + _em_pair(a, gamma, two_s))
    Sm = float(np.sum((i + gamma) ** (-1.0 - two_s)) + _em_tail(a, gamma, 1.0 + two_s))
    Sp = float(np.sum((i - gamma) ** (-1.0 - two_s)) + _em_tail(a, -gamma, 1.0 + two_s))
    return S0, Sm, Sp


# ---------------------------------------------------------------------------
# layer decay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayEntry:
    name: str
    expected_exponent: float
    fitted_exponent: float
    fitted_amplitude: float
    kind: str  # "exact" (rate saturated) or "upper" (envelope bound)
    envelope_ok: bool
    window: tuple

    @property
    def exponent_ok(self) -> bool:
        if self.kind == "exact":
            return abs(self.fitted_exponent - self.expected_exponent) <= 0.15 * self.expected_exponent
        return self.fitted_exponent >= 0.85 * self.expected_exponent


@dataclass(frozen=True)
class DecayReport:
    entries: tuple

    def entry(self, name: str) -> DecayEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    @property
    def ok(self) -> bool:
        return all(e.exponent_ok and e.envelope_ok for e in self.entries)


def _decay_entry(name, x, q, expected, kind, check_x=None, check_q=None) -> DecayEntry:
    fitted_exp, _ = _fit_exponent(x, q)
    amp = float(np.max(np.abs(q) * (1.0 + x**expected)))
    if check_x is None:
        check_x, check_q = x, q
    envelope_ok = bool(
        np.all(np.abs(check_q) * (1.0 + np.abs(check_x) ** expected) <= 2.0 * amp + 1e-300)
    )
    return DecayEntry(
        name=name,
        expected_exponent=expected,
        fitted_exponent=fitted_exp,
        fitted_amplitude=amp,
        kind=kind,
        envelope_ok=envelope_ok,
        window=(float(x.min()), float(x.max())),
    )


def check_layer_decay(layer, psi=None) -> DecayReport:
    """Fit far-field decay exponents and check factor-2 envelopes.

    phi - H and phi' saturate their rates (2s and 1+2s); phi'' and psi' are
    envelope bounds (1+2s) — for even potentials the corrector is even and
    its odd leading tail vanishes, so psi' genuinely decays faster than the
    bound; the check there is one-sided.
    """
    s = layer.s
    two_s = 2.0 * s
    R = layer.field.half_width
    x = layer.field.nodes
    h = layer.field.h
    phi = layer.field.values

    lo, hi = max(4.0, 0.15 * R), 0.7 * R
    sel = (np.abs(x) >= lo) & (np.abs(x) <= hi)
    outer = (np.abs(x) >= lo) & (np.abs(x) <= 0.9 * R)
    ax = np.abs(x)

    phi_tilde = phi - (x >= 0.0)
    entries = [
        _decay_entry("phi_minus_H", ax[sel], phi_tilde[sel], two_s, "exact",
                     ax[outer], phi_tilde[outer]),
        _decay_entry("phi_prime", ax[sel], layer.phi_prime[sel], 1.0 + two_s, "exact",
                     ax[outer], layer.phi_prime[outer]),
    ]
    phi_pp = np.gradient(layer.phi_prime, h)
    entries.append(
        _decay_entry("phi_second", ax[sel], phi_pp[sel], 1.0 + two_s, "upper",
                     ax[outer], phi_pp[outer])
    )
    if s >= 0.5:
        # remainder after removing the known leading tail (reported only;
        # its true decay is faster than the 1+2s bound, which is not
        # saturated for even potentials)
        (a_minus, _), = layer.field.tail.powers_minus
        (a_plus, _), = layer.field.tail.powers_plus
        amp = np.where(x > 0, a_plus, a_minus)
        rem = phi_tilde - amp * np.where(ax > 0, ax, 1.0) ** (-two_s)
        entries.append(
            _decay_entry("phi_minus_H_corrected", ax[sel], rem[sel], 1.0 + two_s, "upper")
        )
    if psi is not None:
        psiv = psi.field.values
        psi_prime = np.gradient(psiv, h)
        entries.append(
            _decay_entry("psi", ax[sel], psiv[sel], min(1.0 + two_s, 4.0 * s), "upper")
        )
        entries.append(
            _decay_entry("psi_prime", ax[sel], psi_prime[sel], 1.0 + two_s, "upper",
                         ax[outer], psi_prime[outer])
        )
    return DecayReport(entries=tuple(entries))


# ---------------------------------------------------------------------------
# dense travelling wave
# ---------------------------------------------------------------------------


def dense_travelling_wave(plan, W, px, slope, drive):
    """``cell.travelling_wave`` from V = 0, c = |drive| / p, with each Newton
    step solved by ``np.linalg.solve``: the Jacobian c D - I + diag
    W''(p x + V), bordered by p + D V and the mean row, is a circulant plus
    a diagonal, copied into one (m + 1)^2 array from a strided view of its
    first column.  The same stop and certificate: (V, (speed, uncertainty,
    0)), or None."""
    n = plan.n
    p = float(slope)
    a = abs(drive)
    e0 = np.zeros(n)
    e0[0] = 1.0
    i_col = plan.apply(e0)
    d_hat = (2j * math.pi / plan.period) * np.arange(n // 2 + 1)
    if n % 2 == 0:
        d_hat[-1] = 0.0
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
        return -np.roll(V[::-1], 1), (-lam, unc, 0.0)
    return V, (lam, unc, 0.0)
