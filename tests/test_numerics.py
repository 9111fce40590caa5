"""The package's numpy ports of scipy and LAPACK routines, checked against
them.

fracpn imports no scipy at run time; scipy (declared in the `test` extra) is
the oracle here for the Hurwitz zeta, the gamma-based normalization, the
golden-section search and preconditioned CG, and numpy's LAPACK-backed
``lstsq`` for the closed-form least-squares line.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.sparse.linalg import LinearOperator
from scipy.sparse.linalg import cg as scipy_cg
from scipy.special import gamma as scipy_gamma
from scipy.special import zeta as scipy_zeta

import fracpn
from fracpn.fracop import _hurwitz_zeta, normalization_constant
from fracpn.cell import CellProblemSpec, solve_cell_evolution
from fracpn.layer import _cg, _fit_line
from fracpn.potential import Forcing, ForcingTerm, PeriodicPotential, _golden_min, eval_potential
from reference import standard_potential


@pytest.mark.parametrize("sigma", [1.02, 1.2, 1.6, 2.0, 2.5, 2.98])
def test_hurwitz_zeta_matches_scipy(sigma):
    a = np.linspace(0.5, 1.5, 401)
    ref = scipy_zeta(sigma, a)
    assert np.max(np.abs(_hurwitz_zeta(sigma, a) / ref - 1.0)) <= 1e-14


def test_normalization_constant_matches_scipy_gamma():
    for s in np.linspace(0.01, 0.99, 99):
        for dim in (1, 2):
            ref = s * 4.0**s * scipy_gamma(dim / 2.0 + s) / (
                math.pi ** (dim / 2.0) * scipy_gamma(1.0 - s))
            assert normalization_constant(s, dim) == pytest.approx(ref, rel=1e-15, abs=0.0)
    # sqrt(pi) * Gamma(1/2) rounds to one ulp above pi, so 1/pi is met to an ulp
    assert abs(normalization_constant(0.5) - 1.0 / math.pi) <= math.ulp(1.0 / math.pi)


@pytest.mark.parametrize("f,bracket", [
    (lambda v: (v - 0.3) ** 2 + 0.1 * math.sin(5.0 * v), (-0.5, 0.0, 0.5)),
    (lambda v: -abs(math.sin(2.0 * math.pi * v)), (0.24, 0.2501, 0.2502)),
    (lambda v: math.cosh(v - 1.7), (3.0, 1.5, -1.0)),  # reversed bracket
])
def test_golden_min_matches_scipy(f, bracket):
    res = minimize_scalar(f, bracket=bracket, method="golden", options={"xtol": 1e-12})
    x, fx = _golden_min(f, bracket)
    assert x == res.x and fx == res.fun


def test_golden_min_rejects_invalid_brackets():
    with pytest.raises(ValueError, match="xa < xb"):
        _golden_min(lambda v: v * v, (0.0, 2.0, 1.0))
    with pytest.raises(ValueError, match="f\\(xb\\) < f\\(xa\\)"):
        _golden_min(lambda v: v * v, (1.0, 2.0, 3.0))


def _scipy_sup_derivative(W, order):
    """The sup norm as computed with scipy's golden search."""
    vs = np.linspace(0.0, 1.0, 2**14, endpoint=False)
    vals = np.abs(eval_potential(W, vs, order))
    i = int(np.argmax(vals))
    dh = vs[1] - vs[0]
    res = minimize_scalar(lambda v: -abs(float(eval_potential(W, v, order))),
                          bracket=(vs[i] - dh, vs[i], vs[i] + dh), method="golden",
                          options={"xtol": 1e-12})
    return max(float(vals[i]), -float(res.fun))


def _scipy_forcing_sup(sigma):
    ts = np.linspace(0.0, 1.0, 256, endpoint=False)
    grid = np.abs(sigma(ts[:, None], ts[None, :]))
    it, iy = np.unravel_index(np.argmax(grid), grid.shape)
    t0, y0 = float(ts[it]), float(ts[iy])
    best = float(grid[it, iy])
    dh = 1.0 / 256.0
    opts = {"xtol": 1e-12}
    for _ in range(3):
        t0 = float(minimize_scalar(lambda t: -abs(float(sigma(t, y0))), method="golden",
                                   bracket=(t0 - dh, t0, t0 + dh), options=opts).x)
        y0 = float(minimize_scalar(lambda y: -abs(float(sigma(t0, y))), method="golden",
                                   bracket=(y0 - dh, y0, y0 + dh), options=opts).x)
        best = max(best, abs(float(sigma(t0, y0))))
    return best


def test_sup_norms_match_scipy_golden():
    for W in (standard_potential(), PeriodicPotential((0.02, -0.004, 0.001))):
        for order in (1, 2):
            assert W.sup_derivative(order) == _scipy_sup_derivative(W, order)
    sigma = Forcing((ForcingTerm(0.3, 1, 2, "cos", "sin"),
                     ForcingTerm(-0.1, 0, 1, "cos", "cos"),
                     ForcingTerm(0.07, 3, 1, "sin", "cos")))
    assert sigma.sup_norm() == _scipy_forcing_sup(sigma)


def test_cg_matches_scipy():
    rng = np.random.default_rng(7)
    n = 40
    Q = rng.standard_normal((n, n))
    A = Q @ Q.T + np.diag(rng.uniform(1.0, 50.0, n))
    b = rng.standard_normal(n)
    d = np.diag(A)
    M = LinearOperator((n, n), matvec=lambda v: v / d)  # Jacobi
    for x0 in (None, rng.standard_normal(n)):
        for tol in 10.0 ** -np.arange(1, 13):
            ours, ref = [], []
            x, info = _cg(lambda v: A @ v, b, lambda v: v / d, tol, 200,
                          lambda xk: ours.append(xk.copy()), x0=x0)
            _, info_s = scipy_cg(A, b, x0=x0, rtol=tol, atol=0.0, maxiter=200, M=M,
                                 callback=lambda xk: ref.append(xk.copy()))
            assert info == info_s == 0
            assert len(ours) == len(ref)
            for a, r in zip(ours, ref):
                assert np.max(np.abs(a - r)) <= 1e-14 * max(1.0, float(np.max(np.abs(r))))
            assert np.linalg.norm(A @ x - b) < 2.0 * tol * np.linalg.norm(b)


def test_cg_reports_max_iter_when_unconverged():
    A = np.diag(np.arange(1.0, 31.0))
    x, info = _cg(lambda v: A @ v, np.ones(30), lambda v: v, 1e-12, 3, lambda xk: None)
    assert info == 3


def _lstsq_line(x, y):
    (slope, intercept), *_ = np.linalg.lstsq(np.vstack([x, np.ones_like(x)]).T, y, rcond=None)
    return slope, intercept


def test_fit_line_matches_lstsq_on_the_fit_data(psi_s03, psi_s075):
    """The closed-form line equals lstsq's to 1e-12 relative on the data of
    both fits that used lstsq: the corrector's log-log tail windows, and a
    stepped row's mean over [T/2, T] and its two halves."""
    data = []
    for psi in (psi_s03, psi_s075):
        x, R = psi.field.nodes, psi.field.half_width
        for side in (1.0, -1.0):
            sel = (side * x >= 0.5 * R) & (side * x <= 0.8 * R)
            data.append((np.log(side * x[sel]), np.log(np.abs(psi.field.values[sel]))))
    trace = solve_cell_evolution(CellProblemSpec(s=0.5, slope=0.5, drive=0.01,
                                                 potential=standard_potential(), n=32,
                                                 horizon=5.0, dt=0.01))
    sel = trace.times >= 0.5 * trace.times[-1]
    t, y = trace.times[sel], trace.means[sel]
    mid = t.size // 2
    data += [(t, y), (t[:mid], y[:mid]), (t[mid:], y[mid:])]
    for x, y in data:
        for ours, ref in zip(_fit_line(x, y), _lstsq_line(x, y)):
            assert ours == pytest.approx(ref, rel=1e-12, abs=0.0)


def _src_env():
    """The environment of a child interpreter that imports this fracpn."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracpn.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_cli_import_loads_no_scipy(tmp_path):
    """Every fracpn command is its own process: start-up must stay numpy-only,
    with no process pool, and loads none of the cell, homog and hull modules;
    a one-row table runs in-process even when workers are offered, a
    multi-row table forks its workers without concurrent or multiprocessing,
    and a command run end to end maps no OpenSSL (hashlib) and imports no
    numpy.polynomial."""
    config = tmp_path / "layer.json"
    config.write_text(json.dumps({
        "command": "layer", "operator": {"s": 0.5},
        "potential": {"cosine": [0.025330295910584444]},
        "numeric": {"n": 256, "half_width": 20.0}, "output": {"prefix": "t"}}))
    script = """
import sys, fracpn, fracpn.cli
def heavy():
    return sorted(m for m in sys.modules
                  if m.split('.')[0] in ('scipy', 'concurrent', 'multiprocessing')
                  or m == '_hashlib' or m.startswith('numpy.polynomial'))
print(heavy(), sorted(m for m in sys.modules
                     if m in ('fracpn.cell', 'fracpn.homog', 'fracpn.hull')))
from fracpn.cell import CellProblemSpec, as_rational, hbar_table
from fracpn.potential import PeriodicPotential
W = PeriodicPotential((0.025330295910584444,))
spec = CellProblemSpec(s=0.5, slope=as_rational(0.5), drive=0.0, potential=W, n=64,
                       horizon=1.0)
print(len(hbar_table(spec, [0.5], [0.0], workers=4)), heavy())
print(len(hbar_table(spec, [0.0, 0.5], [0.0, 0.1], workers=2)), heavy())
code = fracpn.cli.main(["layer", "--config", sys.argv[1], "--out", sys.argv[2]])
print(code, heavy())
"""
    out = subprocess.run([sys.executable, "-c", script, str(config), str(tmp_path / "run")],
                         env=_src_env(), capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    assert lines[:3] == ["[] []", "1 []", "4 []"] and lines[-1] == "0 []"
    assert (tmp_path / "run" / "t-layer.json").is_file()


def test_cli_import_caps_blas_threads_unless_set():
    """Importing the CLI sets OPENBLAS_NUM_THREADS to 1 before numpy loads,
    and keeps a value the caller set."""
    script = "import os, fracpn.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    for preset, expected in ((None, "1"), ("3", "3")):
        env = _src_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == expected, preset


# per command: numeric keys, inputs, and the fracpn modules it loads beyond cli,
# fracop, layer, potential and runio, which every command loads
COMMAND_MODULES = [
    ("layer", {"n": 256, "half_width": 20.0}, {}, ()),
    ("corrector", {"L0": 1.0}, {"layer": "t-layer.json"}, ()),
    ("ansatz-residual", {"delta": 0.25, "p0": 1.0, "L0": 0.0, "n_grid": 256},
     {"layer": "t-layer.json"}, ("hull",)),
    ("orowan", {"delta_list": [0.5], "p0": 1.0, "L0": 1.0, "n": 64, "horizon": 40.0},
     {"layer": "t-layer.json"}, ("cell", "hull")),
    ("hbar", {"slope": 0.5, "drive": 0.7, "n": 64, "horizon": 40.0}, {}, ("cell",)),
    ("hbar-table", {"slopes": [0.5], "drives": [-1.0, 0.0, 1.0], "n": 64, "horizon": 40.0},
     {}, ("cell",)),
    ("homogenize", {"branch": "sub", "eps_list": [0.5, 0.25], "slope": 0.5, "horizon": 0.05,
                    "n": 64, "profile": [[0.1, 1, "sin"]]},
     {"hbar_table": "t-hbar-table.csv"}, ("cell", "homog")),
]


def test_each_command_loads_only_its_modules(tmp_path):
    """Each command, in its own process and in chain order (later commands
    read what earlier ones wrote), loads only the fracpn modules it runs,
    and leaves the import-time heap frozen out of the collector."""
    script = """
import gc, sys
import fracpn.cli
code = fracpn.cli.main(sys.argv[1:])
print(code, gc.get_freeze_count() > 0,
      sorted(m[7:] for m in sys.modules if m.startswith('fracpn.')))
"""
    base = {"cli", "fracop", "layer", "potential", "runio"}
    for command, numeric, inputs, extra in COMMAND_MODULES:
        config = tmp_path / f"{command}.json"
        config.write_text(json.dumps({
            "command": command, "operator": {"s": 0.5},
            "potential": {"cosine": [0.025330295910584444]}, "numeric": numeric,
            "inputs": inputs, "output": {"prefix": "t"}}))
        out = subprocess.run([sys.executable, "-c", script, command, "--config", str(config),
                              "--out", str(tmp_path)],
                             env=_src_env(), capture_output=True, text=True, check=True)
        assert out.stdout.splitlines()[-1] == f"0 True {sorted(base | set(extra))}", command
