"""End-to-end acceptance gate.

One test per numbered criterion; each prints a single
``criterion NN: PASS/FAIL — detail`` line (visible with ``pytest -v -s``
or in failure reports) and asserts the stated tolerance.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

from fracpn import cli
from fracpn.cell import CellProblemSpec, hbar, hbar_table
from fracpn.fracop import TailModel, plan_for
from fracpn.homog import (
    BRANCH_STRONG,
    BRANCH_WEAK,
    DriveLaw,
    EpsProblemSpec,
    InitialProfile,
    SlopeLaw,
    convergence_report,
)
from fracpn.hull import build_ansatz, nl_residual, orowan_check
from fracpn.layer import solve_layer
from reference import bilinear_form_B, check_layer_decay, claim1_series

A1 = 0.025330295910584444


def _report(num: int, ok: bool, detail: str):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}", flush=True)
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_quadrature_matches_spectral():
    worst = 0.0
    converging = True
    for s in (0.3, 0.5, 0.75):
        errs = {}
        for n in (512, 1024):
            q = 2.0
            x = q * np.arange(n) / n
            vals = np.cos(2 * np.pi * x / q) + 0.3 * np.cos(6 * np.pi * x / q)
            quad = plan_for("periodic", n, q / 2, s).apply(vals)
            spec = plan_for("spectral", n, q / 2, s).apply(vals)
            scale = float(np.max(np.abs(spec)))
            errs[n] = float(np.max(np.abs(quad - spec))) / scale
        worst = max(worst, errs[1024])
        converging = converging and errs[1024] <= errs[512]
    ok = worst <= 1e-3 and converging
    _report(1, ok, f"rel diff at n=1024 max {worst:.2e} (tol 1e-3), "
                   f"refines under grid doubling: {converging}")


def test_criterion_02_half_order_layer_closed_form(W_std):
    t0 = time.perf_counter()
    layer = solve_layer(0.5, W_std, R_dom=20.0, n=2048)
    elapsed = time.perf_counter() - t0
    x = layer.field.nodes
    exact = 0.5 + np.arctan(x) / np.pi
    sup = float(np.max(np.abs(layer.field.values - exact)))
    c0_rel = abs(layer.c0 - 2.0 * math.pi) / (2.0 * math.pi)
    ok = sup <= 1e-3 and c0_rel <= 0.01 and elapsed <= 60.0
    _report(2, ok, f"sup|profile - closed form| {sup:.2e} (tol 1e-3), "
                   f"c0 off 2 pi by {100 * c0_rel:.3f}% (tol 1%), {elapsed:.0f}s (limit 60s)")


def test_criterion_03_layer_decay_exponents(layer_s075, layer_s03):
    details = []
    ok = True
    for lay in (layer_s075, layer_s03):
        rep = check_layer_decay(lay)
        for name in ("phi_minus_H", "phi_prime"):
            e = rep.entry(name)
            rel = abs(e.fitted_exponent - e.expected_exponent) / e.expected_exponent
            ok = ok and rel <= 0.15 and e.envelope_ok
            details.append(f"s={lay.s} {name}: fitted {e.fitted_exponent:.3f} "
                           f"vs {e.expected_exponent:.2f} ({100 * rel:.1f}%)")
        ok = ok and rep.ok
    _report(3, ok, "; ".join(details) + " (tol 15%)")


def test_criterion_04_cell_speeds(W_std):
    t0 = time.perf_counter()
    free = hbar(CellProblemSpec(s=0.5, slope=Fraction(1, 2), drive=0.7,
                                potential=None, n=64, horizon=40.0))
    free_ok = abs(free.speed - 0.7) <= 1e-6

    speeds = {}
    for p in (Fraction(1, 2), Fraction(1), Fraction(2)):
        for L in (-1.0, 0.0, 1.0):
            fit = hbar(CellProblemSpec(s=0.5, slope=p, drive=L, potential=W_std,
                                       n=512, horizon=200.0))
            speeds[(p, L)] = (fit.speed, fit.envelope_bound)

    comparison_ok = all(abs(v - L) <= env + 1e-9
                        for (p, L), (v, env) in speeds.items())
    monotone_ok = all(speeds[(p, -1.0)][0] <= speeds[(p, 0.0)][0] <= speeds[(p, 1.0)][0]
                      for p in (Fraction(1, 2), Fraction(1), Fraction(2)))
    antisym = max(abs(speeds[(p, -1.0)][0] + speeds[(p, 1.0)][0])
                  for p in (Fraction(1, 2), Fraction(1), Fraction(2)))
    antisym = max(antisym, max(abs(speeds[(p, 0.0)][0])
                               for p in (Fraction(1, 2), Fraction(1), Fraction(2))))
    elapsed = time.perf_counter() - t0
    ok = free_ok and comparison_ok and monotone_ok and antisym <= 2e-3 and elapsed <= 600.0
    _report(4, ok, f"free-case |speed - drive| {abs(free.speed - 0.7):.1e} (tol 1e-6), "
                   f"3x3 grid within envelope: {comparison_ok}, monotone in drive: {monotone_ok}, "
                   f"antisymmetry defect {antisym:.1e} (tol 2e-3), {elapsed:.0f}s (limit 600s)")


def test_criterion_05_small_slope_speed_law(layer_half):
    t0 = time.perf_counter()
    rep = orowan_check((0.2, 0.1, 0.05), 1.0, 1.0, layer_half, n=512, horizon=200.0)
    elapsed = time.perf_counter() - t0
    errs = [r["abs_err"] for r in rep.rows]
    nonincreasing = all(b <= a for a, b in zip(errs, errs[1:]))
    final_rel = errs[-1] / rep.target
    ok = nonincreasing and final_rel <= 0.15 and elapsed <= 1800.0 and not rep.warnings
    ratios = ", ".join(f"{r['ratio']:.3f}" for r in rep.rows)
    _report(5, ok, f"ratios [{ratios}] -> target {rep.target:.3f}, error nonincreasing: "
                   f"{nonincreasing}, final rel err {100 * final_rel:.2f}% (tol 15%), "
                   f"{elapsed:.0f}s (limit 1800s)")


def test_criterion_06_hull_residual_decay(layer_s075, psi_s075, layer_s03, psi_s03):
    details = []
    ok = True
    for lay, psi, branch in ((layer_s075, psi_s075, "series"),
                             (layer_s03, psi_s03, "cutoff")):
        res = {}
        for d in (0.2, 0.05):
            ans = build_ansatz(d, 1.0, 1.0, lay, psi=psi, n_terms=64,
                               n_grid=1024, cauchy_tol=1e-6)
            if branch == "cutoff":
                assert ans.cutoff is not None
            else:
                assert ans.cutoff is None
            res[d] = nl_residual(ans).over_d2s
        ratio = res[0.2] / res[0.05]
        ok = ok and ratio >= 2.0
        details.append(f"s={lay.s} ({branch}): {res[0.2]:.3f} -> {res[0.05]:.3f}, "
                       f"ratio {ratio:.2f}")
    _report(6, ok, "; ".join(details) + " (need >= 2)")


def test_criterion_07_product_identity(layer_half):
    layer = layer_half
    n = layer.field.n
    plan = plan_for("line", n, layer.field.half_width, layer.s, layer.g_const)
    f_vals = layer.field.values
    zero = TailModel()
    bump = np.exp(-0.5 * layer.field.nodes**2)
    rng = np.random.default_rng(2024)
    idx = rng.integers(n // 10, n - n // 10, size=10)
    B = bilinear_form_B(plan, f_vals, layer.field.tail, bump, idx)
    lhs = plan.apply(f_vals * bump, zero)[idx]
    rhs = f_vals[idx] * plan.apply(bump, zero)[idx] \
        + bump[idx] * plan.apply(f_vals, layer.field.tail)[idx] - B
    worst = float(np.max(np.abs(lhs - rhs)))
    ok = worst <= 1e-6
    _report(7, ok, f"max defect over 10 random nodes {worst:.2e} (tol 1e-6)")


def test_criterion_08_homogenization_error_decreases(W_std):
    t0 = time.perf_counter()
    base_w = CellProblemSpec(s=0.75, slope=Fraction(0), drive=0.0, potential=W_std,
                             n=256, horizon=150.0)
    rows_w = hbar_table(base_w, slopes=[Fraction(k, 2) for k in range(-3, 6)],
                        drives=[0.0], workers=2)
    law_w = SlopeLaw.from_rows(rows_w)
    prof_w = InitialProfile(terms=((0.25, 1, "sin"),))
    specs_w = [EpsProblemSpec(branch=BRANCH_WEAK, eps=e, s=0.75, slope=0.5,
                              profile=prof_w, potential=W_std, n=256, horizon=0.15)
               for e in (0.5, 0.25, 0.125)]
    rep_w = convergence_report(specs_w, law_w)

    base_s = CellProblemSpec(s=0.3, slope=Fraction(0), drive=0.0, potential=W_std,
                             n=256, horizon=150.0)
    drives = [round(-2.0 + 0.2 * k, 10) for k in range(21)]
    rows_s = hbar_table(base_s, slopes=[Fraction(0)], drives=drives, workers=2)
    law_s = DriveLaw.from_rows(rows_s)
    prof_s = InitialProfile(terms=((0.35, 1, "sin"),))
    specs_s = [EpsProblemSpec(branch=BRANCH_STRONG, eps=e, s=0.3, slope=0.0,
                              profile=prof_s, potential=W_std, n=256, horizon=0.3)
               for e in (0.5, 0.25)]
    rep_s = convergence_report(specs_s, law_s)
    elapsed = time.perf_counter() - t0

    ok = rep_w["monotone_decreasing"] and rep_s["monotone_decreasing"] and elapsed <= 1200.0
    we = ", ".join(f"{e:.4f}" for e in rep_w["errors"])
    se = ", ".join(f"{e:.4f}" for e in rep_s["errors"])
    _report(8, ok, f"weak branch e(eps) [{we}] strictly decreasing: "
                   f"{rep_w['monotone_decreasing']}; strong branch [{se}]: "
                   f"{rep_s['monotone_decreasing']}; {elapsed:.0f}s (limit 1200s)")


def test_criterion_09_lattice_kernel_series():
    S0, Sm, _ = claim1_series(0.5, 0.5, tol=1e-12)
    target = math.pi**2 / 2.0 - 4.0
    err = abs(Sm - target)
    odd_defect = 0.0
    for gamma in (0.1, 0.3):
        a = claim1_series(gamma, 0.5, tol=1e-12)[0]
        b = claim1_series(-gamma, 0.5, tol=1e-12)[0]
        odd_defect = max(odd_defect, abs(a + b))
    ok = err <= 1e-8 and odd_defect <= 1e-10
    _report(9, ok, f"|S_minus - (pi^2/2 - 4)| = {err:.1e} (tol 1e-8), "
                   f"signed sum odd-symmetry defect {odd_defect:.1e}")


def test_criterion_10_cli_reproducibility(tmp_path, capsys):
    cfg_path = tmp_path / "free.json"
    cfg_path.write_text(json.dumps({
        "command": "hbar",
        "operator": {"s": 0.5},
        "potential": None,
        "numeric": {"slope": 0.5, "drive": 0.7, "n": 64, "horizon": 40.0},
        "output": {"prefix": "free"},
    }))
    lay_path = tmp_path / "lay.json"
    lay_path.write_text(json.dumps({
        "command": "layer",
        "operator": {"s": 0.5},
        "potential": {"cosine": [A1]},
        "numeric": {"n": 1024, "half_width": 20.0, "tol": 1e-6},
        "output": {"prefix": "t"},
    }))
    outs = [tmp_path / d for d in ("a", "b")]
    payloads = {"hbar": [], "layer": []}
    for out in outs:
        assert cli.main(["hbar", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert cli.main(["layer", "--config", str(lay_path), "--out", str(out)]) == 0
        payloads["hbar"].append((out / "free-hbar.csv").read_bytes())
        payloads["layer"].append((out / "t-layer.json").read_bytes())
    identical = (payloads["hbar"][0] == payloads["hbar"][1]
                 and payloads["layer"][0] == payloads["layer"][1])

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "command": "layer",
        "operator": {"s": 1.5},
        "potential": {"cosine": [A1]},
        "numeric": {},
    }))
    rc = cli.main(["layer", "--config", str(bad), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    schema_ok = rc == 2 and "operator.s" in err and "(0, 1)" in err
    ok = identical and schema_ok
    _report(10, ok, f"repeat runs byte-identical: {identical}; order 1.5 rejected with "
                    f"exit 2 naming the field and the open interval (0, 1): {schema_ok}")
