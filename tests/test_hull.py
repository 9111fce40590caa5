import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fracpn import hull
from fracpn.cell import CellProblemSpec, as_rational, hbar
from fracpn.fracop import TailModel, normalization_constant, plan_for
from fracpn.hull import CutoffFunction, HullTailError, build_ansatz, nl_residual, orowan_check
from fracpn.layer import solve_layer
from reference import bilinear_form_B, claim1_series

# Hurwitz-zeta values: sum (i+1/2)^-2 = pi^2/2 - 4, sum (i-1/2)^-2 = pi^2/2
S_MINUS_HALF = math.pi**2 / 2.0 - 4.0
S_PLUS_HALF = math.pi**2 / 2.0


def test_claim1_frozen_values():
    S0, Sm, Sp = claim1_series(0.5, 0.5, tol=1e-12)
    assert Sm == pytest.approx(S_MINUS_HALF, abs=1e-12)
    assert Sp == pytest.approx(S_PLUS_HALF, abs=1e-12)
    assert S0 < 0.0  # near-side lattice points dominate


def test_claim1_against_brute_force():
    gamma, s = 0.3, 0.7
    S0, Sm, Sp = claim1_series(gamma, s, tol=1e-12)
    i = np.arange(1, 2_000_001, dtype=float)
    two_s = 2.0 * s
    S0_raw = float(np.sum((i + gamma) ** -two_s - (i - gamma) ** -two_s))
    Sm_raw = float(np.sum((i + gamma) ** -(1 + two_s)))
    # the raw truncation error is ~ a^-2s for S0 and ~ a^-2s/(2s) for Sm
    assert abs(S0 - S0_raw) < 3.0 / 2e6 ** two_s
    assert abs(Sm - Sm_raw) < 2.0 / 2e6 ** two_s


def test_claim1_odd_in_gamma():
    for gamma in (0.1, 0.25, 0.49):
        a = claim1_series(gamma, 0.6, tol=1e-12)[0]
        b = claim1_series(-gamma, 0.6, tol=1e-12)[0]
        assert a == pytest.approx(-b, abs=1e-12)
    assert claim1_series(0.0, 0.6)[0] == 0.0


def test_claim1_validation():
    with pytest.raises(ValueError):
        claim1_series(0.75, 0.5)
    with pytest.raises(ValueError):
        claim1_series(0.25, 1.2)


def test_cutoff_shape():
    tau = CutoffFunction(R=1.5)
    assert tau(0.0) == 1.0
    assert tau(1.5) == 1.0
    assert tau(-1.5) == 1.0
    assert tau(3.0) == 0.0
    assert tau(7.0) == 0.0
    z = np.linspace(-4.0, 4.0, 401)
    vals = tau(z)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.allclose(vals, tau(-z))
    with pytest.raises(ValueError):
        CutoffFunction(R=0.0)


def test_cutoff_is_c2_at_the_seams():
    tau = CutoffFunction(R=1.0)
    h = 1e-4
    for z0 in (1.0, 2.0):
        d1 = (tau(z0 + h) - tau(z0 - h)) / (2 * h)
        d2 = (tau(z0 + h) - 2 * tau(z0) + tau(z0 - h)) / h**2
        assert abs(d1) < 1e-6
        assert abs(d2) < 1e-2


def test_lattice_build_basic(layer_half):
    ans = build_ansatz(0.25, 1.0, 0.0, layer_half, n_terms=64, n_grid=512)
    assert ans.cauchy_diff <= 1e-8
    n = ans.g_values.size
    # the grid spans two unit periods; h - x repeats across them exactly
    assert np.max(np.abs(ans.g_values[: n // 2] - ans.g_values[n // 2:])) < 1e-12
    assert np.all(np.isfinite(ans.g_values))
    assert np.max(np.abs(ans.g_values)) < 10.0


def test_lattice_reflection_symmetry(layer_half):
    """With no drive the hull satisfies h(x) + h(-x) = const, i.e.
    g(x) + g(-x) is constant."""
    ans = build_ansatz(0.25, 1.0, 0.0, layer_half, n_terms=64, n_grid=256)
    x = np.array([0.1, 0.3, 0.45, 0.7])
    total = hull._assemble_g(ans, x, ans.n_terms)[0] + hull._assemble_g(ans, -x, ans.n_terms)[0]
    assert np.max(total) - np.min(total) < 1e-6


def test_cutoff_terms_bounded(layer_s03, psi_s03):
    ans = build_ansatz(0.25, 1.0, 1.0, layer_s03, psi=psi_s03,
                       n_terms=64, n_grid=256, cauchy_tol=1e-6)
    assert ans.cutoff is not None
    assert ans.cutoff.R == pytest.approx(2.0)
    i = np.arange(-ans.n_terms, ans.n_terms + 1)
    for x in (0.0, 0.3, 0.5, 1.7):
        assert np.count_nonzero(ans.cutoff((x - i) / ans.scale) > 0.0) <= 3


def _unblocked_g(ans, x, n_terms):
    """h(x) - x with every lattice sum taken over all points at once, as
    len(x) x n_terms arrays: the reference for the streamed sums."""
    scale = ans.scale
    d2s = ans.delta ** (2.0 * ans.s)
    phi = ans.phi_model
    out = np.full(x.shape, d2s * ans.L0 / ans.alpha)
    out += phi.phi_tilde(x / scale) + np.floor(x) + 1.0 - x
    i = np.arange(1, n_terms + 1, dtype=float)
    zp = (x[:, None] + i[None, :]) / scale
    zm = (x[:, None] - i[None, :]) / scale
    out += np.sum(phi.phi_tilde(zp) + phi.phi_tilde(zm), axis=1)
    out += phi.pair_closure(x, scale, n_terms + 1)
    if ans.cutoff is None:
        psi = ans.psi_model
        out += d2s * psi.eval(x / scale)
        out += d2s * np.sum(psi.eval(zp) + psi.eval(zm), axis=1)
        out += d2s * psi.sum_closure(x, scale, n_terms + 1)
    else:
        for z in (x / scale, zp, zm):
            vals = ans.psi.field.eval(z) * ans.cutoff(z)
            out += d2s * (vals if vals.ndim == 1 else np.sum(vals, axis=1))
    return out


@pytest.mark.parametrize("tag, cutoff", [("s075", False), ("s03", True)])
def test_streamed_lattice_sums_match_unblocked(request, tag, cutoff):
    """Row blocks, and one pass for both truncations, change no bit of
    h - x, on either corrector branch and on point counts that leave a
    short last block."""
    lay = request.getfixturevalue(f"layer_{tag}")
    psi = request.getfixturevalue(f"psi_{tag}")
    n_grid = 7 * hull._BLOCK_ROWS + 13
    ans = build_ansatz(0.2, 1.0, 1.0, lay, psi=psi, n_terms=64, n_grid=n_grid,
                       cauchy_tol=1e-6)
    assert (ans.cutoff is not None) == cutoff
    assert np.array_equal(ans.g_values, _unblocked_g(ans, ans.grid, 2 * ans.n_terms))
    x = np.linspace(-0.7, 2.3, 2 * hull._BLOCK_ROWS + 5)
    g_n, g_2n = hull._assemble_g(ans, x, ans.n_terms)
    assert np.array_equal(g_n, _unblocked_g(ans, x, ans.n_terms))
    assert np.array_equal(g_2n, _unblocked_g(ans, x, 2 * ans.n_terms))


@pytest.mark.parametrize("tag", ["s075", "s03"])
def test_build_ansatz_memory_is_bounded(request, tag):
    """The lattice sums stream in row blocks: building on 1024 points with
    64 and 128 terms (one pass for both) allocates at most 2 MB at once."""
    lay = request.getfixturevalue(f"layer_{tag}")
    psi = request.getfixturevalue(f"psi_{tag}")
    tracemalloc.start()
    try:
        build_ansatz(0.05, 1.0, 1.0, lay, psi=psi, n_terms=64, n_grid=1024,
                     cauchy_tol=1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6


def test_build_validation(layer_half, layer_s075, psi_s075):
    with pytest.raises(ValueError):
        build_ansatz(0.25, 0.0, 0.0, layer_half)
    with pytest.raises(ValueError):
        build_ansatz(0.25, 1.0, 0.0, layer_half, n_terms=0)
    with pytest.raises(ValueError):
        build_ansatz(0.6, 1.0, 0.0, layer_half)  # spacing 1/0.6 < 2
    with pytest.raises(ValueError):
        build_ansatz(0.25, 1.0, 1.0, layer_half, psi=None)
    with pytest.raises(ValueError):
        build_ansatz(0.25, 1.0, 1.0, layer_half, psi=psi_s075)  # s mismatch
    with pytest.raises(HullTailError):
        build_ansatz(0.25, 1.0, 0.0, layer_half, n_terms=4, n_grid=128,
                     cauchy_tol=1e-14)


@pytest.mark.parametrize("case", ["generic", "layer"])
def test_pair_product_identity(request, case):
    """I[fg] = f I[g] + g I[f] - B(f, g) at shared nodes, for two smooth
    zero-tail fields and for the s = 1/2 layer (with its tail) times a bump."""
    zero = TailModel()
    if case == "generic":
        n, R, s = 512, 12.0, 0.35
        h = 2 * R / n
        x = -R + h * np.arange(n)
        f, f_tail = np.tanh(x) * np.exp(-0.01 * x * x), zero
        g = 1.0 / (1.0 + x * x)
        plan = plan_for("line", n, R, s)
        idx, tol = np.arange(n // 8, 7 * n // 8, 37), 1e-12
    else:
        layer = request.getfixturevalue("layer_half")
        n = layer.field.n
        plan = plan_for("line", n, layer.field.half_width, layer.s, layer.g_const)
        f, f_tail = layer.field.values, layer.field.tail
        g = CutoffFunction(R=3.0)(layer.field.nodes)
        idx, tol = np.random.default_rng(7).integers(n // 10, n - n // 10, size=10), 1e-6
    lhs = plan.apply(f * g, zero)[idx]
    rhs = (
        f[idx] * plan.apply(g, zero)[idx]
        + g[idx] * plan.apply(f, f_tail)[idx]
        - bilinear_form_B(plan, f, f_tail, g, idx)
    )
    assert np.max(np.abs(lhs - rhs)) < tol


def test_bilinear_form_bound_off_support(layer_half):
    """Where the bump vanishes, |B(f, g)| <= 2 sup|f| I[g]."""
    layer = layer_half
    n = layer.field.n
    plan = plan_for("line", n, layer.field.half_width, layer.s, layer.g_const)
    f_vals = layer.field.values
    bump = CutoffFunction(R=2.0)
    g_vals = bump(layer.field.nodes)
    idx = np.nonzero(np.abs(layer.field.nodes) > 6.0)[0]
    idx = idx[(idx > n // 10) & (idx < n - n // 10)][::37]
    B = bilinear_form_B(plan, f_vals, layer.field.tail, g_vals, idx)
    I_g = plan.apply(g_vals, TailModel())
    bound = 2.0 * np.max(np.abs(f_vals)) * I_g[idx]
    assert np.all(np.abs(B) <= bound + 1e-12)


def test_residual_shrinks_with_delta(layer_s075, psi_s075):
    reports = []
    for d in (0.2, 0.1):
        ans = build_ansatz(d, 1.0, 1.0, layer_s075, psi=psi_s075,
                           n_terms=64, n_grid=512, cauchy_tol=1e-6)
        reports.append(nl_residual(ans))
    assert reports[1].over_d2s < reports[0].over_d2s


@pytest.mark.parametrize("tag", ["s075", "s03"])
def test_tail_models_are_continuous_at_the_blend(request, tag):
    """Each lattice term hands over from the profile to its far-field model
    through the quintic blend on [0.7 R, 0.85 R], with no jump at either
    end of it, on either side."""
    layer = request.getfixturevalue(f"layer_{tag}")
    psi = request.getfixturevalue(f"psi_{tag}")
    odd, even = hull._OddTailModel(layer), hull._EvenTailModel(psi)
    for evaluate, model in ((odd.phi_tilde, odd), (even.eval, even)):
        for z0 in (model.z_start, model.z_switch):
            for z in (z0, -z0):
                vals = evaluate(np.array([np.nextafter(z, 0.0), z, np.nextafter(z, 2.0 * z)]))
                assert np.ptp(vals) <= 1e-12


def test_residual_is_grid_converged_at_s075(layer_s075, psi_s075):
    """The order-1.5 operator turns a jump of the lattice terms into a peak
    that grows like n_grid^1.5; with the blended tail models the residual
    at delta = 0.2 is settled by 1024 points."""
    over_d2s = [
        nl_residual(build_ansatz(0.2, 1.0, 1.0, layer_s075, psi=psi_s075, n_terms=64,
                                 n_grid=n_grid, cauchy_tol=1e-6)).over_d2s
        for n_grid in (1024, 2048)
    ]
    assert over_d2s[1] == pytest.approx(over_d2s[0], rel=1e-3)


def test_orowan_quick(layer_half):
    rep = orowan_check((0.25, 0.125), 1.0, 1.0, layer_half, n=256, horizon=100.0)
    assert rep.target == pytest.approx(2.0 * math.pi, rel=0.01)
    ratios = [r["ratio"] for r in rep.rows]
    assert ratios[1] > ratios[0]
    assert all(r < 1.2 * rep.target for r in ratios)
    assert [r["delta"] for r in rep.rows] == [0.25, 0.125]
    with pytest.raises(ValueError):
        orowan_check((0.1, 0.2), 1.0, 1.0, layer_half)


def test_orowan_uses_the_layer_kernel_constant(W_std):
    """The Orowan check's cell runs take the layer's kernel constant, so a
    layer at g = 1.5 C gets speeds at g = 1.5 C, not at the default C(1,s)."""
    s, n, horizon = 0.5, 128, 50.0
    layer = solve_layer(s, W_std, R_dom=20.0, n=2048, g=1.5 * normalization_constant(s))
    rep = orowan_check((0.25, 0.125), 1.0, 1.0, layer, n=n, horizon=horizon)
    for row in rep.rows:
        d = row["delta"]
        spec = CellProblemSpec(s=s, slope=as_rational(d), drive=d ** (2 * s),
                               potential=W_std, n=n, horizon=horizon, g_const=layer.g_const)
        assert row["lambda"] == hbar(spec).speed
        assert row["lambda"] != hbar(replace(spec, g_const=None)).speed
