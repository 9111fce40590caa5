import math

import numpy as np
import pytest

from fracpn import layer
from fracpn.fracop import normalization_constant
from fracpn.layer import (
    LayerConvergenceError,
    _monotone,
    corrector_from_dict,
    corrector_to_dict,
    layer_from_dict,
    layer_to_dict,
    solve_corrector_psi,
    solve_layer,
)
from fracpn.potential import PeriodicPotential
from reference import check_layer_decay

TWO_PI = 2.0 * math.pi
INV_PI = 1.0 / math.pi


def test_half_order_profile_matches_arctan(layer_half):
    x = layer_half.field.nodes
    exact = 0.5 + np.arctan(x) / np.pi
    assert np.max(np.abs(layer_half.field.values - exact)) < 1e-3


def test_half_order_c0_is_two_pi(layer_half):
    assert layer_half.c0 == pytest.approx(TWO_PI, rel=0.01)


def test_half_order_tail_amplitudes(layer_half):
    # theory: phi - H ~ -sign(x) A |x|^(-2s) with A = g/(2 s alpha) = 1/pi
    (a_minus, beta_minus), = layer_half.field.tail.powers_minus
    (a_plus, beta_plus), = layer_half.field.tail.powers_plus
    assert beta_minus == beta_plus == 1.0
    assert a_minus == pytest.approx(INV_PI, rel=0.05)
    assert a_plus == pytest.approx(-INV_PI, rel=0.05)


@pytest.mark.parametrize("fix", ["layer_half", "layer_s075", "layer_s03"])
def test_layer_basics(fix, request):
    lay = request.getfixturevalue(fix)
    n = lay.field.n
    assert _monotone(lay.field.values)
    assert lay.residual_sup_inner < 1e-5
    assert lay.field.values[n // 2] == pytest.approx(0.5, abs=1e-12)
    assert lay.field.values[0] < 0.05 and lay.field.values[-1] > 0.95
    assert np.all(lay.phi_prime[n // 4: 3 * n // 4] > 0.0)


def test_eval_phi_interpolates_and_extends(layer_half):
    inner = np.linspace(-10.0, 10.0, 101)
    exact = 0.5 + np.arctan(inner) / np.pi
    assert np.max(np.abs(layer_half.field.eval(inner) - exact)) < 1e-3
    # beyond the window the tail model takes over and stays in [0, 1]-ish
    far = np.array([-500.0, 500.0])
    v = layer_half.field.eval(far)
    assert v[0] == pytest.approx(0.0, abs=1e-3)
    assert v[1] == pytest.approx(1.0, abs=1e-3)


def test_solve_layer_input_validation(W_std):
    with pytest.raises(ValueError):
        solve_layer(0.5, W_std, R_dom=10.0)
    with pytest.raises(ValueError):
        solve_layer(0.5, W_std, n=1000)
    with pytest.raises(ValueError):
        solve_layer(0.5, PeriodicPotential((-0.01,)), n=1024)


def test_unreachable_tolerance_raises(W_std):
    with pytest.raises(LayerConvergenceError):
        solve_layer(0.5, W_std, n=1024, tol=1e-14)


def test_step_without_crossing_slope_raises(W_std, monkeypatch):
    """A Newton step is pinned to phi(0) = 1/2 along phi'; where phi'(0) <= 0
    it cannot be, and the solve raises with monotone=False."""
    solve = layer._deflated_pcg

    def flat_at_zero(plan, wpp, alpha, mode, b, tol, x0=None):
        out = solve(plan, wpp, alpha, mode, b, tol, x0)
        mode[mode.size // 2] = 0.0  # the translation mode the step is pinned with
        return out

    monkeypatch.setattr(layer, "_deflated_pcg", flat_at_zero)
    with pytest.raises(LayerConvergenceError, match="phi'\\(0\\)") as exc:
        solve_layer(0.5, W_std, n=512)
    assert exc.value.monotone is False


@pytest.mark.parametrize("fix,s", [("layer_s075", 0.75), ("layer_s03", 0.3)])
def test_decay_report_exponents(fix, s, request):
    lay = request.getfixturevalue(fix)
    rep = check_layer_decay(lay)
    e = rep.entry("phi_minus_H")
    assert e.kind == "exact"
    assert e.expected_exponent == pytest.approx(2 * s)
    assert abs(e.fitted_exponent - 2 * s) <= 0.15 * 2 * s
    e = rep.entry("phi_prime")
    assert e.kind == "exact"
    assert abs(e.fitted_exponent - (1 + 2 * s)) <= 0.15 * (1 + 2 * s)
    e = rep.entry("phi_second")
    assert e.kind == "upper"
    assert rep.ok


def test_decay_report_includes_corrector(layer_s075, psi_s075):
    rep = check_layer_decay(layer_s075, psi=psi_s075)
    psi_entry = rep.entry("psi")
    assert psi_entry.expected_exponent == pytest.approx(
        min(1 + 2 * 0.75, 4 * 0.75)
    )
    assert psi_entry.exponent_ok and psi_entry.envelope_ok
    assert rep.entry("psi_prime").exponent_ok


def test_corrector_speed_constant(layer_s03, psi_s03):
    # c = L0 * c0 by the solvability relation
    assert psi_s03.c == pytest.approx(layer_s03.c0, rel=1e-12)
    assert psi_s03.residual_sup_inner < 1e-3


def test_corrector_solvability_integral(layer_s03):
    """int (W''(phi) - alpha) phi' dy = -alpha: the drive term's projection
    onto the translation mode is what sets c."""
    lay = layer_s03
    W = lay.potential
    from fracpn.potential import eval_potential

    wpp = eval_potential(W, lay.field.values, 2)
    alpha = W.curvature_at_zero
    h = lay.field.h
    integral = np.sum((wpp - alpha) * lay.phi_prime) * h
    assert integral == pytest.approx(-alpha, rel=2e-2)


def test_corrector_is_linear_in_drive(layer_s03, psi_s03):
    psi2 = solve_corrector_psi(layer_s03, 2.0)
    scale = np.max(np.abs(psi2.field.values))
    assert np.max(np.abs(psi2.field.values - 2.0 * psi_s03.field.values)) < 1e-6 * max(scale, 1.0)


def test_corrector_zero_drive_is_zero(layer_s03):
    psi0 = solve_corrector_psi(layer_s03, 0.0)
    assert np.all(psi0.field.values == 0.0)
    assert psi0.c == 0.0


def test_corrector_even_for_even_potential(psi_s03):
    # reported asymmetry diagnostic should be at noise level
    assert abs(psi_s03.odd_tail_amplitude) < 1e-6


def test_layer_serialization_round_trip(layer_half):
    d = layer_to_dict(layer_half)
    back = layer_from_dict(d)
    assert back.s == layer_half.s
    assert back.c0 == layer_half.c0
    np.testing.assert_array_equal(back.field.values, layer_half.field.values)
    x = np.linspace(-30, 30, 17)
    np.testing.assert_allclose(back.field.eval(x), layer_half.field.eval(x), atol=1e-12)
    _assert_tail_takes_over(back.field, layer_half.field)
    # each number is stored once: c0 = 1/int phi'^2, the tail amplitudes in
    # "tail", and monotonicity is a solve_layer postcondition
    assert not {"gradient_sq_integral", "tail_amp_minus", "tail_amp_plus", "monotone"} & d.keys()


def test_corrector_serialization_round_trip(psi_s03):
    d = corrector_to_dict(psi_s03)
    back = corrector_from_dict(d)
    assert back.c == psi_s03.c
    np.testing.assert_array_equal(back.field.values, psi_s03.field.values)
    x = np.linspace(-30, 30, 17)
    np.testing.assert_allclose(back.field.eval(x), psi_s03.field.eval(x), atol=1e-12)
    _assert_tail_takes_over(back.field, psi_s03.field)


def _assert_tail_takes_over(back, field):
    """Past R - 2h, inside the window and beyond it, a field and its
    round-tripped copy both read their (equal) tail model."""
    R, h = field.half_width, field.h
    x = np.array([-R - 7.0, -R, -(R - 1.5 * h), R - 1.5 * h, R, R + 7.0])
    assert back.tail == field.tail
    np.testing.assert_array_equal(back.eval(x), field.tail.eval(x))
    np.testing.assert_array_equal(field.eval(x), field.tail.eval(x))


def test_iteration_counts_flat_in_n(W_std):
    """The circulant preconditioner keeps the PCG iterations of every Newton
    step and corrector solve flat in n.  tol 1e-6: at the default 1e-7 the
    s = 0.3 theory-tail closure floor lies above tol for n <= 2048 at R = 40."""
    for s in (0.3, 0.5, 0.75):
        newton, corrector = {}, {}
        for n in (1024, 2048, 4096):
            lay = solve_layer(s, W_std, R_dom=40.0, n=n, tol=1e-6)
            passes = lay.diagnostics["passes"]
            assert all(p["newton_steps"] <= 10 for p in passes)
            assert lay.steps == sum(p["newton_steps"] for p in passes)
            newton[n] = max(it for p in passes for it in p["pcg_iterations"])
            corrector[n] = max(solve_corrector_psi(lay, 1.0).cg_info["pcg_iterations"])
        assert newton[4096] <= 2 * newton[1024], (s, newton)
        assert corrector[4096] <= 2 * corrector[1024], (s, corrector)


@pytest.mark.parametrize("s,R,n,ratios", [(0.5, 20.0, 2048, (1.5, 2.0)),
                                          (0.75, 40.0, 4096, (1.5,))])
def test_c0_scales_with_kernel_constant(s, R, n, ratios, W_std):
    """For g I_1 the layer is phi_1(x / l) with l = g^(1/(2s)), so
    c0(g) = (g/C)^(1/(2s)) c0(C)."""
    C = normalization_constant(s)
    c0 = solve_layer(s, W_std, R_dom=R, n=n).c0
    for k in ratios:
        scaled = solve_layer(s, W_std, R_dom=R, n=n, g=k * C).c0
        assert scaled == pytest.approx(k ** (1.0 / (2.0 * s)) * c0, rel=1e-4)
