import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracpn.potential import (
    Forcing,
    ForcingTerm,
    PeriodicPotential,
    eval_potential,
    sup_norms,
)
from reference import potential_value, standard_potential

A1 = 0.025330295910584444  # 1/(4 pi^2): unit curvature at the wells


def test_standard_coefficient_and_curvature():
    W = standard_potential()
    assert W.cosine_coeffs == (A1,)
    assert W.curvature_at_zero == pytest.approx(1.0, rel=1e-13)


def test_standard_sup_derivative():
    W = standard_potential()
    # |W'| = |a1 2 pi sin| peaks at 1/(2 pi)
    assert W.sup_derivative(1) == pytest.approx(1.0 / (2 * math.pi), rel=1e-12)


def test_wells_are_minima_at_integers():
    W = PeriodicPotential((A1, 0.003))
    v = np.array([0.0, 1.0, -2.0])
    assert np.allclose(potential_value(W, v), 0.0, atol=1e-15)
    assert np.allclose(eval_potential(W, v, 1), 0.0, atol=1e-15)
    assert W.curvature_at_zero > 0.0


@settings(max_examples=40, deadline=None)
@given(v=st.floats(-4, 4, allow_nan=False), order=st.integers(0, 1))
def test_derivatives_match_finite_differences(v, order):
    """W' against differences of W (from the reference), W'' against W'."""
    W = PeriodicPotential((A1, 0.004, -0.001))
    h = 1e-5
    arr = np.array([v - h, v, v + h])
    lo, mid, hi = potential_value(W, arr) if order == 0 else eval_potential(W, arr, 1)
    deriv = eval_potential(W, np.array([v]), order + 1)[0]
    assert deriv == pytest.approx((hi - lo) / (2 * h), abs=5e-6)


def test_eval_potential_order_range():
    W = standard_potential()
    for order in (0, 3):
        with pytest.raises(ValueError):
            eval_potential(W, np.array([0.1]), order)


def test_derivative_bound_dominates_samples():
    W = PeriodicPotential((A1, -0.002, 0.0007))
    v = np.linspace(0, 1, 2001)
    for order in (1, 2):
        bound = W.derivative_bound(order)
        assert np.max(np.abs(eval_potential(W, v, order))) <= bound + 1e-12


def test_forcing_zero_and_sup():
    assert Forcing().is_zero
    f = Forcing((ForcingTerm(0.3, 1, 2, "cos", "sin"),))
    assert not f.is_zero
    Kw, Ks = sup_norms(standard_potential(), f)
    assert Ks == pytest.approx(0.3, rel=1e-9)
    assert Kw == pytest.approx(1.0 / (2 * math.pi), rel=1e-12)
    assert sup_norms(None, None) == (0.0, 0.0)


@pytest.mark.parametrize("term, sup", [
    (ForcingTerm(1.0, 0, 1), 1.0),  # constant in t
    (ForcingTerm(1.0, 1, 0), 1.0),  # constant in y
    (ForcingTerm(-0.3), 0.3),  # constant
    (ForcingTerm(1.0, 0, 1, "sin"), 0.0),  # sin of mode 0: identically zero
])
def test_sup_norm_of_one_variable_forcings(term, sup):
    assert Forcing((term,)).sup_norm() == pytest.approx(sup, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("mode", [128, 256])
def test_sup_norm_of_high_modes(mode):
    """The sampling follows the highest live mode.  At a fixed 256 samples a
    mode-128 term has equal peaks on neighbouring samples, which left golden
    section without a bracket."""
    for term in (ForcingTerm(1.0, mode, 1), ForcingTerm(1.0, 1, mode, "sin", "sin"),
                 ForcingTerm(1.0, mode, mode, "cos", "sin")):
        assert Forcing((term,)).sup_norm() == pytest.approx(1.0, rel=1e-12, abs=0.0)


def test_liveness_is_shared_by_is_zero_and_sup_norm():
    dead = Forcing((ForcingTerm(0.0, 1, 1), ForcingTerm(1.0, 0, 2, "sin"),
                    ForcingTerm(2.0, 3, 0, "cos", "sin")))
    assert dead.is_zero
    assert dead.sup_norm() == 0.0
    assert not Forcing((ForcingTerm(1.0, 0, 1),)).is_zero


def test_sup_norm_of_cancelling_terms():
    assert Forcing((ForcingTerm(1.0, 1, 1), ForcingTerm(-1.0, 1, 1))).sup_norm() == 0.0


def test_sup_norm_dominates_samples():
    f = Forcing((ForcingTerm(0.3, 1, 2, "cos", "sin"),
                 ForcingTerm(-0.1, 0, 1, "cos", "cos")))
    bound = f.sup_norm()
    ts = np.linspace(0, 1, 61)
    ys = np.linspace(0, 1, 59)
    assert np.max(np.abs(f(ts[:, None], ys[None, :]))) <= bound + 1e-10


def test_forcing_parity_helpers():
    even = Forcing((ForcingTerm(0.5, 1, 2, "cos", "cos"),))
    odd = Forcing((ForcingTerm(0.5, 1, 1, "cos", "sin"),))
    y = np.linspace(0, 1, 7)
    np.testing.assert_allclose(even(0.3, y), even(0.3, -y), atol=1e-15)
    np.testing.assert_allclose(odd(0.3, y), -odd(0.3, -y), atol=1e-15)


def test_forcing_evaluation_matches_formula():
    f = Forcing((ForcingTerm(2.0, 3, 1, "sin", "cos"),))
    t, y = 0.21, np.array([0.4])
    want = 2.0 * math.sin(2 * math.pi * 3 * t) * math.cos(2 * math.pi * 0.4)
    assert f(t, y)[0] == pytest.approx(want, rel=1e-13)
