import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracpn.fracop import (
    AnisotropyKernel,
    GridField,
    LinePlan,
    TailModel,
    levy_apply_quadrature,
    levy_apply_spectral,
    line_plan,
    normalization_constant,
    pair_product_form,
    periodic_plan,
    plan_2d,
    plan_for,
    split_consistency_check,
)

INV_PI = 0.3183098861837907  # 1/pi


def test_normalization_constant_half_is_inv_pi():
    assert normalization_constant(0.5) == pytest.approx(INV_PI, rel=1e-14)


def test_normalization_constant_positive_and_finite():
    for s in (0.05, 0.3, 0.5, 0.75, 0.95):
        for dim in (1, 2):
            c = normalization_constant(s, dim)
            assert math.isfinite(c) and c > 0.0


def test_normalization_constant_rejects_bad_order():
    with pytest.raises(ValueError):
        normalization_constant(1.0)
    with pytest.raises(ValueError):
        normalization_constant(0.0)


@pytest.mark.parametrize("s", [0.3, 0.5, 0.75])
@pytest.mark.parametrize("k", [1, 3])
def test_periodic_quadrature_matches_spectral_on_modes(s, k):
    """cos modes are eigenfunctions: both routes must give -(2 pi k/q)^2s."""
    n, q = 512, 2.0
    x = q * np.arange(n) / n
    f = GridField.periodic(np.cos(2 * np.pi * k * x / q), q)
    g = normalization_constant(s)
    quad = levy_apply_quadrature(f, s, g).values
    spec = levy_apply_spectral(f, s).values
    exact = -((2 * np.pi * k / q) ** (2 * s)) * f.values
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(spec - exact)) <= 1e-11 * scale
    assert np.max(np.abs(quad - exact)) <= 2e-3 * scale


def test_periodic_apply_kills_constants():
    n, q = 128, 1.0
    plan = periodic_plan(n, q, 0.4, normalization_constant(0.4), 8)
    out = plan.apply(np.full(n, 3.7))
    assert np.max(np.abs(out)) == 0.0


def test_arctan_profile_solves_half_order_layer_equation():
    """At s = 1/2 the layer equation has the closed form
    phi = 1/2 + arctan(x)/pi with I[phi] = -x / (pi (1 + x^2))."""
    n, R = 2048, 20.0
    h = 2 * R / n
    x = -R + h * np.arange(n)
    phi = 0.5 + np.arctan(x) / np.pi
    tail = TailModel(c_minus=0.0, c_plus=1.0,
                     powers_minus=((INV_PI, 1.0),), powers_plus=((-INV_PI, 1.0),))
    plan = line_plan(n, R, 0.5, INV_PI, int(round(1.0 / h)))
    got = plan.apply(phi, tail)
    want = -x / (np.pi * (1.0 + x * x))
    inner = slice(n // 10, n - n // 10)
    assert np.max(np.abs(got[inner] - want[inner])) < 2e-5


def _line_apply_reference(plan, u, tail):
    """LinePlan.apply written out term by term: the affine part of the tail
    is subtracted, the tail-padded field is convolved directly with the
    kernel, and the far field is the explicit n x 32 pair sum."""
    n, K, h = plan.n, plan.K, plan.h
    x = h * (np.arange(n) - n // 2)
    a = tail.slope
    b = float(np.mean(u - a * x))
    red = tail.shifted(b, a)
    U = np.concatenate([
        red.eval(x[0] - h * np.arange(K, 0, -1)),
        u - (a * x + b),
        red.eval(x[-1] + h * np.arange(1, K + 1)),
    ])
    out = np.convolve(U, plan.kernel, mode="valid")
    xx, zz = x[:, None], plan.far_z[None, :]
    pair = tail.c_plus + tail.c_minus + 2.0 * a * xx + np.zeros_like(xx * zz)
    for amp, beta in tail.powers_plus:
        pair = pair + amp * (xx + zz) ** (-beta)
    for amp, beta in tail.powers_minus:
        pair = pair + amp * (zz - xx) ** (-beta)
    return out + plan.far_coeff * ((pair - 2.0 * u[:, None]) @ plan.far_w)


@pytest.mark.parametrize("s", [0.3, 0.5, 0.75])
def test_line_apply_matches_direct_reference(s):
    """The cached far-field basis and the shortened FFT reproduce the direct
    formula; alternating tails on one plan catches a stale or mis-keyed
    cache entry."""
    n, R = 1024, 20.0
    g = normalization_constant(s)
    plan = LinePlan(n, R, s, g, int(round(1.0 / (2 * R / n))))
    x = plan.nodes()
    amp = g / (2 * s * 0.4)
    cases = [
        (TailModel.zero(), np.exp(-x * x / 4) * np.sin(x)),
        (TailModel(c_minus=0.0, c_plus=1.0,
                   powers_minus=((amp, 2 * s),), powers_plus=((-amp, 2 * s),)),
         0.5 + np.arctan(x) / np.pi),
        (TailModel(c_minus=-0.5, c_plus=2.0, slope=0.3,
                   powers_plus=((0.7, 0.8), (-0.2, 1.9))),
         0.3 * x + 0.75 + 1.25 * np.tanh(x)),
    ]
    for tail, u in cases + cases[::-1] + cases:
        ref = _line_apply_reference(plan, u, tail)
        got = plan.apply(u, tail)
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_split_radius_consistency_smooth_field():
    n, q = 256, 1.0
    x = np.arange(n) / n
    f = GridField.periodic(np.sin(2 * np.pi * x) + 0.3 * np.cos(6 * np.pi * x), q)
    rep = split_consistency_check(f, 0.6, normalization_constant(0.6), 0.1, 0.25)
    assert rep.converged
    assert rep.sup_diff <= rep.sup_diff_coarse


def test_split_radius_consistency_flags_rough_field():
    n, q = 256, 1.0
    rng = np.random.default_rng(0)
    f = GridField.periodic(rng.normal(size=n), q)
    rep = split_consistency_check(f, 0.6, normalization_constant(0.6), 0.1, 0.25)
    assert not rep.converged


def test_pair_product_identity_generic_fields():
    n, R, s = 512, 12.0, 0.35
    h = 2 * R / n
    x = -R + h * np.arange(n)
    f = np.tanh(x) * np.exp(-0.01 * x * x)
    g = 1.0 / (1.0 + x * x)
    zero = TailModel.zero()
    plan = line_plan(n, R, s, normalization_constant(s), int(round(1.0 / h)))
    idx = np.arange(n // 8, 7 * n // 8, 37)
    lhs = plan.apply(f * g, zero)[idx]
    rhs = (
        f[idx] * plan.apply(g, zero)[idx]
        + g[idx] * plan.apply(f, zero)[idx]
        + pair_product_form(plan, f, zero, g, zero, idx)
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_tail_model_eval_and_shift():
    t = TailModel(c_minus=0.0, c_plus=1.0,
                  powers_minus=((0.2, 1.5),), powers_plus=((-0.2, 1.5),))
    assert t.eval(np.array([-8.0]))[0] == pytest.approx(0.2 * 8.0**-1.5)
    assert t.eval(np.array([8.0]))[0] == pytest.approx(1.0 - 0.2 * 8.0**-1.5)
    # shifted(c, m) is the tail of u - (m x + c)
    shifted = t.shifted(2.0, 0.5)
    assert shifted.eval(np.array([8.0]))[0] == pytest.approx(
        t.eval(np.array([8.0]))[0] - 2.0 - 0.5 * 8.0
    )


def test_line_plan_rejects_bad_sizes():
    with pytest.raises(ValueError):
        line_plan(100, 10.0, 0.5, INV_PI, 0)


@pytest.mark.parametrize(
    "geometry, n, extent, r, m_inner",
    [
        ("periodic", 512, 1.0, None, 128),   # cell torus q = 2
        ("periodic", 512, 10.0, None, 26),   # cell torus q = 20
        ("periodic", 256, 0.5, None, 64),    # eps and effective problems, period 1
        ("line", 2048, 20.0, None, 51),      # s = 1/2 layer
        ("line", 4096, 40.0, None, 51),      # s = 0.75 and s = 0.3 layers
        ("periodic", 1024, 1.0, 0.25, 128),  # hull lattice grid, period 2
    ],
)
def test_plan_for_inner_cells(geometry, n, extent, r, m_inner):
    plan = plan_for(geometry, n, extent, 0.5, r=r)
    assert plan.m_inner == m_inner
    assert plan.g_const == normalization_constant(0.5)
    if geometry == "periodic":
        assert plan.period == 2.0 * extent
    else:
        assert plan.half_width == extent


def test_plan_for_clamps_coarse_grids_but_quadrature_rejects_them():
    # a q = 20 cell torus on 16 nodes has h = 1.25 > r/2: the solvers get
    # two inner cells, the field-level quadrature refuses the radius
    assert plan_for("periodic", 16, 10.0, 0.5).m_inner == 2
    field = GridField.periodic(np.sin(2 * np.pi * np.arange(16) / 16), 20.0)
    with pytest.raises(ValueError, match="below 2h"):
        levy_apply_quadrature(field, 0.5, INV_PI)
    fine = GridField.periodic(np.zeros(64), 1.0)
    with pytest.raises(ValueError, match="below 2h"):
        levy_apply_quadrature(fine, 0.5, INV_PI, r=0.02)
    with pytest.raises(ValueError, match="exceeds"):
        levy_apply_quadrature(fine, 0.5, INV_PI, r=0.6)
    with pytest.raises(ValueError, match="geometry"):
        plan_for("torus", 64, 0.5, 0.5)


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(-3, 3, allow_nan=False),
    b=st.floats(-3, 3, allow_nan=False),
    s=st.floats(0.15, 0.9),
)
def test_periodic_apply_is_linear(a, b, s):
    n, q = 64, 1.0
    x = np.arange(n) / n
    u = np.sin(2 * np.pi * x)
    v = np.cos(4 * np.pi * x) ** 2
    plan = periodic_plan(n, q, s, normalization_constant(s), 4)
    lhs = plan.apply(a * u + b * v)
    rhs = a * plan.apply(u) + b * plan.apply(v)
    assert np.max(np.abs(lhs - rhs)) <= 1e-11 * (1.0 + abs(a) + abs(b)) * plan.stiffness


def test_plan_2d_isotropic_eigenmode():
    s = 0.5
    n, q = 48, 2.0
    kern = AnisotropyKernel.fractional_laplacian(s, dimension=2)
    plan = plan_2d(n, q, s, kern)
    xx = q * np.arange(n) / n
    X, Y = np.meshgrid(xx, xx, indexing="ij")
    f = np.cos(2 * np.pi * (X + Y) / q)
    got = plan.apply(f)
    lam = -((2 * np.pi / q) ** 2 * 2.0) ** s
    err = np.max(np.abs(got - lam * f)) / abs(lam)
    assert err < 2e-2


def test_kernel_validation():
    with pytest.raises(ValueError):
        AnisotropyKernel(dimension=1, constant=-1.0)
    with pytest.raises(ValueError):
        # negative somewhere on the sphere
        AnisotropyKernel(dimension=2, constant=1.0, cos_coeffs=(2.0,))
    k = AnisotropyKernel(dimension=2, constant=1.0, cos_coeffs=(0.3,))
    th = np.linspace(0, 2 * np.pi, 97)
    assert np.allclose(k.angular(th), k.angular(th + np.pi))  # even on the sphere
