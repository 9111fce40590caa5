import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracpn.fracop import (
    AnisotropyKernel,
    GridField,
    LinePlan,
    PeriodicPlan,
    TailModel,
    normalization_constant,
    plan_for,
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
    f = np.cos(2 * np.pi * k * x / q)
    quad = plan_for("periodic", n, q / 2, s).apply(f)
    spec = plan_for("spectral", n, q / 2, s).apply(f)
    exact = -((2 * np.pi * k / q) ** (2 * s)) * f
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(spec - exact)) <= 1e-11 * scale
    assert np.max(np.abs(quad - exact)) <= 2e-3 * scale


@pytest.mark.parametrize("s", [0.3, 0.5, 0.75])
def test_spectral_plan_scales_with_g_like_the_quadrature_plan(s):
    """Both torus plans are linear in g: at g = 1.5 C(1,s) and at the
    directional g_e of an anisotropic kernel, each is g/C(1,s) times its
    g = C(1,s) plan, and the spectral plan is cached per g."""
    n, half = 64, 1.5
    x = 2.0 * half * np.arange(n) / n
    v = np.cos(2 * np.pi * x / (2 * half)) + 0.2 * np.sin(4 * np.pi * x / (2 * half)) + 0.1
    c = normalization_constant(s)
    kernel = AnisotropyKernel(dimension=2, constant=1.0, cos_coeffs=(0.3,), sin_coeffs=(0.2,))
    for g in (1.5 * c, kernel.directional_constant(s, (0.6, 0.8))):
        for geometry in ("periodic", "spectral"):
            base = plan_for(geometry, n, half, s).apply(v)
            scaled = plan_for(geometry, n, half, s, g).apply(v)
            assert np.max(np.abs(scaled - (g / c) * base)) <= 1e-13 * np.max(np.abs(base))
        assert plan_for("spectral", n, half, s, g) is plan_for("spectral", n, half, s, g)
        assert plan_for("spectral", n, half, s, g) is not plan_for("spectral", n, half, s)


def test_periodic_apply_kills_constants():
    n, q = 128, 1.0
    plan = PeriodicPlan(n, q, 0.4, normalization_constant(0.4), 8)
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
    plan = LinePlan(n, R, 0.5, INV_PI, int(round(1.0 / h)))
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
    red = replace(tail, c_minus=tail.c_minus - b, c_plus=tail.c_plus - b, slope=0.0)
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


def _line_cases(plan, s):
    """(tail, field) pairs: the zero tail, the layer's two-sided tail, a
    sloped tail with two powers on its right only, one with two powers on
    its left only, and a one-sided tail with a third exponent."""
    x = plan.nodes
    amp = plan.g_const / (2 * s * 0.4)
    return [
        (TailModel(), np.exp(-x * x / 4) * np.sin(x)),
        (TailModel(c_minus=0.0, c_plus=1.0,
                   powers_minus=((amp, 2 * s),), powers_plus=((-amp, 2 * s),)),
         0.5 + np.arctan(x) / np.pi),
        (TailModel(c_minus=-0.5, c_plus=2.0, slope=0.3,
                   powers_plus=((0.7, 0.8), (-0.2, 1.9))),
         0.3 * x + 0.75 + 1.25 * np.tanh(x)),
        (TailModel(c_minus=1.5, powers_minus=((0.4, 0.8), (0.25, 1.9))),
         0.75 - 0.75 * np.tanh(x)),
        (TailModel(c_plus=-1.0, powers_plus=((0.3, 2 * s),)),
         -0.5 - 0.5 * np.tanh(x) + 0.1 * np.exp(-x * x)),
    ]


@pytest.mark.parametrize("s", [0.3, 0.5, 0.75])
def test_line_apply_matches_direct_reference(s):
    """The cached pad responses and far-field basis and the 2n product
    reproduce the direct formula, also at the layer fixtures' n = 4096,
    R = 40 (s = 0.3 and 0.75); the pads (K > n nodes) reach past a whole
    window.  Alternating tails on one plan catches a stale or mis-keyed
    cache entry."""
    g = normalization_constant(s)
    grids = [(1024, 20.0)] + ([(4096, 40.0)] if s != 0.5 else [])
    for n, R in grids:
        plan = LinePlan(n, R, s, g, int(round(1.0 / (2 * R / n))))
        cases = _line_cases(plan, s)
        for tail, u in cases + cases[::-1] + cases:
            ref = _line_apply_reference(plan, u, tail)
            got = plan.apply(u, tail)
            assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("s", [0.3, 0.75])
def test_line_apply_transforms_at_most_2n_points(s, monkeypatch):
    """Once a tail has been applied, a further application of it calls
    np.fft on no more than 2n points, at the layer fixtures' n = 4096."""
    plan = LinePlan(4096, 40.0, s, normalization_constant(s), 51)
    lengths = []

    def recording(transform):
        def call(a, n=None, *args, **kwargs):
            lengths.append(np.shape(a)[-1] if n is None else n)
            return transform(a, n, *args, **kwargs)
        return call

    for tail, u in _line_cases(plan, s):
        plan.apply(u, tail)
        with monkeypatch.context() as m:
            for name in ("fft", "ifft", "rfft", "irfft"):
                m.setattr(np.fft, name, recording(getattr(np.fft, name)))
            plan.apply(u, tail)
        assert lengths and max(lengths) <= 2 * plan.n
        lengths.clear()


@pytest.mark.parametrize("s", [0.3, 0.5, 0.75])
def test_line_plan_symbol_is_zero_tail_operator(s):
    """Zero-padding to 2n, multiplying by the cached circulant symbol and
    truncating is -I with the zero tail, diagonal (far-field term) included."""
    n, R = 1024, 20.0
    plan = plan_for("line", n, R, s)
    x = plan.nodes
    rng = np.random.default_rng(1)
    v = np.where(np.abs(x) < 0.5 * R, (1.0 - (2.0 * x / R) ** 2) ** 3, 0.0)
    v *= np.sin(1.3 * x) + 0.5 * rng.normal(size=n)
    ref = plan.apply(v, TailModel())
    got = -np.fft.irfft(np.fft.rfft(v, 2 * n) * plan.symbol, 2 * n)[:n]
    assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_split_radius_consistency_smooth_field():
    """Two split radii differ by quadrature error alone, which shrinks when
    the grid is refined (native grid against every second node)."""
    q, s = 1.0, 0.6

    def sup_diff(n):
        x = q * np.arange(n) / n
        f = np.sin(2 * np.pi * x) + 0.3 * np.cos(6 * np.pi * x)
        a = plan_for("periodic", n, q / 2, s, r=0.1).apply(f)
        b = plan_for("periodic", n, q / 2, s, r=0.25).apply(f)
        return float(np.max(np.abs(a - b)))

    assert sup_diff(256) <= 0.6 * sup_diff(128)


def test_tail_model_eval_and_shift():
    t = TailModel(c_minus=0.0, c_plus=1.0,
                  powers_minus=((0.2, 1.5),), powers_plus=((-0.2, 1.5),))
    assert t.eval(np.array([-8.0]))[0] == pytest.approx(0.2 * 8.0**-1.5)
    assert t.eval(np.array([8.0]))[0] == pytest.approx(1.0 - 0.2 * 8.0**-1.5)
    # the tail of u - (m x + c) shifts the constants by c and the slope by m
    shifted = replace(t, c_minus=t.c_minus - 2.0, c_plus=t.c_plus - 2.0, slope=t.slope - 0.5)
    assert shifted.eval(np.array([8.0]))[0] == pytest.approx(
        t.eval(np.array([8.0]))[0] - 2.0 - 0.5 * 8.0
    )


def test_grid_field_eval_is_the_local_cubic():
    """Inside R - 2h, eval is the Lagrange cubic through the four nearest
    samples: it reproduces cubics and the samples themselves, and its error
    on arctan stays below the 4-point remainder bound (3/128) h^4 max|f^(4)|;
    beyond R - 2h it is the tail model."""
    n, R = 4096, 40.0
    tail = TailModel(c_minus=0.0, c_plus=1.0, powers_minus=((0.3, 1.0),),
                     powers_plus=((-0.3, 1.0),))
    x = GridField(np.zeros(n), R, tail).nodes
    h = x[1] - x[0]
    z = np.linspace(-R + 2.0 * h, R - 2.0 * h, 200_001)

    def cubic(v):
        return 2e-3 * v**3 - 0.4 * v**2 + 1.5 * v - 3.0

    field = GridField(cubic(x), R, tail)
    assert np.max(np.abs(field.eval(z) - cubic(z))) <= 1e-13 * np.max(np.abs(field.values))
    np.testing.assert_array_equal(field.eval(x[2:-2]), field.values[2:-2])

    v = np.linspace(-2.0, 2.0, 400_001)  # |arctan^(4)| peaks at |v| = 0.325
    f4 = np.max(np.abs(24.0 * v * (1.0 - v**2) / (1.0 + v**2) ** 4))
    err = np.max(np.abs(GridField(np.arctan(x), R, tail).eval(z) - np.arctan(z)))
    assert err <= 3.0 / 128.0 * h**4 * f4 + 1e-14

    far = np.array([-R - 1.0, -R + 1.9 * h, R - 1.9 * h, R, 3.0 * R])
    np.testing.assert_array_equal(field.eval(far), tail.eval(far))


def test_gauss_legendre_table_matches_leggauss():
    """The literal 32-point rule is leggauss(32) to roundoff (not bitwise:
    leggauss rests on LAPACK's eigvalsh) and exactly symmetric."""
    from numpy.polynomial.legendre import leggauss

    from fracpn.fracop import _GL_NODES, _GL_WEIGHTS

    nodes, weights = leggauss(32)
    assert np.max(np.abs(_GL_NODES - nodes)) <= 4e-16
    assert np.max(np.abs(_GL_WEIGHTS - weights)) <= 4e-16
    assert np.array_equal(_GL_NODES, -_GL_NODES[::-1])
    assert np.array_equal(_GL_WEIGHTS, _GL_WEIGHTS[::-1])


@pytest.mark.parametrize("side", [1, -1])
@pytest.mark.parametrize("beta", [0.6, 1.5])
def test_line_plan_power_basis_is_the_whole_grid_sum(side, beta):
    """The blocked far-field basis equals the n x 32 formula bit for bit, on
    a grid whose last block is short."""
    n = 600
    plan = LinePlan(n, 20.0, 0.5, INV_PI, int(round(n / 40.0)))
    pad_pow, basis = plan._power_basis(side, beta)
    x = plan.nodes
    whole = (plan.far_z[None, :] + side * x[:, None]) ** (-beta) @ plan.far_w
    assert np.array_equal(basis, whole)
    assert np.array_equal(pad_pow, plan._pad_dist[side] ** (-beta))


def test_line_plan_power_basis_memory():
    """At n = 4096 the basis allocates well under one n x 32 array (1 MB)."""
    plan = LinePlan(4096, 40.0, 0.5, INV_PI, 51)
    tracemalloc.start()
    try:
        plan._power_basis(1, 1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6


def test_line_plan_rejects_bad_sizes():
    with pytest.raises(ValueError):
        LinePlan(100, 10.0, 0.5, INV_PI, 0)


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


def test_plan_for_clamps_coarse_grids():
    # a q = 20 cell torus on 16 nodes has h = 1.25 > r/2: the solvers get
    # two inner cells
    assert plan_for("periodic", 16, 10.0, 0.5).m_inner == 2
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
    plan = PeriodicPlan(n, q, s, normalization_constant(s), 4)
    lhs = plan.apply(a * u + b * v)
    rhs = a * plan.apply(u) + b * plan.apply(v)
    assert np.max(np.abs(lhs - rhs)) <= 1e-11 * (1.0 + abs(a) + abs(b)) * plan.stiffness


@pytest.mark.parametrize("s", [0.3, 0.5, 0.75])
def test_directional_constant_isotropic_is_c1(s):
    kern = AnisotropyKernel(dimension=2, constant=normalization_constant(s, 2))
    for e in [(1.0, 0.0), (0.0, -2.0), (0.3, 0.7)]:
        assert kern.directional_constant(s, e) == pytest.approx(
            normalization_constant(s), rel=1e-14
        )


@pytest.mark.parametrize("s", [0.3, 0.5, 0.75])
def test_directional_constant_matches_angular_quadrature(s):
    kern = AnisotropyKernel(dimension=2, constant=1.0, cos_coeffs=(0.3, -0.1),
                            sin_coeffs=(0.2, 0.05, -0.04))
    L = 2**20
    theta = (np.arange(L) + 0.5) * (2.0 * np.pi / L)
    g = kern.angular(theta)
    for e in [(1.0, 0.0), (1.0, 2.0), (-0.6, 0.25)]:
        proj = np.abs(np.cos(theta) * e[0] + np.sin(theta) * e[1]) / math.hypot(*e)
        quad = 0.5 * float(np.sum(g * proj ** (2.0 * s))) * (2.0 * np.pi / L)
        assert kern.directional_constant(s, e) == pytest.approx(quad, rel=1e-8)


def test_directional_constant_one_dimensional_and_zero_direction():
    kern = AnisotropyKernel(dimension=1, constant=2.5)
    assert kern.directional_constant(0.4, 1.0) == 2.5
    assert kern.directional_constant(0.4, [-3.0]) == 2.5
    with pytest.raises(ValueError):
        kern.directional_constant(0.4, 0.0)
    kern2 = AnisotropyKernel(dimension=2, constant=1.0, cos_coeffs=(0.3,))
    for bad in [(0.0, 0.0), (1.0,), (1.0, math.nan)]:
        with pytest.raises(ValueError):
            kern2.directional_constant(0.4, bad)


def test_kernel_validation():
    with pytest.raises(ValueError):
        AnisotropyKernel(dimension=1, constant=-1.0)
    with pytest.raises(ValueError):
        # negative somewhere on the sphere
        AnisotropyKernel(dimension=2, constant=1.0, cos_coeffs=(2.0,))
    k = AnisotropyKernel(dimension=2, constant=1.0, cos_coeffs=(0.3,))
    th = np.linspace(0, 2 * np.pi, 97)
    assert np.allclose(k.angular(th), k.angular(th + np.pi))  # even on the sphere


def test_kernel_positivity_is_checked_between_samples():
    # min g = -0.5, attained between the 721 samples the old check took
    with pytest.raises(ValueError):
        AnisotropyKernel(dimension=2, constant=1.0, cos_coeffs=(0.0,) * 719 + (1.5,))
    # positive high-harmonic kernels (min g = 0.1 and 0.05) are still accepted
    AnisotropyKernel(dimension=2, constant=1.0, cos_coeffs=(0.0,) * 719 + (0.9,))
    AnisotropyKernel(dimension=2, constant=1.0, sin_coeffs=(0.0,) * 40 + (0.95,))
    # the kernels the other tests build
    kernels = [
        AnisotropyKernel(dimension=2, constant=0.4, cos_coeffs=(0.15,), sin_coeffs=(-0.1,)),
        AnisotropyKernel(dimension=2, constant=1.0, cos_coeffs=(0.3, -0.1),
                         sin_coeffs=(0.2, 0.05, -0.04)),
        AnisotropyKernel(dimension=2, constant=1.0, cos_coeffs=(0.3,)),
        AnisotropyKernel(dimension=2, constant=normalization_constant(0.3, 2)),
    ]
    theta = np.linspace(0.0, np.pi, 100_001)
    for k in kernels:
        assert 0.0 < k._min_lower_bound() <= float(np.min(k.angular(theta)))

