import math
from fractions import Fraction

import numpy as np
import pytest

from fracpn import homog
from fracpn.cell import CellProblemSpec, solve_cell_evolution
from fracpn.homog import (
    BRANCH_STRONG,
    BRANCH_WEAK,
    DriveLaw,
    EffectiveProblemSpec,
    EpsProblemSpec,
    InitialProfile,
    OutsideTableError,
    SlopeLaw,
    StepBudgetError,
    branch_exponents,
    convergence_report,
    solve_effective,
    solve_eps_problem,
)
from fracpn.potential import Forcing, ForcingTerm, PeriodicPotential
from reference import identity_law, standard_potential

W_STD = standard_potential()


def test_branch_exponents_values():
    assert branch_exponents(BRANCH_WEAK, 0.75) == (0.5, 1.0, 1.0)
    assert branch_exponents(BRANCH_STRONG, 0.3) == (0.0, 0.6, 0.6)
    # the two scalings agree bit-for-bit at the crossover order
    assert branch_exponents(BRANCH_WEAK, 0.5) == branch_exponents(BRANCH_STRONG, 0.5)


def test_branch_exponents_validation():
    with pytest.raises(ValueError):
        branch_exponents(BRANCH_WEAK, 0.3)
    with pytest.raises(ValueError):
        branch_exponents(BRANCH_STRONG, 0.75)
    with pytest.raises(ValueError):
        branch_exponents("sideways", 0.5)
    with pytest.raises(ValueError):
        branch_exponents(BRANCH_WEAK, 1.0)


def test_initial_profile():
    prof = InitialProfile(terms=((0.3, 1, "sin"), (0.1, 2, "cos")))
    x = np.linspace(0.0, 1.0, 7)
    expect = 0.3 * np.sin(2 * math.pi * x) + 0.1 * np.cos(4 * math.pi * x)
    assert np.allclose(prof(x), expect, atol=1e-15)
    assert np.all(InitialProfile()(x) == 0.0)
    with pytest.raises(ValueError):
        InitialProfile(terms=((0.3, 1, "tan"),))
    with pytest.raises(ValueError):
        InitialProfile(terms=((0.3, -1, "sin"),))


def test_drive_law_clamps_monotone():
    law = DriveLaw([0.0, 1.0, 2.0], [0.5, 0.3, 0.9])
    assert law(0.0) == 0.5
    assert law(1.0) == 0.5  # dip clamped up
    assert law(1.5) == pytest.approx(0.7)
    assert law.coverage == (0.0, 2.0)
    with pytest.raises(OutsideTableError):
        law(2.5)
    assert issubclass(OutsideTableError, ValueError)


def test_slope_law_constant():
    law = SlopeLaw([-2.0, 2.0], [0.7, 0.7])
    assert law(-1.3) == 0.7
    assert law.lipschitz == 0.0
    assert law.coverage == (-2.0, 2.0)


def test_law_from_rows():
    rows = [
        {"slope_num": 0, "slope_den": 1, "drive": 1.0, "speed": 0.9},
        {"slope_num": 0, "slope_den": 1, "drive": -1.0, "speed": -0.9},
        {"slope_num": 1, "slope_den": 2, "drive": 0.0, "speed": 0.4},
        {"slope_num": 1, "slope_den": 1, "drive": 0.0, "speed": 0.8},
    ]
    dl = DriveLaw.from_rows(rows)
    assert dl(0.0) == pytest.approx(0.0)
    sl = SlopeLaw.from_rows(rows)
    assert sl(0.75) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        DriveLaw.from_rows(rows, slope_num=7)
    with pytest.raises(ValueError):
        SlopeLaw.from_rows(rows[:2])  # no rows at drive 0


def test_eps_spec_commensurability():
    prof = InitialProfile(terms=((0.2, 1, "sin"),))
    # slope / eps must land on the pinning period
    with pytest.raises(ValueError):
        EpsProblemSpec(branch=BRANCH_WEAK, eps=0.5, s=0.75, slope=0.3,
                       profile=prof, potential=W_STD)
    # fine: 0.5 / 0.5 = 1
    EpsProblemSpec(branch=BRANCH_WEAK, eps=0.5, s=0.75, slope=0.5,
                   profile=prof, potential=W_STD)
    with pytest.raises(ValueError):
        EpsProblemSpec(branch=BRANCH_STRONG, eps=1.5, s=0.3, slope=0.0,
                       profile=prof, potential=W_STD)


def test_eps_spec_forcing_periodicity_only_for_live_forcing():
    """1/eps in Z is asked only of a forcing that is not identically zero;
    a sin factor of mode 0 vanishes like amp 0 does."""
    prof = InitialProfile()
    for terms in ((ForcingTerm(0.0, 1, 1),), (ForcingTerm(1.0, 0, 1, "sin"),),
                  (ForcingTerm(1.0, 1, 0, "cos", "sin"),)):
        EpsProblemSpec(branch=BRANCH_STRONG, eps=0.3, s=0.3, slope=0.0, profile=prof,
                       potential=W_STD, forcing=Forcing(terms))
    with pytest.raises(ValueError, match="forcing periodicity"):
        EpsProblemSpec(branch=BRANCH_STRONG, eps=0.3, s=0.3, slope=0.0, profile=prof,
                       potential=W_STD, forcing=Forcing((ForcingTerm(1.0, 0, 1),)))


def test_effective_spec_validation():
    prof = InitialProfile()
    with pytest.raises(TypeError):
        EffectiveProblemSpec(branch=BRANCH_WEAK, law=identity_law(1.0),
                             slope=0.0, profile=prof)
    with pytest.raises(TypeError):
        EffectiveProblemSpec(branch=BRANCH_STRONG, law=SlopeLaw([-1.0, 1.0], [0.0, 0.0]),
                             slope=0.0, profile=prof, s=0.4)
    with pytest.raises(ValueError):
        EffectiveProblemSpec(branch=BRANCH_STRONG, law=identity_law(1.0),
                             slope=0.0, profile=prof)


def test_weak_effective_constant_law_is_exact():
    """A constant speed law makes the front translate rigidly; the scheme
    reproduces it to rounding because the flux difference vanishes."""
    prof = InitialProfile(terms=((0.25, 1, "sin"),))
    spec = EffectiveProblemSpec(branch=BRANCH_WEAK, law=SlopeLaw([-4.0, 4.0], [0.7, 0.7]),
                                slope=0.5, profile=prof, horizon=0.2, n=64)
    tr = solve_effective(spec)
    w0 = prof(np.arange(64) / 64)
    for k, t in enumerate(tr.times):
        assert np.allclose(tr.remainders[k], w0 + 0.7 * t, atol=1e-12)


def test_strong_effective_identity_law_mode_decay():
    """With the identity speed law the strong-branch dynamics is the linear
    fractional heat flow, so a single mode decays like exp(-(2 pi k)^{2s} t)."""
    s = 0.5
    amp = 0.1
    prof = InitialProfile(terms=((amp, 1, "cos"),))
    spec = EffectiveProblemSpec(branch=BRANCH_STRONG, law=identity_law(1.0),
                                slope=0.0, profile=prof, horizon=0.1, n=256, s=s)
    tr = solve_effective(spec)
    mu = (2.0 * math.pi) ** (2.0 * s)
    x = np.arange(256) / 256
    worst = 0.0
    for k, t in enumerate(tr.times):
        exact = amp * math.exp(-mu * t) * np.cos(2 * math.pi * x)
        worst = max(worst, float(np.max(np.abs(tr.remainders[k] - exact))))
    assert worst <= 1e-3


def test_eps_problem_trivial_state_is_fixed():
    prof = InitialProfile()
    for branch, s in ((BRANCH_WEAK, 0.75), (BRANCH_STRONG, 0.3)):
        spec = EpsProblemSpec(branch=branch, eps=0.5, s=s, slope=0.0,
                              profile=prof, potential=None, n=32, horizon=0.05)
        tr = solve_eps_problem(spec)
        assert np.all(tr.remainders == 0.0)


def test_step_budget_guard(monkeypatch):
    monkeypatch.setattr(homog, "MAX_STEPS", 10)
    prof = InitialProfile(terms=((0.1, 1, "sin"),))
    spec = EpsProblemSpec(branch=BRANCH_STRONG, eps=0.5, s=0.3, slope=0.0,
                          profile=prof, potential=W_STD, n=128, horizon=1.0)
    with pytest.raises(StepBudgetError):
        solve_eps_problem(spec)


def test_convergence_report_validation():
    prof = InitialProfile()

    def spec(eps, n=32):
        return EpsProblemSpec(branch=BRANCH_STRONG, eps=eps, s=0.4, slope=0.0,
                              profile=prof, potential=None, n=n, horizon=0.05)

    law = identity_law(1.0)
    with pytest.raises(ValueError):
        convergence_report([spec(0.5)], law)
    with pytest.raises(ValueError):
        convergence_report([spec(0.25), spec(0.5)], law)
    with pytest.raises(ValueError):
        convergence_report([spec(0.5), spec(0.25, n=48)], law)


def test_convergence_report_rejects_specs_that_differ_beyond_eps():
    """Every field but eps must match the first spec's, the potential and
    g_const included: the effective limit is built from the first spec."""
    prof = InitialProfile()

    def spec(eps, potential=W_STD, g_const=None):
        return EpsProblemSpec(branch=BRANCH_STRONG, eps=eps, s=0.4, slope=0.0, profile=prof,
                              potential=potential, n=32, horizon=0.05, g_const=g_const)

    law = identity_law(1.0)
    for other in (spec(0.25, potential=PeriodicPotential((0.02,))), spec(0.25, potential=None),
                  spec(0.25, g_const=2.0)):
        with pytest.raises(ValueError, match="differ only in eps"):
            convergence_report([spec(0.5), other], law)


def test_convergence_report_trivial_case_is_exact():
    prof = InitialProfile()
    specs = [
        EpsProblemSpec(branch=BRANCH_STRONG, eps=e, s=0.4, slope=0.0,
                       profile=prof, potential=None, n=32, horizon=0.05)
        for e in (0.5, 0.25)
    ]
    rep = convergence_report(specs, identity_law(1.0))
    assert rep["errors"] == [0.0, 0.0]
    assert rep["eps_list"] == [0.5, 0.25]
    assert rep["branch"] == BRANCH_STRONG
    assert rep["monotone_decreasing"] is False  # zero does not strictly decrease
    assert set(rep) == {"branch", "eps_list", "errors", "compact", "grids",
                        "monotone_decreasing"}


def test_convergence_report_small_real_run():
    prof = InitialProfile(terms=((0.2, 1, "sin"),))
    specs = [
        EpsProblemSpec(branch=BRANCH_STRONG, eps=e, s=0.4, slope=0.0,
                       profile=prof, potential=W_STD, n=64, horizon=0.1)
        for e in (0.5, 0.25)
    ]
    rep = convergence_report(specs, identity_law(2.0))
    assert rep["compact"] == [0.1, 1.0]
    assert len(rep["errors"]) == 2
    assert all(np.isfinite(rep["errors"]))
    assert all(e > 0.0 for e in rep["errors"])


FORCING = Forcing((ForcingTerm(amp=0.05, mode_t=1, mode_x=1, kind_t="sin"),
                   ForcingTerm(amp=0.02, mode_t=2, mode_x=3, kind_x="sin")))


@pytest.mark.parametrize("n, s, horizon, forcing, steps_per_checkpoint", [
    (256, 0.3, 0.9, FORCING, 4),
    (1024, 0.5, 0.3, None, 13),  # the CFL step binds
    (1024, 0.5, 0.3, FORCING, 13),
])
def test_eps_one_is_the_cell_flow(n, s, horizon, forcing, steps_per_checkpoint):
    """On the strong branch at eps = 1 and slope 0 the eps problem is the
    cell flow at drive 0: the same kernel, step and forcing time, so every
    snapshot is the cell state at that step, bit for bit."""
    prof = InitialProfile(terms=((0.1, 0, "cos"), (0.2, 1, "sin"), (0.05, 3, "cos")))
    traj = solve_eps_problem(EpsProblemSpec(
        branch=BRANCH_STRONG, eps=1.0, s=s, slope=0.0, profile=prof, potential=W_STD,
        forcing=forcing, n=n, horizon=horizon))
    k = steps_per_checkpoint
    assert traj.dt == horizon / 32 / k
    trace = solve_cell_evolution(
        CellProblemSpec(s=s, slope=Fraction(0), drive=0.0, potential=W_STD, forcing=forcing,
                        n=n, horizon=horizon, dt=traj.dt),
        initial=prof(np.arange(n) / n))
    assert trace.times.size == 32 * k + 1
    assert np.array_equal(trace.means[::k], traj.remainders.mean(axis=1))
    assert np.array_equal(trace.v_final, traj.remainders[-1])
