import math
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracpn.cell
from fracpn.cell import (
    CellProblemSpec,
    CellStabilityError,
    as_rational,
    estimate_lambda,
    hbar,
    hbar_table,
    known_speed,
    solve_cell_evolution,
    travelling_wave,
)
from fracpn.fracop import AnisotropyKernel, plan_for
from fracpn.potential import Forcing, ForcingTerm, PeriodicPotential, eval_potential
from reference import standard_potential

W_STD = standard_potential()
SUP_WP = 1.0 / (2.0 * math.pi)  # sup |W'| for the standard potential


def test_as_rational_forms():
    assert as_rational(Fraction(3, 7)) == Fraction(3, 7)
    assert as_rational(2) == Fraction(2)
    assert as_rational((3, 12)) == Fraction(1, 4)
    assert as_rational(0.5) == Fraction(1, 2)
    assert as_rational(1.0 / 3.0) == Fraction(1, 3)
    with pytest.raises(ValueError):
        as_rational(math.pi)
    with pytest.raises(ValueError):
        as_rational(1.0 / 97.0, q_max=64)


@settings(max_examples=30, deadline=None)
@given(num=st.integers(-40, 40), den=st.integers(1, 40))
def test_as_rational_round_trips_floats(num, den):
    f = Fraction(num, den)
    assert as_rational(float(f)) == f


def test_free_case_speed_equals_drive():
    spec = CellProblemSpec(s=0.5, slope=Fraction(1, 2), drive=0.7,
                           potential=None, n=64, horizon=40.0)
    fit = hbar(spec)
    assert fit.speed == pytest.approx(0.7, abs=1e-10)
    assert fit.converged


def test_uniform_state_matches_scalar_ode():
    """With slope 0 and uniform data the PDE reduces to v' = L - W'(v);
    for |L| > sup|W'| the period-average speed is sqrt(L^2 - sup|W'|^2)."""
    L = 1.0
    spec = CellProblemSpec(s=0.5, slope=Fraction(0), drive=L,
                           potential=W_STD, n=16, horizon=100.0)
    fit = hbar(spec)
    exact = math.sqrt(L * L - SUP_WP * SUP_WP)
    assert fit.speed == pytest.approx(exact, rel=1e-13)


def test_pinned_state_stays_put():
    spec = CellProblemSpec(s=0.4, slope=Fraction(0), drive=0.0,
                           potential=W_STD, n=32, horizon=30.0)
    fit = hbar(spec)
    assert fit.speed == 0.0
    assert fit.uncertainty == 0.0


def test_speed_is_odd_in_drive():
    up = CellProblemSpec(s=0.5, slope=Fraction(1, 2), drive=0.9,
                         potential=W_STD, n=128, horizon=60.0)
    down = CellProblemSpec(s=0.5, slope=Fraction(1, 2), drive=-0.9,
                           potential=W_STD, n=128, horizon=60.0)
    a = hbar(up)
    b = hbar(down)
    # the discrete flow is exactly reflection-symmetric
    assert a.speed + b.speed == pytest.approx(0.0, abs=1e-13)


def test_speed_monotone_in_drive():
    speeds = []
    for L in (0.5, 0.9, 1.3):
        spec = CellProblemSpec(s=0.5, slope=Fraction(1, 2), drive=L,
                               potential=W_STD, n=128, horizon=60.0)
        speeds.append(hbar(spec).speed)
    assert speeds[0] <= speeds[1] <= speeds[2]


def test_mean_drift_respects_envelope():
    sigma = Forcing((ForcingTerm(0.2, 1, 1, "sin", "cos"),))
    spec = CellProblemSpec(s=0.6, slope=Fraction(1, 2), drive=0.4,
                           potential=W_STD, forcing=sigma, n=64, horizon=20.0)
    trace = solve_cell_evolution(spec)
    t = trace.times
    drift = np.abs(trace.means - trace.means[0] - spec.drive * t)
    assert np.all(drift <= trace.envelope_bound * t + 1e-8 * (1.0 + t))


def test_oversized_step_raises():
    spec = CellProblemSpec(s=0.5, slope=Fraction(1, 2), drive=1.0,
                           potential=W_STD, n=256, horizon=200.0, dt=5.0)
    with pytest.raises(CellStabilityError):
        solve_cell_evolution(spec)


def test_fit_window_needs_samples():
    spec = CellProblemSpec(s=0.5, slope=Fraction(0), drive=0.0,
                           potential=None, n=16, horizon=1.0, dt=0.5)
    trace = solve_cell_evolution(spec)
    with pytest.raises(ValueError):
        estimate_lambda(trace)


def test_table_rows_sorted_and_parallel_consistent():
    base = CellProblemSpec(s=0.5, slope=Fraction(0), drive=0.0,
                           potential=W_STD, n=64, horizon=40.0)
    slopes = [Fraction(1, 2), Fraction(0)]
    drives = [0.6, -0.6, 0.0]
    seq = hbar_table(base, slopes=slopes, drives=drives, workers=1)
    keys = [(r["slope_num"] / r["slope_den"], r["drive"]) for r in seq]
    assert keys == sorted(keys)
    assert len(seq) == 6
    for workers in (2, 3, 7):  # 7: more workers than rows
        assert hbar_table(base, slopes=slopes, drives=drives, workers=workers) == seq


def _cheap_row(spec):
    return {"slope_num": spec.slope.numerator, "slope_den": spec.slope.denominator,
            "drive": spec.drive}


def _failing_row(spec):
    if spec.drive == 0.5:
        raise CellStabilityError("row 0.5 left the envelope")
    if spec.drive == 0.7:
        os._exit(3)  # a child that dies without sending its rows
    return _cheap_row(spec)


@pytest.mark.parametrize("drives, error, match", [
    ([0.1, 0.3, 0.5, 0.9], CellStabilityError, "row 0.5 left the envelope"),
    ([0.1, 0.3, 0.7, 0.9], RuntimeError, "exited \\(3\\) without its rows"),
], ids=["row-error", "child-dies"])
def test_table_pool_failure_reraises_and_leaves_no_child(monkeypatch, drives, error, match):
    """A row's exception in a child re-raises here with its type and
    message, a child that dies without its rows raises RuntimeError, and
    either way every child has been reaped."""
    monkeypatch.setattr(fracpn.cell, "_table_worker", _failing_row)
    base = CellProblemSpec(s=0.5, slope=Fraction(0), drive=0.0, potential=W_STD, n=32)
    with pytest.raises(error, match=match):
        hbar_table(base, slopes=[Fraction(0)], drives=drives, workers=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_interrupted_table_pool_leaves_no_child(monkeypatch):
    """An interrupt while the children work kills and reaps them."""
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    monkeypatch.setattr(fracpn.cell, "_table_worker", lambda spec: time.sleep(60))
    base = CellProblemSpec(s=0.5, slope=Fraction(0), drive=0.0, potential=W_STD, n=32)
    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        with pytest.raises(KeyboardInterrupt):
            hbar_table(base, slopes=[Fraction(0)], drives=[0.1, 0.3], workers=2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 30.0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_table_pool_claims_more_rows_than_a_pipe_buffer_holds(monkeypatch):
    """20 000 rows take more 4-byte claims than one PIPE_BUF write holds,
    and their pickled rows more than a pipe buffers: the claims go by chunk
    and the table completes."""
    monkeypatch.setattr(fracpn.cell, "_table_worker", _cheap_row)
    base = CellProblemSpec(s=0.5, slope=Fraction(0), drive=0.0, potential=W_STD, n=32)
    drives = [0.25 * k for k in range(10_000)]
    rows = hbar_table(base, slopes=[Fraction(0), Fraction(1, 2)], drives=drives, workers=3)
    assert rows == [_cheap_row(replace(base, slope=p, drive=F))
                    for p in (Fraction(0), Fraction(1, 2)) for F in drives]


# criterion 04's grid: s = 1/2, n = 512, horizon 200
GRID_SLOPES = (Fraction(1, 2), Fraction(1), Fraction(2))
# the travelling-wave speeds at F = +1 on the quadrature plan at n = 512,
# the limit the stepped route converges to as dt -> 0; the F = -1 speeds are
# their negatives
GRID_SPEEDS = {Fraction(1, 2): 0.9898579931077437, Fraction(1): 0.9936875636410787,
               Fraction(2): 0.9974738524027031}


def _quadrature_wave(spec):
    """travelling_wave on the quadrature plan at spec.n: (V, (speed,
    uncertainty, corrector amplitude)), or None."""
    q, n = spec.torus_period, spec.n
    plan = plan_for("periodic", n, 0.5 * q, spec.s, spec.g_const)
    px = float(spec.slope) * ((q / n) * np.arange(n))
    return travelling_wave(plan, spec.potential, px, spec.slope, spec.drive)


@pytest.fixture(scope="module")
def grid_rows():
    base = CellProblemSpec(s=0.5, slope=Fraction(0), drive=0.0, potential=W_STD,
                           n=512, horizon=200.0)
    rows = hbar_table(base, slopes=GRID_SLOPES, drives=[-1.0, 0.0, 1.0])
    return {(Fraction(r["slope_num"], r["slope_den"]), r["drive"]): r for r in rows}


def test_drive_zero_rows_certify_exact_zero(grid_rows):
    for p in GRID_SLOPES:
        row = grid_rows[(p, 0.0)]
        assert row["speed"] == 0.0
        assert row["uncertainty"] == 0.0
        assert row["horizon"] < 200.0


def test_travelling_wave_rows_are_solved_without_stepping(grid_rows):
    for p in GRID_SLOPES:
        for F in (-1.0, 1.0):
            spec = CellProblemSpec(s=0.5, slope=p, drive=F, potential=W_STD, n=512)
            _, (speed, unc, amp) = _quadrature_wave(spec)
            assert speed == pytest.approx(F * GRID_SPEEDS[p], abs=1e-12)
            assert unc <= 1e-12
            assert amp == 0.0
            row = grid_rows[(p, F)]
            assert row["uncertainty"] <= 1e-12
            assert row["corrector_amplitude"] == 0.0
            assert row["horizon"] == 0.0
            assert row["converged"]


def test_direct_speeds_are_the_dt_limit_of_stepping():
    """The stepping route's speed on cell-grid's F = +1 rows carries a
    first-order Euler bias (ratio 2 between the differences of dt, dt/2 and
    dt/4 at the CFL step dt).  Its Richardson value R(dt, dt/2) = 2
    lambda(dt/2) - lambda(dt) has an O(dt^2) error, stated from the third
    level as 2 |R(dt, dt/2) - R(dt/2, dt/4)| (the asymptotic estimate is
    4/3 of that difference); the direct speed lies within it, and the
    second extrapolation (4 R(dt/2, dt/4) - R(dt, dt/2)) / 3 meets it to
    5% of that difference."""
    specs = []
    for p, horizon in zip(GRID_SLOPES, (25.0, 12.5, 6.25)):
        dt = 0.9 / (plan_for("periodic", 512, 0.5 * p.denominator, 0.5).stiffness
                    + W_STD.derivative_bound(2))
        specs += [CellProblemSpec(s=0.5, slope=p, drive=1.0, potential=W_STD, n=512,
                                  horizon=horizon, dt=dt / k) for k in (1, 2, 4)]
    with ProcessPoolExecutor(max_workers=2) as ex:
        stepped = np.array([fit.speed for fit in ex.map(hbar, specs)]).reshape(3, 3)
    for p, (coarse, mid, fine) in zip(GRID_SLOPES, stepped):
        direct = GRID_SPEEDS[p]
        assert (coarse - mid) / (mid - fine) == pytest.approx(2.0, rel=0.01)
        r1, r2 = 2.0 * mid - coarse, 2.0 * fine - mid
        assert abs(r1 - direct) <= 2.0 * abs(r1 - r2)
        assert abs((4.0 * r2 - r1) / 3.0 - direct) <= 0.05 * abs(r1 - r2)
        assert abs(r1 - direct) <= 1.2e-7


def _u_prime(p, V):
    """U' = p + D V on the grid of V, D the spectral derivative."""
    n, q = V.size, p.denominator
    d_hat = 2j * math.pi / q * np.arange(n // 2 + 1)
    d_hat[-1] = 0.0
    return float(p) + np.fft.irfft(np.fft.rfft(V) * d_hat, n=n)


OROWAN_ROWS = [(Fraction(1, 5), 0.2), (Fraction(1, 10), 0.1), (Fraction(1, 20), 0.05)]


@pytest.mark.parametrize("p, F", [(p, F) for p in GRID_SLOPES for F in (-1.0, 1.0)]
                         + OROWAN_ROWS)
def test_travelling_wave_identity(p, F):
    """c sum h (U')^2 = F p q on cell-grid's six moving rows and on
    criterion 05's three Orowan rows (s = 1/2, drive = delta), for the wave
    on the quadrature plan at n = 512 and for the direct route, which
    solves on the spectral plan's grid (the size of v_final)."""
    spec = CellProblemSpec(s=0.5, slope=p, drive=F, potential=W_STD, n=512, horizon=200.0)
    trace = solve_cell_evolution(spec)
    assert trace.horizon == 0.0
    q = p.denominator
    for V, (speed, _, _) in (_quadrature_wave(spec), (trace.v_final, trace.certified)):
        c = speed / float(p)
        lhs = c * (q / V.size) * float(np.sum(_u_prime(p, V) ** 2))
        assert lhs == pytest.approx(F * float(p) * q, rel=1e-12, abs=0.0)


# criterion 05's rows and cell-grid's F = +1 rows: (slope, drive) at s = 1/2
DIRECT_ROWS = OROWAN_ROWS + [(p, 1.0) for p in GRID_SLOPES]


@pytest.mark.parametrize("p, F", DIRECT_ROWS)
def test_direct_speeds_are_grid_converged(p, F):
    """The direct speed is reported on the finer grid 2m of a pair whose
    speeds agree; on 4m it is unchanged to 1e-12 relative."""
    spec = CellProblemSpec(s=0.5, slope=p, drive=F, potential=W_STD)
    trace = solve_cell_evolution(spec)
    speed, unc, _ = trace.certified
    m, q = trace.v_final.size, p.denominator
    assert m >= 2 * max(16, 8 * q)
    plan = plan_for("spectral", 2 * m, 0.5 * q, 0.5)
    px = float(p) * ((q / (2 * m)) * np.arange(2 * m))
    _, (finer, _, _) = travelling_wave(plan, W_STD, px, p, F)
    assert finer == pytest.approx(speed, rel=1e-12, abs=0.0)
    assert unc <= 1e-12 * max(1.0, abs(speed))


@pytest.mark.parametrize("p, F", DIRECT_ROWS)
def test_direct_speeds_are_the_quadrature_richardson_limit(p, F):
    """The quadrature wave converges as O(h^2); with R(n) = (4 lambda(2n) -
    lambda(n)) / 3, the direct speed lies within |R(256) - R(512)| of
    R(512)."""
    lam = [_quadrature_wave(CellProblemSpec(s=0.5, slope=p, drive=F, potential=W_STD,
                                            n=n))[1][0] for n in (256, 512, 1024)]
    r1, r2 = (4.0 * lam[1] - lam[0]) / 3.0, (4.0 * lam[2] - lam[1]) / 3.0
    direct = hbar(CellProblemSpec(s=0.5, slope=p, drive=F, potential=W_STD)).speed
    assert abs(direct - r2) <= abs(r1 - r2)


def test_direct_speeds_are_exactly_odd_in_drive():
    """Exactly odd for the wave on the quadrature plan at n and for the
    direct route on its spectral grid."""
    for p, F, n in ((Fraction(1, 2), 0.01, 32), (Fraction(1, 2), 0.9, 128),
                    (Fraction(-3, 2), 0.3, 64), (Fraction(1, 20), 0.05, 512)):
        specs = [CellProblemSpec(s=0.5, slope=p, drive=d, potential=W_STD, n=n)
                 for d in (F, -F)]
        up, down = (solve_cell_evolution(spec) for spec in specs)
        assert up.horizon == down.horizon == 0.0
        waves = [(up.v_final, up.certified), (down.v_final, down.certified)]
        for (v_up, c_up), (v_down, c_down) in (waves, [_quadrature_wave(sp) for sp in specs]):
            assert c_down[0] == -c_up[0]
            assert c_down[1] == c_up[1]
            # v(x) -> -v(-x)
            assert np.array_equal(v_down, -np.roll(v_up[::-1], 1))


def test_unconverged_wave_falls_back_to_stepping(monkeypatch):
    """A Newton solve that does not converge within the iteration cap, or
    a spectral grid pair (16, 32 here) that does not fit under WAVE_MAX_N,
    certifies nothing: the row is stepped on the quadrature plan at n."""
    spec = CellProblemSpec(s=0.5, slope=Fraction(1, 2), drive=0.6, potential=W_STD,
                           n=64, horizon=40.0)
    assert solve_cell_evolution(spec).horizon == 0.0
    assert _quadrature_wave(spec) is not None
    for name, value in (("WAVE_MAX_ITER", 2), ("WAVE_MAX_N", 16)):
        with monkeypatch.context() as m:
            m.setattr(fracpn.cell, name, value)
            trace = solve_cell_evolution(spec)
            if name == "WAVE_MAX_ITER":
                assert _quadrature_wave(spec) is None
        assert trace.certified is None
        assert trace.v_final.size == spec.n
        assert 0.0 < trace.horizon <= spec.horizon
        assert trace.times.size > 1
        fit = estimate_lambda(trace)
        assert fit.converged
        assert fit.speed == pytest.approx(hbar(spec).speed, abs=1e-3)  # the Euler bias


@pytest.mark.parametrize("q", [20, 40])
def test_divergent_wave_is_stepped_after_its_first_grid(monkeypatch, q):
    """At s = 3/4, slope 1/q and drive q^-1.5, undamped Newton from V = 0
    diverges: the row makes at most WAVE_MAX_ITER solves, all on its first
    spectral grid (8q points), and is then stepped."""
    sizes = []
    solve = np.linalg.solve

    def counting(a, b):
        sizes.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    spec = CellProblemSpec(s=0.75, slope=Fraction(1, q), drive=q ** -1.5, potential=W_STD,
                           n=64, horizon=1.0)
    trace = solve_cell_evolution(spec)
    assert 0 < len(sizes) <= fracpn.cell.WAVE_MAX_ITER
    assert set(sizes) == {(8 * q + 1, 8 * q + 1)}
    assert trace.certified is None
    assert trace.horizon == spec.horizon


def test_forcing_free_sloped_rows_take_no_time_step(monkeypatch):
    """Forcing-free rows from rest, sloped or at slope 0, take the direct
    route: no Euler step, whatever the drive."""
    def no_steps(*args, **kwargs):
        raise AssertionError("euler_steps called")

    monkeypatch.setattr(fracpn.cell, "euler_steps", no_steps)
    base = CellProblemSpec(s=0.5, slope=Fraction(0), drive=0.0, potential=W_STD,
                           n=64, horizon=20.0)
    rows = hbar_table(base, slopes=[Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1),
                                    Fraction(2)],
                      drives=[-1.0, -0.1, -0.01, 0.0, 0.01, 0.1, 1.0])
    assert len(rows) == 35
    assert all(r["horizon"] == 0.0 and r["converged"] for r in rows)
    for r in rows:
        # slope-0 rows are pinned up to sup|W'|; sloped rows only at drive 0
        if abs(r["drive"]) <= (SUP_WP if r["slope_num"] == 0 else 0.0):
            assert r["speed"] == 0.0
        else:
            assert r["speed"] * r["drive"] > 0.0


def test_weak_table_rows_are_newton_stationary_states():
    """hbar-slope-s075's drive-0 rows (s = 3/4, n = 256): speed (0.0, 0.0),
    and the state solves I[V] = W'(p x + V) to 1e-12 with mean 0.  At
    p = 1/2 it is the state the stepped flow settles to."""
    for p in (-1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0, 2.5):
        p = Fraction(p)
        q = p.denominator
        spec = CellProblemSpec(s=0.75, slope=p, drive=0.0, potential=W_STD, n=256,
                               horizon=150.0)
        trace = solve_cell_evolution(spec)
        assert trace.certified == (0.0, 0.0, 0.0)
        assert trace.horizon == 0.0
        V, certified = _quadrature_wave(spec)
        assert certified == (0.0, 0.0, 0.0)
        plan = plan_for("periodic", 256, 0.5 * q, 0.75)
        px = float(p) * q * np.arange(256) / 256
        assert np.max(np.abs(plan.apply(V) - eval_potential(W_STD, px + V, 1))) <= 1e-12
        assert abs(V.mean()) <= 1e-15
        m = trace.v_final.size
        spectral = plan_for("spectral", m, 0.5 * q, 0.75)
        px = float(p) * q * np.arange(m) / m
        assert np.max(np.abs(spectral.apply(trace.v_final)
                             - eval_potential(W_STD, px + trace.v_final, 1))) <= 1e-12
        if p == Fraction(1, 2):
            dt = 0.9 / (plan.stiffness + W_STD.derivative_bound(2))
            stepped = solve_cell_evolution(replace(spec, dt=dt, horizon=4.6875))
            assert np.max(np.abs(stepped.v_final - V)) <= 1e-12


def test_slope_zero_below_depinning_is_exactly_pinned():
    """Below depinning the speed is exactly 0, and the direct state is the
    uniform rest point c*, the first root of W'(c) = |F| in the direction
    of F, where the Euler flow from rest at the CFL step settles."""
    for F in (0.1, -0.1):
        assert abs(F) < SUP_WP
        spec = CellProblemSpec(s=0.4, slope=Fraction(0), drive=F, potential=W_STD,
                               n=32, horizon=100.0)
        trace = solve_cell_evolution(spec)
        fit = estimate_lambda(trace)
        assert trace.certified == (0.0, 0.0, 0.0)
        assert fit.speed == 0.0
        assert fit.uncertainty == 0.0
        assert fit.horizon < spec.horizon
        c = trace.v_final[0]
        assert np.all(trace.v_final == c)
        assert c * F > 0.0 and abs(c) < 0.25  # before the peak of W' at 1/4
        assert float(eval_potential(W_STD, c, 1)) == pytest.approx(F, abs=1e-15)
        stepped = solve_cell_evolution(replace(spec, dt=trace.dt))
        assert stepped.certified is None and stepped.horizon == spec.horizon
        assert np.max(np.abs(stepped.v_final - c)) <= 1e-9


def _scalar_map_trace(drives, dt, horizon):
    """Means of uniform slope-0 states, c <- c + dt (F - W'(c)) from c = 0,
    one column per drive: the cell flow of a uniform state, without the
    operator (it vanishes on constants)."""
    nsteps = int(math.ceil(horizon / dt))
    F = np.asarray(drives, dtype=float)
    c = np.zeros((nsteps + 1, F.size))
    for k in range(nsteps):
        c[k + 1] = c[k] + dt * (F - eval_potential(W_STD, c[k], 1))
    return dt * np.arange(nsteps + 1), c


def _whole_period_speed(times, c):
    """Speed of an increasing uniform-state trace over its whole periods:
    P / (time between crossing 1/4 and 1/4 + P), each crossing by inverse
    cubic interpolation through the four samples around it (W'' = 0 at 1/4)."""
    P = math.floor(c[-3] - 0.25)

    def crossing(y):
        i = int(np.searchsorted(c, y))
        return np.polyfit(c[i - 2:i + 2] - y, times[i - 2:i + 2], 3)[-1]

    return P / (crossing(0.25 + P) - crossing(0.25))


def test_richardson_of_the_uniform_euler_map_reaches_the_closed_form():
    """Stepping stays the second route to the slope-0 speed.  At the strong
    table's CFL step the uniform-state Euler map is off by up to 8.4e-5
    (F = 2), and the error is second order in dt: the first-order term of
    the modified equation integrates to zero over a period.  Richardson
    over (dt, dt/2) with weights (-1/3, 4/3) meets the closed form."""
    drives = (0.2, 0.6, 1.0, 2.0)
    exact = np.sqrt(np.square(drives) - SUP_WP**2)
    dt = 0.9 / (plan_for("periodic", 256, 0.5, 0.3).stiffness + W_STD.derivative_bound(2))
    coarse, fine = (
        np.array([_whole_period_speed(times, c[:, i]) for i in range(len(drives))])
        for times, c in (_scalar_map_trace(drives, h, 40.0) for h in (dt, dt / 2)))
    assert np.max(np.abs(coarse - exact)) > 5e-5
    np.testing.assert_allclose((coarse - exact) / (fine - exact), 4.0, rtol=0.01)
    np.testing.assert_allclose((4.0 * fine - coarse) / 3.0, exact, rtol=0.0, atol=1e-6)


def test_uniform_orbit_amplitude_is_the_richardson_limit():
    """The direct slope-0 corrector amplitude, 1/2 |lambda| (max P - min P),
    is the half-range of mean(v) - lambda t on the orbit.  On the Euler
    map at the strong table's CFL step that half-range is off by up to
    0.7% (F = 2), second order in dt; Richardson over (dt, dt/2) meets the
    direct value."""
    drives = (0.2, 0.6, 1.0, 2.0)
    direct = np.array([hbar(CellProblemSpec(s=0.3, slope=Fraction(0), drive=F,
                                            potential=W_STD, n=256)).corrector_amplitude
                       for F in drives])
    dt = 0.9 / (plan_for("periodic", 256, 0.5, 0.3).stiffness + W_STD.derivative_bound(2))

    def half_range(times, c):
        r = c - _whole_period_speed(times, c) * times
        return 0.5 * (r.max() - r.min())

    coarse, fine = (
        np.array([half_range(times, c[:, i]) for i in range(len(drives))])
        for times, c in (_scalar_map_trace(drives, h, 40.0) for h in (dt, dt / 2)))
    assert np.max(np.abs(coarse - direct) / direct) > 5e-3
    np.testing.assert_allclose((coarse - direct) / (fine - direct), 4.0, rtol=0.01)
    np.testing.assert_allclose((4.0 * fine - coarse) / 3.0, direct, rtol=2e-5)


def test_two_harmonic_well_matches_quadrature():
    from scipy.integrate import quad

    W2 = PeriodicPotential((0.02, 0.005))
    K = W2.sup_derivative(1)
    for F in (1.1 * K, 2.0 * K, -3.0 * K, 10.0 * K):
        integral, _ = quad(lambda u: 1.0 / abs(F - float(eval_potential(W2, u, 1))), 0.0, 1.0,
                           epsabs=0.0, epsrel=1e-13, limit=200)
        fit = hbar(CellProblemSpec(s=0.5, slope=Fraction(0), drive=F, potential=W2,
                                   n=16, horizon=40.0))
        assert fit.speed == pytest.approx(math.copysign(1.0 / integral, F), rel=1e-12)
        assert fit.uncertainty <= 1e-12


def test_near_depinning_speed_is_never_certified_unconverged():
    """Within ~1e-5 of sup|W'| the trapezoid values stop agreeing to 1e-14
    before 2^20 nodes; such a row is stepped and fitted, and every value
    that is certified matches the closed form."""
    K = W_STD.sup_derivative(1)
    for k in range(1, 9):
        F = K * (1.0 + 10.0**-k)
        known = known_speed(W_STD, F, K)
        if known is not None:
            assert known[0] == pytest.approx(math.sqrt((F - K) * (F + K)), rel=1e-12)
    F = K * (1.0 + 1e-6)
    assert known_speed(W_STD, F, K) is None
    spec = CellProblemSpec(s=0.5, slope=Fraction(0), drive=F, potential=W_STD,
                           n=16, horizon=10.0)
    trace = solve_cell_evolution(spec)
    assert trace.certified is None
    assert trace.horizon == spec.horizon


def test_uncovered_row_runs_to_the_cap():
    """p != 0 with a small F != 0.  From rest at the CFL step, the direct
    route solves the slowly creeping travelling wave.  Stepped with an
    explicit dt (the same CFL step), the row runs to the cap and is fitted;
    the fit is off the quadrature wave's speed at n = 32, its dt -> 0
    limit, by its Euler bias, 2.3e-8."""
    spec = CellProblemSpec(s=0.5, slope=Fraction(1, 2), drive=0.01, potential=W_STD,
                           n=32, horizon=20.0)
    direct = hbar(spec)
    assert direct.uncertainty <= 1e-12
    assert direct.horizon == 0.0
    _, (speed, _, _) = _quadrature_wave(spec)
    assert speed == pytest.approx(0.0095274713, abs=1e-10)
    dt = 0.9 / (plan_for("periodic", 32, 1.0, 0.5).stiffness + W_STD.derivative_bound(2))
    trace = solve_cell_evolution(replace(spec, dt=dt))
    fit = estimate_lambda(trace)
    assert trace.certified is None
    assert trace.times[-1] >= spec.horizon
    assert fit.horizon == spec.horizon
    assert fit.speed == 0.009527448291138715
    assert fit.uncertainty == 6.938893903907228e-18
    assert abs(fit.speed - speed) == pytest.approx(2.3e-8, rel=0.05)


# criterion 08's strong table: s = 0.3, slope 0, 21 drives, n = 256, horizon 150
STRONG_DRIVES = [round(-2.0 + 0.2 * k, 10) for k in range(21)]


@pytest.fixture(scope="module")
def strong_rows():
    base = CellProblemSpec(s=0.3, slope=Fraction(0), drive=0.0, potential=W_STD,
                           n=256, horizon=150.0)
    return hbar_table(base, slopes=[Fraction(0)], drives=STRONG_DRIVES)


def test_strong_table_step_budget(strong_rows):
    """Every row of the strong table is certified early: the steps it takes,
    sum of ceil(horizon / dt) over the rows' covered times, stay under 10,000
    (94,414 when the 20 moving rows ran to the cap)."""
    rows = strong_rows
    dt = 0.9 / (plan_for("periodic", 256, 0.5, 0.3).stiffness + W_STD.derivative_bound(2))
    assert sum(math.ceil(r["horizon"] / dt) for r in rows) <= 10_000
    assert all(r["converged"] for r in rows)
    assert max(r["uncertainty"] for r in rows) <= 1e-4
    zero = next(r for r in rows if r["drive"] == 0.0)
    assert (zero["speed"], zero["uncertainty"], zero["horizon"]) == (0.0, 0.0, 0.0)


def test_strong_table_rows_are_the_closed_form(strong_rows):
    """Slope 0 without forcing: sign(F) sqrt(F^2 - sup|W'|^2) above
    depinning and exactly 0.0 below it, exactly odd in F, at roundoff
    uncertainty, whatever the time step."""
    speed = {r["drive"]: r["speed"] for r in strong_rows}
    for r in strong_rows:
        F = r["drive"]
        if abs(F) > SUP_WP:
            exact = math.copysign(math.sqrt(F * F - SUP_WP**2), F)
            assert r["speed"] == pytest.approx(exact, rel=1e-13, abs=0.0)
        else:
            assert r["speed"] == 0.0
        assert r["uncertainty"] <= 1e-12
        assert r["converged"]
        assert speed[-F] == -r["speed"]


def test_hbar_table_evolves_each_row_once(monkeypatch):
    """Every row, certified or fitted, goes through one solve_cell_evolution
    call; the benchmark's traced cell.evolve.calls count depends on it."""
    calls = []
    real = fracpn.cell.solve_cell_evolution

    def counting(spec, *args, **kwargs):
        calls.append(spec)
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(fracpn.cell, "solve_cell_evolution", counting)
    base = CellProblemSpec(s=0.5, slope=Fraction(0), drive=0.0, potential=W_STD,
                           n=32, horizon=20.0)
    rows = hbar_table(base, slopes=[Fraction(0), Fraction(1, 2)], drives=[-0.6, 0.0, 0.01, 0.6])
    assert len(rows) == len(calls) == 8
    assert sorted((c.slope, c.drive) for c in calls) == sorted(
        (Fraction(r["slope_num"], r["slope_den"]), r["drive"]) for r in rows)


def test_forcing_excludes_the_exact_zero_certificate():
    spec = CellProblemSpec(s=0.5, slope=Fraction(1, 2), drive=0.0, potential=W_STD,
                           forcing=Forcing((ForcingTerm(0.05, 1, 1),)), n=64, horizon=20.0)
    trace = solve_cell_evolution(spec)
    assert trace.certified is None
    assert trace.horizon == spec.horizon
    assert trace.times[-1] >= spec.horizon


@pytest.mark.parametrize("forcing", [
    Forcing.zero(),
    Forcing((ForcingTerm(0.0, 1, 1),)),
    Forcing((ForcingTerm(1.0, 0, 1, "sin"),)),
], ids=["no-terms", "zero-amp", "sin-mode-0"])
def test_forcing_with_no_live_term_is_no_forcing(forcing):
    """A forcing that vanishes identically is absent: its rows take the
    direct route and give exactly the forcing-free fit (stepping them would
    add an Euler bias, 3e-4 at p = 1/2, F = 1, n = 128)."""
    base = CellProblemSpec(s=0.5, slope=Fraction(0), drive=0.0, potential=W_STD,
                           n=128, horizon=20.0)
    for p, F in ((Fraction(1, 2), 1.0), (Fraction(0), 0.1), (Fraction(0), 1.0)):
        spec = replace(base, slope=p, drive=F)
        fit = hbar(replace(spec, forcing=forcing))
        assert fit == hbar(spec)
        assert fit.horizon == 0.0


def test_spec_validation():
    with pytest.raises(ValueError):
        CellProblemSpec(s=1.2, slope=Fraction(0), drive=0.0, potential=None)
    with pytest.raises(ValueError):
        CellProblemSpec(s=0.5, slope=Fraction(0), drive=0.0, potential=None, n=8)
    with pytest.raises(ValueError):
        CellProblemSpec(s=0.5, slope=Fraction(0), drive=0.0, potential=None,
                        horizon=-1.0)


def test_cell_flow_preserves_ordering():
    """Discrete comparison principle (see the module docstring): under the
    CFL step, ordered initial states stay ordered.  The operator is the
    anisotropic one along e = (1, 2), i.e. the 1-D operator with g = g_e."""
    s, n, q = 0.5, 64, 2
    kern = AnisotropyKernel(dimension=2, constant=0.4, cos_coeffs=(0.15,), sin_coeffs=(-0.1,))
    g = kern.directional_constant(s, (1.0, 2.0))
    dt = 0.9 / (plan_for("periodic", n, 0.5 * q, s, g).stiffness + W_STD.derivative_bound(2))
    # 100 steps of the CFL step, from given initial states: both runs are stepped
    spec = CellProblemSpec(s=s, slope=Fraction(1, 2), drive=0.05, potential=W_STD, n=n,
                           horizon=100 * dt, g_const=g)
    x = q * np.arange(n) / n
    u0 = 0.3 * np.sin(np.pi * x) + 0.1 * np.cos(3 * np.pi * x)
    v0 = u0 + 0.02 * (1.0 + np.cos(np.pi * x))  # touches u0 at x = 1
    tu = solve_cell_evolution(spec, initial=u0)
    tv = solve_cell_evolution(spec, initial=v0)
    assert tu.dt == tv.dt == dt
    assert tu.times.size == tv.times.size >= 100
    assert tu.horizon == tv.horizon == spec.horizon
    assert np.all(tv.means >= tu.means)
    assert np.all(tv.v_final >= tu.v_final - 1e-12)
