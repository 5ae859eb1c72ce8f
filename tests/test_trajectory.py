import cmath
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from semiclassics import trajectory
from semiclassics.cli import compute_table1, main as cli_main
from semiclassics.cubic import _periods, _pole_time
from semiclassics import (
    CubicModel,
    EnergyDriftExceeded,
    HarmonicModel,
    IntegratorConfig,
    NoCrossing,
    corrected_quasi_bound_energy,
    crossing_time,
    hamiltonian,
    initial_momentum,
    integrate,
    reversibility_error,
    turning_points,
)


def quadrature_period(g, energy):
    """Independent period oracle for real bound motion between x1 and x2:
    T = 2 int dx / sqrt(2 (E - V)), with the sqrt endpoint singularities
    removed by x = mid + half*sin(u)."""
    tps = turning_points(CubicModel(g), complex(energy))
    x1, x2, x3 = (t.real for t in tps)
    mid = 0.5 * (x1 + x2)
    half = 0.5 * (x2 - x1)

    def integrand(u):
        x = mid + half * math.sin(u)
        return 1.0 / math.sqrt(2.0 * g * (x3 - x))

    value, err = quad(integrand, -math.pi / 2.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-10
    return 2.0 * value


def trapezoid_period(g, a, b, c, nodes=4096):
    """Period oracle for the loop around the cut a-b, c the third root:
    2 pi / sqrt(2 g) times the mean of 1 / sqrt(c - x) over x = m + d cos
    theta on a fixed trapezoid grid (geometric convergence for a periodic
    analytic integrand), with the square root's cut kept off the segment.
    The sign is arbitrary."""
    m = 0.5 * (a + b)
    d = 0.5 * (b - a)
    x = m + d * np.cos(2.0 * np.pi * np.arange(nodes) / nodes)
    root = np.sqrt(c - x) if c.real > m.real else 1j * np.sqrt(x - c)
    return complex(2.0 * np.pi * np.mean(1.0 / root) / math.sqrt(2.0 * g))


def quadrature_pole_time(tps, periods, x0, p0, nodes=32):
    """Pole-time oracle, exact modulo the lattice: a start at rest at a
    turning point reaches a pole after a half period, T'/2 from x1,
    (T + T')/2 from x2 and T/2 from x3; any other start first reaches its
    nearest turning point xr at the time int dx/p from x0 to xr, taken by
    Gauss-Legendre quadrature after x = xr + (x0 - xr) v**2 removes the
    square-root singularity at xr."""
    T, T_prime = periods
    roots = tuple(tps)
    r = min(range(3), key=lambda i: abs(x0 - roots[i]))
    half = (0.5 * T_prime, 0.5 * (T + T_prime), 0.5 * T)[r]
    if p0 == 0:
        return half
    xr = roots[r]
    xa, xb = (roots[i] for i in range(3) if i != r)
    v, w = np.polynomial.legendre.leggauss(nodes)
    v = 0.5 * (v + 1.0)
    x = xr + (x0 - xr) * v * v
    # p = v q(v) with q continuous along the path and q(1) = p0
    q = p0 * np.sqrt((x - xa) / (x0 - xa)) * np.sqrt((x - xb) / (x0 - xb))
    return half - complex((x0 - xr) * np.sum(w / q))


def lattice_coordinates(z, periods):
    """Real (a, b) with z = a T + b T'."""
    T, T_prime = periods
    span = (T_prime * T.conjugate()).imag
    return (T_prime * z.conjugate()).imag / span, (z * T.conjugate()).imag / span


def march_crossing_time(model, energy, x0, p0, t_max=2e5):
    """The crossing time found by marching through real time, step by step,
    with the package's stepper and in-step root search: the reference for
    the lattice reduction, or None if Re x3 is not reached by t_max."""
    target = turning_points(model, energy).x3.real
    cfg = IntegratorConfig()
    for t, h, xs in trajectory._steps(model, energy, x0, p0, t_max, cfg):
        tau = trajectory._first_reach(xs, h, target)
        if tau is not None:
            return t + tau
    return None


def per_sample_dense_output(model, energy, x0, p0, cfg):
    """x and p of every sample by the per-sample loop: sample i on the
    first step with times[i] - t <= h, evaluated there by _at."""
    grid = trajectory._sample_times(cfg.t_max, cfg.sample_interval).tolist()
    x = np.empty(len(grid), dtype=complex)
    p = np.empty_like(x)
    x[0], p[0] = x0, p0
    i = 1
    for t, h, xs in trajectory._steps(model, energy, x0, p0, cfg.t_max, cfg):
        while i < len(grid) and grid[i] - t <= h:
            x[i], p[i] = trajectory._at(xs, grid[i] - t)
            i += 1
    return x, p


def while_loop_steps(model, energy, x, p, t_end, cfg, direction=1.0):
    """The stepper as it was before its recurrence was tabulated: the
    Cauchy product walked by a ``while j < i`` loop, the exponents and the
    drift limit recomputed on every step.  The tabulated ``_steps`` must
    yield the same (t, h, xs) bit for bit."""
    eps = max(trajectory._EPS_PER_TOL * cfg.rel_tol, sys.float_info.epsilon)
    order = max(2, math.ceil(1.0 - 0.5 * math.log(eps)))
    scale_floor = trajectory._EPS_PER_TOL * cfg.abs_tol / eps
    g3 = 3.0 * model.g
    inv = [direction * direction / ((k + 1) * (k + 2)) for k in range(order - 1)]
    e2 = math.exp(2.0)
    t = 0.0
    while t < t_end:
        xs = [x, direction * p]
        for k in range(order - 1):
            s = 0j
            j, i = 0, k
            while j < i:
                s += xs[j] * xs[i]
                j += 1
                i -= 1
            s += s
            if j == i:
                s += xs[j] * xs[j]
            xs.append((g3 * s - xs[k]) * inv[k])

        scale = max(abs(x), abs(p), scale_floor)
        inv_rho = max(
            (abs(xs[-2]) / scale) ** (1.0 / (order - 1)), (abs(xs[-1]) / scale) ** (1.0 / order)
        )
        remaining = t_end - t
        h = remaining
        if e2 * inv_rho * h > 1.0:
            h = 1.0 / (e2 * inv_rho)
        if not t + h > t:
            raise AssertionError("step size underflow")

        x, p = trajectory._at(xs, h)
        p /= direction
        trajectory._check_drift(energy, abs(hamiltonian(model, x, p) - energy))
        yield t, h, xs
        t = t_end if h == remaining else t + h


def default_start(g):
    """Model, corrected quasi-bound energy and x1 of a table1 row."""
    model = CubicModel(g)
    energy = corrected_quasi_bound_energy(g).energy
    return model, energy, turning_points(model, energy).x1


def count_steps(monkeypatch):
    """Count the steps every later _steps generator yields."""
    counter = [0]
    steps = trajectory._steps

    def counting(*args, **kwargs):
        for step in steps(*args, **kwargs):
            counter[0] += 1
            yield step

    monkeypatch.setattr(trajectory, "_steps", counting)
    return counter


def peak_traced_bytes(fn, *args):
    """Peak memory that Python allocates while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dop853_reference(g, t_eval=None, crossing=False):
    """Independent solution of the same start (corrected energy, x0 = x1,
    p0 = 0) by scipy's DOP853 at rtol 1e-13, atol 1e-15: the samples at
    t_eval, or the first upward crossing of Re x3."""
    state = corrected_quasi_bound_energy(g)
    model = CubicModel(g)
    tps = turning_points(model, state.energy)

    def rhs(t, y):
        x = y[0] + 1j * y[1]
        f = model.force(x)
        return (y[2], y[3], f.real, f.imag)

    def reached_x3(t, y):
        return y[0] - tps.x3.real

    reached_x3.terminal = True
    reached_x3.direction = 1
    t_end = t_eval[-1] if t_eval is not None else 1e4
    sol = solve_ivp(
        rhs, (0.0, t_end), [tps.x1.real, tps.x1.imag, 0.0, 0.0], method="DOP853",
        rtol=1e-13, atol=1e-15, t_eval=t_eval, events=reached_x3 if crossing else None,
    )
    assert sol.success
    if crossing:
        return float(sol.t_events[0][0])
    return sol.y[0] + 1j * sol.y[1], sol.y[2] + 1j * sol.y[3]


class TestInitialMomentum:
    def test_branch_validation(self):
        with pytest.raises(ValueError):
            initial_momentum(CubicModel(0.1), 0.5, 0.0, branch=2)

    def test_vanishes_at_exact_turning_point(self):
        # Make the turning point exact by constructing E = V(x0).
        model = CubicModel(0.1)
        x0 = 0.3 + 0.2j
        energy = model.potential(x0)
        assert abs(initial_momentum(model, energy, x0)) <= 1e-13

    def test_origin_momentum_is_unity(self):
        model = CubicModel(0.1)
        assert initial_momentum(model, 0.5 + 0j, 0j, branch=1) == pytest.approx(1.0)
        assert initial_momentum(model, 0.5 + 0j, 0j, branch=-1) == pytest.approx(-1.0)

    def test_energy_shell_residual(self):
        rng = np.random.default_rng(5)
        model = CubicModel(0.13)
        for _ in range(20):
            x0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            energy = complex(rng.uniform(0.1, 1.0), rng.uniform(-0.2, 0.2))
            p0 = initial_momentum(model, energy, x0, branch=int(rng.choice([1, -1])))
            assert abs(hamiltonian(model, x0, p0) - energy) <= 1e-13


class TestIntegrate:
    def test_rejects_off_shell_start(self):
        with pytest.raises(ValueError, match="energy shell"):
            integrate(CubicModel(0.1), 0.5 + 0j, 0j, 2.0 + 0j)

    def test_harmonic_closed_form(self):
        cfg = IntegratorConfig(t_max=100.0)
        traj = integrate(HarmonicModel(), 0.5 + 0j, 1.0 + 0j, 0j, cfg)
        assert np.max(np.abs(traj.x - np.cos(traj.t))) <= 1e-8
        assert np.max(np.abs(traj.p + np.sin(traj.t))) <= 1e-8

    def test_bound_oscillation_period_matches_quadrature(self):
        g, energy = 0.1, 0.3
        period = quadrature_period(g, energy)
        model = CubicModel(g)
        x1 = turning_points(model, complex(energy)).x1
        cfg = IntegratorConfig(t_max=0.75 * period, sample_interval=1e-3)
        traj = integrate(model, complex(energy), x1, 0j, cfg)
        # p goes 0 -> + -> 0 at x2 (half period, crossing + to -); locate
        # the sign flip and refine with a local cubic fit.
        pr = traj.p.real
        flips = np.where((pr[:-1] > 0) & (pr[1:] <= 0))[0]
        i = flips[0]
        ts = traj.t[i - 2 : i + 3]
        coeffs = np.polyfit(ts - ts[2], pr[i - 2 : i + 3], 3)
        root = min(
            (r.real for r in np.roots(coeffs) if abs(r.imag) < 1e-9), key=abs
        )
        measured = 2.0 * (ts[2] + root)
        assert measured == pytest.approx(period, rel=1e-8)

    def test_zero_horizon_returns_initial_sample(self):
        cfg = IntegratorConfig(t_max=0.0)
        traj = integrate(HarmonicModel(), 0.5 + 0j, 1.0 + 0j, 0j, cfg)
        assert len(traj) == 1
        assert traj.t[0] == 0.0
        assert traj.x[0] == 1.0 + 0j
        assert traj.p[0] == 0j

    def test_sample_grid(self):
        cfg = IntegratorConfig(t_max=1.23, sample_interval=0.05)
        traj = integrate(HarmonicModel(), 0.5 + 0j, 1.0 + 0j, 0j, cfg)
        assert np.all(np.diff(traj.t) > 0)
        assert traj.t[0] == 0.0
        assert traj.t[-1] == 1.23
        assert traj.t[1] == pytest.approx(0.05, abs=1e-15)
        assert traj.max_energy_drift == traj.energy_drift.max()

    def test_sample_count_is_capped(self):
        # 2e13 samples at the default interval: refused before numpy is asked
        cfg = IntegratorConfig(t_max=1e12)
        with pytest.raises(ValueError, match="samples"):
            integrate(HarmonicModel(), 0.5 + 0j, 1.0 + 0j, 0j, cfg)

    def test_infinite_sample_count_is_capped(self):
        # t_max / interval overflows to inf at a subnormal interval
        cfg = IntegratorConfig(t_max=100.0, sample_interval=1e-320)
        with pytest.raises(ValueError, match="samples"):
            integrate(HarmonicModel(), 0.5 + 0j, 1.0 + 0j, 0j, cfg)

    def test_sample_limit_message_is_short(self):
        # 1e300 samples: the message names the limit, not the count
        cfg = IntegratorConfig(t_max=1.0, sample_interval=1e-300)
        with pytest.raises(ValueError, match="samples") as info:
            integrate(HarmonicModel(), 0.5 + 0j, 1.0 + 0j, 0j, cfg)
        assert len(str(info.value)) <= 120

    @pytest.mark.parametrize(
        "t_max, interval",
        [
            (200.0, 0.05),  # 4,001 samples: four blocks of 1,024
            (123.456, 0.07),  # t_max off the grid: an extra final sample
            (400.0, 7.3),  # most steps hold no sample
            (3.0, 1e-4),  # one step holds thousands, across blocks
        ],
    )
    def test_dense_output_matches_per_sample_loop(self, t_max, interval):
        model, energy, x1 = default_start(0.1433)
        cfg = IntegratorConfig(t_max=t_max, sample_interval=interval)
        traj = integrate(model, energy, x1, 0j, cfg)
        x, p = per_sample_dense_output(model, energy, x1, 0j, cfg)
        assert traj.x.tobytes() == x.tobytes()
        assert traj.p.tobytes() == p.tobytes()

    def test_extra_memory_is_flat_in_the_horizon(self):
        # Beyond its output arrays, integrate holds one block of samples:
        # ten times the horizon may not raise the rest of the peak.
        model = CubicModel(0.1)
        x1 = turning_points(model, 0.3 + 0j).x1

        def extra(t_max):
            cfg = IntegratorConfig(t_max=t_max)
            tracemalloc.start()
            try:
                traj = integrate(model, 0.3 + 0j, x1, 0j, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            arrays = (traj.t, traj.x, traj.p, traj.energy_drift)
            return peak - sum(a.nbytes for a in arrays)

        assert extra(600.0) <= extra(60.0) + 16 * 1024

    def test_deterministic_replay(self):
        g = 0.17888
        state = corrected_quasi_bound_energy(g)
        model = CubicModel(g)
        x1 = turning_points(model, state.energy).x1
        cfg = IntegratorConfig(t_max=20.0)
        a = integrate(model, state.energy, x1, 0j, cfg)
        b = integrate(model, state.energy, x1, 0j, cfg)
        assert a.t.tobytes() == b.t.tobytes()
        assert a.x.tobytes() == b.x.tobytes()
        assert a.p.tobytes() == b.p.tobytes()
        assert a.energy_drift.tobytes() == b.energy_drift.tobytes()

    def test_matches_dop853(self):
        g = 0.17888
        state = corrected_quasi_bound_energy(g)
        model = CubicModel(g)
        x1 = turning_points(model, state.energy).x1
        traj = integrate(model, state.energy, x1, 0j, IntegratorConfig(t_max=50.0))
        x, p = dop853_reference(g, t_eval=traj.t)
        assert np.max(np.abs(traj.x - x)) <= 1e-9
        assert np.max(np.abs(traj.p - p)) <= 1e-9

    def test_medium_horizon_drift_envelope(self):
        # 1e-8 * max(1, |E|) envelope at default tolerances
        g = 0.1
        model = CubicModel(g)
        x1 = turning_points(model, 0.3 + 0j).x1
        traj = integrate(model, 0.3 + 0j, x1, 0j, IntegratorConfig(t_max=500.0))
        assert traj.max_energy_drift <= 1e-8

    def test_blowup_trips_drift_guard(self):
        # Past the barrier the complex cubic flow reaches a finite-time
        # singularity; by t ~ 70 the drift is far beyond the 1e-6 limit.
        g = 2.0 / math.sqrt(125.0)
        state = corrected_quasi_bound_energy(g)
        model = CubicModel(g)
        x1 = turning_points(model, state.energy).x1
        with pytest.raises(EnergyDriftExceeded):
            integrate(model, state.energy, x1, 0j, IntegratorConfig(t_max=70.0))

    def test_trajectory_export_work_count(self, monkeypatch):
        # the benchmark's trajectory_export pass: four samplings near
        # g = 0.143 and their round trips took 3,469 Taylor steps and
        # 20,004 samples before the recurrence was tabulated; a speed-up
        # must not come from fewer, coarser steps
        steps = count_steps(monkeypatch)
        samples = 0
        for g, t_max in zip((0.1425, 0.1429, 0.1433, 0.1437), (100.0, 200.0, 300.0, 400.0)):
            model, energy, x1 = default_start(g)
            samples += len(integrate(model, energy, x1, 0j, IntegratorConfig(t_max=t_max)))
            reversibility_error(model, energy, x1, 0j, 50.0)
        assert samples == 20004
        assert steps[0] <= 3469


class TestStepper:
    # the tabulated recurrence against the while-loop one it replaced:
    # equal values (==) and equal reprs, which also pins the signs of zeros
    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-10, 1e-13, 1e-300])
    @pytest.mark.parametrize("direction", [1.0, -1j, cmath.exp(0.7j)])
    @pytest.mark.parametrize("harmonic", [False, True])
    def test_same_steps_as_the_while_loop(self, rel_tol, direction, harmonic):
        # the cubic orbit's walk along -i stops short of its pole
        if harmonic:
            model, energy, x0, p0 = HarmonicModel(), 0.5 + 0j, 1.0 + 0j, 0j
            t_end = 30.0 if direction == 1.0 else 4.0
        else:
            model, energy, x0 = default_start(0.143)
            p0 = 0j
            t_end = 30.0 if direction == 1.0 else 2.0
        cfg = IntegratorConfig(rel_tol=rel_tol)
        args = (model, energy, x0, p0, t_end, cfg, direction)
        new = [(t, h, list(xs)) for t, h, xs in trajectory._steps(*args)]
        old = [(t, h, list(xs)) for t, h, xs in while_loop_steps(*args)]
        assert len(new) > 2
        assert new == old
        assert repr(new) == repr(old)

    def test_real_orbit_keeps_its_zero_signs(self):
        # a real start at a real energy: every coefficient's imaginary part
        # is a zero, and its sign must match the reference's
        model = CubicModel(0.1)
        x1 = turning_points(model, 0.3 + 0j).x1
        args = (model, 0.3 + 0j, x1, 0j, 20.0, IntegratorConfig())
        new = [xs for _t, _h, xs in trajectory._steps(*args)]
        old = [xs for _t, _h, xs in while_loop_steps(*args)]
        assert all(c.imag == 0.0 for xs in new for c in xs)
        assert repr(new) == repr(old)

    def test_drift_message_is_unchanged(self):
        # the limit is tabulated, and _check_drift still words the failure
        g = 2.0 / math.sqrt(125.0)
        model, energy, x1 = default_start(g)
        args = (model, energy, x1, 0j, 70.0, IntegratorConfig())
        messages = []
        for steps in (trajectory._steps, while_loop_steps):
            with pytest.raises(EnergyDriftExceeded) as info:
                for _ in steps(*args):
                    pass
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("|H - E| reached")


class TestCrossingTime:
    def test_no_crossing_for_bound_real_energy(self):
        # Real E below the barrier: oscillation between x1 and x2 never
        # reaches x3.
        model = CubicModel(0.1)
        x1 = turning_points(model, 0.3 + 0j).x1
        with pytest.raises(NoCrossing):
            crossing_time(model, 0.3 + 0j, x1, 0j, IntegratorConfig(t_max=50.0))

    @pytest.mark.parametrize("g", [0.17888, 0.16099, 0.14311])
    def test_bracketing_consistency_with_samples(self, g):
        state = corrected_quasi_bound_energy(g)
        model = CubicModel(g)
        tps = turning_points(model, state.energy)
        t_c = crossing_time(model, state.energy, tps.x1, 0j)
        traj = integrate(
            model, state.energy, tps.x1, 0j, IntegratorConfig(t_max=t_c + 2.0)
        )
        i = np.searchsorted(traj.t, t_c)
        left = traj.x[i - 1].real - tps.x3.real
        right = traj.x[i].real - tps.x3.real
        assert left < 0 <= right
        # a crossing missed inside one long step would leave an earlier
        # sample at or right of Re x3
        assert np.all(traj.x.real[traj.t < t_c] < tps.x3.real)

    @pytest.mark.parametrize("g", [0.17888, 0.16099])
    def test_matches_dop853(self, g):
        state = corrected_quasi_bound_energy(g)
        model = CubicModel(g)
        x1 = turning_points(model, state.energy).x1
        t_c = crossing_time(model, state.energy, x1, 0j)
        assert t_c == pytest.approx(dop853_reference(g, crossing=True), rel=1e-6)

    def test_in_step_excursion_is_found(self):
        # Re x(tau) = 1.3 - 0.5 + 2 tau - tau**2 on a step of length 2: both
        # ends sit 0.5 left of the target, the maximum at tau = 1 sits 0.5
        # right of it.  The first root is tau = 1 - sqrt(1/2).
        xs = [0.8 + 0.1j, 2.0 - 0.3j, -1.0 + 0.2j]
        assert trajectory._first_reach(xs, 2.0, 1.3) == pytest.approx(
            1.0 - math.sqrt(0.5), rel=1e-12
        )
        # the same step stopped at tau = 0.25 stays left of the target
        assert trajectory._first_reach(xs, 0.25, 1.3) is None

    def test_start_beyond_x3_crosses_immediately(self):
        g = 0.1
        model = CubicModel(g)
        tps = turning_points(model, 0.3 + 0j)
        x0 = complex(tps.x3.real + 0.5)
        p0 = initial_momentum(model, 0.3 + 0j, x0)
        assert crossing_time(model, 0.3 + 0j, x0, p0) == 0.0

    def test_memory_is_flat_in_the_horizon(self):
        # The stepper holds only the current state: ten times the horizon
        # may not raise the peak traced allocation by more than a few kB.
        model = CubicModel(0.1)
        x1 = turning_points(model, 0.3 + 0j).x1

        def no_crossing(t_max):
            with pytest.raises(NoCrossing):
                crossing_time(model, 0.3 + 0j, x1, 0j, IntegratorConfig(t_max=t_max))

        def round_trip(duration):
            reversibility_error(model, 0.3 + 0j, x1, 0j, duration)

        for run, short, long in ((no_crossing, 300.0, 3000.0), (round_trip, 150.0, 1500.0)):
            assert peak_traced_bytes(run, long) <= peak_traced_bytes(run, short) + 16 * 1024

    def test_converged_under_tolerance_refinement(self):
        g = 0.17888
        state = corrected_quasi_bound_energy(g)
        model = CubicModel(g)
        x1 = turning_points(model, state.energy).x1
        coarse = crossing_time(model, state.energy, x1, 0j, IntegratorConfig())
        fine = crossing_time(
            model, state.energy, x1, 0j, IntegratorConfig(rel_tol=0.5e-10)
        )
        assert abs(fine - coarse) / coarse < 1e-3

    def test_barrier_return_after_crossing(self):
        # After crossing Re x3 the trajectory swings back left of Re x2
        # instead of escaping to the right.
        g = 2.0 / math.sqrt(125.0)
        state = corrected_quasi_bound_energy(g)
        model = CubicModel(g)
        tps = turning_points(model, state.energy)
        traj = integrate(model, state.energy, tps.x1, 0j, IntegratorConfig(t_max=58.0))
        crossed = np.where(traj.x.real >= tps.x3.real)[0]
        assert crossed.size > 0
        after = traj.x.real[crossed[0]:]
        assert after.min() < tps.x2.real


class TestLatticeReduction:
    @pytest.mark.parametrize("g", [0.17888, 0.16099, 0.14311, 0.12522])
    def test_matches_march(self, g):
        model, energy, x1 = default_start(g)
        t_c = crossing_time(model, energy, x1, 0j)
        assert t_c == pytest.approx(march_crossing_time(model, energy, x1, 0j), rel=1e-6)

    @pytest.mark.parametrize("g, first_row", [(0.16099, 30), (0.14311, 199)])
    def test_scan_finds_the_bisected_row(self, g, first_row):
        # every row below the bisected one fails the predicate and that
        # row holds it: the predicate is monotone where bisection looks
        model, energy, x1 = default_start(g)
        tps = turning_points(model, energy)
        T = _periods(model, tps)[0]
        assert math.floor(crossing_time(model, energy, x1, 0j) / T.real) == first_row
        cfg = IntegratorConfig()
        scanned = next(
            n for n in itertools.count()
            if trajectory._reach_on_row(model, energy, x1, 0j, T, n, tps.x3.real, cfg) is not None
        )
        assert scanned == first_row

    # 2.5, just left of Re x3, crosses within the first period
    @pytest.mark.parametrize("x0", [0.1, -0.5 + 0.2j, 1.0 - 0.3j, 2.5])
    def test_explicit_start_matches_march(self, x0):
        model, energy, _ = default_start(0.16099)
        p0 = initial_momentum(model, energy, x0)
        t_c = crossing_time(model, energy, complex(x0), p0)
        assert t_c == pytest.approx(march_crossing_time(model, energy, complex(x0), p0), rel=1e-6)

    def test_horizon_ends_on_the_crossing_row(self):
        # t_c just inside the horizon lies on the last row searched
        model, energy, x1 = default_start(0.16099)
        t_c = crossing_time(model, energy, x1, 0j)
        assert crossing_time(model, energy, x1, 0j, IntegratorConfig(t_max=t_c + 1e-3)) == t_c
        with pytest.raises(NoCrossing):
            crossing_time(model, energy, x1, 0j, IntegratorConfig(t_max=t_c - 1e-3))

    def test_real_energy_huge_horizon(self, monkeypatch, capsys):
        steps = count_steps(monkeypatch)
        code = cli_main(
            ["crossing-time", "--g", "0.1", "--energy", "re=0.3,im=0", "--t-max", "1e15"]
        )
        assert code == 1
        assert "never reached" in capsys.readouterr().err
        # the orbit is periodic: one period decides
        assert steps[0] <= 100

    @pytest.mark.parametrize("below_top", [1e-9, 1e-12])
    def test_real_energy_near_the_barrier_top(self, monkeypatch, below_top):
        # exactly real roots give an exactly real period however close the
        # energy is to the top, so one period decides (a period with a
        # rounding-level imaginary part took ~600 steps here); the start
        # is off the real axis, where the orbit is not confined to x1-x2
        model = CubicModel(0.1)
        energy = complex(1.0 / (54.0 * 0.01) - below_top)
        tps = turning_points(model, energy)
        assert _periods(model, tps)[0].imag == 0.0
        x0 = tps.x1 + 1e-3j
        steps = count_steps(monkeypatch)
        with pytest.raises(NoCrossing, match="never reached"):
            crossing_time(model, energy, x0, initial_momentum(model, energy, x0))
        assert steps[0] <= 40

    @pytest.mark.parametrize("below_top", [1e-13, 1e-14, 1e-15, 1.5])
    def test_real_start_below_the_top_never_crosses(self, monkeypatch, below_top):
        # x3 - x2 is below the stepper's position error near the saddle,
        # where a marched period once reported a crossing (t_c = 18.6 at
        # 1e-14 below the top); a real start at a real energy below the
        # top stays on the real axis between x1 and x2, so no step is taken
        model = CubicModel(0.1)
        energy = complex(1.0 / (54.0 * 0.01) - below_top)
        tps = turning_points(model, energy)
        middle = complex(0.5 * (tps.x1.real + tps.x2.real))
        starts = [(tps.x1, 0j)]
        starts += [(middle, initial_momentum(model, energy, middle, b)) for b in (1, -1)]
        steps = count_steps(monkeypatch)
        for x0, p0 in starts:
            assert p0.imag == 0.0
            with pytest.raises(NoCrossing, match="never reached"):
                crossing_time(model, energy, x0, p0)
        assert steps[0] == 0

    def test_near_real_energy_crosses_at_one_over_its_width(self):
        # Im T follows Im E down to any size, so an orbit whose energy is
        # only 1e-16 off the real axis still reaches the poles, a million
        # times later than at 1e-10 (a rounding-level Im T once marked
        # such a period real and the orbit as never crossing)
        model = CubicModel(0.1)
        cfg = IntegratorConfig(t_max=1e300)
        times = []
        for im in (-1e-10, -1e-16):
            energy = complex(0.3, im)
            times.append(crossing_time(model, energy, turning_points(model, energy).x1, 0j, cfg))
        assert times[1] / times[0] == pytest.approx(1e6, rel=1e-9)

    def test_real_start_above_the_top_crosses(self):
        # above the top the real orbit from x1 escapes over the barrier
        model = CubicModel(0.1)
        t_c = crossing_time(model, 2.5 + 0j, turning_points(model, 2.5 + 0j).x1, 0j)
        assert t_c == pytest.approx(3.4201096417433727, rel=1e-12)

    def test_table1_work_count(self, monkeypatch):
        # the table's four crossings: 1,082 Taylor steps and 33 row tries
        # before the pole line came from a closed form
        steps = count_steps(monkeypatch)
        rows = [0]
        reach = trajectory._reach_on_row

        def counting(*args):
            rows[0] += 1
            return reach(*args)

        monkeypatch.setattr(trajectory, "_reach_on_row", counting)
        compute_table1()
        assert steps[0] <= 1082
        assert rows[0] <= 33

    def test_no_crossing_before_the_default_horizon(self, monkeypatch):
        # the g = 0.1 row crosses near t = 3.1e6, far past t_max = 2e5
        model, energy, x1 = default_start(0.1)
        steps = count_steps(monkeypatch)
        with pytest.raises(NoCrossing, match="never reached"):
            crossing_time(model, energy, x1, 0j)
        assert steps[0] <= 1000
        assert crossing_time(model, energy, x1, 0j, IntegratorConfig(t_max=1e7)) > 2e6

    @pytest.mark.parametrize("g, energy", [(0.12522, None), (0.1, 0.3 + 0j), (0.2, 0.3 + 0.1j)])
    def test_periods_return_the_orbit(self, g, energy):
        # a start at rest at x1 comes back to it after T, and one at x2
        # after T', walked in complex time by the stepper (the walk from
        # x1 along T' would meet the pole at T'/2)
        model = CubicModel(g)
        energy = energy or corrected_quasi_bound_energy(g).energy
        tps = turning_points(model, energy)
        for x0, period in zip((tps.x1, tps.x2), _periods(model, tps)):
            x, p = trajectory._walk(model, energy, x0, 0j, period, IntegratorConfig())
            assert abs(x - x0) <= 1e-10
            assert abs(p) <= 1e-10

    def test_period_values(self):
        model, energy, _ = default_start(0.12522)
        tps = turning_points(model, energy)
        T = _periods(model, tps)[0]
        assert abs(T - (6.74418274576788 - 0.00117264782667j)) <= 1e-13
        # a real energy below the barrier: the oscillation period, exactly
        # real
        model = CubicModel(0.1)
        T = _periods(model, turning_points(model, 0.3 + 0j))[0]
        assert T.real == pytest.approx(quadrature_period(0.1, 0.3), rel=1e-12)
        assert T.imag == 0.0

    @pytest.mark.parametrize(
        "g, energy",
        [(0.17888, None), (0.16099, None), (0.14311, None), (0.12522, None),
         (0.1, 0.3 + 0j), (0.1, 2.5 + 0j), (0.2, 0.3 + 0.1j)],
    )
    def test_periods_match_the_trapezoid_rule(self, g, energy):
        model = CubicModel(g)
        energy = energy or corrected_quasi_bound_energy(g).energy
        tps = turning_points(model, energy)
        T, T_prime = _periods(model, tps)
        for period, cut in ((T, (tps.x1, tps.x2, tps.x3)), (T_prime, (tps.x2, tps.x3, tps.x1))):
            reference = trapezoid_period(g, *cut)
            assert min(abs(period - reference), abs(period + reference)) <= 1e-14 * abs(reference)
        assert T.real >= 0.0

    def test_nearly_coincident_turning_points(self):
        # 1e-12 below the barrier top x2 and x3 are 2.8e-6 apart, above the
        # coincidence threshold: the orbit is bound, so it never crosses
        model = CubicModel(0.1)
        energy = complex(1.0 / (54.0 * 0.01) - 1e-12)
        tps = turning_points(model, energy)
        T, T_prime = _periods(model, tps)
        assert all(cmath.isfinite(z) for z in (T, T_prime))
        with pytest.raises(NoCrossing, match="never reached"):
            crossing_time(model, energy, tps.x1, 0j)

    @pytest.mark.parametrize(
        "g, energy",
        [(0.17888, None), (0.16099, None), (0.14311, None), (0.12522, None),
         (0.1, 0.3 + 0j), (0.1, 2.5 + 0j), (0.2, 0.3 + 0.1j)],
    )
    def test_pole_time_matches_the_quadrature(self, g, energy):
        # rest at each turning point, and explicit starts on both branches;
        # at a real energy the real starts give negative real d_j with
        # +0.0 or -0.0 imaginary parts, on R_F's cut
        model = CubicModel(g)
        energy = energy or corrected_quasi_bound_energy(g).energy
        tps = turning_points(model, energy)
        periods = _periods(model, tps)
        starts = [(x, 0j) for x in tps]
        for x0 in (0.1, complex(0.1, -0.0), -1.0, 2.5, -0.5 + 0.2j, 1.0 - 0.3j, 3.0 + 1.0j,
                   0.5 * (tps.x1 + tps.x2)):
            starts += [(complex(x0), initial_momentum(model, energy, x0, b)) for b in (1, -1)]
        for x0, p0 in starts:
            miss = _pole_time(model, tps, x0, p0) - quadrature_pole_time(tps, periods, x0, p0)
            for c in lattice_coordinates(miss, periods):
                assert abs(c - round(c)) <= 1e-10

    @pytest.mark.parametrize("x0", [None, 0.1, -0.5 + 0.2j, 1.0 - 0.3j, 3.0 + 1.0j])
    @pytest.mark.parametrize("branch", [1, -1])
    def test_pole_time(self, x0, branch):
        # near a pole t_p, x ~ (2/g) / (t - t_p)**2
        model, energy, x1 = default_start(0.16099)
        x0 = x1 if x0 is None else complex(x0)
        p0 = initial_momentum(model, energy, x0, branch)
        tps = turning_points(model, energy)
        pole = _pole_time(model, tps, x0, p0)
        for distance in (1.0, 0.5):
            z = pole * (1.0 - distance / abs(pole))
            x, _p = trajectory._walk(model, energy, x0, p0, z, IntegratorConfig())
            assert abs(x) * distance**2 * model.g / 2.0 == pytest.approx(1.0, abs=0.1 * distance)


class TestReversibility:
    def test_harmonic_round_trip(self):
        err = reversibility_error(
            HarmonicModel(), 0.5 + 0j, 1.0 + 0j, 0j, 2.0 * math.pi
        )
        assert err <= 1e-10

    def test_cubic_round_trip(self):
        model = CubicModel(0.1)
        x1 = turning_points(model, 0.3 + 0j).x1
        err = reversibility_error(model, 0.3 + 0j, x1, 0j, 50.0)
        assert err <= 1e-6

    def test_error_grows_with_looser_tolerance(self):
        model = CubicModel(0.1)
        x1 = turning_points(model, 0.3 + 0j).x1
        loose = reversibility_error(
            model, 0.3 + 0j, x1, 0j, 50.0, IntegratorConfig(rel_tol=1e-6)
        )
        tight = reversibility_error(
            model, 0.3 + 0j, x1, 0j, 50.0, IntegratorConfig(rel_tol=1e-10)
        )
        assert loose > tight

    def test_duration_is_bounded_by_the_horizon(self, monkeypatch):
        calls = []
        monkeypatch.setattr(trajectory, "_steps", lambda *args: calls.append(args))
        model = CubicModel(0.1)
        x1 = turning_points(model, 0.3 + 0j).x1
        with pytest.raises(ValueError, match="t_max = 200000"):
            reversibility_error(model, 0.3 + 0j, x1, 0j, 1e300)
        with pytest.raises(ValueError, match="t_max = 10"):
            reversibility_error(model, 0.3 + 0j, x1, 0j, 10.5, IntegratorConfig(t_max=10.0))
        assert calls == []

    def test_zero_duration_is_exact(self):
        assert reversibility_error(HarmonicModel(), 0.5 + 0j, 1.0 + 0j, 0j, 0.0) == 0.0
