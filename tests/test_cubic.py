import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from semiclassics import (
    CoincidentRoots,
    CubicModel,
    DegenerateCubic,
    HarmonicModel,
    QuasiBoundState,
    corrected_quasi_bound_energy,
    ground_state_energy,
    quasi_bound_energy,
    turning_points,
    wkb_lifetime,
)
from semiclassics import cubic
from semiclassics.cubic import _carlson_rf, _periods

TABLE_G = (0.12522, 0.14311, 0.16099, 0.17888)


def companion_roots(g, energy):
    """Independent turning-point oracle: eigenvalues of the companion
    matrix of V(x) - E (np.roots), sorted the same way."""
    roots = np.roots([-g, 0.5, 0.0, -energy])
    return sorted((complex(r) for r in roots), key=lambda z: (z.real, z.imag))


def mpmath_roots(g, energy):
    """The roots of V(x) = E to 40 digits (``mp.polyroots``), sorted by real
    part: an oracle independent of the package's solver."""
    import mpmath as mp

    with mp.workdps(40):
        roots = mp.polyroots(
            [-mp.mpf(g), mp.mpf(0.5), 0, -mp.mpc(energy.real, energy.imag)],
            maxsteps=200, extraprec=200,
        )
    return sorted(roots, key=lambda z: (z.real, z.imag))


def mpmath_period(g, energy):
    """The period T around the cut x1-x2 from the 40-digit roots:
    2 pi / (sqrt(2g) M), M the AGM of sqrt(x3 - x1) and sqrt(x3 - x2)."""
    import mpmath as mp

    with mp.workdps(40):
        x1, x2, x3 = mpmath_roots(g, energy)
        agm = mp.agm(mp.sqrt(x3 - x1), mp.sqrt(x3 - x2))
        return complex(2 * mp.pi / (mp.sqrt(2 * mp.mpf(g)) * agm))


def mpmath_cross_period(g, energy):
    """The period T' around the cut x2-x3 from the 40-digit roots:
    2i K(1 - m) / lam with m = (x2 - x1)/(x3 - x1) and lam**2 =
    g (x3 - x1)/2, the imaginary period of x1 + (x2 - x1) sn**2(lam t | m).
    The sign is arbitrary."""
    import mpmath as mp

    with mp.workdps(40):
        x1, x2, x3 = mpmath_roots(g, energy)
        lam = mp.sqrt(mp.mpf(g) * (x3 - x1) / 2)
        return complex(2j * mp.ellipk((x3 - x2) / (x3 - x1)) / lam)


# Energies near the separatrix at g = 0.1: 1e-6 to 1e-9 below the barrier
# top, with small negative imaginary parts.
SEPARATRIX_G = 0.1
SEPARATRIX_ENERGIES = [
    complex(1.0 / 54e-2 - 1e-6, -1e-6),
    complex(1.8518518508, -1e-10),
    complex(1.0 / 54e-2 - 1e-8, -1e-10),
    complex(1.0 / 54e-2 - 1e-9, -1e-12),
]


class TestPotentialAndForce:
    def test_zero_at_origin(self):
        assert CubicModel(0.1).potential(0j) == 0

    def test_hand_value(self):
        # 0.5 - 0.1 by hand
        assert CubicModel(0.1).potential(1.0 + 0j) == pytest.approx(0.4, abs=1e-15)

    def test_barrier_top_symbolic(self):
        # Independent symbolic oracle: the nonzero stationary point of V
        # and its value.
        import sympy as sp

        xs, gs = sp.symbols("x g", positive=True)
        V = xs ** 2 / 2 - gs * xs ** 3
        stationary = [c for c in sp.solve(sp.diff(V, xs), xs) if c != 0]
        assert len(stationary) == 1
        x_top = stationary[0]
        v_top = sp.simplify(V.subs(xs, x_top))
        assert sp.simplify(x_top - 1 / (3 * gs)) == 0
        assert sp.simplify(v_top - 1 / (54 * gs ** 2)) == 0

        g = 0.1
        model = CubicModel(g)
        assert model.barrier_position == pytest.approx(10.0 / 3.0, rel=1e-15)
        value = model.potential(complex(model.barrier_position))
        assert value.real == pytest.approx(1.0 / (54.0 * g * g), rel=1e-13)
        assert value.imag == 0.0

    def test_force_stationary_points(self):
        model = CubicModel(0.1)
        assert model.force(0j) == 0
        assert abs(model.force(complex(10.0 / 3.0))) < 1e-14

    def test_force_matches_finite_difference(self):
        model = CubicModel(0.17888)
        x = 1.0 + 0.5j
        h = 1e-6
        dv = (model.potential(x + h) - model.potential(x - h)) / (2.0 * h)
        assert abs(model.force(x) - (-dv)) < 1e-8

    @pytest.mark.parametrize("attr", ["potential", "force"])
    def test_cauchy_riemann(self, attr):
        # Complex-analytic: derivative along the real axis equals the
        # derivative along the imaginary axis.
        rng = np.random.default_rng(7)
        model = CubicModel(0.13)
        f = getattr(model, attr)
        h = 1e-6
        for _ in range(20):
            x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            d_re = (f(x + h) - f(x - h)) / (2.0 * h)
            d_im = (f(x + 1j * h) - f(x - 1j * h)) / (2j * h)
            assert abs(d_re - d_im) < 1e-6

    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(DegenerateCubic):
            CubicModel(0.0)
        with pytest.raises(DegenerateCubic):
            CubicModel(-0.1)
        with pytest.raises(DegenerateCubic):
            CubicModel(float("nan"))

    def test_coupling_floor(self):
        # the smallest g whose far turning point, near 1/(2 g), cubes to a
        # finite float; the barrier height is finite well below it
        floor = 0.5 / sys.float_info.max ** (1.0 / 3.0)
        assert floor == pytest.approx(8.859e-104, rel=1e-4)
        with pytest.raises(DegenerateCubic, match="below 8.85927e-104"):
            CubicModel(math.nextafter(floor, 0.0))
        model = CubicModel(floor)
        assert math.isfinite(model.barrier_height)
        for energy in (1.0, -1.0, 0.3 - 0.1j, 1e3):
            for x in turning_points(model, energy):
                assert math.isfinite(abs(x) ** 3)

    def test_coupling_ceiling(self):
        # the largest g whose 54 g**2, the barrier height's denominator, is
        # a finite float, stepped down to from sqrt(float_max / 54)
        ceiling = math.sqrt(sys.float_info.max / 54.0)
        while not math.isfinite(54.0 * ceiling**2):
            ceiling = math.nextafter(ceiling, 0.0)
        assert ceiling == pytest.approx(1.8246e153, rel=1e-4)
        assert CubicModel(ceiling).barrier_height > 0.0
        for g in (math.nextafter(ceiling, math.inf), 1e154, 1e308):
            with pytest.raises(DegenerateCubic, match=re.escape(f"g={g!r} is above 1.82457e+153")):
                CubicModel(g)

    def test_harmonic_model(self):
        h = HarmonicModel()
        assert h.potential(2.0 + 0j) == 2.0
        assert h.force(2.0 + 0j) == -2.0


class TestWkbLifetime:
    def test_reference_grid_rounds_to_integers(self):
        assert [round(wkb_lifetime(g)) for g in TABLE_G] == [547, 85, 24, 10]

    def test_high_precision_value(self):
        # mpmath oracle for one coupling
        import mpmath as mp

        mp.mp.dps = 40
        g = mp.mpf("0.12522")
        expected = mp.mpf("0.5") * g * mp.sqrt(mp.pi) * mp.exp(2 / (15 * g ** 2))
        assert wkb_lifetime(0.12522) == pytest.approx(float(expected), rel=1e-14)

    def test_strictly_decreasing(self):
        grid = np.linspace(0.12, 0.18, 100)
        values = [wkb_lifetime(g) for g in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("bad", [0.0, -0.3, float("nan")])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            wkb_lifetime(bad)

    def test_overflow_limit_is_a_domain_error(self):
        # exp(2 / (15 g**2)) overflows a float for g below about 0.0137
        with pytest.raises(ValueError, match="0.0137"):
            wkb_lifetime(0.001)
        assert math.isfinite(wkb_lifetime(0.0138))


class TestQuasiBoundState:
    def test_leading_real_part(self):
        assert quasi_bound_energy(0.17888).energy.real == 0.5

    def test_imaginary_part_exact_construction(self):
        for g in TABLE_G:
            state = quasi_bound_energy(g)
            assert state.energy.imag == -1.0 / (2.0 * state.tau)
            # arithmetic identity im * 2 tau = -1, up to rounding
            assert abs(state.energy.imag * 2.0 * state.tau + 1.0) < 1e-15

    def test_quoted_value(self):
        state = quasi_bound_energy(0.12522)
        assert state.tau == pytest.approx(547.2522, abs=1e-3)
        assert state.energy.imag == pytest.approx(-9.1366e-4, abs=1e-7)

    def test_weak_coupling_limit(self):
        # Re E stays 1/2 and the width closes as g -> 0+.
        widths = [abs(quasi_bound_energy(g).energy.imag) for g in (0.1, 0.05, 0.02)]
        assert all(quasi_bound_energy(g).energy.real == 0.5 for g in (0.1, 0.05, 0.02))
        assert widths[0] > widths[1] > widths[2]
        assert widths[2] < 1e-100

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
    def test_nonpositive_lifetime_rejected(self, tau):
        with pytest.raises(ValueError, match="lifetime must be positive"):
            QuasiBoundState(g=0.1, tau=tau, energy=0.5 - 0.1j)

    def test_corrected_state_uses_second_order_real_part(self):
        g = 0.17888
        state = corrected_quasi_bound_energy(g)
        assert state.energy.real == ground_state_energy(g)
        assert state.energy.imag == -1.0 / (2.0 * state.tau)
        assert state.tau == wkb_lifetime(g)


class TestGroundStateEnergy:
    def test_matrix_perturbation_oracle(self):
        # Independent second-order Rayleigh-Schroedinger sum: build the
        # position matrix in a truncated oscillator basis and sum
        # |<m|x^3|0>|^2 / (E_0 - E_m).
        n = 40
        a = np.diag(np.sqrt(np.arange(1, n)), 1)  # annihilation
        x = (a + a.T) / math.sqrt(2.0)
        x3 = x @ x @ x
        second_order = sum(
            abs(x3[m, 0]) ** 2 / (0.5 - (m + 0.5)) for m in range(1, n)
        )
        assert second_order == pytest.approx(-11.0 / 8.0, rel=1e-12)
        g = 0.17888
        assert ground_state_energy(g) == pytest.approx(0.5 + second_order * g * g, rel=1e-12)

    def test_harmonic_limit(self):
        assert ground_state_energy(1e-8) == pytest.approx(0.5, abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            ground_state_energy(-0.1)


class TestTurningPoints:
    def test_known_real_case(self):
        tps = turning_points(CubicModel(0.1), 0.5 + 0j)
        oracle = companion_roots(0.1, 0.5)
        for ours, ref in zip(tps, oracle):
            assert abs(ours - ref) < 1e-10
        # coarse frozen values
        assert tps.x1.real == pytest.approx(-0.92, abs=0.01)
        assert tps.x2.real == pytest.approx(1.13, abs=0.01)
        assert tps.x3.real == pytest.approx(4.79, abs=0.01)
        assert (tps.x1 + tps.x2 + tps.x3).real == pytest.approx(5.0, abs=1e-10)

    def test_matches_companion_matrix(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            g = rng.uniform(0.05, 0.2)
            energy = complex(rng.uniform(0.05, 2.0), rng.uniform(0.02, 0.6))
            tps = turning_points(CubicModel(g), energy)
            oracle = companion_roots(g, energy)
            for ours, ref in zip(tps, oracle):
                assert abs(ours - ref) < 1e-10 * max(1.0, abs(ref))

    def test_vieta_identities(self):
        rng = np.random.default_rng(20260809)
        for _ in range(200):
            g = rng.uniform(0.05, 0.2)
            energy = complex(
                rng.uniform(0.05, 2.0),
                rng.choice([-1.0, 1.0]) * rng.uniform(0.02, 0.6),
            )
            x1, x2, x3 = turning_points(CubicModel(g), energy)
            total = x1 + x2 + x3
            pair_sum = x1 * x2 + x1 * x3 + x2 * x3
            product = x1 * x2 * x3
            pair_scale = max(abs(x1 * x2), abs(x1 * x3), abs(x2 * x3))
            assert abs(total - 1.0 / (2.0 * g)) <= 1e-10 * max(1.0, 1.0 / (2.0 * g))
            assert abs(pair_sum) <= 1e-10 * pair_scale
            assert abs(product + energy / g) <= 1e-10 * max(1.0, abs(energy) / g)

    def test_residuals_within_tolerance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = rng.uniform(0.05, 0.2)
            energy = complex(rng.uniform(0.05, 2.0), rng.uniform(0.02, 0.6))
            model = CubicModel(g)
            for root in turning_points(model, energy):
                assert abs(model.potential(root) - energy) <= 1e-12 * max(1.0, abs(energy))

    def test_quasi_bound_roots_ordered_with_small_imag(self):
        g = 0.17888
        model = CubicModel(g)
        for state in (quasi_bound_energy(g), corrected_quasi_bound_energy(g)):
            tps = turning_points(model, state.energy)
            assert tps.x1.real < tps.x2.real < tps.x3.real
            assert all(abs(x.imag) < 0.2 for x in tps)

    def test_barrier_top_is_coincident(self):
        # a real energy at the barrier top has a zero discriminant (a double
        # root), whatever gap the closed form leaves
        for g in (0.05, 0.1, 0.17888, 0.5):
            with pytest.raises(CoincidentRoots, match="barrier top"):
                turning_points(CubicModel(g), complex(CubicModel(g).barrier_height))

    def test_slightly_off_barrier_top_is_fine(self):
        g = 0.1
        energy = complex((1.0 / (54.0 * g * g)) * (1.0 - 1e-9))
        model = CubicModel(g)
        tps = turning_points(model, energy)
        for root in tps:
            assert abs(model.potential(root) - energy) <= 1e-12 * max(1.0, abs(energy))

    @pytest.mark.parametrize("g", [0.05, 0.1, 0.17888, 0.5])
    def test_real_energy_roots_are_real_or_a_conjugate_pair(self, g):
        # the discriminant 27 E (E_top - E) / g**2 decides: three real roots
        # for 0 < E < E_top, else one real root and an exact conjugate pair
        model = CubicModel(g)
        top = model.barrier_height
        near = [top * (1.0 + s * 10.0**-k) for s in (-1.0, 1.0) for k in (2, 6, 9, 12)]
        for energy in [0.3 * top, 0.9 * top, 1e-9, 2.0 * top, -1e-9, -0.4, *near]:
            tps = turning_points(model, complex(energy))
            x1, x2, x3 = tps
            if 0.0 < energy < top:
                assert x1.imag == x2.imag == x3.imag == 0.0
                assert x1.real < x2.real < x3.real
            else:
                real, (lower, upper) = (x1, (x2, x3)) if energy > top else (x3, (x1, x2))
                assert real.imag == 0.0
                assert lower == upper.conjugate() and upper.imag > 0.0
            for ours, ref in zip(tps, companion_roots(g, energy)):
                assert abs(ours - ref) <= 1e-6 * max(1.0, abs(ref))
            for root in tps:
                assert abs(model.potential(root) - energy) <= 1e-12 * max(1.0, abs(energy))

    @pytest.mark.parametrize("g", [*TABLE_G, SEPARATRIX_G])
    def test_structure_within_ulps_of_the_barrier_top(self, g):
        # three real roots below the exact top 1/(54 g**2), a real root and
        # an exact conjugate pair above it; only the float top itself or a
        # gap below 1e-8 may raise
        model = CubicModel(g)
        top = 1 / (54 * Fraction(g) ** 2)
        energy = model.barrier_height
        for _ in range(4):
            energy = math.nextafter(energy, 0.0)
        for _ in range(9):
            try:
                x1, x2, x3 = turning_points(model, complex(energy))
            except CoincidentRoots:
                ref = mpmath_roots(g, complex(energy))
                gap = min(abs(complex(b - a)) for a, b in zip(ref, ref[1:]))
                assert energy == model.barrier_height or gap < 1e-8
            else:
                if Fraction(energy) < top:
                    assert x1.imag == x2.imag == x3.imag == 0.0
                    assert x1.real < x2.real < x3.real
                else:
                    assert x1.imag == 0.0
                    assert x2 == x3.conjugate() and x3.imag > 0.0
            energy = math.nextafter(energy, math.inf)

    @pytest.mark.parametrize("energy", SEPARATRIX_ENERGIES)
    def test_period_near_the_separatrix(self, energy):
        model = CubicModel(SEPARATRIX_G)
        T, _ = _periods(model, turning_points(model, energy))
        reference = mpmath_period(SEPARATRIX_G, energy)
        assert abs(T - reference) <= 1e-12 * abs(reference)

    @pytest.mark.parametrize("energy", SEPARATRIX_ENERGIES)
    def test_cross_period_near_the_separatrix(self, energy):
        model = CubicModel(SEPARATRIX_G)
        _, T_prime = _periods(model, turning_points(model, energy))
        reference = mpmath_cross_period(SEPARATRIX_G, energy)
        assert min(abs(T_prime - reference), abs(T_prime + reference)) <= 1e-14 * abs(reference)

    @pytest.mark.parametrize("g", [0.01, 0.1, *TABLE_G, 3.0])
    def test_real_energy_lattice_structure(self, g):
        # exact zeros, which crossing_time's one-row path (T.imag == 0.0)
        # reads: below the barrier top T is real and T' imaginary; above
        # it x1 is real and (x2, x3) a conjugate pair, so T' stays
        # imaginary; below zero (x1, x2) is the pair and T stays real
        model = CubicModel(g)
        top = model.barrier_height
        rng = np.random.default_rng(15)
        for fraction in rng.uniform(0.0, 1.0, 40):
            T, T_prime = _periods(model, turning_points(model, complex(fraction * top)))
            assert T.imag == 0.0 and T.real > 0.0
            assert T_prime.real == 0.0
        for decades in rng.uniform(-6.0, 3.0, 40):
            above = complex(top * (1.0 + 10.0**decades))
            assert _periods(model, turning_points(model, above))[1].real == 0.0
            T, _ = _periods(model, turning_points(model, complex(-top * 10.0**decades)))
            assert T.imag == 0.0 and T.real > 0.0

    def test_zero_energy_is_coincident(self):
        # V(x) = 0 has a double root at the origin, and the error names it
        for energy in (0j, 1e-20 + 1e-20j):
            with pytest.raises(CoincidentRoots, match="bottom of the well"):
                turning_points(CubicModel(0.1), energy)

    def test_nonfinite_energy_rejected(self):
        with pytest.raises(ValueError):
            turning_points(CubicModel(0.1), complex(float("inf"), 0.0))

    @pytest.mark.parametrize(
        "g, energy",
        [
            (1e100, -1.375e200 - 5.6e-101j),  # table1's corrected energy at g = 1e100
            (7e76, -6.7375e153 + 0j),
            (1e150, -1e10 + 0j),
            (1e100, -1.0 + 1e300j),
            (1e100, 1e200 + 0j),  # about the barrier top: an int quotient past float_max
            (1e100, 1e200 - 1e200j),
        ],
    )
    def test_overflowing_k_names_g_and_e(self, g, energy):
        # k = -8 g**2 E (about the barrier top 8 g**2 E - 4/27) beyond
        # float_max once failed as "complex exponentiation" or "integer
        # division result too large for a float"
        with pytest.raises(ArithmeticError, match="overflows") as info:
            turning_points(CubicModel(g), energy)
        assert f"g={g!r}, E={complex(energy)!r}" in str(info.value)

    def test_missed_residual_raises(self, monkeypatch):
        # with no tolerance at all, the rounding left in V(x) - E fails
        monkeypatch.setattr(cubic, "_RESIDUAL_TOL", 0.0)
        with pytest.raises(ArithmeticError, match=r"misses V\(x\) = E"):
            turning_points(CubicModel(0.1), 0.3 + 0j)


def mpmath_rf(x, y, z):
    import mpmath as mp

    with mp.workdps(40):
        return complex(mp.elliprf(*(mp.mpc(a.real, a.imag) for a in (x, y, z))))


class TestCarlsonRF:
    @pytest.mark.parametrize(
        "args",
        [
            (1.0, 2.0, 3.0),
            (0.5 + 1j, 2 - 0.3j, -1 + 0.2j),
            (-210.4 - 49.5j, 31197.0 + 28963.3j, -0.0207 - 0.0082j),
            (0.0, 1 + 1j, 2 - 1j),
            (0.0, 1.0, 1e-10),
            (0.0, -3 + 1e-3j, 4 - 2j),
            (1e-12, 1.0, 1e12),
            (1e-8 + 1e-8j, 3e6 - 1e6j, 0.5),
            (1e150 + 2e150j, 3e150, 1e149 - 1e150j),
            (1e-150 + 2e-150j, 3e-150, 1e-151 - 1e-150j),
        ],
    )
    def test_matches_mpmath(self, args):
        args = tuple(complex(a) for a in args)
        reference = mpmath_rf(*args)
        assert abs(_carlson_rf(*args) - reference) <= 1e-15 * abs(reference)

    def test_matches_mpmath_on_random_arguments(self):
        # complex arguments scaled from 1e-8 to 1e8, off the negative real
        # axis, a third of them with one argument 0
        rng = np.random.default_rng(12)
        for i in range(120):
            z = rng.standard_normal((3, 2)) @ [1.0, 1j] * 10.0 ** rng.uniform(-8, 8, 3)
            args = (0j, *z[1:]) if i % 3 == 0 else tuple(z)
            args = tuple(complex(a) for a in args)
            reference = mpmath_rf(*args)
            assert abs(_carlson_rf(*args) - reference) <= 1e-15 * abs(reference)

