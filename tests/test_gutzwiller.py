import cmath
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from semiclassics import gutzwiller
from semiclassics import (
    DegenerateAction,
    NonConvergent,
    OrbitModel,
    OrbitSchemaError,
    PoleIndex,
    PoleProximity,
    SemiclassicalContext,
    eval_orbit,
    find_pole,
    load_orbit,
    orbit_from_dict,
    pole_residual,
    response_function,
    sinh_expansion_error,
)

CTX = SemiclassicalContext()

LINEAR = OrbitModel(
    name="linear", s_coeffs=(0.0, 2.0 * math.pi), w_coeffs=(0.5,),
    t_coeffs=(2.0 * math.pi,), lam=2,
)

QUADRATIC = OrbitModel(
    name="quadratic", s_coeffs=(0.0, 2.0 * math.pi, 0.1),
    w_coeffs=(0.5, 0.01), t_coeffs=(2.0 * math.pi, 0.2), lam=2,
)


def closed_form_pole(k, s, lam=2, w0=0.5, hbar=1.0):
    """Pole lattice of the linear-action orbit S = 2*pi*E, constant w."""
    return hbar * complex(lam / 4.0 + s, -w0 * (k + 0.5) / (2.0 * math.pi))


def naive_polyval(coeffs, z):
    return sum(c * z ** k for k, c in enumerate(coeffs))


def double_sum_response(orbit, energy, hbar=1.0):
    """Brute-force oracle: the expanded repetition/instability double sum,
    grown until it is stable to 1e-14."""
    S, w, T = eval_orbit(orbit, complex(energy))
    theta = S / hbar - orbit.lam * math.pi / 2.0
    previous = None
    for n_max in (400, 800, 1600, 3200, 6400):
        n = np.arange(1, n_max + 1)
        k = np.arange(0, 120)
        exponent = 1j * np.outer(n, np.ones_like(k)) * theta - np.outer(
            n, k + 0.5
        ) * w
        total = 2.0 * np.exp(exponent).sum()
        if previous is not None and abs(total - previous) <= 1e-14 * abs(total):
            return -1j * T / (2.0 * hbar) * total
        previous = total
    raise AssertionError("double-sum oracle did not stabilize")


def sinh_sum_response(orbit, energy, hbar=1.0):
    """Second oracle: the repetition sum with 1/sinh kept intact."""
    S, w, T = eval_orbit(orbit, complex(energy))
    theta = S / hbar - orbit.lam * math.pi / 2.0
    # cap n before sinh overflows
    n_cap = min(6400, int(1400.0 / abs(w.real)))
    n = np.arange(1, n_cap + 1)
    total = (np.exp(1j * n * theta) / np.sinh(n * w / 2.0)).sum()
    return -1j * T / (2.0 * hbar) * total


def mpmath_response(orbit, energy, hbar=1.0):
    """Independent 40-digit oracle: the repetition sum with 1/sinh kept,
    sum_n e^{i n theta} / sinh(n w / 2), term by term for n < N.  From N
    on 1/sinh is expanded, and each row sum_{n>=N} 2 x_j^n, with
    x_j = e^{i theta - (j + 1/2) w}, is summed in closed form as
    2 x_j^N / (1 - x_j).  That also continues the sum below the first pole
    row, where the repetition sum itself diverges; there N drops below its
    default ceil(1 / Re w) so that the growing terms spend at most ~e^20
    of the 40 digits."""
    import mpmath as mp

    with mp.workdps(40):
        E = mp.mpc(energy)
        S, w, T = (mp.polyval(coeffs[::-1], E)
                   for coeffs in (orbit.s_coeffs, orbit.w_coeffs, orbit.t_coeffs))
        theta = S / hbar - orbit.lam * mp.pi / 2
        growth = -mp.im(theta) - mp.re(w) / 2  # of |e^{i n theta} / sinh(n w / 2)|
        n_split = int(mp.ceil(1 / mp.re(w)))
        if growth > 0:
            n_split = max(1, min(n_split, int(20 / growth)))
        rotate, half = mp.exp(1j * theta), mp.exp(w / 2)
        phase, e_half, total = mp.mpc(1), mp.mpc(1), mp.mpc(0)
        for _ in range(1, n_split):
            phase *= rotate
            e_half *= half
            total += 2 * phase / (e_half - 1 / e_half)
        x = mp.exp(1j * theta - w / 2)
        x_split = x ** n_split
        q, q_split = mp.exp(-w), mp.exp(-n_split * w)
        j = 0
        while True:
            term = 2 * x_split / (1 - x)
            total += term
            past_growth = (j + 0.5) * mp.re(w) > -mp.im(theta)
            if past_growth and abs(term) < mp.mpf(10) ** -36 * abs(total):
                return complex(-1j * T / (2 * hbar) * total)
            x *= q
            x_split *= q_split
            j += 1


def random_orbit(rng):
    s_coeffs = [rng.uniform(-2, 2), rng.uniform(2, 8), rng.uniform(-0.3, 0.3)]
    t_coeffs = [s_coeffs[1], 2.0 * s_coeffs[2]]
    w_coeffs = [rng.uniform(0.4, 2.0), rng.uniform(-0.05, 0.05)]
    return OrbitModel(
        name="random", s_coeffs=tuple(s_coeffs), w_coeffs=tuple(w_coeffs),
        t_coeffs=tuple(t_coeffs), lam=int(rng.integers(0, 5)),
    )


class TestEvalOrbit:
    def test_constant_and_linear(self):
        s, w, t = eval_orbit(LINEAR, 1.0 + 0j)
        assert s == pytest.approx(2.0 * math.pi)
        assert w == 0.5
        assert t == pytest.approx(2.0 * math.pi)

    def test_empty_coefficients_are_zero(self):
        orbit = OrbitModel(name="empty", s_coeffs=(), w_coeffs=(), t_coeffs=(), lam=0)
        assert eval_orbit(orbit, 2.3 + 1j) == (0j, 0j, 0j)

    def test_matches_naive_power_sum(self):
        rng = np.random.default_rng(13)
        coeffs = tuple(rng.uniform(-1, 1, size=4))
        orbit = OrbitModel(name="cubic-poly", s_coeffs=coeffs, w_coeffs=(1.0,),
                           t_coeffs=(), lam=0)
        for _ in range(5):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            s, _, _ = eval_orbit(orbit, z)
            assert s == pytest.approx(naive_polyval(coeffs, z), rel=1e-13)


class TestOrbitModelValidation:
    def test_inconsistent_period_rejected(self):
        with pytest.raises(ValueError, match="dS/dE"):
            OrbitModel(name="bad", s_coeffs=(0.0, 2.0 * math.pi),
                       w_coeffs=(0.5,), t_coeffs=(1.0,), lam=2)

    def test_negative_focal_count_rejected(self):
        with pytest.raises(ValueError, match="focal"):
            OrbitModel(name="bad", s_coeffs=(0.0, 1.0), w_coeffs=(0.5,),
                       t_coeffs=(1.0,), lam=-1)

    def test_constant_action_skips_period_check(self):
        OrbitModel(name="ok", s_coeffs=(3.0,), w_coeffs=(0.5,),
                   t_coeffs=(1.0,), lam=0)


class TestResponseFunction:
    def test_huge_instability_suppresses_response(self):
        orbit = OrbitModel(name="stiff", s_coeffs=(0.0, 2.0 * math.pi),
                           w_coeffs=(40.0,), t_coeffs=(2.0 * math.pi,), lam=2)
        value = response_function(CTX, orbit, 1.0 + 0j)
        assert abs(value) <= 2.0 * math.pi * 2.0 * math.exp(-20.0)

    # sinh(w / 2) overflows a float once Re w > ~1420
    @pytest.mark.parametrize("orbit, energy", [
        (OrbitModel(name="stiff", s_coeffs=(0.0, 2.0 * math.pi), w_coeffs=(1500.0,),
                    t_coeffs=(2.0 * math.pi,), lam=2), 1.0 + 0j),
        (QUADRATIC, 1.5e5 + 0j),
    ])
    def test_instability_past_sinh_overflow_suppresses_response(self, orbit, energy):
        assert abs(response_function(CTX, orbit, energy)) <= 1e-300

    def test_matches_brute_force_oracles(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            orbit = random_orbit(rng)
            energy = complex(rng.uniform(-1, 1), 0.0)
            ours = response_function(CTX, orbit, energy)
            double = double_sum_response(orbit, energy)
            direct = sinh_sum_response(orbit, energy)
            assert abs(ours - double) <= 1e-12 * abs(ours)
            assert abs(ours - direct) <= 1e-12 * abs(ours)

    def test_nonpositive_instability_raises(self):
        orbit = OrbitModel(name="stable", s_coeffs=(0.0, 2.0 * math.pi),
                           w_coeffs=(-0.5,), t_coeffs=(2.0 * math.pi,), lam=2)
        with pytest.raises(NonConvergent):
            response_function(CTX, orbit, 1.0 + 0j)

    def test_pole_proximity_at_converged_pole(self):
        pole = find_pole(CTX, LINEAR, PoleIndex(0, 0))
        with pytest.raises(PoleProximity):
            response_function(CTX, LINEAR, pole)

    def test_simple_pole_scaling(self):
        # |g| doubles when the distance to the pole halves
        pole = find_pole(CTX, LINEAR, PoleIndex(0, 0))
        direction = (1.0 + 1.0j) / math.sqrt(2.0)
        d = 1e-3
        far = abs(response_function(CTX, LINEAR, pole + direction * d))
        near = abs(response_function(CTX, LINEAR, pole + direction * d / 2.0))
        assert near / far == pytest.approx(2.0, rel=0.05)

    def test_conjugation_identity(self):
        # With all-real coefficients:
        #   conj(g(conj E)) = g'(E), where the primed orbit has
        #   S -> hbar*lam*pi - S and T -> -T (lam unchanged).
        rng = np.random.default_rng(7)
        for _ in range(20):
            orbit = random_orbit(rng)
            energy = complex(rng.uniform(-1, 1), rng.uniform(-0.05, 0.05))
            mirrored = OrbitModel(
                name="mirrored",
                s_coeffs=tuple(
                    (CTX.hbar * orbit.lam * math.pi if k == 0 else 0.0) - c
                    for k, c in enumerate(orbit.s_coeffs)
                ),
                w_coeffs=orbit.w_coeffs,
                t_coeffs=tuple(-c for c in orbit.t_coeffs),
                lam=orbit.lam,
            )
            lhs = response_function(CTX, orbit, energy.conjugate()).conjugate()
            rhs = response_function(CTX, mirrored, energy)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def linear_orbit(w0):
    return OrbitModel(name="linear", s_coeffs=(0.01, 2.0 * math.pi), w_coeffs=(w0,),
                      t_coeffs=(2.0 * math.pi,), lam=2)


def quadratic_orbit(w0):
    return OrbitModel(name="quadratic", s_coeffs=(0.01, 2.0 * math.pi, 0.1),
                      w_coeffs=(w0, 0.02 * w0), t_coeffs=(2.0 * math.pi, 0.2), lam=2)


class TestHeadTailSplit:
    """The k-sum as head plus tail: accuracy down to Re w = 1e-4, where the
    k-sum alone would need ~37 / Re w terms, poles and the term cap."""

    # (0.5, 0.3 - 1j): |z_k| > 1 for k < 12, more than the sqrt(37 / Re w)
    # ~ 9 extra head terms, so the head must cover those rows itself
    @pytest.mark.parametrize("w0, energy", [(1e-3, 0.3 + 0j), (1e-3, 0.7 + 1e-3j),
                                            (1e-3, 0.3 - 0.01j), (1e-4, 0.3 + 0j),
                                            (0.5, 0.3 - 1.0j)])
    @pytest.mark.parametrize("make", [linear_orbit, quadratic_orbit])
    def test_matches_mpmath(self, make, w0, energy):
        orbit = make(w0)
        ours = response_function(CTX, orbit, energy)
        assert abs(ours - mpmath_response(orbit, energy)) <= 1e-12 * abs(ours)

    @pytest.mark.parametrize("w0, idx", [(0.01, PoleIndex(3, 1)), (0.5, PoleIndex(20, 0))])
    def test_pole_proximity_from_a_head_term(self, w0, idx):
        orbit = linear_orbit(w0)
        pole = find_pole(CTX, orbit, idx)
        with pytest.raises(PoleProximity, match=f"z_{idx.k}\\b"):
            response_function(CTX, orbit, pole)

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of the head's exp and the tail's sinh evaluations."""
        counts = {"exp": 0, "sinh": 0}

        def counted(name):
            def call(z):
                counts[name] += 1
                return getattr(cmath, name)(z)
            return call

        counting = SimpleNamespace(**vars(cmath))
        counting.exp, counting.sinh = counted("exp"), counted("sinh")
        monkeypatch.setattr(gutzwiller, "cmath", counting)
        return counts

    def test_terms_scale_as_inverse_sqrt_w(self, calls):
        # ~2 sqrt(37 / Re w) = 1,217 terms; the k-sum alone needs ~37 / Re w
        response_function(CTX, linear_orbit(1e-4), 0.3 + 0j)
        assert calls["exp"] + calls["sinh"] <= 2.5 * math.sqrt(37.0 / 1e-4)

    # Re w = 1e-10: sqrt(37 / Re w) ~ 6e5 head terms; E = 0.3 - 1000i:
    # |z_k| > 1 for the first ~12,600 k
    @pytest.mark.parametrize("orbit, energy", [(linear_orbit(1e-10), 0.3 + 0j),
                                               (LINEAR, 0.3 - 1000j)])
    def test_oversized_head_is_refused_before_summing(self, calls, orbit, energy):
        with pytest.raises(NonConvergent, match="10000 terms"):
            response_function(CTX, orbit, energy)
        assert calls == {"exp": 0, "sinh": 0}

    def test_overlong_tail_raises(self):
        # the head (~6,100 terms) fits the cap, head plus tail does not
        with pytest.raises(NonConvergent, match="10000 terms"):
            response_function(CTX, linear_orbit(1e-6), 0.3 + 0j)


class TestSinhExpansionError:
    def test_first_term_error_against_direct_arithmetic(self):
        direct = abs(1.0 / math.sinh(1.0) - 2.0 * math.exp(-1.0))
        assert sinh_expansion_error(1.0, 0) == pytest.approx(direct, rel=1e-12)
        assert sinh_expansion_error(1.0, 0) == pytest.approx(0.115159, abs=1e-6)

    def test_against_naive_subtraction_where_resolvable(self):
        for x in (0.5, 1.0, 2.0):
            for n_kept in range(5):
                partial = 2.0 * math.exp(-x) * sum(
                    math.exp(-2.0 * k * x) for k in range(n_kept + 1)
                )
                naive = abs(1.0 / math.sinh(x) - partial)
                if naive > 1e-9:  # below this the subtraction loses digits
                    assert sinh_expansion_error(x, n_kept) == pytest.approx(
                        naive, rel=1e-6
                    )

    def test_against_high_precision_oracle(self):
        import mpmath as mp

        mp.mp.dps = 60
        for x, n_kept in [(0.5, 3), (1.0, 10), (2.0, 20)]:
            xm = mp.mpf(x)
            partial = 2 * mp.e ** (-xm) * mp.fsum(
                mp.e ** (-2 * k * xm) for k in range(n_kept + 1)
            )
            expected = abs(1 / mp.sinh(xm) - partial)
            assert sinh_expansion_error(x, n_kept) == pytest.approx(
                float(expected), rel=1e-12
            )

    def test_long_expansion_is_exact_to_double(self):
        assert sinh_expansion_error(1.0, 50) <= 1e-15

    def test_strictly_decreasing_in_order(self):
        errors = [sinh_expansion_error(1.0, n) for n in range(40)]
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_tail_bound(self):
        for x in (0.5, 1.0, 2.0):
            for n_kept in range(21):
                bound = 2.0 * math.exp(-(2 * n_kept + 3) * x) / (1.0 - math.exp(-2.0 * x))
                assert sinh_expansion_error(x, n_kept) <= bound * (1.0 + 1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sinh_expansion_error(0.0, 3)
        with pytest.raises(ValueError):
            sinh_expansion_error(-1.0, 3)
        with pytest.raises(ValueError):
            sinh_expansion_error(1.0, -1)


class TestPoleResidual:
    def test_vanishes_at_closed_form_pole(self):
        for k in range(3):
            for s in range(3):
                energy = closed_form_pole(k, s)
                assert abs(pole_residual(CTX, LINEAR, energy, PoleIndex(k, s))) <= 1e-12

    def test_algebraic_identity(self):
        # residual(E) + rhs(E) == S(E) by definition
        rng = np.random.default_rng(3)
        idx = PoleIndex(1, 2)
        for _ in range(5):
            energy = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            s_val, w_val, _ = eval_orbit(QUADRATIC, energy)
            rhs = (
                CTX.hbar * QUADRATIC.lam * math.pi / 2.0
                - 1j * CTX.hbar * w_val * (idx.k + 0.5)
                + 2.0 * idx.s * math.pi * CTX.hbar
            )
            residual = pole_residual(CTX, QUADRATIC, energy, idx)
            assert residual + rhs == pytest.approx(s_val, rel=1e-13)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            PoleIndex(-1, 0)
        with pytest.raises(ValueError):
            PoleIndex(0, -2)


class TestFindPole:
    def test_linear_closed_form_lattice(self):
        for k in range(4):
            for s in range(4):
                pole = find_pole(CTX, LINEAR, PoleIndex(k, s))
                assert abs(pole - closed_form_pole(k, s)) <= 1e-12

    def test_specific_closed_form_values(self):
        assert find_pole(CTX, LINEAR, PoleIndex(0, 0)) == pytest.approx(
            0.5 - 0.039788735772973836j, abs=1e-12
        )
        assert find_pole(CTX, LINEAR, PoleIndex(1, 2)) == pytest.approx(
            2.5 - 0.11936620731892151j, abs=1e-12
        )

    def test_quadratic_matches_grid_search(self):
        idx = PoleIndex(0, 0)
        newton = find_pole(CTX, QUADRATIC, idx)

        # dense grid search over a complex rectangle, refined until the
        # cell size is ~1e-6
        best = 0.5 - 0.05j
        half = 0.5
        for _ in range(7):
            res = np.linspace(best.real - half, best.real + half, 41)
            ims = np.linspace(best.imag - half, best.imag + half, 41)
            vals = np.array(
                [
                    [abs(pole_residual(CTX, QUADRATIC, complex(r, i), idx)) for r in res]
                    for i in ims
                ]
            )
            j, i = np.unravel_index(np.argmin(vals), vals.shape)
            best = complex(res[i], ims[j])
            half = half / 5.0
        assert abs(newton - best) <= 5e-6
        # polishing the grid point lands on the same pole
        polished = find_pole(CTX, QUADRATIC, idx, guess=best)
        assert abs(polished - newton) <= 1e-12
        assert abs(pole_residual(CTX, QUADRATIC, newton, idx)) <= 1e-12

    def test_guess_insensitivity_within_basin(self):
        idx = PoleIndex(1, 1)
        reference = find_pole(CTX, QUADRATIC, idx)
        perturbed = find_pole(CTX, QUADRATIC, idx, guess=reference * 1.01)
        assert abs(perturbed - reference) < 1e-10

    def test_hbar_scaling(self):
        # linear action: the whole lattice scales linearly with hbar
        half = SemiclassicalContext(hbar=0.5)
        for k, s in [(0, 0), (1, 2), (2, 1)]:
            scaled = find_pole(half, LINEAR, PoleIndex(k, s))
            assert abs(scaled - 0.5 * closed_form_pole(k, s)) <= 1e-12

    def test_lattice_spacings(self):
        # E_{k,s+1} - E_{k,s} = 2 pi hbar / T, Im E_{k+1,s} - Im E_{k,s} = -hbar w0 / T
        t0 = LINEAR.t_coeffs[0]
        w0 = LINEAR.w_coeffs[0]
        e00 = find_pole(CTX, LINEAR, PoleIndex(0, 0))
        e01 = find_pole(CTX, LINEAR, PoleIndex(0, 1))
        e10 = find_pole(CTX, LINEAR, PoleIndex(1, 0))
        assert abs((e01 - e00) - 2.0 * math.pi / t0) <= 1e-12
        assert abs((e10 - e00).imag + w0 / t0) <= 1e-12
        assert abs((e10 - e00).real) <= 1e-12

    def test_degenerate_action(self):
        orbit = OrbitModel(name="flat", s_coeffs=(1.0, 1e-13), w_coeffs=(0.5,),
                           t_coeffs=(1e-13,), lam=0)
        with pytest.raises(DegenerateAction):
            find_pole(CTX, orbit, PoleIndex(0, 0), guess=0j)


class TestOrbitIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "orbit.json"
        path.write_text(
            json.dumps(
                {
                    "name": "demo",
                    "lambda": 2,
                    "S": [0.0, 6.283185307179586],
                    "w": [0.5],
                    "T": [6.283185307179586],
                }
            ),
            encoding="utf-8",
        )
        orbit = load_orbit(path)
        assert orbit.name == "demo"
        assert orbit.lam == 2
        assert orbit.t_coeffs == (6.283185307179586,)

    def test_period_inferred_for_linear_action(self):
        orbit = orbit_from_dict(
            {"name": "d", "lambda": 0, "S": [0.5, 2.0], "w": [1.0]}
        )
        assert orbit.t_coeffs == (2.0,)

    def test_missing_lambda_names_the_field(self, tmp_path):
        path = tmp_path / "orbit.json"
        path.write_text(
            json.dumps({"name": "d", "S": [0.0, 1.0], "w": [0.5]}), encoding="utf-8"
        )
        with pytest.raises(OrbitSchemaError, match="lambda"):
            load_orbit(path)

    @pytest.mark.parametrize("lam", [-1, 1.5, True, "2"])
    def test_bad_lambda_names_the_field(self, lam):
        with pytest.raises(OrbitSchemaError, match="lambda"):
            orbit_from_dict({"name": "d", "lambda": lam, "S": [0.0, 1.0], "w": [0.5]})

    def test_missing_period_for_nonlinear_action(self):
        with pytest.raises(OrbitSchemaError, match="'T'"):
            orbit_from_dict(
                {"name": "d", "lambda": 0, "S": [0.0, 1.0, 0.1], "w": [0.5]}
            )

    def test_non_numeric_coefficients(self):
        with pytest.raises(OrbitSchemaError, match="'S'"):
            orbit_from_dict(
                {"name": "d", "lambda": 0, "S": [0.0, "x"], "w": [0.5]}
            )

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "orbit.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(OrbitSchemaError, match="JSON"):
            load_orbit(path)

    def test_inconsistent_data_reported_as_schema_error(self):
        with pytest.raises(OrbitSchemaError, match="dS/dE"):
            orbit_from_dict(
                {"name": "d", "lambda": 0, "S": [0.0, 2.0], "w": [0.5], "T": [1.0]}
            )
