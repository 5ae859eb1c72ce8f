import cmath
import json
import math
import random
import re
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from semiclassics import gutzwiller
from semiclassics import (
    DegenerateAction,
    NewtonDiverged,
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
DEMO_ORBITS = Path(__file__).resolve().parent.parent / "demos" / "orbits"

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


def per_term_response(ctx, orbit, energy):
    """``response_function`` with a fresh exponent and exp for every head
    term, the pole check on every head term and the overflow stop tested
    on every tail term.  The anchored recurrence must agree with it to
    rounding, and raise what it raises."""
    E = complex(energy)
    S, w, T = eval_orbit(orbit, E)
    if w.real <= 0.0:
        raise NonConvergent(
            f"instability exponent must have positive real part, got w = {w!r}"
        )
    phase = 1j * (S / ctx.hbar - orbit.lam * math.pi / 2.0)
    # |z_k| <= 1 from k = grow on.
    grow = phase.real / w.real - 0.5
    spread = math.sqrt(gutzwiller._CUTOFF_LOG / w.real)
    if not grow + spread < gutzwiller._MAX_TERMS:
        raise gutzwiller._too_many_terms(E, w)
    split = math.ceil(max(0.0, grow)) + math.ceil(spread)
    total = 0j
    for k in range(split):
        exponent = phase - (k + 0.5) * w
        if exponent.real > gutzwiller._EXP_HUGE:
            term = complex(-2.0)
        else:
            z = cmath.exp(exponent)
            one_minus = 1.0 - z
            if abs(one_minus) < gutzwiller._POLE_EPS:
                raise PoleProximity(
                    f"|1 - z_{k}| = {abs(one_minus):.3e} at E = {E!r}"
                )
            term = 2.0 * z / one_minus
        total += term
    ratio = cmath.exp(phase - split * w)
    power = 1.0
    for n in range(1, gutzwiller._MAX_TERMS - split + 1):
        # |z_K| <= e^{-Re w}, so past here |term| < 2 e^{-2 _EXP_HUGE}
        # underflows, and sinh would overflow.
        if 0.5 * n * w.real > gutzwiller._EXP_HUGE:
            break
        power *= ratio
        term = power / cmath.sinh(0.5 * n * w)
        total += term
        if term == 0 or abs(term) < gutzwiller._TERM_CUTOFF * abs(total):
            break
    else:
        raise gutzwiller._too_many_terms(E, w)
    return -1j * T / (2.0 * ctx.hbar) * total


def frozen_response(ctx, orbit, energy):
    """``response_function`` as it was before the tail's stop pre-test,
    its real-axis divisor and the split head loop: the exact stop test on
    every tail term, cmath.sinh everywhere and the pole check guarded per
    term.  Those changes keep every floating-point operation on the values
    returned, so this must give the same bits and raise the same errors."""
    E = complex(energy)
    S, w, T = eval_orbit(orbit, E)
    if w.real <= 0.0:
        raise NonConvergent(
            f"instability exponent must have positive real part, got w = {w!r}"
        )
    phase = 1j * (S / ctx.hbar - orbit.lam * math.pi / 2.0)
    grow = phase.real / w.real - 0.5
    spread = math.sqrt(gutzwiller._CUTOFF_LOG / w.real)
    if not grow + spread < gutzwiller._MAX_TERMS:
        raise gutzwiller._too_many_terms(E, w)
    split = math.ceil(max(0.0, grow)) + math.ceil(spread)
    first = min(split, math.ceil(max(0.0, (phase.real - gutzwiller._EXP_HUGE) / w.real - 0.5)))
    head = complex(-first)
    q = cmath.exp(-w)
    block, unit = gutzwiller._BLOCK, gutzwiller._NEAR_UNIT
    for start in range(first, split, block):
        z = cmath.exp(phase - (start + 0.5) * w)
        lead = phase.real - (start + 0.5) * w.real
        near = lead > -unit and lead - (block - 1) * w.real < unit
        for k in range(start, min(start + block, split)):
            one_minus = 1.0 - z
            if near and abs(one_minus) < gutzwiller._POLE_EPS:
                raise PoleProximity(
                    f"|1 - z_{k}| = {abs(one_minus):.3e} at E = {E!r}"
                )
            head += z / one_minus
            z *= q
    total = 2.0 * head
    ratio = cmath.exp(phase - split * w)
    power = 1.0
    half_w = w / 2.0
    terms = gutzwiller._MAX_TERMS - split
    stop = int(2.0 * gutzwiller._EXP_HUGE / w.real)
    for n in range(1, min(terms, stop) + 1):
        power *= ratio
        term = power / cmath.sinh(n * half_w)
        total += term
        if term == 0 or abs(term) < gutzwiller._TERM_CUTOFF * abs(total):
            break
    else:
        if stop >= terms:
            raise gutzwiller._too_many_terms(E, w)
    return -1j * T / (2.0 * ctx.hbar) * total


def exactly(evaluate, ctx, orbit, energy):
    """"value" and the value's parts as repr strings (signs of zeros and
    NaN kept), or the exception's type and message."""
    try:
        value = evaluate(ctx, orbit, energy)
    except (PoleProximity, NonConvergent) as exc:
        return type(exc), str(exc)
    return "value", repr(value.real), repr(value.imag)


def outcome(evaluate, orbit, energy):
    """The value, or the exception type with the k that PoleProximity names."""
    try:
        return evaluate(CTX, orbit, energy)
    except (PoleProximity, NonConvergent) as exc:
        named = re.search(r"z_(\d+)", str(exc))
        return type(exc), named and int(named.group(1))


def pole_distance(orbit, energy, hbar=1.0):
    """Distance from E to the nearest pole E_ks (k >= 0, any integer s),
    as one Newton step of the pole condition R_ks(E) = 0 from E: the
    smallest |R_ks / R_ks'| with R_ks = S - hbar (lam pi/2 - i w (k + 1/2)
    + 2 pi s)."""
    S, w, _ = eval_orbit(orbit, complex(energy))
    dS, dw = (naive_polyval(gutzwiller._polyder(coeffs), complex(energy))
              for coeffs in (orbit.s_coeffs, orbit.w_coeffs))
    kk = np.arange(2 * gutzwiller._MAX_TERMS) + 0.5
    residual = S - hbar * orbit.lam * math.pi / 2.0 + 1j * hbar * w * kk
    residual -= 2.0 * math.pi * hbar * np.round(residual.real / (2.0 * math.pi * hbar))
    return float(np.min(np.abs(residual / (dS + 1j * hbar * dw * kk))))


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

    # 10**400 overflows float(); 15 * 10**307 * pi / 2 is inf.  Any
    # evaluation of such an orbit would form lambda pi / 2, so the model
    # itself refuses it, in the words the orbit-file error repeats
    @pytest.mark.parametrize("lam", [10**400, 15 * 10**307], ids=["10**400", "15e307"])
    def test_lambda_past_the_float_range_rejected(self, lam):
        with pytest.raises(ValueError, match=re.escape(
                "field 'lambda' is too large: lambda pi / 2 is beyond the float range")):
            OrbitModel(name="big", s_coeffs=LINEAR.s_coeffs, w_coeffs=LINEAR.w_coeffs,
                       t_coeffs=LINEAR.t_coeffs, lam=lam)

    @pytest.mark.parametrize("field", ["s_coeffs", "w_coeffs", "t_coeffs"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_coefficients_rejected(self, field, bad):
        coeffs = {"s_coeffs": (3.0,), "w_coeffs": (0.5,), "t_coeffs": (1.0,)}
        coeffs[field] = (0.0, bad)
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            OrbitModel(name="bad", lam=0, **coeffs)

    # the checks orbit_from_dict makes on an orbit file, made by the model
    # itself: a coefficient is a real number other than a bool, within the
    # float range, and a refusal names the field without the huge integer
    @pytest.mark.parametrize("field", ["s_coeffs", "w_coeffs", "t_coeffs"])
    @pytest.mark.parametrize("bad, message", [
        ("1.5", "must hold real numbers, got '1.5'"),
        (True, "must hold real numbers, got True"),
        (1j, "must hold real numbers, got 1j"),
        (10**400, "holds a number beyond the float range"),
    ], ids=["string", "bool", "complex", "10**400"])
    def test_coefficients_that_are_not_floats_rejected(self, field, bad, message):
        coeffs = {"s_coeffs": (3.0,), "w_coeffs": (0.5,), "t_coeffs": (1.0,)}
        coeffs[field] = (bad, 2.0)
        with pytest.raises(ValueError) as info:
            OrbitModel(name="bad", lam=0, **coeffs)
        assert str(info.value) == f"{field} {message}"

    def test_integer_coefficients_become_floats(self):
        orbit = OrbitModel(name="ints", s_coeffs=(0, 2), w_coeffs=(np.int64(1),),
                           t_coeffs=(2,), lam=0)
        assert (orbit.s_coeffs, orbit.w_coeffs, orbit.t_coeffs) == ((0.0, 2.0), (1.0,), (2.0,))
        assert all(type(c) is float for c in orbit.s_coeffs + orbit.w_coeffs + orbit.t_coeffs)


@pytest.mark.parametrize("hbar", [0.0, -1.0, math.nan, math.inf])
def test_nonpositive_hbar_rejected(hbar):
    with pytest.raises(ValueError, match="hbar must be positive"):
        SemiclassicalContext(hbar=hbar)


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


@pytest.fixture
def calls(monkeypatch):
    """Counts of the head's exp, the tail's complex and real sinh, and the
    abs evaluations of the running sum ``total``."""
    counts = {"exp": 0, "sinh": 0, "real_sinh": 0, "abs_total": 0}

    def counted(name, function):
        def call(z):
            counts[name] += 1
            return function(z)
        return call

    def counted_abs(value):
        if sys._getframe(1).f_locals.get("total") is value:
            counts["abs_total"] += 1
        return abs(value)

    complex_math = SimpleNamespace(**vars(cmath))
    complex_math.exp = counted("exp", cmath.exp)
    complex_math.sinh = counted("sinh", cmath.sinh)
    real_math = SimpleNamespace(**vars(math))
    real_math.sinh = counted("real_sinh", math.sinh)
    monkeypatch.setattr(gutzwiller, "cmath", complex_math)
    monkeypatch.setattr(gutzwiller, "math", real_math)
    monkeypatch.setattr(gutzwiller, "abs", counted_abs, raising=False)
    return counts


class TestHeadTailSplit:
    """The k-sum as head plus tail: accuracy down to Re w = 1e-4, where the
    k-sum alone would need ~37 / Re w terms, poles and the term cap."""

    # (0.5, 0.3 - 1j): |z_k| > 1 for k < 12, more than the sqrt(37 / Re w)
    # ~ 9 extra head terms, so the head must cover those rows itself;
    # (0.5, 0.3 - 120j): Re log z_k > 700 for the first ~100 k, whose
    # terms 2 z_k / (1 - z_k) are -2 to double precision
    @pytest.mark.parametrize("w0, energy", [(1e-3, 0.3 + 0j), (1e-3, 0.7 + 1e-3j),
                                            (1e-3, 0.3 - 0.01j), (1e-4, 0.3 + 0j),
                                            (0.5, 0.3 - 1.0j), (0.5, 0.3 - 120j)])
    @pytest.mark.parametrize("make", [linear_orbit, quadratic_orbit])
    def test_matches_mpmath(self, make, w0, energy):
        orbit = make(w0)
        ours = response_function(CTX, orbit, energy)
        assert abs(ours - mpmath_response(orbit, energy)) <= 1e-12 * abs(ours)

    # At w0 = 0.01 the poles (k, 0) for k = 0 ... 17 fill every slot of the
    # first two blocks of 8 head terms and the first two of the third.  At
    # the (0.3, (2400, 0)) pole, Im E = -115, Re log z_k > 700 for the first
    # 67 rows, so the blocks start at k = 67 and the pole is in slot 5.
    @pytest.mark.parametrize("w0, idx", [(0.01, PoleIndex(k, 0)) for k in range(18)] + [
        (0.01, PoleIndex(3, 1)), (0.5, PoleIndex(20, 0)), (0.3, PoleIndex(2400, 0))])
    def test_pole_proximity_from_a_head_term(self, w0, idx):
        orbit = linear_orbit(w0)
        pole = find_pole(CTX, orbit, idx)
        with pytest.raises(PoleProximity, match=f"z_{idx.k}\\b"):
            response_function(CTX, orbit, pole)

    @pytest.mark.parametrize("make", [linear_orbit, quadratic_orbit])
    def test_agrees_with_the_per_term_loop(self, make):
        # Re w log-uniform over [1e-4, 2].  At Im E = -120, Re log z_k > 700
        # for the leading rows, and for Re w below ~0.08 the sum needs more
        # than 10**4 terms.
        rng = np.random.default_rng(22)
        seen = Counter()
        for im_e in (0.0, 0.01, -0.01, -1.0, -120.0):
            for _ in range(16):
                orbit = make(10.0 ** rng.uniform(-4.0, math.log10(2.0)))
                energy = complex(rng.uniform(0.05, 2.95), im_e)
                ours = outcome(response_function, orbit, energy)
                reference = outcome(per_term_response, orbit, energy)
                if isinstance(reference, tuple) or isinstance(ours, tuple):
                    assert ours == reference, energy
                    seen[reference[0]] += 1
                elif pole_distance(orbit, energy) >= 0.01:
                    assert abs(ours - reference) <= 1e-13 * abs(reference), energy
                    seen["compared"] += 1
                else:
                    seen["near a pole"] += 1
        assert seen["compared"] >= 40 and seen[NonConvergent] >= 5

    @pytest.mark.parametrize("make", [linear_orbit, quadratic_orbit])
    @pytest.mark.parametrize("w0, idx", [(1e-3, PoleIndex(0, 0)), (1e-3, PoleIndex(45, 2)),
                                         (0.01, PoleIndex(9, 1)), (0.5, PoleIndex(20, 0)),
                                         (2.0, PoleIndex(3, 2)), (0.3, PoleIndex(2400, 0))])
    def test_raises_what_the_per_term_loop_raises(self, make, w0, idx):
        # the quadratic orbit's (2400, 0) pole needs more than 10**4 terms
        orbit = make(w0)
        pole = find_pole(CTX, orbit, idx)
        reference = outcome(per_term_response, orbit, pole)
        assert reference in {(PoleProximity, idx.k), (NonConvergent, None)}
        assert outcome(response_function, orbit, pole) == reference

    # n Re w / 2 reaches 700 at n = 1000 for Re w = 1.4 and at n = 1 for
    # Re w = 1400: the last tail term before sinh would overflow
    @pytest.mark.parametrize("w0", [edge for w0 in (1.4, 1400.0) for edge in
                                    (math.nextafter(w0, 0.0), w0, math.nextafter(w0, math.inf))])
    def test_tail_stop_at_its_edges(self, w0):
        orbit = linear_orbit(w0)
        reference = per_term_response(CTX, orbit, 0.3 + 0j)
        ours = response_function(CTX, orbit, 0.3 + 0j)
        assert abs(ours - reference) <= 1e-13 * abs(reference)

    def test_terms_scale_as_inverse_sqrt_w(self, calls):
        # ~2 sqrt(37 / Re w) = 1,214 terms; the k-sum alone needs ~37 / Re w.
        # The head's K = ceil(sqrt(37 / Re w)) = 607 terms take one exp per
        # block of 8, plus one each for e^{-w} and the tail's ratio r.  On the
        # real axis |r| = e^{-K Re w}, so the tail falls by 1e-16 within
        # 37 / (K Re w) ~ 607 terms.
        w0 = 1e-4
        head = math.ceil(math.sqrt(gutzwiller._CUTOFF_LOG / w0))
        response_function(CTX, linear_orbit(w0), 0.3 + 0j)
        assert calls["exp"] <= math.ceil(head / 8) + 2
        assert calls["real_sinh"] <= math.ceil(gutzwiller._CUTOFF_LOG / (head * w0))
        assert calls["sinh"] == 0

    # Re w = 1e-10: sqrt(37 / Re w) ~ 6e5 head terms; E = 0.3 - 1000i:
    # |z_k| > 1 for the first ~12,600 k
    @pytest.mark.parametrize("orbit, energy", [(linear_orbit(1e-10), 0.3 + 0j),
                                               (LINEAR, 0.3 - 1000j)])
    def test_oversized_head_is_refused_before_summing(self, calls, orbit, energy):
        with pytest.raises(NonConvergent, match="10000 terms"):
            response_function(CTX, orbit, energy)
        assert calls == {"exp": 0, "sinh": 0, "real_sinh": 0, "abs_total": 0}

    def test_overlong_tail_raises(self):
        # the head (~6,100 terms) fits the cap, head plus tail does not
        with pytest.raises(NonConvergent, match="10000 terms"):
            response_function(CTX, linear_orbit(1e-6), 0.3 + 0j)


def corpus_orbit(rng, w0):
    """A seeded orbit of either family, with lambda = 0 ... 3."""
    s0 = rng.uniform(-0.05, 0.05)
    s1 = 2.0 * math.pi * (1.0 + rng.uniform(-0.02, 0.02))
    lam = rng.randrange(4)
    if rng.random() < 0.5:
        return OrbitModel(name="linear", s_coeffs=(s0, s1), w_coeffs=(w0,),
                          t_coeffs=(s1,), lam=lam)
    s2 = 0.1 * (1.0 + rng.uniform(-0.2, 0.2))
    return OrbitModel(name="quadratic", s_coeffs=(s0, s1, s2), w_coeffs=(w0, 0.02 * w0),
                      t_coeffs=(s1, 2.0 * s2), lam=lam)


class TestFrozenKernel:
    """``response_function`` against ``frozen_response``, == part by part:
    the stop pre-test must stop at the same n, the real-axis math.sinh
    must divide by the same bits, and the split head loop must raise the
    same PoleProximity."""

    # n Re w / 2 reaches 700 at n = 1000 for Re w = 1.4 and at n = 1 for
    # Re w = 1400, so the overflow stop moves by one term across them
    EDGES = [edge for w0 in (1.4, 1400.0) for edge in
             (math.nextafter(w0, -math.inf), w0, math.nextafter(w0, math.inf))]

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_corpus(self, seed):
        # Re w log-uniform over [1e-4, 1500] and the tail-stop edges; real
        # energies with a +0.0 or -0.0 imaginary part, Im E down to -150
        # and up to 0.3; hbar 1, 0.5, 2 and 1e-3
        rng = random.Random(seed)
        seen = Counter()
        for i in range(2000):
            if i % 10 == 0:
                w0 = rng.choice(self.EDGES)
            else:
                w0 = 10.0 ** rng.uniform(-4.0, math.log10(1500.0))
            orbit = corpus_orbit(rng, w0)
            ctx = SemiclassicalContext(rng.choice((1.0, 0.5, 2.0, 1e-3)))
            kind = rng.random()
            if kind < 0.4:
                im_e = rng.choice((0.0, -0.0))
            elif kind < 0.9:
                im_e = -150.0 * rng.random() ** 3
            else:
                im_e = rng.uniform(-0.3, 0.3)
            energy = complex(rng.uniform(-3.0, 6.0), im_e)
            ours = exactly(response_function, ctx, orbit, energy)
            assert ours == exactly(frozen_response, ctx, orbit, energy), (orbit, ctx, energy)
            seen[ours[0]] += 1
        assert seen["value"] >= 1200 and seen[NonConvergent] >= 200

    def test_near_poles(self):
        # PoleProximity names the same k, and the values just outside the
        # exclusion radius are the same
        rng = random.Random(35)
        seen = Counter()
        for _ in range(60):
            orbit = corpus_orbit(rng, 10.0 ** rng.uniform(-2.0, 1.0))
            ctx = SemiclassicalContext(rng.choice((1.0, 0.5, 2.0)))
            pole = find_pole(ctx, orbit, PoleIndex(rng.randrange(4), rng.randrange(4)))
            for distance in (0.0, 1e-13, 3e-13, 1e-12, 1e-11, 1e-9, 1e-6):
                energy = pole + distance * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
                ours = exactly(response_function, ctx, orbit, energy)
                assert ours == exactly(frozen_response, ctx, orbit, energy), (orbit, energy)
                seen[ours[0]] += 1
        assert seen[PoleProximity] >= 60 and seen["value"] >= 200

    @pytest.mark.parametrize("w0", [1e-4, 1e-3, 0.01, 0.1, 0.5, 1.4, 5.0])
    def test_aligned_phase(self, w0):
        # S(E) - lam pi / 2 = 0 mod 2 pi and +-4 ulps: every term is nearly
        # a positive real, so |total| comes closest to the running sum of
        # magnitudes that the stop pre-test uses
        for lam in range(4):
            orbit = OrbitModel(name="linear", s_coeffs=(0.0, 2.0 * math.pi), w_coeffs=(w0,),
                               t_coeffs=(2.0 * math.pi,), lam=lam)
            for s in range(-2, 4):
                aligned = lam / 4.0 + s
                energies = [aligned]
                for direction in (-math.inf, math.inf):
                    e = aligned
                    for _ in range(4):
                        e = math.nextafter(e, direction)
                        energies.append(e)
                for e in energies:
                    ours = exactly(response_function, CTX, orbit, complex(e, 0.0))
                    assert ours == exactly(frozen_response, CTX, orbit, complex(e, 0.0)), e

    def test_work_on_the_response_golden(self, calls):
        # The 52 energies of tests/data/response_scan.csv each sum 8 tail
        # terms.  The frozen kernel takes |total| for every one of them;
        # here it is taken for the bound and then by one exact stop test
        # (two at the quadratic orbit's E = 2.4).  Where w is real they
        # divide by math.sinh: at the 50 real energies, and at 1 - 0.05i on
        # the linear orbit, whose w is the constant 0.5; the quadratic
        # orbit's w(1 - 0.05i) is complex, and takes cmath.sinh.
        energies = [complex(x / 100, 0.0) for x in range(30, 271, 10)] + [1 - 0.05j]
        work = Counter()
        for name in ("linear_orbit", "quadratic_orbit"):
            orbit = load_orbit(DEMO_ORBITS / f"{name}.json")
            for energy in energies:
                before = dict(calls)
                response_function(CTX, orbit, energy)
                work[tuple(calls[key] - before[key]
                           for key in ("abs_total", "real_sinh", "sinh"))] += 1
        assert work == Counter({(2, 8, 0): 50, (3, 8, 0): 1, (2, 0, 8): 1})

    @pytest.mark.parametrize("hbar", [1.0, 1e-3])
    @pytest.mark.parametrize("orbit", [LINEAR, QUADRATIC])
    def test_hostile_energies(self, orbit, hbar):
        # zero terms on a zero sum (everything underflows far above the
        # axis), NaN and infinite parts, exponents past overflow
        parts = [0.0, -0.0, 1.0, -1.0, 5e-324, 200.0, 1e8, 1e200, 1e308, -1e308,
                 math.inf, -math.inf, math.nan]
        ctx = SemiclassicalContext(hbar)
        for re_e in parts:
            for im_e in parts:
                energy = complex(re_e, im_e)
                ours = exactly(response_function, ctx, orbit, energy)
                assert ours == exactly(frozen_response, ctx, orbit, energy), energy


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

    def test_small_x_against_mpmath(self):
        # 1 - e^{-2x} by subtraction is 0 below x ~ 5.6e-17 and 10% off at
        # 1e-16; by expm1 the worst relative error here measures 1.12e-16
        import mpmath as mp

        with mp.workdps(40):
            for x in (1e-300, 1e-17, 1e-16, 1e-9, 1e-4):
                for n_kept in (0, 1, 3, 10, 100):
                    xm = mp.mpf(x)
                    exact = 2 * mp.exp(-(2 * n_kept + 3) * xm) / -mp.expm1(-2 * xm)
                    ours = sinh_expansion_error(x, n_kept)
                    assert abs(ours - exact) <= 2.5e-16 * exact, (x, n_kept)

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


# Integers past the float range: each is refused at validation by a
# ValueError naming its field, not by an OverflowError in a later sum, and
# the message does not print the integer (repr refuses one of more than
# 4,300 digits); find_pole refuses an index whose pole condition overflows
# before its first iteration
@pytest.mark.parametrize("build, message", [
    (lambda: PoleIndex(10**400, 0), "k is too large: k is beyond the float range"),
    (lambda: PoleIndex(0, 10**400), "s is too large: s is beyond the float range"),
    (lambda: sinh_expansion_error(1.0, 10**400),
     "n_kept is too large: n_kept is beyond the float range"),
    (lambda: PoleIndex(-10**5000, 0),
     "k must be a nonnegative integer, got an integer beyond the float range"),
    (lambda: PoleIndex(0, -10**5000),
     "s must be a nonnegative integer, got an integer beyond the float range"),
    (lambda: sinh_expansion_error(1.0, -10**5000),
     "n_kept must be a nonnegative integer, got an integer beyond the float range"),
    (lambda: OrbitModel(name="big", s_coeffs=(0.0, 1.0), w_coeffs=(0.5,), t_coeffs=(1.0,),
                        lam=-10**5000),
     "focal-point count lambda must be a nonnegative integer, got an integer beyond the "
     "float range"),
    (lambda: sinh_expansion_error(10**400, 0), "x is too large: x is beyond the float range"),
    (lambda: find_pole(CTX, LINEAR, PoleIndex(0, 10**308)),
     "s is too large: 2 pi s hbar is beyond the float range"),
    (lambda: find_pole(SemiclassicalContext(hbar=10.0), LINEAR, PoleIndex(10**308, 0)),
     "k is too large: hbar (k + 1/2) is beyond the float range"),
], ids=["k", "s", "n_kept", "negative k", "negative s", "negative n_kept", "negative lambda",
        "x", "pole condition s", "pole condition k"])
def test_integers_past_the_float_range_rejected(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


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

    def test_newton_budget_exhausted(self, monkeypatch):
        # The quadratic orbit's default guess needs more than one step, and
        # so do huge indices from a guess far off their poles; the message
        # shows an index of more than 20 digits to 4 digits.
        monkeypatch.setattr(gutzwiller, "_MAX_NEWTON", 1)
        for orbit, idx, guess, shown in [
            (QUADRATIC, PoleIndex(0, 0), None, "k=0, s=0"),
            (LINEAR, PoleIndex(10**307, 0), 0j, "k=1.000e+307, s=0"),
            (QUADRATIC, PoleIndex(0, 10**300), 0j, "k=0, s=1.000e+300"),
        ]:
            with pytest.raises(NewtonDiverged) as info:
                find_pole(CTX, orbit, idx, guess)
            assert str(info.value) == f"pole search for ({shown}) did not converge in 1 iterations"

    @pytest.mark.parametrize("orbit, idx", [
        (LINEAR, PoleIndex(25_800, 0)),
        (LINEAR, PoleIndex(10**6, 3)),
        (LINEAR, PoleIndex(10**307, 0)),
        (QUADRATIC, PoleIndex(13_500, 0)),
        (QUADRATIC, PoleIndex(10**6, 3)),
    ])
    def test_converges_where_the_residual_rounds_past_1e_12(self, orbit, idx):
        # S(E) and hbar w(E) (k + 1/2) round to more than 1e-12 here, so no
        # iterate's residual is within 1e-12 of 0: the bound is a few ulps
        # of the terms the residual sums (the quadratic orbit's S and w
        # cancel to |S| ~ 64 and |w| ~ 0.007 at k = 13,500)
        pole = find_pole(CTX, orbit, idx)
        scale = gutzwiller._residual_scale(CTX, orbit, pole, idx)
        assert scale > 2048
        assert 1e-12 < 4 * math.ulp(scale)
        assert abs(pole_residual(CTX, orbit, pole, idx)) <= 4 * math.ulp(scale)
        if orbit is LINEAR:
            expected = closed_form_pole(idx.k, idx.s)
            assert abs(pole - expected) <= 4 * math.ulp(abs(expected))

    def test_residual_bound_is_1e_12_below_a_term_sum_of_2048(self):
        # no pole of the default (k, s) rectangle, the golden files or the
        # lattices above moves: there the bound is the absolute 1e-12
        assert 4 * math.ulp(2047.9) < 1e-12 < 4 * math.ulp(2048.0)
        for orbit in (LINEAR, QUADRATIC):
            for k in range(4):
                for s in range(4):
                    idx = PoleIndex(k, s)
                    pole = find_pole(CTX, orbit, idx)
                    assert gutzwiller._residual_scale(CTX, orbit, pole, idx) < 2048
                    assert abs(pole_residual(CTX, orbit, pole, idx)) <= 1e-12

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

    @pytest.mark.parametrize("document", [[], "orbit", None, 2.0])
    def test_non_object_document(self, document):
        with pytest.raises(OrbitSchemaError, match="document must be a JSON object"):
            orbit_from_dict(document)

    @pytest.mark.parametrize("name", [None, 7, ["d"]])
    def test_non_string_name_names_the_field(self, name):
        with pytest.raises(OrbitSchemaError, match="'name' must be a string"):
            orbit_from_dict({"name": name, "lambda": 0, "S": [0.0, 1.0], "w": [0.5]})

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

    def test_integer_past_the_float_range_names_the_field(self, tmp_path):
        # float(10**400) raises OverflowError
        path = tmp_path / "orbit.json"
        path.write_text('{"name": "d", "lambda": 0, "S": [0.0, 1' + "0" * 400 + '], "w": [0.5]}',
                        encoding="utf-8")
        with pytest.raises(OrbitSchemaError,
                           match=re.escape(f"{path}: field 'S' holds an integer beyond the "
                                           "float range")):
            load_orbit(path)

    @pytest.mark.parametrize("field", ["S", "w", "T"])
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_coefficient_names_the_field(self, tmp_path, field, value):
        # json reads NaN and Infinity as floats
        path = tmp_path / "orbit.json"
        document = {"name": "d", "lambda": 0, "S": [0.0, 2.0], "w": [0.5], "T": [2.0]}
        text = json.dumps(document).replace(f'"{field}": [', f'"{field}": [{value}, ')
        path.write_text(text, encoding="utf-8")
        with pytest.raises(OrbitSchemaError,
                           match=re.escape(f"{path}: field '{field}' holds a non-finite "
                                           "number")):
            load_orbit(path)

    def test_integer_too_long_to_read_names_the_file(self, tmp_path):
        # json.loads raises a plain ValueError for an integer of more than
        # sys.get_int_max_str_digits() digits (4300 by default); a Python
        # without that limit reads it and float() overflows instead
        path = tmp_path / "orbit.json"
        path.write_text('{"name": "d", "lambda": 0, "S": [0.0, 1.0], "w": [1' + "0" * 5000 + "]}",
                        encoding="utf-8")
        with pytest.raises(OrbitSchemaError, match=re.escape(f"{path}: ")):
            load_orbit(path)

    def test_inconsistent_data_reported_as_schema_error(self):
        with pytest.raises(OrbitSchemaError, match="dS/dE"):
            orbit_from_dict(
                {"name": "d", "lambda": 0, "S": [0.0, 2.0], "w": [0.5], "T": [1.0]}
            )
