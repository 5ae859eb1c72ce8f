"""Property tests: the CLI number parsers, the turning-point solver and the
resummed response function."""

import io
import math
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from semiclassics import (
    CoincidentRoots,
    CubicModel,
    SemiclassicalContext,
    response_function,
    turning_points,
)
from semiclassics.cli import _build_parser, main
from semiclassics.gutzwiller import OrbitModel
from tests.test_cubic import mpmath_roots
from tests.test_gutzwiller import double_sum_response, mpmath_response

# Flag texts: arbitrary strings, and the renderings of floats and integers
# (infinities, NaN, signs and exponents included) that a user might type.
NUMBER_TEXT = st.one_of(
    st.text(max_size=12),
    st.floats().map(repr),
    st.integers(min_value=-10**6, max_value=10**6).map(str),
    st.sampled_from(["", " 1.5 ", "1_000", "+3", "1e400", "-0", "0x10", "inf", "nan"]),
)
PAIR_TEXT = st.one_of(
    st.builds("re={},im={}".format, NUMBER_TEXT, NUMBER_TEXT),
    st.builds("im={},re={}".format, NUMBER_TEXT, NUMBER_TEXT),
    st.text(alphabet="reim=,.0123456789-+e", max_size=16),
)
# Derandomized, so every run checks the same examples.
PARSER_SETTINGS = settings(deadline=None, max_examples=100, derandomize=True)


def _as_float(text):
    try:
        return float(text)
    except ValueError:
        return None


def _as_count(text):
    try:
        return int(text)
    except ValueError:
        return None


def _as_energy(text):
    """A finite float, or re=..,im=.. with finite parts, each given once."""
    if "=" not in text:
        value = _as_float(text)
        return complex(value, 0.0) if value is not None and math.isfinite(value) else None
    parts = {}
    items = text.split(",")
    for item in items:
        key, _, value = item.partition("=")
        number = _as_float(value)
        if key not in ("re", "im") or number is None or not math.isfinite(number):
            return None
        parts[key] = number
    return complex(parts["re"], parts["im"]) if len(parts) == len(items) == 2 else None


def _parses_or_is_usage_error(argv, parsed, expected):
    """argv either parses to a finite value equal to ``expected`` (None when
    the text is not acceptable) or makes main() return 2 with nothing on
    stdout and no traceback.  A text starting with '-' that argparse takes
    for an option is a usage error too."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit:
            args = None
            code = main(argv)
    if args is None:
        assert code == 2
        assert out.getvalue() == ""
        assert "Traceback" not in err.getvalue()
        assert expected is None or argv[-1].startswith("-")
        return
    value = parsed(args)
    assert expected is not None
    assert value == expected
    assert math.isfinite(complex(value).real) and math.isfinite(complex(value).imag)


@PARSER_SETTINGS
@given(text=NUMBER_TEXT)
def test_coupling_flag(text):
    value = _as_float(text)
    expected = value if value is not None and math.isfinite(value) and value > 0 else None
    _parses_or_is_usage_error(["tau", "--g", text], lambda a: a.g[0], expected)


@PARSER_SETTINGS
@given(text=NUMBER_TEXT)
def test_horizon_flag(text):
    value = _as_float(text)
    expected = value if value is not None and math.isfinite(value) and value >= 0 else None
    argv = ["crossing-time", "--g", "0.1", "--t-max", text]
    _parses_or_is_usage_error(argv, lambda a: a.t_max, expected)


@PARSER_SETTINGS
@given(text=NUMBER_TEXT)
def test_count_flag(text):
    value = _as_count(text)
    expected = value if value is not None and value >= 0 else None
    argv = ["gutzwiller", "poles", "--orbit", "orbit.json", "--k-max", text]
    _parses_or_is_usage_error(argv, lambda a: a.k_max, expected)


@PARSER_SETTINGS
@given(text=PAIR_TEXT)
def test_complex_energy_flag(text):
    argv = ["gutzwiller", "eval", "--orbit", "orbit.json", "--energy", text]
    _parses_or_is_usage_error(argv, lambda a: a.energy, _as_energy(text))


@settings(deadline=None, max_examples=200, derandomize=True)
@given(
    g=st.floats(0.05, 0.2),
    re_e=st.floats(0.05, 2.0),
    im_e=st.floats(0.02, 0.6),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_turning_points_vieta_and_residuals(g, re_e, im_e, sign):
    energy = complex(re_e, sign * im_e)
    model = CubicModel(g)
    x1, x2, x3 = turning_points(model, energy)
    pair_scale = max(abs(x1 * x2), abs(x1 * x3), abs(x2 * x3))
    assert abs(x1 + x2 + x3 - 1.0 / (2.0 * g)) <= 1e-10 * max(1.0, 1.0 / (2.0 * g))
    assert abs(x1 * x2 + x1 * x3 + x2 * x3) <= 1e-10 * pair_scale
    assert abs(x1 * x2 * x3 + energy / g) <= 1e-10 * max(1.0, abs(energy) / g)
    for root in (x1, x2, x3):
        assert abs(model.potential(root) - energy) <= 1e-12 * max(1.0, abs(energy))


@st.composite
def couplings_and_energies(draw):
    """g log-uniform over [1e-3, 30]; Re E of either sign from 1e-12 to 1e8
    or within 1e-2 to 1e-12 relative of the barrier top; Im E zero or of
    either sign from 1e-12 to 1e8."""
    g = 10.0 ** draw(st.floats(-3.0, math.log10(30.0)))
    top = 1.0 / (54.0 * g * g)
    sign = st.sampled_from([-1.0, 1.0])
    decades = st.builds(lambda s, a: s * 10.0 ** a, sign, st.floats(-12.0, 8.0))
    near_top = st.builds(lambda s, a: top * (1.0 + s * 10.0 ** a), sign, st.floats(-12.0, -2.0))
    re_e = draw(st.one_of(decades, near_top))
    im_e = draw(st.one_of(st.just(0.0), decades))
    return g, complex(re_e, im_e)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(case=couplings_and_energies())
def test_turning_points_match_mpmath(case):
    g, energy = case
    reference = [complex(r) for r in mpmath_roots(g, energy)]
    try:
        roots = list(turning_points(CubicModel(g), energy))
    except CoincidentRoots:
        gap = min(abs(a - b) for i, a in enumerate(reference) for b in reference[i + 1:])
        assert energy == CubicModel(g).barrier_height or gap < 1e-8
        return
    for x in roots:
        ref = min(reference, key=lambda r: abs(r - x))
        assert abs(x - ref) <= 2e-15 * abs(ref)
    if energy.imag == 0.0:
        x1, x2, x3 = roots
        if 0 < Fraction(energy.real) < 1 / (54 * Fraction(g) ** 2):
            assert x1.imag == x2.imag == x3.imag == 0.0
        else:
            real, (lower, upper) = (x1, (x2, x3)) if energy.real > 0 else (x3, (x1, x2))
            assert real.imag == 0.0
            assert lower == upper.conjugate() and upper.imag > 0.0


# Orbits drawn over the ranges of tests.test_gutzwiller.random_orbit: the
# period is dS/dE, and Re w stays at or above 0.35 on real E in [-1, 1].
ORBITS = st.builds(
    lambda s, w, lam: OrbitModel(
        name="random", s_coeffs=s, w_coeffs=w, t_coeffs=(s[1], 2.0 * s[2]), lam=lam
    ),
    st.tuples(st.floats(-2.0, 2.0), st.floats(2.0, 8.0), st.floats(-0.3, 0.3)),
    st.tuples(st.floats(0.4, 2.0), st.floats(-0.05, 0.05)),
    st.integers(0, 4),
)


@settings(deadline=None, max_examples=100, derandomize=True)
@given(orbit=ORBITS, energy=st.floats(-1.0, 1.0))
def test_response_function_matches_double_sum(orbit, energy):
    ours = response_function(SemiclassicalContext(), orbit, complex(energy))
    assert abs(ours - double_sum_response(orbit, energy)) <= 1e-12 * abs(ours)


# Both orbit families with Re w log-uniform over [1e-3, 2] (to within the
# 2% slope of the quadratic family's w), far below the floor of ORBITS:
# the k-sum alone needs up to ~4e4 terms there.
SLOW_ORBITS = st.builds(
    lambda s, w0, w1, lam, quadratic: OrbitModel(
        name="slow", s_coeffs=s if quadratic else s[:2],
        w_coeffs=(w0, w1 * w0) if quadratic else (w0,),
        t_coeffs=(s[1], 2.0 * s[2]) if quadratic else (s[1],), lam=lam,
    ),
    st.tuples(st.floats(-2.0, 2.0), st.floats(2.0, 8.0), st.floats(-0.3, 0.3)),
    st.floats(-3.0, math.log10(2.0)).map(lambda x: 10.0 ** x),
    st.floats(-0.02, 0.02),
    st.integers(0, 4),
    st.booleans(),
)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(orbit=SLOW_ORBITS, re_e=st.floats(-1.0, 1.0), im_e=st.floats(-0.05, 0.05))
def test_response_function_matches_mpmath_at_small_w(orbit, re_e, im_e):
    energy = complex(re_e, im_e)
    ours = response_function(SemiclassicalContext(), orbit, energy)
    assert abs(ours - mpmath_response(orbit, energy)) <= 1e-12 * abs(ours)
