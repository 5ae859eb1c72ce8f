"""Property tests: the CLI number parsers and the turning-point solver."""

import io
import math
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from semiclassics import CubicModel, turning_points
from semiclassics.cli import _build_parser, main

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
