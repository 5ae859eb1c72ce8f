"""Single-orbit semiclassical response function and its resonance poles.

One unstable periodic orbit enters through polynomial models (ascending
coefficients) of its action S(E), instability exponent w(E) and period
T(E), plus the integer count of focal points per period.  The orbit's
contribution to the trace of the Green function,

    g(E) ~ -(i T / 2 hbar) * sum_{n>=1} exp{i n [S/hbar - lam*pi/2]}
                                        / sinh(n w / 2),

is evaluated in resummed form: expanding 1/sinh and summing the
geometric series over the repetition number n gives

    g(E) = -(i T / 2 hbar) * sum_{k>=0} 2 z_k / (1 - z_k),
    z_k  = exp{i (S/hbar - lam*pi/2) - (k + 1/2) w}.

Its terms decay only as e^{-k Re w}, so ``response_function`` sums the
first K of them and the rest, by the same expansion read backwards, as
the repetition sum with 1/sinh kept and each repetition damped by
e^{-n K w}; with K ~ sqrt(37 / Re w) both parts need about that many
terms (Lambert-series splitting; the resummed form is that of
Gutzwiller, *Chaos in Classical and Quantum Mechanics*, 1990).  A head
term costs one complex product: z_{k+1} = z_k e^{-w}, re-anchored by one
exp at the start of every block of 8 terms, so each z_k is at most 7
products from an exact exp.  The pole check |1 - z_k| < 1e-12 runs only
in blocks where Re log z_k comes within 1e-6 of 0, and the tail's
overflow stop is computed once.  The tail's exact stop test, which
takes |total|, runs only once a term is below 2e-16 of the running sum
of magnitudes, and where w / 2 is real it divides by math.sinh, with
the bits of cmath.sinh.

The poles z_k = 1 form a lattice of complex energies E_ks indexed by
the instability quantum k and the action quantum s:

    S(E_ks) = hbar*lam*pi/2 - i hbar w(E_ks) (k + 1/2) + 2 pi s hbar.

``find_pole`` solves this condition by complex Newton iteration with
analytic polynomial derivatives.
"""

import cmath
import json
import math
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    DegenerateAction,
    NewtonDiverged,
    NonConvergent,
    OrbitSchemaError,
    PoleProximity,
)

__all__ = [
    "OrbitModel",
    "PoleIndex",
    "SemiclassicalContext",
    "eval_orbit",
    "find_pole",
    "load_orbit",
    "orbit_from_dict",
    "pole_residual",
    "response_function",
    "sinh_expansion_error",
]

_POLE_EPS = 1e-12
_TERM_CUTOFF = 1e-16
# The tail's pre-test on the running sum of term magnitudes (exactly 2e-16).
_LOOSE_CUTOFF = 2.0 * _TERM_CUTOFF
# e-folds that take a term below _TERM_CUTOFF: ln(1e16) ~ 36.8.
_CUTOFF_LOG = -math.log(_TERM_CUTOFF)
_MAX_TERMS = 10 ** 4
_RESIDUAL_TOL = 1e-12
# ulps of the residual's term sum (_residual_scale) a converged residual
# may hold: more than _RESIDUAL_TOL only from a sum of 2048 on
_RESIDUAL_ULPS = 4
_STEP_TOL = 1e-13
_MAX_NEWTON = 50
# exp() overflows past ~709; beyond this z_k/(1 - z_k) is -1 to 1e-300.
_EXP_HUGE = 700.0
# Head terms per exp: the others are z_{k+1} = z_k e^{-w}.
_BLOCK = 8
# Blocks whose |Re log z_k| all exceed this cannot hold a pole.
_NEAR_UNIT = 1e-6


@dataclass(frozen=True)
class SemiclassicalContext:
    """Carries hbar so the hbar-scaling of the pole lattice is testable."""

    hbar: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise ValueError(f"hbar must be positive, got {self.hbar!r}")


@dataclass(frozen=True)
class PoleIndex:
    """Lattice index: k counts instability quanta, s action quanta."""

    k: int
    s: int

    def __post_init__(self):
        for name in ("k", "s"):
            _check_count(name, getattr(self, name))


def _shown(value):
    """repr(value), except for an int of more than 20 digits: named past
    the float range, where repr may refuse to print it (past 4,300 digits
    by default), and shown to 4 digits within it."""
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        return "an integer beyond the float range"
    return f"{value:.3e}" if isinstance(value, int) and abs(value) >= 10**20 else repr(value)


def _check_float(name, form, *factors):
    """Raise a ValueError naming ``name`` unless the product of ``factors``,
    which a later sum forms as ``form``, is a finite float; an int factor
    past the float range fails too, and no factor is printed."""
    try:
        finite = math.isfinite(math.prod(map(float, factors)))
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"{name} is too large: {form} is beyond the float range")


def _check_count(name, value):
    """Raise a ValueError naming ``name`` unless ``value`` is a nonnegative
    int that a float holds: every use converts it to one."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {_shown(value)}")
    _check_float(name, name, value)


def _coefficient(field, value):
    """float(value) for a real number that is not a bool, or a ValueError
    naming ``field``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{field} must hold real numbers, got {_shown(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{field} holds a number beyond the float range") from None


def _polyval(coeffs, z):
    """Horner evaluation with ascending coefficients; empty means 0."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _polyder(coeffs):
    return tuple(k * c for k, c in enumerate(coeffs))[1:]


@dataclass(frozen=True)
class OrbitModel:
    """Polynomial data of one unstable periodic orbit.

    ``s_coeffs``, ``w_coeffs`` and ``t_coeffs`` are ascending-power
    coefficients of S(E), w(E) and T(E), each a real number other than a
    bool, stored as a finite float; ``lam`` is the number of focal points
    per period.  When both S and T carry actual E-dependence the
    classical identity dS/dE = T(E) is checked on a sample grid at
    construction.
    """

    name: str
    s_coeffs: tuple
    w_coeffs: tuple
    t_coeffs: tuple
    lam: int

    def __post_init__(self):
        for field in ("s_coeffs", "w_coeffs", "t_coeffs"):
            coeffs = tuple(_coefficient(field, c) for c in getattr(self, field))
            if any(not math.isfinite(c) for c in coeffs):
                raise ValueError(f"{field} must be finite, got {coeffs!r}")
            object.__setattr__(self, field, coeffs)
        if not isinstance(self.lam, int) or isinstance(self.lam, bool) or self.lam < 0:
            raise ValueError(
                f"focal-point count lambda must be a nonnegative integer, got {_shown(self.lam)}"
            )
        # every evaluation forms the phase lambda pi / 2 as a float
        _check_float("field 'lambda'", "lambda pi / 2", self.lam, math.pi, 0.5)
        # dS/dE = T on 10 sample energies, when both sides are present.
        if len(self.t_coeffs) >= 1 and len(self.s_coeffs) >= 2:
            ds = _polyder(self.s_coeffs)
            for i in range(10):
                e = -1.0 + 2.0 * i / 9.0
                lhs = _polyval(ds, e)
                rhs = _polyval(self.t_coeffs, e)
                if abs(lhs - rhs) > 1e-8 * max(1.0, abs(rhs)):
                    raise ValueError(
                        f"inconsistent orbit data: dS/dE = {lhs.real:.10g} but "
                        f"T = {rhs.real:.10g} at E = {e:.3f}"
                    )


def eval_orbit(orbit: OrbitModel, energy) -> tuple:
    """Evaluate (S, w, T) at a complex energy."""
    E = complex(energy)
    return (
        _polyval(orbit.s_coeffs, E),
        _polyval(orbit.w_coeffs, E),
        _polyval(orbit.t_coeffs, E),
    )


def response_function(ctx: SemiclassicalContext, orbit: OrbitModel, energy) -> complex:
    """Resummed single-orbit response g(E).

    The k-sum is split at K into a head, summed term by term, and a tail
    summed as a repetition sum with an extra damping e^{-n K w}:

        sum_{k>=K} 2 z_k / (1 - z_k) = sum_{n>=1} r^n / sinh(n w / 2),
        r = exp{i (S/hbar - lam*pi/2) - K w}.

    The head holds every k with |z_k| >= 1, so a pole z_k = 1 is always
    met there, and sqrt(37 / Re w) terms more.  Then
    |z_K| <= exp(-sqrt(37 Re w)), and the tail needs about as many terms
    as the head: ~2 sqrt(37 / Re w) in all on the real axis, instead of
    the ~37 / Re w of the k-sum alone.  The tail stops once a term falls
    below 1e-16 of the running sum, or at the n where sinh(n w / 2)
    would overflow, found before the loop.  That test takes |total|
    only for terms below 2e-16 of the sum of |total| after the head and
    every |term| since, a bound on |total| that every stopping term
    meets; where Im(w / 2) = 0, as at every real energy of an orbit
    with real coefficients, 1 / sinh(n w / 2) is the real
    1 / math.sinh(n Re w / 2), the same bits as the complex sinh.

    The leading head terms with Re log z_k > 700 are -1 to double
    precision and are counted, not summed.  The rest take z_k from
    z_{k-1} e^{-w}, with one exp(i (S/hbar - lam*pi/2) - (k + 1/2) w) at
    the start of every block of 8, so their rounding stays that of the
    direct exp.  |1 - z_k| >= ||z_k| - 1| > 1e-6 wherever
    |Re log z_k| > 1e-6, so only the blocks that reach |Re log z_k| <= 1e-6
    check for a pole.

    Raises
    ------
    PoleProximity
        If some |1 - z_k| < 1e-12 (E within the exclusion radius of a
        pole E_ks).
    NonConvergent
        If Re w(E) <= 0, so the k-sum does not decay, or if head and tail
        together would need more than 10**4 terms (Re w below ~1.2e-6 on
        the real axis, or E far below the real axis).  An oversized head
        is refused before any term is summed.
    """
    E = complex(energy)
    S, w, T = eval_orbit(orbit, E)
    w_re = w.real
    if w_re <= 0.0:
        raise NonConvergent(
            f"instability exponent must have positive real part, got w = {w!r}"
        )
    phase = 1j * (S / ctx.hbar - orbit.lam * math.pi / 2.0)
    phase_re = phase.real
    # |z_k| <= 1 from k = grow on.
    grow = phase_re / w_re - 0.5
    spread = math.sqrt(_CUTOFF_LOG / w_re)
    if not grow + spread < _MAX_TERMS:
        raise _too_many_terms(E, w)
    split = math.ceil(max(0.0, grow)) + math.ceil(spread)
    # Re log z_k falls with k, so the terms that are -1 to double
    # precision come first.
    first = min(split, math.ceil(max(0.0, (phase_re - _EXP_HUGE) / w_re - 0.5)))
    head = complex(-first)
    exp = cmath.exp
    q = exp(-w)
    for start in range(first, split, _BLOCK):
        z = exp(phase - (start + 0.5) * w)
        lead = phase_re - (start + 0.5) * w_re
        end = start + _BLOCK if start + _BLOCK < split else split
        if lead > -_NEAR_UNIT and lead - (_BLOCK - 1) * w_re < _NEAR_UNIT:
            for k in range(start, end):
                one_minus = 1.0 - z
                if abs(one_minus) < _POLE_EPS:
                    raise PoleProximity(
                        f"|1 - z_{k}| = {abs(one_minus):.3e} at E = {E!r}"
                    )
                head += z / one_minus
                z *= q
        else:
            for _ in range(start, end):
                head += z / (1.0 - z)
                z *= q
    total = 2.0 * head
    ratio = exp(phase - split * w)
    power = 1.0
    half_w = w / 2.0
    terms = _MAX_TERMS - split
    # The last n with n Re w / 2 <= _EXP_HUGE: past it sinh would
    # overflow, and |term| < 2 e^{-2 _EXP_HUGE} underflows (|z_K| <= e^{-Re w}).
    stop = int(2.0 * _EXP_HUGE / w_re)
    if half_w.imag == 0.0:
        # n w / 2 is (n Re w / 2, +0.0), where cmath.sinh is
        # (sinh(n Re w / 2), +0.0) below its large-argument formula
        # (n Re w / 2 <= _EXP_HUGE), and dividing by a float divides by
        # (float, 0.0) on CPython 3.10 to 3.13: the same bits from one
        # math.sinh.
        sinh, half_w = math.sinh, half_w.real
    else:
        sinh = cmath.sinh
    # The exact stop test runs only once |term| <= 2e-16 bound, with bound
    # the running sum of |total| after the head and every |term| since:
    # |total| <= bound (1 + 2 (n + 2) eps) in floating point for n <= 10**4
    # terms, so every term that passes the exact test passes this one, a
    # zero term with a zero bound too; an inf bound leaves the decision to
    # the exact test, and a NaN term passes neither.
    bound = abs(total)
    for n in range(1, (terms if terms < stop else stop) + 1):
        power *= ratio
        term = power / sinh(n * half_w)
        total += term
        size = abs(term)
        bound += size
        if size <= _LOOSE_CUTOFF * bound and (not size or size < _TERM_CUTOFF * abs(total)):
            break
    else:
        if stop >= terms:
            raise _too_many_terms(E, w)
    return -1j * T / (2.0 * ctx.hbar) * total


def _too_many_terms(E, w):
    return NonConvergent(
        f"the k-sum at E = {E!r} does not converge within {_MAX_TERMS} terms "
        f"(w = {w!r})"
    )


def sinh_expansion_error(x: float, n_kept: int) -> float:
    """Truncation error of 1/sinh(x) = 2 e^{-x} sum_{k>=0} e^{-2kx}.

    Keeping terms k = 0..n_kept leaves the geometric tail

        2 e^{-(2 n_kept + 3) x} / (1 - e^{-2x}),

    which this returns.  (Subtracting the partial sum from 1/sinh(x)
    directly in double precision bottoms out near 1e-16/sinh(x).  The
    tail form, with 1 - e^{-2x} formed by expm1, keeps full relative
    precision down to x = 1e-300 and below; 1 - exp(-2x) would lose
    it for small x and be 0 below x ~ 5.6e-17.)
    """
    if not (isinstance(x, (int, float)) and x > 0):
        raise ValueError(f"expansion requires x > 0, got {_shown(x)}")
    _check_float("x", "x", x)
    _check_count("n_kept", n_kept)
    return 2.0 * math.exp(-(2.0 * n_kept + 3.0) * x) / -math.expm1(-2.0 * x)


def pole_residual(
    ctx: SemiclassicalContext, orbit: OrbitModel, energy, idx: PoleIndex
) -> complex:
    """S(E) minus the pole condition's right-hand side.

    Zero exactly when E is the resonance pole E_ks.
    """
    E = complex(energy)
    S = _polyval(orbit.s_coeffs, E)
    w = _polyval(orbit.w_coeffs, E)
    rhs = (
        ctx.hbar * orbit.lam * math.pi / 2.0
        - 1j * ctx.hbar * w * (idx.k + 0.5)
        + 2.0 * idx.s * math.pi * ctx.hbar
    )
    return S - rhs


def _residual_scale(ctx, orbit, E, idx):
    """The sum of the magnitudes of the terms ``pole_residual`` adds up
    at E, each power of E and each side included: S(E) and the
    right-hand side round to a few ulps of it, however much they cancel."""
    a = abs(E)
    s = _polyval(tuple(map(abs, orbit.s_coeffs)), a).real
    w = _polyval(tuple(map(abs, orbit.w_coeffs)), a).real
    return s + ctx.hbar * ((idx.k + 0.5) * w + orbit.lam * math.pi / 2.0 + 2.0 * idx.s * math.pi)


def _default_guess(ctx, orbit, idx):
    # Invert the degree-1 truncation of S and w.
    s0 = orbit.s_coeffs[0] if len(orbit.s_coeffs) > 0 else 0.0
    s1 = orbit.s_coeffs[1] if len(orbit.s_coeffs) > 1 else 0.0
    w0 = orbit.w_coeffs[0] if len(orbit.w_coeffs) > 0 else 0.0
    w1 = orbit.w_coeffs[1] if len(orbit.w_coeffs) > 1 else 0.0
    kk = idx.k + 0.5
    denom = s1 + 1j * ctx.hbar * w1 * kk
    if abs(denom) < 1e-300:
        return 0j
    numer = (
        ctx.hbar * (orbit.lam * math.pi / 2.0 + 2.0 * math.pi * idx.s)
        - s0
        - 1j * ctx.hbar * w0 * kk
    )
    return numer / denom


def find_pole(
    ctx: SemiclassicalContext, orbit: OrbitModel, idx: PoleIndex, guess=None
) -> complex:
    """Locate the resonance pole E_ks by complex Newton iteration.

    The derivative S'(E) + i hbar w'(E) (k + 1/2) is evaluated from the
    polynomial coefficients exactly.  The default starting point solves
    the linearized (degree-1) pole condition.  Convergence requires a
    final step below 1e-13 * max(1, |E|) and |residual| <= 1e-12, or,
    where S(E) and the right-hand side round coarser than that,
    |residual| within 4 ulps of the sum of the magnitudes of the terms
    they add up (a sum of 2048 or more: large |E|, k or s).

    Raises
    ------
    NewtonDiverged
        After 50 iterations without convergence.
    DegenerateAction
        If |S'(E)| < 1e-12 at an iterate.
    ValueError
        Before the first iteration, if 2 pi s hbar or hbar (k + 1/2) is
        beyond the float range.
    """
    kk = idx.k + 0.5
    _check_float("s", "2 pi s hbar", 2.0, idx.s, math.pi, ctx.hbar)
    _check_float("k", "hbar (k + 1/2)", ctx.hbar, kk)
    sp = _polyder(orbit.s_coeffs)
    wp = _polyder(orbit.w_coeffs)
    E = complex(guess) if guess is not None else _default_guess(ctx, orbit, idx)
    step = 0.0
    for _ in range(_MAX_NEWTON):
        residual = pole_residual(ctx, orbit, E, idx)
        size = abs(residual)
        if step <= _STEP_TOL * max(1.0, abs(E)) and (
                size <= _RESIDUAL_TOL
                or size <= _RESIDUAL_ULPS * math.ulp(_residual_scale(ctx, orbit, E, idx))):
            return E
        ds = _polyval(sp, E)
        if abs(ds) < 1e-12:
            raise DegenerateAction(f"|dS/dE| = {abs(ds):.3e} at iterate E = {E!r}")
        delta = residual / (ds + 1j * ctx.hbar * _polyval(wp, E) * kk)
        E -= delta
        step = abs(delta)
    raise NewtonDiverged(
        f"pole search for (k={_shown(idx.k)}, s={_shown(idx.s)}) did not converge in "
        f"{_MAX_NEWTON} iterations"
    )


def orbit_from_dict(data: dict, source: str = "orbit") -> OrbitModel:
    """Build an OrbitModel from a parsed JSON document.

    Schema: {"name": str, "lambda": int >= 0, "S": [numbers],
    "w": [numbers], "T": [numbers]}.  Arrays are ascending-power
    coefficients.  "T" may be omitted when S is linear, in which case
    it is inferred as dS/dE.  Violations raise OrbitSchemaError naming
    the field, among them a NaN or infinite coefficient and a "lambda"
    whose lambda pi / 2 is not a finite float.
    """
    if not isinstance(data, dict):
        raise OrbitSchemaError(f"{source}: document must be a JSON object")

    def _number_list(field):
        raw = data[field]
        if not isinstance(raw, list) or any(
            isinstance(v, bool) or not isinstance(v, (int, float)) for v in raw
        ):
            raise OrbitSchemaError(f"{source}: field '{field}' must be a list of numbers")
        try:
            values = [float(v) for v in raw]
        except OverflowError as exc:
            raise OrbitSchemaError(
                f"{source}: field '{field}' holds an integer beyond the float range"
            ) from exc
        if not all(map(math.isfinite, values)):  # json reads NaN and Infinity
            raise OrbitSchemaError(f"{source}: field '{field}' holds a non-finite number")
        return values

    for field in ("name", "lambda", "S", "w"):
        if field not in data:
            raise OrbitSchemaError(f"{source}: missing required field '{field}'")
    if not isinstance(data["name"], str):
        raise OrbitSchemaError(f"{source}: field 'name' must be a string")
    s_coeffs = _number_list("S")
    w_coeffs = _number_list("w")
    if "T" in data:
        t_coeffs = _number_list("T")
    elif len(s_coeffs) <= 2:
        t_coeffs = list(_polyder(s_coeffs))
    else:
        raise OrbitSchemaError(
            f"{source}: missing field 'T' (required unless S is linear)"
        )
    try:
        return OrbitModel(
            name=data["name"],
            s_coeffs=tuple(s_coeffs),
            w_coeffs=tuple(w_coeffs),
            t_coeffs=tuple(t_coeffs),
            lam=data["lambda"],
        )
    except ValueError as exc:
        raise OrbitSchemaError(f"{source}: {exc}") from exc


def load_orbit(path) -> OrbitModel:
    """Read an orbit-model JSON file; see orbit_from_dict for the schema.

    A file that json cannot read raises OrbitSchemaError naming the file:
    malformed JSON, or an integer longer than Python converts from a
    string (sys.get_int_max_str_digits(), 4300 digits by default).
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # json.JSONDecodeError is one
        raise OrbitSchemaError(f"{path}: not readable as JSON ({exc})") from exc
    return orbit_from_dict(data, source=str(path))
