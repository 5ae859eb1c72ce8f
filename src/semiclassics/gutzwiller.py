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
Gutzwiller, *Chaos in Classical and Quantum Mechanics*, 1990).

The poles z_k = 1 form a lattice of complex energies E_ks indexed by
the instability quantum k and the action quantum s:

    S(E_ks) = hbar*lam*pi/2 - i hbar w(E_ks) (k + 1/2) + 2 pi s hbar.

``find_pole`` solves this condition by complex Newton iteration with
analytic polynomial derivatives.
"""

import cmath
import json
import math
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
# e-folds that take a term below _TERM_CUTOFF: ln(1e16) ~ 36.8.
_CUTOFF_LOG = -math.log(_TERM_CUTOFF)
_MAX_TERMS = 10 ** 4
_RESIDUAL_TOL = 1e-12
_STEP_TOL = 1e-13
_MAX_NEWTON = 50
# exp() overflows past ~709; beyond this z_k/(1 - z_k) is -1 to 1e-300.
_EXP_HUGE = 700.0


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
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


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
    coefficients of S(E), w(E) and T(E); ``lam`` is the number of focal
    points per period.  When both S and T carry actual E-dependence the
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
            coeffs = tuple(float(c) for c in getattr(self, field))
            if any(not math.isfinite(c) for c in coeffs):
                raise ValueError(f"{field} must be finite, got {coeffs!r}")
            object.__setattr__(self, field, coeffs)
        if not isinstance(self.lam, int) or isinstance(self.lam, bool) or self.lam < 0:
            raise ValueError(
                f"focal-point count lambda must be a nonnegative integer, got {self.lam!r}"
            )
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
    below 1e-16 of the running sum.

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
    if w.real <= 0.0:
        raise NonConvergent(
            f"instability exponent must have positive real part, got w = {w!r}"
        )
    phase = 1j * (S / ctx.hbar - orbit.lam * math.pi / 2.0)
    # |z_k| <= 1 from k = grow on.
    grow = phase.real / w.real - 0.5
    spread = math.sqrt(_CUTOFF_LOG / w.real)
    if not grow + spread < _MAX_TERMS:
        raise _too_many_terms(E, w)
    split = math.ceil(max(0.0, grow)) + math.ceil(spread)
    total = 0j
    for k in range(split):
        exponent = phase - (k + 0.5) * w
        if exponent.real > _EXP_HUGE:
            term = complex(-2.0)
        else:
            z = cmath.exp(exponent)
            one_minus = 1.0 - z
            if abs(one_minus) < _POLE_EPS:
                raise PoleProximity(
                    f"|1 - z_{k}| = {abs(one_minus):.3e} at E = {E!r}"
                )
            term = 2.0 * z / one_minus
        total += term
    ratio = cmath.exp(phase - split * w)
    power = 1.0
    for n in range(1, _MAX_TERMS - split + 1):
        # |z_K| <= e^{-Re w}, so past here |term| < 2 e^{-2 _EXP_HUGE}
        # underflows, and sinh would overflow.
        if 0.5 * n * w.real > _EXP_HUGE:
            break
        power *= ratio
        term = power / cmath.sinh(0.5 * n * w)
        total += term
        if term == 0 or abs(term) < _TERM_CUTOFF * abs(total):
            break
    else:
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
    directly in double precision bottoms out near 1e-16/sinh(x); the
    tail form stays exact down to the underflow threshold.)
    """
    if not (isinstance(x, (int, float)) and math.isfinite(x) and x > 0):
        raise ValueError(f"expansion requires x > 0, got {x!r}")
    if not isinstance(n_kept, int) or isinstance(n_kept, bool) or n_kept < 0:
        raise ValueError(f"n_kept must be a nonnegative integer, got {n_kept!r}")
    return 2.0 * math.exp(-(2.0 * n_kept + 3.0) * x) / (1.0 - math.exp(-2.0 * x))


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
    the linearized (degree-1) pole condition.  Convergence requires
    |residual| <= 1e-12 and a final step below 1e-13 * max(1, |E|).

    Raises
    ------
    NewtonDiverged
        After 50 iterations without convergence.
    DegenerateAction
        If |S'(E)| < 1e-12 at an iterate.
    """
    sp = _polyder(orbit.s_coeffs)
    wp = _polyder(orbit.w_coeffs)
    kk = idx.k + 0.5
    E = complex(guess) if guess is not None else _default_guess(ctx, orbit, idx)
    step = 0.0
    for _ in range(_MAX_NEWTON):
        residual = pole_residual(ctx, orbit, E, idx)
        if abs(residual) <= _RESIDUAL_TOL and step <= _STEP_TOL * max(1.0, abs(E)):
            return E
        ds = _polyval(sp, E)
        if abs(ds) < 1e-12:
            raise DegenerateAction(f"|dS/dE| = {abs(ds):.3e} at iterate E = {E!r}")
        delta = residual / (ds + 1j * ctx.hbar * _polyval(wp, E) * kk)
        E -= delta
        step = abs(delta)
    raise NewtonDiverged(
        f"pole search for (k={idx.k}, s={idx.s}) did not converge in "
        f"{_MAX_NEWTON} iterations"
    )


def orbit_from_dict(data: dict, source: str = "orbit") -> OrbitModel:
    """Build an OrbitModel from a parsed JSON document.

    Schema: {"name": str, "lambda": int >= 0, "S": [numbers],
    "w": [numbers], "T": [numbers]}.  Arrays are ascending-power
    coefficients.  "T" may be omitted when S is linear, in which case
    it is inferred as dS/dE.  Violations raise OrbitSchemaError naming
    the field.
    """
    if not isinstance(data, dict):
        raise OrbitSchemaError(f"{source}: document must be a JSON object")

    def _number_list(field):
        raw = data[field]
        if not isinstance(raw, list) or any(
            isinstance(v, bool) or not isinstance(v, (int, float)) for v in raw
        ):
            raise OrbitSchemaError(f"{source}: field '{field}' must be a list of numbers")
        return [float(v) for v in raw]

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
    """Read an orbit-model JSON file; see orbit_from_dict for the schema."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise OrbitSchemaError(f"{path}: not valid JSON ({exc})") from exc
    return orbit_from_dict(data, source=str(path))
