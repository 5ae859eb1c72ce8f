"""Closed-form machinery for the cubic well V(x) = x**2/2 - g*x**3.

Dimensionless units throughout (hbar = m = omega = 1).  The well is
harmonic near the origin, has a barrier of height 1/(54 g**2) at
x = 1/(3 g), and falls off to -infinity beyond it, so its ground state
is quasi-bound: it decays with lifetime tau and is represented by a
complex energy with Im E = -1/(2 tau).

The turning points, the roots of V(x) = E, come from one cubic: about
either critical point of V the equation reads v**3 + v**2 + k = 0
(DLMF 1.11(iii)), solved for its isolated root by Newton's method and
for the other two by the quadratic that Vieta's relations leave.  For a
real energy the sign of k decides the roots: three real ones for k < 0,
a real root and a conjugate pair for k > 0.

The orbits at energy E are elliptic functions of complex time, and the
crossing search's whole lattice geometry lives here in private helpers:
the period lattice and the poles from Carlson's symmetric integral R_F;
the orbit's state x, p at any complex time from Weierstrass's function
on the reduced lattice, summed as a cosecant series (DLMF 23.8, 23.18),
as a function of complex time (``_orbit``) that reduces the lattice and
forms the series' constant terms once, when it is built; and, from one
level of the first line of poles above real time, the number of rows of
real time below it and the row on which that closed form predicts the
orbit first reaches x3 (``_row_bracket``).  Those are lattice answers
only: the horizon and a real period are the crossing search's own.  The
sampled trajectories read two more: the addition theorem, which moves a
state of the closed form by the state of an offset (``_addition``), and
the first pole on the real time axis (``_real_pole``).

Positions and energies are plain Python complex numbers (the closed
form and the addition theorem also take the caller's numpy arrays); all
functions here are pure and safe to call concurrently.
"""

import cmath
import math
import sys
from dataclasses import dataclass
from typing import ClassVar

from .errors import CoincidentRoots, DegenerateCubic

__all__ = [
    "CubicModel",
    "HarmonicModel",
    "QuasiBoundState",
    "TurningPoints",
    "corrected_quasi_bound_energy",
    "ground_state_energy",
    "quasi_bound_energy",
    "turning_points",
    "wkb_lifetime",
]

# Smallest coupling whose lifetime is a finite float: below it
# exp(2 / (15 g**2)) overflows.
_LIFETIME_G_MIN = math.sqrt(2.0 / (15.0 * math.log(sys.float_info.max)))

# Largest position the model accepts: |x| <= float_max**(1/3) = 5.64e102,
# whose cube is a finite float.  V(x) cubes every position, so turning
# points and starts beyond it are refused before the cube is formed
# (``_check_position``).
_X_MAX = sys.float_info.max ** (1.0 / 3.0)

# Smallest coupling the model accepts.  The far turning point of an
# energy in the well lies near 1/(2 g), where V vanishes, so it is within
# _X_MAX for g >= 0.5 / _X_MAX = 8.86e-104.  The barrier height
# 1/(54 g**2) stays finite down to about 1e-155, well below.
_G_MIN = 0.5 / _X_MAX

# Largest coupling the model accepts: the barrier height 1/(54 g**2) needs
# a finite 54 g**2, and the largest double with one lies just below
# sqrt(float_max / 54), 1.82457e153, whose own 54 g**2 rounds past
# float_max.
_G_MAX = math.nextafter(math.sqrt(sys.float_info.max / 54.0), 0.0)

# Roots closer than this are treated as coincident (energy at or near the
# bottom of the well or the barrier top) rather than returned as garbage.
_DEGENERACY_THRESHOLD = 1e-8

# A root's residual |V(x) - E| may be at most this fraction of the size
# |E| + |x**2/2| + g |x|**3 of the terms that cancel in it.
_RESIDUAL_TOL = 1e-12

# A pole of an orbit lies on the real time axis when its imaginary part is
# at most this fraction of |T| + |T'| (``_real_pole``): far above the
# rounding of t0 + m T + n T' (about 1e-16 of its size, 2e-11 at the
# horizon limit 2e5), and close enough that |x| exceeds 1e16 / g next to it.
_POLE_TOL = 1e-9


@dataclass(frozen=True)
class CubicModel:
    """Cubic well with coupling g > 0: V(x) = x**2/2 - g*x**3.

    A coupling below _G_MIN (8.86e-104) is refused: its far turning point
    cubed overflows a float.  So is one above _G_MAX (1.82e153), whose
    barrier height 1/(54 g**2) overflows in its denominator.
    """

    g: float

    def __post_init__(self):
        if not math.isfinite(self.g) or self.g <= 0.0:
            raise DegenerateCubic(
                f"coupling must be finite and positive, got g={self.g!r}"
            )
        if self.g < _G_MIN:
            raise DegenerateCubic(
                f"coupling g={self.g!r} is below {_G_MIN:.6g}, the smallest whose "
                "turning points, near 1/(2 g), cube to a finite float"
            )
        if self.g > _G_MAX:
            raise DegenerateCubic(
                f"coupling g={self.g!r} is above {_G_MAX:.6g}, the largest whose "
                "barrier height 1/(54 g**2) has a finite denominator"
            )

    def potential(self, x):
        """V(x) = x**2/2 - g*x**3, evaluated in complex arithmetic."""
        return 0.5 * x * x - self.g * x ** 3

    def force(self, x):
        """-dV/dx = -x + 3*g*x**2."""
        return -x + 3.0 * self.g * x * x

    @property
    def barrier_position(self) -> float:
        return 1.0 / (3.0 * self.g)

    @property
    def barrier_height(self) -> float:
        return 1.0 / (54.0 * self.g ** 2)


def _check_position(label: str, x: complex) -> None:
    """Refuse a position beyond |x| = _X_MAX, whose cube overflows."""
    if abs(x) > _X_MAX:
        raise ValueError(
            f"{label} {x!r} is beyond |x| = {_X_MAX:.6g} = float_max**(1/3), "
            "past which its cube overflows"
        )


@dataclass(frozen=True)
class HarmonicModel:
    """Reference oscillator V(x) = x**2/2, the g -> 0 limit of the well.

    It has the ``g`` and ``potential`` that the trajectory stepper reads
    from :class:`CubicModel`, so the stepper can run orbits with closed
    forms on it.
    """

    g: ClassVar[float] = 0.0

    def potential(self, x):
        return 0.5 * x * x

    def force(self, x):
        return -x


def wkb_lifetime(g: float) -> float:
    """Barrier-penetration lifetime of the quasi-bound ground state.

    Weak-coupling (WKB) approximation::

        tau = (1/2) g sqrt(pi) exp(2 / (15 g**2))

    Parameters
    ----------
    g : float
        Cubic coupling, at least about 0.0137 (below that tau overflows).

    Returns
    -------
    float
        Lifetime in the dimensionless time unit (one harmonic period
        is 2*pi).
    """
    if not (isinstance(g, (int, float)) and math.isfinite(g) and g > 0):
        raise ValueError(f"lifetime requires finite g > 0, got {g!r}")
    if g < _LIFETIME_G_MIN:
        raise ValueError(
            f"lifetime overflows a float for g < {_LIFETIME_G_MIN:.6g}, got {g!r}"
        )
    return 0.5 * g * math.sqrt(math.pi) * math.exp(2.0 / (15.0 * g * g))


def ground_state_energy(g: float) -> float:
    """Weak-coupling ground-state energy through second order.

    E0(g) = 1/2 - (11/8) g**2.  The leading 1/2 is the harmonic
    zero-point value; the negative shift is the second-order response
    to the cubic term.  Higher orders are omitted: the series is
    asymptotic and the quartic term already over-corrects at the
    couplings this package targets.
    """
    if not (math.isfinite(g) and g > 0):
        raise ValueError(f"ground-state energy requires finite g > 0, got {g!r}")
    return 0.5 - 1.375 * g * g


@dataclass(frozen=True)
class QuasiBoundState:
    """Decaying ground state: population P(t) = exp(-t/tau).

    The decay of |amplitude|**2 at rate 1/tau pins the imaginary energy
    part to -1/(2 tau); ``energy.imag`` is constructed as exactly
    ``-1.0 / (2.0 * tau)``.
    """

    g: float
    tau: float
    energy: complex

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"lifetime must be positive, got {self.tau!r}")


def quasi_bound_energy(g: float) -> QuasiBoundState:
    """Quasi-bound state with the leading-order real part Re E = 1/2."""
    tau = wkb_lifetime(g)
    return QuasiBoundState(g=g, tau=tau, energy=complex(0.5, -1.0 / (2.0 * tau)))


def corrected_quasi_bound_energy(g: float) -> QuasiBoundState:
    """Quasi-bound state with Re E = ground_state_energy(g).

    This is the default energy construction of the trajectory pipeline:
    the second-order real part places the orbit at the energy the well
    actually holds its decaying state at, which the benchmark
    crossing-time table turns out to be quite sensitive to (see
    README).
    """
    tau = wkb_lifetime(g)
    return QuasiBoundState(
        g=g, tau=tau, energy=complex(ground_state_energy(g), -1.0 / (2.0 * tau))
    )


@dataclass(frozen=True)
class TurningPoints:
    """The three roots of V(x) = E, ascending by real part."""

    x1: complex
    x2: complex
    x3: complex

    def __iter__(self):
        yield from (self.x1, self.x2, self.x3)


def _isolated_root(k: complex) -> complex:
    """The root of v**3 + v**2 + k = 0 away from the pair that meets at k = 0.

    Newton's method from the series start -1 - k (|k| <= 1) or from
    -k**(1/3), the large-k asymptote, until the steps stop shrinking.  For
    Re k >= -2/27 this root stays at least 1/sqrt(3) (its distance at
    k = -2/27) away from the other two, which meet only at k = 0 and
    k = -4/27, so it is well conditioned.
    """
    v = -1.0 - k if abs(k) <= 1.0 else -(k ** (1.0 / 3.0))
    last = math.inf
    while True:
        step = (v * v * (v + 1.0) + k) / (v * (3.0 * v + 2.0))
        if not abs(step) < last:
            return v
        v, last = v - step, abs(step)


def turning_points(model: CubicModel, energy: complex) -> TurningPoints:
    """Solve V(x) = E for the three complex turning points.

    About either critical point V(x) = E is the cubic v**3 + v**2 + k = 0:
    about the well bottom with x = -v/(2g) and k = -8 g**2 E, about the
    barrier top with x = 1/(3g) + v/(2g) and k = 8 g**2 E - 4/27.  The
    nearer point is used (the bottom for Re E <= E_top/2), so Re k >=
    -2/27, and near the top Re k is formed from the exact integer ratios
    of g and E with one rounding.  The isolated root v1 comes from Newton's
    method (see ``_isolated_root``); the cubic has no linear term, so the
    other two solve v**2 - (k/v1**2) v - k/v1 = 0 and are (s +- d)/2 with
    no cancellation.  A real energy stays in real arithmetic, so its roots
    are exactly real (k < 0: 0 < E < E_top) or one real root and an exact
    conjugate pair (k > 0).

    Parameters
    ----------
    model : CubicModel
        The well; its coupling g must be positive (a zero coupling has
        already been rejected at model construction).
    energy : complex
        Energy level, real or complex.

    Returns
    -------
    TurningPoints
        Roots sorted ascending by real part, ties by imaginary part.

    Raises
    ------
    ValueError
        If the energy is not finite, or a root lies beyond |x| =
        5.64e102, where its cube overflows a float.
    CoincidentRoots
        If two roots lie closer than 1e-8, i.e. the energy sits at or
        near the bottom of the well or the barrier top and the
        turning-point labels x1 < x2 < x3 stop being meaningful, or if a
        real energy is exactly 0 or the barrier top.
    ArithmeticError
        If a root misses V(x) = E by more than 1e-12 of the size
        |E| + |x**2/2| + g |x|**3 of its terms, or k overflows a float
        (8 g**2 |E| beyond float_max), or the term 4 k / v1 of the other
        two roots does (|k| just below float_max, as near g = 6e76 at the
        corrected energy); either message names g and E.
    """
    g = model.g
    E = complex(energy)
    if not (math.isfinite(E.real) and math.isfinite(E.imag)):
        raise ValueError(f"energy must be finite, got {energy!r}")
    bottom = E.real <= 0.5 * model.barrier_height
    where = "bottom of the well" if bottom else "barrier top"
    if E == 0.0 or E == model.barrier_height:
        raise CoincidentRoots(f"double turning point: E = {energy!r} is at the {where}")

    # x = centre + v / unit; adding the real centre (0.0 at the bottom)
    # also turns the -0.0 imaginary parts of a real energy into +0.0.
    if bottom:
        centre, unit = 0.0, -2.0 * g
        k = -8.0 * g * g * E
    else:
        centre, unit = model.barrier_position, 2.0 * g
        gn, gd = g.as_integer_ratio()
        en, ed = E.real.as_integer_ratio()
        try:  # an int quotient beyond float_max raises; k's check names it
            re_k = (216 * gn * gn * en - 4 * gd * gd * ed) / (27 * gd * gd * ed)
        except OverflowError:
            re_k = math.inf
        k = complex(re_k, 8.0 * g * g * E.imag)
    if not cmath.isfinite(k):
        raise ArithmeticError(
            f"the cubic's constant k, of size 8 g**2 |E|, overflows a float at g={g!r}, E={E!r}"
        )
    v1 = _isolated_root(k)
    s = k / (v1 * v1)
    discriminant = s * s + 4.0 * k / v1
    if not cmath.isfinite(discriminant):
        raise ArithmeticError(
            f"the term 4 k / v1 of the cubic's other two roots overflows a float "
            f"at g={g!r}, E={E!r}"
        )
    d = cmath.sqrt(discriminant)
    roots = sorted((centre + v / unit for v in (v1, 0.5 * (s + d), 0.5 * (s - d))),
                   key=lambda z: (z.real, z.imag))

    gap = min(
        abs(roots[0] - roots[1]), abs(roots[0] - roots[2]), abs(roots[1] - roots[2])
    )
    if gap < _DEGENERACY_THRESHOLD:
        raise CoincidentRoots(
            f"turning points separated by only {gap:.3e} for E = {E!r}; "
            f"energy is at or near the {where}"
        )
    for x in roots:
        _check_position("turning point", x)
        size = abs(E) + abs(0.5 * x * x) + g * abs(x) ** 3
        if not abs(model.potential(x) - E) <= _RESIDUAL_TOL * size:
            raise ArithmeticError(f"turning point {x!r} misses V(x) = E = {E!r}")
    return TurningPoints(*roots)


def _periods(model: CubicModel, tps: TurningPoints) -> tuple[complex, complex]:
    """The periods (T, T') of the orbits at the energy of ``tps``.

    Every solution of x'' = -x + 3 g x**2 at energy E is an elliptic
    function of complex time (DLMF 23) whose period lattice is spanned by
    T, the loop around the cut x1-x2, and T', the loop around x2-x3.  With
    p**2 = 2 g (x - x1)(x - x2)(x - x3) each is a complete elliptic
    integral, K(k) = R_F(0, 1 - k**2, 1) (DLMF 19.25.1):

        T = s R_F(0, x3 - x2, x3 - x1),  T' = i s R_F(0, x2 - x1, x3 - x1),

    with s = 4/sqrt(2 g).  The roots ascend by real part, so every
    difference has Re >= 0 and stays off R_F's cut; Re T > 0, and the sign
    of T' is arbitrary.  A real energy below the barrier gives a real T,
    the period of the oscillation between x1 and x2, and an imaginary T';
    above it T' stays imaginary, and below zero T stays real.
    """
    x1, x2, x3 = tps
    s = 4.0 / math.sqrt(2.0 * model.g)
    return s * _carlson_rf(0j, x3 - x2, x3 - x1), 1j * s * _carlson_rf(0j, x2 - x1, x3 - x1)


def _carlson_rf(x: complex, y: complex, z: complex) -> complex:
    """Carlson's R_F(x, y, z), the integral (1/2) int_0^inf dt /
    sqrt((t + x)(t + y)(t + z)) with principal square roots.

    Duplication (DLMF 19.26.18) draws the arguments together by a factor
    4 a step, down to a relative spread of 1/400, and the fifth-order
    series of DLMF 19.36.1 ends it there with a truncation error below
    1e-16 (Carlson, Numer. Algorithms 10 (1995) 13).  The last step forms
    dx, dy and dz each from its own argument and e2 = dx (dy + dz) + dy dz,
    e3 = dx (dy dz), symmetric in y and z, so a real x with a conjugate
    pair (y, z) gives an exactly real result.  At most one argument may
    be 0.
    """
    while True:
        mu = (x + y + z) / 3.0
        if max(abs(mu - x), abs(mu - y), abs(mu - z)) < 0.0025 * abs(mu):
            break
        sx, sy, sz = cmath.sqrt(x), cmath.sqrt(y), cmath.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
    dx, dy, dz = 1.0 - x / mu, 1.0 - y / mu, 1.0 - z / mu
    e2 = dx * (dy + dz) + dy * dz
    e3 = dx * (dy * dz)
    return (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / cmath.sqrt(mu)


def _pole_time(model: CubicModel, tps: TurningPoints, x0: complex, p0: complex) -> complex:
    """A complex time at which the orbit through (x0, p0) has a pole.

    The orbit is x(t) = 2 P(t - t0) / g + 1 / (6 g), with P Weierstrass's
    function of roots e_j = g x_j / 2 - 1/12, so P(-t0) - e_j = d_j =
    g (x0 - x_j) / 2 and, by DLMF 19.25(vi), -t0 = +-R_F(d_1, d_2, d_3).
    R_F's own branch has P' = -2 sqrt(d_1) sqrt(d_2) sqrt(d_3), and the
    sign is the one that makes it g p0 / 2.  The result is exact modulo
    the period lattice.
    """
    d = [0.5 * model.g * (x0 - x) for x in tps]
    branch = 2.0 * cmath.sqrt(d[0]) * cmath.sqrt(d[1]) * cmath.sqrt(d[2])
    slope = 0.5 * model.g * p0
    rf = _carlson_rf(*d)
    return -rf if abs(slope + branch) <= abs(slope - branch) else rf


def _lattice_b(periods: tuple[complex, complex], z: complex) -> float:
    """The real b of z = a T + b T' on the lattice (T, T')."""
    T, T_prime = periods
    return (z * T.conjugate()).imag / (T_prime * T.conjugate()).imag


def _row_bracket(model: CubicModel, periods: tuple[complex, complex], t0: complex,
                 orbit, target: float) -> tuple[int, int | None]:
    """The number of rows n = 0, 1, ... of real time below the first line
    of poles, and the row (n >= 1, or None) on which Re x is predicted to
    first reach ``target``, for the orbit ``orbit`` (``_orbit``) with a
    pole at t0 and a period T with Im T != 0.

    Real time n Re T + s is the complex time s - i n Im T ("row n"), and
    row n's segment -i n Im T + [0, Re T) covers b in [n delta, (n + 1)
    delta) with delta = b(-i Im T), while the poles sit on the lines
    b = b(t0) mod 1.  The rows run up to the one that meets the nearest
    such line, at level b / delta, and at least row 0, real time itself,
    is counted.  For the start at rest at x1 the pole is T'/2 and the
    count is about (|Im T'|/2) / |Im T|.

    The line of poles at that level is modelled alone: near it
    x = 2 c**2 (csc**2(c w) - 1/3) / g + 1/(6 g) with c = pi/|T| and w
    the time from a pole P on it, and along a line at scaled distance y
    from it the largest Re csc**2 is coth**2(2 y) / 2, at
    sin**2(c u) = sinh**2 y (cosh 2y + 2) / cosh 2y.
    So Re x first reaches the target at y* = artanh(1 / sqrt(2 R)) / 2
    with R = 1/3 + g (target - 1/(6 g)) / (2 c**2), left of P by u*.  From
    there Newton's method on (Re p, Re x - target) = 0 in (Re z, Im z),
    with x and p from ``orbit`` and x'' from the force, finds the
    complex time z at which the maximum of Re x along real time touches
    the target; it stops once Im z moves by less than 1/100 of a row, and
    the prediction is None if it does not within 8 steps.  Moved by whole
    periods T into 0 <= Re z < Re T, z lies Im z / -Im T rows from real
    time, so the first row at or past it is ceil(Im z / -Im T).
    """
    T, T_prime = periods
    delta = _lattice_b(periods, complex(0.0, -T.imag))
    b = _lattice_b(periods, t0)
    level = (b / delta) % (1.0 / abs(delta))
    rows = max(1, math.ceil(level))
    g = model.g
    try:
        pole = t0 + round(level * delta - b) * T_prime
        pole -= math.floor(pole.real / T.real) * T
        c = math.pi / abs(T)
        r = 1.0 / 3.0 + g * (target - 1.0 / (6.0 * g)) / (2.0 * c * c)
        y = 0.5 * math.atanh(1.0 / math.sqrt(2.0 * r))
        cosh2y = math.cosh(2.0 * y)
        u = math.asin(math.sinh(y) * math.sqrt((cosh2y + 2.0) / cosh2y)) / c
        # rows run towards -i Im T, so the line lies that way from row 0
        z = pole - complex(0.0, math.copysign(y / c, -T.imag)) - u
        for _ in range(8):
            x, p = orbit(z)
            ddx = model.force(x)
            # d/d(Re z) of (x, p) is (p, x''), and d/d(Im z) is i times it
            f, h = p.real, x.real - target
            det = ddx.imag * p.real - ddx.real * p.imag
            step = complex(h * ddx.imag - f * p.imag, ddx.real * h - p.real * f) / det
            z -= step
            if abs(step.imag) < 0.01 * abs(T.imag):
                z -= math.floor(z.real / T.real) * T
                return rows, math.ceil(z.imag / -T.imag)
    except (ArithmeticError, ValueError):
        pass
    return rows, None


def _orbit(model: CubicModel, periods: tuple[complex, complex], t0: complex):
    """The orbit with a pole at t0 as a function of complex time:
    at(z) -> (x, p = dx/dt).

    The orbit is x(z) = 2 P(w) / g + 1 / (6 g) with w = z - t0 and P
    Weierstrass's function on the lattice (T, T') (see ``_pole_time``).
    The lattice is first reduced (DLMF 23.18): T' loses the nearest whole
    multiple of T, and the two swap while |T'| < |T|, which leaves
    |Im(T'/T)| >= sqrt(3)/2.  Each line of poles parallel to T sums to
    Sum_m (w + m T)**-2 = c**2 csc**2(c w) with c = pi / T (DLMF 23.8), so

        P(w) = c**2 [Sum_n csc**2(c (w + n T')) - 1/3 - Sum_{n != 0} csc**2(c n T')],

    the constant making P(w) - 1/w**2 vanish at 0, and P'(w) =
    -2 c**3 Sum_n cot csc**2(c (w + n T')).  With w moved by whole periods
    T' to its lattice coordinate |b| <= 1/2, term n is below
    exp(-(2 |n| - 1) pi |Im(T'/T)|), 0.0043**(|n| - 1/2) at most: the
    terms with (|n| - 1/2) pi |Im(T'/T)| <= 20, at most 7 a side, reach
    1e-17 of the sum.  The reduction, c, the term count and the constant
    terms depend on the lattice only, so they are formed here, once;
    ``at`` still subtracts each constant from its own term, in the order
    of the sum.

    ``at(z, sin, cos, nearest)`` touches z only through arithmetic and
    its three elementwise functions, so z may also be a numpy array of
    times, with the caller's ``np.sin``, ``np.cos`` and ``np.rint`` (this
    module imports no numpy); the defaults, ``cmath.sin``, ``cmath.cos``
    and ``round``, evaluate one complex time.
    """
    T, T_prime = periods
    while abs(T_prime := T_prime - round((T_prime / T).real) * T) < abs(T):
        T, T_prime = T_prime, T
    c = cmath.pi / T
    last = int(0.5 + 20.0 / abs((c * T_prime).imag))
    terms = [(n * T_prime, 1.0 / cmath.sin(c * n * T_prime) ** 2 if n else 0.0)
             for n in range(-last, last + 1)]

    def at(z, sin=cmath.sin, cos=cmath.cos, nearest=round):
        w = z - t0 - nearest(_lattice_b((T, T_prime), z - t0)) * T_prime
        wp, dwp = -1.0 / 3.0, 0j
        for shift, constant in terms:
            s = sin(a := c * (w + shift))
            csc2 = 1.0 / (s * s)
            wp += csc2 - constant
            dwp += cos(a) / s * csc2
        return 2.0 * c * c * wp / model.g + 1.0 / (6.0 * model.g), -4.0 * c**3 * dwp / model.g

    return at


def _addition(model: CubicModel, tps: TurningPoints, at):
    """The addition theorem (DLMF 23.10) for the orbit ``at`` (``_orbit``)
    at the energy of ``tps``: add(x_u, p_u, x_v, p_v, z) -> (x, p).

    (x_u, p_u) is the orbit's state at the time u from its pole, (x_v,
    p_v) the state at v of the orbit on the same lattice with its pole
    at 0, and z the time of ``at`` at which u + v lies.  They are numpy
    arrays of at least one dimension (the caller's: this module imports
    no numpy) that broadcast to the shape of z, and the result is the
    orbit's state at z, by elementwise arithmetic.  With P = g x / 2 -
    1/12, P' = g p / 2 (see ``_pole_time``) and the invariants g2 =
    -4 (e1 e2 + e1 e3 + e2 e3), g3 = 4 e1 e2 e3 of the roots
    e_j = g x_j / 2 - 1/12, formed here and nowhere else, the symmetric
    form

        P(u + v) = [(2 P_u P_v - g2/2)(P_u + P_v) - g3 - P'_u P'_v] / [2 (P_u - P_v)**2]

    gives P, and its u-derivative, with P''_u = 6 P_u**2 - g2/2, gives
    P'(u + v).  Both stay accurate next to a pole at v, where the chord
    through (P_u, P'_u) and (P_v, P'_v) loses digits to P'_v's size.
    Where |P_u - P_v| < 1e-3 max(|P_u|, |P_v|, 1) the quotient loses
    digits to the small difference (u near +-v, or both near one
    half-period), and the state comes from ``at(z)`` instead.
    """
    g = model.g
    e1, e2, e3 = (0.5 * g * x - 1.0 / 12.0 for x in tps)
    half_g2 = -2.0 * (e1 * e2 + e1 * e3 + e2 * e3)
    g3 = 4.0 * e1 * e2 * e3

    def add(x_u, p_u, x_v, p_v, z):
        a, da = 0.5 * g * x_u - 1.0 / 12.0, 0.5 * g * p_u
        b, db = 0.5 * g * x_v - 1.0 / 12.0, 0.5 * g * p_v
        d = a - b
        s = 2.0 * a * b - half_g2
        den = 2.0 * d * d
        wp = (s * (a + b) - g3 - da * db) / den
        dwp = ((2.0 * b * (a + b) + s) * da - (6.0 * a * a - half_g2) * db
               - 4.0 * d * da * wp) / den
        x = 2.0 * wp / g + 1.0 / (6.0 * g)
        p = 2.0 * dwp / g
        gap = abs(d)
        close = (gap < 1e-3 * abs(a)) | (gap < 1e-3 * abs(b)) | (gap < 1e-3)
        for i in zip(*close.nonzero()):
            x[i], p[i] = at(z[i])
        return x, p

    return add


def _real_pole(periods: tuple[complex, complex], t0: complex, t_max: float) -> float | None:
    """The first real time in [0, t_max] at which the orbit with a pole at
    t0 has one, or None.

    The poles are t0 + m T + n T', and one lies on the real axis when its
    imaginary part is at most tol = _POLE_TOL (|T| + |T'|): in the strip S
    of real parts [0, t_max] and imaginary parts [-tol, tol].  The walk
    follows the lines of poles parallel to a lattice vector L = a T + b T'
    that is nearly real at the scale of the horizon: with h = max(t_max,
    |T| + |T'|) and A = |Im(T' conj(T))| the cell's area, L is the
    shortest vector under the scaling (Re z, Im z) -> (A Re z / h, h Im z)
    (Lagrange-Gauss reduction), whose lattice has area A**2, so h |Im L|
    <= 1.075 A.  With M = c T + d T' completing the basis, the line k
    holds the poles t0 + j L + k M, and only the lines whose k lies
    between those of S's corners meet S: at most four at any horizon,
    where the lines parallel to T number t_max |Im T| / A (3e4 at 2e5
    above the barrier top, where L = 2 T - T' is real).  The first pole
    in S on a line (``_first_on_line``) is m = j a + k c, n = j b + k d,
    at the time Re(t0 + n T' + m T).
    """
    T, T_prime = periods
    tol = _POLE_TOL * (abs(T) + abs(T_prime))
    area = abs((T_prime * T.conjugate()).imag)
    h = max(t_max, abs(T) + abs(T_prime))

    def scaled(a, b):
        z = a * T + b * T_prime
        return complex(area / h * z.real, h * z.imag)

    (a, b), (c, d) = sorted(((1, 0), (0, 1)), key=lambda ab: abs(scaled(*ab)))
    while True:  # |scaled(a, b)| falls strictly with every swap
        q = round((scaled(c, d) / scaled(a, b)).real)
        c, d = c - q * a, d - q * b
        if not abs(scaled(c, d)) < abs(scaled(a, b)):
            break
        (a, b), (c, d) = (c, d), (a, b)
    if (L := a * T + b * T_prime).real < 0.0:
        a, b, L = -a, -b, -L
    M = c * T + d * T_prime

    def line(z):
        # k from z's coordinates on (T, T'): L and M may be long and nearly
        # parallel, and Im(M conj(L)) = +-A would lose digits to cancellation
        return (a * _lattice_b(periods, z) - b * _lattice_b((T_prime, T), z)) / (a * d - b * c)

    ends = [line(complex(t, y) - t0) for t in (0.0, t_max) for y in (-tol, tol)]
    first = None
    for k in range(math.floor(min(ends)), math.ceil(max(ends)) + 1):
        # line k from its pole j0 L + k M nearest real time 0, formed from
        # its m and n like any pole
        j0 = round(-(t0 + k * M).real / L.real) if L.real else 0
        m0, n0 = j0 * a + k * c, j0 * b + k * d
        j = _first_on_line(t0 + n0 * T_prime + m0 * T, L, tol, t_max)
        if j is not None:
            m, n = m0 + j * a, n0 + j * b
            t = (t0 + n * T_prime + m * T).real
            if t <= t_max and (first is None or t < first):
                first = max(t, 0.0)  # a pole at the start may round below it
    return first


def _first_on_line(base: complex, L: complex, tol: float, t_max: float) -> int | None:
    """The smallest whole j, or None, for which base + j L, with Re L >= 0,
    lies within tol of the real axis with a real part in [0, t_max].

    Each condition holds for the j in an interval: every j, or none, when
    its part of L is 0.0 exactly (Im L for every real energy below the
    barrier top or below 0, whose L is T).
    """
    lo, hi = -math.inf, math.inf
    for low, high, start, step in ((-tol, tol, base.imag, L.imag), (0.0, t_max, base.real, L.real)):
        if step:
            ends = sorted(((low - start) / step, (high - start) / step))
            lo, hi = max(lo, ends[0]), min(hi, ends[1])
        elif not low <= start <= high:
            return None
    if lo <= hi and (j := math.ceil(lo)) <= hi:
        return j
    return None
