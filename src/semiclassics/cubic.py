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

The orbits at energy E are elliptic functions of complex time.  Their
period lattice comes from Gauss's arithmetic-geometric mean and their
poles from Carlson's symmetric integral R_F here (private helpers of the
crossing search).

Positions and energies are plain Python complex numbers; all functions
here are pure and safe to call concurrently.
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

# Smallest coupling the model accepts.  The far turning point of an
# energy in the well lies near 1/(2 g), where V vanishes, and the residual
# check of ``turning_points`` cubes it, so 1/(8 g**3) must be a finite
# float: g >= 8.86e-104.  The barrier height 1/(54 g**2) stays finite
# down to about 1e-155, well below.
_G_MIN = 0.5 / sys.float_info.max ** (1.0 / 3.0)

# Roots closer than this are treated as coincident (energy at or near the
# bottom of the well or the barrier top) rather than returned as garbage.
_DEGENERACY_THRESHOLD = 1e-8

# A root's residual |V(x) - E| may be at most this fraction of the size
# |E| + |x**2/2| + g |x|**3 of the terms that cancel in it.
_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class CubicModel:
    """Cubic well with coupling g > 0: V(x) = x**2/2 - g*x**3.

    A coupling below _G_MIN (8.86e-104) is refused: its far turning point
    cubed overflows a float.
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
    CoincidentRoots
        If two roots lie closer than 1e-8, i.e. the energy sits at or
        near the bottom of the well or the barrier top and the
        turning-point labels x1 < x2 < x3 stop being meaningful, or if a
        real energy is exactly 0 or the barrier top.
    ArithmeticError
        If a root misses V(x) = E by more than 1e-12 of the size
        |E| + |x**2/2| + g |x|**3 of its terms, or the arithmetic
        overflows (g**2 |E| near the float limit).
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
        k = complex((216 * gn * gn * en - 4 * gd * gd * ed) / (27 * gd * gd * ed),
                    8.0 * g * g * E.imag)
    v1 = _isolated_root(k)
    s = k / (v1 * v1)
    d = cmath.sqrt(s * s + 4.0 * k / v1)
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
        size = abs(E) + abs(0.5 * x * x) + g * abs(x) ** 3
        if not abs(model.potential(x) - E) <= _RESIDUAL_TOL * size:
            raise ArithmeticError(f"turning point {x!r} misses V(x) = E = {E!r}")
    return TurningPoints(*roots)


def _cut_period(g: float, a: complex, b: complex, c: complex) -> complex:
    """The period of the loop around the cut a-b, c being the third root.

    With p**2 = 2 g (x - a)(x - b)(x - c), the loop integral of dx/p
    shrunk onto the cut is 2 pi / (sqrt(2 g) M), where M is Gauss's
    arithmetic-geometric mean of sqrt(c - a) and sqrt(c - b) (DLMF
    19.8).  For complex arguments each step takes the right choice of
    the geometric mean, the one with Re(v/u) >= 0 (Cox, Enseign. Math.
    30 (1984) 275); the first such choice follows sqrt(c - x)
    continuously along the cut.  The iteration converges quadratically
    and ends at rounding level.  The sign of the result is arbitrary.
    """
    u = cmath.sqrt(c - a)
    v = cmath.sqrt(c - b)
    while True:
        if (v / u).real < 0.0:
            v = -v
        if abs(u - v) <= 4.0 * sys.float_info.epsilon * abs(u):
            return 2.0 * math.pi / (math.sqrt(2.0 * g) * u)
        u, v = 0.5 * (u + v), cmath.sqrt(u * v)


def _periods(model: CubicModel, tps: TurningPoints) -> tuple[complex, complex]:
    """The periods (T, T') of the orbits at the energy of ``tps``.

    Every solution of x'' = -x + 3 g x**2 at energy E is an elliptic
    function of complex time (DLMF 23) whose period lattice is spanned by
    T, the loop around the cut x1-x2, and T', the loop around x2-x3.  T is
    returned with Re T >= 0; a real energy below the barrier gives a real
    T, the period of the oscillation between x1 and x2.
    """
    T = _cut_period(model.g, tps.x1, tps.x2, tps.x3)
    return (-T if T.real < 0.0 else T), _cut_period(model.g, tps.x2, tps.x3, tps.x1)


def _carlson_rf(x: complex, y: complex, z: complex) -> complex:
    """Carlson's R_F(x, y, z), the integral (1/2) int_0^inf dt /
    sqrt((t + x)(t + y)(t + z)) with principal square roots.

    Duplication (DLMF 19.26.18) draws the arguments together by a factor
    4 a step, down to a relative spread of 1/400, and the fifth-order
    series of DLMF 19.36.1 ends it there with a truncation error below
    1e-16 (Carlson, Numer. Algorithms 10 (1995) 13).  At most one
    argument may be 0.
    """
    while True:
        mu = (x + y + z) / 3.0
        if max(abs(mu - x), abs(mu - y), abs(mu - z)) < 0.0025 * abs(mu):
            break
        sx, sy, sz = cmath.sqrt(x), cmath.sqrt(y), cmath.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
    dx, dy = 1.0 - x / mu, 1.0 - y / mu
    dz = -(dx + dy)
    e2 = dx * dy - dz * dz
    e3 = dx * dy * dz
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
