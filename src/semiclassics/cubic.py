"""Closed-form machinery for the cubic well V(x) = x**2/2 - g*x**3.

Dimensionless units throughout (hbar = m = omega = 1).  The well is
harmonic near the origin, has a barrier of height 1/(54 g**2) at
x = 1/(3 g), and falls off to -infinity beyond it, so its ground state
is quasi-bound: it decays with lifetime tau and is represented by a
complex energy with Im E = -1/(2 tau).

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

# Roots closer than this are treated as coincident (energy at/near the
# barrier top) rather than returned as garbage.
_DEGENERACY_THRESHOLD = 1e-8

_POLISH_TOL = 1e-13
_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class CubicModel:
    """Cubic well with coupling g > 0: V(x) = x**2/2 - g*x**3."""

    g: float

    def __post_init__(self):
        if not math.isfinite(self.g) or self.g <= 0.0:
            raise DegenerateCubic(
                f"coupling must be finite and positive, got g={self.g!r}"
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


def _newton_polish(model: CubicModel, x: complex, energy: complex, scale: float) -> complex:
    # Newton on f = V(x) - E; the closed-form start is already close,
    # so a handful of steps reaches the residual target.
    for _ in range(30):
        f = model.potential(x) - energy
        if abs(f) <= _POLISH_TOL * scale:
            break
        fp = x - 3.0 * model.g * x * x
        if fp == 0:
            break
        x = x - f / fp
    return x


def _real_energy_roots(model: CubicModel, energy: float, roots, scale: float):
    """The roots of a real energy with the structure its discriminant gives.

    The closed form leaves rounding-level imaginary parts on roots that
    are real.  The discriminant of V(x) = E is 27 E (E_top - E) / g**2,
    with no cancellation in that form: for 0 < E < E_top the three roots
    are real, and the real parts are polished in real arithmetic; outside
    that range one root is real and the other two are an exact conjugate
    pair.
    """
    height = model.barrier_height
    if energy == 0.0 or energy == height:
        where = "barrier top" if energy else "bottom of the well"
        raise CoincidentRoots(f"double turning point: E = {energy!r} is at the {where}")
    if 0.0 < energy < height:
        return [complex(_newton_polish(model, r.real, energy, scale)) for r in roots]
    real, *pair = sorted(roots, key=lambda z: abs(z.imag))
    upper = max(pair, key=lambda z: z.imag)
    return [complex(_newton_polish(model, real.real, energy, scale)), upper, upper.conjugate()]


def turning_points(model: CubicModel, energy: complex) -> TurningPoints:
    """Solve V(x) = E for the three complex turning points.

    The monic form x**3 - x**2/(2g) + E/g = 0 is solved in closed form
    (Cardano with the cancellation-avoiding branch, then deflation to a
    stable quadratic), and every root is polished by Newton iteration
    on V(x) - E to a residual below 1e-13 * max(1, |E|).  A real energy
    gets exactly real roots below the barrier top (0 < E < E_top) and
    otherwise one real root and an exact conjugate pair.

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
        near the barrier top and the turning-point labels x1 < x2 < x3
        stop being meaningful, or if a real energy is exactly 0 or the
        barrier top.
    """
    g = model.g
    E = complex(energy)
    if not (math.isfinite(E.real) and math.isfinite(E.imag)):
        raise ValueError(f"energy must be finite, got {energy!r}")
    scale = max(1.0, abs(E))

    # Monic cubic x**3 + a2 x**2 + a1 x + a0, then depressed t**3 + p t + q
    # with x = t - a2/3.
    a2 = -0.5 / g
    a0 = E / g
    shift = -a2 / 3.0
    p = -(a2 * a2) / 3.0
    q = 2.0 * a2 ** 3 / 27.0 + a0

    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    sq = cmath.sqrt(disc)
    u3 = -q / 2.0 + sq
    alt = -q / 2.0 - sq
    if abs(alt) > abs(u3):
        u3 = alt
    if u3 == 0:
        # p = q = 0: exact triple root.
        raise CoincidentRoots(
            f"triple turning point at x = {shift!r} for E = {E!r}"
        )
    u = u3 ** (1.0 / 3.0)
    r0 = _newton_polish(model, (u - p / (3.0 * u)) + shift, E, scale)

    # Deflate by the polished root and solve the remaining quadratic
    # x**2 + b x + c with the constructive-sign branch.  c is the
    # product of the two remaining roots (r0*r1*r2 = -a0; the linear
    # coefficient of the monic cubic is identically zero here).
    b = a2 + r0
    c = a0 / (-r0) if r0 != 0 else 0.0
    s = cmath.sqrt(b * b - 4.0 * c)
    if (b.conjugate() * s).real < 0.0:
        s = -s
    rb = (-b - s) / 2.0
    rc = c / rb if rb != 0 else (-b + s) / 2.0
    r1 = _newton_polish(model, rb, E, scale)
    r2 = _newton_polish(model, rc, E, scale)

    roots = (r0, r1, r2)
    if E.imag == 0.0:
        roots = _real_energy_roots(model, E.real, roots, scale)
    roots = sorted(roots, key=lambda z: (z.real, z.imag))
    gap = min(
        abs(roots[0] - roots[1]), abs(roots[0] - roots[2]), abs(roots[1] - roots[2])
    )
    if gap < _DEGENERACY_THRESHOLD:
        raise CoincidentRoots(
            f"turning points separated by only {gap:.3e} for E = {E!r}; "
            "energy is at or near the barrier top"
        )
    worst = max(abs(model.potential(r) - E) for r in roots)
    if worst > _RESIDUAL_TOL * scale:
        raise ArithmeticError(
            f"turning-point polish stalled at residual {worst:.3e}"
        )
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
