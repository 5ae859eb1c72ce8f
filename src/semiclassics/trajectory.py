"""Hamiltonian trajectories with complex phase space and real time.

The equations of motion

    dx/dt = p,        dp/dt = -V'(x) = -x + 3 g x**2

are integrated for complex x and p, with H(x, p) = p**2/2 + V(x) held at
the (generally complex) constant E.  The field is polynomial, so the
Taylor coefficients of x about the current point follow from x_0 = x,
x_1 = p and the recurrence

    x_{k+2} = (3 g (x**2)_k - x_k) / ((k + 1) (k + 2)),

where (x**2)_k is the Cauchy product; the momentum coefficients are
p_k = (k + 1) x_{k+1}.  One Taylor stepper (Jorba & Zou, Experimental
Math. 14 (2005) 99) advances the state in real time.  The requested
relative tolerance sets the per-step error target
eps = _EPS_PER_TOL * rel_tol (no smaller than the rounding unit), the
order is ceil(1 - ln(eps)/2), and the step is rho/e**2, with the radius
rho estimated from the last two coefficients relative to the state
norm; the absolute tolerance, scaled by the same factor, floors the
local error target.  A step is one call of straight-line code compiled
once per order, on the first step at that order (``_recurrence``): the
coefficients, in the operation order of the plain loop over j < k - j,
the radius estimate and the step length, and the state at the step end
by Horner's rule, with the exponents and e**2 written in as constants;
the only builtin it calls is ``abs``.  One march (``_stepper``) is the
only loop over those calls: it adds the underflow and drift checks and
lands the last step exactly on the end time, and the round trips and the
crossing search's row marches walk it.  At order 15 the call is 234
binary operations, nearly all complex multiplications and additions,
and a step costs 7 to 9 us (CPython 3.11.7, x86-64, depending on the
host's load).

The samples of ``integrate`` take no step.  The orbit is known in closed
form (see below), so every sample comes from it: one evaluation of
``cubic._orbit`` every _ANCHOR_SPACING samples, the addition theorem
(``cubic._addition``) for the samples between, one numpy pass per block
of them, and a refusal, naming its time, of a horizon that reaches a
pole on the real axis.  The samples are exact to the closed form's own
rounding: within 1e-13 of max(|x|, |p|, 1) at the benchmark's couplings,
5.7e-11 just below the barrier top.

A crossing search tests Re x over the whole step polynomial, not only
at the step ends, so an excursion past the target inside one step is
not missed.  That search needs no LAPACK and
has three tiers (``_first_reach``): a whole-step bound, compiled per
order like the step, skips most steps; a quadratic majorant of the
rest, with a rounding margin that makes it exact, skips most of what
the bound lets through; and on the few steps left the polynomial's
Bernstein form bounds it on a window by its convex hull, de Casteljau
halving narrows the windows the hull cannot settle, and bracketed
Newton steps refine the first root once a window provably holds
exactly one.  Of table1's 296 steps the bound passes 18, the majorant
7, and 4 of those hold a root.  numpy is imported only where the
samples' arrays are built, so a crossing search never loads it.  The
energy drift |H - E| is the quality diagnostic: it is checked at every
step end and at every emitted sample.  The stepper holds only the
current state and the sampling one block of samples, so memory beyond
the output arrays does not grow with the horizon.

The crossing time is not marched to.  Every orbit is an elliptic
function of complex time (DLMF 23) with a period T of tiny imaginary
part (``cubic._periods``), so real time n Re T + s is the complex time
s - i n Im T: after n oscillations the orbit runs along row n, a line
n |Im T| closer to the first row of poles.  Re x reaches Re x3 once a
row comes close enough to it.  ``crossing_time`` searches n for the
first such row, below the poles and within the horizon: one lattice
call (``cubic._row_bracket``) counts the rows below the poles and
predicts the row from the closed form, the search clips the rows to the
horizon itself, and a galloping search from the prediction confirms
it.  Each try, row 0 included, starts row n from the closed-form state
at -i n Im T (``cubic._orbit``, Weierstrass's function on the reduced
lattice), which reads the start only through x0 and the branch of p0,
and marches one period of real time from there, so its cost does not
grow with t_c or t_max.  The search builds the closed form and the
stepper once and every try reads both.

Everything here is pure and reentrant: independent integrations may run
concurrently, and identical inputs produce bit-identical sample
sequences on one platform.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .cubic import (_addition, _check_position, _orbit, _periods, _pole_time, _real_pole,
                    _row_bracket, turning_points)
from .errors import EnergyDriftExceeded, NoCrossing, StepSizeUnderflow

if TYPE_CHECKING:  # numpy is imported where arrays are built
    import numpy as np

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "crossing_time",
    "hamiltonian",
    "initial_momentum",
    "integrate",
    "reversibility_error",
]

# Per-step error target as a fraction of the requested tolerances.  At
# the default rel_tol = 1e-10 this gives eps = 1e-12 (order 15), which
# holds |H - E| near 1.5e-9 over t ~ 1.5e4 against the advertised
# envelope 1e-8 * max(1, |E|); eps = rel_tol itself (order 13) lets it
# reach 9e-8.  A uniform factor keeps the error response to the
# requested tolerance monotone.  A target below the double-precision
# rounding unit buys no accuracy, so eps stops there (order 20).
_EPS_PER_TOL = 1e-2

# Beyond this relative drift the run is declared failed.
DRIFT_FAILURE_LIMIT = 1e-6

# Initial data must sit on the energy shell to this relative accuracy.
_SHELL_TOL = 1e-10

# Most samples one trajectory may hold, t_max's endpoint included: 16 MB
# per complex column.  The default sampled horizon, SAMPLED_T_MAX = 100 at
# the default interval 0.05, needs 2,001; the cap on any horizon,
# IntegratorConfig.t_max = 2e5, fits at intervals from 2e5 / 999,999
# = 0.2000002000002 up.
MAX_SAMPLES = 10**6

# Horizon of a sampled trajectory when none is given, for ``integrate``
# without a config and for the trajectory command: the config's own t_max,
# the crossing search's 2e5, would need 4e6 samples at the default
# interval, beyond MAX_SAMPLES.
SAMPLED_T_MAX = 100.0

# Samples are evaluated in blocks of this many: one vectorized addition
# per block.  At 1024 numpy's per-call cost is spread thin, and a block's
# buffers take a few tens of kB whatever the horizon.
_BLOCK = 1024

# Every this many samples one is evaluated by the closed form's series
# (``cubic._orbit``), and the samples between are reached from it by the
# addition theorem: a divisor of _BLOCK.
_ANCHOR_SPACING = 64

# The root search stops halving a window of s = tau / h in [0, 1] below
# this width, a few units in the last place of s = 1: the Bernstein
# coefficients' rounding then outweighs what another split could prove.
_MIN_WIDTH = 1e-15


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and horizons for trajectory integration."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    t_max: float = 2e5
    sample_interval: float = 0.05

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "sample_interval"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not (math.isfinite(self.t_max) and self.t_max >= 0):
            raise ValueError(f"t_max must be nonnegative and finite, got {self.t_max!r}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled trajectory at fixed energy.

    ``t`` is strictly increasing; ``x`` and ``p`` are complex arrays of
    the same length; ``energy_drift[i]`` is |H(x_i, p_i) - E| and
    ``max_energy_drift`` is its maximum.
    """

    g: float
    energy: complex
    t: np.ndarray
    x: np.ndarray
    p: np.ndarray
    energy_drift: np.ndarray
    max_energy_drift: float

    def __len__(self) -> int:
        return self.t.size


def hamiltonian(model, x, p):
    """H(x, p) = p**2/2 + V(x); accepts scalars or arrays."""
    return 0.5 * p * p + model.potential(x)


def initial_momentum(model, energy, x0, branch: int = 1) -> complex:
    """Momentum consistent with the energy shell at x0.

    Returns branch * sqrt(2 (E - V(x0))) with the principal square
    root; branch is +1 or -1.  At a turning point the result vanishes.
    An x0 whose cube overflows a float (|x0| > 5.64e102) is refused.
    """
    if branch not in (1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch!r}")
    _check_position("x0", complex(x0))
    return branch * cmath.sqrt(2.0 * (complex(energy) - model.potential(complex(x0))))


def _start(model, energy, x0, p0, cfg):
    """The checked inputs every integration starts from: the config (the
    default for None), E, x0 and p0 as complex numbers."""
    E = complex(energy)
    x0 = complex(x0)
    p0 = complex(p0)
    _check_shell(model, E, x0, p0)
    return cfg or IntegratorConfig(), E, x0, p0


def _drift_limit(energy):
    """The failure limit of the drift |H - E| at the energy E."""
    return DRIFT_FAILURE_LIMIT * max(1.0, abs(energy))


def _check_drift(energy, drift):
    """Raise EnergyDriftExceeded unless ``drift`` (a float, NaN included)
    is within the failure limit."""
    limit = _drift_limit(energy)
    if not drift <= limit:
        raise EnergyDriftExceeded(f"|H - E| reached {drift:.3e} (limit {limit:.3e})")


def _at(xs, tau):
    """x and p = dx/dt of the step polynomial sum xs[k] tau**k; for an
    array tau, xs holds matching arrays of coefficients."""
    x = xs[-1]
    p = 0j
    for c in xs[-2::-1]:
        p = p * tau + x
        x = x * tau + c
    return x, p


@functools.cache
def _recurrence(order):
    """The Taylor step and the whole-step bound of one order, (step,
    bound), compiled once per order from straight-line source.

    ``step(x0, x1, g3, scale_floor, h)`` takes the state x0 = x, x1 = p,
    g3 = 3 g, the floor of the state norm and the time left, and returns
    (xs, h, x, p): the coefficients [x_0, ..., x_order], the step length
    and the state at its end.  For each k < order - 1 the source reads

        s = 0j + x0 * x{k} + x1 * x{k-1} + ...   (pairs j < k - j)
        s = s + s + x{k/2} * x{k/2}              (the middle term, even k)
        x{k+2} = (g3 * s - x{k}) * 1/((k + 1)(k + 2))

    with the factor written as its float's repr: the operations, in the
    order of a loop over the pairs, without the loop's indexing.  The sum
    starts from 0j, which makes a -0.0 part of the first product +0.0:
    the signs of zeros reach the samples and the CSV bytes.  At k = 0,
    where the loop's s + s adds 0j to 0j, the line is s = 0j + x0 * x0.
    The step is then the time left, cut to rho/e**2 (see the module
    docstring), and the end state is ``_at(xs, h)`` written out: the same
    Horner operations in the same order, except that its first
    p = 0j * h + x{order} reads p = 0j + x{order}, the same value for
    every finite h >= 0 (dropping the 0j too would turn a +0.0 part of
    p into -0.0 on some imaginary harmonic starts).

    The radius estimate makes max()'s choices with conditional
    expressions: the state norm is |x0|, replaced by |x1| and then by
    scale_floor where each is greater, and 1/rho is the first root term
    unless the second is greater.  That keeps every comparison, NaN
    included, and saves the builtin calls (at order 15 the minima of five
    alternated runs of 9 x 20,000 steps were 7.33 us with max() and
    7.13 us without, CPython 3.11.7, x86-64).

    ``bound(xs, h)`` is the whole-step bound of ``_first_reach``,
    sum_{k>=1} max(Re x_k, 0) h**k, by the same Horner operations as a
    loop from k = order down, on the coefficients unpacked once.

    The exponents 1/(order - 1) and 1/order and e**2 go into the source
    as float reprs; beyond them it holds only integer indices, and its
    namespace holds one builtin, ``abs``.
    """
    last = f"x{order}"
    lines = ["def step(x0, x1, g3, scale_floor, h):"]
    for k in range(order - 1):
        pairs = "".join(f" + x{j} * x{k - j}" for j in range((k + 1) // 2))
        middle = f" + x{k // 2} * x{k // 2}" if k % 2 == 0 else ""
        if k:
            lines += [f"    s = 0j{pairs}", f"    s = s + s{middle}"]
        else:  # the loop's s + s would add 0j to 0j
            lines.append(f"    s = 0j{middle}")
        lines.append(f"    x{k + 2} = (g3 * s - x{k}) * {1.0 / ((k + 1) * (k + 2))!r}")
    e2 = math.exp(2.0)
    lines += ["    scale = abs(x0)",
              "    r = abs(x1)",
              "    scale = r if r > scale else scale",
              "    scale = scale_floor if scale_floor > scale else scale",
              f"    inv_rho = (abs(x{order - 1}) / scale) ** {1.0 / (order - 1)!r}",
              f"    r = (abs({last}) / scale) ** {1.0 / order!r}",
              "    inv_rho = r if r > inv_rho else inv_rho",
              f"    if {e2!r} * inv_rho * h > 1.0:",
              f"        h = 1.0 / ({e2!r} * inv_rho)",
              f"    p = 0j + {last}",
              f"    x = {last} * h + x{order - 1}"]
    for k in range(order - 2, -1, -1):
        lines += ["    p = p * h + x", f"    x = x * h + x{k}"]
    lines.append(f"    return [{', '.join(f'x{k}' for k in range(order + 1))}], h, x, p")
    lines += ["def bound(xs, h):",
              f"    _, {', '.join(f'x{k}' for k in range(1, order + 1))} = xs",
              "    b = 0.0"]
    for k in range(order, 0, -1):
        lines += [f"    r = x{k}.real", "    b = b * h if r <= 0.0 else (b + r) * h"]
    lines.append("    return b")
    namespace = {"__builtins__": {"abs": abs}}
    exec(compile("\n".join(lines), f"<Taylor step of order {order}>", "exec"), namespace)
    return namespace["step"], namespace["bound"]


def _order(cfg):
    """(eps, order): the per-step error target of ``cfg``'s relative
    tolerance and the Taylor order that meets it (see the module
    docstring)."""
    eps = max(_EPS_PER_TOL * cfg.rel_tol, sys.float_info.epsilon)
    return eps, max(2, math.ceil(1.0 - 0.5 * math.log(eps)))


def _stepper(model, energy, cfg):
    """The checked Taylor march of x'' = -x + 3 g x**2 at the tolerances
    of ``cfg``: march(x, p, t_end) yields (t, h, xs, x, p) for each step
    from (x, p) at t = 0.

    A step starts at t, has length h <= t_end - t and the coefficients xs
    of x(t + tau) = sum xs[k] tau**k for 0 <= tau <= h, and ends at
    (x, p), where |H - E| is checked before the step is yielded.  The
    step that is the time left ends exactly at t_end, and the march there.
    """
    eps, order = _order(cfg)
    # the local error target is eps * max(|x|, |p|, scale_floor): abs_tol
    # governs wherever max(|x|, |p|) < abs_tol / rel_tol: 1e-2 at the
    # defaults, 10 at rel_tol = 1e-13
    scale_floor = _EPS_PER_TOL * cfg.abs_tol / eps
    g3 = 3.0 * model.g
    potential = model.potential
    kernel = _recurrence(order)[0]
    limit = _drift_limit(energy)

    def march(x, p, t_end):
        t = 0.0
        while t < t_end:
            remaining = t_end - t
            xs, h, x, p = kernel(x, p, g3, scale_floor, remaining)
            if not t + h > t:
                raise StepSizeUnderflow(
                    f"step size {h:.3e} at t = {t:.17g} no longer advances time")
            drift = abs(0.5 * p * p + potential(x) - energy)
            if not drift <= limit:
                _check_drift(energy, drift)
            yield t, h, xs, x, p
            t = t_end if h == remaining else t + h

    return march


def _first_reach(xs, h, target, bound):
    """First tau in [0, h] at which Re x(tau) = target on the step
    polynomial ``xs``, or None; 0.0 if Re x already starts at or past it.
    ``xs`` has degree n = len(xs) - 1 >= 2, the stepper's order, and
    ``bound`` is its whole-step bound ``_recurrence(n)[1]``.

    Three tiers, each run only on what the one before lets through:

    1. The bound.  The step is skipped when
       Re x_0 + sum_{k>=1} max(Re x_k, 0) h**k stays below the target:
       every tau**k with 0 <= tau <= h is at most h**k and never
       negative, so a term with Re x_k < 0 can only lower Re x, and that
       sum bounds Re x over the whole step.
    2. The quadratic majorant.  With c_k = Re x_k h**k (c_0 < 0, the
       start's distance to the target), a(s) = Re x(h s) - target =
       sum c_k s**k lies, on s in [0, 1], below

           m(s) = c_0 + c_1 s + Q s**2,   Q = c_2 + sum_{k>=3} max(c_k, 0),

       because 0 <= s**k <= s**2 there for k >= 2.  m's maximum on
       [0, 1] is c_0 - c_1**2 / (4 Q), at the vertex, when
       Q < 0 < c_1 < -2 Q, and max(c_0, c_0 + c_1 + Q) otherwise.  The
       step is skipped when that maximum is below -delta,

           delta = 32 (n + 1) eps S + float_min,   S = sum |c_k|,

       eps the float epsilon, which leaves tier 3's answer unchanged.
       Why: the same inequality holds for the Bernstein coefficients,
       since C(i, k) / C(n, k) <= C(i, 2) / C(n, 2) for k >= 2, and de
       Casteljau halving takes averages, so on every window that tier 3
       visits a's exact coefficients lie below m's.  m's last
       coefficient on a window is its value at the window's end, and
       none exceeds m's maximum by more than |Q| w**2 / (4 (n - 1)) on a
       window of width w.  Rounding moves a's float coefficients by at
       most S u (n + 2) in the conversion and S u n per halving,
       u = eps / 2, for at most 50 halvings (tier 3 stops below a width
       of 1e-15); the sum for Q adds S u (n - 2) and the formula for the
       maximum S u 2.  In all that is S u (52 n + 2) = S eps (26 n + 1);
       the rest of delta covers the width term after 50 halvings (below
       1e-30 S) and float_min underflow.  So every window's last float
       coefficient is negative, no window goes to Newton's method, and
       after at most 50 halvings all of a window's float coefficients
       are negative: tier 3 proves every window root-free and returns
       None.  A NaN or inf coefficient makes S, and so delta, NaN or
       inf, and the step goes on to tier 3.
    3. The Bernstein search, on s in [0, 1].  The Bernstein coefficients
       bound a from above and below on their window (the convex hull
       property): a window whose coefficients are all negative holds no
       root; one whose coefficients change sign once, from negative to
       positive, holds exactly one, which safeguarded Newton steps on the
       power form refine to about an ulp; any other window is halved by
       de Casteljau's algorithm, the left half searched first (Farouki &
       Rajan, CAGD 5 (1988) 1).  No window is passed over unless its hull
       proves it root-free, so an excursion past the target inside the
       step is found even when both step ends lie below it.
    """
    a0 = xs[0].real - target
    if a0 >= 0.0:
        return 0.0
    if a0 + bound(xs, h) < 0.0:
        return None
    c = [a0, *(xk.real * h**k for k, xk in enumerate(xs[1:], 1))]
    c1, q = c[1], c[2]
    for ck in c[3:]:
        if ck > 0.0:
            q += ck
    if q < 0.0 < c1 < -2.0 * q:
        top = a0 - c1 * (0.25 * c1 / q)
    else:
        top = max(a0, a0 + c1 + q)
    if top < -(32 * len(c) * sys.float_info.epsilon * sum(map(abs, c)) + sys.float_info.min):
        return None
    s = _first_root(c, _to_bernstein(c), 0.0, 1.0)
    return None if s is None else h * s


@functools.cache
def _bernstein_weights(n):
    """Row i holds C(i, k) / C(n, k) for k <= i: the weights of the power
    coefficients c_k in the Bernstein coefficient b_i of degree n on
    [0, 1]."""
    return tuple(
        tuple(math.comb(i, k) / math.comb(n, k) for k in range(i + 1)) for i in range(n + 1)
    )


def _to_bernstein(c):
    """Bernstein coefficients on [0, 1] of the polynomial sum c[k] s**k."""
    return [sum(map(operator.mul, row, c)) for row in _bernstein_weights(len(c) - 1)]


def _halves(b):
    """Bernstein coefficients of the left and right halves of the window
    of ``b``, by de Casteljau's algorithm at its midpoint."""
    left, right = [b[0]], [b[-1]]
    while len(b) > 1:
        b = [0.5 * (u + v) for u, v in zip(b, b[1:])]
        left.append(b[0])
        right.append(b[-1])
    return left, right[::-1]


def _first_root(c, b, lo, hi):
    """First root in [lo, hi] of a(s) = sum c[k] s**k, given its Bernstein
    coefficients ``b`` on that window with b[0] = a(lo) < 0, or None.

    A right half is searched only after its left half proved root-free,
    whose last coefficient is the right half's first, so b[0] < 0 holds
    on every window searched.
    """
    if max(b) < 0.0:
        return None
    first = next(i for i, v in enumerate(b) if v >= 0.0)
    if b[-1] > 0.0 and min(b[first:]) >= 0.0:
        return _newton(c, lo, hi, lo + (hi - lo) * b[0] / (b[0] - b[-1]))
    if hi - lo < _MIN_WIDTH:
        return lo
    mid = 0.5 * (lo + hi)
    left, right = _halves(b)
    s = _first_root(c, left, lo, mid)
    return s if s is not None else _first_root(c, right, mid, hi)


def _newton(c, lo, hi, s):
    """The one root in [lo, hi] of a(s) = sum c[k] s**k, given
    a(lo) < 0 < a(hi), from the start ``s``.

    Each step narrows the bracket to a(lo) < 0 <= a(hi).  A Newton step
    is taken if it lands inside the bracket and is at most half as long
    as the step before it, else the bracket is bisected; the search ends
    at a Newton step below an ulp of s, or when no float lies inside the
    bracket.
    """
    step = hi - lo
    while True:
        f, df = _at(c, s)
        if f < 0.0:
            lo = s
        else:
            hi = s
        dx = f / df.real if df else math.inf
        if abs(dx) <= sys.float_info.epsilon * s:
            return s - dx
        if lo < s - dx < hi and abs(dx) <= 0.5 * step:
            step = abs(dx)
            s -= dx
        else:
            step = 0.5 * (hi - lo)
            s = lo + step
            if not lo < s < hi:
                return hi


def _check_shell(model, energy, x0, p0):
    for label, value in (("x0", x0), ("p0", p0), ("energy", energy)):
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise ValueError(f"{label} must be finite, got {value!r}")
    _check_position("x0", x0)
    miss = abs(hamiltonian(model, x0, p0) - energy)
    if miss > _SHELL_TOL * max(1.0, abs(energy)):
        raise ValueError(
            f"initial state is off the energy shell: |H(x0, p0) - E| = {miss:.3e}; "
            "use initial_momentum() to build consistent data"
        )


def _sample_times(t_max, interval):
    import numpy as np

    # n + 1 samples on the grid, n = floor(count), and t_max after them
    # unless the grid ends there, all counted before any is allocated;
    # count is inf at a subnormal interval, so it is capped before floor
    count = t_max / interval + 1e-9
    n = math.floor(min(count, MAX_SAMPLES))
    last = min(interval * n, t_max)
    endpoint = t_max - last > 1e-12 * max(1.0, t_max)
    if n + 1 + endpoint > MAX_SAMPLES:
        raise ValueError(
            f"t_max = {t_max!r} at sample interval {interval!r} needs more than "
            f"the limit of {MAX_SAMPLES} samples"
        )
    times = interval * np.arange(n + 1)
    times[-1] = last
    if endpoint:
        times = np.append(times, t_max)
    return times


def _closed_form(model, energy, x0, p0, cfg, times, x, p):
    """Fill x and p at ``times`` (``_sample_times``) from the closed form of
    the orbit through (x0, p0) at energy E.

    Sample i = k M + m, m < M = _ANCHOR_SPACING, is the anchor k M, a
    sample evaluated by ``cubic._orbit``, advanced by the offset m dt
    (dt the sample interval) by the addition theorem (``cubic._addition``):
    at k M dt + m dt, which is i dt but for the rounding of the sum.
    The offsets' states come once, from the orbit on the same lattice
    with its pole at 0, and the anchors _BLOCK at a time, each in one
    call of ``at`` on a numpy array of times; each block of _BLOCK
    samples is one vectorized addition.  The grid's last sample, when it
    is clipped to t_max, and the endpoint t_max after the grid are
    evaluated directly.
    """
    import numpy as np

    tps = turning_points(model, energy)
    periods = _periods(model, tps)
    t0 = _pole_time(model, tps, x0, p0)
    pole = _real_pole(periods, t0, cfg.t_max)
    if pole is not None:
        raise ValueError(f"the orbit reaches a pole at t = {pole!r}, within t_max = "
                         f"{cfg.t_max!r}: x and p are infinite there")
    at = _orbit(model, periods, t0)
    add = _addition(model, tps, at)
    dt = cfg.sample_interval
    elementwise = np.sin, np.cos, np.rint
    offsets = dt * np.arange(1, min(_ANCHOR_SPACING, times.size))
    x_v, p_v = _orbit(model, periods, 0j)(offsets, *elementwise)
    chunk = _BLOCK * _ANCHOR_SPACING
    for lo in range(0, times.size, _BLOCK):
        hi = min(lo + _BLOCK, times.size)
        if lo % chunk == 0:
            x_a, p_a = at(times[lo:lo + chunk:_ANCHOR_SPACING], *elementwise)
        starts = times[lo:hi:_ANCHOR_SPACING]
        k = lo % chunk // _ANCHOR_SPACING
        x_u, p_u = x_a[k:k + starts.size], p_a[k:k + starts.size]
        xs, ps = add(x_u[:, None], p_u[:, None], x_v, p_v, starts[:, None] + offsets)
        x[lo:hi] = np.column_stack([x_u, xs]).ravel()[:hi - lo]
        p[lo:hi] = np.column_stack([p_u, ps]).ravel()[:hi - lo]
    for i in range(max(1, times.size - 2), times.size):
        if times[i] != dt * i:
            x[i], p[i] = at(times[i])


def integrate(model, energy, x0, p0, cfg: IntegratorConfig | None = None) -> Trajectory:
    """Sample the trajectory at a fixed interval, from its closed form.

    A cubic orbit is an elliptic function of complex time, sampled by
    ``_closed_form``; the harmonic one is x0 cos t + p0 sin t.  A real
    start at a real energy keeps exactly zero imaginary parts.  No
    stepper runs, so the config's tolerances are not read.

    Parameters
    ----------
    model : CubicModel or HarmonicModel
        Supplies the coupling g of the closed form and the potential of
        the drift check.
    energy : complex
        The conserved value of H: the energy of the closed form and the
        drift reference.
    x0, p0 : complex
        Initial phase-space point.  Must satisfy H(x0, p0) = E to
        1e-10 relative; ``initial_momentum`` builds a consistent p0.  The
        sample at t = 0 is (x0, p0) itself; the others see p0 only
        through its branch.
    cfg : IntegratorConfig, optional
        Horizon t_max and sample interval; without one, the defaults
        with t_max = SAMPLED_T_MAX (100).

    Returns
    -------
    Trajectory
        Samples at multiples of ``cfg.sample_interval`` plus the final
        time ``cfg.t_max``.  A zero horizon yields exactly the initial
        sample.

    Raises
    ------
    ValueError
        If the horizon reaches a pole of the orbit on the real time axis,
        where x and p are infinite (g = 0.1, E = 1 from rest at x3: the
        pole at t = 3.4888595433475893); the message names its time.
    CoincidentRoots
        If E is at or next to the bottom of the well or the barrier top,
        where the orbit has no period lattice.
    EnergyDriftExceeded
        If |H - E| of a sample exceeds 1e-6 * max(1, |E|), as it does
        where the rounding of the samples is amplified next to a pole
        just off the real axis.
    """
    import numpy as np

    cfg, E, x0, p0 = _start(model, energy, x0, p0, cfg or IntegratorConfig(t_max=SAMPLED_T_MAX))
    times = _sample_times(cfg.t_max, cfg.sample_interval)
    if cfg.t_max > IntegratorConfig.t_max:
        raise ValueError(f"t_max = {cfg.t_max!r} exceeds the limit of {IntegratorConfig.t_max!r}")
    x = np.empty(times.size, dtype=complex)
    p = np.empty_like(x)
    if model.g:
        _closed_form(model, E, x0, p0, cfg, times, x, p)
    else:
        for lo in range(0, times.size, _BLOCK):
            cos, sin = np.cos(times[lo:lo + _BLOCK]), np.sin(times[lo:lo + _BLOCK])
            x[lo:lo + _BLOCK] = x0 * cos + p0 * sin
            p[lo:lo + _BLOCK] = p0 * cos - x0 * sin
    if E.imag == x0.imag == p0.imag == 0.0:
        x.imag = p.imag = 0.0
    x[0], p[0] = x0, p0
    drift = np.empty(times.size)  # by blocks: no full-length temporaries
    for lo in range(0, times.size, _BLOCK):
        hi = lo + _BLOCK
        drift[lo:hi] = np.abs(hamiltonian(model, x[lo:hi], p[lo:hi]) - E)
    max_drift = float(drift.max())
    _check_drift(E, max_drift)
    return Trajectory(
        g=model.g,
        energy=E,
        t=times,
        x=x,
        p=p,
        energy_drift=drift,
        max_energy_drift=max_drift,
    )


def _reach_on_row(orbit, march, bound, T, n, target):
    """First s in [0, Re T) at which Re x(n Re T + s) reaches ``target``,
    or None.

    T is a period, so x(n Re T + s) = x(s - i n Im T): every row starts
    from the closed-form state ``orbit`` (``cubic._orbit``) at -i n Im T,
    and ``march`` (``_stepper``) walks s over one period from there,
    stopping at the first step whose polynomial reaches the target
    (``_first_reach`` with the whole-step bound ``bound`` of the march's
    order).
    """
    x, p = orbit(-1j * n * T.imag)
    for s, h, xs, _x, _p in march(x, p, T.real):
        tau = _first_reach(xs, h, target, bound)
        if tau is not None:
            return s + tau
    return None


def _first_row(found, lo, hi, guess=None):
    """The first n in [lo, hi) with found(n), or hi if there is none, for
    a predicate that stays true from its first true n on.

    With a guess (clamped into [lo, hi)) the search gallops from it:
    found(guess), then guess - 1, - 2, - 4, ... while they hold, or
    guess + 1, + 2, + 4, ... while they do not, until the answer is
    bracketed; the bracket is then bisected.  That takes at most
    2 ceil(log2(|guess - n| + 1)) + 2 probes.  Without a guess [lo, hi)
    is bisected.  All in int arithmetic, so hi may exceed any index.
    """
    if guess is not None and lo < hi:
        start = min(max(guess, lo), hi - 1)
        step = 1
        if found(start):
            hi = start
            while lo < hi:
                m = max(start - step, lo)
                if not found(m):
                    lo = m + 1
                    break
                hi, step = m, 2 * step
        else:
            lo = start + 1
            while lo < hi:
                m = min(start + step, hi - 1)
                if found(m):
                    hi = m
                    break
                lo, step = m + 1, 2 * step
    while lo < hi:
        mid = (lo + hi) // 2
        if found(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def crossing_time(model, energy, x0, p0, cfg: IntegratorConfig | None = None) -> float:
    """First time at which Re x(t) reaches the rightmost turning point.

    t_c = n Re T + s for the first row n (see the module docstring) on
    which Re x reaches Re x3 at some s in [0, Re T).  Row 0, the first
    period of real time, is tried first.  Only if it misses, and T is not
    real, does ``cubic._row_bracket`` count the rows below the first line
    of poles and predict the first row from the closed form; the rows
    above row 0, up to that line and clipped here to the ceil(t_max /
    Re T) rows the horizon reaches, are searched from the prediction by
    steps of 1, 2, 4, ... rows away from it until the first row is
    bracketed, then by bisection (``_first_row``).  From row 1 on, every
    row after the first that reaches Re x3 does too, so any prediction
    gives the same row, and a failed one falls back to bisecting them
    all.  Row 0 is outside that
    order: it can cross on the start's own first excursion, which the
    shifted rows no longer reach, so it goes first.

    Every row, row 0 included, starts from the closed-form state at
    -i n Im T of the orbit with its pole at t0 (``cubic._pole_time``),
    which sees only x0 and the branch of p0, so t_c does not depend on
    |p0| within the shell slack 1e-10 max(1, |E|) of ``_check_shell``.
    That closed form (``cubic._orbit``) and the Taylor stepper are built
    once per search, and each try marches one period with them and the
    whole-step root search.
    A real period (Im T == 0.0 exactly, as for every real energy below
    the barrier top) makes the orbit periodic, so row 0 alone decides,
    with no lattice call.
    A real start at a real energy below the barrier top moves on the
    real axis between x1 and x2, so it never crosses and no step is
    taken.

    Raises
    ------
    NoCrossing
        If the trajectory stays left of Re x3 for all of cfg.t_max.  The
        message names the cause: a real start at a real energy below the
        barrier top, a real period whose first period misses, the rows
        running out at the first line of poles before the horizon, or
        the horizon itself.
    """
    cfg, E, x0, p0 = _start(model, energy, x0, p0, cfg)
    tps = turning_points(model, E)
    target = tps.x3.real
    if x0.real >= target:
        return 0.0
    missed = f"Re x never reached Re x3 = {target!r}"
    if all(z.imag == 0.0 for z in (E, x0, p0, *tps)):
        raise NoCrossing(f"{missed}: a real start at a real energy below the barrier top "
                         "stays between x1 and x2")
    T, _ = periods = _periods(model, tps)
    t0 = _pole_time(model, tps, x0, p0)
    orbit = _orbit(model, periods, t0)
    march = _stepper(model, E, cfg)
    bound = _recurrence(_order(cfg)[1])[1]

    @functools.cache
    def reach(n):
        return _reach_on_row(orbit, march, bound, T, n, target)

    n, rows = 0, 1
    if reach(0) is None:
        if T.imag == 0.0:
            raise NoCrossing(f"{missed}: the period T = {T.real:.6g} is real, so the orbit "
                             "repeats its first period")
        poles, guess = _row_bracket(model, periods, t0, orbit, target)
        rows = min(poles, math.ceil(cfg.t_max / T.real))
        n = _first_row(lambda row: reach(row) is not None, 1, rows, guess)
        if n >= rows and rows * T.real < cfg.t_max:
            raise NoCrossing(f"{missed} on the {rows} rows below the first line of poles")
    if n >= rows or n * T.real + reach(n) > cfg.t_max:
        raise NoCrossing(f"{missed} within t_max = {cfg.t_max!r}")
    return n * T.real + reach(n)


def reversibility_error(
    model, energy, x0, p0, t_total: float, cfg: IntegratorConfig | None = None
) -> float:
    """Phase-space retrace error of a forward-backward round trip.

    Integrates for ``t_total``, flips the momentum sign, integrates for
    ``t_total`` again, flips back, and returns
    |x_final - x0| + |p_final - p0|.  Exact dynamics gives zero; the
    result measures the integrator's time-reversal fidelity.  A
    ``t_total`` beyond ``cfg.t_max`` is refused before any step.
    """
    cfg, E, x0, p0 = _start(model, energy, x0, p0, cfg)
    if not (math.isfinite(t_total) and t_total >= 0):
        raise ValueError(f"t_total must be nonnegative, got {t_total!r}")
    if t_total > cfg.t_max:
        raise ValueError(f"t_total = {t_total!r} exceeds the horizon; the limit is "
                         f"t_max = {cfg.t_max!r}")

    march = _stepper(model, E, cfg)
    x, p = x0, p0
    for _ in range(2):
        for _t, _h, _xs, x, p in march(x, p, t_total):
            pass
        p = -p
    return abs(x - x0) + abs(p - p0)
