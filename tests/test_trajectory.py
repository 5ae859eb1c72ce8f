import cmath
import functools
import itertools
import math
import re
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from semiclassics import cubic, trajectory
from semiclassics.cli import compute_table1, main as cli_main
from semiclassics.cubic import _orbit, _periods, _pole_time, _row_bracket
from tests.test_cubic import SEPARATRIX_ENERGIES, SEPARATRIX_G
from semiclassics import (
    CubicModel,
    EnergyDriftExceeded,
    HarmonicModel,
    IntegratorConfig,
    NoCrossing,
    StepSizeUnderflow,
    corrected_quasi_bound_energy,
    crossing_time,
    hamiltonian,
    initial_momentum,
    integrate,
    reversibility_error,
    turning_points,
)


def quadrature_period(g, energy):
    """Independent period oracle for real bound motion between x1 and x2:
    T = 2 int dx / sqrt(2 (E - V)), with the sqrt endpoint singularities
    removed by x = mid + half*sin(u)."""
    tps = turning_points(CubicModel(g), complex(energy))
    x1, x2, x3 = (t.real for t in tps)
    mid = 0.5 * (x1 + x2)
    half = 0.5 * (x2 - x1)

    def integrand(u):
        x = mid + half * math.sin(u)
        return 1.0 / math.sqrt(2.0 * g * (x3 - x))

    value, err = quad(integrand, -math.pi / 2.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-10
    return 2.0 * value


def trapezoid_period(g, a, b, c, nodes=4096):
    """Period oracle for the loop around the cut a-b, c the third root:
    2 pi / sqrt(2 g) times the mean of 1 / sqrt(c - x) over x = m + d cos
    theta on a fixed trapezoid grid (geometric convergence for a periodic
    analytic integrand), with the square root's cut kept off the segment.
    The sign is arbitrary."""
    m = 0.5 * (a + b)
    d = 0.5 * (b - a)
    x = m + d * np.cos(2.0 * np.pi * np.arange(nodes) / nodes)
    root = np.sqrt(c - x) if c.real > m.real else 1j * np.sqrt(x - c)
    return complex(2.0 * np.pi * np.mean(1.0 / root) / math.sqrt(2.0 * g))


def quadrature_pole_time(tps, periods, x0, p0, nodes=32):
    """Pole-time oracle, exact modulo the lattice: a start at rest at a
    turning point reaches a pole after a half period, T'/2 from x1,
    (T + T')/2 from x2 and T/2 from x3; any other start first reaches its
    nearest turning point xr at the time int dx/p from x0 to xr, taken by
    Gauss-Legendre quadrature after x = xr + (x0 - xr) v**2 removes the
    square-root singularity at xr."""
    T, T_prime = periods
    roots = tuple(tps)
    r = min(range(3), key=lambda i: abs(x0 - roots[i]))
    half = (0.5 * T_prime, 0.5 * (T + T_prime), 0.5 * T)[r]
    if p0 == 0:
        return half
    xr = roots[r]
    xa, xb = (roots[i] for i in range(3) if i != r)
    v, w = np.polynomial.legendre.leggauss(nodes)
    v = 0.5 * (v + 1.0)
    x = xr + (x0 - xr) * v * v
    # p = v q(v) with q continuous along the path and q(1) = p0
    q = p0 * np.sqrt((x - xa) / (x0 - xa)) * np.sqrt((x - xb) / (x0 - xb))
    return half - complex((x0 - xr) * np.sum(w / q))


def lattice_coordinates(z, periods):
    """Real (a, b) with z = a T + b T'."""
    T, T_prime = periods
    span = (T_prime * T.conjugate()).imag
    return (T_prime * z.conjugate()).imag / span, (z * T.conjugate()).imag / span


class JacobiOrbit:
    """Closed-form oracle for the orbit at rest at x1 at time 0, to 40
    digits: x(t) = x1 + (x2 - x1) sn**2(lam t | m), lam**2 = g (x3 - x1)/2,
    m = (x2 - x1)/(x3 - x1), with the roots from mp.polyroots.  It uses
    none of the package's turning points, periods or R_F.  In u = lam t,
    sn**2 and its derivative 2 sn cn dn have the periods 2K(m) and
    2i K(1 - m); u is reduced modulo both before mp.ellipfun, whose theta
    series want a small argument."""

    def __init__(self, g, energy):
        with mp.workdps(40):
            E = mp.mpc(energy.real, energy.imag)
            roots = mp.polyroots([-mp.mpf(g), mp.mpf(0.5), 0, -E], maxsteps=200, extraprec=200)
            self.x1, self.x2, self.x3 = sorted(roots, key=lambda z: (z.real, z.imag))
            self.lam = mp.sqrt(mp.mpf(g) * (self.x3 - self.x1) / 2)
            self.m = (self.x2 - self.x1) / (self.x3 - self.x1)
            self.cell = (2 * mp.ellipk(self.m), 2j * mp.ellipk(1 - self.m))
            self.period = mp.re(self.cell[0] / self.lam)  # Re T

    def reduced(self, t):
        """u = lam t reduced modulo the cell (2K(m), 2i K(1 - m))."""
        u = self.lam * t
        w1, w2 = self.cell
        span = mp.im(w2 * mp.conj(w1))
        return u - (mp.nint(mp.im(w2 * mp.conj(u)) / span) * w1
                    + mp.nint(mp.im(u * mp.conj(w1)) / span) * w2)

    def excess(self, t):
        """Re x(t) - Re x3 at the real time t."""
        with mp.workdps(40):
            sn = mp.ellipfun("sn", self.reduced(mp.mpf(t)), m=self.m)
            return mp.re(self.x1 + (self.x2 - self.x1) * sn**2 - self.x3)

    def state(self, t):
        """x and p = dx/dt at the complex time t, as Python complex numbers."""
        with mp.workdps(40):
            u = self.reduced(mp.mpc(t.real, t.imag))
            sn, cn, dn = (mp.ellipfun(name, u, m=self.m) for name in ("sn", "cn", "dn"))
            d = self.x2 - self.x1
            return complex(self.x1 + d * sn**2), complex(2 * self.lam * d * sn * cn * dn)


@functools.cache
def jacobi_orbit(g, energy):
    return JacobiOrbit(g, energy)


@functools.cache
def row_stays_left(g, energy, n):
    """Whether Re x < Re x3 on 200 points of row n of the oracle orbit."""
    orbit = jacobi_orbit(g, energy)
    T = orbit.period
    return all(orbit.excess(T * (n + k / 200)) < 0 for k in range(200))


def jacobi_crossing(g, energy, t_c, eps=1e-6):
    """The oracle's crossing time, refined by the secant method from the
    package's t_c +- eps, after confirming t_c: Re x - Re x3 changes sign
    from - to + across t_c +- eps, and row n - 1 (n = floor(t_c / Re T),
    real times (n - 1) Re T + s) stays left of Re x3."""
    orbit = jacobi_orbit(g, energy)
    with mp.workdps(40):
        a, b = mp.mpf(t_c) - eps, mp.mpf(t_c) + eps
        fa, fb = orbit.excess(a), orbit.excess(b)
        assert fa < 0 < fb
        n = int(t_c // float(orbit.period))
        assert n == 0 or row_stays_left(g, energy, n - 1)
        for _ in range(20):
            if abs(b - a) <= 1e-30 * abs(b):
                break
            a, fa, b = b, fb, b - fb * (b - a) / (fb - fa)
            fb = orbit.excess(b)
        return float(b)


def worst_sample_error(traj, g, energy, count=41):
    """The largest error of ``count`` evenly spaced samples of a run from
    rest at x1 against JacobiOrbit, relative to max(|x|, |p|, 1)."""
    orbit = jacobi_orbit(g, energy)
    worst = 0.0
    for i in np.unique(np.linspace(0, len(traj) - 1, count).round().astype(int)).tolist():
        x, p = orbit.state(complex(traj.t[i]))
        error = max(abs(traj.x[i] - x), abs(traj.p[i] - p))
        worst = max(worst, error / max(abs(x), abs(p), 1.0))
    return worst


def chord_addition(form):
    """``cubic._addition`` with P(u + v) (form "P") or P'(u + v) (form
    "P'") from the chord through (P_u, P'_u) and (P_v, P'_v), of slope
    l = (P'_u - P'_v) / (P_u - P_v): P(u + v) = l**2/4 - P_u - P_v and
    P'(u + v) = -P'_u - l (P(u + v) - P_u), with P = g x / 2 - 1/12 and
    P' = g p / 2.  These are the forms a simplification could bring back,
    which the sample bound must catch."""

    def build(model, tps, at):
        add = cubic._addition(model, tps, at)
        g = model.g

        def chord(x_u, p_u, x_v, p_v, z):
            x, p = add(x_u, p_u, x_v, p_v, z)
            a, da = 0.5 * g * x_u - 1.0 / 12.0, 0.5 * g * p_u
            b, db = 0.5 * g * x_v - 1.0 / 12.0, 0.5 * g * p_v
            slope = (da - db) / (a - b)
            if form == "P":
                return 2.0 * (0.25 * slope * slope - a - b) / g + 1.0 / (6.0 * g), p
            wp = 0.5 * g * x - 1.0 / 12.0
            return x, 2.0 * (-da - slope * (wp - a)) / g

        return chord

    return build


def march_steps(model, energy, x, p, t_end, cfg):
    """The package's march from (x, p) at t = 0 through t_end, built by
    ``trajectory._stepper``: (t, h, xs, x, p) for each step."""
    return trajectory._stepper(model, energy, cfg)(x, p, t_end)


def first_reach(xs, h, target):
    """``trajectory._first_reach`` with the whole-step bound of the order
    of ``xs``."""
    return trajectory._first_reach(xs, h, target, trajectory._recurrence(len(xs) - 1)[1])


def default_bound():
    """The whole-step bound at the order of the default tolerances, the
    one ``crossing_time`` passes to ``_reach_on_row``."""
    return trajectory._recurrence(trajectory._order(IntegratorConfig())[1])[1]


def march_crossing_time(model, energy, x0, p0, t_max=2e5):
    """The crossing time found by marching through real time, step by step,
    with the package's stepper and in-step root search: the reference for
    the lattice reduction, or None if Re x3 is not reached by t_max."""
    target = turning_points(model, energy).x3.real
    for t, h, xs, _x, _p in march_steps(model, energy, x0, p0, t_max, IntegratorConfig()):
        tau = first_reach(xs, h, target)
        if tau is not None:
            return t + tau
    return None


def tabulated_recurrence(order):
    """The recurrence as a table: for each k < order - 1, the pairs
    (j, k - j) with j < k - j of the Cauchy product (x**2)_k, the middle
    index of an even k (else None) and the factor 1/((k + 1)(k + 2))."""
    return tuple(
        (k, tuple((j, k - j) for j in range((k + 1) // 2)), k // 2 if k % 2 == 0 else None,
         1.0 / ((k + 1) * (k + 2)))
        for k in range(order - 1)
    )


def tabulated_coefficients(x, p, g3, order):
    """x_0 ... x_order by a loop over the rows of ``tabulated_recurrence``,
    each sum started from 0j: the reference for the compiled
    ``trajectory._recurrence(order)``, which must match it bit for bit."""
    xs = [x, p]
    for k, pairs, middle, factor in tabulated_recurrence(order):
        s = 0j
        for j, i in pairs:
            s += xs[j] * xs[i]
        s += s
        if middle is not None:
            s += xs[middle] * xs[middle]
        xs.append((g3 * s - xs[k]) * factor)
    return xs


def while_loop_steps(model, energy, x, p, t_end, cfg, direction=1.0):
    """The stepper with its recurrence as a plain loop: the Cauchy
    product walked by a ``while j < i`` loop, the exponents and the drift
    limit recomputed on every step.  The march of ``_stepper``, whose
    recurrence is compiled once per order, must yield the same
    (t, h, xs, x, p) bit for bit."""
    eps = max(trajectory._EPS_PER_TOL * cfg.rel_tol, sys.float_info.epsilon)
    order = max(2, math.ceil(1.0 - 0.5 * math.log(eps)))
    scale_floor = trajectory._EPS_PER_TOL * cfg.abs_tol / eps
    g3 = 3.0 * model.g
    inv = [direction * direction / ((k + 1) * (k + 2)) for k in range(order - 1)]
    e2 = math.exp(2.0)
    t = 0.0
    while t < t_end:
        xs = [x, direction * p]
        for k in range(order - 1):
            s = 0j
            j, i = 0, k
            while j < i:
                s += xs[j] * xs[i]
                j += 1
                i -= 1
            s += s
            if j == i:
                s += xs[j] * xs[j]
            xs.append((g3 * s - xs[k]) * inv[k])

        scale = max(abs(x), abs(p), scale_floor)
        inv_rho = max(
            (abs(xs[-2]) / scale) ** (1.0 / (order - 1)), (abs(xs[-1]) / scale) ** (1.0 / order)
        )
        remaining = t_end - t
        h = remaining
        if e2 * inv_rho * h > 1.0:
            h = 1.0 / (e2 * inv_rho)
        if not t + h > t:
            raise AssertionError("step size underflow")

        x, p = trajectory._at(xs, h)
        p /= direction
        trajectory._check_drift(energy, abs(hamiltonian(model, x, p) - energy))
        yield t, h, xs, x, p
        t = t_end if h == remaining else t + h


def complex_walk(model, energy, x, p, z, cfg):
    """(x, p) after the complex time z, on the reference steps of
    ``while_loop_steps`` along the straight segment from 0 to z: a
    reference for the closed-form state that shares none of its
    lattice."""
    if z == 0:
        return x, p
    length = abs(z)
    direction = z / length
    for _t, h, xs, _x, _p in while_loop_steps(model, energy, x, p, length, cfg, direction):
        pass
    x, p = trajectory._at(xs, h)
    return x, p / direction


def default_start(g):
    """Model, corrected quasi-bound energy and x1 of a table1 row."""
    model = CubicModel(g)
    energy = corrected_quasi_bound_energy(g).energy
    return model, energy, turning_points(model, energy).x1


def count_steps(monkeypatch):
    """Count the Taylor steps that every later march yields (a step that
    raises is not counted): the round trips and the row marches walk the
    march of ``trajectory._stepper``; the samples of ``integrate`` take
    none."""
    counter = [0]
    stepper = trajectory._stepper

    def counting(*args):
        march = stepper(*args)

        def counted(*start):
            for taken in march(*start):
                counter[0] += 1
                yield taken

        return counted

    monkeypatch.setattr(trajectory, "_stepper", counting)
    return counter


def loop_bound(xs, h):
    """The whole-step bound sum_{k>=1} max(Re x_k, 0) h**k by the loop
    that ``_first_reach`` ran before the bound was compiled per order."""
    bound = 0.0
    for c in xs[:0:-1]:
        r = c.real
        bound = bound * h if r <= 0.0 else (bound + r) * h
    return bound


def reduced_lattice(periods):
    """The lattice (T, T') reduced as ``cubic._orbit`` reduces it."""
    T, T_prime = periods
    while abs(T_prime := T_prime - round((T_prime / T).real) * T) < abs(T):
        T, T_prime = T_prime, T
    return T, T_prime


def uncached_orbit_at(model, periods, t0, z):
    """``cubic._orbit(model, periods, t0)(z)`` with the lattice reduced,
    and c, the term count and the constant terms computed, on every call:
    the reference for the closed form that forms them once, which must
    give the same bits."""
    T, T_prime = reduced_lattice(periods)
    w = z - t0 - round(cubic._lattice_b((T, T_prime), z - t0)) * T_prime
    c = cmath.pi / T
    last = int(0.5 + 20.0 / abs((c * T_prime).imag))
    wp, dwp = -1.0 / 3.0, 0j
    for n in range(-last, last + 1):
        s = cmath.sin(a := c * (w + n * T_prime))
        csc2 = 1.0 / (s * s)
        wp += csc2 - (1.0 / cmath.sin(c * n * T_prime) ** 2 if n else 0.0)
        dwp += cmath.cos(a) / s * csc2
    return 2.0 * c * c * wp / model.g + 1.0 / (6.0 * model.g), -4.0 * c**3 * dwp / model.g


def call_counter(calls, name, fn):
    """fn, counting its calls in calls[name]."""
    def counted(*args):
        calls[name] += 1
        return fn(*args)

    return counted


def peak_traced_bytes(fn, *args):
    """Peak memory that Python allocates while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def np_roots_first_reach(c):
    """The first root in [0, 1] of sum c[k] s**k among the exactly real
    roots that np.roots (LAPACK's real Schur form) returns, or None: the
    in-step search as it was before the Bernstein form replaced it."""
    roots = [r.real for r in np.roots(c[::-1]) if r.imag == 0.0 and 0.0 <= r.real <= 1.0]
    return min(roots) if roots else None


def exact_root(c, s):
    """The root of sum c[k] s**k that Newton's method at 40 digits reaches
    from ``s``, the exact coefficients being the floats c[k]."""
    with mp.workdps(40):
        poly = [mp.mpf(ck) for ck in reversed(c)]
        slope = [k * mp.mpf(ck) for k, ck in enumerate(c)][:0:-1]
        r = mp.mpf(s)
        for _ in range(10):
            r -= mp.polyval(poly, r) / mp.polyval(slope, r)
        return float(r)


def grazing_step(lift, at_the_end):
    """A degree-15 step polynomial of length 1 whose Re x comes within
    lift max|a_k| of the target 1.3, and the target.

    Re x(tau) - target = lift max|a_k| - (tau - 0.6)**2 (1 + tau**13 / 100):
    both step ends sit at least 0.16 below the target, the maximum at
    tau = 0.6 lies lift max|a_k| from it, and lift -1e-12 gives the
    +1e-12 polynomial lowered by 2e-12 max|a_k|.  At the end:
    lift max|a_k| - 15/16 + (tau + tau**2 + ... + tau**15) / 16, with
    a_1 ... a_15 >= 0, rises to its maximum at the step end tau = 1,
    where the whole-step bound equals it; the slope there is 7.5.
    """
    if at_the_end:
        a = [-15.0 / 16.0] + [1.0 / 16.0] * 15
    else:
        quadratic = [0.36, -1.2, 1.0]
        a = [0.0] * 16
        for k, q in enumerate(quadratic):
            a[k] -= q
            a[k + 13] -= q / 100.0
    a[0] += lift * max(map(abs, a))
    target = 1.3
    return [complex(ak + (target if k == 0 else 0.0), 0.1 * k) for k, ak in enumerate(a)], target


GRAZING_CASES = [(1e-12, False), (-1e-12, False), (1e-12, True), (-1e-12, True)]


def unscreened_first_reach(xs, h, target):
    """``_first_reach`` without its quadratic majorant: the whole-step
    bound, then the Bernstein search, as the package ran it before the
    majorant came between them; the reference that the majorant must not
    change, None included."""
    a0 = xs[0].real - target
    if a0 >= 0.0:
        return 0.0
    if a0 + loop_bound(xs, h) < 0.0:
        return None
    c = [a0, *(xk.real * h**k for k, xk in enumerate(xs[1:], 1))]
    s = trajectory._first_root(c, trajectory._to_bernstein(c), 0.0, 1.0)
    return None if s is None else h * s


def majorant_margin(c):
    """The margin delta of ``_first_reach``'s quadratic majorant for the
    power coefficients c in s = tau / h: 32 (n + 1) eps sum|c_k| plus
    the smallest normal float."""
    return 32 * len(c) * sys.float_info.epsilon * sum(map(abs, c)) + sys.float_info.min


STEP_LENGTHS = [1.0, 0.37, 2.5, 0.05]


@st.composite
def random_steps(draw):
    """(xs, h, None): a step polynomial of degree 2-20 whose Re x starts
    a0 in [-1.5, -1e-3] from the target 0, its other real parts in
    [-r**k, r**k] for a decay r in [0.2, 1], as a Taylor series' decay
    with its radius of convergence, and a length h from STEP_LENGTHS."""
    n = draw(st.integers(2, 20))
    r = draw(st.floats(0.2, 1.0))
    a = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    xs = [complex(draw(st.floats(-1.5, -1e-3)), 0.5),
          *(complex(ak * r**k, 0.5) for k, ak in enumerate(a, 1))]
    return xs, draw(st.sampled_from(STEP_LENGTHS)), None


@st.composite
def near_majorant_steps(draw):
    """(xs, h, t): a step polynomial of degree 2-20 and length h from
    STEP_LENGTHS whose quadratic majorant m(s) (see ``_first_reach``) has
    its maximum on [0, 1] at t delta, t in [-4, 4]: at the vertex of a
    concave m, or at s = 1.  Its coefficients c_k = Re x_k h**k of degree
    3 and up are zero, small or of size 1, and c_2 makes
    Q = c_2 + sum_{k>=3} max(c_k, 0) the chosen value; where they are
    zero, Re x is m itself."""
    n = draw(st.integers(2, 20))
    h = draw(st.sampled_from(STEP_LENGTHS))
    t = draw(st.floats(-4.0, 4.0))
    c0 = draw(st.floats(-1.5, -1e-3))
    size = draw(st.sampled_from([0.0, 1e-6, 1.0]))
    higher = [size * draw(st.floats(-1.0, 1.0)) for _ in range(n - 2)]
    vertex = draw(st.booleans())
    ratio = draw(st.floats(1.05, 20.0) if vertex else st.floats(-0.9, 2.0))
    c = [c0, 0.0, 0.0, *higher]
    for _ in range(2):  # delta depends on c_1 and c_2, but hardly
        top = t * majorant_margin(c)
        if vertex:  # m(s) = c0 + c1 s + q s**2 peaks at c0 - c1**2 / (4 q) = top
            q = ratio * (c0 - top)
            c[1] = 2.0 * math.sqrt(ratio) * (top - c0)
        else:  # m(1) = c0 + c1 + q = top, and m rises to s = 1
            q = ratio * -c0
            c[1] = top - c0 - q
        c[2] = q - sum(ck for ck in higher if ck > 0.0)
    return [complex(ck / h**k, 0.25) for k, ck in enumerate(c)], h, t


# the rows, row 0 first, that crossing_time bisected for each table1
# coupling before it galloped from the closed-form prediction
BISECTED_ROWS = {
    0.12522: (0, 1513, 2269, 1891, 2080, 2175, 2222, 2246, 2234, 2228, 2225, 2224),
    0.14311: (0, 139, 209, 174, 192, 201, 197, 199, 198),
    0.16099: (0, 23, 34, 29, 32, 31, 30),
    0.17888: (0, 5, 8, 7, 6),
}


@pytest.fixture(scope="module")
def bisected_row_searches():
    """The step polynomials of the rows of BISECTED_ROWS, each marched by
    _reach_on_row, that pass the two-sided whole-step bound
    Re x_0 + sum_{k>=1} |Re x_k| h**k >= target, scaled to s = tau / h,
    each with whether it passes the one-sided whole-step bound of
    _first_reach and whether _first_reach itself passes it to the
    Bernstein search: the corpus does not depend on the tiers _first_reach
    uses."""
    reached = []
    package_reach = trajectory._first_reach
    to_bernstein = trajectory._to_bernstein

    def recording_reach(xs, h, target, bound):
        reached.append([xs, h, target, False])
        return package_reach(xs, h, target, bound)

    def recording_bernstein(c):
        reached[-1][-1] = True
        return to_bernstein(c)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trajectory, "_first_reach", recording_reach)
        patch.setattr(trajectory, "_to_bernstein", recording_bernstein)
        for g, rows in BISECTED_ROWS.items():
            model, energy, x1 = default_start(g)
            tps = turning_points(model, energy)
            periods = _periods(model, tps)
            t0 = _pole_time(model, tps, x1, 0j)
            orbit = _orbit(model, periods, t0)
            step = trajectory._stepper(model, energy, IntegratorConfig())
            for n in rows:
                trajectory._reach_on_row(orbit, step, default_bound(), periods[0], n, tps.x3.real)
    searched = []
    for xs, h, target, bernstein in reached:
        a = [c.real for c in xs]
        a[0] -= target
        bound = 0.0
        for c in a[:0:-1]:
            bound = (bound + abs(c)) * h
        if a[0] < 0.0 <= a[0] + bound:
            one_sided = a[0] + loop_bound(xs, h) >= 0.0
            searched.append(([ak * h**k for k, ak in enumerate(a)], one_sided, bernstein))
    return searched


@pytest.fixture(scope="module")
def table1_root_searches():
    """The scaled step polynomials (power coefficients in s = tau / h) of
    one table1 run that pass the one-sided whole-step bound of
    _first_reach, each with whether it reached the Bernstein search, the
    number of _first_reach calls and how many np.roots calls the run
    made."""
    searched = []
    calls = [0, 0]
    package_reach = trajectory._first_reach
    to_bernstein = trajectory._to_bernstein
    roots = np.roots

    def recording_reach(xs, h, target, bound):
        calls[0] += 1
        a0 = xs[0].real - target
        if a0 < 0.0 <= a0 + loop_bound(xs, h):
            searched.append([[a0, *(xk.real * h**k for k, xk in enumerate(xs[1:], 1))], False])
        return package_reach(xs, h, target, bound)

    def recording(c):
        assert searched[-1][0] == c
        searched[-1][1] = True
        return to_bernstein(c)

    def counting(*args, **kwargs):
        calls[1] += 1
        return roots(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trajectory, "_first_reach", recording_reach)
        patch.setattr(trajectory, "_to_bernstein", recording)
        patch.setattr(np, "roots", counting)
        compute_table1()
    return searched, *calls


def dop853_reference(g, t_eval=None, crossing=False):
    """Independent solution of the same start (corrected energy, x0 = x1,
    p0 = 0) by scipy's DOP853 at rtol 1e-13, atol 1e-15: the samples at
    t_eval, or the first upward crossing of Re x3."""
    state = corrected_quasi_bound_energy(g)
    model = CubicModel(g)
    tps = turning_points(model, state.energy)

    def rhs(t, y):
        x = y[0] + 1j * y[1]
        f = model.force(x)
        return (y[2], y[3], f.real, f.imag)

    def reached_x3(t, y):
        return y[0] - tps.x3.real

    reached_x3.terminal = True
    reached_x3.direction = 1
    t_end = t_eval[-1] if t_eval is not None else 1e4
    sol = solve_ivp(
        rhs, (0.0, t_end), [tps.x1.real, tps.x1.imag, 0.0, 0.0], method="DOP853",
        rtol=1e-13, atol=1e-15, t_eval=t_eval, events=reached_x3 if crossing else None,
    )
    assert sol.success
    if crossing:
        return float(sol.t_events[0][0])
    return sol.y[0] + 1j * sol.y[1], sol.y[2] + 1j * sol.y[3]


class TestIntegratorConfig:
    @pytest.mark.parametrize("name", ["rel_tol", "abs_tol", "sample_interval"])
    @pytest.mark.parametrize("value", [0.0, -1e-10, math.nan, math.inf])
    def test_tolerances_and_interval_must_be_positive(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            IntegratorConfig(**{name: value})

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    def test_horizon_must_be_nonnegative(self, value):
        with pytest.raises(ValueError, match="t_max must be nonnegative and finite"):
            IntegratorConfig(t_max=value)


class TestInitialMomentum:
    def test_branch_validation(self):
        with pytest.raises(ValueError):
            initial_momentum(CubicModel(0.1), 0.5, 0.0, branch=2)

    @pytest.mark.parametrize("x0", [1e103, -6e102j, 4e102 + 4e102j])
    def test_position_beyond_the_cube_limit_rejected(self, x0):
        # |x0| > 5.64e102 = float_max**(1/3): V(x0) would overflow
        with pytest.raises(ValueError, match=r"beyond \|x\| = 5\.6438e\+102"):
            initial_momentum(CubicModel(0.1), 0.5, x0)

    def test_vanishes_at_exact_turning_point(self):
        # Make the turning point exact by constructing E = V(x0).
        model = CubicModel(0.1)
        x0 = 0.3 + 0.2j
        energy = model.potential(x0)
        assert abs(initial_momentum(model, energy, x0)) <= 1e-13

    def test_origin_momentum_is_unity(self):
        model = CubicModel(0.1)
        assert initial_momentum(model, 0.5 + 0j, 0j, branch=1) == pytest.approx(1.0)
        assert initial_momentum(model, 0.5 + 0j, 0j, branch=-1) == pytest.approx(-1.0)

    def test_energy_shell_residual(self):
        rng = np.random.default_rng(5)
        model = CubicModel(0.13)
        for _ in range(20):
            x0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            energy = complex(rng.uniform(0.1, 1.0), rng.uniform(-0.2, 0.2))
            p0 = initial_momentum(model, energy, x0, branch=int(rng.choice([1, -1])))
            assert abs(hamiltonian(model, x0, p0) - energy) <= 1e-13


class TestIntegrate:
    def test_rejects_off_shell_start(self):
        with pytest.raises(ValueError, match="energy shell"):
            integrate(CubicModel(0.1), 0.5 + 0j, 0j, 2.0 + 0j)

    @pytest.mark.parametrize("label, start", [
        ("x0", (0.5, complex(math.nan, 0.0), 0j)),
        ("p0", (0.5, 0j, complex(0.0, math.inf))),
        ("energy", (complex(math.inf, 0.0), 0j, 1.0)),
    ])
    @pytest.mark.parametrize("run", [integrate, crossing_time])
    def test_rejects_nonfinite_start(self, label, start, run):
        with pytest.raises(ValueError, match=f"{label} must be finite"):
            run(CubicModel(0.1), *start)

    def test_rejects_start_beyond_the_cube_limit(self):
        # checked before H(x0, p0) cubes x0
        with pytest.raises(ValueError, match=r"x0 \(1e\+120\+0j\) is beyond"):
            integrate(CubicModel(0.1), 0.5 + 0j, 1e120 + 0j, 0j)

    def test_harmonic_closed_form(self):
        cfg = IntegratorConfig(t_max=100.0)
        traj = integrate(HarmonicModel(), 0.5 + 0j, 1.0 + 0j, 0j, cfg)
        assert np.max(np.abs(traj.x - np.cos(traj.t))) <= 1e-8
        assert np.max(np.abs(traj.p + np.sin(traj.t))) <= 1e-8

    def test_bound_oscillation_period_matches_quadrature(self):
        g, energy = 0.1, 0.3
        period = quadrature_period(g, energy)
        model = CubicModel(g)
        x1 = turning_points(model, complex(energy)).x1
        cfg = IntegratorConfig(t_max=0.75 * period, sample_interval=1e-3)
        traj = integrate(model, complex(energy), x1, 0j, cfg)
        # p goes 0 -> + -> 0 at x2 (half period, crossing + to -); locate
        # the sign flip and refine with a local cubic fit.
        pr = traj.p.real
        flips = np.where((pr[:-1] > 0) & (pr[1:] <= 0))[0]
        i = flips[0]
        ts = traj.t[i - 2 : i + 3]
        coeffs = np.polyfit(ts - ts[2], pr[i - 2 : i + 3], 3)
        root = min(
            (r.real for r in np.roots(coeffs) if abs(r.imag) < 1e-9), key=abs
        )
        measured = 2.0 * (ts[2] + root)
        assert measured == pytest.approx(period, rel=1e-8)

    def test_zero_horizon_returns_initial_sample(self):
        cfg = IntegratorConfig(t_max=0.0)
        traj = integrate(HarmonicModel(), 0.5 + 0j, 1.0 + 0j, 0j, cfg)
        assert len(traj) == 1
        assert traj.t[0] == 0.0
        assert traj.x[0] == 1.0 + 0j
        assert traj.p[0] == 0j

    def test_default_config_has_the_trajectory_commands_horizon(self):
        # without a config, the trajectory command's horizon: 2,001
        # samples to t = 100, where the config's own t_max = 2e5 would need
        # 4e6, more than MAX_SAMPLES; a real energy in the well keeps the
        # orbit between x1 and x2, short of the escape that ends the
        # quasi-bound orbit's run at this coupling
        model, energy = CubicModel(0.17888), 0.45 + 0j
        x1 = turning_points(model, energy).x1
        traj = integrate(model, energy, x1, 0j)
        assert len(traj) == 2001
        assert traj.t[-1] == trajectory.SAMPLED_T_MAX == 100.0
        explicit = integrate(model, energy, x1, 0j, IntegratorConfig(t_max=100.0))
        assert repr(traj.x.tolist()) == repr(explicit.x.tolist())

    def test_sample_grid(self):
        cfg = IntegratorConfig(t_max=1.23, sample_interval=0.05)
        traj = integrate(HarmonicModel(), 0.5 + 0j, 1.0 + 0j, 0j, cfg)
        assert np.all(np.diff(traj.t) > 0)
        assert traj.t[0] == 0.0
        assert traj.t[-1] == 1.23
        assert traj.t[1] == pytest.approx(0.05, abs=1e-15)
        assert traj.max_energy_drift == traj.energy_drift.max()

    def test_sample_count_is_capped(self):
        # 2e13 samples at the default interval: refused before numpy is asked
        cfg = IntegratorConfig(t_max=1e12)
        with pytest.raises(ValueError, match="samples"):
            integrate(HarmonicModel(), 0.5 + 0j, 1.0 + 0j, 0j, cfg)

    def test_infinite_sample_count_is_capped(self):
        # t_max / interval overflows to inf at a subnormal interval
        cfg = IntegratorConfig(t_max=100.0, sample_interval=1e-320)
        with pytest.raises(ValueError, match="samples"):
            integrate(HarmonicModel(), 0.5 + 0j, 1.0 + 0j, 0j, cfg)

    def test_endpoint_counts_against_the_cap(self):
        # 999,999.5 intervals: 10**6 grid samples, then t_max
        with pytest.raises(ValueError, match=f"the limit of {trajectory.MAX_SAMPLES} samples"):
            trajectory._sample_times(2e5, 0.2000001)

    @pytest.mark.parametrize("t_max, interval", [(249999.75, 0.25), (2e5, 2e5 / 999_999)])
    def test_full_grid_ending_on_t_max_fits(self, t_max, interval):
        times = trajectory._sample_times(t_max, interval)
        assert times.size == trajectory.MAX_SAMPLES
        assert times[-1] == t_max

    def test_horizon_is_bounded(self, monkeypatch):
        # 1,001 samples, within the sample limit, over a horizon that the
        # stepper would never finish: refused before any step, at any
        # horizon beyond the default t_max
        calls = []
        monkeypatch.setattr(trajectory, "_stepper", lambda *args: calls.append(args))
        for t_max in (1e15, 200000.5):
            cfg = IntegratorConfig(t_max=t_max, sample_interval=t_max / 1000)
            with pytest.raises(ValueError, match="exceeds the limit of 200000"):
                integrate(HarmonicModel(), 0.5 + 0j, 1.0 + 0j, 0j, cfg)
        assert calls == []

    def test_sample_limit_message_is_short(self):
        # 1e300 samples: the message names the limit, not the count
        cfg = IntegratorConfig(t_max=1.0, sample_interval=1e-300)
        with pytest.raises(ValueError, match="samples") as info:
            integrate(HarmonicModel(), 0.5 + 0j, 1.0 + 0j, 0j, cfg)
        assert len(str(info.value)) <= 120

    def test_extra_memory_is_flat_in_the_horizon(self):
        # Beyond its output arrays, integrate holds one block of samples:
        # ten times the horizon may not raise the rest of the peak.
        model = CubicModel(0.1)
        x1 = turning_points(model, 0.3 + 0j).x1

        def extra(t_max):
            cfg = IntegratorConfig(t_max=t_max)
            tracemalloc.start()
            try:
                traj = integrate(model, 0.3 + 0j, x1, 0j, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            arrays = (traj.t, traj.x, traj.p, traj.energy_drift)
            return peak - sum(a.nbytes for a in arrays)

        assert extra(600.0) <= extra(60.0) + 16 * 1024

    def test_deterministic_replay(self):
        g = 0.17888
        state = corrected_quasi_bound_energy(g)
        model = CubicModel(g)
        x1 = turning_points(model, state.energy).x1
        cfg = IntegratorConfig(t_max=20.0)
        a = integrate(model, state.energy, x1, 0j, cfg)
        b = integrate(model, state.energy, x1, 0j, cfg)
        assert a.t.tobytes() == b.t.tobytes()
        assert a.x.tobytes() == b.x.tobytes()
        assert a.p.tobytes() == b.p.tobytes()
        assert a.energy_drift.tobytes() == b.energy_drift.tobytes()

    def test_matches_dop853(self):
        g = 0.17888
        state = corrected_quasi_bound_energy(g)
        model = CubicModel(g)
        x1 = turning_points(model, state.energy).x1
        traj = integrate(model, state.energy, x1, 0j, IntegratorConfig(t_max=50.0))
        x, p = dop853_reference(g, t_eval=traj.t)
        assert np.max(np.abs(traj.x - x)) <= 1e-9
        assert np.max(np.abs(traj.p - p)) <= 1e-9

    def test_medium_horizon_drift_envelope(self):
        # 1e-8 * max(1, |E|) envelope at default tolerances
        g = 0.1
        model = CubicModel(g)
        x1 = turning_points(model, 0.3 + 0j).x1
        traj = integrate(model, 0.3 + 0j, x1, 0j, IntegratorConfig(t_max=500.0))
        assert traj.max_energy_drift <= 1e-8

    def test_blowup_trips_drift_guard(self):
        # Past the barrier the complex orbit passes close to a pole near
        # t ~ 68.6, where |p| is large enough that the rounding of the
        # samples puts |H - E| (5.653e-04 here) far beyond the 1e-6 limit.
        g = 2.0 / math.sqrt(125.0)
        state = corrected_quasi_bound_energy(g)
        model = CubicModel(g)
        x1 = turning_points(model, state.energy).x1
        with pytest.raises(EnergyDriftExceeded, match=r"^\|H - E\| reached 5\.\d{3}e-04 "):
            integrate(model, state.energy, x1, 0j, IntegratorConfig(t_max=70.0))

    def test_pole_on_the_real_axis_is_refused(self, monkeypatch):
        # the real orbit from rest at x3 runs off to +infinity at the pole
        # T/2 = 3.48885...; a horizon that reaches it is refused, with the
        # pole's time, before any sample is evaluated, and one short of it
        # is sampled
        calls = {"_orbit": 0}
        monkeypatch.setattr(trajectory, "_orbit",
                            call_counter(calls, "_orbit", trajectory._orbit))
        model = CubicModel(0.1)
        tps = turning_points(model, 1.0 + 0j)
        for t_max in (3.49, 10.0, 2e5):
            cfg = IntegratorConfig(t_max=t_max, sample_interval=max(0.05, t_max / 1000))
            with pytest.raises(ValueError, match=r"^the orbit reaches a pole at t = "
                               rf"3\.4888595433475893, within t_max = {t_max!r}: "):
                integrate(model, 1.0 + 0j, tps.x3, 0j, cfg)
        assert calls["_orbit"] == 0
        T = _periods(model, tps)[0]
        assert T.imag == 0.0 and 0.5 * T.real == pytest.approx(3.4888595433475893, rel=1e-15)
        traj = integrate(model, 1.0 + 0j, tps.x3, 0j, IntegratorConfig(t_max=3.0))
        assert traj.max_energy_drift <= 1e-8

    @pytest.mark.parametrize("energy, x0", [(1.0 + 0j, "x3"), (2.5 + 0j, "x1")],
                             ids=["from x3", "above the barrier top"])
    def test_refused_pole_is_where_the_march_underflows(self, monkeypatch, energy, x0):
        # with no drift limit the march runs on to the pole, where the step
        # no longer advances time: at the time the refusal names, to the
        # march's own error (4.0e-12 and 1.9e-12 relative).
        # Above the barrier top the pole lies on the real axis through
        # 2 T - T', a lattice vector neither period is parallel to.
        monkeypatch.setattr(trajectory, "DRIFT_FAILURE_LIMIT", math.inf)
        model = CubicModel(0.1)
        start = getattr(turning_points(model, energy), x0)
        with pytest.raises(ValueError, match="reaches a pole") as refused:
            integrate(model, energy, start, 0j, IntegratorConfig(t_max=10.0))
        pole = float(re.search(r"t = (\S+),", str(refused.value))[1])
        with pytest.raises(StepSizeUnderflow) as underflow:
            for _ in march_steps(model, energy, start, 0j, 10.0, IntegratorConfig()):
                pass
        marched = float(re.search(r"at t = (\S+) no longer", str(underflow.value))[1])
        assert marched == pytest.approx(pole, rel=1e-11)

    @pytest.mark.parametrize("g, energy, offset", [
        (0.14311, None, 0j), (0.14311, None, 0.05j), (0.2, 0.3 + 0.1j, 0j),
        (0.2, 0.3 + 0.1j, 0.05j), (0.1, 0.3 + 0j, 0j), (0.1, 0.3 + 0j, 0.05j),
        (0.1, -1.0 + 0j, 0j), (0.1, -1.0 + 0j, 0.05j), (0.1, 3.25 + 0j, 0.05j)])
    def test_no_pole_on_the_real_axis_unless_the_orbit_escapes(self, g, energy, offset):
        # at complex energies from x1 and above it, from x1 in the well and
        # below 0, and above x1 at real energies (above the barrier top too,
        # where the real start escapes), no pole lies on the real axis
        model = CubicModel(g)
        energy = energy or corrected_quasi_bound_energy(g).energy
        tps = turning_points(model, energy)
        x0 = tps.x1 + offset
        p0 = initial_momentum(model, energy, x0) if offset else 0j
        periods = _periods(model, tps)
        assert cubic._real_pole(periods, _pole_time(model, tps, x0, p0), 2e5) is None

    def test_real_start_keeps_zero_imaginary_parts(self):
        # a real start at a real energy stays real: every imaginary part is
        # +0.0, on the cubic's closed form and the harmonic one alike
        model = CubicModel(0.1)
        x1 = turning_points(model, 0.3 + 0j).x1
        runs = [integrate(model, 0.3 + 0j, x1, 0j, IntegratorConfig(t_max=100.0)),
                integrate(HarmonicModel(), 0.5 + 0j, 1.0 + 0j, 0j)]
        for traj in runs:
            for column in (traj.x.imag, traj.p.imag):
                assert not np.any(column) and not np.any(np.signbit(column))
    def test_trajectory_export_work_count(self, monkeypatch):
        # the benchmark's trajectory_export pass: four samplings near
        # g = 0.143 and their round trips.  The 20,004 samples take no
        # Taylor step: 567 closed-form points, one anchor every 64 samples
        # (32 + 63 + 94 + 126) and each run's 63 offsets (4 x 63), on two
        # closed forms a run, in one array call each: none of them is a
        # fallback of the addition theorem or a clipped endpoint, the
        # scalar calls.  The four round trips take 966 steps (with the
        # samples' 2,503 the pass took 3,469 when the march sampled).
        steps = count_steps(monkeypatch)
        calls = {"_orbit": 0, "array calls": 0, "scalar calls": 0, "points": 0}
        orbit = cubic._orbit

        def counted_orbit(*args):
            calls["_orbit"] += 1
            at = orbit(*args)

            def counted(z, *elementwise):
                calls["array calls" if np.ndim(z) else "scalar calls"] += 1
                calls["points"] += np.size(z)
                return at(z, *elementwise)

            return counted

        monkeypatch.setattr(trajectory, "_orbit", counted_orbit)
        samples = 0
        for g, t_max in zip((0.1425, 0.1429, 0.1433, 0.1437), (100.0, 200.0, 300.0, 400.0)):
            model, energy, x1 = default_start(g)
            samples += len(integrate(model, energy, x1, 0j, IntegratorConfig(t_max=t_max)))
            reversibility_error(model, energy, x1, 0j, 50.0)
        assert samples == 20004
        assert calls == {"_orbit": 8, "array calls": 8, "scalar calls": 0, "points": 567}
        assert steps[0] == 966


def walked_real_pole(periods, t0, t_max):
    """``cubic._real_pole`` as it walked the lattice before: every line
    t0 + n T' + m T whose b coordinate lies between those of real times 0
    and t_max, and one more on each side, t_max |Im T| / |Im(T' conj(T))|
    lines in all; the reference the package's walk must reproduce."""
    T, T_prime = periods
    tol = cubic._POLE_TOL * (abs(T) + abs(T_prime))
    ends = (cubic._lattice_b(periods, -t0), cubic._lattice_b(periods, t_max - t0))
    first = None
    for n in range(math.floor(min(ends)) - 1, math.ceil(max(ends)) + 2):
        base = t0 + n * T_prime
        if T.imag:
            lo, hi = sorted(((-tol - base.imag) / T.imag, (tol - base.imag) / T.imag))
        elif abs(base.imag) <= tol:
            lo, hi = -math.inf, math.inf
        else:
            continue
        m = max(lo, -base.real / T.real)
        if m <= (t_max - base.real) / T.real:
            m = math.ceil(m)
            t = (base + m * T).real
            if m <= hi and t <= t_max and (first is None or t < first):
                first = max(t, 0.0)
    return first


class TestRealPole:
    """``cubic._real_pole`` against the line-by-line walk it replaced."""

    # below the barrier top (1.852 at g = 0.1), above it and below 0, real
    # and complex: from x1 and x3 at rest and from a point off x1, with
    # and without a pole on the real axis
    LATTICES = [
        (0.1, 0.3 + 0j), (0.1, 1.0 + 0j), (0.1, 1.0 + 1e-12j), (0.1, 2.5 + 0j),
        (0.1, 2.5 - 1e-9j), (0.1, 3.25 + 0j), (0.1, -1.0 + 0j), (0.14311, None),
        (0.2, 0.3 + 0.1j), (0.3, 40.0 - 0.5j),
    ]
    HORIZONS = [0.0, 1.0, 10.0, 1e3, 2e5]

    @staticmethod
    def starts(g, energy):
        """The periods and the pole times of the starts from rest at x1 and
        x3 and from x1 + 0.05i."""
        model = CubicModel(g)
        energy = energy or corrected_quasi_bound_energy(g).energy
        tps = turning_points(model, energy)
        x0 = tps.x1 + 0.05j
        states = [(tps.x1, 0j), (tps.x3, 0j), (x0, initial_momentum(model, energy, x0))]
        return _periods(model, tps), [_pole_time(model, tps, x, p) for x, p in states]

    @pytest.mark.parametrize("g, energy", LATTICES)
    def test_matches_the_line_by_line_walk(self, monkeypatch, g, energy):
        # the same pole, to the bit, or None alike (21 of these 150 runs
        # reach one: from x3 below the barrier top, from x1 above it), on
        # at most four lines parallel to the reduced vector at any horizon;
        # the walk along T took t_max |Im T| / |Im(T' conj(T))| lines, up
        # to 4.1e4 on these lattices at 2e5
        calls = {"_first_on_line": 0}
        monkeypatch.setattr(cubic, "_first_on_line",
                            call_counter(calls, "_first_on_line", cubic._first_on_line))
        periods, poles = self.starts(g, energy)
        for t0 in poles:
            for t_max in self.HORIZONS:
                calls["_first_on_line"] = 0
                found = cubic._real_pole(periods, t0, t_max)
                assert repr(found) == repr(walked_real_pole(periods, t0, t_max))
                assert calls["_first_on_line"] <= 4

    @pytest.mark.parametrize("g, energy", LATTICES)
    def test_a_pole_far_along_the_axis(self, g, energy):
        # t0 puts the pole t0 + 1787 T + 2730 T' at t = 12345.678, the
        # first on the axis but on the real lattices, whose poles on it
        # come earlier; horizons just short of it, just past it and at 2e5.
        # t0 lies far from real time in lattice steps, where the walk's
        # own basis, long and nearly parallel, would misplace the lines
        (T, T_prime), _ = self.starts(g, energy)
        t0 = 12345.678 - 1787 * T - 2730 * T_prime
        for t_max in (12345.677, 12345.679, 2e5):
            found = cubic._real_pole((T, T_prime), t0, t_max)
            assert repr(found) == repr(walked_real_pole((T, T_prime), t0, t_max))
            assert t_max < 12345.678 or found <= 12345.678 + 1e-9

    @pytest.mark.parametrize("energy, x0", [(1.0 + 0j, "x3"), (2.5 + 0j, "x1"), (3.25 + 0j, "x1")])
    def test_any_basis_of_the_lattice(self, energy, x0):
        # (T, +-T' + k T) span the same lattice, and the walk's vector L may
        # come out of their reduction pointing either way along the axis
        model = CubicModel(0.1)
        tps = turning_points(model, energy)
        T, T_prime = _periods(model, tps)
        t0 = _pole_time(model, tps, getattr(tps, x0), 0j)
        first = cubic._real_pole((T, T_prime), t0, 10.0)
        for sign, k in itertools.product((1, -1), range(-3, 4)):
            for t_max in (10.0, 2e5):
                found = cubic._real_pole((T, sign * T_prime + k * T), t0, t_max)
                assert repr(found) == repr(walked_real_pole((T, sign * T_prime + k * T), t0, t_max))
                assert found == pytest.approx(first, rel=1e-14)


def steps_until_failure(steps, args):
    """The (t, h, xs, x, p) that ``steps(*args)`` yields, and the message
    of the drift failure that ends them, or None."""
    out = []
    try:
        for step in steps(*args):
            out.append(step)
    except EnergyDriftExceeded as exc:
        return out, str(exc)
    return out, None


# a complex start; a real start at a real energy, whose imaginary parts
# are all zeros; g3 = 0, the harmonic model; a start whose |p| is above
# both |x| and the floor 1e-2, so the step scale is |p|; and a harmonic
# start on the imaginary axis with Re p = -0.0, whose end momentum at
# order 2 has Re p = +0.0 only if its Horner sum starts from 0j: (x, p, 3 g)
KERNEL_STARTS = {
    "complex": (1.0531 - 0.0173j, -0.2417 + 0.0309j, 3.0 * 0.143),
    "real": (-0.6123 + 0j, 0j, 3.0 * 0.1),
    "harmonic": (1.0 + 0j, -0.25 + 0.5j, 0.0),
    "momentum": (0.05 - 0.01j, 0.9 + 0.05j, 3.0 * 0.143),
    "imaginary": (complex(0.0, -0.279), complex(-0.0, -0.821), 0.0),
}


class TestStepper:
    # the compiled step against the table, the plain formulas and the
    # while loop: equal values (==) and equal reprs, which also pins the
    # signs of zeros
    @pytest.mark.parametrize("order", range(2, 21))
    @pytest.mark.parametrize("start", list(KERNEL_STARTS))
    def test_compiled_recurrence_matches_the_table(self, order, start):
        x, p, g3 = KERNEL_STARTS[start]
        new = trajectory._recurrence(order)[0](x, p, g3, 1e-2, 1.0)[0]
        old = tabulated_coefficients(x, p, g3, order)
        assert len(new) == order + 1
        assert new == old
        assert repr(new) == repr(old)
        if start == "real":
            assert all(c.imag == 0.0 for c in new)

    @pytest.mark.parametrize("order", range(2, 21))
    @pytest.mark.parametrize("start", list(KERNEL_STARTS))
    @pytest.mark.parametrize("scale_floor", [1e-2, 10.0])
    def test_compiled_step_matches_the_plain_formulas(self, order, start, scale_floor):
        # the step length from the radius estimate, once cut to rho/e**2
        # and once clipped to the time left, and the end state by _at
        x, p, g3 = KERNEL_STARTS[start]
        step = trajectory._recurrence(order)[0]
        xs = tabulated_coefficients(x, p, g3, order)
        scale = max(abs(x), abs(p), scale_floor)
        inv_rho = max((abs(xs[-2]) / scale) ** (1.0 / (order - 1)),
                      (abs(xs[-1]) / scale) ** (1.0 / order))
        cut = 1.0 / (math.exp(2.0) * inv_rho)
        for remaining, h in [(10.0 * cut, cut), (0.5 * cut, 0.5 * cut)]:
            new = step(x, p, g3, scale_floor, remaining)
            old = (xs, h, *trajectory._at(xs, h))
            assert new == old
            assert repr(new) == repr(old)

    @pytest.mark.parametrize("order", range(2, 21))
    def test_compiled_bound_matches_the_loop(self, order):
        # the step polynomials of the three starts and random ones with
        # zero, negative zero and negative real parts, over step lengths
        # from 0 to past 1
        rng = np.random.default_rng(order)
        polynomials = [tabulated_coefficients(*start, order) for start in KERNEL_STARTS.values()]
        for _ in range(20):
            re = rng.normal(size=order + 1)
            re[rng.random(order + 1) < 0.2] = 0.0
            re[rng.random(order + 1) < 0.1] = -0.0
            polynomials.append([complex(r, i) for r, i in zip(re, rng.normal(size=order + 1))])
        bound = trajectory._recurrence(order)[1]
        for xs in polynomials:
            for h in (0.0, 0.37, 1.0, 2.5):
                assert repr(bound(xs, h)) == repr(loop_bound(xs, h))

    @pytest.mark.parametrize("order", [2, 15, 20])
    def test_compiled_step_calls_only_abs(self, order):
        step, bound = trajectory._recurrence(order)
        assert step.__globals__ is bound.__globals__
        assert step.__globals__["__builtins__"] == {"abs": abs}

    def test_compiled_recurrence_returns_a_fresh_list(self):
        step = trajectory._recurrence(15)[0]
        first = step(1.0 + 0j, 0.5j, 0.3, 1e-2, 1.0)[0]
        assert step(1.0 + 0j, 0.5j, 0.3, 1e-2, 1.0)[0] is not first

    @pytest.mark.parametrize("rel_tol", [1e3, 1.0, 1e-6, 1e-10, 1e-13, 1e-300])
    @pytest.mark.parametrize("direction", [1.0, -1j, cmath.exp(0.7j)])
    @pytest.mark.parametrize("harmonic", [False, True])
    def test_same_steps_as_the_while_loop(self, rel_tol, direction, harmonic):
        # real time from the start itself (direction 1) or from the state
        # the reference walk reaches along a complex direction, off the
        # real axis; the cubic orbit's walk along -i stops short of its pole
        if harmonic:
            model, energy, x0, p0 = HarmonicModel(), 0.5 + 0j, 1.0 + 0j, 0j
            walk = 4.0
        else:
            model, energy, x0 = default_start(0.143)
            p0 = 0j
            walk = 2.0
        cfg = IntegratorConfig(rel_tol=rel_tol)
        if direction != 1.0:
            # orders 2 and 4 would trip the drift guard on the walk itself
            walk_cfg = cfg if rel_tol <= 1e-6 else IntegratorConfig()
            x0, p0 = complex_walk(model, energy, x0, p0, walk * direction, walk_cfg)
        args = (model, energy, x0, p0, 30.0, cfg)
        # at orders 2 (rel_tol 1e3) and 4 (rel_tol 1) the drift guard
        # trips on the first step: both must word the failure alike
        new = steps_until_failure(march_steps, args)
        old = steps_until_failure(while_loop_steps, args)
        if rel_tol <= 1e-6:
            assert new[1] is None and len(new[0]) > 2
        assert new == old
        assert repr(new) == repr(old)

    @pytest.mark.parametrize("rel_tol", [1e3, 1.0])
    def test_low_orders_match_the_while_loop_near_the_origin(self, rel_tol):
        # a small orbit keeps |H - E| under the absolute limit for many
        # steps: at order 2 the guard trips after 96 of them, both steppers
        # alike; at order 4 all 113 steps to t = 30 pass
        model = CubicModel(0.143)
        x0 = 1e-3 + 1e-4j
        args = (model, model.potential(x0), x0, 0j, 30.0, IntegratorConfig(rel_tol=rel_tol))
        new = steps_until_failure(march_steps, args)
        old = steps_until_failure(while_loop_steps, args)
        assert (len(new[0]), new[1] is None) == {1e3: (96, False), 1.0: (113, True)}[rel_tol]
        assert new == old
        assert repr(new) == repr(old)

    def test_real_orbit_keeps_its_zero_signs(self):
        # a real start at a real energy: every coefficient's imaginary part
        # is a zero, and its sign must match the reference's
        model = CubicModel(0.1)
        x1 = turning_points(model, 0.3 + 0j).x1
        args = (model, 0.3 + 0j, x1, 0j, 20.0, IntegratorConfig())
        new = list(march_steps(*args))
        old = list(while_loop_steps(*args))
        assert all(c.imag == 0.0 for step in new for c in (*step[2], *step[3:]))
        assert repr(new) == repr(old)

    def test_marches_of_one_stepper_are_independent(self):
        # one stepper's marches, one abandoned after three steps as a row
        # march is on a hit and two walked in turns, yield the steps of
        # marches from fresh steppers, to the bit
        model, energy, x1 = default_start(0.14311)
        x0 = x1 + 0.05j
        starts = [(x1, 0j), (x0, initial_momentum(model, energy, x0))]
        cfg = IntegratorConfig()
        fresh = [list(march_steps(model, energy, x, p, 30.0, cfg)) for x, p in starts]
        march = trajectory._stepper(model, energy, cfg)
        abandoned = march(*starts[1], 30.0)
        head = [next(abandoned) for _ in range(3)]
        walked = ([], [])
        for pair in itertools.zip_longest(*(march(x, p, 30.0) for x, p in starts)):
            for steps, step in zip(walked, pair):
                if step is not None:
                    steps.append(step)
        del abandoned
        assert len(fresh[0]) > 3 and len(fresh[1]) > 3
        assert repr(head) == repr(fresh[1][:3])
        assert repr(list(walked)) == repr(fresh)
        assert repr(list(march(*starts[0], 30.0))) == repr(fresh[0])

    # one period of real time at the table1 couplings, as the row marches
    # walk it, and the fixed horizons (the g = 0.17888 orbit trips the
    # drift guard before t = 123.456, after its crossing near t = 40), all
    # from x1 at rest; and a march of two steps from the state seven steps
    # on, whose last step starts before half its end time, so that
    # t + (t_end - t) rounds to below t_end: the march ends there only
    # because a step that is the time left lands on t_end
    @pytest.mark.parametrize("g, t_end, skip", [
        *((g, "Re T", 0) for g in (0.17888, 0.16099, 0.14311, 0.12522)),
        *((g, 50.0, 0) for g in (0.17888, 0.16099, 0.14311, 0.12522)),
        *((g, 123.456, 0) for g in (0.16099, 0.14311, 0.12522)),
        (0.14311, 0.9916669472850331, 7),
    ])
    def test_march_ends_exactly_at_its_end_time(self, g, t_end, skip):
        # each step starts where the one before it ended and is shorter
        # than the time left, and the last step is the time left: the
        # march lands on t_end, with no sliver of a step after it
        model, energy, x, p = *default_start(g), 0j
        if t_end == "Re T":
            t_end = _periods(model, turning_points(model, energy))[0].real
        cfg = IntegratorConfig()
        for _t, _h, _xs, x, p in itertools.islice(march_steps(model, energy, x, p, 10.0, cfg),
                                                   skip):
            pass
        steps = list(march_steps(model, energy, x, p, t_end, cfg))
        assert steps[0][0] == 0.0
        for (t, h, *_), (t_next, *_) in zip(steps, steps[1:]):
            assert h < t_end - t
            assert t_next == t + h
        t, h = steps[-1][:2]
        assert h == t_end - t

    def test_drift_message_is_unchanged(self):
        # the limit is set once per run, and _check_drift still words the
        # failure
        g = 2.0 / math.sqrt(125.0)
        model, energy, x1 = default_start(g)
        args = (model, energy, x1, 0j, 70.0, IntegratorConfig())
        new = steps_until_failure(march_steps, args)
        old = steps_until_failure(while_loop_steps, args)
        assert new == old
        assert new[1].startswith("|H - E| reached")

    @pytest.mark.parametrize("rel_tol, drift", [(1e-10, "1.202e-06"), (1e-13, "1.818e-06")])
    def test_blowup_from_x3_trips_the_drift_guard_first(self, rel_tol, drift):
        # the real orbit from rest at x3 runs off to +infinity in finite
        # time; the drift guard stops the march before the step size
        # underflows
        model = CubicModel(0.1)
        x3 = turning_points(model, 1.0 + 0j).x3
        with pytest.raises(EnergyDriftExceeded,
                           match=rf"^\|H - E\| reached {drift} \(limit 1\.000e-06\)$"):
            for _ in march_steps(model, 1.0 + 0j, x3, 0j, 10.0, IntegratorConfig(rel_tol=rel_tol)):
                pass

    def test_blowup_from_x3_underflows_without_the_drift_guard(self, monkeypatch):
        # with no drift limit the same march goes on to the pole, where the
        # step (1.9e-17 at |x| ~ 1.9e32) no longer advances time
        monkeypatch.setattr(trajectory, "DRIFT_FAILURE_LIMIT", math.inf)
        steps = count_steps(monkeypatch)
        model = CubicModel(0.1)
        x3 = turning_points(model, 1.0 + 0j).x3
        with pytest.raises(StepSizeUnderflow, match=r"at t = 3\.48885\d* no longer advances time$"):
            for _ in march_steps(model, 1.0 + 0j, x3, 0j, 10.0, IntegratorConfig()):
                pass
        assert steps[0] == 109


class TestCrossingTime:
    def test_no_crossing_for_bound_real_energy(self):
        # Real E below the barrier: oscillation between x1 and x2 never
        # reaches x3.
        model = CubicModel(0.1)
        x1 = turning_points(model, 0.3 + 0j).x1
        with pytest.raises(NoCrossing):
            crossing_time(model, 0.3 + 0j, x1, 0j, IntegratorConfig(t_max=50.0))

    @pytest.mark.parametrize("g", [0.17888, 0.16099, 0.14311])
    def test_bracketing_consistency_with_samples(self, g):
        state = corrected_quasi_bound_energy(g)
        model = CubicModel(g)
        tps = turning_points(model, state.energy)
        t_c = crossing_time(model, state.energy, tps.x1, 0j)
        traj = integrate(
            model, state.energy, tps.x1, 0j, IntegratorConfig(t_max=t_c + 2.0)
        )
        i = np.searchsorted(traj.t, t_c)
        left = traj.x[i - 1].real - tps.x3.real
        right = traj.x[i].real - tps.x3.real
        assert left < 0 <= right
        # a crossing missed inside one long step would leave an earlier
        # sample at or right of Re x3
        assert np.all(traj.x.real[traj.t < t_c] < tps.x3.real)

    @pytest.mark.parametrize("g", [0.17888, 0.16099])
    def test_matches_dop853(self, g):
        state = corrected_quasi_bound_energy(g)
        model = CubicModel(g)
        x1 = turning_points(model, state.energy).x1
        t_c = crossing_time(model, state.energy, x1, 0j)
        assert t_c == pytest.approx(dop853_reference(g, crossing=True), rel=1e-6)

    def test_in_step_excursion_is_found(self):
        # Re x(tau) = 1.3 - 0.5 + 2 tau - tau**2 on a step of length 2: both
        # ends sit 0.5 left of the target, the maximum at tau = 1 sits 0.5
        # right of it.  The first root is tau = 1 - sqrt(1/2).
        xs = [0.8 + 0.1j, 2.0 - 0.3j, -1.0 + 0.2j]
        assert first_reach(xs, 2.0, 1.3) == pytest.approx(
            1.0 - math.sqrt(0.5), rel=1e-12
        )
        # the same step stopped at tau = 0.25 stays left of the target
        assert first_reach(xs, 0.25, 1.3) is None

    def test_start_beyond_x3_crosses_immediately(self):
        g = 0.1
        model = CubicModel(g)
        tps = turning_points(model, 0.3 + 0j)
        x0 = complex(tps.x3.real + 0.5)
        p0 = initial_momentum(model, 0.3 + 0j, x0)
        assert crossing_time(model, 0.3 + 0j, x0, p0) == 0.0

    def test_memory_is_flat_in_the_horizon(self):
        # The stepper holds only the current state: ten times the horizon
        # may not raise the peak traced allocation by more than a few kB.
        # The table1 start at g = 0.14311 marches rows at both horizons: it
        # misses within t_max = 300 and crosses within 3000.  One run comes
        # before any is measured, so that the short run's peak does not hold
        # the one-time compile of the Taylor step.
        g = 0.14311
        state = corrected_quasi_bound_energy(g)
        crossing_model = CubicModel(g)
        start = turning_points(crossing_model, state.energy).x1
        model = CubicModel(0.1)
        x1 = turning_points(model, 0.3 + 0j).x1
        crossings = {}

        def crossing(t_max):
            cfg = IntegratorConfig(t_max=t_max)
            try:
                crossings[t_max] = crossing_time(crossing_model, state.energy, start, 0j, cfg)
            except NoCrossing as exc:
                crossings[t_max] = str(exc)

        def round_trip(duration):
            reversibility_error(model, 0.3 + 0j, x1, 0j, duration)

        crossing(300.0)
        for run, short, long in ((crossing, 300.0, 3000.0), (round_trip, 50.0, 500.0)):
            assert peak_traced_bytes(run, long) <= peak_traced_bytes(run, short) + 16 * 1024
        assert crossings[300.0].endswith("within t_max = 300.0")
        assert crossings[3000.0] == pytest.approx(1386.5660981656326, rel=1e-9)

    def test_converged_under_tolerance_refinement(self):
        g = 0.17888
        state = corrected_quasi_bound_energy(g)
        model = CubicModel(g)
        x1 = turning_points(model, state.energy).x1
        coarse = crossing_time(model, state.energy, x1, 0j, IntegratorConfig())
        fine = crossing_time(
            model, state.energy, x1, 0j, IntegratorConfig(rel_tol=0.5e-10)
        )
        assert abs(fine - coarse) / coarse < 1e-3

    def test_barrier_return_after_crossing(self):
        # After crossing Re x3 the trajectory swings back left of Re x2
        # instead of escaping to the right.
        g = 2.0 / math.sqrt(125.0)
        state = corrected_quasi_bound_energy(g)
        model = CubicModel(g)
        tps = turning_points(model, state.energy)
        traj = integrate(model, state.energy, tps.x1, 0j, IntegratorConfig(t_max=58.0))
        crossed = np.where(traj.x.real >= tps.x3.real)[0]
        assert crossed.size > 0
        after = traj.x.real[crossed[0]:]
        assert after.min() < tps.x2.real


class TestRootSearch:
    """The in-step search for the first root in [0, 1] of a step polynomial:
    convex hull, de Casteljau halving and bracketed Newton steps."""

    def test_table1_search_count(self, table1_root_searches):
        # 296 in-step searches: the whole-step bound rejects 278, the
        # quadratic majorant 11 of the other 18, and 4 of the 7 left for
        # the Bernstein search hold a root; what the majorant rejects has
        # no root by np.roots either
        searched, reach_calls, roots_calls = table1_root_searches
        assert roots_calls == 0
        assert reach_calls == 296
        assert len(searched) == 18
        assert sum(bernstein for _, bernstein in searched) == 7
        found = 0
        for c, bernstein in searched:
            reference = np_roots_first_reach(c)
            if bernstein:
                s = trajectory._first_root(c, trajectory._to_bernstein(c), 0.0, 1.0)
                assert (s is None) == (reference is None)
                found += s is not None
            else:
                assert reference is None
        assert found == 4

    def test_agrees_with_np_roots_on_table1(self, bisected_row_searches):
        # the same roots as np.roots, and each within an ulp of the exact
        # root of the float polynomial, which np.roots misses by up to 16.5;
        # what the one-sided bound of _first_reach skips (42) and what its
        # quadratic majorant rejects of the rest (23) have no root either
        searched = bisected_row_searches
        assert len(searched) == 84
        assert sum(one_sided for _, one_sided, _ in searched) == 42
        assert sum(bernstein for _, _, bernstein in searched) == 19
        found = 0
        for c, one_sided, bernstein in searched:
            s = trajectory._first_root(c, trajectory._to_bernstein(c), 0.0, 1.0)
            reference = np_roots_first_reach(c)
            assert (s is None) == (reference is None)
            assert one_sided or not bernstein
            if not bernstein:
                assert reference is None
            if s is not None:
                found += 1
                assert abs(s - exact_root(c, reference)) <= sys.float_info.epsilon
        assert found == 15

    def test_majorant_matches_the_unscreened_search(self, monkeypatch):
        # _first_reach returns what the bound and the Bernstein search
        # alone return, to the bit and None included, on random steps, on
        # steps whose majorant peaks within 4 delta of the target on
        # either side, and on the grazing steps.  The majorant must do
        # work: it rejects 83 of the 604 cases and 10 of the 56 random
        # steps that pass the bound (at least 8% of each are asked), and
        # a near step exactly when its maximum lies below -delta (to 5%
        # of delta)
        searches = []
        to_bernstein = trajectory._to_bernstein
        monkeypatch.setattr(trajectory, "_to_bernstein",
                            lambda c: searches.append(c) or to_bernstein(c))
        tally = {"cases": 0, "rejected": 0, "random passed": 0, "random rejected": 0}

        def check(xs, h, t, target=0.0):
            searches.clear()
            tau = first_reach(xs, h, target)
            searched = bool(searches)
            assert repr(tau) == repr(unscreened_first_reach(xs, h, target))
            a0 = xs[0].real - target
            passed = a0 < 0.0 <= a0 + loop_bound(xs, h)
            rejected = passed and not searched
            tally["cases"] += 1
            tally["rejected"] += rejected
            if t is None:
                tally["random passed"] += passed
                tally["random rejected"] += rejected
            elif t <= -1.05:
                assert not searched
            elif t >= -0.95:
                assert searched or not passed

        @settings(deadline=None, max_examples=600, derandomize=True, database=None)
        @given(case=st.one_of(random_steps(), near_majorant_steps()))
        def random_and_near(case):
            check(*case)

        random_and_near()
        for lift, at_the_end in GRAZING_CASES:
            xs, target = grazing_step(lift, at_the_end)
            check(xs, 1.0, None, target)
        assert tally["rejected"] >= 0.08 * tally["cases"]
        assert tally["random rejected"] >= 0.08 * tally["random passed"]

    @pytest.mark.parametrize("lift, at_the_end", GRAZING_CASES,
                             ids=["above", "below", "above-at-the-end", "below-at-the-end"])
    def test_grazing_excursion(self, lift, at_the_end):
        xs, target = grazing_step(lift, at_the_end)
        tau = first_reach(xs, 1.0, target)
        if lift < 0:
            assert tau is None
        elif at_the_end:
            end = (xs[0].real - target) + 15.0 / 16.0  # a(1), exact in binary
            assert tau == pytest.approx(1.0 - end / 7.5, abs=2 * sys.float_info.epsilon)
        else:
            assert 0.6 - tau == pytest.approx(math.sqrt(1.2e-12), rel=1e-4)

    def test_tangency_is_reached(self):
        # Re x(tau) - 1.3 = -(tau - 0.5)**2 touches the target without
        # crossing it; every coefficient and split is exact in binary, so
        # no hull proves a window root-free and no window holds a sign
        # change: halving stops at the width limit just left of the touch
        xs = [1.05 + 0.2j, 1.0, -1.0 - 0.1j]
        tau = first_reach(xs, 1.0, 1.3)
        assert 0.5 - 2 * trajectory._MIN_WIDTH <= tau <= 0.5

    def test_step_starting_past_the_target(self):
        # a step whose Re x starts at or past the target reaches it at 0
        assert first_reach([1.3 + 0.5j, -1.0, -1.0], 0.5, 1.3) == 0.0
        assert first_reach([1.4 + 0j, -1.0, -1.0], 0.5, 1.3) == 0.0

    def test_newton_on_adjacent_floats(self):
        # near the triple root of (s - 1/2)**3 the polynomial's value is
        # rounding: its sign changes between two adjacent floats, and the
        # Newton step (0.25) cannot land between them, so the bracket's
        # upper end is the root
        c = [-0.125, 0.75, -1.5, 1.0]
        lo = 0.49999999999977823
        hi = math.nextafter(lo, 1.0)
        (f, df), (f_hi, _) = trajectory._at(c, lo), trajectory._at(c, hi)
        assert f < 0.0 < f_hi
        assert abs(f / df.real) > sys.float_info.epsilon
        assert trajectory._newton(c, lo, hi, lo) == hi

    # each mp.polyroots call takes ~0.1 s
    @settings(deadline=None, max_examples=30, derandomize=True)
    @given(
        a0=st.floats(-1.5, -1e-3),
        a=st.lists(st.floats(-1.0, 1.0), min_size=14, max_size=14),
        lead=st.floats(-1.0, 1.0).filter(lambda v: abs(v) >= 1e-3),
        h=st.sampled_from([1.0, 0.37, 2.5]),
    )
    def test_first_root_matches_mpmath(self, a0, a, lead, h):
        # the first root in [0, h] of a random degree-15 step polynomial
        # minus the target against mp.polyroots at 30 digits, wherever the
        # answer is well posed: no nonreal root near the window, no root
        # near its ends; the bound is a backward error of 64 ulp in the
        # scaled coefficients carried through the slope at the root
        a = [a0, *a, lead]
        with mp.workdps(30):
            roots = mp.polyroots(a[::-1], maxsteps=200, extraprec=60)
            real = sorted(r.real for r in roots if abs(r.imag) <= 1e-25)
            assume(not any(1e-25 < abs(r.imag) < 1e-6 and -1e-6 < r.real < h + 1e-6
                           for r in roots))
            assume(all(abs(r) > 1e-9 and abs(r - h) > 1e-9 for r in real))
            inside = [r for r in real if 0 < r < h]
            tau = first_reach([complex(ak, 0.5) for ak in a], h, 0.0)
            if not inside:
                assert tau is None
                return
            r = inside[0]
            slope = abs(mp.polyval([k * ak for k, ak in enumerate(a)][:0:-1], r))
            scale = sum(abs(ak) * h**k for k, ak in enumerate(a))
            assert tau is not None
            assert abs(tau - r) <= 64 * sys.float_info.epsilon * scale / slope


class TestFirstRow:
    """The row search on synthetic monotone predicates n >= first."""

    @staticmethod
    def search(lo, hi, first, guess):
        probes = []

        def found(n):
            assert lo <= n < hi
            probes.append(n)
            return n >= first

        return trajectory._first_row(found, lo, hi, guess), probes

    @settings(deadline=None, max_examples=400, derandomize=True)
    @given(data=st.data())
    def test_gallops_to_the_first_true_index(self, data):
        # ranges up to 1e30 wide; the answer anywhere in them, or nowhere
        # (first = hi); the guess near the answer, anywhere in the range or
        # far outside it
        lo = data.draw(st.integers(-10**30, 10**30))
        hi = lo + data.draw(st.one_of(st.integers(0, 70), st.integers(0, 10**30)))
        first = data.draw(st.one_of(st.integers(lo, min(hi, lo + 70)), st.integers(lo, hi)))
        guess = data.draw(st.one_of(st.integers(first - 70, first + 70), st.integers(lo, hi),
                                    st.integers(lo - 10**31, hi + 10**31)))
        n, probes = self.search(lo, hi, first, guess)
        assert n == first
        assert len(probes) == len(set(probes))
        assert len(probes) <= 2 * abs(guess - first).bit_length() + 2
        if lo < hi:
            # from the guess clamped into the range
            start = min(max(guess, lo), hi - 1)
            assert len(probes) <= 2 * abs(start - first).bit_length() + 2

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(lo=st.integers(-10**30, 10**30), size=st.integers(0, 10**30), data=st.data())
    def test_bisects_without_a_guess(self, lo, size, data):
        first = data.draw(st.integers(lo, lo + size))
        n, probes = self.search(lo, lo + size, first, None)
        assert n == first
        assert len(probes) <= size.bit_length()


class TestLatticeReduction:
    @pytest.mark.parametrize("g", [0.17888, 0.16099, 0.14311, 0.12522])
    def test_matches_march(self, g):
        model, energy, x1 = default_start(g)
        t_c = crossing_time(model, energy, x1, 0j)
        assert t_c == pytest.approx(march_crossing_time(model, energy, x1, 0j), rel=1e-6)

    @pytest.mark.parametrize("g, first_row", [(0.16099, 30), (0.14311, 199)])
    def test_scan_finds_the_bisected_row(self, g, first_row):
        # every row below the one the row search finds fails the predicate
        # and that row holds it: the predicate is monotone where it looks
        model, energy, x1 = default_start(g)
        tps = turning_points(model, energy)
        periods = _periods(model, tps)
        t0 = _pole_time(model, tps, x1, 0j)
        assert math.floor(crossing_time(model, energy, x1, 0j) / periods[0].real) == first_row
        args = (_orbit(model, periods, t0), trajectory._stepper(model, energy, IntegratorConfig()),
                default_bound(), periods[0])
        scanned = next(
            n for n in itertools.count()
            if trajectory._reach_on_row(*args, n, tps.x3.real) is not None
        )
        assert scanned == first_row

    # 2.5, just left of Re x3, crosses within the first period
    @pytest.mark.parametrize("x0", [0.1, -0.5 + 0.2j, 1.0 - 0.3j, 2.5])
    def test_explicit_start_matches_march(self, x0):
        model, energy, _ = default_start(0.16099)
        p0 = initial_momentum(model, energy, x0)
        t_c = crossing_time(model, energy, complex(x0), p0)
        assert t_c == pytest.approx(march_crossing_time(model, energy, complex(x0), p0), rel=1e-6)

    def test_horizon_ends_on_the_crossing_row(self):
        # t_c just inside the horizon lies on the last row searched
        model, energy, x1 = default_start(0.16099)
        t_c = crossing_time(model, energy, x1, 0j)
        assert crossing_time(model, energy, x1, 0j, IntegratorConfig(t_max=t_c + 1e-3)) == t_c
        with pytest.raises(NoCrossing):
            crossing_time(model, energy, x1, 0j, IntegratorConfig(t_max=t_c - 1e-3))

    def test_horizon_below_one_period(self, monkeypatch):
        # t_max = 1 is below Re T = 6.744: the horizon clips the rows to
        # row 0, the only row tried, and the horizon, not the poles, is
        # named
        model, energy, x1 = default_start(0.12522)
        calls = {"_reach_on_row": 0}
        monkeypatch.setattr(trajectory, "_reach_on_row",
                            call_counter(calls, "_reach_on_row", trajectory._reach_on_row))
        with pytest.raises(NoCrossing, match=r"within t_max = 1\.0$"):
            crossing_time(model, energy, x1, 0j, IntegratorConfig(t_max=1.0))
        assert calls == {"_reach_on_row": 1}

    def test_failed_prediction_falls_back_to_bisection(self, monkeypatch):
        # a closed-form evaluation that fails inside the prediction leaves
        # no guess, and bisecting the 45 rows finds the same crossing
        def failing(*args):
            raise ZeroDivisionError("float division by zero")

        def failing_bracket(model, periods, t0, orbit, target):
            return _row_bracket(model, periods, t0, failing, target)

        model, energy, x1 = default_start(0.16099)
        tps = turning_points(model, energy)
        periods = _periods(model, tps)
        t0 = _pole_time(model, tps, x1, 0j)
        assert failing_bracket(model, periods, t0, None, tps.x3.real) == (45, None)
        monkeypatch.setattr(trajectory, "_row_bracket", failing_bracket)
        assert crossing_time(model, energy, x1, 0j) == 222.07908252223885

    def test_real_energy_huge_horizon(self, monkeypatch, capsys):
        steps = count_steps(monkeypatch)
        code = cli_main(
            ["crossing-time", "--g", "0.1", "--energy", "re=0.3,im=0", "--t-max", "1e15"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "never reached" in err
        # the start at rest at x1 stays on the real axis: not even one
        # period is marched, and the horizon is not blamed
        assert "stays between x1 and x2" in err
        assert "within t_max" not in err
        assert steps[0] == 0

    @pytest.mark.parametrize("below_top", [1e-9, 1e-12])
    def test_real_energy_near_the_barrier_top(self, monkeypatch, below_top):
        # exactly real roots give an exactly real period however close the
        # energy is to the top, so one period decides (a period with a
        # rounding-level imaginary part took ~600 steps here); the start
        # is off the real axis, where the orbit is not confined to x1-x2
        model = CubicModel(0.1)
        energy = complex(1.0 / (54.0 * 0.01) - below_top)
        tps = turning_points(model, energy)
        assert _periods(model, tps)[0].imag == 0.0
        x0 = tps.x1 + 1e-3j
        steps = count_steps(monkeypatch)
        with pytest.raises(NoCrossing, match="never reached"):
            crossing_time(model, energy, x0, initial_momentum(model, energy, x0))
        assert steps[0] <= 40

    @pytest.mark.parametrize("below_top", [1e-13, 1e-14, 1e-15, 1.5])
    def test_real_start_below_the_top_never_crosses(self, monkeypatch, below_top):
        # x3 - x2 is below the stepper's position error near the saddle,
        # where a marched period once reported a crossing (t_c = 18.6 at
        # 1e-14 below the top); a real start at a real energy below the
        # top stays on the real axis between x1 and x2, so no step is taken
        model = CubicModel(0.1)
        energy = complex(1.0 / (54.0 * 0.01) - below_top)
        tps = turning_points(model, energy)
        middle = complex(0.5 * (tps.x1.real + tps.x2.real))
        starts = [(tps.x1, 0j)]
        starts += [(middle, initial_momentum(model, energy, middle, b)) for b in (1, -1)]
        steps = count_steps(monkeypatch)
        for x0, p0 in starts:
            assert p0.imag == 0.0
            with pytest.raises(NoCrossing, match="never reached"):
                crossing_time(model, energy, x0, p0)
        assert steps[0] == 0

    def test_near_real_energy_crosses_at_one_over_its_width(self):
        # Im T follows Im E down to any size, so an orbit whose energy is
        # only 1e-16 off the real axis still reaches the poles, a million
        # times later than at 1e-10 (a rounding-level Im T once marked
        # such a period real and the orbit as never crossing)
        model = CubicModel(0.1)
        cfg = IntegratorConfig(t_max=1e300)
        times = []
        for im in (-1e-10, -1e-16):
            energy = complex(0.3, im)
            times.append(crossing_time(model, energy, turning_points(model, energy).x1, 0j, cfg))
        assert times[1] / times[0] == pytest.approx(1e6, rel=1e-9)

    def test_real_start_above_the_top_crosses(self):
        # above the top the real orbit from x1 escapes over the barrier
        model = CubicModel(0.1)
        t_c = crossing_time(model, 2.5 + 0j, turning_points(model, 2.5 + 0j).x1, 0j)
        assert t_c == pytest.approx(3.4201096417433727, rel=1e-12)

    def test_table1_work_count(self, monkeypatch):
        # the table's four crossings: 12 row tries (row 0, the predicted
        # row and the one below it), 296 Taylor steps, 21 closed-form
        # evaluations, 9 for the predictions and 12 for the row starts, one
        # row bracket for each crossing, after row 0 misses, and 4 closed
        # forms and 4 steppers built: one of each per crossing search, the
        # prediction reading the search's closed form
        steps = count_steps(monkeypatch)
        calls = {"_reach_on_row": 0, "_row_bracket": 0, "_stepper": 0, "_orbit": 0,
                 "evaluations": 0}
        for name in ("_reach_on_row", "_row_bracket", "_stepper"):
            monkeypatch.setattr(trajectory, name,
                                call_counter(calls, name, getattr(trajectory, name)))
        orbit = cubic._orbit

        def counted_orbit(*args):
            calls["_orbit"] += 1
            return call_counter(calls, "evaluations", orbit(*args))

        monkeypatch.setattr(trajectory, "_orbit", counted_orbit)
        compute_table1()
        assert steps[0] == 296
        assert calls == {"_reach_on_row": 12, "_row_bracket": 4, "_stepper": 4, "_orbit": 4,
                         "evaluations": 21}

    @pytest.mark.parametrize("g, first_row", [
        (0.17888, 6), (0.16099, 30), (0.14311, 199), (0.12522, 2225)])
    @pytest.mark.parametrize("conjugate", [False, True])
    def test_predicted_row_is_the_first_row(self, g, first_row, conjugate):
        # the conjugate energy's orbit from x1* is the conjugate orbit, with
        # the same crossing and Im T > 0: its rows run towards -i
        model, energy, _ = default_start(g)
        if conjugate:
            energy = energy.conjugate()
        tps = turning_points(model, energy)
        periods = _periods(model, tps)
        assert (periods[0].imag > 0.0) == conjugate
        t0 = _pole_time(model, tps, tps.x1, 0j)
        assert _row_bracket(model, periods, t0, _orbit(model, periods, t0),
                            tps.x3.real)[1] == first_row
        t_c = crossing_time(model, energy, tps.x1, 0j)
        assert math.floor(t_c / periods[0].real) == first_row

    @pytest.mark.parametrize("start", ["x1", "x1 + 0.05i"])
    def test_sweep_across_the_barrier_top(self, start):
        # every coupling from 0.14 to 0.2595 in steps of 0.0005 crosses,
        # the level meeting the barrier top (g ~ 0.2046) included
        for i in range(240):
            g = round(0.14 + 0.0005 * i, 10)
            model, energy, x0 = default_start(g)
            p0 = 0j
            if start != "x1":
                x0 += 0.05j
                p0 = initial_momentum(model, energy, x0)
            t_c = crossing_time(model, energy, x0, p0)
            assert 0.0 < t_c < IntegratorConfig.t_max

    def test_row_zero_goes_first(self):
        # the row predicate is monotone only from row 1 on: row 0 can cross
        # on the start's own first excursion, which the shifted rows no
        # longer reach, so rows 1-3 miss and the predicted row, 118 of the
        # 142 below the poles, would give t_c ~ 840.46
        model, energy, _ = default_start(0.1545)
        x0 = 2.5 + 0j
        p0 = initial_momentum(model, energy, x0, -1)
        assert crossing_time(model, energy, x0, p0) == pytest.approx(1.4968536432029749,
                                                                      rel=1e-12)
        tps = turning_points(model, energy)
        periods = _periods(model, tps)
        t0 = _pole_time(model, tps, x0, p0)
        orbit = _orbit(model, periods, t0)
        assert _row_bracket(model, periods, t0, orbit, tps.x3.real) == (142, 118)
        args = (orbit, trajectory._stepper(model, energy, IntegratorConfig()), default_bound(),
                periods[0])
        for n in (1, 2, 3):
            assert trajectory._reach_on_row(*args, n, tps.x3.real) is None

    def test_row_zero_ignores_the_shell_slack(self):
        # row 0 starts from the closed form like every other row, so a p0
        # moved within the 1e-10 shell slack (|H - E| = 4.9e-11 here) gives
        # the same t_c to the bit; marched from the raw p0, row 0 moved by
        # up to 3.0e-10 relative
        model, energy, _ = default_start(0.1545)
        x0 = 2.5 + 0j
        p0 = initial_momentum(model, energy, x0, -1)
        t_c = crossing_time(model, energy, x0, p0)
        for factor in (1 + 1e-10, 1 - 1e-10, 1 + 1e-10j, 1 - 1e-10j):
            assert abs(hamiltonian(model, x0, factor * p0) - energy) > 4e-11
            assert crossing_time(model, energy, x0, factor * p0) == t_c

    def test_ratio_turns_at_the_barrier_top(self):
        # t_c falls all the way from g = 0.05 to 0.26, but t_c/tau falls
        # only until Re E0 = 1/2 - 11 g**2/8 meets the barrier top
        # 1/(54 g**2), near g = 0.2046; past it the level is above the
        # barrier, t_c falls slowly and tau fast, so the ratio rises
        grid = [round(0.05 + 0.01 * i, 10) for i in range(22)]
        rows = compute_table1(grid, IntegratorConfig(t_max=1e30))
        t_c = [row.t_c for row in rows]
        ratio = [row.ratio for row in rows]
        turn = grid.index(0.2)
        assert all(a > b for a, b in zip(t_c, t_c[1:]))
        assert all(a > b for a, b in zip(ratio[:turn], ratio[1:turn + 1]))
        assert all(a < b for a, b in zip(ratio[turn:], ratio[turn + 1:]))
        assert (ratio[0], ratio[turn], ratio[-1]) == pytest.approx((351.4, 2.41, 5.30), rel=1e-3)
        for g, below in ((0.2, True), (0.21, False)):
            assert (cubic.ground_state_energy(g) < CubicModel(g).barrier_height) == below

    @pytest.mark.parametrize("g, energy, offset, t_max, rows_miss, brackets, cause", [
        (0.1, 0.3 + 0j, 0j, 1e15, False, 0,
         ": a real start at a real energy below the barrier top stays between x1 and x2"),
        (0.1, 0.3 + 0j, 1e-3j, 1e15, False, 0,
         ": the period T = 6.43835 is real, so the orbit repeats its first period"),
        (0.16099, None, 0j, 1e300, True, 1, " on the 45 rows below the first line of poles"),
        (0.1, None, 0j, 2e5, False, 1, " within t_max = 200000.0"),
        (0.16099, None, 0j, 321.549, True, 1, " within t_max = 321.549"),
    ], ids=["real start", "real period", "poles", "horizon", "poles at the horizon"])
    def test_no_crossing_names_its_cause(self, monkeypatch, g, energy, offset, t_max,
                                         rows_miss, brackets, cause):
        # no scanned start runs out of rows at the first line of poles
        # before it crosses (a row that close to a pole passes Re x3), so
        # for the two g = 0.16099 cases every row from 1 on is made to
        # miss; in the second its 45 rows below the poles tie with the
        # ceil(t_max / Re T) = 45 rows the horizon reaches, and the
        # horizon is named.  A real period is decided by row 0 with no
        # lattice call.
        if rows_miss:
            reach_on_row = trajectory._reach_on_row
            monkeypatch.setattr(trajectory, "_reach_on_row",
                                lambda *args: reach_on_row(*args) if args[4] == 0 else None)
        calls = {"_row_bracket": 0}
        monkeypatch.setattr(trajectory, "_row_bracket",
                            call_counter(calls, "_row_bracket", trajectory._row_bracket))
        model, default_energy, _ = default_start(g)
        energy = energy or default_energy
        tps = turning_points(model, energy)
        x0 = tps.x1 + offset
        p0 = initial_momentum(model, energy, x0) if offset else 0j
        with pytest.raises(NoCrossing) as info:
            crossing_time(model, energy, x0, p0, IntegratorConfig(t_max=t_max))
        assert str(info.value) == f"Re x never reached Re x3 = {tps.x3.real!r}{cause}"
        assert calls["_row_bracket"] == brackets

    def test_no_crossing_before_the_default_horizon(self, monkeypatch):
        # the g = 0.1 row crosses near t = 3.1e6, far past t_max = 2e5
        model, energy, x1 = default_start(0.1)
        steps = count_steps(monkeypatch)
        with pytest.raises(NoCrossing, match="never reached"):
            crossing_time(model, energy, x1, 0j)
        assert steps[0] <= 1000
        assert crossing_time(model, energy, x1, 0j, IntegratorConfig(t_max=1e7)) > 2e6

    @pytest.mark.parametrize("g, energy", [(0.12522, None), (0.1, 0.3 + 0j), (0.2, 0.3 + 0.1j)])
    def test_periods_return_the_orbit(self, g, energy):
        # a start at rest at x1 comes back to it after T, and one at x2
        # after T', walked in complex time by the test-side stepper (the
        # walk from x1 along T' would meet the pole at T'/2)
        model = CubicModel(g)
        energy = energy or corrected_quasi_bound_energy(g).energy
        tps = turning_points(model, energy)
        for x0, period in zip((tps.x1, tps.x2), _periods(model, tps)):
            x, p = complex_walk(model, energy, x0, 0j, period, IntegratorConfig())
            assert abs(x - x0) <= 1e-10
            assert abs(p) <= 1e-10

    def test_period_values(self):
        model, energy, _ = default_start(0.12522)
        tps = turning_points(model, energy)
        T = _periods(model, tps)[0]
        assert abs(T - (6.74418274576788 - 0.00117264782667j)) <= 1e-13
        # a real energy below the barrier: the oscillation period, exactly
        # real
        model = CubicModel(0.1)
        T = _periods(model, turning_points(model, 0.3 + 0j))[0]
        assert T.real == pytest.approx(quadrature_period(0.1, 0.3), rel=1e-12)
        assert T.imag == 0.0

    @pytest.mark.parametrize(
        "g, energy",
        [(0.17888, None), (0.16099, None), (0.14311, None), (0.12522, None),
         (0.1, 0.3 + 0j), (0.1, 2.5 + 0j), (0.2, 0.3 + 0.1j)],
    )
    def test_periods_match_the_trapezoid_rule(self, g, energy):
        model = CubicModel(g)
        energy = energy or corrected_quasi_bound_energy(g).energy
        tps = turning_points(model, energy)
        T, T_prime = _periods(model, tps)
        for period, cut in ((T, (tps.x1, tps.x2, tps.x3)), (T_prime, (tps.x2, tps.x3, tps.x1))):
            reference = trapezoid_period(g, *cut)
            assert min(abs(period - reference), abs(period + reference)) <= 1e-14 * abs(reference)
        assert T.real >= 0.0

    def test_nearly_coincident_turning_points(self):
        # 1e-12 below the barrier top x2 and x3 are 2.8e-6 apart, above the
        # coincidence threshold: the orbit is bound, so it never crosses
        model = CubicModel(0.1)
        energy = complex(1.0 / (54.0 * 0.01) - 1e-12)
        tps = turning_points(model, energy)
        T, T_prime = _periods(model, tps)
        assert all(cmath.isfinite(z) for z in (T, T_prime))
        with pytest.raises(NoCrossing, match="never reached"):
            crossing_time(model, energy, tps.x1, 0j)

    @pytest.mark.parametrize(
        "g, energy",
        [(0.17888, None), (0.16099, None), (0.14311, None), (0.12522, None),
         (0.1, 0.3 + 0j), (0.1, 2.5 + 0j), (0.2, 0.3 + 0.1j)],
    )
    def test_pole_time_matches_the_quadrature(self, g, energy):
        # rest at each turning point, and explicit starts on both branches;
        # at a real energy the real starts give negative real d_j with
        # +0.0 or -0.0 imaginary parts, on R_F's cut
        model = CubicModel(g)
        energy = energy or corrected_quasi_bound_energy(g).energy
        tps = turning_points(model, energy)
        periods = _periods(model, tps)
        starts = [(x, 0j) for x in tps]
        for x0 in (0.1, complex(0.1, -0.0), -1.0, 2.5, -0.5 + 0.2j, 1.0 - 0.3j, 3.0 + 1.0j,
                   0.5 * (tps.x1 + tps.x2)):
            starts += [(complex(x0), initial_momentum(model, energy, x0, b)) for b in (1, -1)]
        for x0, p0 in starts:
            miss = _pole_time(model, tps, x0, p0) - quadrature_pole_time(tps, periods, x0, p0)
            for c in lattice_coordinates(miss, periods):
                assert abs(c - round(c)) <= 1e-10

    @pytest.mark.parametrize("x0", [None, 0.1, -0.5 + 0.2j, 1.0 - 0.3j, 3.0 + 1.0j])
    @pytest.mark.parametrize("branch", [1, -1])
    def test_pole_time(self, x0, branch):
        # near a pole t_p, x ~ (2/g) / (t - t_p)**2, walked to by the
        # test-side stepper
        model, energy, x1 = default_start(0.16099)
        x0 = x1 if x0 is None else complex(x0)
        p0 = initial_momentum(model, energy, x0, branch)
        tps = turning_points(model, energy)
        pole = _pole_time(model, tps, x0, p0)
        for distance in (1.0, 0.5):
            z = pole * (1.0 - distance / abs(pole))
            x, _p = complex_walk(model, energy, x0, p0, z, IntegratorConfig())
            assert abs(x) * distance**2 * model.g / 2.0 == pytest.approx(1.0, abs=0.1 * distance)

    @pytest.mark.parametrize("x0", [0.1, -0.5 + 0.2j, 1.0 - 0.3j, 3.0 + 1.0j])
    @pytest.mark.parametrize("branch", [1, -1])
    def test_row_starts_match_the_complex_walk(self, x0, branch):
        # the closed-form state at the first, middle and last row start
        # below the poles against the test-side walk there at rel_tol
        # 1e-13 (they agree to 1e-14)
        model, energy, _ = default_start(0.16099)
        x0 = complex(x0)
        p0 = initial_momentum(model, energy, x0, branch)
        tps = turning_points(model, energy)
        periods = _periods(model, tps)
        t0 = _pole_time(model, tps, x0, p0)
        orbit = _orbit(model, periods, t0)
        rows = _row_bracket(model, periods, t0, orbit, tps.x3.real)[0]
        cfg = IntegratorConfig(rel_tol=1e-13)
        for n in (1, rows // 2, rows - 1):
            z = complex(0.0, -n * periods[0].imag)
            for value, walked in zip(orbit(z),
                                     complex_walk(model, energy, x0, p0, z, cfg)):
                assert abs(value - walked) <= 1e-11 * abs(walked)


class TestClosedFormConstants:
    """``cubic._orbit`` reduces its lattice and forms the constant terms
    once, and every evaluation must give the bits of
    ``uncached_orbit_at``."""

    @staticmethod
    def cell_points(periods, n_max):
        """Complex times across the cell and at row starts up to n_max."""
        T, T_prime = periods
        points = [a * T + b * T_prime for a, b in [(0.1, 0.2), (0.37, -0.3), (0.8, 0.4),
                                                   (-0.6, 0.7), (2.3, -1.2), (0.25, 0.25)]]
        return points + [complex(0.0, -n * T.imag) for n in range(0, n_max, max(1, n_max // 7))]

    # the four table1 lattices from x1, all but the first reduced by the
    # swap T <-> T', and g = 0.1 at the real energy 2.5 above the barrier
    # top, whose lattice needs the swap too
    @pytest.mark.parametrize("g, energy, swapped", [
        (0.12522, None, False), (0.14311, None, True), (0.16099, None, True),
        (0.17888, None, True), (0.1, 2.5 + 0j, True)])
    def test_bit_identical_to_the_uncached_sum(self, g, energy, swapped):
        model, default_energy, _ = default_start(g)
        energy = energy or default_energy
        tps = turning_points(model, energy)
        periods = _periods(model, tps)
        t0 = _pole_time(model, tps, tps.x1, 0j)
        assert (reduced_lattice(periods)[0] != periods[0]) == swapped
        orbit = _orbit(model, periods, t0)
        rows = 1 if periods[0].imag == 0.0 else _row_bracket(model, periods, t0, orbit,
                                                             tps.x3.real)[0]
        for z in self.cell_points(periods, rows):
            for _ in range(2):  # a second call finds the closed form as the first left it
                new = orbit(z)
                old = uncached_orbit_at(model, periods, t0, z)
                assert new == old
                assert repr(new) == repr(old)

    def test_either_sign_of_the_zero_parts(self):
        # a real period and an imaginary T' given with either sign of
        # their zero parts: each variant's closed form matches the
        # uncached sum
        model, energy = CubicModel(0.1), 0.3 + 0j
        tps = turning_points(model, energy)
        T, T_prime = _periods(model, tps)
        assert T.imag == 0.0 and T_prime.real == 0.0
        x0 = tps.x1 + 1e-3j
        t0 = _pole_time(model, tps, x0, initial_momentum(model, energy, x0))
        variants = [(complex(T.real, a), complex(b, T_prime.imag))
                    for a in (0.0, -0.0) for b in (0.0, -0.0)]
        for periods in variants:
            orbit = _orbit(model, periods, t0)
            for z in self.cell_points(periods, 1):
                assert repr(orbit(z)) == repr(uncached_orbit_at(model, periods, t0, z))


class TestJacobiOracle:
    """crossing_time and the closed-form row starts against the orbit of
    JacobiOrbit."""

    @pytest.mark.parametrize("g", [0.12522, 0.14311, 0.16099, 0.17888])
    def test_row_starts(self, g):
        # x and p at the row starts -i n Im T, at about 20 rows from the
        # first to the last below the poles and on the crossing row (they
        # agree to 1.8e-12)
        model, energy, x1 = default_start(g)
        tps = turning_points(model, energy)
        periods = _periods(model, tps)
        t0 = _pole_time(model, tps, x1, 0j)
        closed_form = _orbit(model, periods, t0)
        rows = _row_bracket(model, periods, t0, closed_form, tps.x3.real)[0]
        crossing_row = math.floor(crossing_time(model, energy, x1, 0j) / periods[0].real)
        orbit = jacobi_orbit(g, energy)
        for n in sorted({*range(1, rows, max(1, rows // 20)), crossing_row, rows - 1} - {0}):
            z = complex(0.0, -n * periods[0].imag)
            for value, exact in zip(closed_form(z), orbit.state(z)):
                assert abs(value - exact) <= 1e-11 * abs(exact)

    # energies whose lattice needs the swap T <-> T' (near the separatrix,
    # 2.5 and 0.3 + 0.1i), a shift of T' by T (-1.0) or both (2.0 at
    # g = 0.2, 3.25) before the cosecant series
    @pytest.mark.parametrize("g, energy", [
        *((SEPARATRIX_G, e) for e in SEPARATRIX_ENERGIES[::3]),
        (0.1, 2.5 + 0j), (0.2, 0.3 + 0.1j), (0.2, 2.0 + 0j), (0.1, -1.0 + 0j), (0.1, 3.25 + 0j),
    ])
    def test_orbit_on_reduced_lattices(self, g, energy):
        # the state at complex times across the cell, measured against the
        # larger of |x| and |p| since either may vanish (to 7.3e-12 near
        # the separatrix, 1e-14 elsewhere), from at most 7 terms a side:
        # one sine per term, and one per constant term n != 0 when the
        # closed form is built (on the lattice as given, 28 a side near
        # the separatrix)
        model = CubicModel(g)
        tps = turning_points(model, energy)
        T, T_prime = periods = _periods(model, tps)
        t0 = _pole_time(model, tps, tps.x1, 0j)
        orbit = jacobi_orbit(g, energy)
        sines = []
        sin = cmath.sin

        def counted_sin(z):
            sines.append(z)
            return sin(z)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cmath, "sin", counted_sin)
            closed_form = _orbit(model, periods, t0)
        for a, b in [(0.1, 0.2), (0.37, -0.3), (0.8, 0.4), (-0.6, 0.7), (2.3, -1.2), (0.25, 0.25)]:
            z = a * T + b * T_prime
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cmath, "sin", counted_sin)
                x, p = closed_form(z)
            x_exact, p_exact = orbit.state(z)
            scale = max(abs(x_exact), abs(p_exact))
            assert max(abs(x - x_exact), abs(p - p_exact)) <= 1e-11 * scale
        assert len(sines) <= 6 * (1 + 2 * 2 * 7)

    @pytest.mark.parametrize("g", [0.12522, 0.14311, 0.16099, 0.17888])
    @pytest.mark.parametrize("tolerances, bound",
                             [({}, 4e-11), ({"rel_tol": 1e-13, "abs_tol": 1e-15}, 1e-13)],
                             ids=["default", "tight"])
    def test_table1_crossings(self, g, tolerances, bound):
        # the default tolerance's 2e-12 to 3.6e-11 is the step error of the
        # walk and the marched period
        model, energy, x1 = default_start(g)
        t_c = crossing_time(model, energy, x1, 0j, IntegratorConfig(**tolerances))
        exact = jacobi_crossing(g, energy, t_c)
        assert abs(t_c - exact) <= bound * exact

    # the exact values are 51.34449627, 455.22231, 3959.70502 and
    # 43187.2960; the default tolerance gives 51.3445293, 456.0626,
    # 3972.258 and 43201.000, the last two half a period off
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="near the saddle the default tolerance loses up to half a period")
    @pytest.mark.parametrize("energy", SEPARATRIX_ENERGIES)
    def test_separatrix_crossings(self, energy):
        model = CubicModel(SEPARATRIX_G)
        x1 = turning_points(model, energy).x1
        t_c = crossing_time(model, energy, x1, 0j)
        assert abs(t_c - jacobi_crossing(SEPARATRIX_G, energy, t_c)) <= 1e-6

    # row 1 holds these crossings, and the row search, started from the
    # predicted row, never tries row 2, whose start lies next to a pole
    @pytest.mark.parametrize("g, exact", [
        (0.202, 11.7303650987), (0.204, 11.5240083897), (0.2065, 11.2938313137),
    ])
    def test_crossings_where_the_level_meets_the_barrier_top(self, g, exact):
        model, energy, x1 = default_start(g)
        assert jacobi_crossing(g, energy, exact) == pytest.approx(exact, rel=1e-9)
        assert crossing_time(model, energy, x1, 0j) == pytest.approx(exact, rel=1e-9)

    # the first step from row 2's exact start at g = 0.204, next to a pole,
    # trips the absolute drift check (|H - E| = 1.7e-5 against 1e-6)
    @pytest.mark.xfail(strict=True, raises=EnergyDriftExceeded,
                       reason="the drift limit is absolute, and |x|, |p| are large near a pole")
    def test_row_next_to_a_pole(self):
        model, energy, x1 = default_start(0.204)
        tps = turning_points(model, energy)
        periods = _periods(model, tps)
        t0 = _pole_time(model, tps, x1, 0j)
        trajectory._reach_on_row(_orbit(model, periods, t0),
                                 trajectory._stepper(model, energy, IntegratorConfig()),
                                 default_bound(), periods[0], 2, tps.x3.real)

    # the same from x1 + 0.05i, against the crossing at rel_tol 1e-13
    @pytest.mark.parametrize("g, exact", [
        (0.2015, 11.465620538328322), (0.202, 11.416212626449296), (0.2025, 11.3679894570712),
    ])
    def test_complex_starts_where_the_level_meets_the_barrier_top(self, g, exact):
        model, energy, x1 = default_start(g)
        x0 = x1 + 0.05j
        p0 = initial_momentum(model, energy, x0)
        tight = IntegratorConfig(rel_tol=1e-13)
        assert crossing_time(model, energy, x0, p0, tight) == pytest.approx(exact, rel=1e-12)
        assert crossing_time(model, energy, x0, p0) == pytest.approx(exact, rel=1e-9)


class TestAddition:
    """``cubic._addition`` on exact states, and the samples of
    ``integrate`` it gives, against JacobiOrbit."""

    # the lattices of test_orbit_on_reduced_lattices and two of table1's
    # (g = 0.14311 reduced by the swap T <-> T', 0.12522 not)
    LATTICES = [
        (0.12522, None), (0.14311, None),
        *((SEPARATRIX_G, e) for e in SEPARATRIX_ENERGIES[::3]),
        (0.1, 2.5 + 0j), (0.2, 0.3 + 0.1j), (0.2, 2.0 + 0j), (0.1, -1.0 + 0j), (0.1, 3.25 + 0j),
    ]
    CELL = [(0.1, 0.2), (0.37, -0.3), (0.8, 0.4), (-0.6, 0.7), (2.3, -1.2), (0.25, 0.25)]

    @staticmethod
    def lattice(g, energy):
        """The model, turning points, periods, JacobiOrbit, its pole
        iK'/lam (the orbit with its pole at 0 is its state at t_p + v)
        and the package's closed form with ``add`` on it."""
        model = CubicModel(g)
        energy = energy or corrected_quasi_bound_energy(g).energy
        tps = turning_points(model, energy)
        periods = _periods(model, tps)
        orbit = jacobi_orbit(g, energy)
        t_p = complex(orbit.cell[1] / (2 * orbit.lam))
        at = _orbit(model, periods, _pole_time(model, tps, tps.x1, 0j))
        return model, tps, periods, orbit, t_p, at

    @pytest.mark.parametrize("g, energy", LATTICES)
    def test_exact_states_across_the_cell(self, g, energy):
        # u at six points across the cell and v at three of them scaled by
        # 0.37, both off the real axis, from 40-digit states: relative to
        # max(|x|, |p|, 1) the sum agrees to 2.2e-14, and to 1.5e-12 and
        # 4.0e-12 at the separatrix energies, where |P_u - P_v| falls to
        # 2.0e-3 and 2.6e-4 of max(|P_u|, |P_v|, 1): the quotient loses
        # digits to the difference, and below 1e-3 the fallback takes the
        # closed form, whose own error there is a few 1e-12
        model, tps, (T, T_prime), orbit, t_p, at = self.lattice(g, energy)
        add = cubic._addition(model, tps, at)
        us = [a * T + b * T_prime for a, b in self.CELL]
        vs = [0.37 * (a * T + b * T_prime) for a, b in self.CELL[::2]]
        x_u, p_u = np.array([orbit.state(u) for u in us]).T
        x_v, p_v = np.array([orbit.state(t_p + v) for v in vs]).T
        z = np.add.outer(us, vs)
        x, p = add(x_u[:, None], p_u[:, None], x_v, p_v, z)
        exact = np.array([[orbit.state(w) for w in row] for row in z.tolist()])
        scale = np.maximum(np.maximum(abs(exact[..., 0]), abs(exact[..., 1])), 1.0)
        error = np.maximum(abs(x - exact[..., 0]), abs(p - exact[..., 1])) / scale
        assert error.max() <= (1e-11 if g == SEPARATRIX_G else 1e-13)

    def test_fallback_where_the_values_meet(self, monkeypatch):
        # u = v, where the quotient is 0/0, and u = -v + 1e-3, next to the
        # pole of the sum, take the closed form at z itself, to the bit;
        # the third pair takes the addition.  At u = v that agrees with the
        # exact state to 4.7e-15; next to the pole it agrees to 1e-11 of
        # |x| ~ 1e7, where the closed form's pole time sets the error
        model, tps, (T, T_prime), orbit, t_p, at = self.lattice(0.14311, None)
        calls = []
        add = cubic._addition(model, tps, lambda z: calls.append(z) or at(z))
        v = 0.37 * T + 0.2 * T_prime
        us = [t_p + v, t_p - v + 1e-3, 0.8 * T + 0.4 * T_prime]
        x_u, p_u = np.array([orbit.state(u) for u in us]).T
        x_v, p_v = (np.array([value]) for value in orbit.state(t_p + v))
        z = np.array(us) + v
        with np.errstate(divide="ignore", invalid="ignore"):  # the 0/0 the fallback replaces
            x, p = add(x_u, p_u, x_v, p_v, z)
        assert calls == z[:2].tolist()
        for i in (0, 1):
            assert repr((complex(x[i]), complex(p[i]))) == repr(at(z[i]))
        for i, bound in ((0, 1e-14), (1, 1e-11), (2, 1e-14)):
            exact = orbit.state(z[i])
            scale = max(abs(exact[0]), abs(exact[1]), 1.0)
            assert max(abs(x[i] - exact[0]), abs(p[i] - exact[1])) <= bound * scale

    # the trajectory_export couplings at horizons of its range, the
    # criterion 4 run, and intervals from 1e-4 (a step a sample) to 7.3
    # (every sample in the first block of 64), the last with t_max off the
    # grid; the worst of 41 samples is 2.7e-14 to 7.3e-14, the closed
    # form's own error at those times
    SAMPLED_RUNS = [
        (0.1425, 100.0, 0.05), (0.1431, 400.0, 0.05), (0.1437, 200.0, 0.05),
        (2.0 / math.sqrt(125.0), 58.0, 0.05),
        (0.1433, 3.0, 1e-4), (0.1433, 30.0, 0.0123), (0.1433, 400.0, 7.3),
        (0.1433, 123.456, 0.07),
    ]

    @staticmethod
    @functools.cache
    def sampled_error(g, t_max, interval):
        """``worst_sample_error`` of the run from rest at x1 at the
        corrected energy of g."""
        model, energy, x1 = default_start(g)
        traj = integrate(model, energy, x1, 0j,
                         IntegratorConfig(t_max=t_max, sample_interval=interval))
        return worst_sample_error(traj, g, energy)

    @pytest.mark.parametrize("g, t_max, interval", SAMPLED_RUNS)
    def test_samples(self, g, t_max, interval):
        assert self.sampled_error(g, t_max, interval) <= 1e-13

    def test_samples_near_the_separatrix(self):
        # 1e-9 - 1e-12i below the barrier top the closed form itself is
        # off by 5.7e-11 (the sum changes none of it); the march that
        # sampled before was off by 3.2e-3 here
        energy = SEPARATRIX_ENERGIES[3]
        model = CubicModel(SEPARATRIX_G)
        x1 = turning_points(model, energy).x1
        traj = integrate(model, energy, x1, 0j, IntegratorConfig(t_max=200.0))
        assert worst_sample_error(traj, SEPARATRIX_G, energy) <= 1e-10

    @pytest.mark.parametrize("form, run, lost", [
        ("P'", SAMPLED_RUNS[4], 1e-12), ("P", SAMPLED_RUNS[0], 5e-13)])
    def test_the_chord_forms_fail_the_sample_bound(self, monkeypatch, form, run, lost):
        # the chord for P' loses 2.1e-12 at interval 1e-4, next to the
        # offsets' pole, and the chord for P 8.9e-13 at the default
        # interval, where the package keeps 3.3e-15 and 4.6e-14; the
        # package's own error is taken before the chord is swapped in
        own = self.sampled_error(*run)
        g, t_max, interval = run
        monkeypatch.setattr(trajectory, "_addition", chord_addition(form))
        model, energy, x1 = default_start(g)
        traj = integrate(model, energy, x1, 0j,
                         IntegratorConfig(t_max=t_max, sample_interval=interval))
        assert own <= 1e-13 < lost <= worst_sample_error(traj, g, energy)


class TestReversibility:
    def test_harmonic_round_trip(self):
        err = reversibility_error(
            HarmonicModel(), 0.5 + 0j, 1.0 + 0j, 0j, 2.0 * math.pi
        )
        assert err <= 1e-10

    def test_cubic_round_trip(self):
        model = CubicModel(0.1)
        x1 = turning_points(model, 0.3 + 0j).x1
        err = reversibility_error(model, 0.3 + 0j, x1, 0j, 50.0)
        assert err <= 1e-6

    def test_error_grows_with_looser_tolerance(self):
        model = CubicModel(0.1)
        x1 = turning_points(model, 0.3 + 0j).x1
        loose = reversibility_error(
            model, 0.3 + 0j, x1, 0j, 50.0, IntegratorConfig(rel_tol=1e-6)
        )
        tight = reversibility_error(
            model, 0.3 + 0j, x1, 0j, 50.0, IntegratorConfig(rel_tol=1e-10)
        )
        assert loose > tight

    def test_duration_is_bounded_by_the_horizon(self, monkeypatch):
        calls = []
        monkeypatch.setattr(trajectory, "_stepper", lambda *args: calls.append(args))
        model = CubicModel(0.1)
        x1 = turning_points(model, 0.3 + 0j).x1
        with pytest.raises(ValueError, match="t_max = 200000"):
            reversibility_error(model, 0.3 + 0j, x1, 0j, 1e300)
        with pytest.raises(ValueError, match="t_max = 10"):
            reversibility_error(model, 0.3 + 0j, x1, 0j, 10.5, IntegratorConfig(t_max=10.0))
        assert calls == []

    @pytest.mark.parametrize("t_total", [-1.0, math.nan, -math.inf])
    def test_negative_duration_rejected(self, t_total):
        with pytest.raises(ValueError, match="t_total must be nonnegative"):
            reversibility_error(HarmonicModel(), 0.5 + 0j, 1.0 + 0j, 0j, t_total)

    def test_zero_duration_is_exact(self):
        assert reversibility_error(HarmonicModel(), 0.5 + 0j, 1.0 + 0j, 0j, 0.0) == 0.0

    # the round trip's value to the bit: the harmonic and real cubic cases
    # above and the trajectory_export benchmark's four couplings from x1
    @pytest.mark.parametrize("case, error", [
        ("harmonic", 1.8976487048405488e-13),
        ("real", 4.696354416466875e-12),
        (0.1425, 2.0737127764532182e-11),
        (0.1429, 2.3642074183202702e-11),
        (0.1433, 2.2257897704072052e-11),
        (0.1437, 2.7855540954651273e-11),
    ])
    def test_round_trip_values_are_pinned(self, case, error):
        if case == "harmonic":
            args = (HarmonicModel(), 0.5 + 0j, 1.0 + 0j, 0j, 2.0 * math.pi)
        elif case == "real":
            model = CubicModel(0.1)
            args = (model, 0.3 + 0j, turning_points(model, 0.3 + 0j).x1, 0j, 50.0)
        else:
            model, energy, x1 = default_start(case)
            args = (model, energy, x1, 0j, 50.0)
        assert reversibility_error(*args) == error
