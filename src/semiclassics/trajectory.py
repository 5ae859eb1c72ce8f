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
Math. 14 (2005) 99) advances the state, in real time or along a
straight line in complex time (the recurrence then gains the square of
the direction).  The requested relative
tolerance sets the per-step error target eps = _EPS_PER_TOL * rel_tol
(no smaller than the rounding unit), the order is ceil(1 - ln(eps)/2),
and the step is rho/e**2, with the radius rho estimated from the last
two coefficients relative to the state norm; the absolute tolerance,
scaled by the same factor, floors the local error target.  The
recurrence (each coefficient's index pairs, middle index and factor),
the exponents of the radius estimate and the drift limit are tabulated
once per run of the stepper, so a step does only the arithmetic, in the
order of the plain loop over j < k - j.

Each step's polynomial is its own dense output: the samples of
``integrate`` are evaluated on it, a block of samples at a time, by one
numpy Horner pass in the operation order of the scalar evaluation (so
bit-identical to it), and a crossing search tests Re x over the whole
step polynomial, not only at the step ends, so an excursion past the
target inside one step is not missed.  The energy drift |H - E| is the
quality diagnostic: it is checked at every step end and at every
emitted sample.  The stepper holds only the current state and the
sampling one block of samples and their steps, so memory beyond the
output arrays does not grow with the horizon.

The crossing time is not marched to.  Every orbit is an elliptic
function of complex time (DLMF 23) with a period T of tiny imaginary
part (``cubic._periods``), so real time n Re T + s is the complex time
s - i n Im T: after n oscillations the orbit runs along row n, a line
n |Im T| closer to the first row of poles.  Re x reaches Re x3 once a
row comes close enough to it.  ``crossing_time`` bisects over n for the
first such row, below the poles and within the horizon, with a short
walk in imaginary time and one marched period per try, so its cost
does not grow with t_c or t_max.

Everything here is pure and reentrant: independent integrations may run
concurrently, and identical inputs produce bit-identical sample
sequences on one platform.
"""

import bisect
import cmath
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .cubic import _periods, _pole_time, turning_points
from .errors import EnergyDriftExceeded, NoCrossing, StepSizeUnderflow

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

# Most samples one trajectory may hold: 16 MB per complex column.  The
# longest crossing horizon, t ~ 1.5e4 at the default interval 0.05, needs
# 3e5.
MAX_SAMPLES = 10**6

# Samples are evaluated in blocks of this many: one numpy Horner pass per
# block over the polynomials of the steps that hold its samples.  At 1024
# numpy's per-call cost is spread thin, and a block's buffers take about
# 0.2 MB at order 15 whatever the horizon.
_BLOCK = 1024


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
    """
    if branch not in (1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch!r}")
    return branch * cmath.sqrt(2.0 * (complex(energy) - model.potential(complex(x0))))


def _start(model, energy, x0, p0, cfg):
    """The checked inputs every integration starts from: the config (the
    default for None), E, x0 and p0 as complex numbers."""
    E = complex(energy)
    x0 = complex(x0)
    p0 = complex(p0)
    _check_shell(model, E, x0, p0)
    return cfg or IntegratorConfig(), E, x0, p0


def _check_drift(energy, drift):
    """Raise EnergyDriftExceeded unless ``drift`` (a float, NaN included)
    is within the failure limit."""
    limit = DRIFT_FAILURE_LIMIT * max(1.0, abs(energy))
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


def _steps(model, energy, x, p, t_end, cfg, direction=1.0):
    """Taylor steps of x'' = -x + 3 g x**2 from (x, p) at t = 0 along the
    complex times t = direction * tau, 0 <= tau <= t_end; ``direction``
    has modulus 1 (1 for real time).

    Yields (tau, h, xs) for each step: its start, its length and the
    coefficients of x(direction * (tau + sigma)) = sum xs[k] sigma**k for
    0 <= sigma <= h.  |H - E| at the step end is checked before the step
    is yielded.
    """
    eps = max(_EPS_PER_TOL * cfg.rel_tol, sys.float_info.epsilon)
    order = max(2, math.ceil(1.0 - 0.5 * math.log(eps)))
    # the local error target is eps * max(|x|, |p|, scale_floor): abs_tol
    # governs wherever max(|x|, |p|) < abs_tol / rel_tol: 1e-2 at the
    # defaults, 10 at rel_tol = 1e-13
    scale_floor = _EPS_PER_TOL * cfg.abs_tol / eps
    g3 = 3.0 * model.g
    # the recurrence for x_{k+2}: the pairs (j, k - j) with j < k - j of
    # the Cauchy product (x**2)_k, each product taken once, the middle
    # index of an even k, and the factor 1/((k + 1)(k + 2)), which gains
    # direction**2 since d/dtau = direction * d/dt
    terms = [
        (k, [(j, k - j) for j in range((k + 1) // 2)], k // 2 if k % 2 == 0 else None,
         direction * direction / ((k + 1) * (k + 2)))
        for k in range(order - 1)
    ]
    exp_prev, exp_last = 1.0 / (order - 1), 1.0 / order
    limit = DRIFT_FAILURE_LIMIT * max(1.0, abs(energy))
    e2 = math.exp(2.0)
    t = 0.0
    while t < t_end:
        xs = [x, direction * p]
        for k, pairs, middle, factor in terms:
            # from 0j, which makes a -0.0 part of the first product +0.0:
            # the signs of zeros reach the samples and the CSV bytes
            s = 0j
            for j, i in pairs:
                s += xs[j] * xs[i]
            s += s
            if middle is not None:
                s += xs[middle] * xs[middle]
            xs.append((g3 * s - xs[k]) * factor)

        scale = max(abs(x), abs(p), scale_floor)
        inv_rho = max((abs(xs[-2]) / scale) ** exp_prev, (abs(xs[-1]) / scale) ** exp_last)
        remaining = t_end - t
        h = remaining
        if e2 * inv_rho * h > 1.0:
            h = 1.0 / (e2 * inv_rho)
        if not t + h > t:
            raise StepSizeUnderflow(f"step size {h:.3e} at t = {t:.17g} no longer advances time")

        x, p = _at(xs, h)
        p /= direction
        drift = abs(hamiltonian(model, x, p) - energy)
        if not drift <= limit:
            _check_drift(energy, drift)
        yield t, h, xs
        t = t_end if h == remaining else t + h


def _walk(model, energy, x, p, z, cfg):
    """(x, p) after the complex time z, on checked Taylor steps along the
    straight segment from 0 to z."""
    if z == 0:
        return x, p
    length = abs(z)
    direction = z / length
    for _tau, h, xs in _steps(model, energy, x, p, length, cfg, direction):
        pass
    x, p = _at(xs, h)
    return x, p / direction


def _first_reach(xs, h, target):
    """First tau in [0, h] at which Re x(tau) = target on the step
    polynomial ``xs``, or None.

    The step is skipped only when Re x_0 + sum_{k>=1} |Re x_k| h**k, a
    bound on Re x over the whole step, stays below the target; otherwise
    the first exactly real root of the polynomial minus the target is
    taken.  The polynomial is real, so np.roots (LAPACK's real Schur
    form) returns its real roots with imaginary part exactly 0.
    """
    a = [c.real for c in xs]
    a[0] -= target
    if a[0] >= 0.0:
        return 0.0
    bound = 0.0
    for c in a[:0:-1]:
        bound = (bound + abs(c)) * h
    if a[0] + bound < 0.0:
        return None
    # roots in s = tau / h, so the window is [0, 1]
    scaled = [c * h**k for k, c in enumerate(a)]
    roots = [
        float(r.real)
        for r in np.roots(scaled[::-1])
        if r.imag == 0.0 and 0.0 <= r.real <= 1.0
    ]
    return h * min(roots) if roots else None


def _check_shell(model, energy, x0, p0):
    for label, value in (("x0", x0), ("p0", p0), ("energy", energy)):
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise ValueError(f"{label} must be finite, got {value!r}")
    miss = abs(hamiltonian(model, x0, p0) - energy)
    if miss > _SHELL_TOL * max(1.0, abs(energy)):
        raise ValueError(
            f"initial state is off the energy shell: |H(x0, p0) - E| = {miss:.3e}; "
            "use initial_momentum() to build consistent data"
        )


def _sample_times(t_max, interval):
    # floor(count) + 1 samples, over the limit exactly when count is; count
    # is inf at a subnormal interval, so it is checked before floor
    count = t_max / interval + 1e-9
    if count >= MAX_SAMPLES:
        raise ValueError(
            f"t_max = {t_max:g} at sample interval {interval:g} needs more than "
            f"the limit of {MAX_SAMPLES} samples"
        )
    n = math.floor(count)
    times = interval * np.arange(n + 1)
    times[-1] = min(times[-1], t_max)
    if t_max - times[-1] > 1e-12 * max(1.0, t_max):
        times = np.append(times, t_max)
    return times


def _horner(block, times):
    """x and p at ``times`` from the buffered steps ``block``: (t, count,
    xs) for each step, in order, holding the next ``count`` samples.

    ``_at`` runs on the rows of all samples' coefficients at once, so
    each sample is bit-identical to ``_at(xs, time - t)``.
    """
    starts, counts, coefs = zip(*block)
    owner = np.repeat(np.arange(len(block)), counts)
    return _at(np.array(coefs).T[:, owner], times - np.array(starts)[owner])


def _dense_output(steps, times, x, p):
    """Fill x[1:] and p[1:] from the step polynomials: sample i lies on
    the first step (t, h, xs) with times[i] - t <= h, at tau = times[i] - t.

    The samples go in blocks of _BLOCK.  A block is matched to steps by
    bisection and evaluated as soon as its last sample is matched; the
    last step ends at t_max >= times[-1], so every block is.  The buffer
    thus holds at most one step per sample of a block.
    """
    lo = 1
    window = times[lo:lo + _BLOCK].tolist()
    block = []
    i = 0  # the first sample of the window not yet matched to a step
    for t, h, xs in steps:
        while window:
            j = bisect.bisect_right(window, h, i, key=t.__rsub__)
            if j > i:
                block.append((t, j - i, xs))
                i = j
            if j < len(window):
                break
            hi = lo + j
            x[lo:hi], p[lo:hi] = _horner(block, times[lo:hi])
            lo, window, block, i = hi, times[hi:hi + _BLOCK].tolist(), [], 0


def integrate(model, energy, x0, p0, cfg: IntegratorConfig | None = None) -> Trajectory:
    """Integrate the trajectory and sample it at a fixed interval.

    Parameters
    ----------
    model : CubicModel or HarmonicModel
        Supplies the coupling g of the stepper's recurrence and the
        potential of the drift check.
    energy : complex
        The conserved value of H; used only as the drift reference.
    x0, p0 : complex
        Initial phase-space point.  Must satisfy H(x0, p0) = E to
        1e-10 relative; ``initial_momentum`` builds a consistent p0.
    cfg : IntegratorConfig, optional
        Tolerances, horizon t_max and sample interval.

    Returns
    -------
    Trajectory
        Samples at multiples of ``cfg.sample_interval`` plus the final
        time ``cfg.t_max``.  A zero horizon yields exactly the initial
        sample.

    Raises
    ------
    EnergyDriftExceeded
        If |H - E| grows beyond 1e-6 * max(1, |E|) at a step end or a
        sample.
    StepSizeUnderflow
        If the step no longer advances time (typically a trajectory
        heading into a finite-time blow-up of the cubic flow).
    """
    cfg, E, x0, p0 = _start(model, energy, x0, p0, cfg)
    times = _sample_times(cfg.t_max, cfg.sample_interval)
    x = np.empty(times.size, dtype=complex)
    p = np.empty_like(x)
    x[0], p[0] = x0, p0
    _dense_output(_steps(model, E, x0, p0, cfg.t_max, cfg), times, x, p)
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


def _reach_on_row(model, energy, x0, p0, period, n, target, cfg):
    """First s in [0, Re T) at which Re x(n Re T + s) reaches ``target``,
    or None.

    T is a period, so x(n Re T + s) = x(s - i n Im T): the search walks to
    the complex time -i n Im T and marches s over one period from there.
    """
    x, p = _walk(model, energy, x0, p0, complex(0.0, -n * period.imag), cfg)
    for s, h, xs in _steps(model, energy, x, p, period.real, cfg):
        tau = _first_reach(xs, h, target)
        if tau is not None:
            return s + tau
    return None


def _rows_below_poles(periods, pole):
    """The number of rows n = 0, 1, ... whose walks end below the first
    line of poles.

    In lattice coordinates z = a T + b T', row n's segment
    -i n Im T + [0, Re T) covers b in [n delta, (n + 1) delta) with
    delta = b(-i Im T), and the poles sit on the lines b = b(pole) mod 1.
    The rows counted run up to the one that meets the nearest such line
    (at least row 0, real time itself).  For the start at rest at x1 the
    pole is T'/2 and the count is about (|Im T'|/2) / |Im T|.
    """
    T, T_prime = periods
    span = (T_prime * T.conjugate()).imag

    def b(z):
        return (z * T.conjugate()).imag / span

    delta = b(complex(0.0, -T.imag))
    level = (b(pole) / delta) % (1.0 / abs(delta))
    return max(1, math.ceil(level))


def crossing_time(model, energy, x0, p0, cfg: IntegratorConfig | None = None) -> float:
    """First time at which Re x(t) reaches the rightmost turning point.

    t_c = n Re T + s for the first row n (see the module docstring) on
    which Re x reaches Re x3 at some s in [0, Re T).  Row 0, the first
    period of real time, is tried first; the rows above it, up to the
    first row of poles (from ``cubic._pole_time``) and the horizon, are
    bisected, since from the first row that reaches Re x3 on every row
    does.  Each try walks to -i n Im T and marches one period with the
    whole-step root search.  A real period (Im T == 0.0 exactly, as for
    every real energy below the barrier top) makes the orbit periodic, so
    row 0 alone decides.  A real start at a real energy below the barrier
    top moves on the real axis between x1 and x2, so it never crosses and
    no step is taken.

    Raises
    ------
    NoCrossing
        If the trajectory stays left of Re x3 for all of cfg.t_max.
    """
    cfg, E, x0, p0 = _start(model, energy, x0, p0, cfg)
    tps = turning_points(model, E)
    target = tps.x3.real
    if x0.real >= target:
        return 0.0
    missed = f"Re x never reached Re x3 = {target:.6g} within t_max = {cfg.t_max:g}"
    if all(z.imag == 0.0 for z in (E, x0, p0, *tps)):
        raise NoCrossing(missed)
    periods = _periods(model, tps)
    T = periods[0]
    if T.imag == 0.0:
        below_poles = 1
    else:
        below_poles = _rows_below_poles(periods, _pole_time(model, tps, x0, p0))
    rows = min(math.ceil(cfg.t_max / T.real), below_poles)

    @functools.cache
    def reach(n):
        return _reach_on_row(model, E, x0, p0, T, n, target, cfg)

    n = 0
    if reach(0) is None:
        n = bisect.bisect_left(range(rows), True, lo=1, key=lambda row: reach(row) is not None)
    if n >= rows or n * T.real + reach(n) > cfg.t_max:
        raise NoCrossing(missed)
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
        raise ValueError(f"t_total = {t_total:g} exceeds the horizon; the limit is "
                         f"t_max = {cfg.t_max:g}")
    if t_total == 0.0:
        return 0.0

    x, p = x0, p0
    for _ in range(2):
        x, p = _walk(model, E, x, p, t_total, cfg)
        p = -p
    return abs(x - x0) + abs(p - p0)
