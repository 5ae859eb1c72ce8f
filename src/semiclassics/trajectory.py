"""Hamiltonian trajectories with complex phase space and real time.

The equations of motion

    dx/dt = p,        dp/dt = -V'(x)

are integrated for complex x and p as four coupled real components,
with H(x, p) = p**2/2 + V(x) held at the (generally complex) constant
E.  The integrator is an adaptive embedded Runge-Kutta of order 8
(DOP853) with dense-output event location; its step size comes from the
tolerances alone.  The energy drift |H - E| is the quality diagnostic:
it is checked at every step of a crossing search or round trip and at
every emitted sample of ``integrate``.  Crossing searches and round
trips run in legs of bounded length, so their memory does not grow with
the horizon.

Everything here is pure and reentrant: independent integrations may run
concurrently, and identical inputs produce bit-identical sample
sequences on one platform.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .cubic import turning_points
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

# The solver runs a safety margin tighter than the requested tolerances:
# at the default request (1e-10) the raw setting lets |H - E| creep to
# ~3e-7 over horizons t ~ 1.5e4, while the advertised envelope is
# 1e-8 * max(1, |E|).  A uniform factor keeps the error response to the
# requested tolerance monotone.
_TOL_SAFETY = 5e-3
_RTOL_FLOOR = 3e-14  # DOP853 rejects rtol below ~100 machine eps

# Beyond this relative drift the run is declared failed.
DRIFT_FAILURE_LIMIT = 1e-6

# Crossing searches and round trips run in legs of at most this many time
# units: solve_ivp keeps every step it takes, so this bounds their memory.
_LEG = 1000.0

# Initial data must sit on the energy shell to this relative accuracy.
_SHELL_TOL = 1e-10

# Most samples one trajectory may hold: 16 MB per complex column.  The
# longest crossing horizon, t ~ 1.5e4 at the default interval 0.05, needs
# 3e5.
MAX_SAMPLES = 10**6


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


def _rhs_for(model):
    """Hamilton's equations for x'' = -x + 3 g x**2 in real components;
    the harmonic model is the g = 0 case."""
    g = model.g

    def rhs(t, y):
        a, b = y[0], y[1]
        return (y[2], y[3], -a + 3.0 * g * (a * a - b * b), -b + 6.0 * g * a * b)

    return rhs


def _start(model, energy, x0, p0, cfg):
    """The checked inputs every integration starts from: the config (the
    default for None), E, and the real state [Re x0, Im x0, Re p0, Im p0]."""
    E = complex(energy)
    x0 = complex(x0)
    p0 = complex(p0)
    _check_shell(model, E, x0, p0)
    return cfg or IntegratorConfig(), E, np.array([x0.real, x0.imag, p0.real, p0.imag])


def _solve(model, energy, y0, t_end, cfg, t_eval=None, events=None):
    """One solve_ivp call over [0, t_end] from the real state y0, with
    |H - E| checked at every state it keeps; returns the solution and
    that drift."""
    sol = solve_ivp(
        _rhs_for(model),
        (0.0, t_end),
        y0,
        method="DOP853",
        rtol=max(cfg.rel_tol * _TOL_SAFETY, _RTOL_FLOOR),
        atol=cfg.abs_tol * _TOL_SAFETY,
        t_eval=t_eval,
        events=events,
    )
    if sol.status == -1:
        raise StepSizeUnderflow(sol.message)
    y = sol.y
    drift = np.abs(hamiltonian(model, y[0] + 1j * y[1], y[2] + 1j * y[3]) - energy)
    limit = DRIFT_FAILURE_LIMIT * max(1.0, abs(energy))
    if drift.max() > limit:
        raise EnergyDriftExceeded(f"|H - E| reached {drift.max():.3e} (limit {limit:.3e})")
    return sol, drift


def _run(model, energy, y, t_total, cfg, event=None):
    """Integrate over [0, t_total] in legs of at most _LEG time units, one
    checked solve each, so only one leg's steps are held at a time.
    Returns the time of the first event (None without one) and the last
    state."""
    start = 0.0
    while True:
        end = min(start + _LEG, t_total)
        sol, _ = _solve(model, energy, y, end - start, cfg, events=event)
        y = sol.y[:, -1].copy()
        if event is not None and sol.t_events[0].size:
            return start + float(sol.t_events[0][0]), y
        if end >= t_total:
            return None, y
        start = end


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
    n = int(math.floor(t_max / interval + 1e-9))
    if n + 1 > MAX_SAMPLES:
        raise ValueError(
            f"t_max = {t_max:g} at sample interval {interval:g} needs {n + 1} samples; "
            f"the limit is {MAX_SAMPLES}"
        )
    times = interval * np.arange(n + 1)
    times[-1] = min(times[-1], t_max)
    if t_max - times[-1] > 1e-12 * max(1.0, t_max):
        times = np.append(times, t_max)
    return times


def integrate(model, energy, x0, p0, cfg: IntegratorConfig | None = None) -> Trajectory:
    """Integrate the trajectory and sample it at a fixed interval.

    Parameters
    ----------
    model : CubicModel or HarmonicModel
        Supplies the potential and force.
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
        If |H - E| grows beyond 1e-6 * max(1, |E|) anywhere on the
        sample grid.
    StepSizeUnderflow
        If the solver cannot continue (typically a trajectory heading
        into a finite-time blow-up of the cubic flow).
    """
    cfg, E, y0 = _start(model, energy, x0, p0, cfg)
    times = _sample_times(cfg.t_max, cfg.sample_interval)
    # solve_ivp keeps no t_eval sample on an empty span, so a zero horizon
    # takes the start state it keeps (twice) without t_eval.
    sol, drift = _solve(model, E, y0, cfg.t_max, cfg, t_eval=times if cfg.t_max else None)
    t, y, drift = sol.t[: times.size], sol.y[:, : times.size], drift[: times.size]
    return Trajectory(
        g=model.g,
        energy=E,
        t=t,
        x=y[0] + 1j * y[1],
        p=y[2] + 1j * y[3],
        energy_drift=drift,
        max_energy_drift=float(drift.max()),
    )


def crossing_time(model, energy, x0, p0, cfg: IntegratorConfig | None = None) -> float:
    """First time at which Re x(t) reaches the rightmost turning point.

    The crossing condition Re x(t_c) = Re x3 is located by sign-change
    detection on the solver's dense output followed by root polishing,
    so t_c does not inherit step-boundary granularity.  Integration
    stops at the first crossing.

    Raises
    ------
    NoCrossing
        If the trajectory stays left of Re x3 for all of cfg.t_max.
    """
    cfg, E, y0 = _start(model, energy, x0, p0, cfg)
    target = turning_points(model, E).x3.real
    if y0[0] >= target:
        return 0.0

    def reached_x3(t, y):
        return y[0] - target

    reached_x3.terminal = True
    reached_x3.direction = 1

    t_c, _ = _run(model, E, y0, cfg.t_max, cfg, event=reached_x3)
    if t_c is None:
        raise NoCrossing(
            f"Re x never reached Re x3 = {target:.6g} within t_max = {cfg.t_max:g}"
        )
    return t_c


def reversibility_error(
    model, energy, x0, p0, t_total: float, cfg: IntegratorConfig | None = None
) -> float:
    """Phase-space retrace error of a forward-backward round trip.

    Integrates for ``t_total``, flips the momentum sign, integrates for
    ``t_total`` again, flips back, and returns
    |x_final - x0| + |p_final - p0|.  Exact dynamics gives zero; the
    result measures the integrator's time-reversal fidelity.
    """
    cfg, E, y0 = _start(model, energy, x0, p0, cfg)
    if not (math.isfinite(t_total) and t_total >= 0):
        raise ValueError(f"t_total must be nonnegative, got {t_total!r}")
    if t_total == 0.0:
        return 0.0

    y = y0
    for _ in range(2):
        _, y = _run(model, E, y, t_total, cfg)
        y[2:] = -y[2:]

    dx = abs(complex(y[0] - y0[0], y[1] - y0[1]))
    dp = abs(complex(y[2] - y0[2], y[3] - y0[3]))
    return dx + dp
