"""Semiclassical numerics for the cubic tunneling well.

The package has three computational layers:

* :mod:`semiclassics.cubic` -- closed-form properties of the well
  V(x) = x**2/2 - g*x**3: potential, force, complex turning points,
  the barrier-penetration lifetime and the quasi-bound complex energy.
* :mod:`semiclassics.trajectory` -- Hamiltonian trajectories with
  complex phase space and real time: adaptive integration, the
  barrier-crossing event time, and a time-reversal retrace diagnostic.
* :mod:`semiclassics.gutzwiller` -- the single-orbit semiclassical
  response function and its lattice of resonance poles.

A command-line front end lives in :mod:`semiclassics.cli`
(``python -m semiclassics --help``).
"""

__version__ = "0.1.0"

from .cubic import (
    CubicModel,
    HarmonicModel,
    QuasiBoundState,
    TurningPoints,
    corrected_quasi_bound_energy,
    ground_state_energy,
    quasi_bound_energy,
    turning_points,
    wkb_lifetime,
)
from .errors import (
    CoincidentRoots,
    DegenerateAction,
    DegenerateCubic,
    EnergyDriftExceeded,
    NewtonDiverged,
    NoCrossing,
    NonConvergent,
    OrbitSchemaError,
    PoleProximity,
    SemiclassicsError,
    StepSizeUnderflow,
)
from .gutzwiller import (
    OrbitModel,
    PoleIndex,
    SemiclassicalContext,
    eval_orbit,
    find_pole,
    load_orbit,
    orbit_from_dict,
    pole_residual,
    response_function,
    sinh_expansion_error,
)
from .trajectory import (
    IntegratorConfig,
    Trajectory,
    crossing_time,
    hamiltonian,
    initial_momentum,
    integrate,
    reversibility_error,
)

__all__ = [
    "CoincidentRoots",
    "CubicModel",
    "DegenerateAction",
    "DegenerateCubic",
    "EnergyDriftExceeded",
    "HarmonicModel",
    "IntegratorConfig",
    "NewtonDiverged",
    "NoCrossing",
    "NonConvergent",
    "OrbitModel",
    "OrbitSchemaError",
    "PoleIndex",
    "PoleProximity",
    "QuasiBoundState",
    "SemiclassicalContext",
    "SemiclassicsError",
    "StepSizeUnderflow",
    "Trajectory",
    "TurningPoints",
    "corrected_quasi_bound_energy",
    "crossing_time",
    "eval_orbit",
    "find_pole",
    "ground_state_energy",
    "hamiltonian",
    "initial_momentum",
    "integrate",
    "load_orbit",
    "orbit_from_dict",
    "pole_residual",
    "quasi_bound_energy",
    "response_function",
    "reversibility_error",
    "sinh_expansion_error",
    "turning_points",
    "wkb_lifetime",
]
