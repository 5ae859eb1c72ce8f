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

from . import cubic, errors, gutzwiller, trajectory
from .cubic import *
from .errors import *
from .gutzwiller import *
from .trajectory import *

__all__ = sorted(cubic.__all__ + errors.__all__ + gutzwiller.__all__ + trajectory.__all__)
