"""Time-reversal fidelity of the classical dynamics.

Integrate forward for a time T, flip the momentum, integrate another T,
flip back: exact Hamiltonian dynamics returns to the starting point.
The retrace error measures how well the numerical flow inherits this
reversibility, and how it responds to the requested tolerance.

Run:
    python3 demos/time_reversal.py
"""

import math

from semiclassics import (
    CubicModel,
    HarmonicModel,
    IntegratorConfig,
    corrected_quasi_bound_energy,
    reversibility_error,
    turning_points,
)


def main():
    print("harmonic oscillator, one full period (closed orbit):")
    err = reversibility_error(HarmonicModel(), 0.5 + 0j, 1.0 + 0j, 0j, 2.0 * math.pi)
    print(f"  T = 2 pi      retrace error = {err:.3e}")

    print("\ncubic well, real bound energy (g = 0.1, E = 0.3), T = 50:")
    model = CubicModel(0.1)
    x1 = turning_points(model, 0.3 + 0j).x1
    for rel in (1e-6, 1e-8, 1e-10):
        cfg = IntegratorConfig(rel_tol=rel)
        err = reversibility_error(model, 0.3 + 0j, x1, 0j, 50.0, cfg)
        print(f"  rel_tol = {rel:7.0e}   retrace error = {err:.3e}")
    print("  (the error tracks the requested tolerance)")

    print("\ncomplex quasi-bound energy, g = 0.17888, T = 30:")
    state = corrected_quasi_bound_energy(0.17888)
    model = CubicModel(0.17888)
    x1 = turning_points(model, state.energy).x1
    err = reversibility_error(model, state.energy, x1, 0j, 30.0)
    print(f"  retrace error = {err:.3e}")
    print("\nthe flow itself is reversible; only the truncation error of the")
    print("integrator breaks the symmetry, and it does so controllably")


if __name__ == "__main__":
    main()
