"""A classical particle with complex energy 'tunnels' out of the well.

Integrates the complex trajectory at g = 2/sqrt(125) from the leftmost
turning point, watches the spiral drift across Re x3 (the classical
barrier-crossing event), and then sees it swing back to the left side
instead of escaping to the right.  The sampled trajectory is written as
plot-ready CSV by ``semiclassics trajectory``.

Run:
    python3 demos/complex_trajectory.py [out.csv]
"""

import math
import sys

import numpy as np

from semiclassics import (
    CubicModel,
    IntegratorConfig,
    corrected_quasi_bound_energy,
    crossing_time,
    integrate,
    turning_points,
)
from semiclassics.cli import main as semiclassics_cli


def main(out_path="complex_trajectory.csv"):
    g = 2.0 / math.sqrt(125.0)
    state = corrected_quasi_bound_energy(g)
    model = CubicModel(g)
    tps = turning_points(model, state.energy)

    print(f"g = 2/sqrt(125) = {g:.6f}")
    print(f"lifetime tau = {state.tau:.4f}, complex energy E = {state.energy:.6f}")
    print("turning points:")
    for name, x in zip(("x1", "x2", "x3"), tps):
        print(f"  {name} = {x.real:+.4f} {x.imag:+.4f}i")

    cfg = IntegratorConfig(t_max=58.0, sample_interval=0.02)
    t_c = crossing_time(model, state.energy, tps.x1, 0j, cfg)
    print(f"\nfirst crossing of Re x3: t_c = {t_c:.3f}  "
          f"(about {t_c / (2 * math.pi):.1f} oscillation periods)")

    traj = integrate(model, state.energy, tps.x1, 0j, cfg)
    print(f"integrated {len(traj)} samples to t = {cfg.t_max}, "
          f"max energy drift {traj.max_energy_drift:.2e}")

    after = traj.t > t_c
    print(f"after the crossing, Re x dips to {traj.x.real[after].min():.2f} "
          f"(left of Re x2 = {tps.x2.real:.2f}): the trajectory does not "
          "escape rightward, it keeps circulating")

    per_orbit = np.searchsorted(traj.t, [k * 2 * math.pi for k in range(9)])
    print("\nloop-by-loop footprint (samples nearest k full periods):")
    for k, i in enumerate(per_orbit):
        x = traj.x[min(i, len(traj) - 1)]
        print(f"  t ~ {k}T: x = {x.real:+8.4f} {x.imag:+8.4f}i")

    print("\nthe same trajectory as CSV (columns t,re_x,im_x,re_p,im_p,energy_drift):")
    argv = ["trajectory", "--g", repr(g), "--t-max", repr(cfg.t_max),
            "--sample-interval", repr(cfg.sample_interval), "--out", out_path]
    if semiclassics_cli(argv) != 0:
        raise SystemExit(f"semiclassics {' '.join(argv)} failed")


if __name__ == "__main__":
    main(*sys.argv[1:])
