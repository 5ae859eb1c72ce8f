"""Classical barrier-crossing time vs quantum lifetime.

For each benchmark coupling, compares the classical time t_c at which
the complex trajectory first reaches Re x3 with the quasi-bound
lifetime tau.  If the crossing were a faithful classical picture of
tunneling escape the two should track each other; instead the ratio
runs from ~5 to ~27 across a factor 1.4 in coupling.

The full grid takes ~25 s (the g = 0.12522 trajectory needs ~15000
time units).  Pass --fast to run only the two largest couplings.

Run:
    python3 demos/crossing_vs_lifetime.py [--fast]
"""

import sys
import time

from semiclassics.cli import TABLE1_G, compute_table1


def main(fast=False):
    g_values = TABLE1_G[2:] if fast else TABLE1_G

    print("computing crossing times (corrected quasi-bound energy, x0 = x1) ...")
    started = time.perf_counter()
    rows = compute_table1(g_values)
    elapsed = time.perf_counter() - started

    print(f"\n{'g':>9} {'t_c':>10} {'tau':>9} {'t_c/tau':>8} {'t_c ref':>8} {'tau ref':>8}")
    for row in rows:
        tc = f"{row.t_c:.1f}" if row.t_c is not None else "none"
        ratio = f"{row.ratio:.1f}" if row.ratio is not None else "none"
        print(f"{row.g:9.5f} {tc:>10} {row.tau:9.2f} {ratio:>8} "
              f"{row.t_c_ref:8d} {row.tau_ref:8d}")

    print(f"\n({elapsed:.1f} s)")
    print("the two rows share no common scale: t_c/tau grows without bound "
          "as the coupling shrinks")


if __name__ == "__main__":
    main(fast="--fast" in sys.argv[1:])
