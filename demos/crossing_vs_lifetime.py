"""Classical barrier-crossing time vs quantum lifetime.

For each benchmark coupling, compares the classical time t_c at which
the complex trajectory first reaches Re x3 with the quasi-bound
lifetime tau.  If the crossing were a faithful classical picture of
tunneling escape the two should track each other; instead the ratio
runs from ~5 to ~27 across a factor 1.4 in coupling.

Run:
    python3 demos/crossing_vs_lifetime.py
"""

import time

from semiclassics.cli import TABLE1_G, compute_table1


def main():
    print("computing crossing times (corrected quasi-bound energy, x0 = x1) ...")
    started = time.perf_counter()
    rows = compute_table1(TABLE1_G)
    elapsed = time.perf_counter() - started

    print(f"\n{'g':>9} {'t_c':>10} {'tau':>9} {'t_c/tau':>8} {'t_c ref':>8} {'tau ref':>8}")
    for row in rows:
        tc = f"{row.t_c:.1f}" if row.t_c is not None else "none"
        ratio = f"{row.ratio:.1f}" if row.ratio is not None else "none"
        print(f"{row.g:9.5f} {tc:>10} {row.tau:9.2f} {ratio:>8} "
              f"{row.t_c_ref:8d} {row.tau_ref:8d}")

    print(f"\n({elapsed:.1f} s)")
    print("the two rows share no common scale: below g ~ 0.2, where the level "
          "stays under the barrier top, t_c/tau grows without bound as the "
          "coupling shrinks")


if __name__ == "__main__":
    main()
