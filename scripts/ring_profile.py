#!/usr/bin/env python3
"""Radial density profile of the single ring for a chosen singular value law.

Writes the (s, L, L', L'', rho) table as CSV and prints a coarse sketch of
rho(s) and the exact ring-law mass of the tau-shrunk annulus to the terminal.

    python3 scripts/ring_profile.py --kind quarter_circle --n-atoms 500 \
        --n-radii 25 --out ring_profile.csv
"""

import argparse
import csv
import math
import sys

import numpy as np

from singlering import measure, ringlaw


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kind", default="quarter_circle",
                    choices=["quarter_circle", "two_point", "uniform"])
    ap.add_argument("--n-atoms", type=int, default=500)
    ap.add_argument("--a", type=float, default=1.0)
    ap.add_argument("--b", type=float, default=2.0)
    ap.add_argument("--p", type=float, default=0.5)
    ap.add_argument("--n-radii", type=int, default=25)
    ap.add_argument("--tau", type=float, default=None,
                    help="edge shrink; default 5%% of the ring width")
    ap.add_argument("--out", default="ring_profile.csv")
    args = ap.parse_args()

    if args.kind == "two_point":
        mu = measure.reference_measure("two_point", a=args.a, b=args.b, p=args.p)
    elif args.kind == "uniform":
        mu = measure.reference_measure("uniform", args.n_atoms, a=args.a, b=args.b)
    else:
        mu = measure.reference_measure("quarter_circle", args.n_atoms)

    try:
        ring = measure.RingGeometry.from_measure(mu, args.tau)
    except measure.MeasureError as exc:
        sys.exit(str(exc))
    r_minus, r_plus, tau = ring.r_minus, ring.r_plus, ring.tau
    lo, hi = r_minus + tau, r_plus - tau
    if lo >= hi:
        sys.exit(f"tau = {tau} empties the annulus [{r_minus}, {r_plus}]")
    print(f"ring radii: r_minus = {r_minus:.6f}, r_plus = {r_plus:.6f}")

    prof = ringlaw.radial_profile(mu, np.linspace(lo, hi, args.n_radii))
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["s", "L", "dL", "d2L", "rho"])
        for row in prof.rows():
            w.writerow([f"{v:.17g}" for v in row])
    print(f"wrote {args.out}")

    peak = max(prof.rho_values)
    for s, rho in zip(prof.s_grid, prof.rho_values):
        bar = "#" * int(50 * max(rho, 0.0) / peak) if peak > 0 else ""
        print(f"  s = {s:8.4f}  rho = {rho:8.5f}  {bar}")

    mass = ringlaw.ring_mass(mu, tau)
    print(f"exact mass in the tau-shrunk annulus: {mass:.10f}")


if __name__ == "__main__":
    main()
