#!/usr/bin/env python3
"""Map the fourth-coefficient constraint region next to what sampled class
members actually attain.

The constraint set (intersection of the two unit-disk families over all
rotations) is a necessary envelope for b4 given (b1, b2, b3); whether the
attainable set fills it is unknown.  This script reports both sides
without asserting they agree: the rasterized constraint radius for
b2 = b3 = 0 across a grid of b1, and the empirical |b4| frontier of a
sampled corpus binned by |b1|, against the reference curve 1 - |b1|^4.

Example:
    python3 scripts/map_b4_region.py --samples 2000 --seed 42
"""

import argparse
import sys

from schwarzlab.regions import (
    attainability_frontier,
    attainability_scan,
    b4_feasible_region,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--angles", type=int, default=4096,
                    help="rotation samples of the region (scan margins are exact)")
    ap.add_argument("--resolution", type=int, default=512)
    ap.add_argument("--b1-steps", type=int, default=5)
    args = ap.parse_args()

    print("constraint region radius for b2 = b3 = 0 (modes eq1/eq2 coincide):")
    print(f"{'b1':>5s} {'max_modulus':>12s} {'1-|b1|^4':>10s}")
    for i in range(args.b1_steps):
        b1 = i / (args.b1_steps - 1) if args.b1_steps > 1 else 0.0
        est = b4_feasible_region(
            b1, 0.0, 0.0, angle_samples=args.angles,
            resolution=args.resolution, mode="both",
        )
        print(f"{b1:5.2f} {est.max_modulus:12.6f} {1 - b1**4:10.6f}")

    records = attainability_scan(args.seed, args.samples)
    violations = [r for r in records if not r.member]
    worst = min(r.margin for r in records)
    print(f"\nattainability scan: {len(records)} samples, "
          f"{len(violations)} outside the constraint set, worst margin {worst:.2e}")

    print("\nempirical |b4| frontier by |b1| bin (reference column is the")
    print("curve 1 - c^4 at the bin center; descriptive only):")
    print(f"{'bin':>12s} {'count':>6s} {'max |b4|':>10s} {'reference':>10s}")
    for fb in attainability_frontier(records):
        label = f"[{fb.lo:.1f},{fb.hi:.1f})"
        print(f"{label:>12s} {fb.count:6d} {fb.max_abs_b4:10.6f} {fb.reference:10.6f}")
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())
