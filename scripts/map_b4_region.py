#!/usr/bin/env python3
"""Map the fourth-coefficient constraint region next to what sampled class
members actually attain.

The constraint set (intersection of the two unit-disk families over all
rotations) is a necessary envelope for b4 given (b1, b2, b3); whether the
attainable set fills it is unknown.  This script reports both sides
without asserting they agree: the rasterized constraint radius for
b2 = b3 = 0 across a grid of b1, and the empirical |b4| frontier of a
sampled corpus binned by |b1|, against the reference curve 1 - |b1|^4.

Runs ``schwarzlab region`` and ``schwarzlab scan`` in process, so settings
are checked as the CLI checks them, all before the first row is printed: a
refused setting prints only ``error: ...`` and exits 2.

Example:
    python3 scripts/map_b4_region.py --samples 2000 --seed 42
"""

import argparse
import sys

from schwarzlab.cli import RunConfig, run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--angles", type=int, default=4096,
                    help="rotation samples of the region (scan margins are exact)")
    ap.add_argument("--resolution", type=int, default=512)
    ap.add_argument("--b1-steps", type=int, default=5)
    args = ap.parse_args()

    b1s = [i / (args.b1_steps - 1) if args.b1_steps > 1 else 0.0 for i in range(args.b1_steps)]
    # b2 and b3 left unset are 0
    regions = [RunConfig(command="region", target="b4", b1=b1, angles=args.angles,
                         resolution=args.resolution) for b1 in b1s]
    scan_cfg = RunConfig(command="scan", seed=args.seed, samples=args.samples)
    try:
        for cfg in (*regions, scan_cfg):
            cfg.validate()
        print("constraint region radius for b2 = b3 = 0 (modes eq1/eq2 coincide):")
        print(f"{'b1':>5s} {'max_modulus':>12s} {'1-|b1|^4':>10s}")
        for b1, cfg in zip(b1s, regions):
            _, region = run(cfg)
            print(f"{b1:5.2f} {region['results'][0]['max_modulus']:12.6f} {1 - b1**4:10.6f}")
        status, scan = run(scan_cfg)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    samples = [row for row in scan["results"] if row["kind"] == "sample"]
    outside = sum(not row["member"] for row in samples)
    worst = "non-finite" if scan["worst_slack"] is None else f"{scan['worst_slack']:.2e}"
    print(f"\nattainability scan: {len(samples)} samples, "
          f"{outside} outside the constraint set, worst margin {worst}")

    print("\nempirical |b4| frontier by |b1| bin (reference column is the")
    print("curve 1 - c^4 at the bin center; descriptive only):")
    print(f"{'bin':>12s} {'count':>6s} {'max |b4|':>10s} {'reference':>10s}")
    for row in scan["results"][len(samples):]:
        label = f"[{row['lo']:.1f},{row['hi']:.1f})"
        print(f"{label:>12s} {row['count']:6d} {row['max_abs_b4']:10.6f} {row['reference']:10.6f}")
    return status


if __name__ == "__main__":
    sys.exit(main())
