#!/usr/bin/env python3
"""Convergence study of the rasterized third-coefficient region against
the closed-form radius 1 - |b1|^3, sweeping angle samples and resolution.

Runs ``schwarzlab region --target b3`` in process, so settings are checked
as the CLI checks them, all before the first row is printed: a refused
setting prints only ``error: ...`` and exits 2.

Example:
    python3 scripts/b3_region_convergence.py --b1 0.5 0.9
"""

import argparse
import itertools
import sys
import time

from schwarzlab.cli import RunConfig, run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--b1", type=float, nargs="+", default=[0.0, 0.3, 0.5, 0.9])
    ap.add_argument("--angles", type=int, nargs="+", default=[256, 1024, 4096, 10000])
    ap.add_argument("--resolutions", type=int, nargs="+", default=[128, 256, 512, 1024])
    args = ap.parse_args()

    runs = list(itertools.product(args.b1, args.angles, args.resolutions))
    cfgs = [RunConfig(command="region", target="b3", b1=b1, angles=m, resolution=res)
            for b1, m, res in runs]
    worst_ratio = 0.0
    try:
        for cfg in cfgs:
            cfg.validate()
        print(f"{'b1':>5s} {'angles':>7s} {'res':>5s} {'max_modulus':>12s} "
              f"{'exact':>8s} {'error':>10s} {'bound':>10s} {'time':>6s}")
        for (b1, m, res), cfg in zip(runs, cfgs):
            start = time.perf_counter()
            _, report = run(cfg)
            dt = time.perf_counter() - start
            max_modulus = report["results"][0]["max_modulus"]
            exact = 1.0 - b1**3
            err = abs(max_modulus - exact)
            bound = 2.0 / res + 10.0 / m
            worst_ratio = max(worst_ratio, err / bound)
            print(f"{b1:5.2f} {m:7d} {res:5d} {max_modulus:12.6f} "
                  f"{exact:8.4f} {err:10.2e} {bound:10.2e} {dt:5.2f}s")
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"\nworst error/bound ratio: {worst_ratio:.3f} (must stay below 1)")
    return 0 if worst_ratio < 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
