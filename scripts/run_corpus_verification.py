#!/usr/bin/env python3
"""Corpus verification experiment: worst slack of every coefficient bound
over seeded Schwarz and Herglotz corpora.

Runs ``schwarzlab verify`` in process, so its settings are checked as the
CLI checks them: a refused setting prints ``error: ...`` and exits 2.

Example:
    python3 scripts/run_corpus_verification.py --samples 1000 --seed 42
"""

import argparse
import sys
import time

from schwarzlab.cli import RunConfig, run


def _slack(x) -> str:
    # the report holds a non-finite slack as None
    return f"{'non-finite':>14s}" if x is None else f"{x:14.3e}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--order", type=int, default=12)
    args = ap.parse_args()

    start = time.perf_counter()
    try:
        status, report = run(RunConfig(command="verify", **vars(args)))
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start

    print(f"{'bound':24s} {'checks':>9s} {'worst slack':>14s} {'at sample':>10s}")
    for row in report["results"]:
        print(
            f"{row['bound']:24s} {row['checks']:9d} {_slack(row['worst_slack'])} "
            f"{row['worst_index']:10d}"
        )
    worst = _slack(report["worst_slack"]).strip()
    print(f"\noverall worst slack: {worst}  ({elapsed:.1f}s, status {status})")
    return status


if __name__ == "__main__":
    sys.exit(main())
