"""Self-test of the benchmark: tiny runs of every workload, checked end to end.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For each workload in BENCHMARK.json it makes two untraced runs and two traced
runs of one seed, each with ``--seconds 1`` (a run still issues its
workload's minimum request count, so the whole test takes a few minutes).
It checks that

- every run exits 0 with no failed request, and its result line names
  exactly the metrics BENCHMARK.json lists, with the units listed there;
- the second untraced run reproduces the report digests of the first;
- the traced counts repeat exactly across the two traced runs;
- each layer is reached only by the workloads that should reach it;
- in a directory holding only BENCHMARK.json and the benchmark's files the
  benchmark exits non-zero without printing a result.

Exits 0 when every check passes and 1 otherwise, listing the failures.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 42
TIMEOUT_S = 180

#: (per-layer count, the only workload where it may be non-zero)
ISOLATION = (
    ("bounds.checks", "verify-corpus"),
    ("regions.intersect_disk_family.calls", "region-raster"),
    ("regions.b4_margin.calls", "scan-b4"),
    ("grammar.parse_generator.calls", "expand-deep"),
)
COUNT_UNITS = ("count", "bytes")


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def last_two_lines(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    detail, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail)["detail"], json.loads(result)


def check_result(tag: str, proc, spec: list[dict], errors: list[str]) -> tuple[dict, dict]:
    if proc.returncode != 0:
        errors.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return {}, {}
    detail, result = last_two_lines(proc)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{tag}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{tag}: {result['failed']} of {result['attempted']} requests "
                      f"failed: {detail.get('failures')}")
    expected = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        errors.append(f"{tag}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(expected) - set(got))}, "
                      f"extra {sorted(set(got) - set(expected))}, "
                      f"units {[(k, got[k], expected[k]) for k in got if k in expected and got[k] != expected[k]]}")
    return detail, result


def bare_directory_fails(errors: list[str]) -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = bench("expand-deep", 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        errors.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors: list[str] = []
    traced = {}
    for w in (w["name"] for w in spec["workloads"]):
        (HERE / "out" / f"BENCH_{w}_seed{SEED}.json").unlink(missing_ok=True)
        check_result(f"{w} untraced", bench(w, 0), spec["end_to_end"], errors)
        detail, _ = check_result(f"{w} untraced rerun", bench(w, 0), spec["end_to_end"], errors)
        digests = detail.get("digest_check", {})
        if not digests.get("previous_run") or digests.get("mismatches"):
            errors.append(f"{w}: rerun digests {digests}")

        runs = [check_result(f"{w} traced", bench(w, 1), spec["per_layer"], errors)[1]
                for _ in range(2)]
        if not all(runs):
            continue
        counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] in COUNT_UNITS}
                  for r in runs]
        if counts[0] != counts[1]:
            diff = {k: (counts[0][k], counts[1][k]) for k in counts[0]
                    if counts[0][k] != counts[1][k]}
            errors.append(f"{w}: traced counts differ between runs: {diff}")
        traced[w] = counts[0]
        print(f"{w}: done", flush=True)

    for metric, home in ISOLATION:
        for w, counts in traced.items():
            if (counts[metric] > 0) != (w == home):
                errors.append(f"isolation: {metric} = {counts[metric]} on {w}")
    bare_directory_fails(errors)

    for e in errors:
        print(f"FAIL {e}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
