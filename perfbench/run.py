"""Benchmark of the schwarzlab CLI: seeded closed-loop workloads, checked reports.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verify-corpus --seed 42 --seconds 20 --trace 0

One client drives ``schwarzlab.cli.main`` in this process, issuing the next
request when the previous one returns.  Every report is checked (see
``workloads.py``) and hashed.  With ``--trace 0`` the run measures the
end-to-end metrics; with ``--trace 1`` it replays a fixed number of requests
under :class:`layertrace.LayerTrace` and reports per-layer metrics.  The last
line of standard output is the result object; the line before it carries
run details, and ``perfbench/out/`` keeps a BENCH_*.json record per run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from layertrace import LAYERS, LayerTrace
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: numpy's BLAS and OpenMP pools are held to one thread: the benchmark is a
#: single client on a small machine, and the lab's kernels are too small to
#: gain from threads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: Fresh interpreters launched to time set-up; the median is reported.
SETUP_LAUNCHES = 7
SETUP_CODE = "import schwarzlab.cli as cli; cli.build_parser()"
WARMUP_REQUESTS = 3
#: A run stops issuing requests after this long, whatever its minimum count,
#: so that a run ends within 180 s.
WALL_CAP_S = 150.0
#: The traced run issues seconds / (TRACE_SHARE * nominal request time)
#: requests: a fixed count, so its counts repeat exactly for a seed.
TRACE_SHARE = 4
#: Rounding allowed when the root spans of a request are summed.
SPAN_SLACK_S = 1e-9

FAMILY_GROUPS = {
    "expand": ("expand_schwarz", "expand_caratheodory"),
    "cayley": ("cayley_from_schwarz", "inverse_cayley"),
    "evaluate": ("evaluate_schwarz", "evaluate_caratheodory"),
    "sample": ("sample_schwarz", "sample_herglotz", "harmonic_boundary_atoms"),
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _thread_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _metadata(numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "clients": 1,
        "loop": "closed",
    }


def measure_setup(hostspeed) -> tuple[list[float], list[float]]:
    """Raw and speed-scaled wall times of fresh interpreters that import the
    CLI and build its parser."""
    env = _thread_env()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    raw, scaled = [], []
    for _ in range(SETUP_LAUNCHES):
        k = hostspeed.scale()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        dt = time.perf_counter() - t0
        raw.append(dt)
        scaled.append(dt * k)
    return raw, scaled


def call_cli(cli, argv) -> tuple[int, str, float]:
    """Run one request in-process; returns (exit status, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        status = cli.main(list(argv))
        dt = time.perf_counter() - t0
    return status, out.getvalue(), dt


def checked_call(cli, workload, req) -> tuple[int, str, float, str | None]:
    try:
        status, text, dt = call_cli(cli, req.argv)
        problem = workload.check(req, status, text)
    except Exception:  # a crash is one failed request, not the end of the run
        return -1, "", math.nan, traceback.format_exc(limit=3)
    return status, text, dt, problem


def nearest_rank(sorted_values: list[float], percentile: float) -> float:
    k = max(math.ceil(percentile / 100.0 * len(sorted_values)) - 1, 0)
    return sorted_values[k]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def compare_digests(path: Path, digests: list[str]) -> dict:
    """Compare with the digests a previous run of this workload and seed kept."""
    try:
        previous = json.loads(path.read_text())["digests"]
    except (OSError, ValueError, KeyError):
        return {"previous_run": False, "compared": 0, "mismatches": []}
    n = min(len(previous), len(digests))
    return {
        "previous_run": True,
        "compared": n,
        "mismatches": [i for i in range(n) if previous[i] != digests[i]],
    }


def write_record(path: Path, record: dict) -> None:
    OUT.mkdir(exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def _latency_metrics(latencies: list[float], items: int, percentile: float) -> dict:
    ordered = sorted(latencies)
    if not ordered:
        return {"items_per_s": 0.0, "latency_p50_ms": 0.0, "latency_tail_ms": 0.0}
    return {
        "items_per_s": items / sum(ordered),
        "latency_p50_ms": 1e3 * statistics.median(ordered),
        "latency_tail_ms": 1e3 * nearest_rank(ordered, percentile),
    }


def run_untraced(cli, hostspeed, workload, seed: int, seconds: float) -> tuple[dict, dict]:
    setup_raw, setup = measure_setup(hostspeed)
    for i in range(WARMUP_REQUESTS):
        checked_call(cli, workload, workload.request(seed, -1 - i))

    raw_latencies, scales, digests, failures = [], [], [], []
    items = 0
    busy = 0.0
    wall0 = time.perf_counter()
    index = 0
    while (busy < seconds or index < workload.min_requests) and (
        time.perf_counter() - wall0 < WALL_CAP_S
    ):
        req = workload.request(seed, index)
        k = hostspeed.scale()
        status, text, dt, problem = checked_call(cli, workload, req)
        digests.append(_digest(text))
        if not math.isnan(dt):
            busy += dt
        if problem is None:
            raw_latencies.append(dt)
            scales.append(k)
            items += req.items
        else:
            failures.append({"index": index, "status": status, "problem": problem})
        index += 1

    attempted = index
    latencies = [dt * k ** workload.speed_exponent
                 for dt, k in zip(raw_latencies, scales)]
    n = len(latencies)
    tail_beyond = n - math.ceil(workload.tail_percentile / 100.0 * n)
    units = {"items_per_s": "items/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms"}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in
               _latency_metrics(latencies, items, workload.tail_percentile).items()}
    metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}
    path = OUT / f"BENCH_{workload.name}_seed{seed}.json"
    detail = {
        "workload": workload.name,
        "seed": seed,
        "requests": attempted,
        "failed_ratio": len(failures) / attempted,
        "items": items,
        "item_unit": workload.item_unit,
        "tail_percentile": workload.tail_percentile,
        "tail_beyond": tail_beyond,
        "latency_min_ms": 1e3 * min(latencies) if latencies else None,
        "unscaled": {**_latency_metrics(raw_latencies, items, workload.tail_percentile),
                     "setup_s": statistics.median(setup_raw)},
        "speed_scale": {"exponent": workload.speed_exponent,
                        "reference_probe_s": hostspeed.REFERENCE_S,
                        "median": statistics.median(scales) if scales else None,
                        "min": min(scales, default=None),
                        "max": max(scales, default=None)},
        "setup_launches_s": setup_raw,
        "digest_check": compare_digests(path, digests),
        "failures": failures[:10],
    }
    write_record(path, {**detail, "metrics": metrics, "run_s": raw_latencies,
                        "speed_scales": scales, "digests": digests})
    detail["record"] = str(path.relative_to(ROOT))
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return result, detail


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(trace, untraced_s: float) -> dict:
    calls: dict[str, int] = {}
    selfs: dict[str, float] = {}
    counters: dict[str, float] = {}
    for rec in trace.records:
        for key, (n, s) in rec.functions.items():
            calls[key] = calls.get(key, 0) + n
            selfs[key] = selfs.get(key, 0.0) + s * rec.speed_scale
        for key, v in rec.counters.items():
            counters[key] = counters.get(key, 0.0) + v
    names = trace.targets()

    def c(*keys):
        return sum(calls.get(k, 0) for k in keys)

    def s(*keys):
        return sum(selfs.get(k, 0.0) for k in keys)

    def layer_self(layer):
        return s(*(k for k in names if k.startswith(layer + ".")))

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    m: dict[str, tuple[float, str]] = {}
    kernels = [f"series.{f}" for f in ("mul", "compose", "reciprocal")]
    for k in kernels:
        m[f"{k}.calls"] = (c(k), "count")
        m[f"{k}.self_s"] = (s(k), "s")
    cmacs = counters.get("series.cmacs", 0)
    m["series.cmacs"] = (cmacs, "count")
    m["series.cmacs_per_s"] = (rate(cmacs, s(*kernels)), "1/s")
    for group, fns in FAMILY_GROUPS.items():
        keys = [f"families.{f}" for f in fns]
        m[f"families.{group}.calls"] = (c(*keys), "count")
        m[f"families.{group}.self_s"] = (s(*keys), "s")
    checks = counters.get("bounds.checks", 0)
    m["bounds.checks"] = (checks, "count")
    m["bounds.checks_per_s"] = (rate(checks, layer_self("bounds")), "1/s")
    for f in ("livingston_gap", "fourth_coefficient_constraints", "pointwise_contraction"):
        m[f"bounds.{f}.self_s"] = (s(f"bounds.{f}"), "s")
    m["regions.b4_margin.calls"] = (c("regions.b4_margin"), "count")
    m["regions.b4_margin.self_s"] = (s("regions.b4_margin"), "s")
    m["regions.center_evals"] = (counters.get("regions.center_evals", 0), "count")
    m["regions.attainability_scan.self_s"] = (s("regions.attainability_scan"), "s")
    m["regions.intersect_disk_family.calls"] = (c("regions.intersect_disk_family"), "count")
    m["regions.intersect_disk_family.self_s"] = (s("regions.intersect_disk_family"), "s")
    cells = counters.get("regions.cells", 0)
    m["regions.cells"] = (cells, "count")
    m["regions.cells_per_s"] = (rate(cells, s("regions.intersect_disk_family")), "1/s")
    m["regions.feasible_fraction"] = (
        counters.get("regions.feasible_cells", 0) / cells if cells else 0.0, "ratio")
    m["grammar.parse_generator.calls"] = (c("grammar.parse_generator"), "count")
    m["grammar.parse_generator.self_s"] = (s("grammar.parse_generator"), "s")
    m["cli.build_parser.self_s"] = (s("cli.build_parser"), "s")
    m["cli.run.self_s"] = (s("cli.run"), "s")
    m["cli.render.self_s"] = (s("cli.render_json", "cli.render_csv"), "s")
    m["cli.report_bytes"] = (counters.get("cli.report_bytes", 0), "bytes")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self(layer), "s")
    traced_s = sum(r.request_s for r in trace.records)
    m["trace.requests"] = (len(trace.records), "count")
    m["trace.request_s"] = (sum(r.request_s * r.speed_scale for r in trace.records), "s")
    m["trace.unattributed_s"] = (
        sum(r.unattributed_s() * r.speed_scale for r in trace.records), "s")
    m["trace.overhead_ratio"] = (traced_s / untraced_s - 1.0 if untraced_s else 0.0, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def run_traced(cli, hostspeed, package, workload, seed: int,
               seconds: float) -> tuple[dict, dict]:
    count = max(2, int(seconds / (TRACE_SHARE * workload.nominal_s)))
    requests = [workload.request(seed, i) for i in range(count)]
    checked_call(cli, workload, workload.request(seed, -1))

    failures = []
    trace = LayerTrace(package)
    untraced_s = 0.0
    for req in requests:
        # each request runs traced, then untraced, so drift in host speed
        # cancels in the overhead ratio
        k = hostspeed.scale()
        with trace:
            record = trace.request(req.index)
            status, text, dt, problem = checked_call(cli, workload, req)
            # a failed request's spans are dropped, so the layer metrics
            # cover passed requests only
            trace.finish(record, dt, keep=problem is None)
        if problem is not None:
            failures.append({"index": req.index, "status": status, "problem": problem})
            continue
        record.speed_scale = k ** workload.speed_exponent
        untraced_s += call_cli(cli, req.argv)[2]

    # the root spans of a request must lie inside its timed call
    bad = [r.request_id for r in trace.records
           if not (math.isfinite(r.request_s)
                   and -SPAN_SLACK_S <= r.unattributed_s() <= r.request_s)]
    if bad:
        raise RuntimeError(f"root spans exceed the request time in requests {bad[:5]}")

    metrics = layer_metrics(trace, untraced_s)
    path = OUT / f"BENCH_{workload.name}_seed{seed}_trace.json"
    detail = {
        "workload": workload.name,
        "seed": seed,
        "requests": count,
        "untraced_replay_s": untraced_s,
        "failures": failures[:10],
    }
    write_record(path, {**detail, "metrics": metrics,
                        "per_request": [r.as_json() for r in trace.records]})
    detail["record"] = str(path.relative_to(ROOT))
    result = {"correct": not failures, "attempted": count,
              "failed": len(failures), "metrics": metrics}
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    if not (SRC / "schwarzlab" / "cli.py").is_file():
        return _fail(f"no lab sources under {SRC}; run from a schwarzlab checkout")

    # before numpy is first imported, so its thread pools start with one thread
    os.environ.update(_thread_env())
    # one core for the run and its set-up launches, so that the speed probe
    # runs where the work it scales runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import numpy
    import hostspeed
    import schwarzlab
    import schwarzlab.cli as cli

    if Path(schwarzlab.__file__).resolve().parent != SRC / "schwarzlab":
        return _fail(f"imported schwarzlab from {schwarzlab.__file__}, not {SRC}")
    workload = WORKLOADS[args.workload]
    if args.trace:
        result, detail = run_traced(cli, hostspeed, schwarzlab, workload,
                                    args.seed, args.seconds)
    else:
        result, detail = run_untraced(cli, hostspeed, workload, args.seed, args.seconds)
    detail["metadata"] = _metadata(numpy.__version__)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
