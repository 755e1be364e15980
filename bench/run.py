#!/usr/bin/env python3
"""tfqkd benchmark.

    python3 bench/run.py --workload rate_curve --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; tfqkd is imported from ./src.

--trace 0 measures the end-to-end metrics. The named workload runs for
--seconds; the other two run briefly after it as companions, so that every
end-to-end metric is measured in every run (each metric comes from the
workload that produces it). --trace 1 runs the named workload's fixed
trace work twice, untraced and traced in alternating chunks, and reports
the per-layer metrics. The last line of standard output is the result
object; the line before it records the environment and the raw figures.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import os  # noqa: E402

# One BLAS thread and no sweep workers: the benchmark is a single process.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ.pop("TFQKD_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

ORDER = ("rate_curve", "finite_key_mc", "lp_export")
# How long each workload runs as a companion in a run of another workload;
# the rate curve's companion is always one unit (two sweeps).
COMPANION_SECONDS = {"rate_curve": 0.0, "finite_key_mc": 8.0, "lp_export": 8.0}
SETUP_REPEATS = 7
# Set-up is normalized by the speed of the analysis kernel.
SETUP_KERNEL = "finite_key_mc"
TRACE_CHUNKS = 8


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=ORDER)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_tfqkd():
    if not (SRC / "tfqkd" / "__init__.py").is_file():
        raise SystemExit(f"error: no tfqkd sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import tfqkd

    if Path(tfqkd.__file__).resolve().parent != SRC / "tfqkd":
        raise SystemExit(f"error: imported tfqkd from {tfqkd.__file__}, not from {SRC}")


def _make_workloads(seed: int, workdir: Path) -> dict:
    from workloads import WORKLOADS

    built = {}
    for name in ORDER:
        built[name] = WORKLOADS[name](seed, workdir)
        built[name].warm_up()
    return built


# ---------------------------------------------------------------- set-up


def setup_probe(args) -> dict:
    """Child-process body: import, build every workload and warm each up;
    report the raw set-up time and the probe kernel's speed right after."""
    workdir = WORK / f"setup-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        _make_workloads(args.seed, workdir)
        raw = time.perf_counter() - _STARTED
        import speed

        kernel = speed.Kernel(SETUP_KERNEL, workdir)
        return {"setup_s": raw, "kernel_s": speed.kernel_seconds(kernel, 5)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(args, repeats: int) -> tuple[float, list[float]]:
    """Median normalized set-up time over fresh interpreter processes."""
    import speed

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    normalized = []
    for _ in range(repeats):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        normalized.append(probe["setup_s"] * speed.REFERENCE_KERNEL_S[SETUP_KERNEL] / probe["kernel_s"])
    return statistics.median(normalized), normalized


# ---------------------------------------------------------------- timed runs


def timed(wl, seconds: float) -> dict:
    """Closed loop over the workload's stream for `seconds` (whole units),
    under the speed probe. Returns normalized per-item times and tallies."""
    from speed import Kernel, SpeedProbe

    spans, ops, failed, problems, outputs = [], 0, 0, [], []
    stream = wl.stream()
    with SpeedProbe(Kernel(wl.name, wl.workdir), defer=wl.short_items) as probe:
        deadline = time.perf_counter() + seconds
        for i, item in enumerate(stream, 1):
            w0, c0 = probe.clock()
            out = wl.execute(item)
            w1, c1 = probe.clock()
            spans.append((w0, w1, c1 - c0))
            bad = wl.check(item, out)
            ops += wl.points(item)
            if bad:
                failed += wl.points(item)
                problems += bad
            outputs.append((item, out if wl.name == "rate_curve" else None))
            probe.between_items()
            if i % wl.unit_size == 0 and w1 >= deadline:
                break
    norm = probe.normalize(spans)
    return {
        "seconds": norm,
        "raw_seconds": [s[2] for s in spans],
        "attempted": ops,
        "failed": failed,
        "problems": problems,
        "outputs": outputs,
        "probe_samples": probe.samples,
    }


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def by_unit(phase: dict, wl) -> tuple[list[float], list[list[float]]]:
    """Normalized seconds per unit, and each unit's item latencies in ms.
    A latency is scaled by its unit's overall normalization factor rather
    than its own, because a per-item factor adds noise to the tail."""
    norm, raw, size = phase["seconds"], phase["raw_seconds"], wl.unit_size
    totals, latencies = [], []
    for lo in range(0, len(raw) - size + 1, size):
        total = sum(norm[lo: lo + size])
        factor = total / sum(raw[lo: lo + size])
        totals.append(total)
        latencies.append([1e3 * factor * t for t in raw[lo: lo + size]])
    return totals, latencies


def unit_rate(phase: dict, wl) -> float:
    """Operations per normalized second of the median unit: a unit hit by a
    burst of contention does not move it."""
    totals, _ = by_unit(phase, wl)
    return phase["attempted"] / len(totals) / statistics.median(totals)


def end_to_end(args) -> tuple[dict, dict, int, int, list]:
    workdir = WORK / f"run-{os.getpid()}"
    setup_s, setup_raw = measure_setup(args, 2 if args.smoke else SETUP_REPEATS)
    workdir.mkdir(parents=True)
    try:
        built = _make_workloads(args.seed, workdir)
        phases = {}
        for name in ORDER:
            budget = args.seconds if name == args.workload else COMPANION_SECONDS[name]
            phases[name] = timed(built[name], 0.0 if args.smoke else budget)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rc, fk, lp = phases["rate_curve"], phases["finite_key_mc"], phases["lp_export"]
    logs = [x for item, out in rc["outputs"] for x in built["rate_curve"].log_rate_ratios(item, out)]
    _, units = by_unit(fk, built["finite_key_mc"])
    unit_p99 = [_percentile(u, 0.99) for u in units]
    values = {
        "setup_s": (setup_s, "s"),
        "points_per_s": (unit_rate(rc, built["rate_curve"]), "points/s"),
        "key_rate_ratio": (math.exp(statistics.fmean(logs)) if logs else 1.0, "ratio"),
        "analyses_per_s": (unit_rate(fk, built["finite_key_mc"]), "analyses/s"),
        "analysis_p50_ms": (statistics.median(t for u in units for t in u), "ms"),
        "analysis_p99_ms": (min(unit_p99), "ms"),
        "lp_exports_per_s": (unit_rate(lp, built["lp_export"]), "LPs/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    attempted = sum(p["attempted"] for p in phases.values())
    failed = sum(p["failed"] for p in phases.values())
    detail = {
        "setup_s_samples": setup_raw,
        "analysis_latency_samples": sum(len(u) for u in units),
        "analysis_p99_ms_per_unit": unit_p99,
        "phases": {
            name: {
                "seconds_budget": args.seconds if name == args.workload else COMPANION_SECONDS[name],
                "items": len(p["seconds"]),
                "attempted": p["attempted"],
                "failed": p["failed"],
                "work_s_normalized": sum(p["seconds"]),
                "work_s_raw": sum(p["raw_seconds"]),
                "probe_samples": p["probe_samples"],
            }
            for name, p in phases.items()
        },
    }
    problems = [x for p in phases.values() for x in p["problems"]]
    return metrics, detail, attempted, failed, problems


# ---------------------------------------------------------------- traced run


def traced(args) -> tuple[dict, dict, int, int, list]:
    from tracing import Tracer
    from workloads import WORKLOADS

    workdir = WORK / f"trace-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.warm_up()
        items = wl.trace_items(args.smoke)
        step = math.ceil(len(items) / TRACE_CHUNKS)
        tracer = Tracer()
        plain_out, traced_out = [], []
        plain_s = traced_s = 0.0
        for lo in range(0, len(items), step):
            chunk = items[lo: lo + step]
            t0 = time.perf_counter()
            plain_out += [wl.execute(item) for item in chunk]
            t1 = time.perf_counter()
            with tracer:
                t2 = time.perf_counter()
                traced_out += [wl.execute(item) for item in chunk]
                t3 = time.perf_counter()
            plain_s += t1 - t0
            traced_s += t3 - t2
        WORK.mkdir(exist_ok=True)
        tracer.save(WORK / f"trace_{args.workload}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = []
    attempted = failed = 0
    for item, a, b in zip(items, plain_out, traced_out):
        bad = wl.check(item, a) + wl.check(item, b)
        if not wl.same(a, b):
            bad.append(f"{item}: traced output differs from untraced output")
        attempted += 2 * wl.points(item)
        failed += 2 * wl.points(item) if bad else 0
        problems += bad
    values = tracer.layer_metrics()
    values["trace.overhead_ratio"] = traced_s / plain_s
    values["trace.self_time_coverage"] = tracer.covered_seconds() / traced_s
    values["failed_ratio"] = failed / attempted
    metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}
    detail = {
        "trace_items": len(items),
        "traced_wall_s": traced_s,
        "untraced_wall_s": plain_s,
        "spans": len(tracer.name_id),
        "span_file": str((WORK / f"trace_{args.workload}.npz").relative_to(ROOT)),
    }
    return metrics, detail, attempted, failed, problems


PER_LAYER_UNITS = {
    "simplex.solve_max.calls": "count",
    "simplex.solve_max.self_s": "s",
    "simplex.solve_max.us_per_call": "us",
    "simplex.pivots": "count",
    "simplex.pivots_per_solve": "pivots/solve",
    "simplex.infeasible": "count",
    "constraints.build_lp.calls": "count",
    "constraints.build_lp.self_s": "s",
    "constraints.build_lp.us_per_call": "us",
    "constraints.clamp_events": "count",
    "numerics.calls": "count",
    "numerics.self_s": "s",
    "constraints.dump_lp.self_s": "s",
    "simplex.load_lp.self_s": "s",
    "channel.calls": "count",
    "channel.self_s": "s",
    "channel.no_detections": "count",
    "keyrate.analyze.calls": "count",
    "keyrate.self_s": "s",
    "keyrate.zero_key": "count",
    "optimize.optimize_point.calls": "count",
    "optimize.self_s": "s",
    "optimize.evaluations": "count",
    "optimize.lp_solves": "count",
    "optimize.pruned": "count",
    "optimize.solves_per_point": "solves/point",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.self_time_coverage": "ratio",
    "failed_ratio": "ratio",
}


# ---------------------------------------------------------------- environment


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
    }


def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    args = _parse(argv)
    _import_tfqkd()
    if args.setup_probe:
        print(json.dumps(setup_probe(args)))
        return 0
    run = traced if args.trace else end_to_end
    metrics, detail, attempted, failed, problems = run(args)
    for line in problems[:20]:
        print("FAILED", line, file=sys.stderr)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment(), "detail": detail}
    print(json.dumps({"run": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
