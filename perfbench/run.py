"""Run one benchmark workload against the ``repro`` package and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload switching --seed 1 --seconds 45 --trace 0

One closed-loop client drives one ``Session`` at a time.  The run generates
its inputs from ``--seed`` (untimed), runs one untimed warm-up pass, then
repeats passes (fresh session: set-up, timed query stream, and on ``spill``
checkpoint + reopen) until ``--seconds`` have passed.  Every answer is
checked against a raw-table oracle, and every pass must reproduce the same
per-query decision fingerprint.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes of the same seed and reports the per-layer
metrics, the tracing overhead, and fails if tracing changed any decision.

Human-readable lines go first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Details (host,
per-pass figures, fingerprint digest) and the last traced pass's spans
(Chrome trace-event JSON) are written under ``perfbench/out/``.  The exit
code is non-zero when any answer is wrong, any query raised, or
fingerprints diverged.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

#: Passes measured per run at least, whatever ``--seconds`` says.
MIN_PASSES = 2


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples beyond)``; with fewer than eleven
    samples it is the maximum and nothing lies beyond.
    """
    ordered = sorted(latencies)
    index = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    beyond = len(ordered) - 1 - index
    return ordered[index], 100.0 * (index + 1) / len(ordered), beyond


def reset_peak_rss() -> None:
    """Restart the kernel's resident-memory high-water mark (Linux)."""
    with open("/proc/self/clear_refs", "w") as clear_refs:
        clear_refs.write("5")


def peak_rss_mb() -> float:
    """Resident-memory high-water mark since the last :func:`reset_peak_rss`."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError("no VmHWM line in /proc/self/status")


def host_record() -> dict[str, Any]:
    """What numbers from different hosts must not be compared without."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "loadavg_1min": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "REPRO_SANITIZE": os.environ.get("REPRO_SANITIZE", ""),
    }


def end_to_end(workload: Any, inputs: Any, passes: list[Any]) -> tuple[dict, list[str]]:
    """End-to-end metrics over the measured (untraced) passes."""
    latencies = [latency for outcome in passes for latency in outcome.latencies]
    tail, percentile, beyond = tail_latency(latencies)
    metrics = {
        "queries_per_s": (
            statistics.median(len(o.latencies) / o.wall_s for o in passes), "1/s"
        ),
        "query_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "query_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(o.setup_s for o in passes), "s"),
        "peak_rss_mb": (statistics.median(o.peak_rss_mb for o in passes), "MB"),
        "model_cost_units": (passes[0].cost_units, "units"),
    }
    notes = [
        f"query_tail_ms is p{percentile:.2f}: {beyond} of {len(latencies)} samples beyond it",
        f"{len(passes)} passes of {len(inputs.stream)} queries "
        f"(scale {workload.scale}, rows_per_block {workload.rows_per_block}, "
        f"persistence {workload.persistence}, buffer_bytes {workload.buffer_bytes})",
    ]
    return metrics, notes


def restart_metrics(inputs: Any, passes: list[Any]) -> dict:
    """Checkpoint / reopen / on-disk footprint; zero on workloads without a restart."""
    return {
        "checkpoint_s": (statistics.median(o.checkpoint_s for o in passes), "s"),
        "reopen_s": (statistics.median(o.reopen_s for o in passes), "s"),
        "disk_bytes_per_user_byte": (
            statistics.median(o.disk_bytes for o in passes) / inputs.user_bytes, "ratio"
        ),
    }


def layer_metrics(tracer: Any, outcome: Any, inputs: Any) -> dict:
    """Per-layer metrics of one traced pass (times are span self times)."""
    own = tracer.self_seconds
    counters = outcome.counters

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    queries = len(outcome.latencies)
    buffer_reads = counters.get("buffer_hits", 0) + counters.get("buffer_faults", 0)
    wall = tracer.timed_wall()
    return {
        "adaptive.on_query_s": (own["adaptive.on_query"], "s"),
        "adaptive.amoeba_search_s": (own["adaptive.amoeba_search"], "s"),
        "adaptive.smooth_apply_s": (own["adaptive.smooth_apply"], "s"),
        "adaptive.blocks_repartitioned": (tracer.counts["blocks_repartitioned"], "count"),
        "adaptive.rows_repartitioned": (tracer.counts["rows_repartitioned"], "count"),
        "adaptive.amoeba_transforms": (tracer.counts["amoeba_transforms"], "count"),
        "adaptive.trees_created": (tracer.counts["trees_created"], "count"),
        "partitioning.lookup_s": (own["partitioning.lookup"], "s"),
        "partitioning.route_rows_s": (own["partitioning.route_rows"], "s"),
        "partitioning.lookup_calls": (tracer.calls["partitioning.lookup"], "count"),
        "api.plan_s": (own["api.plan"], "s"),
        "api.plan_cache_hit_ratio": (
            ratio(counters["plan_hits"], counters["plan_lookups"]), "ratio"
        ),
        "api.plan_cache_lookups": (counters["plan_lookups"], "count"),
        "api.plan_revalidations": (counters["plan_revalidations"], "count"),
        "core.plan_query_s": (own["core.plan_query"], "s"),
        "core.cold_plans": (tracer.calls["core.plan_query"], "count"),
        "join.overlap_s": (own["join.overlap"], "s"),
        "join.grouping_s": (own["join.grouping"], "s"),
        "join.hyper_cache_hit_ratio": (
            ratio(counters["hyper_hits"], counters["hyper_lookups"]), "ratio"
        ),
        "join.hyper_cache_lookups": (counters["hyper_lookups"], "count"),
        "join.hyper_upgrades": (counters["hyper_upgrades"], "count"),
        "join.pairwise_only_answers": (inputs.pairwise_only, "count"),
        "exec.compile_s": (own["exec.compile"], "s"),
        "exec.schedule_s": (own["exec.schedule"], "s"),
        "exec.schedule_reuse_ratio": (
            ratio(queries - tracer.calls["exec.compile"], queries), "ratio"
        ),
        "exec.execute_s": (own["exec.execute"], "s"),
        "exec.tasks": (counters["tasks"], "count"),
        "exec.blocks_read": (counters["blocks_read"], "count"),
        "exec.scan_task_s": (own["exec.scan_task"], "s"),
        "exec.shuffle_map_task_s": (own["exec.shuffle_map_task"], "s"),
        "exec.shuffle_reduce_task_s": (own["exec.shuffle_reduce_task"], "s"),
        "exec.hyper_group_task_s": (own["exec.hyper_group_task"], "s"),
        "storage.get_blocks_s": (own["storage.get_blocks"], "s"),
        "storage.move_blocks_s": (own["storage.move_blocks"], "s"),
        "storage.buffer_hit_ratio": (
            ratio(counters.get("buffer_hits", 0), buffer_reads), "ratio"
        ),
        "storage.buffer_faults": (counters.get("buffer_faults", 0), "count"),
        "storage.buffer_evictions": (counters.get("buffer_evictions", 0), "count"),
        "storage.fault_s": (own["storage.fault"], "s"),
        "storage.spills": (counters.get("spills", 0), "count"),
        "storage.spill_s": (own["storage.spill"], "s"),
        "storage.bytes_written_per_user_byte": (
            counters.get("spilled_bytes", 0) / inputs.user_bytes, "ratio"
        ),
        "storage.checkpoint_blocks_spilled": (
            counters.get("checkpoint_blocks_spilled", 0), "count"
        ),
        "other_s": (own["query"], "s"),
        "trace.layer_coverage": (ratio(tracer.covered(), wall), "ratio"),
    }


def median_metrics(samples: list[dict]) -> dict:
    """Per-name median over passes, keeping each metric's unit."""
    return {
        name: (statistics.median(sample[name][0] for sample in samples), unit)
        for name, (_, unit) in samples[0].items()
    }


def run_benchmark(workload: Any, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Measure ``workload``; returns the result object plus report lines."""
    from scenarios import make_inputs, run_pass
    from spans import Tracer

    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
    storage_parent = OUT / f"storage-{tag}-{os.getpid()}"
    counter = itertools.count()

    def one_pass(tracer: Any = None) -> Any:
        gc.collect()
        reset_peak_rss()
        root = storage_parent / f"pass-{next(counter)}"
        if tracer is None:
            outcome = run_pass(workload, inputs, seed, root)
        else:
            with tracer.installed():
                outcome = run_pass(workload, inputs, seed, root, tracer.query)
        outcome.peak_rss_mb = peak_rss_mb()
        return outcome

    inputs = make_inputs(workload, seed)
    untraced: list[Any] = []
    traced: list[tuple[Any, Any]] = []
    try:
        warmup = one_pass()
        started = time.perf_counter()
        while len(untraced) < MIN_PASSES or time.perf_counter() - started < seconds:
            untraced.append(one_pass())
            if trace:
                tracer = Tracer()
                traced.append((tracer, one_pass(tracer)))
    finally:
        shutil.rmtree(storage_parent, ignore_errors=True)

    checked = [warmup, *untraced, *(outcome for _, outcome in traced)]
    attempted = sum(outcome.attempted for outcome in checked)
    failures = [failure for outcome in checked for failure in outcome.failures]
    reference = warmup.fingerprints
    diverged = [index for index, outcome in enumerate(checked) if outcome.fingerprints != reference]
    multi_join = sum(len(q.joins) > 1 for q in inputs.stream)

    host = host_record()
    lines = [
        f"host: {json.dumps(host, sort_keys=True)}",
        f"failed_query_share = {len(failures) / attempted:.6g} "
        f"({len(failures)} of {attempted} queries raised or failed the oracle)",
        f"multi-way answers that are the final clause's pairwise count (not gated): "
        f"{inputs.pairwise_only} of {multi_join} multi-join queries per pass",
    ]
    lines += [f"FAILED {failure}" for failure in failures[:20]]
    if diverged:
        lines.append(f"FINGERPRINT DIVERGENCE in passes {diverged} (0 is the warm-up)")

    if trace:
        metrics = median_metrics(
            [layer_metrics(tracer, outcome, inputs) for tracer, outcome in traced]
        )
        metrics["trace_overhead"] = (
            statistics.median(o.wall_s for _, o in traced)
            / statistics.median(o.wall_s for o in untraced),
            "ratio",
        )
        last_tracer = traced[-1][0]
        (OUT / f"{tag}-spans.json").write_text(
            json.dumps({"traceEvents": last_tracer.chrome_events()})
        )
    else:
        metrics, notes = end_to_end(workload, inputs, untraced)
        lines += notes
    restart = restart_metrics(inputs, untraced)
    if trace:
        metrics.update(restart)
    elif workload.restart:
        lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in restart.items()]
    lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]

    reported = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    digest = hashlib.sha256(repr(reference).encode()).hexdigest()
    details = {
        "workload": dataclasses.asdict(workload),
        "seed": seed,
        "host": host,
        "fingerprint_sha256": digest,
        "passes": [
            {"setup_s": o.setup_s, "wall_s": o.wall_s, "queries": len(o.latencies),
             "checkpoint_s": o.checkpoint_s, "reopen_s": o.reopen_s}
            for o in untraced
        ],
        "failures": failures,
        "diverged_passes": diverged,
        "metrics": reported,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(details, indent=1, default=str))
    lines.append(f"decision fingerprint sha256 {digest}")
    return {
        "lines": lines,
        "result": {
            "correct": not failures and not diverged,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": reported,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE.parent / "src"))
    try:
        from scenarios import WORKLOADS
    except ImportError as error:
        print(f"perfbench: cannot import the repro package from src/: {error}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    outcome = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for line in outcome["lines"]:
        print(f"{args.workload}: {line}")
    print(json.dumps(outcome["result"]))
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
