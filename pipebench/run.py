"""Fixed-work pipeline benchmark of the telemetry server (see README.md).

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the root of a checkout: a set-up timed several
times, then fixed rounds of seeded ingest with a checkpoint and reads
after each; every answer must match an untimed offline replay byte for
byte.  Prints every metric with its name and unit, and as the last
line one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (an untraced pass, then a traced pass of the same work).
Exits non-zero when any answer is wrong or the run cannot complete.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A run must end within 180 s; stop it before that.
DEADLINE_SECONDS = 170


def drive(workload, seed: int, work: Path, record, spans=None, setups=None, verify=True) -> None:
    from pb_common import SETUPS
    from pb_offline import run_offline
    from pb_served import run_served

    setups = SETUPS if setups is None else setups
    if workload.protocol is None:
        run_offline(workload, seed, work, record, spans=spans, setups=setups, verify=verify)
    else:
        run_served(workload, seed, work, record, spans=spans, setups=setups, verify=verify)


def end_to_end(record) -> Dict[str, float]:
    from pb_common import percentile

    return {
        "ingest_events_per_s": record.applied_events / sum(record.ingest_s),
        "query_ms_p50": percentile(record.query_ms, 50),
        "query_ms_p90": percentile(record.query_ms, 90),
        "checkpoint_ms_p50": statistics.median(record.checkpoint_ms),
        "setup_s": statistics.median(record.setup_s),
        "peak_rss_mb": record.peak_rss_mb,
        "value_error_pct": statistics.fmean(record.value_errors),
        "ok_op_ratio": (record.attempted - record.failed) / record.attempted,
    }


def per_layer(record, reference, analysis: dict, sums: Dict[str, float]) -> Dict[str, float]:
    from pb_common import percentile

    count, size, self_s = analysis["count"], analysis["size"], analysis["self_s"]
    durations = analysis["duration_ms"]

    def pct(name: str, q: float) -> float:
        # A layer the workload never enters reports 0; one it enters too
        # rarely for the percentile refuses it.
        return percentile(durations[name], q) if name in durations else 0.0

    calls = count.get("client.observe", 0)
    window = analysis["window_s"]
    layer = {
        "client.observe_calls": calls,
        "client.events_per_call": size.get("client.observe", 0) / calls if calls else 0.0,
        "client.observe_ms_p50": pct("client.observe", 50),
        "client.observe_ms_p99": pct("client.observe", 99),
        "client.bytes_sent": size.get("client.encode", 0),
        "wire.frames_in": count.get("wire.decode", 0),
        "wire.decode_s": self_s.get("wire.decode", 0.0),
        "wire.encode_s": self_s.get("wire.encode", 0.0),
        "server.put_blocked_s": self_s.get("server.put", 0.0),
        "server.consumer_busy_ratio": analysis["busy_s"] / window,
        "server.consumer_idle_s": analysis["idle_s"],
        "server.drain_wait_ms_p50": pct("server.drain_wait", 50),
        "monitor.observe_batch_calls": count.get("monitor.observe_batch", 0),
        "monitor.observe_batch_s": self_s.get("monitor.observe_batch", 0.0),
        "monitor.periods_sealed": count.get("monitor.seal", 0),
        "monitor.save_s": self_s.get("monitor.save", 0.0),
        "monitor.snapshot_s": self_s.get("monitor.snapshot", 0.0),
        "monitor.results_s": self_s.get("monitor.results", 0.0),
        "core.extend_s": self_s.get("core.extend", 0.0),
        "core.seal_s": self_s.get("core.seal", 0.0),
        "core.distinct_ratio": (
            sums.get("core.extend_distinct", 0) / sums["core.extend_values"]
            if sums.get("core.extend_values") else 0.0
        ),
        "core.query_s": self_s.get("core.query", 0.0),
        "sketches.exact_accumulate_s": self_s.get("sketches.exact_accumulate", 0.0),
        "sketches.exact_query_s": self_s.get("sketches.exact_query", 0.0),
        "sketches.to_state_s": self_s.get("sketches.to_state", 0.0),
        "sketches.from_state_s": self_s.get("sketches.from_state", 0.0),
        "series.observe_batch_s": self_s.get("series.observe_batch", 0.0),
        "series.group_by_s": self_s.get("series.group_by", 0.0),
        "store.append_calls": count.get("store.append", 0),
        "store.append_s": self_s.get("store.append", 0.0),
        "store.query_s": self_s.get("store.query", 0.0),
        "serde.checkpoint_bytes": record.checkpoint_bytes,
        "host.probe_ms": statistics.median(record.probe_ms),
        "trace.overhead_ratio": sum(record.ingest_s) / sum(reference.ingest_s),
        "trace.reconcile_gap_pct": (window - analysis["busy_s"] - analysis["idle_s"]) / window * 100.0,
        "trace.spans": analysis["spans"],
    }
    for name in (
        "server.parked_blocks", "server.duplicate_blocks", "server.shed_blocks",
        "series.evictions", "series.resurrections", "series.created",
        "series.memory_estimate_bytes", "store.segments_merged", "store.bytes_written",
    ):
        layer[name] = record.counters.get(name, 0)
    return layer


def measure(workload, seed: int, trace: bool, work: Path):
    """Run the workload; return ``(record, metrics, notes)``."""
    from pb_common import RunRecord

    if not trace:
        record = RunRecord()
        drive(workload, seed, work / "run", record)
        notes = []
        if workload.protocol is not None:
            share = record.server_cpu_s / sum(record.ingest_s)
            notes.append(f"server CPU during ingest: {share:.2f} of one core")
        return record, end_to_end(record), notes

    from pb_trace import Tracer, analyse, install_client, load

    reference = RunRecord()
    drive(workload, seed, work / "reference", reference, setups=1, verify=False)
    record = RunRecord()
    tracer = Tracer()
    if workload.protocol is not None:
        install_client(tracer)
    spans_path = work / "spans.json"
    try:
        drive(workload, seed, work / "traced", record, spans=spans_path, setups=1)
    finally:
        tracer.restore()
    program_spans, sums = load(str(spans_path))
    analysis = analyse([program_spans, tracer.spans()], record.windows, record.rounds_start_ns)
    metrics = per_layer(record, reference, analysis, sums)
    record.attempted += reference.attempted
    record.failed += reference.failed
    record.problems.extend(reference.problems)
    idle_share = analysis["idle_s"] / analysis["window_s"]
    notes = [
        f"consumer idle {idle_share:.0%} of the ingest window"
        + (" -- generator-bound run" if idle_share > 0.25 else ""),
        f"tracing overhead {metrics['trace.overhead_ratio']:.3f}x ingest time, "
        f"reconciliation gap {metrics['trace.reconcile_gap_pct']:.2f}%",
    ]
    return record, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from pb_common import END_TO_END, PER_LAYER, WORKLOADS, environment, pin_generator, sized

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = sized(WORKLOADS[args.workload], args.seconds)

    def expire(signum, frame):
        raise TimeoutError(f"run exceeded {DEADLINE_SECONDS} s")

    def terminate(signum, frame):
        raise SystemExit(128 + signum)

    pin_generator()
    # Both unwind through the finally blocks that stop every child process.
    signal.signal(signal.SIGALRM, expire)
    signal.signal(signal.SIGTERM, terminate)
    signal.alarm(DEADLINE_SECONDS)
    work = ROOT / ".pipebench_work" / f"{workload.name}-{os.getpid()}"
    try:
        record, metrics, notes = measure(workload, args.seed, bool(args.trace), work)
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    schema = PER_LAYER if args.trace else END_TO_END
    print(f"env: {json.dumps(environment(ROOT))}")
    print(
        f"workload {workload.name} seed {args.seed}: {workload.rounds} rounds x "
        f"{workload.round_events:,} events, block {workload.block_size:,}, "
        f"{len(record.query_ms)} reads, {len(record.checkpoint_ms)} checkpoints"
    )
    for note in notes:
        print(note)
    for problem in record.problems:
        print(f"FAILED: {problem}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {schema[name][0]}")
    correct = record.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {name: {"value": metrics[name], "unit": schema[name][0]} for name in schema},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
