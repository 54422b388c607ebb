"""The offline-replay workload: the served netmon rounds, in one process.

The parent spawns this file as a child process.  The child builds a
:class:`~repro.service.Monitor`, warms up each call it will make,
prints ``ready`` and waits for ``go`` on stdin (end of input ends a
set-up-only child).  It then runs the fixed rounds: ingest, a
``Monitor.save`` and the reads.  After each round it prints one JSON
line of what it measured and answered and waits for the next ``go``,
so the parent replays that round while the child idles.  No wire and
no store are involved::

    python pipebench/pb_offline.py CONFIG.json [--spans SPANS.json]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent


def workload_to_json(workload) -> dict:
    return asdict(workload)


def workload_from_json(data: dict):
    from pb_common import Read, Workload

    reads = tuple(
        Read(read["op"], read["metric"], tuple(read["arg"]) if isinstance(read["arg"], list) else read["arg"])
        for read in data["reads"]
    )
    return Workload(**dict(data, specs=tuple(data["specs"]), reads=reads))


def child(config_path: str, spans_path: Optional[str]) -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import numpy as np

    from pb_common import READ_BURST, canonical, host_probe_ms, vm_hwm_mb
    from pb_replay import final_reads, read_key, read_request, round_values
    from repro.service import MetricSpec, Monitor

    tracer = None
    if spans_path is not None:
        from pb_trace import Tracer, install_server

        tracer = Tracer()
        install_server(tracer)
    config = json.loads(Path(config_path).read_text())
    workload = workload_from_json(config["workload"])
    seed, checkpoint = config["seed"], config["checkpoint"]
    names = workload.metric_names()
    monitor = Monitor()
    for spec in workload.specs:
        monitor.register(MetricSpec.from_dict(spec))
    for name in names:
        monitor.observe_batch(name, np.empty(0))
        monitor.results(name)
    monitor.snapshot()
    monitor.save(checkpoint)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    for r in range(workload.rounds):
        values = round_values(workload, seed, r)
        start = time.perf_counter_ns()
        for offset in range(0, len(values), workload.block_size):
            block = values[offset : offset + workload.block_size]
            for name in names:
                monitor.observe_batch(name, block)
        end = time.perf_counter_ns()
        out = {"window": [start, end], "observe_calls": -(-len(values) // workload.block_size) * len(names)}

        started = time.perf_counter()
        monitor.save(checkpoint)
        out["checkpoint_ms"] = (time.perf_counter() - started) * 1e3
        out["checkpoint_bytes"] = os.path.getsize(checkpoint)

        out["query_ms"], out["answers"] = [], []
        for read in workload.reads_after(r):
            method, args, kwargs = read_request(workload, read, r)
            call = getattr(monitor, method)
            started = time.perf_counter()
            for _ in range(READ_BURST):
                answer = call(*args, **kwargs)
            out["query_ms"].append((time.perf_counter() - started) * 1e3 / READ_BURST)
            out["answers"].append([read_key(workload, read, r), canonical(answer, read.op).decode()])
        out["probe_ms"] = [host_probe_ms() for _ in range(3)]
        # The parent replays this round while the child waits.
        print(json.dumps(out), flush=True)
        if sys.stdin.readline().strip() != "go":
            return 1

    final = {}
    for read in final_reads(workload):
        method, args, kwargs = read_request(workload, read, -1)
        final[read_key(workload, read, -1)] = canonical(getattr(monitor, method)(*args, **kwargs), read.op).decode()
    print(json.dumps({
        "final": final,
        "applied_events": sum(monitor.seen_counts().values()),
        "peak_rss_mb": vm_hwm_mb(os.getpid()),
    }), flush=True)
    if tracer is not None:
        tracer.dump(spans_path)
    return 0


def run_offline(workload, seed: int, work: Path, record, spans: Optional[Path] = None,
                setups: Optional[int] = None, verify: bool = True) -> None:
    """Spawn the child ``setups`` times (the last one runs the rounds),
    then check its answers against the replay."""
    from pb_common import SETUPS, pin_program
    from pb_served import child_env

    setups = SETUPS if setups is None else setups
    work.mkdir(parents=True, exist_ok=True)
    config = work / "config.json"
    config.write_text(json.dumps({
        "workload": workload_to_json(workload), "seed": seed,
        "checkpoint": str(work / "checkpoint.json"),
    }))
    for attempt in range(setups):
        last = attempt == setups - 1
        command = [sys.executable, str(HERE / "pb_offline.py"), str(config)]
        if last and spans is not None:
            command += ["--spans", str(spans)]
        started = time.perf_counter()
        process = subprocess.Popen(
            command, cwd=HERE.parent, env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        pin_program(process.pid)
        try:
            line = process.stdout.readline().strip()
            if line != "ready":
                raise RuntimeError(f"offline child failed to start (said {line!r})")
            record.setup_s.append(time.perf_counter() - started)
            if last:
                _drive_child(process, workload, seed, record, verify)
            process.stdin.close()
            process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        if process.returncode != 0:
            raise RuntimeError(f"offline child exited with {process.returncode}")


def _drive_child(process, workload, seed: int, record, verify: bool) -> None:
    """Start the child's rounds; replay each round while it waits."""
    from pb_replay import Checker

    names = workload.metric_names()
    checker = Checker(workload, seed, record, None) if verify else None
    try:
        process.stdin.write("go\n")
        process.stdin.flush()
        for r in range(workload.rounds):
            data = json.loads(process.stdout.readline())
            start, end = data["window"]
            if r == 0:
                record.rounds_start_ns = start
            record.ingest_s.append((end - start) / 1e9)
            record.windows.append((start, end))
            record.checkpoint_ms.append(data["checkpoint_ms"])
            record.checkpoint_bytes += data["checkpoint_bytes"]
            record.query_ms.extend(data["query_ms"])
            record.probe_ms.extend(data["probe_ms"])
            record.attempted += data["observe_calls"] + 1 + len(data["query_ms"])
            served = {}
            for key, answer in data["answers"]:
                served.setdefault(key, []).append(answer.encode())
            if checker is not None:
                checker.round(r, served)
            process.stdin.write("go\n")
            process.stdin.flush()
        data = json.loads(process.stdout.readline())
    except BaseException:
        if checker is not None:
            checker.replay.close()
        raise
    record.attempted += len(data["final"])
    record.peak_rss_mb = data["peak_rss_mb"]
    record.applied_events = data["applied_events"]
    expected = workload.total_events() * len(names)
    if record.applied_events != expected:
        record.fail(f"monitor applied {record.applied_events} events, expected {expected}")
    if checker is not None:
        checker.finish({key: answer.encode() for key, answer in data["final"].items()})


if __name__ == "__main__":
    arguments = sys.argv[1:]
    spans_arg = None
    if "--spans" in arguments:
        at = arguments.index("--spans")
        spans_arg = arguments[at + 1]
        del arguments[at : at + 2]
    sys.exit(child(arguments[0], spans_arg))
