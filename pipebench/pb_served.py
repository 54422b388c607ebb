"""Served workloads: ``python -m repro serve`` driven from this process.

Ingest goes through the repository's own ``LoadGenerator.run`` (a closed
loop over two connections, each round ending drained), reads and
checkpoints through ``TelemetryClient`` between rounds.  The server's
periodic checkpoint thread is set beyond the run, so every checkpoint
is fired here, at a round boundary.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from pb_common import (
    CONNECTIONS,
    NEVER_SECONDS,
    SETUPS,
    RunRecord,
    Workload,
    canonical,
    cpu_seconds,
    host_probe_ms,
    pin_program,
    vm_hwm_mb,
)
from pb_replay import Checker, final_reads, labelsets, read_key, read_request, round_generator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
_SERVING = re.compile(r"serving \d+ metric\(s\) on ([\d.]+):(\d+)")


def child_env() -> Dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=src if not path else f"{src}{os.pathsep}{path}")


class Server:
    """One server process, from spawn to a waited-for exit."""

    def __init__(self, workload: Workload, work: Path, spans: Optional[Path]) -> None:
        serve = [
            "serve", str(work / "specs.json"), "--port", "0",
            "--checkpoint", str(work / "checkpoint.json"),
            "--checkpoint-interval", str(NEVER_SECONDS),
        ]
        if workload.history:
            serve += ["--history", str(work / "history")]
        if spans is None:
            command = [sys.executable, "-m", "repro", *serve]
        else:
            command = [sys.executable, str(HERE / "pb_trace.py"), "--spans", str(spans), *serve]
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        pin_program(self.process.pid)
        self.output: List[str] = []
        for line in self.process.stdout:
            self.output.append(line)
            match = _SERVING.search(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return
        self.stop()
        raise RuntimeError("server exited before serving:\n" + "".join(self.output))

    @property
    def pid(self) -> int:
        return self.process.pid

    def client(self, protocol: str = "json"):
        from repro.service.client import TelemetryClient

        return TelemetryClient(self.host, self.port, protocol=protocol)

    def stop(self) -> None:
        """Ask for a clean shutdown (drain + final save) and wait; kill
        the process if it does not exit."""
        if self.process.poll() is None and hasattr(self, "port"):
            try:
                with self.client() as client:
                    client.shutdown()
            except OSError:
                pass
        try:
            rest, _ = self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            rest, _ = self.process.communicate()
        self.output.append(rest or "")


def warm_up(server: Server, workload: Workload) -> None:
    """Ping, then one call of each op the workload sends, on both wires.

    Calls that must fail on an empty server (a history range, a group-by
    or a series read before any data) still load their code paths.
    """
    from repro.service.client import ServerError

    labels = labelsets(workload)[0] if workload.labeled else None
    metric = workload.metric_names()[0]
    with server.client() as text, server.client("binary") as packed:
        text.ping()
        for client in (text, packed):
            client.observe(metric, [], labels=labels)
        calls = [
            text.flush, text.stats, text.snapshot, text.checkpoint,
            lambda: text.results(metric, labels=labels),
        ]
        if workload.history:
            calls.append(lambda: text.history(metric, start=0, end=1))
        if workload.labeled:
            calls.append(lambda: text.group_by(metric, ["dc"]))
        for call in calls:
            try:
                call()
            except ServerError:
                pass


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run_served(
    workload: Workload,
    seed: int,
    work: Path,
    record: RunRecord,
    spans: Optional[Path] = None,
    setups: int = SETUPS,
    verify: bool = True,
) -> None:
    """One served run: ``setups`` timed set-ups (the last server is the
    one measured), then the fixed rounds, each checked against the
    offline replay while the server idles."""
    import json

    from repro.service.client import ServerError

    server = None
    live = work / f"setup-{setups - 1}"
    for attempt in range(setups):
        run_dir = work / f"setup-{attempt}"
        run_dir.mkdir(parents=True)
        (run_dir / "specs.json").write_text(json.dumps(list(workload.specs)))
        started = time.perf_counter()
        server = Server(workload, run_dir, spans if attempt == setups - 1 else None)
        try:
            warm_up(server, workload)
        except BaseException:
            server.stop()
            raise
        record.setup_s.append(time.perf_counter() - started)
        if attempt < setups - 1:
            server.stop()

    names = workload.metric_names()
    calls_per_block = workload.series if workload.labeled else len(names)
    checker = Checker(workload, seed, record, work / "replay-history") if verify else None
    final: Dict[str, bytes] = {}

    def generator(r: int):
        return round_generator(
            workload, seed, r, server.host, server.port,
            connections=CONNECTIONS,
            metrics=names,
            series=workload.series,
            label_fanout=workload.fanout,
            protocol=workload.protocol,
        )

    def sent(r: int, summary: dict) -> None:
        record.attempted += summary["blocks"] * calls_per_block
        for _ in range(summary["shed_blocks"]):
            record.fail(f"round {r}: server shed a block")
        if not summary["drained"]:
            record.fail(f"round {r}: ingest did not drain")

    try:
        with server.client("binary" if workload.protocol == "binary" else "json") as client:
            if workload.prefill_events:
                sent(-1, generator(-1).run())
                if checker is not None:
                    checker.round(-1, {})
            record.rounds_start_ns = time.perf_counter_ns()
            for r in range(workload.rounds):
                cpu_before = cpu_seconds(server.pid)
                summary = generator(r).run()
                end_ns = time.perf_counter_ns()
                record.server_cpu_s += cpu_seconds(server.pid) - cpu_before
                record.ingest_s.append(summary["elapsed"])
                record.windows.append((end_ns - int(summary["elapsed"] * 1e9), end_ns))
                sent(r, summary)

                record.attempted += 1
                started = time.perf_counter()
                try:
                    client.checkpoint()
                except ServerError as exc:
                    record.fail(f"round {r} checkpoint: {exc}")
                else:
                    record.checkpoint_ms.append((time.perf_counter() - started) * 1e3)
                    record.checkpoint_bytes += (live / "checkpoint.json").stat().st_size

                served: Dict[str, List[bytes]] = {}
                for read in workload.reads_after(r):
                    answer = _timed_read(client, workload, read, r, record)
                    if answer is not None:
                        served.setdefault(read_key(workload, read, r), []).append(answer)
                record.probe_ms.extend(host_probe_ms() for _ in range(3))
                if checker is not None:
                    checker.round(r, served)

            for read in final_reads(workload):
                record.attempted += 1
                method, args, kwargs = read_request(workload, read, -1)
                final[read_key(workload, read, -1)] = canonical(getattr(client, method)(*args, **kwargs), read.op)
            stats = client.stats()
        record.peak_rss_mb = vm_hwm_mb(server.pid)
    except BaseException:
        if checker is not None:
            checker.replay.close()
        raise
    finally:
        server.stop()
    if checker is not None:
        checker.finish(final)

    pipeline = stats["pipeline"]
    fanout = 1 if workload.labeled else len(names)
    expected = workload.total_events() * fanout
    if pipeline["applied_events"] != expected:
        record.fail(f"server applied {pipeline['applied_events']} events, expected {expected}")
    record.applied_events = pipeline["applied_events"] - workload.prefill_events * fanout
    record.counters.update({
        "server.parked_blocks": pipeline["parked_blocks"],
        "server.duplicate_blocks": pipeline["duplicate_blocks"],
        "server.shed_blocks": stats["ingest"]["shed_blocks"],
    })
    for report in stats["metrics"].values():
        series = report.get("series")
        if series:
            for key in ("evictions", "resurrections", "created", "memory_estimate_bytes"):
                record.counters[f"series.{key}"] = record.counters.get(f"series.{key}", 0) + series[key]
    record.counters["store.bytes_written"] = _dir_bytes(live / "history") if workload.history else 0


def _timed_read(client, workload: Workload, read, r: int, record: RunRecord) -> Optional[bytes]:
    """One timed read; returns its answer as comparable bytes."""
    from repro.service.client import ServerError

    method, args, kwargs = read_request(workload, read, r)
    record.attempted += 1
    started = time.perf_counter()
    try:
        answer = getattr(client, method)(*args, **kwargs)
    except ServerError as exc:
        record.fail(f"round {r} {method}: {exc}")
        return None
    record.query_ms.append((time.perf_counter() - started) * 1e3)
    if method == "history":
        record.counters["store.segments_merged"] = (
            record.counters.get("store.segments_merged", 0) + answer["segments_merged"]
        )
    return canonical(answer, read.op)
