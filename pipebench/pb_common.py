"""Workloads, metric schema and shared helpers of the pipeline benchmark.

Every workload is *fixed work*: a fixed number of equal rounds of
seeded events, with checkpoints and reads at fixed round boundaries.
Sealed periods, store appends and checkpoint bytes therefore repeat
exactly from run to run, and wall time is the only thing that varies.
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: ``--seconds`` value the round counts below are sized for: one run on a
#: 2-vCPU Xeon host measures for about this long.
NOMINAL_SECONDS = 30

#: Server and offline-child set-ups per run; ``setup_s`` is their median.
SETUPS = 5

#: In-process reads (offline-replay) are timed as bursts of this many
#: identical calls; one read's latency is the burst's mean.
READ_BURST = 100

QUANTILES = [0.5, 0.9, 0.99, 0.999]

#: Every workload's events: the registry's network-monitoring latencies.
DATASET = "netmon"

#: Sender connections of the served workloads' closed loop.
CONNECTIONS = 2

#: A checkpoint thread interval far beyond any run: every checkpoint is
#: fired by the generator at a round boundary.
NEVER_SECONDS = 86_400.0


@dataclass(frozen=True)
class Read:
    """One read of a workload's fixed mix.

    ``op`` is a read method of the client (or, in-process, of the
    monitor): ``snapshot``, ``results``, ``history``, ``group_by``,
    ``seen_counts`` or ``space_report``.  ``arg`` is the series index for a labeled
    ``results`` read, the width in periods of a ``history`` range, and
    the label names of a ``group_by``.  The read is sent after every
    round from ``from_round`` on.
    """

    op: str
    metric: Optional[str] = None
    arg: object = None
    from_round: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    specs: Tuple[dict, ...]
    round_events: int
    rounds: int
    block_size: int
    #: Wire protocol of the sender connections; ``None`` runs the
    #: monitor in-process (no wire, no server).
    protocol: Optional[str]
    history: bool = False
    series: int = 1
    fanout: int = 1
    reads: Tuple[Read, ...] = ()
    #: Untimed events a served workload sends before the first round (as
    #: round ``-1``, in blocks of ``prefill_block_size``), so that every
    #: round, and every read after it, sees the same steady state.
    prefill_events: int = 0
    prefill_block_size: int = 1

    def __post_init__(self) -> None:
        if self.labeled and (self.round_events % self.series or self.prefill_events % self.series):
            # Each round is its own generator run, so event i of a round
            # lands on series i % series; whole multiples keep that equal
            # to the global assignment.
            raise ValueError(
                f"{self.name}: round_events and prefill_events must be multiples of series"
            )

    @property
    def labeled(self) -> bool:
        return any(spec.get("labels") for spec in self.specs)

    def metric_names(self) -> List[str]:
        return [spec["name"] for spec in self.specs]

    def reads_after(self, round_index: int) -> Tuple[Read, ...]:
        return tuple(read for read in self.reads if round_index >= read.from_round)

    def total_events(self) -> int:
        return self.prefill_events + self.round_events * self.rounds

    def events_before(self, round_index: int) -> int:
        """Events sent before round ``round_index`` (``-1``: the prefill)."""
        if round_index < 0:
            return 0
        return self.prefill_events + round_index * self.round_events


def sized(workload: Workload, seconds: float) -> Workload:
    """Scale the number of rounds to ``seconds`` of measurement.

    Work is a pure function of ``(workload, seconds)`` and never of
    measured speed, so every run of one command does identical work.
    Every read keeps at least one round to run after.
    """
    least = 1 + max((read.from_round for read in workload.reads), default=0)
    rounds = max(least, round(workload.rounds * seconds / NOMINAL_SECONDS))
    return replace(workload, rounds=rounds)


def round_seed(seed: int, round_index: int) -> int:
    """Dataset seed of one round: rounds are independent seeded streams."""
    return seed * 1_000 + round_index


def _netmon_spec(name: str, period: int, policy: str = "qlove") -> dict:
    return {
        "name": name,
        "quantiles": QUANTILES,
        "window": {"size": 10 * period, "period": period},
        "policy": policy,
    }


# Read mixes.  On a shared 2-vCPU Xeon host, CPU speed moves between two
# levels about 1.7x apart, in phases of seconds; interference only ever
# adds time.  A
# percentile sitting well inside one op type's latencies therefore jumps
# between the two levels from run to run.  Each mix has three op types
# whose costs differ several-fold, in proportions that put p50 and p90
# each a few reads into one type, just above the cheaper type below it:
# there they read that op's fast level whenever a run has any fast
# phases, and the several-fold gap between the types keeps them off the
# boundary (labeled-thrash's p90 is the one exception; see there).  The
# cheapest reads go first after a round: the first read after a
# checkpoint runs on cold caches, and that slower read then sits at the
# top of the cheapest type, far from p50 and p90.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="netmon-binary-durable",
            why=(
                "bulk binary frames: wire decode, reorder, fused Level-1 kernel, "
                "seal, Level-2, store appends and saves; the series layer idles"
            ),
            specs=(_netmon_spec("lat_10k", 10_000), _netmon_spec("lat_100k", 100_000)),
            # Many short rounds: each round gap samples the host's speed
            # anew, so per-run medians average over more phases, and the
            # checkpoint median (whose cost grows with the results kept)
            # rests on 72 samples.
            round_events=250_000,
            rounds=72,
            block_size=4_096,
            protocol="binary",
            history=True,
            # Cheapest: 12 snapshots and the results list, whose cost grows
            # from a fraction of a millisecond to a few; middle: 12
            # 10-period history merges (p50); dearest: 3 50-period ones
            # (p90), from the second round on.  A round is 25 periods, so
            # every read of a type merges the same number of segments.
            reads=(Read("snapshot"),) * 12
            + (Read("results", "lat_100k"),)
            + (Read("history", "lat_10k", 10),) * 12
            + (Read("history", "lat_10k", 50, from_round=1),) * 3,
        ),
        Workload(
            name="labeled-thrash",
            why=(
                "2,000 series under a 1,000-series cap, ~8 events per call on "
                "both wires: per-call overhead and evict/resurrect serde dominate"
            ),
            specs=(
                {
                    "name": "lat",
                    "quantiles": [0.5, 0.9, 0.99],
                    # 100 events per series period keeps QLOVE's error small.
                    "window": {"size": 100, "period": 100},
                    "labels": ["dc", "host"],
                    "series": {"max_active": 1_000},
                },
            ),
            # Two blocks of ~8 events per series per round, one on each
            # connection.
            round_events=32_000,
            rounds=10,
            block_size=16_384,
            protocol="mixed",
            series=2_000,
            fanout=20,
            # 112 events per series, in two large blocks, before the first
            # round: every series has sealed a period and half of them are
            # evicted, so every round thrashes alike and every read is
            # valid from the first round on (a group-by before a sealed
            # period is an error).
            prefill_events=224_000,
            prefill_block_size=112_000,
            # Cheapest: 12 one-series results, resident or evicted; middle:
            # 12 snapshots of the latest evaluation of every series (p50 the
            # 5th of 120, p90 the 105th); dearest: one group-by merge over
            # all 2,000 series, above p90.  A group-by's cost follows the
            # series' in-flight periods, which refill over ~6 rounds, so
            # any one level of it is reached in only a round or two and a
            # percentile placed among group-bys follows the host's speed
            # in those few seconds; a snapshot's cost does not.
            reads=tuple(Read("results", "lat", 163 * k) for k in range(12))
            + (Read("snapshot"),) * 12
            + (Read("group_by", "lat", ("dc",)),),
        ),
        Workload(
            name="offline-replay",
            why=(
                "the served netmon rounds into an in-process Monitor with QLOVE "
                "and exact: the single-process baseline; wire changes show nothing"
            ),
            specs=(
                _netmon_spec("lat_10k", 10_000),
                _netmon_spec("lat_exact", 10_000, policy="exact"),
            ),
            round_events=250_000,
            rounds=48,
            block_size=4_096,
            protocol=None,
            # In-process reads take microseconds, so each is timed as a
            # burst of READ_BURST calls.  Cheapest: 12 seen counts; middle:
            # 12 snapshots (p50); dearest: 3 space reports (p90).
            reads=(Read("seen_counts"),) * 12
            + (Read("snapshot"),) * 12
            + (Read("space_report"),) * 3,
        ),
    )
}


# ----------------------------------------------------------------------
# Metric schema
# ----------------------------------------------------------------------
#: End-to-end metrics (``--trace 0``): name -> (unit, better).
END_TO_END = {
    "ingest_events_per_s": ("ev/s", "higher"),
    "query_ms_p50": ("ms", "lower"),
    "query_ms_p90": ("ms", "lower"),
    "checkpoint_ms_p50": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "value_error_pct": ("%", "lower"),
    "ok_op_ratio": ("ratio", "higher"),
}

#: Per-layer metrics (``--trace 1``): name -> (unit, better, what it
#: should move).  The third field is the per-layer -> end-to-end map.
PER_LAYER = {
    "client.observe_calls": ("count", "lower", "ingest_events_per_s on labeled-thrash"),
    "client.events_per_call": ("ev", "higher", "ingest_events_per_s on labeled-thrash"),
    "client.observe_ms_p50": ("ms", "lower", "ingest_events_per_s on labeled-thrash"),
    "client.observe_ms_p99": ("ms", "lower", "ingest_events_per_s on labeled-thrash"),
    "client.bytes_sent": ("B", "lower", "ingest_events_per_s on labeled-thrash (JSON half)"),
    "wire.frames_in": ("count", "lower", "ingest_events_per_s on labeled-thrash"),
    "wire.decode_s": ("s", "lower", "ingest_events_per_s on labeled-thrash"),
    "wire.encode_s": ("s", "lower", "ingest_events_per_s on labeled-thrash"),
    "server.put_blocked_s": ("s", "lower", "ingest_events_per_s on both served workloads"),
    "server.consumer_busy_ratio": ("ratio", "higher", "ingest_events_per_s on both served workloads"),
    "server.consumer_idle_s": ("s", "lower", "ingest_events_per_s on both served workloads"),
    "server.drain_wait_ms_p50": ("ms", "lower", "query_ms_p50"),
    "server.parked_blocks": ("count", "lower", "ok_op_ratio"),
    "server.duplicate_blocks": ("count", "lower", "ok_op_ratio"),
    "server.shed_blocks": ("count", "lower", "ok_op_ratio"),
    "monitor.observe_batch_calls": ("count", "lower", "ingest_events_per_s on netmon and offline"),
    "monitor.observe_batch_s": ("s", "lower", "ingest_events_per_s on netmon and offline"),
    "monitor.periods_sealed": ("count", "higher", "ingest_events_per_s on netmon and offline"),
    "monitor.save_s": ("s", "lower", "checkpoint_ms_p50"),
    "monitor.snapshot_s": ("s", "lower", "query_ms_p50"),
    "monitor.results_s": ("s", "lower", "query_ms_p50"),
    "core.extend_s": ("s", "lower", "ingest_events_per_s on netmon"),
    "core.seal_s": ("s", "lower", "ingest_events_per_s on netmon"),
    "core.distinct_ratio": ("ratio", "lower", "ingest_events_per_s on netmon (fused kernel)"),
    "core.query_s": ("s", "lower", "query_ms_p50"),
    "sketches.exact_accumulate_s": ("s", "lower", "ingest_events_per_s on offline-replay"),
    "sketches.exact_query_s": ("s", "lower", "ingest_events_per_s on offline-replay"),
    "sketches.to_state_s": ("s", "lower", "labeled ingest and checkpoint_ms_p50"),
    "sketches.from_state_s": ("s", "lower", "labeled ingest and checkpoint_ms_p50"),
    "series.observe_batch_s": ("s", "lower", "ingest_events_per_s on labeled-thrash"),
    "series.evictions": ("count", "lower", "ingest_events_per_s on labeled-thrash"),
    "series.resurrections": ("count", "lower", "ingest_events_per_s on labeled-thrash"),
    "series.created": ("count", "lower", "ingest_events_per_s on labeled-thrash"),
    "series.memory_estimate_bytes": ("B", "lower", "peak_rss_mb"),
    "series.group_by_s": ("s", "lower", "the slowest tenth of reads on labeled-thrash (above query_ms_p90)"),
    "store.append_calls": ("count", "lower", "ingest_events_per_s on netmon"),
    "store.append_s": ("s", "lower", "ingest_events_per_s on netmon"),
    "store.query_s": ("s", "lower", "query_ms_p90 on netmon"),
    "store.segments_merged": ("count", "lower", "query_ms_p90 on netmon"),
    "store.bytes_written": ("B", "lower", "query and ingest on netmon"),
    "serde.checkpoint_bytes": ("B", "lower", "checkpoint_ms_p50 on all three"),
    "host.probe_ms": ("ms", "lower", "none: host speed while the server idles"),
    "trace.overhead_ratio": ("ratio", "lower", "none: traced / untraced ingest time"),
    "trace.reconcile_gap_pct": ("%", "lower", "none: ingest window not covered by spans"),
    "trace.spans": ("count", "lower", "none: spans recorded"),
}


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100, nearest rank) of ``samples``.

    A tail percentile (``q > 50``) is refused (``ValueError``) when fewer
    than ``MIN_TAIL_SAMPLES`` samples lie beyond it: such a tail is one
    or two slow calls, not a measure.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("percentile of no samples")
    beyond = n * (100.0 - q) / 100.0
    if q > 50 and beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond:.1f} beyond it; needs "
            f">= {MIN_TAIL_SAMPLES} (send more operations per run)"
        )
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    return float(ordered[rank - 1])


def exact_quantiles(values: np.ndarray, phis: Sequence[float]) -> List[float]:
    """Exact quantiles at rank ``ceil(phi * n)``, the paper's definition."""
    n = len(values)
    ranks = [max(1, math.ceil(round(phi * n, 9))) - 1 for phi in phis]
    ordered = np.partition(np.asarray(values, dtype=np.float64), ranks)
    return [float(ordered[rank]) for rank in ranks]


def value_error_pct(estimates: Dict[float, float], values: np.ndarray) -> List[float]:
    """Relative value errors (%) of one answer against its exact window."""
    phis = sorted(estimates)
    exact = exact_quantiles(values, phis)
    return [
        abs(estimates[phi] - truth) / abs(truth) * 100.0
        for phi, truth in zip(phis, exact)
        if truth != 0.0
    ]


# ----------------------------------------------------------------------
# Answers, compared byte for byte
# ----------------------------------------------------------------------
def _plain(value):
    if hasattr(value, "window_count"):  # WindowResult
        return {
            "index": value.index,
            "window_count": value.window_count,
            "end": value.end,
            "result": _plain(value.result),
        }
    if isinstance(value, dict):
        return {repr(k) if isinstance(k, float) else str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def canonical(answer, op: str) -> bytes:
    """One read's answer as comparable bytes.

    Group-by answers drop the ``evicted`` residency counts: which series
    are resident depends on how the sender connections interleave.
    """
    plain = _plain(answer)
    if op == "group_by":
        plain = dict(plain, groups=[
            {k: v for k, v in group.items() if k != "evicted"} for group in plain["groups"]
        ])
    return json.dumps(plain, sort_keys=True, separators=(",", ":")).encode()


# ----------------------------------------------------------------------
# Host
# ----------------------------------------------------------------------
_PROBE_ARRAY = np.random.default_rng(0).random(100_000)


def host_probe_ms() -> float:
    """Time a fixed pure-Python loop plus a numpy sort (ms)."""
    started = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    np.sort(_PROBE_ARRAY)
    return (time.perf_counter() - started) * 1e3


_CPUS = sorted(os.sched_getaffinity(0))


def pin_program(pid: int) -> None:
    """Pin a just-spawned process under test to the first CPU.

    Pinned before it starts any thread, so all its threads stay there;
    the generator keeps to the second CPU (:func:`pin_generator`), and
    the two never compete for a core or migrate.
    """
    if len(_CPUS) >= 2:
        os.sched_setaffinity(pid, {_CPUS[0]})


def pin_generator() -> None:
    """Pin this (generator) process to the second CPU."""
    if len(_CPUS) >= 2:
        os.sched_setaffinity(0, {_CPUS[1]})


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of a live process (s)."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def environment(root: Path) -> Dict[str, object]:
    """python, numpy, nproc, CPU model, git commit and dirty flag."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit, dirty = None, None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": commit,
        "git_dirty": dirty,
    }


@dataclass
class RunRecord:
    """What one workload run measured, before it becomes metrics."""

    setup_s: List[float] = field(default_factory=list)
    ingest_s: List[float] = field(default_factory=list)
    #: ``(start_ns, end_ns)`` of every ingest round, on the monotonic clock.
    windows: List[Tuple[int, int]] = field(default_factory=list)
    #: When the first round began (after set-up and any prefill).
    rounds_start_ns: int = 0
    applied_events: int = 0
    query_ms: List[float] = field(default_factory=list)
    checkpoint_ms: List[float] = field(default_factory=list)
    checkpoint_bytes: int = 0
    probe_ms: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    value_errors: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Counters read from the program (``stats`` op, store, answers).
    counters: Dict[str, float] = field(default_factory=dict)
    server_cpu_s: float = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)
