"""Command-line entry point: experiments, the monitoring facade, serving.

Usage::

    python -m repro table1 --scale 0.25
    python -m repro figure5 --seed 7
    python -m repro all --scale 0.125
    python -m repro monitor specs.json --dataset netmon --events 200000
    python -m repro serve specs.json --port 7733 --checkpoint ckpt.json
    python -m repro loadgen --port 7733 --events 200000 --connections 4
    python -m repro query history/ --metric rtt --range 40:80
    qlove-bench table4            # console-script alias ('repro' also works)

``--scale`` multiplies the paper's window/period sizes (1.0 = paper
size); smaller scales run proportionally faster with the same shapes.

The ``monitor`` subcommand loads a JSON metric-spec file (a list of
:class:`~repro.service.spec.MetricSpec` dicts, or ``{"metrics": [...]}``),
streams a named workload through the :class:`~repro.service.monitor.Monitor`
facade, and prints one quantile report line per evaluated period.

``serve`` exposes the same monitor over TCP (newline-delimited JSON, see
``docs/serving.md``) with bounded-queue backpressure and periodic
checkpoints; ``loadgen`` drives such a server with a deterministic,
seeded, multi-connection workload and can print the served final
snapshot in exactly the ``monitor`` subcommand's format, so the two are
directly diffable.

``monitor`` and ``serve`` both take ``--history DIR`` to persist every
period's per-metric sketch state into a durable segment store
(``docs/history.md``); ``query`` answers point-in-time, range and
group-over-time quantile questions against such a store — or against a
live server's ``history`` op via ``--server HOST:PORT``, with
byte-identical output.

A missing or malformed spec/checkpoint file exits with status 2 and a
one-line actionable ``error:`` message — never a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro.evalkit.experiments import available_experiments, get_experiment


def _fail(exc: object) -> SystemExit:
    """A one-line actionable CLI failure (exit status 2, no traceback)."""
    message = " ".join(str(exc).split())
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


def _load_specs_or_fail(path: str):
    """Load a metric-spec file; exit 2 with one line on any spec problem."""
    from repro.service import load_specs

    try:
        return load_specs(path)
    except (FileNotFoundError, ValueError) as exc:
        raise _fail(exc) from None


def _prepare_write_path(path: str, flag: str) -> None:
    """Make a write path usable: create missing parent directories.

    A ``--checkpoint runs/today/ckpt.json`` whose ``runs/today`` does not
    exist yet used to surface only at save time as a raw
    ``FileNotFoundError``; create the parents up front and turn any
    filesystem refusal (parent is a file, permissions) into the standard
    exit-2 actionable error.
    """
    parent = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(parent, exist_ok=True)
    except (NotADirectoryError, FileExistsError):
        raise _fail(
            f"{flag} {path!r}: parent {parent!r} exists but is not a "
            "directory; pass a path whose directory components are "
            "directories"
        ) from None
    except OSError as exc:
        raise _fail(
            f"{flag} {path!r}: cannot create parent directory {parent!r} "
            f"({exc}); pass a writable location"
        ) from None


def _prepare_history_dir(directory: str) -> None:
    """Create a ``--history DIR`` (parents included) up front.

    Mirrors :func:`_prepare_write_path` for ``--checkpoint``: a missing
    grandparent or a file squatting on a path component fails here, as
    one actionable exit-2 line, instead of surfacing mid-stream from the
    store's first append.
    """
    try:
        os.makedirs(directory, exist_ok=True)
    except (NotADirectoryError, FileExistsError):
        raise _fail(
            f"--history {directory!r}: a path component exists but is not "
            "a directory; pass a path whose components are directories"
        ) from None
    except OSError as exc:
        raise _fail(
            f"--history {directory!r}: cannot create the store directory "
            f"({exc}); pass a writable location"
        ) from None


def _open_history_or_fail(directory: str, monitor) -> "object":
    """Open a segment store at ``directory`` and attach it to ``monitor``."""
    from repro.store import HistoryWriter, StoreError

    try:
        writer = HistoryWriter(directory)
        writer.attach(monitor)
    except (StoreError, ValueError, OSError) as exc:
        raise _fail(f"--history {directory!r}: {exc}") from None
    return writer


def _load_monitor_or_fail(path: str, specs):
    """Restore a monitor checkpoint and verify it matches the spec file."""
    from repro import serde
    from repro.service import Monitor

    try:
        monitor = Monitor.load(path)
    except (FileNotFoundError, serde.StateError) as exc:
        raise _fail(exc) from None
    # Compare canonical serialised forms: flat QLOVE params and their
    # resolved config serialise identically, so equivalent specs match
    # however they were written.
    loaded = {spec.name: spec.to_dict() for spec in monitor.specs()}
    wanted = {spec.name: spec.to_dict() for spec in specs}
    if loaded != wanted:
        raise _fail(
            f"checkpoint {path}: checkpointed metrics {sorted(loaded)} do "
            f"not match the spec file's {sorted(wanted)} (or their "
            "configurations differ); pass the same spec file the checkpoint "
            "was created with (spec/state mismatch)"
        )
    return monitor


def _throughput_line(events: int, elapsed: float) -> str:
    """The closing ``[rate ev/s across metrics, T s]`` line: the unit
    adapts (``14,210 ev/s``, ``3.4 M ev/s``) so slow labeled runs do
    not print ``0.0 M ev/s``.  CI strips the bracket with
    ``sed 's/\\[.*s\\]//'`` — keep the form."""
    rate = events / elapsed if elapsed > 0 else float("inf")
    text = f"{rate / 1e6:.1f} M" if rate >= 1e6 else f"{rate:,.0f}"
    return f"\n[{text} ev/s across metrics, {elapsed:.1f}s]"


def _print_final_snapshot(snapshot, reports) -> None:
    """Render the final-snapshot block.

    Both ``monitor`` (offline) and ``loadgen --snapshot`` (served) print
    through this one function — CI byte-diffs their outputs, so a
    formatting tweak must land in both or the equivalence gate would
    fail on a spurious diff.  Labeled metrics arrive nested
    (``{series_key: {phi: estimate} | None}``) and render one indented
    line per series, in canonical key order.
    """

    def line(estimates) -> str:
        if estimates is None:
            return "(no full window yet)"
        return "  ".join(
            f"Q{phi:g}={estimate:,.1f}" for phi, estimate in estimates.items()
        )

    print("\nfinal snapshot:")
    for name, estimates in snapshot.items():
        labeled = isinstance(estimates, dict) and (
            not estimates or isinstance(next(iter(estimates)), str)
        )
        if labeled:
            print(f"  {name}: {len(estimates)} series")
            for key in sorted(estimates):
                print(f"    {key}: {line(estimates[key])}")
        else:
            print(f"  {name}: {line(estimates)}")
    for name, accounting in reports.items():
        print(
            f"  {name}: {accounting['evaluations']} evaluations, "
            f"{accounting['peak_space']:,} peak state variables"
        )


def build_parser() -> argparse.ArgumentParser:
    """The experiment-runner argument schema."""
    parser = argparse.ArgumentParser(
        prog="qlove-bench",
        description=(
            "Regenerate the QLOVE paper's tables and figures, or run the "
            "'monitor' / 'serve' / 'loadgen' subcommands: stream a workload "
            "through the Monitor facade offline, serve it over TCP, or "
            "drive such a server (see '<subcommand> --help')."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=available_experiments() + ["all"],
        help="experiment to run ('all' runs every one)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiplier on the paper's window/period sizes (default 1.0)",
    )
    parser.add_argument("--seed", type=int, default=0, help="dataset seed")
    parser.add_argument(
        "--markdown", action="store_true", help="render tables as markdown"
    )
    return parser


def build_monitor_parser() -> argparse.ArgumentParser:
    """The ``monitor`` subcommand's argument schema."""
    from repro.workloads.registry import available_datasets

    parser = argparse.ArgumentParser(
        prog="qlove-bench monitor",
        description=(
            "Stream a named workload through the Monitor facade and print "
            "per-period quantile reports for every metric in a JSON spec file."
        ),
    )
    parser.add_argument(
        "specs",
        help=(
            "path to a JSON metric-spec file: a list of MetricSpec dicts or "
            "an object with a 'metrics' list"
        ),
    )
    parser.add_argument(
        "--dataset",
        default="netmon",
        choices=available_datasets(),
        help="workload streamed into every registered metric (default netmon)",
    )
    parser.add_argument(
        "--events",
        type=int,
        default=200_000,
        help="stream length in elements (default 200000)",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=65_536,
        help="batched-ingest block size (default 65536)",
    )
    parser.add_argument("--seed", type=int, default=0, help="dataset seed")
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help=(
            "save the full monitor state (specs + per-metric operator "
            "state) to this JSON file after streaming"
        ),
    )
    parser.add_argument(
        "--resume",
        metavar="PATH",
        default=None,
        help=(
            "restore the monitor from a --checkpoint file and continue the "
            "dataset from the first element the checkpoint has not seen; "
            "the final report equals an uninterrupted run's"
        ),
    )
    parser.add_argument(
        "--stop-after",
        type=int,
        metavar="N",
        default=None,
        help=(
            "stop streaming after N elements (of the full --events dataset) "
            "— simulates a crash mid-stream; combine with --checkpoint, then "
            "--resume with the same --events to finish the identical stream"
        ),
    )
    parser.add_argument(
        "--history",
        metavar="DIR",
        default=None,
        help=(
            "persist every period's per-metric sketch state into a segment "
            "store at DIR (created when missing); query it later with "
            "'python -m repro query DIR ...'"
        ),
    )
    parser.add_argument(
        "--series",
        type=int,
        default=8,
        help=(
            "for labeled metrics: number of deterministic series the "
            "stream splits into (event i goes to series i %% N; default 8)"
        ),
    )
    parser.add_argument(
        "--label-fanout",
        type=int,
        default=4,
        help=(
            "for labeled metrics: distinct values of the first schema "
            "label (the group-by axis; default 4)"
        ),
    )
    return parser


def run_monitor(argv: List[str]) -> int:
    """Execute the ``monitor`` subcommand."""
    from repro.service import Monitor
    from repro.workloads.registry import get_dataset

    args = build_monitor_parser().parse_args(argv)
    specs = _load_specs_or_fail(args.specs)
    if args.checkpoint is not None:
        _prepare_write_path(args.checkpoint, "--checkpoint")

    def report(name: str, result) -> None:
        quantiles = "  ".join(
            f"Q{phi:g}={estimate:,.1f}" for phi, estimate in result.result.items()
        )
        print(
            f"{name:<16} eval={result.index:<4} n={result.window_count:<9,} "
            f"end={int(result.end):<10,} {quantiles}"
        )

    if args.series < 1:
        raise _fail(f"--series must be >= 1, got {args.series}")
    if args.label_fanout < 1:
        raise _fail(f"--label-fanout must be >= 1, got {args.label_fanout}")
    skip = 0
    if args.resume is not None:
        monitor = _load_monitor_or_fail(args.resume, specs)
        seen = monitor.seen_counts()
        skip = min(seen.values()) if seen else 0
        if len(set(seen.values())) > 1:
            raise SystemExit(
                f"--resume {args.resume}: metrics saw different element "
                f"counts ({seen}); this checkpoint was not produced by the "
                "monitor CLI's uniform fan-out and cannot be resumed here"
            )
        labeled = set(monitor.labeled_metrics())
        for name in monitor.metrics():
            if name not in labeled:  # families take no per-period callbacks
                monitor.on_result(name, report)
        print(
            f"resumed {len(monitor)} metric(s) from {args.resume!r} "
            f"({skip:,} elements already ingested)"
        )
    else:
        monitor = Monitor()
        for spec in specs:
            if spec.labels is not None:
                monitor.register(spec)
                print(
                    f"registered {spec.name!r}: policy={spec.policy} "
                    f"window={spec.window.size:,}/{spec.window.period:,} "
                    f"quantiles={list(spec.quantiles)} "
                    f"labels={list(spec.labels)}"
                )
            else:
                monitor.register(spec, on_result=report)
                print(
                    f"registered {spec.name!r}: policy={spec.policy} "
                    f"window={spec.window.size:,}/{spec.window.period:,} "
                    f"quantiles={list(spec.quantiles)}"
                )

    writer = None
    if args.history is not None:
        _prepare_history_dir(args.history)
        writer = _open_history_or_fail(args.history, monitor)
        print(f"recording period history to {args.history!r}")

    # Labeled metrics split the stream deterministically: event i of the
    # dataset belongs to series i % N (the LoadGenerator's discipline),
    # so served and offline labeled runs are byte-diffable.
    labelsets = {}
    if monitor.labeled_metrics():
        from repro.series.labels import deterministic_labelsets

        labelsets = {
            name: [
                dict(items)
                for items in deterministic_labelsets(
                    next(
                        spec.labels
                        for spec in monitor.specs()
                        if spec.name == name
                    ),
                    args.series,
                    args.label_fanout,
                )
            ]
            for name in monitor.labeled_metrics()
        }

    values = get_dataset(args.dataset, args.events, seed=args.seed)
    if args.stop_after is not None:
        if args.stop_after < skip:
            raise SystemExit(
                f"--stop-after {args.stop_after} lies before the resumed "
                f"position ({skip:,} elements already ingested)"
            )
        values = values[: args.stop_after]
    fresh = values[skip:]
    print(
        f"\nstreaming {len(fresh):,} '{args.dataset}' elements "
        f"(seed {args.seed}) into {len(monitor)} metric(s)\n"
    )
    from repro.series.labels import series_slice

    started = time.perf_counter()
    for offset in range(0, len(fresh), args.chunk_size):
        block = fresh[offset : offset + args.chunk_size]
        absolute = skip + offset  # global index of block[0] in the dataset
        for name in monitor.metrics():
            if name in labelsets:
                for j, labels in enumerate(labelsets[name]):
                    sub = series_slice(block, absolute, args.series, j)
                    if len(sub):
                        monitor.observe_batch(name, sub, labels=labels)
            else:
                monitor.observe_batch(name, block)
    elapsed = time.perf_counter() - started
    if writer is not None:
        writer.close()
        print(f"history: {writer.segments_written:,} segment(s) written")
    if args.checkpoint is not None:
        try:
            monitor.save(args.checkpoint)
        except OSError as exc:
            raise _fail(f"--checkpoint {args.checkpoint!r}: {exc}") from None
        print(f"checkpoint saved to {args.checkpoint!r}")

    _print_final_snapshot(monitor.snapshot(), monitor.space_report())
    print(_throughput_line(len(fresh) * len(monitor), elapsed))
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    """The ``serve`` subcommand's argument schema."""
    parser = argparse.ArgumentParser(
        prog="qlove-bench serve",
        description=(
            "Serve the metrics of a JSON spec file over TCP: concurrent "
            "newline-delimited-JSON ingest into a bounded queue, one "
            "consumer draining into the Monitor facade, control ops "
            "(snapshot/results/flush/stats/checkpoint/shutdown) on the "
            "same protocol (see docs/serving.md)."
        ),
    )
    parser.add_argument(
        "specs",
        help=(
            "path to a JSON metric-spec file: a list of MetricSpec dicts or "
            "an object with a 'metrics' list"
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=7733,
        help="bind port (0 picks an ephemeral port, printed on startup)",
    )
    parser.add_argument(
        "--queue-blocks",
        type=int,
        default=64,
        help="ingest queue capacity in observe blocks (default 64)",
    )
    parser.add_argument(
        "--backpressure",
        choices=["block", "shed"],
        default="block",
        help=(
            "full-queue behaviour: 'block' stalls the sender (lossless), "
            "'shed' drops the block and reports it in the ack (default block)"
        ),
    )
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="save the monitor state to this JSON file periodically and on shutdown",
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=float,
        metavar="SECONDS",
        default=None,
        help=(
            "seconds between periodic checkpoint saves (default 30; "
            "requires --checkpoint)"
        ),
    )
    parser.add_argument(
        "--resume",
        metavar="PATH",
        default=None,
        help=(
            "restore the monitor from a checkpoint file before serving; the "
            "spec file must match the checkpointed metrics"
        ),
    )
    parser.add_argument(
        "--history",
        metavar="DIR",
        default=None,
        help=(
            "persist every period's per-metric sketch state into a segment "
            "store at DIR and answer 'history' ops from it (query with "
            "'python -m repro query --server HOST:PORT ...' or against DIR "
            "directly)"
        ),
    )
    return parser


def run_serve(argv: List[str]) -> int:
    """Execute the ``serve`` subcommand."""
    from repro.service import Monitor, TelemetryServer

    args = build_serve_parser().parse_args(argv)
    if args.checkpoint_interval is not None and args.checkpoint is None:
        # Silently ignoring the interval would look like durability the
        # server does not have.
        raise _fail(
            "--checkpoint-interval requires --checkpoint PATH (the file "
            "to save the monitor state to)"
        )
    if args.checkpoint is not None and args.checkpoint_interval is None:
        args.checkpoint_interval = 30.0
    if args.checkpoint is not None:
        _prepare_write_path(args.checkpoint, "--checkpoint")
    specs = _load_specs_or_fail(args.specs)
    if args.resume is not None:
        monitor = _load_monitor_or_fail(args.resume, specs)
        restored = monitor.seen_counts()
        print(
            f"resumed {len(monitor)} metric(s) from {args.resume!r} "
            f"(seen: {restored})"
        )
    else:
        monitor = Monitor()
        for spec in specs:
            monitor.register(spec)
            labeled = (
                f" labels={list(spec.labels)}" if spec.labels is not None else ""
            )
            print(
                f"registered {spec.name!r}: policy={spec.policy} "
                f"window={spec.window.size:,}/{spec.window.period:,} "
                f"quantiles={list(spec.quantiles)}{labeled}"
            )
    writer = None
    if args.history is not None:
        _prepare_history_dir(args.history)
        writer = _open_history_or_fail(args.history, monitor)
        print(f"recording period history to {args.history!r}")
    try:
        server = TelemetryServer(
            monitor,
            host=args.host,
            port=args.port,
            queue_blocks=args.queue_blocks,
            backpressure=args.backpressure,
            checkpoint_path=args.checkpoint,
            checkpoint_interval=(
                args.checkpoint_interval if args.checkpoint is not None else None
            ),
            history_writer=writer,
        )
    except ValueError as exc:
        raise _fail(exc) from None
    try:
        server.start()
    except OSError as exc:
        raise _fail(f"cannot bind {args.host}:{args.port}: {exc}") from None
    host, port = server.address
    checkpointing = (
        f", checkpointing to {args.checkpoint!r} every "
        f"{args.checkpoint_interval:g}s"
        if args.checkpoint is not None
        else ""
    )
    print(
        f"serving {len(monitor)} metric(s) on {host}:{port} "
        f"(queue {args.queue_blocks} blocks, backpressure "
        f"{args.backpressure}{checkpointing})",
        flush=True,
    )
    try:
        while not server.wait_shutdown(timeout=0.5):
            pass
        print("shutdown requested; draining and stopping")
    except KeyboardInterrupt:
        print("\ninterrupted; draining and stopping")
    server.stop()
    stats = server.ingest_queue.stats()
    print(
        f"served {stats['accepted_events']:,} events in "
        f"{stats['accepted_blocks']:,} blocks "
        f"({stats['shed_blocks']:,} blocks shed)"
    )
    if writer is not None:
        print(f"history: {writer.segments_written:,} segment(s) written")
    return 0


def build_loadgen_parser() -> argparse.ArgumentParser:
    """The ``loadgen`` subcommand's argument schema."""
    from repro.workloads.registry import available_datasets

    parser = argparse.ArgumentParser(
        prog="qlove-bench loadgen",
        description=(
            "Drive a 'serve' server with a deterministic, seeded workload "
            "over N concurrent connections.  Block partitioning is a pure "
            "function of (dataset, events, seed, block size) — never of "
            "the connection count — so runs are reproducible and the "
            "served snapshot matches an offline 'monitor' run bit for bit."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="server address")
    parser.add_argument("--port", type=int, default=7733, help="server port")
    parser.add_argument(
        "--dataset",
        default="netmon",
        choices=available_datasets(),
        help="workload streamed into every registered metric (default netmon)",
    )
    parser.add_argument(
        "--events",
        type=int,
        default=200_000,
        help="stream length in elements (default 200000)",
    )
    parser.add_argument("--seed", type=int, default=0, help="dataset seed")
    parser.add_argument(
        "--connections",
        type=int,
        default=1,
        help="concurrent sender connections (default 1)",
    )
    parser.add_argument(
        "--block-size",
        type=int,
        default=65_536,
        help=(
            "events per observe message (default 65536, matching the "
            "monitor subcommand's --chunk-size)"
        ),
    )
    parser.add_argument(
        "--series",
        type=int,
        default=8,
        help=(
            "for labeled metrics: number of deterministic series the "
            "stream splits into (event i goes to series i %% N, matching "
            "the monitor subcommand; default 8)"
        ),
    )
    parser.add_argument(
        "--label-fanout",
        type=int,
        default=4,
        help=(
            "for labeled metrics: distinct values of the first schema "
            "label (default 4, matching the monitor subcommand)"
        ),
    )
    parser.add_argument(
        "--protocol",
        default="json",
        choices=("json", "binary", "mixed"),
        help=(
            "wire protocol the sender connections negotiate: 'json' "
            "(default, debuggable text frames), 'binary' (length-prefixed "
            "raw float64 frames, the hot path), or 'mixed' (even "
            "connections JSON, odd binary — a heterogeneous fleet).  The "
            "event sequence and block plan are protocol-independent"
        ),
    )
    parser.add_argument(
        "--wait-server",
        type=float,
        metavar="SECONDS",
        default=10.0,
        help="poll this long for the server to come up (default 10)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "continue from the server's current per-metric position (after "
            "a checkpoint restart) instead of from element 0"
        ),
    )
    parser.add_argument(
        "--stop-after",
        type=int,
        metavar="N",
        default=None,
        help=(
            "send only the first N elements of the --events dataset — "
            "simulates a sender whose stream dies mid-way"
        ),
    )
    parser.add_argument(
        "--checkpoint-request",
        action="store_true",
        help="ask the server to drain and save a checkpoint after streaming",
    )
    parser.add_argument(
        "--snapshot",
        action="store_true",
        help=(
            "print the served final snapshot in exactly the 'monitor' "
            "subcommand's format (diffable against an offline run)"
        ),
    )
    parser.add_argument(
        "--shutdown",
        action="store_true",
        help="send the shutdown op once done (the server drains and exits)",
    )
    return parser


def run_loadgen(argv: List[str]) -> int:
    """Execute the ``loadgen`` subcommand."""
    from repro.service import LoadGenerator, TelemetryClient, wait_for_server

    args = build_loadgen_parser().parse_args(argv)
    try:
        client = wait_for_server(args.host, args.port, timeout=args.wait_server)
    except ConnectionError as exc:
        raise _fail(exc) from None
    client.close()
    try:
        generator = LoadGenerator(
            args.host,
            args.port,
            dataset=args.dataset,
            events=args.events,
            seed=args.seed,
            connections=args.connections,
            block_size=args.block_size,
            series=args.series,
            label_fanout=args.label_fanout,
            protocol=args.protocol,
        )
    except ValueError as exc:
        raise _fail(exc) from None
    offset = 0
    if args.resume:
        try:
            offset = generator.resume_offset()
        except ValueError as exc:
            raise _fail(exc) from None
        print(f"resuming from element {offset:,} (server position)")
    if args.stop_after is not None and args.stop_after < offset:
        raise _fail(
            f"--stop-after {args.stop_after} lies before the resumed "
            f"position ({offset:,} elements already ingested)"
        )
    from repro.service import ServerError

    try:
        summary = generator.run(start_offset=offset, stop_after=args.stop_after)
        print(
            f"streamed {summary['events']:,} '{args.dataset}' elements "
            f"(seed {args.seed}) in {summary['blocks']:,} blocks over "
            f"{summary['connections']} {summary['protocol']} connection(s) "
            f"into {len(summary['metrics'])} metric(s); "
            f"drained={summary['drained']}"
            + (
                f", {summary['shed_blocks']:,} blocks shed"
                if summary["shed_blocks"]
                else ""
            )
        )
        with TelemetryClient(args.host, args.port) as client:
            if args.checkpoint_request:
                saved = client.checkpoint()
                print(f"checkpoint saved to {saved['path']!r}")
            if args.snapshot:
                snapshot = client.snapshot()
                reports = client.stats()["metrics"]
                _print_final_snapshot(snapshot, reports)
            if args.shutdown:
                client.shutdown()
                # stderr keeps stdout's tail diffable vs 'monitor' output.
                print("shutdown sent", file=sys.stderr)
    except (ServerError, ConnectionError, OSError, ValueError) as exc:
        raise _fail(exc) from None
    elapsed = summary["elapsed"]
    print(_throughput_line(summary["events"] * len(summary["metrics"]), elapsed))
    return 0


def build_query_parser() -> argparse.ArgumentParser:
    """The ``query`` subcommand's argument schema."""
    parser = argparse.ArgumentParser(
        prog="qlove-bench query",
        description=(
            "Answer historical quantile questions from a segment store "
            "written by 'monitor --history' / 'serve --history': one period "
            "(--at), an arbitrary period range (--range T0:T1), or a "
            "group-over-time series (--range with --step).  With --server "
            "the same question goes to a live server's 'history' op and "
            "prints byte-identical output."
        ),
    )
    parser.add_argument(
        "store",
        nargs="?",
        default=None,
        help=(
            "history store directory (the --history DIR of a monitor/serve "
            "run); omit when querying a live server via --server"
        ),
    )
    parser.add_argument(
        "--server",
        metavar="HOST:PORT",
        default=None,
        help="query a live server's history op instead of a local store",
    )
    parser.add_argument(
        "--metric", required=True, help="metric name to query"
    )
    parser.add_argument(
        "--at",
        type=int,
        metavar="P",
        default=None,
        help="point-in-time: quantiles of period P's events alone",
    )
    parser.add_argument(
        "--range",
        dest="range_",
        metavar="T0:T1",
        default=None,
        help="quantiles over periods [T0, T1) (end-exclusive)",
    )
    parser.add_argument(
        "--step",
        type=int,
        metavar="K",
        default=None,
        help="with --range: one answer per K-period bucket (group-over-time)",
    )
    parser.add_argument(
        "--quantiles",
        metavar="PHI[,PHI...]",
        default=None,
        help=(
            "comma-separated subset of the metric's tracked quantiles "
            "(default: all of them)"
        ),
    )
    parser.add_argument(
        "--group-by",
        dest="group_by",
        metavar="LABEL[,LABEL...]",
        default=None,
        help=(
            "group a labeled metric's series by these labels and answer "
            "merged quantiles per group: against a store, add --range "
            "T0:T1 (historical); against --server, omit --at/--range "
            "(the live current window)"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the raw result as JSON instead of the text rendering",
    )
    return parser


def run_query(argv: List[str]) -> int:
    """Execute the ``query`` subcommand."""
    import json

    args = build_query_parser().parse_args(argv)
    if (args.store is None) == (args.server is None):
        raise _fail(
            "pass either a store directory or --server HOST:PORT, not "
            "both / neither"
        )
    group_by = None
    if args.group_by is not None:
        group_by = [part for part in args.group_by.split(",") if part]
        if not group_by:
            raise _fail(
                f"--group-by {args.group_by!r} names no labels; pass a "
                "comma-separated list of the metric's label names "
                "(e.g. --group-by region)"
            )
        if args.at is not None or args.step is not None:
            raise _fail(
                "--group-by answers a period range (--range T0:T1 against "
                "a store) or the live current window (--server); it does "
                "not combine with --at or --step"
            )
        if args.server is not None and args.range_ is not None:
            raise _fail(
                "--group-by against --server answers the live current "
                "window; drop --range (historical group-by runs against "
                "the store directory directly)"
            )
        if args.server is None and args.range_ is None:
            raise _fail(
                "--group-by against a store needs --range T0:T1 (the "
                "period range to merge per group)"
            )
    elif (args.at is None) == (args.range_ is None):
        raise _fail("pass either --at P or --range T0:T1, not both / neither")
    if args.step is not None and args.range_ is None:
        raise _fail("--step needs --range T0:T1")
    start = end = None
    if args.range_ is not None:
        try:
            start_text, end_text = args.range_.split(":", 1)
            start, end = int(start_text), int(end_text)
        except ValueError:
            raise _fail(
                f"--range {args.range_!r} is not T0:T1 (two integer period "
                "indices, end-exclusive, e.g. --range 40:80)"
            ) from None
    quantiles = None
    if args.quantiles is not None:
        try:
            quantiles = [float(part) for part in args.quantiles.split(",")]
        except ValueError:
            raise _fail(
                f"--quantiles {args.quantiles!r} is not a comma-separated "
                "list of numbers (e.g. --quantiles 0.5,0.99)"
            ) from None

    if args.server is not None:
        from repro.service import ServerError, TelemetryClient

        host, _, port_text = args.server.rpartition(":")
        try:
            port = int(port_text)
        except ValueError:
            raise _fail(
                f"--server {args.server!r} is not HOST:PORT (e.g. "
                "--server 127.0.0.1:7733)"
            ) from None
        try:
            with TelemetryClient(host or "127.0.0.1", port) as client:
                if group_by is not None:
                    result = client.group_by(args.metric, group_by, quantiles)
                else:
                    result = client.history(
                        args.metric,
                        at=args.at,
                        start=start,
                        end=end,
                        step=args.step,
                        quantiles=quantiles,
                    )
        except (ServerError, ConnectionError, OSError) as exc:
            raise _fail(exc) from None
    else:
        from repro.store import SegmentStore, StoreError, group_by_store
        from repro.store.query import query_at, query_range, query_series

        if not os.path.isdir(args.store):
            raise _fail(
                f"history store directory {args.store!r} does not exist; "
                "pass the --history DIR of a 'monitor' or 'serve' run"
            )
        try:
            store = SegmentStore(args.store)
            if group_by is not None:
                result = group_by_store(
                    store, args.metric, group_by, start, end, quantiles
                )
            elif args.at is not None:
                result = query_at(store, args.metric, args.at, quantiles)
            elif args.step is not None:
                result = query_series(
                    store, args.metric, start, end, args.step, quantiles
                )
            else:
                result = query_range(store, args.metric, start, end, quantiles)
        except (StoreError, ValueError) as exc:
            raise _fail(exc) from None

    if args.json:
        print(json.dumps(result, separators=(",", ":"), sort_keys=True))
    elif group_by is not None:
        from repro.store import render_group_result

        print(render_group_result(result), end="")
    else:
        from repro.store.query import render_result

        print(render_result(result), end="")
    return 0


def run_one(name: str, scale: float, seed: int, markdown: bool) -> None:
    """Execute one experiment and print its report."""
    runner = get_experiment(name)
    started = time.perf_counter()
    result = runner(scale=scale, seed=seed)
    elapsed = time.perf_counter() - started
    if markdown:
        print(f"\n## {result.name}\n")
        if result.notes:
            print(result.notes + "\n")
        for table in result.tables:
            print(table.render_markdown())
            print()
    else:
        print()
        print(result.render())
    print(f"\n[{name} completed in {elapsed:.1f}s]")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    subcommands = {
        "monitor": run_monitor,
        "serve": run_serve,
        "loadgen": run_loadgen,
        "query": run_query,
    }
    if argv and argv[0] in subcommands:
        return subcommands[argv[0]](argv[1:])
    args = build_parser().parse_args(argv)
    names = available_experiments() if args.experiment == "all" else [args.experiment]
    for name in names:
        run_one(name, scale=args.scale, seed=args.seed, markdown=args.markdown)
    return 0


if __name__ == "__main__":
    sys.exit(main())
