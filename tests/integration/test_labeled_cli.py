"""The labeled CLI surface: ``--history`` prep, ``query --group-by``.

In-process ``main(argv)`` invocations pin exit codes and printed bytes
for the labeled path: a ``monitor`` run with a labeled spec creates a
``--history`` directory (missing parents included) or fails with one
actionable exit-2 line, the final snapshot renders one indented line
per series, and ``query --group-by`` against that store prints the
same bytes :func:`render_group_result` produces — plus every flag
combination the group-by mode rejects.

One subprocess round trip diffs a labeled ``serve``/``loadgen`` run's
final snapshot against the offline ``monitor`` output byte for byte
(the CI serving gate, extended to labeled metrics).
"""

from __future__ import annotations

import json
import os
import re

import pytest

from repro.evalkit.cli import main

from tests.integration.test_serve_cli import (
    free_port,
    run_cli,
    spawn_server,
    wait_and_terminate,
)

WINDOW = {"size": 100_000, "period": 100}

SPECS = {
    "metrics": [
        {
            "name": "rtt",
            "quantiles": [0.5, 0.99],
            "window": dict(WINDOW),
            "policy": "qlove",
        },
        {
            "name": "lat",
            "quantiles": [0.5, 0.99],
            "window": dict(WINDOW),
            "policy": "qlove",
            "labels": ["region", "host"],
            "series": {"shards": 3, "max_active": 3},
        },
    ]
}

EVENTS = 4_000
N_SERIES = 4
FANOUT = 2
PERIODS_PER_SERIES = EVENTS // N_SERIES // WINDOW["period"]

MONITOR_ARGS = [
    "--dataset", "uniform", "--seed", "0", "--events", str(EVENTS),
    "--series", str(N_SERIES), "--label-fanout", str(FANOUT),
]


@pytest.fixture()
def specs_path(tmp_path):
    path = tmp_path / "specs.json"
    path.write_text(json.dumps(SPECS), encoding="utf-8")
    return str(path)


@pytest.fixture()
def history_dir(tmp_path, specs_path):
    """A labeled history store written by the offline monitor CLI."""
    directory = str(tmp_path / "hist")
    code = main(["monitor", specs_path, *MONITOR_ARGS, "--history", directory])
    assert code == 0
    return directory


class TestHistoryDirPreparation:
    def test_nested_missing_parents_are_created(
        self, tmp_path, specs_path, capsys
    ):
        directory = str(tmp_path / "a" / "b" / "c" / "hist")
        code = main(
            ["monitor", specs_path, *MONITOR_ARGS, "--history", directory]
        )
        assert code == 0
        assert os.path.isdir(directory)
        out = capsys.readouterr().out
        assert f"recording period history to {directory!r}" in out

    @pytest.mark.parametrize("subcommand", ["monitor", "serve"])
    def test_path_component_is_a_file_fails_actionably(
        self, tmp_path, specs_path, subcommand, capsys
    ):
        squatter = tmp_path / "squatter"
        squatter.write_text("not a directory", encoding="utf-8")
        directory = str(squatter / "hist")
        with pytest.raises(SystemExit) as excinfo:
            main([subcommand, specs_path, "--history", directory])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "a path component exists but is not a directory" in err
        assert directory in err

    def test_unwritable_location_fails_actionably(
        self, tmp_path, specs_path, capsys
    ):
        if os.geteuid() == 0:
            pytest.skip("root ignores directory write bits")
        parent = tmp_path / "sealed"
        parent.mkdir()
        parent.chmod(0o555)
        try:
            with pytest.raises(SystemExit) as excinfo:
                main(
                    ["monitor", specs_path, "--history",
                     str(parent / "hist")]
                )
        finally:
            parent.chmod(0o755)
        assert excinfo.value.code == 2
        assert "cannot create the store directory" in capsys.readouterr().err


class TestLabeledMonitorOutput:
    def test_final_snapshot_renders_one_line_per_series(
        self, specs_path, capsys
    ):
        code = main(["monitor", specs_path, *MONITOR_ARGS])
        assert code == 0
        out = capsys.readouterr().out
        assert "registered 'lat'" in out and "labels=['host', 'region']" in out
        lines = out.splitlines()
        start = lines.index("final snapshot:")
        block = lines[start:]
        assert f"  lat: {N_SERIES} series" in block
        series_lines = [ln for ln in block if ln.startswith("    lat{")]
        assert len(series_lines) == N_SERIES
        assert series_lines == sorted(series_lines)
        # The window never fills: every series is still warming up.
        assert all("(no full window yet)" in ln for ln in series_lines)
        # The rate line keeps CI's bracket form and never reads 0.0 M.
        rate = lines[-1]
        assert re.fullmatch(r"\[[0-9.,]+( M)? ev/s across metrics, [0-9.]+s\]", rate)
        assert "[0.0 M" not in rate

    @pytest.mark.parametrize(
        "events, elapsed, expected",
        [
            (100_000, 7.0, "[14,286 ev/s across metrics, 7.0s]"),
            (999_999, 1.0, "[999,999 ev/s across metrics, 1.0s]"),
            (3_400_000, 1.0, "[3.4 M ev/s across metrics, 1.0s]"),
        ],
    )
    def test_throughput_unit_adapts(self, events, elapsed, expected):
        from repro.evalkit.cli import _throughput_line

        assert _throughput_line(events, elapsed) == "\n" + expected

    def test_series_flag_validation(self, specs_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["monitor", specs_path, "--series", "0"])
        assert excinfo.value.code == 2
        assert "--series must be >= 1" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(["monitor", specs_path, "--label-fanout", "-2"])
        assert excinfo.value.code == 2
        assert "--label-fanout must be >= 1" in capsys.readouterr().err


class TestStoreGroupByCli:
    def query(self, history_dir, *extra):
        return main(
            ["query", history_dir, "--metric", "lat", "--group-by", "host",
             "--range", f"0:{PERIODS_PER_SERIES}", *extra]
        )

    def test_renders_the_library_bytes(self, history_dir, capsys):
        assert self.query(history_dir) == 0
        out = capsys.readouterr().out

        from repro.store import SegmentStore, group_by_store, render_group_result

        store = SegmentStore(history_dir)
        try:
            expected = render_group_result(
                group_by_store(store, "lat", ["host"], 0, PERIODS_PER_SERIES)
            )
        finally:
            store.close()
        assert out == expected
        assert out.startswith(
            f"lat group by host periods [0, {PERIODS_PER_SERIES})"
        )
        # --label-fanout host values, --series series split across them.
        assert out.count("\n  {host=") == FANOUT
        assert f"series={N_SERIES // FANOUT}" in out

    def test_json_output_is_stable(self, history_dir, capsys):
        assert self.query(history_dir, "--json") == 0
        first = capsys.readouterr().out
        result = json.loads(first)
        assert result["by"] == ["host"]
        assert sum(g["count"] for g in result["groups"]) == EVENTS
        assert self.query(history_dir, "--json") == 0
        assert capsys.readouterr().out == first

    def test_quantile_subset(self, history_dir, capsys):
        assert self.query(history_dir, "--quantiles", "0.99") == 0
        out = capsys.readouterr().out
        assert "p0.99:" in out and "p0.5:" not in out

    def test_multi_label_group_by(self, history_dir, capsys):
        code = main(
            ["query", history_dir, "--metric", "lat", "--group-by", "host,region",
             "--range", f"0:{PERIODS_PER_SERIES}"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("series=1") == N_SERIES


class TestGroupByFlagValidation:
    """Every rejected combination fails before any store or socket I/O,
    so a nonexistent store path never masks the flag error."""

    def fails_with(self, capsys, argv, needle):
        with pytest.raises(SystemExit) as excinfo:
            main(["query", *argv])
        assert excinfo.value.code == 2
        assert needle in capsys.readouterr().err

    def test_empty_label_list(self, capsys):
        self.fails_with(
            capsys,
            ["nowhere", "--metric", "lat", "--group-by", ",", "--range", "0:1"],
            "names no labels",
        )

    def test_does_not_combine_with_at(self, capsys):
        self.fails_with(
            capsys,
            ["nowhere", "--metric", "lat", "--group-by", "host", "--at", "3"],
            "does not combine with --at or --step",
        )

    def test_does_not_combine_with_step(self, capsys):
        self.fails_with(
            capsys,
            ["nowhere", "--metric", "lat", "--group-by", "host",
             "--range", "0:4", "--step", "2"],
            "does not combine with --at or --step",
        )

    def test_server_mode_rejects_range(self, capsys):
        self.fails_with(
            capsys,
            ["--server", "127.0.0.1:1", "--metric", "lat", "--group-by", "host",
             "--range", "0:4"],
            "drop --range",
        )

    def test_store_mode_needs_range(self, capsys):
        self.fails_with(
            capsys,
            ["nowhere", "--metric", "lat", "--group-by", "host"],
            "needs --range T0:T1",
        )

    def test_store_errors_surface_as_exit_2(self, history_dir, capsys):
        self.fails_with(
            capsys,
            [history_dir, "--metric", "rtt", "--group-by", "host", "--range", "0:4"],
            "no labeled series",
        )


class TestLabeledServeRoundTrip:
    def test_served_labeled_snapshot_matches_offline_monitor(
        self, specs_path
    ):
        offline = run_cli("monitor", [specs_path, *MONITOR_ARGS])
        assert offline.returncode == 0, offline.stderr
        lines = offline.stdout.splitlines()
        start = lines.index("final snapshot:")
        offline_block = [
            ln for ln in lines[start:] if not ln.startswith("[")
        ]

        port = free_port()
        server = spawn_server([specs_path, "--port", str(port)])
        try:
            driven = run_cli(
                "loadgen",
                ["--port", str(port), *MONITOR_ARGS,
                 "--block-size", "700", "--connections", "2",
                 "--wait-server", "30", "--snapshot", "--shutdown"],
                timeout=120,
            )
            assert driven.returncode == 0, driven.stderr
            served = driven.stdout.splitlines()
            served_block = [
                ln
                for ln in served[served.index("final snapshot:") :]
                if not ln.startswith("[")
            ]
            assert served_block == offline_block
        finally:
            output = wait_and_terminate(server)
        assert server.returncode == 0, output
