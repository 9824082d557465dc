"""Tests for CSV export and the command-line interface."""

import csv
import io
import pathlib

import pytest

from repro.analysis import export
from repro.cli import EXPERIMENTS, _build_parser, main
from repro.experiments import fig10_crosscheck


class TestCsvHelpers:
    def test_csv_text_roundtrip(self):
        text = export.csv_text(("a", "b"), [(1, 2), (3, 4)])
        rows = list(csv.reader(io.StringIO(text)))
        assert rows == [["a", "b"], ["1", "2"], ["3", "4"]]

    def test_series_csv(self):
        text = export.series_csv({"x": [1, 2], "y": [3, 4]})
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["bucket", "x", "y"]
        assert rows[1] == ["0", "1", "3"]

    def test_series_csv_length_mismatch(self):
        with pytest.raises(ValueError):
            export.series_csv({"x": [1], "y": [1, 2]})

    def test_series_csv_empty(self):
        with pytest.raises(ValueError):
            export.series_csv({})


class TestResultExports:
    def test_wild_daily_csv(self, wild):
        text = export.wild_daily_csv(wild)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][0] == "day"
        assert "any_iot" in rows[0]
        assert len(rows) == wild.config.days + 1

    def test_wild_hourly_csv(self, wild):
        text = export.wild_hourly_csv(wild)
        rows = list(csv.reader(io.StringIO(text)))
        assert "alexa_active_usage" in rows[0]
        assert len(rows) == wild.config.hours + 1

    def test_crosscheck_csv(self, context):
        result = fig10_crosscheck.run(context, thresholds=(0.4,))
        text = export.crosscheck_csv(result)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == [
            "mode", "threshold", "class", "hours_to_detect",
        ]
        modes = {row[0] for row in rows[1:]}
        assert modes == {"active", "idle"}

    def test_ixp_daily_csv(self, ixp_result):
        text = export.ixp_daily_csv(ixp_result)
        rows = list(csv.reader(io.StringIO(text)))
        assert len(rows) == ixp_result.config.days + 1


class TestCli:
    _SCALE = ["--subscribers", "20000", "--days", "3"]

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for identifier in EXPERIMENTS:
            assert identifier in out

    def test_pipeline(self, capsys):
        assert main(self._SCALE + ["pipeline"]) == 0
        assert "hitlist pipeline" in capsys.readouterr().out

    def test_experiment_to_stdout(self, capsys):
        assert main(self._SCALE + ["experiment", "table1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_experiment_to_file(self, tmp_path, capsys):
        target = tmp_path / "rules.txt"
        assert (
            main(self._SCALE + ["experiment", "rules", "-o", str(target)])
            == 0
        )
        assert "detection rules" in target.read_text()

    def test_export_to_file(self, tmp_path):
        target = tmp_path / "daily.csv"
        assert (
            main(
                self._SCALE
                + ["export", "wild-daily", "-o", str(target)]
            )
            == 0
        )
        rows = list(csv.reader(io.StringIO(target.read_text())))
        assert rows[0][0] == "day"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_registry_covers_all_artefacts(self):
        expected = {
            "table1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
            "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
            "fig18", "pipeline", "rules", "false-positives",
            "dns-visibility", "scorecard", "defenses",
        }
        assert set(EXPERIMENTS) == expected


class TestParserSnapshot:
    """The parsed namespace of each subcommand's minimal argv, pinned:
    no flag, dest or default may move when the parser is refactored."""

    _GLOBAL = {
        "days": 14,
        "deadline": None,
        "drain_grace": None,
        "max_retries": 2,
        "memory_budget": None,
        "metrics_out": None,
        "quarantine_dir": None,
        "seed": 7,
        "shard_size": 8192,
        "shard_timeout": None,
        "subscribers": 100000,
        "workers": 1,
    }
    _ENGINE = {
        "artifacts": None,
        "checkpoint_dir": None,
        "checkpoint_every": 0,
        "events_out": None,
        "fleet_ring_slots": 64,
        "fleet_workers": 0,
        "max_subscribers": 65536,
        "require_established": False,
        "resume": False,
        "stream_metrics_out": None,
        "threshold": 0.4,
        "ttl_seconds": None,
    }
    _CASES = {
        "detect": (
            ["detect", "f.csv"],
            {
                "command": "detect",
                "flows": pathlib.Path("f.csv"),
                "artifacts": None,
                "threshold": 0.4,
                "chunk_size": 65536,
            },
        ),
        "stream run": (
            ["stream", "run", "f.csv"],
            {
                **_ENGINE,
                "command": "stream",
                "stream_command": "run",
                "flows": pathlib.Path("f.csv"),
                "chunk_size": 65536,
                "columnar": False,
                "hitlist_dir": None,
                "hitlist_refresh_every": 0,
                "inject_sigterm_at": None,
                "max_records": None,
                "migrate_rules": False,
                "rebalance": False,
            },
        ),
        "collect": (
            ["collect"],
            {
                **_ENGINE,
                "command": "collect",
                "bind": "127.0.0.1:0",
                "control_port": 0,
                "exporter_timeout": 300.0,
                "idle_exit": None,
                "journal": None,
                "max_datagrams": None,
                "no_control": False,
                "pending_sets": 64,
                "pending_ttl": 60.0,
                "ready_file": None,
                "recv_buffer": None,
            },
        ),
        "sweep run": (
            ["sweep", "run"],
            {
                "command": "sweep",
                "sweep_command": "run",
                "artifacts": None,
                "threshold": 0.4,
                "chunk_size": 4096,
                "grid": "quick",
                "lines": 240,
                "out": pathlib.Path("sweep-out"),
                "sweep_days": 2,
                "sweep_workers": 1,
            },
        ),
        "artifacts": (
            ["artifacts", "d"],
            {
                "command": "artifacts",
                "directory": pathlib.Path("d"),
                "versioned": False,
            },
        ),
        "experiment": (
            ["experiment", "table1"],
            {"command": "experiment", "id": "table1", "output": None},
        ),
    }

    @pytest.mark.parametrize("name", sorted(_CASES))
    def test_minimal_argv_namespace(self, name):
        argv, expected = self._CASES[name]
        parsed = vars(_build_parser().parse_args(argv))
        assert parsed == {**self._GLOBAL, **expected}


class TestWildWorkersFlag:
    """``--workers`` sizes the wild-run process pool and nothing else:
    it used to split a stream engine's evidence table N ways."""

    def test_stream_run_and_collect_ignore_it(self, tmp_path):
        from repro.cli import _stream_config
        from repro.netflow.flowfile import write_flow_file
        from repro.stream import read_event_log
        from repro.timeutil import STUDY_START
        from tests.conftest import write_artifacts
        from tests.test_rules_lifecycle import CAM_IP, world_v1
        from tests.test_stream import _mkflow

        artifacts = write_artifacts(tmp_path / "artifacts", *world_v1())
        # 100 lines seen once, then 60 lines seen five times each: more
        # lines than --max-subscribers 64, and a working set that fits
        # one 64-line table but not its share of four 16-line ones
        lines = list(range(100)) + [100 + n % 60 for n in range(300)]
        flows = tmp_path / "flows.csv"
        write_flow_file(
            flows,
            [
                _mkflow(0x0A000000 + line, CAM_IP, STUDY_START + at)
                for at, line in enumerate(lines)
            ],
        )

        def run(workers):
            out = tmp_path / f"w{workers}"
            out.mkdir()
            assert main(
                [
                    "--workers", str(workers),
                    "stream", "run", str(flows),
                    "--artifacts", str(artifacts),
                    "--max-subscribers", "64",
                    "--checkpoint-dir", str(out / "ckpt"),
                    "--checkpoint-every", "150",
                    "--events-out", str(out / "events.jsonl"),
                ]
            ) == 0
            return (out / "events.jsonl").read_bytes(), [
                (path.name, path.read_bytes())
                for path in sorted((out / "ckpt").iterdir())
            ]

        log, checkpoints = run(1)
        assert len(checkpoints) == 3  # 150, 300, and the end: 400
        assert run(4) == (log, checkpoints)
        # every line detected once: the working set was never evicted
        assert len(read_event_log(tmp_path / "w4" / "events.jsonl")) == 160

        def collect_config(workers):
            args = _build_parser().parse_args(
                ["--workers", str(workers), "collect"]
            )
            return _stream_config(args, checkpoint_every=0)

        assert collect_config(4) == collect_config(1)


class TestCliOperationalLoop:
    _SCALE = ["--subscribers", "20000", "--days", "3"]

    def test_artifacts_then_detect(self, tmp_path, capsys, context):
        from repro.netflow.flowfile import write_flow_file

        # 1. export artifacts
        artefact_dir = tmp_path / "artifacts"
        assert (
            main(self._SCALE + ["artifacts", str(artefact_dir)]) == 0
        )
        assert (artefact_dir / "hitlist.json").exists()
        assert (artefact_dir / "rules.json").exists()
        capsys.readouterr()
        # 2. dump sampled flows
        flow_path = tmp_path / "flows.csv"
        write_flow_file(
            flow_path,
            list(context.capture.isp_flow_records())[:4000],
            sampling_interval=100,
        )
        # 3. detect offline from the exported artifacts
        assert (
            main(
                self._SCALE
                + [
                    "detect", str(flow_path),
                    "--artifacts", str(artefact_dir),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "matched=" in out
        assert len(out.strip().splitlines()) > 1  # some detections

    def test_detect_without_artifacts_uses_context(
        self, tmp_path, capsys, context
    ):
        from repro.netflow.flowfile import write_flow_file

        flow_path = tmp_path / "flows.csv"
        write_flow_file(
            flow_path,
            list(context.capture.isp_flow_records())[:1000],
            sampling_interval=100,
        )
        assert main(self._SCALE + ["detect", str(flow_path)]) == 0
        assert "flows=1000" in capsys.readouterr().out
