"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["generate-dataset"])
        assert args.n_samples == 100
        assert args.snr_low == -30.0

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestGenerateDataset(object):
    def test_writes_npz(self, tmp_path, capsys):
        out = tmp_path / "clips.npz"
        code = main(
            [
                "generate-dataset",
                "--n-samples",
                "6",
                "--duration",
                "0.5",
                "--fs",
                "4000",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        data = np.load(out)
        assert data["waveforms"].shape == (6, 2000)
        assert data["labels"].shape == (6,)
        assert "wrote 6 clips" in capsys.readouterr().out


class TestGenerateFeatures:
    def test_features_stored(self, tmp_path, capsys):
        out = tmp_path / "clips.npz"
        code = main(
            [
                "generate-dataset",
                "--n-samples", "4",
                "--duration", "0.5",
                "--fs", "4000",
                "--features",
                "--feature-mels", "16",
                "--feature-frames", "16",
                "--out", str(out),
            ]
        )
        assert code == 0
        data = np.load(out)
        assert data["features"].shape == (4, 1, 16, 16)
        assert "features: 16 mels x 16 frames" in capsys.readouterr().out


class TestProcess:
    def test_demo_scene(self, capsys):
        code = main(["process", "--duration", "0.5", "--fs", "8000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "engine          : batched" in out
        assert "frames" in out

    def test_npz_input(self, tmp_path, capsys):
        path = tmp_path / "rec.npz"
        rng = np.random.default_rng(0)
        np.savez(path, signals=rng.standard_normal((4, 8000)), fs=16000.0)
        code = main(["process", "--input", str(path), "--compare-streaming"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rec.npz" in out
        assert "streaming" in out

    def test_npz_missing_signals(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, waveforms=np.zeros((2, 100)))
        assert main(["process", "--input", str(path)]) == 1


class TestFleet:
    def test_corridor_demo(self, capsys):
        code = main(
            ["fleet", "--n-nodes", "2", "--spacing", "12", "--duration", "0.6",
             "--fs", "4000", "--n-azimuth", "36"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "corridor          : 2 nodes" in out
        assert "node health" in out
        assert "fleet wall time" in out

    def test_rejects_single_node(self, capsys):
        assert main(["fleet", "--n-nodes", "1"]) == 1

    def test_parser_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.n_nodes == 3
        assert args.detector == "oracle"
        assert not args.threads


class TestFleetJson:
    def test_json_requires_stream(self, capsys):
        assert main(["fleet", "--json"]) == 1
        assert "--json requires --stream" in capsys.readouterr().err

    def test_stream_json_document(self, capsys):
        import json

        code = main(
            ["fleet", "--stream", "--n-nodes", "2", "--spacing", "12",
             "--duration", "0.5", "--n-azimuth", "36", "--workers", "0",
             "--json"]
        )
        assert code == 0
        out = capsys.readouterr().out
        doc = json.loads(out)  # the ONLY stdout is one JSON document
        assert doc["engine"] == "parallel"
        assert doc["n_tracks"] > 0
        assert {"p95_ms", "deadline_ms"} <= set(doc["hop_latency"])
        assert "detect_to_update" in doc
        assert len(doc["nodes"]) == 2
        for node in doc["nodes"]:
            assert {"node_id", "realtime", "n_overruns"} <= set(node)

    def test_min_batch_without_workers_runs_in_process(self, capsys):
        import json

        code = main(
            ["fleet", "--stream", "--n-nodes", "2", "--spacing", "12",
             "--duration", "0.5", "--n-azimuth", "36", "--min-batch", "2",
             "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["engine"] == "streaming"
        assert doc["workers"] == 0
        assert "detect_to_update" in doc

    def test_tap_misses_reported_with_streamed_mlat(self, capsys):
        import json

        code = main(
            ["fleet", "--stream", "--n-nodes", "2", "--spacing", "12",
             "--duration", "0.5", "--n-azimuth", "36", "--workers", "0",
             "--multilaterate", "--tap-window", "1.0", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        for node in doc["nodes"]:
            assert node["n_tap_misses"] == 0  # sized window: no evictions
        code = main(
            ["fleet", "--stream", "--n-nodes", "2", "--spacing", "12",
             "--duration", "0.5", "--n-azimuth", "36", "--workers", "0",
             "--multilaterate", "--tap-window", "1.0"]
        )
        assert code == 0
        assert "tap misses        : 0 evicted read(s)" in capsys.readouterr().out

    def test_full_physics_incremental_stream(self, capsys):
        import json

        code = main(
            ["fleet", "--stream", "--incremental", "--n-nodes", "2",
             "--spacing", "12", "--duration", "0.5", "--n-azimuth", "36",
             "--surface", "dense_asphalt", "--air", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_tracks"] > 0
        code = main(
            ["fleet", "--stream", "--incremental", "--n-nodes", "2",
             "--spacing", "12", "--duration", "0.5", "--n-azimuth", "36",
             "--surface", "dense_asphalt", "--air"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "physics           : surface dense_asphalt, air absorption on" in out


class TestCity:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["city"])
        assert args.corridors == 3
        assert args.workers == 1
        assert not args.json

    def test_default_scenario_run(self, capsys):
        code = main(
            ["city", "--corridors", "2", "--duration", "0.4", "--n-nodes", "2",
             "--workers", "0", "--stagger", "1", "--status-every", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "city sessions     : 2" in out
        assert "corridor0 joined" in out
        assert "corridor1 joined" in out
        assert "corridor0 left" in out
        assert "detect→update" in out

    def test_snapshot_trail_and_no_steal(self, tmp_path, capsys):
        import json

        trail = tmp_path / "trail.jsonl"
        code = main(
            ["city", "--corridors", "2", "--duration", "0.3", "--n-nodes", "2",
             "--workers", "0", "--no-steal", "--snapshot-out", str(trail),
             "--snapshot-every", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "shard stealing off" in out
        assert "snapshots" in out and "trail.jsonl" in out
        rows = [json.loads(line) for line in trail.read_text().splitlines()]
        assert rows
        assert all({"step", "n_sessions", "corridors"} <= set(r) for r in rows)
        assert rows[-1]["n_left"] == 2

    def test_snapshot_every_requires_out(self, capsys):
        code = main(
            ["city", "--corridors", "1", "--workers", "0", "--snapshot-every", "2"]
        )
        assert code == 1
        assert "--snapshot-out" in capsys.readouterr().err

    def test_scenario_file_and_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "city.json"
        path.write_text(json.dumps({
            "seed": 4,
            "corridors": [
                {"corridor_id": "north", "n_nodes": 2, "duration_s": 0.4},
                {"corridor_id": "south", "n_nodes": 2, "duration_s": 0.4,
                 "join_step": 1},
            ],
        }))
        code = main(["city", "--scenario", str(path), "--workers", "0", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_sessions"] == 2
        assert {c["corridor_id"] for c in doc["corridors"]} == {"north", "south"}
        assert doc["n_left"] == 2


class TestAssessArray:
    def test_uca_report(self, capsys):
        code = main(
            ["assess-array", "--topology", "uca", "--n-mics", "4", "--size", "0.15",
             "--n-directions", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "aperture" in out
        assert "mean error" in out

    def test_ula_reports_inf_condition(self, capsys):
        code = main(
            ["assess-array", "--topology", "ula", "--n-mics", "3", "--size", "0.1",
             "--n-directions", "4"]
        )
        assert code == 0
        assert "inf" in capsys.readouterr().out


class TestCodesign:
    def test_runs_and_reports(self, capsys):
        code = main(
            ["codesign", "--base-channels", "8", "--n-blocks", "2", "--error-budget", "1.0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "(baseline)" in out
