"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.data import read_points_csv, write_csv


@pytest.fixture()
def events_csv(tmp_path, clustered_points):
    path = tmp_path / "events.csv"
    write_csv(path, clustered_points)
    return path


@pytest.fixture()
def st_events_csv(tmp_path, clustered_points, rng):
    path = tmp_path / "st_events.csv"
    times = rng.uniform(0, 100, size=clustered_points.shape[0])
    write_csv(path, clustered_points, times=times)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_size_parsing(self):
        args = build_parser().parse_args(
            ["kdv", "x.csv", "--bandwidth", "2", "--size", "64x48"]
        )
        assert args.size == (64, 48)

    def test_bad_size_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["kdv", "x.csv", "--bandwidth", "2", "--size", "64by48"]
            )

    @pytest.mark.parametrize("size", ["0x0", "-3x5", "12x0"])
    def test_non_positive_size_rejected(self, size, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["kdv", "x.csv", "--bandwidth", "2", f"--size={size}"]
            )
        assert exc.value.code == 2
        assert "positive" in capsys.readouterr().err

    @pytest.mark.parametrize("frames", ["0", "-3", "2.5", "lots"])
    def test_bad_frame_count_rejected(self, frames, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["stkdv", "x.csv", "--bandwidth-space", "2",
                 "--bandwidth-time", "25", "--frames", frames]
            )
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err


class TestGenerate:
    @pytest.mark.parametrize("dataset,has_time", [
        ("covid", True), ("crime", False), ("taxi", True),
    ])
    def test_generates_csv(self, tmp_path, dataset, has_time, capsys):
        out = tmp_path / f"{dataset}.csv"
        code = main(
            ["generate", dataset, "--n", "300", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        pts, times = read_points_csv(out)
        assert pts.shape[0] == 300
        assert (times is not None) == has_time
        assert "wrote 300 events" in capsys.readouterr().out


class TestKdvCommand:
    def test_renders_heatmap(self, events_csv, tmp_path, capsys):
        out = tmp_path / "map.ppm"
        code = main(
            ["kdv", str(events_csv), "--bandwidth", "1.5",
             "--size", "48x32", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert "peak density" in capsys.readouterr().out

    def test_ascii_without_out(self, events_csv, capsys):
        code = main(
            ["kdv", str(events_csv), "--bandwidth", "1.5", "--size", "32x24"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "@" in output or "#" in output  # some dense glyph appears

    def test_missing_file(self, tmp_path, capsys):
        code = main(
            ["kdv", str(tmp_path / "nope.csv"), "--bandwidth", "1.0"]
        )
        assert code == 1

    def test_bad_kernel_reported(self, events_csv, capsys):
        code = main(
            ["kdv", str(events_csv), "--bandwidth", "1.0", "--kernel", "box"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("tau", ["-1", "-0.5", "nan", "lots"])
    def test_negative_or_bad_tau_rejected(self, tau, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["kdv", "x.csv", "--bandwidth", "2", "--method", "dualtree",
                 f"--tau={tau}"]
            )
        assert exc.value.code == 2
        assert "non-negative" in capsys.readouterr().err

    def test_tau_with_dualtree_runs(self, events_csv, capsys):
        code = main(
            ["kdv", str(events_csv), "--bandwidth", "1.5", "--size", "32x24",
             "--method", "dualtree", "--tau", "0.5", "--workers", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "peak density" in out
        assert "refinement:" in out  # the RefinementStats line

    def test_tau_zero_accepted(self, events_csv, capsys):
        code = main(
            ["kdv", str(events_csv), "--bandwidth", "1.5", "--size", "16x12",
             "--method", "dualtree", "--tau", "0"]
        )
        assert code == 0

    def test_tau_with_other_method_is_clear_error(self, events_csv, capsys):
        code = main(
            ["kdv", str(events_csv), "--bandwidth", "1.5",
             "--method", "grid", "--tau", "0.5"]
        )
        assert code == 1
        assert "tau" in capsys.readouterr().err

    def test_auto_workers_dtype_combination(self, events_csv, capsys):
        """PR 8 regression: the two sequential auto-rewrites in the old
        _cmd_kdv conflicted, so --workers + --dtype with the default auto
        method exited 1.  The planner now owns resolution."""
        code = main(
            ["kdv", str(events_csv), "--bandwidth", "1", "--size", "32x24",
             "--workers", "2", "--dtype", "float32", "--ascii"]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "auto plan:" in captured.out
        assert "peak density" in captured.out

    def test_auto_prints_plan_rationale(self, events_csv, capsys):
        code = main(
            ["kdv", str(events_csv), "--bandwidth", "1.5", "--size", "32x24",
             "--ascii"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "auto plan:" in out and "predicted" in out

    def test_auto_tau_resolves_to_dualtree(self, events_csv, capsys):
        code = main(
            ["kdv", str(events_csv), "--bandwidth", "1.5", "--size", "32x24",
             "--tau", "0.5", "--ascii"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "auto plan: dualtree" in out
        assert "refinement:" in out

    def test_explicit_method_prints_no_plan(self, events_csv, capsys):
        code = main(
            ["kdv", str(events_csv), "--bandwidth", "1.5", "--size", "16x12",
             "--method", "grid", "--ascii"]
        )
        assert code == 0
        assert "auto plan:" not in capsys.readouterr().out

    def test_backend_flag_dualtree(self, events_csv, capsys):
        code = main(
            ["kdv", str(events_csv), "--bandwidth", "1.5", "--size", "16x12",
             "--method", "dualtree", "--backend", "serial"]
        )
        assert code == 0

    def test_omitted_workers_defers_to_env_default(self, events_csv, capsys,
                                                   monkeypatch):
        """No --workers must consult REPRO_WORKERS, as --help promises."""
        monkeypatch.setenv("REPRO_WORKERS", "not-a-number")
        code = main(
            ["kdv", str(events_csv), "--bandwidth", "1.5",
             "--size", "32x24", "--method", "parallel"]
        )
        assert code == 1
        assert "REPRO_WORKERS" in capsys.readouterr().err


class TestKfunctionCommand:
    def test_detects_clustering(self, events_csv, capsys):
        code = main(
            ["kfunction", str(events_csv), "--thresholds", "6",
             "--simulations", "19", "--seed", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "clustered" in out
        assert "suggested KDV bandwidth" in out

    def test_custom_max_threshold(self, events_csv, capsys):
        code = main(
            ["kfunction", str(events_csv), "--thresholds", "4",
             "--max-threshold", "2.0", "--simulations", "5"]
        )
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert any(l.strip().startswith("2") for l in lines)


class TestHotspotsCommand:
    def test_full_pipeline(self, events_csv, tmp_path, capsys):
        out = tmp_path / "hot.ppm"
        code = main(
            ["hotspots", str(events_csv), "--size", "48x32",
             "--simulations", "9", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert "hotspots found" in capsys.readouterr().out


class TestCsrtestCommand:
    def test_clustered_detected(self, events_csv, capsys):
        code = main(["csrtest", str(events_csv)])
        assert code == 0
        out = capsys.readouterr().out
        assert "CSR rejected" in out
        assert "clustered" in out

    def test_custom_quadrats(self, events_csv, capsys):
        code = main(["csrtest", str(events_csv), "--quadrats", "4x3"])
        assert code == 0
        assert "4x3" in capsys.readouterr().out


class TestStkdvCommand:
    def test_writes_frames(self, st_events_csv, tmp_path, capsys):
        prefix = tmp_path / "frame"
        code = main(
            ["stkdv", str(st_events_csv), "--frames", "2",
             "--bandwidth-space", "2.0", "--bandwidth-time", "25",
             "--size", "32x24", "--out-prefix", str(prefix)]
        )
        assert code == 0
        assert (tmp_path / "frame_000.ppm").exists()
        assert (tmp_path / "frame_001.ppm").exists()

    def test_rejects_2col_csv(self, events_csv, capsys):
        code = main(
            ["stkdv", str(events_csv), "--frames", "2",
             "--bandwidth-space", "2.0", "--bandwidth-time", "25"]
        )
        assert code == 2
        assert "x,y,t" in capsys.readouterr().err

    def test_shared_method_writes_frames(self, st_events_csv, tmp_path):
        prefix = tmp_path / "shared"
        code = main(
            ["stkdv", str(st_events_csv), "--frames", "2", "--method", "shared",
             "--bandwidth-space", "2.0", "--bandwidth-time", "25",
             "--size", "32x24", "--out-prefix", str(prefix)]
        )
        assert code == 0
        assert (tmp_path / "shared_000.ppm").exists()
        assert (tmp_path / "shared_001.ppm").exists()

    def test_zero_frames_is_clean_usage_error(self, st_events_csv, capsys):
        """--frames 0 must die in argparse, not a numpy traceback."""
        with pytest.raises(SystemExit) as exc:
            main(
                ["stkdv", str(st_events_csv), "--frames", "0",
                 "--bandwidth-space", "2.0", "--bandwidth-time", "25"]
            )
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err


class TestStreamCommand:
    def test_simulated_feed_smoke(self, capsys):
        code = main(["stream", "--events", "400", "--window", "200",
                     "--step", "80", "--size", "48x32"])
        assert code == 0
        out = capsys.readouterr().out
        assert "streamed 400 events" in out
        assert "window holds 200" in out
        assert "re-scatters" in out
        assert "K(s)" in out

    def test_csv_replay_with_times(self, st_events_csv, capsys):
        code = main(["stream", str(st_events_csv), "--window", "120",
                     "--step", "50", "--size", "48x32"])
        assert code == 0
        out = capsys.readouterr().out
        assert "window holds 120" in out

    def test_csv_without_times_uses_arrival_order(self, events_csv, capsys):
        code = main(["stream", str(events_csv), "--window", "100",
                     "--size", "32x24"])
        assert code == 0
        assert "window holds 100" in capsys.readouterr().out

    def test_horizon_mode_and_outputs(self, tmp_path, capsys):
        out_ppm = tmp_path / "stream.ppm"
        code = main(["stream", "--events", "300", "--horizon", "5.0",
                     "--step", "60", "--size", "48x32",
                     "--out", str(out_ppm), "--ascii"])
        assert code == 0
        assert out_ppm.exists()
        out = capsys.readouterr().out
        assert "horizon 5" in out

    def test_trace_prints_stream_spans(self, capsys):
        code = main(["stream", "--events", "300", "--window", "150",
                     "--step", "60", "--size", "32x24", "--trace"])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "stream.kdv" in out

    def test_zero_events_is_clean_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stream", "--events", "0"])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err


class TestTraceFlag:
    def test_kdv_trace_prints_span_tree(self, events_csv, capsys):
        code = main(
            ["kdv", str(events_csv), "--bandwidth", "1.5",
             "--size", "32x24", "--trace"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "kdv.points" in out

    def test_trace_json_dump(self, events_csv, tmp_path, capsys):
        import json

        dump = tmp_path / "trace.json"
        code = main(
            ["kdv", str(events_csv), "--bandwidth", "1.5",
             "--size", "32x24", "--trace-json", str(dump)]
        )
        assert code == 0
        payload = json.loads(dump.read_text())
        assert payload["counters"]
        assert payload["span"]["name"] == "trace"

    def test_kfunction_trace_counts_simulations(self, events_csv, capsys):
        code = main(
            ["kfunction", str(events_csv), "--simulations", "5",
             "--seed", "3", "--trace"]
        )
        assert code == 0
        assert "kfunction.simulations = 5" in capsys.readouterr().out

    def test_stkdv_trace(self, st_events_csv, tmp_path, capsys):
        code = main(
            ["stkdv", str(st_events_csv), "--bandwidth-space", "1.5",
             "--bandwidth-time", "20", "--frames", "2",
             "--size", "16x12", "--out-prefix", str(tmp_path / "frame"),
             "--trace"]
        )
        assert code == 0
        assert "stkdv.points" in capsys.readouterr().out

    def test_trace_counters_worker_invariant(self, events_csv, capsys):
        outputs = []
        for workers in ("1", "2", "4"):
            code = main(
                ["kdv", str(events_csv), "--bandwidth", "1.5",
                 "--size", "32x24", "--workers", workers, "--trace"]
            )
            assert code == 0
            out = capsys.readouterr().out
            counters = [line.strip() for line in out.splitlines()
                        if line.strip().startswith(". ")]
            assert counters
            outputs.append(counters)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_trace_off_no_tree(self, events_csv, capsys):
        code = main(
            ["kdv", str(events_csv), "--bandwidth", "1.5", "--size", "32x24"]
        )
        assert code == 0
        assert "trace:" not in capsys.readouterr().out
