import json

import pytest

from edgerecon.cli import (EXIT_CONFIG_ERROR, EXIT_OK, EXIT_TRACE_ERROR, main)
from edgerecon.metrics import read_frame_log, recount_reliability


def run_cli(*argv):
    return main(list(argv))


def write_config(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


SMALL_CONFIG = """
n_frames: 120
seed: 11
camera_policy: qlearning
server_policy: round_robin
"""


class TestGenTraces:
    def test_true_default_writes_4000_rows(self, tmp_path):
        assert run_cli("gen-traces", "--out", str(tmp_path)) == EXIT_OK
        assert len((tmp_path / "cameras.csv").read_text().splitlines()) == 4001
        assert len((tmp_path / "servers.csv").read_text().splitlines()) == 4001
        events = json.loads((tmp_path / "events.json").read_text())
        assert len(events["camera_bumps"]) == 10
        assert len(events["server_spikes"]) == 10

    def test_default_scenario_row_count(self, tmp_path, capsys):
        assert run_cli("gen-traces", "--out", str(tmp_path), "--frames", "200") == EXIT_OK
        cam_lines = (tmp_path / "cameras.csv").read_text().splitlines()
        srv_lines = (tmp_path / "servers.csv").read_text().splitlines()
        assert len(cam_lines) == 201   # header + one row per frame
        assert len(srv_lines) == 201
        assert cam_lines[0] == "frame,cam_1,cam_2,cam_3,cam_4,cam_5"
        assert srv_lines[0] == "frame,srv_1_ms,srv_2_ms,srv_3_ms,srv_4_ms"
        assert (tmp_path / "events.json").exists()

    def test_tiny_frame_override(self, tmp_path):
        assert run_cli("gen-traces", "--out", str(tmp_path), "--frames", "10") == EXIT_OK
        assert len((tmp_path / "cameras.csv").read_text().splitlines()) == 11

    def test_same_seed_identical_files(self, tmp_path):
        for sub in ("a", "b"):
            assert run_cli("gen-traces", "--out", str(tmp_path / sub),
                           "--seed", "3", "--frames", "60") == EXIT_OK
        for name in ("cameras.csv", "servers.csv", "events.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestRun:
    def test_malformed_config_exits_with_schema_message(self, tmp_path, capsys):
        config = write_config(tmp_path, "camera_policy: nonsense\n")
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path)) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "config error" in err
        assert "camera_policy" in err

    @pytest.mark.parametrize("text, field", [
        ("quality:\n  noise_sd: .nan\n", "quality.noise_sd"),
        ("thresholds:\n  theta: .nan\n", "thresholds.theta"),
        ("n_frames: 20.5\n", "n_frames"),
        ("n_frames: true\n", "n_frames"),
    ])
    def test_non_finite_or_non_integer_value_exits_config_error(self, tmp_path, capsys,
                                                                text, field):
        config = write_config(tmp_path, text)
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path)) == EXIT_CONFIG_ERROR
        assert field in capsys.readouterr().err

    def test_unparseable_yaml(self, tmp_path, capsys):
        config = write_config(tmp_path, "n_frames: [unclosed\n")
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path)) == EXIT_CONFIG_ERROR

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        assert run_cli("run", "--config", str(tmp_path / "absent.yaml"),
                       "--out", str(tmp_path)) == EXIT_CONFIG_ERROR
        assert "not found" in capsys.readouterr().err

    def test_emits_all_four_output_files(self, tmp_path):
        config = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(config), "--out", str(out)) == EXIT_OK
        for name in ("frames.csv", "summary.json", "qtable_camera.json", "qtable_server.json"):
            assert (out / name).exists(), name

    def test_summary_matches_frame_log_recount(self, tmp_path):
        config = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(config), "--out", str(out)) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        reliable, total = recount_reliability(out / "frames.csv")
        assert summary["frames"] == total
        assert summary["reliable_frames"] == reliable
        assert summary["reliability_pct"] == pytest.approx(100.0 * reliable / total)

    def test_replay_byte_identical(self, tmp_path):
        config = write_config(tmp_path, SMALL_CONFIG)
        for sub in ("a", "b"):
            assert run_cli("run", "--config", str(config), "--out", str(tmp_path / sub)) == EXIT_OK
        assert ((tmp_path / "a/frames.csv").read_bytes()
                == (tmp_path / "b/frames.csv").read_bytes())

    def test_qtable_snapshot_loadable(self, tmp_path):
        config = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "out"
        run_cli("run", "--config", str(config), "--out", str(out))
        snapshot = json.loads((out / "qtable_camera.json").read_text())
        assert snapshot["n_actions"] == 26
        assert snapshot["rows"]
        # Round-robin server learns nothing; snapshot is an empty table.
        server_snap = json.loads((out / "qtable_server.json").read_text())
        assert server_snap["rows"] == {}

    def test_runs_from_saved_traces(self, tmp_path):
        traces = tmp_path / "traces"
        assert run_cli("gen-traces", "--out", str(traces), "--frames", "120", "--seed", "11") == EXIT_OK
        config = write_config(tmp_path, SMALL_CONFIG + f"traces_dir: {traces}\n")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(config), "--out", str(out)) == EXIT_OK

    def test_missing_trace_dir_is_trace_error(self, tmp_path):
        config = write_config(tmp_path, SMALL_CONFIG + "traces_dir: /nonexistent/nowhere\n")
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path)) == EXIT_TRACE_ERROR


class TestCompare:
    def test_camera_axis_lists_five_policies(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert run_cli("compare", "--axis", "camera", "--frames", "80",
                       "--out", str(out)) == EXIT_OK
        payload = json.loads((out / "comparison.json").read_text())
        assert [row["policy"] for row in payload["summary"]] == [
            "qlearning", "greedy3", "bandit", "adaptive_q", "random"]
        table = capsys.readouterr().out
        assert "Q-learning" in table and "Greedy-3" in table

    def test_server_axis_lists_four_policies(self, tmp_path):
        out = tmp_path / "cmp"
        assert run_cli("compare", "--axis", "server", "--frames", "80",
                       "--out", str(out)) == EXIT_OK
        payload = json.loads((out / "comparison.json").read_text())
        assert [row["policy"] for row in payload["summary"]] == [
            "round_robin", "latency_greedy", "qlearning", "adaptive_q"]

    def test_single_policy_axis_degenerates_to_run(self, tmp_path):
        out = tmp_path / "cmp"
        assert run_cli("compare", "--axis", "camera", "--frames", "80",
                       "--policies", "greedy3", "--out", str(out)) == EXIT_OK
        payload = json.loads((out / "comparison.json").read_text())
        assert [row["policy"] for row in payload["summary"]] == ["greedy3"]

    def test_unknown_policy_rejected(self, tmp_path, capsys):
        assert run_cli("compare", "--axis", "camera", "--policies", "nope",
                       "--out", str(tmp_path)) == EXIT_CONFIG_ERROR

    def test_all_episodes_failing_is_runtime_error(self, tmp_path, capsys):
        # Events that cannot be placed fail inside each episode; the grid
        # isolates them and compare reports a runtime failure.
        config = write_config(tmp_path, """
n_frames: 12
disruption:
  n_bump_events: 50
  mean_bump_len: 6
""")
        from edgerecon.cli import EXIT_RUNTIME_ERROR
        code = run_cli("compare", "--axis", "camera", "--config", str(config),
                       "--out", str(tmp_path / "cmp"))
        assert code == EXIT_RUNTIME_ERROR
        assert "failed" in capsys.readouterr().err

    def test_histogram_csvs_written_per_policy(self, tmp_path):
        out = tmp_path / "cmp"
        run_cli("compare", "--axis", "server", "--frames", "80", "--out", str(out))
        for policy in ("round_robin", "latency_greedy", "qlearning", "adaptive_q"):
            assert (out / f"{policy}_subsets.csv").exists()
            assert (out / f"{policy}_servers.csv").exists()


class TestFrameLogContents:
    def test_log_columns_and_values(self, tmp_path):
        config = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "out"
        run_cli("run", "--config", str(config), "--out", str(out))
        rows = read_frame_log(out / "frames.csv")
        assert len(rows) == 120
        for row in rows[:10]:
            assert row["total_s"] == pytest.approx(row["tx_s"] + row["recon_s"])
            assert row["reliable"] in (0, 1)
            assert len(row["mask"]) == 5
