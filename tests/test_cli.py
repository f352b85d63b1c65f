import json
import time
from math import nan

import pytest

from edgerecon.cli import (EXIT_CONFIG_ERROR, EXIT_OK, EXIT_TRACE_ERROR, main)
from edgerecon.environment import QualityModel, write_quality_trace
from edgerecon.masks import bitstring
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

    @pytest.mark.parametrize("text, field", [
        ("quality:\n  mode: trace\n  trace_path: 7\n", "quality.trace_path"),
        ("traces_dir: 5\n", "traces_dir"),
        ("camera_agent:\n  adaptive: \"no\"\n", "camera_agent.adaptive"),
        ("server_agent:\n  adaptive: 1\n", "server_agent.adaptive"),
    ], ids=["fd-trace-path", "int-traces-dir", "string-adaptive", "int-adaptive"])
    def test_mistyped_path_or_flag_exits_config_error(self, tmp_path, capsys, text, field):
        # An int path would open an inherited file descriptor, and the string
        # "no" is truthy: both fail at the boundary instead.
        config = write_config(tmp_path, SMALL_CONFIG + text)
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "out")) \
            == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert field in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, field", [
        ("latency:\n  server_speed_factor: 3\n", "latency.server_speed_factor"),
        ("disruption:\n  correlation_groups: [[0.5]]\n", "disruption.correlation_groups"),
        ("disruption:\n  spike_servers: [1.5]\n", "disruption.spike_servers"),
        ("disruption:\n  correlation_groups: \"ab\"\n", "disruption.correlation_groups"),
        ("disruption:\n  correlation_groups: [0, 1]\n", "disruption.correlation_groups"),
        ("disruption:\n  spike_range_ms: 500\n", "disruption.spike_range_ms"),
        ("quality:\n  camera_weights: 2\n", "quality.camera_weights"),
    ], ids=["scalar-speed-factor", "float-camera", "float-server", "string-groups", "flat-groups",
            "scalar-spike-range", "scalar-weights"])
    def test_mistyped_list_exits_config_error(self, tmp_path, capsys, text, field):
        # With one bump and one spike in 200 frames, a float camera or server
        # index would reach numpy indexing inside trace generation.
        if text.startswith("disruption"):
            text += "  n_bump_events: 1\n  n_spike_events: 1\n"
        config = write_config(tmp_path, "n_frames: 200\nseed: 1\n" + text)
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "out")) \
            == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert field in err
        assert "not supported" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, field", [
        ("quality:\n  camera_weights: [1.0, 2.0]\n", "quality.camera_weights"),
        ("quality:\n  camera_weights: [1.0, 1.0, 1.0, 1.0, -1.0]\n", "quality.camera_weights"),
        ("n_cameras: 6\nk_max: 3\n", "quality.camera_weights"),
        ("quality:\n  ceiling: -5\n", "quality.ceiling"),
        ("quality:\n  curve: 0\n", "quality.curve"),
        ("quality:\n  table: [1, 2]\n", "quality.table"),
        ("quality:\n  table: abc\n", "quality.table"),
        ("n_cameras: 2\nk_max: 2\ndisruption:\n  correlation_groups: [[0, 1]]\n"
         "quality:\n  table: {\"11\": -1.0}\n", "quality.table"),
        ("quality:\n  noise_sd: 1.0e+308\n", "quality.noise_sd"),
        ("disruption:\n  server_baseline_ms: 1.0e+308\n  server_jitter_ms: 1.0e+308\n",
         "disruption.server_jitter_ms"),
        ("disruption:\n  server_baseline_ms: 1.0e+308\n  spike_range_ms: [0.0, 1.7e+308]\n",
         "disruption.spike_range_ms"),
        ("disruption:\n  spike_range_ms: [100.0, .inf]\n", "disruption.spike_range_ms"),
        ("disruption:\n  mean_bump_len: 1" + "0" * 400 + "\n", "disruption.mean_bump_len"),
        ("latency:\n  per_image_tx_ms: 1.0e+308\n", "latency.per_image_tx_ms"),
        ("latency:\n  recon_base_ms: 1.0e+308\n  recon_per_image_ms: 1.0e+308\n"
         "  server_speed_factor: [0, 1, 1, 1]\n", "latency.recon_per_image_ms"),
        ("camera_agent:\n  degradation_window: 1" + "0" * 400 + "\n",
         "camera_agent.degradation_window"),
        ("bandit_epsilon: 1" + "0" * 400 + "\n", "bandit_epsilon"),
        ("n_cameras: 3\nk_max: 3\nquality:\n"
         "  table: {\"110\": 300.0, \"101\": 300.0, \"011\": 300.0, \"111\": 100.0}\n",
         "quality.table: quality table not monotone: 111 < 011"),
        ("latency:\n  recon_per_image_ms: .nan\n", "latency.recon_per_image_ms"),
        ("disruption:\n  server_jitter_ms: .nan\n", "disruption.server_jitter_ms"),
        ("disruption:\n  spike_range_ms: [100.0, .nan]\n", "disruption.spike_range_ms"),
        ("quality:\n  table: {\"11000\": 300.0}\n", "quality.table has no entry for subset 00011"),
    ], ids=["weights-length", "negative-weight", "weights-missing", "ceiling", "curve",
            "list-table", "string-table", "negative-table", "huge-noise", "huge-jitter",
            "huge-spike", "infinite-spike", "huge-bump-len", "huge-tx", "huge-recon",
            "huge-window", "huge-int-real", "non-monotone-table", "nan-latency", "nan-jitter",
            "nan-spike", "partial-table"])
    def test_bad_value_exits_config_error_before_out_exists(self, tmp_path, capsys, text, field):
        # Each of these used to reach the quality model or trace generation
        # (exit 2 or 4 after --out was made, or a trace with inf written).
        config = write_config(tmp_path, "n_frames: 20\nseed: 1\n" + text)
        for command in ("gen-traces", "run"):
            assert run_cli(command, "--config", str(config), "--out", str(tmp_path / "out")) \
                == EXIT_CONFIG_ERROR
            assert field in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, message", [
        ("n_cameras: 3\nk_max: 3\ndisruption:\n  n_bump_events: 10\n"
         "  correlation_groups: [[0, 1], [2]]\n",
         "could not place 10 non-overlapping camera bump events in 20 frames"),
    ], ids=["unplaceable-bumps"])
    def test_episode_error_exits_before_out_exists(self, tmp_path, capsys, text, message):
        # Found only once the episode starts; --out is made after it ends.
        config = write_config(tmp_path, "n_frames: 20\nseed: 1\n" + text)
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "out")) \
            == EXIT_CONFIG_ERROR
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_fewer_cameras_than_the_default_groups_runs(self, tmp_path):
        # The default correlation groups drop the cameras a 3-camera rig lacks.
        config = write_config(tmp_path, "n_frames: 20\nn_cameras: 3\nk_max: 3\n")
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "out")) == EXIT_OK

    def test_overflowing_replayed_latency_is_trace_error(self, tmp_path, capsys):
        # Each cell is finite, but 1.7e308 plus 5 x 1e307 ms of transfer is not.
        traces = tmp_path / "traces"
        assert run_cli("gen-traces", "--out", str(traces), "--frames", "5") == EXIT_OK
        servers = traces / "servers.csv"
        lines = servers.read_bytes().split(b"\r\n")
        lines[1] = b"0,1.7e308" + lines[1][lines[1].index(b",", 2):]
        servers.write_bytes(b"\r\n".join(lines))
        config = write_config(tmp_path, f"n_frames: 5\nserver_policy: latency_greedy\n"
                                        f"traces_dir: {traces}\nlatency:\n  per_image_tx_ms: 1.0e+307\n")
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "out")) \
            == EXIT_TRACE_ERROR
        assert f"trace error: {servers}: a latency of 1.7e+308 ms" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_overflowing_quality_curve_takes_its_limit(self, tmp_path):
        # 2.6 * (1.6 - 400) is far below -709: exp overflows in the logistic,
        # whose limit there is 0.0.
        config = write_config(tmp_path, SMALL_CONFIG + "quality:\n  midpoint: 400\n")
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "out")) == EXIT_OK
        rows = read_frame_log(tmp_path / "out" / "frames.csv")
        assert max(float(row["quality"]) for row in rows) < 400

    def test_too_many_cameras_exits_config_error_at_once(self, tmp_path, capsys):
        # 30 cameras would mean tables over 2**30 masks; the cap stops the
        # run before anything is enumerated.
        weights = ", ".join(["0.5"] * 30)
        config = write_config(tmp_path, f"n_cameras: 30\nk_max: 3\nquality:\n"
                                        f"  camera_weights: [{weights}]\n")
        start = time.perf_counter()
        code = run_cli("run", "--config", str(config), "--out", str(tmp_path / "out"))
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_CONFIG_ERROR
        assert "n_cameras" in capsys.readouterr().err

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

    @pytest.mark.parametrize("corrupt, message", [
        (lambda path: path.write_bytes(path.read_bytes() + b"\xff"), "cannot decode byte b'\\xff'"),
        (lambda path: path.write_text(f"{path.read_text()}120,{'1' * 200_000}\r\n"),
         "field larger than field limit"),
    ], ids=["undecodable-byte", "oversized-cell"])
    def test_unreadable_trace_file_is_trace_error(self, tmp_path, capsys, corrupt, message):
        traces = tmp_path / "traces"
        assert run_cli("gen-traces", "--out", str(traces), "--frames", "120", "--seed", "11") == EXIT_OK
        corrupt(traces / "cameras.csv")
        config = write_config(tmp_path, SMALL_CONFIG + f"traces_dir: {traces}\n")
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "out")) == EXIT_TRACE_ERROR
        err = capsys.readouterr().err
        assert "trace error: line 122:" in err and message in err

    @pytest.mark.parametrize("frames, cell, code, message", [
        (100, None, EXIT_CONFIG_ERROR, "config error: quality trace covers 100 frames, need 120"),
        (120, "nan", EXIT_TRACE_ERROR, "trace error: line 3: quality must be finite"),
    ], ids=["short-trace", "nan-cell"])
    def test_bad_quality_trace(self, tmp_path, capsys, frames, cell, code, message):
        trace = tmp_path / "quality.csv"
        write_quality_trace(trace, QualityModel.synthetic(5), n_frames=frames)
        if cell is not None:
            lines = trace.read_text().splitlines()
            lines[2] = lines[2].rsplit(",", 1)[0] + "," + cell
            trace.write_text("\n".join(lines) + "\n")
        config = write_config(tmp_path, SMALL_CONFIG
                              + f"quality:\n  mode: trace\n  trace_path: {trace}\n")
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "out")) == code
        assert message in capsys.readouterr().err

    @staticmethod
    def k_max_3_trace_config(tmp_path, name, max_views=5, drop=()):
        """A k_max: 3 config replaying the synthetic 5-camera trace from its columns of
        at most ``max_views`` cameras, less those named in ``drop``."""
        table = QualityModel.synthetic(5).table
        table[[mask for mask in range(32)
               if mask.bit_count() > max_views or bitstring(mask, 5) in drop]] = nan
        write_quality_trace(tmp_path / f"{name}.csv", QualityModel(table), n_frames=120)
        return write_config(tmp_path, SMALL_CONFIG + "k_max: 3\nquality:\n  mode: trace\n"
                            f"  trace_path: {tmp_path / name}.csv\n", f"{name}.yaml")

    def test_trace_without_columns_above_k_max_replays_alike(self, tmp_path):
        # A k_max: 3 run only looks up subsets of 2 or 3 cameras, so a trace
        # of just those columns replays as the full trace does.
        full = self.k_max_3_trace_config(tmp_path, "full")
        narrow = self.k_max_3_trace_config(tmp_path, "narrow", max_views=3)
        assert "11110" in (tmp_path / "full.csv").read_text()
        assert "11110" not in (tmp_path / "narrow.csv").read_text()
        for config, out in ((full, "out-full"), (narrow, "out-narrow")):
            assert run_cli("run", "--config", str(config), "--out", str(tmp_path / out)) == EXIT_OK
        for name in ("frames.csv", "qtable_camera.json", "qtable_server.json"):
            assert ((tmp_path / "out-full" / name).read_bytes()
                    == (tmp_path / "out-narrow" / name).read_bytes())

    def test_trace_missing_a_reachable_column_is_trace_error(self, tmp_path, capsys):
        config = self.k_max_3_trace_config(tmp_path, "quality", max_views=3, drop=("01011",))
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "out")) == EXIT_TRACE_ERROR
        err = capsys.readouterr().err
        assert f"trace error: {tmp_path / 'quality.csv'}: missing 1 subset columns: 01011\n" in err
        assert not (tmp_path / "out").exists()

    def test_missing_trace_dir_is_trace_error(self, tmp_path):
        config = write_config(tmp_path, SMALL_CONFIG + "traces_dir: /nonexistent/nowhere\n")
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path)) == EXIT_TRACE_ERROR

    def test_config_naming_a_directory_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(tmp_path), "--out", str(out)) == EXIT_CONFIG_ERROR
        assert f"config error: cannot read config file {tmp_path}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_that_is_not_utf8_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_bytes(b"seed: 1\n\xff\n")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(config), "--out", str(out)) == EXIT_CONFIG_ERROR
        assert f"config error: {config}: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "gen-traces"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--frames", "0", "n_frames must lie in [1, inf), got 0"),
        ("--seed", "-1", "seed must lie in [0, inf), got -1"),
    ])
    def test_bad_override_without_config_names_its_field(self, tmp_path, capsys, command, flag,
                                                          value, message):
        # The preset is validated as a --config file is, so the error names
        # the top-level field, not the disruption section sized from it.
        out = tmp_path / "out"
        assert run_cli(command, flag, value, "--out", str(out)) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["traces_dir", "quality_trace_path"])
    def test_trace_path_of_the_wrong_kind_is_trace_error(self, tmp_path, capsys, key):
        # traces_dir names a file; quality.trace_path names a directory.
        if key == "traces_dir":
            path = write_config(tmp_path, "", name="not-a-directory")
            text = SMALL_CONFIG + f"traces_dir: {path}\n"
        else:
            path = tmp_path
            text = SMALL_CONFIG + f"quality:\n  mode: trace\n  trace_path: {path}\n"
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(config), "--out", str(out)) == EXIT_TRACE_ERROR
        assert f"trace error: {path}" in capsys.readouterr().err
        assert not out.exists()


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

    def test_repeated_policy_rejected(self, tmp_path, capsys):
        # Each name keys one row of the report, so a repeat would overwrite its histograms.
        out = tmp_path / "cmp"
        assert run_cli("compare", "--axis", "camera", "--policies", "qlearning,greedy3,qlearning",
                       "--frames", "20", "--out", str(out)) == EXIT_CONFIG_ERROR
        assert "'qlearning' more than once" in capsys.readouterr().err
        assert not out.exists()

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
