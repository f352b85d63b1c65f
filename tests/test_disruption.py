import numpy as np
import pytest

from edgerecon.disruption import (DEFAULT_CORRELATION_GROUPS, DisruptionParams,
                                  generate_camera_trace, generate_server_trace, load_traces,
                                  save_traces, write_event_log)
from edgerecon.errors import ConfigError, TraceFormatError, TraceSchemaError


class TestParamsValidation:
    @pytest.mark.parametrize("kwargs", [
        {"n_frames": 0},
        {"n_bump_events": -1},
        {"disruption_threshold": 0.0},
        {"disruption_threshold": 1.0},
        {"spike_range_ms": (1200.0, 400.0)},
        {"spike_range_ms": (-1.0, 400.0)},
        {"correlation_groups": ((0, 9),)},            # camera out of range
        {"correlation_groups": ((0, 1), (1, 2))},     # camera listed twice
        {"correlation_groups": ()},
        {"server_jitter_ms": 200.0},                  # exceeds baseline
        {"spike_servers": (7,)},
        {"seed": -3},
        {"mean_bump_len": 0},
    ])
    def test_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            DisruptionParams(**kwargs).validate()

    def test_error_names_field(self):
        with pytest.raises(ConfigError, match="disruption_threshold"):
            DisruptionParams(disruption_threshold=2.0).validate()

    @pytest.mark.parametrize("n_cameras, groups", [
        (1, ((0,),)), (2, ((0, 1),)), (3, ((0, 1), (2,))), (4, ((0, 1), (2,), (3,))),
        (5, DEFAULT_CORRELATION_GROUPS), (12, DEFAULT_CORRELATION_GROUPS)])
    def test_default_groups_drop_absent_cameras(self, n_cameras, groups):
        params = DisruptionParams(n_frames=400, n_cameras=n_cameras, n_bump_events=3,
                                  mean_bump_len=5)
        assert params.correlation_groups is None and params.groups == groups
        assert len(generate_camera_trace(params).events) == 3


class TestCameraTrace:
    def test_no_events_means_no_disruption(self):
        trace = generate_camera_trace(DisruptionParams(n_bump_events=0, seed=3))
        assert trace.availability.shape == (4000, 5)
        assert trace.availability.min() == 1

    def test_exact_event_count(self):
        trace = generate_camera_trace(DisruptionParams(seed=7))
        assert len(trace.events) == 10

    def test_values_are_binary(self):
        trace = generate_camera_trace(DisruptionParams(seed=11))
        assert set(np.unique(trace.availability)) <= {0, 1}

    def test_groups_disrupted_jointly(self):
        # Scan the event log against the matrix: inside a bump, every group
        # member is down for the full interval.
        trace = generate_camera_trace(DisruptionParams(seed=7))
        assert any(len(e.cameras) > 1 for e in trace.events)
        for event in trace.events:
            window = trace.availability[event.start:event.stop, list(event.cameras)]
            assert window.shape == (event.length, len(event.cameras))
            assert window.max() == 0

    def test_no_disruption_outside_events(self):
        trace = generate_camera_trace(DisruptionParams(seed=7))
        down = np.zeros_like(trace.availability, dtype=bool)
        for event in trace.events:
            down[event.start:event.stop, list(event.cameras)] = True
        assert np.array_equal(trace.availability == 0, down)

    def test_events_on_same_group_never_overlap(self):
        trace = generate_camera_trace(DisruptionParams(seed=13))
        by_group: dict[tuple, list] = {}
        for event in trace.events:
            by_group.setdefault(event.cameras, []).append((event.start, event.stop))
        for spans in by_group.values():
            spans.sort()
            for (s0, e0), (s1, _e1) in zip(spans, spans[1:]):
                assert e0 <= s1

    def test_determinism(self):
        a = generate_camera_trace(DisruptionParams(seed=7))
        b = generate_camera_trace(DisruptionParams(seed=7))
        assert np.array_equal(a.availability, b.availability)
        assert a.events == b.events

    def test_disrupted_fraction_band(self):
        # Band frozen from a 20-seed pilot: per-camera in [0.40%, 9.78%],
        # per-seed mean across cameras in [2.18%, 5.92%].
        for seed in range(20):
            trace = generate_camera_trace(DisruptionParams(seed=seed))
            per_cam = 1.0 - trace.availability.mean(axis=0)
            assert per_cam.min() >= 0.001
            assert per_cam.max() <= 0.20
            assert 0.015 <= per_cam.mean() <= 0.08

    def test_impossible_placement_rejected(self):
        # 3 groups x 10 frames gives 30 event-slots at best; 40 events cannot fit.
        params = DisruptionParams(n_frames=10, n_bump_events=40, mean_bump_len=5, seed=1)
        with pytest.raises(ConfigError, match="overlap"):
            generate_camera_trace(params)


class TestServerTrace:
    def test_no_spikes_stay_in_jitter_band(self):
        params = DisruptionParams(n_spike_events=0, seed=5)
        trace = generate_server_trace(params)
        assert trace.latency_ms.shape == (4000, 4)
        assert trace.latency_ms.min() >= 150.0 - 10.0
        assert trace.latency_ms.max() <= 150.0 + 10.0

    def test_spiked_entries_within_bounds(self):
        # Additive magnitude is uniform in [400, 1200] on top of baseline + jitter.
        params = DisruptionParams(seed=7)
        trace = generate_server_trace(params)
        assert len(trace.events) == 10
        for event in trace.events:
            assert 400.0 <= event.added_ms <= 1200.0
            window = trace.latency_ms[event.start:event.stop, event.server]
            assert window.min() >= 150.0 - 10.0 + 400.0
            assert window.max() <= 150.0 + 10.0 + 1200.0

    def test_spike_events_reference_single_server(self):
        trace = generate_server_trace(DisruptionParams(seed=9))
        for event in trace.events:
            assert isinstance(event.server, int)
            assert 0 <= event.server < 4

    def test_unspiked_cells_at_baseline(self):
        params = DisruptionParams(seed=21)
        trace = generate_server_trace(params)
        spiked = np.zeros_like(trace.latency_ms, dtype=bool)
        for event in trace.events:
            spiked[event.start:event.stop, event.server] = True
        clean = trace.latency_ms[~spiked]
        assert clean.min() >= 140.0 and clean.max() <= 160.0

    def test_spike_servers_subset_respected(self):
        params = DisruptionParams(seed=3, spike_servers=(1, 3))
        trace = generate_server_trace(params)
        assert {e.server for e in trace.events} <= {1, 3}
        col0 = trace.latency_ms[:, 0]
        assert col0.max() <= 160.0

    def test_determinism(self):
        a = generate_server_trace(DisruptionParams(seed=7))
        b = generate_server_trace(DisruptionParams(seed=7))
        assert np.array_equal(a.latency_ms, b.latency_ms)

    def test_nonnegative(self):
        for seed in range(5):
            trace = generate_server_trace(DisruptionParams(seed=seed))
            assert trace.latency_ms.min() >= 0.0


class TestTraceIO:
    def _small(self, seed=7):
        params = DisruptionParams(n_frames=60, seed=seed)
        return generate_camera_trace(params), generate_server_trace(params)

    def test_round_trip(self, tmp_path):
        camera, server = self._small()
        save_traces(camera, server, tmp_path)
        loaded_cam, loaded_srv = load_traces(tmp_path)
        assert np.array_equal(camera.availability, loaded_cam.availability)
        assert np.array_equal(server.latency_ms, loaded_srv.latency_ms)

    def test_same_seed_identical_files(self, tmp_path):
        for sub in ("a", "b"):
            camera, server = self._small()
            save_traces(camera, server, tmp_path / sub)
        assert (tmp_path / "a/cameras.csv").read_bytes() == (tmp_path / "b/cameras.csv").read_bytes()
        assert (tmp_path / "a/servers.csv").read_bytes() == (tmp_path / "b/servers.csv").read_bytes()

    def test_non_binary_availability_cell(self, tmp_path):
        camera, server = self._small()
        save_traces(camera, server, tmp_path)
        path = tmp_path / "cameras.csv"
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace(",1", ",2", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match="line 4"):
            load_traces(tmp_path)

    def test_frame_index_mismatch(self, tmp_path):
        camera, server = self._small()
        save_traces(camera, server, tmp_path)
        path = tmp_path / "cameras.csv"
        lines = path.read_text().splitlines()
        del lines[5]   # drop a row: later frame indices no longer match positions
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceSchemaError, match="frame index"):
            load_traces(tmp_path)

    def test_negative_latency_cell(self, tmp_path):
        camera, server = self._small()
        save_traces(camera, server, tmp_path)
        path = tmp_path / "servers.csv"
        lines = path.read_text().splitlines()
        first_cell = lines[2].split(",")[1]
        lines[2] = lines[2].replace(first_cell, f"-{first_cell}", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match=">= 0"):
            load_traces(tmp_path)

    def test_bad_header(self, tmp_path):
        camera, server = self._small()
        save_traces(camera, server, tmp_path)
        path = tmp_path / "cameras.csv"
        text = path.read_text().replace("cam_1", "camera_1")
        path.write_text(text)
        with pytest.raises(TraceSchemaError, match="header"):
            load_traces(tmp_path)

    def test_mismatched_lengths_rejected(self, tmp_path):
        camera, _ = self._small()
        params = DisruptionParams(n_frames=50, seed=7)
        server = generate_server_trace(params)
        with pytest.raises(TraceSchemaError):
            save_traces(camera, server, tmp_path)

    def test_event_log_written(self, tmp_path):
        camera, server = self._small()
        path = tmp_path / "events.json"
        write_event_log(camera, server, path)
        import json
        payload = json.loads(path.read_text())
        assert len(payload["camera_bumps"]) == len(camera.events)
        assert len(payload["server_spikes"]) == len(server.events)
