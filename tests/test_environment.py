import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgerecon.config import ExperimentConfig
from edgerecon.controller import build_quality_model
from edgerecon.disruption import CameraTrace, DisruptionParams, ServerLatencyTrace, generate_camera_trace
from edgerecon.environment import (MIN_VIEWS, LatencyModel, QualityModel, QualitySpec,
                                   load_quality_trace, missing_subsets, step, write_quality_trace)
from edgerecon.errors import ConfigError, TraceFormatError, TraceSchemaError
from edgerecon.masks import MAX_CAMERAS, bitstring, mask_from_str, subsets
from edgerecon.metrics import Thresholds
from references import synthetic_quality_table

THR = Thresholds(theta=400.0, phi_total_s=3.0, phi_recon_s=1.0)


def clean_traces(frames=20, n_cameras=3, n_servers=2, latency_ms=150.0):
    camera = CameraTrace(availability=np.ones((frames, n_cameras), dtype=np.uint8))
    server = ServerLatencyTrace(latency_ms=np.full((frames, n_servers), latency_ms))
    return camera, server


def table3(base_full=600.0):
    # Explicit monotone table for 3 cameras.
    return {"011": 350.0, "101": 360.0, "110": 370.0, "111": base_full}


class TestMaskHelpers:
    def test_round_trip(self):
        assert mask_from_str("01101") == 0b01101
        assert bitstring(0b01101, 5) == "01101"

    def test_bad_string(self):
        for text in ("01201", "", " 11", "1_1", "+11"):
            with pytest.raises(ValueError):
                mask_from_str(text)

    def test_apply_availability(self):
        # step drops the cameras that the frame's availability row marks as down.
        camera, server = clean_traces()
        camera.availability[0] = (1, 0, 1)
        model = QualityModel.synthetic(3, table=table3())
        out = step(0, 0b110, 0, camera, server, model, LatencyModel(), THR)
        assert out.effective_mask == 0b100

    def test_enumeration_size(self):
        # For 5 cameras: C(5,2)+C(5,3)+C(5,4)+C(5,5) = 26 subsets of >= 2 views.
        assert len(subsets(5, MIN_VIEWS, 5)) == 26

    def test_integer_round_trip(self):
        for n in range(1, 7):
            for value in range(1 << n):
                text = bitstring(value, n)
                assert len(text) == n
                assert mask_from_str(text) == value
        assert bitstring(0b01011, 5) == "01011"

    @pytest.mark.parametrize("value", [0b100011, 1 << 5, -1, -(1 << 5)])
    def test_step_rejects_mask_out_of_range(self, value):
        camera, server = clean_traces(n_cameras=5)
        with pytest.raises(ValueError, match=str(value)):
            step(0, value, 0, camera, server, QualityModel.synthetic(5), LatencyModel(), THR)


class TestSyntheticTable:
    def test_default_shape_matches_design_targets(self):
        table = synthetic_quality_table(5)
        full = table["11111"]
        pairs = [v for m, v in table.items() if m.count("1") == 2]
        triples = [v for m, v in table.items() if m.count("1") == 3]
        assert full == pytest.approx(658, abs=2)
        assert 255 <= min(pairs) and max(pairs) <= 300
        assert 540 <= min(triples) and max(triples) <= 580

    def test_monotone(self):
        table = synthetic_quality_table(5)
        for mask, base in table.items():
            for cam in range(5):
                if mask[cam] == "1":
                    continue
                grown = mask[:cam] + "1" + mask[cam + 1:]
                assert table[grown] >= base

    def test_overflowing_exponent_takes_the_logistic_limit(self):
        # Every subset's exponent 2.6 * (400 - s) overflows exp; the limit is 0.0.
        table = QualityModel.synthetic(5, midpoint=400.0).table
        assert set(table[~np.isnan(table)]) == {0.0}
        # A steep curve is a step at the midpoint: pairs (weights ~1.6) sit
        # below 1.72 and take the limit, larger subsets reach the ceiling.
        table = QualityModel.synthetic(5, curve=1e308).table
        for mask, value in enumerate(table):
            if mask.bit_count() >= 2:
                assert value == (0.0 if mask.bit_count() == 2 else 660.0)

    def test_non_monotone_explicit_table_rejected(self):
        bad = table3()
        bad["111"] = 100.0   # smaller than its subsets
        with pytest.raises(ConfigError, match="monotone"):
            QualityModel.synthetic(3, table=bad)

    @pytest.mark.parametrize("key", ["11x", "11", "1111", (1, 1, -1), (1, 1, 2)],
                             ids=["letter", "short", "long", "tuple-negative", "tuple-two"])
    def test_bad_table_key_rejected(self, key):
        # A key that is not a 3-character bitstring names no mask, so it
        # must not land on one.
        with pytest.raises(ConfigError, match="key"):
            QualityModel.synthetic(3, table={**table3(), key: 650.0})

    def test_dense_table_equals_dict_table(self):
        # QualityModel.synthetic builds its table over integer masks; every
        # value must be the float synthetic_quality_table computes.
        rng = np.random.default_rng(5)
        cases = [(n, None) for n in range(2, 6)] + [(4, (1, 0, 2, 0)), (3, (0.0, 0.0, 0.0))]
        cases += [(n, tuple(rng.uniform(0, 2, n))) for n in range(2, 13) for _ in range(3)]
        for n, weights in cases:
            expected = np.full(1 << n, np.nan)
            for mask, value in synthetic_quality_table(n, weights).items():
                expected[mask_from_str(mask)] = value
            model = QualityModel.synthetic(n, camera_weights=weights)
            assert model.table.tobytes() == expected.tobytes(), (n, weights)

    @pytest.mark.parametrize("kwargs", [
        {"n_cameras": 6},
        {"n_cameras": 3, "camera_weights": (1.0, 2.0)},
        {"n_cameras": 2, "camera_weights": (1.0, -0.5)},
        {"n_cameras": 2, "ceiling": 0.0},
        {"n_cameras": 2, "curve": -1.0},
    ])
    def test_dense_route_keeps_parameter_errors(self, kwargs):
        for build in (synthetic_quality_table, QualityModel.synthetic):
            with pytest.raises(ConfigError):
                build(**kwargs)

    def test_camera_cap_fails_before_allocating(self):
        # At 21 cameras a table would take ~2 s and ~200 MB to build.
        n = MAX_CAMERAS + 1
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="n_cameras"):
            QualityModel.synthetic(n, camera_weights=[0.5] * n)
        with pytest.raises(ConfigError, match="n_cameras"):
            QualityModel.synthetic(n, table={"1" * n: 600.0})
        with pytest.raises(ConfigError, match="n_cameras"):
            QualityModel(np.zeros(1 << n))
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("shape", [(6,), (3, 6), (0,)])
    def test_table_width_must_be_a_power_of_two(self, shape):
        with pytest.raises(ConfigError, match="width"):
            QualityModel(np.full(shape, 100.0))

    def test_trace_table_needs_a_frame(self, tmp_path):
        # As load_quality_trace rejects a file with no data rows; the writer
        # would otherwise fail on the missing first row.
        with pytest.raises(ConfigError, match="no frames"):
            QualityModel(np.empty((0, 8)))
        write_quality_trace(tmp_path / "one.csv", QualityModel(np.full((1, 8), 100.0)), 1)
        assert load_quality_trace(tmp_path / "one.csv").table.shape == (1, 8)

    def test_weights_length_checked(self):
        with pytest.raises(ConfigError):
            synthetic_quality_table(5, camera_weights=(1.0, 2.0))


class TestStep:
    def test_all_selected_cameras_disrupted(self):
        camera, server = clean_traces()
        camera.availability[4] = 0
        model = QualityModel.synthetic(3, table=table3())
        out = step(4, 0b111, 0, camera, server, model, LatencyModel(), THR)
        assert out.effective_mask == 0
        assert out.quality == 0.0
        assert out.reliable == 0

    def test_noise_free_known_values(self):
        camera, server = clean_traces()
        model = QualityModel.synthetic(3, table=table3(600.0))
        out = step(0, 0b111, 0, camera, server, model, LatencyModel(), THR)
        assert out.quality == 600.0
        # 3 images: tx = 3*350ms + 150ms network = 1.2s; recon = 400 + 3*120 = 760ms.
        assert out.tx_latency_s == pytest.approx(1.2)
        assert out.recon_latency_s == pytest.approx(0.76)
        assert out.total_latency_s == pytest.approx(1.96)
        assert out.reliable == 1

    def test_spike_pushes_past_total_budget(self):
        # Base latencies ~2.2s (tx 1.05 + network 0.4 + recon 0.76); +1s spike breaks 3s.
        camera, server = clean_traces(latency_ms=400.0)
        baseline = step(7, 0b111, 1, camera, server,
                        QualityModel.synthetic(3, table=table3()), LatencyModel(), THR)
        assert baseline.total_latency_s == pytest.approx(2.21)
        assert baseline.reliable == 1
        server.latency_ms[7, 1] += 1000.0
        out = step(7, 0b111, 1, camera, server,
                   QualityModel.synthetic(3, table=table3()), LatencyModel(), THR)
        assert out.total_latency_s > 3.0
        assert out.reliable == 0

    def test_below_min_views_gives_zero_quality(self):
        camera, server = clean_traces()
        camera.availability[0, 0] = 0
        camera.availability[0, 1] = 0
        model = QualityModel.synthetic(3, table=table3())
        out = step(0, 0b110, 0, camera, server, model, LatencyModel(), THR,
                   k_min=2, k_max=3)
        assert out.effective_mask.bit_count() < MIN_VIEWS
        assert out.quality == 0.0

    def test_noise_free_is_pure(self):
        camera, server = clean_traces()
        model = QualityModel.synthetic(3, table=table3())
        a = step(3, 0b101, 1, camera, server, model, LatencyModel(), THR)
        b = step(3, 0b101, 1, camera, server, model, LatencyModel(), THR)
        assert a == b

    def test_noise_requires_rng(self):
        camera, server = clean_traces()
        model = QualityModel.synthetic(3, noise_sd=10.0, table=table3())
        with pytest.raises(ValueError, match="rng"):
            step(0, 0b111, 0, camera, server, model, LatencyModel(), THR)

    def test_noise_clamped_at_zero(self):
        camera, server = clean_traces()
        model = QualityModel.synthetic(3, noise_sd=500.0, table={k: 1.0 for k in table3()})
        rng = np.random.default_rng(0)
        for frame in range(10):
            out = step(frame, 0b111, 0, camera, server, model, LatencyModel(), THR, rng=rng)
            assert out.quality >= 0.0

    def test_quality_monotone_noise_free(self):
        camera, server = clean_traces(n_cameras=5)
        model = QualityModel.synthetic(5)
        masks = subsets(5, MIN_VIEWS, 5)
        results = {}
        for mask in masks:
            results[mask] = step(0, mask, 0, camera, server, model, LatencyModel(), THR).quality
        for small in masks:
            for big in masks:
                if small & big == small:
                    assert results[small] <= results[big] + 1e-9

    def test_latency_monotone_in_cameras(self):
        camera, server = clean_traces(n_cameras=5)
        model = QualityModel.synthetic(5)
        prev_tx = prev_recon = -1.0
        for mask in [0b11000, 0b11100, 0b11110, 0b11111]:
            out = step(0, mask, 0, camera, server, model, LatencyModel(), THR)
            assert out.tx_latency_s > prev_tx
            assert out.recon_latency_s > prev_recon
            prev_tx, prev_recon = out.tx_latency_s, out.recon_latency_s

    def test_disrupted_camera_contributes_nothing(self):
        # A mask including a disrupted camera behaves exactly like the mask without it.
        camera, server = clean_traces(n_cameras=5)
        camera.availability[2, 4] = 0
        model = QualityModel.synthetic(5)
        with_cam = step(2, 0b11101, 0, camera, server, model, LatencyModel(), THR)
        without = step(2, 0b11100, 0, camera, server, model, LatencyModel(), THR)
        assert with_cam.quality == without.quality
        assert with_cam.tx_latency_s == without.tx_latency_s
        assert with_cam.recon_latency_s == without.recon_latency_s

    def test_server_speed_factor_scales_recon(self):
        camera, server = clean_traces()
        model = QualityModel.synthetic(3, table=table3())
        lat = LatencyModel(server_speed_factor=(1.0, 2.0))
        fast = step(0, 0b111, 0, camera, server, model, lat, THR)
        slow = step(0, 0b111, 1, camera, server, model, lat, THR)
        assert slow.recon_latency_s == pytest.approx(2 * fast.recon_latency_s)
        assert slow.tx_latency_s == fast.tx_latency_s

    def test_frame_out_of_range(self):
        camera, server = clean_traces(frames=5)
        model = QualityModel.synthetic(3, table=table3())
        with pytest.raises(IndexError, match="frame"):
            step(5, 0b111, 0, camera, server, model, LatencyModel(), THR)

    def test_server_out_of_range(self):
        camera, server = clean_traces(n_servers=2)
        model = QualityModel.synthetic(3, table=table3())
        with pytest.raises(IndexError, match="server"):
            step(0, 0b111, 2, camera, server, model, LatencyModel(), THR)

    def test_mask_width_checked(self):
        camera, server = clean_traces(n_cameras=3)
        model = QualityModel.synthetic(3, table=table3())
        with pytest.raises(ValueError, match="3-bit"):
            step(0, 0b1111, 0, camera, server, model, LatencyModel(), THR)

    def test_subset_bounds_contract(self):
        camera, server = clean_traces()
        model = QualityModel.synthetic(3, table=table3())
        with pytest.raises(ValueError, match="bounds"):
            step(0, 0b100, 0, camera, server, model, LatencyModel(), THR, k_min=2, k_max=3)


class TestQualityTraceIO:
    def test_full_column_set_answers_every_lookup(self, tmp_path):
        model = QualityModel.synthetic(5)
        path = tmp_path / "quality.csv"
        write_quality_trace(path, model, n_frames=4)
        loaded = load_quality_trace(path, n_cameras=5)
        assert loaded.noise_sd == 0.0
        for mask in subsets(5, MIN_VIEWS, 5):
            assert loaded.base_quality(2, mask) == model.base_quality(0, mask)

    def test_missing_column_listed(self, tmp_path):
        # The loader rejects a trace without a column that k_max reaches (by
        # default, any subset of two or more cameras), and keeps it otherwise.
        model = QualityModel.synthetic(5)
        path = tmp_path / "quality.csv"
        write_quality_trace(path, model, n_frames=2)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        drop = header.index("01011")
        rows = [",".join(v for i, v in enumerate(line.split(",")) if i != drop) for line in lines]
        path.write_text("\n".join(rows) + "\n")
        message = f"^{re.escape(str(path))}: missing 1 subset columns: 01011$"
        for k_max in (None, 5, 3):
            with pytest.raises(TraceSchemaError, match=message):
                load_quality_trace(path, k_max=k_max)
        loaded = load_quality_trace(path, k_max=2)
        config = ExperimentConfig(quality=QualitySpec(mode="trace", trace_path=str(path)))
        with pytest.raises(TraceSchemaError, match=message):
            build_quality_model(config)
        config.k_max = 2
        assert build_quality_model(config).table.tobytes() == loaded.table.tobytes()

    def test_wide_header_fails_fast(self, tmp_path):
        # A header wider than MAX_CAMERAS fails before a table of 2**width
        # columns is built.
        path = tmp_path / "quality.csv"
        path.write_text("frame," + "1" * 40 + "\n0,1.0\n")
        start = time.perf_counter()
        with pytest.raises(TraceSchemaError, match=f"40 bits, over {MAX_CAMERAS}$"):
            load_quality_trace(path)
        assert time.perf_counter() - start < 1.0

    def test_negative_cell_rejected(self, tmp_path):
        model = QualityModel.synthetic(5)
        path = tmp_path / "quality.csv"
        write_quality_trace(path, model, n_frames=2)
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[1] = "-5.0"
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match=">= 0"):
            load_quality_trace(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        path = tmp_path / "quality.csv"
        write_quality_trace(path, QualityModel.synthetic(5), n_frames=2)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[3] = cell
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match=f"line 3: .*finite.*{cell}"):
            load_quality_trace(path)

    @pytest.mark.parametrize("tail, message", [
        (b"\xff\r\n", "line 4: .*cannot decode byte"),
        (b"2," + b"1" * 200_000 + b"\r\n", "line 4: .*field larger than field limit"),
    ], ids=["undecodable-byte", "oversized-cell"])
    def test_unreadable_file_is_format_error(self, tmp_path, tail, message):
        path = tmp_path / "quality.csv"
        write_quality_trace(path, QualityModel.synthetic(5), n_frames=2)
        path.write_bytes(path.read_bytes() + tail)
        with pytest.raises(TraceFormatError, match=message):
            load_quality_trace(path)

    def test_blank_header_line_is_schema_error(self, tmp_path):
        path = tmp_path / "quality.csv"
        path.write_text("\n0,1.0\n")
        with pytest.raises(TraceSchemaError, match="header"):
            load_quality_trace(path)

    def test_round_trip_step_outputs_equal(self, tmp_path):
        # Materialize the synthetic table as a trace, then step both models.
        camera, server = clean_traces(frames=6, n_cameras=5)
        synth = QualityModel.synthetic(5, noise_sd=0.0)
        path = tmp_path / "quality.csv"
        write_quality_trace(path, synth, n_frames=6)
        traced = load_quality_trace(path, n_cameras=5)
        for frame in range(6):
            for mask in [0b11000, 0b10110, 0b11111]:
                a = step(frame, mask, 0, camera, server, synth, LatencyModel(), THR)
                b = step(frame, mask, 0, camera, server, traced, LatencyModel(), THR)
                assert a == b

    def test_wrong_camera_count_rejected(self, tmp_path):
        model = QualityModel.synthetic(3)
        path = tmp_path / "quality.csv"
        write_quality_trace(path, model, n_frames=2)
        with pytest.raises(TraceSchemaError, match="bits"):
            load_quality_trace(path, n_cameras=5)


class TestQualityCoverage:
    """missing_subsets: the one rule that a table or trace has an entry for every
    subset a run can look up, MIN_VIEWS..k_max cameras."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_missing_is_every_reachable_subset_without_an_entry(self, data):
        n_cameras = data.draw(st.integers(1, 6))
        present = data.draw(st.sets(st.integers(0, (1 << n_cameras) - 1)))
        k_max = data.draw(st.integers(1, n_cameras))
        # Every reachable subset without an entry, listed in full.
        gaps = [mask for mask in range(1 << n_cameras)
                if MIN_VIEWS <= mask.bit_count() <= k_max and mask not in present]
        assert missing_subsets(present, n_cameras, k_max) == (len(gaps), gaps[:3])
        # Config validation applies the rule to quality.table and names the first gap.
        table = {bitstring(mask, n_cameras): float(mask.bit_count()) for mask in present}
        config = ExperimentConfig(n_cameras=n_cameras, k_min=1, k_max=k_max,
                                  quality=QualitySpec(table=table))
        if gaps:
            with pytest.raises(ConfigError, match=f"no entry for subset {bitstring(gaps[0], n_cameras)};"):
                config.validate()
        else:
            config.validate()

    def test_trace_error_counts_and_lists_the_reachable_gaps(self, tmp_path):
        # At MAX_CAMERAS cameras a k_max: 3 run needs 190 pairs and 1140
        # triples. A trace of one triple lacks 1329 of them, and the error
        # lists the first three in bitstring order. It is raised from the
        # header: the 10,000 rows are not read, and no table of 2**20
        # columns per frame (80 GB) is built.
        path = tmp_path / "quality.csv"
        path.write_text(f"frame,{bitstring(0b111, MAX_CAMERAS)}\n"
                        + "".join(f"{t},1.0\n" for t in range(10_000)))
        config = ExperimentConfig(n_frames=1, n_cameras=MAX_CAMERAS, k_max=3,
                                  quality=QualitySpec(mode="trace", trace_path=str(path)))
        pair, triple = "0" * (MAX_CAMERAS - 2), "0" * (MAX_CAMERAS - 3)
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(TraceSchemaError, match=f"^{re.escape(str(path))}: missing 1329 "
                               f"subset columns: {pair}11, {triple}101, {triple}110, ...$"):
                build_quality_model(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 1 << 20
        # By default, every subset of two or more cameras but the one present.
        with pytest.raises(TraceSchemaError, match=f" missing {2**MAX_CAMERAS - MAX_CAMERAS - 2} "):
            load_quality_trace(path)


class TestTraceIntegration:
    def test_bumped_frames_zero_out_selected_group(self):
        params = DisruptionParams(seed=7)
        trace = generate_camera_trace(params)
        event = next(e for e in trace.events if len(e.cameras) == 2)
        server = ServerLatencyTrace(latency_ms=np.full((trace.frames, 4), 150.0))
        model = QualityModel.synthetic(5)
        mask = sum(1 << (4 - cam) for cam in event.cameras)
        out = step(event.start, mask, 0, trace, server, model, LatencyModel(), THR,
                   k_min=2, k_max=5)
        assert out.quality == 0.0
        assert out.reliable == 0
