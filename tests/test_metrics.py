import math
import random
from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgerecon.errors import ConfigError, TraceFormatError, TraceSchemaError
from edgerecon.metrics import (FRAME_LOG_HEADER, FrameLog, RewardWeights, RunStats, Thresholds,
                               camera_reward, latency_score, quality_score, read_frame_log,
                               recount_reliability, reliability, server_reward, write_frame_log)


@dataclass(frozen=True)
class FakeOutcome:
    quality: float
    tx_latency_s: float
    recon_latency_s: float
    total_latency_s: float
    effective_mask: int
    reliable: int


@dataclass(frozen=True)
class FakeRecord:
    frame: int
    mask: str
    server: int
    outcome: FakeOutcome
    camera_reward: float
    server_reward: float


def make_record(frame=0, mask="110", server=0, quality=500.0, tx=1.0, recon=0.5,
                reliable=1, r_cam=0.6, r_srv=0.4):
    out = FakeOutcome(quality, tx, recon, tx + recon, int(mask, 2), reliable)
    return FakeRecord(frame, mask, server, out, r_cam, r_srv)


def make_log(n_frames):
    """A 3-camera FrameLog of n_frames frames that all select cameras 0 and 1."""
    log = FrameLog(3, [0b111] * n_frames)
    for i in range(n_frames):
        log.masks.append(0b110)
        log.servers.append(i % 2)
        log.quality.append(123.456 + i)
        log.tx_s.append(1.0)
        log.recon_s.append(0.5)
        log.total_s.append(1.5)
        log.reliable.append(i % 2)
        log.camera_reward.append(0.6)
        log.server_reward.append(0.4)
    return log


class TestQualityScore:
    def test_at_threshold_saturates(self):
        assert quality_score(400.0, 400.0) == 1.0

    def test_linear_region(self):
        assert quality_score(200.0, 400.0) == 0.5

    def test_above_threshold_capped(self):
        # 582 points against a 400-point floor still caps at 1.
        assert quality_score(582.0, 400.0) == 1.0

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            quality_score(100.0, 0.0)


class TestLatencyScore:
    def test_zero_latency(self):
        assert latency_score(0.0, 1.0) == 1.0

    def test_at_budget(self):
        assert latency_score(1.0, 1.0) == 0.0

    def test_partial(self):
        assert latency_score(0.79, 1.0) == pytest.approx(0.21, abs=1e-12)

    def test_over_budget_floored(self):
        assert latency_score(5.0, 1.0) == 0.0


class TestCameraReward:
    def test_both_scores_saturate(self):
        out = FakeOutcome(400.0, 0.0, 0.0, 0.0, 0b11, 1)
        assert camera_reward(out, Thresholds(), RewardWeights()) == 1.0

    def test_midpoint_arithmetic(self):
        out = FakeOutcome(200.0, 0.0, 0.5, 0.5, 0b11, 0)
        got = camera_reward(out, Thresholds(), RewardWeights(0.5, 0.5))
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_weights_reduce_to_quality(self):
        out = FakeOutcome(123.0, 0.2, 0.9, 1.1, 0b11, 0)
        got = camera_reward(out, Thresholds(), RewardWeights(1.0, 0.0))
        assert got == quality_score(123.0, 400.0)

    def test_uses_recon_latency_not_total(self):
        # Same recon latency, wildly different tx: camera reward must not move.
        a = FakeOutcome(500.0, 0.1, 0.5, 0.6, 0b11, 1)
        b = FakeOutcome(500.0, 9.0, 0.5, 9.5, 0b11, 0)
        thr, w = Thresholds(), RewardWeights()
        assert camera_reward(a, thr, w) == camera_reward(b, thr, w)


class TestServerReward:
    def test_zero(self):
        out = FakeOutcome(0.0, 0.0, 0.0, 0.0, 0b11, 0)
        assert server_reward(out, Thresholds()) == 1.0

    def test_at_budget(self):
        out = FakeOutcome(0.0, 1.5, 1.5, 3.0, 0b11, 0)
        assert server_reward(out, Thresholds()) == 0.0

    def test_midpoint(self):
        out = FakeOutcome(0.0, 1.0, 0.5, 1.5, 0b11, 0)
        assert server_reward(out, Thresholds()) == 0.5


class TestReliability:
    def test_all_bounds_met(self):
        assert reliability(450.0, 2.5, 0.8, Thresholds(400.0, 3.0, 1.0)) == 1

    def test_quality_threshold_is_strict(self):
        assert reliability(399.9, 2.5, 0.8, Thresholds(400.0, 3.0, 1.0)) == 0

    def test_recon_bound_violated(self):
        assert reliability(600.0, 2.0, 1.2, Thresholds(400.0, 3.0, 1.0)) == 0

    def test_total_bound_violated(self):
        assert reliability(600.0, 3.1, 0.9, Thresholds(400.0, 3.0, 1.0)) == 0


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"theta": 0.0},
        {"theta": -1.0},
        {"phi_total_s": 0.0},
        {"phi_recon_s": 0.0},
        {"phi_recon_s": 4.0},   # exceeds phi_total_s
    ])
    def test_bad_thresholds(self, kwargs):
        with pytest.raises(ConfigError):
            Thresholds(**kwargs)

    @pytest.mark.parametrize("w1,w2", [(0.6, 0.6), (-0.1, 1.1), (0.3, 0.3)])
    def test_bad_weights(self, w1, w2):
        with pytest.raises(ConfigError):
            RewardWeights(w1, w2)


@given(q=st.floats(0, 1e6), theta=st.floats(1e-6, 1e6))
def test_quality_score_clamped(q, theta):
    s = quality_score(q, theta)
    assert 0.0 <= s <= 1.0


@given(l=st.floats(0, 1e6), phi=st.floats(1e-6, 1e6))
def test_latency_score_clamped(l, phi):
    s = latency_score(l, phi)
    assert 0.0 <= s <= 1.0


@given(q1=st.floats(0, 1e5), q2=st.floats(0, 1e5), theta=st.floats(1e-3, 1e5))
def test_quality_score_monotone(q1, q2, theta):
    lo, hi = sorted((q1, q2))
    assert quality_score(lo, theta) <= quality_score(hi, theta)


@given(l1=st.floats(0, 1e5), l2=st.floats(0, 1e5), phi=st.floats(1e-3, 1e5))
def test_latency_score_antitone(l1, l2, phi):
    lo, hi = sorted((l1, l2))
    assert latency_score(lo, phi) >= latency_score(hi, phi)


@given(
    q=st.floats(0, 2000), recon=st.floats(0, 5), tx=st.floats(0, 5),
    w1=st.floats(0, 1),
)
def test_reliable_implies_reward_at_least_w1(q, recon, tx, w1):
    thr = Thresholds()
    weights = RewardWeights(w1, 1.0 - w1)
    out = FakeOutcome(q, tx, recon, tx + recon, 0b11,
                      reliability(q, tx + recon, recon, thr))
    reward = camera_reward(out, thr, weights)
    assert 0.0 <= reward <= 1.0
    if out.reliable:
        # Quality at/above theta saturates the quality score.
        assert reward >= w1 - 1e-12


class TestRunStats:
    def test_empty(self):
        stats = RunStats()
        assert stats.frames == 0
        assert stats.reliability_pct == 0.0
        assert stats.avg_quality == 0.0

    def test_single_reliable_frame(self):
        stats = RunStats()
        stats.add(make_record(reliable=1))
        assert stats.frames == 1
        assert stats.reliability_pct == 100.0

    def test_histograms_account_for_every_frame(self):
        stats = RunStats()
        for i in range(10):
            stats.add(make_record(frame=i, mask=f"1{i % 2}0", server=i % 3))
        assert sum(stats.camera_subset_histogram.values()) == 10
        assert sum(stats.server_histogram.values()) == 10

    def test_recount_matches_second_pass(self):
        rng = random.Random(5)
        records = [
            make_record(frame=i, quality=rng.uniform(0, 800), reliable=rng.randint(0, 1))
            for i in range(200)
        ]
        stats = RunStats()
        for rec in records:
            stats.add(rec)
        recount = sum(r.outcome.reliable for r in records)
        assert stats.reliable_frames == recount
        assert stats.reliability_pct == pytest.approx(100.0 * recount / 200)

    @given(st.permutations(range(30)))
    def test_order_insensitive_counts_and_means(self, order):
        records = [make_record(frame=i, quality=7.0 * i + 1, reliable=(i * 13) % 2)
                   for i in range(30)]
        forward, shuffled = RunStats(), RunStats()
        for rec in records:
            forward.add(rec)
        for i in order:
            shuffled.add(records[i])
        assert shuffled.frames == forward.frames
        assert shuffled.reliable_frames == forward.reliable_frames
        assert shuffled.avg_quality == pytest.approx(forward.avg_quality, abs=1e-9)
        assert shuffled.avg_total_s == pytest.approx(forward.avg_total_s, abs=1e-9)
        assert shuffled.server_histogram == forward.server_histogram


class TestFrameLogIO:
    def test_round_trip(self, tmp_path):
        log = make_log(5)
        path = tmp_path / "frames.csv"
        write_frame_log(log, path)
        rows = read_frame_log(path)
        assert len(rows) == 5
        assert rows[3]["quality"] == log.quality[3]
        assert rows[3]["mask"] == "110"
        reliable, total = recount_reliability(path)
        assert total == 5
        assert reliable == sum(log.reliable)

    def test_recount_matches_read_frame_log(self, tmp_path):
        log = make_log(2 * 1024 + 3)
        path = tmp_path / "frames.csv"
        write_frame_log(log, path)
        rows = read_frame_log(path)
        assert recount_reliability(path) == (sum(r["reliable"] for r in rows), len(rows))
        assert recount_reliability(path) == (sum(log.reliable), 2 * 1024 + 3)

    @pytest.mark.parametrize("index, edit, error", [
        (3, lambda row: [row + ",1"], TraceSchemaError),
        (2, lambda row: [row.rpartition(",")[0]], TraceSchemaError),
        (3, lambda row: ["", row], TraceSchemaError),
        (5, lambda row: ["\xff"], TraceFormatError),
        (2, lambda row: [row.replace("0.5", "x")], TraceFormatError),
    ], ids=["extra-column", "missing-column", "blank-line", "undecodable-byte", "bad-cell"])
    def test_malformed_row_names_its_line(self, tmp_path, index, edit, error):
        # Line index + 1 of the file is the first one the edit changes.
        path = tmp_path / "frames.csv"
        write_frame_log(make_log(5), path)
        lines = path.read_bytes().decode("latin-1").split("\r\n")
        lines[index:index + 1] = edit(lines[index])
        path.write_bytes("\r\n".join(lines).encode("latin-1"))
        for read in (read_frame_log, recount_reliability):
            with pytest.raises(error, match=f"line {index + 1}"):
                read(path)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "frames.csv"
        for text in ("", ",".join(FRAME_LOG_HEADER[:-1]) + "\r\n"):
            path.write_text(text)
            with pytest.raises(TraceFormatError, match="line 1"):
                read_frame_log(path)

    def test_summary_fields(self):
        stats = RunStats()
        stats.add(make_record())
        summary = stats.to_summary()
        for key in ("frames", "reliable_frames", "reliability_pct", "avg_quality",
                    "avg_recon_latency_s", "avg_total_latency_s"):
            assert key in summary
        assert math.isclose(summary["reliability_pct"], 100.0)
