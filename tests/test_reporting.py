import json
import math
import struct
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgerecon.config import ExperimentConfig
from edgerecon.controller import run_episode
from edgerecon.metrics import RunStats
from edgerecon.reporting import (build_report, bundle_to_dict, five_number_summary,
                                 histogram_shares, render_summary_table, write_report)


def stats_pair():
    named = []
    for policy in ("random", "qlearning"):
        config = ExperimentConfig(n_frames=120, seed=5, camera_policy=policy,
                                  server_policy="round_robin")
        stats, _ = run_episode(config)
        named.append((policy, stats))
    return named


class TestFiveNumberSummary:
    def test_ordering(self):
        q = five_number_summary([5.0, 1.0, 9.0, 3.0, 7.0, 2.0])
        assert q[0] <= q[1] <= q[2] <= q[3] <= q[4]
        assert q[0] == 1.0 and q[4] == 9.0

    def test_single_value(self):
        assert five_number_summary([2.5]) == (2.5, 2.5, 2.5, 2.5, 2.5)

    def test_empty(self):
        assert five_number_summary([]) == (0.0, 0.0, 0.0, 0.0, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, allow_infinity=False), max_size=40))
    @example([])
    def test_array_reads_as_its_list(self, values):
        # RunStats keeps total latencies in an array("d"), read without a list copy.
        def bits(summary):
            return [struct.pack("<d", v) for v in summary]
        column = array("d", values)
        assert bits(five_number_summary(column)) == bits(five_number_summary(list(column)))
        assert list(column) == values    # read, not reordered in place

    def test_values_outside_the_domain_raise(self):
        # Total latencies are finite and >= 0; anything else is a caller's bug.
        for bad in (-1.0, -5e-324, math.nan, math.inf, -math.inf):
            for values in ([bad], [1.0, bad, 2.0]):
                with pytest.raises(ValueError, match="finite values >= 0"):
                    five_number_summary(values)
        # The top of the domain interpolates without overflow.
        values = [1.7976931348623157e+308, 0.0, -0.0]
        low, q1, median, q3, high = five_number_summary(values)
        assert (low, high) == (0.0, max(values))
        for quartile in (q1, median, q3):
            assert math.isfinite(quartile)
            assert low <= quartile <= high


class TestHistogramShares:
    def test_shares_sum_to_hundred(self):
        shares = histogram_shares({"a": 3, "b": 5, "c": 2})
        assert sum(shares.values()) == pytest.approx(100.0, abs=0.01)

    def test_empty(self):
        assert histogram_shares({}) == {}


class TestBuildReport:
    def test_bundle_structure(self):
        bundle = build_report(stats_pair())
        assert [row.policy for row in bundle.rows] == ["random", "qlearning"]
        for name in ("random", "qlearning"):
            assert sum(bundle.subset_distribution[name].values()) == 120
            assert sum(bundle.server_distribution[name].values()) == 120
            q = bundle.latency_quartiles[name]
            assert q[0] <= q[1] <= q[2] <= q[3] <= q[4]

    def test_table_rendering_precision(self):
        stats = RunStats()

        class Rec:
            frame = 0
            mask = (1, 1, 0)
            server = 2
            camera_reward = 0.5
            server_reward = 0.25

            class outcome:
                quality = 582.4
                tx_latency_s = 1.75
                recon_latency_s = 0.789
                total_latency_s = 2.539
                reliable = 1

        stats.add(Rec())
        bundle = build_report([("qlearning", stats)])
        text = render_summary_table(bundle)
        lines = text.splitlines()
        assert lines[0].startswith("Policy")
        # quality 0 decimals, latency 2, reliability 2
        assert "582" in lines[2]
        assert "0.79" in lines[2]
        assert "2.54" in lines[2]
        assert "100.00" in lines[2]
        assert "Q-learning" in lines[2]

    def test_summary_numbers_recomputable_from_stats(self):
        named = stats_pair()
        bundle = build_report(named)
        payload = bundle_to_dict(bundle)
        for entry, (name, stats) in zip(payload["summary"], named):
            assert entry["policy"] == name
            assert entry["reliability_pct"] == stats.reliability_pct
            assert entry["avg_quality"] == stats.avg_quality

    def test_every_table_number_recomputable_from_frame_csv(self, tmp_path):
        # The rendered row must be reproducible from frames.csv alone.
        from edgerecon.metrics import read_frame_log, write_frame_log

        config = ExperimentConfig(n_frames=150, seed=8, camera_policy="qlearning",
                                  server_policy="round_robin")
        stats, log = run_episode(config)
        path = tmp_path / "frames.csv"
        write_frame_log(log, path)
        rows = read_frame_log(path)
        n = len(rows)
        expected_cells = [
            f"{sum(r['quality'] for r in rows) / n:.0f}",
            f"{sum(r['recon_s'] for r in rows) / n:.2f}",
            f"{sum(r['total_s'] for r in rows) / n:.2f}",
            f"{100.0 * sum(r['reliable'] for r in rows) / n:.2f}",
        ]
        bundle = build_report([("qlearning", stats)])
        rendered = render_summary_table(bundle).splitlines()[2]
        for cell in expected_cells:
            assert cell in rendered.split()


class TestWriteReport:
    def test_files_emitted(self, tmp_path):
        bundle = build_report(stats_pair())
        written = write_report(bundle, tmp_path)
        names = {p.name for p in written}
        assert "comparison.txt" in names
        assert "comparison.json" in names
        assert "random_subsets.csv" in names
        assert "qlearning_servers.csv" in names
        payload = json.loads((tmp_path / "comparison.json").read_text())
        assert {row["policy"] for row in payload["summary"]} == {"random", "qlearning"}

    def test_histogram_csv_shares(self, tmp_path):
        bundle = build_report(stats_pair())
        write_report(bundle, tmp_path)
        lines = (tmp_path / "qlearning_servers.csv").read_text().splitlines()
        assert lines[0] == "server,count,share_pct"
        total = sum(float(line.split(",")[2]) for line in lines[1:])
        assert total == pytest.approx(100.0, abs=0.01)
