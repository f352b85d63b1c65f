import re

import numpy as np
import pytest

from edgerecon.config import ExperimentConfig, config_from_dict
from edgerecon.controller import build_traces, run_episode, run_grid
from edgerecon.disruption import DisruptionParams
from edgerecon.errors import ConfigError
from edgerecon.metrics import write_frame_log
from edgerecon.policies import (GreedyTripletCameraPolicy, QLearningServerPolicy,
                                RoundRobinServerPolicy)


def small_config(**overrides) -> ExperimentConfig:
    config = ExperimentConfig(n_frames=50, seed=3, camera_policy="random",
                              server_policy="round_robin")
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


class TestEpisodeBasics:
    def test_round_robin_composition(self):
        stats, records = run_episode(small_config(n_frames=8))
        assert [r.server for r in records] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_one_record_per_frame_in_order(self):
        stats, records = run_episode(small_config())
        assert [r.frame for r in records] == list(range(50))
        assert stats.frames == 50

    def test_histogram_conservation(self):
        stats, _ = run_episode(small_config(camera_policy="qlearning"))
        assert sum(stats.camera_subset_histogram.values()) == 50
        assert sum(stats.server_histogram.values()) == 50

    def test_masks_respect_bounds(self):
        _, records = run_episode(small_config(camera_policy="qlearning"))
        for rec in records:
            assert 2 <= sum(rec.mask) <= 5

    def test_epsilon_alpha_recorded_for_learners(self):
        _, records = run_episode(small_config(camera_policy="adaptive_q"))
        eps = [r.camera_epsilon for r in records]
        assert eps[0] == pytest.approx(1.0)      # adaptive camera starts fully exploring
        assert eps[-1] < eps[0]                  # and decays
        assert all(np.isnan(r.server_epsilon) for r in records)   # round-robin has none

    def test_trace_shorter_than_episode_rejected(self):
        config = small_config()
        config.disruption = DisruptionParams(n_frames=20, n_cameras=5, n_servers=4, seed=3)
        with pytest.raises(ConfigError, match="shorter"):
            config.validate()
        # Also rejected when injecting pre-built traces directly.
        short = small_config(n_frames=20)
        camera, server = build_traces(short)
        with pytest.raises(ConfigError, match="frames"):
            run_episode(small_config(), camera_trace=camera, server_trace=server)


class TestDeterminism:
    def test_identical_runs_byte_identical_logs(self, tmp_path):
        config = small_config(camera_policy="qlearning", server_policy="qlearning",
                              n_frames=200)
        paths = []
        for name in ("a.csv", "b.csv"):
            _, records = run_episode(config)
            path = tmp_path / name
            write_frame_log(records, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_different_seeds_differ(self):
        a, _ = run_episode(small_config(camera_policy="qlearning", n_frames=200))
        config_b = small_config(camera_policy="qlearning", n_frames=200)
        config_b.seed = 4
        b, _ = run_episode(config_b)
        assert a.camera_subset_histogram != b.camera_subset_histogram

    def test_traces_independent_of_policy_choice(self):
        # Swapping a policy must not change the disruption traces consumed.
        cam_a, srv_a = build_traces(small_config(camera_policy="qlearning"))
        cam_b, srv_b = build_traces(small_config(camera_policy="random"))
        assert np.array_equal(cam_a.availability, cam_b.availability)
        assert np.array_equal(srv_a.latency_ms, srv_b.latency_ms)


class _SpyServerPolicy(RoundRobinServerPolicy):
    """Round-robin that records the states it observes and its learn calls."""

    def __init__(self, n_servers):
        super().__init__(n_servers)
        self.seen_states = []
        self.learn_calls = []

    def select(self, frame, state=None, rng=None):
        self.seen_states.append(state)
        return super().select(frame, state, rng)

    def learn(self, state, action, reward, next_state, total_latency_s=None):
        # Loop step is inferred from how many selections have happened.
        self.learn_calls.append((len(self.seen_states) - 1, state, action, next_state))


class TestCausalityAndDelay:
    def test_server_state_references_previous_server(self):
        spy = _SpyServerPolicy(4)
        run_episode(small_config(n_frames=12), server_policy=spy)
        assert spy.seen_states[0].prev_server == 0   # designated initial server
        for frame in range(1, 12):
            assert spy.seen_states[frame].prev_server == (frame - 1) % 4

    def test_state_tracks_mask_size(self):
        spy = _SpyServerPolicy(4)
        _, records = run_episode(small_config(n_frames=12, camera_policy="qlearning"),
                                 server_policy=spy)
        for frame, rec in enumerate(records):
            assert spy.seen_states[frame].n_selected == sum(rec.mask)

    def test_zero_delay_learns_same_step(self):
        spy = _SpyServerPolicy(4)
        run_episode(small_config(n_frames=10), server_policy=spy)
        assert [(call[0], call[1]) for call in spy.learn_calls] == [
            (step, state) for step, state in zip(range(10), spy.seen_states)
        ]

    def _frame_of(self, spy, state) -> int:
        # States repeat by value across frames; the controller hands the same
        # object through, so identity pins down the frame.
        return next(i for i, seen in enumerate(spy.seen_states) if seen is state)

    def test_delayed_feedback_learn_ordering(self):
        # With delay d, the learn call for frame t happens at loop step t + d.
        delay = 2
        spy = _SpyServerPolicy(4)
        run_episode(small_config(n_frames=10, feedback_delay_frames=delay),
                    server_policy=spy)
        steps = [call[0] for call in spy.learn_calls]
        learned_frames = [self._frame_of(spy, call[1]) for call in spy.learn_calls]
        assert steps == [frame + delay for frame in learned_frames]
        # Frames too close to the end never get feedback.
        assert len(spy.learn_calls) == 10 - delay

    def test_delayed_feedback_uses_observed_next_state(self):
        delay = 1
        spy = _SpyServerPolicy(4)
        run_episode(small_config(n_frames=10, feedback_delay_frames=delay),
                    server_policy=spy)
        for _step, state, _action, next_state in spy.learn_calls:
            frame = self._frame_of(spy, state)
            assert next_state is spy.seen_states[frame + 1]


class TestGreedy3Integration:
    def test_cold_start_runs_through_all_triples(self):
        _, records = run_episode(small_config(camera_policy="greedy3", n_frames=15))
        first_ten = {rec.mask for rec in records[:10]}
        assert len(first_ten) == 10
        assert all(sum(m) == 3 for m in first_ten)

    def test_greedy3_learns_from_quality(self):
        policy = GreedyTripletCameraPolicy(5)
        run_episode(small_config(camera_policy="greedy3", n_frames=30),
                    camera_policy=policy)
        assert sum(policy.counts) == 30


class TestLearnerIntegration:
    def test_qlearning_server_learns_states(self):
        policy = QLearningServerPolicy(4, small_config().resolved_server_agent())
        run_episode(small_config(server_policy="qlearning", n_frames=40),
                    server_policy=policy)
        assert policy.table.rows   # visited states materialized
        for key in policy.table.rows:
            n_selected, prev = key.split("|")
            assert 2 <= int(n_selected) <= 5
            assert 0 <= int(prev) < 4


class TestQualityTraceMode:
    def test_trace_mode_episode_matches_noise_free_synthetic(self, tmp_path):
        # Materialize the synthetic table as a trace; the two quality routes
        # must produce identical episodes when noise is off.
        from edgerecon.controller import build_quality_model
        from edgerecon.environment import write_quality_trace

        base = small_config(camera_policy="qlearning", n_frames=60)
        base.quality.noise_sd = 0.0
        path = tmp_path / "quality.csv"
        write_quality_trace(path, build_quality_model(base), n_frames=60)

        traced = small_config(camera_policy="qlearning", n_frames=60)
        traced.quality.mode = "trace"
        traced.quality.trace_path = str(path)

        stats_a, records_a = run_episode(base)
        stats_b, records_b = run_episode(traced)
        assert [r.outcome for r in records_a] == [r.outcome for r in records_b]
        assert stats_a.reliability_pct == stats_b.reliability_pct


class TestRunGrid:
    def test_empty(self):
        assert run_grid([]) == []

    def test_five_camera_policies(self):
        configs = []
        for policy in ("qlearning", "greedy3", "bandit", "adaptive_q", "random"):
            configs.append(small_config(camera_policy=policy))
        results = run_grid(configs, ids=list("ABCDE"))
        assert [r.config_id for r in results] == list("ABCDE")
        assert all(r.stats is not None and r.stats.frames == 50 for r in results)

    def test_failure_isolated_per_episode(self):
        good = small_config()
        bad = small_config()
        bad.n_servers = 7   # mismatches the 4-wide speed factor below
        bad.latency = type(bad.latency)(server_speed_factor=(1.0, 1.0, 1.0, 1.0))
        results = run_grid([good, bad, good])
        assert results[0].error is None
        assert results[1].error is not None and results[1].stats is None
        assert results[2].error is None

    def test_id_count_checked(self):
        with pytest.raises(ConfigError):
            run_grid([small_config()], ids=["a", "b"])


class TestConfigDict:
    def test_minimal_dict(self):
        config = config_from_dict({"n_frames": 100, "seed": 9})
        assert config.n_frames == 100
        assert config.seed == 9
        assert config.camera_policy == "qlearning"

    def test_nested_sections(self):
        config = config_from_dict({
            "camera_policy": "bandit",
            "server_policy": "latency_greedy",
            "thresholds": {"theta": 500.0},
            "weights": {"w1": 0.3, "w2": 0.7},
            "camera_agent": {"alpha": 0.5, "epsilon": 0.2},
            "disruption": {"n_bump_events": 3, "spike_range_ms": [100, 300]},
            "quality": {"noise_sd": 5.0},
            "latency": {"per_image_tx_ms": 100.0},
        })
        assert config.thresholds.theta == 500.0
        assert config.weights.w2 == 0.7
        assert config.disruption.n_bump_events == 3
        assert config.disruption.n_frames == config.n_frames
        assert config.latency.per_image_tx_ms == 100.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            config_from_dict({"frames": 100})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            config_from_dict({"thresholds": {"thta": 1.0}})

    def test_disruption_cannot_override_derived_fields(self):
        with pytest.raises(ConfigError, match="derived"):
            config_from_dict({"disruption": {"seed": 4}})

    @pytest.mark.parametrize("raw", [
        {"camera_policy": "qlearn"},
        {"server_policy": "rr"},
        {"n_frames": 0},
        {"n_frames": "lots"},
        {"k_min": 0},
        {"k_min": 4, "k_max": 2},
        {"camera_policy": "greedy3", "k_min": 4},   # greedy3 emits 3-camera subsets
        {"seed": -1},
        {"feedback_delay_frames": -2},
        {"quality": {"mode": "trace"}},   # trace mode without a path
        {"thresholds": 5},                # section must be a mapping
        {"camera_agent": {"alpha": "high"}},
    ])
    def test_invalid_values_rejected(self, raw):
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    @pytest.mark.parametrize("raw, field", [
        ({"quality": {"noise_sd": float("nan")}}, "quality.noise_sd"),
        ({"quality": {"table": {"11000": float("inf")}}}, "quality.table"),
        ({"thresholds": {"theta": float("nan")}}, "thresholds.theta"),
        ({"latency": {"recon_base_ms": float("nan")}}, "latency.recon_base_ms"),
        ({"latency": {"server_speed_factor": [1.0, float("inf"), 1.0, 1.0]}},
         "latency.server_speed_factor"),
        ({"disruption": {"spike_range_ms": [100.0, float("inf")]}}, "disruption.spike_range_ms"),
        ({"camera_agent": {"eta_inc": float("nan")}}, "eta_inc"),
        ({"n_frames": 20.5}, "n_frames"),
        ({"n_frames": True}, "n_frames"),
        ({"k_max": 4.0}, "k_max"),
    ])
    def test_non_finite_or_non_integer_value_names_field(self, raw, field):
        with pytest.raises(ConfigError, match=re.escape(field)):
            config_from_dict(raw)

    def test_speed_factor_width_checked(self):
        with pytest.raises(ConfigError, match="server_speed_factor"):
            config_from_dict({"latency": {"server_speed_factor": [1.0, 1.0]}})
