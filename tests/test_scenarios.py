"""Scenario-level behavior checks for the built-in study presets."""

from edgerecon.config import camera_study_config, server_study_config
from edgerecon.controller import run_episode


class TestServerStressScenario:
    def test_latency_greedy_herds_onto_trap_server(self):
        # Server 0's steady latency is just over budget but below the spiky
        # servers' means, so a stale-EWMA argmin settles there. Frozen from a
        # 10-seed pilot where its late-run share was 0.95-1.00.
        config = server_study_config(seed=1)
        config.server_policy = "latency_greedy"
        config.server_agent = None
        _, log = run_episode(config)
        late = log.servers[3000:]
        assert late.count(0) / len(late) > 0.8

    def test_trap_server_is_never_reliable(self):
        config = server_study_config(seed=1)
        config.server_policy = "latency_greedy"
        config.server_agent = None
        _, log = run_episode(config)
        on_trap = [t for t, server in enumerate(log.servers) if server == 0]
        assert on_trap
        assert all(log.reliable[t] == 0 for t in on_trap)
        assert all(log.recon_s[t] > 1.0 for t in on_trap)

    def test_adaptive_agent_boosts_exploration_on_degradation(self):
        # The spikes are strong enough that the degradation branch actually
        # fires; epsilon must rise at least once mid-run.
        config = server_study_config(seed=0)
        _, log = run_episode(config)
        eps = log.server_epsilon
        assert any(b > a + 1e-12 for a, b in zip(eps, eps[1:]))

    def test_adaptive_avoids_trap_server(self):
        config = server_study_config(seed=1)
        stats, _ = run_episode(config)
        share0 = stats.server_histogram.get(0, 0) / stats.frames
        assert share0 < 0.25   # well under the round-robin share


class TestCameraStudyScenario:
    def test_qlearning_concentrates_selections(self):
        # The learner should spend most frames on a small set of subsets
        # while random stays spread out.
        learned = camera_study_config(seed=3)
        stats_q, _ = run_episode(learned)
        spread = camera_study_config(seed=3)
        spread.camera_policy = "random"
        stats_r, _ = run_episode(spread)

        def top3_share(stats):
            counts = sorted(stats.camera_subset_histogram.values(), reverse=True)
            return sum(counts[:3]) / stats.frames

        assert top3_share(stats_q) > 0.5
        assert top3_share(stats_r) < 0.25

    def test_greedy3_under_feedback_delay_still_covers_cold_start(self):
        config = camera_study_config(seed=3, n_frames=40)
        config.camera_policy = "greedy3"
        config.feedback_delay_frames = 3
        _, log = run_episode(config)
        assert len(set(log.masks[:10])) == 10
