"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line so a plain `pytest -s tests/test_acceptance.py` reads as a
checklist. Tolerances are fixed here, not configurable."""

import contextlib
import statistics
import time

import numpy as np
import pytest

from edgerecon.config import ExperimentConfig, camera_study_config, server_study_config
from edgerecon.controller import build_quality_model, build_traces, run_episode
from edgerecon.disruption import DisruptionParams, generate_camera_trace, generate_server_trace
from edgerecon.environment import LatencyModel, step
from edgerecon.metrics import (RewardWeights, Thresholds, camera_reward, latency_score,
                               quality_score, reliability, server_reward, write_frame_log)
from edgerecon.policies import (AgentParams, QLearningCameraPolicy, QTable, enumerate_actions,
                                q_update)


@contextlib.contextmanager
def criterion(number: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {name}: PASS ({time.perf_counter() - start:.2f}s)")


# ---------------------------------------------------------------------------
# 1. Reward/score arithmetic against hand-computed values (tolerance 1e-12).
# Expected values were computed independently with decimal arithmetic.
# ---------------------------------------------------------------------------

_REWARD_CASES = [
    # (q, recon_s, total_s, theta, phi_recon_s, phi_total_s, w1, w2,
    #  expect_sq, expect_sl_recon, expect_cam, expect_srv, expect_reliable)
    (400, 0.0, 0.0, 400, 1.0, 3.0, 0.5, 0.5,
     1.0, 1.0, 1.0, 1.0, 1),
    (200, 0.5, 1.5, 400, 1.0, 3.0, 0.5, 0.5,
     0.5, 0.5, 0.5, 0.5, 0),
    (582, 0.79, 2.54, 400, 1.0, 3.0, 0.5, 0.5,
     1.0, 0.21, 0.605, 0.15333333333333332, 1),
    (0, 0.0, 0.0, 400, 1.0, 3.0, 0.5, 0.5,
     0.0, 1.0, 0.5, 1.0, 0),
    (800, 2.0, 4.0, 400, 1.0, 3.0, 0.5, 0.5,
     1.0, 0.0, 0.5, 0.0, 0),
    (100, 0.25, 0.75, 400, 1.0, 3.0, 0.25, 0.75,
     0.25, 0.75, 0.625, 0.75, 0),
    (300, 0.1, 0.3, 600, 1.0, 3.0, 1.0, 0.0,
     0.5, 0.9, 0.5, 0.9, 0),
    (300, 0.1, 0.3, 600, 1.0, 3.0, 0.0, 1.0,
     0.5, 0.9, 0.9, 0.9, 0),
    (450, 0.8, 2.5, 400, 1.0, 3.0, 0.5, 0.5,
     1.0, 0.2, 0.6, 0.16666666666666666, 1),
    (399.9, 0.8, 2.5, 400, 1.0, 3.0, 0.5, 0.5,
     0.99975, 0.2, 0.599875, 0.16666666666666666, 0),
    (500, 1.2, 2.0, 500, 1.0, 3.0, 0.5, 0.5,
     1.0, 0.0, 0.5, 0.3333333333333333, 0),
    (542, 0.67, 2.45, 400, 1.0, 3.0, 0.5, 0.5,
     1.0, 0.33, 0.665, 0.18333333333333332, 1),
    (443, 0.71, 3.45, 400, 1.0, 3.0, 0.5, 0.5,
     1.0, 0.29, 0.645, 0.0, 0),
    (378, 0.70, 2.47, 400, 1.0, 3.0, 0.5, 0.5,
     0.945, 0.3, 0.6225, 0.17666666666666667, 0),
    (386, 0.69, 2.26, 400, 1.0, 3.0, 0.5, 0.5,
     0.965, 0.31, 0.6375, 0.24666666666666667, 0),
    (250, 0.4, 1.0, 500, 2.0, 3.0, 0.3, 0.7,
     0.5, 0.8, 0.71, 0.6666666666666666, 0),
    (1000, 0.05, 0.1, 400, 1.0, 3.0, 0.9, 0.1,
     1.0, 0.95, 0.995, 0.9666666666666667, 1),
    (50, 0.95, 2.95, 400, 1.0, 3.0, 0.5, 0.5,
     0.125, 0.05, 0.0875, 0.016666666666666666, 0),
    (620, 1.0, 3.0, 500, 1.0, 3.0, 0.5, 0.5,
     1.0, 0.0, 0.5, 0.0, 1),
    (333, 0.33, 0.99, 444, 1.0, 3.0, 0.6, 0.4,
     0.75, 0.67, 0.718, 0.67, 0),
    (10, 0.01, 0.02, 100, 0.5, 2.5, 0.2, 0.8,
     0.1, 0.98, 0.804, 0.992, 0),
    (275, 1.75, 3.5, 550, 2.5, 3.5, 0.5, 0.5,
     0.5, 0.3, 0.4, 0.0, 0),
]


class _Outcome:
    def __init__(self, quality, recon_s, total_s):
        self.quality = quality
        self.recon_latency_s = recon_s
        self.total_latency_s = total_s
        self.tx_latency_s = total_s - recon_s


def test_criterion_1_reward_arithmetic():
    with criterion(1, "reward/score arithmetic"):
        assert len(_REWARD_CASES) >= 20
        for case in _REWARD_CASES:
            (q, recon_s, total_s, theta, phi_r, phi_t, w1, w2,
             exp_sq, exp_sl, exp_cam, exp_srv, exp_rel) = case
            thr = Thresholds(theta=theta, phi_total_s=phi_t, phi_recon_s=phi_r)
            weights = RewardWeights(w1, w2)
            out = _Outcome(q, recon_s, total_s)
            assert abs(quality_score(q, theta) - exp_sq) <= 1e-12, case
            assert abs(latency_score(recon_s, phi_r) - exp_sl) <= 1e-12, case
            assert abs(camera_reward(out, thr, weights) - exp_cam) <= 1e-12, case
            assert abs(server_reward(out, thr) - exp_srv) <= 1e-12, case
            assert reliability(q, total_s, recon_s, thr) == exp_rel, case


# ---------------------------------------------------------------------------
# 2. Q-update against an independent scalar recurrence (1e-9) and the
# stationary-reward fixed point r / (1 - gamma) (1e-6).
# ---------------------------------------------------------------------------

def test_criterion_2_q_update_oracle():
    with criterion(2, "q-update oracle"):
        # Randomized (state, action, reward) sequence with gamma = 0: the
        # update decouples per entry, so a plain scalar recurrence kept in a
        # dict is an exact independent oracle.
        rng = np.random.default_rng(2024)
        alpha = 0.35
        table = QTable(4)
        shadow: dict[tuple[str, int], float] = {}
        for _ in range(1000):
            state = f"s{int(rng.integers(5))}"
            action = int(rng.integers(4))
            reward = float(rng.uniform(-1.0, 1.0))
            q_update(table, state, action, reward, f"s{int(rng.integers(5))}",
                     alpha=alpha, gamma=0.0)
            key = (state, action)
            shadow[key] = (1.0 - alpha) * shadow.get(key, 0.0) + alpha * reward
        rows = table.to_dict()["rows"]
        for (state, action), expected in shadow.items():
            assert abs(rows[state][action] - expected) <= 1e-9

        # Fixed point: repeated updates of one entry with constant reward and
        # s == s_next converge to r / (1 - gamma).
        for alpha, gamma, r in ((0.9, 0.1, 1.0), (0.5, 0.9, 0.7), (0.3, 0.95, 0.25)):
            table = QTable(1)
            for _ in range(3000):
                q_update(table, "s", 0, r, "s", alpha=alpha, gamma=gamma)
            assert abs(table.to_dict()["rows"]["s"][0] - r / (1.0 - gamma)) <= 1e-6


# ---------------------------------------------------------------------------
# 3. Summary reliability equals an independent recount of the frame CSV.
# ---------------------------------------------------------------------------

def test_criterion_3_reliability_recount(tmp_path):
    with criterion(3, "reliability recount"):
        config = camera_study_config(seed=17, n_frames=1000)
        stats, log = run_episode(config)
        path = tmp_path / "frames.csv"
        write_frame_log(log, path)
        # Independent second pass: raw CSV parsing, integer counting.
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        rel_col = header.index("reliable")
        recount = sum(int(line.split(",")[rel_col]) for line in lines[1:])
        assert len(lines) - 1 == stats.frames
        assert recount == stats.reliable_frames
        assert stats.reliability_pct == 100.0 * recount / stats.frames


# ---------------------------------------------------------------------------
# 4. Trace statistics over 20 seeds: exact event counts, spike bounds,
# joint group disruption.
# ---------------------------------------------------------------------------

def test_criterion_4_trace_statistics():
    with criterion(4, "trace statistics over 20 seeds"):
        for seed in range(20):
            params = DisruptionParams(seed=seed)
            camera = generate_camera_trace(params)
            server = generate_server_trace(params)
            assert len(camera.events) == 10
            assert len(server.events) == 10
            for event in server.events:
                assert 400.0 <= event.added_ms <= 1200.0
            # Correlated groups fail jointly in every one of their events.
            for event in camera.events:
                window = camera.availability[event.start:event.stop, list(event.cameras)]
                assert window.size and window.max() == 0


# ---------------------------------------------------------------------------
# 5. Round-robin serves each of 4 servers exactly 25% of a 4000-frame run.
# ---------------------------------------------------------------------------

def test_criterion_5_round_robin_share():
    with criterion(5, "round-robin 25% share"):
        config = camera_study_config(seed=2)
        config.camera_policy = "random"
        stats, _ = run_episode(config)
        assert sorted(stats.server_histogram.keys()) == [0, 1, 2, 3]
        assert all(count == 1000 for count in stats.server_histogram.values())


# ---------------------------------------------------------------------------
# 6. Camera-axis ordinal reproduction: Q-learning beats Random by >= 10
# reliability points and stays within 2 points of Greedy-3 (medians over
# seeds 0..9, 4000 frames). Bands frozen after a 20-seed pilot (Q 93.34 /
# Greedy-3 93.34 / Random 56.33 medians; brute-force per-frame optimum
# median 100%, min 98.25%).
# ---------------------------------------------------------------------------

def _median_reliability(make_config, policies, seeds) -> dict[str, float]:
    rels: dict[str, list[float]] = {p: [] for p in policies}
    for seed in seeds:
        base = make_config(seed)
        camera_trace, server_trace = build_traces(base)
        for policy, slot in policies.items():
            config = make_config(seed)
            setattr(config, slot, policy)
            stats, _ = run_episode(config, camera_trace=camera_trace,
                                   server_trace=server_trace)
            rels[policy].append(stats.reliability_pct)
    return {p: statistics.median(v) for p, v in rels.items()}


def test_criterion_6_camera_axis_ordinal():
    with criterion(6, "camera-axis ordinal reproduction"):
        medians = _median_reliability(
            lambda seed: camera_study_config(seed=seed),
            {"qlearning": "camera_policy", "greedy3": "camera_policy",
             "random": "camera_policy"},
            seeds=range(10),
        )
        assert medians["qlearning"] >= medians["random"] + 10.0, medians
        assert medians["qlearning"] >= medians["greedy3"] - 2.0, medians


# ---------------------------------------------------------------------------
# 7. Server-axis ordinal reproduction under recurring heavy spikes:
# Adaptive Q-learning beats Round-Robin and beats Latency-Greedy by >= 20
# points (medians over seeds 0..9). 20-seed pilot medians: 61.52 / 48.14 /
# 36.74.
# ---------------------------------------------------------------------------

def test_criterion_7_server_axis_ordinal():
    with criterion(7, "server-axis ordinal reproduction"):
        def make(seed):
            config = server_study_config(seed=seed)
            config.server_agent = None
            return config

        medians = _median_reliability(
            make,
            {"adaptive_q": "server_policy", "round_robin": "server_policy",
             "latency_greedy": "server_policy"},
            seeds=range(10),
        )
        assert medians["adaptive_q"] > medians["round_robin"], medians
        assert medians["adaptive_q"] >= medians["latency_greedy"] + 20.0, medians


# ---------------------------------------------------------------------------
# 8. Determinism: replaying a (config, seed) pair yields byte-identical
# per-frame logs.
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    with criterion(8, "byte-identical replay"):
        fixed = camera_study_config(seed=23, n_frames=1500)
        fixed.server_policy = "qlearning"
        stress = server_study_config(seed=23, n_frames=1500)   # adaptive agents
        for tag, config in (("fixed", fixed), ("stress", stress)):
            blobs = []
            for name in ("one.csv", "two.csv"):
                _, log = run_episode(config)
                path = tmp_path / f"{tag}_{name}"
                write_frame_log(log, path)
                blobs.append(path.read_bytes())
            assert blobs[0] == blobs[1], tag


# ---------------------------------------------------------------------------
# 9. Small-scale oracle comparison: N=3 cameras, M=2 servers, 200 frames,
# noise-free. The Q-learning pair must reach >= 60% of the exhaustive
# per-frame optimum's reliable count after the first 50 frames.
# ---------------------------------------------------------------------------

def _small_scale_config(seed=31) -> ExperimentConfig:
    config = ExperimentConfig(
        n_frames=200, n_cameras=3, n_servers=2, k_min=2, k_max=3, seed=seed,
        camera_policy="qlearning", server_policy="qlearning",
    )
    config.quality.noise_sd = 0.0
    config.disruption = DisruptionParams(
        n_frames=200, n_cameras=3, n_servers=2, seed=seed,
        correlation_groups=((0, 1), (2,)),
        n_bump_events=4, mean_bump_len=15,
        n_spike_events=2, mean_spike_len=15,
    )
    return config


def test_criterion_9_small_scale_oracle():
    with criterion(9, "small-scale brute-force oracle"):
        config = _small_scale_config()
        camera_trace, server_trace = build_traces(config)
        quality_model = build_quality_model(config)
        latency_model = LatencyModel()
        space = enumerate_actions(3, 2, 3)

        oracle = []
        for frame in range(config.n_frames):
            best = 0
            for mask in space.actions:
                for server in range(2):
                    out = step(frame, mask, server, camera_trace, server_trace,
                               quality_model, latency_model, config.thresholds)
                    if out.reliable:
                        best = 1
                        break
                if best:
                    break
            oracle.append(best)

        _, log = run_episode(config, camera_trace=camera_trace, server_trace=server_trace)
        achieved = sum(log.reliable[50:])
        attainable = sum(oracle[50:])
        assert attainable > 0
        assert achieved >= 0.6 * attainable, (achieved, attainable)


# ---------------------------------------------------------------------------
# 10. Randomized adaptation never drives epsilon or alpha outside the
# configured clamps (10^4 steps).
# ---------------------------------------------------------------------------

def test_criterion_10_adaptive_clamps():
    with criterion(10, "adaptive clamp fuzzing"):
        rng = np.random.default_rng(99)
        space = enumerate_actions(3, 2, 3)
        for _ in range(20):
            lo_e, hi_e = sorted(rng.uniform(0.01, 1.0, 2))
            lo_a, hi_a = sorted(rng.uniform(0.01, 1.0, 2))
            params = AgentParams(
                alpha=float(rng.uniform(lo_a, hi_a)),
                epsilon=float(rng.uniform(lo_e, hi_e)),
                adaptive=True,
                eta_inc=float(rng.uniform(1.01, 3.0)),
                eta_dec=float(rng.uniform(0.5, 0.999)),
                lambda_inc=float(rng.uniform(1.01, 3.0)),
                lambda_dec=float(rng.uniform(0.5, 0.999)),
                eps_min=float(lo_e), eps_max=float(hi_e),
                alpha_min=float(lo_a), alpha_max=float(hi_a),
            )
            # An adaptive agent whose detector decides as the rng says.
            agent = QLearningCameraPolicy(space, params)
            mask = agent.select(np.random.default_rng(0))
            agent._detector.push = lambda reward: degraded
            for _ in range(500):
                degraded = bool(rng.random() < 0.5)
                agent.learn(mask, 0.0)
                assert params.eps_min <= agent.epsilon <= params.eps_max
                assert params.alpha_min <= agent.alpha <= params.alpha_max
