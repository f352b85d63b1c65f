"""The columnar episode engine against a plain per-frame reference loop.

The reference is the object-per-frame loop the engine replaced: it calls
``environment.step``, ``camera_reward``, ``server_reward`` and
``RunStats.add`` once per frame, queues delayed feedback in a deque and
builds its own FrameLog column by column. On random small configs both must
produce the same frames, statistics, frame log bytes and learned policy
state, and raise the same errors when a policy or a quality table misbehaves.
"""

import csv
import tempfile
from collections import deque
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edgerecon.config import SERVER_POLICIES, ExperimentConfig, QualitySpec
from edgerecon.controller import (_CAMERA_POLICY_STREAM, _ENV_STREAM, _SERVER_POLICY_STREAM,
                                  INITIAL_SERVER, build_camera_policy, build_quality_model,
                                  build_server_policy, build_traces, run_episode)
from edgerecon.disruption import DisruptionParams
from edgerecon.environment import MIN_VIEWS, LatencyModel, step
from edgerecon.errors import ConfigError
from edgerecon.masks import bitstring, mask_from_str, subsets
from edgerecon.metrics import (FrameLog, RunStats, Thresholds, camera_reward, server_reward,
                               write_frame_log)
from edgerecon.policies import (DegradationDetector, QTable, RoundRobinServerPolicy, ServerState,
                                _QRow, enumerate_actions)
from references import synthetic_quality_table


def reference_episode(config, camera_policy, server_policy):
    """One episode, frame by frame through the single-frame reference functions.

    Returns the stats, the frame log and the effective mask ``step`` gave for
    each frame. A mask that does not fit the camera count fails in ``step``.
    The log's availability column is read from the trace's 0/1 text.
    """
    config.validate()
    camera_trace, server_trace = build_traces(config)
    quality_model = build_quality_model(config)
    rng_env = np.random.default_rng([config.seed, _ENV_STREAM])
    rng_cam = np.random.default_rng([config.seed, _CAMERA_POLICY_STREAM])
    rng_srv = np.random.default_rng([config.seed, _SERVER_POLICY_STREAM])
    delay = config.feedback_delay_frames
    pending = deque()          # [frame, mask, state, server, r_cam, r_srv, outcome, next_state]
    log = FrameLog(config.n_cameras, [])
    effective = []
    stats = RunStats()
    nan = float("nan")
    prev_server = INITIAL_SERVER
    for frame in range(config.n_frames):
        sel = camera_policy.select(rng_cam)
        state = ServerState(sel.bit_count(), prev_server)
        if pending and pending[-1][7] is None:
            pending[-1][7] = state
        server = server_policy.select(frame, state, rng_srv)
        outcome = step(frame, sel, server, camera_trace, server_trace, quality_model,
                       config.latency, config.thresholds, k_min=config.k_min,
                       k_max=config.k_max, rng=rng_env)
        r_cam = camera_reward(outcome, config.thresholds, config.weights)
        r_srv = server_reward(outcome, config.thresholds)
        log.availability.append(mask_from_str("".join(map(str, camera_trace.availability[frame]))))
        log.masks.append(sel)
        log.servers.append(server)
        log.quality.append(outcome.quality)
        log.tx_s.append(outcome.tx_latency_s)
        log.recon_s.append(outcome.recon_latency_s)
        log.total_s.append(outcome.total_latency_s)
        log.reliable.append(outcome.reliable)
        log.camera_reward.append(r_cam)
        log.server_reward.append(r_srv)
        log.camera_epsilon.append(getattr(camera_policy, "epsilon", nan))
        log.camera_alpha.append(getattr(camera_policy, "alpha", nan))
        log.server_epsilon.append(getattr(server_policy, "epsilon", nan))
        log.server_alpha.append(getattr(server_policy, "alpha", nan))
        effective.append(outcome.effective_mask)
        stats.add(SimpleNamespace(outcome=outcome, mask=bitstring(sel, config.n_cameras),
                                  server=server, camera_reward=r_cam, server_reward=r_srv))
        pending.append([frame, sel, state, server, r_cam, r_srv, outcome, None])
        while pending and pending[0][0] + delay <= frame:
            t, fb_sel, fb_state, fb_server, fb_cam, fb_srv, fb_out, nxt = pending.popleft()
            if nxt is None:
                nxt = ServerState(fb_sel.bit_count(), fb_server)
            camera_policy.learn(fb_sel, fb_cam, quality=fb_out.quality)
            server_policy.learn(fb_state, fb_server, fb_srv, nxt, fb_out.total_latency_s)
        prev_server = server
    return stats, log, effective


def policies(config):
    space = enumerate_actions(config.n_cameras, config.k_min, config.k_max)
    return build_camera_policy(config, space), build_server_policy(config)


def row_state(row: _QRow) -> tuple:
    return row.values.tolist(), row.greedy, row.bound


def policy_state(policy) -> dict:
    state = {}
    for key, value in vars(policy).items():
        if isinstance(value, QTable):
            value = value.to_dict()
        elif isinstance(value, _QRow):   # a row handle: values, greedy action and bound
            value = row_state(value)
        elif isinstance(value, dict) and all(isinstance(v, _QRow) for v in value.values()):
            value = {k: row_state(v) for k, v in value.items()}
        elif isinstance(value, DegradationDetector):
            value = policy_state(value)
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, deque):
            value = list(value)
        state[key] = value
    return state


def columns(log) -> str:
    # repr keeps every float exactly and makes NaN compare equal to NaN.
    return repr(vars(log))


def write_quality_trace_csv(path: Path, n_cameras: int, n_frames: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    masks = subsets(n_cameras, MIN_VIEWS, n_cameras)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame"] + [bitstring(m, n_cameras) for m in masks])
        for frame in range(n_frames):
            writer.writerow([frame] + [repr(float(v)) for v in rng.uniform(0, 700, len(masks))])


@st.composite
def small_configs(draw):
    n = draw(st.integers(2, 6))
    k_min = draw(st.integers(1, n))
    k_max = draw(st.integers(k_min, n))
    camera_policies = ["qlearning", "adaptive_q", "bandit", "random"]
    if n >= 3 and k_min <= 3 <= k_max:
        camera_policies.append("greedy3")
    n_servers = draw(st.integers(1, 4))
    n_frames = draw(st.integers(20, 70))
    seed = draw(st.integers(0, 2 ** 16))
    phi_total = draw(st.floats(1.0, 4.0))
    speed = draw(st.none() | st.lists(st.floats(0.5, 2.5), min_size=n_servers,
                                      max_size=n_servers).map(tuple))
    weights = tuple(draw(st.lists(st.floats(0.3, 1.0), min_size=n, max_size=n)))
    # An explicit table: every subset, or only those a selection within k_max can leave.
    table = draw(st.sampled_from([None, n, k_max]))
    if table is not None:
        table = {mask: value for mask, value in synthetic_quality_table(n, weights).items()
                 if mask.count("1") <= table}
    config = ExperimentConfig(
        n_frames=n_frames, n_cameras=n, n_servers=n_servers, k_min=k_min, k_max=k_max,
        seed=seed,
        camera_policy=draw(st.sampled_from(camera_policies)),
        server_policy=draw(st.sampled_from(SERVER_POLICIES)),
        feedback_delay_frames=draw(st.integers(0, 3)),
        thresholds=Thresholds(theta=draw(st.floats(150.0, 600.0)), phi_total_s=phi_total,
                              phi_recon_s=draw(st.floats(0.5, phi_total))),
        quality=QualitySpec(
            # 1000 takes many frames' quality below 0, where the clamp sets 0.0.
            noise_sd=draw(st.sampled_from([0.0, 30.0, 1000.0])),
            camera_weights=weights,
            table=table,
        ),
        latency=LatencyModel(per_image_tx_ms=draw(st.floats(50.0, 400.0)),
                             server_speed_factor=speed),
    )
    config.disruption = DisruptionParams(
        n_frames=n_frames, n_cameras=n, n_servers=n_servers, seed=seed,
        correlation_groups=tuple(tuple(range(i, min(i + 2, n))) for i in range(0, n, 2)),
        n_bump_events=draw(st.integers(0, 2)), mean_bump_len=draw(st.integers(2, 8)),
        n_spike_events=draw(st.integers(0, 2)), mean_spike_len=5,
    )
    return config, draw(st.booleans())


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_configs())
def test_engine_matches_reference_loop(case):
    config, trace_quality = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if trace_quality:
            config.quality.mode = "trace"
            config.quality.trace_path = str(tmp / "quality.csv")
            write_quality_trace_csv(tmp / "quality.csv", config.n_cameras, config.n_frames,
                                    config.seed)
        ref_cam, ref_srv = policies(config)
        cam, srv = policies(config)
        try:
            ref_stats, ref_log, ref_effective = reference_episode(config, ref_cam, ref_srv)
        except ConfigError:
            # E.g. events that cannot be placed without overlap: the engine
            # must reject the config the same way.
            with pytest.raises(ConfigError):
                run_episode(config, camera_policy=cam, server_policy=srv)
            return
        stats, log = run_episode(config, camera_policy=cam, server_policy=srv)

        assert len(log) == len(ref_log)
        assert columns(log) == columns(ref_log)
        assert [m & a for m, a in zip(log.masks, log.availability)] == ref_effective
        assert vars(stats) == vars(ref_stats)
        assert policy_state(cam) == policy_state(ref_cam)
        assert policy_state(srv) == policy_state(ref_srv)
        write_frame_log(log, tmp / "engine.csv")
        write_frame_log(ref_log, tmp / "reference.csv")
        assert (tmp / "engine.csv").read_bytes() == (tmp / "reference.csv").read_bytes()


class _OutOfRangeServer(RoundRobinServerPolicy):
    def select(self, frame, state=None, rng=None):
        return self.n_servers if frame == 3 else super().select(frame, state, rng)


class _BadMaskCamera:
    def __init__(self, bad_mask):
        self.bad_mask = bad_mask

    def select(self, rng):
        return self.bad_mask if rng.random() < 0.2 else 0b11000

    def learn(self, mask, reward, quality=None):
        pass


def _error_type(fn):
    try:
        fn()
    except Exception as exc:   # noqa: BLE001 - the type is what the tests compare
        return type(exc)
    return None


@pytest.mark.parametrize("make_policies, quality_table, expected", [
    (lambda: (0b11000, _OutOfRangeServer(4)), None, IndexError),
    (lambda: (0b11100, RoundRobinServerPolicy(4)), None, ValueError),   # above k_max
    (lambda: (1 << 5, RoundRobinServerPolicy(4)), None, ValueError),    # one bit too wide
    (lambda: (0b11000, RoundRobinServerPolicy(4)),
     {"00011": 300.0}, ConfigError),                                     # partial table
    (lambda: (-1, RoundRobinServerPolicy(4)), None, ValueError),        # negative
])
def test_misbehaviour_raises_same_error_type(make_policies, quality_table, expected):
    def run(engine):
        config = ExperimentConfig(n_frames=40, seed=2, k_max=2, camera_policy="random")
        config.quality.table = quality_table
        mask, server_policy = make_policies()
        camera_policy = _BadMaskCamera(mask)
        if engine:
            run_episode(config, camera_policy=camera_policy, server_policy=server_policy)
        else:
            reference_episode(config, camera_policy, server_policy)

    assert _error_type(lambda: run(False)) is expected
    assert _error_type(lambda: run(True)) is expected
