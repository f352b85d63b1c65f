"""Per-frame orchestration: bind policies to the environment and learn online.

Each frame: the camera policy picks a subset, the server policy observes
(subset size, previous server) and picks a server, the environment produces
the outcome, and once the configured feedback delay has elapsed both policies
learn from that frame's rewards. Everything is driven by the config seed.

The episode engine builds its lookup tables once per episode (integer
camera masks, popcounts, base quality by mask, reconstruction latency by
server and view count, the environment noise drawn in one call) and then
computes each frame inline, with the same float expressions as
``environment.step``, ``camera_reward``, ``server_reward`` and
``reliability``, appending to the columns of a FrameLog. ``step`` stays the
single-frame reference that the tests compare the engine against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .disruption import (CameraTrace, ServerLatencyTrace, generate_camera_trace,
                         generate_server_trace, load_traces)
from .environment import MIN_VIEWS, QualityModel, load_quality_trace, mask_from_str
from .errors import ConfigError
from .masks import Mask, mask_to_int, mask_to_str, popcount
from .metrics import FrameLog, RunStats
from .policies import (BanditCameraPolicy, GreedyTripletCameraPolicy, LatencyGreedyServerPolicy,
                       QLearningCameraPolicy, QLearningServerPolicy, RandomCameraPolicy,
                       RoundRobinServerPolicy, ServerState, enumerate_actions)

# The per-frame reference the engine reproduces without calling it. The names
# stay importable from this module, where perfbench's tracer rebinds them.
from .environment import step  # noqa: F401
from .metrics import camera_reward, server_reward  # noqa: F401

# Server the agent pretends it used before frame 0.
INITIAL_SERVER = 0

# Seed-stream tags for the independent RNG consumers of one episode.
_ENV_STREAM = 3
_CAMERA_POLICY_STREAM = 4
_SERVER_POLICY_STREAM = 5


def build_camera_policy(config: ExperimentConfig, space):
    name = config.camera_policy
    if name in ("qlearning", "adaptive_q"):
        return QLearningCameraPolicy(space, config.resolved_camera_agent())
    if name == "random":
        return RandomCameraPolicy(space)
    if name == "greedy3":
        return GreedyTripletCameraPolicy(config.n_cameras)
    if name == "bandit":
        return BanditCameraPolicy(space, config.bandit_epsilon)
    raise ConfigError(f"unknown camera_policy {name!r}")


def build_server_policy(config: ExperimentConfig):
    name = config.server_policy
    if name in ("qlearning", "adaptive_q"):
        return QLearningServerPolicy(config.n_servers, config.resolved_server_agent())
    if name == "round_robin":
        return RoundRobinServerPolicy(config.n_servers)
    if name == "latency_greedy":
        return LatencyGreedyServerPolicy(config.n_servers, config.ewma_beta)
    raise ConfigError(f"unknown server_policy {name!r}")


def build_traces(config: ExperimentConfig) -> tuple[CameraTrace, ServerLatencyTrace]:
    """Generate (or load) the disruption traces for this config.

    Pure in (config, seed): swapping policies never changes what comes back.
    """
    if config.traces_dir is not None:
        return load_traces(config.traces_dir)
    params = config.resolved_disruption()
    return generate_camera_trace(params), generate_server_trace(params)


def build_quality_model(config: ExperimentConfig) -> QualityModel:
    spec = config.quality
    if spec.mode == "trace":
        return load_quality_trace(spec.trace_path, config.n_cameras)
    table = None
    if spec.table is not None:
        table = {mask_from_str(k): float(v) for k, v in spec.table.items()}
    return QualityModel.synthetic(
        config.n_cameras,
        noise_sd=spec.noise_sd,
        table=table,
        camera_weights=spec.camera_weights,
        ceiling=spec.ceiling,
        curve=spec.curve,
        midpoint=spec.midpoint,
    )


def _mask_index(mask: Mask, n_cameras: int, k_min: int, k_max: int) -> int:
    """A policy's mask checked as ``step`` checks it, in its integer form."""
    if len(mask) != n_cameras:
        raise ValueError(f"mask has {len(mask)} bits, trace has {n_cameras} cameras")
    if not k_min <= popcount(mask) <= k_max:
        raise ValueError(f"mask {mask_to_str(mask)} violates subset bounds [{k_min}, {k_max}]")
    if any(bit not in (0, 1) for bit in mask):
        raise ValueError(f"mask {mask!r} must hold only 0/1 bits")
    return mask_to_int(mask)


def run_episode(config: ExperimentConfig,
                camera_trace: CameraTrace | None = None,
                server_trace: ServerLatencyTrace | None = None,
                camera_policy=None,
                server_policy=None) -> tuple[RunStats, FrameLog]:
    """Run one online-learning episode; returns aggregate stats and the frame log.

    Optional pre-built traces/policies support instrumented tests and trace
    reuse across runs; by default everything derives from the config.
    """
    config.validate()
    if camera_trace is None or server_trace is None:
        gen_cam, gen_srv = build_traces(config)
        camera_trace = camera_trace or gen_cam
        server_trace = server_trace or gen_srv
    n_frames, n_cameras = config.n_frames, config.n_cameras
    if camera_trace.frames < n_frames or server_trace.frames < n_frames:
        raise ConfigError(
            f"traces cover {camera_trace.frames}/{server_trace.frames} frames, "
            f"need {n_frames}"
        )
    if camera_trace.n_cameras != n_cameras:
        raise ConfigError(
            f"camera trace width {camera_trace.n_cameras} != n_cameras {n_cameras}"
        )
    if server_trace.n_servers != config.n_servers:
        raise ConfigError(
            f"server trace width {server_trace.n_servers} != n_servers {config.n_servers}"
        )

    if camera_policy is None:
        camera_policy = build_camera_policy(
            config, enumerate_actions(n_cameras, config.k_min, config.k_max))
    if server_policy is None:
        server_policy = build_server_policy(config)
    quality_model = build_quality_model(config)

    rng_env = np.random.default_rng([config.seed, _ENV_STREAM])
    rng_cam = np.random.default_rng([config.seed, _CAMERA_POLICY_STREAM])
    rng_srv = np.random.default_rng([config.seed, _SERVER_POLICY_STREAM])

    # Per-episode lookup tables. Masks are integers with camera 0 as the
    # most significant bit.
    n_servers, k_min, k_max = config.n_servers, config.k_min, config.k_max
    theta = config.thresholds.theta
    phi_total = config.thresholds.phi_total_s
    phi_recon = config.thresholds.phi_recon_s
    w1, w2 = config.weights.w1, config.weights.w2
    latency = config.latency
    place = 1 << np.arange(n_cameras - 1, -1, -1, dtype=np.int64)
    availability = ((camera_trace.availability[:n_frames].astype(np.int64) & 1) @ place).tolist()
    network_ms = server_trace.latency_ms[:n_frames].tolist()
    bits = [mask.bit_count() for mask in range(1 << n_cameras)]
    tx_ms = [latency.per_image_tx_ms * k for k in range(n_cameras + 1)]
    recon_s = [[(latency.recon_base_ms + latency.recon_per_image_ms * k) * latency.speed(s) / 1000.0
                for k in range(n_cameras + 1)] for s in range(n_servers)]
    recon_score = [[max(0.0, 1.0 - r / phi_recon) for r in row] for row in recon_s]
    base = quality_model.base_by_mask
    columns = quality_model.column_by_mask
    trace = quality_model.trace
    trace_frames = 0 if trace is None else trace.shape[0]
    noise = None
    if base is not None and quality_model.noise_sd > 0:
        # Frames with >= MIN_VIEWS surviving views take the next value in
        # turn; one bulk draw yields exactly the stream of per-frame draws.
        noise = rng_env.normal(0.0, quality_model.noise_sd, size=n_frames).tolist()
    mask_ids: dict[Mask, int] = {}    # masks seen so far, checked once each

    log = FrameLog(n_cameras, availability)
    add_mask, add_server = log.masks.append, log.servers.append
    add_quality, add_tx, add_recon = log.quality.append, log.tx_s.append, log.recon_s.append
    add_total, add_reliable = log.total_s.append, log.reliable.append
    add_r_cam, add_r_srv = log.camera_reward.append, log.server_reward.append
    add_cam_eps, add_cam_alpha = log.camera_epsilon.append, log.camera_alpha.append
    add_srv_eps, add_srv_alpha = log.server_epsilon.append, log.server_alpha.append
    cam_select, cam_learn = camera_policy.select, camera_policy.learn
    srv_select, srv_learn = server_policy.select, server_policy.learn
    # A fresh ServerState per frame, built without NamedTuple's Python-level __new__.
    new_state = tuple.__new__
    delay = config.feedback_delay_frames
    sels: list[Mask] = []             # with delayed feedback: selections and states
    states: list[ServerState] = []    # awaiting their learn calls
    nan = float("nan")
    drawn = 0
    prev_server = INITIAL_SERVER

    for frame in range(n_frames):
        sel = cam_select(rng_cam)
        mask = mask_ids.get(sel)
        state = new_state(ServerState, (popcount(sel) if mask is None else bits[mask], prev_server))
        server = srv_select(frame, state, rng_srv)
        if not 0 <= server < n_servers:
            raise IndexError(f"server {server} out of range, trace has {n_servers}")
        if mask is None:
            mask = mask_ids[sel] = _mask_index(sel, n_cameras, k_min, k_max)

        effective = mask & availability[frame]
        k = bits[effective]
        if k < MIN_VIEWS:
            quality = 0.0
        elif base is not None:
            quality = base[effective]
            if quality is None:
                raise ConfigError(f"quality table has no entry for subset "
                                  f"{format(effective, f'0{n_cameras}b')}")
            if noise is not None:
                quality = max(0.0, quality + noise[drawn])
                drawn += 1
        else:
            if frame >= trace_frames:
                raise IndexError(f"frame {frame} beyond quality trace length {trace_frames}")
            quality = trace.item(frame, columns[effective])
        recon = recon_s[server][k]
        tx = (tx_ms[k] + network_ms[frame][server]) / 1000.0
        total = tx + recon
        r_cam = w1 * min(1.0, quality / theta) + w2 * recon_score[server][k]
        r_srv = max(0.0, 1.0 - total / phi_total)

        add_mask(mask)
        add_server(server)
        add_quality(quality)
        add_tx(tx)
        add_recon(recon)
        add_total(total)
        add_reliable(1 if quality >= theta and total <= phi_total and recon <= phi_recon else 0)
        add_r_cam(r_cam)
        add_r_srv(r_srv)
        add_cam_eps(getattr(camera_policy, "epsilon", nan))
        add_cam_alpha(getattr(camera_policy, "alpha", nan))
        add_srv_eps(getattr(server_policy, "epsilon", nan))
        add_srv_alpha(getattr(server_policy, "alpha", nan))

        if not delay:
            # Immediate feedback: frame t+1 has not happened yet, so
            # bootstrap as if the subset size carried over.
            cam_learn(sel, r_cam, quality=quality)
            srv_learn(state, server, r_srv, new_state(ServerState, (bits[mask], server)), total)
        else:
            sels.append(sel)
            states.append(state)
            if frame >= delay:
                # The learn call for frame t sees the state the server agent
                # actually faced at frame t+1.
                t = frame - delay
                cam_learn(sels[t], log.camera_reward[t], quality=log.quality[t])
                srv_learn(states[t], log.servers[t], log.server_reward[t], states[t + 1],
                          log.total_s[t])
        prev_server = server

    return RunStats.from_log(log), log


@dataclass
class GridResult:
    config_id: str
    stats: RunStats | None
    error: str | None = None


def run_grid(configs, ids=None) -> list[GridResult]:
    """Run independent episodes; a failure in one is reported, not propagated."""
    if ids is None:
        ids = [f"config-{i}" for i in range(len(configs))]
    if len(ids) != len(configs):
        raise ConfigError(f"got {len(ids)} ids for {len(configs)} configs")
    results = []
    for config_id, config in zip(ids, configs):
        try:
            stats, _log = run_episode(config)
            results.append(GridResult(config_id=config_id, stats=stats))
        except Exception as exc:   # noqa: BLE001 - per-episode isolation is the contract
            results.append(GridResult(config_id=config_id, stats=None, error=str(exc)))
    return results
