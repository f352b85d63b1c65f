"""Per-frame orchestration: bind policies to the environment and learn online.

Each frame: the camera policy picks a subset, the server policy observes
(subset size, previous server) and picks a server, the environment produces
the outcome, and once the configured feedback delay has elapsed both policies
learn from that frame's rewards. Everything is driven by the config seed.

The camera policy's subset is an integer mask (see the ``masks`` module),
the package's one mask form, and indexes the engine's tables directly. The
engine builds those tables once per episode (camera availability as integer
masks, popcounts, base quality by frame and mask, reconstruction latency by
server and view count, the environment noise drawn in one call) and then
computes each frame inline, with the same float expressions as
``environment.step``, ``camera_reward``, ``server_reward`` and
``reliability``, appending to the columns of a FrameLog. ``step`` stays the
single-frame reference that the tests compare the engine against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .disruption import (SERVERS_FILE, CameraTrace, ServerLatencyTrace, generate_camera_trace,
                         generate_server_trace, load_traces)
from .environment import MIN_VIEWS, QualityModel, load_quality_trace
from .errors import ConfigError, TraceFormatError
from .masks import bitstring
from .metrics import FrameLog, RunStats
from .policies import (BanditCameraPolicy, DrawStream, GreedyTripletCameraPolicy,
                       LatencyGreedyServerPolicy, QLearningCameraPolicy, QLearningServerPolicy,
                       RandomCameraPolicy, RoundRobinServerPolicy, ServerState, enumerate_actions)

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
    A replayed server latency so large that a frame's total latency
    overflows raises TraceFormatError naming servers.csv.
    """
    if config.traces_dir is not None:
        camera, server = load_traces(config.traces_dir)
        network = float(server.latency_ms[:config.n_frames].max(initial=0.0))
        if not math.isfinite(config.worst_latency_ms(network)):
            raise TraceFormatError(
                f"{Path(config.traces_dir) / SERVERS_FILE}: a latency of {network!r} ms makes "
                f"the total latency at n_cameras={config.n_cameras} overflow")
        return camera, server
    params = config.resolved_disruption()
    return generate_camera_trace(params), generate_server_trace(params)


def build_quality_model(config: ExperimentConfig) -> QualityModel:
    spec = config.quality
    if spec.mode == "trace":
        model = load_quality_trace(spec.trace_path, config.n_cameras)
        if len(model.table) < config.n_frames:
            raise ConfigError(
                f"quality trace covers {len(model.table)} frames, need {config.n_frames}"
            )
        return model
    return QualityModel.synthetic(
        config.n_cameras,
        noise_sd=spec.noise_sd,
        table=spec.table,
        camera_weights=spec.camera_weights,
        ceiling=spec.ceiling,
        curve=spec.curve,
        midpoint=spec.midpoint,
    )


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

    # The policies draw through DrawStreams: the same values as their
    # generators' random() and integers(n), without numpy's per-call cost.
    rng_env = np.random.default_rng([config.seed, _ENV_STREAM])
    rng_cam = DrawStream(np.random.default_rng([config.seed, _CAMERA_POLICY_STREAM]))
    rng_srv = DrawStream(np.random.default_rng([config.seed, _SERVER_POLICY_STREAM]))

    # Per-episode lookup tables, indexed by integer mask where they hold one
    # entry per subset.
    n_servers, k_min, k_max = config.n_servers, config.k_min, config.k_max
    theta = config.thresholds.theta
    phi_total = config.thresholds.phi_total_s
    phi_recon = config.thresholds.phi_recon_s
    w1, w2 = config.weights.w1, config.weights.w2
    latency = config.latency
    place = 1 << np.arange(n_cameras - 1, -1, -1, dtype=np.int64)
    availability = ((camera_trace.availability[:n_frames].astype(np.int64) & 1) @ place).tolist()
    network_ms = server_trace.latency_ms[:n_frames].tolist()
    n_masks = 1 << n_cameras
    bits = [mask.bit_count() for mask in range(n_masks)]
    tx_ms = [latency.per_image_tx_ms * k for k in range(n_cameras + 1)]
    recon_s = [[(latency.recon_base_ms + latency.recon_per_image_ms * k) * latency.speed(s) / 1000.0
                for k in range(n_cameras + 1)] for s in range(n_servers)]
    recon_score = [[max(0.0, 1.0 - r / phi_recon) for r in row] for row in recon_s]
    # Base quality of frame t and integer mask m is quality_rows[t][m]; every
    # subset the engine can look up has an entry (checked by config.validate
    # and load_quality_trace). A synthetic table is one list that every frame
    # shares. A replayed trace stays in its array: a memoryview per frame
    # also yields Python floats, without n_frames x 2**n_cameras of them.
    table = quality_model.table
    quality_rows = ([memoryview(row) for row in table[:n_frames]] if table.ndim == 2
                    else [table.tolist()] * n_frames)
    noise = None
    if quality_model.noise_sd > 0:
        # Frames with >= MIN_VIEWS surviving views take the next value in
        # turn; one bulk draw yields exactly the stream of per-frame draws.
        noise = rng_env.normal(0.0, quality_model.noise_sd, size=n_frames).tolist()

    log = FrameLog(n_cameras, availability)
    add_mask, add_server = log.masks.append, log.servers.append
    add_quality, add_tx, add_recon = log.quality.append, log.tx_s.append, log.recon_s.append
    add_total, add_reliable = log.total_s.append, log.reliable.append
    add_r_cam, add_r_srv = log.camera_reward.append, log.server_reward.append
    add_cam_eps, add_cam_alpha = log.camera_epsilon.append, log.camera_alpha.append
    add_srv_eps, add_srv_alpha = log.server_epsilon.append, log.server_alpha.append
    # Which policies expose epsilon/alpha is decided once per episode; the
    # columns of an attribute a policy lacks are filled with NaN after the loop.
    cam_eps, cam_alpha = hasattr(camera_policy, "epsilon"), hasattr(camera_policy, "alpha")
    srv_eps, srv_alpha = hasattr(server_policy, "epsilon"), hasattr(server_policy, "alpha")
    cam_select, cam_learn = camera_policy.select, camera_policy.learn
    srv_select, srv_learn = server_policy.select, server_policy.learn
    # Every ServerState the episode can meet, built once: states[k][prev] for
    # k selected cameras and previous server prev. Frames share these objects.
    states = [[ServerState(k, prev) for prev in range(n_servers)] for k in range(n_cameras + 1)]
    delay = config.feedback_delay_frames
    sels: list[int] = []              # with delayed feedback: selections and states
    seen: list[ServerState] = []      # awaiting their learn calls
    nan = float("nan")
    drawn = 0
    prev_server = INITIAL_SERVER

    for frame in range(n_frames):
        sel = cam_select(rng_cam)
        if not (0 <= sel < n_masks and k_min <= bits[sel] <= k_max):
            raise ValueError(f"mask {bitstring(sel, n_cameras)} is not a subset of "
                             f"{k_min}..{k_max} of the {n_cameras} cameras")
        by_prev = states[bits[sel]]
        state = by_prev[prev_server]
        server = srv_select(frame, state, rng_srv)
        if not 0 <= server < n_servers:
            raise IndexError(f"server {server} out of range, trace has {n_servers}")

        # Each clamp is the comparison the builtin makes, which keeps its first
        # argument unless the second is strictly beyond it: max(0.0, v) is
        # ``v if v > 0.0 else 0.0`` and min(1.0, v) is ``v if v < 1.0 else 1.0``,
        # also for NaN and -0.0.
        effective = sel & availability[frame]
        k = bits[effective]
        if k < MIN_VIEWS:
            quality = 0.0
        else:
            quality = quality_rows[frame][effective]
            if noise is not None:
                quality += noise[drawn]
                quality = quality if quality > 0.0 else 0.0
                drawn += 1
        recon = recon_s[server][k]
        tx = (tx_ms[k] + network_ms[frame][server]) / 1000.0
        total = tx + recon
        score = quality / theta
        r_cam = w1 * (score if score < 1.0 else 1.0) + w2 * recon_score[server][k]
        r_srv = 1.0 - total / phi_total
        r_srv = r_srv if r_srv > 0.0 else 0.0

        add_mask(sel)
        add_server(server)
        add_quality(quality)
        add_tx(tx)
        add_recon(recon)
        add_total(total)
        add_reliable(1 if quality >= theta and total <= phi_total and recon <= phi_recon else 0)
        add_r_cam(r_cam)
        add_r_srv(r_srv)
        if cam_eps:
            add_cam_eps(camera_policy.epsilon)
        if cam_alpha:
            add_cam_alpha(camera_policy.alpha)
        if srv_eps:
            add_srv_eps(server_policy.epsilon)
        if srv_alpha:
            add_srv_alpha(server_policy.alpha)

        if not delay:
            # Immediate feedback: frame t+1 has not happened yet, so
            # bootstrap as if the subset size carried over.
            cam_learn(sel, r_cam, quality)
            srv_learn(state, server, r_srv, by_prev[server], total)
        else:
            sels.append(sel)
            seen.append(state)
            if frame >= delay:
                # The learn call for frame t sees the state the server agent
                # actually faced at frame t+1.
                t = frame - delay
                cam_learn(sels[t], log.camera_reward[t], log.quality[t])
                srv_learn(seen[t], log.servers[t], log.server_reward[t], seen[t + 1],
                          log.total_s[t])
        prev_server = server

    for present, column in ((cam_eps, log.camera_epsilon), (cam_alpha, log.camera_alpha),
                            (srv_eps, log.server_epsilon), (srv_alpha, log.server_alpha)):
        if not present:
            column.extend([nan] * n_frames)
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
