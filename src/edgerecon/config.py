"""Experiment configuration: dataclasses, YAML loading, and scenario presets.

Every run is fully determined by (config, seed); nothing reads the wall
clock. The YAML schema maps 1:1 onto ExperimentConfig and rejects unknown
keys so typos fail loudly instead of silently falling back to defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import yaml

from .disruption import DisruptionParams
from .environment import MIN_VIEWS, LatencyModel, QualityModel, QualitySpec, missing_subsets
from .errors import (PATH, ConfigError, Integer, OneOf, Optional, Real, Section, check_fields,
                     load_section, setting)
from .masks import MAX_CAMERAS, bitstring, mask_from_str
from .metrics import RewardWeights, Thresholds
from .policies import AgentParams

CAMERA_POLICIES = ("qlearning", "adaptive_q", "greedy3", "bandit", "random")
SERVER_POLICIES = ("qlearning", "adaptive_q", "round_robin", "latency_greedy")


def default_camera_agent_params(policy: str) -> AgentParams:
    if policy == "adaptive_q":
        return AgentParams(alpha=0.5, gamma=0.1, epsilon=1.0, adaptive=True)
    return AgentParams(alpha=0.9, gamma=0.1, epsilon=0.1)


def default_server_agent_params(policy: str) -> AgentParams:
    if policy == "adaptive_q":
        return AgentParams(alpha=0.3, gamma=0.95, epsilon=0.2, adaptive=True)
    return AgentParams(alpha=0.9, gamma=0.1, epsilon=0.1)


@dataclass
class ExperimentConfig:
    n_frames: int = setting(Integer("[1, inf)"), 4000)
    n_cameras: int = setting(Integer(f"[1, {MAX_CAMERAS}]"), 5)
    n_servers: int = setting(Integer("[1, inf)"), 4)
    k_min: int = setting(Integer("[1, inf)"), 2)
    k_max: int = setting(Integer("[k_min, n_cameras]"), 5)
    seed: int = setting(Integer("[0, inf)"), 0)
    camera_policy: str = setting(OneOf(CAMERA_POLICIES), "qlearning")
    server_policy: str = setting(OneOf(SERVER_POLICIES), "round_robin")
    feedback_delay_frames: int = setting(Integer("[0, inf)"), 0)
    thresholds: Thresholds = setting(Section(Thresholds), factory=Thresholds)
    weights: RewardWeights = setting(Section(RewardWeights), factory=RewardWeights)
    # None -> policy-specific defaults
    camera_agent: AgentParams | None = setting(Optional(Section(AgentParams)), None)
    server_agent: AgentParams | None = setting(Optional(Section(AgentParams)), None)
    bandit_epsilon: float = setting(Real("[0, 1]"), 0.1)
    ewma_beta: float = setting(Real("(0, 1]"), 0.3)
    # None -> defaults sized from this config
    disruption: DisruptionParams | None = setting(Optional(Section(DisruptionParams)), None)
    # Load cameras.csv/servers.csv from here instead of generating them.
    traces_dir: str | None = setting(Optional(PATH), None)
    quality: QualitySpec = setting(Section(QualitySpec), factory=QualitySpec)
    latency: LatencyModel = setting(Section(LatencyModel), factory=LatencyModel)

    def validate(self) -> None:
        check_fields(self, "")
        if self.camera_policy == "greedy3" and not self.k_min <= 3 <= self.k_max:
            raise ConfigError(
                "camera_policy 'greedy3' emits 3-camera subsets, which violates "
                f"subset bounds [k_min, k_max] = [{self.k_min}, {self.k_max}]"
            )
        quality, latency = self.quality, self.latency
        speeds = latency.server_speed_factor
        if speeds is not None and len(speeds) != self.n_servers:
            raise ConfigError(
                f"latency.server_speed_factor has {len(speeds)} entries, "
                f"expected n_servers={self.n_servers}"
            )
        if quality.table is not None:
            # The model checks the keys' width and that quality never drops
            # as a camera joins the subset.
            try:
                QualityModel.synthetic(self.n_cameras, table=quality.table)
            except ConfigError as exc:
                raise ConfigError(f"quality.table: {exc}") from exc
            short, gaps = missing_subsets(map(mask_from_str, quality.table), self.n_cameras, self.k_max)
            if short:
                raise ConfigError(f"quality.table has no entry for subset {bitstring(gaps[0], self.n_cameras)}; "
                                  f"it must cover every subset of {MIN_VIEWS}..k_max={self.k_max} cameras")
        elif quality.mode == "synthetic":
            quality.synthetic_weights(self.n_cameras)
        if self.disruption is not None:
            d = self.disruption
            if d.n_cameras != self.n_cameras or d.n_servers != self.n_servers:
                raise ConfigError(
                    "disruption camera/server counts must match the experiment "
                    f"({d.n_cameras}x{d.n_servers} vs {self.n_cameras}x{self.n_servers})"
                )
            if d.n_frames < self.n_frames:
                raise ConfigError(
                    f"disruption.n_frames ({d.n_frames}) is shorter than n_frames ({self.n_frames})"
                )
        # The engine's latencies at n_cameras views must be finite. A replayed
        # network latency is not known here; build_traces checks it on loading.
        network = 0.0 if self.traces_dir is not None else self.resolved_disruption().peak_latency_ms
        if not math.isfinite(self.worst_latency_ms(network)):
            raise ConfigError(
                "latency.per_image_tx_ms, latency.recon_base_ms, latency.recon_per_image_ms and "
                f"latency.server_speed_factor give a non-finite latency at n_cameras={self.n_cameras}")

    def worst_latency_ms(self, network_ms: float) -> float:
        """The largest total latency, in ms, of a frame whose network latency is at most network_ms."""
        latency = self.latency
        recon = latency.recon_base_ms + latency.recon_per_image_ms * self.n_cameras
        speed = max(latency.server_speed_factor or (1.0,))
        return latency.per_image_tx_ms * self.n_cameras + network_ms + recon * speed

    def resolved_disruption(self) -> DisruptionParams:
        """Disruption parameters sized and seeded from this config when not given explicitly.

        The default scenario is defined at the 4000-frame reference length;
        shorter or longer runs keep the same event density, so event counts
        scale with n_frames (a 10-frame smoke run simply has no events).
        """
        if self.disruption is not None:
            return self.disruption
        reference = DisruptionParams()
        scale = self.n_frames / reference.n_frames
        return DisruptionParams(
            n_frames=self.n_frames,
            n_cameras=self.n_cameras,
            n_servers=self.n_servers,
            n_bump_events=round(reference.n_bump_events * scale),
            n_spike_events=round(reference.n_spike_events * scale),
            seed=self.seed,
        )

    def resolved_camera_agent(self) -> AgentParams:
        if self.camera_agent is not None:
            return self.camera_agent
        return default_camera_agent_params(self.camera_policy)

    def resolved_server_agent(self) -> AgentParams:
        if self.server_agent is not None:
            return self.server_agent
        return default_server_agent_params(self.server_policy)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from a parsed YAML/JSON mapping."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
    raw = dict(raw)
    disruption = raw.pop("disruption", None)
    config = load_section(ExperimentConfig, raw, "")
    if disruption is not None:
        config.disruption = load_section(
            DisruptionParams, disruption, "disruption", n_frames=config.n_frames,
            n_cameras=config.n_cameras, n_servers=config.n_servers, seed=config.seed)
    config.validate()
    return config


def load_config(path) -> ExperimentConfig:
    """Parse a YAML (or JSON) config file into a validated ExperimentConfig."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:   # a directory, say
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config root must be a mapping")
    return config_from_dict(raw)


def apply_overrides(config: ExperimentConfig, seed: int | None = None,
                    n_frames: int | None = None) -> ExperimentConfig:
    """CLI-level --seed/--frames overrides; re-derives dependent disruption sizing."""
    if seed is None and n_frames is None:
        return config
    updated = replace(
        config,
        seed=config.seed if seed is None else seed,
        n_frames=config.n_frames if n_frames is None else n_frames,
    )
    if config.disruption is not None:
        updated.disruption = replace(
            config.disruption,
            n_frames=updated.n_frames,
            seed=updated.seed,
        )
    updated.validate()
    return updated


def camera_study_config(seed: int = 0, n_frames: int = 4000) -> ExperimentConfig:
    """Default camera-selection scenario: every camera policy against a round-robin server."""
    return ExperimentConfig(
        seed=seed,
        n_frames=n_frames,
        camera_policy="qlearning",
        server_policy="round_robin",
        thresholds=Thresholds(theta=400.0),
    )


def server_study_config(seed: int = 0, n_frames: int = 4000) -> ExperimentConfig:
    """Server-selection stress scenario with recurring heavy spikes.

    Server 0 is a slow-compute machine whose steady end-to-end latency sits
    just past the budget, so chasing the lowest average latency walks straight
    into it once every other server has shown one bad sample. The remaining
    servers are fast but suffer long, heavy load spikes. Event counts are
    defined at the 4000-frame reference and scale with n_frames.
    """
    base = ExperimentConfig(
        seed=seed,
        n_frames=n_frames,
        camera_policy="greedy3",
        server_policy="adaptive_q",
        thresholds=Thresholds(theta=500.0),
        latency=LatencyModel(server_speed_factor=(2.45, 1.0, 1.0, 1.0)),
    )
    scale = n_frames / 4000
    base.disruption = DisruptionParams(
        n_frames=n_frames,
        n_cameras=base.n_cameras,
        n_servers=base.n_servers,
        seed=seed,
        n_bump_events=round(10 * scale),
        n_spike_events=round(18 * scale),
        mean_spike_len=220,
        spike_range_ms=(2000.0, 4000.0),
        spike_servers=(1, 2, 3),
    )
    return base
