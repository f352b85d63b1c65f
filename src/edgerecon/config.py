"""Experiment configuration: dataclasses, YAML loading, and scenario presets.

Every run is fully determined by (config, seed); nothing reads the wall
clock. The YAML schema maps 1:1 onto ExperimentConfig and rejects unknown
keys so typos fail loudly instead of silently falling back to defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import yaml

from .disruption import DisruptionParams
from .environment import MIN_VIEWS, LatencyModel
from .errors import ConfigError, require_count, require_finite, require_path
from .masks import bitstring, require_camera_cap, subsets
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
class QualitySpec:
    """How per-frame quality is produced: synthetic table + noise, or a replayed trace."""

    mode: str = "synthetic"
    noise_sd: float = 30.0
    camera_weights: tuple[float, ...] | None = None
    ceiling: float = 660.0
    curve: float = 2.6
    midpoint: float = 1.72
    table: dict[str, float] | None = None     # explicit bitstring -> base override
    trace_path: str | None = None

    def validate(self) -> None:
        if self.mode not in ("synthetic", "trace"):
            raise ConfigError(f"quality.mode must be 'synthetic' or 'trace', got {self.mode!r}")
        for name in ("noise_sd", "ceiling", "curve", "midpoint"):
            require_finite(f"quality.{name}", getattr(self, name))
        for weight in self.camera_weights or ():
            require_finite("quality.camera_weights", weight)
        for key, value in (self.table or {}).items():
            require_finite(f"quality.table[{key!r}]", value)
        if self.noise_sd < 0:
            raise ConfigError(f"quality.noise_sd must be >= 0, got {self.noise_sd}")
        if self.trace_path is not None:
            require_path("quality.trace_path", self.trace_path)
        if self.mode == "trace" and not self.trace_path:
            raise ConfigError("quality.trace_path is required when quality.mode is 'trace'")


@dataclass
class ExperimentConfig:
    n_frames: int = 4000
    n_cameras: int = 5
    n_servers: int = 4
    k_min: int = 2
    k_max: int = 5
    seed: int = 0
    camera_policy: str = "qlearning"
    server_policy: str = "round_robin"
    feedback_delay_frames: int = 0
    thresholds: Thresholds = field(default_factory=Thresholds)
    weights: RewardWeights = field(default_factory=RewardWeights)
    camera_agent: AgentParams | None = None     # None -> policy-specific defaults
    server_agent: AgentParams | None = None
    bandit_epsilon: float = 0.1
    ewma_beta: float = 0.3
    disruption: DisruptionParams | None = None  # None -> defaults sized from this config
    traces_dir: str | None = None               # load cameras.csv/servers.csv instead of generating
    quality: QualitySpec = field(default_factory=QualitySpec)
    latency: LatencyModel = field(default_factory=LatencyModel)

    def validate(self) -> None:
        for name in ("n_frames", "n_cameras", "n_servers", "k_min", "k_max", "seed",
                     "feedback_delay_frames"):
            require_count(name, getattr(self, name))
        for name in ("bandit_epsilon", "ewma_beta"):
            require_finite(name, getattr(self, name))
        if self.traces_dir is not None:
            require_path("traces_dir", self.traces_dir)
        for name in ("n_frames", "n_cameras", "n_servers"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        require_camera_cap(self.n_cameras)
        if not 1 <= self.k_min <= self.k_max <= self.n_cameras:
            raise ConfigError(
                f"need 1 <= k_min <= k_max <= n_cameras, got "
                f"({self.k_min}, {self.k_max}, {self.n_cameras})"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.camera_policy not in CAMERA_POLICIES:
            raise ConfigError(
                f"camera_policy must be one of {CAMERA_POLICIES}, got {self.camera_policy!r}"
            )
        if self.server_policy not in SERVER_POLICIES:
            raise ConfigError(
                f"server_policy must be one of {SERVER_POLICIES}, got {self.server_policy!r}"
            )
        if self.feedback_delay_frames < 0:
            raise ConfigError(
                f"feedback_delay_frames must be >= 0, got {self.feedback_delay_frames}"
            )
        if not 0 <= self.bandit_epsilon <= 1:
            raise ConfigError(f"bandit_epsilon must lie in [0, 1], got {self.bandit_epsilon}")
        if not 0 < self.ewma_beta <= 1:
            raise ConfigError(f"ewma_beta must lie in (0, 1], got {self.ewma_beta}")
        for name in ("camera_agent", "server_agent"):
            agent = getattr(self, name)
            if agent is not None:
                try:
                    agent.validate()
                except ConfigError as exc:
                    raise ConfigError(f"{name}: {exc}") from exc
        if self.camera_policy == "greedy3":
            if self.n_cameras < 3:
                raise ConfigError("camera_policy 'greedy3' needs n_cameras >= 3")
            if not self.k_min <= 3 <= self.k_max:
                raise ConfigError(
                    "camera_policy 'greedy3' emits 3-camera subsets, which violates "
                    f"subset bounds [{self.k_min}, {self.k_max}]"
                )
        self.quality.validate()
        if (self.latency.server_speed_factor is not None
                and len(self.latency.server_speed_factor) != self.n_servers):
            raise ConfigError(
                f"latency.server_speed_factor has {len(self.latency.server_speed_factor)} "
                f"entries, expected n_servers={self.n_servers}"
            )
        if self.quality.table is not None:
            for key in self.quality.table:
                if not isinstance(key, str) or len(key) != self.n_cameras or set(key) - {"0", "1"}:
                    raise ConfigError(
                        f"quality.table key {key!r} is not a bitstring of {self.n_cameras} bits"
                    )
            # Outages can leave any subset of MIN_VIEWS..k_max selected cameras.
            for mask in subsets(self.n_cameras, MIN_VIEWS, self.k_max):
                key = bitstring(mask, self.n_cameras)
                if key not in self.quality.table:
                    raise ConfigError(
                        f"quality.table has no entry for subset {key}; it must "
                        f"cover every subset of {MIN_VIEWS}..k_max={self.k_max} cameras"
                    )
        if self.disruption is not None:
            d = self.disruption
            d.validate()
            if d.n_cameras != self.n_cameras or d.n_servers != self.n_servers:
                raise ConfigError(
                    "disruption camera/server counts must match the experiment "
                    f"({d.n_cameras}x{d.n_servers} vs {self.n_cameras}x{self.n_servers})"
                )
            if d.n_frames < self.n_frames:
                raise ConfigError(
                    f"disruption.n_frames ({d.n_frames}) is shorter than n_frames ({self.n_frames})"
                )

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


def _take(section: dict, allowed: set[str], context: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown)}")


def _as_mapping(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{context} section must be a mapping, got {type(value).__name__}")
    return dict(value)


def _as_tuple(value, name: str) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return tuple(value)


def _dataclass_from(section, cls, context: str):
    section = _as_mapping(section, context)
    names = {f.name for f in fields(cls)}
    _take(section, names, context)
    try:
        return cls(**section)
    except TypeError as exc:
        raise ConfigError(f"bad {context} section: {exc}") from exc


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from a parsed YAML/JSON mapping."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
    raw = dict(raw)
    allowed = {f.name for f in fields(ExperimentConfig)}
    _take(raw, allowed, "config")

    kwargs: dict = {}
    for key in ("n_frames", "n_cameras", "n_servers", "k_min", "k_max", "seed",
                "camera_policy", "server_policy", "feedback_delay_frames",
                "bandit_epsilon", "ewma_beta", "traces_dir"):
        if key in raw:
            kwargs[key] = raw[key]

    if "thresholds" in raw:
        kwargs["thresholds"] = _dataclass_from(raw["thresholds"], Thresholds, "thresholds")
    if "weights" in raw:
        kwargs["weights"] = _dataclass_from(raw["weights"], RewardWeights, "weights")
    for key in ("camera_agent", "server_agent"):
        if key in raw and raw[key] is not None:
            kwargs[key] = _dataclass_from(raw[key], AgentParams, key)
    if "disruption" in raw and raw["disruption"] is not None:
        section = _as_mapping(raw["disruption"], "disruption")
        for banned in ("n_frames", "n_cameras", "n_servers", "seed"):
            if banned in section:
                raise ConfigError(
                    f"disruption.{banned} is derived from the top-level config; remove it"
                )
        if "correlation_groups" in section:
            name = "disruption.correlation_groups"
            section["correlation_groups"] = tuple(
                _as_tuple(g, f"{name} entry") for g in _as_tuple(section["correlation_groups"], name))
        if "spike_range_ms" in section:
            section["spike_range_ms"] = _as_tuple(section["spike_range_ms"], "disruption.spike_range_ms")
        if "spike_servers" in section and section["spike_servers"] is not None:
            section["spike_servers"] = _as_tuple(section["spike_servers"], "disruption.spike_servers")
        names = {f.name for f in fields(DisruptionParams)} - {"n_frames", "n_cameras", "n_servers", "seed"}
        _take(section, names, "disruption")
        kwargs["disruption_section"] = section
    if "quality" in raw:
        section = _as_mapping(raw["quality"], "quality")
        if "camera_weights" in section and section["camera_weights"] is not None:
            section["camera_weights"] = _as_tuple(section["camera_weights"], "quality.camera_weights")
        kwargs["quality"] = _dataclass_from(section, QualitySpec, "quality")
    if "latency" in raw:
        section = _as_mapping(raw["latency"], "latency")
        if "server_speed_factor" in section and section["server_speed_factor"] is not None:
            section["server_speed_factor"] = _as_tuple(section["server_speed_factor"],
                                                       "latency.server_speed_factor")
        kwargs["latency"] = _dataclass_from(section, LatencyModel, "latency")

    disruption_section = kwargs.pop("disruption_section", None)
    try:
        config = ExperimentConfig(**kwargs)
        if disruption_section is not None:
            config.disruption = DisruptionParams(
                n_frames=config.n_frames,
                n_cameras=config.n_cameras,
                n_servers=config.n_servers,
                seed=config.seed,
                **disruption_section,
            )
        config.validate()
    except TypeError as exc:
        # Wrongly typed values surface as comparison/construction TypeErrors.
        raise ConfigError(str(exc)) from exc
    return config


def load_config(path) -> ExperimentConfig:
    """Parse a YAML (or JSON) config file into a validated ExperimentConfig."""
    try:
        text = Path(path).read_text()
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
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
