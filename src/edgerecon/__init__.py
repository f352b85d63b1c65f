"""Seeded simulator of RL-driven camera and server selection for edge-hosted
multi-view 3D reconstruction."""

from .config import ExperimentConfig, camera_study_config, load_config, server_study_config
from .controller import run_episode, run_grid
from .disruption import (CameraTrace, DisruptionParams, ServerLatencyTrace,
                         generate_camera_trace, generate_server_trace, load_traces, save_traces)
from .environment import FrameOutcome, LatencyModel, QualityModel, step
from .metrics import (FrameLog, FrameRecord, RewardWeights, RunStats, Thresholds, camera_reward,
                      latency_score, quality_score, reliability, server_reward)
from .policies import ActionSpace, AgentParams, QTable, enumerate_actions, epsilon_greedy, q_update

__version__ = "0.1.0"

__all__ = [
    "ActionSpace",
    "AgentParams",
    "CameraTrace",
    "DisruptionParams",
    "ExperimentConfig",
    "FrameLog",
    "FrameOutcome",
    "FrameRecord",
    "LatencyModel",
    "QTable",
    "QualityModel",
    "RewardWeights",
    "RunStats",
    "ServerLatencyTrace",
    "Thresholds",
    "camera_reward",
    "camera_study_config",
    "enumerate_actions",
    "epsilon_greedy",
    "generate_camera_trace",
    "generate_server_trace",
    "latency_score",
    "load_config",
    "load_traces",
    "q_update",
    "quality_score",
    "reliability",
    "run_episode",
    "run_grid",
    "save_traces",
    "server_reward",
    "server_study_config",
    "step",
    "__version__",
]
