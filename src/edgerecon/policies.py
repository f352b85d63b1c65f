"""Decision-making agents: tabular Q-learning (fixed and adaptive) for camera
subsets and servers, plus the non-learning baselines they are compared to.

The camera learner is deliberately stateless: one abstract state, so the
value of a subset is judged purely on reward feedback. The server learner
conditions on (number of selected cameras, previously chosen server), letting
it anticipate the compute load its choice will face.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, require_count, require_finite
from .masks import Mask, subsets


@dataclass(frozen=True)
class ActionSpace:
    """All camera subsets with k_min..k_max members, in fixed bitstring order."""

    n_cameras: int
    k_min: int
    k_max: int
    actions: tuple[Mask, ...]
    index: dict[Mask, int] = field(repr=False)

    def __len__(self) -> int:
        return len(self.actions)


def enumerate_actions(n_cameras: int, k_min: int, k_max: int) -> ActionSpace:
    """Canonical, duplicate-free enumeration of the valid subsets."""
    if not 1 <= k_min <= k_max <= n_cameras:
        raise ConfigError(
            f"subset bounds must satisfy 1 <= k_min <= k_max <= n_cameras, "
            f"got k_min={k_min}, k_max={k_max}, n_cameras={n_cameras}"
        )
    actions = subsets(n_cameras, k_min, k_max)
    return ActionSpace(
        n_cameras=n_cameras,
        k_min=k_min,
        k_max=k_max,
        actions=tuple(actions),
        index={mask: i for i, mask in enumerate(actions)},
    )


def epsilon_greedy(q_values, epsilon: float, rng) -> int:
    """Random index with probability epsilon, else argmax (first index on ties)."""
    n = len(q_values)
    if n == 0:
        raise ValueError("epsilon_greedy needs a nonempty value list")
    if epsilon > 0 and rng.random() < epsilon:
        return int(rng.integers(n))
    return int(np.asarray(q_values).argmax())


class QTable:
    """Lazily materialized (state, action) value table; absent entries read as 0."""

    def __init__(self, n_actions: int):
        self.n_actions = n_actions
        self.rows: dict[str, np.ndarray] = {}

    def row(self, state: str) -> np.ndarray:
        values = self.rows.get(state)
        if values is None:
            values = self.rows[state] = np.zeros(self.n_actions)
        return values

    def value(self, state: str, action: int) -> float:
        values = self.rows.get(state)
        return 0.0 if values is None else float(values[action])

    def max_value(self, state: str) -> float:
        values = self.rows.get(state)
        return 0.0 if values is None else float(values.max())

    def to_dict(self) -> dict:
        return {
            "n_actions": self.n_actions,
            "rows": {state: [float(v) for v in values] for state, values in sorted(self.rows.items())},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "QTable":
        table = cls(int(payload["n_actions"]))
        for state, values in payload["rows"].items():
            if len(values) != table.n_actions:
                raise ConfigError(
                    f"snapshot row {state!r} has {len(values)} values, expected {table.n_actions}"
                )
            table.rows[state] = np.asarray(values, dtype=float)
        return table

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load_json(cls, path) -> "QTable":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def q_update(table: QTable, state: str, action: int, reward: float, next_state: str,
             alpha: float, gamma: float) -> float:
    """One temporal-difference step; returns the new value of (state, action)."""
    if not math.isfinite(reward):
        raise ValueError(f"reward must be finite, got {reward}")
    row = table.row(state)
    following = row if next_state == state else table.rows.get(next_state)
    target = reward + gamma * (0.0 if following is None else float(following.max()))
    value = row.item(action)
    value += alpha * (target - value)
    row[action] = value
    return value


@dataclass(frozen=True)
class AgentParams:
    """Learning hyperparameters; the adaptive fields only apply when adaptive=True."""

    alpha: float = 0.9
    gamma: float = 0.1
    epsilon: float = 0.1
    adaptive: bool = False
    eta_inc: float = 1.5
    eta_dec: float = 0.995
    lambda_inc: float = 1.5
    lambda_dec: float = 0.995
    eps_min: float = 0.05
    eps_max: float = 1.0
    alpha_min: float = 0.05
    alpha_max: float = 0.9
    degradation_window: int = 20
    degradation_drop: float = 0.1

    def validate(self) -> None:
        for f in fields(self):
            if f.name == "degradation_window":
                require_count(f.name, self.degradation_window)
            elif f.name != "adaptive":
                require_finite(f.name, getattr(self, f.name))
        if not 0 < self.alpha <= 1:
            raise ConfigError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0 <= self.gamma < 1:
            raise ConfigError(f"gamma must lie in [0, 1), got {self.gamma}")
        if not 0 <= self.epsilon <= 1:
            raise ConfigError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        if self.eta_inc <= 1:
            raise ConfigError(f"eta_inc must be > 1, got {self.eta_inc}")
        if not 0 < self.eta_dec < 1:
            raise ConfigError(f"eta_dec must lie in (0, 1), got {self.eta_dec}")
        if self.lambda_inc <= 1:
            raise ConfigError(f"lambda_inc must be > 1, got {self.lambda_inc}")
        if not 0 < self.lambda_dec < 1:
            raise ConfigError(f"lambda_dec must lie in (0, 1), got {self.lambda_dec}")
        if not 0 <= self.eps_min <= self.eps_max <= 1:
            raise ConfigError(
                f"need 0 <= eps_min <= eps_max <= 1, got ({self.eps_min}, {self.eps_max})"
            )
        if not 0 < self.alpha_min <= self.alpha_max <= 1:
            raise ConfigError(
                f"need 0 < alpha_min <= alpha_max <= 1, got ({self.alpha_min}, {self.alpha_max})"
            )
        if self.degradation_window < 1:
            raise ConfigError(f"degradation_window must be >= 1, got {self.degradation_window}")
        if self.degradation_drop < 0:
            raise ConfigError(f"degradation_drop must be >= 0, got {self.degradation_drop}")


def detect_degradation(rewards, window: int, drop: float) -> bool:
    """True when the last window's mean reward fell below the previous window's by more than drop."""
    if len(rewards) < 2 * window:
        return False
    recent = sum(rewards[-window:]) / window
    previous = sum(rewards[-2 * window:-window]) / window
    return recent < previous - drop


def adapt_params(alpha: float, epsilon: float, params: AgentParams, degraded: bool) -> tuple[float, float]:
    """Boost exploration and learning rate on degradation, decay them otherwise."""
    if degraded:
        epsilon = min(epsilon * params.eta_inc, params.eps_max)
        alpha = min(alpha * params.lambda_inc, params.alpha_max)
    else:
        epsilon = max(epsilon * params.eta_dec, params.eps_min)
        alpha = max(alpha * params.lambda_dec, params.alpha_min)
    return alpha, epsilon


class _AdaptiveMixin:
    """Shared reward-history bookkeeping for agents with adaptive alpha/epsilon."""

    def _init_adaptive(self, params: AgentParams) -> None:
        self.params = params
        self.alpha = params.alpha
        self.epsilon = params.epsilon
        self.reward_history: deque[float] = deque(maxlen=2 * params.degradation_window)

    def _after_learn(self, reward: float) -> None:
        self.reward_history.append(reward)
        if self.params.adaptive:
            degraded = detect_degradation(
                list(self.reward_history), self.params.degradation_window, self.params.degradation_drop
            )
            self.alpha, self.epsilon = adapt_params(self.alpha, self.epsilon, self.params, degraded)


class QLearningCameraPolicy(_AdaptiveMixin):
    """Stateless subset learner: one abstract state, values driven by reward alone."""

    STATE = "global"

    def __init__(self, space: ActionSpace, params: AgentParams):
        params.validate()
        self.space = space
        self._init_adaptive(params)
        self.table = QTable(len(space))
        self._selections = 0

    def select(self, rng) -> Mask:
        self._selections += 1
        idx = epsilon_greedy(self.table.row(self.STATE), self.epsilon, rng)
        return self.space.actions[idx]

    def learn(self, mask: Mask, reward: float, quality: float | None = None) -> None:
        if self._selections == 0:
            raise RuntimeError("learn() called before any select()")
        idx = self.space.index[mask]
        # Single abstract state: the bootstrap term is gamma * max over the same row.
        q_update(self.table, self.STATE, idx, reward, self.STATE, self.alpha, self.params.gamma)
        self._after_learn(reward)


class RandomCameraPolicy:
    """Uniform draw over the valid subsets; the non-adaptive floor."""

    def __init__(self, space: ActionSpace):
        self.space = space

    def select(self, rng) -> Mask:
        return self.space.actions[int(rng.integers(len(self.space)))]

    def learn(self, mask: Mask, reward: float, quality: float | None = None) -> None:
        pass


class GreedyTripletCameraPolicy:
    """Always the 3-camera subset with the best observed mean quality.

    Cold start cycles each 3-camera subset once (in canonical order) so every
    arm has an estimate before the argmax takes over. Latency never enters
    the decision.
    """

    ARITY = 3

    def __init__(self, n_cameras: int):
        if n_cameras < self.ARITY:
            raise ConfigError(f"greedy3 needs at least {self.ARITY} cameras, got {n_cameras}")
        space = enumerate_actions(n_cameras, self.ARITY, self.ARITY)
        self.masks = space.actions
        self.index = space.index
        self.counts = [0] * len(self.masks)
        self.mean_quality = np.zeros(len(self.masks))
        self._cold = 0   # next unvisited arm during the cold-start sweep

    def select(self, rng=None) -> Mask:
        if self._cold < len(self.masks):
            mask = self.masks[self._cold]
            self._cold += 1
            return mask
        return self.masks[int(self.mean_quality.argmax())]

    def learn(self, mask: Mask, reward: float = 0.0, quality: float | None = None) -> None:
        if quality is None:
            return
        idx = self.index[mask]
        self.counts[idx] += 1
        mean = self.mean_quality.item(idx)
        self.mean_quality[idx] = mean + (quality - mean) / self.counts[idx]


class BanditCameraPolicy:
    """Epsilon-greedy over per-subset mean reward; no bootstrapping of future value."""

    def __init__(self, space: ActionSpace, epsilon: float = 0.1):
        if not 0 <= epsilon <= 1:
            raise ConfigError(f"bandit epsilon must lie in [0, 1], got {epsilon}")
        self.space = space
        self.epsilon = epsilon
        self.counts = [0] * len(space)
        self.mean_reward = np.zeros(len(space))

    def select(self, rng) -> Mask:
        idx = epsilon_greedy(self.mean_reward, self.epsilon, rng)
        return self.space.actions[idx]

    def learn(self, mask: Mask, reward: float, quality: float | None = None) -> None:
        idx = self.space.index[mask]
        self.counts[idx] += 1
        mean = self.mean_reward.item(idx)
        self.mean_reward[idx] = mean + (reward - mean) / self.counts[idx]


class ServerState(NamedTuple):
    """What the server agent sees: selected-camera count and its previous pick."""

    n_selected: int
    prev_server: int

    def key(self) -> str:
        return f"{self.n_selected}|{self.prev_server}"


class QLearningServerPolicy(_AdaptiveMixin):
    """Server learner over (camera count, previous server) states."""

    def __init__(self, n_servers: int, params: AgentParams):
        params.validate()
        if n_servers < 1:
            raise ConfigError(f"n_servers must be >= 1, got {n_servers}")
        self.n_servers = n_servers
        self._init_adaptive(params)
        self.table = QTable(n_servers)
        self._selections = 0

    def select(self, frame: int, state: ServerState, rng) -> int:
        self._selections += 1
        return epsilon_greedy(self.table.row(state.key()), self.epsilon, rng)

    def learn(self, state: ServerState, action: int, reward: float, next_state: ServerState,
              total_latency_s: float | None = None) -> None:
        if self._selections == 0:
            raise RuntimeError("learn() called before any select()")
        q_update(self.table, state.key(), action, reward, next_state.key(),
                 self.alpha, self.params.gamma)
        self._after_learn(reward)


class RoundRobinServerPolicy:
    """frame mod n_servers; ignores everything it observes."""

    def __init__(self, n_servers: int):
        if n_servers < 1:
            raise ConfigError(f"n_servers must be >= 1, got {n_servers}")
        self.n_servers = n_servers

    def select(self, frame: int, state: ServerState | None = None, rng=None) -> int:
        return frame % self.n_servers

    def learn(self, state, action, reward, next_state, total_latency_s=None) -> None:
        pass


class LatencyGreedyServerPolicy:
    """Pick the server with the lowest EWMA of observed end-to-end latency.

    Only the chosen server's estimate is refreshed each frame, so estimates
    for servers it stops visiting go stale; that is the point of comparing
    against learners that keep exploring.
    """

    def __init__(self, n_servers: int, beta: float = 0.3):
        if n_servers < 1:
            raise ConfigError(f"n_servers must be >= 1, got {n_servers}")
        if not 0 < beta <= 1:
            raise ConfigError(f"ewma beta must lie in (0, 1], got {beta}")
        self.n_servers = n_servers
        self.beta = beta
        self.estimates = np.zeros(n_servers)

    def select(self, frame: int, state: ServerState | None = None, rng=None) -> int:
        return int(self.estimates.argmin())

    def learn(self, state, action, reward, next_state, total_latency_s=None) -> None:
        if total_latency_s is None:
            return
        self.estimates[action] = (
            self.beta * total_latency_s + (1.0 - self.beta) * self.estimates.item(action)
        )
