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
from itertools import islice
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, require_count, require_finite
from .masks import MAX_CAMERAS, subsets


@dataclass(frozen=True)
class ActionSpace:
    """All camera subsets with k_min..k_max members as integer masks, in ascending order."""

    n_cameras: int
    k_min: int
    k_max: int
    actions: tuple[int, ...]
    index: dict[int, int] = field(repr=False)

    def __len__(self) -> int:
        return len(self.actions)


def enumerate_actions(n_cameras: int, k_min: int, k_max: int) -> ActionSpace:
    """Canonical, duplicate-free enumeration of the valid subsets."""
    if not 1 <= k_min <= k_max <= n_cameras <= MAX_CAMERAS:
        raise ConfigError(
            f"subset bounds must satisfy 1 <= k_min <= k_max <= n_cameras <= {MAX_CAMERAS}, "
            f"got k_min={k_min}, k_max={k_max}, n_cameras={n_cameras}"
        )
    actions = tuple(subsets(n_cameras, k_min, k_max))
    return ActionSpace(
        n_cameras=n_cameras,
        k_min=k_min,
        k_max=k_max,
        actions=actions,
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
    """Lazily materialized (state, action) value table; absent entries read as 0.

    Every materialized row keeps its greedy action: the first index of its
    maximum, as ``argmax`` picks it. ``q_update`` is the only write path and
    keeps that index current, so selecting the greedy action needs no scan.
    ``rows`` and ``row()`` hand out read-only views of the values.
    """

    def __init__(self, n_actions: int):
        self.n_actions = n_actions
        self.rows: dict[str, np.ndarray] = {}
        self._values: dict[str, np.ndarray] = {}   # writable arrays behind rows
        self._greedy: dict[str, int] = {}

    def _add(self, state: str, values: np.ndarray, greedy: int) -> np.ndarray:
        view = values.view()
        view.flags.writeable = False
        self.rows[state] = view
        self._values[state] = values
        self._greedy[state] = greedy
        return values

    def row(self, state: str) -> np.ndarray:
        if state not in self.rows:
            self._add(state, np.zeros(self.n_actions), 0)
        return self.rows[state]

    def greedy(self, state: str) -> int:
        """First action of maximal value in ``state``, materializing its row."""
        greedy = self._greedy.get(state)
        if greedy is None:
            self._add(state, np.zeros(self.n_actions), 0)
            greedy = 0
        return greedy

    def value(self, state: str, action: int) -> float:
        values = self._values.get(state)
        return 0.0 if values is None else values.item(action)

    def max_value(self, state: str) -> float:
        values = self._values.get(state)
        return 0.0 if values is None else values.item(self._greedy[state])

    def to_dict(self) -> dict:
        return {
            "n_actions": self.n_actions,
            "rows": {state: values.tolist() for state, values in sorted(self._values.items())},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "QTable":
        table = cls(int(payload["n_actions"]))
        for state, cells in payload["rows"].items():
            if not isinstance(cells, list) or len(cells) != table.n_actions:
                raise ConfigError(
                    f"snapshot row {state!r} must be a list of {table.n_actions} values"
                )
            try:
                finite = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                             and math.isfinite(v) for v in cells)
            except OverflowError:   # an integer beyond the float range
                finite = False
            if not finite:
                raise ConfigError(f"snapshot row {state!r} holds a non-finite or non-numeric value")
            values = np.array(cells, dtype=float)
            table._add(state, values, int(values.argmax()))
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
    """One temporal-difference step; returns the new value of (state, action).

    The bootstrap reads the next state's greedy value (0.0 for a state never
    materialized, which stays so). The write then moves the greedy action:
    to ``action`` if its value overtakes the maximum, or ties it at a lower
    index; by a rescan only if the greedy action itself drops. With finite
    values this is exactly ``argmax``, -0.0 and 0.0 comparing equal.
    """
    if not math.isfinite(reward):
        raise ValueError(f"reward must be finite, got {reward}")
    greedy = table._greedy
    values = table._values.get(state)
    if values is None:
        values = table._add(state, np.zeros(table.n_actions), 0)
    best = greedy[state]
    top = values.item(best)
    if next_state == state:
        following = top
    else:
        nxt = table._values.get(next_state)
        following = 0.0 if nxt is None else nxt.item(greedy[next_state])
    target = reward + gamma * following
    value = values.item(action)
    value += alpha * (target - value)
    values[action] = value
    if action == best:
        if value < top:
            greedy[state] = int(values.argmax())
    elif value > top or (value == top and action < best):
        greedy[state] = action
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
    """True when the last window's mean reward fell below the previous window's by more than drop.

    ``rewards`` is any sized sequence, a list or a deque; each window is
    summed left to right without copying it.
    """
    n = len(rewards)
    if n < 2 * window:
        return False
    tail = islice(rewards, n - 2 * window, None)
    previous = sum(islice(tail, window)) / window
    recent = sum(tail) / window
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


class _QLearner:
    """The Q agents' shared part: table, epsilon-greedy choice, adaptive alpha/epsilon."""

    def __init__(self, n_actions: int, params: AgentParams):
        params.validate()
        self.params = params
        self.alpha = params.alpha
        self.epsilon = params.epsilon
        self.reward_history: deque[float] = deque(maxlen=2 * params.degradation_window)
        self.table = QTable(n_actions)
        self._selections = 0
        self._gamma = params.gamma
        self._adaptive = params.adaptive
        self._window = params.degradation_window
        self._drop = params.degradation_drop

    def _choose(self, state: str, rng) -> int:
        """Random action with probability epsilon, else the greedy one (as epsilon_greedy)."""
        self._selections += 1
        epsilon = self.epsilon
        if epsilon > 0 and rng.random() < epsilon:
            return int(rng.integers(self.table.n_actions))
        return self.table.greedy(state)

    def _learn(self, state: str, action: int, reward: float, next_state: str) -> None:
        if self._selections == 0:
            raise RuntimeError("learn() called before any select()")
        q_update(self.table, state, action, reward, next_state, self.alpha, self._gamma)
        history = self.reward_history
        history.append(reward)
        if self._adaptive:
            degraded = detect_degradation(history, self._window, self._drop)
            self.alpha, self.epsilon = adapt_params(self.alpha, self.epsilon, self.params, degraded)


class QLearningCameraPolicy(_QLearner):
    """Stateless subset learner: one abstract state, values driven by reward alone."""

    STATE = "global"

    def __init__(self, space: ActionSpace, params: AgentParams):
        super().__init__(len(space), params)
        self.space = space

    def select(self, rng) -> int:
        return self.space.actions[self._choose(self.STATE, rng)]

    def learn(self, mask: int, reward: float, quality: float | None = None) -> None:
        # Single abstract state: the bootstrap term is gamma * max over the same row.
        self._learn(self.STATE, self.space.index[mask], reward, self.STATE)


class RandomCameraPolicy:
    """Uniform draw over the valid subsets; the non-adaptive floor."""

    def __init__(self, space: ActionSpace):
        self.space = space

    def select(self, rng) -> int:
        return self.space.actions[int(rng.integers(len(self.space)))]

    def learn(self, mask: int, reward: float, quality: float | None = None) -> None:
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

    def select(self, rng=None) -> int:
        if self._cold < len(self.masks):
            mask = self.masks[self._cold]
            self._cold += 1
            return mask
        return self.masks[int(self.mean_quality.argmax())]

    def learn(self, mask: int, reward: float = 0.0, quality: float | None = None) -> None:
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

    def select(self, rng) -> int:
        idx = epsilon_greedy(self.mean_reward, self.epsilon, rng)
        return self.space.actions[idx]

    def learn(self, mask: int, reward: float, quality: float | None = None) -> None:
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


class QLearningServerPolicy(_QLearner):
    """Server learner over (camera count, previous server) states."""

    def __init__(self, n_servers: int, params: AgentParams):
        super().__init__(n_servers, params)
        if n_servers < 1:
            raise ConfigError(f"n_servers must be >= 1, got {n_servers}")
        self.n_servers = n_servers
        self._keys: dict[ServerState, str] = {}   # each state's table key, built once

    def _key(self, state: ServerState) -> str:
        key = self._keys.get(state)
        if key is None:
            key = self._keys[state] = state.key()
        return key

    def select(self, frame: int, state: ServerState, rng) -> int:
        return self._choose(self._key(state), rng)

    def learn(self, state: ServerState, action: int, reward: float, next_state: ServerState,
              total_latency_s: float | None = None) -> None:
        self._learn(self._key(state), action, reward, self._key(next_state))


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
