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
import operator
from array import array
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from types import FunctionType
from typing import NamedTuple

import numpy as np

from .errors import FLAG, ConfigError, Integer, IsA, Real, check_fields, setting
from .masks import MAX_CAMERAS, subsets


@dataclass(frozen=True)
class ActionSpace:
    """All camera subsets with k_min..k_max members as integer masks, in ascending order."""

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
    return ActionSpace(actions=actions, index={mask: i for i, mask in enumerate(actions)})


# Raw 64-bit outputs a DrawStream reads from its generator per refill.
_DRAW_BLOCK = 1024


class DrawStream:
    """A PCG64 ``Generator``'s ``random()`` and ``integers(n)``, read ahead in blocks.

    Each call returns exactly the value the wrapped generator's own call
    would return at that point of the stream, in the same order, without
    numpy's per-call overhead. The stream reads raw outputs through
    ``bit_generator.random_raw`` in blocks of ``_DRAW_BLOCK``, so the
    wrapped generator runs ahead of it; draw from one or the other, not both.

    The emulation follows numpy's C code for PCG64 (O'Neill 2014):

    - ``random()`` is ``(raw >> 11) * 2**-53`` of the next raw output,
      converted a block at a time.
    - ``integers(n)`` for 1 <= n <= 2**32 reads 32-bit halves as PCG64's
      ``next_uint32`` does: the low half of a fresh raw output, then its
      buffered high half. The buffer starts as the generator's
      ``has_uint32``/``uinteger`` state. Each half u goes through numpy's
      Lemire rejection loop (Lemire, ACM TOMACS 2019): m = u * n, rejected
      while m mod 2**32 < (2**32 - n) mod n, and the result is m >> 32.
      ``integers(1)`` draws nothing. Past 2**32 numpy switches to 64-bit
      draws, which this class does not emulate.

    These rest on numpy internals, not on its documented interface; the
    tests compare every call with a ``Generator`` on the same seed.
    """

    __slots__ = ("_bit_generator", "_raw", "_doubles", "_next", "_half")

    def __init__(self, generator: np.random.Generator):
        bit_generator = generator.bit_generator
        if not isinstance(bit_generator, np.random.PCG64):
            raise TypeError(f"DrawStream needs a PCG64 generator, got "
                            f"{type(bit_generator).__name__}")
        state = bit_generator.state
        self._bit_generator = bit_generator
        self._half = state["uinteger"] if state["has_uint32"] else None   # buffered high half
        self._raw = np.empty(0, dtype=np.uint64)   # the current block
        self._doubles: list[float] = []            # its random() values
        self._next = 0                             # next unread position in the block

    def _refill(self) -> None:
        raw = self._bit_generator.random_raw(_DRAW_BLOCK)
        self._raw = raw
        self._doubles = ((raw >> np.uint64(11)) * 2.0 ** -53).tolist()

    def random(self) -> float:
        """The next ``Generator.random()`` value."""
        i = self._next
        self._next = i + 1
        try:
            return self._doubles[i]
        except IndexError:
            self._refill()
            self._next = 1
            return self._doubles[0]

    def integers(self, n: int) -> int:
        """The next ``Generator.integers(n)`` value, in [0, n), as an int."""
        n = operator.index(n)
        if not 1 <= n <= 4294967296:
            raise ValueError(f"DrawStream.integers needs 1 <= n <= 2**32, got {n}")
        if n == 1:
            return 0
        while True:
            half = self._half
            if half is None:
                i = self._next
                self._next = i + 1
                try:
                    raw = self._raw.item(i)
                except IndexError:
                    self._refill()
                    self._next = 1
                    raw = self._raw.item(0)
                self._half = raw >> 32
                m = (raw & 0xFFFFFFFF) * n
            else:
                self._half = None
                m = half * n
            leftover = m & 0xFFFFFFFF
            # numpy computes the threshold, which is < n, only when leftover < n.
            if leftover >= n or leftover >= (4294967296 - n) % n:
                return m >> 32


def epsilon_greedy(q_values, epsilon: float, rng) -> int:
    """Random index with probability epsilon, else argmax (first index on ties)."""
    n = len(q_values)
    if n == 0:
        raise ValueError("epsilon_greedy needs a nonempty value list")
    if epsilon > 0 and rng.random() < epsilon:
        return int(rng.integers(n))
    return int(np.asarray(q_values).argmax())


# What a Q-table snapshot's two fields hold.
_SNAPSHOT_ACTIONS = Integer("[0, inf)")
_SNAPSHOT_ROWS = IsA(dict, "a mapping from state to a list of values")


def _indented_row(encoded: str) -> str:
    """A list as ``json.dumps`` writes it, laid out as ``indent=2`` lays out a Q-table row."""
    if encoded == "[]":
        return encoded
    return "[\n      " + encoded[1:-1].replace(", ", ",\n      ") + "\n    ]"


class _QRow:
    """One state's action values, its greedy action and a bound on every other value.

    ``values`` is an ``array("d")``, read and written one value at a time;
    ``view`` is a read-only numpy array over the same memory. ``greedy`` is
    the first index of the maximum, as ``argmax`` picks it. ``bound`` is at
    least every other action's value and at most the maximum (-inf when no
    other action exists). ``write`` is the one write path that keeps both
    current; ``q_update``, the reference, sets a value and calls
    ``rescan()`` instead. The Q agents keep their tables' rows as
    ``_QRow``s, greedy3 and the bandit their means, and latency_greedy its
    negated estimates.
    """

    __slots__ = ("values", "view", "greedy", "bound")

    def __init__(self, values: array):
        self.values = values
        self.view = np.frombuffer(values)
        self.view.flags.writeable = False
        self.rescan()

    def rescan(self) -> None:
        """Set ``greedy`` to the first index of the maximum and ``bound`` to the runner-up."""
        values = self.values
        if not values:
            self.greedy, self.bound = 0, -math.inf
            return
        view = self.view
        greedy = self.greedy = int(view.argmax())
        # The runner-up is the maximum with the greedy value hidden for a
        # moment; ``argmax`` costs less per call than ``max``.
        top = values[greedy]
        values[greedy] = -math.inf
        self.bound = values[int(view.argmax())]
        values[greedy] = top

    def write(self, action: int, value: float) -> None:
        """Set ``values[action]`` to the finite ``value``, keeping ``greedy`` and ``bound``.

        With ``top`` the greedy value before the write:

        - to the greedy action: nothing moves while ``value > bound``, since
          ``value`` still exceeds every other value; otherwise ``rescan()``;
        - to another action: it takes the greedy slot if ``value > top``, or
          ``value == top`` at a lower index, and ``bound`` becomes ``top``;
          otherwise ``bound`` rises to ``value`` if it was below.

        With finite values this is exactly ``argmax``, -0.0 and 0.0 comparing
        equal. ``action`` must lie in ``[0, len(values))``.
        """
        values = self.values
        best = self.greedy
        top = values[best]
        values[action] = value
        if action == best:
            if value <= self.bound:   # may have fallen to another value: rescan
                self.rescan()
        elif value >= self.bound:   # the bound is at most top, so this may take the greedy slot
            if value > top or (value == top and action < best):
                self.greedy = action
                self.bound = top
            else:
                self.bound = value


class QTable:
    """Lazily materialized (state, action) value table; absent entries read as 0.

    Each materialized state has a ``_QRow``: the values, the greedy action
    and a bound on the other actions' values, which lets a write that lowers
    the greedy value skip the rescan while it stays above the bound. The Q
    agents hold these rows directly. An unmaterialized state reads as
    ``_blank``, a row of zeros that nothing writes and no snapshot holds.
    ``rows`` and ``row()`` hand out read-only views of the values.
    """

    def __init__(self, n_actions: int):
        self.n_actions = n_actions
        self.rows: dict[str, np.ndarray] = {}
        self._rows: dict[str, _QRow] = {}
        self._blank = _QRow(array("d", [0.0]) * n_actions)

    def _add(self, state: str, values: array) -> _QRow:
        row = self._rows[state] = _QRow(values)
        self.rows[state] = row.view
        return row

    def _handle(self, state: str) -> _QRow:
        """The ``_QRow`` of ``state``, materializing it."""
        row = self._rows.get(state)
        return self._add(state, array("d", [0.0]) * self.n_actions) if row is None else row

    def row(self, state: str) -> np.ndarray:
        return self._handle(state).view

    def greedy(self, state: str) -> int:
        """First action of maximal value in ``state``, materializing its row."""
        return self._handle(state).greedy

    def value(self, state: str, action: int) -> float:
        row = self._rows.get(state)
        return 0.0 if row is None else row.values[action]

    def max_value(self, state: str) -> float:
        row = self._rows.get(state)
        return 0.0 if row is None else row.values[row.greedy]

    def to_dict(self) -> dict:
        return {
            "n_actions": self.n_actions,
            "rows": {state: row.values.tolist() for state, row in sorted(self._rows.items())},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "QTable":
        """The table of a ``to_dict`` payload; anything else raises ConfigError."""
        if not isinstance(payload, dict) or not payload.keys() >= {"n_actions", "rows"}:
            raise ConfigError(f"a Q-table snapshot must be a mapping with n_actions and rows, "
                              f"got {payload!r:.80}")
        _SNAPSHOT_ACTIONS.check("snapshot n_actions", payload["n_actions"], None)
        _SNAPSHOT_ROWS.check("snapshot rows", payload["rows"], None)
        table = cls(payload["n_actions"])
        for state, cells in payload["rows"].items():
            if not isinstance(state, str):
                raise ConfigError(f"snapshot state {state!r} must be a string")
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
            table._add(state, array("d", cells))
        return table

    def save_json(self, path) -> None:
        """Write the bytes of ``json.dump(self.to_dict(), fh, indent=2)`` and a newline.

        ``json.dump`` with an indent encodes in Python, one value at a time.
        Here each row goes through the C encoder (``json.dumps``) and is
        re-indented: its ", " separators never occur inside a number's text,
        ``Infinity`` and ``NaN`` included.
        """
        payload = self.to_dict()
        rows = ",\n".join(f"    {json.dumps(state)}: {_indented_row(json.dumps(cells))}"
                          for state, cells in payload["rows"].items())
        rows = f"{{\n{rows}\n  }}" if rows else "{}"
        with open(path, "w") as fh:
            fh.write(f'{{\n  "n_actions": {json.dumps(payload["n_actions"])},\n'
                     f'  "rows": {rows}\n}}\n')

    @classmethod
    def load_json(cls, path) -> "QTable":
        """The table ``save_json`` wrote to ``path``; text that is not JSON raises ConfigError."""
        with open(path) as fh:
            try:
                payload = json.load(fh)
            except ValueError as exc:   # JSONDecodeError, or text that does not decode
                raise ConfigError(f"{path}: not a JSON Q-table snapshot: {exc}") from exc
        return cls.from_dict(payload)


def q_update(table: QTable, state: str, action: int, reward: float, next_state: str,
             alpha: float, gamma: float) -> float:
    """One temporal-difference step; returns the new value of (state, action).

    The reference the Q agents' ``learn`` is tested against. The bootstrap
    reads the next state's maximum (0.0 for a state never materialized,
    which stays so). An action outside ``[0, n_actions)`` raises
    ``IndexError``, and a new value that is not finite, from a non-finite
    reward or an overflow, ``ValueError``; either changes nothing.
    Otherwise the write materializes the row, and ``rescan()`` recomputes
    its greedy action and runner-up.
    """
    if not 0 <= action < table.n_actions:
        raise IndexError(f"action {action} outside [0, {table.n_actions})")
    nxt = table._rows.get(next_state)
    following = 0.0 if nxt is None else nxt.values[int(nxt.view.argmax())]
    target = reward + gamma * following
    value = table._rows.get(state, table._blank).values[action]
    value += alpha * (target - value)
    if not math.isfinite(value):
        raise ValueError(f"reward must be finite and keep the Q value finite, got {reward}")
    row = table._handle(state)
    row.values[action] = value
    row.rescan()
    return value


def _add_to_mean(means: _QRow, counts: list[int], index: int, sample: float, name: str) -> None:
    """Fold ``sample`` into arm ``index``'s running mean through ``means.write``.

    A sample that would make the mean non-finite raises ``ValueError`` and
    changes nothing, which keeps every mean finite, as ``write`` needs.
    """
    count = counts[index] + 1
    mean = means.values[index]
    value = mean + (sample - mean) / count
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite and keep the mean finite, got {sample}")
    counts[index] = count
    means.write(index, value)


@dataclass(frozen=True)
class AgentParams:
    """Learning hyperparameters; the adaptive fields only apply when adaptive=True."""

    alpha: float = setting(Real("(0, 1]"), 0.9)
    gamma: float = setting(Real("[0, 1)"), 0.1)
    epsilon: float = setting(Real("[0, 1]"), 0.1)
    adaptive: bool = setting(FLAG, False)
    eta_inc: float = setting(Real("(1, inf)"), 1.5)
    eta_dec: float = setting(Real("(0, 1)"), 0.995)
    lambda_inc: float = setting(Real("(1, inf)"), 1.5)
    lambda_dec: float = setting(Real("(0, 1)"), 0.995)
    eps_min: float = setting(Real("[0, 1]"), 0.05)
    eps_max: float = setting(Real("[eps_min, 1]"), 1.0)
    alpha_min: float = setting(Real("(0, 1]"), 0.05)
    alpha_max: float = setting(Real("[alpha_min, 1]"), 0.9)
    # The detector holds 2 * degradation_window rewards in a deque,
    # whose length is a C ssize_t.
    degradation_window: int = setting(Integer(f"[1, {2**62})"), 20)
    degradation_drop: float = setting(Real("[0, inf)"), 0.1)

    def validate(self, section: str = "agent") -> None:
        check_fields(self, section)


def detect_degradation(rewards, window: int, drop: float) -> bool:
    """True when the last window's rewards sum to less than the previous window's minus window * drop.

    The reference rule, in exact rational arithmetic over the doubles'
    values: ``sum(recent) - sum(previous) < -window * drop``, so no rounding
    decides it. ``rewards`` is any sized sequence, a list or a deque; before
    it holds 2 * window rewards the answer is False.
    """
    # Imported here: fractions imports decimal, a few ms of every start-up,
    # and only tests call this reference.
    from fractions import Fraction

    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    n = len(rewards)
    if n < 2 * window:
        return False
    tail = map(Fraction, islice(rewards, n - 2 * window, None))
    previous = sum(islice(tail, window))
    return sum(tail) - previous < -window * Fraction(drop)


class DegradationDetector:
    """``detect_degradation`` over a sliding reward history, in O(1) per reward.

    ``push(r)`` returns ``detect_degradation`` of every reward pushed so
    far, ``r`` included. Every finite double is an integer number of units
    of 2**-k for some k <= 1074, so the detector keeps the last 2 * window
    rewards (``_units``), the exact gap (recent window minus previous) and
    the threshold as ints in units of 2**-``_bits``, where
    ``_bits`` is the most fractional bits of ``drop`` and of any reward
    pushed so far; nothing is rounded. A reward no finer than the unit
    converts with one exact multiplication by ``_scale`` = 2.0**``_bits``
    (inf once ``_bits`` >= 1024); a finer one refines the unit and shifts
    the held ints left. A non-finite reward raises ``OverflowError`` or
    ``ValueError`` and changes nothing.
    """

    def __init__(self, window: int, drop: float):
        if window < 1:
            raise ValueError(f"window must be at least 1, got {window}")
        self.window = window
        self._size = size = 2 * window
        self._units: deque[int] = deque(maxlen=size)
        self._gap = 0                  # recent window minus previous, in units
        self._threshold = 0            # _to_units may shift it before it is set
        self._bits = 0
        self._scale = 1.0
        self._threshold = -window * self._to_units(drop)

    def _to_units(self, value: float) -> int:
        """``value`` in units, refining the unit first if ``value`` is finer."""
        n, d = value.as_integer_ratio()   # d = 2**k, k <= 1074; raises if not finite
        shift = d.bit_length() - 1 - self._bits
        if shift <= 0:
            return n << -shift
        self._units = deque([u << shift for u in self._units], self._size)
        self._gap <<= shift
        self._threshold <<= shift
        self._bits += shift
        self._scale = 2.0 ** self._bits if self._bits < 1024 else math.inf
        return n

    def push(self, reward: float) -> bool:
        """Append ``reward``; True when the recent window's sum fell by more than window * drop."""
        x = reward * self._scale   # a power of two: exact, unless inf or nan
        x = int(x) if x.is_integer() else self._to_units(reward)
        units = self._units
        held = len(units)
        if held == self._size:   # units[window] moves to the previous window; units[0] leaves
            self._gap += x - 2 * units[self.window] + units[0]
        elif held < self.window:
            self._gap -= x
        else:
            self._gap += x
        units.append(x)
        return held + 1 >= self._size and self._gap < self._threshold


class _QLearner:
    """The Q agents' shared state and update: table, alpha/epsilon and the degradation detector.

    Each agent holds the ``_QRow`` handles of its table: ``_bind`` binds a
    handle once its state's row is materialized, and until then the state
    reads as the table's blank row, so materialization happens exactly
    where ``epsilon_greedy`` and ``q_update`` would make it. ``select`` is
    ``epsilon_greedy`` over the state's row, reading the row's greedy
    action. ``learn`` looks up the action and the rows, then calls
    ``_update``, which is ``q_update``: the same float expression, the same
    ``ValueError`` when the new value is not finite, and ``_QRow.write`` in
    place of ``q_update``'s rescan. A fixed agent stops there. An adaptive
    agent pushes the reward to its ``DegradationDetector``; on degradation
    it multiplies epsilon by eta_inc and alpha by lambda_inc, capped at
    eps_max and alpha_max, and otherwise by eta_dec and lambda_dec, floored
    at eps_min and alpha_min. Each clamp is the comparison ``min(value,
    cap)`` or ``max(value, floor)`` makes, so the results equal the
    builtins' bit for bit, NaN and -0.0 included. tests/test_policies.py
    holds both agents to a loop of ``q_update``, ``detect_degradation`` and
    ``tests/references.min_max_adapt_params``.
    """

    def __init__(self, n_actions: int, params: AgentParams):
        params.validate()
        self.alpha = params.alpha
        self.epsilon = params.epsilon
        self.table = QTable(n_actions)
        self._blank = self.table._blank
        self._n_actions = n_actions
        self._selected = False
        self._gamma = params.gamma
        # (epsilon factor, epsilon bound, alpha factor, alpha bound) on degradation and without.
        self._boost = (params.eta_inc, params.eps_max, params.lambda_inc, params.alpha_max)
        self._decay = (params.eta_dec, params.eps_min, params.lambda_dec, params.alpha_min)
        self._detector = None
        if params.adaptive:
            self._detector = DegradationDetector(params.degradation_window,
                                                 params.degradation_drop)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # CPython 3.11+ specializes a code object's attribute loads and stores
        # on ``self`` for one type at a time, and the camera and server agents
        # learn alternately in every frame; so each agent class runs its own
        # copy of ``_update``'s code. Before 3.11 the copy changes nothing.
        update = _QLearner._update
        cls._update = FunctionType(update.__code__.replace(), update.__globals__,
                                   update.__name__, update.__defaults__, update.__closure__)

    def _update(self, row: _QRow, state, action: int, reward: float, following: float) -> None:
        """Write ``q_update``'s new value of ``action`` in ``state``'s ``row``, then adapt.

        ``row`` may be the blank row, which the write materializes through
        ``_bind``; ``following`` is the next state's maximum.
        """
        if not self._selected:
            raise RuntimeError("learn() called before any select()")
        value = row.values[action]
        value += self.alpha * (reward + self._gamma * following - value)
        if not math.isfinite(value):
            raise ValueError(f"reward must be finite and keep the Q value finite, got {reward}")
        if row is self._blank:   # the first write materializes the row
            row = self._bind(state, True)
        row.write(action, value)
        detector = self._detector
        if detector is None:
            return
        if detector.push(reward):
            eta, cap, lam, alpha_cap = self._boost
            epsilon, alpha = self.epsilon * eta, self.alpha * lam
            self.epsilon = cap if cap < epsilon else epsilon
            self.alpha = alpha_cap if alpha_cap < alpha else alpha
        else:
            eta, floor, lam, alpha_floor = self._decay
            epsilon, alpha = self.epsilon * eta, self.alpha * lam
            self.epsilon = floor if floor > epsilon else epsilon
            self.alpha = alpha_floor if alpha_floor > alpha else alpha


class QLearningCameraPolicy(_QLearner):
    """Stateless subset learner: one abstract state, values driven by reward alone."""

    STATE = "global"

    def __init__(self, space: ActionSpace, params: AgentParams):
        super().__init__(len(space), params)
        self._actions = space.actions
        self._index = space.index
        self._row: _QRow | None = None   # the STATE row, once materialized

    def _bind(self, state: str, materialize: bool) -> _QRow:
        """The ``state`` row, bound once materialized; the blank row before, unless ``materialize``."""
        table = self.table
        row = table._handle(state) if materialize else table._rows.get(state)
        if row is None:
            return self._blank
        self._row = row
        return row

    def select(self, rng) -> int:
        self._selected = True
        epsilon = self.epsilon
        if epsilon > 0 and rng.random() < epsilon:
            return self._actions[rng.integers(self._n_actions)]
        return self._actions[(self._row or self._bind(self.STATE, True)).greedy]

    def learn(self, mask: int, reward: float, quality: float | None = None) -> None:
        action = self._index[mask]
        row = self._row or self._bind(self.STATE, False)
        # Single abstract state: the bootstrap term is gamma * max over the same row.
        self._update(row, self.STATE, action, reward, row.values[row.greedy])


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
    the decision. The means are a ``_QRow``, whose ``write`` keeps the
    first arm of maximal mean current, so ``select`` needs no scan;
    ``mean_quality`` is its read-only ``view``.
    """

    ARITY = 3

    def __init__(self, n_cameras: int):
        if n_cameras < self.ARITY:
            raise ConfigError(f"greedy3 needs at least {self.ARITY} cameras, got {n_cameras}")
        space = enumerate_actions(n_cameras, self.ARITY, self.ARITY)
        self.masks = space.actions
        self.index = space.index
        self.counts = [0] * len(self.masks)
        self._means = _QRow(array("d", [0.0]) * len(self.masks))
        self.mean_quality = self._means.view
        self._cold = 0   # next unvisited arm during the cold-start sweep

    def select(self, rng=None) -> int:
        if self._cold < len(self.masks):
            mask = self.masks[self._cold]
            self._cold += 1
            return mask
        return self.masks[self._means.greedy]

    def learn(self, mask: int, reward: float = 0.0, quality: float | None = None) -> None:
        if quality is None:
            return
        _add_to_mean(self._means, self.counts, self.index[mask], quality, "quality")


class BanditCameraPolicy:
    """Epsilon-greedy over per-subset mean reward; no bootstrapping of future value.

    The means are a ``_QRow``, as greedy3's are, so ``select`` makes exactly
    ``epsilon_greedy``'s RNG calls without its scan; ``mean_reward`` is the
    row's read-only ``view``.
    """

    def __init__(self, space: ActionSpace, epsilon: float = 0.1):
        if not 0 <= epsilon <= 1:
            raise ConfigError(f"bandit epsilon must lie in [0, 1], got {epsilon}")
        self.space = space
        self.epsilon = epsilon
        self.counts = [0] * len(space)
        self._means = _QRow(array("d", [0.0]) * len(space))
        self.mean_reward = self._means.view

    def select(self, rng) -> int:
        actions = self.space.actions
        epsilon = self.epsilon
        if epsilon > 0 and rng.random() < epsilon:
            return actions[int(rng.integers(len(actions)))]
        return actions[self._means.greedy]

    def learn(self, mask: int, reward: float, quality: float | None = None) -> None:
        _add_to_mean(self._means, self.counts, self.space.index[mask], reward, "reward")


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
        self._rows: dict[ServerState, _QRow] = {}   # each materialized state's row

    def _bind(self, state: ServerState, materialize: bool) -> _QRow:
        """``state``'s row, bound once materialized; the blank row before, unless ``materialize``."""
        table = self.table
        key = state.key()
        row = table._handle(key) if materialize else table._rows.get(key)
        if row is None:
            return self._blank
        self._rows[state] = row
        return row

    def select(self, frame: int, state: ServerState, rng) -> int:
        row = self._rows.get(state) or self._bind(state, False)
        self._selected = True
        epsilon = self.epsilon
        if epsilon > 0 and rng.random() < epsilon:
            return int(rng.integers(self._n_actions))
        if row is self._blank:
            row = self._bind(state, True)
        return row.greedy

    def learn(self, state: ServerState, action: int, reward: float, next_state: ServerState,
              total_latency_s: float | None = None) -> None:
        if not 0 <= action < self._n_actions:
            raise IndexError(f"server {action} outside [0, {self._n_actions})")
        rows = self._rows
        row = rows.get(state) or self._bind(state, False)
        # A next state never materialized reads as the blank row: it bootstraps 0.0.
        following = rows.get(next_state) or self._bind(next_state, False)
        self._update(row, state, action, reward, following.values[following.greedy])


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
    against learners that keep exploring. The estimates are kept negated in
    a ``_QRow``: its first maximum is the first server of minimal estimate,
    ``==`` ties included, and ``write`` keeps it current, so ``select``
    needs no scan. ``estimates`` is a read-only copy of the estimates.
    """

    def __init__(self, n_servers: int, beta: float = 0.3):
        if n_servers < 1:
            raise ConfigError(f"n_servers must be >= 1, got {n_servers}")
        if not 0 < beta <= 1:
            raise ConfigError(f"ewma beta must lie in (0, 1], got {beta}")
        self.n_servers = n_servers
        self.beta = beta
        # -0.0, so that the estimates read +0.0 before any learn.
        self._negated = _QRow(array("d", [-0.0]) * n_servers)

    @property
    def estimates(self) -> np.ndarray:
        estimates = -self._negated.view
        estimates.flags.writeable = False
        return estimates

    def select(self, frame: int, state: ServerState | None = None, rng=None) -> int:
        return self._negated.greedy

    def learn(self, state, action, reward, next_state, total_latency_s=None) -> None:
        """Fold ``total_latency_s`` into ``action``'s estimate.

        An action outside ``[0, n_servers)`` raises ``IndexError``, and a
        non-finite latency ``ValueError``; either changes nothing, which
        keeps every estimate finite, as ``_QRow.write`` needs. Negation is
        exact, so the estimates are those of the EWMA on plain values.
        """
        if not 0 <= action < self.n_servers:
            raise IndexError(f"server {action} outside [0, {self.n_servers})")
        if total_latency_s is None:
            return
        negated = self._negated
        value = self.beta * total_latency_s + (1.0 - self.beta) * -negated.values[action]
        if not math.isfinite(value):
            raise ValueError(f"total_latency_s must be finite, got {total_latency_s}")
        negated.write(action, -value)
