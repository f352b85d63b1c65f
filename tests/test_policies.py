import json
import math
import re
import struct
import tempfile
from array import array
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from edgerecon import policies
from edgerecon.errors import ConfigError
from edgerecon.masks import MAX_CAMERAS, bitstring, mask_from_str
from edgerecon.policies import (ActionSpace, AgentParams, BanditCameraPolicy, DegradationDetector,
                                GreedyTripletCameraPolicy, LatencyGreedyServerPolicy, QTable,
                                QLearningCameraPolicy, QLearningServerPolicy, RandomCameraPolicy,
                                RoundRobinServerPolicy, ServerState, _QLearner, _QRow,
                                detect_degradation, enumerate_actions, epsilon_greedy, q_update)
from references import bitstring_subsets, min_max_adapt_params

# chi-square critical values at the 99.9th percentile
CHI2_DF9_999 = 27.88
CHI2_DF25_999 = 52.62


def assert_row_invariant(row: _QRow) -> None:
    """``greedy`` is argmax's index; ``bound`` lies between every other value and the maximum."""
    values = np.array(row.values)
    if not len(values):
        assert (row.greedy, row.bound) == (0, -math.inf)
        return
    assert row.greedy == int(values.argmax())
    others = np.delete(values, row.greedy)
    assert not len(others) or row.bound >= others.max()
    assert row.bound <= values[row.greedy]


class TestActionSpace:
    def test_standard_count(self):
        # C(5,2)+C(5,3)+C(5,4)+C(5,5) = 10+10+5+1
        assert len(enumerate_actions(5, 2, 5)) == 26

    def test_single_action(self):
        space = enumerate_actions(5, 5, 5)
        assert space.actions == (0b11111,)

    def test_singletons(self):
        space = enumerate_actions(3, 1, 1)
        assert space.actions == (0b001, 0b010, 0b100)

    def test_canonical_bitstring_order(self):
        space = enumerate_actions(4, 2, 3)
        assert list(space.actions) == sorted(set(space.actions))
        strings = [bitstring(m, 4) for m in space.actions]
        assert strings == sorted(strings)
        assert all(2 <= s.count("1") <= 3 for s in strings)

    @given(st.data())
    def test_matches_tuple_enumeration(self, data):
        n = data.draw(st.integers(1, 12))
        k_min = data.draw(st.integers(1, n))
        k_max = data.draw(st.integers(k_min, n))
        expected = tuple(mask_from_str(m) for m in bitstring_subsets(n, k_min, k_max))
        assert enumerate_actions(n, k_min, k_max).actions == expected

    def test_index_inverts_actions(self):
        space = enumerate_actions(5, 2, 5)
        for i, mask in enumerate(space.actions):
            assert space.index[mask] == i

    @pytest.mark.parametrize("bounds", [(0, 2), (3, 2), (2, 6)])
    def test_bad_bounds(self, bounds):
        with pytest.raises(ConfigError):
            enumerate_actions(5, *bounds)

    def test_camera_cap(self):
        assert len(enumerate_actions(MAX_CAMERAS, MAX_CAMERAS, MAX_CAMERAS)) == 1
        with pytest.raises(ConfigError, match=str(MAX_CAMERAS)):
            enumerate_actions(MAX_CAMERAS + 10, 1, 3)


class TestEpsilonGreedy:
    def test_greedy_first_max_tie_break(self):
        rng = np.random.default_rng(0)
        assert epsilon_greedy([0.1, 0.9, 0.9], 0.0, rng) == 1

    def test_greedy_all_zero_cold_start(self):
        rng = np.random.default_rng(0)
        assert epsilon_greedy([0.0, 0.0, 0.0], 0.0, rng) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            epsilon_greedy([], 0.5, np.random.default_rng(0))

    def test_full_exploration_uniform(self):
        rng = np.random.default_rng(0)
        counts = np.zeros(10)
        for _ in range(10_000):
            counts[epsilon_greedy([0.0] * 10, 1.0, rng)] += 1
        chi2 = float(((counts - 1000.0) ** 2 / 1000.0).sum())
        assert chi2 < CHI2_DF9_999

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=10),
           st.floats(0.001, 100))
    def test_argmax_invariant_under_positive_scaling(self, values, scale):
        scaled_values = [v * scale for v in values]
        # Scaling can underflow two distinct values into a tie (e.g. -5e-324 * 0.5
        # is -0.0), which moves the first-index argmax; such a scale is not
        # order-preserving, so the property does not apply.
        assume(len(set(scaled_values)) == len(set(values)))
        rng = np.random.default_rng(0)
        base = epsilon_greedy(values, 0.0, rng)
        scaled = epsilon_greedy(scaled_values, 0.0, rng)
        assert base == scaled


class TestQTable:
    def test_absent_entries_read_zero(self):
        table = QTable(4)
        assert table.value("anything", 3) == 0.0
        assert table.max_value("anything") == 0.0
        assert np.array_equal(table.row("s"), np.zeros(4))

    def test_snapshot_round_trip(self, tmp_path):
        table = QTable(3)
        q_update(table, "a", 1, 0.7, "b", 0.5, 0.9)
        q_update(table, "b", 2, 0.3, "a", 0.5, 0.9)
        path = tmp_path / "snapshot.json"
        table.save_json(path)
        loaded = QTable.load_json(path)
        assert loaded.n_actions == 3
        assert loaded.rows.keys() == table.rows.keys()
        for state in table.rows:
            assert np.array_equal(loaded.rows[state], table.rows[state])
        payload = json.loads(path.read_text())
        assert set(payload) == {"n_actions", "rows"}

    SNAPSHOT_CELLS = st.one_of(
        st.floats(width=64),
        st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308,
                         math.inf, -math.inf, math.nan, 0.1, 1 / 3]))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n_actions=st.integers(0, 5))
    @example(data=None, n_actions=0)
    def test_snapshot_bytes_equal_json_dump(self, data, n_actions):
        # Non-finite cells only test the encoding: no write path stores one,
        # and loading one back is a ConfigError. Every finite snapshot,
        # zero-action rows included, loads back to the same table.
        table = QTable(n_actions)
        if data is None:
            table.row("s")
        else:
            states = data.draw(st.lists(st.one_of(st.text(max_size=6), st.sampled_from(
                ['"', "\\", "\n", "\x00", "\x7f", "é", "\u2028", "\U0001f600", "global"])),
                max_size=4, unique=True))
            for state in states:
                cells = data.draw(st.lists(self.SNAPSHOT_CELLS, min_size=n_actions,
                                           max_size=n_actions))
                table._add(state, array("d", cells))
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.json", Path(tmp) / "want.json"
            table.save_json(got)
            with open(want, "w") as fh:
                json.dump(table.to_dict(), fh, indent=2)
                fh.write("\n")
            assert got.read_bytes() == want.read_bytes()
            rows = table.to_dict()["rows"]
            if all(math.isfinite(v) for cells in rows.values() for v in cells):
                loaded = QTable.load_json(got)
                assert repr(loaded.to_dict()) == repr(table.to_dict())
                for row in loaded._rows.values():
                    assert_row_invariant(row)
            else:
                with pytest.raises(ConfigError, match="non-finite"):
                    QTable.load_json(got)

    def test_snapshot_width_checked(self):
        with pytest.raises(ConfigError):
            QTable.from_dict({"n_actions": 2, "rows": {"s": [1.0, 2.0, 3.0]}})

    @pytest.mark.parametrize("cell", [float("nan"), float("inf"), -float("inf"), 10 ** 400,
                                      "1.0", None, True, [1.0]])
    def test_snapshot_cells_must_be_finite_numbers(self, cell):
        with pytest.raises(ConfigError, match="'bad'"):
            QTable.from_dict({"n_actions": 2, "rows": {"ok": [0.0, 1], "bad": [0.5, cell]}})

    @pytest.mark.parametrize("payload, match", [
        ({"n_actions": 2.5, "rows": {}}, "n_actions must be an integer"),
        ({"n_actions": True, "rows": {}}, "n_actions must be an integer"),
        ({"n_actions": "2", "rows": {}}, "n_actions must be an integer"),
        ({"n_actions": -1, "rows": {}}, r"n_actions must lie in \[0, inf\)"),
        ({"n_actions": 1, "rows": {0: [0.0]}}, "state 0 must be a string"),
        ({"rows": {}}, "mapping with n_actions and rows"),
        ({"n_actions": 1, "rows": [[0.0]]}, "rows must be a mapping"),
        ([{"n_actions": 1, "rows": {}}], "mapping with n_actions and rows"),
        ('{"n_actions": 1, "rows": {"s": [0.0', "not a JSON Q-table snapshot"),
    ])
    def test_malformed_snapshot_raises_config_error(self, payload, match, tmp_path):
        # A str is the text of a snapshot file. Anything else is a parsed
        # payload, also written as a file where JSON can hold it; it cannot
        # hold a non-string state key.
        path = tmp_path / "snapshot.json"
        if isinstance(payload, str):
            path.write_text(payload)
        else:
            with pytest.raises(ConfigError, match=match):
                QTable.from_dict(payload)
            if json.loads(json.dumps(payload)) != payload:
                return
            path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match=match):
            QTable.load_json(path)

    def test_snapshot_load_computes_greedy_action(self):
        table = QTable.from_dict({"n_actions": 4, "rows": {"s": [-0.0, 2.0, 0.5, 2.0]}})
        assert table.greedy("s") == 1
        assert table.max_value("s") == 2.0

    def test_greedy_rescans_when_its_value_drops(self):
        table = QTable.from_dict({"n_actions": 3, "rows": {"s": [1.0, 1.0 - 1e-12, 0.5]}})
        q_update(table, "s", 0, 1.0 - 2e-12, "s2", alpha=1.0, gamma=0.0)
        assert table.greedy("s") == 1

    def test_rows_are_read_only(self):
        table = QTable(3)
        q_update(table, "s", 1, 0.5, "s", 0.5, 0.0)
        with pytest.raises(ValueError, match="read-only"):
            table.row("s")[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            table.rows["s"][2] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            table.row("fresh")[0] = 1.0
        assert table.to_dict()["rows"] == {"fresh": [0.0] * 3, "s": [0.0, 0.25, 0.0]}
        assert table.greedy("s") == 1

    @given(st.data())
    def test_greedy_cache_matches_argmax(self, data):
        # Ties, -0.0 next to 0.0 (only a loaded snapshot can hold -0.0), a
        # greedy value that falls, and next states that are never materialized.
        n = data.draw(st.integers(1, 4))
        cells = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5])
        loaded = data.draw(st.dictionaries(st.sampled_from("ab"),
                                           st.lists(cells, min_size=n, max_size=n)))
        table = QTable.from_dict({"n_actions": n, "rows": loaded})
        plain = {state: np.array(values, dtype=float) for state, values in loaded.items()}
        for row in table._rows.values():
            assert_row_invariant(row)
        updates = st.tuples(
            st.sampled_from("abc"), st.integers(0, n - 1),
            st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]), st.floats(-10, 10)),
            st.sampled_from("abcz"), st.sampled_from([1.0, 0.5, 0.3]),
            st.sampled_from([0.0, 0.5, 0.9]))
        for state, action, reward, next_state, alpha, gamma in data.draw(
                st.lists(updates, max_size=30)):
            row = plain.setdefault(state, np.zeros(n))
            following = plain.get(next_state)
            target = reward + gamma * (0.0 if following is None else float(following.max()))
            value = float(row[action])
            value += alpha * (target - value)
            row[action] = value
            assert q_update(table, state, action, reward, next_state, alpha, gamma) == value
            assert "z" not in table.rows
            assert table.rows.keys() == plain.keys()
            for key, values in plain.items():
                assert np.array_equal(table.rows[key], values)
                assert table.greedy(key) == int(values.argmax())
                assert table.max_value(key) == values.max()
                assert_row_invariant(table._rows[key])


class TestQUpdate:
    def test_single_step_from_zero(self):
        table = QTable(2)
        new = q_update(table, "s", 0, 1.0, "s2", alpha=0.9, gamma=0.1)
        assert new == pytest.approx(0.9)

    def test_zero_td_error_is_noop(self):
        table = QTable(2)
        q_update(table, "s", 0, 0.42, "s2", alpha=1.0, gamma=0.0)
        new = q_update(table, "s", 0, 0.42, "s2", alpha=0.7, gamma=0.0)
        assert new == pytest.approx(0.42)

    def test_sequential_updates_match_closed_form(self):
        # With gamma=0 the recurrence is a pure exponential average of rewards.
        alpha, rewards = 0.3, [0.8, 0.2, 0.5, 0.9]
        table = QTable(1)
        for r in rewards:
            q_update(table, "s", 0, r, "s", alpha=alpha, gamma=0.0)
        expected = 0.0
        for r in rewards:
            expected = (1 - alpha) * expected + alpha * r
        assert table.value("s", 0) == pytest.approx(expected, abs=1e-12)

    def test_bootstrap_uses_next_state_max(self):
        table = QTable(2)
        q_update(table, "next", 1, 2.0, "s2", alpha=1.0, gamma=0.0)
        new = q_update(table, "s", 0, 0.0, "next", alpha=1.0, gamma=0.5)
        assert new == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_reward_rejected(self, bad):
        table = QTable(2)
        with pytest.raises(ValueError):
            q_update(table, "s", 0, bad, "s", 0.5, 0.5)
        assert table.rows == {}

    def test_overflowing_value_rejected(self):
        # 1.7e308 + 0.9 * 1.7e308 overflows: the second write would store inf,
        # a third NaN. Each raises and changes nothing, materializing no row.
        table = QTable(2)
        q_update(table, "s", 0, 1.7e308, "s", 1.0, 0.9)
        before = repr(table.to_dict())
        with pytest.raises(ValueError, match="finite"):
            q_update(table, "s", 0, 1.7e308, "s", 1.0, 0.9)
        with pytest.raises(ValueError, match="finite"):
            q_update(table, "fresh", 1, 1e308, "s", 1.0, 0.9)
        assert repr(table.to_dict()) == before
        assert table.greedy("s") == 0

    @pytest.mark.parametrize("action", [-1, 2])
    def test_action_out_of_range_rejected(self, action):
        # -1 would index the last action.
        table = QTable(2)
        q_update(table, "s", 1, 1.0, "s", 1.0, 0.0)
        before = repr(table.to_dict())
        for state in ("s", "fresh"):
            with pytest.raises(IndexError):
                q_update(table, state, action, 0.5, "s", 1.0, 0.0)
        assert repr(table.to_dict()) == before
        assert table.greedy("s") == 1


class TestAgentParams:
    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0.0},
        {"alpha": 1.5},
        {"gamma": 1.0},
        {"epsilon": 1.2},
        {"eta_inc": 0.9},
        {"eta_dec": 1.1},
        {"lambda_inc": 1.0},
        {"lambda_dec": 0.0},
        {"eps_min": 0.5, "eps_max": 0.1},
        {"alpha_min": 0.0},
        {"degradation_window": 0},
        {"degradation_drop": -0.1},
    ])
    def test_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            AgentParams(**kwargs).validate()


# Multiples of 1/64 up to 1: window sums of these, and of them shifted by a
# drop in eighths, are exact in floating point.
DYADIC = st.integers(0, 64).map(lambda k: k / 64)
REWARDS = {
    "unit": st.floats(0, 1),
    "repeated": st.sampled_from([0.0, 0.2, 0.5, 0.7, 1.0]),
    "large": st.floats(-1e6, 1e6),
}


@st.composite
def reward_streams(draw):
    """(window, drop, rewards) for the degradation detector.

    Rewards in [0, 1], a few repeated values, or magnitudes up to 1e6. Most
    streams then hold a previous window and a recent one whose mean lands
    on the previous mean minus drop: exactly (sums of dyadic values, maybe
    nudged by an ulp), or as rounded floats compute it (each previous value
    minus drop, or the previous mean minus drop repeated). Those are the
    streams on which the exact rule and a float evaluation of it can part.
    In "refine" streams a drop in eighths and 2 * window dyadic rewards fill
    the history, and a tail in [0, 1], subnormals included, follows: finer
    rewards then refine the detector's unit while its history is full.
    """
    window = draw(st.integers(1, 25))
    drop = draw(st.floats(0, 1.5))
    values = REWARDS[draw(st.sampled_from(sorted(REWARDS)))]
    rewards = draw(st.lists(values, max_size=3 * window))
    threshold = draw(st.sampled_from([None, "exact", "shift", "mean", "refine"]))
    if threshold == "refine":
        drop = draw(st.integers(0, 12)) / 8
        full = draw(st.lists(DYADIC, min_size=2 * window, max_size=2 * window))
        tail = draw(st.lists(st.floats(0, 1, allow_subnormal=True), min_size=1,
                             max_size=2 * window))
        return window, drop, full + tail
    if threshold == "exact":
        drop = draw(st.integers(0, 12)) / 8
        previous = [v + drop for v in draw(st.lists(DYADIC, min_size=window, max_size=window))]
        recent = [v - drop for v in draw(st.permutations(previous))]
        assert sum(recent) == sum(previous) - window * drop
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, window - 1))
            recent[i] = math.nextafter(recent[i], draw(st.sampled_from([-math.inf, math.inf])))
    elif threshold == "shift":
        previous = draw(st.lists(values, min_size=window, max_size=window))
        recent = [v - drop for v in draw(st.permutations(previous))]
    elif threshold == "mean":
        previous = draw(st.lists(values, min_size=window, max_size=window))
        recent = [sum(previous) / window - drop] * window
    if threshold is not None:
        rewards += previous + recent + draw(st.lists(values, max_size=2 * window))
    return window, drop, rewards


def fractional_bits(value: float) -> int:
    return value.as_integer_ratio()[1].bit_length() - 1


def assert_detector_holds(detector: DegradationDetector, drop: float, rewards: list) -> None:
    """``detector``'s state after pushing ``rewards``: the last 2 * window of them
    exactly, in units of 2**-_bits, the finest of drop's and the rewards', and the
    recent window's sum minus the previous window's."""
    window = detector.window
    bits = max(map(fractional_bits, [drop, *rewards]))
    units = [Fraction(r) * 2**bits for r in rewards[-2 * window:]]
    assert all(u.denominator == 1 for u in units)
    assert detector._bits == bits
    assert list(detector._units) == units
    assert detector._gap == sum(units[window:]) - sum(units[:window])


def forced_agent(params: AgentParams):
    """An adaptive camera agent on ``params``, unvalidated, and its ``learn(degraded)``.

    ``learn`` forces the detector's decision to ``degraded``, learns reward
    0.0, which keeps every Q value 0, and returns the agent's (alpha,
    epsilon). Unvalidated params drive the clamps with factors and bounds
    that no config passes.
    """
    with mock.patch.object(AgentParams, "validate"):
        agent = QLearningCameraPolicy(enumerate_actions(3, 2, 3), replace(params, adaptive=True))
    mask = agent.select(np.random.default_rng(0))
    decision = [False]
    agent._detector.push = lambda reward: decision[0]

    def learn(degraded: bool) -> tuple[float, float]:
        decision[0] = degraded
        agent.learn(mask, 0.0)
        return agent.alpha, agent.epsilon

    return agent, learn


def adapted(alpha: float, epsilon: float, params: AgentParams, degraded: bool):
    """(alpha, epsilon) of a ``forced_agent`` that held ``alpha`` and ``epsilon`` after one learn."""
    agent, learn = forced_agent(params)
    agent.alpha, agent.epsilon = alpha, epsilon
    return learn(degraded)


def learner_state(agent) -> tuple:
    """A Q agent's table (repr keeps -0.0 apart), alpha, epsilon and detector state."""
    detector = agent._detector
    return (repr(agent.table.to_dict()), agent.alpha, agent.epsilon,
            list(detector._units), detector._gap, detector._bits)


def same_bits(got, want) -> bool:
    return [struct.pack("d", v) for v in got] == [struct.pack("d", v) for v in want]


class TestAdaptation:
    def test_degradation_boost(self):
        params = AgentParams(adaptive=True, eta_inc=2.0, eps_max=0.5, lambda_inc=1.5,
                             alpha_max=0.9)
        alpha, epsilon = adapted(0.4, 0.2, params, degraded=True)
        assert epsilon == pytest.approx(0.4)
        assert alpha == pytest.approx(0.6)
        assert same_bits((alpha, epsilon), min_max_adapt_params(0.4, 0.2, params, True))

    def test_boost_clamped_at_max(self):
        params = AgentParams(adaptive=True, eta_inc=10.0, eps_max=0.5, lambda_inc=10.0,
                             alpha_max=0.9)
        alpha, epsilon = adapted(0.4, 0.2, params, degraded=True)
        assert epsilon == 0.5
        assert alpha == 0.9
        assert same_bits((alpha, epsilon), min_max_adapt_params(0.4, 0.2, params, True))

    def test_decay_clamped_at_min(self):
        params = AgentParams(adaptive=True, eps_min=0.05, alpha_min=0.05)
        alpha, epsilon = adapted(0.05, 0.05, params, degraded=False)
        assert epsilon == 0.05
        assert alpha == 0.05
        assert same_bits((alpha, epsilon), min_max_adapt_params(0.05, 0.05, params, False))

    @settings(max_examples=300)
    @given(st.data(), st.booleans())
    def test_clamps_bit_identical_to_min_max(self, data, degraded):
        # Factors 2 and 0.5 let a product land exactly on its bound, where
        # min/max keep their first argument; NaN, infinities and -0.0 too.
        specials = st.sampled_from([0.0, -0.0, 0.05, 0.9, 1.0, math.nan, math.inf, -math.inf])
        factors = st.sampled_from([0.5, 2.0]) | st.floats()
        params = AgentParams(
            **{name: data.draw(factors, label=name)
               for name in ("eta_inc", "eta_dec", "lambda_inc", "lambda_dec")},
            **{name: data.draw(specials | st.floats(), label=name)
               for name in ("eps_min", "eps_max", "alpha_min", "alpha_max")})
        if degraded:
            pairs = (params.lambda_inc, params.alpha_max), (params.eta_inc, params.eps_max)
        else:
            pairs = (params.lambda_dec, params.alpha_min), (params.eta_dec, params.eps_min)
        alpha, epsilon = (data.draw(st.just(bound / factor if factor else bound) | specials
                                    | st.floats()) for factor, bound in pairs)
        want = min_max_adapt_params(alpha, epsilon, params, degraded)
        if math.isfinite(alpha):
            assert same_bits(adapted(alpha, epsilon, params, degraded), want)
        else:
            # The agent's alpha lies in (0, 1]; a non-finite one makes the Q
            # value non-finite, so learn raises before the clamps.
            with pytest.raises(ValueError, match="finite"):
                adapted(alpha, epsilon, params, degraded)

    @pytest.mark.parametrize("alpha, epsilon, degraded, bound", [
        (0.45, 0.45, True, 0.9), (0.025, 0.025, False, 0.05),   # products equal the bounds
        (-0.0, -0.0, False, 0.0), (0.0, 0.0, True, -0.0),       # ties of -0.0 and 0.0
    ])
    def test_clamp_ties_keep_the_product(self, alpha, epsilon, degraded, bound):
        params = AgentParams(eta_inc=2.0, eta_dec=2.0, lambda_inc=2.0, lambda_dec=2.0,
                             eps_min=bound, eps_max=bound, alpha_min=bound, alpha_max=bound)
        products = (alpha * 2.0, epsilon * 2.0)
        assert products == (bound, bound)
        for result in (adapted(alpha, epsilon, params, degraded),
                       min_max_adapt_params(alpha, epsilon, params, degraded)):
            assert same_bits(result, products)

    def test_flat_history_decays_monotonically(self):
        params = AgentParams(alpha=0.5, epsilon=0.8, adaptive=True, degradation_window=5)
        agent = QLearningCameraPolicy(enumerate_actions(3, 2, 3), params)
        mask = agent.select(np.random.default_rng(0))
        last_eps = agent.epsilon
        for _ in range(50):
            agent.learn(mask, 0.6)
            assert agent.epsilon <= last_eps
            last_eps = agent.epsilon
        assert agent.epsilon >= params.eps_min
        assert agent.epsilon < params.epsilon   # a flat history never degrades

    def test_detect_degradation_windows(self):
        # Previous window mean 0.9, recent 0.5: drop 0.4 > 0.1 threshold.
        history = [0.9] * 10 + [0.5] * 10
        assert detect_degradation(history, 10, 0.1)
        assert not detect_degradation(history, 10, 0.5)
        assert not detect_degradation(history[:15], 10, 0.1)   # too short

    @settings(max_examples=300)
    @given(reward_streams())
    def test_detector_matches_detect_degradation(self, case):
        window, drop, rewards = case
        detector = DegradationDetector(window, drop)
        history = []
        for reward in rewards:
            history.append(reward)
            assert detector.push(reward) == detect_degradation(history, window, drop)
            assert_detector_holds(detector, drop, history)

    @pytest.mark.parametrize("window, drop, rewards, degraded", [
        # The recent sum is 0.0 and the previous one exactly 3 * 0.1: a fall of
        # exactly window * drop, though float sum([0.1] * 3) rounds above 0.3.
        (3, 0.1, [0.1] * 3 + [0.0] * 3, False),
        # The double 0.7 lies below 1.0 - 0.3 exactly, though 1.0 - 0.3 == 0.7 in floats.
        (1, 0.3, [1.0, 0.7], True),
        # Window sums beyond the largest double.
        (2, 0.1, [1.7e308] * 2 + [-1.7e308] * 2, True),
        (2, 0.1, [-1.7e308] * 2 + [1.7e308] * 2, False),
        (2, 0.0, [1.7e308] * 4, False),
        (2, 1.7e308, [1.7e308] * 2 + [0.0] * 2, False),   # a fall of exactly window * drop
        # Subnormals: falls of one and two units of 2**-1074.
        (1, 5e-324, [1.5e-323, 5e-324], True),
        (1, 5e-324, [1e-323, 5e-324], False),
        (2, 0.0, [5e-324, 0.0, 0.0, 0.0], True),
        (2, 5e-324, [5e-324, 0.0, 0.0, 0.0], False),   # drop is one unit, window * drop two
        (2, 0.0, [0.0, 0.0, 0.0, -5e-324], True),
        # Negative rewards: a fall of 0.5 against drops of 0.5 and 0.25.
        (1, 0.5, [-0.5, -1.0], False),
        (1, 0.25, [-0.5, -1.0], True),
        (2, 0.25, [-0.25, -0.25, -0.5, -0.5], False),
        # -0.0 sums as 0.0.
        (1, 0.0, [0.0, -0.0], False),
        (1, 0.0, [-0.0, -5e-324], True),
        (2, 0.0, [-0.0, -0.0, -0.0, 0.0], False),
    ])
    def test_exact_rule_cases(self, window, drop, rewards, degraded):
        detector = DegradationDetector(window, drop)
        decisions = [detector.push(reward) for reward in rewards]
        assert decisions == [False] * (len(rewards) - 1) + [degraded]
        assert detect_degradation(rewards, window, drop) == degraded

    @pytest.mark.parametrize("reward", [math.inf, -math.inf, math.nan])
    def test_detector_rejects_non_finite_reward_unchanged(self, reward):
        def state(detector):
            return (detector._gap, list(detector._units),
                    detector._bits, detector._scale, detector._threshold)

        for window, drop, rewards in [
            (1, 0.1, [0.5]),
            (2, 0.1, [0.5, 0.25, 0.75, 1.0, 0.3]),   # a full history
            (1, 5e-324, [0.5, 0.25]),                 # the unit is already 2**-1074
        ]:
            detector = DegradationDetector(window, drop)
            for r in rewards:
                detector.push(r)
            before = state(detector)
            with pytest.raises((OverflowError, ValueError)):
                detector.push(reward)
            assert state(detector) == before

    @pytest.mark.parametrize("window, drop, rewards", [
        # A full history of quarters under drop 0.5, then ever finer rewards.
        (2, 0.5, [1.0, 0.75, 0.25, 0.5, 0.1, 2.0**-60, 5e-324, 0.75, 0.5]),
        # The unit starts at 2**-1074, where every product with the scale is inf or nan.
        (2, 5e-324, [0.5, 0.25, 1.0, 0.0, 0.3, 0.7, -0.0, 0.2]),
        # 1.7e308 times the scale of drop 0.1 overflows.
        (2, 0.1, [1.7e308, 1.7e308, -1.7e308, -1.7e308, 0.1, 1.7e308]),
    ])
    def test_detector_refines_its_unit(self, window, drop, rewards):
        detector = DegradationDetector(window, drop)
        slow = []
        to_units = detector._to_units
        detector._to_units = lambda value: slow.append(value) or to_units(value)
        bits = fractional_bits(drop)
        history = []
        for reward in rewards:
            expect_slow = (fractional_bits(reward) > detector._bits
                           or not math.isfinite(reward * detector._scale))
            slow.clear()
            history.append(reward)
            assert detector.push(reward) == detect_degradation(history, window, drop)
            assert slow == ([reward] if expect_slow else [])
            assert detector._bits >= bits
            bits = max(bits, fractional_bits(reward))
            assert detector._bits == bits
            assert detector._scale == (2.0**bits if bits < 1024 else math.inf)
            assert list(detector._units) == [r.as_integer_ratio()[0] << (bits - fractional_bits(r))
                                             for r in history[-2 * window:]]

    @pytest.mark.parametrize("window", [0, -1])
    def test_window_below_one_rejected(self, window):
        with pytest.raises(ValueError, match=f"window must be at least 1, got {window}"):
            DegradationDetector(window, 0.1)

    @pytest.mark.parametrize("window", [0, -1])
    def test_reference_window_below_one_rejected(self, window):
        with pytest.raises(ValueError, match=f"window must be at least 1, got {window}"):
            detect_degradation([0.5], window, 0.1)

    @settings(max_examples=150)
    @given(reward_streams(), st.booleans())
    def test_adaptive_agent_matches_reference_loop(self, case, server):
        window, drop, rewards = case
        params = AgentParams(alpha=0.5, epsilon=0.5, adaptive=True, degradation_window=window,
                             degradation_drop=drop)
        rng = np.random.default_rng(0)
        if server:
            agent = QLearningServerPolicy(3, params)
            state = ServerState(2, 0)
            agent.select(0, state, rng)
            learn = lambda reward: agent.learn(state, 1, reward, state)   # noqa: E731
        else:
            agent = QLearningCameraPolicy(enumerate_actions(3, 2, 3), params)
            mask = agent.select(rng)
            learn = lambda reward: agent.learn(mask, reward)   # noqa: E731
        decisions = []
        push = agent._detector.push
        agent._detector.push = lambda reward: decisions.append(push(reward)) or decisions[-1]
        alpha, epsilon = params.alpha, params.epsilon
        history = []
        for reward in rewards:
            learn(reward)
            history.append(reward)
            degraded = detect_degradation(history, window, drop)
            alpha, epsilon = min_max_adapt_params(alpha, epsilon, params, degraded)
            assert decisions[-1] == degraded
            assert (agent.alpha, agent.epsilon) == (alpha, epsilon)
        assert_detector_holds(agent._detector, drop, history)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.booleans(), st.booleans())
    def test_agent_matches_q_update_reference_loop(self, data, server, adaptive):
        # Each agent's select and learn against epsilon_greedy, q_update,
        # detect_degradation and min_max_adapt_params on a separate QTable:
        # the table (repr keeps -0.0 apart from 0.0), its greedy actions,
        # alpha, epsilon and the detector's state after every learn (a fixed
        # agent has no detector), the selections
        # before it, and each of the agent's rows: greedy action and bound.
        # Rewards near +-1e308 make new values overflow, which both reject.
        # Tables may start from a snapshot; a camera may have 4083 actions.
        window = data.draw(st.integers(1, 6))
        params = AgentParams(alpha=data.draw(st.sampled_from([0.05, 0.5, 1.0])),
                             gamma=data.draw(st.sampled_from([0.0, 0.1, 0.9])),
                             epsilon=data.draw(st.sampled_from([0.0, 0.3, 1.0])),
                             adaptive=adaptive, degradation_window=window,
                             degradation_drop=data.draw(st.sampled_from([0.0, 0.1, 0.5])))
        rewards = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, -0.5]),
                            st.floats(-2.0, 2.0), st.sampled_from([math.inf, math.nan]),
                            st.sampled_from([1e308, -1e308, 1.7e308, -1.7e308, 8.9e307]))
        # None learns the action select just returned, as the engine does.
        if server:
            agent = QLearningServerPolicy(3, params)
            states = st.builds(ServerState, st.integers(0, 2), st.integers(0, 2))
            moves = st.tuples(states, states, st.none() | st.integers(0, 2), states, rewards)
            keys = [ServerState(k, p).key() for k in range(3) for p in range(3)]
        else:
            space = enumerate_actions(*data.draw(st.sampled_from([(3, 1, 3), (12, 2, 12)])))
            agent = QLearningCameraPolicy(space, params)
            moves = st.tuples(st.just(None), st.just(None),
                              st.none() | st.integers(0, len(space) - 1), st.just(None), rewards)
            keys = [agent.STATE]
        n = agent.table.n_actions
        cells = np.random.default_rng(data.draw(st.integers(0, 9))).choice(
            [0.0, -0.0, 0.5, 1.0, -1.0], size=(len(keys), n)).tolist()
        loaded = {key: row for key, row in zip(keys, cells) if data.draw(st.booleans())}
        table = QTable.from_dict({"n_actions": n, "rows": loaded})
        agent.table = QTable.from_dict({"n_actions": n, "rows": loaded})
        agent._blank = agent.table._blank
        agent_rng, rng = np.random.default_rng(5), np.random.default_rng(5)

        def reference_select(key):
            # epsilon_greedy, whose greedy branch also materializes the row,
            # which then shows in the snapshot.
            if epsilon > 0 and rng.random() < epsilon:
                return int(rng.integers(table.n_actions))
            return epsilon_greedy(table.row(key), 0.0, rng)

        alpha, epsilon = params.alpha, params.epsilon
        history = []
        for seen, state, action, next_state, reward in data.draw(st.lists(moves, max_size=40)):
            if server:
                key, next_key = state.key(), next_state.key()
                chosen = agent.select(0, seen, agent_rng)
                assert chosen == reference_select(seen.key())
                action = chosen if action is None else action
                learn = lambda: agent.learn(state, action, reward, next_state)   # noqa: E731
            else:
                key = next_key = agent.STATE
                chosen = agent.select(agent_rng)
                assert chosen == space.actions[reference_select(key)]
                action = space.index[chosen] if action is None else action
                learn = lambda: agent.learn(space.actions[action], reward)   # noqa: E731
            try:
                q_update(table, key, action, reward, next_key, alpha, params.gamma)
            except ValueError as exc:
                assert "finite" in str(exc)
                with pytest.raises(ValueError, match="finite"):
                    learn()
            else:
                learn()
                history.append(reward)
                if adaptive:
                    alpha, epsilon = min_max_adapt_params(
                        alpha, epsilon, params,
                        detect_degradation(history, window, params.degradation_drop))
            assert repr(agent.table.to_dict()) == repr(table.to_dict())
            greedy = {row: int(values.argmax()) for row, values in table.rows.items()}
            assert {row: agent.table.greedy(row) for row in greedy} == greedy
            for row in agent.table._rows.values():
                assert_row_invariant(row)
            assert (agent.alpha, agent.epsilon) == (alpha, epsilon)
            if adaptive:
                assert_detector_holds(agent._detector, params.degradation_drop, history)
            else:
                assert agent._detector is None

    @pytest.mark.parametrize("server", [False, True])
    def test_ties_move_the_greedy_action_as_argmax(self, server):
        # Alpha 1 and gamma 0 store each reward exactly, so values tie.
        params = AgentParams(alpha=1.0, gamma=0.0, epsilon=0.0)
        rng = np.random.default_rng(0)
        if server:
            agent = QLearningServerPolicy(3, params)
            state = ServerState(2, 0)
            agent.select(0, state, rng)
            learn = lambda action, reward: agent.learn(state, action, reward, state)   # noqa: E731
            key = state.key()
        else:
            space = enumerate_actions(3, 2, 3)
            agent = QLearningCameraPolicy(space, params)
            agent.select(rng)
            learn = lambda action, reward: agent.learn(space.actions[action], reward)   # noqa: E731
            key = agent.STATE
        steps = [(1, 0.5, 1),   # above the rest
                 (0, 0.5, 0),   # ties the greedy value at a lower index: takes the slot
                 (2, 1.0, 2),   # above the rest; the bound becomes 0.5
                 (2, 0.5, 0)]   # falls onto the bound: the rescan finds the first 0.5
        for action, reward, greedy in steps:
            learn(action, reward)
            assert agent.table.greedy(key) == greedy == int(agent.table.row(key).argmax())
            assert_row_invariant(agent.table._rows[key])

    @pytest.mark.parametrize("server", [False, True])
    def test_overflowing_learn_changes_nothing(self, server):
        # 1.7e308 + 0.9 * 1.7e308 overflows. The learn that would store inf
        # raises and leaves the table, alpha, epsilon and the detector as they
        # were; so does a first write to a row, which stays unmaterialized.
        params = AgentParams(alpha=1.0, gamma=0.9, epsilon=1.0, adaptive=True,
                             degradation_window=1)
        rng = np.random.default_rng(0)
        if server:
            agent = QLearningServerPolicy(2, params)
            here, fresh = ServerState(1, 0), ServerState(2, 0)
            agent.select(0, here, rng)
            learn = lambda state, reward: agent.learn(state, 1, reward, here)   # noqa: E731
        else:
            space = enumerate_actions(3, 2, 3)
            agent = QLearningCameraPolicy(space, params)
            agent.select(rng)
            here = fresh = None
            learn = lambda state, reward: agent.learn(space.actions[1], reward)   # noqa: E731
        if not server:
            with pytest.raises(ValueError, match="finite"):
                learn(fresh, math.inf)
            assert agent.table.rows == {}
        learn(here, 1.7e308)
        before = learner_state(agent)
        for state in (here, fresh):
            with pytest.raises(ValueError, match="finite"):
                learn(state, 1.7e308)
            assert learner_state(agent) == before

    def test_fixed_agent_has_no_detector_and_fixed_rates(self):
        # Rewards that degrade under window 2 leave a fixed agent's rates alone.
        space = enumerate_actions(3, 2, 3)
        agent = QLearningCameraPolicy(space, AgentParams(degradation_window=2))
        assert agent._detector is None
        mask = agent.select(np.random.default_rng(0))
        for reward in (0.9, 0.9, 0.1, 0.1, 0.0):
            agent.learn(mask, reward)
            assert (agent.alpha, agent.epsilon) == (AgentParams.alpha, AgentParams.epsilon)
        assert agent._detector is None

    def test_fuzzed_adaptation_never_leaves_clamps(self):
        params = AgentParams(alpha=0.5, epsilon=0.5, adaptive=True)
        rng = np.random.default_rng(42)
        _, learn = forced_agent(params)
        for _ in range(10_000):
            alpha, epsilon = learn(bool(rng.random() < 0.3))
            assert params.eps_min <= epsilon <= params.eps_max
            assert params.alpha_min <= alpha <= params.alpha_max


class TestUpdatePerAgentType:
    """Each Q agent class runs its own copy of the one ``_QLearner._update``.

    CPython 3.11+ specializes attribute access in a code object for one type
    of ``self`` at a time, so the two agents, which learn alternately in
    every frame, must not share a code object.
    """

    def test_each_class_has_its_own_code_object(self):
        shared = _QLearner._update.__code__
        copies = [cls._update.__code__ for cls in (QLearningCameraPolicy, QLearningServerPolicy)]
        assert copies[0] is not copies[1]
        for code in copies:
            assert code is not shared
            assert (code.co_code, code.co_consts) == (shared.co_code, shared.co_consts)

    def test_source_defines_the_update_once(self):
        source = Path(policies.__file__).read_text()
        assert len(re.findall(r"^\s*def _update\(", source, re.MULTILINE)) == 1


class TestCameraQLearning:
    def test_greedy_sticks_to_learned_action(self):
        space = enumerate_actions(3, 2, 3)
        agent = QLearningCameraPolicy(space, AgentParams(epsilon=0.0))
        q_update(agent.table, agent.STATE, 2, 0.5, "other", alpha=1.0, gamma=0.0)
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert agent.select(rng) == space.actions[2]

    def test_learn_before_select_rejected(self):
        space = enumerate_actions(3, 2, 3)
        agent = QLearningCameraPolicy(space, AgentParams())
        with pytest.raises(RuntimeError):
            agent.learn(space.actions[0], 0.5)

    def test_constant_reward_fixed_point(self):
        # Repeated updates of one action converge to r / (1 - gamma).
        space = enumerate_actions(3, 2, 3)
        agent = QLearningCameraPolicy(space, AgentParams(alpha=0.9, gamma=0.1, epsilon=0.0))
        rng = np.random.default_rng(0)
        for _ in range(200):
            mask = agent.select(rng)
            agent.learn(mask, 1.0)
        assert agent.table.max_value(agent.STATE) == pytest.approx(1.0 / 0.9, abs=1e-3)

    def test_prefers_higher_reward_action(self):
        # Band from a 20-seed pilot: share of the 0.9-reward action was
        # 0.906..0.954; frozen assertion is the conservative > 70%.
        for seed in (0, 1, 2):
            space = enumerate_actions(2, 1, 1)
            agent = QLearningCameraPolicy(space, AgentParams(alpha=0.9, gamma=0.1, epsilon=0.1))
            rng = np.random.default_rng(seed)
            hits = 0
            for _ in range(2000):
                mask = agent.select(rng)
                agent.learn(mask, 0.9 if mask == 0b10 else 0.1)
                hits += mask == 0b10
            assert hits / 2000 > 0.70

    def test_falling_greedy_value_above_runner_up_needs_no_rescan(self, monkeypatch):
        space = enumerate_actions(12, 2, 12)
        assert len(space) == 4083
        agent = QLearningCameraPolicy(space, AgentParams(alpha=0.5, gamma=0.0, epsilon=0.0))
        rng = np.random.default_rng(0)
        assert agent.select(rng) == space.actions[0]   # materializes the row
        rescans = []
        rescan = _QRow.rescan
        monkeypatch.setattr(_QRow, "rescan", lambda row: rescans.append(row.greedy) or rescan(row))
        agent.learn(space.actions[0], 1.0)   # 0.5, above the runner-up 0.0
        agent.learn(space.actions[7], 0.2)   # 0.1 raises the bound
        for _ in range(40):                  # falls towards 0.15, stays above 0.1
            agent.learn(space.actions[0], 0.15)
            assert agent.select(rng) == space.actions[0]
        assert rescans == []
        agent.learn(space.actions[0], -1.0)   # falls below 0.1: one rescan
        assert rescans == [0]
        assert agent.select(rng) == space.actions[7]
        assert agent._row.bound == 0.0   # the exact runner-up: the untouched actions

    def test_zero_initialized_before_any_learn(self):
        space = enumerate_actions(5, 2, 5)
        agent = QLearningCameraPolicy(space, AgentParams())
        assert agent.table.rows == {} or not agent.table.row(agent.STATE).any()
        for action in range(len(space)):
            assert agent.table.value(agent.STATE, action) == 0.0

    def test_deterministic_sequence_for_fixed_seed(self):
        def run():
            space = enumerate_actions(4, 2, 4)
            agent = QLearningCameraPolicy(space, AgentParams(epsilon=0.3))
            rng = np.random.default_rng(123)
            out = []
            for i in range(100):
                mask = agent.select(rng)
                agent.learn(mask, (i % 7) / 7.0)
                out.append(mask)
            return out

        assert run() == run()


class TestServerQLearning:
    def test_cold_start_picks_server_zero(self):
        agent = QLearningServerPolicy(4, AgentParams(epsilon=0.0))
        assert agent.select(0, ServerState(3, 1), np.random.default_rng(0)) == 0

    def test_state_keys_distinct(self):
        assert ServerState(3, 1).key() != ServerState(4, 1).key()
        assert ServerState(3, 1).key() != ServerState(3, 2).key()
        agent = QLearningServerPolicy(2, AgentParams(epsilon=0.0))
        agent.select(0, ServerState(3, 1), np.random.default_rng(0))
        agent.learn(ServerState(3, 1), 1, 0.8, ServerState(3, 1))
        assert agent.table.value(ServerState(3, 1).key(), 1) > 0
        assert agent.table.value(ServerState(4, 1).key(), 1) == 0.0

    def test_avoids_budget_breaking_server(self):
        # Spiked server 2 (not the zero-init tie-break target); clean servers
        # keep ~0.23 reward, the spiked one 0. Pilot over 20 seeds put its
        # share at 1-3%; frozen band is the conservative < 15%.
        for seed in (0, 1, 2, 3, 4):
            agent = QLearningServerPolicy(
                4, AgentParams(alpha=0.3, gamma=0.95, epsilon=0.2, adaptive=True))
            rng = np.random.default_rng(seed)
            state = ServerState(3, 0)
            count = 0
            for t in range(4000):
                s = agent.select(t, state, rng)
                count += (s == 2)
                total = 2.3 + (0.8 if s == 2 else 0.0)
                reward = max(0.0, 1.0 - total / 3.0)
                nxt = ServerState(3, s)
                agent.learn(state, s, reward, nxt)
                state = nxt
            assert count / 4000 < 0.15

    @pytest.mark.parametrize("action", [-1, 3])
    def test_action_out_of_range_rejected(self, action):
        # -1 would write server 2's value and cache greedy action -1.
        agent = QLearningServerPolicy(3, AgentParams(epsilon=0.0, adaptive=True))
        state = ServerState(2, 0)
        with pytest.raises(IndexError):   # the range check comes before the select check
            agent.learn(state, action, 1.0, state)
        rng = np.random.default_rng(0)
        agent.select(0, state, rng)
        agent.learn(state, 1, 0.5, state)
        before = learner_state(agent)
        for here in (state, ServerState(1, 0)):
            with pytest.raises(IndexError):
                agent.learn(here, action, 1.0, state)
            assert learner_state(agent) == before
        assert agent.select(0, state, rng) == 1
        assert_row_invariant(agent.table._rows[state.key()])


class TestRandomPolicy:
    def test_single_action_space(self):
        space = enumerate_actions(5, 5, 5)
        policy = RandomCameraPolicy(space)
        assert policy.select(np.random.default_rng(0)) == 0b11111

    def test_uniform_over_space(self):
        space = enumerate_actions(5, 2, 5)
        policy = RandomCameraPolicy(space)
        rng = np.random.default_rng(1)
        counts = np.zeros(len(space))
        for _ in range(10_000):
            counts[space.index[policy.select(rng)]] += 1
        expected = 10_000 / len(space)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < CHI2_DF25_999

    def test_never_violates_subset_bounds(self):
        space = enumerate_actions(5, 2, 4)
        policy = RandomCameraPolicy(space)
        rng = np.random.default_rng(2)
        for _ in range(500):
            assert 2 <= policy.select(rng).bit_count() <= 4


class TestGreedyTriplet:
    def test_cold_start_covers_every_triple(self):
        policy = GreedyTripletCameraPolicy(5)
        seen = [policy.select() for _ in range(10)]
        assert len(set(seen)) == 10   # C(5,3) distinct masks in the first 10 frames
        assert all(m.bit_count() == 3 for m in seen)

    def test_single_triple_space(self):
        policy = GreedyTripletCameraPolicy(3)
        for _ in range(5):
            assert policy.select() == 0b111

    def test_argmax_of_injected_means(self):
        policy = GreedyTripletCameraPolicy(5)
        for _ in range(10):
            policy.select()
        target = policy.masks[4]
        for mask in policy.masks:
            policy.learn(mask, quality=700.0 if mask == target else 550.0)
        assert policy.select() == target

    def test_running_mean(self):
        policy = GreedyTripletCameraPolicy(5)
        mask = policy.masks[0]
        policy.learn(mask, quality=600.0)
        policy.learn(mask, quality=400.0)
        assert policy.mean_quality[0] == pytest.approx(500.0)

    @given(st.data())
    def test_cached_choice_matches_argmax(self, data):
        # Ties between arms, arms whose mean falls, and learns during the cold start.
        policy = GreedyTripletCameraPolicy(data.draw(st.integers(3, 6)))
        arms = len(policy.masks)
        qualities = st.one_of(st.sampled_from([0.0, 250.0, 500.0, 600.0]), st.floats(0, 700))
        learns = st.lists(st.tuples(st.integers(0, arms - 1), qualities), max_size=40)
        for arm, quality in data.draw(learns):
            policy.learn(policy.masks[arm], quality=quality)
            assert_row_invariant(policy._means)
        for _ in range(arms):
            policy.select()   # finish the cold-start sweep
        assert policy.select() == policy.masks[int(policy.mean_quality.argmax())]
        for arm, quality in data.draw(learns):
            policy.learn(policy.masks[arm], quality=quality)
            assert_row_invariant(policy._means)
            assert policy.select() == policy.masks[int(policy.mean_quality.argmax())]

    def test_falling_best_mean_above_runner_up_needs_no_rescan(self, monkeypatch):
        policy = GreedyTripletCameraPolicy(6)
        for _ in range(len(policy.masks)):
            policy.select()   # finish the cold-start sweep
        rescans = []
        rescan = _QRow.rescan
        monkeypatch.setattr(_QRow, "rescan", lambda row: rescans.append(row.greedy) or rescan(row))
        best, runner_up = policy.masks[3], policy.masks[11]
        policy.learn(best, quality=700.0)
        policy.learn(runner_up, quality=500.0)   # raises the bound
        for _ in range(40):                      # the mean falls towards 550, above 500
            policy.learn(best, quality=550.0)
            assert policy.select() == best
        assert rescans == []
        policy.learn(best, quality=-30000.0)   # the mean falls below 500: one rescan
        assert rescans == [3]
        assert policy.select() == runner_up
        assert policy._means.bound == 0.0   # the exact runner-up: the arms never learned

    def test_ties_move_the_best_arm_as_argmax(self):
        policy = GreedyTripletCameraPolicy(4)
        for _ in range(len(policy.masks)):
            policy.select()   # finish the cold-start sweep
        steps = [(1, 500.0, 1),    # above the rest
                 (0, 500.0, 0),    # ties the best mean at a lower arm: takes the slot
                 (2, 1000.0, 2),   # above the rest; the bound becomes 500
                 (2, 0.0, 0)]      # the mean falls onto the bound: the rescan finds the first 500
        for arm, quality, best in steps:
            policy.learn(policy.masks[arm], quality=quality)
            assert policy.select() == policy.masks[best]
            assert best == int(policy.mean_quality.argmax())
            assert_row_invariant(policy._means)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 1e308])
    def test_non_finite_quality_rejected(self, bad):
        policy = GreedyTripletCameraPolicy(4)
        policy.learn(policy.masks[1], quality=500.0)
        policy.learn(policy.masks[2], quality=-1e308)
        with pytest.raises(ValueError, match="finite"):
            policy.learn(policy.masks[2], quality=bad)   # 1e308 overflows the mean
        assert policy.counts == [0, 1, 1, 0]
        assert policy.mean_quality.tolist() == [0.0, 500.0, -1e308, 0.0]
        for _ in range(4):
            policy.select()
        assert policy.select() == policy.masks[1]

    def test_mean_quality_is_read_only(self):
        policy = GreedyTripletCameraPolicy(4)
        with pytest.raises(ValueError, match="read-only"):
            policy.mean_quality[0] = 700.0
        policy.learn(policy.masks[3], quality=600.0)
        assert policy.mean_quality.tolist() == [0.0, 0.0, 0.0, 600.0]

    def test_needs_three_cameras(self):
        with pytest.raises(ConfigError):
            GreedyTripletCameraPolicy(2)


class TestBandit:
    def test_greedy_on_means(self):
        space = enumerate_actions(2, 1, 1)
        policy = BanditCameraPolicy(space, epsilon=0.0)
        policy.learn(space.actions[1], 0.1)
        policy.learn(space.actions[0], 0.9)
        assert policy.mean_reward.tolist() == [0.9, 0.1]
        assert policy.select(np.random.default_rng(0)) == space.actions[0]

    @given(st.data())
    def test_cached_choice_matches_argmax(self, data):
        # Ties between arms (equal means) and arms whose mean falls.
        space = enumerate_actions(data.draw(st.integers(2, 4)), 1, 2)
        policy = BanditCameraPolicy(space, epsilon=0.0)
        rewards = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(-1, 2))
        learns = st.lists(st.tuples(st.integers(0, len(space) - 1), rewards), max_size=40)
        rng = np.random.default_rng(0)
        for arm, reward in data.draw(learns):
            policy.learn(space.actions[arm], reward)
            assert_row_invariant(policy._means)
            assert policy.select(rng) == space.actions[int(policy.mean_reward.argmax())]

    def test_falling_best_mean_above_runner_up_needs_no_rescan(self, monkeypatch):
        space = enumerate_actions(12, 2, 12)
        policy = BanditCameraPolicy(space, epsilon=0.0)
        rng = np.random.default_rng(0)
        rescans = []
        rescan = _QRow.rescan
        monkeypatch.setattr(_QRow, "rescan", lambda row: rescans.append(row.greedy) or rescan(row))
        policy.learn(space.actions[5], 1.0)
        policy.learn(space.actions[9], 0.2)   # raises the bound
        for _ in range(40):                   # the mean falls towards 0.3, above 0.2
            policy.learn(space.actions[5], 0.3)
            assert policy.select(rng) == space.actions[5]
        assert rescans == []
        policy.learn(space.actions[5], -50.0)   # the mean falls below 0.2: one rescan
        assert rescans == [5]
        assert policy.select(rng) == space.actions[9]
        assert policy._means.bound == 0.0   # the exact runner-up: the arms never learned

    def test_ties_move_the_best_arm_as_argmax(self):
        space = enumerate_actions(2, 1, 2)
        policy = BanditCameraPolicy(space, epsilon=0.0)
        rng = np.random.default_rng(0)
        steps = [(1, 0.5, 1),   # above the rest
                 (0, 0.5, 0),   # ties the best mean at a lower arm: takes the slot
                 (2, 1.0, 2),   # above the rest; the bound becomes 0.5
                 (2, 0.0, 0)]   # the mean falls onto the bound: the rescan finds the first 0.5
        for arm, reward, best in steps:
            policy.learn(space.actions[arm], reward)
            assert policy.select(rng) == space.actions[best]
            assert best == int(policy.mean_reward.argmax())
            assert_row_invariant(policy._means)

    @settings(max_examples=50)
    @given(st.floats(0, 1), st.integers(0, 2 ** 16))
    def test_select_draws_as_epsilon_greedy(self, epsilon, seed):
        # Same choices and the same RNG calls: both generators stay in step.
        space = enumerate_actions(4, 1, 3)
        policy = BanditCameraPolicy(space, epsilon=epsilon)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for step in range(30):
            policy.learn(space.actions[step * 7 % len(space)], step % 5 / 4)
            idx = epsilon_greedy(policy.mean_reward, epsilon, theirs)
            assert policy.select(ours) == space.actions[idx]
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 1e308])
    def test_non_finite_reward_rejected(self, bad):
        space = enumerate_actions(2, 1, 2)
        policy = BanditCameraPolicy(space, epsilon=0.0)
        policy.learn(space.actions[1], 0.5)
        policy.learn(space.actions[2], -1e308)
        with pytest.raises(ValueError, match="finite"):
            policy.learn(space.actions[2], bad)   # 1e308 overflows the mean
        assert policy.counts == [0, 1, 1]
        assert policy.mean_reward.tolist() == [0.0, 0.5, -1e308]
        assert policy.select(np.random.default_rng(0)) == space.actions[1]

    def test_mean_reward_is_read_only(self):
        space = enumerate_actions(2, 1, 1)
        policy = BanditCameraPolicy(space)
        with pytest.raises(ValueError, match="read-only"):
            policy.mean_reward[0] = 0.9
        policy.learn(space.actions[1], 0.75)
        assert policy.mean_reward.tolist() == [0.0, 0.75]

    def test_running_mean(self):
        space = enumerate_actions(2, 1, 1)
        policy = BanditCameraPolicy(space)
        policy.learn(space.actions[0], 1.0)
        policy.learn(space.actions[0], 0.0)
        assert policy.mean_reward[0] == pytest.approx(0.5)

    def test_low_regret_on_stationary_rewards(self):
        # Pilot over 20 seeds: per-step regret 0.026..0.058; frozen band < 0.1.
        space = enumerate_actions(5, 2, 5)
        arm_rewards = np.random.default_rng(999).uniform(0.2, 0.9, len(space))
        best = float(arm_rewards.max())
        for seed in (0, 1, 2):
            policy = BanditCameraPolicy(space, epsilon=0.1)
            rng = np.random.default_rng(seed)
            total = 0.0
            for _ in range(2000):
                mask = policy.select(rng)
                r = float(arm_rewards[space.index[mask]])
                policy.learn(mask, r)
                total += r
            assert best - total / 2000 < 0.1


class TestRoundRobin:
    def test_starts_at_zero(self):
        assert RoundRobinServerPolicy(4).select(0) == 0

    def test_cycles_in_order(self):
        policy = RoundRobinServerPolicy(4)
        assert [policy.select(f) for f in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_exact_shares_over_4000_frames(self):
        policy = RoundRobinServerPolicy(4)
        counts = np.zeros(4, dtype=int)
        for f in range(4000):
            counts[policy.select(f)] += 1
        assert list(counts) == [1000, 1000, 1000, 1000]


def seeded_latency_greedy(beta, estimates):
    """A latency_greedy policy whose estimates were set through ``learn``."""
    policy = LatencyGreedyServerPolicy(len(estimates), beta=1.0)
    for server, estimate in enumerate(estimates):
        policy.learn(None, server, 0.0, None, total_latency_s=estimate)   # beta 1: exact
    policy.beta = beta
    return policy


class TestLatencyGreedy:
    def test_all_equal_estimates_pick_zero(self):
        policy = LatencyGreedyServerPolicy(4)
        assert policy.select(0) == 0

    def test_ewma_update(self):
        policy = seeded_latency_greedy(0.5, [0.200, 0.0])
        assert policy.estimates.tolist() == [0.200, 0.0]
        policy.learn(None, 0, 0.0, None, total_latency_s=0.400)
        assert policy.estimates[0] == pytest.approx(0.300)

    def test_spike_avoidance_matches_crossing_time(self):
        # EWMA crossing oracle: sitting on server 0 at steady latency L0 with a
        # stale estimate e1 for server 1, a spike to Ls is abandoned after
        # ceil(log((Ls - L0) / (Ls - e1)) / log(1 / (1 - beta))) frames.
        beta = 0.3
        L0, e1, Ls = 2.0, 2.5, 6.0
        expected = math.ceil(math.log((Ls - L0) / (Ls - e1)) / math.log(1.0 / (1.0 - beta)))
        policy = seeded_latency_greedy(beta, [L0, e1])
        assert policy.estimates.tolist() == [L0, e1]
        frames = 0
        while policy.select(frames) == 0:
            policy.learn(None, 0, 0.0, None, total_latency_s=Ls)
            frames += 1
            assert frames < 100
        assert frames == expected

    @given(st.data())
    def test_cached_choice_matches_argmin(self, data):
        # Ties between servers (equal estimates) and estimates that rise.
        n_servers = data.draw(st.integers(1, 5))
        policy = LatencyGreedyServerPolicy(n_servers, beta=data.draw(st.sampled_from([0.3, 0.5, 1.0])))
        latencies = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0]), st.floats(0, 10))
        learns = st.lists(st.tuples(st.integers(0, n_servers - 1), latencies), max_size=40)
        ewma = [0.0] * n_servers   # the plain EWMA, updated as the policy's is
        assert policy.estimates.tobytes() == array("d", ewma).tobytes()
        for server, latency in data.draw(learns):
            policy.learn(None, server, 0.0, None, total_latency_s=latency)
            ewma[server] = policy.beta * latency + (1.0 - policy.beta) * ewma[server]
            assert policy.estimates.tobytes() == array("d", ewma).tobytes()   # zeros' signs too
            assert policy.select(0) == int(policy.estimates.argmin())
            assert_row_invariant(policy._negated)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_latency_rejected(self, bad):
        policy = seeded_latency_greedy(0.5, [1.0, 2.0, 0.5])
        with pytest.raises(ValueError, match="finite"):
            policy.learn(None, 2, 0.0, None, total_latency_s=bad)
        assert policy.estimates.tolist() == [1.0, 2.0, 0.5]
        assert policy.select(0) == 2

    def test_estimates_are_read_only(self):
        policy = LatencyGreedyServerPolicy(2)
        with pytest.raises(ValueError, match="read-only"):
            policy.estimates[0] = 0.5
        policy.learn(None, 1, 0.0, None, total_latency_s=1.0)
        assert policy.estimates.tolist() == [0.0, 0.3]
        assert policy.select(0) == 0

    @pytest.mark.parametrize("action", [-1, 3])
    def test_action_out_of_range_rejected(self, action):
        # -1 would fold the latency into server 2 and make select return -1.
        policy = seeded_latency_greedy(0.5, [1.0, 2.0, 0.5])
        for latency in (0.0, None):
            with pytest.raises(IndexError):
                policy.learn(None, action, 0.0, None, total_latency_s=latency)
        assert policy.estimates.tolist() == [1.0, 2.0, 0.5]
        assert policy.select(0) == 2

    def test_beta_validated(self):
        with pytest.raises(ConfigError):
            LatencyGreedyServerPolicy(2, beta=0.0)
