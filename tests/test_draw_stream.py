"""DrawStream against numpy's own Generator: every value, in every order.

DrawStream re-implements numpy internals (PCG64's double and buffered
32-bit draws, and the Lemire bounded-integer loop), so these tests pin it
to whatever numpy is installed.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgerecon import controller, policies
from edgerecon.controller import run_episode
from edgerecon.policies import DrawStream
from test_controller import small_config

# Bounds that reach every branch: no draw (1), the smallest rejection
# thresholds, the engine's action counts (26, 4083), bounds where most
# halves are rejected (3 * 2**30, 2**31 + 1), and the 32-bit edge.
SPECIAL_BOUNDS = (1, 2, 3, 26, 4083, 2 ** 20, 3 * 2 ** 30, 2 ** 31 + 1, 2 ** 32 - 1, 2 ** 32)
bounds = st.one_of(st.sampled_from(SPECIAL_BOUNDS), st.integers(1, 2 ** 32))
# None stands for random(), an int n for integers(n).
calls = st.lists(st.one_of(st.none(), bounds), max_size=300)


def pair(seed, before=()):
    """A DrawStream and a reference Generator, both after the ``before`` calls."""
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in before:
        assert ours.integers(n) == theirs.integers(n)
    return DrawStream(ours), theirs


def replay(stream, generator, sequence):
    for n in sequence:
        if n is None:
            assert stream.random() == generator.random()
        else:
            value = stream.integers(n)
            assert type(value) is int
            assert value == generator.integers(n)


@settings(max_examples=200)
@given(st.integers(0, 2 ** 64), st.lists(st.sampled_from([7, 26, 2 ** 31 + 1]), max_size=3),
       calls, st.sampled_from([1, 2, 3, policies._DRAW_BLOCK]))
def test_matches_generator(seed, before, sequence, block):
    # A block of 1-3 puts refills between the two halves of a raw output.
    stream, generator = pair(seed, before)
    with mock.patch.object(policies, "_DRAW_BLOCK", block):
        replay(stream, generator, sequence)


def test_long_interleavings_cross_blocks():
    rng = random.Random(7)
    for trial in range(20):
        stream, generator = pair(trial)
        sequence = [None if rng.random() < 0.6 else
                    rng.choice(SPECIAL_BOUNDS + (rng.randint(1, 2 ** 32),))
                    for _ in range(rng.randint(1, 3000))]
        replay(stream, generator, sequence)


@pytest.mark.parametrize("block", [1, 2, 3])
def test_small_blocks_split_halves(monkeypatch, block):
    monkeypatch.setattr(policies, "_DRAW_BLOCK", block)
    stream, generator = pair(11)
    replay(stream, generator, [26, None, 26, 26, None, None, 4083, 2 ** 32, 3, None] * 5)


def test_wraps_a_generator_holding_a_buffered_half():
    # integers(26) before the wrap used a low half and buffered the high one.
    stream, reference = pair(5, before=[26])
    assert reference.bit_generator.state["has_uint32"] == 1
    # The first integers() call takes the buffered half, the random() call
    # after it the next raw output.
    replay(stream, reference, [26, None, 26, 26])


def test_integers_of_one_draws_nothing():
    stream, generator = pair(3)
    assert [stream.integers(1) for _ in range(5)] == [0] * 5
    replay(stream, generator, [None, 26])


@pytest.mark.parametrize("n", [0, -1, 2 ** 32 + 1, 2 ** 40])
def test_bound_out_of_range_is_value_error(n):
    stream, generator = pair(0)
    with pytest.raises(ValueError, match="2\\*\\*32"):
        stream.integers(n)
    replay(stream, generator, [None, 26])   # the stream did not move


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64,
                                           np.random.PCG64DXSM])
def test_other_bit_generators_are_type_errors(bit_generator):
    with pytest.raises(TypeError, match="PCG64"):
        DrawStream(np.random.Generator(bit_generator(0)))


@pytest.mark.parametrize("camera_policy, server_policy", [
    ("qlearning", "qlearning"), ("adaptive_q", "adaptive_q"), ("bandit", "latency_greedy"),
    ("random", "round_robin"), ("greedy3", "qlearning"),
])
def test_run_episode_hands_policies_a_draw_stream(monkeypatch, camera_policy, server_policy):
    seen = []

    class Spy:
        def __init__(self, inner):
            self.inner = inner

        def select(self, *args):
            seen.append(type(args[-1]))
            return self.inner.select(*args)

        def __getattr__(self, name):
            return getattr(self.inner, name)

    for side in ("camera", "server"):
        build = getattr(controller, f"build_{side}_policy")
        monkeypatch.setattr(controller, f"build_{side}_policy",
                            lambda *args, build=build: Spy(build(*args)))
    config = small_config(n_frames=20, camera_policy=camera_policy, server_policy=server_policy)
    run_episode(config)
    assert seen == [DrawStream] * 40
