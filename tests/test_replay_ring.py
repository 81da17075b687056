"""ReplayBuffer against a ring of one state row per push.

The ring shares one float32 row among a run of pushes of one state object,
and hands rows out in push order around a ring of its own. Sampling must
still return, bit for bit, what a ring that writes every push's state into
the entry's own row returns: on any push sequence, before and after both
rings wrap, and with sample calls between the pushes.
"""

import random

import numpy as np
import pytest

from sfcsim.dqn import AgentDraws, ReplayBuffer


class OneRowPerPush:
    """The reference: entry i's state is row i, written by every push."""

    def __init__(self, capacity, width):
        self.capacity = capacity
        self.states = np.empty((capacity, width), dtype=np.float32)
        self.actions = np.empty(capacity, dtype=np.int64)
        self.rewards = np.empty(capacity)
        self.size = 0
        self._next = 0

    def push(self, state, action, reward):
        i = self._next
        self.states[i] = state
        self.actions[i] = action
        self.rewards[i] = reward
        self._next = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch, rng):
        idx = rng.integers(0, self.size, size=batch)
        return self.states[idx], self.actions[idx], self.rewards[idx]


class CountedRows(np.ndarray):
    """A state array that counts the row writes made into it."""

    writes = 0

    def __setitem__(self, key, value):
        CountedRows.writes += 1
        super().__setitem__(key, value)


def counted(buf):
    CountedRows.writes = 0
    buf.states = buf.states.view(CountedRows)
    return buf


def a_state(draw, width):
    """A new state: float64, as encode hands it out, or float32, as the
    policy holds it; with values float32 rounds and both signed zeros."""
    values = np.array([draw.choice((0.0, -0.0, 1.0, 1 / 3, draw.uniform(-2.0, 2.0)))
                       for _ in range(width)])
    return values.astype(np.float32) if draw.random() < 0.5 else values


def push_sequence(seed, width, n_pushes):
    """Seeded pushes: runs of one object, fresh objects, copies equal to
    the last state, and re-pushes of an older kept state."""
    draw = random.Random(seed)
    kept = [a_state(draw, width) for _ in range(3)]
    last = kept[0]
    for _ in range(n_pushes):
        roll = draw.random()
        if roll < 0.45:
            state = last
        elif roll < 0.65:
            state = a_state(draw, width)
        elif roll < 0.8:
            state = last.copy()  # equal content, another object
        elif roll < 0.9:
            state = -last  # each zero's sign flipped: equal as numbers
        else:
            state = draw.choice(kept)
        last = state
        yield state, draw.randrange(1000), draw.uniform(-10.0, 10.0)


def same(got, want):
    return all(g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
               for g, w in zip(got, want))


@pytest.mark.parametrize("width", [1, 2, 3, 4])
@pytest.mark.parametrize("capacity", range(1, 10))
def test_ring_samples_as_one_row_per_push(capacity, width):
    for seed in range(4):
        ring, ref = counted(ReplayBuffer(capacity, width)), OneRowPerPush(capacity, width)
        ring_draws, ref_draws = AgentDraws([seed, 0xD09]), AgentDraws([seed, 0xD09])
        draw = random.Random(f"samples {seed}")
        previous, new_states, n_pushes = None, 0, 12 * capacity + 20  # wraps 12 times or more
        for state, action, reward in push_sequence(seed, width, n_pushes):
            ring.push(state, action, reward)
            ref.push(state, action, reward)
            new_states += state is not previous
            previous = state
            assert ring.size == ref.size
            assert CountedRows.writes == new_states
            if draw.random() < 0.4:
                batch = draw.randint(1, 9)
                assert same(ring.sample(batch, ring_draws), ref.sample(batch, ref_draws))
        # the whole ring, entry by entry
        entries = (ring.states[ring.rows], ring.actions, ring.rewards)
        assert same(entries, (ref.states, ref.actions, ref.rewards))


@pytest.mark.parametrize("capacity", [1, 4, 9])
def test_a_run_of_one_object_writes_one_row(capacity):
    ring = counted(ReplayBuffer(capacity, 3))
    state = np.array([0.5, -0.0, 1 / 3])
    for action in range(3 * capacity):
        ring.push(state, action, -1.0)
    assert CountedRows.writes == 1
    assert set(ring.rows.tolist()) == {0}
    equal = state.copy()  # equal content is not the same state
    ring.push(equal, 0, 0.0)
    assert CountedRows.writes == 2


def test_the_last_state_is_held():
    # the ring keeps the last state alive when its caller drops it, so no new
    # array can take its id and be mistaken for it; CPython hands a freed
    # array's id to the next array made
    ring = ReplayBuffer(16, 2)
    for action in range(16):
        ring.push(np.array([float(action)] * 2), action, 0.0)
    assert ring.states[ring.rows].tolist() == [[float(a)] * 2 for a in range(16)]
