"""The DQN agent's draw reader against numpy's Generator, draw for draw.

AgentDraws is WaveDraws plus the replay batch's integers(lo, hi, size=k).
The batch path splits raw PCG64 outputs into 32-bit halves in numpy and
falls back to one draw at a time when Lemire's method might reject one, so
these tests mix every call the agent makes, put a buffered half before
batches, and use ranges close to 2**32, where the fallback runs.
"""

import random

import numpy as np
import pytest

from sfcsim.config import DEFAULTS
from sfcsim.dqn import AgentDraws, DqnAgent, ReplayBuffer


def agent_calls(seed: int, count: int) -> list[tuple]:
    """A seeded stream of the agent's kinds of call: random(), integers(n)
    and batches integers(0, hi, size=k), with runs of 32-bit draws of both
    parities before a batch and ranges that reject often."""
    pick = random.Random(seed)
    calls = []
    for _ in range(count):
        kind = pick.randrange(6)
        if kind <= 1:
            calls.append(("random", (), {}))
        elif kind <= 3:
            calls.append(("integers", (pick.choice([1, 2, 7, 61, 4_000_000_000]),), {}))
        elif kind == 4:
            hi = pick.choice([1, 2, 9, 5_000, 100_000, 3_000_000_000, 2**32 - 3, 2**32])
            calls.append(("integers", (0, hi), {"size": pick.choice([1, 2, 3, 63, 64])}))
        else:
            lo = pick.randrange(-3, 60)
            calls.append(("integers", (lo, lo + pick.randrange(1, 400)),
                          {"size": pick.randrange(0, 80)}))
    return calls


def assert_same_stream(draws, ref, calls):
    for i, (name, args, kwargs) in enumerate(calls):
        want = getattr(ref, name)(*args, **kwargs)
        got = getattr(draws, name)(*args, **kwargs)
        if "size" in kwargs:
            assert isinstance(got, np.ndarray) and got.dtype == np.int64, (i, args, kwargs)
            assert got.tolist() == want.tolist(), (i, args, kwargs)
        elif name == "integers":
            assert type(got) is int and got == int(want), (i, args)
        else:
            assert type(got) is float and got.hex() == float(want).hex(), i
    # both streams stand at the same 32-bit half and 64-bit output afterwards
    assert draws.integers(2**32) == int(ref.integers(2**32))
    assert draws.random() == ref.random()


class TestAgentDrawsMatchTheGenerator:
    @pytest.mark.parametrize("seed", range(12))
    def test_mixed_stream(self, seed):
        ref = np.random.default_rng([seed, 0xD09])
        assert_same_stream(AgentDraws([seed, 0xD09]), ref, agent_calls(seed, 1500))

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
    def test_batches_across_refills(self, block):
        # blocks shorter than a batch put a refill inside nearly every batch
        ref = np.random.default_rng([block, 0xD09])
        assert_same_stream(AgentDraws([block, 0xD09], block), ref, agent_calls(100 + block, 800))

    @pytest.mark.parametrize("halves", [0, 1, 2, 3])
    @pytest.mark.parametrize("size", [1, 2, 63, 64])
    def test_a_buffered_half_leads_the_batch(self, halves, size):
        # an odd count of 32-bit draws leaves the high half of an output
        # buffered; the batch's first value is that half
        ref = np.random.default_rng(7)
        draws = AgentDraws(7)
        for _ in range(halves):
            assert draws.integers(61) == int(ref.integers(61))
        assert (draws._half is not None) == (halves % 2 == 1)
        assert draws.integers(0, 1000, size=size).tolist() == \
               ref.integers(0, 1000, size=size).tolist()
        assert draws.integers(61) == int(ref.integers(61))

    def test_both_batch_paths_run(self, monkeypatch):
        # near 2**32 a batch almost surely holds a product whose low bits fall
        # below the range, so it is drawn one value at a time; a small range
        # takes the split path
        fallbacks = []
        real = AgentDraws._one_at_a_time

        def one_at_a_time(self, lo, hi, size):
            fallbacks.append(hi - lo)
            return real(self, lo, hi, size)

        monkeypatch.setattr(AgentDraws, "_one_at_a_time", one_at_a_time)
        ref = np.random.default_rng(3)
        draws = AgentDraws(3)
        for hi in (2**32 - 1, 64, 2**32, 4_000_000_000):
            assert draws.integers(0, hi, size=64).tolist() == \
                   ref.integers(0, hi, size=64).tolist()
        assert fallbacks == [2**32 - 1, 2**32, 4_000_000_000]

    def test_single_value_range_draws_nothing(self):
        draws = AgentDraws(11, 1)
        assert draws.integers(4, 5, size=3).tolist() == [4, 4, 4]
        assert draws._pos == 0 and draws._buf == []

    @pytest.mark.parametrize("args", [(0, 0), (5, 4)])
    def test_empty_range_raises_like_numpy(self, args):
        with pytest.raises(ValueError):
            np.random.default_rng(0).integers(*args, size=4)
        with pytest.raises(ValueError):
            AgentDraws(0).integers(*args, size=4)


class TestAgentStream:
    def test_agent_draws_from_its_seed(self):
        ref = np.random.default_rng([5, 0xD09])
        hp = {**DEFAULTS["dqn"], "branch_dim": 4, "hidden": (4, 4), "buffer": 8}
        rng = DqnAgent((3, 2, 1), 7, hp, seed=5).rng
        assert isinstance(rng, AgentDraws)
        assert_same_stream(rng, ref, agent_calls(5, 300))

    def test_replay_sample_picks_the_generators_rows(self):
        buf = ReplayBuffer(50, 3)
        for i in range(37):
            buf.push(np.full(3, i), i, float(i))
        ref, draws = np.random.default_rng([9, 0xD09]), AgentDraws([9, 0xD09])
        draws.integers(61), ref.integers(61)  # a buffered half before the batch
        for _ in range(20):
            want, got = buf.sample(16, ref), buf.sample(16, draws)
            assert all(w.tobytes() == g.tobytes() for w, g in zip(want, got))
