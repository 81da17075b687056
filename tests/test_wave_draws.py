"""WaveDraws against numpy's Generator, draw for draw, and generate_wave
against the Generator-based wave builder it replaced, record for record.

WaveDraws copies Generator's algorithms (PCG64's buffered 32-bit half,
Lemire's bounded integers, 53-bit doubles), so these tests are the oracle
that a numpy release changing any of them would fail.
"""

import random

import numpy as np
import pytest

from sfcsim.config import load_config
from sfcsim.requestgen import RequestGenerator, WaveDraws, _make_record


def numpy_wave(gen: RequestGenerator, wave_index: int) -> list:
    """generate_wave written with one np.random.Generator call per draw."""
    rng = np.random.default_rng([gen.seed, 0x5FC, wave_index])
    records = []
    for name, styp in gen.catalog.sfcs.items():
        lo, hi = gen.bundles[name]
        count = int(rng.integers(lo, hi + 1))
        blo, bhi = styp.bandwidth_range
        for _ in range(count):
            src = int(rng.integers(gen.n_dcs))
            if gen.allow_loopback:
                dest = int(rng.integers(gen.n_dcs))
            else:
                dest = int(rng.integers(gen.n_dcs - 1))
                if dest >= src:
                    dest += 1
            bw = blo if blo == bhi else float(rng.uniform(blo, bhi))
            records.append(_make_record(gen.next_tag, styp, gen.catalog, src, dest, bw))
            gen.next_tag += 1
    return records


# bundles [0, k], lo == hi and an empty type; MIoT keeps its drawn bandwidths
OVERRIDES = {"VoIP": (0, 3), "CG": (2, 2), "AugR": (0, 0), "MIoT": (0, 40)}


class TestWavesMatchTheGeneratorBuilder:
    @pytest.mark.parametrize("overrides", [None, OVERRIDES], ids=["catalog", "overrides"])
    @pytest.mark.parametrize("loopback", [False, True], ids=["distinct", "loopback"])
    @pytest.mark.parametrize("n_dcs", [2, 3, 5, 12])
    @pytest.mark.parametrize("scenario", ["paper5dc", "paper3dc", "tiny"])
    def test_records_are_identical(self, scenario, n_dcs, loopback, overrides):
        catalog = load_config(scenario).build_catalog()
        for seed in (0, 1001):
            new, ref = (RequestGenerator(catalog, n_dcs, seed, bundle_overrides=overrides,
                                         allow_loopback=loopback) for _ in range(2))
            for wave in range(4):
                assert new.generate_wave(wave) == numpy_wave(ref, wave), (seed, wave)


def mixed_calls(seed: int, count: int) -> list[tuple]:
    """A seeded stream of draw calls mixing 64-bit and 32-bit draws, single-value
    ranges, and integers(4e9), which rejects about 7 % of its 32-bit draws."""
    pick = random.Random(seed)
    calls = []
    for _ in range(count):
        kind = pick.randrange(5)
        if kind == 0:
            calls.append(("random",))
        elif kind == 1:
            calls.append(("uniform", pick.uniform(-5.0, 5.0), pick.uniform(5.0, 80.0)))
        elif kind == 2:
            calls.append(("integers", pick.choice([1, 61, 4_000_000_000])))
        else:
            lo = pick.randrange(-3, 60)
            calls.append(("integers", lo, lo + pick.randrange(0, 200) + 1))
    return calls


class TestDrawsMatchTheGenerator:
    @pytest.mark.parametrize("block", [1, 2, 7, 256])
    def test_mixed_stream(self, block):
        # blocks of 1, 2 and 7 outputs put refills, and a buffered half kept
        # across a refill, at every position of the stream
        calls = mixed_calls(block, 3000)
        ref = np.random.default_rng([block, 0x5FC, 3])
        draws = WaveDraws([block, 0x5FC, 3], block)
        for i, (name, *args) in enumerate(calls):
            want = getattr(ref, name)(*args)
            got = getattr(draws, name)(*args)
            if name == "integers":
                assert type(got) is int and got == int(want), (i, name, args)
            else:
                assert type(got) is float and got.hex() == float(want).hex(), (i, name, args)
        # both streams stand at the same 64-bit output afterwards
        assert draws.random() == ref.random()

    def test_rejections_are_drawn_again(self):
        # integers(4e9) rejects a 32-bit draw below 2**32 % 4e9: 294,967,296
        ref = np.random.default_rng(5)
        draws = WaveDraws(5, 7)
        assert [draws.integers(4_000_000_000) for _ in range(2000)] == \
               ref.integers(4_000_000_000, size=2000).tolist()

    def test_single_value_range_draws_nothing(self):
        draws = WaveDraws(11, 1)
        assert draws.integers(1) == 0 and draws.integers(9, 10) == 9
        assert draws._pos == 0 and draws._buf == []

    def test_full_32_bit_range(self):
        ref = np.random.default_rng(2)
        draws = WaveDraws(2, 3)
        assert [draws.integers(2**32) for _ in range(9)] == ref.integers(2**32, size=9).tolist()

    @pytest.mark.parametrize("args", [(0,), (5, 5), (5, 4)])
    def test_empty_range_raises_like_numpy(self, args):
        with pytest.raises(ValueError):
            np.random.default_rng(0).integers(*args)
        with pytest.raises(ValueError):
            WaveDraws(0).integers(*args)

    def test_range_wider_than_32_bits_is_refused(self):
        with pytest.raises(ValueError, match="wider than 2"):
            WaveDraws(0).integers(2**32 + 1)
