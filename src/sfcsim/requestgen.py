"""Seeded generation of SFC request bundles and their live tracking records.

Wave w of a generator seeded with s is a pure function of (s, w): its draws
are bit-identical to those of np.random.default_rng([s, 0x5FC, w]), served
by WaveDraws from raw PCG64 output instead of one Generator call per draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import Catalog, SfcType
from .topology import QUANTUM, PathResult


class RequestError(ValueError):
    pass


@dataclass(slots=True)
class VnfState:
    """State of one VNF in a chain. vnf_dc and func_id are None exactly while
    the VNF is unallocated, so vnf_dc is the allocation flag."""

    vtype: str
    t_req: int
    vnf_dc: int | None = None
    func_id: int | None = None
    proc_start: int | None = None  # step processing began (post-TX), engine internal

    @property
    def allocated(self) -> bool:
        return self.vnf_dc is not None


@dataclass(slots=True)
class TxState:
    path: PathResult
    end_step: int


@dataclass(slots=True)
class SfcRecord:
    """One live SFC request.

    t_ccurr is derived: it equals engine_step - inject_step during the step's
    passes (the pre-increment value) and after the step (post-increment), so
    the engine never has to touch every live record each step.
    """

    tag: int
    type_name: str
    src_dc: int
    dest_dc: int
    bw: float  # Mbps, quantized to 0.001
    packet_len_mb: float
    deadline_steps: int
    chain: list[VnfState]
    sfc_dc: int
    inject_step: int = -1
    tx: TxState | None = None

    def t_ccurr(self, step: int) -> int:
        return max(0, step - self.inject_step)

    @property
    def head(self) -> VnfState | None:
        return self.chain[0] if self.chain else None


class WaveDraws:
    """Draws from one PCG64 stream, each bit-identical to the same call on
    np.random.default_rng(seed): integers(lo, hi), integers(n), uniform(lo,
    hi) and random(), in any order.

    Raw 64-bit outputs are read `block` at a time, so the bit generator runs
    ahead of the draws served. That is only safe because the stream is used
    for nothing else: each wave builds its own from its own seed. The DQN
    agent's stream is the second user: dqn.AgentDraws adds the replay
    batch's integers(lo, hi, size=k).

    A 32-bit draw is the low half of a fresh output, whose high half is kept
    for the next 32-bit draw (64-bit draws leave it in place), as PCG64 does.
    integers follows Generator's Lemire rejection on 32-bit draws (arXiv
    1805.10941) and draws nothing for a single-value range; ranges wider than
    2**32 are not served.
    """

    __slots__ = ("_raw", "_block", "_buf", "_pos", "_half")

    def __init__(self, seed, block: int = 256):
        self._raw = np.random.PCG64(seed).random_raw
        self._block = block
        self._buf: list[int] = []
        self._pos = 0
        self._half: int | None = None  # the buffered upper 32 bits

    def _next64(self) -> int:
        pos = self._pos
        if pos == len(self._buf):
            self._buf = self._raw(self._block).tolist()
            pos = 0
        self._pos = pos + 1
        return self._buf[pos]

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        raw = self._next64()
        self._half = raw >> 32
        return raw & 0xFFFFFFFF

    def random(self) -> float:
        return (self._next64() >> 11) * 2.0 ** -53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def integers(self, lo: int, hi: int | None = None) -> int:
        """An int in [lo, hi), or in [0, lo) when hi is None."""
        if hi is None:
            lo, hi = 0, lo
        n = hi - lo
        if n <= 1:
            if n < 1:
                raise ValueError(f"integers: empty range [{lo}, {hi})")
            return lo
        if n > 0x100000000:
            raise ValueError(f"integers: range {n} is wider than 2**32")
        m = self._next32() * n
        if (m & 0xFFFFFFFF) < n:
            threshold = (0x100000000 - n) % n
            while (m & 0xFFFFFFFF) < threshold:
                m = self._next32() * n
        return lo + (m >> 32)


def _quantize_bw(bw: float) -> float:
    return round(bw * QUANTUM) / QUANTUM


def _make_record(tag: int, styp: SfcType, catalog: Catalog, src: int, dest: int,
                 bw: float) -> SfcRecord:
    bw = _quantize_bw(bw)
    if bw <= 0:
        raise RequestError(f"request {tag}: bandwidth must be positive")
    packet = styp.packet_len_mb if styp.packet_len_mb is not None else bw * 0.001
    chain = [VnfState(v, catalog.vnfs[v].proc_time) for v in styp.chain]
    return SfcRecord(
        tag=tag,
        type_name=styp.name,
        src_dc=src,
        dest_dc=dest,
        bw=bw,
        packet_len_mb=packet,
        deadline_steps=styp.deadline_steps,
        chain=chain,
        sfc_dc=src,
    )


class RequestGenerator:
    """Generates request waves; a pure function of (seed, catalog, n_dcs, wave).

    Tags are assigned from a running counter so they stay unique across waves.
    """

    def __init__(self, catalog: Catalog, n_dcs: int, seed: int, *,
                 bundle_overrides: dict[str, tuple[int, int]] | None = None,
                 allow_loopback: bool = False):
        if n_dcs < 2 and not allow_loopback:
            raise RequestError("need at least 2 DCs for distinct src/dest")
        self.catalog = catalog
        self.n_dcs = n_dcs
        self.seed = int(seed)
        self.allow_loopback = allow_loopback
        # config.ScenarioConfig checks the override names and ranges at load
        self.bundles = {name: styp.bundle for name, styp in catalog.sfcs.items()}
        self.bundles.update(bundle_overrides or {})
        self.next_tag = 0

    def generate_wave(self, wave_index: int) -> list[SfcRecord]:
        draws = WaveDraws([self.seed, 0x5FC, wave_index])
        integers = draws.integers
        records = []
        for name, styp in self.catalog.sfcs.items():
            lo, hi = self.bundles[name]
            count = integers(lo, hi + 1)
            blo, bhi = styp.bandwidth_range
            for _ in range(count):
                src = integers(self.n_dcs)
                if self.allow_loopback:
                    dest = integers(self.n_dcs)
                else:
                    dest = integers(self.n_dcs - 1)
                    if dest >= src:
                        dest += 1
                bw = blo if blo == bhi else draws.uniform(blo, bhi)
                records.append(
                    _make_record(self.next_tag, styp, self.catalog, src, dest, bw)
                )
                self.next_tag += 1
        return records

    def manual_wave(self, specs: list[dict]) -> list[SfcRecord]:
        """Build an explicit request list: [{"type", "src", "dest", "bw"?}, ...]."""
        records = []
        for spec in specs:
            styp, src, dest, bw = self._parse_spec(spec)
            records.append(_make_record(self.next_tag, styp, self.catalog, src, dest, bw))
            self.next_tag += 1
        return records

    def _parse_spec(self, spec: dict) -> tuple[SfcType, int, int, float]:
        """(type, src, dest, bw) of a manual request spec; RequestError when malformed.
        A spec without bw asks for the middle of its type's bandwidth range."""
        name = spec.get("type")
        if name not in self.catalog.sfcs:
            raise RequestError(f"unknown SFC type {name!r}")
        styp = self.catalog.sfcs[name]
        bw = spec.get("bw")
        if bw is None:
            lo, hi = styp.bandwidth_range
            bw = (lo + hi) / 2.0
        try:
            src, dest, bw = int(spec["src"]), int(spec["dest"]), float(bw)
        except (KeyError, TypeError, ValueError) as exc:
            raise RequestError(f"malformed request {spec}: {exc!r}") from exc
        if not (0 <= src < self.n_dcs) or not (0 <= dest < self.n_dcs):
            raise RequestError(f"src/dest out of range for request {spec}")
        if src == dest and not self.allow_loopback:
            raise RequestError("src == dest requires allow_loopback")
        if not _quantize_bw(bw) > 0:
            raise RequestError(f"request {spec}: bandwidth must be positive")
        return styp, src, dest, bw

    def max_bandwidth(self, plan: WavePlan) -> tuple[float, str] | None:
        """The largest bandwidth a run of plan can request, with its SFC type;
        None when it requests nothing. Every manual spec is parsed, so a
        malformed one raises RequestError here, before the run starts."""
        if plan.manual is None:
            asks = [(styp.bandwidth_range[1], name) for name, styp in self.catalog.sfcs.items()
                    if self.bundles[name][1] > 0]
        else:
            asks = [(self._parse_spec(spec)[3], spec["type"]) for wave in plan.manual
                    for spec in wave]
        return max(asks, default=None)


@dataclass(frozen=True)
class WavePlan:
    """When to inject request waves; times are simulation steps, ascending."""

    times: tuple[int, ...] = (0,)
    manual: tuple[tuple, ...] | None = None  # per-wave explicit request specs

    def __post_init__(self):
        times = self.times
        if list(times) != sorted(times):
            raise RequestError("wave times must be sorted ascending")
        if len(set(times)) != len(times):
            raise RequestError("duplicate wave time")
        if any(t < 0 for t in times):
            raise RequestError("wave times must be non-negative")
        if self.manual is not None and len(self.manual) != len(times):
            raise RequestError("manual mode needs one request list per wave")


def schedule_waves(wave_times, manual=None) -> WavePlan:
    times = tuple(int(t) for t in wave_times)
    manual_t = None
    if manual is not None:
        manual_t = tuple(tuple(w) for w in manual)
    return WavePlan(times, manual_t)
