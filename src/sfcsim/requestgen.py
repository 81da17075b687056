"""Seeded generation of SFC request bundles and their live tracking records."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import Catalog, SfcType
from .topology import QUANTUM, PathResult


class RequestError(ValueError):
    pass


@dataclass
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


@dataclass
class TxState:
    path: PathResult
    end_step: int


@dataclass
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
    sfc_dc: int = -1
    inject_step: int = -1
    tx: TxState | None = None

    def __post_init__(self):
        if self.sfc_dc < 0:
            self.sfc_dc = self.src_dc

    def t_ccurr(self, step: int) -> int:
        return max(0, step - self.inject_step)

    @property
    def head(self) -> VnfState | None:
        return self.chain[0] if self.chain else None


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
        rng = np.random.default_rng([self.seed, 0x5FC, wave_index])
        records = []
        for name, styp in self.catalog.sfcs.items():
            lo, hi = self.bundles[name]
            count = int(rng.integers(lo, hi + 1))
            blo, bhi = styp.bandwidth_range
            for _ in range(count):
                src = int(rng.integers(self.n_dcs))
                if self.allow_loopback:
                    dest = int(rng.integers(self.n_dcs))
                else:
                    dest = int(rng.integers(self.n_dcs - 1))
                    if dest >= src:
                        dest += 1
                bw = blo if blo == bhi else float(rng.uniform(blo, bhi))
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
