"""VNF and SFC type catalogs.

Six VNF types and six SFC types ship as defaults; any subset of their
attributes can be overridden from a scenario config. All time quantities
use simulation steps (1 step = 0.01 ms) unless the field name says ms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .topology import to_milli

VNF_NAMES = ("NAT", "FW", "VOC", "TM", "WO", "IDPS")
SFC_NAMES = ("CG", "AugR", "VoIP", "VS", "MIoT", "Ind4.0")

STEPS_PER_MS = 100


class CatalogError(ValueError):
    """A catalog definition failed validation."""


@dataclass(frozen=True)
class VnfType:
    """One virtual network function type.

    compute_demand is derived as vcpu * ram_gb, mirroring how datacenter
    compute capacity is derived from CPU count and RAM.
    """

    name: str
    vcpu: float
    ram_gb: float
    storage_gb: float
    proc_time: int  # steps

    @property
    def compute_demand(self) -> float:
        return self.vcpu * self.ram_gb

    def validate(self) -> None:
        if self.name not in VNF_NAMES:
            raise CatalogError(f"unknown VNF type {self.name!r}")
        for attr in ("vcpu", "ram_gb", "storage_gb", "proc_time"):
            if getattr(self, attr) <= 0:
                raise CatalogError(f"VNF {self.name}: {attr} must be positive")
        if int(self.proc_time) != self.proc_time:
            raise CatalogError(f"VNF {self.name}: proc_time must be integral steps")
        if to_milli(self.storage_gb) == 0 or to_milli(self.compute_demand) == 0:
            raise CatalogError(f"VNF {self.name}: storage and compute demand must be >= 0.001")


@dataclass(frozen=True)
class SfcType:
    """One service function chain type.

    bandwidth is either a fixed Mbps value or an inclusive (lo, hi) range
    sampled uniformly per request. packet_len_mb of None means the final
    and in-chain TX packet defaults to bandwidth_mbps * 0.001 Mb.
    """

    name: str
    chain: tuple[str, ...]
    bandwidth: float | tuple[float, float]
    e2e_ms: float
    bundle: tuple[int, int]
    packet_len_mb: float | None = None

    @property
    def deadline_steps(self) -> int:
        return int(round(STEPS_PER_MS * self.e2e_ms))

    @property
    def bandwidth_range(self) -> tuple[float, float]:
        if isinstance(self.bandwidth, tuple):
            return self.bandwidth
        return (self.bandwidth, self.bandwidth)

    def validate(self, vnfs: dict[str, VnfType]) -> None:
        if self.name not in SFC_NAMES:
            raise CatalogError(f"unknown SFC type {self.name!r}")
        if not self.chain:
            raise CatalogError(f"SFC {self.name}: chain must be non-empty")
        for vname in self.chain:
            if vname not in vnfs:
                raise CatalogError(f"SFC {self.name}: unknown VNF type {vname!r} in chain")
        lo, hi = self.bandwidth_range
        if lo <= 0 or hi <= 0 or lo > hi:
            raise CatalogError(f"SFC {self.name}: bandwidth must be positive (lo <= hi)")
        if self.e2e_ms <= 0:
            raise CatalogError(f"SFC {self.name}: e2e_ms must be positive")
        blo, bhi = self.bundle
        if blo < 1 or blo > bhi:
            raise CatalogError(f"SFC {self.name}: bundle range needs 1 <= lo <= hi")
        if self.packet_len_mb is not None and self.packet_len_mb <= 0:
            raise CatalogError(f"SFC {self.name}: packet_len_mb must be positive")


@dataclass(frozen=True)
class Catalog:
    vnfs: dict[str, VnfType] = field(default_factory=dict)
    sfcs: dict[str, SfcType] = field(default_factory=dict)

    def validate(self) -> None:
        for vnf in self.vnfs.values():
            vnf.validate()
        for sfc in self.sfcs.values():
            sfc.validate(self.vnfs)


# Per-VNF (vcpu, ram GB, storage GB, processing steps).
DEFAULT_VNFS = {
    "NAT": (1, 4, 7, 6),
    "FW": (9, 5, 1, 3),
    "VOC": (5, 11, 13, 11),
    "TM": (13, 7, 7, 7),
    "WO": (5, 2, 5, 8),
    "IDPS": (11, 15, 2, 2),
}

# Per-SFC (chain, bandwidth Mbps, e2e ms, bundle range).
DEFAULT_SFCS = {
    "CG": (("NAT", "FW", "VOC", "WO", "IDPS"), 4.0, 80.0, (40, 55)),
    "AugR": (("NAT", "FW", "TM", "VOC", "IDPS"), 100.0, 10.0, (1, 4)),
    "VoIP": (("NAT", "FW", "TM", "FW", "NAT"), 0.064, 100.0, (100, 200)),
    "VS": (("NAT", "FW", "TM", "VOC", "IDPS"), 4.0, 100.0, (50, 100)),
    "MIoT": (("NAT", "FW", "IDPS"), (1.0, 50.0), 5.0, (10, 15)),
    "Ind4.0": (("NAT", "FW"), 70.0, 8.0, (1, 4)),
}


def default_catalog() -> Catalog:
    """Build the default catalog of six VNF types and six SFC types."""
    vnfs = {
        name: VnfType(name, vcpu, ram, storage, proc)
        for name, (vcpu, ram, storage, proc) in DEFAULT_VNFS.items()
    }
    sfcs = {
        name: SfcType(name, chain, bw, e2e, bundle)
        for name, (chain, bw, e2e, bundle) in DEFAULT_SFCS.items()
    }
    cat = Catalog(vnfs, sfcs)
    cat.validate()
    return cat


def _merge_vnf(base: VnfType, override: dict) -> VnfType:
    known = {"vcpu", "ram_gb", "storage_gb", "proc_time"}
    bad = set(override) - known
    if bad:
        raise CatalogError(f"VNF {base.name}: unknown fields {sorted(bad)}")
    return VnfType(
        name=base.name,
        vcpu=override.get("vcpu", base.vcpu),
        ram_gb=override.get("ram_gb", base.ram_gb),
        storage_gb=override.get("storage_gb", base.storage_gb),
        proc_time=override.get("proc_time", base.proc_time),
    )


def _merge_sfc(base: SfcType, override: dict) -> SfcType:
    known = {"chain", "bandwidth", "e2e_ms", "bundle", "packet_len_mb"}
    bad = set(override) - known
    if bad:
        raise CatalogError(f"SFC {base.name}: unknown fields {sorted(bad)}")
    bw = override.get("bandwidth", base.bandwidth)
    if isinstance(bw, (list, tuple)):
        bw = (float(bw[0]), float(bw[1]))
    else:
        bw = float(bw)
    bundle = override.get("bundle", base.bundle)
    return SfcType(
        name=base.name,
        chain=tuple(override.get("chain", base.chain)),
        bandwidth=bw,
        e2e_ms=float(override.get("e2e_ms", base.e2e_ms)),
        bundle=(int(bundle[0]), int(bundle[1])),
        packet_len_mb=override.get("packet_len_mb", base.packet_len_mb),
    )


def load_catalog(config: dict | None) -> Catalog:
    """Build a catalog from a config mapping, overriding any subset of defaults.

    The config shape is {"vnfs": {name: {field: value}}, "sfcs": {name: {...}}},
    with the VnfType and SfcType field names.
    Unreferenced defaults are retained; an empty or None config yields the
    default catalog.
    """
    cat = default_catalog()
    if not config:
        return cat
    if not isinstance(config, dict):
        raise CatalogError("catalog config must be a mapping")
    bad = set(config) - {"vnfs", "sfcs"}
    if bad:
        raise CatalogError(f"unknown catalog sections {sorted(bad)}")
    vnfs = dict(cat.vnfs)
    for name, override in (config.get("vnfs") or {}).items():
        if name not in vnfs:
            raise CatalogError(f"unknown VNF type {name!r}")
        vnfs[name] = _merge_vnf(vnfs[name], override or {})
    sfcs = dict(cat.sfcs)
    for name, override in (config.get("sfcs") or {}).items():
        if name not in sfcs:
            raise CatalogError(f"unknown SFC type {name!r}")
        sfcs[name] = _merge_sfc(sfcs[name], override or {})
    merged = Catalog(vnfs, sfcs)
    merged.validate()
    return merged
