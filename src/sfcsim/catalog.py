"""VNF and SFC type catalogs.

Six VNF types and six SFC types ship as defaults; any subset of their
attributes can be overridden from a scenario config, which
config.ScenarioConfig checks at load. All time quantities use simulation
steps (1 step = 0.01 ms) unless the field name says ms.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

VNF_NAMES = ("NAT", "FW", "VOC", "TM", "WO", "IDPS")
SFC_NAMES = ("CG", "AugR", "VoIP", "VS", "MIoT", "Ind4.0")

STEPS_PER_MS = 100


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


@dataclass(frozen=True)
class Catalog:
    vnfs: dict[str, VnfType] = field(default_factory=dict)
    sfcs: dict[str, SfcType] = field(default_factory=dict)


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


# The default types, built once: they are frozen, so every catalog shares them.
_DEFAULT_VNF_TYPES = {
    name: VnfType(name, vcpu, ram, storage, proc)
    for name, (vcpu, ram, storage, proc) in DEFAULT_VNFS.items()
}
_DEFAULT_SFC_TYPES = {
    name: SfcType(name, chain, bw, e2e, bundle)
    for name, (chain, bw, e2e, bundle) in DEFAULT_SFCS.items()
}


def default_catalog() -> Catalog:
    """The default catalog of six VNF types and six SFC types, in dicts of
    its own."""
    return Catalog(dict(_DEFAULT_VNF_TYPES), dict(_DEFAULT_SFC_TYPES))


def _sfc_value(key: str, value):
    """An SFC override value as SfcType holds it: chain and bundle as tuples,
    e2e_ms as a float, bandwidth as a float or a (lo, hi) tuple of floats."""
    if key == "bandwidth":
        return tuple(map(float, value)) if isinstance(value, (list, tuple)) else float(value)
    if key == "e2e_ms":
        return float(value)
    return tuple(value) if key in ("chain", "bundle") else value


def load_catalog(config: dict | None) -> Catalog:
    """Build a catalog from a config mapping, overriding any subset of defaults.

    The config shape is {"vnfs": {name: {field: value}}, "sfcs": {name: {...}}},
    with the VnfType and SfcType field names other than name; a null section
    or entry overrides nothing. Unreferenced defaults are retained; an empty
    or None config yields the default catalog. The config is taken as valid:
    config.ScenarioConfig checks it at load.
    """
    cat = default_catalog()
    if not config:
        return cat
    vnfs = dict(cat.vnfs)
    for name, override in (config.get("vnfs") or {}).items():
        vnfs[name] = replace(vnfs[name], **(override or {}))
    sfcs = dict(cat.sfcs)
    for name, override in (config.get("sfcs") or {}).items():
        sfcs[name] = replace(sfcs[name], **{key: _sfc_value(key, value)
                                            for key, value in (override or {}).items()})
    return Catalog(vnfs, sfcs)
