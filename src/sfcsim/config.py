"""Scenario configuration: parsing, defaults, canonical hashing, builders.

A scenario is one YAML (or JSON) mapping with sections: catalog, topology,
datacenters, requests, policy, dqn, run. Every field has a documented
default; the config hash is a sha256 over the fully resolved, canonically
ordered config, so it is stable under key reordering.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
from math import inf, isfinite
from typing import Callable, NamedTuple

import yaml

from .catalog import DEFAULT_VNFS, SFC_NAMES, STEPS_PER_MS, VNF_NAMES, Catalog, load_catalog
from .datacenter import DataCenter
from .metrics import MetricsBundle
from .policy import HeuristicPolicy, PriorityWeights, RandomPolicy
from .requestgen import RequestError, RequestGenerator, WavePlan, schedule_waves
from .topology import QUANTUM, NetworkGraph, TopologyError, circle_topology


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "catalog": {},
    "topology": {
        "nodes": None,            # [{"id", "x", "y"}]
        "edges": None,            # [{"m", "n", "capacity_mbps"?, "distance_km"?}]
        # the generator seed is distinct from the run seed so one topology
        # serves every evaluation seed of a scenario
        "generator": {"n": 5, "radius_km": 6000.0, "edge_prob": 1.0, "seed": 0},
        "default_capacity_mbps": 500.0,
        "propagation": True,
    },
    "datacenters": {
        "count": None,            # defaults to the topology node count
        "max_storage_gb": 2000.0,
        "cpus": 64.0,
        "ram_gb": 256.0,
        "per_dc": None,           # [{"max_storage_gb", "cpus", "ram_gb"}]
    },
    "requests": {
        "wave_times": [0, 2500, 5000, 7500],
        "bundle_overrides": {},
        "manual": None,           # per-wave explicit request lists
        "allow_loopback": False,
    },
    "policy": {
        "kind": "heuristic",      # heuristic | dqn | random
        "weights": [1.0, 1.0, 1.0, 1.0],
        "urgency_fraction": 0.2,
        "t_urgency_steps": None,
        "t_thresh": 500,
        "t_model": 1,
        "checkpoint": None,       # trained parameters for kind == dqn
    },
    "dqn": {
        "branch_dim": 32,
        "hidden": [128, 64],
        "count_cap": 50,
        # gamma and target_sync are read by nothing since training became
        # regression on outcome labels; they stay until the next deliberate
        # re-pin because config_hash covers them
        "gamma": 0.95,
        "lr": 1e-3,
        "grad_clip": 5.0,
        "batch": 64,
        "buffer": 50_000,
        "min_buffer": 500,
        "target_sync": 500,
        "eps_start": 1.0,
        "eps_min": 0.05,
        "eps_eval": 0.0,
        "episodes": 200,
        "t_model": 100,
        "max_actions": 200,
        "train_interval": 8,
        "checkpoint_every": 50,
        # the only credit mode: allocation transitions are labelled with
        # their request's eventual completion/drop reward
        "credit": "outcome",
        # fraction of the training run over which guided exploration (a
        # reflex on the locally-pending features) decays from 1 to 0
        "guide_frac": 0.4,
        # step must be 0 (no label has a per-step term); kept like gamma
        "reward": {"complete": 10.0, "drop": 10.0, "invalid": 1.0, "step": 0.0},
    },
    "run": {
        "step_cap": 200_000,
        "sample_period": 1500,
    },
}


# -- the rule table: one rule per config key (README "Config rules") --------------
# In a path, "?": the value may be null (or absent from a list entry); "[]":
# each entry of a list; "<vnf>", "<sfc>": each entry keyed by a type name.

class Rule(NamedTuple):
    """A value is valid when test(value) holds; else it must be what."""
    what: str
    test: Callable[[object], bool]

    def check(self, where: str, value) -> None:
        if not self.test(value):
            raise ConfigError(f"{where} must be {self.what}, got {value!r}")


def _int(low: int) -> Rule:
    return Rule(f"an int >= {low}", lambda value: type(value) is int and value >= low)


def _list_of(what: str, test, length: int | None = None) -> Rule:
    """A list or tuple of items that pass test: length of them, else any number."""
    return Rule(what, lambda value: isinstance(value, (list, tuple))
                and length in (None, len(value)) and all(map(test, value)))


_NUMBERS = frozenset((int, float))  # a bool is neither
# to_milli(x) > 0 exactly when x * QUANTUM > 0.5; the comparisons also reject NaN
_LEDGER = Rule(f"a finite number that rounds to at least {1 / QUANTUM}",
               lambda value: type(value) in _NUMBERS and 0.5 < value * QUANTUM < inf)
_NON_NEGATIVE = Rule("a finite non-negative number",
                     lambda value: type(value) in _NUMBERS and 0 <= value < inf)
_FRACTION = Rule("a finite number in [0, 1]",
                 lambda value: type(value) in _NUMBERS and 0 <= value <= 1)
_POSITIVE = Rule("a finite number > 0",
                 lambda value: type(value) in _NUMBERS and 0 < value < inf)
_FINITE = Rule("a finite number", lambda value: type(value) in _NUMBERS and isfinite(value))
# inf % 1 and nan % 1 are nan, so a whole number is finite too
_WHOLE = Rule("a whole number", lambda value: type(value) in _NUMBERS and value % 1 == 0)
_BOOL = Rule("true or false", lambda value: type(value) is bool)
_SEED = _int(0)  # the run seed, the one key outside the sections
_BUNDLE = Rule("two ints lo, hi with 0 <= lo <= hi", lambda value: (
    isinstance(value, (list, tuple)) and len(value) == 2
    and all(type(n) is int for n in value) and 0 <= value[0] <= value[1]))


class _Range(Rule):
    """A ledger value or [lo, hi] of them: a message names the bad bound."""

    def check(self, where: str, value) -> None:
        if not (isinstance(value, (list, tuple)) and len(value) == 2):
            return _LEDGER.check(where, value)
        for i, bound in enumerate(value):
            _LEDGER.check(f"{where}[{i}]", bound)
        super().check(where, value)


RULES = [
    ("catalog.vnfs?.<vnf>?.vcpu", _POSITIVE),
    ("catalog.vnfs?.<vnf>?.ram_gb", _POSITIVE),
    ("catalog.vnfs?.<vnf>?.storage_gb", _LEDGER),
    ("catalog.vnfs?.<vnf>?.proc_time", _int(1)),
    ("catalog.sfcs?.<sfc>?.chain", Rule(
        f"a non-empty list of VNF types ({', '.join(VNF_NAMES)})",
        lambda value: isinstance(value, (list, tuple)) and len(value) > 0
        and all(map(VNF_NAMES.__contains__, value)))),
    ("catalog.sfcs?.<sfc>?.bandwidth", _Range(
        f"a number or [lo, hi] with lo <= hi, each {_LEDGER.what}",
        lambda value: _LEDGER.test(value) or isinstance(value, (list, tuple))
        and len(value) == 2 and all(map(_LEDGER.test, value)) and value[0] <= value[1])),
    # the deadline, round(e2e_ms * STEPS_PER_MS) steps, is at least one step
    # exactly when the product exceeds 0.5
    ("catalog.sfcs?.<sfc>?.e2e_ms", Rule(
        f"a finite number that rounds to a deadline of at least one step "
        f"({1 / STEPS_PER_MS} ms)",
        lambda value: type(value) in _NUMBERS and 0.5 < value * STEPS_PER_MS < inf)),
    ("catalog.sfcs?.<sfc>?.bundle", _BUNDLE),
    ("catalog.sfcs?.<sfc>?.packet_len_mb?", _POSITIVE),
    ("topology.nodes?[].id", _int(0)),
    ("topology.nodes?[].x", _FINITE),
    ("topology.nodes?[].y", _FINITE),
    ("topology.edges?[].m", _int(0)),
    ("topology.edges?[].n", _int(0)),
    ("topology.edges?[].capacity_mbps?", _LEDGER),
    # NetworkGraph rejects a negative or non-finite distance by its edge
    ("topology.edges?[].distance_km?", Rule("a number", lambda value: type(value) in _NUMBERS)),
    ("topology.generator?.n", _int(1)),
    ("topology.generator?.radius_km", _NON_NEGATIVE),
    ("topology.generator?.edge_prob", _FRACTION),
    ("topology.generator?.seed", _int(0)),
    ("topology.default_capacity_mbps", _LEDGER),
    ("topology.propagation", _BOOL),
    ("datacenters.count?", _int(1)),
    ("datacenters.max_storage_gb", _LEDGER),
    ("datacenters.cpus", _LEDGER),
    ("datacenters.ram_gb", _LEDGER),
    ("datacenters.per_dc?[].max_storage_gb", _LEDGER),
    ("datacenters.per_dc?[].cpus", _LEDGER),
    ("datacenters.per_dc?[].ram_gb", _LEDGER),
    # the wave plan, a cross-key rule, checks that they ascend and none is negative
    ("requests.wave_times", _list_of("a list of whole numbers", _WHOLE.test)),
    # a catalog overrides SFC types but adds none, so the default names are all
    ("requests.bundle_overrides.<sfc>", _BUNDLE),
    # set-up checks each request against the catalog and the DCs
    ("requests.manual?", _list_of("a list of request lists (one per wave)", lambda wave: (
        isinstance(wave, (list, tuple)) and all(isinstance(spec, dict) for spec in wave)))),
    ("requests.allow_loopback", _BOOL),
    ("policy.kind", Rule("'heuristic', 'dqn' or 'random'",
                          lambda value: value in ("heuristic", "dqn", "random"))),
    ("policy.weights", _list_of("four finite non-negative numbers", _NON_NEGATIVE.test, 4)),
    ("policy.urgency_fraction", _NON_NEGATIVE),
    ("policy.t_urgency_steps?", _int(0)),
    ("policy.t_thresh", _int(0)),
    ("policy.t_model", _int(1)),
    ("policy.checkpoint?", Rule("a string", lambda value: type(value) is str)),
    ("dqn.branch_dim", _int(1)),
    ("dqn.hidden", _list_of("two positive ints", _int(1).test, 2)),
    ("dqn.count_cap", _int(1)),
    ("dqn.gamma", _FRACTION),
    ("dqn.lr", _NON_NEGATIVE),
    ("dqn.grad_clip", _NON_NEGATIVE),
    ("dqn.batch", _int(1)),
    ("dqn.buffer", _int(1)),
    ("dqn.min_buffer", _int(0)),
    ("dqn.target_sync", _int(1)),
    ("dqn.eps_start", _FRACTION),
    ("dqn.eps_min", _FRACTION),
    ("dqn.eps_eval", _FRACTION),
    ("dqn.episodes", _int(0)),
    ("dqn.t_model", _int(1)),
    ("dqn.max_actions", _int(1)),
    ("dqn.train_interval", _int(1)),
    ("dqn.checkpoint_every", _int(1)),
    ("dqn.credit", Rule("'outcome'", lambda value: value == "outcome")),
    ("dqn.guide_frac", _FRACTION),
    ("dqn.reward.complete", _NON_NEGATIVE),
    ("dqn.reward.drop", _NON_NEGATIVE),
    ("dqn.reward.invalid", _NON_NEGATIVE),
    ("dqn.reward.step", Rule("0", lambda value: value == 0)),
    ("run.step_cap", _int(1)),
    ("run.sample_period", _int(0)),
]


class _Node:
    """The rules of RULES under one mapping, or under each entry of one list."""

    def __init__(self, segment: str = "", rules=()):
        self.nullable = "?" in segment
        self.is_list = segment.endswith("[]")
        self.keys = {}      # key -> the Rule of its value or the _Node it is
        self.required = []  # the keys a list entry needs
        for path, rule in rules:
            self.add(path, rule)

    def add(self, path: str, rule: Rule) -> None:
        """Set rule at path below this node, making the nodes on the way."""
        segment, _, rest = path.partition(".")
        key = segment.rstrip("?[]")
        names = {"<vnf>": VNF_NAMES, "<sfc>": SFC_NAMES}.get(key, (key,))
        if self.is_list and "?" not in segment and key not in self.required:
            self.required.append(key)
        if rest:
            spec = self.keys.get(names[0]) or _Node(segment)
            spec.add(rest, rule)
        elif "?" in segment:
            test = rule.test
            spec = rule._replace(what=f"{rule.what} or null",
                                 test=lambda value: value is None or test(value))
        else:
            spec = rule
        self.keys.update(dict.fromkeys(names, spec))

    def check(self, where: str, value) -> None:
        if value is None and self.nullable:
            return
        if not self.is_list:
            entries = [(where, value)]
        elif isinstance(value, list):
            entries = [(f"{where}[{i}]", entry) for i, entry in enumerate(value)]
        else:
            raise ConfigError(f"{where} must be a list, got {value!r}")
        for where, entry in entries:
            if not isinstance(entry, dict):
                raise ConfigError(f"{where} must be a mapping, got {entry!r}")
            for key in self.required:
                if key not in entry:
                    raise ConfigError(f"{where} needs {key!r}, got {entry!r}")
            for key, item in entry.items():
                if key not in self.keys:
                    raise ConfigError(f"unknown key {key!r} in {where}; "
                                      f"expected {', '.join(self.keys)}")
                spec = self.keys[key]
                # a rule's check raises, so it runs only on a value its test refuses
                if type(spec) is _Node or not spec.test(item):
                    spec.check(f"{where}.{key}", item)


_TABLE = _Node(rules=RULES)


# -- cross-key rules: each takes config data whose keys RULES has checked --------

def _topology_given(data: dict) -> None:
    topo = data["topology"]
    if topo["nodes"] is None and topo["generator"] is None:
        raise ConfigError("topology required: give nodes or a generator")
    if (topo["nodes"] is None) != (topo["edges"] is None):
        raise ConfigError("explicit topology needs both nodes and edges")


def _compute_products(data: dict) -> None:
    """cpus * ram_gb of each DC and vcpu * ram_gb of each VNF type a catalog
    overrides are ledger values; a factor an entry leaves out is the default's."""
    dcs = data["datacenters"]
    _LEDGER.check("datacenters.cpus * ram_gb", dcs["cpus"] * dcs["ram_gb"])
    for i, spec in enumerate(dcs["per_dc"] or ()):
        _LEDGER.check(f"datacenters.per_dc[{i}].cpus * ram_gb", spec["cpus"] * spec["ram_gb"])
    for name, entry in (data["catalog"].get("vnfs") or {}).items():
        vcpu, ram_gb = DEFAULT_VNFS[name][:2]
        entry = entry or {}
        _LEDGER.check(f"catalog.vnfs.{name}.vcpu * ram_gb",
                      entry.get("vcpu", vcpu) * entry.get("ram_gb", ram_gb))


def _batch_fits_buffer(data: dict) -> None:
    # the ring never holds more than dqn.buffer transitions, so a ring smaller
    # than one batch, or than the size training waits for, never trains
    dqn = data["dqn"]
    for key in ("batch", "min_buffer"):
        if dqn["buffer"] < dqn[key]:
            raise ConfigError(f"dqn.buffer ({dqn['buffer']}) must be >= dqn.{key} "
                              f"({dqn[key]})")


def _wave_plan(data: dict) -> None:
    req = data["requests"]
    try:
        schedule_waves(req["wave_times"], req["manual"])
    except RequestError as exc:
        raise ConfigError(f"requests: {exc}") from exc


CROSS_KEY_RULES = (_topology_given, _compute_products, _batch_fits_buffer, _wave_plan)


# the values a config shares instead of copying: nothing can change them
_LEAVES = (int, float, str, bool, type(None))


def _copy(value):
    """value with every list and dict in it copied: an immutable leaf is
    shared, any other value deep-copied."""
    if type(value) in _LEAVES:
        return value
    if type(value) is dict:
        return {key: _copy(item) for key, item in value.items()}
    if type(value) is list:
        return [_copy(item) for item in value]
    return copy.deepcopy(value)


def _deep_merge(base: dict, override: dict, path="") -> dict:
    """base with override merged in, in base's key order, sharing nothing
    mutable with either: each value is copied once, from one side."""
    merged = {}
    for key, value in override.items():
        if key not in base:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(base[key], dict) and isinstance(value, dict) and base[key]:
            merged[key] = _deep_merge(base[key], value, path + key + ".")
        else:
            merged[key] = _copy(value)
    return {key: merged[key] if key in merged else _copy(value)
            for key, value in base.items()}


def _merge_over(base, value):
    """value set over base the way --set does: a mapping over a mapping sets
    only the keys it names, key by key; any other value replaces base. Only
    new dicts are built, so neither side is changed."""
    if not (isinstance(base, dict) and isinstance(value, dict)):
        return value
    merged = dict(base)
    for key, item in value.items():
        merged[key] = _merge_over(base.get(key), item)
    return merged


class ScenarioConfig:
    def __init__(self, data: dict | None = None, seed: int = 0):
        """data merged over DEFAULTS; RULES check data, CROSS_KEY_RULES the whole."""
        data = data or {}
        if not isinstance(data, dict):
            raise ConfigError("scenario config must be a mapping")
        bad = set(data) - {*DEFAULTS, "seed"}
        if bad:
            raise ConfigError(f"unknown config sections {sorted(bad)}")
        self.seed = data.get("seed", seed)
        _SEED.check("seed", self.seed)
        self.data = {}
        for section, defaults in DEFAULTS.items():
            override = data.get(section) or {}
            # the catalog has no defaults to merge into, and RULES refuses a
            # section that is not a mapping
            if section == "catalog" or not isinstance(override, dict):
                self.data[section] = _copy(override)
            else:
                self.data[section] = _deep_merge(defaults, override, section + ".")
            # RULES checks the values data gives: every default passes them
            _TABLE.keys[section].check(section, override)
        for rule in CROSS_KEY_RULES:
            rule(self.data)

    # -- canonical form -------------------------------------------------------

    def resolved(self) -> dict:
        return copy.deepcopy({**self.data, "seed": self.seed})

    def config_hash(self) -> str:
        # the bytes of resolved(), read from data in place
        canon = json.dumps({**self.data, "seed": self.seed}, sort_keys=True,
                           separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def write_copy(self, out_dir: str) -> None:
        """Write config_used.json (the hash and the resolved config) into out_dir."""
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "config_used.json"), "w") as fh:
            json.dump({"config_hash": self.config_hash(), "config": self.resolved()},
                      fh, sort_keys=True, indent=2)
            fh.write("\n")

    def with_overrides(self, pairs: dict[str, object]) -> "ScenarioConfig":
        """Apply dotted-key overrides like {"policy.kind": "dqn"}.

        A mapping value sets only the keys it names, merged key by key into
        the mapping at its path; any other value replaces it. A path under
        catalog may name entries the config does not have yet. Only the dicts
        on an override's path are copied, so this config's data is left as
        it was.
        """
        data = dict(self.data)
        seed = self.seed
        for dotted, value in pairs.items():
            parts = dotted.split(".")
            if parts == ["seed"]:
                seed = value
                continue
            node = data
            for part in parts[:-1]:
                if parts[0] == "catalog" and node.get(part) is None:
                    node[part] = {}  # null, like absent, overrides nothing
                if part not in node or not isinstance(node[part], dict):
                    raise ConfigError(f"unknown override path {dotted!r}")
                node[part] = dict(node[part])
                node = node[part]
            if parts[-1] not in node and parts[0] != "catalog":
                raise ConfigError(f"unknown override path {dotted!r}")
            node[parts[-1]] = _merge_over(node.get(parts[-1]), value)
        return ScenarioConfig(data, seed=seed)

    # -- builders ----------------------------------------------------------------

    def build_catalog(self) -> Catalog:
        return load_catalog(self.data["catalog"])

    def build_graph(self) -> NetworkGraph:
        topo = self.data["topology"]
        try:
            if topo["nodes"] is not None:
                nodes = [(n["id"], float(n["x"]), float(n["y"])) for n in topo["nodes"]]
                # a capacity absent or null is the default; the rule refuses 0
                default = topo["default_capacity_mbps"]
                edges = [(e["m"], e["n"], float(e.get("capacity_mbps") or default),
                          e.get("distance_km")) for e in topo["edges"]]
                return NetworkGraph(nodes, edges, propagation=topo["propagation"])
            gen = topo["generator"]
            return circle_topology(
                gen["n"], float(gen["radius_km"]), float(gen["edge_prob"]),
                gen["seed"], capacity_mbps=float(topo["default_capacity_mbps"]),
                propagation=topo["propagation"],
            )
        except TopologyError as exc:
            raise ConfigError(str(exc)) from exc

    def build_dcs(self, graph: NetworkGraph) -> list[DataCenter]:
        cfg = self.data["datacenters"]
        specs = cfg["per_dc"]
        if specs is None:  # every DC has the section's own capacities
            specs = [cfg] * (cfg["count"] if cfg["count"] is not None else graph.n)
        if len(specs) != graph.n:
            raise ConfigError(f"datacenter count {len(specs)} != topology nodes {graph.n}")
        return [
            DataCenter(i, s["max_storage_gb"], s["cpus"], s["ram_gb"])
            for i, s in enumerate(specs)
        ]

    def build_plan(self) -> WavePlan:
        req = self.data["requests"]
        return schedule_waves(req["wave_times"], req["manual"])

    def build_generator(self, catalog: Catalog, n_dcs: int, seed: int) -> RequestGenerator:
        req = self.data["requests"]
        return RequestGenerator(catalog, n_dcs, seed,
                                bundle_overrides=req["bundle_overrides"],
                                allow_loopback=req["allow_loopback"])

    def build_weights(self) -> PriorityWeights:
        w = self.data["policy"]["weights"]
        return PriorityWeights(*[float(x) for x in w])

    def build_policy(self, catalog: Catalog, graph: NetworkGraph, seed: int):
        kind = self.data["policy"]["kind"]
        if kind == "heuristic":
            return HeuristicPolicy()
        if kind == "random":
            return RandomPolicy(graph.n, list(catalog.vnfs), seed)
        from .dqn import DqnPolicy, agent_encoder, load_agent  # kind == "dqn"

        ckpt = self.data["policy"]["checkpoint"]
        if ckpt is None:
            raise ConfigError("policy.kind dqn needs policy.checkpoint")
        agent = load_agent(ckpt, self.data["dqn"])
        return DqnPolicy(agent, agent_encoder(agent, catalog, graph), seed)


def load_config(path: str, seed: int | None = None,
                overrides: dict[str, object] | None = None) -> ScenarioConfig:
    """Load a scenario from a YAML/JSON file or a builtin name."""
    if path in BUILTIN_SCENARIOS:
        data = BUILTIN_SCENARIOS[path]  # __init__ copies what it keeps
    else:
        with open(path) as fh:
            data = yaml.safe_load(fh) or {}
    cfg = ScenarioConfig(data)
    if seed is not None:
        _SEED.check("seed", seed)
        cfg.seed = seed
    if overrides:
        cfg = cfg.with_overrides(overrides)
    return cfg


# Named scenarios used by the experiment scripts and the test suite.
BUILTIN_SCENARIOS: dict[str, dict] = {
    # 5 DCs of 2000 GB storage / 64 CPUs / 256 GB RAM, default catalog, four
    # request waves, DCs on the default continental-scale ring. Long-haul
    # transfers cost a large slice of the deadline budgets, so placements
    # that keep a chain where it already sits are strongly favoured.
    "paper5dc": {},
    # Same but the DC count drops to 3.
    "paper3dc": {
        "topology": {"generator": {"n": 3}},
    },
    # Two DCs, one manually pinned Ind4.0 request; trivially satisfiable.
    "tiny": {
        "topology": {"generator": {"n": 2, "radius_km": 100.0, "edge_prob": 1.0}},
        "requests": {
            "wave_times": [0],
            "manual": [[{"type": "Ind4.0", "src": 0, "dest": 1}]],
        },
        "policy": {"t_thresh": 100},
        "run": {"step_cap": 5000, "sample_period": 100},
        "dqn": {
            "branch_dim": 16,
            "hidden": [32, 16],
            "t_model": 10,
            "max_actions": 4,
            "batch": 32,
            "min_buffer": 64,
            "buffer": 5000,
            "target_sync": 200,
            "lr": 5e-3,
        },
    },
}


def check_bandwidth(graph: NetworkGraph, generator: RequestGenerator, plan: WavePlan) -> None:
    """Raise ConfigError when a bandwidth the plan can request cannot reach every DC.

    A finished chain's final TX waits until a path carries its bandwidth, so
    a bandwidth no path can carry would stall the episode until its step cap.
    """
    ask = generator.max_bandwidth(plan)
    if ask is None:
        return
    bw, name = ask
    if not graph.connected(bw):
        raise ConfigError(f"SFC type {name} requests up to {bw} Mbps, but the edges "
                          f"that carry it do not connect all {graph.n} DCs")


def make_runtime(cfg: ScenarioConfig, seed: int | None = None, *, trace=None):
    """Build (engine, generator, plan) for one episode of a scenario."""
    from .engine import Engine

    episode_seed = cfg.seed if seed is None else seed
    catalog = cfg.build_catalog()
    graph = cfg.build_graph()
    dcs = cfg.build_dcs(graph)
    pol = cfg.data["policy"]
    metrics = MetricsBundle(config_hash=cfg.config_hash(), seed=episode_seed)
    engine = Engine(
        graph, dcs, catalog,
        t_thresh=pol["t_thresh"],
        weights=cfg.build_weights(),
        urgency_fraction=float(pol["urgency_fraction"]),
        t_urgency_steps=pol["t_urgency_steps"],
        metrics=metrics,
        trace=trace,
    )
    plan = cfg.build_plan()
    try:
        generator = cfg.build_generator(catalog, graph.n, episode_seed)
        check_bandwidth(graph, generator, plan)
    except RequestError as exc:
        raise ConfigError(str(exc)) from exc
    return engine, generator, plan
