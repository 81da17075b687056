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
import math
import os

import yaml

from .catalog import DEFAULT_SFCS, Catalog, CatalogError, load_catalog
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
        # either an explicit node/edge list or the seeded circle generator
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


def _check_ledger_value(name: str, value) -> None:
    """ConfigError unless value is a finite number whose ledger value
    (to_milli) is positive."""
    # to_milli(x) > 0 exactly when x * QUANTUM > 0.5; the comparison also rejects NaN
    if not (type(value) in (int, float) and 0.5 < value * QUANTUM < math.inf):
        raise ConfigError(f"{name} must be a finite number that rounds to at least "
                          f"{1 / QUANTUM}, got {value!r}")


def _check_capacity(where: str, spec) -> None:
    """ConfigError unless spec gives each DC capacity as a finite number whose
    ledger value (to_milli) is positive, the compute product cpus * ram_gb too."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be a mapping, got {spec!r}")
    for key in ("max_storage_gb", "cpus", "ram_gb"):
        _check_ledger_value(f"{where}.{key}", spec.get(key))
    if not 0.5 < spec["cpus"] * spec["ram_gb"] * QUANTUM < math.inf:
        raise ConfigError(f"{where}: cpus * ram_gb must be finite and round to at least "
                          f"{1 / QUANTUM}")


def _check_int(name: str, value, low: int) -> None:
    if type(value) is not int or value < low:
        raise ConfigError(f"{name} must be an int >= {low}, got {value!r}")


def _check_number(name: str, value, high: float = math.inf) -> None:
    """ConfigError unless value is a finite int or float in [0, high]."""
    # the comparisons also reject NaN
    if not (type(value) in (int, float) and 0 <= value <= high and value < math.inf):
        bound = "non-negative number" if high == math.inf else f"number in [0, {high}]"
        raise ConfigError(f"{name} must be a finite {bound}, got {value!r}")


def _check_bundle_overrides(overrides) -> None:
    """ConfigError unless overrides maps SFC types to two ints lo, hi with
    0 <= lo <= hi, the range of a wave's request count ([0, 0]: none)."""
    if not isinstance(overrides, dict):
        raise ConfigError(f"requests.bundle_overrides must be a mapping, got {overrides!r}")
    for name, bundle in overrides.items():
        # a catalog overrides SFC types but adds none, so the default names are all
        if name not in DEFAULT_SFCS:
            raise ConfigError(f"requests.bundle_overrides: unknown SFC type {name!r}")
        if not (isinstance(bundle, (list, tuple)) and len(bundle) == 2
                and all(type(n) is int for n in bundle) and 0 <= bundle[0] <= bundle[1]):
            raise ConfigError(f"requests.bundle_overrides.{name} must be two ints lo, hi "
                              f"with 0 <= lo <= hi, got {bundle!r}")


def _check_entry(where: str, entry, required: tuple[str, ...],
                 allowed: tuple[str, ...]) -> None:
    """ConfigError unless entry is a mapping holding every required key and
    no key outside allowed."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be a mapping, got {entry!r}")
    for key in required:
        if key not in entry:
            raise ConfigError(f"{where} needs {key!r}, got {entry!r}")
    for key in entry:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}; expected {', '.join(allowed)}")


def _check_topology(topo: dict) -> None:
    """ConfigError unless the explicit node and edge lists are well formed:
    nodes {id: int, x, y: finite}, edges {m, n: int, capacity_mbps?,
    distance_km?: a number or null}, and no other key."""
    for name in ("nodes", "edges"):
        if not isinstance(topo[name], list):
            raise ConfigError(f"topology.{name} must be a list, got {topo[name]!r}")
    for i, node in enumerate(topo["nodes"]):
        where = f"topology.nodes[{i}]"
        _check_entry(where, node, ("id", "x", "y"), ("id", "x", "y"))
        _check_int(f"{where}.id", node["id"], 0)
        for key in ("x", "y"):
            value = node[key]
            if not (type(value) in (int, float) and math.isfinite(value)):
                raise ConfigError(f"{where}.{key} must be a finite number, got {value!r}")
    for i, edge in enumerate(topo["edges"]):
        where = f"topology.edges[{i}]"
        _check_entry(where, edge, ("m", "n"), ("m", "n", "capacity_mbps", "distance_km"))
        for key in ("m", "n"):
            _check_int(f"{where}.{key}", edge[key], 0)
        if "capacity_mbps" in edge:
            _check_ledger_value(f"{where}.capacity_mbps", edge["capacity_mbps"])
        # NetworkGraph rejects a negative or non-finite distance by its edge
        distance = edge.get("distance_km")
        if distance is not None and type(distance) not in (int, float):
            raise ConfigError(f"{where}.distance_km must be a number or null, "
                              f"got {distance!r}")


def _deep_merge(base: dict, override: dict, path="") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in base:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(base[key], dict) and isinstance(value, dict) and base[key]:
            out[key] = _deep_merge(base[key], value, path + key + ".")
        else:
            out[key] = copy.deepcopy(value)
    return out


class ScenarioConfig:
    def __init__(self, data: dict | None = None, seed: int = 0):
        data = data or {}
        if not isinstance(data, dict):
            raise ConfigError("scenario config must be a mapping")
        known = set(DEFAULTS) | {"seed"}
        bad = set(data) - known
        if bad:
            raise ConfigError(f"unknown config sections {sorted(bad)}")
        self.seed = int(data.get("seed", seed))
        merged = {}
        for section, defaults in DEFAULTS.items():
            override = data.get(section) or {}
            if section == "catalog":
                merged[section] = copy.deepcopy(override)
            elif isinstance(defaults, dict):
                if not isinstance(override, dict):
                    raise ConfigError(f"section {section!r} must be a mapping")
                merged[section] = _deep_merge(defaults, override, section + ".")
            else:
                merged[section] = copy.deepcopy(override)
        self.data = merged
        self._validate()

    def _validate(self) -> None:
        topo = self.data["topology"]
        if topo["nodes"] is None and topo["generator"] is None:
            raise ConfigError("topology required: give nodes or a generator")
        if (topo["nodes"] is None) != (topo["edges"] is None):
            raise ConfigError("explicit topology needs both nodes and edges")
        if topo["nodes"] is not None:
            _check_topology(topo)
        gen = topo["generator"]
        if gen is not None:
            if not isinstance(gen, dict):
                raise ConfigError(f"topology.generator must be a mapping, got {gen!r}")
            _check_int("topology.generator.n", gen["n"], 1)
            _check_int("topology.generator.seed", gen["seed"], 0)
            _check_number("topology.generator.radius_km", gen["radius_km"])
            _check_number("topology.generator.edge_prob", gen["edge_prob"], 1)
        _check_ledger_value("topology.default_capacity_mbps", topo["default_capacity_mbps"])
        policy = self.data["policy"]
        kind = policy["kind"]
        if kind not in ("heuristic", "dqn", "random"):
            raise ConfigError(f"unknown policy kind {kind!r}")
        if policy["t_urgency_steps"] is not None:
            _check_int("policy.t_urgency_steps", policy["t_urgency_steps"], 0)
        _check_number("policy.urgency_fraction", policy["urgency_fraction"])
        weights = policy["weights"]
        # the comparison also rejects NaN
        if not (isinstance(weights, (list, tuple)) and len(weights) == 4 and all(
                type(w) in (int, float) and 0 <= w < math.inf for w in weights)):
            raise ConfigError(f"policy.weights must be four finite non-negative numbers, "
                              f"got {weights!r}")
        dcs = self.data["datacenters"]
        per_dc = dcs["per_dc"]
        if per_dc is not None and not isinstance(per_dc, list):
            raise ConfigError(f"datacenters.per_dc must be a list, got {per_dc!r}")
        if dcs["count"] is not None:
            _check_int("datacenters.count", dcs["count"], 1)
        _check_capacity("datacenters", dcs)
        for i, spec in enumerate(per_dc or ()):
            _check_capacity(f"datacenters.per_dc[{i}]", spec)
        dqn = self.data["dqn"]
        if dqn["credit"] != "outcome":
            raise ConfigError(f"dqn.credit must be 'outcome', got {dqn['credit']!r}")
        if dqn["reward"]["step"] != 0:
            raise ConfigError(f"dqn.reward.step must be 0, got {dqn['reward']['step']!r}")
        for key in ("complete", "drop", "invalid"):
            _check_number(f"dqn.reward.{key}", dqn["reward"][key])
        for key, high in (("lr", math.inf), ("grad_clip", math.inf), ("eps_start", 1),
                          ("eps_min", 1), ("eps_eval", 1), ("guide_frac", 1)):
            _check_number(f"dqn.{key}", dqn[key], high)
        for name, low in (("policy.t_model", 1), ("policy.t_thresh", 0), ("run.step_cap", 1),
                          ("run.sample_period", 0), ("dqn.t_model", 1), ("dqn.target_sync", 1),
                          ("dqn.batch", 1), ("dqn.buffer", 1), ("dqn.count_cap", 1),
                          ("dqn.max_actions", 1), ("dqn.train_interval", 1),
                          ("dqn.min_buffer", 0), ("dqn.episodes", 0),
                          ("dqn.checkpoint_every", 1)):
            section, key = name.split(".")
            _check_int(name, self.data[section][key], low)
        for name in ("topology.propagation", "requests.allow_loopback"):
            section, key = name.split(".")
            if type(self.data[section][key]) is not bool:
                raise ConfigError(f"{name} must be true or false, "
                                  f"got {self.data[section][key]!r}")
        hidden = dqn["hidden"]
        if not (isinstance(hidden, (list, tuple)) and len(hidden) == 2
                and all(type(h) is int and h >= 1 for h in hidden)):
            raise ConfigError(f"dqn.hidden must be two positive ints, got {hidden!r}")
        if dqn["buffer"] < dqn["batch"]:
            # a ring smaller than one batch never reaches train_step
            raise ConfigError(f"dqn.buffer ({dqn['buffer']}) must be >= dqn.batch "
                              f"({dqn['batch']})")
        req = self.data["requests"]
        _check_bundle_overrides(req["bundle_overrides"])
        # reject malformed wave plans early
        schedule_waves(req["wave_times"], req["manual"])

    # -- canonical form -------------------------------------------------------

    def resolved(self) -> dict:
        out = copy.deepcopy(self.data)
        out["seed"] = self.seed
        return out

    def config_hash(self) -> str:
        canon = json.dumps(self.resolved(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def write_copy(self, out_dir: str) -> None:
        """Write config_used.json (the hash and the resolved config) into out_dir."""
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "config_used.json"), "w") as fh:
            json.dump({"config_hash": self.config_hash(), "config": self.resolved()},
                      fh, sort_keys=True, indent=2)
            fh.write("\n")

    def with_overrides(self, pairs: dict[str, object]) -> "ScenarioConfig":
        """Apply dotted-key overrides like {"policy.kind": "dqn"}."""
        data = self.resolved()
        seed = data.pop("seed")
        for dotted, value in pairs.items():
            parts = dotted.split(".")
            if parts == ["seed"]:
                seed = int(value)
                continue
            node = data
            for part in parts[:-1]:
                if part not in node or not isinstance(node[part], dict):
                    raise ConfigError(f"unknown override path {dotted!r}")
                node = node[part]
            if parts[-1] not in node and parts[0] != "catalog":
                raise ConfigError(f"unknown override path {dotted!r}")
            node[parts[-1]] = value
        return ScenarioConfig(data, seed=seed)

    # -- builders ----------------------------------------------------------------

    def build_catalog(self) -> Catalog:
        try:
            return load_catalog(self.data["catalog"])
        except CatalogError as exc:
            raise ConfigError(str(exc)) from exc

    def build_graph(self) -> NetworkGraph:
        topo = self.data["topology"]
        try:
            if topo["nodes"] is not None:
                nodes = [(int(n["id"]), float(n["x"]), float(n["y"])) for n in topo["nodes"]]
                edges = []
                for e in topo["edges"]:
                    edges.append((int(e["m"]), int(e["n"]),
                                  float(e.get("capacity_mbps", topo["default_capacity_mbps"])),
                                  e.get("distance_km")))
                return NetworkGraph(nodes, edges, propagation=topo["propagation"])
            gen = topo["generator"]
            return circle_topology(
                int(gen["n"]), float(gen["radius_km"]), float(gen["edge_prob"]),
                int(gen.get("seed", 0)), capacity_mbps=float(topo["default_capacity_mbps"]),
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
        if kind == "dqn":
            from .dqn import DqnPolicy, load_agent

            ckpt = self.data["policy"]["checkpoint"]
            if ckpt is None:
                raise ConfigError("policy.kind dqn needs policy.checkpoint")
            agent = load_agent(ckpt)
            return DqnPolicy(agent, self, seed)
        raise ConfigError(kind)


def load_config(path: str, seed: int | None = None,
                overrides: dict[str, object] | None = None) -> ScenarioConfig:
    """Load a scenario from a YAML/JSON file or a builtin name."""
    if path in BUILTIN_SCENARIOS:
        data = copy.deepcopy(BUILTIN_SCENARIOS[path])
    else:
        with open(path) as fh:
            data = yaml.safe_load(fh) or {}
    cfg = ScenarioConfig(data, seed=0 if seed is None else seed)
    if seed is not None:
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
        t_thresh=int(pol["t_thresh"]),
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
