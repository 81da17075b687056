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

import yaml

from .catalog import Catalog, CatalogError, load_catalog
from .datacenter import DataCenter
from .metrics import MetricsBundle
from .policy import HeuristicPolicy, PriorityWeights, RandomPolicy
from .requestgen import RequestError, RequestGenerator, WavePlan, schedule_waves
from .topology import NetworkGraph, TopologyError, circle_topology


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
        kind = self.data["policy"]["kind"]
        if kind not in ("heuristic", "dqn", "random"):
            raise ConfigError(f"unknown policy kind {kind!r}")
        if self.data["policy"]["t_model"] < 1:
            raise ConfigError("t_model must be >= 1")
        weights = self.data["policy"]["weights"]
        # the comparison also rejects NaN
        if not (isinstance(weights, (list, tuple)) and len(weights) == 4 and all(
                type(w) in (int, float) and 0 <= w < math.inf for w in weights)):
            raise ConfigError(f"policy.weights must be four finite non-negative numbers, "
                              f"got {weights!r}")
        dqn = self.data["dqn"]
        if dqn["credit"] != "outcome":
            raise ConfigError(f"dqn.credit must be 'outcome', got {dqn['credit']!r}")
        if dqn["reward"]["step"] != 0:
            raise ConfigError(f"dqn.reward.step must be 0, got {dqn['reward']['step']!r}")
        for key, low in (("t_model", 1), ("target_sync", 1), ("batch", 1), ("buffer", 1),
                         ("count_cap", 1), ("max_actions", 1), ("train_interval", 1),
                         ("min_buffer", 0)):
            if type(dqn[key]) is not int or dqn[key] < low:
                raise ConfigError(f"dqn.{key} must be an int >= {low}, got {dqn[key]!r}")
        hidden = dqn["hidden"]
        if not (isinstance(hidden, (list, tuple)) and len(hidden) == 2
                and all(type(h) is int and h >= 1 for h in hidden)):
            raise ConfigError(f"dqn.hidden must be two positive ints, got {hidden!r}")
        if dqn["buffer"] < dqn["batch"]:
            # a ring smaller than one batch never reaches train_step
            raise ConfigError(f"dqn.buffer ({dqn['buffer']}) must be >= dqn.batch "
                              f"({dqn['batch']})")
        # reject malformed wave plans early
        schedule_waves(self.data["requests"]["wave_times"],
                       self.data["requests"]["manual"])

    # -- canonical form -------------------------------------------------------

    def resolved(self) -> dict:
        out = copy.deepcopy(self.data)
        out["seed"] = self.seed
        return out

    def config_hash(self) -> str:
        canon = json.dumps(self.resolved(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

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
        if cfg["per_dc"] is not None:
            specs = cfg["per_dc"]
        else:
            count = cfg["count"] if cfg["count"] is not None else graph.n
            specs = [
                {"max_storage_gb": cfg["max_storage_gb"], "cpus": cfg["cpus"],
                 "ram_gb": cfg["ram_gb"]}
            ] * int(count)
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
        overrides = {k: tuple(v) for k, v in (req["bundle_overrides"] or {}).items()}
        return RequestGenerator(catalog, n_dcs, seed,
                                bundle_overrides=overrides or None,
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
