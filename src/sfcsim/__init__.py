"""Discrete-event simulator for SFC provisioning over a datacenter graph."""

from .catalog import Catalog, SfcType, VnfType, default_catalog, load_catalog
from .datacenter import DataCenter
from .engine import Engine, EpisodeResult, run_episode, tx_steps
from .metrics import MetricsBundle
from .policy import HeuristicPolicy, PolicyAction, PriorityWeights
from .requestgen import RequestGenerator, SfcRecord, VnfState, WavePlan, schedule_waves
from .topology import NetworkGraph, PathResult, circle_topology

__version__ = "0.1.0"

__all__ = [
    "Catalog", "SfcType", "VnfType", "default_catalog", "load_catalog",
    "DataCenter", "Engine", "EpisodeResult", "run_episode", "tx_steps",
    "MetricsBundle", "HeuristicPolicy", "PolicyAction", "PriorityWeights",
    "RequestGenerator", "SfcRecord", "VnfState", "WavePlan", "schedule_waves",
    "NetworkGraph", "PathResult", "circle_topology",
    "__version__",
]
