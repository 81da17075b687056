"""Tracing of sfcsim layers from outside the package.

A Tracer replaces public functions and methods of the sfcsim modules with
timing wrappers, each patched where the caller looks the name up, and puts
the originals back on uninstall. Every wrapped call is timed with integer
nanoseconds; its self time is its duration minus the durations of the
wrapped calls made inside it. Totals are kept per (name, parent name).
Calls of the low-frequency names are also kept as spans (id, name, start,
end, parent span id) in memory until the run ends; names called more than
about 1e5 times per episode are only aggregated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

# (layer name, module, attribute path, keep every span)
# A function imported by name is patched in the module whose globals the
# caller reads: the engine calls select_for_allocation through
# sfcsim.engine, and select_for_allocation calls priority through
# sfcsim.policy.
TARGETS = [
    ("policy.act", "sfcsim.policy", "HeuristicPolicy.act", True),
    ("policy.act", "sfcsim.dqn", "DqnTrainingPolicy.act", True),
    ("policy.select_for_allocation", "sfcsim.engine", "select_for_allocation", True),
    ("policy.priority", "sfcsim.policy", "priority", False),
    ("engine.step", "sfcsim.engine", "Engine.step", True),
    ("engine.apply_action", "sfcsim.engine", "Engine.apply_action", True),
    ("engine.cached_min_path", "sfcsim.engine", "Engine.cached_min_path", False),
    ("topology.select_min_path", "sfcsim.topology", "NetworkGraph.select_min_path", False),
    ("topology.reserve_bw", "sfcsim.topology", "NetworkGraph.reserve_bw", True),
    ("topology.release_bw", "sfcsim.topology", "NetworkGraph.release_bw", True),
    ("datacenter.tick_idle", "sfcsim.datacenter", "DataCenter.tick_idle", False),
    ("datacenter.install_vnf", "sfcsim.datacenter", "DataCenter.install_vnf", True),
    ("datacenter.uninstall_vnf", "sfcsim.datacenter", "DataCenter.uninstall_vnf", True),
    ("dqn.encode", "sfcsim.dqn", "StateEncoder.encode", True),
    ("dqn.forward", "sfcsim.dqn", "QNetwork.forward_cached", True),
    ("dqn.backward", "sfcsim.dqn", "QNetwork.backward", True),
    ("dqn.train_step", "sfcsim.dqn", "DqnAgent.train_step", True),
    ("dqn.replay.push", "sfcsim.dqn", "ReplayBuffer.push", True),
    ("dqn.replay.sample", "sfcsim.dqn", "ReplayBuffer.sample", True),
    ("requestgen.generate_wave", "sfcsim.requestgen", "RequestGenerator.generate_wave", True),
    ("metrics.record", "sfcsim.metrics", "MetricsBundle.record_generated", False),
    ("metrics.record", "sfcsim.metrics", "MetricsBundle.record_completion", False),
    ("metrics.record", "sfcsim.metrics", "MetricsBundle.record_drop", False),
    ("metrics.record", "sfcsim.metrics", "MetricsBundle.sample_resources", False),
    ("trace.event", "sfcsim.trace", "TraceWriter.event", False),
]

EPISODE = "episode"


@dataclass
class Agg:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


class Tracer:
    def __init__(self):
        self.agg: dict[tuple[str, str | None], Agg] = {}
        self.spans: list[tuple[int, str, int, int, int]] = []
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # [name, child ns, span id or -1]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- timing ----------------------------------------------------------------

    def _parent_span(self) -> int:
        for frame in reversed(self._stack):
            if frame[2] >= 0:
                return frame[2]
        return -1

    def timed(self, name: str, fn, args=(), kwargs=None, keep_span: bool = True):
        """Call fn(*args, **kwargs) as one traced call of layer `name`."""
        span_id = -1
        if keep_span:
            span_id = self._next_id
            self._next_id += 1
        parent_span = self._parent_span() if keep_span else -1
        frame = [name, 0, span_id]
        stack = self._stack
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            dur = end - start
            parent = stack[-1] if stack else None
            if parent is not None:
                parent[1] += dur
            key = (name, parent[0] if parent is not None else None)
            agg = self.agg.get(key)
            if agg is None:
                agg = self.agg[key] = Agg()
            agg.calls += 1
            agg.total_ns += dur
            agg.self_ns += dur - frame[1]
            if keep_span:
                self.spans.append((span_id, name, start, end, parent_span))

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- patching ----------------------------------------------------------------

    def install(self) -> None:
        import importlib

        from sfcsim.datacenter import InsufficientResources
        from sfcsim.policy import ALLOCATE

        hooks = {
            "engine.apply_action": lambda args, ok: self._on_action(args[1], ok),
            "topology.select_min_path": lambda args, path: self.count(
                "topology.select_min_path.found", path is not None),
            "datacenter.tick_idle": lambda args, reaped: self.count(
                "datacenter.tick_idle.reaped", len(reaped)),
        }
        self._allocate_kind = ALLOCATE
        for name, module_name, path, keep in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            on_error = InsufficientResources if name == "datacenter.install_vnf" else None
            wrapper = self._wrap(name, original, keep, hooks.get(name), on_error)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _on_action(self, action, ok: bool) -> None:
        self.count("engine.apply_action.ok", bool(ok))
        if ok and action.kind == self._allocate_kind:
            self.count("allocations")

    def _wrap(self, name, fn, keep, on_result, refused):
        timed = self.timed
        count = self.count

        def wrapper(*args, **kwargs):
            try:
                result = timed(name, fn, args, kwargs, keep)
            except Exception as exc:
                if refused is not None and isinstance(exc, refused):
                    count(name + ".refused")
                raise
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading -------------------------------------------------------------------

    def layer_totals(self) -> dict[str, Agg]:
        """Totals per layer name, summed over parents."""
        out: dict[str, Agg] = {}
        for (name, _), agg in self.agg.items():
            tot = out.setdefault(name, Agg())
            tot.calls += agg.calls
            tot.total_ns += agg.total_ns
            tot.self_ns += agg.self_ns
        return out

    def episode_seconds(self) -> list[float]:
        return [(end - start) / 1e9 for _, name, start, end, _ in self.spans if name == EPISODE]
