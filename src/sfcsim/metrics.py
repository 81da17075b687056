"""Acceptance ratio, per-type E2E statistics, resource time series, export.

Counters are exact integers; the acceptance ratio is only ever computed from
them at read time. E2E statistics cover accepted requests only.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

from .catalog import STEPS_PER_MS

SUMMARY_SCHEMA = "sfcsim-summary-1"


class MetricsError(Exception):
    pass


def nearest_rank_p95(sorted_values):
    """p95 by nearest rank on an ascending list."""
    import math

    if not sorted_values:
        return None
    rank = math.ceil(0.95 * len(sorted_values))
    return sorted_values[rank - 1]


@dataclass
class MetricsBundle:
    config_hash: str = ""
    seed: int = 0
    generated: dict[str, int] = field(default_factory=dict)
    accepted: dict[str, int] = field(default_factory=dict)
    dropped: dict[str, int] = field(default_factory=dict)
    e2e_steps: dict[str, list[int]] = field(default_factory=dict)
    # (step, dc_id, storage used frac, compute used frac)
    resource_rows: list[tuple[int, int, float, float]] = field(default_factory=list)
    _finalized: set = field(default_factory=set)

    # -- recording ---------------------------------------------------------

    def record_generated(self, type_name: str, n: int = 1) -> None:
        self.generated[type_name] = self.generated.get(type_name, 0) + n

    def record_completion(self, record, deadline_steps: int) -> None:
        if record.tag in self._finalized:
            raise MetricsError(f"tag {record.tag} finalized twice")
        if record.e2e_steps > deadline_steps:
            raise MetricsError("completions past the deadline must be recorded as drops")
        self._finalized.add(record.tag)
        self.accepted[record.type_name] = self.accepted.get(record.type_name, 0) + 1
        self.e2e_steps.setdefault(record.type_name, []).append(record.e2e_steps)

    def record_drop(self, record) -> None:
        if record.tag in self._finalized:
            raise MetricsError(f"tag {record.tag} finalized twice")
        self._finalized.add(record.tag)
        self.dropped[record.type_name] = self.dropped.get(record.type_name, 0) + 1

    def sample_resources(self, step: int, dcs) -> None:
        for dc in dcs:
            self.resource_rows.append(
                (step, dc.dc_id, dc.storage_used_frac(), dc.compute_used_frac())
            )

    # -- aggregates ----------------------------------------------------------

    def total_generated(self) -> int:
        return sum(self.generated.values())

    def total_accepted(self) -> int:
        return sum(self.accepted.values())

    def acceptance_ratio(self) -> float | None:
        total = self.total_generated()
        if total == 0:
            return None
        return self.total_accepted() / total

    def per_type_ratio(self) -> dict[str, float]:
        return {
            name: self.accepted.get(name, 0) / count
            for name, count in sorted(self.generated.items())
            if count > 0
        }

    def e2e_stats_ms(self) -> dict[str, dict]:
        out = {}
        for name in sorted(self.e2e_steps):
            values = sorted(self.e2e_steps[name])
            n = len(values)
            if n == 0:
                continue
            if n % 2:
                median = values[n // 2]
            else:
                median = (values[n // 2 - 1] + values[n // 2]) / 2.0
            out[name] = {
                "count": n,
                "mean_ms": sum(values) / n / STEPS_PER_MS,
                "median_ms": median / STEPS_PER_MS,
                "p95_ms": nearest_rank_p95(values) / STEPS_PER_MS,
            }
        return out

    def mean_resource_fracs(self) -> dict[str, dict[str, float]]:
        """Time-mean storage/compute used fraction per DC plus an all-DC mean."""
        per_dc: dict[int, list[tuple[float, float]]] = {}
        for _, dc_id, storage, compute in self.resource_rows:
            per_dc.setdefault(dc_id, []).append((storage, compute))
        out = {}
        all_samples = []
        for dc_id in sorted(per_dc):
            samples = per_dc[dc_id]
            all_samples.extend(samples)
            out[str(dc_id)] = {
                "storage": sum(s for s, _ in samples) / len(samples),
                "compute": sum(c for _, c in samples) / len(samples),
            }
        if all_samples:
            out["all"] = {
                "storage": sum(s for s, _ in all_samples) / len(all_samples),
                "compute": sum(c for _, c in all_samples) / len(all_samples),
            }
        return out

    def check_conservation(self) -> None:
        for name, count in self.generated.items():
            done = self.accepted.get(name, 0) + self.dropped.get(name, 0)
            if done != count:
                raise MetricsError(f"{name}: accepted+dropped {done} != generated {count}")

    # -- export ----------------------------------------------------------------

    def summary_dict(self) -> dict:
        return {
            "schema": SUMMARY_SCHEMA,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "no_requests": self.total_generated() == 0,
            "generated": dict(sorted(self.generated.items())),
            "accepted": dict(sorted(self.accepted.items())),
            "dropped": dict(sorted(self.dropped.items())),
            "acceptance_ratio": self.acceptance_ratio(),
            "per_type_ratio": self.per_type_ratio(),
            "e2e_ms": self.e2e_stats_ms(),
            "mean_resources": self.mean_resource_fracs(),
            "n_resource_samples": len(self.resource_rows),
        }

    def export(self, out_dir: str) -> dict[str, str]:
        """Write acceptance.csv, e2e.csv, resources.csv and summary.json."""
        self.check_conservation()
        os.makedirs(out_dir, exist_ok=True)
        paths = {}

        paths["acceptance"] = os.path.join(out_dir, "acceptance.csv")
        with open(paths["acceptance"], "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["sfc_type", "generated", "accepted", "dropped", "ratio"])
            for name in sorted(self.generated):
                gen = self.generated[name]
                acc = self.accepted.get(name, 0)
                w.writerow([name, gen, acc, self.dropped.get(name, 0),
                            repr(acc / gen) if gen else ""])

        paths["e2e"] = os.path.join(out_dir, "e2e.csv")
        with open(paths["e2e"], "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["sfc_type", "count", "mean_ms", "median_ms", "p95_ms"])
            for name, stats in self.e2e_stats_ms().items():
                w.writerow([name, stats["count"], repr(stats["mean_ms"]),
                            repr(stats["median_ms"]), repr(stats["p95_ms"])])

        paths["resources"] = os.path.join(out_dir, "resources.csv")
        with open(paths["resources"], "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["step", "dc_id", "storage_used_frac", "compute_used_frac"])
            for step, dc_id, storage, compute in self.resource_rows:
                w.writerow([step, dc_id, repr(storage), repr(compute)])

        paths["summary"] = os.path.join(out_dir, "summary.json")
        with open(paths["summary"], "w") as fh:
            json.dump(self.summary_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
        return paths


def import_summary(path: str) -> dict:
    """Load a summary.json written by export(); schema checked."""
    with open(path) as fh:
        data = json.load(fh)
    if data.get("schema") != SUMMARY_SCHEMA:
        raise MetricsError(f"unexpected summary schema {data.get('schema')!r}")
    return data
