"""The rule table: every config key has exactly one rule, and the table is
what the README documents."""

import copy
import dataclasses
import re
from collections import defaultdict
from pathlib import Path

import pytest

from sfcsim.catalog import SfcType, VnfType
from sfcsim.cli import EXIT_CONFIG, main
from sfcsim.config import (
    DEFAULTS,
    RULES,
    ConfigError,
    ScenarioConfig,
    load_config,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def default_leaves(tree, prefix=""):
    """The dotted path of each leaf of DEFAULTS; an empty mapping is a leaf."""
    for key, value in tree.items():
        if isinstance(value, dict) and value:
            yield from default_leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def named_leaf(path: str) -> str:
    """The DEFAULTS leaf, or catalog field, a table path names: a list's
    entry rules name the list, and a type-name entry names its mapping."""
    path = path.replace("?", "")
    if "[]" in path:
        return path.split("[]")[0]
    return ".".join(part for part in path.split(".") if not part.startswith("<"))


class TestTable:
    def test_every_key_has_exactly_one_rule(self):
        leaves = set(default_leaves(DEFAULTS)) - {"catalog"}
        leaves |= {f"catalog.{section}.{field.name}"
                   for section, typ in (("vnfs", VnfType), ("sfcs", SfcType))
                   for field in dataclasses.fields(typ) if field.name != "name"}
        paths = [path for path, _ in RULES]
        assert len(paths) == len(set(paths))
        rules_of = defaultdict(list)
        for path in paths:
            rules_of[named_leaf(path)].append(path)
        assert set(rules_of) == leaves
        for leaf, rules in rules_of.items():
            # a list of entries has one rule per entry field, any other leaf one
            if len(rules) > 1:
                assert all("[]" in path for path in rules), rules

    def test_every_default_passes_its_rule(self):
        # a config checks the values it is given, so the defaults must pass
        ScenarioConfig(copy.deepcopy(DEFAULTS))

    def test_a_key_is_marked_alike_on_every_path(self):
        # the first path through a mapping or list sets whether it may be null
        spellings = defaultdict(set)
        for path, _ in RULES:
            parts = path.split(".")
            for i, part in enumerate(parts):
                spellings[tuple(p.rstrip("?[]") for p in parts[:i + 1])].add(part)
        assert {key: marks for key, marks in spellings.items() if len(marks) > 1} == {}

    def test_readme_lists_the_table_in_order(self):
        text = README.read_text()
        section = text.split("\n## Config rules\n", 1)[1].split("\n## ", 1)[0]
        listed = re.findall(r"^- `([^`]+)`: ", section, flags=re.M)
        assert listed == [path for path, _ in RULES]


class TestClosedHoles:
    @pytest.mark.parametrize("key, value", [
        ("branch_dim", 0), ("branch_dim", 2.5), ("branch_dim", "abc"), ("branch_dim", True),
        ("gamma", "abc"), ("gamma", 1.5), ("gamma", -0.1), ("gamma", float("nan")),
    ])
    def test_bad_dqn_width_or_discount(self, key, value):
        # a zero branch_dim trained a zero-width layer, 2.5 trained as 2, and
        # abc ended in int()'s ValueError; gamma took any value
        with pytest.raises(ConfigError, match=f"dqn.{key} must be"):
            ScenarioConfig({"dqn": {key: value}})

    def test_bad_branch_dim_from_the_command_line(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["train", "--scenario", "tiny", "--episodes", "1", "--quiet",
                     "--out", str(out), "--set", "dqn.branch_dim=abc"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            "config error: dqn.branch_dim must be an int >= 1, got 'abc'")
        assert not out.exists()

    def test_checkpoint_path_must_be_a_string(self, tmp_path, capsys):
        # it ended in a TypeError when the checkpoint was opened
        out = tmp_path / "o"
        code = main(["run", "--scenario", "tiny", "--policy", "dqn", "--out", str(out),
                     "--set", "policy.checkpoint=5"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            "config error: policy.checkpoint must be a string or null, got 5")
        assert not out.exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"dqn.reward": 5}, "dqn.reward must be a mapping, got 5"),
        ({"requests.wave_times": 5}, "requests.wave_times must be a list of whole numbers"),
        ({"requests.wave_times": [0, float("inf")]}, "requests.wave_times must be"),
        ({"requests.wave_times": [0, 2.5]},
         "requests.wave_times must be a list of whole numbers, got [0, 2.5]"),
        ({"requests.wave_times": [0, "abc"]}, "requests.wave_times must be"),
        ({"requests.wave_times": [True]}, "requests.wave_times must be"),
        ({"requests.wave_times": [0], "requests.manual": [5]},
         "requests.manual must be a list of request lists"),
        ({"requests.wave_times": [0], "requests.manual": [[5]]}, "requests.manual must be"),
        ({"requests.wave_times": [100, 0]}, "requests: wave times must be sorted ascending"),
        ({"requests.wave_times": [0, 5], "requests.manual": [[]]},
         "requests: manual mode needs one request list per wave"),
        ({"datacenters.per_dc": [{"max_storage_gb": 10, "cpus": 2, "ram_gb": 4, "gpus": 1}]},
         "unknown key 'gpus' in datacenters.per_dc[0]"),
    ], ids=["reward-int", "waves-int", "waves-inf", "waves-fractional", "waves-str", "waves-bool",
            "manual-wave-int", "manual-spec-int", "waves-descending", "manual-count",
            "per-dc-extra-key"])
    def test_other_keys_the_table_reaches(self, overrides, message):
        # each ended in a traceback or raised a plain ValueError, but the
        # extra per_dc key was ignored, the bool wave time ran as 1 and the
        # fractional one ran truncated
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config("tiny").with_overrides(overrides)

    def test_min_buffer_above_buffer_is_refused(self, tmp_path, capsys):
        # the ring never holds more than dqn.buffer transitions, so training
        # waited for a size it never reached: every episode's loss read 0.0
        out = tmp_path / "o"
        code = main(["train", "--scenario", "tiny", "--episodes", "2", "--quiet",
                     "--out", str(out), "--set", "dqn.min_buffer=6000"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            "config error: dqn.buffer (5000) must be >= dqn.min_buffer (6000)")
        assert not out.exists()
        load_config("tiny", overrides={"dqn.min_buffer": 5000})  # a full ring trains

    def test_a_whole_float_wave_time_runs_at_its_step(self):
        plan = load_config("tiny", overrides={"requests.wave_times": [2500.0]}).build_plan()
        assert plan.times == (2500,)

    def test_null_edge_capacity_is_the_default(self):
        nodes = [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 1, "y": 0}]
        graphs = [load_config("tiny", overrides={"topology.nodes": nodes,
                                                 "topology.edges": [edge]}).build_graph()
                  for edge in ({"m": 0, "n": 1}, {"m": 0, "n": 1, "capacity_mbps": None})]
        assert graphs[0].edge_keys() == graphs[1].edge_keys()
        assert [graph.capacity_mbps(0, 1) for graph in graphs] == [500.0, 500.0]


class TestOverridesAreChecked:
    def test_overrides_are_checked_by_every_rule(self):
        cfg = load_config("paper5dc")
        with pytest.raises(ConfigError, match="dqn.lr must be"):
            cfg.with_overrides({"policy.t_model": 2, "dqn.lr": -1})
        with pytest.raises(ConfigError, match=r"dqn.buffer \(8\) must be >= dqn.batch"):
            cfg.with_overrides({"dqn.buffer": 8})
        with pytest.raises(ConfigError, match="seed must be an int >= 0"):
            cfg.with_overrides({"seed": -1})
