"""The JSONL episode trace: written by TraceWriter, read back by read_trace."""

import json

import pytest

from sfcsim.config import load_config, make_runtime
from sfcsim.engine import run_episode
from sfcsim.policy import HeuristicPolicy
from sfcsim.trace import TRACE_SCHEMA, TraceWriter, read_trace

from helpers import ListTrace


class Tee:
    def __init__(self, *sinks):
        self.sinks = sinks

    def event(self, step, kind, **fields):
        for sink in self.sinks:
            sink.event(step, kind, **fields)


def test_read_trace_returns_the_events_written(tmp_path):
    path = tmp_path / "trace.jsonl"
    seen = ListTrace()
    with open(path, "w") as fh:
        cfg = load_config("paper3dc", seed=0, overrides={"requests.wave_times": [0]})
        engine, gen, plan = make_runtime(cfg, trace=Tee(TraceWriter(fh), seen))
        run_episode(engine, gen, plan, HeuristicPolicy())
    events = list(read_trace(path))
    assert {"inject", "allocate", "tx_start", "complete", "reap"} <= {
        e["event"] for e in events}
    assert events == [json.loads(json.dumps(e)) for e in seen.events]


def test_read_trace_rejects_a_foreign_schema(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text(json.dumps({"schema": TRACE_SCHEMA + "-other"}) + "\n"
                    + json.dumps({"step": 0, "event": "inject"}) + "\n")
    with pytest.raises(ValueError, match="unexpected trace schema"):
        list(read_trace(path))
