"""Line-delimited episode trace output (JSON records, schema versioned)."""

from __future__ import annotations

import json

TRACE_SCHEMA = "sfcsim-trace-1"


class TraceWriter:
    """Writes one JSON object per line; first line is the schema header."""

    def __init__(self, fh):
        self._fh = fh
        self._fh.write(json.dumps({"schema": TRACE_SCHEMA}, sort_keys=True) + "\n")

    def event(self, step: int, kind: str, **fields) -> None:
        rec = {"step": step, "event": kind}
        rec.update(fields)
        self._fh.write(json.dumps(rec, sort_keys=True) + "\n")


class NullTrace:
    def event(self, step, kind, **fields):
        pass


def read_trace(path):
    """Yield trace records from a file written by TraceWriter."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        if header.get("schema") != TRACE_SCHEMA:
            raise ValueError(f"unexpected trace schema {header.get('schema')!r}")
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)
