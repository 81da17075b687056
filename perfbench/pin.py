"""Re-pin the outcome digests of the benchmark's workloads.

    python3 perfbench/pin.py                 # every workload
    python3 perfbench/pin.py heuristic-5dc   # one workload, others kept

Run from the root of a source checkout. A change to simulated behaviour
re-pins in a change of its own, saying why.
"""

from __future__ import annotations

import json
import sys

import run  # pins BLAS threads before numpy loads
from workloads import PINS_SCHEMA, WORKLOADS, pin_workload


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or sorted(WORKLOADS)
    run.import_sfcsim()
    try:
        pins = run.load_pins()
    except FileNotFoundError:
        pins = {}
    for name in names:
        print(f"pinning {name}", flush=True)
        pins[name] = pin_workload(WORKLOADS[name])
    run.PINS_PATH.write_text(json.dumps({"schema": PINS_SCHEMA, "workloads": pins},
                                        sort_keys=True, indent=1) + "\n")
    print(f"wrote {run.PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
