#!/usr/bin/env python3
"""Regenerate wdcperf/digests.json, the per-seed digests the benchmark checks.

Run from the root of a checkout:

    python3 wdcperf/pin.py [seed ...]

Without arguments it pins seeds 0-20 and the held-out seed. Each digest comes
from the harness's --reference path: a one-call run and a serial sweep, so
the benchmark's own timed path (stepped epochs, a 2-thread pool) is checked
against a different execution of the same inputs. Re-pin only when a change
is meant to alter simulated results, and say so in the change.
"""

import json
import subprocess
import sys
import time

import run

PINNED_WORKLOADS = ("grid_paper", "cell_pop")


def main():
    seeds = [int(s) for s in sys.argv[1:]] or [*range(21), run.HELD_OUT_SEED]
    if not run.build(time.monotonic() + 900.0):
        return 1
    try:
        with open(run.DIGESTS) as f:
            pins = json.load(f)
    except (OSError, ValueError):
        pins = {}
    for workload in PINNED_WORKLOADS:
        table = pins.setdefault(workload, {})
        for seed in seeds:
            out = subprocess.run(
                [run.BINARY, "--workload", workload, "--seed", str(seed),
                 "--reference", "1"],
                stdout=subprocess.PIPE, text=True, check=True).stdout
            table[str(seed)] = json.loads(out.strip().splitlines()[-1])["digest"]
            run.log(f"{workload} seed {seed}: {table[str(seed)]}")
        pins[workload] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    with open(run.DIGESTS, "w") as f:
        json.dump(pins, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
