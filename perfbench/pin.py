#!/usr/bin/env python3
"""Rewrite perfbench/pins.json: the deterministic outputs of each workload.

    python3 perfbench/pin.py --sizing-seed 1 --held-out-seed 1009 SEED...

Runs one set-up and one untimed pass of every workload per seed and
records each input's outputs.  Run it only when the workloads or their
sizes change on purpose; a change to the program must leave the pins
alone, which is the point of them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import workloads as wl  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizing-seed", type=int, required=True)
    parser.add_argument("--held-out-seed", type=int, required=True)
    parser.add_argument("seeds", type=int, nargs="*")
    args = parser.parse_args()
    seeds = sorted({args.sizing_seed, args.held_out_seed, *args.seeds})
    sizes = wl.Sizes()
    outputs: dict = {name: {} for name in run.WORKLOAD_NAMES}
    run.WORK_ROOT.mkdir(exist_ok=True)
    for seed in seeds:
        for name in run.WORKLOAD_NAMES:
            work = Path(tempfile.mkdtemp(dir=run.WORK_ROOT))
            try:
                outcome = run.run_benchmark(name, seed, 0.0, False, sizes,
                                            {}, work, setup_repeats=1)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if outcome.problems:
                raise SystemExit(f"{name} seed {seed}: {outcome.problems}")
            outputs[name][str(seed)] = [
                timed.rep.outputs for timed in outcome.cycles[0].reps]
            print(f"pinned {name} seed {seed}", file=sys.stderr)
    run.WORK_ROOT.rmdir()
    doc = {"sizing_seed": args.sizing_seed,
           "held_out_seed": args.held_out_seed,
           "sizes": sizes.as_dict(),
           "outputs": outputs}
    run.PINS_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
