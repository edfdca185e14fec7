"""One set-up of a benchmark run, in a fresh interpreter.

``run.py`` starts this several times per run and times each process from
start to exit, which is the ``setup_s`` sample: the import of the
``repro`` stack, plus, for the archive workloads, simulating the study
and saving its archives.  The last line of stdout is a JSON document
with the archives written, the host calibrations taken as the process
starts and ends, and, with ``--trace``, the set-up self times.

    python3 perfbench/child_setup.py --workload NAME --seed N --out DIR [--trace]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from spanledger import SpanRecorder, calibrate, maybe_span, self_times  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    first = calibrate()
    recorder = SpanRecorder() if args.trace else None
    with maybe_span(recorder, "setup.import"):
        import repro  # noqa: F401
        import repro.analysis  # noqa: F401
        import repro.workload.campaign  # noqa: F401
        import workloads
    archives = []
    if args.workload != "campaign":
        sizes = workloads.Sizes()
        configs = workloads.input_configs(sizes, args.seed,
                                          sizes.archive_inputs)
        for i, config in enumerate(configs):
            archives.append(workloads.make_archive(
                config, args.out / f"input{i}", recorder))
    doc = {"archives": archives,
           "self_times": self_times(recorder.spans) if recorder else {},
           "calibrations": [first, calibrate()]}
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
