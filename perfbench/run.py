"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload stream_mixed --seed 1 --seconds 10 --trace 0

Human-readable lines (provenance, each metric with its sample count) come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer metrics
and writes every span to ``perfbench/output/``.  The exit code is 0 only
when every output matched its reference and no input failed.
"""

import os

# Pinned before numpy is first imported; forked cluster workers inherit it.
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import json
import math
import signal
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("stream_mixed", "stream_sharded", "learn_tabular")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an error, so the processes a run started are
    # still stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import measure, workloads

    for key, value in measure.provenance(ROOT, args.seed).items():
        print(f"provenance {key} {value}")
    notes = []
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), notes)
    finally:
        measure.stop_child_processes()
    for note in notes:
        print(f"note {note}")
    for index, p in enumerate(result.passes):
        p50 = 1e3 * statistics.median(p.latencies_s)
        kind = "traced" if p.traced else "untraced"
        n = len(p.latencies_s)
        print(f"pass {index} {kind} {p.rate:.6g} inputs/s, window p50 {p50:.4g} ms (n={n})")
    for name, (value, unit, samples) in sorted(result.metrics.items()):
        print(f"{args.workload} {name} {value:.6g} {unit} (n={samples})")
    if args.trace:
        out = ROOT / "perfbench" / "output"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        result.spans.write(str(path))
        print(f"spans {len(result.spans.spans)} written to {path.relative_to(ROOT)}")
    for problem in result.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    correct = result.correct and all(math.isfinite(v) for v, _, _ in result.metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, (value, unit, _) in result.metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
