"""Record the workload input digests of a range of seeds.

Usage, from the repository root::

    python3 perfbench/record_digests.py 0 100    # seeds 0 to 99

Every benchmark run hashes the inputs it generated and fails when they no
longer match the digest recorded here for its seed.  Re-record only when a
change to what the benchmark measures is intended, and say so in the change.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, stop = (int(value) for value in argv)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.workloads import DIGESTS, input_digests

    table = json.loads(DIGESTS.read_text())
    for seed in range(first, stop):
        for kind, value in input_digests(seed).items():
            table.setdefault(kind, {})[str(seed)] = value
        print(f"seed {seed} recorded", flush=True)
    for kind in table:
        table[kind] = dict(sorted(table[kind].items(), key=lambda item: int(item[0])))
    DIGESTS.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
