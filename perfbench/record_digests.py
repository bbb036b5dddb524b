"""Record the digest of every op's output, for the benchmark's correctness gate.

    python3 perfbench/record_digests.py [WORKLOAD ...]

Run once, at the commit whose outputs are the reference; every later run of
the benchmark compares its outputs against digests.json.  An op that fails its
other checks aborts the recording.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import DIGESTS_PATH, WORKLOADS, run_op  # noqa: E402


def main() -> None:
    names = sys.argv[1:] or list(WORKLOADS)
    recorded = json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.exists() else {}
    for name in names:
        workload = WORKLOADS[name]
        table = {}
        for key in workload.all_keys():
            out = run_op(workload, key, random.Random(0), None)
            if out.problems:
                sys.exit(f"{name} {key}: {out.problems}")
            table[key] = out.digest
        recorded[name] = table
        print(f"{name}: {len(table)} digests", file=sys.stderr)
    DIGESTS_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
