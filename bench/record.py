"""Record the exit codes and output digests that the benchmark checks.

    python3 bench/record.py

Runs every recorded operation of every workload once and writes
``expected.json``.  Run it only on a commit whose outputs are known to be
right: every later benchmark run is checked against these digests.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    expected = {}
    for name in workloads.BUILDERS:
        workload = workloads.build(name, seed=0, expected={})
        expected[name] = {op.name: op.digest(op.run())
                          for op in workload.ops if op.digest is not None}
        print(f"{name}: {len(expected[name])} digests", file=sys.stderr)
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True)
                                       + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
