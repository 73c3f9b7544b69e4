"""Record bench/reference.json: digests of every pooled op of the default seed.

    python3 bench/record_reference.py

Each output passes the workload's exact identity checks before its digest
is stored, so the reference holds only verified outputs.  Re-record only
when an intended change alters output bytes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from run import Record  # noqa: E402
from spans import NullTracer  # noqa: E402


def main() -> int:
    ops = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(workloads.DEFAULT_SEED, NullTracer())
        digests = []
        records = []
        for i in range(workload.pool_size):
            inp = workload.generate(i)
            code, output = workload.run(inp, NullTracer())
            reason = workload.check(inp, code, output)
            if reason is not None:
                print(f"{name} op {i}: {reason}", file=sys.stderr)
                return 1
            digests.append(workloads.digest(code, output))
            records.append(Record(inp, code, output, 0.0, None))
        for record in workload.sample(records):
            reason = workload.check_equivariance(record.inp)
            if reason is not None:
                print(f"{name} op {record.inp.index}: {reason}", file=sys.stderr)
                return 1
        ops[name] = digests
        print(f"{name}: {len(digests)} ops recorded")
    payload = {"seed": workloads.DEFAULT_SEED, "ops": ops}
    (BENCH / "reference.json").write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
