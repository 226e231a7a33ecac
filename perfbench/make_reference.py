"""Record the reference outputs the ``lemmas`` output check compares with.

    python3 perfbench/make_reference.py

Runs every invocation of the lemmas workload at the default workload seed
for the first ``REFERENCE_OPS`` ops (seed-free invocations once) and writes
their records, floats rounded far below the check tolerance, to
``reference/lemmas.json.gz``.  Re-run it only when a change is meant to
alter these outputs, and say so in that change.
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import driver  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, op_seed  # noqa: E402

# A default-seed lemmas run issues about six ops at the default run length.
REFERENCE_OPS = 12


def main() -> int:
    workload = WORKLOADS["lemmas"]
    cli = driver.set_up(workload)
    reference = {}
    for i in range(REFERENCE_OPS):
        for argv in workload.op(op_seed(DEFAULT_SEED, i)):
            key = checks.reference_key(argv)
            if key in reference:
                continue
            rc, text, error = driver.call(cli, argv)
            if rc != 0 or error:
                raise SystemExit(f"{key}: exit {rc}, {error}")
            reference[key] = checks.rounded(checks.parse_records(text))
    with open(checks.REFERENCE, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(json.dumps(reference, separators=(",", ":")).encode())
    print(f"{len(reference)} invocations -> {checks.REFERENCE} ({checks.REFERENCE.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
