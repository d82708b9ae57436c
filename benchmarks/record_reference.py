"""Record the reference digests that every benchmark request is checked against.

    python3 benchmarks/record_reference.py

Sends every request that any seed can draw, once, through
``ringlab.cli.main`` from ``src/`` and writes ``benchmarks/reference.json``:
the SHA-256 of each request's report document (``check``,
``verify-catalog``) or printed listing (``spectrum``).  Record it again only in a change that means to
alter the program's output.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from ringlab.cli import main  # noqa: E402
from worker import run_request  # noqa: E402
from workloads import WORKLOADS, all_keys  # noqa: E402


def record() -> dict:
    work = os.path.join(ROOT, ".bench_work")
    os.makedirs(work, exist_ok=True)
    json_path = os.path.join(work, "reference-report.json")
    reference: dict = {}
    for workload in WORKLOADS:
        digests = {}
        for key, argv in all_keys(workload):
            status, digest, _, _ = run_request(main, argv, json_path)
            if status != 0:
                raise SystemExit(f"{workload}: {key!r} exited with {status}")
            digests[key] = digest
        reference[workload] = digests
        print(f"{workload}: {len(digests)} requests", file=sys.stderr)
    return reference


if __name__ == "__main__":
    ref = record()
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
