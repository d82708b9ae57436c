"""ringlab benchmark: one workload, one seed, one result line.

    python3 benchmarks/run.py --workload large_rings --seed 1 --seconds 35 --trace 0

Run from the repository root.  Workloads (see README.md in this directory):

    catalog16         verify-catalog --max-order 16, the cross-validation harness
    large_rings       110 `check` requests on rings of order 65-200 (two fixed)
    spectrum_queries  about 760 `spectrum` requests on rings of order 2-64

Each run starts a fresh worker process that imports ringlab from ``src/``
and sends the requests one after the other through ``ringlab.cli.main``
(a closed loop with one client).  Every request's exit status and output
digest are checked against ``reference.json``.  With ``--trace 0`` the run
prints the end-to-end metrics, measured untraced; with ``--trace 1`` it
prints the per-layer metrics of a traced pass.  The last line of stdout is
the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import UNITS, layer_metrics  # noqa: E402
from workloads import CATALOG16, WORKLOADS  # noqa: E402

# latency_tail_ms is this percentile of the per-request latencies: the
# highest round one that keeps at least 10 requests beyond it.  catalog16
# sends a single request, so its tail is that request's latency.
TAIL_PERCENTILE = {"catalog16": 100, "large_rings": 90, "spectrum_queries": 98}
# The checks every catalog16 request must report: run, failed, skipped.
CATALOG16_TOTALS = {"run": 29561, "failed": 0, "skipped": 0}
TIME_LIMIT_S = 170.0


def _worker(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--t0", repr(time.monotonic())] + args
    return subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout,
                          check=True, text=True)


def _percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def _gate(workload: str, records: list, reference: dict) -> list[str]:
    """One message per failed request: bad exit status, output digest or,
    for catalog16, check totals."""
    expected = reference[workload]
    failures = []
    for key, status, digest, _, pass_no, info in records:
        faults = []
        if status != 0:
            faults.append(f"exited with {status}")
        if digest != expected.get(key):
            faults.append("output differs from the reference")
        if key == CATALOG16:
            totals = {k: info.get(k) for k in CATALOG16_TOTALS}
            if totals != CATALOG16_TOTALS:
                faults.append(f"reports totals {totals}")
        if faults:
            failures.append(f"{key!r} (pass {pass_no}) " + ", ".join(faults))
    return failures


def _end_to_end(workload: str, result: dict, setups: list[float]) -> tuple[dict, list[str]]:
    """A request's latency is its median over the run's passes (their mean
    when there are two), so with three passes or more one pass slowed by
    the machine does not move it; percentiles are taken over requests."""
    walls = result["pass_walls_s"]
    repeats: dict[str, list[float]] = {}
    for key, _, _, seconds, _, _ in result["records"]:
        repeats.setdefault(key, []).append(seconds)
    latencies = sorted(statistics.median(v) for v in repeats.values())
    pct = TAIL_PERCENTILE[workload]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "latency_tail_ms": (_percentile(latencies, pct) * 1000, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    requests = f"of {len(latencies)} requests, each the median of {len(walls)} passes"
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"median of {len(walls)} passes",
        "latency_p50_ms": requests,
        "latency_tail_ms": f"p{pct} {requests}",
        "peak_rss_mb": "worker process",
    }
    lines = [f"  {name:<16} {value:12.4f} {unit:<3} ({notes[name]})"
             for name, (value, unit) in metrics.items()]
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    began = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "ringlab", "cli.py")):
        print(f"benchmark: no ringlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    work = os.path.join(ROOT, ".bench_work")
    os.makedirs(work, exist_ok=True)
    out = os.path.join(work, f"result-{os.getpid()}.json")

    def remaining() -> float:
        return TIME_LIMIT_S - (time.monotonic() - began)

    try:
        # The first start compiles bytecode; it is not part of set-up.
        _worker(["--probe"], remaining())
        _worker(["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--work", work, "--out", out], remaining())
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(out)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark: worker failed: {exc}", file=sys.stderr)
        return 1

    records = result["records"]
    failures = _gate(args.workload, records, reference)
    passes = 1 + max(rec[4] for rec in records)
    print(f"workload {args.workload}, seed {args.seed}: {len(records) // passes} requests "
          f"per pass, {passes} passes, {len(records)} attempted, {len(failures)} failed")
    for message in failures[:10]:
        print(f"  FAIL {message}")

    if args.trace == 0:
        setups = [result["setup_s"]] + result["probe_setup_s"]
        metrics, lines = _end_to_end(args.workload, result, setups)
        print("\n".join(lines))
        print(f"  {'failed_share':<16} {len(failures) / len(records):12.4f} ratio")
    else:
        values, absent = layer_metrics(result["trace"], records)
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
        for name, m in metrics.items():
            print(f"  {name:<42} {m['value']:14.6f} {m['unit']}")
        if absent:
            print(f"benchmark: absent, their functions are gone: {', '.join(absent)}",
                  file=sys.stderr)

    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics if correct else {},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
