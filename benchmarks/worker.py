"""One benchmark run, in a fresh process started by ``run.py``.

    worker.py --root ROOT --t0 T --probe
    worker.py --root ROOT --t0 T --workload W --seed S --seconds N --trace 0|1
              --work DIR --out PATH

``--t0`` is the ``time.monotonic()`` reading taken just before the process
was started; set-up time runs from there until ``ringlab`` is imported and
the CLI parser is built.  ``--probe`` stops at that point and prints it.

A run with ``--trace 0`` sends its workload's requests in passes, one
request after the other through ``ringlab.cli.main``.  It makes at least
``MIN_PASSES`` passes and starts another only while that pass is expected
to end within ``--seconds``.  Between requests it also starts
``SETUP_PROBES`` processes that only set up, one falling due every
``--seconds / SETUP_PROBES`` of request time, so that set-up time is
sampled all through the run; their time is not part of any pass.  A run
with ``--trace 1`` makes one traced pass.  Report documents and spans go
to ``--work``, the results to ``--out`` as JSON; ``run.py`` checks and
reports them.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import time
import traceback

from tracer import Tracer, span_cost
from workloads import JSON_COMMANDS, WORKLOADS, requests

MIN_PASSES = 2
SETUP_PROBES = 20


def _set_up(root: str, t0: float):
    """Import ringlab from ROOT/src and build the parser; return the CLI
    module and the seconds since ``t0``."""
    import ringlab.cli

    src = os.path.realpath(os.path.join(root, "src")) + os.sep
    if not os.path.realpath(ringlab.cli.__file__).startswith(src):
        raise SystemExit(f"worker: ringlab was imported from {ringlab.cli.__file__}, not {src}")
    ringlab.cli.make_parser()
    return ringlab.cli, time.monotonic() - t0


def run_request(main, argv: list[str], json_path: str) -> tuple[object, str, float, dict]:
    """Send one request; return (exit status, output digest, seconds, info).

    The digest is the SHA-256 of the report document for commands that
    write one, else of the printed text.  ``info`` holds what the gate and
    the trace need: report bytes, the report's check totals and the rings
    covered.
    """
    writes_json = argv[0] in JSON_COMMANDS
    full = argv + ["--json", json_path] if writes_json else argv
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            status = main(full)
    except SystemExit as exc:
        status = exc.code
    except Exception:  # a crash is a failed request, not a failed benchmark
        traceback.print_exc()
        status = "exception"
    seconds = time.perf_counter() - start

    text = out.getvalue()
    found = re.match(r"catalog: (\d+) rings", text)
    info = {"rings": int(found.group(1)) if found else 1}
    if not writes_json:
        return status, hashlib.sha256(text.encode()).hexdigest(), seconds, info
    try:
        with open(json_path, "rb") as fh:
            data = fh.read()
        os.remove(json_path)
    except OSError:
        return status, "missing report", seconds, info
    info["bytes"] = len(data)
    prefix = '{"aggregate":'
    doc = data.decode()
    if doc.startswith(prefix):
        aggregate, _ = json.JSONDecoder().raw_decode(doc, len(prefix))
        info.update({k: aggregate.get(k) for k in ("run", "failed", "skipped")})
    return status, hashlib.sha256(data).hexdigest(), seconds, info


class SetUpProbes:
    """Processes that only set up, started between requests: the k-th of
    ``count`` falls due once ``k / count`` of ``seconds`` of request time
    has passed, and the rest are started by :meth:`finish`."""

    def __init__(self, root: str, count: int, seconds: float):
        self.root, self.count, self.seconds = root, count, seconds
        self.values: list[float] = []

    def _probe(self) -> None:
        cmd = [sys.executable, os.path.abspath(__file__), "--root", self.root,
               "--t0", repr(time.monotonic()), "--probe"]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True, timeout=60)
        self.values.append(float(done.stdout))

    def due(self, request_s: float) -> None:
        while len(self.values) < min(self.count, int(self.count * request_s / self.seconds)):
            self._probe()

    def finish(self) -> None:
        while len(self.values) < self.count:
            self._probe()


def _run_pass(main, reqs, json_path, records, pass_no, tracer=None, probes=None, before=0.0):
    """Send one pass; return its wall time.  ``before`` is the request time
    of the earlier passes, which tells ``probes`` when one falls due."""
    wall = 0.0
    for i, (key, argv) in enumerate(reqs):
        start = time.perf_counter()
        if tracer is None:
            status, digest, seconds, info = run_request(main, argv, json_path)
        else:
            tracer.current_request = i
            span = tracer.open("request")
            try:
                status, digest, seconds, info = run_request(main, argv, json_path)
            finally:
                tracer.close(span)
        records.append([key, status, digest, seconds, pass_no, info])
        wall += time.perf_counter() - start
        if probes is not None:
            probes.due(before + wall)
    return wall


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--work")
    parser.add_argument("--out")
    args = parser.parse_args()

    cli, setup_s = _set_up(args.root, args.t0)
    if args.probe:
        print(repr(setup_s))
        return

    reqs = requests(args.workload, args.seed)
    json_path = os.path.join(args.work, f"report-{os.getpid()}.json")
    records: list = []
    result = {"setup_s": setup_s, "records": records}

    if args.trace == 0:
        probes = SetUpProbes(args.root, SETUP_PROBES, args.seconds)
        walls: list[float] = []
        while len(walls) < MIN_PASSES or sum(walls) + walls[-1] <= args.seconds:
            walls.append(_run_pass(cli.main, reqs, json_path, records, len(walls),
                                   probes=probes, before=sum(walls)))
        probes.finish()
        result["pass_walls_s"] = walls
        result["probe_setup_s"] = probes.values
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        tracer = Tracer()
        tracer.install()
        try:
            _run_pass(cli.main, reqs, json_path, records, 0, tracer)
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(args.work, f"spans-{args.workload}.json"))
        result["trace"] = {
            "spans": len(tracer.name),
            "span_cost_s": span_cost(),
            "wrapped": sorted(tracer.wrapped),
            "totals": tracer.totals(),
        }

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
