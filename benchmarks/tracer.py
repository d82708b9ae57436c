"""In-memory span tracer for the measured ringlab modules.

The tracer wraps every public function of each measured module and
rebinds the wrapper at every ``ringlab`` module that binds the original
(``cli`` imports ``build`` from ``rings``, ``classify`` imports
``all_ideals`` from ``ideals``, and so on), so calls between modules and
recursive calls inside a module are all seen.  Each call becomes a span:
name, start, end, parent span and request id.  Spans stay in flat arrays
until the run ends; :meth:`Tracer.write` dumps them and
:meth:`Tracer.totals` derives call counts and self time (a span's duration
minus the part covered by its child spans).  :func:`span_cost` measures
what one span adds to a call, so that a traced pass's overhead can be
given as its span count times that cost.

Generator functions are not wrapped: such a call returns before its body
runs, so a span around it would time nothing.  Their iteration is
charged to the caller's self time.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time
from array import array

PACKAGE = "ringlab"
MEASURED_MODULES = ("rings", "ideals", "spectra", "classify", "catalog", "report")

# Spans of these functions are named after one argument as well, so each
# property gets its own self time.
LABEL_ARGUMENT = {"classify.classify_property": 1}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_request = -1
        self.wrapped: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.request.append(self.current_request)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, qualname: str, fn):
        open_, close = self.open, self.close
        label_at = LABEL_ARGUMENT.get(qualname)
        if label_at is None:
            def wrapper(*args, **kwargs):
                idx = open_(qualname)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)
        else:
            def wrapper(*args, **kwargs):
                label = args[label_at] if len(args) > label_at else "?"
                idx = open_(f"{qualname}:{label}")
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every measured module."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for short in MEASURED_MODULES:
            module = sys.modules.get(f"{PACKAGE}.{short}")
            if module is None:
                continue
            for attr, fn in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                qualname = f"{short}.{attr}"
                wrapper = self._wrap(qualname, fn)
                self.wrapped.add(qualname)
                for binder in modules:
                    for name, value in list(vars(binder).items()):
                        if value is fn:
                            self._restore.append((binder, name, fn))
                            setattr(binder, name, wrapper)

    def uninstall(self) -> None:
        for binder, name, fn in reversed(self._restore):
            setattr(binder, name, fn)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total time and self time in seconds."""
        n = len(self.name)
        covered = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names
        }
        names = self.names
        for i in range(n):
            row = out[names[self.name[i]]]
            dur = end[i] - start[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - covered[i]
        return out

    def write(self, path: str) -> None:
        """Dump every span as ``[name, start, end, parent, request]`` rows,
        times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"columns":["name","start_s","end_s","parent","request"],')
            fh.write('"names":' + json.dumps(self.names) + ',"spans":[')
            for i in range(len(self.name)):
                if i:
                    fh.write(",")
                fh.write(
                    f"[{self.name[i]},{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},"
                    f"{self.parent[i]},{self.request[i]}]"
                )
            fh.write("]}\n")


def span_cost(calls: int = 50_000, rounds: int = 7) -> float:
    """Seconds that one traced call adds to a bare call of the same function.

    Each round times ``calls`` bare calls of a no-op and as many calls of
    the no-op wrapped by a fresh tracer; the result is the median over
    rounds of the difference per call.
    """
    def noop():
        return None

    costs = []
    for _ in range(rounds):
        wrapped = Tracer()._wrap("noop", noop)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((time.perf_counter() - start - bare) / calls)
    return statistics.median(costs)
