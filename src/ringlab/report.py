"""Machine-readable report documents: stable schema, byte-deterministic JSON.

A method verdict is one characterization's answer; the countable *checks*
are (a) one method-agreement check per property per ring, (b) one per-ideal
agreement check for the N-purity battery, and (c) each theorem-level check.
Skipped entries always name the bound that caused the skip.

The deciders build their witnesses and details as JSON-native values (ints,
bools, strs, lists and dicts with str keys), so the document takes them as
they are, in one pass over the verdicts; a value of any other type makes
the writer raise ``TypeError``.

The writer gives the text of ``json.dumps`` with sorted keys and compact
separators, but in pieces: ring dicts that share every value but ``spec``
(the copies ``build_document`` makes) are encoded once, and
``write_json_atomic`` streams the pieces to a temporary file that is renamed
into place, so a failed encode leaves no partial file.
"""

from __future__ import annotations

import json
import os
import tempfile

from .bounds import DEFAULT_PAIR_CHECK_BOUND, Bounds
from .classify import (
    IdealClassification,
    PropertyReport,
    PropertyResult,
    Skipped,
    TheoremCheck,
)

TOOL_VERSION = "0.1.0"
COUNTS = ("run", "passed", "failed", "skipped")


def _method_dict(result) -> dict:
    if isinstance(result, Skipped):
        return {"method": result.method, "skipped": result.reason}
    out = {"method": result.method, "value": result.value}
    if result.witness is not None:
        out["witness"] = result.witness
    if result.sampled:
        out["sampled"] = True
    return out


def _property_dict(result: PropertyResult) -> dict:
    return {
        "value": result.value,
        "consistent": result.consistent,
        "sampled": result.sampled,
        "methods": [_method_dict(r) for r in result.results],
    }


def _ideal_dict(item: IdealClassification) -> dict:
    return {
        "ideal": list(item.ideal.elems),
        "pure": _method_dict(item.pure),
        "npure": _property_dict(item.npure),
    }


def _check_dict(check: TheoremCheck) -> dict:
    out = {"check": check.check, "status": check.status}
    if check.detail is not None:
        out["detail"] = check.detail
    return out


def _verdict_values(result: PropertyResult) -> dict:
    return {r.method: r.value for r in result.verdicts}


def _outcomes(report: PropertyReport):
    """Yield (kind, name, outcome, failure detail) for each countable check
    and each skipped method; outcome is True, False, or None for a skip."""
    for name, result in sorted(report.properties.items()):
        ok = result.consistent if result.verdicts else None
        yield "method_agreement", name, ok, _verdict_values(result) if ok is False else None
    for item in report.ideal_results:
        npure = item.npure
        ok = None
        if npure.verdicts:
            ok = npure.consistent and (not item.pure.value or npure.value is not False)
        detail = {
            "ideal": list(item.ideal.elems),
            "methods": _verdict_values(npure),
            "pure": item.pure.value,
        } if ok is False else None
        yield "ideal_agreement", "npure", ok, detail
    for check in report.theorem_checks:
        ok = None if check.status == "skipped" else check.status == "pass"
        yield "theorem", check.check, ok, check.detail
    for result in [*report.properties.values(), *(i.npure for i in report.ideal_results)]:
        for r in result.results:
            if isinstance(r, Skipped):
                yield "method", r.method, None, None


def ring_report_dict(report: PropertyReport) -> tuple[dict, list[dict]]:
    """Serialize one ring's report and tally its checks."""
    counts = dict.fromkeys(COUNTS, 0)
    failures = []
    for kind, name, ok, detail in _outcomes(report):
        counts["skipped" if ok is None else "passed" if ok else "failed"] += 1
        if ok is False:
            failures.append({"kind": kind, "name": name, "detail": detail})
    counts["run"] = counts["passed"] + counts["failed"]

    doc = {
        "spec": report.ring.name,
        "order": report.ring.order,
        "properties": {
            name: _property_dict(result)
            for name, result in sorted(report.properties.items())
        },
        "ideals": {
            "sampled": report.ideals_sampled,
            "items": [_ideal_dict(item) for item in report.ideal_results],
        },
        "theorem_checks": [_check_dict(c) for c in report.theorem_checks],
        "counts": counts,
    }
    return doc, failures


def build_document(reports: list[PropertyReport], bounds: Bounds) -> dict:
    """The report document of ``reports``, in order.  Reports that share
    their results (``classify_catalog`` gives each later ring of a key the
    first one's) are serialized once, each under its own spec; their ring
    dicts share every value but ``spec``."""
    rings = []
    totals = dict.fromkeys(COUNTS, 0)
    failures = []
    serialized: dict[tuple[int, int, int], tuple[dict, list[dict]]] = {}
    for report in reports:
        results = (id(report.properties), id(report.ideal_results), id(report.theorem_checks))
        if results in serialized:
            doc, ring_failures = serialized[results]
            doc = {**doc, "spec": report.ring.name}
        else:
            doc, ring_failures = serialized[results] = ring_report_dict(report)
        rings.append(doc)
        for key in COUNTS:
            totals[key] += doc["counts"][key]
        failures.extend({"ring": report.ring.name, **f} for f in ring_failures)
    return {
        "version": TOOL_VERSION,
        "rings": rings,
        "aggregate": {
            **totals,
            "failures": failures,
            "bounds": {
                "lattice": bounds.lattice,
                "element": bounds.element,
                "spp": bounds.spp,
                "pair_checks": DEFAULT_PAIR_CHECK_BOUND,
            },
        },
    }


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _document_pieces(doc: dict):
    """Yield the text of ``json.dumps(doc, sort_keys=True, separators=(",",
    ":")) + "\n"`` in pieces, one list element at a time.

    A dict element with a ``spec`` key is cut there: the keys before it and
    the keys after it are encoded once per distinct tuple of value
    identities, so a ring dict copied as ``{**doc, "spec": ...}`` costs one
    encode of its spec."""
    encode = _ENCODER.encode
    memo: dict[tuple, tuple[str, str]] = {}
    yield "{"
    for index, (key, value) in enumerate(sorted(doc.items())):
        if index:
            yield ","
        yield encode(key)
        yield ":"
        if not isinstance(value, list):
            yield encode(value)
            continue
        yield "["
        for position, item in enumerate(value):
            if position:
                yield ","
            if not (isinstance(item, dict) and "spec" in item):
                yield encode(item)
                continue
            items = sorted(item.items())
            cut = next(i for i, (k, _) in enumerate(items) if k == "spec")
            ident = tuple((k, id(v)) for k, v in items if k != "spec")
            pieces = memo.get(ident)
            if pieces is None:
                head = encode(dict(items[:cut]))[1:-1]
                tail = encode(dict(items[cut + 1:]))[1:-1]
                pieces = memo[ident] = (
                    "{" + head + ("," if head else "") + '"spec":',
                    ("," if tail else "") + tail + "}",
                )
            yield pieces[0]
            yield encode(item["spec"])
            yield pieces[1]
        yield "]"
    yield "}\n"


def dumps_document(doc: dict) -> str:
    return "".join(_document_pieces(doc))


def write_json_atomic(path: str, doc: dict) -> None:
    """Stream the serialized document to a temporary file and rename it into
    place, so no reader ever sees a partial file.

    An encoding error (``TypeError`` for a non-JSON value) removes the
    temporary file and leaves ``path`` as it was.  An OSError from creating,
    writing or renaming is raised again naming ``path`` rather than the
    temporary file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.writelines(_document_pieces(doc))
            # mkstemp creates the file 0600; give it the mode a plain open would
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
