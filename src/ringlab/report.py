"""Machine-readable report documents: stable schema, byte-deterministic JSON.

A method verdict is one characterization's answer; the countable *checks*
are (a) one method-agreement check per property per ring, (b) one per-ideal
agreement check for the N-purity battery, and (c) each theorem-level check.
Skipped entries always name the bound that caused the skip.

The deciders build their witnesses and details as JSON-native values (ints,
bools, strs, lists and dicts with str keys), so the document takes them as
they are, in one pass over the verdicts; a value of any other type makes
the writer raise ``TypeError``.

Reports that share results (``classify_catalog`` gives every ring with the
same tables the first one's properties and ideal results, and every ring
with the same key the same theorem checks) share their dicts too: the
properties and ideals part is built once per table and the theorem checks
part once per key, while each ring gets its own counts dict.  The writer
gives the text of ``json.dumps`` with sorted keys and compact separators,
but in pieces: each value of a ring dict is encoded once per object, so a
shared part is encoded once, and ``write_json_atomic`` streams the pieces
to a temporary file that is renamed into place, so a failed encode leaves
no partial file.
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


def _tally(outcomes) -> tuple[dict, list[dict]]:
    """The counts (passed, failed, skipped; run is 0) and failures of
    (kind, name, outcome, failure detail) tuples; outcome is True, False, or
    None for a skip."""
    counts = dict.fromkeys(COUNTS, 0)
    failures = []
    for kind, name, ok, detail in outcomes:
        counts["skipped" if ok is None else "passed" if ok else "failed"] += 1
        if ok is False:
            failures.append({"kind": kind, "name": name, "detail": detail})
    return counts, failures


def _result_outcomes(report: PropertyReport):
    """The outcome of each method-agreement and ideal-agreement check and of
    each skipped method."""
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
    for result in [*report.properties.values(), *(i.npure for i in report.ideal_results)]:
        for r in result.results:
            if isinstance(r, Skipped):
                yield "method", r.method, None, None


def _results_part(report: PropertyReport) -> tuple[dict, dict, dict, list[dict]]:
    """The properties and ideals dicts of a report with their tally."""
    properties = {
        name: _property_dict(result) for name, result in sorted(report.properties.items())
    }
    ideals = {
        "sampled": report.ideals_sampled,
        "items": [_ideal_dict(item) for item in report.ideal_results],
    }
    return (properties, ideals, *_tally(_result_outcomes(report)))


def _checks_part(checks: list[TheoremCheck]) -> tuple[list[dict], dict, list[dict]]:
    """The theorem check dicts with their tally."""
    counts, failures = _tally(
        ("theorem", c.check, None if c.status == "skipped" else c.status == "pass", c.detail)
        for c in checks
    )
    return [_check_dict(c) for c in checks], counts, failures


def ring_report_dict(report: PropertyReport, parts: dict | None = None
                     ) -> tuple[dict, list[dict]]:
    """Serialize one ring's report and tally its checks.

    parts, when given, memoizes the results part by the identities of the
    report's properties and ideal results and the checks part by the
    identity of its theorem checks, so reports sharing those objects share
    the parts built from them.  The caller keeps every report alive while
    the memo is in use, so no identity is reused."""
    parts = {} if parts is None else parts
    results = (id(report.properties), id(report.ideal_results))
    if results not in parts:
        parts[results] = _results_part(report)
    properties, ideals, counts, failures = parts[results]
    if id(report.theorem_checks) not in parts:
        parts[id(report.theorem_checks)] = _checks_part(report.theorem_checks)
    checks, check_counts, check_failures = parts[id(report.theorem_checks)]
    counts = {key: counts[key] + check_counts[key] for key in COUNTS}
    counts["run"] = counts["passed"] + counts["failed"]
    doc = {
        "spec": report.ring.name,
        "order": report.ring.order,
        "properties": properties,
        "ideals": ideals,
        "theorem_checks": checks,
        "counts": counts,
    }
    return doc, failures + check_failures


def build_document(reports: list[PropertyReport], bounds: Bounds) -> dict:
    """The report document of ``reports``, in order.  Reports that share
    their properties and ideal results share those dicts, and reports that
    share their theorem checks (``classify_catalog`` gives each later ring
    of a key the first one's) share the check dicts; each ring gets its own
    ring dict and counts."""
    rings = []
    totals = dict.fromkeys(COUNTS, 0)
    failures = []
    # keyed by id(): sound because ``reports`` holds every keyed object
    # until the document is built
    parts: dict = {}
    for report in reports:
        doc, ring_failures = ring_report_dict(report, parts)
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


# The deciders build tree-shaped, JSON-native values (a shared part is
# reached twice, never from inside itself), so the circular-reference check
# is skipped.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def _document_pieces(doc: dict):
    """Yield the text of ``json.dumps(doc, sort_keys=True, separators=(",",
    ":")) + "\n"`` in pieces, one list element at a time.

    A dict element with a ``spec`` key (a ring dict) is encoded key by key,
    each key and value once per object, so a part that ring dicts share is
    encoded once.  The memo is keyed by id(): that is sound only because
    ``doc`` holds every value while the pieces are generated, so no id is
    reused."""
    encode = _ENCODER.encode
    memo: dict[int, str] = {}

    def encoded(value) -> str:
        text = memo.get(id(value))
        if text is None:
            text = memo[id(value)] = encode(value)
        return text

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
            if isinstance(item, dict) and "spec" in item:
                yield "{" + ",".join(
                    encoded(k) + ":" + encoded(v) for k, v in sorted(item.items())
                ) + "}"
            else:
                yield encode(item)
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
