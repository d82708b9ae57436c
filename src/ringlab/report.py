"""Machine-readable report documents: stable schema, byte-deterministic JSON.

A method verdict is one characterization's answer; the countable *checks*
are (a) one method-agreement check per property per ring, (b) one per-ideal
agreement check for the N-purity battery, and (c) each theorem-level check.
Skipped entries always name the bound that caused the skip.
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


def _plain(value):
    """Recursively convert witnesses to JSON-safe structures."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return int(value)
    return str(value)


def _method_dict(result) -> dict:
    if isinstance(result, Skipped):
        return {"method": result.method, "skipped": result.reason}
    out = {"method": result.method, "value": result.value}
    if result.witness is not None:
        out["witness"] = _plain(result.witness)
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
        out["detail"] = _plain(check.detail)
    return out


def ring_report_dict(report: PropertyReport) -> tuple[dict, list[dict]]:
    """Serialize one ring's report and tally its checks."""
    run = passed = failed = skipped = 0
    failures = []

    for name in sorted(report.properties):
        result = report.properties[name]
        if not result.verdicts:
            skipped += 1
            continue
        run += 1
        if result.consistent:
            passed += 1
        else:
            failed += 1
            failures.append(
                {
                    "kind": "method_agreement",
                    "name": name,
                    "detail": _plain(
                        {r.method: r.value for r in result.verdicts}
                    ),
                }
            )

    for item in report.ideal_results:
        if not item.npure.verdicts:
            skipped += 1
            continue
        run += 1
        agree = item.npure.consistent
        pure_implies = not item.pure.value or (item.npure.value is not False)
        if agree and pure_implies:
            passed += 1
        else:
            failed += 1
            failures.append(
                {
                    "kind": "ideal_agreement",
                    "name": "npure",
                    "detail": _plain(
                        {
                            "ideal": list(item.ideal.elems),
                            "methods": {r.method: r.value for r in item.npure.verdicts},
                            "pure": item.pure.value,
                        }
                    ),
                }
            )

    for check in report.theorem_checks:
        if check.status == "skipped":
            skipped += 1
        else:
            run += 1
            if check.status == "pass":
                passed += 1
            else:
                failed += 1
                failures.append(
                    {
                        "kind": "theorem",
                        "name": check.check,
                        "detail": _plain(check.detail),
                    }
                )

    skipped += sum(
        1
        for result in report.properties.values()
        for r in result.results
        if isinstance(r, Skipped)
    )
    skipped += sum(
        1
        for item in report.ideal_results
        for r in item.npure.results
        if isinstance(r, Skipped)
    )

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
        "counts": {"run": run, "passed": passed, "failed": failed, "skipped": skipped},
    }
    return doc, failures


def build_document(reports: list[PropertyReport], bounds: Bounds) -> dict:
    rings = []
    run = passed = failed = skipped = 0
    failures = []
    for report in reports:
        doc, ring_failures = ring_report_dict(report)
        rings.append(doc)
        run += doc["counts"]["run"]
        passed += doc["counts"]["passed"]
        failed += doc["counts"]["failed"]
        skipped += doc["counts"]["skipped"]
        for f in ring_failures:
            failures.append({"ring": report.ring.name, **f})
    return {
        "version": TOOL_VERSION,
        "rings": rings,
        "aggregate": {
            "run": run,
            "passed": passed,
            "failed": failed,
            "skipped": skipped,
            "failures": failures,
            "bounds": {
                "lattice": bounds.lattice,
                "element": bounds.element,
                "spp": bounds.spp,
                "pair_checks": DEFAULT_PAIR_CHECK_BOUND,
            },
        },
    }


def dumps_document(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def write_json_atomic(path: str, doc: dict) -> None:
    """Write the serialized document in one rename, never partially."""
    text = dumps_document(doc)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
