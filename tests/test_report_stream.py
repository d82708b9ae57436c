"""The streamed report writer against plain ``json.dumps``, and its failure path."""

from __future__ import annotations

import json

import pytest

from ringlab.bounds import Bounds
from ringlab.catalog import default_catalog
from ringlab.classify import classify_catalog, classify_ring
from ringlab.report import build_document, dumps_document, write_json_atomic
from ringlab.rings import build
from ringlab.specs import parse_ring_spec


def _plain(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _check_document(spec: str) -> dict:
    # what `ringlab check SPEC --json` writes
    bounds = Bounds()
    ring = build(parse_ring_spec(spec), bounds.element)
    return build_document([classify_ring(ring, bounds=bounds)], bounds)


def test_shared_catalog48_document_streams_as_json_dumps():
    # the catalog16 documents, shared and unshared, are compared in
    # test_criterion_10_deterministic_reports
    bounds = Bounds()
    doc = build_document(classify_catalog(default_catalog(48, bounds), bounds), bounds)
    rings = doc["rings"]
    # most ring dicts are copies sharing every value but spec
    assert len({id(r["properties"]) for r in rings}) < len(rings)
    assert dumps_document(doc) == _plain(doc)


@pytest.mark.parametrize("spec", ["Z/200", "product(Z/8, Z/8)"])
def test_check_document_streams_as_json_dumps(tmp_path, spec):
    doc = _check_document(spec)
    path = tmp_path / "report.json"
    write_json_atomic(str(path), doc)
    assert path.read_text(encoding="utf-8") == dumps_document(doc) == _plain(doc)


def test_copy_with_another_replaced_value_is_encoded_afresh():
    ring = {
        "counts": {"run": 2, "passed": 2, "failed": 0, "skipped": 0},
        "ideals": {"sampled": False, "items": [{"ideal": [0]}]},
        "order": 4,
        "properties": {"mid_ring": {"value": True}},
        "spec": "A",
        "theorem_checks": [{"check": "t", "status": "pass"}],
    }
    doc = {
        "version": "x",
        "rings": [
            ring,
            {**ring, "spec": "B"},
            # shares every value but spec and properties with ring
            {**ring, "spec": "C", "properties": {"mid_ring": {"value": False}}},
            {**ring, "spec": "D", "theorem_checks": []},
            {**ring, "spec": "E"},
            {"spec": "only"},
            {"a": 1, "spec": "first"},
            {"spec": "last", "z": [1]},
            7,
        ],
        "aggregate": {"failures": [], "run": 8},
    }
    text = dumps_document(doc)
    assert text == _plain(doc)
    assert json.loads(text)["rings"][2]["properties"] == {"mid_ring": {"value": False}}
    assert json.loads(text)["rings"][3]["theorem_checks"] == []


def test_failed_encode_leaves_target_and_no_temporary_file(tmp_path):
    doc = _check_document("Z/12")
    ring = doc["rings"][0]
    # enough text before the bad value that the writer flushes part of it
    doc["rings"] = [{**ring, "spec": f"R{i}"} for i in range(200)]
    doc["rings"][-1] = {**ring, "spec": "bad", "order": object()}
    assert len(dumps_document({**doc, "rings": doc["rings"][:-1]})) > 1 << 20
    path = tmp_path / "report.json"
    path.write_bytes(b"previous report\n")
    with pytest.raises(TypeError):
        write_json_atomic(str(path), doc)
    assert path.read_bytes() == b"previous report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
