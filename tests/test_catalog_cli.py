"""Spec DSL round-trips, catalog generation, CLI contract, JSON reports."""

from __future__ import annotations

import hashlib
import json

import pytest

from ringlab.catalog import default_catalog, spec_order
from ringlab.cli import main
from ringlab.errors import ParseError
from ringlab.rings import build
from ringlab.specs import (
    LocalizeAt,
    PolyQuot,
    Product,
    Quotient,
    TableSpec,
    Zmod,
    parse_ring_spec,
    print_ring_spec,
)


def test_parse_examples():
    assert parse_ring_spec("Z/12") == Zmod(12)
    assert parse_ring_spec("GF(2)[x]/(x^2)") == PolyQuot(2, (0, 0, 1))
    assert parse_ring_spec("product(Z/4, Z/3)") == Product((Zmod(4), Zmod(3)))
    assert parse_ring_spec("quotient(Z/12; 4)") == Quotient(Zmod(12), (4,))
    assert parse_ring_spec("localize(Z/12; 2, 4)") == LocalizeAt(Zmod(12), (2, 4))
    assert parse_ring_spec("table:/tmp/ring.tbl") == TableSpec("/tmp/ring.tbl")
    assert parse_ring_spec("GF(3)[y]/(y^2 + 2*y + 1)") == PolyQuot(3, (1, 2, 1), "y")


def test_parse_roundtrip():
    specs = [
        Zmod(7),
        PolyQuot(2, (1, 1, 1)),
        PolyQuot(3, (2, 0, 0, 1)),
        Product((Zmod(4), Zmod(3))),
        Product((Zmod(2), PolyQuot(2, (0, 0, 1)))),
        Quotient(Product((Zmod(4), Zmod(3))), (2, 9)),
        LocalizeAt(Zmod(12), (2,)),
        TableSpec("rings/z6.tbl"),
        Quotient(Quotient(Zmod(16), (8,)), (4,)),
    ]
    for spec in specs:
        assert parse_ring_spec(print_ring_spec(spec)) == spec


def test_parse_errors_have_positions():
    for bad in ("Z/", "GF(2)[x]/x^2", "product(Z/4)", "Z/12 trailing", "quotient(Z/4)"):
        with pytest.raises(ParseError):
            parse_ring_spec(bad)
    try:
        parse_ring_spec("product(Z/4, ?)")
    except ParseError as exc:
        assert exc.position is not None


def test_default_catalog_contents():
    cat = default_catalog(12)
    entries = set(cat.entries)
    for wanted in (
        Zmod(4),
        Zmod(6),
        Zmod(12),
        PolyQuot(2, (0, 0, 1)),
        Product((Zmod(4), Zmod(3))),
    ):
        assert wanted in entries


def test_default_catalog_order_cap():
    cat = default_catalog(4)
    for spec in cat.entries:
        assert build(spec).order <= 4
    entries = set(cat.entries)
    assert {Zmod(2), Zmod(3), Zmod(4), PolyQuot(2, (0, 0, 1)), PolyQuot(3, (0, 1))} <= entries


def test_default_catalog_builds_and_dedups():
    cat = default_catalog(16)
    assert len(cat.entries) == len(set(cat.entries))
    for spec in cat.entries:
        ring = build(spec)
        if not isinstance(spec, Quotient):
            assert ring.order == spec_order(spec)
        assert ring.order <= 16


def test_catalog_specs_roundtrip_printer():
    # includes quotients by the zero ideal, whose generator list must stay
    # printable and parseable
    for spec in default_catalog(16).entries:
        assert parse_ring_spec(print_ring_spec(spec)) == spec


def test_default_catalog_minimum():
    with pytest.raises(ValueError):
        default_catalog(3)


def test_cli_check_ok(capsys):
    assert main(["check", "Z/12", "--properties", "mid,pf"]) == 0
    out = capsys.readouterr().out
    assert "mid_ring: true (10 methods agree)" in out
    assert "pf_ring: false" in out


def test_cli_check_json(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["check", "Z/6", "--json", str(path)]) == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    assert sorted(doc) == ["aggregate", "rings", "version"]
    assert doc["rings"][0]["spec"] == "Z/6"
    assert doc["rings"][0]["properties"]["von_neumann_regular"]["value"] is True
    assert doc["aggregate"]["failed"] == 0


# SHA-256 of `ringlab check SPEC --json` at the default bounds: Z/200 runs
# the sampled lattice paths, product(Z/8, Z/8) the over-bound skips
CHECK_REPORT_DIGESTS = {
    "Z/200": "b064050a684179de6f0c58d76d2a3825d2f9d2906b6ae2d1baf8776a9c3f510a",
    "product(Z/8, Z/8)": "f8f071d78b7ac2774b48080a73f3dd405161fd77a61c456019e8e85ef41ff940",
}


@pytest.mark.parametrize("spec", sorted(CHECK_REPORT_DIGESTS))
def test_cli_check_json_digest(tmp_path, capsys, spec):
    path = tmp_path / "report.json"
    assert main(["check", spec, "--json", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CHECK_REPORT_DIGESTS[spec]


def test_cli_usage_errors(capsys):
    assert main(["check", "Z/not-a-number"]) == 2
    assert main(["check", "localize(Z/12; 4)"]) == 2  # not maximal
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_spectrum(capsys):
    assert main(["spectrum", "Z/12"]) == 0
    out = capsys.readouterr().out
    assert "primes : (0 3 6 9), (0 2 4 6 8 10)" in out
    assert "spp" in out
    assert main(["spectrum", "Z/100"]) == 2
    assert "exceeds lattice bound 64" in capsys.readouterr().err


def test_cli_example1(capsys):
    assert main(["example1", "-p", "3"]) == 0
    out = capsys.readouterr().out
    assert "4/4 clauses pass" in out


def test_cli_groebner(capsys):
    assert (
        main(
            [
                "groebner",
                "-p",
                "2",
                "--order",
                "lex",
                "--ideal",
                "x, z^2, x^3 - y*z",
                "--member",
                "y*z",
                "--radical-member",
                "y",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "member y*z: True" in out
    assert "radical member y: False" in out


def test_cli_groebner_custom_variable_order(capsys):
    assert main(["groebner", "-p", "5", "--ideal", "x + z", "--vars", "z,y,x"]) == 0
    out = capsys.readouterr().out
    assert "z + x" in out  # z leads under the custom precedence


def test_cli_verify_catalog_json_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify-catalog", "--max-order", "6", "--json", str(p1)]) == 0
    assert main(["verify-catalog", "--max-order", "6", "--json", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()
    doc = json.loads(p1.read_text())
    assert doc["aggregate"]["failed"] == 0
    assert doc["aggregate"]["run"] > 0


def test_cli_failure_exit_code(monkeypatch, capsys):
    # sabotage one decider so the agreement harness must fail loudly
    from ringlab import classify

    broken = [("no_nilpotents", lambda ctx: classify.Verdict("no_nilpotents", True)),
              ("npure_equals_pure_ideals", classify.PROPERTY_METHODS["reduced"][1][1])]
    monkeypatch.setitem(classify.PROPERTY_METHODS, "reduced", broken)
    assert main(["check", "Z/4"]) == 1
    out = capsys.readouterr().out
    assert "METHODS DISAGREE" in out


def test_cli_table_spec(tmp_path, capsys):
    src = build(Zmod(6))
    path = tmp_path / "z6.tbl"
    lines = ["6"]
    lines += [" ".join(map(str, row)) for row in src.add_rows]
    lines += [" ".join(map(str, row)) for row in src.mul_rows]
    path.write_text("\n".join(lines) + "\n")
    assert main(["check", f"table:{path}"]) == 0
    out = capsys.readouterr().out
    assert "von_neumann_regular: true" in out
