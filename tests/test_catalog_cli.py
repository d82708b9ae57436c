"""Spec DSL round-trips, catalog generation, CLI contract, JSON reports."""

from __future__ import annotations

import hashlib
import json
import os
import stat
import subprocess
import sys
import time

import numpy as np
import pytest

import ringlab
from ringlab.catalog import default_catalog
from ringlab.cli import main, make_parser
from ringlab.errors import ParseError
from ringlab.ideals import all_ideals
from ringlab.rings import (
    PRIMALITY_LIMIT,
    build,
    mask_of,
    quotient_projection,
    quotient_ring,
)
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
    entries = {ring.spec for ring in default_catalog(12)}
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
    for ring in cat:
        assert ring.order <= 4
    entries = {ring.spec for ring in cat}
    assert {Zmod(2), Zmod(3), Zmod(4), PolyQuot(2, (0, 0, 1)), PolyQuot(3, (0, 1))} <= entries


def test_default_catalog_builds_and_dedups():
    cat = default_catalog(16)
    assert len(cat) == len({ring.spec for ring in cat})
    # verify-catalog classifies one ring per key; the share of repeats is pinned
    assert len(cat) == 868
    assert len({ring.key for ring in cat}) == 124
    assert len({ring.key[:3] for ring in cat}) == 83
    for ring in cat:
        spec = ring.spec
        # the catalog's ring is the one its spec denotes
        rebuilt = build(spec)
        assert (ring.add_table == rebuilt.add_table).all()
        assert (ring.mul_table == rebuilt.mul_table).all()
        assert ring.one == rebuilt.one
        assert ring.order <= 16
        # each proper quotient: the projection maps + and * onto the quotient's
        # tables and one to one, and its kernel is the ideal
        for ideal in all_ideals(ring):
            if ring.one in ideal:
                continue
            q = quotient_ring(ring, ideal.mask, ring.spec)
            proj = np.array(quotient_projection(ring, ideal.mask))
            assert set(proj.tolist()) == set(range(q.order))
            pairs = np.ix_(proj, proj)
            assert (proj[ring.add_table] == q.add_table[pairs]).all()
            assert (proj[ring.mul_table] == q.mul_table[pairs]).all()
            assert proj[ring.one] == q.one
            assert mask_of(np.flatnonzero(proj == q.zero).tolist()) == ideal.mask


def test_catalog_specs_roundtrip_printer():
    # includes quotients by the zero ideal, whose generator list must stay
    # printable and parseable
    for ring in default_catalog(16):
        assert parse_ring_spec(print_ring_spec(ring.spec)) == ring.spec


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


@pytest.mark.parametrize("flag", ["--lattice-bound", "--element-bound", "--spp-bound"])
@pytest.mark.parametrize("argv", [["check", "Z/4"], ["spectrum", "Z/4"],
                                  ["verify-catalog", "--max-order", "4"]])
def test_cli_negative_bound_rejected_at_parse_time(tmp_path, capsys, argv, flag):
    path = tmp_path / "x.json"
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, "-5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be >= 0, got -5" in captured.err
    assert not path.exists()
    # 0 stays a valid bound
    args = make_parser().parse_args([*argv, flag, "0"])
    assert getattr(args, flag[2:].replace("-", "_")) == 0


def test_python_m_ringlab(tmp_path):
    src = os.path.dirname(os.path.dirname(ringlab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "ringlab", "check", "Z/4"],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ring Z/4 (order 4)\n")


def test_cli_spectrum(capsys):
    assert main(["spectrum", "Z/12"]) == 0
    out = capsys.readouterr().out
    assert "primes : (0 3 6 9), (0 2 4 6 8 10)" in out
    assert "spp" in out
    assert main(["spectrum", "Z/100"]) == 2
    assert "exceeds lattice bound 64" in capsys.readouterr().err
    # below the spp bound but above the lattice bound
    assert main(["spectrum", "Z/20", "--lattice-bound", "16"]) == 2
    assert "exceeds lattice bound 16" in capsys.readouterr().err


def test_cli_parser_is_built_once_and_keeps_no_state(capsys):
    # one parser serves every call of main in a process; each call must print
    # what a freshly built parser prints, so no flag or default carries over
    sequence = [
        ["check", "Z/12", "--lattice-bound", "8"], ["spectrum", "Z/20"], ["check", "Z/4"],
        ["check", "Z/12"],
    ]
    make_parser.cache_clear()
    shared = [(main(argv), capsys.readouterr()) for argv in sequence]
    assert make_parser.cache_info().misses == 1
    assert [status for status, _ in shared] == [0, 0, 0, 0]
    assert shared[0] != shared[3]  # the lattice bound changes the report
    for argv, got in zip(sequence, shared):
        make_parser.cache_clear()
        assert (main(argv), capsys.readouterr()) == got, argv


@pytest.mark.parametrize("argv, order, bound", [
    (["check", "Z/99999999999999999999"], 99999999999999999999, 200),
    (["check", "GF(2)[x]/(x^40)"], 2**40, 200),
    (["spectrum", "product(Z/10000000, Z/10000000)"], 10**7, 200),
    (["check", "product(Z/20, Z/20)"], 400, 200),
    (["spectrum", "quotient(Z/12; 2)", "--element-bound", "10"], 12, 10),
    (["verify-catalog", "--max-order", "4", "--element-bound", "3"], 4, 3),
])
def test_cli_element_bound_checked_before_building(capsys, argv, order, bound):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: order {order} exceeds element bound {bound}\n"


@pytest.mark.parametrize("spec, reason", [
    ("Z/20", "order 20 exceeds lattice bound 16"),
    ("Z/30", "order 30 exceeds pure-spectrum bound 24"),
])
def test_cli_spectra_skip_between_bounds(tmp_path, capsys, spec, reason):
    # with the lattice bound below the spp bound, the lattice bound decides
    # the skip below the spp bound and the spp bound above it
    path = tmp_path / "report.json"
    assert main(["check", spec, "--lattice-bound", "16", "--json", str(path)]) == 0
    capsys.readouterr()
    vnr = json.loads(path.read_text())["rings"][0]["properties"]["von_neumann_regular"]
    skips = [m for m in vnr["methods"] if m["method"] == "spectrum_equals_pure_spectrum"]
    assert skips == [{"method": "spectrum_equals_pure_spectrum", "skipped": reason}]


def test_cli_unwritable_json_path(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    for argv in (["check", "Z/4"], ["verify-catalog", "--max-order", "4"]):
        assert main([*argv, "--json", str(path)]) == 2
        captured = capsys.readouterr()
        # the document is written before the summary, so nothing is printed
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(path) in captured.err
        assert ".tmp" not in captured.err
        assert "Traceback" not in captured.err


def test_cli_json_report_mode(tmp_path, capsys):
    # the report gets the mode a plain open would give it, not mkstemp's 0600
    path = tmp_path / "mode.json"
    old = os.umask(0o022)
    try:
        assert main(["check", "Z/4", "--json", str(path)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == 0o644


@pytest.mark.parametrize("prime, ideal", [(0, "x"), (1, "x"), (4, "x, 3*y")])
def test_cli_groebner_rejects_non_prime(capsys, prime, ideal):
    assert main(["groebner", "-p", str(prime), "--ideal", ideal]) == 2
    captured = capsys.readouterr()
    assert f"{prime} is not prime" in captured.err
    assert "Traceback" not in captured.err
    assert "reduced basis" not in captured.out


def test_cli_groebner_large_prime(capsys):
    # primality of -p is decided by Miller-Rabin, not trial division
    start = time.perf_counter()
    assert main(["groebner", "-p", "99999999999999999989", "--ideal", "x"]) == 0
    assert time.perf_counter() - start < 1
    assert "reduced basis over GF(99999999999999999989)" in capsys.readouterr().out
    assert main(["groebner", "-p", str(PRIMALITY_LIMIT), "--ideal", "x"]) == 2
    captured = capsys.readouterr()
    assert str(PRIMALITY_LIMIT) in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


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


def _z3_with(table: str, edits):
    """Z/3's tables as table-file lines, with symmetric edits (i, j, value)
    to one of them."""
    rows = {
        "add": [[(i + j) % 3 for j in range(3)] for i in range(3)],
        "mul": [[i * j % 3 for j in range(3)] for i in range(3)],
    }
    for i, j, value in edits:
        rows[table][i][j] = rows[table][j][i] = value
    return ["3"] + [" ".join(map(str, row)) for row in rows["add"] + rows["mul"]]


@pytest.mark.parametrize(
    "lines, message",
    [
        (_z3_with("add", [(1, 2, 3)]), "addition table entry out of range"),
        (_z3_with("mul", [(2, 2, -1)]), "multiplication table entry out of range"),
        (_z3_with("add", [(0, 1, 2)]), "zero is not an additive identity"),
        (_z3_with("mul", [(1, 2, 1)]), "one is not a multiplicative identity"),
        # rows 1 and 2 become 1 1 2 and 2 2 2: neither holds a 0
        (_z3_with("add", [(1, 1, 1), (1, 2, 2), (2, 2, 2)]), "some element has no additive inverse"),
    ],
)
def test_cli_table_axiom_messages(tmp_path, capsys, lines, message):
    path = tmp_path / "bad.tbl"
    path.write_text("\n".join(lines) + "\n")
    assert main(["check", f"table:{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
