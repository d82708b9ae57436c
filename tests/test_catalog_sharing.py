"""verify-catalog does each distinct table's work once: one classification
per table, with only the product check decided per key, quotient tables
memoized on the table data, and the N-pure closure scanned over unordered
pairs with the witness of the full square."""

from __future__ import annotations

from collections import Counter

import pytest

from ringlab import classify, rings
from ringlab.bounds import Bounds
from ringlab.catalog import default_catalog
from ringlab.classify import (
    _IDEAL_OPERATIONS,
    THEOREM_CHECKS,
    RingContext,
    classify_catalog,
    classify_ring,
)
from ringlab.cli import main
from ringlab.ideals import Ideal, all_ideals, ideal_product
from ringlab.report import build_document, dumps_document
from ringlab.rings import FiniteRing, build
from ringlab.specs import Product, Quotient, Zmod

PRODUCT_CHECK = "product_mid_iff_factors_mid"


@pytest.fixture(scope="module")
def catalog16_tables() -> list[FiniteRing]:
    """The first ring of each distinct table of the catalog at order 16."""
    first: dict[rings._Tables, FiniteRing] = {}
    for ring in default_catalog(16):
        first.setdefault(ring.tables, ring)
    return list(first.values())


def _same_table_rings() -> dict[str, FiniteRing]:
    """Three rings with the tables of Z/2 x Z/2 x Z/2: two products whose
    first factors have equal tables but different keys, and a quotient by
    zero with no factors."""
    inner = Product((Zmod(2), Zmod(2)))
    rs = {
        "product": build(Product((inner, Zmod(2)))),
        "other_product": build(Product((Quotient(inner, ()), Zmod(2)))),
        "quotient": build(Quotient(Product((inner, Zmod(2))), ())),
    }
    tables = {r.tables for r in rs.values()}
    assert len(tables) == 1 and len({r.key for r in rs.values()}) == 3
    return rs


def _differences(reports, catalog: list[FiniteRing]) -> list[str]:
    """The specs whose part of the document built from reports differs from
    the document of each ring classified alone, "aggregate" for the rest;
    the serialized bytes are compared too."""
    shared = build_document(reports, Bounds())
    alone = build_document([classify_ring(r) for r in catalog], Bounds())
    differ = [a["spec"] for a, b in zip(shared["rings"], alone["rings"]) if a != b]
    if shared["aggregate"] != alone["aggregate"]:
        differ.append("aggregate")
    if not differ and dumps_document(shared) != dumps_document(alone):
        differ.append("bytes")
    return differ


def _counted(monkeypatch, module, name: str) -> list:
    """Record the first argument of every call to module.name."""
    calls, original = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("order", [
    ("product", "other_product", "quotient"),
    ("quotient", "other_product", "product"),
    ("other_product", "quotient", "product"),
])
def test_equal_tables_are_classified_once_whatever_the_order(monkeypatch, order):
    rs = _same_table_rings()
    catalog = [rs[name] for name in order]
    calls = _counted(monkeypatch, classify, "classify_ring")
    reports = classify_catalog(catalog)
    assert calls == [catalog[0]]
    for name, report in zip(order, reports):
        names = [c.check for c in report.theorem_checks]
        assert (PRODUCT_CHECK in names) == (name != "quotient")
        # each report reads as the ring's own classification, product check
        # at its own row position
        own = classify_ring(rs[name])
        assert names == [c.check for c in own.theorem_checks]
        assert report.ring is rs[name]
    assert len({id(r.properties) for r in reports}) == 1
    assert _differences(reports, catalog) == []


def test_planted_product_failure_is_each_products_own(monkeypatch):
    row = next(x for x, r in enumerate(THEOREM_CHECKS) if r[0] == PRODUCT_CHECK)
    check, bound, requires, _ = THEOREM_CHECKS[row]

    def planted(ctx, props):
        return {"factors": [f.name for f in ctx.ring.factors]}

    planted_rows = list(THEOREM_CHECKS)
    planted_rows[row] = (check, bound, requires, planted)
    monkeypatch.setattr(classify, "THEOREM_CHECKS", planted_rows)
    rs = _same_table_rings()
    for catalog in ([rs["product"], rs["quotient"], rs["other_product"]],
                    [rs["quotient"], rs["other_product"], rs["product"]]):
        failures = build_document(classify_catalog(catalog), Bounds())["aggregate"]["failures"]
        named = sorted((f["ring"], f["detail"]["factors"]) for f in failures)
        want = sorted((r.name, [f.name for f in r.factors]) for r in catalog if r.factors)
        assert named == want
        assert all(f["name"] == PRODUCT_CHECK for f in failures)


def test_small_catalog_document_matches_per_ring_classification():
    catalog = default_catalog(8)
    assert len({r.tables for r in catalog}) < len({r.key for r in catalog})
    assert _differences(classify_catalog(catalog), catalog) == []


def _product_mask(ring: FiniteRing, i: int, j: int) -> int:
    """The product ideal by a direct double loop over both element sets."""
    prods = 0
    for a in rings.bits(i):
        for b in rings.bits(j):
            prods |= 1 << ring.mul_rows[a][b]
    return ring.ideal_mask_closure(prods)


def test_memoized_ideal_product_matches_double_loop(catalog16_tables):
    # on rings of order <= 8, also element sets {0, a} that are not ideals,
    # where the product is still the ideal the products generate
    pairs = 0
    for ring in catalog16_tables:
        lattice = all_ideals(ring)
        if ring.order <= 8:
            lattice = lattice + [Ideal(ring, 1 | 1 << a) for a in range(1, ring.order)]
        for i in lattice:
            for j in lattice:
                assert ideal_product(i, j).mask == _product_mask(ring, i.mask, j.mask)
                pairs += 1
    assert pairs > 5000


def _generated(ring: FiniteRing, gens: list[int]) -> int:
    """The ideal the elements generate: zero, then sums with their multiples
    until nothing is new."""
    multiples = {ring.mul_rows[g][r] for g in gens for r in range(ring.order)}
    got, more = set(), {ring.zero}
    while more != got:
        got, more = more, more | {ring.add_rows[x][m] for x in more for m in multiples}
    return sum(1 << x for x in got)


def test_generators_match_the_greedy_loop(catalog16_tables):
    # each generator is the smallest member outside the ideal the earlier
    # ones generate; the zero ideal reports (0,)
    ideals = 0
    for ring in catalog16_tables:
        for ideal in all_ideals(ring):
            picks = []
            while rest := ideal.mask & ~_generated(ring, picks):
                picks.append(next(rings.bits(rest)))
            assert ideal.generators() == (tuple(picks) or (ring.zero,)), (ring.name, ideal)
            ideals += 1
    assert ideals > 400


def _full_square_closure(ctx: RingContext, is_npure) -> dict | None:
    """The closure scan as it ran over every ordered pair of N-pure ideals."""
    npure_ideals = [i for i in ctx.lattice if is_npure(ctx.ring, i.mask)]
    for i in npure_ideals:
        for j in npure_ideals:
            for op, combine in _IDEAL_OPERATIONS:
                if not is_npure(ctx.ring, combine(i, j).mask):
                    return {"left": list(i.elems), "right": list(j.elems), "op": op}
    return None


def test_closure_witness_matches_the_full_square(monkeypatch, catalog16_tables):
    """With each ideal in turn planted as the only non-N-pure one, the
    unordered-pair scan names the failure the full square names."""
    witnesses = Counter()
    for ring in catalog16_tables:
        ctx = RingContext(ring)
        for bad in ctx.lattice:
            def planted(r, mask, bad=bad.mask):
                return mask != bad

            monkeypatch.setattr(classify, "_is_npure", planted)
            got = classify._npure_closure(ctx, None)
            assert got == _full_square_closure(ctx, planted)
            if got is not None:
                witnesses["diagonal" if got["left"] == got["right"] else "off"] += 1
    # the planted failures reach both kinds of pair, I*I = I^2 among them
    assert witnesses["diagonal"] > 0 and witnesses["off"] > 0


def test_cosets_run_once_per_table_and_mask(monkeypatch, capsys):
    seen = Counter()
    cosets = rings._cosets

    def counted(inner, mask):
        seen[inner.tables.add_bytes, inner.tables.mul_bytes, inner.one, mask] += 1
        return cosets(inner, mask)

    monkeypatch.setattr(rings, "_cosets", counted)
    assert main(["verify-catalog", "--max-order", "16"]) == 0
    capsys.readouterr()
    assert seen and max(seen.values()) == 1
    assert sum(seen.values()) <= 450
