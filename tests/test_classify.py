"""Cross-validation of the property deciders and their witnesses."""

from __future__ import annotations

import sys

import pytest

from ringlab import ideals, rings
from ringlab.bounds import Bounds
from ringlab.classify import (
    NPURE_METHODS,
    PROPERTY_METHODS,
    PROPERTY_ORDER,
    THEOREM_CHECKS,
    RingContext,
    Verdict,
    classify_catalog,
    classify_ideal,
    classify_property,
    classify_ring,
    is_npure,
    is_pure,
    npure_primes,
    ring_class,
    verify_theorems,
)
from ringlab.errors import OrderTooLarge
from ringlab.ideals import all_ideals, ideal_from_generators, unit_ideal, zero_ideal
from ringlab.report import _checks_part, _results_part, build_document, ring_report_dict
from ringlab.rings import FiniteRing, build, find_isomorphism
from ringlab.specs import PolyQuot, Product, Quotient, Zmod

MINI_SPECS = [
    Zmod(2),
    Zmod(4),
    Zmod(6),
    Zmod(8),
    Zmod(9),
    Zmod(12),
    Zmod(16),
    Zmod(18),
    Zmod(24),
    PolyQuot(2, (0, 0, 1)),
    PolyQuot(2, (1, 1, 1)),
    PolyQuot(2, (0, 0, 0, 1)),
    PolyQuot(3, (0, 0, 1)),
    PolyQuot(3, (1, 0, 1)),
    Product((Zmod(4), Zmod(3))),
    Product((Zmod(2), Zmod(2))),
    Product((Zmod(4), Zmod(4))),
    Product((Zmod(6), Zmod(4))),
    Quotient(Zmod(16), (4,)),
    Quotient(Product((Zmod(4), Zmod(3))), (6,)),
]


@pytest.fixture(scope="module")
def mini_rings():
    return [build(s) for s in MINI_SPECS]


# -- witness re-evaluation ------------------------------------------------


def _recheck_pair_scan(ring, ideal_mask, verdict, nilpotent_ok):
    """Re-run a(1-b) checks directly from the tables."""
    ok_set = ring.nil_mask if nilpotent_ok else 1 << ring.zero
    if verdict.value:
        for a, b in verdict.witness["choices"]:
            assert (ideal_mask >> a) & 1 and (ideal_mask >> b) & 1
            c = ring.add_rows[ring.one][ring.neg_of[b]]
            assert (ok_set >> ring.mul_rows[a][c]) & 1
    else:
        a = verdict.witness["element"]
        assert (ideal_mask >> a) & 1
        for b in range(ring.order):
            if not (ideal_mask >> b) & 1:
                continue
            c = ring.add_rows[ring.one][ring.neg_of[b]]
            assert not (ok_set >> ring.mul_rows[a][c]) & 1


def test_is_pure_examples():
    r = build(Zmod(12))
    i4 = ideal_from_generators(r, [4])
    v = is_pure(i4)
    assert v.value
    _recheck_pair_scan(r, i4.mask, v, nilpotent_ok=False)

    r4 = build(Zmod(4))
    i2 = ideal_from_generators(r4, [2])
    v = is_pure(i2)
    assert not v.value and v.witness["element"] == 2
    _recheck_pair_scan(r4, i2.mask, v, nilpotent_ok=False)

    assert is_pure(zero_ideal(r)).value


def test_npure_def_examples():
    r4 = build(Zmod(4))
    i2 = ideal_from_generators(r4, [2])
    v = is_npure(i2, "def")
    assert v.value
    _recheck_pair_scan(r4, i2.mask, v, nilpotent_ok=True)
    # witness tie-break: smallest b, and b = 0 works since 2*1 is nilpotent
    assert [2, 0] in v.witness["choices"]


def test_npure_pure_core_example():
    r4 = build(Zmod(4))
    i2 = ideal_from_generators(r4, [2])
    v = is_npure(i2, "pure_core")
    assert v.value and v.witness["core"] == [0]


def test_npure_ann_complement_example():
    r = build(Zmod(12))
    i2 = ideal_from_generators(r, [2])
    v = is_npure(i2, "ann_complement")
    assert v.value
    for a, t, u, v_elem in v.witness["choices"]:
        assert r.mul_rows[r.pow_index(a, t)][u] == r.zero
        assert r.add_rows[u][v_elem] == r.one
        assert (i2.mask >> v_elem) & 1


def test_npure_unit_ideal_all_methods():
    for spec in (Zmod(12), PolyQuot(2, (0, 0, 1))):
        r = build(spec)
        ctx = RingContext(r)
        full = unit_ideal(r)
        for method in NPURE_METHODS:
            assert is_npure(full, method, ctx).value, method


def test_npure_witness_power_rechecks():
    r = build(Zmod(16))
    ctx = RingContext(r)
    for i in all_ideals(r):
        v = is_npure(i, "witness_power", ctx)
        assert v.value
        for a, b, n in v.witness["choices"]:
            c = r.add_rows[r.one][r.neg_of[b]]
            assert r.mul_rows[r.pow_index(a, n)][c] == r.zero
            if n > 1:  # minimality of the reported exponent
                assert r.mul_rows[r.pow_index(a, n - 1)][c] != r.zero


def test_npure_finite_subset_uniform_witness():
    r = build(Zmod(12))
    ctx = RingContext(r)
    for i in all_ideals(r):
        v = is_npure(i, "finite_subset", ctx)
        assert v.value
        b, t = v.witness["uniform"]
        c = r.add_rows[r.one][r.neg_of[b]]
        assert (i.mask >> b) & 1
        for a in i.elems:
            assert r.mul_rows[r.pow_index(a, t)][c] == r.zero


def test_method_agreement_mini_catalog(mini_rings):
    for r in mini_rings:
        ctx = RingContext(r)
        for name in PROPERTY_ORDER:
            res = classify_property(ctx, name)
            assert res.consistent, (r.name, name, [(v.method, v.value) for v in res.verdicts])
        for i in ctx.lattice:
            ic = classify_ideal(ctx, i)
            assert ic.npure.consistent, (r.name, list(i.elems))
            # every ideal of a finite ring is N-pure; each route must see it
            assert ic.npure.value is True


def test_finite_ring_sanity_facts(mini_rings):
    for r in mini_rings:
        ctx = RingContext(r)
        values = {name: classify_property(ctx, name).value for name in PROPERTY_ORDER}
        assert values["zero_dimensional"] is True
        assert values["nj_ring"] is True
        assert values["mp_ring"] is True
        assert values["mid_ring"] is True
        assert values["gpf_ring"] is True
        assert values["semiprimitive"] == values["reduced"] == values["von_neumann_regular"]
        assert values["pf_ring"] == values["reduced"]
        assert values["pp_ring"] == values["von_neumann_regular"]


def test_catalog_wide_sanity_facts():
    # finite rings are all zero-dimensional / NJ / mp / mid / Gpf; the other
    # classes collapse to reducedness
    from ringlab.catalog import default_catalog

    for ring in default_catalog(12):
        ctx = RingContext(ring)
        values = {name: classify_property(ctx, name).value for name in PROPERTY_ORDER}
        assert all(
            values[name] is True
            for name in ("zero_dimensional", "nj_ring", "mp_ring", "mid_ring", "gpf_ring")
        ), spec
        assert values["semiprimitive"] == values["reduced"] == values["von_neumann_regular"]
        assert values["pf_ring"] == values["reduced"]


def test_monotone_implications(mini_rings):
    for r in mini_rings:
        ctx = RingContext(r)
        values = {name: classify_property(ctx, name).value for name in PROPERTY_ORDER}
        assert not values["pf_ring"] or values["mid_ring"]
        assert not values["gpf_ring"] or values["mid_ring"]
        assert not values["primary_ring"] or values["mid_ring"]
        assert not values["mid_ring"] or values["mp_ring"]
        for i in ctx.lattice:
            if is_pure(i).value:
                assert is_npure(i, "def", ctx).value


def test_ring_battery_examples():
    r12 = build(Zmod(12))
    mid = ring_class(r12, "mid")
    assert mid.value is True and len(mid.verdicts) == 10

    pf = ring_class(r12, "pf", "annihilators_pure")
    assert pf.value is False and pf.witness["element"] == 2

    assert ring_class(build(Zmod(6)), "pp").value is True
    assert ring_class(build(Zmod(6)), "vnr").value is True

    vnr4 = ring_class(build(Zmod(4)), "vnr", "square_witness")
    assert vnr4.value is False and vnr4.witness["element"] == 2

    dual = build(PolyQuot(2, (0, 0, 1)))
    assert ring_class(dual, "primary").value is True
    assert ring_class(dual, "mid").value is True


def test_vnr_square_witnesses_recheck():
    r6 = build(Zmod(6))
    v = ring_class(r6, "vnr", "square_witness")
    assert v.value
    for a, b in v.witness["choices"]:
        assert r6.mul_rows[r6.mul_rows[a][a]][b] == a


def test_gpf_witnesses_recheck():
    from ringlab.ideals import _purity_scan

    r = build(Zmod(12))
    v = ring_class(r, "gpf", "annihilator_power_pure")
    assert v.value
    for a, n in v.witness["choices"]:
        ok, _ = _purity_scan(r, r.ann_masks[r.pow_index(a, n)], nil=False)
        assert ok
        # a = 2 needs n = 2: Ann(2) = (6) is not pure but Ann(4) = (3) is
        if a == 2:
            assert n == 2


def test_pp_idempotent_witnesses_recheck():
    r6 = build(Zmod(6))
    v = ring_class(r6, "pp", "annihilators_idempotent_generated")
    assert v.value
    for a, e in v.witness["choices"]:
        assert r6.mul_rows[e][e] == e
        assert r6.principal_masks[e] == r6.ann_masks[a]


def test_npure_primes_examples():
    r = build(Zmod(12))
    ctx = RingContext(r)
    got = {tuple(p.elems) for p in npure_primes(ctx)}
    assert got == {(0, 2, 4, 6, 8, 10), (0, 3, 6, 9)}
    assert got == {tuple(p.elems) for p in ctx.spectrum.minimal}

    field = build(PolyQuot(5, (3, 1)))
    assert [tuple(p.elems) for p in npure_primes(RingContext(field))] == [(0,)]

    dual = build(PolyQuot(2, (0, 0, 1)))
    assert [tuple(p.elems) for p in npure_primes(RingContext(dual))] == [(0, 2)]


def test_pure_core_uniqueness(mini_rings):
    from ringlab.ideals import radical
    from ringlab.spectra import pure_ideals

    for r in mini_rings:
        pures = pure_ideals(all_ideals(r))
        for i in all_ideals(r):
            rad = radical(i).mask
            matches = [j for j in pures if radical(j).mask == rad]
            assert len(matches) == 1, (r.name, list(i.elems))


def test_verify_theorems_no_failures(mini_rings):
    for r in mini_rings:
        ctx = RingContext(r)
        for check in verify_theorems(ctx):
            assert check.status in ("pass", "skipped"), (r.name, check)


def test_verify_theorems_catalog_sweep():
    # order <= 16 keeps every pair-quantified check active, nothing skipped
    # for size reasons except the product-factor check on non-products
    from ringlab.catalog import default_catalog

    for ring in default_catalog(16):
        ctx = RingContext(ring)
        for check in verify_theorems(ctx):
            assert check.status in ("pass", "skipped"), (ring.spec, check)


def test_sampled_mode_beyond_lattice_bound():
    r = build(Zmod(12))
    bounds = Bounds(lattice=8)
    ctx = RingContext(r, bounds)
    universe, sampled = ctx.ideal_universe
    assert sampled
    # principal ideals of Z/12 are the whole lattice, so sampling is exact
    assert {i.mask for i in universe} == {i.mask for i in all_ideals(r)}
    res = classify_property(ctx, "von_neumann_regular")
    assert res.consistent and res.value is False
    skipped = [s for s in res.results if hasattr(s, "reason")]
    assert skipped and all("bound" in s.reason for s in skipped)


def test_context_enforces_element_bound():
    r = build(Zmod(12))
    with pytest.raises(OrderTooLarge, match="^order 12 exceeds element bound 8$"):
        RingContext(r, Bounds(element=8))


def test_theorem_checks_over_the_pair_bound_name_it():
    # the pair bound is min(16, lattice bound); Z/18 is within every other
    report = classify_ring(build(Zmod(18)))
    skipped = {c.check: c.detail for c in report.theorem_checks if c.status == "skipped"}
    assert skipped == dict.fromkeys(
        ["npure_iff_every_power_npure", "npure_closed_under_sum_product_intersection",
         "power_intersection_implies_npure", "radical_formula_tracks_npure"],
        {"reason": "order 18 exceeds bound 16"},
    )


def test_classify_ring_report_shape():
    report = classify_ring(build(Zmod(12)))
    assert set(report.properties) == set(PROPERTY_ORDER)
    assert all(p.consistent for p in report.properties.values())
    assert all(ic.npure.consistent for ic in report.ideal_results)
    assert len(report.ideal_results) == 6
    assert report.theorem_checks
    assert all(c.status in ("pass", "skipped") for c in report.theorem_checks)


def test_property_filter_and_aliases():
    report = classify_ring(build(Zmod(6)), properties=["mid", "pf"])
    assert set(report.properties) == {"mid_ring", "pf_ring"}
    with pytest.raises(ValueError):
        classify_ring(build(Zmod(6)), properties=["frobnication"])


def _count_calls(monkeypatch, original) -> list:
    """Record the first argument of every call to original, wrapped at each
    ringlab module binding it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "ringlab" or name.startswith("ringlab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("spec", [Zmod(12), Product((Zmod(4), Zmod(3)))])
def test_classify_ring_enumerates_one_lattice(monkeypatch, spec):
    ring = build(spec)
    calls = _count_calls(monkeypatch, ideals.all_ideals)
    classify_ring(ring)
    assert calls == [ring]


@pytest.mark.parametrize(
    "spec, quotients",
    [(Zmod(30), 0), (Product((Zmod(5), Zmod(7))), 0), (Zmod(12), 1)],
)
def test_ideal_battery_reduces_only_a_nonreduced_ring(monkeypatch, spec, quotients):
    # the mod_nil route reads R/nilradical; a reduced ring is its own
    # reduction, with the identity as projection, and is not copied
    ring = build(spec)
    ctx = RingContext(ring)
    calls = _count_calls(monkeypatch, rings.quotient_ring)
    results = [classify_ideal(ctx, i) for i in ctx.lattice]
    assert calls == [ring] * quotients
    reduced, proj = ctx.reduction
    assert (reduced is ring) == (quotients == 0)
    if reduced is ring:
        assert proj == list(range(ring.order))
        for ic in results:
            (mod_nil,) = (v for v in ic.npure.verdicts if v.method == "mod_nil")
            assert mod_nil.witness["image"] == list(ic.ideal.elems)


def _quotient_masks(monkeypatch, ring: FiniteRing) -> list[int]:
    """Record the ideal mask of every quotient_ring call whose inner ring is
    the given one, wrapped at each ringlab module binding it."""
    masks = []
    original = rings.quotient_ring

    def counted(inner, mask, spec):
        if inner is ring:
            masks.append(mask)
        return original(inner, mask, spec)

    for name, module in list(sys.modules.items()):
        if name == "ringlab" or name.startswith("ringlab."):
            if getattr(module, "quotient_ring", None) is original:
                monkeypatch.setattr(module, "quotient_ring", counted)
    return masks


@pytest.mark.parametrize(
    "spec, built",
    [
        (Zmod(12), 3),
        (Zmod(30), 6),
        (Product((Zmod(4), Zmod(3))), 3),
        (PolyQuot(2, (0, 0, 1, 1)), 3),
    ],
)
def test_classify_ring_builds_each_derived_quotient_once(monkeypatch, spec, built):
    # R_p is R modulo the kernel at p, a pure ideal: the pure-quotient check
    # reads the localization's context, R/(0) is R itself, and the nilradical
    # is neither a kernel nor a nonzero pure ideal
    ring = build(spec)
    ctx = RingContext(ring)
    want = (
        {ctx.kernel(p).mask for p in ctx.spectrum.primes}
        | {i.mask for i in ctx.pure_list if i.is_proper}
        | {ring.nil_mask}
    ) - {1 << ring.zero}
    masks = _quotient_masks(monkeypatch, ring)
    report = classify_ring(ring)
    checks = {c.check: c.status for c in report.theorem_checks}
    assert checks["mid_localizations_are_mid"] == "pass"
    assert checks["quotients_by_pure_ideals_are_mid"] == "pass"
    assert len(masks) == built
    assert sorted(masks) == sorted(want)


@pytest.mark.parametrize(
    "spec", [Zmod(4), Zmod(12), Zmod(30), Product((Zmod(4), Zmod(3))), PolyQuot(2, (0, 0, 1, 1))]
)
def test_pure_quotients_first_leave_localizations_to_localize_at_mask(monkeypatch, spec):
    # a quotient built before the localizations is not kept where they are
    # read, so each R_p with a nonzero kernel still comes from localize_at_mask
    ring = build(spec)
    ctx = RingContext(ring)
    body = next(body for check, _, _, body in THEOREM_CHECKS
                if check == "quotients_by_pure_ideals_are_mid")
    assert body(ctx, {}) is None
    calls = _count_calls(monkeypatch, rings.localize_at_mask)
    for p in ctx.spectrum.primes:
        before = len(calls)
        local = ctx.localization(p)
        assert ctx.localization(p) is local
        if ctx.kernel(p).is_zero:
            assert local is ring and len(calls) == before
        else:
            assert calls[before:] == [ring]
            assert local.local_maximal_mask() is not None
    verify_theorems(ctx)
    stored = [v for memo in vars(ctx).values() if isinstance(memo, dict) for v in memo.values()]
    assert all(v is not ctx for v in stored)


def test_classify_product_builds_no_ring(monkeypatch):
    # the product theorem check reads the factors the product was built from
    ring = build(Product((Zmod(4), Zmod(3))))
    calls = _count_calls(monkeypatch, build)
    classify_ring(ring)
    assert calls == []
    assert [f.spec for f in ring.factors] == [Zmod(4), Zmod(3)]


def test_cli_spectrum_enumerates_one_lattice(monkeypatch, capsys):
    from ringlab.cli import main

    calls = _count_calls(monkeypatch, ideals.all_ideals)
    assert main(["spectrum", "Z/12"]) == 0
    capsys.readouterr()
    assert [ring.name for ring in calls] == ["Z/12"]


def test_cli_check_serializes_ring_once(monkeypatch, tmp_path, capsys):
    from ringlab.cli import main

    calls = _count_calls(monkeypatch, ring_report_dict)
    assert main(["check", "Z/12", "--json", str(tmp_path / "report.json")]) == 0
    capsys.readouterr()
    assert [r.ring.name for r in calls] == ["Z/12"]


def test_equal_tables_share_one_classification(monkeypatch):
    z2, gf2 = build(Zmod(2)), build(PolyQuot(2, (1, 1)))
    assert z2.key == gf2.key
    calls = _count_calls(monkeypatch, classify_ring)
    docs = build_document(classify_catalog([z2, gf2]), Bounds())["rings"]
    assert calls == [z2]
    assert [d["spec"] for d in docs] == ["Z/2", "GF(2)[x]/(x + 1)"]
    # the shared dict is the one gf2's own classification gives
    assert docs[1] == ring_report_dict(classify_ring(gf2))[0]
    assert {**docs[0], "spec": None} == {**docs[1], "spec": None}


def test_shared_failures_name_their_own_ring(monkeypatch):
    broken = [("no_nilpotents", lambda ctx: Verdict("no_nilpotents", True)),
              PROPERTY_METHODS["reduced"][1]]
    monkeypatch.setitem(PROPERTY_METHODS, "reduced", broken)
    z4, zero_quotient = build(Zmod(4)), build(Quotient(Zmod(4), ()))
    assert z4.key == zero_quotient.key
    doc = build_document(classify_catalog([z4, zero_quotient]), Bounds())
    labels = [f["ring"] for f in doc["aggregate"]["failures"]]
    n = len(labels) // 2
    assert n > 0 and labels == [z4.name] * n + [zero_quotient.name] * n


def test_relabelled_isomorphic_rings_are_classified_apart(monkeypatch):
    z6, prod = build(Zmod(6)), build(Product((Zmod(3), Zmod(2))))
    assert find_isomorphism(z6, prod) is not None
    assert z6.key != prod.key
    calls = _count_calls(monkeypatch, classify_ring)
    classify_catalog([z6, prod])
    assert calls == [z6, prod]


def test_product_key_includes_its_factors(monkeypatch):
    prod = build(Product((Zmod(2), Zmod(2))))
    zero_quotient = build(Quotient(prod.spec, ()))
    assert prod.key[:3] == zero_quotient.key[:3]
    assert prod.key != zero_quotient.key
    calls = _count_calls(monkeypatch, classify_ring)
    reports = classify_catalog([prod, zero_quotient])
    # one table, one classification; the product check is the product's own
    assert calls == [prod]
    has_product_check = [
        any(c.check == "product_mid_iff_factors_mid" for c in r.theorem_checks) for r in reports
    ]
    assert has_product_check == [True, False]


def test_check_and_spectrum_never_compute_the_key(monkeypatch, tmp_path, capsys):
    from ringlab.cli import main

    def computed(ring):
        raise AssertionError(f"key of {ring.name} computed")

    monkeypatch.setattr(FiniteRing, "key", property(computed))
    assert main(["check", "product(Z/4, Z/3)", "--json", str(tmp_path / "r.json")]) == 0
    assert main(["spectrum", "Z/12"]) == 0
    capsys.readouterr()


def test_verify_catalog_classifies_each_key_once(monkeypatch, capsys):
    from ringlab.cli import main

    classified = _count_calls(monkeypatch, classify_ring)
    results_parts = _count_calls(monkeypatch, _results_part)
    checks_parts = _count_calls(monkeypatch, _checks_part)
    # a second run classifies every table again: no state outlives a run
    for _ in range(2):
        assert main(["verify-catalog", "--max-order", "16"]) == 0
        assert capsys.readouterr().out.startswith("catalog: 868 rings")
        # 124 keys over 83 distinct tables: one classification and one
        # properties and ideals part per table, one checks part per key
        assert len(classified) == len(results_parts) == 83
        assert len({ring.tables for ring in classified}) == 83
        assert len(checks_parts) == len({id(checks) for checks in checks_parts}) == 124
        classified.clear()
        results_parts.clear()
        checks_parts.clear()
