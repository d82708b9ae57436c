"""Acceptance harness: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion asserts its stated bound or tolerance directly.
"""

from __future__ import annotations

import time
from collections import Counter

import pytest

from ringlab.bounds import Bounds
from ringlab.catalog import default_catalog
from ringlab.classify import (
    RingContext,
    classify_catalog,
    classify_property,
    classify_ring,
)
from ringlab.ideals import (
    _purity_scan,
    all_ideals,
    ideal_from_generators,
    ideal_intersection,
    ideal_product,
    ideal_sum,
    radical,
)
from ringlab.rings import build, find_isomorphism
from ringlab.report import build_document, dumps_document
from ringlab.spectra import ker_pi
from ringlab.specs import LocalizeAt, Zmod

ACCEPTANCE_BOUNDS = Bounds(lattice=24, spp=24)

EXPECTED_METHOD_COUNTS = {
    "von_neumann_regular": 7,
    "zero_dimensional": 7,
    "mp_ring": 5,
    "mid_ring": 10,
    "pp_ring": 3,
}


def _pure_ok(ring, mask) -> bool:
    return _purity_scan(ring, mask, nil=False)[0]


def _npure_ok(ring, mask) -> bool:
    return _purity_scan(ring, mask, nil=True)[0]


def _report(line: str) -> None:
    print(f"\n{line}")


@pytest.fixture(scope="module")
def catalog48():
    start = time.perf_counter()
    reports = classify_catalog(default_catalog(48, ACCEPTANCE_BOUNDS), ACCEPTANCE_BOUNDS)
    elapsed = time.perf_counter() - start
    return reports, elapsed


@pytest.fixture(scope="module")
def catalog16_rings():
    return default_catalog(16)


def test_criterion_1_method_agreement(catalog48):
    reports, elapsed = catalog48
    disagreements = []
    for report in reports:
        for name, result in report.properties.items():
            want = EXPECTED_METHOD_COUNTS.get(name)
            if want is not None:
                assert len(result.results) == want, (report.ring.name, name)
            if not result.consistent:
                disagreements.append((report.ring.name, name))
        for item in report.ideal_results:
            assert len(item.npure.results) == 8, report.ring.name
            if not item.npure.consistent:
                disagreements.append((report.ring.name, tuple(item.ideal.elems)))
    assert disagreements == []
    statuses = Counter(c.status for report in reports for c in report.theorem_checks)
    failed = [(r.ring.name, c.check) for r in reports for c in r.theorem_checks
              if c.status == "fail"]
    assert failed == []
    assert elapsed <= 300.0, f"catalog run took {elapsed:.1f}s"
    _report(
        f"ACCEPTANCE 1 PASS: method agreement on {len(reports)} rings "
        f"(lattice bound 24), 0 disagreements; theorem checks "
        f"{statuses['pass']} passed, {statuses['skipped']} skipped, 0 failed; {elapsed:.1f}s"
    )


def test_criterion_2_radical_formula(catalog16_rings):
    from ringlab.classify import _radical_formula_mask

    checked = mismatches = 0
    for ring in catalog16_rings:
        ctx = RingContext(ring)
        for ideal in ctx.lattice:
            formula = _radical_formula_mask(ctx, ideal)
            matches = formula == radical(ideal).mask
            npure = _npure_ok(ring, ideal.mask)
            checked += 1
            if matches != npure:
                mismatches += 1
    assert mismatches == 0
    _report(
        f"ACCEPTANCE 2 PASS: radical formula tracks N-purity on {checked} ideals, "
        "0 mismatches"
    )


def test_criterion_3_npure_closure(catalog16_rings):
    checked = failures = 0
    for ring in catalog16_rings:
        lattice = all_ideals(ring)
        npure = [i for i in lattice if _npure_ok(ring, i.mask)]
        for i in npure:
            for j in npure:
                for op in (ideal_sum, ideal_product, ideal_intersection):
                    checked += 1
                    if not _npure_ok(ring, op(i, j).mask):
                        failures += 1
    assert failures == 0
    _report(
        f"ACCEPTANCE 3 PASS: N-purity closed under sum/product/intersection "
        f"({checked} combinations), 0 failures"
    )


def test_criterion_4_reduced_iff_families_coincide(catalog16_rings):
    for ring in catalog16_rings:
        reduced = ring.nil_mask == 1 << ring.zero
        coincide = all(
            _npure_ok(ring, i.mask) == _pure_ok(ring, i.mask)
            for i in all_ideals(ring)
        )
        assert reduced == coincide, ring.name

    z6 = build(Zmod(6))
    assert z6.nil_mask == 1
    assert all(
        _pure_ok(z6, i.mask) and _npure_ok(z6, i.mask)
        for i in all_ideals(z6)
    )
    z4 = build(Zmod(4))
    two = ideal_from_generators(z4, [2])
    assert _npure_ok(z4, two.mask) and not _pure_ok(z4, two.mask)
    _report(
        "ACCEPTANCE 4 PASS: reduced iff N-pure = pure families "
        "(Z/6 positive, Z/4 negative witness (2))"
    )


def test_criterion_5_spectra_coincide_iff_regular():
    for ring in default_catalog(24):
        if ring.order > 24:
            continue
        ctx = RingContext(ring)
        vnr = classify_property(ctx, "von_neumann_regular")
        assert vnr.consistent
        spec_masks = sorted(p.mask for p in ctx.spectrum.primes)
        spp_masks = sorted(p.mask for p in ctx.pure_spectrum.members)
        assert (spec_masks == spp_masks) == vnr.value, ring.name

    z4 = RingContext(build(Zmod(4)))
    assert [tuple(i.elems) for i in z4.pure_spectrum.members] == [(0,), (0, 2)]
    assert [tuple(i.elems) for i in z4.spectrum.primes] == [(0, 2)]
    z6 = RingContext(build(Zmod(6)))
    spp6 = sorted(tuple(i.elems) for i in z6.pure_spectrum.members)
    spec6 = sorted(tuple(i.elems) for i in z6.spectrum.primes)
    assert spp6 == spec6 == [(0, 2, 4), (0, 3)]
    _report(
        "ACCEPTANCE 5 PASS: Spec = Spp exactly on regular rings; "
        "Z/4 and Z/6 values reproduce"
    )


def test_criterion_6_modular_rings():
    start = time.perf_counter()
    for n in range(2, 201):
        res = classify_property(RingContext(build(Zmod(n))), "mid_ring")
        assert res.consistent and res.value is True, n
    elapsed = time.perf_counter() - start
    assert elapsed <= 30.0, f"mid sweep took {elapsed:.1f}s"

    def squarefree(n):
        return all(n % (d * d) for d in range(2, int(n**0.5) + 1))

    for n in range(2, 101):
        res = classify_property(RingContext(build(Zmod(n))), "pf_ring")
        assert res.value == squarefree(n), n
    _report(
        f"ACCEPTANCE 6 PASS: Z/n mid for all n <= 200 ({elapsed:.1f}s); "
        "pf iff squarefree for n <= 100"
    )


def test_criterion_7_implication_chain(catalog48):
    reports, _ = catalog48
    failures = []
    for report in reports:
        values = {name: res.value for name, res in report.properties.items()}
        for src, dst in (
            ("pf_ring", "mid_ring"),
            ("gpf_ring", "mid_ring"),
            ("primary_ring", "mid_ring"),
            ("mid_ring", "mp_ring"),
        ):
            if values[src] and values[dst] is False:
                failures.append((report.ring.name, src, dst))
        for item in report.ideal_results:
            if item.pure.value and item.npure.value is False:
                failures.append((report.ring.name, tuple(item.ideal.elems)))
    assert failures == []
    _report(
        f"ACCEPTANCE 7 PASS: implication chain holds on all {len(reports)} rings "
        "(pure=>N-pure, pf=>mid, gpf=>mid, primary=>mid, mid=>mp)"
    )


def test_criterion_8_localization_coherence(catalog16_rings):
    from ringlab.ideals import is_primary_ideal, zero_ideal

    count = 0
    for ring in catalog16_rings:
        ctx = RingContext(ring)
        for m in ctx.spectrum.maximal:
            loc = ctx.localization(m)
            assert loc.local_maximal_mask() is not None, ring.name
            assert radical(ctx.kernel(m)) == m, ring.name
            assert is_primary_ideal(zero_ideal(loc)).value, ring.name
            count += 1

    z12 = build(Zmod(12))
    p2 = ideal_from_generators(z12, [2])
    assert ker_pi(z12, p2).elems == (0, 4, 8)
    loc = build(LocalizeAt(Zmod(12), (2,)))
    assert find_isomorphism(loc, build(Zmod(4))) is not None
    _report(
        f"ACCEPTANCE 8 PASS: {count} localizations local with primary zero ideal "
        "and radical(kernel) = maximal; Z/12 at (2) is Z/4"
    )


def test_criterion_9_certificates():
    from ringlab.groebner import example1_certificate

    times = []
    for p in (2, 3, 5):
        start = time.perf_counter()
        cert = example1_certificate(p)
        times.append(time.perf_counter() - start)
        assert cert.all_pass, p
        assert len(cert.clauses) == 4
        assert sorted(cert.basis) == ["x", "y*z", "z^2"]
        assert times[-1] < 1.0, f"certificate for p={p} took {times[-1]:.2f}s"
    _report(
        "ACCEPTANCE 9 PASS: counterexample certificates for p in {2,3,5}, "
        f"4/4 clauses, max {max(times)*1000:.0f}ms, basis {{x, y*z, z^2}}"
    )


def test_criterion_10_deterministic_reports():
    import hashlib
    import json

    rings = default_catalog(16)

    def document(reports) -> tuple[dict, bytes]:
        doc = build_document(reports, Bounds())
        return doc, dumps_document(doc).encode()

    # the reference classifies every ring on its own; verify-catalog's path
    # classifies each distinct key once
    unshared, first = document([classify_ring(ring) for ring in rings])
    doc, second = document(classify_catalog(rings))
    assert first == second
    # the streamed writer gives json.dumps's text whether or not dicts are shared
    for streamed, source in ((first, unshared), (second, doc)):
        plain = json.dumps(source, sort_keys=True, separators=(",", ":")) + "\n"
        assert streamed == plain.encode()
    # every witness is JSON-native: the document survives a round trip as is
    assert json.loads(second) == doc
    assert doc["aggregate"]["failed"] == 0
    # the max-order-16 document is pinned byte for byte
    assert hashlib.sha256(first).hexdigest() == (
        "4f929bbf882c50f064b9b042c1b8b444a3999eabaf4aa2cd1b72d29d1bf7a522"
    )
    _report(
        f"ACCEPTANCE 10 PASS: per-ring and per-key catalog reports byte-identical "
        f"({len(first)} bytes)"
    )
