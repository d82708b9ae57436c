"""Which family each ring-level route reads, and the theorem checks' fail and skip branches.

In a finite ring every prime ideal is both minimal and maximal, so a route
wired to the wrong spectrum list, or a containment test turned around,
gives the same verdicts on every real ring.  These tests hand a context a
doctored Spectrum whose primes, minimal and maximal lists differ, and pin
the list each route reads.  No catalog ring reaches the theorem checks'
fail and skip branches either; doctored property verdicts pin those.
"""

from __future__ import annotations

from collections import Counter

import pytest

from ringlab import classify
from ringlab.classify import (
    NPURE_METHODS,
    PROPERTY_METHODS,
    PROPERTY_ORDER,
    PropertyResult,
    RingContext,
    Verdict,
    classify_property,
    classify_ring,
    verify_theorems,
)
from ringlab.ideals import Ideal, ideal_from_generators
from ringlab.rings import build
from ringlab.spectra import Spectrum
from ringlab.specs import Product, Zmod


def _route(method: str):
    for routes in PROPERTY_METHODS.values():
        for name, fn in routes:
            if name == method:
                return fn
    raise KeyError(method)


def _set(ring, elems) -> Ideal:
    mask = 0
    for e in elems:
        mask |= 1 << e
    return Ideal(ring, mask)


def _z30_context(primes, minimal, maximal) -> RingContext:
    ring = build(Zmod(30))
    ctx = RingContext(ring)
    ctx.spectrum = Spectrum(ring, primes(ring), minimal(ring), maximal(ring))
    return ctx


def _principal(*gens):
    return lambda ring: [ideal_from_generators(ring, [g]) for g in gens]


# route -> the spectrum list whose primes it hands to ctx.kernel / ctx.localization
KERNEL_AND_LOCALIZATION_ROWS = {
    "kernel_equals_maximal": "maximal",
    "localizations_semiprimitive": "primes",
    "kernel_radical_equals_maximal": "maximal",
    "localizations_nj_at_primes": "primes",
    "localizations_nj_at_maximals": "maximal",
    "minimal_kernels_npure": "minimal",
    "all_kernels_npure": "primes",
    "localizations_primary_at_primes": "primes",
    "localizations_primary_at_maximals": "maximal",
    "kernels_pure_at_primes": "primes",
    "kernels_pure_at_minimals": "minimal",
    "kernels_primary_at_primes": "primes",
    "kernels_primary_at_maximals": "maximal",
}


@pytest.mark.parametrize("method", sorted(KERNEL_AND_LOCALIZATION_ROWS))
def test_kernel_and_localization_rows_read_their_family(method):
    # Z/30 has primes (2), (3), (5); call (2) the only minimal one and (3)
    # the only maximal one
    ctx = _z30_context(_principal(2, 3, 5), _principal(2), _principal(3))
    seen = []
    kernel, localization = ctx.kernel, ctx.localization

    def recording(fn):
        def wrapper(p):
            seen.append(p.elems)
            return fn(p)
        return wrapper

    ctx.kernel = recording(kernel)
    ctx.localization = recording(localization)
    verdict = _route(method)(ctx)
    assert verdict.value is True
    family = getattr(ctx.spectrum, KERNEL_AND_LOCALIZATION_ROWS[method])
    assert seen == [p.elems for p in family]


@pytest.mark.parametrize(
    "method, ideal",
    [
        ("maximal_ideals_pure", [5]),
        ("maximal_ideals_npure", [5]),
        ("minimal_primes_npure", [3]),
    ],
)
def test_scan_rows_read_their_family(method, ideal):
    # one non-ideal set per list, each failing both scans: a(1-a) is a
    # nonzero non-nilpotent for a = 2, 3, 5 in Z/30
    def single(e):
        return lambda ring: [_set(ring, [e])]

    ctx = _z30_context(single(2), single(3), single(5))
    verdict = _route(method)(ctx)
    assert verdict.value is False
    assert verdict.witness == {"ideal": ideal, "element": ideal[0]}


def test_unique_minimal_below_rejects_primes_without_one():
    ctx = _z30_context(_principal(2, 3, 5), _principal(2), _principal(3))
    verdict = _route("unique_minimal_below")(ctx)
    assert verdict.value is False
    assert verdict.witness == {
        "ideal": list(ideal_from_generators(ctx.ring, [3]).elems),
        "minimal_below": [],
    }


def test_kernels_equal_when_nested_reads_containment_upward():
    # (6) lies inside (2); a kernel map that is the identity tells them apart
    ctx = _z30_context(_principal(6, 2), lambda ring: [], lambda ring: [])
    ctx.kernel = lambda p: p
    verdict = _route("kernels_equal_when_nested")(ctx)
    assert verdict.value is False
    assert verdict.witness == {
        "lower": list(ideal_from_generators(ctx.ring, [6]).elems),
        "upper": list(ideal_from_generators(ctx.ring, [2]).elems),
    }


def test_finite_subset_checks_pairs():
    # {0, 3, 4} in Z/6 has a witness for every single element but none
    # shared by 3 and 4
    ring = build(Zmod(6))
    verdict = NPURE_METHODS["finite_subset"](RingContext(ring), _set(ring, [0, 3, 4]))
    assert verdict.value is False
    assert verdict.witness == {"subset": [3, 4]}


# -- theorem checks on doctored verdicts ----------------------------------


def _theorems(spec, **verdicts):
    """Theorem outcomes on a ring whose property verdicts are replaced.

    A keyword maps a property to True, False, None (the property is
    missing) or "split" (its routes disagree)."""
    ctx = RingContext(build(spec))
    props = {name: classify_property(ctx, name) for name in PROPERTY_ORDER}
    for name, value in verdicts.items():
        if value is None:
            del props[name]
        elif value == "split":
            props[name] = PropertyResult(name, [Verdict("a", True), Verdict("b", False)])
        else:
            props[name] = PropertyResult(name, [Verdict("doctored", value)])
    return {c.check: (c.status, c.detail) for c in verify_theorems(ctx, props)}


def test_theorems_fail_implications_into_mid():
    got = _theorems(Zmod(12), pf_ring=True, mid_ring=False)
    assert got["pf_implies_mid"] == ("fail", {"pf_ring": True, "mid_ring": False})
    assert got["gpf_implies_mid"] == ("fail", {"gpf_ring": True, "mid_ring": False})
    for check in (
        "mid_localizations_are_mid",
        "quotients_by_pure_ideals_are_mid",
        "npure_primes_equal_minimal",
    ):
        assert got[check] == ("skipped", {"reason": "ring not verified mid"})
    assert got["primary_implies_mid"] == ("pass", None)
    assert got["mid_implies_mp"] == ("pass", None)
    assert len(got) == 19


def test_theorems_vnr_against_spectra():
    # Z/12 is not regular, so Spec and Spp differ
    got = _theorems(Zmod(12), von_neumann_regular=True)
    assert got["vnr_iff_spectra_coincide"] == ("fail", {"vnr": True, "coincide": False})
    got = _theorems(Zmod(12), von_neumann_regular="split")
    assert got["vnr_iff_spectra_coincide"] == (
        "skipped", {"reason": "vnr verdict unavailable"}
    )
    assert _theorems(Zmod(6))["vnr_iff_spectra_coincide"] == ("pass", None)


def test_theorems_pp_against_composites():
    # Z/12 is mid and Gpf but not regular, so it cannot be p.p.
    got = _theorems(Zmod(12), pp_ring=True)
    assert got["pp_iff_mid_and_fractions_vnr"] == (
        "fail", {"pp": True, "mid": True, "fractions_vnr": False}
    )
    assert got["pp_iff_gpf_and_fractions_vnr"] == (
        "fail", {"pp": True, "gpf": True, "fractions_vnr": False}
    )
    got = _theorems(Zmod(12), gpf_ring=None)
    for check in ("pp_iff_mid_and_fractions_vnr", "pp_iff_gpf_and_fractions_vnr",
                  "gpf_implies_mid"):
        assert got[check] == ("skipped", {"reason": "verdict unavailable"})
    assert got["gpf_localizations_are_primary"] == (
        "skipped", {"reason": "ring not verified gpf"}
    )


# -- theorem checks read the context's verdicts ----------------------------


def _planted(spec, *verdicts: Verdict, cores=None):
    """Theorem outcomes on a ring whose context holds planted route verdicts.

    The properties are classified first and keep their real verdicts; then
    each planted verdict replaces the one the context decided, and cores,
    when given, replaces its pure cores.  A check that restates a route must
    report the planted verdict: running the route again would pass."""
    ctx = RingContext(build(spec))
    props = {name: classify_property(ctx, name) for name in PROPERTY_ORDER}
    for verdict in verdicts:
        assert verdict.method in ctx._verdicts
        ctx._verdicts[verdict.method] = verdict
    if cores is not None:
        ctx.pure_cores = cores
    return {c.check: (c.status, c.detail) for c in verify_theorems(ctx, props)}


def test_reduced_iff_reads_the_families_verdict():
    split = Verdict("npure_equals_pure_ideals", False, {"ideal": [0, 3], "npure": True,
                                                        "pure": False})
    got = _planted(Zmod(6), split)
    assert got["reduced_iff_npure_equals_pure"] == (
        "fail", {"reduced": True, "families_coincide": False, "ideal": [0, 3]}
    )
    got = _planted(Zmod(4), Verdict("npure_equals_pure_ideals", True))
    assert got["reduced_iff_npure_equals_pure"] == (
        "fail", {"reduced": False, "families_coincide": True}
    )


def test_vnr_iff_reads_the_spectra_verdict():
    differ = Verdict("spectrum_equals_pure_spectrum", False,
                     {"spectrum": [[0, 2, 4], [0, 3]], "pure_spectrum": [[0, 3]]})
    got = _planted(Zmod(6), differ)
    assert got["vnr_iff_spectra_coincide"] == ("fail", {"vnr": True, "coincide": False})


def test_gpf_localizations_read_the_local_primary_verdict():
    # Z/12 is Gpf; plant a non-primary localization at (2)
    failing = Verdict("localizations_primary_at_primes", False,
                      {"ideal": [0, 2, 4, 6, 8, 10], "local_pair": [2, 3]})
    got = _planted(Zmod(12), failing)
    assert got["gpf_localizations_are_primary"] == (
        "fail", {"prime": [0, 2, 4, 6, 8, 10], "pair": [2, 3]}
    )


def test_npure_primes_read_the_mid_route_verdict():
    differ = Verdict("minimal_primes_exactly_npure", False, {"difference": [[0, 3, 6, 9]]})
    got = _planted(Zmod(12), differ)
    assert got["npure_primes_equal_minimal"] == ("fail", {"difference": [[0, 3, 6, 9]]})


def test_mid_checks_read_the_rings_own_verdict():
    # Z/4 is local, so its localization at (2) is Z/4 itself, and so is
    # its quotient by the pure ideal (0): both read the planted verdict
    failing = Verdict("annihilators_npure", False, {"element": 2, "ann_element": 2})
    got = _planted(Zmod(4), failing)
    assert got["mid_localizations_are_mid"] == ("fail", {"prime": [0, 2], "element": 2})
    assert got["quotients_by_pure_ideals_are_mid"] == (
        "fail", {"pure_ideal": [0], "element": 2}
    )


def test_product_mid_reads_the_products_verdict():
    failing = Verdict("annihilators_npure", False, {"element": 2, "ann_element": 3})
    got = _planted(Product((Zmod(4), Zmod(3))), failing)
    assert got["product_mid_iff_factors_mid"] == ("fail", {"product": False, "factors": True})
    # R/(0) is the product itself; the localizations are other rings
    assert got["quotients_by_pure_ideals_are_mid"] == (
        "fail", {"pure_ideal": [0], "element": 2}
    )
    assert got["mid_localizations_are_mid"] == ("pass", None)


def test_pp_iff_reads_the_square_witness_verdict():
    # Z/12 is mid and Gpf, not p.p.; a planted regular verdict breaks both
    got = _planted(Zmod(12), Verdict("square_witness", True))
    assert got["pp_iff_mid_and_fractions_vnr"] == (
        "fail", {"pp": False, "mid": True, "fractions_vnr": True}
    )
    assert got["pp_iff_gpf_and_fractions_vnr"] == (
        "fail", {"pp": False, "gpf": True, "fractions_vnr": True}
    )


def test_unique_pure_core_reads_the_contexts_cores():
    got = _planted(Zmod(12), cores={})
    assert got["unique_pure_core"] == ("fail", {"ideal": [0], "count": 0})


def test_each_route_runs_at_most_once_per_context(monkeypatch):
    # calls counts the runs of each route through PROPERTY_METHODS, per
    # context, and decided those that returned a verdict; made counts every
    # verdict a route builds, however it was reached
    calls, decided, made = Counter(), Counter(), Counter()

    def counted(method, fn):
        def route(ctx):
            calls[ctx, method] += 1
            verdict = fn(ctx)
            decided[method] += 1
            return verdict
        return method, route

    class CountedVerdict(Verdict):
        def __init__(self, method, *args, **kwargs):
            made[method] += 1
            super().__init__(method, *args, **kwargs)

    for prop, routes in list(PROPERTY_METHODS.items()):
        monkeypatch.setitem(PROPERTY_METHODS, prop, [counted(m, fn) for m, fn in routes])
    monkeypatch.setattr(classify, "Verdict", CountedVerdict)
    methods = {m for routes in PROPERTY_METHODS.values() for m, _ in routes}
    # Z/72 is above the lattice bound: its lattice routes raise and are skipped
    for spec in (Zmod(12), Product((Zmod(4), Zmod(2))), Zmod(8), Zmod(72)):
        for counter in (calls, decided, made):
            counter.clear()
        report = classify_ring(build(spec))
        assert all(c.status != "fail" for c in report.theorem_checks)
        assert max(calls.values()) == 1
        for method in methods:
            assert made[method] == decided[method], method
        # every route ran on the ring's own context; the theorem checks'
        # other contexts (factors, localizations, quotients) ran only the
        # mid route
        own = {m for ctx, m in calls if ctx.ring is report.ring}
        assert own == methods
        assert {m for ctx, m in calls if ctx.ring is not report.ring} <= {"annihilators_npure"}
