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
from pathlib import Path
from types import SimpleNamespace

import pytest

from ringlab import classify
from ringlab.catalog import default_catalog
from ringlab.classify import (
    NPURE_METHODS,
    PROPERTY_METHODS,
    PROPERTY_ORDER,
    THEOREM_CHECKS,
    PropertyResult,
    RingContext,
    Skipped,
    Verdict,
    classify_catalog,
    classify_ideal,
    classify_property,
    classify_ring,
    verify_theorems,
)
from ringlab.errors import OrderTooLarge
from ringlab.ideals import Ideal, ideal_from_generators, radical
from ringlab.rings import bits, build
from ringlab.spectra import Spectrum
from ringlab.specs import PolyQuot, Product, Zmod


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
    nested = []  # a localization asks the context for its kernel: not the route's call
    kernel, localization = ctx.kernel, ctx.localization

    def recording(fn):
        def wrapper(p):
            if not nested:
                seen.append(p.elems)
            nested.append(p)
            try:
                return fn(p)
            finally:
                nested.pop()
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


def _too_large(*args):
    raise OrderTooLarge("planted bound")


def test_a_method_over_its_bound_is_skipped_in_place(monkeypatch):
    # one N-purity method and one mid route raise in the middle of their
    # lists: each is Skipped at its own position, and the later ones still run
    ctx = RingContext(build(Zmod(12)))
    monkeypatch.setitem(NPURE_METHODS, "radical_formula", _too_large)
    routes = list(PROPERTY_METHODS["mid_ring"])
    routes[4] = (routes[4][0], _too_large)
    monkeypatch.setitem(PROPERTY_METHODS, "mid_ring", routes)
    for names, results in (
        (list(NPURE_METHODS), classify_ideal(ctx, ctx.lattice[1]).npure.results),
        ([m for m, _ in routes], classify_property(ctx, "mid_ring").results),
    ):
        assert [r.method for r in results] == names
        (skipped,) = (x for x, r in enumerate(results) if isinstance(r, Skipped))
        assert 0 < skipped < len(names) - 1
        assert results[skipped] == Skipped(names[skipped], "planted bound")
        assert all(isinstance(r, Verdict) for r in results[skipped + 1:])


# -- failure branches no finite ring reaches -------------------------------


def _context(spec, primes=None, minimal=None, maximal=None) -> RingContext:
    """A fresh context, its spectrum replaced when lists are given."""
    ring = build(spec)
    ctx = RingContext(ring)
    if primes is not None:
        ctx.spectrum = Spectrum(ring, primes(ring), minimal(ring), maximal(ring))
    return ctx


def _theorem(name: str):
    return next(body for check, _, _, body in THEOREM_CHECKS if check == name)


def test_route_and_check_names_are_distinct():
    # RingContext.verdict runs the first route of a name, so a repeated
    # name would stand in for another route
    methods = [m for routes in PROPERTY_METHODS.values() for m, _ in routes]
    assert len(methods) == 41
    assert len(set(methods)) == len(methods)
    checks = [row[0] for row in THEOREM_CHECKS]
    assert len(checks) == 20
    assert len(set(checks)) == len(checks)


def test_no_prime_chain_names_the_nested_pair():
    # (6) lies strictly inside (2): a chain of two "primes"
    ctx = _z30_context(_principal(6, 2), lambda ring: [], lambda ring: [])
    verdict = _route("no_prime_chain")(ctx)
    assert verdict.value is False
    assert verdict.witness == {
        "lower": list(ideal_from_generators(ctx.ring, [6]).elems),
        "upper": list(ideal_from_generators(ctx.ring, [2]).elems),
    }


@pytest.mark.parametrize("method", ["zero_divisor_power_cover", "zero_divisor_mixed_cover"])
def test_cover_routes_name_the_first_zero_divisor_pair(monkeypatch, method):
    # with no cover anywhere, the witness is the first zero-divisor pair:
    # in Z/6 that is (2, 3), and the power cover, which skips b < a, must
    # not move on to (3, 2)
    monkeypatch.setattr(classify, "_mask_sum_has_one", lambda ring, m1, m2: (False, None))
    verdict = _route(method)(_context(Zmod(6)))
    assert verdict.value is False
    assert verdict.witness == {"pair": [2, 3]}


def test_power_intersection_check_names_the_ideal():
    # {0, 2} in Z/6 meets the power-intersection hypothesis but is not N-pure
    ctx = _context(Zmod(6))
    ctx.lattice = [_set(ctx.ring, [0]), _set(ctx.ring, [0, 2])]
    assert _theorem("power_intersection_implies_npure")(ctx, {}) == {"ideal": [0, 2]}


def test_radical_formula_check_names_the_ideal():
    # {1} is N-pure (1 - 1 = 0), but its formula set is all of Z/6 and its
    # radical only the units
    ctx = _context(Zmod(6))
    ctx.lattice = [_set(ctx.ring, [0]), _set(ctx.ring, [1])]
    assert _theorem("radical_formula_tracks_npure")(ctx, {}) == {
        "ideal": [1], "formula_matches_radical": False
    }


def test_powers_check_names_the_ideal_and_its_power():
    # {0, 2} is not N-pure; its square generates (2) = {0, 2, 4}, which is
    ctx = _context(Zmod(6))
    ctx.lattice = [_set(ctx.ring, [0, 2])]
    assert _theorem("npure_iff_every_power_npure")(ctx, {}) == {
        "ideal": [0, 2], "power": [0, 2, 4]
    }


def test_closure_check_names_the_ordered_pair():
    # {0, 1, 2} and {0, 2, 4} are N-pure, each closed on its own, and meet
    # in {0, 2}, which is not
    ctx = _context(Zmod(6))
    ctx.lattice = [_set(ctx.ring, [0, 1, 2]), _set(ctx.ring, [0, 2, 4])]
    assert _theorem("npure_closed_under_sum_product_intersection")(ctx, {}) == {
        "left": [0, 1, 2], "right": [0, 2, 4], "op": "intersection"
    }


def test_pure_ideals_check_names_each_branch(monkeypatch):
    body = _theorem("pure_ideals_are_npure")
    ctx = _context(Zmod(12))
    pure = ctx.pure_list
    # a planted pure set that is not N-pure
    ctx.pure_list = [pure[0], _set(ctx.ring, [0, 2])]
    assert body(ctx, {}) == {"ideal": [0, 2]}
    # the radical of (0) is the nilradical {0, 6}; let the scan reject it
    nil = ctx.ring.nil_mask
    real = classify._is_npure
    monkeypatch.setattr(classify, "_is_npure", lambda ring, mask: mask != nil and real(ring, mask))
    ctx.pure_list = pure
    assert body(ctx, {}) == {"ideal": [0], "radical": True}
    ctx.pure_list = [i for i in pure if radical(i).mask != nil]
    assert ctx.pure_list
    assert body(ctx, {}) == {"nilradical": True}


def test_minimal_kernels_check_names_each_branch():
    body = _theorem("minimal_kernel_radical_recovers_prime")
    # a kernel whose radical is not the prime
    ctx = _context(Zmod(30), _principal(2, 3, 5), _principal(2), _principal(3))
    ctx.kernel = lambda p: ideal_from_generators(ctx.ring, [6])
    assert body(ctx, {}) == {
        "prime": list(ideal_from_generators(ctx.ring, [2]).elems),
        "kernel": list(ideal_from_generators(ctx.ring, [6]).elems),
    }
    # in Z/12 the radical of (4) is (2), but a planted "prime" (4) contains
    # the kernel and not the prime
    ctx = _context(Zmod(12), _principal(2, 4), _principal(2), _principal(2))
    ctx.kernel = lambda p: ideal_from_generators(ctx.ring, [4])
    assert body(ctx, {}) == {"prime": [0, 2, 4, 6, 8, 10], "vanishing_differs": True}
    # (6) in Z/30 is its own radical and not primary
    ctx = _context(Zmod(30), _principal(6), _principal(6), _principal(6))
    ctx.kernel = lambda p: p
    assert body(ctx, {}) == {
        "prime": list(ideal_from_generators(ctx.ring, [6]).elems),
        "kernel_not_primary": True,
    }


# -- witnesses of the element-level tests, against per-element loops --------

WITNESS_RINGS = [
    Zmod(12),
    Zmod(72),
    Product((Zmod(8), Zmod(2))),
    PolyQuot(2, (0, 0, 0, 1)),  # GF(2)[x]/(x^3)
    Product((Zmod(4), Zmod(4))),
]


def _plain_ann(ring, x) -> int:
    return sum(1 << y for y in range(ring.order) if ring.mul_rows[x][y] == ring.zero)


def _plain_chain(ring, a) -> list[int]:
    """Ann(a), Ann(a^2), ... up to the first term equal to the next one."""
    chain, power = [_plain_ann(ring, a)], a
    while (nxt := _plain_ann(ring, power := ring.mul_rows[power][a])) != chain[-1]:
        chain.append(nxt)
    return chain


def _outcome(verdict: Verdict) -> tuple:
    return verdict.method, verdict.value, verdict.witness


def _distinct(masks) -> list[int]:
    return list(dict.fromkeys(masks))


def _reference_cover(ring, method: str, chains) -> tuple:
    """The first zero-divisor pair (a, b), in (a, b) order, without a cover;
    the power cover skips b < a.  Reads classify._mask_sum_has_one."""
    has_one = classify._mask_sum_has_one
    for a in range(1, ring.order):
        for b in range(1, ring.order):
            if ring.mul_rows[a][b] != ring.zero:
                continue
            ca, cb = chains[a], chains[b]
            if method == "zero_divisor_power_cover":
                if b < a:
                    continue
                terms = [(ca[min(k, len(ca) - 1)], cb[min(k, len(cb) - 1)])
                         for k in range(max(len(ca), len(cb)))]
            else:
                terms = [(ca[0], m) for m in cb]
            if not any(has_one(ring, x, y)[0] for x, y in terms):
                return method, False, {"pair": [a, b]}
    return method, True, None


@pytest.mark.parametrize("spec", WITNESS_RINGS, ids=str)
@pytest.mark.parametrize("first_only", [False, True], ids=["either", "first"])
@pytest.mark.parametrize("method", ["zero_divisor_power_cover", "zero_divisor_mixed_cover"])
def test_cover_witnesses_match_the_pair_loop(monkeypatch, spec, first_only, method):
    # deny every cover whose first (or either) summand is one annihilator,
    # each distinct annihilator in turn
    ring = build(spec)
    chains = [_plain_chain(ring, a) for a in range(ring.order)]
    real = classify._mask_sum_has_one
    failed = 0
    for denied in _distinct(_plain_ann(ring, a) for a in range(ring.order)):
        def denying(r, m1, m2, denied=denied):
            if m1 == denied or (not first_only and m2 == denied):
                return False, None
            return real(r, m1, m2)

        monkeypatch.setattr(classify, "_mask_sum_has_one", denying)
        got = _outcome(_route(method)(RingContext(ring)))
        assert got == _reference_cover(ring, method, chains), (denied, got)
        failed += got[1] is False
    assert failed


@pytest.mark.parametrize("spec", WITNESS_RINGS, ids=str)
def test_cover_routes_on_one_context_keep_their_own_verdicts(monkeypatch, spec):
    # both routes read covers by chain class: run them on one context, in
    # either order, and each must still match its own pair loop
    ring = build(spec)
    chains = [_plain_chain(ring, a) for a in range(ring.order)]
    real = classify._mask_sum_has_one
    methods = ["zero_divisor_power_cover", "zero_divisor_mixed_cover"]
    for denied in _distinct(_plain_ann(ring, a) for a in range(ring.order)):
        monkeypatch.setattr(classify, "_mask_sum_has_one", lambda r, m1, m2, denied=denied:
                            (False, None) if m1 == denied else real(r, m1, m2))
        expected = {m: _reference_cover(ring, m, chains) for m in methods}
        for order in (methods, methods[::-1]):
            ctx = RingContext(ring)
            for method in order:
                assert _outcome(_route(method)(ctx)) == expected[method], (denied, order)


FAMILY_ROUTES = {
    # route -> (per-element masks, nil, the witness of a failure at a)
    "annihilators_npure": (
        "ann_masks", True, lambda a, mask, e: {"element": a, "ann_element": e}),
    "annihilators_pure": (
        "ann_masks", False,
        lambda a, mask, e: {"element": a, "ann": list(bits(mask)), "ann_element": e}),
    "principal_ideals_npure": (
        "principal_masks", True, lambda a, mask, e: {"generator": a, "element": e}),
    "principal_ideals_pure": (
        "principal_masks", False, lambda a, mask, e: {"generator": a, "element": e}),
}


@pytest.mark.parametrize("spec", WITNESS_RINGS, ids=str)
@pytest.mark.parametrize("method", sorted(FAMILY_ROUTES))
def test_family_witnesses_name_the_first_element_of_a_mask(monkeypatch, spec, method):
    # the scan rejects one chosen mask, each distinct mask in turn
    ring = build(spec)
    attr, nil, witness = FAMILY_ROUTES[method]
    masks = getattr(ring, attr)
    real = classify._purity_scan
    for chosen in _distinct(masks):
        def rejecting(r, mask, nil, chosen=chosen):
            return (False, next(bits(mask))) if mask == chosen else real(r, mask, nil)

        monkeypatch.setattr(classify, "_purity_scan", rejecting)
        expected = (method, True, None)
        for a, mask in enumerate(masks):
            ok, data = rejecting(ring, mask, nil)
            if not ok:
                expected = (method, False, witness(a, mask, data))
                break
        got = _outcome(_route(method)(RingContext(ring)))
        assert got == expected, chosen
        if nil:  # no N-purity scan fails on a finite ring
            assert got[2][list(got[2])[0]] == masks.index(chosen)


def _reference_choices(method, ring, choose, named=lambda a: {}, **passed) -> tuple:
    choices = []
    for a in range(ring.order):
        found = choose(a)
        if found is None:
            return method, False, {"element": a, **named(a)}
        choices.append([a, *found])
    return method, True, {"choices": choices, **passed}


@pytest.mark.parametrize("spec", WITNESS_RINGS, ids=str)
def test_annihilator_power_pure_matches_the_element_loop(monkeypatch, spec):
    ring = build(spec)
    chains = [_plain_chain(ring, a) for a in range(ring.order)]
    real = classify._purity_scan

    def first_pure(a):
        n = next((n for n, m in enumerate(chains[a], 1)
                  if classify._purity_scan(ring, m, nil=False)[0]), None)
        return None if n is None else [n]

    # unpatched, then with the scan rejecting each distinct annihilator
    failed = 0
    for chosen in [None, *_distinct(_plain_ann(ring, a) for a in range(ring.order))]:
        def rejecting(r, mask, nil, chosen=chosen):
            return (False, next(bits(mask))) if mask == chosen else real(r, mask, nil)

        monkeypatch.setattr(classify, "_purity_scan", rejecting)
        got = _outcome(_route("annihilator_power_pure")(RingContext(ring)))
        assert got == _reference_choices("annihilator_power_pure", ring, first_pure), chosen
        failed += got[1] is False
    assert failed


@pytest.mark.parametrize("spec", WITNESS_RINGS, ids=str)
def test_idempotent_generated_annihilators_match_the_element_loop(spec):
    ring = build(spec)
    idempotents = [e for e in range(ring.order) if ring.mul_rows[e][e] == e]

    def generator(a):
        ann = _plain_ann(ring, a)
        principal = [sum(1 << v for v in set(ring.mul_rows[e])) for e in idempotents]
        return next(([e] for e, m in zip(idempotents, principal) if m == ann), None)

    got = _outcome(_route("annihilators_idempotent_generated")(RingContext(ring)))
    assert got == _reference_choices(
        "annihilators_idempotent_generated", ring, generator,
        lambda a: {"ann": list(bits(_plain_ann(ring, a)))},
    )


def _reference_battery(ring, ideal, chains) -> dict[str, tuple]:
    """ann_complement, witness_power and radical_formula, one element at a
    time.  Reads classify._mask_sum_has_one."""
    has_one = classify._mask_sum_has_one
    mask, elems = ideal.mask, list(bits(ideal.mask))
    got = {}
    choices = []
    for a in elems:
        found = next(([t, *pair] for t, m in enumerate(chains[a], 1)
                      for ok, pair in [has_one(ring, m, mask)] if ok), None)
        if found is None:
            got["ann_complement"] = ("ann_complement", False, {"element": a})
            break
        choices.append([a, *found])
    else:
        got["ann_complement"] = ("ann_complement", True,
                                 {"choices": choices, "fields": ["a", "t", "u", "v"]})
    choices = []
    for a in elems:
        ok, pair = has_one(ring, mask, chains[a][-1])
        if not ok:
            got["witness_power"] = ("witness_power", False, {"element": a})
            break
        n, power = 1, a
        while ring.mul_rows[power][pair[1]] != ring.zero:
            n, power = n + 1, ring.mul_rows[power][a]
        choices.append([a, pair[0], n])
    else:
        got["witness_power"] = ("witness_power", True, {"choices": choices})
    formula = sum(1 << a for a in range(ring.order) if has_one(ring, chains[a][-1], mask)[0])
    rad = 0
    for a in range(ring.order):
        power = a
        for _ in range(ring.order):
            if (mask >> power) & 1:
                rad |= 1 << a
                break
            power = ring.mul_rows[power][a]
    if formula == rad:
        got["radical_formula"] = ("radical_formula", True, {"radical": list(bits(rad))})
    else:
        elem = next(bits(formula ^ rad))
        side = "formula_only" if (formula >> elem) & 1 else "radical_only"
        got["radical_formula"] = ("radical_formula", False, {"element": elem, "side": side})
    return got


@pytest.mark.parametrize("spec", WITNESS_RINGS, ids=str)
def test_battery_choice_routes_match_the_element_loop(monkeypatch, spec):
    ring = build(spec)
    chains = [_plain_chain(ring, a) for a in range(ring.order)]
    universe = RingContext(ring).ideal_universe[0]
    real = classify._mask_sum_has_one
    failed = Counter()
    # unpatched, then with every cover by each distinct annihilator denied
    for denied in [None, *_distinct(_plain_ann(ring, a) for a in range(ring.order))]:
        def denying(r, m1, m2, denied=denied):
            return (False, None) if denied in (m1, m2) else real(r, m1, m2)

        monkeypatch.setattr(classify, "_mask_sum_has_one", denying)
        ctx = RingContext(ring)
        for ideal in universe:
            expected = _reference_battery(ring, ideal, chains)
            for method, want in expected.items():
                got = _outcome(NPURE_METHODS[method](ctx, ideal))
                assert got == want, (denied, ideal.elems)
                failed[method] += got[1] is False
    assert set(failed) == {"ann_complement", "witness_power", "radical_formula"}
    assert all(failed.values())


def test_finite_subset_exponent_reads_every_chain():
    # GF(3)[x]/(x^3 + 2) is GF(3)[x]/((x - 1)^3); on one of its ideals the
    # uniform witness needs a cube for some elements and a square for others,
    # the last element among them
    ring = build(PolyQuot(3, (2, 0, 0, 1)))
    ctx = RingContext(ring)

    def power_killing(a, c):
        n, power = 1, a
        while ring.mul_rows[power][c] != ring.zero:
            if n > ring.order:
                return None
            n, power = n + 1, ring.mul_rows[power][a]
        return n

    sharp = 0
    for ideal in ctx.lattice:
        elems = ideal.elems
        for b in elems:
            c = ring.add_rows[ring.one][ring.neg_of[b]]
            powers = [power_killing(a, c) for a in elems]
            if None not in powers:
                expected = {"uniform": [b, max(powers)]}
                sharp += max(powers) != powers[-1]
                break
        else:
            continue
        assert NPURE_METHODS["finite_subset"](ctx, ideal).witness == expected, elems
    assert sharp


# -- witness branches that no catalog ring reaches --------------------------


def test_pure_core_names_every_match():
    # in Z/12 the radical of (4) is (2); plant two pure cores with that radical
    ctx = _context(Zmod(12))
    ideal = ideal_from_generators(ctx.ring, [4])
    ctx.pure_cores = {radical(ideal).mask: ctx.pure_list[:2]}
    verdict = NPURE_METHODS["pure_core"](ctx, ideal)
    assert (verdict.value, verdict.witness) == (
        False, {"match_count": 2, "matches": [[0], [0, 4, 8]]}
    )
    ctx.pure_cores = {}
    verdict = NPURE_METHODS["pure_core"](ctx, ideal)
    assert (verdict.value, verdict.witness) == (False, {"match_count": 0, "matches": []})


def test_kernel_rows_name_the_prime_and_its_kernel():
    # a planted kernel {0, 2} at every prime of Z/30: 2(1 - b) is nonzero
    # for both b in it, so the scan fails at the first prime, (2)
    ctx = _z30_context(_principal(2, 3, 5), _principal(2), _principal(3))
    ctx.kernel = lambda p: _set(ctx.ring, [0, 2])
    verdict = _route("kernels_pure_at_primes")(ctx)
    assert verdict.value is False
    assert verdict.witness == {
        "ideal": list(range(0, 30, 2)), "kernel": [0, 2], "element": 2
    }


def test_local_nj_names_both_radicals():
    # nil = Jacobson in every finite ring; plant a localization where they differ
    ctx = _context(Zmod(30))
    ctx.localization = lambda p: SimpleNamespace(nil_mask=0b1, jacobson_mask=0b101)
    verdict = _route("localizations_nj_at_primes")(ctx)
    assert verdict.value is False
    assert verdict.witness == {
        "ideal": [0, 5, 10, 15, 20, 25], "local_nil": [0], "local_jacobson": [0, 2]
    }


def test_npure_primes_difference_lists_both_sides():
    # every prime of Z/30 is N-pure; call (2) and the set {0, 2}, which is
    # not N-pure, minimal: the difference is {0, 2}, (5) and (3), ascending
    # by mask
    ctx = _z30_context(_principal(2, 3, 5),
                       lambda ring: [*_principal(2)(ring), _set(ring, [0, 2])],
                       _principal(3))
    verdict = _route("minimal_primes_exactly_npure")(ctx)
    assert verdict.value is False
    assert verdict.witness == {
        "difference": [[0, 2], list(range(0, 30, 5)), list(range(0, 30, 3))]
    }


def test_pp_composite_names_its_failing_part():
    # every finite ring is mid; plant a failing mid route on Z/12, which is
    # not regular either
    ctx = _context(Zmod(12))
    ctx._verdicts["annihilators_npure"] = Verdict(
        "annihilators_npure", False, {"element": 2, "ann_element": 6}
    )
    verdict = _route("mid_and_fractions_vnr")(ctx)
    assert verdict.value is False
    assert verdict.witness == {
        "mid": False,
        "fractions_vnr": False,
        "mid_witness": {"element": 2, "ann_element": 6},
        "vnr_witness": {"element": 2},
    }


def test_unique_pure_core_check_passes_an_ideal_that_is_not_npure():
    # with no pure cores at all, an N-pure ideal fails the check and
    # {0, 2}, which is not N-pure, passes it
    body = _theorem("unique_pure_core")
    ctx = _context(Zmod(6))
    ctx.pure_cores = {}
    ctx.lattice = [_set(ctx.ring, [0, 2])]
    assert body(ctx, {}) is None
    ctx.lattice = [_set(ctx.ring, [0, 2]), _set(ctx.ring, [0])]
    assert body(ctx, {}) == {"ideal": [0], "count": 0}


# -- counts in prose come from the tables ------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"
WORDS = {2: "two", 3: "three", 8: "eight"}


def _prose(text: str) -> str:
    """The text with every run of whitespace, line breaks included, one space."""
    return " ".join(text.split())


def test_prose_counts_match_the_tables():
    # each ring-level route is a closure made by one of the three shapes
    shape = {m: fn.__qualname__.split(".")[0]
             for routes in PROPERTY_METHODS.values() for m, fn in routes}
    shapes = Counter(shape.values())
    assert shapes == {"_row": 36, "_choice_route": 3, "_pp_composite": 2}
    scans = [row[0] for row in THEOREM_CHECKS if row[3].__qualname__.startswith("_scan.")]
    assert len(scans) == 8
    assert len(NPURE_METHODS) == 8
    # over catalog16: the routes that attach a witness to a True verdict,
    # and every N-purity verdict carries one
    reports = classify_catalog(default_catalog(16))
    witnessed = {v.method for r in reports for p in r.properties.values()
                 for v in p.verdicts if v.value and v.witness is not None}
    assert all(v.witness is not None for r in reports for i in r.ideal_results
               for v in i.npure.verdicts)
    routes, bare = len(shape), len(shape) - len(witnessed)
    assert (routes, len(witnessed), bare) == (41, 9, 32)

    readme = _prose(README.read_text(encoding="utf-8"))
    for phrase in (
        f"from the {WORDS[len(NPURE_METHODS)]} N-purity routes and from {len(witnessed)} "
        f"of the {routes} ring-level routes (see below); the other {bare} return a bare True",
        f"the {routes} ring-level routes of `PROPERTY_METHODS` come in "
        f"{WORDS[len(shapes)]} shapes",
        f"**First-failure scan**, {shapes['_row']} routes",
        f"**Choice map**, {shapes['_choice_route']} routes",
        f"**p.p. composite**, {shapes['_pp_composite']} routes",
        f"The {WORDS[len(scans)]} checks that walk members are first-failure scans",
        f"| N-pure ideal | {len(NPURE_METHODS)}: ",
    ):
        assert phrase in readme, phrase
    labels = {"von_neumann_regular": "von Neumann regular", "zero_dimensional": "zero-dimensional",
              "mp_ring": "mp ring", "mid_ring": "mid ring", "pp_ring": "p.p. ring"}
    for prop, label in labels.items():
        assert f"| {label} | {len(PROPERTY_METHODS[prop])}: " in readme, prop

    doc = _prose(classify.__doc__)
    for phrase in (
        f"the other {bare} routes return a bare True",
        f"{WORDS[len(scans)].capitalize()} checks walk members as first-failure scans",
        f"The {WORDS[len(NPURE_METHODS)]} N-purity routes attach a witness to every verdict",
    ):
        assert phrase in doc, phrase
