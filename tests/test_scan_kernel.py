"""The bitmask purity scans and ideal-sum tests against per-element loops.

`_purity_scan`, `_mask_sum_has_one` and `_npure_finite_subset` read per-ring
witness masks and memoize on the ring.  The loops below are the plain
per-element searches they replace; they define the expected verdicts and
witnesses (smallest b, smallest u, first failing a), and the kernel must
return exactly the same on ideals, sampled ideal universes and arbitrary
element sets.
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import combinations
from operator import and_

import pytest

from ringlab.catalog import default_catalog
from ringlab.classify import (
    NPURE_METHODS,
    RingContext,
    Verdict,
    _mask_sum_has_one,
    _min_power_killing,
    classify_ring,
)
from ringlab.ideals import Ideal, _purity_scan, all_ideals
from ringlab.rings import bits, build, mask_of
from ringlab.specs import PolyQuot, Product, Zmod

LARGE_SPECS = [
    Zmod(200),
    Product((Zmod(8), Zmod(8))),
    PolyQuot(2, (1, 1, 0, 0, 0, 0, 0, 1)),  # GF(2)[x]/(x^7 + x + 1)
]


# -- reference loops ------------------------------------------------------


def _reference_purity_scan(ring, mask, nil):
    accepted = frozenset(bits(ring.nil_mask)) if nil else frozenset((ring.zero,))
    mul = ring.mul_rows
    one_minus = ring.one_minus
    elems = list(bits(mask))
    complements = [(b, one_minus[b]) for b in elems]
    choices = []
    for a in elems:
        row = mul[a]
        for b, c in complements:
            if row[c] in accepted:
                choices.append([a, b])
                break
        else:
            return False, a
    return True, choices


def _reference_mask_sum_has_one(ring, m1, m2):
    one_minus = ring.one_minus
    for u in bits(m1):
        v = one_minus[u]
        if (m2 >> v) & 1:
            return True, (u, v)
    return False, None


def _reference_finite_subset(ring, ideal):
    elems = list(ideal.elems)
    k = len(elems)
    complements = [ring.one_minus[b] for b in elems]
    ok_masks = [
        mask_of(bi for bi, c in enumerate(complements) if (ring.ann_stable[a][1] >> c) & 1)
        for a in elems
    ]
    common = reduce(and_, ok_masks, (1 << k) - 1)
    if common:
        bi = (common & -common).bit_length() - 1
        c = complements[bi]
        t = max((_min_power_killing(ring, a, c) for a in elems), default=1)
        return Verdict("finite_subset", True, {"uniform": [elems[bi], t]})
    for size in (1, 2, 3):
        for combo in combinations(range(k), size):
            if not reduce(and_, (ok_masks[ai] for ai in combo)):
                return Verdict("finite_subset", False, {"subset": [elems[ai] for ai in combo]})
    return Verdict("finite_subset", True, {"subset_bound": 3})


# -- comparison -------------------------------------------------------------


def _assert_kernel_matches(ring, masks):
    """The ideal-sum test on every ordered pair of masks, both scan kinds and
    the finite-subset route on every mask."""
    for m1 in masks:
        for m2 in masks:
            assert _mask_sum_has_one(ring, m1, m2) == _reference_mask_sum_has_one(
                ring, m1, m2
            ), (ring.name, m1, m2)
    ctx = RingContext(ring)
    for mask in masks:
        for nil in (False, True):
            assert _purity_scan(ring, mask, nil) == _reference_purity_scan(ring, mask, nil), (
                ring.name, mask, nil
            )
        got = NPURE_METHODS["finite_subset"](ctx, Ideal(ring, mask))
        assert got == _reference_finite_subset(ring, Ideal(ring, mask)), (ring.name, mask)


def _random_masks(ring, rng, count):
    """Seeded sets of one to six elements, almost never ideals."""
    return [mask_of(rng.sample(range(ring.order), rng.randint(1, 6))) for _ in range(count)]


def test_kernel_matches_reference_on_catalog16_ideals():
    seen = set()
    outcomes = set()
    for ring in default_catalog(16):
        if ring.key in seen:
            continue
        seen.add(ring.key)
        masks = [i.mask for i in all_ideals(ring)]
        _assert_kernel_matches(ring, masks)
        outcomes.update(_purity_scan(ring, m, False)[0] for m in masks)
    # both branches of the pure scan are exercised
    assert outcomes == {True, False}


@pytest.mark.parametrize("spec", LARGE_SPECS, ids=str)
def test_kernel_matches_reference_on_ideal_universe(spec):
    # sampled above the lattice bound (Z/200, order 128), the full lattice
    # of product(Z/8, Z/8)
    ring = build(spec)
    ideals, sampled = RingContext(ring).ideal_universe
    assert sampled == (ring.order > 64)
    _assert_kernel_matches(ring, [i.mask for i in ideals])


def test_kernel_matches_reference_on_random_sets():
    outcomes = set()
    for spec in [Zmod(12), Zmod(36), Product((Zmod(4), Zmod(6))), *LARGE_SPECS]:
        ring = build(spec)
        masks = _random_masks(ring, random.Random(ring.order), 25)
        _assert_kernel_matches(ring, masks)
        ctx = RingContext(ring)
        for m in masks:
            outcomes.add(("pure", _purity_scan(ring, m, False)[0]))
            outcomes.add(("npure", _purity_scan(ring, m, True)[0]))
            outcomes.add(("subset", NPURE_METHODS["finite_subset"](ctx, Ideal(ring, m)).value))
    # every scan answers both ways on such sets
    assert len(outcomes) == 6


@pytest.mark.parametrize(
    "elems, subset",
    [([2, 3], [2]), ([3, 4], [3, 4]), ([0, 3, 4], [3, 4])],
)
def test_finite_subset_fallback_matches_reference(elems, subset):
    # these sets of Z/6 have no common witness, so the subset search runs:
    # 2 has no witness in {2, 3}; 3 and 4 each have one in {3, 4}
    # (3(1-3) = 0, 4(1-4) = 0) but no b there serves both
    r = build(Zmod(6))
    fake = Ideal(r, mask_of(elems))
    got = NPURE_METHODS["finite_subset"](RingContext(r), fake)
    assert got == _reference_finite_subset(r, fake)
    assert got.value is False and got.witness == {"subset": subset}


# -- memo -----------------------------------------------------------------


@pytest.mark.parametrize("spec", [Zmod(12), Product((Zmod(4), Zmod(3)))], ids=str)
def test_scan_memo_holds_unmutated_results(spec):
    # the memoized lists reach verdicts and the report; no caller may change them
    ring = build(spec)
    classify_ring(ring)
    for r in (ring, *ring.factors):
        assert r.scan_memo
        for (mask, nil), result in r.scan_memo.items():
            assert result == _reference_purity_scan(r, mask, nil), (r.name, mask, nil)


def test_scan_memo_keeps_kinds_apart():
    # Z/4: {0, 2} is N-pure (2 * (1 - 0) = 2 is nilpotent) but not pure
    r = build(Zmod(4))
    assert _purity_scan(r, 0b0101, nil=True) == (True, [[0, 0], [2, 0]])
    assert _purity_scan(r, 0b0101, nil=False) == (False, 2)
    assert _purity_scan(r, 0b0101, nil=True)[0]
