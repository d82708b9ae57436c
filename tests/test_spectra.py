"""Spectra, localization kernels, vanishing sets, pure spectra."""

from __future__ import annotations

from collections import Counter
from functools import reduce
from operator import and_

import pytest

from ringlab.catalog import default_catalog
from ringlab.errors import NotPrime
from ringlab.ideals import (
    _purity_scan,
    all_ideals,
    ideal_from_generators,
    is_primary_ideal,
    is_prime_ideal,
    radical,
)
from ringlab.rings import bits, build
from ringlab.spectra import (
    ker_pi,
    pure_ideals,
    pure_spectrum,
    spectrum,
    vanishing_set,
)
from ringlab.specs import PolyQuot, Product, Zmod

SMALL_SPECS = [
    Zmod(4),
    Zmod(6),
    Zmod(8),
    Zmod(12),
    Zmod(16),
    PolyQuot(2, (0, 0, 1)),
    PolyQuot(2, (1, 1, 1)),
    PolyQuot(3, (0, 0, 1)),
    Product((Zmod(4), Zmod(3))),
    Product((Zmod(2), Zmod(2))),
]


def _elems(ideals):
    return sorted(tuple(i.elems) for i in ideals)


def _spectrum(r):
    return spectrum(all_ideals(r))


def _pure_ideals(r):
    return pure_ideals(all_ideals(r))


def _pure_spectrum(r):
    lattice = all_ideals(r)
    return pure_spectrum(lattice, pure_ideals(lattice))


def test_spectrum_examples():
    sp = _spectrum(build(Zmod(12)))
    assert _elems(sp.primes) == [(0, 2, 4, 6, 8, 10), (0, 3, 6, 9)]
    assert _elems(sp.minimal) == _elems(sp.primes)
    assert _elems(sp.maximal) == _elems(sp.primes)

    field = _spectrum(build(PolyQuot(3, (1, 1))))
    assert _elems(field.primes) == [(0,)]

    dual = _spectrum(build(PolyQuot(2, (0, 0, 1))))
    assert _elems(dual.primes) == [(0, 2)]


def test_finite_spectra_are_flat():
    # primes = minimal = maximal in a finite ring; asserted, never assumed
    for spec in SMALL_SPECS:
        sp = _spectrum(build(spec))
        assert _elems(sp.primes) == _elems(sp.minimal) == _elems(sp.maximal)
        for p in sp.primes:
            assert is_prime_ideal(p).value


def test_ker_pi_examples():
    r = build(Zmod(12))
    p2 = ideal_from_generators(r, [2])
    p3 = ideal_from_generators(r, [3])
    assert ker_pi(r, p2).elems == (0, 4, 8)
    assert ker_pi(r, p3).elems == (0, 3, 6, 9)
    # in the regular ring Z/6 the kernel recovers the prime itself
    r6 = build(Zmod(6))
    assert ker_pi(r6, ideal_from_generators(r6, [2])).elems == (0, 2, 4)
    assert ker_pi(r6, ideal_from_generators(r6, [3])).elems == (0, 3)


def test_ker_pi_closed_form_for_modular_rings():
    # independent oracle: in Z/n at (p) the kernel is the multiples of p^v
    # where p^v is the exact power of p dividing n (multiply by the p-free
    # part of n to kill everything else)
    for n in range(4, 37):
        r = build(Zmod(n))
        for p in (2, 3, 5):
            if n % p:
                continue
            v = 1
            while n % (p ** (v + 1)) == 0:
                v += 1
            expected = tuple(a for a in range(n) if a % (p**v) == 0)
            kernel = ker_pi(r, ideal_from_generators(r, [p % n]))
            assert kernel.elems == expected, (n, p)


def test_localization_closed_form_for_modular_rings():
    # Z/n localized at (p) is Z/(p^v), the p-primary part
    from ringlab.rings import find_isomorphism
    from ringlab.specs import LocalizeAt

    for n in (12, 18, 24, 36):
        for p in (2, 3):
            if n % p:
                continue
            v = 1
            while n % (p ** (v + 1)) == 0:
                v += 1
            loc = build(LocalizeAt(Zmod(n), (p,)))
            assert loc.order == p**v
            assert find_isomorphism(loc, build(Zmod(p**v))) is not None


def test_ker_pi_requires_prime():
    r = build(Zmod(12))
    with pytest.raises(NotPrime):
        ker_pi(r, ideal_from_generators(r, [4]))


def test_vanishing_sets():
    r = build(Zmod(12))
    sp = _spectrum(r)
    i4 = ideal_from_generators(r, [4])
    i6 = ideal_from_generators(r, [6])
    zero = ideal_from_generators(r, [])
    assert _elems(vanishing_set(i4, sp)) == [(0, 2, 4, 6, 8, 10)]
    assert _elems(vanishing_set(zero, sp)) == _elems(sp.primes)
    assert _elems(vanishing_set(i6, sp)) == _elems(sp.primes)


def test_pure_ideals_examples():
    assert _elems(_pure_ideals(build(Zmod(4)))) == [(0,), (0, 1, 2, 3)]
    assert len(_pure_ideals(build(Zmod(6)))) == 4
    assert _elems(_pure_ideals(build(Zmod(12)))) == sorted(
        [(0,), (0, 3, 6, 9), (0, 4, 8), tuple(range(12))]
    )


def test_pure_ideals_are_idempotent_generated():
    # classical cross-check, recomputed rather than assumed
    for spec in SMALL_SPECS:
        r = build(spec)
        idem_principal = {r.principal_masks[e] for e in r.idempotents}
        assert {i.mask for i in _pure_ideals(r)} == idem_principal


def test_pure_spectrum_examples():
    assert _elems(_pure_spectrum(build(Zmod(4))).members) == [(0,), (0, 2)]
    assert _elems(_pure_spectrum(build(Zmod(6))).members) == [(0, 2, 4), (0, 3)]
    field = build(PolyQuot(5, (2, 1)))
    assert _elems(_pure_spectrum(field).members) == [(0,)]


def test_minimal_prime_kernels():
    # radical of the kernel recovers the prime; same vanishing set; primary
    for spec in SMALL_SPECS:
        r = build(spec)
        sp = _spectrum(r)
        for p in sp.minimal:
            k = ker_pi(r, p)
            assert radical(k) == p
            assert _elems(vanishing_set(k, sp)) == _elems(vanishing_set(p, sp))
            assert is_primary_ideal(k).value


def test_spectra_coincide_exactly_for_regular_rings():
    from ringlab.classify import RingContext, classify_property

    for spec in SMALL_SPECS:
        r = build(spec)
        if r.order > 24:
            continue
        vnr = classify_property(RingContext(r), "von_neumann_regular")
        assert vnr.consistent
        spec_masks = sorted(p.mask for p in _spectrum(r).primes)
        spp_masks = sorted(p.mask for p in _pure_spectrum(r).members)
        assert (spec_masks == spp_masks) == vnr.value, spec


def test_pure_mask_scan_matches_bruteforce():
    for spec in SMALL_SPECS:
        r = build(spec)
        for i in all_ideals(r):
            expected = all(
                any(
                    r.mul_rows[a][r.add_rows[r.one][r.neg_of[b]]] == r.zero
                    for b in i.elems
                )
                for a in i.elems
            )
            assert _purity_scan(r, i.mask, nil=False)[0] == expected


def _one_in_sum(ring, i_mask, k_mask):
    """1 in I + K for ideals I, K: some u in I has 1 - u in K."""
    return any((k_mask >> ring.one_minus[u]) & 1 for u in bits(i_mask))


def test_purity_oracle_from_generator_annihilators():
    # for I = (g_1, ..., g_k): I is pure iff 1 in I + (Ann(g_1) & ... & Ann(g_k)),
    # and N-pure iff 1 in I + (Ann(g_1^oo) & ... & Ann(g_k^oo)); unlike the
    # per-element witness scans, this form says False on 503 catalog ideals
    counts = Counter()
    for r in default_catalog(16):
        full = (1 << r.order) - 1
        for i in all_ideals(r):
            gens = i.generators()
            pure = _one_in_sum(r, i.mask, reduce(and_, (r.ann_masks[g] for g in gens), full))
            npure = _one_in_sum(
                r, i.mask, reduce(and_, (r.ann_chains[g][-1] for g in gens), full)
            )
            assert pure == _purity_scan(r, i.mask, nil=False)[0], (r.name, i.elems)
            assert npure == _purity_scan(r, i.mask, nil=True)[0], (r.name, i.elems)
            counts[pure, npure] += 1
    assert counts == {(True, True): 2900, (False, True): 503}
