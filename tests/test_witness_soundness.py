"""Catalog-wide witness re-evaluation under direct table arithmetic.

Every existential witness attached to a True verdict must re-check, and
every counterexample attached to a False verdict must re-check as a
genuine failure.  The revalidators below share nothing with the deciders
beyond the ring tables themselves.
"""

from __future__ import annotations

from ringlab.catalog import default_catalog
from ringlab.classify import (
    PROPERTY_ORDER,
    RingContext,
    classify_ideal,
    classify_property,
)
from ringlab.ideals import radical


def _one_minus(ring, b):
    return ring.add_rows[ring.one][ring.neg_of[b]]


def _is_nilpotent(ring, a):
    seen = set()
    p = a
    while p not in seen:
        if p == ring.zero:
            return True
        seen.add(p)
        p = ring.mul_rows[p][a]
    return False


def _pow(ring, a, n):
    out = ring.one
    for _ in range(n):
        out = ring.mul_rows[out][a]
    return out


def _no_pure_witness(ring, mask, a):
    return all(
        ring.mul_rows[a][_one_minus(ring, b)] != ring.zero
        for b in range(ring.order)
        if (mask >> b) & 1
    )


def _check_ideal_verdicts(ring, ideal, classification):
    mask = ideal.mask
    pure = classification.pure
    if pure.value:
        for a, b in pure.witness["choices"]:
            assert (mask >> b) & 1
            assert ring.mul_rows[a][_one_minus(ring, b)] == ring.zero
    else:
        assert _no_pure_witness(ring, mask, pure.witness["element"])

    for verdict in classification.npure.verdicts:
        w = verdict.witness
        method = verdict.method
        if method == "def" and verdict.value:
            for a, b in w["choices"]:
                assert (mask >> b) & 1
                assert _is_nilpotent(ring, ring.mul_rows[a][_one_minus(ring, b)])
        elif method == "witness_power" and verdict.value:
            for a, b, n in w["choices"]:
                assert (mask >> b) & 1 and n >= 1
                assert ring.mul_rows[_pow(ring, a, n)][_one_minus(ring, b)] == ring.zero
        elif method == "ann_complement" and verdict.value:
            for a, t, u, v in w["choices"]:
                assert ring.mul_rows[_pow(ring, a, t)][u] == ring.zero
                assert ring.add_rows[u][v] == ring.one
                assert (mask >> v) & 1
        elif method == "radical_formula" and verdict.value:
            assert w["radical"] == list(radical(ideal).elems)
        elif method == "radical_npure" and verdict.value:
            rad_mask = radical(ideal).mask
            assert w["radical"] == list(radical(ideal).elems)
            for a, b in w["choices"]:
                assert (rad_mask >> b) & 1
                assert _is_nilpotent(ring, ring.mul_rows[a][_one_minus(ring, b)])
        elif method == "pure_core" and verdict.value:
            core_mask = 0
            for e in w["core"]:
                core_mask |= 1 << e
            assert radical(ideal).mask == _radical_of_mask(ring, core_mask)
            for a in w["core"]:
                assert not _no_pure_witness(ring, core_mask, a)
        elif method == "finite_subset" and verdict.value and "uniform" in w:
            b, t = w["uniform"]
            assert (mask >> b) & 1
            c = _one_minus(ring, b)
            for a in ideal.elems:
                assert ring.mul_rows[_pow(ring, a, t)][c] == ring.zero


def _radical_of_mask(ring, mask):
    out = 0
    for a in range(ring.order):
        seen = set()
        p = a
        while p not in seen:
            if (mask >> p) & 1:
                out |= 1 << a
                break
            seen.add(p)
            p = ring.mul_rows[p][a]
    return out


def _check_property_verdicts(ring, results):
    for name, result in results.items():
        for verdict in result.verdicts:
            w = verdict.witness
            method = verdict.method
            if method == "square_witness":
                if verdict.value:
                    for a, b in w["choices"]:
                        sq = ring.mul_rows[a][a]
                        assert ring.mul_rows[sq][b] == a
                else:
                    a = w["element"]
                    sq = ring.mul_rows[a][a]
                    assert all(ring.mul_rows[sq][b] != a for b in range(ring.order))
            elif method == "annihilator_power_pure" and verdict.value:
                for a, n in w["choices"]:
                    ann = _ann_mask(ring, _pow(ring, a, n))
                    for x in range(ring.order):
                        if (ann >> x) & 1:
                            assert not _no_pure_witness(ring, ann, x)
            elif method == "annihilators_idempotent_generated":
                if verdict.value:
                    for a, e in w["choices"]:
                        assert ring.mul_rows[e][e] == e
                        principal = 0
                        for r in range(ring.order):
                            principal |= 1 << ring.mul_rows[r][e]
                        assert principal == _ann_mask(ring, a)
                else:
                    a = w["element"]
                    ann = _ann_mask(ring, a)
                    for e in range(ring.order):
                        if ring.mul_rows[e][e] != e:
                            continue
                        principal = 0
                        for r in range(ring.order):
                            principal |= 1 << ring.mul_rows[r][e]
                        assert principal != ann
            elif method == "annihilators_pure" and not verdict.value:
                a = w["element"]
                ann = _ann_mask(ring, a)
                assert _no_pure_witness(ring, ann, w["ann_element"])
            elif method == "no_nilpotents" and not verdict.value:
                a = w["element"]
                assert a != ring.zero and _is_nilpotent(ring, a)


def _ann_mask(ring, a):
    out = 0
    row = ring.mul_rows[a]
    for x in range(ring.order):
        if row[x] == ring.zero:
            out |= 1 << x
    return out


def test_witness_soundness_across_catalog():
    for ring in default_catalog(12):
        ctx = RingContext(ring)
        universe, _ = ctx.ideal_universe
        for ideal in universe:
            _check_ideal_verdicts(ring, ideal, classify_ideal(ctx, ideal))
        results = {name: classify_property(ctx, name) for name in PROPERTY_ORDER}
        _check_property_verdicts(ring, results)
