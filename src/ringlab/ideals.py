"""Ideals of a finite ring as membership bitmasks, plus the ideal algebra.

Storing ideals as masks over the carrier turns every quantified condition
("for each a in I ...") into a finite scan, and makes sum, product,
intersection, radical and annihilator cheap exact set computations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import DEFAULT_LATTICE_BOUND
from .errors import ForeignElement, NotAnIdeal, OrderTooLarge, RingMismatch
from .rings import Element, FiniteRing, bits, mask_of


class Ideal:
    """An ideal, held as (ring, membership bitmask)."""

    __slots__ = ("ring", "mask", "elems")

    def __init__(self, ring: FiniteRing, mask: int):
        self.ring = ring
        self.mask = mask
        self.elems: tuple[int, ...] = tuple(bits(mask))

    def __contains__(self, a: int | Element) -> bool:
        if isinstance(a, Element):
            if a.ring is not self.ring:
                raise ForeignElement("element of a different ring")
            a = a.index
        return bool((self.mask >> a) & 1)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Ideal)
            and self.ring is other.ring
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((id(self.ring), self.mask))

    def __len__(self) -> int:
        return len(self.elems)

    def __repr__(self) -> str:
        return f"Ideal({self.ring.name}, {list(self.elems)})"

    @property
    def is_proper(self) -> bool:
        return not (self.mask >> self.ring.one) & 1

    @property
    def is_zero(self) -> bool:
        return self.mask == 1 << self.ring.zero

    def contains_ideal(self, other: "Ideal") -> bool:
        return other.mask & ~self.mask == 0

    def generators(self) -> tuple[int, ...]:
        """A small deterministic generating set (greedy, ascending index).

        The zero ideal reports (0,) so that every generator list stays
        nonempty and printable in the spec grammar."""
        ring = self.ring
        got = 1 << ring.zero
        gens: list[int] = []
        for a in self.elems:
            if not (got >> a) & 1:
                gens.append(a)
                got = ring.ideal_mask_closure(got | ring.principal_mask(a))
                if got == self.mask:
                    break
        return tuple(gens) if gens else (ring.zero,)


def zero_ideal(ring: FiniteRing) -> Ideal:
    return Ideal(ring, 1 << ring.zero)


def unit_ideal(ring: FiniteRing) -> Ideal:
    return Ideal(ring, (1 << ring.order) - 1)


def ideal_from_generators(ring: FiniteRing, gens) -> Ideal:
    """Smallest ideal containing the generators (closure computation)."""
    idxs = []
    for g in gens:
        if isinstance(g, Element):
            if g.ring is not ring:
                raise ForeignElement("generator from a different ring")
            idxs.append(g.index)
        else:
            if not 0 <= int(g) < ring.order:
                raise NotAnIdeal(f"generator {g} out of range for order {ring.order}")
            idxs.append(int(g))
    return Ideal(ring, ring.ideal_mask_from_generators(idxs))


def ideal_sum(i: Ideal, j: Ideal) -> Ideal:
    if i.ring is not j.ring:
        raise RingMismatch("ideals of different rings")
    ring = i.ring
    add = ring.add_rows
    mask = 0
    for a in i.elems:
        row = add[a]
        for b in j.elems:
            mask |= 1 << row[b]
    return Ideal(ring, mask)


def ideal_product(i: Ideal, j: Ideal) -> Ideal:
    if i.ring is not j.ring:
        raise RingMismatch("ideals of different rings")
    ring = i.ring
    mul = ring.mul_rows
    prods = 0
    for a in i.elems:
        row = mul[a]
        for b in j.elems:
            prods |= 1 << row[b]
    return Ideal(ring, ring.ideal_mask_closure(prods))


def ideal_intersection(i: Ideal, j: Ideal) -> Ideal:
    if i.ring is not j.ring:
        raise RingMismatch("ideals of different rings")
    return Ideal(i.ring, i.mask & j.mask)


def _purity_scan(
    ring: FiniteRing, mask: int, accepted: frozenset[int]
) -> tuple[bool, list[list[int]] | int]:
    """Whether every a in the set has b there with a(1-b) in `accepted`.

    `accepted` is ring.zero_set for purity and ring.nil_set for N-purity.
    Returns (True, [[a, b], ...]) with the smallest b for each a, or
    (False, the first a without one)."""
    mul = ring.mul_rows
    to_one = ring.add_rows[ring.one]
    neg = ring.neg_of
    elems = list(bits(mask))
    complements = [(b, to_one[neg[b]]) for b in elems]
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


def ideal_power(i: Ideal, n: int) -> tuple[Ideal, int]:
    """I^n together with the stabilization index of the power chain.

    The chain I >= I^2 >= ... strictly decreases until the first k with
    I^k = I^(k+1) and is constant afterwards, so it is computed to that
    point (at most |I| products) and I^n read off it.
    """
    if n < 1:
        raise ValueError("power must be >= 1")
    chain = [i]
    current = i
    while True:
        nxt = ideal_product(current, i)
        if nxt.mask == current.mask:
            break
        current = nxt
        chain.append(current)
    stabilized = len(chain)
    return chain[min(n, stabilized) - 1], stabilized


def radical(i: Ideal) -> Ideal:
    """{a : some power of a lies in I}, by power-cycle scan per element."""
    ring = i.ring
    mask = i.mask
    out = 0
    for a in range(ring.order):
        if any((mask >> p) & 1 for p in ring.power_sequence(a)):
            out |= 1 << a
    return Ideal(ring, out)


def annihilator(ring: FiniteRing, target: int | Element | Ideal) -> Ideal:
    """Ann of an element {x : x*a = 0} or of an ideal {x : x*I = 0}."""
    if isinstance(target, Ideal):
        if target.ring is not ring:
            raise RingMismatch("ideal of a different ring")
        mask = (1 << ring.order) - 1
        for a in target.elems:
            mask &= ring.ann_mask(a)
        return Ideal(ring, mask)
    if isinstance(target, Element):
        if target.ring is not ring:
            raise ForeignElement("element of a different ring")
        target = target.index
    return Ideal(ring, ring.ann_mask(target))


def all_ideals(ring: FiniteRing, lattice_bound: int = DEFAULT_LATTICE_BOUND) -> list[Ideal]:
    """The complete ideal lattice, by breadth-first closure under sums.

    Seeds with the zero ideal and all principal ideals, then adds pairwise
    sums until fixpoint.  Returned sorted by (size, mask) for determinism.
    """
    if ring.order > lattice_bound:
        raise OrderTooLarge(
            f"order {ring.order} exceeds lattice bound {lattice_bound}"
        )
    masks = {1 << ring.zero}
    masks.update(ring.principal_mask(a) for a in range(ring.order))
    add = ring.add_rows
    worklist = list(masks)
    while worklist:
        m = worklist.pop()
        m_elems = list(bits(m))
        for other in list(masks):
            o_elems = list(bits(other))
            s = 0
            for a in m_elems:
                row = add[a]
                for b in o_elems:
                    s |= 1 << row[b]
            if s not in masks:
                masks.add(s)
                worklist.append(s)
    return [
        Ideal(ring, m)
        for m in sorted(masks, key=lambda m: (m.bit_count(), m))
    ]


@dataclass(frozen=True)
class PrimalityResult:
    value: bool
    witness: tuple[int, ...] | None = None


def is_prime_ideal(i: Ideal) -> PrimalityResult:
    """ab in I implies a in I or b in I, with I proper; witness = bad (a,b)."""
    ring = i.ring
    if not i.is_proper:
        return PrimalityResult(False, (ring.one,))
    mask = i.mask
    mul = ring.mul_rows
    outside = [a for a in range(ring.order) if not (mask >> a) & 1]
    for a in outside:
        row = mul[a]
        for b in outside:
            if b < a:
                continue
            if (mask >> row[b]) & 1:
                return PrimalityResult(False, (a, b) if a <= b else (b, a))
    return PrimalityResult(True)


def is_primary_ideal(i: Ideal) -> PrimalityResult:
    """ab in I and a not in I imply b in radical(I); witness = bad (a,b)."""
    ring = i.ring
    if not i.is_proper:
        return PrimalityResult(False, (ring.one,))
    mask = i.mask
    rad = radical(i).mask
    mul = ring.mul_rows
    for a in range(ring.order):
        if (mask >> a) & 1:
            continue
        row = mul[a]
        for b in range(ring.order):
            if (mask >> row[b]) & 1 and not (rad >> b) & 1:
                return PrimalityResult(False, (a, b))
    return PrimalityResult(True)


def is_maximal_ideal(
    i: Ideal, lattice_bound: int = DEFAULT_LATTICE_BOUND
) -> PrimalityResult:
    """Proper with no proper ideal strictly above it.

    Within the lattice bound the definition is checked by containment scan;
    above it the equivalent cosets-form-a-field test is used.
    """
    ring = i.ring
    if not i.is_proper:
        return PrimalityResult(False, (ring.one,))
    if ring.order <= lattice_bound:
        for j in all_ideals(ring, lattice_bound):
            if j.is_proper and j.mask != i.mask and j.contains_ideal(i):
                return PrimalityResult(False, tuple(j.elems))
        return PrimalityResult(True)
    return PrimalityResult(ring.is_maximal_mask(i.mask))


def nilradical(ring: FiniteRing) -> Ideal:
    """The set of nilpotent elements (an ideal in a commutative ring)."""
    return Ideal(ring, ring.nil_mask)


def jacobson_radical(
    ring: FiniteRing, lattice_bound: int = DEFAULT_LATTICE_BOUND
) -> Ideal:
    """Intersection of all maximal ideals.

    Within the lattice bound the maximal ideals are intersected directly;
    above it the element-level characterization {a : 1 - ab is a unit for
    all b} is used (the same set in any commutative ring).
    """
    if ring.order <= lattice_bound:
        mask = (1 << ring.order) - 1
        for i in all_ideals(ring, lattice_bound):
            if i.is_proper and is_maximal_ideal(i, lattice_bound).value:
                mask &= i.mask
        return Ideal(ring, mask)
    return Ideal(ring, ring.jacobson_mask)


def power_intersection_hypothesis(i: Ideal) -> tuple[bool, int | None]:
    """For every x does some n give R*x^n  intersect I  =  x^n * I?

    The exponent search is bounded by the power-cycle length of x.  Returns
    (verdict, failing x).  A positive verdict is a sufficient condition for
    the ideal to be N-pure, which tests exercise as an implication.
    """
    ring = i.ring
    mul = ring.mul_rows
    for x in range(ring.order):
        ok = False
        for xn in ring.power_sequence(x):
            left = ring.principal_mask(xn) & i.mask
            row = mul[xn]
            right = mask_of(row[e] for e in i.elems)
            if left == right:
                ok = True
                break
        if not ok:
            return False, x
    return True, None
