"""Ideals of a finite ring as membership bitmasks, plus the ideal algebra.

Storing ideals as masks over the carrier turns every quantified condition
("for each a in I ...") into a finite scan, and makes sum, product,
intersection, radical and annihilator cheap exact set computations.  An
ideal is its mask (its element tuple is built on first read), and every
sum of ideals goes through one coset kernel, rings._mask_sum.  The lattice
of a ring built as a product is formed from its factors' lattices, under
the same lattice bound on the product's own order.  That bound gates
all_ideals alone; is_maximal_ideal and radical answer at every order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import DEFAULT_LATTICE_BOUND, check_order
from .errors import ForeignElement, NotAnIdeal, OrderTooLarge, RingMismatch
from .rings import Element, FiniteRing, _mask_rows, _mask_sum, _pair_table, _row_masks, bits, mask_of


class Ideal:
    """An ideal, held as (ring, membership bitmask)."""

    __slots__ = ("ring", "mask", "_elems", "_gens")

    def __init__(self, ring: FiniteRing, mask: int):
        self.ring = ring
        self.mask = mask
        self._elems: tuple[int, ...] | None = None
        self._gens: tuple[int, ...] | None = None

    @property
    def elems(self) -> tuple[int, ...]:
        if self._elems is None:
            self._elems = tuple(bits(self.mask))
        return self._elems

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
        return self.mask.bit_count()

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
        """A small deterministic generating set, built on first read: each is
        the smallest member outside the ideal the earlier ones generate.

        The zero ideal reports (0,) so that every generator list stays
        nonempty and printable in the spec grammar."""
        if self._gens is None:
            gens: list[int] = []
            self.ring.ideal_mask_closure(self.mask, gens)
            self._gens = tuple(gens) or (self.ring.zero,)
        return self._gens


def zero_ideal(ring: FiniteRing) -> Ideal:
    return Ideal(ring, 1 << ring.zero)


def unit_ideal(ring: FiniteRing) -> Ideal:
    return Ideal(ring, (1 << ring.order) - 1)


def ideal_from_generators(ring: FiniteRing, gens) -> Ideal:
    """Smallest ideal containing the generators (indices or elements)."""
    return Ideal(ring, ring.ideal_mask_from_generators(gens))


def ideal_sum(i: Ideal, j: Ideal) -> Ideal:
    if i.ring is not j.ring:
        raise RingMismatch("ideals of different rings")
    for x in (i, j):
        if not x.mask & 1 << x.ring.zero:
            raise NotAnIdeal(f"{x!r} does not contain zero")
    return Ideal(i.ring, _mask_sum(i.ring, i.mask, j.mask))


def ideal_product(i: Ideal, j: Ideal) -> Ideal:
    """The ideal generated by the products ab, a in I, b in J.  Only the gh
    of the generators g of I and h of J are formed: each ab is a sum of
    multiples rs gh, for element sets as for ideals."""
    if i.ring is not j.ring:
        raise RingMismatch("ideals of different rings")
    ring = i.ring
    mul = ring.mul_rows
    prods = 0
    for g in i.generators():
        row = mul[g]
        for h in j.generators():
            prods |= 1 << row[h]
    return Ideal(ring, ring.ideal_mask_closure(prods))


def ideal_intersection(i: Ideal, j: Ideal) -> Ideal:
    if i.ring is not j.ring:
        raise RingMismatch("ideals of different rings")
    return Ideal(i.ring, i.mask & j.mask)


def _purity_scan(ring: FiniteRing, mask: int, nil: bool) -> tuple[bool, list[list[int]] | int]:
    """Whether every a in the set has b there with a(1-b) zero (purity) or,
    with nil, nilpotent (N-purity).

    The set may be any element set, not only an ideal.  Returns (True,
    [[a, b], ...]) with the smallest b for each a, or (False, the first a
    without one): the lowest bit of a's witness mask within the set.  The
    result is memoized on the ring by (mask, nil) and shared by every
    caller, so callers must not mutate it."""
    key = (mask, nil)
    got = ring.scan_memo.get(key)
    if got is not None:
        return got
    witnesses = ring.purity_witnesses[nil]
    choices = []
    for a in bits(mask):
        w = witnesses[a] & mask
        if not w:
            got = (False, a)
            break
        choices.append([a, (w & -w).bit_length() - 1])
    else:
        got = (True, choices)
    ring.scan_memo[key] = got
    return got


def _power_chain(i: Ideal) -> list[Ideal]:
    """I, I^2, ..., I^k for the first k with I^k = I^(k+1).

    The chain I >= I^2 >= ... strictly decreases to that point and is
    constant afterwards, so it takes at most |I| products.
    """
    chain = [i]
    while (nxt := ideal_product(chain[-1], i)).mask != chain[-1].mask:
        chain.append(nxt)
    return chain


def ideal_power(i: Ideal, n: int) -> tuple[Ideal, int]:
    """I^n together with the stabilization index of the power chain."""
    if n < 1:
        raise ValueError("power must be >= 1")
    chain = _power_chain(i)
    return chain[min(n, len(chain)) - 1], len(chain)


def radical(i: Ideal) -> Ideal:
    """{a : some power of a lies in I}, from the ring's memoized radical_mask."""
    return Ideal(i.ring, i.ring.tables.radical_mask(i.mask))


def annihilator(ring: FiniteRing, target: int | Element | Ideal) -> Ideal:
    """Ann of an element {x : x*a = 0} or of an ideal {x : x*I = 0}."""
    if isinstance(target, Ideal):
        if target.ring is not ring:
            raise RingMismatch("ideal of a different ring")
        mask = (1 << ring.order) - 1
        for a in target.elems:
            mask &= ring.ann_masks[a]
        return Ideal(ring, mask)
    if isinstance(target, Element):
        if target.ring is not ring:
            raise ForeignElement("element of a different ring")
        target = target.index
    return Ideal(ring, ring.ann_masks[target])


def _lattice_key(mask: int) -> tuple[int, int]:
    """The lattice order: by size, then by mask."""
    return mask.bit_count(), mask


def all_ideals(ring: FiniteRing, lattice_bound: int = DEFAULT_LATTICE_BOUND) -> list[Ideal]:
    """The complete ideal lattice, sorted by (size, mask).

    The bound applies to the ring's own order; see _lattice_masks for how
    the lattice is enumerated.
    """
    check_order(ring.order, lattice_bound, "lattice bound")
    return [Ideal(ring, m) for m in _sorted_lattice_masks(ring)]


def _sorted_lattice_masks(ring: FiniteRing) -> list[int]:
    """The masks of every ideal, sorted by (size, mask), memoized on the
    table data that every ring with the same tables shares."""
    tables = ring.tables
    if tables.lattice is None:
        tables.lattice = sorted(_lattice_masks(ring), key=_lattice_key)
    return tables.lattice


def _lattice_masks(ring: FiniteRing) -> list[int]:
    """The masks of every ideal, in no particular order.

    The ideals of R_1 x ... x R_k are exactly the products I_1 x ... x I_k
    (Atiyah-Macdonald, Ch. 1, Ex. 1.22), so a ring built as a product
    combines its factors' lattices with _pair_table, the first factor's
    index most significant.  Any other ring forms every sum of its
    principal ideals (every ideal is one), by size: each is added to every
    ideal reached unless reached itself (the sums reached are closed under
    sums), each sum one _mask_sum.
    """
    if ring.factors:
        rows = np.ones((1, 1), dtype=bool)
        for f in ring.factors:
            own = _mask_rows(_sorted_lattice_masks(f), f.order)
            rows = _pair_table(rows, own, np.bitwise_and)
        return _row_masks(rows)
    masks = {1 << ring.zero}
    for p in sorted(set(ring.principal_masks), key=_lattice_key):
        if p not in masks:
            masks |= {_mask_sum(ring, m, p) for m in masks}
    return list(masks)


@dataclass(frozen=True)
class PrimalityResult:
    value: bool
    witness: tuple[int, ...] | None = None


def _lane_words(masks: list[int], lanes: np.ndarray, n: int) -> np.ndarray:
    """Element masks as one word per element, bit lanes[j] from masks[j]."""
    return np.bitwise_or.reduce(_mask_rows(masks, n) << lanes[:, None])


def _first_bad_pairs(
    ring: FiniteRing, masks: list[int], col_masks: list[int] | None = None
) -> list[tuple[int, int] | None]:
    """For each ideal mask I, the first (a, b) in row-major order with a and
    b outside I (b outside the matching col_masks entry if given) and ab in
    I, else None; up to 64 ideals share one (a, b) array of the narrowest
    words, a bit each.  With b outside I, (b, a) is bad too, so a <= b."""
    n, found = ring.order, []
    for start in range(0, len(masks), 64):
        block = slice(start, start + 64)
        k = len(masks[block])
        lanes = np.arange(k, dtype=np.min_scalar_type(1 << (k - 1)))
        inside = _lane_words(masks[block], lanes, n)
        cols = inside if col_masks is None else _lane_words(col_masks[block], lanes, n)
        # bit j of bad[a, b]: a and b outside their sets for I_j, ab in I_j
        bad = inside[ring.mul_table] & ~(inside[:, None] | cols)
        rows = np.bitwise_or.reduce(bad, axis=1)[:, None] >> lanes & 1
        a = rows.argmax(axis=0)
        b = (bad[a] >> lanes[:, None] & 1).argmax(axis=1)
        hit = rows[a, np.arange(k)]
        found += [(x, y) if h else None for x, y, h in zip(a.tolist(), b.tolist(), hit.tolist())]
    return found


def is_prime_ideal(i: Ideal) -> PrimalityResult:
    """ab in I implies a in I or b in I, with I proper; witness = the first
    bad (a, b), a <= b."""
    ring = i.ring
    if not i.is_proper:
        return PrimalityResult(False, (ring.one,))
    (bad,) = _first_bad_pairs(ring, [i.mask])
    return PrimalityResult(bad is None, bad)


def is_primary_ideal(i: Ideal) -> PrimalityResult:
    """ab in I and a not in I imply b in radical(I); witness = the first bad
    (a, b), memoized by mask on the ring's table data."""
    ring = i.ring
    if not i.is_proper:
        return PrimalityResult(False, (ring.one,))
    memo = ring.tables.primary_pairs
    if i.mask not in memo:
        (memo[i.mask],) = _first_bad_pairs(ring, [i.mask], [radical(i).mask])
    return PrimalityResult(memo[i.mask] is None, memo[i.mask])


def is_maximal_ideal(
    i: Ideal, lattice_bound: int = DEFAULT_LATTICE_BOUND
) -> PrimalityResult:
    """Proper with no proper ideal strictly above it.

    Where all_ideals gives the lattice the definition is checked by
    containment scan; above its bound, by the cosets-form-a-field test.
    """
    ring = i.ring
    if not i.is_proper:
        return PrimalityResult(False, (ring.one,))
    try:
        lattice = all_ideals(ring, lattice_bound)
    except OrderTooLarge:
        return PrimalityResult(ring.is_maximal_mask(i.mask))
    for j in lattice:
        if j.is_proper and j.mask != i.mask and j.contains_ideal(i):
            return PrimalityResult(False, tuple(j.elems))
    return PrimalityResult(True)


def nilradical(ring: FiniteRing) -> Ideal:
    """The set of nilpotent elements (an ideal in a commutative ring)."""
    return Ideal(ring, ring.nil_mask)


def jacobson_radical(ring: FiniteRing, maximal: list[Ideal]) -> Ideal:
    """Intersection of the given maximal ideals: the definition, against
    which tests check ring.jacobson_mask, the set RingContext.jacobson reads."""
    mask = (1 << ring.order) - 1
    for m in maximal:
        mask &= m.mask
    return Ideal(ring, mask)


def power_intersection_hypothesis(i: Ideal) -> tuple[bool, int | None]:
    """For every x does some n give R*x^n  intersect I  =  x^n * I?

    The exponent search runs over the powers of x that x reaches.  Returns
    (verdict, failing x).  A positive verdict is a sufficient condition for
    the ideal to be N-pure, which tests exercise as an implication.
    """
    ring = i.ring
    mul = ring.mul_rows
    for x, powers in enumerate(ring.power_masks):
        if not any(
            ring.principal_masks[xn] & i.mask == mask_of(mul[xn][e] for e in i.elems)
            for xn in bits(powers)
        ):
            return False, x
    return True, None
