"""Finite commutative unital rings with exact table arithmetic.

A ring of order N is a pair of N x N Cayley tables over element indices
0..N-1.  Index 0 is always the additive identity; the multiplicative
identity is recorded explicitly.  Each distinct (add, mul, one) is
validated against the full axiom set (commutativity, associativity,
identities, inverses, distributivity) once while some ring holds it: the
tables and everything derived from them are interned, and a ring built
with tables a live ring already holds shares that ring's checked data, so
downstream code never re-checks.
Commutativity, identities and inverses are checked on the whole tables;
associativity and distributivity are decided exactly on additive
generators (at most log2(N) when + is a group) by Light's associativity
test (Clifford & Preston, The Algebraic Theory of Semigroups I, 1.2) and
the additivity of the associator, one gather per axiom per block of
generators.  Only a table that fails is scanned on all N^3 triples.
The element data the deciders read (the multiplication rows, negation,
power reach, Ann(a), Ra, the chain Ann(a) <= Ann(a^2) <= ... to its stable
term, 1 - b and the purity witness sets) is derived from the tables on
first use, once for all elements and for every ring with those tables, as
are memos of radicals and quotient tables by ideal mask.
"""

from __future__ import annotations

import codecs
import math
import sys
import weakref
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Iterator

import numpy as np

from . import specs
from .bounds import DEFAULT_ELEMENT_BOUND, check_order
from .errors import (
    BadModulus,
    ForeignElement,
    NonMonic,
    NotAnIdeal,
    NotARing,
    NotMaximal,
    OrderTooLarge,
    ParseError,
)


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of an element bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _mask_sum(ring: "FiniteRing", m: int, p: int) -> int:
    """The sum of two additive subgroups given as masks (two ideals, say), in
    about |m + p| table reads: m, then the coset m + y of the lowest y of p
    not yet covered, until p is covered.  As m + (m + y) = m + y, that union
    is m + p."""
    if p & ~m == 0 or m & ~p == 0:
        return m | p
    members = list(bits(m))
    add = ring.add_rows
    total = m
    rest = p & ~m
    while rest:
        row = add[(rest & -rest).bit_length() - 1]
        for x in members:
            total |= 1 << row[x]
        rest &= ~total
    return total


def _row_masks(flags: np.ndarray) -> list[int]:
    """The bitmask of each row of a boolean array (bit j from column j); a
    1-D array is one row."""
    packed = np.packbits(flags, axis=-1, bitorder="little")
    width = packed.shape[-1]
    data = packed.tobytes()
    return [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]


def _mask_rows(masks: list[int], n: int) -> np.ndarray:
    """Each bitmask over n elements as a boolean row: the inverse of
    _row_masks."""
    width = (n + 7) // 8
    data = b"".join(m.to_bytes(width, "little") for m in masks)
    packed = np.frombuffer(data, dtype=np.uint8).reshape(len(masks), width)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)


def _pair_table(outer: np.ndarray, inner: np.ndarray, combine) -> np.ndarray:
    """The table of combine(outer[i, k], inner[j, l]) at row
    i * inner.shape[0] + j and column k * inner.shape[1] + l: index pairs
    numbered with the outer index most significant."""
    rows, cols = outer.shape[0] * inner.shape[0], outer.shape[1] * inner.shape[1]
    return combine(outer[:, None, :, None], inner[None, :, None, :]).reshape(rows, cols)


# Miller-Rabin to the prime bases 2..41 decides primality exactly below this
# (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises BadModulus at or above
    PRIMALITY_LIMIT, where the fixed bases no longer decide."""
    if n >= PRIMALITY_LIMIT:
        raise BadModulus(
            f"cannot decide whether {n} is prime: the test is exact only below {PRIMALITY_LIMIT}"
        )
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# The row checks' temporaries hold at most this many entries (or one N^2 from
# N = 182): all (at most log2(N)) generators up to N = 64, all rows to 32.
_BLOCK_ENTRIES = 2**15

_ROW_AXIOMS = (
    "addition is not associative",
    "multiplication is not associative",
    "multiplication does not distribute over addition",
)


def validate_ring_tables(
    add: np.ndarray, mul: np.ndarray, one: int, add_rows: list[list[int]]
) -> None:
    """Check every commutative-unital-ring axiom on the full tables.

    Index 0 is the additive identity and add_rows is the addition table as
    nested lists.  Raises NotARing naming the first failed axiom.  The
    O(N^2) axioms (shape, range, commutativity, identities, inverses) are
    checked first.  The three row axioms are then decided exactly on the
    additive generators g of _additive_generators, from which every element
    is reached by adding generators to 0.  Each check runs on a block of
    generators at a time, with (g, x, y) arrays of at most _BLOCK_ENTRIES
    entries (or the N^2 of one generator).  With both tables commutative,
    each associativity check is one gather, of (g + x) + y or of (gx)y,
    that must be symmetric in x and y, and the distributivity check
    compares two, (g + x)y and gy + xy.  The checks run in this order, each
    assuming the ones before it:

    1. (x + g) + y = x + (g + y) for all x, y: Light's associativity test
       (Clifford & Preston, The Algebraic Theory of Semigroups I, 1.2).
       The a with (x + a) + y = x + (a + y) for all x, y include 0 and are
       closed under +, since (x + (a + b)) + y = ((x + a) + b) + y
       = (x + a) + (b + y) = x + (a + (b + y)) = x + ((a + b) + y); so they
       are all of R.  With the identity and inverses, (R, +) is a finite
       group, and every element, 0 included, is a sum of generators.
    2. x(y + g) = xy + xg for all x, y.  Now that + is associative, the a
       with x(y + a) = xy + xa for all x, y are closed under +:
       x(y + a + b) = x(y + a) + xb = xy + xa + xb = xy + x(a + b).
    3. (xg)y = x(gy) for all x, y.  With distributivity and commutativity
       the associator (xa)y - x(ay) is additive in a, so the a where it
       vanishes are closed under +.

    Each check is an instance of its axiom, so a check fails only on
    tables that break the axiom; then the exhaustive scan of
    _first_row_failure names the first failing row, then axiom, as a scan
    of all N^3 triples would.
    """
    n = add.shape[0]
    if add.shape != (n, n) or mul.shape != (n, n):
        raise NotARing("tables must be square and of equal size")
    if n < 2:
        raise NotARing("ring must have at least two elements (zero ring rejected)")
    if not 0 <= one < n:
        raise NotARing("identity indices out of range")
    if one == 0:
        raise NotARing("zero and one coincide (zero ring rejected)")
    for name, t in (("addition", add), ("multiplication", mul)):
        if t.min() < 0 or t.max() >= n:
            raise NotARing(f"{name} table entry out of range")
        if not (t == t.T).all():
            raise NotARing(f"{name} is not commutative")
    idx = np.arange(n)
    if not (add[0] == idx).all():
        raise NotARing("zero is not an additive identity")
    if not (mul[one] == idx).all():
        raise NotARing("one is not a multiplicative identity")
    if not np.all((add == 0).any(axis=1)):
        raise NotARing("some element has no additive inverse")
    gens = np.array(_additive_generators(add_rows), dtype=np.intp)
    step = max(1, _BLOCK_ENTRIES // n**2)
    # both sides of each row axiom for a block G of generators, as (g, x, y)
    # arrays, written with the commutativity checked above
    for sides in (
        # (g + x) + y = (g + y) + x: (x + g) + y = x + (g + y)
        lambda G: (t := add[add[G]], t.transpose(0, 2, 1)),
        # (g + x)y = gy + xy: x(y + g) = xy + xg
        lambda G: (mul[add[G]], np.take(add, mul[G][:, None, :] * n + mul)),
        # (gx)y = (gy)x: (xg)y = x(gy)
        lambda G: (t := mul[mul[G]], t.transpose(0, 2, 1)),
    ):
        for start in range(0, len(gens), step):
            lhs, rhs = sides(gens[start : start + step])
            if not (lhs == rhs).all():
                raise NotARing(_first_row_failure(add, mul))


def _additive_generators(add_rows: list[list[int]]) -> list[int]:
    """Generators of (R, +), chosen greedily: each is the smallest element
    not yet reached from 0 by adding earlier generators, and is then added
    to every reached element, including the ones it reaches.

    When + makes a group, the reached set is then the subgroup the
    generators span, and each new generator at least doubles it, so there
    are at most log2(N) of them.
    """
    reached = [True] + [False] * (len(add_rows) - 1)
    members = [0]
    gens: list[int] = []
    for g in range(1, len(add_rows)):
        if reached[g]:
            continue
        gens.append(g)
        for x in members:  # members grows as the loop runs
            s = add_rows[x][g]
            if not reached[s]:
                reached[s] = True
                members.append(s)
    return gens


def _first_row_failure(add: np.ndarray, mul: np.ndarray) -> str | None:
    """The message of the first failing row, then axiom, of the three row
    axioms checked on all N^3 triples, or None when they all hold.

    Rows are checked in blocks of max(1, 2**15 // N**2), so each temporary
    holds at most 2**15 entries, or the N^2 of one row above N = 181.
    """
    n = add.shape[0]
    step = max(1, _BLOCK_ENTRIES // n**2)
    for start in range(0, n, step):
        # flat indices: rows + t[j, k] is the entry (i, t[j, k]) for each row i
        rows = np.arange(start, min(start + step, n), dtype=np.intp)[:, None, None] * n
        a, m = add[start : start + step], mul[start : start + step].astype(np.intp)
        at_sum = rows + add
        # both sides of each row axiom at every (i, j, k) of the block
        sides = (
            (np.take(add, a, axis=0), np.take(add, at_sum)),
            (np.take(mul, m, axis=0), np.take(mul, rows + mul)),
            (np.take(mul, at_sum), np.take(add, m[:, :, None] * n + m[:, None, :])),
        )
        bad = np.stack([(lhs != rhs).any(axis=(1, 2)) for lhs, rhs in sides], axis=1)
        if bad.any():
            return _ROW_AXIOMS[int(bad.argmax()) % 3]
    return None


class Element:
    """An element of a specific FiniteRing, identified by its index."""

    __slots__ = ("ring", "index")

    def __init__(self, ring: "FiniteRing", index: int):
        if not 0 <= index < ring.order:
            raise ForeignElement(f"index {index} out of range for order {ring.order}")
        self.ring = ring
        self.index = index

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Element)
            and self.ring is other.ring
            and self.index == other.index
        )

    def __hash__(self) -> int:
        return hash((id(self.ring), self.index))

    def __add__(self, other: "Element") -> "Element":
        return self.ring.add(self, other)

    def __sub__(self, other: "Element") -> "Element":
        return self.ring.sub(self, other)

    def __neg__(self) -> "Element":
        return self.ring.neg(self)

    def __mul__(self, other: "Element") -> "Element":
        return self.ring.mul(self, other)

    def __pow__(self, k: int) -> "Element":
        return self.ring.pow(self, k)

    def __repr__(self) -> str:
        return f"<{self.index} in {self.ring.name}>"


class _Tables:
    """The data that depends only on a ring's tables and identity.

    Held by every FiniteRing with equal (add, mul, one), through the
    interner _INTERNED: the int32 tables (read-only views of the interned
    bytes), the addition rows as nested lists, and the element data derived
    on first use, once for all elements, with whole-array operations (the
    multiplication rows, negation, power reach, annihilator, principal-ideal
    and special-element masks, the annihilator chains (a chain's length and
    last term are its exponent and stable annihilator), 1 - b, and for each
    a the bitmasks of the b with a(1-b) zero or nilpotent, from one gather),
    and the memos the deciders fill: purity scans, the images {1 - v : v in
    J}, radicals, primary witnesses and quotient tables by ideal mask, and
    the sorted ideal lattice.  It refers to no ring, and its quotient memo
    holds arrays only, so it is freed with the last ring that holds it.
    """

    def __init__(self, key: tuple, add_rows: list[list[int]]):
        # key is the interner's (shapes, add bytes, mul bytes, one) of tables
        # that passed validate_ring_tables, so both shapes are (n, n)
        (n, _), _, self.add_bytes, self.mul_bytes, self.one = key
        self.order = n
        self.zero = 0
        self.add_table = np.frombuffer(self.add_bytes, dtype=np.int32).reshape(n, n)
        self.mul_table = np.frombuffer(self.mul_bytes, dtype=np.int32).reshape(n, n)
        # plain nested lists are noticeably faster than ndarray scalar access
        # in the exhaustive scans that dominate this package
        self.add_rows = add_rows
        # ideals._purity_scan results by (mask, nil); one_minus_image,
        # radical_mask and is_primary_ideal's first bad pair by mask
        self.scan_memo: dict[tuple[int, bool], tuple[bool, list[list[int]] | int]] = {}
        self._one_minus_images: dict[int, int] = {}
        self._radicals: dict[int, int] = {}
        self.primary_pairs: dict[int, tuple[int, int] | None] = {}
        # ideal mask -> (coset of each element, quotient add, mul, one)
        self.quotients: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, int]] = {}
        # the ideal masks of ideals.all_ideals, sorted by (size, mask)
        self.lattice: list[int] | None = None

    @cached_property
    def mul_rows(self) -> list[list[int]]:
        return self.mul_table.tolist()

    @cached_property
    def neg_of(self) -> list[int]:
        """neg_of[a] is -a."""
        return np.argmax(self.add_table == 0, axis=1).tolist()

    @cached_property
    def power_masks(self) -> list[int]:
        """power_masks[a] is the bitmask of {a, a^2, ...}, by doubling, a^(m+1..2m)
        = a^m * a^(1..m), until every a^m repeats an earlier power (a^i = a^j,
        i < j, puts all among a^1..a^(j-1)): at most ceil(log2(N + 1)) gathers."""
        n = self.order
        powers = np.arange(n, dtype=self.mul_table.dtype)[:, None]
        while not (powers[:, :-1] == powers[:, -1:]).any(axis=1).all():
            powers = np.hstack((powers, self.mul_table[powers[:, -1:], powers]))
        reach = np.zeros((n, n), dtype=bool)
        reach[np.arange(n)[:, None], powers] = True
        return _row_masks(reach)

    @cached_property
    def ann_masks(self) -> list[int]:
        """ann_masks[a] is the bitmask of Ann(a) = {x : x*a = 0}."""
        return _row_masks(self.mul_table == self.zero)

    @cached_property
    def principal_masks(self) -> list[int]:
        """principal_masks[a] is the bitmask of the principal ideal R*a."""
        n = self.order
        members = np.zeros((n, n), dtype=bool)
        members[np.arange(n)[:, None], self.mul_table] = True
        return _row_masks(members)

    @cached_property
    def one_minus(self) -> list[int]:
        """one_minus[b] is 1 - b."""
        return self.add_table[self.one, self.neg_of].tolist()

    @cached_property
    def ann_chains(self) -> list[tuple[int, ...]]:
        """ann_chains[a] is (Ann(a), Ann(a^2), ..., Ann(a^t)) up to the smallest
        t with Ann(a^t) = Ann(a^(t+1)); all later terms equal it, and t <= log2(N).

        The chain depends on Ann(a) alone: if Ann(a) = Ann(b), r a^n = 0 iff
        r a^(n-1) is in Ann(a) = Ann(b), iff (rb) a^(n-1) = 0, iff r b^n = 0 by
        induction on n.  So it is built once per distinct Ann(a), one tuple.
        """
        ann, mul = self.ann_masks, self.mul_rows
        by_ann: dict[int, tuple[int, ...]] = {}
        for a, m in enumerate(ann):
            if m not in by_ann:
                chain, power = [m], a
                while (nxt := ann[(power := mul[power][a])]) != chain[-1]:
                    chain.append(nxt)
                by_ann[m] = tuple(chain)
        return [by_ann[m] for m in ann]

    @cached_property
    def nil_mask(self) -> int:
        """Bitmask of the nilpotent elements: the nilradical, the radical of (0)."""
        return self.radical_mask(1 << self.zero)

    @cached_property
    def purity_witnesses(self) -> tuple[list[int], list[int]]:
        """purity_witnesses[nil][a] is the bitmask of {b : a(1-b) = 0}, or
        with nil of {b : a(1-b) is nilpotent}, both from one gather."""
        products = self.mul_table[:, self.one_minus]
        nil = _mask_rows([self.nil_mask], self.order)[0]
        return _row_masks(products == self.zero), _row_masks(nil[products])

    def one_minus_image(self, mask: int) -> int:
        """The bitmask of {1 - v : v in the set}, memoized by mask."""
        got = self._one_minus_images.get(mask)
        if got is None:
            one_minus = self.one_minus
            got = self._one_minus_images[mask] = mask_of(one_minus[v] for v in bits(mask))
        return got

    def radical_mask(self, mask: int) -> int:
        """The bitmask of {a : some power of a lies in the set}, memoized by mask."""
        if mask not in self._radicals:
            self._radicals[mask] = mask_of(a for a, m in enumerate(self.power_masks) if m & mask)
        return self._radicals[mask]

    @cached_property
    def unit_mask(self) -> int:
        return _row_masks((self.mul_table == self.one).any(axis=1))[0]

    @cached_property
    def jacobson_mask(self) -> int:
        """Bitmask of {a : 1 - a*b is a unit for every b}: the Jacobson radical,
        by its element-level characterization, at every order."""
        units = _mask_rows([self.unit_mask], self.order)[0]
        one_minus = np.asarray(self.one_minus)
        return _row_masks(units[one_minus[self.mul_table]].all(axis=1))[0]

    @cached_property
    def idempotents(self) -> list[int]:
        return np.flatnonzero(self.mul_table.diagonal() == np.arange(self.order)).tolist()


# The table data of every distinct (add, mul, one) some live ring holds, by
# (shapes, add bytes, mul bytes, one).  Lookup compares the full bytes, so
# equal hashes alone never share data, and the shapes keep a reshaped table
# from matching a valid one.  Values are weak: an entry goes with its last
# ring, so no table data outlives the rings of one request.
_INTERNED: weakref.WeakValueDictionary[tuple, _Tables] = weakref.WeakValueDictionary()


def _shared(name: str) -> cached_property:
    """A FiniteRing attribute read from its _Tables on first use.  The ring
    then keeps a reference to that same object, so the deciders' inner
    loops read it as a plain attribute."""
    return cached_property(attrgetter(f"tables.{name}"))


class FiniteRing:
    """Carrier 0..N-1 with full addition/multiplication tables.

    Immutable after construction.  Everything that depends only on the
    tables (the tables themselves, their rows, the derived element data and
    the memos) is read from ``tables``, a _Tables shared by every live ring
    with equal tables: a new (add, mul, one) is validated and interned, and
    a ring whose tables some live ring already holds reuses that data.  The
    spec, name, factors and key are the ring's own.
    """

    def __init__(
        self,
        add: np.ndarray,
        mul: np.ndarray,
        one: int,
        spec: specs.RingSpec,
        factors: tuple["FiniteRing", ...] = (),
    ):
        add = np.asarray(add, dtype=np.int32)
        mul = np.asarray(mul, dtype=np.int32)
        key = (add.shape, mul.shape, add.tobytes(), mul.tobytes(), one)
        tables = _INTERNED.get(key)
        if tables is None:
            add_rows = add.tolist()
            validate_ring_tables(add, mul, one, add_rows)
            tables = _INTERNED[key] = _Tables(key, add_rows)
        self.tables = tables
        self.order = tables.order
        self.zero = 0
        self.one = one
        self.spec = spec
        # the rings a product was built from; () for any other ring
        self.factors = factors

    add_table = _shared("add_table")
    mul_table = _shared("mul_table")
    add_rows = _shared("add_rows")
    mul_rows = _shared("mul_rows")
    neg_of = _shared("neg_of")
    scan_memo = _shared("scan_memo")
    power_masks = _shared("power_masks")
    ann_masks = _shared("ann_masks")
    principal_masks = _shared("principal_masks")
    one_minus = _shared("one_minus")
    ann_chains = _shared("ann_chains")
    nil_mask = _shared("nil_mask")
    purity_witnesses = _shared("purity_witnesses")
    one_minus_image = _shared("one_minus_image")
    unit_mask = _shared("unit_mask")
    jacobson_mask = _shared("jacobson_mask")
    idempotents = _shared("idempotents")

    # -- presentation -------------------------------------------------

    @property
    def name(self) -> str:
        return specs.print_ring_spec(self.spec)

    def __repr__(self) -> str:
        return f"FiniteRing({self.name}, order={self.order})"

    # -- element arithmetic -------------------------------------------

    def element(self, index: int) -> Element:
        return Element(self, index)

    def _idx(self, a: Element | int) -> int:
        if isinstance(a, Element):
            if a.ring is not self:
                raise ForeignElement(f"element of {a.ring.name} used in {self.name}")
            return a.index
        if not 0 <= a < self.order:
            raise ForeignElement(f"index {a} out of range for order {self.order}")
        return a

    def add(self, a: Element | int, b: Element | int) -> Element:
        return Element(self, self.add_rows[self._idx(a)][self._idx(b)])

    def neg(self, a: Element | int) -> Element:
        return Element(self, self.neg_of[self._idx(a)])

    def sub(self, a: Element | int, b: Element | int) -> Element:
        return Element(self, self.add_rows[self._idx(a)][self.neg_of[self._idx(b)]])

    def mul(self, a: Element | int, b: Element | int) -> Element:
        return Element(self, self.mul_rows[self._idx(a)][self._idx(b)])

    def pow(self, a: Element | int, k: int) -> Element:
        if k < 0:
            raise ValueError("exponent must be >= 0")
        return Element(self, self.pow_index(self._idx(a), k))

    def pow_index(self, a: int, k: int) -> int:
        """Square-and-multiply over the multiplication table."""
        result = self.one
        base = a
        mul = self.mul_rows
        while k > 0:
            if k & 1:
                result = mul[result][base]
            base = mul[base][base]
            k >>= 1
        return result

    @cached_property
    def key(self) -> tuple:
        """The tables, one and the factors' keys: everything a report reads
        of the ring except its name.  Rings with equal keys get equal
        reports; dict lookup compares the full bytes, so equal hashes alone
        never make two keys equal.  The bytes are the interned ones.  Of
        the report, only the product check (product_mid_iff_factors_mid)
        reads the factors: rings with equal tables share everything else."""
        return (
            self.tables.add_bytes,
            self.tables.mul_bytes,
            self.one,
            tuple(f.key for f in self.factors),
        )

    def additive_order(self, a: int) -> int:
        k = 1
        x = a
        row = self.add_rows
        while x != self.zero:
            x = row[x][a]
            k += 1
        return k

    # -- mask-level ideal helpers (used by builders and the ideal layer)

    def ideal_mask_closure(self, seed_mask: int, picks: list[int] | None = None) -> int:
        """Additive closure of a union of ideals: the sum of the principal ideals
        of its elements not yet covered, smallest first, each appended to picks."""
        picks = [] if picks is None else picks
        mask = 1 << self.zero
        principal = self.principal_masks
        rest = seed_mask & ~mask
        while rest:
            picks.append((rest & -rest).bit_length() - 1)
            mask = _mask_sum(self, mask, principal[picks[-1]])
            rest &= ~mask
        return mask

    def ideal_mask_from_generators(self, gens: Iterable[int]) -> int:
        seed = 1 << self.zero
        for g in gens:
            gi = self._idx(g) if isinstance(g, Element) else g
            if not 0 <= gi < self.order:
                raise NotAnIdeal(f"generator {gi} out of range for order {self.order}")
            seed |= self.principal_masks[gi]
        return self.ideal_mask_closure(seed)

    def is_maximal_mask(self, ideal_mask: int) -> bool:
        """Field test on cosets: proper, and every element outside the ideal
        is invertible modulo it."""
        if (ideal_mask >> self.one) & 1:
            return False
        to_one = self.add_rows[self.one]
        one_plus = mask_of(to_one[i] for i in bits(ideal_mask))
        return all(
            m & one_plus
            for a, m in enumerate(self.principal_masks)
            if not (ideal_mask >> a) & 1
        )

    def localization_kernel_mask(self, prime_mask: int) -> int:
        """Bitmask of {a : s*a = 0 for some s outside the given prime}."""
        return mask_of(a for a, m in enumerate(self.ann_masks) if m & ~prime_mask)

    def local_maximal_mask(self) -> int | None:
        """If the non-units form an ideal, return their mask (the unique
        maximal ideal); otherwise None.  A finite commutative ring is local
        exactly when this succeeds."""
        nonunits = ((1 << self.order) - 1) ^ self.unit_mask
        # a union of principal ideals: an ideal when closed under +
        return nonunits if self.ideal_mask_closure(nonunits) == nonunits else None


# -- constructors -------------------------------------------------------


def _power_order(p: int, d: int, max_order: int) -> int:
    """p^d for p >= 2, raising OrderTooLarge when it exceeds max_order.

    The powers are formed only while they stay within the bound, so a huge
    degree costs at most log2(max_order) + 1 products.  An order above the
    bound is named in decimal up to 1024 bits and as p^d beyond: the
    decimal form of 2^1000000 alone has 301,030 digits."""
    n = 1
    for _ in range(d):
        n *= p
        if n > max_order:
            order = p**d if d == 1 or d * p.bit_length() <= 1024 else f"{p}^{d}"
            raise OrderTooLarge(f"order {order} exceeds element bound {max_order}")
    return n


def _build_zmod(spec: specs.Zmod, max_order: int) -> FiniteRing:
    n = spec.n
    if n < 2:
        raise BadModulus(f"Z/{n} needs n >= 2")
    check_order(n, max_order)
    idx = np.arange(n)
    add = (idx[:, None] + idx[None, :]) % n
    mul = (idx[:, None] * idx[None, :]) % n
    return FiniteRing(add, mul, one=1, spec=spec)


def _build_polyquot(spec: specs.PolyQuot, max_order: int) -> FiniteRing:
    p = spec.p
    # a p above the bound fails the order check below with the bound's
    # message, whether or not it is prime
    if p <= max_order and not is_prime(p):
        raise BadModulus(f"GF({p}) needs a prime characteristic")
    coeffs = tuple(c % p for c in spec.coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    d = len(coeffs) - 1
    if d < 1 or coeffs[-1] != 1:
        raise NonMonic(f"modulus {specs.print_univariate(spec.coeffs, spec.var)} must be monic of degree >= 1")
    n = _power_order(p, d, max_order)
    # element i is sum_t (i // p^t % p) x^t, so (R, +) is (Z/p)^d, built a
    # digit at a time by _pair_table with the new digit most significant
    zp = np.arange(p, dtype=np.int32)
    add = zp_add = (zp[:, None] + zp) % p
    for w in (p**t for t in range(1, d)):
        add = _pair_table(zp_add, add, lambda a, b: a * w + b)
    # a * x: the digits below the top shift up one place, and the top digit c
    # adds c * x^d = c * -(f_0 + ... + f_(d-1) x^(d-1)) mod f
    idx = np.arange(n, dtype=np.int32)
    top = n // p
    reduced = (-zp[:, None] * np.array(coeffs[:d]) % p * p ** np.arange(d)).sum(axis=1)
    times_x = add[idx % top * p, reduced[idx // top]]
    # the columns b = c x^k + r (0 < c < p, r < p^k), a block per (k, c):
    # a * b = a * (b - x^k) + a * x^k, from the block before
    mul = np.zeros((n, n), dtype=np.int32)
    image = idx
    for w in (p**k for k in range(d)):
        for c in range(1, p):
            mul[:, c * w : (c + 1) * w] = add[image[:, None], mul[:, (c - 1) * w : c * w]]
        image = times_x[image]
    return FiniteRing(add, mul, one=1, spec=specs.PolyQuot(p, coeffs, spec.var))


def product_ring(factors: list[FiniteRing], spec: specs.Product) -> FiniteRing:
    """The direct product of rings already built, keeping them as ``factors``."""
    add = np.zeros((1, 1), dtype=np.int32)
    mul = np.zeros((1, 1), dtype=np.int32)
    one = 0
    for f in factors:
        o = f.order
        add = _pair_table(add, f.add_table, lambda a, b: a * o + b)
        mul = _pair_table(mul, f.mul_table, lambda a, b: a * o + b)
        one = one * o + f.one
    return FiniteRing(add, mul, one=one, spec=spec, factors=tuple(factors))


def quotient_ring(inner: FiniteRing, ideal_mask: int, spec: specs.RingSpec) -> FiniteRing:
    """The ring of cosets modulo an ideal given as a bitmask."""
    if (ideal_mask >> inner.one) & 1:
        raise NotARing("quotient by the unit ideal is the zero ring")
    _, qadd, qmul, qone = _quotient_tables(inner, ideal_mask)
    return FiniteRing(qadd, qmul, one=qone, spec=spec)


def quotient_projection(inner: FiniteRing, ideal_mask: int) -> list[int]:
    """Index map from inner elements to their cosets in quotient_ring."""
    return _quotient_tables(inner, ideal_mask)[0].tolist()


def _quotient_tables(
    inner: FiniteRing, ideal_mask: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Each element's coset and the tables and one of the quotient, memoized
    by mask on the inner table data.  The memo holds arrays, not a ring, so
    the quotient's own table data lives only as long as some ring holds it."""
    memo = inner.tables.quotients
    got = memo.get(ideal_mask)
    if got is None:
        reps, proj = _cosets(inner, ideal_mask)
        sub = np.ix_(reps, reps)
        got = memo[ideal_mask] = (
            proj,
            proj[inner.add_table[sub]].astype(np.int32),
            proj[inner.mul_table[sub]].astype(np.int32),
            int(proj[inner.one]),
        )
    return got


def _cosets(inner: FiniteRing, ideal_mask: int) -> tuple[np.ndarray, np.ndarray]:
    """Each coset's smallest element, ascending, and each element's coset."""
    smallest = inner.add_table[:, list(bits(ideal_mask))].min(axis=1)
    return np.unique(smallest, return_inverse=True)


def localize_at_mask(
    inner: FiniteRing, maximal_mask: int, spec: specs.RingSpec
) -> FiniteRing:
    """Localization at a maximal ideal of a finite ring.

    For finite (hence Artinian) rings the localization map at a maximal
    ideal m is surjective with kernel {a : s*a = 0, some s outside m},
    so R_m is the quotient by that kernel.  The result is checked to be
    local (its non-units must form an ideal).
    """
    if not inner.is_maximal_mask(maximal_mask):
        raise NotMaximal(
            f"generators do not give a maximal ideal of {inner.name}"
        )
    kernel = inner.localization_kernel_mask(maximal_mask)
    local = quotient_ring(inner, kernel, spec)
    assert local.local_maximal_mask() is not None, "localization failed to be local"
    return local


_HEAD_CHARS = 1 + sys.int_info.default_max_str_digits  # a sign and int()'s most digits


def _table_text(spec: specs.TableSpec, data: bytes, start: int, final: bool = True) -> str:
    """data, the table file from byte offset start, as text; unless final,
    a character that data cuts short at its end is left out."""
    try:
        return codecs.getincrementaldecoder("utf-8")().decode(data, final)
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"table file {spec.path}: invalid UTF-8 at byte offset {start + exc.start}"
        ) from None


def _table_int(spec: specs.TableSpec, token: str, k: int) -> int:
    """Token k of a table file, ASCII digits with an optional sign, as an integer."""
    digits = token[1:] if token[0] in "+-" else token
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"table file {spec.path} contains a non-integer token")
    try:
        return int(token)
    except ValueError:  # more digits than int() converts: no table entry holds that
        raise ParseError(f"table file {spec.path}: integer {k} does not fit in int32") from None


def _build_table(spec: specs.TableSpec, max_order: int) -> FiniteRing:
    """The ring of a table file.  Its first token, the declared order, is
    read and checked against max_order before the rest of the file."""
    try:
        with open(spec.path, "rb") as fh:
            start, data = 0, b""  # data is the file from byte offset start
            while True:
                chunk = fh.read(1 << 14)
                data += chunk
                # the bytes up to the last ASCII whitespace hold whole tokens only
                cut = max(map(data.rfind, b" \t\n\v\f\r")) + 1 if chunk else len(data)
                head = _table_text(spec, data[:cut], start).split(maxsplit=1)
                if head or not chunk:
                    break
                # other whitespace may end the first token; what precedes it is not kept
                text = _table_text(spec, data, start, final=False)
                rest = text.lstrip()
                if len(rest) > _HEAD_CHARS:  # the whole first token, or more than int() converts
                    head = rest.split(maxsplit=1)[:1]
                    break
                skip = len(text[: len(text) - len(rest)].encode())
                start, data = start + skip, data[skip:]
            if head:
                check_order(_table_int(spec, head[0], 1), max_order)
            data += fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read table file {spec.path}: {exc}") from exc
    tokens = _table_text(spec, data, start).split()
    values = [_table_int(spec, token, k) for k, token in enumerate(tokens, 1)]
    if not values:
        raise ParseError(f"table file {spec.path} is empty")
    n = values[0]
    if n < 2 or len(values) != 1 + 2 * n * n:
        raise ParseError(
            f"table file {spec.path}: expected 1 + 2*N^2 integers for N={n}, got {len(values)}"
        )
    int32 = np.iinfo(np.int32)
    wide = next((k for k, v in enumerate(values[1:], 2) if not int32.min <= v <= int32.max), None)
    if wide is not None:
        raise ParseError(f"table file {spec.path}: integer {wide} does not fit in int32")
    body = np.asarray(values[1:], dtype=np.int32)
    add = body[: n * n].reshape(n, n)
    mul = body[n * n :].reshape(n, n)
    return FiniteRing(add, mul, one=1, spec=spec)


def build(spec: specs.RingSpec, max_order: int = DEFAULT_ELEMENT_BOUND) -> FiniteRing:
    """Construct and validate the finite ring denoted by a RingSpec.

    Every ring constructed on the way, factors and inner rings included, is
    checked against max_order before its tables are allocated; a quotient
    or localization is no larger than its inner ring.
    """
    if isinstance(spec, specs.Zmod):
        return _build_zmod(spec, max_order)
    if isinstance(spec, specs.PolyQuot):
        return _build_polyquot(spec, max_order)
    if isinstance(spec, specs.Product):
        factors = [build(f, max_order) for f in spec.factors]
        check_order(math.prod(f.order for f in factors), max_order)
        return product_ring(factors, spec)
    if type(spec) in specs.DERIVED:
        inner = build(spec.inner, max_order)
        derive = quotient_ring if isinstance(spec, specs.Quotient) else localize_at_mask
        return derive(inner, inner.ideal_mask_from_generators(spec.gens), spec)
    if isinstance(spec, specs.TableSpec):
        return _build_table(spec, max_order)
    raise TypeError(f"not a RingSpec: {spec!r}")


# -- set-valued element scans -------------------------------------------


def special_elements(ring: FiniteRing, kind: str) -> frozenset[int]:
    """Exhaustive scan for units / idempotents / nilpotents / zero_divisors."""
    if kind == "units":
        return frozenset(bits(ring.unit_mask))
    if kind == "idempotents":
        return frozenset(ring.idempotents)
    if kind == "nilpotents":
        return frozenset(bits(ring.nil_mask))
    if kind == "zero_divisors":
        only_zero = 1 << ring.zero
        return frozenset(
            a for a, m in enumerate(ring.ann_masks) if a != ring.zero and m != only_zero
        )
    raise ValueError(f"unknown kind {kind!r}")


# -- isomorphism search --------------------------------------------------


def _profile(ring: FiniteRing, a: int) -> tuple:
    powers = ring.power_masks[a]
    return (
        ring.additive_order(a),
        powers & 1,
        ring.mul_rows[a][a] == a,
        (ring.unit_mask >> a) & 1,
        powers.bit_count(),
    )


def find_isomorphism(r1: FiniteRing, r2: FiniteRing) -> list[int] | None:
    """Exhaustive backtracking search for a ring isomorphism r1 -> r2.

    Candidate images are pruned by element invariants (additive order,
    nilpotency, idempotency, unit-ness, power-cycle length) and the partial
    map is closed under both tables after every assignment, so the search
    collapses immediately for the small orders it is used on.
    """
    if r1.order != r2.order:
        return None
    n = r1.order
    prof2: dict[tuple, list[int]] = {}
    for b in range(n):
        prof2.setdefault(_profile(r2, b), []).append(b)
    candidates = []
    for a in range(n):
        cand = prof2.get(_profile(r1, a))
        if not cand:
            return None
        candidates.append(cand)

    phi = [-1] * n
    used = [False] * n

    def propagate(trail: list[int]) -> bool:
        """Close the partial map under + and *; record assignments on trail."""
        queue = [a for a in range(n) if phi[a] >= 0]
        while queue:
            x = queue.pop()
            for y in range(n):
                if phi[y] < 0:
                    continue
                for rows1, rows2 in ((r1.add_rows, r2.add_rows), (r1.mul_rows, r2.mul_rows)):
                    z = rows1[x][y]
                    w = rows2[phi[x]][phi[y]]
                    if phi[z] < 0:
                        if used[w]:
                            return False
                        phi[z] = w
                        used[w] = True
                        trail.append(z)
                        queue.append(z)
                    elif phi[z] != w:
                        return False
        return True

    order_by = sorted(range(n), key=lambda a: (-r1.additive_order(a), a))

    def undo(trail: list[int]) -> None:
        for t in trail:
            used[phi[t]] = False
            phi[t] = -1

    def assign(a: int, b: int) -> list[int] | None:
        trail = [a]
        phi[a] = b
        used[b] = True
        if propagate(trail):
            return trail
        undo(trail)
        return None

    def search() -> bool:
        a = next((x for x in order_by if phi[x] < 0), -1)
        if a < 0:
            return True
        for b in candidates[a]:
            if used[b]:
                continue
            trail = assign(a, b)
            if trail is None:
                continue
            if search():
                return True
            undo(trail)
        return False

    zero_trail = assign(r1.zero, r2.zero)
    if zero_trail is None:
        return None
    one_trail = assign(r1.one, r2.one)
    if one_trail is None:
        return None
    if search():
        return phi
    return None
