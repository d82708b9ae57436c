"""Finite commutative unital rings with exact table arithmetic.

A ring of order N is a pair of N x N Cayley tables over element indices
0..N-1.  Index 0 is always the additive identity; the multiplicative
identity is recorded explicitly.  Every constructor validates the full
axiom set (commutativity, associativity, identities, inverses,
distributivity) before returning, so downstream code never re-checks.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from . import specs
from .errors import (
    BadModulus,
    ForeignElement,
    NonMonic,
    NotAnIdeal,
    NotARing,
    NotMaximal,
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


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def validate_ring_tables(add: np.ndarray, mul: np.ndarray, zero: int, one: int) -> None:
    """Check every commutative-unital-ring axiom on the full tables.

    Raises NotARing naming the first failed axiom.  Associativity and
    distributivity are verified row-by-row to keep memory linear in N^2.
    """
    n = add.shape[0]
    if add.shape != (n, n) or mul.shape != (n, n):
        raise NotARing("tables must be square and of equal size")
    if n < 2:
        raise NotARing("ring must have at least two elements (zero ring rejected)")
    if not (0 <= zero < n and 0 <= one < n):
        raise NotARing("identity indices out of range")
    if zero == one:
        raise NotARing("zero and one coincide (zero ring rejected)")
    for name, t in (("addition", add), ("multiplication", mul)):
        if t.min() < 0 or t.max() >= n:
            raise NotARing(f"{name} table entry out of range")
        if not np.array_equal(t, t.T):
            raise NotARing(f"{name} is not commutative")
    idx = np.arange(n)
    if not np.array_equal(add[zero], idx):
        raise NotARing("zero is not an additive identity")
    if not np.array_equal(mul[one], idx):
        raise NotARing("one is not a multiplicative identity")
    if not np.all((add == zero).any(axis=1)):
        raise NotARing("some element has no additive inverse")
    for i in range(n):
        if not np.array_equal(add[add[i], :], np.take(add[i], add)):
            raise NotARing("addition is not associative")
        if not np.array_equal(mul[mul[i], :], np.take(mul[i], mul)):
            raise NotARing("multiplication is not associative")
        if not np.array_equal(np.take(mul[i], add), add[np.ix_(mul[i], mul[i])]):
            raise NotARing("multiplication does not distribute over addition")


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


class FiniteRing:
    """Carrier 0..N-1 with full addition/multiplication tables.

    Immutable after construction; derived data (power cycles, annihilator
    masks, special-element masks) is cached lazily and never mutated.
    """

    def __init__(
        self,
        add: np.ndarray,
        mul: np.ndarray,
        one: int,
        spec: specs.RingSpec,
        zero: int = 0,
    ):
        add = np.asarray(add, dtype=np.int32)
        mul = np.asarray(mul, dtype=np.int32)
        validate_ring_tables(add, mul, zero, one)
        self.order = int(add.shape[0])
        self.add_table = add
        self.mul_table = mul
        self.zero = zero
        self.one = one
        self.spec = spec
        # plain nested lists are noticeably faster than ndarray scalar access
        # in the exhaustive scans that dominate this package
        self.add_rows: list[list[int]] = add.tolist()
        self.mul_rows: list[list[int]] = mul.tolist()
        self.neg_of: list[int] = [int(np.where(add[i] == zero)[0][0]) for i in range(self.order)]
        self._power_seq: dict[int, list[int]] = {}
        self._ann_mask: dict[int, int] = {}
        self._ann_stable: dict[int, tuple[int, int]] = {}
        self._principal: dict[int, int] = {}
        self._nil_mask: int | None = None
        self._unit_mask: int | None = None
        self._jac_mask: int | None = None
        self._idempotents: list[int] | None = None
        self._nil_set: frozenset[int] | None = None
        # {0} as a set: the accepted values of a(1-b) in a purity scan
        self.zero_set = frozenset((zero,))

    # -- presentation -------------------------------------------------

    @property
    def name(self) -> str:
        return specs.print_ring_spec(self.spec)

    def __repr__(self) -> str:
        return f"FiniteRing({self.name}, order={self.order})"

    # -- element arithmetic -------------------------------------------

    def element(self, index: int) -> Element:
        return Element(self, index)

    def elements(self) -> Iterator[Element]:
        return (Element(self, i) for i in range(self.order))

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
        while k > 0:
            if k & 1:
                result = self.mul_rows[result][base]
            base = self.mul_rows[base][base]
            k >>= 1
        return result

    # -- cached structural data ---------------------------------------

    def power_sequence(self, a: int) -> list[int]:
        """Powers a^1, a^2, ... up to (and excluding) the first repeat."""
        seq = self._power_seq.get(a)
        if seq is None:
            seq = []
            seen = set()
            p = a
            row = self.mul_rows
            while p not in seen:
                seen.add(p)
                seq.append(p)
                p = row[p][a]
            self._power_seq[a] = seq
        return seq

    def is_nilpotent(self, a: int) -> bool:
        return self.zero in self.power_sequence(a)

    @property
    def nil_mask(self) -> int:
        """Bitmask of the nilpotent elements (the nilradical as a set)."""
        if self._nil_mask is None:
            self._nil_mask = mask_of(a for a in range(self.order) if self.is_nilpotent(a))
        return self._nil_mask

    @property
    def nil_set(self) -> frozenset[int]:
        """The nilradical as a set: the accepted values of an N-purity scan."""
        if self._nil_set is None:
            self._nil_set = frozenset(bits(self.nil_mask))
        return self._nil_set

    @property
    def unit_mask(self) -> int:
        if self._unit_mask is None:
            one = self.one
            self._unit_mask = mask_of(
                a for a in range(self.order) if one in self.mul_rows[a]
            )
        return self._unit_mask

    @property
    def jacobson_mask(self) -> int:
        """Bitmask of {a : 1 - a*b is a unit for every b}.

        Element-level characterization of the intersection of all maximal
        ideals; available regardless of any lattice bound.
        """
        if self._jac_mask is None:
            units = self.unit_mask
            one = self.one
            neg = self.neg_of
            add = self.add_rows
            out = 0
            for a in range(self.order):
                row = self.mul_rows[a]
                if all((units >> add[one][neg[row[b]]]) & 1 for b in range(self.order)):
                    out |= 1 << a
            self._jac_mask = out
        return self._jac_mask

    def idempotents(self) -> list[int]:
        if self._idempotents is None:
            self._idempotents = [a for a in range(self.order) if self.mul_rows[a][a] == a]
        return self._idempotents

    def principal_mask(self, a: int) -> int:
        """Bitmask of the principal ideal R*a."""
        m = self._principal.get(a)
        if m is None:
            m = mask_of(self.mul_rows[r][a] for r in range(self.order))
            self._principal[a] = m
        return m

    def ann_mask(self, a: int) -> int:
        """Bitmask of {x : x*a = 0}."""
        m = self._ann_mask.get(a)
        if m is None:
            zero = self.zero
            row = self.mul_rows[a]
            m = mask_of(x for x in range(self.order) if row[x] == zero)
            self._ann_mask[a] = m
        return m

    def ann_stable(self, a: int) -> tuple[int, int]:
        """Smallest t with Ann(a^t) = Ann(a^(t+1)), and that stable mask.

        The annihilator chain Ann(a) <= Ann(a^2) <= ... stabilizes after at
        most log2(N) strict steps, and once two consecutive terms agree all
        later ones do; existential exponent searches only need the stable
        term.
        """
        cached = self._ann_stable.get(a)
        if cached is None:
            t = 1
            power = a
            mask = self.ann_mask(power)
            while True:
                power = self.mul_rows[power][a]
                nxt = self.ann_mask(power)
                if nxt == mask:
                    break
                mask = nxt
                t += 1
            cached = (t, mask)
            self._ann_stable[a] = cached
        return cached

    def additive_order(self, a: int) -> int:
        k = 1
        x = a
        row = self.add_rows
        while x != self.zero:
            x = row[x][a]
            k += 1
        return k

    # -- mask-level ideal helpers (used by builders and the ideal layer)

    def ideal_mask_closure(self, seed_mask: int) -> int:
        """Additive closure of a union of ideals (already an ideal then)."""
        members = list(bits(seed_mask))
        mask = seed_mask
        queue = list(members)
        add = self.add_rows
        while queue:
            x = queue.pop()
            row = add[x]
            for y in members[:]:
                s = row[y]
                if not (mask >> s) & 1:
                    mask |= 1 << s
                    members.append(s)
                    queue.append(s)
        return mask

    def ideal_mask_from_generators(self, gens: Iterable[int]) -> int:
        seed = 1 << self.zero
        for g in gens:
            gi = self._idx(g) if isinstance(g, Element) else g
            if not 0 <= gi < self.order:
                raise NotAnIdeal(f"generator {gi} out of range for order {self.order}")
            seed |= self.principal_mask(gi)
        return self.ideal_mask_closure(seed)

    def is_maximal_mask(self, ideal_mask: int) -> bool:
        """Field test on cosets: proper, and every element outside the ideal
        is invertible modulo it."""
        if (ideal_mask >> self.one) & 1:
            return False
        mul = self.mul_rows
        one = self.one
        neg = self.neg_of
        add = self.add_rows
        for a in range(self.order):
            if (ideal_mask >> a) & 1:
                continue
            row = mul[a]
            if not any((ideal_mask >> add[row[b]][neg[one]]) & 1 for b in range(self.order)):
                return False
        return True

    def localization_kernel_mask(self, prime_mask: int) -> int:
        """Bitmask of {a : s*a = 0 for some s outside the given prime}."""
        outside = [s for s in range(self.order) if not (prime_mask >> s) & 1]
        zero = self.zero
        mul = self.mul_rows
        out = 0
        for a in range(self.order):
            row = mul[a]
            if any(row[s] == zero for s in outside):
                out |= 1 << a
        return out

    def local_maximal_mask(self) -> int | None:
        """If the non-units form an ideal, return their mask (the unique
        maximal ideal); otherwise None.  A finite commutative ring is local
        exactly when this succeeds."""
        nonunits = ((1 << self.order) - 1) ^ self.unit_mask
        add = self.add_rows
        members = list(bits(nonunits))
        for x in members:
            row = add[x]
            for y in members:
                if not (nonunits >> row[y]) & 1:
                    return None
        return nonunits


# -- constructors -------------------------------------------------------


def _build_zmod(spec: specs.Zmod) -> FiniteRing:
    n = spec.n
    if n < 2:
        raise BadModulus(f"Z/{n} needs n >= 2")
    idx = np.arange(n)
    add = (idx[:, None] + idx[None, :]) % n
    mul = (idx[:, None] * idx[None, :]) % n
    return FiniteRing(add, mul, one=1, spec=spec)


def _build_polyquot(spec: specs.PolyQuot) -> FiniteRing:
    p = spec.p
    if not is_prime(p):
        raise BadModulus(f"GF({p}) needs a prime characteristic")
    coeffs = tuple(c % p for c in spec.coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    d = len(coeffs) - 1
    if d < 1 or coeffs[-1] != 1:
        raise NonMonic(f"modulus {specs.print_univariate(spec.coeffs, spec.var)} must be monic of degree >= 1")
    n = p**d

    def to_vec(i: int) -> list[int]:
        v = []
        for _ in range(d):
            i, r = divmod(i, p)
            v.append(r)
        return v

    def to_idx(v: list[int]) -> int:
        i = 0
        for c in reversed(v):
            i = i * p + c
        return i

    # x^k mod f for k = d .. 2d-2, as coefficient vectors
    reduction = {d: [(-coeffs[j]) % p for j in range(d)]}
    for k in range(d + 1, 2 * d - 1):
        prev = reduction[k - 1]
        shifted = [0] + prev[:-1]
        top = prev[-1]
        reduction[k] = [(shifted[j] + top * reduction[d][j]) % p for j in range(d)]

    vecs = [to_vec(i) for i in range(n)]
    add = np.zeros((n, n), dtype=np.int32)
    mul = np.zeros((n, n), dtype=np.int32)
    for i in range(n):
        vi = vecs[i]
        for j in range(i, n):
            vj = vecs[j]
            add[i, j] = add[j, i] = to_idx([(a + b) % p for a, b in zip(vi, vj)])
            raw = [0] * (2 * d - 1)
            for ai, a in enumerate(vi):
                if a:
                    for bi, b in enumerate(vj):
                        raw[ai + bi] = (raw[ai + bi] + a * b) % p
            vec = raw[:d]
            for k in range(2 * d - 2, d - 1, -1):
                c = raw[k]
                if c:
                    red = reduction[k]
                    vec = [(vec[t] + c * red[t]) % p for t in range(d)]
            mul[i, j] = mul[j, i] = to_idx(vec)
    return FiniteRing(add, mul, one=1, spec=specs.PolyQuot(p, coeffs, spec.var))


def _build_product(spec: specs.Product) -> FiniteRing:
    factors = [build(f) for f in spec.factors]
    add = np.zeros((1, 1), dtype=np.int64)
    mul = np.zeros((1, 1), dtype=np.int64)
    one = 0
    order = 1
    for f in factors:
        o = f.order
        add = add[:, None, :, None] * o + f.add_table[None, :, None, :]
        add = add.reshape(order * o, order * o)
        mul = mul[:, None, :, None] * o + f.mul_table[None, :, None, :]
        mul = mul.reshape(order * o, order * o)
        one = one * o + f.one
        order *= o
    return FiniteRing(add, mul, one=one, spec=spec)


def quotient_ring(inner: FiniteRing, ideal_mask: int, spec: specs.RingSpec) -> FiniteRing:
    """The ring of cosets modulo an ideal given as a bitmask."""
    if (ideal_mask >> inner.one) & 1:
        raise NotARing("quotient by the unit ideal is the zero ring")
    proj = quotient_projection(inner, ideal_mask)
    n = max(proj) + 1
    reps = [proj.index(k) for k in range(n)]
    qadd = np.zeros((n, n), dtype=np.int32)
    qmul = np.zeros((n, n), dtype=np.int32)
    add = inner.add_rows
    mul = inner.mul_rows
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            qadd[i, j] = proj[add[a][b]]
            qmul[i, j] = proj[mul[a][b]]
    return FiniteRing(qadd, qmul, one=proj[inner.one], spec=spec)


def quotient_projection(inner: FiniteRing, ideal_mask: int) -> list[int]:
    """Index map from inner elements to their cosets in quotient_ring."""
    ideal_elems = list(bits(ideal_mask))
    add = inner.add_rows
    rep = [min(add[a][i] for i in ideal_elems) for a in range(inner.order)]
    new_index = {r: k for k, r in enumerate(sorted(set(rep)))}
    return [new_index[r] for r in rep]


def _build_quotient(spec: specs.Quotient) -> FiniteRing:
    inner = build(spec.inner)
    mask = inner.ideal_mask_from_generators(spec.gens)
    return quotient_ring(inner, mask, spec)


def _build_localize(spec: specs.LocalizeAt) -> FiniteRing:
    inner = build(spec.inner)
    mask = inner.ideal_mask_from_generators(spec.gens)
    return localize_at_mask(inner, mask, spec)


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


def _build_table(spec: specs.TableSpec) -> FiniteRing:
    try:
        with open(spec.path, "r", encoding="utf-8") as fh:
            tokens = fh.read().split()
    except OSError as exc:
        raise ParseError(f"cannot read table file {spec.path}: {exc}") from exc
    try:
        values = [int(t) for t in tokens]
    except ValueError as exc:
        raise ParseError(f"table file {spec.path} contains a non-integer token") from exc
    if not values:
        raise ParseError(f"table file {spec.path} is empty")
    n = values[0]
    if n < 2 or len(values) != 1 + 2 * n * n:
        raise ParseError(
            f"table file {spec.path}: expected 1 + 2*N^2 integers for N={n}, got {len(values)}"
        )
    body = np.asarray(values[1:], dtype=np.int32)
    add = body[: n * n].reshape(n, n)
    mul = body[n * n :].reshape(n, n)
    return FiniteRing(add, mul, one=1, spec=spec, zero=0)


def build(spec: specs.RingSpec) -> FiniteRing:
    """Construct and validate the finite ring denoted by a RingSpec."""
    if isinstance(spec, specs.Zmod):
        return _build_zmod(spec)
    if isinstance(spec, specs.PolyQuot):
        return _build_polyquot(spec)
    if isinstance(spec, specs.Product):
        return _build_product(spec)
    if isinstance(spec, specs.Quotient):
        return _build_quotient(spec)
    if isinstance(spec, specs.LocalizeAt):
        return _build_localize(spec)
    if isinstance(spec, specs.TableSpec):
        return _build_table(spec)
    raise TypeError(f"not a RingSpec: {spec!r}")


# -- set-valued element scans -------------------------------------------


def special_elements(ring: FiniteRing, kind: str) -> frozenset[int]:
    """Exhaustive scan for units / idempotents / nilpotents / zero_divisors."""
    n = ring.order
    if kind == "units":
        return frozenset(bits(ring.unit_mask))
    if kind == "idempotents":
        return frozenset(ring.idempotents())
    if kind == "nilpotents":
        return frozenset(bits(ring.nil_mask))
    if kind == "zero_divisors":
        zero = ring.zero
        out = set()
        for a in range(n):
            if a == zero:
                continue
            row = ring.mul_rows[a]
            if any(row[b] == zero for b in range(n) if b != zero):
                out.add(a)
        return frozenset(out)
    raise ValueError(f"unknown kind {kind!r}")


def total_quotient_ring(ring: FiniteRing) -> FiniteRing:
    """Fractions by non-zero-divisors: in a finite ring every
    non-zero-divisor is already a unit, so this is the ring itself."""
    return ring


# -- isomorphism search --------------------------------------------------


def _profile(ring: FiniteRing, a: int) -> tuple:
    return (
        ring.additive_order(a),
        ring.is_nilpotent(a),
        ring.mul_rows[a][a] == a,
        (ring.unit_mask >> a) & 1,
        len(ring.power_sequence(a)),
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

    def assign(a: int, b: int) -> list[int] | None:
        trail = [a]
        phi[a] = b
        used[b] = True
        if propagate(trail):
            return trail
        for t in trail:
            used[phi[t]] = False
            phi[t] = -1
        return None

    def undo(trail: list[int]) -> None:
        for t in trail:
            used[phi[t]] = False
            phi[t] = -1

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
