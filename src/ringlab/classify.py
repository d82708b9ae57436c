"""Property deciders for finite commutative rings, one per characterization.

Every ring-theoretic property handled here (pure / N-pure ideals,
reduced, semiprimitive, NJ, von Neumann regular, zero-dimensional, mp,
mid, primary, p.f., Gpf, p.p.) is decided by a family of independent
routines, each implementing a different equivalent characterization.
All routines return a Verdict carrying a re-checkable witness; the
harness cross-validates the families and treats any disagreement as a
build-failing event.

Most ring-level routes are rows ``_row(method, family, test)`` of
PROPERTY_METHODS: one loop applies the test to each member of the family
(ideals, annihilators, primes with their kernels and localizations) and
reports the first failure; a RingContext decides each route once.  The
theorem checks are the ordered table THEOREM_CHECKS of ``(check, bound,
requires, body)`` rows; a body returns None for a pass, a detail dict for
a failure or a skip reason.

An ideal I is *pure* when each a in I has b in I with a(1-b) = 0, and
*N-pure* when a(1-b) only needs to be nilpotent.  The eight N-purity
routes:

    def             nilpotent-complement witness per element
    witness_power   a^n(1-b) = 0 for some n >= 1
    ann_complement  Ann(a^t) + I = R for some t
    radical_formula {a : exists n, Ann(a^n)+I = R} equals radical(I)
    radical_npure   radical(I) passes the def scan
    pure_core       exactly one pure ideal shares I's radical
    mod_nil         the image of I in R/nilradical is pure
    finite_subset   simultaneous witness for every subset of size <= 3

Existential exponent searches are bounded by annihilator-chain
stabilization (at most log2 N strict steps), which is sound for finite
rings.  Witness tie-breaking always picks the lexicographically smallest
(a, b, n), so reports are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from itertools import combinations
from operator import and_, attrgetter
from typing import Callable, Iterable, NamedTuple

from . import specs
from .bounds import DEFAULT_PAIR_CHECK_BOUND, Bounds
from .errors import OrderTooLarge
from .ideals import (
    Ideal,
    _purity_scan,
    all_ideals,
    ideal_intersection,
    ideal_product,
    ideal_sum,
    is_primary_ideal,
    jacobson_radical,
    nilradical,
    power_intersection_hypothesis,
    radical,
    zero_ideal,
)
from .rings import (
    FiniteRing,
    _mask_sum,
    bits,
    localize_at_mask,
    mask_of,
    quotient_projection,
    quotient_ring,
)
from .spectra import PureSpectrum, Spectrum, pure_ideals, pure_spectrum, spectrum, vanishing_set


@dataclass
class Verdict:
    """Outcome of one characterization: value, re-checkable witness, method id."""

    method: str
    value: bool
    witness: dict | None = None
    sampled: bool = False


@dataclass
class Skipped:
    method: str
    reason: str


MethodResult = Verdict | Skipped


@dataclass
class PropertyResult:
    name: str
    results: list[MethodResult]

    @property
    def verdicts(self) -> list[Verdict]:
        return [r for r in self.results if isinstance(r, Verdict)]

    @property
    def consistent(self) -> bool:
        return len({v.value for v in self.verdicts}) <= 1

    @property
    def value(self) -> bool | None:
        vs = self.verdicts
        if not vs or not self.consistent:
            return None
        return vs[0].value

    @property
    def sampled(self) -> bool:
        return any(v.sampled for v in self.verdicts)


@dataclass
class IdealClassification:
    ideal: Ideal
    pure: Verdict
    npure: PropertyResult


@dataclass
class TheoremCheck:
    check: str
    status: str  # pass | fail | skipped
    detail: dict | None = None


@dataclass
class PropertyReport:
    ring: FiniteRing
    properties: dict[str, PropertyResult]
    ideal_results: list[IdealClassification] = field(default_factory=list)
    ideals_sampled: bool = False
    theorem_checks: list[TheoremCheck] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return all(p.consistent for p in self.properties.values()) and all(
            ic.npure.consistent for ic in self.ideal_results
        )


class RingContext:
    """Per-ring owner of every derived structure and ring-level verdict.

    Lattice, spectrum, pure ideals, pure spectrum, pure cores (radical mask
    -> the pure ideals with that radical), reduction, Jacobson radical and
    ideal universe are cached properties.  The lattice is enumerated here
    only, and the spectrum, pure ideals and Jacobson radical derive from it.
    Kernels and localizations are kept per prime, and verdict(method)
    decides each ring-level route once for every reader.
    """

    def __init__(self, ring: FiniteRing, bounds: Bounds | None = None):
        self.ring = ring
        self.bounds = bounds or Bounds()
        if ring.order > self.bounds.element:
            raise OrderTooLarge(
                f"order {ring.order} exceeds element bound {self.bounds.element}"
            )
        self._kernels: dict[int, Ideal] = {}
        self._localizations: dict[int, FiniteRing] = {}
        self._verdicts: dict[str, Verdict] = {}

    @cached_property
    def lattice(self) -> list[Ideal]:
        return all_ideals(self.ring, self.bounds.lattice)

    @cached_property
    def spectrum(self) -> Spectrum:
        return spectrum(self.lattice)

    @cached_property
    def pure_list(self) -> list[Ideal]:
        return pure_ideals(self.lattice)

    @cached_property
    def pure_spectrum(self) -> PureSpectrum:
        if self.ring.order > self.bounds.spp:
            raise OrderTooLarge(
                f"order {self.ring.order} exceeds pure-spectrum bound {self.bounds.spp}"
            )
        return pure_spectrum(self.lattice, self.pure_list)

    @cached_property
    def pure_cores(self) -> dict[int, list[Ideal]]:
        """Radical mask -> the pure ideals with that radical, in pure_list order."""
        cores: dict[int, list[Ideal]] = {}
        for j in self.pure_list:
            cores.setdefault(radical(j).mask, []).append(j)
        return cores

    def kernel(self, p: Ideal) -> Ideal:
        got = self._kernels.get(p.mask)
        if got is None:
            got = Ideal(self.ring, self.ring.localization_kernel_mask(p.mask))
            self._kernels[p.mask] = got
        return got

    def localization(self, p: Ideal) -> FiniteRing:
        """R_p, the quotient by the kernel at p; the ring itself when that
        kernel is zero (R is then local, with maximal ideal p)."""
        got = self._localizations.get(p.mask)
        if got is None:
            ring = self.ring
            if ring.localization_kernel_mask(p.mask) == 1 << ring.zero:
                got = ring
            else:
                spec = specs.LocalizeAt(ring.spec, p.generators())
                got = localize_at_mask(ring, p.mask, spec)
            self._localizations[p.mask] = got
        return got

    @cached_property
    def reduction(self) -> tuple[FiniteRing, list[int]]:
        """The quotient by the nilradical and the projection index map; the
        ring itself and the identity map when the nilradical is zero."""
        nil = nilradical(self.ring)
        if nil.is_zero:
            # the quotient by zero has the same tables: keep the ring
            return self.ring, list(range(self.ring.order))
        spec = specs.Quotient(self.ring.spec, nil.generators())
        return quotient_ring(self.ring, nil.mask, spec), quotient_projection(self.ring, nil.mask)

    @cached_property
    def jacobson(self) -> Ideal:
        if self.ring.order <= self.bounds.lattice:
            return jacobson_radical(self.ring, self.spectrum.maximal)
        return Ideal(self.ring, self.ring.jacobson_mask)

    @cached_property
    def ideal_universe(self) -> tuple[list[Ideal], bool]:
        """Full lattice within the bound; above it a deterministic sample:
        principal ideals, the nil and Jacobson radicals, and pairwise sums
        of distinct principal ideals."""
        ring = self.ring
        if ring.order <= self.bounds.lattice:
            return self.lattice, False
        masks = {1 << ring.zero, ring.nil_mask, self.jacobson.mask}
        principals = sorted(set(ring.principal_masks))
        masks.update(principals)
        for x, i in enumerate(principals):
            for j in principals[x + 1 :]:
                masks.add(_mask_sum(ring, i, j))
        ideals = [Ideal(ring, m) for m in sorted(masks, key=lambda m: (m.bit_count(), m))]
        return ideals, True

    def verdict(self, method: str) -> Verdict:
        """The verdict of the named ring-level route, decided at most once.  The
        route is looked up in PROPERTY_METHODS then, so a route replaced there
        is the one that runs; OrderTooLarge propagates and is not kept."""
        got = self._verdicts.get(method)
        if got is None:
            route = next(fn for routes in PROPERTY_METHODS.values()
                         for name, fn in routes if name == method)
            got = self._verdicts[method] = route(self)
        return got


# -- shared helpers ------------------------------------------------------


def _is_pure(ring: FiniteRing, mask: int) -> bool:
    return _purity_scan(ring, mask, nil=False)[0]


def _is_npure(ring: FiniteRing, mask: int) -> bool:
    return _purity_scan(ring, mask, nil=True)[0]


def _mask_sum_has_one(ring: FiniteRing, m1: int, m2: int) -> tuple[bool, tuple[int, int] | None]:
    """1 in I+J iff some u in I has 1-u in J (the sum set is the sum ideal);
    the pair names the smallest such u."""
    hits = m1 & ring.one_minus_image(m2)
    if not hits:
        return False, None
    u = (hits & -hits).bit_length() - 1
    return True, (u, ring.one_minus[u])


def _min_power_killing(ring: FiniteRing, a: int, c: int) -> int:
    """Smallest n with a^n * c = 0; caller guarantees one exists."""
    zero = ring.zero
    mul = ring.mul_rows
    power = a
    n = 1
    while mul[power][c] != zero:
        power = mul[power][a]
        n += 1
    return n


# -- purity deciders -----------------------------------------------------


def _scan_verdict(method: str, ring: FiniteRing, mask: int, nil: bool, **named) -> Verdict:
    """A purity scan as a verdict: the choices on a pass, the failing element
    otherwise, next to the named sets."""
    ok, data = _purity_scan(ring, mask, nil)
    return Verdict(method, ok, {**named, "choices" if ok else "element": data})


def is_pure(ideal: Ideal) -> Verdict:
    return _scan_verdict("element_witness", ideal.ring, ideal.mask, nil=False)


def _npure_def(ctx: RingContext, ideal: Ideal) -> Verdict:
    return _scan_verdict("def", ctx.ring, ideal.mask, nil=True)


def _npure_witness_power(ctx: RingContext, ideal: Ideal) -> Verdict:
    ring = ctx.ring
    one_minus = ring.one_minus
    choices = []
    for a in ideal.elems:
        _, stable = ring.ann_stable[a]
        b = next((b for b in ideal.elems if (stable >> one_minus[b]) & 1), None)
        if b is None:
            return Verdict("witness_power", False, {"element": a})
        choices.append([a, b, _min_power_killing(ring, a, one_minus[b])])
    return Verdict("witness_power", True, {"choices": choices})


def _npure_ann_complement(ctx: RingContext, ideal: Ideal) -> Verdict:
    ring = ctx.ring
    choices = []
    for a in ideal.elems:
        t_max, _ = ring.ann_stable[a]
        power = a
        for t in range(1, t_max + 1):
            ok, pair = _mask_sum_has_one(ring, ring.ann_masks[power], ideal.mask)
            if ok:
                choices.append([a, t, *pair])
                break
            power = ring.mul_rows[power][a]
        else:
            return Verdict("ann_complement", False, {"element": a})
    return Verdict(
        "ann_complement", True, {"choices": choices, "fields": ["a", "t", "u", "v"]}
    )


def _radical_formula_mask(ctx: RingContext, ideal: Ideal) -> int:
    """{a in R : exists n >= 1 with Ann(a^n) + I = R} as a bitmask."""
    ring = ctx.ring
    return mask_of(
        a
        for a, (_, stable) in enumerate(ring.ann_stable)
        if _mask_sum_has_one(ring, stable, ideal.mask)[0]
    )


def _npure_radical_formula(ctx: RingContext, ideal: Ideal) -> Verdict:
    formula = _radical_formula_mask(ctx, ideal)
    rad = radical(ideal).mask
    if formula == rad:
        return Verdict("radical_formula", True, {"radical": list(bits(rad))})
    diff = formula ^ rad
    elem = next(bits(diff))
    side = "formula_only" if (formula >> elem) & 1 else "radical_only"
    return Verdict("radical_formula", False, {"element": elem, "side": side})


def _npure_radical_npure(ctx: RingContext, ideal: Ideal) -> Verdict:
    rad = radical(ideal)
    return _scan_verdict(
        "radical_npure", ctx.ring, rad.mask, nil=True, radical=list(rad.elems)
    )


def _npure_pure_core(ctx: RingContext, ideal: Ideal) -> Verdict:
    matches = ctx.pure_cores.get(radical(ideal).mask, [])
    if len(matches) == 1:
        return Verdict("pure_core", True, {"core": list(matches[0].elems)})
    return Verdict(
        "pure_core",
        False,
        {"match_count": len(matches), "matches": [list(j.elems) for j in matches]},
    )


def _npure_mod_nil(ctx: RingContext, ideal: Ideal) -> Verdict:
    reduced, proj = ctx.reduction
    image = mask_of(proj[a] for a in ideal.elems)
    return _scan_verdict("mod_nil", reduced, image, nil=False, image=list(bits(image)))


def _npure_finite_subset(ctx: RingContext, ideal: Ideal) -> Verdict:
    ring = ctx.ring
    elems = ideal.elems
    # the b whose 1 - b lies in every Ann(a^oo): each kills every a of the set
    killed_by_all = reduce(and_, (ring.ann_stable[a][1] for a in elems), (1 << ring.order) - 1)
    common = ideal.mask & ring.one_minus_image(killed_by_all)
    if common:
        b = (common & -common).bit_length() - 1
        c = ring.one_minus[b]
        t = max(_min_power_killing(ring, a, c) for a in elems)
        return Verdict("finite_subset", True, {"uniform": [b, t]})
    # no single witness covers the whole ideal: check all subsets of size <= 3
    k = len(elems)
    complements = [ring.one_minus[b] for b in elems]
    ok_masks = [
        mask_of(bi for bi, c in enumerate(complements) if (ring.ann_stable[a][1] >> c) & 1)
        for a in elems
    ]
    for size in (1, 2, 3):
        for combo in combinations(range(k), size):
            if not reduce(and_, (ok_masks[ai] for ai in combo)):
                return Verdict(
                    "finite_subset", False, {"subset": [elems[ai] for ai in combo]}
                )
    return Verdict("finite_subset", True, {"subset_bound": 3})


NPURE_METHODS: dict[str, callable] = {
    "def": _npure_def,
    "witness_power": _npure_witness_power,
    "ann_complement": _npure_ann_complement,
    "radical_formula": _npure_radical_formula,
    "radical_npure": _npure_radical_npure,
    "pure_core": _npure_pure_core,
    "mod_nil": _npure_mod_nil,
    "finite_subset": _npure_finite_subset,
}


def is_npure(ideal: Ideal, method: str = "def", ctx: RingContext | None = None) -> Verdict:
    """Decide N-purity of an ideal by the named characterization."""
    if method not in NPURE_METHODS:
        raise ValueError(f"unknown N-purity method {method!r}")
    ctx = ctx or RingContext(ideal.ring)
    return NPURE_METHODS[method](ctx, ideal)


def classify_ideal(ctx: RingContext, ideal: Ideal) -> IdealClassification:
    """Run the purity test and the full N-purity battery on one ideal."""
    results: list[MethodResult] = []
    for name, fn in NPURE_METHODS.items():
        try:
            results.append(fn(ctx, ideal))
        except OrderTooLarge as exc:
            results.append(Skipped(name, str(exc)))
    return IdealClassification(ideal, is_pure(ideal), PropertyResult("npure", results))


# -- route families ------------------------------------------------------


class Family(NamedTuple):
    """What a family route quantifies over: members(ctx) yields (member,
    subject) pairs, witness(member, subject, detail) names a failing one, and
    summary(ctx) gives the witness of a pass and whether the family is a sample.
    """

    members: Callable[[RingContext], Iterable[tuple]]
    witness: Callable[[object, object, dict], dict]
    summary: Callable[[RingContext], tuple[dict | None, bool]] = lambda ctx: (None, False)


def _named_ideal(i: Ideal, subject, detail: dict) -> dict:
    return {"ideal": list(i.elems), **detail}


def _spectrum_family(which: str, view: Callable, witness=_named_ideal) -> Family:
    """Members of one spectrum list ("primes", "minimal" or "maximal"),
    each with view(ctx, prime) as its subject."""
    return Family(
        lambda ctx: ((p, view(ctx, p)) for p in getattr(ctx.spectrum, which)), witness
    )


def _kernel_mask(ctx: RingContext, p: Ideal) -> int:
    return ctx.kernel(p).mask


def _kernel_witness(p: Ideal, kernel: int, detail: dict) -> dict:
    return {"ideal": list(p.elems), "kernel": list(bits(kernel)), **detail}


UNIVERSE = Family(
    lambda ctx: ((i, i.mask) for i in ctx.ideal_universe[0]),
    _named_ideal,
    lambda ctx: ({"ideals_checked": len(ctx.ideal_universe[0])}, ctx.ideal_universe[1]),
)
LATTICE = Family(lambda ctx: ((i, i.mask) for i in ctx.lattice), _named_ideal)
PRINCIPAL = Family(
    lambda ctx: enumerate(ctx.ring.principal_masks),
    lambda a, mask, detail: {"generator": a, **detail},
)
ANNIHILATORS = Family(
    lambda ctx: enumerate(ctx.ring.ann_masks),
    lambda a, mask, detail: {"element": a, "ann_element": detail["element"]},
)
# the same members, with each failing annihilator listed in the witness
ANNIHILATOR_SETS = ANNIHILATORS._replace(
    witness=lambda a, mask, detail: {
        "element": a, "ann": list(bits(mask)), "ann_element": detail["element"]
    }
)
JACOBSON = Family(
    lambda ctx: [(ctx.jacobson, ctx.jacobson.mask)],
    lambda jac, mask, detail: {"jacobson": list(jac.elems), **detail},
    lambda ctx: ({"jacobson": list(ctx.jacobson.elems)}, False),
)
PRIMES = _spectrum_family("primes", lambda ctx, p: p.mask)
MINIMAL = _spectrum_family("minimal", lambda ctx, p: p.mask)
MAXIMAL = _spectrum_family("maximal", lambda ctx, p: p.mask)
KERNELS_AT_PRIMES = _spectrum_family("primes", _kernel_mask, _kernel_witness)
KERNELS_AT_MINIMALS = _spectrum_family("minimal", _kernel_mask, _kernel_witness)
LOCAL_AT_PRIMES = _spectrum_family("primes", lambda ctx, p: ctx.localization(p))
LOCAL_AT_MAXIMALS = _spectrum_family("maximal", lambda ctx, p: ctx.localization(p))


def _row(method: str, family: Family, test) -> tuple[str, Callable[[RingContext], Verdict]]:
    """The route that applies a test to every member of a family."""

    def route(ctx: RingContext) -> Verdict:
        passed, sampled = family.summary(ctx)
        for member, subject in family.members(ctx):
            detail = test(ctx, member, subject)
            if detail is not None:
                return Verdict(method, False, family.witness(member, subject, detail), sampled)
        return Verdict(method, True, passed, sampled)

    return method, route


# -- route tests: (ctx, member, subject) -> None on a pass, else detail ----


def _pure(ctx: RingContext, member, mask: int) -> dict | None:
    ok, data = _purity_scan(ctx.ring, mask, nil=False)
    return None if ok else {"element": data}


def _npure(ctx: RingContext, member, mask: int) -> dict | None:
    ok, data = _purity_scan(ctx.ring, mask, nil=True)
    return None if ok else {"element": data}


def _scans_agree(ctx: RingContext, ideal: Ideal, mask: int) -> dict | None:
    np_ok = _is_npure(ctx.ring, mask)
    p_ok = _is_pure(ctx.ring, mask)
    return None if np_ok == p_ok else {"npure": np_ok, "pure": p_ok}


def _kernel_is_prime(ctx: RingContext, p: Ideal, mask: int) -> dict | None:
    k = ctx.kernel(p)
    return None if k.mask == p.mask else {"kernel": list(k.elems)}


def _kernel_radical_is_prime(ctx: RingContext, p: Ideal, mask: int) -> dict | None:
    rad = radical(ctx.kernel(p))
    return None if rad.mask == p.mask else {"kernel_radical": list(rad.elems)}


def _primary_pair(ideal: Ideal, key: str) -> dict | None:
    """None for a primary ideal, else its failing pair under the given key."""
    res = is_primary_ideal(ideal)
    return None if res.value else {key: list(res.witness)}


def _kernel_primary(ctx: RingContext, p: Ideal, mask: int) -> dict | None:
    return _primary_pair(ctx.kernel(p), "pair")


def _one_minimal_below(ctx: RingContext, p: Ideal, mask: int) -> dict | None:
    below = [q for q in ctx.spectrum.minimal if p.contains_ideal(q)]
    return None if len(below) == 1 else {"minimal_below": [list(q.elems) for q in below]}


def _local_semiprimitive(ctx: RingContext, p: Ideal, loc: FiniteRing) -> dict | None:
    if loc.jacobson_mask == 1 << loc.zero:
        return None
    return {"local_jacobson": list(bits(loc.jacobson_mask))}


def _local_nj(ctx: RingContext, p: Ideal, loc: FiniteRing) -> dict | None:
    if loc.nil_mask == loc.jacobson_mask:
        return None
    return {
        "local_nil": list(bits(loc.nil_mask)),
        "local_jacobson": list(bits(loc.jacobson_mask)),
    }


def _local_primary(ctx: RingContext, p: Ideal, loc: FiniteRing) -> dict | None:
    return _primary_pair(zero_ideal(loc), "local_pair")


# -- ring-level deciders outside the families ------------------------------


def _choice_route(method: str, choose: Callable[[FiniteRing, int], int | None],
                  named=lambda ring, a: {}):
    """For every element a, choose(ring, a) finds its smallest witness, or None
    when there is none; named(ring, a) adds to the witness of a failure."""

    def route(ctx: RingContext) -> Verdict:
        ring = ctx.ring
        choices = []
        for a in range(ring.order):
            found = choose(ring, a)
            if found is None:
                return Verdict(method, False, {"element": a, **named(ring, a)})
            choices.append([a, found])
        return Verdict(method, True, {"choices": choices})

    return method, route


def _square_factor(ring: FiniteRing, a: int) -> int | None:
    """The smallest b with a = a^2 b."""
    row = ring.mul_rows[ring.mul_rows[a][a]]
    return row.index(a) if a in row else None


def _pure_annihilator_power(ring: FiniteRing, a: int) -> int | None:
    """The smallest n with Ann(a^n) pure."""
    power = a
    for n in range(1, ring.ann_stable[a][0] + 1):
        if _is_pure(ring, ring.ann_masks[power]):
            return n
        power = ring.mul_rows[power][a]
    return None


def _idempotent_generator(ring: FiniteRing, a: int) -> int | None:
    """The smallest idempotent e with Re = Ann(a)."""
    ann = ring.ann_masks[a]
    return next((e for e in ring.idempotents if ring.principal_masks[e] == ann), None)


def _spectra_difference(ctx: RingContext) -> dict | None:
    """None when Spec = Spp, else both lists."""
    spp_masks = sorted(p.mask for p in ctx.pure_spectrum.members)
    spec_masks = sorted(p.mask for p in ctx.spectrum.primes)
    if spec_masks == spp_masks:
        return None
    return {
        "spectrum": [list(bits(m)) for m in spec_masks],
        "pure_spectrum": [list(bits(m)) for m in spp_masks],
    }


def _nested_route(method: str, differ: Callable[[RingContext, Ideal, Ideal], bool]):
    """No primes p <= q (p = q included) for which differ(ctx, p, q) holds."""

    def route(ctx: RingContext) -> Verdict:
        primes = ctx.spectrum.primes
        for p in primes:
            for q in primes:
                if q.contains_ideal(p) and differ(ctx, p, q):
                    return Verdict(
                        method, False, {"lower": list(p.elems), "upper": list(q.elems)}
                    )
        return Verdict(method, True)

    return method, route


def _zero_divisor_pairs(ring: FiniteRing):
    nonzero = ~(1 << ring.zero)
    for a, ann in enumerate(ring.ann_masks):
        if a != ring.zero:
            for b in bits(ann & nonzero):
                yield a, b


def _cover_route(method: str, both_powers: bool):
    """ab = 0 implies Ann(a^n) + Ann(b^n) = R for some shared n (both_powers),
    or Ann(a) + Ann(b^n) = R for some n."""

    def route(ctx: RingContext) -> Verdict:
        ring = ctx.ring
        mul = ring.mul_rows
        for a, b in _zero_divisor_pairs(ring):
            if both_powers and b < a:
                continue  # symmetric condition
            t = ring.ann_stable[b][0]
            if both_powers:
                t = max(ring.ann_stable[a][0], t)
            pa, pb = a, b
            for _ in range(t):
                if _mask_sum_has_one(ring, ring.ann_masks[pa], ring.ann_masks[pb])[0]:
                    break
                if both_powers:
                    pa = mul[pa][a]
                pb = mul[pb][b]
            else:
                return Verdict(method, False, {"pair": [a, b]})
        return Verdict(method, True)

    return method, route


def _npure_primes_difference(ctx: RingContext) -> dict | None:
    """None when the N-pure primes are exactly the minimal ones.

    N-pure forces minimal unconditionally; minimal forces N-pure under the
    unique-minimal condition, so this is the necessary side of the mid
    characterization."""
    got = {p.mask for p in npure_primes(ctx)}
    want = {p.mask for p in ctx.spectrum.minimal}
    if got == want:
        return None
    return {"difference": [list(bits(m)) for m in sorted(got ^ want)]}


def _ring_route(method: str, check: Callable[[RingContext], dict | None]):
    """A route on the whole ring: check(ctx) is None or the failure witness."""

    def route(ctx: RingContext) -> Verdict:
        failure = check(ctx)
        return Verdict(method, failure is None, failure)

    return method, route


def _set_difference(left: int, right: int) -> dict | None:
    """None when two element sets coincide, else the smallest element of one only."""
    return None if left == right else {"element": next(bits(left ^ right))}


def _pp_composite(method: str, part: str, decide: str):
    """p.p. as the named route plus a regular total quotient ring; Q(R) = R
    for finite rings, so the regularity is decided on R itself."""

    def route(ctx: RingContext) -> Verdict:
        inner = ctx.verdict(decide)
        vnr = ctx.verdict("square_witness")
        witness = {part: inner.value, "fractions_vnr": vnr.value}
        if not inner.value:
            witness[f"{part}_witness"] = inner.witness
        if not vnr.value:
            witness["vnr_witness"] = vnr.witness
        return Verdict(method, inner.value and vnr.value, witness)

    return method, route


PROPERTY_METHODS: dict[str, list[tuple[str, callable]]] = {
    "reduced": [
        _ring_route(
            "no_nilpotents", lambda ctx: _set_difference(ctx.ring.nil_mask, 1 << ctx.ring.zero)
        ),
        _row("npure_equals_pure_ideals", LATTICE, _scans_agree),
    ],
    "semiprimitive": [
        _ring_route(
            "zero_jacobson", lambda ctx: _set_difference(ctx.jacobson.mask, 1 << ctx.ring.zero)
        ),
        _row("jacobson_pure", JACOBSON, _pure),
    ],
    "nj_ring": [
        _ring_route(
            "nil_equals_jacobson",
            lambda ctx: _set_difference(ctx.jacobson.mask, ctx.ring.nil_mask),
        ),
        _row("jacobson_npure", JACOBSON, _npure),
    ],
    "von_neumann_regular": [
        _choice_route("square_witness", _square_factor),
        _row("all_ideals_pure", UNIVERSE, _pure),
        _row("principal_ideals_pure", PRINCIPAL, _pure),
        _row("maximal_ideals_pure", MAXIMAL, _pure),
        _row("kernel_equals_maximal", MAXIMAL, _kernel_is_prime),
        _row("localizations_semiprimitive", LOCAL_AT_PRIMES, _local_semiprimitive),
        _ring_route("spectrum_equals_pure_spectrum", _spectra_difference),
    ],
    "zero_dimensional": [
        _nested_route("no_prime_chain", lambda ctx, p, q: p.mask != q.mask),
        _row("all_ideals_npure", UNIVERSE, _npure),
        _row("principal_ideals_npure", PRINCIPAL, _npure),
        _row("maximal_ideals_npure", MAXIMAL, _npure),
        _row("kernel_radical_equals_maximal", MAXIMAL, _kernel_radical_is_prime),
        _row("localizations_nj_at_primes", LOCAL_AT_PRIMES, _local_nj),
        _row("localizations_nj_at_maximals", LOCAL_AT_MAXIMALS, _local_nj),
    ],
    "mp_ring": [
        _row("unique_minimal_below", PRIMES, _one_minimal_below),
        _cover_route("zero_divisor_power_cover", both_powers=True),
        _row("minimal_primes_npure", MINIMAL, _npure),
        _row("minimal_kernels_npure", KERNELS_AT_MINIMALS, _npure),
        _row("all_kernels_npure", KERNELS_AT_PRIMES, _npure),
    ],
    "mid_ring": [
        _row("annihilators_npure", ANNIHILATORS, _npure),
        _cover_route("zero_divisor_mixed_cover", both_powers=False),
        _row("localizations_primary_at_primes", LOCAL_AT_PRIMES, _local_primary),
        _row("localizations_primary_at_maximals", LOCAL_AT_MAXIMALS, _local_primary),
        _row("kernels_pure_at_primes", KERNELS_AT_PRIMES, _pure),
        _row("kernels_pure_at_minimals", KERNELS_AT_MINIMALS, _pure),
        _nested_route(
            "kernels_equal_when_nested",
            lambda ctx, p, q: ctx.kernel(p).mask != ctx.kernel(q).mask,
        ),
        _row("kernels_primary_at_primes", PRIMES, _kernel_primary),
        _row("kernels_primary_at_maximals", MAXIMAL, _kernel_primary),
        _ring_route("minimal_primes_exactly_npure", _npure_primes_difference),
    ],
    "primary_ring": [
        _ring_route("zero_ideal_primary", lambda ctx: _primary_pair(zero_ideal(ctx.ring), "pair"))
    ],
    "pf_ring": [_row("annihilators_pure", ANNIHILATOR_SETS, _pure)],
    "gpf_ring": [_choice_route("annihilator_power_pure", _pure_annihilator_power)],
    "pp_ring": [
        _choice_route(
            "annihilators_idempotent_generated",
            _idempotent_generator,
            lambda ring, a: {"ann": list(bits(ring.ann_masks[a]))},
        ),
        _pp_composite("mid_and_fractions_vnr", "mid", "annihilators_npure"),
        _pp_composite("gpf_and_fractions_vnr", "gpf", "annihilator_power_pure"),
    ],
}

PROPERTY_ORDER = list(PROPERTY_METHODS)

PROPERTY_ALIASES = {
    "vnr": "von_neumann_regular",
    "mid": "mid_ring",
    "mp": "mp_ring",
    "pf": "pf_ring",
    "gpf": "gpf_ring",
    "pp": "pp_ring",
    "nj": "nj_ring",
    "primary": "primary_ring",
    "zero_dim": "zero_dimensional",
    "zerodim": "zero_dimensional",
}


def canonical_property(name: str) -> str:
    name = name.strip().lower()
    name = PROPERTY_ALIASES.get(name, name)
    if name not in PROPERTY_METHODS:
        raise ValueError(f"unknown property {name!r}")
    return name


def classify_property(ctx: RingContext, name: str) -> PropertyResult:
    name = canonical_property(name)
    results: list[MethodResult] = []
    for method, _ in PROPERTY_METHODS[name]:
        try:
            results.append(ctx.verdict(method))
        except OrderTooLarge as exc:
            results.append(Skipped(method, str(exc)))
    return PropertyResult(name, results)


def ring_class(ring: FiniteRing, prop: str, method: str | None = None,
               bounds: Bounds | None = None) -> MethodResult | PropertyResult:
    """Decide one property, either by a single named method or by all."""
    ctx = RingContext(ring, bounds)
    result = classify_property(ctx, prop)
    if method is None:
        return result
    for r in result.results:
        if r.method == method:
            return r
    raise ValueError(f"unknown method {method!r} for property {prop!r}")


def npure_primes(ctx: RingContext) -> list[Ideal]:
    """Primes passing the N-purity def scan, sorted by mask."""
    return sorted(
        (p for p in ctx.spectrum.primes if _is_npure(ctx.ring, p.mask)),
        key=lambda p: p.mask,
    )


# -- theorem-level checks: (ctx, properties) -> None | detail | skip reason --


def _agreed(report: dict[str, PropertyResult], name: str) -> bool | None:
    res = report.get(name)
    return None if res is None else res.value


def _mid_verdict(ctx: RingContext, ring: FiniteRing) -> Verdict:
    """The annihilators_npure verdict of a ring derived from ctx's ring; that
    ring itself (a local ring, or R/(0)) reads ctx's verdict."""
    sub = ctx if ring is ctx.ring else RingContext(ring, ctx.bounds)
    return sub.verdict("annihilators_npure")


def _pure_ideals_npure(ctx: RingContext, props) -> dict | None:
    """Every pure ideal is N-pure; so are its radical and the nilradical."""
    ring = ctx.ring
    for i in ctx.pure_list:
        if not _is_npure(ring, i.mask):
            return {"ideal": list(i.elems)}
        if not _is_npure(ring, radical(i).mask):
            return {"ideal": list(i.elems), "radical": True}
    if not _is_npure(ring, ring.nil_mask):
        return {"nilradical": True}
    return None


def _reduced_iff_families_coincide(ctx: RingContext, props) -> dict | None:
    reduced = ctx.ring.nil_mask == 1 << ctx.ring.zero
    families = ctx.verdict("npure_equals_pure_ideals")
    if families.value == reduced:
        return None
    detail = {"reduced": reduced, "families_coincide": families.value}
    return detail if families.value else {**detail, "ideal": families.witness["ideal"]}


def _powers_npure(ctx: RingContext, props) -> dict | None:
    """N-pure exactly when every power is N-pure."""
    ring = ctx.ring
    for i in ctx.lattice:
        base = _is_npure(ring, i.mask)
        current = i
        while True:
            if _is_npure(ring, current.mask) != base:
                return {"ideal": list(i.elems), "power": list(current.elems)}
            nxt = ideal_product(current, i)
            if nxt.mask == current.mask:
                break
            current = nxt
    return None


_IDEAL_OPERATIONS = (("sum", ideal_sum), ("product", ideal_product),
                     ("intersection", ideal_intersection))


def _npure_closure(ctx: RingContext, props) -> dict | None:
    npure_ideals = [i for i in ctx.lattice if _is_npure(ctx.ring, i.mask)]
    for i in npure_ideals:
        for j in npure_ideals:
            for op, combine in _IDEAL_OPERATIONS:
                if not _is_npure(ctx.ring, combine(i, j).mask):
                    return {"left": list(i.elems), "right": list(j.elems), "op": op}
    return None


def _power_intersection_npure(ctx: RingContext, props) -> dict | None:
    """R x^n meet I = x^n I for all x forces N-purity."""
    for i in ctx.lattice:
        if power_intersection_hypothesis(i)[0] and not _is_npure(ctx.ring, i.mask):
            return {"ideal": list(i.elems)}
    return None


def _radical_formula_tracks(ctx: RingContext, props) -> dict | None:
    """The annihilator-complement set is the radical exactly for N-pure ideals."""
    for i in ctx.lattice:
        matches = _radical_formula_mask(ctx, i) == radical(i).mask
        if matches != _is_npure(ctx.ring, i.mask):
            return {"ideal": list(i.elems), "formula_matches_radical": matches}
    return None


def _unique_pure_core(ctx: RingContext, props) -> dict | None:
    for i in ctx.lattice:
        if _is_npure(ctx.ring, i.mask):
            count = len(ctx.pure_cores.get(radical(i).mask, []))
            if count != 1:
                return {"ideal": list(i.elems), "count": count}
    return None


def _minimal_kernels(ctx: RingContext, props) -> dict | None:
    """At a minimal prime the kernel's radical is the prime, the two have
    the same vanishing set, and the kernel is primary."""
    spec = ctx.spectrum
    for p in spec.minimal:
        k = ctx.kernel(p)
        named = {"prime": list(p.elems)}
        if radical(k).mask != p.mask:
            return {**named, "kernel": list(k.elems)}
        if vanishing_set(k, spec) != vanishing_set(p, spec):
            return {**named, "vanishing_differs": True}
        if not is_primary_ideal(k).value:
            return {**named, "kernel_not_primary": True}
    return None


def _vnr_iff_spectra_coincide(ctx: RingContext, props) -> dict | str | None:
    same = ctx.verdict("spectrum_equals_pure_spectrum").value
    vnr = _agreed(props, "von_neumann_regular")
    if vnr is None:
        return "vnr verdict unavailable"
    return None if same == vnr else {"vnr": vnr, "coincide": same}


def _implies(src: str, dst: str):
    def body(ctx: RingContext, props) -> dict | str | None:
        a, b = _agreed(props, src), _agreed(props, dst)
        if a is None or b is None:
            return "verdict unavailable"
        return {src: a, dst: b} if a and not b else None

    return body


def _mid_localizations(ctx: RingContext, props) -> dict | None:
    for p in ctx.spectrum.primes:
        mid = _mid_verdict(ctx, ctx.localization(p))
        if not mid.value:
            return {"prime": list(p.elems), "element": mid.witness["element"]}
    return None


def _mid_quotients(ctx: RingContext, props) -> dict | None:
    ring = ctx.ring
    for i in ctx.pure_list:
        if not i.is_proper:
            continue
        if i.is_zero:
            q = ring  # R/(0) has the same tables
        else:
            q = quotient_ring(ring, i.mask, specs.Quotient(ring.spec, i.generators()))
        mid = _mid_verdict(ctx, q)
        if not mid.value:
            return {"pure_ideal": list(i.elems), "element": mid.witness["element"]}
    return None


def _product_mid(ctx: RingContext, props) -> dict | None:
    whole = ctx.verdict("annihilators_npure").value
    factors = all(_mid_verdict(ctx, f).value for f in ctx.ring.factors)
    return None if whole == factors else {"product": whole, "factors": factors}


def _gpf_localizations(ctx: RingContext, props) -> dict | None:
    local = ctx.verdict("localizations_primary_at_primes")
    if local.value:
        return None
    return {"prime": local.witness["ideal"], "pair": local.witness["local_pair"]}


def _pp_iff(via: str):
    def body(ctx: RingContext, props) -> dict | str | None:
        pp, mid, gpf = (_agreed(props, n) for n in ("pp_ring", "mid_ring", "gpf_ring"))
        if pp is None or mid is None or gpf is None:
            return "verdict unavailable"
        other = mid if via == "mid" else gpf
        vnr = ctx.verdict("square_witness").value  # Q(R) = R for finite rings
        return None if pp == (other and vnr) else {"pp": pp, via: other, "fractions_vnr": vnr}

    return body


_LATTICE_BOUND = attrgetter("lattice")


def _pair_bound(bounds: Bounds) -> int:
    return min(DEFAULT_PAIR_CHECK_BOUND, bounds.lattice)


# (check, bound, requires, body).  bound maps the Bounds to the largest
# order the check runs at (None: any order).  requires is None, a property
# alias the ring must be verified to have, or "product": the check exists
# only for rings built as products (those with factors).
THEOREM_CHECKS = [
    ("pure_ideals_are_npure", _LATTICE_BOUND, None, _pure_ideals_npure),
    ("reduced_iff_npure_equals_pure", _LATTICE_BOUND, None, _reduced_iff_families_coincide),
    ("npure_iff_every_power_npure", _pair_bound, None, _powers_npure),
    ("npure_closed_under_sum_product_intersection", _pair_bound, None, _npure_closure),
    ("power_intersection_implies_npure", _pair_bound, None, _power_intersection_npure),
    ("radical_formula_tracks_npure", _pair_bound, None, _radical_formula_tracks),
    ("unique_pure_core", _LATTICE_BOUND, None, _unique_pure_core),
    ("minimal_kernel_radical_recovers_prime", _LATTICE_BOUND, None, _minimal_kernels),
    ("vnr_iff_spectra_coincide", lambda b: min(b.spp, b.lattice), None,
     _vnr_iff_spectra_coincide),
    ("pf_implies_mid", None, None, _implies("pf_ring", "mid_ring")),
    ("gpf_implies_mid", None, None, _implies("gpf_ring", "mid_ring")),
    ("primary_implies_mid", None, None, _implies("primary_ring", "mid_ring")),
    ("mid_implies_mp", None, None, _implies("mid_ring", "mp_ring")),
    ("mid_localizations_are_mid", _LATTICE_BOUND, "mid", _mid_localizations),
    ("quotients_by_pure_ideals_are_mid", _LATTICE_BOUND, "mid", _mid_quotients),
    ("product_mid_iff_factors_mid", None, "product", _product_mid),
    ("gpf_localizations_are_primary", _LATTICE_BOUND, "gpf", _gpf_localizations),
    ("pp_iff_mid_and_fractions_vnr", None, None, _pp_iff("mid")),
    ("pp_iff_gpf_and_fractions_vnr", None, None, _pp_iff("gpf")),
    ("npure_primes_equal_minimal", _LATTICE_BOUND, "mid",
     lambda ctx, props: ctx.verdict("minimal_primes_exactly_npure").witness),
]


def verify_theorems(
    ctx: RingContext, properties: dict[str, PropertyResult] | None = None
) -> list[TheoremCheck]:
    """Instantiate every cross-cutting statement as an executable check.

    Checks that would exceed a configured bound are reported as skipped
    (naming the bound), never silently passed.
    """
    ring = ctx.ring
    if properties is None:
        properties = {name: classify_property(ctx, name) for name in PROPERTY_ORDER}
    checks: list[TheoremCheck] = []
    for check, bound, requires, body in THEOREM_CHECKS:
        if requires == "product" and not ring.factors:
            continue
        limit = bound(ctx.bounds) if bound else None
        if limit is not None and ring.order > limit:
            outcome = f"order {ring.order} exceeds bound {limit}"
        elif requires in PROPERTY_ALIASES and not _agreed(properties, PROPERTY_ALIASES[requires]):
            outcome = f"ring not verified {requires}"
        else:
            try:
                outcome = body(ctx, properties)
            except OrderTooLarge as exc:
                outcome = str(exc)
        if outcome is None:
            checks.append(TheoremCheck(check, "pass"))
        elif isinstance(outcome, str):
            checks.append(TheoremCheck(check, "skipped", {"reason": outcome}))
        else:
            checks.append(TheoremCheck(check, "fail", outcome))
    return checks


def classify_ring(
    ring: FiniteRing,
    properties: list[str] | None = None,
    bounds: Bounds | None = None,
    with_theorems: bool = True,
) -> PropertyReport:
    """Full battery for one ring: properties, per-ideal purity, theorems."""
    ctx = RingContext(ring, bounds)
    names = [canonical_property(p) for p in properties] if properties else PROPERTY_ORDER
    needed = PROPERTY_ORDER if with_theorems else names
    computed = {name: classify_property(ctx, name) for name in needed}
    prop_results = {name: computed[name] for name in names}
    universe, sampled = ctx.ideal_universe
    ideal_results = [classify_ideal(ctx, i) for i in universe]
    checks = verify_theorems(ctx, computed) if with_theorems else []
    return PropertyReport(ring, prop_results, ideal_results, sampled, checks)


def classify_catalog(
    rings: list[FiniteRing], bounds: Bounds | None = None
) -> list[PropertyReport]:
    """classify_ring for every ring, in order, run once per distinct key.

    A ring whose key came earlier in ``rings`` gets the first report of that
    key with only its ring replaced: every verdict, witness and theorem
    detail is a function of the key and the bounds.  The shared results'
    ideals belong to that first ring.
    """
    first: dict[tuple, PropertyReport] = {}
    reports = []
    for ring in rings:
        report = first.get(ring.key)
        if report is None:
            report = first[ring.key] = classify_ring(ring, bounds=bounds)
        else:
            report = replace(report, ring=ring)
        reports.append(report)
    return reports
