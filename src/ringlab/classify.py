"""Property deciders for finite commutative rings, one per characterization.

Every ring-theoretic property handled here (pure / N-pure ideals,
reduced, semiprimitive, NJ, von Neumann regular, zero-dimensional, mp,
mid, primary, p.f., Gpf, p.p.) is decided by a family of independent
routines, each implementing a different equivalent characterization.
Each returns a Verdict; the harness cross-validates the families and
treats any disagreement as a build-failing event.

The ring-level routes of PROPERTY_METHODS come in three shapes:

    first-failure scan  ``_row(method, family, test)``: one loop applies the
                        test to each member of the family (the ring itself,
                        ideals, annihilators, primes with their kernels and
                        localizations, nested prime pairs, nonzero
                        elements with a cover partner) and reports the
                        first failure
    choice map          ``_choice_route``: the smallest witness of every
                        element, or the first element without one
    p.p. composite      ``_pp_composite``: two other routes' verdicts

A RingContext decides each route once.  A False verdict names what
failed.  A True verdict carries a re-checkable witness only from a choice
map (the map), a p.p. composite (both parts) and the scans over the ideal
universe (the count checked) or the Jacobson radical (the radical); the
other 32 routes return a bare True.  The theorem checks are the ordered
table THEOREM_CHECKS of ``(check, bound, requires, body)`` rows; a body
returns None for a pass, a detail dict for a failure or a skip reason.
Eight checks walk members as first-failure scans ``_scan(family, test)``,
through the loop the routes use, so a failure names its first failing
member the way a route's does.

An ideal I is *pure* when each a in I has b in I with a(1-b) = 0, and
*N-pure* when a(1-b) only needs to be nilpotent.  The eight N-purity
routes attach a witness to every verdict; witness_power and ann_complement
are choice maps over the ideal's elements:

    def             nilpotent-complement witness per element
    witness_power   a^n(1-b) = 0 for some n >= 1
    ann_complement  Ann(a^t) + I = R for some t
    radical_formula {a : exists n, Ann(a^n)+I = R} equals radical(I)
    radical_npure   radical(I) passes the def scan
    pure_core       exactly one pure ideal shares I's radical
    mod_nil         the image of I in R/nilradical is pure
    finite_subset   simultaneous witness for every subset of size <= 3

Existential exponent searches read the annihilator chain Ann(a) <= Ann(a^2)
<= ... (at most log2 N strict steps).  A test that reads an element only
through such data runs once per class of elements sharing it: per distinct
mask (annihilator and principal-ideal scans), per pair of chain classes
(the covers), per chain (Gpf, witness_power, ann_complement), per Ann(a)
(p.p.) or per stable Ann(a^oo) (radical_formula).  The first failing
element is the first member of the first failing class, so witnesses stay
the lexicographically smallest (a, b, n), and reports are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, partial, reduce
from itertools import chain, combinations
from operator import and_, attrgetter, or_
from typing import Callable, Iterable, NamedTuple

from . import specs
from .bounds import DEFAULT_PAIR_CHECK_BOUND, Bounds, check_order
from .errors import OrderTooLarge
from .ideals import (
    Ideal,
    _lattice_key,
    _power_chain,
    _purity_scan,
    all_ideals,
    ideal_intersection,
    ideal_product,
    ideal_sum,
    is_primary_ideal,
    nilradical,
    power_intersection_hypothesis,
    radical,
    zero_ideal,
)
from .rings import (
    FiniteRing,
    _mask_sum,
    _Tables,
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
    """The results of one property's methods; the summaries below are
    computed on first read, so results must not change after that."""

    name: str
    results: list[MethodResult]

    @cached_property
    def verdicts(self) -> list[Verdict]:
        return [r for r in self.results if isinstance(r, Verdict)]

    @cached_property
    def consistent(self) -> bool:
        return len({v.value for v in self.verdicts}) <= 1

    @cached_property
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


class RingContext:
    """Per-ring owner of every derived structure, derived ring and verdict.

    Lattice, spectrum, pure ideals, pure spectrum, pure cores (radical mask
    -> the pure ideals with that radical), reduction, Jacobson radical,
    ideal universe and the element classes (by annihilator chain, by stable
    annihilator) are cached properties.  The lattice is enumerated here only;
    the ideal universe is that lattice wherever all_ideals's bound admits it,
    and the Jacobson radical is ring.jacobson_mask at every order.  Kernels
    are kept per prime and localization contexts per nonzero kernel, which
    quotient(I) reads when I is one; R/(0) is the context itself.
    verdict(method) decides each ring-level route once for every reader.
    """

    def __init__(self, ring: FiniteRing, bounds: Bounds | None = None):
        self.ring = ring
        self.bounds = bounds or Bounds()
        check_order(ring.order, self.bounds.element)
        self._kernels: dict[int, Ideal] = {}
        # nonzero localization kernel mask -> the context of R_p
        self._locals: dict[int, RingContext] = {}
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
        check_order(self.ring.order, self.bounds.spp, "pure-spectrum bound")
        return pure_spectrum(self.lattice, self.pure_list)

    @cached_property
    def pure_cores(self) -> dict[int, list[Ideal]]:
        """Radical mask -> the pure ideals with that radical, in pure_list order."""
        cores: dict[int, list[Ideal]] = {}
        for j in self.pure_list:
            cores.setdefault(radical(j).mask, []).append(j)
        return cores

    @cached_property
    def chain_classes(self) -> dict[tuple[int, ...], int]:
        """Annihilator chain -> the mask of the elements with that chain."""
        return _classes(self.ring.ann_chains)

    @cached_property
    def stable_classes(self) -> dict[int, int]:
        """Stable annihilator Ann(a^oo) -> the mask of the elements with it."""
        return _classes(chain[-1] for chain in self.ring.ann_chains)

    def kernel(self, p: Ideal) -> Ideal:
        got = self._kernels.get(p.mask)
        if got is None:
            got = Ideal(self.ring, self.ring.localization_kernel_mask(p.mask))
            self._kernels[p.mask] = got
        return got

    def local(self, p: Ideal) -> RingContext:
        """The context of R_p, the quotient by the kernel at p, built once per
        kernel by localize_at_mask; the context itself when that kernel is
        zero (R is then local, with maximal ideal p)."""
        kernel = self.kernel(p)
        if not kernel.is_zero and kernel.mask not in self._locals:
            spec = specs.LocalizeAt(self.ring.spec, p.generators())
            local = localize_at_mask(self.ring, p.mask, spec)
            self._locals[kernel.mask] = RingContext(local, self.bounds)
        return self.quotient(kernel)

    def localization(self, p: Ideal) -> FiniteRing:
        """R_p as a ring: the ring itself when the kernel at p is zero."""
        return self.local(p).ring

    def quotient(self, i: Ideal) -> RingContext:
        """The context of R/I: this one for I = (0), which has the same tables,
        a localization's for its kernel, else a new one, which is not kept."""
        if i.is_zero:
            return self
        got = self._locals.get(i.mask)
        if got is None:
            spec = specs.Quotient(self.ring.spec, i.generators())
            got = RingContext(quotient_ring(self.ring, i.mask, spec), self.bounds)
        return got

    @cached_property
    def reduction(self) -> tuple[FiniteRing, list[int]]:
        """The quotient by the nilradical and the projection index map; the
        ring itself and the identity map when the nilradical is zero."""
        nil = nilradical(self.ring)
        return self.quotient(nil).ring, quotient_projection(self.ring, nil.mask)

    @cached_property
    def jacobson(self) -> Ideal:
        return Ideal(self.ring, self.ring.jacobson_mask)

    @cached_property
    def ideal_universe(self) -> tuple[list[Ideal], bool]:
        """The lattice, when all_ideals enumerates it; else a deterministic
        sample: principal ideals, the nil and Jacobson radicals, and pairwise
        sums of distinct principal ideals."""
        try:
            return self.lattice, False
        except OrderTooLarge:
            ring = self.ring
        masks = {1 << ring.zero, ring.nil_mask, self.jacobson.mask}
        principals = sorted(set(ring.principal_masks))
        masks.update(principals)
        for x, i in enumerate(principals):
            for j in principals[x + 1 :]:
                masks.add(_mask_sum(ring, i, j))
        ideals = [Ideal(ring, m) for m in sorted(masks, key=_lattice_key)]
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


def _classes(keys: Iterable) -> dict:
    """Each distinct key -> the mask of the elements a with key keys[a], in
    the order of the classes' first elements."""
    classes: dict = {}
    for a, k in enumerate(keys):
        classes[k] = classes.get(k, 0) | 1 << a
    return classes


def _choices(method: str, elems: Iterable[int], choose: Callable[[int], list | None],
             named=lambda a: {}, keys: list | None = None, **passed) -> Verdict:
    """For every a in elems, choose(a) lists the smallest witness of a, or is
    None when there is none; named(a) adds to the witness of a failure, and
    passed to the witness of a pass.  With keys, choose runs once per keys[a]."""
    choices = []
    known: dict = {}
    for a in elems:
        k = a if keys is None else keys[a]
        found = known[k] if k in known else known.setdefault(k, choose(a))
        if found is None:
            return Verdict(method, False, {"element": a, **named(a)})
        choices.append([a, *found])
    return Verdict(method, True, {"choices": choices, **passed})


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

    def choose(a: int) -> list | None:
        # the smallest b of I with 1 - b in Ann(a^oo)
        ok, pair = _mask_sum_has_one(ring, ideal.mask, ring.ann_chains[a][-1])
        return [pair[0], _min_power_killing(ring, a, pair[1])] if ok else None

    return _choices("witness_power", ideal.elems, choose, keys=ring.ann_chains)


def _npure_ann_complement(ctx: RingContext, ideal: Ideal) -> Verdict:
    ring = ctx.ring

    def choose(a: int) -> list | None:
        for t, ann in enumerate(ring.ann_chains[a], 1):
            ok, pair = _mask_sum_has_one(ring, ann, ideal.mask)
            if ok:
                return [t, *pair]
        return None

    return _choices("ann_complement", ideal.elems, choose, keys=ring.ann_chains,
                    fields=["a", "t", "u", "v"])


def _radical_formula_mask(ctx: RingContext, ideal: Ideal) -> int:
    """{a in R : exists n >= 1 with Ann(a^n) + I = R} as a bitmask: the
    classes of the stable annihilators Ann(a^oo) with Ann(a^oo) + I = R."""
    return reduce(or_, (members for stable, members in ctx.stable_classes.items()
                        if _mask_sum_has_one(ctx.ring, stable, ideal.mask)[0]), 0)


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
    killed_by_all = reduce(and_, (ring.ann_chains[a][-1] for a in elems), (1 << ring.order) - 1)
    found, pair = _mask_sum_has_one(ring, ideal.mask, killed_by_all)
    if found:
        b, c = pair
        t = max(_min_power_killing(ring, a, c) for a in elems)
        return Verdict("finite_subset", True, {"uniform": [b, t]})
    # no single witness covers the whole ideal: check all subsets of size <= 3
    k = len(elems)
    complements = [ring.one_minus[b] for b in elems]
    ok_masks = [
        mask_of(bi for bi, c in enumerate(complements) if (ring.ann_chains[a][-1] >> c) & 1)
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


def _run(methods: Iterable[str], decide: Callable[[str], Verdict]) -> list[MethodResult]:
    """decide(method) for each method in order; a method that raises
    OrderTooLarge is Skipped with the reason, and the later ones still run."""
    results: list[MethodResult] = []
    for method in methods:
        try:
            results.append(decide(method))
        except OrderTooLarge as exc:
            results.append(Skipped(method, str(exc)))
    return results


def classify_ideal(ctx: RingContext, ideal: Ideal) -> IdealClassification:
    """Run the purity test and the full N-purity battery on one ideal."""
    npure = _run(NPURE_METHODS, lambda name: NPURE_METHODS[name](ctx, ideal))
    return IdealClassification(ideal, is_pure(ideal), PropertyResult("npure", npure))


# -- route families ------------------------------------------------------


class Family(NamedTuple):
    """What a first-failure scan quantifies over: members(ctx) yields (member,
    subject) pairs, witness(member, subject, detail) names a failing one, and
    summary(ctx) gives the witness of a pass and whether the family is a sample.
    """

    members: Callable[[RingContext], Iterable[tuple]]
    witness: Callable[[object, object, dict], dict]
    summary: Callable[[RingContext], tuple[dict | None, bool]] = lambda ctx: (None, False)


def _named(key: str) -> Callable[[Ideal, object, dict], dict]:
    """The witness that names the failing member's elements under the key."""
    return lambda i, subject, detail: {key: list(i.elems), **detail}


def _spectrum_family(which: str, view: Callable, witness=_named("ideal")) -> Family:
    """Members of one spectrum list ("primes", "minimal" or "maximal"),
    each with view(ctx, prime) as its subject."""
    return Family(
        lambda ctx: ((p, view(ctx, p)) for p in getattr(ctx.spectrum, which)), witness
    )


def _kernel_mask(ctx: RingContext, p: Ideal) -> int:
    return ctx.kernel(p).mask


def _kernel_witness(p: Ideal, kernel: int, detail: dict) -> dict:
    return {"ideal": list(p.elems), "kernel": list(bits(kernel)), **detail}


def _nested_primes(ctx: RingContext):
    """The pairs of primes p <= q, p = q included."""
    primes = ctx.spectrum.primes
    return ((p, q) for p in primes for q in primes if q.contains_ideal(p))


# the ring as the only member: its test's detail is the whole witness
RING = Family(lambda ctx: [(ctx.ring, None)], lambda ring, subject, detail: detail)
UNIVERSE = Family(
    lambda ctx: ((i, i.mask) for i in ctx.ideal_universe[0]),
    _named("ideal"),
    lambda ctx: ({"ideals_checked": len(ctx.ideal_universe[0])}, ctx.ideal_universe[1]),
)
LATTICE = Family(lambda ctx: ((i, i.mask) for i in ctx.lattice), _named("ideal"))
# each distinct principal ideal or annihilator once, with its first element
PRINCIPAL = Family(
    lambda ctx: ((next(bits(c)), m) for m, c in _classes(ctx.ring.principal_masks).items()),
    lambda a, mask, detail: {"generator": a, **detail},
)
ANNIHILATORS = Family(
    lambda ctx: ((next(bits(c)), m) for m, c in _classes(ctx.ring.ann_masks).items()),
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
NESTED_PRIMES = Family(
    _nested_primes,
    lambda p, q, detail: {"lower": list(p.elems), "upper": list(q.elems), **detail},
)
# the nonzero elements with a failing cover partner, each with those partners;
# a cover test's detail is the witness
POWER_COVER = Family(lambda ctx: _cover_members(ctx, True), RING.witness)
MIXED_COVER = Family(lambda ctx: _cover_members(ctx, False), RING.witness)


def _first_failure(ctx: RingContext, family: Family, test) -> dict | None:
    """The family's witness of the first member failing the test, or None."""
    for member, subject in family.members(ctx):
        detail = test(ctx, member, subject)
        if detail is not None:
            return family.witness(member, subject, detail)
    return None


def _row(method: str, family: Family, test) -> tuple[str, Callable[[RingContext], Verdict]]:
    """The route that applies a test to every member of a family."""

    def route(ctx: RingContext) -> Verdict:
        passed, sampled = family.summary(ctx)
        failure = _first_failure(ctx, family, test)
        if failure is None:
            return Verdict(method, True, passed, sampled)
        return Verdict(method, False, failure, sampled)

    return method, route


# -- route tests: (ctx, member, subject) -> None on a pass, else detail ----


def _purity(nil: bool, ctx: RingContext, member, mask: int) -> dict | None:
    """The set's first element without a pure (with nil, N-pure) witness."""
    ok, data = _purity_scan(ctx.ring, mask, nil)
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


def _nested_differ(same: Callable[[RingContext, Ideal], int]):
    """The test of a nested pair p <= q that fails when same(ctx, .) tells
    p and q apart."""
    return lambda ctx, p, q: None if same(ctx, p) == same(ctx, q) else {}


def _failing_partners(ctx: RingContext, ca: tuple, both_powers: bool) -> int:
    """The nonzero b in Ann(a), for the a with chain ca, with no n giving
    Ann(a^n) + Ann(b^n) = R (both_powers) or Ann(a) + Ann(b^n) = R, decided
    once per chain class of b, as it reads only the chains."""
    ring, partners, failing = ctx.ring, ca[0] & ~(1 << ctx.ring.zero), 0
    for cb, members in ctx.chain_classes.items():
        # ab = 0 iff a is in Ann(b): a class lies in Ann(a) or outside it
        if not members & partners:
            continue
        if both_powers:  # a chain's last term stands for all later powers
            terms = zip(ca + ca[-1:] * (len(cb) - len(ca)), cb + cb[-1:] * (len(ca) - len(cb)))
        else:
            terms = ((ca[0], ann) for ann in cb)
        if not any(_mask_sum_has_one(ring, x, y)[0] for x, y in terms):
            failing |= members
    return failing


def _cover_members(ctx: RingContext, both_powers: bool):
    """(a, its failing partners) for each nonzero a whose chain class has
    any, ascending; every other nonzero a passes the cover test.  Zero is
    alone in its class, the only a with Ann(a) = R."""
    failing, suspects = {}, 0
    for ca, members in ctx.chain_classes.items():
        if members != 1 << ctx.ring.zero:
            failing[ca] = _failing_partners(ctx, ca, both_powers)
            if failing[ca]:
                suspects |= members
    chains = ctx.ring.ann_chains
    return ((a, failing[chains[a]]) for a in bits(suspects))


def _cover(both_powers: bool, ctx: RingContext, a: int, failing: int) -> dict | None:
    """The pair of a with its lowest failing partner b, b >= a for the power
    cover: its condition is symmetric, so each pair is tried once."""
    if both_powers:
        failing &= -1 << a
    return {"pair": [a, next(bits(failing))]} if failing else None


def _set_difference(left: int, right: int) -> dict | None:
    """None when two element sets coincide, else the smallest element of one only."""
    return None if left == right else {"element": next(bits(left ^ right))}


def _spectra_difference(ctx: RingContext, ring: FiniteRing, subject) -> dict | None:
    """None when Spec = Spp, else both lists."""
    spp_masks = sorted(p.mask for p in ctx.pure_spectrum.members)
    spec_masks = sorted(p.mask for p in ctx.spectrum.primes)
    if spec_masks == spp_masks:
        return None
    return {
        "spectrum": [list(bits(m)) for m in spec_masks],
        "pure_spectrum": [list(bits(m)) for m in spp_masks],
    }


def _npure_primes_difference(ctx: RingContext, ring: FiniteRing, subject) -> dict | None:
    """None when the N-pure primes are exactly the minimal ones.

    N-pure forces minimal unconditionally; minimal forces N-pure under the
    unique-minimal condition, so this is the necessary side of the mid
    characterization."""
    got = {p.mask for p in npure_primes(ctx)}
    want = {p.mask for p in ctx.spectrum.minimal}
    if got == want:
        return None
    return {"difference": [list(bits(m)) for m in sorted(got ^ want)]}


# -- choice maps and composites -------------------------------------------


def _choice_route(method: str, choose: Callable[[FiniteRing, int], list | None],
                  named=lambda ring, a: {}, keys: str | None = None):
    """The route that maps every element a to its smallest witness
    choose(ring, a); named(ring, a) adds to the witness of a failure.  With
    keys, choose reads a only through the ring's list of that name."""

    def route(ctx: RingContext) -> Verdict:
        ring = ctx.ring
        return _choices(method, range(ring.order), partial(choose, ring), partial(named, ring),
                        getattr(ring, keys) if keys else None)

    return method, route


def _square_factor(ring: FiniteRing, a: int) -> list | None:
    """The smallest b with a = a^2 b."""
    try:
        return [ring.mul_rows[ring.mul_rows[a][a]].index(a)]
    except ValueError:
        return None


def _pure_annihilator_power(ring: FiniteRing, a: int) -> list | None:
    """The smallest n with Ann(a^n) pure."""
    return next(([n] for n, ann in enumerate(ring.ann_chains[a], 1) if _is_pure(ring, ann)), None)


def _idempotent_generator(ring: FiniteRing, a: int) -> list | None:
    """The smallest idempotent e with Re = Ann(a)."""
    ann = ring.ann_masks[a]
    return next(([e] for e in ring.idempotents if ring.principal_masks[e] == ann), None)


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
        _row("no_nilpotents", RING,
             lambda ctx, ring, _: _set_difference(ring.nil_mask, 1 << ring.zero)),
        _row("npure_equals_pure_ideals", LATTICE, _scans_agree),
    ],
    "semiprimitive": [
        _row("zero_jacobson", RING,
             lambda ctx, ring, _: _set_difference(ctx.jacobson.mask, 1 << ring.zero)),
        _row("jacobson_pure", JACOBSON, partial(_purity, False)),
    ],
    "nj_ring": [
        _row("nil_equals_jacobson", RING,
             lambda ctx, ring, _: _set_difference(ctx.jacobson.mask, ring.nil_mask)),
        _row("jacobson_npure", JACOBSON, partial(_purity, True)),
    ],
    "von_neumann_regular": [
        _choice_route("square_witness", _square_factor),
        _row("all_ideals_pure", UNIVERSE, partial(_purity, False)),
        _row("principal_ideals_pure", PRINCIPAL, partial(_purity, False)),
        _row("maximal_ideals_pure", MAXIMAL, partial(_purity, False)),
        _row("kernel_equals_maximal", MAXIMAL, _kernel_is_prime),
        _row("localizations_semiprimitive", LOCAL_AT_PRIMES, _local_semiprimitive),
        _row("spectrum_equals_pure_spectrum", RING, _spectra_difference),
    ],
    "zero_dimensional": [
        _row("no_prime_chain", NESTED_PRIMES, _nested_differ(lambda ctx, p: p.mask)),
        _row("all_ideals_npure", UNIVERSE, partial(_purity, True)),
        _row("principal_ideals_npure", PRINCIPAL, partial(_purity, True)),
        _row("maximal_ideals_npure", MAXIMAL, partial(_purity, True)),
        _row("kernel_radical_equals_maximal", MAXIMAL, _kernel_radical_is_prime),
        _row("localizations_nj_at_primes", LOCAL_AT_PRIMES, _local_nj),
        _row("localizations_nj_at_maximals", LOCAL_AT_MAXIMALS, _local_nj),
    ],
    "mp_ring": [
        _row("unique_minimal_below", PRIMES, _one_minimal_below),
        _row("zero_divisor_power_cover", POWER_COVER, partial(_cover, True)),
        _row("minimal_primes_npure", MINIMAL, partial(_purity, True)),
        _row("minimal_kernels_npure", KERNELS_AT_MINIMALS, partial(_purity, True)),
        _row("all_kernels_npure", KERNELS_AT_PRIMES, partial(_purity, True)),
    ],
    "mid_ring": [
        _row("annihilators_npure", ANNIHILATORS, partial(_purity, True)),
        _row("zero_divisor_mixed_cover", MIXED_COVER, partial(_cover, False)),
        _row("localizations_primary_at_primes", LOCAL_AT_PRIMES, _local_primary),
        _row("localizations_primary_at_maximals", LOCAL_AT_MAXIMALS, _local_primary),
        _row("kernels_pure_at_primes", KERNELS_AT_PRIMES, partial(_purity, False)),
        _row("kernels_pure_at_minimals", KERNELS_AT_MINIMALS, partial(_purity, False)),
        _row("kernels_equal_when_nested", NESTED_PRIMES, _nested_differ(_kernel_mask)),
        _row("kernels_primary_at_primes", PRIMES, _kernel_primary),
        _row("kernels_primary_at_maximals", MAXIMAL, _kernel_primary),
        _row("minimal_primes_exactly_npure", RING, _npure_primes_difference),
    ],
    "primary_ring": [
        _row("zero_ideal_primary", RING,
             lambda ctx, ring, _: _primary_pair(zero_ideal(ring), "pair"))
    ],
    "pf_ring": [_row("annihilators_pure", ANNIHILATOR_SETS, partial(_purity, False))],
    "gpf_ring": [
        _choice_route("annihilator_power_pure", _pure_annihilator_power, keys="ann_chains")
    ],
    "pp_ring": [
        _choice_route(
            "annihilators_idempotent_generated",
            _idempotent_generator,
            lambda ring, a: {"ann": list(bits(ring.ann_masks[a]))},
            keys="ann_masks",
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
    return PropertyResult(name, _run((m for m, _ in PROPERTY_METHODS[name]), ctx.verdict))


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


# each pure ideal, then the nilradical's mask alone, with no ideal to name
PURE_THEN_NIL = Family(
    lambda ctx: chain(((i, i.mask) for i in ctx.pure_list), [(None, ctx.ring.nil_mask)]),
    lambda i, m, detail: {"nilradical": True} if i is None else LATTICE.witness(i, m, detail),
)


def _npure_with_radical(ctx: RingContext, i: Ideal | None, mask: int) -> dict | None:
    """Every pure ideal is N-pure; so are its radical and the nilradical."""
    if not _is_npure(ctx.ring, mask):
        return {}
    if i is not None and not _is_npure(ctx.ring, radical(i).mask):
        return {"radical": True}
    return None


def _reduced_iff_families_coincide(ctx: RingContext, props) -> dict | None:
    reduced = ctx.ring.nil_mask == 1 << ctx.ring.zero
    families = ctx.verdict("npure_equals_pure_ideals")
    if families.value == reduced:
        return None
    detail = {"reduced": reduced, "families_coincide": families.value}
    return detail if families.value else {**detail, "ideal": families.witness["ideal"]}


def _powers_npure(ctx: RingContext, i: Ideal, mask: int) -> dict | None:
    """N-pure exactly when every power is N-pure."""
    base = _is_npure(ctx.ring, mask)
    for power in _power_chain(i):
        if _is_npure(ctx.ring, power.mask) != base:
            return {"power": list(power.elems)}
    return None


_IDEAL_OPERATIONS = (("sum", ideal_sum), ("product", ideal_product),
                     ("intersection", ideal_intersection))


def _npure_closure(ctx: RingContext, props) -> dict | None:
    """The N-pure ideals are closed under sum, product and intersection.

    The pairs (I, J) of N-pure ideals are tried with I <= J in lattice
    order, the ops in _IDEAL_OPERATIONS order, and the first failure is the
    one a scan of the full square in row-major order finds.  Each op is
    commutative, so the failing pairs are symmetric.  Let I be the first
    ideal in any failing pair: no row before I's has a failure, and all of
    I's failing partners J come at or after I, so the square's first
    failure lies in I's row with J >= I, where both scans try the same pairs
    and ops in the same order."""
    npure_ideals = [i for i in ctx.lattice if _is_npure(ctx.ring, i.mask)]
    for x, i in enumerate(npure_ideals):
        for j in npure_ideals[x:]:
            for op, combine in _IDEAL_OPERATIONS:
                if not _is_npure(ctx.ring, combine(i, j).mask):
                    return {"left": list(i.elems), "right": list(j.elems), "op": op}
    return None


def _power_intersection_npure(ctx: RingContext, i: Ideal, mask: int) -> dict | None:
    """R x^n meet I = x^n I for all x forces N-purity."""
    if power_intersection_hypothesis(i)[0] and not _is_npure(ctx.ring, mask):
        return {}
    return None


def _radical_formula_tracks(ctx: RingContext, i: Ideal, mask: int) -> dict | None:
    """The annihilator-complement set is the radical exactly for N-pure ideals."""
    matches = _radical_formula_mask(ctx, i) == radical(i).mask
    return None if matches == _is_npure(ctx.ring, mask) else {"formula_matches_radical": matches}


def _unique_pure_core(ctx: RingContext, i: Ideal, mask: int) -> dict | None:
    if not _is_npure(ctx.ring, mask):
        return None
    count = len(ctx.pure_cores.get(radical(i).mask, []))
    return None if count == 1 else {"count": count}


MINIMAL_WITH_KERNELS = _spectrum_family("minimal", lambda ctx, p: ctx.kernel(p), _named("prime"))


def _kernel_recovers_prime(ctx: RingContext, p: Ideal, k: Ideal) -> dict | None:
    """At a minimal prime the kernel's radical is the prime, the two have
    the same vanishing set, and the kernel is primary."""
    if radical(k).mask != p.mask:
        return {"kernel": list(k.elems)}
    if vanishing_set(k, ctx.spectrum) != vanishing_set(p, ctx.spectrum):
        return {"vanishing_differs": True}
    return None if is_primary_ideal(k).value else {"kernel_not_primary": True}


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


# the contexts of the localizations at the primes and of the proper pure quotients
LOCAL_CONTEXTS = _spectrum_family("primes", lambda ctx, p: ctx.local(p), _named("prime"))
PURE_QUOTIENTS = Family(
    lambda ctx: ((i, ctx.quotient(i)) for i in ctx.pure_list if i.is_proper),
    _named("pure_ideal"),
)


def _mid(ctx: RingContext, member, derived: RingContext) -> dict | None:
    """The derived ring's mid route: its failing element."""
    mid = derived.verdict("annihilators_npure")
    return None if mid.value else {"element": mid.witness["element"]}


def _product_mid(ctx: RingContext, props) -> dict | None:
    whole = ctx.verdict("annihilators_npure").value
    factors = all(RingContext(f, ctx.bounds).verdict("annihilators_npure").value
                  for f in ctx.ring.factors)
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


def _scan(family: Family, test):
    """The check that every member of a family passes the test."""
    return lambda ctx, props: _first_failure(ctx, family, test)


_LATTICE_BOUND = attrgetter("lattice")


def _pair_bound(bounds: Bounds) -> int:
    return min(DEFAULT_PAIR_CHECK_BOUND, bounds.lattice)


# (check, bound, requires, body).  bound maps the Bounds to the largest
# order the check runs at (None: any order).  requires is None, a property
# alias the ring must be verified to have, or "product": the check exists
# only for rings built as products (those with factors).
THEOREM_CHECKS = [
    ("pure_ideals_are_npure", _LATTICE_BOUND, None, _scan(PURE_THEN_NIL, _npure_with_radical)),
    ("reduced_iff_npure_equals_pure", _LATTICE_BOUND, None, _reduced_iff_families_coincide),
    ("npure_iff_every_power_npure", _pair_bound, None, _scan(LATTICE, _powers_npure)),
    ("npure_closed_under_sum_product_intersection", _pair_bound, None, _npure_closure),
    ("power_intersection_implies_npure", _pair_bound, None,
     _scan(LATTICE, _power_intersection_npure)),
    ("radical_formula_tracks_npure", _pair_bound, None, _scan(LATTICE, _radical_formula_tracks)),
    ("unique_pure_core", _LATTICE_BOUND, None, _scan(LATTICE, _unique_pure_core)),
    ("minimal_kernel_radical_recovers_prime", _LATTICE_BOUND, None,
     _scan(MINIMAL_WITH_KERNELS, _kernel_recovers_prime)),
    ("vnr_iff_spectra_coincide", lambda b: min(b.spp, b.lattice), None,
     _vnr_iff_spectra_coincide),
    ("pf_implies_mid", None, None, _implies("pf_ring", "mid_ring")),
    ("gpf_implies_mid", None, None, _implies("gpf_ring", "mid_ring")),
    ("primary_implies_mid", None, None, _implies("primary_ring", "mid_ring")),
    ("mid_implies_mp", None, None, _implies("mid_ring", "mp_ring")),
    ("mid_localizations_are_mid", _LATTICE_BOUND, "mid", _scan(LOCAL_CONTEXTS, _mid)),
    ("quotients_by_pure_ideals_are_mid", _LATTICE_BOUND, "mid", _scan(PURE_QUOTIENTS, _mid)),
    ("product_mid_iff_factors_mid", None, "product", _product_mid),
    ("gpf_localizations_are_primary", _LATTICE_BOUND, "gpf", _gpf_localizations),
    ("pp_iff_mid_and_fractions_vnr", None, None, _pp_iff("mid")),
    ("pp_iff_gpf_and_fractions_vnr", None, None, _pp_iff("gpf")),
    ("npure_primes_equal_minimal", _LATTICE_BOUND, "mid",
     lambda ctx, props: ctx.verdict("minimal_primes_exactly_npure").witness),
]


def _theorem_check(ctx: RingContext, row: tuple, properties) -> TheoremCheck | None:
    """One THEOREM_CHECKS row decided on the context's ring; None when the
    row does not apply (a product check on a ring without factors)."""
    check, bound, requires, body = row
    ring = ctx.ring
    if requires == "product" and not ring.factors:
        return None
    try:
        if bound:
            check_order(ring.order, bound(ctx.bounds), "bound")
        if requires in PROPERTY_ALIASES and not _agreed(properties, PROPERTY_ALIASES[requires]):
            outcome = f"ring not verified {requires}"
        else:
            outcome = body(ctx, properties)
    except OrderTooLarge as exc:
        outcome = str(exc)
    if outcome is None:
        return TheoremCheck(check, "pass")
    if isinstance(outcome, str):
        return TheoremCheck(check, "skipped", {"reason": outcome})
    return TheoremCheck(check, "fail", outcome)


def verify_theorems(
    ctx: RingContext, properties: dict[str, PropertyResult] | None = None
) -> list[TheoremCheck]:
    """Instantiate every cross-cutting statement as an executable check.

    Checks that would exceed a configured bound are reported as skipped
    (naming the bound), never silently passed.
    """
    if properties is None:
        properties = {name: classify_property(ctx, name) for name in PROPERTY_ORDER}
    checks = (_theorem_check(ctx, row, properties) for row in THEOREM_CHECKS)
    return [c for c in checks if c is not None]


def classify_ring(
    ring: FiniteRing,
    properties: list[str] | None = None,
    bounds: Bounds | None = None,
) -> PropertyReport:
    """Full battery for one ring: properties, per-ideal purity, theorems."""
    ctx = RingContext(ring, bounds)
    names = [canonical_property(p) for p in properties] if properties else PROPERTY_ORDER
    computed = {name: classify_property(ctx, name) for name in PROPERTY_ORDER}
    prop_results = {name: computed[name] for name in names}
    universe, sampled = ctx.ideal_universe
    ideal_results = [classify_ideal(ctx, i) for i in universe]
    checks = verify_theorems(ctx, computed)
    return PropertyReport(ring, prop_results, ideal_results, sampled, checks)


def _rekeyed_checks(base: PropertyReport, ring: FiniteRing, bounds: Bounds | None
                    ) -> list[TheoremCheck]:
    """base's theorem checks for a ring with base's tables but another key:
    the rows that read the factors (requires "product") are decided for
    ring itself, at their own positions; every other row is base's."""
    ctx = RingContext(ring, bounds)
    shared = {c.check: c for c in base.theorem_checks}
    checks = (_theorem_check(ctx, row, base.properties) if row[2] == "product" else shared[row[0]]
              for row in THEOREM_CHECKS)
    return [c for c in checks if c is not None]


def classify_catalog(
    rings: list[FiniteRing], bounds: Bounds | None = None
) -> list[PropertyReport]:
    """classify_ring for every ring, in order, run once per distinct table.

    Rings are grouped by ``ring.tables``, the table data every ring with
    equal (add, mul, one) shares.  Every verdict, witness, ideal result and
    theorem detail but the product check is a function of the tables and
    the bounds, so a later ring with the first ring's tables gets the first
    report with its ring replaced.  Only product_mid_iff_factors_mid reads
    the factors: a later ring with another key gets that check decided
    for itself, at its own row position, and a later ring of a key seen
    before gets that key's report.  The shared results' ideals belong to
    the first ring with the tables.
    """
    by_tables: dict[_Tables, PropertyReport] = {}
    by_key: dict[tuple, PropertyReport] = {}
    reports = []
    for ring in rings:
        report = by_key.get(ring.key)
        if report is None:
            base = by_tables.get(ring.tables)
            if base is None:
                report = by_tables[ring.tables] = classify_ring(ring, bounds=bounds)
            else:
                report = replace(base, ring=ring,
                                 theorem_checks=_rekeyed_checks(base, ring, bounds))
            by_key[ring.key] = report
        else:
            report = replace(report, ring=ring)
        reports.append(report)
    return reports
