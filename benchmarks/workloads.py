"""Seeded request lists for the benchmark workloads.

Every request is a ``ringlab`` command line, the argv that
``ringlab.cli.main`` takes, keyed by a short text that the reference
digests in ``reference.json`` are recorded under.  Ring specs are written
as text here, from arithmetic alone, so the inputs never depend on the
code under test.

``large_rings`` and ``spectrum_queries`` draw from fixed candidate pools.
Each pool is split into strata by family and order band.  A seed takes the
same share of every stratum by systematic sampling: the stratum is sorted
by ideal count (all these rings are principal ideal rings, so it is also
the number of principal ideals) and then order, and k of every n
consecutive rings are kept, from a seeded offset.  The requests are then
shuffled.  Every seed therefore sends rings of the same families, sizes
and lattice sizes, and the figures of two seeds differ little although
their rings differ.
"""

from __future__ import annotations

import itertools
import math
import random

WORKLOADS = ("catalog16", "large_rings", "spectrum_queries")

# Commands that write a report document get ``--json <path>`` appended.
JSON_COMMANDS = ("check", "verify-catalog")

CATALOG16 = "verify-catalog --max-order 16"
LARGE_FIXED = ("Z/200", "product(Z/8, Z/8)")


# -- spec text ---------------------------------------------------------------


def poly_spec(p: int, coeffs: tuple[int, ...]) -> str:
    """``GF(p)[x]/(f)`` for a monic f given little-endian, leading 1 included."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
            continue
        mono = "x" if k == 1 else f"x^{k}"
        terms.append(mono if c == 1 else f"{c}*{mono}")
    return f"GF({p})[x]/({' + '.join(terms)})"


def product_spec(factors: list[tuple[int, str]]) -> str:
    """``product(...)`` with factors ordered large to small, then by text."""
    ordered = sorted(factors, key=lambda f: (-f[0], f[1]))
    return "product(" + ", ".join(text for _, text in ordered) + ")"


# -- arithmetic, enough to name ideals and count them --------------------------


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def tau(n: int) -> int:
    """Ideal count of Z/n: the divisors of n."""
    return len(divisors(n))


def prime_factors(n: int) -> list[int]:
    return [q for q in divisors(n) if is_prime(q)]


def valuation(n: int, q: int) -> int:
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v


def monic_polys(p: int, d: int):
    for tail in itertools.product(range(p), repeat=d):
        yield tail + (1,)


def poly_index(p: int, coeffs: tuple[int, ...]) -> int:
    """Element index of a polynomial in GF(p)[x]/(f): base-p digits, low first."""
    return sum(c * p**k for k, c in enumerate(coeffs))


def poly_divmod(p: int, f: tuple[int, ...], g: tuple[int, ...]):
    """Quotient and remainder of f by the monic g over GF(p), little-endian."""
    rem = list(f)
    dg = len(g) - 1
    quot = [0] * max(len(f) - dg, 1)
    for k in range(len(rem) - 1, dg - 1, -1):
        c = rem[k] % p
        if c:
            quot[k - dg] = c
            for j in range(dg + 1):
                rem[k - dg + j] = (rem[k - dg + j] - c * g[j]) % p
    return tuple(quot), tuple(c % p for c in rem[:dg])


def poly_divides(p: int, g: tuple[int, ...], f: tuple[int, ...]) -> bool:
    return not any(poly_divmod(p, f, g)[1])


def monic_divisors(p: int, f: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Monic divisors of f of degree 1 .. deg f - 1."""
    return [
        g for d in range(1, len(f) - 1) for g in monic_polys(p, d) if poly_divides(p, g, f)
    ]


def irreducible_divisors(p: int, f: tuple[int, ...]) -> list[tuple[int, ...]]:
    divs = monic_divisors(p, f)
    return [g for g in divs if not any(len(h) < len(g) and poly_divides(p, h, g) for h in divs)]


def poly_multiplicity(p: int, g: tuple[int, ...], f: tuple[int, ...]) -> int:
    e = 0
    while len(f) >= len(g) and poly_divides(p, g, f):
        f = poly_divmod(p, f, g)[0]
        e += 1
    return e


def poly_ideals(p: int, f: tuple[int, ...]) -> int:
    """Ideal count of GF(p)[x]/(f): the monic divisors of f, 1 and f included."""
    return len(monic_divisors(p, f)) + 2


# -- ring families ---------------------------------------------------------------
#
# A candidate is (family, order, spec, ideals).  For quotients and
# localizations the order is that of the inner ring, which the request
# builds first, and ``ideals`` is the ideal count of the result.

GF_SHAPES = ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 2), (3, 3), (3, 4),
             (5, 2), (5, 3), (7, 2), (11, 2), (13, 2))


def gf_moduli(lo: int, hi: int):
    """(order, p, f) for every monic f of degree >= 2 with lo <= p^deg <= hi."""
    for p, d in GF_SHAPES:
        if lo <= p**d <= hi:
            for f in monic_polys(p, d):
                yield p**d, p, f


def zmod_rings(lo: int, hi: int) -> list[tuple[str, int, str, int]]:
    return [("zmod", n, f"Z/{n}", tau(n)) for n in range(lo, hi + 1)]


def gf_rings(lo: int, hi: int) -> list[tuple[str, int, str, int]]:
    return [
        ("gf", order, poly_spec(p, f), poly_ideals(p, f)) for order, p, f in gf_moduli(lo, hi)
    ]


def product_rings(k: int, lo: int, hi: int) -> list[tuple[str, int, str, int]]:
    """k-factor products of Z/m and GF(p)[x]/(f) factors, of order lo .. hi."""
    top = hi // 2 ** (k - 1)
    factors = sorted(zmod_rings(2, top) + gf_rings(4, top), key=lambda c: (c[1], c[2]))
    out = []

    def extend(start: int, chosen: list, order: int) -> None:
        if len(chosen) == k:
            if order >= lo:
                spec = product_spec([(c[1], c[2]) for c in chosen])
                out.append((f"prod{k}", order, spec, math.prod(c[3] for c in chosen)))
            return
        for i in range(start, len(factors)):
            o = factors[i][1]
            if order * o ** (k - len(chosen)) > hi:
                break
            extend(i, chosen + [factors[i]], order * o)

    extend(0, [], 1)
    return out


def _small_products(hi: int):
    for a in range(2, hi // 2 + 1):
        for b in range(2, min(a, hi // a) + 1):
            yield a, b, f"product(Z/{a}, Z/{b})"


def quotient_rings(hi: int) -> list[tuple[str, int, str, int]]:
    """Quotients by proper non-zero ideals, named by element indices."""
    out = []
    for n in range(4, hi + 1):
        for d in divisors(n)[1:-1]:
            out.append(("quotient", n, f"quotient(Z/{n}; {d})", tau(d)))
    for order, p, f in gf_moduli(4, hi):
        for g in monic_divisors(p, f):
            spec = f"quotient({poly_spec(p, f)}; {poly_index(p, g)})"
            out.append(("quotient", order, spec, poly_ideals(p, g)))
    for a, b, inner in _small_products(hi):
        # (d, 0) has index d*b and (0, e) index e; the quotient is Z/d x Z/e.
        for d in divisors(a)[:-1]:
            out.append(("quotient", a * b, f"quotient({inner}; {d * b})", tau(d) * tau(b)))
            for e in divisors(b)[1:-1]:
                spec = f"quotient({inner}; {d * b}, {e})"
                out.append(("quotient", a * b, spec, tau(d) * tau(e)))
    return out


def localized_rings(hi: int) -> list[tuple[str, int, str, int]]:
    """Localizations at maximal ideals, named by generators; the result is
    Z/q^v or GF(p)[x]/(g^e), a chain of v + 1 or e + 1 ideals."""
    out = []
    for n in range(2, hi + 1):
        for q in prime_factors(n):
            out.append(("localize", n, f"localize(Z/{n}; {q % n})", valuation(n, q) + 1))
    for order, p, f in gf_moduli(4, hi):
        for g in irreducible_divisors(p, f):
            spec = f"localize({poly_spec(p, f)}; {poly_index(p, g)})"
            out.append(("localize", order, spec, poly_multiplicity(p, g, f) + 1))
    for a, b, inner in _small_products(hi):
        # (q, 0) and (0, 1) generate qZ/a x Z/b; (1, 0) and (0, q) the other side.
        for q in prime_factors(a):
            spec = f"localize({inner}; {q % a * b}, 1)"
            out.append(("localize", a * b, spec, valuation(a, q) + 1))
        for q in prime_factors(b):
            spec = f"localize({inner}; {b}, {q % b})"
            out.append(("localize", a * b, spec, valuation(b, q) + 1))
    return out


# -- pools and seeded samples ------------------------------------------------------


def _band(order: int, edges: tuple[int, ...]) -> int:
    return sum(order > e for e in edges)


def stratified_pool(candidates, edges: tuple[int, ...], per_stratum: int, name: str):
    """At most ``per_stratum`` candidates of each (family, order band), chosen
    by a fixed generator so the pool is the same on every run; each stratum
    sorted by (ideal count, order, spec)."""
    strata: dict[tuple[str, int], list] = {}
    for family, order, spec, ideals in candidates:
        strata.setdefault((family, _band(order, edges)), []).append((ideals, order, spec))
    pool = {}
    for key in sorted(strata):
        members = sorted(set(strata[key]))
        rng = random.Random(f"{name}/{key[0]}/{key[1]}")
        chosen = sorted(rng.sample(members, min(per_stratum, len(members))))
        pool[key] = [spec for _, _, spec in chosen]
    return pool


def large_rings_pool() -> dict[tuple[str, int], list[str]]:
    """Rings of order 65-200, where the lattice is sampled: 9 per family and
    band of 25 orders."""
    candidates = (
        zmod_rings(65, 200) + gf_rings(65, 200)
        + product_rings(2, 65, 200) + product_rings(3, 65, 200)
    )
    candidates = [c for c in candidates if c[2] not in LARGE_FIXED]
    return stratified_pool(candidates, (89, 114, 139, 164), 9, "large_rings")


def spectrum_pool() -> dict[tuple[str, int], list[str]]:
    """Rings of order 2-64, quotients and localizations included: at most 70
    per family and band (orders 2-8, 9-16, 17-32, 33-48, 49-64)."""
    candidates = (
        zmod_rings(2, 64) + gf_rings(4, 64)
        + product_rings(2, 4, 64) + product_rings(3, 8, 64)
        + quotient_rings(64) + localized_rings(64)
    )
    return stratified_pool(candidates, (8, 16, 32, 48), 70, "spectrum_queries")


# A seed keeps KEEP of every OF consecutive rings of each sorted stratum.
LARGE_KEEP = (2, 3)
SPECTRUM_KEEP = (3, 5)


def _sample(pool, keep: tuple[int, int], rng: random.Random) -> list[str]:
    kept, of = keep
    picked = []
    for key in sorted(pool):
        offset = rng.randrange(of)
        picked += [s for i, s in enumerate(pool[key]) if (i + offset) % of < kept]
    return picked


def requests(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """The (key, argv) requests of one pass, without ``--json``."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "catalog16":
        return [(CATALOG16, CATALOG16.split())]
    if workload == "large_rings":
        specs = list(LARGE_FIXED) + _sample(large_rings_pool(), LARGE_KEEP, rng)
        rng.shuffle(specs)
        return [(spec, ["check", spec]) for spec in specs]
    if workload == "spectrum_queries":
        specs = _sample(spectrum_pool(), SPECTRUM_KEEP, rng)
        rng.shuffle(specs)
        return [(spec, ["spectrum", spec]) for spec in specs]
    raise ValueError(f"unknown workload {workload!r}")


def all_keys(workload: str) -> list[tuple[str, list[str]]]:
    """Every request any seed can send: what the reference must cover."""
    if workload == "catalog16":
        return requests(workload, 0)
    if workload == "large_rings":
        specs = list(LARGE_FIXED) + [s for v in large_rings_pool().values() for s in v]
        return [(spec, ["check", spec]) for spec in specs]
    if workload == "spectrum_queries":
        specs = [s for v in spectrum_pool().values() for s in v]
        return [(spec, ["spectrum", spec]) for spec in specs]
    raise ValueError(f"unknown workload {workload!r}")
