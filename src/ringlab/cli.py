"""Command-line harness: per-ring checks, catalog verification, spectra,
Groebner queries, and the certified counterexample ideal.

Exit status contract: 0 all checks passed (skips allowed), 1 at least one
check failed, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .bounds import Bounds
from .catalog import default_catalog
from .classify import RingContext, classify_catalog, classify_ring, npure_primes
from .errors import RingLabError
from .groebner import (
    buchberger,
    example1_certificate,
    ideal_member,
    order_by_name,
    parse_poly,
    parse_poly_list,
    radical_member,
)
from .report import build_document, write_json_atomic
from .rings import build
from .specs import parse_ring_spec

USAGE_ERROR = 2
CHECK_FAILURE = 1


def _bounds_from_args(args) -> Bounds:
    return Bounds(
        lattice=args.lattice_bound,
        element=args.element_bound,
        spp=args.spp_bound,
    )


def _bound(text: str) -> int:
    """A bound flag's value: an int >= 0; argparse names the flag on error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_bound_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lattice-bound", type=_bound, default=Bounds.lattice,
                        help="max ring order for full ideal-lattice operations")
    parser.add_argument("--element-bound", type=_bound, default=Bounds.element,
                        help="max ring order for element-level deciders")
    parser.add_argument("--spp-bound", type=_bound, default=Bounds.spp,
                        help="max ring order for pure-spectrum enumeration")


def _print_property_lines(doc: dict) -> None:
    for name, prop in doc["properties"].items():
        ran = [m for m in prop["methods"] if "value" in m]
        skipped = len(prop["methods"]) - len(ran)
        if not ran:
            print(f"  {name}: skipped ({skipped} methods over bounds)")
            continue
        tag = "" if prop["consistent"] else "  ** METHODS DISAGREE **"
        extra = f", {skipped} skipped" if skipped else ""
        line = f"  {name}: {str(prop['value']).lower()} ({len(ran)} methods agree{extra}){tag}"
        if prop["value"] is False:
            first = next(m for m in ran if m["value"] is False)
            witness = first.get("witness")
            if witness:
                line += f" witness={witness}"
        if prop["sampled"]:
            line += " [sampled]"
        print(line)


def cmd_check(args) -> int:
    bounds = _bounds_from_args(args)
    ring = build(parse_ring_spec(args.spec), bounds.element)
    properties = args.properties.split(",") if args.properties else None
    report = classify_ring(ring, properties=properties, bounds=bounds)
    doc = build_document([report], bounds)
    if args.json:
        write_json_atomic(args.json, doc)
    ring_doc = doc["rings"][0]
    print(f"ring {ring.name} (order {ring.order})")
    _print_property_lines(ring_doc)
    if ring_doc["ideals"]["items"]:
        n = len(ring_doc["ideals"]["items"])
        bad = [
            item for item in ring_doc["ideals"]["items"]
            if item["npure"]["consistent"] is False
        ]
        sampled = " (sampled)" if ring_doc["ideals"]["sampled"] else ""
        print(f"  ideal battery: {n} ideals{sampled}, {len(bad)} agreement failures")
    for check in ring_doc["theorem_checks"]:
        if check["status"] == "fail":
            print(f"  theorem {check['check']}: FAIL {check.get('detail')}")
    counts = ring_doc["counts"]
    print(
        f"checks: {counts['run']} run, {counts['passed']} passed, "
        f"{counts['failed']} failed, {counts['skipped']} skipped"
    )
    return CHECK_FAILURE if doc["aggregate"]["failed"] else 0


def cmd_verify_catalog(args) -> int:
    bounds = _bounds_from_args(args)
    rings = default_catalog(args.max_order, bounds)
    reports = classify_catalog(rings, bounds)
    doc = build_document(reports, bounds)
    if args.json:
        write_json_atomic(args.json, doc)
    agg = doc["aggregate"]
    print(
        f"catalog: {len(reports)} rings (max order {args.max_order}); "
        f"checks: {agg['run']} run, {agg['passed']} passed, "
        f"{agg['failed']} failed, {agg['skipped']} skipped"
    )
    for failure in agg["failures"]:
        print(f"  FAIL {failure['ring']} {failure['kind']}:{failure['name']} {failure['detail']}")
    return CHECK_FAILURE if agg["failed"] else 0


def cmd_spectrum(args) -> int:
    bounds = _bounds_from_args(args)
    ring = build(parse_ring_spec(args.spec), bounds.element)
    ctx = RingContext(ring, bounds)
    spect = ctx.spectrum

    def fmt(ideals) -> str:
        return ", ".join("(" + " ".join(map(str, i.elems)) + ")" for i in ideals) or "-"

    print(f"ring {ring.name} (order {ring.order})")
    print(f"  primes : {fmt(spect.primes)}")
    print(f"  minimal: {fmt(spect.minimal)}")
    print(f"  maximal: {fmt(spect.maximal)}")
    print(f"  npure  : {fmt(npure_primes(ctx))}")
    if ring.order <= bounds.spp:
        print(f"  spp    : {fmt(ctx.pure_spectrum.members)}")
    else:
        print(f"  spp    : skipped (order {ring.order} exceeds spp bound {bounds.spp})")
    return 0


def cmd_example1(args) -> int:
    cert = example1_certificate(args.prime)
    print(f"GF({cert.prime})[x,y,z], ideal (x, z^2, x^3 - y*z)")
    print(f"  reduced basis: {cert.basis}")
    for clause in cert.clauses:
        status = "pass" if clause.passed else "FAIL"
        print(f"  [{status}] {clause.clause} (expected {clause.expected}, got {clause.got})")
    print(f"{sum(c.passed for c in cert.clauses)}/{len(cert.clauses)} clauses pass")
    return 0 if cert.all_pass else CHECK_FAILURE


def cmd_groebner(args) -> int:
    order = order_by_name(args.order)
    vars = tuple(v.strip() for v in args.vars.split(",")) if args.vars else None
    gens = parse_poly_list(args.ideal, args.prime, vars)
    gb = buchberger(gens, order)
    print(f"reduced basis over GF({args.prime}), {args.order}:")
    for g in gb.generators:
        print(f"  {g.text(order)}")
    if args.member:
        f = parse_poly(args.member, args.prime, gb.vars)
        verdict = ideal_member(f, gb)
        print(f"member {f.text(order)}: {verdict}")
    if args.radical_member:
        f = parse_poly(args.radical_member, args.prime, gb.vars)
        verdict = radical_member(f, gens, order)
        print(f"radical member {f.text(order)}: {verdict}")
    return 0


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ringlab",
        description="Exact verification laboratory for finite commutative rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="full property report for one ring")
    p_check.add_argument("spec", help="ring spec, e.g. Z/12 or product(Z/4, Z/3)")
    p_check.add_argument("--properties", help="comma-separated property filter")
    p_check.add_argument("--json", help="write the report document to this path")
    _add_bound_flags(p_check)
    p_check.set_defaults(fn=cmd_check)

    p_cat = sub.add_parser("verify-catalog", help="cross-validate the whole catalog")
    p_cat.add_argument("--max-order", type=int, default=16)
    p_cat.add_argument("--json", help="write the report document to this path")
    _add_bound_flags(p_cat)
    p_cat.set_defaults(fn=cmd_verify_catalog)

    p_spec = sub.add_parser("spectrum", help="prime/minimal/maximal/pure spectra")
    p_spec.add_argument("spec")
    _add_bound_flags(p_spec)
    p_spec.set_defaults(fn=cmd_spectrum)

    p_ex = sub.add_parser("example1", help="certify the non-primary quotient ideal")
    p_ex.add_argument("-p", "--prime", type=int, default=2)
    p_ex.set_defaults(fn=cmd_example1)

    p_gb = sub.add_parser("groebner", help="reduced basis and membership queries")
    p_gb.add_argument("-p", "--prime", type=int, required=True)
    p_gb.add_argument("--order", choices=("lex", "grevlex"), default="lex")
    p_gb.add_argument("--ideal", required=True, help="comma-separated generators")
    p_gb.add_argument("--member", help="polynomial to test for ideal membership")
    p_gb.add_argument("--radical-member", help="polynomial to test for radical membership")
    p_gb.add_argument("--vars", help="comma-separated variable precedence (default: alphabetical)")
    p_gb.set_defaults(fn=cmd_groebner)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (RingLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
