"""Per-layer metrics of a traced run, named after ringlab's modules.

Each metric is derived from the spans of the functions it names: ``calls``
counts them, ``self_s`` sums their self time and ``per_ring`` divides the
call count by the rings the requests covered.  A metric whose function is
no longer there to wrap is reported as absent rather than as zero.
"""

from __future__ import annotations

PROPERTIES = (
    "gpf_ring", "mid_ring", "mp_ring", "nj_ring", "pf_ring", "pp_ring",
    "primary_ring", "reduced", "semiprimitive", "von_neumann_regular",
    "zero_dimensional",
)

# (metric, unit, kind, functions); a property span is named
# "classify.classify_property:<property>".
SPAN_METRICS = [
    ("rings.build_calls", "count", "calls", ["rings.build"]),
    ("rings.build_s", "s", "self_s", ["rings.build"]),
    ("rings.validate_calls", "count", "calls", ["rings.validate_ring_tables"]),
    ("rings.validate_s", "s", "self_s", ["rings.validate_ring_tables"]),
    ("rings.validate_per_ring", "count/ring", "per_ring", ["rings.validate_ring_tables"]),
    ("rings.quotient_calls", "count", "calls", ["rings.quotient_ring"]),
    ("rings.localize_calls", "count", "calls", ["rings.localize_at_mask"]),
    ("ideals.lattice_calls", "count", "calls", ["ideals.all_ideals"]),
    ("ideals.lattice_s", "s", "self_s", ["ideals.all_ideals"]),
    ("ideals.lattice_per_ring", "count/ring", "per_ring", ["ideals.all_ideals"]),
    ("ideals.maximal_calls", "count", "calls", ["ideals.is_maximal_ideal"]),
    ("ideals.jacobson_s", "s", "self_s", ["ideals.jacobson_radical"]),
    ("ideals.radical_calls", "count", "calls", ["ideals.radical"]),
    ("ideals.radical_s", "s", "self_s", ["ideals.radical"]),
    ("spectra.spectrum_s", "s", "self_s", ["spectra.spectrum"]),
    ("spectra.pure_ideals_s", "s", "self_s", ["spectra.pure_ideals"]),
    ("spectra.pure_spectrum_calls", "count", "calls", ["spectra.pure_spectrum"]),
    ("spectra.pure_spectrum_s", "s", "self_s", ["spectra.pure_spectrum"]),
] + [
    (f"classify.property_s.{p}", "s", "self_s", [f"classify.classify_property:{p}"])
    for p in PROPERTIES
] + [
    ("classify.ideal_battery_calls", "count", "calls", ["classify.classify_ideal"]),
    ("classify.ideal_battery_s", "s", "self_s", ["classify.classify_ideal"]),
    ("classify.theorems_s", "s", "self_s", ["classify.verify_theorems"]),
    ("catalog.generate_s", "s", "self_s", ["catalog.default_catalog"]),
    ("report.document_s", "s", "self_s", ["report.build_document", "report.ring_report_dict"]),
    ("report.dumps_s", "s", "self_s", ["report.dumps_document", "report.write_json_atomic"]),
]

# Metrics measured by the benchmark itself: from the requests' outputs, and
# trace.overhead_s as the traced pass's span count times the cost of a span.
OUTPUT_METRICS = [
    ("classify.checks_run", "count"),
    ("classify.checks_skipped", "count"),
    ("report.bytes", "B"),
    ("trace.overhead_s", "s"),
]

UNITS = {name: unit for name, unit, _, _ in SPAN_METRICS} | dict(OUTPUT_METRICS)


def layer_metrics(trace: dict, traced_records: list) -> tuple[dict[str, float], list[str]]:
    """Metric values of a traced pass, and the metrics found absent."""
    totals, wrapped = trace["totals"], set(trace["wrapped"])
    rings = sum(rec[-1]["rings"] for rec in traced_records)
    values: dict[str, float] = {}
    absent = []
    for name, _, kind, spans in SPAN_METRICS:
        if any(span.split(":")[0] not in wrapped for span in spans):
            absent.append(name)
            continue
        calls = sum(totals.get(span, {}).get("calls", 0) for span in spans)
        if kind == "calls":
            values[name] = calls
        elif kind == "per_ring":
            values[name] = calls / rings
        else:
            values[name] = sum(totals.get(span, {}).get("self_s", 0.0) for span in spans)
    infos = [rec[-1] for rec in traced_records]
    values["classify.checks_run"] = sum(i.get("run") or 0 for i in infos)
    values["classify.checks_skipped"] = sum(i.get("skipped") or 0 for i in infos)
    values["report.bytes"] = sum(i.get("bytes", 0) for i in infos)
    values["trace.overhead_s"] = trace["spans"] * trace["span_cost_s"]
    return values, absent
