#!/usr/bin/env python3
"""Validate bench --json reports against the common schema.

Every bench binary emits {bench, config, rows[], wallMs, counters{}} when
run with --json=<path>. CI runs this validator over each artifact and fails
the build on:
  - unparseable JSON, or JSON containing NaN/Infinity literals (the C++
    writer renders non-finite doubles as null, so a literal NaN means a
    foreign/corrupt file);
  - missing or mis-typed schema keys;
  - null or negative values under any energy-like key (joules/energy), a
    null anywhere the writer sanitised a non-finite measurement;
  - malformed robustness fields: a row's "quality" must be one of
    ok/retried/degraded/invalid, "flagged" must be a bool, and any
    retry-count key must be a non-negative integer. When the report's
    config names an active fault plan, the counters must include at least
    one "fault."-prefixed degradation counter (the decorator publishes
    fault.devices on construction, so a silent fault layer is a bug);
  - malformed speedup-ratio fields: any key containing "speedup" (the
    engine-pair rows bench_vm_micro derives) must hold a
    strictly positive finite number — a null means the C++ writer
    sanitised a non-finite ratio, and zero/negative means a corrupt
    timing fed the division;
  - inconsistent EnginePair rows (the superinstruction/threaded-dispatch
    speedup rows): each "EnginePair/<kernel>" row must carry strictly
    positive "treeSecondsPerIter" and "bcvmSecondsPerIter" timings, and
    its "speedupBcvmOverTree" must equal their ratio — a drift means the
    row was hand-edited or the writer desynced from its inputs;
  - malformed tier provenance: wherever a row carries a "tier" it must be
    one of full/sampled, and a "samplingRate" must be a number in
    (0, 1] — rates outside that range mean the count-weighted
    extrapolation divided by a bogus population;
  - a broken overhead/error frontier (bench_tier_frontier): within each
    workload the full-tier row must report zero attribution error (it IS
    the ground truth) and the sampled rows' attribErrorPct must be
    monotone non-increasing as the sampling rate approaches 1 (small
    tolerance for discretisation noise) — an inverted frontier means the
    extrapolation or the gate's population counts are wrong;
  - malformed service-throughput fields: any key containing "persec"
    (bench_jepod's jobsPerSec) must hold a strictly positive finite
    number, and any key containing "latency" a non-negative one. A
    bench_jepod "Clients/<n>" or "Chaos/<n>" sweep row must additionally
    carry jobsPerSec, p50LatencyMs and p99LatencyMs with p99 >= p50, and
    a cacheHitRate inside [0, 1] — zero throughput or an inverted tail
    means the sweep harness lost jobs or mismeasured;
  - malformed resilience bookkeeping: a bench_jepod report must publish
    the daemon's cancellation counters (jepod.cancel.deadline and
    jepod.cancel.disconnect — registered at daemon construction, so their
    absence means the obs snapshot is stale or foreign). A "Chaos/<n>"
    row must carry non-negative integer "retries" and "reconnects" and a
    "failedJobs" of exactly 0 (under a transport-fault plan every job
    must still succeed via retry — lost jobs mean the resilience layer
    dropped work). When the config names an active transportPlan, the
    counters must include at least one "fault.transport."-prefixed
    counter (the FaultyStream publishes fault.transport.streams on
    construction, so a silent plan is a bug);
  - malformed bootstrap intervals: a row carrying any interval field
    (bench_table4_weka --intervals) must carry the whole set, each
    Lo/Hi pair must bracket its reported point estimate
    (lo <= point <= hi for base/opt joules and the improvement pct),
    the retried/degraded fractions must sit in [0, 1], and the
    published widen factor must equal 1 + 0.35*retried + 1.0*degraded
    — the formula that makes interval width monotone in the degraded
    fraction, so a drift here silently breaks the quality-widening
    contract;
  - a broken predictor ablation (bench_predictor): the report must
    carry both the "with-dynamic" and "static-only" rows with sane
    train/test counts and non-negative errors, and the with-dynamic
    held-out relative error must be strictly below the static-only
    one — the reproduced ordering; an inversion means the dynamic
    execution-time feature stopped carrying signal.

Usage: check_bench_json.py report.json [report2.json ...]

Standard library only.
"""
import json
import sys


ENERGY_MARKERS = ("joules", "energy")
QUALITY_VALUES = ("ok", "retried", "degraded", "invalid")
RETRY_MARKERS = ("retries", "faultretries", "readretries")
TIER_VALUES = ("full", "sampled")
# Slack (percentage points) for the frontier monotonicity check: phase
# sampling is deterministic but discrete, so adjacent rates can tie or
# wobble by a hair without the extrapolation being wrong.
FRONTIER_TOLERANCE_PCT = 0.5


def fail(path, msg):
    print(f"{path}: {msg}", file=sys.stderr)
    return 1


def is_energy_key(key):
    lowered = key.lower()
    return any(marker in lowered for marker in ENERGY_MARKERS)


def reject_constant(name):
    raise ValueError(f"non-finite JSON literal {name}")


def check_energy_values(path, obj, where):
    """Recursively reject null/negative values under energy-like keys."""
    errors = 0
    if isinstance(obj, dict):
        for key, value in obj.items():
            if is_energy_key(key):
                if value is None:
                    errors += fail(path, f"{where}.{key} is null "
                                   "(non-finite measurement)")
                elif isinstance(value, (int, float)) and value < 0:
                    errors += fail(path, f"{where}.{key} is negative "
                                   f"({value})")
                elif not isinstance(value, (int, float)) and value is not None:
                    errors += fail(path, f"{where}.{key} is not numeric")
            errors += check_energy_values(path, value, f"{where}.{key}")
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            errors += check_energy_values(path, item, f"{where}[{i}]")
    return errors


def check_speedup_values(path, row, where):
    """Reject null/non-positive values under speedup-ratio keys."""
    errors = 0
    for key, value in row.items():
        if "speedup" not in key.lower():
            continue
        if value is None:
            errors += fail(path, f"{where}.{key} is null "
                           "(non-finite ratio)")
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            errors += fail(path, f"{where}.{key} is not numeric")
        elif value <= 0:
            errors += fail(path, f"{where}.{key} must be strictly "
                           f"positive, got {value}")
    return errors


def check_throughput_values(path, row, where):
    """Reject malformed rate ("...PerSec") and latency fields anywhere."""
    errors = 0
    for key, value in row.items():
        lowered = key.lower()
        if "persec" in lowered:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                errors += fail(path, f"{where}.{key} is not numeric")
            elif value <= 0:
                errors += fail(path, f"{where}.{key} must be strictly "
                               f"positive, got {value}")
        elif "latency" in lowered:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                errors += fail(path, f"{where}.{key} is not numeric")
            elif value < 0:
                errors += fail(path, f"{where}.{key} is negative ({value})")
    return errors


def check_jepod_row(path, row, where):
    """Validate a bench_jepod client-sweep/chaos row's required fields."""
    name = row.get("name")
    if not (isinstance(name, str)
            and (name.startswith("Clients/") or name.startswith("Chaos/"))):
        return 0
    errors = 0
    for key in ("jobsPerSec", "p50LatencyMs", "p99LatencyMs"):
        value = row.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            errors += fail(path, f"{where} ({name}): '{key}' must be a "
                           f"number, got {value!r}")
    p50, p99 = row.get("p50LatencyMs"), row.get("p99LatencyMs")
    if isinstance(p50, (int, float)) and isinstance(p99, (int, float)) \
            and not isinstance(p50, bool) and not isinstance(p99, bool) \
            and p99 < p50:
        errors += fail(path, f"{where} ({name}): p99LatencyMs {p99:.6g} < "
                       f"p50LatencyMs {p50:.6g}")
    rate = row.get("cacheHitRate")
    if isinstance(rate, bool) or not isinstance(rate, (int, float)) \
            or rate < 0 or rate > 1:
        errors += fail(path, f"{where} ({name}): 'cacheHitRate' must be a "
                       f"number in [0, 1], got {rate!r}")
    if name.startswith("Chaos/"):
        for key in ("retries", "reconnects"):
            value = row.get(key)
            if isinstance(value, bool) or not isinstance(value, int) \
                    or value < 0:
                errors += fail(path, f"{where} ({name}): '{key}' must be a "
                               f"non-negative integer, got {value!r}")
        failed = row.get("failedJobs")
        if failed != 0:
            errors += fail(path, f"{where} ({name}): 'failedJobs' must be 0 "
                           f"(retries absorb transport faults), got "
                           f"{failed!r}")
    return errors


def check_engine_pair_row(path, row, where):
    """Validate the EnginePair/<kernel> speedup rows internally."""
    name = row.get("name")
    if not (isinstance(name, str) and name.startswith("EnginePair/")):
        return 0
    errors = 0
    values = {}
    for key in ("treeSecondsPerIter", "bcvmSecondsPerIter",
                "speedupBcvmOverTree"):
        value = row.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or value <= 0:
            errors += fail(path, f"{where} ({name}): '{key}' must be a "
                           f"strictly positive number, got {value!r}")
        else:
            values[key] = value
    if len(values) == 3:
        expected = (values["treeSecondsPerIter"]
                    / values["bcvmSecondsPerIter"])
        got = values["speedupBcvmOverTree"]
        if abs(got - expected) > 1e-6 * max(got, expected):
            errors += fail(path, f"{where} ({name}): speedupBcvmOverTree "
                           f"{got:.6g} != tree/bcvm ratio {expected:.6g}")
    return errors


def check_tier_values(path, row, where):
    """Validate tier-provenance fields wherever a row carries them."""
    errors = 0
    if "tier" in row and row["tier"] not in TIER_VALUES:
        errors += fail(path, f"{where}.tier is {row['tier']!r}, expected "
                       f"one of {'/'.join(TIER_VALUES)}")
    if "samplingRate" in row:
        rate = row["samplingRate"]
        if isinstance(rate, bool) or not isinstance(rate, (int, float)) \
                or not 0 < rate <= 1:
            errors += fail(path, f"{where}.samplingRate must be a number "
                           f"in (0, 1], got {rate!r}")
    return errors


def check_tier_frontier(path, doc):
    """bench_tier_frontier only: full rows are the zero-error ground truth
    and sampled rows must trace a monotone frontier — attribution error
    non-increasing as the sampling rate approaches 1, per workload."""
    errors = 0
    sampled = {}
    for i, row in enumerate(doc.get("rows", [])):
        if not isinstance(row, dict):
            continue
        name = row.get("name")
        if not isinstance(name, str) or "/" not in name:
            continue
        if "attribErrorPct" not in row:
            continue
        err = row["attribErrorPct"]
        where = f"rows[{i}] ({name})"
        if isinstance(err, bool) or not isinstance(err, (int, float)) \
                or err < 0:
            errors += fail(path, f"{where}: 'attribErrorPct' must be a "
                           f"non-negative number, got {err!r}")
            continue
        workload = name.split("/", 1)[0]
        tier = row.get("tier")
        if tier == "full":
            if err != 0:
                errors += fail(path, f"{where}: full tier must report zero "
                               f"attribution error (it is the ground "
                               f"truth), got {err!r}")
        elif tier == "sampled":
            rate = row.get("samplingRate")
            if isinstance(rate, (int, float)) and not isinstance(rate, bool):
                sampled.setdefault(workload, []).append((rate, err, name))
    for workload, entries in sampled.items():
        entries.sort(key=lambda entry: entry[0])  # coarsest rate first
        for (_, coarse_err, coarse), (_, fine_err, fine) in \
                zip(entries, entries[1:]):
            if fine_err > coarse_err + FRONTIER_TOLERANCE_PCT:
                errors += fail(path, f"{workload}: attribution error rose "
                               f"from {coarse_err:.4g}% ({coarse}) to "
                               f"{fine_err:.4g}% ({fine}) as the sampling "
                               f"rate increased — frontier not monotone")
    return errors


# The per-quality widening coefficients, mirroring src/stats/bootstrap.cpp
# (kRetriedWiden / kDegradedWiden). The validator recomputes the factor so
# a C++/validator drift fails loudly instead of silently re-narrowing CIs.
RETRIED_WIDEN = 0.35
DEGRADED_WIDEN = 1.00
INTERVAL_KEYS = (
    "basePackageJoulesLo", "basePackageJoulesHi",
    "optPackageJoulesLo", "optPackageJoulesHi",
    "packageImprovementLo", "packageImprovementHi",
    "intervalValidRuns", "intervalExcludedRuns",
    "retriedFraction", "degradedFraction",
    "intervalWidenFactor", "intervalPointEstimate",
)
# (lo key, point-estimate key, hi key): each interval must bracket the
# row's REPORTED value, not some internal re-estimate.
INTERVAL_BRACKETS = (
    ("basePackageJoulesLo", "basePackageJoules", "basePackageJoulesHi"),
    ("optPackageJoulesLo", "optPackageJoules", "optPackageJoulesHi"),
    ("packageImprovementLo", "packageImprovementPct",
     "packageImprovementHi"),
)


def finite_number(value):
    return (not isinstance(value, bool)
            and isinstance(value, (int, float)))


def check_interval_fields(path, row, where):
    """Validate bootstrap-interval fields on rows that carry any of them."""
    present = [key for key in INTERVAL_KEYS if key in row]
    if not present:
        return 0
    errors = 0
    missing = [key for key in INTERVAL_KEYS if key not in row]
    if missing:
        errors += fail(path, f"{where}: interval fields are all-or-nothing "
                       f"but {', '.join(missing)} are missing "
                       f"(present: {', '.join(present)})")
        return errors
    for lo_key, point_key, hi_key in INTERVAL_BRACKETS:
        lo, point, hi = row[lo_key], row.get(point_key), row[hi_key]
        if not (finite_number(lo) and finite_number(point)
                and finite_number(hi)):
            errors += fail(path, f"{where}: {lo_key}/{point_key}/{hi_key} "
                           f"must all be numbers, got "
                           f"{lo!r}/{point!r}/{hi!r}")
            continue
        if not lo <= point <= hi:
            errors += fail(path, f"{where}: interval [{lo:.6g}, {hi:.6g}] "
                           f"does not bracket the reported {point_key} "
                           f"{point:.6g}")
    for key in ("retriedFraction", "degradedFraction"):
        value = row[key]
        if not finite_number(value) or not 0 <= value <= 1:
            errors += fail(path, f"{where}.{key} must be a number in "
                           f"[0, 1], got {value!r}")
    for key in ("intervalValidRuns", "intervalExcludedRuns"):
        value = row[key]
        if isinstance(value, bool) or not isinstance(value, int) \
                or value < 0:
            errors += fail(path, f"{where}.{key} must be a non-negative "
                           f"integer, got {value!r}")
    if not isinstance(row["intervalPointEstimate"], bool):
        errors += fail(path, f"{where}.intervalPointEstimate must be a "
                       f"boolean, got {row['intervalPointEstimate']!r}")
    retried = row["retriedFraction"]
    degraded = row["degradedFraction"]
    factor = row["intervalWidenFactor"]
    if finite_number(retried) and finite_number(degraded) \
            and finite_number(factor):
        expected = 1.0 + RETRIED_WIDEN * retried + DEGRADED_WIDEN * degraded
        if abs(factor - expected) > 1e-9 * max(1.0, expected):
            errors += fail(path, f"{where}: intervalWidenFactor "
                           f"{factor:.9g} != 1 + {RETRIED_WIDEN}*retried + "
                           f"{DEGRADED_WIDEN}*degraded = {expected:.9g} — "
                           f"quality widening no longer monotone in the "
                           f"degraded fraction")
    return errors


def check_predictor_report(path, doc):
    """bench_predictor only: both ablation variants present and the
    with-dynamic held-out error strictly below static-only."""
    errors = 0
    variants = {}
    for i, row in enumerate(doc.get("rows", [])):
        if not isinstance(row, dict):
            continue
        name = row.get("name")
        if name not in ("with-dynamic", "static-only"):
            continue
        where = f"rows[{i}] ({name})"
        if name in variants:
            errors += fail(path, f"{where}: duplicate ablation row")
            continue
        ok = True
        for key in ("meanAbsErrorJoules", "relativeError"):
            value = row.get(key)
            if not finite_number(value) or value < 0:
                errors += fail(path, f"{where}: '{key}' must be a "
                               f"non-negative number, got {value!r}")
                ok = False
        for key in ("trainMethods", "testMethods"):
            value = row.get(key)
            if isinstance(value, bool) or not isinstance(value, int) \
                    or value <= 0:
                errors += fail(path, f"{where}: '{key}' must be a positive "
                               f"integer, got {value!r}")
                ok = False
        if ok:
            variants[name] = (row["relativeError"], where)
    for name in ("with-dynamic", "static-only"):
        if name not in variants:
            errors += fail(path, f"bench_predictor report is missing a "
                           f"well-formed '{name}' row")
    if len(variants) == 2:
        dyn, dyn_where = variants["with-dynamic"]
        static, static_where = variants["static-only"]
        if dyn >= static:
            errors += fail(path, f"{dyn_where}: with-dynamic relativeError "
                           f"{dyn:.6g} must be strictly below static-only "
                           f"{static:.6g} ({static_where}) — the dynamic "
                           f"feature no longer beats the static-only fit")
    return errors


def check_row_robustness(path, row, where):
    """Validate per-row measurement-quality bookkeeping where present."""
    errors = 0
    if "quality" in row and row["quality"] not in QUALITY_VALUES:
        errors += fail(path, f"{where}.quality is {row['quality']!r}, "
                       f"expected one of {'/'.join(QUALITY_VALUES)}")
    if "flagged" in row and not isinstance(row["flagged"], bool):
        errors += fail(path, f"{where}.flagged must be a boolean")
    for key, value in row.items():
        if key.lower() in RETRY_MARKERS:
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 0:
                errors += fail(path, f"{where}.{key} must be a "
                               "non-negative integer")
    return errors


def has_active_fault_plan(config):
    plan = config.get("faultPlan")
    return isinstance(plan, str) and plan not in ("", "none")


def has_active_transport_plan(config):
    plan = config.get("transportPlan")
    return isinstance(plan, str) and plan not in ("", "none")


def check_file(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f, parse_constant=reject_constant)
    except (OSError, ValueError) as exc:
        return fail(path, f"unreadable or invalid JSON: {exc}")

    # A baseline bundle (BENCH_PR10.json) is an array of reports.
    if isinstance(doc, list):
        if not doc:
            return fail(path, "baseline array is empty")
        return sum(check_report(path, report) for report in doc)
    return check_report(path, doc)


def check_report(path, doc):
    errors = 0
    if not isinstance(doc, dict):
        return fail(path, "report is not an object")

    for key in ("bench", "config", "rows", "wallMs", "counters"):
        if key not in doc:
            errors += fail(path, f"missing required key '{key}'")
    if errors:
        return errors

    if not isinstance(doc["bench"], str) or not doc["bench"]:
        errors += fail(path, "'bench' must be a non-empty string")
    if not isinstance(doc["config"], dict):
        errors += fail(path, "'config' must be an object")
    if not isinstance(doc["rows"], list):
        errors += fail(path, "'rows' must be an array")
    else:
        for i, row in enumerate(doc["rows"]):
            if not isinstance(row, dict):
                errors += fail(path, f"rows[{i}] is not an object")
            else:
                errors += check_row_robustness(path, row, f"rows[{i}]")
                errors += check_interval_fields(path, row, f"rows[{i}]")
                errors += check_tier_values(path, row, f"rows[{i}]")
                errors += check_speedup_values(path, row, f"rows[{i}]")
                errors += check_engine_pair_row(path, row, f"rows[{i}]")
                errors += check_throughput_values(path, row, f"rows[{i}]")
                if doc.get("bench") == "bench_jepod":
                    errors += check_jepod_row(path, row, f"rows[{i}]")
    if not isinstance(doc["wallMs"], (int, float)) or doc["wallMs"] < 0:
        errors += fail(path, "'wallMs' must be a non-negative number")
    if not isinstance(doc["counters"], dict):
        errors += fail(path, "'counters' must be an object")
    else:
        for name, value in doc["counters"].items():
            if not isinstance(value, int) or value < 0:
                errors += fail(path, f"counters['{name}'] must be a "
                               "non-negative integer")

    if isinstance(doc["config"], dict) and isinstance(doc["counters"], dict) \
            and has_active_fault_plan(doc["config"]):
        if not any(name.startswith("fault.") for name in doc["counters"]):
            errors += fail(path, "config names an active fault plan but no "
                           "'fault.'-prefixed counter was published")

    if isinstance(doc["config"], dict) and isinstance(doc["counters"], dict) \
            and has_active_transport_plan(doc["config"]):
        if not any(name.startswith("fault.transport.")
                   for name in doc["counters"]):
            errors += fail(path, "config names an active transport plan but "
                           "no 'fault.transport.'-prefixed counter was "
                           "published")

    if doc.get("bench") == "bench_tier_frontier":
        errors += check_tier_frontier(path, doc)

    if doc.get("bench") == "bench_predictor":
        errors += check_predictor_report(path, doc)

    if doc.get("bench") == "bench_jepod" and isinstance(doc["counters"], dict):
        for name in ("jepod.cancel.deadline", "jepod.cancel.disconnect"):
            if name not in doc["counters"]:
                errors += fail(path, f"bench_jepod counters are missing "
                               f"'{name}' (cancellation instruments are "
                               "registered at daemon construction)")

    errors += check_energy_values(path, doc, doc.get("bench", "?"))
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    errors = 0
    for path in argv[1:]:
        file_errors = check_file(path)
        if not file_errors:
            print(f"{path}: OK")
        errors += file_errors
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
