"""Pure helpers of the layered benchmark: statistics, span self time, and
the output checks.  Kept free of process handling so the unit tests in
test_benchlib.py can exercise them directly."""

import hashlib
import json
import math

# Wall-clock members of a run report's deterministic section.  They are the
# only bytes allowed to differ between a served, a local and an in-process
# run of the same program and ladder.
WALL_CLOCK_KEYS = ("seconds", "total_seconds", "metric_seconds")

# A tail percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10


def median(values):
    """Median of a non-empty sequence (mean of the middle two when even)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values, q):
    """The q-quantile (0 < q < 1) by linear interpolation, or None when
    fewer than TAIL_SAMPLES samples lie beyond it: a p90 needs at least 100
    samples.  Medians are reported with median() whatever the count."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0 or round(n * (1 - q), 9) < TAIL_SAMPLES:
        return None
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its direct children cover.

    spans is a list of (name, start, end, parent, job) with parent the
    index of the parent span or -1.  Returns a list of self times, one per
    span, in the spans' units."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        parent = span[3]
        if parent >= 0:
            children[parent].append(index)
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        reach = start
        intervals = sorted((max(spans[c][1], start), min(spans[c][2], end))
                           for c in children[index])
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def scrub(value):
    """Drops the wall-clock members from a parsed report section."""
    if isinstance(value, dict):
        return {k: scrub(v) for k, v in value.items()
                if k not in WALL_CLOCK_KEYS}
    if isinstance(value, list):
        return [scrub(v) for v in value]
    return value


def deterministic_section(report_line):
    """The scrubbed deterministic section of an intro-run-report-v1 line,
    or None when the line is not such a report."""
    try:
        doc = json.loads(report_line)
    except ValueError:
        return None
    if not isinstance(doc, dict) or doc.get("schema") != "intro-run-report-v1":
        return None
    section = doc.get("deterministic")
    return scrub(section) if isinstance(section, dict) else None


def same_result(report_line, reference_section):
    """True when a product report line carries exactly the deterministic
    section of the in-process reference, members in the same order, once
    the wall-clock members are dropped from both."""
    got = deterministic_section(report_line)
    want = scrub(json.loads(reference_section))
    return got is not None and json.dumps(got) == json.dumps(want)


def rung_counts(section):
    """[(level, round, tuples, pops)] per ladder attempt of a scrubbed
    deterministic section."""
    attempts = section.get("outcome", {}).get("attempts", [])
    rows = []
    for attempt in attempts:
        stats = attempt.get("stats", {})
        rows.append((attempt.get("level"), attempt.get("tightened_round", 0),
                     stats.get("var_points_to_tuples", 0)
                     + stats.get("field_points_to_tuples", 0),
                     stats.get("worklist_pops", 0)))
    return rows


def digest(counts):
    """Stable hash of a JSON-able value."""
    text = json.dumps(counts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
