"""Arithmetic of the benchmark: medians, supported percentiles, ratios and
span self time. Kept free of I/O so test_stats.py can pin it down."""

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond
# it; with fewer, one outlier decides the value.
MIN_BEYOND = 10

TAIL_PERCENTILES = (0.999, 0.99, 0.9)


def median(values):
    """Median of a non-empty list, else None."""
    return statistics.median(values) if values else None


def percentile(values, q, min_beyond=MIN_BEYOND):
    """Nearest-rank q-quantile of `values`, or None unless at least
    `min_beyond` samples lie above it."""
    n = len(values)
    if n == 0 or not 0 < q < 1:
        return None
    rank = max(1, math.ceil(q * n))  # 1-based rank of the quantile
    if n - rank < min_beyond:
        return None
    return sorted(values)[rank - 1]


def tail(values):
    """(label, value) of the highest of TAIL_PERCENTILES that has
    MIN_BEYOND samples beyond it, or None."""
    for q in TAIL_PERCENTILES:
        value = percentile(values, q)
        if value is not None:
            return "p%g" % (q * 100), value
    return None


def ratio(numerator, denominator):
    """numerator / denominator, or None (absent) when the denominator is 0
    or either side is missing. Never 0-for-undefined, never NaN."""
    if numerator is None or denominator is None or denominator == 0:
        return None
    return numerator / denominator


def union_length(intervals):
    """Total length covered by a list of (start, end) intervals, counting
    overlapping stretches once."""
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans):
    """Self time of each span: its duration minus the union of its
    children's intervals, clipped to the span. `spans` is a list of
    (name, start, end, parent_index, trace_id)."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        parent = span[3]
        if parent is not None and parent >= 0:
            children[parent].append(index)
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = union_length(
            [(max(start, spans[c][1]), min(end, spans[c][2]))
             for c in children[index]
             if spans[c][2] > start and spans[c][1] < end])
        result.append((end - start) - covered)
    return result


def speed_adjusted(wall, cpu, factor, wait_factor=1.0):
    """A wall time whose CPU share is scaled by `factor` and whose waiting
    share (wall minus CPU, never negative) is scaled by `wait_factor`."""
    cpu = min(cpu, wall)
    return (wall - cpu) * wait_factor + cpu * factor
