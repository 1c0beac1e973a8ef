"""Pure arithmetic of the benchmark: percentiles and span self times.

Kept free of imports from the library so the unit tests in tests/ can check
it on hand-made data.
"""

from __future__ import annotations

from collections.abc import Sequence


def percentile(values: Sequence[float], p: float) -> float:
    """The p-th percentile (0 <= p <= 100), interpolating linearly between ranks.

    Rank r = p/100 * (n - 1) over the sorted values, the rule of
    numpy.percentile's default method.
    """
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile {p} outside [0, 100]")
    ordered = sorted(values)
    rank = p / 100 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> list[float]:
    """Each span's duration minus the time its direct child spans cover.

    Spans come from one thread of synchronous calls, so the children of a
    span are disjoint intervals inside it and the time they cover is the sum
    of their durations.  parents[i] is the index of span i's parent, or -1.
    """
    child = [0.0] * len(starts)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child[parent] += ends[i] - starts[i]
    return [ends[i] - starts[i] - child[i] for i in range(len(starts))]


def attribute(
    names: Sequence[int],
    starts: Sequence[float],
    ends: Sequence[float],
    parents: Sequence[int],
    root_name: int,
) -> tuple[dict[int, float], float]:
    """Self time summed per span name, and the remainder covered by no layer.

    Spans named root_name are the harness's per-request spans; their self
    time is harness time, not layer time, and goes to the remainder.  The
    per-name sums plus the remainder add up to the summed duration of the
    root spans.
    """
    per_name: dict[int, float] = {}
    remainder = 0.0
    for name, own in zip(names, self_times(starts, ends, parents)):
        if name == root_name:
            remainder += own
        else:
            per_name[name] = per_name.get(name, 0.0) + own
    return per_name, remainder
