"""Brute-force reference implementations backing the test suite and checks.

Everything here recomputes a main-path result by a separate route: the
Dilworth width as the largest antichain, the RSK ladders by Schensted row
insertion, permissibility by trying every chain against every injective
increasing assignment, depths and one peel by scanning every pair of
Segment objects, the string form by a double loop over positions, the BZ
derivative by a step at every index, tableau counts by hook lengths, and
peeling determinism by re-running every admissible depth-class enumeration.
Oracles refuse oversized instances instead of sampling.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from math import comb, factorial

from .errors import PreconditionError, SizeGuardExceeded
from .multisegment import Multisegment, Segment
from .rsk import Pair, _depth_classes, _kv_from_classes, _pairs
from .strings import single_derivative
from .tableaux import Partition

PERMISSIBLE_GUARD = 8
KV_GUARD = 6


@dataclass(frozen=True, slots=True)
class EnumerationBounds:
    """Closed support interval and a cap on the number of segments."""

    support_min: int
    support_max: int
    max_segments: int

    def __post_init__(self):
        if self.support_min > self.support_max:
            raise PreconditionError(
                f"support minimum {self.support_min} exceeds maximum {self.support_max}"
            )
        if self.max_segments < 0:
            raise PreconditionError(
                f"segment cap must be non-negative, got {self.max_segments}"
            )

    def segments(self) -> tuple[Segment, ...]:
        """All segments inside the support box, in lexicographic order."""
        return tuple(
            Segment(b, e)
            for b in range(self.support_min, self.support_max + 1)
            for e in range(b, self.support_max + 1)
        )

    def count(self) -> int:
        """Multisets of at most k of the n pool segments: sum_{j<=k} C(n+j-1, j) = C(n+k, k)."""
        width = self.support_max - self.support_min + 1
        pool = width * (width + 1) // 2
        return comb(pool + self.max_segments, self.max_segments)


def enumerate_multisegments(bounds: EnumerationBounds) -> Iterator[Multisegment]:
    """Every multisegment within the bounds exactly once, smallest sizes first."""
    pool = bounds.segments()
    for size in range(bounds.max_segments + 1):
        for combo in itertools.combinations_with_replacement(pool, size):
            yield Multisegment(combo)


def dilworth_width(m: Multisegment) -> int:
    """Fewest ll-chains covering the occurrences: the largest ll-antichain.

    The two are equal by Dilworth's theorem.  Sorted by begin ascending and
    end descending, a set of occurrences is pairwise ll-incomparable exactly
    when its ends never increase: equal begins are always incomparable, and
    the sort puts their ends in descending order, while for b_x < b_y the
    pair is incomparable exactly when e_x >= e_y.  The longest weakly
    decreasing run of ends is found by patience sorting on the negated ends.
    """
    # tails[k]: the least final negated end of a non-decreasing run of k + 1
    tails: list[int] = []
    for _, neg_end in sorted((b, -e) for b, e in m.segments):
        k = bisect_right(tails, neg_end)
        tails[k : k + 1] = [neg_end]  # replaces tails[k], or appends at the end
    return len(tails)


def insertion_ladders(m: Multisegment) -> tuple[Multisegment, ...]:
    """The RSK ladders of m by Schensted row insertion, without peeling.

    Each occurrence [b, e] is the point (-b, -e).  Taken by -b ascending,
    and by -e descending among equal begins, each -e is row-inserted,
    bumping the leftmost entry >= it, and -b is recorded in the new box.
    Row r of the insertion tableau P holds the negated ends of ladder r and
    row r of the recording tableau Q its negated begins, both ascending, so
    they pair up in order into its segments.
    """
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for x, e in sorted((-b, e) for b, e in m.segments):
        y = -e
        for p_row, q_row in zip(p_rows, q_rows):
            k = bisect_left(p_row, y)
            if k == len(p_row):
                p_row.append(y)
                q_row.append(x)
                break
            y, p_row[k] = p_row[k], y
        else:
            p_rows.append([y])
            q_rows.append([x])
    return tuple(
        Multisegment(Segment(-x, -y) for x, y in zip(q_row, p_row))
        for p_row, q_row in zip(p_rows, q_rows)
    )


def reference_depths(segs: Sequence[Segment]) -> list[int]:
    """Longest ll-increasing chain length starting at each occurrence, minus one.

    The reference for the peel's depth pass: every occurrence scans every
    other one through Segment.ll.
    """
    n = len(segs)
    # process in decreasing lex order so every ll-larger segment is done first
    order = sorted(range(n), key=segs.__getitem__, reverse=True)
    depth = [0] * n
    for i in order:
        best = -1
        for j in range(n):
            if segs[i].ll(segs[j]) and depth[j] > best:
                best = depth[j]
        depth[i] = best + 1
    return depth


def reference_peel(m: Multisegment) -> tuple[Multisegment, Multisegment]:
    """One peeling step on Segment objects, through a successor map.

    The reference for the peel's int-pair internals: each depth class is
    sorted (b asc, e desc), every occurrence takes the end of its cyclic
    successor, and the class-final occurrences form the ladder.  No
    postcondition is asserted.
    """
    if not m:
        raise PreconditionError("cannot peel the empty multisegment")
    segs = m.segments
    classes: dict[int, list[int]] = {}
    for i, d in enumerate(reference_depths(segs)):
        classes.setdefault(d, []).append(i)
    succ: dict[int, int] = {}
    finals = set()
    for idxs in classes.values():
        idxs.sort(key=lambda i: (segs[i].b, -segs[i].e))
        for a, b in zip(idxs, idxs[1:]):
            succ[a] = b
        succ[idxs[-1]] = idxs[0]
        finals.add(idxs[-1])
    ladder = []
    rest = []
    for i, s in enumerate(segs):
        (ladder if i in finals else rest).append(Segment(s.b, segs[succ[i]].e))
    return Multisegment(ladder), Multisegment(rest)


def brute_permissible(ladder: Multisegment, m: Multisegment) -> bool:
    """Ground-truth permissibility by exhausting chains and assignments."""
    if not ladder.is_ladder():
        raise PreconditionError(f"first component is not a ladder: {ladder}")
    if len(m) > PERMISSIBLE_GUARD:
        raise SizeGuardExceeded(f"{len(m)} occurrences exceed {PERMISSIBLE_GUARD}")
    intervals = [(s.b, s.e) for s in reversed(ladder.segments)]
    npos = len(intervals)
    values = sorted(set(m.segments))
    for size in range(1, len(values) + 1):
        for subset in itertools.combinations(values, size):
            # lex order extends ll, so a chain reads descending right-to-left
            chain = list(reversed(subset))
            if any(not chain[t + 1].ll(chain[t]) for t in range(size - 1)):
                continue
            if size > npos:
                return False
            found = False
            for positions in itertools.combinations(range(1, npos + 1), size):
                if all(
                    intervals[p - 1][0] <= x.e <= intervals[p - 1][1]
                    for x, p in zip(chain, positions)
                ):
                    found = True
                    break
            if not found:
                return False
    return True


def reference_string_form(idx: Sequence[int], a1: Sequence[int], a2: Sequence[int]) -> int:
    """The string form by its definition, one pair of positions at a time.

    The reference for strings.string_form: a1[r] * a2[u] weighted 1 for
    u = r, the Cartan pairing of idx[r] and idx[u] (2, -1 or 0) for u < r,
    and 0 for u > r.  Quadratic in the length.
    """
    total = 0
    for r, x in enumerate(a1):
        if x == 0:
            continue
        total += x * a2[r]
        for u in range(r):
            y = a2[u]
            if y == 0:
                continue
            gap = abs(idx[r] - idx[u])
            if gap == 0:
                total += 2 * x * y
            elif gap == 1:
                total -= x * y
    return total


def reference_bz_derivative(m: Multisegment, t: int) -> Multisegment:
    """The full (t..-t) sweep that strings.bz_derivative shortcuts, unchecked."""
    out = m
    for j in range(t, -t - 1, -1):
        out = single_derivative(out, j)
    return out


def hook_length_count(mu: Partition) -> int:
    """Standard tableau count by the hook length formula."""
    conj = mu.conjugate()
    product = 1
    for i, j in mu.cells():
        product *= (mu.part(i) - j) + (conj.part(j) - i) + 1
    return factorial(mu.size()) // product


def _nested_enumerations(pairs: Sequence[Pair], idxs: Sequence[int]) -> list[tuple[int, ...]]:
    """Every order of one depth class with b weakly up and e weakly down."""
    valid = []
    for perm in itertools.permutations(idxs):
        b, e = pairs[perm[0]]
        for r in perm[1:]:
            nb, ne = pairs[r]
            if nb < b or ne > e:
                break
            b, e = nb, ne
        else:
            valid.append(perm)
    return valid


def kv_choice_independence(m: Multisegment) -> bool:
    """Re-run one peeling step under every admissible class enumeration."""
    if len(m) > KV_GUARD:
        raise SizeGuardExceeded(f"{len(m)} occurrences exceed {KV_GUARD}")
    if not m:
        raise PreconditionError("cannot peel the empty multisegment")
    pairs = _pairs(m)
    classes = _depth_classes(pairs)
    per_class = [_nested_enumerations(pairs, idxs) for idxs in classes.values()]
    keys = list(classes.keys())
    outputs = set()
    for choice in itertools.product(*per_class):
        chosen = dict(zip(keys, choice))
        outputs.add(_kv_from_classes(pairs, chosen))
        if len(outputs) > 1:
            return False
    return True
