"""Brute-force reference implementations backing the test suite and checks.

Everything here recomputes a main-path result by a separate route: the
Dilworth width as the largest antichain, the RSK ladders by Schensted row
insertion, the multisegment and the peel trace back from the ladders by
reverse bumping, permissibility by trying every chain against every injective
increasing assignment, depths by scanning every pair of Segment objects,
the string form by a double loop over positions, the BZ derivative by a step
at every index, and tableau counts by hook lengths.  One peel on Segment
objects, along a chosen order of each reference depth class, gives both the
reference peel (the canonical order) and peeling determinism (every
admissible order).  Oracles refuse oversized instances instead of sampling,
and import nothing from rsk, the module they check.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from math import comb, factorial

from .errors import PreconditionError, SizeGuardExceeded
from .multisegment import Multisegment, Segment
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


def insertion_inverse(ladders: Sequence[Multisegment]) -> Multisegment:
    """The multisegment whose RSK ladders these are, by reverse bumping.

    Row r of P holds the negated ends of ladder r and row r of Q its negated
    begins, both ascending, as insertion_ladders builds them.  The last
    insertion is undone first: the largest recorded x, and among equal x the
    lowest row, since equal x were inserted with y descending, each into a
    lower row.  Q's entries never move, so that order is the cells of Q
    sorted once.  Each corner leaves P, and its y goes up: in each row above
    it replaces the rightmost entry <= it, which moves on up.  What leaves
    the top row is the point (x, y), the segment [-x, -y].  A shape that no
    RSK output has is refused: an entry that is not a ladder, a ladder
    longer than the one above it, a row with no entry <= the value bumped
    into it, or a point with -x > -y.
    """
    p_rows: list[list[int]] = []
    cells: list[tuple[int, int]] = []  # (x, row) of each box of Q
    for r, ladder in enumerate(ladders):
        if not ladder.is_ladder():
            raise PreconditionError(f"not a ladder: {ladder}")
        # a ladder's begins and ends both ascend in its canonical order
        segs = ladder.segments[::-1]
        if r and len(segs) > len(p_rows[-1]):
            sizes = [len(lad) for lad in ladders]
            raise PreconditionError(f"ladder sizes not weakly decreasing: {sizes}")
        p_rows.append([-e for _, e in segs])
        cells += [(-b, r) for b, _ in segs]
    # largest x first, and among equal x the largest r, the lowest row
    cells.sort(reverse=True)
    segments = []
    for x, r in cells:
        y = p_rows[r].pop()
        for i in range(r - 1, -1, -1):
            row = p_rows[i]
            k = bisect_right(row, y) - 1
            if k < 0:
                raise PreconditionError(f"no entry <= {y} in the row {row} of P")
            y, row[k] = row[k], y
        if y > x:
            raise PreconditionError(f"reverse bumping gives the empty segment [{-x},{-y}]")
        segments.append(Segment(-x, -y))
    return Multisegment(segments)


def insertion_trace(m: Multisegment) -> tuple[tuple[Multisegment, Multisegment], ...]:
    """The peel trace of m from Schensted insertion and reverse bumping.

    The first peel splits off the first ladder of m, and its rest has the
    remaining ladders, so each step is (ladders[i], inverse of ladders[i+1:]).
    """
    ladders = insertion_ladders(m)
    return tuple(
        (ladder, insertion_inverse(ladders[i + 1 :])) for i, ladder in enumerate(ladders)
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


def _depth_classes(segs: Sequence[Segment]) -> list[list[int]]:
    """Occurrence indices per reference depth, each class sorted (b asc, e desc)."""
    depth = reference_depths(segs)
    order = sorted(range(len(segs)), key=lambda i: (segs[i].b, -segs[i].e))
    return [[i for i in order if depth[i] == d] for d in sorted(set(depth))]


def _peel_along(
    segs: Sequence[Segment], orders: Sequence[Sequence[int]]
) -> tuple[Multisegment, Multisegment]:
    """One peeling step along one order per depth class: each occurrence takes
    its cyclic successor's end, and the class-final occurrences form the ladder."""
    ladder, rest = [], []
    for idxs in orders:
        for i, j in zip(idxs, idxs[1:]):
            rest.append(Segment(segs[i].b, segs[j].e))
        ladder.append(Segment(segs[idxs[-1]].b, segs[idxs[0]].e))
    return Multisegment(ladder), Multisegment(rest)


def reference_peel(m: Multisegment) -> tuple[Multisegment, Multisegment]:
    """One peeling step along the sorted depth classes, unchecked."""
    if not m:
        raise PreconditionError("cannot peel the empty multisegment")
    return _peel_along(m.segments, _depth_classes(m.segments))


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


def _nested_enumerations(pairs: Sequence[Segment], idxs: Sequence[int]) -> list[tuple[int, ...]]:
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
    """Re-run one peeling step under every admissible class enumeration: True
    when they give exactly one output, so False also when a class has none."""
    if len(m) > KV_GUARD:
        raise SizeGuardExceeded(f"{len(m)} occurrences exceed {KV_GUARD}")
    if not m:
        raise PreconditionError("cannot peel the empty multisegment")
    segs = m.segments
    per_class = [_nested_enumerations(segs, idxs) for idxs in _depth_classes(segs)]
    return len({_peel_along(segs, orders) for orders in itertools.product(*per_class)}) == 1
