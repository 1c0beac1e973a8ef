"""Knuth-Viennot peeling and the recursive RSK transform of multisegments.

One peeling step computes the depth of every segment occurrence (longest
strictly increasing chain under the ll order starting there), enumerates each
depth class with begins weakly increasing and ends weakly decreasing, recycles
end points along the cycle permutation of each class, and splits off a ladder
from the class-final occurrences.  Iterating until nothing remains yields the
peel trace, whose ladders are the RSK transform; its length is the width, the
minimal number of ladders summing to the input.  Callers that need several
views of one input (ladders, peels, bitableau) share one trace.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter

from .errors import InvariantViolation, PreconditionError, ShapeViolation
from .multisegment import Multisegment, Segment
from .tableaux import BitableauPair, InvertedSSYT, ladders_of


@dataclass(frozen=True, slots=True)
class DepthTable:
    """Depth per occurrence, aligned with the canonical segment order."""

    depths: tuple[int, ...]

    def max_depth(self) -> int:
        return max(self.depths)


# An occurrence as its (begin, end) pair.  The peel internals take a
# multisegment's pairs in its canonical order (end first, then begin), read
# once per peel.  A Segment is already such a pair, but _pairs still copies
# each into an exact tuple: CPython's fast paths for unpacking and indexing
# skip tuple subclasses, and the depth pass does both O(n^2) times.
Pair = tuple[int, int]


def _pairs(m: Multisegment) -> list[Pair]:
    return [(s.b, s.e) for s in m.segments]


def _depth_list(pairs: Sequence[Pair]) -> list[int]:
    """Longest ll-increasing chain length starting at each occurrence, minus one."""
    n = len(pairs)
    depth = [0] * n
    # ends ascend, so every ll-larger occurrence lies after i and is done first
    for i in range(n - 1, -1, -1):
        b, e = pairs[i]
        best = 0
        for j in range(i + 1, n):
            bj, ej = pairs[j]
            if b < bj and e < ej and depth[j] >= best:
                best = depth[j] + 1
        depth[i] = best
    return depth


def depth_function(m: Multisegment) -> DepthTable:
    if not m:
        raise PreconditionError("depth of the empty multisegment is undefined")
    return DepthTable(tuple(_depth_list(_pairs(m))))


def _depth_classes(pairs: Sequence[Pair]) -> dict[int, list[int]]:
    """Occurrence indices per depth, each class sorted (b asc, e desc).

    Same-depth segments are pairwise ll-incomparable, so this stable sort is
    always a valid enumeration; the nested-interval condition is asserted.
    """
    depth = _depth_list(pairs)
    begins = [b for b, _ in pairs]
    classes: dict[int, list[int]] = {}
    # ends descend in reversed canonical order, and the sort by begin is stable
    for i in sorted(range(len(pairs) - 1, -1, -1), key=begins.__getitem__):
        classes.setdefault(depth[i], []).append(i)
    for d, idxs in classes.items():
        for a, b in zip(idxs, idxs[1:]):
            if pairs[a][0] > pairs[b][0] or pairs[a][1] < pairs[b][1]:
                raise InvariantViolation(
                    f"depth class {d} admits no nested enumeration: "
                    f"{[f'[{pairs[i][0]},{pairs[i][1]}]' for i in idxs]}"
                )
    return classes


def _kv_from_classes(
    pairs: Sequence[Pair], classes: dict[int, list[int]]
) -> tuple[Multisegment, Multisegment]:
    """One peeling step for a fixed choice of per-class enumerations.

    Each class passes its ends one step back along its enumeration: every
    occurrence but the last takes its successor's end and joins the rest,
    and the last takes the first one's end and joins the ladder.
    """
    ladder_segs = []
    rest_segs = []
    for idxs in classes.values():
        b_prev, e_first = pairs[idxs[0]]
        for i in idxs[1:]:
            b, e = pairs[i]
            rest_segs.append(Segment(b_prev, e))
            b_prev = b
        ladder_segs.append(Segment(b_prev, e_first))
    return Multisegment(ladder_segs), Multisegment(rest_segs)


_BEGIN = attrgetter("b")
_END = attrgetter("e")


def _keeps_endpoints(m: Multisegment, ladder: Multisegment, rest: Multisegment) -> bool:
    """True iff ladder and rest together have m's begins and ends, as multisets.

    This fixes the weight and the begin weight, since the coefficient of
    a(i) in wt is #{begins <= i} - #{ends < i}.
    """
    out = ladder.segments + rest.segments
    return sorted(map(_BEGIN, out)) == sorted(map(_BEGIN, m.segments)) and sorted(
        map(_END, out)
    ) == sorted(map(_END, m.segments))


def knuth_viennot(m: Multisegment) -> tuple[Multisegment, Multisegment]:
    """One RSK peeling step: (ladder, rest) with begins and ends conserved.

    Postconditions (asserted): the first component is a ladder, ladder and
    rest together keep m's begins and ends as multisets (so the weights add
    back to wt(m)), and the pair is permissible.
    """
    if not m:
        raise PreconditionError("cannot peel the empty multisegment")
    pairs = _pairs(m)
    ladder, rest = _kv_from_classes(pairs, _depth_classes(pairs))
    if not ladder.is_ladder():
        raise InvariantViolation(f"peeled component of {m} is not a ladder: {ladder}")
    if not _keeps_endpoints(m, ladder, rest):
        raise InvariantViolation(f"begins or ends not conserved when peeling {m}")
    if not is_permissible_pair(ladder, rest):
        raise InvariantViolation(f"peeling {m} produced a non-permissible pair")
    return ladder, rest


# (ladder, rest) of each peeling step, in order
PeelTrace = tuple[tuple[Multisegment, Multisegment], ...]


@dataclass(frozen=True, slots=True)
class LadderSequence:
    """Ordered tuple of ladders; empty entries are allowed as explicit gaps."""

    ladders: tuple[Multisegment, ...] = ()

    def __post_init__(self):
        for i, lad in enumerate(self.ladders):
            if lad and not lad.is_ladder():
                raise ShapeViolation(f"entry {i + 1} is not a ladder: {lad}")

    @classmethod
    def from_trace(cls, trace: PeelTrace) -> LadderSequence:
        """The ladders a peel trace split off, in peeling order.

        The RSK shape is checked: no empty ladder, sizes weakly decreasing.
        """
        ladders = tuple(ladder for ladder, _ in trace)
        sizes = [len(lad) for lad in ladders]
        if any(s == 0 for s in sizes):
            raise ShapeViolation("RSK output contains an empty ladder")
        if any(sizes[i] < sizes[i + 1] for i in range(len(sizes) - 1)):
            raise ShapeViolation(f"ladder sizes not weakly decreasing: {sizes}")
        return cls(ladders)

    def __len__(self) -> int:
        return len(self.ladders)

    def __iter__(self):
        return iter(self.ladders)

    def __getitem__(self, i: int) -> Multisegment:
        return self.ladders[i]

    def __str__(self) -> str:
        return " ; ".join(str(lad) for lad in self.ladders)

    def to_json(self) -> list[list[list[int]]]:
        return [lad.to_json() for lad in self.ladders]

    def bitableau(self) -> BitableauPair:
        """The bitableau whose rows carry these ladders.

        Row i holds the begins of the i-th ladder in strictly decreasing
        order (P) and the matching end-plus-one values (Q).  Validity of the
        tableaux, permissibility of the pair and the round trip through
        ladders_of are all asserted rather than assumed.
        """
        if not self.ladders:
            raise PreconditionError("empty multisegment has no bitableau")
        p_rows = []
        q_rows = []
        for lad in self.ladders:
            desc = tuple(reversed(lad.segments))
            p_rows.append(tuple(s.b for s in desc))
            q_rows.append(tuple(s.e + 1 for s in desc))
        pair = BitableauPair(InvertedSSYT(tuple(p_rows)), InvertedSSYT(tuple(q_rows)))
        if not pair.is_permissible():
            raise InvariantViolation(f"bitableau of ladders {self} is not permissible")
        if ladders_of(pair) != self.ladders:
            raise InvariantViolation(f"bitableau of ladders {self} does not reproduce them")
        return pair


def peel_trace(m: Multisegment) -> PeelTrace:
    """The (ladder, rest) pair of every peeling step, iterated until nothing remains.

    Step i peels the rest of step i - 1 (m itself for the first step), so
    the first entry is knuth_viennot(m).  The empty multisegment has the
    empty trace.
    """
    return _peel_trace(m, {}, 0)


def _peel_trace(
    m: Multisegment,
    steps: dict[Multisegment, tuple[Multisegment, Multisegment]],
    keep: int,
) -> PeelTrace:
    """peel_trace(m), peeling only the rests that steps does not hold.

    The trace of m is its first peel followed by the trace of that peel's
    rest, so a caller that peels many multisegments keeps the first peel of
    each in steps and looks the rests up there.  Only multisegments of at
    most keep segments are stored; a peel that is computed goes through
    knuth_viennot, with all of its postconditions.
    """
    trace = []
    rest = m
    while rest:
        step = steps.get(rest)
        if step is None:
            step = knuth_viennot(rest)
            if len(rest) <= keep:
                steps[rest] = step
        trace.append(step)
        rest = step[1]
    return tuple(trace)


def rsk_transform(m: Multisegment) -> LadderSequence:
    """The ladders of the peel trace, in peeling order.

    The empty multisegment maps to the empty sequence by convention.
    """
    return LadderSequence.from_trace(peel_trace(m))


def width(m: Multisegment) -> int:
    """Minimal number of ladders summing to m; 0 for the empty multisegment."""
    return len(rsk_transform(m))


def is_permissible_pair(ladder: Multisegment, m: Multisegment) -> bool:
    """Every ll-chain of m embeds order-compatibly into the ladder intervals.

    A chain x_1 >> x_2 >> ... needs an increasing injective assignment of
    ladder positions with e(x_t) inside the assigned interval.  Greedy
    earliest-position matching is exact here, so a memoized DFS over
    (chain head, minimal usable position) decides all chains at once.
    """
    if not ladder.is_ladder():
        raise PreconditionError(f"first component is not a ladder: {ladder}")
    if not m:
        return True
    # position s = 1..l walks the ladder from its ll-largest segment down
    intervals = [(s.b, s.e) for s in reversed(ladder.segments)]
    npos = len(intervals)
    # natural tuple order is lex order (begin first), which extends ll
    values = sorted(set(m.segments))
    below: dict[Segment, list[Segment]] = {
        x: [y for y in values if y.ll(x)] for x in values
    }
    memo: dict[tuple[Segment, int], bool] = {}

    def matchable(x: Segment, s: int) -> bool:
        key = (x, s)
        cached = memo.get(key)
        if cached is not None:
            return cached
        star = next(
            (t for t in range(s, npos + 1) if intervals[t - 1][0] <= x.e <= intervals[t - 1][1]),
            None,
        )
        ok = star is not None and all(matchable(y, star + 1) for y in below[x])
        memo[key] = ok
        return ok

    try:
        return all(matchable(x, 1) for x in values)
    finally:
        # matchable reaches itself through its closure; dropping the name
        # breaks that cycle so memo and below are freed at return
        del matchable


def bitableau_of(m: Multisegment) -> BitableauPair:
    """The bitableau whose rows carry the RSK ladders of m."""
    return rsk_transform(m).bitableau()
