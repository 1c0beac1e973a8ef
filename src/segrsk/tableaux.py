"""Partitions, inverted semistandard bitableaux and their invariants.

An inverted semistandard Young tableau has strictly descending rows and
weakly descending columns.  A pair (P,Q) of the same shape encodes one
ladder multisegment per row via [c, d-1], with entries c = d dropped; the
pair is admissible when c <= d holds entrywise and permissible when the
entrywise increment of P stays admissible.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .errors import ParseError, PreconditionError, ShapeViolation
from .lattice import Weight
from .multisegment import Multisegment, Segment


@dataclass(frozen=True, slots=True)
class Partition:
    """Weakly decreasing tuple of positive integers; () is the empty partition."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        for i, p in enumerate(self.parts):
            if p < 1:
                raise ValueError(f"non-positive part {p}")
            if i > 0 and self.parts[i - 1] < p:
                raise ValueError(f"parts not weakly decreasing: {self.parts}")

    @classmethod
    def of(cls, *parts: int) -> Partition:
        return cls(tuple(parts))

    @classmethod
    def parse(cls, text: str) -> Partition:
        """Parse "4,2,1"; empty text is the empty partition."""
        text = text.strip()
        if not text:
            return cls()
        try:
            parts = tuple(int(tok) for tok in text.split(","))
        except ValueError:
            raise ParseError(f"bad partition text: {text!r}") from None
        try:
            return cls(parts)
        except ValueError as exc:
            raise ParseError(str(exc)) from None

    def size(self) -> int:
        return sum(self.parts)

    def length(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """The i-th part (1-indexed), zero beyond the length."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def conjugate(self) -> Partition:
        if not self.parts:
            return Partition()
        return Partition(
            tuple(
                sum(1 for p in self.parts if p >= j)
                for j in range(1, self.parts[0] + 1)
            )
        )

    def cut(self) -> Partition:
        """Remove the first column: decrease every part by one, drop zeros."""
        return Partition(tuple(p - 1 for p in self.parts if p > 1))

    def cells(self) -> tuple[tuple[int, int], ...]:
        """All (row, column) pairs, 1-indexed, row-major order."""
        return tuple(
            (i, j)
            for i, p in enumerate(self.parts, start=1)
            for j in range(1, p + 1)
        )

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts) if self.parts else "()"


def a_invariant(mu: Partition) -> int:
    """Sum of m*(m*-1) over the conjugate parts m*; always even."""
    return sum(m * (m - 1) for m in mu.conjugate().parts)


@dataclass(frozen=True, slots=True)
class InvertedSSYT:
    """Rows strictly descending, columns weakly descending."""

    rows: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        lengths = tuple(len(r) for r in self.rows)
        try:
            Partition(lengths)
        except ValueError:
            raise ShapeViolation(f"row lengths {lengths} are not a partition") from None
        for r, row in enumerate(self.rows):
            for j in range(1, len(row)):
                if row[j - 1] <= row[j]:
                    raise ShapeViolation(f"row {r + 1} not strictly descending: {row}")
        for r in range(1, len(self.rows)):
            upper, lower = self.rows[r - 1], self.rows[r]
            for j in range(len(lower)):
                if upper[j] < lower[j]:
                    raise ShapeViolation(
                        f"column {j + 1} not weakly descending at row {r + 1}"
                    )

    @classmethod
    def of(cls, *rows: Iterable[int]) -> InvertedSSYT:
        return cls(tuple(tuple(row) for row in rows))

    def shape(self) -> Partition:
        return Partition(tuple(len(r) for r in self.rows))

    def increment(self) -> InvertedSSYT:
        """Add one to every entry; semistandardness is preserved."""
        return InvertedSSYT(tuple(tuple(c + 1 for c in row) for row in self.rows))

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self.rows]


@dataclass(frozen=True, slots=True)
class BitableauPair:
    """Pair of inverted SSYT of the same shape."""

    p: InvertedSSYT
    q: InvertedSSYT

    def __post_init__(self):
        # both row-length tuples are partitions already: InvertedSSYT checks
        if tuple(map(len, self.p.rows)) != tuple(map(len, self.q.rows)):
            raise ShapeViolation(
                f"shape mismatch: {self.p.shape()} vs {self.q.shape()}"
            )

    def is_admissible(self) -> bool:
        """Entrywise c <= d."""
        return all(
            c <= d
            for prow, qrow in zip(self.p.rows, self.q.rows)
            for c, d in zip(prow, qrow)
        )

    def is_permissible(self) -> bool:
        """(P', Q) stays admissible, i.e. entrywise c + 1 <= d."""
        return all(
            c + 1 <= d
            for prow, qrow in zip(self.p.rows, self.q.rows)
            for c, d in zip(prow, qrow)
        )


def ladders_of(pq: BitableauPair) -> tuple[Multisegment, ...]:
    """One multisegment per row, [c, d-1] per entry with c = d dropped.

    Each result must be a ladder or empty; anything else signals a malformed
    input pair and raises ShapeViolation.
    """
    if not pq.is_admissible():
        raise PreconditionError("bitableau pair is not admissible")
    out = []
    for r, (prow, qrow) in enumerate(zip(pq.p.rows, pq.q.rows)):
        segs = [Segment(c, d - 1) for c, d in zip(prow, qrow) if c < d]
        row = Multisegment(segs)
        if row and not row.is_ladder():
            raise ShapeViolation(f"row {r + 1} does not form a ladder: {row}")
        out.append(row)
    return tuple(out)


def c_count(pq: BitableauPair) -> int:
    """Pairs of a P-entry equal to a Q-entry in a strictly lower row."""
    total = 0
    for i, prow in enumerate(pq.p.rows):
        for c in prow:
            for qrow in pq.q.rows[i + 1 :]:
                total += sum(1 for d in qrow if d == c)
    return total


@dataclass(frozen=True, slots=True)
class GammaDescriptor:
    """Ladder data plus grading shift of an RSK-standard descriptor.

    The ladder tuple may contain empty entries: derived descriptors record
    rows whose ladder collapsed as explicit gaps, never compacting them.
    """

    ladders: tuple[Multisegment, ...]
    shift: int


def gamma_descriptor(m: Multisegment, derived: bool = False) -> GammaDescriptor:
    """Descriptor of the RSK-standard (or derived) module attached to m."""
    from .rsk import bitableau_of  # deferred: rsk builds on this module

    if not m:
        raise PreconditionError("empty multisegment has no descriptor")
    pq = bitableau_of(m)
    shape = pq.p.shape()
    if derived:
        # admissible: bitableau_of asserted the source pair permissible
        pq = BitableauPair(pq.p.increment(), pq.q)
    return GammaDescriptor(ladders_of(pq), a_invariant(shape) - c_count(pq))


def standard_tableaux(shape: Partition) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All standard fillings of the shape, in lexicographic row-major order.

    A filling is a tuple of rows holding 1..n, increasing along rows and
    columns.  They are grown value by value from the empty filling: value v
    goes into every addable cell of every filling of 1..v-1.  Each standard
    filling restricts to exactly one filling of 1..v, so no step holds more
    fillings than the result.
    """
    parts = shape.parts
    fillings = [tuple(() for _ in parts)]
    for value in range(1, sum(parts) + 1):
        fillings = [
            filling[:i] + (row + (value,),) + filling[i + 1 :]
            for filling in fillings
            for i, row in enumerate(filling)
            # the cell after the row is addable when the row has room and
            # the cell above it is filled
            if len(row) < parts[i] and (i == 0 or len(filling[i - 1]) > len(row))
        ]
    # all fillings share their row lengths, so tuple order is row-major order
    fillings.sort()
    return tuple(fillings)


def residue_sequence(k: int, tableau: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Residues k - row + column visited in entry order 1..n."""
    cell: dict[int, tuple[int, int]] = {}
    for a, row in enumerate(tableau, start=1):
        for b, value in enumerate(row, start=1):
            cell[value] = (a, b)
    return tuple(k - cell[i][0] + cell[i][1] for i in range(1, len(cell) + 1))


def residue_weight(k: int, tableau: tuple[tuple[int, ...], ...]) -> Weight:
    return Weight((r, 1) for r in residue_sequence(k, tableau))
