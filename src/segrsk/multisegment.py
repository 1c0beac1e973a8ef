"""Segments and multisegments.

A segment [b,e] is the interval of root indices b..e with b <= e; the empty
interval is unrepresentable, so operations that would produce it return None
(segment level) or simply drop it (multisegment level).  A Segment is the
immutable pair (b, e): it unpacks, orders lexicographically, hashes as its
tuple, and Segment(b, e) == (b, e).  A multisegment is a
finite multiset of segments, stored in ascending right-lexicographic order
(end first, then begin), which makes equality structural and RSK inputs
stable.

Text grammar: "[b,e]+[b,e]+..." with "0" for the empty multisegment.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from operator import itemgetter

from .errors import ParseError, PreconditionError
from .lattice import Weight


class Segment(tuple):
    """Interval of root indices b..e, b <= e, as the immutable pair (b, e).

    Hashing, equality and ordering are tuple's own, so they run in C:
    segments order lexicographically (begin first) and Segment(b, e) ==
    (b, e).
    """

    __slots__ = ()

    def __new__(cls, b: int, e: int) -> Segment:
        if b > e:
            raise ValueError(f"empty segment [{b},{e}]")
        return tuple.__new__(cls, (b, e))

    def __getnewargs__(self) -> tuple[int, int]:
        # pickle and copy rebuild a segment as Segment(b, e)
        return tuple(self)

    b = property(itemgetter(0), doc="begin")
    e = property(itemgetter(1), doc="end")

    def length(self) -> int:
        return self[1] - self[0] + 1

    def lex_key(self) -> tuple[int, int]:
        return (self[0], self[1])

    def rlex_key(self) -> tuple[int, int]:
        return (self[1], self[0])

    def ll(self, other: Segment) -> bool:
        """Strict partial order: both endpoints strictly smaller."""
        return self[0] < other[0] and self[1] < other[1]

    def dagger(self) -> Segment:
        return Segment(-self[1], -self[0])

    def shifted_right(self) -> Segment:
        return Segment(self[0] + 1, self[1] + 1)

    def derived(self) -> Segment | None:
        """Shrink from the left; point segments vanish."""
        if self[0] == self[1]:
            return None
        return Segment(self[0] + 1, self[1])

    def extended(self) -> Segment:
        """Extend by one to the left."""
        return Segment(self[0] - 1, self[1])

    def weight(self) -> Weight:
        return Weight((i, 1) for i in range(self[0], self[1] + 1))

    def __repr__(self) -> str:
        return f"Segment(b={self[0]!r}, e={self[1]!r})"

    def __str__(self) -> str:
        return f"[{self[0]},{self[1]}]"


# Segment.rlex_key as a C-level key function
_RLEX = itemgetter(1, 0)


class Multisegment:
    """Finite multiset of segments in canonical right-lexicographic order."""

    # the weights, the hash and is_ladder() are computed on first use and
    # kept, since the segments never change
    __slots__ = ("_segs", "_wt", "_bw", "_hash", "_ladder")

    def __init__(self, segments: Iterable[Segment] = ()):
        self._segs = tuple(sorted(segments, key=_RLEX))
        self._wt: Weight | None = None
        self._bw: Weight | None = None
        self._hash: int | None = None
        self._ladder: bool | None = None

    @classmethod
    def _of_sorted(cls, segs: tuple[Segment, ...]) -> Multisegment:
        """Wrap segments already in canonical order, skipping the sort."""
        m = object.__new__(cls)
        m._segs = segs
        m._wt = None
        m._bw = None
        m._hash = None
        m._ladder = None
        return m

    @classmethod
    def empty(cls) -> Multisegment:
        return cls()

    @classmethod
    def of(cls, *pairs: tuple[int, int]) -> Multisegment:
        return cls(Segment(b, e) for b, e in pairs)

    @classmethod
    def parse(cls, text: str) -> Multisegment:
        """Parse "[b,e]+[b,e]+..."; "0" is the empty multisegment."""
        text = text.strip().replace(" ", "")
        if text == "0":
            return cls.empty()
        if not text:
            raise ParseError("empty multisegment text (use '0')")
        segments = []
        for token in text.split("+"):
            if not (token.startswith("[") and token.endswith("]")):
                raise ParseError(f"bad segment token: {token!r}")
            inner = token[1:-1].split(",")
            if len(inner) != 2:
                raise ParseError(f"bad segment token: {token!r}")
            try:
                b, e = int(inner[0]), int(inner[1])
            except ValueError:
                raise ParseError(f"bad segment token: {token!r}") from None
            if b > e:
                raise ParseError(f"segment begin exceeds end in {token!r}")
            segments.append(Segment(b, e))
        return cls(segments)

    @property
    def segments(self) -> tuple[Segment, ...]:
        return self._segs

    def counter(self) -> Counter[Segment]:
        return Counter(self._segs)

    def __len__(self) -> int:
        return len(self._segs)

    def __iter__(self) -> Iterator[Segment]:
        return iter(self._segs)

    def __bool__(self) -> bool:
        return bool(self._segs)

    def __add__(self, other: Multisegment) -> Multisegment:
        return Multisegment(self._segs + other._segs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Multisegment) and self._segs == other._segs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._segs)
        return self._hash

    def __repr__(self) -> str:
        return f"Multisegment.parse({str(self)!r})"

    def __str__(self) -> str:
        if not self._segs:
            return "0"
        return "+".join(str(s) for s in self._segs)

    def weight(self) -> Weight:
        """Sum of a(b)+...+a(e) over all segments."""
        if self._wt is None:
            coeffs: dict[int, int] = {}
            get = coeffs.get
            for s in self._segs:
                for i in range(s.b, s.e + 1):
                    coeffs[i] = get(i, 0) + 1
            self._wt = Weight._of_canonical(coeffs)
        return self._wt

    def begin_weight(self) -> Weight:
        """Sum of a(b) over all segments; its height is the segment count."""
        if self._bw is None:
            coeffs: dict[int, int] = {}
            get = coeffs.get
            for s in self._segs:
                coeffs[s.b] = get(s.b, 0) + 1
            self._bw = Weight._of_canonical(coeffs)
        return self._bw

    # derived, extended and shifted_right keep the order of (end, begin)
    # keys, so their results need no re-sort

    def derived(self) -> Multisegment:
        """Shrink every segment from the left, dropping point segments."""
        derived = map(Segment.derived, self._segs)
        return Multisegment._of_sorted(tuple(d for d in derived if d is not None))

    def extended(self) -> Multisegment:
        """Extend every segment by one to the left."""
        return Multisegment._of_sorted(tuple(map(Segment.extended, self._segs)))

    def dagger(self) -> Multisegment:
        return Multisegment(s.dagger() for s in self._segs)

    def shifted_right(self) -> Multisegment:
        return Multisegment._of_sorted(tuple(map(Segment.shifted_right, self._segs)))

    def is_ladder(self) -> bool:
        """True iff nonempty and the segments form a chain under ll."""
        if self._ladder is None:
            segs = self._segs
            self._ladder = bool(segs) and all(
                segs[i].ll(segs[i + 1]) for i in range(len(segs) - 1)
            )
        return self._ladder

    def difference(self, other: Multisegment) -> Multisegment:
        """Multiset difference; raises if other is not contained in self."""
        remaining = self.counter()
        remaining.subtract(other.counter())
        if any(c < 0 for c in remaining.values()):
            raise ValueError(f"{other} is not a sub-multisegment of {self}")
        return Multisegment(remaining.elements())

    def to_json(self) -> list[list[int]]:
        return [[s.b, s.e] for s in self._segs]

    @classmethod
    def from_json(cls, data: Iterable[Iterable[int]]) -> Multisegment:
        """Inverse of to_json(); anything but a list of [b, e] pairs raises ParseError."""
        if not isinstance(data, (list, tuple)):
            raise ParseError(f"bad multisegment JSON: {data!r}")
        segments = []
        for entry in data:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
                raise ParseError(f"bad multisegment JSON: {data!r}")
            b, e = entry
            if type(b) is not int or type(e) is not int or b > e:
                raise ParseError(f"bad segment entry: [{b!r}, {e!r}]")
            segments.append(Segment(b, e))
        return cls(segments)


def point_multisegment(gamma: Weight) -> Multisegment:
    """Send a positive weight to the sum of point segments [i,i]."""
    if not gamma.is_positive():
        raise PreconditionError(f"weight {gamma} has negative coefficients")
    segs = []
    for i, c in gamma.items():
        segs.extend([Segment(i, i)] * c)
    return Multisegment(segs)
