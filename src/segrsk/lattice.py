"""Root-lattice arithmetic over integer-indexed simple roots.

Weights are finitely supported integer combinations of simple roots a(i),
i ranging over all integers.  Two bilinear forms are provided: the symmetric
Cartan form with (a(i),a(j)) = 2, -1, 0 according to |i-j| = 0, 1, >1, and a
non-symmetric form with (a(i),a(j))_l = 1 for i=j, -1 for j=i+1, 0 otherwise.
Their polarization identity (x,y)_l + (y,x)_l = (x,y) holds on the basis.

Weights and Laurent polynomials in q are both finitely supported integer
maps; they share one sparse representation.

All arithmetic is exact; Python integers never overflow.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping

from .errors import ParseError

_TERM_RE = re.compile(r"^(-)?(?:(\d+)\*)?a\((-?\d+)\)$")


class _SparseMap:
    """Finitely supported map from integers to nonzero integers.

    One dict from index to nonzero coefficient serves lookups, sums,
    equality, hashing and the bilinear forms in O(support); printing and
    JSON sort its items when called.  Maps of different subclasses never
    compare equal.  Every map, arithmetic results included, is built by its
    class constructor, which sums repeated indices and drops zeros, so no
    stored coefficient is zero.
    """

    __slots__ = ("_map",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, int] = {}
        get = acc.get
        for index, coeff in items:
            if coeff:
                acc[index] = get(index, 0) + coeff
        # only cancellation leaves a zero
        if 0 in acc.values():
            acc = {i: c for i, c in acc.items() if c != 0}
        self._map: dict[int, int] = acc

    def items(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._map.items()))

    def coeff(self, i: int) -> int:
        return self._map.get(i, 0)

    def height(self) -> int:
        """Sum of coefficients."""
        return sum(self._map.values())

    def is_positive(self) -> bool:
        """Membership in the positive cone (all coefficients >= 0)."""
        return all(c >= 0 for c in self._map.values())

    def dagger(self) -> _SparseMap:
        """Index negation a(i) -> a(-i); an additive involution."""
        return type(self)((-i, c) for i, c in self._map.items())

    def _plus(self, other: _SparseMap, sign: int) -> _SparseMap:
        if type(other) is not type(self):
            return NotImplemented
        if not other._map:
            return self
        signed = ((i, sign * c) for i, c in other._map.items())
        return type(self)([*self._map.items(), *signed])

    def __add__(self, other: _SparseMap) -> _SparseMap:
        return self._plus(other, 1)

    def __sub__(self, other: _SparseMap) -> _SparseMap:
        return self._plus(other, -1)

    def __rmul__(self, scalar: int) -> _SparseMap:
        return type(self)((i, scalar * c) for i, c in self._map.items())

    def __neg__(self) -> _SparseMap:
        return -1 * self

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    def __bool__(self) -> bool:
        return bool(self._map)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"

    def to_json(self) -> dict[str, int]:
        return {str(i): c for i, c in self.items()}

    @classmethod
    def from_json(cls, data: Mapping[str, int]) -> _SparseMap:
        """Inverse of to_json(); anything to_json() never writes raises ParseError.

        Keys are the decimal text str(i) of an integer, so "01", "+1" or " 1"
        raise, and coefficients are nonzero integers.
        """
        try:
            items = [(int(i), c) for i, c in data.items()]
        except (AttributeError, TypeError, ValueError):
            raise ParseError(f"bad {cls.__name__} JSON: {data!r}") from None
        for key, (i, c) in zip(data, items):
            if key != str(i):
                raise ParseError(f"bad {cls.__name__} key: {key!r}")
            if type(c) is not int or c == 0:
                raise ParseError(f"bad {cls.__name__} coefficient at {i}: {c!r}")
        return cls(items)


class Weight(_SparseMap):
    """Element of the root lattice: a sparse map from index to coefficient."""

    __slots__ = ()

    @classmethod
    def alpha(cls, i: int) -> Weight:
        """The simple root a(i)."""
        return cls(((i, 1),))

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._map))

    def leq(self, other: Weight) -> bool:
        """Cone order: self <= other iff other - self has no negative coefficient."""
        mine, theirs = self._map, other._map
        return all(theirs.get(i, 0) >= c for i, c in mine.items()) and all(
            c >= 0 for i, c in theirs.items() if i not in mine
        )

    def in_subcone(self, n: int) -> bool:
        """True iff positive with support inside [-n, n]."""
        return self.is_positive() and all(-n <= i <= n for i in self._map)

    def __str__(self) -> str:
        if not self._map:
            return "0"
        terms = []
        for i, c in self.items():
            if c == 1:
                terms.append(f"a({i})")
            else:
                terms.append(f"{c}*a({i})")
        return "+".join(terms).replace("+-", "-")

    @classmethod
    def parse(cls, text: str) -> Weight:
        """Inverse of str(); accepts e.g. "2*a(1)+a(3)" or "0"."""
        text = text.strip().replace(" ", "")
        if text == "0":
            return cls()
        # a separating '-' always follows the ')' closing the previous term
        parts = text.replace(")-", ")+-").split("+")
        coeffs = []
        for part in parts:
            m = _TERM_RE.match(part)
            if m is None:
                raise ParseError(f"bad weight term: {part!r}")
            coeff = int(m.group(2)) if m.group(2) is not None else 1
            if m.group(1):
                coeff = -coeff
            coeffs.append((int(m.group(3)), coeff))
        return cls(coeffs)


def cartan_form(b1: Weight, b2: Weight) -> int:
    """Symmetric bilinear form extending the A-type Cartan matrix."""
    get = b2._map.get
    total = 0
    for i, c in b1._map.items():
        total += c * (2 * get(i, 0) - get(i - 1, 0) - get(i + 1, 0))
    return total


def ell_form(b1: Weight, b2: Weight) -> int:
    """Non-symmetric form: 1 on (a(i),a(i)), -1 on (a(i),a(i+1)), else 0."""
    get = b2._map.get
    total = 0
    for i, c in b1._map.items():
        total += c * (get(i, 0) - get(i + 1, 0))
    return total


class LaurentPoly(_SparseMap):
    """Laurent polynomial in q with integer coefficients, stored sparsely.

    The map sends each exponent to its coefficient; terms, printing and JSON
    list the highest exponent first.
    """

    __slots__ = ()

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls(((0, 1),))

    @classmethod
    def q_power(cls, k: int, coeff: int = 1) -> LaurentPoly:
        return cls(((k, coeff),))

    def terms(self) -> tuple[tuple[int, int], ...]:
        return self.items()[::-1]

    def __mul__(self, other: LaurentPoly | int) -> LaurentPoly:
        if isinstance(other, int):
            return _SparseMap.__rmul__(self, other)
        return LaurentPoly(
            (e1 + e2, c1 * c2)
            for e1, c1 in self._map.items()
            for e2, c2 in other._map.items()
        )

    __rmul__ = __mul__

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by q**k."""
        return type(self)((e + k, c) for e, c in self._map.items())

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self.terms())!r})"

    def __str__(self) -> str:
        if not self._map:
            return "0"
        parts = []
        for e, c in self.terms():
            if e == 0:
                parts.append(str(c))
                continue
            q = "q" if e == 1 else f"q^{e}"
            if c == 1:
                parts.append(q)
            elif c == -1:
                parts.append(f"-{q}")
            else:
                parts.append(f"{c}*{q}")
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self) -> dict[str, int]:
        return {str(e): c for e, c in self.terms()}
