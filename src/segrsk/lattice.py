"""Root-lattice arithmetic over integer-indexed simple roots.

Weights are finitely supported integer combinations of simple roots a(i),
i ranging over all integers.  Two bilinear forms are provided: the symmetric
Cartan form with (a(i),a(j)) = 2, -1, 0 according to |i-j| = 0, 1, >1, and a
non-symmetric form with (a(i),a(j))_l = 1 for i=j, -1 for j=i+1, 0 otherwise.
Their polarization identity (x,y)_l + (y,x)_l = (x,y) holds on the basis.

All arithmetic is exact; Python integers never overflow.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping

from .errors import ParseError

_TERM_RE = re.compile(r"^(-)?(?:(\d+)\*)?a\((-?\d+)\)$")


class Weight:
    """Element of the root lattice, stored as a canonical sparse map.

    A dict from index to nonzero coefficient serves lookups, the cone order,
    sums and the bilinear forms in O(support); the sorted tuple of its items
    is the canonical form behind equality, hashing and printing.
    """

    __slots__ = ("_map", "_coeffs")

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
        self._coeffs: tuple[tuple[int, int], ...] = tuple(sorted(acc.items()))

    @classmethod
    def _of_canonical(cls, coeffs: dict[int, int]) -> Weight:
        """Wrap a dict with no zero coefficient; the dict is kept, not copied."""
        w = object.__new__(cls)
        w._map = coeffs
        w._coeffs = tuple(sorted(coeffs.items()))
        return w

    @classmethod
    def zero(cls) -> Weight:
        return cls()

    @classmethod
    def alpha(cls, i: int) -> Weight:
        """The simple root a(i)."""
        return cls(((i, 1),))

    def items(self) -> tuple[tuple[int, int], ...]:
        return self._coeffs

    def coeff(self, i: int) -> int:
        return self._map.get(i, 0)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self._coeffs)

    def height(self) -> int:
        """Sum of coefficients."""
        return sum(self._map.values())

    def is_zero(self) -> bool:
        return not self._map

    def is_positive(self) -> bool:
        """Membership in the positive cone (all coefficients >= 0)."""
        return all(c >= 0 for c in self._map.values())

    def leq(self, other: Weight) -> bool:
        """Cone order: self <= other iff other - self has no negative coefficient."""
        mine, theirs = self._map, other._map
        return all(theirs.get(i, 0) >= c for i, c in mine.items()) and all(
            c >= 0 for i, c in theirs.items() if i not in mine
        )

    def dagger(self) -> Weight:
        """Index negation a(i) -> a(-i); an additive involution."""
        return Weight._of_canonical({-i: c for i, c in self._map.items()})

    def in_subcone(self, n: int) -> bool:
        """True iff positive with support inside [-n, n]."""
        return self.is_positive() and all(-n <= i <= n for i in self._map)

    def _plus(self, other: Weight, sign: int) -> Weight:
        if not other._map:
            return self
        acc = dict(self._map)
        for i, c in other._map.items():
            total = acc.get(i, 0) + sign * c
            if total:
                acc[i] = total
            else:
                del acc[i]
        return Weight._of_canonical(acc)

    def __add__(self, other: Weight) -> Weight:
        return self._plus(other, 1)

    def __sub__(self, other: Weight) -> Weight:
        return self._plus(other, -1)

    def __rmul__(self, scalar: int) -> Weight:
        if not scalar:
            return Weight()
        return Weight._of_canonical({i: scalar * c for i, c in self._map.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Weight) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._map)

    def __repr__(self) -> str:
        return f"Weight({dict(self._coeffs)!r})"

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        terms = []
        for i, c in self._coeffs:
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
            return cls.zero()
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

    def to_json(self) -> dict[str, int]:
        return {str(i): c for i, c in self._coeffs}

    @classmethod
    def from_json(cls, data: Mapping[str, int]) -> Weight:
        return cls((int(i), c) for i, c in data.items())


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


class DominantWeight:
    """Non-negative combination of fundamental weights, indexed by integers."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, int] = {}
        for index, coeff in items:
            acc[index] = acc.get(index, 0) + coeff
        if any(c < 0 for c in acc.values()):
            raise ValueError("dominant weight coefficients must be non-negative")
        self._coeffs = tuple(sorted((i, c) for i, c in acc.items() if c != 0))

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> DominantWeight:
        """Sum of fundamental weights at the given indices (with repetition)."""
        return cls((i, 1) for i in indices)

    def items(self) -> tuple[tuple[int, int], ...]:
        return self._coeffs

    def coeff(self, i: int) -> int:
        for index, coeff in self._coeffs:
            if index == i:
                return coeff
        return 0

    def level(self) -> int:
        return sum(c for _, c in self._coeffs)

    def dagger(self) -> DominantWeight:
        return DominantWeight((-i, c) for i, c in self._coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DominantWeight) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(("dominant", self._coeffs))

    def __repr__(self) -> str:
        return f"DominantWeight({dict(self._coeffs)!r})"


class LaurentPoly:
    """Laurent polynomial in q with integer coefficients, stored sparsely."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, int] = {}
        for exp, coeff in items:
            acc[exp] = acc.get(exp, 0) + coeff
        self._terms: tuple[tuple[int, int], ...] = tuple(
            sorted(((e, c) for e, c in acc.items() if c != 0), reverse=True)
        )

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls()

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls(((0, 1),))

    @classmethod
    def q_power(cls, k: int, coeff: int = 1) -> LaurentPoly:
        return cls(((k, coeff),))

    def terms(self) -> tuple[tuple[int, int], ...]:
        return self._terms

    def coeff(self, exp: int) -> int:
        for e, c in self._terms:
            if e == exp:
                return c
        return 0

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        return LaurentPoly(self._terms + other._terms)

    def __mul__(self, other: LaurentPoly | int) -> LaurentPoly:
        if isinstance(other, int):
            return LaurentPoly((e, other * c) for e, c in self._terms)
        return LaurentPoly(
            (e1 + e2, c1 * c2) for e1, c1 in self._terms for e2, c2 in other._terms
        )

    __rmul__ = __mul__

    def __neg__(self) -> LaurentPoly:
        return self * -1

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        return self + (-other)

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by q**k."""
        return LaurentPoly((e + k, c) for e, c in self._terms)

    def eval_at_one(self) -> int:
        return sum(c for _, c in self._terms)

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for _, c in self._terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self._terms)!r})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e, c in self._terms:
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
        return {str(e): c for e, c in self._terms}

    @classmethod
    def from_json(cls, data: Mapping[str, int]) -> LaurentPoly:
        return cls((int(e), c) for e, c in data.items())
