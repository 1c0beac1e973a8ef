"""Admissible sequences, grading-shift constants and the BZ derivative.

The monoid of exponent vectors over an admissible index sequence carries a
non-symmetric bi-additive form: 1 on the diagonal, the Cartan pairing of the
indexed roots strictly below it, 0 strictly above.  Its polarization recovers
the Cartan form.  The shift constant Phi of an ordered tuple, defined either
through this form or directly on multisegments, equals the difference of the
adjacency counts C - C'.

The BZ sequence (T, T-1, ..., -T) drives the derivative: applying the
single-index derivative along it realizes the left-truncation m -> m' of
multisegments, independently of T.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from .errors import InvariantViolation, ParseError, PreconditionError
from .lattice import LaurentPoly, Weight, cartan_form, ell_form
from .multisegment import Multisegment

StringVector = tuple[int, ...]


@dataclass(frozen=True, slots=True)
class AdmissibleSequence:
    """Integer sequence with no equal neighbours."""

    indices: tuple[int, ...]

    def __post_init__(self):
        for r in range(len(self.indices) - 1):
            if self.indices[r] == self.indices[r + 1]:
                raise ValueError(f"equal neighbours at position {r + 1}")

    @classmethod
    def bz(cls, t: int) -> AdmissibleSequence:
        """The BZ sequence (t, t-1, ..., -t)."""
        _check_bz_parameter(t)
        return cls(tuple(range(t, -t - 1, -1)))

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)


def _check_bz_parameter(t: int) -> None:
    if t < 0:
        raise PreconditionError(f"BZ parameter must be non-negative, got {t}")


def _check_length(i: AdmissibleSequence, a: Sequence[int]) -> None:
    if len(a) != len(i):
        raise PreconditionError(f"vector length {len(a)} != sequence length {len(i)}")
    if any(x < 0 for x in a):
        raise PreconditionError(f"negative exponent in {a}")


def beta_of(i: AdmissibleSequence, a: Sequence[int]) -> Weight:
    """The positive weight a_1*a(i_1) + ... + a_t*a(i_t)."""
    _check_length(i, a)
    return Weight(zip(i.indices, a))


def string_form(i: AdmissibleSequence, a1: Sequence[int], a2: Sequence[int]) -> int:
    """Non-symmetric form on exponent vectors over the sequence i."""
    _check_length(i, a1)
    _check_length(i, a2)
    return _string_form(i.indices, a1, a2)


def _string_form(idx: Sequence[int], a1: Sequence[int], a2: Sequence[int]) -> int:
    """string_form on vectors already checked against the indices idx.

    Position r pairs a1[r] with a2[r] and with the Cartan pairing of every
    earlier a2[u]; a running sum of a2 per index gives that pairing in one
    pass.
    """
    total = 0
    below: dict[int, int] = {}
    get = below.get
    for j, x, y in zip(idx, a1, a2):
        if x:
            total += x * (y + 2 * get(j, 0) - get(j - 1, 0) - get(j + 1, 0))
        if y:
            below[j] = get(j, 0) + y
    return total


def phi_weights(
    i: AdmissibleSequence,
    avecs: Sequence[Sequence[int]],
    betas: Sequence[Weight],
) -> int:
    """Grading shift sum over j < k of (a_j,a_k)_i - (beta_k, beta(i,a_j))."""
    return _phi_pairs(i.indices, avecs, betas, _checked_betas(i, avecs, betas))


def _checked_betas(
    i: AdmissibleSequence, avecs: Sequence[Sequence[int]], betas: Sequence[Weight]
) -> list[Weight]:
    """beta(i, a) of every vector, each checked against i and its weight."""
    if len(avecs) != len(betas):
        raise PreconditionError("one weight per exponent vector is required")
    bvs = [beta_of(i, a) for a in avecs]
    for bv, beta in zip(bvs, betas):
        if not bv.leq(beta):
            raise PreconditionError(f"beta(i,a) = {bv} exceeds its weight {beta}")
    return bvs


def _phi_pairs(
    idx: Sequence[int],
    avecs: Sequence[Sequence[int]],
    betas: Sequence[Weight],
    bvs: Sequence[Weight],
) -> int:
    """phi_weights on vectors whose betas bvs came from _checked_betas."""
    total = 0
    for j in range(len(avecs)):
        for k in range(j + 1, len(avecs)):
            total += _string_form(idx, avecs[j], avecs[k]) - cartan_form(betas[k], bvs[j])
    return total


def _count_adjacent(m1: Multisegment, m2: Multisegment, offset: int) -> int:
    """Occurrence pairs with b(first) = e(second) + offset."""
    shifted_ends = [s[1] + offset for s in m2.segments]
    return sum(shifted_ends.count(s[0]) for s in m1.segments)


def c_tuple(ms: Sequence[Multisegment]) -> int:
    """Occurrence pairs with b in an earlier entry = e in a later one plus one."""
    return sum(
        _count_adjacent(ms[j], ms[k], 1)
        for j in range(len(ms))
        for k in range(j + 1, len(ms))
    )


def c_prime_tuple(ms: Sequence[Multisegment]) -> int:
    """Like c_tuple with the first slot shifted right by one."""
    # b(shifted(s1)) = e(s2) + 1 is exactly b(s1) = e(s2)
    return sum(
        _count_adjacent(ms[j], ms[k], 0)
        for j in range(len(ms))
        for k in range(j + 1, len(ms))
    )


def phi_multiseg(ms: Sequence[Multisegment]) -> int:
    """Shift constant of an ordered tuple, via begin weights and both forms."""
    total = 0
    for j in range(len(ms)):
        bj = ms[j].begin_weight()
        for k in range(j + 1, len(ms)):
            total += ell_form(bj, ms[k].begin_weight()) - cartan_form(bj, ms[k].weight())
    return total


def _check_support(m: Multisegment, t: int) -> None:
    """wt(m).in_subcone(t), read off the segment endpoints.

    A multisegment weight is never negative, and its support is the union
    of the segments, so it lies in [-t, t] iff every b >= -t and e <= t.
    """
    _check_bz_parameter(t)
    for s in m.segments:
        if s.b < -t or s.e > t:
            raise PreconditionError(f"support of wt({m}) exceeds [-{t},{t}]")


def bz_string(m: Multisegment, t: int) -> StringVector:
    """Exponent vector of m over the BZ sequence, determined by begin counts."""
    _check_support(m, t)
    # position r of the sequence AdmissibleSequence.bz(t) holds the index t - r
    counts = [0] * (2 * t + 1)
    for s in m.segments:
        counts[t - s.b] += 1
    return tuple(counts)


def single_derivative(m: Multisegment, j: int) -> Multisegment:
    """Truncate every segment beginning at j, provided none begins at j+1."""
    begins_at_j = False
    for s in m.segments:
        if s.b == j + 1:
            raise PreconditionError(f"segment {s} of {m} begins at {j + 1}")
        if s.b == j:
            begins_at_j = True
    if not begins_at_j:
        # nothing to truncate, and multisegments are immutable
        return m
    out = []
    for s in m.segments:
        if s.b == j:
            d = s.derived()
            if d is not None:
                out.append(d)
        else:
            out.append(s)
    return Multisegment(out)


def bz_derivative(m: Multisegment, t: int) -> Multisegment:
    """Apply single-index derivatives along (t, t-1, ..., -t).

    Only the begins of m need a step, taken in descending order: nothing
    begins at any other index yet.  Each step's precondition holds because
    the previous one moved the begins at the next index.  The result must
    equal m.derived(); the equality is asserted.
    """
    _check_support(m, t)
    out = m
    for j in sorted({s.b for s in m.segments}, reverse=True):
        out = single_derivative(out, j)
    if out != m.derived():
        raise InvariantViolation(f"BZ derivative of {m} differs from its truncation")
    return out


class MultiplicityTable:
    """Map from multisegments to Laurent polynomials, all keys of equal weight."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Mapping[Multisegment, LaurentPoly] | Iterable[tuple[Multisegment, LaurentPoly]]):
        items = rows.items() if isinstance(rows, Mapping) else rows
        acc: dict[Multisegment, LaurentPoly] = {}
        for key, poly in items:
            if key in acc:
                raise ValueError(f"duplicate key {key}")
            acc[key] = poly
        keyed = sorted(acc.items(), key=lambda kv: [(e, b) for b, e in kv[0]])
        self._rows: tuple[tuple[Multisegment, LaurentPoly], ...] = tuple(keyed)
        weights = {key.weight() for key, _ in self._rows}
        if len(weights) > 1:
            raise ValueError("table keys do not share a common weight")
        for key, poly in self._rows:
            if not poly.is_positive():
                raise ValueError(f"negative multiplicity at {key}: {poly}")

    def items(self) -> tuple[tuple[Multisegment, LaurentPoly], ...]:
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MultiplicityTable) and self._rows == other._rows

    def __repr__(self) -> str:
        return f"MultiplicityTable({list(self._rows)!r})"

    def to_json(self) -> list[dict]:
        return [{"key": str(k), "poly": p.to_json()} for k, p in self._rows]

    @classmethod
    def from_json(cls, data: list[dict]) -> MultiplicityTable:
        """Inverse of to_json(); anything to_json() never writes raises ParseError."""
        try:
            rows = [(row["key"], row["poly"]) for row in data]
        except (KeyError, TypeError):
            raise ParseError(f"bad multiplicity table JSON: {data!r}") from None
        for key, _ in rows:
            if type(key) is not str:
                raise ParseError(f"bad multiplicity table key: {key!r}")
        try:
            table = cls(
                (Multisegment.parse(key), LaurentPoly.from_json(poly)) for key, poly in rows
            )
        except ValueError as exc:  # also duplicate keys, mixed weights, negative entries
            raise ParseError(str(exc)) from None
        # extra row fields, key text such as " [1,1] " and rows out of key
        # order parse, but to_json() would not write them
        if table.to_json() != data:
            raise ParseError(f"multiplicity table JSON not as to_json() writes it: {data!r}")
        return table


def transfer_multiplicities(
    table: MultiplicityTable, ms: Sequence[Multisegment]
) -> MultiplicityTable:
    """Push a multiplicity table through the BZ derivative of a product.

    Keys whose begin weight differs from the tuple's total begin weight are
    dropped; survivors are re-keyed by truncation and their polynomials
    shifted by q**(-Phi).  Re-keying is injective on the surviving fiber, so
    a collision is a fatal alarm.
    """
    target_wt = Weight()
    target_bw = Weight()
    for piece in ms:
        target_wt = target_wt + piece.weight()
        target_bw = target_bw + piece.begin_weight()
    for key, _ in table.items():
        if key.weight() != target_wt:
            raise PreconditionError(
                f"key {key} has weight {key.weight()}, expected {target_wt}"
            )
    phi = phi_multiseg(ms)
    out: dict[Multisegment, LaurentPoly] = {}
    for key, poly in table.items():
        if key.begin_weight() != target_bw:
            continue
        new_key = key.derived()
        if new_key in out:
            raise InvariantViolation(f"re-keying collision at {new_key}")
        out[new_key] = poly.shift(-phi)
    return MultiplicityTable(out)
