"""Multicharges, multipartitions and the Specht-RSK dictionary.

A multicharge is a weakly decreasing integer tuple.  A multipartition is
restricted for it when each component, shifted by the charge gap, is
dominated by the next; it is proper when length minus charge is constant
across components.  Rows of component i map to the ladder built from
[k - part + row, k + row - 1] at the negated charge, and padding a restricted
multipartition with an extra first column makes it proper while inverting the
column-removal map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InvariantViolation, ParseError, PreconditionError
from .lattice import Weight
from .multisegment import Multisegment, Segment
from .rsk import rsk_transform
from .tableaux import Partition


@dataclass(frozen=True, slots=True)
class Multicharge:
    """Weakly decreasing integer tuple; its length is the level."""

    charges: tuple[int, ...]

    def __post_init__(self):
        if not self.charges:
            raise ValueError("a multicharge has at least one charge")
        for i in range(len(self.charges) - 1):
            if self.charges[i] < self.charges[i + 1]:
                raise ValueError(f"charges not weakly decreasing: {self.charges}")

    @classmethod
    def of(cls, *charges: int) -> Multicharge:
        return cls(tuple(charges))

    @classmethod
    def parse(cls, text: str) -> Multicharge:
        try:
            charges = tuple(int(tok) for tok in text.strip().split(","))
        except ValueError:
            raise ParseError(f"bad multicharge text: {text!r}") from None
        try:
            return cls(charges)
        except ValueError as exc:
            raise ParseError(str(exc)) from None

    def dagger(self) -> Multicharge:
        return Multicharge(tuple(-k for k in reversed(self.charges)))

    def __iter__(self):
        return iter(self.charges)

    def __len__(self) -> int:
        return len(self.charges)

    def __str__(self) -> str:
        return ",".join(str(k) for k in self.charges)


@dataclass(frozen=True, slots=True)
class Multipartition:
    """Tuple of partitions; empty components are allowed."""

    components: tuple[Partition, ...]

    @classmethod
    def parse(cls, text: str) -> Multipartition:
        """Parse "4,2,1|3,3|" with '|' separating components; blanks are empty."""
        return cls(tuple(Partition.parse(tok) for tok in text.split("|")))

    def size(self) -> int:
        return sum(c.size() for c in self.components)

    def cut(self) -> Multipartition:
        """Remove the first column of every component."""
        return Multipartition(tuple(c.cut() for c in self.components))

    def dagger(self) -> Multipartition:
        return Multipartition(tuple(c.conjugate() for c in reversed(self.components)))

    def __iter__(self):
        return iter(self.components)

    def __len__(self) -> int:
        return len(self.components)

    def __getitem__(self, i: int) -> Partition:
        return self.components[i]

    def __str__(self) -> str:
        return "|".join(",".join(str(p) for p in c.parts) for c in self.components)


def _check_paired(kappa: Multicharge, mp: Multipartition) -> None:
    if len(kappa) != len(mp):
        raise PreconditionError(
            f"level mismatch: {len(kappa)} charges vs {len(mp)} components"
        )


def content(k: int, mu: Partition) -> Weight:
    """Sum of a(k + column - row) over the cells of mu."""
    return Weight((k + j - i, 1) for i, j in mu.cells())


def content_multi(kappa: Multicharge, mp: Multipartition) -> Weight:
    _check_paired(kappa, mp)
    total = Weight()
    for k, mu in zip(kappa, mp):
        total = total + content(k, mu)
    return total


def is_restricted(kappa: Multicharge, mp: Multipartition) -> bool:
    """Each component, shifted by the charge gap, fits under the next."""
    _check_paired(kappa, mp)
    charges = kappa.charges
    for i in range(len(mp) - 1):
        gap = charges[i] - charges[i + 1]
        upper, lower = mp[i], mp[i + 1]
        # parts beyond length(upper) - gap vanish and satisfy the bound
        for j in range(1, upper.length() - gap + 1):
            if upper.part(j + gap) > lower.part(j):
                return False
    return True


def is_proper(kappa: Multicharge, mp: Multipartition) -> bool:
    """Restricted with length minus charge constant across components."""
    if not is_restricted(kappa, mp):
        return False
    gaps = {mu.length() - k for k, mu in zip(kappa, mp)}
    return len(gaps) <= 1


def pad(kappa: Multicharge, mp: Multipartition) -> Multipartition:
    """Add a first column making the multipartition proper restricted.

    Component i gains one box per existing row plus r + k_i - len rows of
    size one, where r is the final component's length-minus-charge gap.  The
    result is proper restricted and cut() inverts the padding; both are
    asserted.
    """
    if not is_restricted(kappa, mp):
        raise PreconditionError("padding requires a restricted multipartition")
    charges = kappa.charges
    r = mp[len(mp) - 1].length() - charges[-1]
    padded = []
    for k, mu in zip(charges, mp):
        ones = r + k - mu.length()
        if ones < 0:
            raise InvariantViolation(
                f"negative padding count for charge {k}, component {mu}"
            )
        padded.append(Partition(tuple(p + 1 for p in mu.parts) + (1,) * ones))
    out = Multipartition(tuple(padded))
    if not is_proper(kappa, out):
        raise InvariantViolation(f"padding of {mp} under {kappa} is not proper")
    if out.cut() != mp:
        raise InvariantViolation(f"padding of {mp} under {kappa} does not invert cut")
    return out


# segrsk's one module-level cache: a check-bounded round asks 111,696 times for
# 168 keys, 0.410 s with it, 0.496 s without (the acceptance run touches 864 keys)
LADDER_CACHE_SIZE = 4096


@lru_cache(maxsize=LADDER_CACHE_SIZE)
def ladder_of_partition(k: int, mu: Partition) -> Multisegment:
    """The ladder with one segment [k - part + row, k + row - 1] per row.

    Asserted: the result is a ladder (or empty) whose weight is the k-content
    of the conjugate shape.  Memoized: the function is pure and its values
    immutable, so the assertions run once per distinct key.
    """
    segs = [
        Segment(k - p + i, k + i - 1) for i, p in enumerate(mu.parts, start=1)
    ]
    out = Multisegment(segs)
    if out and not out.is_ladder():
        raise InvariantViolation(f"rows of {mu} at charge {k} do not form a ladder")
    if out.weight() != content(k, mu.conjugate()):
        raise InvariantViolation(f"ladder weight mismatch for {mu} at charge {k}")
    return out


def multiseg_of(kappa: Multicharge, mp: Multipartition) -> Multisegment:
    """Sum of the component ladders at the negated charges."""
    _check_paired(kappa, mp)
    return Multisegment(
        s for k, mu in zip(kappa, mp) for s in ladder_of_partition(-k, mu).segments
    )


@dataclass(frozen=True, slots=True)
class SpechtRskReport:
    """Outcome of the dictionary verification for one restricted input."""

    proper_case: bool
    multisegment: Multisegment
    padded: Multipartition
    antiderivative: Multisegment
    gamma: Weight
    ladders: tuple[Multisegment, ...]


def specht_rsk_verify(kappa: Multicharge, mp: Multipartition) -> SpechtRskReport:
    """Run the Specht-RSK dictionary on a restricted multipartition.

    Builds the padded antiderivative n, asserts that its RSK transform is
    exactly the tuple of padded component ladders, extracts the point-segment
    weight gamma from n minus the extension of the target multisegment, and
    asserts that truncating the RSK ladders recovers the component ladders of
    the input.  Any failed assertion is a counterexample to the dictionary
    and raises InvariantViolation.
    """
    if not is_restricted(kappa, mp):
        raise PreconditionError(f"{mp} is not restricted for ({kappa})")
    padded = pad(kappa, mp)
    n = multiseg_of(kappa, padded)
    m = multiseg_of(kappa, mp)
    expected_pad = [ladder_of_partition(-k, mu) for k, mu in zip(kappa, padded)]
    nonempty = [lad for lad in expected_pad if lad]
    if any(expected_pad[i] and not expected_pad[i - 1] for i in range(1, len(expected_pad))):
        raise InvariantViolation(f"empty padded component precedes a nonempty one: {padded}")
    transform = rsk_transform(n)
    if list(transform) != nonempty:
        raise InvariantViolation(
            f"RSK({n}) = ({transform}) differs from the padded ladders "
            f"({' ; '.join(str(l) for l in expected_pad)})"
        )
    try:
        points = n.difference(m.extended())
    except ValueError:
        raise InvariantViolation(
            f"antiderivative {n} does not contain the extension of {m}"
        ) from None
    if any(s.b != s.e for s in points):
        raise InvariantViolation(
            f"difference {points} of {n} and extended {m} is not a sum of points"
        )
    gamma = points.weight()
    expected_m = tuple(ladder_of_partition(-k, mu) for k, mu in zip(kappa, mp))
    # truncate the actual RSK output, re-inserting gaps for empty components
    entries = iter(lad.derived() for lad in transform)
    derived = tuple(
        next(entries) if lad else Multisegment() for lad in expected_pad
    )
    if derived != expected_m:
        raise InvariantViolation(
            f"truncated RSK ladders of {n} differ from the component ladders of {mp}"
        )
    return SpechtRskReport(
        proper_case=is_proper(kappa, mp),
        multisegment=m,
        padded=padded,
        antiderivative=n,
        gamma=gamma,
        ladders=derived,
    )


def proper_rsk_identity(kappa: Multicharge, mp: Multipartition) -> bool:
    """For proper inputs: RSK of the summed ladders returns them in order."""
    if not is_proper(kappa, mp):
        raise PreconditionError(f"{mp} is not proper for ({kappa})")
    expected = [ladder_of_partition(-k, mu) for k, mu in zip(kappa, mp)]
    return list(rsk_transform(multiseg_of(kappa, mp))) == [l for l in expected if l]


def column_removal_check(kappa: Multicharge, mp: Multipartition) -> bool:
    """Truncation of the dictionary multisegment matches first-column removal."""
    if not is_restricted(kappa, mp):
        raise PreconditionError(f"{mp} is not restricted for ({kappa})")
    cut = mp.cut()
    return (
        multiseg_of(kappa, mp).derived() == multiseg_of(kappa, cut)
        and is_restricted(kappa, cut)
    )
