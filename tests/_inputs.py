"""Inputs of the differential tests, and each test-local reference that a
row of test_references.py and a hypothesis test both read.  pytest collects
only test_*.py files, so this module is imported, never collected."""

import itertools
import random

from segrsk import strings
from segrsk.errors import PreconditionError
from segrsk.lattice import cartan_form
from segrsk.multisegment import Multisegment
from segrsk.oracle import EnumerationBounds, enumerate_multisegments
from segrsk.specht import ladder_of_partition
from segrsk.strings import AdmissibleSequence, beta_of, bz_string

# the bounded differential domain
DOMAIN = EnumerationBounds(-2, 2, 4)

# (size, how many) of the seeded inputs; one peel at 400 takes about 0.3 s
SEEDED = ((25, 3), (100, 3), (400, 1))


def random_multisegment(rng: random.Random, n: int) -> Multisegment:
    """n segments with begins in [-20, 20] and lengths 1 to 7."""
    begins = (rng.randint(-20, 20) for _ in range(n))
    return Multisegment.of(*((b, b + rng.randint(0, 6)) for b in begins))


def domain_and_seeded(seed: int, bounds=DOMAIN, counts=SEEDED) -> list[Multisegment]:
    """Every nonempty multisegment of the bounds, then random_multisegment
    inputs drawn from Random(seed), (size, how many) at a time."""
    rng = random.Random(seed)
    seeded = [random_multisegment(rng, n) for n, k in counts for _ in range(k)]
    return [m for m in enumerate_multisegments(bounds) if m] + seeded


def all_nested_enumerations(pairs, idxs):
    """The class filter as an all() over every permutation."""

    def nested(perm):
        seq = [pairs[i] for i in perm]
        return all(b1 <= b2 and e1 >= e2 for (b1, e1), (b2, e2) in zip(seq, seq[1:]))

    return [perm for perm in itertools.permutations(idxs) if nested(perm)]


def phi_data(seq: AdmissibleSequence, ms):
    """The BZ vectors and the weights of a tuple, the data Phi pairs up."""
    t = seq.indices[0]
    return [bz_string(m, t) for m in ms], [m.weight() for m in ms]


def checked_phi(seq: AdmissibleSequence, ms) -> int:
    """Phi through the core, each element's beta checked on its own as suite_combi does."""
    avecs, betas = phi_data(seq, ms)
    bvs = [strings._checked_betas(seq, (a,), (w,))[0] for a, w in zip(avecs, betas)]
    return strings._phi_pairs(seq.indices, avecs, betas, bvs)


def reference_phi(seq: AdmissibleSequence, ms, string_form) -> int:
    """phi_weights by its definition, with the string form the caller names."""
    avecs, betas = phi_data(seq, ms)
    return sum(
        string_form(seq.indices, avecs[j], avecs[k])
        - cartan_form(betas[k], beta_of(seq, avecs[j]))
        for j in range(len(avecs))
        for k in range(j + 1, len(avecs))
    )


def support_error(m: Multisegment, t: int):
    """The message of strings._check_support, or None when the support fits."""
    try:
        strings._check_support(m, t)
    except PreconditionError as exc:
        return str(exc)
    return None


def subcone_error(m: Multisegment, t: int):
    """The same through the dense weight's in_subcone."""
    return None if m.weight().in_subcone(t) else f"support of wt({m}) exceeds [-{t},{t}]"


def begin_weight_string(m: Multisegment, t: int) -> tuple[int, ...]:
    """bz_string as the begin weight's coefficients along AdmissibleSequence.bz(t)."""
    bw = m.begin_weight()
    return tuple(bw.coeff(i) for i in AdmissibleSequence.bz(t).indices)


def summed_ladders(kappa, mp) -> Multisegment:
    """multiseg_of by repeated multisegment sums, one ladder at a time."""
    return sum((ladder_of_partition(-k, mu) for k, mu in zip(kappa, mp)), Multisegment())
