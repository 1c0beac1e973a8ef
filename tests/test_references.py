"""Every fast path against the slower reference it replaces, in one table:
REFERENCES maps a row id to (fast, reference, inputs), and fast(x) must equal
reference(x) for every x in inputs(), on the bounded domain and, where the
reference allows, on seeded inputs far above the brute-force guards.
`pytest tests/test_references.py -k <row>` runs one row.  The rows in HOME
are checked part by part, by assert_row, from the test modules that held
their loops, so those tests keep their names."""

import ast
import functools
import itertools
import random
from pathlib import Path

import pytest

import _inputs
from _inputs import DOMAIN, domain_and_seeded
from segrsk import checks, oracle, rsk, specht, strings, tableaux
from segrsk.lattice import Weight
from segrsk.multisegment import Multisegment
from segrsk.oracle import EnumerationBounds, enumerate_multisegments

M = Multisegment.of
BZ2 = strings.AdmissibleSequence.bz(2)
# three seeded inputs of each size, where the reference is cheap at 400
THREE_EACH = ((25, 3), (100, 3), (400, 3))


def star(f):
    """f taking its arguments as one tuple, for the rows whose inputs are tuples."""
    return lambda x: f(*x)


def _peel_trace_inputs(part):
    """The domain, or seeded inputs of `part` segments: three, one at 400."""
    if part == "domain":
        return enumerate_multisegments(DOMAIN)
    rng = random.Random(2110 + part)
    return [_inputs.random_multisegment(rng, part) for _ in range(3 if part < 400 else 1)]


def _iterated_peels(m):
    """peel_trace and the transform's ladders by knuth_viennot until nothing remains."""
    steps, rest = [], m
    while rest:
        steps.append(rsk.knuth_viennot(rest))
        rest = steps[-1][1]
    return tuple(steps), tuple(ladder for ladder, _ in steps)


def _criterion8_and_seeded():
    """Criterion 8's domain (-2, 2, 5), then the seeded inputs."""
    return domain_and_seeded(4031, EnumerationBounds(-2, 2, 5))


def _families():
    """The peel's worst families at 200 segments: nested, one repeated point
    and a doubled chain."""
    chain = [(i - 2, i) for i in range(100)]
    return [M(*((-i, i) for i in range(200))), M(*[(0, 0)] * 200), M(*chain, *chain)]


def _rsk_inputs():
    """(-2, 2, 5), seeded inputs, and the families."""
    return [*_criterion8_and_seeded(), *_families()]


def _largest_antichain(m):
    """The most occurrences that are pairwise ll-incomparable, over all subsets."""
    for size in range(len(m), 0, -1):
        for subset in itertools.combinations(m.segments, size):
            if not any(x.ll(y) or y.ll(x) for x, y in itertools.combinations(subset, 2)):
                return size
    return 0


def _antichain_inputs(part):
    """(-1, 1, 5), or five draws of `part` segments with begins in [-3, 3]
    and lengths 1 to 4, narrow enough for wide antichains."""
    if part == "domain":
        return enumerate_multisegments(EnumerationBounds(-1, 1, 5))
    rng = random.Random(part)
    return [
        M(*((b, b + rng.randint(0, 3)) for b in (rng.randint(-3, 3) for _ in range(part))))
        for _ in range(5)
    ]


def _matching_inputs(part):
    """The domain, or three seeded inputs of `part` segments."""
    if part == "domain":
        return enumerate_multisegments(DOMAIN)
    rng = random.Random(part)
    return [_inputs.random_multisegment(rng, part) for _ in range(3)]


def _recursive_dilworth_width(m):
    """Minimum chain cover by a recursive augmenting-path matching on ll-pairs."""
    segs = m.segments
    adj = [[j for j, y in enumerate(segs) if x.ll(y)] for x in segs]
    match_right = [None] * len(segs)

    def augment(i, seen):
        for j in adj[i]:
            if not seen[j]:
                seen[j] = True
                if match_right[j] is None or augment(match_right[j], seen):
                    match_right[j] = i
                    return True
        return False

    return len(segs) - sum(augment(i, [False] * len(segs)) for i in range(len(segs)))


def _per_depth_class(enumerations):
    """The enumerations of each depth class of m, in class order."""

    def run(m):
        segs = m.segments
        return [enumerations(segs, idxs) for idxs in oracle._depth_classes(segs)]

    return run


def _phi_inputs():
    """Every element alone, with itself, and on both sides of its neighbour."""
    domain = list(enumerate_multisegments(DOMAIN))
    for m, other in zip(domain, domain[-1:] + domain):
        yield from ((m,), (m, m), (m, other), (other, m))


def _phi_references(ms):
    """The public phi_weights, and Phi by its definition."""
    public = strings.phi_weights(BZ2, *_inputs.phi_data(BZ2, ms))
    return public, _inputs.reference_phi(BZ2, ms, oracle.reference_string_form)


def _brute_tableaux(mu):
    """Row-major permutations filtered to standard fillings, sorted."""
    ends = list(itertools.accumulate(mu.parts, initial=0))
    brute = []
    for perm in itertools.permutations(range(1, mu.size() + 1)):
        rows = [perm[a:b] for a, b in zip(ends, ends[1:])]
        if all(list(r) == sorted(r) for r in rows) and all(
            above[j] < row[j] for above, row in zip(rows, rows[1:]) for j in range(len(row))
        ):
            brute.append(tuple(rows))
    return tuple(sorted(brute, key=lambda t: sum(t, ())))


def _recursive_partitions_of(n):
    """partitions_of as the recursion it once was."""

    def build(remaining, cap):
        if remaining == 0:
            return [()]
        parts = range(min(cap, remaining), 0, -1)
        return [(part, *rest) for part in parts for rest in build(remaining - part, part)]

    return tuple(map(tableaux.Partition, build(n, n)))


def _mapped_segments(m):
    """derived, extended and shifted_right from the mapped segments."""
    return (
        Multisegment(d for d in (s.derived() for s in m) if d is not None),
        Multisegment(s.extended() for s in m),
        Multisegment(s.shifted_right() for s in m),
    )


def _weights_by_index(m):
    """weight and begin_weight summed one index of one segment at a time."""
    return Weight((i, 1) for s in m for i in range(s.b, s.e + 1)), Weight((s.b, 1) for s in m)


def _with_t(ts):
    return lambda: ((m, t) for m in enumerate_multisegments(DOMAIN) for t in ts)


def _partitions(top):
    return lambda: (mu for n in range(top + 1) for mu in checks.partitions_of(n))


def _multiseg_of_inputs():
    """Every multicharge of charges in [-2, 2] and level <= 3, with every
    multipartition of size <= 4, restricted or not."""
    for kappa in checks.iter_multicharges(-2, 2, 3):
        yield from ((kappa, mp) for mp in checks.iter_multipartitions(len(kappa), 4))


def _ladders(lo, hi, k):
    """Every ladder of k segments with begins and ends in [lo, hi]."""
    points = range(lo, hi + 1)
    return [
        M(*zip(begins, ends))
        for begins in itertools.combinations(points, k)
        for ends in itertools.combinations(points, k)
        if all(b <= e for b, e in zip(begins, ends))
    ]


def _long_ladder_pairs():
    """Six seeded ladders each of 3, 4 and 5 segments in [-2, 3], against
    every rest of at most 3 segments in [-2, 2]: long enough for chains of
    the rest to need distinct positions, and for ends to meet the ladder's
    begins and ends exactly."""
    rng = random.Random(29)
    ladders = [lad for k in (3, 4, 5) for lad in rng.sample(_ladders(-2, 3, k), 6)]
    return itertools.product(ladders, enumerate_multisegments(EnumerationBounds(-2, 2, 3)))


def _ladder_pairs():
    """Ladders of at most 2 segments in [-1, 2] against every multisegment
    there, then the long ladders."""
    bounds = EnumerationBounds(-1, 2, 2)
    ladders = [m for m in enumerate_multisegments(bounds) if m.is_ladder()]
    yield from itertools.product(ladders, enumerate_multisegments(bounds))
    yield from _long_ladder_pairs()


def _order_maps_inputs():
    return [Multisegment(), *domain_and_seeded(5147, counts=THREE_EACH)]


_seeded = functools.partial(domain_and_seeded, 4031)

REFERENCES = {
    "depth": (
        rsk.depth_function,
        lambda m: tuple(oracle.reference_depths(m.segments)),
        lambda: [*_seeded(), *_families()],
    ),
    "peel": (rsk.knuth_viennot, oracle.reference_peel, _criterion8_and_seeded),
    "peel_trace": (
        lambda m: (rsk.peel_trace(m), rsk.rsk_transform(m).ladders),
        _iterated_peels,
        _peel_trace_inputs,
    ),
    "permissible": (star(rsk.is_permissible_pair), star(oracle.brute_permissible), _ladder_pairs),
    "width": (rsk.width, oracle.dilworth_width, _seeded),
    "rsk": (lambda m: rsk.rsk_transform(m).ladders, oracle.insertion_ladders, _rsk_inputs),
    "antichain": (oracle.dilworth_width, _largest_antichain, _antichain_inputs),
    "matching": (oracle.dilworth_width, _recursive_dilworth_width, _matching_inputs),
    "nested_enumerations": (
        _per_depth_class(oracle._nested_enumerations),
        _per_depth_class(_inputs.all_nested_enumerations),
        lambda: (m for m in enumerate_multisegments(DOMAIN) if m),
    ),
    # the core against both the public function and the definition
    "phi": (lambda ms: (_inputs.checked_phi(BZ2, ms),) * 2, _phi_references, _phi_inputs),
    "support": (star(_inputs.support_error), star(_inputs.subcone_error), _with_t(range(4))),
    "bz_string": (star(strings.bz_string), star(_inputs.begin_weight_string), _with_t((2, 3))),
    "bz_derivative": (
        star(strings.bz_derivative),
        star(oracle.reference_bz_derivative),
        _with_t((2, 3)),
    ),
    "hook_length": (
        lambda mu: len(tableaux.standard_tableaux(mu)),
        oracle.hook_length_count,
        _partitions(8),
    ),
    "tableaux_order": (tableaux.standard_tableaux, _brute_tableaux, _partitions(7)),
    "partitions": (checks.partitions_of, _recursive_partitions_of, lambda: range(13)),
    "multiseg_of": (star(specht.multiseg_of), star(_inputs.summed_ladders), _multiseg_of_inputs),
    "order_maps": (
        lambda m: (m.derived(), m.extended(), m.shifted_right()),
        _mapped_segments,
        _order_maps_inputs,
    ),
    "weight_maps": (
        lambda m: (m.weight(), m.begin_weight()),
        _weights_by_index,
        _order_maps_inputs,
    ),
}

# the rows checked from the class that held their loops, whose inputs take
# the part that each test of the class checks
HOME = {
    "peel_trace": "test_rsk.py::TestPeelTrace",
    "antichain": "test_oracle.py::TestDilworthIsTheLargestAntichain",
    "matching": "test_oracle.py::TestDilworthAgainstRecursion",
    "order_maps": "test_multisegment.py::TestOrderPreservingMaps",
    "weight_maps": "test_multisegment.py::TestOrderPreservingMaps",
}


def assert_row(row, *part):
    """fast(x) == reference(x) for every input of the row, or of one part of it."""
    fast, reference, inputs = REFERENCES[row]
    checked = 0
    for x in inputs(*part):
        assert fast(x) == reference(x), f"{row} differs from its reference on {x!r}"
        checked += 1
    # a row whose inputs are empty would pass without checking
    assert checked


@pytest.mark.parametrize("row", [row for row in REFERENCES if row not in HOME])
def test_fast_path_matches_its_reference(row):
    assert_row(row)


def test_long_ladders_meet_both_answers():
    answers = {rsk.is_permissible_pair(*pair) for pair in _long_ladder_pairs()}
    assert answers == {True, False}


def test_every_home_row_is_checked_at_home():
    for row, home in HOME.items():
        module, name = home.split("::")
        tree = ast.parse((Path(__file__).parent / module).read_text())
        [cls] = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name]
        calls = [n for n in ast.walk(cls) if isinstance(n, ast.Call)]
        rows = [c.args[0].value for c in calls if getattr(c.func, "id", None) == "assert_row"]
        assert row in rows, f"{home} does not check the row {row}"


# the public oracle functions that need no row, each with its reason
NO_ROW = {
    "enumerate_multisegments": "it enumerates a domain",
    "kv_choice_independence": (
        "criterion 8 checks it; its peel is the peel row's reference, "
        "and its filter has the row nested_enumerations"
    ),
}


def test_every_oracle_function_has_a_row():
    defs = ast.parse(Path(oracle.__file__).read_text()).body
    public = {d.name for d in defs if isinstance(d, ast.FunctionDef) and d.name[0] != "_"}
    # each oracle.<name> this module reads
    tree = ast.parse(Path(__file__).read_text())
    attributes = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    named = {node.attr for node in attributes if getattr(node.value, "id", None) == "oracle"}
    assert sorted(public - named - set(NO_ROW)) == []
    # an exemption for a name that is gone or that has a row is stale
    assert set(NO_ROW) <= public - named
