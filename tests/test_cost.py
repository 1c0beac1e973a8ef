"""Cost guards of the peel and of suite_rsk, counted without a clock
(tests/_cost.py): the tracemalloc peak of one call, and how the line events
of one call grow from n to 2n.  Each bound comes from a measured value and
keeps a stated margin; raising one is a rule change, to be stated with its
reason."""

import random

import pytest

from _cost import line_events, peak_kib
from _inputs import random_multisegment
from segrsk import checks, rsk
from segrsk.multisegment import Multisegment
from segrsk.oracle import EnumerationBounds

M = Multisegment.of


def _nested(n):
    """[0,0], [-1,1], ...: pairwise ll-incomparable, so n peels whose rests
    hold n-1, n-2, ... segments."""
    return M(*((-i, i) for i in range(n)))


def _doubled_chain(n):
    """Two copies of the point chain [0,0] << [1,1] << ... of n // 2 points."""
    return M(*[(i, i) for i in range(n // 2)] * 2)


def _repeated_points(n):
    return M(*[(0, 0)] * n)


def _seeded(n):
    return random_multisegment(random.Random(n), n)


class TestPeakMemory:
    def test_transform_holds_one_rest_at_a_time(self):
        # 200 peels whose rests hold 19,900 segments in all; streamed, the
        # peak is one rest and the ladders: 74 KiB measured, against 1,493
        # KiB when every rest of the trace was kept
        m = _nested(200)
        assert peak_kib(lambda: rsk.rsk_transform(m)) < 256

    def test_permissibility_memo_is_one_byte_per_state(self):
        # the first peel of the doubled chain of 100 points splits it into
        # two copies of the chain: 100 distinct segments against a ladder of
        # 100, 74 KiB measured with a bytearray per segment, against 375 KiB
        # for a dict keyed by (segment, position)
        chain = M(*((i, i) for i in range(100)))
        assert peak_kib(lambda: rsk.is_permissible_pair(chain, chain)) < 160

    def test_suite_rsk_keeps_no_object_per_instance(self):
        # 1,000 instances, each checked on its own by reverse bumping: 345
        # KiB measured, the instance list and the first-peel memo, against
        # 836 KiB when the suite kept every instance's first peel to compare
        # across instances.  A first call in a process also fills the
        # interpreter's free lists, which reads several hundred KiB more, so
        # the suite runs once before it is measured
        def run():
            return checks.suite_rsk(EnumerationBounds(-1, 2, 4), seed=0)

        run()
        assert peak_kib(run) < 512


@pytest.mark.parametrize("family", [_seeded, _nested, _doubled_chain, _repeated_points])
def test_depth_line_events_grow_near_linearly(family):
    """_depth_list's line events in rsk.py grow at most 2.3x from n=100 to
    n=200: 1.99x measured on every family, against 3.94x to 3.95x for the
    O(n^2) scan of every pair.  The bound comes from that measured value.
    Line events count Python lines only; work inside C calls (sorted,
    bisect) is invisible to this guard, so it pins the sweep's Python loop,
    not its whole cost."""

    def events(n):
        pairs = rsk._pairs(family(n))
        return line_events(lambda: rsk._depth_list(pairs), "segrsk/rsk.py")

    assert events(200) / events(100) <= 2.3
