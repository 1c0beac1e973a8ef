"""Tests of the tracer on small library calls.

    python3 -m unittest discover -s perfbench/tests
"""

import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import tracer  # noqa: E402
from segrsk import rsk, specht  # noqa: E402
from segrsk.multisegment import Multisegment  # noqa: E402


class TracerTest(unittest.TestCase):
    def trace(self, calls):
        tr = tracer.Tracer()
        tr.install()
        try:
            t0 = time.perf_counter()
            for i, call in enumerate(calls):
                span = tr.begin_request(i)
                call()
                tr.end_request(span)
            wall = time.perf_counter() - t0
        finally:
            tr.uninstall()
        return tr, wall

    def test_uninstall_restores_every_binding(self):
        originals = (rsk.rsk_transform, specht.rsk_transform, Multisegment.__init__)
        self.trace([lambda: rsk.width(Multisegment.parse("[1,1]+[2,2]"))])
        self.assertEqual((rsk.rsk_transform, specht.rsk_transform, Multisegment.__init__), originals)

    def test_counts_nesting_and_rebound_names(self):
        m = Multisegment.parse("[0,0]+[1,1]+[0,0]+[1,1]")
        # width runs the transform again: two peels deliver the same two ladders
        tr, _ = self.trace([lambda: rsk.rsk_transform(m), lambda: rsk.width(m)])
        calls = tr.counts()["calls"]
        self.assertEqual(calls["rsk.rsk_transform"], 2)
        self.assertEqual(calls["rsk.width"], 1)
        self.assertEqual(calls["rsk.knuth_viennot"], 4)
        self.assertEqual(calls["rsk.is_permissible_pair"], 4)
        self.assertEqual(tr.counts()["ladders_delivered"], 4)
        width_span = tr.span_name.index(tr.names.index("rsk.width"))
        nested = [i for i, p in enumerate(tr.parent) if p == width_span]
        self.assertEqual([tr.names[tr.span_name[i]] for i in nested], ["rsk.rsk_transform"])
        self.assertGreater(tr.counts()["constructors"]["multisegment.Multisegment"], 0)

    def test_layer_self_times_and_remainder_add_up_to_wall(self):
        m = Multisegment.parse("[0,2]+[1,1]+[1,3]+[2,2]")
        tr, wall = self.trace([lambda: rsk.bitableau_of(m)] * 3)
        summary = tr.summary(wall)
        self.assertLess(abs(summary["closure_error"]), 1e-9)
        self.assertGreater(summary["layer_self"]["rsk"], 0.0)
        self.assertGreater(summary["remainder"], 0.0)


if __name__ == "__main__":
    unittest.main()
