"""Spans and call counts around the library's public functions.

The tracer patches functions from outside, in this process only: every name
bound to a traced function in any segrsk module, such as the copy of
`rsk_transform` that `specht` imports, is rebound to a wrapper that records
a span (name, start, end, parent, request).  The hot constructors only count
calls.  `uninstall` restores every original binding.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import stats

# (module, attribute) of every function that gets a span.  Functions the
# metrics do not name are traced too, so that their time lands in their own
# layer rather than in their caller's.
SPANNED = (
    ("cli", "main"),
    ("checks", "suite_rsk"),
    ("checks", "suite_kv"),
    ("checks", "suite_strings"),
    ("checks", "suite_combi"),
    ("checks", "suite_tableaux"),
    ("checks", "suite_specht"),
    ("specht", "specht_rsk_verify"),
    ("specht", "pad"),
    ("specht", "ladder_of_partition"),
    ("specht", "multiseg_of"),
    ("specht", "column_removal_check"),
    ("specht", "proper_rsk_identity"),
    ("strings", "bz_derivative"),
    ("strings", "bz_string"),
    ("strings", "single_derivative"),
    ("strings", "phi_weights"),
    ("strings", "phi_multiseg"),
    ("strings", "c_tuple"),
    ("strings", "c_prime_tuple"),
    ("rsk", "rsk_transform"),
    ("rsk", "width"),
    ("rsk", "knuth_viennot"),
    ("rsk", "is_permissible_pair"),
    ("rsk", "bitableau_of"),
    ("tableaux", "ladders_of"),
    ("tableaux", "c_count"),
    ("tableaux", "gamma_descriptor"),
    ("tableaux", "standard_tableaux"),
    ("multisegment", "Multisegment.weight"),
    ("lattice", "cartan_form"),
    ("lattice", "ell_form"),
    ("oracle", "dilworth_width"),
    ("oracle", "brute_permissible"),
    ("oracle", "kv_choice_independence"),
)
# classes whose constructor calls are counted, without spans
COUNTED = (("lattice", "Weight"), ("lattice", "LaurentPoly"), ("multisegment", "Multisegment"))
LAYERS = ("cli", "checks", "specht", "strings", "rsk", "tableaux", "multisegment", "lattice", "oracle")
ROOT = "request"


class Tracer:
    """Spans of one pass over some requests, held in memory."""

    def __init__(self):
        self.names = [ROOT] + [f"{mod}.{attr}" for mod, attr in SPANNED]
        self.span_name = array("H")
        self.request = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_request = -1
        self.ctor_calls = Counter()
        # waste counters: ladders delivered per request, distinct ladder_of_partition args
        self.ladders_delivered = 0
        self._transformed: set = set()
        self.partition_args: set = set()
        self.suite_cases = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.span_name.append(name_id)
        self.request.append(self.current_request)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def begin_request(self, request_id: int) -> int:
        self.current_request = request_id
        self._transformed = set()
        return self._open(0)

    def end_request(self, idx: int) -> None:
        self._close(idx)

    def _span_wrapper(self, fn, name_id: int, observe):
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
            if observe is not None:
                observe(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _counting_init(self, cls_name: str, init):
        counts = self.ctor_calls

        def __init__(obj, *args, **kwargs):
            counts[cls_name] += 1
            init(obj, *args, **kwargs)

        return __init__

    # -- observers for the waste ratios

    def _saw_transform(self, args, out) -> None:
        m = args[0]
        if m not in self._transformed:
            self._transformed.add(m)
            self.ladders_delivered += len(out)

    def _saw_partition(self, args, out) -> None:
        self.partition_args.add((args[0], args[1]))

    def _saw_suite(self, args, out) -> None:
        self.suite_cases[out.name] += out.cases

    # -- patching

    def _rebind(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        layer = {name: importlib.import_module(f"segrsk.{name}") for name in LAYERS}
        modules = [m for n, m in list(sys.modules.items()) if n == "segrsk" or n.startswith("segrsk.")]
        observers = {
            "rsk.rsk_transform": self._saw_transform,
            "specht.ladder_of_partition": self._saw_partition,
        }
        for name_id, (mod, attr) in enumerate(SPANNED, start=1):
            owner = layer[mod]
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[leaf]
            name = self.names[name_id]
            observe = observers.get(name, self._saw_suite if mod == "checks" else None)
            wrapper = self._span_wrapper(original, name_id, observe)
            if isinstance(owner, type):
                self._rebind(owner, leaf, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)
        for mod, cls_name in COUNTED:
            cls = getattr(layer[mod], cls_name)
            self._rebind(cls, "__init__", self._counting_init(f"{mod}.{cls_name}", cls.__init__))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results

    def counts(self) -> dict:
        """Every count the pass made; two passes over the same requests agree."""
        calls = Counter(self.names[i] for i in self.span_name)
        return {
            "calls": dict(calls),
            "constructors": dict(self.ctor_calls),
            "ladders_delivered": self.ladders_delivered,
            "distinct_partition_args": len(self.partition_args),
            "suite_cases": dict(self.suite_cases),
        }

    def summary(self, wall: float) -> dict:
        """Per-name self and total time; per-layer self time and the remainder.

        The remainder is the time inside no layer span: the harness's own
        per-request work plus the gaps between requests.  Layer self times
        plus the remainder equal the pass's wall time.
        """
        per_name, root_self = stats.attribute(self.span_name, self.start, self.end, self.parent, 0)
        total: dict[int, float] = {}
        covered = 0.0
        for name_id, s, e in zip(self.span_name, self.start, self.end):
            total[name_id] = total.get(name_id, 0.0) + (e - s)
            if name_id == 0:
                covered += e - s
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name_id, own in per_name.items():
            layer_self[self.names[name_id].split(".", 1)[0]] += own
        remainder = root_self + (wall - covered)
        closure = sum(layer_self.values()) + remainder - wall
        return {
            "self": {self.names[i]: v for i, v in per_name.items()},
            "total": {self.names[i]: v for i, v in total.items()},
            "layer_self": layer_self,
            "remainder": remainder,
            "closure_error": closure,
        }

    def write(self, path: Path) -> None:
        """A JSON header line, then the span columns as raw machine arrays."""
        columns = [
            ("name", self.span_name),
            ("request", self.request),
            ("parent", self.parent),
            ("start", self.start),
            ("end", self.end),
        ]
        header = {
            "names": self.names,
            "count": len(self.start),
            "byteorder": sys.byteorder,
            "columns": [[col, arr.typecode] for col, arr in columns],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, arr in columns:
                arr.tofile(fh)
