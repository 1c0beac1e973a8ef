"""The cost of one call, counted without a clock: its tracemalloc peak and the
line events it runs in one module.  Both are the same on every run of one
Python version, so a test can bound them where a timing would need many
alternated runs.  pytest collects only test_*.py files, so this module is
imported, never collected."""

import os
import sys
import tracemalloc


def peak_kib(fn) -> float:
    """The tracemalloc peak of one call of fn, in KiB, above what was traced
    at the call's start (nothing, unless tracing was already on).

    fn runs once before the measured call, so that call finds the interpreter's
    free lists and caches as fn itself leaves them: a guard reads the same
    whatever ran before it in the process."""
    fn()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    start, _ = tracemalloc.get_traced_memory()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return (peak - start) / 1024


def line_events(fn, module_suffix: str) -> int:
    """The line events of one call of fn in the module whose file name ends
    with module_suffix ("segrsk/rsk.py"); work inside C calls is invisible."""
    suffix = module_suffix.replace("/", os.sep)
    count = 0

    def count_lines(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return count_lines

    def enter(frame, event, arg):
        return count_lines if frame.f_code.co_filename.endswith(suffix) else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count
