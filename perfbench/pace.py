"""The host's speed, sampled around the timed calls of a pass.

On the two-core machine this benchmark was written on, the host slowed every
process about twofold, for stretches from a fraction of a second to minutes,
and for about half of the time, so run-to-run spread of raw times reached a
third of their median. A probe, two fixed loops of pure Python that do not
touch graverkit, is run before and after every timed call, with the garbage
collector off. Its integer loop alone tracked the host's slowdown of
completions well but not that of the oracle's enumeration; integer and
tuple-and-dict loops together tracked both. Probe time against the pinned quiet probe time
(`catalog.json`, "probe_s") is the factor by which the host was slow, and
`run.py` divides each item's time by the factor around it, and each pass's
total by the pass's mean factor. Re-running one fixed set of completions
for minutes, the integer loop cut the quartile spread of its time from 12%
to 4%. Raw times stay in the run's record.
"""

from __future__ import annotations

import gc
import time

INT_ITERATIONS = 10_000
TUPLE_ITERATIONS = 1_800


def probe() -> float:
    """Seconds two fixed loops take now: integer arithmetic, then tuples in a dict."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        for i in range(INT_ITERATIONS):
            acc = (acc * 1103515245 + i) & 0x7FFFFFFF
        table = {}
        for i in range(TUPLE_ITERATIONS):
            t = (i, i * 7 % 13, -i)
            table[t[1]] = t
            acc += sum(x for x in t if x > 0)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
