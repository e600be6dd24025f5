"""A fixed pure-Python reference loop that measures how fast the CPU runs now.

On a shared machine the interpreter's speed drifts by up to 1.7x over
seconds to minutes as other tenants come and go, which moves every timing
with it.  The benchmark times this loop right around each measured call and
reports each timing rescaled to the speed at which the loop takes `REF_S`
seconds.  The loop does what the program does most, in the same
interpreter: scan characters into small objects and count them in a dict
(as the lexer does), and filter a few thousand tuple-keyed dict entries
(as the dependency graph does).  It shares no code with defsort, so a
change to defsort moves the rescaled timing and not the loop.
"""

from __future__ import annotations

import gc
import time
from statistics import median

REF_S = 0.005  # nominal seconds for one reference loop

_TEXT = "let a1 = foo(x, 12) + bar[3] in if a1 > 2 then {k |-> v} else mk_R(a1, 'c') " * 80
_KEYS = [(("ns", i % 2), f"name{i}") for i in range(3000)]
_EDGES = {(_KEYS[i], _KEYS[(i * 7) % 3000]): i for i in range(3000)}


class _Tok:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind, self.text, self.pos = kind, text, pos


def _scan_text() -> int:
    text, n, i = _TEXT, len(_TEXT), 0
    toks = []
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isalnum():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("word", text[i:j], i))
            i = j
        else:
            toks.append(_Tok("punct", c, i))
            i += 1
    counts: dict = {}
    for t in toks:
        counts[t.text] = counts.get(t.text, 0) + 1
    return len(counts)


def _scan_edges() -> int:
    return sum(len([v for (u, v) in _EDGES if u == k]) for k in _KEYS[:15])


def reference_seconds() -> float:
    """Wall seconds of one reference loop, now, without garbage collection."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _scan_text()
        _scan_edges()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def warm_reference(times: int = 20) -> float:
    """Run the loop until the interpreter has specialised it; returns the
    median of the last runs."""
    runs = [reference_seconds() for _ in range(times)]
    return median(runs[times // 2:])
