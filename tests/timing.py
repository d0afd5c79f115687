"""A check that a call takes time linear in the size of its input."""

from __future__ import annotations

import gc
import math
import statistics
import time
from typing import Callable


def _seconds(call: Callable[[object], object], arg: object, reads: int) -> float:
    start = time.perf_counter()
    for _ in range(reads):
        call(arg)
    return (time.perf_counter() - start) / reads


def assert_linear(
    call: Callable[[object], object], small: object, large: object, limit: float | None = 0.1
) -> None:
    """``call(small)`` takes under ``limit`` seconds, if one is given, and
    ``call(large)``, on an input four times the size, at most five times
    as long.

    The garbage collector is off while the calls run, as ``timeit`` has it:
    a collection walks every object of the test process, and one that
    falls in a timing would decide the ratio.
    """
    gc.disable()
    try:
        once = min(_seconds(call, small, 1) for _ in range(3))
        # enough reads per timing that each takes 5 ms or more, so that timer
        # noise does not decide the ratio, and the two sizes in turn, so that
        # a slow spell of the machine slows both
        reads = math.ceil(0.005 / once)
        times = [(_seconds(call, small, reads), _seconds(call, large, reads)) for _ in range(7)]
    finally:
        gc.enable()
    if limit is not None:
        assert once < limit
    # the median of the pairs' ratios, which one fast or slow timing of
    # either size does not move
    assert statistics.median(t / s for s, t in times) <= 5, times
