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
    call: Callable[[object], object],
    small: object,
    large: object,
    limit: float | None = 0.1,
    reference: Callable[[object], object] | None = None,
) -> None:
    """``call(small)`` takes under ``limit`` seconds, if one is given, and
    ``call(large)``, on an input four times the size, at most five times
    as long.

    Given a ``reference``, a call known to take linear time on the same
    inputs, ``call``'s ratio of the two times must instead be at most twice
    the reference's, timed in the same pairs.  A busy machine, or a larger
    heap late in a test run, slows the large input of both alike: linear
    code that scales 4.0-4.4 times alone read 5.05 in a full run, while a
    quadratic walk grows some four times faster than its reference.

    The garbage collector is off while the calls run, as ``timeit`` has it:
    a collection walks every object of the test process, and one that
    falls in a timing would decide the ratio.
    """
    calls = [call] if reference is None else [call, reference]
    gc.disable()
    try:
        once = [min(_seconds(c, small, 1) for _ in range(3)) for c in calls]
        # enough reads per timing that each takes 5 ms or more, so that timer
        # noise does not decide the ratio, and the sizes in turn, so that a
        # slow spell of the machine slows both
        reads = [math.ceil(0.005 / t) for t in once]
        times = [
            [_seconds(c, arg, n) for arg in (small, large) for c, n in zip(calls, reads)]
            for _ in range(7)
        ]
    finally:
        gc.enable()
    if limit is not None:
        assert once[0] < limit
    # the median of the pairs' ratios, which one fast or slow timing of
    # either size does not move
    if reference is None:
        assert statistics.median(t / s for s, t in times) <= 5, times
    else:
        assert statistics.median((t / s) / (rt / rs) for s, rs, t, rt in times) <= 2, times
