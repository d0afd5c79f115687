"""A fixed pure-Python task that measures the speed of the machine.

It imports nothing but ``time``, so a process can time it before the
program under test has loaded any module.
"""

import time


def reference_task() -> float:
    """Seconds for a fixed task of string splitting, dict counting and
    small-object churn, about 16 ms on the baseline machine.  It depends
    only on the interpreter, never on the program under test."""
    started = time.perf_counter()
    counts: dict[str, int] = {}
    text = "ومن المتوقع ان يرتفع النمو ، في لبنان 1.5 % العام المقبل . " * 8
    for i in range(330):
        for word in text.split():
            key = word + str(i % 7)
            counts[key] = counts.get(key, 0) + len(word)
        _ = [(w, len(w)) for w in text[: 60 + i % 40].split(" ")]
    return time.perf_counter() - started
