"""Time ``import arfuture`` plus ``load_engine()`` in a fresh process.

    python3 setup_probe.py SRC

Beyond what the interpreter loads at start-up, only ``sys``, ``time`` and
the reference task are imported before the timer starts, so the modules
the package imports (``argparse``, ``json``, ``datetime`` ...) are paid
for as every command pays for them.
Prints one JSON object: the set-up seconds and the reference times taken
just before and just after.
"""

import sys
import time

from reference import reference_task


def main() -> int:
    src = sys.argv[1]
    sys.path.insert(0, src)
    before = reference_task()
    started = time.perf_counter()
    import arfuture
    from arfuture.resources import load_engine

    load_engine()
    setup_s = time.perf_counter() - started
    after = reference_task()

    import json
    from pathlib import Path

    # refuse to measure an arfuture installed elsewhere than SRC
    if not Path(arfuture.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"arfuture was imported from {arfuture.__file__}, not {src}", file=sys.stderr)
        return 1
    print(json.dumps({"setup_s": setup_s, "refs": [before, after]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
