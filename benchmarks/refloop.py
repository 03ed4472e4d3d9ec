"""A fixed pure-Python reference loop that gauges the machine's momentary speed.

On a shared virtual machine the speed one process sees drifts by up to
2.5x, in spells from under a second to minutes, and CPU time drifts with
wall time (the slowness is the virtual CPU's, not time spent descheduled).
The benchmark times this loop right before and right after each timed
decode and set-up, and reports a timing scaled to the loop's nominal speed:

    scaled = measured * nominal / mean(loop before, loop after)

The loop does the kind of work a decode does (bytes-keyed dict lookups,
list building, tuple sorts, ``math.log``) and is no part of fusedec, so a
change to the program moves the scaled timings and leaves the loop alone.
"""

from __future__ import annotations

import math
import random
import time

# About the least time one round took on the 2-vCPU Xeon virtual machine the
# benchmark was built on; it only sets the scale of the reported times.
ROUND_NOMINAL_S = 0.6e-3

_rng = random.Random(0)
_KEYS = [bytes(_rng.randrange(97, 113) for _ in range(_rng.randrange(1, 6))) for _ in range(1000)]


def _round() -> float:
    groups: dict[bytes, list[tuple[bytes, float]]] = {}
    for key in _KEYS:
        groups.setdefault(key[:1], []).append((key, math.log(len(key) + 1)))
    total = 0.0
    for _, group in sorted(groups.items()):
        group.sort(key=lambda kv: (-kv[1], kv[0]))
        total += sum(v for _, v in group)
    return total


def loop_s(rounds: int) -> float:
    """Seconds ``rounds`` rounds of the loop take now."""
    start = time.perf_counter()
    for _ in range(rounds):
        _round()
    return time.perf_counter() - start


def scale(rounds: int, before_s: float, after_s: float) -> float:
    """Factor that turns a time measured between two loop timings into nominal speed."""
    return rounds * ROUND_NOMINAL_S / ((before_s + after_s) / 2)


def timed(fn, rounds: int):
    """Run ``fn()`` between two loop timings: ``(result, measured_s, scale)``."""
    before = loop_s(rounds)
    start = time.perf_counter()
    result = fn()
    measured = time.perf_counter() - start
    return result, measured, scale(rounds, before, loop_s(rounds))
