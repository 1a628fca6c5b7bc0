"""A fixed pure-Python reference loop that gauges the machine's current speed.

On a virtual machine that shares physical cores with other tenants, speed
drifts by up to 1.8x, often within a second, for holanom ops and for this
loop alike.  The benchmark times the loop next to
every op and reports op times scaled to a machine on which the loop takes
``REF_LOOP_MS``; the ratio of op time to loop time is what stays steady.
The loop does the kind of work holanom does: a truncated product of two
``Fraction`` polynomials keyed by exponent tuples.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REF_LOOP_MS = 1.6  # the loop's typical time on the machine the bounds were set on


def reference_loop() -> dict:
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(5)}
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in a.items():
            key = (ka[0] + kb[0], ka[1] + kb[1])
            if key[0] + key[1] <= 6:
                out[key] = out.get(key, Fraction(0)) + va * vb
    return out


def loop_seconds() -> float:
    start = perf_counter()
    reference_loop()
    return perf_counter() - start


def speed_factors(loop_times: list) -> list:
    """Per op: REF_LOOP_MS over the mean of the loops timed just before and after it.

    loop_times[i] is timed just before op i, so loop_times[i + 1] follows it
    with nothing in between; the speed changes within a second, so only
    these two neighbours are used.  The last op has only the loop before it.
    """
    out = []
    for i, before in enumerate(loop_times):
        after = loop_times[i + 1] if i + 1 < len(loop_times) else before
        out.append(REF_LOOP_MS / 1000 / ((before + after) / 2))
    return out
