"""One suite call in a fresh interpreter, the way a CLI invocation makes it.

Usage: child.py <workload> <seed> <plain|traced|setup> <spawn time> [<spans file>]

<spawn time> is the parent's time.monotonic() just before it started this
process, so set-up time covers interpreter start, the package import and the
memo tables the call reads.  A "setup" child stops there, after timing the
reference work; a "traced" child installs the tracer before set-up.  Prints
one JSON line with the measurements.

Around the call the child also times a fixed reference work (reference_s),
right after set-up and right after the call.  This machine's speed swings by
up to 2x over tens of seconds, for CPU time as much as for wall time; run.py
divides by the reference time to cancel that (NOTES.md).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from fractions import Fraction

from workloads import WORKLOADS, corrupt, expected_report, recorded_hashes, report_ok, sha256

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
REF_UNITS = 8  # reference units timed before and again after the call

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_BIG = tuple(2**300 * 3**200 * 5**100 * 7**50 * 11**25 * 13**10 * k for k in (1, 17, 19, 23)) * 3


class _Slot:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b

    def at(self, k: int) -> int:
        return self.b * (k + 1) // self.a - 1 if (k + 1) % self.a == 0 else k


def _reference_unit() -> int:
    """Fixed pure-Python work in the kinds the suites do: big-int trial
    division, tuple slicing with set and dict operations, method calls on
    small objects, and Fraction arithmetic.  It must never change: every
    recorded time is scaled by its time."""
    total = 0
    for c in _BIG:
        for p in _PRIMES:
            while c % p == 0:
                c //= p
                total += 1
    table: dict = {}
    for i in range(6000):
        u = (i % 3, i % 5, i % 7, i % 11)
        key = u[:2] + (i % 13,)
        table[key] = table.get(key, 0) + len(frozenset(u) - {i % 3})
    slots = [_Slot(2 + i % 5, 3 + i % 7) for i in range(200)]
    for k in range(60):
        for slot in slots:
            total += slot.at(k)
    x = Fraction(0)
    for i in range(1, 400):
        x = min(x + Fraction(1, 2 ** (i % 9)), Fraction(i, 4))
    return total + len(table) + x.numerator


def reference_s() -> float:
    """Mean wall time of one reference unit, over REF_UNITS units."""
    start = time.perf_counter()
    for _ in range(REF_UNITS):
        _reference_unit()
    return (time.perf_counter() - start) / REF_UNITS


def main(argv: list[str]) -> None:
    name, seed, kind, spawned = argv[0], int(argv[1]), argv[2], float(argv[3])
    sys.path.insert(0, SRC)
    from hurewicz_kit import alphabet, departure, verifier

    tracer = None
    if kind == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    wl = WORKLOADS[name]
    if wl.alphabets:
        alphabet.alphabets(wl.alphabets)
    if wl.branches_horizon:
        departure.branches_within(wl.branches_horizon)
    setup_s = time.monotonic() - spawned
    ref_before = reference_s()
    if kind == "setup":
        print(json.dumps({"setup_s": setup_s, "ref_before_s": ref_before}))
        return

    expected = expected_report(name, seed)
    recorded = recorded_hashes()[name].get(str(seed))
    suite = verifier.SUITES[wl.suite]
    params = wl.params(seed)

    start = time.perf_counter()
    report = suite(**params)
    data = report.to_json_bytes()
    ok = report_ok(data, expected, recorded)
    verdict_s = time.perf_counter() - start

    out = {
        "setup_s": setup_s,
        "verdict_s": verdict_s,
        "ref_before_s": ref_before,
        "ref_after_s": reference_s(),
        "checks": sum(c.passed + c.failed + c.inconclusive for c in report.checks),
        "failed_checks": report.failed,
        "report_ok": ok,
        "report_sha256": sha256(data),
        "hash_recorded": recorded is not None,
        "corruption_caught": not report_ok(corrupt(data), expected, recorded),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(json.loads(data))
        out["caches"] = tracer.caches()
        if len(argv) > 4:
            tracer.write_spans(argv[4])
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
