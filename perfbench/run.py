"""Benchmark entry point: run one workload for a fixed time, print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The load is a closed loop with one client.  Each suite call runs in its own
fresh, single-threaded interpreter (child.py), one at a time, because a CLI
user pays the import and the cold memo tables on every invocation.  Calls are
repeated until --seconds are used up, and each metric is the median over the
calls.  The seed is the suite's seed (where the suite takes one) and the
child's PYTHONHASHSEED, so the same seed gives the same inputs.

--trace 0 alternates untraced calls with set-up probes (children that stop
when set-up is done, so set-up time has twice the samples) and prints the
end-to-end metrics.  --trace 1 alternates untraced and traced calls and
prints the per-layer metrics of the traced ones (tracer.py), plus the tracing
overhead: the traced minus the untraced median verdict time.

Every report is checked byte for byte (workloads.report_ok).  A call fails if
it raises, if its report has failed checks or differs from the expected
bytes, or if a one-byte corruption of its report would pass the check.  The
error rate is failed / attempted, in the last line's "failed" and
"attempted".  The last line of standard output is the JSON result; a record
of the run is written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracer import METRICS as LAYER_METRICS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE_DIR = os.path.join(ROOT, "src", "hurewicz_kit")
RESULTS = os.path.join(HERE, "results")

KINDS = {0: ("plain", "setup"), 1: ("plain", "traced")}  # children of a run, by --trace
MIN_CALLS = 3  # of each kind, however short --seconds is
LAST_START_S = 120  # no call starts later than this into a run
DEADLINE_S = 170  # a call still running at this point is killed and failed

# Time of one reference unit (child.reference_s) at the reference speed: its
# time on this machine in its fast phases.  Scaled times read as wall times
# on a machine running at that speed.
REF_UNIT_S = 0.0125

E2E_UNITS = {"setup_s": "s", "verdict_s": "s", "checks_per_s": "1/s", "peak_rss_mb": "MB"}


def run_call(name: str, seed: int, kind: str, spans_path: str | None, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    spawned = time.monotonic()
    cmd = [sys.executable, "-s", os.path.join(HERE, "child.py"), name, str(seed), kind,
           repr(spawned)]
    if spans_path:
        cmd.append(spans_path)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        return {"kind": kind, "error": "timed out"}
    call = {"kind": kind, "wall_s": time.monotonic() - spawned}
    if proc.returncode != 0:
        call["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        return call
    call.update(json.loads(proc.stdout.strip().splitlines()[-1]))
    if kind == "setup":
        return call
    problems = []
    if call["failed_checks"]:
        problems.append(f"{call['failed_checks']} failed checks")
    if not call["report_ok"]:
        problems.append("report differs from the expected bytes")
    if not call["corruption_caught"]:
        problems.append("a corrupted report passes the check")
    if problems:
        call["error"] = "; ".join(problems)
    return call


def run_calls(name: str, seed: int, seconds: int, trace: int, spans_path: str) -> list[dict]:
    """Alternate the kinds of child until each has MIN_CALLS and the next
    would likely end past --seconds."""
    kinds = KINDS[trace]
    calls: list[dict] = []
    start = time.monotonic()
    while True:
        kind = kinds[len(calls) % len(kinds)]
        elapsed = time.monotonic() - start
        walls = [c["wall_s"] for c in calls if c["kind"] == kind and "wall_s" in c]
        enough = all(sum(c["kind"] == k for c in calls) >= MIN_CALLS for k in kinds)
        if elapsed > LAST_START_S or (
            enough and walls and elapsed + statistics.median(walls) > seconds
        ):
            break
        first_traced = kind == "traced" and not any(c["kind"] == kind for c in calls)
        calls.append(run_call(name, seed, kind, spans_path if first_traced else None,
                              start + DEADLINE_S))
    return calls


def median_of(calls: list[dict], key) -> float:
    values = [key(c) for c in calls]
    return statistics.median(values) if values else 0.0


def scaled(call: dict, key: str) -> float:
    """A time of the child in seconds at reference speed: its wall time times
    REF_UNIT_S over the reference-unit time measured nearest to it."""
    if key == "setup_s":
        return call[key] * REF_UNIT_S / call["ref_before_s"]
    return call[key] * REF_UNIT_S * 2 / (call["ref_before_s"] + call["ref_after_s"])


def end_to_end(plain: list[dict], probes: list[dict]) -> dict:
    return {
        "setup_s": median_of(plain + probes, lambda c: scaled(c, "setup_s")),
        "verdict_s": median_of(plain, lambda c: scaled(c, "verdict_s")),
        "checks_per_s": median_of(plain, lambda c: c["checks"] / scaled(c, "verdict_s")),
        "peak_rss_mb": median_of(plain, lambda c: c["peak_rss_mb"]),
    }


def wall_clock(plain: list[dict], probes: list[dict]) -> dict:
    """The unscaled medians, for the run record."""
    return {
        "setup_wall_s": median_of(plain + probes, lambda c: c["setup_s"]),
        "verdict_wall_s": median_of(plain, lambda c: c["verdict_s"]),
        "reference_unit_s": median_of(plain + probes, lambda c: c["ref_before_s"]),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Medians of the traced calls' layer metrics (times scaled like the
    end-to-end ones), the tracing overhead, and the ways the traced calls
    disagree with each other or with the untraced ones."""
    problems = []
    counts = {
        json.dumps({k: v for k, v in c["layers"].items() if unit_of(k) == "count"})
        for c in traced
    }
    if len(counts) > 1:
        problems.append("traced calls disagree on their counts")
    if len({c["report_sha256"] for c in plain + traced}) > 1:
        problems.append("traced and untraced reports differ")
    metrics = {}
    for name, unit, *_ in LAYER_METRICS:
        if unit == "s":
            metrics[name] = median_of(
                traced, lambda c: c["layers"][name] * scaled(c, "verdict_s") / c["verdict_s"]
            )
        else:  # counts and ratios repeat exactly, so any call's value is the median
            metrics[name] = statistics.median_low(c["layers"][name] for c in traced) if traced else 0
    metrics["trace.overhead_s"] = median_of(traced, lambda c: scaled(c, "verdict_s")) - median_of(
        plain, lambda c: scaled(c, "verdict_s")
    )
    return metrics, problems


def unit_of(metric: str) -> str:
    for name, unit, *_ in LAYER_METRICS:
        if name == metric:
            return unit
    return E2E_UNITS.get(metric, "s")


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None where
    the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return None


def src_sha256() -> str:
    """Digest of the package source, which names the code where git cannot."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(PACKAGE_DIR, "*.py"))):
        digest.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read() + b"\0")
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        print(f"perfbench: no package source at {PACKAGE_DIR}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {
        "workload": args.workload,
        "suite": wl.suite,
        "params": {k: list(v) if isinstance(v, tuple) else v for k, v in wl.params(args.seed).items()},
        "set_up": {"alphabets": wl.alphabets, "branches_within": wl.branches_horizon},
        "seed": args.seed,
        "pythonhashseed": args.seed % 2**32,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version,
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "loadavg_before": os.getloadavg(),
    }
    calls = run_calls(args.workload, args.seed, args.seconds, args.trace, stem + ".spans.json.gz")
    record["loadavg_after"] = os.getloadavg()

    good = {kind: [c for c in calls if c["kind"] == kind and "error" not in c]
            for kind in ("plain", "setup", "traced")}
    plain, probes, traced = good["plain"], good["setup"], good["traced"]
    suite_calls = [c for c in calls if c["kind"] != "setup"]
    failed = sum("error" in c for c in suite_calls)
    problems = [f"{c['kind']} child {i}: {c['error']}" for i, c in enumerate(calls) if "error" in c]
    if args.trace:
        metrics, mismatches = per_layer(plain, traced)
        problems += mismatches
    else:
        metrics = end_to_end(plain, probes)
    correct = not problems and bool(plain) and bool(traced or probes)

    record["wall_clock"] = wall_clock(plain, probes)
    print("run-record " + json.dumps(record))
    for problem in problems:
        print("problem: " + problem)
    print(f"children: {len(plain)} untraced, {len(traced)} traced, {len(probes)} set-up probes; "
          f"error_rate {failed / len(suite_calls):.4f} "
          f"({failed} failed of {len(suite_calls)} suite calls attempted)")
    for name, value in metrics.items():
        print(f"  {name:45s} {value:>16.6f} {unit_of(name)}")
    result = {
        "correct": correct,
        "attempted": len(suite_calls),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    with open(stem + ".json", "w") as fh:
        json.dump({"record": record, "calls": calls, "result": result}, fh, indent=1)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
