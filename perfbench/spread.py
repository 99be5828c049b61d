"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the root of the repository:

    python3 perfbench/spread.py --workload <name> [--seeds 1-10] [--seconds <s>] [--trace 0|1]

Runs perfbench/run.py once per seed, one run at a time, and prints for each
metric the median and the spread: the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of the median.  With --trace 0
each spread is compared with a third of the metric's bound in BENCHMARK.json.
Appends one summary line to perfbench/results/spread.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    values: dict[str, list] = {}
    failed = 0
    walls = []
    for seed in seed_list(args.seeds):
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        walls.append(time.monotonic() - started)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None or not result["correct"] or result["failed"]:
            failed += 1
            print(f"seed {seed}: not correct\n{proc.stdout}{proc.stderr}", file=sys.stderr)
        if result is None:
            continue
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    summary = {"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
               "trace": args.trace, "failed_runs": failed,
               "max_run_wall_s": max(walls), "metrics": {}}
    print(f"{args.workload}: {len(walls)} runs, {failed} not correct, "
          f"longest run {max(walls):.1f} s")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        verdict = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
        summary["metrics"][name] = {"median": med, "spread": spread, "values": vals}
        if bound is not None or args.trace:
            print(f"  {name:45s} median {med:14.6f}  spread {spread:7.4f}  "
                  f"bound {bound if bound is not None else '-'}  {verdict}")
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", "spread.jsonl"), "a") as fh:
        fh.write(json.dumps(summary) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
