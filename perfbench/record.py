"""Record the golden reports the benchmark checks against.

Usage, from the root of the repository: python3 perfbench/record.py

For each workload it writes the report at the default seed to
golden/<workload>.json, and the SHA-256 of the reports at the default seed
and at each held-out seed to golden/hashes.json.  It fails if a recorded
report has failed checks, or if a held-out report differs from the
default-seed report in anything but its seed.  Run it only when a report
changes on purpose.
"""

from __future__ import annotations

import json
import os
import sys

from workloads import DEFAULT_SEED, GOLDEN, WORKLOADS, expected_report, sha256

sys.path.insert(0, os.path.join(os.path.dirname(GOLDEN), os.pardir, "src"))
from hurewicz_kit import verifier  # noqa: E402


def main() -> int:
    hashes = {}
    for name, wl in WORKLOADS.items():
        hashes[name] = {}
        for seed in (DEFAULT_SEED, *wl.held_out):
            report = verifier.SUITES[wl.suite](**wl.params(seed))
            if report.failed:
                print(f"{name} seed {seed}: {report.failed} failed checks", file=sys.stderr)
                return 1
            data = report.to_json_bytes()
            if seed == DEFAULT_SEED:
                with open(os.path.join(GOLDEN, f"{name}.json"), "wb") as fh:
                    fh.write(data)
            elif data != expected_report(name, seed):
                print(f"{name} seed {seed}: report differs beyond its seed", file=sys.stderr)
                return 1
            hashes[name][str(seed)] = sha256(data)
            print(f"{name} seed {seed}: {hashes[name][str(seed)]}")
    with open(os.path.join(GOLDEN, "hashes.json"), "w") as fh:
        json.dump(hashes, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
