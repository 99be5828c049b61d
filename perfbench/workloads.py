"""The benchmark's workloads and the correctness gate on their reports.

Each workload is one call of a verifier suite, made the way
``hurewicz-kit verify <suite>`` makes it: ``verifier.SUITES[suite](**params)``
serialised with ``to_json_bytes()``.  The set-up fields name the memo tables
the call reads, which the benchmark fills before the timed call and counts as
set-up time.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

DEFAULT_SEED = 0
# Recorded, but never used while the benchmark was sized: a later claim can be
# rechecked on it.
HELD_OUT_SEED = 2718281


@dataclass(frozen=True)
class Workload:
    suite: str  # key of verifier.SUITES
    fixed: dict  # suite parameters other than the seed
    seeded: bool  # whether the suite takes the seed as a parameter
    alphabets: int = 0  # set-up: alphabets(n)
    branches_horizon: int = 0  # set-up: branches_within(h), 0 for none
    held_out: tuple = ()  # extra seeds whose hash is recorded

    def params(self, seed: int) -> dict:
        return {**self.fixed, "seed": seed} if self.seeded else dict(self.fixed)


# Why each workload exists: every layer an optimisation is likely to touch
# dominates one workload and is absent or minor in the others (NOTES.md).
WORKLOADS = {
    # CLI-default `verify departure`: coding (decode via member_valid) and the
    # branch maps dominate; no index maps, no cascade.
    "departure": Workload(
        "departure",
        {"depth": 3, "horizon": 10_000, "samples": 50},
        seeded=True,
        alphabets=4,
        branches_horizon=10_000,
        held_out=(HELD_OUT_SEED,),
    ),
    # The depth-4 relation forest: t_graph's pairwise witness search
    # dominates; the level-4 alphabet census alphabets(5) is its set-up.
    "relation-forest": Workload(
        "departure",
        {"include": ("relations",), "relations_depth": 4},
        seeded=True,
        alphabets=5,
        branches_horizon=10_000,
    ),
    # The index-map suite: IndexMap builds and calls plus encode dominate.
    "index-maps": Workload(
        "good-suite",
        {
            "max_s_len": 3,
            "max_entry": 4,
            "horizon": 3_000,
            "pair_max_len": 2,
            "pair_max_entry": 3,
            "max_u_len": 7,
        },
        seeded=False,
    ),
    # Exact cascade checks; 320 trials is a multiple of 16, so every
    # (depth, branching) shape gets the same share.
    "cascade": Workload(
        "cascade",
        {"trials": 320, "max_depth": 4, "max_branching": 4},
        seeded=True,
        held_out=(HELD_OUT_SEED,),
    ),
}


def report_bytes(doc: dict) -> bytes:
    """Serialise a report document exactly as VerificationReport.to_json_bytes."""
    return (json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=True) + "\n").encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def recorded_hashes() -> dict:
    with open(os.path.join(GOLDEN, "hashes.json")) as fh:
        return json.load(fh)


def expected_report(name: str, seed: int) -> bytes:
    """The report a passing run of ``name`` at ``seed`` emits.

    A passing report lists no counterexamples, and its check counts do not
    depend on the seed, so it is the recorded default-seed report with only
    ``params.seed`` replaced.
    """
    with open(os.path.join(GOLDEN, f"{name}.json")) as fh:
        doc = json.load(fh)
    if WORKLOADS[name].seeded:
        doc["params"]["seed"] = seed
    return report_bytes(doc)


def report_ok(data: bytes, expected: bytes, recorded_sha: str | None) -> bool:
    """The correctness gate: the exact expected bytes, and the recorded
    SHA-256 where one was recorded for this seed."""
    return data == expected and (recorded_sha is None or sha256(data) == recorded_sha)


def corrupt(data: bytes) -> bytes:
    """The report with one byte changed, to show the gate counts it."""
    i = len(data) // 2
    return data[:i] + bytes([data[i] ^ 1]) + data[i + 1 :]
