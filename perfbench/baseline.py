"""One-shot reproduction of the acceptance-gate timings (gates 3 to 7).

Usage, from the root of the repository: python3 perfbench/baseline.py

Runs the parameter sets of acceptance gates 3 to 7 once each, at acceptance
scale, in one interpreter and in gate order, and writes the wall times and
failure counts to perfbench/results/baseline.json.  It takes several minutes
and is not one of the benchmark's workloads; its figures are single samples,
for comparison with the baseline table in ROADMAP.md.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from hurewicz_kit import alphabet as al  # noqa: E402
from hurewicz_kit import relations as rel  # noqa: E402
from hurewicz_kit import verifier as vf  # noqa: E402


def relation_axioms() -> int:
    """The checks of acceptance gate 5, which is a test body, not one suite."""
    failures = 0
    for p in range(5):
        for nd in al.enumerate_nodes(p):
            related = rel.rel_R(nd, nd)
            failures += related != rel.self_related_profile(nd)
            failures += bool(related and rel.psi(nd, nd).rank != 0)
    for p in range(4):
        nodes = al.enumerate_nodes(p)
        labels = al.alphabet_at(p)
        for s in nodes:
            for t in nodes:
                base = rel.psi(s, t).rank
                for j in labels:
                    child = rel.psi(s + (j,), t + (j,))
                    failures += child.rank is not None and child.rank != base
    for p in range(5):
        for s, t in itertools.combinations(al.enumerate_nodes(p), 2):
            failures += rel.rel_R(s, t) and rel.rel_R(t, s)
    for p in (2, 3, 4):
        g = rel.t_graph(p)
        failures += not rel.verify_forest(g).acyclic
        failures += p == 3 and len(g.edges) != 6
    return failures


GATES = (
    (3, "departure-axioms", 60, lambda: vf.verify_departure(
        depth=3, horizon=10_000, samples=1000, seed=0, include=("branch-axioms",)).failed),
    (4, "density", 60, lambda: vf.verify_departure(
        depth=4, horizon=10_000, seed=0, include=("density",)).failed),
    (5, "relation-axioms", 300, relation_axioms),
    (6, "good-sequence", 120, lambda: vf.verify_good_sequence(
        max_s_len=3, max_entry=4, horizon=100_000, pair_max_len=2, pair_max_entry=3,
        max_u_len=12).failed),
    (7, "cascade", 120, lambda: vf.verify_cascade(
        trials=10_000, seed=0, max_depth=4, max_branching=4).failed),
)


def main() -> int:
    rows = []
    for number, name, budget, run in GATES:
        start = time.perf_counter()
        failures = run()
        wall = time.perf_counter() - start
        rows.append({"gate": number, "name": name, "wall_s": wall, "budget_s": budget,
                     "failures": failures})
        print(f"gate {number} {name}: {wall:.1f} s (budget {budget} s), {failures} failures",
              flush=True)
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", "baseline.json"), "w") as fh:
        json.dump({"nproc": os.cpu_count(), "python": sys.version,
                   "platform": platform.platform(), "loadavg_after": os.getloadavg(),
                   "gates": rows}, fh, indent=2)
        fh.write("\n")
    return 1 if any(r["failures"] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
