"""Acceptance gate: one test per criterion, each printing a pass/fail line
and enforcing its stated scale, tolerance, and runtime budget."""

import itertools
import time

from hurewicz_kit import alphabet as al
from hurewicz_kit import prime_coding as pc
from hurewicz_kit import relations as rel
from hurewicz_kit import verifier as vf

import repin
from oracles import all_seqs

# the registry entry each gate that runs a pinned call checks its report against
_PINS = repin.load()
_GATE_PINS = {e["gate"]: k for k, e in _PINS.items() if "gate" in e}


def _gate(number, name, limit, started, failures=0, report=None):
    changed = ""
    if report is not None:
        failures += report.failed
        changed = repin.check(_GATE_PINS[number], _PINS, report.to_json_bytes())
    elapsed = time.perf_counter() - started
    verdict = "PASS" if failures == 0 and not changed and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {verdict} ({elapsed:.1f}s, limit {limit}s)")
    assert not changed, changed
    assert failures == 0, f"{failures} failing checks"
    assert elapsed < limit, f"over budget: {elapsed:.1f}s >= {limit}s"


def test_criterion_1_coding_suite():
    t0 = time.perf_counter()
    seen = {}
    count = 0
    for s in all_seqs(4, 8):
        count += 1
        c = pc.encode(s)
        assert c not in seen, (s, seen.get(c))
        seen[c] = s
        assert pc.decode(c) == s
    assert count == 4681
    _gate(1, "coding-suite", 5, t0)


def test_criterion_2_alphabet_suite():
    t0 = time.perf_counter()
    levels = al.alphabets(5)
    assert levels[0] == (1, 4)
    assert levels[1] == (1, 36, 288)
    assert [len(a) for a in levels] == [2, 3, 7, 43, 1807]
    for i, a in enumerate(levels):
        for m in a:
            if m == 1:
                continue
            seq = pc.decode(m)
            assert seq is not None and len(seq) == i + 1 and seq[-1] == 1
            assert al.node_valid(seq[:-1])
    _gate(2, "alphabet-suite", 10, t0)


def test_criterion_3_departure_axioms():
    t0 = time.perf_counter()
    report = vf.verify_departure(
        depth=3,
        horizon=10_000,
        samples=1000,
        seed=0,
        include=("branch-axioms",),
    )
    _gate(3, "departure-axioms", 60, t0, report=report)


def test_criterion_4_density():
    t0 = time.perf_counter()
    report = vf.verify_departure(
        depth=4, horizon=10_000, seed=0, include=("density",)
    )
    _gate(4, "density", 60, t0, report=report)


def test_criterion_5_relation_axioms():
    t0 = time.perf_counter()
    failures = 0

    # both clauses of the rank axiom, plus the closed-form self-relation test
    for p in range(5):
        for nd in al.enumerate_nodes(p):
            related = rel.rel_R(nd, nd)
            if related != rel.self_related_profile(nd):
                failures += 1
            if related and rel.psi(nd, nd).rank != 0:
                failures += 1
    for p in range(4):
        nodes = al.enumerate_nodes(p)
        labels = al.alphabet_at(p)
        for s in nodes:
            for t in nodes:
                base = rel.psi(s, t).rank
                for j in labels:
                    child = rel.psi(s + (j,), t + (j,))
                    if child.rank is not None and child.rank != base:
                        failures += 1

    # antisymmetry on distinct nodes, exhaustively both directions
    for p in range(5):
        for s, t in itertools.combinations(al.enumerate_nodes(p), 2):
            if rel.rel_R(s, t) and rel.rel_R(t, s):
                failures += 1

    # forest structure with the exact census at depth 3
    for p in (2, 3, 4):
        g = rel.t_graph(p)
        if not rel.verify_forest(g).acyclic:
            failures += 1
        if p == 3 and len(g.edges) != 6:
            failures += 1
    _gate(5, "relation-axioms", 300, t0, failures)


def test_criterion_6_good_sequence_suite():
    t0 = time.perf_counter()
    report = vf.verify_good_sequence(
        max_s_len=3,
        max_entry=4,
        horizon=100_000,
        pair_max_len=2,
        pair_max_entry=3,
        max_u_len=12,
    )
    _gate(6, "good-sequence-suite", 120, t0, report=report)


def test_criterion_7_cascade_suite():
    t0 = time.perf_counter()
    report = vf.verify_cascade(trials=10_000, seed=0, max_depth=4, max_branching=4)
    _gate(7, "cascade-suite", 120, t0, report=report)


def test_criterion_8_mutation_sensitivity():
    t0 = time.perf_counter()
    report = vf.mutation_report(seed=0)
    # every documented fault detected, each with a concrete counterexample
    missing = sum(not check.notes for check in report.checks)
    _gate(8, "mutation-sensitivity", 60, t0, missing, report)


def test_criterion_9_determinism():
    t0 = time.perf_counter()
    runs = [
        lambda: vf.verify_departure(depth=2, horizon=500, samples=25, seed=7),
        lambda: vf.verify_no_isolated(depth=2, horizon=400, samples=8, seed=7),
        lambda: vf.verify_arrival_scan(depth=1, horizon=150, max_chain=1),
        lambda: vf.verify_good_sequence(
            max_s_len=2, max_entry=3, horizon=3000, pair_max_len=1,
            pair_max_entry=2, max_u_len=5,
        ),
        lambda: vf.verify_cascade(trials=40, seed=7),
        lambda: vf.mutation_report(seed=7),
    ]
    failures = 0
    for run in runs:
        if run().to_json_bytes() != run().to_json_bytes():
            failures += 1
    _gate(9, "determinism", 120, t0, failures)
