import json

from hurewicz_kit import alphabet as al
from hurewicz_kit import departure as dep
from hurewicz_kit import verifier as vf
from hurewicz_kit.base import Tri
from hurewicz_kit.prime_coding import encode


def test_departure_suite_small_green():
    r = vf.verify_departure(depth=2, horizon=500, samples=15, seed=1)
    assert r.failed == 0
    names = {c.name for c in r.checks}
    assert {"lex-increase", "stability-bound", "branch-disjointness",
            "density-unique-branch", "chain-forest"} <= names


def test_departure_detects_rewrite_fault():
    r = vf.verify_departure(
        depth=2, horizon=200, samples=10, seed=0,
        fault=vf.FAULT_REWRITE_OFF_BY_ONE, include=("branch-axioms",),
    )
    assert r.failed > 0
    closure = next(c for c in r.checks if c.name == "alphabet-closure")
    assert closure.failed > 0 and closure.counterexamples


def test_departure_detects_dropped_constraints():
    r = vf.verify_departure(
        depth=2, horizon=200, samples=10, seed=0,
        fault=vf.FAULT_DROP_NON_ONES, include=("branch-axioms", "density"),
    )
    assert r.failed > 0
    names_hit = {c.name for c in r.checks if c.failed}
    assert "branch-disjointness" in names_hit or "density-unique-branch" in names_hit


def test_no_isolated_suite():
    r = vf.verify_no_isolated(depth=2, horizon=500, samples=10, seed=0)
    assert r.failed == 0
    approx = next(c for c in r.checks if c.name == "extension-approximates")
    assert approx.passed > 0


def test_arrival_scan_reports_findings():
    r = vf.verify_arrival_scan(depth=2, horizon=200, max_chain=1)
    assert r.failed == 0
    scan = r.checks[0]
    joined = "\n".join(scan.notes)
    assert "identity occurrences: 0" in joined
    # the k=1 composition of the two shortest distinct branches has points:
    # a coordinate-2 value coding the length-2 prefix realizes both the image
    # membership and the second branch's domain constraints
    assert "nonempty sampled domain" in joined
    assert any("nonempty on" in n for n in scan.notes)


def test_good_sequence_suite_small():
    r = vf.verify_good_sequence(
        max_s_len=2, max_entry=2, horizon=2000, pair_max_len=1,
        pair_max_entry=2, max_u_len=4,
    )
    assert r.failed == 0


def test_cascade_suite_small_and_fault():
    r = vf.verify_cascade(trials=60, seed=0)
    assert r.failed == 0
    r = vf.verify_cascade(trials=10, seed=0, fault=vf.FAULT_EPSILON_NONSTRICT)
    assert r.failed > 0
    boundary = next(c for c in r.checks if c.name == "boundary-control-rejected")
    assert boundary.failed == 1 and boundary.counterexamples


def test_mutation_report_detects_all_three():
    r = vf.mutation_report()
    assert r.failed == 0
    assert len(r.checks) == 3
    for c in r.checks:
        assert c.passed == 1 and c.failed == 0
        assert c.notes, "detection must carry a concrete counterexample"


def test_reports_are_byte_deterministic():
    runs = [
        lambda: vf.verify_departure(depth=2, horizon=300, samples=8, seed=5),
        lambda: vf.verify_no_isolated(depth=1, horizon=300, samples=5, seed=5),
        lambda: vf.verify_arrival_scan(depth=1, horizon=120, max_chain=1),
        lambda: vf.verify_good_sequence(
            max_s_len=1, max_entry=2, horizon=500, pair_max_len=1,
            pair_max_entry=2, max_u_len=3,
        ),
        lambda: vf.verify_cascade(trials=12, seed=5),
        lambda: vf.mutation_report(),
    ]
    for run in runs:
        assert run().to_json_bytes() == run().to_json_bytes()


def test_report_schema():
    r = vf.verify_cascade(trials=3, seed=0)
    doc = json.loads(r.to_json_bytes())
    assert doc["schema"] == "hurewicz-kit/1"
    assert doc["suite"] == "cascade"
    assert {"passed", "failed", "inconclusive"} <= set(doc["summary"])
    for check in doc["checks"]:
        assert {"name", "passed", "failed", "inconclusive", "counterexamples"} <= set(
            check
        )


def test_inconclusive_distinct_from_failure():
    # a horizon too small to place extensions is reported as inconclusive
    r = vf.verify_no_isolated(depth=1, horizon=40, samples=3, seed=0, extensions=6)
    assert r.failed == 0


def test_density_unknown_branch_is_inconclusive():
    # greedy discovery for this stem leaves the 10^15 index horizon at the
    # all-ones point, so the density check has no verdict for it
    stem = (2, 0, 0, 0, 0, 0)
    outcome, _ = dep.find_branch(stem, al.point_from_node(()), horizon=10**15)
    assert outcome is Tri.UNKNOWN
    r = vf.verify_departure(depth=0, horizon=encode(stem) + 1, include=("density",))
    (density,) = r.checks
    assert density.failed == 0 and not density.counterexamples
    assert density.inconclusive == 1 and density.passed > 0


def test_departure_depth_zero_vacuous_pass():
    r = vf.verify_departure(depth=0, horizon=120, samples=4, seed=0)
    assert r.failed == 0
