import copy
import importlib
import inspect
import json
import pickle
import pkgutil
import random
import time
from fractions import Fraction

import pytest

import hurewicz_kit
from hurewicz_kit import alphabet as al
from hurewicz_kit import cascade as casc
from hurewicz_kit import departure as dep
from hurewicz_kit import good_sequence as gs
from hurewicz_kit import relations as rel
from hurewicz_kit import verifier as vf
from hurewicz_kit.base import CapacityError, Record, Tri
from hurewicz_kit.prime_coding import SymbolicCode, encode, make_code_value_sparse

import repin
from oracles import (
    assert_prefix_invariants,
    pair_scan_relation_checks,
    sample_domain_point,
)

PINS = repin.load()


class _Reached(Exception):
    pass


def _stop(*args):
    raise _Reached


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


def test_faulted_departure_renders_only_kept_rewrites(monkeypatch):
    # rendering a rewrite is costly, and every sample of the fault fails the
    # closure check: only the counterexamples the check keeps are rendered
    rendered = []
    true_render = vf.render_value

    def counting(v):
        rendered.append(v)
        return true_render(v)

    monkeypatch.setattr(vf, "render_value", counting)
    fault = vf.FAULT_REWRITE_OFF_BY_ONE
    r = vf.verify_departure(fault=fault, seed=4)
    closure = next(c for c in r.checks if c.name == "alphabet-closure")
    assert closure.failed > vf._COUNTEREXAMPLE_CAP
    assert len(closure.counterexamples) == vf._COUNTEREXAMPLE_CAP
    ones = max(len(dep.constraints(b).ones) for b in dep.branches_within(10**4))
    assert 0 < len(rendered) <= vf._COUNTEREXAMPLE_CAP * ones


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


def test_sample_plan_draws_match_oracle_sampler():
    """On every branch below 10^4, under the constraints of the layer and of
    each branch fault, a plan draws the oracle sampler's points from the
    same seeds and leaves the generator where the oracle leaves it."""
    branches = dep.branches_within(10_000)
    assert len(branches) == 74
    for fault in (None, *_FAULTABLE["departure"][0]):
        constraints, _ = vf._branch_maps(fault)
        for b in branches:
            cons = constraints(b)
            plan = vf._SamplePlan(cons)
            for seed in range(4):
                fast = random.Random(seed * 1_000_003 + b.top_index())
                slow = random.Random(seed * 1_000_003 + b.top_index())
                for _ in range(10):
                    x, y = plan.draw(fast.getrandbits), sample_domain_point(cons, slow)
                    assert_prefix_invariants(x)
                    assert (x.length, x.tail_ones, x.overrides) == (
                        y.length, y.tail_ones, y.overrides
                    ), (b, fault, seed)
                assert fast.getstate() == slow.getstate(), (b, fault, seed)


def test_sample_plan_draws_a_hand_built_constraint():
    # a draw's length can stop right past the top must-be-1 index; the
    # constraint's constructor keeps every must-not-be-1 index below it
    plan = vf._SamplePlan(dep.CylinderConstraint((4,), (0, 3)))
    bits = random.Random(0).getrandbits
    for _ in range(50):
        assert_prefix_invariants(plan.draw(bits))


def test_departure_stops_at_a_malformed_constraint(monkeypatch):
    """A constraint function that reverses the must-be-1 indices builds no
    constraint: the suite stops with the constructor's refusal, which
    stands in for a failed constraint-wellformedness check."""
    constraints = dep.constraints

    def reversed_ones(b):
        c = constraints(b)
        return dep.CylinderConstraint(c.ones[::-1], c.non_ones)

    monkeypatch.setattr(dep, "constraints", reversed_ones)
    with pytest.raises(ValueError, match="not strictly increasing"):
        vf.verify_departure(depth=1, horizon=300, samples=5, include=("branch-axioms",))


def test_stabilization_check_catches_a_change_past_the_top(monkeypatch):
    """An image that differs from its point right after the top rewritten
    index fails the stabilization check."""
    image = dep.image

    def leaky(b, cons, x):
        y = image(b, cons, x)
        past = cons.ones[-1] + 1
        if y.coord(past) != 1:
            return y
        return y.with_overrides(max(y.length, past + 1), ((past, 4),))

    monkeypatch.setattr(dep, "image", leaky)
    r = vf.verify_departure(depth=1, horizon=300, samples=5, include=("branch-axioms",))
    stab = next(c for c in r.checks if c.name == "stabilization-beyond-top")
    assert stab.failed > 0
    assert stab.passed + stab.failed == 16 * 5  # each sample counted once


def _branch_axioms(**params) -> dict:
    r = vf.verify_departure(depth=1, include=("branch-axioms",), **params)
    return {c.name: c for c in r.checks}


def _set_rewrite(y, q, v):
    """y with the value v at its rewritten index q."""
    return y.without({q}).with_overrides(y.length, ((q, v),))


def test_lex_check_catches_an_unrewritten_first_index(monkeypatch):
    """An image that leaves the first must-be-1 index at 1 first differs from
    its point later or nowhere: every sample fails lex-increase, and none
    counts as a pass."""
    image = dep.image

    def lazy(b, cons, x):
        return image(b, cons, x).without({cons.ones[0]})

    monkeypatch.setattr(dep, "image", lazy)
    lex = _branch_axioms(horizon=300, samples=5)["lex-increase"]
    assert (lex.passed, lex.failed) == (0, 16 * 5)


def test_injectivity_check_catches_images_that_forget_noise(monkeypatch):
    """An image that resets a point's noise coordinates to 1 sends points that
    differ only there to one image; each sample still counts once."""
    image = dep.image

    def forgetful(b, cons, x):
        kept = set(cons.non_ones)
        return image(b, cons, x.without({p for p, _ in x.overrides if p not in kept}))

    monkeypatch.setattr(dep, "image", forgetful)
    inject = _branch_axioms(horizon=300, samples=20)["injectivity-on-samples"]
    assert inject.failed > 0 and inject.passed + inject.failed == 16 * 20
    assert {"branch", "image", "point"} == set(inject.counterexamples[0])


def test_nested_check_catches_a_parent_domain_missing_its_extension(monkeypatch):
    """Root-stem constraints with an extra must-not-be-1 index (1, which codes
    no sequence) hold no extension's domain: each extension fails the
    inclusion test once, and a sample fails the parent's membership unless
    its noise happens to set coordinate 1; only those reach the stability
    bound."""
    constraints = dep.constraints

    def widened(b):
        c = constraints(b)
        return c if b.s else dep.CylinderConstraint(c.ones, (1,) + c.non_ones)

    monkeypatch.setattr(dep, "constraints", widened)
    checks = _branch_axioms(horizon=300, samples=5)
    nested, bound = checks["nested-domains"], checks["stability-bound"]
    outside = nested.failed - 8
    assert nested.passed == 0 and outside > 0
    assert outside + bound.passed + bound.failed == 8 * 5
    assert "point" in nested.counterexamples[1]


def test_stability_bound_check_catches_an_extension_moving_a_shared_rewrite(
    monkeypatch,
):
    """Extensions whose first rewrite differs from their parent's image there
    (0, no alphabet member) disagree with it below their top index at every
    sample."""
    image = dep.image

    def moved(b, cons, x):
        y = image(b, cons, x)
        return _set_rewrite(y, cons.ones[0], 0) if b.s else y

    monkeypatch.setattr(dep, "image", moved)
    checks = _branch_axioms(horizon=300, samples=5)
    nested, bound = checks["nested-domains"], checks["stability-bound"]
    assert (nested.passed, nested.failed) == (8, 0)
    assert (bound.passed, bound.failed) == (0, 8 * 5)


def test_closure_check_reads_every_rewritten_index(monkeypatch):
    """One invalid member (0) at the middle of the three rewritten indices of
    the one such branch below 2400 fails closure at exactly that branch's
    samples, and is rendered among its rewrites."""
    image = dep.image

    def spoiled(b, cons, x):
        y = image(b, cons, x)
        return _set_rewrite(y, cons.ones[1], 0) if len(cons.ones) == 3 else y

    monkeypatch.setattr(dep, "image", spoiled)
    closure = _branch_axioms(horizon=2400, samples=3)["alphabet-closure"]
    assert (closure.passed, closure.failed) == (40 * 3, 3)
    for cex in closure.counterexamples:
        assert cex["branch"] == "(s=[0, 0], t=[0, 0, 0])"
        assert cex["rewrites"].split(",")[1] == "0 = 0"


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
        max_s_len=2, max_entry=3, horizon=1000, pair_max_len=1,
        pair_max_entry=3, max_u_len=4,
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
    r = vf.mutation_report(seed=1)
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
        lambda: vf.verify_cascade(trials=12, seed=5),
        lambda: vf.mutation_report(),
    ]
    for run in runs:
        assert run().to_json_bytes() == run().to_json_bytes()
    # test_pin runs this pinned call once more: both runs give its pinned bytes
    params = dict(max_s_len=1, max_entry=2, horizon=500, pair_max_len=1, pair_max_entry=2)
    report = vf.verify_good_sequence(**params, max_u_len=3)
    name = repin.key({"suite": "good-suite", "params": {**params, "max_u_len": 3}})
    assert repin.diff(name, PINS[name], repin.pin(report.to_json_bytes())) == ""


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


# each faultable suite, the faults it plants, and a first step of its work
_FAULTABLE = {
    "departure": ((vf.FAULT_REWRITE_OFF_BY_ONE, vf.FAULT_DROP_NON_ONES), (dep, "branches_within")),
    "no-isolated": ((vf.FAULT_REWRITE_OFF_BY_ONE, vf.FAULT_DROP_NON_ONES), (al, "enumerate_nodes")),
    "cascade": ((vf.FAULT_EPSILON_NONSTRICT,), (vf.casc, "check_sample_capacity")),
}


@pytest.mark.parametrize("suite", _FAULTABLE)
@pytest.mark.parametrize("fault", tuple(vf.FAULTS))
def test_faultable_suites_refuse_faults_they_cannot_plant(monkeypatch, suite, fault):
    planted, (module, first_step) = _FAULTABLE[suite]
    monkeypatch.setattr(module, first_step, _stop)
    if fault in planted:
        with pytest.raises(_Reached):
            vf.SUITES[suite](fault=fault)
    else:
        with pytest.raises(ValueError, match=f"suite {suite} cannot inject fault {fault} "):
            vf.SUITES[suite](fault=fault)


def test_faultable_suites_are_the_suites_with_a_fault_parameter():
    takes_fault = {
        name for name, fn in vf.SUITES.items()
        if "fault" in inspect.signature(fn).parameters
    }
    assert takes_fault == set(_FAULTABLE)


def test_no_layer_function_takes_a_fault():
    # the verifier plants every fault over the layers' functions, so no
    # public function or method of a layer has a fault switch
    layers = ("prime_coding", "alphabet", "departure", "relations", "good_sequence", "cascade")
    checked = 0
    for module in (importlib.import_module(f"hurewicz_kit.{name}") for name in layers):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [obj]
            if inspect.isclass(obj):
                members += [m for n, m in vars(obj).items() if not n.startswith("_")]
            for fn in filter(callable, members):
                assert "fault" not in inspect.signature(fn).parameters, (module.__name__, name)
                checked += 1
    assert checked > 50


def test_mutation_report_runs_every_fault_in_order(monkeypatch):
    ran = []

    def recording(name, suite):
        def run(*, fault, **params):
            ran.append((fault, name))
            return suite(fault=fault, **params)
        return run

    for name in _FAULTABLE:
        monkeypatch.setitem(vf.SUITES, name, recording(name, vf.SUITES[name]))
    report = vf.mutation_report(seed=2)
    assert [fault for fault, _ in ran] == list(vf.FAULTS)
    assert [c.name for c in report.checks] == [f"detects-{f}" for f in vf.FAULTS]
    # each fault is run through a suite that plants it
    assert all(fault in _FAULTABLE[name][0] for fault, name in ran)


# every suite at a size that runs in well under a second
_TINY = {
    "departure": dict(depth=0, horizon=10, samples=1, relations_depth=0),
    "no-isolated": dict(depth=0, horizon=10, samples=1, extensions=1),
    "arrival-scan": dict(depth=0, horizon=10, max_chain=1),
    "good-suite": dict(
        max_s_len=0, max_entry=1, horizon=1, pair_max_len=0, pair_max_entry=1, max_u_len=0
    ),
    "cascade": dict(trials=1),
    "mutation": dict(seed=3),
}


@pytest.mark.parametrize("suite", sorted(vf.SUITES))
def test_report_params_are_the_suite_signature(suite):
    fn = vf.SUITES[suite]
    signature = inspect.signature(fn)
    args = signature.bind(**_TINY[suite])
    args.apply_defaults()
    expected = dict(args.arguments)
    if suite == "departure":
        expected["include"] = ",".join(expected["include"])
    report = fn(**_TINY[suite])
    assert list(report.params) == list(signature.parameters)
    assert report.params == expected


@pytest.mark.parametrize(
    "run, negative",
    [
        (lambda: vf.verify_departure(depth=-1), "depth"),
        (lambda: vf.verify_departure(horizon=-1, samples=-1), "horizon, samples"),
        (lambda: vf.verify_departure(relations_depth=-1), "relations_depth"),
        (lambda: vf.verify_no_isolated(samples=-1), "samples"),
        (lambda: vf.verify_no_isolated(extensions=-1), "extensions"),
        (lambda: vf.verify_arrival_scan(depth=-1, max_chain=-1), "depth, max_chain"),
        (lambda: vf.verify_arrival_scan(horizon=-1), "horizon"),
    ],
)
def test_branch_suites_refuse_negative_counts_before_work(monkeypatch, run, negative):
    monkeypatch.setattr(dep, "branches_within", _stop)
    monkeypatch.setattr(al, "enumerate_nodes", _stop)
    with pytest.raises(ValueError, match=f"parameters must be naturals: {negative}$"):
        run()


@pytest.mark.parametrize("include", [("relation",), ("density", "branch_axioms")])
def test_departure_refuses_unknown_check_groups(monkeypatch, include):
    monkeypatch.setattr(dep, "branches_within", _stop)
    with pytest.raises(ValueError, match="departure has no check group"):
        vf.verify_departure(include=include)


def test_departure_depth_zero_vacuous_pass():
    r = vf.verify_departure(depth=0, horizon=120, samples=4, seed=0)
    assert r.failed == 0


def test_departure_refuses_relation_census_over_cap_before_branch_work(monkeypatch):
    monkeypatch.setattr(vf, "_branch_axiom_checks", _stop)
    monkeypatch.setattr(dep, "branches_within", _stop)
    with pytest.raises(CapacityError, match="depth 5 has 3263442 nodes"):
        vf.verify_departure(relations_depth=5)
    with pytest.raises(CapacityError, match="depth 5 has 3263442 nodes"):
        vf.verify_departure(depth=5, include=("density",))
    # without the relation and density groups the depths build no nodes and
    # are not refused
    with pytest.raises(_Reached):
        vf.verify_departure(depth=5, relations_depth=5, include=("branch-axioms",))


def test_relation_checks_search_once_per_loop_and_candidate(monkeypatch):
    calls = []
    search = vf.rel._witness_search

    def counted(s, t):
        calls.append((s, t))
        return search(s, t)

    monkeypatch.setattr(vf.rel, "_witness_search", counted)
    monkeypatch.setattr(vf.rel, "psi", _stop)
    vf._relation_checks(4)
    # one search per node of depths 0-4 (1,857) and per generated candidate
    # (6 at depth 3, 258 at depth 4)
    assert len(calls) == 2_121


def test_append_check_fails_on_a_planted_rank_change(monkeypatch):
    # every depth-4 edge one rank higher: each is an appended pair (its two
    # nodes differ only at index 2, before the last label), so each now
    # disagrees with its depth-3 pair's rank, and no other check moves
    real = vf.rel.t_graph

    def bumped(p):
        g = real(p)
        if p < 4:
            return g
        edges = tuple((i, j, r + 1) for i, j, r in g.edges)
        return vf.rel.RelationGraph(g.length, g.nodes, edges, g.loops, g.loop_ranks)

    monkeypatch.setattr(vf.rel, "t_graph", bumped)
    self_rank, profile, append, forest = vf._relation_checks(4)
    assert append.name == "append-preserves-rank"
    assert append.failed == len(real(4).edges) > 0
    assert self_rank.failed == profile.failed == forest.failed == 0
    assert append.counterexamples
    for cx in append.counterexamples:
        assert set(cx) == {"s", "t", "label", "child_rank", "parent_rank"}
        assert cx["child_rank"] == cx["parent_rank"] + 1


# Each frozen record with the fields of one instance.  Every two-field record
# takes the same two values, valid for each (a well-formed constraint and a
# branch index), so records of different classes with equal fields are
# compared too.
_PAIR = ((2,), (0, 1))
_FROZEN_RECORDS = [
    (dep.BranchIndex, _PAIR),
    (dep.CylinderConstraint, _PAIR),
    (rel.EffectiveWitness, _PAIR),
    (rel.PsiResult, _PAIR),
    (casc.ConditionReport, _PAIR),
    (rel.PsiResult, (0, rel.EffectiveWitness(dep.BranchIndex((), (0,)), 1))),
    (rel.RelationGraph, (2, ((1, 1), (1, 4)), ((0, 1, 0),), (1,), (0,))),
    (rel.ForestReport, (False, 3, 3, 0, ((1, 1), (1, 4), (4, 1), (1, 1)))),
    (casc.ConditionReport, (False, (("radius", (0,), Fraction(1, 4), Fraction(1, 8)),))),
    (casc.CascadeSample, (((), (0,)), (0, 1), 4, (-1, 0))),
    (gs.BitPrefix, (b"\x01\x00", b"\x01")),
]


def _record(cls, fields):
    """The record of these fields, built by its public constructor:
    CascadeSample's derives the last field, the parent indices, itself."""
    return cls(*fields[:3]) if cls is casc.CascadeSample else cls(*fields)


@pytest.mark.parametrize(
    "cls, fields", _FROZEN_RECORDS, ids=lambda v: v.__name__ if isinstance(v, type) else ""
)
def test_frozen_records_behave_as_their_fields(cls, fields):
    a, b = _record(cls, fields), _record(cls, fields)
    assert a is not b and a == b and not a != b
    assert tuple(getattr(a, name) for name in cls.__slots__) == fields
    assert hash(a) == hash(b) == hash(fields)
    assert a != fields
    for other, same in _FROZEN_RECORDS:
        if other is not cls and same == fields:
            assert a != other(*fields) and other(*fields) != a
    name = cls.__slots__[0]
    for change in (lambda: setattr(a, name, None), lambda: delattr(a, name)):
        with pytest.raises(AttributeError, match="immutable"):
            change()
        assert getattr(a, name) == fields[0] and a == b


# A factored code whose entry at 4 is itself factored.
_NESTED_CODE = make_code_value_sparse(6, ((1, 0), (4, make_code_value_sparse(3, ((0, 5000),)))))


@pytest.mark.parametrize(
    "value",
    [_record(cls, fields) for cls, fields in _FROZEN_RECORDS] + [_NESTED_CODE],
    ids=[cls.__name__ for cls, _ in _FROZEN_RECORDS] + ["SymbolicCode"],
)
def test_frozen_values_copy_and_pickle(value):
    assert isinstance(_NESTED_CODE.entry(4), SymbolicCode)
    cls = type(value)
    # a factored code is a tuple with no slots: its first field is a property
    name = cls.__slots__[0] if cls.__slots__ else "length"
    copies = (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value)))
    for dup in (value,) + copies:
        assert type(dup) is cls and dup == value
        for change in (lambda: setattr(dup, name, None), lambda: delattr(dup, name)):
            with pytest.raises(AttributeError, match="immutable"):
                change()
        assert getattr(dup, name) == getattr(value, name) and dup == value


def test_show_renders_a_factored_code_by_its_repr():
    # a factored code is a tuple, but a payload shows it as a code value
    assert vf._show(_NESTED_CODE) == repr(_NESTED_CODE)
    assert vf._show((4, _NESTED_CODE)) == f"(4,{_NESTED_CODE!r})"
    assert vf._show((_NESTED_CODE.length, _NESTED_CODE.items)) != repr(_NESTED_CODE)


def _kit_classes():
    """Every class defined at the top of a module of the package."""
    modules = [hurewicz_kit] + [
        importlib.import_module(f"hurewicz_kit.{m.name}")
        for m in pkgutil.iter_modules(hurewicz_kit.__path__)
    ]
    for mod in modules:
        for obj in vars(mod).values():
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                yield obj


def test_records_are_exactly_the_frozen_records():
    # a new record must join _FROZEN_RECORDS, and immutability is written
    # once, in Record (SymbolicCode, a tuple, refuses attributes on its own)
    classes = set(_kit_classes())
    records = {c for c in classes if issubclass(c, Record) and c is not Record}
    assert records == {cls for cls, _ in _FROZEN_RECORDS}
    refusing = {c for c in classes if "__setattr__" in vars(c) or "__delattr__" in vars(c)}
    assert refusing == {Record, SymbolicCode}
    with pytest.raises(TypeError, match="two fields"):
        type("OneField", (Record,), {"__slots__": ("a",)})
    with pytest.raises(TypeError, match="takes 2 fields"):
        rel.EffectiveWitness((1,))


def test_branch_index_repr():
    assert repr(dep.BranchIndex((1,), (1, 2))) == "(s=[1], t=[1, 2])"
    assert str(dep.BranchIndex((), (0,))) == "(s=[], t=[0])"


@pytest.mark.parametrize("depth", range(5))
def test_relation_checks_match_pair_scan(depth):
    fast = [c.as_dict() for c in vf._relation_checks(depth)]
    assert fast == [c.as_dict() for c in pair_scan_relation_checks(depth)]


# keys that test_cli or a gate also checks; repin.check computes each once
_DEPARTURE_PINS = {
    "no-isolated defaults": "hurewicz-kit verify no-isolated",
    "arrival-scan defaults": "hurewicz-kit verify arrival-scan",
    "acceptance gate 4": "departure depth=4 include=density",
}


@pytest.mark.parametrize("case", _DEPARTURE_PINS)
def test_departure_reports_match_recorded_hashes(case):
    assert repin.check(_DEPARTURE_PINS[case], PINS) == ""


@pytest.mark.parametrize("case", ["mutation seed=0"])
def test_cascade_reports_match_recorded_hashes(case):
    assert repin.check("hurewicz-kit verify mutation --seed 0", PINS) == ""


@pytest.mark.parametrize(
    "params",
    [{"trials": -3}, {"max_depth": 0}, {"max_branching": 0}],
)
def test_cascade_refuses_nonsensical_parameters(params):
    with pytest.raises(ValueError):
        vf.verify_cascade(**params)


def test_good_suite_refuses_horizon_over_cap_before_work(monkeypatch):
    # the witness sweep lists the index family first; the index-map checks follow
    monkeypatch.setattr(vf, "_index_family", _stop)
    monkeypatch.setattr(vf, "_index_map_checks", _stop)
    with pytest.raises(_Reached):
        vf.verify_good_sequence(horizon=vf.HORIZON_CAP)
    for horizon in (vf.HORIZON_CAP + 1, 10**8):
        with pytest.raises(CapacityError, match="horizon"):
            vf.verify_good_sequence(horizon=horizon)


@pytest.mark.parametrize(
    "param",
    ["max_s_len", "max_entry", "horizon", "pair_max_len", "pair_max_entry", "max_u_len"],
)
def test_good_suite_refuses_negative_parameters(param):
    with pytest.raises(ValueError, match=param):
        vf.verify_good_sequence(**{param: -1})


@pytest.mark.parametrize(
    "spoil", ["move the 1 off its source", "change the head", "end at the farther source"]
)
def test_good_suite_checks_every_witness(monkeypatch, spoil):
    # one spoiled (s, t, u) out of 6 pairs x 15 words, spoiled inside the
    # pair's sparse witness sweep, must fail exactly one check, so the
    # witness check cannot run once per pair or per length
    true_witnesses = vf.good.witness_bits
    target = ((1,), (2,), bytes([1, 0]))

    def spoiled(s, t, words):
        for u, (head, end, one, k) in zip(words, true_witnesses(s, t, words)):
            if (s, t, u) == target:
                a, b = vf.good.sigma(s, k), vf.good.sigma(t, k)
                if spoil == "move the 1 off its source":
                    # to the first position past the head that is no source
                    one = min({len(head), len(head) + 1, len(head) + 2} - {a, b})
                elif spoil == "change the head":
                    head = bytes([head[0] ^ 1]) + head[1:]
                else:
                    end = max(a, b)
            yield head, end, one, k

    monkeypatch.setattr(vf.good, "witness_bits", spoiled)
    report = vf.verify_good_sequence(
        max_s_len=1, max_entry=1, horizon=10, pair_max_len=1, pair_max_entry=2,
        max_u_len=3,
    )
    witness = report.checks[-1].as_dict()
    assert witness["name"] == "disagreement-witness"
    assert (witness["passed"], witness["failed"]) == (6 * 15 - 1, 1)
    [cex] = witness["counterexamples"]
    assert (cex["s"], cex["t"], cex["u"]) == ("(1)", "(2)", "0100")


@pytest.mark.parametrize(
    "params",
    [
        # index maps x horizon: (2^31 - 1) x 10, 201 x 10^6, and the
        # 10^9 + 1 maps the agreement check builds at max_s_len 0
        dict(max_s_len=30, max_entry=2, horizon=10),
        dict(max_s_len=1, max_entry=200, horizon=vf.HORIZON_CAP),
        dict(max_s_len=0, max_entry=10**9, horizon=0),
        # ordered pairs x words: 156 x (2^31 - 1), (2^61 - 1) indices with
        # one word, and 2 pairs x (2^(10^12 + 1) - 1) words
        dict(max_s_len=1, max_entry=1, horizon=10, max_u_len=30),
        dict(pair_max_len=60, pair_max_entry=2, max_u_len=0),
        dict(pair_max_len=1, pair_max_entry=1, max_u_len=10**12),
    ],
)
def test_good_suite_refuses_over_cap_sweeps_before_work(monkeypatch, params):
    monkeypatch.setattr(vf, "_index_map_checks", _stop)
    monkeypatch.setattr(vf, "_index_family", _stop)
    monkeypatch.setattr(vf, "_all_words", _stop)
    with pytest.raises(CapacityError, match="more than"):
        vf.verify_good_sequence(**params)


def test_good_suite_refuses_large_codes_before_any_map(monkeypatch):
    # 100,001 maps x 800 reads is inside the count cap, but the codes of
    # index (100000) have 100,001 bits: 1,563 words a value.  Unrefused, the
    # call ran about 96 s and peaked at 133 MB (2 CPUs, Python 3.11)
    monkeypatch.setattr(vf, "_index_map_checks", _stop)
    monkeypatch.setattr(vf, "_index_family", _stop)
    monkeypatch.setattr(vf.good, "_index_map", _stop)
    t0 = time.perf_counter()
    with pytest.raises(CapacityError, match="64-bit words"):
        vf.verify_good_sequence(
            max_s_len=1, max_entry=100_000, horizon=800, pair_max_len=0, max_u_len=0
        )
    assert time.perf_counter() - t0 < 0.1
    # the largest code of the family is bounded below, and only a word count
    # over the limit is cut to limit + 1
    assert vf._code_words(3, 4, 1) == 1  # code (4, 4, 4): 25 bits
    assert vf._code_words(1, 100_000, 10**6) == 1563
    assert vf._code_words(10**7, 1, 10) == 11


def test_good_suite_caps_are_inclusive(monkeypatch):
    # the witness sweep lists the index family first; the index-map checks follow
    monkeypatch.setattr(vf, "_index_family", _stop)
    monkeypatch.setattr(vf, "_index_map_checks", _stop)
    gate_6 = dict(max_s_len=3, max_entry=4, horizon=100_000, pair_max_len=2,
                  pair_max_entry=3, max_u_len=12)
    for params in (gate_6, {}, dict(horizon=vf.HORIZON_CAP)):
        with pytest.raises(_Reached):
            vf.verify_good_sequence(**params)
    # gate 6 sits exactly at caps of 85 x 10^5 reads and 156 x 8191 checks
    monkeypatch.setattr(vf, "INDEX_MAP_READ_CAP", 85 * 100_000)
    monkeypatch.setattr(vf, "WITNESS_CHECK_CAP", 156 * 8191)
    with pytest.raises(_Reached):
        vf.verify_good_sequence(**gate_6)
    for over in (dict(horizon=100_001), dict(max_u_len=13), dict(pair_max_entry=4)):
        with pytest.raises(CapacityError):
            vf.verify_good_sequence(**{**gate_6, **over})


def test_good_suite_refuses_over_cap_witness_tail():
    # 31 indices, 930 pairs and one word are inside both sweep caps, but the
    # pair (1), (30) alone would need a tail of 2^31 - 2 bytes
    with pytest.raises(CapacityError, match="over the cap 65536"):
        vf.verify_good_sequence(
            max_s_len=0, max_entry=0, horizon=0, pair_max_len=1,
            pair_max_entry=30, max_u_len=0,
        )


def test_good_suite_refuses_over_cap_witness_tail_before_index_maps(monkeypatch):
    # the pair (), (13) needs a 73,728-byte tail; the default horizon-10^5
    # index-map checks must not run first
    monkeypatch.setattr(vf, "_index_map_checks", _stop)
    with pytest.raises(CapacityError, match="over the cap 65536"):
        vf.verify_good_sequence(pair_max_len=1, pair_max_entry=13, max_u_len=0)


def test_good_suite_lists_no_words_without_pairs(monkeypatch):
    monkeypatch.setattr(vf, "_all_words", _stop)
    report = vf.verify_good_sequence(
        max_s_len=1, max_entry=1, horizon=10, pair_max_len=0, max_u_len=10**12
    )
    assert report.failed == 0 and report.checks[-1].passed == 0
