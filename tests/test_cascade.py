import copy
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hurewicz_kit import cascade as cs
from hurewicz_kit import verifier as vf
from hurewicz_kit.base import CapacityError, _below

import oracles


def test_epsilon_trivial():
    sample = cs.CascadeSample.from_values({(): Fraction(0)})
    assert cs.epsilon(sample, (0,)) == 1  # both inner minima vacuous


def test_epsilon_ancestor_term():
    sample = cs.CascadeSample.from_values({(): Fraction(0), (1,): Fraction(1)})
    assert cs.epsilon(sample, (1, 3)) == Fraction(1, 8)  # min(1/8, 1/4)


def test_epsilon_sibling_term_when_present():
    sample = cs.CascadeSample.from_values({(): Fraction(0), (0,): Fraction(1, 2)})
    assert cs.epsilon(sample, (1,)) == Fraction(1, 8)  # includes d/4 = 1/8


def test_epsilon_monotone_in_later_siblings():
    sample = cs.gen_cascade(3, 2, 3)
    for k in range(2, 4):
        assert cs.epsilon(sample, (k,)) <= cs.epsilon(sample, (k - 1,))


def test_epsilon_root_rejected():
    with pytest.raises(ValueError):
        cs.epsilon(cs.CascadeSample.from_values({(): Fraction(0)}), ())


def test_conditions_strictness():
    tight = cs.tight_child_sample()
    assert not cs.check_admissibility(tight).ok
    assert vf._nonstrict_admissibility(tight).ok


def test_conditions_catch_ancestor_collision():
    # zero distance to the parent violates the separation clause even though
    # the strict radius bound on other edges could hold
    sample = cs.CascadeSample.from_values({(): Fraction(0), (1,): Fraction(0)})
    report = cs.check_admissibility(sample)
    assert not report.ok
    assert any(v[0] == "ancestor-collision" for v in report.violations)


def test_lemma_inequality_minimal_case():
    sample = cs.gen_cascade(7, 1, 2)
    assert cs.check_admissibility(sample).ok
    assert cs.check_separation(sample, (1,), (2,), 0)


# every admissible radius one tick under its bound, children drifting
# toward each other
_NEAR_TIGHT = {
    (): Fraction(0),
    (1,): Fraction(511, 1024),
    (2,): Fraction(510, 4096),
    (1, 1): Fraction(1534, 4096),
    (2, 1): Fraction(2549, 16384),
}


def test_lemma_inequality_near_tight_two_level_sample():
    # the conclusion still holds, with computable margin
    sample = cs.CascadeSample.from_values(_NEAR_TIGHT)
    assert cs.check_admissibility(sample).ok
    checked, bad = cs.check_separation_all(sample)
    assert checked == 4 and not bad
    margin = sample.d((1, 1), (2, 1)) - sample.d((1,), ()) / 3
    assert margin == Fraction(3587, 16384) - Fraction(511, 3072)


@pytest.mark.parametrize("factor, violators", [(2, [((1, 1), (2, 1), 0)]), (3, []), (4, [])])
def test_separation_factor_moves_both_checks(monkeypatch, factor, violators):
    # on the near-tight sample the tightest triple needs a factor above
    # 2.28: the one named factor moves the walk and the per-triple check
    monkeypatch.setattr(cs, "SEPARATION_FACTOR", factor)
    sample = cs.CascadeSample.from_values(_NEAR_TIGHT)
    per_triple = [
        (s, t, i) for s, t, i in cs.eligible_triples(sample)
        if not cs.check_separation(sample, s, t, i)
    ]
    assert cs.check_separation_all(sample) == (4, violators) and per_triple == violators


# An admissible sample whose least ratio d(s, t) / d(s|i+1, s|i) is 0.3656,
# at ((1, 1, 1), (2, 1, 1)): the root at 0 and (1,) at D = 1/4, then each of
# (2,), (1, 1), (1, 1, 1), (2, 1), (2, 1, 1) placed 127/128 of its radius
# from its parent, toward the other subtree.
_CLOSE_TO_A_THIRD = {
    (): Fraction(0),
    (1,): Fraction(1, 4),
    (2,): Fraction(127, 2048),
    (1, 1): Fraction(385, 2048),
    (2, 1): Fraction(81153, 1048576),
    (1, 1, 1): Fraction(180991, 1048576),
    (2, 1, 1): Fraction(43598719, 536870912),
}


@pytest.mark.parametrize("factor, violators", [
    (3, []),
    (Fraction(7, 3), [
        ((1, 1), (2, 1, 1), 0), ((1, 1, 1), (2, 1), 0), ((1, 1, 1), (2, 1, 1), 0),
    ]),
])
def test_separation_fails_the_false_bound_3_7(monkeypatch, factor, violators):
    # the bound 1/3 holds on this sample and 3/7 does not, so a checker
    # changed to 3/7 fails here
    sample = cs.CascadeSample.from_values(_CLOSE_TO_A_THIRD)
    assert cs.check_admissibility(sample).ok
    monkeypatch.setattr(cs, "SEPARATION_FACTOR", factor)
    assert cs.check_separation_all(sample) == (9, violators)
    assert [t for t in cs.eligible_triples(sample) if not cs.check_separation(sample, *t)] == violators


def test_violating_sample_breaks_the_inequality():
    broken = cs.violating_sample()
    assert not cs.check_admissibility(broken).ok
    assert not cs.check_separation(broken, (1,), (2,), 0)


def test_validation_errors():
    sample = cs.gen_cascade(0, 2, 2)
    with pytest.raises(ValueError):
        cs.check_separation(sample, (1,), (1, 1), 0)  # prefix pair
    with pytest.raises(ValueError):
        cs.check_separation(sample, (2,), (1,), 0)  # wrong orientation


def test_generator_validity_and_determinism():
    a = cs.gen_cascade(42, 3, 3)
    b = cs.gen_cascade(42, 3, 3)
    assert a.values == b.values
    assert cs.check_admissibility(a).ok
    c = cs.gen_cascade(43, 3, 3)
    assert c.values != a.values
    assert cs.check_admissibility(c).ok


def test_generator_shapes():
    assert len(cs.gen_cascade(0, 0, 4).nodes) == 1
    assert len(cs.gen_cascade(0, 2, 2).nodes) == 7
    assert len(cs.gen_cascade(0, 4, 4).nodes) == 341


def test_triple_enumeration_count():
    sample = cs.gen_cascade(5, 2, 2)
    triples = list(cs.eligible_triples(sample))
    assert len(triples) == 11
    for s, t, i in triples:
        assert s[:i] == t[:i] and s[i] < t[i]


def _moved(sample, node, onto, shift=Fraction(0)):
    """The sample's positions with ``node`` placed at ``onto``'s plus ``shift``."""
    values = dict(sample.values)
    values[node] = values[onto] + shift
    return cs.CascadeSample.from_values(values)


def _slow_scan(sample):
    triples = list(cs.eligible_triples(sample))
    bad = [(s, t, i) for s, t, i in triples if not cs.check_separation(sample, s, t, i)]
    return len(triples), bad


def test_fast_scan_agrees_with_slow_scan():
    for seed in range(6):
        sample = cs.gen_cascade(seed, 3, 2)
        assert cs.check_separation_all(sample) == _slow_scan(sample)
    # samples that break the inequality, below the root and below level-1
    # parents: the sorted-merge test must trip and list the same violators
    base = cs.gen_cascade(11, 3, 3)
    violating = [
        cs.violating_sample(),
        _moved(base, (2, 1), (1, 1)),
        _moved(base, (3,), (2, 1), Fraction(1, 2**200)),
        _moved(base, (1, 2, 1), (1, 1, 3)),
        _moved(base, (2, 3, 2), (2, 2)),
    ]
    for sample in violating:
        checked, bad = cs.check_separation_all(sample)
        assert bad and (checked, bad) == _slow_scan(sample)


def test_least_gap_matches_every_pair():
    rng = random.Random(4)
    cases = [
        ([-3, 5, 9], [-20, -8, -4]),  # b wholly left of a's hull
        ([-3, 5, 9], [12, 30]),  # wholly right
        ([-3, 5, 9], [-7, 10, 11]),  # on both sides, none inside
        ([-3, 5, 9], [-40, 13]),  # both sides, the right one nearer
        ([-3, 5, 9], [-3, 20]),  # touching a's left end
        ([-3, 5, 9], [-9, 9]),  # touching its right end
        ([-3, 5, 9], [4]),  # inside the hull
        ([6], [2]), ([6], [9]), ([6], [6]), ([6], [1, 10]),  # single elements
        ([1, 10], [6]), ([-5], [-6, -4]),
    ]
    for _ in range(300):
        a = sorted(rng.sample(range(-40, 40), rng.randint(1, 6)))
        b = sorted(rng.sample(range(-40, 40), rng.randint(1, 9)))
        cases.append((a, b))
    for a, b in cases:
        assert cs._least_gap(a, b) == min(abs(s - t) for s in a for t in b), (a, b)


def test_separation_walk_with_interleaved_sibling_subtrees(monkeypatch):
    # (1)'s subtree spans (2)'s and (2, 1) falls between (1) and (1, 1), so
    # the least gap of the root's children takes the per-member path
    walks = []  # per walk, whether each least-gap call met an interleaving
    true_gap = cs._least_gap

    def gap(a, b):
        walks[-1].append(any(a[0] <= t <= a[-1] for t in b))
        return true_gap(a, b)

    monkeypatch.setattr(cs, "_least_gap", gap)
    v = {
        (): Fraction(0),
        (1,): Fraction(1, 2),
        (2,): Fraction(1, 4),
        (1, 1): Fraction(1, 8),
        (1, 2): Fraction(3, 4),
        (2, 1): Fraction(3, 8),
        (2, 2): Fraction(5, 8),
        (2, 1, 1): Fraction(7, 16),
    }
    samples = [
        cs.CascadeSample.from_values({**v, (1, 1): v[(1, 1)] + shift})
        for shift in (Fraction(0), Fraction(-1, 3))
    ]
    # (2) between (1) and its far child: interleaved, and the inequality holds
    samples.append(cs.CascadeSample.from_values(
        {(): Fraction(0), (1,): Fraction(1, 100), (1, 1): Fraction(1), (2,): Fraction(1, 2)}
    ))
    for sample in samples:
        walks.append([])
        checked, bad = cs.check_separation_all(sample)
        assert (checked, bad) == _slow_scan(sample)
    # the root's children, last in each walk, interleave; below them the
    # first walk takes the hull path
    assert all(walk[-1] for walk in walks) and not all(walks[0])
    assert not bad and checked == 2  # the last sample holds the inequality


def test_below_draws_as_randrange():
    # the kit's draw rule against CPython's randrange: the same values, and
    # the same generator state after, so the same bits consumed
    sizes = [*range(1, 301)]
    sizes += [2**k + e for k in range(1, 71) for e in (-1, 0, 1)]
    for seed in (0, 1, 7, 2718281):
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in sizes:
            assert _below(ours.getrandbits, n) == theirs.randrange(n), (seed, n)
        assert ours.getstate() == theirs.getstate(), seed


def test_below_draws_as_choice():
    # seq[_below(bits, len(seq))], the departure sampler's choice, against
    # CPython's choice in lockstep: the same members and the same state after
    seqs = [tuple(range(100, 100 + n)) for n in range(1, 65)]
    for seed in (0, 1, 7, 2718281):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(3):
            for seq in seqs:
                got = seq[_below(ours.getrandbits, len(seq))]
                assert got == theirs.choice(seq), (seed, len(seq))
        assert ours.getstate() == theirs.getstate(), seed


def test_sampled_implication_holds():
    for seed in range(25):
        sample = cs.gen_cascade(seed, 1 + seed % 4, 1 + (seed // 4) % 4)
        assert cs.check_admissibility(sample).ok
        _, bad = cs.check_separation_all(sample)
        assert not bad


_SHAPES = [(d, b) for d in range(1, 5) for b in range(1, 5)]


@pytest.mark.parametrize("seed", (0, 1, 7, 2718281))
def test_generator_matches_fraction_oracle(seed):
    for depth, branching in _SHAPES:
        sample = cs.gen_cascade(seed, depth, branching)
        oracle = oracles.gen_cascade_fraction(seed, depth, branching)
        assert sample.values == oracle.values, (depth, branching)
        # the integer form is the one from_values derives by LCM
        assert sample == oracle, (depth, branching)
        # the trusted build holds what the validating constructor derives
        rebuilt = cs.CascadeSample(sample.nodes, sample.positions, sample.scale)
        assert rebuilt == sample, (depth, branching)


@pytest.mark.parametrize("shape", [*_SHAPES, (0, 4), (3, 0), (0, 0), (323, 1)])
def test_generated_nodes_come_in_level_order(shape):
    sample = cs.gen_cascade(2, *shape)
    assert sample.nodes == tuple(sorted(sample.nums, key=cs._level_order))


def test_distances_match_fraction_oracle():
    for seed, depth, branching in ((0, 3, 3), (1, 2, 4), (7, 4, 2), (2718281, 1, 4)):
        sample = cs.gen_cascade(seed, depth, branching)
        values = oracles.gen_cascade_fraction(seed, depth, branching).values
        for y in sample.nodes:
            for z in sample.nodes:
                assert sample.d(y, z) == abs(values[y] - values[z]), (y, z)


def _admissibility_cases():
    base = cs.gen_cascade(3, 3, 3)
    yield cs.gen_cascade(5, 4, 4)
    yield cs.gen_cascade(8, 2, 3)
    yield cs.tight_child_sample()
    yield cs.violating_sample()
    yield cs.CascadeSample.from_values({(): Fraction(0), (1,): Fraction(0)})
    yield _moved(base, (2,), ())  # onto its parent
    yield _moved(base, (1, 2, 1), (1, 2))
    yield _moved(base, (3,), (1,))  # onto an earlier sibling
    yield _moved(base, (2, 3), (2, 2))
    yield _moved(base, (2, 2, 3), (2, 2, 1))
    yield _moved(base, (1, 2, 1), (1,))  # onto its grandparent
    # a chain: (1, 1) sits on its grandparent, the root, and (1, 1, 1) on the
    # root and on its parent
    yield cs.CascadeSample.from_values(
        {(): Fraction(0), (1,): Fraction(1, 4), (1, 1): Fraction(0), (1, 1, 1): Fraction(0)}
    )
    # children exactly on a quarter of an ancestor gap and of a sibling gap
    yield cs.CascadeSample.from_values(
        {(): Fraction(0), (1,): Fraction(1, 4), (1, 1): Fraction(5, 16)}
    )
    yield cs.CascadeSample.from_values(
        {(): Fraction(0), (1,): Fraction(1, 4), (2,): Fraction(-1, 16)}
    )


def test_admissibility_matches_fraction_oracle():
    for sample in _admissibility_cases():
        strict = oracles.check_admissibility_fraction(sample, strict=True)
        assert cs.check_admissibility(sample) == strict
        relaxed = oracles.check_admissibility_fraction(sample, strict=False)
        assert vf._nonstrict_admissibility(sample) == relaxed
        for node in sample.nodes[1:]:
            assert cs.epsilon(sample, node) == oracles.epsilon_fraction(sample, node)


def test_admissibility_cases_cover_each_violation():
    reports = [cs.check_admissibility(s) for s in _admissibility_cases()]
    kinds = {v[0] for r in reports for v in r.violations}
    assert kinds == {"radius", "ancestor-collision"}
    assert [r.ok for r in reports[:2]] == [True, True]
    assert not any(r.ok for r in reports[2:])


def test_generator_refuses_oversized_shapes_before_work():
    with pytest.raises(CapacityError):
        cs.gen_cascade(0, 9, 9)  # about 4.3e8 nodes
    with pytest.raises(CapacityError):
        cs.gen_cascade(0, 10**9, 1)
    # node count times scale bits: a 323-node chain of 3230-bit numerators
    # fits the cap, one more level does not
    assert len(cs.gen_cascade(0, 323, 1).nodes) == 324
    with pytest.raises(CapacityError):
        cs.gen_cascade(0, 324, 1)


def test_verify_cascade_refuses_over_cap_shapes_before_any_trial(monkeypatch):
    calls = []
    true_gen = cs.gen_cascade
    monkeypatch.setattr(cs, "gen_cascade", lambda *a: calls.append(a) or true_gen(*a))
    # depth 9 and branching 9 is reached at trial 80; with 26 trials the
    # last trial's shape, depth 8 and branching 3, is the one over the cap
    for params in ({"max_depth": 9, "max_branching": 9}, {"trials": 26, "max_depth": 9}):
        with pytest.raises(CapacityError):
            vf.verify_cascade(**params)
    assert calls == []
    # shapes past the trial count are never drawn, so they are not refused
    report = vf.verify_cascade(trials=3, max_depth=400, max_branching=9)
    assert report.failed == 0 and [a[1:] for a in calls] == [(1, 1), (2, 1), (3, 1)]


def test_samples_must_be_trees():
    with pytest.raises(ValueError):
        cs.CascadeSample.from_values({(): Fraction(0), (1, 1): Fraction(1, 4)})
    with pytest.raises(ValueError):
        cs.CascadeSample.from_values({(): Fraction(0), (-1,): Fraction(1, 4)})


@pytest.mark.parametrize("fields, field", [
    ((((), (1, 1)), (0, 1), 4), "nodes"),  # (1, 1) without its parent
    ((((1,), ()), (1, 0), 4), "nodes"),  # out of level order
    ((((), (1,), (1,)), (0, 1, 1), 4), "nodes"),  # a node twice
    ((((), (-1,)), (0, 1), 4), "nodes"),  # a negative label
    ((((), (1,)), (0,), 4), "positions"),  # one position short
    ((((), (1,)), {(): 0, (1,): 1}, 4), "positions"),  # not an array
    ((((), (1,)), (0, Fraction(1, 2)), 4), "positions"),  # not an integer
    ((((), (1,)), (0, 1), 0), "scale"),
    ((((), (1,)), (0, 1), -4), "scale"),
], ids=["orphan", "out-of-order", "twice", "negative-label", "short", "dict", "fraction",
        "scale-0", "scale-negative"])
def test_sample_refuses_fields_its_checks_cannot_read(fields, field):
    with pytest.raises(ValueError, match=f"^{field} must"):
        cs.CascadeSample(*fields)


def test_from_values_sorts_into_level_order_exactly():
    sample = cs.CascadeSample.from_values({(1,): Fraction(1, 4), (): Fraction(0)})
    assert sample == cs.CascadeSample(((), (1,)), (0, 1), 4)
    assert sample.parents == (-1, 0)
    # a float is taken exactly, even over a scale that is not a power of two
    values = {(): 0.1, (1,): Fraction(1, 3)}
    assert cs.CascadeSample.from_values(values).values == {n: Fraction(v) for n, v in values.items()}


def test_a_node_the_sample_lacks_is_named():
    sample = cs.gen_cascade(0, 2, 2)
    name = re.escape("(9,)")
    with pytest.raises(ValueError, match=name):
        cs.check_separation(sample, (1,), (9,), 0)
    with pytest.raises(ValueError, match=name):
        sample.d((9,), ())
    with pytest.raises(ValueError, match=name):
        cs.epsilon(sample, (9, 1))


def test_copies_and_pickles_rebuild_through_the_constructor(monkeypatch):
    sample = cs.gen_cascade(3, 3, 2)
    built = []
    true_init = cs.CascadeSample.__init__

    def init(self, *fields):
        built.append(fields)
        true_init(self, *fields)

    monkeypatch.setattr(cs.CascadeSample, "__init__", init)
    fields = (sample.nodes, sample.positions, sample.scale)
    for rebuild in (copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))):
        assert rebuild(sample) == sample and built.pop() == fields
    assert hash(sample) == hash(cs.CascadeSample(*fields))


@st.composite
def _trees(draw):
    """A prefix-closed tree of up to 40 nodes (labels from 0, siblings
    missing, depth uneven up to 4) at dyadic positions, some coinciding."""
    nodes = [()]
    size = draw(st.integers(1, 40))
    for _ in range(2 * size):  # a child already there or too deep is skipped
        child = draw(st.sampled_from(nodes)) + (draw(st.integers(0, 4)),)
        if len(child) <= 4 and child not in nodes and len(nodes) < size:
            nodes.append(child)
    nodes.sort(key=cs._level_order)
    # each node a step from its parent that shrinks with depth, as in a
    # cascade; a step of 0 puts it on its parent
    at = {(): 0}
    for node in nodes[1:]:
        at[node] = at[node[:-1]] + draw(st.integers(-8, 8)) * 16 ** (4 - len(node))
    scale = 1 << draw(st.integers(0, 20))
    return cs.CascadeSample(tuple(nodes), tuple(at[n] for n in nodes), scale)


@settings(deadline=None)
@given(_trees())
def test_index_walks_match_the_oracles_on_any_tree(sample):
    strict = oracles.check_admissibility_fraction(sample, strict=True)
    assert cs.check_admissibility(sample) == strict
    relaxed = oracles.check_admissibility_fraction(sample, strict=False)
    assert vf._nonstrict_admissibility(sample) == relaxed
    assert cs.check_separation_all(sample) == _slow_scan(sample)


# Each cascade check must be able to fail.  The faults are planted at the
# verifier's calls into the cascade module, never inside the checkers.


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


def test_moved_generated_sample_fails_admissibility(monkeypatch):
    true_gen = cs.gen_cascade

    def gen(seed, depth, branching):
        sample = true_gen(seed, depth, branching)
        return _moved(sample, (1,), ()) if seed == 5 else sample

    monkeypatch.setattr(cs, "gen_cascade", gen)
    report = vf.verify_cascade(trials=16, seed=0)
    valid = _check(report, "generated-samples-admissible")
    assert valid.failed == 1 and valid.passed == 15
    assert valid.counterexamples[0]["trial"] == 5
    assert report.failed == 1


def test_admitted_violating_sample_fails_separation(monkeypatch):
    true_gen = cs.gen_cascade
    monkeypatch.setattr(
        cs, "gen_cascade",
        lambda seed, *shape: cs.violating_sample() if seed == 3 else true_gen(seed, *shape),
    )
    monkeypatch.setattr(
        cs, "check_admissibility", lambda sample: cs.ConditionReport(True, ())
    )
    report = vf.verify_cascade(trials=8, seed=0)
    implication = _check(report, "admissible-implies-separation")
    assert implication.failed == 1 and implication.passed == 7
    assert implication.counterexamples[0]["trial"] == 3


def test_blind_separation_fails_the_violating_control(monkeypatch):
    monkeypatch.setattr(cs, "check_separation_all", lambda sample: (0, []))
    report = vf.verify_cascade(trials=8, seed=0)
    control = _check(report, "violating-control-detected")
    assert control.failed == 1 and control.counterexamples
    assert report.failed == 1
