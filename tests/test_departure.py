import copy
import pickle
import random

import pytest
from hypothesis import example, given, strategies as st

from hurewicz_kit import alphabet as al
from hurewicz_kit import departure as dep
from hurewicz_kit import prime_coding as pc
from hurewicz_kit import verifier as vf
from hurewicz_kit.base import CapacityError, DomainError, HorizonError, Tri

from oracles import (
    apply_rebuilding,
    assert_prefix_invariants,
    code_value_per_call,
    codes_by_trial_division,
    codes_in_order,
    constraint_well_formed,
    constraints_by_encoding,
    decode_trial_division,
    density_check_membership_per_stem,
    dropped_constraints_by_encoding,
    dropped_rebuilding,
    find_branch_reencoding,
    j_code,
    membership_by_coord,
    off_by_one_rebuilding,
)

# The branch maps the verifier runs with (its ``_branch_maps``): the layer's
# own (no fault) and the two it plants over them, each with the oracle pair
# of constraint and apply functions that defines it.
BRANCH_MAPS = {
    None: (constraints_by_encoding, apply_rebuilding),
    vf.FAULT_REWRITE_OFF_BY_ONE: (constraints_by_encoding, off_by_one_rebuilding),
    vf.FAULT_DROP_NON_ONES: (dropped_constraints_by_encoding, dropped_rebuilding),
}


def branch(s, t):
    return dep.BranchIndex(tuple(s), tuple(t))


def test_branch_index_validation():
    with pytest.raises(ValueError):
        dep.BranchIndex((0,), (0,))
    with pytest.raises(ValueError):
        dep.BranchIndex((), (-1,))


def test_constraints_examples():
    c = dep.constraints(branch((), (0,)))
    assert c.ones == (2,) and c.non_ones == ()
    c = dep.constraints(branch((), (1,)))
    assert c.ones == (4,) and c.non_ones == (2,)
    c = dep.constraints(branch((0,), (0, 0)))
    assert c.ones == (2, 30) and c.non_ones == ()
    assert branch((0,), (0, 0)).top_index() == 30 == j_code((0, 0, 0))


def test_constraint_indices_increase_and_stay_disjoint():
    # every branch served is built well formed (the constructor refuses any
    # other), with the indices encoded anew and its top index last
    branches = dep.branches_within(dep.CODE_CAP + 1)
    assert len(branches) == 1_665
    for b in branches:
        c = dep.constraints(b)
        assert c == constraints_by_encoding(b), b
        assert c.ones[-1] == b.top_index(), b


_INDICES = st.one_of(
    st.lists(st.integers(-2, 12), max_size=4),
    st.lists(st.integers(0, 12), max_size=4, unique=True).map(sorted),
).map(tuple)


@given(_INDICES, _INDICES)
@example((), ())  # image and the sampler once read ones[-1] of it: IndexError
@example((2, 2), ())
@example((2, 5, 2), ())
@example((7, 2), ())
@example((-1, 2), ())
@example((4,), (9,))
@example((4,), (-1,))
@example((-2,), ())
def test_constraint_constructor_accepts_exactly_the_well_formed(ones, non_ones):
    if not constraint_well_formed(ones, non_ones):
        with pytest.raises(ValueError, match=r"ones=.* non_ones="):
            dep.CylinderConstraint(ones, non_ones)
        return
    c = dep.CylinderConstraint(ones, non_ones)
    assert (c.ones, c.non_ones) == (ones, non_ones)
    # a copy or a pickle rebuilds through the constructor
    for dup in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert type(dup) is dep.CylinderConstraint and dup == c


def test_a_constraint_with_no_must_be_1_index_is_refused_when_built():
    with pytest.raises(ValueError, match="no must-be-1 index"):
        dep.image(branch((), (0,)), dep.CylinderConstraint((), ()), al.ALL_ONES)
    with pytest.raises(ValueError, match="no must-be-1 index"):
        vf._SamplePlan(dep.CylinderConstraint((), ()))


def test_constraints_match_encoding_oracle():
    branches = dep.branches_within(10_000)
    assert len(branches) == 74
    for fault, (want, _) in BRANCH_MAPS.items():
        constraints, _ = vf._branch_maps(fault)
        for b in branches:
            assert constraints(b) == want(b), (b, fault)


def test_in_domain_examples():
    assert dep.in_domain(al.ALL_ONES, branch((), (0,))) is Tri.YES
    assert dep.in_domain(al.ALL_ONES, branch((), (1,))) is Tri.NO
    short = al.PointPrefix.from_entries((1,))
    assert dep.in_domain(short, branch((), (0,))) is Tri.UNKNOWN


def test_apply_example():
    y = dep.apply(branch((), (0,)), al.ALL_ONES)
    assert y.coord(2) == 900 == j_code((1, 1, 1))
    assert y.coord(0) == 1 and y.coord(1) == 1 and y.coord(3) == 1
    fd = al.first_disagreement(al.ALL_ONES, y)
    assert fd == 2 and al.member_cmp(2, 1, y.coord(2)) == -1


def test_apply_errors():
    with pytest.raises(DomainError):
        dep.apply(branch((), (1,)), al.ALL_ONES)
    with pytest.raises(HorizonError):
        dep.apply(branch((), (0,)), al.PointPrefix.from_entries((1,)))


def test_apply_rewrite_reads_the_input_not_the_partial_image():
    b = branch((0,), (0, 0))  # rewrites 2 then 30; the value at 30 codes the
    y = dep.apply(b, al.ALL_ONES)  # original prefix, whose coordinate 2 is 1
    assert y.coord(2) == 900
    assert y.coord(30) == pc.make_code_value_sparse(31, ())
    assert pc.decode(y.coord(30)) == (1,) * 31


def test_image_rewrites_a_hand_built_constraint():
    # the image skips the per-pair tests a decided membership and the
    # constraint's constructor make redundant, and leaves the point as it was
    b = branch((), (0,))
    x = al.PointPrefix(3, ((1, 4),), tail_ones=True)
    before = (_fields(x), dict(x.override_map))
    y = dep.image(b, dep.CylinderConstraint((2, 7), ()), x)
    assert (_fields(x), x.override_map) == before
    assert_prefix_invariants(y)
    assert y.length == 8 and [p for p, _ in y.overrides] == [1, 2, 7]


@pytest.mark.parametrize(
    "b, extra, label",
    [
        # the rewrite at must-be-1 index 262,144 codes a prefix past the
        # exact-sum cap, so its size label is a lower bound
        (branch((), (17,)), (), "at least"),
        # must-be-1 indices 4 and 90 rewritten around a factored entry at 50
        (
            branch((0,), (1, 0)),
            ((50, pc.make_code_value_sparse(4, ((2, 2**5000),))),),
            "size beyond any usable estimate",
        ),
    ],
    ids=["past-the-cap", "after-a-factored-entry"],
)
def test_image_rewrites_hard_prefixes_as_one_call_each(b, extra, label):
    cons = dep.constraints(b)
    items = [(q, 0) for q in cons.non_ones] + list(extra)
    x = al.PointPrefix(max(p for p, _ in items) + 1, items, tail_ones=True)
    y = dep.image(b, cons, x)
    for q in cons.ones:
        got = y.coord(q)
        want = code_value_per_call(q + 1, [(p, v) for p, v in x.overrides if p < q])
        assert type(got) is type(want) and got == want, q
        assert pc.render_value(got) == pc.render_value(want), q
    assert isinstance(got, pc.SymbolicCode) and f"({label}" in pc.render_value(got)
    assert dep.apply_inverse(b, y) == (Tri.YES, x)


def test_find_branch_examples():
    outcome, t = dep.find_branch((), al.ALL_ONES)
    assert outcome is Tri.YES and t == (0,)
    x = al.PointPrefix(5, ((2, 4),), tail_ones=True)  # coordinate 2 reads 4
    outcome, t = dep.find_branch((), x)
    assert outcome is Tri.YES and t == (1,)
    assert dep.in_domain(x, branch((), t)) is Tri.YES
    bare = al.PointPrefix.from_entries((1, 1))
    assert dep.find_branch((0,), bare) == (Tri.UNKNOWN, None)


def test_branch_walks_refuse_a_negative_horizon():
    # a negative horizon would scan nothing and report unknown
    for horizon in (-1, -5):
        with pytest.raises(ValueError, match="horizon"):
            dep.find_branch((0,), al.ALL_ONES, horizon=horizon)
        with pytest.raises(ValueError, match="horizon"):
            dep.walk_branches(dep.stem_walk([(), (0,)]), al.ALL_ONES, horizon)
    # horizon 0 is a natural: it is scanned, and passed at once
    assert dep.find_branch((), al.ALL_ONES, horizon=0) == (Tri.UNKNOWN, None)


def test_find_branch_unique_among_enumerated():
    x = al.point_from_node((1, 1, 900))
    for s in [(), (0,), (1,), (0, 0)]:
        outcome, t = dep.find_branch(s, x)
        assert outcome is Tri.YES
        hits = [
            b
            for b in dep.branches_within(5000)
            if b.s == s and dep.in_domain(x, b) is Tri.YES
        ]
        found = dep.BranchIndex(s, t)
        if found.top_index() < 5000:
            assert hits == [found]
        else:
            assert hits == []


def test_find_branch_matches_reencoding_oracle():
    stems = dep.sequences_below(10_000)
    points = [al.point_from_node(nd) for nd in al.enumerate_nodes(3)]
    points += [al.point_from_node(nd, tail_ones=False) for nd in al.enumerate_nodes(3)]
    outcomes = set()
    for s in stems:
        for x in points:
            for horizon in (10**15, 10**4):
                got = dep.find_branch(s, x, horizon=horizon)
                assert got == find_branch_reencoding(s, x, horizon=horizon), (s, x)
                outcomes.add(got[0])
    assert outcomes == {Tri.YES, Tri.UNKNOWN}


def _find_branches_cases():
    """(stems, point, horizon): a prefix-closed list in code order; a list
    out of order with a parent missing; a point with no tail, whose scans
    can reach its end; and a horizon small enough to stop scans."""
    stems = dep.sequences_below(10_000)
    x = al.point_from_node((4, 288, 1))
    return [
        (stems, x, 10**15),
        ([(2, 0, 1), (0,), (1, 3), (2,), (), (2, 0), (0,), (5, 0, 0, 1)], x, 10**15),
        (stems, al.point_from_node((4, 288, 1), tail_ones=False), 10**15),
        (stems, x, 300),
    ]


def test_find_branches_matches_per_stem_find_branch():
    outcomes = []
    for stems, x, horizon in _find_branches_cases():
        got = dep.walk_branches(dep.stem_walk(stems), x, horizon)
        assert got == [dep.find_branch(s, x, horizon) for s in stems]
        assert got == [find_branch_reencoding(s, x, horizon) for s in stems]
        outcomes.append({outcome for outcome, _ in got})
    # the first two cases find every branch; the last two leave some unknown
    assert outcomes == [{Tri.YES}, {Tri.YES}, {Tri.YES, Tri.UNKNOWN}, {Tri.YES, Tri.UNKNOWN}]


def test_find_branches_scans_each_level_once(monkeypatch):
    scans = []
    scan = dep._scan_level

    def counted(base, x, horizon):
        scans.append(base)
        return scan(base, x, horizon)

    monkeypatch.setattr(dep, "_scan_level", counted)
    stems, x, horizon = _find_branches_cases()[0]
    dep.walk_branches(dep.stem_walk(stems), x, horizon)
    # one scan per stem of a prefix-closed list, none of them repeated
    assert len(scans) == len(set(scans)) == len(stems) == 148


def test_find_branches_matches_reencoding_oracle_on_every_small_node():
    stems = dep.sequences_below(10**5)
    shuffled = list(stems)
    random.Random(11).shuffle(shuffled)
    shuffled.insert(200, shuffled[40])  # one stem met twice, far apart
    points = [al.point_from_node(nd) for p in range(4) for nd in al.enumerate_nodes(p)]
    assert len(stems) == 351 and len(points) == 51
    outcomes = set()
    for stem_list in (stems, shuffled):
        walk = dep.stem_walk(stem_list)
        # a level per prefix met: the stems themselves, since the list is
        # prefix-closed, each once
        assert len(walk[0]) == len(stems) and len(walk[1]) == len(stem_list)
        for x in points:
            for horizon in (10**15, 10**4):
                want = [find_branch_reencoding(s, x, horizon) for s in stem_list]
                assert dep.walk_branches(walk, x, horizon) == want, x
                outcomes.update(outcome for outcome, _ in want)
    assert outcomes == {Tri.YES, Tri.UNKNOWN}


def test_density_check_builds_one_stem_walk(monkeypatch):
    walks = []
    build = dep.stem_walk

    def counted(stems):
        walks.append(len(stems))
        return build(stems)

    monkeypatch.setattr(dep, "stem_walk", counted)
    report = vf.verify_departure(include=("density",))
    assert walks == [len(dep.sequences_below(10_000))] == [148]
    assert report.failed == 0 and report.inconclusive == 0


def _swapped_constraints(b):
    """A well-formed wrong domain for b, its top index's demand swapped:
    not 1 at b's top index, 1 at the next.  Its own branch's domain misses
    every point it was found at, which reads 1 at that top index."""
    top = b.top_index()
    return dep.CylinderConstraint((top + 1,), (top,))


def test_swapping_a_constraints_index_sets_is_refused():
    # the swapped pair names its top must-be-1 index as a must-not-be-1 one
    # past every other, or, with no must-not-be-1 index, has no must-be-1
    for b in dep.branches_within(300):
        cons = dep.constraints(b)
        with pytest.raises(ValueError, match="malformed constraint"):
            dep.CylinderConstraint(cons.non_ones, cons.ones)


@pytest.mark.parametrize(
    "constraints", [dep.constraints, vf._dropped_constraints, _swapped_constraints],
    ids=["exact", "dropped-non-ones", "swapped"],
)
@pytest.mark.parametrize("depth, horizon", [(2, 300), (3, 10_000)])
def test_density_check_matches_per_stem_membership_oracle(constraints, depth, horizon):
    # the found branch's membership is read off the stem's domains inside
    # the horizon; the faults give both of the check's failures
    by_stem = {}
    for b in dep.branches_within(horizon):
        by_stem.setdefault(b.s, []).append((b, constraints(b)))
    got = vf._density_check(depth, horizon, by_stem, constraints).as_dict()
    want = density_check_membership_per_stem(depth, horizon, by_stem, constraints)
    assert got == want.as_dict()
    assert (got["failed"] > 0) == (constraints is not dep.constraints)


def test_enumeration_examples():
    assert dep.e(0) == ()
    assert dep.e(1) == (0,)
    assert dep.e(3) == (0, 0)


def test_enumeration_matches_brute_force():
    expected = codes_in_order(5000)
    got = [dep.e(n) for n in range(len(expected))]
    assert got == expected
    for n, s in enumerate(expected):
        assert dep.e_inv(s) == n


def test_generated_codes_match_oracles():
    assert dep._codes_below(10**6) == codes_by_trial_division(10**6)
    for limit in (0, 1, 2, 3, 4, 5, 12, 13):
        assert dep._codes_below(limit) == codes_by_trial_division(limit)
    dep._ensure_codes(10**6)
    assert [c for c in dep._codes if c < 10**6] == codes_by_trial_division(10**6)


def test_sequences_below_match_trial_division():
    # growing, then smaller limits read from the grown table
    for limit in (0, 1, 2, 3, 10**4, 10**6, 10**4, 3, 0):
        expected = [decode_trial_division(c) for c in codes_by_trial_division(limit)]
        assert dep.sequences_below(limit) == expected, limit


def test_enumeration_cap():
    assert dep.e_inv((22,)) == 1569
    top = max(c for c in dep._codes_below(dep.CODE_CAP + 1))
    last = dep.e_inv(pc.decode(top))
    assert dep.e(last) == pc.decode(top)
    for n in (last + 1, 10**9):
        with pytest.raises(CapacityError):
            dep.e(n)
    # a refused rank does not grow the table past the cap
    assert dep._codes_limit <= 2 * (dep.CODE_CAP + 1)
    # and a table grown past the cap for a wide horizon still refuses it
    dep._ensure_codes(4 * dep.CODE_CAP)
    assert len(dep._codes) > last + 1
    with pytest.raises(CapacityError):
        dep.e(last + 1)
    with pytest.raises(CapacityError):
        dep.e_inv(pc.decode(top) + (0,))
    # (25,) codes to 2^26 < 10^8 and (26,) to 2^27 > 10^8
    assert dep.branch_by_rank(0, 25) == branch((), (25,))
    with pytest.raises(CapacityError):
        dep.branch_by_rank(0, 26)


def test_enumeration_prefix_monotone():
    for s in codes_in_order(300):
        for n in range(4):
            assert dep.e_inv(s) < dep.e_inv(s + (n,))


def test_apply_fn():
    outcome, y = dep.apply_fn(0, al.ALL_ONES)
    assert outcome is Tri.YES
    assert y.coord(2) == 900
    # the glued map for slot 1 discovers its branch greedily
    outcome, y = dep.apply_fn(1, al.ALL_ONES)
    assert outcome is Tri.YES
    assert dep.e(1) == (0,)
    assert y.coord(2) == 900 and pc.decode(y.coord(30)) == (1,) * 31
    # a bare prefix cannot decide membership: unknown, never a definite no
    outcome, y = dep.apply_fn(0, al.PointPrefix.from_entries((1,)))
    assert outcome is Tri.UNKNOWN and y is None


def test_alphabet_closure_exhaustive_small():
    branches = dep.branches_within(64)
    assert len(branches) >= 6
    for p in range(5):
        for node in al.enumerate_nodes(p):
            x = al.point_from_node(node)
            for b in branches:
                if dep.in_domain(x, b) is not Tri.YES:
                    continue
                y = dep.apply(b, x)
                for q in dep.constraints(b).ones:
                    v = y.coord(q)
                    assert v != 1 and al.member_valid(q, v)


def test_injectivity_on_domain_points():
    b = branch((), (0,))
    images = {}
    for node in al.enumerate_nodes(3):
        x = al.point_from_node(node)
        if dep.in_domain(x, b) is not Tri.YES:
            continue
        y = dep.apply(b, x)
        assert y.key() not in images
        images[y.key()] = x


def test_stability_bound_and_nested_domains():
    child = branch((0,), (0, 0))
    parent = branch((), (0,))
    cc, pc_ = dep.constraints(child), dep.constraints(parent)
    assert set(pc_.ones) <= set(cc.ones) and set(pc_.non_ones) <= set(cc.non_ones)
    x = al.ALL_ONES
    assert dep.in_domain(x, child) is Tri.YES
    fd = al.first_disagreement(dep.apply(child, x), dep.apply(parent, x))
    assert fd == child.top_index() == 30


def test_branch_disjointness_structural():
    bs = dep.branches_within(3000)
    by_stem = {}
    for b in bs:
        by_stem.setdefault(b.s, []).append(b)
    for stem, group in by_stem.items():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                c1, c2 = dep.constraints(group[i]), dep.constraints(group[j])
                assert set(c1.ones) & set(c2.non_ones) or set(c2.ones) & set(
                    c1.non_ones
                )


def test_apply_inverse_round_trip():
    for b in dep.branches_within(300):
        x = al.ALL_ONES
        if dep.in_domain(x, b) is not Tri.YES:
            x = al.PointPrefix(
                max(dep.constraints(b).non_ones, default=0) + 1,
                tuple(
                    (q, pc.make_code_value_sparse(q + 1, ()))
                    for q in dep.constraints(b).non_ones
                ),
                tail_ones=True,
            )
        if dep.in_domain(x, b) is not Tri.YES:
            continue
        y = dep.apply(b, x)
        outcome, back = dep.apply_inverse(b, y)
        assert outcome is Tri.YES and back == x


def _fields(x):
    return (x.length, x.tail_ones, x.overrides, x.key())


def _assert_canonical(x):
    """A prefix built from canonical overrides equals the one the sorting,
    filtering constructor builds from the same data."""
    rebuilt = al.PointPrefix(x.length, x.overrides, x.tail_ones)
    assert _fields(x) == _fields(rebuilt) and x.override_map == rebuilt.override_map


def test_apply_matches_rebuilding_oracle():
    for b in dep.branches_within(10_000):
        cons = dep.constraints(b)
        plan = vf._SamplePlan(cons)
        rng = random.Random(b.top_index())
        for _ in range(20):
            x = plan.draw(rng.getrandbits)
            assert_prefix_invariants(x)
            _assert_canonical(x)
            for fault, (_, want) in BRANCH_MAPS.items():
                constraints, image = vf._branch_maps(fault)
                y = image(b, constraints(b), x)
                assert_prefix_invariants(y)
                _assert_canonical(y)
                assert _fields(y) == _fields(want(b, x)), (b, fault)
            outcome, back = dep.apply_inverse(b, dep.apply(b, x))
            assert outcome is Tri.YES
            _assert_canonical(back)
            assert _fields(back) == _fields(x)


def _apply_outcome(fn, *args):
    try:
        y = fn(*args)
    except DomainError as exc:
        return ("domain", str(exc))
    except HorizonError as exc:
        return ("horizon", exc.required_index, str(exc))
    return ("image",) + _fields(y)


def test_apply_errors_match_rebuilding_oracle():
    """Sampled points pushed through other branches, and cut to prefixes
    with no tail, by each branch map the verifier runs with: the same image,
    DomainError or HorizonError (with the same needed index and message) as
    its oracle, and the same membership as reading every constrained
    coordinate."""
    branches = dep.branches_within(10_000)
    rng = random.Random(5)
    seen = set()
    for b in branches:
        x = vf._SamplePlan(dep.constraints(b)).draw(rng.getrandbits)
        cuts = [rng.randrange(x.length + 1) for _ in range(3)] + [x.length]
        points = [x] + [
            al.PointPrefix(n, [(p, v) for p, v in x.overrides if p < n]) for n in cuts
        ]
        for other in rng.sample(branches, 5) + [b]:
            for fault, (_, want) in BRANCH_MAPS.items():
                constraints, image = vf._branch_maps(fault)
                cons = constraints(other)
                for pt in points:
                    assert cons.membership(pt) is membership_by_coord(cons, pt)
                    got = _apply_outcome(image, other, cons, pt)
                    assert got == _apply_outcome(want, other, pt), (other, fault)
                    seen.add(got[0])
    assert seen == {"domain", "horizon", "image"}


def test_membership_readable_violation_is_decisive():
    cons = dep.constraints(branch((0,), (1, 0)))
    assert cons.ones == (4, 90) and cons.non_ones == (2,)
    # 90 unreadable: a readable violation still decides, agreement does not
    assert cons.membership(al.PointPrefix(5, ((2, 900),))) is Tri.UNKNOWN
    assert cons.membership(al.PointPrefix(5, ((2, 900), (4, 36)))) is Tri.NO
    assert cons.membership(al.PointPrefix(5, ())) is Tri.NO  # 2 reads 1
    assert cons.membership(al.PointPrefix(2, ())) is Tri.UNKNOWN
    # the all-ones tail reads 1 past the explicit prefix
    assert cons.membership(al.PointPrefix(2, (), tail_ones=True)) is Tri.NO
    assert cons.membership(al.PointPrefix(3, ((2, 900),), tail_ones=True)) is Tri.YES
    assert cons.membership(al.PointPrefix(100, ((2, 4), (90, 4)), True)) is Tri.NO


def test_apply_inverse_rejects_points_off_the_image():
    outcome, _ = dep.apply_inverse(branch((), (0,)), al.ALL_ONES)
    assert outcome is Tri.NO  # coordinate 2 should carry the rewrite code


def test_apply_inverse_without_a_verdict_or_off_the_domain():
    b = branch((0,), (1, 0))
    cons = dep.constraints(b)
    assert cons.ones == (4, 90) and cons.non_ones == (2,)
    rewrites = tuple((q, pc.make_code_value_sparse(q + 1, (), canonical=True)) for q in cons.ones)
    # coordinate 4 carries its rewrite, but 90 lies past a prefix with no tail
    assert dep.apply_inverse(b, al.PointPrefix(50, rewrites[:1])) == (Tri.UNKNOWN, None)
    # every rewrite of the all-ones point is carried, but the rebuilt point
    # reads 1 at the must-not-be-1 index 2: its membership, NO, is returned
    y = al.PointPrefix(91, rewrites, tail_ones=True)
    x = y.without(set(cons.ones))
    assert all(y.coord(q) == dep._rewrite_value(x, q) for q in cons.ones)
    assert cons.membership(x) is Tri.NO
    assert dep.apply_inverse(b, y) == (Tri.NO, None)


def test_branches_within_ordering_and_split():
    bs = dep.branches_within(10_000)
    tops = [b.top_index() for b in bs]
    assert tops == sorted(tops) and all(t < 10_000 for t in tops)
    for b in bs:
        assert len(b.t) == len(b.s) + 1
        assert pc.decode(b.top_index()) == b.s + b.t


def test_find_branch_horizon_cap():
    # a scan that would leave the index horizon reports unknown; the default
    # horizon covers this stem (its level-1 candidate index is 30720)
    outcome, t = dep.find_branch((10,), al.ALL_ONES, horizon=100)
    assert outcome is Tri.UNKNOWN and t is None
    outcome, t = dep.find_branch((10,), al.ALL_ONES)
    assert outcome is Tri.YES and t == (0, 0)
    # the horizon is inclusive: an index at it is read, one past it is not
    assert dep.find_branch((10,), al.ALL_ONES, horizon=30720) == (Tri.YES, (0, 0))
    assert dep.find_branch((10,), al.ALL_ONES, horizon=30719) == (Tri.UNKNOWN, None)


def test_branch_by_rank_refuses_a_negative_rank():
    # a usage error, as e(-1) is, not a rank beyond the enumeration cap
    for n in (0, 3):
        with pytest.raises(ValueError, match="natural"):
            dep.branch_by_rank(n, -1)


def test_branch_by_rank_and_slot():
    assert dep.branch_by_rank(0, 0) == branch((), (0,))
    assert dep.branch_by_rank(0, 2) == branch((), (2,))
    assert dep.branch_by_rank(1, 0) == branch((0,), (0, 0))
    for n in range(5):
        for p in range(3):
            b = dep.branch_by_rank(n, p)
            assert b.s == dep.e(n)
