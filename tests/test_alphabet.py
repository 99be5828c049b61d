import itertools
import random

import pytest

from hurewicz_kit import alphabet as al
from hurewicz_kit import departure as dep
from hurewicz_kit import prime_coding as pc
from hurewicz_kit import verifier as vf
from hurewicz_kit.base import CapacityError, Tri

from oracles import (
    alphabets_by_comparator,
    first_disagreement_by_position_set,
    j_code,
    member_valid_uncached,
)


def test_first_two_levels_exact():
    a0, a1 = al.alphabets(2)
    assert a0 == (1, 4)
    assert a1 == (1, 36, 288)


def test_level_two_exact_values():
    expected = sorted(
        [1] + [j_code((a, b, 1)) for a in (1, 4) for b in (1, 36, 288)]
    )
    assert list(al.alphabets(3)[2]) == expected


def test_sizes():
    assert [len(a) for a in al.alphabets(5)] == [2, 3, 7, 43, 1807]


def test_every_member_decodes_to_a_node():
    for i, a in enumerate(al.alphabets(5)):
        assert a[0] == 1
        for m in a:
            assert al.member_valid(i, m)
            if m != 1:
                seq = pc.decode(m)
                assert len(seq) == i + 1 and seq[-1] == 1
                assert al.node_valid(seq[:-1])


def test_member_valid_negatives():
    assert not al.member_valid(2, 901)
    assert not al.member_valid(0, 36)
    assert not al.member_valid(2, 10)
    assert al.member_valid(2, 900)
    assert al.member_valid(7, 1)


def _assert_member_valid_matches_oracle(level, v):
    want = member_valid_uncached(level, v)
    # the second call reads the cache for int values
    assert al.member_valid(level, v) == want, (level, v)
    assert al.member_valid(level, v) == want, (level, v)
    return want


def test_member_valid_matches_uncached_oracle():
    verdicts = set()
    for i, members in enumerate(al.alphabets(4)):
        for m in members:
            for level in range(max(i - 1, 0), i + 2):
                verdicts.add(_assert_member_valid_matches_oracle(level, m))
    for level, v in ((2, 901), (0, 36), (2, 10), (2, 900), (7, 1), (1, 0), (3, 2**4096)):
        _assert_member_valid_matches_oracle(level, v)
    # codes of u⌢1 with one entry of u moved off its alphabet
    for i, members in enumerate(al.alphabets(4)):
        for m in members[1:]:
            seq = pc.decode(m)
            for j in range(i):
                bad = seq[:j] + (seq[j] + 1,) + seq[j + 1 :]
                assert not _assert_member_valid_matches_oracle(i, pc.make_code_value(bad))
    # rewritten coordinates of branch maps at random domain points, correct
    # and with the off-by-one rewrite fault, at their own level and one below
    rng = random.Random(3)
    branches = dep.branches_within(3000)
    for b in rng.sample(branches, 40):
        cons = dep.constraints(b)
        for _ in range(4):
            x = vf._sample_domain_point(cons, rng)
            for fault in (None, dep.FAULT_REWRITE_OFF_BY_ONE):
                y = dep.apply(b, x, fault=fault)
                for q in cons.ones:
                    verdicts.add(_assert_member_valid_matches_oracle(q, y.coord(q)))
                    _assert_member_valid_matches_oracle(q - 1, y.coord(q))
    assert verdicts == {True, False}


def _small_code(seq, bits=5000):
    """j_code(seq), or None when it may pass ``bits`` bits or has a factored
    entry.  The oracle divides a code once per unit of every exponent, so
    the bound keeps it quick."""
    if any(isinstance(e, pc.SymbolicCode) for e in seq):
        return None
    if sum((e + 1) * pc.nth_prime(i).bit_length() for i, e in enumerate(seq)) > bits:
        return None
    return j_code(seq)


def _member_seqs(level):
    """Entry sequences u⌢1 of the members at the level with a small int
    code (``_small_code``): entries below position 4 range over the
    alphabets, every later one is 1 (a non-1 member of A_4 has over 5
    million as its value, too large as an exponent)."""
    lower = [a if i < 4 else (1,) for i, a in enumerate(al.alphabets(4) + [()] * 5)]
    for u in itertools.product(*lower[:level]):
        if _small_code(u + (1,)) is not None:
            yield u + (1,)


def test_int_membership_by_all_ones_division_matches_oracle():
    """The all-ones route of ``_int_member_valid`` at levels 0-8 on members,
    their int forms past the materialization cutoff, and the near misses
    that route must reject: an entry 0, a last entry other than 1, a prime
    factor past the length, ints below the all-ones code."""
    verdicts = {}
    members4 = [m for a in al.alphabets(4) for m in a if isinstance(m, int)]
    for level in range(9):
        ones = j_code((1,) * (level + 1))
        cases = [("alphabet member", m) for m in members4]
        cases += [("below ones", v) for v in (0, 2, 3, ones // 2, ones - 1)]
        cases.append(("ones", ones))
        for seq in _member_seqs(level):
            cases.append(("member", j_code(seq)))
            for i in range(level):
                cases.append(("entry 0", j_code(seq[:i] + (0,) + seq[i + 1 :])))
                cases.append(("entry 4", j_code(seq[:i] + (4,) + seq[i + 1 :])))
            for last in (0, 2) + al.alphabets(4)[min(level, 3)][1:3]:
                cases.append(("last entry", _small_code(seq[:-1] + (last,))))
            cases.append(("past the length", j_code(seq + (1,))))
            cases.append(("past the length", j_code(seq) * pc.nth_prime(level + 2)))
        if level >= 3:
            # from the factored members of A_3 whose level-2 entry is small:
            # members (a, b, c, 1, ..., 1) as ints past the cutoff, and the
            # same codes one off in c
            for m in al.alphabets(4)[3]:
                if isinstance(m, pc.SymbolicCode) and _small_code(m.seq(), 24_000):
                    a, b, c, _ = m.seq()
                    tail = (1,) * (level - 2)
                    big = j_code((a, b, c) + tail)
                    assert big.bit_length() > pc.MATERIALIZE_BITS
                    cases.append(("big member", big))
                    cases.append(("big non-member", j_code((a, b, c + 1) + tail)))
        for kind, v in cases:
            if v is None:
                continue
            want = member_valid_uncached(level, v)
            al._int_member_valid.cache_clear()
            assert al.member_valid(level, v) == want, (kind, level, v)
            verdicts.setdefault(kind, set()).add(want)
    assert verdicts["member"] == verdicts["big member"] == verdicts["ones"] == {True}
    for kind in ("entry 0", "last entry", "below ones", "past the length", "big non-member"):
        assert verdicts[kind] == {False}, kind
    for kind in ("entry 4", "alphabet member"):
        assert verdicts[kind] == {True, False}, kind


def test_int_membership_builds_no_all_ones_code_longer_than_the_int():
    """An int far shorter than the all-ones code of its level is rejected by
    the size bound before that code is built (or cached)."""
    before = pc._all_ones_code.cache_info().misses
    for level, v in ((2000, 2**4097 * 3), (1500, 2**5000 - 1), (40, 2**100)):
        assert al.member_valid(level, v) is False
        assert member_valid_uncached(level, v) is False
    assert pc._all_ones_code.cache_info().misses == before


def test_alphabets_sorted():
    for i, a in enumerate(al.alphabets(5)):
        for x, y in zip(a, a[1:]):
            assert al.member_cmp(i, x, y) == -1
            assert al.member_cmp(i, y, x) == 1


def test_alphabets_match_comparator_sort():
    assert al.alphabets(5) == alphabets_by_comparator(5)


def test_level_three_facts_behind_the_level_four_tiers():
    # the facts alphabets() proves the tier and rank rules from
    a2, a3 = al.alphabets(4)[2:]
    assert max(a2) < 2**470
    assert min(y - x for x, y in zip(a2, a2[1:])) >= 899
    first_factored = next(k for k, m in enumerate(a3) if isinstance(m, pc.SymbolicCode))
    assert all(isinstance(m, int) and m < 2**4097 for m in a3[:first_factored])
    for m in a3[first_factored:]:
        assert isinstance(m, pc.SymbolicCode) and m.entry(2) >= 7200
    # adjacent members, hence all distinct ones, differ by a factor >= 8
    for x, y in zip(a3, a3[1:]):
        terms = [(-3, 2)]
        for sign, v in ((1, y), (-1, x)):
            if v != 1:
                terms += [(sign * (e + 1), pc.nth_prime(i)) for i, e in enumerate(pc.decode(v))]
        assert pc.scaled_log_sign(terms) >= 0, (x, y)


def _keys_by_member(level):
    lower = al.alphabets(level)
    return {m: k for k, m in al._keyed_members(level, lower)}


@pytest.mark.parametrize("level", [3, 4])
def test_certified_decisions_match_member_cmp(level):
    keys = _keys_by_member(level)
    members = al.alphabets(level + 1)[level][1:]
    assert sorted(keys, key=members.index) == list(members)
    decided = {"tier or rank": 0, "interval": 0, None: 0}

    def check(x, y):
        kx, ky = keys[x], keys[y]
        c = al._certified_cmp(kx, ky)
        decided["tier or rank" if kx[:2] != ky[:2] else "interval" if c else None] += 1
        if c is not None:
            assert c == al.member_cmp(level, x, y), (x, y)
            assert al._certified_cmp(ky, kx) == -c

    for x, y in zip(members, members[1:]):
        check(x, y)
    rng = random.Random(level)
    for _ in range(2000):
        x, y = rng.sample(members, 2)
        check(x, y)
    assert decided["interval"] > 0
    if level == 4:
        assert decided["tier or rank"] > 0


def test_certified_cmp_needs_the_gap_outside_the_error_interval():
    # coefficient differences (1, -2) allow an error of 2 * 3 = 6 either way
    x, y = (1, 0, 10, (5, 7)), (1, 0, 16, (6, 5))
    assert al._certified_cmp(x, y) is None
    assert al._certified_cmp(x, (1, 0, 17, (6, 5))) == -1
    assert al._certified_cmp((1, 0, 17, (6, 5)), x) == 1
    assert al._certified_cmp(x, (1, 0, 4, (6, 5))) is None
    assert al._certified_cmp(x, (1, 0, 3, (6, 5))) == 1
    # tier, then rank, decide before any interval
    assert al._certified_cmp((2, 0, 0, (0,)), (1, 0, 10**9, (10**9,))) == 1
    assert al._certified_cmp((2, 5, 0, (0,)), (2, 6, -(10**9), (1,))) == -1


def test_order_unchanged_when_every_interval_overlaps(monkeypatch):
    want = al.alphabets(5)
    calls = []
    real_member_cmp = al.member_cmp

    def counted(level, x, y):
        calls.append(level)
        return real_member_cmp(level, x, y)

    monkeypatch.setattr(al, "_LOG_ERROR", 2**20000)
    monkeypatch.setattr(al, "member_cmp", counted)
    monkeypatch.setattr(al, "_alpha_cache", [])
    assert al.alphabets(5) == want
    # every adjacent pair of equal (tier, rank) went through member_cmp
    keys = _keys_by_member(4)
    a4 = want[4][1:]
    same_group = sum(keys[x][:2] == keys[y][:2] for x, y in zip(a4, a4[1:]))
    assert calls.count(4) >= same_group > 0


def test_alphabets_refuse_level_five_before_building_it():
    with pytest.raises(CapacityError, match="level 4"):
        al._keyed_members(5, [(1,)] * 5)


def test_level_four_order_matches_exact_integers():
    # members small enough to materialize for the test: compare the library
    # order against true integer order
    a4 = al.alphabets(5)[4]
    small = []
    for m in a4:
        if m == 1:
            small.append((1, m))
            continue
        seq = pc.decode(m)
        entries = []
        ok = True
        for v in seq:
            if isinstance(v, pc.SymbolicCode):
                inner = pc.decode(v)
                if any(not isinstance(w, int) or w > 10**5 for w in inner):
                    ok = False
                    break
                entries.append(j_code(tuple(inner)))
            else:
                entries.append(v)
        if not ok:
            continue
        bits = sum((e + 1) * pc.nth_prime(i).bit_length() for i, e in enumerate(entries))
        if bits > 400_000:
            continue
        small.append((j_code(tuple(entries)), m))
    assert len(small) >= 20
    values = [v for v, _ in small]
    positions = [a4.index(m) for _, m in small]
    assert sorted(range(len(values)), key=lambda k: values[k]) == sorted(
        range(len(values)), key=lambda k: positions[k]
    )


def test_level_four_full_order_against_log_oracle():
    # independent route: sign of ln(x) - ln(y) evaluated numerically after
    # cancelling structurally equal factors exactly.  After cancellation the
    # residual terms either involve only storable integers (5400 digits of
    # working precision dwarf them) or a lone huge-exponent weight that
    # dominates everything else by orders of magnitude, so the numeric sign
    # is reliable for every adjacent pair.
    from mpmath import exp, ln, mp, mpf

    mp.dps = 5400
    # memoised by entry and by prime index: both are pure at this precision,
    # and entries (ints and SymbolicCodes) hash exactly
    weights: dict = {}
    logs: dict = {}

    def ln_prime(i):
        if i not in logs:
            logs[i] = ln(pc.nth_prime(i))
        return logs[i]

    def log_of_member(m):
        if m == 1:
            return mpf(0)
        total = mpf(0)
        for i, e in enumerate(pc.decode(m)):
            total += weight_of(e) * ln_prime(i)
        return total

    def weight_of(e):
        if e not in weights:
            if isinstance(e, pc.SymbolicCode):
                weights[e] = exp(log_of_member(e)) + 1
            else:
                weights[e] = mpf(e) + 1
        return weights[e]

    def log_difference(x, y):
        fx = {i: e for i, e in enumerate(pc.decode(x))}
        fy = {i: e for i, e in enumerate(pc.decode(y))}
        total = mpf(0)
        for i in sorted(set(fx) | set(fy)):
            ex, ey = fx.get(i), fy.get(i)
            if ex == ey:
                continue  # exact structural cancellation
            lnq = ln_prime(i)
            if ex is not None:
                total += weight_of(ex) * lnq
            if ey is not None:
                total -= weight_of(ey) * lnq
        return total

    a4 = al.alphabets(5)[4]
    assert a4[0] == 1
    for x, y in zip(a4[1:], a4[2:]):
        assert log_difference(x, y) < 0, (x, y)


def test_node_counts():
    assert al.enumerate_nodes(0) == [()]
    assert len(al.enumerate_nodes(3)) == 42
    assert len(al.enumerate_nodes(4)) == 1806
    assert al.node_count(4) == 1806


def test_nodes_sorted_no_duplicates():
    nodes = al.enumerate_nodes(3)
    assert len(set(nodes)) == len(nodes)
    for x, y in zip(nodes, nodes[1:]):
        assert al.lex_compare(x, y) == -1


def test_lex_compare_examples():
    assert al.lex_compare((1, 1, 1), (1, 1, 1)) == 0
    assert al.lex_compare((1, 1, 1), (1, 1, 900)) == -1
    assert al.lex_compare((4, 1, 1), (1, 288, 1)) == 1
    with pytest.raises(ValueError):
        al.lex_compare((1,), (1, 1))


def test_capacity():
    with pytest.raises(CapacityError):
        al.alphabets(99)
    with pytest.raises(CapacityError):
        al.enumerate_nodes(6)


def test_point_prefix_basics():
    x = al.PointPrefix.from_entries((1, 1, 900), tail_ones=True)
    assert x.coord(0) == 1 and x.coord(2) == 900 and x.coord(50) == 1
    bare = al.PointPrefix.from_entries((1, 1, 1))
    assert bare.coord(5) is Tri.UNKNOWN
    assert al.ALL_ONES.coord(123456) == 1
    # denotation equality ignores trailing explicit ones under the tail flag
    assert al.PointPrefix.from_entries((1, 1), tail_ones=True) == al.ALL_ONES


def test_point_prefix_override_methods_match_constructor():
    x = al.PointPrefix(12, ((9, 36), (2, 900), (5, 1)), tail_ones=True)
    assert x.overrides == ((2, 900), (9, 36))
    assert x.override_map == {2: 900, 9: 36}
    assert x.overrides_below(2) == () and x.overrides_below(3) == ((2, 900),)
    assert x.overrides_below(100) == x.overrides
    for length, added in ((12, ()), (12, ((4, 4), (0, 2))), (30, ((29, 4), (11, 0)))):
        y = x.with_overrides(length, added)
        want = al.PointPrefix(length, x.overrides + added, tail_ones=True)
        assert (y.length, y.tail_ones, y.overrides, y.override_map) == (
            want.length, want.tail_ones, want.overrides, want.override_map
        )
        back = y.without({p for p, _ in added})
        assert back == x and back.overrides == x.overrides and back.length == length
    for length, added in (
        (11, ()),  # shorter than the prefix
        (12, ((12, 4),)),  # past the length
        (12, ((-1, 4),)),
        (12, ((2, 4),)),  # already overridden
        (12, ((4, 1),)),  # a 1 is no override
        (12, ((4, 4), (4, 36))),  # repeated position
    ):
        with pytest.raises(ValueError):
            x.with_overrides(length, added)
    with pytest.raises(ValueError):
        al.PointPrefix(3, ((3, 4),))
    with pytest.raises(ValueError):
        al.PointPrefix(3, ((-1, 4), (1, 4)))


def test_first_disagreement_examples():
    mk = al.PointPrefix.from_entries
    assert al.first_disagreement(mk((1, 1, 1), True), mk((1, 1, 1), True)) is None
    assert al.first_disagreement(mk((1, 1, 1), True), mk((1, 1, 900), True)) == 2
    assert (
        al.first_disagreement(mk((1, 1, 1)), mk((1, 1, 1))) is Tri.UNKNOWN
    )
    assert al.first_disagreement(mk((4, 1), True), mk((1, 1))) == 0


def test_first_disagreement_matches_position_set_oracle():
    rng = random.Random(5)
    values = (4, 36, 900, pc.make_code_value_sparse(3, ((0, 2),)))

    def random_point():
        length = rng.randint(0, 8)
        positions = rng.sample(range(length), rng.randint(0, min(length, 4)))
        items = [(p, rng.choice(values)) for p in positions]
        return al.PointPrefix(length, items, rng.random() < 0.5)

    def variant(x):
        # one override of x changed, dropped or added (possibly past x's
        # length), with a new length and tail
        items = dict(x.overrides)
        p = rng.randrange(x.length + 3)
        if p in items and rng.random() < 0.5:
            del items[p]
        else:
            items[p] = rng.choice(values)
        length = max(items, default=-1) + 1 + rng.randint(0, 3)
        return al.PointPrefix(length, items.items(), rng.random() < 0.5)

    kinds = set()
    for _ in range(3000):
        x = random_point()
        copy = al.PointPrefix(x.length, x.overrides, x.tail_ones)
        y = rng.choice((x, copy, variant(x)))
        assert al.first_disagreement(x, y) == first_disagreement_by_position_set(x, y)
        # the first difference of the explicit parts, read as if both tails
        # were set, lies past the decidable limit when only a tail hides it
        both_tails = first_disagreement_by_position_set(
            al.PointPrefix(x.length, x.overrides, True),
            al.PointPrefix(y.length, y.overrides, True),
        )
        limit = min(x.decidable_limit(), y.decidable_limit())
        kinds.add(("equal",) if x.overrides == y.overrides else ("different",))
        kinds.add(("lengths differ", x.length != y.length))
        kinds.add(("tails", x.tail_ones + y.tail_ones))
        kinds.add(("past the limit", both_tails is not None and both_tails >= limit))
    assert kinds == {
        ("equal",), ("different",),
        ("lengths differ", True), ("lengths differ", False),
        ("tails", 0), ("tails", 1), ("tails", 2),
        ("past the limit", True), ("past the limit", False),
    }


def test_alphabet_members_are_canonical_representations():
    for i, a in enumerate(al.alphabets(5)):
        for m in a:
            if isinstance(m, int) and m != 1:
                assert m.bit_length() <= pc.MATERIALIZE_BITS + 8
            if isinstance(m, pc.SymbolicCode):
                est = m._bits_scaled
                assert est is None or est > pc.MATERIALIZE_BITS * pc._LOG2_SCALE


def test_product_order_is_lexicographic():
    nodes = al.enumerate_nodes(2)
    manual = sorted(nodes, key=lambda nd: (nd[0], nd[1]))
    assert nodes == manual  # level <= 1 members are plain ints


from hypothesis import given, strategies as st


@st.composite
def tail_points(draw):
    overrides = draw(
        st.dictionaries(st.integers(0, 30), st.sampled_from([4, 36, 900]), max_size=4)
    )
    length = max(overrides, default=0) + 1
    return al.PointPrefix(length, overrides.items(), tail_ones=True)


@given(tail_points(), tail_points(), tail_points())
def test_disagreement_metric_is_ultrametric(x, y, z):
    # 2^-disagreement is an ultrametric: the first x/z difference cannot come
    # before both the x/y and y/z differences
    def delta(a, b):
        fd = al.first_disagreement(a, b)
        return float("inf") if fd is None else fd

    assert delta(x, z) >= min(delta(x, y), delta(y, z))
