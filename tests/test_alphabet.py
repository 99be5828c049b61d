import itertools
import json
import math
import os
import random
import subprocess
import sys

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
    keyed_members_per_member,
    member_cmp_by_value,
    member_valid_recursive,
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
        plan = vf._SamplePlan(cons)
        for _ in range(4):
            x = plan.draw(rng.getrandbits)
            for image in (dep.image, vf._branch_maps(vf.FAULT_REWRITE_OFF_BY_ONE)[1]):
                y = image(b, cons, x)
                for q in cons.ones:
                    verdicts.add(_assert_member_valid_matches_oracle(q, y.coord(q)))
                    _assert_member_valid_matches_oracle(q - 1, y.coord(q))
    assert verdicts == {True, False}


def _off_by_one(level, v):
    """v with one entry moved off its alphabet: an int entry plus one, a
    factored entry with its last entry 2."""
    if isinstance(v, int):
        return v + 1
    return pc.make_code_value_sparse(v.length, v.items + ((v.length - 1, 2),))


def test_member_valid_matches_recursive_form_on_nested_codes():
    # factored members of A_3, level-4 members whose level-3 entry is one of
    # them, and codes of levels 5 and 6 nesting those one and two deeper
    a = al.alphabets(4)
    rng = random.Random(7)
    level3 = rng.sample([m for m in a[3] if isinstance(m, pc.SymbolicCode)], 5)
    level4 = [
        pc.make_code_value((rng.choice(a[0]), rng.choice(a[1]), rng.choice(a[2]), d, 1))
        for d in level3
    ]
    level5 = [pc.make_code_value_sparse(6, ((1, 36), (4, m))) for m in level4]
    level6 = [pc.make_code_value_sparse(7, ((5, m),)) for m in level5]
    cases = []
    for level, codes in ((3, level3), (4, level4), (5, level5), (6, level6)):
        for v in codes:
            assert isinstance(v, pc.SymbolicCode)
            cases += [(level, v), (level - 1, v), (level + 1, v)]
            cases.append((level, _off_by_one(level, v)))  # last entry 2
            # last entry a member of its own level's alphabet, v itself
            own = pc.make_code_value_sparse(level + 1, v.items + ((level, v),))
            cases.append((level, own))
            for k, (p, w) in enumerate(v.items):
                items = v.items[:k] + ((p, _off_by_one(p, w)),) + v.items[k + 1 :]
                cases.append((level, pc.make_code_value_sparse(level + 1, items)))
            # an item that is neither an int nor a code
            odd = v.items[:-1] + ((v.items[-1][0], 2.5),)
            cases.append((level, pc.SymbolicCode(level + 1, odd)))
    verdicts = set()
    for level, v in cases:
        want = member_valid_recursive(level, v)
        assert al.member_valid(level, v) == want, (level, v)
        assert member_valid_uncached(level, v) == want, (level, v)
        verdicts.add(want)
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


def test_int_membership_builds_no_all_ones_code_longer_than_the_int(monkeypatch):
    """An int far shorter than the all-ones code of its level is rejected by
    the size bound before that code is built (or kept)."""
    built = []
    monkeypatch.setattr(pc, "_all_ones_code", lambda length: built.append(length))
    kept = len(pc._ones_codes)
    for level, v in ((2000, 2**4097 * 3), (1500, 2**5000 - 1), (40, 2**100)):
        assert al.member_valid(level, v) is False
        assert member_valid_uncached(level, v) is False
    assert built == [] and len(pc._ones_codes) == kept


def test_point_prefix_refuses_a_repeated_position():
    for pairs in ([(1, 5), (1, 7)], [(1, 1), (1, 7)], [(0, 4), (2, 9), (0, 4)]):
        with pytest.raises(ValueError, match="twice"):
            al.PointPrefix(3, pairs, tail_ones=True)
    # one pair per position, so the sorted overrides name the point
    x = al.PointPrefix(3, [(1, 7)], tail_ones=True)
    assert x.coord(1) == 7 and x.key() == ("point", ((1, 7),))
    assert x == al.PointPrefix(9, [(4, 1), (1, 7)], tail_ones=True)
    assert x != al.PointPrefix(3, [(1, 7), (2, 4)], tail_ones=True)


def test_point_prefix_refuses_a_negative_length():
    # a negative length would build a prefix reading UNKNOWN at coordinate 0
    for length in (-1, -3):
        for tail_ones in (False, True):
            with pytest.raises(ValueError, match="length"):
                al.PointPrefix(length, (), tail_ones=tail_ones)
    assert al.PointPrefix(0).length == 0


def test_alphabets_sorted():
    for i, a in enumerate(al.alphabets(5)):
        for x, y in zip(a, a[1:]):
            assert member_cmp_by_value(i, x, y) == -1
            assert member_cmp_by_value(i, y, x) == 1


def test_member_cmp_matches_the_value_oracle():
    # the library reads positions in the sorted alphabets; the oracle
    # decides from the values alone
    levels = al.alphabets(5)
    for level, a in enumerate(levels):
        rng = random.Random(level)
        pairs = list(zip(a, a[1:])) + [tuple(rng.sample(a, 2)) for _ in range(2000)]
        for x, y in pairs:
            for p, q in ((x, y), (y, x)):
                assert al.member_cmp(level, p, q) == member_cmp_by_value(level, p, q), (
                    level, p, q,
                )
    # depth-5 nodes whose level-4 entries are factored, half of the pairs
    # equal below level 4 so that level 4 decides
    factored = [m for m in levels[4] if isinstance(m, pc.SymbolicCode)]
    rng = random.Random(5)
    decided_at_four = 0
    for k in range(2000):
        x = tuple(rng.choice(a) for a in levels[:4]) + (rng.choice(factored),)
        y = (x[:4] if k % 2 else tuple(rng.choice(a) for a in levels[:4])) + (
            rng.choice(factored),
        )
        at = next((i for i in range(5) if x[i] != y[i]), None)
        want = 0 if at is None else member_cmp_by_value(at, x[at], y[at])
        decided_at_four += at == 4
        assert al.lex_compare(x, y) == want and al.lex_compare(y, x) == -want, (x, y)
    assert decided_at_four > 900


def test_member_cmp_refuses_non_members():
    a4 = al.alphabets(5)[4]
    short = pc.make_code_value_sparse(3, ((0, 5000),))
    assert isinstance(short, pc.SymbolicCode) and not al.member_valid(4, short)
    assert not al.member_valid(4, 12345)
    for bad in (short, 12345):
        for x, y in ((a4[-1], bad), (bad, a4[-1])):
            with pytest.raises(ValueError, match="^not a member of A_4$"):
                al.member_cmp(4, x, y)
        node = (1, 1, 1, 1, a4[-1])
        with pytest.raises(ValueError, match="^not a member of A_4$"):
            al.lex_compare(node, node[:4] + (bad,))


def test_member_rank_is_the_position_in_the_sorted_alphabet():
    for level, a in enumerate(al.alphabets(5)):
        assert [al.member_rank(level, m) for m in a] == list(range(len(a)))
    for bad in (12345, [5], pc.make_code_value_sparse(3, ((0, 5000),))):
        with pytest.raises(ValueError, match="^not a member of A_4$"):
            al.member_rank(4, bad)


def test_negative_levels_are_refused_as_negative_depths():
    # level -1 would index alphabets(0), which is empty
    al.alphabets(4)
    for level in (-1, -2, -5):
        with pytest.raises(ValueError, match="^depth must be a natural$"):
            al.alphabet_at(level)
        with pytest.raises(ValueError, match="^depth must be a natural$"):
            al.member_rank(level, 1)
    assert al.alphabet_at(0) == (1, 4) and al.member_rank(0, 4) == 1


def test_member_cmp_follows_a_rebuilt_alphabet(monkeypatch):
    # positions are read again when a level's cached tuple is a new one:
    # swap two A_4 members in a fresh cache, and the order follows the swap
    a4 = al.alphabets(5)[4]
    x, y = a4[-2], a4[-1]
    assert al.member_cmp(4, x, y) == -1
    monkeypatch.setattr(al, "_alpha_cache", [])
    al._alpha_cache[4] = al.alphabets(5)[4][:-2] + (y, x)
    assert al.member_rank(4, y) == len(a4) - 2
    assert al.member_cmp(4, x, y) == 1 and al.member_cmp(4, y, x) == -1


def test_member_cmp_past_level_four_keeps_its_value_rules():
    # level 5 has no sorted alphabet: an int against a factored member is
    # ordered by code_value_cmp, and two factored members are refused
    factored = [m for m in al.alphabets(4)[3] if isinstance(m, pc.SymbolicCode)]
    x, y = (pc.make_code_value_sparse(6, ((3, m),), canonical=True) for m in factored[:2])
    assert isinstance(x, pc.SymbolicCode) and isinstance(y, pc.SymbolicCode)
    for a, b in ((x, y), (y, x)):
        with pytest.raises(
            CapacityError, match="^ordering beyond level 4 exceeds the configured caps$"
        ):
            al.member_cmp(5, a, b)
    # a factored member with int entries only, and two int members
    wide = pc.make_code_value_sparse(6, ((2, max(al.alphabets(3)[2])),), canonical=True)
    assert isinstance(wide, pc.SymbolicCode)
    ones, small = pc.make_code_value((1,) * 6), pc.make_code_value((4, 1, 1, 1, 1, 1))
    for i in (ones, small):
        for v in (x, wide):
            assert al.member_cmp(5, i, v) == pc.code_value_cmp(i, v) == -1
            assert al.member_cmp(5, v, i) == pc.code_value_cmp(v, i) == 1
    assert al.member_cmp(5, 1, x) == -1 and al.member_cmp(5, wide, 1) == 1


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
    return {m: k for k, m in keyed_members_per_member(level, lower)}


@pytest.mark.parametrize("level", [3, 4])
def test_certified_decisions_match_member_cmp(level):
    # the per-member oracle's keys: a differing (tier, rank) is the layout
    # rule alphabets() proves; an equal one leaves (S, coefficients) to
    # _certified_cmp
    keys = _keys_by_member(level)
    members = al.alphabets(level + 1)[level][1:]
    assert sorted(keys, key=members.index) == list(members)
    decided = {"tier or rank": 0, "interval": 0, None: 0}

    def check(x, y):
        kx, ky = keys[x], keys[y]
        if kx[:2] != ky[:2]:
            c = -1 if kx[:2] < ky[:2] else 1
            decided["tier or rank"] += 1
        else:
            c = al._certified_cmp(kx[2:], ky[2:])
            decided["interval" if c else None] += 1
            if c is not None:
                assert al._certified_cmp(ky[2:], kx[2:]) == -c
        if c is not None:
            assert c == member_cmp_by_value(level, x, y), (x, y)

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
    x, y = (10, (5, 7)), (16, (6, 5))
    assert al._certified_cmp(x, y) is None
    assert al._certified_cmp(x, (17, (6, 5))) == -1
    assert al._certified_cmp((17, (6, 5)), x) == 1
    assert al._certified_cmp(x, (4, (6, 5))) is None
    assert al._certified_cmp(x, (3, (6, 5))) == 1


def test_order_unchanged_when_every_interval_overlaps(monkeypatch):
    # with no interval deciding, every pair the exact sort compares falls to
    # the log ladder on the keys' coefficient differences; the pairwise
    # comparator the sort is checked against is never called
    want = alphabets_by_comparator(5)
    calls = []
    real_sign = al.scaled_log_sign

    def counted(terms):
        calls.append(1)
        return real_sign(terms)

    def refuse(level, x, y):
        raise AssertionError("the fast sort called member_cmp")

    monkeypatch.setattr(al, "FIXED_LOG_ERROR", 2**20000)
    monkeypatch.setattr(al, "scaled_log_sign", counted)
    monkeypatch.setattr(al, "member_cmp", refuse)
    monkeypatch.setattr(al, "_alpha_cache", [])
    assert al.alphabets(5) == want
    # the sort compares the members with an int level-3 entry (tier 1)
    # among themselves; it needs a comparison per adjacent pair of them
    keys = _keys_by_member(4)
    a4 = want[4][1:]
    compared = sum(keys[x][:2] == keys[y][:2] == (1, 0) for x, y in zip(a4, a4[1:]))
    assert len(calls) >= compared > 0


def test_level_keys_and_members_match_per_member_oracle(monkeypatch):
    # levels 0-4 built afresh; each level's keyed members, in product
    # order, are the oracle's members with int entries, keyed alike
    monkeypatch.setattr(al, "_alpha_cache", [])
    levels = al.alphabets(5)
    for level in range(5):
        lower = levels[:level]
        want = [
            ((k[2], k[3]), m)
            for k, m in keyed_members_per_member(level, lower)
            if k[:2] == (1, 0)
        ]
        got = al._keyed_members(level, lower)
        assert got == want, level
        assert [type(m) for _, m in got] == [type(m) for _, m in want], level
        assert len(got) == (len(levels[level]) - 1 if level < 4 else 13 * 42)


def _level_three_entry(m):
    return m.entry(3) if isinstance(m, pc.SymbolicCode) else pc.decode(m)[3]


def test_level_four_sort_gets_the_int_entries_and_lays_out_the_rest(monkeypatch):
    # the exact sort is handed the 546 members with an int level-3 entry;
    # the 1,260 with a factored one are laid out as the comparator sorts them
    handed = {}
    real = al._keyed_members

    def recorded(level, lower):
        handed[level] = real(level, lower)
        return handed[level]

    monkeypatch.setattr(al, "_keyed_members", recorded)
    monkeypatch.setattr(al, "_alpha_cache", [])
    a4 = al.alphabets(5)[4][1:]
    want = alphabets_by_comparator(5)[4][1:]
    int_entry = [m for m in want if isinstance(_level_three_entry(m), int)]
    assert len(int_entry) == 546 and len(a4) - len(int_entry) == 1260
    keyed = [m for _, m in handed[4]]
    assert len(keyed) == 546 and set(keyed) == set(int_entry)
    assert a4[:546] == want[:546] == tuple(int_entry)
    laid = al._laid_out_members(al.alphabets(4))
    assert laid == a4[546:] == want[546:]
    assert all(isinstance(m, pc.SymbolicCode) for m in laid)


def test_alphabets_refuse_level_five_before_building_it(monkeypatch):
    def no_keys(*args):
        raise AssertionError("level 5 was keyed before the depth test")

    monkeypatch.setattr(al, "_keyed_members", no_keys)
    with pytest.raises(CapacityError, match="depth 6 exceeds the cap 5"):
        al.alphabets(al.DEFAULT_DEPTH_CAP + 1)


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


_REFUSE_DEPTH_FIVE = """
import json
from hurewicz_kit import alphabet as al
from hurewicz_kit.base import CapacityError
try:
    al.require_node_count(5)
    refused = None
except CapacityError as e:
    refused = str(e)
print(json.dumps({"refused": refused, "cache": len(al._alpha_cache)}))
"""


def test_node_count_from_the_size_recurrence():
    # in a fresh interpreter depth 5 is refused before any level is built
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", _REFUSE_DEPTH_FIVE], env=env, capture_output=True,
        text=True, check=True,
    ).stdout
    got = json.loads(out)
    assert got["refused"] == "depth 5 has 3263442 nodes, over the node-count cap 100000"
    assert got["cache"] == 0
    for p in range(al.DEFAULT_DEPTH_CAP + 1):
        assert al.node_count(p) == math.prod(len(a) for a in al.alphabets(p)), p
    assert al.node_count(5) == 1806 * 1807
    # depths past the cap keep the alphabets' refusal
    for call in (al.node_count, al.require_node_count):
        with pytest.raises(CapacityError, match="^depth 6 exceeds the cap 5; node counts"):
            call(al.DEFAULT_DEPTH_CAP + 1)
        with pytest.raises(ValueError, match="depth must be a natural"):
            call(-1)


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


def test_refused_with_overrides_leaves_the_prefix_unchanged():
    x = al.PointPrefix(12, ((9, 36), (2, 900)), tail_ones=True)
    overrides, values = x.overrides, dict(x.override_map)
    # each refused pair comes after one that is accepted, so a merge that
    # wrote into the receiver's own map would have changed it
    for added, message in (
        (((4, 4), (4, 36)), "repeat a position"),
        (((4, 4), (2, 36)), "inside the prefix"),  # already overridden
        (((4, 4), (5, 1)), "inside the prefix"),  # a 1 is no override
        (((4, 4), (12, 4)), "inside the prefix"),  # outside the prefix
        (((4, 4), (-1, 4)), "inside the prefix"),
    ):
        with pytest.raises(ValueError, match=message):
            x.with_overrides(12, added)
        assert x.overrides == overrides and x.override_map == values
    # an image never shares its source's map, even with nothing added
    y = x.with_overrides(12, ())
    assert y.override_map == x.override_map and y.override_map is not x.override_map
    b = dep.BranchIndex((), (1,))
    z = al.PointPrefix(6, ((2, 900), (5, 36)), tail_ones=True)
    image = dep.apply(b, z)
    assert image.override_map is not z.override_map
    assert z.override_map == {2: 900, 5: 36}
    assert image.override_map == dict(image.overrides) and set(image.override_map) == {2, 4, 5}


def test_first_disagreement_examples():
    mk = al.PointPrefix.from_entries
    assert al.first_disagreement(mk((1, 1, 1), True), mk((1, 1, 1), True)) is None
    assert al.first_disagreement(mk((1, 1, 1), True), mk((1, 1, 900), True)) == 2
    assert (
        al.first_disagreement(mk((1, 1, 1)), mk((1, 1, 1))) is Tri.UNKNOWN
    )
    assert al.first_disagreement(mk((4, 1), True), mk((1, 1))) == 0


def test_first_disagreement_edge_cases_match_position_set_oracle():
    mk = al.PointPrefix
    code = pc.make_code_value_sparse(3, ((0, 2),))
    longer = mk(9, ((1, 4), (7, 900)), True)
    cases = [
        # a first difference exactly at a tail-less side's length is unread
        (mk(3, ((1, 4),)), mk(5, ((1, 4), (3, 36)), True), Tri.UNKNOWN),
        (mk(5, ((1, 4), (3, 36)), True), mk(3, ((1, 4),)), Tri.UNKNOWN),
        (mk(0, ()), mk(3, ((0, 4),), True), Tri.UNKNOWN),
        # one below that length is read
        (mk(4, ((1, 4),)), mk(5, ((1, 4), (3, 36)), True), 3),
        (mk(0, (), True), mk(3, ((2, 900),)), 2),
        # the tuples differ only past the shorter tuple's end
        (mk(9, ((1, 4),), True), longer, 7),
        (longer, mk(9, ((1, 4),), True), 7),
        (mk(3, ((1, 4),), True), longer, 7),
        (mk(7, ((1, 4),)), longer, Tri.UNKNOWN),  # at the shorter side's length
        (mk(8, ((1, 4),)), longer, 7),
        # the first unequal pairs: one position with two values (one of
        # them factored), or two positions, the smaller deciding
        (mk(4, ((2, code),), True), mk(4, ((2, 900),), True), 2),
        (mk(9, ((1, 4), (6, 36)), True), mk(9, ((1, 4), (3, 36)), True), 3),
        (mk(9, ((1, 4), (3, 36)), True), mk(5, ((1, 4), (4, 36))), 3),
        # equal overrides: equal with both tails, else undecided
        (mk(4, ((1, 4),), True), mk(8, ((1, 4),), True), None),
        (mk(4, ((1, 4),)), mk(4, ((1, 4),), True), Tri.UNKNOWN),
        (mk(0, ()), mk(0, ()), Tri.UNKNOWN),
    ]
    for x, y, want in cases:
        got = al.first_disagreement(x, y)
        assert got == want and first_disagreement_by_position_set(x, y) == want, (x, y)


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
        limit = min(float("inf") if z.tail_ones else z.length for z in (x, y))
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
