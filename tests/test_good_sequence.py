import random

import pytest

from hurewicz_kit import good_sequence as gs
from hurewicz_kit import verifier as vf
from hurewicz_kit.base import CapacityError, Tri
from hurewicz_kit.prime_coding import encode, nth_prime

from oracles import (
    agreement_below_bound_per_k,
    disagreement_witness_uncached,
    j_code,
    per_k_index_map_checks,
    prime,
)


def naive_sigma(s, k):
    """Straight re-reading of the case formula, structured independently."""
    hits = [
        j
        for j in range(1, len(s) + 1)
        if (k + 1) % (j_code(s[:j]) // prime(j - 1)) == 0
    ]
    if not hits:
        return k
    i = max(hits)
    d = j_code(s[:i]) // prime(i - 1)
    q = (k + 1) // d
    return j_code(s[:i]) * q - d - 1


def test_sigma_examples():
    assert all(gs.sigma((), k) == k for k in range(50))
    assert gs.sigma((1,), 3) == 5
    assert gs.sigma((1,), 2) == 2


def test_sigma_matches_naive():
    for s in [(1,), (2,), (1, 1), (1, 2), (3, 1), (1, 2, 3), (4, 4, 4)]:
        sig = gs.IndexMap(s)
        for k in range(3000):
            assert sig(k) == naive_sigma(s, k)


def test_prefix_matches_naive():
    # n = 0, 1, just below the first divisor, at it, and lengths no level
    # divisor divides (997 and 2999 are primes above 5); then segments
    # starting at 1, at the first divisor, past the end and mid-range
    for s in vf._index_family(3, 4):
        sig = gs.IndexMap(s)
        first = gs._divisors(s)[0] if s else 1
        for n in sorted({0, 1, first - 1, first, 997, 2999}):
            assert sig.prefix(n) == [naive_sigma(s, k) for k in range(n)], (s, n)
        for start, n in [(1, 997), (first, 2999), (998, 997), (1000, 2999)]:
            want = [naive_sigma(s, k) for k in range(start, n)]
            assert sig.prefix(n, start) == want, (s, start, n)
    for bounds in [(-1,), (5, -1)]:
        with pytest.raises(ValueError):
            gs.IndexMap((1,)).prefix(*bounds)


def _as_dicts(checks):
    return [c.as_dict() for c in checks]


def _every_divisor_one_too_large(divs):
    return tuple(d + 1 for d in divs)


def _first_divisor_one_too_large_past_length_1(divs):
    return (divs[0] + 1,) + divs[1:] if len(divs) > 1 else divs


def test_index_map_checks_match_per_k_sweeps(monkeypatch):
    assert _as_dicts(vf._index_map_checks(3, 4, 3000)) == _as_dicts(
        per_k_index_map_checks(3, 4, 3000)
    )
    # maps built with every level divisor one too large collide and move
    # indices whose successor no true divisor divides, but agree with their
    # parents; maps whose first divisor alone is one too large past length 1
    # also leave their parents below the agreement bound.  Under each fault
    # both sweeps must report the same first collision, moved index and
    # disagreement, and exactly the checks that fault breaks must fail, each
    # with counterexamples
    true_init = gs.IndexMap.__init__
    maps_only = {"index-map-injective", "index-map-fixes-coprime"}
    faults = [
        (_every_divisor_one_too_large, maps_only),
        (_first_divisor_one_too_large_past_length_1, maps_only | {"extension-agreement-horizon"}),
    ]
    for spoil, broken in faults:

        def faulty_init(self, s):
            true_init(self, s)
            self._divs = spoil(self._divs)

        # the suite reads its maps from the per-index cache: empty it on both
        # sides so the faulty maps are built here and not kept afterwards
        gs._index_map.cache_clear()
        monkeypatch.setattr(gs.IndexMap, "__init__", faulty_init)
        try:
            faulty = _as_dicts(vf._index_map_checks(2, 3, 500))
            assert faulty == _as_dicts(per_k_index_map_checks(2, 3, 500)), spoil
        finally:
            monkeypatch.undo()
            gs._index_map.cache_clear()
        failing = {c["name"] for c in faulty if c["failed"] and c["counterexamples"]}
        assert failing == broken, spoil


def test_index_map_checks_match_per_k_sweeps_at_the_edges():
    # no children (max_entry 0), one child per parent, the length-1 maps
    # sieved only for the agreement check (max_s_len 0), and empty or
    # one-value horizons
    for max_s_len in (0, 1, 2):
        for max_entry in (0, 1, 2):
            for horizon in (0, 1, 2, 40):
                params = (max_s_len, max_entry, horizon)
                assert _as_dicts(vf._index_map_checks(*params)) == _as_dicts(
                    per_k_index_map_checks(*params)
                ), params


def test_agreement_check_reads_the_parent_to_the_largest_limit(monkeypatch):
    # bounds that fall with k: the first child's limit is the largest, so a
    # parent sieved only to the last child's limit would be too short to
    # compare (or to scan for the first disagreement); the suite must match
    # the per-k oracle, reporting each fall and each disagreement
    true_bound = gs.convergence_bound
    monkeypatch.setattr(gs, "convergence_bound", lambda s, k: true_bound(s, 4 - k))
    agree = vf._index_map_checks(2, 3, 3000)[2].as_dict()
    assert agree == per_k_index_map_checks(2, 3, 3000)[2].as_dict()
    assert agree["failed"] and any("previous" in c for c in agree["counterexamples"])
    assert any("first_disagreement" in c for c in agree["counterexamples"])


def test_agreement_check_finds_a_disagreement_below_a_moved_bound(monkeypatch):
    # bounds moved past the first true disagreement: the suite and the per-k
    # scan both find it, 11 for the map at (1, 1) against (1)
    true_bound = gs.convergence_bound
    monkeypatch.setattr(gs, "convergence_bound", lambda s, k: 3 * true_bound(s, k) + 2)
    checks = vf._index_map_checks(2, 4, 3000)
    assert _as_dicts(checks) == _as_dicts(per_k_index_map_checks(2, 4, 3000))
    agree = checks[2].as_dict()
    assert {"s": "(1)", "k": 1, "first_disagreement": 11} in agree["counterexamples"]


def test_good_suite_sieves_each_map_once(monkeypatch):
    # the index-maps benchmark call: the root and each of its 84 children at
    # the horizon, and each of the 21 parents once to its largest limit
    calls = []
    true_prefix = gs.IndexMap.prefix

    def counted(self, n, start=0):
        calls.append((self.s, n, start))
        return true_prefix(self, n, start)

    monkeypatch.setattr(gs.IndexMap, "prefix", counted)
    report = vf.verify_good_sequence(
        max_s_len=3, max_entry=4, horizon=3000, pair_max_len=2, pair_max_entry=3,
        max_u_len=7,
    )
    assert report.failed == 0
    assert len(calls) == 106
    assert len({(s, n) for s, n, _ in calls if n == 3000}) == 85


def test_prefix_identity_table(monkeypatch):
    # a fresh table, grown and read in increasing and then decreasing
    # (n, start): each prefix equals the naive map, and the table is never
    # longer than the largest n asked
    table = []
    monkeypatch.setattr(gs, "_IDENTITY", table)
    sig = gs.IndexMap((1, 2))
    asked = [(10, 3), (50, 1), (300, 7), (2999, 100)]
    largest = 0
    for n, start in asked + asked[::-1]:
        gs._extend_identity(n)
        out = sig.prefix(n, start)
        assert out == [naive_sigma((1, 2), k) for k in range(start, n)], (n, start)
        largest = max(largest, n)
        assert len(table) == largest
        # a caller's list is its own: changing it changes no later prefix
        out[:] = [-1] * len(out)
    assert table == list(range(2999))
    assert sig.prefix(300, 7) == [naive_sigma((1, 2), k) for k in range(7, 300)]
    assert gs.IndexMap(()).prefix(20, 5) == list(range(5, 20))
    assert len(table) == 2999


def test_prefix_past_the_table_leaves_it_as_it_was(monkeypatch):
    # only the good suite grows the table, to its horizon; a prefix or an
    # agreement window past the table, here a narrow far one, starts from
    # its own range
    table = list(range(100))
    monkeypatch.setattr(gs, "_IDENTITY", table)
    sig = gs.IndexMap((2, 1))
    assert sig.prefix(100, 90) == [naive_sigma((2, 1), k) for k in range(90, 100)]
    assert sig.prefix(150, 120) == [naive_sigma((2, 1), k) for k in range(120, 150)]
    far = 10**6
    assert sig.prefix(far, far - 2) == [naive_sigma((2, 1), k) for k in (far - 2, far - 1)]
    assert gs.agreement_below_bound((1,), 3, 3000) == agreement_below_bound_per_k((1,), 3, 3000)
    assert table == list(range(100))
    vf._index_map_checks(1, 2, 500)
    assert table == list(range(500))
    vf._index_map_checks(1, 2, 300)
    assert table == list(range(500))


def test_witness_matches_uncached_search():
    # every word up to length 7, and a seeded sample of words of the
    # acceptance-gate lengths 8 to 12 for each pair; each word is passed both
    # as bytes and as a BitPrefix
    rng = random.Random(12)
    family = vf._index_family(2, 3)
    short = list(vf._all_words(7))
    for s in family:
        for t in family:
            if s == t:
                continue
            long = [
                bytes(rng.getrandbits(1) for _ in range(n))
                for n in range(8, 13)
                for _ in range(6)
            ]
            for u in short + long:
                want = disagreement_witness_uncached(s, t, u)
                assert gs.disagreement_witness(s, t, u) == want, (s, t, u)
                assert gs.disagreement_witness(s, t, gs.BitPrefix(u)) == want, (s, t, u)


def test_agreement_below_bound_matches_per_k_scan(monkeypatch):
    def compare():
        for s in vf._index_family(2, 4):
            for k in range(1, 5):
                for horizon in (0, 1, 3000):
                    assert gs.agreement_below_bound(s, k, horizon) == (
                        agreement_below_bound_per_k(s, k, horizon)
                    ), (s, k, horizon)

    compare()
    # small windows, and bounds moved past the first true disagreement so
    # that both scans find it, in a later window than the first
    monkeypatch.setattr(gs, "_WINDOW", 7)
    compare()
    true_bound = gs.convergence_bound
    monkeypatch.setattr(gs, "convergence_bound", lambda s, k: 3 * true_bound(s, k) + 2)
    assert gs.agreement_below_bound((1,), 1, 3000) == 11
    compare()


def test_agreement_below_bound_refuses_a_negative_horizon():
    # a negative horizon would claim agreement on an empty range
    for horizon in (-1, -5):
        with pytest.raises(ValueError, match="horizon"):
            gs.agreement_below_bound((1,), 1, horizon)
    assert gs.agreement_below_bound((1,), 1, 0) is None


def test_sigma_rejects_zero_entries():
    with pytest.raises(ValueError):
        gs.sigma((0,), 1)
    with pytest.raises(ValueError):
        gs.IndexMap((1, 0))


def test_index_check_rejects_at_every_entry_point():
    good = (1, 2)
    listed = [1, 2]
    assert gs._check_index(listed) == good
    listed[1] = 0
    bad = [(1.0, 2), ([1],), (0,), (2, -1), ("1",), listed]
    x, k = gs.disagreement_witness((1,), (2,), b"")
    entry_points = [
        lambda s: gs.sigma(s, 1),
        lambda s: gs.IndexMap(s),
        lambda s: gs.h_eval(s, x, k),
        lambda s: gs.convergence_bound(s, 1),
        lambda s: gs.disagreement_witness(s, good, b""),
        lambda s: gs.disagreement_witness(good, s, b""),
        # refused at the call, before a word is read
        lambda s: gs.witness_bits(s, good, ()),
        lambda s: gs.witness_bits(good, s, ()),
        lambda s: gs.agreement_below_bound(s, 1, 10),
    ]
    for s in bad:
        for call in entry_points:
            for _ in range(2):
                with pytest.raises(ValueError):
                    call(s)


def _built(head, end, one, k):
    """A sparse witness as (bytes, k): head, then 0s up to end with one 1;
    bytes() of a negative count raises, so a 1 inside the head or past the
    end is refused."""
    return head + bytes(one - len(head)) + b"\x01" + bytes(end - one - 1), k


def test_witness_batches_match_single_words():
    # lengths go down and repeat, with a single word between two of one
    # length, so a tail kept across a change of length would be caught
    words = sorted(vf._all_words(5), key=len, reverse=True)
    words += [b"\x01\x00", b"", b"\x01", bytes(4), b"\x00\x01", gs.BitPrefix(b"\x01\x01")]
    family = vf._index_family(2, 2)
    for s in family:
        for t in family:
            if s == t:
                continue
            single = [gs.disagreement_witness(s, t, u) for u in words]
            uncached = [disagreement_witness_uncached(s, t, u) for u in words]
            assert single == uncached, (s, t)
            # the sparse sweep the good suite reads, over the same words as
            # bytes, each witness built here into its bytes
            raw = [getattr(u, "bits", u) for u in words]
            built = [_built(*w) for w in gs.witness_bits(s, t, raw)]
            assert built == [(x.bits, k) for x, k in single], (s, t)
            assert built == [(x.bits, k) for x, k in uncached], (s, t)


def test_sparse_sweep_matches_uncached_on_a_length_3_family():
    # every word up to length 5, shuffled so that lengths go up and down and
    # the candidate search both resumes and restarts, for every ordered pair
    # of the indices up to length 3 with entries 1 and 2
    words = list(vf._all_words(5))
    random.Random(3).shuffle(words)
    family = vf._index_family(3, 2)
    for s in family:
        for t in family:
            if s == t:
                continue
            built = [_built(*w) for w in gs.witness_bits(s, t, words)]
            want = [disagreement_witness_uncached(s, t, u) for u in words]
            assert built == [(x.bits, k) for x, k in want], (s, t)


def test_index_map_moving_one_coprime_index_fails_the_fixes_check(monkeypatch):
    # (1, 2) has level divisors 2 and 36, so 100 is coprime: 101 is odd.  The
    # map is spoiled there alone, through both of its readers; the suite and
    # the per-k oracle must each report that one moved index
    target, moved = (1, 2), 100
    assert all((moved + 1) % d for d in gs._divisors(target))
    true_call, true_prefix = gs.IndexMap.__call__, gs.IndexMap.prefix

    def spoiled_call(self, k):
        return -1 if (self.s, k) == (target, moved) else true_call(self, k)

    def spoiled_prefix(self, n, start=0):
        out = true_prefix(self, n, start)
        if self.s == target and start <= moved < n:
            out[moved - start] = -1
        return out

    monkeypatch.setattr(gs.IndexMap, "__call__", spoiled_call)
    monkeypatch.setattr(gs.IndexMap, "prefix", spoiled_prefix)
    report = vf.verify_good_sequence(
        max_s_len=2, max_entry=2, horizon=300, pair_max_len=0, max_u_len=0
    )
    fixes = report.checks[1].as_dict()
    assert fixes["name"] == "index-map-fixes-coprime"
    assert fixes["failed"] == 1 and fixes["passed"] == 6
    assert [(c["s"], c["moved"]) for c in fixes["counterexamples"]] == [("(1,2)", moved)]
    oracle = per_k_index_map_checks(2, 2, 300)[1].as_dict()
    assert oracle == fixes


def test_witness_refuses_word_with_tail():
    # 1000... is not extended by 100100, which has a 1 at bit 3: the tail is
    # refused, not dropped
    u = gs.BitPrefix(b"\x01", tail=b"\x00")
    with pytest.raises(ValueError, match="finite word"):
        gs.disagreement_witness((1,), (2,), u)


def test_h_eval_examples():
    x = gs.BitPrefix(bytes([0, 1, 1, 0, 1, 0, 1, 0, 0, 1]))
    for k in range(10):
        assert gs.h_eval((), x, k) == x.bit(k)
    assert gs.h_eval((1,), x, 1) == x.bit(1)  # source 4*1-2-1 = 1
    assert gs.h_eval((1,), x, 5) == x.bit(9)  # source 12-2-1 = 9
    assert gs.h_eval((1,), x, 11) is Tri.UNKNOWN


def test_bit_prefix_tail():
    x = gs.BitPrefix(bytes([1, 0]), tail=bytes([0, 1]))
    assert [x.bit(i) for i in range(8)] == [1, 0, 0, 1, 0, 1, 0, 1]
    assert gs.BitPrefix(bytes([1, 0])).bit(2) is Tri.UNKNOWN
    with pytest.raises(IndexError):
        x.bit(-1)


def test_bit_prefix_refuses_bytes_other_than_bits():
    # in the bits and in the tail, built directly or from a witness's word
    for bits, tail in [(b"\x02", None), (b"01", None), (b"\x01", b"\x00\x02"), (b"", b"\xff")]:
        with pytest.raises(ValueError, match="0 or 1"):
            gs.BitPrefix(bits, tail)
    with pytest.raises(ValueError, match="0 or 1"):
        gs.disagreement_witness((1,), (2,), b"\x02")
    with pytest.raises(ValueError, match="0 or 1"):
        gs.disagreement_witness((1,), (2,), bytearray(b"\x00\x07"))
    assert gs.BitPrefix(bytearray(b"\x00\x01"), b"").bit(1) == 1


def test_bit_prefix_value_semantics():
    x = gs.BitPrefix(bytes([1, 0]), tail=bytes([0, 1]))
    assert x == gs.BitPrefix(bytes([1, 0]), bytes([0, 1]))
    assert hash(x) == hash(gs.BitPrefix(bytes([1, 0]), bytes([0, 1])))
    assert x != gs.BitPrefix(bytes([1, 0]))
    assert x != (bytes([1, 0]), bytes([0, 1]))
    assert len(x) == 2
    assert repr(x) == "BitPrefix(10+01^w)"
    assert repr(gs.BitPrefix(bytes(65))) == "BitPrefix(" + "0" * 64 + "...(65 bits))"
    with pytest.raises(AttributeError):
        x.extra = 1


def test_convergence_bound_examples():
    assert gs.convergence_bound((1,), 1) == 11  # 4*9/3 - 1
    assert gs.convergence_bound((1,), 2) == 35  # 4*27/3 - 1
    bounds = [gs.convergence_bound((1,), k) for k in range(1, 6)]
    assert all(a < b for a, b in zip(bounds, bounds[1:]))


def test_agreement_below_bound():
    for s in [(1,), (2,), (1, 1), (2, 3)]:
        for k in range(1, 4):
            assert gs.agreement_below_bound(s, k, 3000) is None


def test_sigma_injective_small():
    for s in [(1,), (4,), (1, 2), (3, 3), (1, 1, 1), (2, 1, 4)]:
        sig = gs.IndexMap(s)
        values = [sig(k) for k in range(10_000)]
        assert len(set(values)) == len(values)


def test_divisors_match_encoding_each_prefix():
    rng = random.Random(7)
    indices = [(), (1,), (5,), (1000,)]
    indices += [tuple(rng.randint(1, 60) for _ in range(rng.randint(2, 12))) for _ in range(40)]
    for s in indices:
        want = tuple(encode(s[:j]) // nth_prime(j - 1) for j in range(1, len(s) + 1))
        assert gs._divisors(s) == want, s


def test_sigma_fixes_coprime_indices():
    for s in [(1,), (2, 1), (1, 2, 3)]:
        sig = gs.IndexMap(s)
        divisors = gs._divisors(s)
        for k in range(2000):
            if all((k + 1) % d for d in divisors):
                assert sig(k) == k


def test_witness_first_divergence_case():
    x, k = gs.disagreement_witness((1,), (2,), gs.BitPrefix(b""))
    a, b = gs.h_eval((1,), x, k), gs.h_eval((2,), x, k)
    assert a is not Tri.UNKNOWN and b is not Tri.UNKNOWN and a != b


def test_witness_strict_prefix_case():
    u = gs.BitPrefix(bytes([0, 1, 0, 1]))
    x, k = gs.disagreement_witness((1,), (1, 1), u)
    assert x.bits[:4] == bytes([0, 1, 0, 1])
    assert gs.h_eval((1,), x, k) != gs.h_eval((1, 1), x, k)


def test_witness_empty_index():
    x, k = gs.disagreement_witness((), (1,), b"")
    assert gs.h_eval((), x, k) != gs.h_eval((1,), x, k)


def test_witness_symmetric_and_long_context():
    u = bytes([1] * 12)
    for s, t in [((2,), (1,)), ((3, 1), (1,)), ((2, 2), (2, 1))]:
        x, k = gs.disagreement_witness(s, t, u)
        assert x.bits[:12] == u
        assert gs.h_eval(s, x, k) != gs.h_eval(t, x, k)


def test_witness_rejects_equal_indices():
    with pytest.raises(ValueError):
        gs.disagreement_witness((1,), (1,), b"")
    with pytest.raises(ValueError):
        gs.witness_bits((1, 2), [1, 2], ())


def test_witness_tail_cap_is_inclusive_and_checked_before_building(monkeypatch):
    u = bytes([1, 0, 1])
    witness = gs.disagreement_witness((2, 2), (2, 1), u)
    tail = len(witness[0]) - len(u)
    for cap, refused in ((tail, False), (tail - 1, True)):
        monkeypatch.setattr(gs, "WITNESS_TAIL_CAP", cap)
        if refused:
            with pytest.raises(CapacityError, match=f"tail of {tail} bytes"):
                gs.disagreement_witness((2, 2), (2, 1), u)
        else:
            assert gs.disagreement_witness((2, 2), (2, 1), u) == witness
    monkeypatch.undo()
    # the pair's tail would be 2^31 - 2 bytes
    with pytest.raises(CapacityError, match="tail of 2147483646 bytes"):
        gs.disagreement_witness((1,), (30,), b"")
