import random

import pytest

from hurewicz_kit import good_sequence as gs
from hurewicz_kit import verifier as vf
from hurewicz_kit.base import Tri

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


def test_index_map_checks_match_per_k_sweeps(monkeypatch):
    def as_dicts(checks):
        return [c.as_dict() for c in checks]

    assert as_dicts(vf._index_map_checks(3, 4, 3000)) == as_dicts(
        per_k_index_map_checks(3, 4, 3000)
    )
    # maps built with every level divisor one too large collide and move
    # indices whose successor no true divisor divides; both sweeps must
    # report the same first collision and the same moved index
    true_init = gs.IndexMap.__init__

    def faulty_init(self, s):
        true_init(self, s)
        self._divs = tuple(d + 1 for d in self._divs)

    # the suite reads its maps from the per-index cache: empty it on both
    # sides so the faulty maps are built here and not kept afterwards
    gs._index_map.cache_clear()
    monkeypatch.setattr(gs.IndexMap, "__init__", faulty_init)
    try:
        faulty = as_dicts(vf._index_map_checks(2, 3, 500))
        assert faulty == as_dicts(per_k_index_map_checks(2, 3, 500))
    finally:
        monkeypatch.undo()
        gs._index_map.cache_clear()
    assert all(c["failed"] and c["counterexamples"] for c in faulty)


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
                for horizon in (-1, 0, 1, 3000):
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


def test_sigma_rejects_zero_entries():
    with pytest.raises(ValueError):
        gs.sigma((0,), 1)
    with pytest.raises(ValueError):
        gs.IndexMap((1, 0))


def test_index_check_memo_rejects_what_the_check_rejects():
    good = (1, 2)
    assert gs._check_index(good) is good
    gs.disagreement_witness(good, (1,), b"")  # good is now remembered
    listed = [1, 2]
    assert gs._check_index(listed) == good
    listed[1] = 0  # the memo holds the tuple made from the list, not the list
    bad = [(1.0, 2), ([1],), (0,), (2, -1), ("1",), listed]
    x, k = gs.disagreement_witness((1,), (2,), b"")
    entry_points = [
        lambda s: gs.sigma(s, 1),
        lambda s: gs.IndexMap(s),
        lambda s: gs.h_eval(s, x, k),
        lambda s: gs.convergence_bound(s, 1),
        lambda s: gs.disagreement_witness(s, good, b""),
        lambda s: gs.disagreement_witness(good, s, b""),
        lambda s: gs.agreement_below_bound(s, 1, 10),
    ]
    for s in bad:
        for call in entry_points:
            for _ in range(2):
                with pytest.raises(ValueError):
                    call(s)
    for n in range(3 * gs._CHECKED_MAX):
        gs._check_index((n + 1,))
    assert len(gs._checked) <= gs._CHECKED_MAX


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
