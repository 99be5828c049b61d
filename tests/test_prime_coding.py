import copy
import itertools
import json
import math
import operator
import os
import pickle
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, strategies as st

from hurewicz_kit import prime_coding as pc
from hurewicz_kit.base import CapacityError

from oracles import (
    all_seqs,
    code_value_per_call,
    decode_trial_division,
    j_code,
    prime,
    sieve_primes,
)


def test_first_primes():
    assert pc.nth_prime(0) == 2
    assert pc.nth_prime(2) == 5
    assert pc.nth_prime(5) == 13


def test_primes_against_sieve():
    expected = sieve_primes(10_000)
    assert [pc.nth_prime(i) for i in range(len(expected))] == expected


_COUNT_SIEVES = """
import json
from hurewicz_kit import prime_coding as pc

sieves = []
real_sieve = pc._sieve
pc._sieve = lambda bound: sieves.append(bound) or real_sieve(bound)
for n in range(1, 300):
    pc.nth_prime(n)
small = len(sieves)
for n in range(300, 10_236, 97):
    pc.nth_prime(n)
pc.encode((1,) * 10_236)
print(json.dumps({"small": small, "sieves": sieves, "primes": pc._primes}))
"""


def _fresh_run(script: str) -> dict:
    """The JSON a script prints in a fresh interpreter, whose tables start
    at their seed entries."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, check=True,
    ).stdout
    return json.loads(out)


def test_prime_table_grows_geometrically():
    got = _fresh_run(_COUNT_SIEVES)
    assert got["small"] <= 7  # log2(300 / 6) + 1
    sieves, primes = got["sieves"], got["primes"]
    # a run of growing requests, ending in a code of 10,236 primes: at most
    # one sieve per doubling of the table from 6 primes, with slack
    assert len(primes) >= 10_236 and len(sieves) <= 16
    assert all(b2 >= 2 * b1 for b1, b2 in zip(sieves, sieves[1:]))
    assert primes == sieve_primes(primes[-1])


def test_encode_examples():
    assert pc.encode(()) == 0
    assert pc.encode((1,)) == 4
    assert pc.encode((4, 1)) == 288
    assert pc.encode((4, 1)) == j_code((4, 1))


def test_decode_examples():
    assert pc.decode(0) == ()
    assert pc.decode(36) == (1, 1)
    assert pc.decode(10) is None  # 2*5 skips 3
    assert pc.decode(15) is None  # does not start at 2
    assert pc.decode(7) is None


def test_encode_matches_direct_product():
    for s in all_seqs(4, 5):
        assert pc.encode(s) == j_code(s)


def test_injective_and_round_trip_small():
    seen = {}
    for s in all_seqs(3, 6):
        c = pc.encode(s)
        assert c not in seen
        seen[c] = s
        assert pc.decode(c) == s


def test_extension_monotone():
    for s in all_seqs(4, 8):
        if not s:
            continue
        for n in range(8):
            assert pc.encode(s + (n,)) > pc.encode(s)


@given(st.lists(st.integers(min_value=0, max_value=60), max_size=6))
def test_round_trip_random(entries):
    s = tuple(entries)
    assert pc.decode(pc.encode(s)) == s


def test_is_code():
    codes = {j_code(s) for s in all_seqs(4, 9)}  # length-5 codes start at 2310
    for n in range(600):
        assert pc.is_code(n) == (n in codes)


def test_make_code_value_canonical():
    small = pc.make_code_value((1, 1, 1))
    assert small == 900 and isinstance(small, int)
    # an entry 0 divides the all-ones code exactly
    zero = pc.make_code_value((1, 0, 1))
    assert zero == 300 and isinstance(zero, int)
    # an entry of ~2^470 pushes the value far past the materialization cutoff
    big_entry = 2**5 * 3**289 * 5**2
    big = pc.make_code_value((1, 1, big_entry, 1))
    assert isinstance(big, pc.SymbolicCode)
    assert pc.decode(big) == (1, 1, big_entry, 1)
    assert big == pc.make_code_value_sparse(4, ((2, big_entry),))
    assert hash(big) == hash(pc.make_code_value_sparse(4, ((2, big_entry),)))
    assert big != pc.make_code_value_sparse(4, ((2, big_entry - 1),))


def test_symbolic_entry_access():
    v = pc.make_code_value_sparse(5, ((1, 4), (3, 2**5 * 3**289 * 5**2)))
    assert isinstance(v, pc.SymbolicCode)
    assert v.entry(0) == 1 and v.entry(1) == 4 and v.entry(4) == 1
    assert len(v.seq()) == 5


def test_make_code_value_cutoff():
    # explicit: (e,) codes to 2^(e+1); the cutoff sits at MATERIALIZE_BITS bits
    low = pc.make_code_value((4000,))
    high = pc.make_code_value((5000,))
    assert isinstance(low, int) and low == 2**4001
    assert isinstance(high, pc.SymbolicCode)


def test_scaled_log_sign():
    assert pc.scaled_log_sign([(2, 2), (-1, 3)]) == 1  # ln(4/3) > 0
    assert pc.scaled_log_sign([(-3, 2), (1, 3)]) == -1  # ln(3/8) < 0
    assert pc.scaled_log_sign([(5, 2), (-5, 2)]) == 0
    assert pc.scaled_log_sign([]) == 0


_FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


@given(
    st.lists(st.tuples(st.integers(-60, 60), st.sampled_from(_FIRST_PRIMES)), max_size=12)
)
def test_scaled_log_sign_matches_exact_integer_comparison(terms):
    # sign of sum(c ln p) is the order of prod(p**c) over c > 0 against
    # prod(p**-c) over c < 0, after repeated primes aggregate
    agg = {}
    for c, p in terms:
        agg[p] = agg.get(p, 0) + c
    pos = math.prod(p**c for p, c in agg.items() if c > 0)
    neg = math.prod(p**-c for p, c in agg.items() if c < 0)
    assert pc.scaled_log_sign(terms) == (pos > neg) - (pos < neg)


def _log2_3_convergents(lo_bits, hi_bits):
    """Convergents p/q of log2(3) with lo_bits <= bit length of q < hi_bits,
    from a 600-digit mpmath value."""
    from mpmath import floor, log, mp

    with mp.workdps(600):
        x = log(3) / log(2)
        h0, h1, k0, k1 = 0, 1, 1, 0
        out = []
        while k1.bit_length() < hi_bits:
            a = int(floor(x))
            h0, h1 = h1, a * h1 + h0
            k0, k1 = k1, a * k1 + k0
            if lo_bits <= k1.bit_length() < hi_bits:
                out.append((h1, k1))
            x = 1 / (x - a)
    return out


def test_scaled_log_sign_decides_convergent_near_ties_on_a_higher_rung():
    from mpmath import log, mp, sign

    cases = _log2_3_convergents(65, 300)
    assert len(cases) > 20
    for p, q in cases:
        # |q ln 3 - p ln 2| < 1/q, so at 128 bits the sum is inside the error
        # interval and only a higher rung can decide
        total = q * pc.fixed_log(3) - p * pc.fixed_log(2)
        assert abs(total) <= pc.FIXED_LOG_ERROR * (p + q), (p, q)
        with mp.workdps(600):
            want = int(sign(q * log(3) - p * log(2)))
        assert want != 0
        assert pc.scaled_log_sign([(q, 3), (-p, 2)]) == want, (p, q)
        assert pc.scaled_log_sign([(-q, 3), (p, 2)]) == -want, (p, q)


def test_fixed_log_is_within_its_error_at_every_rung_tried():
    from mpmath import floor, ln, mp

    # small primes, a power of two, and the ends of the domain, with the
    # atanh argument at both signs and near its bound 3 - 2 sqrt(2); the
    # 144-bit ones, whose series sums hold the largest integers, up to 8192
    # bits
    small = _FIRST_PRIMES + (4, pc.nth_prime(999))
    edges = (2**143 + 1, int(2**143 * 1.4142), int(2**143 * 1.4143), 2**144 - 1)
    for bits in (128, 512, 2048, 8192, 32768):
        with mp.workprec(bits + 200):
            for p in small + (edges if bits <= 8192 else ()):
                exact = int(floor(ln(p) * 2**bits))
                assert abs(pc.fixed_log(p, bits) - exact) < pc.FIXED_LOG_ERROR, (p, bits)
    with pytest.raises(ValueError):
        pc.fixed_log(1)
    with pytest.raises(ValueError):
        pc.fixed_log(2**144 + 1)


def test_fixed_log_climbs_the_ladder_in_budget():
    # every rung scaled_log_sign may climb to below the top, each from cold
    # (0.5 s in all on a 2-CPU machine)
    pc.fixed_log.cache_clear()
    pc._ln2_fixed.cache_clear()
    start = time.perf_counter()
    bits = pc.FIXED_LOG_BITS
    while bits <= 1 << 17:
        pc.fixed_log(3, bits)
        bits *= 4
    assert time.perf_counter() - start < 10


def test_code_value_cmp_matches_int_order():
    vals = sorted(j_code(s) for s in all_seqs(3, 5) if s)
    for a, b in zip(vals, vals[1:]):
        assert pc.code_value_cmp(a, b) == -1
        assert pc.code_value_cmp(b, a) == 1
        assert pc.code_value_cmp(a, a) == 0


def test_code_value_cmp_symbolic():
    e1 = 2**2 * 3**37 * 5**2
    e2 = 2**5 * 3**37 * 5**2
    v1 = pc.make_code_value((1, 1, e1, 1))
    v2 = pc.make_code_value((1, 1, e2, 1))
    assert isinstance(v1, pc.SymbolicCode) and isinstance(v2, pc.SymbolicCode)
    # larger exponent on the same prime: strictly larger value
    assert pc.code_value_cmp(v1, v2) == -1
    assert pc.code_value_cmp(v2, v1) == 1
    # int vs symbolic: the factored side is past the cutoff, hence larger
    assert pc.code_value_cmp(900, v1) == -1
    assert pc.code_value_cmp(v1, 900) == 1


def test_factored_str():
    assert pc.factored_str(4) == "2^2"
    assert pc.factored_str(288) == "2^5·3^2"
    assert pc.factored_str(0) == "0"


def test_render_value_suppresses_huge_decimals():
    big = pc.make_code_value((4000, 4000))
    text = pc.render_value(big)
    assert "decimal suppressed" in text and "(~" in text and "digits" in text


def test_encode_rejects_negatives_and_symbolic():
    with pytest.raises(ValueError):
        pc.encode((-1,))
    sym = pc.make_code_value((5000,))
    with pytest.raises(CapacityError):
        pc.encode((sym,))


def test_code_value_cmp_near_threshold_is_exact():
    # a factored value one entry past the cutoff against integers straddling
    # it: the comparison materializes and decides exactly
    sym = pc.make_code_value((4100,))  # 2^4101, just past the cutoff
    assert isinstance(sym, pc.SymbolicCode)
    assert pc.code_value_cmp(2**4101 - 1, sym) == -1
    assert pc.code_value_cmp(2**4101 + 1, sym) == 1
    assert pc.code_value_cmp(sym, 2**4101 - 1) == 1
    assert pc.code_value_cmp(sym, sym) == 0


def test_code_value_cmp_past_the_exact_sum_cap_is_exact():
    # the code of (1,) * 200,000 has about 7,929,150 bits, but past the
    # exact-sum cap it stores only the lower bound of 2 bits per position
    v = pc.make_code_value_sparse(200_000, ())
    assert v.length > pc._EXACT_LENGTH_CAP
    assert v._bits_scaled == 400_000 * pc._LOG2_SCALE
    for i, order in ((2**500_000, -1), (2**7_928_000, -1), (2**7_931_000, 1)):
        assert pc.code_value_cmp(i, v) == order
        assert pc.code_value_cmp(v, i) == -order
    # the rendered size is marked as the lower bound it is
    assert "(at least 120413 digits, decimal suppressed)" in pc.render_value(v)


def test_horizon_error_reports_needed_index():
    from hurewicz_kit.base import HorizonError
    from hurewicz_kit import departure as dep
    from hurewicz_kit.alphabet import PointPrefix

    try:
        dep.apply(dep.BranchIndex((), (0,)), PointPrefix.from_entries((1,)))
    except HorizonError as exc:
        assert exc.required_index == 2
    else:
        raise AssertionError("expected a horizon error")


def _decode_cases():
    rng = random.Random(11)
    cases = [0, 1, 2, 3, 7, 15, 1001, 3**40, 2**4096 + 1]  # 0, 1, odd values
    # values that skip a prime, or carry one past the last entry
    cases += [10, 2 * 5, 2**3 * 3 * 7, j_code((1, 1)) * 7, j_code((4, 0, 2)) * 11**3]
    # values around 4096 bits, with large exponents at 2 and at odd primes
    cases += [2**4095, 2**4096, 2**4097, 2 * 3**2583, 2 * 3**2584 * 5, j_code((1,) * 200)]
    cases += [j_code((0, 2583)), j_code((0, 2583)) // 3, j_code((0, 2583)) * 3]
    for _ in range(200):
        seq = tuple(rng.choice((0, 1, 1, 2, rng.randrange(300))) for _ in range(rng.randrange(1, 16)))
        c = j_code(seq)
        cases += [c, c * prime(rng.randrange(len(seq) + 2)), c // 2, c * 2 + 1]
    # factored values return their defining sequence
    cases += [pc.make_code_value((5000,)), pc.make_code_value((1, 1, 2**5 * 3**289 * 5**2, 1))]
    return cases


def test_decode_matches_trial_division():
    for c in _decode_cases():
        assert pc.decode(c) == decode_trial_division(c), c


def test_decode_rejects_non_naturals():
    for c in (-4, -1, 4.0, "4", None):
        assert pc.decode(c) is None
        assert decode_trial_division(c) is None


def _sparse_cases():
    big_entry = 2**5 * 3**289 * 5**2
    cases = []
    # every all-ones length through the cutoff (2 * log2 of the first primes)
    for length in range(1, 400):
        cases += [(length, ()), (length, ((0, 4),)), (length, ((length - 1, 0),))]
    # single entries straddling 2^4096, and entries 0 that divide the product
    for e in range(4090, 4100):
        cases.append((1, ((0, e),)))
    cases += [(2, ((0, 0),)), (3, ((0, 0), (2, 0))), (200, ((0, 0), (5, 0), (7, 9)))]
    cases += [(4, ((2, big_entry),)), (5, ((1, 4), (3, big_entry)))]
    rng = random.Random(5)
    for _ in range(300):
        length = rng.randrange(1, 300)
        positions = sorted(rng.sample(range(length), min(length, rng.randrange(4))))
        cases.append((length, tuple((p, rng.choice((0, 2, 4, 36, 900, 1500))) for p in positions)))
    return cases


def test_make_code_value_sparse_matches_per_call_product():
    kinds = set()
    for length, items in _sparse_cases():
        got = pc.make_code_value_sparse(length, items)
        want = code_value_per_call(length, items)
        assert type(got) is type(want) and got == want, (length, items)
        kinds.add(type(got))
    assert kinds == {int, pc.SymbolicCode}


def test_make_code_value_sparse_takes_canonical_items_as_they_stand():
    for length, items in _sparse_cases():
        its = tuple(sorted((p, v) for p, v in items if v != 1))
        got = pc.make_code_value_sparse(length, its, canonical=True)
        want = pc.make_code_value_sparse(length, items)
        assert type(got) is type(want) and got == want, (length, items)


def test_all_ones_log2_floor_bounds_the_code():
    for length in list(range(1, 120)) + [300, 1000, 2500]:
        lb = pc.repeated_code_log2_floor(length, 1)
        ones = math.prod(pc.nth_prime(i) ** 2 for i in range(length))
        # 2**lb <= O < 2**(lb + 2): a lower bound, and a tight one
        assert lb < ones.bit_length() <= lb + 2, length


def test_repeated_code_log2_floor_bounds_the_code():
    cases = [(n, e) for n in range(1, 40) for e in (0, 1, 2, 5, 40, 1000)]
    cases += [(300, 2), (1000, 1), (1, 10**5)]
    for length, entry in cases:
        lb = pc.repeated_code_log2_floor(length, entry)
        code = math.prod(pc.nth_prime(i) for i in range(length)) ** (entry + 1)
        # 2**lb <= code < 2**(lb + 2): a lower bound, and a tight one
        assert lb < code.bit_length() <= lb + 2, (length, entry)


def test_code_values_refuse_negative_entries():
    with pytest.raises(ValueError, match="naturals"):
        pc.make_code_value((-1,))
    with pytest.raises(ValueError, match="naturals"):
        pc.make_code_value_sparse(3, ((1, -2),))
    with pytest.raises(ValueError, match="naturals"):
        pc.SymbolicCode(5000, ((7, -1),))
    assert pc.make_code_value((0,)) == 2


def test_sparse_code_values_refuse_a_negative_length():
    # a negative length would read the all-ones table from its far end
    pc._all_ones_code(4)
    for length in (-1, -3):
        for canonical in (False, True):
            with pytest.raises(ValueError, match="length must be a natural"):
                pc.make_code_value_sparse(length, (), canonical=canonical)
    assert pc.make_code_value_sparse(0, ()) == 0


def test_materializable_length_is_the_last_length_within_the_cutoff():
    pc._extend_log2q(pc._MATERIALIZABLE_LENGTH + 1)
    cap = pc.MATERIALIZE_BITS * pc._LOG2_SCALE
    last = max(n for n, c in enumerate(pc._cum_log2q) if c <= cap)
    assert last == pc._MATERIALIZABLE_LENGTH


def test_tables_match_their_per_entry_formulas(monkeypatch):
    """From empty, the prime-log table grows to exactly the length asked
    for, and the all-ones table over the materializable lengths only; every
    entry is its own formula.  A code too long to materialize grows
    neither."""
    monkeypatch.setattr(pc, "_primes", [2, 3, 5, 7, 11, 13])
    monkeypatch.setattr(pc, "_log2q", [])
    monkeypatch.setattr(pc, "_cum_log2q", [0])
    monkeypatch.setattr(pc, "_ones_codes", [1])
    last = pc._MATERIALIZABLE_LENGTH
    assert isinstance(pc.make_code_value_sparse(3000, ()), pc.SymbolicCode)
    assert len(pc._primes) <= last + 1 and len(pc._log2q) <= last + 1
    assert len(pc._ones_codes) == 1
    pc._extend_log2q(7)
    assert len(pc._log2q) == 7
    pc._extend_log2q(3000)
    assert len(pc._log2q) == 3000
    assert pc._log2q == [round(math.log2(prime(i)) * pc._LOG2_SCALE) for i in range(3000)]
    assert pc._cum_log2q == list(itertools.accumulate(pc._log2q, initial=0))
    assert pc._all_ones_code(5) == j_code((1,) * 5)
    assert len(pc._ones_codes) == 6
    # the least code of each materializable length (every entry 0) fits
    assert pc.make_code_value((0,) * last).bit_length() <= pc.MATERIALIZE_BITS
    assert isinstance(pc.make_code_value((0,) * (last + 1)), pc.SymbolicCode)
    assert len(pc._ones_codes) == last + 1
    # a longer code is built, and not kept
    assert pc._all_ones_code(last + 3) == math.prod(prime(i) ** 2 for i in range(last + 3))
    assert len(pc._ones_codes) == last + 1
    for n, code in enumerate(pc._ones_codes):
        assert code == math.prod(prime(i) ** 2 for i in range(n))


def test_long_ones_code_extends_no_log_table(monkeypatch):
    monkeypatch.setattr(pc, "_log2q", [])
    monkeypatch.setattr(pc, "_cum_log2q", [0])
    monkeypatch.setattr(pc, "_ones_codes", [1])
    length = pc._MATERIALIZABLE_LENGTH + 40
    assert pc._all_ones_code(length) == math.prod(prime(i) ** 2 for i in range(length))
    assert pc._log2q == [] and len(pc._ones_codes) == pc._MATERIALIZABLE_LENGTH + 1


def test_make_code_value_sparse_around_the_materializable_length():
    """Past the materializable length the size sum is skipped; the value is
    the one the sum decides, and the one the per-call oracle builds."""
    last = pc._MATERIALIZABLE_LENGTH
    cap = pc.MATERIALIZE_BITS * pc._LOG2_SCALE
    factored = pc.make_code_value((5000,))
    lengths = list(range(last - 2, last + 4)) + [3000, pc._EXACT_LENGTH_CAP + 1]
    kinds = set()
    for length in lengths:
        for items in (
            (),
            tuple((p, 0) for p in range(length)),
            ((0, factored),),
            ((0, 0), (length - 1, factored)),
        ):
            got = pc.make_code_value_sparse(length, items)
            bits = pc._seq_bits_scaled(length, pc._canonical_items(length, items))
            assert isinstance(got, pc.SymbolicCode) == (bits is None or bits > cap)
            want = code_value_per_call(length, items)
            assert type(got) is type(want) and got == want, (length, items[:3])
            kinds.add((length > last, type(got)))
        # non-canonical items are refused at every length
        for items, match in (
            (((1, 5), (1, 6)), "twice"),
            (((2, -1),), "naturals"),
            (((length, 3),), "outside"),
        ):
            with pytest.raises(ValueError, match=match):
                pc.make_code_value_sparse(length, items)
    assert kinds == {(False, int), (False, pc.SymbolicCode), (True, pc.SymbolicCode)}


_COLD_SUITE_TABLES = """
import json
from hurewicz_kit import prime_coding as pc
from hurewicz_kit import verifier as vf

sizes = {}
for suite in ("departure", "no-isolated"):
    vf.SUITES[suite]()
    sizes[suite] = (len(pc._primes), len(pc._log2q))
print(json.dumps(sizes))
"""


def test_default_suites_build_short_tables():
    # a default departure or no-isolated call rewrites coordinates up to
    # index 10^4 and more; their codes are factored, so the prime and
    # prime-log tables stay near the materializable length
    for suite, (primes, logs) in _fresh_run(_COLD_SUITE_TABLES).items():
        assert logs <= pc._MATERIALIZABLE_LENGTH + 1, suite
        assert primes < 1000, suite


def test_code_values_refuse_a_repeated_position():
    # as PointPrefix does: a position given twice is refused, a 1 included,
    # on both the materialized and the factored side of the cutoff
    repeats = (((0, 5), (0, 6)), ((0, 5), (0, 5)), ((0, 1), (0, 5)), ((2, 7), (0, 3), (2, 7)))
    for length in (3, 5000):
        for items in repeats:
            with pytest.raises(ValueError, match="twice"):
                pc.make_code_value_sparse(length, items)
    with pytest.raises(ValueError, match="twice"):
        pc.SymbolicCode(5000, ((7, 2), (7, 3)))
    # two codes at one position are refused before they could be ordered
    code = pc.make_code_value((5000,))
    with pytest.raises(ValueError, match="twice"):
        pc.make_code_value_sparse(5000, ((1, code), (1, code)))


def test_encode_matches_product_oracle_at_every_tree_shape():
    # lengths on both sides of powers of two give every shape of the
    # balanced product tree
    rng = random.Random(5)
    for n in list(range(1, 70)) + [127, 128, 129, 255, 256, 257, 1000, 3001]:
        seq = tuple(rng.randrange(8) for _ in range(n))
        want = math.prod(prime(i) ** (e + 1) for i, e in enumerate(seq))
        assert pc.encode(seq) == want, n
    assert pc.encode((1000,) * 60) == math.prod(prime(i) for i in range(60)) ** 1001
    # the first bad entry decides the error
    sym = pc.make_code_value((5000,))
    with pytest.raises(ValueError, match="naturals"):
        pc.encode((1,) * 200 + (-1, sym))
    with pytest.raises(CapacityError):
        pc.encode((1,) * 200 + (sym, -1))


def test_long_encode_is_quick():
    # 1.9M bits: one growing product took 17 s on a 2-CPU machine, the
    # balanced tree about 1 s there, and 1.75 s with both CPUs kept busy
    n = 100_000
    primes = sieve_primes(1_299_709)  # the 100,000th prime
    assert len(primes) == n
    pc.nth_prime(n - 1)
    start = time.perf_counter()
    code = pc.encode((1,) * n)
    assert time.perf_counter() - start < 9
    # checked modulo a prime, since the oracle's own product is quadratic
    m = (1 << 61) - 1
    residue = 1
    for p in primes:
        residue = residue * p * p % m
    assert code % m == residue


def test_factored_code_is_its_length_and_items_tuple():
    inner = pc.make_code_value_sparse(3, ((0, 5000),))
    code = pc.make_code_value_sparse(6, ((1, 0), (4, inner)))
    assert isinstance(inner, pc.SymbolicCode) and isinstance(code, pc.SymbolicCode)
    bare = (6, ((1, 0), (4, inner)))
    assert code == bare and hash(code) == hash(bare)
    assert code.length == 6 and code.items == bare[1] and code.entry(4) is inner
    # built directly, items unsorted and with a 1, it is the same value
    assert pc.SymbolicCode(6, [(4, inner), (2, 1), (1, 0)]) == code
    # never an int, so never 1
    for v in (code, inner):
        for i in (0, 1, 2, 6, 2**5001):
            assert v != i and i != v and not v == i
        assert 1 not in {v} and v not in {1, 2} and 1 not in (v,)
    # no tuple order leaks into code values
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        for a, b in ((code, code), (code, inner), (code, bare), (code, 5), (5, code)):
            with pytest.raises(TypeError):
                op(a, b)
    with pytest.raises(TypeError):
        sorted([code, inner])
    for dup in (copy.copy(code), copy.deepcopy(code), pickle.loads(pickle.dumps(code))):
        assert type(dup) is pc.SymbolicCode and dup == code and hash(dup) == hash(code)
        assert type(dup.entry(4)) is pc.SymbolicCode
        for change in (lambda: setattr(dup, "items", ()), lambda: delattr(dup, "length")):
            with pytest.raises(AttributeError, match="immutable"):
                change()
    assert repr(code) == f"SymbolicCode({pc.factored_str(code)})"
