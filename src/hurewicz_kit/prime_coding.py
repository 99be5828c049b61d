"""Prime-power coding of finite sequences of naturals.

``encode`` maps (s0, ..., s_{k-1}) to q_0^(s0+1) * ... * q_{k-1}^(s_{k-1}+1)
over the primes q_0 = 2, q_1 = 3, q_2 = 5, ...; the empty sequence maps to 0.
``decode`` inverts by factorization and returns None for naturals whose
factorization skips a prime or does not start at 2.

Coded values grow violently once coded values are fed back in as entries:
three levels of nesting already produce numbers whose decimal expansion could
not be stored.  Any value whose estimated size exceeds MATERIALIZE_BITS is
therefore kept in factored form as a :class:`SymbolicCode`;
:func:`make_code_value` picks the representation canonically, so equality of
code values is structural everywhere in the package.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from functools import lru_cache
from operator import itemgetter

from .base import CapacityError

# Codes estimated above this many bits stay in factored form.
MATERIALIZE_BITS = 4096

# Fixed-point scale for base-2 log estimates of code sizes.
_LOG2_SCALE = 1 << 24

# The longest sequence whose least code (every entry 0, the product of its
# primes) is estimated within the cutoff: the largest n with
# _cum_log2q[n] <= MATERIALIZE_BITS * _LOG2_SCALE.  Every code of a longer
# sequence is at least that product, so it stays factored.  Written as its
# value, so importing builds no table; a test derives it.
_MATERIALIZABLE_LENGTH = 418

_primes: list[int] = [2, 3, 5, 7, 11, 13]
_log2q: list[int] = []          # round(log2(q_i) * _LOG2_SCALE)
_cum_log2q: list[int] = [0]     # prefix sums of _log2q
_ones_codes: list[int] = [1]    # code of (1,) * n at index n, materializable n only


def _sieve(bound: int) -> list[int]:
    """Every prime <= bound (bound >= 1)."""
    flags = bytearray([1]) * (bound + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, bound + 1, p)))
    return list(itertools.compress(range(bound + 1), flags))


def _ensure_primes(count: int) -> None:
    """Grow the memoized prime table to at least ``count`` entries.

    Each regrowth at least doubles the table, so a run of growing requests
    sieves only logarithmically often.  Deterministic; the finished list
    replaces the old one in a single rebinding.
    """
    global _primes
    if len(_primes) >= count:
        return
    n = max(count, 2 * len(_primes), 16)
    # p_n < n (ln n + ln ln n) for n >= 6, so one sieve normally suffices
    bound = int(n * (math.log(n) + math.log(math.log(n)))) + 10
    while True:
        found = _sieve(bound)
        if len(found) >= count:
            _primes = found
            return
        bound *= 2


def nth_prime(n: int) -> int:
    """The (n+1)-th prime: nth_prime(0) = 2, nth_prime(1) = 3, ..."""
    if n < 0:
        raise ValueError("prime index must be a natural")
    if n >= len(_primes):
        _ensure_primes(n + 1)
    return _primes[n]


def _extend_log2q(length: int) -> None:
    """Grow the scaled prime-log table to its first ``length`` entries (and
    its prefix sums to index ``length``) in one pass, and no further."""
    start = len(_log2q)
    if length <= start:
        return
    if length > len(_primes):
        _ensure_primes(length)
    new = [round(math.log2(q) * _LOG2_SCALE) for q in _primes[start:length]]
    _log2q.extend(new)
    # the running sums start from the last one held, which accumulate repeats
    _cum_log2q.extend(itertools.accumulate(new, initial=_cum_log2q.pop()))


def encode(seq: Sequence[int]) -> int:
    """Code of a finite sequence of naturals; 0 for the empty sequence.  The
    prime powers multiply as a balanced tree, not into one growing product
    (quadratic in the code's length): the n-th joins the stack's top once
    per trailing zero bit of n, like a binary count's carries."""
    if not seq:
        return 0
    if len(seq) > len(_primes):
        _ensure_primes(len(seq))
    stack = []
    for n, (q, entry) in enumerate(zip(_primes, seq), 1):
        if not isinstance(entry, int):
            raise CapacityError(
                "entry too large to materialize; use make_code_value for the factored form"
            )
        if entry < 0:
            raise ValueError("entries must be naturals")
        value = q ** (entry + 1)
        while not n & 1:
            value *= stack.pop()
            n >>= 1
        stack.append(value)
    value = stack.pop()
    while stack:
        value *= stack.pop()
    return value


def decode(c) -> tuple | None:
    """Inverse of the coding; None when ``c`` is not a coded value.

    Accepts plain naturals and factored SymbolicCode values (whose defining
    sequence is returned directly).  The exponent of 2 is read off the lowest
    set bit; only the odd primes are divided out.
    """
    if isinstance(c, SymbolicCode):
        return c.seq()
    if not isinstance(c, int) or c < 0:
        return None
    if c == 0:
        return ()
    if c & 1:
        return None  # 1 codes nothing; other odd values do not start at 2
    e = (c & -c).bit_length() - 1
    c >>= e
    entries = [e - 1]
    i = 1
    while c > 1:
        if i >= len(_primes):
            _ensure_primes(i + 1)
        p = _primes[i]
        e = 0
        while True:
            quot, rem = divmod(c, p)
            if rem:
                break
            c = quot
            e += 1
        if e == 0:
            # factorization skips q_i: not contiguous, not a code
            return None
        entries.append(e - 1)
        i += 1
    return tuple(entries)


def is_code(n: int) -> bool:
    return decode(n) is not None


class SymbolicCode(tuple):
    """A code value kept in factored form: the code of ``seq``, stored
    sparsely (positions whose entry differs from 1) as the tuple
    ``(length, items)``, which it equals; never equal to an int, and not
    ordered (comparing raises TypeError).  Only constructed (via
    make_code_value) for values past MATERIALIZE_BITS bits."""

    __slots__ = ()

    def __new__(cls, length: int, items: Iterable[tuple[int, object]]):
        return tuple.__new__(cls, (length, _canonical_items(length, items)))

    length = property(itemgetter(0))
    items = property(itemgetter(1))

    @property
    def _bits_scaled(self) -> int | None:
        return _seq_bits_scaled(self[0], self[1])

    def entry(self, i: int):
        if not 0 <= i < self.length:
            raise IndexError(i)
        return dict(self.items).get(i, 1)

    def seq(self) -> tuple:
        out = [1] * self.length
        for p, v in self.items:
            out[p] = v
        return tuple(out)

    def __repr__(self) -> str:
        return f"SymbolicCode({factored_str(self)})"

    def __reduce__(self):
        # copy and pickle rebuild through __new__ from (length, items)
        return SymbolicCode, tuple(self)

    def __setattr__(self, *a):
        raise AttributeError("SymbolicCode is immutable")

    __delattr__ = __setattr__

    def __lt__(self, other):
        raise TypeError("code values have no tuple order; use code_value_cmp")

    __le__ = __gt__ = __ge__ = __lt__


# Sequences longer than this keep a lower bound (2 bits a position, far past
# the cutoff) in place of the exact prime-log sum; code_value_cmp pays for
# the exact sum only against an int the bound does not clear.
_EXACT_LENGTH_CAP = 100_000


def _canonical_items(length: int, items) -> tuple:
    """The non-1 (position, entry) pairs, sorted, each inside the sequence
    and each entry a natural or a factored code; a position given twice is
    refused."""
    given = tuple(items)
    values = dict(given)
    if len(values) != len(given):
        raise ValueError("item position given twice")
    its = tuple(sorted((p, v) for p, v in values.items() if v != 1))
    for p, v in its:
        if not 0 <= p < length:
            raise ValueError("item position outside the coded sequence")
        if isinstance(v, int) and v < 0:
            raise ValueError("entries must be naturals")
    return its


def _seq_bits_scaled(length: int, items, exact: bool = False) -> int | None:
    """Scaled log2 of the code of a mostly-1 sequence (a lower bound once the
    sequence outgrows the exact-sum cap, unless ``exact``); None when some
    entry is itself non-materializable (the value is then astronomically
    large).  Every item position must lie below ``length``."""
    if length > _EXACT_LENGTH_CAP and not exact:
        total = 2 * length * _LOG2_SCALE
        for _, v in items:
            if isinstance(v, SymbolicCode):
                return None
            total += (v - 1) * _LOG2_SCALE
        return total
    if length >= len(_cum_log2q):
        _extend_log2q(length)
    total = 2 * _cum_log2q[length]
    for pos, v in items:
        if isinstance(v, SymbolicCode):
            return None
        total += (v - 1) * _log2q[pos]
    return total


def repeated_code_log2_floor(length: int, entry: int) -> int:
    """A lower bound on log2 of the code of (entry,) * length (length >= 1),
    without building it: entry + 1 times the sum of the scaled prime logs,
    each within one unit of the true scaled log, less entry + 1 units per
    position.  Extends the prime-log table to the length, so callers bound
    the length first."""
    _extend_log2q(length)
    return (entry + 1) * (_cum_log2q[length] - length) // _LOG2_SCALE


def make_code_value(seq: Sequence) -> "int | SymbolicCode":
    """Canonical code value of ``seq``: int when small, factored form when not."""
    return make_code_value_sparse(len(seq), enumerate(seq))


def make_code_value_sparse(
    length: int, items, canonical: bool = False
) -> "int | SymbolicCode":
    """Canonical code value of the length-``length`` sequence that is 1 except
    at the (position, entry) ``items``.  With ``canonical`` the items are
    taken as they stand, unchecked: a tuple of non-1 pairs sorted by
    position, each position below ``length`` and none twice (a slice of a
    ``PointPrefix``'s overrides is one).  An int within the
    MATERIALIZE_BITS cutoff, factored past it.

    The size is summed over the prime logs only up to
    ``_MATERIALIZABLE_LENGTH``: a longer sequence is factored without it,
    as the sum would decide (its least code is already past the cutoff, and
    a factored entry makes the sum None), so no table grows with the
    length."""
    if length == 0:
        return 0
    if canonical:
        its = items
    else:
        its = _canonical_items(length, items) if items else ()
    bits = _seq_bits_scaled(length, its) if length <= _MATERIALIZABLE_LENGTH else None
    if bits is not None and bits <= MATERIALIZE_BITS * _LOG2_SCALE:
        value = _all_ones_code(length)
        for pos, v in its:
            if v:
                value *= _primes[pos] ** (v - 1)
            else:
                value //= _primes[pos]
        return value
    return tuple.__new__(SymbolicCode, (length, its))


def _all_ones_code(length: int) -> int:
    """Code of (1,) * length.

    The codes of the materializable lengths (up to
    ``_MATERIALIZABLE_LENGTH``) are kept in ``_ones_codes``, grown one
    length at a time from its last entry up to the length asked for; a
    longer code is built on from that entry by multiplying primes, and not
    kept, and the prime-log table is not extended.  Every value
    ``make_code_value_sparse`` materializes has a materializable length,
    and ``alphabet.member_valid`` asks only for a code at most a bit longer
    than the int it was handed, so no entry outgrows the data its caller
    was handed."""
    codes = _ones_codes
    if length < len(codes):
        return codes[length]
    if length > len(_primes):
        _ensure_primes(length)
    value = codes[-1]
    for n in range(len(codes), length + 1):
        value *= _primes[n - 1] ** 2
        if n <= _MATERIALIZABLE_LENGTH:
            codes.append(value)
    return value


# --- exact ordering of code values -----------------------------------------

# Fractional bits of fixed_log by default, its error bound (proved there)
# and scaled_log_sign's last rung, FIXED_LOG_BITS * 4**6 = 2**19 bits.
FIXED_LOG_BITS = 128
FIXED_LOG_ERROR = 2
_LOG_LADDER_TOP = FIXED_LOG_BITS << 12


@lru_cache(maxsize=256)
def fixed_log(p: int, bits: int = FIXED_LOG_BITS) -> int:
    """floor(ln(p) * 2**bits) for 2 <= p < 2**144, under FIXED_LOG_ERROR from
    the true scaled value; a sum of c_j * fixed_log(q_j, bits) is therefore
    within FIXED_LOG_ERROR * sum(|c_j|) of 2**bits * sum(c_j * ln(q_j)).

    In integers: ln p = k ln 2 + 2 atanh(z), z = (p - 2**k) / (p + 2**k),
    with 2**k the power of two nearer p in ratio, so |z| <= 3 - 2 sqrt(2)
    < 1/5, and ln 2 = 18 atanh(1/26) - 2 atanh(1/4801) + 8 atanh(1/8749).
    Each atanh is within 2 units of 2**w times its value at w = bits + 16
    (``_atanh_fixed``), so the sum before the last shift is off by under
    56 k + 4 <= 8068 < 2**13 units (k <= 144), an eighth of a unit of
    2**-bits; the floor after the shift adds under one unit: in all under
    1 + 1/8 < FIXED_LOG_ERROR.  For p = 3 it takes 0.5 s at 2**17 bits and
    about 7 s at 2**19 (2 CPUs, Python 3.11).
    """
    if p < 2 or p.bit_length() > 144:
        raise ValueError("fixed_log covers 2 <= p < 2**144")
    k = p.bit_length() - 1
    if p * p > 1 << (2 * k + 1):  # p > sqrt(2) * 2**k: 2**(k+1) is nearer
        k += 1
    w = bits + 16
    total = k * _ln2_fixed(w)
    if p != 1 << k:
        total += 2 * _atanh_fixed(p - (1 << k), p + (1 << k), w)
    return total >> 16


@lru_cache(maxsize=8)
def _ln2_fixed(w: int) -> int:
    """2**w ln 2 by its Machin-like atanh sum, within 18*2 + 2*2 + 8*2 = 56
    units."""
    return (
        18 * _atanh_fixed(1, 26, w) - 2 * _atanh_fixed(1, 4801, w)
        + 8 * _atanh_fixed(1, 8749, w)
    )


def _atanh_fixed(a: int, b: int, w: int) -> int:
    """2**w atanh(a/b) within 2 units, for 0 < |a|/b = |z| < 1/5.

    The floor of 2**w times the partial sum S of the first n terms of
    atanh(z) = sum over i of z**(2i+1) / (2i+1).  The tail past n is under
    |z|**(2n+1) / (1 - z**2) < 2 |z|**(2n+1), which is at most 2**-w once
    (2n + 1) log2(1/|z|) >= w + 1; n is taken a term past that count from
    float logs, whose relative error (under 1e-15 on a count under 2**21)
    cannot use up the spare term.  So 2**w S is within one unit of the
    true value, and the floor loses under one more.  S is summed exactly by
    binary splitting (``_atanh_split``).
    """
    n = math.ceil((w + 1) / (2 * (math.log2(b) - math.log2(abs(a))))) + 1
    _, q, c, t = _atanh_split(a, b, a * a, b * b, 0, n)
    return (t << w) // (q * c)


def _atanh_split(a: int, b: int, a2: int, b2: int, lo: int, hi: int) -> tuple:
    """Binary splitting of the atanh(a/b) terms lo <= i < hi.  Term i is
    r_0 r_1 ... r_i / (2i+1), with r_0 = a/b and r_i = a2/b2 = (a/b)**2
    after; returns (P, Q, C, T) with P/Q = r_lo ... r_(hi-1), C the product
    of the 2i+1, and T / (Q C) the sum of r_lo ... r_i / (2i+1)."""
    if hi - lo == 1:
        return (a, b, 1, a) if lo == 0 else (a2, b2, 2 * lo + 1, a2)
    mid = (lo + hi) // 2
    pl, ql, cl, tl = _atanh_split(a, b, a2, b2, lo, mid)
    pr, qr, cr, tr = _atanh_split(a, b, a2, b2, mid, hi)
    return pl * pr, ql * qr, cl * cr, tl * qr * cr + pl * cl * tr


def scaled_log_sign(terms: Iterable[tuple[int, int]]) -> int:
    """Sign of sum(c * ln(p) for (c, p) in terms), with exact int coefficients.

    Zero exactly when every aggregated coefficient vanishes (logarithms of
    distinct primes are linearly independent over the rationals); otherwise
    the integer sum of c * fixed_log(p, bits), at 128 bits and then 4x the
    bits a rung, decides once it lies outside FIXED_LOG_ERROR * sum(|c|).
    """
    agg: dict[int, int] = {}
    for c, p in terms:
        agg[p] = agg.get(p, 0) + c
    agg = {p: c for p, c in agg.items() if c}
    if not agg:
        return 0
    err = FIXED_LOG_ERROR * sum(map(abs, agg.values()))
    bits = FIXED_LOG_BITS
    while bits <= _LOG_LADDER_TOP:
        total = sum(c * fixed_log(p, bits) for p, c in agg.items())
        if total > err:
            return 1
        if total < -err:
            return -1
        bits *= 4
    raise ArithmeticError("log comparison did not resolve at maximum precision")


def _int_factor_terms(v: SymbolicCode, sign: int) -> list | None:
    """(sign*(entry+1), prime) terms of a factored value; None when an entry is
    itself symbolic."""
    if any(isinstance(e, SymbolicCode) for _, e in v.items):
        return None
    return [(sign * (e + 1), nth_prime(i)) for i, e in enumerate(v.seq())]


def code_value_cmp(x, y) -> int:
    """Exact order of two code values (ints or factored forms).

    Raises CapacityError for pairs of factored values with non-materializable
    entries; ``alphabet.member_cmp`` orders those up to level 4 by position.
    """
    if x == y:
        return 0
    if isinstance(x, int) and isinstance(y, int):
        return -1 if x < y else 1
    if isinstance(x, int) or isinstance(y, int):
        i, v, sign = (x, y, -1) if isinstance(x, int) else (y, x, 1)
        est = v._bits_scaled
        ibits = i.bit_length()
        # an exact est is off by at most half a unit per unit of exponent, and
        # the exponents sum to at most B = log2(v): past these bounds B > ibits
        # (v > i) or B < ibits - 1 (v < i)
        above = (ibits + 8) * _LOG2_SCALE + ibits
        if est is not None and est <= above and v.length > _EXACT_LENGTH_CAP:
            # est was a lower bound (2 bits a position), so i has about
            # 2 * length bits and the exact sum costs less than i
            est = _seq_bits_scaled(v.length, v.items, exact=True)
        if est is None or est > above:
            return sign
        if est < (ibits - 8) * _LOG2_SCALE - ibits:
            return -sign
        # near i's size, materializing v costs about as much as i
        value = 1
        for c, p in _int_factor_terms(v, 1):
            value *= p**c
        if value == i:
            return 0
        return sign if value > i else -sign
    tx = _int_factor_terms(x, 1)
    ty = _int_factor_terms(y, -1)
    if tx is None or ty is None:
        raise CapacityError("ordering of doubly-nested code values needs level context")
    return scaled_log_sign(tx + ty)


# --- rendering ---------------------------------------------------------------

_DECIMAL_PRINT_CAP = 4000  # digits


def factored_str(v) -> str:
    """q_0^a·q_1^b·... rendering of a code value; exponents that are themselves
    coded values render recursively in parentheses."""
    seq = decode(v)
    if seq is None:
        return str(v)
    if not seq:
        return "0"
    parts = []
    for i, e in enumerate(seq):
        if isinstance(e, SymbolicCode):
            exp = f"({factored_str(e)}+1)"
        else:
            exp = str(e + 1)
        parts.append(f"{nth_prime(i)}^{exp}")
    return "·".join(parts)


def render_value(v) -> str:
    """Stable human rendering: decimal and factored form when printable,
    factored form plus a size estimate otherwise (a lower bound, marked
    "at least", past the exact-sum cap)."""
    if isinstance(v, int):
        s = str(v)
        if len(s) <= _DECIMAL_PRINT_CAP and is_code(v):
            return f"{s} = {factored_str(v)}"
        return s
    bits = v._bits_scaled
    if bits is None:
        size = "size beyond any usable estimate"
    else:
        digits = bits * 30103 // (_LOG2_SCALE * 100000) + 1
        if digits >= 10**9:
            digits = f"10^{len(str(digits)) - 1}"
        bound = "at least " if v.length > _EXACT_LENGTH_CAP else "~"
        size = f"{bound}{digits} digits"
    return f"{factored_str(v)} ({size}, decimal suppressed)"
