"""Index-substitution self-maps of the binary sequence space.

Each finite sequence s of positive naturals determines a total map h_s whose
output bit k reads input bit sigma_s(k): writing D_j = J(s|j) / q_{j-1} for
the level divisors (J the prime-power coding), sigma_s sends k to
J(s|i)*q - D_i - 1 where i is the largest level with D_i dividing k+1 and
q = (k+1)/D_i, and fixes every k whose successor is divisible by no level
divisor.  Maps at different indices disagree densely, and extending the index
moves the first possible disagreement out beyond J(s⌢k)/q_{|s|} - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .base import Tri
from .prime_coding import encode, nth_prime


# id -> an index tuple _check_index has accepted.  Holding the tuple keeps its
# id from being reused, so a hit is that very object; keying by id, not by the
# tuple, keeps an equal tuple of other types (1.0 for 1) from passing and an
# unhashable entry from raising TypeError.
_checked: dict[int, tuple[int, ...]] = {}
_CHECKED_MAX = 1024


def _check_index(s) -> tuple[int, ...]:
    if _checked.get(id(s)) is s:
        return s
    s = tuple(s)
    for v in s:  # a plain loop: any() over a generator costs more per call
        if not isinstance(v, int) or v < 1:
            raise ValueError("index entries must be positive naturals")
    if len(_checked) >= _CHECKED_MAX:
        _checked.clear()
    _checked[id(s)] = s
    return s


@lru_cache(maxsize=4096)
def _divisors(s: tuple[int, ...]) -> tuple[int, ...]:
    """Level divisors D_1..D_|s|, D_j = J(s|j) / q_{j-1}."""
    return tuple(encode(s[:j]) // nth_prime(j - 1) for j in range(1, len(s) + 1))


class IndexMap:
    """sigma_s as a callable; h_s(x)(k) = x(sigma_s(k))."""

    __slots__ = ("s", "_divs", "_codes")

    def __init__(self, s):
        self.s = _check_index(s)
        self._divs = _divisors(self.s)
        self._codes = tuple(encode(self.s[:j]) for j in range(1, len(self.s) + 1))

    def __call__(self, k: int) -> int:
        if k < 0:
            raise ValueError("coordinate index must be a natural")
        best = -1
        succ = k + 1
        for j, d in enumerate(self._divs):
            if succ % d == 0:
                best = j
        if best < 0:
            return k
        q = succ // self._divs[best]
        return self._codes[best] * q - self._divs[best] - 1

    def prefix(self, n: int, start: int = 0) -> list[int]:
        """[sigma_s(start), ..., sigma_s(n-1)], by a sieve over the level
        divisors: level j rewrites every k with D_j | k+1, and deeper levels
        run later, so each k keeps the value of the deepest level dividing k+1."""
        if n < 0 or start < 0:
            raise ValueError("prefix bounds must be naturals")
        out = list(range(start, n))
        for d, c in zip(self._divs, self._codes):
            q = start // d + 1  # the least q with q*d - 1 >= start
            out[q * d - 1 - start :: d] = range(c * q - d - 1, c * (n // d) - d, c)
        return out


@lru_cache(maxsize=4096)
def _index_map(s: tuple[int, ...]) -> IndexMap:
    """The one IndexMap of a checked index."""
    return IndexMap(s)


def sigma(s, k: int) -> int:
    return _index_map(_check_index(s))(k)


@dataclass(frozen=True)
class BitPrefix:
    """Finite binary word, optionally extended by repeating ``tail`` forever."""

    bits: bytes
    tail: bytes | None = None

    def bit(self, k: int):
        if k < 0:
            raise IndexError(k)
        if k < len(self.bits):
            return self.bits[k]
        if self.tail:
            return self.tail[(k - len(self.bits)) % len(self.tail)]
        return Tri.UNKNOWN

    def __len__(self) -> int:
        return len(self.bits)

    def __repr__(self) -> str:
        body = "".join(str(b) for b in self.bits[:64])
        if len(self.bits) > 64:
            body += f"...({len(self.bits)} bits)"
        t = "" if self.tail is None else "+" + "".join(str(b) for b in self.tail) + "^w"
        return f"BitPrefix({body}{t})"


def h_eval(s, x: BitPrefix, k: int):
    """Output bit k of the map at index s, read through the index map;
    Tri.UNKNOWN when the source coordinate is past x's decidable range."""
    return x.bit(sigma(s, k))


def convergence_bound(s, k: int) -> int:
    """Guaranteed-agreement horizon: the maps at s⌢k and s can first disagree
    at J(s⌢k)/q_{|s|} - 1, which grows without bound in k."""
    s = _check_index(s)
    if k < 1:
        raise ValueError("child label must be positive")
    return encode(s + (k,)) // nth_prime(len(s)) - 1


def disagreement_witness(s, t, u: BitPrefix | bytes) -> tuple[BitPrefix, int]:
    """Extend the word u to a prefix on which the maps at s and t provably
    disagree, returning the prefix and the disagreeing output index.

    Two cases: a first differing level m (take k+1 divisible by the larger
    side's level-(m+1) divisor times growing powers of q_{m+2}) or one index a
    strict prefix of the other (same shape one level up).  The two source
    coordinates are distinct, land past |u| for a large enough power, and get
    opposite bits.  Everything past u depends only on (s, t, |u|), so the
    prefix is u followed by the cached tail of _witness_core.
    """
    s = _check_index(s)
    t = _check_index(t)
    if s == t:
        raise ValueError("indices must differ")
    bits = u.bits if isinstance(u, BitPrefix) else bytes(u)
    tail, k = _witness_core(s, t, len(bits))
    return BitPrefix(bits + tail), k


@lru_cache(maxsize=4096)
def _witness_core(s: tuple[int, ...], t: tuple[int, ...], n: int) -> tuple[bytes, int]:
    """(tail, k) for distinct checked indices s and t and a word of length n:
    the output index k, whose two source coordinates a and b are distinct and
    both at least n, and the witness bits past the word, tail = word[n:], all
    0 but a 1 at b - n.  a lies under the index taking bit 0, b under the one
    taking bit 1, and the tail ends at max(a, b)."""
    m = next((i for i in range(min(len(s), len(t))) if s[i] != t[i]), None)
    if m is not None:
        if s[m] > t[m]:
            s, t = t, s
        base = encode(t[: m + 1]) // nth_prime(m)
        step = nth_prime(m + 2)
    else:
        if len(s) > len(t):
            s, t = t, s
        base = encode(t) // nth_prime(len(t) - 1)
        step = nth_prime(len(t) + 1)
    sig_s, sig_t = _index_map(s), _index_map(t)
    power = 1
    while True:
        k = base * power - 1
        a, b = sig_s(k), sig_t(k)
        if a != b and min(a, b) >= n:
            tail = bytearray(max(a, b) + 1 - n)
            tail[b - n] = 1
            return bytes(tail), k
        power *= step


# values compared per step by agreement_below_bound, bounding its memory
_WINDOW = 1 << 14


def agreement_below_bound(s, k: int, horizon: int) -> int | None:
    """First index below min(bound, horizon) where the index maps of s⌢k and s
    differ, or None; expected None by the convergence bound.  Both maps are
    read _WINDOW values at a time, so memory does not grow with the horizon;
    each window's two lists are compared whole, and only a window where they
    differ is scanned for its first differing index."""
    s = _check_index(s)
    parent, child = _index_map(s), _index_map(_check_index(s + (k,)))
    limit = min(convergence_bound(s, k), horizon)
    for start in range(0, limit, _WINDOW):
        stop = min(start + _WINDOW, limit)
        before, after = parent.prefix(stop, start), child.prefix(stop, start)
        if before != after:
            pairs = zip(before, after)
            return next(n for n, (p, c) in enumerate(pairs, start) if p != c)
    return None
