"""Index-substitution self-maps of the binary sequence space.

Each finite sequence s of positive naturals determines a total map h_s whose
output bit k reads input bit sigma_s(k): writing D_j = J(s|j) / q_{j-1} for
the level divisors (J the prime-power coding), sigma_s sends k to
J(s|i)*q - D_i - 1 where i is the largest level with D_i dividing k+1 and
q = (k+1)/D_i, and fixes every k whose successor is divisible by no level
divisor.  Maps at different indices disagree densely, and extending the index
moves the first possible disagreement out beyond J(s⌢k)/q_{|s|} - 1.

A dense-disagreement witness extends a word u to a prefix on which the maps
at two distinct indices disagree.  Everything past u depends only on the two
indices and |u|, so witness_bits sweeps a pair over many words on plain
bytes: it checks the two indices once and reads the shared tail once per run
of words of equal length, yielding one witness (u + tail, k) per word as it
goes.  disagreement_witness is the one-word case at the public API, taking
a BitPrefix word too and wrapping its witness in a BitPrefix.
"""

from __future__ import annotations

from functools import lru_cache

from .base import CapacityError, Record, Tri
from .prime_coding import nth_prime


def _check_index(s) -> tuple[int, ...]:
    s = tuple(s)
    for v in s:  # a plain loop: any() over a generator costs more per call
        if not isinstance(v, int) or v < 1:
            raise ValueError("index entries must be positive naturals")
    return s


@lru_cache(maxsize=4096)
def _divisors(s: tuple[int, ...]) -> tuple[int, ...]:
    """Level divisors D_1..D_|s|, D_j = J(s|j) / q_{j-1}, from one running
    product: with J = J(s|j) (1 for j = 0), D_{j+1} = J * q_j^{s_j} and
    J(s|j+1) = D_{j+1} * q_j."""
    out = []
    code = 1
    for j, entry in enumerate(s):
        q = nth_prime(j)
        divisor = code * q**entry
        out.append(divisor)
        code = divisor * q
    return tuple(out)


class IndexMap:
    """sigma_s as a callable; h_s(x)(k) = x(sigma_s(k))."""

    __slots__ = ("s", "_divs", "_codes")

    def __init__(self, s):
        self.s = _check_index(s)
        self._divs = _divisors(self.s)
        # J(s|j) = D_j * q_{j-1}
        self._codes = tuple(d * nth_prime(j) for j, d in enumerate(self._divs))

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


class BitPrefix(Record):
    """Finite binary word, optionally extended by repeating ``tail`` forever.

    A ``Record`` of (bits: bytes, tail: bytes | None), so both are
    read-only."""

    __slots__ = ("bits", "tail")

    def __init__(self, bits: bytes, tail: bytes | None = None):
        super().__init__(bits, tail)

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
    return _divisors(s + (k,))[-1] - 1


def disagreement_witness(s, t, u: BitPrefix | bytes) -> tuple[BitPrefix, int]:
    """Extend the word u to a prefix on which the maps at s and t provably
    disagree, returning the prefix and the disagreeing output index.

    Two cases: a first differing level m (take k+1 divisible by the larger
    side's level-(m+1) divisor times growing powers of q_{m+2}) or one index a
    strict prefix of the other (same shape one level up).  The two source
    coordinates are distinct, land past |u| for a large enough power, and get
    opposite bits.  Everything past u depends only on (s, t, |u|), so the
    prefix is u followed by the tail of _witness_core (witness_bits).  A
    BitPrefix u with a tail is refused: no finite prefix extends it.
    """
    if isinstance(u, BitPrefix) and u.tail:
        raise ValueError(f"a witness extends a finite word, not {u!r}")
    bits = u.bits if isinstance(u, BitPrefix) else bytes(u)
    x, k = next(witness_bits(s, t, (bits,)))
    return BitPrefix(x), k


def witness_bits(s, t, words):
    """(u + tail, k) for each bytes word u of ``words``, in order, yielded one
    at a time: the witness bits and the disagreeing output index.  s and t
    are checked here, before the first word; the tail and output index come
    from _witness_core once per run of words of equal length, so words may
    come in any order of lengths."""
    s = _check_index(s)
    t = _check_index(t)
    if s == t:
        raise ValueError("indices must differ")
    return _sweep(s, t, words)


def _sweep(s: tuple[int, ...], t: tuple[int, ...], words):
    n = None
    for u in words:
        if len(u) != n:
            n = len(u)
            tail, k = _witness_core(s, t, n)
        yield u + tail, k


# Longest witness tail _witness_core builds.  A tail grows exponentially with
# the indices' entries (the pair (1), (30) needs 2^31 - 2 bytes); acceptance
# gate 6's longest is 1,248 bytes.
WITNESS_TAIL_CAP = 1 << 16


def _witness_core(s: tuple[int, ...], t: tuple[int, ...], n: int) -> tuple[bytes, int]:
    """(tail, k) for distinct checked indices s and t and a word of length n:
    the output index k, whose two source coordinates a and b are distinct and
    both at least n, and the witness bits past the word, tail = word[n:], all
    0 but a 1 at b - n.  a lies under the index taking bit 0, b under the one
    taking bit 1, and the tail ends at max(a, b).  A tail longer than
    WITNESS_TAIL_CAP is refused with CapacityError before it is built."""
    m = next((i for i in range(min(len(s), len(t))) if s[i] != t[i]), None)
    if m is not None:
        if s[m] > t[m]:
            s, t = t, s
        base = _divisors(t)[m]
        step = nth_prime(m + 2)
    else:
        if len(s) > len(t):
            s, t = t, s
        base = _divisors(t)[-1]
        step = nth_prime(len(t) + 1)
    sig_s, sig_t = _index_map(s), _index_map(t)
    power = 1
    while True:
        k = base * power - 1
        a, b = sig_s(k), sig_t(k)
        if a != b and min(a, b) >= n:
            size = max(a, b) + 1 - n
            if size > WITNESS_TAIL_CAP:
                raise CapacityError(
                    f"the witness for indices {s} and {t} past a word of length {n} "
                    f"needs a tail of {size} bytes, over the cap {WITNESS_TAIL_CAP}"
                )
            tail = bytearray(size)
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
    differ is scanned for its first differing index.  Refuses a negative
    horizon."""
    s = _check_index(s)
    if horizon < 0:
        raise ValueError("horizon must be a natural")
    parent, child = _index_map(s), _index_map(_check_index(s + (k,)))
    limit = min(convergence_bound(s, k), horizon)
    for start in range(0, limit, _WINDOW):
        stop = min(start + _WINDOW, limit)
        before, after = parent.prefix(stop, start), child.prefix(stop, start)
        if before != after:
            pairs = zip(before, after)
            return next(n for n, (p, c) in enumerate(pairs, start) if p != c)
    return None
