"""Index-substitution self-maps of the binary sequence space.

Each finite sequence s of positive naturals determines a total map h_s whose
output bit k reads input bit sigma_s(k): writing D_j = J(s|j) / q_{j-1} for
the level divisors (J the prime-power coding), sigma_s sends k to
J(s|i)*q - D_i - 1 where i is the largest level with D_i dividing k+1 and
q = (k+1)/D_i, and fixes every k whose successor is divisible by no level
divisor.  Maps at different indices disagree densely, and extending the index
moves the first possible disagreement out beyond J(s⌢k)/q_{|s|} - 1.

A dense-disagreement witness extends a word u to a prefix on which the maps
at two distinct indices disagree.  Past u it is all 0s but a single 1, and
it depends only on the two indices and |u|, so witness_bits sweeps a pair
over many words in sparse form: it checks the two indices once, runs one
search over the candidate output indices for the pair, resumed as the words
grow, and yields one witness (u, end, one, k) per word as it goes, never
building its bytes.  disagreement_witness is the one-word case at the public
API and the one place a witness is built: it takes a BitPrefix word too and
wraps its witness in a BitPrefix.
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


# 0, 1, 2, ...: a prefix of at most len(_IDENTITY) values starts as a slice
# of this one list, so its sieve creates no int for the indices it leaves
# fixed; a longer prefix starts from its own range.  Only _extend_identity
# grows it, which the good suite calls with its horizon (at most
# verifier.HORIZON_CAP), so it is kept for the life of the process at the
# largest horizon asked.
_IDENTITY: list[int] = []


def _extend_identity(n: int) -> None:
    """Grow _IDENTITY to at least n values."""
    if n > len(_IDENTITY):
        _IDENTITY.extend(range(len(_IDENTITY), n))


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
        if n <= len(_IDENTITY):
            out = _IDENTITY[start:n]
        else:
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
    read-only.  Each byte of both is a bit, 0 or 1; any other byte is refused
    with ValueError."""

    __slots__ = ("bits", "tail")

    def __init__(self, bits: bytes, tail: bytes | None = None):
        for word in (bits, tail or b""):
            if word.translate(None, b"\x00\x01"):
                raise ValueError(f"a bit is 0 or 1, not a byte of {bytes(word)!r}")
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
    prefix is built here from witness_bits' sparse form: u, then 0s to its
    end, with a single 1.  A BitPrefix u with a tail is refused, since no
    finite prefix extends it, and so is a word with a byte other than 0 or 1.
    """
    if not isinstance(u, BitPrefix):
        u = BitPrefix(bytes(u))
    if u.tail:
        raise ValueError(f"a witness extends a finite word, not {u!r}")
    head, end, one, k = next(witness_bits(s, t, (u.bits,)))
    x = bytearray(end)
    x[: len(head)] = head
    x[one] = 1
    return BitPrefix(bytes(x)), k


def witness_bits(s, t, words):
    """(head, end, one, k) for each bytes word u of ``words``, in order,
    yielded one at a time: the witness in sparse form and the disagreeing
    output index.  The witness is head (u itself), then 0s up to end, with a
    single 1 at one; it is never built here.  s and t are checked here,
    before the first word.  One candidate search runs per call
    (_candidates); it advances while a word covers its candidate's nearer
    source and restarts only when a word is shorter than the one before, so
    words may come in any order of lengths."""
    s = _check_index(s)
    t = _check_index(t)
    if s == t:
        raise ValueError("indices must differ")
    return _sweep(s, t, words)


# Longest witness tail past its word that witness_bits accepts.  A tail grows
# exponentially with the indices' entries (the pair (1), (30) needs 2^31 - 2
# bytes); acceptance gate 6's longest is 1,248 bytes.  The sweep never builds
# a tail, but disagreement_witness does, so a longer one is refused.
WITNESS_TAIL_CAP = 1 << 16


def _sweep(s: tuple[int, ...], t: tuple[int, ...], words):
    """The sparse witnesses of witness_bits for distinct checked indices.

    A power serves length n when its two source coordinates a and b are both
    at least n, so the powers that serve n shrink as n grows: the first to
    serve a longer word is at or after the first to serve a shorter one.  The
    search therefore advances from its current candidate while min(a, b) < n
    and starts over from power 1 only when a word is shorter than the one
    before.  a lies under the index taking bit 0, b under the one taking bit
    1, and the witness ends at max(a, b) + 1.  A tail past the word longer
    than WITNESS_TAIL_CAP is refused with CapacityError."""
    s, t, base, step = _orient(s, t)
    n = None
    for u in words:
        if len(u) != n:
            if n is None or len(u) < n:
                search = _candidates(s, t, base, step)
                k, a, b = next(search)
            n = len(u)
            while min(a, b) < n:
                k, a, b = next(search)
            end = max(a, b) + 1
            if end - n > WITNESS_TAIL_CAP:
                raise CapacityError(
                    f"the witness for indices {s} and {t} past a word of length {n} "
                    f"needs a tail of {end - n} bytes, over the cap {WITNESS_TAIL_CAP}"
                )
        yield u, end, b, k


def _orient(s: tuple[int, ...], t: tuple[int, ...]):
    """(s, t, base, step) for distinct checked indices: the pair ordered so
    that s takes bit 0 and t bit 1, and the output indices k = base * step^p
    - 1 whose source coordinates are searched.  With a first differing level
    m, t is the side with the larger entry there, base its level-(m+1)
    divisor and step q_{m+2}; with one index a strict prefix of the other, t
    is the longer, base its last divisor and step the next prime past it."""
    m = next((i for i in range(min(len(s), len(t))) if s[i] != t[i]), None)
    if m is not None:
        if s[m] > t[m]:
            s, t = t, s
        return s, t, _divisors(t)[m], nth_prime(m + 2)
    if len(s) > len(t):
        s, t = t, s
    return s, t, _divisors(t)[-1], nth_prime(len(t) + 1)


def _candidates(s: tuple[int, ...], t: tuple[int, ...], base: int, step: int):
    """(k, a, b) for k = base * step^p - 1, p = 0, 1, ..., with a = sigma_s(k)
    and b = sigma_t(k) distinct, in increasing power."""
    sig_s, sig_t = _index_map(s), _index_map(t)
    power = 1
    while True:
        k = base * power - 1
        a, b = sig_s(k), sig_t(k)
        if a != b:
            yield k, a, b
        power *= step


# values compared per step by agreement_below_bound, bounding its memory
_WINDOW = 1 << 14


def agreement_below_bound(s, k: int, horizon: int) -> int | None:
    """First index below min(bound, horizon) where the index maps of s⌢k and s
    differ, or None; expected None by the convergence bound.  Both maps are
    read _WINDOW values at a time, so memory does not grow with the horizon;
    each window's two lists are compared whole, and only a window where they
    differ is scanned for its first differing index.  Refuses a negative
    horizon.  The good suite makes the same check on the values its
    index-map checks sieve (verifier._index_map_checks), not through this
    one-pair form."""
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
