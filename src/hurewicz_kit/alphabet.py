"""Finite alphabets of the coded product space, node enumeration, and point prefixes.

Level i's alphabet is {1} together with the codes of u⌢1 for u ranging over
the depth-i nodes, so sizes obey |A_i| = 1 + prod(|A_p| for p < i): 2, 3, 7,
43, 1807, ...  Points of the product space are only ever represented as
finite prefixes; a flag states that every further coordinate equals 1.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import cmp_to_key, lru_cache
from operator import itemgetter

from .base import CapacityError, Tri
from . import prime_coding
from .prime_coding import (
    FIXED_LOG_ERROR,
    SymbolicCode,
    code_value_cmp,
    fixed_log,
    make_code_value_sparse,
    nth_prime,
    scaled_log_sign,
)

DEFAULT_DEPTH_CAP = 5

# Node lists are refused above this many nodes.  Depth 4 has 1,806; depth 5
# has 3,263,442, whose tuples alone take over a gigabyte and whose relation
# graph takes about a minute.
NODE_COUNT_CAP = 100_000

_alpha_cache: list[tuple] = []
_ranks: dict[int, tuple[tuple, dict]] = {}  # level -> (A_level, {member: position})


def member_rank(level: int, v) -> int:
    """The position of v in the sorted A_level, or ValueError: one dict per
    level, built on first use and again when the cached A_level is replaced."""
    members = alphabet_at(level)
    if _ranks.get(level, (None,))[0] is not members:
        _ranks[level] = (members, {m: k for k, m in enumerate(members)})
    try:
        return _ranks[level][1][v]
    except (KeyError, TypeError):  # TypeError: an unhashable v is no member
        raise ValueError(f"not a member of A_{level}") from None


def member_cmp(level: int, x, y) -> int:
    """Exact value order of two alphabet members at the given level.

    Ints compare by value.  Up to level 4 any other pair compares by its
    ranks (``member_rank``), and a member not in A_level raises ValueError.
    Past level 4 an int against a factored member goes to
    ``code_value_cmp`` (the materialization cutoff separates them with a
    wide margin), and two factored members are refused."""
    if x == y:
        return 0
    if x == 1:
        return -1
    if y == 1:
        return 1
    if isinstance(x, int) and isinstance(y, int):
        return -1 if x < y else 1
    if level < DEFAULT_DEPTH_CAP:
        return -1 if member_rank(level, x) < member_rank(level, y) else 1
    if isinstance(x, int) or isinstance(y, int):
        return code_value_cmp(x, y)
    raise CapacityError("ordering beyond level 4 exceeds the configured caps")


def _certified_cmp(kx: tuple, ky: tuple) -> int | None:
    """Order of two same-level members read off their keys (S,
    coefficients); None when the keys cannot decide it.

    The gap S_y - S_x equals sum(Δ_j * fixed_log(q_j)) over the coefficient
    differences Δ (equal entries cancel exactly), so it lies within
    FIXED_LOG_ERROR * sum(|Δ_j|) of 2**FIXED_LOG_BITS * (ln y - ln x) (see
    prime_coding.fixed_log): a gap outside that interval decides the sign
    of ln y - ln x.
    """
    gap = ky[0] - kx[0]
    err = FIXED_LOG_ERROR * sum(abs(a - b) for a, b in zip(kx[1], ky[1]))
    if gap > err:
        return -1
    if gap < -err:
        return 1
    return None


def _exact_cmp(a: tuple, b: tuple) -> int:
    """Exact order of two (key, member) pairs: ``_certified_cmp`` decides
    when it can; else the log ladder decides on the keys' coefficient
    differences."""
    c = _certified_cmp(a[0], b[0])
    if c is None:
        diffs = [x - y for x, y in zip(a[0][1], b[0][1])]
        c = scaled_log_sign(zip(diffs, map(nth_prime, itertools.count())))
    return c


def _keyed_members(level: int, lower: list[tuple]) -> list[tuple]:
    """(key, member) for every member code(u⌢1) of A_level other than 1
    whose entries u are all ints, unsorted, given the sorted alphabets
    A_0 .. A_{level-1}.

    ln code(u⌢1) = sum((u_j + 1) * ln q_j) + 2 * ln q_len(u), and the terms
    that every member of the level shares cancel in any difference, so the
    key is S = sum(u_j * fixed_log(q_j)) and the coefficients u.  The
    product is walked one level at a time, each entry v of A_j adding its
    item and its S term v * fixed_log(q_j); each member is then the value
    ``make_code_value_sparse`` gives its items.
    """
    # (coefficients, items, S)
    combos = [((), (), 0)]
    for j, members in enumerate(lower):
        logq = fixed_log(nth_prime(j))
        parts = [
            (v, ((j, v),) if v != 1 else (), v * logq)
            for v in members
            if v.__class__ is not SymbolicCode
        ]
        combos = [
            (u + (v,), its + item, s + vs)
            for u, its, s in combos
            for v, item, vs in parts
        ]
    return [
        ((s, u), make_code_value_sparse(level + 1, its, canonical=True))
        for u, its, s in combos
    ]


def _laid_out_members(lower: list[tuple]) -> tuple:
    """The members of A_4 whose level-3 entry d is factored, in order: for
    each factored d in A_3 order, code(h, d, 1) for each head h = (a, b, c)
    in the order A_3 gives code(h, 1) (see ``alphabets``).  Each is factored
    (an entry is), so it is built from its items alone."""
    a3 = lower[3]
    heads = {m: u for (_, u), m in _keyed_members(3, lower[:3])}
    items = [tuple((j, v) for j, v in enumerate(heads[m]) if v != 1) for m in a3[1:]]
    return tuple(
        tuple.__new__(SymbolicCode, (5, its + ((3, d),)))
        for d in a3
        if d.__class__ is SymbolicCode
        for its in items
    )


def _check_depth(depth: int) -> None:
    if depth < 0:
        raise ValueError("depth must be a natural")
    if depth > DEFAULT_DEPTH_CAP:
        raise CapacityError(
            f"depth {depth} exceeds the cap {DEFAULT_DEPTH_CAP}; "
            "node counts explode combinatorially"
        )


def alphabets(depth: int) -> list[tuple]:
    """A_0 .. A_{depth-1}, each sorted ascending by value.

    The members with int entries are keyed once (``_keyed_members``),
    presorted by S and then sorted by ``_exact_cmp``, so every decision is
    exact.  At level 4 the members whose level-3 entry is factored are laid
    out in order without a key or a comparison (``_laid_out_members``), by
    two rules this proves; ``member_cmp`` reads it by ``member_rank``.  Let
    x = code(a, b, c, d, 1) and y = code(a', b', c', d', 1) be level-4
    members with d < d' in A_3.  Then ln y - ln x >= (d' - d) * ln 7 - R,
    where R = 3 ln 2 + 287 ln 3 + (max A_2) ln 5 < 2**470 bounds the first
    three terms (A_0 = {1, 4}, A_1 = {1, 36, 288}, max A_2 < 2**470).
    - Distinct members of A_3 differ by a factor of at least 8.  Every code
      is at least 4 * 9 * 25 * 49, far above 1.  Two codes of (a, b, c, 1)
      have ratio 2**Δa * 3**Δb * 5**Δc with |Δa| in {0, 3}, |Δb| in
      {0, 35, 252, 287}, and |Δc| = 0 or >= 899 (the least gap in A_2).
      With Δc != 0, 5**899 > 2**3 * 3**287 * 8; with Δc = 0 and Δb != 0,
      3**35 > 2**3 * 8; with Δa alone nonzero the ratio is 8.
    - A factored member of A_3 has c >= 7200 and so exceeds 5**7201: with
      c <= 900 the code has under 2600 bits and is materialized.  Every int
      member is below 2**4097 (the materialization cutoff).
    So if d' is factored, d' - d >= 7d'/8 > 5**7200 dwarfs R and y > x: a
    differing level-3 entry, when the larger one is factored, decides by the
    A_3 order.  The larger of two differing level-3 entries is factored
    whenever either is, because every int member of A_3 lies below every
    factored one; so every member with an int d comes before every member
    with a factored d, and those follow by the rank of d in A_3.  Members
    with the same factored d differ only in h = (a, b, c), and
    ln y - ln x = ln code(h', 1) - ln code(h, 1): they follow A_3's own
    order of its non-1 members.
    """
    _check_depth(depth)
    while len(_alpha_cache) < depth:
        level = len(_alpha_cache)
        keyed = _keyed_members(level, _alpha_cache)
        # presorted by S, the exact pass needs about one comparison per member
        keyed.sort(key=lambda km: km[0][0])
        keyed.sort(key=cmp_to_key(_exact_cmp))
        # only level 4 (the last within the depth cap) has a factored entry
        laid = _laid_out_members(_alpha_cache) if level == 4 else ()
        _alpha_cache.append((1,) + tuple(m for _, m in keyed) + laid)
    return [_alpha_cache[i] for i in range(depth)]


def alphabet_at(level: int) -> tuple:
    """A_level, sorted.  Refuses a negative level as ``alphabets`` refuses
    a negative depth, and a level whose depth level + 1 it refuses."""
    if level < 0:
        raise ValueError("depth must be a natural")
    return alphabets(level + 1)[level]


def node_count(p: int) -> int:
    """The number of depth-p nodes, prod(|A_i| for i < p), from the size
    recurrence |A_i| = 1 + prod(|A_j| for j < i) alone: no member is built.
    Refuses the depths ``alphabets`` refuses."""
    _check_depth(p)
    count = 1
    for _ in range(p):
        count *= count + 1
    return count


def require_node_count(p: int) -> None:
    """Refuse depth p with CapacityError when it has over NODE_COUNT_CAP nodes."""
    count = node_count(p)
    if count > NODE_COUNT_CAP:
        raise CapacityError(
            f"depth {p} has {count} nodes, over the node-count cap {NODE_COUNT_CAP}"
        )


def enumerate_nodes(p: int) -> list[tuple]:
    """All depth-p nodes in lexicographic order (first coordinate most
    significant); product of sorted alphabets, so no duplicates.  Raises
    CapacityError, before building any node, above NODE_COUNT_CAP nodes."""
    require_node_count(p)
    return list(itertools.product(*alphabets(p)))


def member_valid(level: int, v) -> bool:
    """Whether ``v`` belongs to the level's alphabet: 1, or the code of u⌢1
    with u a valid depth-``level`` node."""
    # a factored code is never 1, so it skips the test for 1; its items are
    # non-1 and sorted, so the last position reads 1 unless it is an item
    if v.__class__ is SymbolicCode:
        length, items = v
        if length != level + 1 or (items and items[-1][0] == level):
            return False
        for p, w in items:
            if w.__class__ is SymbolicCode:
                if not member_valid(p, w):
                    return False
            elif w.__class__ is not int or not _int_member_valid(p, w):
                return False
        return True
    if v == 1:
        return True
    if not isinstance(v, int):
        return False
    return _int_member_valid(level, v)


@lru_cache(maxsize=1024)
def _int_member_valid(level: int, v: int) -> bool:
    """``member_valid`` for an int, by dividing out the all-ones code.

    Let L = level and O = code((1,) * (L+1)) = prod(q_i**2 for i <= L).  A
    member code(u_0, ..., u_{L-1}, 1) has every entry >= 1 (members are 1 or
    codes of nonempty sequences), so it is O * prod(q_i**(u_i - 1) for i < L):
    O divides it and the quotient has no prime factor q_L or beyond.
    Conversely if v = O * prod(q_i**f_i for i < L) then v is the code of
    (f_0 + 1, ..., f_{L-1} + 1, 1), so v is a member exactly when every
    entry f_i + 1 other than 1 is a member of A_i.  An int that O does not
    divide, or whose quotient keeps a factor q_L or beyond (or any factor
    past the first L primes), is a non-code, a code of another length, a
    code whose last entry is not 1, or a code with an entry 0 (which no
    alphabet holds), so ``decode`` rejects it too.  Only the quotient, which
    carries just the non-1 entries, is factored.

    O is built only for a v that may reach it.  First v < 4**(L+1) <= O is
    rejected, which bounds L by v's size; then so is any v whose bit length
    is at most ``repeated_code_log2_floor(L+1, 1)`` <= log2(O).  A v that
    passes has more than log2(O) - 1 bits, so O, which ``_all_ones_code``
    keeps when its length is materializable, is at most a bit longer than
    v, whatever the level.

    Each distinct value is checked once: rewritten coordinates repeat a few
    hundred alphabet members, so the bound holds them all; ones and factored
    values never enter the cache.
    """
    bits = v.bit_length()
    if bits <= 2 * (level + 1) or bits <= prime_coding.repeated_code_log2_floor(level + 1, 1):
        return False
    ones = prime_coding._all_ones_code(level + 1)
    if v < ones:
        return False
    quot, rem = divmod(v, ones)
    if rem:
        return False
    i = 0
    while quot > 1:
        if i == level:
            return False
        p = nth_prime(i)
        e = 0
        while True:
            q, r = divmod(quot, p)
            if r:
                break
            quot = q
            e += 1
        if e and not member_valid(i, e + 1):
            return False
        i += 1
    return True


def node_valid(u: tuple) -> bool:
    return all(member_valid(i, v) for i, v in enumerate(u))


def lex_compare(x: tuple, y: tuple) -> int:
    """-1/0/1 lexicographic comparison of equal-length nodes."""
    if len(x) != len(y):
        raise ValueError("lexicographic comparison needs equal lengths")
    for i, (a, b) in enumerate(zip(x, y)):
        c = member_cmp(i, a, b)
        if c:
            return c
    return 0


_position = itemgetter(0)  # of a (position, value) override


class PointPrefix:
    """Finite approximation of a point of the product space.

    Coordinates below ``length`` are explicit (stored sparsely: positions whose
    value differs from 1).  With ``tail_ones`` set the prefix denotes the point
    obtained by extending with 1s forever; otherwise coordinates at or beyond
    ``length`` are undetermined.

    ``overrides`` holds the non-1 (position, value) pairs sorted by position,
    every position below ``length`` and none twice, and ``override_map``
    maps the same positions to their values; both are read-only, and no
    two prefixes share a map.  The constructor refuses a negative length and
    a position given twice.

    Some producers build a prefix from fields they have already proven
    valid (``_checked_prefix``), skipping the constructor:
    - ``with_overrides`` tests each added pair and the merged count;
    - ``without`` keeps a subset of valid overrides;
    - ``departure.image`` adds rewrites at indices a decided membership has
      read as 1, each the code of a nonempty sequence (never 1), below the
      new length (``CylinderConstraint``'s constructor proves its must-be-1
      indices distinct naturals);
    - the departure suite's sampler (``verifier._SamplePlan``) writes
      distinct dict keys with non-1 members, at positions below the length
      (the same constructor proves the constrained ones naturals no larger
      than the top).
    """

    __slots__ = ("length", "tail_ones", "overrides", "override_map")

    def __init__(self, length: int, overrides=(), tail_ones: bool = False):
        if length < 0:
            raise ValueError("prefix length must be a natural")
        given = tuple(overrides)
        values = dict(given)
        if len(values) != len(given):
            raise ValueError("override position given twice")
        if 1 in values.values():
            values = {p: v for p, v in values.items() if v != 1}
        # positions are distinct, so the pairs sort by position alone
        items = tuple(sorted(values.items()))
        if items and not (0 <= items[0][0] and items[-1][0] < length):
            raise ValueError("override position outside the explicit prefix")
        self.length = length
        self.tail_ones = tail_ones
        self.overrides = items
        self.override_map = values

    def overrides_below(self, q: int) -> tuple:
        """The overrides at positions below q (sorted, non-1)."""
        items = self.overrides
        return items[: bisect_left(items, q, key=_position)]

    def overrides_from(self, q: int) -> tuple:
        """The overrides at positions q and beyond (sorted, non-1)."""
        items = self.overrides
        return items[bisect_left(items, q, key=_position) :]

    def with_overrides(self, length: int, added: tuple) -> "PointPrefix":
        """``PointPrefix(length, self.overrides + added, self.tail_ones)`` for
        a length at least this prefix's and non-1 pairs ``added`` at distinct
        positions below it where this prefix reads 1, merged without
        re-filtering or re-checking the overrides already held.  This prefix
        is left as it was, also when the pairs are refused."""
        if length < self.length:
            raise ValueError("with_overrides cannot shorten the prefix")
        own = self.override_map
        values = own.copy()
        for p, v in added:
            if not 0 <= p < length or p in own or v == 1:
                raise ValueError("added override must set a 1 inside the prefix")
            values[p] = v
        if len(values) != len(own) + len(added):
            raise ValueError("added overrides repeat a position")
        # positions are distinct, so the pairs sort by position alone
        items = tuple(sorted(self.overrides + added))
        return _checked_prefix(length, self.tail_ones, items, values)

    def without(self, positions) -> "PointPrefix":
        """This prefix with 1 at every coordinate in the set ``positions``."""
        items = tuple(item for item in self.overrides if item[0] not in positions)
        return _checked_prefix(self.length, self.tail_ones, items, dict(items))

    @classmethod
    def from_entries(cls, entries, tail_ones: bool = False) -> "PointPrefix":
        entries = tuple(entries)
        return cls(len(entries), tuple(enumerate(entries)), tail_ones)

    def coord(self, i: int):
        if i < 0:
            raise IndexError(i)
        if i < self.length:
            return self.override_map.get(i, 1)
        if self.tail_ones:
            return 1
        return Tri.UNKNOWN

    def entries(self) -> tuple:
        return tuple(self.override_map.get(i, 1) for i in range(self.length))

    def key(self):
        """Denotation key: two prefixes with equal key denote the same data.
        Overrides are canonical (sorted, one per position), so a completed
        point's overrides alone name it, whatever its explicit length."""
        if self.tail_ones:
            return ("point", self.overrides)
        return ("prefix", self.length, self.overrides)

    def __eq__(self, other) -> bool:
        return isinstance(other, PointPrefix) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        if self.length <= 8:
            body = ",".join(
                prime_coding.render_value(v) if isinstance(v, SymbolicCode) else str(v)
                for v in self.entries()
            )
        else:
            ov = ";".join(f"{p}:{_short(v)}" for p, v in self.overrides)
            body = f"len={self.length}" + (f" [{ov}]" if ov else "")
        tail = "+1^w" if self.tail_ones else "+?"
        return f"({body}){tail}"


def _checked_prefix(length: int, tail_ones: bool, overrides: tuple, override_map: dict):
    """A PointPrefix of checked fields, bypassing the constructor; it owns the map."""
    x = object.__new__(PointPrefix)
    x.length, x.tail_ones = length, tail_ones
    x.overrides, x.override_map = overrides, override_map
    return x


def _short(v) -> str:
    if isinstance(v, int):
        s = str(v)
        return s if len(s) <= 24 else f"{s[:10]}...({len(s)} digits)"
    return prime_coding.factored_str(v)


ALL_ONES = PointPrefix(0, (), tail_ones=True)


def point_from_node(node: tuple, tail_ones: bool = True) -> PointPrefix:
    return PointPrefix.from_entries(node, tail_ones)


def first_disagreement(x: PointPrefix, y: PointPrefix):
    """Least coordinate where the denoted data differ.

    None when provably equal on the whole decidable range (both tails set and
    the explicit parts agree); Tri.UNKNOWN when equality holds on the common
    decidable range but some side is undetermined beyond it.

    Both override tuples are sorted by position and agree pair by pair before
    the first index where they differ.  There the smaller of the two positions
    reads differently on the two sides; when one tuple runs out first, the
    next pair of the other does.  That position is decidable on a side with
    the all-ones tail, and below its length on a side without.
    """
    xs, ys = x.overrides, y.overrides
    for a, b in zip(xs, ys):
        if a != b:
            at = a[0] if a[0] < b[0] else b[0]
            break
    else:
        n, m = len(xs), len(ys)
        at = xs[m][0] if n > m else ys[n][0] if m > n else None
    if at is not None and (x.tail_ones or at < x.length) and (
        y.tail_ones or at < y.length
    ):
        return at
    if x.tail_ones and y.tail_ones:
        return None
    return Tri.UNKNOWN
