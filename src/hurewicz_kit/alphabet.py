"""Finite alphabets of the coded product space, node enumeration, and point prefixes.

Level i's alphabet is {1} together with the codes of u⌢1 for u ranging over
the depth-i nodes, so sizes obey |A_i| = 1 + prod(|A_p| for p < i): 2, 3, 7,
43, 1807, ...  Points of the product space are only ever represented as
finite prefixes; a flag states that every further coordinate equals 1.
"""

from __future__ import annotations

import itertools
from functools import cmp_to_key, lru_cache

from .base import CapacityError, Tri
from . import prime_coding
from .prime_coding import (
    SymbolicCode,
    code_value_cmp,
    make_code_value,
    nth_prime,
    scaled_log_sign,
)

DEFAULT_DEPTH_CAP = 5

_alpha_cache: list[tuple] = []


def member_cmp(level: int, x, y) -> int:
    """Exact value order of two alphabet members at the given level."""
    if x == y:
        return 0
    if x == 1:
        return -1
    if y == 1:
        return 1
    if isinstance(x, int) and isinstance(y, int):
        return -1 if x < y else 1
    if level <= 3 or isinstance(x, int) or isinstance(y, int):
        # level <= 3 factored members have plain-int entries; mixed pairs are
        # separated by the materialization cutoff with a wide margin either way
        return code_value_cmp(x, y)
    if level > 4:
        raise CapacityError("ordering beyond level 4 exceeds the configured caps")
    d1, d2 = x.entry(3), y.entry(3)
    if d1 != d2 and (isinstance(d1, SymbolicCode) or isinstance(d2, SymbolicCode)):
        # a differing level-3 entry past the cutoff outgrows every residual
        # factor (distinct level-3 values have ratio >= 8)
        return member_cmp(3, d1, d2)
    if d1 == d2:
        terms = []
        for i in range(3):
            terms.append((x.entry(i) + 1, nth_prime(i)))
            terms.append((-(y.entry(i) + 1), nth_prime(i)))
        return scaled_log_sign(terms)
    return code_value_cmp(x, y)


def alphabets(depth: int, cap: int = DEFAULT_DEPTH_CAP) -> list[tuple]:
    """A_0 .. A_{depth-1}, each sorted ascending by value."""
    if depth < 0:
        raise ValueError("depth must be a natural")
    if depth > cap:
        raise CapacityError(
            f"depth {depth} exceeds the cap {cap}; node counts explode combinatorially"
        )
    while len(_alpha_cache) < depth:
        i = len(_alpha_cache)
        members = [1]
        for u in itertools.product(*_alpha_cache):
            members.append(make_code_value(u + (1,)))
        members.sort(key=cmp_to_key(lambda a, b: member_cmp(i, a, b)))
        _alpha_cache.append(tuple(members))
    return [_alpha_cache[i] for i in range(depth)]


def alphabet_at(level: int, cap: int = DEFAULT_DEPTH_CAP) -> tuple:
    return alphabets(level + 1, cap)[level]


def node_count(p: int, cap: int = DEFAULT_DEPTH_CAP) -> int:
    count = 1
    for a in alphabets(p, cap):
        count *= len(a)
    return count


def enumerate_nodes(p: int, cap: int = DEFAULT_DEPTH_CAP) -> list[tuple]:
    """All depth-p nodes in lexicographic order (first coordinate most
    significant); product of sorted alphabets, so no duplicates."""
    return list(itertools.product(*alphabets(p, cap)))


def member_valid(level: int, v) -> bool:
    """Whether ``v`` belongs to the level's alphabet: 1, or the code of u⌢1
    with u a valid depth-``level`` node."""
    if v == 1:
        return True
    if isinstance(v, SymbolicCode):
        if v.length != level + 1 or v.entry(level) != 1:
            return False
        return all(member_valid(p, w) for p, w in v.items)
    if not isinstance(v, int):
        return False
    return _int_member_valid(level, v)


@lru_cache(maxsize=1024)
def _int_member_valid(level: int, v: int) -> bool:
    """``member_valid`` for an int: each distinct value is decoded and checked
    once.  Rewritten coordinates repeat a few hundred alphabet members, so the
    bound holds them all; ones and factored values never enter the cache."""
    seq = prime_coding.decode(v)
    if seq is None or len(seq) != level + 1 or seq[-1] != 1:
        return False
    return all(member_valid(i, w) for i, w in enumerate(seq[:-1]) if w != 1)


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


class PointPrefix:
    """Finite approximation of a point of the product space.

    Coordinates below ``length`` are explicit (stored sparsely: positions whose
    value differs from 1).  With ``tail_ones`` set the prefix denotes the point
    obtained by extending with 1s forever; otherwise coordinates at or beyond
    ``length`` are undetermined.
    """

    __slots__ = ("length", "tail_ones", "overrides", "_map")

    def __init__(self, length: int, overrides=(), tail_ones: bool = False):
        items = tuple(sorted((p, v) for p, v in overrides if v != 1))
        for p, v in items:
            if not 0 <= p < length:
                raise ValueError("override position outside the explicit prefix")
        self.length = length
        self.tail_ones = tail_ones
        self.overrides = items
        self._map = dict(items)

    @classmethod
    def from_entries(cls, entries, tail_ones: bool = False) -> "PointPrefix":
        entries = tuple(entries)
        return cls(len(entries), tuple(enumerate(entries)), tail_ones)

    def coord(self, i: int):
        if i < 0:
            raise IndexError(i)
        if i < self.length:
            return self._map.get(i, 1)
        if self.tail_ones:
            return 1
        return Tri.UNKNOWN

    def decidable_limit(self) -> float:
        return float("inf") if self.tail_ones else float(self.length)

    def entries(self) -> tuple:
        return tuple(self._map.get(i, 1) for i in range(self.length))

    def key(self):
        """Denotation key: two prefixes with equal key denote the same data."""
        if self.tail_ones:
            return ("point", frozenset(self.overrides))
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
    """
    limit = min(x.decidable_limit(), y.decidable_limit())
    for i in sorted(set(x._map) | set(y._map)):
        if i >= limit:
            break
        if x._map.get(i, 1) != y._map.get(i, 1):
            return i
    if x.tail_ones and y.tail_ones:
        return None
    return Tri.UNKNOWN

