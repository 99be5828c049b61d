"""Coordinate-rewriting partial homeomorphisms on the coded product space.

A branch is indexed by a pair (s, t) with |t| = |s| + 1.  Its clopen domain
demands coordinate 1 at the coded index of s⌈j ⌢ t⌈(j+1) for every j <= |s|
and a non-1 coordinate at the coded index of s⌈j ⌢ t⌈j ⌢ p for p < t(j).
The map rewrites exactly the must-be-1 indices q, replacing the 1 there with
the code of the input's length-(q+1) prefix; everything else is preserved.

For fixed s the branch domains over t are pairwise disjoint with dense union,
so the branches glue to one partial map per s; the family is enumerated by
ranking the s parts by their coded value (slot n of the enumeration is the
glued map for the n-th sequence in code order).

``find_branch(s, x)`` finds the one branch at stem s whose domain holds x,
greedily, level by level; ``walk_branches`` does so for many stems at once,
scanning each level once: a stem's levels are its parent's plus one, so
over a prefix-closed list of stems it makes one level scan per stem.  Which
levels those are depends on the stems alone (``stem_walk``), so a caller
that places many points under one stem list builds that walk once and runs
it at each point.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache

from .base import CapacityError, DomainError, HorizonError, Record, Tri
from .alphabet import PointPrefix
from .prime_coding import decode, encode, make_code_value_sparse, nth_prime

DEFAULT_HORIZON = 10**6


class BranchIndex(Record):
    """A branch (s, t) with |t| = |s| + 1.  A ``Record`` of (s, t), so it
    keys the ``constraints`` cache and suite tables."""

    __slots__ = ("s", "t")

    def __init__(self, s: tuple[int, ...], t: tuple[int, ...]):
        if len(t) != len(s) + 1:
            raise ValueError("branch index needs |t| = |s| + 1")
        if any(e < 0 for e in s) or any(e < 0 for e in t):
            raise ValueError("branch entries must be naturals")
        super().__init__(s, t)

    def top_index(self) -> int:
        """Largest rewritten coordinate: the code of s ⌢ t."""
        return encode(self.s + self.t)

    def __repr__(self) -> str:
        return f"(s={list(self.s)}, t={list(self.t)})"


class CylinderConstraint(Record):
    """Clopen domain data: must-be-1 and must-not-be-1 coordinate index sets.
    A ``Record`` of (ones: tuple[int, ...], non_ones: tuple[int, ...])."""

    __slots__ = ("ones", "non_ones")

    def membership(self, x: PointPrefix) -> Tri:
        """Domain membership on the decidable range: a readable violation is
        decisive (NO) even if other constrained indices are unreadable.

        Reads the prefix directly: a coordinate below ``x.length`` is 1
        unless it has an override (overrides are never 1), one at or past it
        is 1 under the all-ones tail and unreadable without it."""
        length, tail, values = x.length, x.tail_ones, x.override_map
        unknown = False
        for q in self.ones:
            if q < length:
                if q in values:
                    return Tri.NO
            elif not tail:
                unknown = True
        for q in self.non_ones:
            if q < length:
                if q not in values:
                    return Tri.NO
            elif tail:
                return Tri.NO
            else:
                unknown = True
        return Tri.UNKNOWN if unknown else Tri.YES


@lru_cache(maxsize=4096)
def level_start(base: tuple[int, ...]) -> tuple[int, int]:
    """The code of base ⌢ 0 and the prime q = q_|base|.  The indices a level
    with base b constrains are code(b ⌢ p) = code(b ⌢ 0) * q**p, so
    ``constraints``, ``find_branch`` and the relation witness search step
    through them by multiplying by q."""
    q = nth_prime(len(base))
    return (encode(base) if base else 1) * q, q


@lru_cache(maxsize=65536)
def constraints(b: BranchIndex) -> CylinderConstraint:
    ones = []
    non_ones = []
    for j in range(len(b.s) + 1):
        idx, q = level_start(b.s[:j] + b.t[:j])
        for _ in range(b.t[j]):
            non_ones.append(idx)
            idx *= q
        ones.append(idx)
    return CylinderConstraint(tuple(ones), tuple(sorted(non_ones)))


def in_domain(x: PointPrefix, b: BranchIndex) -> Tri:
    """Membership of x in the domain of b (``CylinderConstraint.membership``)."""
    return constraints(b).membership(x)


def apply(b: BranchIndex, x: PointPrefix) -> PointPrefix:
    """Image of x under the branch map: ``image`` under b's constraint."""
    return image(b, constraints(b), x)


def image(b: BranchIndex, cons: CylinderConstraint, x: PointPrefix) -> PointPrefix:
    """Image of x under the map that rewrites the must-be-1 indices of the
    domain ``cons`` (b names the branch in errors).  ``apply`` passes b's
    own constraint; a suite that holds a table of constraints passes the
    one it holds.

    Raises DomainError when x is decidably outside the domain and HorizonError
    (carrying the needed index) when the prefix is too short to decide.  A
    decided membership has read every rewritten index, so every rewrite is
    readable too, and x reads 1 there: the rewrites are added to x's
    overrides.  The rewrite at each must-be-1 index q is
    ``_rewrite_value(x, q)``, the rule ``apply_inverse`` checks.
    """
    membership = cons.membership(x)
    if membership is Tri.NO:
        raise DomainError(f"point is outside the domain of {b}")
    if membership is Tri.UNKNOWN:
        needed = max(cons.ones + cons.non_ones)
        raise HorizonError(needed, f"prefix too short to decide membership in {b}")
    ones = cons.ones
    rewrites = tuple([(q, _rewrite_value(x, q)) for q in ones])
    return x.with_overrides(max(x.length, ones[-1] + 1), rewrites)


def _rewrite_value(x: PointPrefix, q: int):
    """The value a branch writes at q: the code of x's length-(q+1) prefix,
    whose non-1 entries are x's overrides below q, already canonical."""
    return make_code_value_sparse(q + 1, x.overrides_below(q), canonical=True)


def apply_inverse(b: BranchIndex, y: PointPrefix) -> tuple[Tri, PointPrefix | None]:
    """Partial inverse: reconstructs x with 1 at every rewritten index, then
    checks that y carries exactly the rewritten values and that x satisfies
    the domain constraints."""
    cons = constraints(b)
    x = y.without(set(cons.ones))
    for q in cons.ones:
        got = y.coord(q)
        if got is Tri.UNKNOWN:
            return Tri.UNKNOWN, None
        if got != _rewrite_value(x, q):
            return Tri.NO, None
    membership = cons.membership(x)
    if membership is not Tri.YES:
        return membership, None
    return Tri.YES, x


def find_branch(
    s: tuple[int, ...], x: PointPrefix, horizon: int = DEFAULT_HORIZON
) -> tuple[Tri, tuple[int, ...] | None]:
    """Greedy branch discovery: level by level, t(j) is the least p whose
    candidate index reads 1 at x.  When it succeeds the branch is the unique
    one at this s-level containing x (domains over t are pairwise disjoint).
    Never definitely fails: a finite prefix cannot refute every t, and a scan
    leaving the index horizon reports unknown; a negative horizon is
    refused.  The one-stem case of ``walk_branches``."""
    return walk_branches(stem_walk((s,)), x, horizon)[0]


def stem_walk(stems) -> tuple[tuple, tuple]:
    """The level scans ``walk_branches`` makes for these stems, whatever
    the point: (levels, ends).

    The first |s| levels of a stem's scan are its parent's (s less its last
    entry): their bases s⌈j ⌢ t⌈j do not read s's last entry.  So a stem's
    t is its parent's t and one more level, scanned at base s ⌢ t(parent).
    Each prefix met is scanned once, when first met: stems listed parents
    first (as ``sequences_below`` lists a prefix-closed set, in code order)
    cost one level scan each, and any other stem scans on from its deepest
    prefix met so far.  ``levels`` holds (prefix, slot of its parent's t)
    for each prefix met, in that order; level i's t goes to slot i + 1, and
    slot 0 holds the empty t the empty prefix's scan extends.  ``ends``
    holds each stem's slot.  A point pays only for the scans, so a caller
    that walks one stem list at many points builds the walk once."""
    slot_of: dict[tuple, int] = {}  # prefix met -> slot of its t
    levels: list[tuple] = []
    ends = []
    for s in stems:
        k = len(s)
        while k >= 0 and s[:k] not in slot_of:
            k -= 1
        slot = slot_of[s[:k]] if k >= 0 else 0
        for j in range(k + 1, len(s) + 1):
            levels.append((s[:j], slot))
            slot = slot_of[s[:j]] = len(levels)
        ends.append(slot)
    return tuple(levels), tuple(ends)


def walk_branches(
    walk: tuple[tuple, tuple], x: PointPrefix, horizon: int = DEFAULT_HORIZON
) -> list[tuple[Tri, tuple[int, ...] | None]]:
    """``find_branch(s, x, horizon)`` for every stem s of the ``stem_walk``
    ``walk``, in order: each level scanned once, at base prefix ⌢ t(parent),
    and a parent the scan gave no verdict (t None) gives its children
    none.  Refuses a negative horizon."""
    if horizon < 0:
        raise ValueError("horizon must be a natural")
    levels, ends = walk
    found: list[tuple | None] = [()]  # t by slot
    for prefix, parent in levels:
        t = found[parent]
        if t is not None:
            p = _scan_level(prefix + t, x, horizon)
            t = None if p is None else t + (p,)
        found.append(t)
    unknown = (Tri.UNKNOWN, None)
    return [unknown if t is None else (Tri.YES, t) for t in map(found.__getitem__, ends)]


def _scan_level(base: tuple[int, ...], x: PointPrefix, horizon: int) -> int | None:
    """The least p whose index code(base ⌢ p) reads 1 at x; None when the
    scan passes the index horizon or an unreadable index first.  Reads the
    prefix directly, as ``CylinderConstraint.membership`` does."""
    idx, q = level_start(base)
    length, tail, values = x.length, x.tail_ones, x.override_map
    p = 0
    while idx <= horizon:
        if idx >= length:
            return p if tail else None
        if idx not in values:
            return p
        p += 1
        idx *= q
    return None


# --- enumeration of sequences by coded value --------------------------------

# Ranks and branch numbers are served for sequences coded at most this value.
CODE_CAP = 10**8

_codes: list[int] = [0]
_codes_limit = 1  # all codes < _codes_limit are present in _codes


def _codes_below(limit: int) -> list[int]:
    """Every code < limit, sorted: a depth-first walk over sequences, giving
    entry i the exponents of q_i that keep the product below the limit."""
    found = [0] if limit > 0 else []
    stack = [(1, 0)]  # (code of a prefix, index of its next prime)
    while stack:
        value, i = stack.pop()
        q = nth_prime(i)
        value *= q  # entry 0 contributes q^1
        while value < limit:
            found.append(value)
            stack.append((value, i + 1))
            value *= q
    found.sort()
    return found


def _ensure_codes(limit: int) -> None:
    global _codes, _codes_limit
    if limit <= _codes_limit:
        return
    # at least double, so a run of growing requests regenerates rarely
    limit = max(limit, 2 * _codes_limit)
    # the table first, then its limit: every code below _codes_limit is in
    # _codes at every point
    _codes = _codes_below(limit)
    _codes_limit = limit


def e(n: int) -> tuple[int, ...]:
    """The n-th finite sequence in increasing code order; e(0) = ()."""
    if n < 0:
        raise ValueError("rank must be a natural")
    if n >= len(_codes) or _codes[n] > CODE_CAP:
        _ensure_codes(CODE_CAP + 1)
        if n >= len(_codes) or _codes[n] > CODE_CAP:
            raise CapacityError("sequence rank beyond the enumeration cap")
    return decode(_codes[n])


def e_inv(s: tuple[int, ...]) -> int:
    """Rank of a sequence in code order; strictly grows under extension."""
    c = encode(s)
    if c > CODE_CAP:
        raise CapacityError("sequence rank beyond the enumeration cap")
    _ensure_codes(c + 1)
    return bisect_left(_codes, c)


def sequences_below(limit: int) -> list[tuple[int, ...]]:
    """Every sequence whose code is below ``limit``, in code order."""
    _ensure_codes(limit)
    codes = _codes
    return [decode(c) for c in codes[: bisect_left(codes, limit)]]


def branches_within(horizon: int) -> list[BranchIndex]:
    """Every branch index whose top rewritten coordinate is < horizon,
    ordered by that coordinate.  Sequences of odd length 2k+1 split into
    (first k entries, last k+1 entries)."""
    out = []
    for w in sequences_below(horizon):
        if len(w) % 2 == 1:
            k = len(w) // 2
            out.append(BranchIndex(w[:k], w[k:]))
    return out


def apply_fn(n: int, x: PointPrefix) -> tuple[Tri, PointPrefix | None]:
    """Glued map number n: greedy branch discovery for s = e(n), then apply.

    The no arm cannot fire for these glued domains: a finite prefix can
    confirm membership but never refute every branch.
    """
    s = e(n)
    outcome, t = find_branch(s, x)
    if outcome is not Tri.YES:
        return outcome, None
    return Tri.YES, apply(BranchIndex(s, t), x)


def branch_by_rank(n: int, p: int) -> BranchIndex:
    """Branch number (n, p): s = e(n), t the p-th tuple of length |s|+1 in
    increasing code order."""
    if p < 0:
        raise ValueError("branch rank must be a natural")
    s = e(n)
    tails = [w for w in sequences_below(CODE_CAP + 1) if len(w) == len(s) + 1]
    if p >= len(tails):
        raise CapacityError("branch rank beyond the enumeration cap")
    return BranchIndex(s, tails[p])
