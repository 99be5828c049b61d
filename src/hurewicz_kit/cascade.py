"""Executable checker for the metric cascade arithmetic on synthetic distances.

A sample assigns abstract 1-dimensional rational positions to the nodes of a
finite labelled subtree of the positive-integer sequences, standing for the
values of a family of maps at one fixed point; distances are the absolute
differences, so symmetry, vanishing diagonal and the triangle inequality hold
by construction.  The conditions checked are

  (d)  every node keeps positive distance to each of its strict ancestors, and
  (e)  d(child, parent) < eps(child), where eps(s⌢k) is the minimum of 2^-k,
       a quarter of every consecutive ancestor gap, and a quarter of every
       earlier-sibling gap,

and the derived inequality: whenever s and t first differ at level i with
s(i) < t(i), d(s, t) >= d(s|i+1, s|i) / 3.  All arithmetic is exact: every
sample holds integer numerators over one common denominator (a power of two
for generated samples, which are dyadic), and the checkers compute with those
integers.  ``Fraction`` appears only in violation payloads, in ``epsilon``,
and in ``CascadeSample.values`` and ``d``, which derive it on request.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, insort
from fractions import Fraction

from .base import CapacityError, Record, _below

# Numerator bits a generated sample may hold (node count times the bits of
# its scale, see gen_cascade), refused before any work.  The default suite
# shape, depth 4 and branching 4, holds 341 x 160; at the cap the largest
# shapes (a 323-node chain, or depth 11 and branching 2) generate and check
# in well under a second.
SAMPLE_BITS_CAP = 1 << 20

# The derived inequality's factor: d(s, t) >= d(s|i+1, s|i) / SEPARATION_FACTOR.
SEPARATION_FACTOR = 3


def _level_order(node: tuple) -> tuple:
    return (len(node), node)


def _tree(nodes) -> tuple:
    """The nodes by length, then lexicographically.  The checks walk parent
    links, so the family must be closed under prefixes with natural labels."""
    present = set(nodes)
    for n in present:
        if n and (n[-1] < 0 or n[:-1] not in present):
            raise ValueError(f"sample nodes must form a tree of natural labels: {n}")
    return tuple(sorted(present, key=_level_order))


class CascadeSample(Record):
    """Finite family of tree nodes at abstract rational positions, so the
    metric axioms hold by construction.

    Positions are held as integers over one common denominator: node n sits
    at ``nums[n] / scale``, and the checkers compute with those integers.
    ``values``, the positions as Fractions, and ``d``, the distance as a
    Fraction, are derived from them on request.  A ``Record`` of its three
    fields, but unhashable, as ``nums`` is.
    """

    __slots__ = ("nodes", "nums", "scale")

    def __init__(self, nodes: tuple, nums: dict, scale: int = 1):
        super().__init__(nodes, nums, scale)

    __hash__ = None  # nums is a dict

    @classmethod
    def from_values(cls, values: dict) -> "CascadeSample":
        scale = math.lcm(1, *(Fraction(v).denominator for v in values.values()))
        nums = {n: int(v * scale) for n, v in values.items()}
        return cls(_tree(values), nums=nums, scale=scale)

    @property
    def values(self) -> dict:
        """node -> position as a Fraction."""
        return {n: Fraction(x, self.scale) for n, x in self.nums.items()}

    def d(self, y: tuple, z: tuple) -> Fraction:
        return Fraction(abs(self.nums[y] - self.nums[z]), self.scale)


def _radius(k: int, low, unit: int) -> Fraction:
    """eps of a child labelled k whose least gap term is ``low`` (in units of
    1/unit; math.inf when there is none)."""
    eps = Fraction(1, 2**k)
    return eps if low == math.inf else min(eps, Fraction(low, 4 * unit))


def epsilon(sample: CascadeSample, child: tuple) -> Fraction:
    """The admissible-radius minimum for a child node s⌢k.

    The ancestor chain of s must be covered by the sample (missing entries
    raise); sibling terms run over the labels below k that the sample holds,
    which in a complete family is every positive label below k.
    """
    if not child:
        raise ValueError("the root has no admissible radius")
    s, k = child[:-1], child[-1]
    nums = sample.nums
    terms = [abs(nums[s[: i + 1]] - nums[s[:i]]) for i in range(len(s))]
    terms += [abs(nums[s + (j,)] - nums[s]) for j in range(k) if s + (j,) in nums]
    return _radius(k, min(terms, default=math.inf), sample.scale)


class ConditionReport(Record):
    """``check_admissibility``'s answer: ok, and the violations found.  A
    ``Record`` of (ok: bool, violations: tuple)."""

    __slots__ = ("ok", "violations")


def check_admissibility(sample: CascadeSample) -> ConditionReport:
    """Both admissibility conditions over every non-root node of the sample.

    One walk down the tree in level order, where each parent's children come
    together: a node's least gap term is the least consecutive gap on its
    parent's chain, carried down, or the least gap of its earlier siblings,
    kept as the walk passes them.  In units of 1/scale, s⌢k at gap g from s
    is inside its radius exactly when g·2^k < scale and 4g < every gap term,
    so every comparison is between integers.  A radius violation carries the
    gap and the radius as Fractions."""
    nums = sample.nums
    unit = sample.scale
    # generated samples never put a node on an ancestor's position, so the
    # per-ancestor test runs only when two positions coincide
    collide = len(set(nums.values())) < len(nums)
    chain = {(): math.inf}  # node -> least consecutive gap from the root to it
    violations = []
    parent = None
    for node in sample.nodes:
        if not node:
            continue
        if node[:-1] != parent:
            parent = node[:-1]
            at = nums[parent]
            top = low = chain[parent]  # low takes in the earlier siblings' gaps
        k = node[-1]
        x = nums[node]
        g = x - at if x > at else at - x
        if g << k >= unit or g << 2 >= low:
            violations.append(("radius", node, Fraction(g, unit), _radius(k, low, unit)))
        if collide:
            for i in range(len(node)):
                if nums[node[:i]] == x:
                    violations.append(("ancestor-collision", node, node[:i]))
        chain[node] = g if g < top else top
        if g < low:
            low = g
    return ConditionReport(not violations, tuple(violations))


def check_separation(sample: CascadeSample, s: tuple, t: tuple, i: int) -> bool:
    """d(s, t) >= d(s|i+1, s|i) / SEPARATION_FACTOR for a first-divergence triple."""
    if not (i < min(len(s), len(t)) and s[:i] == t[:i] and s[i] < t[i]):
        raise ValueError("need s and t first differing at level i with s(i) < t(i)")
    return SEPARATION_FACTOR * sample.d(s, t) >= sample.d(s[: i + 1], s[:i])


def _first_diff(a: tuple, b: tuple) -> int | None:
    for i in range(min(len(a), len(b))):
        if a[i] != b[i]:
            return i
    return None


def eligible_triples(sample: CascadeSample):
    """Every (s, t, i): neither node a prefix of the other, first difference at
    level i, oriented so the level-i label of s is smaller."""
    nodes = sample.nodes
    for x in range(len(nodes)):
        for y in range(x + 1, len(nodes)):
            a, b = nodes[x], nodes[y]
            i = _first_diff(a, b)
            if i is None:
                continue
            yield (a, b, i) if a[i] < b[i] else (b, a, i)


def _least_gap(a: list, b: list):
    """min |s - t| over s in a and t in b, both sorted and nonempty.

    One bisection of a[0] into b first: when no member of b lies in the hull
    [a[0], a[-1]], every t in b is below a[0] or above a[-1], so the least gap
    is a[0] minus its left neighbour in b or a[-1]'s right neighbour minus
    a[-1], exactly.  Otherwise each member of a is bisected into b."""
    lo = a[0]
    n = len(b)
    j = bisect_left(b, lo)
    if j == n or b[j] > a[-1]:
        best = b[j] - a[-1] if j < n else math.inf
        if j and lo - b[j - 1] < best:
            best = lo - b[j - 1]
        return best
    best = math.inf
    for s in a:
        j = bisect_left(b, s)
        if j < n and b[j] - s < best:
            best = b[j] - s
        if j and s - b[j - 1] < best:
            best = s - b[j - 1]
    return best


def check_separation_all(sample: CascadeSample) -> tuple[int, list]:
    """The separation inequality on every eligible triple, exactly: the count
    of triples and the violators.

    The triples (s, t, i) with w = s|i and x = s|i+1
    share the right-hand side |x - w|, and t ranges over the subtrees of the
    siblings of x after it.  So for each parent w and child x one inequality,
    SEPARATION_FACTOR·mingap(sub x, later) >= |x - w|, covers |sub x|·|later|
    triples, where ``later`` holds the sorted numerators of those subtrees;
    the least gap is found by binary search in ``later`` (_least_gap: of
    sub x's hull ends when no member of ``later`` falls inside that hull,
    the usual case, else of each member of sub x).  One walk over the nodes from the last up (in
    level order, and in label order under each parent, so every node comes
    after its subtree and its later siblings' subtrees) merges each
    subtree's sorted numerators into its parent's; a leaf's are its own.
    Only when an inequality fails are the violators listed, by
    check_separation on each eligible triple.
    """
    nums = sample.nums
    # node -> sorted numerators of the subtrees of the children walked so far
    merged: dict[tuple, list] = {}
    checked = 0
    hit = False
    for x in reversed(sample.nodes):
        if not x:  # the root, last: no sibling, no inequality
            break
        sub = merged.pop(x, None)
        if sub is None:  # a leaf
            sub = [nums[x]]
        else:
            insort(sub, nums[x])
        w = x[:-1]
        later = merged.get(w)
        if later is None:
            merged[w] = sub
        else:
            checked += len(sub) * len(later)
            hit = hit or SEPARATION_FACTOR * _least_gap(sub, later) < abs(nums[x] - nums[w])
            merged[w] = sorted(later + sub)  # a merge of two sorted runs
    if not hit:
        return checked, []
    triples = eligible_triples(sample)
    return checked, [(s, t, i) for s, t, i in triples if not check_separation(sample, s, t, i)]


def check_sample_capacity(depth: int, branching: int) -> int:
    """The bits E of the scale gen_cascade uses for this shape.  Raises
    CapacityError when the sample would hold more than SAMPLE_BITS_CAP
    numerator bits (node count times E); the cost of this test is bounded by
    the cap, not by the shape."""
    if depth < 0 or branching < 0:
        raise ValueError("depth and branching must be naturals")
    bits = 10 * depth * branching
    count = width = 1
    for _ in range(depth if branching else 0):
        width *= branching
        count += width
        if count * bits > SAMPLE_BITS_CAP:
            raise CapacityError(
                f"a depth-{depth} branching-{branching} cascade sample has at "
                f"least {count} nodes of {bits} bits; the cap is {SAMPLE_BITS_CAP} bits"
            )
    return bits


def gen_cascade(seed: int, depth: int, branching: int) -> CascadeSample:
    """Deterministic-from-seed sample satisfying both admissibility conditions
    by construction: ancestor gaps drawn first, children placed strictly
    inside the admissible radius and off every ancestor position.

    Positions are computed as integer numerators over 2^E, E = 10·depth·
    branching.  Why 2^E clears every denominator: the child labelled k of a
    node sits at gap eps·r/256 from it, r an integer drawn in [1, 128), and
    eps is 2^-k or a quarter of an ancestor or earlier-sibling gap.  So a
    gap has at most 8 more fractional bits than its eps, and eps at most 2
    more than the gap it quarters, or k.  With b = branching, induction in
    drawing order shows that a level-l node labelled k has a gap of at most
    10·(b·(l-1) + k) fractional bits: its ancestors' gaps have at most
    10·b·(l-1), its earlier siblings' at most 10·(b·(l-1) + k-1), and
    k + 8 <= 10k.  A position is a sum of gaps, so all have at most 10·b·depth
    = E bits, and every quarter taken is of a gap with at most E - 10 bits.
    The shifts below are checked anyway, and raise rather than round.  The
    numerators are then reduced to the least power-of-two scale.

    The draws are those of ``random.Random(seed)``'s ``randrange(1, 128)``
    and ``randrange(2)``, made by the kit's own rule (_below) from
    ``getrandbits``: the same values and the same bits consumed, without
    ``randrange``'s two Python frames per draw.

    The sample holds only those integers and the scale; its ``values`` are
    derived from them on request.  Its nodes, the complete tree with labels
    1..branching, come out in level order by construction (each level's
    nodes, each followed by every label, make the next level), so no sort
    runs.

    Raises CapacityError, before drawing anything, when the sample would hold
    more than SAMPLE_BITS_CAP numerator bits (check_sample_capacity).
    """
    bits = check_sample_capacity(depth, branching)
    getbits = random.Random(seed).getrandbits
    one = 1 << bits
    labels = range(1, branching + 1)
    nums = {(): 0}
    # the draw order: a node's children are all placed, then each child's
    # subtree in label order.  Entries: (node, positions of the node and its
    # ancestors, least consecutive gap on its chain)
    stack = [((), (0,), math.inf)] if depth else []
    while stack:
        node, ancestors, chain = stack.pop()
        v = nums[node]
        low = chain  # the least gap term, earlier siblings included
        inner = len(node) + 1 < depth  # the children have children of their own
        kids = []
        for k in labels:
            eps = one >> k
            if low < eps << 2:
                if low & 3:
                    raise ArithmeticError(f"inexact quarter gap at scale 2^{bits}")
                eps = low >> 2
            while True:
                off = eps * (1 + _below(getbits, 127))
                if off & 255:
                    raise ArithmeticError(f"inexact offset at scale 2^{bits}")
                g = off >> 8
                pos = v + g if _below(getbits, 2) else v - g
                if pos not in ancestors:
                    break
            child = node + (k,)
            nums[child] = pos
            if g < low:
                low = g
            if inner:
                kids.append((child, ancestors + (pos,), g if g < chain else chain))
        stack.extend(reversed(kids))

    mask = 0
    for x in nums.values():
        mask |= x
    zeros = (mask & -mask).bit_length() - 1 if mask else bits
    if zeros:
        nums = {n: x >> zeros for n, x in nums.items()}
    # the complete tree in level order: each level's nodes, each followed by
    # its labels 1..branching, give the next level
    nodes, level = [()], [()]
    for _ in range(depth if branching else 0):
        level = [n + (k,) for n in level for k in labels]
        nodes += level
    return CascadeSample(tuple(nodes), nums=nums, scale=1 << (bits - zeros))


def tight_child_sample() -> CascadeSample:
    """Two-node boundary case: the single child sits exactly on its admissible
    radius, so the strict check must reject it (negative control)."""
    return CascadeSample.from_values({(): Fraction(0), (1,): Fraction(1, 2)})


def violating_sample() -> CascadeSample:
    """Radius condition deliberately broken; the derived inequality then fails
    on the colliding siblings."""
    return CascadeSample.from_values(
        {(): Fraction(0), (1,): Fraction(1, 4), (2,): Fraction(1, 4)}
    )
