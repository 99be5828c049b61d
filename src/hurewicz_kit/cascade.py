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
s(i) < t(i), d(s, t) >= d(s|i+1, s|i) / 3.  All arithmetic is exact: positions
are checked as integer numerators over one common denominator (a power of two
for generated samples, which are dyadic).  A generated sample is integers from
draw to verdict; ``Fraction`` remains only on the hand-built distance-table
route, in violation payloads, and in ``CascadeSample.values`` and ``d``,
which derive it on request.
"""

from __future__ import annotations

import math
import operator
import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction

from .base import CapacityError

# Numerator bits a generated sample may hold (node count times the bits of
# its scale, see gen_cascade), refused before any work.  The default suite
# shape, depth 4 and branching 4, holds 341 x 160; at the cap the largest
# shapes (a 323-node chain, or depth 11 and branching 2) generate and check
# in well under a second.
SAMPLE_BITS_CAP = 1 << 20


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


@dataclass(frozen=True)
class CascadeSample:
    """Finite family of tree nodes with synthetic distances.

    Either built from abstract positions (the generator's route, metric
    axioms automatic) or from an explicit symmetric table (hand-built checker
    sanity cases).  Positions are held as integers over one common
    denominator: node n sits at ``nums[n] / scale``, and the checkers compute
    with those integers.  ``values``, the positions as Fractions, is derived
    from them on request; on the table route ``nums`` and ``values`` are None.
    """

    nodes: tuple
    nums: dict | None = None
    scale: int = 1
    table: dict | None = None

    @classmethod
    def from_values(cls, values: dict) -> "CascadeSample":
        scale = math.lcm(1, *(Fraction(v).denominator for v in values.values()))
        nums = {n: int(v * scale) for n, v in values.items()}
        return cls(_tree(values), nums=nums, scale=scale)

    @classmethod
    def from_table(cls, nodes, table: dict) -> "CascadeSample":
        full = {}
        for (a, b), v in table.items():
            v = Fraction(v)
            if v < 0:
                raise ValueError("distances must be nonnegative")
            full[(a, b)] = v
            full[(b, a)] = v
        return cls(_tree(nodes), table=full)

    @property
    def values(self) -> dict | None:
        """node -> position as a Fraction, or None on the table route."""
        if self.nums is None:
            return None
        return {n: Fraction(x, self.scale) for n, x in self.nums.items()}

    def d(self, y: tuple, z: tuple) -> Fraction:
        if y == z:
            return Fraction(0)
        if self.nums is not None:
            return Fraction(abs(self.nums[y] - self.nums[z]), self.scale)
        return self.table[(y, z)]


def _metric(sample: CascadeSample):
    """(unit, gap): distances in units of 1/unit, as integer numerator
    differences on the positions route and as the table's Fractions (unit 1)
    otherwise."""
    if sample.nums is None:
        return 1, sample.d
    nums = sample.nums
    return sample.scale, lambda y, z: abs(nums[y] - nums[z])


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
    unit, gap = _metric(sample)
    present = sample.nums if sample.nums is not None else set(sample.nodes)
    terms = [gap(s[: i + 1], s[:i]) for i in range(len(s))]
    terms += [gap(s + (j,), s) for j in range(k) if s + (j,) in present]
    return _radius(k, min(terms, default=math.inf), unit)


@dataclass(frozen=True)
class ConditionReport:
    ok: bool
    violations: tuple


def check_admissibility(sample: CascadeSample, strict: bool = True) -> ConditionReport:
    """Both admissibility conditions over every non-root node of the sample.

    One walk down the tree in level order, where each parent's children come
    together: a node's least gap term is the least consecutive gap on its
    parent's chain, carried down, or the least gap of its earlier siblings,
    kept as the walk passes them.  In units of 1/scale, s⌢k at gap g from s
    is inside its radius exactly when g·2^k < scale and 4g < every gap term,
    so on the positions route every comparison is between integers.

    ``strict=False`` relaxes the radius bound to <= (a deliberate fault mode
    used by the mutation harness; the genuine condition is strict)."""
    if sample.nums is None:
        return _check_table_admissibility(sample, strict)
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
        if (g << k >= unit or g << 2 >= low) if strict else (g << k > unit or g << 2 > low):
            violations.append(("radius", node, Fraction(g, unit), _radius(k, low, unit)))
        if collide:
            for i in range(len(node)):
                if nums[node[:i]] == x:
                    violations.append(("ancestor-collision", node, node[:i]))
        chain[node] = g if g < top else top
        if g < low:
            low = g
    return ConditionReport(not violations, tuple(violations))


def _check_table_admissibility(sample: CascadeSample, strict: bool) -> ConditionReport:
    """check_admissibility on the distance-table route, in Fractions."""
    reaches = operator.ge if strict else operator.gt
    chain = {(): math.inf}
    earlier: dict = {}  # parent -> least gap of the children walked so far
    violations = []
    for node in sample.nodes:
        if not node:
            continue
        parent, k = node[:-1], node[-1]
        g = sample.d(node, parent)
        low = min(chain[parent], earlier.get(parent, math.inf))
        if reaches(g * (1 << k), 1) or reaches(4 * g, low):
            violations.append(("radius", node, g, _radius(k, low, 1)))
        for i in range(len(node)):
            if sample.d(node, node[:i]) == 0:
                violations.append(("ancestor-collision", node, node[:i]))
        chain[node] = min(chain[parent], g)
        earlier[parent] = min(earlier.get(parent, math.inf), g)
    return ConditionReport(not violations, tuple(violations))


def check_separation(sample: CascadeSample, s: tuple, t: tuple, i: int) -> bool:
    """d(s, t) >= d(s|i+1, s|i)/3 for a first-divergence triple."""
    if not (i < min(len(s), len(t)) and s[:i] == t[:i] and s[i] < t[i]):
        raise ValueError("need s and t first differing at level i with s(i) < t(i)")
    return 3 * sample.d(s, t) >= sample.d(s[: i + 1], s[:i])


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


def _scan_triples(sample: CascadeSample) -> tuple[int, list]:
    """check_separation on every eligible triple: the count and the violators."""
    checked = 0
    bad = []
    for s, t, i in eligible_triples(sample):
        checked += 1
        if not check_separation(sample, s, t, i):
            bad.append((s, t, i))
    return checked, bad


def _least_gap(a: list, b: list):
    """min |s - t| over s in a and t in b, both sorted and nonempty."""
    best = math.inf
    n = len(b)
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

    On the positions route the triples (s, t, i) with w = s|i and x = s|i+1
    share the right-hand side |x - w|, and t ranges over the subtrees of the
    siblings of x after it.  So for each parent w and child x one inequality,
    3·mingap(sub x, later) >= |x - w|, covers |sub x|·|later| triples, where
    ``later`` holds the sorted numerators of those subtrees; the least gap is
    found by binary search of each member of sub x in ``later``.  The walk
    goes from the deepest nodes up, merging each subtree's sorted numerators
    into its parent's.  Only when an inequality fails are the violators
    listed, by the triple-by-triple scan the table route always runs.
    """
    if sample.nums is None:
        return _scan_triples(sample)
    nums = sample.nums
    children: dict[tuple, list] = {}
    for n in sample.nodes:  # in label order under each parent
        if n:
            children.setdefault(n[:-1], []).append(n)
    below: dict[tuple, list] = {}  # node -> sorted numerators of its subtree
    checked = 0
    hit = False
    for w in reversed(sample.nodes):
        later: list = []
        for x in reversed(children.get(w, ())):
            sub = below.pop(x)
            if later:
                checked += len(sub) * len(later)
                hit = hit or 3 * _least_gap(sub, later) < abs(nums[x] - nums[w])
                later = sorted(later + sub)  # a merge of two sorted runs
            else:
                later = sub
        insort(later, nums[w])
        below[w] = later
    return (checked, _scan_triples(sample)[1]) if hit else (checked, [])


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

    The sample holds only those integers and the scale; its ``values`` are
    derived from them on request.  Its nodes, the complete tree with labels
    1..branching, come out in level order by construction (each level's
    nodes, each followed by every label, make the next level), so no sort
    runs.

    Raises CapacityError, before drawing anything, when the sample would hold
    more than SAMPLE_BITS_CAP numerator bits (check_sample_capacity).
    """
    bits = check_sample_capacity(depth, branching)
    draw = random.Random(seed).randrange
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
                off = eps * draw(1, 128)
                if off & 255:
                    raise ArithmeticError(f"inexact offset at scale 2^{bits}")
                g = off >> 8
                pos = v + g if draw(2) else v - g
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
