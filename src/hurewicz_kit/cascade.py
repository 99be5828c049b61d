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
s(i) < t(i), d(s, t) >= d(s|i+1, s|i) / 3.

A sample is three arrays aligned by index: its nodes in level order (by
length, then lexicographically, so a parent comes before its children and
siblings come together in label order), each node's position as an integer
numerator over one common scale (a power of two for generated samples, which
are dyadic), and each node's parent index.  Generation, admissibility and
separation read positions, parents and labels by index and compute with the
integers; node tuples appear only in violation payloads.  ``Fraction``
appears only there, in ``epsilon``, and in ``CascadeSample.values`` and
``d``, which derive it on request.
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


def _parents(nodes) -> tuple:
    """The parent index of each node, -1 for the root, for nodes that are
    distinct tuples of natural labels in level order and closed under
    prefixes: the rule every checker relies on.  Anything else raises a
    ValueError naming the field."""
    if type(nodes) is not tuple:
        raise ValueError(f"nodes must be a tuple, not {type(nodes).__name__}")
    index: dict[tuple, int] = {}
    parents = []
    last = None
    for i, node in enumerate(nodes):
        if type(node) is not tuple or not all(type(k) is int and k >= 0 for k in node):
            raise ValueError(f"nodes must be tuples of natural labels: {node!r}")
        key = (len(node), node)
        if last is not None and not last < key:
            raise ValueError(f"nodes must come once each, in level order: {node} after {last[1]}")
        last = key
        if node:
            p = index.get(node[:-1])
            if p is None:
                raise ValueError(f"nodes must be closed under prefixes: {node} without {node[:-1]}")
        else:
            p = -1
        index[node] = i
        parents.append(p)
    return tuple(parents)


class CascadeSample(Record):
    """Finite family of tree nodes at abstract rational positions, so the
    metric axioms hold by construction.

    Three arrays aligned by index: ``nodes``, the tree in level order;
    ``positions``, node i sitting at ``positions[i] / scale``; and
    ``parents``, the index of node i's parent (-1 for the root).  The
    checkers compute with those integers and indices.

    ``CascadeSample(nodes, positions, scale)`` validates once.  It refuses,
    with a ``ValueError`` naming the field, nodes that are not distinct
    tuples of natural labels in level order closed under prefixes,
    positions that are not a tuple of one int per node, and a scale that is
    not a positive int; it derives ``parents`` itself.  Copies and pickles
    rebuild through it.  ``gen_cascade``, which knows the parents of the
    complete tree it draws, builds through the trusted ``_trusted`` instead.

    ``nums`` (node -> numerator), ``values`` (node -> Fraction) and ``d``
    (a distance as a Fraction) are derived on request.  ``d`` finds a node
    by bisection in the level order and raises a ``ValueError`` naming a
    node the sample does not hold.  A ``Record`` of its four fields.
    """

    __slots__ = ("nodes", "positions", "scale", "parents")

    def __init__(self, nodes: tuple, positions: tuple, scale: int = 1):
        parents = _parents(nodes)
        if type(positions) is not tuple or len(positions) != len(nodes) or not all(
            type(x) is int for x in positions
        ):
            raise ValueError(f"positions must be a tuple of {len(nodes)} ints: {positions!r}")
        if type(scale) is not int or scale < 1:
            raise ValueError(f"scale must be a positive int: {scale!r}")
        super().__init__(nodes, positions, scale, parents)

    @classmethod
    def _trusted(cls, nodes: tuple, positions: tuple, scale: int, parents: tuple):
        """The sample of fields already known to be well formed, built
        without the constructor's checks."""
        sample = object.__new__(cls)
        Record.__init__(sample, nodes, positions, scale, parents)
        return sample

    def __reduce__(self):
        # copies and pickles rebuild through the validating constructor
        return type(self), (self.nodes, self.positions, self.scale)

    @classmethod
    def from_values(cls, values: dict) -> "CascadeSample":
        """The sample of a node -> rational position map: its nodes sorted
        into level order, over the least common denominator.  Each value is
        taken exactly, as ``Fraction(value)``, a float too."""
        values = {n: Fraction(v) for n, v in values.items()}
        scale = math.lcm(1, *(v.denominator for v in values.values()))
        nodes = tuple(sorted(values, key=_level_order))
        return cls(nodes, tuple(int(values[n] * scale) for n in nodes), scale)

    @property
    def nums(self) -> dict:
        """node -> numerator over ``scale``."""
        return dict(zip(self.nodes, self.positions))

    @property
    def values(self) -> dict:
        """node -> position as a Fraction."""
        scale = self.scale
        return {n: Fraction(x, scale) for n, x in zip(self.nodes, self.positions)}

    def _index(self, node: tuple) -> int:
        """The level-order index of ``node``, found by bisection."""
        nodes = self.nodes
        i = bisect_left(nodes, (len(node), node), key=_level_order)
        if i == len(nodes) or nodes[i] != node:
            raise ValueError(f"the sample holds no node {node}")
        return i

    def d(self, y: tuple, z: tuple) -> Fraction:
        pos = self.positions
        return Fraction(abs(pos[self._index(y)] - pos[self._index(z)]), self.scale)


def _radius(k: int, low, unit: int) -> Fraction:
    """eps of a child labelled k whose least gap term is ``low`` (in units of
    1/unit; math.inf when there is none)."""
    eps = Fraction(1, 2**k)
    return eps if low == math.inf else min(eps, Fraction(low, 4 * unit))


def epsilon(sample: CascadeSample, child: tuple) -> Fraction:
    """The admissible-radius minimum for a child node s⌢k.

    The sample must hold s (else a ValueError names it), and so its ancestor
    chain; sibling terms run over the labels below k that the sample holds,
    which in a complete family is every positive label below k.
    """
    if not child:
        raise ValueError("the root has no admissible radius")
    s, k = child[:-1], child[-1]
    nodes, pos, parents = sample.nodes, sample.positions, sample.parents
    i = j = sample._index(s)
    terms = []
    while parents[j] >= 0:  # the consecutive gaps of s's chain
        p = parents[j]
        terms.append(abs(pos[j] - pos[p]))
        j = p
    # s's children come together, in label order, from the first node of
    # their length at or after s
    at = pos[i]
    j = bisect_left(nodes, (len(child), s), key=_level_order)
    while j < len(nodes) and parents[j] == i and nodes[j][-1] < k:
        terms.append(abs(pos[j] - at))
        j += 1
    return _radius(k, min(terms, default=math.inf), sample.scale)


class ConditionReport(Record):
    """``check_admissibility``'s answer: ok, and the violations found.  A
    ``Record`` of (ok: bool, violations: tuple)."""

    __slots__ = ("ok", "violations")


def check_admissibility(sample: CascadeSample) -> ConditionReport:
    """Both admissibility conditions over every non-root node of the sample.

    One walk down the level order, where each parent's children come
    together: a node's least gap term is the least consecutive gap on its
    parent's chain, carried down in a list indexed by node, or the least gap
    of its earlier siblings, kept as the walk passes them.  In units of
    1/scale, s⌢k at gap g from s is inside its radius exactly when
    g·2^k < scale and 4g < every gap term, so every comparison is between
    integers.  Ancestors are found by walking parent indices.  A radius
    violation carries the gap and the radius as Fractions; ancestor
    collisions are listed root first."""
    nodes, pos, parents = sample.nodes, sample.positions, sample.parents
    unit = sample.scale
    # generated samples never put a node on an ancestor's position, so the
    # per-ancestor test runs only when two positions coincide
    collide = len(set(pos)) < len(pos)
    chain = [math.inf] * len(pos)  # least consecutive gap from the root to each node
    violations = []
    parent = -1
    for i in range(1, len(pos)):
        p = parents[i]
        if p != parent:
            parent = p
            at = pos[p]
            top = low = chain[p]  # low takes in the earlier siblings' gaps
        k = nodes[i][-1]
        x = pos[i]
        g = x - at if x > at else at - x
        if g << k >= unit or g << 2 >= low:
            violations.append(("radius", nodes[i], Fraction(g, unit), _radius(k, low, unit)))
        if collide:
            on = []
            while p >= 0:
                if pos[p] == x:
                    on.append(p)
                p = parents[p]
            violations += [("ancestor-collision", nodes[i], nodes[a]) for a in reversed(on)]
        chain[i] = g if g < top else top
        if g < low:
            low = g
    return ConditionReport(not violations, tuple(violations))


def check_separation(sample: CascadeSample, s: tuple, t: tuple, i: int) -> bool:
    """d(s, t) >= d(s|i+1, s|i) / SEPARATION_FACTOR for a first-divergence
    triple; a node the sample does not hold raises a ValueError naming it."""
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
    the usual case, else of each member of sub x).  One walk over the node
    indices from the last up (in level order, and in label order under each
    parent, so every node comes after its subtree and its later siblings'
    subtrees) merges each subtree's sorted numerators into its parent's, in
    a list indexed by node; a leaf's are its own.  Only when an inequality
    fails are the violators listed, by check_separation on each eligible
    triple.
    """
    pos, parents = sample.positions, sample.parents
    # per node: sorted numerators of the subtrees of its children walked so far
    merged: list = [None] * len(pos)
    checked = 0
    hit = False
    # from the last node up; the root, index 0, has no sibling
    for x, w, v in zip(range(len(pos) - 1, 0, -1), reversed(parents), reversed(pos)):
        sub = merged[x]
        if sub is None:  # a leaf
            sub = [v]
        else:
            insort(sub, v)
        later = merged[w]
        if later is None:
            merged[w] = sub
        else:
            checked += len(sub) * len(later)
            hit = hit or SEPARATION_FACTOR * _least_gap(sub, later) < abs(v - pos[w])
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

    The nodes, the complete tree with labels 1..branching, come out in level
    order by construction (each level's nodes, each followed by every label,
    make the next level), so no sort runs, and in that order child k of node
    i sits at index branching·i + k.  The draw walk writes each position at
    its node's index, and the parents follow from the same arithmetic; the
    sample is built through the trusted path, with no validation pass.
    Its ``values`` are derived from the integers on request.

    Raises CapacityError, before drawing anything, when the sample would hold
    more than SAMPLE_BITS_CAP numerator bits (check_sample_capacity).
    """
    bits = check_sample_capacity(depth, branching)
    getbits = random.Random(seed).getrandbits
    one = 1 << bits
    labels = range(1, branching + 1)
    # the complete tree in level order: each level's nodes, each followed by
    # its labels 1..branching, give the next level
    nodes, level = [()], [()]
    for _ in range(depth if branching else 0):
        level = [n + (k,) for n in level for k in labels]
        nodes += level
    inner = len(nodes) - len(level)  # node i has children exactly when i < inner
    pos = [0] * len(nodes)
    # the draw order: a node's children are all placed, then each child's
    # subtree in label order.  Entries: (node index, positions of the node
    # and its ancestors, least consecutive gap on its chain)
    stack = [(0, (0,), math.inf)] if inner else []
    while stack:
        i, ancestors, chain = stack.pop()
        v = pos[i]
        low = chain  # the least gap term, earlier siblings included
        first = branching * i
        deeper = first + 1 < inner  # the children have children of their own
        kids = []
        for k in labels:
            c = first + k
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
                x = v + g if _below(getbits, 2) else v - g
                if x not in ancestors:
                    break
            pos[c] = x
            if g < low:
                low = g
            if deeper:
                kids.append((c, ancestors + (x,), g if g < chain else chain))
        stack.extend(reversed(kids))

    mask = 0
    for x in pos:
        mask |= x
    zeros = (mask & -mask).bit_length() - 1 if mask else bits
    parents = (-1, *[i for i in range(inner) for _ in labels])
    return CascadeSample._trusted(
        tuple(nodes), tuple([x >> zeros for x in pos]), 1 << (bits - zeros), parents
    )


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
