"""Relations between equal-depth nodes induced by the branch maps, and the
forest structure of their symmetric closure.

Two depth-L nodes satisfy s R t when some branch map carries a point of the
s-cylinder into the t-cylinder.  Only constraint indices below L matter:
every index is a code, so decoding the naturals below L yields a complete
finite witness basis, and constraints at indices >= L are always satisfiable
(set the must-be-1 coordinates to 1 and the others to any of the >= 1
remaining alphabet members).  An effective witness is the truncation of a
branch to the constraints below L.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

from .alphabet import alphabets, enumerate_nodes, member_rank
from .base import Record
from .departure import BranchIndex, e_inv, level_start
from .prime_coding import is_code, make_code_value


class EffectiveWitness(Record):
    """Branch truncated to its constraints below the node length; ``cut`` is
    the first level whose rewritten index reaches past that length (one past
    the last level when every constraint is in range).  A ``Record`` of
    (branch: BranchIndex, cut: int)."""

    __slots__ = ("branch", "cut")


@lru_cache(maxsize=65536)
def _expected_rewrite(prefix: tuple):
    return make_code_value(prefix + (1,))


def _witness_search(s: tuple, t: tuple) -> list[tuple]:
    """All closed effective witnesses carrying the s-cylinder into the
    t-cylinder, shortest stems first, as raw (stem, t part, cut) triples: the
    witness branch is (stem, t part) and ``cut`` is as in EffectiveWitness."""
    L = len(s)
    if len(t) != L:
        raise ValueError("relation needs equal-length nodes")
    remaining = []
    for q in range(L):
        if s[q] != t[q]:
            if s[q] != 1 or t[q] != _expected_rewrite(s[:q]):
                return []
            remaining.append(q)
    found: list[tuple] = []
    _search_level(s, (), (), frozenset(remaining), found)
    return found


def _search_level(s: tuple, u: tuple, v: tuple, todo: frozenset, found: list) -> None:
    """One level of ``_witness_search``: the level with stem u and t part v,
    appending to ``found`` every closed witness through it."""
    L = len(s)
    m = 0
    idx, q = level_start(u + v)
    while True:
        if idx >= L:
            # cut point: this level's rewrite lands past the node, and all
            # scanned lower candidates were satisfied non-1 constraints
            if not todo:
                found.append((u, v + (m,), len(u)))
            return
        if s[idx] == 1:
            # only this m can rewrite here; larger m would demand a non-1
            if idx in todo:
                rest = todo - {idx}
                if not rest:
                    found.append((u, v + (m,), len(u) + 1))
                else:
                    # code(u ⌢ a ⌢ v ⌢ m ⌢ 0) grows by q_|u| with a
                    start = level_start(u + (0,) + v + (m,))[0]
                    step = level_start(u)[1]
                    a = 0
                    while start < L:
                        _search_level(s, u + (a,), v + (m,), rest, found)
                        a += 1
                        start *= step
            return
        m += 1
        idx *= q


def rel_R(s: tuple, t: tuple) -> bool:
    """Whether some branch map sends a point of the s-cylinder into the
    t-cylinder (equal lengths; forces s lexicographically <= t)."""
    return bool(_witness_search(s, t))


def rel_witnesses(s: tuple, t: tuple) -> list[EffectiveWitness]:
    return [EffectiveWitness(BranchIndex(u, v), cut) for u, v, cut in _witness_search(s, t)]


class PsiResult(Record):
    """``psi``'s answer: the least relating rank and its witness, both None
    when no branch relates the nodes.  A ``Record`` of (rank: int | None,
    witness: EffectiveWitness | None)."""

    __slots__ = ("rank", "witness")


def psi(s: tuple, t: tuple) -> PsiResult:
    """Least slot of the glued family relating s to t, with the witness stem.

    Every full branch witnessing the relation extends a closed witness stem,
    and the enumeration rank grows under extension, so the minimum is attained
    at a stem.  The witness is the first stem of least rank in search order;
    only that one is built.
    """
    ranked = ((e_inv(w[0]), w) for w in _witness_search(s, t))
    rank, best = min(ranked, key=itemgetter(0), default=(None, None))
    if best is None:
        return PsiResult(None, None)
    u, v, cut = best
    return PsiResult(rank, EffectiveWitness(BranchIndex(u, v), cut))


def self_related_profile(s: tuple) -> bool:
    """Closed-form test for s R s: no entry 1 at a positive power of 2 below
    the node length."""
    k = 2
    while k < len(s):
        if s[k] == 1:
            return False
        k *= 2
    return True


class RelationGraph(Record):
    """Symmetric closure of the relation on depth-``length`` nodes.

    Edges are (i, j, psi rank) triples of indices into ``nodes``, i < j;
    loops, the indices of the nodes with s R s, are kept apart, with their
    ranks in ``loop_ranks`` (same order); unique-chain verification ignores
    them.  A ``Record`` of its five fields, all tuples but ``length``.
    """

    __slots__ = ("length", "nodes", "edges", "loops", "loop_ranks")


def _adjacency(node_count: int, edges) -> dict[int, list[int]]:
    """Neighbour lists of the nodes below ``node_count`` under ``edges``, each
    in edge order."""
    adj: dict[int, list[int]] = {i: [] for i in range(node_count)}
    for i, j, _ in edges:
        adj[i].append(j)
        adj[j].append(i)
    return adj


def t_graph(p: int) -> RelationGraph:
    """Complete relation graph over the depth-p nodes, built by generating each
    node's candidate partners instead of testing every pair.

    Completeness: ``_witness_search(s, t)`` is empty unless every position q
    where s and t differ has ``s[q] == 1`` and ``t[q] == code(s|q ⌢ 1)``, and
    q is a rewritten index, i.e. the code of a nonempty sequence (an index
    outside that set never leaves the search's to-do set).  So t is fixed by
    the nonempty set D of positions it rewrites, D is a subset of the coded
    positions q < p with ``s[q] == 1``, and every node related to s is one of
    these candidates.  Each candidate is a node: code(s|q ⌢ 1) belongs to A_q
    because s|q is a depth-q node.  Nodes are the product of the sorted
    alphabets with 1 first, so t's index is s's index plus, for q in D, the
    rewritten value's position in A_q (``member_rank``) times the product of
    the later alphabet sizes; it exceeds s's index, matching the relation's
    lexicographic direction.  One pass over the nodes searches each node
    against itself (its loop) and then its candidates, one witness search
    each, and the least rank of its stems is the ``psi`` rank (no witness
    object is built); edges come out in increasing (i, j) order, as a scan
    over all pairs would give them.  Cost: nodes × (candidates + 1)
    searches, with at most 2^k - 1 candidates per node for k coded positions
    below p.

    Census below depth 31: the search's second level starts at index
    code(0, 0, 0) = 30, so at p <= 30 every witness is a level-0 one, with
    empty stem (rank 0), whose rewrite candidates are the powers of two 2, 4,
    8, ...  A node is self-related exactly when it holds no 1 at a power of
    two below p, so loops(p) = ∏_{q<p} (|A_q| - [q ∈ {2, 4, 8, ...}]).  A node
    that does hold one relates to exactly one other node, the rewrite at the
    first such position (the level-0 scan must rewrite there), a
    self-related node relates to no other (the scan finds no 1 to rewrite),
    and each edge is counted once, at its earlier node, so
    edges(p) = nodes(p) - loops(p).  Depth 5
    (refused by NODE_COUNT_CAP) has 3,263,442 nodes, 2,795,688 loops and
    467,754 edges.
    """
    levels = alphabets(p)
    nodes = enumerate_nodes(p)
    coded = [q for q in range(1, p) if is_code(q)]  # 0 codes the empty sequence
    weight = [1] * p
    for q in range(p - 2, -1, -1):
        weight[q] = weight[q + 1] * len(levels[q + 1])
    edges, loops, loop_ranks = [], [], []
    for i, s in enumerate(nodes):
        partners = [i]
        for q in coded:
            if s[q] == 1:
                step = member_rank(q, _expected_rewrite(s[:q])) * weight[q]
                partners += [j + step for j in partners]
        for j in sorted(partners):
            found = _witness_search(s, nodes[j])
            if not found:
                continue
            rank = min(e_inv(stem) for stem, _, _ in found)
            if j == i:
                loops.append(i)
                loop_ranks.append(rank)
            else:
                edges.append((i, j, rank))
    return RelationGraph(p, tuple(nodes), tuple(edges), tuple(loops), tuple(loop_ranks))


def _shortest_path(adj: dict[int, list[int]], src: int, dst: int) -> list[int] | None:
    """Vertices of a shortest src-dst path found by BFS, or None when dst is
    unreachable."""
    prev = {src: src}
    frontier = [src]
    while frontier and dst not in prev:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in prev:
                    prev[v] = u
                    nxt.append(v)
        frontier = nxt
    if dst not in prev:
        return None
    path = [dst]
    while path[-1] != src:
        path.append(prev[path[-1]])
    return path[::-1]


def t_chain(s: tuple, t: tuple, g: RelationGraph) -> list[tuple] | None:
    """The repetition-free chain from s to t in the symmetric closure, or None
    when they are not equivalent.  Unique when the graph is a forest; BFS
    returns it."""
    index = {nd: i for i, nd in enumerate(g.nodes)}
    if s not in index or t not in index:
        raise ValueError("nodes not in the graph")
    path = _shortest_path(_adjacency(len(g.nodes), g.edges), index[s], index[t])
    return None if path is None else [g.nodes[i] for i in path]


class ForestReport(Record):
    """``verify_forest``'s answer, with the nodes of one cycle when the edges
    hold one (else None).  A ``Record`` of (acyclic: bool, node_count: int,
    edge_count: int, loop_count: int, cycle: tuple | None)."""

    __slots__ = ("acyclic", "node_count", "edge_count", "loop_count", "cycle")


def verify_forest(g: RelationGraph) -> ForestReport:
    """Acyclicity of the non-loop edge set via union-find (a parent list
    with path halving); on failure the report carries one explicit cycle
    (path between the offending endpoints plus the closing edge)."""
    parent = list(range(len(g.nodes)))

    def root(k: int) -> int:
        while parent[k] != k:
            parent[k] = k = parent[parent[k]]
        return k

    for e, (i, j, _) in enumerate(g.edges):
        ri, rj = root(i), root(j)
        if ri == rj:
            path = _shortest_path(_adjacency(len(g.nodes), g.edges[:e]), i, j)
            cycle = tuple(g.nodes[k] for k in path + [i])
            return ForestReport(False, len(g.nodes), len(g.edges), len(g.loops), cycle)
        parent[ri] = rj
    return ForestReport(True, len(g.nodes), len(g.edges), len(g.loops), None)
