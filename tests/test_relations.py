import itertools
import math

import pytest

from hurewicz_kit import alphabet as al
from hurewicz_kit import departure as dep
from hurewicz_kit import relations as rel
from hurewicz_kit.prime_coding import encode

from oracles import (
    decode_trial_division,
    j_code,
    object_psi,
    object_witness_search,
    oracle_images,
    oracle_psi,
    pair_scan_graph,
)


def test_examples():
    assert rel.rel_R((1, 1, 1), (1, 1, 900))
    assert rel.rel_R((1, 1, 4), (1, 1, 4))
    assert not rel.rel_R((1, 1, 1), (1, 1, 1))
    with pytest.raises(ValueError):
        rel.rel_R((1,), (1, 1))


def test_witness_shapes():
    ws = rel.rel_witnesses((1, 1, 1), (1, 1, 900))
    assert any(w.branch == dep.BranchIndex((), (0,)) for w in ws)
    for w in ws:
        ones = dep.constraints(w.branch).ones
        assert all(a < b for a, b in zip(ones, ones[1:]))
        assert all(q < 3 for q in ones[: w.cut])
    ws = rel.rel_witnesses((1, 1, 4), (1, 1, 4))
    assert any(w.branch == dep.BranchIndex((), (1,)) and w.cut == 0 for w in ws)


def test_against_oracle_exhaustive_depth_up_to_three():
    # each node's image prefixes are listed once, and every target is tested
    # against them
    for p in range(4):
        nodes = al.enumerate_nodes(p)
        for s in nodes:
            images = oracle_images(s)
            for t in nodes:
                assert rel.rel_R(s, t) == (t in images), (s, t)


def _generated_pairs(p):
    """Each depth-p node paired with itself and with every node that rewrites
    a nonempty set of its coded positions holding 1 (the pairs t_graph
    searches), coded positions found by trial division."""
    coded = [q for q in range(1, p) if decode_trial_division(q) is not None]
    for s in al.enumerate_nodes(p):
        yield s, s
        ones = [q for q in coded if s[q] == 1]
        for k in range(1, len(ones) + 1):
            for subset in itertools.combinations(ones, k):
                t = list(s)
                for q in subset:
                    t[q] = j_code(s[:q] + (1,))
                yield s, tuple(t)


def _oracle_pairs():
    for p in range(4):
        yield from itertools.product(al.enumerate_nodes(p), repeat=2)
    yield from _generated_pairs(4)
    # a witness through two levels (test_two_rewrite_relation_at_depth_thirty_one)
    s = (1,) * 31
    yield s, s[:2] + (900,) + s[3:30] + (encode(s),)


def test_raw_search_matches_object_oracle():
    for s, t in _oracle_pairs():
        assert rel.rel_witnesses(s, t) == object_witness_search(s, t), (s, t)
        assert rel.psi(s, t) == object_psi(s, t), (s, t)


def test_generated_pairs_cover_the_graph():
    # the depth-4 pairs above are the loops and candidates t_graph decides
    g = rel.t_graph(4)
    pairs = set(_generated_pairs(4))
    assert len(pairs) == 1806 + 258
    assert {(g.nodes[i], g.nodes[i]) for i in g.loops} <= pairs
    assert {(g.nodes[i], g.nodes[j]) for i, j, _ in g.edges} <= pairs


def test_psi_examples():
    assert rel.psi((1, 1, 1), (1, 1, 900)).rank == 0
    assert rel.psi((1, 1, 4), (1, 1, 4)).rank == 0
    assert rel.psi((1, 1, 1), (1, 4, 1)).rank is None
    w = rel.psi((1, 1, 1), (1, 1, 900)).witness
    assert w.branch == dep.BranchIndex((), (0,))


def test_psi_against_oracle():
    # unrelated pairs are covered by the relation-oracle test (rank None
    # exactly when unrelated); here cross-check the minimal rank on the pairs
    # that do relate
    for p in range(4):
        nodes = al.enumerate_nodes(p)
        for s in nodes:
            for t in nodes:
                mine = rel.psi(s, t).rank
                if mine is None:
                    assert not rel.rel_R(s, t)
                    continue
                assert mine == oracle_psi(s, t), (s, t)


def test_graph_depth_zero_and_one():
    g0 = rel.t_graph(0)
    assert len(g0.nodes) == 1 and g0.edges == () and g0.loops == (0,)
    g1 = rel.t_graph(1)
    assert len(g1.edges) == 0 and len(g1.loops) == 2


def test_graph_depth_three_census():
    g = rel.t_graph(3)
    assert len(g.nodes) == 42
    assert len(g.edges) == 6
    expected = set()
    for a in (1, 4):
        for b in (1, 36, 288):
            expected.add(((a, b, 1), (a, b, j_code((a, b, 1)))))
    got = {(g.nodes[i], g.nodes[j]) for i, j, _ in g.edges}
    assert got == expected
    assert all(r == 0 for _, _, r in g.edges)
    assert len(g.loops) == sum(1 for nd in g.nodes if nd[2] != 1) == 36


def test_self_relation_profile():
    for p in range(5):
        for nd in al.enumerate_nodes(p):
            assert rel.rel_R(nd, nd) == rel.self_related_profile(nd)
            if rel.rel_R(nd, nd):
                assert rel.psi(nd, nd).rank == 0


def test_append_preserves_rank_exhaustive():
    for p in range(3):
        nodes = al.enumerate_nodes(p)
        labels = al.alphabet_at(p)
        for s in nodes:
            for t in nodes:
                base = rel.psi(s, t).rank
                for j in labels:
                    child = rel.psi(s + (j,), t + (j,))
                    if child.rank is not None:
                        assert child.rank == base, (s, t, j)


def test_antisymmetry_on_distinct_nodes():
    for p in range(4):
        nodes = al.enumerate_nodes(p)
        for s, t in itertools.combinations(nodes, 2):
            assert not (rel.rel_R(s, t) and rel.rel_R(t, s))


def test_relation_forces_lex_order():
    nodes = al.enumerate_nodes(3)
    for s, t in itertools.combinations(nodes, 2):
        # nodes come lexicographically sorted, so t never relates back to s
        assert not rel.rel_R(t, s)


def test_chain_examples():
    g = rel.t_graph(3)
    assert rel.t_chain((1, 1, 1), (1, 1, 1), g) == [(1, 1, 1)]
    chain = rel.t_chain((1, 1, 1), (1, 1, 900), g)
    assert chain == [(1, 1, 1), (1, 1, 900)]
    assert rel.t_chain((1, 1, 1), (4, 1, 1), g) is None
    with pytest.raises(ValueError):
        rel.t_chain((9, 9, 9), (1, 1, 1), g)


def test_forest_reports():
    for p in (2, 3):
        report = rel.verify_forest(rel.t_graph(p))
        assert report.acyclic and report.cycle is None
    triangle = rel.RelationGraph(
        1, ((1,), (2,), (3,)), ((0, 1, 0), (1, 2, 0), (0, 2, 0)), (), ()
    )
    report = rel.verify_forest(triangle)
    assert not report.acyclic
    assert report.cycle == ((1,), (2,), (3,), (1,))


@pytest.mark.parametrize("p", range(5))
def test_generated_graph_matches_pair_scan(p):
    # nodes, edges with their ranks and order, and loops all agree exactly
    assert rel.t_graph(p) == pair_scan_graph(p)


@pytest.mark.parametrize("p", range(5))
def test_census_closed_form(p):
    # loops(p) = prod over q < p of |A_q| less 1 at q in {2, 4, 8, ...}, and
    # every non-loop node is the earlier end of exactly one edge
    loops = math.prod(
        len(al.alphabet_at(q)) - (q >= 2 and q & (q - 1) == 0) for q in range(p)
    )
    g = rel.t_graph(p)
    assert len(g.loops) == loops
    assert len(g.edges) == al.node_count(p) - loops


@pytest.mark.parametrize("p", (3, 4))
def test_edge_count_closed_form(p):
    # 2 is the only coded position below 4, and every node with s[2] = 1
    # relates to exactly one partner: its rewrite there
    assert len(rel.t_graph(p).edges) == al.node_count(p) // len(al.alphabet_at(2))


def test_depth_four_edge_structure():
    g = rel.t_graph(4)
    assert len(g.edges) == 258  # six stems times the 43 level-3 labels
    for i, j, r in g.edges:
        s, t = g.nodes[i], g.nodes[j]
        assert s[3] == t[3] and s[:2] == t[:2]
        assert s[2] == 1 and t[2] == encode((s[0], s[1], 1))
        assert r == 0
    assert rel.verify_forest(g).acyclic


def test_two_rewrite_relation_at_depth_thirty_one():
    # the rewrite at index 30 = code(0,0,0) exists only on branches whose
    # interior level already rewrites index 2, so both coordinates must move
    L = 31
    s = (1,) * L
    deep_value = encode((1,) * 31)  # codes the all-ones input prefix
    t = list(s)
    t[2] = 900
    t[30] = deep_value
    t = tuple(t)
    assert rel.rel_R(s, t)
    result = rel.psi(s, t)
    assert result.rank == dep.e_inv((0,)) == 1
    assert result.witness.branch == dep.BranchIndex((0,), (0, 0))

    # moving index 30 without index 2 is unreachable
    only_deep = list(s)
    only_deep[30] = deep_value
    assert not rel.rel_R(s, tuple(only_deep))

    # the rewritten value codes the input prefix, not the partial image
    wrong = list(t)
    wrong[30] = encode((1, 1, 900) + (1,) * 28)
    assert not rel.rel_R(s, tuple(wrong))

    # single shallow rewrite stays available at this depth
    shallow = list(s)
    shallow[2] = 900
    assert rel.rel_R(s, tuple(shallow))
    assert rel.psi(s, tuple(shallow)).rank == 0
