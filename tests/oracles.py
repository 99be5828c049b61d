"""Independent reference computations the tests check the library against.

Everything here is deliberately naive: a bounded sieve, direct product
evaluation of the coding, decoding by trial division, branch discovery
re-encoding every level's base, branch constraints encoding every index
anew and their well-formedness read by set operations, domain membership
read one coordinate at a time, a branch map that decides membership so
and rebuilds and re-sorts its image (and the
verifier's two branch faults by their definitions over it), alphabet
membership decoded anew on every call (and, for factored codes, recursing
into every item), alphabet members ordered by their values alone, with
nothing read from the sorted alphabets whose positions the library's
``member_cmp`` reads, and alphabets sorted by that order pairwise, alphabet
members keyed and coded one at a time, brute-force enumeration of coded
sequences and the same enumeration by trial division of every even number,
the image
prefixes of a node found by building explicit points and pushing them
through the branch maps instead of reasoning about constraint truncations,
the relation witness search building a witness object per witness, a relation
graph and relation checks built by testing every pair of nodes, the
cascade generator, radius and admissibility check in ``Fraction`` arithmetic,
the index-map checks, witnesses and agreement scan one index at a time, the
first disagreement of two prefixes over the sorted union of their override
positions, the density check testing every domain per node and stem, the
domain sampler building its members anew on every draw, and the point-prefix
invariants read off a prefix's fields one by one.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import cmp_to_key

from hurewicz_kit import alphabet as alph
from hurewicz_kit import cascade as cs
from hurewicz_kit import departure as dep
from hurewicz_kit import good_sequence as good
from hurewicz_kit import relations as rel
from hurewicz_kit.alphabet import PointPrefix, enumerate_nodes
from hurewicz_kit.relations import EffectiveWitness, _expected_rewrite
from hurewicz_kit.base import CapacityError, DomainError, HorizonError, Tri
from hurewicz_kit.departure import BranchIndex, e_inv, level_start
from hurewicz_kit.prime_coding import (
    MATERIALIZE_BITS,
    SymbolicCode,
    code_value_cmp,
    encode,
    fixed_log,
    make_code_value,
    make_code_value_sparse,
    render_value,
    scaled_log_sign,
)
from hurewicz_kit.verifier import Check, _index_family


def sieve_primes(bound: int) -> list[int]:
    flags = bytearray([1]) * (bound + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(bound**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(flags[p * p :: p])
    return [i for i in range(bound + 1) if flags[i]]


_PRIMES = sieve_primes(200_000)


def prime(i: int) -> int:
    return _PRIMES[i]


def j_code(seq) -> int:
    if not seq:
        return 0
    return math.prod(prime(i) ** (e + 1) for i, e in enumerate(seq))


def all_seqs(max_len: int, max_entry: int):
    """Every sequence of length <= max_len with entries < max_entry."""
    for n in range(max_len + 1):
        yield from itertools.product(range(max_entry), repeat=n)


def codes_in_order(limit: int) -> list[tuple]:
    """Sequences with code < limit, sorted by code; brute force over a grid
    wide enough for the limit (entries e need 2^(e+1) <= limit)."""
    max_entry = max(1, limit.bit_length())
    max_len = 1
    while j_code(tuple([0] * (max_len + 1))) < limit:
        max_len += 1
    found = [(j_code(s), s) for s in all_seqs(max_len, max_entry) if j_code(s) < limit]
    found.sort()
    return [s for _, s in found]


def decode_trial_division(c) -> tuple | None:
    """decode by dividing out q_0, q_1, ... one factor at a time."""
    if isinstance(c, SymbolicCode):
        return c.seq()
    if not isinstance(c, int) or c < 0:
        return None
    if c == 0:
        return ()
    if c == 1:
        return None
    entries = []
    i = 0
    while c > 1:
        p = prime(i)
        e = 0
        while c % p == 0:
            c //= p
            e += 1
        if e == 0:
            return None
        entries.append(e - 1)
        i += 1
    return tuple(entries)


def code_value_per_call(length: int, items):
    """make_code_value_sparse with the all-ones product rebuilt on every call
    and the cutoff decided exactly: materialized iff at most 2^MATERIALIZE_BITS."""
    if length == 0:
        return 0
    entries = [1] * length
    for pos, v in items:
        entries[pos] = v
    if any(isinstance(v, SymbolicCode) for v in entries):
        return SymbolicCode(length, items)
    # q^(e+1) has at least (e+1) * (bits of q - 1) bits; summed only until
    # past the cutoff, so a long sequence reads no prime past the table
    low = 0
    for i, e in enumerate(entries):
        low += (e + 1) * (prime(i).bit_length() - 1)
        if low > MATERIALIZE_BITS:
            return SymbolicCode(length, items)
    value = 1
    for i in range(length):
        value *= prime(i) ** 2
    for pos, v in items:
        if v:
            value *= prime(pos) ** (v - 1)
        else:
            value //= prime(pos)
    if value <= 1 << MATERIALIZE_BITS:
        return value
    return SymbolicCode(length, items)


def member_valid_uncached(level: int, v) -> bool:
    """Alphabet membership with every int value decoded by trial division on
    every call, entries equal to 1 included."""
    if v == 1:
        return True
    if isinstance(v, SymbolicCode):
        if v.length != level + 1 or v.entry(level) != 1:
            return False
        return all(member_valid_uncached(p, w) for p, w in v.items)
    seq = decode_trial_division(v)
    if seq is None or len(seq) != level + 1 or seq[-1] != 1:
        return False
    return all(member_valid_uncached(i, w) for i, w in enumerate(seq[:-1]))


def member_valid_recursive(level: int, v) -> bool:
    """Alphabet membership recursing into every item of a factored code,
    its last position read by ``entry``; ints by the library's cached
    test."""
    if isinstance(v, SymbolicCode):
        if v.length != level + 1 or v.entry(level) != 1:
            return False
        return all(member_valid_recursive(p, w) for p, w in v.items)
    if v == 1:
        return True
    if not isinstance(v, int):
        return False
    return alph._int_member_valid(level, v)


def density_check_membership_per_stem(depth, horizon, by_stem, constraints) -> Check:
    """The density check testing the found branch's membership on its own
    and then every domain of the stem again, a fresh found branch and
    constraint per (node, stem)."""
    check = Check("density-unique-branch")
    stems = dep.sequences_below(horizon)
    for p in range(depth + 1):
        for node in enumerate_nodes(p):
            x = alph.point_from_node(node)
            for s in stems:
                outcome, t = dep.find_branch(s, x, horizon=10**15)
                if outcome is Tri.UNKNOWN:
                    check.skip()
                    continue
                found = BranchIndex(s, t)
                if constraints(found).membership(x) is not Tri.YES:
                    check.fail(stem=s, node=node, found=found)
                    continue
                expected = 1 if found.top_index() < horizon else 0
                hits = sum(
                    1 for _, c in by_stem.get(s, ()) if c.membership(x) is Tri.YES
                )
                check.require(
                    hits == expected,
                    stem=s,
                    node=node,
                    found=found,
                    domains_hit=hits,
                    expected=expected,
                )
    return check


def member_cmp_by_value(level: int, x, y) -> int:
    """Exact value order of two alphabet members at the given level, decided
    from the values alone: nothing is read from the sorted alphabets.
    Levels <= 3 and mixed pairs go to ``code_value_cmp``; at level 4 a
    differing level-3 entry that is factored decides by its own order (the
    ``alphabets`` docstring proves the dominance), and an equal one leaves
    the exact log sign of the first three entries; two factored members
    past level 4 are refused."""
    if x == y:
        return 0
    if x == 1:
        return -1
    if y == 1:
        return 1
    if isinstance(x, int) and isinstance(y, int):
        return -1 if x < y else 1
    if level <= 3 or isinstance(x, int) or isinstance(y, int):
        return code_value_cmp(x, y)
    if level > 4:
        raise CapacityError("ordering beyond level 4 exceeds the configured caps")
    d1, d2 = x.entry(3), y.entry(3)
    if d1 != d2 and (isinstance(d1, SymbolicCode) or isinstance(d2, SymbolicCode)):
        return member_cmp_by_value(3, d1, d2)
    if d1 == d2:
        terms = []
        for i in range(3):
            terms.append((x.entry(i) + 1, prime(i)))
            terms.append((-(y.entry(i) + 1), prime(i)))
        return scaled_log_sign(terms)
    return code_value_cmp(x, y)


def alphabets_by_comparator(depth: int) -> list[tuple]:
    """A_0 .. A_{depth-1}, each level built from the oracle's own lower levels
    and sorted by pairwise ``member_cmp_by_value`` calls alone."""
    levels: list[tuple] = []
    for level in range(depth):
        members = [1]
        for u in itertools.product(*levels):
            members.append(make_code_value(u + (1,)))
        members.sort(key=cmp_to_key(lambda a, b: member_cmp_by_value(level, a, b)))
        levels.append(tuple(members))
    return levels


def order_key_per_member(u: tuple, logs: list[int], ranks: dict) -> tuple:
    """Sort key (tier, rank, S, coefficients) of the code of u⌢1: tier 1,
    rank 0 and S = sum(u_j * fixed_log(q_j)) when every entry is an int;
    for a level-4 member (a, b, c, d) whose level-3 entry d is factored,
    tier 2, the rank of d in A_3 and S of (a, b, c)."""
    if len(u) == 4 and isinstance(u[3], SymbolicCode):
        head = u[:3]
        return (2, ranks[u[3]], sum(v * q for v, q in zip(head, logs)), head)
    return (1, 0, sum(v * q for v, q in zip(u, logs)), u)


def keyed_members_per_member(level: int, lower: list[tuple]) -> list[tuple]:
    """(key, member) for every member of A_level other than 1, unsorted and
    in product order, given the sorted alphabets A_0 .. A_{level-1}: each
    member keyed alone (``order_key_per_member``) and built by its own
    ``make_code_value`` call."""
    logs = [fixed_log(prime(j)) for j in range(level)]
    ranks = {m: r for r, m in enumerate(lower[3])} if level == 4 else {}
    return [
        (order_key_per_member(u, logs, ranks), make_code_value(u + (1,)))
        for u in itertools.product(*lower)
    ]


def find_branch_reencoding(s: tuple, x: PointPrefix, horizon: int = dep.DEFAULT_HORIZON):
    """Greedy branch discovery with the code of each level's base computed
    anew by a direct product."""
    t: list[int] = []
    for j in range(len(s) + 1):
        base = s[:j] + tuple(t)
        q = prime(len(base))
        p = 0
        idx = (j_code(base) if base else 1) * q
        while True:
            if idx > horizon:
                return Tri.UNKNOWN, None
            v = x.coord(idx)
            if v is Tri.UNKNOWN:
                return Tri.UNKNOWN, None
            if v == 1:
                t.append(p)
                break
            p += 1
            idx *= q
    return Tri.YES, tuple(t)


def constraint_well_formed(ones: tuple, non_ones: tuple) -> bool:
    """Whether (ones, non_ones) is a clopen domain as the branch maps read
    it, by set operations on the two fields: some index must be 1, each
    field lists a set of naturals once in increasing order, no index is in
    both, and the largest index either names is the last must-be-1 one."""
    named = ones + non_ones
    return (
        len(ones) > 0
        and list(ones) == sorted(set(ones))
        and list(non_ones) == sorted(set(non_ones))
        and min(named) >= 0
        and not set(ones) & set(non_ones)
        and max(named) == ones[-1]
    )


def constraints_by_encoding(b: dep.BranchIndex) -> dep.CylinderConstraint:
    """Branch constraints with every constrained index encoded anew."""
    ones = []
    non_ones = []
    for j in range(len(b.s) + 1):
        base = b.s[:j] + b.t[:j]
        for p in range(b.t[j]):
            non_ones.append(encode(base + (p,)))
        ones.append(encode(base + (b.t[j],)))
    return dep.CylinderConstraint(tuple(ones), tuple(sorted(non_ones)))


def membership_by_coord(cons: dep.CylinderConstraint, x: PointPrefix) -> Tri:
    """Domain membership reading every constrained index through ``coord``."""
    unknown = False
    for q in cons.ones:
        v = x.coord(q)
        if v is Tri.UNKNOWN:
            unknown = True
        elif v != 1:
            return Tri.NO
    for q in cons.non_ones:
        v = x.coord(q)
        if v is Tri.UNKNOWN:
            unknown = True
        elif v == 1:
            return Tri.NO
    return Tri.UNKNOWN if unknown else Tri.YES


def image_rebuilding(
    b: dep.BranchIndex, cons: dep.CylinderConstraint, x: PointPrefix
) -> PointPrefix:
    """The map rewriting the must-be-1 indices of the domain ``cons``:
    membership read one coordinate at a time (``membership_by_coord``),
    each rewrite's prefix collected by scanning every override, and the
    rewrite items and the image re-sorted and re-filtered."""
    membership = membership_by_coord(cons, x)
    if membership is Tri.NO:
        raise DomainError(f"point is outside the domain of {b}")
    if membership is Tri.UNKNOWN:
        needed = max(cons.ones + cons.non_ones)
        raise HorizonError(needed, f"prefix too short to decide membership in {b}")
    new_items = list(x.overrides)
    for q in cons.ones:
        if not x.tail_ones and q >= x.length:
            raise HorizonError(q)
        below = tuple((p, v) for p, v in x.overrides if p < q)
        new_items.append((q, make_code_value_sparse(q + 1, below)))
    length = max(x.length, cons.ones[-1] + 1)
    return PointPrefix(length, new_items, tail_ones=x.tail_ones)


def apply_rebuilding(b: dep.BranchIndex, x: PointPrefix) -> PointPrefix:
    """Branch map: ``image_rebuilding`` under ``constraints_by_encoding(b)``."""
    return image_rebuilding(b, constraints_by_encoding(b), x)


def dropped_constraints_by_encoding(b: dep.BranchIndex) -> dep.CylinderConstraint:
    """The verifier's drop-non-ones fault by its definition: b's constraint,
    encoded anew, with no must-not-be-1 index."""
    return dep.CylinderConstraint(constraints_by_encoding(b).ones, ())


def dropped_rebuilding(b: dep.BranchIndex, x: PointPrefix) -> PointPrefix:
    """The drop-non-ones fault's branch map by its definition:
    ``image_rebuilding`` under ``dropped_constraints_by_encoding(b)``."""
    return image_rebuilding(b, dropped_constraints_by_encoding(b), x)


def off_by_one_rebuilding(b: dep.BranchIndex, x: PointPrefix) -> PointPrefix:
    """The verifier's rewrite-off-by-one fault by its definition: the image
    of ``apply_rebuilding`` with every rewritten value increased by one, a
    factored value by a final entry off by one, rebuilt from its entries."""
    y = apply_rebuilding(b, x)
    ones = constraints_by_encoding(b).ones
    items = []
    for p, v in y.overrides:
        if p in ones:
            if isinstance(v, int):
                v += 1
            else:
                entries = v.seq()
                v = SymbolicCode(v.length, enumerate(entries[:-1] + (entries[-1] + 1,)))
        items.append((p, v))
    return PointPrefix(y.length, items, tail_ones=y.tail_ones)


def codes_by_trial_division(limit: int) -> list[int]:
    """Every code below the limit: 0, then each even n < limit that decodes."""
    found = [0] if limit > 0 else []
    for n in range(2, limit, 2):
        if decode_trial_division(n) is not None:
            found.append(n)
    return found


def oracle_images(s: tuple, stem_len: int = 1, max_entry: int = 6) -> set[tuple]:
    """Every image prefix of the s-cylinder, by explicit construction: try
    every branch over a small grid, solve its constraints around the node s,
    apply the map, and keep the first |s| output coordinates.

    s R t exactly when t is among them, for node depths <= 4: the only
    constrainable index below the node is 2, so a witnessing branch can
    always be truncated (and closed by huge extensions) to one whose stem is
    empty with a branch entry <= 1 in range; the grid covers every such
    branch and more.
    """
    L = len(s)
    images = set()
    for stem in all_seqs(stem_len, max_entry):
        for tt in itertools.product(range(max_entry), repeat=len(stem) + 1):
            b = dep.BranchIndex(tuple(stem), tt)
            cons = dep.constraints(b)
            overrides = {i: v for i, v in enumerate(s) if v != 1}
            feasible = True
            for q in cons.ones:
                if q < L:
                    if s[q] != 1:
                        feasible = False
                        break
                else:
                    overrides.pop(q, None)
            if not feasible:
                continue
            for q in cons.non_ones:
                if q < L:
                    if s[q] == 1:
                        feasible = False
                        break
                else:
                    overrides[q] = make_code_value_sparse(q + 1, ())
            if not feasible:
                continue
            length = max([L] + [q + 1 for q in cons.ones + cons.non_ones])
            x = PointPrefix(length, overrides.items(), tail_ones=True)
            if dep.in_domain(x, b) is not Tri.YES:
                continue
            y = dep.apply(b, x)
            images.add(tuple(y.coord(i) for i in range(L)))
    return images


def oracle_psi(s: tuple, t: tuple, max_rank: int = 40, max_entry: int = 6):
    """Least enumeration slot whose stem admits a witnessing branch, by direct
    search with the stem pinned."""
    for n in range(max_rank):
        stem = dep.e(n)
        for tt in itertools.product(range(max_entry), repeat=len(stem) + 1):
            b = dep.BranchIndex(stem, tt)
            cons = dep.constraints(b)
            L = len(s)
            overrides = {i: v for i, v in enumerate(s) if v != 1}
            feasible = True
            for q in cons.ones:
                if q < L and s[q] != 1:
                    feasible = False
                    break
                if q >= L:
                    overrides.pop(q, None)
            if feasible:
                for q in cons.non_ones:
                    if q < L and s[q] == 1:
                        feasible = False
                        break
                    if q >= L:
                        overrides[q] = make_code_value_sparse(q + 1, ())
            if not feasible:
                continue
            length = max([L] + [q + 1 for q in cons.ones + cons.non_ones])
            x = PointPrefix(length, overrides.items(), tail_ones=True)
            if dep.in_domain(x, b) is not Tri.YES:
                continue
            y = dep.apply(b, x)
            if all(y.coord(i) == t[i] for i in range(L)):
                return n
    return None


def object_witness_search(s: tuple, t: tuple) -> list[EffectiveWitness]:
    """All closed effective witnesses carrying the s-cylinder into the
    t-cylinder, shortest stems first."""
    L = len(s)
    remaining = []
    for q in range(L):
        if s[q] != t[q]:
            if s[q] != 1 or t[q] != _expected_rewrite(s[:q]):
                return []
            remaining.append(q)
    found: list[EffectiveWitness] = []

    def at_level(u: tuple, v: tuple, todo: frozenset) -> None:
        m = 0
        idx, q = level_start(u + v)
        while True:
            if idx >= L:
                # cut point: this level's rewrite lands past the node, and all
                # scanned lower candidates were satisfied non-1 constraints
                if not todo:
                    found.append(EffectiveWitness(BranchIndex(u, v + (m,)), len(u)))
                return
            if s[idx] == 1:
                # only this m can rewrite here; larger m would demand a non-1
                if idx in todo:
                    rest = todo - {idx}
                    if not rest:
                        found.append(
                            EffectiveWitness(BranchIndex(u, v + (m,)), len(u) + 1)
                        )
                    else:
                        # code(u ⌢ a ⌢ v ⌢ m ⌢ 0) grows by q_|u| with a
                        start = level_start(u + (0,) + v + (m,))[0]
                        step = level_start(u)[1]
                        a = 0
                        while start < L:
                            at_level(u + (a,), v + (m,), rest)
                            a += 1
                            start *= step
                return
            m += 1
            idx *= q

    at_level((), (), frozenset(remaining))
    return found


def object_psi(s: tuple, t: tuple) -> rel.PsiResult:
    """``psi`` over ``object_witness_search``: the least stem rank, with the
    first witness of that rank."""
    ws = object_witness_search(s, t)
    if not ws:
        return rel.PsiResult(None, None)
    rank, best = min(((e_inv(w.branch.s), w) for w in ws), key=lambda rw: rw[0])
    return rel.PsiResult(rank, best)


def pair_scan_graph(p: int) -> rel.RelationGraph:
    """The depth-p relation graph by running the exact witness search on every
    pair of nodes (i < j); quadratic, so practical up to depth 4."""
    nodes = enumerate_nodes(p)
    loops = tuple(i for i, nd in enumerate(nodes) if rel.rel_R(nd, nd))
    loop_ranks = tuple(
        min(dep.e_inv(w.branch.s) for w in rel.rel_witnesses(nodes[i], nodes[i]))
        for i in loops
    )
    edges = []
    for i, j in itertools.combinations(range(len(nodes)), 2):
        ws = rel.rel_witnesses(nodes[i], nodes[j])
        if ws:
            edges.append((i, j, min(dep.e_inv(w.branch.s) for w in ws)))
    return rel.RelationGraph(p, tuple(nodes), tuple(edges), loops, loop_ranks)


def pair_scan_relation_checks(relations_depth: int) -> list[Check]:
    """The verifier's relation checks by calling ``psi`` on every pair of
    nodes and every appended label (quadratic times the alphabet size, so
    practical up to depth 4)."""
    self_rank = Check("self-relation-rank-zero")
    profile = Check("self-relation-profile")
    append = Check("append-preserves-rank")
    forest = Check("chain-forest")
    for p in range(relations_depth + 1):
        nodes = alph.enumerate_nodes(p)
        for nd in nodes:
            related = rel.rel_R(nd, nd)
            profile.require(
                related == rel.self_related_profile(nd), node=nd, related=related
            )
            if related:
                self_rank.require(rel.psi(nd, nd).rank == 0, node=nd)
        if p < relations_depth:
            labels = alph.alphabet_at(p)
            for ss in nodes:
                for tt in nodes:
                    base = rel.psi(ss, tt).rank
                    for j in labels:
                        child = rel.psi(ss + (j,), tt + (j,))
                        if child.rank is None:
                            continue
                        if child.rank == base:
                            append.ok()
                        else:
                            append.fail(
                                s=ss,
                                t=tt,
                                label=render_value(j) if j != 1 else 1,
                                child_rank=child.rank,
                                parent_rank=base,
                            )
        g = rel.t_graph(p)
        report = rel.verify_forest(g)
        forest.require(
            report.acyclic,
            length=p,
            edges=report.edge_count,
            cycle=report.cycle,
        )
    return [self_rank, profile, append, forest]


def gen_cascade_fraction(seed: int, depth: int, branching: int) -> cs.CascadeSample:
    """Deterministic-from-seed sample satisfying both admissibility conditions
    by construction: ancestor gaps drawn first, children placed strictly
    inside the admissible radius and off every ancestor position."""
    if depth < 0 or branching < 0:
        raise ValueError("depth and branching must be naturals")
    rng = random.Random(seed)
    values: dict[tuple, Fraction] = {(): Fraction(0)}

    def eps_of(node: tuple, child_label: int) -> Fraction:
        best = Fraction(1, 2**child_label)
        for i in range(len(node)):
            best = min(best, abs(values[node[: i + 1]] - values[node[:i]]) / 4)
        for j in range(1, child_label):
            best = min(best, abs(values[node + (j,)] - values[node]) / 4)
        return best

    def grow(node: tuple, level: int) -> None:
        if level == depth:
            return
        ancestors = {values[node[:i]] for i in range(len(node) + 1)}
        for k in range(1, branching + 1):
            eps = eps_of(node, k)
            while True:
                r = Fraction(rng.randrange(1, 128), 128)
                sign = 1 if rng.randrange(2) else -1
                pos = values[node] + sign * eps * r / 2
                if pos not in ancestors:
                    break
            values[node + (k,)] = pos
        for k in range(1, branching + 1):
            grow(node + (k,), level + 1)

    grow((), 0)
    return cs.CascadeSample.from_values(values)


def epsilon_fraction(sample: cs.CascadeSample, child: tuple) -> Fraction:
    """The admissible-radius minimum for a child node s⌢k.

    The ancestor chain of s must be covered by the sample (missing entries
    raise); sibling terms run over the labels below k that the sample holds,
    which in a complete family is every positive label below k.
    """
    if not child:
        raise ValueError("the root has no admissible radius")
    s, k = child[:-1], child[-1]
    present = set(sample.nodes)
    best = Fraction(1, 2**k)
    for i in range(len(s)):
        best = min(best, sample.d(s[: i + 1], s[:i]) / 4)
    for j in range(k):
        sib = s + (j,)
        if sib in present:
            best = min(best, sample.d(sib, s) / 4)
    return best


def check_admissibility_fraction(
    sample: cs.CascadeSample, strict: bool = True
) -> cs.ConditionReport:
    """Both admissibility conditions over every non-root node of the sample,
    in Fractions read through ``sample.d``: the oracle of
    ``cascade.check_admissibility``.

    ``strict=False`` relaxes the radius bound to <=, the oracle of the
    verifier's epsilon-nonstrict fault; the genuine condition is strict."""
    violations = []
    for node in sample.nodes:
        if not node:
            continue
        parent = node[:-1]
        eps = epsilon_fraction(sample, node)
        gap = sample.d(node, parent)
        if (gap >= eps) if strict else (gap > eps):
            violations.append(("radius", node, gap, eps))
        for i in range(len(node)):
            if sample.d(node, node[:i]) == 0:
                violations.append(("ancestor-collision", node, node[:i]))
    return cs.ConditionReport(not violations, tuple(violations))


def per_k_index_map_checks(max_s_len: int, max_entry: int, horizon: int) -> list[Check]:
    """The verifier's injectivity, coprime-fixes and extension-agreement
    checks by calling each index map on every k in turn, with fresh maps and
    one agreement scan per (s, k)."""
    injective = Check("index-map-injective")
    fixes = Check("index-map-fixes-coprime")
    agree = Check("extension-agreement-horizon")
    for s in _index_family(max_s_len, max_entry):
        sig = good.IndexMap(s)
        seen: dict[int, int] = {}
        collision = None
        for k in range(horizon):
            v = sig(k)
            if v in seen:
                collision = (seen[v], k, v)
                break
            seen[v] = k
        injective.require(collision is None, s=s, collision=collision)
        divisors = good._divisors(s)
        bad = next(
            (
                k
                for k in range(min(horizon, 2000))
                if all((k + 1) % d for d in divisors) and sig(k) != k
            ),
            None,
        )
        fixes.require(bad is None, s=s, moved=bad)
    for s in _index_family(max_s_len - 1, max_entry):
        previous = None
        for k in range(1, max_entry + 1):
            b = good.convergence_bound(s, k)
            moved = agreement_below_bound_per_k(s, k, horizon)
            agree.require(moved is None, s=s, k=k, first_disagreement=moved)
            if previous is not None:
                agree.require(b > previous, s=s, k=k, bound=b, previous=previous)
            previous = b
    return [injective, fixes, agree]


def disagreement_witness_uncached(s, t, u) -> tuple[good.BitPrefix, int]:
    """disagreement_witness with the search for k redone for every word and
    fresh index maps on every call."""
    s = good._check_index(s)
    t = good._check_index(t)
    if s == t:
        raise ValueError("indices must differ")
    if not isinstance(u, good.BitPrefix):
        u = good.BitPrefix(bytes(u))
    m = next((i for i in range(min(len(s), len(t))) if s[i] != t[i]), None)
    if m is not None:
        if s[m] > t[m]:
            s, t = t, s
        base = encode(t[: m + 1]) // good.nth_prime(m)
        step = good.nth_prime(m + 2)
    else:
        if len(s) > len(t):
            s, t = t, s
        base = encode(t) // good.nth_prime(len(t) - 1)
        step = good.nth_prime(len(t) + 1)
    sig_s, sig_t = good.IndexMap(s), good.IndexMap(t)
    power = 1
    while True:
        k = base * power - 1
        a, b = sig_s(k), sig_t(k)
        if a != b and min(a, b) >= len(u.bits):
            word = bytearray(max(a, b) + 1)
            word[: len(u.bits)] = u.bits
            word[a] = 0
            word[b] = 1
            return good.BitPrefix(bytes(word)), k
        power *= step


def agreement_below_bound_per_k(s, k: int, horizon: int) -> int | None:
    """agreement_below_bound by calling both index maps on each index."""
    s = good._check_index(s)
    sig_parent = good.IndexMap(s)
    sig_child = good.IndexMap(s + (k,))
    limit = min(good.convergence_bound(s, k), horizon)
    for n in range(limit):
        if sig_parent(n) != sig_child(n):
            return n
    return None


def first_disagreement_by_position_set(x: PointPrefix, y: PointPrefix):
    """first_disagreement by sorting the union of both override positions and
    reading each side's value at every position in turn."""
    limit = min(float("inf") if z.tail_ones else z.length for z in (x, y))
    for i in sorted(set(x.override_map) | set(y.override_map)):
        if i >= limit:
            break
        if x.override_map.get(i, 1) != y.override_map.get(i, 1):
            return i
    if x.tail_ones and y.tail_ones:
        return None
    return Tri.UNKNOWN


def _sampled_non_one(level: int, rng: random.Random):
    if level < 4:
        return rng.choice(alph.alphabet_at(level)[1:])
    if rng.randrange(2):
        return make_code_value_sparse(level + 1, ())
    return make_code_value_sparse(level + 1, ((0, 4),))


def _sampled_noise(level: int, rng: random.Random):
    if level < 4:
        return rng.choice(alph.alphabet_at(level))
    pick = rng.randrange(3)
    if pick == 0:
        return 1
    return make_code_value_sparse(level + 1, () if pick == 1 else ((0, 4),))


def sample_domain_point(cons: dep.CylinderConstraint, rng: random.Random) -> PointPrefix:
    """A random point of the domain, each member built on the draw that
    picks it, and the blocked set rebuilt on every call."""
    top = cons.ones[-1]
    length = top + 1 + rng.randrange(3)
    overrides = {}
    for q in cons.non_ones:
        overrides[q] = _sampled_non_one(q, rng)
    blocked = set(cons.ones) | set(cons.non_ones)
    for _ in range(rng.randrange(4)):
        i = rng.randrange(length)
        if i in blocked:
            continue
        v = _sampled_noise(i, rng)
        if v != 1:
            overrides[i] = v
    return PointPrefix(length, overrides.items(), tail_ones=True)


def assert_prefix_invariants(x: PointPrefix) -> None:
    """The invariants every ``PointPrefix`` keeps, however it was built:
    a natural length, overrides sorted by distinct positions in [0, length),
    no value 1, and ``override_map`` holding the same pairs."""
    assert x.length >= 0, x
    positions = [p for p, _ in x.overrides]
    assert positions == sorted(set(positions)), x
    assert all(0 <= p < x.length for p in positions), x
    assert all(v != 1 for _, v in x.overrides), x
    assert x.override_map == dict(x.overrides), x
