"""Batch verification suites over the finite-depth combinatorics.

Every suite is a pure function of its parameters (depth, horizon, sample
count, seed) and produces a report that serializes to byte-identical JSON on
repeated runs.  Limit statements are only ever checked as finite shadows with
explicit index bounds; an exhausted horizon counts as inconclusive, never as
a failure.  Deliberate faults, planted here over the layers' functions, let
the test suite confirm that each check actually bites.

A suite's signature is its whole interface: ``hurewicz-kit verify`` passes a
suite only the flags given, each to the parameter of its name, so every
default is the signature's.  The CLI has flags for the integer parameters
named in ``cli._VERIFY_FLAGS`` and for ``fault``; the rest (``include``,
``extensions``, the good suite's pair bounds, the cascade's shape bounds)
only the library can set.  The signature also gives the report's params:
each suite reads its arguments through ``_suite_params``, which refuses a
fault the suite cannot plant, and a negative count, before any work.
"""

from __future__ import annotations

import json
import random

from .base import CapacityError, Tri, _below
from . import alphabet as alph
from . import cascade as casc
from . import departure as dep
from . import good_sequence as good
from . import relations as rel
from .alphabet import (
    PointPrefix,
    _checked_prefix,
    first_disagreement,
    member_cmp,
    member_valid,
)
from .departure import BranchIndex, CylinderConstraint
from .prime_coding import (
    SymbolicCode,
    make_code_value_sparse,
    render_value,
    repeated_code_log2_floor,
)

FAULT_REWRITE_OFF_BY_ONE = "rewrite-off-by-one"
FAULT_DROP_NON_ONES = "drop-non-ones"
FAULT_EPSILON_NONSTRICT = "epsilon-nonstrict"

# Every fault the verifier can plant, once: the suites that plant it, and
# the parameters (all but the seed) of mutation_report's run of the first of
# them.  Horizon 200 keeps every rewritten value materialized, which the
# off-by-one corruption needs.
FAULTS = {
    FAULT_REWRITE_OFF_BY_ONE: (
        ("departure", "no-isolated"),
        dict(depth=2, horizon=200, samples=20, include=("branch-axioms",)),
    ),
    FAULT_DROP_NON_ONES: (
        ("departure", "no-isolated"),
        dict(depth=2, horizon=200, samples=20, include=("branch-axioms", "density")),
    ),
    FAULT_EPSILON_NONSTRICT: (("cascade",), dict(trials=20)),
}

_COUNTEREXAMPLE_CAP = 5

# Largest good-suite horizon.  The index-map checks hold, at a time, the
# identity table IndexMap.prefix slices (grown to the horizon and kept after
# the call, so at most HORIZON_CAP ints), one map's values and their set,
# and one parent's values: a peak RSS (VmHWM) of 154-156 MB at the cap with
# the default maps, in one process with nothing else loaded (Python 3.11,
# 2 CPUs).
HORIZON_CAP = 10**6
# Largest good-suite sweeps, counted before any index or word is listed.  The
# index-map checks read every index map on [0, horizon); the witness check
# builds and checks one witness per ordered pair of distinct indices and word.
# Acceptance gate 6 reads 85 maps x 10^5 values and makes 156 x 8191 = 1.28M
# witness checks; the horizon cap at the default maps reads 8.5 x 10^7.  A
# map's codes and divisors, and so its values, grow with the index entries,
# so the reads are also capped in 64-bit words of the family's largest code
# (maps x horizon x words): one word at gate 6 and the defaults, 1,563 at
# max_s_len 1 and max_entry 10^5.
INDEX_MAP_READ_CAP = 10**8
WITNESS_CHECK_CAP = 1 << 22


class Check:
    """One named check of a report: its counts, the first
    ``_COUNTEREXAMPLE_CAP`` counterexamples and its notes."""

    __slots__ = ("name", "passed", "failed", "inconclusive", "counterexamples", "notes")

    def __init__(self, name: str):
        self.name = name
        self.passed = self.failed = self.inconclusive = 0
        self.counterexamples = []
        self.notes = []

    def ok(self, n: int = 1) -> None:
        self.passed += n

    @property
    def full(self) -> bool:
        """True once the check keeps no further counterexample."""
        return len(self.counterexamples) >= _COUNTEREXAMPLE_CAP

    def fail(self, **payload) -> None:
        self.failed += 1
        if not self.full:
            self.counterexamples.append({k: _show(v) for k, v in payload.items()})

    def skip(self, n: int = 1) -> None:
        self.inconclusive += n

    def require(self, condition: bool, **payload) -> None:
        if condition:
            self.ok()
        else:
            self.fail(**payload)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "failed": self.failed,
            "inconclusive": self.inconclusive,
            "counterexamples": self.counterexamples,
            "notes": self.notes,
        }


def _show(v) -> object:
    if isinstance(v, (int, str, bool)) or v is None:
        return v
    if isinstance(v, tuple) and not isinstance(v, SymbolicCode):
        return "(" + ",".join(str(_show(e)) for e in v) + ")"
    return repr(v)


class VerificationReport:
    """A suite's result: its name, its params and its checks in order."""

    __slots__ = ("suite", "params", "checks")

    def __init__(self, suite: str, params: dict, checks: list):
        self.suite = suite
        self.params = params
        self.checks = checks

    @property
    def failed(self) -> int:
        return sum(c.failed for c in self.checks)

    @property
    def inconclusive(self) -> int:
        return sum(c.inconclusive for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "schema": "hurewicz-kit/1",
            "suite": self.suite,
            "params": {k: _show(v) for k, v in sorted(self.params.items())},
            "checks": [c.as_dict() for c in self.checks],
            "summary": {
                "passed": sum(c.passed for c in self.checks),
                "failed": self.failed,
                "inconclusive": self.inconclusive,
            },
        }

    def to_json_bytes(self) -> bytes:
        return dump_json(self.to_json_dict()).encode()


def dump_json(doc: dict) -> str:
    """Every JSON document the kit emits: indent 2, sorted keys, ASCII, final newline."""
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=True) + "\n"


# --- parameter checks, made before a suite does any work ----------------------


def _suite_params(suite: str, args: dict) -> dict:
    """The report's params: a copy of ``args``, the suite's ``locals()`` read
    as its first statement, so its arguments in signature order.  Refuses a
    fault the suite cannot plant, then every negative int argument but the
    seed."""
    params = dict(args)
    fault = params.get("fault")
    honoured = [f for f, (suites, _) in FAULTS.items() if suite in suites]
    if fault is not None and fault not in honoured:
        raise ValueError(
            f"suite {suite} cannot inject fault {fault} (it honours: {', '.join(honoured)})"
        )
    negative = [
        name for name, v in params.items()
        if name != "seed" and isinstance(v, int) and v < 0
    ]
    if negative:
        raise ValueError(f"{suite} parameters must be naturals: {', '.join(negative)}")
    return params


# --- sampling helpers --------------------------------------------------------


def _noise_value(level: int, bits):
    """A noise draw for a coordinate of this level, by ``choice``'s rule
    (``_below``) on ``getrandbits`` ``bits``: a member of the level's
    alphabet, or None when the member drawn is 1 (every alphabet lists 1
    first).  From level 4 on, where the alphabet is not built, the draw is
    among 1 and the codes of (1, ..., 1) and (4, 1, ..., 1), building only
    the one drawn."""
    if level < 4:
        members = alph.alphabet_at(level)
        k = _below(bits, len(members))
        return members[k] if k else None
    pick = _below(bits, 3)
    if pick == 0:
        return None
    return make_code_value_sparse(
        level + 1, () if pick == 1 else ((0, 4),), canonical=True
    )


def _non_one_members(level: int) -> tuple:
    """The members a sample may put at a must-not-be-1 index of this level:
    the alphabet's non-1 members below level 4, and from level 4 on, where
    the alphabet is not built, the codes of (4, 1, ..., 1) and (1, ..., 1)."""
    if level < 4:
        return alph.alphabet_at(level)[1:]
    return (
        make_code_value_sparse(level + 1, ((0, 4),), canonical=True),
        make_code_value_sparse(level + 1, (), canonical=True),
    )


class _SamplePlan:
    """Random points of one branch domain, completed by the all-ones tail.

    Built once per branch from its constraint: the blocked indices (every
    constrained one) and, for each must-not-be-1 index, the tuple of members
    its value is drawn from.  A draw takes a generator's ``getrandbits``
    and reads, by ``_below`` (``randrange``'s rule, and ``choice``'s as
    ``seq[_below(bits, len(seq))]``), its explicit length past the top
    rewritten index, a value for each must-not-be-1 index, and up to three
    noise coordinates at unblocked indices, in that order: the values and
    the bits ``random.Random``'s own ``randrange`` and ``choice`` would
    draw.

    A draw builds its prefix from fields valid as they stand, unchecked:
    positions are distinct dict keys, every value is a member other than 1
    (``_non_one_members`` holds none, ``_noise_value`` gives None for it),
    noise positions lie below the length, and every must-not-be-1 index is
    a natural below the top, so below the length too (the constraint's
    constructor proved it).
    """

    __slots__ = ("top", "blocked", "non_ones")

    def __init__(self, cons: dep.CylinderConstraint):
        self.top = cons.ones[-1]
        self.blocked = frozenset(cons.ones + cons.non_ones)
        self.non_ones = tuple((q, _non_one_members(q)) for q in cons.non_ones)

    def draw(self, bits) -> PointPrefix:
        length = self.top + 1 + _below(bits, 3)
        overrides = {q: m[_below(bits, len(m))] for q, m in self.non_ones}
        for _ in range(_below(bits, 4)):
            i = _below(bits, length)
            if i in self.blocked:
                continue
            v = _noise_value(i, bits)
            if v is not None:
                overrides[i] = v
        # positions are distinct, so the pairs sort by position alone
        items = tuple(sorted(overrides.items()))
        return _checked_prefix(length, True, items, overrides)


# --- branch faults -------------------------------------------------------------


def _branch_maps(fault: str | None) -> tuple:
    """The constraint and image functions a branch suite runs with.  The
    image function takes (b, cons, x), cons being the constraint function's
    value at b, which the suite holds in its table, so no image looks a
    constraint up again.  With no fault they are the departure layer's
    ``constraints`` and ``image``, looked up when the suite runs (so a
    function swapped into the layer is the one run); drop-non-ones swaps in
    constraints with no must-not-be-1 index, over which ``image`` rewrites
    unchanged; rewrite-off-by-one wraps ``image``."""
    if fault == FAULT_DROP_NON_ONES:
        return _dropped_constraints, dep.image
    if fault == FAULT_REWRITE_OFF_BY_ONE:
        return dep.constraints, _off_by_one_image
    return dep.constraints, dep.image


def _dropped_constraints(b: BranchIndex) -> CylinderConstraint:
    """The drop-non-ones fault: b's constraint with no must-not-be-1 index."""
    return CylinderConstraint(dep.constraints(b).ones, ())


def _off_by_one_image(
    b: BranchIndex, cons: CylinderConstraint, x: PointPrefix
) -> PointPrefix:
    """The rewrite-off-by-one fault: the image with every rewritten value
    increased by one (a factored value gains a final entry off by one)."""
    y = dep.image(b, cons, x)
    rewrites = []
    for q in cons.ones:
        v = y.coord(q)
        if isinstance(v, int):
            v += 1
        else:
            v = make_code_value_sparse(v.length, v.items + ((v.length - 1, 2),))
        rewrites.append((q, v))
    return y.without(set(cons.ones)).with_overrides(y.length, tuple(rewrites))


# --- departure suite ---------------------------------------------------------

_DEPARTURE_GROUPS = ("branch-axioms", "density", "relations")


def verify_departure(
    depth: int = 3,
    horizon: int = 10_000,
    samples: int = 50,
    seed: int = 0,
    fault: str | None = None,
    relations_depth: int | None = None,
    include: tuple = _DEPARTURE_GROUPS,
) -> VerificationReport:
    """Finite-depth checks of the branch-map axioms against the concrete family.

    Covers: well-formed constraint sets (a malformed one is refused by its
    constructor); strict lexicographic increase and coordinate
    stabilization beyond the top rewritten index; alphabet closure and
    injectivity of the rewrites; nested domains with the disagreement
    bound between a branch and its extensions; pairwise disjointness of
    same-level branch domains; density (greedy placement of every node in
    exactly one enumerated branch domain per stem); and the relation axioms
    delegated to the relation machinery.
    """
    params = _suite_params("departure", locals())
    unknown = [g for g in include if g not in _DEPARTURE_GROUPS]
    if unknown:
        raise ValueError(
            f"departure has no check group {', '.join(unknown)} "
            f"(it has: {', '.join(_DEPARTURE_GROUPS)})"
        )
    if relations_depth is None:  # no int, so not checked as a count
        params["relations_depth"] = relations_depth = min(depth, 3)
    params["include"] = ",".join(include)
    # a node census over the cap is refused before branch work
    if "relations" in include:
        alph.require_node_count(relations_depth)
    if "density" in include:
        alph.require_node_count(depth)
    checks: list[Check] = []
    constraints, image = _branch_maps(fault)
    # every branch within the horizon with its constraint, by top index, and
    # each stem's branches in that order
    cons_of = {b: constraints(b) for b in dep.branches_within(horizon)}
    by_stem: dict[tuple, list] = {}
    for b, cons in cons_of.items():
        by_stem.setdefault(b.s, []).append((b, cons))

    if "branch-axioms" in include:
        checks.extend(_branch_axiom_checks(cons_of, by_stem, samples, seed, image))
    if "density" in include:
        checks.append(_density_check(depth, horizon, by_stem, constraints))
    if "relations" in include:
        checks.extend(_relation_checks(relations_depth))
    return VerificationReport("departure", params, checks)


def _branch_axiom_checks(cons_of, by_stem, samples, seed, image):
    """The branch-map axioms on every branch of ``cons_of`` (branch ->
    constraint) with the suite's ``image``, each image under the constraint
    the table holds.  A branch's parent is within the horizon too: its
    must-be-1 indices are some of the branch's.

    ``constraint-wellformedness`` passes once per constraint of the table:
    each got past ``CylinderConstraint``'s constructor, which refuses a
    malformed one, so a faulty constraint function stops the suite with
    its ``ValueError`` instead.  A sample's checks count a pass and build
    no payload; only a failure builds one."""
    wellformed = Check("constraint-wellformedness")
    lex = Check("lex-increase")
    stab = Check("stabilization-beyond-top")
    closure = Check("alphabet-closure")
    inject = Check("injectivity-on-samples")
    nested = Check("nested-domains")
    bound = Check("stability-bound")
    disjoint = Check("branch-disjointness")
    lex_ok = stab_ok = closure_ok = inject_ok = bound_ok = 0

    wellformed.ok(len(cons_of))
    for b, cons in cons_of.items():
        ones = cons.ones
        top_index = b.top_index()
        first, past = ones[0], ones[-1] + 1
        draw = _SamplePlan(cons).draw
        bits = random.Random(seed * 1_000_003 + top_index).getrandbits
        seen: dict = {}
        for _ in range(samples):
            x = draw(bits)
            y = image(b, cons, x)
            fd = first_disagreement(x, y)
            if (
                isinstance(fd, int)
                and fd == first
                and member_cmp(fd, x.coord(fd), y.coord(fd)) < 0
            ):
                lex_ok += 1
            else:
                lex.fail(branch=b, point=x, image=y, first_disagreement=fd)
            # both overrides are canonical and both tails all 1s
            if x.overrides_from(past) == y.overrides_from(past):
                stab_ok += 1
            else:
                stab.fail(branch=b, point=x, image=y)
            for q in ones:
                v = y.coord(q)
                if v == 1 or not member_valid(q, v):
                    # rendering is costly: only a kept counterexample is rendered
                    rewrites = None if closure.full else tuple(
                        render_value(y.coord(q)) for q in ones
                    )
                    closure.fail(branch=b, point=x, rewrites=rewrites)
                    break
            else:
                closure_ok += 1
            xk = x.key()
            if seen.setdefault(y.key(), xk) != xk:
                inject.fail(branch=b, image=y, point=x)
            else:
                inject_ok += 1

        # extensions of b inside the horizon: nested domains + disagreement bound
        if b.s:
            parent = BranchIndex(b.s[:-1], b.t[:-1])
            pcons = cons_of[parent]
            nested.require(
                set(pcons.ones) <= set(ones)
                and set(pcons.non_ones) <= set(cons.non_ones),
                child=b,
                parent=parent,
            )
            bits = random.Random(seed * 2_000_003 + top_index).getrandbits
            for _ in range(samples):
                x = draw(bits)
                if pcons.membership(x) is not Tri.YES:
                    nested.fail(child=b, parent=parent, point=x)
                    continue
                fd = first_disagreement(image(b, cons, x), image(parent, pcons, x))
                if isinstance(fd, int) and fd >= top_index:
                    bound_ok += 1
                else:
                    bound.fail(child=b, parent=parent, point=x, first_disagreement=fd)

    lex.ok(lex_ok)
    stab.ok(stab_ok)
    closure.ok(closure_ok)
    inject.ok(inject_ok)
    bound.ok(bound_ok)
    for stem, group in sorted(by_stem.items()):
        for i, (b1, c1) in enumerate(group):
            for b2, c2 in group[i + 1 :]:
                contradiction = bool(
                    set(c1.ones) & set(c2.non_ones) or set(c2.ones) & set(c1.non_ones)
                )
                disjoint.require(contradiction, first=b1, second=b2, stem=stem)
    return [wellformed, lex, stab, closure, inject, nested, bound, disjoint]


def _density_check(depth, horizon, by_stem, constraints) -> Check:
    """Every node of each depth up to ``depth``, completed by the all-ones
    tail, lands via greedy discovery in exactly one enumerated branch domain
    per stem with coded value below the horizon (domains as the suite's
    ``constraints`` gives them).  The stems' level walk is built once and
    run at every node.  Passes are counted, and a payload is built only
    for a failure."""
    check = Check("density-unique-branch")
    passed = 0
    stems = dep.sequences_below(horizon)
    walk = dep.stem_walk(stems)
    # (s, t) -> (branch, its top index, its constraint)
    found_at: dict[tuple, tuple] = {}
    for p in range(depth + 1):
        for node in alph.enumerate_nodes(p):
            x = alph.point_from_node(node)
            # reads are decidable at any index under the tail convention
            results = dep.walk_branches(walk, x, horizon=10**15)
            for s, (outcome, t) in zip(stems, results):
                if outcome is Tri.UNKNOWN:
                    # the scan left the index horizon: no verdict either way
                    check.skip()
                    continue
                known = found_at.get((s, t))
                if known is None:
                    found = BranchIndex(s, t)
                    known = found_at[s, t] = (
                        found, found.top_index(), constraints(found)
                    )
                found, top, cons = known
                # inside the horizon the found branch is one of the stem's
                # domains; past it, its membership is tested on its own
                member = top >= horizon and cons.membership(x) is Tri.YES
                hits = 0
                for b, c in by_stem.get(s, ()):
                    if c.membership(x) is Tri.YES:
                        hits += 1
                        member = member or b.t == t
                if not member:
                    check.fail(stem=s, node=node, found=found)
                    continue
                expected = 1 if top < horizon else 0
                if hits == expected:
                    passed += 1
                else:
                    check.fail(
                        stem=s,
                        node=node,
                        found=found,
                        domains_hit=hits,
                        expected=expected,
                    )
    check.ok(passed)
    return check


def _relation_checks(relations_depth: int) -> list[Check]:
    """The relation axioms at depths up to ``relations_depth``, read off the
    relation graph ``t_graph(p)`` built once per depth.

    The related pairs of depth-p nodes are the loops (s R s) and the edges of
    the graph: relatedness forces s before t in node order, so (i, j) with
    i < j is the only orientation a distinct pair can be related in, and the
    graph lists every such pair (see ``t_graph``; ``tests/oracles`` checks it
    against a scan of all pairs up to depth 4).  ``psi`` has a rank exactly
    on related pairs, so the appended pairs (s⌢j, t⌢j) with a rank are the
    loops and edges whose two nodes end in the same label, and the rank of
    their truncation (s, t) is that of its loop or edge at the depth below,
    or None when (s, t) is unrelated.

    The per-node checks count their passes and build a payload only for a
    failure.
    """
    self_rank = Check("self-relation-rank-zero")
    profile = Check("self-relation-profile")
    append = Check("append-preserves-rank")
    forest = Check("chain-forest")
    parent_nodes: tuple = ()
    parent_ranks: dict = {}
    profile_ok = self_rank_ok = 0
    for p in range(relations_depth + 1):
        g = rel.t_graph(p)
        loop_rank = dict(zip(g.loops, g.loop_ranks))
        ranks = {(i, j): r for i, j, r in g.edges}  # related index pair -> psi
        for i, nd in enumerate(g.nodes):
            related = i in loop_rank
            if related == rel.self_related_profile(nd):
                profile_ok += 1
            else:
                profile.fail(node=nd, related=related)
            if related:
                ranks[i, i] = loop_rank[i]
                if ranks[i, i] == 0:
                    self_rank_ok += 1
                else:
                    self_rank.fail(node=nd)
        if p:
            # node i of depth p is parent node i // width with label i % width
            labels = alph.alphabet_at(p - 1)
            width = len(labels)
            appended = sorted(
                (i // width, j // width, i % width, r)
                for (i, j), r in ranks.items()
                if i % width == j % width
            )
            for a, b, k, r in appended:
                base = parent_ranks.get((a, b))
                if r == base:
                    append.ok()
                else:
                    append.fail(
                        s=parent_nodes[a],
                        t=parent_nodes[b],
                        label=render_value(labels[k]) if labels[k] != 1 else 1,
                        child_rank=r,
                        parent_rank=base,
                    )
        parent_nodes, parent_ranks = g.nodes, ranks
        report = rel.verify_forest(g)
        forest.require(
            report.acyclic,
            length=p,
            edges=report.edge_count,
            cycle=report.cycle,
        )
    profile.ok(profile_ok)
    self_rank.ok(self_rank_ok)
    return [self_rank, profile, append, forest]


# --- accumulation-point suite ------------------------------------------------


def verify_no_isolated(
    depth: int = 3,
    horizon: int = 10_000,
    samples: int = 50,
    seed: int = 0,
    extensions: int = 3,
    fault: str | None = None,
) -> VerificationReport:
    """Finite shadow of the no-isolated-image property: wherever a branch
    applies, extended branches apply too, and their images agree with the
    original image up to the extension's top rewritten index while differing
    beyond it.  Also bounds the number of distinct image prefixes across all
    applicable branches (equicontinuity shadow)."""
    params = _suite_params("no-isolated", locals())
    approx = Check("extension-approximates")
    equi = Check("equicontinuity-shadow")
    rng = random.Random(seed)
    nodes = alph.enumerate_nodes(depth)
    picked = sorted(rng.sample(range(len(nodes)), min(samples, len(nodes))))
    points = [alph.ALL_ONES] + [alph.point_from_node(nodes[i]) for i in picked]
    constraints, image = _branch_maps(fault)
    cons_of = {b: constraints(b) for b in dep.branches_within(horizon)}
    prec = depth + 2
    ceiling = 1 + len(dep.branches_within(prec))

    for x in points:
        applicable = [
            (b, cons) for b, cons in cons_of.items() if cons.membership(x) is Tri.YES
        ]
        prefixes = set()
        for b, cons in applicable:
            y = image(b, cons, x)
            prefixes.add(tuple(y.coord(i) for i in range(prec)))
            base_image = y
            for n in range(extensions):
                ext_s = b.s + (n,)
                outcome, t_ext = dep.find_branch(ext_s, x, horizon=10**15)
                if outcome is not Tri.YES:
                    approx.skip()
                    continue
                ext = BranchIndex(ext_s, t_ext)
                fd = first_disagreement(image(ext, constraints(ext), x), base_image)
                approx.require(
                    isinstance(fd, int) and fd >= ext.top_index(),
                    base=b,
                    extension=ext,
                    point=x,
                    first_disagreement=fd,
                )
        equi.require(
            len(prefixes) <= ceiling,
            point=x,
            distinct_prefixes=len(prefixes),
            ceiling=ceiling,
        )
    return VerificationReport("no-isolated", params, [approx, equi])


# --- alternating-composition scan ---------------------------------------------


def verify_arrival_scan(
    depth: int = 3,
    horizon: int = 10_000,
    max_chain: int = 1,
    seed: int = 0,
) -> VerificationReport:
    """Exploratory scan for fixed points of alternating compositions
    f^{-1}∘f∘...∘f of distinct branches.  Reports which compositions have a
    nonempty domain on the sampled points and whether any acts as the
    identity there; findings are informational, not failures."""
    params = _suite_params("arrival-scan", locals())
    scan = Check("alternating-compositions")
    branches = dep.branches_within(horizon)
    points = [alph.ALL_ONES] + [
        alph.point_from_node(nd) for nd in alph.enumerate_nodes(depth)
    ]
    # one extra point per branch from inside its image, so inverses get traffic
    bits = random.Random(seed).getrandbits
    for b in branches:
        x = _SamplePlan(dep.constraints(b)).draw(bits)
        points.append(dep.apply(b, x))

    findings = []

    def explore(word: list, states: list, position: int) -> None:
        if position < 0:
            identities = [
                i for i, cur in states if first_disagreement(cur, points[i]) is None
            ]
            scan.ok()
            if states:
                findings.append(
                    {
                        "word": "[" + " ".join(repr(b) for b in word) + "]",
                        "nonempty_on_samples": len(states),
                        "identity_hits": len(identities),
                    }
                )
            return
        direct = position % 2 == 1
        for b in branches:
            if word and b == word[-1]:
                continue
            nxt = []
            for i, cur in states:
                if direct:
                    if dep.in_domain(cur, b) is Tri.YES:
                        nxt.append((i, dep.apply(b, cur)))
                else:
                    outcome, pre = dep.apply_inverse(b, cur)
                    if outcome is Tri.YES:
                        nxt.append((i, pre))
            if nxt:
                explore(word + [b], nxt, position - 1)
            else:
                scan.ok()

    for k in range(1, max_chain + 1):
        explore([], list(enumerate(points)), 2 * k - 1)
    identity_findings = [f for f in findings if f["identity_hits"]]
    scan.notes.append(f"compositions with nonempty sampled domain: {len(findings)}")
    scan.notes.append(f"identity occurrences: {len(identity_findings)}")
    for f in findings[:20]:
        scan.notes.append(
            f"{f['word']}: nonempty on {f['nonempty_on_samples']} samples, "
            f"{f['identity_hits']} identity hits"
        )
    return VerificationReport("arrival-scan", params, [scan])


# --- index-substitution suite ---------------------------------------------------


def verify_good_sequence(
    max_s_len: int = 3,
    max_entry: int = 4,
    horizon: int = 100_000,
    pair_max_len: int = 2,
    pair_max_entry: int = 3,
    max_u_len: int = 12,
) -> VerificationReport:
    """Index-map injectivity on an initial segment, the agreement horizon
    between a map and its extensions, and dense disagreement witnesses."""
    params = _suite_params("good-suite", locals())
    if horizon > HORIZON_CAP:
        raise CapacityError(f"horizon {horizon} exceeds the cap {HORIZON_CAP}")
    # a map counts at least once, and the agreement check builds the length-1
    # maps even at max_s_len 0
    maps = _family_size(max(max_s_len, 1), max_entry, INDEX_MAP_READ_CAP)
    reads = maps * max(horizon, 1)
    if reads > INDEX_MAP_READ_CAP:
        raise CapacityError(
            f"max_s_len {max_s_len}, max_entry {max_entry} and horizon {horizon} "
            f"read more than {INDEX_MAP_READ_CAP} index-map values (maps x horizon)"
        )
    code_words = _code_words(max(max_s_len, 1), max_entry, INDEX_MAP_READ_CAP // reads)
    if reads * code_words > INDEX_MAP_READ_CAP:
        raise CapacityError(
            f"max_s_len {max_s_len}, max_entry {max_entry} and horizon {horizon} "
            f"read more than {INDEX_MAP_READ_CAP} 64-bit words of index-map values "
            "(maps x horizon x words of the largest code)"
        )
    indices = _family_size(pair_max_len, pair_max_entry, WITNESS_CHECK_CAP)
    pairs = indices * (indices - 1)
    words = (2 << min(max_u_len, WITNESS_CHECK_CAP.bit_length())) - 1
    if pairs * words > WITNESS_CHECK_CAP:
        raise CapacityError(
            f"pair_max_len {pair_max_len}, pair_max_entry {pair_max_entry} and "
            f"max_u_len {max_u_len} make more than {WITNESS_CHECK_CAP} witness "
            "checks (ordered index pairs x words)"
        )
    witness = Check("disagreement-witness")
    # Every word gets its own witness and its own check, from one sparse
    # witness sweep per ordered pair (good.witness_bits: each witness as its
    # word, its end and the position of its one 1, never built as bytes).
    # The pair's two index maps are looked up once per pair, and the two
    # source coordinates and the farther of them once per run of words with
    # the same k.  A witness passes when both source bits lie inside it, they
    # differ, and it extends its word; each is read in O(1).  The sweep runs
    # before the index-map checks, so a witness tail over WITNESS_TAIL_CAP is
    # refused before them.
    family = _index_family(pair_max_len, pair_max_entry)
    # with no pair, the cap above does not bound the words: list none
    words = list(_all_words(max_u_len)) if pairs else []
    for s in family:
        sig_s = good._index_map(s)
        for t in family:
            if s == t:
                continue
            sig_t = good._index_map(t)
            last_k = None
            passed = 0
            for u, (head, end, one, k) in zip(words, good.witness_bits(s, t, words)):
                if k != last_k:
                    last_k, src_s, src_t = k, sig_s(k), sig_t(k)
                    far = max(src_s, src_t)
                # past the head a bit reads as a bool, equal to its int
                n = len(head)
                bit_s = head[src_s] if src_s < n else src_s == one
                bit_t = head[src_t] if src_t < n else src_t == one
                if far < end and bit_s != bit_t and head == u:
                    passed += 1
                else:
                    witness.fail(s=s, t=t, u=u.hex(), k=k)
            witness.ok(passed)

    injective, fixes, agree = _index_map_checks(max_s_len, max_entry, horizon)
    return VerificationReport("good-suite", params, [injective, fixes, agree, witness])


def _index_map_checks(
    max_s_len: int, max_entry: int, horizon: int
) -> tuple[Check, Check, Check]:
    """Injectivity of each index map on [0, horizon), that it fixes every k
    below min(horizon, 2000) whose successor no level divisor divides, and
    that each map s⌢k agrees with its parent s below min(convergence_bound(s,
    k), horizon), with those bounds increasing in k.

    Each map is sieved once per role (IndexMap.prefix): the root at the
    horizon; each parent s of _index_family(max_s_len - 1, max_entry), in
    order, to the largest of its children's agreement limits; and each of
    its children s⌢k, so every map of the family in breadth-first order, at
    the horizon, or only to its limit when s⌢k is longer than max_s_len (the
    length-1 maps at max_s_len 0).  The injectivity and coprime-fix checks
    read the child's values, and the agreement check compares them with the
    parent's below the limit.  A repeated value shows as a set smaller than
    the horizon, and a moved index or a disagreement as two unequal lists;
    only then does the scan for the first repeat, moved k or differing index
    run.  Every sieve starts as a slice of good_sequence's identity table,
    grown here to the horizon.  The coprime indices are read through a
    second sieve over the level divisors, built here independent of
    IndexMap.prefix: it sets every k of the first min(horizon, 2000) values
    whose successor a level divisor divides to k, and the result is
    compared with the identity as one list, so a coprime position
    IndexMap.prefix leaves unwritten or writes wrongly is caught."""
    injective = Check("index-map-injective")
    fixes = Check("index-map-fixes-coprime")
    agree = Check("extension-agreement-horizon")
    # one identity for every map: the masked values take their ints from it,
    # so the comparison mostly meets the same objects
    identity = list(range(min(horizon, 2000)))
    good._extend_identity(horizon)

    def check(s, values):
        collision = None
        if len(set(values)) != horizon:
            seen: dict[int, int] = {}
            for k, v in enumerate(values):
                if v in seen:
                    collision = (seen[v], k, v)
                    break
                seen[v] = k
        injective.require(collision is None, s=s, collision=collision)
        masked = values[: len(identity)]
        for d in good._divisors(s):
            masked[d - 1 :: d] = identity[d - 1 :: d]
        bad = None
        if masked != identity:
            bad = next(k for k, v in enumerate(masked) if v != k)
        fixes.require(bad is None, s=s, moved=bad)

    check((), good._index_map(()).prefix(horizon))
    for s in _index_family(max_s_len - 1, max_entry):
        # the bounds are checked to increase below, not assumed to
        bounds = [good.convergence_bound(s, k) for k in range(1, max_entry + 1)]
        parent = good._index_map(s).prefix(min(max(bounds, default=0), horizon))
        previous = None
        for k, b in enumerate(bounds, 1):
            child = s + (k,)
            limit = min(b, horizon)
            if len(child) > max_s_len:
                values = good._index_map(child).prefix(limit)
            else:
                values = good._index_map(child).prefix(horizon)
                check(child, values)
            moved = None
            if values[:limit] != parent[:limit]:
                moved = next(n for n, (p, c) in enumerate(zip(parent, values)) if p != c)
            del values  # freed before the next child's sieve: one child held at a time
            agree.require(moved is None, s=s, k=k, first_disagreement=moved)
            if previous is not None:
                agree.require(b > previous, s=s, k=k, bound=b, previous=previous)
            previous = b
    return injective, fixes, agree


def _index_family(max_len: int, max_entry: int):
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [s + (v,) for s in frontier for v in range(1, max_entry + 1)]
        out.extend(frontier)
    return out


def _family_size(max_len: int, max_entry: int, limit: int) -> int:
    """len(_index_family(max_len, max_entry)) when at most ``limit``, else
    limit + 1; found without listing the family."""
    if max_entry <= 1:
        return min(max_len + 1 if max_entry else 1, limit + 1)
    size = level = 1
    for _ in range(max_len):
        level *= max_entry
        size += level
        if size > limit:
            return limit + 1
    return size


def _code_words(max_len: int, max_entry: int, limit: int) -> int:
    """A lower bound on the 64-bit words of the largest code an index family
    builds, code((max_entry,) * max_len), and at least 1; limit + 1 when over
    ``limit`` (>= 1).  Read from the prime logs, without building any code.

    ``repeated_code_log2_floor`` bounds its log2 from below.
    Each position adds at least max_entry + 1 bits, so the first
    64 * limit + 1 positions already pass the limit, and the prime-log table
    is extended no further."""
    if max_entry == 0 or max_len == 0:
        return 1  # the family is (): no code is built
    n = min(max_len, 64 * limit + 1)
    bits = repeated_code_log2_floor(n, max_entry)
    return min(max(1, -(-bits // 64)), limit + 1)


def _all_words(max_len: int):
    for n in range(max_len + 1):
        for mask in range(1 << n):
            yield bytes((mask >> i) & 1 for i in range(n))


# --- cascade suite -------------------------------------------------------------


def _nonstrict_admissibility(sample: casc.CascadeSample) -> casc.ConditionReport:
    """The epsilon-nonstrict fault: check_admissibility with the radius bound
    relaxed to <=.  It drops the radius violations that <= admits, those whose
    gap equals its radius; both are exact Fractions of the same integers."""
    report = casc.check_admissibility(sample)
    kept = tuple(v for v in report.violations if v[0] != "radius" or v[2] != v[3])
    return casc.ConditionReport(not kept, kept)


def verify_cascade(
    trials: int = 10_000,
    seed: int = 0,
    max_depth: int = 4,
    max_branching: int = 4,
    fault: str | None = None,
) -> VerificationReport:
    """Seeded cascade samples: admissibility by construction, then the derived
    separation inequality on every eligible triple, in exact arithmetic.
    Includes negative controls that the strict radius check must reject;
    ``epsilon-nonstrict`` checks with _nonstrict_admissibility instead.
    A trial's checks count a pass and build no payload; only a failure
    builds one."""
    if trials < 0 or max_depth < 1 or max_branching < 1:
        raise ValueError(
            "cascade needs trials >= 0 and max_depth, max_branching >= 1"
        )
    params = _suite_params("cascade", locals())
    # trial t draws shape (1 + t % D, 1 + (t // D) % B); every shape reached is
    # at most as deep and as wide as the last full row's or the last trial's,
    # so testing those two refuses an over-cap request before any trial runs
    reached = min(trials, max_depth * max_branching)
    rows, rest = divmod(reached, max_depth)
    if rows:
        casc.check_sample_capacity(max_depth, rows)
    if rest:
        casc.check_sample_capacity(rest, rows + 1)
    strict = fault != FAULT_EPSILON_NONSTRICT
    admissible = casc.check_admissibility if strict else _nonstrict_admissibility
    valid = Check("generated-samples-admissible")
    implication = Check("admissible-implies-separation")
    boundary = Check("boundary-control-rejected")
    control = Check("violating-control-detected")

    triples_total = valid_ok = implication_ok = 0
    for t in range(trials):
        depth = 1 + t % max_depth
        branching = 1 + (t // max_depth) % max_branching
        sample = casc.gen_cascade(seed + t, depth, branching)
        report = admissible(sample)
        if not report.ok:
            valid.fail(
                trial=t, depth=depth, branching=branching,
                violations=report.violations[:2],
            )
            continue
        valid_ok += 1
        checked, bad = casc.check_separation_all(sample)
        triples_total += checked
        if bad:
            implication.fail(trial=t, depth=depth, branching=branching, first=bad[:2])
        else:
            implication_ok += 1
    valid.ok(valid_ok)
    implication.ok(implication_ok)
    implication.notes.append(f"eligible triples checked: {triples_total}")

    tight = casc.tight_child_sample()
    boundary.require(
        not admissible(tight).ok,
        sample="single child exactly on its admissible radius",
        strict=strict,
    )
    broken = casc.violating_sample()
    rep = admissible(broken)
    _, bad = casc.check_separation_all(broken)
    control.require(
        (not rep.ok) and bool(bad),
        conditions_ok=rep.ok,
        separation_violations=len(bad),
    )
    return VerificationReport("cascade", params, [valid, implication, boundary, control])


# --- mutation harness ----------------------------------------------------------


def mutation_report(seed: int = 0) -> VerificationReport:
    """Run each fault of ``FAULTS``, in order, through a small run of the
    first suite that plants it, and demand detection with a concrete
    counterexample."""
    params = _suite_params("mutation", locals())
    checks = []
    for fault, (suites, probe) in FAULTS.items():
        report = SUITES[suites[0]](seed=seed, fault=fault, **probe)
        detected = report.failed > 0
        witnesses = [
            {"check": c.name, "counterexample": c.counterexamples[0]}
            for c in report.checks
            if c.failed and c.counterexamples
        ]
        check = Check(f"detects-{fault}")
        check.require(
            detected and bool(witnesses),
            fault=fault,
            failed_checks=report.failed,
        )
        check.notes.extend(json.dumps(w, sort_keys=True) for w in witnesses[:3])
        checks.append(check)
    return VerificationReport("mutation", params, checks)


SUITES = {
    "departure": verify_departure,
    "no-isolated": verify_no_isolated,
    "arrival-scan": verify_arrival_scan,
    "good-suite": verify_good_sequence,
    "cascade": verify_cascade,
    "mutation": mutation_report,
}
