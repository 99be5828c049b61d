"""Command-line front end: construction, inspection, verification, export.

Exit codes: 0 success, 1 verification failure, 2 usage or capacity error.
All output is deterministic for fixed flags (randomized suites take an
explicit --seed), so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from functools import partial
from itertools import islice

from .base import CapacityError, HorizonError, Tri
from . import alphabet as alph
from . import departure as dep
from . import good_sequence as good
from . import relations as rel
from . import verifier
from .prime_coding import (
    MATERIALIZE_BITS, SymbolicCode, decode, factored_str, make_code_value, render_value,
)


def _parse_node(text: str) -> tuple:
    if text in ("", "-", "()"):
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"node syntax is comma-separated decimal entries: {text!r}") from exc


def _parse_members(text: str, what: str) -> tuple:
    """Entries of a node or point prefix of the space: entry i must be a
    member of A_i; ``what`` names the argument in the refusal."""
    entries = _parse_node(text)
    for i, v in enumerate(entries):
        if not alph.member_valid(i, v):
            raise ValueError(f"{what} coordinate {i} is not in the alphabet A_{i}")
    return entries


def _parse_point(text: str, tail: bool) -> alph.PointPrefix:
    """A point prefix of the space."""
    return alph.PointPrefix.from_entries(_parse_members(text, "point"), tail_ones=tail)


def _entry_json(v):
    return v if isinstance(v, int) else factored_str(v)


def _node_label(node: tuple) -> str:
    return "(" + ",".join(str(_entry_json(v)) for v in node) + ")"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flag(name: str) -> str:
    return "--inject-fault" if name == "fault" else "--" + name.replace("_", "-")


def _refuse(command: str, stray: list) -> None:
    """A usage error naming the given flags ``command`` would ignore, if any."""
    if stray:
        raise ValueError(f"{command} does not take {', '.join(map(_flag, stray))}")


# --- commands ----------------------------------------------------------------


def cmd_alphabets(args) -> int:
    levels = alph.alphabets(args.depth)
    if args.format == "json":
        doc = {
            "schema": "hurewicz-kit/1",
            "kind": "alphabets",
            "depth": args.depth,
            "levels": [
                {
                    "level": i,
                    "size": len(a),
                    "members": [
                        {
                            "value": _entry_json(m),
                            "source": None if m == 1 else _node_label(decode(m)[:-1]),
                        }
                        for m in a
                    ],
                }
                for i, a in enumerate(levels)
            ],
        }
        _emit(verifier.dump_json(doc), args.out)
        return 0
    lines = []
    for i, a in enumerate(levels):
        lines.append(f"A_{i}  ({len(a)} members)")
        for m in a:
            if m == 1:
                lines.append("  1")
            else:
                lines.append(f"  {render_value(m)}  from node {_node_label(decode(m)[:-1])}")
    _emit("\n".join(lines) + ("\n" if lines else ""), args.out)
    return 0


def cmd_nodes(args) -> int:
    nodes = alph.enumerate_nodes(args.length)
    if args.format == "json":
        doc = {
            "schema": "hurewicz-kit/1",
            "kind": "nodes",
            "length": args.length,
            "count": len(nodes),
            "nodes": [[_entry_json(v) for v in nd] for nd in nodes],
        }
        _emit(verifier.dump_json(doc), args.out)
        return 0
    lines = [f"{len(nodes)} nodes of depth {args.length}"]
    lines.extend(_node_label(nd) for nd in nodes)
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# the flags a branch action does not read
_BRANCH_IGNORES = {"constraints": ("point", "tail"), "apply": (), "find": ("t",)}


def cmd_branch(args) -> int:
    given = vars(args)
    _refuse(f"branch {args.action}", [f for f in _BRANCH_IGNORES[args.action] if f in given])
    s = _parse_node(args.s)
    t = _parse_node(given.get("t", ""))
    b = dep.BranchIndex(s, t) if args.action != "find" else None
    # every index an action reads is at most code(s⌢t) (code(s) for find), and
    # the work grows with their bit length: refuse past the materialization cutoff
    if isinstance(make_code_value(s + t), SymbolicCode):
        raise CapacityError(
            f"code{_node_label(s + t)} is past the {MATERIALIZE_BITS}-bit "
            "materialization cutoff"
        )
    x = _parse_point(given.get("point", ""), "tail" in given)
    lines = []
    if args.action == "constraints":
        cons = dep.constraints(b)
        lines.append(f"branch {b}")
        lines.append(f"must be 1 at: {list(cons.ones)}")
        lines.append(f"must not be 1 at: {list(cons.non_ones)}")
        lines.append(f"top rewritten index: {b.top_index()}")
    elif args.action == "apply":
        state = dep.in_domain(x, b)
        if state is not Tri.YES:
            lines.append(f"point is {state.value} for the domain of {b}")
            _emit("\n".join(lines) + "\n", args.out)
            return 0 if state is Tri.UNKNOWN else 1
        y = dep.apply(b, x)
        lines.append(f"image: {y!r}")
        for q in dep.constraints(b).ones:
            lines.append(f"  rewritten coordinate {q}: {render_value(y.coord(q))}")
    else:  # find
        outcome, t = dep.find_branch(s, x)
        if outcome is Tri.YES:
            lines.append(f"branch: {dep.BranchIndex(s, t)}")
        else:
            lines.append(f"outcome: {outcome.value}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _graph_doc(g: rel.RelationGraph) -> dict:
    return {
        "schema": "hurewicz-kit/1",
        "kind": "relation-graph",
        "length": g.length,
        "node_count": len(g.nodes),
        "nodes": [[_entry_json(v) for v in nd] for nd in g.nodes],
        "edges": [
            {"s": _node_label(g.nodes[i]), "t": _node_label(g.nodes[j]), "psi": r}
            for i, j, r in g.edges
        ],
        "loops": [_node_label(g.nodes[i]) for i in g.loops],
    }


def _graph_dot(g: rel.RelationGraph) -> str:
    lines = [f"graph relation_depth_{g.length} {{"]
    loopset = set(g.loops)
    for i, nd in enumerate(g.nodes):
        attrs = f'label="{_node_label(nd)}"'
        if i in loopset:
            attrs += ", peripheries=2"  # self-related node
        lines.append(f"  n{i} [{attrs}];")
    for i, j, r in g.edges:
        lines.append(f'  n{i} -- n{j} [label="psi={r}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_relations(args) -> int:
    g = rel.t_graph(args.length)
    if args.format == "dot":
        _emit(_graph_dot(g), args.out)
    elif args.format == "json":
        _emit(verifier.dump_json(_graph_doc(g)), args.out)
    else:
        lines = [
            f"depth {g.length}: {len(g.nodes)} nodes, "
            f"{len(g.edges)} edges, {len(g.loops)} self-related"
        ]
        for i, j, r in g.edges:
            lines.append(f"{_node_label(g.nodes[i])} -- {_node_label(g.nodes[j])}  psi={r}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_psi(args) -> int:
    s, t = _parse_members(args.s, "s"), _parse_members(args.t, "t")
    result = rel.psi(s, t)
    if result.rank is None:
        _emit("none\n", args.out)
    else:
        w = result.witness
        _emit(
            f"psi = {result.rank}  witness branch {w.branch} (cut level {w.cut})\n",
            args.out,
        )
    return 0


def cmd_chain(args) -> int:
    s, t = _parse_node(args.s), _parse_node(args.t)
    g = rel.t_graph(args.length)
    chain = rel.t_chain(s, t, g)
    if chain is None:
        _emit("none (different equivalence classes)\n", args.out)
    else:
        _emit(" -- ".join(_node_label(nd) for nd in chain) + "\n", args.out)
    return 0


def cmd_sigma(args) -> int:
    upto = args.upto if args.upto is not None else args.k + 1
    # the lines are written in chunks as they are made, so memory stays
    # flat; the cap bounds the time a request may take
    if upto - args.k > verifier.HORIZON_CAP:
        raise CapacityError(
            f"sigma would list {upto - args.k} indices; the cap is {verifier.HORIZON_CAP}"
        )
    s = _parse_node(args.s)
    sig = good.IndexMap(s)
    name = f"sigma_{list(s)}"
    lines = (f"{name}({k}) = {sig(k)}\n" for k in range(args.k, upto))
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
        while chunk := "".join(islice(lines, 4096)):
            fh.write(chunk)
        if upto <= args.k:
            fh.write("\n")  # an empty range prints one empty line
    return 0


def cmd_witness(args) -> int:
    s, t = _parse_node(args.s), _parse_node(args.t)
    if set(args.u) - {"0", "1"}:
        raise ValueError(f"--u is a binary word of 0s and 1s: {args.u!r}")
    u = bytes(int(ch) for ch in args.u)
    x, k = good.disagreement_witness(s, t, u)
    a = good.sigma(s, k)
    b = good.sigma(t, k)
    lines = [
        f"disagreement at output index {k}",
        f"source index under {list(s)}: {a} (bit {x.bit(a)})",
        f"source index under {list(t)}: {b} (bit {x.bit(b)})",
        f"witness prefix length {len(x)} extending u of length {len(u)}",
    ]
    if len(x) <= 256:
        lines.append("bits: " + "".join(str(bit) for bit in x.bits))
    else:
        ones = [i for i, bit in enumerate(x.bits) if bit]
        lines.append(f"bits: all 0 except positions {ones}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# Integer flags of ``verify``.  A suite takes the flags its function's
# parameters name, --inject-fault setting its ``fault``; only the flags given
# are passed on, so every default is the suite's own.
_VERIFY_FLAGS = (
    "depth", "horizon", "samples", "seed", "trials",
    "max_chain", "max_s_len", "max_entry", "max_u_len", "relations_depth",
)


def _parameter_names(fn) -> tuple:
    """The names of fn's parameters, as ``inspect.signature`` gives them for
    a suite, read off its code object: past any ``functools.wraps`` wrapper
    or keyword ``partial``, the positional and keyword-only names that lead
    co_varnames (no suite takes *args or **kwargs)."""
    while True:
        if isinstance(fn, partial):
            fn = fn.func
        elif hasattr(fn, "__wrapped__"):
            fn = fn.__wrapped__
        else:
            break
    code = fn.__code__
    return code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]


def cmd_verify(args) -> int:
    suite = verifier.SUITES[args.suite]
    given = vars(args)
    kwargs = {f: given[f] for f in (*_VERIFY_FLAGS, "fault") if f in given}
    takes = _parameter_names(suite)
    _refuse(f"suite {args.suite}", [f for f in kwargs if f not in takes])
    report = suite(**kwargs)
    _emit(report.to_json_bytes().decode(), args.out)
    summary = (
        f"suite {args.suite}: failed={report.failed} "
        f"inconclusive={report.inconclusive}\n"
    )
    if args.out:
        sys.stdout.write(summary)
    return 1 if report.failed else 0


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hurewicz-kit",
        description="Finite-depth combinatorics of the prime-power coded "
        "product space: alphabets, branch maps, relation forests, "
        "index-substitution maps, cascade checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alphabets", help="print the level alphabets")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_alphabets)

    p = sub.add_parser("nodes", help="enumerate depth-p nodes in order")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_nodes)

    p = sub.add_parser("branch", help="inspect one branch map")
    p.add_argument("action", choices=("constraints", "apply", "find"))
    p.add_argument("--s", required=True, help="stem, comma-separated (empty for ())")
    # absent unless given, so a flag the action ignores can be refused
    p.add_argument("--t", default=argparse.SUPPRESS, help="branch tuple, |t| = |s|+1")
    p.add_argument("--point", default=argparse.SUPPRESS, help="explicit point prefix entries")
    p.add_argument("--tail", action="store_true", default=argparse.SUPPRESS,
                   help="extend the point by 1s")
    p.add_argument("--out")
    p.set_defaults(func=cmd_branch)

    p = sub.add_parser("relations", help="relation graph over depth-p nodes")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("psi", help="least relating slot of two nodes")
    p.add_argument("s")
    p.add_argument("t")
    p.add_argument("--out")
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("chain", help="unique repetition-free chain between nodes")
    p.add_argument("s")
    p.add_argument("t")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("sigma", help="evaluate an index-substitution map")
    p.add_argument("--s", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--upto", type=int, default=None, help="end of an index range")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("witness", help="dense-disagreement witness for two maps")
    p.add_argument("--s", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--u", default="", help="binary word to extend, e.g. 0101")
    p.add_argument("--out")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("verify", help="run a verification suite (JSON report)")
    p.add_argument("suite", choices=sorted(verifier.SUITES))
    for name in _VERIFY_FLAGS:
        # absent unless given, so a flag the suite ignores can be refused
        p.add_argument(_flag(name), type=int, default=argparse.SUPPRESS)
    p.add_argument("--inject-fault", dest="fault", choices=tuple(verifier.FAULTS),
                   default=argparse.SUPPRESS,
                   help="deliberately corrupt one rule to demonstrate detection")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 2
    except HorizonError as exc:
        print(f"horizon error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
