"""Per-layer tracing of the package, installed from outside it.

A layer is one module of the package.  Every public function of each layer
module, the private ones the metrics name, and the ``IndexMap`` and
``VerificationReport`` methods listed below are replaced, in every namespace
that binds them, by a wrapper that counts calls.  A call that enters a layer
from another layer (or from the benchmark) opens a frame; when it returns,
its duration minus the time of the frames it opened is added to the layer's
self time.  Calls inside the layer they already run in only add to the
counts, so recursion such as ``member_valid`` is timed once, at its
outermost entry.  Functions whose inclusive time is a metric are also timed
at their outermost call.

Each frame is also recorded as a span (start, duration, parent span) until
its boundary has been crossed SPAN_CAP times; after that the boundary's spans
are dropped and only its counters remain, so memory stays bounded.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time
from array import array

PACKAGE = "hurewicz_kit"
LAYERS = (
    "prime_coding",
    "alphabet",
    "departure",
    "relations",
    "good_sequence",
    "cascade",
    "verifier",
)
PRIVATE = {
    "departure": ("_ensure_codes",),
    "relations": ("_expected_rewrite", "_witness_search"),
    "good_sequence": ("_divisors",),
}
METHODS = {
    "good_sequence": (("IndexMap", "__init__"), ("IndexMap", "__call__")),
    "verifier": (("VerificationReport", "to_json_bytes"),),
}
SPAN_CAP = 100_000

# (metric, unit, better, kind, subject).  Kinds: "self" is a layer's self
# time; "calls", "time" (inclusive, outermost calls) and "useful" (share of
# calls whose result counts as useful) read a boundary's counters; "hits" is
# an LRU cache's hit ratio from cache_info(); "note" reads the report.
METRICS = (
    ("prime_coding.self_s", "s", "lower", "self", "prime_coding"),
    ("prime_coding.decode.calls", "count", "lower", "calls", "prime_coding.decode"),
    ("prime_coding.decode.s", "s", "lower", "time", "prime_coding.decode"),
    ("prime_coding.encode.calls", "count", "lower", "calls", "prime_coding.encode"),
    ("prime_coding.encode.s", "s", "lower", "time", "prime_coding.encode"),
    ("prime_coding.make_code_value.calls", "count", "lower", "calls",
     "prime_coding.make_code_value_sparse"),
    ("prime_coding.make_code_value.symbolic_share", "ratio", "higher", "useful",
     "prime_coding.make_code_value_sparse"),
    ("prime_coding.code_value_cmp.calls", "count", "lower", "calls",
     "prime_coding.code_value_cmp"),
    ("prime_coding.scaled_log_sign.calls", "count", "lower", "calls",
     "prime_coding.scaled_log_sign"),
    ("alphabet.self_s", "s", "lower", "self", "alphabet"),
    ("alphabet.alphabets.s", "s", "lower", "time", "alphabet.alphabets"),
    ("alphabet.member_valid.calls", "count", "lower", "calls", "alphabet.member_valid"),
    ("alphabet.member_cmp.calls", "count", "lower", "calls", "alphabet.member_cmp"),
    ("alphabet.first_disagreement.calls", "count", "lower", "calls",
     "alphabet.first_disagreement"),
    ("departure.self_s", "s", "lower", "self", "departure"),
    ("departure.apply.calls", "count", "lower", "calls", "departure.apply"),
    ("departure.in_domain.calls", "count", "lower", "calls", "departure.in_domain"),
    ("departure.constraints.calls", "count", "lower", "calls", "departure.constraints"),
    ("departure.constraints.hit_ratio", "ratio", "higher", "hits", "departure.constraints"),
    ("departure.find_branch.calls", "count", "lower", "calls", "departure.find_branch"),
    ("departure.find_branch.yes_share", "ratio", "higher", "useful", "departure.find_branch"),
    ("departure.branches_within.s", "s", "lower", "time", "departure.branches_within"),
    ("departure.e_inv.calls", "count", "lower", "calls", "departure.e_inv"),
    ("relations.self_s", "s", "lower", "self", "relations"),
    ("relations.witness_search.calls", "count", "lower", "calls",
     "relations.witness_search"),
    ("relations.witness_search.hit_share", "ratio", "higher", "useful",
     "relations.witness_search"),
    ("relations.t_graph.s", "s", "lower", "time", "relations.t_graph"),
    ("relations.psi.calls", "count", "lower", "calls", "relations.psi"),
    ("relations.verify_forest.s", "s", "lower", "time", "relations.verify_forest"),
    ("relations.expected_rewrite.hit_ratio", "ratio", "higher", "hits",
     "relations.expected_rewrite"),
    ("good_sequence.self_s", "s", "lower", "self", "good_sequence"),
    ("good_sequence.index_map.builds", "count", "lower", "calls",
     "good_sequence.IndexMap.__init__"),
    ("good_sequence.index_map.calls", "count", "lower", "calls",
     "good_sequence.IndexMap.__call__"),
    ("good_sequence.disagreement_witness.calls", "count", "lower", "calls",
     "good_sequence.disagreement_witness"),
    ("good_sequence.h_eval.calls", "count", "lower", "calls", "good_sequence.h_eval"),
    ("good_sequence.agreement_below_bound.s", "s", "lower", "time",
     "good_sequence.agreement_below_bound"),
    ("good_sequence.divisors.hit_ratio", "ratio", "higher", "hits", "good_sequence.divisors"),
    ("cascade.self_s", "s", "lower", "self", "cascade"),
    ("cascade.gen_cascade.s", "s", "lower", "time", "cascade.gen_cascade"),
    ("cascade.check_admissibility.s", "s", "lower", "time", "cascade.check_admissibility"),
    ("cascade.check_separation_all.s", "s", "lower", "time",
     "cascade.check_separation_all"),
    ("cascade.epsilon.calls", "count", "lower", "calls", "cascade.epsilon"),
    ("cascade.triples_checked", "count", "higher", "note", "eligible triples checked: "),
    ("verifier.self_s", "s", "lower", "self", "verifier"),
    ("verifier.to_json_bytes.s", "s", "lower", "time",
     "verifier.VerificationReport.to_json_bytes"),
)
TIMED = frozenset(subject for _, _, _, kind, subject in METRICS if kind == "time")

# Per-boundary counters: calls, inclusive time, timed-call open flag, useful
# results, layer crossings.
CALLS, TIME, OPEN, USEFUL, CROSSINGS = range(5)


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.t0 = self.clock()
        self.stats: dict[str, list] = {}
        self.originals: dict[str, object] = {}
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        # open frames: [layer, time of frames opened inside, span reference];
        # the root frame stands for the benchmark itself
        self.stack: list[list] = [[None, 0.0, -1.0]]
        self.boundaries: list[str] = []
        self.spans: dict[str, array] = {}

    def install(self) -> None:
        """Wrap the package's functions in every module namespace that binds
        them, and in ``verifier.SUITES``."""
        from hurewicz_kit.base import Tri
        from hurewicz_kit.prime_coding import SymbolicCode

        useful = {
            "prime_coding.make_code_value_sparse": lambda r: isinstance(r, SymbolicCode),
            "departure.find_branch": lambda r: r[0] is Tri.YES,
            "relations.witness_search": bool,
        }
        swaps: dict[int, tuple] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") and name not in PRIVATE.get(layer, ()):
                    continue
                if (
                    isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                boundary = f"{layer}.{name.lstrip('_')}"
                swaps[id(obj)] = (obj, self._wrap(boundary, layer, obj, useful.get(boundary)))
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                boundary = f"{layer}.{cls_name}.{meth}"
                setattr(cls, meth, self._wrap(boundary, layer, cls.__dict__[meth], None))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
                for name, obj in list(vars(mod).items()):
                    swap = swaps.get(id(obj))
                    if swap is not None and swap[0] is obj:
                        setattr(mod, name, swap[1])
        suites = importlib.import_module(f"{PACKAGE}.verifier").SUITES
        for key, fn in list(suites.items()):
            suites[key] = swaps[id(fn)][1]

    def _wrap(self, boundary, layer, fn, useful):
        stat = self.stats[boundary] = [0, 0.0, 0, 0, 0]
        self.originals[boundary] = fn
        self.boundaries.append(boundary)
        bid = float(len(self.boundaries) - 1) * 2**32
        spans = self.spans[boundary] = array("d")
        timed = boundary in TIMED
        stack, self_s, clock, t0, store = self.stack, self.self_s, self.clock, self.t0, self.spans

        def enter(args, kwargs):
            parent = stack[-1]
            crossing = parent[0] is not layer
            outer = timed and not stat[OPEN]
            if crossing:
                stat[CROSSINGS] += 1
                ref = -1.0
                if boundary in store:
                    if stat[CROSSINGS] > SPAN_CAP:
                        del store[boundary]
                        del spans[:]
                    else:
                        slot = len(spans)
                        spans.extend((0.0, 0.0, 0.0))
                        ref = bid + slot // 3
                frame = [layer, 0.0, ref]
                stack.append(frame)
            if outer:
                stat[OPEN] = 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                if outer:
                    stat[OPEN] = 0
                    stat[TIME] += dur
                if crossing:
                    stack.pop()
                    self_s[layer] += dur - frame[1]
                    parent[1] += dur
                    if ref >= 0.0 and boundary in store:
                        spans[slot : slot + 3] = array("d", (start - t0, dur, parent[2]))

        if useful is None and not timed:

            def wrapper(*args, **kwargs):
                stat[CALLS] += 1
                if stack[-1][0] is layer:
                    return fn(*args, **kwargs)
                return enter(args, kwargs)

        else:

            def wrapper(*args, **kwargs):
                stat[CALLS] += 1
                if stack[-1][0] is layer and (not timed or stat[OPEN]):
                    result = fn(*args, **kwargs)
                else:
                    result = enter(args, kwargs)
                if useful is not None and useful(result):
                    stat[USEFUL] += 1
                return result

        return wrapper

    def metrics(self, report_doc: dict) -> dict:
        """Every per-layer metric, as {name: value}."""
        out = {}
        for name, _, _, kind, subject in METRICS:
            if kind == "self":
                out[name] = self.self_s[subject]
            elif kind == "calls":
                out[name] = self.stats[subject][CALLS]
            elif kind == "time":
                out[name] = self.stats[subject][TIME]
            elif kind == "useful":
                calls, hits = self.stats[subject][CALLS], self.stats[subject][USEFUL]
                out[name] = hits / calls if calls else 0.0
            elif kind == "hits":
                info = self.originals[subject].cache_info()
                looked = info.hits + info.misses
                out[name] = info.hits / looked if looked else 0.0
            else:
                out[name] = _note_count(report_doc, subject)
        return out

    def caches(self) -> dict:
        """cache_info() of every wrapped LRU cache."""
        return {
            b: fn.cache_info()._asdict()
            for b, fn in self.originals.items()
            if hasattr(fn, "cache_info")
        }

    def write_spans(self, path: str) -> None:
        """Gzipped JSON of the spans of the boundaries crossed at most
        SPAN_CAP times: per boundary, rows of [start_ns, duration_ns, parent
        boundary index, parent span index].  The parent is -1 where the
        benchmark itself opened the span, or where the parent's boundary
        keeps counters only."""
        out = {}
        for boundary, spans in self.spans.items():
            rows = []
            for i in range(0, len(spans), 3):
                start, dur, parent = spans[i : i + 3]
                ref = int(parent)
                rows.append([round(start * 1e9), round(dur * 1e9),
                             ref >> 32 if ref >= 0 else -1, ref & 0xFFFFFFFF if ref >= 0 else -1])
            if rows:
                out[boundary] = rows
        doc = {
            "boundaries": self.boundaries,
            "counters_only": [b for b in self.boundaries if self.stats[b][CROSSINGS] > SPAN_CAP],
            "spans": out,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _note_count(report_doc: dict, prefix: str) -> int:
    for check in report_doc["checks"]:
        for note in check["notes"]:
            if note.startswith(prefix):
                return int(note[len(prefix):])
    return 0
