"""Span tracing at the module boundaries of shiftlab, from outside the package.

A ``Tracer`` replaces selected functions with wrappers that record one span
per call (name, start, end, parent) in memory.  Each function is patched
where its caller looks it up, for example ``shiftgraph.partial_shift`` for
the call inside node expansion, so no code in ``src/`` changes.  ``restore``
puts every original back and checks that it did.

``layer_metrics`` turns the spans into the per-layer numbers the benchmark
reports; ``self_times`` is the arithmetic it rests on.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from array import array

# (module, attribute or "Class.method", span name).  A function reached from
# several modules is patched in each, under one span name.
PATCH_SITES = (
    ("shiftlab.field", "ProfileState.offer", "field.offer"),
    ("shiftlab.field", "gf_extension", "field.gf_extension"),
    ("shiftlab.field", "sample_eval_point", "field.sample_eval_point"),
    ("shiftlab.shiftcore", "sample_eval_point", "field.sample_eval_point"),
    ("shiftlab.topology", "sample_eval_point", "field.sample_eval_point"),
    ("shiftlab.shiftcore", "matrix_rank", "field.matrix_rank"),
    ("shiftlab.topology", "matrix_rank", "field.matrix_rank"),
    ("shiftlab", "partial_shift", "shiftcore.partial_shift"),
    ("shiftlab.shiftcore", "partial_shift", "shiftcore.partial_shift"),
    ("shiftlab.shiftgraph", "partial_shift", "shiftcore.partial_shift"),
    ("shiftlab.shiftgraph", "full_shift", "shiftcore.full_shift"),
    ("shiftlab.shiftcore", "exterior_shift_profile", "shiftcore.exterior_shift_profile"),
    ("shiftlab.shiftcore", "evaluate_matrix", "shiftcore.evaluate_matrix"),
    ("shiftlab.topology", "evaluate_matrix", "shiftcore.evaluate_matrix"),
    ("shiftlab.shiftcore", "cell_representative", "shiftcore.cell_representative"),
    ("shiftlab.topology", "cell_representative", "shiftcore.cell_representative"),
    ("shiftlab.shiftgraph", "build_shift_graph_from", "shiftgraph.build"),
    ("shiftlab.topology", "build_shift_graph", "shiftgraph.build"),
    ("shiftlab.shiftgraph", "_shift_edges_of", "shiftgraph.node_expand"),
    ("shiftlab.shiftgraph", "contract", "shiftgraph.contract"),
    ("shiftlab.topology", "contract", "shiftgraph.contract"),
    ("shiftlab.shiftgraph", "is_acyclic", "shiftgraph.is_acyclic"),
    ("shiftlab.topology", "is_acyclic", "shiftgraph.is_acyclic"),
    ("shiftlab.shiftgraph", "export_json", "shiftgraph.export"),
    ("shiftlab.topology", "shift_complex", "topology.shift_complex"),
    ("shiftlab.topology", "betti_numbers", "topology.betti_numbers"),
    ("shiftlab.topology", "complex_from_layers", "combstruct.complex_from_layers"),
)

# The benchmark's host-speed probe (see instance.py); it is no layer, and
# its time is taken out of every span that encloses it.
PROBE_SPAN = "bench.probe"

# Spans whose distinct argument tuples are counted: the calls that the
# process-wide caches behind them could answer.
DISTINCT_KEYED = ("shiftcore.partial_shift", "topology.shift_complex", "topology.betti_numbers")

# name -> unit of every per-layer metric ``layer_metrics`` returns.
LAYER_UNITS = {
    "field.offer.calls": "count",
    "field.offer.s": "s",
    "field.offer.pivot_ratio": "ratio",
    "field.sample_eval_point.calls": "count",
    "field.sample_eval_point.s": "s",
    "field.gf_extension.calls": "count",
    "field.gf_extension.s": "s",
    "field.gf_extension.max_degree": "degree",
    "field.matrix_rank.calls": "count",
    "field.matrix_rank.s": "s",
    "field.mul_rate.gf2e": "1/s",
    "shiftcore.partial_shift.calls": "count",
    "shiftcore.partial_shift.distinct": "count",
    "shiftcore.partial_shift.s": "s",
    "shiftcore.partial_shift.miss_p50_ms": "ms",
    "shiftcore.partial_shift.miss_p99_ms": "ms",
    "shiftcore.exterior_shift_profile.calls": "count",
    "shiftcore.exterior_shift_profile.self_s": "s",
    "shiftcore.evaluate_matrix.s": "s",
    "shiftcore.cell_representative.calls": "count",
    "shiftcore.cell_representative.s": "s",
    "shiftgraph.nodes_expanded": "count",
    "shiftgraph.node_expand_ms": "ms",
    "shiftgraph.build.self_s": "s",
    "shiftgraph.contract.s": "s",
    "shiftgraph.is_acyclic.s": "s",
    "shiftgraph.export.s": "s",
    "topology.shift_complex.calls": "count",
    "topology.shift_complex.distinct": "count",
    "topology.shift_complex.s": "s",
    "topology.shift_complex.self_s": "s",
    "topology.betti_numbers.calls": "count",
    "topology.betti_numbers.distinct": "count",
    "topology.betti_numbers.s": "s",
    "combstruct.complex_from_layers.calls": "count",
    "combstruct.complex_from_layers.s": "s",
    "trace.self_coverage": "ratio",
}


class Tracer:
    """In-memory span recorder; spans are parallel arrays indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.keys: dict[str, set] = {name: set() for name in DISTINCT_KEYED}
        self.offer_pivots = 0
        self.fields: dict[int, object] = {}
        self.probes: list[tuple[float, float, int]] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        """A function that records a span around every call of ``fn``."""
        nid = self._intern(name)
        clock = time.perf_counter
        stack = self._stack
        starts, ends = self.start, self.end
        push_name, push_parent = self.name_id.append, self.parent.append
        keys = self.keys.get(name)
        on_offer = name == "field.offer"
        on_field = name == "field.gf_extension"

        def traced(*args, **kwargs):
            sid = len(starts)
            push_name(nid)
            push_parent(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if keys is not None:
                keys.add((args, tuple(sorted(kwargs.items()))))
            elif on_offer:
                self.offer_pivots += bool(result)
            elif on_field:
                self.fields[getattr(result, "e", 1)] = result
            return result

        return traced

    def add_probe(self, start: float, end: float) -> None:
        """Record one probe interval under the span running when it fired.

        Called from a signal handler, which may interrupt a wrapper between
        any two of its statements, so probes stay out of the span arrays.
        """
        self.probes.append((start, end, self._stack[-1] if self._stack else -1))

    def install(self) -> None:
        """Patch every (module, attribute, span name) site of ``PATCH_SITES``."""
        wrapped: dict[tuple[int, str], object] = {}
        for module_name, attr, span in PATCH_SITES:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
            else:
                original = getattr(owner, attr)
            key = (id(original), span)
            if key not in wrapped:
                wrapped[key] = self.wrap(span, original)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapped[key])

    def restore(self) -> None:
        """Put every original back, newest patch first, and check it."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if current is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    # ------------------------------------------------------------- export

    def spans(self) -> list[tuple[str, float, float, int]]:
        """Every span as (name, start, end, parent span id or -1), probes last."""
        recorded = [
            (self.names[n], s, e, p)
            for n, s, e, p in zip(self.name_id, self.start, self.end, self.parent)
        ]
        probes = []
        for s, e, p in self.probes:
            # a probe that fired just before a span started or just after it
            # ended belongs to the span around it
            while p >= 0 and not (self.start[p] <= s and e <= self.end[p]):
                p = self.parent[p]
            probes.append((PROBE_SPAN, s, e, p))
        return recorded + probes

    def write(self, path) -> None:
        """Write the spans as JSON, one [name, start, end, parent] list each."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans(), fh, separators=(",", ":"))


# ------------------------------------------------------------- arithmetic


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    ``spans`` holds (name, start, end, parent) tuples with parent -1 for a
    root.  Children are clipped to their parent's interval and merged where
    they overlap, so nothing is subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for sid, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(tracer: Tracer, wall_s: float, mul_rate: float) -> dict[str, float]:
    """Per-layer metrics from one traced run whose timed region took ``wall_s``.

    ``.s`` is the time inside the outermost spans of that name, ``.self_s``
    the summed self time; ``field.offer.s`` is self time too, as nothing is
    traced below it.  Probe spans are taken out of every time.  A layer the
    workload never reached reads 0.
    """
    spans = tracer.spans()
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for sid, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(sid)

    def ids(name):
        return by_name.get(name, [])

    probe_inside = [0.0] * len(spans)
    for sid in ids(PROBE_SPAN):
        p = spans[sid][3]
        while p >= 0:
            probe_inside[p] += spans[sid][2] - spans[sid][1]
            p = spans[p][3]

    def duration(sid):
        return spans[sid][2] - spans[sid][1] - probe_inside[sid]

    def calls(name):
        return len(ids(name))

    def inclusive(name):
        total = 0.0
        for sid in ids(name):
            p = spans[sid][3]
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                total += duration(sid)
        return total

    def self_sum(name):
        return sum((selfs[sid] for sid in ids(name)), 0.0)

    def durations_ms(sids):
        return [1000.0 * duration(s) for s in sids]

    computed = {spans[s][3] for s in ids("shiftcore.exterior_shift_profile")}
    misses = durations_ms([s for s in ids("shiftcore.partial_shift") if s in computed])
    expansions = durations_ms(ids("shiftgraph.node_expand"))
    offers = calls("field.offer")
    probe_s = sum(selfs[sid] for sid in ids(PROBE_SPAN))

    m = {
        "field.offer.calls": offers,
        "field.offer.s": self_sum("field.offer"),
        "field.offer.pivot_ratio": tracer.offer_pivots / offers if offers else 0.0,
        "field.sample_eval_point.calls": calls("field.sample_eval_point"),
        "field.sample_eval_point.s": inclusive("field.sample_eval_point"),
        "field.gf_extension.calls": calls("field.gf_extension"),
        "field.gf_extension.s": inclusive("field.gf_extension"),
        "field.gf_extension.max_degree": max(tracer.fields, default=0),
        "field.matrix_rank.calls": calls("field.matrix_rank"),
        "field.matrix_rank.s": inclusive("field.matrix_rank"),
        "field.mul_rate.gf2e": mul_rate,
        "shiftcore.partial_shift.calls": calls("shiftcore.partial_shift"),
        "shiftcore.partial_shift.distinct": len(tracer.keys["shiftcore.partial_shift"]),
        "shiftcore.partial_shift.s": inclusive("shiftcore.partial_shift"),
        "shiftcore.partial_shift.miss_p50_ms": _percentile(misses, 50) if misses else 0.0,
        "shiftcore.partial_shift.miss_p99_ms": _percentile(misses, 99) if misses else 0.0,
        "shiftcore.exterior_shift_profile.calls": calls("shiftcore.exterior_shift_profile"),
        "shiftcore.exterior_shift_profile.self_s": self_sum("shiftcore.exterior_shift_profile"),
        "shiftcore.evaluate_matrix.s": inclusive("shiftcore.evaluate_matrix"),
        "shiftcore.cell_representative.calls": calls("shiftcore.cell_representative"),
        "shiftcore.cell_representative.s": inclusive("shiftcore.cell_representative"),
        "shiftgraph.nodes_expanded": len(expansions),
        "shiftgraph.node_expand_ms": statistics.median(expansions) if expansions else 0.0,
        "shiftgraph.build.self_s": self_sum("shiftgraph.build"),
        "shiftgraph.contract.s": inclusive("shiftgraph.contract"),
        "shiftgraph.is_acyclic.s": inclusive("shiftgraph.is_acyclic"),
        "shiftgraph.export.s": inclusive("shiftgraph.export"),
        "topology.shift_complex.calls": calls("topology.shift_complex"),
        "topology.shift_complex.distinct": len(tracer.keys["topology.shift_complex"]),
        "topology.shift_complex.s": inclusive("topology.shift_complex"),
        "topology.shift_complex.self_s": self_sum("topology.shift_complex"),
        "topology.betti_numbers.calls": calls("topology.betti_numbers"),
        "topology.betti_numbers.distinct": len(tracer.keys["topology.betti_numbers"]),
        "topology.betti_numbers.s": inclusive("topology.betti_numbers"),
        "combstruct.complex_from_layers.calls": calls("combstruct.complex_from_layers"),
        "combstruct.complex_from_layers.s": inclusive("combstruct.complex_from_layers"),
        "trace.self_coverage": (sum(selfs) - probe_s) / (wall_s - probe_s),
    }
    if set(m) != set(LAYER_UNITS):
        raise RuntimeError("layer metrics and their units disagree")
    return m
