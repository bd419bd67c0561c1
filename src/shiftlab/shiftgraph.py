"""Partial shift graphs: how shifting by permutations moves hypergraphs.

The partial shift graph on parameters (n, k, m) has one node per k-uniform
hypergraph with m edges on [n].  There is an edge from S to T whenever some
permutation w moves S to T under the partial shift, with T different from
S; the witnessing permutations are stored on the edge.  Shifted
hypergraphs are exactly the fixed points of every partial shift, so they
are exactly the sinks, and the whole graph is acyclic because longer
permutations can only push a hypergraph lexicographically downward.

The contracted variant identifies nodes with the same full shift and keeps
the induced edges between distinct classes.  Acyclicity of the contracted
graph is an open question, so here it is checked and reported rather than
assumed.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import math
import multiprocessing
from dataclasses import dataclass, field as dataclass_field

from .combstruct import UniformHypergraph, _require_json_ints, is_shifted, k_subsets
from .errors import InputFormatError, InternalError, MathPreconditionError
from .field import FieldContext
from .shiftcore import (
    all_partial_shifts,
    full_shift,
    partial_shift,  # patched by name in bench/spans.py; unused here
)
from .symgroup import Permutation

__all__ = [
    "ShiftGraph",
    "ContractedShiftGraph",
    "build_shift_graph",
    "build_shift_graph_from",
    "contract",
    "sinks",
    "is_acyclic",
    "export_json",
    "export_dot",
    "parse_graph_json",
    "DEFAULT_NODE_CAP",
]

DEFAULT_NODE_CAP = 100_000


def _node_sort_key(S: UniformHypergraph):
    return S.edge_lists()


@dataclass(frozen=True)
class _Graph:
    """Nodes and the index pairs of ``edges``, which each subclass adds."""

    n: int
    k: int
    m: int
    nodes: tuple[UniformHypergraph, ...]

    def __post_init__(self):
        count = len(self.nodes)
        for src, dst in self.edges:
            if not 0 <= src < count or not 0 <= dst < count:
                raise MathPreconditionError("edge endpoint out of range")
            if src == dst:
                raise MathPreconditionError("shift graphs have no self-loops")

    def successors(self, i: int) -> list[int]:
        return sorted(dst for (src, dst) in self.edges if src == i)


@dataclass(frozen=True)
class ShiftGraph(_Graph):
    """Immutable shift graph with full witness sets on every edge.

    ``nodes`` are deduplicated and sorted by their edge lists; ``edges``
    maps (source index, target index) to the tuple of witnessing
    permutations sorted by one-line notation.  Self-loops are excluded by
    construction: a permutation fixing a node witnesses nothing, so the
    identity never appears.
    """

    edges: dict[tuple[int, int], tuple[Permutation, ...]] = dataclass_field(
        default_factory=dict
    )

    def __post_init__(self):
        if any((S.n, S.k, S.m) != (self.n, self.k, self.m) for S in self.nodes):
            raise MathPreconditionError("all graph nodes must share the same (n, k, m)")
        super().__post_init__()
        if not all(self.edges.values()):
            raise MathPreconditionError("every edge needs at least one witness")

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class ContractedShiftGraph(_Graph):
    """Quotient of a shift graph by equality of full shifts.

    Every node is a shifted hypergraph (the common full shift of its
    class); edges are the induced pairs between distinct classes, with
    quotient self-loops dropped.
    """

    edges: frozenset[tuple[int, int]] = frozenset()


def _shift_edges_of(S: UniformHypergraph, ctx: FieldContext):
    """Each target T different from S, with the cells that move S to T.

    ``all_partial_shifts`` groups the cells by their outcome, so each target
    is compared with S once.  Targets come in the order of their first
    witness, and each one's witnesses in ``all_permutations`` order.
    """
    return {T: ws for (T,), ws in all_partial_shifts((S,), ctx).items() if T != S}


def _map_shift_edges(
    nodes: list[UniformHypergraph],
    ctx: FieldContext,
    parallelism: int,
):
    """Per-node successor maps, optionally fanned out over worker processes.

    Results come back in input order, so the assembled graph is identical
    for every parallelism level.
    """
    if parallelism < 1:
        raise MathPreconditionError("parallelism must be a positive integer")
    if parallelism == 1 or len(nodes) <= 1:
        return [_shift_edges_of(S, ctx) for S in nodes]
    worker = functools.partial(_shift_edges_of, ctx=ctx)
    with multiprocessing.Pool(min(parallelism, len(nodes))) as pool:
        return pool.map(worker, nodes)


def _close(
    start: list[UniformHypergraph], ctx: FieldContext, parallelism: int
) -> ShiftGraph:
    """The graph on every family reachable from ``start`` by partial shifts.

    Each node is expanded once, a frontier batch at a time.  A node's
    arrows come in the order of their first witness, and each arrow's
    witnesses in ``all_permutations`` order, which is one-line order.
    """
    seen = set(start)
    frontier = start
    arrows = []
    while frontier:
        batch, frontier = frontier, []
        for S, successors in zip(batch, _map_shift_edges(batch, ctx, parallelism)):
            for T, witnesses in successors.items():
                arrows.append((S, T, witnesses))
                if T not in seen:
                    seen.add(T)
                    frontier.append(T)
    nodes = tuple(sorted(seen, key=_node_sort_key))
    index = {S: i for i, S in enumerate(nodes)}
    edges = {(index[S], index[T]): tuple(ws) for S, T, ws in arrows}
    first = start[0]
    return ShiftGraph(n=first.n, k=first.k, m=first.m, nodes=nodes, edges=edges)


def build_shift_graph(
    n: int,
    k: int,
    m: int,
    ctx: FieldContext,
    max_nodes: int = DEFAULT_NODE_CAP,
    parallelism: int = 1,
) -> ShiftGraph:
    """The full shift graph on all m-edge k-uniform hypergraphs on [n].

    No partial shift leaves the m-edge families, so this is their closure.
    Refuses to enumerate more than ``max_nodes`` nodes; for larger
    parameter triples, build the reachable subgraph of a single start
    hypergraph with build_shift_graph_from instead.
    """
    ncols = len(k_subsets(n, k))
    if not 0 <= m <= ncols:
        raise MathPreconditionError(f"m must lie in [0, {ncols}] for (n, k) = ({n}, {k})")
    count = math.comb(ncols, m)
    if count > max_nodes:
        raise MathPreconditionError(
            f"shift graph would have {count} nodes (cap {max_nodes}); "
            "use build_shift_graph_from for the reachable subgraph of one "
            "start hypergraph"
        )
    families = [
        UniformHypergraph(n, k, combo)
        for combo in itertools.combinations(k_subsets(n, k), m)
    ]
    return _close(families, ctx, parallelism)


def build_shift_graph_from(
    S: UniformHypergraph, ctx: FieldContext, parallelism: int = 1
) -> ShiftGraph:
    """Reachable subgraph: close S under partial shifts by all permutations."""
    return _close([S], ctx, parallelism)


def contract(g: ShiftGraph, ctx: FieldContext) -> ContractedShiftGraph:
    """Quotient by equality of full shifts; keep edges between classes.

    Full shifts are read off the edges witnessed by w0, the last witness in
    one-line order; only a node without one, which w0 fixes, is shifted here.
    """
    w0 = Permutation.longest(g.n)
    moved = {g.nodes[a]: g.nodes[b] for (a, b), ws in g.edges.items() if ws[-1] == w0}
    reps = {S: moved[S] if S in moved else full_shift(S, ctx) for S in g.nodes}
    class_nodes = tuple(sorted(set(reps.values()), key=_node_sort_key))
    index = {S: i for i, S in enumerate(class_nodes)}
    edges = set()
    for src, dst in g.edges:
        a = index[reps[g.nodes[src]]]
        b = index[reps[g.nodes[dst]]]
        if a != b:
            edges.add((a, b))
    return ContractedShiftGraph(
        n=g.n, k=g.k, m=g.m, nodes=class_nodes, edges=frozenset(edges)
    )


def _adjacency(g) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {i: set() for i in range(len(g.nodes))}
    for src, dst in g.edges:
        adj[src].add(dst)
    return adj


def sinks(g) -> list[UniformHypergraph]:
    """Nodes with no outgoing edge.  In a full shift graph these are
    exactly the shifted hypergraphs; a non-shifted sink would contradict
    that and is flagged as an internal error."""
    adj = _adjacency(g)
    out = [g.nodes[i] for i in range(len(g.nodes)) if not adj[i]]
    for S in out:
        if not is_shifted(S):
            raise InternalError(
                f"sink {S.edge_lists()} is not shifted; this contradicts the "
                "fixed-point characterization"
            )
    return out


def is_acyclic(g) -> tuple[bool, list[int]]:
    """Kahn topological sort.

    Returns (True, topological order of node indices) or (False, one
    directed cycle as a list of node indices).
    """
    adj = _adjacency(g)
    indeg = {i: 0 for i in adj}
    for src in adj:
        for dst in adj[src]:
            indeg[dst] += 1
    # a heap pops the smallest ready node, so the order is the least one
    ready = [i for i in indeg if indeg[i] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for dst in adj[i]:
            indeg[dst] -= 1
            if indeg[dst] == 0:
                heapq.heappush(ready, dst)
    if len(order) == len(adj):
        return True, order
    # extract a cycle from the leftover nodes that still reach one; a node
    # downstream of every cycle has no leftover successor to walk on to
    placed = set(order)
    leftover = {i for i in adj if i not in placed}
    while dead := {i for i in leftover if not adj[i] & leftover}:
        leftover -= dead
    start = min(leftover)
    path, seen_at = [], {}
    node = start
    while node not in seen_at:
        seen_at[node] = len(path)
        path.append(node)
        node = min(d for d in adj[node] if d in leftover)
    return False, path[seen_at[node] :]


# ------------------------------------------------------------ export


def _node_label(S: UniformHypergraph) -> str:
    return "{" + ",".join("".join(map(str, e)) for e in S.edge_lists()) + "}"


def export_json(g) -> str:
    """Deterministic JSON with full witness sets (omitted when contracted)."""
    payload = {
        "n": g.n,
        "k": g.k,
        "m": g.m,
        "nodes": [[list(e) for e in S.edge_lists()] for S in g.nodes],
    }
    if isinstance(g, ContractedShiftGraph):
        payload["contracted"] = True
        payload["edges"] = [
            {"src": src, "dst": dst} for src, dst in sorted(g.edges)
        ]
    else:
        payload["edges"] = [
            {
                "src": src,
                "dst": dst,
                "witnesses": [list(w.images) for w in g.edges[(src, dst)]],
            }
            for src, dst in sorted(g.edges)
        ]
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def export_dot(g) -> str:
    """Deterministic DOT text; edge labels carry witness counts."""
    lines = ["digraph shiftgraph {"]
    for i, S in enumerate(g.nodes):
        lines.append(f'  {i} [label="{_node_label(S)}"];')
    if isinstance(g, ContractedShiftGraph):
        for src, dst in sorted(g.edges):
            lines.append(f"  {src} -> {dst};")
    else:
        for src, dst in sorted(g.edges):
            count = len(g.edges[(src, dst)])
            lines.append(f'  {src} -> {dst} [label="{count}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_graph_json(text: str):
    """Inverse of export_json; export(parse(export(g))) == export(g)."""
    try:
        payload = json.loads(text)
    except ValueError as exc:  # also integers past Python's digit limit
        raise InputFormatError(f"invalid graph JSON: {exc}") from exc
    try:
        n, k, m = payload["n"], payload["k"], payload["m"]
        node_edges = [e for entry in payload["nodes"] for e in entry]
        _require_json_ints("graph", node_edges, n=n, k=k, m=m)
        nodes = tuple(
            UniformHypergraph.from_edges(n, k, [tuple(e) for e in entry])
            for entry in payload["nodes"]
        )
        if payload.get("contracted"):
            for e in payload["edges"]:
                _require_json_ints("graph", (), src=e["src"], dst=e["dst"])
            edges = frozenset((e["src"], e["dst"]) for e in payload["edges"])
            return ContractedShiftGraph(n=n, k=k, m=m, nodes=nodes, edges=edges)
        edge_map = {}
        for e in payload["edges"]:
            _require_json_ints("graph", e["witnesses"], src=e["src"], dst=e["dst"])
            witnesses = tuple(Permutation(tuple(images)) for images in e["witnesses"])
            edge_map[(e["src"], e["dst"])] = witnesses
        return ShiftGraph(n=n, k=k, m=m, nodes=nodes, edges=edge_map)
    except InputFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"malformed graph JSON: {exc}") from exc
