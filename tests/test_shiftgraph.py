"""Shift graphs: construction, witnesses, acyclicity, contraction, export."""

import json
from types import SimpleNamespace

import pytest

from conftest import RP2_FACETS
from shiftlab import (
    Backend,
    ContractedShiftGraph,
    InputFormatError,
    MathPreconditionError,
    ShiftGraph,
    UniformHypergraph,
    all_permutations,
    build_shift_graph,
    build_shift_graph_from,
    contract,
    export_dot,
    export_json,
    full_shift,
    is_acyclic,
    is_shifted,
    make_field_context,
    parse_graph_json,
    partial_shift,
    sinks,
)
from shiftlab import shiftgraph

RND = make_field_context(0, Backend.RANDOMIZED, seed=0)
RND2 = make_field_context(2, Backend.RANDOMIZED, seed=0)


@pytest.fixture(scope="module")
def g422():
    return build_shift_graph(4, 2, 2, RND)


@pytest.fixture(scope="module")
def g423():
    # three-edge families on [4] contract onto two distinct shifted classes,
    # so the quotient has actual edges
    return build_shift_graph(4, 2, 3, RND)


def test_nodes_enumerate_all_families_in_lex_order(g422):
    assert len(g422.nodes) == 15  # C(C(4,2), 2)
    seen = {tuple(tuple(e) for e in S.edge_lists()) for S in g422.nodes}
    assert len(seen) == 15
    keys = [tuple(tuple(e) for e in S.edge_lists()) for S in g422.nodes]
    assert keys == sorted(keys)
    assert (g422.n, g422.k, g422.m) == (4, 2, 2)


def test_every_edge_is_witnessed_and_complete(g422):
    # witness soundness: each recorded permutation really maps src to dst;
    # completeness: every nontrivial shift of every node is recorded
    recorded = {}
    for (src, dst), witnesses in g422.edges.items():
        assert src != dst  # no self-loops
        assert witnesses == tuple(sorted(witnesses, key=lambda w: w.images))
        for w in witnesses:
            assert not w.is_identity
            assert partial_shift(g422.nodes[src], w, RND) == g422.nodes[dst]
            recorded[(src, w)] = dst
    for i, S in enumerate(g422.nodes):
        for w in all_permutations(4):
            if w.is_identity:
                continue
            T = partial_shift(S, w, RND)
            if T == S:
                assert (i, w) not in recorded
            else:
                assert recorded[(i, w)] == g422.nodes.index(T)


def test_sinks_are_exactly_the_shifted_nodes(g422):
    shifted_nodes = [S for S in g422.nodes if is_shifted(S)]
    assert sorted(sinks(g422), key=lambda S: S.edge_lists()) == shifted_nodes
    # fixed-point characterization, node by node
    adj = {i: g422.successors(i) for i in range(len(g422.nodes))}
    for i, S in enumerate(g422.nodes):
        assert (not adj[i]) == is_shifted(S)


def test_graph_is_acyclic_with_a_valid_topological_order(g422):
    ok, order = is_acyclic(g422)
    assert ok
    assert sorted(order) == list(range(len(g422.nodes)))
    position = {node: idx for idx, node in enumerate(order)}
    for src, dst in g422.edges:
        assert position[src] < position[dst]


@pytest.mark.parametrize("n,k,m", [(3, 2, 1), (3, 2, 2), (4, 2, 3), (4, 3, 2)])
def test_small_graphs_are_acyclic(n, k, m):
    g = build_shift_graph(n, k, m, RND)
    ok, _ = is_acyclic(g)
    assert ok
    for S in sinks(g):
        assert is_shifted(S)


def test_is_acyclic_finds_a_cycle():
    fake = SimpleNamespace(nodes=(0, 1, 2), edges=frozenset({(0, 1), (1, 2), (2, 1)}))
    ok, cycle = is_acyclic(fake)
    assert not ok
    assert sorted(cycle) == [1, 2]
    adj = {(src, dst) for src, dst in fake.edges}
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert (a, b) in adj
    # the least leftover node 0 lies downstream of the cycle, with no way on
    fake = SimpleNamespace(nodes=(0, 1, 2), edges=frozenset({(1, 2), (2, 1), (1, 0)}))
    assert is_acyclic(fake) == (False, [1, 2])


def test_successors_and_node_index(g422):
    S = g422.nodes[3]
    assert g422.nodes.index(S) == 3
    for j in g422.successors(3):
        assert (3, j) in g422.edges
    missing = UniformHypergraph.from_edges(4, 2, [[1, 2], [1, 3], [1, 4]])
    assert missing not in g422.nodes


def test_edge_count(g422):
    assert g422.edge_count == len(g422.edges)


# ------------------------------------------------------- reachable subgraph


def test_reachable_subgraph_contains_the_full_shift():
    S = UniformHypergraph.from_edges(4, 2, [[2, 3], [2, 4], [3, 4]])
    g = build_shift_graph_from(S, RND)
    assert S in g.nodes
    target = full_shift(S, RND)
    assert target in g.nodes
    idx = g.nodes.index(target)
    assert not g.successors(idx)  # shifted, so a sink
    ok, _ = is_acyclic(g)
    assert ok
    # edges of the closure carry the same witness semantics
    for (src, dst), witnesses in g.edges.items():
        for w in witnesses:
            assert partial_shift(g.nodes[src], w, RND) == g.nodes[dst]


def test_reachable_subgraph_of_a_shifted_family_is_a_point():
    S = UniformHypergraph.from_edges(4, 2, [[1, 2], [1, 3]])
    assert is_shifted(S)
    g = build_shift_graph_from(S, RND)
    assert g.nodes == (S,)
    assert not g.edges


def test_reachable_subgraphs_are_the_full_graph_restricted(g423):
    # each start's closure is the part of the full graph reachable from it,
    # with the same arrows and the same witness tuples
    acyclic, order = is_acyclic(g423)
    assert acyclic and len(g423.nodes) == 20
    reach = {i: {i} for i in order}
    for i in reversed(order):
        for j in g423.successors(i):
            reach[i] |= reach[j]
    for i, S in enumerate(g423.nodes):
        g = build_shift_graph_from(S, RND)
        assert set(g.nodes) == {g423.nodes[j] for j in reach[i]}
        arrows = {
            (g.nodes[a], g.nodes[b]): ws for (a, b), ws in g.edges.items()
        }
        assert arrows == {
            (g423.nodes[a], g423.nodes[b]): ws
            for (a, b), ws in g423.edges.items()
            if a in reach[i]
        }


# ------------------------------------------------------------ contraction


def test_contract_groups_by_full_shift(g423):
    c = contract(g423, RND)
    classes = {full_shift(S, RND) for S in g423.nodes}
    assert set(c.nodes) == classes
    assert len(c.nodes) == 2  # the two shifted three-edge families on [4]
    assert c.edges  # the quotient is not edgeless
    keys = [tuple(tuple(e) for e in S.edge_lists()) for S in c.nodes]
    assert keys == sorted(keys)
    index = {S: i for i, S in enumerate(c.nodes)}
    want_edges = set()
    for src, dst in g423.edges:
        a = index[full_shift(g423.nodes[src], RND)]
        b = index[full_shift(g423.nodes[dst], RND)]
        if a != b:
            want_edges.add((a, b))
    assert c.edges == frozenset(want_edges)
    for src, dst in c.edges:
        assert src != dst
    ok, _ = is_acyclic(c)
    assert ok


def test_contract_collapses_when_all_full_shifts_agree(g422):
    # every two-edge family on [4] fully shifts to {12, 13}
    c = contract(g422, RND)
    assert len(c.nodes) == 1 and not c.edges


def test_contract_in_characteristic_two(g422):
    g = build_shift_graph(4, 2, 2, RND2)
    c = contract(g, RND2)
    for S in c.nodes:
        assert is_shifted(S)
    ok, _ = is_acyclic(c)
    assert ok


def test_contract_reads_full_shifts_off_the_graph(g423, monkeypatch):
    shifted = []
    full = shiftgraph.full_shift
    monkeypatch.setattr(
        shiftgraph, "full_shift", lambda S, ctx: shifted.append(S) or full(S, ctx)
    )
    c = contract(g423, RND)
    # every other node has an edge witnessed by w0, whose target is its
    # full shift; only the shifted nodes, which w0 fixes, are shifted again
    assert shifted == [S for S in g423.nodes if is_shifted(S)]
    assert set(c.nodes) == set(shifted)
    # out of order, w0 is no longer the last witness; the nodes whose edge
    # it hides are shifted instead, and the quotient is the same
    unsorted = ShiftGraph(
        n=4, k=2, m=3, nodes=g423.nodes,
        edges={e: ws[::-1] for e, ws in g423.edges.items()},
    )
    assert contract(unsorted, RND) == c


# ------------------------------------------------------------- export


def test_export_json_round_trip(g422):
    text = export_json(g422)
    parsed = parse_graph_json(text)
    assert isinstance(parsed, ShiftGraph)
    assert parsed == g422
    assert export_json(parsed) == text
    payload = json.loads(text)
    assert payload["n"] == 4 and payload["k"] == 2 and payload["m"] == 2
    assert "contracted" not in payload
    assert text == json.dumps(payload, sort_keys=True, separators=(",", ":"))


def test_export_json_round_trip_contracted(g422):
    c = contract(g422, RND)
    text = export_json(c)
    parsed = parse_graph_json(text)
    assert isinstance(parsed, ContractedShiftGraph)
    assert parsed == c
    assert export_json(parsed) == text
    assert json.loads(text)["contracted"] is True


def test_export_dot_shape(g422, g423):
    dot = export_dot(g422)
    lines = dot.splitlines()
    assert lines[0] == "digraph shiftgraph {" and lines[-1] == "}"
    assert dot.endswith("}\n")
    for i, S in enumerate(g422.nodes):
        label = "{" + ",".join("".join(map(str, e)) for e in S.edge_lists()) + "}"
        assert f'{i} [label="{label}"];' in dot
    for (src, dst), witnesses in g422.edges.items():
        assert f'{src} -> {dst} [label="{len(witnesses)}"];' in dot
    contracted_dot = export_dot(contract(g423, RND))
    assert "[label=" in contracted_dot.splitlines()[1]
    # contracted edges carry no witness-count labels
    assert " -> " in contracted_dot and "-> 1 [label=" not in contracted_dot


def test_graph_output_is_seed_and_parallelism_independent(g422):
    text = export_json(g422)
    other_seed = build_shift_graph(4, 2, 2, make_field_context(0, Backend.RANDOMIZED, seed=7))
    assert export_json(other_seed) == text
    parallel = build_shift_graph(4, 2, 2, RND, parallelism=2)
    assert export_json(parallel) == text
    S = UniformHypergraph.from_edges(4, 2, [[2, 3], [2, 4], [3, 4]])
    assert export_json(build_shift_graph_from(S, RND, parallelism=2)) == export_json(
        build_shift_graph_from(S, RND)
    )


def test_parallelism_must_be_positive():
    with pytest.raises(MathPreconditionError):
        build_shift_graph(3, 2, 1, RND, parallelism=0)


def test_node_cap_and_parameter_validation():
    with pytest.raises(MathPreconditionError):
        build_shift_graph(4, 2, 7, RND, max_nodes=100)  # C(6,7) invalid m
    with pytest.raises(MathPreconditionError) as exc:
        build_shift_graph(4, 2, 3, RND, max_nodes=10)  # C(6,3) = 20 > 10
    assert "cap" in str(exc.value)


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        '{"n": 4}',
        '{"n": 4, "k": 2, "m": 1, "nodes": [[[1, 2]]], "edges": [{"src": 0}]}',
        '{"n": 4, "k": 2, "m": 1, "nodes": [[[1, 2]]], "edges": [{"src": 0, "dst": "x", "witnesses": []}]}',
        # values that int() would truncate or coerce, such as 4.7, true, 0.9, 4.0
        '{"n": 4.7, "k": 2, "m": 1, "nodes": [[[1, 2]]], "edges": []}',
        '{"n": true, "k": 1, "m": 1, "nodes": [[[1]]], "edges": []}',
        '{"n": 4, "k": 2.0, "m": 1, "nodes": [[[1, 2]]], "edges": []}',
        '{"n": 4, "k": 2, "m": 1.0, "nodes": [[[1, 2]]], "edges": []}',
        '{"n": 4, "k": 2, "m": 1, "nodes": [[[true, 2]]], "edges": []}',
        '{"n": 4, "k": 2, "m": 1, "nodes": [[[1, 2.0]]], "edges": []}',
        '{"n": 4, "k": 2, "m": 1, "nodes": [[[1, 2]], [[1, 3]]], "edges": [{"src": 0.9, "dst": 1, "witnesses": [[2, 3, 1, 4]]}]}',
        '{"n": 4, "k": 2, "m": 1, "nodes": [[[1, 2]], [[1, 3]]], "edges": [{"src": 0, "dst": true, "witnesses": [[2, 3, 1, 4]]}]}',
        '{"n": 4, "k": 2, "m": 1, "nodes": [[[1, 2]], [[1, 3]]], "edges": [{"src": 0, "dst": 1, "witnesses": [[2, 3, 1, 4.0]]}]}',
        '{"n": 4, "k": 2, "m": 1, "nodes": [[[1, 2]], [[1, 3]]], "edges": [{"src": 0, "dst": 1, "witnesses": [[2, 3, 1, "4"]]}]}',
        '{"n": 4, "k": 2, "m": 1, "contracted": true, "nodes": [[[1, 2]], [[1, 3]]], "edges": [{"src": 0.9, "dst": 1}]}',
        # past Python's digit limit json.loads raises a plain ValueError
        pytest.param('{"n": 4, "k": 2, "m": 1, "nodes": [[[1, %s]]], "edges": []}' % ("9" * 5000), id="digit-limit"),
    ],
)
def test_parse_graph_json_rejects_malformed_input(text):
    with pytest.raises(InputFormatError):
        parse_graph_json(text)


def test_symbolic_and_randomized_graphs_agree():
    sym = make_field_context(0, Backend.SYMBOLIC)
    g_sym = build_shift_graph(4, 2, 2, sym)
    g_rnd = build_shift_graph(4, 2, 2, RND)
    assert export_json(g_sym) == export_json(g_rnd)


RP2_TOP = UniformHypergraph.from_edges(6, 3, RP2_FACETS)


@pytest.mark.parametrize("char", [0, 2, 3])
def test_symbolic_and_randomized_node_expansion_agree_on_rp2_top_layer(char):
    # all 719 non-identity cells of one node: the symbolic backend shifts
    # cell by cell, the randomized one reads every cell off one point; over
    # GF(2) no cell reaches the char-0 target ending in {1,5,6}: the torsion
    # of RP^2 shows
    sym = make_field_context(char, Backend.SYMBOLIC)
    rnd = make_field_context(char, Backend.RANDOMIZED, seed=0)
    expanded = shiftgraph._shift_edges_of(RP2_TOP, rnd)
    assert shiftgraph._shift_edges_of(RP2_TOP, sym) == expanded
    assert len(expanded) == (62 if char == 2 else 63)
    assert sum(len(ws) for ws in expanded.values()) == 719  # every other cell moves it
