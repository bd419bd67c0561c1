"""Recomputation targets for the golden data embedded in the package.

Each target recomputes one frozen result from scratch and reports whether
the recomputation agrees byte for byte (graphs) or value for value
(shifts, Betti vectors, counts).  Target names are the stable interface
used by ``shiftlab reproduce``; the descriptions say what is recomputed.
"""

from __future__ import annotations

import importlib.resources
import itertools
import json
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .combstruct import (
    SimplicialComplex,
    UniformHypergraph,
    is_near_cone,
    is_shifted,
    k_subsets,
)
from .errors import InputFormatError
from .field import Backend, MultiPoly, make_field_context
from .shiftcore import (
    combinatorial_shift,
    combinatorial_shift_matrix,
    compound_rows,
    exterior_shift,
    full_shift,
    generic_matrix,
    generic_unipotent,
    matrix_product,
    partial_shift,
    permutation_matrix,
    vandermonde_matrix,
)
from .shiftgraph import (
    build_shift_graph,
    build_shift_graph_from,
    contract,
    export_json,
    is_acyclic,
    parse_graph_json,
    sinks,
)
from .symgroup import Permutation
from .topology import (
    betti_numbers,
    near_cone_betti,
    preserves_betti_certificate,
    shift_complex,
    shift_complex_all_cells,
)

__all__ = ["TargetResult", "available_targets", "run_target", "run_targets"]


@lru_cache(maxsize=None)
def golden_data() -> dict:
    """The embedded golden values (parsed once)."""
    path = importlib.resources.files("shiftlab").joinpath("data/golden.json")
    return json.loads(path.read_text())


@lru_cache(maxsize=None)
def golden_graph_json() -> str:
    path = importlib.resources.files("shiftlab").joinpath("data/psg_4_2_5.json")
    return path.read_text().strip()


@dataclass(frozen=True)
class TargetResult:
    name: str
    ok: bool
    seconds: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status} {self.name}: {self.detail}"


def _edges(entry: list) -> list[tuple[int, ...]]:
    return [tuple(e) for e in entry]


def _hypergraph(n: int, k: int, edges: list) -> UniformHypergraph:
    return UniformHypergraph.from_edges(n, k, _edges(edges))


def _projective_plane() -> SimplicialComplex:
    g = golden_data()["projective_plane"]
    return SimplicialComplex.from_facets(g["n"], _edges(g["facets"]))


def _run_two_edge(seed: int) -> tuple[bool, str]:
    g = golden_data()["two_edge_flag_shift"]
    S = _hypergraph(g["n"], g["k"], g["edges"])
    expected = [list(e) for e in g["shifted"]]
    char = g["char"]
    sym = make_field_context(char, Backend.SYMBOLIC)
    rand = make_field_context(char, Backend.RANDOMIZED, seed=seed)
    w0 = Permutation.longest(g["n"])

    via_generic = exterior_shift(generic_matrix(g["n"]), S, sym)
    via_cell_sym = partial_shift(S, w0, sym)
    via_cell_rand = partial_shift(S, w0, rand)
    routes = [via_generic, via_cell_sym, via_cell_rand]
    if any(r.edge_lists() != expected for r in routes):
        return False, f"routes gave {[r.edge_lists() for r in routes]}, want {expected}"

    # distinguished minor of the all-variable matrix: rows {1,2}, columns {2,3}
    entry = compound_rows(generic_matrix(g["n"]), S).rows[0][3]
    x = MultiPoly.variable
    want = (x(1, 2) * x(2, 3) + x(1, 3) * x(2, 2)).reduce_mod(2)
    if entry.reduce_mod(2) != want:
        return False, f"compound entry {entry.reduce_mod(2)!r} != {want!r}"
    return True, "symbolic generic, symbolic cell, and randomized cell routes agree"


def _run_antidiagonal(seed: int) -> tuple[bool, str]:
    g = golden_data()["two_edge_flag_shift"]
    n = g["n"]
    S = _hypergraph(n, g["k"], g["edges"])
    expected = [list(e) for e in g["shifted"]]
    w0 = Permutation.longest(n)
    mat = matrix_product(generic_unipotent(n), permutation_matrix(w0))
    sym = make_field_context(g["char"], Backend.SYMBOLIC)
    rand = make_field_context(g["char"], Backend.RANDOMIZED, seed=seed)
    got_sym = exterior_shift(mat, S, sym)
    got_rand = exterior_shift(mat, S, rand)
    if got_sym.edge_lists() != expected or got_rand.edge_lists() != expected:
        return False, f"got {got_sym.edge_lists()} / {got_rand.edge_lists()}"

    # leading minor of the unipotent-times-antidiagonal matrix
    entry = compound_rows(mat, S).rows[0][0]
    x = MultiPoly.variable
    want = (x(1, 3) * x(2, 4) + x(1, 4) * x(2, 3)).reduce_mod(2)
    if entry.reduce_mod(2) != want:
        return False, f"compound entry {entry.reduce_mod(2)!r} != {want!r}"
    return True, "unipotent-times-antidiagonal route matches the generic shift"


def _run_vandermonde(seed: int) -> tuple[bool, str]:
    g = golden_data()["vandermonde_shift"]
    S = _hypergraph(g["n"], g["k"], g["edges"])
    ctx = make_field_context(g["char"], Backend.RANDOMIZED, seed=seed)
    got_gen = exterior_shift(generic_matrix(g["n"]), S, ctx)
    got_vdm = exterior_shift(vandermonde_matrix(g["n"]), S, ctx)
    ok_gen = got_gen.edge_lists() == [list(e) for e in g["generic_shift"]]
    ok_vdm = got_vdm.edge_lists() == [list(e) for e in g["vandermonde_shift"]]
    if not (ok_gen and ok_vdm):
        return False, f"generic {got_gen.edge_lists()}, vandermonde {got_vdm.edge_lists()}"
    return True, "generic and Vandermonde shifts both match; the two differ"


def _run_simple_cells(seed: int) -> tuple[bool, str]:
    n = 4
    sym = make_field_context(0, Backend.SYMBOLIC)
    cases = 0
    for k in range(1, n + 1):
        cols = k_subsets(n, k)
        for m in range(0, 4):
            if m > len(cols):
                continue
            for combo in itertools.combinations(cols, m):
                S = UniformHypergraph(n, k, combo)
                for i in range(1, n):
                    t = Permutation.simple(n, i)
                    replaced = combinatorial_shift(S, t)
                    via_cell = partial_shift(S, t, sym)
                    via_matrix = exterior_shift(combinatorial_shift_matrix(t), S, sym)
                    if not (replaced == via_cell == via_matrix):
                        return False, (
                            f"disagreement at S={S.edge_lists()} i={i}: "
                            f"{replaced.edge_lists()} vs {via_cell.edge_lists()} "
                            f"vs {via_matrix.edge_lists()}"
                        )
                    cases += 1
    return True, f"edge replacement equals the cell shift on {cases} exhaustive cases"


def _run_graph_six_nodes(seed: int) -> tuple[bool, str]:
    ctx = make_field_context(0, Backend.RANDOMIZED, seed=seed)
    g = build_shift_graph(4, 2, 5, ctx)
    got = export_json(g)
    if got != golden_graph_json():
        return False, "graph JSON differs from the embedded golden file"
    acyclic, _ = is_acyclic(g)
    sink_nodes = sinks(g)
    if not acyclic or len(sink_nodes) != 1 or not is_shifted(sink_nodes[0]):
        return False, "expected an acyclic graph with a single shifted sink"
    identity = Permutation.identity(4)
    witnesses = 0
    for (src, dst), ws in g.edges.items():
        for w in ws:
            if w == identity:
                return False, "identity appears as a witness"
            if partial_shift(g.nodes[src], w, ctx) != g.nodes[dst]:
                return False, f"witness {w.one_line()} does not map node {src} to {dst}"
            witnesses += 1
    roundtrip = export_json(parse_graph_json(got))
    if roundtrip != got:
        return False, "JSON round-trip changed the graph"
    return True, (
        f"6 nodes, {g.edge_count} edges, {witnesses} verified witnesses, "
        "acyclic with one shifted sink"
    )


def _run_shift_family(seed: int) -> tuple[bool, str]:
    data = golden_data()
    RP = _projective_plane()
    base = data["projective_plane_betti"]
    for char_text, expected in base.items():
        got = betti_numbers(RP, int(char_text))
        if list(got.values) != expected:
            return False, f"base Betti over char {char_text}: {got.values}"
    ctx0 = make_field_context(0, Backend.RANDOMIZED, seed=seed)
    ctx2 = make_field_context(2, Backend.RANDOMIZED, seed=seed)
    for entry in data["projective_plane_partial_shifts"]:
        w = Permutation(tuple(entry["one_line"]))
        K = shift_complex(RP, w, ctx0)
        if [list(f) for f in K.facets_as_tuples()] != entry["facets"]:
            return False, f"facets differ for w = {w.one_line()}"
        for char in (0, 2):
            got = betti_numbers(K, char)
            if list(got.values) != entry["betti"]:
                return False, f"Betti over char {char} differ for w = {w.one_line()}"
    full2 = shift_complex(RP, Permutation.longest(6), ctx2)
    idx = data["projective_plane_full_shift_char2_index"]
    want = data["projective_plane_partial_shifts"][idx]["facets"]
    if [list(f) for f in full2.facets_as_tuples()] != want:
        return False, "characteristic-2 full shift facets differ"
    return True, "all four partial shifts, their Betti vectors, and the char-2 full shift match"


def _run_contracted_closures(seed: int) -> tuple[bool, str]:
    data = golden_data()["projective_plane_contracted"]
    RP = _projective_plane()
    top = RP.layer(2)
    sizes = []
    for char_text, want in sorted(data.items()):
        ctx = make_field_context(int(char_text), Backend.RANDOMIZED, seed=seed)
        g = build_shift_graph_from(top, ctx)
        c = contract(g, ctx)
        got_nodes = [S.edge_lists() for S in c.nodes]
        got_edges = sorted([list(p) for p in c.edges])
        if got_nodes != want["nodes"] or got_edges != want["edges"]:
            return False, f"contracted graph over char {char_text} differs"
        if len(g.nodes) != want["closure_nodes"] or g.edge_count != want["closure_edges"]:
            return False, f"closure size over char {char_text} differs"
        acyclic, _ = is_acyclic(c)
        if not acyclic:
            return False, f"contracted graph over char {char_text} has a cycle"
        sizes.append(f"char {char_text}: {len(g.nodes)} -> {len(c.nodes)} classes")
    return True, "; ".join(sizes)


def _run_certificate_tightness(seed: int) -> tuple[bool, str]:
    data = golden_data()
    split = data["weak_order_certificate_split"]
    RP = _projective_plane()
    ctx0 = make_field_context(0, Backend.RANDOMIZED, seed=seed)
    base = betti_numbers(RP, 0).values

    certified = []
    preserving_other = []
    for w, image in shift_complex_all_cells(RP, ctx0).items():
        preserved = betti_numbers(image, 0).values == base
        if preserves_betti_certificate(w):
            certified.append(w)
            if not preserved:
                return False, f"certified {w.one_line()} fails to preserve Betti numbers"
        elif preserved:
            preserving_other.append(w)
    if len(certified) != split["certified"]:
        return False, f"{len(certified)} certified permutations, want {split['certified']}"
    if len(preserving_other) != split["other_preserving"] or not (
        preserving_other and preserving_other[0].is_identity
    ):
        return False, (
            f"uncertified preservers {[w.one_line() for w in preserving_other]}, "
            "want exactly the identity"
        )

    cyc = data["cycle_shift_char2"]
    ctx2 = make_field_context(2, Backend.RANDOMIZED, seed=seed)
    E = shift_complex(RP, Permutation(tuple(cyc["one_line"])), ctx2)
    if [list(f) for f in E.facets_as_tuples()] != cyc["facets"]:
        return False, "long-cycle shift facets differ"
    if is_near_cone(E) != cyc["near_cone"]:
        return False, "near-cone status differs"
    if all(is_shifted(L) for L in E.layers()) != cyc["shifted"]:
        return False, "shiftedness status differs"
    if list(near_cone_betti(E).values) != cyc["betti"]:
        return False, "near-cone Betti numbers differ"
    if list(betti_numbers(E, 2).values) != cyc["betti"]:
        return False, "boundary-rank Betti numbers differ"
    return True, (
        f"{len(certified)}/{split['certified']} certified preserve; only the identity "
        "preserves among the rest; long-cycle image is an unshifted near cone"
    )


TARGETS: dict[str, tuple[Callable[[int], tuple[bool, str]], str]] = {
    "two-edge-routes": (
        _run_two_edge,
        "two-edge shift via the all-variable and longest-cell matrices, char 2",
    ),
    "antidiagonal-route": (
        _run_antidiagonal,
        "same shift through the unipotent-times-antidiagonal matrix",
    ),
    "vandermonde-gap": (
        _run_vandermonde,
        "generic vs Vandermonde shift of a four-edge triple system, char 0",
    ),
    "simple-cells": (
        _run_simple_cells,
        "edge replacement equals the simple-cell shift, exhaustive n=4, m<=3",
    ),
    "psg-4-2-5": (
        _run_graph_six_nodes,
        "full shift graph on (n,k,m)=(4,2,5) against the embedded export",
    ),
    "projective-shifts": (
        _run_shift_family,
        "four partial shifts of the projective-plane complex plus Betti vectors",
    ),
    "contracted-closures": (
        _run_contracted_closures,
        "contracted closure graphs of the projective-plane top layer (slow)",
    ),
    "certificate-split": (
        _run_certificate_tightness,
        "the 120/600/1 certificate split and the long-cycle shift, char 0 and 2",
    ),
}


def available_targets() -> list[str]:
    return list(TARGETS)


def run_target(name: str, seed: int = 0) -> TargetResult:
    try:
        runner, _ = TARGETS[name]
    except KeyError:
        raise InputFormatError(
            f"unknown reproduce target {name!r}; available: "
            + ", ".join(available_targets())
        ) from None
    start = time.monotonic()
    ok, detail = runner(seed)
    return TargetResult(name=name, ok=ok, seconds=time.monotonic() - start, detail=detail)


def run_targets(names: list[str], seed: int = 0) -> list[TargetResult]:
    if names == ["all"]:
        names = available_targets()
    return [run_target(name, seed) for name in names]
