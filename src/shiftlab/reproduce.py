"""Recomputation targets for the golden data embedded in the package.

Each target recomputes one frozen result from scratch and returns named
checks that the recomputation agrees byte for byte (graphs) or value for
value (shifts, Betti vectors, counts), a summary, and the objects it
computed, which the acceptance criteria read.  Target names are the stable
interface used by ``shiftlab reproduce``; the descriptions say what is
recomputed.
"""

from __future__ import annotations

import importlib.resources
import itertools
import json
import time
from dataclasses import dataclass, field
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


# A named check and whether it held.
Check = tuple[str, bool]


@dataclass(frozen=True)
class TargetResult:
    """One target's named checks, its summary, and the objects it computed."""

    name: str
    checks: tuple[Check, ...]
    seconds: float
    detail: str
    objects: dict = field(repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)

    def line(self) -> str:
        if self.ok:
            return f"PASS {self.name}: {self.detail}"
        failed = [name for name, passed in self.checks if not passed]
        return f"FAIL {self.name}: " + "; ".join(failed)


def _edges(entry: list) -> list[tuple[int, ...]]:
    return [tuple(e) for e in entry]


def _hypergraph(n: int, k: int, edges: list) -> UniformHypergraph:
    return UniformHypergraph.from_edges(n, k, _edges(edges))


def _projective_plane() -> SimplicialComplex:
    g = golden_data()["projective_plane"]
    return SimplicialComplex.from_facets(g["n"], _edges(g["facets"]))


def _facets(K: SimplicialComplex) -> list[list[int]]:
    return [list(f) for f in K.facets_as_tuples()]


def _betti(K: SimplicialComplex, char: int) -> list[int]:
    return list(betti_numbers(K, char).values)


def _run_two_edge(seed: int):
    g = golden_data()["two_edge_flag_shift"]
    S = _hypergraph(g["n"], g["k"], g["edges"])
    sym = make_field_context(g["char"], Backend.SYMBOLIC)
    rand = make_field_context(g["char"], Backend.RANDOMIZED, seed=seed)
    w0 = Permutation.longest(g["n"])
    routes = {
        "symbolic generic": exterior_shift(generic_matrix(g["n"]), S, sym),
        "symbolic cell": partial_shift(S, w0, sym),
        "randomized cell": partial_shift(S, w0, rand),
    }
    # distinguished minor of the all-variable matrix: rows {1,2}, columns {2,3}
    entry = compound_rows(generic_matrix(g["n"]), S).rows[0][3]
    x = MultiPoly.variable
    want = (x(1, 2) * x(2, 3) + x(1, 3) * x(2, 2)).reduce_mod(2)
    checks = [(f"{route} route", T.edge_lists() == g["shifted"]) for route, T in routes.items()]
    checks.append(("compound entry mod 2", entry.reduce_mod(2) == want))
    detail = "symbolic generic, symbolic cell, and randomized cell routes agree"
    return checks, detail, {"shifts": routes}


def _run_antidiagonal(seed: int):
    g = golden_data()["two_edge_flag_shift"]
    n = g["n"]
    S = _hypergraph(n, g["k"], g["edges"])
    w0 = Permutation.longest(n)
    mat = matrix_product(generic_unipotent(n), permutation_matrix(w0))
    sym = make_field_context(g["char"], Backend.SYMBOLIC)
    rand = make_field_context(g["char"], Backend.RANDOMIZED, seed=seed)
    routes = {
        "symbolic": exterior_shift(mat, S, sym),
        "randomized": exterior_shift(mat, S, rand),
    }
    # leading minor of the unipotent-times-antidiagonal matrix
    entry = compound_rows(mat, S).rows[0][0]
    x = MultiPoly.variable
    want = (x(1, 3) * x(2, 4) + x(1, 4) * x(2, 3)).reduce_mod(2)
    checks = [(f"{route} route", T.edge_lists() == g["shifted"]) for route, T in routes.items()]
    checks.append(("compound entry mod 2", entry.reduce_mod(2) == want))
    detail = "unipotent-times-antidiagonal route matches the generic shift"
    return checks, detail, {"shifts": routes}


def _run_vandermonde(seed: int):
    g = golden_data()["vandermonde_shift"]
    S = _hypergraph(g["n"], g["k"], g["edges"])
    ctx = make_field_context(g["char"], Backend.RANDOMIZED, seed=seed)
    got_gen = exterior_shift(generic_matrix(g["n"]), S, ctx)
    got_vdm = exterior_shift(vandermonde_matrix(g["n"]), S, ctx)
    checks = [
        ("generic shift", got_gen.edge_lists() == g["generic_shift"]),
        ("Vandermonde shift", got_vdm.edge_lists() == g["vandermonde_shift"]),
        ("the two shifts differ", got_gen != got_vdm),
    ]
    detail = "generic and Vandermonde shifts both match; the two differ"
    return checks, detail, {"generic": got_gen, "vandermonde": got_vdm}


def _run_simple_cells(seed: int):
    n = 4
    sym = make_field_context(0, Backend.SYMBOLIC)
    cases = agreeing = 0
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
                    agreeing += replaced == via_cell == via_matrix
                    cases += 1
    checks = [("replacement, cell shift and swap matrix agree", agreeing == cases)]
    detail = f"edge replacement equals the cell shift on {cases} exhaustive cases"
    return checks, detail, {"cases": cases}


def _run_graph_six_nodes(seed: int):
    ctx = make_field_context(0, Backend.RANDOMIZED, seed=seed)
    g = build_shift_graph(4, 2, 5, ctx)
    got = export_json(g)
    acyclic, _ = is_acyclic(g)
    sink_nodes = sinks(g)
    witnesses = [(src, dst, w) for (src, dst), ws in g.edges.items() for w in ws]
    mapped = all(partial_shift(g.nodes[src], w, ctx) == g.nodes[dst] for src, dst, w in witnesses)
    identity = Permutation.identity(4)
    checks = [
        ("6 nodes", len(g.nodes) == 6),
        ("matches the embedded export", got == golden_graph_json()),
        ("acyclic", acyclic),
        ("one shifted sink", len(sink_nodes) == 1 and is_shifted(sink_nodes[0])),
        ("identity is never a witness", all(w != identity for _, _, w in witnesses)),
        ("every witness maps its source to its target", mapped),
        ("JSON round-trip", export_json(parse_graph_json(got)) == got),
    ]
    detail = (
        f"{len(g.nodes)} nodes, {g.edge_count} edges, {len(witnesses)} verified "
        "witnesses, acyclic with one shifted sink"
    )
    return checks, detail, {"graph": g}


def _run_shift_family(seed: int):
    data = golden_data()
    RP = _projective_plane()
    checks = [
        (f"RP2 Betti over char {char_text}", _betti(RP, int(char_text)) == want)
        for char_text, want in data["projective_plane_betti"].items()
    ]
    ctx0 = make_field_context(0, Backend.RANDOMIZED, seed=seed)
    shifts = {}
    for entry in data["projective_plane_partial_shifts"]:
        w = Permutation(tuple(entry["one_line"]))
        K = shifts[w] = shift_complex(RP, w, ctx0)
        checks.append((f"facets for w = {w.one_line()}", _facets(K) == entry["facets"]))
        checks += [
            (f"Betti over char {char} for w = {w.one_line()}", _betti(K, char) == entry["betti"])
            for char in (0, 2)
        ]
    ctx2 = make_field_context(2, Backend.RANDOMIZED, seed=seed)
    full2 = shift_complex(RP, Permutation.longest(6), ctx2)
    idx = data["projective_plane_full_shift_char2_index"]
    want = data["projective_plane_partial_shifts"][idx]["facets"]
    checks.append(("char-2 full shift facets", _facets(full2) == want))
    detail = "all four partial shifts, their Betti vectors, and the char-2 full shift match"
    return checks, detail, {"shifts": shifts, "full_shift_char2": full2}


def _run_contracted_closures(seed: int):
    data = golden_data()
    top = _projective_plane().layer(2)
    # the classes are the top layers of the partial shifts from the full shift on
    first_class = {0: 0, 2: data["projective_plane_full_shift_char2_index"]}
    shifts = data["projective_plane_partial_shifts"]
    layers = [[f for f in e["facets"] if len(f) == 3] for e in shifts]
    checks, closures, contracted, sizes = [], {}, {}, []
    for char_text, want in sorted(data["projective_plane_contracted"].items()):
        char = int(char_text)
        ctx = make_field_context(char, Backend.RANDOMIZED, seed=seed)
        g = closures[char] = build_shift_graph_from(top, ctx)
        c = contracted[char] = contract(g, ctx)
        classes = [S.edge_lists() for S in c.nodes]
        size = (len(g.nodes), g.edge_count)
        checks += [
            (f"char {char} classes", classes == want["nodes"]),
            (f"char {char} arrows", sorted([list(p) for p in c.edges]) == want["edges"]),
            (f"char {char} closure size", size == (want["closure_nodes"], want["closure_edges"])),
            (f"char {char} quotient acyclic", is_acyclic(c)[0]),
            (f"char {char} classes are shift top layers", classes == layers[first_class[char]:]),
        ]
        sizes.append(f"char {char}: {len(g.nodes)} -> {len(c.nodes)} classes")
    return checks, "; ".join(sizes), {"closures": closures, "contracted": contracted}


def _run_certificate_tightness(seed: int):
    data = golden_data()
    split = data["weak_order_certificate_split"]
    RP = _projective_plane()
    ctx0 = make_field_context(0, Backend.RANDOMIZED, seed=seed)
    base = betti_numbers(RP, 0).values

    certified, failing, preserving_other = [], [], []
    for w, image in shift_complex_all_cells(RP, ctx0).items():
        preserved = betti_numbers(image, 0).values == base
        if preserves_betti_certificate(w):
            certified.append(w)
            if not preserved:
                failing.append(w)
        elif preserved:
            preserving_other.append(w)

    cyc = data["cycle_shift_char2"]
    ctx2 = make_field_context(2, Backend.RANDOMIZED, seed=seed)
    E = shift_complex(RP, Permutation(tuple(cyc["one_line"])), ctx2)
    checks = [
        ("every certified permutation preserves Betti numbers", not failing),
        ("certified count", len(certified) == split["certified"]),
        (
            "only the identity preserves among the rest",
            len(preserving_other) == split["other_preserving"]
            and bool(preserving_other)
            and preserving_other[0].is_identity,
        ),
        ("long-cycle shift facets", _facets(E) == cyc["facets"]),
        ("near-cone status", is_near_cone(E) == cyc["near_cone"]),
        ("shiftedness status", all(is_shifted(L) for L in E.layers()) == cyc["shifted"]),
        ("near-cone Betti numbers", list(near_cone_betti(E).values) == cyc["betti"]),
        ("boundary-rank Betti numbers", _betti(E, 2) == cyc["betti"]),
    ]
    detail = (
        f"{len(certified)}/{split['certified']} certified preserve; only the identity "
        "preserves among the rest; long-cycle image is an unshifted near cone"
    )
    return checks, detail, {"certified": certified, "cycle_shift": E}


TARGETS: dict[str, tuple[Callable[[int], tuple[list[Check], str, dict]], str]] = {
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
    checks, detail, objects = runner(seed)
    seconds = time.monotonic() - start
    return TargetResult(name, tuple(checks), seconds, detail, objects)


def run_targets(names: list[str], seed: int = 0) -> list[TargetResult]:
    if names == ["all"]:
        names = available_targets()
    return [run_target(name, seed) for name in names]
