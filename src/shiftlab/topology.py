"""Shifting simplicial complexes and measuring their topology.

Shifting every layer of a simplicial complex with the same matrix yields a
simplicial complex again, with the same f-vector.  Betti numbers are
computed three ways: by boundary-matrix ranks over the coefficient field
(the general route), by the face-counting formula valid for near cones
(which are wedges of spheres, so the answer is field independent), and by
a formula that reads them off the full shifts of the layers.

A permutation that extends the long cycle (1 2 .. n) in the right weak
order is certified to produce near cones and to preserve Betti numbers
when shifting any complex.  The conjecture scanner probes two open
statements on explicit instances: componentwise monotonicity of Betti
numbers under partial shifts, and acyclicity of contracted shift graphs.
It reports findings and never asserts either statement.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable, Sequence

from .combstruct import (
    SimplicialComplex,
    UniformHypergraph,
    complex_from_layers,
    is_near_cone,
)
from .errors import (
    InternalError,
    MathPreconditionError,
    NotClosedError,
)
from .field import (
    Characteristic,
    DeterministicStream,
    FieldContext,
    PrimeField,
    matrix_rank,
    sample_eval_point,  # patched by name in bench/spans.py; unused here
)
from .shiftcore import (
    GenericMatrix,
    all_partial_shifts,
    cell_representative,
    evaluate_matrix,  # patched by name in bench/spans.py; unused here
    full_shift,
    shift_layers,
)
from .shiftgraph import (
    ContractedShiftGraph,
    ShiftGraph,
    build_shift_graph,
    contract,
    is_acyclic,
)
from .symgroup import Permutation, all_permutations, weak_order_geq

__all__ = [
    "BettiVector",
    "betti_numbers",
    "near_cone_betti",
    "betti_via_full_shift",
    "shift_complex",
    "shift_complex_by_matrix",
    "shift_complex_all_cells",
    "preserves_betti_certificate",
    "conjecture_scan",
    "random_complexes",
    "ScanReport",
]


@dataclass(frozen=True)
class BettiVector:
    """Betti numbers beta_0..beta_dim, non-reduced: beta_0 counts components."""

    characteristic: int
    values: tuple[int, ...]

    def __post_init__(self):
        if any(v < 0 for v in self.values):
            raise InternalError(f"negative Betti number in {self.values}")

    def __getitem__(self, k: int) -> int:
        return self.values[k]

    def __len__(self) -> int:
        return len(self.values)

    def to_json(self) -> str:
        payload = {"char": self.characteristic, "betti": list(self.values)}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def __repr__(self) -> str:
        return f"BettiVector(char={self.characteristic}, {self.values})"


def _boundary_matrix(K: SimplicialComplex, s: int) -> list[list[int]]:
    """Rows: (s-1)-faces; columns: s-faces; alternating-sign incidence, +-1."""
    rows_faces = sorted(f for f in K.faces if f.bit_count() == s)
    cols_faces = sorted(f for f in K.faces if f.bit_count() == s + 1)
    index = {f: i for i, f in enumerate(rows_faces)}
    matrix = [[0] * len(cols_faces) for _ in rows_faces]
    for j, face in enumerate(cols_faces):
        sign = 1
        bits = face
        while bits:
            low = bits & -bits
            matrix[index[face ^ low]][j] = sign
            sign = -sign
            bits ^= low
    return matrix


def _gf2_boundary_ranks(K: SimplicialComplex) -> list[int]:
    """rank d_s over GF(2) at index s, for s = 0..dim + 1 (d_0 = 0 = d_{dim+1}).

    Column j of d_s is the boundary of an s-face, an int whose bit i is set
    when the i-th (s-1)-face lies in it; over GF(2) the signs drop out.  The
    rank is the size of an XOR basis of the columns: a basis vector is kept
    under its lowest set bit, which no other kept vector has as its lowest,
    so a column XORed with the vector under its lowest bit loses that bit,
    and one that reaches 0 depends on the kept ones.
    """
    dim = K.dim
    by_size: list[list[int]] = [[] for _ in range(dim + 2)]
    for face in K.faces:
        by_size[face.bit_count()].append(face)
    ranks = [0] * (dim + 2)
    for s in range(1, dim + 1):
        row_bit = {face: 1 << i for i, face in enumerate(by_size[s])}
        basis: dict[int, int] = {}
        for face in by_size[s + 1]:
            column, rest = 0, face
            while rest:
                low = rest & -rest
                column |= row_bit[face ^ low]
                rest ^= low
            while column:
                low = column & -column
                pivot = basis.get(low)
                if pivot is None:
                    basis[low] = column
                    break
                column ^= pivot
        ranks[s] = len(basis)
    return ranks


def betti_numbers(K: SimplicialComplex, characteristic: int = 0) -> BettiVector:
    """Betti numbers over the field of the given characteristic.

    beta_k = (number of k-faces) - rank d_k - rank d_{k+1}, where d_s is
    the boundary map from s-chains to (s-1)-chains and d_0 = 0.  Ranks are
    exact.  In characteristic 2 each is the size of an XOR basis of the
    boundary columns as bitmasks (``_gf2_boundary_ranks``), with no matrix
    built.  In odd characteristic p they are by Gauss over GF(p), and over
    Q in characteristic zero by Gauss modulo a Mersenne prime above
    Hadamard's bound on the minors of d_s (see
    ``field.rational_rank_field``); a bound past the table of primes raises
    MathPreconditionError.  The alternating sum is checked against the
    Euler characteristic of the f-vector.
    """
    char = Characteristic(characteristic)
    dim = K.dim
    if dim < 0:
        return BettiVector(characteristic, ())
    f = K.f_vector()
    if char.value == 2:
        ranks = _gf2_boundary_ranks(K)
    else:
        dom = None if char.is_zero else PrimeField(char.value)
        ranks = [0] * (dim + 2)
        for s in range(1, dim + 1):
            ranks[s] = matrix_rank(_boundary_matrix(K, s), dom)
    values = tuple(f[k] - ranks[k] - ranks[k + 1] for k in range(dim + 1))
    if sum((-1) ** k * b for k, b in enumerate(values)) != f.euler_characteristic():
        raise InternalError("Betti numbers violate the Euler characteristic")
    return BettiVector(characteristic, values)


def near_cone_betti(K: SimplicialComplex) -> BettiVector:
    """Face-counting Betti numbers, valid exactly for near cones.

    Counts, per dimension k, the k-faces that do not extend by vertex 1 to
    a face.  Near cones are wedges of spheres, so this is field
    independent; the count is reduced and is converted to the non-reduced
    convention by adding one component in degree 0.  The returned vector
    carries characteristic 0 purely as a label.
    """
    if not is_near_cone(K):
        raise MathPreconditionError("complex is not a near cone")
    dim = K.dim
    if dim < 0:
        return BettiVector(0, ())
    counts = [0] * (dim + 1)
    for f in K.faces:
        if f and not f & 1 and (f | 1) not in K.faces:
            counts[f.bit_count() - 1] += 1
    if any(f & 1 for f in K.faces):
        counts[0] += 1
    return BettiVector(0, tuple(counts))


def betti_via_full_shift(K: SimplicialComplex, ctx: FieldContext) -> BettiVector:
    """Betti numbers read off the full shifts of consecutive layers.

    beta_k = |K^k| - |{faces of the shifted (k+1)-layer containing 1}|
    - |{faces of the shifted k-layer containing 1}| in the reduced
    convention, converted to non-reduced at degree 0.
    """
    char = ctx.characteristic.value
    dim = K.dim
    if dim < 0:
        return BettiVector(char, ())

    layers = K.layers()
    ones = [
        sum(e & 1 for e in full_shift(layer, ctx).edges)
        for layer in layers
    ] + [0]  # no layer above the top one
    values = [layers[k].m - ones[k + 1] - ones[k] for k in range(dim + 1)]
    values[0] += 1
    return BettiVector(char, tuple(values))


# ----------------------------------------------------- complex shifting


def _reassemble(K: SimplicialComplex, layers: Sequence[UniformHypergraph]):
    try:
        shifted = complex_from_layers(layers)
    except NotClosedError as exc:
        raise InternalError(
            "layer-wise shift failed to produce a simplicial complex: "
            f"{exc}"
        ) from exc
    if shifted.f_vector() != K.f_vector():
        raise InternalError("layer-wise shift changed the f-vector")
    return shifted


def shift_complex_by_matrix(
    K: SimplicialComplex, g: GenericMatrix, ctx: FieldContext
) -> SimplicialComplex:
    """Shift every layer of K with the same matrix g and reassemble.

    Randomized runs evaluate g once and reuse the point for every layer
    (the budget sums over all layers), mirroring the fact that a single
    matrix shifts the whole complex.
    """
    if g.n != K.n:
        raise MathPreconditionError("matrix size must match the complex")
    if K.dim < 0:
        return K
    return _reassemble(K, shift_layers(g, K.layers(), ctx))


def shift_complex(
    K: SimplicialComplex, w: Permutation, ctx: FieldContext
) -> SimplicialComplex:
    """Layer-wise partial shift of a complex by the permutation w."""
    if w.n != K.n:
        raise MathPreconditionError("permutation size must match the complex")
    if w.is_identity or K.dim < 0:
        return K
    return shift_complex_by_matrix(K, cell_representative(w), ctx)


def shift_complex_all_cells(
    K: SimplicialComplex, ctx: FieldContext
) -> dict[Permutation, SimplicialComplex]:
    """Layer-wise partial shift of K by every permutation, in enumeration order.

    One call of ``all_partial_shifts`` shifts every layer by every cell, so
    a randomized run draws one point for the whole complex.  Each distinct
    outcome is compared with K's layers once: the layers that did not move,
    among them the identity's, give K itself, and any other outcome is
    reassembled and checked once, its witnesses sharing the complex.
    """
    out = dict.fromkeys(all_permutations(K.n), K)
    if K.dim < 0:
        return out
    layers = tuple(K.layers())
    for shifted, witnesses in all_partial_shifts(layers, ctx).items():
        if shifted != layers:
            out.update(dict.fromkeys(witnesses, _reassemble(K, shifted)))
    return out


def preserves_betti_certificate(w: Permutation) -> bool:
    """True when w extends the long cycle (1 2 .. n) in the right weak order.

    Certified permutations are guaranteed to turn any complex into a near
    cone with unchanged Betti numbers under layer-wise shifting.  The
    certificate is sufficient, not necessary.
    """
    return weak_order_geq(w, Permutation.cycle(w.n))


# ------------------------------------------------------ conjecture scans


@dataclass(frozen=True)
class ComplexScanResult:
    """Monotonicity scan of one complex against every permutation."""

    facets: tuple[tuple[int, ...], ...]
    betti: tuple[int, ...]
    permutations_checked: int
    violations: tuple[dict, ...]
    preserving: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class GraphScanResult:
    """Acyclicity check of one contracted shift graph."""

    n: int
    k: int
    m: int
    nodes: int
    edges: int
    acyclic: bool
    cycle: tuple[int, ...]


@dataclass(frozen=True)
class ScanReport:
    """Findings only; the scanned conjectures are never asserted."""

    characteristic: int
    complexes: tuple[ComplexScanResult, ...]
    graphs: tuple[GraphScanResult, ...]

    def to_json(self) -> str:
        payload = {
            "char": self.characteristic,
            "complexes": [
                {
                    "facets": [list(f) for f in c.facets],
                    "betti": list(c.betti),
                    "permutations_checked": c.permutations_checked,
                    "violations": list(c.violations),
                    "preserving": [list(p) for p in c.preserving],
                }
                for c in self.complexes
            ],
            "graphs": [
                {
                    "n": g.n,
                    "k": g.k,
                    "m": g.m,
                    "nodes": g.nodes,
                    "edges": g.edges,
                    "acyclic": g.acyclic,
                    "cycle": list(g.cycle),
                }
                for g in self.graphs
            ],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _scan_complex(
    K: SimplicialComplex,
    ctx: FieldContext,
    betti: Callable[[SimplicialComplex], BettiVector],
) -> ComplexScanResult:
    base = betti(K)
    violations = []
    preserving = []
    checked = 0
    for w, shifted in shift_complex_all_cells(K, ctx).items():
        checked += 1
        image = betti(shifted)
        if image.values == base.values:
            preserving.append(w.images)
        if any(b < a for a, b in zip(base.values, image.values)):
            violations.append(
                {
                    "permutation": list(w.images),
                    "betti_before": list(base.values),
                    "betti_after": list(image.values),
                }
            )
    return ComplexScanResult(
        facets=K.facets_as_tuples(),
        betti=base.values,
        permutations_checked=checked,
        violations=tuple(violations),
        preserving=tuple(preserving),
    )


def _graph_result(g: ContractedShiftGraph) -> GraphScanResult:
    ok, order_or_cycle = is_acyclic(g)
    return GraphScanResult(
        n=g.n,
        k=g.k,
        m=g.m,
        nodes=len(g.nodes),
        edges=len(g.edges),
        acyclic=ok,
        cycle=() if ok else tuple(order_or_cycle),
    )


def conjecture_scan(
    complexes: Iterable[SimplicialComplex],
    ctx: FieldContext,
    graph_params: Iterable[tuple[int, int, int]] = (),
    prebuilt_graphs: Iterable = (),
) -> ScanReport:
    """Probe the open monotonicity and acyclicity statements on instances.

    For each complex, shifts by all permutations of its vertex set and
    compares Betti vectors componentwise; for each (n, k, m) triple (or
    prebuilt shift graph), contracts and checks acyclicity.  Results are
    reported with provenance; nothing is asserted.  A complex given twice
    is scanned once, and each distinct complex met during the call, input
    or shifted image, is ranked once.
    """
    char = ctx.characteristic.value
    # the memos live for this call only
    betti = cache(lambda K: betti_numbers(K, char))
    scan = cache(lambda K: _scan_complex(K, ctx, betti))
    complex_results = tuple(scan(K) for K in complexes)
    graph_results = [
        _graph_result(contract(build_shift_graph(n, k, m, ctx), ctx))
        for n, k, m in graph_params
    ]
    for g in prebuilt_graphs:
        if isinstance(g, ShiftGraph):
            g = contract(g, ctx)
        if not isinstance(g, ContractedShiftGraph):
            raise MathPreconditionError("prebuilt graphs must be shift graphs")
        graph_results.append(_graph_result(g))
    return ScanReport(
        characteristic=char,
        complexes=complex_results,
        graphs=tuple(graph_results),
    )


def random_complexes(
    count: int, n: int = 5, dim: int = 2, seed: int = 0
) -> tuple[SimplicialComplex, ...]:
    """Seeded pseudorandom pure complexes for scan instances.

    Complex i is generated by a stream keyed on (seed, i): pick a facet
    count m uniformly in [1, C(n, dim+1)], then pick m distinct
    (dim+1)-subsets of [n] as facets.  Identical arguments always produce
    identical complexes.
    """
    if count < 0 or n < 1 or not 0 <= dim < n:
        raise MathPreconditionError("need count >= 0 and 0 <= dim < n")
    pool = list(itertools.combinations(range(1, n + 1), dim + 1))
    out = []
    for i in range(count):
        stream = DeterministicStream("random-complex", seed, n, dim, i)
        m = 1 + stream.randbelow(len(pool))
        chosen = []
        remaining = list(pool)
        for _ in range(m):
            chosen.append(remaining.pop(stream.randbelow(len(remaining))))
        out.append(SimplicialComplex.from_facets(n, chosen))
    return tuple(out)
