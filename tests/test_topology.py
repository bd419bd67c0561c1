"""Betti numbers, complex shifting, certificates, and conjecture scans."""

import hashlib
import itertools
import json

import pytest

from conftest import frac_rank, frac_rank_mod, rng
from shiftlab import (
    Backend,
    BettiVector,
    InternalError,
    MathPreconditionError,
    MatrixNotInvertibleError,
    MultiPoly,
    Permutation,
    ScanReport,
    SimplicialComplex,
    all_permutations,
    betti_numbers,
    betti_via_full_shift,
    build_shift_graph,
    cell_representative,
    complex_from_layers,
    conjecture_scan,
    exterior_shift,
    generic_matrix,
    identity_matrix,
    is_near_cone,
    is_shifted,
    make_field_context,
    matrix_from_entries,
    near_cone_betti,
    partial_shift,
    preserves_betti_certificate,
    random_complexes,
    shift_complex,
    shift_complex_by_matrix,
    vandermonde_matrix,
    weak_order_geq,
)
from shiftlab import field, shiftcore, topology
from shiftlab.topology import ComplexScanResult, GraphScanResult

RND = make_field_context(0, Backend.RANDOMIZED, seed=0)
RND2 = make_field_context(2, Backend.RANDOMIZED, seed=0)
SYM = make_field_context(0, Backend.SYMBOLIC)

# the six-vertex triangulation of the real projective plane
RP2_FACETS = [
    (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 4, 6),
    (2, 3, 4), (2, 3, 6), (2, 4, 5), (3, 5, 6), (4, 5, 6),
]


def _rp2():
    return SimplicialComplex.from_facets(6, RP2_FACETS)


# ----------------------------------------------------- Betti number oracle


def _faces_by_dim(K: SimplicialComplex):
    by_dim = {}
    for mask in K.faces:
        elems, bits = [], mask
        while bits:
            low = bits & -bits
            elems.append(low.bit_length())
            bits ^= low
        by_dim.setdefault(len(elems) - 1, []).append(tuple(sorted(elems)))
    return {d: sorted(fs) for d, fs in by_dim.items()}


def _boundary(faces_below, faces_here):
    """Signed incidence matrix of one boundary map, rows below, columns here."""
    row_index = {f: i for i, f in enumerate(faces_below)}
    rows = [[0] * len(faces_here) for _ in faces_below]
    for j, face in enumerate(faces_here):
        for drop in range(len(face)):
            sub = face[:drop] + face[drop + 1 :]
            rows[row_index[sub]][j] = (-1) ** drop
    return rows


def betti_oracle(K: SimplicialComplex, char: int):
    """Non-reduced Betti numbers straight from boundary-matrix ranks."""
    if K.dim < 0:
        return ()
    by_dim = _faces_by_dim(K)
    rank_at = {}
    for d in range(1, K.dim + 1):
        mat = _boundary(by_dim.get(d - 1, []), by_dim.get(d, []))
        if not mat or not mat[0]:
            rank_at[d] = 0
        elif char == 0:
            rank_at[d] = frac_rank(mat)
        else:
            rank_at[d] = frac_rank_mod(mat, char)
    out = []
    for d in range(K.dim + 1):
        dim_cd = len(by_dim.get(d, []))
        out.append(dim_cd - rank_at.get(d, 0) - rank_at.get(d + 1, 0))
    return tuple(out)


def _random_complex_pool(tag, count, max_n=6):
    gen = rng(tag)
    out = []
    for _ in range(count):
        n = gen.randint(2, max_n)
        dim = gen.randint(0, min(3, n - 1))
        pool = list(itertools.combinations(range(1, n + 1), dim + 1))
        facets = gen.sample(pool, gen.randint(1, len(pool)))
        out.append(SimplicialComplex.from_facets(n, facets))
    return out


def test_betti_catalog():
    solid = SimplicialComplex.from_facets(3, [[1, 2, 3]])
    assert betti_numbers(solid).values == (1, 0, 0)
    hollow = SimplicialComplex.from_facets(3, [[1, 2], [1, 3], [2, 3]])
    assert betti_numbers(hollow).values == (1, 1)
    two_edges = SimplicialComplex.from_facets(4, [[1, 2], [3, 4]])
    assert betti_numbers(two_edges).values == (2, 0)
    sphere = SimplicialComplex.from_facets(
        4, [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]
    )
    assert betti_numbers(sphere).values == (1, 0, 1)
    wedge = SimplicialComplex.from_facets(
        5, [[1, 2], [2, 3], [1, 3], [3, 4], [4, 5], [3, 5]]
    )
    assert betti_numbers(wedge).values == (1, 2)


def test_betti_of_projective_plane_depends_on_the_field():
    K = _rp2()
    assert betti_numbers(K, 0).values == (1, 0, 0)
    assert betti_numbers(K, 2).values == (1, 1, 1)
    assert betti_numbers(K, 3).values == (1, 0, 0)
    assert betti_numbers(K, 0).characteristic == 0
    assert betti_numbers(K, 2).characteristic == 2


def test_betti_matches_boundary_rank_oracle_on_random_complexes():
    for K in _random_complex_pool("betti-oracle", 40):
        for char in (0, 2, 3):
            assert betti_numbers(K, char).values == betti_oracle(K, char)


def _larger_complexes(tag, count):
    """Random complexes on 9 to 11 vertices with at most 500 nonempty faces."""
    gen = rng(tag)
    out = []
    for _ in range(count):
        n = gen.randint(9, 11)
        dim = gen.randint(2, 3)
        pool = list(itertools.combinations(range(1, n + 1), dim + 1))
        facets = gen.sample(pool, gen.randint(len(pool) // 4, len(pool) // 2))
        while len(SimplicialComplex.from_facets(n, facets).faces) > 501:
            facets.pop()
        out.append(SimplicialComplex.from_facets(n, facets))
    return out


def test_rational_betti_matches_fraction_ranks_on_larger_complexes():
    # the boundary ranks over Q run modulo a Mersenne prime above Hadamard's
    # bound; these complexes need primes up to 2^521 - 1
    primes = set()
    for K in _larger_complexes("betti-over-q", 5):
        assert betti_numbers(K, 0).values == betti_oracle(K, 0)
        for s in range(1, K.dim + 1):
            columns = zip(*topology._boundary_matrix(K, s))
            primes.add(field.rational_rank_field(columns).p)
    assert max(primes) > 2**61 - 1


def test_rational_betti_past_the_prime_table_is_refused(short_prime_table):
    # the hollow triangle's d_1 has Hadamard bound isqrt(2^3) = 2, so GF(3)
    hollow = SimplicialComplex.from_facets(3, [[1, 2], [1, 3], [2, 3]])
    assert betti_numbers(hollow, 0).values == (1, 1)
    # RP^2's d_2 has bound isqrt(3^10) = 243, above 127
    with pytest.raises(MathPreconditionError, match="Mersenne"):
        betti_numbers(_rp2(), 0)
    assert betti_numbers(_rp2(), 2).values == (1, 1, 1)


def test_betti_rejects_bad_characteristic():
    with pytest.raises(MathPreconditionError):
        betti_numbers(_rp2(), 4)


def test_prime_field_betti_dominates_rational_betti():
    # universal coefficients: torsion only ever adds mod-p classes
    for K in _random_complex_pool("ucoeff", 30):
        b0 = betti_numbers(K, 0).values
        for p in (2, 3):
            bp = betti_numbers(K, p).values
            assert all(x >= y for x, y in zip(bp, b0))


def test_euler_characteristic_is_field_independent():
    for K in _random_complex_pool("euler", 30):
        chi = K.f_vector().euler_characteristic()
        for char in (0, 2, 3):
            values = betti_numbers(K, char).values
            assert sum((-1) ** d * b for d, b in enumerate(values)) == chi


def test_betti_vector_container():
    v = BettiVector(0, (1, 2, 0))
    assert v[0] == 1 and v[1] == 2 and v[2] == 0
    assert len(v) == 3
    assert json.loads(v.to_json()) == {"betti": [1, 2, 0], "char": 0}
    with pytest.raises(InternalError):
        BettiVector(0, (1, -1))


# ------------------------------------------------------------- near cones


def _random_near_cones(tag, count):
    """Cone over a base plus extra faces whose swaps stay inside the cone."""
    gen = rng(tag)
    out = []
    while len(out) < count:
        n = gen.randint(3, 6)
        pool = list(itertools.combinations(range(2, n + 1), gen.randint(1, n - 1)))
        base_facets = gen.sample(pool, gen.randint(1, len(pool)))
        base = SimplicialComplex.from_facets(n, base_facets)
        coned = [sorted({1, *f}) for f in base_facets]
        # candidate extras: faces one dimension above the base whose entire
        # boundary lies in the base
        extras = []
        for cand in itertools.combinations(range(2, n + 1), base.dim + 2):
            if all(
                base.contains(cand[:i] + cand[i + 1 :]) for i in range(len(cand))
            ):
                extras.append(list(cand))
        chosen = [e for e in extras if gen.random() < 0.6]
        K = SimplicialComplex.from_facets(n, coned + chosen)
        assert is_near_cone(K)
        out.append(K)
    return out


def test_near_cone_betti_matches_ranks_and_is_field_independent():
    nontrivial = 0
    for K in _random_near_cones("near-cone-betti", 40):
        counted = near_cone_betti(K)
        assert counted.values == betti_numbers(K, 0).values
        assert counted.values == betti_numbers(K, 2).values
        assert counted.values == betti_numbers(K, 3).values
        nontrivial += any(b for b in counted.values[1:])
    assert nontrivial  # some generated near cones carry actual homology


def test_near_cone_betti_requires_a_near_cone():
    # a lone edge missing vertex 1: swapping either endpoint to 1 leaves K
    lone = SimplicialComplex.from_facets(3, [[2, 3]])
    assert not is_near_cone(lone)
    with pytest.raises(MathPreconditionError):
        near_cone_betti(lone)


def test_betti_via_full_shift_agrees_with_boundary_ranks():
    for K in _random_complex_pool("via-shift", 12, max_n=5):
        for ctx in (RND, RND2):
            via = betti_via_full_shift(K, ctx)
            assert via.values == betti_numbers(K, ctx.characteristic.value).values
            assert via.characteristic == ctx.characteristic.value
    K = _rp2()
    assert betti_via_full_shift(K, RND).values == (1, 0, 0)
    assert betti_via_full_shift(K, RND2).values == (1, 1, 1)


def test_betti_via_full_shift_shifts_each_layer_once(monkeypatch):
    shifted = []
    full = topology.full_shift
    monkeypatch.setattr(
        topology, "full_shift", lambda S, ctx: shifted.append(S) or full(S, ctx)
    )
    K = _rp2()
    assert betti_via_full_shift(K, RND).values == (1, 0, 0)
    assert shifted == K.layers()


# --------------------------------------------------------- complex shifts


def test_shift_complex_is_layerwise_partial_shift():
    for K in _random_complex_pool("layerwise", 10, max_n=5):
        for w in (Permutation.longest(K.n), Permutation.cycle(K.n)):
            got = shift_complex(K, w, RND)
            layers = [partial_shift(layer, w, RND) for layer in K.layers()]
            assert got == complex_from_layers(layers)
            assert got.f_vector() == K.f_vector()


def test_full_shift_of_a_complex_is_shifted_layerwise():
    for K in _random_complex_pool("shifted-layers", 10, max_n=5):
        shifted = shift_complex(K, Permutation.longest(K.n), RND)
        for layer in shifted.layers():
            assert is_shifted(layer)


def test_shift_complex_edge_cases():
    K = _rp2()
    assert shift_complex(K, Permutation.identity(6), RND) is K
    with pytest.raises(MathPreconditionError):
        shift_complex(K, Permutation.longest(5), RND)
    with pytest.raises(MathPreconditionError):
        shift_complex_by_matrix(K, identity_matrix(5), RND)
    assert shift_complex_by_matrix(K, identity_matrix(6), RND) == K
    sing = matrix_from_entries([[1, 1, 1], [1, 1, 1], [0, 0, 1]])
    triangle = SimplicialComplex.from_facets(3, [[1, 2], [1, 3]])
    with pytest.raises(MatrixNotInvertibleError):
        shift_complex_by_matrix(triangle, sing, SYM)
    with pytest.raises(MatrixNotInvertibleError, match="^constant matrix is singular$"):
        shift_complex_by_matrix(triangle, sing, RND)


def test_shift_complex_backends_agree():
    for K in _random_complex_pool("complex-backends", 6, max_n=4):
        w = Permutation.longest(K.n)
        assert shift_complex(K, w, SYM) == shift_complex(K, w, RND)
    K = SimplicialComplex.from_facets(4, [[1, 2, 3], [2, 3, 4]])
    x = MultiPoly.variable
    unflagged = matrix_from_entries(
        [[x(1, 1), 1, 0, 2], [0, x(2, 2), 1, 0], [1, 0, x(3, 3), 1], [x(4, 1), 0, 0, 1]]
    )
    for g in (generic_matrix(4), unflagged, vandermonde_matrix(4)):
        layers = [exterior_shift(g, layer, RND) for layer in K.layers()]
        for ctx in (SYM, RND):
            assert shift_complex_by_matrix(K, g, ctx) == complex_from_layers(layers)


def test_shifting_trivial_layers_draws_no_point(monkeypatch):
    # every layer of the full 2-skeleton is complete, so a unit-determinant
    # matrix leaves it as it is without evaluating anything
    K = SimplicialComplex.from_facets(5, itertools.combinations(range(1, 6), 3))
    calls = []
    sample = shiftcore.sample_eval_point
    monkeypatch.setattr(
        shiftcore, "sample_eval_point", lambda *a: calls.append(a) or sample(*a)
    )
    g = cell_representative(Permutation.longest(5))
    assert shift_complex_by_matrix(K, g, RND) == K
    assert calls == []


# ------------------------------------------------------------ certificates


def test_certificate_is_the_up_set_of_the_long_cycle():
    for n in (2, 3, 4, 5):
        cycle = Permutation.cycle(n)
        for w in all_permutations(n):
            assert preserves_betti_certificate(w) == weak_order_geq(w, cycle)
        assert preserves_betti_certificate(Permutation.longest(n))
        assert not preserves_betti_certificate(Permutation.identity(n))
    counts = {
        n: sum(preserves_betti_certificate(w) for w in all_permutations(n))
        for n in (3, 4, 5)
    }
    # the up-set of the long cycle has (n-1)! elements
    assert counts == {3: 2, 4: 6, 5: 24}


def test_certified_shifts_preserve_betti_and_reach_near_cones():
    gen = rng("certified")
    complexes = random_complexes(8, n=5, dim=2, seed=3)
    certified = [w for w in all_permutations(5) if preserves_betti_certificate(w)]
    for K in complexes:
        base0 = betti_numbers(K, 0).values
        base2 = betti_numbers(K, 2).values
        for w in gen.sample(certified, 4):
            shifted = shift_complex(K, w, RND)
            assert is_near_cone(shifted)
            assert betti_numbers(shifted, 0).values == base0
            shifted2 = shift_complex(K, w, RND2)
            assert is_near_cone(shifted2)
            assert betti_numbers(shifted2, 2).values == base2


# -------------------------------------------------------- random complexes


def test_random_complexes_are_deterministic_and_pure():
    a = random_complexes(5, n=5, dim=2, seed=9)
    b = random_complexes(5, n=5, dim=2, seed=9)
    assert a == b
    assert random_complexes(5, n=5, dim=2, seed=10) != a
    for K in a:
        assert K.n == 5 and K.dim == 2
        assert all(len(f) == 3 for f in K.facets_as_tuples())
    assert random_complexes(0) == ()
    with pytest.raises(MathPreconditionError):
        random_complexes(1, n=3, dim=3)
    with pytest.raises(MathPreconditionError):
        random_complexes(-1)


# ------------------------------------------------------------------ scans


def test_conjecture_scan_structure():
    hollow = SimplicialComplex.from_facets(3, [[1, 2], [1, 3], [2, 3]])
    report = conjecture_scan([hollow], RND, graph_params=[(3, 2, 2)])
    assert isinstance(report, ScanReport)
    assert report.characteristic == 0
    (cres,) = report.complexes
    assert cres.permutations_checked == 6
    assert cres.betti == (1, 1)
    assert cres.violations == ()
    assert (1, 2, 3) in cres.preserving  # the identity never changes Betti
    (gres,) = report.graphs
    assert (gres.n, gres.k, gres.m) == (3, 2, 2)
    assert gres.acyclic and gres.cycle == ()
    assert not report.has_violations
    assert report.to_json() == conjecture_scan([hollow], RND, graph_params=[(3, 2, 2)]).to_json()
    payload = json.loads(report.to_json())
    assert payload["char"] == 0 and len(payload["complexes"]) == 1


def test_conjecture_scan_reuses_work_within_one_call(monkeypatch):
    shifted, ranked = [], []
    assemble, betti = topology.complex_from_layers, topology.betti_numbers

    def counted_assemble(layers):
        # each distinct shifted image other than K is assembled here, once
        shifted.append(assemble(layers))
        return shifted[-1]

    monkeypatch.setattr(topology, "complex_from_layers", counted_assemble)
    monkeypatch.setattr(
        topology, "betti_numbers", lambda K, char: ranked.append(K) or betti(K, char)
    )
    K = SimplicialComplex.from_facets(4, [[1, 2], [1, 3], [2, 3], [3, 4]])
    report = conjecture_scan([K, K], RND)
    # a repeated complex is scanned once, and each distinct complex is
    # assembled and ranked once: the input and its distinct shifted images
    # (23 cells other than the identity give two complexes other than K)
    assert len(shifted) == len(set(shifted)) == 2
    assert len(ranked) == len(set(ranked))
    assert set(ranked) == {K, *shifted}
    assert report.complexes[0] == report.complexes[1]
    # the same report, byte for byte, as when results were cached process-wide
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == "77cbfc2fc58936647da7b60ef3efc0f4f52be100b96b192936f2b0431fc0cd6a"
    # nothing carries over into the next call
    conjecture_scan([K], RND)
    assert len(shifted) == 4


def test_conjecture_scan_accepts_prebuilt_graphs():
    g = build_shift_graph(3, 2, 2, RND)
    report = conjecture_scan([], RND, prebuilt_graphs=[g])
    (gres,) = report.graphs
    assert gres.acyclic
    with pytest.raises(MathPreconditionError):
        conjecture_scan([], RND, prebuilt_graphs=["nope"])


def test_scan_report_surfaces_violations_without_raising():
    # reports are plain findings: a (hypothetical) violation flips the flag
    # but is never turned into an exception by the scanner
    violation = {"permutation": [2, 1], "betti_before": [1], "betti_after": [0]}
    report = ScanReport(
        characteristic=0,
        complexes=(
            ComplexScanResult(
                facets=((1, 2),),
                betti=(1,),
                permutations_checked=2,
                violations=(violation,),
                preserving=((1, 2),),
            ),
        ),
        graphs=(GraphScanResult(n=2, k=1, m=1, nodes=1, edges=0, acyclic=False, cycle=(0,)),),
    )
    assert report.has_violations
    payload = json.loads(report.to_json())
    assert payload["complexes"][0]["violations"] == [violation]
    assert payload["graphs"][0]["acyclic"] is False
