"""Acceptance suite: nine criteria, one test and one report line each.

Every test appends a PASS or FAIL line to the shared report that the
terminal summary prints after the run, including the measured wall time
and, where a criterion carries a time budget, the budget it was held to.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from functools import lru_cache

import pytest

from conftest import (
    ACCEPTANCE_REPORT,
    ZZ,
    frac_minor,
    frac_pivots,
    int_matmul,
    random_invertible,
    random_unit_upper,
    rng,
)
from lemmas import has_violations, hypergraph_lex_compare, map_variables, reduced_word, twist
from shiftlab import (
    Backend,
    MultiPoly,
    Permutation,
    SimplicialComplex,
    UniformHypergraph,
    all_permutations,
    betti_numbers,
    build_shift_graph,
    cell_representative,
    combinatorial_shift,
    compound_rows,
    conjecture_scan,
    contract,
    exterior_shift,
    is_acyclic,
    is_near_cone,
    is_shifted,
    k_subsets,
    make_field_context,
    matrix_from_entries,
    matrix_product,
    near_cone_betti,
    partial_shift,
    partial_shift_profile,
    preserves_betti_certificate,
    random_complexes,
    shift_complex,
    subset_mask,
)
from shiftlab.reproduce import TargetResult, available_targets, golden_data, run_target

CTX0 = make_field_context(0, Backend.RANDOMIZED, seed=0)
CTX2 = make_field_context(2, Backend.RANDOMIZED, seed=0)
SYM = make_field_context(0, Backend.SYMBOLIC)


@contextlib.contextmanager
def criterion(number: int):
    """Append one PASS/FAIL report line no matter how the test ends."""
    start = time.monotonic()
    info = {"detail": ""}
    try:
        yield info
    except BaseException as exc:
        text = f"{type(exc).__name__}: {exc}"
        if len(text) > 300:
            text = text[:300] + "..."
        ACCEPTANCE_REPORT.append(
            f"FAIL criterion {number} ({time.monotonic() - start:.2f}s): {text}"
        )
        raise
    ACCEPTANCE_REPORT.append(
        f"PASS criterion {number} ({time.monotonic() - start:.2f}s): {info['detail']}"
    )


def _tuples(hypergraph: UniformHypergraph) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(e) for e in hypergraph.edge_lists())


@lru_cache(maxsize=None)
def _perms(n: int) -> tuple[Permutation, ...]:
    return tuple(all_permutations(n))


def _projective_plane() -> SimplicialComplex:
    g = golden_data()["projective_plane"]
    return SimplicialComplex.from_facets(g["n"], [tuple(f) for f in g["facets"]])


@lru_cache(maxsize=None)
def _run(name: str) -> TargetResult:
    """One run of each reproduce target per session, at seed 0."""
    return run_target(name, seed=0)


def _passes_within(name: str, budget: float, info: dict) -> TargetResult:
    """Run a target once; every named check holds within the time budget."""
    result = _run(name)
    assert result.ok, result.line()
    assert result.seconds < budget, f"{result.seconds:.2f}s exceeds the {budget:g}s budget"
    info["detail"] = f"{result.detail}; {result.seconds:.2f}s < {budget:g}s"
    return result


def _fraction_cell_hits(g) -> set[Permutation]:
    """Cells w whose generic shift of the golden family is its Vandermonde shift.

    The generic matrix of the cell of w is u.P_w for one random
    upper-triangular integer u with large entries; the shift is read off
    the lex-first pivot columns of the edge-row minors, all in Fractions.
    """
    n, k = g["n"], g["k"]
    columns = list(itertools.combinations(range(n), k))
    edge_rows = [tuple(v - 1 for v in e) for e in g["edges"]]
    target = [columns.index(tuple(v - 1 for v in e)) for e in g["vandermonde_shift"]]
    u = random_unit_upper(n, rng("acc-vandermonde-oracle"), bound=10**6)
    hits = set()
    for w in all_permutations(n):
        mat = int_matmul(u, [list(row) for row in w.matrix()])
        compound = [[frac_minor(mat, r, c) for c in columns] for r in edge_rows]
        if frac_pivots(compound)[1] == target:
            hits.add(w)
    return hits


# --------------------------------------------------------------- criteria


def test_criterion_1_two_edge_shift_routes():
    with criterion(1) as info:
        _passes_within("two-edge-routes", 1.0, info)


def test_criterion_2_vandermonde_versus_every_cell():
    # The Vandermonde shift of S is a partial shift: 66 of the 720 cells
    # attain it, so the final assertion states that counterexample exactly
    # (count, least-length witnesses, and that the longest cell w0 is not
    # among them).  The hit set is checked twice over: every hit is
    # re-verified with the exact symbolic backend, and the whole set must
    # equal the one found by Fraction elimination on u.P_w for a random
    # upper-triangular integer u, with no use of the package's elimination.
    with criterion(2) as info:
        result = _run("vandermonde-gap")
        assert result.ok, result.line()
        start = time.monotonic()
        g = golden_data()["vandermonde_shift"]
        S = UniformHypergraph.from_edges(g["n"], g["k"], [tuple(e) for e in g["edges"]])
        vandermonde = tuple(tuple(e) for e in g["vandermonde_shift"])
        hits = [
            w
            for w in all_permutations(6)
            if _tuples(partial_shift(S, w, CTX0)) == vandermonde
        ]
        elapsed = result.seconds + time.monotonic() - start
        assert elapsed < 60.0, f"{elapsed:.2f}s exceeds the 60s budget"
        confirmed = [
            w for w in hits if _tuples(partial_shift(S, w, SYM)) == vandermonde
        ]
        assert confirmed == hits, "randomized hits not confirmed symbolically"
        assert set(hits) == _fraction_cell_hits(g), (
            "hit set differs from the Fraction oracle's"
        )
        assert len(hits) == 66, f"{len(hits)} of 720 cells attain the Vandermonde shift"
        shortest = min(w.length() for w in hits)
        least = [
            w.one_line()
            for w in sorted(hits, key=lambda w: w.images)
            if w.length() == shortest
        ]
        assert (shortest, least) == (8, ["5,2,6,1,3,4", "5,6,1,2,3,4"]), (
            f"least-length witnesses {least} of length {shortest}"
        )
        assert Permutation.longest(6) not in hits, "w0 attains the Vandermonde shift"
        info["detail"] = (
            "generic and Vandermonde shifts match the goldens and differ; "
            f"{len(hits)} of 720 cells attain the Vandermonde shift, confirmed "
            "symbolically and by the Fraction oracle; least-length witnesses "
            f"{' and '.join(least)} (length {shortest}), w0 not among them; "
            f"{elapsed:.2f}s < 60s"
        )


def test_criterion_3_projective_plane_shift_family():
    with criterion(3) as info:
        _passes_within("projective-shifts", 60.0, info)


def test_criterion_4_six_node_shift_graph():
    with criterion(4) as info:
        _passes_within("psg-4-2-5", 10.0, info)


def test_criterion_5_contracted_closure_graphs():
    with criterion(5) as info:
        contracted = _passes_within("contracted-closures", 300.0, info).objects["contracted"]
        # shape stated for the criterion: 4 classes with arrows 0->{1,2,3},
        # 1->{2,3} over the rationals; 3 classes with arrows 0->{1,2} mod 2
        assert sorted(contracted[0].edges) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
        assert sorted(contracted[2].edges) == [(0, 1), (0, 2)]


def test_criterion_6_certificate_split():
    with criterion(6) as info:
        _passes_within("certificate-split", 600.0, info)


@pytest.mark.parametrize("name", available_targets())
def test_reproduce_target_passes(name):
    result = _run(name)
    assert result.ok, result.line()
    assert result.line() == f"PASS {name}: {result.detail}"


# ----------------------------------------------------- criterion 7 suites


def _random_family(gen, n, k, m) -> UniformHypergraph:
    return UniformHypergraph(n, k, tuple(gen.sample(k_subsets(n, k), m)))


def _suite_cardinality():
    """|shift| = |family| for invertible matrices."""
    gen = rng("acc-cardinality")
    cases = 0
    while cases < 1000:
        n = gen.randint(3, 5)
        k = gen.randint(1, n - 1)
        m = gen.randint(1, min(4, len(k_subsets(n, k))))
        S = _random_family(gen, n, k, m)
        mat = matrix_from_entries(random_invertible(n, gen), known_invertible=True)
        assert len(exterior_shift(mat, S, CTX0).edge_lists()) == m
        cases += 1
    return "cardinality", cases


def _suite_invariance():
    """Left diagonal and right triangular factors never change the shift."""
    gen = rng("acc-invariance")
    cases = 0
    while cases < 1000:
        n = gen.randint(3, 4)
        k = gen.randint(1, n - 1)
        m = gen.randint(1, min(3, len(k_subsets(n, k))))
        S = _random_family(gen, n, k, m)
        g = random_invertible(n, gen)
        d = [[gen.choice([1, -1, 2, 3]) if i == j else 0 for j in range(n)] for i in range(n)]
        b = random_unit_upper(n, gen)
        dgb = int_matmul(int_matmul(d, g), b)
        base = exterior_shift(matrix_from_entries(g, known_invertible=True), S, CTX0)
        moved = exterior_shift(matrix_from_entries(dgb, known_invertible=True), S, CTX0)
        assert base == moved
        cases += 1
    return "invariance", cases


def _poly_matmul(a, b):
    size = len(a)
    zero = MultiPoly.const(0)
    return [
        [sum((a[i][t] * b[t][j] for t in range(size)), zero) for j in range(size)]
        for i in range(size)
    ]


def _full_family(n, k) -> UniformHypergraph:
    return UniformHypergraph(n, k, k_subsets(n, k))


def _suite_functoriality():
    """Compound of a product is the product of compounds, n <= 5."""
    entries = 0
    # symbolic identity between two independent generic matrices, n <= 4
    for n in (2, 3, 4):
        relabel = lambda var: (var[0] + n, var[1] + n)
        a = matrix_from_entries(
            [[MultiPoly.variable(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
        )
        b = matrix_from_entries(
            [[map_variables(a.entries[i][j], relabel) for j in range(n)] for i in range(n)]
        )
        ab = matrix_product(a, b)
        for k in range(1, n + 1):
            full = _full_family(n, k)
            ca = compound_rows(a, full).rows
            cb = compound_rows(b, full).rows
            cab = compound_rows(ab, full).rows
            prod = _poly_matmul(ca, cb)
            assert all(
                prod[i][j] == cab[i][j]
                for i in range(len(prod))
                for j in range(len(prod))
            )
            entries += len(prod) ** 2
    # integer matrices at n = 5 until the case target is reached
    gen = rng("acc-functorial")
    while entries < 1000:
        n = 5
        k = gen.randint(2, 4)
        a_rows = [[gen.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        b_rows = [[gen.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        full = _full_family(n, k)
        ca = [
            [e.evaluate({}, ZZ) for e in row]
            for row in compound_rows(matrix_from_entries(a_rows), full).rows
        ]
        cb = [
            [e.evaluate({}, ZZ) for e in row]
            for row in compound_rows(matrix_from_entries(b_rows), full).rows
        ]
        cab = [
            [e.evaluate({}, ZZ) for e in row]
            for row in compound_rows(
                matrix_from_entries(int_matmul(a_rows, b_rows)), full
            ).rows
        ]
        assert int_matmul(ca, cb) == cab
        entries += len(cab) ** 2
    return "functoriality", entries


def _suite_simple_cells():
    """Edge replacement equals the simple-cell shift, exhaustive n=4 m<=3."""
    result = _run("simple-cells")
    assert result.ok, result.line()
    count = result.objects["cases"]
    assert count == 222  # 74 families on [4] with at most 3 edges, 3 swaps each
    return "simple-cells", count


def _suite_fixed_points():
    """Shifted families are exactly the ones every simple swap fixes."""
    cases = 0
    for n, k in ((4, 1), (4, 2), (4, 3), (5, 2)):
        cols = k_subsets(n, k)
        swaps = [Permutation.simple(n, i) for i in range(1, n)]
        for mask in range(1 << len(cols)):
            S = UniformHypergraph(
                n, k, tuple(c for i, c in enumerate(cols) if mask >> i & 1)
            )
            fixed = all(combinatorial_shift(S, t) == S for t in swaps)
            assert fixed == is_shifted(S)
            cases += 1
    return "fixed-points", cases


@lru_cache(maxsize=None)
def _cover_families():
    gen = rng("acc-covers")
    seen = []
    while len(seen) < 45:
        m = gen.randint(2, 4)
        S = _random_family(gen, 4, 2, m)
        if S not in seen:
            seen.append(S)
    return tuple(seen)


def _suite_cover_monotonicity():
    """One more simple factor: rank tuples rise, shifts fall, lexically."""
    perms = all_permutations(4)
    covers = [
        (w, w * Permutation.simple(4, i))
        for w in perms
        for i in range(1, 4)
        if (w * Permutation.simple(4, i)).length() == w.length() + 1
    ]
    assert len(covers) == 36  # exhaustive over the weak order of S4
    cases = 0
    for S in _cover_families():
        for low, high in covers:
            profile_low, shift_low = partial_shift_profile(S, low, CTX0)
            profile_high, shift_high = partial_shift_profile(S, high, CTX0)
            assert profile_low <= profile_high
            assert hypergraph_lex_compare(shift_low, shift_high) >= 0
            cases += 1
    return "cover-monotonicity", cases


def _suite_lex_minimal():
    """The full shift is the lex-least shift over the whole group."""
    w0 = Permutation.longest(4)
    cases = 0
    for S in _cover_families():
        full = partial_shift(S, w0, CTX0)
        for w in all_permutations(4):
            assert hypergraph_lex_compare(full, partial_shift(S, w, CTX0)) <= 0
            cases += 1
    return "lex-minimal", cases


def _suite_graph_acyclicity():
    """Every computed shift graph with n <= 5 is acyclic."""
    params = [
        (3, 2, 1), (3, 2, 2), (3, 2, 3),
        (4, 2, 1), (4, 2, 2), (4, 2, 3), (4, 2, 4),
        (4, 3, 1), (4, 3, 2), (4, 3, 3),
        (5, 2, 1), (5, 2, 2),
    ]
    graphs = [build_shift_graph(n, k, m, CTX0) for n, k, m in params]
    graphs.append(_run("psg-4-2-5").objects["graph"])
    graphs.append(build_shift_graph(4, 2, 2, CTX2))
    nodes = 0
    for graph in graphs:
        acyclic, _ = is_acyclic(graph)
        assert acyclic
        nodes += len(graph.nodes)
    return "graph-acyclicity", len(graphs)


def _random_additive_pair(gen, n):
    """Split a random reduced word; prefix and suffix multiply additively."""
    while True:
        target = gen.choice(_perms(n))
        word = reduced_word(target)
        if len(word) >= 2:
            cut = gen.randint(1, len(word) - 1)
            v = Permutation.from_word(n, word[:cut])
            w = Permutation.from_word(n, word[cut:])
            assert (v * w).length() == v.length() + w.length()
            return v, w


def _suite_matroid_stability():
    """Additive cell products and the straight cell shift the same way."""
    gen = rng("acc-matroid")
    cases = 0
    while cases < 1000:
        n = gen.choice([4, 4, 5])
        v, w = _random_additive_pair(gen, n)
        k = gen.randint(1, n - 1)
        m = gen.randint(1, min(3, len(k_subsets(n, k))))
        S = _random_family(gen, n, k, m)
        product = matrix_product(cell_representative(v), twist(cell_representative(w), v))
        assert exterior_shift(product, S, CTX0) == partial_shift(S, v * w, CTX0)
        cases += 1
    return "matroid-stability", cases


def _random_near_cone(gen) -> SimplicialComplex:
    n = gen.randint(3, 6)
    pool = list(itertools.combinations(range(2, n + 1), gen.randint(1, n - 1)))
    base_facets = gen.sample(pool, gen.randint(1, len(pool)))
    base = SimplicialComplex.from_facets(n, base_facets)
    coned = [sorted({1, *f}) for f in base_facets]
    extras = [
        list(cand)
        for cand in itertools.combinations(range(2, n + 1), base.dim + 2)
        if all(
            subset_mask(n, cand[:i] + cand[i + 1 :]) in base.faces for i in range(len(cand))
        )
        and gen.random() < 0.6
    ]
    K = SimplicialComplex.from_facets(n, coned + extras)
    assert is_near_cone(K)
    return K


def _suite_near_cone_betti():
    """Face counting on near cones equals boundary-matrix homology."""
    gen = rng("acc-near-cone")
    cases = 0
    while cases < 1000:
        K = _random_near_cone(gen)
        counted = near_cone_betti(K).values
        assert counted == betti_numbers(K, 0).values
        assert counted == betti_numbers(K, 2).values
        cases += 1
    return "near-cone-betti", cases


def _suite_f_vector():
    """Face counts survive every permutation shift."""
    gen = rng("acc-fvector")
    complexes = random_complexes(125, n=5, dim=2, seed=21)
    perms = _perms(5)
    cases = 0
    for K in complexes:
        for w in gen.sample(perms, 8):
            assert shift_complex(K, w, CTX0).f_vector() == K.f_vector()
            cases += 1
    return "f-vector", cases


def _suite_certified_preservation():
    """Certified permutations yield near cones with unchanged Betti numbers."""
    gen = rng("acc-certified")
    cases = 0
    char2_budget = 100
    for n, count, seed in ((5, 100, 31), (6, 25, 32)):
        certified = [w for w in all_permutations(n) if preserves_betti_certificate(w)]
        for K in random_complexes(count, n=n, dim=2, seed=seed):
            base = betti_numbers(K, 0).values
            for w in gen.sample(certified, 8):
                image = shift_complex(K, w, CTX0)
                assert is_near_cone(image)
                assert betti_numbers(image, 0).values == base
                if char2_budget > 0:
                    char2_budget -= 1
                    image2 = shift_complex(K, w, CTX2)
                    assert is_near_cone(image2)
                    assert betti_numbers(image2, 2).values == betti_numbers(K, 2).values
                cases += 1
    return "certified-preservation", cases


def test_criterion_7_property_suites():
    with criterion(7) as info:
        results = [
            _suite_cardinality(),
            _suite_invariance(),
            _suite_functoriality(),
            _suite_simple_cells(),
            _suite_fixed_points(),
            _suite_cover_monotonicity(),
            _suite_lex_minimal(),
            _suite_graph_acyclicity(),
            _suite_matroid_stability(),
            _suite_near_cone_betti(),
            _suite_f_vector(),
            _suite_certified_preservation(),
        ]
        total = sum(count for _, count in results)
        info["detail"] = f"12 suites, {total} cases: " + ", ".join(
            f"{name} {count}" for name, count in results
        )


def test_criterion_8_backend_cross_validation():
    with criterion(8) as info:
        pairs = 0
        for n in (2, 3, 4):
            perms = _perms(n)
            for k in range(1, n + 1):
                cols = k_subsets(n, k)
                for m in range(1, min(4, len(cols)) + 1):
                    for combo in itertools.combinations(cols, m):
                        S = UniformHypergraph(n, k, combo)
                        for w in perms:
                            assert partial_shift(S, w, SYM) == partial_shift(S, w, CTX0)
                            pairs += 1
        # five independent seeds on the projective-plane shift family
        witnessed = []
        w_specs = [entry["one_line"] for entry in golden_data()["projective_plane_partial_shifts"]]
        RP = _projective_plane()
        for seed in range(5):
            ctx0 = make_field_context(0, Backend.RANDOMIZED, seed=seed)
            ctx2 = make_field_context(2, Backend.RANDOMIZED, seed=seed)
            outcome = tuple(
                shift_complex(RP, Permutation(tuple(spec)), ctx0).facets_as_tuples()
                for spec in w_specs
            ) + (shift_complex(RP, Permutation.longest(6), ctx2).facets_as_tuples(),)
            witnessed.append(outcome)
        seed_pairs = list(itertools.combinations(range(5), 2))
        for a, b in seed_pairs:
            assert witnessed[a] == witnessed[b], f"seeds {a} and {b} disagree"
        info["detail"] = (
            f"symbolic == randomized on {pairs} exhaustive (family, permutation) "
            f"pairs with n <= 4, m <= 4; {len(seed_pairs)} seed pairs agree on the "
            "projective-plane shift family"
        )


def test_criterion_9_conjecture_scan():
    with criterion(9) as info:
        complexes = [_projective_plane(), *random_complexes(100, n=5, dim=2, seed=0)]
        graph = _run("psg-4-2-5").objects["graph"]
        contracted = _run("contracted-closures").objects["contracted"]
        prebuilt = [contract(graph, CTX0), contracted[0], contracted[2]]
        report = conjecture_scan(complexes, CTX0, prebuilt_graphs=prebuilt)
        assert all(g.acyclic for g in report.graphs), report.to_json()
        assert not has_violations(report), report.to_json()
        shifts = sum(c.permutations_checked for c in report.complexes)
        info["detail"] = (
            f"monotonicity: {len(report.complexes)} complexes, {shifts} shifts, "
            f"zero violations; acyclicity: {len(report.graphs)} contracted graphs, "
            "all acyclic"
        )
