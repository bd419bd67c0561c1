"""Core shifting: compounds, exterior and partial shifts, Bruhat cells."""

import hashlib
import itertools
import math
from fractions import Fraction

import pytest

from conftest import (
    RP2_FACETS,
    ZZ,
    frac_minor,
    frac_pivots,
    frac_pivots_mod,
    int_matmul,
    random_invertible,
    random_unit_upper,
    rng,
)
from lemmas import (
    bruhat_cell,
    coset_normalize,
    hypergraph_lex_compare,
    identity_matrix,
    matrix_difference,
    per_cell,
    product_defect,
    twist,
)
from shiftlab import (
    Backend,
    MathPreconditionError,
    MatrixNotInvertibleError,
    MultiPoly,
    Permutation,
    PrimeField,
    SimplicialComplex,
    UniformHypergraph,
    all_partial_shifts,
    all_permutations,
    betti_numbers,
    cell_representative,
    cell_unipotent,
    combinatorial_shift,
    combinatorial_shift_matrix,
    compound_rows,
    exterior_shift,
    exterior_shift_profile,
    full_shift,
    generic_matrix,
    generic_unipotent,
    is_shifted,
    k_subsets,
    make_field_context,
    matrix_from_entries,
    matrix_product,
    matrix_rank,
    partial_shift,
    partial_shift_profile,
    permutation_matrix,
    random_complexes,
    shift_complex,
    shift_complex_all_cells,
    subset_elements,
    subset_mask,
    vandermonde_matrix,
)
from shiftlab import reproduce, shiftcore
from shiftlab.field import EvalPoint, PolynomialRing, ProfileState, gf_extension


def _hg(n, k, edges):
    return UniformHypergraph.from_edges(n, k, edges)


def _compound_minors(mat, S):
    return [
        [
            int(frac_minor(mat, [i - 1 for i in subset_elements(e)], [j - 1 for j in cols]))
            for cols in map(subset_elements, k_subsets(S.n, S.k))
        ]
        for e in S.edges
    ]


def _all_hypergraphs(n, k, ms):
    subsets = k_subsets(n, k)
    for m in ms:
        for combo in itertools.combinations(subsets, m):
            yield UniformHypergraph(n, k, combo)


SYM = make_field_context(0, Backend.SYMBOLIC)
SYM2 = make_field_context(2, Backend.SYMBOLIC)
RND = make_field_context(0, Backend.RANDOMIZED, seed=0)
RND2 = make_field_context(2, Backend.RANDOMIZED, seed=0)


# ------------------------------------------------------------- compounds


def _leibniz_det(entries):
    n = len(entries)
    total = MultiPoly.zero()
    for perm in itertools.permutations(range(n)):
        sign = 1
        for a in range(n):
            for b in range(a + 1, n):
                if perm[a] > perm[b]:
                    sign = -sign
        term = MultiPoly.const(sign)
        for i in range(n):
            term = term * entries[i][perm[i]]
        total = total + term
    return total


def test_compound_entries_are_minors():
    g = generic_matrix(4)
    S = _hg(4, 2, [[1, 2], [2, 4]])
    comp = compound_rows(g, S)
    assert comp.columns == k_subsets(4, 2)
    assert len(comp.rows) == S.m and len(comp.rows[0]) == 6
    for r, edge in enumerate(S.edges):
        for c, col in enumerate(comp.columns):
            sub = [
                [g.entries[i - 1][j - 1] for j in subset_elements(col)]
                for i in subset_elements(edge)
            ]
            assert comp.rows[r][c] == _leibniz_det(sub)


def test_compound_of_unipotent_times_antidiagonal():
    # leading entry of the rows {1,2} x columns {1,2} block; right-multiplying
    # by the antidiagonal reverses the columns of the unipotent factor
    n = 4
    mat = matrix_product(generic_unipotent(n), permutation_matrix(Permutation.longest(n)))
    S = _hg(n, 2, [[1, 2], [2, 3]])
    x = MultiPoly.variable
    entry = compound_rows(mat, S).rows[0][0]
    assert entry == x(1, 4) * x(2, 3) - x(1, 3) * x(2, 4)
    assert entry.reduce_mod(2) == (x(1, 3) * x(2, 4) + x(1, 4) * x(2, 3)).reduce_mod(2)


def test_compound_functoriality_at_points():
    # minors of a product expand through all middle column choices
    gen = rng("cauchy-binet")
    for n, k in [(3, 2), (4, 2), (4, 3), (5, 2)]:
        a = random_invertible(n, gen, bound=5)
        b = random_invertible(n, gen, bound=5)
        ab = int_matmul(a, b)
        rows_idx = gen.sample(range(n), k)
        subsets = list(itertools.combinations(range(n), k))
        for cols in subsets:
            direct = frac_minor(ab, rows_idx, cols)
            expanded = sum(
                frac_minor(a, rows_idx, mid) * frac_minor(b, mid, cols)
                for mid in subsets
            )
            assert direct == expanded


def test_wedge_rows_share_prefixes_and_skip_zero_entries():
    products = []

    class Counting(PrimeField):
        def mul(self, a, b):
            products.append((a, b))
            return super().mul(a, b)

    dom = Counting(101)
    gen = rng("wedge-rows")
    together = alone = 0
    for _ in range(30):
        n = gen.randint(2, 6)
        k = gen.randint(1, min(4, n))
        mat = [[gen.randrange(101) if gen.random() < 0.6 else 0 for _ in range(n)]
               for _ in range(n)]
        subsets = list(itertools.combinations(range(1, n + 1), k))
        S = _hg(n, k, gen.sample(subsets, min(5, len(subsets))))
        del products[:]
        wedges = shiftcore._wedge_rows(mat, S.edges, dom)
        together += len(products)
        # only nonzero entries and coefficients are multiplied
        assert all(a % 101 and b % 101 for a, b in products)
        del products[:]
        assert wedges == [shiftcore._wedge_rows(mat, [e], dom)[0] for e in S.edges]
        alone += len(products)
        for edge, wedge in zip(S.edges, wedges):
            rows = [i - 1 for i in subset_elements(edge)]
            for col in k_subsets(n, k):
                minor = frac_minor(mat, rows, [j - 1 for j in subset_elements(col)])
                assert wedge.get(col, 0) % 101 == minor % 101
    # edges of a layer in lex order wedge each shared prefix once
    assert together < alone


def test_wedge_rows_pass_unit_entries_on_without_a_product():
    # entries 1 and -1, zeros and larger values, on a matrix whose rows each
    # hold a 1: compound rows are the minors over GF(5) and over the
    # polynomial ring
    mat = [
        [1, 0, 2, 1, 0],
        [3, 1, 0, -1, 1],
        [0, 1, 1, 0, 4],
        [1, -2, 0, 1, 1],
        [0, 1, 7, 1, 1],
    ]
    for k in (2, 3):
        S = _hg(5, k, list(itertools.combinations(range(1, 6), k))[::2])
        minors = _compound_minors(mat, S)
        wedges = shiftcore._wedge_rows(mat, S.edges, PrimeField(5))
        cols = k_subsets(5, k)
        assert [[w.get(c, 0) for c in cols] for w in wedges] == [
            [m % 5 for m in row] for row in minors
        ]
        rows = compound_rows(matrix_from_entries(mat), S).rows
        assert [list(row) for row in rows] == [
            [MultiPoly.const(m) for m in row] for row in minors
        ]
    # with a variable beside the units, against the Leibniz expansion
    x = MultiPoly.variable
    g = matrix_from_entries([[1, x(1, 2), 0], [x(2, 1), 1, 1], [1, 0, x(3, 3)]])
    S = _hg(3, 2, [[1, 2], [1, 3], [2, 3]])
    for edge, row in zip(S.edges, compound_rows(g, S).rows):
        for col, entry in zip(k_subsets(3, 2), row):
            sub = [
                [g.entries[i - 1][j - 1] for j in subset_elements(col)]
                for i in subset_elements(edge)
            ]
            assert entry == _leibniz_det(sub)


def test_wedge_rows_of_the_w0_representative_skip_unit_products(monkeypatch):
    # every row of the w0 representative holds a 1; multiplying by it too,
    # the wedge of the RP^2 top layer makes 235 ring products
    calls, mul = [0], PolynomialRing.mul

    def counting_mul(ring, a, b):
        calls[0] += 1
        return mul(ring, a, b)

    g = cell_representative(Permutation.longest(6))
    cols = k_subsets(6, 3)
    for char in (0, 2):
        dom = shiftcore._symbolic_ring(g, [RP2_TOP], char)
        entries = [[dom.pack(e) for e in row] for row in g.entries]
        calls[0] = 0
        monkeypatch.setattr(PolynomialRing, "mul", counting_mul)
        wedges = shiftcore._wedge_rows(entries, RP2_TOP.edges, dom)
        monkeypatch.setattr(PolynomialRing, "mul", mul)
        assert 0 < calls[0] < 140
        assert [[dom.unpack(w.get(col, {})) for col in cols] for w in wedges] == [
            [e.reduce_mod(char) for e in row] for row in compound_rows(g, RP2_TOP).rows
        ]


# --------------------------------------------------------- basic shifts


def test_identity_and_diagonal_matrices_do_not_shift():
    gen = rng("diag")
    for _ in range(20):
        S = _hg(4, 2, gen.sample([p for p in itertools.combinations(range(1, 5), 2)], 3))
        assert exterior_shift(identity_matrix(4), S, RND) == S
        diag = [[0] * 4 for _ in range(4)]
        for i in range(4):
            diag[i][i] = gen.choice([1, 2, -3, 5])
        assert exterior_shift(matrix_from_entries(diag), S, RND) == S


def test_exterior_shift_matches_fraction_oracle_on_concrete_matrices():
    gen = rng("shift-oracle")
    for _ in range(25):
        n = gen.randint(3, 5)
        k = gen.randint(1, n - 1)
        subsets = list(itertools.combinations(range(1, n + 1), k))
        S = _hg(n, k, gen.sample(subsets, gen.randint(1, min(4, len(subsets)))))
        mat = random_invertible(n, gen, bound=4)
        _, pivots = frac_pivots(_compound_minors(mat, S))
        want = UniformHypergraph(n, k, tuple(k_subsets(n, k)[j] for j in pivots))
        g = matrix_from_entries(mat)
        for ctx in (SYM, RND):
            assert exterior_shift(g, S, ctx) == want


def test_exterior_shift_matches_oracle_in_characteristic_p():
    gen = rng("shift-oracle-p")
    for p, ctx_sym, ctx_rnd in [(2, SYM2, RND2)]:
        for _ in range(20):
            n = 4
            subsets = list(itertools.combinations(range(1, n + 1), 2))
            S = _hg(n, 2, gen.sample(subsets, 3))
            mat = random_invertible(n, gen, bound=3)
            if frac_pivots_mod([row[:] for row in mat], p)[0][-1] < n:
                continue  # singular after reduction; a different matrix next time
            _, pivots = frac_pivots_mod(_compound_minors(mat, S), p)
            want = UniformHypergraph(n, 2, tuple(k_subsets(n, 2)[j] for j in pivots))
            g = matrix_from_entries(mat)
            assert exterior_shift(g, S, ctx_sym) == want
            assert exterior_shift(g, S, ctx_rnd) == want


def test_shift_cardinality_and_shiftedness():
    gen = rng("cardinality")
    for _ in range(30):
        n = gen.randint(3, 5)
        k = gen.randint(1, n - 1)
        subsets = list(itertools.combinations(range(1, n + 1), k))
        S = _hg(n, k, gen.sample(subsets, gen.randint(1, len(subsets))))
        shifted = full_shift(S, RND)
        assert shifted.m == S.m
        assert is_shifted(shifted)
        assert full_shift(shifted, RND) == shifted  # idempotent


def test_singular_matrices_are_rejected_by_both_backends():
    S = _hg(3, 2, [[1, 2], [1, 3]])
    sing = matrix_from_entries([[1, 1, 1], [1, 1, 1], [0, 0, 1]])
    for ctx in (SYM, RND):
        with pytest.raises(MatrixNotInvertibleError):
            exterior_shift(sing, S, ctx)


def test_profile_shape_and_pivot_consistency():
    gen = rng("profile")
    for _ in range(20):
        S = _hg(4, 2, gen.sample(list(itertools.combinations(range(1, 5), 2)), 3))
        w = gen.choice(list(all_permutations(4)))
        ranks, shifted = partial_shift_profile(S, w, RND)
        assert ranks[0] == 0 and ranks[-1] == S.m
        assert all(0 <= b - a <= 1 for a, b in zip(ranks, ranks[1:]))
        jump_cols = [j for j in range(1, len(ranks)) if ranks[j] > ranks[j - 1]]
        assert [k_subsets(4, 2)[j - 1] for j in jump_cols] == list(shifted.edges)
        assert partial_shift(S, w, RND) == shifted


def test_profile_of_layers_that_shift_to_themselves():
    # the rank sequence of an empty or complete layer is read off its edges
    empty, complete = UniformHypergraph(4, 2, ()), UniformHypergraph(4, 2, k_subsets(4, 2))
    plain = matrix_from_entries([[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [3, 0, 0, 1]])
    for g in (generic_matrix(4), plain):  # no elimination, then elimination
        for ctx in (SYM, RND, RND2):
            assert exterior_shift_profile(g, empty, ctx) == ((0,) * 7, empty)
            assert exterior_shift_profile(g, complete, ctx) == (tuple(range(7)), complete)


def test_randomized_shift_is_seed_independent_here():
    S = _hg(5, 2, [[1, 4], [2, 5], [3, 4], [4, 5]])
    results = {
        full_shift(S, make_field_context(0, Backend.RANDOMIZED, seed=s))
        for s in range(5)
    }
    assert len(results) == 1


# ------------------------------------------------- named matrix builders


def test_generic_matrix_layout():
    g = generic_matrix(3)
    for i in range(3):
        for j in range(3):
            assert g.entries[i][j] == MultiPoly.variable(i + 1, j + 1)
    assert g.variables == frozenset((i, j) for i in range(1, 4) for j in range(1, 4))
    assert g.degree_bound == 1


def test_generic_unipotent_layout():
    g = generic_unipotent(3)
    assert g.unit_determinant
    for i in range(3):
        for j in range(3):
            if i < j:
                assert g.entries[i][j] == MultiPoly.variable(i + 1, j + 1)
            elif i == j:
                assert g.entries[i][j] == MultiPoly.const(1)
            else:
                assert g.entries[i][j].is_zero


def test_vandermonde_matrix_layout():
    g = vandermonde_matrix(3)
    x = MultiPoly.variable
    for i in range(3):
        for j in range(3):
            assert g.entries[i][j] == x(1, j + 1) ** (i + 1)
    assert g.known_invertible


def test_cell_representative_structure():
    for w in all_permutations(4):
        rep = cell_representative(w)
        uni = cell_unipotent(w)
        walked = frozenset().union(*(e.variables() for row in rep.entries for e in row))
        assert walked == w.inversions() == uni.variables
        assert len(rep.variables) == w.length()
        prod = matrix_product(uni, permutation_matrix(w))
        assert rep.entries == prod.entries
        # ones on the permutation support
        for i in range(1, 5):
            assert rep.entries[i - 1][w.apply(i) - 1] == MultiPoly.const(1)
    # extremes: identity cell is the identity matrix, longest is full unipotent
    assert cell_representative(Permutation.identity(4)).entries == identity_matrix(4).entries
    w0 = Permutation.longest(4)
    assert (
        matrix_product(generic_unipotent(4), permutation_matrix(w0)).entries
        == cell_representative(w0).entries
    )


def test_cell_representative_supplies_what_a_walk_finds():
    # cell_representative states deg, variables and 1-norm from w; the same
    # entries in a fresh matrix walk them
    for n in range(1, 7):
        for w in all_permutations(n):
            rep = cell_representative(w)
            walked = shiftcore.GenericMatrix(n, rep.entries, unit_determinant=True)
            assert "variables" not in vars(walked)
            for name in ("degree_bound", "variables", "coefficient_norm"):
                assert getattr(rep, name) == getattr(walked, name), (w, name)


def _assignment(variables, dom, gen):
    return {var: dom.sample(gen.randrange(dom.size)) for var in sorted(variables)}


def test_evaluate_matrix_equals_multipoly_evaluate():
    x = MultiPoly.variable
    t = Permutation.transposition(4, 1, 3)
    scaled = matrix_from_entries([[2, 0, 1], [0, -1, 0], [3, 0, 5]])
    matrices = [cell_representative(w) for w in all_permutations(4)] + [
        generic_matrix(3),
        vandermonde_matrix(4),
        combinatorial_shift_matrix(t),
        matrix_product(generic_matrix(3), scaled),
        matrix_from_entries([[2 * x(1, 1), -x(1, 2)], [x(2, 1) + 1, 7]]),
    ]
    gen = rng("evaluate-matrix")
    domains = [PrimeField(2**61 - 1), gf_extension(2, 2**8, 1), gf_extension(3, 3**3, 1)]
    assert [repr(d) for d in domains] == ["GF(2305843009213693951)", "GF(2^8)", "GF(3^3)"]
    unassigned = [generic_matrix(2), matrix_product(generic_matrix(2), generic_matrix(2))]
    for dom in domains:
        for g in matrices:
            point = EvalPoint(_assignment(g.variables, dom, gen), dom)
            got = shiftcore.evaluate_matrix(g, point)
            assert got == [
                [e.evaluate(point.assignment, dom) for e in row] for row in g.entries
            ]
        # an unassigned variable is a precondition error, lone or not
        for g in unassigned:
            point = EvalPoint(_assignment(g.variables - {(2, 1)}, dom, gen), dom)
            with pytest.raises(MathPreconditionError):
                shiftcore.evaluate_matrix(g, point)


def test_simple_cell_equals_combinatorial_shift_matrix():
    for n in (3, 4, 5):
        for i in range(1, n):
            s = Permutation.simple(n, i)
            assert cell_representative(s).entries == combinatorial_shift_matrix(s).entries
    with pytest.raises(MathPreconditionError):
        combinatorial_shift_matrix(Permutation.cycle(4))


def test_matrix_builders_validate_input():
    with pytest.raises(MathPreconditionError):
        matrix_from_entries([[1, 2], [3]])
    with pytest.raises(MathPreconditionError):
        matrix_product(identity_matrix(2), identity_matrix(3))
    with pytest.raises(MathPreconditionError):
        matrix_difference(identity_matrix(2), identity_matrix(3))


def _drawn_points(monkeypatch) -> list:
    """The assignment of every point ``shiftcore`` draws from now on."""
    points, sample = [], shiftcore.sample_eval_point

    def recording_sample(*args):
        point = sample(*args)
        points.append(point.assignment)
        return point

    monkeypatch.setattr(shiftcore, "sample_eval_point", recording_sample)
    shiftcore._partial_shift_cached.cache_clear()
    return points


def test_matrices_differing_in_one_entry_draw_different_points(monkeypatch):
    points = _drawn_points(monkeypatch)
    S = _hg(3, 2, [[1, 2], [2, 3]])
    rows = [list(row) for row in generic_matrix(3).entries]
    rows[2][2] = rows[2][2] + MultiPoly.const(1)
    for g in (generic_matrix(3), generic_matrix(3), matrix_from_entries(rows)):
        exterior_shift(g, S, RND2)
    assert len(points) == 3 and points[0].keys() == points[2].keys()
    assert points[0] == points[1] != points[2]


def test_one_family_draws_the_same_point_through_every_entry(monkeypatch):
    # a point is keyed by the matrix and the layers alone, not by the
    # function that asked for it
    points = _drawn_points(monkeypatch)
    S, w = RP2_TOP, Permutation((3, 6, 1, 5, 2, 4))
    g = generic_matrix(6)
    assert exterior_shift(g, S, RND2) == shiftcore.shift_layers(g, [S], RND2)[0]
    rep = cell_representative(w)
    assert partial_shift(S, w, RND2) == shiftcore.shift_layers(rep, [S], RND2)[0]
    assert len(points) == 4
    assert points[0] == points[1] and points[2] == points[3]
    assert points[0] != points[2]


# --------------------------------------------------- combinatorial shift


def _comb_shift_oracle(S, i, j):
    """Replace j by i in every edge whose image is not already present."""
    present = {subset_elements(e) for e in S.edges}
    out = []
    for e in S.edges:
        elems = set(subset_elements(e))
        if j in elems and i not in elems:
            image = tuple(sorted((elems - {j}) | {i}))
            out.append(image if image not in present else subset_elements(e))
        else:
            out.append(subset_elements(e))
    return UniformHypergraph.from_edges(S.n, S.k, out)


def test_combinatorial_shift_matches_replacement_oracle_exhaustive():
    transpositions = [
        Permutation.transposition(4, a, b)
        for a, b in itertools.combinations(range(1, 5), 2)
    ]
    for S in _all_hypergraphs(4, 2, range(0, 7)):
        for t in transpositions:
            a, b = t.as_transposition()
            got = combinatorial_shift(S, t)
            assert got == _comb_shift_oracle(S, a, b)
            assert got.m == S.m
            assert combinatorial_shift(got, t) == got  # idempotent


def test_combinatorial_shift_replaces_one_element():
    # (1 4) trades 4 for 1 in {2,4}; {1,4} holds both and {2,3} neither, and
    # {3,4} stays because its image {1,3} is already an edge
    S = _hg(5, 2, [[2, 4], [1, 4], [2, 3], [3, 4], [1, 3]])
    shifted = combinatorial_shift(S, Permutation.transposition(5, 1, 4))
    assert shifted.edge_lists() == [[1, 2], [1, 3], [1, 4], [2, 3], [3, 4]]


def test_combinatorial_shift_requires_a_transposition():
    S = _hg(4, 2, [[1, 2]])
    with pytest.raises(MathPreconditionError):
        combinatorial_shift(S, Permutation.cycle(4))


def test_simple_cell_shift_equals_combinatorial_on_larger_ground_set():
    gen = rng("simple-cells-5")
    subsets = list(itertools.combinations(range(1, 6), 2))
    for _ in range(25):
        S = _hg(5, 2, gen.sample(subsets, gen.randint(1, 4)))
        i = gen.randint(1, 4)
        t = Permutation.simple(5, i)
        want = combinatorial_shift(S, t)
        assert partial_shift(S, t, RND) == want
        assert exterior_shift(combinatorial_shift_matrix(t), S, RND) == want


def test_shifted_iff_fixed_by_all_simple_shifts_exhaustive():
    for S in _all_hypergraphs(4, 2, range(0, 7)):
        fixed = all(
            combinatorial_shift(S, Permutation.simple(4, i)) == S for i in range(1, 4)
        )
        assert fixed == is_shifted(S)


# ------------------------------------------------------ worked profiles


def test_three_edge_profile_drops_along_a_cover():
    # S = {12, 14, 23}; the length-3 word s2 s3 s2 against its extension by
    # s1 on the right: the rank sequence rises lexicographically and the
    # shifted hypergraph drops
    S = _hg(4, 2, [[1, 2], [1, 4], [2, 3]])
    w = Permutation.from_word(4, [2, 3, 2])
    ws1 = w * Permutation.simple(4, 1)
    assert ws1.length() == w.length() + 1
    for ctx in (SYM, RND):
        ranks_w, shift_w = partial_shift_profile(S, w, ctx)
        ranks_ws1, shift_ws1 = partial_shift_profile(S, ws1, ctx)
        assert ranks_w == (0, 1, 2, 2, 3, 3, 3)
        assert ranks_ws1 == (0, 1, 2, 3, 3, 3, 3)
        assert shift_w.edge_lists() == [[1, 2], [1, 3], [2, 3]]
        assert shift_ws1.edge_lists() == [[1, 2], [1, 3], [1, 4]]
        assert ranks_w <= ranks_ws1  # lexicographic on tuples
        assert hypergraph_lex_compare(shift_w, shift_ws1) > 0


def test_partial_shift_equals_shift_by_cell_representative():
    gen = rng("partial-vs-cell")
    subsets = list(itertools.combinations(range(1, 5), 2))
    for _ in range(20):
        S = _hg(4, 2, gen.sample(subsets, 3))
        w = gen.choice(list(all_permutations(4)))
        assert partial_shift(S, w, RND) == exterior_shift(cell_representative(w), S, RND)
    S = _hg(4, 2, [[2, 3], [2, 4]])
    assert partial_shift(S, Permutation.identity(4), RND) == S
    assert full_shift(S, RND) == partial_shift(S, Permutation.longest(4), RND)
    with pytest.raises(MathPreconditionError):
        partial_shift(S, Permutation.identity(5), RND)


def test_full_shift_is_lex_smallest_among_partial_shifts_small():
    gen = rng("lex-min")
    subsets = list(itertools.combinations(range(1, 5), 2))
    for _ in range(8):
        S = _hg(4, 2, gen.sample(subsets, gen.randint(2, 4)))
        best = full_shift(S, RND)
        for w in all_permutations(4):
            assert hypergraph_lex_compare(best, partial_shift(S, w, RND)) <= 0


# --------------------------------------------------------- Bruhat cells


def test_bruhat_cell_of_permutation_matrices_exhaustive():
    for n in (1, 2, 3, 4, 5):
        for w in all_permutations(n):
            assert bruhat_cell([list(r) for r in w.matrix()]) == w


def test_bruhat_cell_invariant_under_triangular_factors():
    gen = rng("bruhat-bwb")
    fld = PrimeField(101)
    perms = list(all_permutations(4))
    for _ in range(40):
        w = gen.choice(perms)
        b1 = random_unit_upper(4, gen, bound=50)
        b2 = random_unit_upper(4, gen, bound=50)
        prod = int_matmul(int_matmul(b1, [list(r) for r in w.matrix()]), b2)
        reduced = [[fld.from_int(x) for x in row] for row in prod]
        assert bruhat_cell(reduced, domain=fld) == w


def test_bruhat_cell_of_evaluated_representatives():
    gen = rng("bruhat-eval")
    for w in all_permutations(4):
        rep = cell_representative(w)
        assignment = {v: gen.randint(2, 97) for v in rep.variables}
        concrete = [
            [entry.evaluate(assignment, ZZ) for entry in row] for row in rep.entries
        ]
        assert bruhat_cell(concrete) == w


def test_bruhat_cell_rejects_bad_input():
    with pytest.raises(MathPreconditionError):
        bruhat_cell([[1, 2], [3]])
    with pytest.raises(MatrixNotInvertibleError):
        bruhat_cell([[1, 1], [1, 1]])


def test_coset_normalize_reassembles_exactly():
    gen = rng("coset")
    perms = list(all_permutations(4))
    for _ in range(30):
        w = gen.choice(perms)
        u = random_unit_upper(4, gen, bound=6)
        for i in range(4):
            u[i][i] = 1  # unipotent
        u1, u2 = coset_normalize([row[:] for row in u], w, ZZ)
        pw = [list(r) for r in w.matrix()]
        assert int_matmul(u, pw) == int_matmul(int_matmul(u1, pw), u2)
        inv = w.inversions()
        for i in range(4):
            assert u1[i][i] == 1 and u2[i][i] == 1
            for j in range(4):
                if i > j:
                    assert u1[i][j] == 0 and u2[i][j] == 0
                elif i < j and (i + 1, j + 1) not in inv:
                    assert u1[i][j] == 0


def test_coset_normalize_validates_shape():
    w = Permutation.identity(3)
    with pytest.raises(MathPreconditionError):
        coset_normalize([[2, 0, 0], [0, 1, 0], [0, 0, 1]], w, ZZ)  # not unipotent
    with pytest.raises(MathPreconditionError):
        coset_normalize([[1, 0, 0], [1, 1, 0], [0, 0, 1]], w, ZZ)  # lower entry
    with pytest.raises(MathPreconditionError):
        coset_normalize([[1, 0], [0, 1]], w, ZZ)  # wrong size


# ------------------------------------------------------ product structure


def test_twist_is_conjugation_on_the_generic_matrix():
    for v in all_permutations(4):
        g = generic_matrix(4)
        left = matrix_product(
            permutation_matrix(v.inverse()), matrix_product(g, permutation_matrix(v))
        )
        assert twist(g, v).entries == left.entries
    with pytest.raises(MathPreconditionError):
        twist(generic_matrix(3), Permutation.identity(4))


def test_product_defect_requires_additive_lengths():
    s1, s2 = Permutation.simple(4, 1), Permutation.simple(4, 2)
    with pytest.raises(MathPreconditionError):
        product_defect(s1, s1)  # s1 * s1 = e, lengths collapse
    with pytest.raises(MathPreconditionError):
        product_defect(s1, Permutation.simple(3, 1))


def test_product_defect_values():
    s1, s2, s3 = (Permutation.simple(4, i) for i in (1, 2, 3))
    # non-chaining inversions: the cell of the product is the plain product
    for v, w in [(s1, s3), (s1, s2), (s2, s3)]:
        defect = product_defect(v, w)
        assert all(e.is_zero for row in defect.entries for e in row)
    # chained inversions produce the quadratic correction term: here the
    # inversion (2,3) of v feeds the inversion (2,4) of w
    v, w = s2, Permutation((1, 3, 4, 2))
    assert (v * w).length() == v.length() + w.length()
    defect = product_defect(v, w)
    nonzero = {
        (i + 1, j + 1)
        for i in range(4)
        for j in range(4)
        if not defect.entries[i][j].is_zero
    }
    assert nonzero == {(2, 2)}
    x = MultiPoly.variable
    assert defect.entries[1][1] == x(2, 3) * x(3, 4)
    # another chained pair: v = s1 s2 feeds w = s1, correcting entry (1,1)
    v, w = s1 * s2, s1
    assert (v * w).length() == v.length() + w.length()
    defect = product_defect(v, w)
    nonzero = {
        (i + 1, j + 1)
        for i in range(4)
        for j in range(4)
        if not defect.entries[i][j].is_zero
    }
    assert nonzero == {(1, 1)}
    assert defect.entries[0][0] == x(1, 2) * x(2, 3)


def test_product_defect_numeric_consistency():
    gen = rng("defect-eval")
    perms = list(all_permutations(4))
    found = 0
    while found < 12:
        v, w = gen.choice(perms), gen.choice(perms)
        if (v * w).length() != v.length() + w.length():
            continue
        found += 1
        defect = product_defect(v, w)
        left = matrix_product(cell_representative(v), twist(cell_representative(w), v))
        joint = cell_representative(v * w)
        assignment = {
            var: gen.randint(2, 50)
            for var in left.variables | joint.variables | defect.variables
        }
        for i in range(4):
            for j in range(4):
                lhs = left.entries[i][j].evaluate(assignment, ZZ)
                rhs = joint.entries[i][j].evaluate(assignment, ZZ)
                dd = defect.entries[i][j].evaluate(assignment, ZZ)
                assert lhs - rhs == dd


def test_matroid_stability_of_additive_products():
    # the product of cell representatives shifts exactly like the cell of
    # the product permutation when the lengths add
    gen = rng("matroid")
    perms = list(all_permutations(4))
    subsets = list(itertools.combinations(range(1, 5), 2))
    checked = 0
    while checked < 15:
        v, w = gen.choice(perms), gen.choice(perms)
        if (v * w).length() != v.length() + w.length():
            continue
        checked += 1
        product = matrix_product(cell_representative(v), twist(cell_representative(w), v))
        S = _hg(4, 2, gen.sample(subsets, gen.randint(2, 4)))
        assert exterior_shift(product, S, RND) == partial_shift(S, v * w, RND)


# ------------------------------------------------------ all cells at once


@pytest.mark.parametrize("char", [0, 2, 3])
def test_all_partial_shifts_match_symbolic_cells_exhaustive(char):
    # every (S, w) with n <= 4 and 1 <= m <= 4, against the per-cell oracle
    sym = make_field_context(char, Backend.SYMBOLIC)
    rnd = make_field_context(char, Backend.RANDOMIZED, seed=0)
    pairs, mismatches = 0, []
    for n in range(1, 5):
        for k in range(1, n + 1):
            ms = range(1, min(4, math.comb(n, k)) + 1)
            for S in _all_hypergraphs(n, k, ms):
                grouped = all_partial_shifts((S,), rnd)
                assert sum(map(len, grouped.values())) == math.factorial(n)
                for w, (T,) in per_cell(grouped).items():
                    pairs += 1
                    if T != partial_shift(S, w, sym):
                        mismatches.append((S.edge_lists(), w.images))
    assert (pairs, mismatches) == (2187, [])


@pytest.mark.parametrize("char", [0, 2, 3])
def test_all_partial_shifts_of_complex_layers_match_symbolic(char):
    sym = make_field_context(char, Backend.SYMBOLIC)
    rnd = make_field_context(char, Backend.RANDOMIZED, seed=0)
    shiftcore._cell_column_orders.cache_clear()
    for K in random_complexes(10, n=4, dim=2, seed=0):
        layers = all_partial_shifts(K.layers(), rnd)
        images = shift_complex_all_cells(K, rnd)
        assert all_partial_shifts(K.layers(), sym) == layers
        cells = per_cell(layers)
        for w, image in images.items():
            oracle = shift_complex(K, w, sym)
            assert image == oracle
            assert cells[w] == oracle.layers()
    # the orders of each (n, k) are built once: 14 layers that move, over
    # 20 calls, ask for the orders of (4, 1), (4, 2) and (4, 3)
    info = shiftcore._cell_column_orders.cache_info()
    assert (info.hits, info.misses, info.currsize) == (11, 3, 3)


def test_cell_column_orders_map_each_column_by_the_preimage():
    # entry t of w's row is the lex index of w^-1 applied to the t-th k-set
    for n in range(1, 7):
        for k in range(1, n + 1):
            columns = k_subsets(n, k)
            table = shiftcore._cell_column_orders.__wrapped__(n, k)
            oracle = []
            for w in all_permutations(n):
                preimage = w.inverse().apply
                images = [map(preimage, subset_elements(col)) for col in columns]
                oracle.append(tuple(columns.index(subset_mask(n, e)) for e in images))
            assert table == tuple(oracle), (n, k)


RP2_TOP = UniformHypergraph.from_edges(6, 3, RP2_FACETS)


def test_randomized_call_keys_are_pinned(monkeypatch):
    # a different key draws a different point, and the shift is the same
    # with probability >= 1 - eps either way, so no output shows a change of
    # key: the keys of a partial shift, of all cells and of a complex shift
    # at char 2 and seed 201 are pinned here
    keys = []
    sample = shiftcore.sample_eval_point
    monkeypatch.setattr(
        shiftcore, "sample_eval_point", lambda *a: keys.append(a[4]) or sample(*a)
    )
    shiftcore._partial_shift_cached.cache_clear()
    ctx = make_field_context(2, Backend.RANDOMIZED, seed=201)
    partial_shift(RP2_TOP, Permutation.longest(6), ctx)
    all_partial_shifts([RP2_TOP], ctx)
    K = SimplicialComplex.from_facets(6, RP2_FACETS)
    shift_complex(K, Permutation.cycle(6), ctx)
    # each key is g's size, the sorted terms of its entries and every layer
    matrices = [
        cell_representative(Permutation.longest(6)),
        generic_unipotent(6),
        cell_representative(Permutation.cycle(6)),
    ]
    families = [[RP2_TOP], [RP2_TOP], K.layers()]
    for key, g, layers in zip(keys, matrices, families, strict=True):
        n, terms, shifted = key
        assert n == 6 and shifted == [(S.k, S.edges) for S in layers]
        assert terms == tuple(
            tuple(tuple(sorted(e.terms.items())) for e in row) for row in g.entries
        )
    assert keys[1][2] == [(3, (19, 35, 13, 21, 41, 14, 38, 26, 52, 56))]
    assert [hashlib.sha256(repr(key).encode()).hexdigest() for key in keys] == [
        "216540d6f6549790d0a2448cb127628f4782c3e52c21d7ff39566d7f27690952",
        "6f02e877dfb755811d678fc409a19cd05246e72ed7883461be1fc0b079d73946",
        "6f3a1b54fa506a522d357c2b1a390b34aa9e50ef1d6d0f2a5005971d16fcfeba",
    ]


@pytest.mark.parametrize("char", [0, 2, 3])
def test_symbolic_w0_shift_of_rp2_top_layer_matches_randomized(char):
    # the full symbolic shift at n=6, k=3, m=10: every Bareiss step over
    # the polynomial ring in the 15 free entries of the w0 representative
    w0 = Permutation.longest(6)
    sym = make_field_context(char, Backend.SYMBOLIC)
    (shifted,) = shiftcore.shift_layers(cell_representative(w0), [RP2_TOP], sym)
    rnd = make_field_context(char, Backend.RANDOMIZED, seed=201)
    assert shifted == full_shift(RP2_TOP, rnd)
    # the first nine 3-sets, then {1,5,6}; over GF(2) the torsion of RP^2
    # shows as {2,3,4} in its place
    last = [2, 3, 4] if char == 2 else [1, 5, 6]
    first_nine = [list(subset_elements(e)) for e in k_subsets(6, 3)[:9]]
    assert shifted.edge_lists() == first_nine + [last]


@pytest.mark.parametrize("char, most", [(0, 30_000), (2, 60_000)])
def test_symbolic_w0_shift_of_rp2_top_layer_pivots_near_the_diagonal(
    monkeypatch, char, most
):
    # the compound rows enter elimination in reverse lex order, so a column
    # pivots on the lex-last edge below it in Gale order; fed in lex order,
    # the same shift multiplies 310,100 term pairs in char 0 and 567,533 in
    # char 2
    pairs, mul = [0], PolynomialRing.mul

    def counting_mul(ring, a, b):
        pairs[0] += len(a) * len(b)
        return mul(ring, a, b)

    monkeypatch.setattr(PolynomialRing, "mul", counting_mul)
    w0 = Permutation.longest(6)
    sym = make_field_context(char, Backend.SYMBOLIC)
    (shifted,) = shiftcore.shift_layers(cell_representative(w0), [RP2_TOP], sym)
    assert shifted.m == RP2_TOP.m
    assert 0 < pairs[0] < most


@pytest.mark.parametrize("char", [0, 2, 3])
def test_all_partial_shifts_group_the_cells_by_outcome(char):
    # each distinct tuple of shifted layers maps to its witnesses: the lists
    # partition S_n, each in all_permutations order, and the tuples come in
    # the order of their first witness, the identity's first
    rnd = make_field_context(char, Backend.RANDOMIZED, seed=201)
    sym = make_field_context(char, Backend.SYMBOLIC)
    rp2 = SimplicialComplex.from_facets(6, RP2_FACETS)
    (small,) = random_complexes(1, n=5, dim=2, seed=201)
    for K in (rp2, small):
        layers = tuple(K.layers())
        position = {w: i for i, w in enumerate(all_permutations(K.n))}
        grouped = all_partial_shifts(layers, rnd)
        outcomes = {tuple(shifted) for shifted in per_cell(grouped).values()}
        assert len(grouped) == len(outcomes) > 1
        assert next(iter(grouped)) == layers
        ranks = [[position[w] for w in ws] for ws in grouped.values()]
        assert all(r == sorted(set(r)) for r in ranks)
        assert sorted(i for r in ranks for i in r) == list(range(len(position)))
        assert [r[0] for r in ranks] == sorted(r[0] for r in ranks)
        assert list(all_partial_shifts(layers, sym).items()) == list(grouped.items())


def test_shift_complex_all_cells_lists_the_cells_in_enumeration_order():
    rp2 = SimplicialComplex.from_facets(6, RP2_FACETS)
    images = shift_complex_all_cells(rp2, RND2)
    assert list(images) == list(all_permutations(6))
    # the cells that move no layer give the complex itself, and the cells of
    # each other outcome share one assembled complex
    assert images[Permutation.identity(6)] is rp2
    grouped = all_partial_shifts(rp2.layers(), RND2)
    assert len({id(L) for L in images.values()}) == len(grouped)
    void = SimplicialComplex(4, frozenset())
    assert shift_complex_all_cells(void, RND2) == dict.fromkeys(all_permutations(4), void)


def test_symbolic_shifts_never_build_a_key(monkeypatch):
    # only a sampled point reads a key, and building one sorts the terms of
    # every entry of the matrix, the only sort in shiftcore
    sorts = []
    monkeypatch.setattr(
        shiftcore, "sorted", lambda *a: sorts.append(a) or sorted(*a), raising=False
    )
    shiftcore._partial_shift_cached.cache_clear()
    S, w = _hg(4, 2, [[1, 2], [2, 3], [3, 4]]), Permutation((3, 4, 1, 2))
    K = SimplicialComplex.from_facets(4, [[1, 2], [2, 3], [3, 4]])
    symbolic = partial_shift(S, w, SYM)
    assert sorts == []
    assert symbolic == partial_shift(S, w, RND)
    assert len(sorts) == 16
    symbolic = shift_complex(K, w, SYM2)
    assert len(sorts) == 16
    assert symbolic == shift_complex(K, w, RND2)
    assert len(sorts) == 32


def test_all_partial_shifts_draws_one_point_per_call(monkeypatch):
    calls = []
    sample = shiftcore.sample_eval_point
    monkeypatch.setattr(
        shiftcore, "sample_eval_point", lambda *a: calls.append(a) or sample(*a)
    )
    S, T = _hg(4, 2, [[2, 3], [2, 4]]), _hg(4, 1, [[3]])
    shifts = per_cell(all_partial_shifts((S, T), RND2))
    assert len(calls) == 1 and len(shifts) == 24
    # the budget sums d_S = k * deg U * m * C(n, k) over the layers, as for
    # shifting by one matrix: D = 2 * 2 * 6 + 1 * 1 * 4, and B = ceil(2D / eps)
    _, variables, size, _, _, attempt = calls[0]
    assert len(variables) == 6 and attempt == 0
    assert size == math.ceil(2 * (24 + 4) / RND2.epsilon)
    # empty and complete layers shift to themselves without a point
    empty, complete = UniformHypergraph(4, 2, ()), UniformHypergraph(4, 3, k_subsets(4, 3))
    assert all_partial_shifts((empty, complete), RND) == {
        (empty, complete): list(all_permutations(4))
    }
    assert len(calls) == 1
    assert shifts[Permutation.identity(4)] == [S, T]
    assert shifts[Permutation.longest(4)] == [full_shift(S, RND2), full_shift(T, RND2)]
    # a layer that shifts to itself counts in D but not in the coefficient
    # bound: the complete 3-set layer adds 3 * 4 * 4 to D, while C stays at
    # det U's 4!, below that layer's m! (k!)^m = 4! * 6^4
    calls.clear()
    all_partial_shifts((S, T, complete), RND)
    ((_, _, size, coeffs, _, _),) = calls
    assert size == math.ceil(2 * (24 + 4 + 48) / RND.epsilon)
    assert coeffs == math.factorial(4)


def test_all_partial_shifts_validates_layers():
    with pytest.raises(MathPreconditionError):
        all_partial_shifts((), RND)
    with pytest.raises(MathPreconditionError):
        all_partial_shifts((_hg(4, 2, [[1, 2]]), _hg(5, 2, [[1, 2]])), RND)


# ------------------------------------ characteristic 0 over a Mersenne prime


def _domains_of_shifts(monkeypatch) -> list:
    """The domain of every greedy that a shift runs, in call order."""
    domains = []
    kernel = shiftcore.lex_first_bases

    def spy(columns, nrows, domain, orders):
        domains.append(domain)
        return kernel(columns, nrows, domain, orders)

    monkeypatch.setattr(shiftcore, "lex_first_bases", spy)
    return domains


def test_char0_prime_keeps_a_minor_with_small_prime_content(monkeypatch):
    # over Q the shift keeps the columns {1,2} and {1,3}, decided by a 2 x 2
    # minor of the compound rows equal to -210 = -2*3*5*7; over GF(2), GF(3),
    # GF(5) and GF(7) that minor vanishes and the shift differs
    mat = [[-3, -1, -3, 3], [-2, -1, -3, 2], [3, 3, -2, 0], [-2, 3, 3, -3]]
    S = _hg(4, 2, [[2, 3], [3, 4]])
    minors = _compound_minors(mat, S)
    _, pivots = frac_pivots(minors)
    assert pivots == [0, 1]
    assert minors[0][0] * minors[1][1] - minors[0][1] * minors[1][0] == -210
    assert all(frac_pivots_mod(minors, q)[1] != pivots for q in (2, 3, 5, 7))
    domains = _domains_of_shifts(monkeypatch)
    want = UniformHypergraph(4, 2, tuple(k_subsets(4, 2)[j] for j in pivots))
    assert exterior_shift(matrix_from_entries(mat), S, RND) == want
    # the first Mersenne prime above the sample bound B = ceil(2D / eps),
    # D = 2 * 2 * 6, and the coefficient bound: here c = 3, and n! c^n
    # exceeds m! (k! c^k)^m of the 2 x 2 minors
    (dom,) = domains
    assert isinstance(dom, PrimeField) and dom.p == 2**61 - 1
    g = matrix_from_entries(mat)
    size, coeffs = shiftcore._evaluation_bounds(g, [S], [S], RND.epsilon)
    assert size == math.ceil(2 * 24 / RND.epsilon)
    assert coeffs == math.factorial(4) * 3**4 > math.factorial(2) * (2 * 3**2) ** 2
    assert dom.p > max(size, coeffs)


def test_char0_prime_moves_up_for_large_coefficients_and_small_epsilon(monkeypatch):
    domains = _domains_of_shifts(monkeypatch)
    # entries of 1-norm about 2^25: det g has 1-norm below 4! c^4 < 2^106,
    # and the 3 x 3 minors of the compound rows below 3! (2! c^2)^3 < 2^156
    mat = random_invertible(4, rng("mersenne-large-norm"), bound=4)
    mat[0][0] += 2**25
    mat[2][1] -= 2**25
    S = _hg(4, 2, [[1, 4], [2, 4], [3, 4]])
    _, pivots = frac_pivots(_compound_minors(mat, S))
    want = UniformHypergraph(4, 2, tuple(k_subsets(4, 2)[j] for j in pivots))
    assert exterior_shift(matrix_from_entries(mat), S, RND) == want
    assert [dom.p for dom in domains] == [2**521 - 1]
    # epsilon = 2^-200 puts the sample bound B above 2^200 for the cells of U
    tiny = make_field_context(0, Backend.RANDOMIZED, seed=0, epsilon=Fraction(1, 2**200))
    domains.clear()
    shifts = all_partial_shifts((S,), tiny)
    assert [dom.p for dom in domains] == [2**521 - 1]
    assert per_cell(shifts) == {w: [partial_shift(S, w, SYM)] for w in all_permutations(4)}


def test_char0_bound_beyond_the_table_is_refused_before_elimination(monkeypatch):
    offers = []
    monkeypatch.setattr(ProfileState, "offer", lambda self, column: offers.append(column))
    S = _hg(3, 1, [[2]])
    # det g may reach 3! * c^3 with c = 2^2000
    huge = matrix_from_entries([[2**2000, 1, 0], [0, 1, 0], [0, 0, 1]])
    # 400 of the 462 5-subsets of [11]: 400! * 120^400 is above 2^5000
    big = UniformHypergraph(11, 5, k_subsets(11, 5)[:400])
    tiny = make_field_context(0, Backend.RANDOMIZED, epsilon=Fraction(1, 2**4500))
    for g, T, ctx in [
        (huge, S, RND),
        (generic_unipotent(11), big, RND),
        (generic_unipotent(3), S, tiny),
    ]:
        with pytest.raises(MathPreconditionError, match="Mersenne") as info:
            exterior_shift(g, T, ctx)
        assert type(info.value) is MathPreconditionError
    assert offers == []


def test_randomized_backend_never_eliminates_over_the_integers(monkeypatch):
    domains = []
    bareiss = ProfileState._offer_bareiss
    monkeypatch.setattr(
        ProfileState,
        "_offer_bareiss",
        lambda self, c: domains.append(self.dom) or bareiss(self, c),
    )
    family = _hg(4, 2, [[1, 3], [2, 4], [3, 4]])
    mat = matrix_from_entries([[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [3, 0, 0, 1]])
    w = Permutation((2, 1, 4, 3, 6, 5))
    counts = {}
    for backend in Backend:
        # a seed no other test uses, so no partial shift comes from the cache
        ctx = make_field_context(0, backend, seed=4242)
        domains.clear()
        all_partial_shifts((family,), ctx)
        partial_shift(RP2_TOP, w, ctx)
        exterior_shift(mat, family, ctx)
        counts[backend] = len(domains)
    assert counts[Backend.RANDOMIZED] == 0
    assert counts[Backend.SYMBOLIC] > 0
    # ranks over Q run modulo a Mersenne prime too
    domains.clear()
    rp2 = SimplicialComplex.from_facets(6, RP2_TOP.edge_lists())
    assert betti_numbers(rp2, 0).values == (1, 0, 0)
    assert matrix_rank([[2, 4, 1], [1, 2, 3]]) == 2
    w3, b = Permutation((2, 3, 1)), [[2, 1, 5], [0, 3, -1], [0, 0, 1]]
    assert bruhat_cell(int_matmul(int_matmul(b, [list(r) for r in w3.matrix()]), b)) == w3
    assert reproduce.run_target("certificate-split").ok
    assert domains == []
