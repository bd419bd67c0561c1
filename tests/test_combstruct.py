"""Subsets, hypergraphs, complexes: order oracles and serialization."""

import itertools
import json
from math import comb

import pytest

from conftest import rng
from lemmas import dominates, hypergraph_lex_compare, subset_rank, subset_unrank
from shiftlab import (
    FVector,
    InputFormatError,
    MathPreconditionError,
    NotClosedError,
    SimplicialComplex,
    UniformHypergraph,
    complex_from_json,
    complex_from_layers,
    complex_from_text,
    complex_to_json,
    faces_to_text,
    hypergraph_from_json,
    hypergraph_from_text,
    hypergraph_to_json,
    is_near_cone,
    is_shifted,
    k_subsets,
    read_family,
    subset_elements,
    subset_mask,
)
from shiftlab import combstruct


# --------------------------------------------------------------- subsets


def test_subset_mask_and_elements_round_trip():
    # every subset of [7], in every vertex order, packs to the bitmask with
    # bit v - 1 per vertex v and unpacks to its sorted vertices
    for r in range(0, 8):
        for combo in itertools.combinations(range(1, 8), r):
            for s in (combo, combo[::-1]):
                bits = subset_mask(7, s)
                assert bits == sum(1 << (v - 1) for v in s)
                assert subset_elements(bits) == tuple(sorted(s))


def test_subset_mask_rejects_bad_vertices():
    with pytest.raises(MathPreconditionError, match="vertex 0 outside 1..4"):
        subset_mask(4, [0])
    with pytest.raises(MathPreconditionError, match="vertex 5 outside 1..4"):
        subset_mask(4, [5])
    with pytest.raises(MathPreconditionError, match="repeated vertex 2"):
        subset_mask(4, [2, 2])


def test_bitmask_bounds_checked():
    # a hypergraph refuses masks outside [n] and masks of the wrong size
    with pytest.raises(MathPreconditionError, match=r"edge \{1,4\} does not live"):
        UniformHypergraph(3, 2, (0b11, 0b1001))
    with pytest.raises(MathPreconditionError, match=r"edge \{1,2,3\} does not live"):
        UniformHypergraph(4, 2, (0b11, 0b111))
    with pytest.raises(MathPreconditionError, match="does not live"):
        UniformHypergraph(4, 2, (-1,))
    with pytest.raises(MathPreconditionError, match=r"repeated edge \{1,2\}"):
        UniformHypergraph(4, 2, (0b11, 0b11))


def test_hypergraph_lex_check_matches_tuple_order_exhaustive():
    # the constructor sorts a pair exactly when the least bit of a ^ b lies
    # in b; on equal-size sets lex order is tuple comparison of the sorted
    # element lists, which is the oracle used here
    for n in range(1, 7):
        for k in range(0, n + 1):
            subsets = k_subsets(n, k)
            for a, b in itertools.permutations(subsets, 2):
                h = UniformHypergraph(n, k, (a, b))
                want = (a, b) if subset_elements(a) < subset_elements(b) else (b, a)
                assert h.edges == want


def test_k_subsets_enumeration_is_lex_sorted():
    for n in range(0, 8):
        for k in range(0, n + 1):
            subsets = k_subsets(n, k)
            assert len(subsets) == comb(n, k)
            assert all(type(s) is int and s.bit_count() == k for s in subsets)
            assert list(subsets) == sorted(subsets, key=subset_elements)


def test_rank_unrank_round_trip():
    for n in range(0, 8):
        for k in range(0, n + 1):
            for r, s in enumerate(k_subsets(n, k)):
                assert subset_rank(n, s) == r
                assert subset_unrank(n, k, r) == s
    with pytest.raises(MathPreconditionError):
        subset_unrank(4, 2, comb(4, 2))


def test_dominates_matches_counting_oracle():
    # independent formulation: sigma dominates tau from below iff for every
    # threshold v, sigma has at least as many elements <= v as tau
    for a, b in itertools.product(k_subsets(5, 3), repeat=2):
        want = all(
            sum(1 for x in subset_elements(a) if x <= v)
            >= sum(1 for y in subset_elements(b) if y <= v)
            for v in range(1, 6)
        )
        assert dominates(a, b) == want
    with pytest.raises(MathPreconditionError):
        dominates(subset_mask(4, [1]), subset_mask(4, [1, 2]))


# ------------------------------------------------------ UniformHypergraph


def test_hypergraph_sorts_and_validates_edges():
    h = UniformHypergraph.from_edges(4, 2, [[2, 3], [1, 2]])
    assert h.edges == (0b11, 0b110)
    assert h.edge_lists() == [[1, 2], [2, 3]]
    assert h.m == 2
    assert repr(h) == "UniformHypergraph(n=4, k=2, [{1,2}, {2,3}])"
    with pytest.raises(MathPreconditionError, match=r"repeated edge \{1,2\}"):
        UniformHypergraph.from_edges(4, 2, [[1, 2], [2, 1]])
    with pytest.raises(MathPreconditionError, match=r"edge \{1,2,3\} is not a 2-subset"):
        UniformHypergraph.from_edges(4, 2, [[1, 2, 3]])


def test_hypergraph_sorts_unsorted_edges():
    gen = rng("hypergraph-unsorted")
    lex = k_subsets(6, 3)
    for _ in range(200):
        edges = gen.sample(lex, gen.randint(2, len(lex)))
        if list(edges) == sorted(edges, key=subset_elements):
            continue
        h = UniformHypergraph(6, 3, tuple(edges))
        assert list(map(subset_elements, h.edges)) == sorted(map(subset_elements, edges))
    with pytest.raises(MathPreconditionError):
        UniformHypergraph(6, 3, (lex[5], lex[0], lex[5]))  # repeated edge
    with pytest.raises(MathPreconditionError):
        UniformHypergraph(6, 3, (lex[5], subset_mask(7, (1, 2, 7))))  # foreign


def test_hypergraph_keeps_edges_given_in_lex_order(monkeypatch):
    gen = rng("hypergraph-sorted")
    lex = k_subsets(6, 3)
    families = [tuple(s for s in lex if gen.random() < 0.5) for _ in range(50)]
    # sorted input is checked pairwise on bitmasks and never re-sorted
    sort_keys = []
    elements = combstruct.subset_elements
    monkeypatch.setattr(
        combstruct, "subset_elements", lambda s: sort_keys.append(s) or elements(s)
    )
    for edges in families:
        h = UniformHypergraph(6, 3, edges)
        assert h.edges == edges
        assert all(a is b for a, b in zip(h.edges, edges))
    assert sort_keys == []
    monkeypatch.undo()
    assert UniformHypergraph(6, 3, list(lex)).edges == lex  # stored as a tuple
    with pytest.raises(MathPreconditionError):
        UniformHypergraph(6, 3, (lex[0], lex[0]))  # repeated edge
    with pytest.raises(MathPreconditionError):
        UniformHypergraph(6, 3, (lex[0], subset_mask(6, (1, 2))))  # wrong size


def test_hypergraph_lex_compare_symdiff_oracle():
    gen = rng("hg-lex")
    subsets = k_subsets(5, 2)
    for _ in range(300):
        ea = gen.sample(subsets, gen.randint(0, len(subsets)))
        eb = gen.sample(subsets, gen.randint(0, len(subsets)))
        a = UniformHypergraph(5, 2, tuple(ea))
        b = UniformHypergraph(5, 2, tuple(eb))
        sym = set(map(subset_elements, ea)) ^ set(map(subset_elements, eb))
        if not sym:
            want = 0
        else:
            want = -1 if min(sym) in set(map(subset_elements, ea)) else 1
        assert hypergraph_lex_compare(a, b) == want
    with pytest.raises(MathPreconditionError):
        hypergraph_lex_compare(
            UniformHypergraph.from_edges(4, 2, [[1, 2]]),
            UniformHypergraph.from_edges(5, 2, [[1, 2]]),
        )


def _is_shifted_bruteforce(h: UniformHypergraph) -> bool:
    present = set(h.edges)
    for e in h.edges:
        for cand in k_subsets(h.n, h.k):
            if dominates(cand, e) and cand not in present:
                return False
    return True


@pytest.mark.parametrize("n,k", [(4, 2), (4, 3), (5, 2), (5, 4)])
def test_is_shifted_matches_bruteforce_exhaustive(n, k):
    subsets = k_subsets(n, k)
    for bits in range(1 << len(subsets)):
        edges = tuple(s for i, s in enumerate(subsets) if bits >> i & 1)
        h = UniformHypergraph(n, k, edges)
        assert is_shifted(h) == _is_shifted_bruteforce(h)


# ----------------------------------------------------- SimplicialComplex


def test_from_facets_closes_downward():
    K = SimplicialComplex.from_facets(4, [[1, 2, 3], [3, 4]])
    assert K.dim == 2
    assert {subset_mask(4, e) for e in ([1, 3], [4], [])} <= K.faces
    assert K.facets_as_tuples() == ((1, 2, 3), (3, 4))
    assert K.f_vector().counts == (1, 4, 4, 1)
    assert K.f_vector()[-1] == 1 and K.f_vector()[0] == 4


def test_dimension_and_f_vector_are_computed_once():
    K = SimplicialComplex.from_facets(4, [[1, 2, 3], [3, 4]])
    faces = K.faces
    assert K.dim == 2 and K.f_vector().counts == (1, 4, 4, 1)
    # later reads walk no face: they answer alike with the faces taken away
    object.__setattr__(K, "faces", frozenset())
    assert K.dim == 2 and K.f_vector() is K.f_vector()
    assert K.f_vector().counts == (1, 4, 4, 1)
    object.__setattr__(K, "faces", faces)
    # the kept values leave equality and hashing to n and the faces
    same = SimplicialComplex(4, faces)
    assert K == same and hash(K) == hash(same)


def test_direct_constructor_rejects_open_family():
    with pytest.raises(NotClosedError) as exc:
        SimplicialComplex(3, frozenset({0, 0b011}))
    assert exc.value.witness == (1, 2)


def test_layers_split_by_cardinality():
    K = SimplicialComplex.from_facets(5, [[1, 2, 3], [2, 4], [5]])
    layers = K.layers()
    assert [layer.k for layer in layers] == [1, 2, 3]
    assert layers[0].edge_lists() == [[1], [2], [3], [4], [5]]
    assert layers[1].edge_lists() == [[1, 2], [1, 3], [2, 3], [2, 4]]
    assert layers[2].edge_lists() == [[1, 2, 3]]
    with pytest.raises(MathPreconditionError):
        K.layer(-1)


def test_complex_from_layers_round_trip():
    gen = rng("layers")
    for _ in range(50):
        n = gen.randint(2, 6)
        pool = list(itertools.combinations(range(1, n + 1), gen.randint(1, n)))
        facets = gen.sample(pool, gen.randint(1, len(pool)))
        K = SimplicialComplex.from_facets(n, facets)
        assert complex_from_layers(K.layers()) == K


def test_complex_from_layers_reports_missing_face():
    top = UniformHypergraph.from_edges(3, 2, [[1, 2], [1, 3]])
    bottom = UniformHypergraph.from_edges(3, 1, [[1], [2]])  # vertex 3 missing
    with pytest.raises(NotClosedError) as exc:
        complex_from_layers([top, bottom])
    assert exc.value.witness == (1, 3)
    with pytest.raises(MathPreconditionError):
        complex_from_layers([top, UniformHypergraph.from_edges(4, 1, [[1]])])
    with pytest.raises(MathPreconditionError):
        complex_from_layers([top, top])
    # two faces that each miss a subset: the witness is one of them
    top = UniformHypergraph.from_edges(4, 2, [[1, 2], [1, 4], [3, 4]])
    bottom = UniformHypergraph.from_edges(4, 1, [[1], [2], [3]])
    with pytest.raises(NotClosedError) as exc:
        complex_from_layers([top, bottom])
    assert exc.value.witness in {(1, 4), (3, 4)}
    # a k=3 layer with no k=2 layer under it
    vertices = UniformHypergraph.from_edges(3, 1, [[1], [2], [3]])
    triangle = UniformHypergraph.from_edges(3, 3, [[1, 2, 3]])
    for layers in ([vertices, triangle], [triangle]):
        with pytest.raises(NotClosedError) as exc:
            complex_from_layers(layers)
        assert exc.value.witness == (1, 2, 3)


def test_empty_and_void_complexes():
    void = SimplicialComplex(0, frozenset())
    assert void.dim == -2 and void.f_vector().counts == ()
    point = SimplicialComplex.from_facets(1, [[1]])
    assert point.dim == 0
    empty_face_only = SimplicialComplex(2, frozenset({0}))
    assert empty_face_only.dim == -1
    assert empty_face_only.facets_as_tuples() == ((),)


def test_euler_characteristic():
    # solid triangle: chi = 1; hollow triangle: chi = 0; two points: chi = 2
    assert SimplicialComplex.from_facets(3, [[1, 2, 3]]).f_vector().euler_characteristic() == 1
    hollow = SimplicialComplex.from_facets(3, [[1, 2], [1, 3], [2, 3]])
    assert hollow.f_vector().euler_characteristic() == 0
    two = SimplicialComplex.from_facets(2, [[1], [2]])
    assert two.f_vector().euler_characteristic() == 2


def _is_near_cone_oracle(K: SimplicialComplex) -> bool:
    faces = {tuple(sorted(f)) for f in _faces_as_tuples(K)}
    for f in faces:
        if 1 in f:
            continue
        for i in f:
            swapped = tuple(sorted((set(f) - {i}) | {1}))
            if swapped not in faces:
                return False
    return True


def _faces_as_tuples(K: SimplicialComplex):
    out = []
    for mask in K.faces:
        elems, bits = [], mask
        while bits:
            low = bits & -bits
            elems.append(low.bit_length())
            bits ^= low
        out.append(tuple(elems))
    return out


def test_is_near_cone_matches_definition_on_random_complexes():
    gen = rng("near-cone")
    seen_true = seen_false = 0
    for _ in range(200):
        n = gen.randint(2, 6)
        pool = list(itertools.combinations(range(1, n + 1), gen.randint(1, n)))
        facets = gen.sample(pool, gen.randint(1, len(pool)))
        K = SimplicialComplex.from_facets(n, facets)
        want = _is_near_cone_oracle(K)
        assert is_near_cone(K) == want
        seen_true += want
        seen_false += not want
    assert seen_true and seen_false  # both outcomes exercised


def test_cones_over_vertex_one_are_near_cones():
    gen = rng("cones")
    for _ in range(40):
        n = gen.randint(3, 6)
        pool = list(itertools.combinations(range(2, n + 1), gen.randint(1, n - 1)))
        base = gen.sample(pool, gen.randint(1, len(pool)))
        coned = [sorted({1, *f}) for f in base]
        assert is_near_cone(SimplicialComplex.from_facets(n, coned))


# --------------------------------------------------------- serialization


def test_hypergraph_json_round_trip_and_determinism():
    h = UniformHypergraph.from_edges(5, 2, [[2, 5], [1, 3]])
    text = hypergraph_to_json(h)
    assert hypergraph_from_json(text) == h
    assert text == hypergraph_to_json(hypergraph_from_json(text))
    payload = json.loads(text)
    assert payload == {"n": 5, "k": 2, "edges": [[1, 3], [2, 5]]}
    assert text == json.dumps(payload, sort_keys=True, separators=(",", ":"))


def test_complex_json_round_trip():
    K = SimplicialComplex.from_facets(4, [[1, 2, 3], [3, 4]])
    text = complex_to_json(K)
    assert complex_from_json(text) == K
    assert json.loads(text)["facets"] == [[1, 2, 3], [3, 4]]


@pytest.mark.parametrize(
    "loader,text",
    [
        (hypergraph_from_json, "not json"),
        (hypergraph_from_json, '{"n": 4}'),
        (hypergraph_from_json, '{"n": 4, "k": 2, "edges": [[1, 9]]}'),
        (complex_from_json, '{"n": "x", "facets": 3}'),
        (complex_from_json, '{"facets": [[1]]}'),
        # past Python's digit limit json.loads raises a plain ValueError
        pytest.param(
            read_family, '{"n": 4, "k": 2, "edges": [[1, %s]]}' % ("9" * 5000), id="digit-limit"
        ),
    ],
)
def test_bad_json_raises_input_format_error(loader, text):
    with pytest.raises(InputFormatError):
        loader(text)


def test_text_round_trip_with_comments():
    h = UniformHypergraph.from_edges(4, 2, [[1, 2], [3, 4]])
    assert hypergraph_from_text(faces_to_text(h.edge_lists())) == h
    parsed = hypergraph_from_text("# header\n1 2\n\n3 4  # trailing\n")
    assert parsed == h
    assert hypergraph_from_text("1 2\n", n=6).n == 6
    with pytest.raises(InputFormatError):
        hypergraph_from_text("1 2\n1 2 3\n")  # mixed sizes
    with pytest.raises(InputFormatError):
        hypergraph_from_text("1 two\n")
    with pytest.raises(InputFormatError):
        hypergraph_from_text("")
    with pytest.raises(InputFormatError):
        hypergraph_from_text(",\n")  # a line with no vertices
    assert hypergraph_from_text("1,2\n3, 4\n") == h


def test_complex_from_text():
    K = complex_from_text("1 2 3\n3 4\n")
    assert K == SimplicialComplex.from_facets(4, [[1, 2, 3], [3, 4]])
    assert complex_from_text("").dim == -2
    assert complex_from_text("", n=5).n == 5
    assert complex_from_text("1 2\n", n=5).n == 5
    assert complex_from_text("1,2,3\n3, 4\n") == K


def test_read_family_decides_the_kind():
    h = UniformHypergraph.from_edges(4, 2, [[1, 2], [3, 4]])
    K = SimplicialComplex.from_facets(4, [[1, 2], [3, 4]])
    edge_json, facet_json = hypergraph_to_json(h), complex_to_json(K)
    assert read_family("1 2\n3 4\n") == h
    assert read_family(edge_json) == h and read_family(facet_json) == K
    assert read_family("1 2\n3 4\n", kind="complex") == K
    assert read_family(edge_json, kind="complex") == complex_from_json(edge_json) == K
    assert read_family("1 2 3\n3 4\n") == complex_from_text("1 2 3\n3 4\n")
    assert read_family("1 2\n", n=6) == hypergraph_from_text("1 2\n", n=6)
    for text, n, kind in (
        (facet_json, None, "hypergraph"),  # a complex is no hypergraph
        ("1 2\n1 2 3\n", None, "hypergraph"),
        ("", None, "complex"),  # only complex_from_text reads no faces as void
        ("[1, 2]", None, "auto"),
        (edge_json, 5, "auto"),  # "n" must match
    ):
        with pytest.raises(InputFormatError):
            read_family(text, n, kind)


def test_fvector_indexing():
    f = FVector((1, 3, 3, 1))
    assert f[-1] == 1 and f[0] == 3 and f[1] == 3 and f[2] == 1
    assert len(f) == 4
