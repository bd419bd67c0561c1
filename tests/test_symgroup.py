"""Permutations: composition, length, words, and the right weak order."""

import itertools
from functools import lru_cache
from math import factorial

import pytest

from conftest import int_matmul, rng
from lemmas import inversions_of_product, reduced_word
from shiftlab import (
    InputFormatError,
    MathPreconditionError,
    Permutation,
    all_permutations,
    parse_permutation,
    weak_order_geq,
)


def test_constructor_rejects_non_permutations():
    with pytest.raises(MathPreconditionError):
        Permutation((1, 1, 2))
    with pytest.raises(MathPreconditionError):
        Permutation((0, 1))
    with pytest.raises(MathPreconditionError):
        Permutation((2, 3))


def test_composition_is_right_action_exhaustive():
    # i.(v * w) applies v first, then w
    perms = list(all_permutations(4))
    for v, w in itertools.product(perms, repeat=2):
        prod = v * w
        for i in range(1, 5):
            assert prod.apply(i) == w.apply(v.apply(i))


def test_inverse_identity_and_associativity():
    perms = list(all_permutations(4))
    e = Permutation.identity(4)
    for w in perms:
        assert w * w.inverse() == e
        assert w.inverse() * w == e
        assert (w * e) == w and (e * w) == w
    gen = rng("assoc")
    for _ in range(200):
        a, b, c = (gen.choice(perms) for _ in range(3))
        assert (a * b) * c == a * (b * c)
    with pytest.raises(MathPreconditionError):
        Permutation.identity(3) * Permutation.identity(4)


def test_all_permutations_enumeration():
    for n in range(0, 6):
        perms = list(all_permutations(n))
        assert len(perms) == factorial(n)
        assert len(set(perms)) == len(perms)
        images = [p.images for p in perms]
        assert images == sorted(images)


def test_length_equals_inversion_count():
    for w in all_permutations(5):
        inv = {
            (i, j)
            for i in range(1, 5)
            for j in range(i + 1, 6)
            if w.apply(i) > w.apply(j)
        }
        assert w.inversions() == inv
        assert w.length() == len(inv)
    assert Permutation.longest(6).length() == 15
    assert Permutation.cycle(6).length() == 5
    assert Permutation.identity(6).length() == 0


def test_reduced_word_multiplies_back():
    for n in range(1, 6):
        for w in all_permutations(n):
            word = reduced_word(w)
            assert len(word) == w.length()
            assert Permutation.from_word(n, word) == w


def test_prefixes_of_reduced_words_are_reduced():
    # the length along any reduced word rises by one per letter
    for w in all_permutations(5):
        word = reduced_word(w)
        current = Permutation.identity(5)
        for step, i in enumerate(word, start=1):
            current = current * Permutation.simple(5, i)
            assert current.length() == step


def test_named_permutations():
    assert Permutation.longest(4).images == (4, 3, 2, 1)
    assert Permutation.cycle(4).images == (2, 3, 4, 1)
    assert Permutation.simple(4, 2).images == (1, 3, 2, 4)
    assert Permutation.transposition(5, 2, 4).images == (1, 4, 3, 2, 5)
    assert Permutation.transposition(5, 2, 4).as_transposition() == (2, 4)
    assert Permutation.cycle(4).as_transposition() is None
    # the n-cycle of n = 0 is the empty permutation, as are w0 and e
    assert Permutation.cycle(0) == Permutation.longest(0) == Permutation.identity(0)
    assert Permutation.cycle(0).n == 0 and Permutation.cycle(1).images == (1,)
    assert Permutation.simple(4, 1).as_transposition() == (1, 2)
    with pytest.raises(MathPreconditionError):
        Permutation.simple(4, 4)
    with pytest.raises(MathPreconditionError):
        Permutation.transposition(4, 2, 2)


def test_matrix_is_a_homomorphism():
    perms = list(all_permutations(4))
    for w in perms:
        mat = w.matrix()
        for i in range(1, 5):
            assert mat[i - 1][w.apply(i) - 1] == 1
            assert sum(mat[i - 1]) == 1
    gen = rng("perm-matmul")
    for _ in range(100):
        v, w = gen.choice(perms), gen.choice(perms)
        assert [list(r) for r in (v * w).matrix()] == int_matmul(
            [list(r) for r in v.matrix()], [list(r) for r in w.matrix()]
        )


# ------------------------------------------------------- right weak order


@lru_cache(maxsize=None)
def _weak_up_sets(n: int) -> dict:
    """Oracle: reachability along length-increasing right multiplications.

    u is below w in the right weak order exactly when w is reachable from u
    by repeatedly appending a simple transposition that increases length.
    """
    perms = list(all_permutations(n))
    up = {}
    for u in perms:
        reach = {u}
        frontier = [u]
        while frontier:
            current = frontier.pop()
            for i in range(1, n):
                nxt = current * Permutation.simple(n, i)
                if nxt.length() == current.length() + 1 and nxt not in reach:
                    reach.add(nxt)
                    frontier.append(nxt)
        up[u] = reach
    return up


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_weak_order_matches_reachability_oracle(n):
    up = _weak_up_sets(n)
    perms = list(all_permutations(n))
    for u, w in itertools.product(perms, repeat=2):
        assert weak_order_geq(w, u) == (w in up[u])


def test_weak_order_extremes():
    for n in range(1, 6):
        w0 = Permutation.longest(n)
        e = Permutation.identity(n)
        for w in all_permutations(n):
            assert weak_order_geq(w0, w)
            assert weak_order_geq(w, e)
    with pytest.raises(MathPreconditionError):
        weak_order_geq(Permutation.identity(3), Permutation.identity(4))


def test_inversions_of_product_matches_direct_computation():
    perms = list(all_permutations(4))
    for v, w in itertools.product(perms, repeat=2):
        assert inversions_of_product(v, w) == (v * w).inversions()
    gen = rng("inv-prod")
    perms6 = list(all_permutations(5))
    for _ in range(300):
        v, w = gen.choice(perms6), gen.choice(perms6)
        assert inversions_of_product(v, w) == (v * w).inversions()


def test_additive_length_means_disjoint_pulled_inversions():
    # lengths add exactly when v's inversions and the pullback of w's are
    # disjoint, i.e. the product inversion count is the sum of both
    for v, w in itertools.product(all_permutations(4), repeat=2):
        additive = (v * w).length() == v.length() + w.length()
        assert additive == (
            len(inversions_of_product(v, w)) == v.length() + w.length()
        )


# ------------------------------------------------------------- parsing


def test_parse_permutation_surface_forms():
    assert parse_permutation("2,3,1").images == (2, 3, 1)
    assert parse_permutation("2,3,1", n=3).images == (2, 3, 1)
    assert parse_permutation("w0", n=4) == Permutation.longest(4)
    assert parse_permutation("e", n=4) == Permutation.identity(4)
    assert parse_permutation("identity", n=3) == Permutation.identity(3)
    assert parse_permutation("c6") == Permutation.cycle(6)
    assert parse_permutation("cn", n=5) == Permutation.cycle(5)
    assert parse_permutation("s1 s2 s1", n=3) == Permutation.longest(3)
    assert parse_permutation("S2 S3 S2", n=4) == Permutation.from_word(4, [2, 3, 2])


@pytest.mark.parametrize(
    "text,n",
    [
        ("", None),
        ("e", None),  # needs n
        ("w0", None),
        ("s1 s2", None),
        ("c6", 5),  # mismatched n
        ("2,2,1", None),  # not a permutation
        ("2,3,1", 4),  # wrong size
        ("1,x,3", None),
        ("sx", 4),
        ("??", 4),
    ],
)
def test_parse_permutation_rejects(text, n):
    with pytest.raises(InputFormatError):
        parse_permutation(text, n=n)


def test_one_line_and_repr():
    w = Permutation((3, 1, 2))
    assert w.one_line() == "3,1,2"
    assert parse_permutation(w.one_line()) == w
    assert w.moved_points() == (1, 2, 3)
    assert Permutation.identity(2).is_identity
