"""Shared fixtures and independent exact-arithmetic oracles.

The oracles here deliberately do not reuse the package's own elimination
code: ranks and determinants are recomputed with ``fractions.Fraction``
so that library results are checked against a second, independent route.
The GF(2^e) multiply is kept here bit-serial, reducing one bit per step,
as the reference for the Barrett reduction in ``shiftlab.field``, a
product sieve as an independent oracle for the package's Ben-Or test (a
monic polynomial is reducible exactly when it is a product of two monics
of lower degree), and the fraction-free Bareiss offer dense,
every pivot updating every row, as the reference for the one in
``ProfileState``, which skips updates whose result it already knows.  The
package computes over Q modulo a prime; ``ZZ`` here is the ring of plain
integers for tests that evaluate or eliminate over the integers
themselves.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from shiftlab import field
from shiftlab.errors import InternalError

# Lines appended by the acceptance tests; printed at the end of the run.
ACCEPTANCE_REPORT: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_REPORT:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_REPORT:
            terminalreporter.write_line(line)


# the six-vertex triangulation of the real projective plane
RP2_FACETS = [
    [1, 2, 5], [1, 2, 6], [1, 3, 4], [1, 3, 5], [1, 4, 6],
    [2, 3, 4], [2, 3, 6], [2, 4, 5], [3, 5, 6], [4, 5, 6],
]


@pytest.fixture()
def short_prime_table(monkeypatch):
    """Characteristic 0 with the Mersenne primes 3, 7, 31 and 127 only."""
    monkeypatch.setattr(field, "MERSENNE_EXPONENTS", (2, 3, 5, 7))
    field._mersenne_field.cache_clear()
    yield
    field._mersenne_field.cache_clear()


def rng(tag: str) -> random.Random:
    """A reproducible generator; the tag keeps tests independent."""
    return random.Random(f"shiftlab-tests:{tag}")


# ------------------------------------------------ exact Fraction oracles


def frac_pivots(rows, p=None) -> tuple[tuple[int, ...], list[int]]:
    """Greedy left-to-right pivot columns over the rationals (p None) or
    GF(p), by one Gauss-Jordan pass over the columns in order.

    Returns (rank of every column prefix, the empty one first; pivot column
    indices).  A column is a pivot exactly when it enlarges the span of the
    columns before it, which is where the rank steps.
    """
    if p is None:
        mat, reduce = [[Fraction(x) for x in row] for row in rows], lambda x: x
    else:
        mat, reduce = [[int(x) % p for x in row] for row in rows], lambda x: x % p
    rank, ranks, pivots = 0, [0], []
    for j in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][j]), None)
        if pivot is not None:
            mat[rank], mat[pivot] = mat[pivot], mat[rank]
            inv = 1 / mat[rank][j] if p is None else pow(mat[rank][j], -1, p)
            mat[rank] = [reduce(x * inv) for x in mat[rank]]
            for i in range(len(mat)):
                if i != rank and mat[i][j]:
                    factor = mat[i][j]
                    mat[i] = [reduce(x - factor * y) for x, y in zip(mat[i], mat[rank])]
            pivots.append(j)
            rank += 1
        ranks.append(rank)
    return tuple(ranks), pivots


def frac_pivots_mod(rows, p: int) -> tuple[tuple[int, ...], list[int]]:
    return frac_pivots(rows, p)


def frac_rank(rows) -> int:
    """Row-echelon rank over the rationals, fractions only."""
    return frac_pivots(rows)[0][-1]


def frac_rank_mod(rows, p: int) -> int:
    """Row-echelon rank over GF(p)."""
    return frac_pivots(rows, p)[0][-1]


def frac_det(rows) -> Fraction:
    """Determinant by Leibniz expansion; fine for the tiny sizes used here."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        term = 1
        for a in range(n):
            for b in range(a + 1, n):
                if perm[a] > perm[b]:
                    term = -term
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return Fraction(total)


def frac_minor(rows, row_idx, col_idx) -> Fraction:
    return frac_det([[rows[i][j] for j in col_idx] for i in row_idx])


def random_invertible(n: int, gen: random.Random, bound: int = 9):
    """A random integer matrix with nonzero determinant."""
    while True:
        rows = [[gen.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        if frac_det(rows) != 0:
            return rows


def random_unit_upper(n: int, gen: random.Random, bound: int = 9):
    """A random upper-triangular integer matrix with nonzero diagonal."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        # one draw from the 2 * bound nonzero values in [-bound, bound]
        v = gen.choice(range(-bound, bound))
        rows[i][i] = v + (v >= 0)
        for j in range(i + 1, n):
            rows[i][j] = gen.randint(-bound, bound)
    return rows


def int_matmul(a, b):
    n = len(a)
    return [
        [sum(a[i][t] * b[t][j] for t in range(n)) for j in range(len(b[0]))]
        for i in range(n)
    ]


class IntegerRing:
    """Arbitrary-precision integers; exact division only where it is exact."""

    characteristic = 0
    is_field = False
    zero = 0
    one = 1

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def is_zero(a):
        return a == 0

    @staticmethod
    def exact_div(a, b):
        q, r = divmod(a, b)
        if r:
            raise InternalError(f"inexact integer division {a} / {b}")
        return q

    @staticmethod
    def from_int(c):
        return c

    def __repr__(self) -> str:
        return "ZZ"


ZZ = IntegerRing()


def dense_offer_bareiss(self, c: list) -> bool:
    """``ProfileState._offer_bareiss`` with no update skipped: every stacked
    pivot updates every row that is not an earlier pivot row, zeros and
    zero factors included.  Call it on a ``ProfileState`` below full rank."""
    dom = self.dom
    done: set[int] = set()
    for pr, u, piv, prev_piv in self._stack:
        f = c[pr]
        for i in range(self.m):
            if i == pr or i in done:
                continue
            c[i] = dom.exact_div(
                dom.sub(dom.mul(piv, c[i]), dom.mul(u[i], f)), prev_piv
            )
        done.add(pr)
    for i in range(self.m):
        if i not in done and not dom.is_zero(c[i]):
            prev = self._stack[-1][2] if self._stack else dom.one
            self._stack.append((i, c, c[i], prev))
            return True
    return False


# ------------------------------------------------ finite-field oracles


def gf2_mul_oracle(a: int, b: int, modulus: int) -> int:
    """a * b in GF(2)[x] / (modulus), shift-and-add over the bits of b."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    e = modulus.bit_length() - 1
    while r.bit_length() > e:
        r ^= modulus << (r.bit_length() - 1 - e)
    return r


def gfp_poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    """a * b in GF(p)[x], coefficient lists with the constant term first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _monics(p: int, d: int) -> list[list[int]]:
    return [list(low) + [1] for low in itertools.product(range(p), repeat=d)]


@lru_cache(maxsize=None)
def reducible_monics(p: int, e: int) -> frozenset[tuple[int, ...]]:
    """Every product of two monics over GF(p) whose degrees sum to e."""
    return frozenset(
        tuple(gfp_poly_mul(f, g, p))
        for d in range(1, e // 2 + 1)
        for f in _monics(p, d)
        for g in _monics(p, e - d)
    )


def is_irreducible_oracle(coeffs: list[int], p: int) -> bool:
    """Whether a monic polynomial over GF(p), constant term first, is no
    product of two monics of lower degree."""
    e = len(coeffs) - 1
    if e < 1 or coeffs[-1] != 1:
        return False
    return tuple(coeffs) not in reducible_monics(p, e)
