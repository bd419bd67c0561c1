"""Exterior shifting of uniform hypergraphs with respect to explicit matrices.

An invertible n x n matrix acts on the k-th exterior power of the ambient
space; its action is encoded by the k-th compound matrix, whose (rho, tau)
entry is the minor with rows rho and columns tau.  Shifting a k-uniform
hypergraph S by a matrix g keeps, among the columns of the compound
submatrix with row set S, exactly those that increase the rank when
columns are consumed in lexicographic order.  The result again has |S|
edges and, for suitably generic g, is a shifted hypergraph.

Partial shifts arise from the Bruhat decomposition: every permutation w
yields a canonical cell representative built from a unipotent matrix whose
free entries sit precisely at the inversions of w, and shifting by that
representative interpolates between doing nothing (identity) and the full
shift (longest permutation).  ``all_partial_shifts`` reads the partial
shifts by all n! cells off one generic unipotent matrix, in whose compound
only the column order differs from cell to cell.  Combinatorial shifts by
transpositions are the classic set-replacement operators and coincide with
exterior shifts by small structured matrices.

Matrix entries are sparse integer polynomials; a FieldContext chooses
between exact symbolic elimination and seeded randomized evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Sequence

from .combstruct import UniformHypergraph, k_subsets, subset_elements
from .errors import MathPreconditionError, MatrixNotInvertibleError
from .field import (
    Backend,
    EvalPoint,
    FieldContext,
    MultiPoly,
    PolynomialRing,
    lex_first_bases,
    matrix_rank,
    sample_eval_point,
)
from .symgroup import Permutation, all_permutations

__all__ = [
    "GenericMatrix",
    "matrix_from_entries",
    "generic_matrix",
    "generic_unipotent",
    "cell_unipotent",
    "cell_representative",
    "permutation_matrix",
    "combinatorial_shift_matrix",
    "vandermonde_matrix",
    "matrix_product",
    "evaluate_matrix",
    "compound_rows",
    "exterior_shift",
    "exterior_shift_profile",
    "partial_shift",
    "partial_shift_profile",
    "full_shift",
    "all_partial_shifts",
    "shift_layers",
    "combinatorial_shift",
    "INVERTIBILITY_RETRIES",
]

# Singular randomized evaluations are retried with fresh points this many
# times before the matrix is declared non-invertible.
INVERTIBILITY_RETRIES = 4

# Partial shifts kept across calls, most recent first: a repeated (S, w, ctx)
# costs no second elimination.  Graph builds and scans shift by all cells at
# once and never reach it; it serves the one-cell calls of partial_shift and
# full_shift (the shift command, contracting, full-shift Betti numbers).
PARTIAL_SHIFT_CACHE_SIZE = 1024


@dataclass(frozen=True)
class GenericMatrix:
    """A square matrix of sparse integer polynomials.

    ``unit_determinant`` marks matrices whose determinant is the constant
    +-1 (every evaluation is invertible); ``known_invertible`` marks a
    nonzero determinant polynomial (invertible over the rational function
    field, though particular evaluations may be singular).  Builders set
    these so shifting can skip redundant rank checks.
    """

    n: int
    entries: tuple[tuple[MultiPoly, ...], ...]
    unit_determinant: bool = False
    known_invertible: bool = False

    def __post_init__(self):
        if len(self.entries) != self.n or any(
            len(row) != self.n for row in self.entries
        ):
            raise MathPreconditionError("matrix entries must form an n x n array")
        for row in self.entries:
            for entry in row:
                if not isinstance(entry, MultiPoly):
                    raise MathPreconditionError("matrix entries must be MultiPoly")

    @cached_property
    def degree_bound(self) -> int:
        """Maximum total degree of any entry.

        This, ``variables`` and ``coefficient_norm`` walk the entries, except
        that ``cell_representative`` supplies all three from w, which
        ``test_cell_representative_supplies_what_a_walk_finds`` checks.
        """
        return max(entry.degree() for row in self.entries for entry in row)

    @cached_property
    def variables(self) -> frozenset:
        """The variables of the entries (see ``degree_bound``)."""
        return frozenset().union(*(e.variables() for row in self.entries for e in row))

    @cached_property
    def coefficient_norm(self) -> int:
        """Largest coefficient 1-norm of any entry."""
        return max(sum(map(abs, e.terms.values())) for row in self.entries for e in row)

    @cached_property
    def sorted_terms(self) -> tuple:
        """Each entry's terms, sorted: g's part of a randomized point's key."""
        return tuple(
            tuple(tuple(sorted(e.terms.items())) for e in row) for row in self.entries
        )

    @property
    def symbolically_invertible(self) -> bool:
        return self.unit_determinant or self.known_invertible

    def __repr__(self) -> str:
        rows = "; ".join(
            "[" + ", ".join(repr(e) for e in row) + "]" for row in self.entries
        )
        return f"GenericMatrix({self.n}, {rows})"


def matrix_from_entries(
    entries: Sequence[Sequence],
    unit_determinant: bool = False,
    known_invertible: bool = False,
) -> GenericMatrix:
    """Build a matrix from ints and/or MultiPoly entries."""
    coerced = tuple(
        tuple(e if isinstance(e, MultiPoly) else MultiPoly.const(int(e)) for e in row)
        for row in entries
    )
    return GenericMatrix(
        n=len(coerced),
        entries=coerced,
        unit_determinant=unit_determinant,
        known_invertible=known_invertible,
    )


def generic_matrix(n: int) -> GenericMatrix:
    """The fully generic matrix: an independent variable in every entry."""
    return matrix_from_entries(
        [[MultiPoly.variable(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)],
        known_invertible=True,
    )


def generic_unipotent(n: int) -> GenericMatrix:
    """Upper unitriangular with an independent variable above the diagonal:
    the cell unipotent of w0, whose inversions are all pairs i < j."""
    return cell_unipotent(Permutation.longest(n))


def cell_unipotent(w: Permutation) -> GenericMatrix:
    """Identity plus a variable at each inversion position of w."""
    inv, r, x = w.inversions(), range(1, w.n + 1), MultiPoly.variable
    rows = [[x(i, j) if (i, j) in inv else int(i == j) for j in r] for i in r]
    return matrix_from_entries(rows, unit_determinant=True)


def permutation_matrix(w: Permutation) -> GenericMatrix:
    """0/1 matrix with a 1 in row i at column i.w."""
    return matrix_from_entries(w.matrix(), unit_determinant=True)


def cell_representative(w: Permutation) -> GenericMatrix:
    """Canonical Bruhat-cell representative: cell unipotent times w.

    Row i carries a 1 at column i.w and a variable x_{ij} at column j.w for
    every inversion (i, j) of w, so w gives the degree bound, variables and
    1-norm without a walk.  Shifting by it realizes w's partial shift.
    """
    n, images, inv = w.n, w.images, w.inversions()
    zero, one = MultiPoly.zero(), MultiPoly.const(1)
    rows = [[one if j == image else zero for j in range(1, n + 1)] for image in images]
    for i, j in inv:
        rows[i - 1][images[j - 1] - 1] = MultiPoly.variable(i, j)
    g = GenericMatrix(n, tuple(map(tuple, rows)), unit_determinant=True)
    vars(g).update(degree_bound=int(bool(inv)), variables=inv, coefficient_norm=1)
    return g


def combinatorial_shift_matrix(t: Permutation) -> GenericMatrix:
    """Structured matrix whose exterior shift equals the combinatorial shift.

    For a transposition (i j) with i < j: variable x_{ij} at (i, i), ones at
    (i, j) and (j, i), zero at (j, j), identity elsewhere.  For non-simple
    transpositions this matrix is not generic inside its Bruhat cell; the
    exterior shift by it still reproduces the combinatorial shift operator.
    """
    pair = t.as_transposition()
    if pair is None:
        raise MathPreconditionError(
            f"combinatorial shift matrix needs a transposition, got {t.one_line()}"
        )
    i, j = pair
    n = t.n
    rows = [[1 if a == b else 0 for b in range(1, n + 1)] for a in range(1, n + 1)]
    rows = [[MultiPoly.const(v) for v in row] for row in rows]
    rows[i - 1][i - 1] = MultiPoly.variable(i, j)
    rows[i - 1][j - 1] = MultiPoly.const(1)
    rows[j - 1][i - 1] = MultiPoly.const(1)
    rows[j - 1][j - 1] = MultiPoly.const(0)
    return matrix_from_entries(rows, unit_determinant=True)


def vandermonde_matrix(n: int) -> GenericMatrix:
    """Entry (i, j) is the i-th power of the j-th column variable.

    Uses the single-indexed variables x_{1j}.  The determinant is a nonzero
    polynomial, but the matrix is far from generic in its Bruhat cell: its
    function field has transcendence degree n rather than n^2.
    """
    rows = [
        [MultiPoly.variable(1, j) ** i for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    return matrix_from_entries(rows, known_invertible=True)


def matrix_product(a: GenericMatrix, b: GenericMatrix) -> GenericMatrix:
    if a.n != b.n:
        raise MathPreconditionError("matrix size mismatch in product")
    n = a.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = MultiPoly.zero()
            for t in range(n):
                acc = acc + a.entries[i][t] * b.entries[t][j]
            row.append(acc)
        rows.append(tuple(row))
    return GenericMatrix(
        n=n,
        entries=tuple(rows),
        unit_determinant=a.unit_determinant and b.unit_determinant,
        known_invertible=a.symbolically_invertible and b.symbolically_invertible,
    )


def evaluate_matrix(g: GenericMatrix, point: EvalPoint) -> list[list]:
    """g's entries at the point, each what ``MultiPoly.evaluate`` returns.

    Zeros, constants and lone variables with coefficient 1 skip the walk:
    the assigned values lie in the point's domain, which a product with 1
    and a sum with 0 leave as they are.
    """
    assignment, dom = point.assignment, point.domain
    out = []
    for row in g.entries:
        out.append(values := [])
        for entry in row:
            terms = entry.terms
            if len(terms) != 1:
                values.append(entry.evaluate(assignment, dom) if terms else dom.zero)
                continue
            ((mono, c),) = terms.items()
            if not mono:
                values.append(dom.from_int(c))
            elif c == 1 and len(mono) == 1 and mono[0][1] == 1 and mono[0][0] in assignment:
                values.append(assignment[mono[0][0]])
            else:
                values.append(entry.evaluate(assignment, dom))
    return out


# ------------------------------------------------------------- compounds


def _wedge_rows(matrix_rows: Sequence[Sequence], edges: Sequence[int], domain):
    """Coefficients of the wedge of the rows indexed by each edge.

    Dynamic programming over subsets: wedge in one row at a time, tracking
    a map from t-subset bitmask to coefficient.  The coefficient at mask
    tau ends up being the minor with rows ``edge`` (ascending) and columns
    tau (ascending), so one pass yields a whole compound row.  Each row's
    nonzero entries are listed once per matrix, and a step walks only
    those; an entry equal to ``domain.one`` passes the coefficient on, with
    no product.  An edge that shares a prefix with the edge before it starts
    from that prefix's partial wedge, so a layer in lex order wedges in
    each prefix once.  The steps and their order are those of a separate
    pass per edge, so every coefficient is the same.  Every domain keeps
    its elements canonical, so a zero test compares with ``domain.zero``.
    """
    mul, neg, add = domain.mul, domain.neg, domain.add
    zero, one = domain.zero, domain.one
    # (column bit, shift to the columns after it, entry, whether it is 1)
    support = [
        [(1 << j, j + 1, e, e == one) for j, e in enumerate(row) if e != zero]
        for row in matrix_rows
    ]
    # states[t] is the wedge of the first t rows of the edge before
    states = [{0: one}]
    before: tuple[int, ...] = ()
    out = []
    for edge in edges:
        elements = subset_elements(edge)
        t = 0
        while t < len(before) and before[t] == elements[t]:
            t += 1
        del states[t + 1 :]
        for v in elements[t:]:
            nxt: dict[int, object] = {}
            for mask, coeff in states[-1].items():
                if coeff == zero:
                    continue
                for bit, shift, entry, unit in support[v - 1]:
                    if mask & bit:
                        continue
                    term = coeff if unit else mul(coeff, entry)
                    if (mask >> shift).bit_count() & 1:
                        term = neg(term)
                    new_mask = mask | bit
                    if new_mask in nxt:
                        nxt[new_mask] = add(nxt[new_mask], term)
                    else:
                        nxt[new_mask] = term
            states.append(nxt)
        before = elements
        out.append(states[-1])
    return out


@dataclass(frozen=True)
class CompoundSubmatrix:
    """Rows of the k-th compound of g indexed by the edges of S.

    Columns run over the bitmasks of all k-subsets of [n] in lexicographic
    order; the (rho, tau) entry is the k x k minor of g with rows rho,
    columns tau.
    """

    source: UniformHypergraph
    columns: tuple[int, ...]
    rows: tuple[tuple[MultiPoly, ...], ...]


def compound_rows(g: GenericMatrix, S: UniformHypergraph) -> CompoundSubmatrix:
    """Compound submatrix of g with rows S, via iterated wedge expansion."""
    if g.n != S.n:
        raise MathPreconditionError("matrix and hypergraph sizes differ")
    # the wedge of t rows holds t x t minors, of degree at most t * deg g
    dom = PolynomialRing(0, g.variables, S.k * max(1, g.degree_bound))
    entries = [[dom.pack(e) for e in row] for row in g.entries]
    columns = k_subsets(S.n, S.k)
    rows = [
        tuple(dom.unpack(state.get(col, dom.zero)) for col in columns)
        for state in _wedge_rows(entries, S.edges, dom)
    ]
    return CompoundSubmatrix(source=S, columns=columns, rows=tuple(rows))


# ------------------------------------------------------------ the shift


def _evaluation_bounds(
    g: GenericMatrix,
    layers: Sequence[UniformHypergraph],
    pending: Sequence[UniformHypergraph],
    epsilon: Fraction,
) -> tuple[int, int]:
    """The sample range B and the coefficient bound C of one evaluation of g.

    g is evaluated at one point, uniform on [1, B] in characteristic 0 or on
    GF(p^e) with p^e >= B in characteristic p, and shifts every layer of
    ``layers`` there; ``pending`` are the layers that need elimination.  A
    wrong result needs a nonzero polynomial that the call decides to vanish
    at the point, and by Schwartz-Zippel (Schwartz, J. ACM 1980; Zippel,
    EUROSAM 1979) that has probability at most epsilon:

    - The compound rows of a layer S with m edges of size k are k x k
      minors of g, of degree at most k * deg g.  Its lex-first column
      profile is decided by at most C(n, k) minors of order at most m of
      those rows, whose product has degree at most
      d_S = k * deg g * m * C(n, k), each factor clamped to 1.  The
      invertibility check decides det g, of degree n * deg g, which is at
      most d_S for every layer with k >= 1.
    - D sums d_S over every layer of ``layers``, the ones that shift to
      themselves included.  That slack keeps every point as it was; a
      tighter D changes them all.  The decided polynomials then have
      degrees summing to at most 2D, and B = ceil(2D / epsilon), so the
      point is a zero of one of them with probability at most epsilon.
    - In characteristic 0 the point lies in GF(p) for the Mersenne prime p
      that ``field.choose_field`` picks above B and C.  Let c be the largest
      coefficient 1-norm of an entry of g, ``g.coefficient_norm``, or 1 if
      that is 0 (c = 1 for U and the cell representatives).  A k x k minor
      of g has 1-norm at most k! * c^k, a minor of order at most m of a
      pending layer's compound rows at most m! * (k! * c^k)^m, and det g at
      most n! * c^n; C is the largest of these.  p > C, so no coefficient
      of a decided polynomial P is a nonzero multiple of p, and P mod p is
      nonzero whenever P is.  p > B, so [1, B] lies in GF(p) as it is, and
      the bound above holds over GF(p) with no further failure term.  For a
      constant g the decisions are exact.
    """
    degree = max(1, g.degree_bound)
    budget = sum(
        max(1, S.k * degree) * max(1, S.m) * len(k_subsets(S.n, S.k)) for S in layers
    )
    c = max(1, g.coefficient_norm)
    fact = math.factorial
    coeffs = max(
        [fact(g.n) * c**g.n] + [fact(S.m) * (fact(S.k) * c**S.k) ** S.m for S in pending]
    )
    return math.ceil(2 * budget / epsilon), coeffs


def _symbolic_ring(
    g: GenericMatrix, layers: Sequence[UniformHypergraph], char: int
) -> PolynomialRing:
    """The polynomial ring in which g's symbolic shifts of ``layers`` run.

    Its degree bound is D = 2 * max(m * k, n) * max(1, deg g) over the
    layers' m edges of size k.  Proof: the compound rows of a layer are
    k x k minors of g, of degree at most k * deg g.  By Sylvester's
    identity every Bareiss intermediate on those m rows is a minor of order
    at most m of them, so of degree at most m * k * deg g, and the product
    formed before each exact division has at most twice that.  The n x n
    invertibility check on g itself needs 2 * n * deg g in the same way.
    """
    order = max([g.n] + [S.m * S.k for S in layers])
    return PolynomialRing(char, g.variables, 2 * order * max(1, g.degree_bound))


def _invertible_evaluation(
    g: GenericMatrix, size: int, coeff_bound: int, key: tuple, ctx: FieldContext
):
    """g evaluated at a point where it is invertible, and the point's domain.

    Up to 1 + INVERTIBILITY_RETRIES points are tried, keyed by ``key`` and
    the attempt.  A matrix without variables evaluates the same at every
    point, so it gets one.  The points come from ``sample_eval_point`` with
    the bounds of ``_evaluation_bounds``; a bound past the table of Mersenne
    primes raises MathPreconditionError before any point is drawn.
    """
    attempts = 1 + INVERTIBILITY_RETRIES if g.variables else 1
    for attempt in range(attempts):
        point = sample_eval_point(ctx, g.variables, size, coeff_bound, key, attempt)
        entries = evaluate_matrix(g, point)
        if g.unit_determinant or matrix_rank(entries, point.domain) == g.n:
            return entries, point.domain
    if not g.variables:
        raise MatrixNotInvertibleError("constant matrix is singular")
    raise MatrixNotInvertibleError(
        "matrix evaluated to a singular matrix at "
        f"{attempts} independent random point(s)"
    )


def _lex_order(n: int, k: int) -> tuple[range]:
    return (range(len(k_subsets(n, k))),)


def _shift_families(
    g: GenericMatrix,
    layers: Sequence[UniformHypergraph],
    ctx: FieldContext,
    column_orders,
) -> list[list[UniformHypergraph] | None]:
    """The shift of every layer under g, once per column order.

    A layer S has the columns of its compound rows ``M_S`` offered in each
    order of ``column_orders(n, k)`` and keeps the lex-first basis: the
    shifted family collects the lex positions kept.  An empty layer, or a
    complete one under a symbolically invertible g, shifts to itself under
    every order without elimination and gets None, and its orders are never
    built.  Only if some layer is left is g made concrete, once: packed into
    the polynomial ring of ``_symbolic_ring`` and checked for invertibility
    on the symbolic backend, or evaluated at one point with the budget
    summed over all layers on the randomized backend.  That point is keyed
    by g's size and entries and by every layer, so it is a pure function of
    the seed, the matrix and the family, and no caller builds a key.  Each
    remaining layer must then keep one column per edge in every order.

    The rows of ``M_S`` enter elimination in reverse lex order of their
    edges.  This changes no result:

    - A kept set records only which column prefixes are independent, and
      permuting the rows changes no rank, so every mask is the one lex
      order gives, on both backends; the keys, and so the points, do not
      depend on the row order.
    - A minor of the permuted rows is +- a minor of the rows.  So the
      polynomials that ``_evaluation_bounds`` budgets are the same up to
      sign, and by Sylvester's identity every Bareiss intermediate is still
      a minor of order at most m, within ``_symbolic_ring``'s degree bound.

    The row order chooses the pivots, because ``ProfileState`` pivots on
    the first nonzero live row.  For g = U . P_w with U upper
    unitriangular, every column of ``M_S`` is +- a column sigma of
    compound(U), which is zero at each edge rho not below sigma in Gale
    order (rho_i <= sigma_i for each i) and 1 at rho = sigma.  Reversed,
    its first nonzero row is the lex-last edge below sigma, sigma itself
    when it is an edge of S, and not the lex-first one, the farthest from
    the diagonal, whose fill-in every later offer would pay for (Markowitz,
    Management Sci. 3, 1957).
    """
    if any(S.n != g.n for S in layers):
        raise MathPreconditionError("matrix and hypergraph sizes differ")
    fixed = [
        S.m == 0 or (S.m == len(k_subsets(S.n, S.k)) and g.symbolically_invertible)
        for S in layers
    ]
    if all(fixed):
        return [None] * len(layers)
    pending = [S for S, is_fixed in zip(layers, fixed) if not is_fixed]
    if ctx.backend is Backend.SYMBOLIC:
        dom = _symbolic_ring(g, pending, ctx.characteristic.value)
        pack, zero = dom.pack, dom.zero
        entries = [[pack(e) if e.terms else zero for e in row] for row in g.entries]
        if not g.symbolically_invertible and matrix_rank(entries, dom) < g.n:
            raise MatrixNotInvertibleError(
                "matrix is singular over the symbolic coefficient ring"
            )
    else:
        size, coeffs = _evaluation_bounds(g, layers, pending, ctx.epsilon)
        key = (g.n, g.sorted_terms, [(S.k, S.edges) for S in layers])
        entries, dom = _invertible_evaluation(g, size, coeffs, key, ctx)
    zero = dom.zero
    out = []
    for S, is_fixed in zip(layers, fixed):
        if is_fixed:
            out.append(None)
            continue
        columns = k_subsets(S.n, S.k)
        wedges = _wedge_rows(entries, S.edges, dom)
        matrix = [[row.get(col, zero) for row in reversed(wedges)] for col in columns]
        families: dict[int, UniformHypergraph] = {}
        shifted = []
        for kept in lex_first_bases(matrix, S.m, dom, column_orders(S.n, S.k)):
            if kept.bit_count() != S.m:
                raise MatrixNotInvertibleError(
                    f"shift produced {kept.bit_count()} pivots for {S.m} edges; "
                    "the matrix cannot be invertible"
                )
            if kept not in families:
                edges = [col for t, col in enumerate(columns) if kept >> t & 1]
                families[kept] = UniformHypergraph(S.n, S.k, tuple(edges))
            shifted.append(families[kept])
        out.append(shifted)
    return out


def exterior_shift_profile(
    g: GenericMatrix, S: UniformHypergraph, ctx: FieldContext
) -> tuple[tuple[int, ...], UniformHypergraph]:
    """Rank sequence over lex columns plus the shifted hypergraph.

    The rank sequence starts at 0 and increases by at most 1 per k-subset
    column; the shifted hypergraph collects the columns where it steps, so
    the sequence is read off the shifted family's edges.
    """
    (shifted,) = shift_layers(g, [S], ctx)
    edges = set(shifted.edges)
    steps = [col in edges for col in k_subsets(S.n, S.k)]
    return tuple(accumulate(steps, initial=0)), shifted


def shift_layers(
    g: GenericMatrix,
    layers: Sequence[UniformHypergraph],
    ctx: FieldContext,
) -> list[UniformHypergraph]:
    """Shift several families by the same matrix g.

    g is made concrete once for all layers; randomized runs draw one point
    with the budget summed over all layers.
    """
    families = _shift_families(g, layers, ctx, _lex_order)
    return [S if f is None else f[0] for S, f in zip(layers, families)]


def exterior_shift(
    g: GenericMatrix, S: UniformHypergraph, ctx: FieldContext
) -> UniformHypergraph:
    """Shift S by the matrix g: lex-first spanning columns of the compound."""
    return exterior_shift_profile(g, S, ctx)[1]


@lru_cache(maxsize=PARTIAL_SHIFT_CACHE_SIZE)
def _partial_shift_cached(S: UniformHypergraph, w: Permutation, ctx: FieldContext):
    return exterior_shift_profile(cell_representative(w), S, ctx)


def partial_shift(
    S: UniformHypergraph, w: Permutation, ctx: FieldContext
) -> UniformHypergraph:
    """Shift by the canonical Bruhat-cell representative of w.

    The identity permutation leaves S unchanged; the longest permutation
    gives the full shift; in between, longer permutations push S further
    toward its fully shifted image.
    """
    return partial_shift_profile(S, w, ctx)[1]


def partial_shift_profile(
    S: UniformHypergraph, w: Permutation, ctx: FieldContext
) -> tuple[tuple[int, ...], UniformHypergraph]:
    """Rank sequence and shifted family of the partial shift of S by w."""
    if w.n != S.n:
        raise MathPreconditionError("permutation size must match the hypergraph")
    return _partial_shift_cached(S, w, ctx)


def full_shift(S: UniformHypergraph, ctx: FieldContext) -> UniformHypergraph:
    """Shift by the longest permutation; the result is shifted."""
    return partial_shift(S, Permutation.longest(S.n), ctx)


# ------------------------------------------------------ all cells at once


@lru_cache(maxsize=16)
def _unipotent(n: int) -> GenericMatrix:
    """``generic_unipotent(n)``, whose entries every call on n vertices keys
    its point by: they are built and sorted once per n, not once per call."""
    return generic_unipotent(n)


@lru_cache(maxsize=16)
def _cell_column_orders(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The order in which every cell offers the columns of compound(U).

    Row i belongs to the i-th permutation w of ``all_permutations(n)``.  Its
    t-th entry is the lex index of w^-1 applied to the t-th k-subset: column
    t of compound(U . P_w) is that column of compound(U), up to sign.  The
    table depends on (n, k) alone, so the most recent 16 are kept for the
    whole process: every family of a graph build or a scan reuses them.
    """
    columns = k_subsets(n, k)
    index = {col: i for i, col in enumerate(columns)}
    elements = [subset_elements(col) for col in columns]
    table = []
    for w in all_permutations(n):
        preimage_bit = [0] * (n + 1)
        for i, image in enumerate(w.images):
            preimage_bit[image] = 1 << i
        bits = preimage_bit.__getitem__
        table.append(tuple([index[sum(map(bits, elems))] for elems in elements]))
    return tuple(table)


def all_partial_shifts(
    layers: Sequence[UniformHypergraph], ctx: FieldContext
) -> dict[tuple[UniformHypergraph, ...], list[Permutation]]:
    """The partial shifts of the layers by every w, grouped by their outcome.

    The randomized backend draws one point for a generic unipotent U, keyed
    and budgeted over the layers as in ``shift_layers``, evaluates U once
    and builds ``M_S = compound(U)[S, :]`` once per layer.  The shift of S
    by w is then the lex-first column basis of M_S with lex column sigma
    read as column w^-1(sigma).  This is exact:

    - ``coset_normalize`` (in ``tests/lemmas.py``, with its tests) splits
      U.P_w into u'.P_w.u'', with u' supported on the inversions of w and
      u'' upper unitriangular.  Setting U's entries off the inversions to
      zero makes u' = U, so u' is generic in its cell.
    - The k-th compound of an upper triangular matrix is upper triangular in
      lex order, so right-multiplying by u'' keeps every prefix column span
      of the compound rows S.  The shift by U.P_w therefore equals the
      partial shift by w.
    - Column sigma of compound(U.P_w) is +-column w^-1(sigma) of
      compound(U).  Each cell's rank decisions are one nonzero polynomial in
      U's entries of degree at most d_S = k * m * C(n, k), the budget of
      the cell representative (see ``_evaluation_bounds``).  So the
      per-cell error bound and the (n! - 1)-fold union bound over a
      family's cells are those of per-cell shifting, over the same field.  In characteristic 0 that is
      GF(p) for the Mersenne prime p that a cell representative gets too:
      U and the representatives have c = 1, so a decision is a minor of
      order r <= m of the m rows of compound(U), whose coefficient 1-norm
      is at most m! * (k!)^m < p, and it is nonzero mod p exactly when it
      is nonzero.

    The cells run through the kernel of ``shift_layers``, with the cell
    orders in place of the lex order, and every greedy decision is memoized
    across them (see ``field.lex_first_bases``).  The cell orders of an
    (n, k) come from ``_cell_column_orders``, which keeps them across calls,
    and are built only for layers that do not shift to themselves.  The
    symbolic backend shifts cell by cell with ``shift_layers`` and stays the
    independent oracle.

    The result maps each distinct tuple of shifted layers to its witnesses,
    the cells that yield it, in ``all_permutations`` order.  Tuples come in
    the order of their first witness, so the identity's, ``tuple(layers)``,
    comes first.  A graph build reads a node's arrows off it, and a scan
    assembles each shifted complex once.  The symbolic backend groups the
    cells by equality.  The randomized backend groups them by the ids of
    their families, which ``_shift_families`` shares per kept set, so no
    family is hashed or compared per cell.
    """
    if not layers:
        raise MathPreconditionError("all_partial_shifts needs at least one layer")
    n = layers[0].n
    if any(S.n != n for S in layers):
        raise MathPreconditionError("layers live on different vertex sets")
    perms = all_permutations(n)
    out: dict[tuple[UniformHypergraph, ...], list[Permutation]] = {}
    if ctx.backend is Backend.SYMBOLIC:
        for w in perms:
            shifted = tuple(shift_layers(cell_representative(w), layers, ctx))
            out.setdefault(shifted, []).append(w)
        return out
    families = _shift_families(_unipotent(n), layers, ctx, _cell_column_orders)
    columns = [[S] * len(perms) if f is None else f for S, f in zip(layers, families)]
    ids = zip(*[map(id, column) for column in columns])
    groups: dict[tuple[int, ...], list[Permutation]] = {}
    for w, key, shifted in zip(perms, ids, zip(*columns)):
        witnesses = groups.get(key)
        if witnesses is None:
            out[shifted] = groups[key] = [w]
        else:
            witnesses.append(w)
    return out


def combinatorial_shift(S: UniformHypergraph, t: Permutation) -> UniformHypergraph:
    """Set-replacement shift: move j to i in each edge when the image is new."""
    pair = t.as_transposition()
    if pair is None:
        raise MathPreconditionError(
            f"combinatorial shift needs a transposition, got {t.one_line()}"
        )
    i, j = pair
    bit_j = 1 << (j - 1)
    swap = 1 << (i - 1) | bit_j
    present = set(S.edges)
    out = []
    for edge in S.edges:
        # an edge holding j but not i trades j for i
        moved = edge ^ swap
        out.append(moved if edge & swap == bit_j and moved not in present else edge)
    return UniformHypergraph(S.n, S.k, tuple(out))
