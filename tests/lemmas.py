"""Lemmas about subsets, cells and products of cell representatives.

No command runs these functions, so they are not package API: their tests
are the executable proofs of facts the package relies on.  For example,
``coset_normalize`` backs the exactness argument of
``shiftlab.shiftcore.all_partial_shifts``.  Tests import them from here, as
they import the oracles of ``conftest``.
"""

from __future__ import annotations

from math import comb
from typing import Sequence

from shiftlab import GenericMatrix, MultiPoly, Permutation, UniformHypergraph
from shiftlab import ScanReport, all_permutations
from shiftlab import subset_elements, subset_mask
from shiftlab import InternalError, MathPreconditionError, MatrixNotInvertibleError
from shiftlab import cell_representative, matrix_from_entries, matrix_product
from shiftlab.field import Monomial, _norm_terms, _var_key
from shiftlab.field import lex_first_bases, rational_rank_field


def dominates(sigma: int, tau: int) -> bool:
    """True iff the bitmask sigma is at most tau coordinate by coordinate.

    Both sets must have the same cardinality; equivalent formulation:
    for every v, sigma has at least as many elements <= v as tau does.
    """
    if sigma.bit_count() != tau.bit_count():
        raise MathPreconditionError("domination compares equal-size subsets only")
    return all(a <= b for a, b in zip(subset_elements(sigma), subset_elements(tau)))


def subset_rank(n: int, s: int) -> int:
    """Position of the bitmask ``s`` in the lexicographic enumeration of its (n, k)."""
    rank, prev = 0, 0
    remaining = s.bit_count()
    for v in subset_elements(s):
        for u in range(prev + 1, v):
            rank += comb(n - u, remaining - 1)
        prev = v
        remaining -= 1
    return rank


def subset_unrank(n: int, k: int, rank: int) -> int:
    if not 0 <= rank < comb(n, k):
        raise MathPreconditionError(f"rank {rank} out of range for C({n},{k})")
    elements = []
    v = 1
    while len(elements) < k:
        block = comb(n - v, k - len(elements) - 1)
        if rank < block:
            elements.append(v)
        else:
            rank -= block
        v += 1
    return subset_mask(n, elements)


def hypergraph_lex_compare(a: UniformHypergraph, b: UniformHypergraph) -> int:
    """-1, 0 or 1; the smaller family owns the lex-least edge they disagree on."""
    if (a.n, a.k) != (b.n, b.k):
        raise MathPreconditionError("hypergraphs live on different vertex sets")
    sym = set(a.edges) ^ set(b.edges)
    if not sym:
        return 0
    return -1 if min(sym, key=subset_elements) in a.edges else 1


def reduced_word(w: Permutation) -> tuple[int, ...]:
    """One reduced word for w (empty for the identity)."""
    suffix: list[int] = []
    while True:
        img = w.images
        for i in range(1, w.n):
            # right-multiplying by simple(i) shortens w iff value i sits
            # after value i + 1 in one-line notation
            if img.index(i) > img.index(i + 1):
                suffix.append(i)
                w = w * Permutation.simple(w.n, i)
                break
        else:
            return tuple(reversed(suffix))


def per_cell(grouped: dict) -> dict[Permutation, list[UniformHypergraph]]:
    """``all_partial_shifts``'s result cell by cell, in ``all_permutations`` order."""
    cells = {w: list(shifted) for shifted, ws in grouped.items() for w in ws}
    return {w: cells[w] for w in all_permutations(next(iter(cells)).n)}


def pivot_rows(state) -> list[int]:
    """The pivot row of each pivot of a ``ProfileState``, Bareiss or Gauss."""
    return [pivot[0] for pivot in state._stack]


def has_violations(report: ScanReport) -> bool:
    """True iff a scan found a Betti drop or a contracted graph with a cycle."""
    return any(c.violations for c in report.complexes) or any(
        not g.acyclic for g in report.graphs
    )


def inversions_of_product(v: Permutation, w: Permutation) -> frozenset[tuple[int, int]]:
    """Inversion set of v * w computed without forming the product.

    It is the symmetric difference of the inversions of v and the inversions
    of w pulled back through v (each pair relabeled by the inverse of v and
    reordered increasingly).  The lengths of v and w add up exactly when the
    two sets are disjoint.
    """
    if v.n != w.n:
        raise MathPreconditionError("permutations act on different ground sets")
    vinv = v.inverse()
    pulled = frozenset(
        (a, b) if a < b else (b, a)
        for a, b in (
            (vinv.apply(i), vinv.apply(j)) for (i, j) in w.inversions()
        )
    )
    return v.inversions() ^ pulled


def map_variables(poly: MultiPoly, mapping) -> MultiPoly:
    """Apply a relabeling var -> var to every monomial."""
    out: dict[Monomial, int] = {}
    for mono, c in poly.terms.items():
        new = tuple(
            sorted(
                ((mapping(var), e) for var, e in mono),
                key=lambda item: _var_key(item[0]),
            )
        )
        out[new] = out.get(new, 0) + c
    return MultiPoly._raw(_norm_terms(out, 0))


def identity_matrix(n: int) -> GenericMatrix:
    return matrix_from_entries(
        [[1 if i == j else 0 for j in range(n)] for i in range(n)],
        unit_determinant=True,
    )


def matrix_difference(a: GenericMatrix, b: GenericMatrix) -> GenericMatrix:
    if a.n != b.n:
        raise MathPreconditionError("matrix size mismatch in difference")
    rows = tuple(
        tuple(x - y for x, y in zip(ra, rb))
        for ra, rb in zip(a.entries, b.entries)
    )
    return GenericMatrix(n=a.n, entries=rows)


def twist(m: GenericMatrix, v: Permutation) -> GenericMatrix:
    """Relabel every variable x_{ij} to x_{i.v^-1, j.v^-1} in every entry.

    On the fully generic matrix this variable relabeling coincides with
    conjugation by the permutation matrix of v.
    """
    if v.n != m.n:
        raise MathPreconditionError("permutation size must match the matrix")
    vinv = v.inverse()

    def relabel(var):
        i, j = var
        return (vinv.apply(i), vinv.apply(j))

    rows = tuple(
        tuple(map_variables(entry, relabel) for entry in row) for row in m.entries
    )
    return GenericMatrix(
        n=m.n,
        entries=rows,
        unit_determinant=m.unit_determinant,
        known_invertible=m.known_invertible,
    )


def _southwest_ranks(rows: list[list], domain) -> list[list[int]]:
    """R[i][j] = rank of the block with rows i..n and columns 1..j (1-based)."""
    n = len(rows)
    table = [[0] * (n + 1) for _ in range(n + 2)]
    for i in range(n, 0, -1):
        block = rows[i - 1 :]
        (kept,) = lex_first_bases(list(zip(*block)), len(block), domain, [range(n)])
        for j in range(n):
            table[i][j + 1] = table[i][j] + (kept >> j & 1)
    return table


def bruhat_cell(rows: Sequence[Sequence], domain=None) -> Permutation:
    """The unique permutation whose double coset contains the given matrix.

    Works on a concrete invertible matrix over a field, by default an
    integer matrix over Q, ranked in the field of ``rational_rank_field``.
    Position (i, i.w) is detected where the southwest rank table steps in
    both directions at once; this profile is invariant under multiplying
    by upper triangular invertible matrices on either side.
    """
    mat = [list(row) for row in rows]
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise MathPreconditionError("bruhat_cell needs a square matrix")
    dom = domain if domain is not None else rational_rank_field(zip(*mat))
    table = _southwest_ranks(mat, dom)
    if table[1][n] < n:
        raise MatrixNotInvertibleError("matrix is singular")
    images = [0] * n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            step = (
                table[i][j]
                - table[i + 1][j]
                - table[i][j - 1]
                + table[i + 1][j - 1]
            )
            if step == 1:
                if images[i - 1]:
                    raise InternalError("ambiguous Bruhat cell profile")
                images[i - 1] = j
    if sorted(images) != list(range(1, n + 1)):
        raise InternalError("Bruhat cell profile is not a permutation")
    return Permutation(tuple(images))


def coset_normalize(u_rows: Sequence[Sequence], w: Permutation, domain):
    """Split u.w into u'.w.u'' with u' supported on the inversions of w.

    ``u_rows`` is a concrete unipotent upper-triangular matrix over the
    ring ``domain``.  Entries at non-inversion positions are cleared with
    elementary column operations; each one is compensated on the right of
    w, so u.w = u'.w.u'' holds exactly, with u'' again unipotent
    upper-triangular.
    """
    n = w.n
    u = [list(row) for row in u_rows]
    if len(u) != n or any(len(row) != n for row in u):
        raise MathPreconditionError("matrix size must match the permutation")
    for i in range(n):
        if not domain.is_zero(domain.sub(u[i][i], domain.one)):
            raise MathPreconditionError("matrix is not unipotent")
        for j in range(i):
            if not domain.is_zero(u[i][j]):
                raise MathPreconditionError("matrix is not upper triangular")
    inv = w.inversions()
    upp = [[domain.one if i == j else domain.zero for j in range(n)] for i in range(n)]
    for l in range(2, n + 1):
        for k in range(l - 1, 0, -1):
            if (k, l) in inv:
                continue
            gamma = u[k - 1][l - 1]
            if domain.is_zero(gamma):
                continue
            # u <- u * e_{kl}(-gamma): column l picks up -gamma * column k
            for i in range(n):
                u[i][l - 1] = domain.sub(u[i][l - 1], domain.mul(gamma, u[i][k - 1]))
            # compensate on the right: u'' <- e_{k.w, l.w}(gamma) * u''
            kw, lw = w.apply(k) - 1, w.apply(l) - 1
            for j in range(n):
                upp[kw][j] = domain.add(upp[kw][j], domain.mul(gamma, upp[lw][j]))
    return u, upp


def product_defect(v: Permutation, w: Permutation) -> GenericMatrix:
    """Difference between the product of cell representatives and the joint one.

    Requires additive lengths (the product vw must extend v in the right
    weak order).  Returns cell_representative(v) * twist of
    cell_representative(w) minus cell_representative(v*w), after verifying
    the difference against its closed-form double-sum expression: entry
    (i, k) sums x_{i, j.v^-1} * x_{j.v^-1, k.(vw)^-1} over all j for which
    (i, j.v^-1) inverts v and (j, k.w^-1) inverts w.
    """
    if v.n != w.n:
        raise MathPreconditionError("permutation sizes differ")
    vw = v * w
    if vw.length() != v.length() + w.length():
        raise MathPreconditionError(
            "product defect requires additive lengths "
            f"({v.length()} + {w.length()} != {vw.length()})"
        )
    n = v.n
    product = matrix_product(cell_representative(v), twist(cell_representative(w), v))
    defect = matrix_difference(product, cell_representative(vw))
    v_inv, w_inv = v.inverse(), w.inverse()
    vw_inv = vw.inverse()
    inv_v, inv_w = v.inversions(), w.inversions()
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            expected = MultiPoly.zero()
            for j in range(1, n + 1):
                jv = v_inv.apply(j)
                if i >= jv or (i, jv) not in inv_v:
                    continue
                kw = w_inv.apply(k)
                if j >= kw or (j, kw) not in inv_w:
                    continue
                expected = expected + MultiPoly.variable(i, jv) * MultiPoly.variable(
                    jv, vw_inv.apply(k)
                )
            if defect.entries[i - 1][k - 1] != expected:
                raise InternalError(
                    "product defect disagrees with its closed form at "
                    f"({i}, {k})"
                )
    return defect
