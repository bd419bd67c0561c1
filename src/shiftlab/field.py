"""Exact coefficient arithmetic for the two shifting backends.

The symbolic backend works with sparse multivariate polynomials over the
integers or GF(p), stored with packed monomials under a per-call degree
bound, and decides linear dependence by fraction-free Bareiss elimination
with checked exact division, so every zero test is exact.  The elimination
skips the updates whose result it already knows, on zero entries and in
steps that only rescale the column; a product of two monomials is one
addition, and a division by one term needs no heap.  Everything else
eliminates by Gauss over a concrete field, and ``choose_field`` is the one
place that field is picked: GF(p^e) in characteristic p, and in
characteristic 0 GF(2^q - 1), the first Mersenne prime of a fixed table
above the bounds the caller proves.  The randomized backend draws its
points there, from a domain large enough for the Schwartz-Zippel bound (see
``shiftcore._evaluation_bounds``), and ranks over Q run there too, with a
prime above Hadamard's bound on every minor (``rational_rank_field``).
Randomized runs derive every sample from a SHA-256 counter stream keyed by
the seed, the characteristic, the caller's key and the attempt, which makes
results reproducible and independent of call order.  The modulus of
GF(p^e) is the first candidate from a seeded stream that passes Ben-Or's
irreducibility test, run in the candidate's own ring GF(p)[x]/(f) with the
multiply and the inverse of the field it would define: a gcd with f is 1
exactly when the ring has an inverse.  Each element encoding has one
extended Euclid, which cancels the remainder's leading term and updates its
cofactor in the same step, and which reports a non-unit instead of an
inverse.  GF(2^e) keeps one coefficient per slot of an int, a byte or two
wide, so a product is three integer multiplies with Barrett's reduction,
and its Euclid shifts and XORs the coefficient bits; GF(p^e) for odd p runs
it on coefficient lists.

All scalars are plain Python data (ints, tuples of ints); each concrete
domain is a small object bundling the ring operations for them.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Iterable, Mapping, Sequence

from .errors import (
    InternalError,
    InvalidCharacteristicError,
    MathPreconditionError,
)

__all__ = [
    "is_prime",
    "Characteristic",
    "Backend",
    "FieldContext",
    "make_field_context",
    "DEFAULT_EPSILON",
    "PrimeField",
    "BinaryExtensionField",
    "PrimeExtensionField",
    "gf_extension",
    "MERSENNE_EXPONENTS",
    "choose_field",
    "rational_rank_field",
    "MultiPoly",
    "PolynomialRing",
    "EvalPoint",
    "sample_eval_point",
    "DeterministicStream",
    "matrix_rank",
    "lex_first_bases",
    "ProfileState",
]

DEFAULT_EPSILON = Fraction(1, 2**30)


# ------------------------------------------------------------- primality

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Miller-Rabin with a fixed base set, deterministic below 3.3e24."""
    if m < 2:
        return False
    for p in _MR_BASES:
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Characteristic:
    """Zero or a prime; validated on construction."""

    value: int

    def __post_init__(self):
        if self.value != 0 and not is_prime(self.value):
            raise InvalidCharacteristicError(
                f"characteristic must be 0 or prime, got {self.value}"
            )

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __repr__(self) -> str:
        return f"Characteristic({self.value})"


class Backend(Enum):
    SYMBOLIC = "symbolic"
    RANDOMIZED = "randomized"


@dataclass(frozen=True)
class FieldContext:
    """Everything a shifting call needs to know about its arithmetic.

    Immutable; operations taking a context are pure functions of
    (inputs, context).
    """

    characteristic: Characteristic
    backend: Backend
    seed: int = 0
    epsilon: Fraction = DEFAULT_EPSILON


def make_field_context(
    characteristic: int | Characteristic = 0,
    backend: Backend | str = Backend.RANDOMIZED,
    seed: int = 0,
    epsilon: Fraction = DEFAULT_EPSILON,
) -> FieldContext:
    if not isinstance(characteristic, Characteristic):
        characteristic = Characteristic(int(characteristic))
    if isinstance(backend, str):
        try:
            backend = Backend(backend.lower())
        except ValueError as exc:
            raise MathPreconditionError(f"unknown backend {backend!r}") from exc
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise MathPreconditionError(f"epsilon must lie in (0, 1), got {epsilon}")
    return FieldContext(
        characteristic=characteristic,
        backend=backend,
        seed=int(seed),
        epsilon=epsilon,
    )


# ------------------------------------------------------------ domains


class PrimeField:
    """GF(p) with elements written as ints in [0, p)."""

    is_field = True

    def __init__(self, p: int):
        if not is_prime(p):
            raise InvalidCharacteristicError(f"{p} is not prime")
        self.p = p
        self.e = 1
        self.size = p
        self.characteristic = p
        self.modulus = None
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def is_zero(self, a):
        return a == 0

    def inv(self, a):
        if a % self.p == 0:
            raise MathPreconditionError("division by zero in GF(p)")
        return pow(a, -1, self.p)

    def from_int(self, c):
        return c % self.p

    def sample(self, index: int):
        return index % self.p

    def __repr__(self) -> str:
        return f"GF({self.p})"


# bin() digits to byte values 0/1, and back to digits for int(..., 2)
_SPREAD = bytes.maketrans(b"01", b"\x00\x01")
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


class BinaryExtensionField:
    """GF(2^e); the x^t coefficient of an element is the low bit of its slot t.

    A slot is W = 8w bits, w the fewest bytes with 2^W > e + 1: one byte up
    to e = 254.  ``pack`` and ``unpack`` convert from and to the bit string,
    bit t for x^t, in which ``modulus`` is given.  Slot t of the integer
    product of two elements counts the pairs i + j = t of coefficients 1,
    at most e < 2^W, so no slot carries, and its low bit is the product in
    GF(2)[x].  Barrett's reduction (CRYPTO 1986) is exact in GF(2)[x]: with
    mu = floor(x^(2e) / m), the quotient of c by m is floor(floor(c / x^e)
    * mu / x^e) for deg c < 2e, and those two products count at most e
    pairs per slot too.
    """

    is_field = True
    characteristic = 2

    def __init__(self, e: int, modulus: int):
        if modulus.bit_length() != e + 1:
            raise MathPreconditionError("modulus degree does not match extension degree")
        self.p = 2
        self.e = e
        self.size = 1 << e
        self.modulus = modulus
        self.zero = 0
        self.one = 1
        self._slot_bytes = w = ((e + 1).bit_length() + 7) // 8
        self._shift = 8 * w * e
        mu, r = 0, 1 << 2 * e  # floor(x^(2e) / m) by long division
        while r.bit_length() > e:
            s = r.bit_length() - 1 - e
            mu, r = mu | 1 << s, r ^ modulus << s
        self._mu = self.pack(mu)
        self._m = self.pack(modulus)
        self._lsb_e = self.pack((1 << e) - 1)
        self._lsb = self.pack((1 << 2 * e) - 1)

    def pack(self, bits: int) -> int:
        """The element whose x^t coefficient is bit t of ``bits``."""
        w = self._slot_bytes
        digits = bin(bits)[2:].encode().translate(_SPREAD)
        slots = bytearray(w * len(digits))
        slots[w - 1 :: w] = digits
        return int.from_bytes(slots, "big")

    # the index of a seeded draw is the bit string of its element
    sample = pack

    def unpack(self, a: int) -> int:
        """The bit string of the element a, bit t holding its x^t coefficient."""
        w = self._slot_bytes
        return int(a.to_bytes(w * self.e, "big")[w - 1 :: w].translate(_DIGITS), 2)

    def add(self, a, b):
        return a ^ b

    sub = add

    @staticmethod
    def neg(a):
        return a

    @staticmethod
    def is_zero(a):
        return a == 0

    def mul(self, a, b):
        lsb, s = self._lsb, self._shift
        c = a * b & lsb
        q = ((c >> s) * self._mu >> s) & lsb
        return (c + q * self._m) & self._lsb_e

    def inv(self, a):
        if a == 0:
            raise MathPreconditionError("division by zero in GF(2^e)")
        inverse = self.unit_inverse(a)
        if inverse is None:
            raise InternalError("modulus of GF(2^e) is not irreducible")
        return inverse

    def unit_inverse(self, a):
        """a^-1 in GF(2)[x]/(modulus), or None when a is 0 or shares a factor with it."""
        # Extended Euclid in GF(2)[x] on bit strings, one shift-and-XOR step
        # at a time on the remainder u and its cofactor g (g * a = u mod m,
        # and likewise h * a = v).  deg g + deg v and deg h + deg u stay at
        # most e, and v, the modulus or a former u, is never 0 or 1, so g
        # ends reduced, below degree e.
        u, v, g, h = self.unpack(a), self.modulus, 1, 0
        du, dv = u.bit_length(), v.bit_length()
        while du > 1:
            j = du - dv
            if j < 0:
                u, v, g, h, du, dv, j = v, u, h, g, dv, du, -j
            u ^= v << j
            g ^= h << j
            du = u.bit_length()
        return self.pack(g) if u == 1 else None

    @staticmethod
    def from_int(c):
        return c & 1

    def __repr__(self) -> str:
        return f"GF(2^{self.e})"


class PrimeExtensionField:
    """GF(p^e) for odd p; elements are coefficient tuples of length e."""

    is_field = True

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        if len(modulus) != e + 1 or modulus[-1] != 1:
            raise MathPreconditionError("modulus must be monic of degree e")
        self.p = p
        self.e = e
        self.size = p**e
        self.characteristic = p
        self.modulus = modulus
        self.zero = (0,) * e
        self.one = (1,) + (0,) * (e - 1)

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def is_zero(self, a):
        return not any(a)

    def mul(self, a, b):
        p, e = self.p, self.e
        acc = [0] * (2 * e - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    acc[i + j] += x * y
        # reduce degree >= e terms using x^e = -(modulus minus leading term)
        mod = self.modulus
        for i in range(2 * e - 2, e - 1, -1):
            c = acc[i] % p
            if c:
                for j in range(e):
                    acc[i - e + j] -= c * mod[j]
            acc[i] = 0
        return tuple(x % p for x in acc[:e])

    def inv(self, a):
        if self.is_zero(a):
            raise MathPreconditionError("division by zero in GF(p^e)")
        inverse = self.unit_inverse(a)
        if inverse is None:
            raise InternalError("modulus of GF(p^e) is not irreducible")
        return inverse

    def unit_inverse(self, a):
        """a^-1 in GF(p)[x]/(modulus), or None when a is 0 or shares a factor with it."""
        # The extended Euclid of BinaryExtensionField on coefficient lists,
        # constant term first: each step cancels the leading term of the
        # remainder u with c x^j v and updates its cofactor g the same way
        # (g * a = u mod m, and likewise h * a = v).  The list lengths keep
        # len g + len v and len h + len u at most e + 2, and v, the modulus
        # or a former u, is never constant, so g ends below degree e.
        p, e = self.p, self.e
        u, v, g, h = list(a), list(self.modulus), [1], []
        while u and not u[-1]:
            u.pop()
        while len(u) > 1:
            j = len(u) - len(v)
            if j < 0:
                u, v, g, h, j = v, u, h, g, -j
            c = u[-1] * pow(v[-1], -1, p) % p
            for i, y in enumerate(v, j):
                u[i] = (u[i] - c * y) % p
            g += [0] * (len(h) + j - len(g))
            for i, y in enumerate(h, j):
                g[i] = (g[i] - c * y) % p
            while u and not u[-1]:
                u.pop()
        if not u:
            return None
        c = pow(u[0], -1, p)
        return tuple(x * c % p for x in g) + (0,) * (e - len(g))

    def from_int(self, c):
        return (c % self.p,) + (0,) * (self.e - 1)

    def sample(self, index: int):
        digits = []
        for _ in range(self.e):
            index, d = divmod(index, self.p)
            digits.append(d)
        return tuple(digits)

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.e})"


def _extension_ring(p: int, coeffs: Sequence[int]):
    """GF(p)[x]/(f) for f monic with ``coeffs`` constant first; a field iff f is irreducible."""
    if p == 2:
        return BinaryExtensionField(len(coeffs) - 1, int("".join(map(str, coeffs[::-1])), 2))
    return PrimeExtensionField(p, len(coeffs) - 1, tuple(coeffs))


def _is_irreducible(coeffs: list[int], p: int) -> bool:
    """Ben-Or's irreducibility test for a monic polynomial f over GF(p).

    f of degree e is irreducible iff gcd(f, x^(p^i) - x) = 1 for every
    i <= e/2, since a reducible f has an irreducible factor of some degree
    i <= e/2, which divides x^(p^i) - x.  Both run in the ring
    GF(p)[x]/(f), with the same multiply as the field that f defines:
    x^(p^i) mod f comes from i Frobenius steps y -> y^p, and gcd(f, h) = 1
    for deg h < e exactly when h is a unit there, which the ring's one
    extended Euclid decides.  The test returns at the first y - x that is
    not a unit.
    """
    e = len(coeffs) - 1
    if e < 1 or coeffs[-1] != 1:
        return False
    if e == 1:
        return True
    ring = _extension_ring(p, coeffs)
    x = y = ring.sample(p)  # the class of x: index p is the digit string "10"
    for _ in range(e // 2):
        y = _domain_pow(ring, y, p)
        if ring.unit_inverse(ring.sub(y, x)) is None:
            return False
    return True


def _find_irreducible(p: int, e: int, seed: int) -> tuple[int, ...]:
    """Deterministic rejection sampling of a monic irreducible of degree e."""
    stream = DeterministicStream("irreducible", p, e, seed)
    while True:
        coeffs = [stream.randbelow(p) for _ in range(e)] + [1]
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)


@lru_cache(maxsize=None)
def _gf_extension_cached(p: int, e: int, seed: int):
    if e == 1:
        return PrimeField(p)
    return _extension_ring(p, _find_irreducible(p, e, seed))


def gf_extension(p: int, min_size: int, seed: int = 0):
    """A field GF(p^e) of size at least ``min_size``, e minimal.

    The irreducible modulus is found deterministically from ``seed`` by
    rejection sampling with Ben-Or's irreducibility test, which runs in each
    candidate's own ring GF(p)[x]/(f) and rejects most candidates after a
    step or two; results are cached per (p, e, seed).
    """
    if not is_prime(p):
        raise InvalidCharacteristicError(f"{p} is not prime")
    if min_size < 2:
        min_size = 2
    e, size = 1, p
    while size < min_size:
        size *= p
        e += 1
    return _gf_extension_cached(p, e, seed)


# Exponents q of the Mersenne primes 2^q - 1 in which characteristic 0
# computes, in increasing order (see choose_field).
MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423)


@lru_cache(maxsize=len(MERSENNE_EXPONENTS))
def _mersenne_field(q: int) -> PrimeField:
    # PrimeField checks primality, which takes seconds for 2^4423 - 1
    return PrimeField((1 << q) - 1)


def choose_field(characteristic: int, size: int, coeff_bound: int = 0, seed: int = 0):
    """The concrete field in which a computation of a characteristic runs.

    Characteristic p gets GF(p^e) with at least ``size`` elements, e minimal
    (``gf_extension``, with the modulus drawn from ``seed``).  Characteristic
    0 gets GF(2^q - 1) for the first q of ``MERSENNE_EXPONENTS`` with
    2^q - 1 > max(size, coeff_bound): the integers 1..size lie in it as they
    are, and an integer of absolute value at most ``coeff_bound`` is zero in
    it only if it is 0.  A bound at or above the table's last prime raises
    MathPreconditionError, before any work.
    """
    if characteristic:
        return gf_extension(characteristic, size, seed)
    bound = max(size, coeff_bound)
    for q in MERSENNE_EXPONENTS:
        if bound < (1 << q) - 1:
            return _mersenne_field(q)
    raise MathPreconditionError(
        f"characteristic 0 needs a prime above a {bound.bit_length()}-bit bound; "
        f"the largest Mersenne prime used is 2^{MERSENNE_EXPONENTS[-1]} - 1"
    )


def rational_rank_field(columns: Iterable[Sequence[int]]) -> PrimeField:
    """A prime field in which a matrix of integer columns has its ranks over Q.

    Let t = min(rows, columns) and P the product of the t largest squared
    column norms, each zero norm counted as 1.  A nonzero minor M of the
    matrix is an integer of order at most t, and by Hadamard's inequality
    |M| is at most the product of the norms of its columns, each cut to the
    minor's rows.  A cut column has norm at most the whole one, and M's
    columns are nonzero, so each whole norm is at least 1; the product of
    at most t of them is then at most that of the t largest, and
    |M| <= isqrt(P).  The field is GF(p) with p > isqrt(P) from
    ``choose_field``, so p divides no nonzero minor.  The rank of every
    submatrix, the largest order of a nonzero minor in it, is then the same
    mod p as over Q, and so are the lex-first pivots, which are read off
    the ranks of column prefixes (modular rank as in Dumas, Saunders and
    Villard, J. Symbolic Comput. 32, 2001).  There is no failure
    probability.
    """
    norms, nrows = [], 0
    for column in columns:
        nrows = len(column)
        norms.append(sum(x * x for x in column) or 1)
    norms.sort(reverse=True)
    product = 1
    for norm in norms[:nrows]:
        product *= norm
    return choose_field(0, 0, isqrt(product))


# ------------------------------------------------------------ polynomials

# A variable is a pair (i, j) of 1-based matrix indices; a monomial is a
# tuple of ((i, j), exponent) pairs sorted by the column-major key (j, i).

Var = tuple[int, int]
Monomial = tuple[tuple[Var, int], ...]


def _var_key(var: Var) -> tuple[int, int]:
    return (var[1], var[0])


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    merged: dict[Var, int] = dict(m1)
    for var, e in m2:
        merged[var] = merged.get(var, 0) + e
    return tuple(sorted(merged.items(), key=lambda item: _var_key(item[0])))

def _mono_deg(m: Monomial) -> int:
    return sum(e for _, e in m)


def _norm_terms(terms: dict[Monomial, int], p: int) -> dict[Monomial, int]:
    if p:
        return {m: c % p for m, c in terms.items() if c % p}
    return {m: c for m, c in terms.items() if c}


class MultiPoly:
    """Sparse multivariate polynomial with integer coefficients.

    The operators always compute over the integers; ``reduce_mod(p)``
    reduces the coefficients.  Elimination does not run on this type:
    ``PolynomialRing.pack`` converts entries to packed monomials, with
    coefficients modulo p in characteristic p, and ``unpack`` converts
    results back.  Instances are treated as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, int] | None = None):
        self.terms = _norm_terms(terms, 0) if terms else {}

    @classmethod
    def _raw(cls, terms: dict[Monomial, int]) -> "MultiPoly":
        poly = cls.__new__(cls)
        poly.terms = terms
        return poly

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls._raw({})

    @classmethod
    def const(cls, c: int) -> "MultiPoly":
        return cls._raw({(): c} if c else {})

    @classmethod
    def variable(cls, i: int, j: int) -> "MultiPoly":
        if i < 1 or j < 1:
            raise MathPreconditionError(f"variable indices must be positive: ({i},{j})")
        return cls._raw({(((i, j), 1),): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; zero and constants report 0."""
        if not self.terms:
            return 0
        return max(_mono_deg(m) for m in self.terms)

    def variables(self) -> frozenset[Var]:
        return frozenset(var for m in self.terms for var, _ in m)

    def reduce_mod(self, p: int) -> "MultiPoly":
        return MultiPoly._raw(_norm_terms(self.terms, p))

    def evaluate(self, assignment: Mapping[Var, object], domain) -> object:
        total = domain.zero
        for mono, coeff in self.terms.items():
            val = domain.from_int(coeff)
            for var, e in mono:
                if var not in assignment:
                    raise MathPreconditionError(f"no value assigned to x{var}")
                val = domain.mul(val, _domain_pow(domain, assignment[var], e))
            total = domain.add(total, val)
        return total

    # integer-coefficient operator arithmetic

    def __add__(self, other) -> "MultiPoly":
        return _padd(self, _coerce(other))

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        return _padd(self, -_coerce(other))

    def __rsub__(self, other) -> "MultiPoly":
        return _padd(_coerce(other), -self)

    def __mul__(self, other) -> "MultiPoly":
        return _pmul(self, _coerce(other))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "MultiPoly":
        if e < 0:
            raise MathPreconditionError("negative polynomial power")
        result = MultiPoly.const(1)
        for _ in range(e):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.terms == MultiPoly.const(other).terms
        if isinstance(other, MultiPoly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms from largest to smallest monomial in the canonical order.

        The order is graded lexicographic with variables prioritized by the
        key (j, i), the order ``PolynomialRing`` packs its monomials in.
        """
        return sorted(
            self.terms.items(),
            key=lambda term: (
                _mono_deg(term[0]),
                tuple(((-j, -i), e) for (i, j), e in term[0]),
            ),
            reverse=True,
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, c in self.sorted_terms():
            names = []
            for (i, j), e in mono:
                name = f"x{i}{j}" if max(i, j) <= 9 else f"x({i},{j})"
                names.append(name if e == 1 else f"{name}^{e}")
            if not names:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(names))
            elif c == -1:
                parts.append("-" + "*".join(names))
            else:
                parts.append("*".join([str(c)] + names))
        return " + ".join(parts).replace("+ -", "- ")


def _coerce(value) -> MultiPoly:
    if isinstance(value, MultiPoly):
        return value
    if isinstance(value, int):
        return MultiPoly.const(value)
    raise TypeError(f"cannot mix {type(value).__name__} with MultiPoly")


def _padd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    if not f.terms:
        return g
    out = dict(f.terms)
    for m, c in g.terms.items():
        new = out.get(m, 0) + c
        if new:
            out[m] = new
        else:
            out.pop(m, None)
    return MultiPoly._raw(out)


def _pmul(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    out: dict[Monomial, int] = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            m = _mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return MultiPoly._raw(_norm_terms(out, 0))


class PolynomialRing:
    """Polynomials of total degree at most D in fixed variables, over Z or GF(p).

    An element is a dict ``{packed monomial: coefficient}`` without zero
    coefficients; in characteristic p every coefficient lies in [1, p).
    Elements are treated as immutable.  A packed monomial is one integer
    with a field of ``D.bit_length() + 1`` bits per variable, the first
    variable in ``_var_key`` order in the highest field, and the total
    degree in the bits above them all.  Integer comparison is then the
    graded lexicographic order, a product of monomials is an integer sum,
    and since no exponent exceeds D the top bit of every field is a guard:
    m2 divides m1 exactly when m1 - m2 borrows into no guard bit (Monagan
    and Pearce, "Sparse polynomial division using a heap", J. Symbolic
    Comput. 46, 2011).  A product of degree above D raises InternalError
    instead of spilling into the neighbouring field.

    Callers take D from the elimination they run.  Fraction-free Bareiss
    elimination on r rows whose entries have degree at most d keeps only
    minors of order at most r as intermediates (Sylvester's identity), so
    of degree at most r * d; the product formed before each exact division
    has at most twice that, and D = 2 * r * d covers the whole elimination.
    That includes ``ProfileState``'s merged zero-factor steps: the product
    piv_l * c[i] formed there is again a product of two minors of order at
    most r.  A product of two monomials is one addition, and a division by
    a single term maps each term directly, with no heap.  ``pack`` and
    ``unpack`` convert from and to ``MultiPoly``.
    """

    is_field = False
    zero: dict = {}

    def __init__(
        self, characteristic: int, variables: Iterable[Var], degree_bound: int
    ):
        if characteristic and not is_prime(characteristic):
            raise InvalidCharacteristicError(f"{characteristic} is not prime")
        if degree_bound < 0:
            raise MathPreconditionError("degree bound must be nonnegative")
        self.characteristic = characteristic
        self.degree_bound = degree_bound
        ordered = sorted(set(variables), key=_var_key)
        width = degree_bound.bit_length() + 1
        top = width * len(ordered)
        # (variable, shift) from the highest field down
        self._fields = tuple(
            (var, top - width * (t + 1)) for t, var in enumerate(ordered)
        )
        self._shift = dict(self._fields)
        self._width = width
        self._deg_shift = top
        self._limit = (degree_bound + 1) << top
        guard = 1 << (width - 1)
        self._guard = sum(guard << (width * t) for t in range(len(ordered) + 1))
        self.one = self.from_int(1)

    def pack(self, poly: MultiPoly) -> dict[int, int]:
        p, shift = self.characteristic, self._shift
        out = {}
        for mono, c in poly.terms.items():
            if p:
                c %= p
                if not c:
                    continue
            packed = deg = 0
            for var, e in mono:
                if var not in shift:
                    raise InternalError(f"x{var} is not a variable of {self!r}")
                packed += e << shift[var]
                deg += e
            if deg > self.degree_bound:
                raise InternalError(
                    f"monomial of degree {deg} exceeds the bound {self.degree_bound}"
                )
            out[packed + (deg << self._deg_shift)] = c
        return out

    def unpack(self, a: dict[int, int]) -> MultiPoly:
        mask = (1 << self._width) - 1
        terms = {}
        for m, c in a.items():
            mono = []
            for var, s in self._fields:
                e = (m >> s) & mask
                if e:
                    mono.append((var, e))
            terms[tuple(mono)] = c
        return MultiPoly._raw(terms)

    @staticmethod
    def is_zero(a) -> bool:
        return not a

    def from_int(self, c: int) -> dict[int, int]:
        if self.characteristic:
            c %= self.characteristic
        return {0: c} if c else {}

    def add(self, a, b):
        return self._combine(a, b, 1)

    def sub(self, a, b):
        return self._combine(a, b, -1)

    def _combine(self, a, b, sign: int):
        """a + sign * b."""
        if not b:
            return a
        if not a:
            return self.neg(b) if sign < 0 else b
        p = self.characteristic
        out = a.copy()
        for m, c in b.items():
            if m in out:
                c = out[m] + sign * c
                if p:
                    c %= p
                if c:
                    out[m] = c
                else:
                    del out[m]
            else:
                out[m] = sign * c % p if p else sign * c
        return out

    def neg(self, a):
        p = self.characteristic
        if p:
            return {m: p - c for m, c in a.items()}
        return {m: -c for m, c in a.items()}

    def mul(self, a, b):
        if not a or not b:
            return {}
        p = self.characteristic
        if len(a) == 1 and len(b) == 1:
            # a product of two monomials is one addition, and over a prime
            # field nonzero coefficients have a nonzero product; past the
            # degree bound the check below raises
            ((ma, ca),), ((mb, cb),) = a.items(), b.items()
            m = ma + mb
            if m < self._limit:
                return {m: ca * cb % p if p else ca * cb}
        if max(a) + max(b) >= self._limit:
            raise InternalError(
                f"product exceeds the degree bound {self.degree_bound}"
            )
        out: dict[int, int] = {}
        get = out.get
        b_items = tuple(b.items())
        for ma, ca in a.items():
            for mb, cb in b_items:
                m = ma + mb
                out[m] = get(m, 0) + ca * cb
        if p:
            return {m: c % p for m, c in out.items() if c % p}
        return {m: c for m, c in out.items() if c}

    def exact_div(self, a, b):
        """a / b; raises InternalError unless b divides a exactly."""
        if not b:
            raise InternalError("polynomial division by zero")
        if not a:
            return a
        if len(b) == 1:
            return self._div_term(a, b)
        p, guard = self.characteristic, self._guard
        lead_b = max(b)
        lc_b = b[lead_b]
        inv_b = pow(lc_b, p - 2, p) if p else None
        tail = [(m, c) for m, c in b.items() if m != lead_b]
        rest = dict(a)
        # every monomial added to rest lies below the one just divided out,
        # so a max-heap of rest's monomials yields each leading term once
        heap = [-m for m in rest]
        heapq.heapify(heap)
        quotient = {}
        while heap:
            m = -heapq.heappop(heap)
            c = rest.pop(m)
            if p:
                c = c * inv_b % p
            elif c:
                c, r = divmod(c, lc_b)
                if r:
                    raise InternalError("inexact polynomial division (coefficient)")
            if not c:
                continue
            d = m - lead_b
            if d & guard:
                raise InternalError("inexact polynomial division (monomial)")
            quotient[d] = c
            for mb, cb in tail:
                mm = d + mb
                if mm in rest:
                    rest[mm] -= c * cb
                else:
                    rest[mm] = -c * cb
                    heapq.heappush(heap, -mm)
        return quotient

    def _div_term(self, a, b):
        """a / b for a single term b, term by term with no heap."""
        ((mb, cb),) = b.items()
        if mb == 0 and cb == 1:
            # elements are immutable, so a itself is the quotient
            return a
        p, guard = self.characteristic, self._guard
        inv_b = pow(cb, p - 2, p) if p else None
        quotient = {}
        for m, c in a.items():
            if p:
                c = c * inv_b % p
            else:
                c, r = divmod(c, cb)
                if r:
                    raise InternalError("inexact polynomial division (coefficient)")
            d = m - mb
            if d & guard:
                raise InternalError("inexact polynomial division (monomial)")
            quotient[d] = c
        return quotient

    def __repr__(self) -> str:
        base = "ZZ" if not self.characteristic else f"GF({self.characteristic})"
        return f"{base}[{len(self._fields)} variables, degree <= {self.degree_bound}]"


def _domain_pow(domain, a, e: int):
    if e == 0:
        return domain.one
    result = a
    for bit in bin(e)[3:]:
        result = domain.mul(result, result)
        if bit == "1":
            result = domain.mul(result, a)
    return result


# ------------------------------------------------------- randomized points


class DeterministicStream:
    """Counter-mode SHA-256 bit stream, a pure function of its key parts."""

    def __init__(self, *key_parts):
        self._key = hashlib.sha256(repr(key_parts).encode()).digest()
        self._counter = 0
        self._bits = 0
        self._nbits = 0

    def getbits(self, k: int) -> int:
        while self._nbits < k:
            block = hashlib.sha256(
                self._key + self._counter.to_bytes(8, "big")
            ).digest()
            self._counter += 1
            self._bits = (self._bits << 256) | int.from_bytes(block, "big")
            self._nbits += 256
        self._nbits -= k
        val = self._bits >> self._nbits
        self._bits &= (1 << self._nbits) - 1
        return val

    def randbelow(self, bound: int) -> int:
        if bound <= 0:
            raise MathPreconditionError("randbelow needs a positive bound")
        k = max(1, (bound - 1).bit_length())
        while True:
            v = self.getbits(k)
            if v < bound:
                return v


@dataclass
class EvalPoint:
    """A concrete substitution for the matrix indeterminates.

    A pure function of the arguments of ``sample_eval_point``; the domain
    holds the arithmetic the values live in.
    """

    assignment: dict[Var, object]
    domain: object


def sample_eval_point(
    ctx: FieldContext,
    variables: Iterable[Var],
    size: int,
    coeff_bound: int,
    key,
    attempt: int = 0,
) -> EvalPoint:
    """Draw a Schwartz-Zippel evaluation point for one randomized call.

    The point lies in ``choose_field(char, size, coeff_bound)``.  In
    characteristic zero its values are uniform integers from [1, size],
    which that Mersenne prime field holds as they are; in characteristic p
    they are uniform elements of GF(p^e), p^e >= size.  The caller derives
    both bounds from its error budget (see ``shiftcore._evaluation_bounds``),
    and ``key``, any value with a stable ``repr``, names what it evaluates:
    the values come from a stream keyed by (seed, characteristic, key,
    attempt), so equal arguments give equal points in any process.
    """
    char = ctx.characteristic.value
    domain = choose_field(char, size, coeff_bound, ctx.seed)
    stream = DeterministicStream("evalpoint", ctx.seed, char, key, attempt)
    ordered = sorted(set(variables))
    if char:
        values = [domain.sample(stream.randbelow(domain.size)) for _ in ordered]
    else:
        values = [1 + stream.randbelow(size) for _ in ordered]
    return EvalPoint(assignment=dict(zip(ordered, values)), domain=domain)


# --------------------------------------------------- rank-profile engines


class ProfileState:
    """Streaming column rank profile over a domain.

    Feed columns left to right with ``offer``; it answers whether the column
    increased the rank.  Its pivot is its first nonzero row once the earlier
    pivots are eliminated from it, so a caller chooses the pivots by the
    order of its rows, which changes no rank.

    Over a domain that is not a field, the polynomial ring of the symbolic
    backend, the update is fraction-free Bareiss against dense pivots
    ``(r, u, piv, prev)``: the column u as it was stacked at pivot row r,
    piv = u[r], and prev the piv of the pivot before (1 for the first).
    Each pivot in turn updates every live row i of an offered column c, one
    that is not yet a pivot row, to (piv * c[i] - u[i] * f) / prev with the
    factor f = c[r].  By Sylvester's identity every result is a minor of
    the columns offered so far, so the division is exact (Bareiss, Math.
    Comp. 22, 1968), and it is checked.  Updates whose result is known are
    skipped: with c[i] = 0 and f = 0 or u[i] = 0 the row stays 0, and with
    only one product zero the other is formed alone.  A step with f = 0
    only scales the live rows by piv / prev, and since each prev is the piv
    before it, a run of such steps k..l scales by piv_l / prev_k: one
    product and one exact division per nonzero row, applied before the next
    nonzero factor is read or the column is stacked, and not at all if the
    column is dependent.  The ring has no zero divisors, so the quotient is
    the one the steps give one by one, and the scale is nonzero, so zero
    tests inside the run are unchanged.  Every decision, pivot row and
    pivot is that of the dense update.

    Over a field it is Gauss-Jordan elimination against sparse pivots
    ``(pivot row, rows, values)``: a pivot column is zero at every earlier
    row, so it is stored as the later rows where it is nonzero and its
    entries there, and eliminating it touches only those rows.  It is
    stacked unnormalized, its values led by its entry at the pivot row.
    The first offer that applies it with a nonzero factor pops that
    leading value, inverts it and scales the rest in place, so the
    pivot is normalized to 1 at most once, for every twin that shares it.
    A pivot that no later offer applies is never inverted, and one with no
    later nonzero row stores nothing.

    Over GF(p) entries are plain ints and a row update is
    ``c[i] -= f * v``, with no ``%`` and no method call: k updates move an
    entry by less than k * p**2, a few machine words, which is cheaper than
    reducing each time.  Live entries stay congruent mod p to the residues
    they stand for, and are reduced only where read: as a pivot's factor
    ``f``, when tested for a pivot, or when stored or normalized as a value
    in [1, p).  Zero tests are exact in every case.

    Over GF(2^e) entries are packed ints whose zero is 0, so factors and
    the zero scan test an int for truth and a row update is
    ``c[i] ^= mul(f, v)``.  Only GF(p^e) for odd p, whose zero ``(0,) * e``
    is a true tuple, eliminates through the field's ``is_zero`` and ``sub``.
    The pivots, their normalization and every decision are the same in all
    three.

    The Bareiss update tests zeros for truth too: it serves the polynomial
    ring, whose zero is the empty dict, and rings of ints, whose zero is 0.
    """

    # many states are alive while all the cells of a family are shifted, so
    # instances carry no attribute dict
    __slots__ = ("dom", "m", "_stack", "_p", "_xor")

    def __init__(self, domain, nrows: int):
        self.dom = domain
        self.m = nrows
        self._stack: list[tuple] = []
        # the modulus selects the plain-int elimination over GF(p), and the
        # field type the XOR elimination over GF(2^e)
        self._p = domain.p if isinstance(domain, PrimeField) else None
        self._xor = isinstance(domain, BinaryExtensionField)

    @property
    def rank(self) -> int:
        return len(self._stack)

    def copy(self, rank: int | None = None) -> "ProfileState":
        """An independent state with the first ``rank`` pivots (default all).

        Offers change a stacked pivot only by normalizing it in place, which
        keeps the column it stands for up to a unit, and each pivot is
        eliminated against the earlier ones only, so the first ``rank``
        pivots are the state those offers left.  The twin shares the pivots,
        normalized or not, and costs one list copy.
        """
        twin = ProfileState.__new__(ProfileState)
        twin.dom, twin.m, twin._p, twin._xor = self.dom, self.m, self._p, self._xor
        twin._stack = self._stack[:rank]
        return twin

    def offer(self, column: Sequence) -> bool:
        if len(self._stack) >= self.m:
            return False
        c = list(column)
        if len(c) != self.m:
            raise InternalError("column length mismatch")
        if not self.dom.is_field:
            return self._offer_bareiss(c)
        return self._offer_gauss(c)

    def _offer_bareiss(self, c: list) -> bool:
        dom = self.dom
        mul, div = dom.mul, dom.exact_div
        live = list(range(self.m))
        # a run of zero-factor steps so far scales the live rows by num / den
        num = den = None
        for pr, u, piv, prev in self._stack:
            f = c[pr]
            if not f:
                # prev is the piv of the step before, so the run telescopes.
                # The row leaving here holds f = 0 and needs no scaling; no
                # later offer reads a stacked column at its earlier pivot rows
                live.remove(pr)
                if num is None:
                    den = prev
                num = piv
                continue
            if num is not None:
                self._scale(c, live, num, den)
                f, num = c[pr], None
            live.remove(pr)
            for i in live:
                ci, ui = c[i], u[i]
                if not ui:
                    if ci:
                        c[i] = div(mul(piv, ci), prev)
                elif not ci:
                    c[i] = dom.neg(div(mul(ui, f), prev))
                else:
                    c[i] = div(dom.sub(mul(piv, ci), mul(ui, f)), prev)
        pr = next((i for i in live if c[i]), None)
        if pr is None:
            return False
        if num is not None:
            self._scale(c, live, num, den)
        prev = self._stack[-1][2] if self._stack else dom.one
        self._stack.append((pr, c, c[pr], prev))
        return True

    def _scale(self, c: list, rows: list, num, den) -> None:
        """Replace c[i] by num * c[i] / den at each of ``rows``."""
        dom = self.dom
        for i in rows:
            if c[i]:
                c[i] = dom.exact_div(dom.mul(num, c[i]), den)

    def _offer_gauss(self, c: list) -> bool:
        dom, p = self.dom, self._p
        if p is not None:
            for pr, rows, vals in self._stack:
                f = c[pr] % p
                if f:
                    if len(vals) > len(rows):
                        inv = pow(vals.pop(0), -1, p)
                        vals[:] = [v * inv % p for v in vals]
                    for i, v in zip(rows, vals):
                        c[i] -= f * v
                    c[pr] = 0
            nonzero = [i for i, x in enumerate(c) if x % p]
            if not nonzero:
                return False
            pr, rows, vals = nonzero[0], nonzero[1:], []
            if rows:
                vals = [c[i] % p for i in nonzero]
        else:
            mul = dom.mul
            if self._xor:
                for pr, rows, vals in self._stack:
                    f = c[pr]
                    if f:
                        if len(vals) > len(rows):
                            inv = dom.inv(vals.pop(0))
                            vals[:] = [mul(v, inv) for v in vals]
                        for i, v in zip(rows, vals):
                            c[i] ^= mul(f, v)
                        c[pr] = 0
                nonzero = [i for i, x in enumerate(c) if x]
            else:
                sub, is_zero = dom.sub, dom.is_zero
                for pr, rows, vals in self._stack:
                    f = c[pr]
                    if not is_zero(f):
                        if len(vals) > len(rows):
                            inv = dom.inv(vals.pop(0))
                            vals[:] = [mul(v, inv) for v in vals]
                        for i, v in zip(rows, vals):
                            c[i] = sub(c[i], mul(f, v))
                        c[pr] = dom.zero
                nonzero = [i for i, x in enumerate(c) if not is_zero(x)]
            if not nonzero:
                return False
            pr, rows, vals = nonzero[0], nonzero[1:], []
            if rows:
                vals = [c[i] for i in nonzero]
        # lists, not tuples: CPython keeps up to 2000 freed tuples of each
        # short length for reuse, so tuple pivots raised the peak memory
        self._stack.append((pr, rows, vals))
        return True


def lex_first_bases(
    columns: Sequence[Sequence], nrows: int, domain, orders: Iterable[Sequence[int]]
) -> list[int]:
    """The lex-first column basis of a matrix in each of several column orders.

    ``columns[j]`` is column j of a matrix with ``nrows`` rows over
    ``domain``.  For every order, a sequence of column indices, the greedy
    offers the columns in that order and keeps each one that is independent
    of those kept before, until ``nrows`` are kept.  Bit t of the order's
    returned mask is set when the column at position t was kept.

    A decision depends only on (kept set, column), so it is memoized per
    kept set, a bitmask of column indices: the state that eliminated the
    set, and a bitmask of the columns found to depend on it.  An accepted
    offer grows a state in place; since offers change no stacked pivot but
    to normalize it, the state stays valid for every smaller kept set
    on its way as a prefix of its pivots.  Only where a later order branches
    off such a set is the state copied, cut to that prefix.
    """
    states = {0: ProfileState(domain, nrows)}
    dependent: dict[int, int] = {}
    out = []
    for order in orders:
        kept = positions = rank = 0
        for t, j in enumerate(order):
            if rank == nrows:
                break
            grown = kept | 1 << j
            if grown not in states:
                if dependent.get(kept, 0) >> j & 1:
                    continue
                state = states[kept]
                if len(state._stack) > rank:
                    state = states[kept] = state.copy(rank)
                if not state.offer(columns[j]):
                    dependent[kept] = dependent.get(kept, 0) | 1 << j
                    continue
                states[grown] = state
            kept = grown
            positions |= 1 << t
            rank += 1
        out.append(positions)
    return out


def matrix_rank(rows: Sequence[Sequence], domain=None) -> int:
    """Rank of a matrix of raw scalars over ``domain``, by default over Q.

    Over Q the entries are integers, and they are eliminated by Gauss in the
    prime field of ``rational_rank_field``, where the rank is the same.
    """
    if not rows:
        return 0
    columns = list(zip(*rows))
    dom = domain if domain is not None else rational_rank_field(columns)
    (kept,) = lex_first_bases(columns, len(rows), dom, [range(len(columns))])
    return kept.bit_count()
