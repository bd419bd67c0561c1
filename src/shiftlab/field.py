"""Exact coefficient arithmetic for the two shifting backends.

The symbolic backend works with sparse multivariate polynomials over the
integers or GF(p), stored with packed monomials under a per-call degree
bound, and decides linear dependence by fraction-free Bareiss elimination
with checked exact division, so every zero test is exact.  Everything else
eliminates by Gauss over a concrete field, and ``choose_field`` is the one
place that field is picked: GF(p^e) in characteristic p, and in
characteristic 0 GF(2^q - 1), the first Mersenne prime of a fixed table
above the bounds the caller proves.  The randomized backend draws its
points there, from a domain large enough for the Schwartz-Zippel bound (see
``shiftcore._evaluation_bounds``), and ranks over Q run there too, with a
prime above Hadamard's bound on every minor (``rational_rank_field``).
Randomized runs derive every sample from a SHA-256 counter stream keyed by
(seed, call fingerprint, attempt), which makes results reproducible and
independent of call order.  The modulus of GF(p^e) is the first candidate
from a seeded stream that passes Ben-Or's irreducibility test, run in the
candidate's own ring GF(p)[x]/(f) with the multiply of the field it would
define.  GF(2^e) works on packed ints with no bit-serial loop: a product is
reduced one top byte at a time through a per-field table of multiples of
the modulus, and an inverse is one extended Euclid that updates the
remainder and its cofactor in the same shift-and-XOR step.

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

    def exact_div(self, a, b):
        return a * self.inv(b) % self.p

    def from_int(self, c):
        return c % self.p

    def sample(self, index: int):
        return index % self.p

    def __repr__(self) -> str:
        return f"GF({self.p})"


# bin() digits to bytes 0/1, and a product byte to the digit of its low bit
_SPREAD = bytes.maketrans(b"01", b"\x00\x01")
_PARITY = bytes(48 + (v & 1) for v in range(256))
_CHUNK_MASK = (1 << 255) - 1


class BinaryExtensionField:
    """GF(2^e) with elements packed into ints, bit t holding the x^t coefficient."""

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
        self._fold: list[int] | None = None

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
        if not a or not b:
            return 0
        # Carry-less product by one integer multiply: spread each bit into a
        # byte, multiply, keep the low bit of every byte.  A byte sums at most
        # min(bit lengths) ones, so the shorter operand goes in 255-bit chunks.
        if a.bit_length() < b.bit_length():
            a, b = b, a
        wide = int.from_bytes(bin(a)[2:].encode().translate(_SPREAD), "big")
        r = shift = 0
        while b:
            chunk = b & _CHUNK_MASK
            spread = int.from_bytes(bin(chunk)[2:].encode().translate(_SPREAD), "big")
            size = a.bit_length() + chunk.bit_length()
            r ^= int((wide * spread).to_bytes(size, "big").translate(_PARITY), 2) << shift
            b >>= 255
            shift += 255
        # Clear the top byte above degree e - 1 per step: fold[b] is the
        # multiple of the modulus whose bits e..e+7 spell b.
        e = self.e
        rl = r.bit_length()
        if rl > e:
            fold = self._fold or self._fold_table()
            while rl > e:
                s = rl - 8 if rl - 8 > e else e
                r ^= fold[r >> s] << (s - e)
                rl = r.bit_length()
        return r

    def _fold_table(self) -> list[int]:
        """``fold[b] = b*x^e + (b*x^e mod m)`` for every byte b, built on first use."""
        m, e = self.modulus, self.e
        # fold is GF(2)-linear in b, so fold[b | 1 << k] = fold[b] ^ g for
        # b < 1 << k, where g = fold[1 << k] is m times x^k plus lower terms
        fold, g = [0], m
        for _ in range(8):
            fold += [f ^ g for f in fold]
            g <<= 1
            if g >> e & 1:
                g ^= m
        self._fold = fold
        return fold

    def inv(self, a):
        if a == 0:
            raise MathPreconditionError("division by zero in GF(2^e)")
        # Extended Euclid in GF(2)[x] on packed polynomials, one shift-and-XOR
        # step at a time on the remainder u and its cofactor g (g * a = u mod
        # m, and likewise h * a = v).  deg g + deg v and deg h + deg u stay at
        # most e, and v, the modulus or a former u, is never 0 or 1, so g
        # ends reduced, below degree e.
        u, v, g, h = a, self.modulus, 1, 0
        du, dv = u.bit_length(), v.bit_length()
        while du > 1:
            j = du - dv
            if j < 0:
                u, v, g, h, du, dv, j = v, u, h, g, dv, du, -j
            u ^= v << j
            g ^= h << j
            du = u.bit_length()
        if u != 1:
            raise InternalError("modulus of GF(2^e) is not irreducible")
        return g

    def exact_div(self, a, b):
        return self.mul(a, self.inv(b))

    @staticmethod
    def from_int(c):
        return c & 1

    @staticmethod
    def sample(index: int):
        return index

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
        p = self.p
        r0 = list(self.modulus)
        r1 = list(a)
        s0, s1 = [0], [1]
        while any(r1):
            q, r = _gfp_poly_divmod(r0, r1, p)
            r0, r1 = r1, r
            s0, s1 = s1, _gfp_poly_sub(s0, _gfp_poly_mul(q, s1, p), p)
        # r0 is a nonzero constant gcd
        r0 = _gfp_poly_trim(r0)
        if len(r0) != 1:
            raise InternalError("modulus of GF(p^e) is not irreducible")
        c_inv = pow(r0[0], -1, p)
        s0 = [(x * c_inv) % p for x in s0]
        s0 = (s0 + [0] * self.e)[: self.e]
        return tuple(s0)

    def exact_div(self, a, b):
        return self.mul(a, self.inv(b))

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


# ---------------------------------------------- GF(p)[x] helpers (lists)


def _gfp_poly_trim(a: list[int]) -> list[int]:
    while len(a) > 1 and a[-1] == 0:
        a = a[:-1]
    return a


def _gfp_poly_sub(a: list[int], b: list[int], p: int) -> list[int]:
    size = max(len(a), len(b))
    a = a + [0] * (size - len(a))
    b = b + [0] * (size - len(b))
    return _gfp_poly_trim([(x - y) % p for x, y in zip(a, b)])


def _gfp_poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    acc = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                acc[i + j] = (acc[i + j] + x * y) % p
    return _gfp_poly_trim(acc)


def _gfp_poly_divmod(a: list[int], b: list[int], p: int):
    a = list(a)
    b = _gfp_poly_trim(list(b))
    if b == [0]:
        raise InternalError("polynomial division by zero")
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        a = _gfp_poly_trim(a)
        if len(a) < len(b):
            break
        shift = len(a) - len(b)
        c = (a[-1] * inv_lead) % p
        if c == 0:
            a = a[:-1]
            continue
        q[shift] = c
        for j, y in enumerate(b):
            a[shift + j] = (a[shift + j] - c * y) % p
        a = a[:-1]
    return _gfp_poly_trim(q), _gfp_poly_trim(a)


def _gfp_poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while any(b):
        a, b = b, _gfp_poly_divmod(a, b, p)[1]
    return _gfp_poly_trim(a)


def _extension_ring(p: int, coeffs: Sequence[int]):
    """GF(p)[x]/(f) for f monic with ``coeffs`` constant first; a field iff f is irreducible."""
    if p == 2:
        return BinaryExtensionField(len(coeffs) - 1, int("".join(map(str, coeffs[::-1])), 2))
    return PrimeExtensionField(p, len(coeffs) - 1, tuple(coeffs))


def _gf2_poly_gcd(a: int, b: int) -> int:
    """gcd in GF(2)[x] of bit-packed polynomials."""
    while b:
        db = b.bit_length()
        da = a.bit_length()
        while da >= db:
            a ^= b << (da - db)
            da = a.bit_length()
        a, b = b, a
    return a


def _is_irreducible(coeffs: list[int], p: int) -> bool:
    """Ben-Or's irreducibility test for a monic polynomial f over GF(p).

    f of degree e is irreducible iff gcd(f, x^(p^i) - x) = 1 for every
    i <= e/2, since a reducible f has an irreducible factor of some degree
    i <= e/2, which divides x^(p^i) - x.  The test returns at the first
    nontrivial gcd.  x^(p^i) mod f comes from i Frobenius steps y -> y^p in
    the ring GF(p)[x]/(f), with the same multiply as the field that f
    defines; over GF(2) the gcd runs on packed ints.
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
        if p == 2:
            if _gf2_poly_gcd(ring.modulus, y ^ x) != 1:
                return False
        elif len(_gfp_poly_gcd(coeffs, _gfp_poly_sub(list(y), [0, 1], p), p)) != 1:
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

    Let P be the product of the squared norms of the nonzero columns.  A
    nonzero minor M of the matrix is an integer, and by Hadamard's
    inequality |M| is at most the product of the norms of its columns, each
    cut to the minor's rows.  A cut column has norm at most the whole one,
    and a nonzero column has norm at least 1, so |M| <= isqrt(P).  The field
    is GF(p) with p > isqrt(P) from ``choose_field``, so p divides no
    nonzero minor.  The rank of every submatrix, the largest order of a
    nonzero minor in it, is then the same mod p as over Q, and so are the
    lex-first pivots, which are read off the ranks of column prefixes
    (modular rank as in Dumas, Saunders and Villard, J. Symbolic Comput. 32,
    2001).  There is no failure probability.
    """
    product = 1
    for column in columns:
        product *= sum(x * x for x in column) or 1
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

    @property
    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def constant_value(self) -> int:
        if not self.is_constant:
            raise MathPreconditionError("polynomial is not constant")
        return self.terms.get((), 0)

    def degree(self) -> int:
        """Total degree; zero and constants report 0."""
        if not self.terms:
            return 0
        return max(_mono_deg(m) for m in self.terms)

    def variables(self) -> frozenset[Var]:
        return frozenset(var for m in self.terms for var, _ in m)

    def reduce_mod(self, p: int) -> "MultiPoly":
        return MultiPoly._raw(_norm_terms(self.terms, p))

    def map_variables(self, mapping) -> "MultiPoly":
        """Apply a relabeling var -> var to every monomial."""
        out: dict[Monomial, int] = {}
        for mono, c in self.terms.items():
            new = tuple(
                sorted(
                    ((mapping(var), e) for var, e in mono),
                    key=lambda item: _var_key(item[0]),
                )
            )
            out[new] = out.get(new, 0) + c
        return MultiPoly._raw(_norm_terms(out, 0))

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
    ``pack`` and ``unpack`` convert from and to ``MultiPoly``.
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
        if max(a) + max(b) >= self._limit:
            raise InternalError(
                f"product exceeds the degree bound {self.degree_bound}"
            )
        p = self.characteristic
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

    Reproducible from (seed, call fingerprint, attempt); the domain holds the
    arithmetic the values live in.
    """

    assignment: dict[Var, object]
    domain: object


def sample_eval_point(
    ctx: FieldContext,
    variables: Iterable[Var],
    size: int,
    coeff_bound: int,
    call_tag: str,
    attempt: int = 0,
) -> EvalPoint:
    """Draw a Schwartz-Zippel evaluation point for one randomized call.

    The point lies in ``choose_field(char, size, coeff_bound)``.  In
    characteristic zero its values are uniform integers from [1, size],
    which that Mersenne prime field holds as they are; in characteristic p
    they are uniform elements of GF(p^e), p^e >= size.  The caller derives
    both bounds from its error budget (see ``shiftcore._evaluation_bounds``).
    """
    char = ctx.characteristic.value
    domain = choose_field(char, size, coeff_bound, ctx.seed)
    stream = DeterministicStream("evalpoint", ctx.seed, char, call_tag, attempt)
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
    pivots are eliminated from it.  Over a domain that is not a field, the
    polynomial ring of the symbolic backend, the update is fraction-free
    Bareiss, exact divisions only, against dense pivot columns.

    Over a field it is Gauss-Jordan elimination against sparse pivots
    ``(pivot row, rows, values)``: normalized to 1 at its pivot row, a pivot
    column is zero at every earlier row, so it is stored as the later rows
    where it is nonzero and its entries there, and eliminating it touches
    only those rows; a pivot with no later nonzero row stores nothing and
    is never inverted.  Over GF(p) entries are plain ints and a row update
    is ``c[i] -= f * v``, with no ``%`` and no method call: k updates move an
    entry by less than k * p**2, a few machine words, which is cheaper than
    reducing each time.  Live entries stay congruent mod p to the residues
    they stand for, and are reduced only where read: as a pivot's factor
    ``f``, when tested for a pivot, or when stored as a value in [1, p).
    Zero tests are exact in every case.
    """

    # many states are alive while all the cells of a family are shifted, so
    # instances carry no attribute dict
    __slots__ = ("dom", "m", "_stack", "_p")

    def __init__(self, domain, nrows: int):
        self.dom = domain
        self.m = nrows
        self._stack: list[tuple] = []
        # the modulus selects the plain-int elimination over GF(p)
        self._p = domain.p if isinstance(domain, PrimeField) else None

    @property
    def rank(self) -> int:
        return len(self._stack)

    @property
    def pivot_rows(self) -> list[int]:
        # entry 0 of a stacked pivot is its pivot row, Bareiss or Gauss
        return [pivot[0] for pivot in self._stack]

    def copy(self, rank: int | None = None) -> "ProfileState":
        """An independent state with the first ``rank`` pivots (default all).

        Offers never mutate a pivot once it is stacked, and each pivot is
        eliminated against the earlier ones only, so the first ``rank``
        pivots are the state those offers left.  The twin shares the pivots
        and costs one list copy.
        """
        twin = ProfileState.__new__(ProfileState)
        twin.dom, twin.m, twin._p = self.dom, self.m, self._p
        twin._stack = self._stack[:rank]
        return twin

    def offer(self, column: Sequence) -> bool:
        if self.rank >= self.m:
            return False
        c = list(column)
        if len(c) != self.m:
            raise InternalError("column length mismatch")
        if not self.dom.is_field:
            return self._offer_bareiss(c)
        return self._offer_gauss(c)

    def _offer_bareiss(self, c: list) -> bool:
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

    def _offer_gauss(self, c: list) -> bool:
        dom, p = self.dom, self._p
        if p is not None:
            for pr, rows, vals in self._stack:
                f = c[pr] % p
                if f:
                    for i, v in zip(rows, vals):
                        c[i] -= f * v
                    c[pr] = 0
            nonzero = [i for i, x in enumerate(c) if x % p]
            if not nonzero:
                return False
            pr, rows, vals = nonzero[0], nonzero[1:], []
            if rows:
                inv = pow(c[pr], -1, p)
                vals = [c[i] * inv % p for i in rows]
        else:
            sub, mul, is_zero = dom.sub, dom.mul, dom.is_zero
            for pr, rows, vals in self._stack:
                f = c[pr]
                if not is_zero(f):
                    for i, v in zip(rows, vals):
                        c[i] = sub(c[i], mul(f, v))
                    c[pr] = dom.zero
            nonzero = [i for i, x in enumerate(c) if not is_zero(x)]
            if not nonzero:
                return False
            pr, rows, vals = nonzero[0], nonzero[1:], []
            if rows:
                inv = dom.inv(c[pr])
                vals = [mul(c[i], inv) for i in rows]
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
    offer grows a state in place; since offers never change the pivots
    stacked before them, the state stays valid for every smaller kept set
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
                if state.rank > rank:
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
