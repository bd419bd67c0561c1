"""Arithmetic layer: fields, polynomials, sampling, and rank profiles."""

import itertools

import pytest

from conftest import (
    ZZ,
    frac_pivots,
    frac_pivots_mod,
    frac_rank,
    frac_rank_mod,
    gf2_mul_oracle,
    is_irreducible_oracle,
    rng,
)
from shiftlab import (
    Backend,
    Characteristic,
    DeterministicStream,
    InternalError,
    InvalidCharacteristicError,
    MathPreconditionError,
    MultiPoly,
    PolynomialRing,
    PrimeField,
    field,
    gf_extension,
    is_prime,
    make_field_context,
    matrix_rank,
    sample_eval_point,
)
from shiftlab.field import (
    BinaryExtensionField,
    ProfileState,
    _is_irreducible,
    lex_first_bases,
)


# -------------------------------------------------------- characteristic


def test_characteristic_accepts_zero_and_primes():
    for v in [0, 2, 3, 5, 101, 2**31 - 1]:
        assert Characteristic(v).value == v
    assert Characteristic(0).is_zero and not Characteristic(7).is_zero


@pytest.mark.parametrize("bad", [1, -1, 4, 6, 91, 561])
def test_characteristic_rejects_non_primes(bad):
    with pytest.raises(InvalidCharacteristicError):
        Characteristic(bad)


def test_is_prime_matches_sieve():
    limit = 2000
    sieve = [True] * (limit + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            for j in range(i * i, limit + 1, i):
                sieve[j] = False
    for m in range(-5, limit + 1):
        assert is_prime(m) == (m >= 2 and sieve[m])
    # Carmichael numbers fool Fermat tests but not this one
    for carmichael in [561, 1105, 1729, 2465, 294409]:
        assert not is_prime(carmichael)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)


# ---------------------------------------------------------- prime fields


@pytest.mark.parametrize("p", [2, 3, 101])
def test_prime_field_axioms(p):
    f = PrimeField(p)
    gen = rng(f"gf{p}")
    elems = [f.from_int(gen.randrange(10 * p)) for _ in range(12)]
    for a, b in itertools.product(elems, repeat=2):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.sub(a, b) == f.add(a, f.neg(b))
    for a, b, c in zip(elems, elems[1:], elems[2:]):
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
    for a in elems:
        assert f.add(a, f.zero) == a
        assert f.mul(a, f.one) == a
        if not f.is_zero(a):
            assert f.mul(a, f.inv(a)) == f.one
    assert f.is_field and f.characteristic == p and f.size == p


@pytest.mark.parametrize("q", [61, 521])
def test_prime_field_inverse_in_mersenne_fields(q):
    # the fields randomized characteristic-0 runs eliminate over
    p = 2**q - 1
    f = PrimeField(p)
    gen = rng(f"inv-mersenne-{q}")
    for a in [1, 2, p - 1, p - 2] + [gen.randrange(1, p) for _ in range(50)]:
        assert a * f.inv(a) % p == 1
        assert f.exact_div(a, a) == 1
    assert f.inv(p + 3) == f.inv(3)
    with pytest.raises(MathPreconditionError):
        f.inv(p)


def test_prime_field_rejects_composite_modulus():
    with pytest.raises(InvalidCharacteristicError):
        PrimeField(6)


@pytest.mark.parametrize(
    "p,min_size,size", [(2, 2, 2), (2, 8, 8), (2, 9, 16), (3, 3, 3), (3, 10, 27), (5, 26, 125)]
)
def test_gf_extension_size_is_minimal(p, min_size, size):
    f = gf_extension(p, min_size)
    assert f.size == size
    assert f.characteristic == p


def test_gf_extension_field_axioms_and_frobenius():
    f = gf_extension(2, 16)
    elems = [f.sample(i) for i in range(f.size)]
    assert len(set(map(repr, elems))) == f.size
    nonzero = [a for a in elems if not f.is_zero(a)]
    for a in nonzero:
        # the multiplicative group has order size - 1
        power = f.one
        for _ in range(f.size - 1):
            power = f.mul(power, a)
        assert power == f.one
        assert f.mul(a, f.inv(a)) == f.one
    gen = rng("frobenius")
    for _ in range(30):
        a, b = gen.choice(elems), gen.choice(elems)
        fr = lambda x: f.mul(x, x)  # x -> x^2 in characteristic 2
        assert fr(f.add(a, b)) == f.add(fr(a), fr(b))
        assert f.add(a, a) == f.zero  # characteristic 2


def test_gf_extension_rejects_composite_characteristic():
    with pytest.raises(InvalidCharacteristicError):
        gf_extension(4, 16)


@pytest.mark.parametrize("p,max_degree", [(2, 12), (3, 6), (5, 4)])
def test_is_irreducible_matches_list_oracle_exhaustively(p, max_degree):
    found = 0
    for e in range(1, max_degree + 1):
        for low in itertools.product(range(p), repeat=e):
            coeffs = list(low) + [1]
            expected = is_irreducible_oracle(coeffs, p)
            assert _is_irreducible(coeffs, p) == expected, coeffs
            found += expected
    # Gauss: (1/e) sum_{d | e} mu(d) p^(e/d) monic irreducibles of degree e
    assert found == {2: 747, 3: 196, 5: 205}[p]


@pytest.mark.parametrize(
    "p,coeffs",
    [
        (2, [0, 1, 0, 1] + [0] * 36 + [1]),  # x^40 + x^3 + x, root 0
        (2, [1, 0, 1, 0, 0, 1] + [0] * 34 + [1]),  # x^40 + x^5 + x^2 + 1, root 1
        (3, [1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1]),  # x^10 + x^3 + x + 1, root 1
    ],
)
def test_is_irreducible_rejects_a_linear_factor_at_the_first_step(monkeypatch, p, coeffs):
    steps, frobenius = [], field._domain_pow

    def counting_pow(domain, a, e):
        steps.append(e)
        return frobenius(domain, a, e)

    monkeypatch.setattr(field, "_domain_pow", counting_pow)
    assert not _is_irreducible(coeffs, p)
    assert steps == [p]
    # an irreducible polynomial takes every step up to half its degree
    steps.clear()
    if p == 2:
        digits = [int(c) for c in bin(_PINNED_GF2E[201][40])[:1:-1]]
    else:
        digits = [int(c) for c in _PINNED_GF3E[(21, 0)]]
    assert _is_irreducible(digits, p) and len(steps) == (len(digits) - 1) // 2


def _gf2e_edge_and_random_elements(f, count):
    gen = rng(f"gf2e-{f.e}")
    return [0, 1, 1 << (f.e - 1), f.size - 1] + [gen.randrange(f.size) for _ in range(count)]


@pytest.mark.parametrize("e", range(2, 65))
def test_gf2e_mul_and_inv_match_bit_serial_oracle(e):
    f = gf_extension(2, 2**e)
    assert f.e == e
    elems = _gf2e_edge_and_random_elements(f, 12)
    for a in elems:
        for b in elems:
            assert f.mul(a, b) == gf2_mul_oracle(a, b, f.modulus)
        if a:
            assert gf2_mul_oracle(a, f.inv(a), f.modulus) == 1
            # inv does not reduce its cofactor, so it must come out reduced
            assert f.inv(a) < f.size and f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("e", [2, 7, 8, 9, 40])
def test_gf2e_fold_table_clears_one_top_byte(e):
    modulus = gf_extension(2, 2**e).modulus
    f = BinaryExtensionField(e, modulus)
    # built on the first product that needs reducing, not before
    assert f.mul(1 << (e - 1), 1) == 1 << (e - 1) and f._fold is None
    assert f.mul(1 << (e - 1), 2) == gf2_mul_oracle(1 << (e - 1), 2, modulus)
    fold = f._fold
    assert len(fold) == 256
    for b, entry in enumerate(fold):
        # a multiple of the modulus whose bits e..e+7 are b and nothing above
        assert gf2_mul_oracle(entry, 1, modulus) == 0
        assert entry >> e == b


def test_gf2e_mul_beyond_one_byte_slot():
    # x^521 + x^32 + 1 is irreducible; operands of up to 521 bits exceed the
    # 255 ones a product byte can count, so the multiply splits them
    modulus = (1 << 521) | (1 << 32) | 1
    assert _is_irreducible([int(c) for c in bin(modulus)[:1:-1]], 2)
    f = BinaryExtensionField(521, modulus)
    elems = _gf2e_edge_and_random_elements(f, 6) + [(1 << 255) - 1, 1 << 255, 1 << 300]
    for a in elems:
        for b in elems:
            assert f.mul(a, b) == gf2_mul_oracle(a, b, modulus)
        if a:
            assert gf2_mul_oracle(a, f.inv(a), modulus) == 1
            assert f.inv(a) < f.size and f.mul(a, f.inv(a)) == 1


# The moduli every seeded run samples from.  Ben-Or's test, like the Rabin
# oracle in conftest, is exact, so any rewrite of the search must land on
# these; a change here moves every point drawn in the extension field and
# with it the randomized outputs.
_PINNED_GF2E = {
    201: {36: 0x120E8C54EB, 37: 0x2FF313FF9B, 38: 0x540DB36359, 39: 0x9614401FF1,
          40: 0x1D2A136C69D, 41: 0x39BE9690E05, 42: 0x719A4A9274D},
    777: {36: 0x1380623CBD, 37: 0x3AB0450FD5, 38: 0x52D9306979, 39: 0xFBD1DA5B7D,
          40: 0x1E33F2C01C1, 41: 0x3261ADB3D33, 42: 0x5944472F237},
}
# GF(3^e) moduli, constant coefficient first, for the (e, seed) the tests reach
_PINNED_GF3E = {
    (3, 0): "1021",
    (21, 0): "1000002011210002112201",
    (22, 0): "10111110121221102002011",
    (23, 0): "121202100022100111221021",
    (24, 0): "2001112121012100122002021",
    (26, 201): "211101000222212220122002001",
}


def test_gf_extension_moduli_are_pinned():
    for seed, moduli in _PINNED_GF2E.items():
        for e, modulus in moduli.items():
            assert gf_extension(2, 2**e, seed).modulus == modulus, (e, seed)
    for (e, seed), digits in _PINNED_GF3E.items():
        assert gf_extension(3, 3**e, seed).modulus == tuple(map(int, digits)), (e, seed)


# ----------------------------------------------------------- polynomials


def _random_poly(gen, nvars=3, nterms=4, deg=2) -> MultiPoly:
    out = MultiPoly.const(gen.randint(-3, 3))
    for _ in range(nterms):
        term = MultiPoly.const(gen.randint(-4, 4))
        for _ in range(gen.randint(0, deg)):
            term = term * MultiPoly.variable(gen.randint(1, nvars), gen.randint(1, nvars))
        out = out + term
    return out


def test_multipoly_ring_axioms():
    gen = rng("poly-ring")
    zero, one = MultiPoly.zero(), MultiPoly.const(1)
    for _ in range(60):
        f, g, h = (_random_poly(gen) for _ in range(3))
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + zero == f and f * one == f
        assert f - f == zero
        assert (f * zero).is_zero


def test_multipoly_degree_and_constants():
    x, y = MultiPoly.variable(1, 2), MultiPoly.variable(2, 1)
    assert (x * x * y + y).degree() == 3
    assert MultiPoly.const(5).degree() == 0
    assert MultiPoly.zero().degree() == 0
    assert MultiPoly.const(7).is_constant and MultiPoly.const(7).constant_value() == 7
    assert not (x + y).is_constant
    assert (x ** 3) == x * x * x
    with pytest.raises(MathPreconditionError):
        MultiPoly.variable(0, 1)


def test_multipoly_evaluate_matches_manual_substitution():
    gen = rng("poly-eval")
    for _ in range(60):
        f = _random_poly(gen)
        point = {var: gen.randint(-5, 5) for var in f.variables()}
        manual = 0
        for mono, coeff in f.terms.items():
            term = coeff
            for var, exp in mono:
                term *= point[var] ** exp
            manual += term
        assert f.evaluate(point, ZZ) == manual
        p = 13
        fld = PrimeField(p)
        reduced_point = {v: fld.from_int(a) for v, a in point.items()}
        assert f.evaluate(reduced_point, fld) == fld.from_int(manual)


def test_multipoly_reduce_mod_is_a_homomorphism():
    gen = rng("poly-mod")
    for p in (2, 5):
        for _ in range(40):
            f, g = _random_poly(gen), _random_poly(gen)
            assert (f + g).reduce_mod(p) == (f.reduce_mod(p) + g.reduce_mod(p)).reduce_mod(p)
            assert (f * g).reduce_mod(p) == (f.reduce_mod(p) * g.reduce_mod(p)).reduce_mod(p)
    assert MultiPoly.const(4).reduce_mod(2).is_zero


def test_multipoly_map_variables():
    x12, x21 = MultiPoly.variable(1, 2), MultiPoly.variable(2, 1)
    f = x12 * x12 + MultiPoly.const(3) * x21
    swapped = f.map_variables(lambda var: (var[1], var[0]))
    assert swapped == x21 * x21 + MultiPoly.const(3) * x12
    assert swapped.map_variables(lambda var: (var[1], var[0])) == f


def test_polynomial_ring_exact_division():
    gen = rng("poly-div")
    for char in (0, 2, 7):
        for _ in range(25):
            f, g = _random_poly(gen), _random_poly(gen)
            ring = PolynomialRing(char, f.variables() | g.variables(), 4)
            fr, gr = ring.pack(f), ring.pack(g)
            if ring.is_zero(gr):
                continue
            product = ring.mul(fr, gr)
            assert ring.exact_div(product, gr) == ring.mul(fr, ring.one)


@pytest.mark.parametrize("char", [0, 2, 7])
def test_polynomial_ring_matches_multipoly_operators(char):
    gen = rng(f"packed-ring-{char}")
    for _ in range(60):
        f, g = _random_poly(gen), _random_poly(gen)
        # one spare variable, so some fields stay empty
        ring = PolynomialRing(char, f.variables() | g.variables() | {(4, 4)}, 4)
        pf, pg = ring.pack(f), ring.pack(g)
        assert ring.unpack(pf) == f.reduce_mod(char)
        assert ring.unpack(ring.add(pf, pg)) == (f + g).reduce_mod(char)
        assert ring.unpack(ring.sub(pf, pg)) == (f - g).reduce_mod(char)
        assert ring.unpack(ring.neg(pf)) == (-f).reduce_mod(char)
        assert ring.unpack(ring.mul(pf, pg)) == (f * g).reduce_mod(char)
        assert ring.is_zero(ring.sub(pf, pf))
        if not ring.is_zero(pg):
            assert ring.exact_div(ring.mul(pf, pg), pg) == pf


def test_polynomial_ring_refuses_inexact_division():
    x11, x12 = MultiPoly.variable(1, 1), MultiPoly.variable(1, 2)
    ring = PolynomialRing(0, [(1, 1), (1, 2)], 3)
    pack = ring.pack
    # a monomial that does not divide, borrowing from either neighbour field
    for num, den in ((x12**3, x11), (x11**3, x12), (x11 * x12 + 1, x11)):
        with pytest.raises(InternalError, match="monomial"):
            ring.exact_div(pack(num), pack(den))
    # a coefficient that does not divide in characteristic 0 ...
    for num, den in ((3 * x11, 2 * x11), (2 * x11 * x12 + 3 * x12, 2 * x12)):
        with pytest.raises(InternalError, match="coefficient"):
            ring.exact_div(pack(num), pack(den))
    # ... divides in GF(7)
    ring7 = PolynomialRing(7, [(1, 1)], 3)
    assert ring7.unpack(ring7.exact_div(ring7.pack(3 * x11), ring7.pack(2 * x11))) == 5
    with pytest.raises(InternalError, match="by zero"):
        ring.exact_div(pack(x11), ring.zero)


def test_polynomial_ring_refuses_degree_above_its_bound():
    x11, x12 = MultiPoly.variable(1, 1), MultiPoly.variable(1, 2)
    ring = PolynomialRing(0, [(1, 1), (1, 2)], 3)
    assert ring.unpack(ring.mul(ring.pack(x11**2), ring.pack(x12))) == x11**2 * x12
    with pytest.raises(InternalError, match="degree bound"):
        ring.mul(ring.pack(x11**2), ring.pack(x12**2))
    with pytest.raises(InternalError, match="degree bound"):
        ring.mul(ring.pack(x11 + 1), ring.pack(x12**3 + x11))
    with pytest.raises(InternalError, match="exceeds"):
        ring.pack(x11**2 * x12**2)
    with pytest.raises(InternalError, match="not a variable"):
        ring.pack(MultiPoly.variable(2, 2))


# --------------------------------------------------------------- streams


def test_deterministic_stream_reproducibility():
    a = DeterministicStream("tag", 1, 2)
    b = DeterministicStream("tag", 1, 2)
    assert [a.getbits(17) for _ in range(10)] == [b.getbits(17) for _ in range(10)]
    c = DeterministicStream("tag", 1, 3)
    assert [a.getbits(17) for _ in range(10)] != [c.getbits(17) for _ in range(10)]


def test_deterministic_stream_ranges():
    s = DeterministicStream("ranges")
    for _ in range(200):
        assert 0 <= s.getbits(7) < 128
        assert 0 <= s.randbelow(10) < 10
    assert s.randbelow(1) == 0
    with pytest.raises(MathPreconditionError):
        s.randbelow(0)


# -------------------------------------------------------- point sampling


def test_sample_eval_point_char0_range_and_determinism():
    ctx = make_field_context(0, Backend.RANDOMIZED, seed=3)
    variables = [(1, 1), (1, 2), (2, 2)]
    size = 80
    pt = sample_eval_point(ctx, variables, size, 0, "tag")
    # the values are drawn from [1, size] straight into the first Mersenne
    # prime field above the size and the coefficient bound
    assert pt.domain is field.choose_field(0, size)
    assert pt.domain.p == 2**61 - 1
    assert set(pt.assignment) == set(variables)
    assert all(1 <= v <= size for v in pt.assignment.values())
    again = sample_eval_point(ctx, variables, size, 0, "tag")
    assert again.assignment == pt.assignment
    other_attempt = sample_eval_point(ctx, variables, size, 0, "tag", attempt=1)
    assert other_attempt.assignment != pt.assignment
    other_seed = sample_eval_point(
        make_field_context(0, Backend.RANDOMIZED, seed=4), variables, size, 0, "tag"
    )
    assert other_seed.assignment != pt.assignment
    # a larger coefficient bound moves the field, not the values
    wide = sample_eval_point(ctx, variables, size, 2**61 - 1, "tag")
    assert wide.domain.p == 2**89 - 1 and wide.assignment == pt.assignment


def test_sample_eval_point_charp_domain_size():
    ctx = make_field_context(2, Backend.RANDOMIZED)
    pt = sample_eval_point(ctx, [(1, 1)], 80, 0, "tag")
    assert pt.domain.characteristic == 2
    assert pt.domain.size >= 80 > pt.domain.size // 2
    assert pt.domain is field.choose_field(2, 80, seed=ctx.seed)


# ---------------------------------------------------------- rank profiles


def _shuffled_orders(gen, ncols, count):
    orders = [list(range(ncols))]
    for _ in range(count):
        order = list(range(ncols))
        gen.shuffle(order)
        orders.append(order)
    return orders


def _check_profiles(rows, domain, oracle, orders):
    """Every order of one shared call keeps the oracle's pivots of its reordering."""
    columns = [[domain.from_int(row[j]) for row in rows] for j in range(len(rows[0]))]
    for order, kept in zip(orders, lex_first_bases(columns, len(rows), domain, orders)):
        want_ranks, want_pivots = oracle([[row[j] for j in order] for row in rows])
        ranks = [0]
        for t in range(len(order)):
            ranks.append(ranks[-1] + (kept >> t & 1))
        assert tuple(ranks) == want_ranks
        assert [t for t in range(len(order)) if kept >> t & 1] == want_pivots


def test_rank_profile_matches_fraction_oracle_on_integers(monkeypatch):
    cuts, copy = [], ProfileState.copy

    def counting_copy(state, rank=None):
        cuts.append(rank)
        return copy(state, rank)

    monkeypatch.setattr(ProfileState, "copy", counting_copy)
    gen = rng("rank-int")
    for _ in range(80):
        nrows, ncols = gen.randint(1, 5), gen.randint(1, 6)
        rows = [[gen.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        _check_profiles(rows, ZZ, frac_pivots, _shuffled_orders(gen, ncols, 4))
        assert matrix_rank(rows) == frac_rank(rows)
    # later orders branched off kept sets that a state had grown past
    assert cuts and all(rank is not None for rank in cuts)


def test_rank_profile_respects_column_order():
    # orders sharing one call answer as each order does alone
    gen = rng("rank-order")
    for _ in range(40):
        rows = [[gen.randint(-4, 4) for _ in range(5)] for _ in range(4)]
        columns = [[row[j] for row in rows] for j in range(5)]
        orders = _shuffled_orders(gen, 5, 6)
        alone = [lex_first_bases(columns, 4, ZZ, [order])[0] for order in orders]
        assert lex_first_bases(columns, 4, ZZ, orders) == alone
        _check_profiles(rows, ZZ, frac_pivots, orders)


FINITE_FIELDS = {
    "2": PrimeField(2),
    "7": PrimeField(7),
    "mersenne61": PrimeField(2**61 - 1),
    "gf2e": gf_extension(2, 2**8),
    "gf3e": gf_extension(3, 3**3),
}


def _sparse_rows(gen, p):
    """Up to 10x20 over [0, p) at a random density, with a zero column and a
    column repeated, as is or times a scalar."""
    nrows, ncols = gen.randint(1, 10), gen.randint(3, 20)
    density = gen.choice([0.1, 0.25, 0.5, 0.75, 1.0])
    rows = [
        [gen.randrange(1, p) if gen.random() < density else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]
    zero, copy, source = gen.sample(range(ncols), 3)
    scalar = gen.choice([1, gen.randrange(1, p)])
    for row in rows:
        row[zero] = 0
        row[copy] = row[source] * scalar % p
    return rows


@pytest.mark.parametrize("name", list(FINITE_FIELDS))
def test_rank_profile_over_prime_fields(name):
    # every entry lies in the prime field, and rank does not change under
    # field extension, so the oracle works modulo the characteristic
    fld = FINITE_FIELDS[name]
    p = fld.characteristic

    def oracle(rows):
        return frac_pivots_mod(rows, p)

    gen = rng(f"rank-gf{name}")
    for _ in range(60):
        rows = [[gen.randrange(p) for _ in range(5)] for _ in range(4)]
        orders = _shuffled_orders(gen, 5, 4)
        _check_profiles(rows, fld, oracle, orders)
        lifted = [[fld.from_int(x) for x in row] for row in rows]
        assert matrix_rank(lifted, domain=fld) == frac_rank_mod(rows, p)
    for _ in range(60):
        rows = _sparse_rows(gen, p)
        _check_profiles(rows, fld, oracle, _shuffled_orders(gen, len(rows[0]), 1))


@pytest.mark.parametrize("p", [3, 2**61 - 1])
def test_prime_field_elimination_reads_any_integer(p):
    # an entry stands for its residue: 3 is zero in GF(3)
    fld = PrimeField(p)
    assert matrix_rank([[p], [1]], fld) == 1
    # columns (1, -1) and (2, -2) mod p
    assert matrix_rank([[p + 1, 2], [-1, -2 * p - 2]], fld) == 1
    gen = rng(f"rank-any-int-{p}")
    for _ in range(60):
        nrows, ncols = gen.randint(1, 6), gen.randint(1, 8)
        rows = [
            [
                gen.randint(-3, 2) * p + (gen.randrange(p) if gen.random() < 0.6 else 0)
                for _ in range(ncols)
            ]
            for _ in range(nrows)
        ]
        assert matrix_rank(rows, fld) == frac_rank_mod(rows, p)
        columns = [list(col) for col in zip(*rows)]
        orders = _shuffled_orders(gen, ncols, 3)
        for order, kept in zip(orders, lex_first_bases(columns, nrows, fld, orders)):
            _, want = frac_pivots_mod([[row[j] for j in order] for row in rows], p)
            assert [t for t in range(ncols) if kept >> t & 1] == want


def test_rank_over_q_runs_modulo_a_prime_above_the_hadamard_bound():
    # 2^61 - 1 vanishes in the table's first prime field, so the rank over Q
    # of [[2^61 - 1]] needs the next prime, 2^89 - 1
    assert matrix_rank([[2**61 - 1]]) == 1
    assert field.rational_rank_field([[2**61 - 1]]).p == 2**89 - 1
    gen = rng("rank-over-q-near-2^200")
    for _ in range(40):
        nrows, ncols = gen.randint(1, 6), gen.randint(1, 7)
        basis = [
            [2**200 + gen.randint(-(2**40), 2**40) for _ in range(ncols)]
            for _ in range(gen.randint(1, min(nrows, ncols)))
        ]
        rows = [
            [sum(gen.randint(-2, 2) * v[j] for v in basis) for j in range(ncols)]
            for _ in range(nrows)
        ]
        columns = list(zip(*rows))
        fld = field.rational_rank_field(columns)
        assert fld.p > 2**61 - 1 or not any(map(any, rows))
        assert matrix_rank(rows) == frac_rank(rows)
        (kept,) = lex_first_bases(columns, nrows, fld, [range(ncols)])
        assert [t for t in range(ncols) if kept >> t & 1] == frac_pivots(rows)[1]


def test_rank_profile_empty_matrix():
    assert lex_first_bases([], 0, ZZ, [[], []]) == [0, 0]
    assert lex_first_bases([(), ()], 0, ZZ, [[0, 1]]) == [0]
    assert lex_first_bases([(0, 0), (0, 0)], 2, ZZ, [[0, 1], [1, 0]]) == [0, 0]
    assert matrix_rank([]) == 0


@pytest.mark.parametrize("name", ["7", "mersenne61", "gf2e"])
def test_gauss_inverts_only_pivots_with_later_rows(monkeypatch, name):
    fld = FINITE_FIELDS[name]
    inverses = []
    if isinstance(fld, PrimeField):
        # the elimination over GF(p) calls the builtin pow(x, -1, p)
        def counting_pow(*args):
            inverses.append(args[0])
            return pow(*args)

        monkeypatch.setattr(field, "pow", counting_pow, raising=False)
    else:
        inv = BinaryExtensionField.inv

        def counting_inv(dom, a):
            inverses.append(a)
            return inv(dom, a)

        monkeypatch.setattr(BinaryExtensionField, "inv", counting_inv)
    # the last pivot, at row 2, has no later nonzero row
    state = ProfileState(fld, 3)
    assert state.offer([2, 3, 1]) and state.offer([0, 1, 4]) and state.offer([0, 0, 5])
    assert inverses == [2, 1]
    assert state.pivot_rows == [0, 1, 2] and state._stack[-1] == (2, [], [])


@pytest.mark.parametrize(
    "domain", [ZZ, PrimeField(7), PrimeField(2**61 - 1), gf_extension(2, 2**8)]
)
def test_profile_state_copy_is_independent(domain):
    # a and b are independent in every domain here; 2 is the class of x in GF(2^e)
    a, b = [1, 2, 3], [0, 1, 5]
    twice_a = [domain.mul(2, x) for x in a]
    a_plus_b = [domain.add(x, y) for x, y in zip(a, b)]
    state = ProfileState(domain, 3)
    assert state.offer(a)
    twin = state.copy()
    assert twin.offer(b) and twin.rank == 2
    # the accepted offer grew the copy only
    assert state.rank == 1 and state.pivot_rows == [0]
    assert not state.offer(twice_a)
    assert state.offer(b) and state.pivot_rows == twin.pivot_rows
    assert state.offer([0, 0, 1]) and not twin.copy().offer(a_plus_b)
    # a copy cut to a prefix is the state those first offers left
    early = state.copy(1)
    assert early.rank == 1 and early.pivot_rows == [0] and state.rank == 3
    assert not early.offer(twice_a)
    assert early.offer(b) and early.pivot_rows == state.pivot_rows[:2]
    assert state.copy(0).rank == 0 and state.copy(0).offer([0, 0, 1])
