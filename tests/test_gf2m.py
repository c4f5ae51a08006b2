"""Field and matrix arithmetic, anchored to hand-computed values.

The reduction-polynomial table is re-verified from scratch: for every
degree the multiplicative order of x is computed with a local powmod and
compared against the fully factored group order, which proves both
irreducibility and primitivity without trusting the library's own test.
"""

import random

import pytest

from netalign.gf2m import (
    IRREDUCIBLE_POLY,
    Field,
    InconsistentSystemError,
    Matrix,
    ZeroInverseError,
    field,
)


def clmul(a, b):
    """Carry-less product of two binary polynomials."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def poly_mod(a, p):
    """Remainder of binary polynomial a modulo p."""
    dp = p.bit_length() - 1
    while a.bit_length() - 1 >= dp:
        a ^= p << (a.bit_length() - 1 - dp)
    return a


def _x_pow(e, p):
    # power of x modulo p, written out locally so table checks do not go
    # through the Field class under test
    result, base = 1, 2
    while e:
        if e & 1:
            result = poly_mod(clmul(result, base), p)
        base = poly_mod(clmul(base, base), p)
        e >>= 1
    return result


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n and d <= 65536:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)  # below 65536^2, so the leftover cofactor is prime
    return out


def _x_is_primitive(p, m):
    n = (1 << m) - 1
    if _x_pow(n, p) != 1:
        return False
    return all(_x_pow(n // q, p) != 1 for q in _prime_factors(n))


# -- carry-less polynomial helpers -------------------------------------------


def test_clmul_anchors():
    assert clmul(0b11, 0b11) == 0b101  # (x+1)^2 = x^2+1
    assert clmul(0b101, 0b10) == 0b1010
    assert clmul(0, 0b1101) == 0
    assert clmul(1, 0b1101) == 0b1101


def test_poly_mod_anchors():
    assert poly_mod(0b100, 0b111) == 0b11  # x^2 mod (x^2+x+1) = x+1
    assert poly_mod(0b11, 0b111) == 0b11  # lower degree untouched
    assert poly_mod(1 << 16, 0x1002D) == 0x2D


# -- field anchors ------------------------------------------------------------


def test_gf4_full_multiplication_table():
    expected = [
        [0, 0, 0, 0],
        [0, 1, 2, 3],
        [0, 2, 3, 1],
        [0, 3, 1, 2],
    ]
    f = Field(2)
    for a in range(4):
        for b in range(4):
            assert f.mul(a, b) == expected[a][b]
    assert f.inv(2) == 3 and f.inv(3) == 2


def test_gf8_anchors():
    f = Field(3)  # x^3 + x + 1
    assert f.mul(2, 2) == 4
    assert f.mul(2, 4) == 3  # x * x^2 = x^3 = x + 1
    assert f.mul(4, 4) == 6  # x^4 = x^2 + x
    assert f.inv(2) == 5
    assert f.inv(3) == 6
    assert f.pow(2, 7) == 1
    assert f.div(3, 2) == f.mul(3, 5)


def test_reduction_step_anchor_large_fields():
    assert field(16).mul(2, 1 << 15) == 0x2D
    assert field(32).mul(2, 1 << 31) == 0xAF


# -- field laws ---------------------------------------------------------------


def test_field_laws_exhaustive_tiny():
    for m in (1, 2, 3):
        f = Field(m)
        elements = range(f.order)
        for a in elements:
            assert f.mul(a, 1) == a
            assert f.mul(a, 0) == 0
            if a:
                assert f.mul(a, f.inv(a)) == 1
            for b in elements:
                assert f.mul(a, b) == f.mul(b, a)
                for c in elements:
                    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                    assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
                    assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)


def test_field_laws_exhaustive_gf16():
    f = Field(4)
    for a in range(16):
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in range(16):
            for c in range(16):
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)


def test_field_laws_sampled_gf2_32():
    # m = 32 exercises the lifted path (no tables)
    f = field(32)
    rng = random.Random(41)
    for _ in range(100):
        a, b, c = (f.rand(rng) for _ in range(3))
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
        if a:
            assert f.mul(a, f.inv(a)) == 1
            assert f.div(f.mul(a, b), a) == b


def _ref_pow(a, e, p):
    result = 1
    while e:
        if e & 1:
            result = poly_mod(clmul(result, a), p)
        a = poly_mod(clmul(a, a), p)
        e >>= 1
    return result


@pytest.mark.parametrize("m", range(1, 33))
def test_mul_pow_inv_match_reference_arithmetic(m):
    # table fields (m <= 16) and lifted fields (m > 16) against clmul and
    # poly_mod above, which share no code with either
    f, p = Field(m), IRREDUCIBLE_POLY[m]
    rng = random.Random(m)
    edges = [0, 1, 1 << (m - 1), f.order - 1]
    pairs = [(a, b) for a in edges for b in edges]
    pairs += [(f.rand(rng), f.rand(rng)) for _ in range(200)]
    for a, b in pairs:
        assert f.mul(a, b) == poly_mod(clmul(a, b), p)
        e = rng.randrange(0, 3 * f.order)
        assert f.pow(a, e) == _ref_pow(a, e, p)
        if a:
            assert f.inv(a) == _ref_pow(a, f.order - 2, p)
            assert poly_mod(clmul(a, f.inv(a)), p) == 1
            assert f.pow(a, -e) == f.inv(f.pow(a, e))


def test_pow_edge_cases():
    f = Field(5)
    assert f.pow(0, 0) == 1
    assert f.pow(0, 9) == 0
    for a in range(1, 32):
        assert f.pow(a, 31) == 1
        assert f.pow(a, 1) == a


# -- reduction polynomial table -----------------------------------------------


def test_table_polynomials_are_primitive():
    # order of x equals 2^m - 1 in every table field; that single fact
    # forces the full residue ring to be a field (all nonzero elements are
    # powers of x, hence units), proving irreducibility and primitivity
    for m, p in IRREDUCIBLE_POLY.items():
        assert p.bit_length() - 1 == m
        assert p & 1, f"degree {m}: constant term must be 1"
        assert _x_is_primitive(p, m), f"degree {m}: 0x{p:X} is not primitive"


def test_table_polynomials_are_lexicographically_smallest():
    for m in range(2, 13):
        entry = IRREDUCIBLE_POLY[m]
        for candidate in range(1 << m, entry):
            assert not _x_is_primitive(candidate, m)


def test_degree_bounds_and_errors():
    with pytest.raises(ValueError):
        Field(0)
    with pytest.raises(ValueError):
        Field(33)
    f = Field(4)
    with pytest.raises(ZeroInverseError):
        f.inv(0)
    with pytest.raises(ZeroInverseError):
        f.div(3, 0)


def test_rand_ranges():
    f = Field(2)
    rng = random.Random(7)
    seen = set()
    for _ in range(200):
        v = f.rand(rng)
        assert 0 <= v < 4
        seen.add(v)
    assert seen == {0, 1, 2, 3}


def test_shared_field_cache():
    assert field(7) is field(7)
    assert Field(7) is not field(7)


# -- matrices -----------------------------------------------------------------


def test_matrix_construction_errors():
    f = Field(2)
    with pytest.raises(ValueError):
        Matrix(f, [[1, 2], [3]])


def test_rank_anchors():
    f = Field(2)
    assert Matrix(f, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]).rank() == 3
    assert Matrix(f, [[1, 2], [1, 2], [1, 2]]).rank() == 1
    assert Matrix(f, [[0, 0], [0, 0]]).rank() == 0
    assert Matrix(f, [[2, 3], [3, 1]]).rank() == 1  # second row is 2 * first
    assert Matrix(f, [[2, 3], [1, 1]]).rank() == 2


def test_rank_unchanged_by_dependent_row():
    f = field(16)
    rng = random.Random(11)
    for _ in range(25):
        rows = [[f.rand(rng) for _ in range(4)] for _ in range(3)]
        a, b = f.rand(rng), f.rand(rng)
        extra = [f.mul(a, u) ^ f.mul(b, v) for u, v in zip(rows[0], rows[1])]
        assert Matrix(f, rows).rank() == Matrix(f, rows + [extra]).rank()


def test_solve_round_trip_square():
    f = field(16)
    rng = random.Random(13)
    done = 0
    while done < 20:
        m = Matrix(f, [[f.rand(rng) for _ in range(4)] for _ in range(4)])
        if m.rank() != 4:
            continue
        x = [f.rand(rng) for _ in range(4)]
        z, pivots = m.solve(m.mul_vec(x))
        assert pivots == [0, 1, 2, 3] and z == x
        done += 1


def test_solve_tall_full_column_rank():
    f = field(16)
    rng = random.Random(17)
    done = 0
    while done < 10:
        m = Matrix(f, [[f.rand(rng) for _ in range(4)] for _ in range(5)])
        if m.rank() != 4:
            continue
        x = [f.rand(rng) for _ in range(4)]
        z, pivots = m.solve(m.mul_vec(x))
        assert pivots == [0, 1, 2, 3] and z == x
        done += 1


def test_solve_inconsistent_raises():
    f = Field(3)
    m = Matrix(f, [[1, 2], [2, 4]])  # second row is 2 * first
    with pytest.raises(InconsistentSystemError):
        m.solve([0, 1])


def test_solve_free_variables_zeroed():
    f = Field(3)
    z, pivots = Matrix(f, [[1, 2], [0, 0]]).solve([3, 0])
    assert z == [3, 0]
    assert pivots == [0]


def test_solve_rhs_length_mismatch():
    f = Field(2)
    with pytest.raises(ValueError):
        Matrix(f, [[1, 0]]).solve([1, 2])


def test_hstack_select_scale_mul_vec():
    f = Field(2)  # GF(4)
    a = Matrix(f, [[1, 2], [3, 0]])
    b = Matrix(f, [[2], [1]])
    stacked = Matrix.hstack([a, b])
    assert stacked.rows == [[1, 2, 2], [3, 0, 1]]
    assert stacked.select_cols([2, 0]).rows == [[2, 1], [1, 3]]
    assert a.scale_rows([2, 3]).rows == [[2, 3], [2, 0]]
    assert a.mul_vec([1, 1]) == [3, 3]


def test_hstack_row_mismatch():
    f = Field(2)
    with pytest.raises(ValueError):
        Matrix.hstack([Matrix(f, [[1], [2]]), Matrix(f, [[1]])])
