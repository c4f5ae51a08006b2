"""Field and matrix arithmetic, anchored to hand-computed values.

The reduction-polynomial table is re-verified from scratch: for every
degree the multiplicative order of x is computed with the reference powmod
of `genutils` (`ref_pow`, on `clmul` and `poly_mod`, no `Field` code) and
compared against the fully factored group order, which proves both
irreducibility and primitivity without trusting the library's own test.
"""

import random
import tracemalloc
from collections import Counter
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genutils import (
    clmul,
    hstack,
    mul_vec,
    poly_mod,
    rand,
    ref_pow,
    ref_rank,
    ref_solve,
    scale_rows,
    select_cols,
)
from netalign.gf2m import (
    IRREDUCIBLE_POLY,
    Field,
    InconsistentSystemError,
    Matrix,
    ZeroInverseError,
    field,
)


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
    if ref_pow(2, n, p) != 1:
        return False
    return all(ref_pow(2, n // q, p) != 1 for q in _prime_factors(n))


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
    assert f.exp[7] == 1  # x has order 7
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
        a, b, c = (rand(f, rng) for _ in range(3))
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
        if a:
            assert f.mul(a, f.inv(a)) == 1
            assert f.div(f.mul(a, b), a) == b


@pytest.mark.parametrize("m", range(1, 33))
def test_mul_pow_inv_match_reference_arithmetic(m):
    # table fields (m <= 16) and lifted fields (m > 16) against clmul and
    # poly_mod above, which share no code with either
    f, p = Field(m), IRREDUCIBLE_POLY[m]
    rng = random.Random(m)
    edges = [0, 1, 1 << (m - 1), f.order - 1]
    pairs = [(a, b) for a in edges for b in edges]
    pairs += [(rand(f, rng), rand(f, rng)) for _ in range(200)]
    for a, b in pairs:
        assert f.mul(a, b) == poly_mod(clmul(a, b), p)
        e = rng.randrange(40)  # a power is a running product of `mul`
        assert reduce(f.mul, [a] * e, 1) == ref_pow(a, e, p)
        if a:
            assert f.inv(a) == ref_pow(a, f.order - 2, p)
            assert poly_mod(clmul(a, f.inv(a)), p) == 1
    # scale, with zero gains (edges[0]) and zero entries (the pairs whose b is 0)
    gains = edges + [rand(f, rng) for _ in range(4)]
    blocks = [[b for _, b in pairs[t::len(gains)]] for t in range(len(gains))]
    assert f.scale(gains, blocks) == [poly_mod(clmul(g, v), p)
                                      for g, block in zip(gains, blocks) for v in block]


@pytest.mark.parametrize("m", range(1, 17))
def test_table_inv_and_div_are_lookups(m, monkeypatch):
    # below 2^17 inv and div read exp at a log difference: no mul, and a
    # zero numerator lands on exp's zeros
    f, p = Field(m), IRREDUCIBLE_POLY[m]

    def banned(*args):
        raise AssertionError("table inv/div go through mul")

    monkeypatch.setattr(Field, "mul", banned)
    rng = random.Random(200 + m)
    for b in [1, 1 << (m - 1), f.order - 1] + [rng.randrange(1, f.order) for _ in range(50)]:
        inv = f.inv(b)
        assert poly_mod(clmul(b, inv), p) == 1
        assert f.div(0, b) == 0
        a = rng.randrange(f.order)
        assert f.div(a, b) == poly_mod(clmul(a, inv), p)
    with pytest.raises(ZeroInverseError):
        f.div(0, 0)


@pytest.mark.parametrize("m", range(17, 33))
def test_euclid_inverse_matches_power(m):
    # above 2^16 inv runs extended Euclid, and a^(2^m - 2) is the inverse
    f, p = Field(m), IRREDUCIBLE_POLY[m]
    rng = random.Random(100 + m)
    for a in [1, 2, 1 << (m - 1), f.order - 1] + [rng.randrange(1, f.order) for _ in range(300)]:
        assert f.inv(a) == ref_pow(a, f.order - 2, p)
        assert 0 < f.inv(a) < f.order


@pytest.mark.parametrize("m", range(17, 33))
def test_lifted_kernel_round_trips_and_settles_to_reference(m):
    # lower undoes lift, and settle reduces a XOR of up to eight lifted
    # products to the lifted clmul/poly_mod reference; all-ones operands
    # fill every byte of the product and take the most folds
    f, p = Field(m), IRREDUCIBLE_POLY[m]
    lift, settle, lower = f.lifted
    r = p ^ 1 << m
    # settle's second fold lands below x^m, and its unmasked first fold
    # leaves bytes below 8
    assert 2 * (r.bit_length() - 1) - 2 < m and bin(r).count("1") <= 7
    rng = random.Random(300 + m)
    for a in [0, 1, f.order - 1] + [rng.randrange(f.order) for _ in range(100)]:
        assert lower(lift(a)) == a
    full = [(f.order - 1, f.order - 1)] * 8
    for k in range(1, 9):
        for pairs in [full[:k]] + [[(rand(f, rng), rand(f, rng)) for _ in range(k)]
                                   for _ in range(20)]:
            v = want = 0
            for a, b in pairs:
                v ^= lift(a) * lift(b)
                want ^= poly_mod(clmul(a, b), p)
            assert settle(v) == lift(want)
            assert lower(settle(v)) == want


@pytest.mark.parametrize("m", range(17, 33))
def test_lift_moves_bit_k_to_byte_k(m):
    # against a bit-by-bit reference, at every single bit and at the edges of
    # the 11-bit chunks whose tables lift reads
    lift = Field(m).lifted[0]
    edges = [2**11 - 1, 2**11, 2**22 - 1, 2**22, 2**m - 1]
    for a in [1 << k for k in range(m)] + [a for a in edges if a < 2**m]:
        assert lift(a) == sum(1 << 8 * k for k in range(m) if a >> k & 1), (m, a)


@pytest.mark.parametrize("m", range(1, 17))
def test_tables_match_reference_at_zero_and_sentinel_edges(m):
    # log[0] is the sentinel z; exp is x^i below z and zero from z to 2z, so
    # exp[log a + log b] covers a zero operand, two, and the largest sum of
    # two exponents (2n - 2) without a branch
    f, p = Field(m), IRREDUCIBLE_POLY[m]
    n = f.order - 1
    z = f.log[0]
    assert z == 2 * n - 1 and len(f.exp) == 2 * z + 1
    assert not any(f.exp[z:])
    ends = {0, n - 1, n, z - 1} - {z}  # GF(2) has z = n
    assert [f.exp[i] for i in ends] == [ref_pow(2, i % n, p) for i in ends]
    top = f.exp[n - 1]  # log n - 1: two of them sum to 2n - 2
    edges = sorted({0, 1, top, f.exp[n // 2], n})
    for a in edges:
        for b in edges:
            assert f.mul(a, b) == poly_mod(clmul(a, b), p)
            assert f.scale((a,), ([b, 0, a],)) == [f.mul(a, b), 0, f.mul(a, a)]
        if a:
            assert f.inv(a) == ref_pow(a, f.order - 2, p)


def test_tables_stay_small():
    # GF(2^16)'s padded tables are arrays of machine integers, about 1.1 MB;
    # as lists of int objects the unpadded ones took 5.75 MB
    tracemalloc.start()
    try:
        f = Field(16)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f.mul(2, 3) == 6
    assert size < 2e6 and peak < 2e6


@pytest.mark.parametrize("m", (17, 32))
def test_lifted_elimination_keeps_rows_lifted(m, monkeypatch):
    # rows stay lifted through elimination: no element passes Field.mul
    f = Field(m)
    rng = random.Random(m)
    done = 0
    while done < 10:
        m4 = Matrix(f, [[rand(f, rng) for _ in range(4)] for _ in range(4)])
        if m4.rank() != 4:
            continue
        x = [rand(f, rng) for _ in range(4)]
        z, pivots = Matrix(f, [row[:] for row in m4.rows]).solve(mul_vec(m4, x))
        assert pivots == [0, 1, 2, 3] and z == x
        a, b = rand(f, rng), rand(f, rng)
        extra = [f.mul(a, u) ^ f.mul(b, v) for u, v in zip(m4.rows[0], m4.rows[1])]
        tall = Matrix(f, m4.rows[:3] + [extra])
        with monkeypatch.context() as patch:
            patch.setattr(Field, "mul", lambda *_: pytest.fail("elimination called Field.mul"))
            assert tall.rank() == 3
        done += 1


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
    values = f.draw(rng, 200)
    assert len(values) == 200 and set(values) == {0, 1, 2, 3}


# Chi-square bound fixed before any run: the 0.999 quantile for 2^m - 1
# degrees of freedom (m = 1..4), so a uniform draw fails with p < 0.001.
CHI2_999 = {1: 10.83, 2: 16.27, 3: 24.32, 4: 37.70}


@pytest.mark.parametrize("m", range(1, 33))
def test_draw_stays_in_range_and_spreads_evenly(m):
    f = field(m)
    rng = random.Random(f"draw:{m}")
    values = f.draw(rng, 20000 if m in CHI2_999 else 2000)
    assert all(0 <= v < f.order for v in values)
    assert max(values).bit_length() == m  # the top bit is drawn too
    if m in CHI2_999:
        expected = len(values) / f.order
        counts = Counter(values)
        chi2 = sum((counts[v] - expected) ** 2 / expected for v in range(f.order))
        assert chi2 < CHI2_999[m], (m, chi2)


def test_shared_field_cache():
    assert field(7) is field(7)
    assert Field(7) is not field(7)


# -- matrices -----------------------------------------------------------------


def test_matrix_construction_errors():
    f = Field(2)
    with pytest.raises(ValueError):
        Matrix(f, [[1, 2], [3]])


@pytest.mark.parametrize("m", (16, 32))
def test_matrix_takes_over_rows(m):
    # no copy on construction; rank eliminates a copy, solve the rows themselves
    f = Field(m)
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    kept = [row[:] for row in rows]
    mat = Matrix(f, rows)
    assert mat.rows is rows and mat.rows[0] is rows[0]
    assert mat.rank() == 2 and rows == kept
    z, pivots = mat.solve([3, 6, 1])
    assert pivots == [0, 1] and z == [1, 1, 0]
    assert [len(row) for row in rows] == [4, 4, 4]  # y was appended to each row


FIELD_BITS = (1, 2, 3, 8, 16, 17, 32)


@st.composite
def systems(draw):
    """A field, up to 7 x 9 rows with repeated, combined and zero ones, and a right side.

    Half the right sides are M x for a drawn x, so the system has a solution.
    """
    f = field(draw(st.sampled_from(FIELD_BITS)))
    elem = st.integers(0, f.order - 1)
    ncols = draw(st.integers(1, 9))
    line = st.lists(elem, min_size=ncols, max_size=ncols)
    rows = [draw(line)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("drawn", "zero", "repeated", "combined")))
        if kind == "drawn":
            rows.append(draw(line))
        elif kind == "zero":
            rows.append([0] * ncols)
        elif kind == "repeated":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(elem), draw(elem)
            p, q = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([f.mul(a, u) ^ f.mul(b, v) for u, v in zip(p, q)])
    if draw(st.booleans()):
        y = mul_vec(Matrix(f, rows), draw(line))
    else:
        y = draw(st.lists(elem, min_size=len(rows), max_size=len(rows)))
    return f, rows, y


@settings(max_examples=400, deadline=None, database=None)
@given(systems())
def test_elimination_matches_gauss_jordan_reference(system):
    # forward elimination plus back-substitution against the Gauss-Jordan
    # reduction it replaced: rank, pivots, z (free variables zero) and the
    # inconsistent case all agree
    f, rows, y = system
    mat = Matrix(f, [row[:] for row in rows])
    assert mat.rank() == ref_rank(f, rows)
    try:
        want = ref_solve(f, rows, y)
    except InconsistentSystemError:
        with pytest.raises(InconsistentSystemError):
            mat.solve(y)
    else:
        assert mat.solve(y) == want


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
        rows = [[rand(f, rng) for _ in range(4)] for _ in range(3)]
        a, b = rand(f, rng), rand(f, rng)
        extra = [f.mul(a, u) ^ f.mul(b, v) for u, v in zip(rows[0], rows[1])]
        assert Matrix(f, rows).rank() == Matrix(f, rows + [extra]).rank()


def test_solve_round_trip_square():
    f = field(16)
    rng = random.Random(13)
    done = 0
    while done < 20:
        m = Matrix(f, [[rand(f, rng) for _ in range(4)] for _ in range(4)])
        if m.rank() != 4:
            continue
        x = [rand(f, rng) for _ in range(4)]
        z, pivots = m.solve(mul_vec(m, x))
        assert pivots == [0, 1, 2, 3] and z == x
        done += 1


def test_solve_tall_full_column_rank():
    f = field(16)
    rng = random.Random(17)
    done = 0
    while done < 10:
        m = Matrix(f, [[rand(f, rng) for _ in range(4)] for _ in range(5)])
        if m.rank() != 4:
            continue
        x = [rand(f, rng) for _ in range(4)]
        z, pivots = m.solve(mul_vec(m, x))
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


@pytest.mark.parametrize("m", (1, 2, 4, 16, 17))
def test_solve_divides_by_every_pivot(m):
    # z = y / p for a 1 x 1 system, at the extreme logs of p and y too
    f = Field(m)
    top = ref_pow(2, f.order - 2, f.poly)  # x^(2^m - 2), the last power of x
    values = {1, top, f.order - 1}
    for p in values:
        for y in values | {0}:
            assert Matrix(f, [[p]]).solve([y]) == ([f.div(y, p)], [0])


def test_solve_rhs_length_mismatch():
    f = Field(2)
    with pytest.raises(ValueError):
        Matrix(f, [[1, 0]]).solve([1, 2])


def test_hstack_select_scale_mul_vec():
    # the matrix helpers of the tests, and `Field.scale` against them
    f = Field(2)  # GF(4)
    a = Matrix(f, [[1, 2], [3, 0]])
    b = Matrix(f, [[2], [1]])
    stacked = hstack([a, b])
    assert stacked.rows == [[1, 2, 2], [3, 0, 1]]
    assert select_cols(stacked, [2, 0]).rows == [[2, 1], [1, 3]]
    assert scale_rows(a, [2, 3]).rows == [[2, 3], [2, 0]]
    assert mul_vec(a, [1, 1]) == [3, 3]
    assert [f.scale((w, 1), (row, [1])) for w, row in zip([2, 3], a.rows)] == [[2, 3, 1], [2, 0, 1]]


def test_hstack_row_mismatch():
    f = Field(2)
    with pytest.raises(ValueError):
        hstack([Matrix(f, [[1], [2]]), Matrix(f, [[1]])])
