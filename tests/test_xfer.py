"""Transfer functions: fast evaluator vs symbolic oracle, ratios, identities."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genutils import (
    evaluate_ratio,
    make_scenario,
    random_connected_scenario,
    rand_nonzero,
    random_scenario,
    scenarios,
    transfer,
)
from netalign import load_corpus
from netalign.gf2m import Field, field
from netalign.xfer import (
    COUPLING_IDENTITIES,
    RATIOS,
    CodingAssignment,
    SparsePoly,
    TooLargeError,
    evaluate_identity_sides,
    identity_degree_bound,
    oracle_session_polys,
    oracle_transfer_poly,
    pair_product,
    path_count,
    session_transfer_matrix,
    square_term_coefficients,
    transfer_values,
)


def _mono(*vars_and_exps):
    return tuple(sorted(vars_and_exps))


# -- sparse polynomial algebra -------------------------------------------------


def test_sparse_poly_addition_cancels():
    p = SparsePoly([_mono((("a", "b"), 1))])
    assert (p + p).is_zero()
    assert (p + SparsePoly.zero()) == p
    assert len(p) == 1 and p.degree() == 1


def test_sparse_poly_square_drops_cross_terms():
    x = _mono((("x", "y"), 1))
    y = _mono((("y", "z"), 1))
    p = SparsePoly([x, y])
    square = p * p
    # characteristic 2: (x + y)^2 = x^2 + y^2
    assert square == SparsePoly([_mono((("x", "y"), 2)), _mono((("y", "z"), 2))])
    assert square.degree() == 2


def test_sparse_poly_square_coefficient():
    x, y, z = ("e1", "e2"), ("e2", "e3"), ("e2", "e4")
    p = SparsePoly([_mono((x, 1), (y, 1)), _mono((x, 1), (z, 1))])
    sq = p * p  # = x^2 y^2 + x^2 z^2
    assert sq.square_coefficient(x) == SparsePoly([_mono((y, 2)), _mono((z, 2))])
    assert sq.square_coefficient(y) == SparsePoly([_mono((x, 2))])
    assert sq.square_coefficient(("e9", "e9")).is_zero()


def test_sparse_poly_evaluate():
    f = field(4)
    x, y = (0, 1), (1, 2)
    p = SparsePoly([_mono((x, 1), (y, 1)), _mono((x, 2))])
    a = CodingAssignment({x: 3, y: 7})
    assert p.evaluate(f, a) == f.mul(3, 7) ^ f.mul(3, 3)
    assert SparsePoly.one().evaluate(f, a) == 1
    assert SparsePoly.zero().evaluate(f, a) == 0


# -- frozen transfer anchors ----------------------------------------------------


def test_single_path_transfer():
    sc = load_corpus("shared_bottleneck")
    poly = oracle_transfer_poly(sc, 1, 5)  # sigma_1 to tau_1 through the hub
    assert poly == SparsePoly([_mono(((1, 4), 1), ((4, 5), 1))])
    f = field(8)
    x = CodingAssignment({pair: 1 for pair in sc.pairs})
    x.coeffs[(1, 4)] = 5
    x.coeffs[(4, 5)] = 6
    assert transfer(sc, x, f, 1, 5) == f.mul(5, 6)
    assert poly.evaluate(f, x) == f.mul(5, 6)


def test_two_path_transfer():
    sc = load_corpus("eta_one_corridor")
    poly = oracle_transfer_poly(sc, 1, 14)  # private route plus corridor
    assert poly == SparsePoly([
        _mono(((1, 4), 1), ((4, 14), 1)),
        _mono(((1, 7), 1), ((7, 10), 1), ((10, 11), 1), ((11, 14), 1)),
    ])
    assert path_count(sc, 1, 14) == 2


def test_disconnected_and_reflexive_transfers():
    sc = load_corpus("three_disjoint")
    assert oracle_transfer_poly(sc, 1, 4).is_zero()  # sigma_1 to tau_2
    assert oracle_transfer_poly(sc, 1, 1) == SparsePoly.one()
    f = field(8)
    rng = random.Random(0)
    x = CodingAssignment.random(sc, f, rng)
    assert transfer(sc, x, f, 1, 4) == 0
    assert transfer(sc, x, f, 1, 1) == 1
    assert transfer(sc, x, f, 4, 1) == 0  # against topological order


def test_too_large_guard():
    sc = load_corpus("rich_type3")
    with pytest.raises(TooLargeError):
        oracle_transfer_poly(sc, 1, 13, limit=0)


# -- oracle equivalence properties ----------------------------------------------


def test_monomials_count_paths_and_stay_squarefree():
    # within one transfer function every path is a distinct monomial and no
    # coding variable repeats along a path
    rng = random.Random(47)
    for _ in range(25):
        sc = random_scenario(rng) if rng.random() < 0.5 else random_connected_scenario(rng)
        for j in (1, 2, 3):
            for i in (1, 2, 3):
                poly = oracle_transfer_poly(sc, sc.sigma(j), sc.tau(i))
                assert len(poly) == path_count(sc, sc.sigma(j), sc.tau(i))
                for mono in poly.monos:
                    assert all(exp == 1 for _, exp in mono)


def test_fast_evaluator_matches_oracle():
    rng = random.Random(53)
    for f in (field(16), field(1)):
        for _ in range(20):
            sc = random_scenario(rng)
            polys = oracle_session_polys(sc)
            for _ in range(6):
                x = CodingAssignment.random(sc, f, rng)
                m = session_transfer_matrix(sc, x, f)
                for (j, i), poly in polys.items():
                    want = poly.evaluate(f, x)
                    assert m[(j, i)] == want
                    assert transfer(sc, x, f, sc.sigma(j), sc.tau(i)) == want


@settings(max_examples=80, deadline=None, database=None)
@given(scenarios(), st.data())
def test_single_sweep_matches_oracle_and_superposes(sc, data):
    f = field(data.draw(st.sampled_from([1, 4, 16, 17, 32])))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    x = CodingAssignment.random(sc, f, rng)
    ids = [e.id for e in sc.edges]
    src = data.draw(st.sampled_from(ids))
    gains = transfer_values(sc, x, f, {src: 1})
    for dst in ids:
        assert gains.get(dst, 0) == oracle_transfer_poly(sc, src, dst).evaluate(f, x)
    # several sources at once: the sweep is linear in what they inject
    sources = data.draw(st.dictionaries(st.sampled_from(ids), st.integers(0, f.order - 1),
                                        min_size=1, max_size=3))
    joint = transfer_values(sc, x, f, sources)
    singles = [(v, transfer_values(sc, x, f, {e: 1})) for e, v in sources.items()]
    for dst in ids:
        want = 0
        for v, g in singles:
            want ^= f.mul(v, g.get(dst, 0))
        assert joint.get(dst, 0) == want


# -- diagnostic ratios -----------------------------------------------------------


def test_ratio_table_matches_stated_formulas():
    assert RATIOS["p1"].numerator == ((1, 3), (2, 1))
    assert RATIOS["p1"].denominator == ((1, 1), (2, 3))
    assert RATIOS["p2"].numerator == ((1, 3), (2, 2))
    assert RATIOS["p2"].denominator == ((1, 2), (2, 3))
    assert RATIOS["p3"].numerator == ((2, 1), (3, 3))
    assert RATIOS["p3"].denominator == ((2, 3), (3, 1))
    assert RATIOS["eta"].numerator == ((1, 3), (2, 1), (3, 2))
    assert RATIOS["eta"].denominator == ((1, 2), (2, 3), (3, 1))


def test_identity_table_consistent_with_ratios():
    for name in ("p1", "p2", "p3", "eta"):
        key = "eta_is_one" if name == "eta" else f"{name}_is_one"
        lhs, rhs = COUPLING_IDENTITIES[key]
        assert lhs == (RATIOS[name].numerator,)
        assert rhs == (RATIOS[name].denominator,)


def test_ratios_on_shared_bottleneck():
    sc = load_corpus("shared_bottleneck")
    f = field(16)
    rng = random.Random(61)
    for _ in range(20):
        x = CodingAssignment({p: rand_nonzero(f, rng) for p in sc.pairs})
        for spec in RATIOS.values():
            assert evaluate_ratio(sc, x, f, spec) == 1


def test_denominator_zero_signal():
    sc = load_corpus("shared_bottleneck")
    f = field(16)
    x = CodingAssignment({p: 1 for p in sc.pairs})
    x.coeffs[(1, 4)] = 0  # kills m11 and with it p1's denominator
    assert evaluate_ratio(sc, x, f, RATIOS["p1"]) is None
    assert evaluate_ratio(sc, x, f, RATIOS["p3"]) == 1


def test_pair_product_multiplies_only_between_factors(monkeypatch):
    f = field(16)
    real_mul = Field.mul
    calls = []

    def counted(self, a, b):
        calls.append((a, b))
        return real_mul(self, a, b)

    monkeypatch.setattr(Field, "mul", counted)
    rng = random.Random(71)
    m = {(j, i): f.rand(rng) for j in (1, 2, 3) for i in (1, 2, 3)}
    m[(2, 2)] = 0
    for k in range(5):
        for _ in range(10):
            pairs = tuple(rng.choice(list(m)) for _ in range(k))
            want = 1
            for pair in pairs:
                want = real_mul(f, want, m[pair])
            calls.clear()
            assert pair_product(f, m, pairs) == want
            assert len(calls) == max(k - 1, 0), pairs


def test_wide_sweeps_lift_each_coefficient_once_and_call_no_mul(monkeypatch):
    sc = load_corpus("rich_type3")
    f = Field(32)
    x = CodingAssignment.random(sc, f, random.Random(5))
    polys = oracle_session_polys(sc)
    want = {pair: poly.evaluate(f, x) for pair, poly in polys.items()}
    lift, product, settle, lower = f.kernel
    lifted = []

    def counted(a):
        lifted.append(a)
        return lift(a)

    def no_mul(self, a, b):
        raise AssertionError("a lifted sweep multiplies in lifted form")

    monkeypatch.setattr(f, "_lifted", (counted, product, settle, lower))
    monkeypatch.setattr(Field, "mul", no_mul)
    assert session_transfer_matrix(sc, x, f) == want
    # every coefficient once for all three sweeps, plus each sweep's source
    assert len(lifted) == len(sc.pairs) + 3


def test_pointwise_ratio_identities():
    # at any point where all nine transfer values are nonzero, each cleared
    # identity agrees with the ratio comparison it encodes
    rng = random.Random(67)
    f = field(8)
    thirds = {"third_relation_1": "p1", "third_relation_2": "p2", "third_relation_3": "p3"}
    checked = {"eq": 0, "third": 0}
    for _ in range(40):
        sc = random_connected_scenario(rng)
        for _ in range(6):
            x = CodingAssignment.random(sc, f, rng)
            m = session_transfer_matrix(sc, x, f)
            if any(v == 0 for v in m.values()):
                continue
            vals = {k: evaluate_ratio(sc, x, f, RATIOS[k]) for k in RATIOS}
            eta = vals["eta"]
            for i in (1, 2, 3):
                lhs, rhs = evaluate_identity_sides(f"p{i}_is_one", m, f)
                assert (vals[f"p{i}"] == 1) == (lhs == rhs)
                lhs, rhs = evaluate_identity_sides(f"p{i}_is_eta", m, f)
                assert (vals[f"p{i}"] == eta) == (lhs == rhs)
                checked["eq"] += 1
            lhs, rhs = evaluate_identity_sides("eta_is_one", m, f)
            assert (eta == 1) == (lhs == rhs)
            if eta != 1:
                one_plus = 1 ^ eta
                targets = {"third_relation_1": f.div(eta, one_plus),
                           "third_relation_2": one_plus,
                           "third_relation_3": one_plus}
                for name, pk in thirds.items():
                    lhs, rhs = evaluate_identity_sides(name, m, f)
                    assert (vals[pk] == targets[name]) == (lhs == rhs)
                    checked["third"] += 1
    assert checked["eq"] > 100 and checked["third"] > 50


def test_identity_degree_bound():
    sc = load_corpus("shared_bottleneck")  # 7 edges
    assert identity_degree_bound(sc, "p1_is_one") == 14
    assert identity_degree_bound(sc, "eta_is_one") == 21
    assert identity_degree_bound(sc, "third_relation_1") == 21
    polys = oracle_session_polys(sc)
    for name, (lhs, rhs) in COUPLING_IDENTITIES.items():
        bound = identity_degree_bound(sc, name)
        for side in (lhs, rhs):
            for prod in side:
                term = SparsePoly.one()
                for pair in prod:
                    term = term * polys[pair]
                assert term.degree() <= bound


def test_identity_sides_match_symbolic_evaluation():
    rng = random.Random(71)
    f = field(16)
    for _ in range(10):
        sc = random_connected_scenario(rng)
        polys = oracle_session_polys(sc)
        x = CodingAssignment.random(sc, f, rng)
        m = session_transfer_matrix(sc, x, f)
        for name, (lhs_prods, rhs_prods) in COUPLING_IDENTITIES.items():
            lhs, rhs = evaluate_identity_sides(name, m, f)
            for side_val, prods in ((lhs, lhs_prods), (rhs, rhs_prods)):
                acc = SparsePoly.zero()
                for prod in prods:
                    term = SparsePoly.one()
                    for pair in prod:
                        term = term * polys[pair]
                    acc = acc + term
                assert acc.evaluate(f, x) == side_val


# -- square-term property ---------------------------------------------------------

# three senders share the two-hop corridor u -> w -> v, so products of two
# transfer functions carry the corridor variable squared
CORRIDOR = [(0, "s1", "u"), (1, "s2", "u"), (2, "s3", "u"),
            (3, "u", "w"), (4, "w", "v"),
            (5, "v", "r1"), (6, "v", "r2"), (7, "v", "r3")]


def test_square_term_frozen_anchor():
    sc = make_scenario(CORRIDOR)
    f1, f2 = square_term_coefficients(sc, 1, 1, 2, 2, (3, 4))
    expected = SparsePoly([_mono(((0, 3), 1), ((1, 3), 1), ((4, 5), 1), ((4, 6), 1))])
    assert f1 == expected
    assert f2 == expected
    g1, g2 = square_term_coefficients(sc, 1, 2, 3, 3, (3, 4))
    assert g1 == g2 and not g1.is_zero()


def test_square_term_zero_when_no_shared_pair():
    sc = load_corpus("three_disjoint")
    f1, f2 = square_term_coefficients(sc, 1, 1, 2, 2, (1, 2))
    assert f1.is_zero() and f2.is_zero()


def _squared_vars(poly):
    return {var for mono in poly.monos for var, exp in mono if exp == 2}


def test_square_term_property_random_graphs():
    rng = random.Random(73)
    for _ in range(20):
        sc = random_connected_scenario(rng)
        polys = oracle_session_polys(sc)
        for a, p in ((1, 2), (1, 3), (2, 3)):
            for b, q in ((1, 2), (1, 3), (2, 3)):
                prod1 = polys[(a, b)] * polys[(p, q)]
                prod2 = polys[(a, q)] * polys[(p, b)]
                for var in _squared_vars(prod1) | _squared_vars(prod2):
                    assert prod1.square_coefficient(var) == prod2.square_coefficient(var)
