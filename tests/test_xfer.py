"""Transfer functions: fast evaluator vs symbolic oracle, ratios, identities."""

import random
from functools import reduce
from operator import xor

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from genutils import (
    RATIOS,
    assignment,
    brute_reach,
    degree,
    diamond_chain,
    evaluate_ratio,
    index_of,
    make_scenario,
    mesh_inflate,
    perturbed_type_two,
    rand,
    random_connected_scenario,
    rand_nonzero,
    random_scenario,
    scenarios,
    transfer,
    transfer_gains,
)
from netalign import corpus_names, load_corpus
from netalign.gf2m import Field, field
from netalign.xfer import (
    COUPLING_IDENTITIES,
    PATH_LIMIT,
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
)


def _mono(*vars_and_exps):
    return tuple(sorted(vars_and_exps))


# -- sparse polynomial algebra -------------------------------------------------


def test_sparse_poly_addition_cancels():
    p = SparsePoly([_mono((("a", "b"), 1))])
    assert (p + p).is_zero()
    assert (p + SparsePoly.zero()) == p
    assert len(p) == 1 and degree(p) == 1


def test_sparse_poly_square_drops_cross_terms():
    x = _mono((("x", "y"), 1))
    y = _mono((("y", "z"), 1))
    p = SparsePoly([x, y])
    square = p * p
    # characteristic 2: (x + y)^2 = x^2 + y^2
    assert square == SparsePoly([_mono((("x", "y"), 2)), _mono((("y", "z"), 2))])
    assert degree(square) == 2


def test_sparse_poly_square_coefficient():
    x, y, z = ("e1", "e2"), ("e2", "e3"), ("e2", "e4")
    p = SparsePoly([_mono((x, 1), (y, 1)), _mono((x, 1), (z, 1))])
    sq = p * p  # = x^2 y^2 + x^2 z^2
    assert sq.square_coefficient(x) == SparsePoly([_mono((y, 2)), _mono((z, 2))])
    assert sq.square_coefficient(y) == SparsePoly([_mono((x, 2))])
    assert sq.square_coefficient(("e9", "e9")).is_zero()


def test_sparse_poly_evaluate():
    f = field(4)
    x, y = (1, 4), (4, 5)  # two coding variables of shared_bottleneck
    p = SparsePoly([_mono((x, 1), (y, 1)), _mono((x, 2))])
    a = assignment(load_corpus("shared_bottleneck"), 0, {x: 3, y: 7})
    assert p.evaluate(f, a) == f.mul(3, 7) ^ f.mul(3, 3)
    assert SparsePoly.one().evaluate(f, a) == 1
    assert SparsePoly.zero().evaluate(f, a) == 0


# -- frozen transfer anchors ----------------------------------------------------


def test_single_path_transfer():
    sc = load_corpus("shared_bottleneck")
    at = index_of(sc)
    poly = oracle_transfer_poly(sc, at[1], at[5])  # sigma_1 to tau_1 through the hub
    assert poly == SparsePoly([_mono(((1, 4), 1), ((4, 5), 1))])
    f = field(8)
    x = assignment(sc, 1, {(1, 4): 5, (4, 5): 6})
    assert transfer(sc, x, f, at[1], at[5]) == f.mul(5, 6)
    assert poly.evaluate(f, x) == f.mul(5, 6)


def test_two_path_transfer():
    sc = load_corpus("eta_one_corridor")
    at = index_of(sc)
    poly = oracle_transfer_poly(sc, at[1], at[14])  # private route plus corridor
    assert poly == SparsePoly([
        _mono(((1, 4), 1), ((4, 14), 1)),
        _mono(((1, 7), 1), ((7, 10), 1), ((10, 11), 1), ((11, 14), 1)),
    ])
    assert path_count(sc, at[1], at[14]) == 2


def test_disconnected_and_reflexive_transfers():
    sc = load_corpus("three_disjoint")
    at = index_of(sc)
    assert oracle_transfer_poly(sc, at[1], at[4]).is_zero()  # sigma_1 to tau_2
    assert oracle_transfer_poly(sc, at[1], at[1]) == SparsePoly.one()
    f = field(8)
    rng = random.Random(0)
    x = CodingAssignment.random(sc, f, rng)
    assert transfer(sc, x, f, at[1], at[4]) == 0
    assert transfer(sc, x, f, at[1], at[1]) == 1
    assert transfer(sc, x, f, at[4], at[1]) == 0  # against topological order
    assert path_count(sc, at[4], at[1]) == 0


def test_too_large_guard():
    sc = diamond_chain(21)  # 2^21 paths, past PATH_LIMIT = 2^20
    assert path_count(sc, sc.sigma(1), sc.tau(1)) == 1 << 21 > PATH_LIMIT
    with pytest.raises(TooLargeError):
        oracle_transfer_poly(sc, sc.sigma(1), sc.tau(1))
    # the other sessions' single paths are still enumerated
    assert oracle_transfer_poly(sc, sc.sigma(2), sc.tau(2)) == SparsePoly([_mono(((45, 46), 1))])


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
def test_single_sweep_matches_oracle(sc, data):
    # the reference recurrence of the tests, from any edge to every edge
    f = field(data.draw(st.sampled_from([1, 4, 16, 17, 32])))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    x = CodingAssignment.random(sc, f, rng)
    ids = range(len(sc.edges))
    src = data.draw(st.sampled_from(ids))  # any edge, with predecessors or not
    gains = transfer_gains(sc, x, f, src)
    for dst in ids:
        assert gains[dst] == oracle_transfer_poly(sc, src, dst).evaluate(f, x)


@settings(max_examples=80, deadline=None, database=None)
@given(scenarios(), st.data())
def test_one_pass_gains_match_single_sweeps_and_oracle(sc, data):
    # the three sender lanes of one sweep give the reference recurrence's
    # values at the receivers, and those are the oracle's polynomials
    f = field(data.draw(st.sampled_from([1, 4, 16, 17, 32])))
    x = CodingAssignment.random(sc, f, random.Random(data.draw(st.integers(0, 2**32 - 1))))
    m = session_transfer_matrix(sc, x, f)
    for j in (1, 2, 3):
        gains = transfer_gains(sc, x, f, sc.sigma(j))
        for i in (1, 2, 3):
            want = oracle_transfer_poly(sc, sc.sigma(j), sc.tau(i)).evaluate(f, x)
            assert m[(j, i)] == gains[sc.tau(i)] == want


GADGETS = ("shared_bottleneck", "eta_one_corridor", "rich_type3", "m21_dead",
           "two_corridor", "type_two_gadget")


@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(st.sampled_from(GADGETS), st.data())
def test_factored_sweep_matches_reference_on_wide_graphs(gadget, data):
    # inflated gadgets of 40-600 edges, most of each inside a mesh block
    # whose entry edge several senders share; the oracle up to 60 edges and
    # 4,096 paths per transfer function
    shapes = data.draw(st.lists(st.one_of(st.none(), st.tuples(st.integers(1, 5),
                                                                st.integers(0, 8))),
                                min_size=1, max_size=3))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    sc = mesh_inflate(load_corpus(gadget), rng, shapes)
    assume(40 <= len(sc.ids) <= 600)
    f = field(data.draw(st.sampled_from([1, 16, 17, 32])))
    x = CodingAssignment.random(sc, f, rng)
    m = session_transfer_matrix(sc, x, f)
    for j in (1, 2, 3):
        gains = transfer_gains(sc, x, f, sc.sigma(j))
        assert [m[(j, i)] for i in (1, 2, 3)] == [gains[sc.tau(i)] for i in (1, 2, 3)]
    if len(sc.ids) <= 60 and max(path_count(sc, s, t) for s in sc.senders
                                 for t in sc.receivers) <= 4096:
        for (j, i), poly in oracle_session_polys(sc).items():
            assert m[(j, i)] == poly.evaluate(f, x)


# sigma_1 reaches b twice (edges 2 and 3), so top edge 5 reads a slot of two
# members of one top; edge 4 is read raw; 10 is a receiver behind top edge 7
# through 9; 11 and 12 come from a node no sender reaches, and so does 13
UNEVEN = [(1, "s1", "a"), (2, "a", "b"), (3, "a", "b"), (4, "s2", "b"), (5, "b", "c"),
          (6, "s3", "c"), (7, "c", "e"), (9, "e", "f"), (10, "f", "r1"), (8, "c", "r2"),
          (11, "q", "b"), (12, "q", "w"), (13, "w", "r3")]


@pytest.mark.parametrize("m", (1, 4, 16, 17, 32))
def test_factored_sweep_on_shared_tops_and_unreached_edges(m):
    f = field(m)
    rng = random.Random(m)
    for triples in (UNEVEN, CORRIDOR):
        sc = make_scenario(triples)
        polys = oracle_session_polys(sc)
        for _ in range(10):
            x = CodingAssignment.random(sc, f, rng)
            want = {pair: poly.evaluate(f, x) for pair, poly in polys.items()}
            assert session_transfer_matrix(sc, x, f) == want
    sc = make_scenario(UNEVEN)
    x = CodingAssignment(sc, [1] * sc.pair_count)
    # every value 1: m_ji counts sigma_j-to-tau_i paths modulo 2
    counts = {(j, i): path_count(sc, sc.sigma(j), sc.tau(i)) % 2 for j in (1, 2, 3)
              for i in (1, 2, 3)}
    assert session_transfer_matrix(sc, x, f) == counts
    assert [counts[(j, 3)] for j in (1, 2, 3)] == [0, 0, 0]
    assert counts[(1, 1)] == 0 and counts[(2, 1)] == counts[(3, 2)] == 1  # two paths from s1


@pytest.mark.parametrize("m", range(1, 33))
def test_random_assignment_replays_randrange(m):
    # the draws, their order and the generator's state after them are those
    # of one rng.randbytes call: the low m bits of each little-endian word of
    # the smallest width of 1, 2 or 4 bytes that holds m bits, in pair order
    # (the name is kept from the randrange stream this replaced)
    sc = load_corpus("eta_one_corridor")
    f = field(m)
    w = next(w for w in (1, 2, 4) if 8 * w >= m)
    for seed in (0, 1, 2, 12345):
        rng, ref = random.Random(seed), random.Random(seed)
        x = CodingAssignment.random(sc, f, rng)
        data = ref.randbytes(w * sc.pair_count)
        words = [data[i:i + w] for i in range(0, len(data), w)]
        assert x.values == [int.from_bytes(word, "little") & (2**m - 1) for word in words]
        assert [x[pair] for pair in sc.pairs] == x.values
        assert rng.getstate() == ref.getstate()
        assert f.draw(rng, 0) == [] and rng.getstate() == ref.getstate()


# -- diagnostic ratios -----------------------------------------------------------


def test_ratio_table_matches_stated_formulas():
    assert RATIOS["p1"] == (((1, 3), (2, 1)), ((1, 1), (2, 3)))
    assert RATIOS["p2"] == (((1, 3), (2, 2)), ((1, 2), (2, 3)))
    assert RATIOS["p3"] == (((2, 1), (3, 3)), ((2, 3), (3, 1)))
    assert RATIOS["eta"] == (((1, 3), (2, 1), (3, 2)), ((1, 2), (2, 3), (3, 1)))
    assert set(RATIOS) == {"p1", "p2", "p3", "eta"}


def test_identity_table_consistent_with_ratios():
    # the "is one" rows are the ratios of the module docstring, cross-multiplied
    for name, (num, den) in RATIOS.items():
        key = "eta_is_one" if name == "eta" else f"{name}_is_one"
        assert COUPLING_IDENTITIES[key] == ((num,), (den,))


def test_ratios_on_shared_bottleneck():
    sc = load_corpus("shared_bottleneck")
    f = field(16)
    rng = random.Random(61)
    for _ in range(20):
        x = CodingAssignment(sc, [rand_nonzero(f, rng) for _ in sc.pairs])
        for ratio in RATIOS.values():
            assert evaluate_ratio(sc, x, f, ratio) == 1


def test_denominator_zero_signal():
    sc = load_corpus("shared_bottleneck")
    f = field(16)
    x = assignment(sc, 1, {(1, 4): 0})  # kills m11 and with it p1's denominator
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
    m = {(j, i): rand(f, rng) for j in (1, 2, 3) for i in (1, 2, 3)}
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
    lift, settle, lower = f.lifted
    lifted = []

    def counted(a):
        lifted.append(a)
        return lift(a)

    def no_mul(self, a, b):
        raise AssertionError("a lifted sweep multiplies in lifted form")

    monkeypatch.setattr(f, "lifted", (counted, settle, lower))
    monkeypatch.setattr(Field, "mul", no_mul)
    assert session_transfer_matrix(sc, x, f) == want
    # every coefficient once, plus the 1 fed to every top edge and sender, lifted once
    assert len(lifted) == len(sc.pairs) + 1


def test_factored_sweep_settles_about_once_per_edge(monkeypatch):
    # the three senders share the mesh block that replaces the hub, so a
    # sweep settles each of its edges once, not once per sender lane
    sc = mesh_inflate(load_corpus("shared_bottleneck"), random.Random(3), [(4, 20)])
    f = Field(32)
    x = CodingAssignment.random(sc, f, random.Random(5))
    lift, settle, lower = f.lifted
    settled = []

    def counted(v):
        settled.append(v)
        return settle(v)

    monkeypatch.setattr(f, "lifted", (lift, counted, lower))
    session_transfer_matrix(sc, x, f)
    assert len(sc.ids) == 176
    assert len(settled) <= len(sc.ids) + 12


def test_factored_sender_lanes_read_only_tops_their_sender_reaches():
    # lane j has a row for each top edge past sigma_j that sigma_j reaches,
    # and its rows read only such tops; reach comes from `brute_reach`, not
    # from the dominator trees `factored` prunes by
    rng = random.Random(11)
    gadget = load_corpus("type_two_gadget")
    scs = [load_corpus(name) for name in corpus_names()]
    scs += [perturbed_type_two(rng, gadget) for _ in range(20)]
    scs += [mesh_inflate(load_corpus(name), rng, [None, (1, 0), (2, 1)])
            for name in ("rich_type3", "m21_dead", "two_corridor", "type_two_gadget")]
    pruned = 0
    for sc in scs:
        count = len(sc.ids)
        tail, feeds, program, _ = sc.factored
        tops = {e for e in feeds if e < count}
        lanes = count + sc.pair_count + tail - 3 * count  # edge 0's value in lane 1
        for j, s in enumerate(sc.senders):
            at, reached = lanes + j * count, tops & brute_reach(sc, s)
            rows = {pos - at: row for pos, row in program if at <= pos < at + count}
            assert set(rows) == reached - {s}
            for row in rows.values():
                assert {u - at for u, _ in row} <= reached
            pruned += len(tops - reached)
    assert pruned >= 100  # tops some sender does not reach


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
                assert degree(term) <= bound


@pytest.mark.parametrize("m", (16, 17, 32))
def test_identity_sides_match_symbolic_evaluation(m):
    # table products below 2^17, lifted ones settled and lowered per side above
    rng = random.Random(71)
    f = field(m)
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


def test_wide_identity_sides_call_no_mul(monkeypatch):
    # above 2^16 identity products stay lifted: sides equal the
    # pair_product sums, and no factor passes Field.mul
    sc = load_corpus("rich_type3")
    f = Field(32)
    rng = random.Random(9)
    points = [session_transfer_matrix(sc, CodingAssignment.random(sc, f, rng), f)
              for _ in range(5)]
    points.append(dict.fromkeys(points[0], f.order - 1))
    want = [{name: tuple(reduce(xor, (pair_product(f, m, prod) for prod in side), 0)
                         for side in sides)
             for name, sides in COUPLING_IDENTITIES.items()} for m in points]

    def no_mul(self, a, b):
        raise AssertionError("lifted identity sides multiply in lifted form")

    monkeypatch.setattr(Field, "mul", no_mul)
    for m, sides in zip(points, want):
        for name in COUPLING_IDENTITIES:
            assert evaluate_identity_sides(name, m, f) == sides[name], name


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
