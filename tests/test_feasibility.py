"""Taxonomy checks: graph verdicts vs randomized identity evaluation."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from genutils import (
    brute_connects,
    decode_ratios,
    lane_transfer_matrix,
    make_scenario,
    mesh_inflate,
    permute_sessions,
    perturbed_type_two,
    random_connected_scenario,
    random_scenario,
)
from netalign import corpus_names, load_corpus
import netalign.feasibility as feasibility
from netalign.feasibility import (
    RATE_BY_KIND,
    classify,
    connectivity_map,
    cross_check_verdicts,
    reduced_decode_cuts,
    reduced_structure,
    report_identity_flags,
)
from netalign.gf2m import field
from netalign.xfer import (
    COUPLING_IDENTITIES,
    SparsePoly,
    evaluate_identity_sides,
    oracle_coupling_verdicts,
    oracle_session_polys,
)


def graph_flags(sc):
    report, _ = classify(sc)
    return report_identity_flags(report)


def oracle_flags(sc, trials=8, seed=0):
    verdicts = cross_check_verdicts(sc, trials=trials, seed=seed)
    return {name: v.all_equal for name, v in verdicts.items()}


# -- connectivity ----------------------------------------------------------------


def test_connectivity_map_matches_brute():
    rng = random.Random(11)
    for _ in range(25):
        sc = random_scenario(rng)
        conn = connectivity_map(sc)
        for j in (1, 2, 3):
            for i in (1, 2, 3):
                assert conn[(j, i)] == brute_connects(sc, sc.sigma(j), sc.tau(i))


def test_classify_builds_one_tree_per_sender(monkeypatch):
    def no_reach(*args, **kwargs):
        raise AssertionError("connectivity_map ran a reach sweep")

    rng = random.Random(17)
    scs = [load_corpus(name) for name in corpus_names()]
    scs += [random_connected_scenario(rng) for _ in range(30)]
    for sc in scs:
        with monkeypatch.context() as patched:
            patched.setattr(sc, "reachable_edges", no_reach)
            connectivity_map(sc)
        classify(sc)
        assert set(sc.dominator_trees) <= {sc.sigma(j) for j in (1, 2, 3)}


def test_report_flags_require_full_connectivity():
    report, _ = classify(load_corpus("three_disjoint"))
    assert not report.fully_connected
    assert report.flags is None
    with pytest.raises(ValueError):
        report_identity_flags(report)


# -- frozen corpus verdicts -------------------------------------------------------

# name -> (kind, rate, true graph flags)
CORPUS_EXPECT = {
    "shared_bottleneck": ("I", Fraction(1, 3),
                          {"eta_is_one", "p1_is_one", "p2_is_one", "p3_is_one",
                           "p1_is_eta", "p2_is_eta", "p3_is_eta"}),
    "two_corridor": ("I", Fraction(1, 3),
                     {"eta_is_one", "p2_is_one", "p3_is_one",
                      "p2_is_eta", "p3_is_eta"}),
    "type_two_gadget": ("II", Fraction(2, 5), {"third_relation_1"}),
    "rich_type3": ("III", Fraction(1, 2), set()),
    "eta_one_corridor": ("III", Fraction(1, 2), {"eta_is_one"}),
}


def test_fully_connected_corpus_classifications():
    for name, (kind, rate, true_flags) in CORPUS_EXPECT.items():
        sc = load_corpus(name)
        report, nt = classify(sc)
        assert report.fully_connected, name
        assert (nt.kind, nt.optimal_rate) == (kind, rate), name
        assert nt.eta_is_one == ("eta_is_one" in true_flags), name
        flags = report_identity_flags(report)
        assert {k for k, v in flags.items() if v} == true_flags, name


def test_corpus_flags_match_randomized_oracle():
    for name in CORPUS_EXPECT:
        sc = load_corpus(name)
        assert graph_flags(sc) == oracle_flags(sc, trials=12), name


def test_reduced_corpus_classifications():
    for name, rate in (("three_disjoint", Fraction(1, 2)),
                       ("m21_dead", Fraction(1, 2))):
        report, nt = classify(load_corpus(name))
        assert not report.fully_connected, name
        assert nt.kind == "Reduced" and nt.half_feasible, name
        assert nt.optimal_rate == rate, name
    conn = connectivity_map(load_corpus("m21_dead"))
    assert [pair for pair, ok in conn.items() if not ok] == [(2, 1)]


def test_permuted_gadget_moves_the_relation():
    sc = load_corpus("type_two_gadget")
    for perm, expect in (((2, 3, 1), "third_relation_3"),
                         ((3, 1, 2), "third_relation_2"),
                         ((1, 3, 2), "third_relation_1")):
        p = permute_sessions(sc, perm)
        flags = graph_flags(p)
        assert {k for k, v in flags.items() if v} == {expect}
        assert flags == oracle_flags(p)
        _, nt = classify(p)
        assert nt.kind == "II"


# -- random cross-checks ----------------------------------------------------------


def test_graph_flags_match_randomized_oracle_randomly():
    rng = random.Random(2024)
    kinds = {"I": 0, "II": 0, "III": 0}
    for _ in range(60):
        sc = random_connected_scenario(rng)
        report, nt = classify(sc)
        assert report_identity_flags(report) == oracle_flags(sc)
        kinds[nt.kind] += 1
    assert kinds["I"] > 0 and kinds["III"] > 0  # generator reaches both ends


def test_graph_flags_match_oracle_on_inflated_gadgets():
    # Random draws where the "mutually unreachable" condition of the third
    # relation alone decides: on two_corridor and its copies every other
    # condition holds, so a check without it calls the relation true.
    for name in CORPUS_EXPECT:
        gadget = load_corpus(name)
        rng = random.Random(f"inflate:{name}")
        for _ in range(12):
            sc = mesh_inflate(gadget, rng, [None, (1, 0), (2, 0), (1, 1)])
            assert graph_flags(sc) == oracle_coupling_verdicts(sc), name


def lane_verdicts(sc, f, rng, draws=8):
    """Which identities hold at `draws` uniform draws of the sender-lane inputs."""
    held = dict.fromkeys(COUPLING_IDENTITIES, True)
    for _ in range(draws):
        m = lane_transfer_matrix(sc, f, rng)
        for name in held:
            lhs, rhs = evaluate_identity_sides(name, m, f)
            held[name] = held[name] and lhs == rhs
    return held


def test_uniform_lane_inputs_give_the_exact_verdicts():
    # the sender lanes of `factored` alone, fed uniform inputs, decide all
    # ten identities as the coding coefficients do (see `lane_transfer_matrix`)
    f, rng = field(32), random.Random(29)
    scs = [load_corpus(name) for name in corpus_names()]
    scs += [random_connected_scenario(rng) for _ in range(60)]
    scs += [random_scenario(rng) for _ in range(60)]
    verdicts = Counter()
    for sc in scs:
        exact = oracle_coupling_verdicts(sc)
        assert lane_verdicts(sc, f, rng) == exact, sc
        verdicts.update(exact.values())
    assert verdicts[True] >= 20 and verdicts[False] >= 20
    for name in ("rich_type3", "type_two_gadget"):  # 136 and 196 edges, against the graph
        sc = mesh_inflate(load_corpus(name), random.Random(f"lanes:{name}"), [(2, 1), (3, 2)])
        assert lane_verdicts(sc, f, rng) == graph_flags(sc), name


def test_kind_follows_flags():
    rng = random.Random(31)
    for _ in range(40):
        sc = random_connected_scenario(rng)
        report, nt = classify(sc)
        flags = report.flags
        assert list(flags) == list(COUPLING_IDENTITIES)
        p_any = any(flags[f"p{i}_is_{r}"] for i in (1, 2, 3) for r in ("one", "eta"))
        third_any = any(flags[f"third_relation_{i}"] for i in (1, 2, 3))
        if p_any:
            assert nt.kind == "I"
        elif third_any:
            assert nt.kind == "II"
        else:
            assert nt.kind == "III"
        assert nt.optimal_rate == RATE_BY_KIND[nt.kind]
        assert nt.eta_is_one == flags["eta_is_one"]
        assert nt.half_feasible is None


def test_verdicts_do_not_depend_on_session_labels():
    # the optimal symmetric rate is the network's, though the Reduced chain
    # ties senders in label order
    rng = random.Random(6)
    gadget = load_corpus("type_two_gadget")
    scs = [random_scenario(rng) for _ in range(150)]
    scs += [random_connected_scenario(rng) for _ in range(150)]
    scs += [perturbed_type_two(rng, gadget) for _ in range(50)]
    kinds = Counter()
    for sc in scs:
        _, nt = classify(sc)
        kinds[nt.kind] += 1
        for perm in itertools.permutations((1, 2, 3)):
            _, other = classify(permute_sessions(sc, perm))
            assert (other.kind, other.optimal_rate) == (nt.kind, nt.optimal_rate), (sc, perm)
    assert min(kinds[kind] for kind in ("I", "II", "III", "Reduced")) >= 3, kinds


# -- reduced structure ------------------------------------------------------------


PAIRS = [(j, i) for j in (1, 2, 3) for i in (1, 2, 3)]


def network_chain(name):
    return reduced_structure(connectivity_map(load_corpus(name)))


def test_reduced_structure_m21_dead():
    rs = network_chain("m21_dead")
    assert rs.base == (0, 0, 0)
    assert rs.profile_num == ((), ((1, 3),), ((1, 2),))
    assert rs.profile_den == ((), ((2, 3),), ((3, 2),))


def test_reduced_structure_three_disjoint():
    rs = network_chain("three_disjoint")
    assert rs.base == (0, 1, 2)
    assert rs.profile_num == ((), (), ())


def test_receiver_conditions_m21_dead():
    rs = network_chain("m21_dead")
    assert decode_ratios(rs) == [
        (1, ((1, 1), (3, 2)), ((3, 1), (1, 2))),
        (2, ((2, 2), (1, 3)), ((1, 2), (2, 3))),
        (3, ((3, 3), (1, 2)), ((1, 3), (3, 2))),
    ]
    assert reduced_decode_cuts(rs) == [(1, 3, 1, 2), (1, 2, 3, 2), (1, 3, 2, 3)]


def test_receiver_conditions_all_free_when_disjoint():
    rs = network_chain("three_disjoint")
    assert decode_ratios(rs) == [] and reduced_decode_cuts(rs) == []


def test_all_constraints_on_a_reduced_map_leave_a_dead_receiver():
    # Receiver i's constraint needs both of its interferers, so all three
    # keep every cross pair; a reduced map must then miss some m_ii, and
    # that dead receiver fixes rate 0 whatever the other receivers need.
    chained = 0
    for bits in itertools.product((False, True), repeat=9):
        present = dict(zip(PAIRS, bits))
        if all(present[(j, i)] for j, i in PAIRS if j != i) and not all(bits):
            assert reduced_decode_cuts(reduced_structure(present)) is None, present
            chained += 1
    assert chained == 7
    # With every pair present (the chain of the general scheme), receiver 1
    # is left needing 1/p1 to be non-constant: p1's pair cut must be 2.
    rs = reduced_structure(dict.fromkeys(PAIRS, True))
    assert decode_ratios(rs)[0] == (1, ((1, 1), (2, 3)), ((2, 1), (1, 3)))
    assert reduced_decode_cuts(rs)[0] == (1, 2, 1, 3)
    assert feasibility.PAIR_CUT_RELATIONS["p1_is_one"] == ((1, 2), (1, 3))


def test_dead_session_yields_rate_zero():
    sc = make_scenario([
        (1, "s1", "x"),
        (2, "y", "r1"),
        (3, "s2", "c"), (4, "c", "r2"),
        (5, "s3", "d"), (6, "d", "r3"),
    ])
    report, nt = classify(sc)
    assert not report.connectivity[(1, 1)]
    assert nt.kind == "Reduced"
    assert nt.optimal_rate == Fraction(0)
    assert nt.half_feasible is False


# -- exact reduced verdicts --------------------------------------------------------


def test_every_presence_map_cancels_to_a_cross_ratio():
    # Every decode ratio on a map with all m_ii present cancels to
    # m_ac*m_bd / (m_ad*m_bc) of present pairs, never to a constant, and
    # reduced_decode_cuts returns exactly those (a, b, c, d), receiver by
    # receiver.
    crosses = dead = 0
    for bits in itertools.product((False, True), repeat=9):
        present = dict(zip(PAIRS, bits))
        rs = reduced_structure(present)
        ratios, cuts = decode_ratios(rs), reduced_decode_cuts(rs)
        if not all(present[(i, i)] for i in (1, 2, 3)):
            assert ratios is None and cuts is None, present
            dead += 1
            continue
        assert len(cuts) == len(ratios), present
        for (_, num, den), (a, b, c, d) in zip(ratios, cuts):
            assert all(present[pair] for pair in num + den)
            top, bottom = Counter(num), Counter(den)
            assert top - bottom == Counter([(a, c), (b, d)]), (present, num, den)
            assert bottom - top == Counter([(a, d), (b, c)]), (present, num, den)
            assert a != b and c != d
            crosses += 1
    assert (dead, crosses) == (448, 45)


def _product(polys, pairs):
    acc = SparsePoly.one()
    for pair in pairs:
        acc = acc * polys[pair]
    return acc


def oracle_reduced_rate(sc):
    """Reduced rate with each decode ratio tested on exact polynomials.

    A ratio of non-zero GF(2)-coefficient polynomials is constant exactly
    when numerator and denominator are the same polynomial.
    """
    polys = oracle_session_polys(sc)
    present = {pair: not p.is_zero() for pair, p in polys.items()}
    ratios = decode_ratios(reduced_structure(present))
    if ratios is None:
        return Fraction(0)
    if any(_product(polys, num) == _product(polys, den) for _, num, den in ratios):
        return Fraction(1, 3)
    return Fraction(1, 2)


def test_reduced_verdicts_match_oracle_products():
    rng = random.Random(41)
    rates = Counter()
    while sum(rates.values()) < 300:
        sc = random_scenario(rng)
        report, nt = classify(sc)
        if report.fully_connected:
            continue
        assert nt.kind == "Reduced"
        assert nt.optimal_rate == oracle_reduced_rate(sc)
        assert nt.half_feasible == (nt.optimal_rate == Fraction(1, 2))
        rates[nt.optimal_rate] += 1
    assert set(rates) == {Fraction(0), Fraction(1, 3), Fraction(1, 2)}


def test_classify_is_deterministic(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("classify drew random coding coefficients")

    monkeypatch.setattr(feasibility.CodingAssignment, "random", no_draws)
    rng = random.Random(5)
    scs = [load_corpus(name) for name in ("m21_dead", "three_disjoint", "rich_type3")]
    scs += [random_scenario(rng) for _ in range(20)]
    for sc in scs:
        assert classify(sc) == classify(sc)
    assert classify(load_corpus("m21_dead"))[1].half_feasible is True


# -- randomized identity checks --------------------------------------------------


def test_identity_checks_refuse_zero_trials():
    sc = load_corpus("rich_type3")
    for trials in (0, -5):
        with pytest.raises(ValueError):
            cross_check_verdicts(sc, trials=trials)


def test_one_draw_serves_every_identity(monkeypatch):
    draws = []
    real = feasibility.CodingAssignment.random

    def counted(*args, **kwargs):
        draws.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(feasibility.CodingAssignment, "random", counted)
    # name -> draws; every holding identity sees all 20, and rich_type3's
    # ten false identities are all refuted by the first draw.
    for name, expect in (("eta_one_corridor", 20), ("rich_type3", 1),
                         ("shared_bottleneck", 20)):
        draws.clear()
        verdicts = cross_check_verdicts(load_corpus(name), trials=20, seed=0)
        assert len(draws) == expect, name
        for key, v in verdicts.items():
            assert v.trials == (20 if v.all_equal else 1), (name, key)
        assert {n for n, v in verdicts.items() if v.all_equal} == CORPUS_EXPECT[name][2]
