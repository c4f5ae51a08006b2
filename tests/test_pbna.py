"""Precoding plans: structure, alignment, rank witnesses and simulation."""

import dataclasses
import functools
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from genutils import (
    column,
    make_scenario,
    mul_vec,
    permute_sessions,
    perturbed_type_two,
    rand,
    random_connected_scenario,
    random_scenario,
    received_block,
    receiver_system,
    ref_pow,
    ref_decode,
    sender_matrix,
    transfer,
)
from netalign import corpus_names, load_corpus, pbna
from netalign.dag import serialize_scenario
from netalign.feasibility import (
    NetworkType,
    classify,
    connectivity_map,
    reduced_structure,
    report_identity_flags,
)
from netalign.gf2m import Field, field
from netalign.pbna import (
    ETA_DEN,
    ETA_NUM,
    PrecodingPlan,
    _decode,
    _receiver,
    build_plan,
    check_alignment,
    check_rank,
    evaluate_precoding,
    propagate,
    simulate,
)
from netalign.xfer import (
    SESSION_PAIRS,
    CodingAssignment,
    ResampleLimitError,
    oracle_coupling_verdicts,
    pair_ratio,
    session_transfer_matrix,
)

F16 = field(16)
# the chains of every alignment constraint and of none
ALIGNED = reduced_structure(dict.fromkeys(SESSION_PAIRS, True))
UNALIGNED = reduced_structure(dict.fromkeys(SESSION_PAIRS, False))


def draw(name_or_sc, plan, seed=0):
    sc = load_corpus(name_or_sc) if isinstance(name_or_sc, str) else name_or_sc
    return evaluate_precoding(sc, plan, F16, random.Random(seed))


def draw_columns(monkeypatch, sc, plan, rng, f=F16):
    """A draw of `plan` on `sc` and its free columns, keyed by base block.

    Every `Field.draw` call of the draw is recorded: the kept and resampled
    coding assignments, then (free-column plans only) one column of N values
    per base block, in block order, and nothing else.
    """
    drawn = []
    real = Field.draw

    def recording(self, rng, count):
        drawn.append(real(self, rng, count))
        return drawn[-1]

    with monkeypatch.context() as patched:
        patched.setattr(Field, "draw", recording)
        es = evaluate_precoding(sc, plan, f, rng)
    blocks = sorted(set(es.structure.base)) if plan.n is None else []
    assert len(drawn) == plan.N + es.resamples + len(blocks)
    columns = drawn[plan.N + es.resamples:]
    assert all(len(col) == plan.N for col in columns)
    return es, dict(zip(blocks, columns))


# -- plan shapes -------------------------------------------------------------------


def test_plan_shapes():
    p = PrecodingPlan.eta_general(1)
    assert (p.N, p.k, p.n) == (3, (2, 1, 1), 1)
    assert p.rates == (Fraction(2, 3), Fraction(1, 3), Fraction(1, 3))
    p = PrecodingPlan.eta_general(2)
    assert (p.N, p.k) == (5, (3, 2, 2))
    assert p.rates == (Fraction(3, 5), Fraction(2, 5), Fraction(2, 5))
    p = PrecodingPlan.eta_one()
    assert (p.N, p.k) == (2, (1, 1, 1))
    p = PrecodingPlan.type_two_five()
    assert (p.N, p.k, p.n) == (5, (2, 2, 2), 2)
    assert p.rates == (Fraction(2, 5),) * 3
    p = PrecodingPlan.trivial_third()
    assert (p.N, p.k) == (3, (1, 1, 1))
    with pytest.raises(ValueError):
        PrecodingPlan.eta_general(0)


@pytest.mark.parametrize("lead", [0, 4, 5, -1])
def test_plan_lead_must_be_a_session(lead):
    assert [PrecodingPlan.type_two_five(s).lead for s in (1, 2, 3)] == [1, 2, 3]
    with pytest.raises(ValueError, match="lead must be 1, 2 or 3"):
        PrecodingPlan.type_two_five(lead)
    with pytest.raises(ValueError, match="lead must be 1, 2 or 3"):
        dataclasses.replace(PrecodingPlan.eta_one(), lead=lead)


def test_build_plan_follows_classification():
    expect = {
        "shared_bottleneck": "TrivialThird",
        "two_corridor": "TrivialThird",
        "type_two_gadget": "TypeTwoFive",
        "rich_type3": "EtaGeneral",
        "eta_one_corridor": "EtaOne",
        "three_disjoint": "EtaOne",
        "m21_dead": "EtaOne",
    }
    for name, kind in expect.items():
        _, nt = classify(load_corpus(name))
        assert build_plan(nt, n=2).kind == kind, name
    assert build_plan(classify(load_corpus("rich_type3"))[1], n=3).n == 3
    half_no = NetworkType("Reduced", Fraction(1, 3), half_feasible=False)
    assert build_plan(half_no).kind == "TrivialThird"
    with pytest.raises(ValueError):
        build_plan(NetworkType("IV", Fraction(0)))


# -- evaluated scheme internals ----------------------------------------------------


def test_slot_values_are_transfer_functions():
    sc = load_corpus("rich_type3")
    es = draw(sc, PrecodingPlan.eta_general(2), seed=3)
    for t, x in enumerate(es.assignments):
        for j in (1, 2, 3):
            for i in (1, 2, 3):
                want = transfer(sc, x, F16, sc.sigma(j), sc.tau(i))
                assert es.m_vals[(j, i)][t] == want


def test_eta_general_precoders_are_eta_powers(monkeypatch):
    # V_j is the plan's gain profile times its column family, whatever the
    # network: the eta-power plans pin V2 and V3 to V1 through receivers 3
    # and 2 even where the network's own chain differs (m13 is absent from
    # `no_m13`), and TrivialThird sends its free columns unscaled.
    no_m13 = make_scenario([(1, "s1", "u"), (2, "s2", "v"), (3, "s3", "v"),
                            (4, "v", "u"), (5, "u", "r1"), (6, "u", "r2"), (7, "v", "r3")])
    conn = connectivity_map(no_m13)
    assert [pair for pair, on in conn.items() if not on] == [(1, 3)]
    assert reduced_structure(conn) != ALIGNED
    rng = random.Random(9)
    scs = [load_corpus(name) for name in corpus_names()] + [no_m13]
    scs += [random_scenario(rng) for _ in range(30)]
    plans = (PrecodingPlan.eta_general(1), PrecodingPlan.eta_general(2),
             PrecodingPlan.type_two_five(), PrecodingPlan.trivial_third())
    # the eta powers come from `ref_pow`, not from a chain of `Field.mul`
    for f in (F16, field(32)):
        checked = Counter()
        for sc in scs:
            for plan in plans:
                try:
                    es, columns = draw_columns(monkeypatch, sc, plan, rng, f)
                except ResampleLimitError:
                    continue  # a gain denominator is identically zero
                checked[plan.kind, sc is no_m13] += 1
                for t in range(plan.N):
                    m = {pair: vals[t] for pair, vals in es.m_vals.items()}
                    if plan.n is None:
                        assert [v.rows[t] for v in es.V] == [[columns[j][t]] for j in range(3)]
                        continue
                    num = functools.reduce(f.mul, [m[(1, 3)], m[(2, 1)], m[(3, 2)]])
                    den = functools.reduce(f.mul, [m[(1, 2)], m[(2, 3)], m[(3, 1)]])
                    eta = f.div(num, den)
                    g2 = f.div(m[(1, 3)], m[(2, 3)])
                    g3 = f.div(m[(1, 2)], m[(3, 2)])
                    powers = [ref_pow(eta, c, f.poly) for c in range(plan.n + 1)]
                    assert es.V[0].rows[t] == powers
                    assert es.V[1].rows[t] == [f.mul(g2, v) for v in powers[:-1]]
                    assert es.V[2].rows[t] == [f.mul(g3, v) for v in powers[1:]]
        for kind in ("EtaGeneral", "TypeTwoFive", "TrivialThird"):
            assert checked[kind, True] >= 1 and checked[kind, False] >= 10, (f, kind)


def test_type_two_five_sends_outer_columns():
    es = draw("type_two_gadget", PrecodingPlan.type_two_five(), seed=2)
    assert es.data_cols == ((0, 2), (0, 1), (0, 1))
    sm = sender_matrix(es, 1)
    assert sm.ncols == 2
    assert column(sm, 0) == column(es.V[0], 0)
    assert column(sm, 1) == column(es.V[0], 2)


def test_receiver_rows_are_the_stacked_blocks():
    # one pass of m_ji(t) V_j[t] per slot gives what stacking the scaled
    # blocks gave, for every plan, receiver and field form
    plans = (PrecodingPlan.eta_general(2), PrecodingPlan.eta_one(),
             PrecodingPlan.type_two_five(), PrecodingPlan.trivial_third())
    checked = 0
    for f in (F16, field(32)):
        rng = random.Random(8)
        for name in corpus_names():
            for plan in plans:
                try:
                    es = evaluate_precoding(load_corpus(name), plan, f, rng)
                except ResampleLimitError:
                    continue
                for i in (1, 2, 3):
                    rows, ends = _receiver(es, i)
                    ref = receiver_system(es, i)
                    assert rows == ref.rows, (name, plan.kind, i)
                    others = [j for j in (1, 2, 3) if j != i]
                    assert ends == (es.V[others[0] - 1].ncols,
                                    es.V[others[0] - 1].ncols + es.V[others[1] - 1].ncols,
                                    ref.ncols)
                    checked += 1
    assert checked >= 100


def test_simulate_builds_the_chain_once(monkeypatch):
    calls = []
    real = pbna.connectivity_map

    def counted(sc):
        calls.append(sc)
        return real(sc)

    monkeypatch.setattr(pbna, "connectivity_map", counted)
    res = simulate(load_corpus("m21_dead"), PrecodingPlan.eta_one(), trials=30, field=F16, seed=3)
    assert res.successes == 30
    assert len(calls) == 1


def test_eta_vals_undefined_on_disjoint_paths():
    # eta's denominator is identically zero, yet a plan without eta powers
    # draws all its slots without resampling
    es = draw("three_disjoint", PrecodingPlan.trivial_third(), seed=0)
    slots = [{pair: vals[t] for pair, vals in es.m_vals.items()} for t in range(3)]
    assert [pair_ratio(F16, m, ETA_NUM, ETA_DEN) for m in slots] == [None, None, None]
    assert es.resamples == 0
    assert es.structure == UNALIGNED and es.reduced  # TrivialThird aligns nothing


# -- propagation -------------------------------------------------------------------


def test_propagate_is_linear_in_injections():
    # the one lane with three sources, in both field forms (tables up to
    # 2^16, lifted above)
    rng = random.Random(77)
    scs = [load_corpus(n) for n in ("two_corridor", "m21_dead")]
    scs += [random_connected_scenario(rng) for _ in range(5)]
    for f in map(field, (1, 4, 16, 17, 32)):
        for sc in scs:
            for _ in range(4):
                x = CodingAssignment.random(sc, f, rng)
                m = session_transfer_matrix(sc, x, f)
                u = [rand(f, rng) for _ in range(3)]
                got = propagate(sc, x, f, u)
                for i in (1, 2, 3):
                    want = 0
                    for j in (1, 2, 3):
                        want ^= f.mul(m[(j, i)], u[j - 1])
                    assert got[i - 1] == want


# -- alignment ---------------------------------------------------------------------


def test_eta_general_alignment_identities():
    n = 2
    for seed in range(6):
        es = draw("rich_type3", PrecodingPlan.eta_general(n), seed=seed)
        b21, b31 = received_block(es, 2, 1), received_block(es, 3, 1)
        for c in range(n):
            assert column(b21, c) == column(b31, c)
        b12, b32 = received_block(es, 1, 2), received_block(es, 3, 2)
        for c in range(n):
            assert column(b32, c) == column(b12, c + 1)
        b13, b23 = received_block(es, 1, 3), received_block(es, 2, 3)
        for c in range(n):
            assert column(b23, c) == column(b13, c)
        assert check_alignment(es)


POSITIVE_PAIRINGS = [
    ("shared_bottleneck", PrecodingPlan.trivial_third()),
    ("two_corridor", PrecodingPlan.trivial_third()),
    ("type_two_gadget", PrecodingPlan.type_two_five()),
    ("rich_type3", PrecodingPlan.eta_general(1)),
    ("rich_type3", PrecodingPlan.eta_general(3)),
    ("eta_one_corridor", PrecodingPlan.eta_one()),
    ("three_disjoint", PrecodingPlan.eta_one()),
    ("m21_dead", PrecodingPlan.eta_one()),
]


def test_alignment_and_rank_on_matched_plans():
    for name, plan in POSITIVE_PAIRINGS:
        sc = load_corpus(name)
        rng = random.Random(11)
        for _ in range(25):
            es = evaluate_precoding(sc, plan, F16, rng)
            assert check_alignment(es), name
            assert all(check_rank(es)), name


# -- deterministic rank witnesses ----------------------------------------------------


def test_type_two_network_defeats_eta_general():
    sc = load_corpus("type_two_gadget")
    rng = random.Random(3)
    for _ in range(25):
        es = evaluate_precoding(sc, PrecodingPlan.eta_general(2), F16, rng)
        assert check_rank(es)[0] is False


def test_coupled_network_defeats_half_rate_plans():
    sc = load_corpus("shared_bottleneck")
    rng = random.Random(4)
    for plan in (PrecodingPlan.eta_one(), PrecodingPlan.eta_general(1)):
        for _ in range(25):
            es = evaluate_precoding(sc, plan, F16, rng)
            assert check_alignment(es)  # interference aligns fine...
            assert check_rank(es)[0] is False  # ...but swallows the signal


def test_eta_one_draws_align_exactly_when_eta_is_one():
    # check_alignment refuses as well as accepts: with every constraint
    # chained, receiver 1's two interference blocks line up only where the
    # graph says eta is 1
    f32, verdicts = field(32), set()
    for name in corpus_names():
        sc = load_corpus(name)
        report, nt = classify(sc)
        if not report.fully_connected:
            continue
        rng = random.Random(17)
        aligned = [check_alignment(evaluate_precoding(sc, PrecodingPlan.eta_one(), f32, rng))
                   for _ in range(50)]
        assert aligned == [nt.eta_is_one] * 50, name
        verdicts.add(nt.eta_is_one)
    assert verdicts == {True, False}


def test_reduced_networks_without_half_rate_defeat_eta_one():
    # the Reduced converse: where classify says rate 1/2 is out of reach (a
    # dead session, or a decode ratio whose pair cut is 1), the two-slot
    # plan built on the network's own chain fails some receiver at every draw
    rng = random.Random(7)
    rates = Counter()
    while sum(rates.values()) < 400:
        sc = random_scenario(rng)
        report, nt = classify(sc)
        if report.fully_connected:
            continue
        rates[nt.optimal_rate] += 1
        if nt.half_feasible:
            continue
        for _ in range(10):
            es = evaluate_precoding(sc, PrecodingPlan.eta_one(), F16, rng)
            assert not all(check_rank(es)), (nt.optimal_rate, serialize_scenario(sc))
    assert rates[Fraction(0)] >= 100 and rates[Fraction(1, 3)] >= 5, rates


def test_rank_verdict_is_decode_outcome_for_every_pairing():
    # check_rank must say exactly which receivers recover data sent through
    # the network at the same draw, matched or mismatched plan alike;
    # simulate with one trial replays the draw evaluate_precoding makes
    # from the same seed.
    plans = (PrecodingPlan.eta_general(2), PrecodingPlan.eta_one(),
             PrecodingPlan.type_two_five(), PrecodingPlan.trivial_third())
    compared = 0
    for name in corpus_names():
        sc = load_corpus(name)
        for plan in plans:
            for seed in range(20):
                try:
                    es = evaluate_precoding(sc, plan, F16, random.Random(seed))
                except ResampleLimitError:
                    break  # a needed transfer function is identically zero
                res = simulate(sc, plan, trials=1, field=F16, seed=seed)
                decoded = tuple(fails == 0 for fails in res.receiver_failures)
                assert check_rank(es) == decoded, (name, plan.kind, seed)
                compared += 1
    assert compared >= 400


# -- simulation --------------------------------------------------------------------


def test_simulate_matched_plans_always_decode():
    for name, plan in POSITIVE_PAIRINGS:
        res = simulate(load_corpus(name), plan, trials=40, field=F16, seed=1)
        assert res.successes == 40, name
        assert res.receiver_failures == (0, 0, 0), name
        assert res.rates == plan.rates


def test_simulate_mismatched_plan_always_fails():
    res = simulate(load_corpus("shared_bottleneck"),
                   PrecodingPlan.type_two_five(), trials=30, field=F16, seed=5)
    assert res.successes == 0
    assert res.success_probability == 0.0
    assert res.receiver_failures == (30, 30, 30)


def test_simulate_rejects_bad_trials():
    with pytest.raises(ValueError):
        simulate(load_corpus("shared_bottleneck"),
                 PrecodingPlan.trivial_third(), trials=0, field=F16)


def test_resample_limit_on_vanishing_denominator():
    # m12 is identically zero on disjoint chains, so eta-based plans cannot
    # fill even one slot.
    with pytest.raises(ResampleLimitError, match="m12"):
        evaluate_precoding(load_corpus("three_disjoint"),
                           PrecodingPlan.eta_general(1), F16, random.Random(0))


def test_reduced_scheme_rides_shared_base(monkeypatch):
    sc = load_corpus("m21_dead")
    es, columns = draw_columns(monkeypatch, sc, PrecodingPlan.eta_one(), random.Random(6))
    assert es.reduced
    assert set(columns) == {0}  # single free column, all senders chained
    m = es.m_vals
    for t in range(2):
        th = columns[0][t]
        assert es.V[0].rows[t][0] == th
        assert es.V[1].rows[t][0] == F16.mul(F16.div(m[(1, 3)][t], m[(2, 3)][t]), th)
        assert es.V[2].rows[t][0] == F16.mul(F16.div(m[(1, 2)][t], m[(3, 2)][t]), th)


def test_disjoint_scheme_uses_independent_bases(monkeypatch):
    es, columns = draw_columns(monkeypatch, load_corpus("three_disjoint"),
                               PrecodingPlan.eta_one(), random.Random(6))
    assert set(columns) == {0, 1, 2}
    assert [es.V[j].rows[t][0] for j in range(3) for t in range(2)] == \
           [columns[j][t] for j in range(3) for t in range(2)]


def test_dead_session_graph_decodes_other_two():
    sc = make_scenario([
        (1, "s1", "x"),
        (2, "y", "r1"),
        (3, "s2", "c"), (4, "c", "r2"),
        (5, "s3", "d"), (6, "d", "r3"),
    ])
    _, nt = classify(sc)
    plan = build_plan(nt)
    assert plan.kind == "TrivialThird"
    res = simulate(sc, plan, trials=20, field=F16, seed=2)
    # session 1 has no path at all: its receiver fails every time
    assert res.successes == 0
    assert res.receiver_failures[0] == 20
    assert res.receiver_failures[1:] == (0, 0)


# -- exact decode against the reference elimination --------------------------------


def test_decode_matches_reference_decode_in_small_fields():
    # at m = 1..4 draws are often degenerate, so both the accepting and the
    # rejecting branch of the decode run, at zero, random and consistent y
    plans = (PrecodingPlan.eta_general(2), PrecodingPlan.eta_one(),
             PrecodingPlan.type_two_five(), PrecodingPlan.trivial_third())
    outcomes = Counter()
    for m in (1, 2, 3, 4):
        f = field(m)
        rng = random.Random(m)
        for name in corpus_names():
            sc = load_corpus(name)
            for plan in plans:
                for _ in range(4):
                    try:
                        es = evaluate_precoding(sc, plan, f, rng)
                    except ResampleLimitError:
                        break
                    for i in (1, 2, 3):
                        sent = mul_vec(receiver_system(es, i), f.draw(rng, len(_receiver(es, i)[0][0])))
                        for y in ([0] * plan.N, f.draw(rng, plan.N), sent):
                            got = _decode(es, i, y)
                            assert got == ref_decode(es, i, y), (m, name, plan.kind, i, y)
                            outcomes[got is None] += 1
    assert outcomes[True] >= 300 and outcomes[False] >= 300, outcomes


# -- Type II: the plan leads with the session whose third relation holds ------------


def test_every_session_order_of_the_type_two_gadget_decodes():
    # the network's own plan decodes, and a direct draw of it passes both
    # checks on the network as given: no caller renumbers the sessions
    gadget = load_corpus("type_two_gadget")
    f32 = field(32)
    rng = random.Random(6)
    leads = set()
    for perm in itertools.permutations((1, 2, 3)):
        sc = permute_sessions(gadget, perm)
        _, nt = classify(sc)
        assert nt.kind == "II" and nt.lead in (1, 2, 3), perm
        leads.add(nt.lead)
        res = simulate(sc, build_plan(nt), trials=100, field=F16, seed=4)
        assert res.success_probability >= 0.99, (perm, res.receiver_failures)
        for _ in range(5):
            es = evaluate_precoding(sc, build_plan(nt), f32, rng)
            assert check_rank(es) == (True, True, True) and check_alignment(es), perm
    assert leads == {1, 2, 3}


def test_lead_plays_role_one_and_simulate_reports_in_file_order():
    # a plan led by session `lead` on `sc` is the lead-1 plan on `sc` with its
    # sessions rotated so that `lead` comes first, reported back in `sc`'s order
    sc = permute_sessions(load_corpus("type_two_gadget"), (2, 1, 3))
    assert classify(sc)[1].lead == 2
    for lead in (1, 2, 3):
        rotated = permute_sessions(sc, [(lead - 1 + t) % 3 + 1 for t in range(3)])
        assert [s.sender for s in rotated.sessions] == \
            [sc.sessions[(lead - 1 + t) % 3].sender for t in range(3)]
        res = simulate(sc, PrecodingPlan.type_two_five(lead), trials=30, field=F16, seed=2)
        ref = simulate(rotated, PrecodingPlan.type_two_five(), trials=30, field=F16, seed=2)
        assert res.receiver_failures == tuple(ref.receiver_failures[(s - lead) % 3]
                                              for s in (1, 2, 3))
        assert res.successes == ref.successes
    # led by session 1, whose third relation does not hold, receiver 2 never decodes
    res = simulate(sc, PrecodingPlan.type_two_five(), trials=30, field=F16, seed=2)
    assert res.receiver_failures == (0, 30, 0)


def test_perturbed_type_two_networks_match_oracle_and_decode_at_rate_two_fifths():
    # 1-2 random forward edges and a random session order on the Type II
    # gadget; the matched plan decodes and aligns, and EtaGeneral(3), at a
    # symmetric rate 3/7 above the optimum 2/5, fails at some receiver
    gadget = load_corpus("type_two_gadget")
    f32 = field(32)
    rng = random.Random(11)
    type_two = Counter()
    for _ in range(600):
        sc = perturbed_type_two(rng, gadget)
        report, nt = classify(sc)
        assert report_identity_flags(report) == oracle_coupling_verdicts(sc)
        if nt.kind != "II":
            continue
        type_two[nt.lead] += 1
        plan = build_plan(nt)
        es = evaluate_precoding(sc, plan, f32, rng)
        assert all(check_rank(es)) and check_alignment(es)
        es = evaluate_precoding(sc, PrecodingPlan.eta_general(3), f32, rng)
        assert not all(check_rank(es))
    assert sum(type_two.values()) >= 40 and set(type_two) == {1, 2, 3}, type_two
