"""Scenario parsing, model validation, topological order and reachability."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genutils import (
    brute_reach,
    brute_reach_back,
    closure_matrix,
    edge_adjacency,
    edge_adjacency_back,
    make_scenario,
    random_connected_scenario,
    random_scenario,
    scenario_texts,
)
from netalign.dag import (
    Edge,
    ModelViolationError,
    Scenario,
    ScenarioParseError,
    load_scenario,
    parse_scenario,
    serialize_scenario,
)

BASIC = """
# three sessions through a two-node core
edge 0 s1 u
edge 1 s2 u
edge 2 s3 v
edge 10 u v     # internal corridor
edge 11 u v     # parallel copy
edge 3 v r1
edge 4 v r2
edge 5 v r3
node lonely
session 1 s1 r1
session 2 s2 r2
session 3 s3 r3
"""


def test_parse_basic():
    sc = parse_scenario(BASIC)
    assert len(sc.edges) == 8
    assert "lonely" in sc.nodes
    assert len(sc.nodes) == 9
    assert [sc.sigma(i) for i in (1, 2, 3)] == [0, 1, 2]
    assert [sc.tau(i) for i in (1, 2, 3)] == [3, 4, 5]
    assert Edge(10, "u", "v") in sc.edges
    s2 = sc.sessions[1]
    assert (s2.index, s2.sender, s2.receiver) == (2, "s2", "r2")


def test_parse_errors():
    bad_texts = [
        "flow 1 a b",  # unknown directive
        "edge x a b\n",  # non-integer id
        "edge -1 a b\n",  # negative id
        "edge 1 a b\nedge 1 b c\n",  # duplicate id
        "edge 1 a\n",  # wrong arity
        "node a b\n",  # wrong arity
        "session 4 a b\n",  # index out of range
        "session 1 a b\nsession 1 c d\n",  # duplicate session
    ]
    for text in bad_texts:
        with pytest.raises(ScenarioParseError):
            parse_scenario(text)
    with pytest.raises(ScenarioParseError):
        parse_scenario("edge 0 s1 u\nsession 1 s1 u\nsession 2 s1 u\n")


def test_model_violations():
    base = ["edge 0 s1 u", "edge 1 s2 u", "edge 2 s3 u",
            "edge 3 u r1", "edge 4 u r2", "edge 5 u r3"]
    sessions = ["session 1 s1 r1", "session 2 s2 r2", "session 3 s3 r3"]

    def build(extra):
        return parse_scenario("\n".join(base + extra + sessions))

    with pytest.raises(ModelViolationError):
        build(["edge 6 u u"])  # self loop
    with pytest.raises(ModelViolationError):
        build(["edge 6 u v", "edge 7 v u"])  # directed cycle
    with pytest.raises(ModelViolationError):
        build(["edge 6 s1 u"])  # sender with two outgoing edges
    with pytest.raises(ModelViolationError):
        build(["edge 6 u s1"])  # sender with an incoming edge
    with pytest.raises(ModelViolationError):
        build(["edge 6 r1 u"])  # receiver with an outgoing edge
    with pytest.raises(ModelViolationError):
        build(["edge 6 u r1"])  # receiver with two incoming edges
    with pytest.raises(ModelViolationError):
        parse_scenario("\n".join(base + ["session 1 zz r1"] + sessions[1:]))


def test_six_designated_edges_distinct():
    # a direct sender-to-receiver edge would serve as both sigma_1 and tau_1
    text = "\n".join([
        "edge 0 s1 r1", "edge 1 s2 u", "edge 2 s3 u",
        "edge 3 u r2", "edge 4 u r3",
        "session 1 s1 r1", "session 2 s2 r2", "session 3 s3 r3",
    ])
    with pytest.raises(ModelViolationError):
        parse_scenario(text)


def test_constructor_duplicate_edge_ids():
    with pytest.raises(ModelViolationError):
        make_scenario([(0, "s1", "u"), (0, "s2", "u"), (2, "s3", "u"),
                       (3, "u", "r1"), (4, "u", "r2"), (5, "u", "r3")])


def test_sessions_must_be_exactly_1_2_3():
    with pytest.raises(ModelViolationError):
        make_scenario([(0, "s1", "u"), (1, "s2", "u"), (2, "s3", "u"),
                       (3, "u", "r1"), (4, "u", "r2"), (5, "u", "r3")],
                      sessions=((1, "s1", "r1"), (1, "s2", "r2"), (3, "s3", "r3")))


def _greedy_topo(sc):
    # canonical order, re-derived the slow way: repeatedly place the
    # smallest-id edge whose every predecessor is already placed
    prevs = edge_adjacency_back(sc)
    done = set()
    order = []
    remaining = {e.id for e in sc.edges}
    while remaining:
        ready = [eid for eid in remaining if all(p in done for p in prevs[eid])]
        pick = min(ready)
        order.append(pick)
        done.add(pick)
        remaining.remove(pick)
    return order


def test_topological_order_is_canonical():
    rng = random.Random(23)
    for _ in range(40):
        sc = random_scenario(rng)
        assert sc.topo_order == _greedy_topo(sc)
        assert sc.topo_pos == {eid: i for i, eid in enumerate(sc.topo_order)}
        for eid in sc.topo_order:
            for prev in sc.pred[eid]:
                assert sc.topo_pos[prev] < sc.topo_pos[eid]


def test_serialize_round_trip():
    rng = random.Random(29)
    for _ in range(20):
        sc = random_scenario(rng)
        text = serialize_scenario(sc)
        again = parse_scenario(text)
        assert serialize_scenario(again) == text
        assert again.topo_order == sc.topo_order
        assert [again.sigma(i) for i in (1, 2, 3)] == [sc.sigma(i) for i in (1, 2, 3)]
        assert [again.tau(i) for i in (1, 2, 3)] == [sc.tau(i) for i in (1, 2, 3)]


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(st.text(), scenario_texts(valid=False)))
def test_parse_fails_only_with_input_errors(text):
    try:
        sc = parse_scenario(text)
    except (ScenarioParseError, ModelViolationError):
        return
    assert isinstance(sc, Scenario)
    once = serialize_scenario(sc)
    assert serialize_scenario(parse_scenario(once)) == once


@settings(max_examples=150, deadline=None, database=None)
@given(scenario_texts())
def test_serialize_parse_is_a_fixed_point(text):
    sc = parse_scenario(text)
    once = serialize_scenario(sc)
    again = parse_scenario(once)
    assert serialize_scenario(again) == once
    assert again.edges == sc.edges and again.sessions == sc.sessions
    assert again.nodes == sc.nodes


def test_serialization_keeps_isolated_nodes():
    again = parse_scenario(serialize_scenario(parse_scenario(BASIC)))
    assert len(again.nodes) == 9 and "lonely" in again.nodes


def test_serialization_ignores_declaration_order():
    lines = [ln for ln in BASIC.strip().splitlines() if ln and not ln.startswith("#")]
    rng = random.Random(3)
    reference = serialize_scenario(parse_scenario(BASIC))
    for _ in range(5):
        rng.shuffle(lines)
        assert serialize_scenario(parse_scenario("\n".join(lines))) == reference


def test_load_scenario(tmp_path):
    path = tmp_path / "net.scn"
    path.write_text(BASIC, encoding="utf-8")
    sc = load_scenario(path)
    assert len(sc.edges) == 8


def test_reachability_against_two_brute_oracles():
    rng = random.Random(31)
    for _ in range(25):
        sc = random_scenario(rng) if rng.random() < 0.5 else random_connected_scenario(rng)
        closure = closure_matrix(sc)
        ids = [e.id for e in sc.edges]
        for start in ids:
            fwd = sc.reachable_edges(start)
            assert fwd == brute_reach(sc, start)
            assert fwd == {b for b in ids if closure[start][b]}
            back = sc.reachable_edges(start, forward=False)
            assert back == brute_reach_back(sc, start)
            assert back == {a for a in ids if closure[a][start]}
        for a in ids:
            for b in ids:
                assert sc.connects(a, b) == closure[a][b]


def test_reachability_with_banned_edges():
    rng = random.Random(37)
    for _ in range(25):
        sc = random_scenario(rng)
        ids = [e.id for e in sc.edges]
        banned = tuple(rng.sample(ids, rng.randint(0, 3)))
        for start in ids:
            assert sc.reachable_edges(start, banned=banned) == brute_reach(sc, start, banned)
        if banned:
            assert sc.reachable_edges(banned[0], banned=banned) == set()


def test_adjacency_accessors():
    rng = random.Random(43)
    for _ in range(15):
        sc = random_scenario(rng)
        adj = edge_adjacency(sc)
        back = edge_adjacency_back(sc)
        for e in sc.edges:
            assert sorted(sc.succ[e.id]) == adj[e.id]
            assert sorted(sc.pred[e.id]) == back[e.id]
        expected_pairs = {(a.id, b.id) for a in sc.edges for b in sc.edges
                          if a.head == b.tail}
        assert set(sc.pairs) == expected_pairs
        assert sc.pairs is sc.pairs  # built once per scenario


def test_repr_smoke():
    sc = parse_scenario(BASIC)
    assert "8 edges" in repr(sc)
