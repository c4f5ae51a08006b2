"""Scenario parsing, model validation, topological order and reachability."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genutils import (
    brute_reach,
    brute_reach_back,
    closure_matrix,
    edge_adjacency,
    edge_adjacency_back,
    edge_ids,
    layered_dag,
    make_scenario,
    random_connected_scenario,
    random_scenario,
    scenario_texts,
    scenarios,
)
from netalign.dag import (
    QUOTE_LIMIT,
    Edge,
    ModelViolationError,
    Scenario,
    ScenarioParseError,
    load_scenario,
    parse_scenario,
    quoted,
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
    assert [s.sender_edge for s in sc.sessions] == [0, 1, 2]
    assert [s.receiver_edge for s in sc.sessions] == [3, 4, 5]
    assert edge_ids(sc, sc.senders) == [0, 1, 2]
    assert edge_ids(sc, [sc.tau(i) for i in (1, 2, 3)]) == [3, 4, 5]
    assert Edge(10, "u", "v") in sc.edges
    s2 = sc.sessions[1]
    assert (s2.index, s2.sender, s2.receiver) == (2, "s2", "r2")


def test_parse_errors():
    bad_texts = [
        ("flow 1 a b", "line 1: unknown directive 'flow'"),
        ("edge 1 a\n", "line 1: edge takes an id, a tail and a head, got 2 fields"),
        ("edge 1 s1 a extra\n", "line 1: edge takes an id, a tail and a head, got 4 fields"),
        ("edge 1\n", "line 1: edge takes an id, a tail and a head, got 1 field"),
        ("node a b\n", "line 1: node takes a name, got 2 fields"),
        ("node\n", "line 1: node takes a name, got 0 fields"),
        ("session 1 a\n", "line 1: session takes an index, a sender and a receiver, got 2 fields"),
        ("session 4 a b\n", "line 1: session index must be 1..3"),
        ("session 1 a b\nsession 1 c d\n", "line 2: duplicate session 1"),
        ("edge 0 s1 u\nsession 1 s1 u\nsession 2 s1 u\n",
         "scenario must declare exactly three sessions"),
    ]
    # edge ids are read after every other line, so a bad id needs an
    # otherwise valid text; BASIC has 14 lines and an edge with id 1
    for line, message in (("edge x a b", "edge id must be written in ASCII digits, got 'x'"),
                          ("edge -1 a b", "edge id must be written in ASCII digits, got '-1'"),
                          ("edge 1 a b", "duplicate edge id '1'")):
        bad_texts.append((BASIC + line + "\n", "line 15: " + message))
    for text, message in bad_texts:
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(text)
        assert str(err.value) == message, text


def test_quoted_cuts_values_past_the_limit():
    # up to QUOTE_LIMIT characters the repr, past it the repr of the start
    # and the length in characters (not bytes)
    assert quoted("é" * QUOTE_LIMIT) == repr("é" * QUOTE_LIMIT)
    assert quoted("é" * (QUOTE_LIMIT + 1)) == f"{'é' * QUOTE_LIMIT!r}... (41 characters)"


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


TWO_FAULTS = [  # lines added to six valid edges, session 1's line if changed, the error
    (["edge 7 u u", "edge 1 v w"], None, ScenarioParseError, "line 8: duplicate edge id '1'"),
    (["edge 6 u v", "edge 7 v u", "edge 8 w w"], None, ModelViolationError,
     "self-loop on edge '8'"),
    (["edge 6 u v", "edge 7 v u"], "session 1 zz r1", ModelViolationError,
     "graph has a directed cycle"),
    (["edge x v w", "edge 1 v w"], None, ScenarioParseError,
     "line 7: edge id must be written in ASCII digits, got 'x'"),
    (["edge 1 v w", "edge x v w"], None, ScenarioParseError, "line 7: duplicate edge id '1'"),
]


@pytest.mark.parametrize("extra, first_session, error, message", TWO_FAULTS)
def test_two_faults_report_the_first_check(extra, first_session, error, message):
    # the checks run in a fixed order: line syntax, edge ids (digits and
    # repeats, by line), self-loops, cycles, then the sessions
    base = ["edge 0 s1 u", "edge 1 s2 u", "edge 2 s3 u",
            "edge 3 u r1", "edge 4 u r2", "edge 5 u r3"]
    sessions = [first_session or "session 1 s1 r1", "session 2 s2 r2", "session 3 s3 r3"]
    with pytest.raises(error) as err:
        parse_scenario("\n".join(base + extra + sessions))
    assert str(err.value) == message


def test_parse_peak_stays_near_the_scenario_it_keeps():
    # The traced peak of a parse over the traced size of the Scenario it
    # returns.  On 10k, 20k and 100k-edge layered files under Python
    # 3.10-3.13 it reads 1.61-1.72 when each scratch list dies with its last
    # reader, and 2.19-2.33 when they all live to the constructor's end; the
    # bound sits between the two.
    lines = serialize_scenario(layered_dag(random.Random(9))).splitlines()
    random.Random(5).shuffle(lines)
    text = "\n".join(lines)
    tracemalloc.start()
    try:
        sc = parse_scenario(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sc.ids) == 10000
    assert peak <= 1.8 * kept, peak / kept


def test_sessions_must_be_exactly_1_2_3():
    with pytest.raises(ModelViolationError):
        make_scenario([(0, "s1", "u"), (1, "s2", "u"), (2, "s3", "u"),
                       (3, "u", "r1"), (4, "u", "r2"), (5, "u", "r3")],
                      sessions=((1, "s1", "r1"), (1, "s2", "r2"), (3, "s3", "r3")))


# `Scenario.ids` lists the edge ids in topological order: edge k is the k-th.


def test_predecessors_come_earlier_in_the_order():
    rng = random.Random(23)
    for _ in range(40):
        sc = random_scenario(rng) if rng.random() < 0.5 else random_connected_scenario(rng)
        assert sorted(sc.ids) == sorted(e.id for e in sc.edges)
        position = {eid: k for k, eid in enumerate(sc.ids)}
        for a in sc.edges:
            for b in sc.edges:
                if a.head == b.tail:  # a feeds b, read off the raw edge list
                    assert position[a.id] < position[b.id]


@settings(max_examples=150, deadline=None, database=None)
@given(scenarios(), st.data())
def test_order_ignores_line_order_and_comments(sc, data):
    lines = list(data.draw(st.permutations(serialize_scenario(sc).splitlines())))
    for _ in range(data.draw(st.integers(0, 4))):
        lines.insert(data.draw(st.integers(0, len(lines))),
                     data.draw(st.sampled_from(["", "# note", "  # edge 1 a b"])))
    assert parse_scenario("\n".join(lines)).ids == sc.ids


def test_index_equals_position_in_the_order():
    rng = random.Random(41)
    for _ in range(40):
        sc = random_scenario(rng) if rng.random() < 0.5 else random_connected_scenario(rng)
        adj, back = edge_adjacency(sc), edge_adjacency_back(sc)
        rows, count = dict(sc.program), len(sc.edges)
        assert list(rows) == [k for k in range(count) if sc.pred[k]]
        for e in sc.edges:
            k = sc.ids.index(e.id)  # its position in the order
            assert (sc.nodes[sc.tails[k]], sc.nodes[sc.heads[k]]) == (e.tail, e.head)
            assert sorted(sc.succ[k]) == adj[k] and sorted(sc.pred[k]) == back[k]
            # the sparse program lists exactly the edges with a predecessor,
            # each coefficient at E plus its pair's position
            row = rows.get(k, ())
            assert [p for p, _ in row] == sc.pred[k]
            assert [q - count for _, q in row] == [sc.pair_index[(sc.ids[p], e.id)]
                                                  for p in sc.pred[k]]
        for s in sc.sessions:
            assert sc.ids[sc.sigma(s.index)] == s.sender_edge
            assert sc.ids[sc.tau(s.index)] == s.receiver_edge


def test_serialize_round_trip():
    rng = random.Random(29)
    for _ in range(20):
        sc = random_scenario(rng)
        text = serialize_scenario(sc)
        again = parse_scenario(text)
        assert serialize_scenario(again) == text
        assert again.ids == sc.ids
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
    # `pairs` fixes the order of coefficient draws, so equal pairs also
    # mean an equal random stream.
    rng = random.Random(3)
    for sc in [parse_scenario(BASIC)] + [random_scenario(rng) for _ in range(30)]:
        reference = serialize_scenario(sc)
        lines = reference.splitlines()
        for _ in range(rng.randint(1, 6)):
            lines.insert(rng.randint(0, len(lines)), rng.choice(["", "# note", "   "]))
        rng.shuffle(lines)
        again = parse_scenario("\n".join(lines))
        assert serialize_scenario(again) == reference
        assert again.ids == sc.ids
        assert again.succ == sc.succ and again.pred == sc.pred
        assert again.pairs == sc.pairs
        assert again.sessions == sc.sessions


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
        ids = range(len(sc.edges))
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


class ReadLog(list):
    """A list that records the index of every item read from it."""

    def __init__(self, items, reads):
        super().__init__(items)
        self.reads = reads

    def __getitem__(self, index):
        self.reads.append(index)
        return super().__getitem__(index)


def test_connects_reads_successors_only_below_dst():
    rng = random.Random(53)
    total = 0
    for _ in range(25):
        sc = random_scenario(rng) if rng.random() < 0.5 else random_connected_scenario(rng)
        closure = closure_matrix(sc)
        ids = range(len(sc.edges))
        reads = []
        sc.succ = ReadLog(sc.succ, reads)
        for a in ids:
            for b in ids:  # a >= b included: only a == b connects, reading nothing
                reads.clear()
                assert sc.connects(a, b) == closure[a][b]
                assert all(e < b for e in reads), (a, b, reads)
                total += len(reads)
    assert total  # the log saw the search


def test_reachability_with_banned_edges():
    rng = random.Random(37)
    for _ in range(25):
        sc = random_scenario(rng)
        ids = range(len(sc.edges))
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
        for k in range(len(sc.edges)):
            assert sorted(sc.succ[k]) == adj[k]
            assert sorted(sc.pred[k]) == back[k]
        expected_pairs = {(a.id, b.id) for a in sc.edges for b in sc.edges
                          if a.head == b.tail}
        assert set(sc.pairs) == expected_pairs
        assert sc.pairs is sc.pairs  # built once per scenario


def test_repr_smoke():
    sc = parse_scenario(BASIC)
    assert "8 edges" in repr(sc)
