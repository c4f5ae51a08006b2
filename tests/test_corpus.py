"""The bundled scenarios: frozen sizes, path counts and exact verdicts.

Everything here is checked against the symbolic path-enumeration oracle,
so these are exact statements about the fixtures, not sampled ones.
"""

import pytest

from netalign import corpus_names, load_corpus
from netalign.feasibility import classify, connectivity_map, report_identity_flags
from netalign.xfer import oracle_coupling_verdicts, oracle_session_polys

ALL_NAMES = [
    "eta_one_corridor",
    "m21_dead",
    "rich_type3",
    "shared_bottleneck",
    "three_disjoint",
    "two_corridor",
    "type_two_gadget",
]

# name -> (nodes, edges, kind, s1-to-r1 path count)
SHAPES = {
    "eta_one_corridor": (14, 16, "III", 2),
    "m21_dead": (12, 14, "Reduced", 1),
    "rich_type3": (12, 15, "III", 1),
    "shared_bottleneck": (8, 7, "I", 1),
    "three_disjoint": (9, 6, "Reduced", 1),
    "two_corridor": (13, 13, "I", 1),
    "type_two_gadget": (16, 18, "II", 2),
}


def test_corpus_listing():
    assert corpus_names() == sorted(ALL_NAMES)
    with pytest.raises(FileNotFoundError):
        load_corpus("does_not_exist")


def test_every_instance_is_well_formed():
    for name in ALL_NAMES:
        sc = load_corpus(name)
        nodes, edges, _, _ = SHAPES[name]
        assert (len(sc.nodes), len(sc.edges)) == (nodes, edges), name
        designated = [sc.sigma(i) for i in (1, 2, 3)] + [sc.tau(i) for i in (1, 2, 3)]
        assert len(set(designated)) == 6, name
        assert [s.index for s in sc.sessions] == [1, 2, 3], name


def test_path_counts_and_connectivity_pattern():
    for name in ALL_NAMES:
        sc = load_corpus(name)
        polys = oracle_session_polys(sc)
        assert len(polys[(1, 1)]) == SHAPES[name][3], name
        conn = connectivity_map(sc)
        for pair, poly in polys.items():
            # a session pair is connected exactly when its polynomial survives
            assert conn[pair] == (not poly.is_zero()), (name, pair)


def test_exact_verdicts_match_graph_flags():
    for name in ALL_NAMES:
        sc = load_corpus(name)
        report, nt = classify(sc)
        assert nt.kind == SHAPES[name][2], name
        if not report.fully_connected:
            continue
        assert report_identity_flags(report) == oracle_coupling_verdicts(sc), name


def test_reduced_instances_lose_specific_pairs():
    conn = connectivity_map(load_corpus("m21_dead"))
    assert sorted(pair for pair, ok in conn.items() if not ok) == [(2, 1)]
    conn = connectivity_map(load_corpus("three_disjoint"))
    assert all(ok == (j == i) for (j, i), ok in conn.items())


def test_loads_are_independent_copies():
    a = load_corpus("shared_bottleneck")
    b = load_corpus("shared_bottleneck")
    assert a is not b
    assert a.ids == b.ids
