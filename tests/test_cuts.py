"""Bottleneck sets, alpha/beta edges, parallelism and small min-cuts."""

import itertools
import random

import pytest
from hypothesis import given, settings

from genutils import (
    brute_alpha,
    brute_beta,
    brute_bottlenecks,
    brute_connects,
    brute_pair_cut,
    brute_parallel,
    edge_ids,
    index_of,
    permute_sessions,
    random_connected_scenario,
    random_scenario,
    scenarios,
)
from netalign import corpus_names, load_corpus
from netalign.cuts import (
    DisconnectedError,
    alpha_beta,
    alpha_edge,
    bottleneck_set,
    cut_by_pair,
    min_cut,
    parallel,
)
from netalign.xfer import oracle_transfer_poly


# -- bottleneck sets ------------------------------------------------------------


def bottleneck_ids(sc, src, dst):
    """bottleneck_set between two edge ids, its members as ids."""
    at = index_of(sc)
    return edge_ids(sc, bottleneck_set(sc, at[src], at[dst]).members)


def test_bottlenecks_on_shared_bottleneck():
    sc = load_corpus("shared_bottleneck")
    at = index_of(sc)
    assert bottleneck_ids(sc, 1, 5) == [1, 4, 5]
    assert bottleneck_ids(sc, 2, 7) == [2, 4, 7]
    assert at[4] in bottleneck_set(sc, at[3], at[6]).members
    assert at[1] not in bottleneck_set(sc, at[2], at[7]).members


def test_bottlenecks_edge_cases():
    sc = load_corpus("three_disjoint")
    assert bottleneck_ids(sc, 1, 2) == [1, 2]
    assert bottleneck_ids(sc, 1, 4) == []  # no path
    assert bottleneck_ids(sc, 3, 3) == [3]


def test_bottlenecks_match_removal_oracle():
    rng = random.Random(83)
    for _ in range(30):
        sc = random_scenario(rng) if rng.random() < 0.5 else random_connected_scenario(rng)
        edges = range(len(sc.edges))
        taus = [sc.tau(i) for i in (1, 2, 3)]
        pairs = [(sc.sigma(j), tau) for j in (1, 2, 3) for tau in taus]
        # Every member of a sender's chain, queried as src, reads its own
        # tree: the suffix that `alpha_beta` takes off the sender's chain.
        pairs += [(src, tau) for j in (1, 2, 3) for dst in taus
                  for src in bottleneck_set(sc, sc.sigma(j), dst).members for tau in taus]
        pairs += [(rng.choice(edges), rng.choice(edges)) for _ in range(5)]
        for src, dst in pairs:
            got = bottleneck_set(sc, src, dst).members
            assert got == brute_bottlenecks(sc, src, dst)
            assert got == sorted(got)


def test_every_tree_matches_removal_oracle():
    # Every edge as src, not only sender edges: a source whose tail has
    # other out-edges starts its tree among siblings, and later siblings
    # copy the idom their first sibling found.
    rng = random.Random(101)
    shared = 0
    for _ in range(30):
        sc = random_scenario(rng) if rng.random() < 0.5 else random_connected_scenario(rng)
        edges = range(len(sc.edges))
        for src in edges:
            for dst in edges:
                assert bottleneck_set(sc, src, dst).members == brute_bottlenecks(sc, src, dst)
        shared += sum(len(outs) > 1 for outs, ins in zip(sc.out_edges, sc.in_edges) if ins)
    assert shared  # some node with in-edges has several out-edges


def test_bottlenecks_lie_on_every_path():
    rng = random.Random(89)
    for _ in range(10):
        sc = random_connected_scenario(rng)
        for j in (1, 2, 3):
            for i in (1, 2, 3):
                src, dst = sc.sigma(j), sc.tau(i)
                members = set(bottleneck_set(sc, src, dst).members)
                at = index_of(sc)
                for mono in oracle_transfer_poly(sc, src, dst).monos:
                    path_edges = {src} | {at[var[1]] for var, _ in mono}
                    assert members <= path_edges


# -- alpha and beta edges --------------------------------------------------------


def test_alpha_beta_single_shared_edge():
    sc = load_corpus("shared_bottleneck")
    assert edge_ids(sc, alpha_beta(sc, 2, 1, 3)) == [4, 4]
    assert edge_ids(sc, alpha_beta(sc, 3, 1, 2)) == [4, 4]


def test_alpha_beta_two_edge_corridor():
    sc = load_corpus("two_corridor")
    assert edge_ids(sc, alpha_beta(sc, 2, 1, 3)) == [4, 7]
    assert edge_ids(sc, alpha_beta(sc, 3, 1, 2)) == [4, 7]


def test_alpha_edges_on_type_two_gadget():
    sc = load_corpus("type_two_gadget")
    assert edge_ids(sc, [alpha_edge(sc, 2, 1, 3), alpha_edge(sc, 3, 1, 2)]) == [8, 11]


def test_alpha_beta_match_brute_oracle():
    # Random draws never yield a Type II network, so the fully connected
    # corpus gadgets also run under every session permutation: their alpha
    # edges sit inside the senders' chains.
    rng = random.Random(97)
    scs = [random_connected_scenario(rng) for _ in range(25)]
    gadgets = [load_corpus(name) for name in corpus_names()]
    scs += [permute_sessions(sc, perm) for sc in gadgets
            if all(brute_connects(sc, sc.sigma(j), sc.tau(i)) for j in (1, 2, 3) for i in (1, 2, 3))
            for perm in itertools.permutations((1, 2, 3))]
    assert len(scs) == 25 + 5 * 6
    for sc in scs:
        for (i, j, k) in itertools.permutations((1, 2, 3)):
            alpha = brute_alpha(sc, i, j, k)
            assert alpha_edge(sc, i, j, k) == alpha
            assert alpha_beta(sc, i, j, k) == (alpha, brute_beta(sc, i, j, k))


def test_alpha_requires_connectivity():
    sc = load_corpus("three_disjoint")
    with pytest.raises(DisconnectedError):
        alpha_edge(sc, 2, 1, 3)
    with pytest.raises(DisconnectedError):
        alpha_beta(sc, 2, 1, 3)
    dead = load_corpus("m21_dead")
    with pytest.raises(DisconnectedError):
        alpha_edge(sc, 2, 1, 3)
    assert dead.ids[alpha_edge(dead, 1, 2, 3)] == 1


# -- parallel predicate -----------------------------------------------------------


def test_parallel_anchors():
    sc = load_corpus("type_two_gadget")
    at = index_of(sc)
    assert parallel(sc, at[8], at[11])
    assert parallel(sc, at[4], at[5])
    assert not parallel(sc, at[8], at[12])  # consecutive
    assert not parallel(sc, at[2], at[13])  # sigma_2 eventually reaches v1 -> r3
    with pytest.raises(ValueError):
        parallel(sc, at[8], at[8])


def test_parallel_matches_brute():
    rng = random.Random(101)
    for _ in range(15):
        sc = random_scenario(rng)
        for _ in range(10):
            a, b = rng.sample(range(len(sc.edges)), 2)
            assert parallel(sc, a, b) == brute_parallel(sc, a, b)


# -- min-cut -----------------------------------------------------------------------


def test_min_cut_frozen_values():
    hub = load_corpus("shared_bottleneck")
    sigmas = [hub.sigma(i) for i in (1, 2, 3)]
    taus = [hub.tau(i) for i in (1, 2, 3)]
    assert min_cut(hub, sigmas, taus) == 1
    rich = load_corpus("rich_type3")
    assert min_cut(rich, [rich.sigma(i) for i in (1, 2, 3)],
                   [rich.tau(i) for i in (1, 2, 3)]) == 3
    corridor = load_corpus("two_corridor")
    assert min_cut(corridor, [corridor.sigma(i) for i in (1, 2, 3)],
                   [corridor.tau(i) for i in (1, 2, 3)]) == 2


def test_cut_by_pair_frozen_values():
    hub = load_corpus("shared_bottleneck")
    corridor = load_corpus("two_corridor")
    for src_pair in ((1, 2), (1, 3), (2, 3)):
        for dst_pair in ((1, 2), (1, 3), (2, 3)):
            assert cut_by_pair(hub, src_pair, dst_pair) == 1
            assert cut_by_pair(load_corpus("rich_type3"), src_pair, dst_pair) == 2
    assert cut_by_pair(corridor, (2, 3), (2, 3)) == 1
    assert cut_by_pair(corridor, (1, 2), (1, 3)) == 2


def test_min_cut_single_source_bounds():
    rng = random.Random(103)
    for _ in range(10):
        sc = random_scenario(rng)
        for i in (1, 2, 3):
            value = min_cut(sc, [sc.sigma(i)], [sc.tau(i)])
            connected = sc.connects(sc.sigma(i), sc.tau(i))
            assert value == (1 if connected else 0)


def test_pair_cuts_match_subset_oracle():
    rng = random.Random(107)
    for _ in range(30):
        sc = random_scenario(rng) if rng.random() < 0.5 else random_connected_scenario(rng)
        for src_pair in ((1, 2), (1, 3), (2, 3)):
            for dst_pair in ((1, 2), (1, 3), (2, 3)):
                got = cut_by_pair(sc, src_pair, dst_pair)
                want = brute_pair_cut(sc,
                                      [sc.sigma(a) for a in src_pair],
                                      [sc.tau(b) for b in dst_pair])
                assert got == want


@settings(max_examples=150, deadline=None, database=None)
@given(scenarios())
def test_cut_by_pair_matches_brute_property(sc):
    for src_pair in ((1, 2), (1, 3), (2, 3)):
        for dst_pair in ((1, 2), (1, 3), (2, 3)):
            want = brute_pair_cut(sc, [sc.sigma(a) for a in src_pair],
                                  [sc.tau(b) for b in dst_pair])
            assert cut_by_pair(sc, src_pair, dst_pair) == want
