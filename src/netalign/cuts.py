"""Single-edge bottlenecks, their meeting points, and two-pair cuts.

Edges are `Scenario` indices, numbered in topological order, so "first"
and "last" below are `min` and `max`.  A bottleneck between edges src and
dst is an edge whose removal disconnects every directed path from src to
dst (src and dst themselves always qualify when a path exists): an edge
that dominates dst from src, so the set is dst's chain in src's dominator
tree (`Scenario.dominators`, an `idom` list).  Segment rule:
when src lies on dst's chain in a tree already built, the set is the chain
from src on, since every path from that tree's root to dst passes src.
Alpha dominates both its receivers from its sender, so every query
`classify` makes reads a sender's tree: one topological pass per sender.

Two derived edges drive the coupling checks for sessions (i, j, k):

* alpha(i, j, k): the topologically last bottleneck shared by the paths
  from sender edge sigma_i to both receiver edges tau_j and tau_k.
* beta(i, j, k): the topologically first bottleneck shared by sigma_j-to-
  tau_k paths and alpha-to-tau_k paths.

Both lie on one dominator chain, whose members are totally ordered by
reachability, so any topological numbering picks the same two edges.

`cut_by_pair` answers the two-sender/two-receiver cut queries without any
flow computation.  Each sender edge carries one unit, so the cut is 0, 1 or
2, and a single edge separates the senders from the receivers exactly when
it is a bottleneck of every connected (sender, receiver) pair: the cut is 0
when no pair connects, 1 when the non-empty bottleneck sets of the four
pairs share an edge, and 2 otherwise.

`min_cut` is the general unit-capacity max-flow on the same index adjacency
(edges split into an entry and exit vertex joined by a unit arc, augmenting
paths by breadth-first search).  No classification runs it; it stays as a
reference for cuts of any size.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from .dag import Scenario


class DisconnectedError(ValueError):
    """A coupling query needs a sender-to-receiver path that does not exist."""


@dataclass
class BottleneckSet:
    src: int
    dst: int
    members: List[int]  # in topological order; empty when no path exists

    def __contains__(self, eid: int) -> bool:
        return eid in self.members


@dataclass
class AlphaBeta:
    i: int
    j: int
    k: int
    alpha: int
    beta: int


def bottleneck_set(sc: Scenario, src: int, dst: int,
                   cache: dict | None = None) -> BottleneckSet:
    """All single-edge bottlenecks between src and dst, topologically sorted.

    dst's dominator chain from src on, read off the first tree already built
    in which src lies on that chain, else off src's own tree, built last.
    """
    if cache is not None:
        hit = cache.get((src, dst))
        if hit is not None:
            return hit
        result = bottleneck_set(sc, src, dst)
        cache[(src, dst)] = result
        return result
    for idom in [*sc.dominator_trees.values(), None]:
        idom = idom or sc.dominators(src)
        if idom[src] >= 0 and idom[dst] >= 0:
            chain = [dst]
            while chain[-1] > src:
                chain.append(idom[chain[-1]])
            if chain[-1] == src:
                return BottleneckSet(src, dst, chain[::-1])
    return BottleneckSet(src, dst, [])


def _require_path(sc: Scenario, src: int, dst: int) -> None:
    if sc.dominators(src)[dst] < 0:
        raise DisconnectedError(f"no path from edge {sc.ids[src]} to edge {sc.ids[dst]}")


def alpha_beta(sc: Scenario, i: int, j: int, k: int,
               cache: dict | None = None) -> AlphaBeta:
    """The shared-bottleneck meeting edges for the session triple (i, j, k)."""
    alpha = alpha_edge(sc, i, j, k, cache)
    _require_path(sc, sc.sigma(j), sc.tau(k))
    c_jk = bottleneck_set(sc, sc.sigma(j), sc.tau(k), cache)
    c_ak = bottleneck_set(sc, alpha, sc.tau(k), cache)
    meet = set(c_jk.members) & set(c_ak.members)
    if not meet:
        raise DisconnectedError(
            f"no common bottleneck toward receiver {k} for sessions ({i},{j},{k})")
    beta = min(meet)
    return AlphaBeta(i, j, k, alpha, beta)


def alpha_edge(sc: Scenario, i: int, j: int, k: int,
               cache: dict | None = None) -> int:
    """Topologically last common bottleneck from sigma_i to tau_j and tau_k."""
    _require_path(sc, sc.sigma(i), sc.tau(j))
    _require_path(sc, sc.sigma(i), sc.tau(k))
    c_ij = bottleneck_set(sc, sc.sigma(i), sc.tau(j), cache)
    c_ik = bottleneck_set(sc, sc.sigma(i), sc.tau(k), cache)
    common = set(c_ij.members) & set(c_ik.members)
    # sigma_i belongs to both sets, so the intersection cannot be empty.
    return max(common)


def parallel(sc: Scenario, e1: int, e2: int) -> bool:
    """True when neither edge can reach the other."""
    if e1 == e2:
        raise ValueError("parallelism is defined for distinct edges")
    return not sc.connects(e1, e2) and not sc.connects(e2, e1)


_INF = 1 << 30


def min_cut(sc: Scenario, sources: Iterable[int], sinks: Iterable[int]) -> int:
    """Minimum number of edges whose removal separates sources from sinks.

    Computed as max flow with unit edge capacities: edge e becomes an entry
    vertex 2e wired to an exit vertex 2e + 1 by a unit arc, adjacency arcs
    are uncapacitated, and a super source/sink feed the given edges.
    """
    source, sink = 2 * len(sc.succ), 2 * len(sc.succ) + 1
    cap: List[Dict[int, int]] = [{} for _ in range(sink + 1)]  # residual capacities

    def arc(u, v, c):
        cap[u][v] = cap[u].get(v, 0) + c
        cap[v].setdefault(u, 0)

    for e, succ in enumerate(sc.succ):
        arc(2 * e, 2 * e + 1, 1)
        for nxt in succ:
            arc(2 * e + 1, 2 * nxt, _INF)
    for s in sources:
        arc(source, 2 * s, 1)
    for t in sinks:
        arc(2 * t + 1, sink, 1)
    flow = 0
    while True:
        parent = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v, c in cap[u].items():
                if c > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return flow
        path = [sink]
        while path[-1] != source:
            path.append(parent[path[-1]])
        steps = list(zip(path[1:], path))  # (u, v) arcs, sink first
        bottleneck = min(cap[u][v] for u, v in steps)
        for u, v in steps:
            cap[u][v] -= bottleneck
            cap[v][u] += bottleneck
        flow += bottleneck


def cut_by_pair(sc: Scenario, sessions_src: Tuple[int, int],
                sessions_dst: Tuple[int, int], cache: dict | None = None) -> int:
    """Fewest edges separating two sessions' sender edges from two receiver edges.

    0, 1 or 2, read off the bottleneck sets of the four (sender, receiver)
    pairs; `cache` is shared with `bottleneck_set`.
    """
    common = None
    for j in sessions_src:
        for i in sessions_dst:
            members = bottleneck_set(sc, sc.sigma(j), sc.tau(i), cache).members
            if members:
                common = set(members) if common is None else common.intersection(members)
    if common is None:
        return 0
    return 1 if common else 2
