"""Single-edge bottlenecks, their meeting points, and two-pair cuts.

Edges are `Scenario` indices, numbered in topological order, so "first"
and "last" below are `min` and `max`.  A bottleneck between edges src and
dst is an edge whose removal disconnects every directed path from src to
dst (src and dst themselves always qualify when a path exists): an edge
that dominates dst from src, so the set is dst's chain in src's dominator
tree (`Scenario.dominators`, an `idom` list).  Every query `classify`
makes starts at a sender edge, so it builds one tree per sender.

Two derived edges drive the coupling checks for sessions (i, j, k):

* alpha(i, j, k): the topologically last bottleneck shared by the paths
  from sender edge sigma_i to both receiver edges tau_j and tau_k.
* beta(i, j, k): the topologically first bottleneck shared by sigma_j-to-
  tau_k paths and alpha-to-tau_k paths.  Every path from alpha to tau_k
  continues one from sigma_i, so alpha's bottlenecks toward tau_k are
  sigma_i's chain toward tau_k from alpha on.

Both lie on one dominator chain, whose members are totally ordered by
reachability, so any topological numbering picks the same two edges.

`cut_by_pair` answers the two-sender/two-receiver cut queries without any
flow computation.  Each sender edge carries one unit, so the cut is 0, 1 or
2, and a single edge separates the senders from the receivers exactly when
it is a bottleneck of every connected (sender, receiver) pair: the cut is 0
when no pair connects, 1 when the bottleneck chains of the connected pairs
share an edge, and 2 otherwise.

`parallel` is one `Scenario.connects` query from the lower index, which
stops at its answer.  `min_cut` is the general unit-capacity max-flow on
the same index adjacency (edges split into an entry and exit vertex joined
by a unit arc, augmenting paths by breadth-first search); no classification
runs it, and it stays as a reference for cuts of any size.
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
    members: List[int]  # in topological order; empty when no path exists


def bottleneck_set(sc: Scenario, src: int, dst: int) -> BottleneckSet:
    """All single-edge bottlenecks between src and dst, topologically sorted:
    dst's chain in src's dominator tree, empty when src does not reach dst."""
    idom = sc.dominators(src)
    if idom[dst] < 0:
        return BottleneckSet([])
    chain = [dst]
    while chain[-1] != src:
        chain.append(idom[chain[-1]])
    return BottleneckSet(chain[::-1])


def _chain(sc: Scenario, src: int, dst: int) -> List[int]:
    """The members of `bottleneck_set`, which a coupling query needs non-empty."""
    members = bottleneck_set(sc, src, dst).members
    if not members:
        raise DisconnectedError(f"no path from edge {sc.ids[src]} to edge {sc.ids[dst]}")
    return members


def alpha_beta(sc: Scenario, i: int, j: int, k: int) -> Tuple[int, int]:
    """The shared-bottleneck meeting edges (alpha, beta) for the triple (i, j, k)."""
    alpha = alpha_edge(sc, i, j, k)
    c_ik = bottleneck_set(sc, sc.sigma(i), sc.tau(k)).members
    c_jk = _chain(sc, sc.sigma(j), sc.tau(k))
    # tau_k ends both chains, so the meet cannot be empty.
    return alpha, min(set(c_jk).intersection(c_ik[c_ik.index(alpha):]))


def alpha_edge(sc: Scenario, i: int, j: int, k: int) -> int:
    """Topologically last common bottleneck from sigma_i to tau_j and tau_k."""
    c_ij = _chain(sc, sc.sigma(i), sc.tau(j))
    c_ik = _chain(sc, sc.sigma(i), sc.tau(k))
    # sigma_i begins both chains, so the intersection cannot be empty.
    return max(set(c_ij).intersection(c_ik))


def parallel(sc: Scenario, e1: int, e2: int) -> bool:
    """True when neither edge can reach the other; only the lower index can reach the higher."""
    if e1 == e2:
        raise ValueError("parallelism is defined for distinct edges")
    return not sc.connects(min(e1, e2), max(e1, e2))


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
                sessions_dst: Tuple[int, int]) -> int:
    """Fewest edges separating two sessions' sender edges from two receiver edges.

    0, 1 or 2, read off the bottleneck chains of the four (sender, receiver)
    pairs in the two senders' dominator trees.
    """
    common = None
    for j in sessions_src:
        for i in sessions_dst:
            members = bottleneck_set(sc, sc.sigma(j), sc.tau(i)).members
            if members:
                common = set(members) if common is None else common.intersection(members)
    if common is None:
        return 0
    return 1 if common else 2
