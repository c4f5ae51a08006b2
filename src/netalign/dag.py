"""Directed acyclic networks carrying three unit-rate unicast sessions.

Edges are the primary objects: coding happens on edges, transfer functions
and cuts are stated in terms of edges, and each session is pinned to a
designated sender edge (the unique edge out of its sender node) and receiver
edge (the unique edge into its receiver node).  Parallel edges are allowed,
so edges carry their own integer ids and all adjacency is id-based.

Scenario files are line oriented::

    # comment
    node a            (optional; nodes are also implied by edges)
    edge 3 a b        (id, tail, head)
    session 1 s1 d1   (session index 1..3, sender node, receiver node)

Model requirements checked on construction: the graph is acyclic, every
sender node has exactly one outgoing and no incoming edge, every receiver
node has exactly one incoming and no outgoing edge, and the six designated
sender/receiver edges are pairwise distinct.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple


class ScenarioParseError(ValueError):
    """Malformed scenario text."""


class ModelViolationError(ValueError):
    """Structurally valid input that breaks the session/DAG model."""


@dataclass(frozen=True)
class Edge:
    id: int
    tail: str
    head: str


@dataclass(frozen=True)
class Session:
    index: int
    sender: str
    receiver: str
    sender_edge: int
    receiver_edge: int


class Scenario:
    """An acyclic multigraph plus three pinned unicast sessions."""

    def __init__(self, nodes: Iterable[str], edges: Sequence[Edge],
                 sessions: Sequence[Tuple[int, str, str]]):
        self.edges = sorted(edges, key=lambda e: e.id)
        ids = [e.id for e in self.edges]
        if len(set(ids)) != len(ids):
            raise ModelViolationError("duplicate edge ids")

        node_set = set(nodes)
        for e in self.edges:
            node_set.add(e.tail)
            node_set.add(e.head)
            if e.tail == e.head:
                raise ModelViolationError(f"self-loop on edge {e.id}")
        self.nodes = sorted(node_set)

        self.out_edges: Dict[str, List[int]] = {v: [] for v in self.nodes}
        self.in_edges: Dict[str, List[int]] = {v: [] for v in self.nodes}
        for e in self.edges:
            self.out_edges[e.tail].append(e.id)
            self.in_edges[e.head].append(e.id)
        # Edge adjacency by edge id: the edges leaving an edge's head and
        # the edges entering its tail.
        self.succ: Dict[int, List[int]] = {e.id: self.out_edges[e.head] for e in self.edges}
        self.pred: Dict[int, List[int]] = {e.id: self.in_edges[e.tail] for e in self.edges}

        self.sessions = self._pin_sessions(sessions)
        self.topo_order = self._edge_topo_order()
        self.topo_pos = {eid: i for i, eid in enumerate(self.topo_order)}
        self._reach: Dict[Tuple[int, bool], FrozenSet[int]] = {}

    def _pin_sessions(self, sessions) -> List[Session]:
        if sorted(s[0] for s in sessions) != [1, 2, 3]:
            raise ModelViolationError("need exactly sessions 1, 2, 3")
        pinned = []
        for index, sender, receiver in sorted(sessions):
            for v, role in ((sender, "sender"), (receiver, "receiver")):
                if v not in self.out_edges:
                    raise ModelViolationError(f"{role} node {v!r} not in graph")
            if len(self.out_edges[sender]) != 1 or self.in_edges[sender]:
                raise ModelViolationError(
                    f"sender {sender!r} must have exactly one outgoing and no incoming edge")
            if len(self.in_edges[receiver]) != 1 or self.out_edges[receiver]:
                raise ModelViolationError(
                    f"receiver {receiver!r} must have exactly one incoming and no outgoing edge")
            pinned.append(Session(index, sender, receiver,
                                  self.out_edges[sender][0], self.in_edges[receiver][0]))
        special = [s.sender_edge for s in pinned] + [s.receiver_edge for s in pinned]
        if len(set(special)) != 6:
            raise ModelViolationError("sender and receiver edges must be six distinct edges")
        return pinned

    def _edge_topo_order(self) -> List[int]:
        # Kahn's algorithm at edge granularity: an edge is ready once every
        # edge into its tail has been emitted.  The heap makes the order
        # canonical: among ready edges, smallest id first.
        pending = {e.id: len(self.in_edges[e.tail]) for e in self.edges}
        ready = [eid for eid, deg in pending.items() if deg == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            eid = heapq.heappop(ready)
            order.append(eid)
            for nxt in self.succ[eid]:
                pending[nxt] -= 1
                if pending[nxt] == 0:
                    heapq.heappush(ready, nxt)
        if len(order) != len(self.edges):
            raise ModelViolationError("graph has a directed cycle")
        return order

    # -- session accessors -------------------------------------------------

    def sigma(self, i: int) -> int:
        """Sender edge id of session i."""
        return self.sessions[i - 1].sender_edge

    def tau(self, i: int) -> int:
        """Receiver edge id of session i."""
        return self.sessions[i - 1].receiver_edge

    # -- adjacency and reachability ----------------------------------------

    @cached_property
    def pairs(self) -> Tuple[Tuple[int, int], ...]:
        """All (upstream, downstream) edge pairs meeting at a node, by node."""
        return tuple((a, b) for v in self.nodes
                     for a in self.in_edges[v] for b in self.out_edges[v])

    def reachable_edges(self, start: int, forward: bool = True,
                        banned: Iterable[int] = ()) -> FrozenSet[int]:
        """Edges reachable from `start` (inclusive) along edge adjacency.

        With forward=False, edges that can reach `start`.  Edges in `banned`
        are treated as removed; if `start` itself is banned the result is
        empty.  Without banned edges the sweep runs once per (start,
        direction) and later queries share its frozen result.
        """
        banned = set(banned)
        if banned:
            return self._sweep(start, forward, banned)
        key = (start, forward)
        hit = self._reach.get(key)
        if hit is None:
            hit = self._reach[key] = self._sweep(start, forward, banned)
        return hit

    def _sweep(self, start: int, forward: bool, banned: Set[int]) -> FrozenSet[int]:
        if start in banned:
            return frozenset()
        seen = {start}
        stack = [start]
        step = self.succ if forward else self.pred
        while stack:
            e = stack.pop()
            for nxt in step[e]:
                if nxt not in seen and nxt not in banned:
                    seen.add(nxt)
                    stack.append(nxt)
        return frozenset(seen)

    def connects(self, src: int, dst: int, banned: Iterable[int] = ()) -> bool:
        """True when a directed path of edges leads from src to dst."""
        return dst in self.reachable_edges(src, forward=True, banned=banned)

    def __repr__(self):
        return (f"Scenario({len(self.nodes)} nodes, {len(self.edges)} edges, "
                f"sessions {[s.index for s in self.sessions]})")


def parse_scenario(text: str) -> Scenario:
    nodes: List[str] = []
    edges: List[Edge] = []
    sessions: List[Tuple[int, str, str]] = []
    seen_ids: Set[int] = set()
    seen_sessions: Set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
        try:
            if kind == "node":
                (name,) = args
                nodes.append(name)
            elif kind == "edge":
                eid_s, tail, head = args
                eid = int(eid_s)
                if eid < 0:
                    raise ScenarioParseError(f"line {lineno}: edge id must be >= 0")
                if eid in seen_ids:
                    raise ScenarioParseError(f"line {lineno}: duplicate edge id {eid}")
                seen_ids.add(eid)
                edges.append(Edge(eid, tail, head))
            elif kind == "session":
                idx_s, sender, receiver = args
                idx = int(idx_s)
                if idx not in (1, 2, 3):
                    raise ScenarioParseError(f"line {lineno}: session index must be 1..3")
                if idx in seen_sessions:
                    raise ScenarioParseError(f"line {lineno}: duplicate session {idx}")
                seen_sessions.add(idx)
                sessions.append((idx, sender, receiver))
            else:
                raise ScenarioParseError(f"line {lineno}: unknown directive {kind!r}")
        except ValueError as exc:
            if isinstance(exc, (ScenarioParseError, ModelViolationError)):
                raise
            raise ScenarioParseError(f"line {lineno}: {exc}") from exc
    if len(sessions) != 3:
        raise ScenarioParseError("scenario must declare exactly three sessions")
    return Scenario(nodes, edges, sessions)


def serialize_scenario(sc: Scenario) -> str:
    """Canonical text form: edges sorted by id, then sessions by index."""
    lines = [f"edge {e.id} {e.tail} {e.head}" for e in sc.edges]
    lines += [f"session {s.index} {s.sender} {s.receiver}" for s in sc.sessions]
    return "\n".join(lines) + "\n"


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ScenarioParseError(
                f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    return parse_scenario(text)
