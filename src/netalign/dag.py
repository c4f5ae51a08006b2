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
        self._build(nodes, [e.id for e in edges], [e.tail for e in edges],
                    [e.head for e in edges], sessions)

    @classmethod
    def from_columns(cls, nodes, ids, tails, heads, sessions) -> Scenario:
        """The scenario whose edge ids[k] runs from tails[k] to heads[k]."""
        sc = cls.__new__(cls)
        sc._build(nodes, ids, tails, heads, sessions)
        return sc

    def _build(self, nodes, ids, tails, heads, sessions) -> None:
        if len(set(ids)) != len(ids):
            raise ModelViolationError("duplicate edge ids")
        # Columns in id order; `edges` is made from them on first access.
        order = sorted(range(len(ids)), key=ids.__getitem__)
        ids, tails, heads = self._columns = [[c[k] for k in order] for c in (ids, tails, heads)]
        self.nodes = sorted({*nodes, *tails, *heads})

        self.out_edges: Dict[str, List[int]] = {v: [] for v in self.nodes}
        self.in_edges: Dict[str, List[int]] = {v: [] for v in self.nodes}
        for eid, tail, head in zip(ids, tails, heads):
            if tail == head:
                raise ModelViolationError(f"self-loop on edge {eid}")
            self.out_edges[tail].append(eid)
            self.in_edges[head].append(eid)
        # Edge adjacency by edge id: the edges leaving an edge's head and
        # the edges entering its tail.
        self.succ: Dict[int, List[int]] = dict(zip(ids, map(self.out_edges.__getitem__, heads)))
        self.pred: Dict[int, List[int]] = dict(zip(ids, map(self.in_edges.__getitem__, tails)))

        self.sessions = self._pin_sessions(sessions)
        self.topo_order = self._edge_topo_order(dict(zip(ids, heads)))
        self.topo_pos = dict(zip(self.topo_order, range(len(ids))))
        self._reach: Dict[Tuple[int, bool], FrozenSet[int]] = {}
        self.dominator_trees: Dict[int, Dict[int, int]] = {}

    @cached_property
    def edges(self) -> List[Edge]:
        """Every edge as an `Edge`, in id order."""
        return list(map(Edge, *self._columns))

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

    def _edge_topo_order(self, head: Dict[int, str]) -> List[int]:
        # Kahn's algorithm at edge granularity: a node's out-edges are ready
        # once its last in-edge has been emitted.  The heap makes the order
        # canonical: among ready edges, smallest id first.
        pending = {v: len(ins) for v, ins in self.in_edges.items()}
        ready = [eid for v, outs in self.out_edges.items() if not pending[v] for eid in outs]
        heapq.heapify(ready)
        order = []
        while ready:
            eid = heapq.heappop(ready)
            order.append(eid)
            v = head[eid]
            pending[v] -= 1
            if not pending[v]:
                for nxt in self.out_edges[v]:
                    heapq.heappush(ready, nxt)
        if len(order) != len(head):
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

    @cached_property
    def pair_index(self) -> Dict[Tuple[int, int], int]:
        """Position of each pair in `pairs`."""
        return dict(zip(self.pairs, range(len(self.pairs))))

    @cached_property
    def session_positions(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Topological positions of the three sender edges and of the three receiver edges."""
        pos = self.topo_pos
        return (tuple(pos[s.sender_edge] for s in self.sessions),
                tuple(pos[s.receiver_edge] for s in self.sessions))

    @cached_property
    def program(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """For each edge in topological order, (pred position, pair index) per predecessor."""
        return self._program(self.topo_pos)

    @cached_property
    def sender_programs(self):
        """`program` once per sender edge, on the edges it reaches (its dominator tree)."""
        return tuple(self._program(self.dominators(s.sender_edge)) for s in self.sessions)

    def _program(self, keep):
        pos, index = self.topo_pos, self.pair_index
        return tuple(tuple((pos[p], index[p, e]) for p in self.pred[e] if p in keep)
                     if e in keep else () for e in self.topo_order)

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

    def dominators(self, src: int) -> Dict[int, int]:
        """Immediate dominator of each edge reachable from `src`; src maps to itself.

        Edge d dominates e when every src-to-e path passes d; e's dominators
        are its chain idom[e], idom[idom[e]], ... up to src.  One topological
        pass gives each edge the nearest common dominator of its reachable
        predecessors, walking their chains up by position (Cooper, Harvey &
        Kennedy, 2001).  Memoized in `dominator_trees`, keyed by src.
        """
        if src in self.dominator_trees:
            return self.dominator_trees[src]
        pos, pred = self.topo_pos, self.pred
        idom = {src: src}
        for e in self.topo_order[pos[src] + 1:]:
            d = None
            for p in pred[e]:
                if p in idom:
                    while d is not None and d != p:
                        if pos[d] > pos[p]:
                            d = idom[d]
                        else:
                            p = idom[p]
                    d = p
            if d is not None:
                idom[e] = d
        self.dominator_trees[src] = idom
        return idom

    def __repr__(self):
        return (f"Scenario({len(self.nodes)} nodes, {len(self.topo_order)} edges, "
                f"sessions {[s.index for s in self.sessions]})")


def parse_scenario(text: str) -> Scenario:
    nodes, ids, tails, heads = [], [], [], []
    sessions: List[Tuple[int, str, str]] = []
    seen_ids: Set[int] = set()
    seen_sessions: Set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.partition("#")[0].split()
        if not parts:
            continue
        kind = parts[0]
        try:
            if kind == "edge":
                eid_s, tail, head = parts[1:]
                eid = int(eid_s)
                if eid < 0:
                    raise ScenarioParseError(f"line {lineno}: edge id must be >= 0")
                if eid in seen_ids:
                    raise ScenarioParseError(f"line {lineno}: duplicate edge id {eid}")
                seen_ids.add(eid)
                ids.append(eid)
                tails.append(tail)
                heads.append(head)
            elif kind == "node":
                (name,) = parts[1:]
                nodes.append(name)
            elif kind == "session":
                idx_s, sender, receiver = parts[1:]
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
    return Scenario.from_columns(nodes, ids, tails, heads, sessions)


def serialize_scenario(sc: Scenario) -> str:
    """Canonical text form: edges by id, nodes no edge touches, sessions by index."""
    lines = [f"edge {e.id} {e.tail} {e.head}" for e in sc.edges]
    lines += [f"node {v}" for v in sc.nodes if not sc.in_edges[v] and not sc.out_edges[v]]
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
