"""Directed acyclic networks carrying three unit-rate unicast sessions.

Edges are the primary objects: coding happens on edges, transfer functions
and cuts are stated in terms of edges, and each session is pinned to a
designated sender edge (the unique edge out of its sender node) and receiver
edge (the unique edge into its receiver node).  Parallel edges are allowed.

Inside a `Scenario` an edge is its index: the edges are numbered 0..E-1 in
topological order, so every predecessor of an edge has a smaller index and
"topologically earlier" is plain `<`.  Nodes are numbered by sorted name,
and all adjacency is lists of indices.  The ids written in the file live in
one column, `Scenario.ids`, and appear only at the boundary: `edges`,
`sessions`, `pairs` (the coding variables), `serialize_scenario` and error
messages.

Scenario files are line oriented::

    # comment
    node a            (optional; nodes are also implied by edges)
    edge 3 a b        (id, tail, head)
    session 1 s1 d1   (session index 1..3, sender node, receiver node)

Edge ids and session indices are written in ASCII digits.  Model
requirements checked on construction: the graph is acyclic, every sender
node has exactly one outgoing and no incoming edge, every receiver node has
exactly one incoming and no outgoing edge, and the six designated
sender/receiver edges are pairwise distinct.
"""

from __future__ import annotations

import sys
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import eq
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
    sender_edge: int  # edge ids, as written in the file
    receiver_edge: int


class Scenario:
    """An acyclic multigraph plus three pinned unicast sessions.

    Edge k has id `ids[k]` and runs from node `tails[k]` to node `heads[k]`
    (positions in `nodes`).  `succ[k]` and `pred[k]` are the edges leaving
    its head and entering its tail; `out_edges[v]` and `in_edges[v]` are the
    edges leaving and entering node v.  Every such list is in id order, and
    a node's out-edges are consecutive, so `out_edges[v]` is a range.
    `program` and `factored` are the transfer sweeps `xfer._sweep` runs.
    The constructor keeps these lists and the pinned sessions; it drops each
    scratch list it builds on the way as soon as its last reader is done.
    """

    def __init__(self, nodes: Iterable[str], ids: Sequence[int], tails: Sequence[str],
                 heads: Sequence[str], sessions: Sequence[Tuple[int, str, str]]):
        """The scenario whose edge with id ids[q] runs from tails[q] to heads[q]."""
        count = len(ids)
        if len(set(ids)) != count:
            raise ModelViolationError(DUPLICATE_IDS)
        self.nodes = sorted({*nodes, *tails, *heads})
        number = dict(zip(self.nodes, range(len(self.nodes))))
        tails = list(map(number.__getitem__, tails))
        heads = list(map(number.__getitem__, heads))
        if any(map(eq, tails, heads)):
            loop = min(ids[q] for q in range(count) if tails[q] == heads[q])
            raise ModelViolationError(f"self-loop on edge {quoted(str(loop))}")
        by_id = sorted(range(count), key=ids.__getitem__)  # q in id order
        outs: List[List[int]] = [[] for _ in self.nodes]
        for q in by_id:
            outs[tails[q]].append(q)
        pending = [0] * len(self.nodes)
        for v in heads:
            pending[v] += 1

        # Kahn's algorithm at edge granularity, first in first out: a node's
        # out-edges join the queue, in id order, once its last in-edge has
        # left it; the nodes without in-edges start it, in name order.  The
        # order depends on the edges alone, never on the order of the lines,
        # and numbers each node's out-edges consecutively.
        first = [0] * len(self.nodes)
        order: List[int] = []
        for v, qs in enumerate(outs):
            if not pending[v]:
                first[v] = len(order)
                order += qs
        for q in order:  # the loop also visits what it appends
            v = heads[q]
            pending[v] -= 1
            if not pending[v]:
                first[v] = len(order)
                order += outs[v]
        if len(order) != count:
            raise ModelViolationError("graph has a directed cycle")
        self.out_edges = [range(k, k + len(qs)) for k, qs in zip(first, outs)]
        del outs, pending, first  # each scratch list goes after its last reader

        index = [0] * count  # renumbering: edge q becomes its position in the order
        for k, q in enumerate(order):
            index[q] = k
        ins = self.in_edges = [[] for _ in self.nodes]
        for q in by_id:
            ins[heads[q]].append(index[q])
        del by_id, index
        self.ids = list(map(ids.__getitem__, order))
        self.tails = list(map(tails.__getitem__, order))
        self.heads = list(map(heads.__getitem__, order))
        del order, tails, heads
        self.succ = list(map(self.out_edges.__getitem__, self.heads))
        self.pred = list(map(self.in_edges.__getitem__, self.tails))

        self.sessions, self.senders, self.receivers = self._pin_sessions(sessions, number)
        self.dominator_trees: Dict[int, List[int]] = {}

    @cached_property
    def edges(self) -> List[Edge]:
        """Every edge as an `Edge`, in id order."""
        ids, names = self.ids, self.nodes
        return [Edge(ids[k], names[self.tails[k]], names[self.heads[k]])
                for k in sorted(range(len(ids)), key=ids.__getitem__)]

    def _pin_sessions(self, sessions, number):
        """The sessions, and the indices of their sender and of their receiver edges."""
        if sorted(s[0] for s in sessions) != [1, 2, 3]:
            raise ModelViolationError("need exactly sessions 1, 2, 3")
        pinned, senders, receivers = [], [], []
        for index, sender, receiver in sorted(sessions):
            for v, role in ((sender, "sender"), (receiver, "receiver")):
                if v not in number:
                    raise ModelViolationError(f"{role} node {quoted(v)} not in graph")
            s, r = number[sender], number[receiver]
            if len(self.out_edges[s]) != 1 or self.in_edges[s]:
                raise ModelViolationError(f"sender {quoted(sender)} must have "
                                          "exactly one outgoing and no incoming edge")
            if len(self.in_edges[r]) != 1 or self.out_edges[r]:
                raise ModelViolationError(f"receiver {quoted(receiver)} must have "
                                          "exactly one incoming and no outgoing edge")
            senders.append(self.out_edges[s][0])
            receivers.append(self.in_edges[r][0])
            pinned.append(Session(index, sender, receiver,
                                  self.ids[senders[-1]], self.ids[receivers[-1]]))
        if len({*senders, *receivers}) != 6:
            raise ModelViolationError("sender and receiver edges must be six distinct edges")
        return pinned, tuple(senders), tuple(receivers)

    # -- session accessors -------------------------------------------------

    def sigma(self, i: int) -> int:
        """Sender edge of session i."""
        return self.senders[i - 1]

    def tau(self, i: int) -> int:
        """Receiver edge of session i."""
        return self.receivers[i - 1]

    # -- adjacency and reachability ----------------------------------------

    @cached_property
    def pairs(self) -> Tuple[Tuple[int, int], ...]:
        """Every (upstream, downstream) edge pair meeting at a node, as ids.

        By node name, then upstream id, then downstream id: the order of
        the coding variables, in which `CodingAssignment.random` draws.
        """
        ids = self.ids
        return tuple((ids[a], ids[b]) for ins, outs in zip(self.in_edges, self.out_edges)
                     for a in ins for b in outs)

    @cached_property
    def pair_index(self) -> Dict[Tuple[int, int], int]:
        """Position of each pair in `pairs`."""
        return dict(zip(self.pairs, range(len(self.pairs))))

    @cached_property
    def pair_count(self) -> int:
        """len(pairs), without building them."""
        return sum(len(ins) * len(outs) for ins, outs in zip(self.in_edges, self.out_edges))

    @cached_property
    def program(self) -> List[Tuple[int, Tuple[Tuple[int, int], ...]]]:
        """One lane's sweep over the E edge values, then the `pairs` values:
        (edge, ((pred, E + pair position), ...)) per edge with a predecessor."""
        rows, base = [()] * len(self.ids), len(self.ids)
        for ins, outs in zip(self.in_edges, self.out_edges):
            # The pair of ins[a] and outs[b] sits at base + a * len(outs) + b.
            n = len(outs)
            for b, e in enumerate(outs):
                rows[e] = tuple(zip(ins, range(base + b, base + n * len(ins), n)))
            base += n * len(ins)
        return [(e, row) for e, row in enumerate(rows) if row]

    @cached_property
    def factored(self):
        """The nine m_ji as one sweep, split at the edges all sender paths share.

        top[e] is the first edge every sender-to-e path passes; a sender
        edge, a receiver and an edge whose reachable predecessors have
        several tops are their own, the top edges.  So m(sigma_j, e) =
        m(sigma_j, top[e]) g[e] with g[e] = m(top[e], e).  The values are a
        gain lane over the E edges, the coefficients, the slots and a lane
        per sender over the E edges.  Fed 1 at `feeds` (the top edges, each
        lane's sender), the gain lane gets g and, per top edge t and top u
        of its predecessors, a slot: the sum of x_pt g[p] over those p, or
        x_ut itself, unswept, when p = u (then the only one).  Lane j sets
        m(sigma_j, t) = sum over u of m(sigma_j, u) times that, over the tops
        u that sigma_j reaches: those in its dominator tree (`dominators`);
        the predecessors a sender reaches, and their tops, are found once for
        all of a node's out-edges.  Returns (tail, feeds, program, reads):
        `tail` positions follow the coefficients, `reads` hold m_11 .. m_33.
        """
        count = len(self.ids)
        top = [-1] * count
        for s in self.senders:
            top[s] = s
        feeds, program, targets = list(self.senders), [], []
        slot = count + self.pair_count  # the next slot's position
        pred, last = self.pred, None
        for item in self.program:
            e, row = item
            if pred[e] is not last:  # siblings share the mask and the tops
                last = pred[e]
                keep = [top[p] >= 0 for p in last]
                ups, whole = {top[p] for p in compress(last, keep)}, all(keep)
            row = row if whole else tuple(compress(row, keep))
            if len(ups) == 1 and e not in self.receivers:
                (top[e],) = ups
                program.append(item if whole else (e, row))
            elif ups:
                top[e] = e
                feeds.append(e)
                terms = []
                for u in ups:
                    group = [pk for pk in row if top[pk[0]] == u]
                    if group[0][0] != u:  # u itself is only ever alone
                        program.append((slot, group))
                        group, slot = [(u, slot)], slot + 1
                    terms.append(group[0])
                targets.append((e, terms))
        for j, s in enumerate(self.senders):
            at, idom = slot + j * count, self.dominators(s)
            feeds.append(at + s)
            for t, terms in targets:
                row = tuple((at + u, k) for u, k in terms if idom[u] >= 0)
                if row:
                    program.append((at + t, row))
        reads = [slot + j * count + t for j in range(3) for t in self.receivers]
        return slot + 2 * count - self.pair_count, feeds, program, reads

    def reachable_edges(self, start: int, forward: bool = True,
                        banned: Iterable[int] = ()) -> FrozenSet[int]:
        """Edges reachable from `start` (inclusive) along edge adjacency.

        With forward=False, edges that can reach `start`.  Edges in `banned`
        are treated as removed; if `start` itself is banned the result is
        empty.
        """
        banned = frozenset(banned)
        if start in banned:
            return frozenset()
        seen, stack, step = {start, *banned}, [start], self.succ if forward else self.pred
        while stack:
            for nxt in step[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return frozenset(seen - banned)

    def connects(self, src: int, dst: int) -> bool:
        """True when src is dst or a path leads from src to dst; the search enters
        only edges below dst (indices are topological) and stops at dst."""
        seen, stack, succ = {src}, [src] if src < dst else [], self.succ
        while stack:
            for nxt in succ[stack.pop()]:
                if nxt < dst and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
                elif nxt == dst:
                    return True
        return src == dst

    def dominators(self, src: int) -> List[int]:
        """Immediate dominator of each edge, -1 where `src` does not reach; src's is src.

        Edge d dominates e when every src-to-e path passes d; e's dominators
        are its chain idom[e], idom[idom[e]], ... up to src.  One pass in
        index (topological) order gives each edge the nearest common
        dominator of its reachable predecessors, walking their chains up
        by index (Cooper, Harvey & Kennedy, 2001); a node's out-edges share
        one predecessor list, so all but the first copy its answer.  Memoized
        in `dominator_trees`, keyed by src.
        """
        idom = self.dominator_trees.get(src)
        if idom is not None:
            return idom
        pred, last = self.pred, None
        idom = [-1] * len(pred)
        idom[src] = src
        for e in range(src + 1, len(pred)):
            if pred[e] is not last:  # else e - 1's sibling: the same answer
                last, d = pred[e], -1
                for p in last:
                    if idom[p] >= 0:
                        if d >= 0:
                            while d != p:
                                if d > p:
                                    d = idom[d]
                                else:
                                    p = idom[p]
                        d = p
            idom[e] = d
        self.dominator_trees[src] = idom
        return idom

    def __repr__(self):
        return (f"Scenario({len(self.nodes)} nodes, {len(self.ids)} edges, "
                f"sessions {[s.index for s in self.sessions]})")


QUOTE_LIMIT = 40  # characters of a value that an error message quotes
DUPLICATE_IDS = "duplicate edge ids"  # the constructor's message; parse_scenario names the line
FIELDS = {"edge": (3, "an id, a tail and a head"), "node": (1, "a name"),  # per directive
          "session": (3, "an index, a sender and a receiver")}


def quoted(text: str) -> str:
    """repr(text); past QUOTE_LIMIT characters, that of its start, and its length."""
    if len(text) <= QUOTE_LIMIT:
        return repr(text)
    return f"{text[:QUOTE_LIMIT]!r}... ({len(text)} characters)"


def read_digits(text: str, what: str) -> int:
    """A number written in ASCII digits only (no sign, underscore or other script).

    Past the interpreter's digit limit the message names the length and the
    limit, never the number.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{what} must be written in ASCII digits, got {quoted(text)}")
    try:
        return int(text)
    except ValueError as exc:  # beyond int's digit limit
        raise ValueError(f"{what} has {len(text)} digits, more than the "
                         f"{sys.get_int_max_str_digits()} a number may have") from exc


def _edge_ids(texts: List[str], text: str) -> List[int]:
    """The edge ids from their texts, checked for digits in bulk; `_name_bad_id` names a fault."""
    with suppress(ValueError):  # beyond int's digit limit
        if (joined := "".join(texts)).isascii() and joined.isdigit():
            return list(map(int, texts))
    _name_bad_id(text)
    return []  # no edge lines, so nothing for the bulk check to pass


def _name_bad_id(text: str) -> None:
    """Raise at the first edge line whose id is not digits or repeats an earlier one."""
    seen: Set[int] = set()
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            parts = raw.partition("#")[0].split()
            if parts[:1] == ["edge"]:
                eid = read_digits(parts[1], "edge id")
                if eid in seen:
                    raise ValueError(f"duplicate edge id {quoted(parts[1])}")
                seen.add(eid)
    except ValueError as exc:
        raise ScenarioParseError(f"line {lineno}: {exc}") from exc


def parse_scenario(text: str) -> Scenario:
    """The scenario a text describes; the edge ids are checked after the other lines."""
    nodes, id_texts, tails, heads = [], [], [], []
    sessions: List[Tuple[int, str, str]] = []
    seen_sessions: Set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.partition("#")[0].split()
        if not parts:
            continue
        kind = parts[0]
        try:
            if kind == "edge":
                _, eid_s, tail, head = parts
                id_texts.append(eid_s)
                tails.append(tail)
                heads.append(head)
            elif kind == "node":
                (name,) = parts[1:]
                nodes.append(name)
            elif kind == "session":
                idx_s, sender, receiver = parts[1:]
                idx = read_digits(idx_s, "session index")
                if idx not in (1, 2, 3):
                    raise ValueError("session index must be 1..3")
                if idx in seen_sessions:
                    raise ValueError(f"duplicate session {idx}")
                seen_sessions.add(idx)
                sessions.append((idx, sender, receiver))
            else:
                raise ValueError(f"unknown directive {quoted(kind)}")
        except ValueError as exc:  # a wrong field count fails its unpacking first
            got = len(parts) - 1
            count, takes = FIELDS.get(kind, (got, ""))
            if got != count:
                exc = ValueError(f"{kind} takes {takes}, got {got} field{'s' * (got != 1)}")
            raise ScenarioParseError(f"line {lineno}: {exc}") from exc
    if len(sessions) != 3:
        raise ScenarioParseError("scenario must declare exactly three sessions")
    ids = _edge_ids(id_texts, text)
    del id_texts
    try:
        return Scenario(nodes, ids, tails, heads, sessions)
    except ModelViolationError as exc:  # the constructor checks for duplicates first
        if exc.args == (DUPLICATE_IDS,):
            _name_bad_id(text)
        raise


def serialize_scenario(sc: Scenario) -> str:
    """Canonical text form: edges by id, nodes no edge touches, sessions by index."""
    lines = [f"edge {e.id} {e.tail} {e.head}" for e in sc.edges]
    lines += [f"node {v}" for v, ins, outs in zip(sc.nodes, sc.in_edges, sc.out_edges)
              if not ins and not outs]
    lines += [f"session {s.index} {s.sender} {s.receiver}" for s in sc.sessions]
    return "\n".join(lines) + "\n"


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ScenarioParseError(
                f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    return parse_scenario(text.removeprefix("\ufeff"))  # less a byte-order mark
