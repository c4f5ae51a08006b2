"""Shared helpers for the test suite: scenario generators and brute oracles.

Everything here is deliberately naive.  The generators draw small random
instances of the three-session model; the oracles recompute reachability,
bottlenecks and cuts from first principles (fresh searches over the raw
edge lists, per-edge removal, subset enumeration) so the library's
algorithms can be checked against code that shares none of their machinery.
The library names an edge by its index (its topological position) and the
file by its id; `index_of` and `edge_ids` translate, and the oracles read
the raw (id, tail, head) list through that translation, so they answer in
indices too and "topologically last" is the largest index.
`transfer_gains` runs the transfer recurrence on the raw edge list, one
`Field.mul` per adjacent pair; the one exception is `evaluate_ratio`,
which reads the library's `session_transfer_matrix`, and `RATIOS` writes
the four diagnostic ratios out as the reference table.  `lane_transfer_matrix`
reruns only the sender lanes of `Scenario.factored`, at uniform inputs.
The matrix helpers (`hstack`, `select_cols`, `scale_rows`, `mul_vec`)
multiply through `Field.mul` one entry at a time; `receiver_system` stacks
them into the block layout that `pbna._receiver` builds in one pass.
`ref_rank`, `ref_solve` and `ref_decode` are the Gauss-Jordan elimination
the library used before its forward elimination and back-substitution, kept
as the reference they are checked against; `perturbed_type_two` draws Type II
networks, which the other generators essentially never produce, and
`mesh_inflate` widens any scenario with mesh blocks that keep its verdicts.
`decode_ratios` writes out the Reduced decode ratios before cancelling, the
reference for `feasibility.reduced_decode_cuts`; `degree` is a
`SparsePoly`'s total degree, and `diamond_chain` a scenario with 2^k paths.
`clmul`, `poly_mod` and `ref_pow` are GF(2^m) arithmetic on binary
polynomials that shares no code with `Field`.
"""

import itertools
from functools import reduce
from operator import xor

from hypothesis import strategies as st

from netalign.dag import Scenario, serialize_scenario
from netalign.gf2m import InconsistentSystemError, Matrix
from netalign.xfer import SESSION_PAIRS, CodingAssignment, pair_ratio, session_transfer_matrix

DEFAULT_SESSIONS = tuple((i, f"s{i}", f"r{i}") for i in (1, 2, 3))


def make_scenario(edge_triples, sessions=DEFAULT_SESSIONS, nodes=()):
    """Build a Scenario from (id, tail, head) triples."""
    ids, tails, heads = map(list, zip(*edge_triples))
    return Scenario(nodes, ids, tails, heads, sessions)


def index_of(sc):
    """The edge index of every edge id."""
    return {eid: k for k, eid in enumerate(sc.ids)}


def edge_ids(sc, edges):
    """The ids of edge indices, in the same order."""
    return [sc.ids[k] for k in edges]


def random_scenario(rng):
    """Random instance within 8 nodes / 12 edges; parallel edges are common.

    Six terminal nodes are fixed by the model, which leaves one or two
    internal nodes.  Senders and receivers attach to random internals and
    up to six parallel edges run between the two internals, so transfer
    functions range from empty to sums over several parallel paths.
    """
    internals = ["u", "v"] if rng.random() < 0.85 else ["u"]
    triples = []
    for i in (1, 2, 3):
        triples.append((len(triples), f"s{i}", rng.choice(internals)))
    for i in (1, 2, 3):
        triples.append((len(triples), rng.choice(internals), f"r{i}"))
    if len(internals) == 2:
        for _ in range(rng.randint(0, 6)):
            triples.append((len(triples), "u", "v"))
    if rng.random() < 0.5:
        # scattered, shuffled ids: nothing may depend on contiguity
        fresh = rng.sample(range(3 * len(triples)), len(triples))
        triples = [(fresh[i], t, h) for i, (_, t, h) in enumerate(triples)]
    return make_scenario(triples)


def random_connected_scenario(rng, max_tries=300):
    """Random instance where every sender reaches every receiver.

    Two shapes are mixed: funnel graphs where all traffic crosses a chain
    of internal nodes (these produce degenerate couplings), and loose
    graphs over up to four internals with random forward edges.
    """
    for _ in range(max_tries):
        k = rng.randint(1, 4)
        internals = [f"n{t}" for t in range(k)]
        triples = []

        def add(tail, head):
            triples.append((len(triples), tail, head))

        if k >= 2 and rng.random() < 0.4:
            for i in (1, 2, 3):
                add(f"s{i}", internals[0])
            for a, b in zip(internals, internals[1:]):
                for _ in range(rng.randint(1, 2)):
                    add(a, b)
            for i in (1, 2, 3):
                add(internals[-1], f"r{i}")
        else:
            for i in (1, 2, 3):
                add(f"s{i}", rng.choice(internals))
            for lo in range(k):
                for hi in range(lo + 1, k):
                    if rng.random() < 0.6:
                        for _ in range(rng.randint(1, 2)):
                            add(internals[lo], internals[hi])
            for i in (1, 2, 3):
                add(rng.choice(internals), f"r{i}")
        if len(triples) > 14:
            continue
        sc = make_scenario(triples)
        if all(sc.connects(sc.sigma(j), sc.tau(i))
               for j in (1, 2, 3) for i in (1, 2, 3)):
            return sc
    raise RuntimeError("could not draw a fully connected scenario")


@st.composite
def scenarios(draw, max_internals=4, max_links=8):
    """Hypothesis strategy: small scenarios, fully connected or not.

    Senders and receivers attach to random internal nodes, internal edges
    run from lower to higher node index (parallel edges allowed), and edge
    ids are a random permutation so that nothing may depend on them.
    """
    k = draw(st.integers(1, max_internals))
    node = st.integers(0, k - 1)
    pairs = [(f"s{i}", f"n{draw(node)}") for i in (1, 2, 3)]
    pairs += [(f"n{draw(node)}", f"r{i}") for i in (1, 2, 3)]
    for _ in range(draw(st.integers(0, max_links if k > 1 else 0))):
        lo = draw(st.integers(0, k - 2))
        pairs.append((f"n{lo}", f"n{draw(st.integers(lo + 1, k - 1))}"))
    ids = draw(st.permutations(range(len(pairs))))
    return make_scenario([(eid, t, h) for eid, (t, h) in zip(ids, pairs)])


SCENARIO_WORDS = ("node", "edge", "session", "#", "s1", "s2", "s3",
                  "r1", "r2", "r3", "n0", "n1", "0", "1", "3", "-1", "1.5", "x")


@st.composite
def scenario_texts(draw, valid=True):
    """Hypothesis strategy: the text of a drawn scenario, freely laid out.

    Its canonical lines come in any order, with blank lines, comments,
    `node` lines for its own nodes and extra blanks spliced in.  With
    valid=False, lines of random words (directives, node names, odd
    numbers, arbitrary text) may also be inserted and lines dropped, so
    the text may be malformed or break the model.
    """
    sc = draw(scenarios())
    lines = list(draw(st.permutations(serialize_scenario(sc).splitlines())))
    filler = st.one_of(st.just(""), st.just("  # comment"),
                       st.sampled_from(sc.nodes).map("node {}".format))
    if not valid:
        word = st.one_of(st.sampled_from(SCENARIO_WORDS), st.text(max_size=4))
        filler = st.one_of(filler, st.lists(word, max_size=5).map(" ".join))
        for _ in range(draw(st.integers(0, 2))):
            if lines:
                del lines[draw(st.integers(0, len(lines) - 1))]
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(filler))
    pad = st.sampled_from(("", " ", "\t"))
    return "\n".join(draw(pad) + line.replace(" ", draw(pad) + " ") + draw(pad)
                     for line in lines)


def permute_sessions(sc, perm):
    """New scenario whose session i is the old session perm[i-1]."""
    old = [sc.sessions[p - 1] for p in perm]
    sessions = [(i, s.sender, s.receiver) for i, s in zip((1, 2, 3), old)]
    return make_scenario([(e.id, e.tail, e.head) for e in sc.edges], sessions, sc.nodes)


def perturbed_type_two(rng, gadget):
    """`type_two_gadget` plus 1-2 random forward edges, its sessions permuted.

    Each new edge joins two interior nodes (neither a sender nor a
    receiver), from the one whose out-edges start earlier in the edge order
    to the later one, so the graph stays acyclic.  About one draw in eight is
    still Type II; the rest are Type III.
    """
    ends = {v for s in gadget.sessions for v in (s.sender, s.receiver)}
    interior = sorted((v for v in gadget.nodes if v not in ends),
                      key=lambda v: gadget.out_edges[gadget.nodes.index(v)].start)
    triples = [(e.id, e.tail, e.head) for e in gadget.edges]
    for _ in range(rng.randint(1, 2)):
        a, b = sorted(rng.sample(range(len(interior)), 2))
        triples.append((len(triples) + 1, interior[a], interior[b]))
    sessions = [(s.index, s.sender, s.receiver) for s in gadget.sessions]
    return permute_sessions(make_scenario(triples, sessions, gadget.nodes),
                            rng.sample((1, 2, 3), 3))


def mesh_inflate(sc, rng, shapes):
    """`sc` with interior edges replaced by mesh blocks, its ids shuffled.

    Every edge but the six session edges gets a (width, depth) shape drawn
    from `shapes`, or stays when the draw is None.  A block runs u -> in,
    fans out to `width` columns, passes `depth` layers in which column c
    feeds columns c and c + 1 (mod width), fans in to `out` and ends
    out -> v, so every path through it passes its entry and exit edges and
    the block stands for the edge it replaces (the idea of the benchmark's
    inflated gadgets).  A block has 2 + 2 * width * (depth + 1) edges.
    """
    special = {*sc.senders, *sc.receivers}
    arcs = []
    for k, eid in enumerate(sc.ids):
        tail, head = sc.nodes[sc.tails[k]], sc.nodes[sc.heads[k]]
        shape = None if k in special else rng.choice(shapes)
        if shape is None:
            arcs.append((tail, head))
            continue
        width, depth = shape
        b = f"z{eid}"
        arcs += [(tail, f"{b}.in"), (f"{b}.out", head)]
        arcs += [(f"{b}.in", f"{b}.0.{c}") for c in range(width)]
        arcs += [(f"{b}.{d}.{c}", f"{b}.{d + 1}.{(c + s) % width}")
                 for d in range(depth) for c in range(width) for s in (0, 1)]
        arcs += [(f"{b}.{depth}.{c}", f"{b}.out") for c in range(width)]
    ids = rng.sample(range(1, 4 * len(arcs) + 1), len(arcs))
    sessions = [(s.index, s.sender, s.receiver) for s in sc.sessions]
    return make_scenario([(i, t, h) for i, (t, h) in zip(ids, arcs)], sessions)


def layered_dag(rng, width=10, gaps=480, extra=394):
    """Fully connected layered DAG; defaults give exactly 10000 edges.

    Each layer-g node feeds nodes g+1 at the same index and the next index
    (mod width), so after `width` layers every node reaches every node of
    the later layer; `extra` random forward edges are sprinkled on top.
    """
    triples = []

    def add(tail, head):
        triples.append((len(triples), tail, head))

    for i in (1, 2, 3):
        add(f"s{i}", f"L0_{i - 1}")
    for g in range(gaps):
        for w in range(width):
            add(f"L{g}_{w}", f"L{g + 1}_{w}")
            add(f"L{g}_{w}", f"L{g + 1}_{(w + 1) % width}")
    for _ in range(extra):
        g = rng.randrange(gaps)
        add(f"L{g}_{rng.randrange(width)}", f"L{g + 1}_{rng.randrange(width)}")
    for i in (1, 2, 3):
        add(f"L{gaps}_{i - 1}", f"r{i}")
    return make_scenario(triples)


# -- reference field arithmetic: binary polynomials on plain ints ------------


def clmul(a, b):
    """Carry-less product of two binary polynomials."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def poly_mod(a, p):
    """Remainder of binary polynomial a modulo p."""
    dp = p.bit_length() - 1
    while a.bit_length() - 1 >= dp:
        a ^= p << (a.bit_length() - 1 - dp)
    return a


def ref_pow(a, e, p):
    """a^e modulo p, e >= 0, by square-and-multiply on `clmul` and `poly_mod`."""
    result = 1
    while e:
        if e & 1:
            result = poly_mod(clmul(result, a), p)
        a = poly_mod(clmul(a, a), p)
        e >>= 1
    return result


# -- small readers that only the tests need ----------------------------------


def rand(field, rng):
    """Uniform random element of `field` (zero included)."""
    return rng.randrange(field.order)


def mul_vec(matrix, v):
    """The matrix times the column v, one `Field.mul` per entry."""
    return [reduce(xor, map(matrix.field.mul, row, v), 0) for row in matrix.rows]


def rand_nonzero(field, rng):
    """Uniform random non-zero element of `field`."""
    return rng.randrange(1, field.order)


def column(matrix, j):
    """Column j of a Matrix, as a list."""
    return [row[j] for row in matrix.rows]


def assignment(sc, default, overrides=None):
    """A CodingAssignment of `sc`: `default` on every pair but those in `overrides`."""
    overrides = overrides or {}
    return CodingAssignment(sc, [overrides.get(p, default) for p in sc.pairs])


# -- receiver blocks as separate matrices: the reference layout ---------------


def hstack(blocks):
    """The matrices side by side."""
    n = blocks[0].nrows
    if any(b.nrows != n for b in blocks):
        raise ValueError("row count mismatch")
    return Matrix(blocks[0].field, [[v for b in blocks for v in b.rows[t]] for t in range(n)])


def select_cols(matrix, cols):
    return Matrix(matrix.field, [[r[j] for j in cols] for r in matrix.rows])


def scale_rows(matrix, weights):
    """diag(weights) times the matrix, one `Field.mul` per entry."""
    f = matrix.field
    return Matrix(f, [[f.mul(w, v) for v in row] for w, row in zip(weights, matrix.rows)])


def sender_matrix(es, j):
    """The N x k_j matrix sender j encodes with: its data columns of V_j."""
    return select_cols(es.V[j - 1], es.data_cols[j - 1])


def received_block(es, j, i, data_only=False):
    """diag(m_ji per slot) times V_j (or its data columns)."""
    base = sender_matrix(es, j) if data_only else es.V[j - 1]
    return scale_rows(base, es.m_vals[(j, i)])


def receiver_system(es, i):
    """Receiver i's [I | D]: the other senders' full blocks, then its own data block."""
    blocks = [received_block(es, j, i) for j in (1, 2, 3) if j != i]
    return hstack(blocks + [received_block(es, i, i, data_only=True)])


# -- reference elimination: Gauss-Jordan on copies ----------------------------


def _ref_eliminate(f, aug, width):
    """Row-reduce copies of `aug` over the first `width` columns: (pivot columns, rows).

    Every pivot row is scaled to 1 and cleared from all other rows, above
    and below; above 2^16 the rows stay lifted until the end.
    """
    exp, log, n = f.exp, f.log, f.order - 1
    if exp is None:
        lift, settle, lower = f.lifted
        aug = [[lift(v) for v in row] for row in aug]
    else:
        aug = [list(row) for row in aug]
    pivots = []
    r = 0
    for c in range(width):
        pivot_row = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        row = aug[r]
        if exp is not None:
            inv = -log[row[c]] % n
            row[c:] = [exp[inv + log[v]] for v in row[c:]]
            form = [log[v] for v in row[c:]]
            for other in aug:
                if other is not row and other[c]:
                    lf = log[other[c]]
                    other[c:] = [v ^ exp[lf + w] for v, w in zip(other[c:], form)]
        else:
            inv = lift(f.inv(lower(row[c])))
            row[c:] = form = [settle(inv * v) for v in row[c:]]
            for other in aug:
                if other is not row and other[c]:
                    lf = other[c]
                    other[c:] = [settle(v ^ lf * w) for v, w in zip(other[c:], form)]
        pivots.append(c)
        r += 1
    if exp is None:
        aug = [[lower(v) for v in row] for row in aug]
    return pivots, aug


def ref_rank(f, rows):
    return len(_ref_eliminate(f, rows, len(rows[0]) if rows else 0)[0])


def ref_solve(f, rows, y):
    """(z, pivots) of rows z = y, free variables zero; InconsistentSystemError if none."""
    width = len(rows[0]) if rows else 0
    pivots, aug = _ref_eliminate(f, [list(r) + [v] for r, v in zip(rows, y)], width)
    if any(row[width] for row in aug[len(pivots):]):
        raise InconsistentSystemError("no solution")
    z = [0] * width
    for i, c in enumerate(pivots):
        z[c] = aug[i][width]
    return z, pivots


def ref_decode(es, i, y):
    """Receiver i's decode by the reference solve on the stacked blocks."""
    system = receiver_system(es, i)
    first = system.ncols - len(es.data_cols[i - 1])
    try:
        z, pivots = ref_solve(system.field, system.rows, y)
    except InconsistentSystemError:
        return None
    if not set(range(first, system.ncols)) <= set(pivots):
        return None
    return z[first:]


# -- reference transfer values and ratios -------------------------------------


# The diagnostic ratios as (numerator, denominator) pairs of m_ji factors:
# p1 = m13 m21 / (m11 m23), p2 = m13 m22 / (m12 m23), p3 = m21 m33 / (m23 m31)
# and eta = m13 m21 m32 / (m12 m23 m31).
RATIOS = {
    "p1": (((1, 3), (2, 1)), ((1, 1), (2, 3))),
    "p2": (((1, 3), (2, 2)), ((1, 2), (2, 3))),
    "p3": (((2, 1), (3, 3)), ((2, 3), (3, 1))),
    "eta": (((1, 3), (2, 1), (3, 2)), ((1, 2), (2, 3), (3, 1))),
}


def decode_ratios(rs):
    """The two-slot scheme's decode ratios on a chain, before any cancelling.

    One (receiver, numerator pairs, denominator pairs) per receiver i whose
    first interferer j shares its base block: m_ii g_i over m_ji g_j, with
    each profile's denominator cleared onto the other side.  None when some
    m_ii is absent.
    """
    if not all(rs.present[(i, i)] for i in (1, 2, 3)):
        return None
    ratios = []
    for i in (1, 2, 3):
        interferers = [j for j in (1, 2, 3) if j != i and rs.present[(j, i)]]
        if not interferers or rs.base[i - 1] != rs.base[interferers[0] - 1]:
            continue
        j = interferers[0]
        ratios.append((i, ((i, i),) + rs.profile_num[i - 1] + rs.profile_den[j - 1],
                       ((j, i),) + rs.profile_num[j - 1] + rs.profile_den[i - 1]))
    return ratios


def degree(poly):
    """Total degree of a `SparsePoly`; 0 for the zero polynomial."""
    return max((sum(e for _, e in mono) for mono in poly.monos), default=0)


def diamond_chain(stages):
    """A scenario whose session 1 runs through `stages` pairs of parallel
    edges in a row, so 2^stages paths join sigma_1 to tau_1; sessions 2 and
    3 are two-edge chains of their own."""
    edges = [(1, "s1", "d0")]
    for i in range(stages):
        edges += [(len(edges) + 1, f"d{i}", f"d{i + 1}"), (len(edges) + 2, f"d{i}", f"d{i + 1}")]
    edges.append((len(edges) + 1, f"d{stages}", "r1"))
    for k in (2, 3):
        edges += [(len(edges) + 1, f"s{k}", f"c{k}"), (len(edges) + 2, f"c{k}", f"r{k}")]
    return make_scenario(edges)


def transfer_gains(sc, x, field, src):
    """m(src, e) at one assignment for every edge e, by the recurrence itself.

    src carries 1, and each later edge, by index, the sum of x_{e'e} m(src, e')
    over its predecessors e' in the raw edge list: one `Field.mul` per
    adjacent pair.  Edges before src get 0.
    """
    back, ids = edge_adjacency_back(sc), sc.ids
    gains = dict.fromkeys(range(len(ids)), 0)
    gains[src] = 1
    for e in range(src + 1, len(ids)):
        gains[e] = reduce(xor, (field.mul(x[ids[p], ids[e]], gains[p]) for p in back[e]), 0)
    return gains


def transfer(sc, x, field, src, dst):
    """m(src, dst) at one assignment."""
    return transfer_gains(sc, x, field, src)[dst]


def lane_transfer_matrix(sc, field, rng):
    """The nine m_ji from the sender-lane rows of `Scenario.factored`, at uniform inputs.

    Those rows are the ones at or after lane 1's base; each sets lane j's
    value at a top edge t from its values at tops u, times one input per u:
    a slot (the sum of x_pt g[p] over the predecessors p of t whose top is
    u) or the raw coefficient x_ut.  The gain lane is not run: every input
    position the rows read gets a fresh uniform value, and lane j is fed 1
    at sigma_j, one `Field.mul` per operand pair.

    That is exact for identity testing.  Each input holds coefficients x_pt
    into its top edge t that appear in no other input, so the inputs are
    algebraically independent: an identity in the nine m_ji holds in the
    coding coefficients exactly when it holds in the inputs, and
    Schwartz-Zippel applies in them with a degree no larger than
    `identity_degree_bound`.
    """
    _, feeds, program, reads = sc.factored
    base = feeds[-3] - sc.senders[0]
    rows = [(t, row) for t, row in program if t >= base]
    inputs = sorted({k for _, row in rows for _, k in row})
    values = {k: rand(field, rng) for k in inputs}
    values.update(dict.fromkeys(feeds[-3:], 1))
    for t, row in rows:
        values[t] = reduce(xor, (field.mul(values.get(p, 0), values[k]) for p, k in row), 0)
    return {pair: values.get(q, 0) for pair, q in zip(SESSION_PAIRS, reads)}


def evaluate_ratio(sc, x, field, ratio):
    """A `RATIOS` entry at one assignment; None where its denominator is zero."""
    m = session_transfer_matrix(sc, x, field)
    return pair_ratio(field, m, *ratio)


# -- brute-force reachability (raw edge data only) ---------------------------


def edge_adjacency(sc):
    """Successors of each edge index, from the raw edge list."""
    at = index_of(sc)
    by_tail = {}
    for e in sc.edges:
        by_tail.setdefault(e.tail, []).append(at[e.id])
    return {at[e.id]: sorted(by_tail.get(e.head, ())) for e in sc.edges}


def edge_adjacency_back(sc):
    """Predecessors of each edge index, from the raw edge list."""
    at = index_of(sc)
    by_head = {}
    for e in sc.edges:
        by_head.setdefault(e.head, []).append(at[e.id])
    return {at[e.id]: sorted(by_head.get(e.tail, ())) for e in sc.edges}


def _bfs(adj, start, banned):
    banned = set(banned)
    if start in banned:
        return set()
    seen = {start}
    queue = [start]
    while queue:
        cur = queue.pop(0)
        for nxt in adj[cur]:
            if nxt not in seen and nxt not in banned:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def brute_reach(sc, start, banned=()):
    return _bfs(edge_adjacency(sc), start, banned)


def brute_reach_back(sc, start, banned=()):
    return _bfs(edge_adjacency_back(sc), start, banned)


def brute_connects(sc, src, dst, banned=()):
    return dst in brute_reach(sc, src, banned)


def closure_matrix(sc):
    """Reflexive-transitive closure of edge adjacency, by triple loop.

    A second, structurally different recomputation of reachability (the
    other one is the breadth-first search above), so the two brute oracles
    can also be played against each other.
    """
    ids = range(len(sc.edges))
    adj = edge_adjacency(sc)
    reach = {a: {b: a == b for b in ids} for a in ids}
    for a in ids:
        for b in adj[a]:
            reach[a][b] = True
    for mid in ids:
        row_m = reach[mid]
        for a in ids:
            if reach[a][mid]:
                row_a = reach[a]
                for b in ids:
                    if row_m[b]:
                        row_a[b] = True
    return reach


# -- brute-force cut machinery ------------------------------------------------


def brute_bottlenecks(sc, src, dst):
    """Definition check: edges whose removal disconnects src from dst."""
    if not brute_connects(sc, src, dst):
        return []
    return [e for e in range(len(sc.edges))
            if not brute_connects(sc, src, dst, banned=(e,))]


def brute_pair_cut(sc, sources, sinks):
    """Fewest edge removals separating sources from sinks.

    Only exact up to 2 -- which is enough: each source edge carries at most
    one unit, so removing the two source edges always separates and the
    true value never exceeds 2.
    """
    pairs = [(s, t) for s in sources for t in sinks]

    def separated(banned):
        return not any(brute_connects(sc, s, t, banned) for s, t in pairs)

    if separated(()):
        return 0
    for e in range(len(sc.edges)):
        if separated((e,)):
            return 1
    return 2


def brute_alpha(sc, i, j, k):
    common = (set(brute_bottlenecks(sc, sc.sigma(i), sc.tau(j)))
              & set(brute_bottlenecks(sc, sc.sigma(i), sc.tau(k))))
    return max(common)


def brute_beta(sc, i, j, k):
    alpha = brute_alpha(sc, i, j, k)
    common = (set(brute_bottlenecks(sc, sc.sigma(j), sc.tau(k)))
              & set(brute_bottlenecks(sc, alpha, sc.tau(k))))
    return min(common)


def brute_parallel(sc, e1, e2):
    return not brute_connects(sc, e1, e2) and not brute_connects(sc, e2, e1)


def parallel_cuts(sc, src, dst, max_size=3, cap=25):
    """Pairwise-parallel edge sets severing every src-to-dst path.

    Found by plain enumeration over the edges that lie on some src-to-dst
    path, so every returned set is met by each path exactly once.
    """
    if not brute_connects(sc, src, dst):
        return []
    useful = sorted(brute_reach(sc, src) & brute_reach_back(sc, dst))
    found = []
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(useful, size):
            if any(not brute_parallel(sc, a, b)
                   for a, b in itertools.combinations(combo, 2)):
                continue
            if not brute_connects(sc, src, dst, banned=combo):
                found.append(combo)
                if len(found) >= cap:
                    return found
    return found
