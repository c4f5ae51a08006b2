"""Scenario generation for the benchmark: inflated copies of the corpus gadgets.

Inflation replaces every interior edge u -> v of a gadget (every edge that
is not a sender or receiver edge) with a mesh block: one entry edge u -> in,
a fan-out from `in` to `width` columns, `depth` layers in which column c
feeds columns c and c+1 (mod width) of the next layer, a fan-in to `out`,
and one exit edge out -> v.  Every path through the block passes its entry
and its exit edge, so the block behaves like the edge it replaces: the
block's transfer function is a nonzero polynomial in its own coefficients,
and substituting it for the old edge keeps every coupling identity that
held and breaks none that did not.  Cuts and bottlenecks carry over the same
way, so an inflated gadget has the gadget's verdict.

The lines of the file are shuffled and the edges get scattered ids, so the
canonical topological order and every id-keyed structure differ from the
gadget's.  A block has 2 + 2*width*(depth + 1) edges.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

SHAPE_TOLERANCE = 0.015


def block_edges(width: int, depth: int) -> int:
    """Edge count of one mesh block."""
    return 2 + 2 * width * (depth + 1)


def interior_edges(sc) -> List[int]:
    special = {s.sender_edge for s in sc.sessions} | {s.receiver_edge for s in sc.sessions}
    return [e.id for e in sc.edges if e.id not in special]


def inflate(sc, shape: Optional[Tuple[int, int]], rng: random.Random) -> str:
    """Scenario text of `sc` with each interior edge replaced by a mesh block.

    `shape` is (width, depth); with None the edges are kept as they are and
    only shuffled and renumbered.
    """
    if shape is None:
        inner = set()
    else:
        width, depth = shape
        if width < 1 or depth < 0:
            raise ValueError("mesh blocks need width >= 1 and depth >= 0")
        inner = set(interior_edges(sc))
    for v in sc.nodes:
        if v.startswith("z"):
            raise ValueError(f"gadget node name {v!r} clashes with block node names")
    arcs = []
    for e in sc.edges:
        if e.id not in inner:
            arcs.append((e.tail, e.head))
            continue
        b = f"z{e.id}"
        arcs.append((e.tail, f"{b}.in"))
        arcs += [(f"{b}.in", f"{b}.0.{c}") for c in range(width)]
        for layer in range(depth):
            for c in range(width):
                for nc in (c, (c + 1) % width):
                    arcs.append((f"{b}.{layer}.{c}", f"{b}.{layer + 1}.{nc}"))
        arcs += [(f"{b}.{depth}.{c}", f"{b}.out") for c in range(width)]
        arcs.append((f"{b}.out", e.head))
    ids = rng.sample(range(1, 16 * len(arcs) + 1), len(arcs))
    lines = [f"edge {eid} {t} {h}" for eid, (t, h) in zip(ids, arcs)]
    lines += [f"session {s.index} {s.sender} {s.receiver}" for s in sc.sessions]
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def inflated_edges(sc, shape: Tuple[int, int]) -> int:
    k = len(interior_edges(sc))
    return len(sc.edges) + k * (block_edges(*shape) - 1)


def shape_near(sc, target_edges: int, widths, rng: random.Random) -> Tuple[int, int]:
    """A random (width, depth) whose inflation of `sc` has about `target_edges`.

    Widths come from `widths`; the depth for each width is the one closest
    to the target.  Shapes within SHAPE_TOLERANCE of the target are drawn
    from, so the seed changes the mesh but hardly the size; when none is
    that close, the closest shape is returned.
    """
    k = len(interior_edges(sc))
    if k == 0:
        raise ValueError("gadget has no interior edge to inflate")
    shapes = []
    for width in widths:
        guess = round(((target_edges - len(sc.edges)) / k - 1) / (2 * width) - 1)
        depths = [d for d in (guess - 1, guess, guess + 1) if d >= 0] or [0]
        shapes.append(min(((width, d) for d in depths),
                          key=lambda s: abs(inflated_edges(sc, s) - target_edges)))
    near = [s for s in shapes
            if abs(inflated_edges(sc, s) - target_edges) <= SHAPE_TOLERANCE * target_edges]
    if near:
        return rng.choice(near)
    return min(shapes, key=lambda s: abs(inflated_edges(sc, s) - target_edges))
