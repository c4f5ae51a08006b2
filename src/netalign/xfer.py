"""Transfer functions of a linearly coded network, numeric and symbolic.

Every node forwards random linear combinations of what it receives: the
symbol on edge e is sum_{e' into tail(e)} x_{e'e} * (symbol on e'), with one
coding coefficient x_{e'e} per adjacent edge pair.  The transfer function
m(src, dst) is the resulting end-to-end gain; expanded, it is the sum over
all directed paths from src to dst of the product of the coding coefficients
along the path (a k-edge path contributes k-1 coefficients).

Edges are `Scenario` indices, which are topological positions.  `_sweep`
runs that recurrence over a compiled program of (position, row) pairs on
one list holding lane values and coefficients.  `propagate` runs one lane
on `Scenario.program`, fed the three sender injections; the nine m_ji run
through the edges every sender path shares (`Scenario.factored`): a gain
lane from those edges, then one lane per sender over them and the
receivers only.  Every numeric transfer value in the package comes from
it.  `oracle_transfer_poly` instead enumerates
paths and returns m(src, dst) as an exact sparse polynomial over GF(2), its
variables keyed by edge-id pairs; it shares none of the recurrence and is
the slow route the tests trust.  Monomials with equal variable sets cancel
in pairs, matching characteristic-2 arithmetic.  Over GF(2^m) with m <= 16
the sweep's products are `exp` lookups on logs, each assignment's
coefficients converted to logs once for all its sweeps; above that they are
lifted products settled once per edge (see `gf2m`), as in identity sides.

The nine session-to-session transfer functions m_ji (sender edge of session
j to receiver edge of session i) combine into diagnostic ratios

    p1 = m13 m21 / (m11 m23)      p2 = m13 m22 / (m12 m23)
    p3 = m21 m33 / (m23 m31)      eta = m13 m21 m32 / (m12 m23 m31)

whose degeneracies (p_i = 1, p_i = eta, and the mixed third relations)
decide how much throughput alignment can rescue.  Cross-multiplied,
denominator-free forms of all ten relations live in COUPLING_IDENTITIES so
the same table drives the exact oracle and the randomized point tests; its
"is one" rows are the four ratios, and `pbna` reads eta off `eta_is_one`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import reduce
from operator import xor
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .dag import Scenario
from .gf2m import Field

PATH_LIMIT = 1 << 20


class TooLargeError(ValueError):
    """Symbolic path enumeration would exceed PATH_LIMIT paths."""


class ResampleLimitError(RuntimeError):
    """Too many consecutive degenerate draws; the field is likely too small."""


Var = Tuple[int, int]  # coding coefficient x_{e e'}, keyed by the edge-id pair
Program = Sequence[Tuple[int, Sequence[Tuple[int, int]]]]  # (position, ((p, k), ...)), see `_sweep`


@dataclass
class CodingAssignment:
    """One value per adjacent edge pair of `scenario`, in `Scenario.pairs` order."""

    scenario: Scenario
    values: List[int]
    _form: Optional[tuple] = dataclass_field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def random(cls, sc: Scenario, field: Field, rng) -> "CodingAssignment":
        """Uniform values from one `Field.draw`, in `sc.pairs` order."""
        return cls(sc, field.draw(rng, sc.pair_count))

    def __getitem__(self, pair: Var) -> int:
        """The value of the coding variable of an edge-id pair."""
        return self.values[self.scenario.pair_index[pair]]

    def operands(self, field: Field) -> List[int]:
        """The values as logs (lifted above 2^16), made once: edit no value after."""
        if self._form is None or self._form[0] is not field:
            self._form = (field, list(map(_forms(field)[1], self.values)))
        return self._form[1]


def _forms(field: Field):
    """(zero, into, back) for sweep operands: logs, or lifted above 2^16."""
    if field.exp is not None:
        return field.log[0], field.log.__getitem__, field.exp.__getitem__
    return 0, field.lifted[0], field.lifted[2]


def _sweep(field: Field, values: List[int], program: Program) -> None:
    """Run `program` on a list of operands in place: each (t, row) in turn
    sets values[t] to the sum over the row's (p, k) of values[k] values[p],
    as `exp` lookups on logs or, lifted above 2^16, XORed and settled once."""
    exp, log = field.exp, field.log
    if exp is not None:
        for t, row in program:
            a = 0
            for p, k in row:
                a ^= exp[values[k] + values[p]]
            values[t] = log[a]
    else:
        settle = field.lifted[1]
        for t, row in program:
            a = 0
            for p, k in row:
                a ^= values[k] * values[p]
            values[t] = settle(a) if a else 0


def propagate(sc: Scenario, x: CodingAssignment, field: Field,
              injected: Sequence[int]) -> Tuple[int, int, int]:
    """Push one slot's symbols through the network by local updates only.

    Injects injected[j-1] on sigma_j and sweeps the per-node combinations in
    topological order, one lane of `_sweep` on `Scenario.program`, and
    returns the three tau values; it never reads a transfer function.
    """
    zero, into, back = _forms(field)
    values = [zero] * len(sc.ids) + x.operands(field)
    for s, v in zip(sc.senders, injected):
        values[s] = into(v)
    _sweep(field, values, sc.program)
    return tuple(back(values[t]) for t in sc.receivers)


def session_transfer_matrix(sc: Scenario, x: CodingAssignment, field: Field) -> Dict[Tuple[int, int], int]:
    """All nine m_ji at one assignment: one sweep of `Scenario.factored`."""
    tail, feeds, program, reads = sc.factored
    zero, into, back = _forms(field)
    values, one = [zero] * len(sc.ids) + x.operands(field) + [zero] * tail, into(1)
    for q in feeds:
        values[q] = one
    _sweep(field, values, program)
    return dict(zip(SESSION_PAIRS, [back(values[q]) for q in reads]))


def path_count(sc: Scenario, src: int, dst: int) -> int:
    """Number of directed edge paths from src to dst."""
    if src >= dst:
        return int(src == dst)
    counts = [0] * (dst + 1)
    counts[src] = 1
    for e in range(src + 1, dst + 1):
        counts[e] = sum(map(counts.__getitem__, sc.pred[e]))
    return counts[dst]


# -- exact sparse polynomials over GF(2) -----------------------------------

Monomial = Tuple[Tuple[Var, int], ...]  # sorted ((variable, exponent), ...)


class SparsePoly:
    """Multivariate polynomial with GF(2) coefficients.

    Stored as the set of monomials with coefficient 1; addition is symmetric
    difference, so equal monomials cancel in pairs.  Products of transfer
    functions can square a variable, hence explicit exponents.
    """

    __slots__ = ("monos",)

    def __init__(self, monos: Iterable[Monomial] = ()):
        self.monos = frozenset(monos)

    @classmethod
    def zero(cls) -> "SparsePoly":
        return cls()

    @classmethod
    def one(cls) -> "SparsePoly":
        return cls([()])

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        return SparsePoly(self.monos ^ other.monos)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        acc: set = set()
        for ma in self.monos:
            da = dict(ma)
            for mb in other.monos:
                merged = dict(da)
                for var, exp in mb:
                    merged[var] = merged.get(var, 0) + exp
                key = tuple(sorted(merged.items()))
                if key in acc:
                    acc.remove(key)
                else:
                    acc.add(key)
        return SparsePoly(acc)

    def __eq__(self, other) -> bool:
        return isinstance(other, SparsePoly) and self.monos == other.monos

    def is_zero(self) -> bool:
        return not self.monos

    def __len__(self):
        return len(self.monos)

    def evaluate(self, field: Field, x: CodingAssignment) -> int:
        acc = 0
        for mono in self.monos:  # each variable multiplied in exp times
            acc ^= reduce(field.mul, [x[var] for var, exp in mono for _ in range(exp)], 1)
        return acc

    def square_coefficient(self, var: Var) -> "SparsePoly":
        """Coefficient of var^2: monomials containing var squared, var removed."""
        out = []
        for mono in self.monos:
            d = dict(mono)
            if d.get(var) == 2:
                del d[var]
                out.append(tuple(sorted(d.items())))
        return SparsePoly(out)

    def __repr__(self):
        return f"SparsePoly({len(self.monos)} monomials)"


def oracle_transfer_poly(sc: Scenario, src: int, dst: int) -> SparsePoly:
    """m(src, dst) as an exact polynomial, by brute-force path enumeration.

    Raises TooLargeError when more than PATH_LIMIT paths exist.  Quadratic in
    the number of paths at worst, so only sensible for small graphs; that is
    the point, it is the independent oracle the fast route is tested against.
    """
    if path_count(sc, src, dst) > PATH_LIMIT:
        raise TooLargeError(f"more than {PATH_LIMIT} paths from edge {sc.ids[src]} to {sc.ids[dst]}")
    if src == dst:
        return SparsePoly.one()
    useful = sc.reachable_edges(src, forward=True) & sc.reachable_edges(dst, forward=False)
    if dst not in useful:
        return SparsePoly.zero()
    ids = sc.ids
    monos: List[Monomial] = []
    stack: List[Tuple[int, Tuple[Var, ...]]] = [(src, ())]
    while stack:
        e, vars_so_far = stack.pop()
        if e == dst:
            monos.append(tuple(sorted((v, 1) for v in vars_so_far)))
            continue
        for nxt in sc.succ[e]:
            if nxt in useful:
                stack.append((nxt, vars_so_far + ((ids[e], ids[nxt]),)))
    return SparsePoly(monos)


def oracle_session_polys(sc: Scenario) -> Dict[Tuple[int, int], SparsePoly]:
    """Exact polynomials for all nine m_ji."""
    return {(j, i): oracle_transfer_poly(sc, sc.sigma(j), sc.tau(i))
            for j in (1, 2, 3) for i in (1, 2, 3)}


# -- diagnostic ratios and coupling identities ------------------------------

SessionPair = Tuple[int, int]  # (j, i) stands for m_ji
SESSION_PAIRS = tuple((j, i) for j in (1, 2, 3) for i in (1, 2, 3))


def pair_product(field: Field, m: Dict[SessionPair, int],
                 pairs: Sequence[SessionPair]) -> int:
    """Product of the transfer values m_ji over a list of (j, i) pairs.

    Starts from the first factor, so k pairs cost k - 1 multiplications
    (none for one pair); the empty product is 1.
    """
    if not pairs:
        return 1
    acc = m[pairs[0]]
    for pair in pairs[1:]:
        acc = field.mul(acc, m[pair])
    return acc


def pair_ratio(field: Field, m: Dict[SessionPair, int], num: Sequence[SessionPair],
               den: Sequence[SessionPair]) -> Optional[int]:
    """Quotient of two pair products; None where the denominator is zero."""
    d = pair_product(field, m, den)
    return field.div(pair_product(field, m, num), d) if d else None


# Cross-multiplied, denominator-free forms of the ten coupling relations.
# Each side is a sum (XOR) of products of transfer functions; a relation
# holds as a rational-function identity iff the two sides agree as
# polynomials.  The p_i = eta rows use the cancelled cross ratio (for
# example p1/eta = m12 m31 / (m11 m32)), and the third relations clear
# denominators in characteristic 2:
#   p1 = eta/(1+eta)  <=>  m11 m23 m32 = m13 m21 m32 + m12 m23 m31
#   p2 = 1+eta        <=>  m22 m13 m31 = m12 m23 m31 + m13 m21 m32
#   p3 = 1+eta        <=>  m33 m21 m12 = m23 m31 m12 + m13 m32 m21
Products = Tuple[Tuple[SessionPair, ...], ...]

COUPLING_IDENTITIES: Dict[str, Tuple[Products, Products]] = {
    "eta_is_one": ((((1, 3), (2, 1), (3, 2)),), (((1, 2), (2, 3), (3, 1)),)),
    "p1_is_one": ((((1, 3), (2, 1)),), (((1, 1), (2, 3)),)),
    "p2_is_one": ((((1, 3), (2, 2)),), (((1, 2), (2, 3)),)),
    "p3_is_one": ((((2, 1), (3, 3)),), (((2, 3), (3, 1)),)),
    "p1_is_eta": ((((1, 2), (3, 1)),), (((1, 1), (3, 2)),)),
    "p2_is_eta": ((((2, 1), (3, 2)),), (((2, 2), (3, 1)),)),
    "p3_is_eta": ((((1, 3), (3, 2)),), (((1, 2), (3, 3)),)),
    "third_relation_1": ((((1, 1), (2, 3), (3, 2)),),
                         (((1, 3), (2, 1), (3, 2)), ((1, 2), (2, 3), (3, 1)))),
    "third_relation_2": ((((2, 2), (1, 3), (3, 1)),),
                         (((1, 2), (2, 3), (3, 1)), ((3, 2), (2, 1), (1, 3)))),
    "third_relation_3": ((((3, 3), (2, 1), (1, 2)),),
                         (((2, 3), (3, 1), (1, 2)), ((1, 3), (3, 2), (2, 1)))),
}


def identity_degree_bound(sc: Scenario, name: str) -> int:
    """Total-degree bound for either side of a coupling identity."""
    lhs, rhs = COUPLING_IDENTITIES[name]
    factors = max(len(prod) for prod in lhs + rhs)
    return factors * len(sc.ids)


def evaluate_identity_sides(name: str, m: Dict[SessionPair, int], field: Field) -> Tuple[int, int]:
    """Both cleared sides of an identity from the nine m_ji, lowered once each above 2^16."""
    lhs, rhs = COUPLING_IDENTITIES[name]
    if field.exp is not None:
        return tuple(reduce(xor, [pair_product(field, m, p) for p in side]) for side in (lhs, rhs))
    lift, settle, lower = field.lifted

    def side(products: Products) -> int:
        acc = 0
        for first, *rest in products:
            term = lift(m[first])
            for pair in rest:
                term = settle(term * lift(m[pair]))
            acc ^= term
        return lower(acc)

    return side(lhs), side(rhs)


def oracle_identity_verdict(name: str, polys: Dict[SessionPair, SparsePoly]) -> bool:
    """Exact truth of a coupling identity, from symbolic transfer polynomials."""
    lhs, rhs = COUPLING_IDENTITIES[name]

    def side(products: Products) -> SparsePoly:
        acc = SparsePoly.zero()
        for prod in products:
            term = SparsePoly.one()
            for pair in prod:
                term = term * polys[pair]
            acc = acc + term
        return acc

    return side(lhs) == side(rhs)


def oracle_coupling_verdicts(sc: Scenario) -> Dict[str, bool]:
    """Exact verdicts for all ten coupling relations."""
    polys = oracle_session_polys(sc)
    return {name: oracle_identity_verdict(name, polys) for name in COUPLING_IDENTITIES}


def square_term_coefficients(sc: Scenario, a: int, b: int, p: int, q: int,
                             var: Var) -> Tuple[SparsePoly, SparsePoly]:
    """Coefficients of x_{ee'}^2 in m_ab*m_pq and in m_aq*m_pb.

    The two determinant-style products share every squared-variable
    coefficient; the tests assert that equality on random graphs.
    """
    polys = {}
    for (jj, ii) in ((a, b), (p, q), (a, q), (p, b)):
        if (jj, ii) not in polys:
            polys[(jj, ii)] = oracle_transfer_poly(sc, sc.sigma(jj), sc.tau(ii))
    f1 = (polys[(a, b)] * polys[(p, q)]).square_coefficient(var)
    f2 = (polys[(a, q)] * polys[(p, b)]).square_coefficient(var)
    return f1, f2
