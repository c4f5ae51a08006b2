"""Transfer functions of a linearly coded network, numeric and symbolic.

Every node forwards random linear combinations of what it receives: the
symbol on edge e is sum_{e' into tail(e)} x_{e'e} * (symbol on e'), with one
coding coefficient x_{e'e} per adjacent edge pair.  The transfer function
m(src, dst) is the resulting end-to-end gain; expanded, it is the sum over
all directed paths from src to dst of the product of the coding coefficients
along the path (a k-edge path contributes k-1 coefficients).

`transfer_values` runs that recurrence once in topological order from any
set of injected edge values; every numeric transfer value in the package
comes from it.  `oracle_transfer_poly` instead enumerates paths and returns
m(src, dst) as an exact sparse polynomial over GF(2); it shares none of the
recurrence and is the slow route the tests trust.  Monomials with equal
variable sets cancel in pairs, matching characteristic-2 arithmetic.

The nine session-to-session transfer functions m_ji (sender edge of session
j to receiver edge of session i) combine into diagnostic ratios

    p1 = m13 m21 / (m11 m23)      p2 = m13 m22 / (m12 m23)
    p3 = m21 m33 / (m23 m31)      eta = m13 m21 m32 / (m12 m23 m31)

whose degeneracies (p_i = 1, p_i = eta, and the mixed third relations)
decide how much throughput alignment can rescue.  Cross-multiplied,
denominator-free forms of all ten relations live in COUPLING_IDENTITIES so
the same table drives the exact oracle and the randomized point tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .dag import Scenario
from .gf2m import Field

PATH_LIMIT = 1 << 20


class TooLargeError(ValueError):
    """Symbolic path enumeration would exceed PATH_LIMIT paths."""


class ResampleLimitError(RuntimeError):
    """Too many consecutive degenerate draws; the field is likely too small."""


Var = Tuple[int, int]  # coding coefficient x_{e e'}, keyed by the edge pair


@dataclass
class CodingAssignment:
    """One value per adjacent edge pair (a local coding kernel)."""

    coeffs: Dict[Var, int]
    _lifted: Optional[tuple] = dataclass_field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def random(cls, sc: Scenario, field: Field, rng) -> "CodingAssignment":
        return cls({pair: field.rand(rng) for pair in sc.pairs})

    def __getitem__(self, pair: Var) -> int:
        return self.coeffs[pair]

    def lifted(self, lift) -> Dict[Var, int]:
        """The coefficients lifted by `lift`, once: edit no coefficient after."""
        if self._lifted is None or self._lifted[0] is not lift:
            self._lifted = (lift, {pair: lift(c) for pair, c in self.coeffs.items()})
        return self._lifted[1]


def _sweep(sc: Scenario, x: CodingAssignment, kernel, sources: Dict[int, int]) -> Dict[int, int]:
    """The recurrence of `transfer_values`, leaving values in the form of `Field.kernel`."""
    lift, product, settle, _ = kernel
    coeffs = x.lifted(lift) if lift else x.coeffs
    inject = ({eid: lift(v) for eid, v in sources.items()} if lift else sources).get
    values: Dict[int, int] = {}
    lo = min(sc.topo_pos[eid] for eid in sources)
    for eid in sc.topo_order[lo:]:
        acc = inject(eid, 0)
        for prev in sc.pred[eid]:
            v = values.get(prev)
            if v:
                acc ^= product(coeffs[(prev, eid)], v)
        if acc and lift:
            acc = settle(acc)
        if acc:
            values[eid] = acc
    return values


def transfer_values(sc: Scenario, x: CodingAssignment, field: Field,
                    sources: Dict[int, int]) -> Dict[int, int]:
    """Symbol on every edge when each edge in `sources` injects its value.

    Single pass in topological order from the earliest source: every edge
    carries its injected value (zero for most) plus sum x_{e'e} value(e')
    over the edges e' into its tail.  With sources {src: 1} the values are
    the gains m(src, e).  Edges whose value is zero are omitted.  Above
    2^16 it XORs lifted products and settles once per edge (see `gf2m`).
    """
    kernel = field.kernel
    lower = kernel[3]
    values = _sweep(sc, x, kernel, sources)
    return values if lower is None else {eid: lower(v) for eid, v in values.items()}


def session_transfer_matrix(sc: Scenario, x: CodingAssignment, field: Field) -> Dict[Tuple[int, int], int]:
    """All nine m_ji values at one assignment (three passes, one per sender)."""
    kernel = field.kernel
    lower = kernel[3]
    out: Dict[Tuple[int, int], int] = {}
    for j in (1, 2, 3):
        gains = _sweep(sc, x, kernel, {sc.sigma(j): 1})
        for i in (1, 2, 3):
            out[(j, i)] = gains.get(sc.tau(i), 0)
    return out if lower is None else {ji: lower(v) for ji, v in out.items()}


def path_count(sc: Scenario, src: int, dst: int) -> int:
    """Number of directed edge paths from src to dst."""
    if src == dst:
        return 1
    counts: Dict[int, int] = {src: 1}
    lo, hi = sc.topo_pos[src], sc.topo_pos.get(dst, -1)
    if lo > hi:
        return 0
    for eid in sc.topo_order[lo + 1:hi + 1]:
        total = 0
        for prev in sc.pred[eid]:
            total += counts.get(prev, 0)
        if total:
            counts[eid] = total
    return counts.get(dst, 0)


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

    def __hash__(self):
        return hash(self.monos)

    def is_zero(self) -> bool:
        return not self.monos

    def __len__(self):
        return len(self.monos)

    def degree(self) -> int:
        return max((sum(e for _, e in m) for m in self.monos), default=0)

    def evaluate(self, field: Field, x: CodingAssignment) -> int:
        acc = 0
        for mono in self.monos:
            term = 1
            for var, exp in mono:
                term = field.mul(term, field.pow(x[var], exp))
                if term == 0:
                    break
            acc ^= term
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


def oracle_transfer_poly(sc: Scenario, src: int, dst: int,
                         limit: int = PATH_LIMIT) -> SparsePoly:
    """m(src, dst) as an exact polynomial, by brute-force path enumeration.

    Raises TooLargeError when more than `limit` paths exist.  Quadratic in
    the number of paths at worst, so only sensible for small graphs; that is
    the point, it is the independent oracle the fast route is tested against.
    """
    if path_count(sc, src, dst) > limit:
        raise TooLargeError(f"more than {limit} paths from edge {src} to {dst}")
    if src == dst:
        return SparsePoly.one()
    useful = sc.reachable_edges(src, forward=True) & sc.reachable_edges(dst, forward=False)
    if dst not in useful:
        return SparsePoly.zero()
    monos: List[Monomial] = []
    stack: List[Tuple[int, Tuple[Var, ...]]] = [(src, ())]
    while stack:
        eid, vars_so_far = stack.pop()
        if eid == dst:
            monos.append(tuple(sorted((v, 1) for v in vars_so_far)))
            continue
        for nxt in sc.succ[eid]:
            if nxt in useful:
                stack.append((nxt, vars_so_far + ((eid, nxt),)))
    return SparsePoly(monos)


def oracle_session_polys(sc: Scenario, limit: int = PATH_LIMIT) -> Dict[Tuple[int, int], SparsePoly]:
    """Exact polynomials for all nine m_ji."""
    return {(j, i): oracle_transfer_poly(sc, sc.sigma(j), sc.tau(i), limit)
            for j in (1, 2, 3) for i in (1, 2, 3)}


# -- diagnostic ratios and coupling identities ------------------------------

SessionPair = Tuple[int, int]  # (j, i) stands for m_ji


@dataclass(frozen=True)
class RatioSpec:
    kind: str
    numerator: Tuple[SessionPair, ...]
    denominator: Tuple[SessionPair, ...]


RATIOS: Dict[str, RatioSpec] = {
    "p1": RatioSpec("p1", ((1, 3), (2, 1)), ((1, 1), (2, 3))),
    "p2": RatioSpec("p2", ((1, 3), (2, 2)), ((1, 2), (2, 3))),
    "p3": RatioSpec("p3", ((2, 1), (3, 3)), ((2, 3), (3, 1))),
    "eta": RatioSpec("eta", ((1, 3), (2, 1), (3, 2)), ((1, 2), (2, 3), (3, 1))),
}


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
    return factors * len(sc.edges)


def evaluate_identity_sides(name: str, m: Dict[SessionPair, int], field: Field) -> Tuple[int, int]:
    """Evaluate both cleared sides of an identity from the nine m_ji values."""
    lhs, rhs = COUPLING_IDENTITIES[name]

    def side(products: Products) -> int:
        acc = 0
        for prod in products:
            acc ^= pair_product(field, m, prod)
        return acc

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


def oracle_coupling_verdicts(sc: Scenario, limit: int = PATH_LIMIT) -> Dict[str, bool]:
    """Exact verdicts for all ten coupling relations."""
    polys = oracle_session_polys(sc, limit)
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
