"""Deciding the best symmetric rate from the graph alone.

The three diagnostic ratios p_i and eta (see `netalign.xfer`) are rational
functions of the coding coefficients, yet whether they degenerate is purely
a property of the topology.  The graph-side criteria implemented here:

* eta is identically 1 exactly when the last shared bottleneck out of
  sender 2 toward receivers {1, 3} coincides with the one out of sender 3
  toward receivers {1, 2}, and likewise for the first shared bottlenecks
  back toward those receivers (the alpha/beta edges of `netalign.cuts`).
* p_i = 1 and p_i = eta each correspond to one specific two-sender/two-
  receiver min-cut being a single edge.
* The third relations (p_1 = eta/(1+eta), p_2 = 1+eta, p_3 = 1+eta) hold
  exactly when two particular alpha edges are distinct, mutually
  unreachable, separately bottleneck the cross traffic, and jointly cut the
  session's own sender from its receiver.

With every sender connected to every receiver the network is then Type I
(some p_i in {1, eta}; symmetric rate 1/3), Type II (a third relation only;
rate 2/5) or Type III (no coupling; rate 1/2).  When some sender-receiver
pair is disconnected the vanished transfer functions erase alignment
constraints instead of tightening them; such networks are flagged Reduced
and the surviving decode ratios of the two-slot scheme must be
non-constant instead.  That test is exact and graph-only too: after
cancelling the transfer functions common to numerator and denominator,
each ratio is a 2x2 cross ratio m_ac*m_bd / (m_ad*m_bc) of present
transfer functions, which is constant (identically 1) exactly when the
pair cut between senders {a, b} and receivers {c, d} is at most 1, so
`reduced_decode_cuts` returns just those cuts.  The
chain of alignment constraints behind those ratios (`reduced_structure`)
builds every precoding plan of `netalign.pbna`, reduced or not.

All ten verdicts live in one map keyed like `COUPLING_IDENTITIES`, and
each can be cross-checked numerically: every relation has a
denominator-free polynomial identity, and one random assignment per trial
evaluates all ten, with the usual degree-over-field-size false-accept bound.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .cuts import alpha_beta, alpha_edge, bottleneck_set, cut_by_pair, parallel
from .dag import Scenario
from .gf2m import field as shared_field
from .xfer import (
    COUPLING_IDENTITIES,
    CodingAssignment,
    SessionPair,
    evaluate_identity_sides,
    identity_degree_bound,
    session_transfer_matrix,
)


@dataclass
class CouplingReport:
    """Raw connectivity plus the graph verdict of each coupling relation.

    `flags` is keyed like COUPLING_IDENTITIES, and None when some sender
    cannot reach some receiver (the relations are then undefined).
    """

    connectivity: Dict[SessionPair, bool]
    flags: Optional[Dict[str, bool]]

    @property
    def fully_connected(self) -> bool:
        return all(self.connectivity.values())


@dataclass
class NetworkType:
    kind: str  # "I" | "II" | "III" | "Reduced"
    optimal_rate: Fraction
    eta_is_one: Optional[bool] = None
    half_feasible: Optional[bool] = None  # Reduced networks only
    lead: int = 1  # Type II: the first session whose third relation holds


def connectivity_map(sc: Scenario) -> Dict[SessionPair, bool]:
    """(j, i) -> whether tau_i is in sigma_j's dominator tree, i.e. reachable.

    It builds the three sender trees that `classify`'s bottleneck queries read.
    """
    return {(j, i): sc.dominators(sc.sigma(j))[sc.tau(i)] >= 0
            for j in (1, 2, 3) for i in (1, 2, 3)}


def check_eta_one(sc: Scenario) -> bool:
    """Graph test for eta identically 1 (needs full cross connectivity)."""
    return alpha_beta(sc, 2, 1, 3) == alpha_beta(sc, 3, 1, 2)


# Relation -> (senders, receivers) of the two-pair cut that is a single
# edge exactly when the relation holds.
PAIR_CUT_RELATIONS: Dict[str, Tuple[SessionPair, SessionPair]] = {
    "p1_is_one": ((1, 2), (1, 3)),
    "p2_is_one": ((1, 2), (2, 3)),
    "p3_is_one": ((2, 3), (1, 3)),
    "p1_is_eta": ((1, 3), (1, 2)),
    "p2_is_eta": ((2, 3), (1, 2)),
    "p3_is_eta": ((1, 3), (2, 3)),
}


def check_third_relation(sc: Scenario, i: int) -> bool:
    """Graph test for session i's third coupling relation.

    For i cyclically followed by j and k, the four conditions: the last
    shared bottleneck out of sender k toward {tau_i, tau_j} also bottlenecks
    sigma_i-to-tau_j traffic; the one out of sender j toward {tau_i, tau_k}
    also bottlenecks sigma_i-to-tau_k traffic; the two edges are distinct and
    mutually unreachable; and removing both disconnects sigma_i from tau_i.
    The last test is a full banned sweep: where the cut holds, any search
    visits all that sigma_i reaches, so stopping early would save nothing.
    """
    j = i % 3 + 1
    k = j % 3 + 1
    a_kij = alpha_edge(sc, k, i, j)
    a_jik = alpha_edge(sc, j, i, k)
    if a_kij == a_jik:
        return False
    if a_kij not in bottleneck_set(sc, sc.sigma(i), sc.tau(j)).members:
        return False
    if a_jik not in bottleneck_set(sc, sc.sigma(i), sc.tau(k)).members:
        return False
    if not parallel(sc, a_kij, a_jik):
        return False
    return sc.tau(i) not in sc.reachable_edges(sc.sigma(i), banned=(a_kij, a_jik))


RATE_BY_KIND = {"I": Fraction(1, 3), "II": Fraction(2, 5), "III": Fraction(1, 2)}


def classify(sc: Scenario) -> Tuple[CouplingReport, NetworkType]:
    """Full taxonomy decision, by graph checks on the three sender dominator trees."""
    conn = connectivity_map(sc)
    if not all(conn.values()):
        return CouplingReport(conn, None), _classify_reduced(sc, conn)

    flags = {"eta_is_one": check_eta_one(sc)}
    for name, (senders, receivers) in PAIR_CUT_RELATIONS.items():
        flags[name] = cut_by_pair(sc, senders, receivers) == 1
    for i in (1, 2, 3):
        flags[f"third_relation_{i}"] = check_third_relation(sc, i)

    third = [i for i in (1, 2, 3) if flags[f"third_relation_{i}"]]
    if any(flags[name] for name in PAIR_CUT_RELATIONS):
        kind = "I"
    elif third:
        kind = "II"
    else:
        kind = "III"
    nt = NetworkType(kind, RATE_BY_KIND[kind], eta_is_one=flags["eta_is_one"],
                     lead=third[0] if kind == "II" else 1)
    return CouplingReport(conn, flags), nt


# -- randomized identity testing --------------------------------------------


@dataclass
class IdentityVerdict:
    all_equal: bool
    trials: int
    degree_bound: int
    false_accept_bound: float


def cross_check_verdicts(sc: Scenario, *, field_bits: int = 32, trials: int = 20,
                         seed: int = 0) -> Dict[str, IdentityVerdict]:
    """Randomized verdicts for all ten coupling relations.

    Each trial draws one coding assignment, and its nine m_ji evaluate every
    identity not yet refuted; a refuted identity stops counting trials, and
    the loop ends once all ten are refuted.  The draws any one identity sees
    are independent and uniform, so each keeps its own guarantee: a false
    identity passes all its trials with probability at most trials * d / 2^m
    (a union bound over single-trial Schwartz-Zippel misses; each factor is
    already conservative).  The bound is per identity: the chance that some
    of several false identities all pass is up to the sum of theirs.  A true
    identity always passes, since each evaluation is exact.  With no trials
    there is no evidence either way, so trials < 1 is refused.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    f = shared_field(field_bits)
    rng = random.Random(seed)
    used = dict.fromkeys(COUPLING_IDENTITIES, 0)
    live = list(COUPLING_IDENTITIES)
    for _ in range(trials):
        m = session_transfer_matrix(sc, CodingAssignment.random(sc, f, rng), f)
        held = []
        for name in live:
            used[name] += 1
            lhs, rhs = evaluate_identity_sides(name, m, f)
            if lhs == rhs:
                held.append(name)
        live = held
        if not live:
            break
    verdicts = {}
    for name, n in used.items():
        d = identity_degree_bound(sc, name)
        verdicts[name] = IdentityVerdict(name in live, n, d, min(1.0, trials * d / f.order))
    return verdicts


def report_identity_flags(report: CouplingReport) -> Dict[str, bool]:
    """The graph verdicts keyed like COUPLING_IDENTITIES (full connectivity only)."""
    if report.flags is None:
        raise ValueError("graph verdicts are only defined under full connectivity")
    return report.flags


# -- reduced connectivity ----------------------------------------------------


@dataclass
class ReducedStructure:
    """The alignment chain: which senders share a free column, at what gain.

    Each sender j transmits profile_j(x) times the column family of its base
    block; bases are shared exactly when an alignment constraint chains two
    senders together.  Profiles are ratios of transfer-function products,
    stored as (numerator pairs, denominator pairs); sender 1's is always 1.
    """

    present: Dict[SessionPair, bool]
    base: Tuple[int, int, int]  # column block index per sender
    profile_num: Tuple[Tuple[SessionPair, ...], ...]
    profile_den: Tuple[Tuple[SessionPair, ...], ...]


def reduced_structure(present: Dict[SessionPair, bool]) -> ReducedStructure:
    """Chain the alignment constraints that a 3x3 presence map keeps.

    Every precoding plan is built from it: from the all-present map (every
    constraint), the all-absent map (none) or the network's own map.
    Receiver i ties g_j to g_u m_ui / m_ji when both interferers reach it.
    The ties (j, u, i) are tried in order, each only while sender j is
    unplaced and u is placed; (j, None, 0) gives an unplaced sender j its
    own base block.
    """
    num, den, base = {1: ()}, {1: ()}, {1: 0}
    for j, u, i in ((2, 1, 3), (3, 1, 2), (2, 3, 1), (2, None, 0), (3, 2, 1), (3, None, 0)):
        if j in base:
            continue
        if u is None:
            num[j], den[j], base[j] = (), (), j - 1
        elif u in base and present[(j, i)] and present[(u, i)]:
            num[j], den[j], base[j] = ((u, i),) + num[u], ((j, i),) + den[u], base[u]
    return ReducedStructure(present=present, base=(base[1], base[2], base[3]),
                            profile_num=(num[1], num[2], num[3]),
                            profile_den=(den[1], den[2], den[3]))


def reduced_decode_cuts(rs: ReducedStructure) -> Optional[List[Tuple[int, int, int, int]]]:
    """The pair cuts (a, b, c, d) the two-slot scheme needs at 2; None when some m_ii is absent.

    There is one per receiver i whose first interferer j shares its base
    block: its decode ratio m_ii g_i / (m_ji g_j), cancelled.  A reduced map
    that keeps all three alignment constraints keeps all six cross pairs,
    so one of its m_ii is absent.
    """
    if not all(rs.present[(i, i)] for i in (1, 2, 3)):
        return None
    cuts = []
    for i in (1, 2, 3):
        j = next((j for j in (1, 2, 3) if j != i and rs.present[(j, i)]), None)
        if j is None or rs.base[i - 1] != rs.base[j - 1]:
            continue
        top = Counter(((i, i),) + rs.profile_num[i - 1] + rs.profile_den[j - 1])
        bottom = Counter(((j, i),) + rs.profile_num[j - 1] + rs.profile_den[i - 1])
        (a, c), (b, d) = sorted((top - bottom).elements())
        cuts.append((a, b, c, d))
    return cuts


def _classify_reduced(sc: Scenario, conn: Dict[SessionPair, bool]) -> NetworkType:
    cuts = reduced_decode_cuts(reduced_structure(conn))
    if cuts is None:
        # A session with no path cannot carry anything, so no positive
        # symmetric rate exists, let alone 1/2.
        return NetworkType("Reduced", Fraction(0), half_feasible=False)
    if all(cut_by_pair(sc, abcd[:2], abcd[2:]) == 2 for abcd in cuts):
        return NetworkType("Reduced", Fraction(1, 2), half_feasible=True)
    # The three-slot one-symbol-each scheme still works whenever every
    # session has a path, so 1/3 remains achievable.
    return NetworkType("Reduced", Fraction(1, 3), half_feasible=False)
