"""Precoding schemes: construction, verification, end-to-end simulation.

The sender of session i transmits, over an N-slot extension, the product
V_i X_i of an N x k_i precoding matrix and its k_i data symbols; the rest
of the network performs random linear coding, so receiver i observes

    Y_i = sum_j diag(m_ji(x^(1)), ..., m_ji(x^(N))) V_j X_j.

A plan is the alignment constraints it enforces plus a column family.  One
chain, `netalign.feasibility.reduced_structure`, turns the constraints into
a gain profile g_j (a ratio of transfer functions, per slot) and a base
block per sender, and V_j = diag(g_j) C_j for sender j's columns C_j:

* EtaGeneral(n): N = 2n+1, k = (n+1, n, n), every constraint, so g = (1,
  m13/m23, m12/m32).  With T the diagonal matrix of per-slot eta values and
  w the all-ones column, C1 = (w, ..., T^n w), C2 = (w, ..., T^{n-1} w) and
  C3 = (Tw, ..., T^n w).  Interference aligns at every non-degenerate draw:
  the receiver-1 blocks satisfy M21 V2 = M31 V3 column for column, and the
  cross blocks at receivers 2 and 3 land inside the spans of M12 V1 and M13 V1.
* TypeTwoFive: N = 5, k = (2, 2, 2).  The EtaGeneral n=2 matrices, except
  sender 1 transmits only on columns {w, T^2 w}: on these networks the
  middle desired column is forced into the interference span at receiver 1,
  and giving it up restores decodability at rate 2/5.  Sender 1 must serve
  the session whose third relation holds: the plan's `lead`, which
  `simulate` numbers 1 by renumbering the sessions cyclically (`lead_first`).
* EtaOne: N = 2, k = (1, 1, 1), the constraints the network has (all of
  them where eta is identically 1); each base block is a free random
  column theta, shared by the senders the chain ties together.
* TrivialThird: N = 3, k = (1, 1, 1), no constraint: three independent
  random columns, time sharing in disguise.

Receiver i sees its desired block D (sender i's data columns, scaled by
m_ii) and one interference block per other sender (the full V_j, scaled by
m_ji); `_receiver` builds the rows of [I | D] in one pass, m_ji(t) V_j[t]
per slot.  It decodes exactly when D is independent of the interference:
`_decode` solves [I | D] z = y on those very rows (forward elimination,
then back-substitution) and accepts iff every desired column is a pivot,
i.e. rank([I | D]) = rank(I) + k_i.  `check_rank` is that rule at y = 0.

`simulate` builds the plan's chain once, then draws a fresh scheme every
trial, pushes the encoded symbols through the network with purely local
per-node updates (`propagate` sweeps the injected symbols and never reads
the m_ji values), decodes each receiver by that rule, and counts exact
recoveries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, repeat
from operator import xor
from typing import Dict, List, Optional, Sequence, Tuple

from .dag import Scenario
from .feasibility import (
    NetworkType,
    ReducedStructure,
    connectivity_map,
    reduced_structure,
)
from .gf2m import Field, InconsistentSystemError, Matrix
from .xfer import (
    COUPLING_IDENTITIES,
    CodingAssignment,
    SESSION_PAIRS,
    ResampleLimitError,
    SessionPair,
    pair_ratio,
    propagate,
    session_transfer_matrix,
)

RESAMPLE_LIMIT = 100
(ETA_NUM,), (ETA_DEN,) = COUPLING_IDENTITIES["eta_is_one"]  # eta's two sides


@dataclass(frozen=True)
class PrecodingPlan:
    """Shape of a precoding scheme: slot count and per-sender symbol counts."""

    kind: str  # "EtaGeneral" | "EtaOne" | "TypeTwoFive" | "TrivialThird"
    N: int
    k: Tuple[int, int, int]
    n: Optional[int] = None
    lead: int = 1  # the session that plays session 1; see `lead_first`

    @classmethod
    def eta_general(cls, n: int) -> "PrecodingPlan":
        if n < 1:
            raise ValueError("EtaGeneral needs n >= 1")
        return cls("EtaGeneral", 2 * n + 1, (n + 1, n, n), n)

    @classmethod
    def eta_one(cls) -> "PrecodingPlan":
        return cls("EtaOne", 2, (1, 1, 1))

    @classmethod
    def type_two_five(cls, lead: int = 1) -> "PrecodingPlan":
        # Built on the n=2 structure, hence n is recorded.  Its sender 1
        # must serve the session whose third relation holds.
        return cls("TypeTwoFive", 5, (2, 2, 2), 2, lead)

    @classmethod
    def trivial_third(cls) -> "PrecodingPlan":
        return cls("TrivialThird", 3, (1, 1, 1))

    @property
    def rates(self) -> Tuple[Fraction, Fraction, Fraction]:
        return tuple(Fraction(ki, self.N) for ki in self.k)


def build_plan(nt: NetworkType, n: int = 1) -> PrecodingPlan:
    """Pick the scheme family matching a classification verdict."""
    if nt.kind == "I":
        return PrecodingPlan.trivial_third()
    if nt.kind == "II":
        return PrecodingPlan.type_two_five(nt.lead)
    if nt.kind == "III":
        return PrecodingPlan.eta_one() if nt.eta_is_one else PrecodingPlan.eta_general(n)
    if nt.kind == "Reduced":
        # Two-slot free-choice scheme when rate 1/2 is feasible; otherwise
        # fall back to one symbol per sender over three slots.
        return PrecodingPlan.eta_one() if nt.half_feasible else PrecodingPlan.trivial_third()
    raise ValueError(f"unknown network kind {nt.kind!r}")


def lead_first(sc: Scenario, lead: int) -> Scenario:
    """`sc` with its sessions renumbered cyclically so that session `lead` is 1.

    A plan with `lead` != 1 runs on this scenario: the third relation of
    session `lead` becomes session 1's, and the coding variables keep their
    order, so the draws do not change.
    """
    if lead == 1:
        return sc
    names = sc.nodes
    sessions = [((s.index - lead) % 3 + 1, s.sender, s.receiver) for s in sc.sessions]
    return Scenario(names, sc.ids, [names[v] for v in sc.tails],
                    [names[v] for v in sc.heads], sessions)


@dataclass
class EvaluatedScheme:
    """One concrete draw of a plan: assignments, V and M values.

    V[0] is the full structural matrix; for TypeTwoFive sender 1 only the
    `data_cols` subset carries data symbols (all columns for other plans).
    """

    plan: PrecodingPlan
    assignments: List[CodingAssignment]
    m_vals: Dict[SessionPair, List[int]]
    V: Tuple[Matrix, Matrix, Matrix]
    data_cols: Tuple[Tuple[int, ...], ...]
    structure: ReducedStructure
    resamples: int

    @property
    def reduced(self) -> bool:
        return not all(self.structure.present.values())


# Every alignment constraint enforced (EtaGeneral, TypeTwoFive) or none
# (TrivialThird); EtaOne enforces the ones its network has.
ALIGNED = reduced_structure(dict.fromkeys(SESSION_PAIRS, True))
UNALIGNED = reduced_structure(dict.fromkeys(SESSION_PAIRS, False))


def plan_chain(sc: Scenario, plan: PrecodingPlan) -> ReducedStructure:
    """The alignment chain a plan enforces on `sc`."""
    if plan.kind in ("EtaGeneral", "TypeTwoFive"):
        return ALIGNED
    if plan.kind == "EtaOne":
        return reduced_structure(connectivity_map(sc))
    if plan.kind == "TrivialThird":
        return UNALIGNED
    raise ValueError(f"unknown plan kind {plan.kind!r}")


def evaluate_precoding(sc: Scenario, plan: PrecodingPlan, field: Field,
                       rng: random.Random,
                       chain: Optional[ReducedStructure] = None) -> EvaluatedScheme:
    """Draw one concrete scheme: N coding assignments plus free scalars.

    Sessions are taken in plan order: `sc` is `lead_first(network, plan.lead)`.
    `chain` is `plan_chain(sc, plan)`, built here when not given.  A slot
    whose draw zeroes any transfer function appearing in a profile
    denominator is redrawn in full; RESAMPLE_LIMIT consecutive bad draws
    raise ResampleLimitError (tiny field or degenerate topology), naming how
    often each denominator was zero in them.
    """
    if chain is None:
        chain = plan_chain(sc, plan)
    den_pairs = {p for prof in chain.profile_den for p in prof}
    if plan.n is not None:
        den_pairs.update(ETA_DEN)

    assignments: List[CodingAssignment] = []
    slots: List[Dict[SessionPair, int]] = []
    misses: List[Dict[SessionPair, int]] = []  # the bad draws since the last kept slot
    resamples = 0
    while len(assignments) < plan.N:
        x = CodingAssignment.random(sc, field, rng)
        m = session_transfer_matrix(sc, x, field)
        if not all(map(m.__getitem__, den_pairs)):
            misses.append(m)
            resamples += 1
            if len(misses) >= RESAMPLE_LIMIT:
                named = ", ".join(f"m{j}{i} zero in {n}" for j, i in sorted(den_pairs)
                                  if (n := sum(not bad[j, i] for bad in misses)))
                raise ResampleLimitError(
                    f"{RESAMPLE_LIMIT} consecutive slot draws had a zero denominator: {named}")
            continue
        misses = []
        assignments.append(x)
        slots.append(m)

    N = plan.N
    m_vals = {pair: [m[pair] for m in slots] for pair in slots[0]}

    # Column families: one free random column per base block, or eta powers
    # (defined, as eta's denominator was resampled), each column the last times eta.
    if plan.n is None:
        theta = {b: field.draw(rng, N) for b in sorted(set(chain.base))}
        columns = [[[v] for v in theta[b]] for b in chain.base]
    else:
        n = plan.n
        etas = [pair_ratio(field, m, ETA_NUM, ETA_DEN) for m in slots]
        powers = [list(accumulate(repeat(eta, n), field.mul, initial=1)) for eta in etas]
        columns = [powers, [row[:n] for row in powers], [row[1:] for row in powers]]
    V = []
    for rows, num, den in zip(columns, chain.profile_num, chain.profile_den):
        if den:  # kept nonzero by resampling
            gains = [pair_ratio(field, m, num, den) for m in slots]
            rows = [field.scale((g,), (row,)) for g, row in zip(gains, rows)]
        V.append(Matrix(field, rows))
    data_cols = (((0, 2), (0, 1), (0, 1)) if plan.kind == "TypeTwoFive"
                 else tuple(tuple(range(k)) for k in plan.k))

    return EvaluatedScheme(plan=plan, assignments=assignments, m_vals=m_vals,
                           V=tuple(V), data_cols=data_cols, structure=chain,
                           resamples=resamples)


def _receiver(es: EvaluatedScheme, i: int) -> Tuple[List[List[int]], Tuple[int, int, int]]:
    """Receiver i's system [I | D] as new rows, and the column each block ends at.

    Row t is m_ji(t) V_j[t] for each other sender j in turn (the full
    received blocks, its interference I), then m_ii(t) times sender i's data
    columns of V_i[t] (its desired block D).  A sender with no path to
    receiver i contributes a zero block, which changes no rank and no pivot,
    so it needs no special case.
    """
    V, m, data = es.V, es.m_vals, es.data_cols[i - 1]
    j, k = [j for j in (1, 2, 3) if j != i]
    own = V[i - 1].rows  # copied only when some column carries no data
    own = own if len(data) == V[i - 1].ncols else [[row[c] for c in data] for row in own]
    rows = list(map(V[0].field.scale, zip(m[j, i], m[k, i], m[i, i]),
                    zip(V[j - 1].rows, V[k - 1].rows, own)))
    first, last = V[j - 1].ncols, V[j - 1].ncols + V[k - 1].ncols
    return rows, (first, last, last + len(data))


def check_alignment(es: EvaluatedScheme) -> bool:
    """Do the interfering signals collapse as the plan promises?

    Where the chain drops a constraint (reduced networks, TrivialThird) only
    the dimension count is meaningful: combined interference at receiver i
    must fit in the N - k_i leftover dimensions.
    Otherwise the narrower of receiver i's two interference blocks must lie
    in the span of the wider one, in both directions when they are equally
    wide.
    """
    plan = es.plan
    f = es.V[0].field
    for i in (1, 2, 3):
        rows, (first, last, _) = _receiver(es, i)
        joint = Matrix(f, [row[:last] for row in rows]).rank()
        if es.reduced:
            ok = joint <= plan.N - plan.k[i - 1]
        else:
            blocks = ((0, first), (first, last))
            wide = max(hi - lo for lo, hi in blocks)
            ok = all(Matrix(f, [row[lo:hi] for row in rows]).rank() == joint
                     for lo, hi in blocks if hi - lo == wide)
        if not ok:
            return False
    return True


def check_rank(es: EvaluatedScheme) -> Tuple[bool, bool, bool]:
    """Can each receiver separate its desired symbols at this draw?

    The decode rule of `simulate` at y = 0: receiver i passes when its k_i
    desired columns are independent of each other and of its interference.
    """
    zero = [0] * es.plan.N
    return tuple(_decode(es, i, zero) is not None for i in (1, 2, 3))


def _decode(es: EvaluatedScheme, i: int, y: Sequence[int]) -> Optional[List[int]]:
    """Receiver i's exact decode; None when the draw leaves it ambiguous.

    Solves [I | D] z = y on the rows `_receiver` builds, and accepts iff the
    k_i desired columns (the last) are the last k_i pivots, i.e. rank([I | D]) =
    rank(I) + k_i: the desired symbols are then fixed whatever the interference.
    """
    rows, (_, first, width) = _receiver(es, i)
    try:
        z, pivots = Matrix(es.V[0].field, rows).solve(y)
    except InconsistentSystemError:
        return None
    if pivots[first - width:] != list(range(first, width)):
        return None
    return z[first:]


@dataclass
class SimulationResult:
    plan: PrecodingPlan
    trials: int
    successes: int
    receiver_failures: Tuple[int, int, int]
    rates: Tuple[Fraction, Fraction, Fraction]

    @property
    def success_probability(self) -> float:
        return self.successes / self.trials


def simulate(sc: Scenario, plan: PrecodingPlan, trials: int, field: Field,
             seed: int = 0) -> SimulationResult:
    """Monte-Carlo runs of a plan: fresh scheme, random data, exact decode.

    It runs on `lead_first(sc, plan.lead)` and reports in `sc`'s session order.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    sc = lead_first(sc, plan.lead)
    chain = plan_chain(sc, plan)
    rng = random.Random(seed)
    successes = 0
    failures = [0, 0, 0]
    for _ in range(trials):
        es = evaluate_precoding(sc, plan, field, rng, chain)
        xs = [field.draw(rng, k) for k in plan.k]
        sent = []
        for V, cols, data in zip(es.V, es.data_cols, xs):
            # data symbol c times data column c, column after column
            terms = field.scale(data, [[row[c] for row in V.rows] for c in cols])
            sent.append([reduce(xor, terms[t::plan.N]) for t in range(plan.N)])
        ys = list(zip(*[propagate(sc, x, field, slot)
                        for x, slot in zip(es.assignments, zip(*sent))]))
        ok = True
        for i in (1, 2, 3):
            if _decode(es, i, ys[i - 1]) != xs[i - 1]:
                failures[i - 1] += 1
                ok = False
        if ok:
            successes += 1
    back = [(i - plan.lead) % 3 for i in (1, 2, 3)]  # plan position of each session
    return SimulationResult(plan=plan, trials=trials, successes=successes,
                            receiver_failures=tuple(failures[b] for b in back),
                            rates=tuple(plan.rates[b] for b in back))
