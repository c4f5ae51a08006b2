"""Precoding schemes: construction, verification, end-to-end simulation.

The sender of session i transmits, over an N-slot extension, the product
V_i X_i of an N x k_i precoding matrix and its k_i data symbols; the rest
of the network performs random linear coding, so receiver i observes

    Y_i = sum_j diag(m_ji(x^(1)), ..., m_ji(x^(N))) V_j X_j.

A plan is data: N, the alignment constraints its chain enforces, and per
role a column family and the data columns (`k` counts them).  One chain,
`netalign.feasibility.reduced_structure`, turns the constraints into a gain
profile g_j (a ratio of transfer functions, per slot) and a base block per
sender, and V_j = diag(g_j) C_j.  A family is a `range` of eta exponents,
C_j = (T^a w, ..., T^b w) with T the diagonal matrix of per-slot eta values
and w the all-ones column, or one free random column theta per base block.
Role j is played by session (j + lead - 2) % 3 + 1; `plan_chain` and
`evaluate_precoding` put roles in the network's numbering once.  The plans:

* EtaGeneral(n): N = 2n+1, every constraint, so g = (1, m13/m23, m12/m32),
  exponents 0..n, 0..n-1 and 1..n, all of them data: k = (n+1, n, n).
  Interference aligns at every non-degenerate draw: the receiver-1 blocks
  satisfy M21 V2 = M31 V3 column for column, and the cross blocks at
  receivers 2 and 3 land inside the spans of M12 V1 and M13 V1.
* TypeTwoFive: N = 5, k = (2, 2, 2).  The EtaGeneral n=2 matrices, except
  sender 1 transmits only on columns {w, T^2 w}: on these networks the
  middle desired column is forced into the interference span at receiver 1,
  and giving it up restores decodability at rate 2/5.  Sender 1 must serve
  the session whose third relation holds: the plan's `lead`.
* EtaOne: N = 2, k = (1, 1, 1), the constraints the network has (all of
  them where eta is identically 1), free columns.
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
from dataclasses import dataclass, replace
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
    """A precoding scheme as data; `kind` is only its label."""

    kind: str
    N: int
    aligns: Optional[bool]  # the chain: True every constraint, False none, None the network's
    columns: Tuple[Optional[range], ...]  # per role: eta exponents, or None for one theta column
    data: Tuple[Tuple[int, ...], ...]  # per role: the columns that carry data
    lead: int = 1  # the session that plays role 1; see `plan_chain`

    def __post_init__(self):
        if self.lead not in (1, 2, 3):
            raise ValueError(f"lead must be 1, 2 or 3, not {self.lead!r}")

    @classmethod
    def eta_general(cls, n: int) -> "PrecodingPlan":
        if n < 1:
            raise ValueError("EtaGeneral needs n >= 1")
        return cls("EtaGeneral", 2 * n + 1, True, (range(n + 1), range(n), range(1, n + 1)),
                   (tuple(range(n + 1)), tuple(range(n)), tuple(range(n))))

    @classmethod
    def eta_one(cls) -> "PrecodingPlan":
        return cls("EtaOne", 2, None, (None,) * 3, ((0,),) * 3)

    @classmethod
    def type_two_five(cls, lead: int = 1) -> "PrecodingPlan":
        return replace(cls.eta_general(2), kind="TypeTwoFive", data=((0, 2), (0, 1), (0, 1)),
                       lead=lead)

    @classmethod
    def trivial_third(cls) -> "PrecodingPlan":
        return cls("TrivialThird", 3, False, (None,) * 3, ((0,),) * 3)

    @property
    def k(self) -> Tuple[int, int, int]:
        return tuple(map(len, self.data))

    @property
    def n(self) -> Optional[int]:
        """The top eta exponent; None when every column is free."""
        return max((c[-1] for c in self.columns if c is not None), default=None)

    @property
    def rates(self) -> Tuple[Fraction, Fraction, Fraction]:
        return tuple(Fraction(ki, self.N) for ki in self.k)

    def by_session(self, roles: Sequence) -> Sequence:
        """Per-role items in session order: session s gets role (s - lead) % 3 + 1's."""
        return roles[1 - self.lead:] + roles[:1 - self.lead]


def build_plan(nt: NetworkType, n: int = 1) -> PrecodingPlan:
    """Pick the scheme family matching a classification verdict."""
    if nt.kind == "I":
        return PrecodingPlan.trivial_third()
    if nt.kind == "II":
        return PrecodingPlan.type_two_five(nt.lead)
    if nt.kind == "III":
        return PrecodingPlan.eta_one() if nt.eta_is_one else PrecodingPlan.eta_general(n)
    if nt.kind == "Reduced":  # two free slots at rate 1/2, else one symbol each in three
        return PrecodingPlan.eta_one() if nt.half_feasible else PrecodingPlan.trivial_third()
    raise ValueError(f"unknown network kind {nt.kind!r}")


@dataclass
class EvaluatedScheme:
    """One concrete draw of a plan: assignments, V and M values.

    V[j-1] is sender j's full structural matrix; only its `data_cols` carry data.
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


def plan_chain(sc: Scenario, plan: PrecodingPlan) -> ReducedStructure:
    """The alignment chain a plan enforces on `sc`, built in roles, in `sc`'s numbering."""
    play = {pair: tuple((r + plan.lead - 2) % 3 + 1 for r in pair) for pair in SESSION_PAIRS}
    present = (connectivity_map(sc) if plan.aligns is None
               else dict.fromkeys(SESSION_PAIRS, plan.aligns))
    chain = reduced_structure({pair: present[played] for pair, played in play.items()})
    return ReducedStructure(present, plan.by_session(chain.base),
                            *(plan.by_session(tuple(tuple(map(play.get, prof)) for prof in side))
                              for side in (chain.profile_num, chain.profile_den)))


def evaluate_precoding(sc: Scenario, plan: PrecodingPlan, field: Field,
                       rng: random.Random,
                       chain: Optional[ReducedStructure] = None) -> EvaluatedScheme:
    """Draw one concrete scheme: N coding assignments plus free scalars.

    `chain` is `plan_chain(sc, plan)`, built here when not given; V,
    `data_cols` and `m_vals` are in `sc`'s session numbering.  A slot
    whose draw zeroes any transfer function appearing in a profile
    denominator is redrawn in full; RESAMPLE_LIMIT consecutive bad draws
    raise ResampleLimitError (tiny field or degenerate topology), naming how
    often each denominator was zero in them.
    """
    if chain is None:
        chain = plan_chain(sc, plan)
    den_pairs = {p for prof in chain.profile_den for p in prof}
    exponents = [c for c in plan.columns if c is not None]  # the eta-power families
    if exponents:
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

    # Column families: one free random column per base block, or slices of
    # eta's powers (defined, as eta's denominator was resampled), each the last times eta.
    families = plan.by_session(plan.columns)
    free = {b for b, c in zip(chain.base, families) if c is None}
    theta = {b: field.draw(rng, N) for b in sorted(free)}
    if exponents:
        top = max(c[-1] for c in exponents)
        powers = [list(accumulate(repeat(pair_ratio(field, m, ETA_NUM, ETA_DEN), top),
                                  field.mul, initial=1)) for m in slots]
    columns = [[[v] for v in theta[b]] if c is None else [r[c.start:c.stop] for r in powers]
               for b, c in zip(chain.base, families)]
    V = []
    for rows, num, den in zip(columns, chain.profile_num, chain.profile_den):
        if den:  # kept nonzero by resampling
            gains = [pair_ratio(field, m, num, den) for m in slots]
            rows = [field.scale((g,), (row,)) for g, row in zip(gains, rows)]
        V.append(Matrix(field, rows))
    data_cols = plan.by_session(plan.data)

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
            ok = joint <= plan.N - len(es.data_cols[i - 1])
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

    Failures and rates are per session of `sc`, in its own numbering.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    chain = plan_chain(sc, plan)
    rng = random.Random(seed)
    successes = 0
    failures = [0, 0, 0]
    for _ in range(trials):
        es = evaluate_precoding(sc, plan, field, rng, chain)
        xs = [field.draw(rng, len(cols)) for cols in es.data_cols]
        sent = []
        for V, cols, data in zip(es.V, es.data_cols, xs):
            # data symbol c times data column c, column after column
            terms = field.scale(data, [[row[c] for row in V.rows] for c in cols])
            sent.append([reduce(xor, terms[t::plan.N]) for t in range(plan.N)])
        ys = list(zip(*[propagate(sc, x, field, slot)
                        for x, slot in zip(es.assignments, zip(*sent))]))
        missed = [_decode(es, i, ys[i - 1]) != xs[i - 1] for i in (1, 2, 3)]
        failures = [f + miss for f, miss in zip(failures, missed)]
        successes += not any(missed)
    return SimulationResult(plan=plan, trials=trials, successes=successes,
                            receiver_failures=tuple(failures),
                            rates=plan.by_session(plan.rates))
