"""Command-line surface: classify / simulate / oracle over scenario files.

All three commands read the line-oriented scenario format of `netalign.dag`
and print one JSON report to stdout.  Output is deterministic: same file,
same flags, same seed -> byte-identical bytes.  Flags and NETALIGN_SEED
write numbers as scenario files do, in ASCII digits (a seed may start with
'-'), and every error is one `error:` line on stderr.  Exit codes: 0 ok,
2 bad input (scenario, flags or NETALIGN_SEED), 3 resample limit hit
(`simulate` only), 4 graph too large for the symbolic oracle.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Dict, Optional

from . import __version__
from .dag import ModelViolationError, Scenario, ScenarioParseError, load_scenario, quoted, read_digits
from .feasibility import (
    CouplingReport,
    NetworkType,
    classify,
    cross_check_verdicts,
)
from .gf2m import field
from .pbna import build_plan, simulate
from .xfer import (
    COUPLING_IDENTITIES,
    ResampleLimitError,
    TooLargeError,
    oracle_identity_verdict,
    oracle_session_polys,
)

SEED_ENV = "NETALIGN_SEED"


def _bounded_int(lo: Optional[int], hi: Optional[int] = None):
    """argparse type for an integer in lo..hi, written as scenario files write numbers.

    That is ASCII digits only; without a lower end (lo None) the text may
    also start with '-'.  No upper end when hi is None.
    """
    def parse(text: str, what: str = "value") -> int:
        negative = lo is None and text.startswith("-")
        digits = text[negative:]
        try:
            value = read_digits(digits, what)
        except ValueError as exc:
            if digits.isascii() and digits.isdigit():  # past the digit limit
                raise argparse.ArgumentTypeError(str(exc)) from exc
            # quote the text as given, with any '-' read_digits did not see
            raise argparse.ArgumentTypeError(
                f"{what} must be written in ASCII digits, got {quoted(text)}") from exc
        value = -value if negative else value
        if (lo is not None and value < lo) or (hi is not None and value > hi):
            span = f"in {lo}..{hi}" if hi is not None else f">= {lo}"
            raise argparse.ArgumentTypeError(f"must be {span}, got {value}")
        return value
    return parse


FIELD_BITS = _bounded_int(1, 32)
POSITIVE = _bounded_int(1)
SEED = _bounded_int(None)


def _resolve_seed(flag_value: Optional[int]) -> int:
    """Flag wins; else the NETALIGN_SEED environment variable; else 0."""
    if flag_value is not None:
        return flag_value
    env = os.environ.get(SEED_ENV)
    return 0 if env is None else SEED(env, SEED_ENV)


def _header(command: str, sc: Scenario, **fields) -> Dict:
    """A report: its command, the version and the scenario's shape, then `fields`."""
    return {"command": command, "version": __version__, **fields, "scenario": {
        "nodes": len(sc.nodes),
        "edges": len(sc.ids),
        "sessions": [[s.sender, s.receiver] for s in sc.sessions],
        "sigma": [s.sender_edge for s in sc.sessions],
        "tau": [s.receiver_edge for s in sc.sessions],
    }}


def _classification_fields(report: CouplingReport, nt: NetworkType) -> Dict:
    out = {
        "connectivity": [[report.connectivity[(j, i)] for i in (1, 2, 3)]
                         for j in (1, 2, 3)],
        "type": nt.kind,
        "optimal_rate": str(nt.optimal_rate),
        "half_feasible": nt.half_feasible,
    }
    # One graph verdict per coupling identity, None off full connectivity.
    out.update(report.flags or dict.fromkeys(COUPLING_IDENTITIES))
    return out


def cmd_classify(args) -> Dict:
    sc = load_scenario(args.scenario)
    seed = _resolve_seed(args.seed)
    report, nt = classify(sc)
    doc = _header("classify", sc, seed=seed, field_bits=args.field_bits,
                  **_classification_fields(report, nt))
    if args.cross_check:
        checks = {}
        for name, verdict in cross_check_verdicts(sc, field_bits=args.field_bits,
                                                  trials=args.trials,
                                                  seed=seed).items():
            graph = doc[name]
            checks[name] = {
                "randomized": verdict.all_equal,
                "graph": graph,
                "agrees": None if graph is None else graph == verdict.all_equal,
                "trials": verdict.trials,
                "degree_bound": verdict.degree_bound,
                "false_accept_bound": verdict.false_accept_bound,
            }
        doc["cross_check"] = checks
    return doc


def cmd_simulate(args) -> Dict:
    sc = load_scenario(args.scenario)
    seed = _resolve_seed(args.seed)
    report, nt = classify(sc)
    plan = build_plan(nt, n=args.n)
    result = simulate(sc, plan, args.trials, field(args.field_bits), seed=seed)
    return _header(
        "simulate", sc, seed=seed, field_bits=args.field_bits,
        plan={"kind": plan.kind, "n": plan.n, "slots": plan.N, "symbols": list(plan.k)},
        trials=result.trials,
        successes=result.successes,
        success_probability=result.success_probability,
        receiver_failures=list(result.receiver_failures),
        rates=[str(r) for r in result.rates],
        **_classification_fields(report, nt))


def cmd_oracle(args) -> Dict:
    sc = load_scenario(args.scenario)
    polys = oracle_session_polys(sc)
    return _header(
        "oracle", sc,
        monomials={f"m{j}{i}": len(polys[(j, i)]) for j in (1, 2, 3) for i in (1, 2, 3)},
        identities={name: oracle_identity_verdict(name, polys)
                    for name in COUPLING_IDENTITIES})


class _Parser(argparse.ArgumentParser):
    """Usage errors as one line; `add_subparsers` makes the subparsers this class too."""

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")


@functools.cache  # one parser per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="netalign",
        description="Classify three-session coded networks and simulate "
                    "the matching precoding scheme.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cls = sub.add_parser("classify", help="graph-theoretic rate verdict")
    p_cls.add_argument("scenario", help="scenario file")
    p_cls.add_argument("--field-bits", type=FIELD_BITS, default=32,
                       help="GF(2^m) size, m in 1..32, for --cross-check only (default 32)")
    p_cls.add_argument("--trials", type=POSITIVE, default=20,
                       help="random points shared by all ten identity tests, "
                            "for --cross-check only (default 20)")
    p_cls.add_argument("--seed", type=SEED, default=None,
                       help=f"RNG seed (default ${SEED_ENV} or 0)")
    p_cls.add_argument("--cross-check", action="store_true",
                       help="also test every coupling identity at random points")
    p_cls.set_defaults(func=cmd_classify)

    p_sim = sub.add_parser("simulate", help="end-to-end scheme simulation")
    p_sim.add_argument("scenario", help="scenario file")
    p_sim.add_argument("--n", type=POSITIVE, default=1,
                       help="extension parameter for the 2n+1-slot scheme (default 1)")
    p_sim.add_argument("--trials", type=POSITIVE, default=500,
                       help="Monte-Carlo trials (default 500)")
    p_sim.add_argument("--field-bits", type=FIELD_BITS, default=16,
                       help="GF(2^m) symbol size, m in 1..32 (default 16)")
    p_sim.add_argument("--seed", type=SEED, default=None,
                       help=f"RNG seed (default ${SEED_ENV} or 0)")
    p_sim.set_defaults(func=cmd_simulate)

    p_orc = sub.add_parser("oracle", help="exact symbolic transfer-function report")
    p_orc.add_argument("scenario", help="scenario file")
    p_orc.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = args.func(args)
    except (ScenarioParseError, ModelViolationError, OSError, argparse.ArgumentTypeError,
            ResampleLimitError, TooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {ResampleLimitError: 3, TooLargeError: 4}.get(type(exc), 2)
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
