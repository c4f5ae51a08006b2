#!/usr/bin/env python3
"""The netalign benchmark: three closed-loop workloads through the public CLI.

    python3 bench/run.py --workload classify_large --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: the program is imported from ./src, and
scenario files and span dumps go to ./.bench_work.  One client in one
single-threaded process sends each job to `netalign.cli.main(argv)` only after
the previous one has finished.  Every job's stdout JSON is checked (see the
`check_*` functions); a job that raises, exits non-zero or fails a check
counts in `failed`, and `failed` / `attempted` is the run's failure ratio.

Workloads (scenarios are inflated corpus gadgets, see scenarios.py):

* classify_large -- `classify` on 2k-20k edge networks of all four kinds
  (I, II, III, Reduced).  Time goes to `dag` reachability and `cuts` (pair
  cuts by max-flow, bottleneck sets); the Reduced job also runs the
  randomized GF(2^32) path through `xfer`.  `pbna` does nothing here.
* simulate_small -- `simulate --field-bits 16` on the seven gadgets and
  lightly inflated copies (at most 66 edges), slot counts N = 2, 3, 5 and
  7.  Time goes to `gf2m` table arithmetic and elimination, tiny `xfer`
  sweeps and `pbna` propagate; `cuts` does almost nothing.
* crosscheck_wide -- `classify --cross-check` with the CLI defaults
  (GF(2^32), 20 trials) on 0.16k-1.9k edge networks.  Time goes to `xfer`
  sweeps over whole graphs in `gf2m`'s shift-and-xor path; no matrix
  elimination runs.  It uses the sweep layer the opposite way from
  simulate_small: few sweeps over wide graphs instead of many tiny ones.

The `oracle` command is deliberately absent: its path enumeration is the
reference the tests trust, no planned change targets its speed, and its
cost grows exponentially with size.

A run repeats rounds of the workload's job list, each round on fresh
instances drawn from the seed and in a fresh order, and starts a round only
if it is expected to end within --seconds.  Every round has the same mix
of jobs, so runs with different seeds or round counts stay comparable.

With --trace 0 the last line reports the end-to-end metrics:

* setup_s -- median of SETUP_REPS set-ups (field tables, scenario
  generation and files, oracle checks of the gadget verdicts), plus the
  import of the package, taken once.
* job_p50_ms, job_tail_ms -- median and TAIL_PCT percentile of job times.
  The percentile is fixed per workload, so that runs with different job
  counts report the same statistic; it is about the highest with ten jobs
  beyond it at the job counts a 30-second run reaches, and each run prints
  it with its job count.
* work_per_s -- completed work per second of job time, the median over
  rounds: scenario edges classified (classify_large), Monte-Carlo trials
  (simulate_small) or identity evaluations, the sum of `trials` in
  `cross_check` (crosscheck_wide).
* peak_rss_mb -- peak resident memory of the process.

With --trace 1 it reports per-layer metrics instead, per round of the job
list: self seconds and call counts of each wrapped layer (tracing.py), the
bottleneck cache and slot-draw ratios, GF(2^m) multiplications (counted in a
round of its own, whose timings are thrown away), and the traced/untraced
job-time ratio from rounds run alternately with and without the wrappers.

Which end-to-end metric each layer metric should move, on which workload:

* dag.parse_s, dag.reach_s/calls, cuts.* -> work_per_s on classify_large.
* xfer.sweep_s/calls -> work_per_s on crosscheck_wide and simulate_small,
  and on classify_large through its Reduced job.
* pbna.* and gf2m.eliminate_s/calls -> work_per_s on simulate_small.
* feasibility.*_self_s, pbna.simulate_self_s, cli.job_self_s -> what the
  named spans leave; all self times add up to trace.job_s.

A line before the last prints a sha256 digest of the stdout of the
first round's jobs: it gates nothing, but shows when a change alters the
random stream or a verdict.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

import scenarios
import tracing

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

WORKLOADS = ("classify_large", "simulate_small", "crosscheck_wide")

# Jobs per round as (gadget, target edges), in order of rising job time (the
# cost per edge differs by gadget).  The middle jobs take about the same
# time, so the median and TAIL_PCT fall among many similar jobs, not
# between two unlike ones, whatever the number of rounds.  classify_large
# spans 2k-20k edges.  In crosscheck_wide a holding identity costs 20
# evaluations and a failing one 1, so the gadgets where many hold
# (two_corridor, shared_bottleneck) get the smallest networks.
CLASSIFY_JOBS = [
    ("shared_bottleneck", 2000),
    ("eta_one_corridor", 2600),
    ("rich_type3", 4400),
    ("m21_dead", 2200),
    ("two_corridor", 3600),
    ("type_two_gadget", 3600),
    ("shared_bottleneck", 5300),
    ("type_two_gadget", 10000),
    ("rich_type3", 20000),
]
CROSSCHECK_JOBS = [
    ("rich_type3", 830),
    ("m21_dead", 1000),
    ("type_two_gadget", 590),
    ("eta_one_corridor", 510),
    ("rich_type3", 1900),
    ("two_corridor", 180),
    ("shared_bottleneck", 160),
]
CLASSIFY_WIDTHS = range(4, 13)
CROSSCHECK_WIDTHS = range(2, 7)
# simulate_small jobs as (gadget, n, inflated, trials).  Inflated copies
# use mesh blocks of 6 edges in either shape, so the seed varies the mesh
# without varying the work.  n only matters for EtaGeneral plans
# (rich_type3), which have N = 2n + 1 slots.  Light jobs get more trials
# than the CLI default of 500, so that most jobs take about as long; no job
# gets fewer, which keeps a chance failure of the 0.99 gate negligible.
SIMULATE_SHAPES = ((1, 1), (2, 0))
SIMULATE_JOBS = [
    ("three_disjoint", 1, False, 1900),
    ("m21_dead", 1, False, 950),
    ("eta_one_corridor", 1, False, 850),
    ("shared_bottleneck", 1, False, 750),
    ("two_corridor", 1, False, 700),
    ("rich_type3", 1, False, 700),
    ("shared_bottleneck", 1, True, 600),
    ("m21_dead", 1, True, 500),
    ("type_two_gadget", 1, False, 500),
    ("eta_one_corridor", 1, True, 500),
    ("rich_type3", 1, True, 500),
    ("two_corridor", 1, True, 500),
    ("rich_type3", 3, False, 500),
]

SETUP_REPS = 7
# Inside the group of like middle jobs, with about ten jobs or more beyond
# it at the round counts a 30-second run reaches.
TAIL_PCT = {"classify_large": 65, "simulate_small": 75, "crosscheck_wide": 65}
SUCCESS_GATE = 0.99

E2E_UNITS = {
    "setup_s": "s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "dag.parse_s": "s",
    "dag.reach_s": "s",
    "dag.reach_calls": "count",
    "cuts.pair_cut_s": "s",
    "cuts.pair_cut_calls": "count",
    "cuts.bottleneck_s": "s",
    "cuts.bottleneck_sweeps": "count",
    "cuts.bottleneck_lookups": "count",
    "cuts.bottleneck_hit_ratio": "ratio",
    "cuts.alpha_s": "s",
    "xfer.sweep_s": "s",
    "xfer.sweep_calls": "count",
    "pbna.draw_s": "s",
    "pbna.resamples": "count",
    "pbna.draw_accept_ratio": "ratio",
    "pbna.propagate_s": "s",
    "pbna.propagate_calls": "count",
    "pbna.decode_fail_trials": "count",
    "pbna.simulate_self_s": "s",
    "gf2m.eliminate_s": "s",
    "gf2m.eliminate_calls": "count",
    "gf2m.mul_calls": "count",
    "feasibility.classify_self_s": "s",
    "feasibility.cross_check_self_s": "s",
    "cli.job_self_s": "s",
    "trace.job_s": "s",
    "trace.overhead_ratio": "ratio",
}

VERDICT_KEYS = ["connectivity", "type", "optimal_rate", "eta_is_one", "half_feasible"]
IDENTITY_KEYS = ["eta_is_one"] + [f"p{i}_is_{r}" for r in ("one", "eta") for i in (1, 2, 3)]
IDENTITY_KEYS += [f"third_relation_{i}" for i in (1, 2, 3)]
RATE_BY_KIND = {"I": "1/3", "II": "2/5", "III": "1/2"}


class CheckError(Exception):
    """A job's output is wrong."""


@dataclass
class Job:
    jid: int
    gadget: str
    argv: List[str]
    edges: int


@dataclass
class Result:
    job: Job
    seconds: float
    stdout: str
    doc: Optional[dict] = None
    work: float = 0.0
    error: Optional[str] = None


def load_program():
    """Import netalign from ./src of the checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "netalign" / "__init__.py").is_file():
        raise SystemExit(f"error: no netalign sources under {src}")
    sys.path.insert(0, str(src))
    import netalign.cli  # noqa: F401  (timed by the caller as part of set-up)
    origin = Path(sys.modules["netalign"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"error: netalign was imported from {origin}, not {src}")


# -- scenarios and jobs -------------------------------------------------------


def write_block(workload: str, seed: int, block: int, scale: float) -> List[Job]:
    """Write the scenario files of one round (block) and return its jobs.

    Every round gets fresh instances (mesh shape, ids, line order, CLI
    seed) drawn from (workload, seed, block), so a run averages over
    several instances of each job rather than timing one instance again.
    """
    netalign = sys.modules["netalign"]
    rng = random.Random(f"{workload}:{seed}:{block}")
    jobs: List[Job] = []

    def add(gadget: str, sc, shape, flags: List[str]) -> None:
        text = scenarios.inflate(sc, shape, rng)
        path = WORK / f"{workload}-{len(jobs)}.scn"
        path.write_text(text)
        edges = sum(1 for line in text.splitlines() if line.startswith("edge "))
        argv = [flags[0], str(path)] + flags[1:] + ["--seed", str(rng.randrange(1 << 31))]
        jobs.append(Job(block * 100 + len(jobs), gadget, argv, edges))

    if workload in ("classify_large", "crosscheck_wide"):
        big = workload == "classify_large"
        for gadget, target in CLASSIFY_JOBS if big else CROSSCHECK_JOBS:
            sc = netalign.load_corpus(gadget)
            shape = scenarios.shape_near(sc, max(40, int(target * scale)),
                                         CLASSIFY_WIDTHS if big else CROSSCHECK_WIDTHS, rng)
            add(gadget, sc, shape, ["classify"] if big else ["classify", "--cross-check"])
    elif workload == "simulate_small":
        for gadget, n, inflated, trials in SIMULATE_JOBS:
            shape = rng.choice(SIMULATE_SHAPES) if inflated else None
            # Scaled-down runs keep 100 trials, so one unlucky draw cannot
            # fail the 0.99 gate.
            trials = max(100, int(trials * scale))
            add(gadget, netalign.load_corpus(gadget), shape,
                ["simulate", "--field-bits", "16", "--n", str(n), "--trials", str(trials)])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


def gadget_verdicts(netalign, cli, names, problems: List[str]):
    """Each plain gadget's `classify` output and exact coupling verdicts.

    Returns ({name: stdout JSON}, {name: {identity: holds}}); a `classify`
    output that disagrees with the oracles is reported in `problems`.
    """
    docs, exact = {}, {}
    for name in names:
        sc = netalign.load_corpus(name)
        exact[name] = netalign.oracle_coupling_verdicts(sc)
        path = WORK / f"gadget-{name}.scn"
        path.write_text(netalign.serialize_scenario(sc))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["classify", str(path), "--seed", "0"])
        docs[name] = {}
        try:
            if rc != 0:
                raise CheckError(f"classify exited {rc}")
            docs[name] = json.loads(buf.getvalue())
            problem = oracle_problem(netalign, sc, docs[name], exact[name])
        except (CheckError, ValueError, KeyError, TypeError) as exc:
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            problems.append(f"gadget {name}: {problem}")
    return docs, exact


def oracle_problem(netalign, sc, doc: dict, exact: dict) -> Optional[str]:
    """Why a gadget's verdict disagrees with exact oracles, or None.

    Fully connected gadgets: every coupling flag must equal the symbolic
    identity verdict and the type must follow from the flags.  Reduced
    gadgets: connectivity must match the symbolic transfer functions, and
    the claimed rate must be reached by simulating its plan.
    """
    polys = netalign.oracle_session_polys(sc)
    conn = [[not polys[(j, i)].is_zero() for i in (1, 2, 3)] for j in (1, 2, 3)]
    if doc["connectivity"] != conn:
        return f"connectivity {doc['connectivity']}, oracle {conn}"
    if all(all(row) for row in conn):
        for key in IDENTITY_KEYS:
            if doc[key] != exact[key]:
                return f"{key} is {doc[key]}, oracle {exact[key]}"
        kind = ("I" if any(exact[k] for k in IDENTITY_KEYS[1:7])
                else "II" if any(exact[k] for k in IDENTITY_KEYS[7:]) else "III")
        if doc["type"] != kind or doc["optimal_rate"] != RATE_BY_KIND[kind]:
            return f"type {doc['type']} rate {doc['optimal_rate']}, oracle says {kind}"
        return None
    if doc["type"] != "Reduced":
        return f"disconnected but typed {doc['type']}"
    rate = Fraction(doc["optimal_rate"])
    if rate == 0:
        return None if not all(conn[i][i] for i in range(3)) else "rate 0, every session connects"
    plan = (netalign.PrecodingPlan.eta_one() if rate == Fraction(1, 2)
            else netalign.PrecodingPlan.trivial_third())
    sim = netalign.simulate(sc, plan, 100, netalign.field(16), seed=0)
    if sim.success_probability < SUCCESS_GATE:
        return f"rate {rate} plan decodes {sim.success_probability:.3f} of trials"
    return None


def setup_once(workload: str, seed: int, scale: float, problems: List[str]):
    """One full set-up: fresh field tables, scenario files, gadget verdicts."""
    netalign = sys.modules["netalign"]
    cli = sys.modules["netalign.cli"]
    gf2m = sys.modules["netalign.gf2m"]
    for m in (16, 32):
        gf2m.Field(m)  # table construction, timed on every set-up
        gf2m.field(m)  # and the shared instance the CLI uses
    WORK.mkdir(exist_ok=True)
    jobs = write_block(workload, seed, 0, scale)
    verdicts, exact = gadget_verdicts(netalign, cli, sorted({j.gadget for j in jobs}), problems)
    return jobs, verdicts, exact


# -- per-job checks -----------------------------------------------------------


def expected_plan(verdict: dict, n: int):
    """(kind, N, k) of the plan the CLI must build for this verdict."""
    kind = verdict["type"]
    if kind == "I" or (kind == "Reduced" and not verdict["half_feasible"]):
        return "TrivialThird", 3, [1, 1, 1]
    if kind == "II":
        return "TypeTwoFive", 5, [2, 2, 2]
    if kind == "III" and not verdict["eta_is_one"]:
        return "EtaGeneral", 2 * n + 1, [n + 1, n, n]
    return "EtaOne", 2, [1, 1, 1]


def check_verdict(doc: dict, verdict: dict) -> None:
    for key in VERDICT_KEYS + IDENTITY_KEYS:
        if doc.get(key) != verdict[key]:
            raise CheckError(f"{key} is {doc.get(key)!r}, gadget says {verdict[key]!r}")


def check_classify(job: Job, doc: dict, verdict: dict) -> float:
    check_verdict(doc, verdict)
    if doc["scenario"]["edges"] != job.edges:
        raise CheckError(f"scenario has {doc['scenario']['edges']} edges, file {job.edges}")
    return float(job.edges)


def check_simulate(job: Job, doc: dict, verdict: dict) -> float:
    check_verdict(doc, verdict)
    n = int(job.argv[job.argv.index("--n") + 1])
    kind, slots, symbols = expected_plan(verdict, n)
    plan = doc["plan"]
    if (plan["kind"], plan["slots"], plan["symbols"]) != (kind, slots, symbols):
        raise CheckError(f"plan {plan}, expected {kind} N={slots} k={symbols}")
    rates = [str(Fraction(k, slots)) for k in symbols]
    if doc["rates"] != rates:
        raise CheckError(f"rates {doc['rates']}, plan gives {rates}")
    if doc["success_probability"] < SUCCESS_GATE:
        raise CheckError(f"success probability {doc['success_probability']} < {SUCCESS_GATE}")
    return float(doc["trials"])


def check_crosscheck(job: Job, doc: dict, verdict: dict, exact: dict) -> float:
    check_verdict(doc, verdict)
    evals = 0
    for key in IDENTITY_KEYS:
        c = doc["cross_check"][key]
        if c["trials"] < 1:
            raise CheckError(f"{key}: {c['trials']} trials")
        if c["randomized"] != exact[key]:
            raise CheckError(f"{key}: randomized {c['randomized']}, oracle {exact[key]}")
        if c["graph"] is not None and (c["graph"] != c["randomized"] or c["agrees"] is not True):
            raise CheckError(f"{key}: graph {c['graph']} vs randomized {c['randomized']}")
        evals += c["trials"]
    return float(evals)


# -- measurement --------------------------------------------------------------


class Runner:
    """Runs rounds of jobs in one closed loop and checks every output."""

    def __init__(self, workload: str, seed: int, scale: float, jobs: List[Job],
                 verdicts: Dict[str, dict], exact: Dict[str, dict]):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.block = 0
        self.jobs = jobs
        self.verdicts = verdicts
        self.rng = random.Random(seed)
        self.exact = exact
        self.cli = sys.modules["netalign.cli"]
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def run_job(self, job: Job, tracer: Optional[tracing.Tracer] = None) -> Result:
        buf = io.StringIO()
        gc.collect()
        error = None
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                if tracer is None:
                    rc = self.cli.main(job.argv)
                else:
                    rc = tracer.job(job.jid, self.cli.main, job.argv)
            except (Exception, SystemExit) as exc:  # a job must not stop the run
                rc, error = None, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        res = Result(job, seconds, buf.getvalue(), error=error)
        if error is None and rc != 0:
            res.error = f"exit code {rc}"
        if res.error is None:
            try:
                res.doc = json.loads(res.stdout)
                res.work = self.check(job, res.doc)
            except (CheckError, ValueError, KeyError, TypeError) as exc:
                res.error = f"{type(exc).__name__}: {exc}"
        self.attempted += 1
        if res.error is not None:
            self.failed += 1
            self.errors.append(f"job {job.jid} ({job.gadget}, {' '.join(job.argv)}): {res.error}")
        return res

    def check(self, job: Job, doc: dict) -> float:
        verdict = self.verdicts[job.gadget]
        if self.workload == "classify_large":
            return check_classify(job, doc, verdict)
        if self.workload == "simulate_small":
            return check_simulate(job, doc, verdict)
        return check_crosscheck(job, doc, verdict, self.exact[job.gadget])

    def round(self, block: int, tracer: Optional[tracing.Tracer] = None) -> List[Result]:
        """All jobs of instance block `block`, in a fresh random order."""
        if block != self.block:
            self.jobs = write_block(self.workload, self.seed, block, self.scale)
            self.block = block
        order = list(self.jobs)
        self.rng.shuffle(order)
        return [self.run_job(job, tracer) for job in order]


def job_time(results: List[Result]) -> float:
    return sum(r.seconds for r in results)


def digest(results: List[Result]) -> str:
    h = hashlib.sha256()
    for r in sorted(results, key=lambda r: r.job.jid):
        h.update(r.stdout.encode())
    return h.hexdigest()


def percentile(values: List[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure_e2e(runner: Runner, seconds: float):
    rounds: List[List[Result]] = []
    start = time.perf_counter()
    while True:
        rounds.append(runner.round(len(rounds)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > seconds:
            break
    results = [r for rnd in rounds for r in rnd]
    times_ms = [r.seconds * 1000 for r in results]
    pct = TAIL_PCT[runner.workload]
    metrics = {
        "job_p50_ms": statistics.median(times_ms),
        "job_tail_ms": percentile(times_ms, pct),
        # Median over rounds, so that one disturbed round does not move it.
        "work_per_s": statistics.median(sum(r.work for r in rnd) / job_time(rnd)
                                        for rnd in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"measured {len(rounds)} rounds, {len(results)} jobs in "
          f"{time.perf_counter() - start:.1f} s; job_tail_ms is p{pct} of {len(results)} jobs")
    return metrics, rounds[0]


def measure_layers(runner: Runner, seconds: float, spans_path: Path):
    """Alternate untraced and traced rounds, then count multiplications."""
    tracer = tracing.Tracer()
    plain_s = traced_s = 0.0
    pairs = 0
    fail_trials = 0
    first = None
    start = time.perf_counter()
    while True:
        plain = runner.round(pairs)
        first = first or plain
        tracer.install()
        try:
            traced = runner.round(pairs, tracer)
        finally:
            tracer.uninstall()
        pairs += 1
        plain_s += job_time(plain)
        traced_s += job_time(traced)
        fail_trials += sum(r.doc["trials"] - r.doc["successes"]
                           for r in traced if r.doc and "successes" in r.doc)
        elapsed = time.perf_counter() - start
        # Reserve about one plain round and a half for the counting round.
        if elapsed + (elapsed / pairs) + 1.5 * plain_s / pairs > seconds:
            break
    counter = tracing.MulCounter()
    counter.install()
    try:
        runner.round(0)
    finally:
        counter.uninstall()
    tracer.write(spans_path)

    counts = tracer.counts
    calls = tracer.calls()
    self_s = tracer.self_times()
    metrics = {}
    for name, unit in LAYER_UNITS.items():
        if unit == "s" and name != "trace.job_s":
            metrics[name] = self_s.get(name, 0.0) / pairs
        elif name in tracing.CALL_METRIC.values():
            metrics[name] = calls.get(name, 0) / pairs
    lookups = counts["bottleneck_lookups"]
    drawn = counts["slots_kept"] + counts["resamples"]
    metrics.update({
        "cuts.bottleneck_sweeps": counts["bottleneck_sweeps"] / pairs,
        "cuts.bottleneck_lookups": lookups / pairs,
        "cuts.bottleneck_hit_ratio": counts["bottleneck_hits"] / lookups if lookups else 0.0,
        "pbna.resamples": counts["resamples"] / pairs,
        "pbna.draw_accept_ratio": counts["slots_kept"] / drawn if drawn else 0.0,
        "pbna.decode_fail_trials": fail_trials / pairs,
        "gf2m.mul_calls": float(counter.calls),
        "trace.job_s": tracer.job_seconds() / pairs,
        "trace.overhead_ratio": traced_s / plain_s,
    })
    absent = tracer.absent + ([tracing.MulCounter.BINDING] if counter.absent else [])
    print(f"traced {pairs} of {2 * pairs} alternating rounds, then one counting round; "
          f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    if absent:
        print("absent bindings (their metrics read 0): " + ", ".join(absent))
    return metrics, first


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """One benchmark run; returns the result object printed as the last line.

    `scale` shrinks scenario sizes and trial counts; the benchmark's tests
    use it for tiny runs.
    """
    import_start = time.perf_counter()
    if "netalign.cli" not in sys.modules:
        load_program()
    import_s = time.perf_counter() - import_start

    setup_times = []
    for _ in range(SETUP_REPS):
        failures: List[str] = []
        start = time.perf_counter()
        jobs, verdicts, exact = setup_once(workload, seed, scale, failures)
        setup_times.append(time.perf_counter() - start)

    runner = Runner(workload, seed, scale, jobs, verdicts, exact)
    if trace:
        spans = WORK / f"spans-{workload}-{seed}.jsonl"
        metrics, first = measure_layers(runner, seconds, spans)
        units = LAYER_UNITS
    else:
        metrics, first = measure_e2e(runner, seconds)
        metrics["setup_s"] = import_s + statistics.median(setup_times)
        units = E2E_UNITS
    print(f"digest {workload} seed={seed} sha256={digest(first)}")
    for line in failures + runner.errors[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    return {
        "correct": not failures and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
