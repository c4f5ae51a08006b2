"""Per-layer spans and counts for netalign, recorded from outside the program.

`Tracer.install` replaces each layer function at every binding its callers
use (a function imported by name into another module is patched there too)
with a wrapper that records a span: name, start, end, parent span and job
id.  Spans stay in memory until `write` dumps them as JSON lines.  A layer's
self time is the length of its spans minus the part covered by their child
spans, so the self times of all span names, the job root included, add up
to the traced job time.

A binding that no longer exists (a later version removed or renamed the
function) is skipped and listed in `Tracer.absent`; its metrics read 0.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# Span name -> bindings "module:attr" or "module:Class.attr".  Each span name
# is one layer stage; the `cli.job` root span is opened by the benchmark.
BINDINGS: Dict[str, Tuple[str, ...]] = {
    "dag.parse": ("netalign.cli:load_scenario",),
    "dag.reach": ("netalign.dag:Scenario.reachable_edges",),
    "cuts.pair_cut": ("netalign.feasibility:cut_by_pair", "netalign.cuts:cut_by_pair"),
    "cuts.min_cut": ("netalign.cuts:min_cut",),
    "cuts.bottleneck": ("netalign.feasibility:bottleneck_set", "netalign.cuts:bottleneck_set"),
    "cuts.alpha": ("netalign.feasibility:alpha_beta", "netalign.cuts:alpha_beta",
                   "netalign.feasibility:alpha_edge", "netalign.cuts:alpha_edge"),
    "xfer.sweep": ("netalign.feasibility:session_transfer_matrix",
                   "netalign.pbna:session_transfer_matrix",
                   "netalign.xfer:session_transfer_matrix"),
    "feasibility.classify": ("netalign.cli:classify",),
    "feasibility.cross_check": ("netalign.cli:cross_check_verdicts",),
    "pbna.simulate": ("netalign.cli:simulate",),
    "pbna.draw": ("netalign.pbna:evaluate_precoding",),
    "pbna.propagate": ("netalign.pbna:propagate",),
    "gf2m.eliminate": ("netalign.gf2m:Matrix.rank", "netalign.gf2m:Matrix.solve"),
}

JOB_SPAN = "cli.job"

# Self-time metric of each span name; min_cut runs inside cut_by_pair and
# is counted with it.
SELF_METRIC = {
    "dag.parse": "dag.parse_s",
    "dag.reach": "dag.reach_s",
    "cuts.pair_cut": "cuts.pair_cut_s",
    "cuts.min_cut": "cuts.pair_cut_s",
    "cuts.bottleneck": "cuts.bottleneck_s",
    "cuts.alpha": "cuts.alpha_s",
    "xfer.sweep": "xfer.sweep_s",
    "feasibility.classify": "feasibility.classify_self_s",
    "feasibility.cross_check": "feasibility.cross_check_self_s",
    "pbna.simulate": "pbna.simulate_self_s",
    "pbna.draw": "pbna.draw_s",
    "pbna.propagate": "pbna.propagate_s",
    "gf2m.eliminate": "gf2m.eliminate_s",
    JOB_SPAN: "cli.job_self_s",
}

# Call-count metric of each span name.
CALL_METRIC = {
    "dag.reach": "dag.reach_calls",
    "cuts.pair_cut": "cuts.pair_cut_calls",
    "xfer.sweep": "xfer.sweep_calls",
    "pbna.propagate": "pbna.propagate_calls",
    "gf2m.eliminate": "gf2m.eliminate_calls",
}


def _resolve(binding: str):
    """(owner object, attribute name) of a binding, or None when absent."""
    module_name, path = binding.split(":")
    owner = sys.modules.get(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not callable(getattr(owner, parts[-1], None)):
        return None
    return owner, parts[-1]


class Tracer:
    """Span recorder plus the counters taken at the same boundaries."""

    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent index, job id]
        self.counts: Counter = Counter()
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._job: Optional[int] = None
        self._patches: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        after = _AFTER.get(name)
        lookup = name == "cuts.bottleneck"

        def traced(*args, **kwargs):
            # bottleneck_set(sc, src, dst, cache): a call with a cache is a
            # lookup, and a hit when no sweep (a call without one) runs inside.
            if lookup:
                cached = len(args) > 3 and args[3] is not None or kwargs.get("cache") is not None
                sweeps = counts["bottleneck_sweeps"]
                if not cached:
                    counts["bottleneck_sweeps"] += 1
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None, self._job])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if lookup and cached:
                counts["bottleneck_lookups"] += 1
                if counts["bottleneck_sweeps"] == sweeps:
                    counts["bottleneck_hits"] += 1
            if after is not None:
                after(counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every binding of every span name that exists."""
        self.absent = []
        wrappers: Dict[int, Callable] = {}
        for name, bindings in BINDINGS.items():
            for binding in bindings:
                where = _resolve(binding)
                if where is None:
                    self.absent.append(binding)
                    continue
                owner, attr = where
                original = owner.__dict__.get(attr, getattr(owner, attr))
                wrapper = wrappers.get(id(original))
                if wrapper is None:
                    wrapper = wrappers[id(original)] = self._wrap(name, original)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def job(self, job_id: int, fn: Callable, *args):
        """Run fn(*args) as the root span of one job; returns fn's result."""
        self._job = job_id
        try:
            return self._wrap(JOB_SPAN, fn)(*args)
        finally:
            self._job = None

    def self_times(self) -> Dict[str, float]:
        """Self seconds per metric over all recorded spans."""
        covered: Dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[SELF_METRIC[name]] += end - start - covered[idx]
        return out

    def calls(self) -> Counter:
        """Span counts per call-count metric."""
        return Counter(CALL_METRIC[s[0]] for s in self.spans if s[0] in CALL_METRIC)

    def job_seconds(self) -> float:
        return sum(end - start for name, start, end, parent, _ in self.spans
                   if parent is None)

    def write(self, path) -> None:
        """JSON lines: a header naming the fields, then one array per span.

        `parent` is the line index of the parent span among the spans (0 is
        the first span), or null for a job's root span.
        """
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "job"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _after_draw(counts: Counter, scheme) -> None:
    counts["slots_kept"] += getattr(getattr(scheme, "plan", None), "N", 0)
    counts["resamples"] += getattr(scheme, "resamples", 0)


_AFTER = {"pbna.draw": _after_draw}


class MulCounter:
    """Counts GF(2^m) multiplications by patching Field.mul.

    The wrapper costs more than a table multiplication, so timings taken
    while it is installed are thrown away.
    """

    BINDING = "netalign.gf2m:Field.mul"

    def __init__(self):
        self.calls = 0
        self.absent = _resolve(self.BINDING) is None
        self._original = None

    def install(self) -> None:
        if self.absent:
            return
        field_cls = sys.modules["netalign.gf2m"].Field
        original = self._original = field_cls.__dict__["mul"]

        def mul(field, a, b):
            self.calls += 1
            return original(field, a, b)

        field_cls.mul = mul

    def uninstall(self) -> None:
        if self._original is not None:
            sys.modules["netalign.gf2m"].Field.mul = self._original
            self._original = None
