"""Spans and work counts around the public functions of ``minkbill``.

``installed(tracer, package)`` rebinds every module-level name under the
package that refers to one of the functions in ``TARGETS`` to a wrapper that
records a span (name, start, end, parent span, instance id) and the counts
named in ``_COUNT``.  The binding of ``certify`` inside ``minkbill.cli`` is
wrapped once more as ``cli.recertify``, so that the re-certification done
while assembling a report is told apart from the certification inside the
searches.  Nothing inside the program changes; leaving the context restores
every binding.

Spans are kept in memory and written out by the caller when the run ends.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import Counter, defaultdict

# (module under the package, function, span name)
TARGETS = (
    ("lp", "solve", "lp.solve"),
    ("geom", "in_f", "geom.in_f"),
    ("bounce2", "search_two_bounce", "bounce2.search"),
    ("bounce2", "solve_face_tuple", "bounce2.solve_face_tuple"),
    ("bounce2", "prefer_smooth", "bounce2.prefer_smooth"),
    ("bounce3", "search_three_bounce", "bounce3.search"),
    ("bounce3", "solve_facet_triple", "bounce3.solve_facet_triple"),
    ("bounce3", "find_inbody", "bounce3.find_inbody"),
    ("bounce3", "fit_to_k", "bounce3.fit_to_k"),
    ("verify", "certify", "verify.certify"),
    ("verify", "brute_force_min", "verify.brute_force_min"),
    ("pairs", "dedupe", "pairs.dedupe"),
    ("cli", "main", "cli.main"),
)
RECERTIFY = "cli.recertify"
SPAN_NAMES = tuple(span for _, _, span in TARGETS) + (RECERTIFY,)

# counts reported even when they stay zero; a raised exception with a
# ``reason`` counts as ``<span>.reject.<reason>``, any other as ``.failed``
COUNTERS = (
    "lp.solve.rows", "lp.solve.infeasible", "lp.solve.failed",
    "bounce3.find_inbody.reject.DegenerateLp",
    "bounce3.find_inbody.reject.NotOnBoundary",
    "bounce3.find_inbody.reject.HalfspaceViolation",
    "bounce3.fit_to_k.reject.singular",
    "bounce3.fit_to_k.reject.mu_nonpositive",
    "bounce3.fit_to_k.reject.off_facet",
    "bounce3.solve_facet_triple.pairs",
    "bounce2.solve_face_tuple.found",
    "verify.certify.rejected",
    "pairs.dedupe.merged",
)


def _lp_solve(counts, args, out):
    counts["lp.solve.rows"] += len(args[0].constraints)
    counts["lp.solve.infeasible"] += out.status == "infeasible"


def _certify(counts, args, out):
    counts["verify.certify.rejected"] += not out.certified


def _dedupe(counts, args, out):
    counts["pairs.dedupe.merged"] += len(args[0]) - len(out)


def _face_tuple(counts, args, out):
    counts["bounce2.solve_face_tuple.found"] += out is not None


def _facet_triple(counts, args, out):
    counts["bounce3.solve_facet_triple.pairs"] += len(out)


# per span name: counts taken from the arguments and the result
_COUNT = {
    "lp.solve": _lp_solve,
    "verify.certify": _certify,
    "pairs.dedupe": _dedupe,
    "bounce2.solve_face_tuple": _face_tuple,
    "bounce3.solve_facet_triple": _facet_triple,
}


class Tracer:
    """Spans and counts of one pass; ``take`` hands them over and resets."""

    def __init__(self):
        self.instance = ""
        self._reset()

    def _reset(self):
        self.spans = []  # (name, start, end, parent index or -1, instance)
        self.counters = Counter()
        self._stack = []

    def take(self) -> "Trace":
        trace = Trace(self.spans, self.counters)
        self._reset()
        return trace

    def wrap(self, name, fn):
        count = _COUNT.get(name)

        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                reason = getattr(exc, "reason", None)
                self.counters[f"{name}.reject.{reason}" if reason
                              else f"{name}.failed"] += 1
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, self.instance)
            if count is not None:
                count(self.counters, args, out)
            return out

        return traced


@contextlib.contextmanager
def installed(tracer: Tracer, package):
    """Rebind the targets in every loaded module of ``package``."""
    prefix = package.__name__ + "."
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == package.__name__ or n.startswith(prefix))]
    wrappers = {}
    for mod, fn_name, span in TARGETS:
        original = getattr(sys.modules[prefix + mod], fn_name)
        wrappers[id(original)] = (original, tracer.wrap(span, original))
    cli = sys.modules[prefix + "cli"]
    saved = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                saved.append((module, attr, value))
                setattr(module, attr, hit[1])
    certify = vars(cli)["certify"]
    setattr(cli, "certify", tracer.wrap(RECERTIFY, certify))
    try:
        yield tracer
    finally:
        setattr(cli, "certify", certify)
        for module, attr, value in saved:
            setattr(module, attr, value)


class Trace:
    """The spans and counts of one traced pass, and the metrics they give."""

    def __init__(self, spans, counters):
        self.spans = spans
        self.counters = counters

    def counts(self) -> dict:
        """Every whole-number count: calls per span name plus the counters."""
        calls = Counter(name for name, *_ in self.spans)
        out = {f"{name}.calls": calls[name] for name in SPAN_NAMES}
        out.update(dict.fromkeys(COUNTERS, 0))
        out.update(self.counters)
        return out

    def times(self) -> dict:
        """Inclusive seconds (``.s``) and self seconds (``.self_s``)."""
        total = defaultdict(float)
        child = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans:
            total[name] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        own = defaultdict(float)
        for sid, (name, t0, t1, _, _) in enumerate(self.spans):
            own[name] += t1 - t0 - child[sid]
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = own[name]
        return out

    def metrics(self) -> dict:
        out = {**self.counts(), **self.times()}
        triples = out["bounce3.solve_facet_triple.calls"]
        tuples = out["bounce2.solve_face_tuple.calls"]
        out["bounce3.triples"] = triples
        out["bounce3.triple_yield"] = (
            out["bounce3.solve_facet_triple.pairs"] / triples if triples else 0.0)
        out["bounce2.tuple_yield"] = (
            out["bounce2.solve_face_tuple.found"] / tuples if tuples else 0.0)
        out["cli.report.s"] = out["cli.main.self_s"]
        return out

    def write_spans(self, fh, label: str) -> None:
        for sid, (name, t0, t1, parent, inst) in enumerate(self.spans):
            fh.write(json.dumps({"pass": label, "id": sid, "name": name,
                                 "start": t0, "end": t1, "parent": parent,
                                 "instance": inst}) + "\n")
