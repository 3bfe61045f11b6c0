"""Spans and counters for the benchmark's traced runs.

Nothing inside ``opelab`` is instrumented.  ``install`` replaces the public
functions of the hot layers with recording wrappers, from outside the
package, and rebinds each wrapped name in every ``opelab`` module that
imported it (``orthonormal_prefix`` in both ``measures`` and ``kernel``, the
``asymptotics``/``linstat`` names re-bound in ``cli``, ...), so calls between
modules are seen too.  Only the traced run imports this module; the
end-to-end run installs no wrappers.

Spans stay in memory until the run ends.  A layer's self time is its span's
duration minus the time covered by its child spans.  A span nested directly
in a span of the same layer is folded into it (the cached ``Measure`` rule
methods and the Golub-Welsch routines they call are one layer).
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("measures", "kernel", "linstat", "sampler", "bounds", "asymptotics", "cli")

# Golub-Welsch routines reported under the cached Measure method that calls them.
_ALIASES = {
    "measures.gauss_quadrature": "measures.gauss_rule",
    "measures.gauss_quadrature_scaled": "measures.gauss_rule_scaled",
}

# Spans whose quadrature-rule requests are the refinement-ladder rungs.
MOMENTS = frozenset({"linstat.exact_mean", "linstat.exact_variance",
                     "linstat.exact_scaled_variance", "linstat.log_mgf"})


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class SpanLog:
    """Spans of one traced pass, kept in memory, plus its exact counters."""

    def __init__(self):
        self.names, self.parents, self.ops, self.starts, self.ends = [], [], [], [], []
        self.stack = [-1]
        self.counts = Counter()

    def inside_moment(self) -> bool:
        return any(self.names[i] in MOMENTS for i in self.stack[1:])

    def summary(self) -> dict:
        """Per-layer calls, self and inclusive seconds, plus the counters."""
        n = len(self.names)
        names, parents = self.names, self.parents
        owner = list(range(n))   # the span a folded span's time belongs to
        child = [0.0] * n
        under_moment = [False] * n
        calls, self_s, total_s = Counter(), Counter(), Counter()
        moments = 0
        for i in range(n):
            p = parents[i]
            dur = self.ends[i] - self.starts[i]
            if p >= 0:
                under_moment[i] = under_moment[p] or names[p] in MOMENTS
                if names[owner[p]] == names[i]:
                    owner[i] = owner[p]
                    continue
                child[owner[p]] += dur
            calls[names[i]] += 1
            total_s[names[i]] += dur
            if names[i] in MOMENTS and not under_moment[i]:
                moments += 1
        for i in range(n):
            if owner[i] == i:
                self_s[names[i]] += (self.ends[i] - self.starts[i]) - child[i]
        return {"calls": dict(calls), "self_s": dict(self_s), "total_s": dict(total_s),
                "moments": moments, "counts": dict(self.counts)}


class Tracer:
    """Records into ``log`` while ``on``; spans are tagged with ``op``."""

    def __init__(self):
        self.on = False
        self.op = -1
        self.log = SpanLog()

    def span(self, name, fn, before=None, after=None):
        """Wrap fn so each call records a span named name."""

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            log = self.log
            if before is not None:
                before(log, args, kwargs)
            idx = len(log.names)
            log.names.append(name)
            log.parents.append(log.stack[-1])
            log.ops.append(self.op)
            log.ends.append(0.0)
            log.stack.append(idx)
            log.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                log.ends[idx] = perf_counter()
                log.stack.pop()
            if after is not None:
                after(log, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, fn, before):
        """Wrap fn to update counters only: no span, so no self time of its own."""

        def counted(*args, **kwargs):
            if self.on:
                before(self.log, args, kwargs)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted


# -- count hooks --------------------------------------------------------------

def _points(log, args, kwargs):
    log.counts["orthonormal_prefix.points"] += int(np.size(_arg(args, kwargs, 2, "x")))


def _rule_m(log, args, kwargs):
    m = int(_arg(args, kwargs, 1, "m"))
    log.counts["gauss_rule_scaled.max_m"] = max(log.counts["gauss_rule_scaled.max_m"], m)


def _rule_request(log, args, kwargs):
    if log.inside_moment():
        log.counts["rule_requests"] += 1


def _proposed(log, args, kwargs):
    log.counts["proposed_points"] += int(_arg(args, kwargs, 2, "size"))


def _accepted(log, args, kwargs, result):
    log.counts["accepted_points"] += int(np.size(result.points))


def _bytes_written(log, args, kwargs, result):
    out = Path(_arg(args, kwargs, 1, "out_dir"))
    log.counts["bytes_written"] += sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


_BEFORE = {"measures.orthonormal_prefix": _points,
           "measures.gauss_rule_scaled": _rule_m}
_AFTER = {"sampler.sample_ope": _accepted, "cli.run": _bytes_written}


def install(tracer: Tracer) -> None:
    """Wrap the layers' public functions everywhere they are bound.

    Private helpers that a later refactor may rename are hooked only if
    present, and only as counters.
    """
    mods = {name: importlib.import_module(f"opelab.{name}") for name in LAYERS}
    wrapped = {}
    for layer, mod in mods.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) \
                    or obj.__module__ != mod.__name__:
                continue
            name = _ALIASES.get(f"{layer}.{attr}", f"{layer}.{attr}")
            wrapped[obj] = tracer.span(name, obj, _BEFORE.get(name), _AFTER.get(name))
    for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "opelab"]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])

    measure_cls = mods["measures"].Measure
    for meth in ("gauss_rule", "gauss_rule_scaled"):
        name = f"measures.{meth}"
        setattr(measure_cls, meth,
                tracer.span(name, getattr(measure_cls, meth), _BEFORE.get(name)))

    linstat = mods["linstat"]
    for attr in ("_global_rule", "_window_rule"):
        if inspect.isfunction(getattr(linstat, attr, None)):
            setattr(linstat, attr, tracer.counter(getattr(linstat, attr), _rule_request))
    envelope = getattr(mods["sampler"], "_MarginalEnvelope", None)
    if envelope is not None and inspect.isfunction(getattr(envelope, "propose", None)):
        envelope.propose = tracer.counter(envelope.propose, _proposed)
