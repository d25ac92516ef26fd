"""Outside-in span tracing of the clusterdr layers.

The tracer replaces chosen package functions with timing wrappers. A
wrapper is set on every ``clusterdr`` module attribute that holds the
original function, so it sits where each caller looks the function up
(``clusterdr.cli.load_csv``, ``clusterdr.estimators.wls_fit``, ...). No
package source changes. ``uninstall`` puts the originals back.

Each thread keeps its own stack of open spans, so spans opened by the
Monte Carlo worker threads nest under the rep that opened them and
never under a span of another thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    layer: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    failed: bool = False


def _count_validate(c, result, bound):
    c["dataset.validate.warnings"] += len(result.warnings)


def _count_wls(c, result, bound):
    c["glm.wls_fit.columns_dropped"] += len(result.columns_dropped)


def _count_logistic(c, result, bound):
    c["glm.logistic_fit.iterations"] += result.iterations
    # logistic_fit refits once with a small ridge when an unpenalized fit
    # separates; the returned ridge then differs from the one asked for.
    if result.ridge != bound.arguments["ridge"]:
        c["glm.logistic_fit.separation_refits"] += 1


def _count_lasso(c, result, bound):
    c["glm.multinomial_group_lasso.path_points"] += len(result.path)


def _count_em(c, result, bound):
    c["mixture.em_fit.iterations"] += result.n_iter
    c["mixture.em_fit.cells"] += len(result.support)


# (defining module, function) -> (layer, counter on the returned value)
TARGETS = {
    ("dataset", "load_csv"): ("dataset.load_csv", None),
    ("dataset", "validate"): ("dataset.validate", _count_validate),
    ("suffstats", "build_suffstats"): ("suffstats.build_suffstats", None),
    ("glm", "wls_fit"): ("glm.wls_fit", _count_wls),
    ("glm", "logistic_fit"): ("glm.logistic_fit", _count_logistic),
    ("glm", "multinomial_group_lasso"):
        ("glm.multinomial_group_lasso", _count_lasso),
    ("estimators", "fit_nuisances"): ("estimators.fit_nuisances", None),
    ("estimators", "dr_estimate"): ("estimators.dr_estimate", None),
    ("estimators", "fe_ols"): ("estimators.baselines", None),
    ("estimators", "mundlak_ols"): ("estimators.baselines", None),
    ("estimators", "weighted_fe"): ("estimators.baselines", None),
    ("mixture", "em_fit"): ("mixture.em_fit", _count_em),
    ("mixture", "posterior_suffstat"): ("mixture.posterior_suffstat", None),
    ("simulate", "generate"): ("simulate.generate", None),
    ("simulate", "monte_carlo"): ("simulate.monte_carlo", None),
    # One Monte Carlo repetition; the only private target, because the
    # rep has no public boundary of its own.
    ("simulate", "_run_one_rep"): ("simulate.rep", None),
}

MODULES = ("dataset", "suffstats", "glm", "estimators", "mixture",
           "simulate", "cli")


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []
        self.reset()

    def reset(self) -> None:
        self.spans: list = []
        self.counters = defaultdict(float)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, layer: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``layer``; return the span and
        the result."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        sp = Span(layer, time.perf_counter(), parent=parent)
        stack.append(sp)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            sp.failed = True
            raise
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)
        return sp, result

    def _wrap(self, fn, layer: str, count):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            _, result = self.span(layer, fn, *args, **kwargs)
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                with self._lock:
                    count(self.counters, result, bound)
            return result

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(f"clusterdr.{m}") for m in MODULES]
        modules.append(importlib.import_module("clusterdr"))
        for (home, name), (layer, count) in TARGETS.items():
            original = getattr(importlib.import_module(f"clusterdr.{home}"),
                               name)
            wrapper = self._wrap(original, layer, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def summarize(spans: list, root: Span) -> dict:
    """Per-layer self time, call counts and coverage of one traced job.

    Self time is a span's duration minus the part of it its child spans
    cover. ``covered`` is the part of the root span that any layer span,
    on any thread, covers.
    """
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[id(sp.parent)].append((sp.start, sp.end))
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for sp in spans:
        if sp is root:
            continue
        self_s[sp.layer] += (sp.end - sp.start) - _union_length(
            children[id(sp)], sp.start, sp.end)
        calls[sp.layer] += 1
    layer_spans = [(sp.start, sp.end) for sp in spans if sp is not root]
    reps = [sp for sp in spans if sp.layer == "simulate.rep"]
    covered = _union_length(layer_spans, root.start, root.end)
    return {
        "self_s": dict(self_s),
        "calls": dict(calls),
        "wall_s": root.end - root.start,
        "covered_s": covered,
        "rep_s": [sp.end - sp.start for sp in reps],
        "reps_failed": sum(sp.failed for sp in reps),
    }
