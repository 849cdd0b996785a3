"""Span tracer for the vratio layers, applied from outside the program.

Each public function of a layer module, and the few methods listed in
``METHODS``, is replaced by a wrapper that records one span per call: layer,
name, start, end, parent span, draw id and the exception type if the call
raised. The package binds names with ``from .x import y``, so the same function
object sits in several module namespaces (``vratio.selection.cross_gram`` and
``vratio.kernels.cross_gram`` are separate bindings); every such binding is
patched, and all of them are put back when the session ends.

``scipy.linalg.lu_factor`` and ``scipy.linalg.eigh``, which ``vratio.solve``
looks up by attribute, are counted without spans, so their time stays in the
``solve`` layer's self time.

Spans are kept in memory; ``write_spans`` writes them out after the run.
"""

from __future__ import annotations

import collections
import functools
import gzip
import importlib
import inspect
import sys
import time

import numpy as np
import scipy.linalg

LAYERS = ("domain", "vmatrix", "kernels", "solve", "estimators", "selection", "bench")

# methods traced in addition to each layer's public module-level functions
METHODS = {
    "domain": {"DomainBox": ("transform",), "ScaledSamples": ("subset", "pooled")},
    "estimators": {"RatioEstimate": ("predict", "predict_scaled")},
    "solve": {"PsdPencilSolver": ("__init__", "solve")},
}

# computed factorisation cost in flops from the matrix order n: LU is 2n^3/3;
# a symmetric eigendecomposition with eigenvectors is taken as 9n^3 (the
# symmetric QR count in Golub & Van Loan)
LAPACK_FLOPS = {
    "lu_factor": lambda n: 2.0 * n**3 / 3.0,
    "eigh": lambda n: 9.0 * n**3,
}

LAYER, NAME, START, END, PARENT, DRAW, ERROR = range(7)


def _point_dim(points) -> int:
    return 1 if np.ndim(points) == 1 else int(np.shape(points)[1])


def _count_v_entries(counts, args, result):
    counts["vmatrix.entries"] += result.size * _point_dim(args[0])


def _count_gram_entries(counts, args, result):
    counts["kernels.entries"] += result.size * args[0].d


def _count_candidates(counts, args, report):
    grid_size = args[2].gamma_grid.size
    counts["selection.candidates"] += len(report.candidates)
    counts["selection.candidates_ok"] += sum(1 for c in report.candidates if c.ok)
    for i, cand in enumerate(report.candidates):
        if cand.gamma == report.selected_gamma and cand.sigma2 == report.selected_sigma2:
            counts["selection.edge_picks"] += (i % grid_size) in (0, grid_size - 1)
            break


# counters read from a call's arguments and result, keyed by layer.name
OBSERVERS = {
    "vmatrix.cross_v": _count_v_entries,
    "kernels.cross_gram": _count_gram_entries,
    "selection.cross_validate": _count_candidates,
}


def layer_modules() -> dict:
    return {layer: importlib.import_module(f"vratio.{layer}") for layer in LAYERS}


def bindings() -> dict:
    """Every name the tracer may patch, mapped to the object bound to it now.

    Used to check that a session leaves the program exactly as it found it.
    """
    snap = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "vratio" or modname.startswith("vratio."):
            for attr, val in vars(mod).items():
                if inspect.isfunction(val):
                    snap[(modname, attr)] = val
    for layer, classes in METHODS.items():
        mod = importlib.import_module(f"vratio.{layer}")
        for clsname, names in classes.items():
            for name in names:
                snap[(f"vratio.{layer}.{clsname}", name)] = vars(getattr(mod, clsname))[name]
    for name in LAPACK_FLOPS:
        snap[("scipy.linalg", name)] = getattr(scipy.linalg, name)
    return snap


class Tracer:
    """Context manager that traces the vratio layers while it is entered.

    Set ``draw`` to the id of the draw being run; spans record it.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.draw = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _span_wrapper(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVERS.get(f"{layer}.{name}")
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, name, clock(), 0.0, stack[-1] if stack else -1, tracer.draw, ""]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if observe is not None:
                observe(tracer.counts, args, result)
            return result

        return traced

    def _lapack_wrapper(self, name: str, fn):
        counts, flops = self.counts, LAPACK_FLOPS[name]

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            counts[f"solve.{name}_calls"] += 1
            counts["solve.factor_flops"] += flops(np.shape(a)[0])
            return fn(a, *args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        if self._patches:
            raise RuntimeError("tracer is already active")
        try:
            self._patch_all()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _patch_all(self):
        wrappers = {}
        for layer, mod in layer_modules().items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self._span_wrapper(layer, name, obj)
            for clsname, names in METHODS.get(layer, {}).items():
                cls = getattr(mod, clsname)
                for name in names:
                    self._patch(cls, name, self._span_wrapper(layer, f"{clsname}.{name}",
                                                              vars(cls)[name]))
        for modname, mod in list(sys.modules.items()):
            if modname == "vratio" or modname.startswith("vratio."):
                for attr, val in list(vars(mod).items()):
                    if inspect.isfunction(val) and val in wrappers:
                        self._patch(mod, attr, wrappers[val])
        for name in LAPACK_FLOPS:
            self._patch(scipy.linalg, name, self._lapack_wrapper(name, getattr(scipy.linalg, name)))

    def __exit__(self, *exc_info):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False


def self_times(spans) -> list[float]:
    """Each span's duration minus the time covered by its direct children.

    Calls are strictly nested on one thread, so children never overlap and
    the covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - covered[i] for i, span in enumerate(spans)]


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics from one traced pass.

    A layer's ``calls`` are the spans entered from outside it (from another
    layer or from the harness), so calls a layer makes to itself count once.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    solve_failures = fit_calls = predict_calls = cv_calls = cv_solves = 0
    sample_s = oracle_s = 0.0
    under_cv = [False] * len(spans)
    for i, (span, own) in enumerate(zip(spans, self_times(spans))):
        layer, name, parent = span[LAYER], span[NAME], span[PARENT]
        self_s[layer] += own
        under_cv[i] = parent >= 0 and (under_cv[parent] or spans[parent][NAME] == "cross_validate")
        entered = parent < 0 or spans[parent][LAYER] != layer
        calls[layer] += entered
        duration = span[END] - span[START]
        if layer == "solve" and entered:
            solve_failures += span[ERROR] == "SingularSystemError"
            cv_solves += under_cv[i] and name != "PsdPencilSolver.__init__"
        elif layer == "estimators":
            fit_calls += name.startswith("fit_")
            predict_calls += entered and name.startswith("RatioEstimate.predict")
        elif name == "cross_validate":
            cv_calls += 1
        elif layer == "bench" and name == "sample_model":
            sample_s += duration
        elif layer == "bench" and name in ("true_ratio", "nrmse"):
            oracle_s += duration
    candidates = counts["selection.candidates"]
    return {
        "domain.calls": calls["domain"],
        "domain.self_s": self_s["domain"],
        "vmatrix.calls": calls["vmatrix"],
        "vmatrix.entries": counts["vmatrix.entries"],
        "vmatrix.self_s": self_s["vmatrix"],
        "kernels.calls": calls["kernels"],
        "kernels.entries": counts["kernels.entries"],
        "kernels.self_s": self_s["kernels"],
        "solve.calls": calls["solve"],
        "solve.failures": solve_failures,
        "solve.lu_factor_calls": counts["solve.lu_factor_calls"],
        "solve.eigh_calls": counts["solve.eigh_calls"],
        "solve.factor_flops": counts["solve.factor_flops"],
        "solve.self_s": self_s["solve"],
        "estimators.fit_calls": fit_calls,
        "estimators.predict_calls": predict_calls,
        "estimators.self_s": self_s["estimators"],
        "selection.cv_calls": cv_calls,
        "selection.candidates": candidates,
        "selection.candidate_ok_frac": counts["selection.candidates_ok"] / candidates if candidates else 0.0,
        "selection.edge_pick_frac": counts["selection.edge_picks"] / cv_calls if cv_calls else 0.0,
        "selection.solves_per_cv": cv_solves / cv_calls if cv_calls else 0.0,
        "selection.self_s": self_s["selection"],
        "bench.sample_s": sample_s,
        "bench.oracle_s": oracle_s,
    }


def write_spans(path, spans):
    """Write spans as gzipped tab-separated rows, times in seconds from the first span."""
    t0 = spans[0][START] if spans else 0.0
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("id\tparent\tdraw\tlayer\tname\tstart_s\tend_s\terror\n")
        for i, s in enumerate(spans):
            fh.write(f"{i}\t{s[PARENT]}\t{s[DRAW]}\t{s[LAYER]}\t{s[NAME]}\t"
                     f"{s[START] - t0:.9f}\t{s[END] - t0:.9f}\t{s[ERROR]}\n")
