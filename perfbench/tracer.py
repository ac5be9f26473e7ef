"""In-memory spans and counters around the public functions of torusbif.

``Tracer.install`` wraps every public function of every torusbif module in
each torusbif namespace that holds it (``bifurcation``, ``cli`` and
``selftest`` all import ``spectrum_up_to`` by name, so all three copies are
replaced), plus the few methods that carry a layer's work.  A span records
(name, start, end, parent).  Functions called millions of times get a counter
only; their time stays in the caller's self time.  ``Tracer.finish`` writes
the spans out and reduces them to the per-layer metrics of BENCHMARK.json.
Nothing in the program itself changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
import types
from collections import Counter, defaultdict

MODULES = ("weights", "euler_ring", "spaces", "bifurcation", "galerkin", "continuation", "jsonio", "cli", "selftest")

# Leaf functions hot enough that a span per call would swamp the run.
COUNTED = {
    "spaces.eigenvalue_of",
    "spaces.harmonic_dim",
    "weights.canonicalize",
    "weights.proportional",
    "jsonio.frac_to_json",
    "jsonio.frac_from_json",
    "galerkin.degree_eigenvalue",
}

METHODS = (
    ("spaces", "TorusRepDecomposition", "__add__"),
    ("euler_ring", "EulerRingElement", "__mul__"),
    ("galerkin", "GalerkinBasis", "__init__"),
    ("galerkin", "GalerkinBasis", "evaluate"),
    ("galerkin", "GalerkinBasis", "project"),
)


def _rows(shape) -> int:
    return math.prod(shape[:-1])


def _basis_built(notes, args, result):
    notes["galerkin.table_bytes"] += args[0].values.nbytes


def _evaluated(notes, args, result):
    basis, block = args[0], args[1]
    notes["galerkin.transform_gflop"] += 2 * _rows(block.shape) * basis.values.size / 1e9


def _projected(notes, args, result):
    basis, nodal = args[0], args[1]
    # matrix product plus the values * weights product formed on every call
    notes["galerkin.transform_gflop"] += (2 * _rows(nodal.shape) + 1) * basis.values.size / 1e9


def _spectrum(notes, args, result):
    notes["spaces.levels_returned"] += len(result)


def _branch(notes, args, result):
    notes["continuation.steps"] += len(result.states)


def _selftest(notes, args, result):
    for r in result:
        notes[f"selftest.criterion_{r.number:02d}_s"] += r.elapsed


HOOKS = {
    "galerkin.GalerkinBasis.__init__": _basis_built,
    "galerkin.GalerkinBasis.evaluate": _evaluated,
    "galerkin.GalerkinBasis.project": _projected,
    "spaces.spectrum_up_to": _spectrum,
    "continuation.continue_branch": _branch,
    "selftest.run_all": _selftest,
}

# per-layer metric -> span names whose calls / total time / self time it sums
CALLS = {
    "spaces.spectrum_calls": ("spaces.spectrum_up_to",),
    "spaces.decomp_sum_calls": ("spaces.TorusRepDecomposition.__add__",),
    "euler_ring.mul_calls": ("euler_ring.EulerRingElement.__mul__",),
    "bifurcation.index_calls": ("bifurcation.bifurcation_index",),
    "bifurcation.certify_calls": ("bifurcation.certify_unbounded",),
    "galerkin.evaluate_calls": ("galerkin.GalerkinBasis.evaluate",),
    "galerkin.project_calls": ("galerkin.GalerkinBasis.project",),
    "galerkin.residual_calls": ("galerkin.residual_coeffs",),
    "galerkin.jacobian_calls": ("galerkin.residual_jacobian",),
}
TOTAL = {
    "spaces.spectrum_s": ("spaces.spectrum_up_to",),
    "spaces.decomp_sum_s": ("spaces.TorusRepDecomposition.__add__",),
    "euler_ring.mul_s": ("euler_ring.EulerRingElement.__mul__",),
    "galerkin.basis_build_s": ("galerkin.GalerkinBasis.__init__",),
    "galerkin.evaluate_s": ("galerkin.GalerkinBasis.evaluate",),
    "galerkin.project_s": ("galerkin.GalerkinBasis.project",),
    "galerkin.jacobian_s": ("galerkin.residual_jacobian",),
    "cli.render_s": ("jsonio.canonical_dumps", "spaces.spectrum_to_csv", "cli.branch_csv"),
}
SELF = {
    "bifurcation.index_self_s": ("bifurcation.bifurcation_index",),
    "bifurcation.certify_self_s": ("bifurcation.certify_unbounded",),
    "bifurcation.levels_self_s": ("bifurcation.bifurcation_levels",),
    "galerkin.residual_self_s": ("galerkin.residual_coeffs",),
    "continuation.self_s": ("continuation.continue_branch",),
}
COUNTS = {
    "spaces.lattice_points": "spaces.eigenvalue_of",
    "weights.canonicalize_calls": "weights.canonicalize",
    "weights.proportional_calls": "weights.proportional",
}
NOTES = (
    "spaces.levels_returned",
    "galerkin.table_bytes",
    "galerkin.transform_gflop",
    "continuation.steps",
    *(f"selftest.criterion_{n:02d}_s" for n in range(1, 11)),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name index, start, end, parent span or -1, outermost of its name)
        self.stack: list[int] = []
        self.depth: Counter = Counter()
        self.counts: Counter = Counter()
        self.notes: defaultdict = defaultdict(int)

    def span(self, name: str, fn, hook=None):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, depth, notes = self.spans, self.stack, self.depth, self.notes
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            depth[idx] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[idx] -= 1
                spans[sid] = (idx, start, end, parent, depth[idx] == 0)
            if hook is not None:
                hook(notes, args, result)
            return result

        return functools.wraps(fn)(wrapper)

    def count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        modules = {short: importlib.import_module(f"torusbif.{short}") for short in MODULES}
        wrapped = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not isinstance(obj, types.FunctionType) or obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapped[obj] = self.count(name, obj) if name in COUNTED else self.span(name, obj, HOOKS.get(name))
        for ns in (sys.modules["torusbif"], *modules.values()):
            for attr, obj in list(vars(ns).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    setattr(ns, attr, wrapped[obj])
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name)
            name = f"{short}.{cls_name}.{meth}"
            setattr(cls, meth, self.span(name, vars(cls)[meth], HOOKS.get(name)))

    def finish(self, spans_path) -> dict:
        """Write the spans to ``spans_path`` and return the per-layer metrics
        of this process (additive across the commands of a workload)."""
        spans = self.spans  # every wrapped call has returned by now
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        for s in spans:
            name = self.names[s[0]]
            calls[name] += 1
            own[name] += s[2] - s[1]
            if s[4]:
                total[name] += s[2] - s[1]
            if s[3] >= 0:
                own[self.names[spans[s[3]][0]]] -= s[2] - s[1]
        out = {metric: sum(calls[n] for n in names) for metric, names in CALLS.items()}
        out.update({metric: sum(total[n] for n in names) for metric, names in TOTAL.items()})
        out.update({metric: sum(own[n] for n in names) for metric, names in SELF.items()})
        out.update({metric: self.counts[name] for metric, name in COUNTS.items()})
        out.update({metric: self.notes.get(metric, 0) for metric in NOTES})

        origin = spans[0][1] if spans else 0.0
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "spans": [[s[0], round(s[1] - origin, 7), round(s[2] - origin, 7), s[3]] for s in spans],
                    "counts": dict(self.counts),
                },
                fh,
            )
        return out
