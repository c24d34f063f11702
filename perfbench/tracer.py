"""Span recorder that instruments epiconv's layers from outside the package.

``Tracer.install()`` replaces each layer entry point by a timing wrapper, and
does so at every place the function object is bound: the defining module,
every ``epiconv`` module that imported it by name (``bblcheck`` imports
``hopflax_apply`` and the ``integrate_*`` functions that way), and the package
namespace. ``uninstall()`` puts the originals back. Private path functions
that a later version of the package may delete are wrapped only when present;
a missing one simply records no spans.

Each span holds its name, start, end, the index of its parent span and the
workload iteration it belongs to, plus optional work counts. Spans stay in
memory; ``dump`` writes them out once the run ends. Self time is a span's
duration minus the time its child spans cover, and a layer's inclusive time
counts only its outermost spans, so self-recursive calls such as
``integrate_epigraph(..., estimate=True)`` are not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

# (module, attribute, span name); an attribute of the form "Class.method"
# patches the method on the class.
LAYERS = [
    ("epiconv.hopflax", "hopflax_apply", "hopflax.apply"),
    ("epiconv.hopflax", "_hopflax_exact", "hopflax.apply.exact"),
    ("epiconv.hopflax", "_hopflax_twostage", "hopflax.apply.twostage"),
    ("epiconv.hopflax", "_shift_interp_candidates", "hopflax.shift_interp"),
    ("epiconv.hopflax", "is_grid_convex", "hopflax.is_grid_convex"),
    ("epiconv.hopflax", "hopflax_pointwise", "hopflax.pointwise"),
    ("epiconv.hopflax", "semigroup_residual", "hopflax.semigroup_residual"),
    ("epiconv.hopflax", "infconv", "hopflax.infconv"),
    ("epiconv.hopflax", "_infconv_reference", "hopflax.infconv.reference"),
    ("epiconv.hopflax", "_infconv_1d_dc", "hopflax.infconv.dc"),
    ("epiconv.extgrid", "sample_grid", "extgrid.sample_grid"),
    ("epiconv.extgrid", "ExtGridFn.interpolate", "extgrid.interpolate"),
    ("epiconv.quadrature", "integrate_epigraph", "quadrature.integrate_epigraph"),
    ("epiconv.quadrature", "integrate_boundary", "quadrature.integrate_boundary"),
    ("epiconv.quadrature", "integrate_gridfn", "quadrature.integrate_gridfn"),
    ("epiconv.transforms", "legendre_nd", "transforms.legendre_nd"),
    ("epiconv.transforms", "legendre_1d", "transforms.legendre_1d"),
    ("epiconv.bblcheck", "bbl_gap", "bblcheck.bbl_gap"),
    ("epiconv.bblcheck", "equivalence_scan", "bblcheck.equivalence_scan"),
    ("epiconv.bblcheck", "appendix_limit_residual", "bblcheck.appendix_limit_residual"),
    ("epiconv.sharpconst", "gns_constants", "sharpconst.gns_constants"),
    ("epiconv.sharpconst", "trace_gn_check", "sharpconst.trace_gn_check"),
    ("epiconv.sharpconst", "weighted_trace_check", "sharpconst.weighted_trace_check"),
    ("epiconv.sharpconst", "i_alpha", "sharpconst.i_alpha"),
    ("epiconv.cli", "run_config", "cli.run_config"),
]

_NAME, _START, _END, _PARENT, _ITER, _COUNTS = range(6)


def _rows(x) -> int:
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_apply(out, args, kwargs):
    """Output nodes, candidates (output nodes x finite cost nodes), +inf outputs."""
    W, h = _arg(args, kwargs, 1, "W"), _arg(args, kwargs, 2, "h")
    vals = out.values.values
    ny = int(np.count_nonzero(np.isfinite(W.values))) if h > 0 else 0
    return {
        "nodes": vals.size,
        "candidates": vals.size * ny,
        "inf_nodes": int(vals.size - np.count_nonzero(np.isfinite(vals))),
    }


def _count_points(index):
    def count(out, args, kwargs):
        return {"points": _rows(np.atleast_2d(_arg(args, kwargs, index, "points")))}

    return count


def _count_sample_grid(out, args, kwargs):
    return {"nodes": int(out.values.size)}


_COUNTERS = {
    "hopflax.apply": _count_apply,
    "hopflax.pointwise": _count_points(3),
    "extgrid.interpolate": _count_points(1),
    "extgrid.sample_grid": _count_sample_grid,
}

# integrators whose estimate=False calls evaluate the integrand; the
# estimate=True form only delegates to two such calls, so counting the
# evaluating calls counts each integrand row once
_INTEGRATORS = {"quadrature.integrate_epigraph", "quadrature.integrate_boundary"}


class Tracer:
    """Records spans around epiconv layer calls; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.iteration = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------
    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.iteration, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[_START] = time.perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[_END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        counter = _COUNTERS.get(name)
        sig = inspect.signature(fn) if name in _INTEGRATORS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer.open(name)
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                if not bound.arguments.get("estimate", False):
                    rec[_COUNTS] = {"evals": 0}
                    integrand = bound.arguments["fn"]

                    def counted(x):
                        rec[_COUNTS]["evals"] += _rows(x)
                        return integrand(x)

                    bound.arguments["fn"] = counted
                    args, kwargs = bound.args, bound.kwargs
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if counter is not None:
                rec[_COUNTS] = counter(out, args, kwargs)
            return out

        return wrapper

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every layer entry point wherever epiconv binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "epiconv" or k.startswith("epiconv."))
        ]
        for mod_name, attr, span_name in LAYERS:
            owner = sys.modules.get(mod_name)
            if owner is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                orig = getattr(cls, meth, None) if cls is not None else None
                if orig is None:
                    continue
                self._patch(cls, meth, self._wrap(span_name, orig))
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            wrapper = self._wrap(span_name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key, new) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, new)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- aggregation -----------------------------------------------------
    def totals(self, iteration) -> dict:
        """Per span name: calls, inclusive s, self_s and summed counts."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for rec in spans:
            if rec[_PARENT] >= 0:
                child_s[rec[_PARENT]] += rec[_END] - rec[_START]
        out: dict[str, dict] = {}
        for i, rec in enumerate(spans):
            if rec[_ITER] != iteration:
                continue
            name = rec[_NAME]
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            dur = rec[_END] - rec[_START]
            agg["calls"] += 1
            agg["self_s"] += dur - child_s[i]
            if not self._has_ancestor(i, name):
                agg["s"] += dur
            for k, v in (rec[_COUNTS] or {}).items():
                agg[k] = agg.get(k, 0) + v
        return out

    def _has_ancestor(self, i: int, name: str) -> bool:
        p = self.spans[i][_PARENT]
        while p >= 0:
            if self.spans[p][_NAME] == name:
                return True
            p = self.spans[p][_PARENT]
        return False

    def dump(self, path: str) -> None:
        doc = {
            "fields": ["name", "start", "end", "parent", "iteration", "counts"],
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
