"""Discrete Legendre-Fenchel transforms, dual norms, and the power-cost conjugate.

The 1D conjugate is computed by the convex-hull walk (LLT): only lower-hull
vertices of the sample graph can attain the sup, and the attaining vertex is
the one where the hull edge slopes cross the dual slope. Each slope finds that
crossing by a binary search of the running maximum of the edge slopes, and a
float scan of the five hull vertices around it takes the maximum, so the
output agrees bit for bit with the exhaustive reference, smallest index
winning ties.

Conjugates are taken on bounded boxes. Restricting the sup to a box is the
same as adding the box's indicator to the function, which can only raise the
conjugate relative to unbounded closed forms; comparisons against such forms
must account for the box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .extgrid import INF, ExtGridFn

__all__ = [
    "NormSpec",
    "ConjugateResult",
    "legendre_1d",
    "legendre_nd",
    "default_dual_box",
    "dual_norm",
    "dual_norm_sampled",
    "power_cost_conjugate",
]


@dataclass(frozen=True)
class NormSpec:
    """A norm on R^n with computable dual.

    kinds: ``euclidean``; ``p_norm`` with p in [1, inf]; ``weighted_p_norm``
    with positive weights w_i, ||x|| = (sum w_i |x_i|^p)^(1/p). The dual of a
    p-norm is the p'-norm with 1/p + 1/p' = 1; weighted norms fall back to
    sampled sphere maximization in :func:`dual_norm_sampled`.
    """

    kind: str = "euclidean"
    p: float | None = None
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("euclidean", "p_norm", "weighted_p_norm"):
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.kind in ("p_norm", "weighted_p_norm"):
            if self.p is None or not self.p >= 1:
                raise ValueError("p must be given and >= 1")
        if self.kind == "weighted_p_norm":
            if not self.weights or any(w <= 0 for w in self.weights):
                raise ValueError("weights must be positive")

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "euclidean":
            return np.linalg.norm(x, axis=-1)
        if self.kind == "p_norm":
            if np.isinf(self.p):
                return np.max(np.abs(x), axis=-1)
            return np.sum(np.abs(x) ** self.p, axis=-1) ** (1.0 / self.p)
        w = np.asarray(self.weights)
        return np.sum(w * np.abs(x) ** self.p, axis=-1) ** (1.0 / self.p)

    def grad(self, x) -> np.ndarray:
        """Gradient of the norm where it is differentiable (x != 0)."""
        x = np.asarray(x, dtype=float)
        r = self(x)
        safe = np.where(r > 0, r, 1.0)[..., None]
        if self.kind == "euclidean":
            return x / safe
        if self.kind == "p_norm" and not np.isinf(self.p) and self.p > 1:
            return np.sign(x) * np.abs(x) ** (self.p - 1) / safe ** (self.p - 1)
        if self.kind == "weighted_p_norm" and self.p > 1:
            w = np.asarray(self.weights)
            return w * np.sign(x) * np.abs(x) ** (self.p - 1) / safe ** (self.p - 1)
        raise ValueError(f"no differentiable gradient for {self.kind} with p={self.p}")

    def dual_exponent(self) -> float:
        p = 2.0 if self.kind == "euclidean" else float(self.p)
        if p == 1.0:
            return np.inf
        if np.isinf(p):
            return 1.0
        return p / (p - 1.0)


def norm_from_config(cfg: dict) -> NormSpec:
    kind = cfg.get("kind", "euclidean")
    if kind == "euclidean":
        return NormSpec("euclidean")
    if kind == "p_norm":
        return NormSpec("p_norm", p=float(cfg["p"]))
    if kind == "weighted_p_norm":
        return NormSpec("weighted_p_norm", p=float(cfg["p"]), weights=tuple(cfg["weights"]))
    raise ValueError(f"unknown norm kind {kind!r}")


def dual_norm(norm: NormSpec, y) -> float | np.ndarray:
    """The dual norm sup {x.y : ||x|| = 1}.

    Closed p'-norm for euclidean and p-norm kinds; sampled maximization with
    a reported gap for anything else (see :func:`dual_norm_sampled`).
    """
    y = np.asarray(y, dtype=float)
    if norm.kind in ("euclidean", "p_norm"):
        q = norm.dual_exponent()
        dual = NormSpec("p_norm", p=q) if norm.kind == "p_norm" or q != 2.0 else NormSpec("euclidean")
        val = dual(y)
        return float(val) if y.ndim == 1 else val
    val, _gap = dual_norm_sampled(norm, y)
    return val


def _sphere_directions(n: int, count: int) -> np.ndarray:
    """count deterministic unit vectors in R^n: uniform angles on the circle
    for n = 2, a golden-spiral (Fibonacci) sphere for n = 3."""
    if n == 2:
        th = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        return np.stack([np.cos(th), np.sin(th)], axis=-1)
    if n == 3:
        i = np.arange(count)
        golden = (1.0 + 5.0 ** 0.5) / 2.0
        z = 1.0 - 2.0 * (i + 0.5) / count
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        th = 2.0 * np.pi * i / golden
        return np.stack([r * np.cos(th), r * np.sin(th), z], axis=-1)
    raise ValueError("deterministic sphere directions support n in {2, 3}")


def dual_norm_sampled(norm: NormSpec, y):
    """Lower bound for the dual norm by sampling unit vectors, with a gap estimate.

    The 4096 directions are deterministic (uniform angles in 2D, a Fibonacci
    sphere in 3D); the gap estimate combines the change from halving the
    sample count with the angular mesh bound ||y||_2 * delta.
    """
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    ys = y[None, :] if single else y.reshape(-1, y.shape[-1])
    n = ys.shape[-1]
    dirs = _sphere_directions(n, 4096)
    delta = 2.0 * np.pi / 4096 if n == 2 else np.sqrt(4.0 * np.pi / 4096)
    units = dirs / norm(dirs)[:, None]
    vals = units @ ys.T
    best = vals.max(axis=0)
    half = vals[::2].max(axis=0)
    gap = np.abs(best - half) + np.linalg.norm(ys, axis=-1) * delta
    if single:
        return float(best[0]), float(gap[0])
    return best.reshape(y.shape[:-1]), gap.reshape(y.shape[:-1])


def _lower_hull(xs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Indices of the lower convex hull of the finite sample graph."""
    # Python floats do the same IEEE double arithmetic as numpy scalars, faster
    xs, vals = xs.tolist(), vals.tolist()
    hull: list[int] = []
    for i in range(len(xs)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            # keep b only if it lies strictly below chord a-i
            lhs = (vals[b] - vals[a]) * (xs[i] - xs[a])
            rhs = (vals[i] - vals[a]) * (xs[b] - xs[a])
            if lhs >= rhs:
                hull.pop()
            else:
                break
        hull.append(i)
    return np.asarray(hull, dtype=np.int64)


def legendre_1d(xs: np.ndarray, vals: np.ndarray, slopes: np.ndarray):
    """Discrete conjugate g(y) = max_i (x_i*y - f_i) by the hull walk.

    Returns (values, argmax indices). Matches the exhaustive scan exactly,
    including the smallest-index tie break: a binary search of the running
    maximum of the hull edge slopes finds the first edge steeper than each
    slope (the running maximum keeps this well defined when rounding makes
    the edge slopes non-monotone), and a float scan of the five hull vertices
    around it takes the winning value.
    """
    xs = np.asarray(xs, dtype=float)
    vals = np.asarray(vals, dtype=float)
    slopes = np.asarray(slopes, dtype=float)
    if np.any(np.diff(xs) <= 0):
        raise ValueError("sample abscissae must be strictly increasing")
    if not (vals > -INF).all():
        raise ValueError("samples must not contain NaN or -inf")
    if not np.isfinite(slopes).all():
        raise ValueError("slopes must be finite")
    finite = np.isfinite(vals)
    if not finite.any():
        raise ValueError("conjugate of an improper function (all samples +inf)")
    idx_map = np.flatnonzero(finite)
    xf = xs[finite]
    vf = vals[finite]
    hull = _lower_hull(xf, vf)
    edge = np.diff(vf[hull]) / np.diff(xf[hull])
    j = np.searchsorted(np.maximum.accumulate(edge), slopes, side="right")
    # hull positions j-2 .. j+2, clipped to the hull: a clipped slot repeats
    # a vertex of the window, so the first maximum lands on the same vertex
    window = hull[np.clip(j[:, None] + np.arange(-2, 3), 0, len(hull) - 1)]
    cand = xf[window] * slopes[:, None] - vf[window]
    rows = np.arange(len(slopes))
    b = np.argmax(cand, axis=1)
    return cand[rows, b], idx_map[window[rows, b]]


def default_dual_box(f: ExtGridFn):
    """Slope ranges from the finite differences of the primal samples, padded
    by a tenth of their span on each side.

    Slopes outside the sampled difference range are never attained by the
    discrete sup, so this box loses nothing.
    """
    box = []
    for d in range(f.dim):
        v = np.moveaxis(f.values, d, 0)
        step = f.spacing[d] if f.spacing[d] > 0 else 1.0
        # two adjacent +inf samples differ by NaN, which the filter drops
        with np.errstate(invalid="ignore"):
            diffs = np.diff(v, axis=0) / step
        diffs = diffs[np.isfinite(diffs)]
        if diffs.size == 0:
            lo, hi = -1.0, 1.0
        else:
            lo, hi = float(diffs.min()), float(diffs.max())
        span = max(hi - lo, 1e-12)
        box.append((lo - 0.1 * span, hi + 0.1 * span))
    return tuple(box)


@dataclass
class ConjugateResult:
    values: ExtGridFn
    dual_box: tuple


def legendre_nd(
    f: ExtGridFn,
    dual_box: Sequence[Sequence[float]] | None = None,
    dual_resolution: Sequence[int] | None = None,
) -> ConjugateResult:
    """Discrete conjugate over a tensor grid, one 1D sweep per axis.

    The sup separates across coordinates, so sweeping axes with the 1D
    transform reproduces the full double loop exactly. Intermediate lines that
    are empty (all +inf) propagate as excluded values through negation.
    """
    if not f.finite_mask.any():
        raise ValueError("conjugate of an improper function (all samples +inf)")
    if dual_box is None:
        dual_box = default_dual_box(f)
    if dual_resolution is None:
        dual_resolution = f.resolution
    if len(dual_box) != f.dim or len(dual_resolution) != f.dim:
        raise ValueError(f"dual_box and dual_resolution need {f.dim} entries")
    dual_axes = [np.linspace(lo, hi, m) for (lo, hi), m in zip(dual_box, dual_resolution)]

    work = f.values
    axes = f.axes
    ndim = f.dim
    for d in range(ndim):
        xs = axes[d]
        slopes = dual_axes[d]
        moved = np.moveaxis(work, d, -1)
        lead = moved.shape[:-1]
        flat = moved.reshape(-1, moved.shape[-1])
        out = np.empty((flat.shape[0], len(slopes)))
        for r in range(flat.shape[0]):
            line = flat[r]
            if not np.isfinite(line).any():
                out[r] = -INF
            else:
                out[r], _ = legendre_1d(xs, line, slopes)
        work = np.moveaxis(out.reshape(lead + (len(slopes),)), -1, d)
        if d < ndim - 1:
            work = -work  # feed the next sweep; -(-inf) = +inf excludes empty lines
    grid = ExtGridFn(dual_box, work)
    return ConjugateResult(values=grid, dual_box=tuple(tuple(b) for b in dual_box))


def power_cost_conjugate(C: float, q: float, norm: NormSpec, y) -> float | np.ndarray:
    """Conjugate of W(x) = C ||x||^q / q over all of R^n.

    Equals C^(1-p) ||y||_*^p / p with p the conjugate exponent of q. On a
    restricted domain the true conjugate can only be smaller.
    """
    if not q > 1:
        raise ValueError("q must exceed 1")
    if not C > 0:
        raise ValueError("C must be positive")
    p = q / (q - 1.0)
    ystar = dual_norm(norm, y)
    return C ** (1.0 - p) * ystar ** p / p
