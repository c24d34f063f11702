"""Discrete Legendre-Fenchel transforms, dual norms, and the power-cost conjugate.

Conjugates of sampled lines are computed by the convex-hull walk (LLT,
Lucet 1997): only lower-hull vertices of the sample graph can attain the sup,
and the attaining vertex is the one where the hull edge slopes cross the dual
slope. Every line of a sweep is one row of a 2-D array, and the monotone-chain
hull advances over the sample index for all rows at once. Each slope finds its
crossing by a search of the running maximum of the edge slopes, and a float
scan of the five hull vertices around it takes the maximum, so the output
agrees bit for bit with the exhaustive reference, smallest index winning ties.
:func:`legendre_nd` runs that sweep once per axis.

Conjugates are taken on bounded boxes. Restricting the sup to a box is the
same as adding the box's indicator to the function, which can only raise the
conjugate relative to unbounded closed forms; comparisons against such forms
must account for the box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .extgrid import INF, ExtGridFn, _euclidean_norm

# rows x max(samples, slopes) elements per block of the hull scan in
# _legendre_lines, which bounds the scan's temporary arrays to about 1 MB
_SCAN_BLOCK = 1 << 13

__all__ = [
    "NormSpec",
    "ConjugateResult",
    "legendre_nd",
    "default_dual_box",
    "dual_norm",
    "power_cost_conjugate",
]


@dataclass(frozen=True)
class NormSpec:
    """A norm on R^n with computable dual.

    kinds: ``euclidean``; ``p_norm`` with p in [1, inf]; ``weighted_p_norm``
    with p in [1, inf] and positive weights w_i, ||x|| = (sum w_i |x_i|^p)^(1/p).
    At p = inf both p-norm kinds are the limit max_i |x_i|, where the weights
    drop out. Both have closed duals in :func:`dual_norm`.
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
            return _euclidean_norm(x)
        if np.isinf(self.p):
            return np.max(np.abs(x), axis=-1)
        if self.kind == "p_norm":
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
        if self.kind == "weighted_p_norm" and 1 < self.p < np.inf:
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
    """The dual norm sup {x.y : ||x|| = 1}, in closed form.

    The p'-norm for euclidean and p-norm kinds, 1/p + 1/p' = 1. For weighted
    norms (sum_i w_i^(1-p') |y_i|^p')^(1/p'), which is max_i |y_i| / w_i at
    p = 1 and sum_i |y_i| at p = inf, summed axis by axis so that the bytes
    do not depend on the memory layout of y.
    """
    y = np.asarray(y, dtype=float)
    q = norm.dual_exponent()
    if norm.kind == "weighted_p_norm":
        w = norm.weights
        a = np.abs(y)
        if np.isinf(q):
            val = a[..., 0] / w[0]
            for k in range(1, y.shape[-1]):
                val = np.maximum(val, a[..., k] / w[k])
        else:
            s = w[0] ** (1.0 - q) * a[..., 0] ** q
            for k in range(1, y.shape[-1]):
                s = s + w[k] ** (1.0 - q) * a[..., k] ** q
            val = s ** (1.0 / q)
    else:
        dual = NormSpec("p_norm", p=q) if norm.kind == "p_norm" or q != 2.0 else NormSpec("euclidean")
        val = dual(y)
    return float(val) if y.ndim == 1 else val


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


def _legendre_lines(xs: np.ndarray, V: np.ndarray, slopes: np.ndarray):
    """Discrete conjugates max_i (x_i*y - V[r, i]) of every row r of V.

    Returns (values, argmax indices), each of shape (rows, slopes). +inf
    samples are excluded; a row with no finite sample gives -inf (argmax -1).
    The lower hull of each row is the monotone chain over the sample index,
    advanced for all rows at once: at sample i every row where it is finite
    pops its top vertex while that vertex does not lie strictly below the
    chord to i. A running maximum of the hull edge slopes then locates each
    slope's crossing (the running maximum keeps this well defined when
    rounding makes the edge slopes non-monotone), and a float scan of the five
    hull vertices around it takes the first maximum, so ties go to the
    smallest index. Rejects NaN and -inf samples and non-finite slopes.
    """
    if not (V > -INF).all():
        raise ValueError("samples must not contain NaN or -inf")
    if not np.isfinite(slopes).all():
        raise ValueError("slopes must be finite")
    rows, m = V.shape
    # sample-major, so each step of the walk reads contiguous columns; in a
    # 2-D sweep V.T is already contiguous and this makes no copy
    S = np.ascontiguousarray(V.T)
    finite = np.isfinite(S)
    sflat = S.ravel()
    hull = np.zeros((m, rows), dtype=np.intp)  # hull[p, r]: vertex p of row r
    hflat = hull.ravel()
    top = np.zeros(rows, dtype=np.intp)
    for i in range(m):
        live = np.flatnonzero(finite[i])
        r = live[top[live] >= 2]
        while r.size:
            a = hflat[(top[r] - 2) * rows + r]
            b = hflat[(top[r] - 1) * rows + r]
            va = sflat[a * rows + r]
            # keep b only if it lies strictly below chord a-i
            pop = (sflat[b * rows + r] - va) * (xs[i] - xs[a]) >= (S[i, r] - va) * (xs[b] - xs[a])
            r = r[pop]
            top[r] -= 1
            r = r[top[r] >= 2]
        hflat[top[live] * rows + live] = i
        top[live] += 1

    values = np.empty((rows, len(slopes)))
    argmax = np.empty((rows, len(slopes)), dtype=np.intp)
    step = max(1, _SCAN_BLOCK // max(m, len(slopes), 1))
    for lo in range(0, rows, step):
        r = np.arange(lo, min(lo + step, rows))
        values[r], argmax[r] = _scan_hulls(xs, S, slopes, hull[:, r], top[r], r)
    return values, argmax


def _scan_hulls(xs, S, slopes, hull, top, r):
    """Values and argmaxes of the rows r of the sample-major lines S, whose
    hulls are the columns of hull with top vertices each: the first maximum
    of x_i*y - S[i, r] over the five hull vertices around the crossing of
    each slope y (see :func:`_legendre_lines`)."""
    m, rows = S.shape
    sflat = S.ravel()
    # edge slopes of each hull; the slots past a row's last edge read +inf
    with np.errstate(invalid="ignore", divide="ignore"):
        edge = np.diff(sflat[hull * rows + r], axis=0) / np.diff(xs[hull], axis=0)
    edge[np.arange(m - 1)[:, None] >= top - 1] = INF
    # j = the number of running-maximum edge slopes <= each slope: the count
    # of edges whose running maximum sorts at or before it among the slopes
    n, k = len(r), len(slopes)
    order = np.argsort(slopes)
    first = np.searchsorted(slopes[order], np.maximum.accumulate(edge, axis=0), side="left")
    first += np.arange(0, n * (k + 1), k + 1)
    counts = np.bincount(first.ravel(), minlength=n * (k + 1)).reshape(n, k + 1)
    j = np.empty((n, k), dtype=np.intp)
    j[:, order] = np.cumsum(counts, axis=1)[:, :k]
    # hull positions j-2 .. j+2, clipped to the hull: a clipped slot repeats
    # a vertex of the window, so the first maximum lands on the same vertex
    last = np.maximum(top - 1, 0)[:, None]
    hflat = hull.ravel()
    col = np.arange(n)[:, None]
    for offset in range(-2, 3):
        w = hflat[np.clip(j + offset, 0, last) * n + col]
        cand = xs[w] * slopes - sflat[w * rows + r[:, None]]
        if offset == -2:
            values, argmax = cand, w
        else:
            better = cand > values
            np.copyto(values, cand, where=better)
            np.copyto(argmax, w, where=better)
    values[top == 0] = -INF
    argmax[top == 0] = -1
    return values, argmax


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

    @property
    def dual_box(self) -> tuple:
        return self.values.box


def legendre_nd(
    f: ExtGridFn,
    dual_box: Sequence[Sequence[float]] | None = None,
    dual_resolution: Sequence[int] | None = None,
) -> ConjugateResult:
    """Discrete conjugate over a tensor grid, one batched sweep per axis.

    The sup separates across coordinates, so sweeping axes with the line
    transform reproduces the full double loop exactly. Each sweep transforms
    every line along its axis in one batched hull walk
    (:func:`_legendre_lines`). Intermediate lines that are empty (all +inf)
    give -inf and propagate as excluded values through negation.
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
    for d in range(f.dim):
        slopes = dual_axes[d]
        moved = np.moveaxis(work, d, -1)
        lines = _legendre_lines(f.axes[d], moved.reshape(-1, moved.shape[-1]), slopes)[0]
        work = np.moveaxis(lines.reshape(moved.shape[:-1] + (len(slopes),)), -1, d)
        del lines  # the negation below then frees this sweep's output
        if d < f.dim - 1:
            work = -work  # feed the next sweep; -(-inf) = +inf excludes empty lines
    return ConjugateResult(ExtGridFn(dual_box, work))


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
