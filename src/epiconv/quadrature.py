"""Trapezoid quadrature over epigraph domains and grid functions.

Volume integrals over unbounded epigraphs and boundary integrals over R^dim
share one dyadic graded sweep: a core box around the origin plus doubling
shells, each shell decomposed into axis slabs and integrated by trapezoid at
a spacing that grows with the shell, one column along the last axis at a
time. On an epigraph the columns start exactly at the domain boundary
phi(x1) + shift, so the boundary cut costs O(dx^2) rather than O(dx); a
boundary integral has no cut, and each column starts at its first node.
The columns of a slab share one row of last-axis nodes, which starts at
the lowest column start rather than at the slab's bottom edge (and keeps at
least the top two nodes), so a slab high above the boundary holds no rows
of unused nodes.

Beyond the outer box the integrand is bounded by K * ||x||^(-alpha) with K
fitted on the outermost samples; the reported tail term is the resulting
closed-form bound over the complement of the inscribed ball. Integrals whose
callers supply no decay exponent report a tail of 0 and are on their own for
truncation.

An integrand takes an (m, n) array of points (n = dim on a boundary) and
returns their m values, and a point's value must not depend on the other
points of the call. Both the integrand batches, which bound the points of
one call, and the refinement estimate, whose coarse run reads the values the
fine run computed at the nodes the two grids share, rely on that. The points
are stored coordinate-major: the (m, n) array is a view with contiguous
coordinate planes ``p[:, d]``. An integrand must not write to it, must give
the same bytes whatever its memory layout, and copies it itself if it needs
C order.

Both integrators also take stacked integrands: given a length-k sequence of
decay exponents, the integrand returns a (k, m) array whose rows are k
integrands over one domain (or one dim), spec and shift. Every row sees the
same coordinate-major point batch, so the columns, point batches, node maps
and masks of the sweep are built once for all k, and each row's result
equals the one-row sweep of that integrand byte for byte.

A column block holds at most ``_BLOCK_NODES // k`` points, counting each
column's row of nodes and its partial cell's lower limit (``_BLOCK_NODES``
values over its k rows), and an integrand call at most ``_EVAL_NODES``
points, so a block's working set stays small and alike from block to block:
the allocator reuses what one block frees instead of page-faulting it in
again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .extgrid import EpigraphDomain, ExtGridFn, _euclidean_norm

__all__ = [
    "QuadSpec",
    "integrate_epigraph",
    "integrate_boundary",
    "integrate_gridfn",
    "sphere_area",
    "power_tail_bound",
]


@dataclass(frozen=True)
class QuadSpec:
    """Graded-box quadrature parameters.

    half_width: core box half width (the core is [-L, L]^n).
    dx: node spacing on the core; shell k uses dx * 2^k.
    levels: number of doubling shells beyond the core.
    """

    half_width: float
    dx: float
    levels: int = 0

    def __post_init__(self):
        if not (self.half_width > 0 and self.dx > 0):
            raise ValueError("half_width and dx must be positive")
        if self.levels < 0:
            raise ValueError("levels must be >= 0")

    @property
    def outer_radius(self) -> float:
        return self.half_width * 2.0 ** self.levels

    def refined(self, extend: bool = True) -> "QuadSpec":
        """Half the spacing; optionally one more shell."""
        return replace(self, dx=self.dx / 2.0, levels=self.levels + (1 if extend else 0))


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def power_tail_bound(K: float, alpha: float, R: float, n: int) -> float:
    """Bound for the integral of K*||x||^-alpha over ||x|| > R in R^n."""
    if alpha <= n:
        return math.inf
    return K * sphere_area(n) * R ** (n - alpha) / (alpha - n)


# most points of one column block, each column's row of nodes and its
# partial cell's lower limit, and most points of one integrand call. The
# rows start at the lowest column start, so most of a block's points are
# evaluated and its point buffer is about as large as its values: at 2**17
# the peak RSS of the trace_chain benchmark rose 7%, at 3 * 2**15 it does
# not rise (BENCH_29_trimmed_rows.json)
_BLOCK_NODES = 3 * 2**15
_EVAL_NODES = 2**13


def _trap_weights(m: int) -> np.ndarray:
    w = np.ones(m)
    if m > 1:
        w[0] = w[-1] = 0.5
    return w


def _shell_boxes(spec: QuadSpec, n: int):
    """Disjoint slabs covering [-R_k, R_k]^n minus the previous box, per level.

    Yields (level, box) with box a list of (lo, hi) per axis. Level 0 is the
    core box itself.
    """
    L = spec.half_width
    yield 0, [(-L, L)] * n
    for k in range(1, spec.levels + 1):
        inner = L * 2.0 ** (k - 1)
        outer = L * 2.0 ** k
        # slab decomposition: axis d carries |x_d| in (inner, outer],
        # axes before d stay within inner, axes after d within outer
        for d in range(n):
            for sign in (-1, 1):
                box = []
                for j in range(n):
                    if j < d:
                        box.append((-inner, inner))
                    elif j == d:
                        box.append((inner, outer) if sign > 0 else (-outer, -inner))
                    else:
                        box.append((-outer, outer))
                yield k, box


def _axis_nodes(lo: float, hi: float, dx: float):
    m = max(2, int(round((hi - lo) / dx)) + 1)
    return np.linspace(lo, hi, m)


def _node_map(coarse: np.ndarray, fine: np.ndarray) -> np.ndarray:
    """Index of the bit-equal node of ascending ``fine`` for each coarse
    node, or -1 where there is none."""
    k = np.minimum(np.searchsorted(fine, coarse), len(fine) - 1)
    return np.where(fine[k].view(np.uint64) == coarse.view(np.uint64), k, -1)


def _mesh_points(axes) -> np.ndarray:
    """The tensor nodes of ``axes`` in row-major order, one per row, stored
    coordinate-major."""
    if not axes:
        return np.zeros((1, 0))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh]).T


def _tensor_weights(axes) -> np.ndarray:
    """Tensor trapezoid weights of the nodes of ``axes``, row-major."""
    w = np.ones(1)
    for ax in axes:
        w = np.multiply.outer(w, _trap_weights(len(ax)) * (ax[1] - ax[0]))
    return w.ravel()


def _fit_tail_K(r: np.ndarray, samples_f: np.ndarray, alpha: float) -> float:
    """sup |f| * r^alpha over the samples at radii ``r`` > 0 with finite f."""
    ok = (r > 0) & np.isfinite(samples_f)
    if not ok.any():
        return 0.0
    return float(np.max(np.abs(samples_f[ok]) * r[ok] ** alpha))


def _values(fn, pts: np.ndarray, out: np.ndarray, decay, fit: int):
    """Write fn at the points ``pts`` into ``out``, a (k, points) array with
    one row per integrand, from calls of at most _EVAL_NODES points each.
    Returns each row's tail constant, fitted to the first ``fit`` points
    when ``decay`` gives the row an exponent and 0 otherwise."""
    tail_K = [0.0] * len(out)
    for i in range(0, len(pts), _EVAL_NODES):
        batch = pts[i : i + _EVAL_NODES]
        v = np.asarray(fn(batch), dtype=float)
        if v.shape[-1:] != (len(batch),):
            raise ValueError(f"integrand returned shape {v.shape} for {len(batch)} points")
        out[:, i : i + len(batch)] = v = v.reshape(len(out), len(batch))
        if decay is not None and i < fit:
            r = _euclidean_norm(batch[: fit - i])
            K = [0.0 if a is None else _fit_tail_K(r, f[: fit - i], a) for f, a in zip(v, decay)]
            tail_K = [max(t, Ki) for t, Ki in zip(tail_K, K)]
    return tail_K


class _Columns(NamedTuple):
    """The columns of one shell box at one spacing that meet the domain."""

    axes: list  # x1 nodes per axis
    x2: np.ndarray  # last-axis nodes from the lowest column start up
    idx: np.ndarray  # flat x1-mesh index of each column
    x1: np.ndarray  # (columns, n - 1) base points
    w1: np.ndarray  # trapezoid weight of each base point
    lo: np.ndarray  # exact lower limit of each column
    j0: np.ndarray  # first node of the column's trapezoid, in x2
    gap: np.ndarray  # distance from the lower limit to that node
    part: np.ndarray  # whether the partial cell below j0 counts


def _columns(domain: EpigraphDomain | None, box, dxk: float, shift: float) -> _Columns:
    """The columns of ``box`` above the shifted epigraph of ``domain``, each
    from the first node strictly above its lower limit plus the partial cell
    below; with no domain, every column from its first node x2[0] = c2.

    ``x2`` keeps the box's last-axis nodes from the lowest column start up,
    and at least the top two, so ``j0`` is 0 for some column unless only two
    nodes are left."""
    x1_axes = [_axis_nodes(lo, hi, dxk) for lo, hi in box[:-1]]
    c2, d2 = box[-1]
    x2 = _axis_nodes(c2, d2, dxk)
    x1_pts = _mesh_points(x1_axes)
    cut = domain is not None
    lo_eff = np.maximum(domain.phi(x1_pts) + shift, c2) if cut else np.full(len(x1_pts), c2)
    idx = np.flatnonzero(lo_eff < d2 - 1e-15 * max(1.0, abs(d2)))
    lo_a = lo_eff[idx]
    j0 = np.minimum(np.searchsorted(x2, lo_a, side="right" if cut else "left"), len(x2) - 1)
    gap = x2[j0] - lo_a
    part = gap > 1e-14 * max(1.0, abs(d2))
    low = min(j0.min(initial=len(x2)), len(x2) - 2)
    w1 = _tensor_weights(x1_axes)[idx]
    return _Columns(x1_axes, x2[low:], idx, x1_pts[idx], w1, lo_a, j0 - low, gap, part)


def _column_map(coarse: _Columns, fine: _Columns) -> np.ndarray:
    """Position among the fine columns of each coarse column's bit-equal
    base point, or -1 where there is none."""
    flat = coarse.idx
    ok = np.ones(len(flat), dtype=bool)
    if coarse.axes:
        sub = np.unravel_index(flat, [len(ax) for ax in coarse.axes])
        fsub = [_node_map(c, f)[s] for c, f, s in zip(coarse.axes, fine.axes, sub)]
        ok = np.logical_and.reduce([s >= 0 for s in fsub])
        flat = np.ravel_multi_index(
            [np.maximum(s, 0) for s in fsub], [len(ax) for ax in fine.axes]
        )
    if not len(fine.idx):
        return np.full(len(flat), -1)
    pos = np.minimum(np.searchsorted(fine.idx, flat), len(fine.idx) - 1)
    return np.where(ok & (fine.idx[pos] == flat), pos, -1)


def _column_sums(fn, k: int, cols: _Columns, sel, known=None, decay=None, share=None):
    """Trapezoid sums of the columns ``sel`` from the exact lower limit up,
    for the k integrands that are the rows of ``fn``'s values.

    Each column's sum is one full-row sum, so it does not depend on which
    other columns or integrands share the call. ``known`` = (values, mask,
    boundary values, boundary mask) supplies node values a finer sweep
    already has; ``fn`` evaluates the rest. ``share`` = (columns, nodes)
    picks the node values a coarser sweep reads. Returns (sums, shared node
    values, boundary values, tail constants), each with one row per
    integrand; a row's tail constant is fitted to the evaluated grid nodes
    when ``decay``, a list of k exponents, gives it one and is 0 otherwise.
    """
    jb = cols.j0[sel]
    x1b = cols.x1[sel]
    x2 = cols.x2
    m2 = len(x2)
    dx2 = x2[1] - x2[0]
    rows = np.arange(len(jb))
    need = np.arange(m2)[None, :] >= jb[:, None]
    vals = np.zeros((k, len(jb), m2))
    fb = np.zeros((k, len(jb)))
    part = cols.part[sel]
    bneed = part
    # masked copies go row by row: numpy's boolean indexing behind a leading
    # slice is an order of magnitude slower
    if known is not None:
        kvals, kmask, kfb, kpart = known
        kmask = kmask & need
        for v, kv in zip(vals, kvals):
            v[kmask] = kv[kmask]
        need &= ~kmask
        fb[:, kpart] = kfb[:, kpart]
        bneed = part & ~kpart
    # one buffer holds the needed nodes in row-major order, then the partial
    # cells' lower limits that need a value, and below them all their values
    pb = np.flatnonzero(bneed)
    m, n = np.count_nonzero(need), x1b.shape[1] + 1
    buf = np.empty((n + k, m + pb.size))
    pts, fv = buf[:n].T, buf[n:]
    for d in range(n - 1):
        pts[:m, d] = np.broadcast_to(x1b[:, d, None], need.shape)[need]
    pts[:m, -1] = np.broadcast_to(x2, need.shape)[need]
    pts[m:, :-1] = x1b[pb]
    pts[m:, -1] = cols.lo[sel][pb]
    tail_K = _values(fn, pts, fv, decay, m)
    for v, f in zip(vals, fv):
        v[need] = f[:m]
    fb[:, pb] = fv[:, m:]
    del buf, pts, fv  # from here on the block holds its node values alone
    shared = None if share is None else vals[:, share[0]][:, :, share[1]]
    # regular trapezoid over [x2[j0], d2], weighted in place: weights dx2,
    # halved at both ends (a one-node column weighs 0), one full-row sum each
    first, last = vals[:, rows, jb], vals[:, :, -1].copy()
    vals *= dx2
    vals[:, rows, jb] = (0.5 * dx2) * first
    vals[:, :, -1] = np.where(jb == m2 - 1, 0.0, 0.5 * dx2) * last
    sums = np.sum(vals, axis=2)

    # partial cell from the exact boundary up to the first gridline
    pb = np.flatnonzero(part)
    sums[:, pb] += 0.5 * cols.gap[sel][pb] * (fb[:, pb] + first[:, pb])
    return sums, shared, fb, tail_K


def _sweep(fn, domain: EpigraphDomain | None, n: int, spec: QuadSpec, shift, decay, estimate):
    """The graded sweep of both integrators over R^n, cut below by the
    shifted epigraph of ``domain`` unless it is None."""
    stacked = isinstance(decay, (list, tuple))
    decays = list(decay) if stacked else [decay]
    k = len(decays)
    fine = spec.refined(extend=False) if estimate else spec
    total = np.zeros(k)
    coarse_total = np.zeros(k)
    tail_K = [0.0] * k
    for level, box in _shell_boxes(spec, n):
        F = _columns(domain, box, fine.dx * 2.0**level, shift)
        if estimate:
            C = _columns(domain, box, spec.dx * 2.0**level, shift)
            cpos = _column_map(C, F)
            xmap = _node_map(C.x2, F.x2)
            csum = np.empty((k, len(C.idx)))
        else:
            cpos = np.zeros(0, dtype=np.intp)  # no coarse columns to serve

        # columns in blocks of at most _BLOCK_NODES // k points, each column
        # its row of grid nodes and its partial cell's lower limit, so the
        # working set stays bounded on fine shells; the shell total is one
        # sum over all columns, whatever the blocking
        per_block = max(1, _BLOCK_NODES // k // (len(F.x2) + 1))
        fsum = np.empty((k, len(F.idx)))
        fit = level == spec.levels and any(a is not None for a in decays)
        for c0 in range(0, len(F.idx), per_block):
            sel = slice(c0, c0 + per_block)
            # the coarse columns based on this block's, read off its values
            mine = np.flatnonzero((cpos >= c0) & (cpos < c0 + per_block))
            fr = cpos[mine] - c0
            fsum[:, sel], kvals, fb, K = _column_sums(
                fn, k, F, sel, decay=decays if fit else None,
                share=(fr, np.maximum(xmap, 0)) if mine.size else None,
            )
            tail_K = [max(t, Ki) for t, Ki in zip(tail_K, K)]
            if mine.size:
                csum[:, mine] = _column_sums(fn, k, C, mine, known=(
                    kvals,
                    xmap[None, :] >= F.j0[c0 + fr][:, None],
                    fb[:, fr],
                    F.part[c0 + fr] & (F.lo[c0 + fr] == C.lo[mine]),
                ))[0]
            # the next block's sweep need not hold this one's values
            del kvals, fb

        total += np.sum(F.w1 * fsum, axis=1)
        if not estimate or not len(C.idx):
            continue
        # coarse columns whose base point the fine grid lacks
        rest = np.flatnonzero(cpos < 0)
        per_block = max(1, _BLOCK_NODES // k // (len(C.x2) + 1))
        for c0 in range(0, len(rest), per_block):
            sel = rest[c0 : c0 + per_block]
            csum[:, sel] = _column_sums(fn, k, C, sel)[0]
        coarse_total += np.sum(C.w1 * csum, axis=1)

    out = []
    for t, c, K, a in zip(total.tolist(), coarse_total.tolist(), tail_K, decays):
        tail = power_tail_bound(K, a, spec.outer_radius, n) if a is not None else 0.0
        out.append((t, abs(t - c) + tail, tail) if estimate else (t, tail))
    return out if stacked else out[0]


def integrate_epigraph(
    fn: Callable[[np.ndarray], np.ndarray],
    domain: EpigraphDomain,
    spec: QuadSpec,
    shift: float = 0.0,
    decay: float | Sequence[float | None] | None = None,
    estimate: bool = False,
):
    """Integral of fn over the shifted epigraph {x2 >= phi(x1) + shift}.

    Returns (value, tail_bound); with estimate=True the value comes from a run
    at half spacing and the returned triple is (value, error_estimate,
    tail_bound), the error estimate being the coarse/fine difference plus the
    tail bound. Both runs share one sweep: the coarse sums read the fine
    values at the nodes the two grids share, and ``fn`` sees only the coarse
    nodes that no fine node matches bit for bit.

    Stacked form: with ``decay`` a length-k sequence (each entry an exponent
    or None), fn returns a (k, m) array whose rows are k integrands, and the
    result is the list of their k results. Every row sees the same
    coordinate-major point batch, the sweep lays out its columns, node maps
    and tail-fit radii once, and each row's result equals the one-row sweep
    of that integrand byte for byte. A column block holds at most
    ``_BLOCK_NODES // k`` points, each column's nodes from the box's lowest
    column start up and its partial cell's lower limit, or one column where
    that is longer, and no call of fn sees more than ``_EVAL_NODES`` points
    (module docstring).
    """
    return _sweep(fn, domain, domain.n, spec, shift, decay, estimate)


def integrate_boundary(
    fn: Callable[[np.ndarray], np.ndarray],
    dim: int,
    spec: QuadSpec,
    decay: float | Sequence[float | None] | None = None,
    estimate: bool = False,
):
    """Integral of fn over R^dim by the same graded sweep, with no domain cut.

    Used for boundary terms parameterized by x1: fn takes an (m, dim)
    coordinate-major array of points and returns their m values. Every column
    along the last axis starts at its first node, with no partial cell. The
    results, the one-sweep estimate and the stacked form (a list ``decay``)
    are those of :func:`integrate_epigraph`.
    """
    return _sweep(fn, None, dim, spec, 0.0, decay, estimate)


def integrate_gridfn(f: ExtGridFn, transform: Callable | None = None) -> float:
    """Tensor trapezoid of a grid function, +inf nodes contributing zero.

    ``transform`` maps the value array before summation (e.g. a power); it
    must send +inf to a finite number or the node is dropped.
    """
    vals = f.values if transform is None else transform(f.values)
    vals = np.where(np.isfinite(vals), vals, 0.0)
    w = np.ones(())
    for d in range(f.dim):
        step = f.spacing[d] if f.spacing[d] > 0 else 1.0
        wd = _trap_weights(f.resolution[d]) * step
        w = np.multiply.outer(w, wd) if d else wd
    return float(np.sum(w * vals))
