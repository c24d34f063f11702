"""Infimal convolution and the Hopf-Lax operator on grids, on one kernel.

``hopflax_apply`` evaluates Q_h(g)(x) = min_y g(x - h*y) + h*W(y) with y
running over the cost grid and g evaluated by multilinear interpolation at the
off-grid points x - h*y. Interpolation is conservative: a cell with a +inf
corner evaluates to +inf, so the discrete operator stays an upper bound of the
continuum one and inequality directions are preserved. h = 0 returns g
(interpolated onto a requested output grid) rather than dividing by h.

The output grid shares g's spacing (any other is rejected), so the points
x - h*y of one cost node y all sit at the same fractional offset from g's
lattice. The candidate kernel interpolates g once per offset over g's own
lattice, and then each y costs one slice of that lattice plus h*W(y), taken
over the output nodes y can reach. The exact path runs the kernel over every
finite y. Above _TWOSTAGE_MIN_CANDIDATES (output, cost) node pairs, a g and W
that both pass the convexity certificate take the twostage path instead: the
kernel over a strided subset of y, then a local refinement around each output
node's strided argmin. The refinement runs over the output nodes in chunks of
_CHUNK_CANDIDATES candidates, so its memory stays a few MB at any grid size.

``infconv`` is Q_1 with the cost on g's own lattice: the exact min-plus
convolution of two grid functions with shared spacing. It runs the same kernel
with every offset zero, so no interpolation is involved; each finite output
node records an attaining argmin, the smallest flat index among ties.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .extgrid import _SNAP, INF, EpigraphDomain, ExtGridFn, _unit_e

__all__ = [
    "InfConvResult",
    "infconv",
    "hopflax_apply",
    "hopflax_pointwise",
    "semigroup_residual",
    "hj_difference_quotient",
    "is_grid_convex",
]

# output x cost node pairs above which a certified-convex problem takes the
# twostage path
_TWOSTAGE_MIN_CANDIDATES = 4e8
# stage-1 stride of the twostage path, in cost-grid nodes per axis
_COARSE_STRIDE = 4
# (output node, cost node) candidates per stage-2 chunk of the twostage path;
# it bounds the chunk's arrays to a few MB
_CHUNK_CANDIDATES = 2**17
# most interpolated lattices of g the candidate kernel keeps at once (16 are
# 1.7 MB for a 161 x 81 g)
_LATTICE_CACHE = 16


@dataclass
class InfConvResult:
    values: ExtGridFn
    argmin: np.ndarray  # flat index into the y-grid, -1 where the value is +inf

    @property
    def empty(self) -> bool:
        """True when no output node is finite."""
        return not self.values.finite_mask.any()


def _same_step(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def _check_same_spacing(f: ExtGridFn, g: ExtGridFn):
    if f.dim != g.dim:
        raise ValueError("operands must share dimension")
    for d, (a, b) in enumerate(zip(f.spacing, g.spacing)):
        if not _same_step(a, b):
            raise ValueError(f"axis {d}: grid spacings differ ({a} vs {b})")


def is_grid_convex(f: ExtGridFn) -> bool:
    """Certificate that gates the twostage Hopf-Lax path.

    Along each axis the finite nodes of every line must be contiguous and the
    second differences nonnegative (up to 1e-12 times the value scale).
    """
    finite = f.finite_mask
    scale = 1.0
    finite_vals = f.values[finite]
    if finite_vals.size:
        scale = max(1.0, float(np.abs(finite_vals).max()))
    for d in range(f.dim):
        fin = np.moveaxis(finite, d, -1)
        v = np.where(fin, np.moveaxis(f.values, d, -1), 0.0)
        # a +inf node with finite nodes on both sides breaks its line
        before = np.logical_or.accumulate(fin, axis=-1)
        after = np.logical_or.accumulate(fin[..., ::-1], axis=-1)[..., ::-1]
        if np.any(~fin & before & after):
            return False
        triple = fin[..., :-2] & fin[..., 1:-1] & fin[..., 2:]
        if np.any(triple & (v[..., :-2] - 2.0 * v[..., 1:-1] + v[..., 2:] < -1e-12 * scale)):
            return False
    return True


def infconv(f: ExtGridFn, g: ExtGridFn) -> InfConvResult:
    """Discrete (f box g)(x) = min_y f(y) + g(x - y) on the index-sum grid.

    The output box is the Minkowski sum of the operand boxes at the shared
    spacing.
    """
    _check_same_spacing(f, g)
    box = tuple(
        (flo + glo, fhi + ghi) for (flo, fhi), (glo, ghi) in zip(f.box, g.box)
    )
    # f's node j reaches output nodes j .. j + m_g - 1 with all of g, at no
    # fractional offset
    tables = [
        [(slice(j, j + m), slice(0, m), 0.0) for j in range(mf)]
        for mf, m in zip(f.resolution, g.resolution)
    ]
    shape = tuple(a + b - 1 for a, b in zip(f.resolution, g.resolution))
    vals, arg = _scan_candidates(g, f.values.ravel(), tables, shape, f.domain_indices)
    return InfConvResult(ExtGridFn(box, vals), arg)


def _axis_tables(g: ExtGridFn, W: ExtGridFn, h: float, out_axes):
    """Per axis d and cost index y_d: None when no output node x has x - h*y
    inside g's box along d, else (output slice, lattice slice, fraction).

    Output node k on axis d reads g at index lattice point base + k + frac,
    for the k with 0 <= k + base (+ 1 when frac > 0) <= mg - 1. Offsets
    within _SNAP of a gridline collapse to the single node, exactly as in
    :meth:`ExtGridFn.interpolate`.
    """
    tables = []
    for d in range(g.dim):
        step = g.spacing[d] if g.spacing[d] > 0 else 1.0
        off = (out_axes[d][0] - h * W.axes[d] - g.box[d][0]) / step
        base = np.floor(off + _SNAP)
        frac = off - base
        low = frac < _SNAP
        high = ~low & (frac > 1.0 - _SNAP)
        base[high] += 1
        frac[low | high] = 0.0
        base = base.astype(np.int64)
        k_lo = np.maximum(0, -base)
        k_hi = np.minimum(len(out_axes[d]) - 1, g.resolution[d] - 1 - base - (frac > 0.0))
        tables.append([
            None if lo > hi else (slice(lo, hi + 1), slice(b + lo, b + hi + 1), fr)
            for b, fr, lo, hi in zip(base.tolist(), frac.tolist(), k_lo.tolist(), k_hi.tolist())
        ])
    return tables


def _interp_lattice(g0: np.ndarray, cell_inf: np.ndarray | None, fracs) -> np.ndarray:
    """g interpolated at i + fracs for every index i whose cell lies in g.

    g0 is g with its non-finite nodes zeroed; cell_inf (from
    :func:`_cell_inf`) marks the cells with a non-finite corner, which come
    back +inf. Corners are summed in a fixed order, so every lattice value is
    one fixed float expression. Each fraction lies in (_SNAP, 1 - _SNAP), so
    every corner weight is positive and no corner is ever dropped.
    """
    corners = [(0, 1) if fr > 0.0 else (0,) for fr in fracs]
    shape = tuple(m - len(c) + 1 for m, c in zip(g0.shape, corners))
    acc = np.zeros(shape)
    for corner in itertools.product(*corners):
        w = 1.0
        for fr, c, options in zip(fracs, corner, corners):
            if len(options) == 2:
                w *= fr if c else 1.0 - fr
        acc += g0[tuple(slice(c, c + m) for c, m in zip(corner, shape))] * w
    if cell_inf is not None:
        acc[cell_inf] = INF
    return acc


def _cell_inf(ginf: np.ndarray, tops) -> np.ndarray | None:
    """Cells spanning tops[d] + 1 nodes per axis that have a marked corner,
    or None when there is none."""
    shape = tuple(m - t for m, t in zip(ginf.shape, tops))
    out = np.zeros(shape, dtype=bool)
    for corner in itertools.product(*[range(t + 1) for t in tops]):
        out |= ginf[tuple(slice(c, c + m) for c, m in zip(corner, shape))]
    return out if out.any() else None


def _scan_candidates(g: ExtGridFn, weights: np.ndarray, tables, shape, y_idx: np.ndarray):
    """min over the cost nodes y_idx of g at y's offset plus weights[y].

    weights is the cost flattened (h*W for Hopf-Lax, f for infconv), and
    tables[d][y_d] is None (y reaches no output node along axis d) or
    (output slice, lattice slice, fraction), as :func:`_axis_tables` builds
    them. For each y the candidates are one slice of the lattice of g
    interpolated at y's fractional offset, plus weights[y], over the output
    nodes its entries name (all others are +inf and never win). While the
    leading indices of y stay fixed, the last _LATTICE_CACHE lattices built
    are kept by fraction. y_idx must be in ascending flat order: a later y
    replaces the incumbent only when strictly smaller, so ties go to the
    smallest flat index. Returns (values, argmin) of the given shape, +inf
    and -1 where no y has a finite candidate.
    """
    vals = np.full(shape, INF)
    arg = np.full(shape, -1, dtype=np.int64)
    if y_idx.shape[0] == 0:
        return vals, arg
    *lead_tables, last_table = tables
    ginf = ~np.isfinite(g.values)
    g0 = np.where(ginf, 0.0, g.values)
    cell_inf = {}
    flat = np.ravel_multi_index(tuple(y_idx.T), tuple(len(t) for t in tables))
    leads = y_idx[:, :-1]
    starts = np.flatnonzero(np.any(leads[1:] != leads[:-1], axis=1)) + 1
    for start, stop in zip([0] + starts.tolist(), starts.tolist() + [len(y_idx)]):
        lead = [table[i] for table, i in zip(lead_tables, leads[start].tolist())]
        if None in lead:
            continue
        lead_region = tuple(e[0] for e in lead)
        lead_src = tuple(e[1] for e in lead)
        lead_fracs = tuple(e[2] for e in lead)
        lattices = {}
        for i, jflat in zip(y_idx[start:stop, -1].tolist(), flat[start:stop].tolist()):
            entry = last_table[i]
            if entry is None:
                continue
            region, src, fr = entry
            lattice = lattices.get(fr)
            if lattice is None:
                fracs = lead_fracs + (fr,)
                tops = tuple(int(f > 0.0) for f in fracs)
                if tops not in cell_inf:
                    cell_inf[tops] = _cell_inf(ginf, tops)
                if len(lattices) == _LATTICE_CACHE:
                    del lattices[next(iter(lattices))]
                lattice = lattices[fr] = _interp_lattice(g0, cell_inf[tops], fracs)
            cand = lattice[lead_src + (src,)] + weights[jflat]
            out = lead_region + (region,)
            incumbent = vals[out]
            better = cand < incumbent
            np.copyto(incumbent, cand, where=better)
            arg[out][better] = jflat
    return vals, arg


def _default_out_grid(g: ExtGridFn, W: ExtGridFn, h: float):
    axes = []
    box = []
    for d in range(g.dim):
        lo = g.box[d][0] + h * W.box[d][0]
        hi = g.box[d][1] + h * W.box[d][1]
        step = g.spacing[d] if g.spacing[d] > 0 else 1.0
        m = int(round((hi - lo) / step)) + 1
        hi = lo + (m - 1) * step
        box.append((lo, hi))
        axes.append(np.linspace(lo, hi, m))
    return tuple(box), axes


def hopflax_apply(
    g: ExtGridFn,
    W: ExtGridFn,
    h: float,
    out_box: Sequence[Sequence[float]] | None = None,
    out_resolution: Sequence[int] | None = None,
) -> InfConvResult:
    """Q_h(g)(x) = min over cost-grid nodes y of g(x - h*y) + h*W(y).

    The output grid defaults to g's box plus h times W's box at g's spacing;
    out_box and out_resolution replace it together, one entry per axis, and
    for h > 0 at g's spacing on every axis of more than one node. Ties in the
    minimum go to the smallest flat y index. The exact path scans every finite
    y node. Above _TWOSTAGE_MIN_CANDIDATES (output, cost) node pairs with g
    and W both grid-convex, the twostage path runs a strided scan followed by
    a windowed local search over chunks of output nodes; it is exact for the
    convex fixtures and asserted against the exact path in tests.
    """
    if h < 0:
        raise ValueError("h must be nonnegative")
    if (out_box is None) != (out_resolution is None):
        raise ValueError("out_box and out_resolution must be given together")
    if out_box is not None:
        if len(out_box) != g.dim or len(out_resolution) != g.dim:
            raise ValueError(f"out_box and out_resolution need {g.dim} entries")
        box = tuple((float(lo), float(hi)) for lo, hi in out_box)
        axes = [np.linspace(lo, hi, m) for (lo, hi), m in zip(box, out_resolution)]
    if h == 0.0:
        # identity by convention, interpolated onto a requested grid; no y is
        # involved, so no argmin is recorded
        if out_box is None:
            box, vals = g.box, g.values.copy()
        else:
            vals = g.interpolate(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1))
        arg = np.full(vals.shape, -1, dtype=np.int64)
        return InfConvResult(ExtGridFn(box, vals), arg)
    if g.dim != W.dim:
        raise ValueError("g and W must share dimension")

    if out_box is None:
        box, axes = _default_out_grid(g, W, h)
    # the candidate kernel places output node k at axes[d][0] + k * g's step
    for d, ax in enumerate(axes):
        step = g.spacing[d] if g.spacing[d] > 0 else 1.0
        if len(ax) > 1 and not _same_step(ax[1] - ax[0], step):
            raise ValueError(f"axis {d}: output spacing differs from g's {step}")
    shape = tuple(len(ax) for ax in axes)

    y_idx = np.argwhere(np.isfinite(W.values))
    big = int(np.prod(shape)) * y_idx.shape[0] > _TWOSTAGE_MIN_CANDIDATES
    if big and is_grid_convex(g) and is_grid_convex(W):
        vals, arg = _hopflax_twostage(g, W, h, axes, shape)
    else:
        vals, arg = _hopflax_exact(g, W, h, axes, shape, y_idx)
    return InfConvResult(ExtGridFn(box, vals), arg)


def _hopflax_exact(g, W, h, axes, shape, y_idx):
    # its own entry point, so a trace tells the exact path from twostage,
    # whose stage 1 runs the same kernel
    tables = _axis_tables(g, W, h, axes)
    return _scan_candidates(g, (h * W.values).ravel(), tables, shape, y_idx)


def _hopflax_twostage(g, W, h, axes, shape):
    # stage 1: strided scan with the lattice-slice candidates
    strided = np.argwhere(np.isfinite(W.values))
    keep = np.all(strided % _COARSE_STRIDE == 0, axis=1)
    tables = _axis_tables(g, W, h, axes)
    vals, arg = _scan_candidates(g, (h * W.values).ravel(), tables, shape, strided[keep])

    # stage 2: two refinement rounds around the strided argmin, at steps
    # _COARSE_STRIDE // 2 and 1. The incumbent of a convex objective sampled
    # at stride s is within s of the optimum, so the 5^d candidates at step
    # s/2 within +-2 steps cover it. The found output rows go in chunks of
    # about _CHUNK_CANDIDATES candidates; rows are independent, so the chunks
    # cannot change a value or an argmin.
    y_step = np.array([ax[1] - ax[0] if len(ax) > 1 else 1.0 for ax in W.axes])
    y_lo = np.array([ax[0] for ax in W.axes])
    unit = np.array(list(itertools.product(range(-2, 3), repeat=g.dim)))
    found = np.flatnonzero(arg >= 0)
    chunk = max(1, _CHUNK_CANDIDATES // len(unit))
    for c0 in range(0, found.size, chunk):
        rows = found[c0 : c0 + chunk]
        pts = np.stack([ax[i] for ax, i in zip(axes, np.unravel_index(rows, shape))], -1)
        best_v = vals.flat[rows]
        best_a = arg.flat[rows]
        for step in (_COARSE_STRIDE // 2, 1):
            centers = np.stack(np.unravel_index(best_a, W.resolution), axis=-1)
            ci = centers[:, None, :] + step * unit
            ok = np.all((ci >= 0) & (ci < W.resolution), axis=2)
            # out-of-range indices are clipped only to read W; ok drops them
            wflat = np.ravel_multi_index(np.moveaxis(ci, -1, 0), W.resolution, mode="clip")
            wv = W.values.ravel()[wflat]
            gv = g.interpolate(pts[:, None, :] - h * (y_lo + ci * y_step))
            cand = np.where(ok & np.isfinite(wv), gv + h * wv, INF)
            k = np.argmin(cand, axis=1)[:, None]
            cbest = np.take_along_axis(cand, k, axis=1)[:, 0]
            better = cbest < best_v
            best_v[better] = cbest[better]
            best_a[better] = np.take_along_axis(wflat, k, axis=1)[better, 0]
        vals.flat[rows] = best_v
        arg.flat[rows] = best_a

    # Nodes with no strided witness stay +inf; the gate restricts this path to
    # convex-certified inputs where the only candidates lost this way sit in a
    # one-window band along the essential-domain boundary.
    return vals, arg


def hopflax_pointwise(
    g_fn: Callable[[np.ndarray], np.ndarray],
    W_fn: Callable[[np.ndarray], np.ndarray],
    h: float,
    points: np.ndarray,
    y_box: Sequence[Sequence[float]] | None = None,
    y_resolution: Sequence[int] | None = None,
    g_domain: EpigraphDomain | None = None,
    W_domain: EpigraphDomain | None = None,
    zoom_iters: int = 14,
) -> np.ndarray:
    """Q_h(g) at arbitrary points from analytic g and W, batched.

    A coarse scan over candidate y values seeds a zooming local grid search
    (5 points per axis per iteration, the width shrinking by 0.45 each time)
    with domain membership enforced by +inf: g_domain at height 0 and
    W_domain shifted up by e. With y_box given, the scan covers that fixed
    grid; by default each point scans a box centered at x + e whose half width
    is 4 * (1 + ||x||), matching the growth-envelope localization of the
    minimizer, so far-out quadrature nodes are not silently truncated. The
    result is deterministic and accurate to roughly the squared final zoom
    width for smooth interior minima, which is what the small-h difference
    quotients need.
    """
    pts_all = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts_all.shape[1]
    if h == 0.0:
        vals = np.asarray(g_fn(pts_all), dtype=float)
        if g_domain is not None:
            vals = np.where(g_domain.contains(pts_all, 0.0), vals, INF)
        return vals

    local = np.stack(
        np.meshgrid(*([np.array([-1.0, -0.5, 0.0, 0.5, 1.0])] * n), indexing="ij"),
        axis=-1,
    ).reshape(-1, n)
    if y_box is not None:
        if y_resolution is None:
            raise ValueError("y_resolution is required with an explicit y_box")
        axes = [np.linspace(lo, hi, m) for (lo, hi), m in zip(y_box, y_resolution)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        width0 = np.array(
            [(hi - lo) / max(m - 1, 1) for (lo, hi), m in zip(y_box, y_resolution)]
        )
        ncand = mesh.shape[0]
    else:
        m = 13
        unit = np.stack(
            np.meshgrid(*([np.linspace(-1.0, 1.0, m)] * n), indexing="ij"), axis=-1
        ).reshape(-1, n)
        ncand = unit.shape[0]
    shift_e = _unit_e(n)

    out = np.empty(pts_all.shape[0])
    chunk = max(1, int(2_000_000 / max(ncand, 1)))
    for i0 in range(0, pts_all.shape[0], chunk):
        pts = pts_all[i0 : i0 + chunk]

        def objective(y):  # y shape (npts, k, n)
            q = pts[:, None, :] - h * y
            gv = np.asarray(g_fn(q.reshape(-1, n)), dtype=float).reshape(q.shape[:2])
            if g_domain is not None:
                gv = np.where(
                    g_domain.contains(q.reshape(-1, n), 0.0).reshape(q.shape[:2]), gv, INF
                )
            wv = np.asarray(W_fn(y.reshape(-1, n)), dtype=float).reshape(y.shape[:2])
            if W_domain is not None:
                wv = np.where(
                    W_domain.contains(y.reshape(-1, n), 1.0).reshape(y.shape[:2]),
                    wv,
                    INF,
                )
            return gv + h * wv

        if y_box is not None:
            coarse = objective(np.broadcast_to(mesh, (pts.shape[0],) + mesh.shape))
            centers = mesh[np.argmin(coarse, axis=1)]
            width = np.broadcast_to(width0, pts.shape).copy()
        else:
            radius = 4.0 * (1.0 + np.linalg.norm(pts, axis=-1))
            cand = pts[:, None, :] + shift_e + unit[None, :, :] * radius[:, None, None]
            if W_domain is not None:
                # guaranteed-feasible seeds for boundary points, where the
                # feasible slice is too thin for a blind scan: the support-set
                # witness y1 = x1/(1+h) at the shifted boundary height, and
                # the scaling witness (x + e)/(1+h)
                y1w = pts[:, :-1] / (1.0 + h)
                anchor1 = np.concatenate(
                    [y1w, (1.0 + W_domain.phi(y1w))[:, None]], axis=1
                )
                anchor2 = (pts + shift_e) / (1.0 + h)
                cand = np.concatenate(
                    [cand, anchor1[:, None, :], anchor2[:, None, :]], axis=1
                )
            coarse = objective(cand)
            centers = cand[np.arange(pts.shape[0]), np.argmin(coarse, axis=1)]
            step = 2.0 * radius / (m - 1)
            width = np.repeat(step[:, None], n, axis=1)
        best = np.min(coarse, axis=1)
        for _ in range(zoom_iters):
            cand = centers[:, None, :] + local[None, :, :] * width[:, None, :]
            cv = objective(cand)
            k = np.argmin(cv, axis=1)
            cbest = cv[np.arange(len(k)), k]
            improve = cbest < best
            best = np.where(improve, cbest, best)
            centers = np.where(improve[:, None], cand[np.arange(len(k)), k], centers)
            width = width * 0.45
        out[i0 : i0 + chunk] = best
    return out


def semigroup_residual(
    g: ExtGridFn,
    W: ExtGridFn,
    h: float,
    s: float,
) -> float:
    """max over common finite nodes of |Q_h(g) - Q_{h-s}(Q_s(g))|.

    Collapses to exactly zero when s is 0 or h. The composed operator is
    evaluated on the grid of Q_h(g) so the comparison is node for node.
    """
    if not 0.0 <= s <= h:
        raise ValueError("need 0 <= s <= h")
    full = hopflax_apply(g, W, h)
    inner = hopflax_apply(g, W, s)
    outer = hopflax_apply(
        inner.values, W, h - s,
        out_box=full.values.box, out_resolution=full.values.resolution,
    )
    both = full.values.finite_mask & outer.values.finite_mask
    if not both.any():
        return 0.0
    return float(np.max(np.abs(full.values.values[both] - outer.values.values[both])))


def _richardson(h_big, q_big, h_small, q_small):
    """First-order Richardson extrapolation to h = 0 of quotients q = L + c*h
    taken at two steps h_big > h_small."""
    return (h_big * q_small - h_small * q_big) / (h_big - h_small)


def hj_difference_quotient(
    g_fn: Callable,
    grad_g: Callable,
    W_fn: Callable,
    W_conjugate: Callable,
    h_list: Sequence[float],
    points: np.ndarray,
    y_box: Sequence[Sequence[float]],
    y_resolution: Sequence[int],
    g_domain: EpigraphDomain | None = None,
):
    """Difference quotients (Q_h(g)(x) - g(x)) / h against -W*(grad g(x)).

    Returns (quotients, extrapolated limit, reference, deviation) with one row
    per point. h_list must be strictly decreasing; the limit is the iterated
    Richardson extrapolation of the first-order quotient along the list.
    Points must be interior to dom g; the cost must grow superlinearly on its
    sampled box, which callers are expected to have checked.
    """
    hs = np.asarray(h_list, dtype=float)
    if np.any(np.diff(hs) >= 0) or np.any(hs <= 0):
        raise ValueError("h_list must be positive and strictly decreasing")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if g_domain is not None:
        inside = g_domain.contains(pts, 0.0)
        margin = pts[:, -1] - (g_domain.phi(pts[:, :-1]))
        if not inside.all() or np.any(margin <= 1e-9):
            raise ValueError("difference quotients need points interior to dom g")
    g0 = np.asarray(g_fn(pts), dtype=float)
    quot = np.empty((pts.shape[0], len(hs)))
    for k, h in enumerate(hs):
        q = hopflax_pointwise(
            g_fn, W_fn, h, pts, y_box, y_resolution, g_domain=g_domain
        )
        quot[:, k] = (q - g0) / h

    # iterated first-order Richardson over the (not necessarily dyadic) h list
    level = [quot[:, k] for k in range(len(hs))]
    xs = list(hs)
    for _ in range(1, len(hs)):
        level = [
            _richardson(xs[k], level[k], xs[k + 1], level[k + 1])
            for k in range(len(level) - 1)
        ]
        xs = xs[1:]
    limit = level[0]
    ref = -np.asarray(W_conjugate(np.asarray(grad_g(pts), dtype=float)), dtype=float)
    deviation = np.abs(limit - ref)
    return quot, limit, ref, deviation
