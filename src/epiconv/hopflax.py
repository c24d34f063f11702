"""Infimal convolution and the Hopf-Lax operator on grids, on one kernel.

``hopflax_apply`` evaluates Q_h(g)(x) = min_y g(x - h*y) + h*W(y) with y
running over the cost grid and g evaluated by multilinear interpolation at the
off-grid points x - h*y. Interpolation is conservative at the domain: a point
outside g's box or in a cell with a +inf corner evaluates to +inf. This module
holds the only copy of that rule. What the discrete value bounds is stated
below, next to the bounds that prune it.

At every h the output grid shares g's spacing (any other is rejected), so the
points x - h*y of one cost node y all sit at the same fractional offset from
g's lattice: the tuple of per-axis fractions is y's offset class. The
candidate kernel interpolates g once per class, over the lattice points that
the class's nodes read, and then each y costs one slice of that lattice plus
h*W(y), taken over the output nodes y can reach. The offsets are floats, so
rounding splits what would be one rational fraction into several (at h = 0.1
on a dx = 0.1 grid, 49 x 44 classes where the rational structure has
10 x 10); every distinct tuple is its own class, interpolated once per
apply. The kernel takes the classes in chunks of at most _LATTICE_CACHE
lattices, scans a chunk's cost nodes in ascending flat order into chunk
accumulators, a candidate replacing the incumbent only when strictly
smaller, and merges each chunk into the result by (value, smallest flat
index). Every candidate is one fixed float expression whatever its chunk and
its lattice's region, so the result is that of a single flat-order scan, ties
going to the smallest flat index. h = 0 returns g itself, or on a
requested output grid one slice of g's lattice at the zero shift, with no
argmin; W plays no part.

The exact path prunes candidates that cannot win. The strided cost nodes
(every _COARSE_STRIDE-th per axis), scanned over cell-max lattices, give an
incumbent U at least the minimum at each output node: a cell's largest corner
bounds every value interpolated in it. Along each axis the cost nodes group
into blocks, runs of consecutive nodes that read one g cell at every output
node, merged until a block holds at least _COARSE_STRIDE nodes. A candidate of
block B at output x interpolates corners inside B's node window at x, so it is
at least LB(x) = min of g over that window (+inf nodes counting as +inf) plus
the least h*W of B. Each cost node then only reaches the bounding box of the
outputs where its block passes both LB and the tilted bound below, each
within the allowance of U.

The tilted bound keeps the first-order terms that LB drops. In lattice
coordinates output node k reads, for cost node y, g's multilinear interpolant
I at k + u_y, where u_y = base + frac per axis (:func:`_axis_tables`). For any
slope q, I(v) - q·v is multilinear on each cell and so at least its least
corner value. Hence every candidate of B at output k is at least
min over t of (g[k + bmin + t] - q·(bmin + t)) + kappa_B, with t over B's node
window, bmin its least base and kappa_B = min over the active y of B of
h*W(y) + q·u_y; q = 0 gives LB. Block B takes q_d = minus the mean slope of
its least h*W per slice across axis d against u_d, so that h*W(y) + q·u_y is
nearly flat over B and the bound is tight to first order near B's
minimizers. Every term is an integer offset or a table entry, so _SNAP needs
no slack. The window minimum is separable, and it is only evaluated inside the
box that LB keeps.

The allowance, (2^n + n + 6) ulps of the largest finite |g| plus the largest
finite h*W plus the largest sum over the axes of |q_d|·(window length +
largest |u_d|), covers interpolated sums that round a few ulps outside the
range of their corners (four equal corners round below it in about one draw
of fractions in seven) and the rounding of U, of the tilt terms and of both
bounds. Pruning therefore only drops candidates strictly above the minimum:
values and argmins are those of the full scan, bit for bit, for any g, with no
convexity certificate involved.

What the values bound. The scan minimizes over a subset of y, so its value is
at least Q_h of the multilinear interpolant I of g: it is an upper bound of
Q_h(I) for any g. It is an upper bound of the continuum Q_h(g) when g is
convex along each axis, since I then lies above g on every cell. Otherwise it
bounds only Q_h(I): on the bump-perturbed half-space of acceptance test c06
(201 x 101 nodes, dx = 0.1, h = 0.1) the grid value at x = (0.2, 2.1) falls
1.49e-4 (relative) below a dense pointwise search, where the bump makes g
locally concave and I undercuts g. The candidate g(x - h*y*) + h*W(y*) at the
grid argmin y*, evaluated on the analytic g and W, is an upper bound of
Q_h(g) for any g.

Above _TWOSTAGE_MIN_CANDIDATES (output, cost) node pairs, a g and W that both
pass the convexity certificate take the twostage path instead. It runs the
same kernel twice: over the strided cost nodes, then over every finite cost
node y with y's outputs cut to the bounding box of those whose strided argmin
lies within _COARSE_STRIDE of y on every axis. For a convex objective the
strided argmin is within one stride of the minimizers, so the window holds
them: wherever the strided scan finds a candidate, values and argmins are
those of the exact path, bit for bit. Only rounding can break this, where it
alone orders candidates more than a stride apart (a constant g whose
interpolated sums round an ulp apart). Outputs with no finite strided
candidate stay +inf; on certified-convex inputs they sit in a band along the
boundary of the essential domain.

``infconv`` is Q_1 with the cost on g's own lattice: the exact min-plus
convolution of two grid functions with shared spacing. It runs the same kernel
with every offset zero: one class, no interpolation and nothing to prune; each
finite output node records an attaining argmin, the smallest flat index among
ties.

Two brackets need no grid of g or W, only an analytic pair carrying its
gradients and conjugates. ``_hopf_bracket`` brackets Q_h on an output grid
between the Hopf floor, a discrete Legendre transform of g* + h*W* on a
graded dual grid, and the least of two exact candidates;
``bblcheck.bbl_gap`` integrates it. ``_pointwise_bracket`` brackets Q_h at
arbitrary points in closed form: the exact candidate at the scaling witness
(x + e)/(1 + h), feasible throughout B_h on every convex domain by
construction, above, and the Fenchel-Young bound at the slope of g there
below; ``bblcheck.appendix_limit_residual``, ``bblcheck.equivalence_scan``
(on a rescaled pair) and ``hj_difference_quotient`` read it. Both share
``_witness``, ``_hopf_terms`` and ``_candidate``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .extgrid import INF, EpigraphDomain, ExtGridFn, _central_gradient, _unit_e
from .transforms import _legendre_lines

__all__ = [
    "InfConvResult",
    "infconv",
    "hopflax_apply",
    "semigroup_residual",
    "hj_difference_quotient",
    "is_grid_convex",
]

# output x cost node pairs above which a certified-convex problem takes the
# twostage path
_TWOSTAGE_MIN_CANDIDATES = 4e8
# stride of the exact path's incumbent scan and of the twostage strided scan,
# in cost-grid nodes per axis; also the twostage window radius around a
# strided argmin and the least cost nodes per pruning block
_COARSE_STRIDE = 4
# most interpolated lattices of g the candidate kernel keeps at once, the
# offset classes of one chunk (16 are 1.7 MB for a 161 x 81 g)
_LATTICE_CACHE = 16
# fractional lattice offsets within _SNAP of a gridline snap onto it
_SNAP = 1e-9
# ulps of the magnitude of its terms by which _hopf_bracket lowers its floor
_HOPF_ULPS = 8
# most dual-grid slopes _hopf_bracket samples F at in one conjugate call
_HOPF_BLOCK = 2**13


@dataclass
class InfConvResult:
    values: ExtGridFn
    argmin: np.ndarray  # flat index into the y-grid, -1 where the value is +inf


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
    # fractional offset: one offset class, and nothing to prune
    tables = []
    for mf, m in zip(f.resolution, g.resolution):
        j = np.arange(mf)
        tables.append((j, j + m, -j, np.zeros(mf)))
    shape = tuple(a + b - 1 for a, b in zip(f.resolution, g.resolution))
    vals, arg = _scan_candidates(
        _interpolator(g), tables, shape, f.values, np.isfinite(f.values)
    )
    return InfConvResult(ExtGridFn(box, vals), arg)


def _axis_tables(g: ExtGridFn, shifts, out_axes):
    """Per axis d, arrays (lo, hi, base, frac) over the shifts[d] entries
    (h * y_d for the cost index y_d).

    Output node k on axis d reads g at lattice point k + base + frac, and
    lo <= k < hi are the k with 0 <= k + base (+ 1 when frac > 0) <= mg - 1;
    lo >= hi when the shift reaches no output node. Offsets within _SNAP of
    a gridline collapse to the single node.
    """
    tables = []
    for d in range(g.dim):
        step = g.spacing[d] if g.spacing[d] > 0 else 1.0
        off = (out_axes[d][0] - shifts[d] - g.box[d][0]) / step
        base = np.floor(off + _SNAP)
        frac = off - base
        low = frac < _SNAP
        high = ~low & (frac > 1.0 - _SNAP)
        base[high] += 1
        frac[low | high] = 0.0
        base = base.astype(np.int64)
        lo = np.maximum(0, -base)
        hi = np.minimum(len(out_axes[d]), g.resolution[d] - base - (frac > 0.0))
        tables.append((lo, hi, base, frac))
    return tables


def _interp_lattice(g0: np.ndarray, cell_inf: np.ndarray | None, fracs) -> np.ndarray:
    """g interpolated at i + fracs for every index i whose cell lies in g.

    g0 is g with its non-finite nodes zeroed; cell_inf marks the cells with
    a non-finite corner, which come back +inf. Corners are summed in a fixed
    order, so every lattice value is one fixed float expression. Each
    fraction is 0 or lies in (_SNAP, 1 - _SNAP), so every corner weight is
    positive and no corner is ever dropped.
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


def _interpolator(g: ExtGridFn):
    """(offset fractions, region) -> g's interpolated lattice at those
    fractions over the region, a tuple of slices of lattice points."""
    ginf = ~np.isfinite(g.values)
    g0 = np.where(ginf, 0.0, g.values)
    cell_inf = {}

    def lattice(fracs, region):
        tops = tuple(int(f > 0.0) for f in fracs)
        if tops not in cell_inf:
            marked = _window_reduce(np.logical_or, ginf, [t + 1 for t in tops])
            cell_inf[tops] = marked if marked.any() else None
        marked = cell_inf[tops]
        corners = tuple(slice(r.start, r.stop + t) for r, t in zip(region, tops))
        return _interp_lattice(g0[corners], None if marked is None else marked[region], fracs)

    return lattice


def _scan_candidates(lattice, tables, shape, weights, active, boxes=None):
    """min over the active cost nodes y of a lattice read at y's offset plus
    weights[y], with (values, argmin) of the given shape; +inf and -1 where
    no y has a finite candidate.

    tables[d] = (lo, hi, base, key) over the cost index y_d: y reaches the
    output nodes lo <= k < hi along d and reads lattice point k + base there
    (as :func:`_axis_tables` builds them, key being the fraction). The keys
    of y form its offset class, and lattice(keys, region) gives the class's
    lattice over a region of lattice points. With boxes = (blocks, box_lo,
    box_hi), y only reaches the outputs inside its cost block's box (see
    :func:`_prune_boxes` and :func:`_window_boxes`).

    The classes go in chunks of at most _LATTICE_CACHE: per axis, groups of
    consecutive keys whose sizes multiply to at most _LATTICE_CACHE. A chunk
    builds each of its lattices once, at first use, over the bounding box of
    the lattice points that the chunk's nodes of that class read, and drops
    them all when it ends. It scans its cost nodes row by row (all leading
    indices fixed) in ascending flat order into its own accumulators, where a
    candidate replaces the incumbent only when strictly smaller, so ties go
    to the smallest flat index; the chunk then merges into the result by
    (value, smallest flat index). Every candidate is the same float
    expression whatever the chunk and region, so the result is the scan of
    all nodes in flat order.
    """
    vals = np.full(shape, INF)
    arg = np.full(shape, -1, dtype=np.int64)
    class_ids, keys = [], []
    for lo, hi, _base, key in tables:
        reach = lo < hi
        uniq, inv = np.unique(key[reach], return_inverse=True)
        if not uniq.size:
            return vals, arg
        ids = np.full(key.shape, -1)
        ids[reach] = inv
        class_ids.append(ids)
        keys.append(uniq.tolist())
    sizes = []
    room = _LATTICE_CACHE
    for uniq in reversed(keys):
        sizes.insert(0, max(1, min(len(uniq), room)))
        room //= sizes[0]
    counts = [-(-len(uniq) // s) for uniq, s in zip(keys, sizes)]
    local_radix = np.cumprod([1] + sizes[:0:-1])[::-1].tolist()
    local_count = int(np.prod(sizes))
    strides = np.cumprod([1] + list(active.shape[:0:-1]))[::-1].tolist()
    flat_w = np.ravel(weights)
    single = int(np.prod(counts)) == 1
    cvals, carg = (vals, arg) if single else (np.empty(shape), np.empty(shape, np.int64))

    for chunk in itertools.product(*map(range, counts)):
        members = [
            np.flatnonzero((ids >= c * s) & (ids < (c + 1) * s))
            for ids, c, s in zip(class_ids, chunk, sizes)
        ]
        *lead_members, last = members
        # per class of the chunk (by its index in the chunk), the bounding box
        # of the lattice points its nodes read
        reg_lo = np.full((len(tables), local_count), np.iinfo(np.int64).max)
        reg_hi = np.zeros((len(tables), local_count), dtype=np.int64)
        rows = []
        for lead in itertools.product(*(m.tolist() for m in lead_members)):
            ys, lo, hi, base = _row_reads(tables, boxes, lead, last[active[lead][last]])
            if ys.size:
                local = sum(
                    (ids[i] - c * s) * r
                    for ids, i, c, s, r in zip(class_ids, lead + (ys,), chunk, sizes, local_radix)
                )
                for d in range(len(tables)):
                    np.minimum.at(reg_lo[d], local, lo[d] + base[d])
                    np.maximum.at(reg_hi[d], local, hi[d] + base[d])
                rows.append((lead, ys, local, lo, hi, base))
        if not single:
            cvals.fill(INF)
            carg.fill(-1)
        lattices = {}
        for lead, ys, local, lo, hi, base in rows:
            flat = sum(i * s for i, s in zip(lead, strides)) + ys
            read = lo + base - reg_lo[:, local]
            nodes = zip(
                flat.tolist(), flat_w[flat].tolist(), local.tolist(),
                _slices(lo, hi - lo), _slices(read, hi - lo),
            )
            for j, w, c, out, src in nodes:
                lat = lattices.get(c)
                if lat is None:
                    fracs = tuple(
                        k[i * s + (c // r) % s]
                        for k, i, s, r in zip(keys, chunk, sizes, local_radix)
                    )
                    region = tuple(map(slice, reg_lo[:, c].tolist(), reg_hi[:, c].tolist()))
                    lat = lattices[c] = lattice(fracs, region)
                cand = lat[src] + w
                incumbent = cvals[out]
                better = cand < incumbent
                np.copyto(incumbent, cand, where=better)
                np.copyto(carg[out], j, where=better)
        del lattices
        if not single:
            take = cvals < vals
            take |= (cvals == vals) & (carg < arg)
            np.copyto(vals, cvals, where=take)
            np.copyto(arg, carg, where=take)
    return vals, arg


def _row_reads(tables, boxes, lead, ys):
    """(ys, lo, hi, base) of the cost nodes lead + (y,), y in ys, the last
    three as (ndim, len(ys)) arrays: the node reaches the outputs lo <= k < hi
    and reads lattice point k + base. With boxes, each output range is cut
    to its block's box and the nodes left with no output are dropped."""
    rows = np.empty((3, len(tables), ys.size), dtype=np.int64)
    for d, (table, i) in enumerate(zip(tables, lead + (ys,))):
        for r in range(3):
            rows[r, d] = table[r][i]
    lo, hi, base = rows
    if boxes is not None:
        blocks, box_lo, box_hi = boxes
        at = tuple(b[i] for b, i in zip(blocks, lead)) + (blocks[-1][ys],)
        for d in range(len(tables)):
            np.maximum(lo[d], box_lo[d][at], out=lo[d])
            np.minimum(hi[d], box_hi[d][at], out=hi[d])
        keep = np.all(lo < hi, axis=0)
        ys, lo, hi, base = ys[keep], lo[:, keep], hi[:, keep], base[:, keep]
    return ys, lo, hi, base


def _slices(start, size):
    """Per column of the (ndim, count) arrays, the tuple of slices
    start : start + size."""
    stop = start + size
    return zip(*map(map, itertools.repeat(slice), start.tolist(), stop.tolist()))


def _strided(active: np.ndarray) -> np.ndarray:
    """active restricted to the nodes whose indices are all multiples of
    _COARSE_STRIDE."""
    keep = active.copy()
    for d, m in enumerate(active.shape):
        shape = [1] * active.ndim
        shape[d] = m
        keep &= (np.arange(m) % _COARSE_STRIDE == 0).reshape(shape)
    return keep


def _axis_blocks(lo, hi, base, frac):
    """Cost blocks along one axis: runs of consecutive reaching indices with
    one base (they read one g cell at every output node), merged until a
    block holds at least _COARSE_STRIDE indices.

    Returns the block id of each index (-1 where it reaches nothing), the
    reaching indices and the block starts among them, and per block the
    smallest base, the node window length (base span + 1, + 1 when any
    fraction is nonzero) and the union [out_lo, out_hi) of its output ranges.
    """
    reach = np.flatnonzero(lo < hi)
    b = base[reach]
    gap = np.ones(reach.size, dtype=bool)
    gap[1:] = np.diff(reach) != 1
    fresh = gap.copy()
    fresh[1:] |= np.diff(b) != 0
    starts = []
    size = 0
    for pos, (cut, run) in enumerate(zip(gap.tolist(), fresh.tolist())):
        if cut or (run and size >= _COARSE_STRIDE):
            starts.append(pos)
            size = 0
        size += 1
    block = np.full(lo.shape, -1)
    is_start = np.zeros(reach.size, dtype=np.int64)
    is_start[starts] = 1
    block[reach] = np.cumsum(is_start) - 1
    bmin = np.minimum.reduceat(b, starts)
    span = np.maximum.reduceat(b, starts) - bmin
    tops = np.maximum.reduceat((frac[reach] > 0.0).astype(np.int64), starts)
    out_lo = np.minimum.reduceat(lo[reach], starts)
    out_hi = np.maximum.reduceat(hi[reach], starts)
    return block, reach, starts, bmin, span + tops + 1, out_lo, out_hi


def _window_reduce(ufunc, a: np.ndarray, lengths) -> np.ndarray:
    """ufunc (np.logical_or, np.maximum or np.minimum) reduced over the
    windows of lengths[d] consecutive nodes of a per axis, indexed by the
    window's first node; axis by axis, which is exact for these three."""
    for d, n in enumerate(lengths):
        m = a.shape[d] - n + 1
        lead = (slice(None),) * d
        out = a[lead + (slice(0, m),)].copy()
        for s in range(1, n):
            ufunc(out, a[lead + (slice(s, s + m),)], out=out)
        a = out
    return a


def _block_bounds(g: ExtGridFn, tables, weights, active):
    """The cost blocks and what bounds their candidates, as (axes, least,
    slope, kappa, allowance).

    axes[d] is :func:`_axis_blocks` of tables[d]. Per block B (arrays indexed
    by the block ids of every axis): least is the least active weight of B
    (+inf when B has none); slope[d] is q_d, minus the mean slope, against
    the lattice offset u_d = base + frac, of B's least weights on its slices
    across axis d, taken over the neighbouring slices whose least weights are
    both finite (0 when no two are); kappa is the least weight[y] + q·u_y
    over the active y of B. The allowance (:func:`_allowance`) takes as its
    tilt the largest sum over the axes of |q_d| times (window length +
    largest |u_d|).
    """
    ndim = len(tables)
    axes = [_axis_blocks(*table) for table in tables]
    w = np.where(active, weights, INF)
    offsets = []
    for d, ((_lo, _hi, base, frac), (_b, reach, *_rest)) in enumerate(zip(tables, axes)):
        w = np.take(w, reach, axis=d)
        offsets.append((base + frac)[reach])

    def along(a, d):
        shape = [1] * ndim
        shape[d] = -1
        return a.reshape(shape)

    slope = []
    for d, (_b, reach, starts, *_rest) in enumerate(axes):
        # per block, its least weight on each slice across axis d
        profile = w
        for e, (_b, _reach, other, *_rest) in enumerate(axes):
            if e != d:
                profile = np.minimum.reduceat(profile, other, axis=e)
        profile = np.moveaxis(profile, d, -1)
        finite = np.isfinite(profile)
        # slices i and i + 1 lie in one block unless i + 1 starts one
        inner = np.ones(reach.size, dtype=bool)
        inner[starts] = False
        pair = finite[..., :-1] & finite[..., 1:] & inner[1:]
        rise = np.where(pair, np.diff(np.where(finite, profile, 0.0)), 0.0)
        run = np.where(pair, np.diff(offsets[d]), 0.0)
        pad = [(0, 0)] * (ndim - 1) + [(0, 1)]
        rise, run = (np.add.reduceat(np.pad(a, pad), starts, axis=-1) for a in (rise, run))
        slope.append(np.moveaxis(-rise / np.where(run != 0.0, run, 1.0), -1, d))

    tilted = w.copy()
    for d, q in enumerate(slope):
        for e, (_b, _reach, starts, *_rest) in enumerate(axes):
            q = np.repeat(q, np.diff(starts, append=offsets[e].size), axis=e)
        tilted += q * along(offsets[d], d)
    least, kappa = w, tilted
    for d, (_b, _reach, starts, *_rest) in enumerate(axes):
        least = np.minimum.reduceat(least, starts, axis=d)
        kappa = np.minimum.reduceat(kappa, starts, axis=d)

    tilt = sum(
        np.abs(q) * along(length + np.abs(u).max(), d)
        for d, (q, u, (*_rest, length, _lo, _hi)) in enumerate(zip(slope, offsets, axes))
    )
    allowance = _allowance(g, weights, active, np.max(tilt, initial=0.0))
    return axes, least, slope, kappa, allowance


def _allowance(g: ExtGridFn, weights, active, tilt: float) -> float:
    """(2^n + n + 6) ulps of the largest finite |g| plus the largest active
    |weight| plus tilt. A first-order count of the roundings in an
    interpolated candidate, the incumbent and both bounds stays within it for
    n <= 3."""
    scale = np.abs(g.values[np.isfinite(g.values)]).max(initial=0.0)
    scale += np.abs(weights[active]).max(initial=0.0) + tilt
    return (2**g.dim + g.dim + 6) * np.finfo(float).eps * scale


def _tilted_bound(gpad, pad, bmin, length, slope, kappa, out):
    """The tilted lower bound of one cost block at the output nodes of the
    box out (one slice per axis): min over the block's node window of
    g[k + bmin + t] - q·(bmin + t), plus kappa. gpad is g padded with pad[d]
    +inf nodes on both sides of axis d."""
    region = gpad[tuple(
        slice(o.start + b + p, o.stop + b + p + n - 1)
        for o, b, p, n in zip(out, bmin, pad, length)
    )]
    for d, (b, n, q) in enumerate(zip(bmin, length, slope)):
        m = region.shape[d] - n + 1
        lead = (slice(None),) * d
        least = region[lead + (slice(0, m),)] - q * b
        for t in range(1, n):
            np.minimum(least, region[lead + (slice(t, t + m),)] - q * (b + t), out=least)
        region = least
    return region + kappa


def _hit_box(keep):
    """Per axis, the first and one past the last index where keep holds;
    None when it holds nowhere. Each axis after the first is searched only
    within the range found on the axes before it."""
    box = []
    for d in range(keep.ndim):
        others = tuple(a for a in range(keep.ndim) if a != d)
        hit = np.logical_or.reduce(keep, axis=others).nonzero()[0]
        if not hit.size:
            return None
        box.append((int(hit[0]), int(hit[-1]) + 1))
        keep = keep[(slice(None),) * d + (slice(*box[-1]),)]
    return box


def _prune_boxes(g: ExtGridFn, tables, shape, weights, active):
    """Per cost block, the bounding box of the output nodes where one of its
    candidates can be the minimum, as (blocks, box_lo, box_hi) for
    :func:`_scan_candidates`; None when no cost node reaches an output.

    The incumbent U is the strided nodes' scan over cell-max lattices. A
    block's untilted bound at output x is the min of g over its node window
    at x plus its least weight; inside the box of the outputs where that
    comes within the allowance of U, the tilted bound of
    :func:`_tilted_bound` cuts the box again (the module docstring has why
    both bounds and the allowance of :func:`_block_bounds` hold).
    """
    ndim = len(tables)
    if not all((lo < hi).any() for lo, hi, _base, _frac in tables):
        return None
    cell_max = {}

    def upper(tops, region):
        if tops not in cell_max:
            cell_max[tops] = _window_reduce(np.maximum, g.values, [t + 1 for t in tops])
        return cell_max[tops][region]

    top_tables = [(lo, hi, base, (frac > 0.0).astype(int)) for lo, hi, base, frac in tables]
    incumbent = _scan_candidates(upper, top_tables, shape, weights, _strided(active))[0]
    del cell_max  # not needed past the incumbent
    axes, least, slope, kappa, allowance = _block_bounds(g, tables, weights, active)
    incumbent += allowance

    blocks, _reach, _starts, bmin, length, out_lo, out_hi = zip(*axes)
    pad = [int(n.max()) - 1 for n in length]
    gpad = np.pad(g.values, [(p, p) for p in pad], constant_values=INF)
    box_lo = [np.zeros(least.shape, dtype=np.int64) for _ in range(ndim)]
    box_hi = [np.zeros(least.shape, dtype=np.int64) for _ in range(ndim)]
    # blocks by window lengths, so one window-min array is alive at a time
    found = np.nonzero(np.isfinite(least))
    lengths = np.stack([n[b] for n, b in zip(length, found)], axis=1)
    order = np.lexsort(lengths.T[::-1])
    out_lo, out_hi = [a.tolist() for a in out_lo], [a.tolist() for a in out_hi]
    bmin = [b.tolist() for b in bmin]
    window = None
    for blk, lens in zip(zip(*(b[order].tolist() for b in found)), lengths[order].tolist()):
        if window != lens:
            window = lens
            mins = _window_reduce(np.minimum, gpad, window)
        start = [out_lo[d][b] for d, b in enumerate(blk)]
        out = tuple(slice(s, out_hi[d][b]) for d, (s, b) in enumerate(zip(start, blk)))
        lows = [bmin[d][b] for d, b in enumerate(blk)]
        win = tuple(slice(o.start + b + p, o.stop + b + p) for o, b, p in zip(out, lows, pad))
        keep = mins[win] + least[blk] <= incumbent[out]
        box = _hit_box(keep)
        if box is None:
            continue
        keep = keep[tuple(slice(a, b) for a, b in box)]
        out = tuple(slice(s + a, s + b) for s, (a, b) in zip(start, box))
        q = [a[blk] for a in slope]
        keep &= _tilted_bound(gpad, pad, lows, lens, q, kappa[blk], out) <= incumbent[out]
        box = _hit_box(keep)
        if box is None:
            continue
        for d, (o, (a, b)) in enumerate(zip(out, box)):
            box_lo[d][blk] = o.start + a
            box_hi[d][blk] = o.start + b
    return blocks, box_lo, box_hi


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
    out_box and out_resolution replace it together, one entry per axis, at
    g's spacing on every axis of more than one node, for every h. Ties in
    the minimum go to the smallest flat y index. h = 0 returns g unchanged,
    or on a requested grid g's interpolated lattice read at that grid (+inf
    outside g's box and in cells with a +inf corner); its argmin is -1
    everywhere.

    The exact path evaluates every finite y node's candidates except those
    its cost block's lower bound puts above the strided incumbent by more
    than the rounding allowance; the result equals the scan of all
    candidates bit for bit. It interpolates each offset class of g once,
    with at most _LATTICE_CACHE lattices alive (the module docstring has the
    class chunks, their merge rule and the bound). Above
    _TWOSTAGE_MIN_CANDIDATES (output, cost) node pairs with g and W both
    grid-convex, the twostage path runs the same kernel over the strided cost
    nodes, then over the cost nodes within _COARSE_STRIDE of each output's
    strided argmin. Wherever it is finite, its values and argmins equal the
    exact path's byte for byte, unless rounding alone orders candidates more
    than a stride apart; outputs with no finite strided candidate stay +inf.
    """
    if h < 0:
        raise ValueError("h must be nonnegative")
    if (out_box is None) != (out_resolution is None):
        raise ValueError("out_box and out_resolution must be given together")
    if h > 0.0 and g.dim != W.dim:
        raise ValueError("g and W must share dimension")
    if out_box is not None:
        if len(out_box) != g.dim or len(out_resolution) != g.dim:
            raise ValueError(f"out_box and out_resolution need {g.dim} entries")
        box = tuple((float(lo), float(hi)) for lo, hi in out_box)
        axes = [np.linspace(lo, hi, m) for (lo, hi), m in zip(box, out_resolution)]
    elif h == 0.0:
        # identity by convention; no y is involved, so no argmin is recorded
        arg = np.full(g.resolution, -1, dtype=np.int64)
        return InfConvResult(ExtGridFn(g.box, g.values.copy()), arg)
    else:
        box, axes = _default_out_grid(g, W, h)
    # the lattice reads place output node k at axes[d][0] + k * g's step
    for d, ax in enumerate(axes):
        step = g.spacing[d] if g.spacing[d] > 0 else 1.0
        if len(ax) > 1 and not _same_step(ax[1] - ax[0], step):
            raise ValueError(f"axis {d}: output spacing differs from g's {step}")
    shape = tuple(len(ax) for ax in axes)
    if h == 0.0:
        # one read of g's lattice at zero shift, W playing no part
        vals = np.full(shape, INF)
        tables = _axis_tables(g, [np.zeros(1)] * g.dim, axes)
        lo, hi, base, frac = map(np.concatenate, zip(*tables))
        if (lo < hi).all():
            src = tuple(map(slice, lo + base, hi + base))
            vals[tuple(map(slice, lo, hi))] = _interpolator(g)(tuple(frac.tolist()), src)
        return InfConvResult(ExtGridFn(box, vals), np.full(shape, -1, dtype=np.int64))

    active = np.isfinite(W.values)
    big = int(np.prod(shape)) * int(active.sum()) > _TWOSTAGE_MIN_CANDIDATES
    if big and is_grid_convex(g) and is_grid_convex(W):
        vals, arg = _hopflax_twostage(g, W, h, axes, shape)
    else:
        vals, arg = _hopflax_exact(g, W, h, axes, shape, active)
    return InfConvResult(ExtGridFn(box, vals), arg)


def _hopflax_exact(g, W, h, axes, shape, active):
    # its own entry point, so a trace tells the exact path from twostage,
    # whose two scans run the same kernel
    tables = _axis_tables(g, [h * ax for ax in W.axes], axes)
    weights = h * W.values
    boxes = _prune_boxes(g, tables, shape, weights, active)
    return _scan_candidates(_interpolator(g), tables, shape, weights, active, boxes)


def _hopflax_twostage(g, W, h, axes, shape):
    tables = _axis_tables(g, [h * ax for ax in W.axes], axes)
    lattice = _interpolator(g)
    weights = h * W.values
    active = np.isfinite(W.values)
    arg = _scan_candidates(lattice, tables, shape, weights, _strided(active))[1]
    boxes = _window_boxes(arg, W.resolution, shape)
    return _scan_candidates(lattice, tables, shape, weights, active, boxes)


def _window_boxes(arg, res, shape):
    """Per cost node y, the bounding box of the output nodes whose strided
    argmin s (arg, a flat index into the cost grid of resolution res) has
    |s_d - y_d| <= _COARSE_STRIDE on every axis, as (blocks, box_lo, box_hi)
    for :func:`_scan_candidates` with one block per node; empty boxes have
    box_lo >= box_hi."""
    stride = _COARSE_STRIDE
    coarse = tuple((m - 1) // stride + 1 for m in res)
    found = np.flatnonzero(arg >= 0)
    at = tuple(i // stride for i in np.unravel_index(arg.flat[found], res))
    box_lo, box_hi = [], []
    for d, k in enumerate(np.unravel_index(found, shape)):
        box_lo.append(np.full(coarse, shape[d], dtype=np.int64))
        box_hi.append(np.zeros(coarse, dtype=np.int64))
        np.minimum.at(box_lo[d], at, k)
        np.maximum.at(box_hi[d], at, k + 1)
    # along axis e, the strided nodes within the stride of y are those of
    # coarse index ceil(y / stride) - 1 .. y // stride + 1
    for e, m in enumerate(res):
        y = np.arange(m)
        near = [
            np.clip(k, 0, coarse[e] - 1)
            for k in (-(-y // stride) - 1, y // stride, y // stride + 1)
        ]
        for boxes, reduce in ((box_lo, np.minimum), (box_hi, np.maximum)):
            for d, b in enumerate(boxes):
                boxes[d] = reduce.reduce([np.take(b, k, axis=e) for k in near])
    return [np.arange(m) for m in res], box_lo, box_hi


def _witness(x, h: float, domain: EpigraphDomain | None):
    """The scaling witness y = (x + e)/(1 + h) at the points x, e = 0 without
    a domain. At x = (1+h)*z + h*e in B_h, z in Omega, it gives
    x - h*y = z in Omega and y = z + e in Omega + e, so its candidate is
    feasible by construction on every convex domain, with no membership
    test. By convexity of W, W(x - h*y + e) + h*W(y) >= (1+h)*W(witness),
    so it is the exact minimizer for g = W(. + e).
    """
    e = 0.0 if domain is None else _unit_e(np.shape(x)[-1])
    return (x + e) / (1.0 + h)


def _scaled_conjugate(conjugate, c: float, p, t: float = 1.0):
    """t*(c*f)*(p) for f's conjugate, by the rule (c*f)*(p) = c*f*(p/c)."""
    return t * c * np.asarray(conjugate(p / c), dtype=float)


def _hopf_terms(g, W, cg: float, cW: float, h: float, p):
    """(cg*g)*(p) and h*(cW*W)*(p), the two terms of F in p.x - F(p)."""
    return _scaled_conjugate(g.conjugate, cg, p), _scaled_conjugate(W.conjugate, cW, p, h)


def _candidate(g, W, cg: float, cW: float, h: float, x, y):
    """The candidate (cg*g)(x - h*y) + h*(cW*W)(y) of Q_h of the pair."""
    return cg * np.asarray(g.fn(x - h * y), dtype=float) + h * cW * np.asarray(W.fn(y), dtype=float)


def _pointwise_bracket(
    g, W, h: float, points, domain: EpigraphDomain | None = None, cg: float = 1.0, cW: float = 1.0
):
    """(floor, ceiling) of Q_h of the pair (cg*g, cW*W) at points of B_h (of
    R^n without a domain), for fields g and W that carry a gradient and a
    conjugate, g on domain and W on domain + e.

    Ceiling: the exact candidate at the scaling witness y of
    :func:`_witness`. Floor: Fenchel-Young at p = grad (cg*g)(x - h*y),
    p.x - F(p) with F from :func:`_hopf_terms`, lowered by _HOPF_ULPS ulps
    of the sum of the magnitudes of its terms; it bounds Q_h from below for
    any g and W, the conjugates over R^n bounding those of the restricted
    functions from above (:func:`_hopf_bracket`'s floor at one slope). Where
    the witness is the minimizer the two agree to rounding; no iteration
    refines it. Unit scales leave every product exact. Points are used in
    the layout they come in.
    """
    x = np.asarray(points, dtype=float)
    y = _witness(x, h, domain)
    ceiling = _candidate(g, W, cg, cW, h, x, y)
    p = cg * g.gradient(x - h * y)
    Fg, FW = _hopf_terms(g, W, cg, cW, h, p)
    px = p * x
    terms = np.sum(np.abs(px), axis=-1) + np.abs(Fg) + np.abs(FW)
    floor = np.sum(px, axis=-1) - Fg - FW - _HOPF_ULPS * np.finfo(float).eps * terms
    return floor, ceiling


def _hopf_bracket(g, W, cg: float, cW: float, h: float, axes, domain: EpigraphDomain):
    """(floor, ceiling) of Q_h of the pair (cg*g, cW*W), g on domain and W on
    domain + e, at the nodes of the output axes; both are +inf outside B_h.

    Floor. For every slope p, Fenchel-Young on both terms of the infimum gives
    Q_h(x) >= p.x - F(p) with F(p) = cg*g*(p/cg) + h*cW*W*(p/cW)
    (:func:`_hopf_terms`), for any g and W; the conjugates the fields carry,
    taken over all of R^n, bound those of the restricted functions from
    above, so the bound holds with them. For convex g and W the sup over p
    is Q_h itself (the Hopf formula).
    The floor is the discrete Legendre transform of F on a tensor dual grid,
    one :func:`_legendre_lines` sweep per axis. Axis d has twice the output
    nodes, graded as r_d*sinh(9t)/sinh(9) for t uniform on [-1, 1], where r_d
    is 1.2 times the largest |d/dx_d (cg*g)| at the witness points below; the
    grading puts the slopes densely near 0, where the conjugates curve most.
    The floor is then lowered by _HOPF_ULPS ulps of the sum of the magnitudes
    of its terms at the maximizing slope p^, which covers the rounding of the
    sweeps and of the conjugates.

    Ceiling. The least exact candidate cg*g(x - h*y) + h*cW*W(y) over the
    feasible y among the minimizer grad (cW*W)*(p^) of the convex case (by
    central differences of W's conjugate) and the witness (x + e)/(1 + h).
    Any feasible y gives an upper bound of Q_h. The minimizer counts where
    the domain's membership tests admit it; the witness counts at every node
    of B_h with no test, being feasible there by construction
    (:func:`_witness`), where a rounded test rejects it at some boundary
    nodes of cones.

    Fields, conjugates and domains see at most about _HOPF_BLOCK points per
    call: F is sampled, and the output nodes are visited, in blocks of
    leading-axis rows.
    """
    n = len(axes)

    def blocks(lead, size):
        step = max(1, _HOPF_BLOCK * len(lead) // size)
        return [slice(i, i + step) for i in range(0, len(lead), step)]

    def mesh(lead, rest):
        return np.stack(np.meshgrid(lead, *rest, indexing="ij"), axis=-1)

    shape = tuple(len(ax) for ax in axes)
    rows = blocks(axes[0], int(np.prod(shape)))

    def nodes(i):
        """The output nodes of rows i, their B_h mask and their witnesses."""
        X = mesh(axes[0][i], axes[1:])
        inside = X[..., -1] >= domain.bh_lower(X[..., :-1], h)
        return X, inside, _witness(X, h, domain)

    reach = np.zeros(n)
    for i in rows:
        X, inside, witness = nodes(i)
        if inside.any():
            grad = cg * g.gradient(X[inside] - h * witness[inside])
            reach = np.maximum(reach, np.max(np.abs(grad), axis=0))
    duals = [
        1.2 * r * np.sinh(9.0 * np.linspace(-1.0, 1.0, 2 * m)) / np.sinh(9.0)
        for r, m in zip(reach, shape)
    ]
    work = np.empty(tuple(len(p) for p in duals))
    for i in blocks(duals[0], work.size):
        Fg, FW = _hopf_terms(g, W, cg, cW, h, mesh(duals[0][i], duals[1:]))
        work[i] = Fg + FW
    # sweep d maximizes over the slopes of axis d, for every output node of
    # the axes before it, as legendre_nd sweeps; the argmaxes trace p^ back
    # from the last sweep
    args = []
    for d in range(n):
        moved = np.moveaxis(work, d, -1)
        vals, arg = _legendre_lines(duals[d], moved.reshape(-1, moved.shape[-1]), axes[d])
        out = moved.shape[:-1] + (shape[d],)
        work = np.moveaxis(vals.reshape(out), -1, d)
        args.append(np.moveaxis(arg.reshape(out), -1, d))
        if d < n - 1:
            work = -work

    floor = np.full(shape, INF)
    ceiling = np.full(shape, INF)
    for i in rows:
        X, inside, witness = nodes(i)
        idx = np.indices(X.shape[:-1], sparse=True)
        at = [args[-1][i]]
        for d in range(n - 2, -1, -1):
            at.insert(0, args[d][i][idx[: d + 1] + tuple(at)])
        p_hat = np.stack([duals[d][k] for d, k in enumerate(at)], axis=-1)
        Fg, FW = _hopf_terms(g, W, cg, cW, h, p_hat)
        terms = np.sum(np.abs(p_hat * X), axis=-1) + np.abs(Fg) + np.abs(FW)
        floor[i] = np.where(inside, work[i] - _HOPF_ULPS * np.finfo(float).eps * terms, INF)
        y = _central_gradient(W.conjugate, p_hat / cW)
        feasible = inside & domain.contains(X - h * y, 0.0) & domain.contains(y, 1.0)
        for y, ok in ((y, feasible), (witness, inside)):
            cand = _candidate(g, W, cg, cW, h, X, y)
            ceiling[i] = np.where(ok, np.minimum(ceiling[i], cand), ceiling[i])
    return floor, ceiling


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


def hj_difference_quotient(g, W, h_list: Sequence[float], points: np.ndarray):
    """Difference quotients (Q_h(g)(x) - g(x)) / h against -W*(grad g(x)),
    for fields g and W on R^n that carry a gradient and a conjugate.

    Returns (quotients, extrapolated limit, reference, deviation) with one row
    per point. h_list must be strictly decreasing; the limit is the iterated
    Richardson extrapolation of the first-order quotient along the list.
    Q_h(g) is the floor of :func:`_pointwise_bracket`, a lower bound for any
    g and W whose quotient tends to -W*(grad g(x)) as h -> 0 for every
    differentiable convex g, since its slope grad g(x - h*y) tends to
    grad g(x); it equals Q_h where the scaling witness x/(1 + h) is the
    minimizer.
    """
    hs = np.asarray(h_list, dtype=float)
    if np.any(np.diff(hs) >= 0) or np.any(hs <= 0):
        raise ValueError("h_list must be positive and strictly decreasing")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    g0 = g(pts)
    quot = np.empty((pts.shape[0], len(hs)))
    for k, h in enumerate(hs):
        quot[:, k] = (_pointwise_bracket(g, W, h, pts)[0] - g0) / h

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
    ref = -np.asarray(W.conjugate(g.gradient(pts)), dtype=float)
    deviation = np.abs(limit - ref)
    return quot, limit, ref, deviation
