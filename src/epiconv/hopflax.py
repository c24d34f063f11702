"""Infimal convolution and the Hopf-Lax operator on grids, on one kernel.

``hopflax_apply`` evaluates Q_h(g)(x) = min_y g(x - h*y) + h*W(y) with y
running over the cost grid and g evaluated by multilinear interpolation at the
off-grid points x - h*y. Interpolation is conservative at the domain: a point
outside g's box or in a cell with a +inf corner evaluates to +inf. The second
half of that rule is plain arithmetic in ``_interp_lattice``: every corner
weight is positive, so a +inf corner makes the weighted sum +inf, and since
g holds no NaN or -inf the sum is never NaN. What the discrete value bounds
is stated below, next to the bounds that prune it.

The output grid is g's box plus h times W's box at g's spacing, so the
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
going to the smallest flat index. h = 0 is g's lattice at the zero shift, on
g's own grid, with no argmin; W plays no part.

An apply at h > 0 prunes candidates that cannot win. The strided cost nodes
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
values and argmins are those of the full scan, bit for bit, for any g and W
of any size.

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

``infconv`` is Q_1 with the cost on g's own lattice: the exact min-plus
convolution of two grid functions with shared spacing. It runs the same kernel
with every offset zero: one class, no interpolation and nothing to prune; each
finite output node records an attaining argmin, the smallest flat index among
ties.

An analytic pair, g and W carrying their gradients and conjugates, needs no
grid: ``_pointwise_bracket`` brackets its Q_h at arbitrary points in closed
form. Above is the exact candidate at the scaling witness (x + e)/(1 + h),
which is feasible throughout B_h on every convex domain by construction and
the minimizer for g = W(. + e); below is the Hopf formula's Fenchel-Young
bound at one slope, that of g at the witness's candidate point. It is the
one evaluation of Q_h for analytic pairs: ``bblcheck.bbl_gap_fields`` and
``bblcheck.equivalence_scan`` (both on a rescaled pair, at the nodes of
graded quadrature sweeps), ``bblcheck.appendix_limit_residual`` and
``hj_difference_quotient`` read it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .extgrid import INF, EpigraphDomain, ExtGridFn, _unit_e

__all__ = [
    "InfConvResult",
    "infconv",
    "hopflax_apply",
    "semigroup_residual",
    "hj_difference_quotient",
]

# stride of the incumbent scan, in cost-grid nodes per axis; also the least
# cost nodes per pruning block
_COARSE_STRIDE = 4
# most interpolated lattices of g the candidate kernel keeps at once, the
# offset classes of one chunk (16 are 1.7 MB for a 161 x 81 g)
_LATTICE_CACHE = 16
# fractional lattice offsets within _SNAP of a gridline snap onto it
_SNAP = 1e-9
# ulps of the sum of the magnitudes of its terms by which _pointwise_bracket
# lowers its Fenchel-Young floor, covering the rounding of the conjugates and
# of the sum
_HOPF_ULPS = 8


@dataclass
class InfConvResult:
    values: ExtGridFn
    argmin: np.ndarray  # flat index into the y-grid, -1 where the value is +inf


def _check_same_spacing(f: ExtGridFn, g: ExtGridFn):
    if f.dim != g.dim:
        raise ValueError("operands must share dimension")
    for d, (a, b) in enumerate(zip(f.spacing, g.spacing)):
        if not abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b)):
            raise ValueError(f"axis {d}: grid spacings differ ({a} vs {b})")


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
    for d, step in enumerate(g.steps):
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


def _interp_lattice(vals: np.ndarray, fracs) -> np.ndarray:
    """vals interpolated at i + fracs for every index i whose cell lies in
    vals.

    Corners are summed from +0.0 in a fixed order, so every lattice value is
    one fixed float expression (and a -0.0 node at zero fractions reads as
    +0.0). Each fraction is 0 or lies in (_SNAP, 1 - _SNAP), so every corner
    weight is positive and no corner is ever dropped: a +inf corner makes its
    cell's sum +inf, and as vals holds no NaN or -inf, never NaN.
    """
    corners = [(0, 1) if fr > 0.0 else (0,) for fr in fracs]
    shape = tuple(m - len(c) + 1 for m, c in zip(vals.shape, corners))
    acc = np.zeros(shape)
    for corner in itertools.product(*corners):
        w = 1.0
        for fr, c, options in zip(fracs, corner, corners):
            if len(options) == 2:
                w *= fr if c else 1.0 - fr
        acc += vals[tuple(slice(c, c + m) for c, m in zip(corner, shape))] * w
    return acc


def _interpolator(g: ExtGridFn):
    """(offset fractions, region) -> g's interpolated lattice at those
    fractions over the region, a tuple of slices of lattice points."""

    def lattice(fracs, region):
        corners = tuple(slice(r.start, r.stop + (f > 0.0)) for r, f in zip(region, fracs))
        return _interp_lattice(g.values[corners], fracs)

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
    :func:`_prune_boxes`).

    The classes go in chunks of at most _LATTICE_CACHE: per axis, groups of
    consecutive keys whose sizes multiply to at most _LATTICE_CACHE. A chunk
    builds each of its lattices once, at first use, over the bounding box of
    the lattice points that the chunk's nodes of that class read, and drops
    them all when it ends. It scans its cost nodes row by row (all leading
    indices fixed) in ascending flat order into its own accumulators, where a
    candidate replaces the incumbent only when strictly smaller, so ties go
    to the smallest flat index; every chunk, a lone one included, then
    merges into the result by (value, smallest flat index). Every candidate
    is the same float expression whatever the chunk and region, so the
    result is the scan of all nodes in flat order.
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
    cvals, carg = np.empty(shape), np.empty(shape, np.int64)

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
    """ufunc (np.maximum or np.minimum) reduced over the windows of
    lengths[d] consecutive nodes of a per axis, indexed by the window's first
    node; axis by axis, which is exact for both."""
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
    for (glo, ghi), (wlo, whi), step in zip(g.box, W.box, g.steps):
        lo = glo + h * wlo
        hi = ghi + h * whi
        m = int(round((hi - lo) / step)) + 1
        hi = lo + (m - 1) * step
        box.append((lo, hi))
        axes.append(np.linspace(lo, hi, m))
    return tuple(box), axes


def hopflax_apply(g: ExtGridFn, W: ExtGridFn, h: float) -> InfConvResult:
    """Q_h(g)(x) = min over cost-grid nodes y of g(x - h*y) + h*W(y).

    The output grid is g's box plus h times W's box at g's steps. Ties in
    the minimum go to the smallest flat y index. h = 0 reads g's lattice at
    the zero shift on g's own grid: g, except that a -0.0 node comes back as
    +0.0. Its argmin is -1 everywhere, and W is not read.

    One algorithm serves every grid: each finite y node's candidates are
    evaluated except those its cost block's lower bound puts above the
    strided incumbent by more than the rounding allowance, so the result
    equals the scan of all candidates bit for bit, whatever the size or
    shape of g and W. Each offset class of g is interpolated once, with at
    most _LATTICE_CACHE lattices alive (the module docstring has the class
    chunks, their merge rule and the bound).
    """
    if h < 0:
        raise ValueError("h must be nonnegative")
    if h == 0.0:
        vals = _interp_lattice(g.values, (0.0,) * g.dim)
        return InfConvResult(ExtGridFn(g.box, vals), np.full(g.resolution, -1, dtype=np.int64))
    if g.dim != W.dim:
        raise ValueError("g and W must share dimension")
    box, axes = _default_out_grid(g, W, h)
    vals, arg = _hopflax_exact(g, W, h, axes, tuple(len(ax) for ax in axes))
    return InfConvResult(ExtGridFn(box, vals), arg)


def _hopflax_exact(g, W, h, axes, shape):
    # the pruned scan of an apply at h > 0, its own entry point so that a
    # trace times the kernel apart from the argument checks
    active = np.isfinite(W.values)
    tables = _axis_tables(g, [h * ax for ax in W.axes], axes)
    weights = h * W.values
    boxes = _prune_boxes(g, tables, shape, weights, active)
    return _scan_candidates(_interpolator(g), tables, shape, weights, active, boxes)


def _scaled_conjugate(conjugate, c: float, p, t: float = 1.0):
    """t*(c*f)*(p) for f's conjugate, by the rule (c*f)*(p) = c*f*(p/c)."""
    return t * c * np.asarray(conjugate(p / c), dtype=float)


def _pointwise_bracket(
    g, W, h: float, points, domain: EpigraphDomain | None = None, cg: float = 1.0, cW: float = 1.0
):
    """(floor, ceiling) of Q_h of the pair (cg*g, cW*W) at points of B_h (of
    R^n without a domain), for fields g and W that carry a gradient and a
    conjugate, g on domain and W on domain + e.

    Ceiling: the exact candidate (cg*g)(x - h*y) + h*(cW*W)(y) at the
    scaling witness y = (x + e)/(1 + h), e = 0 without a domain. At
    x = (1+h)*z + h*e in B_h, z in Omega, the witness gives x - h*y = z in
    Omega and y = z + e in Omega + e, so its candidate is feasible by
    construction on every convex domain, with no membership test. By
    convexity of W, W(x - h*y + e) + h*W(y) >= (1+h)*W(witness), so the
    witness is the exact minimizer for g = W(. + e).

    Floor: Fenchel-Young at p = grad (cg*g)(x - h*y), p.x - F(p) with
    F(p) = (cg*g)*(p) + h*(cW*W)*(p), lowered by _HOPF_ULPS ulps of the sum
    of the magnitudes of its terms. It bounds Q_h from below for any g and
    W, the conjugates over R^n bounding those of the restricted functions
    from above, and for convex g and W the sup of p.x - F(p) over all p is
    Q_h itself (the Hopf formula). Where the witness is the minimizer the
    two agree to rounding; no iteration refines them. Unit scales leave
    every product exact. Points are used in the layout they come in.
    """
    x = np.asarray(points, dtype=float)
    e = 0.0 if domain is None else _unit_e(x.shape[-1])
    y = (x + e) / (1.0 + h)
    z = x - h * y
    ceiling = cg * np.asarray(g.fn(z), dtype=float) + h * cW * np.asarray(W.fn(y), dtype=float)
    p = cg * g.gradient(z)
    Fg = _scaled_conjugate(g.conjugate, cg, p)
    FW = _scaled_conjugate(W.conjugate, cW, p, h)
    px = p * x
    terms = np.sum(np.abs(px), axis=-1) + np.abs(Fg) + np.abs(FW)
    floor = np.sum(px, axis=-1) - Fg - FW - _HOPF_ULPS * np.finfo(float).eps * terms
    return floor, ceiling


def semigroup_residual(
    g: ExtGridFn,
    W: ExtGridFn,
    h: float,
    s: float,
) -> float:
    """max over common finite nodes of |Q_h(g) - Q_{h-s}(Q_s(g))|.

    Collapses to exactly zero when s is 0 or h. The composed operator is
    evaluated on the grid of Q_h(g) so the comparison is node for node: its
    own default grid rounds the node count twice and may differ by one.
    """
    if not 0.0 <= s <= h:
        raise ValueError("need 0 <= s <= h")
    full = hopflax_apply(g, W, h).values
    inner = hopflax_apply(g, W, s).values
    # at s = h the outer step is the identity; the kernel would form 0 * (+inf W)
    if s == h:
        outer = inner.values
    else:
        outer = _hopflax_exact(inner, W, h - s, full.axes, full.resolution)[0]
    both = full.finite_mask & np.isfinite(outer)
    if not both.any():
        return 0.0
    return float(np.max(np.abs(full.values[both] - outer[both])))


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
