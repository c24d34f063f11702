"""Infimal convolution and the Hopf-Lax operator on grids, on one kernel.

``hopflax_apply`` evaluates Q_h(g)(x) = min_y g(x - h*y) + h*W(y) with y
running over the cost grid and g evaluated by multilinear interpolation at the
off-grid points x - h*y. Interpolation is conservative: a point outside g's
box or in a cell with a +inf corner evaluates to +inf, so the discrete
operator stays an upper bound of the continuum one and inequality directions
are preserved. This module holds the only copy of that rule.

At every h the output grid shares g's spacing (any other is rejected), so the
points x - h*y of one cost node y all sit at the same fractional offset from
g's lattice: the tuple of per-axis fractions is y's offset class. The
candidate kernel interpolates g once per class over g's own lattice, and then
each y costs one slice of that lattice plus h*W(y), taken over the output
nodes y can reach. The offsets are floats, so rounding splits what would be
one rational fraction into several (at h = 0.1 on a dx = 0.1 grid, 49 x 44
classes where the rational structure has 10 x 10); every distinct tuple is
its own class, interpolated once per apply. The kernel takes the classes in
chunks of at most _LATTICE_CACHE lattices, scans a chunk's cost nodes in
ascending flat order into chunk accumulators, a candidate replacing the
incumbent only when strictly smaller, and merges each chunk into the result
by (value, smallest flat index). Every candidate is one fixed float
expression whatever its chunk, so the result is that of a single flat-order
scan, ties going to the smallest flat index. h = 0 returns g itself, or on a
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
outputs where its block has LB <= U + allowance. The allowance, (2^n + n + 6)
ulps of the largest finite |g| plus the largest finite h*W, covers
interpolated sums that round a few ulps outside the range of their corners
(four equal corners round below it in about one draw of fractions in seven)
and the rounding of U and LB.
Pruning therefore only drops candidates strictly above the minimum: values and
argmins are those of the full scan, bit for bit, for any g, with no convexity
certificate involved.

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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .extgrid import INF, EpigraphDomain, ExtGridFn, _unit_e
from .quadrature import _mesh_points

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
# stride of the exact path's incumbent scan and of the twostage strided scan,
# in cost-grid nodes per axis; also the twostage window radius around a
# strided argmin and the least cost nodes per pruning block
_COARSE_STRIDE = 4
# most interpolated lattices of g the candidate kernel keeps at once, the
# offset classes of one chunk (16 are 1.7 MB for a 161 x 81 g)
_LATTICE_CACHE = 16
# fractional lattice offsets within _SNAP of a gridline snap onto it
_SNAP = 1e-9


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
    """Offset fractions -> g's interpolated lattice at those fractions."""
    ginf = ~np.isfinite(g.values)
    g0 = np.where(ginf, 0.0, g.values)
    cell_inf = {}

    def lattice(fracs):
        tops = tuple(int(f > 0.0) for f in fracs)
        if tops not in cell_inf:
            marked = _window_reduce(np.logical_or, ginf, [t + 1 for t in tops])
            cell_inf[tops] = marked if marked.any() else None
        return _interp_lattice(g0, cell_inf[tops], fracs)

    return lattice


def _scan_candidates(lattice, tables, shape, weights, active, boxes=None):
    """min over the active cost nodes y of a lattice read at y's offset plus
    weights[y], with (values, argmin) of the given shape; +inf and -1 where
    no y has a finite candidate.

    tables[d] = (lo, hi, base, key) over the cost index y_d: y reaches the
    output nodes lo <= k < hi along d and reads lattice point k + base there
    (as :func:`_axis_tables` builds them, key being the fraction). The keys
    of y form its offset class, and lattice(keys) gives the class's lattice.
    With boxes = (blocks, box_lo, box_hi), y only reaches the outputs inside
    its cost block's box (see :func:`_prune_boxes` and :func:`_window_boxes`).

    The classes go in chunks of at most _LATTICE_CACHE: per axis, groups of
    consecutive keys whose sizes multiply to at most _LATTICE_CACHE. A chunk
    builds each of its lattices once, at first use, and drops them all when
    it ends. It scans its cost nodes row by row (all leading indices fixed)
    in ascending flat order into its own accumulators, where a candidate
    replaces the incumbent only when strictly smaller, so ties go to the
    smallest flat index; the chunk then merges into the result by (value,
    smallest flat index). Every candidate is the same float expression
    whatever the chunk, so the result is the scan of all nodes in flat order.
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
    radix = np.cumprod([1] + [len(uniq) for uniq in keys[:0:-1]])[::-1].tolist()
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
        if not single:
            cvals.fill(INF)
            carg.fill(-1)
        lattices = {}
        for lead in itertools.product(*(m.tolist() for m in lead_members)):
            ys, outs, srcs = _row_slices(tables, boxes, lead, last[active[lead][last]])
            if not ys.size:
                continue
            flat = sum(i * s for i, s in zip(lead, strides)) + ys
            cls = sum(ids[i] * r for ids, i, r in zip(class_ids, lead + (ys,), radix))
            rows = zip(flat.tolist(), flat_w[flat].tolist(), cls.tolist(), outs, srcs)
            for j, w, c, out, src in rows:
                lat = lattices.get(c)
                if lat is None:
                    fracs = tuple(k[(c // r) % len(k)] for k, r in zip(keys, radix))
                    lat = lattices[c] = lattice(fracs)
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


def _row_slices(tables, boxes, lead, ys):
    """(ys, output slices, lattice slices) of the cost nodes lead + (y,), y
    in ys; with boxes, each output range is cut to its block's box and the
    nodes left with no output are dropped."""
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

    def slices(start, stop):
        return zip(*map(map, itertools.repeat(slice), start.tolist(), stop.tolist()))

    return ys, slices(lo, hi), slices(lo + base, hi + base)


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


def _prune_boxes(g: ExtGridFn, tables, shape, weights, active):
    """Per cost block, the bounding box of the output nodes where one of its
    candidates can be the minimum, as (blocks, box_lo, box_hi) for
    :func:`_scan_candidates`; None when no cost node reaches an output.

    The incumbent U is the strided nodes' scan over cell-max lattices; a
    block's bound LB at output x is the min of g over its node window at x
    plus its least weight (the module docstring has why both hold). Outputs
    where LB exceeds U by more than the allowance are dropped. The allowance,
    (2^n + n + 6) ulps of the largest finite |g| plus the largest finite
    weight, covers interpolated sums that round a few ulps outside the range
    of their corners (below the window min of LB, above the cell max of U)
    and the rounding of the additions.
    """
    ndim = len(tables)
    if not all((lo < hi).any() for lo, hi, _base, _frac in tables):
        return None
    cell_max = {}

    def upper(tops):
        if tops not in cell_max:
            cell_max[tops] = _window_reduce(np.maximum, g.values, [t + 1 for t in tops])
        return cell_max[tops]

    top_tables = [(lo, hi, base, (frac > 0.0).astype(int)) for lo, hi, base, frac in tables]
    incumbent = _scan_candidates(upper, top_tables, shape, weights, _strided(active))[0]
    del cell_max  # not needed past the incumbent
    scale = np.abs(g.values[np.isfinite(g.values)]).max(initial=0.0)
    scale += np.abs(weights[active]).max(initial=0.0)
    incumbent += (2**ndim + ndim + 6) * np.finfo(float).eps * scale

    blocks, reach, starts, bmin, length, out_lo, out_hi = zip(
        *(_axis_blocks(*table) for table in tables)
    )
    least = np.where(active, weights, INF)
    for d in range(ndim):
        least = np.minimum.reduceat(np.take(least, reach[d], axis=d), starts[d], axis=d)
    pad = [int(n.max()) - 1 for n in length]
    gpad = np.pad(g.values, [(p, p) for p in pad], constant_values=INF)
    box_lo = [np.zeros(least.shape, dtype=np.int64) for _ in range(ndim)]
    box_hi = [np.zeros(least.shape, dtype=np.int64) for _ in range(ndim)]
    # blocks by window lengths, so one window-min array is alive at a time
    found = np.nonzero(np.isfinite(least))
    lengths = np.stack([n[b] for n, b in zip(length, found)], axis=1)
    order = np.lexsort(lengths.T[::-1])
    out_lo, out_hi = [a.tolist() for a in out_lo], [a.tolist() for a in out_hi]
    shift = [(b + p).tolist() for b, p in zip(bmin, pad)]
    window = None
    for blk, lens in zip(zip(*(b[order].tolist() for b in found)), lengths[order].tolist()):
        if window != lens:
            window = lens
            mins = _window_reduce(np.minimum, gpad, window)
        out = tuple(slice(out_lo[d][b], out_hi[d][b]) for d, b in enumerate(blk))
        win = tuple(
            slice(o.start + shift[d][b], o.stop + shift[d][b])
            for d, (o, b) in enumerate(zip(out, blk))
        )
        keep = mins[win] + least[blk] <= incumbent[out]
        for d in range(ndim):
            hit = np.flatnonzero(keep.any(axis=tuple(a for a in range(ndim) if a != d)))
            if not hit.size:
                break
            box_lo[d][blk] = out[d].start + hit[0]
            box_hi[d][blk] = out[d].start + hit[-1] + 1
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
            lattice = _interpolator(g)(tuple(frac.tolist()))
            src = tuple(map(slice, lo + base, hi + base))
            vals[tuple(map(slice, lo, hi))] = lattice[src]
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

    The candidates are stored coordinate-major, one contiguous plane per
    coordinate, and g_fn, W_fn and the domains see them as (..., n) views of
    that storage. A callable must not write to the points, must give the same
    bytes whatever their memory layout, and copies them itself if it needs C
    order.
    """
    pts_all = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts_all.shape[1]
    if h == 0.0:
        vals = np.asarray(g_fn(pts_all), dtype=float)
        if g_domain is not None:
            vals = np.where(g_domain.contains(pts_all, 0.0), vals, INF)
        return vals

    # candidate offsets as (n, k) coordinate planes, nodes in row-major order
    local = _mesh_points([np.array([-1.0, -0.5, 0.0, 0.5, 1.0])] * n).T
    if y_box is not None:
        if y_resolution is None:
            raise ValueError("y_resolution is required with an explicit y_box")
        mesh = _mesh_points(
            [np.linspace(lo, hi, m) for (lo, hi), m in zip(y_box, y_resolution)]
        ).T
        width0 = np.array(
            [(hi - lo) / max(m - 1, 1) for (lo, hi), m in zip(y_box, y_resolution)]
        )
        ncand = mesh.shape[1]
    else:
        m = 13
        unit = _mesh_points([np.linspace(-1.0, 1.0, m)] * n).T
        ncand = unit.shape[1]

    out = np.empty(pts_all.shape[0])
    chunk = max(1, int(100_000 / max(ncand, 1)))
    for i0 in range(0, pts_all.shape[0], chunk):
        pts = pts_all[i0 : i0 + chunk]
        x = np.ascontiguousarray(pts.T)  # (n, npts)
        npts = x.shape[1]

        def objective(y):  # y: (n, npts or 1, k) coordinate planes
            q = x[:, :, None] - h * y
            qv, yv = np.moveaxis(q, 0, -1), np.moveaxis(y, 0, -1)
            gv = np.asarray(g_fn(qv), dtype=float)
            if g_domain is not None:
                gv = np.where(g_domain.contains(qv, 0.0), gv, INF)
            wv = np.asarray(W_fn(yv), dtype=float)
            if W_domain is not None:
                wv = np.where(W_domain.contains(yv, 1.0), wv, INF)
            return gv + h * wv

        if y_box is not None:
            # every point scans the same box, so W reads its nodes once
            coarse = objective(mesh[:, None, :])
            centers = mesh[:, np.argmin(coarse, axis=1)]
            width = np.broadcast_to(width0[:, None], x.shape)
        else:
            radius = 4.0 * (1.0 + np.linalg.norm(pts, axis=-1))
            xe = x + _unit_e(n)[:, None]
            cand = np.empty((n, npts, ncand + (2 if W_domain is not None else 0)))
            cand[:, :, :ncand] = xe[:, :, None] + unit[:, None, :] * radius[:, None]
            if W_domain is not None:
                # guaranteed-feasible seeds for boundary points, where the
                # feasible slice is too thin for a blind scan: the support-set
                # witness y1 = x1/(1+h) at the shifted boundary height, and
                # the scaling witness (x + e)/(1+h)
                y1w = x[:-1] / (1.0 + h)
                cand[:-1, :, ncand] = y1w
                cand[-1, :, ncand] = 1.0 + W_domain.phi(y1w.T)
                cand[:, :, ncand + 1] = xe / (1.0 + h)
            coarse = objective(cand)
            centers = cand[:, np.arange(npts), np.argmin(coarse, axis=1)]
            width = np.broadcast_to(2.0 * radius / (m - 1), x.shape)
        best = np.min(coarse, axis=1)
        for _ in range(zoom_iters):
            cand = centers[:, :, None] + local[:, None, :] * width[:, :, None]
            cv = objective(cand)
            k = np.argmin(cv, axis=1)
            cbest = cv[np.arange(npts), k]
            improve = cbest < best
            best = np.where(improve, cbest, best)
            centers = np.where(improve, cand[:, np.arange(npts), k], centers)
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
    g0 = np.asarray(g_fn(pts), dtype=float)
    quot = np.empty((pts.shape[0], len(hs)))
    for k, h in enumerate(hs):
        q = hopflax_pointwise(g_fn, W_fn, h, pts, y_box, y_resolution)
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
