"""Independent reference implementations used as test oracles.

Everything here stays deliberately naive: explicit loops, closed forms from
polar coordinates, and scalar interpolation, so that agreement with the
library is evidence and not tautology. The discontinuous inf-convolution
fixture and its closed form live here too, next to the domain-sum check. The
``*_reference`` functions are earlier, straightforward library implementations
kept verbatim, so that the faster code that replaced them can be held to the
same bits.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from epiconv.extgrid import _SNAP, INF, ExtGridFn
from epiconv.hopflax import (
    _COARSE_STRIDE,
    InfConvResult,
    _axis_tables,
    _scan_candidates,
    infconv,
)
from epiconv.quadrature import (
    _axis_nodes,
    _fit_tail_K,
    _shell_boxes,
    _trap_weights,
    power_tail_bound,
)


def brute_conjugate_1d(xs, vals, slopes):
    """Exhaustive sup_i (x_i * y - f_i), smallest index winning ties."""
    out = np.empty(len(slopes))
    arg = np.empty(len(slopes), dtype=np.int64)
    for k, y in enumerate(slopes):
        best = -np.inf
        bi = -1
        for i, (x, v) in enumerate(zip(xs, vals)):
            if not np.isfinite(v):
                continue
            c = x * y - v
            if c > best:
                best, bi = c, i
        out[k] = best
        arg[k] = bi
    return out, arg


def _lower_hull_reference(xs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Indices of the lower convex hull of the finite sample graph."""
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


def legendre_1d_reference(xs: np.ndarray, vals: np.ndarray, slopes: np.ndarray):
    """Discrete conjugate g(y) = max_i (x_i*y - f_i) by the hull walk.

    Returns (values, argmax indices). Matches the exhaustive scan exactly,
    including the smallest-index tie break: the hull walk only locates the
    crossing, the winning value is then taken by a float scan of a window
    around it.
    """
    xs = np.asarray(xs, dtype=float)
    vals = np.asarray(vals, dtype=float)
    slopes = np.asarray(slopes, dtype=float)
    if np.any(np.diff(xs) <= 0):
        raise ValueError("sample abscissae must be strictly increasing")
    finite = np.isfinite(vals)
    if not finite.any():
        raise ValueError("conjugate of an improper function (all samples +inf)")
    idx_map = np.flatnonzero(finite)
    xf = xs[finite]
    vf = vals[finite]
    hull = _lower_hull_reference(xf, vf)
    hx = xf[hull]
    hv = vf[hull]
    edge = np.diff(hv) / np.diff(hx) if len(hull) > 1 else np.empty(0)

    order = np.argsort(slopes, kind="stable")
    out = np.empty(len(slopes))
    arg = np.empty(len(slopes), dtype=np.int64)
    j = 0
    for k in order:
        y = slopes[k]
        while j < len(edge) and edge[j] <= y:
            j += 1
        lo = max(0, j - 2)
        hi = min(len(hull), j + 3)
        window = hull[lo:hi]
        cand = xf[window] * y - vf[window]
        b = int(np.argmax(cand))
        out[k] = cand[b]
        arg[k] = idx_map[window[b]]
    return out, arg


def brute_conjugate_nd(axes, vals, dual_axes):
    """Double loop over dual and primal nodes.

    The candidate accumulates axis terms in ascending axis order starting
    from -f, the association the separable sweep produces, so exact float
    comparison is meaningful.
    """
    dual_shape = tuple(len(ax) for ax in dual_axes)
    out = np.full(dual_shape, -np.inf)
    for jm in np.ndindex(*dual_shape):
        y = [dual_axes[d][jm[d]] for d in range(len(dual_axes))]
        best = -np.inf
        for im in np.ndindex(*vals.shape):
            v = vals[im]
            if not np.isfinite(v):
                continue
            acc = -v
            for d in range(len(axes)):
                acc = axes[d][im[d]] * y[d] + acc
            if acc > best:
                best = acc
        out[jm] = best
    return out


def naive_infconv(fv, gv):
    """Scalar triple loop min-plus convolution.

    Returns (values, argmin) with the argmin the smallest flat f-index that
    attains the minimum, -1 where the value is +inf.
    """
    out_shape = tuple(a + b - 1 for a, b in zip(fv.shape, gv.shape))
    out = np.full(out_shape, np.inf)
    arg = np.full(out_shape, -1, dtype=np.int64)
    for km in np.ndindex(*out_shape):
        best = np.inf
        best_j = -1
        for jflat, jm in enumerate(np.ndindex(*fv.shape)):
            im = tuple(k - j for k, j in zip(km, jm))
            if any(i < 0 or i >= m for i, m in zip(im, gv.shape)):
                continue
            c = fv[jm] + gv[im]
            if c < best:
                best, best_j = c, jflat
        out[km] = best
        arg[km] = best_j
    return out, arg


def domain_sum_check(f: ExtGridFn, g: ExtGridFn, result: InfConvResult | None = None):
    """Does dom(f box g) equal dom f + dom g as index sets?

    Returns (ok, witness); the witness is an output index in the symmetric
    difference when the sets disagree (they should not, for exact lattice
    min-plus with total +inf algebra).
    """
    if result is None:
        result = infconv(f, g)
    fi = f.domain_indices
    gi = g.domain_indices
    out_shape = result.values.resolution
    expected = np.zeros(out_shape, dtype=bool)
    if fi.size and gi.size:
        sums = (fi[:, None, :] + gi[None, :, :]).reshape(-1, f.dim)
        expected[tuple(sums.T)] = True
    actual = result.values.finite_mask
    if np.array_equal(expected, actual):
        return True, None
    diff = np.argwhere(expected != actual)
    return False, tuple(diff[0])


def counterexample_pair(step: float = 0.25) -> tuple[ExtGridFn, ExtGridFn]:
    """The discontinuous inf-convolution fixture on a lattice of spacing step.

    f is 1 on the horizontal segment [0,1]x{0} and 1-x2 on the vertical
    segment {0}x[0,1]; g is the indicator (value 0) of the vertical segment
    {0}x[0,1]. Their min-plus convolution has the closed piecewise form of
    :func:`counterexample_table` and is discontinuous at the left edge of the
    unit square.
    """
    m = int(round(1.0 / step)) + 1
    big = 2 * m - 1  # covers [0, 2]
    xs = np.linspace(0.0, 2.0, big)
    fv = np.full((big, big), INF)
    gv = np.full((big, big), INF)
    for i, x1 in enumerate(xs):
        for j, x2 in enumerate(xs):
            if x2 == 0.0 and 0.0 <= x1 <= 1.0:
                fv[i, j] = 1.0
            if x1 == 0.0 and 0.0 <= x2 <= 1.0:
                fv[i, j] = min(fv[i, j], 1.0 - x2)
                gv[i, j] = 0.0
    box = ((0.0, 2.0), (0.0, 2.0))
    return ExtGridFn(box, fv), ExtGridFn(box, gv)


def counterexample_table(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Closed form of the fixture's inf-convolution, +inf off its domain."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    out = np.full(np.broadcast_shapes(x1.shape, x2.shape), INF)
    sq = (x1 > 0) & (x1 <= 1.0) & (x2 >= 0.0) & (x2 <= 1.0)
    out[sq] = 1.0
    left = (x1 == 0.0) & (x2 >= 0.0) & (x2 <= 1.0)
    out = np.where(left, 1.0 - x2, out)
    upper = (x1 == 0.0) & (x2 >= 1.0) & (x2 <= 2.0)
    out = np.where(upper, 0.0, out)
    return out


def bilinear_scalar(axes, vals, point, snap=1e-9):
    """Scalar conservative multilinear interpolation matching the library's
    convention: any +inf corner with positive weight poisons the cell."""
    dim = len(axes)
    base = []
    frac = []
    for d in range(dim):
        lo = axes[d][0]
        step = axes[d][1] - axes[d][0] if len(axes[d]) > 1 else 1.0
        t = (point[d] - lo) / step
        if t < -snap or t > len(axes[d]) - 1 + snap:
            return np.inf
        i = int(np.clip(np.floor(t), 0, len(axes[d]) - 2))
        f = min(max(t - i, 0.0), 1.0)
        if f < snap:
            f = 0.0
        if f > 1 - snap:
            f = 1.0
        base.append(i)
        frac.append(f)
    total = 0.0
    for corner in np.ndindex(*(2,) * dim):
        w = 1.0
        for d, c in enumerate(corner):
            w *= frac[d] if c else 1.0 - frac[d]
        if w == 0.0:
            continue
        v = vals[tuple(b + c for b, c in zip(base, corner))]
        if not np.isfinite(v):
            return np.inf
        total += w * v
    return total


def naive_hopflax(g_axes, g_vals, w_axes, w_vals, h, out_axes):
    """Scalar loops over output nodes and cost nodes with scalar interp."""
    out_shape = tuple(len(ax) for ax in out_axes)
    out = np.full(out_shape, np.inf)
    w_shape = w_vals.shape
    for km in np.ndindex(*out_shape):
        x = np.array([out_axes[d][km[d]] for d in range(len(out_axes))])
        best = np.inf
        for jm in np.ndindex(*w_shape):
            wv = w_vals[jm]
            if not np.isfinite(wv):
                continue
            y = np.array([w_axes[d][jm[d]] for d in range(len(w_axes))])
            gv = bilinear_scalar(g_axes, g_vals, x - h * y)
            c = gv + h * wv
            if c < best:
                best = c
        out[km] = best
    return out


def bh_membership_bruteforce(domain, x, h, y_box, y_resolution):
    """Search a y-grid over Omega_1 for a witness with x - h*y in Omega.

    This is the defining membership test for B_h; it is grid-limited, so
    expect one cell of slack near the boundary.
    """
    x = np.asarray(x, dtype=float)
    axes = [np.linspace(lo, hi, m) for (lo, hi), m in zip(y_box, y_resolution)]
    mesh = np.meshgrid(*axes, indexing="ij")
    ys = np.stack([m.ravel() for m in mesh], axis=-1)
    ys = ys[domain.contains(ys, 1.0)]
    if ys.size == 0:
        return False
    cand = x[None, :] - h * ys
    return bool(domain.contains(cand, 0.0).any())


def polar_cone_moment(alpha: float, phi_of_dir, n_theta: int = 400001) -> float:
    """I_alpha over a 2D cone epigraph via its polar reduction.

    The boundary z2 = phi(z1) + 1 in shifted coordinates gives
    r(theta) = 1/(sin(theta) - phi(cos(theta))) on the arc where the
    denominator is positive, hence
    I_alpha = (alpha-2)^(-1) * int (sin(theta) - phi(cos(theta)))^(alpha-2).
    """
    theta = np.linspace(0.0, np.pi, n_theta)
    s = np.sin(theta) - phi_of_dir(np.cos(theta))
    s = np.where(s > 0, s, 0.0)
    return float(np.trapezoid(s ** (alpha - 2.0), theta) / (alpha - 2.0))


def halfplane_moment(alpha: float) -> float:
    """I_alpha over the half-plane: (alpha-2)^(-1) * int_0^pi sin^(alpha-2)."""
    m = alpha - 2.0
    integral = math.sqrt(math.pi) * math.gamma((m + 1.0) / 2.0) / math.gamma(m / 2.0 + 1.0)
    return integral / m


def halfspace3_moment(alpha: float) -> float:
    """I_alpha over the 3D half-space: 2 pi / ((alpha-3)(alpha-2))."""
    return 2.0 * math.pi / ((alpha - 3.0) * (alpha - 2.0))


def richardson_limit(hs, vals):
    """Iterated first-order Richardson extrapolation along decreasing hs."""
    level = list(map(float, vals))
    xs = list(map(float, hs))
    while len(level) > 1:
        nxt = []
        for k in range(len(level) - 1):
            h0, h1 = xs[k], xs[k + 1]
            nxt.append((h0 * level[k + 1] - h1 * level[k]) / (h0 - h1))
        level = nxt
        xs = xs[1:]
    return level[0]


def _shift_interp_candidates(g, out_axes, shift, snap=1e-9):
    """g interpolated at (x - shift) for every node x of the output grid,
    +inf outside g's box and in cells with a +inf corner."""
    shape = tuple(len(ax) for ax in out_axes)
    base = []
    fracs = []
    k_lo = []
    k_hi = []
    for d in range(g.dim):
        step = g.spacing[d] if g.spacing[d] > 0 else 1.0
        off = (out_axes[d][0] - shift[d] - g.box[d][0]) / step
        b = int(np.floor(off + snap))
        fr = off - b
        if fr < snap:
            fr = 0.0
        elif fr > 1.0 - snap:
            b += 1
            fr = 0.0
        base.append(b)
        fracs.append(fr)
        top = 1 if fr > 0.0 else 0
        k_lo.append(max(0, -b))
        k_hi.append(min(shape[d] - 1, g.resolution[d] - 1 - b - top))

    out = np.full(shape, np.inf)
    if any(lo > hi for lo, hi in zip(k_lo, k_hi)):
        return out
    region = tuple(slice(lo, hi + 1) for lo, hi in zip(k_lo, k_hi))
    inner_shape = tuple(hi - lo + 1 for lo, hi in zip(k_lo, k_hi))
    acc = np.zeros(inner_shape)
    infmask = np.zeros(inner_shape, dtype=bool)
    corners = [(0,) if fr == 0.0 else (0, 1) for fr in fracs]
    for corner in itertools.product(*corners):
        w = 1.0
        src = []
        for d, c in enumerate(corner):
            fr = fracs[d]
            if len(corners[d]) == 2:
                w *= fr if c else 1.0 - fr
            lo = base[d] + c + k_lo[d]
            src.append(slice(lo, lo + inner_shape[d]))
        if w == 0.0:
            continue
        block = g.values[tuple(src)]
        sub_inf = ~np.isfinite(block)
        acc += np.where(sub_inf, 0.0, block) * w
        infmask |= sub_inf
    acc[infmask] = np.inf
    out[region] = acc
    return out


def exact_hopflax_reference(g, W, h, out_axes):
    """Hopf-Lax by one full output-grid candidate array per finite cost node,
    in ascending flat order, a strictly smaller candidate replacing the
    incumbent. Returns (values, argmin) on the grid of out_axes."""
    shape = tuple(len(ax) for ax in out_axes)
    vals = np.full(shape, np.inf)
    arg = np.full(shape, -1, dtype=np.int64)
    w_axes = W.axes
    for multi in map(tuple, np.argwhere(np.isfinite(W.values))):
        y = np.array([w_axes[d][multi[d]] for d in range(W.dim)])
        cand = _shift_interp_candidates(g, out_axes, h * y)
        cand = cand + h * W.values[multi]
        better = cand < vals
        if better.any():
            vals = np.where(better, cand, vals)
            arg[better] = int(np.ravel_multi_index(multi, W.resolution))
    return vals, arg


def interpolate_reference(f: ExtGridFn, points) -> np.ndarray:
    """ExtGridFn.interpolate as it was, with a compress and scatter per
    corner, kept verbatim except that self is the argument f, the local f is
    fr, and the result is flat over the (..., dim) points."""
    flat = np.asarray(points, dtype=float).reshape(-1, f.dim)
    npts = flat.shape[0]
    base = np.zeros((npts, f.dim), dtype=np.int64)
    frac = np.zeros((npts, f.dim))
    outside = np.zeros(npts, dtype=bool)
    for d in range(f.dim):
        lo, hi = f.box[d]
        m = f.resolution[d]
        if m == 1:
            outside |= np.abs(flat[:, d] - lo) > _SNAP * max(1.0, abs(lo))
            continue
        step = f.spacing[d]
        t = (flat[:, d] - lo) / step
        outside |= (t < -_SNAP) | (t > m - 1 + _SNAP)
        i = np.clip(np.floor(t).astype(np.int64), 0, m - 2)
        fr = np.clip(t - i, 0.0, 1.0)
        fr[fr < _SNAP] = 0.0
        fr[fr > 1.0 - _SNAP] = 1.0
        base[:, d] = i
        frac[:, d] = fr

    out = np.zeros(npts)
    hit_inf = outside.copy()
    strides = np.array(f.values.strides) // f.values.itemsize
    flat_vals = f.values.ravel()
    base_flat = base @ strides
    for corner in np.ndindex(*(2,) * f.dim):
        w = np.ones(npts)
        off = 0
        for d, c in enumerate(corner):
            if f.resolution[d] == 1:
                if c == 1:
                    w *= 0.0
                continue
            w *= frac[:, d] if c else (1.0 - frac[:, d])
            off += c * strides[d]
        active = w > 0.0
        if not active.any():
            continue
        v = flat_vals[base_flat[active] + off]
        vin = np.isfinite(v)
        contrib = np.zeros(active.sum())
        contrib[vin] = w[active][vin] * v[vin]
        out[active] += contrib
        inf_here = np.zeros(npts, dtype=bool)
        inf_here[active] = ~vin
        hit_inf |= inf_here
    out[hit_inf] = INF
    return out


def is_grid_convex_reference(f: ExtGridFn) -> bool:
    """The convexity certificate as it was, one Python loop per grid line,
    kept verbatim."""
    scale = 1.0
    finite_vals = f.values[f.finite_mask]
    if finite_vals.size:
        scale = max(1.0, float(np.abs(finite_vals).max()))
    for d in range(f.dim):
        v = np.moveaxis(f.values, d, -1)
        flat = v.reshape(-1, v.shape[-1])
        for line in flat:
            idx = np.flatnonzero(np.isfinite(line))
            if idx.size == 0:
                continue
            if idx[-1] - idx[0] != idx.size - 1:
                return False
            if idx.size >= 3:
                seg = line[idx[0] : idx[-1] + 1]
                if np.any(seg[:-2] - 2.0 * seg[1:-1] + seg[2:] < -1e-12 * scale):
                    return False
    return True


def twostage_reference(g, W, h, axes, shape):
    """The twostage Hopf-Lax path as it was, stage 2 in blocks of offsets
    over every found output row at once, kept verbatim except that it
    interpolates with :func:`interpolate_reference`. Returns (values,
    argmin) on the grid of axes."""
    w_axes = W.axes
    wres = W.resolution
    finite_w = np.isfinite(W.values)

    # stage 1: strided scan with the lattice-slice candidates
    strided = np.argwhere(finite_w)
    keep = np.all(strided % _COARSE_STRIDE == 0, axis=1)
    tables = _axis_tables(g, W, h, axes)
    vals, arg = _scan_candidates(g, (h * W.values).ravel(), tables, shape, strided[keep])

    # stage 2: halving refinement around the strided argmin. At each level the
    # incumbent of a convex objective sampled at stride s is within s of the
    # optimum, so candidates at stride s/2 within +-2 units cover it.
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, g.dim)
    flat_vals = vals.ravel()
    flat_arg = arg.ravel()
    found = flat_arg >= 0
    if found.any():
        centers = np.stack(np.unravel_index(flat_arg[found], wres), axis=-1)
        sub_pts = pts[found]
        best_v = flat_vals[found].copy()
        best_a = flat_arg[found].copy()
        y_step = np.array([ax[1] - ax[0] if len(ax) > 1 else 1.0 for ax in w_axes])
        y_lo = np.array([ax[0] for ax in w_axes])
        wres_arr = np.array(wres)
        w_flatvals = W.values.ravel()
        npts = sub_pts.shape[0]
        unit = np.stack(
            np.meshgrid(*([np.arange(-2, 3)] * g.dim), indexing="ij"), axis=-1
        ).reshape(-1, g.dim)
        rows = np.arange(npts)
        level = _COARSE_STRIDE
        while level > 0:
            step_idx = (level + 1) // 2 if level > 2 else 1
            off = unit * step_idx  # (25, dim) in index units
            block = max(1, int(1_500_000 / max(npts, 1)))
            for b0 in range(0, off.shape[0], block):
                ob = off[b0 : b0 + block]
                ci = centers[:, None, :] + ob[None, :, :]
                ok = np.all((ci >= 0) & (ci < wres_arr), axis=2)
                ci_clip = np.clip(ci, 0, wres_arr - 1)
                wflat = np.zeros(ci.shape[:2], dtype=np.int64)
                stride_acc = 1
                for d in range(g.dim - 1, -1, -1):
                    wflat += ci_clip[..., d] * stride_acc
                    stride_acc *= wres[d]
                wv = w_flatvals[wflat]
                feas = ok & np.isfinite(wv)
                y = y_lo + ci_clip * y_step
                q = sub_pts[:, None, :] - h * y
                gv = interpolate_reference(g, q.reshape(-1, g.dim)).reshape(q.shape[:2])
                cand = np.where(feas, gv + h * wv, INF)
                k = np.argmin(cand, axis=1)
                cbest = cand[rows, k]
                better = cbest < best_v
                best_v[better] = cbest[better]
                best_a[better] = wflat[rows, k][better]
            centers = np.stack(np.unravel_index(best_a, wres), axis=-1)
            if step_idx == 1:
                break
            level = step_idx
        flat_vals[found] = best_v
        flat_arg[found] = best_a

    return flat_vals.reshape(shape), flat_arg.reshape(shape)


def integrate_epigraph_reference(fn, domain, spec, shift=0.0, decay=None):
    """Graded trapezoid over the shifted epigraph with every column's nodes
    evaluated in one integrand call per shell slab. Returns (value, tail)."""
    n = domain.n
    total = 0.0
    tail_K = 0.0
    R = spec.outer_radius
    for level, box in _shell_boxes(spec, n):
        dxk = spec.dx * 2.0 ** level
        x1_axes = [_axis_nodes(lo, hi, dxk) for lo, hi in box[:-1]]
        c2, d2 = box[-1]
        x2_nodes = _axis_nodes(c2, d2, dxk)
        dx2 = x2_nodes[1] - x2_nodes[0]
        mesh = np.meshgrid(*x1_axes, indexing="ij") if x1_axes else []
        x1_pts = (
            np.stack([m.ravel() for m in mesh], axis=-1)
            if mesh
            else np.zeros((1, 0))
        )
        if x1_axes:
            wlist = [_trap_weights(len(ax)) * (ax[1] - ax[0]) for ax in x1_axes]
            w1 = wlist[0]
            for wd in wlist[1:]:
                w1 = np.multiply.outer(w1, wd)
            w1 = w1.ravel()
        else:
            w1 = np.ones(1)

        lower = domain.phi(x1_pts) + shift
        lo_eff = np.maximum(lower, c2)
        active = lo_eff < d2 - 1e-15 * max(1.0, abs(d2))
        if not active.any():
            continue
        idx = np.flatnonzero(active)
        lo_a = lo_eff[idx]

        j0 = np.searchsorted(x2_nodes, lo_a, side="right")
        j0 = np.minimum(j0, len(x2_nodes) - 1)

        m2 = len(x2_nodes)
        cols = len(idx)
        jj = np.arange(m2)[None, :]
        inside = jj >= j0[:, None]
        wcol = np.where(inside, dx2, 0.0)
        first = jj == j0[:, None]
        last = jj == (m2 - 1)
        wcol = np.where(first | (inside & last), 0.5 * dx2, wcol)
        single = (j0 == m2 - 1)[:, None] & last
        wcol = np.where(single, 0.0, wcol)

        pts = np.concatenate(
            [
                np.repeat(x1_pts[idx], m2, axis=0),
                np.tile(x2_nodes, cols)[:, None],
            ],
            axis=1,
        )
        need = inside.ravel()
        vals = np.zeros(cols * m2)
        if need.any():
            vals[need] = np.asarray(fn(pts[need]), dtype=float)
        vals = vals.reshape(cols, m2)
        col_sum = np.sum(wcol * vals, axis=1)

        gap = x2_nodes[j0] - lo_a
        part = gap > 1e-14 * max(1.0, abs(d2))
        if part.any():
            pidx = np.flatnonzero(part)
            bpts = np.concatenate([x1_pts[idx][pidx], lo_a[pidx][:, None]], axis=1)
            fb = np.asarray(fn(bpts), dtype=float)
            ftop = vals[pidx, j0[pidx]]
            col_sum[pidx] += 0.5 * gap[pidx] * (fb + ftop)

        total += float(np.sum(w1[idx] * col_sum))

        if decay is not None and level == spec.levels:
            samp = pts[need]
            tail_K = max(tail_K, _fit_tail_K(samp, vals.ravel()[need], decay))

    tail = power_tail_bound(tail_K, decay, R, n) if decay is not None else 0.0
    return total, tail


def integrate_epigraph_estimate_reference(fn, domain, spec, shift=0.0, decay=None):
    """The two-sweep refinement estimate of ``integrate_epigraph``: a run at
    the given spacing and one at half spacing. Returns (value, error, tail)."""
    coarse, tail_c = integrate_epigraph_reference(fn, domain, spec, shift, decay)
    fine, tail_f = integrate_epigraph_reference(fn, domain, spec.refined(extend=False), shift, decay)
    return fine, abs(fine - coarse) + tail_f, tail_f


def integrate_boundary_reference(fn, dim, spec, decay=None):
    """Graded trapezoid over R^dim, one integrand call per shell slab.
    Returns (value, tail)."""
    total = 0.0
    tail_K = 0.0
    for level, box in _shell_boxes(spec, dim):
        dxk = spec.dx * 2.0 ** level
        axes = [_axis_nodes(lo, hi, dxk) for lo, hi in box]
        wlist = [_trap_weights(len(ax)) * (ax[1] - ax[0]) for ax in axes]
        w = wlist[0]
        for wd in wlist[1:]:
            w = np.multiply.outer(w, wd)
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        vals = np.asarray(fn(pts), dtype=float)
        total += float(np.sum(w.ravel() * vals))
        if decay is not None and level == spec.levels:
            tail_K = max(tail_K, _fit_tail_K(pts, vals, decay))
    tail = (
        power_tail_bound(tail_K, decay, spec.outer_radius, dim)
        if decay is not None
        else 0.0
    )
    return total, tail


def integrate_boundary_estimate_reference(fn, dim, spec, decay=None):
    """The two-sweep refinement estimate of ``integrate_boundary``."""
    coarse, tail_c = integrate_boundary_reference(fn, dim, spec, decay)
    fine, tail_f = integrate_boundary_reference(fn, dim, spec.refined(extend=False), decay)
    return fine, abs(fine - coarse) + tail_f, tail_f


def grid_tail_K_reference(f_pow: np.ndarray, axes, alpha: float) -> float:
    """Fit sup |v|*r^alpha on the outer faces of a grid of values."""
    best = 0.0
    dim = len(axes)
    mesh = np.meshgrid(*axes, indexing="ij")
    r = np.sqrt(sum(m * m for m in mesh))
    for d in range(dim):
        for side in (0, -1):
            sl = [slice(None)] * dim
            sl[d] = side
            vals = f_pow[tuple(sl)]
            rr = r[tuple(sl)]
            ok = np.isfinite(vals) & (rr > 0)
            if ok.any():
                best = max(best, float(np.max(np.abs(vals[ok]) * rr[ok] ** alpha)))
    return best


def field_gradient_reference(field, x) -> np.ndarray:
    """``ScalarField.gradient`` with its central-difference fallback."""
    x = np.asarray(x, dtype=float)
    if field.grad is not None:
        return np.asarray(field.grad(x), dtype=float)
    out = np.zeros_like(x)
    step = 1e-6 * (1.0 + np.linalg.norm(x, axis=-1))
    for d in range(x.shape[-1]):
        ed = np.zeros(x.shape[-1])
        ed[d] = 1.0
        out[..., d] = (
            field(x + step[..., None] * ed) - field(x - step[..., None] * ed)
        ) / (2.0 * step)
    return out


def grad_phi_reference(domain, x1) -> np.ndarray:
    """``EpigraphDomain.grad_phi`` with its central-difference fallback."""
    x1 = np.asarray(x1, dtype=float)
    if domain._grad_phi is not None:
        return np.asarray(domain._grad_phi(x1), dtype=float)
    # central differences, step scaled with the point
    out = np.zeros_like(x1)
    for d in range(x1.shape[-1]):
        step = 1e-6 * (1.0 + np.linalg.norm(x1, axis=-1))
        ej = np.zeros(x1.shape[-1])
        ej[d] = 1.0
        out[..., d] = (
            domain.phi(x1 + step[..., None] * ej)
            - domain.phi(x1 - step[..., None] * ej)
        ) / (2.0 * step)
    return out


def sharp_constants_json_reference(self) -> dict:
    """``SharpConstants.to_json`` with its fields listed by hand."""
    return {
        "n": self.n,
        "p": self.p,
        "a": self.a,
        "C": self.C,
        "A": self.A,
        "B": self.B,
        "u": self.u,
        "v": self.v,
        "D": self.D,
        "theta": self.theta,
        "q_trace": self.q_trace,
        "lambda_star": self.lambda_star,
        "D_npa": self.D_npa,
        "trace_constant": self.trace_constant,
        "B_identity": self.B_identity,
        "error_rel": self.error_rel,
    }
