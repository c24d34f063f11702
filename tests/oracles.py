"""Independent reference implementations used as test oracles.

Everything here stays deliberately naive: explicit loops, closed forms from
polar coordinates, and scalar interpolation, so that agreement with the
library is evidence and not tautology. The discontinuous inf-convolution
fixture and its closed form live here too, next to the domain-sum check. The
``*_reference`` functions are earlier, straightforward library implementations
kept verbatim, so that the faster code that replaced them can be held to the
same bits; the boundary quadrature reference is the epigraph one's column
loop with no lower cut, the summation order of the library's one sweep.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from epiconv.bblcheck import BBLParams
from epiconv.extgrid import INF, EpigraphDomain, ExtGridFn, _euclidean_norm, _unit_e
from epiconv.fields import ScalarField
from epiconv.hopflax import _SNAP, InfConvResult, infconv
from epiconv.quadrature import (
    QuadSpec,
    _axis_nodes,
    _fit_tail_K,
    _mesh_points,
    _shell_boxes,
    _trap_weights,
    integrate_epigraph,
    power_tail_bound,
)
from epiconv.sharpconst import SharpConstants, _field_integrals
from epiconv.transforms import NormSpec, _sphere_directions, default_dual_box, dual_norm


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


def legendre_nd_reference(f: ExtGridFn, dual_box=None, dual_resolution=None) -> np.ndarray:
    """Values of the discrete conjugate over a tensor grid, one axis at a
    time with :func:`legendre_1d_reference` on every line: an empty line (all
    +inf) gives -inf, and every sweep but the last is negated to feed the
    next one."""
    if dual_box is None:
        dual_box = default_dual_box(f)
    if dual_resolution is None:
        dual_resolution = f.resolution
    work = f.values
    for d, ((lo, hi), m) in enumerate(zip(dual_box, dual_resolution)):
        slopes = np.linspace(lo, hi, m)
        moved = np.moveaxis(work, d, -1)
        out = np.empty(moved.shape[:-1] + (m,))
        for idx in np.ndindex(*moved.shape[:-1]):
            line = moved[idx]
            if np.isfinite(line).any():
                out[idx] = legendre_1d_reference(f.axes[d], line, slopes)[0]
            else:
                out[idx] = -np.inf
        work = np.moveaxis(out, -1, d)
        if d < f.dim - 1:
            work = -work
    return work


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


def dual_norm_sampled(norm: NormSpec, y):
    """Lower bound for the dual norm by sampling unit vectors, with a gap estimate.

    The 4096 directions are deterministic (uniform angles in 2D, a Fibonacci
    sphere in 3D), joined by the 2n signed coordinate directions and the 2^n
    sign patterns. These normalize to the vertices of the pointed unit balls
    where the dual norm is attained: the signed coordinate directions for
    the weighted p = 1 ball, the sign patterns for the max-norm ball of
    p = inf (whose dual sum_i |y_i| is attained at sign(y), the weights
    dropping out). The gap estimate combines the change from halving the
    sphere sample count with the angular mesh bound ||y||_2 * delta.
    """
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    ys = y[None, :] if single else y.reshape(-1, y.shape[-1])
    n = ys.shape[-1]
    delta = 2.0 * np.pi / 4096 if n == 2 else np.sqrt(4.0 * np.pi / 4096)

    def sampled(dirs):
        return (dirs / norm(dirs)[:, None]) @ ys.T

    sphere = sampled(_sphere_directions(n, 4096))
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    vertices = sampled(np.concatenate([np.eye(n), -np.eye(n), signs])).max(axis=0)
    best = np.maximum(sphere.max(axis=0), vertices)
    half = np.maximum(sphere[::2].max(axis=0), vertices)
    gap = np.abs(best - half) + np.linalg.norm(ys, axis=-1) * delta
    if single:
        return float(best[0]), float(gap[0])
    return best.reshape(y.shape[:-1]), gap.reshape(y.shape[:-1])


def power_pair_hopflax(W: ScalarField, cg: float, cW: float, q: float, h: float, x):
    """Q_h of the shifted power pair with separate scales over all of R^n:
    inf_y cg*W(x + e - h*y) + h*cW*W(y) for W = C ||.||^q / q.

    W is positively homogeneous of degree q and its gradient of degree q - 1,
    so the first-order condition cg*grad W(x + e - h*y) = cW*grad W(y) holds
    at y = t*(x + e) with x + e - h*y = kappa*y, kappa = (cW/cg)^(1/(q-1)) and
    t = 1/(kappa + h); convexity makes this y the minimizer.
    """
    x = np.asarray(x, dtype=float)
    z = x + _unit_e(x.shape[-1])
    y = z / ((cW / cg) ** (1.0 / (q - 1.0)) + h)
    return cg * W.fn(z - h * y) + h * cW * W.fn(y)


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


def domain_indices(f: ExtGridFn) -> np.ndarray:
    """Indices of the finite nodes of f, shape (k, dim)."""
    return np.argwhere(f.finite_mask)


def grid_nodes(f: ExtGridFn) -> np.ndarray:
    """All nodes of f as an array of shape resolution + (dim,)."""
    return np.stack(np.meshgrid(*f.axes, indexing="ij"), axis=-1)


def domain_sum_check(f: ExtGridFn, g: ExtGridFn, result: InfConvResult | None = None):
    """Does dom(f box g) equal dom f + dom g as index sets?

    Returns (ok, witness); the witness is an output index in the symmetric
    difference when the sets disagree (they should not, for exact lattice
    min-plus with total +inf algebra).
    """
    if result is None:
        result = infconv(f, g)
    fi = domain_indices(f)
    gi = domain_indices(g)
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


def bh_contains(domain: EpigraphDomain, x, h: float) -> np.ndarray:
    """Membership in B_h from the closed form x2 >= h + (1+h) phi(x1/(1+h)).

    At h = 0 this reduces to plain Omega membership. For cones it coincides
    with Omega_h membership at every h.
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    return pts[..., -1] >= domain.bh_lower(pts[..., :-1], h)


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


def hopflax_pointwise(
    g_fn, W_fn, h, points, y_box=None, y_resolution=None,
    g_domain=None, W_domain=None, zoom_iters=14,
):
    """Dense oracle: Q_h(g) at arbitrary points from analytic g and W by a
    search that assumes nothing of the pair, batched.

    A coarse scan over candidate y values seeds a zooming local grid search
    (5 points per axis around the incumbent, 5^n - 1 candidates per
    iteration, the width shrinking by 0.45 each time)
    with domain membership enforced by +inf: g_domain at height 0 and
    W_domain shifted up by e. With y_box given, the scan covers that fixed
    grid; by default each point scans a box centered at x + e whose half width
    is 4 * (1 + ||x||), matching the growth-envelope localization of the
    minimizer, so far-out quadrature nodes are not silently truncated. The
    result is deterministic and accurate to roughly the squared final zoom
    width for smooth interior minima. Every value it returns is a candidate
    g(x - h*y) + h*W(y), so it is never below the Fenchel-Young floor of the
    pair; near the boundary of B_h a rounded membership test can reject the
    minimizer, and it then reads high.

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

    # candidate offsets as (n, k) coordinate planes, nodes in row-major order;
    # the centre is the incumbent itself, which the strict < never replaces
    local = _mesh_points([np.array([-1.0, -0.5, 0.0, 0.5, 1.0])] * n).T
    local = np.delete(local, local.shape[1] // 2, axis=1)
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


def hopflax_pointwise_reference(
    g_fn, W_fn, h, points, y_box=None, y_resolution=None,
    g_domain=None, W_domain=None, zoom_iters=14,
):
    """``hopflax_pointwise`` with its candidates stored point-major, an
    (npts, k, n) C-order array flattened to (npts * k, n) rows for every
    field and domain call: the same coarse scan, anchors, zoom stencil and
    argmins, one float expression per candidate."""
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


def interpolate_reference(f: ExtGridFn, points) -> np.ndarray:
    """Conservative multilinear interpolation of f at arbitrary points, as
    the library's former ``ExtGridFn.interpolate`` first did it with a
    compress and scatter per corner. Kept verbatim except that self is the
    argument f, the local f is fr, the result is flat over the (..., dim)
    points, and the flat index follows the grid's row-major order (strides
    taken from the array's memory layout read wrong nodes of transposed or
    reversed values)."""
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
    strides = np.array([math.prod(f.resolution[d + 1 :]) for d in range(f.dim)])
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


def integrate_epigraph_reference(fn, domain, spec, shift=0.0, decay=None):
    """Graded trapezoid over the shifted epigraph with every column's nodes
    evaluated in one integrand call per shell slab. Returns (value, tail)."""
    return _graded_columns_reference(fn, domain.n, spec, lambda x1: domain.phi(x1) + shift, decay)


def integrate_boundary_reference(fn, dim, spec, decay=None):
    """Graded trapezoid over R^dim, the column loop of the epigraph reference
    with no lower cut: each column starts at its first node, with no partial
    cell. Returns (value, tail)."""
    return _graded_columns_reference(fn, dim, spec, None, decay)


def _graded_columns_reference(fn, n, spec, lower, decay):
    """Column by column along the last axis, from the first node strictly
    above ``lower(x1)`` plus the partial cell below it, or, with ``lower``
    None, from each column's first node. A box's rows hold its last-axis
    nodes from the lowest column start up, at least the top two, and the
    spacing is read off the kept nodes."""
    total = 0.0
    tail_K = 0.0
    R = spec.outer_radius
    for level, box in _shell_boxes(spec, n):
        dxk = spec.dx * 2.0 ** level
        x1_axes = [_axis_nodes(lo, hi, dxk) for lo, hi in box[:-1]]
        c2, d2 = box[-1]
        x2_nodes = _axis_nodes(c2, d2, dxk)
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

        if lower is None:
            idx = np.arange(len(x1_pts))
            lo_a = np.full(len(idx), c2)
            j0 = np.zeros(len(idx), dtype=int)
        else:
            lo_eff = np.maximum(lower(x1_pts), c2)
            active = lo_eff < d2 - 1e-15 * max(1.0, abs(d2))
            if not active.any():
                continue
            idx = np.flatnonzero(active)
            lo_a = lo_eff[idx]
            j0 = np.searchsorted(x2_nodes, lo_a, side="right")
            j0 = np.minimum(j0, len(x2_nodes) - 1)
        # the rows start at the lowest column start, keeping two nodes
        low = min(j0.min(), len(x2_nodes) - 2)
        x2_nodes = x2_nodes[low:]
        j0 = j0 - low
        dx2 = x2_nodes[1] - x2_nodes[0]

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
            tail_K = max(tail_K, _fit_tail_K(_euclidean_norm(samp), vals.ravel()[need], decay))

    tail = power_tail_bound(tail_K, decay, R, n) if decay is not None else 0.0
    return total, tail


def integrate_epigraph_estimate_reference(fn, domain, spec, shift=0.0, decay=None):
    """The two-sweep refinement estimate of ``integrate_epigraph``: a run at
    the given spacing and one at half spacing. Returns (value, error, tail)."""
    coarse, tail_c = integrate_epigraph_reference(fn, domain, spec, shift, decay)
    fine, tail_f = integrate_epigraph_reference(fn, domain, spec.refined(extend=False), shift, decay)
    return fine, abs(fine - coarse) + tail_f, tail_f


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


def gradient_norm_claim_check(gamma: float, norm: NormSpec) -> float:
    """Max residual of ||grad(||x||^gamma)||_* = |gamma| ||x||^(gamma-1).

    The gradient side is taken by central finite differences of the scalar
    map (step 1e-6 * (1 + |x_d|)), its dual norm by the closed-form dual, at
    200 samples in the plane; samples, drawn from a generator seeded with 0,
    that lie too close to a non-differentiability of the norm are redrawn.
    """
    rng = np.random.default_rng(0)
    n = 2
    worst = 0.0
    count = 0
    while count < 200:
        x = rng.uniform(-2.0, 2.0, size=n)
        r = float(norm(x))
        if r < 0.3 or (norm.kind == "p_norm" and norm.p in (1.0, np.inf) and np.min(np.abs(x)) < 0.05):
            continue
        count += 1
        grad = np.zeros(n)
        for d in range(n):
            ed = np.zeros(n)
            ed[d] = 1e-6 * (1.0 + abs(x[d]))
            grad[d] = (norm(x + ed) ** gamma - norm(x - ed) ** gamma) / (2.0 * ed[d])
        lhs = dual_norm(norm, grad)
        rhs = abs(gamma) * r ** (gamma - 1.0)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-12))
    return worst


def young_equality_residual(
    f: ScalarField,
    constants: SharpConstants,
    domain: EpigraphDomain,
    norm: NormSpec,
    spec: QuadSpec,
):
    """Residual of the Young equality condition at the extremal:

        A/(Bv) * int ||grad f||_*^p  =  (beta^(p(p-1)/(a-p)))^(v-1).

    Returns (relative residual, lhs, rhs, identity_route) where the identity
    route evaluates the right side as I_{ap/(p-1)}^((a-p)/a).
    """
    a, p, v = constants.a, constants.p, constants.v
    (grad_term, _), (beta_int, _) = _field_integrals(
        f, norm, p, (a * p / (a - p),), domain, spec
    )
    beta = beta_int ** ((a - p) / (a * p))
    lhs = constants.A / (constants.B * v) * grad_term
    rhs = beta ** (p * (p - 1.0) * (v - 1.0) / (a - p))
    I_route = constants.i_values.get("qa")
    identity_route = I_route ** ((a - p) / a) if I_route is not None else float("nan")
    residual = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return residual, lhs, rhs, identity_route


def approx_family(
    f: ScalarField,
    eps: float,
    params: BBLParams,
    domain: EpigraphDomain,
    spec: QuadSpec,
):
    """f_eps = eps ||x+e||^(-gamma(a-p)/p) + C_eps f with unit q-power mass,
    at the growth exponent gamma = max(1, a/(n-1)) + 1.

    C_eps solves int f_eps^(ap/(a-p)) = 1 by monotone bisection, stopped once
    a midpoint's mass is within 1e-6 of 1; it does not exist when eps is too
    large (the tail term alone already overshoots) and that case is rejected.
    As eps decreases to 0, C_eps increases strictly toward 1. Returns
    (field, C_eps).
    """
    a, p, n = params.a, params.p, params.n
    gamma = max(1.0, a / (n - 1.0)) + 1.0
    power = a * p / (a - p)
    e = domain.e
    tail_exp = gamma * (a - p) / p

    def tail_fn(x):
        return _euclidean_norm(np.asarray(x, dtype=float) + e) ** (-tail_exp)

    def mass(Ceps: float) -> float:
        val, _ = integrate_epigraph(
            lambda x: (eps * tail_fn(x) + Ceps * f(x)) ** power,
            domain, spec, decay=tail_exp * power,
        )
        return val

    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if eps == 0.0:
        C_eps = 1.0
    else:
        m0 = mass(0.0)
        if m0 >= 1.0:
            raise ValueError(
                f"eps={eps} too large for the normalizer to exist (tail mass {m0:.3f} >= 1)"
            )
        lo, hi = 0.0, 1.0
        while mass(hi) < 1.0:
            hi *= 2.0
            if hi > 1e6:
                raise ValueError("normalizer search diverged")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            m_mid = mass(mid)
            if m_mid < 1.0:
                lo = mid
            else:
                hi = mid
            if abs(m_mid - 1.0) <= 1e-6:
                break
        C_eps = 0.5 * (lo + hi)

    base_fn = f.fn

    def fn_eps(x):
        return eps * tail_fn(x) + C_eps * np.asarray(base_fn(x), dtype=float)

    base_grad = f.grad

    def grad_eps(x):
        x = np.asarray(x, dtype=float)
        z = x + e
        r = _euclidean_norm(z)
        gt = -tail_exp * r[..., None] ** (-tail_exp - 2.0) * z
        gf = f.gradient(x) if base_grad is None else np.asarray(base_grad(x), dtype=float)
        return eps * gt + C_eps * gf

    field_eps = ScalarField(fn_eps, grad_eps, decay=tail_exp, name=f"approx(eps={eps:g})")
    return field_eps, C_eps
