"""Trapezoid quadrature over epigraph domains and grid functions.

Volume integrals over unbounded epigraphs use a dyadic graded scheme: a core
box around the origin plus doubling shells, each shell decomposed into axis
slabs and integrated by tensor trapezoid at a spacing that grows with the
shell. Columns along the last axis start exactly at the domain boundary
phi(x1) + shift, so the boundary cut costs O(dx^2) rather than O(dx).

Beyond the outer box the integrand is bounded by K * ||x||^(-alpha) with K
fitted on the outermost samples; the reported tail term is the resulting
closed-form bound over the complement of the inscribed ball. Integrals whose
callers supply no decay exponent report a tail of 0 and are on their own for
truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .extgrid import EpigraphDomain, ExtGridFn

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


# most grid nodes one integrand call of integrate_epigraph evaluates
_BLOCK_NODES = 2**17


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


def _fit_tail_K(samples_x: np.ndarray, samples_f: np.ndarray, alpha: float) -> float:
    r = np.linalg.norm(samples_x, axis=-1)
    ok = (r > 0) & np.isfinite(samples_f)
    if not ok.any():
        return 0.0
    return float(np.max(np.abs(samples_f[ok]) * r[ok] ** alpha))


def integrate_epigraph(
    fn: Callable[[np.ndarray], np.ndarray],
    domain: EpigraphDomain,
    spec: QuadSpec,
    shift: float = 0.0,
    decay: float | None = None,
    estimate: bool = False,
):
    """Integral of fn over the shifted epigraph {x2 >= phi(x1) + shift}.

    Returns (value, tail_bound); with estimate=True the value comes from a run
    at half spacing and the returned triple is (value, error_estimate,
    tail_bound), the error estimate being the coarse/fine difference plus the
    tail bound.
    """
    if estimate:
        coarse, tail_c = integrate_epigraph(fn, domain, spec, shift, decay)
        fine, tail_f = integrate_epigraph(fn, domain, spec.refined(extend=False), shift, decay)
        return fine, abs(fine - coarse) + tail_f, tail_f

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

        # first full gridline strictly above the column's lower limit
        j0 = np.searchsorted(x2_nodes, lo_a, side="right")
        j0 = np.minimum(j0, len(x2_nodes) - 1)
        gap = x2_nodes[j0] - lo_a
        part = gap > 1e-14 * max(1.0, abs(d2))

        # columns in blocks of at most _BLOCK_NODES grid nodes, so memory
        # stays bounded on fine shells; each column's sum is one full-row sum
        # and the shell total one sum over all columns, whatever the blocking
        m2 = len(x2_nodes)
        per_block = max(1, _BLOCK_NODES // m2)
        col_sum = np.empty(len(idx))
        for c0 in range(0, len(idx), per_block):
            cols = slice(c0, c0 + per_block)
            jb = j0[cols]
            x1b = x1_pts[idx[cols]]
            rows = np.arange(len(jb))
            # regular trapezoid over [x2_nodes[j0], d2] as a weight matrix
            wcol = (np.arange(m2)[None, :] >= jb[:, None]) * dx2
            wcol[rows, jb] = 0.5 * dx2
            wcol[:, -1] = np.where(jb == m2 - 1, 0.0, 0.5 * dx2)

            # the nodes j >= j0 of each column, in row-major order
            counts = m2 - jb
            starts = np.cumsum(counts) - counts
            r = np.repeat(rows, counts)
            j = np.arange(int(counts.sum())) - np.repeat(starts - jb, counts)
            pts = np.concatenate([x1b[r], x2_nodes[j][:, None]], axis=1)
            fv = np.asarray(fn(pts), dtype=float)
            vals = np.zeros((len(jb), m2))
            vals[r, j] = fv
            sums = np.sum(wcol * vals, axis=1)

            # partial cell from the exact boundary up to the first gridline
            pb = np.flatnonzero(part[cols])
            if pb.size:
                bpts = np.concatenate([x1b[pb], lo_a[cols][pb][:, None]], axis=1)
                fb = np.asarray(fn(bpts), dtype=float)
                sums[pb] += 0.5 * gap[cols][pb] * (fb + vals[pb, jb[pb]])
            col_sum[cols] = sums

            if decay is not None and level == spec.levels:
                tail_K = max(tail_K, _fit_tail_K(pts, fv, decay))

        total += float(np.sum(w1[idx] * col_sum))

    tail = power_tail_bound(tail_K, decay, R, n) if decay is not None else 0.0
    return total, tail


def integrate_boundary(
    fn: Callable[[np.ndarray], np.ndarray],
    dim: int,
    spec: QuadSpec,
    decay: float | None = None,
    estimate: bool = False,
):
    """Integral of fn over R^dim by the same graded scheme, no domain cut.

    Used for boundary terms parameterized by x1; fn takes (..., dim) arrays.
    """
    if estimate:
        coarse, tail_c = integrate_boundary(fn, dim, spec, decay)
        fine, tail_f = integrate_boundary(fn, dim, spec.refined(extend=False), decay)
        return fine, abs(fine - coarse) + tail_f, tail_f

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
