"""Extended-real grid functions and epigraph-domain geometry.

Sampled functions live on axis-aligned uniform tensor grids and take values in
(-inf, +inf], with ``numpy.inf`` marking points outside the essential domain.
+inf is a real value here, not a mask, so min-plus algebra stays total:
``inf + v = inf`` and ``min(inf, v) = v`` by IEEE semantics. Neither NaN nor
-inf ever enters a stored grid.

Domains are epigraphs Omega = {(x1, x2) : x2 >= phi(x1)} of a convex phi with
phi(0) = 0, supplied analytically from a small closed family so that shifted
domains Omega_h = Omega + h*e and the support set

    B_h = {(x1, x2) : x2 >= h + (1+h) * phi(x1 / (1+h))}

can be evaluated at off-grid points without interpolation error.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ExtGridFn",
    "EpigraphDomain",
    "AdmissibilityParams",
    "ConeCheck",
    "halfspace",
    "norm_cone",
    "paraboloid",
    "affine_max",
    "domain_from_config",
    "is_cone",
    "weight_P",
    "sample_grid",
    "read_gridfn",
    "write_gridfn",
]

INF = np.inf

# fractional grid offsets within _SNAP of a gridline snap onto it
_SNAP = 1e-9


def _as_points(x, n: int) -> np.ndarray:
    pts = np.asarray(x, dtype=float)
    if pts.shape == (n,):
        return pts[None, :]
    if pts.ndim >= 1 and pts.shape[-1] == n:
        return pts
    raise ValueError(f"expected points of dimension {n}, got shape {pts.shape}")


def _unit_e(n: int) -> np.ndarray:
    """The last coordinate vector e of R^n, the direction of the shifts."""
    e = np.zeros(n)
    e[-1] = 1.0
    return e


def _central_gradient(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central differences of fn over the last axis of x, step scaled with
    the point: 1e-6 * (1 + ||x||)."""
    out = np.zeros_like(x)
    step = 1e-6 * (1.0 + np.linalg.norm(x, axis=-1))
    for d in range(x.shape[-1]):
        ed = np.zeros(x.shape[-1])
        ed[d] = 1.0
        out[..., d] = (fn(x + step[..., None] * ed) - fn(x - step[..., None] * ed)) / (2.0 * step)
    return out


def _euclidean_norm(x, keepdims: bool = False) -> np.ndarray:
    """||x||_2 over the last axis, summing the squares axis by axis.

    Gives the bytes of ``np.linalg.norm(x, axis=-1)`` for up to four axes
    (zeros, infinities, NaN and overflow included) without its slow
    reduction over a short last axis.
    """
    x = np.asarray(x, dtype=float)
    s = x[..., 0] * x[..., 0]
    for k in range(1, x.shape[-1]):
        s = s + x[..., k] * x[..., k]
    r = np.sqrt(s)
    return r[..., None] if keepdims else r


class ExtGridFn:
    """A function sampled on a uniform tensor grid, valued in (-inf, +inf].

    The array of values is frozen after construction; the finite-value index
    set (the discrete essential domain) is derived from it and therefore
    always consistent.
    """

    def __init__(self, box: Sequence[Sequence[float]], values: np.ndarray):
        vals = np.asarray(values, dtype=float)
        if not (vals > -INF).all():
            raise ValueError("grid values must not contain NaN or -inf")
        if vals.ndim != len(box):
            raise ValueError(
                f"box has {len(box)} axes but values have {vals.ndim} dimensions"
            )
        self.box = tuple((float(lo), float(hi)) for lo, hi in box)
        for d, (lo, hi) in enumerate(self.box):
            if not hi >= lo:
                raise ValueError(f"axis {d}: box upper bound below lower bound")
            if vals.shape[d] < 1:
                raise ValueError(f"axis {d}: empty resolution")
        self.values = vals
        self.values.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.values.ndim

    @property
    def resolution(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(
            (hi - lo) / (m - 1) if m > 1 else 0.0
            for (lo, hi), m in zip(self.box, self.resolution)
        )

    @property
    def axes(self) -> list[np.ndarray]:
        return [
            np.linspace(lo, hi, m)
            for (lo, hi), m in zip(self.box, self.resolution)
        ]

    @property
    def finite_mask(self) -> np.ndarray:
        return np.isfinite(self.values)

    @property
    def domain_indices(self) -> np.ndarray:
        """Indices of the finite nodes, shape (k, dim)."""
        return np.argwhere(self.finite_mask)

    def nodes(self) -> np.ndarray:
        """All grid nodes as an array of shape resolution + (dim,)."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def scaled(self, c: float) -> "ExtGridFn":
        """Pointwise scalar multiple c*f (c > 0 keeps +inf in place)."""
        if not c > 0:
            raise ValueError("scaling factor must be positive")
        return ExtGridFn(self.box, c * self.values)

    def interpolate(self, points) -> np.ndarray:
        """Multilinear interpolation, conservative near the domain boundary.

        A query inside a cell that has any +inf corner (with nonzero weight)
        evaluates to +inf, so interpolated values never dip below the sampled
        envelope of the essential domain. Queries outside the box are +inf.
        Fractional offsets within ``_SNAP`` of a gridline drop the zero-weight
        corners, so node-exact queries return node values.
        """
        pts = _as_points(points, self.dim)
        flat = pts.reshape(-1, self.dim)
        outside = np.zeros(flat.shape[0], dtype=bool)
        # per axis, the (flat index offset, weight) pair of each cell corner
        corners = []
        for d, ((lo, _), m) in enumerate(zip(self.box, self.resolution)):
            stride = math.prod(self.resolution[d + 1 :])
            if m == 1:
                outside |= np.abs(flat[:, d] - lo) > _SNAP * max(1.0, abs(lo))
                corners.append(((0, 1.0),))
                continue
            t = (flat[:, d] - lo) / self.spacing[d]
            outside |= (t < -_SNAP) | (t > m - 1 + _SNAP)
            i = np.clip(np.floor(t).astype(np.int64), 0, m - 2)
            f = np.clip(t - i, 0.0, 1.0)
            f[f < _SNAP] = 0.0
            f[f > 1.0 - _SNAP] = 1.0
            corners.append(((i * stride, 1.0 - f), ((i + 1) * stride, f)))

        # a zero-weight corner adds +-0 to a sum that starts at +0, and only
        # a corner of positive weight can make the query +inf
        flat_vals = self.values.ravel()
        out = np.zeros(flat.shape[0])
        hit_inf = outside
        for corner in itertools.product(*corners):
            w = math.prod(wd for _, wd in corner)
            v = flat_vals[sum(k for k, _ in corner)]
            finite = np.isfinite(v)
            out += w * np.where(finite, v, 0.0)
            hit_inf |= (w > 0.0) & ~finite
        out[hit_inf] = INF
        return out.reshape(pts.shape[:-1])


@dataclass(frozen=True)
class AdmissibilityParams:
    """Growth-envelope constants for an admissibility check.

    gamma is the common growth exponent; A1..A4 bound the cost from below and
    above and the test function and its gradient from below/above; growth_C
    bounds the boundary slope,
    |x1 . grad phi(x1)| <= growth_C * ||(x1, phi(x1))|| for ||x1|| > 1.
    """

    gamma: float
    A1: float = 1.0
    A2: float = 1.0
    A3: float = 1.0
    A4: float = 1.0
    growth_C: float = 1.0

    def __post_init__(self):
        if not self.gamma > 1:
            raise ValueError("gamma must exceed 1")
        for name in ("A1", "A2", "A3", "A4", "growth_C"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


class EpigraphDomain:
    """The epigraph Omega = {x2 >= phi(x1)} of a convex phi with phi(0)=0.

    phi and its gradient are callables over arrays of shape (..., n-1).
    ``smooth_at`` reports points where phi is differentiable; ridge points of
    the closed families (cone apex, affine-max ties) are flagged rather than
    failing, and boundary quadrature skips them.
    """

    def __init__(
        self,
        n: int,
        phi: Callable[[np.ndarray], np.ndarray],
        grad_phi: Callable[[np.ndarray], np.ndarray] | None = None,
        smooth_at: Callable[[np.ndarray], np.ndarray] | None = None,
        kind: str = "custom",
        params: dict | None = None,
    ):
        if n < 2:
            raise ValueError("ambient dimension must be at least 2")
        self.n = n
        self._phi = phi
        self._grad_phi = grad_phi
        self._smooth_at = smooth_at
        self.kind = kind
        self.params = dict(params or {})
        z = np.zeros((1, n - 1))
        if abs(float(self.phi(z)[0])) > 1e-12:
            raise ValueError("phi(0) must be 0")

    @property
    def e(self) -> np.ndarray:
        return _unit_e(self.n)

    def phi(self, x1) -> np.ndarray:
        x1 = np.asarray(x1, dtype=float)
        if x1.shape[-1] != self.n - 1:
            raise ValueError(f"phi expects points in R^{self.n - 1}")
        return np.asarray(self._phi(x1), dtype=float)

    def grad_phi(self, x1) -> np.ndarray:
        x1 = np.asarray(x1, dtype=float)
        if self._grad_phi is not None:
            return np.asarray(self._grad_phi(x1), dtype=float)
        return _central_gradient(self.phi, x1)

    def smooth_at(self, x1) -> np.ndarray:
        x1 = np.asarray(x1, dtype=float)
        if self._smooth_at is None:
            return np.ones(x1.shape[:-1], dtype=bool)
        return np.asarray(self._smooth_at(x1), dtype=bool)

    def contains(self, x, h: float = 0.0) -> np.ndarray:
        """Membership in the shifted domain Omega_h = Omega + h*e (closed)."""
        pts = _as_points(x, self.n)
        return pts[..., -1] >= self.phi(pts[..., :-1]) + h

    def bh_contains(self, x, h: float) -> np.ndarray:
        """Membership in B_h from the closed form x2 >= h + (1+h) phi(x1/(1+h)).

        At h = 0 this reduces to plain Omega membership. For cones it
        coincides with Omega_h membership at every h.
        """
        if h < 0:
            raise ValueError("h must be nonnegative")
        pts = _as_points(x, self.n)
        return pts[..., -1] >= self.bh_lower(pts[..., :-1], h)

    def bh_lower(self, x1, h: float) -> np.ndarray:
        """The B_h boundary height h + (1+h)*phi(x1/(1+h))."""
        x1 = np.asarray(x1, dtype=float)
        return h + (1.0 + h) * self.phi(x1 / (1.0 + h))

    def __repr__(self):
        return f"EpigraphDomain(kind={self.kind!r}, n={self.n}, params={self.params})"


def halfspace(n: int = 2) -> EpigraphDomain:
    """Omega = R^{n-1} x [0, inf), phi identically zero."""

    def phi(x1):
        return np.zeros(np.asarray(x1).shape[:-1])

    def grad(x1):
        return np.zeros_like(np.asarray(x1, dtype=float))

    return EpigraphDomain(n, phi, grad, kind="halfspace")


def norm_cone(n: int = 2, slope: float = 1.0) -> EpigraphDomain:
    """phi(x1) = slope * ||x1||_2, a convex cone for slope >= 0."""
    if slope < 0:
        raise ValueError("slope must be nonnegative")

    def phi(x1):
        return slope * _euclidean_norm(x1)

    def grad(x1):
        x1 = np.asarray(x1, dtype=float)
        r = _euclidean_norm(x1, keepdims=True)
        safe = np.where(r > 0, r, 1.0)
        return slope * x1 / safe

    def smooth(x1):
        return _euclidean_norm(x1) > 1e-12

    return EpigraphDomain(n, phi, grad, smooth, kind="cone", params={"slope": slope})


def paraboloid(n: int = 2) -> EpigraphDomain:
    """phi(x1) = ||x1||^2; convex but not a cone, and B_h strictly exceeds Omega_h."""

    def phi(x1):
        x1 = np.asarray(x1, dtype=float)
        return np.sum(x1 * x1, axis=-1)

    def grad(x1):
        return 2.0 * np.asarray(x1, dtype=float)

    return EpigraphDomain(n, phi, grad, kind="paraboloid")


def affine_max(slopes: Sequence[Sequence[float]], n: int | None = None) -> EpigraphDomain:
    """phi(x1) = max_j a_j . x1 over the given slope vectors (a polyhedral cone)."""
    A = np.atleast_2d(np.asarray(slopes, dtype=float))
    nm1 = A.shape[1]
    if n is None:
        n = nm1 + 1
    if n - 1 != nm1:
        raise ValueError("slope vectors must live in R^{n-1}")

    def phi(x1):
        x1 = np.asarray(x1, dtype=float)
        return np.max(x1 @ A.T, axis=-1)

    def grad(x1):
        x1 = np.asarray(x1, dtype=float)
        vals = x1 @ A.T
        j = np.argmax(vals, axis=-1)
        return A[j]

    def smooth(x1):
        x1 = np.asarray(x1, dtype=float)
        vals = np.sort(x1 @ A.T, axis=-1)
        if vals.shape[-1] == 1:
            return np.ones(vals.shape[:-1], dtype=bool)
        gap = vals[..., -1] - vals[..., -2]
        return gap > 1e-12 * (1.0 + np.abs(vals[..., -1]))

    return EpigraphDomain(
        n, phi, grad, smooth, kind="affine_max", params={"slopes": A.tolist()}
    )


def domain_from_config(cfg: dict, n: int) -> EpigraphDomain:
    """Build a domain from a declarative config entry {kind, params...}."""
    kind = cfg.get("kind")
    if kind == "halfspace":
        return halfspace(n)
    if kind == "cone":
        return norm_cone(n, slope=float(cfg.get("slope", 1.0)))
    if kind == "paraboloid":
        return paraboloid(n)
    if kind == "affine_max":
        return affine_max(cfg["slopes"], n=n)
    raise ValueError(f"unknown domain kind {kind!r}")


@dataclass
class ConeCheck:
    is_cone: bool
    max_violation: float
    witness: tuple | None


def is_cone(
    domain: EpigraphDomain,
    sample_count: int = 200,
    tol: float = 1e-8,
) -> ConeCheck:
    """Sampled test for positive homogeneity of phi.

    Checks phi(t*x1) = t*phi(x1) on random (t, x1) and the shift inequality
    phi((x1-y1)/h) >= (phi(x1)-phi(y1))/h on random (x1, y1, h), both drawn
    from a generator seeded with 0; returns the worst violation and its
    witness triple when the test fails.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    rng = np.random.default_rng(0)
    nm1 = domain.n - 1
    worst = 0.0
    witness = None

    x1 = rng.uniform(-2.0, 2.0, size=(sample_count, nm1))
    t = rng.uniform(0.1, 3.0, size=sample_count)
    viol = np.abs(domain.phi(t[:, None] * x1) - t * domain.phi(x1))
    k = int(np.argmax(viol))
    if viol[k] > worst:
        worst = float(viol[k])
        witness = ("homogeneity", t[k], tuple(x1[k]))

    xa = rng.uniform(-2.0, 2.0, size=(sample_count, nm1))
    ya = rng.uniform(-2.0, 2.0, size=(sample_count, nm1))
    h = rng.uniform(0.1, 2.0, size=sample_count)
    lhs = domain.phi((xa - ya) / h[:, None])
    rhs = (domain.phi(xa) - domain.phi(ya)) / h
    viol = np.maximum(rhs - lhs, 0.0)
    k = int(np.argmax(viol))
    if viol[k] > worst:
        worst = float(viol[k])
        witness = ("shift_inequality", float(h[k]), tuple(xa[k]), tuple(ya[k]))

    ok = worst <= tol
    return ConeCheck(ok, worst, None if ok else witness)


def weight_P(domain: EpigraphDomain, x1) -> float | np.ndarray:
    """Boundary weight P(x1) = 1 + phi(x1) - x1 . grad phi(x1).

    Identically 1 on cones (Euler's relation) and possibly negative elsewhere.
    At ridge points the family's one-sided subgradient is used; callers can
    consult domain.smooth_at to skip flagged samples.
    """
    x1a = np.atleast_2d(np.asarray(x1, dtype=float))
    val = 1.0 + domain.phi(x1a) - np.sum(x1a * domain.grad_phi(x1a), axis=-1)
    return float(val[0]) if np.asarray(x1).ndim <= 1 else val.reshape(np.asarray(x1).shape[:-1])


def sample_grid(
    domain: EpigraphDomain,
    box: Sequence[Sequence[float]],
    resolution: Sequence[int],
    fn: Callable[[np.ndarray], np.ndarray],
    h: float = 0.0,
) -> ExtGridFn:
    """Sample fn on the grid nodes inside Omega_h, +inf outside.

    fn must return finite nonnegative values or +inf on the member nodes;
    a negative or NaN sample is rejected with the offending coordinates.
    """
    axes = [np.linspace(lo, hi, m) for (lo, hi), m in zip(box, resolution)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack(mesh, axis=-1)
    member = domain.contains(pts, h)
    vals = np.full(member.shape, INF)
    if member.any():
        sampled = np.asarray(fn(pts[member]), dtype=float)
        bad = np.isnan(sampled) | (sampled < 0)
        if bad.any():
            where = pts[member][bad][0]
            raise ValueError(
                f"fn returned {sampled[bad][0]!r} at node {tuple(where)}; "
                "samples must be nonnegative and not NaN"
            )
        vals[member] = sampled
    return ExtGridFn(box, vals)


def write_gridfn(path, f: ExtGridFn) -> None:
    """Write a grid file: one JSON header line, then CSV rows of values.

    Values are row-major with the string ``inf`` for +infinity.
    """
    header = {
        "dim": f.dim,
        "box": [list(b) for b in f.box],
        "resolution": list(f.resolution),
    }
    flat = f.values.reshape(f.resolution[0], -1)
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for row in flat:
            fh.write(",".join("inf" if not np.isfinite(v) else repr(float(v)) for v in row))
            fh.write("\n")


def read_gridfn(path) -> ExtGridFn:
    with open(path) as fh:
        header = json.loads(fh.readline())
        rows = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rows.append([INF if tok.strip() == "inf" else float(tok) for tok in line.split(",")])
    vals = np.asarray(rows, dtype=float).reshape(header["resolution"])
    return ExtGridFn(header["box"], vals)
