"""The point-batch contract: quadrature and the pointwise Hopf-Lax evaluator
hand callables (..., n) views whose coordinate planes are contiguous, so every
field, norm and domain callable must give the same bytes on a C-order batch
and on its coordinate-major copy."""

import numpy as np
import pytest

from epiconv import fields
from epiconv.bblcheck import BBLParams
from epiconv.extgrid import EpigraphDomain, affine_max, halfspace, norm_cone, paraboloid
from epiconv.sharpconst import extremal_f
from epiconv.transforms import NormSpec, dual_norm


def coordinate_major(a: np.ndarray) -> np.ndarray:
    """A copy of the (m, n) batch a stored as n contiguous planes."""
    out = np.empty(a.shape[::-1]).T
    out[...] = a
    return out


def batch(n: int, m: int = 257) -> np.ndarray:
    """Points of every sign and scale, some rows zero, a few coordinates 0."""
    rng = np.random.default_rng(n)
    a = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-3, 2, (m, n))
    a[::17] = 0.0
    a[5::11, 0] = 0.0
    return a


def assert_same_bytes(fn, a, what):
    c, f = np.ascontiguousarray(a), coordinate_major(a)
    assert f.shape[1] == 1 or not f.flags.c_contiguous
    want = np.asarray(fn(c))
    got = np.asarray(fn(f))
    assert got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def norms(n: int):
    w = tuple(0.5 + 0.25 * k for k in range(n))
    return {
        "euclidean": NormSpec("euclidean"),
        "p1": NormSpec("p_norm", p=1.0),
        "p1.5": NormSpec("p_norm", p=1.5),
        "p3": NormSpec("p_norm", p=3.0),
        "pinf": NormSpec("p_norm", p=np.inf),
        "weighted1.5": NormSpec("weighted_p_norm", p=1.5, weights=w),
        "weighted3": NormSpec("weighted_p_norm", p=3.0, weights=w),
        "weighted_inf": NormSpec("weighted_p_norm", p=np.inf, weights=w),
    }


def field_callables(n: int):
    shift = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    out = {}
    for name, norm in norms(n).items():
        if name in ("p1", "pinf", "weighted_inf"):
            continue  # no differentiable gradient, so no power cost
        W = fields.power_cost_field(1.3, 2.5, norm)
        out[f"power_cost[{name}]"] = W
        out[f"shifted[{name}]"] = fields.shifted_field(W, shift)
        if n > 1:  # BBLParams needs n >= 2
            out[f"extremal[{name}]"] = extremal_f(BBLParams(n, a=n + 1.0, p=1.5), norm)
    out["quadratic"] = fields.quadratic_field(1.0, 2.0)
    out["bump"] = fields.bump_field(np.full(n, 0.3), radius=2.0, amplitude=0.7)
    out["multiply_bump"] = fields.multiply_bump(out["quadratic"], np.zeros(n), 1.5, 0.4)
    out["central_difference"] = fields.ScalarField(out["quadratic"].fn)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fields_ignore_layout(n):
    a = batch(n)
    for name, f in field_callables(n).items():
        assert_same_bytes(f, a, name)
        assert_same_bytes(f.gradient, a, name)
        if f.conjugate is not None:
            assert_same_bytes(f.conjugate, a, name)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_norms_ignore_layout(n):
    a = batch(n)
    for name, norm in norms(n).items():
        assert_same_bytes(norm, a, name)
        if name not in ("p1", "pinf", "weighted_inf"):
            assert_same_bytes(norm.grad, a, name)
        assert_same_bytes(lambda y: dual_norm(norm, y), a, name)


def domains(n: int):
    rng = np.random.default_rng(n)
    A1 = rng.uniform(-1.0, 1.0, (1, n - 1))
    A3 = rng.uniform(-1.0, 1.0, (3, n - 1))
    quadratic = fields.quadratic_field(0.0, 1.0)
    return {
        "halfspace": halfspace(n),
        "cone": norm_cone(n, 1.0),
        "paraboloid": paraboloid(n),
        "affine_max_1": affine_max(A1, n=n),
        "affine_max_3": affine_max(A3, n=n),
        "custom": EpigraphDomain(n, quadratic.fn),
    }


@pytest.mark.parametrize("n", [2, 3, 4])
def test_domains_ignore_layout(n):
    a = batch(n)
    for name, dom in domains(n).items():
        assert_same_bytes(dom.phi, a[:, :-1], name)
        assert_same_bytes(dom.grad_phi, a[:, :-1], name)
        assert_same_bytes(lambda x1: dom.bh_lower(x1, 0.3), a[:, :-1], name)
        for h in (0.0, 1.0):
            assert_same_bytes(lambda x: dom.contains(x, h), a, name)
