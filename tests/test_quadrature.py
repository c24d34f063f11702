"""Graded trapezoid quadrature over epigraph domains."""

import math

import numpy as np
import pytest

from epiconv import ExtGridFn, QuadSpec, halfspace, integrate_boundary, integrate_epigraph, integrate_gridfn, norm_cone
from epiconv import quadrature
from epiconv.extgrid import paraboloid
from epiconv.quadrature import power_tail_bound, sphere_area
from oracles import (
    halfplane_moment,
    halfspace3_moment,
    integrate_epigraph_reference,
    polar_cone_moment,
)

E2 = np.array([0.0, 1.0])


def moment_integrand(alpha, e):
    return lambda p: np.linalg.norm(np.asarray(p, dtype=float) + e, axis=-1) ** (-alpha)


def test_sphere_areas():
    assert sphere_area(2) == pytest.approx(2 * math.pi)
    assert sphere_area(3) == pytest.approx(4 * math.pi)


def test_tail_bound_formula():
    # integral of r^-4 over ||x|| > R in the plane is 2 pi / (2 R^2)
    assert power_tail_bound(1.0, 4.0, 10.0, 2) == pytest.approx(math.pi / 100)
    assert power_tail_bound(1.0, 2.0, 10.0, 2) == math.inf


@pytest.mark.parametrize("alpha", [4.0, 6.0])
def test_halfplane_moments(halfplane, alpha):
    spec = QuadSpec(half_width=6.0, dx=0.05, levels=4)
    val, tail = integrate_epigraph(moment_integrand(alpha, E2), halfplane, spec, decay=alpha)
    exact = halfplane_moment(alpha)
    assert abs(val - exact) / exact < 6e-3
    assert tail < 1e-3


def test_cone_moment_against_polar_oracle(unit_cone):
    spec = QuadSpec(half_width=5.0, dx=0.04, levels=4)
    val, _ = integrate_epigraph(moment_integrand(4.5, E2), unit_cone, spec, decay=4.5)
    exact = polar_cone_moment(4.5, lambda c: np.abs(c))
    assert abs(val - exact) / exact < 5e-3


def test_halfspace3_moment():
    dom = halfspace(3)
    e3 = np.array([0.0, 0.0, 1.0])
    spec = QuadSpec(half_width=3.0, dx=0.075, levels=3)
    val, _ = integrate_epigraph(moment_integrand(6.0, e3), dom, spec, decay=6.0)
    exact = halfspace3_moment(6.0)
    assert abs(val - exact) / exact < 8e-3


def test_second_order_refinement(halfplane):
    exact = halfplane_moment(4.0)
    errs = []
    for dx in (0.1, 0.05, 0.025):
        spec = QuadSpec(half_width=6.0, dx=dx, levels=4)
        val, _ = integrate_epigraph(moment_integrand(4.0, E2), halfplane, spec, decay=4.0)
        errs.append(abs(val - exact))
    assert errs[1] < errs[0] / 2.5
    assert errs[2] < errs[1] / 2.5


def test_estimate_bounds_true_error(halfplane):
    exact = halfplane_moment(4.0)
    spec = QuadSpec(half_width=6.0, dx=0.05, levels=5)
    val, err, tail = integrate_epigraph(
        moment_integrand(4.0, E2), halfplane, spec, decay=4.0, estimate=True
    )
    assert abs(val - exact) <= err


def test_shifted_domain_equals_translated_integrand(halfplane):
    # integral over Omega_1 of f equals integral over Omega of f(.+e)
    spec = QuadSpec(half_width=5.0, dx=0.05, levels=4)
    fn = lambda p: np.linalg.norm(np.asarray(p, dtype=float), axis=-1) ** (-5.0)
    shifted, _ = integrate_epigraph(fn, halfplane, spec, shift=1.0, decay=5.0)
    translated, _ = integrate_epigraph(moment_integrand(5.0, E2), halfplane, spec, decay=5.0)
    assert shifted == pytest.approx(translated, rel=5e-4)


def test_boundary_integral_1d():
    spec = QuadSpec(half_width=4.0, dx=0.02, levels=6)
    val, tail = integrate_boundary(lambda p: (1 + p[:, 0] ** 2) ** (-1.5), 1, spec, decay=3.0)
    assert val == pytest.approx(2.0, abs=2e-4)


def test_boundary_integral_2d_gaussianish():
    spec = QuadSpec(half_width=6.0, dx=0.1, levels=2)
    val, _ = integrate_boundary(
        lambda p: np.exp(-np.sum(p**2, axis=-1)), 2, spec, decay=None
    )
    assert val == pytest.approx(math.pi, rel=1e-4)


def test_gridfn_trapezoid_inf_maps_to_zero():
    vals = np.array([[1.0, np.inf], [1.0, 1.0]])
    f = ExtGridFn([(0, 1), (0, 1)], vals)
    got = integrate_gridfn(f)
    # weights: corners 0.25 each; the inf corner contributes nothing
    assert got == pytest.approx(0.75)


def test_gridfn_transform_power():
    xs = np.linspace(0, 1, 101)
    f = ExtGridFn([(0, 1)], 1.0 + xs)
    got = integrate_gridfn(f, lambda v: v**2)
    assert got == pytest.approx(7 / 3, abs=1e-4)


def test_monotone_in_aperture(halfplane):
    # wider cones contain narrower ones, so the moment grows
    spec = QuadSpec(half_width=5.0, dx=0.05, levels=4)
    vals = []
    for slope in (1.5, 1.0, 0.5, 0.0):
        dom = norm_cone(2, slope) if slope > 0 else halfplane
        v, _ = integrate_epigraph(moment_integrand(4.0, E2), dom, spec, decay=4.0)
        vals.append(v)
    assert all(a < b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("block", [None, 1000])
@pytest.mark.parametrize("domain", ["cone", "halfspace", "paraboloid"])
def test_column_blocks_bit_identical(domain, block, monkeypatch):
    # the blocked columns reproduce the one-call-per-slab sums and tail fit
    # exactly, and no integrand call exceeds the block size
    dom = {"cone": norm_cone(2, 1.0), "halfspace": halfspace(2), "paraboloid": paraboloid(2)}[domain]
    if block is not None:
        monkeypatch.setattr(quadrature, "_BLOCK_NODES", block)
    spec = QuadSpec(half_width=5.0, dx=0.01, levels=3)
    f = moment_integrand(4.5, E2)
    sizes = []

    def spy(p):
        sizes.append(len(p))
        return f(p)

    got = integrate_epigraph(spy, dom, spec, shift=0.3, decay=4.5)
    assert got == integrate_epigraph_reference(f, dom, spec, shift=0.3, decay=4.5)
    assert max(sizes) <= quadrature._BLOCK_NODES
    if block is not None:
        # more calls than two per slab: the columns really were split
        assert len(sizes) > 2 * (1 + 4 * spec.levels)
