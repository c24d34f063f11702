"""Graded trapezoid quadrature over epigraph domains."""

import inspect
import math

import numpy as np
import pytest

from epiconv import QuadSpec, halfspace
from epiconv.extgrid import ExtGridFn, norm_cone
from epiconv.quadrature import integrate_boundary, integrate_epigraph, integrate_gridfn
from epiconv import quadrature
from epiconv.extgrid import affine_max, paraboloid
from epiconv.quadrature import power_tail_bound, sphere_area
from oracles import (
    halfplane_moment,
    halfspace3_moment,
    integrate_boundary_estimate_reference,
    integrate_boundary_reference,
    integrate_epigraph_estimate_reference,
    integrate_epigraph_reference,
    polar_cone_moment,
)

E2 = np.array([0.0, 1.0])

DOMAINS = {
    "cone": lambda: norm_cone(2, 1.0),
    "halfspace": lambda: halfspace(2),
    "affine_max": lambda: affine_max([[0.5], [-1.0]]),
    "paraboloid": lambda: paraboloid(2),
}


# the boundary integrals over R^1 and R^2, next to the epigraph domains
BOUNDARY_DIMS = {"R1": 1, "R2": 2}


def _integrate(where, fn, spec, shift=0.0, **kw):
    """integrate_boundary over R^dim for a ``BOUNDARY_DIMS`` key, else
    integrate_epigraph over the shifted ``DOMAINS`` entry."""
    if where in BOUNDARY_DIMS:
        return integrate_boundary(fn, BOUNDARY_DIMS[where], spec, **kw)
    return integrate_epigraph(fn, DOMAINS[where](), spec, shift=shift, **kw)


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
    dom = DOMAINS[domain]()
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


@pytest.mark.parametrize("shift", [0.0, 0.3, 4.0])
@pytest.mark.parametrize("where", sorted(DOMAINS) + sorted(BOUNDARY_DIMS))
def test_rows_start_at_the_lowest_column_start(where, shift):
    # each box's rows drop the nodes below every column's start, down to
    # the top two nodes when every column starts at the last
    dom = None if where in BOUNDARY_DIMS else DOMAINS[where]()
    n = BOUNDARY_DIMS[where] if dom is None else dom.n
    spec = QuadSpec(half_width=2.0, dx=0.1, levels=2)
    seen = 0
    for level, box in quadrature._shell_boxes(spec, n):
        cols = quadrature._columns(dom, box, spec.dx * 2.0**level, shift)
        if len(cols.idx):
            seen += 1
            assert cols.j0.min() == 0 or len(cols.x2) == 2
            assert cols.x2[-1] == box[-1][1]
    assert seen


def test_columns_that_all_start_at_the_last_node():
    # on x2 >= 0.8 every column of the box [-1, 1]^2 at spacing 0.5 starts
    # at its last node, x2 = 1: the rows keep the two top nodes, and each
    # column is its partial cell alone
    got = integrate_epigraph(
        lambda p: np.ones(len(p)), halfspace(2), QuadSpec(1.0, 0.5, 0), shift=0.8
    )
    assert got == (0.3999999999999999, 0.0)


def _bytes(result):
    return np.array(result, dtype=float).tobytes()


@pytest.mark.parametrize("shift", [0.0, 1.0])
@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_estimate_bit_identical_to_two_sweeps(domain, shift):
    # one sweep that reuses the fine values gives the (value, error, tail)
    # of a coarse run and a separate run at half spacing
    dom = DOMAINS[domain]()
    spec = QuadSpec(half_width=4.0, dx=0.05, levels=2)
    f = moment_integrand(4.5, E2)
    got = integrate_epigraph(f, dom, spec, shift=shift, decay=4.5, estimate=True)
    want = integrate_epigraph_estimate_reference(f, dom, spec, shift=shift, decay=4.5)
    assert _bytes(got) == _bytes(want)


@pytest.mark.parametrize("case", ["3d", "non_nesting", "block_1000"])
def test_estimate_bit_identical_edge_cases(case, monkeypatch):
    dom, spec, e = norm_cone(2, 1.0), QuadSpec(half_width=4.0, dx=0.05, levels=2), E2
    if case == "3d":
        dom, spec, e = norm_cone(3, 0.7), QuadSpec(half_width=2.0, dx=0.1, levels=1), np.array([0.0, 0.0, 1.0])
    elif case == "non_nesting":
        # 10 / 0.3 rounds to 33 cells, 10 / 0.15 to 67: the grids share
        # only some nodes, and the coarse sums evaluate the others
        spec = QuadSpec(half_width=5.0, dx=0.3, levels=2)
    else:
        monkeypatch.setattr(quadrature, "_BLOCK_NODES", 1000)
    f = moment_integrand(4.5, e)
    sizes = []
    for shift in (0.0, 1.0):
        got = integrate_epigraph(
            lambda p: sizes.append(len(p)) or f(p), dom, spec, shift=shift, decay=4.5, estimate=True
        )
        want = integrate_epigraph_estimate_reference(f, dom, spec, shift=shift, decay=4.5)
        assert _bytes(got) == _bytes(want)
    assert max(sizes) <= quadrature._BLOCK_NODES


def _stack(*fns):
    """One stacked integrand whose rows are ``fns``."""
    return lambda p: np.stack([f(p) for f in fns])


def _stacked_case(where):
    """Three integrands with their decays, one without a tail fit; the
    first and last share a radius, as stacked call sites do. The radius is
    ||p + e2|| on an epigraph and sqrt(1 + ||p||^2) on a boundary."""
    def fns(p):
        p = np.asarray(p, dtype=float)
        if where in BOUNDARY_DIMS:
            r = np.sqrt(1.0 + np.sum(p**2, axis=-1))
        else:
            r = np.linalg.norm(p + E2, axis=-1)
        return [r ** (-4.5), np.exp(-np.sum(p**2, axis=-1)), r ** (-6.0)]

    rows = [lambda p, i=i: fns(p)[i] for i in range(3)]
    return (lambda p: np.stack(fns(p))), rows, [4.5, None, 6.0]


@pytest.mark.parametrize("estimate", [False, True])
@pytest.mark.parametrize(
    "where,shift",
    [(d, s) for d in sorted(DOMAINS) for s in (0.0, 1.0)] + [(b, 0.0) for b in BOUNDARY_DIMS],
)
def test_stacked_rows_bit_identical_to_one_row_sweeps(where, shift, estimate):
    # each row of one stacked sweep gives the (value, error, tail) of
    # integrating that row alone, on an epigraph and on a boundary
    spec = QuadSpec(half_width=4.0, dx=0.05, levels=2)
    fn, rows, decays = _stacked_case(where)
    got = _integrate(where, fn, spec, shift=shift, decay=decays, estimate=estimate)
    assert len(got) == len(rows)
    for res, row, decay in zip(got, rows, decays):
        want = _integrate(where, row, spec, shift=shift, decay=decay, estimate=estimate)
        assert _bytes(res) == _bytes(want)


@pytest.mark.parametrize("estimate", [False, True])
@pytest.mark.parametrize("where", ["cone", "halfspace", "paraboloid", "R2"])
def test_stacked_blocks_bit_identical(where, estimate, monkeypatch):
    # split blocks hold _BLOCK_NODES // k points of each row, and the rows
    # still equal their one-row sweeps at the default block size; a block
    # holds at least one column, so R2's fine columns of the whole core
    # height get a spacing at which they fit
    spec = QuadSpec(half_width=5.0, dx=0.1 if where == "R2" else 0.05, levels=2)
    fn, rows, decays = _stacked_case(where)
    want = [
        _integrate(where, row, spec, shift=0.3, decay=d, estimate=estimate)
        for row, d in zip(rows, decays)
    ]
    monkeypatch.setattr(quadrature, "_BLOCK_NODES", 1000)
    sizes = []
    got = _integrate(
        where, lambda p: sizes.append(len(p)) or fn(p), spec, shift=0.3, decay=decays,
        estimate=estimate,
    )
    assert [_bytes(r) for r in got] == [_bytes(r) for r in want]
    assert max(sizes) <= 1000 // len(rows)
    assert len(sizes) > 2 * (1 + 4 * spec.levels)


@pytest.mark.parametrize("estimate", [False, True])
def test_one_row_stack_equals_plain_integrand(estimate):
    dom, spec = DOMAINS["paraboloid"](), QuadSpec(half_width=4.0, dx=0.05, levels=2)
    f = moment_integrand(4.5, E2)
    (got,) = integrate_epigraph(
        lambda p: f(p)[None, :], dom, spec, shift=0.3, decay=[4.5], estimate=estimate
    )
    assert _bytes(got) == _bytes(
        integrate_epigraph(f, dom, spec, shift=0.3, decay=4.5, estimate=estimate)
    )


def test_stacked_integrand_of_wrong_shape_rejected():
    f = moment_integrand(4.5, E2)
    with pytest.raises(ValueError):
        integrate_epigraph(f, DOMAINS["cone"](), QuadSpec(4.0, 0.1, 1), decay=[4.5, 4.5])
    with pytest.raises(ValueError, match="shape"):
        integrate_epigraph(
            lambda p: np.stack([f(p), f(p)], axis=-1), DOMAINS["cone"](), QuadSpec(4.0, 0.1, 1),
            decay=[4.5, 4.5],
        )


# an odd integrand batch size, so that batches split columns and mix grid
# nodes with the partial-cell boundary points appended after them
SMALL_BATCH = 37


def _batched(f, sizes):
    """f, recording the number of points of each call."""
    return lambda p: sizes.append(len(p)) or f(p)


def _boundary_peak(p):
    """A moment integrand times a factor that is 1 on the half-space boundary
    x2 = 0.3 and below 1e-4 from 0.1 above it, so the partial-cell points
    carry the largest |f| * r^alpha and the tail fit must leave them out."""
    p = np.asarray(p, dtype=float)
    return moment_integrand(4.5, E2)(p) * np.exp(-(p[:, -1] - 0.3) / 0.01)


@pytest.mark.parametrize("domain", ["cone", "affine_max", "paraboloid", "halfspace_peak"])
def test_small_batches_bit_identical(domain, monkeypatch):
    monkeypatch.setattr(quadrature, "_EVAL_NODES", SMALL_BATCH)
    spec, f = QuadSpec(4.0, 0.05, 2), moment_integrand(4.5, E2)
    if domain == "halfspace_peak":
        dom, f = DOMAINS["halfspace"](), _boundary_peak
    else:
        dom = DOMAINS[domain]()
    sizes = []
    got = integrate_epigraph(_batched(f, sizes), dom, spec, shift=0.3, decay=4.5)
    assert _bytes(got) == _bytes(integrate_epigraph_reference(f, dom, spec, shift=0.3, decay=4.5))
    assert max(sizes) <= SMALL_BATCH


@pytest.mark.parametrize("estimate", [False, True])
@pytest.mark.parametrize("domain", ["cone", "paraboloid"])
def test_small_batches_stacked_bit_identical(domain, estimate, monkeypatch):
    # every row of a three-row stack against the oracle of that row alone
    monkeypatch.setattr(quadrature, "_EVAL_NODES", SMALL_BATCH)
    dom, spec = DOMAINS[domain](), QuadSpec(4.0, 0.05, 2)
    fn, rows, decays = _stacked_case(domain)
    sizes = []
    got = integrate_epigraph(
        _batched(fn, sizes), dom, spec, shift=0.3, decay=decays, estimate=estimate
    )
    oracle = integrate_epigraph_estimate_reference if estimate else integrate_epigraph_reference
    assert [_bytes(r) for r in got] == [
        _bytes(oracle(row, dom, spec, shift=0.3, decay=d)) for row, d in zip(rows, decays)
    ]
    assert max(sizes) <= SMALL_BATCH


@pytest.mark.parametrize(
    "spec",
    # nested grids, and non-nesting ones whose coarse sums evaluate the
    # nodes the fine grid lacks
    [QuadSpec(4.0, 0.05, 2), QuadSpec(5.0, 0.3, 2)],
)
@pytest.mark.parametrize("domain", ["cone", "paraboloid"])
def test_small_batches_estimate_bit_identical(domain, spec, monkeypatch):
    monkeypatch.setattr(quadrature, "_EVAL_NODES", SMALL_BATCH)
    dom, f = DOMAINS[domain](), moment_integrand(4.5, E2)
    sizes = []
    for shift in (0.0, 1.0):
        got = integrate_epigraph(
            _batched(f, sizes), dom, spec, shift=shift, decay=4.5, estimate=True
        )
        want = integrate_epigraph_estimate_reference(f, dom, spec, shift=shift, decay=4.5)
        assert _bytes(got) == _bytes(want)
    assert max(sizes) <= SMALL_BATCH


@pytest.mark.parametrize("dim", [1, 2])
def test_small_batches_boundary_estimate_bit_identical(dim, monkeypatch):
    monkeypatch.setattr(quadrature, "_EVAL_NODES", SMALL_BATCH)
    spec = QuadSpec(4.0, 0.1, 2)
    f = lambda p: (1.0 + np.sum(np.asarray(p) ** 2, axis=-1)) ** (-1.5)
    sizes = []
    got = integrate_boundary(_batched(f, sizes), dim, spec, decay=3.0, estimate=True)
    assert _bytes(got) == _bytes(integrate_boundary_estimate_reference(f, dim, spec, decay=3.0))
    assert max(sizes) <= SMALL_BATCH


def test_batch_of_wrong_length_rejected(monkeypatch):
    # the first batches are right, a later one returns a value too many
    monkeypatch.setattr(quadrature, "_EVAL_NODES", SMALL_BATCH)
    f, calls = moment_integrand(4.5, E2), []

    def late_extra(p):
        calls.append(len(p))
        v = f(p)
        return np.append(v, 1.0) if len(calls) == 3 else v

    with pytest.raises(ValueError, match="integrand returned shape"):
        integrate_epigraph(late_extra, DOMAINS["cone"](), QuadSpec(4.0, 0.1, 1), decay=4.5)
    assert len(calls) == 3


def _row_counts(calls):
    counts = {}
    for pts in calls:
        for row in np.asarray(pts, dtype=float):
            counts[row.tobytes()] = counts.get(row.tobytes(), 0) + 1
    return counts


def _once_per_sweep(estimate_calls, fine_calls, coarse_calls):
    """Each node reaches fn in the estimate as often as in whichever single
    sweep holds it. This holds whenever each coarse node that some fine node
    matches is matched within its own shell box: on nested grids, and on a
    lone box (levels=0), where the boxes cannot share faces."""
    est, fine, coarse = map(_row_counts, (estimate_calls, fine_calls, coarse_calls))
    assert est == {k: max(fine.get(k, 0), coarse.get(k, 0)) for k in fine.keys() | coarse.keys()}
    return est, fine


def _check_each_node_once(where, spec, f, decay):
    spec = QuadSpec(*spec)
    calls = {"est": [], "fine": [], "coarse": []}
    for key, s, est in (("est", spec, True), ("fine", spec.refined(extend=False), False), ("coarse", spec, False)):
        _integrate(
            where, lambda p, c=calls[key]: c.append(p) or f(p), s, shift=0.3, decay=decay, estimate=est
        )
    est, fine = _once_per_sweep(calls["est"], calls["fine"], calls["coarse"])
    if spec.levels == 0:
        assert set(est.values()) == {1}
    if spec.dx == 0.05:
        # nested grids: beyond the fine run, fn sees only boundary points a
        # coarse partial cell needs, and a boundary integral has none
        extra = sum(est.values()) - sum(fine.values())
        assert extra == 0 if where in BOUNDARY_DIMS else extra < 0.01 * sum(fine.values())


NODE_SPECS = [(4.0, 0.05, 0), (5.0, 0.3, 0), (4.0, 0.05, 2)]


@pytest.mark.parametrize("spec", NODE_SPECS)
@pytest.mark.parametrize("domain", ["cone", "paraboloid"])
def test_estimate_evaluates_each_node_once(domain, spec):
    _check_each_node_once(domain, spec, moment_integrand(4.5, E2), 4.5)


@pytest.mark.parametrize("spec", NODE_SPECS)
@pytest.mark.parametrize("where", ["cone", "paraboloid", "R1", "R2"])
def test_stacked_estimate_evaluates_each_node_once(where, spec):
    # one call serves every row, so rows do not multiply the nodes
    f = _stack(*_stacked_case(where)[1])
    _check_each_node_once(where, spec, f, [4.5, None, 6.0])


@pytest.mark.parametrize("spec", [(4.0, 0.02, 3), (5.0, 0.3, 0), (5.0, 0.3, 2)])
@pytest.mark.parametrize("dim", [1, 2])
def test_boundary_bit_identical_to_reference(dim, spec):
    spec = QuadSpec(*spec)
    if dim == 2 and spec.dx < 0.1:
        spec = QuadSpec(spec.half_width, 0.1, spec.levels)
    f = lambda p: (1.0 + np.sum(np.asarray(p) ** 2, axis=-1)) ** (-1.5)
    calls = {"est": [], "fine": [], "coarse": []}
    assert _bytes(integrate_boundary(f, dim, spec, decay=3.0)) == _bytes(
        integrate_boundary_reference(f, dim, spec, decay=3.0)
    )
    got = integrate_boundary(lambda p: calls["est"].append(p) or f(p), dim, spec, decay=3.0, estimate=True)
    want = integrate_boundary_estimate_reference(f, dim, spec, decay=3.0)
    assert _bytes(got) == _bytes(want)
    if spec.dx == 0.3 and spec.levels > 0:
        return  # shifted grids with shared box faces: see _once_per_sweep
    for key, s in (("fine", spec.refined(extend=False)), ("coarse", spec)):
        integrate_boundary(lambda p, c=calls[key]: c.append(p) or f(p), dim, s, decay=3.0)
    _once_per_sweep(calls["est"], calls["fine"], calls["coarse"])


@pytest.mark.parametrize("integrate", [integrate_epigraph, integrate_boundary])
def test_integrators_keep_the_parameters_the_tracer_binds(integrate):
    # perfbench/tracer.py binds fn and estimate by name to count the
    # integrand's evaluations; without them every traced pass raises
    assert {"fn", "estimate"} <= set(inspect.signature(integrate).parameters)


def _plane_spy(f, seen):
    """f, recording for each call whether every coordinate plane of the
    points is contiguous."""
    def spy(p):
        seen.append(all(p[:, d].flags.c_contiguous for d in range(p.shape[1])))
        return f(p)
    return spy


def _check_epigraph_points(case, estimate, stacked):
    # non-nesting spacings, so the estimate also evaluates coarse-only
    # columns, and curved boundaries, so partial cells evaluate boundary points
    if case == "cone3d":
        dom, e = norm_cone(3, 0.7), np.array([0.0, 0.0, 1.0])
    else:
        dom, e = DOMAINS[case](), E2
    spec = QuadSpec(half_width=2.0, dx=0.3, levels=1)
    seen = []
    f, decay = moment_integrand(4.5, e), 4.5
    if stacked:
        f, decay = _stack(f, moment_integrand(6.0, e)), [4.5, 6.0]
    integrate_epigraph(_plane_spy(f, seen), dom, spec, shift=0.3, decay=decay, estimate=estimate)
    assert len(seen) > 1 and all(seen)


@pytest.mark.parametrize("estimate", [False, True])
@pytest.mark.parametrize("case", ["cone", "paraboloid", "cone3d"])
def test_epigraph_points_are_coordinate_major(case, estimate):
    _check_epigraph_points(case, estimate, stacked=False)


@pytest.mark.parametrize("estimate", [False, True])
@pytest.mark.parametrize("case", ["cone", "paraboloid", "cone3d"])
def test_stacked_epigraph_points_are_coordinate_major(case, estimate):
    _check_epigraph_points(case, estimate, stacked=True)


@pytest.mark.parametrize("estimate", [False, True])
def test_boundary_points_are_coordinate_major(estimate):
    seen = []
    f = lambda p: (1.0 + np.sum(np.asarray(p) ** 2, axis=-1)) ** (-1.5)
    spec = QuadSpec(5.0, 0.3, 2)
    integrate_boundary(_plane_spy(f, seen), 2, spec, decay=3.0, estimate=estimate)
    # one call per shell slab, and with the estimate more for the coarse
    # nodes the non-nesting fine grid lacks
    slabs = 1 + 2 * 2 * spec.levels
    assert (len(seen) > slabs if estimate else len(seen) == slabs) and all(seen)
