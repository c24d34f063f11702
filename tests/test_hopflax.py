"""Min-plus convolution and Hopf-Lax operators."""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiconv import halfspace
from epiconv.extgrid import INF, ExtGridFn, affine_max, norm_cone, sample_grid
from epiconv.fields import ScalarField, quadratic_field
from epiconv.hopflax import (
    hj_difference_quotient,
    hopflax_apply,
    infconv,
    semigroup_residual,
)
from epiconv import hopflax
from epiconv.fields import power_cost_field, shifted_field
from epiconv.transforms import NormSpec
from oracles import (
    counterexample_pair,
    counterexample_table,
    domain_sum_check,
    _shift_interp_candidates,
    exact_hopflax_reference,
    hopflax_pointwise,
    hopflax_pointwise_reference,
    interpolate_reference,
    naive_hopflax,
    naive_infconv,
    richardson_limit,
)


def grid1d(lo, hi, vals):
    return ExtGridFn([(lo, hi)], np.asarray(vals, dtype=float))


class TestInfconv:
    def test_identity_element(self):
        ident = grid1d(0, 1, [0.0, INF, INF])
        g = grid1d(0, 1, [1.0, 2.0, 3.0])
        res = infconv(ident, g)
        np.testing.assert_array_equal(res.values.values, [1.0, 2.0, 3.0, INF, INF])

    def test_quadratic_pair(self):
        xs = np.linspace(-2, 2, 41)
        f = grid1d(-2, 2, xs**2 / 2)
        res = infconv(f, f)
        xo = np.linspace(-4, 4, 81)
        inner = np.abs(xo) <= 2
        assert np.max(np.abs(res.values.values[inner] - xo[inner] ** 2 / 4)) <= 0.1**2

    def test_matches_naive_2d(self):
        rng = np.random.default_rng(12)
        fv = rng.uniform(0, 2, size=(4, 5))
        gv = rng.uniform(0, 2, size=(3, 4))
        fv[0, 1] = INF
        f = ExtGridFn([(0, 0.3), (0, 0.4)], fv)
        g = ExtGridFn([(0, 0.2), (0, 0.3)], gv)
        res = infconv(f, g)
        want, warg = naive_infconv(fv, gv)
        np.testing.assert_array_equal(res.values.values, want)
        np.testing.assert_array_equal(res.argmin, warg)

    def test_spacing_mismatch_rejected(self):
        f = grid1d(0, 1, [0.0, 1.0, 2.0])
        g = grid1d(0, 2, [0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="spacing"):
            infconv(f, g)

    def test_matches_naive_1d_bit_for_bit(self):
        # values and smallest-index argmins, for grid-convex and non-convex g;
        # the floored pair makes ties common
        rng = np.random.default_rng(0)
        for trial in range(30):
            nf, ng = rng.integers(4, 40, 2)
            fv = rng.uniform(0, 3, nf)
            fv[rng.random(nf) < 0.2] = INF
            if not np.isfinite(fv).any():
                fv[0] = 1.0
            slopes = np.sort(rng.uniform(-1, 1, ng - 1))
            gv = np.concatenate([[0.0], np.cumsum(slopes)])
            bumped = gv.copy()
            bumped[ng // 2] += 2.0
            assert (np.diff(gv, 2) >= 0.0).all() and (np.diff(bumped, 2) < 0.0).any()
            for fa, ga in ((fv, gv), (fv, bumped), (np.floor(fv), np.floor(bumped))):
                res = infconv(grid1d(0, (nf - 1) * 0.1, fa), grid1d(0, (ng - 1) * 0.1, ga))
                want, warg = naive_infconv(fa, ga)
                np.testing.assert_array_equal(res.values.values, want)
                np.testing.assert_array_equal(res.argmin, warg)

    def test_argmin_attains_values(self):
        rng = np.random.default_rng(5)
        fv = rng.uniform(0, 2, size=(5, 4))
        gv = rng.uniform(0, 2, size=(4, 6))
        f = ExtGridFn([(0, 0.4), (0, 0.3)], fv)
        g = ExtGridFn([(0, 0.3), (0, 0.5)], gv)
        res = infconv(f, g)
        for km in np.argwhere(res.values.finite_mask):
            jflat = res.argmin[tuple(km)]
            jm = np.unravel_index(jflat, fv.shape)
            im = tuple(k - j for k, j in zip(km, jm))
            assert fv[jm] + gv[im] == res.values.values[tuple(km)]

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_envelope_property(self, seed):
        rng = np.random.default_rng(seed)
        nf, ng = rng.integers(2, 8, 2)
        fv = rng.uniform(0, 2, nf)
        gv = rng.uniform(0, 2, ng)
        f = grid1d(0, (nf - 1) * 0.5, fv)
        g = grid1d(0, (ng - 1) * 0.5, gv)
        res = infconv(f, g)
        for k in range(nf + ng - 1):
            for j in range(nf):
                if 0 <= k - j < ng:
                    assert res.values.values[k] <= fv[j] + gv[k - j]

    def test_is_hopflax_at_h_one(self):
        # Q_1(g) with the cost f on g's lattice is exactly f box g, argmins
        # included
        rng = np.random.default_rng(8)
        fv = np.floor(rng.uniform(0, 4, size=(5, 4)))
        gv = np.floor(rng.uniform(0, 4, size=(4, 6)))
        fv[1, 2] = gv[0, 0] = gv[3, 1] = INF
        f = ExtGridFn([(0, 0.4), (-0.3, 0)], fv)
        g = ExtGridFn([(1, 1.3), (0, 0.5)], gv)
        res = infconv(f, g)
        q1 = hopflax_apply(g, f, 1.0)
        np.testing.assert_array_equal(q1.values.values, res.values.values)
        np.testing.assert_array_equal(q1.argmin, res.argmin)

    def test_far_offset_boxes(self):
        # only indices enter the convolution, so boxes far from the origin
        # change the output box and nothing else
        rng = np.random.default_rng(9)
        fv = rng.uniform(0, 2, size=(6, 5))
        gv = rng.uniform(0, 2, size=(4, 7))
        fv[2, 3] = INF
        far = 3.3e7
        f = ExtGridFn([(far, far + 0.5), (-far, -far + 0.4)], fv)
        g = ExtGridFn([(1.0, 1.3), (far, far + 0.6)], gv)
        res = infconv(f, g)
        want, warg = naive_infconv(fv, gv)
        assert res.values.values.tobytes() == want.tobytes()
        assert res.argmin.tobytes() == warg.tobytes()
        np.testing.assert_allclose(res.values.box, [(far + 1.0, far + 1.8), (0.0, 1.0)], atol=1e-6)

    def test_never_takes_a_hopflax_path(self, taken):
        # infconv runs the min-plus scan itself, with no prune, bit for bit
        f, g = quadratic_grid(2, 9, offset=0.5), quadratic_grid(1.5, 7)
        res = infconv(f, g)
        assert taken == []
        want, warg = naive_infconv(f.values, g.values)
        assert res.values.values.tobytes() == want.tobytes()
        assert res.argmin.tobytes() == warg.tobytes()

    def test_counterexample_table_exact(self):
        f, g = counterexample_pair(0.25)
        res = infconv(f, g)
        xs = res.values.axes[0]
        X1, X2 = np.meshgrid(xs, res.values.axes[1], indexing="ij")
        want = counterexample_table(X1, X2)
        np.testing.assert_array_equal(res.values.values, want)

    def test_counterexample_is_discontinuous(self):
        # the left-edge value 1 - x2 sits strictly below the interior value 1
        f, g = counterexample_pair(0.25)
        res = infconv(f, g)
        v = res.values
        i0 = 0
        j = 2  # x2 = 0.5
        assert v.values[i0, j] == 0.5
        assert v.values[i0 + 1, j] == 1.0


class TestDomainSum:
    def test_interval_sum(self):
        f = grid1d(0, 1, [1.0, 1.0, 1.0])
        g = grid1d(2, 3, [0.5, 0.5, 0.5])
        res = infconv(f, g)
        ok, witness = domain_sum_check(f, g, res)
        assert ok and witness is None
        assert res.values.box[0] == (2.0, 4.0)

    def test_counterexample_domain(self):
        f, g = counterexample_pair(0.25)
        ok, _ = domain_sum_check(f, g)
        assert ok

    def test_full_domains(self):
        rng = np.random.default_rng(1)
        f = grid1d(0, 1, rng.uniform(0, 1, 5))
        g = grid1d(0, 1, rng.uniform(0, 1, 5))
        res = infconv(f, g)
        assert res.values.finite_mask.all()
        assert domain_sum_check(f, g, res)[0]


def quadratic_grid(L, m, offset=0.0, curvature=1.0, dim=2):
    xs = np.linspace(-L, L, m)
    mesh = np.stack(np.meshgrid(*([xs] * dim), indexing="ij"), axis=-1)
    vals = offset + 0.5 * curvature * np.sum(mesh**2, axis=-1)
    return ExtGridFn([(-L, L)] * dim, vals)


def _bump(g, centre, amplitude):
    mesh = np.stack(np.meshgrid(*g.axes, indexing="ij"), axis=-1)
    bump = amplitude * np.exp(-4.0 * np.sum((mesh - centre) ** 2, axis=-1))
    return ExtGridFn(g.box, g.values + bump)


def _cone_cut(g):
    # +inf below the cone x2 >= |x1|
    mesh = np.stack(np.meshgrid(*g.axes, indexing="ij"), axis=-1)
    return ExtGridFn(g.box, np.where(mesh[..., 1] >= np.abs(mesh[..., 0]), g.values, INF))


EXACT_FIXTURES = {
    "convex": lambda: (quadratic_grid(2, 21, offset=0.5), quadratic_grid(2, 17), None),
    "bump": lambda: (
        _bump(quadratic_grid(2, 21, offset=0.5), [0.3, -0.2], 1.5), quadratic_grid(2, 17), None
    ),
    "cone": lambda: (_cone_cut(quadratic_grid(2, 21, offset=0.5)), quadratic_grid(2, 17), None),
    "floored": lambda: (
        ExtGridFn([(-2, 2)] * 2, np.floor(2 * quadratic_grid(2, 21).values) / 2),
        ExtGridFn([(-2, 2)] * 2, np.floor(quadratic_grid(2, 17).values)),
        None,
    ),
    "1d": lambda: (
        _bump(quadratic_grid(3, 61, dim=1), [0.5], 1.0), quadratic_grid(2, 41, dim=1), None
    ),
    "3d": lambda: (quadratic_grid(1.5, 9, offset=0.5, dim=3), quadratic_grid(1, 7, dim=3), None),
    # an output grid other than the default one, read by the kernel itself
    "out_box": lambda: (
        _bump(quadratic_grid(2, 21, offset=0.5), [0.3, -0.2], 1.5),
        quadratic_grid(2, 17),
        ([(-1.3, 2.1), (-2.45, 0.75)], [18, 17]),
    ),
    "integer": lambda: _integer_pair(),
    "inf_cells": lambda: _inf_cells_pair(),
    "float_split": lambda: _float_split_pair(),
    # every candidate ties at 0, where the rounding allowance is 0 too
    "zeros": lambda: (
        ExtGridFn([(-1, 1)] * 2, np.zeros((11, 11))),
        ExtGridFn([(-1.2, 1.2)] * 2, np.zeros((9, 9))),
        None,
    ),
}


def _halfspace_cut(g, level):
    # +inf below the last coordinate's level
    mesh = np.stack(np.meshgrid(*g.axes, indexing="ij"), axis=-1)
    return ExtGridFn(g.box, np.where(mesh[..., -1] >= level, g.values, INF))


def _halfspace_pair():
    # the bbl_gap power-cost pair on boxes that reach below the half-space,
    # so both grids carry +inf nodes
    W = power_cost_field(1.6, 3.0, NormSpec("euclidean"))
    g = shifted_field(W, np.array([0.0, 1.0]))
    dom = halfspace(2)
    gg = sample_grid(dom, [(-2, 2), (-0.5, 2)], [41, 26], g)
    WW = sample_grid(dom, [(-2, 2), (0.5, 3)], [41, 26], W, h=1.0)
    return gg, WW, None


# larger grids, compared with the reference scan only: convex problems on
# 61^2 and 13^3 nodes, and convex pairs whose +inf nodes cut a half-line, a
# cone or a half-plane, so the outputs near the boundary of the finite set
# are kept
REFERENCE_FIXTURES = {
    "1d_convex": lambda: (
        quadratic_grid(3, 61, offset=1.0, dim=1), quadratic_grid(2, 41, dim=1), None
    ),
    "1d_cut": lambda: (
        _halfspace_cut(quadratic_grid(3, 61, offset=1.0, dim=1), -1.0),
        quadratic_grid(2, 41, dim=1),
        None,
    ),
    "2d_61": lambda: (quadratic_grid(3, 61, offset=1.0), quadratic_grid(3, 61), None),
    "3d_13": lambda: (
        quadratic_grid(1.5, 13, offset=0.5, dim=3), quadratic_grid(1.5, 13, dim=3), None
    ),
    "cone_41": lambda: (_cone_cut(quadratic_grid(2, 41, offset=0.5)), quadratic_grid(2, 33), None),
    "halfspace": _halfspace_pair,
}


def _integer_pair():
    # integer values make ties common; W's spacing differs from g's, so the
    # offsets fall into many classes at every h, h = 1 included
    rng = np.random.default_rng(21)
    g = ExtGridFn([(-1, 1), (-0.6, 0.6)], rng.integers(0, 3, (21, 13)).astype(float))
    W = ExtGridFn([(-1.3, 1.3), (-0.65, 0.65)], rng.integers(0, 3, (21, 11)).astype(float))
    return g, W, None


def _inf_cells_pair():
    # +inf nodes scattered inside g's box and among W's nodes
    rng = np.random.default_rng(22)
    g = _bump(quadratic_grid(2, 21, offset=0.5), [0.3, -0.2], 1.5)
    gv = np.where(rng.random(g.resolution) < 0.1, INF, g.values)
    W = quadratic_grid(2, 17)
    Wv = np.where(rng.random(W.resolution) < 0.15, INF, W.values)
    return ExtGridFn(g.box, gv), ExtGridFn(W.box, Wv), None


def _float_split_pair():
    # dx = 0.1 on both grids, as on the suite grids: at h = 0.1 the rational
    # offsets k/10 round to many distinct floats, each its own class
    xs = np.linspace(-2, 2, 41)
    ys = np.linspace(0, 1.5, 16)
    mesh = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)
    g = ExtGridFn([(-2, 2), (0, 1.5)], np.sum(mesh**2, axis=-1) + np.sin(3 * mesh[..., 0]))
    W = ExtGridFn([(-2, 2), (1, 2.5)], np.sum((mesh - [0, -1]) ** 2, axis=-1) ** 2 / 4)
    return g, W, None


def _offset_classes(g, W, h, axes):
    """The distinct offset tuples of the finite cost nodes that reach an
    output node."""
    tables = hopflax._axis_tables(g, [h * ax for ax in W.axes], axes)
    reach = np.ones(W.resolution, dtype=bool)
    for d, (lo, hi, _base, _frac) in enumerate(tables):
        shape = [1] * W.dim
        shape[d] = -1
        reach &= (lo < hi).reshape(shape)
    fracs = [frac for _lo, _hi, _base, frac in tables]
    return {
        tuple(f[i] for f, i in zip(fracs, idx))
        for idx in np.argwhere(reach & np.isfinite(W.values))
    }


def _assert_exact(fixture, h):
    # values and smallest-index argmins equal the per-y full-grid scan byte
    # for byte
    g, W, grid = {**EXACT_FIXTURES, **REFERENCE_FIXTURES}[fixture]()
    if grid is None:
        res = hopflax_apply(g, W, h)
        axes, vals, arg = res.values.axes, res.values.values, res.argmin
    else:
        axes = [np.linspace(lo, hi, m) for (lo, hi), m in zip(*grid)]
        vals, arg = hopflax._hopflax_exact(g, W, h, axes, tuple(grid[1]))
    want, warg = exact_hopflax_reference(g, W, h, axes)
    assert vals.tobytes() == want.tobytes()
    assert arg.tobytes() == warg.tobytes()


@pytest.mark.parametrize("h", [0.1, 0.25, 0.5, 1.0])
@pytest.mark.parametrize("fixture", sorted(EXACT_FIXTURES) + sorted(REFERENCE_FIXTURES))
def test_exact_bit_identical_to_reference(fixture, h):
    _assert_exact(fixture, h)


@pytest.mark.parametrize("h", [0.1, 0.25, 0.5, 1.0])
@pytest.mark.parametrize("fixture", sorted(EXACT_FIXTURES))
def test_exact_one_class_per_chunk(fixture, h, monkeypatch):
    # every tie across offset classes is settled by the chunk merge
    monkeypatch.setattr(hopflax, "_LATTICE_CACHE", 1)
    _assert_exact(fixture, h)


def test_fixtures_split_into_chunks():
    # the tie and float-split fixtures hold more offset classes than one chunk
    for fixture, h in (("integer", 1.0), ("integer", 0.25), ("float_split", 0.1)):
        g, W, _ = EXACT_FIXTURES[fixture]()
        res = hopflax_apply(g, W, h)
        assert len(_offset_classes(g, W, h, res.values.axes)) > hopflax._LATTICE_CACHE
    # at h = 0.1 the rational offsets k/10 give at most 10 fractions per axis
    g, W, _ = _float_split_pair()
    axes = hopflax_apply(g, W, 0.1).values.axes
    tables = hopflax._axis_tables(g, [0.1 * ax for ax in W.axes], axes)
    assert max(len(np.unique(frac)) for *_rest, frac in tables) > 10


@pytest.mark.parametrize("cache", [3, 16])
@pytest.mark.parametrize("fixture, h", [("float_split", 0.1), ("integer", 0.5), ("3d", 0.25)])
def test_each_offset_class_interpolated_once(fixture, h, cache, monkeypatch):
    # one lattice per distinct offset tuple per apply, and never more than
    # _LATTICE_CACHE of them alive at once
    monkeypatch.setattr(hopflax, "_LATTICE_CACHE", cache)
    built, alive, peak = [], [], [0]
    orig = hopflax._interp_lattice

    def spy(vals, fracs):
        lattice = orig(vals, fracs)
        built.append(tuple(fracs))
        alive.append(weakref.ref(lattice))
        peak[0] = max(peak[0], sum(ref() is not None for ref in alive))
        return lattice

    monkeypatch.setattr(hopflax, "_interp_lattice", spy)
    g, W, _ = EXACT_FIXTURES[fixture]()
    res = hopflax_apply(g, W, h)
    assert len(built) == len(set(built))
    assert set(built) == _offset_classes(g, W, h, res.values.axes)
    assert 1 < peak[0] <= cache


def evaluated_candidates(g, W, h, axes):
    """The candidates the pruned scan of Q_h(g) evaluates on the output
    axes: over the finite cost nodes, the sizes of their output ranges cut
    to their cost block's box."""
    tables = hopflax._axis_tables(g, [h * ax for ax in W.axes], axes)
    weights, active = h * W.values, np.isfinite(W.values)
    boxes = hopflax._prune_boxes(g, tables, tuple(map(len, axes)), weights, active)
    reach = active.copy()
    for d, (lo, hi, _base, _frac) in enumerate(tables):
        shape = [1] * W.dim
        shape[d] = -1
        reach &= (lo < hi).reshape(shape)
    _idx, lo, hi, _base = hopflax._node_reads(tables, boxes, np.nonzero(reach))
    return int(np.prod(hi - lo, axis=0).sum())


def test_pruned_scan_candidates_on_perturbed_halfspace():
    # the normalized grids that bbl_gap hands to hopflax_apply for the
    # bump-perturbed half-space on 161 x 81 nodes (dx = 0.1, q = 4, a = 2,
    # the bump of the benchmark's variant 1): over h in {0.1, 0.25, 0.5, 1}
    # the pruned scans evaluate at most the 2.95e7 candidates that one
    # tilted bound per cost block leaves (1.92e7 of them at h = 0.1), the
    # same count on every run
    from epiconv.bblcheck import _normalize_grid
    from epiconv.fields import multiply_bump
    from epiconv.quadrature import QuadSpec
    from epiconv.sharpconst import normalize_power_cost

    dom, norm = halfspace(2), NormSpec("euclidean")
    W = power_cost_field(
        normalize_power_cost(dom, norm, 4.0, 2.0, QuadSpec(5.0, 0.05, 6)), 4.0, norm
    )
    rng = np.random.default_rng(1001)
    centre = [float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.9, 1.2))]
    g = multiply_bump(shifted_field(W, np.array([0.0, 1.0])), centre, 2.0, float(rng.uniform(0.9, 1.1)))
    gs = _normalize_grid(sample_grid(dom, [(-8.0, 8.0), (0.0, 8.0)], [161, 81], g), 2.0)[0]
    Ws = _normalize_grid(sample_grid(dom, [(-8.0, 8.0), (1.0, 9.0)], [161, 81], W, h=1.0), 2.0)[0]

    def counts():
        return [
            evaluated_candidates(gs, Ws, h, hopflax._default_out_grid(gs, Ws, h)[1])
            for h in (0.1, 0.25, 0.5, 1.0)
        ]

    first = counts()
    assert sum(first) <= 29_516_113, first
    assert first == counts()


@pytest.mark.parametrize(
    "c, g_res, w_res, w_step, h",
    [
        (5 / 7, [6, 6], [13, 8], 0.11, 0.25),
        (2 / 3, [8, 7], [11, 9], 0.11, 0.25),
        (1 / 3, [5], [11], 0.07, 0.5),
    ],
)
def test_prune_allowance_keeps_rounded_ties(c, g_res, w_res, w_step, h):
    # g is constant, so each candidate interpolates equal corners, and some of
    # those sums round one ulp below c. h*W is 0 at the first cost node and
    # half an ulp of c elsewhere: the block bound c + h*W of the later nodes
    # then rounds one ulp above the incumbent c that the first node sets,
    # while their candidates tie with it or beat it. Without the rounding
    # allowance those nodes are pruned and values or smallest-index argmins
    # change.
    dim = len(g_res)
    wv = np.full(w_res, np.spacing(c) / 2 / h)
    wv[(0,) * dim] = 0.0
    g = ExtGridFn([(0.0, (m - 1) * 0.1) for m in g_res], np.full(g_res, c))
    W = ExtGridFn([(0.0, (m - 1) * w_step) for m in w_res], wv)
    res = hopflax_apply(g, W, h)
    want, warg = exact_hopflax_reference(g, W, h, res.values.axes)
    assert (want < c).any()
    assert res.values.values.tobytes() == want.tobytes()
    assert res.argmin.tobytes() == warg.tobytes()


def _random_prune_case(rng):
    """A 1-3-D g and W with +inf nodes, W's spacing other than g's, and an
    h; g is smooth plus noise, W a convex quadratic."""
    dim = int(rng.integers(1, 4))
    gm = [int(m) for m in rng.integers(5, 14 if dim < 3 else 8, dim)]
    wm = [int(m) for m in rng.integers(4, 12 if dim < 3 else 7, dim)]
    g_box = [(float(lo), float(lo) + (m - 1) * 0.2) for lo, m in zip(rng.uniform(-1, 0, dim), gm)]
    w_step = float(rng.choice([0.2, 0.13, 0.31]))
    w_box = [(float(lo), float(lo) + (m - 1) * w_step) for lo, m in zip(rng.uniform(-1, 0, dim), wm)]
    g = ExtGridFn(g_box, np.zeros(gm))
    W = ExtGridFn(w_box, np.zeros(wm))
    gx = np.stack(np.meshgrid(*g.axes, indexing="ij"), axis=-1)
    wx = np.stack(np.meshgrid(*W.axes, indexing="ij"), axis=-1)
    gv = np.sin(gx @ rng.uniform(-3, 3, dim)) + np.sum(gx**2, axis=-1)
    gv = gv + 0.1 * rng.standard_normal(gm)
    wv = np.sum(rng.uniform(0.5, 4.0, dim) * (wx - rng.uniform(-0.5, 0.5, dim)) ** 2, axis=-1)
    gv[rng.random(gm) < 0.1] = INF
    wv[rng.random(wm) < 0.1] = INF
    return ExtGridFn(g_box, gv), ExtGridFn(w_box, wv), float(rng.choice([0.1, 0.25, 0.5, 1.0]))


PRUNE_CASES = [f"random-{seed}" for seed in range(12)] + [
    f"{name}-{h}" for name in sorted(EXACT_FIXTURES) for h in (0.1, 0.25, 0.5, 1.0)
]


def _prune_inputs(case):
    """(g, W, h, output axes, tables, weights, active) of a PRUNE_CASES entry."""
    name, param = case.rsplit("-", 1)
    if name == "random":
        g, W, h = _random_prune_case(np.random.default_rng(170 + int(param)))
        grid = None
    else:
        (g, W, grid), h = EXACT_FIXTURES[name](), float(param)
    if grid is None:
        axes = hopflax_apply(g, W, h).values.axes
    else:
        axes = [np.linspace(lo, hi, m) for (lo, hi), m in zip(*grid)]
    tables = hopflax._axis_tables(g, [h * ax for ax in W.axes], axes)
    return g, W, h, axes, tables, h * W.values, np.isfinite(W.values)


@pytest.mark.parametrize("case", PRUNE_CASES)
def test_tilted_bound_holds_for_every_candidate(case):
    # for every block, every output node it reaches and every node of the
    # block: the tilted bound is at most the candidate plus the allowance
    g, W, h, axes, tables, weights, active = _prune_inputs(case)
    blocks_axes, least, slope, kappa, allowance = hopflax._block_bounds(g, tables, weights, active)
    blocks, _reach, _starts, bmin, length, out_lo, out_hi = zip(*blocks_axes)
    pad = [int(n.max()) - 1 for n in length]
    gpad = np.pad(g.values, [(p, p) for p in pad], constant_values=INF)
    shape = tuple(len(ax) for ax in axes)
    bounds, checked = {}, 0
    for y in map(tuple, np.argwhere(active)):
        blk = tuple(b[i] for b, i in zip(blocks, y))
        if min(blk) < 0:
            continue
        if blk not in bounds:
            out = tuple(slice(lo[b], hi[b]) for lo, hi, b in zip(out_lo, out_hi, blk))
            bound = np.full(shape, -INF)
            bound[out] = hopflax._tilted_bound(
                gpad, pad, [b[i] for b, i in zip(bmin, blk)], [n[i] for n, i in zip(length, blk)],
                [q[blk] for q in slope], kappa[blk], out,
            )
            assert not np.isnan(bound).any()
            bounds[blk] = bound
        shift = np.array([h * ax[i] for ax, i in zip(W.axes, y)])
        cand = _shift_interp_candidates(g, axes, shift) + weights[y]
        assert (bounds[blk] <= cand + allowance).all(), (case, y)
        checked += np.isfinite(cand).sum()
    assert checked > 0


def test_prune_cases_are_tilted():
    # the bound above is checked with slopes other than 0 on every random case
    for case in PRUNE_CASES:
        if case.startswith("random"):
            g, W, h, axes, tables, weights, active = _prune_inputs(case)
            slope = hopflax._block_bounds(g, tables, weights, active)[2]
            assert any(np.any(q != 0.0) for q in slope), case


@pytest.mark.parametrize("case", PRUNE_CASES)
def test_tilted_boxes_inside_untilted_boxes(case, monkeypatch):
    # q = 0 with kappa = least weight and the allowance without tilt is the
    # untilted bound alone; the tilted boxes never leave its boxes
    g, W, h, axes, tables, weights, active = _prune_inputs(case)
    shape = tuple(len(ax) for ax in axes)
    blocks, lo, hi = hopflax._prune_boxes(g, tables, shape, weights, active)
    orig = hopflax._block_bounds

    def untilted(*args):
        axes_b, least, slope, _kappa, _allowance = orig(*args)
        zero = [np.zeros_like(q) for q in slope]
        return axes_b, least, zero, least, hopflax._allowance(g, weights, active, 0.0)

    monkeypatch.setattr(hopflax, "_block_bounds", untilted)
    _, lo0, hi0 = hopflax._prune_boxes(g, tables, shape, weights, active)
    kept = np.all([a < b for a, b in zip(lo, hi)], axis=0)
    for d in range(g.dim):
        assert (lo0[d][kept] <= lo[d][kept]).all() and (hi[d][kept] <= hi0[d][kept]).all()
    assert np.all([a < b for a, b in zip(lo0, hi0)], axis=0)[kept].all()


@pytest.fixture
def taken(monkeypatch):
    """One entry per pruned scan hopflax_apply runs."""
    calls = []
    orig = hopflax._hopflax_exact

    def spy(*args):
        calls.append("exact")
        return orig(*args)

    monkeypatch.setattr(hopflax, "_hopflax_exact", spy)
    return calls


def test_exact_memory_is_bounded(taken):
    # the scan keeps at most _LATTICE_CACHE lattices of g alive, and the
    # prune's bounds stay within the same budget
    g, W = quadratic_grid(4, 81, offset=1.0), quadratic_grid(4, 81)
    tracemalloc.start()
    try:
        hopflax_apply(g, W, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert taken == ["exact"]
    assert peak < 40e6, f"the exact path peaked at {peak / 1e6:.1f} MB"


class TestHopfLaxApply:
    def test_h_zero_identity(self):
        # the zero-shift lattice read gives g's bytes back, +inf nodes
        # included; W is not read, whatever its dimension
        plain = quadratic_grid(2, 21)
        cut = _cone_cut(quadratic_grid(2, 21, offset=0.5))
        assert np.isinf(cut.values).any()
        for g, W in ((plain, plain), (cut, quadratic_grid(2, 9, dim=1))):
            res = hopflax_apply(g, W, 0.0)
            assert res.values.values.tobytes() == g.values.tobytes()
            assert res.values.box == g.box
            assert (res.argmin == -1).all()
        # the one byte that can change: the lattice sums its corners from
        # +0.0, so a -0.0 node reads as +0.0
        signed = grid1d(0, 1, [-0.0, 1.0, INF])
        res = hopflax_apply(signed, signed, 0.0)
        assert res.values.values.tobytes() == np.array([0.0, 1.0, INF]).tobytes()

    def test_matches_naive_on_small_grids(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            gv = np.cumsum(np.cumsum(rng.uniform(0, 0.4, size=(8, 8)), axis=0), axis=1)
            g = ExtGridFn([(-1, 0.4), (-1, 0.4)], gv)
            Wv = np.sum(
                np.stack(np.meshgrid(*[np.linspace(-1, 1, 8)] * 2, indexing="ij"), -1) ** 2,
                axis=-1,
            )
            W = ExtGridFn([(-1, 1), (-1, 1)], Wv)
            res = hopflax_apply(g, W, 0.5)
            want = naive_hopflax(g.axes, gv, W.axes, Wv, 0.5, res.values.axes)
            np.testing.assert_allclose(res.values.values, want, rtol=0, atol=1e-12)

    def test_equality_case_scaled_profile(self):
        # Q_h(W) = (1+h) W(./(1+h)) for convex W, checked on a full box
        g = quadratic_grid(3, 61, offset=1.0)
        for h in (0.25, 0.5):
            res = hopflax_apply(g, g, h)
            axes = res.values.axes
            mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
            closed = (1 + h) * (1.0 + 0.5 * np.sum((mesh / (1 + h)) ** 2, axis=-1))
            window = np.all(np.abs(mesh) <= 2.5, axis=-1)
            err = np.max(np.abs(res.values.values[window] - closed[window]))
            assert err <= 5 * 0.1

    def test_monotone_in_g(self):
        rng = np.random.default_rng(8)
        g1v = rng.uniform(0, 2, size=(12, 12))
        g2v = g1v + rng.uniform(0, 1, size=(12, 12))
        box = [(-1, 1), (-1, 1)]
        g1 = ExtGridFn(box, g1v)
        g2 = ExtGridFn(box, g2v)
        W = quadratic_grid(1, 12)
        r1 = hopflax_apply(g1, W, 0.3)
        r2 = hopflax_apply(g2, W, 0.3)
        m = r1.values.finite_mask
        assert (r1.values.values[m] <= r2.values.values[m] + 1e-15).all()

    def test_upper_envelope_at_fixed_y(self):
        g = quadratic_grid(2, 25, offset=0.5)
        W = quadratic_grid(2, 25)
        h = 0.4
        res = hopflax_apply(g, W, h)
        rng = np.random.default_rng(2)
        for _ in range(3):
            jm = tuple(rng.integers(0, 25, 2))
            y = np.array([W.axes[d][jm[d]] for d in range(2)])
            cand = _shift_interp_candidates(g, res.values.axes, h * y) + h * W.values[jm]
            m = np.isfinite(cand)
            assert (res.values.values[m] <= cand[m] + 1e-12).all()

    def test_argmin_attains(self):
        g = quadratic_grid(2, 21, offset=0.5)
        W = quadratic_grid(2, 21)
        res = hopflax_apply(g, W, 0.5)
        fin = np.argwhere(res.values.finite_mask)
        axes = res.values.axes
        rng = np.random.default_rng(0)
        for km in fin[rng.integers(0, len(fin), 50)]:
            jflat = res.argmin[tuple(km)]
            assert jflat >= 0
            # the reference scan over the argmin node alone recomputes its
            # candidate with the same float expression: exact equality
            only = np.full(W.values.size, INF)
            only[jflat] = W.values.ravel()[jflat]
            cand, _ = exact_hopflax_reference(
                g, ExtGridFn(W.box, only.reshape(W.resolution)), 0.5, axes
            )
            assert cand[tuple(km)] == res.values.values[tuple(km)]

    def test_empty_intersection_flagged(self):
        g = ExtGridFn([(0, 1), (0, 1)], np.full((3, 3), INF))
        W = quadratic_grid(1, 5)
        res = hopflax_apply(g, W, 0.5)
        assert np.isinf(res.values.values).all() and (res.argmin == -1).all()
        # a cost with no finite node reaches no output node
        res = hopflax_apply(W, ExtGridFn(W.box, np.full((5, 5), INF)), 0.5)
        assert np.isinf(res.values.values).all() and (res.argmin == -1).all()
        assert np.isfinite(hopflax_apply(W, W, 0.5).values.values).any()

    def test_cone_domain_matches_omega_h(self):
        cone = norm_cone(2, 1.0)
        norm = NormSpec("euclidean")
        W = power_cost_field(1.6, 3.0, norm)
        g = shifted_field(W, np.array([0.0, 1.0]))
        dx = 0.1
        gg = sample_grid(cone, [(-3, 3), (0, 4)], [61, 41], g)
        WW = sample_grid(cone, [(-3, 3), (1, 5)], [61, 41], W, h=1.0)
        h = 0.5
        res = hopflax_apply(gg, WW, h)
        axes = res.values.axes
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        window = (np.abs(mesh[..., 0]) <= 2.5) & (mesh[..., 1] <= 3.5)
        depth = mesh[..., 1] - (np.abs(mesh[..., 0]) + h)
        # never finite strictly outside Omega_h (1e-9 absorbs node roundoff
        # for lattice points that sit exactly on the closed boundary)
        assert not (res.values.finite_mask & (depth < -1e-9) & window).any()
        # finite once one slope-aware cell inside
        deep = (depth > 2 * dx) & window
        assert (res.values.finite_mask[deep]).all()


class TestSemigroup:
    def test_residual_small_and_shrinking(self):
        residuals = []
        for m in (41, 81):
            g = quadratic_grid(2, m, offset=1.0)
            dx = 4.0 / (m - 1)
            r = semigroup_residual(g, g, 0.6, 0.2)
            residuals.append(r)
            assert r <= 5 * dx
        assert residuals[1] < residuals[0]

    def test_steps_off_the_lattice(self):
        # 0.615 * 4 and 0.31 * 4 are not whole multiples of the step 0.1:
        # Q_h g has 66 nodes per axis, Q_{h-s}(Q_s g) on its own default
        # grid would have 65
        g = quadratic_grid(2, 41, offset=1.0)
        r = semigroup_residual(g, g, 0.615, 0.31)
        assert np.isfinite(r) and r <= 5 * 0.1

    def test_collapse_at_endpoints(self):
        g = quadratic_grid(1.5, 31, offset=1.0)
        assert semigroup_residual(g, g, 0.6, 0.0) == 0.0
        assert semigroup_residual(g, g, 0.6, 0.6) == 0.0

    def test_s_out_of_range_rejected(self):
        g = quadratic_grid(1.5, 31, offset=1.0)
        with pytest.raises(ValueError):
            semigroup_residual(g, g, 0.5, 0.6)

    def test_nonconvex_cost_recorded_not_asserted(self):
        xs = np.linspace(-2, 2, 41)
        mesh = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
        Wv = np.sum(mesh**2, axis=-1) + 0.5 * np.sin(3 * mesh[..., 0])
        W = ExtGridFn([(-2, 2)] * 2, Wv)
        g = quadratic_grid(2, 41, offset=1.0)
        r = semigroup_residual(g, W, 0.6, 0.2)
        assert np.isfinite(r)  # may be strictly positive; no claim


class TestHJQuotient:
    def test_quadratic_limit(self):
        quad = quadratic_field(offset=1.0, curvature=1.0)
        pts = np.array([[0.3, 0.2], [-0.6, 0.5], [0.8, -0.7]])
        quot, limit, ref, dev = hj_difference_quotient(quad, quad, [0.4, 0.2, 0.1, 0.05], pts)
        # reference is -W*(grad g) = -(||x||^2/2 - 1)
        want = -(np.sum(pts**2, axis=1) / 2 - 1.0)
        np.testing.assert_allclose(ref, want, rtol=1e-12)
        assert np.max(dev / np.maximum(1.0, np.abs(ref))) <= 0.01
        # quotients decrease toward the limit at first order in h
        rates = np.abs(quot - ref[:, None])
        assert (np.diff(rates, axis=1) < 0).all()

    def test_constant_g_gives_minus_min_W(self):
        # g = 2 has gradient 0 and conjugate -2 at p = 0, +inf elsewhere
        const = ScalarField(
            fn=lambda x: np.full(np.shape(x)[:-1], 2.0),
            grad=lambda x: np.zeros(np.shape(x)),
            conjugate=lambda p: np.where(np.all(p == 0.0, axis=-1), -2.0, INF),
        )
        Wq = quadratic_field(offset=0.0, curvature=1.0)
        pts = np.array([[0.1, 0.0]])
        _, limit, ref, dev = hj_difference_quotient(const, Wq, [0.2, 0.1, 0.05], pts)
        # W >= 0 with W(0) = 0, so W*(0) = 0 and the limit vanishes
        assert ref[0] == 0.0
        assert abs(limit[0]) <= 1e-6

    def test_richardson_oracle_agreement(self):
        quad = quadratic_field(offset=1.0, curvature=1.0)
        pts = np.array([[0.5, 0.5]])
        hs = [0.4, 0.2, 0.1, 0.05]
        quot, limit, ref, _ = hj_difference_quotient(quad, quad, hs, pts)
        assert limit[0] == pytest.approx(richardson_limit(hs, quot[0]), rel=1e-12)


class TestPointwise:
    def test_matches_grid_operator(self):
        quad = quadratic_field(offset=1.0, curvature=1.0)
        g = quadratic_grid(3, 121, offset=1.0)
        res = hopflax_apply(g, g, 0.5)
        pts = np.array([[0.3, 0.4], [-0.8, 0.1], [1.0, -1.0]])
        direct = hopflax_pointwise(
            quad.fn, quad.fn, 0.5, pts, y_box=[(-3, 3)] * 2, y_resolution=[31, 31]
        )
        interp = interpolate_reference(res.values, pts)
        np.testing.assert_allclose(direct, interp, atol=5e-3)

    def test_closed_form_accuracy(self):
        quad = quadratic_field(offset=1.0, curvature=1.0)
        pts = np.array([[0.5, 0.25], [1.5, -0.5]])
        got = hopflax_pointwise(quad.fn, quad.fn, 0.5, pts, y_box=[(-3, 3)] * 2, y_resolution=[25, 25])
        want = (1 + 0.5) * quad(pts / 1.5)
        np.testing.assert_allclose(got, want, atol=1e-8)


def _pointwise_case(n, domain, npts, h, seed):
    """(g, W, points, domain) for the pointwise evaluator: the power cost
    W = 1.3 ||y||^2.5 / 2.5 and g = W(. + e); points near the origin, and
    with a domain, half of them lifted into the shifted domain Omega_h and a
    quarter put on its boundary, where the anchors seed the search."""
    W = power_cost_field(1.3, 2.5, NormSpec("euclidean"))
    g = shifted_field(W, np.eye(n)[-1])
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-2.0, 2.0, (npts, n))
    dom = None
    if domain is not None:
        dom = halfspace(n) if domain == "halfspace" else norm_cone(n, 1.0)
        floor = dom.phi(pts[:, :-1]) + h
        k = npts // 2
        pts[:k, -1] = floor[:k] + rng.uniform(0.0, 2.0, k)
        pts[k : k + npts // 4, -1] = floor[k : k + npts // 4]
    return g, W, pts, dom


POINTWISE_BRANCHES = [
    (1, "y_box", None), (1, "free", None),
    (2, "y_box", None), (2, "free", None), (2, "both", "halfspace"), (2, "both", "cone"),
    (2, "g_only", "cone"), (2, "W_only", "halfspace"),
    (3, "y_box", None), (3, "free", None), (3, "both", "halfspace"), (3, "both", "cone"),
]


@pytest.mark.parametrize("h", [0.05, 0.3, 1.0])
@pytest.mark.parametrize("n, branch, domain", POINTWISE_BRANCHES)
def test_pointwise_bit_identical_to_reference(n, branch, domain, h):
    # coordinate-major candidates give the bytes of the point-major evaluator
    g, W, pts, dom = _pointwise_case(n, domain, 24, h, seed=10 * n + len(branch))
    kw = {"zoom_iters": 10}
    if branch == "y_box":
        kw.update(y_box=[(-2.5, 2.5)] * (n - 1) + [(-1.0, 3.0)], y_resolution=[9] * n)
    if branch in ("both", "g_only"):
        kw["g_domain"] = dom
    if branch in ("both", "W_only"):
        kw["W_domain"] = dom
    got = hopflax_pointwise(g.fn, W.fn, h, pts, **kw)
    want = hopflax_pointwise_reference(g.fn, W.fn, h, pts, **kw)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("branch", ["y_box", "both"])
def test_pointwise_bit_identical_across_chunks(branch):
    # more points than one chunk holds (100_000 candidates: 584 points of
    # 171 candidates, 104 points of a 31 x 31 box)
    g, W, pts, dom = _pointwise_case(2, "cone", 1300 if branch == "both" else 250, 0.3, seed=7)
    if branch == "y_box":
        kw = {"y_box": [(-3.0, 3.0)] * 2, "y_resolution": [31, 31], "zoom_iters": 6}
    else:
        kw = {"g_domain": dom, "W_domain": dom, "zoom_iters": 6}
    got = hopflax_pointwise(g.fn, W.fn, 0.3, pts, **kw)
    want = hopflax_pointwise_reference(g.fn, W.fn, 0.3, pts, **kw)
    assert got.tobytes() == want.tobytes()


BRACKET_PAIRS = {
    # (domain, q of g, q of W); equal exponents make g = W(. + e), the pair
    # whose minimizer is the scaling witness
    "halfspace": (lambda: halfspace(2), 2.5, 2.5),
    "cone": (lambda: norm_cone(2, 1.0), 2.5, 2.5),
    "affine_max": (lambda: affine_max([[0.5], [-1.0]]), 2.5, 2.5),
    "halfspace_q3_q4": (lambda: halfspace(2), 3.0, 4.0),
}


@pytest.mark.parametrize("h", [0.05, 0.3, 1.0])
@pytest.mark.parametrize("pair", sorted(BRACKET_PAIRS))
def test_pointwise_bracket_against_dense_oracle(pair, h):
    make_domain, qg, qW = BRACKET_PAIRS[pair]
    dom = make_domain()
    euclid = NormSpec("euclidean")
    W = power_cost_field(1.3, qW, euclid)
    g = shifted_field(power_cost_field(1.3, qg, euclid), np.array([0.0, 1.0]))
    # half of the points on the boundary of B_h, half above it
    rng = np.random.default_rng(3)
    x1 = rng.uniform(-3.0, 3.0, (40, 1))
    x2 = dom.bh_lower(x1, h).reshape(-1) + np.r_[np.zeros(20), rng.uniform(0.0, 2.0, 20)]
    pts = np.concatenate([x1, x2[:, None]], axis=1)
    floor, ceiling = hopflax._pointwise_bracket(g, W, h, pts, dom)
    dense = hopflax_pointwise(g.fn, W.fn, h, pts, g_domain=dom, W_domain=dom, zoom_iters=10)
    assert (floor <= dense).all()
    assert (floor <= ceiling).all()
    if qg == qW:
        # the witness is the minimizer: the bracket closes to rounding and
        # the ceiling is finite on all of B_h, where the dense search's
        # rounded membership tests lose some boundary points
        eps = np.finfo(float).eps
        assert np.isfinite(ceiling).all()
        assert (ceiling - floor <= 64 * eps * np.abs(ceiling)).all()
        assert (ceiling <= dense + 4 * eps * np.abs(ceiling)).all()


@pytest.mark.parametrize("pair", ["cone", "affine_max"])
def test_hopf_bracket_ceiling_finite_throughout_B_h(pair):
    # the witness candidate is feasible on B_h by construction, so no
    # rounded membership test can lose it at the boundary nodes of a cone
    dom = BRACKET_PAIRS[pair][0]()
    W = power_cost_field(1.0, 3.0, NormSpec("euclidean"))
    g = shifted_field(W, np.array([0.0, 1.0]))
    axes = [np.linspace(-8.0, 8.0, 161), np.linspace(0.0, 8.0, 81)]
    X = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    inside = X[..., -1] >= dom.bh_lower(X[..., :-1], 0.1)
    floor, ceiling = np.full(inside.shape, INF), np.full(inside.shape, INF)
    floor[inside], ceiling[inside] = hopflax._pointwise_bracket(g, W, 0.1, X[inside], dom)
    assert (np.isfinite(ceiling) == np.isfinite(floor)).all()
    assert (floor <= ceiling).all()
