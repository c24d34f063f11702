"""Grid functions and epigraph geometry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiconv import (
    INF,
    EpigraphDomain,
    ExtGridFn,
    ScalarField,
    affine_max,
    domain_from_config,
    halfspace,
    is_cone,
    norm_cone,
    paraboloid,
    read_gridfn,
    sample_grid,
    weight_P,
    write_gridfn,
)
from oracles import (
    bh_membership_bruteforce,
    field_gradient_reference,
    grad_phi_reference,
    interpolate_reference,
)


def test_inf_absorbs_addition_and_min():
    assert INF + 3.0 == INF
    assert min(INF, 2.5) == 2.5
    assert np.minimum(INF, np.array([1.0, INF]))[0] == 1.0


def test_gridfn_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        ExtGridFn([(0, 1)], np.array([0.0, np.nan]))


def test_gridfn_rejects_negative_infinity():
    # the value range is (-inf, +inf]; min-plus kernels treat every
    # non-finite node as +inf
    with pytest.raises(ValueError, match="-inf"):
        ExtGridFn([(0, 1)], np.array([-INF, 1.0, 2.0]))


def test_gridfn_values_are_frozen():
    f = ExtGridFn([(0, 1)], np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        f.values[0] = 3.0


def test_domain_indices_consistent():
    f = ExtGridFn([(0, 1), (0, 1)], np.array([[1.0, INF], [2.0, 3.0]]))
    idx = f.domain_indices
    assert idx.shape == (3, 2)
    assert all(np.isfinite(f.values[tuple(i)]) for i in idx)


class TestContains:
    def test_halfspace_inside(self, halfplane):
        assert halfplane.contains(np.array([0.5, 0.2]), 0.0).tolist() == [True]

    def test_halfspace_shifted_out(self, halfplane):
        assert halfplane.contains(np.array([0.5, 0.2]), 0.3).tolist() == [False]

    def test_paraboloid_shifted(self):
        par = paraboloid(2)
        # 1.5 >= 1^2 + 0.4
        assert par.contains(np.array([1.0, 1.5]), 0.4).tolist() == [True]

    def test_dimension_mismatch_rejected(self, halfplane):
        with pytest.raises(ValueError):
            halfplane.contains(np.array([1.0, 2.0, 3.0]))


class TestBhMembership:
    def test_h_zero_reduces_to_omega(self):
        par = paraboloid(2)
        pts = np.array([[0.3, 0.2], [1.0, 0.9], [1.0, 1.1], [-2.0, 4.5]])
        assert np.array_equal(par.bh_contains(pts, 0.0), par.contains(pts, 0.0))

    def test_paraboloid_closed_form_point(self):
        # 0.5 + 1.5 * (1.2/1.5)^2 = 1.46 > 0.9: not a member, and brute force
        # over a y-grid confirms the closed form
        par = paraboloid(2)
        assert par.bh_contains(np.array([1.2, 0.9]), 0.5).tolist() == [False]
        assert not bh_membership_bruteforce(
            par, np.array([1.2, 0.9]), 0.5, [(-3, 3), (1, 4)], [121, 61]
        )

    def test_point_in_bh_but_not_omega_h(self):
        par = paraboloid(2)
        x = np.array([1.2, 1.7])
        assert par.bh_contains(x, 0.5).tolist() == [True]
        assert par.contains(x, 0.5).tolist() == [False]
        assert bh_membership_bruteforce(par, x, 0.5, [(-3, 3), (1, 4)], [121, 61])

    def test_cone_bh_equals_omega_h(self, unit_cone):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-3, 3, size=(200, 2))
        for h in (0.0, 0.3, 1.0):
            np.testing.assert_array_equal(
                unit_cone.bh_contains(pts, h), unit_cone.contains(pts, h)
            )

    def test_omega_h_subset_bh(self):
        # holds for every convex phi on all sampled points
        rng = np.random.default_rng(11)
        pts = rng.uniform(-2.5, 6.0, size=(500, 2))
        for dom in (halfspace(2), norm_cone(2, 0.7), paraboloid(2), affine_max([[0.5], [-1.0]])):
            for h in (0.2, 0.8):
                inside = dom.contains(pts, h)
                assert dom.bh_contains(pts[inside], h).all()

    def test_bruteforce_matches_closed_form_modulo_one_cell(self):
        par = paraboloid(2)
        h = 0.5
        ygrid = ([(-3, 3), (1, 5)], [61, 41])
        dy = 0.1
        rng = np.random.default_rng(3)
        pts = rng.uniform([-1.5, -0.5], [1.5, 3.0], size=(120, 2))
        for x in pts:
            closed = bool(par.bh_contains(x, h)[0])
            brute = bh_membership_bruteforce(par, x, h, *ygrid)
            if closed != brute:
                # disagreement only within one grid cell of the boundary
                bnd = par.bh_lower(x[:1], h)[()]
                slope = abs(2.0 * x[0] / (1 + h))
                assert abs(x[1] - bnd) <= (1.0 + slope) * dy


class TestIsCone:
    @pytest.mark.parametrize(
        "dom", [halfspace(2), norm_cone(2, 1.0), affine_max([[0.5], [-1.0]])]
    )
    def test_cones_detected(self, dom):
        assert is_cone(dom, sample_count=300, tol=1e-8).is_cone

    def test_paraboloid_rejected_with_witness(self):
        chk = is_cone(paraboloid(2), sample_count=300, tol=1e-8)
        assert not chk.is_cone
        assert chk.witness is not None
        assert chk.max_violation > 1e-3

    def test_homogeneity_violation_explicit(self):
        # phi(2)=4 != 2*phi(1) for the parabola
        par = paraboloid(2)
        assert abs(par.phi(np.array([[2.0]]))[0] - 2 * par.phi(np.array([[1.0]]))[0]) == 2.0


class TestWeightP:
    def test_cone_weight_is_one(self, unit_cone):
        rng = np.random.default_rng(5)
        x1 = rng.uniform(-3, 3, size=(50, 1))
        x1 = x1[np.abs(x1[:, 0]) > 1e-3]
        np.testing.assert_allclose(weight_P(unit_cone, x1), 1.0, atol=1e-8)

    def test_affine_max_weight_is_one_off_ridge(self):
        dom = affine_max([[0.5], [-1.0]])
        assert weight_P(dom, np.array([0.7])) == pytest.approx(1.0, abs=1e-12)
        assert weight_P(dom, np.array([-0.4])) == pytest.approx(1.0, abs=1e-12)

    def test_paraboloid_values(self):
        par = paraboloid(2)
        assert weight_P(par, np.array([0.5])) == pytest.approx(0.75, abs=1e-12)
        assert weight_P(par, np.array([2.0])) == pytest.approx(-3.0, abs=1e-12)

    def test_ridge_flagging(self):
        dom = affine_max([[0.5], [-1.0]])
        assert not dom.smooth_at(np.array([[0.0]]))[0]
        assert dom.smooth_at(np.array([[0.5]]))[0]


class TestSampleGrid:
    def test_halfspace_node_count(self, halfplane):
        f = sample_grid(halfplane, [(-1, 1), (-1, 1)], [5, 5], lambda p: np.ones(len(p)))
        assert int(f.finite_mask.sum()) == 15

    def test_cone_membership_pattern(self, unit_cone):
        e = np.array([0.0, 1.0])
        f = sample_grid(
            unit_cone, [(-1, 1), (-1, 1)], [9, 9],
            lambda p: np.linalg.norm(p + e, axis=-1),
        )
        axes = f.axes
        for i, x1 in enumerate(axes[0]):
            for j, x2 in enumerate(axes[1]):
                assert np.isfinite(f.values[i, j]) == (x2 >= abs(x1))

    def test_inf_passthrough(self, halfplane):
        def fn(p):
            v = np.ones(len(p))
            v[p[:, 0] > 0.5] = INF
            return v

        f = sample_grid(halfplane, [(0, 1), (0, 1)], [5, 5], fn)
        assert np.isinf(f.values[-1, 0])
        assert not np.isin(f.domain_indices[:, 0], [3, 4]).any()

    def test_negative_sample_rejected(self, halfplane):
        with pytest.raises(ValueError, match="nonnegative"):
            sample_grid(halfplane, [(0, 1), (0, 1)], [3, 3], lambda p: -np.ones(len(p)))

    def test_nan_sample_rejected(self, halfplane):
        with pytest.raises(ValueError):
            sample_grid(halfplane, [(0, 1), (0, 1)], [3, 3], lambda p: np.full(len(p), np.nan))


class TestInterpolation:
    def test_matches_scalar_reference(self):
        from oracles import bilinear_scalar

        rng = np.random.default_rng(2)
        vals = rng.uniform(0, 4, size=(7, 6))
        vals[rng.random((7, 6)) < 0.2] = INF
        f = ExtGridFn([(-1, 2), (0, 1.5)], vals)
        pts = rng.uniform([-1.2, -0.2], [2.2, 1.7], size=(300, 2))
        got = f.interpolate(pts)
        want = np.array([bilinear_scalar(f.axes, vals, p) for p in pts])
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_node_exact(self):
        vals = np.array([[1.0, INF], [2.0, 3.0]])
        f = ExtGridFn([(0, 1), (0, 1)], vals)
        assert f.interpolate(np.array([0.0, 0.0])) == 1.0
        # the inf corner does not poison a node-exact query on the other corner
        assert f.interpolate(np.array([1.0, 1.0])) == 3.0
        assert np.isinf(f.interpolate(np.array([0.0, 1.0])))

    def test_conservative_near_boundary(self):
        vals = np.array([[1.0, INF], [1.0, INF]])
        f = ExtGridFn([(0, 1), (0, 1)], vals)
        assert np.isinf(f.interpolate(np.array([0.5, 0.4])))
        assert f.interpolate(np.array([0.5, 0.0])) == 1.0

    @pytest.mark.parametrize(
        "shape", [(9,), (1,), (7, 6), (1, 6), (6, 1), (5, 1, 4), (4, 3, 5), (1, 1)]
    )
    def test_bit_identical_to_reference(self, shape):
        rng = np.random.default_rng(sum(shape) * 7 + len(shape))
        lo = rng.uniform(-2, 1, len(shape))
        box = [(a, a + rng.uniform(0.5, 3)) for a in lo]
        # floored values with ties, negative ones (zero weights times a
        # negative value give -0.0), and +inf corners
        vals = np.floor(rng.uniform(-3, 5, shape) * 2) / 2
        vals[rng.random(shape) < 0.25] = INF
        vals.flat[0] = -1.5
        f = ExtGridFn(box, vals)
        nodes = f.nodes().reshape(-1, len(shape))
        span = np.array([hi - a for a, hi in box])
        pts = np.concatenate([
            nodes,
            nodes + rng.choice([-1e-12, 1e-12], size=nodes.shape),
            # node coordinates on some axes, random ones on the others
            np.where(
                rng.random((len(nodes), len(shape))) < 0.5,
                nodes,
                lo + span * rng.random((len(nodes), len(shape))),
            ),
            # inside the box and up to a tenth of its span outside
            lo - 0.1 * span + 1.2 * span * rng.random((400, len(shape))),
        ])
        got = f.interpolate(pts)
        assert got.tobytes() == interpolate_reference(f, pts).tobytes()
        assert np.isfinite(got).any() and np.isinf(got).any()

    def test_non_contiguous_values(self):
        # the flat index follows the grid's row-major order, not the memory
        # layout of the array handed in
        vals = np.arange(12.0).reshape(3, 4)
        f = ExtGridFn([(0, 3), (0, 2)], vals.T)
        np.testing.assert_array_equal(f.interpolate(f.nodes()), vals.T)
        g = ExtGridFn([(0, 3)], np.arange(4.0)[::-1])
        np.testing.assert_array_equal(g.interpolate(g.nodes()), [3.0, 2.0, 1.0, 0.0])


def test_phi_zero_enforced():
    with pytest.raises(ValueError, match="phi"):
        from epiconv.extgrid import EpigraphDomain

        EpigraphDomain(2, lambda x1: np.sum(x1, axis=-1) + 1.0)


@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(0.05, 0.95))
@settings(max_examples=100, deadline=None)
def test_phi_midpoint_convexity(x, y, lam):
    for dom in (norm_cone(2, 1.3), paraboloid(2), affine_max([[0.5], [-1.0]])):
        a = np.array([[x]])
        b = np.array([[y]])
        mid = lam * a + (1 - lam) * b
        assert dom.phi(mid)[0] <= lam * dom.phi(a)[0] + (1 - lam) * dom.phi(b)[0] + 1e-9


def test_grid_file_roundtrip(tmp_path):
    vals = np.array([[0.5, INF, 1.25], [2.0, 3.5, INF]])
    f = ExtGridFn([(0, 1), (-1, 1)], vals)
    path = tmp_path / "f.grid"
    write_gridfn(path, f)
    g = read_gridfn(path)
    assert g.box == f.box
    np.testing.assert_array_equal(g.values, f.values)


def test_grid_file_with_negative_infinity_rejected(tmp_path):
    path = tmp_path / "f.grid"
    path.write_text('{"box": [[0, 1]], "dim": 1, "resolution": [3]}\n1.0,-inf,inf\n')
    with pytest.raises(ValueError, match="-inf"):
        read_gridfn(path)


def test_domain_config_parsing():
    assert domain_from_config({"kind": "halfspace"}, 2).kind == "halfspace"
    assert domain_from_config({"kind": "cone", "slope": 2.0}, 3).params["slope"] == 2.0
    assert domain_from_config({"kind": "affine_max", "slopes": [[1.0]]}, 2).kind == "affine_max"
    with pytest.raises(ValueError, match="unknown domain"):
        domain_from_config({"kind": "torus"}, 2)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_euclidean_norm_bytes_match_numpy(d):
    from epiconv.extgrid import _euclidean_norm

    rng = np.random.default_rng(d)
    special = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 1e-308, 5e-324, 1e-200, 1e200, -2.5]
    )
    arrays = [
        rng.normal(size=(1000, d)) * 10.0 ** rng.integers(-300, 300, size=(1000, d)),
        rng.choice(special, size=(1000, d)),
        rng.choice(special, size=(3, 5, d)),
        rng.normal(size=(d,)),
        rng.normal(size=(200, 2 * d))[:, ::2],
    ]
    with np.errstate(over="ignore", under="ignore"):
        for x in arrays:
            for keepdims in (False, True):
                want = np.linalg.norm(x, axis=-1, keepdims=keepdims)
                got = _euclidean_norm(x, keepdims=keepdims)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


class TestCentralDifferences:
    """The central-difference fallback of ScalarField.gradient and
    EpigraphDomain.grad_phi, one function for both since the step and the
    formula are shared, gives the bytes of the two loops it replaced."""

    POINTS = (
        np.array([0.7, -1.3]),
        np.random.default_rng(5).uniform(-3.0, 3.0, size=(40, 2)),
        np.random.default_rng(6).uniform(-3.0, 3.0, size=(4, 5, 3)),
        np.zeros((2, 2)),
    )

    @pytest.mark.parametrize("k", range(len(POINTS)))
    def test_field_gradient_bytes(self, k):
        x = self.POINTS[k]
        f = ScalarField(lambda z: np.exp(0.3 * z[..., 0]) * (1.0 + np.sum(z**2, axis=-1)))
        got = f.gradient(x)
        assert got.tobytes() == field_gradient_reference(f, x).tobytes()
        assert got.shape == x.shape

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_grad_phi_bytes(self, n):
        par = paraboloid(n)
        dom = EpigraphDomain(n, par.phi, kind="paraboloid_fd")
        for x1 in (np.full(n - 1, 0.4), np.random.default_rng(n).uniform(-2.0, 2.0, (30, n - 1))):
            assert dom.grad_phi(x1).tobytes() == grad_phi_reference(dom, x1).tobytes()

    def test_grad_phi_fallback_on_paraboloid(self):
        # without an analytic gradient the domain differentiates phi itself
        dom = EpigraphDomain(2, paraboloid(2).phi)
        x1 = np.linspace(-3.0, 3.0, 61)[:, None]
        np.testing.assert_allclose(dom.grad_phi(x1), 2.0 * x1, rtol=0, atol=1e-6)
