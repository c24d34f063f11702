"""Discrete Legendre transforms and dual norms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiconv import NormSpec
from epiconv.extgrid import INF, ExtGridFn
from epiconv.fields import bump_field, multiply_bump, power_cost_field, shifted_field
from epiconv.transforms import (
    _legendre_lines,
    default_dual_box,
    dual_norm,
    legendre_1d,
    legendre_nd,
    power_cost_conjugate,
)
from oracles import (
    brute_conjugate_1d,
    brute_conjugate_nd,
    dual_norm_sampled,
    legendre_1d_reference,
    legendre_nd_reference,
)


def random_convex_1d(rng, m):
    # cumulative sums of increasing slopes give a convex sequence
    slopes = np.sort(rng.uniform(-3, 3, m - 1))
    start = rng.uniform(-1, 1)
    return np.concatenate([[start], start + np.cumsum(slopes * rng.uniform(0.05, 0.3))])


class TestLegendre1d:
    def test_quadratic_self_dual(self):
        xs = np.linspace(-2, 2, 81)
        slopes = np.linspace(-1, 1, 41)
        out, _ = legendre_1d(xs, xs**2 / 2, slopes)
        dx = xs[1] - xs[0]
        assert np.max(np.abs(out - slopes**2 / 2)) <= dx**2 / 2

    def test_abs_on_bounded_grid(self):
        xs = np.linspace(-2, 2, 41)
        out, _ = legendre_1d(xs, np.abs(xs), np.array([0.5, 1.5]))
        # inside the unit slope interval the conjugate vanishes; outside the
        # bounded grid gives (|y| - 1) * 2
        assert out[0] == 0.0
        assert out[1] == pytest.approx(1.0)

    def test_linear_flat_maximum(self):
        xs = np.linspace(0, 1, 11)
        out, arg = legendre_1d(xs, xs.copy(), np.array([1.0]))
        assert out[0] == 0.0
        assert arg[0] == 0  # whole segment attains; smallest index reported

    def test_matches_bruteforce_with_inf_holes(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = rng.integers(3, 25)
            xs = np.sort(rng.uniform(-3, 3, m))
            xs += np.arange(m) * 1e-6  # enforce strict increase
            vals = rng.uniform(-2, 2, m)
            vals[rng.random(m) < 0.25] = INF
            if not np.isfinite(vals).any():
                vals[0] = 0.0
            slopes = rng.uniform(-4, 4, rng.integers(1, 20))
            want, warg = brute_conjugate_1d(xs, vals, slopes)
            got, garg = legendre_1d(xs, vals, slopes)
            np.testing.assert_array_equal(got, want)
            # argmax agrees exactly or attains the identical value (tie)
            for k in range(len(slopes)):
                if garg[k] != warg[k]:
                    assert xs[garg[k]] * slopes[k] - vals[garg[k]] == want[k]

    def test_improper_input_rejected(self):
        with pytest.raises(ValueError, match="improper"):
            legendre_1d(np.array([0.0, 1.0]), np.array([INF, INF]), np.array([0.0]))

    def test_nonmonotone_xs_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            legendre_1d(np.array([0.0, 0.0]), np.array([1.0, 2.0]), np.array([0.0]))

    @pytest.mark.parametrize("bad", [np.nan, -INF])
    def test_nan_or_minus_inf_sample_rejected(self, bad):
        with pytest.raises(ValueError, match="NaN or -inf"):
            vals = np.array([0.0, bad, 0.0, 1.0, 2.0])
            legendre_1d(np.linspace(-1, 1, 5), vals, np.array([0.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, INF, -INF])
    def test_nonfinite_slope_rejected(self, bad):
        with pytest.raises(ValueError, match="slopes must be finite"):
            legendre_1d(np.linspace(-1, 1, 5), np.zeros(5), np.array([0.0, bad]))


def assert_same_bits(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


LINE_KINDS = [
    "inf_holes", "floored_ties", "nonconvex", "collinear", "rounded_linear", "zigzag", "single",
]


def _line_vals(rng, kind, xs):
    """Samples of one line of the given kind at the abscissae xs."""
    m = len(xs)
    if kind == "inf_holes":
        vals = np.where(rng.random(m) < 0.3, INF, xs**2 + rng.uniform(0, 0.1, m))
        vals[rng.integers(m)] = 0.5
    elif kind == "floored_ties":
        vals = np.floor(4 * xs**2) / 4
    elif kind == "nonconvex":
        vals = rng.uniform(-2, 2, m)
    elif kind == "collinear":
        # rounding makes the hull edge slopes of a line non-monotone
        vals = 0.3 * xs + 0.1
    elif kind == "rounded_linear":
        vals = np.round(0.7 * xs, 3)
    elif kind == "zigzag":
        # convex arcs, each followed by a deep drop: the sample after an arc
        # pops several of its hull vertices at once
        seg = np.cumsum(rng.random(m) < 0.2)
        pos = np.arange(m) - np.searchsorted(seg, seg)
        vals = 0.3 * pos**2 + rng.uniform(0, 0.05, m) - rng.uniform(1.0, 3.0) * seg
    else:  # single finite sample
        vals = np.full(m, INF)
        vals[rng.integers(m)] = rng.uniform(-1, 1)
    return vals


def _line_case(rng, kind):
    """(xs, vals, slopes) for one line of the given kind."""
    xs = np.linspace(-1.0, 1.0, int(rng.integers(2, 60)))
    vals = _line_vals(rng, kind, xs)
    fin = np.isfinite(vals)
    quotients = np.diff(vals[fin]) / np.diff(xs[fin])
    slopes = np.concatenate([
        quotients,  # slopes landing exactly on (rounded) edge slopes
        rng.uniform(-3, 3, 8),
        np.round(rng.uniform(-3, 3, 8), 1),
        [-50.0, 50.0],  # outside every edge slope
    ])
    slopes = rng.permutation(np.concatenate([slopes, slopes[:5]]))  # unsorted, repeated
    return xs, vals, slopes


class TestLegendreMatchesReferenceBits:
    """Values and argmaxes are byte-identical to the per-line hull walk
    (``oracles.legendre_1d_reference``), and nD values to sweeps of it
    (``oracles.legendre_nd_reference``)."""

    @pytest.mark.parametrize("kind", LINE_KINDS)
    def test_lines(self, kind):
        rng = np.random.default_rng(sum(map(ord, kind)))
        for _ in range(60):
            xs, vals, slopes = _line_case(rng, kind)
            want = legendre_1d_reference(xs, vals, slopes)
            assert_same_bits(legendre_1d(xs, vals, slopes), want)

    def test_empty_slopes(self):
        xs = np.linspace(-1, 1, 7)
        want = legendre_1d_reference(xs, xs**2, np.empty(0))
        assert_same_bits(legendre_1d(xs, xs**2, np.empty(0)), want)

    @pytest.mark.parametrize("m", [1, 2, 9, 40])
    def test_batched_rows(self, m):
        # every kind of line in one batch, so that at one sample some rows
        # pop several vertices, some none and some skip a +inf hole
        rng = np.random.default_rng(m)
        xs = np.linspace(-1.0, 1.0, m)
        V = np.stack([_line_vals(rng, kind, xs) for kind in LINE_KINDS * 12])
        V[::7] = INF  # rows with no finite sample
        with np.errstate(invalid="ignore"):
            quotients = (np.diff(V, axis=1) / np.diff(xs)).ravel()
        quotients = rng.permutation(quotients[np.isfinite(quotients)])[:40]
        slopes = np.concatenate([
            quotients,  # slopes landing exactly on (rounded) edge slopes
            rng.uniform(-6, 6, 30),
            np.round(rng.uniform(-3, 3, 10), 1),
        ])
        values, argmax = _legendre_lines(xs, V, slopes)
        for r, line in enumerate(V):
            if np.isfinite(line).any():
                want = legendre_1d_reference(xs, line, slopes)
                assert_same_bits((values[r], argmax[r]), want)
            else:
                assert (values[r] == -INF).all() and (argmax[r] == -1).all()

    @staticmethod
    def _assert_nd_same_bits(f, **kw):
        got = legendre_nd(f, **kw).values
        want = legendre_nd_reference(f, **kw)
        assert_same_bits((got.values,), (want,))
        return got

    @pytest.mark.parametrize("shape", [(9, 12), (6, 7, 5)])
    def test_nd_with_empty_lines(self, shape):
        rng = np.random.default_rng(len(shape))
        vals = np.floor(8 * rng.uniform(0, 1, shape)) / 8
        vals[rng.random(shape) < 0.2] = INF
        vals[..., 1] = INF  # the first sweep's lines at last index 1 are empty
        vals[2] = INF
        dim = len(shape)
        f = ExtGridFn([(-1.0, 1.0)] * dim, vals)
        for half, m in ((3.0, 7), (40.0, 9)):  # the wide box puts slopes past every edge
            kw = {"dual_box": [(-half, half)] * dim, "dual_resolution": [m] * dim}
            self._assert_nd_same_bits(f, **kw)

    def test_nd_3d_empty_and_single_sample_lines(self):
        rng = np.random.default_rng(33)
        xs = np.linspace(-1.0, 1.0, 7)
        vals = np.stack([
            np.stack([_line_vals(rng, LINE_KINDS[(j + k) % 6], xs) for k in range(8)], axis=-1)
            for j in range(6)
        ], axis=1)  # (7, 6, 8): axis-0 lines of every kind but a single sample
        vals[:, :, 2] = INF  # empty lines in the first two sweeps
        vals[:, :, 4] = INF
        vals[:, 3, 4] = np.linspace(0.5, -0.5, 7)  # one finite sample per second-sweep line
        vals[:, 1, 6] = INF
        vals[5, 1, 6] = 0.25  # one finite sample on a first-sweep line
        f = ExtGridFn([(-1.0, 1.0), (-0.5, 2.0), (0.0, 1.0)], vals)
        for kw in ({}, {"dual_box": [(-4.0, 4.0), (-50.0, 50.0), (-2.0, 3.0)],
                        "dual_resolution": [9, 5, 11]}):
            self._assert_nd_same_bits(f, **kw)

    def test_conjugates_fixture_201(self):
        # x'Ax/2 + c|x1| on 201^2 nodes of [-2, 2]^2, forward and back
        rng = np.random.default_rng(504)
        theta = rng.uniform(0.0, np.pi)
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        A = rot @ np.diag(rng.uniform(0.9, 1.2, 2)) @ rot.T
        xs = np.linspace(-2.0, 2.0, 201)
        X = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
        c = rng.uniform(0.4, 0.6)
        fv = 0.5 * np.einsum("...i,ij,...j->...", X, A, X) + c * np.abs(X[..., 0])
        f = ExtGridFn([(-2.0, 2.0)] * 2, fv)
        conj = self._assert_nd_same_bits(f)
        self._assert_nd_same_bits(conj, dual_box=f.box, dual_resolution=f.resolution)


class TestLegendreNd:
    def test_euclidean_quadratic_self_dual(self):
        xs = np.linspace(-2, 2, 33)
        mesh = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
        f = ExtGridFn([(-2, 2)] * 2, np.sum(mesh**2, axis=-1) / 2)
        conj = legendre_nd(f, dual_box=[(-1, 1)] * 2, dual_resolution=[17, 17])
        ys = np.linspace(-1, 1, 17)
        ymesh = np.stack(np.meshgrid(ys, ys, indexing="ij"), axis=-1)
        want = np.sum(ymesh**2, axis=-1) / 2
        assert np.max(np.abs(conj.values.values - want)) <= (xs[1] - xs[0]) ** 2

    def test_point_indicator_conjugate_zero(self):
        vals = np.full((5, 5), INF)
        vals[2, 2] = 0.0  # indicator of the origin node
        f = ExtGridFn([(-1, 1)] * 2, vals)
        conj = legendre_nd(f, dual_box=[(-2, 2)] * 2, dual_resolution=[9, 9])
        np.testing.assert_allclose(conj.values.values, 0.0, atol=1e-15)

    def test_matches_double_loop_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            m1, m2 = rng.integers(3, 9, 2)
            A = rng.uniform(0.3, 1.5, 2)
            b = rng.uniform(-0.5, 0.5, 2)
            xs = [np.linspace(-1.5, 1.5, m1), np.linspace(-1, 2, m2)]
            mesh = np.stack(np.meshgrid(*xs, indexing="ij"), axis=-1)
            vals = np.sum(A * (mesh - b) ** 2, axis=-1)
            f = ExtGridFn([(-1.5, 1.5), (-1, 2)], vals)
            dual_axes = [np.linspace(-2, 2, 7), np.linspace(-3, 1, 6)]
            conj = legendre_nd(f, dual_box=[(-2, 2), (-3, 1)], dual_resolution=[7, 6])
            want = brute_conjugate_nd(xs, vals, dual_axes)
            np.testing.assert_array_equal(conj.values.values, want)

    def test_3d_matches_triple_loop_exactly(self):
        rng = np.random.default_rng(12)
        shape = (5, 4, 6)
        box = [(-1.0, 1.0), (-0.5, 1.5), (-2.0, 1.0)]
        xs = [np.linspace(lo, hi, m) for (lo, hi), m in zip(box, shape)]
        mesh = np.stack(np.meshgrid(*xs, indexing="ij"), axis=-1)
        vals = np.sum(rng.uniform(0.3, 1.5, 3) * mesh**2, axis=-1) + rng.uniform(0, 0.3, shape)
        vals[rng.random(shape) < 0.15] = INF
        # an empty plane across the first two axes: the middle sweep sees
        # all-+inf lines and must pass them on through negation
        vals[:, :, 2] = INF
        f = ExtGridFn(box, vals)
        dual_box = [(-2, 2), (-3, 1), (-1, 2)]
        dual_res = [4, 5, 3]
        dual_axes = [np.linspace(lo, hi, m) for (lo, hi), m in zip(dual_box, dual_res)]
        conj = legendre_nd(f, dual_box=dual_box, dual_resolution=dual_res)
        np.testing.assert_array_equal(conj.values.values, brute_conjugate_nd(xs, vals, dual_axes))

    def test_dual_resolution_length_checked(self):
        f = ExtGridFn([(-1, 1)] * 2, np.zeros((5, 5)))
        with pytest.raises(ValueError, match="need 2 entries"):
            legendre_nd(f, dual_box=[(-1, 1)] * 2, dual_resolution=[5, 5, 5])

    def test_dual_box_length_checked(self):
        f = ExtGridFn([(-1, 1)] * 2, np.zeros((5, 5)))
        with pytest.raises(ValueError, match="need 2 entries"):
            legendre_nd(f, dual_box=[(-1, 1)])

    def test_conjugate_convex_along_axes(self):
        rng = np.random.default_rng(4)
        vals = rng.uniform(0, 3, size=(9, 9))
        f = ExtGridFn([(-1, 1)] * 2, vals)
        conj = legendre_nd(f).values
        scale = max(1.0, np.abs(conj.values).max())
        for d in range(2):
            v = np.moveaxis(conj.values, d, -1)
            second = v[..., :-2] - 2 * v[..., 1:-1] + v[..., 2:]
            assert second.min() >= -1e-9 * scale


class TestBiconjugacy:
    def test_below_and_close_for_convex(self):
        xs = np.linspace(-2, 2, 33)
        mesh = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
        vals = 0.8 * mesh[..., 0] ** 2 + 1.3 * mesh[..., 1] ** 2 + 0.3 * mesh[..., 0]
        f = ExtGridFn([(-2, 2)] * 2, vals)
        conj = legendre_nd(f)
        back = legendre_nd(conj.values, dual_box=f.box, dual_resolution=f.resolution)
        diff = vals - back.values.values
        assert diff.min() >= -1e-10  # f** <= f at the nodes
        tol = sum(
            (hi - lo) / (m - 1) / 2 * (bhi - blo)
            for (lo, hi), m, (blo, bhi) in zip(conj.values.box, conj.values.resolution, f.box)
        )
        assert diff.max() <= tol

    def test_order_reversal_exact(self):
        rng = np.random.default_rng(9)
        vals1 = rng.uniform(0, 2, size=(11,))
        vals2 = vals1 + rng.uniform(0, 1, size=(11,))
        xs = np.linspace(-1, 1, 11)
        slopes = np.linspace(-3, 3, 13)
        c1, _ = legendre_1d(xs, vals1, slopes)
        c2, _ = legendre_1d(xs, vals2, slopes)
        assert (c1 >= c2).all()


class TestDualNorm:
    def test_euclidean_self_dual(self, euclid):
        assert dual_norm(euclid, np.array([3.0, 4.0])) == 5.0

    def test_l1_dual_is_max(self):
        assert dual_norm(NormSpec("p_norm", p=1), np.array([3.0, -4.0])) == 4.0

    def test_p3_closed_form(self):
        got = dual_norm(NormSpec("p_norm", p=3), np.array([1.0, 1.0]))
        assert got == pytest.approx(2 ** (1 / 1.5), rel=1e-12)
        # cross-check against sphere sampling
        sampled, gap = dual_norm_sampled(NormSpec("p_norm", p=3), np.array([1.0, 1.0]))
        assert sampled <= got + 1e-12
        assert got - sampled <= gap

    def test_weighted_norm_sampled_lower_bound(self):
        w = NormSpec("weighted_p_norm", p=2, weights=(1.0, 4.0))
        y = np.array([1.0, 1.0])
        val, gap = dual_norm_sampled(w, y)
        # analytic dual of sqrt(x1^2 + 4 x2^2) is sqrt(y1^2 + y2^2/4)
        exact = np.sqrt(1.0 + 0.25)
        assert val <= exact + 1e-12
        assert exact - val <= gap
        assert dual_norm(w, y) == pytest.approx(exact, rel=1e-15)

    def test_weighted_inf_norm_is_the_max(self):
        norm = NormSpec("weighted_p_norm", p=np.inf, weights=(2.0, 0.5))
        assert norm(np.array([0.0, 0.0])) == 0.0
        assert norm(np.array([3.0, -5.0])) == 5.0
        with pytest.raises(ValueError, match="no differentiable gradient"):
            norm.grad(np.array([3.0, -5.0]))

    def test_weighted_dual_closed_form_endpoints(self):
        w = (1.0, 4.0)
        y = np.array([3.0, -4.0])
        assert dual_norm(NormSpec("weighted_p_norm", p=1.0, weights=w), y) == 3.0  # max |y_i|/w_i
        assert dual_norm(NormSpec("weighted_p_norm", p=np.inf, weights=w), y) == 7.0

    @staticmethod
    def _check_sampled_bracket(p, n):
        rng = np.random.default_rng(2)
        norm = NormSpec("weighted_p_norm", p=p, weights=tuple(rng.uniform(0.25, 4.0, n)))
        ys = rng.uniform(-2, 2, (20, n))
        closed = dual_norm(norm, ys)
        sampled, gap = dual_norm_sampled(norm, ys)
        assert (sampled <= closed * (1 + 1e-12)).all()
        assert (closed - sampled <= gap).all()

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, np.inf])
    def test_weighted_dual_within_sampled_bracket(self, p):
        self._check_sampled_bracket(p, 2)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, np.inf])
    def test_weighted_dual_within_sampled_bracket_3d(self, p):
        self._check_sampled_bracket(p, 3)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, np.inf])
    def test_weighted_dual_attained(self, n, p):
        # the closed form equals x.y / ||x|| at the explicit maximizer x; the
        # pairing bound below shows no x does better
        rng = np.random.default_rng(n)
        w = rng.uniform(0.25, 4.0, n)
        norm = NormSpec("weighted_p_norm", p=p, weights=tuple(w))
        for y in rng.uniform(-2, 2, (20, n)):
            if p == 1.0:
                k = np.argmax(np.abs(y) / w)
                x = np.zeros(n)
                x[k] = np.sign(y[k])
            elif np.isinf(p):
                x = np.sign(y)
            else:
                x = np.sign(y) * (np.abs(y) / w) ** (1.0 / (p - 1.0))
            assert dual_norm(norm, y) == pytest.approx(x @ y / norm(x), rel=1e-12)

    def test_dual_of_dual_identity(self):
        rng = np.random.default_rng(3)
        for p in (1.5, 2.0, 3.0, 4.0):
            norm = NormSpec("p_norm", p=p)
            dual = NormSpec("p_norm", p=norm.dual_exponent())
            for _ in range(20):
                y = rng.uniform(-2, 2, size=2)
                assert dual_norm(dual, y) == pytest.approx(norm(y), rel=1e-10)

    @given(
        st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
        st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
        st.sampled_from([1.0, 1.5, 2.0, 3.0, np.inf]),
    )
    @settings(max_examples=200, deadline=None)
    def test_pairing_bound(self, xv, yv, p):
        x = np.array(xv)
        y = np.array(yv)
        for norm in (NormSpec("p_norm", p=p), NormSpec("weighted_p_norm", p=p, weights=(0.5, 3.0))):
            assert x @ y <= norm(x) * dual_norm(norm, y) + 1e-9

    @given(st.tuples(st.floats(-3, 3), st.floats(-3, 3)), st.floats(-4, 4))
    @settings(max_examples=200, deadline=None)
    def test_homogeneity(self, xv, t):
        x = np.array(xv)
        for norm in (NormSpec("euclidean"), NormSpec("p_norm", p=3)):
            assert norm(t * x) == pytest.approx(abs(t) * norm(x), rel=1e-10, abs=1e-12)


class TestPowerCostConjugate:
    def test_quadratic_self_dual(self, euclid):
        assert power_cost_conjugate(1.0, 2.0, euclid, np.array([1.0, 0.0])) == 0.5

    def test_scaled_quadratic(self, euclid):
        got = power_cost_conjugate(2.0, 2.0, euclid, np.array([2.0, 0.0]))
        assert got == pytest.approx(1.0)

    def test_cubic_against_numeric_sup(self, euclid):
        got = power_cost_conjugate(1.0, 3.0, euclid, np.array([1.0, 0.0]))
        rs = np.linspace(0, 3, 200001)
        numeric = np.max(rs - rs**3 / 3)
        assert got == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert got == pytest.approx(numeric, rel=1e-6)

    def test_matches_sampled_transform_on_full_grid(self, euclid):
        # conjugate of C||x||^q/q sampled on an unrestricted box
        C, q = 1.3, 3.0
        xs = np.linspace(-3, 3, 121)
        mesh = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
        vals = C * np.linalg.norm(mesh, axis=-1) ** q / q
        f = ExtGridFn([(-3, 3)] * 2, vals)
        conj = legendre_nd(f, dual_box=[(-1.5, 1.5)] * 2, dual_resolution=[13, 13])
        ys = np.linspace(-1.5, 1.5, 13)
        ymesh = np.stack(np.meshgrid(ys, ys, indexing="ij"), axis=-1).reshape(-1, 2)
        want = power_cost_conjugate(C, q, euclid, ymesh).reshape(13, 13)
        assert np.max(np.abs(conj.values.values - want)) <= 2e-3

    def test_restricted_domain_discrepancy_recorded(self, euclid, halfplane):
        # restricting the sup to the shifted domain can only lower it; the
        # closed form stays an upper bound and the gap is reported, not fixed
        C, q = 1.3, 3.0
        xs = np.linspace(-3, 3, 61)
        x2 = np.linspace(1.0, 5.0, 41)
        mesh = np.stack(np.meshgrid(xs, x2, indexing="ij"), axis=-1)
        vals = C * np.linalg.norm(mesh, axis=-1) ** q / q
        f = ExtGridFn([(-3, 3), (1, 5)], vals)
        conj = legendre_nd(f, dual_box=[(-1, 1)] * 2, dual_resolution=[9, 9])
        ys = np.linspace(-1, 1, 9)
        ymesh = np.stack(np.meshgrid(ys, ys, indexing="ij"), axis=-1).reshape(-1, 2)
        closed = power_cost_conjugate(C, q, euclid, ymesh).reshape(9, 9)
        gap = closed - conj.values.values
        assert gap.min() >= -1e-9
        assert gap.max() > 0.1  # strictly restricted somewhere

    def test_invalid_exponent_rejected(self, euclid):
        with pytest.raises(ValueError, match="q"):
            power_cost_conjugate(1.0, 1.0, euclid, np.array([1.0, 0.0]))


class TestFieldConjugates:
    P = np.array([0.3, -0.7])

    @staticmethod
    def grid_sup(field, p):
        # sup_x p.x - field(x) over a 0.01 grid of [-3, 3]^2, which holds
        # the maximizer (0.36, -1.84) of the shifted quartic at this p
        xs = np.linspace(-3.0, 3.0, 601)
        mesh = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
        return float(np.max(mesh @ p - field(mesh)))

    def test_shifted_field_conjugate_subtracts_the_shift(self, euclid):
        W = power_cost_field(1.0, 4.0, euclid)
        e = np.array([0.0, 1.0])
        g = shifted_field(W, e)
        got = float(g.conjugate(self.P))
        assert got == pytest.approx(float(W.conjugate(self.P)) - self.P @ e, rel=1e-12)
        assert got == pytest.approx(1.2216, abs=1e-4)
        assert got == pytest.approx(self.grid_sup(g, self.P), abs=1e-3)

    def test_bump_product_carries_no_conjugate(self, euclid):
        g = shifted_field(power_cost_field(1.0, 4.0, euclid), np.array([0.0, 1.0]))
        assert multiply_bump(g, [0.0, 1.0], 2.0, 1.0).conjugate is None
        assert shifted_field(bump_field([0.0, 1.0]), np.array([0.0, 1.0])).conjugate is None


def test_default_dual_box_covers_sampled_slopes():
    xs = np.linspace(-2, 2, 21)
    f = ExtGridFn([(-2, 2)], xs**2)
    (lo, hi), = default_dual_box(f)
    diffs = np.diff(xs**2) / (xs[1] - xs[0])
    assert lo < diffs.min() and hi > diffs.max()


@pytest.mark.filterwarnings("error")
def test_default_dual_box_ignores_adjacent_inf_samples():
    # +inf - +inf between two +inf neighbours must neither warn nor move the
    # box, which comes from the differences of finite neighbours alone
    xs, ys = np.linspace(-2, 2, 9), np.linspace(-1, 2, 12)
    mesh = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)
    vals = np.sum(mesh**2, axis=-1) + mesh[..., 0]
    vals[:, 4:7] = INF
    f = ExtGridFn([(-2, 2), (-1, 2)], vals)
    box = default_dual_box(f)
    for d, step in enumerate(f.spacing):
        v = np.moveaxis(vals, d, 0)
        both = np.isfinite(v[1:]) & np.isfinite(v[:-1])
        diffs = (v[1:][both] - v[:-1][both]) / step
        span = diffs.max() - diffs.min()
        assert box[d] == (diffs.min() - 0.1 * span, diffs.max() + 0.1 * span)
    legendre_nd(f)
