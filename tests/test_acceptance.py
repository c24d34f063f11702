"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance here is fixed up front; error budgets come from the library's
own reported estimates where the criterion says so, never recalibrated to make
a run green.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from epiconv import (
    BBLParams,
    NormSpec,
    PowerCost,
    QuadSpec,
    extremal_f,
    halfspace,
    trace_gn_check,
)
from epiconv.bblcheck import appendix_limit_residual, bbl_gap, bbl_gap_fields
from epiconv.extgrid import ExtGridFn, affine_max, is_cone, norm_cone, paraboloid, sample_grid
from epiconv.fields import bump_field, power_cost_field, quadratic_field, shifted_field
from epiconv.hopflax import (
    hj_difference_quotient,
    hopflax_apply,
    infconv,
    semigroup_residual,
)
from epiconv.sharpconst import (
    DomainRejectionError,
    i_alpha,
    normalize_power_cost,
    weighted_trace_check,
)
from epiconv.transforms import legendre_nd
from epiconv import cli
from epiconv.fields import multiply_bump
from epiconv.quadrature import integrate_boundary
from epiconv.bblcheck import _boundary_integrand
from oracles import (
    brute_conjugate_1d,
    brute_conjugate_nd,
    counterexample_pair,
    counterexample_table,
    hopflax_pointwise,
    legendre_1d,
    polar_cone_moment,
)

E2 = np.array([0.0, 1.0])
EUCLID = NormSpec("euclidean")


def report(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def random_convex_grid(rng, shape, box):
    axes = [np.linspace(lo, hi, m) for (lo, hi), m in zip(box, shape)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    A = rng.uniform(0.3, 2.0, len(shape))
    b = rng.uniform(-0.5, 0.5, len(shape))
    c = rng.uniform(-0.5, 0.5, len(shape))
    vals = np.sum(A * (mesh - b) ** 2, axis=-1) + mesh @ c
    return ExtGridFn(box, vals), axes


def test_c01_legendre_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    checked = 0
    for trial in range(20):
        m1 = int(rng.integers(5, 17))
        m2 = int(rng.integers(5, 17))
        f, axes = random_convex_grid(rng, (m1, m2), [(-1.5, 1.5), (-1.0, 2.0)])
        dual_box = [(-3, 3), (-3, 3)]
        dual_res = [int(rng.integers(4, 12)), int(rng.integers(4, 12))]
        conj = legendre_nd(f, dual_box=dual_box, dual_resolution=dual_res)
        dual_axes = [np.linspace(lo, hi, m) for (lo, hi), m in zip(dual_box, dual_res)]
        want = brute_conjugate_nd(axes, f.values, dual_axes)
        assert np.array_equal(conj.values.values, want), f"trial {trial}"
        # 1D argmax agreement, ties broken to the smallest index
        line = f.values[:, m2 // 2]
        slopes = rng.uniform(-4, 4, 9)
        got, garg = legendre_1d(axes[0], line, slopes)
        ref, rarg = brute_conjugate_1d(axes[0], line, slopes)
        assert np.array_equal(got, ref) and np.array_equal(garg, rarg)
        checked += 1
    elapsed = time.perf_counter() - t0
    report(
        "criterion 1 (Legendre oracle)",
        checked == 20 and elapsed < 1.0,
        f"20 fixtures exact, {elapsed:.2f} s",
    )


def test_c02_biconjugacy():
    rng = np.random.default_rng(202)
    ratios = []
    for trial in range(10):
        shape = (int(rng.integers(9, 17)),) * 2
        box = [(-2.0, 2.0), (-2.0, 2.0)]
        errs = {}
        tols = {}
        for scale in (1, 2):
            res = tuple((s - 1) * scale + 1 for s in shape)
            f, _ = random_convex_grid(np.random.default_rng(trial), res, box)
            conj = legendre_nd(f)
            back = legendre_nd(conj.values, dual_box=f.box, dual_resolution=f.resolution)
            err = float(np.max(np.abs(back.values.values - f.values)))
            tol = sum(
                (hi - lo) / (m - 1) / 2.0 * (bhi - blo)
                for (lo, hi), m, (blo, bhi) in zip(
                    conj.values.box, conj.values.resolution, f.box
                )
            )
            assert err <= tol, f"trial {trial} scale {scale}: {err} > {tol}"
            errs[scale] = err
            tols[scale] = tol
        ratios.append(tols[2] / tols[1])
    ok = all(0.4 <= r <= 0.6 for r in ratios)
    report(
        "criterion 2 (biconjugacy)",
        ok,
        f"10 fixtures within bound; bound-halving ratios in [{min(ratios):.3f}, {max(ratios):.3f}]",
    )


@pytest.fixture(scope="module")
def hopflax_cost():
    spec = QuadSpec(half_width=5.0, dx=0.05, levels=8)
    C = normalize_power_cost(halfspace(2), EUCLID, 3.0, 2.0, spec)
    return C, power_cost_field(C, 3.0, EUCLID)


def test_c03_hopflax_equality_case(hopflax_cost):
    C, W = hopflax_cost
    dom = halfspace(2)
    L, dx = 4.0, 0.1
    box = [(-L, L), (1.0, 1.0 + 2 * L)]
    res = [int(round((hi - lo) / dx)) + 1 for lo, hi in box]
    WW = sample_grid(dom, box, res, W, h=1.0)
    worst = {}
    for h in (0.25, 0.5):
        Q = hopflax_apply(WW, WW, h)
        axes = Q.values.axes
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        scaled = mesh / (1.0 + h)
        closed = np.full(Q.values.resolution, np.inf)
        member = dom.contains(scaled.reshape(-1, 2), 1.0).reshape(Q.values.resolution)
        closed[member] = (1.0 + h) * W(scaled[member])
        inbox = np.ones(Q.values.resolution, bool)
        for d in range(2):
            lo, hi = box[d]
            inbox &= (scaled[..., d] >= lo + dx) & (scaled[..., d] <= hi - dx)
        m = Q.values.finite_mask & inbox & member
        worst[h] = float(np.max(np.abs(Q.values.values[m] - closed[m])))
        assert worst[h] <= 5 * dx
    report(
        "criterion 3 (Hopf-Lax equality case)",
        True,
        f"max deviations {worst[0.25]:.4f}, {worst[0.5]:.4f} <= {5 * dx}",
    )


def test_c04_semigroup():
    quad = quadratic_field(offset=1.0, curvature=1.0)
    residuals = []
    for m in (41, 81):
        xs = np.linspace(-2, 2, m)
        mesh = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
        g = ExtGridFn([(-2, 2)] * 2, quad(mesh))
        dx = 4.0 / (m - 1)
        r = semigroup_residual(g, g, 0.6, 0.2)
        assert r <= 5 * dx
        residuals.append(r)
    ok = residuals[1] < residuals[0]
    report(
        "criterion 4 (semigroup)",
        ok,
        f"residuals {residuals[0]:.5f} -> {residuals[1]:.5f}, bounds met",
    )


def test_c05_hj_derivative():
    quad = quadratic_field(offset=1.0, curvature=1.0)
    rng = np.random.default_rng(505)
    pts = rng.uniform(-0.9, 0.9, size=(20, 2))
    _, limit, ref, dev = hj_difference_quotient(quad, quad, [0.4, 0.2, 0.1, 0.05], pts)
    rel = dev / np.maximum(1.0, np.abs(ref))
    worst = float(np.max(rel))
    report(
        "criterion 5 (HJ derivative)",
        worst <= 0.01,
        f"20 interior points, worst extrapolated deviation {worst:.2%} of scale",
    )


@pytest.fixture(scope="module")
def bbl_universe():
    dom = halfspace(2)
    spec = QuadSpec(half_width=5.0, dx=0.05, levels=6)
    C = normalize_power_cost(dom, EUCLID, 4.0, 2.0, spec)
    W = power_cost_field(C, 4.0, EUCLID)
    g = shifted_field(W, E2)
    return dom, W, g


def _bbl_grids(dom, W, g, L, dx, slope=None):
    m1 = int(round(2 * L / dx)) + 1
    m2 = int(round(L / dx)) + 1
    gg = sample_grid(dom, [(-L, L), (0.0, L)], [m1, m2], g)
    WW = sample_grid(dom, [(-L, L), (1.0, 1.0 + L)], [m1, m2], W)
    return gg, WW


def test_c06_bbl_gap(bbl_universe):
    dom, W, g = bbl_universe
    cone = norm_cone(2, 1.0)
    spec_c = QuadSpec(half_width=5.0, dx=0.05, levels=6)
    Cc = normalize_power_cost(cone, EUCLID, 4.0, 2.0, spec_c)
    Wc = power_cost_field(Cc, 4.0, EUCLID)
    gc = shifted_field(Wc, E2)

    fixtures = {
        "halfspace_equality": (dom, *_bbl_grids(dom, W, g, 10.0, 0.1)),
        "halfspace_perturbed": (
            dom, *_bbl_grids(dom, W, multiply_bump(g, [0.0, 1.0], 2.0, 1.0), 10.0, 0.1)
        ),
        "cone_perturbed": (
            cone,
            sample_grid(cone, [(-10, 10), (0.0, 10)], [201, 101],
                        multiply_bump(gc, [0.0, 1.5], 2.0, 1.0)),
            sample_grid(cone, [(-10, 10), (1.0, 11.0)], [201, 101], Wc, h=1.0),
        ),
    }
    params = BBLParams(n=2, a=2.0, p=4 / 3)
    lines = []
    for name, (_d, gg, WW) in fixtures.items():
        for h in (0.1, 0.25, 0.5, 1.0):
            rep = bbl_gap(gg, WW, params.with_h(h))
            assert rep.gap >= -rep.quadrature_error_estimate, (name, h, rep.gap)
        lines.append(name)

    # equality case: |gap| within budget and budget shrinking under
    # refinement, with Q_h from the grid operator on two grid rungs, and from
    # the analytic pair's bracket on the graded quadrature on three specs
    gaps, errs = {"grid": [], "fields": []}, {"grid": [], "fields": []}
    for dx, L in [(0.2, 8.0), (0.1, 12.0)]:
        gg, WW = _bbl_grids(dom, W, g, L, dx)
        rep = bbl_gap(gg, WW, params.with_h(0.5))
        assert abs(rep.gap) <= rep.quadrature_error_estimate, ("grid", dx, L, rep.gap)
        gaps["grid"].append(rep.gap)
        errs["grid"].append(rep.quadrature_error_estimate)
    for dx in (0.2, 0.1, 0.05):
        (rep,) = bbl_gap_fields(g, W, params, dom, [0.5], QuadSpec(5.0, dx, 6))
        assert abs(rep.gap) <= rep.quadrature_error_estimate, ("fields", dx, rep.gap)
        gaps["fields"].append(rep.gap)
        errs["fields"].append(rep.quadrature_error_estimate)
    ok = all(a > b for e in errs.values() for a, b in zip(e, e[1:]))
    report(
        "criterion 6 (BBL gap)",
        ok,
        "all fixtures/h nonneg within budget; equality "
        + "; ".join(
            f"{route} |gap| {[f'{abs(x):.3g}' for x in gaps[route]]} "
            f"<= shrinking budgets {[f'{x:.4f}' for x in errs[route]]}"
            for route in gaps
        ),
    )


def test_c06_exact_candidate_ceiling_on_perturbed_halfspace(bbl_universe):
    # the grid value bounds Q_h only of g's bilinear interpolant, which the
    # bump undercuts where it makes g locally concave; the exact candidate
    # g(x - h y*) + h W(y*) at the grid argmin y* is a continuum upper bound
    # whatever g, so it is never below a dense pointwise search
    dom, W, g = bbl_universe
    gb = multiply_bump(g, [0.0, 1.0], 2.0, 1.0)
    gg, WW = _bbl_grids(dom, W, gb, 10.0, 0.1)
    h = 0.1
    res = hopflax_apply(gg, WW, h)
    X = np.stack(np.meshgrid(*res.values.axes, indexing="ij"), axis=-1)
    window = (np.abs(X[..., 0]) <= 4 + 1e-9) & (X[..., 1] >= h - 1e-9) & (X[..., 1] <= 4 + 1e-9)
    nodes = np.argwhere(window)
    assert len(nodes) == 3240
    worst = np.argwhere(window & np.all(np.abs(X - [0.2, 2.1]) < 1e-9, axis=-1))
    rng = np.random.default_rng(6)
    nodes = np.concatenate([worst, nodes[rng.choice(len(nodes), 300, replace=False)]])
    at = tuple(nodes.T)
    x = X[at]
    y = np.stack(np.meshgrid(*WW.axes, indexing="ij"), axis=-1).reshape(-1, 2)[res.argmin[at]]
    q = x - h * y
    ceiling = np.where(dom.contains(q, 0.0), gb.fn(q), np.inf) + h * W.fn(y)
    dense = hopflax_pointwise(
        gb.fn, W.fn, h, x, y_box=WW.box, y_resolution=WW.resolution,
        g_domain=dom, W_domain=dom, zoom_iters=14,
    )
    assert np.isfinite(dense).all()
    assert (ceiling >= dense).all()
    # the grid value itself falls below at x = (0.2, 2.1)
    grid = res.values.values[at]
    assert (grid[0] - dense[0]) / dense[0] < -1.4e-4
    report(
        "criterion 6 (exact-candidate ceiling)",
        True,
        f"{len(x)} window nodes; grid undercuts the dense search by "
        f"{-(grid[0] - dense[0]) / dense[0]:.2e} at (0.2, 2.1), the ceiling never does",
    )


def test_c07_cone_dichotomy(hopflax_cost):
    _, W = hopflax_cost
    for phi_dom in (halfspace(2), norm_cone(2, 1.0), affine_max([[0.5], [-1.0]])):
        assert is_cone(phi_dom).is_cone
    chk = is_cone(paraboloid(2))
    assert not chk.is_cone and chk.witness is not None

    g = shifted_field(W, E2)
    h = 0.25
    details = []
    for dom, slope_fn in (
        (norm_cone(2, 1.0), lambda x1: np.sign(x1)),
        (paraboloid(2), lambda x1: 2.0 * x1 / (1 + h)),
    ):
        dx = 0.05
        gg = sample_grid(dom, [(-2, 2), (0.0, 4.0)], [81, 81], g)
        WW = sample_grid(dom, [(-2, 2), (1.0, 5.0)], [81, 81], W, h=1.0)
        Q = hopflax_apply(gg, WW, h)
        axes = Q.values.axes
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        window = (np.abs(mesh[..., 0]) <= 1.5) & (mesh[..., 1] <= 3.0)
        lower = dom.bh_lower(mesh[..., :1].reshape(-1, 1), h).reshape(mesh.shape[:-1])
        depth = mesh[..., 1] - lower
        band = (1.0 + np.abs(slope_fn(mesh[..., 0]))) * dx
        outside_bad = Q.values.finite_mask & (depth < -band) & window
        inside_bad = ~Q.values.finite_mask & (depth > band) & window
        assert not outside_bad.any(), dom.kind
        assert not inside_bad.any(), dom.kind
        details.append(f"{dom.kind}: dom within one slope-adjusted cell")
    report("criterion 7 (cone dichotomy)", True, "; ".join(details))


@pytest.fixture(scope="module")
def extremal_pair(hopflax_cost):
    _, W = hopflax_cost
    return shifted_field(W, E2), W


def test_c08_appendix_limit(extremal_pair):
    g, W = extremal_pair
    dom = halfspace(2)
    spec = QuadSpec(half_width=5.0, dx=0.05, levels=8)
    qspec = QuadSpec(half_width=4.0, dx=0.1, levels=5)
    params = BBLParams(n=2, a=2.0, p=1.5)
    recs = appendix_limit_residual(
        g, W, params, dom, [0.4, 0.2, 0.1, 0.05, 0.01], spec, quotient_spec=qspec
    )
    res = [abs(r["residual"]) for r in recs]
    assert all(a > b for a, b in zip(res, res[1:])), res
    assert all(r["term_iii"] == 0.0 for r in recs)
    bdry, _ = integrate_boundary(
        _boundary_integrand(g, dom, -1.0, weighted=False), 1, spec, decay=3.0
    )
    rel = abs(recs[-1]["term_ii"] - bdry) / bdry
    assert rel <= 0.02

    par = paraboloid(2)
    spec_p = QuadSpec(half_width=4.0, dx=0.05, levels=4)
    Cp = normalize_power_cost(par, EUCLID, 3.0, 2.0, spec_p)
    Wp = power_cost_field(Cp, 3.0, EUCLID)
    gp = shifted_field(Wp, E2)
    recs_p = appendix_limit_residual(
        gp, Wp, params, par, [0.25], spec_p,
        quotient_spec=QuadSpec(half_width=3.0, dx=0.05, levels=5),
    )
    assert recs_p[0]["term_iii"] > 0.1
    report(
        "criterion 8 (appendix limit)",
        True,
        f"boundary term matched to {rel:.2%} at h=0.01; cone (iii)=0; "
        f"paraboloid (iii)={recs_p[0]['term_iii']:.3f}>0 at h=0.25",
    )


def test_c09_i_alpha_oracle():
    dom = halfspace(2)
    spec = QuadSpec(half_width=6.0, dx=0.025, levels=5)
    times = {}
    vals = {}
    for alpha, exact in ((4.0, math.pi / 4), (6.0, 3 * math.pi / 32)):
        t0 = time.perf_counter()
        val, err = i_alpha(dom, EUCLID, alpha, spec)
        times[alpha] = time.perf_counter() - t0
        polar = polar_cone_moment(alpha, lambda c: 0.0 * c)
        assert abs(val - exact) <= 0.005 * exact
        assert abs(val - polar) <= 0.005 * polar
        assert times[alpha] < 10.0
        vals[alpha] = val
    report(
        "criterion 9 (moment oracle)",
        True,
        f"I4={vals[4.0]:.6f} (pi/4 within 0.5%), I6={vals[6.0]:.6f} (3pi/32 within 0.5%), "
        f"times {times[4.0]:.2f}s/{times[6.0]:.2f}s",
    )


def test_c10_trace_equality():
    cases = [
        ("halfspace", halfspace(2), BBLParams(n=2, a=2.0, p=1.5)),
        ("cone", norm_cone(2, 1.0), BBLParams(n=2, a=2.5, p=1.5)),
    ]
    summary = []
    for name, dom, params in cases:
        deviations = []
        spec = QuadSpec(half_width=5.0, dx=0.1, levels=7)
        cost = PowerCost(dom, EUCLID, params.q, params.a)
        for _ in range(3):
            rep = trace_gn_check(extremal_f(params, EUCLID), cost, params, spec)
            deviations.append(abs(rep.ratio - 1.0))
            spec = spec.refined()
        assert deviations[0] <= 0.02, (name, deviations)
        assert deviations[-1] <= 0.02
        assert deviations[2] < deviations[0], (name, deviations)
        bump = bump_field([0.0, 0.9], radius=1.0, amplitude=1.0)
        rb = trace_gn_check(bump, cost, params, QuadSpec(5.0, 0.05, 5))
        assert rb.ratio < 1.0
        summary.append(f"{name}: |ratio-1| {deviations[0]:.4f}->{deviations[2]:.4f}, bump {rb.ratio:.3f}")
    report("criterion 10 (trace equality)", True, "; ".join(summary))


def test_c11_weighted_trace():
    dom = affine_max([[0.5], [-1.0]])
    params = BBLParams(n=2, a=2.0, p=4 / 3)
    spec = QuadSpec(half_width=5.0, dx=0.05, levels=5)
    cost = PowerCost(dom, EUCLID, params.q, params.a)
    rep = weighted_trace_check(extremal_f(params, EUCLID), cost, params, spec)
    assert abs(rep.ratio - 1.0) <= 0.02
    bump = bump_field([0.0, 0.6], radius=0.9, amplitude=1.0)
    rb = weighted_trace_check(bump, cost, params, spec)
    assert rb.ratio <= 1.0 + rb.quadrature_error
    with pytest.raises(DomainRejectionError) as err:
        weighted_trace_check(
            extremal_f(params, EUCLID), PowerCost(paraboloid(2), EUCLID, params.q, params.a),
            params, QuadSpec(4.0, 0.05, 4),
        )
    assert err.value.fitted == pytest.approx(2.0, abs=0.01)
    report(
        "criterion 11 (weighted trace)",
        True,
        f"affine-max extremal ratio {rep.ratio:.5f}, bump {rb.ratio:.4f}; "
        f"paraboloid rejected with fitted ratio {err.value.fitted:.3f}",
    )


def test_c12_constant_identities():
    spec = QuadSpec(half_width=5.0, dx=0.05, levels=8)
    lines = []
    for dom, params in (
        (halfspace(2), BBLParams(n=2, a=2.0, p=1.5)),
        (norm_cone(2, 1.0), BBLParams(n=2, a=2.5, p=1.5)),
    ):
        cst = PowerCost(dom, EUCLID, params.q, params.a).constants(params, spec)
        assert abs(1 / cst.u + 1 / cst.v - 1.0) <= 1e-12
        assert abs(cst.D - cst.A**cst.u / ((cst.B * cst.v) ** (cst.u - 1) * cst.u)) <= 1e-12 * cst.D
        assert abs(cst.theta - (cst.a - cst.p) / (cst.p * (cst.a - cst.n - 1) + cst.n)) <= 1e-12
        assert abs(cst.q_trace - cst.p * (cst.a - 1) / (cst.a - cst.p)) <= 1e-12
        assert abs(cst.C - (cst.p / (cst.p - 1)) * cst.i_values["qa"] ** (1 / cst.a)) <= 1e-12 * cst.C
        assert abs(cst.B - cst.B_identity) <= 0.01 * cst.B
        if cst.a == cst.n:
            assert cst.theta == 1.0
        lines.append(f"a={cst.a:g}: identities at 1e-12, B routes {abs(cst.B - cst.B_identity) / cst.B:.2e}")
    report("criterion 12 (constant identities)", True, "; ".join(lines))


def test_c13_counterexample_fixture():
    import epiconv.extgrid as eg
    from importlib import resources

    data = resources.files("epiconv") / "data"
    f = eg.read_gridfn(str(data / "counterexample_f.grid"))
    g = eg.read_gridfn(str(data / "counterexample_g.grid"))
    fb, gb = counterexample_pair(0.25)
    assert np.array_equal(f.values, fb.values) and np.array_equal(g.values, gb.values)
    res = infconv(f, g)
    xs = res.values.axes[0]
    X1, X2 = np.meshgrid(xs, res.values.axes[1], indexing="ij")
    expected = counterexample_table(X1, X2)
    assert np.array_equal(res.values.values, expected)
    report(
        "criterion 13 (counterexample fixture)",
        True,
        "piecewise table reproduced exactly on all grid nodes",
    )


# sha256 of the `suite paper` report, the behaviour oracle: a change that
# moves it on purpose updates this pin and records the new hash in CHANGES.md
SUITE_PAPER_SHA256 = "48077f5f8124cc1ae3021fa0386631a94dacd45746dd44e46148e760d02d1b86"


def test_c14_suite_determinism(tmp_path):
    t0 = time.perf_counter()
    r1 = cli.run_suite(str(tmp_path / "suite1.json"))
    first = time.perf_counter() - t0
    r2 = cli.run_suite(str(tmp_path / "suite2.json"))
    b1 = (tmp_path / "suite1.json").read_bytes()
    b2 = (tmp_path / "suite2.json").read_bytes()
    assert r1.passed and r2.passed
    assert b1 == b2
    assert hashlib.sha256(b1).hexdigest() == SUITE_PAPER_SHA256
    assert first < 600.0
    report(
        "criterion 14 (determinism)",
        True,
        f"suite bit-identical across two executions and to the pinned sha256, "
        f"{first:.0f} s per run (< 600 s)",
    )
