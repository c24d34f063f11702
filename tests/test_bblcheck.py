"""Borell-Brascamp-Lieb gap checks, admissibility, and the equivalence scan."""

import numpy as np
import pytest

from epiconv import BBLParams, NormSpec, QuadSpec, cli
from epiconv import bblcheck
from epiconv.bblcheck import (
    _boundary_integrand,
    _grid_tail_K,
    _normalize_grid,
    _sample_fan,
    admissibility_report,
    appendix_limit_residual,
    bbl_gap,
    derived_gap,
    equivalence_scan,
)
from epiconv.extgrid import AdmissibilityParams, EpigraphDomain, ExtGridFn, paraboloid, sample_grid
from epiconv.fields import (
    bump_field,
    multiply_bump,
    power_cost_field,
    quadratic_field,
    shifted_field,
)
from epiconv.hopflax import _default_out_grid
from epiconv.quadrature import integrate_boundary, integrate_gridfn
from epiconv.sharpconst import normalize_power_cost
from oracles import grid_tail_K_reference, power_pair_hopflax

E2 = np.array([0.0, 1.0])


class TestBBLParams:
    def test_conjugate_exponent_computed(self):
        p = BBLParams(n=2, a=3.0, p=1.5)
        assert p.q == 3.0
        assert p.q_trace == pytest.approx(1.5 * 2.0 / 1.5)

    def test_hypothesis_violations_rejected(self):
        with pytest.raises(ValueError, match="a >= n > p > 1"):
            BBLParams(n=2, a=1.5)
        with pytest.raises(ValueError, match="a >= n > p > 1"):
            BBLParams(n=2, a=2.0, p=3.0)
        with pytest.raises(ValueError, match="a >= n > p > 1"):
            BBLParams(n=2, a=2.0, p=1.0)


def test_normalization_exponent_algebra():
    # scaling g by S^(1/a) drives the integral of g^-a to one
    xs = np.linspace(0, 1, 51)
    mesh = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
    g = ExtGridFn([(0, 1)] * 2, 1.0 + np.sum(mesh**2, axis=-1))
    a = 2.5
    gs, S = _normalize_grid(g, a)
    after = integrate_gridfn(gs, lambda v: np.where(np.isfinite(v), v, 1.0) ** (-a))
    assert after == pytest.approx(1.0, rel=1e-12)
    assert S == pytest.approx(integrate_gridfn(g, lambda v: v ** (-a)))


@pytest.fixture(scope="module")
def equality_pair_grids(halfplane):
    # normalized power cost with q = 4 at a = n = 2 and its shift
    spec = QuadSpec(half_width=5.0, dx=0.05, levels=6)
    C = normalize_power_cost(halfplane, NormSpec("euclidean"), 4.0, 2.0, spec)
    W = power_cost_field(C, 4.0, NormSpec("euclidean"))
    g = shifted_field(W, E2)
    L, dx = 10.0, 0.1
    m1, m2 = int(round(2 * L / dx)) + 1, int(round(L / dx)) + 1
    gg = sample_grid(halfplane, [(-L, L), (0.0, L)], [m1, m2], g)
    WW = sample_grid(halfplane, [(-L, L), (1.0, 1.0 + L)], [m1, m2], W)
    return gg, WW, W, g


class TestBBLGap:
    def test_h_zero_gap_exactly_zero(self, equality_pair_grids):
        gg, WW, _, _ = equality_pair_grids
        rep = bbl_gap(gg, WW, BBLParams(n=2, a=2.0, p=4 / 3, h=0.0))
        assert rep.gap == 0.0

    def test_equality_within_budget(self, equality_pair_grids):
        gg, WW, _, _ = equality_pair_grids
        rep = bbl_gap(gg, WW, BBLParams(n=2, a=2.0, p=4 / 3, h=0.5))
        assert abs(rep.gap) <= rep.quadrature_error_estimate

    def test_perturbed_gap_positive(self, halfplane):
        # fast-decay exponents (a=3, q=4) keep tails negligible; comparing the
        # perturbed run against the equality run on identical grids cancels
        # the shared discretization bias, isolating the strictly positive gap
        spec = QuadSpec(half_width=5.0, dx=0.05, levels=5)
        C = normalize_power_cost(halfplane, NormSpec("euclidean"), 4.0, 3.0, spec)
        W = power_cost_field(C, 4.0, NormSpec("euclidean"))
        g = shifted_field(W, E2)
        L, dx = 6.0, 0.05
        m1, m2 = int(round(2 * L / dx)) + 1, int(round(L / dx)) + 1
        WW = sample_grid(halfplane, [(-L, L), (1.0, 1.0 + L)], [m1, m2], W)
        gg = sample_grid(halfplane, [(-L, L), (0.0, L)], [m1, m2], g)
        gp = multiply_bump(g, [0.0, 1.0], 2.0, 2.0)
        ggp = sample_grid(halfplane, [(-L, L), (0.0, L)], [m1, m2], gp)
        params = BBLParams(n=2, a=3.0, p=4 / 3, h=0.5)
        rep = bbl_gap(ggp, WW, params)
        base = bbl_gap(gg, WW, params)
        assert rep.gap > 0
        assert rep.gap > base.gap + 0.02

    def test_nonnormalizable_rejected(self, halfplane):
        gg = ExtGridFn([(0, 1), (0, 1)], np.full((5, 5), np.inf))
        with pytest.raises(ValueError, match="normalize"):
            bbl_gap(gg, gg, BBLParams(n=2, a=2.0, h=0.5))

    def test_report_serializes(self, equality_pair_grids):
        gg, WW, _, _ = equality_pair_grids
        rep = bbl_gap(gg, WW, BBLParams(n=2, a=2.0, p=4 / 3, h=0.25))
        doc = rep.to_json()
        assert set(doc) >= {"params", "lhs", "rhs", "gap", "error_estimate"}


@pytest.fixture(scope="module")
def suite_pair():
    # the grids and analytic pair of the paper suite's bbl_gap check
    cfg = next(c for c in cli.paper_suite_configs() if c.name == "dynamics_q4_a2")
    g, W, q = cli._power_pair(cfg, cli._Shared(cfg))
    gg, WW = cli._grid_pair(cfg, g, W)
    return cfg, g, W, q, gg, WW


@pytest.mark.parametrize("h", [0.1, 0.25, 0.5, 1.0])
def test_hopf_bracket_encloses_closed_form(suite_pair, h):
    cfg, g, W, q, gg, WW = suite_pair
    a = cfg.a
    gs, Sg = _normalize_grid(gg, a)
    Ws, SW = _normalize_grid(WW, a)
    cg, cW = Sg ** (1.0 / a), SW ** (1.0 / a)
    box, (floor, ceiling) = bblcheck._out_bracket(g, W, h, gs, Ws, cg, cW, cfg.domain)
    X = np.stack(np.meshgrid(*_default_out_grid(gs, Ws, h)[1], indexing="ij"), axis=-1)
    inside = X[..., -1] >= h  # B_h of the half-space
    assert (np.isfinite(floor) == inside).all()
    assert (np.isfinite(ceiling) == inside).all()
    exact = power_pair_hopflax(W, cg, cW, q, h, X[inside])
    # the allowance: the closed form and the ceiling's witness candidate are
    # the same few float operations in another order, 16 ulps apart at most
    slack = 16 * np.finfo(float).eps * exact
    assert (floor[inside] > 0.0).all()
    assert (floor[inside] <= exact + slack).all()
    assert (exact <= ceiling[inside] + slack).all()
    rep = bbl_gap(gg, WW, BBLParams(n=2, a=a, p=cfg.p, h=h), (g, W, cfg.domain))
    assert rep.lhs == (1.0 + h) ** (a - 2) * integrate_gridfn(
        ExtGridFn(box, floor), lambda v: np.where(np.isfinite(v), v ** (1.0 - a), 0.0)
    )
    assert 0.0 <= rep.lhs - rep.terms["lhs_ceiling"] <= 0.01 * rep.lhs
    assert abs(rep.gap) <= rep.quadrature_error_estimate


def test_analytic_pair_makes_no_hopflax_apply(suite_pair, monkeypatch):
    cfg, g, W, _, gg, WW = suite_pair

    def forbidden(*args, **kwargs):
        raise AssertionError("the analytic path applied the grid operator")

    monkeypatch.setattr(bblcheck, "hopflax_apply", forbidden)
    rep = bbl_gap(gg, WW, BBLParams(n=2, a=cfg.a, p=cfg.p, h=1.0), (g, W, cfg.domain))
    assert rep.gap >= -rep.quadrature_error_estimate


def test_analytic_pair_needs_conjugates(suite_pair):
    cfg, g, W, _, gg, WW = suite_pair
    bumped = multiply_bump(g, [0.0, 1.0], 1.0, 0.5)
    with pytest.raises(ValueError, match="conjugate"):
        bbl_gap(gg, WW, BBLParams(n=2, a=cfg.a, p=cfg.p, h=0.5), (bumped, W, cfg.domain))


def test_grid_only_values_unchanged(halfplane):
    # the grid path's values, recorded before the analytic path was added,
    # bit for bit: a bump-perturbed power pair on 41 x 21 grids
    spec = QuadSpec(half_width=5.0, dx=0.05, levels=6)
    C = normalize_power_cost(halfplane, NormSpec("euclidean"), 4.0, 2.0, spec)
    W = power_cost_field(C, 4.0, NormSpec("euclidean"))
    g = multiply_bump(shifted_field(W, E2), [0.0, 1.0], 2.0, 1.0)
    gg = sample_grid(halfplane, [(-4, 4), (0.0, 4)], [41, 21], g)
    WW = sample_grid(halfplane, [(-4, 4), (1.0, 5.0)], [41, 21], W)
    pinned = {
        0.25: ["0x1.1e8b98533f58fp+1", "0x1.235202cfe76a8p+1", "-0x1.319a9f2a04640p-5",
               "0x1.820521adbcb22p+0", "0x1.581bc02ee8836p+0"],
        1.0: ["0x1.c2a0f90fd74fap+1", "0x1.c944b4640b237p+1", "-0x1.a8eed50cf4f40p-5",
              "0x1.2a10bf6e19574p+1", "0x1.0121994bf2837p+1"],
    }
    for h, want in pinned.items():
        r = bbl_gap(gg, WW, BBLParams(n=2, a=2.0, p=4 / 3, h=h))
        got = [r.lhs, r.rhs, r.gap, r.quadrature_error_estimate, r.tail_bound]
        assert [float(v).hex() for v in got] == want
        assert r.terms is None


@pytest.fixture(scope="module")
def derived_fixture(halfplane):
    spec = QuadSpec(half_width=5.0, dx=0.05, levels=8)
    C = normalize_power_cost(halfplane, NormSpec("euclidean"), 3.0, 2.0, spec)
    W = power_cost_field(C, 3.0, NormSpec("euclidean"))
    g = shifted_field(W, E2)
    return g, W, spec


class TestDerivedGap:
    def test_equality_case(self, derived_fixture, halfplane):
        g, W, spec = derived_fixture
        rep = derived_gap(g, W, BBLParams(n=2, a=2.0, p=1.5), halfplane, spec)
        assert abs(rep.gap) <= rep.quadrature_error_estimate

    def test_cone_admissible_pair(self, derived_fixture, unit_cone):
        spec = QuadSpec(half_width=5.0, dx=0.05, levels=6)
        C = normalize_power_cost(unit_cone, NormSpec("euclidean"), 3.0, 2.5, spec)
        W = power_cost_field(C, 3.0, NormSpec("euclidean"))
        g = shifted_field(W, E2)
        rep = derived_gap(g, W, BBLParams(n=2, a=2.5, p=1.5), unit_cone, spec)
        assert rep.gap >= -rep.quadrature_error_estimate

    def test_a_equals_n_drops_bulk_term(self, derived_fixture, halfplane):
        g, W, spec = derived_fixture
        rep = derived_gap(g, W, BBLParams(n=2, a=2.0, p=1.5), halfplane, spec)
        # the (a - n) coefficient vanishes identically; lhs is the other terms
        assert rep.lhs == pytest.approx(
            (2.0 - 1.0) * rep.terms["conjugate"] - rep.terms["boundary"], rel=1e-14
        )


class TestAppendixSplit:
    def test_halfspace_residual_trend_and_boundary_term(self, derived_fixture, halfplane):
        g, W, spec = derived_fixture
        qspec = QuadSpec(half_width=4.0, dx=0.1, levels=5)
        recs = appendix_limit_residual(
            g, W, BBLParams(n=2, a=2.0, p=1.5), halfplane,
            [0.4, 0.2, 0.1, 0.05, 0.01], spec, quotient_spec=qspec,
        )
        res = [abs(r["residual"]) for r in recs]
        assert all(a > b for a, b in zip(res, res[1:]))
        assert all(r["term_iii"] == 0.0 for r in recs)
        bdry, _ = integrate_boundary(
            _boundary_integrand(g, halfplane, -1.0, weighted=False), 1, spec, decay=3.0
        )
        r001 = recs[-1]
        assert abs(r001["term_ii"] - bdry) <= 0.02 * bdry

    def test_paraboloid_third_term_positive(self):
        par = paraboloid(2)
        spec = QuadSpec(half_width=4.0, dx=0.05, levels=4)
        C = normalize_power_cost(par, NormSpec("euclidean"), 3.0, 2.0, spec)
        W = power_cost_field(C, 3.0, NormSpec("euclidean"))
        g = shifted_field(W, E2)
        recs = appendix_limit_residual(
            g, W, BBLParams(n=2, a=2.0, p=1.5), par, [0.25, 0.1, 0.025], spec,
            quotient_spec=QuadSpec(half_width=3.0, dx=0.05, levels=5),
        )
        by_h = {r["h"]: r for r in recs}
        assert by_h[0.25]["term_iii"] > 0.1
        assert abs(by_h[0.1]["residual"]) > abs(by_h[0.025]["residual"])


    def test_third_term_integrated_on_a_mislabelled_cone(self):
        # negative control: term (iii) is integrated whatever the domain's
        # kind, so a paraboloid declared a cone gets its positive sliver term
        par = paraboloid(2)
        fake = EpigraphDomain(2, par.phi, par.grad_phi, kind="cone")
        spec = QuadSpec(half_width=4.0, dx=0.05, levels=4)
        C = normalize_power_cost(fake, NormSpec("euclidean"), 3.0, 2.0, spec)
        W = power_cost_field(C, 3.0, NormSpec("euclidean"))
        g = shifted_field(W, E2)
        (rec,) = appendix_limit_residual(
            g, W, BBLParams(n=2, a=2.0, p=1.5), fake, [0.25], spec,
            quotient_spec=QuadSpec(half_width=3.0, dx=0.1, levels=4),
        )
        assert rec["term_iii"] > 0.1


def test_sample_fan_1d_has_no_duplicates():
    fan = _sample_fan(1, 2000)
    assert len(np.unique(fan, axis=0)) == len(fan)
    # both half lines, the positive one first
    assert (fan[: len(fan) // 2] > 0).all() and (fan[len(fan) // 2 :] < 0).all()


def conditions_by_name(*args):
    conds = admissibility_report(*args)
    assert [c.name for c in conds] == ["C0", "C1", "C2", "C3", "C4", "phi_growth"]
    return {c.name: c for c in conds}


class TestAdmissibility:
    def test_power_cost_passes_c1_c2(self, halfplane):
        W = power_cost_field(1.6, 3.0, NormSpec("euclidean"))
        g = shifted_field(W, E2)
        adm = AdmissibilityParams(gamma=3.0)
        rep = conditions_by_name(g, W, adm, BBLParams(n=2, a=2.0, p=1.5), halfplane)
        assert rep["C1"].passed and rep["C2"].passed
        assert rep["C0"].passed

    def test_shifted_power_passes_c3_c4_with_fitted_constants(self, halfplane):
        W = power_cost_field(1.6, 3.0, NormSpec("euclidean"))
        g = shifted_field(W, E2)
        adm = AdmissibilityParams(gamma=3.0)
        rep = conditions_by_name(g, W, adm, BBLParams(n=2, a=2.0, p=1.5), halfplane)
        c3, c4 = rep["C3"], rep["C4"]
        assert c3.passed and c3.fitted > 0
        assert c4.passed and np.isfinite(c4.fitted)

    def test_growth_condition_dichotomy(self, halfplane, unit_cone):
        W = power_cost_field(1.6, 3.0, NormSpec("euclidean"))
        g = shifted_field(W, E2)
        params = BBLParams(n=2, a=2.0, p=1.5)
        adm = AdmissibilityParams(gamma=3.0)
        cone_growth = conditions_by_name(g, W, adm, params, unit_cone)["phi_growth"]
        assert cone_growth.passed
        assert cone_growth.fitted <= 1.0 + 1e-9
        growth = conditions_by_name(g, W, adm, params, paraboloid(2))["phi_growth"]
        assert not growth.passed
        assert growth.fitted == pytest.approx(2.0, abs=1e-2)
        assert np.isfinite(growth.fitted)
        assert growth.worst_point is not None

    def test_c0_violation_detected(self, halfplane):
        W = power_cost_field(1.6, 3.0, NormSpec("euclidean"))
        g = shifted_field(W, E2)
        adm = AdmissibilityParams(gamma=2.5)
        rep = conditions_by_name(g, W, adm, BBLParams(n=2, a=3.0, p=1.5), halfplane)
        assert not rep["C0"].passed
        assert not all(c.passed for c in rep.values())


def quadratic_grid(L, m, offset=1.0, curvature=0.5):
    xs = np.linspace(-L, L, m)
    mesh = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
    return ExtGridFn([(-L, L)] * 2, offset + 0.5 * curvature * np.sum(mesh**2, axis=-1))


def perturbed_pair():
    # a bump-perturbed quadratic g against the quadratic W, on 81 x 81 grids;
    # the product carries no conjugate, so the scan stays on the grid
    quad = quadratic_field(offset=1.0, curvature=0.5)
    xs = np.linspace(-8, 8, 81)
    mesh = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
    pert_vals = quad(mesh) * (1 + 0.3 * bump_field([1.0, 0.5], 2.0, 1.0)(mesh))
    return ExtGridFn([(-8, 8)] * 2, pert_vals), ExtGridFn([(-8, 8)] * 2, quad(mesh))


@pytest.fixture(scope="module")
def scans():
    # the grid and analytic scans of the 161 x 161 cube pair of the paper
    # suite, and the grid scan of the perturbed pair
    quad = quadratic_field(offset=1.0, curvature=0.5)
    g = quadratic_grid(10.0, 161)
    hs = [0.0, 0.05, 0.1, 0.25, 0.5]
    same = equivalence_scan(g, g, 2, hs, W_conjugate=quad.conjugate)
    gp, Wp = perturbed_pair()
    pert = equivalence_scan(gp, Wp, 2, [0.0, 0.05, 0.1], W_conjugate=quad.conjugate)
    analytic = equivalence_scan(g, g, 2, hs, W_conjugate=quad.conjugate, analytic=(quad, quad))
    return same, pert, analytic


class TestEquivalenceScan:

    def test_phi_zero_is_one(self, scans):
        for scan in scans:
            assert scan.phi_values[0] == pytest.approx(1.0, abs=1e-12)

    def test_curve_stays_above_one(self, scans):
        for scan in scans:
            assert all(p >= 1.0 - scan.error_estimate for p in scan.phi_values)

    def test_statement_b_quantity_nonnegative(self, scans):
        same, _, analytic = scans
        for scan in (same, analytic):
            assert scan.integral_derivative >= -scan.derivative_error_estimate

    def test_fd_matches_integral(self, scans):
        for scan in scans:
            dev = abs(scan.fd_derivative - scan.integral_derivative)
            assert dev <= max(
                0.05 * abs(scan.integral_derivative), scan.derivative_error_estimate
            )

    def test_analytic_phi_within_grid_budget(self, scans):
        # both routes scan the same box with the same normalization; the
        # grid values bound Q_h from above, so they differ by less than the
        # grid budget, and the bracket's budget is far smaller
        same, _, analytic = scans
        assert analytic.h_values == same.h_values
        for p_grid, p_analytic in zip(same.phi_values, analytic.phi_values):
            assert abs(p_analytic - p_grid) <= same.error_estimate
        assert analytic.error_estimate <= 0.01 * same.error_estimate

    def test_analytic_shares_the_grid_derivative(self, scans):
        # the derivative reads the grids alone, so both routes agree on it
        same, _, analytic = scans
        assert analytic.integral_derivative == same.integral_derivative


def test_equivalence_scan_analytic_makes_no_hopflax_apply(monkeypatch):
    quad = quadratic_field(offset=1.0, curvature=0.5)
    g = quadratic_grid(10.0, 81)

    def forbidden(*args, **kwargs):
        raise AssertionError("the analytic path applied the grid operator")

    monkeypatch.setattr(bblcheck, "hopflax_apply", forbidden)
    scan = equivalence_scan(
        g, g, 2, [0.0, 0.05, 0.1], W_conjugate=quad.conjugate, analytic=(quad, quad)
    )
    assert all(p >= 1.0 - scan.error_estimate for p in scan.phi_values)


def test_equivalence_scan_analytic_needs_conjugates():
    quad = quadratic_field(offset=1.0, curvature=0.5)
    bumped = multiply_bump(quad, [1.0, 0.5], 2.0, 0.3)
    g = quadratic_grid(4.0, 33)
    for pair in ((bumped, quad), (quad, bumped)):
        with pytest.raises(ValueError, match="conjugate"):
            equivalence_scan(g, g, 2, [0.0, 0.1], W_conjugate=quad.conjugate, analytic=pair)


def test_equivalence_scan_grid_values_unchanged(monkeypatch):
    # the grid path's values on the perturbed pair, recorded before the
    # analytic route was added, bit for bit; the integral derivative gains
    # the box flux, and without it reads its old bits
    quad = quadratic_field(offset=1.0, curvature=0.5)
    gp, Wp = perturbed_pair()
    scan = equivalence_scan(gp, Wp, 2, [0.0, 0.05, 0.1], W_conjugate=quad.conjugate)
    assert [float(p).hex() for p in scan.phi_values] == [
        "0x1.0000000000000p+0", "0x1.ff097511c9a02p-1", "0x1.ff2876f2fad14p-1",
    ]
    assert float(scan.fd_derivative).hex() == "-0x1.e1a5ab64b2780p-5"
    assert float(scan.error_estimate).hex() == "0x1.5ad97b30823c0p-7"
    assert float(scan.derivative_error_estimate).hex() == "0x1.b18fd9fca2cb0p-3"
    assert float(scan.integral_derivative).hex() == "0x1.e7a1129817558p-7"
    monkeypatch.setattr(bblcheck, "_box_flux", lambda *args: 0.0)
    bulk = equivalence_scan(gp, Wp, 2, [0.0, 0.05, 0.1], W_conjugate=quad.conjugate)
    assert float(bulk.integral_derivative).hex() == "-0x1.6bbe6d525e4aap-4"


def _suite_scan_verdicts():
    # the verdicts of the paper suite's equivalence_scan check; c14 shows
    # that every one of them passes unmutated
    cfg = next(c for c in cli.paper_suite_configs() if "equivalence_scan" in c.checks)
    res = cli.check_equivalence_scan(cfg, cli._Shared(cfg))
    return {x["label"]: x["passed"] for x in res["assertions"]}


def test_derivative_match_fails_without_box_flux(monkeypatch):
    # negative control: the derivative of the phi computed needs the flux of
    # its growing box; without it the bulk term alone misses fd by 0.063
    monkeypatch.setattr(bblcheck, "_box_flux", lambda *args: 0.0)
    assert _suite_scan_verdicts()["derivative_match"] is False


def test_derivative_match_fails_with_bracket_at_half_h(monkeypatch):
    # negative control: Q evaluated at h/2 on the box of h halves phi's
    # interior change while the box still grows at rate 1
    real = bblcheck._pointwise_bracket
    monkeypatch.setattr(
        bblcheck, "_pointwise_bracket", lambda g, W, h, *rest: real(g, W, h / 2, *rest)
    )
    assert _suite_scan_verdicts()["derivative_match"] is False


def test_gap_report_curve_fields(equality_pair_grids):
    gg, WW, _, _ = equality_pair_grids
    rep = bbl_gap(gg, WW, BBLParams(n=2, a=2.0, p=4 / 3, h=0.1))
    assert rep.h == 0.1
    assert rep.gap == rep.lhs - rep.rhs


def _tail_fit_cases():
    rng = np.random.default_rng(17)
    xs, ys = np.linspace(-2.0, 2.0, 9), np.linspace(0.0, 4.0, 7)
    vals = rng.uniform(0.1, 3.0, size=(9, 7))
    vals[rng.uniform(size=vals.shape) < 0.3] = np.inf
    yield "inf_nodes", vals, [xs, ys]
    # the node (0, 0) sits on the face y = 0 at r = 0 and is skipped, though
    # it carries the largest value
    on_face = rng.uniform(0.1, 3.0, size=(9, 7))
    on_face[4, 0] = 100.0
    yield "origin_on_face", on_face, [xs, ys]
    corner = rng.uniform(0.1, 3.0, size=(5, 6))
    corner[0, 0] = 100.0
    yield "origin_at_corner", corner, [np.linspace(0.0, 2.0, 5), np.linspace(0.0, 1.0, 6)]
    one_face = rng.uniform(0.1, 3.0, size=(9, 7))
    one_face[0, :] = np.inf
    one_face[:, -1] = np.inf
    yield "inf_faces", one_face, [xs, ys]
    yield "all_inf", np.full((9, 7), np.inf), [xs, ys]
    cube = rng.uniform(0.1, 3.0, size=(5, 4, 6))
    cube[rng.uniform(size=cube.shape) < 0.2] = np.inf
    yield "3d", cube, [np.linspace(-1.0, 1.0, 5), np.linspace(-1.5, 0.0, 4), np.linspace(0.0, 2.5, 6)]


@pytest.mark.parametrize("alpha", [0.0, 2.5, 7.0])
@pytest.mark.parametrize("case", list(_tail_fit_cases()), ids=lambda c: c[0])
def test_grid_tail_K_bit_identical_to_reference(case, alpha):
    # the face-by-face fit delegates to the quadrature's tail fit; the radius
    # of each node is the same sum of squares, so the constant keeps its bits
    _, vals, axes = case
    got = _grid_tail_K(vals, axes, alpha)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(grid_tail_K_reference(vals, axes, alpha)).tobytes()
