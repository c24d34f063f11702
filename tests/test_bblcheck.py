"""Borell-Brascamp-Lieb gap checks, admissibility, and the equivalence scan."""

import math

import numpy as np
import pytest

from epiconv import (
    AdmissibilityParams,
    BBLParams,
    EpigraphDomain,
    ExtGridFn,
    QuadSpec,
    admissibility_report,
    appendix_limit_residual,
    bbl_gap,
    bump_field,
    derived_gap,
    equivalence_scan,
    halfspace,
    multiply_bump,
    norm_cone,
    normalize_power_cost,
    paraboloid,
    power_cost_field,
    quadratic_field,
    sample_grid,
    shifted_field,
    NormSpec,
)
from epiconv.bblcheck import _normalize_grid
from epiconv.quadrature import integrate_boundary, integrate_gridfn
from epiconv.bblcheck import _boundary_integrand, _grid_tail_K, _sample_fan
from oracles import grid_tail_K_reference

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

    def test_h_t_crosscheck(self):
        BBLParams(n=2, a=2.0, h=1.0, t=0.5)
        with pytest.raises(ValueError, match="t/\\(1-t\\)"):
            BBLParams(n=2, a=2.0, h=1.0, t=0.3)


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
        base = bbl_gap(gg, WW, params, estimate=False)
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


class TestAdmissibility:
    def test_power_cost_passes_c1_c2(self, halfplane):
        W = power_cost_field(1.6, 3.0, NormSpec("euclidean"))
        g = shifted_field(W, E2)
        adm = AdmissibilityParams(gamma=3.0)
        rep = admissibility_report(g, W, adm, BBLParams(n=2, a=2.0, p=1.5), halfplane)
        assert rep.get("C1").passed and rep.get("C2").passed
        assert rep.get("C0").passed

    def test_shifted_power_passes_c3_c4_with_fitted_constants(self, halfplane):
        W = power_cost_field(1.6, 3.0, NormSpec("euclidean"))
        g = shifted_field(W, E2)
        adm = AdmissibilityParams(gamma=3.0)
        rep = admissibility_report(g, W, adm, BBLParams(n=2, a=2.0, p=1.5), halfplane)
        c1, c2 = rep.get("C1"), rep.get("C2")
        c3, c4 = rep.get("C3"), rep.get("C4")
        assert c3.passed and c3.fitted > 0
        assert c4.passed and np.isfinite(c4.fitted)
        # re-verify with the fitted constants enforced
        adm2 = AdmissibilityParams(
            gamma=3.0,
            A1=c1.fitted * 0.99,
            A2=c2.fitted * 1.01,
            A3=c3.fitted * 0.99,
            A4=c4.fitted * 1.01,
        )
        rep2 = admissibility_report(
            g, W, adm2, BBLParams(n=2, a=2.0, p=1.5), halfplane, fit_constants=False
        )
        assert rep2.get("C1").passed and rep2.get("C2").passed
        assert rep2.get("C3").passed and rep2.get("C4").passed

    def test_growth_condition_dichotomy(self, halfplane, unit_cone):
        W = power_cost_field(1.6, 3.0, NormSpec("euclidean"))
        g = shifted_field(W, E2)
        params = BBLParams(n=2, a=2.0, p=1.5)
        adm = AdmissibilityParams(gamma=3.0, growth_C=1.0)
        cone_rep = admissibility_report(g, W, adm, params, unit_cone)
        assert cone_rep.get("phi_growth").passed
        assert cone_rep.get("phi_growth").fitted <= 1.0 + 1e-9
        par_rep = admissibility_report(g, W, adm, params, paraboloid(2))
        growth = par_rep.get("phi_growth")
        assert not growth.passed
        assert growth.fitted == pytest.approx(2.0, abs=1e-2)
        assert np.isfinite(growth.fitted)
        assert growth.worst_point is not None

    def test_c0_violation_detected(self, halfplane):
        W = power_cost_field(1.6, 3.0, NormSpec("euclidean"))
        g = shifted_field(W, E2)
        adm = AdmissibilityParams(gamma=2.5)
        rep = admissibility_report(g, W, adm, BBLParams(n=2, a=3.0, p=1.5), halfplane)
        assert not rep.get("C0").passed
        assert not rep.admissible


def quadratic_grid(L, m, offset=1.0, curvature=0.5):
    xs = np.linspace(-L, L, m)
    mesh = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
    return ExtGridFn([(-L, L)] * 2, offset + 0.5 * curvature * np.sum(mesh**2, axis=-1))


@pytest.fixture(scope="module")
def scans():
    quad = quadratic_field(offset=1.0, curvature=0.5)
    g = quadratic_grid(10.0, 161)
    same = equivalence_scan(g, g, 2, [0.0, 0.05, 0.1, 0.25, 0.5], W_conjugate=quad.conjugate)
    xs = np.linspace(-8, 8, 81)
    mesh = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
    pert_vals = quad(mesh) * (1 + 0.3 * bump_field([1.0, 0.5], 2.0, 1.0)(mesh))
    gp = ExtGridFn([(-8, 8)] * 2, pert_vals)
    Wp = ExtGridFn([(-8, 8)] * 2, quad(mesh))
    pert = equivalence_scan(gp, Wp, 2, [0.0, 0.05, 0.1], W_conjugate=quad.conjugate)
    return same, pert


class TestEquivalenceScan:

    def test_phi_zero_is_one(self, scans):
        same, pert = scans
        assert same.phi_values[0] == pytest.approx(1.0, abs=1e-12)
        assert pert.phi_values[0] == pytest.approx(1.0, abs=1e-12)

    def test_curve_stays_above_one(self, scans):
        same, pert = scans
        for scan in scans:
            assert all(p >= 1.0 - scan.error_estimate for p in scan.phi_values)

    def test_statement_b_quantity_nonnegative(self, scans):
        same, _ = scans
        assert same.integral_derivative >= -same.derivative_error_estimate

    def test_fd_matches_integral(self, scans):
        for scan in scans:
            dev = abs(scan.fd_derivative - scan.integral_derivative)
            assert dev <= max(
                0.05 * abs(scan.integral_derivative), scan.derivative_error_estimate
            )


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
