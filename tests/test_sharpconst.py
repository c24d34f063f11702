"""Sharp-constant assembly and the trace inequality checks."""

import math

import numpy as np
import pytest

from epiconv import (
    BBLParams,
    DomainRejectionError,
    NormSpec,
    QuadSpec,
    affine_max,
    approx_family,
    bump_field,
    extremal_f,
    gns_constants,
    gradient_norm_claim_check,
    halfspace,
    i_alpha,
    norm_cone,
    normalize_power_cost,
    paraboloid,
    trace_gn_check,
    weighted_trace_check,
    young_equality_residual,
)
from oracles import (
    halfplane_moment,
    halfspace3_moment,
    polar_cone_moment,
    sharp_constants_json_reference,
)

E2 = np.array([0.0, 1.0])


@pytest.fixture(scope="module")
def hp_constants(halfplane, euclid, fine_quad):
    return gns_constants(BBLParams(n=2, a=2.0, p=1.5), halfplane, euclid, fine_quad)


class TestIAlpha:
    def test_halfplane_values(self, halfplane, euclid):
        spec = QuadSpec(half_width=6.0, dx=0.025, levels=5)
        for alpha in (4.0, 6.0):
            val, err = i_alpha(halfplane, euclid, alpha, spec)
            exact = halfplane_moment(alpha)
            assert abs(val - exact) <= max(err, 5e-3 * exact)

    def test_divergent_rejected(self, halfplane, euclid, mid_quad):
        with pytest.raises(ValueError, match="diverges"):
            i_alpha(halfplane, euclid, 2.0, mid_quad)

    def test_monotone_in_alpha(self, halfplane, euclid, mid_quad):
        vals = [i_alpha(halfplane, euclid, alpha, mid_quad)[0] for alpha in (3.5, 4.5, 6.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_cone_smaller_than_halfplane(self, halfplane, unit_cone, euclid, mid_quad):
        v_cone, _ = i_alpha(unit_cone, euclid, 4.0, mid_quad)
        v_half, _ = i_alpha(halfplane, euclid, 4.0, mid_quad)
        assert v_cone < v_half

    def test_cone_polar_oracle(self, euclid, mid_quad):
        dom = norm_cone(2, 0.6)
        val, err = i_alpha(dom, euclid, 5.0, mid_quad)
        exact = polar_cone_moment(5.0, lambda c: 0.6 * np.abs(c))
        assert abs(val - exact) / exact < 6e-3


class TestNormalizePowerCost:
    def test_halfplane_p15_a2(self, halfplane, euclid, fine_quad):
        C, residual = normalize_power_cost(halfplane, euclid, 3.0, 2.0, fine_quad, return_check=True)
        exact = 3.0 * math.sqrt(3 * math.pi / 32)
        assert C == pytest.approx(exact, rel=2e-3)
        assert residual <= 0.01

    def test_monotone_in_aperture(self, halfplane, euclid, mid_quad):
        # wider cone -> larger moment -> larger C
        Cs = []
        for slope in (1.0, 0.5):
            Cs.append(normalize_power_cost(norm_cone(2, slope), euclid, 3.0, 2.0, mid_quad))
        Chalf = normalize_power_cost(halfplane, euclid, 3.0, 2.0, mid_quad)
        assert Cs[0] < Cs[1] < Chalf


class TestConstants:
    def test_halfplane_exact_values(self, hp_constants):
        cst = hp_constants
        # for p = 3/2 and a = n = 2 the Young constant collapses to 1/2
        assert cst.D == pytest.approx(0.5, rel=2e-3)
        assert cst.theta == 1.0
        assert cst.q_trace == pytest.approx(3.0)
        assert cst.u == pytest.approx(2.0) and cst.v == pytest.approx(2.0)

    def test_identities_hold_to_1e12(self, hp_constants):
        cst = hp_constants
        assert abs(1 / cst.u + 1 / cst.v - 1.0) <= 1e-12
        assert abs(cst.theta - (cst.a - cst.p) / (cst.p * (cst.a - cst.n - 1) + cst.n)) <= 1e-12
        assert abs(cst.D - cst.A**cst.u / ((cst.B * cst.v) ** (cst.u - 1) * cst.u)) <= 1e-12 * cst.D
        assert 0.0 < cst.theta <= 1.0

    def test_b_two_routes_agree(self, hp_constants):
        assert abs(hp_constants.B - hp_constants.B_identity) <= 0.01 * hp_constants.B

    def test_to_json_matches_field_list(self, hp_constants):
        # the bundle's JSON is derived from its dataclass fields; it carries
        # the same keys and values as the hand-written list it replaced
        got = hp_constants.to_json()
        ref = sharp_constants_json_reference(hp_constants)
        assert sorted(got) == sorted(ref)
        assert all(got[k] == ref[k] and type(got[k]) is type(ref[k]) for k in ref)

    def test_arithmetic_bundle_n3(self, euclid):
        dom3 = halfspace(3)
        spec3 = QuadSpec(half_width=3.0, dx=0.1, levels=3)
        cst = gns_constants(BBLParams(n=3, a=4.0, p=2.0), dom3, euclid, spec3)
        assert cst.theta == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert cst.q_trace == pytest.approx(3.0, abs=1e-12)
        assert cst.u == pytest.approx(1.5) and cst.v == pytest.approx(3.0)
        assert abs(cst.B - cst.B_identity) <= 0.015 * cst.B

    def test_hypotheses_rejected(self, halfplane, euclid, mid_quad):
        with pytest.raises(ValueError, match="need p"):
            gns_constants(BBLParams(n=2, a=2.0), halfplane, euclid, mid_quad)

    def test_lambda_star_is_one_for_extremal(self, unit_cone, euclid, mid_quad):
        cst = gns_constants(BBLParams(n=2, a=2.5, p=1.5), unit_cone, euclid, mid_quad)
        assert cst.lambda_star == pytest.approx(1.0, abs=0.02)

    def test_dnpa_reduces_to_D_at_a_eq_n(self, hp_constants):
        assert hp_constants.D_npa == hp_constants.D
        assert hp_constants.trace_constant == pytest.approx(
            hp_constants.D ** (1 / 3), rel=1e-12
        )


class TestExtremal:
    def test_plugin_exponent(self, euclid):
        spec = extremal_f(BBLParams(n=3, a=3.0, p=2.0), euclid)
        assert spec.exponent == -1.0
        f = spec.field()
        x = np.array([[1.0, 2.0, 1.0]])
        assert f(x)[0] == pytest.approx(1.0 / np.linalg.norm([1.0, 2.0, 2.0]))

    def test_gradient_against_finite_differences(self, euclid):
        f = extremal_f(BBLParams(n=2, a=2.0, p=1.5), euclid).field()
        rng = np.random.default_rng(0)
        pts = rng.uniform([-2, 0.1], [2, 3], size=(100, 2))
        grad = f.gradient(pts)
        step = 1e-5 * (1 + np.linalg.norm(pts, axis=1))
        for d in range(2):
            e = np.zeros(2)
            e[d] = 1.0
            fd = (f(pts + step[:, None] * e) - f(pts - step[:, None] * e)) / (2 * step)
            rel = np.abs(fd - grad[:, d]) / np.maximum(np.abs(grad[:, d]), 1e-8)
            assert rel.max() <= 1e-5

    def test_gradient_integral_identity(self, halfplane, euclid, fine_quad):
        # int ||grad f||_*^p = ((a-p)/(p-1))^p I_{p(a-1)/(p-1)}
        params = BBLParams(n=2, a=2.0, p=1.5)
        f = extremal_f(params, euclid).field()
        from epiconv import integrate_epigraph
        from epiconv.transforms import dual_norm

        got, _ = integrate_epigraph(
            lambda x: dual_norm(euclid, f.gradient(x)) ** 1.5,
            halfplane, fine_quad, decay=3.0,
        )
        want = 1.0 ** 1.5 * halfplane_moment(3.0)
        assert got == pytest.approx(want, rel=6e-3)


class TestGradientNormClaim:
    def test_euclidean_quadratic(self, euclid):
        assert gradient_norm_claim_check(2.0, euclid, sample_count=100) <= 1e-6

    def test_p3_negative_power(self):
        res = gradient_norm_claim_check(-1.0, NormSpec("p_norm", p=3), sample_count=150)
        assert res <= 1e-5

    def test_gamma_one_unit_dual(self, euclid):
        assert gradient_norm_claim_check(1.0, euclid, sample_count=100) <= 1e-6


class TestTraceGN:
    def test_extremal_halfplane(self, halfplane, euclid, fine_quad, hp_constants):
        rep = trace_gn_check(
            extremal_f(BBLParams(n=2, a=2.0, p=1.5), euclid),
            BBLParams(n=2, a=2.0, p=1.5), halfplane, euclid, fine_quad,
            constants=hp_constants,
        )
        assert abs(rep.ratio - 1.0) <= 0.02
        assert abs(rep.ratio - 1.0) <= rep.quadrature_error + 0.01

    def test_extremal_cone(self, unit_cone, euclid, mid_quad):
        params = BBLParams(n=2, a=2.5, p=1.5)
        rep = trace_gn_check(extremal_f(params, euclid), params, unit_cone, euclid, mid_quad)
        assert abs(rep.ratio - 1.0) <= 0.02

    def test_bump_below_one(self, unit_cone, euclid, mid_quad):
        params = BBLParams(n=2, a=2.5, p=1.5)
        bump = bump_field([0.0, 0.9], radius=1.0, amplitude=1.0)
        rep = trace_gn_check(bump, params, unit_cone, euclid, mid_quad)
        assert rep.ratio < 1.0

    def test_scaling_invariance_on_cone(self, unit_cone, euclid, mid_quad):
        params = BBLParams(n=2, a=2.5, p=1.5)
        cst = gns_constants(params, unit_cone, euclid, mid_quad)
        base = bump_field([0.0, 1.0], radius=1.0, amplitude=1.0)
        ratios = []
        for lam in (0.5, 1.0, 2.0):
            from epiconv.fields import ScalarField

            f_lam = ScalarField(
                lambda x, l=lam: base(np.asarray(x, dtype=float) * l),
                lambda x, l=lam: l * base.gradient(np.asarray(x, dtype=float) * l),
            )
            rep = trace_gn_check(f_lam, params, unit_cone, euclid, mid_quad, constants=cst)
            ratios.append(rep.ratio)
        assert max(ratios) - min(ratios) <= 0.02

    def test_non_cone_rejected(self, euclid, mid_quad):
        params = BBLParams(n=2, a=2.0, p=1.5)
        with pytest.raises(DomainRejectionError, match="cone"):
            trace_gn_check(
                extremal_f(params, euclid), params, paraboloid(2), euclid, mid_quad
            )

    def test_beta_recorded(self, halfplane, euclid, fine_quad, hp_constants):
        params = BBLParams(n=2, a=2.0, p=1.5)
        rep = trace_gn_check(
            extremal_f(params, euclid), params, halfplane, euclid, fine_quad,
            constants=hp_constants,
        )
        want = halfplane_moment(6.0) ** ((2.0 - 1.5) / (2.0 * 1.5))
        assert rep.beta == pytest.approx(want, rel=5e-3)


class TestWeightedTrace:
    def test_halfspace_reduces_to_unweighted(self, halfplane, euclid, fine_quad):
        params = BBLParams(n=2, a=2.0, p=1.5)
        rep = weighted_trace_check(
            extremal_f(params, euclid), params, halfplane, euclid, fine_quad
        )
        assert abs(rep.ratio - 1.0) <= 0.02

    def test_affine_max_extremal_and_bump(self, euclid, mid_quad):
        dom = affine_max([[0.5], [-1.0]])
        params = BBLParams(n=2, a=2.0, p=4 / 3)
        cst = gns_constants(params, dom, euclid, mid_quad)
        rep = weighted_trace_check(
            extremal_f(params, euclid), params, dom, euclid, mid_quad, constants=cst
        )
        assert abs(rep.ratio - 1.0) <= 0.02
        bump = bump_field([0.0, 0.6], radius=0.9, amplitude=1.0)
        rep2 = weighted_trace_check(bump, params, dom, euclid, mid_quad, constants=cst)
        assert rep2.ratio <= 1.0 + rep2.quadrature_error

    def test_paraboloid_rejected_with_witness(self, euclid, mid_quad):
        params = BBLParams(n=2, a=2.0, p=4 / 3)
        with pytest.raises(DomainRejectionError) as err:
            weighted_trace_check(
                extremal_f(params, euclid), params, paraboloid(2), euclid, mid_quad
            )
        assert err.value.fitted == pytest.approx(2.0, abs=0.01)
        assert err.value.witness is not None

    def test_relaxed_budget_admits_paraboloid(self, euclid):
        spec = QuadSpec(half_width=4.0, dx=0.05, levels=4)
        params = BBLParams(n=2, a=2.0, p=4 / 3)
        rep = weighted_trace_check(
            extremal_f(params, euclid), params, paraboloid(2), euclid, spec,
            growth_C=2.5,
        )
        assert rep.ratio <= 1.0 + max(rep.quadrature_error, 0.05)

    def test_cone_matches_unweighted_at_a_eq_n(self, unit_cone, euclid, mid_quad):
        params = BBLParams(n=2, a=2.0, p=1.5)
        cst = gns_constants(params, unit_cone, euclid, mid_quad)
        ext = extremal_f(params, euclid)
        w = weighted_trace_check(ext, params, unit_cone, euclid, mid_quad, constants=cst)
        t = trace_gn_check(ext, params, unit_cone, euclid, mid_quad, constants=cst)
        # P is 1 on the cone and the (a - n) term vanishes, so both forms
        # saturate; the power form is the q-th power of the norm form
        assert w.ratio == pytest.approx(1.0, abs=0.03)
        assert t.ratio == pytest.approx(1.0, abs=0.02)


class TestYoungEquality:
    def test_extremal_residual_small(self, halfplane, euclid, fine_quad, hp_constants):
        res, lhs, rhs, iroute = young_equality_residual(
            extremal_f(BBLParams(n=2, a=2.0, p=1.5), euclid),
            hp_constants, halfplane, euclid, fine_quad,
        )
        assert res <= 0.02
        assert abs(rhs - iroute) <= 0.01 * abs(rhs)

    def test_bump_residual_positive(self, halfplane, euclid, mid_quad):
        params = BBLParams(n=2, a=2.0, p=1.5)
        cst = gns_constants(params, halfplane, euclid, mid_quad)
        bump = bump_field([0.0, 0.8], radius=1.0, amplitude=1.0)
        res, _, _, _ = young_equality_residual(bump, cst, halfplane, euclid, mid_quad)
        assert res > 0.05


@pytest.fixture(scope="module")
def normalized_bump(halfplane, mid_quad):
    params = BBLParams(n=2, a=2.0, p=4 / 3)
    power = params.a * params.p / (params.a - params.p)
    raw = bump_field([0.0, 1.2], radius=1.0, amplitude=1.0)
    from epiconv import integrate_epigraph

    mass, _ = integrate_epigraph(lambda x: raw(x) ** power, halfplane, mid_quad)
    return raw.scaled(mass ** (-1.0 / power)), params


class TestApproxFamily:

    def test_eps_zero_identity(self, normalized_bump, halfplane, mid_quad):
        f, params = normalized_bump
        _, C0 = approx_family(f, 0.0, params, halfplane, mid_quad, gamma=3.5)
        assert C0 == 1.0

    def test_c_eps_increases_to_one(self, normalized_bump, halfplane, mid_quad):
        f, params = normalized_bump
        cs = [
            approx_family(f, eps, params, halfplane, mid_quad, gamma=3.5)[1]
            for eps in (0.1, 0.05, 0.01)
        ]
        assert cs[0] < cs[1] < cs[2] < 1.0

    def test_unit_mass_enforced(self, normalized_bump, halfplane, mid_quad):
        from epiconv import integrate_epigraph

        f, params = normalized_bump
        power = params.a * params.p / (params.a - params.p)
        feps, _ = approx_family(f, 0.05, params, halfplane, mid_quad, gamma=3.5)
        mass, _ = integrate_epigraph(lambda x: feps(x) ** power, halfplane, mid_quad)
        assert mass == pytest.approx(1.0, abs=1e-5)

    def test_eps_too_large_rejected(self, normalized_bump, halfplane, mid_quad):
        f, params = normalized_bump
        with pytest.raises(ValueError, match="too large"):
            approx_family(f, 50.0, params, halfplane, mid_quad, gamma=3.5)

    def test_family_passes_c3_c4(self, normalized_bump, halfplane, mid_quad):
        from epiconv import AdmissibilityParams, admissibility_report
        from epiconv.fields import ScalarField, power_cost_field

        f, params = normalized_bump
        gamma = 3.5
        feps, _ = approx_family(f, 0.05, params, halfplane, mid_quad, gamma=gamma)
        expo = params.p / (params.p - params.a)

        geps = ScalarField(lambda x: feps(x) ** expo, name="g_eps")
        W = power_cost_field(1.6, 4.0, NormSpec("euclidean"))
        rep = admissibility_report(
            geps, W, AdmissibilityParams(gamma=gamma),
            params, halfplane,
        )
        assert rep.get("C3").passed and rep.get("C3").fitted > 0
        assert rep.get("C4").passed and np.isfinite(rep.get("C4").fitted)

    def test_bisection_integrates_each_mass_once(
        self, normalized_bump, halfplane, mid_quad, monkeypatch
    ):
        import epiconv.sharpconst as sc

        f, params = normalized_bump
        masses = []
        integrate = sc.integrate_epigraph

        def counting(*args, **kwargs):
            out = integrate(*args, **kwargs)
            masses.append(out[0])
            return out

        monkeypatch.setattr(sc, "integrate_epigraph", counting)
        _, ceps = approx_family(f, 0.05, params, halfplane, mid_quad, gamma=3.5)
        # mass(0), the bracket doublings and one call per bisection step,
        # each at a different normalizer
        assert 3 <= len(masses) == len(set(masses))
        assert 0.0 < ceps < 1.0

    def test_grid_samples_returned(self, normalized_bump, halfplane, mid_quad):
        f, params = normalized_bump
        feps, ceps, grid = approx_family(
            f, 0.05, params, halfplane, mid_quad, gamma=3.5,
            grid_box=[(-2, 2), (0, 3)], grid_resolution=[21, 16],
        )
        assert grid.finite_mask.sum() > 0
        node = np.array([grid.axes[0][10], grid.axes[1][5]])
        assert grid.values[10, 5] == pytest.approx(float(feps(node[None, :])[0]))


def test_i_alpha_3d_oracle(euclid):
    dom3 = halfspace(3)
    spec3 = QuadSpec(half_width=3.0, dx=0.075, levels=3)
    val, err = i_alpha(dom3, euclid, 6.0, spec3)
    assert abs(val - halfspace3_moment(6.0)) / halfspace3_moment(6.0) <= 0.01
