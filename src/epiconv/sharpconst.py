"""Sharp trace constants for Gagliardo-Nirenberg-Sobolev inequalities on cones.

The chain runs: moment integrals I_alpha = int_Omega ||x+e||^(-alpha) feed the
power-cost normalization C = q * I_{qa}^(1/a); the differentiated inequality
with W = C||x||^q/q is tightened by Young's inequality with exponents
u = (a-1)/(a-p), v = (a-1)/(p-1), producing

    A = C^(1-p) (a-1)/p (p/(a-p))^p,   B = int_{Omega_1} W^(1-a),
    D = A^u / ((B v)^(u-1) u),

and, for a > n, a scaling optimization in lambda whose closed-form optimum
assembles the final constant. The extremal f(x) = ||x+e||^(-(a-p)/(p-1))
saturates every link of the chain, which is what the trace checks verify.

D_npa is stored for the q-power form of the inequality (so D_npa = D when
a = n); the norm-form constant multiplying ||grad f||^theta ||f||^(1-theta)
is D_npa^(1/q_trace), stored as trace_constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .bblcheck import BBLParams, _boundary_growth, _boundary_integrand, _cost_integral
from .extgrid import EpigraphDomain, _euclidean_norm, _unit_e, sample_grid
from .fields import ScalarField, power_cost_field
from .quadrature import QuadSpec, integrate_boundary, integrate_epigraph
from .transforms import NormSpec, dual_norm

__all__ = [
    "SharpConstants",
    "ExtremalSpec",
    "TraceReport",
    "DomainRejectionError",
    "i_alpha",
    "normalize_power_cost",
    "gns_constants",
    "extremal_f",
    "gradient_norm_claim_check",
    "trace_gn_check",
    "weighted_trace_check",
    "young_equality_residual",
    "approx_family",
]


class DomainRejectionError(ValueError):
    """Raised when a domain fails the growth-condition gate; carries the witness."""

    def __init__(self, message: str, witness=None, fitted: float | None = None):
        super().__init__(message)
        self.witness = witness
        self.fitted = fitted


@dataclass
class SharpConstants:
    n: int
    p: float
    a: float
    C: float
    A: float
    B: float
    u: float
    v: float
    D: float
    theta: float
    q_trace: float
    lambda_star: float
    D_npa: float
    trace_constant: float
    B_identity: float
    error_rel: float = 0.0
    i_values: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "i_values"}


@dataclass
class ExtremalSpec:
    """f(x) = ||x + e||^exponent with exponent = -(a-p)/(p-1) < 0."""

    exponent: float
    norm: NormSpec
    n: int

    @property
    def e(self) -> np.ndarray:
        return _unit_e(self.n)

    def field(self) -> ScalarField:
        gamma = self.exponent
        norm = self.norm
        e = self.e

        def fn(x):
            return norm(np.asarray(x, dtype=float) + e) ** gamma

        def grad(x):
            z = np.asarray(x, dtype=float) + e
            r = norm(z)
            return gamma * r[..., None] ** (gamma - 1.0) * norm.grad(z)

        return ScalarField(fn, grad, decay=-gamma, name=f"extremal(gamma={gamma:g})")


@dataclass
class TraceReport:
    lhs_boundary: float
    rhs_value: float
    beta: float
    ratio: float
    quadrature_error: float
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "lhs": self.lhs_boundary,
            "rhs": self.rhs_value,
            "beta": self.beta,
            "ratio": self.ratio,
            "error": self.quadrature_error,
        }
        out.update({k: v for k, v in self.details.items() if np.isscalar(v)})
        return out


def i_alpha(
    domain: EpigraphDomain,
    norm: NormSpec,
    alpha: float,
    spec: QuadSpec,
):
    """Moment integral int_Omega ||x + e||^(-alpha) dx with its error budget.

    Graded trapezoid plus the analytic power-tail bound; alpha <= n diverges
    and is rejected. Returns (value, error_estimate); the estimate combines
    the half-spacing refinement difference with the tail bound.
    """
    if not alpha > domain.n:
        raise ValueError(f"i_alpha diverges for alpha={alpha} <= n={domain.n}")
    e = domain.e

    def fn(p):
        return norm(np.asarray(p, dtype=float) + e) ** (-alpha)

    val, err, _tail = integrate_epigraph(fn, domain, spec, decay=alpha, estimate=True)
    return val, err


def _power_cost_constant(I_qa: float, q: float, a: float) -> float:
    """C = q * I_{qa}^(1/a), the scale with int_{Omega_1} (C ||x||^q / q)^(-a) = 1."""
    if not np.isfinite(I_qa) or I_qa <= 0:
        raise ValueError(f"divergent or invalid moment integral: {I_qa}")
    return q * I_qa ** (1.0 / a)


def normalize_power_cost(
    domain: EpigraphDomain,
    norm: NormSpec,
    q: float,
    a: float,
    spec: QuadSpec,
    return_check: bool = False,
):
    """C with int_{Omega_1} (C ||x||^q / q)^(-a) = 1, via C = q * I_{qa}^(1/a).

    The direct quadrature of the normalized cost over the shifted domain is
    the independent route; its deviation from 1 is returned on request and
    a gross disagreement (beyond 2%) raises.
    """
    C, residual = _normalize_power_cost(
        domain, norm, q, a, spec, lambda alpha: i_alpha(domain, norm, alpha, spec)
    )
    if return_check:
        return C, residual
    return C


def _normalize_power_cost(domain, norm, q, a, spec, moment):
    """(C, residual) of :func:`normalize_power_cost`; ``moment(alpha)`` gives
    (I_alpha, error) on ``spec``."""
    if not (q > 1 and a > 0):
        raise ValueError("need q > 1 and a > 0")
    C = _power_cost_constant(moment(q * a)[0], q, a)
    W = power_cost_field(C, q, norm)
    direct, _tail = _cost_integral(W, -a, domain, spec, q * a)
    residual = abs(direct - 1.0)
    if residual > 0.02:
        raise ValueError(
            f"normalization cross-check failed: direct integral {direct:.4f} != 1"
        )
    return C, residual


def gns_constants(
    params: BBLParams,
    domain: EpigraphDomain,
    norm: NormSpec,
    spec: QuadSpec,
) -> SharpConstants:
    """Assemble the full constant bundle for (n, p, a) on the given domain.

    B is computed twice, by direct quadrature of W^(1-a) over the shifted
    domain and by the moment identity I_{qa}^((1-a)/a) * I_{q(a-1)}; the
    direct route feeds the constants, the identity route is kept for
    cross-checks. For a > n the scaling optimum lambda* is evaluated on the
    extremal function and is 1 in exact arithmetic.
    """
    return _gns_constants(
        params, domain, norm, spec, lambda alpha: i_alpha(domain, norm, alpha, spec)
    )


def _gns_constants(params, domain, norm, spec, moment) -> SharpConstants:
    """:func:`gns_constants` with ``moment(alpha)`` giving (I_alpha, error)
    on ``spec``."""
    n, a, p = params.n, params.a, params.p
    if p is None:
        raise ValueError("constants need p")
    q = params.q
    I_qa, e_qa = moment(q * a)
    I_qa1, e_qa1 = moment(q * (a - 1.0))
    C = _power_cost_constant(I_qa, q, a)
    A = C ** (1.0 - p) * (a - 1.0) / p * (p / (a - p)) ** p
    W = power_cost_field(C, q, norm)
    B, eB, _ = _cost_integral(W, 1.0 - a, domain, spec, q * (a - 1.0), estimate=True)
    B_identity = I_qa ** ((1.0 - a) / a) * I_qa1

    u = (a - 1.0) / (a - p)
    v = (a - 1.0) / (p - 1.0)
    D = A**u / ((B * v) ** (u - 1.0) * u)
    theta = (a - p) / (p * (a - n - 1.0) + n)
    q_trace = params.q_trace

    ext = extremal_f(params, norm)
    f = ext.field()
    if a > n:
        s = (a - n) * (p - 1.0) / (a - p)
        D_npa = (1.0 + s) * s ** (-s / (1.0 + s)) * D ** (1.0 / (1.0 + s)) * (a - n) ** (
            s / (1.0 + s)
        )
        K1 = _gradient_integral(f, norm, p, domain, spec)[0] ** u
        K2, _ = _field_integral(f, q_trace, domain, spec)
        lambda_star = ((a - n) * K2 / (s * D * K1)) ** (1.0 / (s + 1.0))
    else:
        D_npa = D
        lambda_star = 1.0
    trace_constant = D_npa ** (1.0 / q_trace)

    rel = (
        e_qa / max(I_qa, 1e-300)
        + e_qa1 / max(I_qa1, 1e-300)
        + eB / max(abs(B), 1e-300)
    )
    return SharpConstants(
        n=n, p=p, a=a, C=C, A=A, B=B, u=u, v=v, D=D, theta=theta, q_trace=q_trace,
        lambda_star=lambda_star, D_npa=D_npa, trace_constant=trace_constant,
        B_identity=B_identity, error_rel=rel,
        i_values={"qa": I_qa, "q(a-1)": I_qa1},
    )


def extremal_f(params: BBLParams, norm: NormSpec) -> ExtremalSpec:
    """The saturating profile ||x+e||^(-(a-p)/(p-1))."""
    a, p = params.a, params.p
    if p is None or not a > p:
        raise ValueError("extremal needs a > p > 1")
    return ExtremalSpec(exponent=-(a - p) / (p - 1.0), norm=norm, n=params.n)


def gradient_norm_claim_check(
    gamma: float,
    norm: NormSpec,
    sample_count: int = 200,
) -> float:
    """Max residual of ||grad(||x||^gamma)||_* = |gamma| ||x||^(gamma-1).

    The gradient side is taken by central finite differences of the scalar
    map (step 1e-6 * (1 + |x_d|)), its dual norm by the closed-form dual;
    samples, drawn from a generator seeded with 0, that lie too close to a
    non-differentiability of the norm are redrawn.
    """
    rng = np.random.default_rng(0)
    n = 2
    worst = 0.0
    count = 0
    while count < sample_count:
        x = rng.uniform(-2.0, 2.0, size=n)
        r = float(norm(x))
        if r < 0.3 or (norm.kind == "p_norm" and norm.p in (1.0, np.inf) and np.min(np.abs(x)) < 0.05):
            continue
        count += 1
        grad = np.zeros(n)
        for d in range(n):
            ed = np.zeros(n)
            ed[d] = 1e-6 * (1.0 + abs(x[d]))
            grad[d] = (norm(x + ed) ** gamma - norm(x - ed) ** gamma) / (2.0 * ed[d])
        lhs = dual_norm(norm, grad)
        rhs = abs(gamma) * r ** (gamma - 1.0)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-12))
    return worst


def _gradient_integral(
    f: ScalarField, norm: NormSpec, p: float, domain: EpigraphDomain, spec: QuadSpec,
    estimate: bool = False,
):
    """int_Omega ||grad f||_*^p, tail decay (f.decay + 1) p, as
    :func:`integrate_epigraph` returns it."""
    return integrate_epigraph(
        lambda x: dual_norm(norm, f.gradient(x)) ** p, domain, spec,
        decay=((f.decay + 1.0) * p if f.decay else None), estimate=estimate,
    )


def _field_integral(
    f: ScalarField, expo: float, domain: EpigraphDomain, spec: QuadSpec,
    estimate: bool = False,
):
    """int_Omega f^expo, tail decay f.decay * expo, as
    :func:`integrate_epigraph` returns it."""
    return integrate_epigraph(
        lambda x: f(x) ** expo, domain, spec,
        decay=(f.decay * expo if f.decay else None), estimate=estimate,
    )


def _trace_integrals(
    f: ScalarField,
    params: BBLParams,
    domain: EpigraphDomain,
    norm: NormSpec,
    spec: QuadSpec,
    weighted: bool,
):
    a, p = params.a, params.p
    qt = params.q_trace
    bdry, e_b, _ = integrate_boundary(
        _boundary_integrand(f, domain, qt, weighted), domain.n - 1, spec,
        decay=(f.decay * qt if f.decay else None), estimate=True,
    )
    grad_term, e_g, _ = _gradient_integral(f, norm, p, domain, spec, estimate=True)
    fq_term, e_q, _ = _field_integral(f, qt, domain, spec, estimate=True)
    beta_int, e_beta, _ = _field_integral(f, a * p / (a - p), domain, spec, estimate=True)
    beta = beta_int ** ((a - p) / (a * p))
    rels = {
        "bdry": e_b / max(abs(bdry), 1e-300),
        "grad": e_g / max(grad_term, 1e-300),
        "fq": e_q / max(fq_term, 1e-300),
        "beta": e_beta / max(beta_int, 1e-300),
    }
    return bdry, grad_term, fq_term, beta, rels


def _resolve_constants(constants, params, domain, norm, spec) -> SharpConstants:
    """The bundle a trace check was given, fetched from it when it is a
    callable, computed when there is none."""
    if constants is None:
        return gns_constants(params, domain, norm, spec)
    if callable(constants):
        return constants()
    return constants


def trace_gn_check(
    f: ScalarField | ExtremalSpec,
    params: BBLParams,
    domain: EpigraphDomain,
    norm: NormSpec,
    spec: QuadSpec,
    constants: SharpConstants | Callable[[], SharpConstants] | None = None,
) -> TraceReport:
    """Trace inequality on a convex cone, in Theorem form:

        (int_bdry f^q_trace)^(1/q_trace) <= const * ||grad f||_p^theta * ||f||_q^(1-theta).

    ratio = lhs/rhs is 1 for the extremal up to the reported quadrature error
    and below 1 otherwise. Non-cone domains are rejected; the weighted check
    handles those. ``constants`` may be a zero-argument callable, called only
    for a domain that passes the gate.
    """
    from .extgrid import is_cone as cone_check

    chk = cone_check(domain, sample_count=200, tol=1e-7)
    if not chk.is_cone:
        raise DomainRejectionError(
            f"trace_gn_check needs a convex cone; witness {chk.witness}",
            witness=chk.witness,
        )
    if isinstance(f, ExtremalSpec):
        f = f.field()
    constants = _resolve_constants(constants, params, domain, norm, spec)
    theta, qt, p = constants.theta, constants.q_trace, params.p

    bdry, grad_term, fq_term, beta, rels = _trace_integrals(
        f, params, domain, norm, spec, weighted=False
    )
    lhs = bdry ** (1.0 / qt)
    rhs = (
        constants.trace_constant
        * grad_term ** (theta / p)
        * fq_term ** ((1.0 - theta) / qt)
    )
    ratio = lhs / rhs
    rel_err = (
        rels["bdry"] / qt
        + rels["grad"] * theta / p
        + rels["fq"] * (1.0 - theta) / qt
        + constants.error_rel
    )
    return TraceReport(
        lhs_boundary=lhs,
        rhs_value=rhs,
        beta=beta,
        ratio=ratio,
        quadrature_error=ratio * rel_err,
        details={"grad_term": grad_term, "fq_term": fq_term, "rels": rels},
    )


def weighted_trace_check(
    f: ScalarField | ExtremalSpec,
    params: BBLParams,
    domain: EpigraphDomain,
    norm: NormSpec,
    spec: QuadSpec,
    constants: SharpConstants | Callable[[], SharpConstants] | None = None,
    growth_C: float = 1.0,
) -> TraceReport:
    """Weighted trace inequality on a convex epigraph, power form:

        int f^q_trace(x, phi(x)) P(x) dx <= D * (int ||grad f||_*^p)^u + (a-n) int f^q_trace

    with P(x) = 1 + phi - x.grad phi allowed to go negative. The domain must
    satisfy the boundary growth gate |x1.grad phi| <= growth_C ||(x1, phi)||
    for ||x1|| > 1; every cone meets growth_C = 1 exactly, and domains
    needing a larger constant (the paraboloid fits only C -> 2) are refused
    with the fitted ratio as witness unless the caller raises the budget.
    ``constants`` may be a zero-argument callable, called only for a domain
    that passes the gate.
    """
    fitted, witness = _boundary_growth(domain)
    if fitted > growth_C * (1.0 + 1e-9):
        raise DomainRejectionError(
            f"growth condition failed: fitted ratio {fitted:.4f} exceeds budget "
            f"{growth_C} at x1={witness}",
            witness=witness,
            fitted=fitted,
        )
    if isinstance(f, ExtremalSpec):
        f = f.field()
    constants = _resolve_constants(constants, params, domain, norm, spec)
    a, n, p = params.a, params.n, params.p
    u = constants.u

    bdry, grad_term, fq_term, beta, rels = _trace_integrals(
        f, params, domain, norm, spec, weighted=True
    )
    lhs = bdry
    rhs = constants.D * grad_term**u + (a - n) * fq_term
    ratio = lhs / rhs
    rel_err = rels["bdry"] + rels["grad"] * u + rels["fq"] + constants.error_rel
    return TraceReport(
        lhs_boundary=lhs,
        rhs_value=rhs,
        beta=beta,
        ratio=ratio,
        quadrature_error=abs(ratio) * rel_err,
        details={"grad_term": grad_term, "fq_term": fq_term, "fitted_growth": fitted},
    )


def young_equality_residual(
    f: ScalarField | ExtremalSpec,
    constants: SharpConstants,
    domain: EpigraphDomain,
    norm: NormSpec,
    spec: QuadSpec,
):
    """Residual of the Young equality condition at the extremal:

        A/(Bv) * int ||grad f||_*^p  =  (beta^(p(p-1)/(a-p)))^(v-1).

    Returns (relative residual, lhs, rhs, identity_route) where the identity
    route evaluates the right side as I_{ap/(p-1)}^((a-p)/a).
    """
    if isinstance(f, ExtremalSpec):
        f = f.field()
    a, p, v = constants.a, constants.p, constants.v
    grad_term, _ = _gradient_integral(f, norm, p, domain, spec)
    beta_int, _ = _field_integral(f, a * p / (a - p), domain, spec)
    beta = beta_int ** ((a - p) / (a * p))
    lhs = constants.A / (constants.B * v) * grad_term
    rhs = beta ** (p * (p - 1.0) * (v - 1.0) / (a - p))
    I_route = constants.i_values.get("qa")
    identity_route = I_route ** ((a - p) / a) if I_route is not None else float("nan")
    residual = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return residual, lhs, rhs, identity_route


def approx_family(
    f: ScalarField,
    eps: float,
    params: BBLParams,
    domain: EpigraphDomain,
    spec: QuadSpec,
    gamma: float | None = None,
    grid_box=None,
    grid_resolution=None,
):
    """f_eps = eps ||x+e||^(-gamma(a-p)/p) + C_eps f with unit q-power mass.

    C_eps solves int f_eps^(ap/(a-p)) = 1 by monotone bisection, stopped once
    a midpoint's mass is within 1e-6 of 1; it does not exist when eps is too
    large (the tail term alone already overshoots) and that case is rejected.
    As eps decreases to 0, C_eps increases strictly toward 1. Returns
    (field, C_eps) or (field, C_eps, grid samples) when a grid box is supplied.
    """
    a, p, n = params.a, params.p, params.n
    if gamma is None:
        gamma = max(1.0, a / (n - 1.0)) + 1.0
    if not gamma > max(1.0, a / (n - 1.0)):
        raise ValueError("gamma must exceed max(1, a/(n-1))")
    power = a * p / (a - p)
    e = domain.e
    tail_exp = gamma * (a - p) / p

    def tail_fn(x):
        return _euclidean_norm(np.asarray(x, dtype=float) + e) ** (-tail_exp)

    def mass(Ceps: float) -> float:
        val, _ = integrate_epigraph(
            lambda x: (eps * tail_fn(x) + Ceps * f(x)) ** power,
            domain, spec, decay=tail_exp * power,
        )
        return val

    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if eps == 0.0:
        C_eps = 1.0
    else:
        m0 = mass(0.0)
        if m0 >= 1.0:
            raise ValueError(
                f"eps={eps} too large for the normalizer to exist (tail mass {m0:.3f} >= 1)"
            )
        lo, hi = 0.0, 1.0
        while mass(hi) < 1.0:
            hi *= 2.0
            if hi > 1e6:
                raise ValueError("normalizer search diverged")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            m_mid = mass(mid)
            if m_mid < 1.0:
                lo = mid
            else:
                hi = mid
            if abs(m_mid - 1.0) <= 1e-6:
                break
        C_eps = 0.5 * (lo + hi)

    base_fn = f.fn

    def fn_eps(x):
        return eps * tail_fn(x) + C_eps * np.asarray(base_fn(x), dtype=float)

    base_grad = f.grad

    def grad_eps(x):
        x = np.asarray(x, dtype=float)
        z = x + e
        r = _euclidean_norm(z)
        gt = -tail_exp * r[..., None] ** (-tail_exp - 2.0) * z
        gf = f.gradient(x) if base_grad is None else np.asarray(base_grad(x), dtype=float)
        return eps * gt + C_eps * gf

    field_eps = ScalarField(fn_eps, grad_eps, decay=tail_exp, name=f"approx(eps={eps:g})")
    if grid_box is not None and grid_resolution is not None:
        grid = sample_grid(domain, grid_box, grid_resolution, field_eps)
        return field_eps, C_eps, grid
    return field_eps, C_eps
