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

from .bblcheck import (
    _GROWTH_BUDGET,
    BBLParams,
    _boundary_growth,
    _boundary_integrand,
    _cost_integral,
)
from .extgrid import EpigraphDomain, _unit_e, is_cone
from .fields import ScalarField, power_cost_field
from .quadrature import QuadSpec, integrate_boundary, integrate_epigraph
from .transforms import NormSpec, dual_norm

__all__ = [
    "SharpConstants",
    "TraceReport",
    "DomainRejectionError",
    "i_alpha",
    "normalize_power_cost",
    "gns_constants",
    "extremal_f",
    "trace_gn_check",
    "weighted_trace_check",
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
    return _moments(domain, norm, (alpha,), spec)[0]


def _moments(domain, norm, alphas, spec):
    """:func:`i_alpha` for each of ``alphas``, in one stacked sweep."""
    for alpha in alphas:
        if not alpha > domain.n:
            raise ValueError(f"i_alpha diverges for alpha={alpha} <= n={domain.n}")
    e = domain.e

    def fn(p):
        r = norm(np.asarray(p, dtype=float) + e)
        return np.stack([r ** (-alpha) for alpha in alphas])

    rows = integrate_epigraph(fn, domain, spec, decay=list(alphas), estimate=True)
    return [(val, err) for val, err, _tail in rows]


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
) -> float:
    """C with int_{Omega_1} (C ||x||^q / q)^(-a) = 1, via C = q * I_{qa}^(1/a).

    The direct quadrature of the normalized cost over the shifted domain is
    the independent route; a gross disagreement (beyond 2%) raises.
    """
    return _normalize_power_cost(
        domain, norm, q, a, spec, lambda: i_alpha(domain, norm, q * a, spec)
    )


def _normalize_power_cost(domain, norm, q, a, spec, moment_qa) -> float:
    """:func:`normalize_power_cost` with ``moment_qa()`` giving
    (I_{qa}, error) on ``spec``."""
    if not (q > 1 and a > 0):
        raise ValueError("need q > 1 and a > 0")
    C = _power_cost_constant(moment_qa()[0], q, a)
    W = power_cost_field(C, q, norm)
    direct, _tail = _cost_integral(W, -a, domain, spec, q * a)
    if abs(direct - 1.0) > 0.02:
        raise ValueError(
            f"normalization cross-check failed: direct integral {direct:.4f} != 1"
        )
    return C


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
        params, domain, norm, spec,
        lambda: _moments(domain, norm, _moment_exponents(params), spec),
        lambda C: _power_cost_B(domain, norm, C, params.q, params.a, spec),
    )


def _moment_exponents(params: BBLParams) -> tuple:
    """(qa, q(a-1)), the exponents of the two moments the constants use."""
    return params.q * params.a, params.q * (params.a - 1.0)


def _power_cost_B(domain, norm, C, q, a, spec):
    """(B, error, tail): int_{Omega_1} W^(1-a) for W = C ||x||^q / q on spec,
    with its refinement estimate."""
    W = power_cost_field(C, q, norm)
    return _cost_integral(W, 1.0 - a, domain, spec, q * (a - 1.0), estimate=True)


def _gns_constants(params, domain, norm, spec, moments, cost_B) -> SharpConstants:
    """:func:`gns_constants` with ``moments()`` giving the (I_alpha, error)
    of the :func:`_moment_exponents` on ``spec`` and ``cost_B(C)`` giving
    :func:`_power_cost_B` there."""
    n, a, p = params.n, params.a, params.p
    if p is None:
        raise ValueError("constants need p")
    q = params.q
    (I_qa, e_qa), (I_qa1, e_qa1) = moments()
    C = _power_cost_constant(I_qa, q, a)
    A = C ** (1.0 - p) * (a - 1.0) / p * (p / (a - p)) ** p
    B, eB, _ = cost_B(C)
    B_identity = I_qa ** ((1.0 - a) / a) * I_qa1

    u = (a - 1.0) / (a - p)
    v = (a - 1.0) / (p - 1.0)
    D = A**u / ((B * v) ** (u - 1.0) * u)
    theta = (a - p) / (p * (a - n - 1.0) + n)
    q_trace = params.q_trace

    f = extremal_f(params, norm)
    if a > n:
        s = (a - n) * (p - 1.0) / (a - p)
        D_npa = (1.0 + s) * s ** (-s / (1.0 + s)) * D ** (1.0 / (1.0 + s)) * (a - n) ** (
            s / (1.0 + s)
        )
        (K1, _), (K2, _) = _field_integrals(f, norm, p, (q_trace,), domain, spec)
        K1 = K1**u
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


def extremal_f(params: BBLParams, norm: NormSpec) -> ScalarField:
    """The saturating profile f(x) = ||x+e||^gamma, gamma = -(a-p)/(p-1) < 0."""
    a, p = params.a, params.p
    if p is None or not a > p:
        raise ValueError("extremal needs a > p > 1")
    gamma = -(a - p) / (p - 1.0)
    e = _unit_e(params.n)

    def fn(x):
        return norm(np.asarray(x, dtype=float) + e) ** gamma

    def grad(x):
        z = np.asarray(x, dtype=float) + e
        r = norm(z)
        return gamma * r[..., None] ** (gamma - 1.0) * norm.grad(z)

    return ScalarField(fn, grad, decay=-gamma, name=f"extremal(gamma={gamma:g})")


def _field_integrals(
    f: ScalarField, norm: NormSpec, p: float, expos, domain: EpigraphDomain,
    spec: QuadSpec, estimate: bool = False,
):
    """int_Omega ||grad f||_*^p, then int_Omega f^expo for each of ``expos``,
    in one stacked sweep that evaluates f and its gradient once per point;
    tail decays (f.decay + 1) p and f.decay * expo. Returns the list of
    :func:`integrate_epigraph` results, one per integral."""

    def fn(x):
        fx = f(x)
        return np.stack(
            [dual_norm(norm, f.gradient(x)) ** p] + [fx**expo for expo in expos]
        )

    decays = [(f.decay + 1.0) * p if f.decay else None]
    decays += [f.decay * expo if f.decay else None for expo in expos]
    return integrate_epigraph(fn, domain, spec, decay=decays, estimate=estimate)


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
    (grad_term, e_g, _), (fq_term, e_q, _), (beta_int, e_beta, _) = _field_integrals(
        f, norm, p, (qt, a * p / (a - p)), domain, spec, estimate=True
    )
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
    f: ScalarField,
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
    chk = is_cone(domain)
    if not chk.is_cone:
        raise DomainRejectionError(
            f"trace_gn_check needs a convex cone; witness {chk.witness}",
            witness=chk.witness,
        )
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
    f: ScalarField,
    params: BBLParams,
    domain: EpigraphDomain,
    norm: NormSpec,
    spec: QuadSpec,
    constants: SharpConstants | Callable[[], SharpConstants] | None = None,
) -> TraceReport:
    """Weighted trace inequality on a convex epigraph, power form:

        int f^q_trace(x, phi(x)) P(x) dx <= D * (int ||grad f||_*^p)^u + (a-n) int f^q_trace

    with P(x) = 1 + phi - x.grad phi allowed to go negative. The domain must
    satisfy the boundary growth gate |x1.grad phi| <= C ||(x1, phi)|| for
    ||x1|| > 1 at the cone budget C = 1, which every cone meets exactly;
    domains needing a larger constant (the paraboloid fits only C -> 2) are
    refused with the fitted ratio as witness. ``constants`` may be a
    zero-argument callable, called only for a domain that passes the gate.
    """
    ok, fitted, witness = _boundary_growth(domain)
    if not ok:
        raise DomainRejectionError(
            f"growth condition failed: fitted ratio {fitted:.4f} exceeds budget "
            f"{_GROWTH_BUDGET} at x1={witness}",
            witness=witness,
            fitted=fitted,
        )
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
