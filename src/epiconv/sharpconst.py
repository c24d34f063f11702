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
:class:`PowerCost` owns the chain and computes each link once per spec. The
trace checks, like :func:`bblcheck.derived_gap`, take a cost and read their
domain, norm and constants from it; :func:`normalize_power_cost` is a call on
a fresh one.

D_npa is stored for the q-power form of the inequality (so D_npa = D when
a = n); the norm-form constant multiplying ||grad f||^theta ||f||^(1-theta)
is D_npa^(1/q_trace), stored as trace_constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .bblcheck import (
    _GROWTH_BUDGET,
    BBLParams,
    _boundary_growth,
    _boundary_integrand,
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
    "PowerCost",
    "normalize_power_cost",
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
        out.update(self.details)
        return out


def i_alpha(domain: EpigraphDomain, norm: NormSpec, alpha, spec: QuadSpec):
    """Moment integral int_Omega ||x + e||^(-alpha) dx with its error budget.

    Graded trapezoid plus the analytic power-tail bound; alpha <= n diverges
    and is rejected. Returns (value, error_estimate); the estimate combines
    the half-spacing refinement difference with the tail bound. Stacked
    form: with ``alpha`` a sequence, the result is the list of the moments'
    (value, error_estimate), from one stacked sweep, each the bytes of its
    one-exponent call.
    """
    stacked = isinstance(alpha, (list, tuple))
    alphas = list(alpha) if stacked else [alpha]
    for al in alphas:
        if not al > domain.n:
            raise ValueError(f"i_alpha diverges for alpha={al} <= n={domain.n}")
    e = domain.e

    def fn(p):
        r = norm(np.asarray(p, dtype=float) + e)
        return np.stack([r ** (-al) for al in alphas])

    rows = integrate_epigraph(fn, domain, spec, decay=alphas, estimate=True)
    out = [(val, err) for val, err, _tail in rows]
    return out if stacked else out[0]


class PowerCost:
    """The normalized power cost W = C ||x||^q / q of a domain and a norm,
    int_{Omega_1} W^(-a) = 1, owning the sharp-constant chain it feeds:
    the moments, C, B and the constants, each computed once per quadrature
    spec (and params). The moments need qa > n and q(a-1) > n, which
    a >= n > p > 1 gives. A link whose computation raised ``ValueError``
    raises it again for every later caller.
    """

    def __init__(self, domain: EpigraphDomain, norm: NormSpec, q: float, a: float):
        self.domain, self.norm, self.q, self.a = domain, norm, q, a
        self._entries = {}

    def _get(self, key, compute):
        if key not in self._entries:
            try:
                self._entries[key] = (True, compute())
            except ValueError as ex:
                self._entries[key] = (False, ex)
        ok, value = self._entries[key]
        if not ok:
            raise value
        return value

    def moments(self, spec: QuadSpec):
        """[(I_{qa}, error), (I_{q(a-1)}, error)] on ``spec``, one stacked sweep."""
        q, a = self.q, self.a
        return self._get(
            ("moments", spec),
            lambda: i_alpha(self.domain, self.norm, [q * a, q * (a - 1.0)], spec),
        )

    def _scale(self, spec: QuadSpec) -> float:
        """C = q * I_{qa}^(1/a) on ``spec``, unchecked."""
        I_qa = self.moments(spec)[0][0]
        if not np.isfinite(I_qa) or I_qa <= 0:
            raise ValueError(f"divergent or invalid moment integral: {I_qa}")
        return self.q * I_qa ** (1.0 / self.a)

    def _integral(self, C: float, expo: float, spec: QuadSpec, estimate: bool):
        """int_{Omega_1} W^expo for the scale C, tail decay -q * expo, as
        :func:`integrate_epigraph` returns it."""
        W = power_cost_field(C, self.q, self.norm)
        return integrate_epigraph(
            lambda p: W(p) ** expo, self.domain, spec, shift=1.0, decay=-self.q * expo,
            estimate=estimate,
        )

    def C(self, spec: QuadSpec) -> float:
        """C on ``spec``, checked: the direct quadrature of W^(-a) is the
        independent route, and a disagreement beyond 2% raises."""

        def compute():
            if not (self.q > 1 and self.a > 0):
                raise ValueError("need q > 1 and a > 0")
            C = self._scale(spec)
            direct, _tail = self._integral(C, -self.a, spec, estimate=False)
            if abs(direct - 1.0) > 0.02:
                raise ValueError(
                    f"normalization cross-check failed: direct integral {direct:.4f} != 1"
                )
            return C

        return self._get(("C", spec), compute)

    def W(self, spec: QuadSpec) -> ScalarField:
        """The cost as a field, with the checked C on ``spec``."""
        return power_cost_field(self.C(spec), self.q, self.norm)

    def B(self, spec: QuadSpec):
        """(B, error, tail): int_{Omega_1} W^(1-a) on ``spec`` with its
        refinement estimate, from the unchecked C as the constants read it."""
        return self._get(
            ("B", spec), lambda: self._integral(self._scale(spec), 1.0 - self.a, spec, True)
        )

    def constants(self, params: BBLParams, spec: QuadSpec) -> SharpConstants:
        """The full constant bundle of ``params`` (whose q and a are the
        cost's) on ``spec``.

        B is computed twice, by direct quadrature of W^(1-a) over the shifted
        domain and by the moment identity I_{qa}^((1-a)/a) * I_{q(a-1)}; the
        direct route feeds the constants, the identity route is kept for
        cross-checks. For a > n the scaling optimum lambda* is evaluated on
        the extremal function and is 1 in exact arithmetic.
        """
        return self._get(("constants", params, spec), lambda: self._assemble(params, spec))

    def _assemble(self, params: BBLParams, spec: QuadSpec) -> SharpConstants:
        n, a, p = params.n, params.a, params.p
        if p is None:
            raise ValueError("constants need p")
        domain, norm = self.domain, self.norm
        (I_qa, e_qa), (I_qa1, e_qa1) = self.moments(spec)
        C = self._scale(spec)
        A = C ** (1.0 - p) * (a - 1.0) / p * (p / (a - p)) ** p
        B, eB, _ = self.B(spec)
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


def normalize_power_cost(
    domain: EpigraphDomain,
    norm: NormSpec,
    q: float,
    a: float,
    spec: QuadSpec,
) -> float:
    """C with int_{Omega_1} (C ||x||^q / q)^(-a) = 1, via C = q * I_{qa}^(1/a):
    :meth:`PowerCost.C`, whose 2% direct cross-check raises."""
    return PowerCost(domain, norm, q, a).C(spec)


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
    f: ScalarField, cost: PowerCost, params: BBLParams, spec: QuadSpec, weighted: bool
):
    domain, a, p = cost.domain, params.a, params.p
    qt = params.q_trace
    bdry, e_b, _ = integrate_boundary(
        _boundary_integrand(f, domain, qt, weighted), domain.n - 1, spec,
        decay=(f.decay * qt if f.decay else None), estimate=True,
    )
    (grad_term, e_g, _), (fq_term, e_q, _), (beta_int, _, _) = _field_integrals(
        f, cost.norm, p, (qt, a * p / (a - p)), domain, spec, estimate=True
    )
    beta = beta_int ** ((a - p) / (a * p))
    rels = {
        "bdry": e_b / max(abs(bdry), 1e-300),
        "grad": e_g / max(grad_term, 1e-300),
        "fq": e_q / max(fq_term, 1e-300),
    }
    return bdry, grad_term, fq_term, beta, rels


def trace_gn_check(
    f: ScalarField, cost: PowerCost, params: BBLParams, spec: QuadSpec
) -> TraceReport:
    """Trace inequality on a convex cone, in Theorem form:

        (int_bdry f^q_trace)^(1/q_trace) <= const * ||grad f||_p^theta * ||f||_q^(1-theta).

    ratio = lhs/rhs is 1 for the extremal up to the reported quadrature error
    and below 1 otherwise, on ``cost.domain`` with ``cost.norm`` (``cost``
    is the normalized power cost of params' q and a). Non-cone domains are
    rejected, before any constant is computed; the weighted check handles
    those.
    """
    chk = is_cone(cost.domain)
    if not chk.is_cone:
        raise DomainRejectionError(
            f"trace_gn_check needs a convex cone; witness {chk.witness}",
            witness=chk.witness,
        )
    constants = cost.constants(params, spec)
    theta, qt, p = constants.theta, constants.q_trace, params.p

    bdry, grad_term, fq_term, beta, rels = _trace_integrals(
        f, cost, params, spec, weighted=False
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
        details={"grad_term": grad_term, "fq_term": fq_term},
    )


def weighted_trace_check(
    f: ScalarField, cost: PowerCost, params: BBLParams, spec: QuadSpec
) -> TraceReport:
    """Weighted trace inequality on a convex epigraph, power form:

        int f^q_trace(x, phi(x)) P(x) dx <= D * (int ||grad f||_*^p)^u + (a-n) int f^q_trace

    on ``cost.domain`` with ``cost.norm`` (``cost`` is the normalized power
    cost of params' q and a), with P(x) = 1 + phi - x.grad phi allowed to go
    negative. The domain must satisfy the boundary growth gate
    |x1.grad phi| <= C ||(x1, phi)|| for ||x1|| > 1 at the cone budget C = 1,
    which every cone meets exactly; domains needing a larger constant (the
    paraboloid fits only C -> 2) are refused with the fitted ratio as
    witness, before any constant is computed.
    """
    ok, fitted, witness = _boundary_growth(cost.domain)
    if not ok:
        raise DomainRejectionError(
            f"growth condition failed: fitted ratio {fitted:.4f} exceeds budget "
            f"{_GROWTH_BUDGET} at x1={witness}",
            witness=witness,
            fitted=fitted,
        )
    constants = cost.constants(params, spec)
    a, n = params.a, params.n
    u = constants.u

    bdry, grad_term, fq_term, beta, rels = _trace_integrals(
        f, cost, params, spec, weighted=True
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
