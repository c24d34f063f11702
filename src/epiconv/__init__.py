"""Numerical convex analysis on epigraph domains.

Extended-real grid functions, discrete Legendre-Fenchel transforms, min-plus
convolution and Hopf-Lax operators, dynamical Borell-Brascamp-Lieb gap checks,
and the sharp trace Gagliardo-Nirenberg-Sobolev constant chain, all with
reported quadrature error budgets at desk scale.
"""

from .extgrid import (
    INF,
    AdmissibilityParams,
    EpigraphDomain,
    ExtGridFn,
    affine_max,
    bh_membership,
    contains,
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
from .transforms import (
    ConjugateResult,
    NormSpec,
    default_dual_box,
    dual_norm,
    dual_norm_sampled,
    legendre_1d,
    legendre_nd,
    power_cost_conjugate,
)
from .hopflax import (
    InfConvResult,
    hj_difference_quotient,
    hopflax_apply,
    hopflax_pointwise,
    infconv,
    is_grid_convex,
    semigroup_residual,
)
from .quadrature import QuadSpec, integrate_boundary, integrate_epigraph, integrate_gridfn
from .fields import (
    ScalarField,
    bump_field,
    multiply_bump,
    power_cost_field,
    quadratic_field,
    shifted_field,
)
from .bblcheck import (
    AdmissibilityReport,
    BBLParams,
    EquivalenceScan,
    GapReport,
    admissibility_report,
    appendix_limit_residual,
    bbl_gap,
    derived_gap,
    equivalence_scan,
)
from .sharpconst import (
    DomainRejectionError,
    ExtremalSpec,
    SharpConstants,
    TraceReport,
    approx_family,
    extremal_f,
    gns_constants,
    gradient_norm_claim_check,
    i_alpha,
    normalize_power_cost,
    trace_gn_check,
    weighted_trace_check,
    young_equality_residual,
)

__version__ = "0.1.0"
