"""Numerical convex analysis on epigraph domains.

Extended-real grid functions, discrete Legendre-Fenchel transforms, min-plus
convolution and Hopf-Lax operators, dynamical Borell-Brascamp-Lieb gap checks,
and the sharp trace Gagliardo-Nirenberg-Sobolev constant chain, all with
reported quadrature error budgets at desk scale.
"""

from .bblcheck import BBLParams
from .extgrid import halfspace, read_gridfn, write_gridfn
from .quadrature import QuadSpec
from .sharpconst import PowerCost, extremal_f, trace_gn_check
from .transforms import NormSpec

__version__ = "0.1.0"
