"""Exact spectral invariants of polarized endomorphisms on cohomology.

Characteristic polynomials, functional equations, Jordan-block symmetry,
Newton and Hodge polygons, majorization, and Lefschetz zeta functions,
all in exact arithmetic, the Weil weight condition included.
"""

from endospec._kernels import BACKEND
from endospec.errors import (
    ConsistencyError,
    DomainError,
    DualityViolationError,
    EndospecError,
    InapplicableModelError,
    ShapeError,
    SingularActionError,
    ValidityError,
)
from endospec.exactnum import NormalizedValuation
from endospec.matrixops import (
    ExactMatrix,
    exterior_power,
    invariant_factors,
    pairing_check,
    polarization_witness,
)
from endospec.poly import (
    DegreeFacts,
    Poly,
    charpoly,
    cross_duality_check,
    duality_partner,
    functional_equation_check,
    half_weight_multiplicity,
    jordan_symmetry_check,
    model_facts,
    power_sums,
    reciprocal_partner,
)
from endospec.polygons import (
    HodgePolygon,
    NewtonPolygon,
    compound,
    hodge_polygon,
    majorizes,
    newton_polygon,
    np_ge_hp,
    slope_zero_check,
    symmetry_check,
)
from endospec.varieties import (
    VarietyModel,
    abelian_en,
    abelian_from_h1,
    generic_model,
    grassmannian,
)
from endospec.verify import (
    CheckResult,
    VerificationReport,
    epsilon_congruence_check,
    full_report,
    weil_weight_check,
)
from endospec.zeta import (
    ZetaFunction,
    lefschetz_number,
    zeta_function,
    zeta_functional_equation,
    zeta_series_consistency,
)

__version__ = "1.0.0"

__all__ = [
    "BACKEND",
    "CheckResult",
    "ConsistencyError",
    "DegreeFacts",
    "DomainError",
    "DualityViolationError",
    "EndospecError",
    "ExactMatrix",
    "HodgePolygon",
    "InapplicableModelError",
    "NewtonPolygon",
    "NormalizedValuation",
    "Poly",
    "ShapeError",
    "SingularActionError",
    "ValidityError",
    "VarietyModel",
    "VerificationReport",
    "ZetaFunction",
    "abelian_en",
    "abelian_from_h1",
    "charpoly",
    "compound",
    "cross_duality_check",
    "duality_partner",
    "epsilon_congruence_check",
    "exterior_power",
    "full_report",
    "functional_equation_check",
    "generic_model",
    "grassmannian",
    "half_weight_multiplicity",
    "hodge_polygon",
    "invariant_factors",
    "jordan_symmetry_check",
    "lefschetz_number",
    "majorizes",
    "model_facts",
    "newton_polygon",
    "np_ge_hp",
    "pairing_check",
    "polarization_witness",
    "power_sums",
    "reciprocal_partner",
    "slope_zero_check",
    "symmetry_check",
    "weil_weight_check",
    "zeta_function",
    "zeta_functional_equation",
    "zeta_series_consistency",
    "__version__",
]
