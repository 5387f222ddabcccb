"""Noise sensitivity of the discrete Tanaka model.

Exact integer walk transforms, Fourier-Walsh spectral oracles, and
seeded Monte Carlo estimators for the limiting sign correlation under
partial perturbation of the driving noise, including the arc-sine
integral identity that describes the limit.
"""

__version__ = "0.1.0"

from .coupled import (
    argmin_coincidence,
    discrete_phi,
    entrance_heights,
    entrance_mass,
    exact_survival_probability,
    m_lambda_functional,
)
from .errors import DomainError, PreconditionError, ResourceLimitError
from .sampling import EstimateWithError, derive_rng, derive_seed
from .theorem import (
    TheoremReport,
    arcsine_nodes,
    rhs_factors,
    rhs_integral,
    sensitivity_curve,
    verify_theorem,
)
from .timesets import TimeSet, affine_preimage
from .walsh import (
    ChaosSpectrum,
    FunctionTable,
    exact_correlation,
    inverse_walsh,
    noise_functional,
    noise_operator,
    sgn_functional_table,
    sign_correlation_exact,
    spectral_measure,
    subset_weights,
    walk_survival_table,
    walsh_transform,
)
