"""Transparent differential privacy and valid inference on privatized data.

Mechanisms with public noise laws, the exact bias of naive analyses that
ignore the noise, fixed-design asymptotics with coverage surfaces, a Monte
Carlo EM likelihood correction, and exact Bayesian posterior sampling, all
behind a reproducible seeded-stream contract.
"""

from .errors import (
    DegenerateDesignError,
    DegenerateWeightsError,
    InfeasibleABCError,
    NonPDInformationError,
    TransparentDpError,
    UndefinedIndexError,
    UnsupportedFamilyError,
)
from .mechanisms import (
    Family,
    MechanismSpec,
    PrivacyBudget,
    double_geometric_log_pmf,
    double_geometric_noise,
    laplace_log_density,
    laplace_noise,
    privatize_vector,
    verify_dp_discrete,
)
from .rng import derive_seed, stream
from .simulate import (
    ConfidentialDataset,
    PrivatizedDataset,
    RegressionParams,
    gen_confidential,
    privatize_dataset,
)
from .naive_fit import (
    FitResult,
    ols,
)
from .asymptotics import (
    FixedDesignMoments,
    biasing_coefficient,
    clt_variance,
    coverage_grid,
    distribution_limits,
    limit_coverage,
    reference_design,
    sample_moments,
)
from .mcem import (
    Ellipse,
    MCEMConfig,
    MCEMResult,
    MCEMState,
    confidence_ellipse,
    e_step,
    ellipse_study,
    m_step,
    observed_fisher,
    run_mcem,
)
from .bayes_abc import (
    DiscreteToy,
    PriorSpec,
    abc_exact_posterior,
    abc_toy_posterior,
    grid_posterior_oracle,
    misreported_mechanism_bias,
    mixture_posterior_oracle,
)
from .metrics import (
    CountyTable,
    dissimilarity,
    privatized_dissimilarity_study,
)

__version__ = "0.1.0"
