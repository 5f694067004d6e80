"""Thermodynamic variational objectives over power-mean interpolation paths.

Estimators (ELBO, IW-ELBO, Renyi, EUBO, Wasserstein, TVO, HBO), score-function
gradients, alpha tuning, and diagnostics over pluggable low-dimensional
latent-variable models, with dense-quadrature oracles that make every
estimator checkable at desk scale.
"""

__version__ = "0.1.0"

from .diagnostics import (
    CurveProfile,
    McmcReference,
    approx_error,
    curve_profile,
    ess,
    mcmc_reference,
    mmd,
)
from .estimators import (
    BoundReport,
    ImportanceBatch,
    IntegrationRule,
    LocalEvidenceEstimate,
    PartitionSchedule,
    bound_report,
    draw_batch,
    elbo,
    eubo,
    hbo,
    iw_elbo,
    local_evidence,
    local_evidence_curve,
    perturbed_hbo,
    rvi,
    tvo,
    wasserstein_bounds,
)
from .gradients import (
    BoundObjective,
    GradientEstimate,
    TrainingTrace,
    bound_grad,
    finite_difference_grad,
    local_evidence_grad,
    train,
)
from .models import (
    BayesRegressionDataset,
    GridSpec,
    LatentModel,
    ModelParameters,
    conjugate_exact_log_marginal,
    make_bayes_regression,
    make_conjugate_gaussian,
    make_model,
    make_ring,
    make_scaled_factor,
    make_sin_toy,
    quadrature_local_evidence,
    quadrature_local_evidence_curve,
    quadrature_log_marginal,
    quadrature_oracle,
    quadrature_rvi,
    simulate_bayes_dataset,
)
from .paths import PathSpec, path_weights
from .tuning import (
    AlphaSearchResult,
    CurveSummary,
    tune_alpha_bisect,
    tune_alpha_grid,
)
