"""AR model fitting by matching up-to-m-step-ahead predictions, ideal-world
evaluation under a known truth, and bootstrap-penalized order selection."""

from .acvf import (
    AcvfSeq,
    ArParams,
    ArmaSpec,
    ar_acvf,
    ar_to_pacf,
    arma_acvf,
    levinson_solve,
    pacf_to_ar,
)
from .companion import companion_matrix, spectral_radius
from .errors import (
    ArMatchError,
    BootstrapFailed,
    DegenerateFit,
    InsufficientLags,
    NoConvergence,
    NonStationary,
    SingularDesign,
    SingularToeplitz,
    TooShort,
)
from .estimator import FitResult, fit_ideal, fit_match, fit_ols
from .loss import empirical_q, empirical_q_gradient, population_q
from .predictor import PredictorCoeffs, predictor_from_acvf, predictor_from_model
from .seeding import mix_seed, rng_from
from .selection import (
    SelectionResult,
    aic_baseline,
    approx_decrease,
    bootstrap_bias,
    ideal_log_loss,
    log_loss,
    select_order,
)
from .simulation import (
    EstimatorSpec,
    ExperimentPlan,
    SelectionSettings,
    TarSpec,
    run_experiment,
    simulate_arma,
    simulate_tar,
)

__version__ = "0.1.0"
