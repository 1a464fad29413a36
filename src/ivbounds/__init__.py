"""Covariate-assisted nonparametric bounds on the average treatment effect
from binary-instrument data: influence-function and smooth log-sum-exp
estimators, a bounded-continuous-outcome extension, and a simulation harness.
"""

__version__ = "0.1.0"

from .bounds import (
    ThetaProfile,
    lp_sharp_bounds,
    natural_bounds,
    response_type_ate,
    response_type_pi,
    theta_lower,
    theta_profile,
    theta_upper,
)
from .continuous import OutcomeTransform, continuous_bounds
from .crossfit import (
    ClosedFormNuisance,
    FoldedNuisances,
    cross_fit,
    fit_joint,
    fit_propensity,
    oracle_noisy_nuisance,
)
from .data import ColumnMapping, Dataset, LoadError, load_csv
from .estimators import (
    BoundEstimate,
    direct_bounds,
    plugin_bounds,
    wald_interval,
)
from .learners import FitError, LearnerSpec, make_classifier, parse_learner_spec
from .lse import conservative_interval, lse, lse_bounds, lse_grad, lse_hess

__all__ = [
    "__version__",
    "ThetaProfile",
    "lp_sharp_bounds",
    "natural_bounds",
    "response_type_ate",
    "response_type_pi",
    "theta_lower",
    "theta_profile",
    "theta_upper",
    "OutcomeTransform",
    "continuous_bounds",
    "ClosedFormNuisance",
    "FoldedNuisances",
    "cross_fit",
    "fit_joint",
    "fit_propensity",
    "oracle_noisy_nuisance",
    "ColumnMapping",
    "Dataset",
    "LoadError",
    "load_csv",
    "BoundEstimate",
    "direct_bounds",
    "plugin_bounds",
    "wald_interval",
    "FitError",
    "LearnerSpec",
    "make_classifier",
    "parse_learner_spec",
    "conservative_interval",
    "lse",
    "lse_bounds",
    "lse_grad",
    "lse_hess",
]
