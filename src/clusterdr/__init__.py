"""Doubly robust treatment-effect estimation for clustered data.

The package estimates average and quantile treatment effects when
units sit inside clusters whose unobserved type confounds both the
outcome and the treatment assignment. Identification runs through
cluster summary statistics: estimators condition on unit covariates
together with within-cluster means (or learned mixture posteriors),
cross-fit their nuisance models over cluster folds, and aggregate
uncertainty at the cluster level.
"""

from .dataset import (
    CsvSchema,
    Dataset,
    ValidationReport,
    load_csv,
    validate,
    write_csv,
)
from .estimators import (
    DrResult,
    FeResult,
    MundlakResult,
    NuisanceConfig,
    NuisanceEstimates,
    PanelData,
    TwowayCheck,
    cluster_robust_se,
    dr_estimate,
    fe_ols,
    fit_nuisances,
    load_panel_csv,
    make_panel,
    mundlak_ols,
    psi,
    qte_estimate,
    twoway_mundlak_check,
    weighted_fe,
)
from .exceptions import (
    ClusterDrError,
    DegenerateDesignError,
    EmptyOverlapError,
    EstimationError,
    InputError,
    UnbalancedPanelError,
)
from .glm import (
    FoldAssignment,
    GroupLassoResult,
    LogisticFit,
    WlsFit,
    cross_fit_folds,
    logistic_fit,
    multinomial_group_lasso,
    predict_proba,
    wls_fit,
)
from .mixture import (
    MixtureModel,
    augment_with_posterior,
    em_fit,
    posterior_suffstat,
)
from .simulate import (
    DgpConfig,
    EstimatorConfig,
    GenerateResult,
    McReport,
    PRESET_NAMES,
    dgp_preset,
    generate,
    monte_carlo,
)
from .suffstats import (
    StatSpec,
    Term,
    build_suffstats,
    mundlak_spec,
    overlap_set,
    register_transform,
    resolve_transform,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
