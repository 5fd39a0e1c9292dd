"""Exponentially weighted aggregation with certified oracle inequalities.

The package builds Gibbs posterior weights over a finite dictionary,
constructs the zero-mean jitter couplings that inflate each noise family
by a factor 1 + alpha, bounds the jitter MGFs with Bernstein profiles,
and runs Monte Carlo certifications of the resulting risk bounds.
"""

from types import ModuleType as _ModuleType

from .model import (
    Dictionary,
    ExperimentConfig,
    WeightVector,
    as_signal,
    squared_distance,
    sup_diameter,
)
from .ewa import (
    DV_TOLERANCE,
    DvMinimalityReport,
    aggregate,
    dv_minimality_test,
    ewa_estimate,
    gibbs_objective,
    kl_divergence,
    posterior_variance,
    posterior_weights,
    sampled_prior_ewa,
)
from .noise import (
    BoundedBinaryMixture,
    CenteredBernoulli,
    CenteredBinomial,
    DiscreteLaw,
    Gaussian,
    Laplace,
    max_atom_probability_error,
    noise_from_json,
    noise_to_json,
)
from .coupling import (
    CouplingDraw,
    CouplingReport,
    bernoulli_coupling_branches,
    binary_coupling_branches,
    conditional_zeta_laws,
    couple_bernoulli,
    couple_binary,
    couple_binomial,
    couple_gaussian,
    couple_laplace,
    exact_coupled_sum_law,
    ks_two_sample_threshold,
    max_conditional_mean_error,
    sample_coupling,
    verify_coupling,
)
from .bernstein import (
    BernsteinProfile,
    MgfCheckReport,
    beta_threshold,
    check_noise_mgf,
    default_t_grid,
    mgf_bound,
    mgf_bound_check,
    variance_penalty_coefficient,
)
from .oracle import (
    RiskReport,
    certify_config,
    certify_corollary,
    derived_stream,
    make_scenario,
    mc_risk,
    oracle_bound_finite,
    oracle_bound_gibbs,
)

__version__ = "0.1.0"

# every public name bound above, less the submodules the relative imports bind
__all__ = [k for k, v in globals().items() if k[0] != "_" and not isinstance(v, _ModuleType)]
