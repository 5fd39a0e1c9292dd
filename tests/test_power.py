"""The exact risk of the aggregate for small discrete noise laws: the oracle inequality
without Monte Carlo error, and the calibration of `mc_risk`'s standard error against it.

The exact risk enumerates the product law of a family's coordinate laws
(`marginal_rows()`), and takes each outcome's estimate by the public
posterior_weights -> aggregate path, not by the replicate chunk kernel."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import draw_reference as draws
from ewa_agg.ewa import aggregate, posterior_weights, squared_distance
from ewa_agg.model import WeightVector
from ewa_agg.oracle import _rounding_allowance, make_scenario, mc_risk, oracle_bound_gibbs

SEED = 20250822
MAX_N = {None: 8, 1: 8, 2: 5, 3: 4}  # per binomial k (None: the Bernoulli): 256 outcomes at most


def _product_law(noise):
    """Every outcome of the noise vector as an (N, n) array, with its probability: the
    product of the coordinates' laws."""
    rows = noise.marginal_rows()
    cuts = rows.offsets[1:-1]
    values = np.meshgrid(*np.split(rows.values, cuts), indexing="ij")
    probs = np.meshgrid(*np.split(rows.probs, cuts), indexing="ij")
    return np.stack(values, axis=-1).reshape(-1, noise.dim), np.prod(probs, axis=0).ravel()


def _exact_risk(config):
    """E||theta_hat - theta*||^2 over the product law, shifted by the first outcome's risk
    as `oracle._mean_and_stderr` shifts a series, so that a constant risk is its value."""
    xi, p = _product_law(config.noise)
    dictionary, truth = config.dictionary, config.truth
    risks = np.array([
        squared_distance(aggregate(dictionary, posterior_weights(
            truth + x, dictionary, config.prior, config.beta
        )), truth)
        for x in xi
    ])
    return risks[0] + math.fsum(p * (risks - risks[0]))


@st.composite
def _configs(draw):
    """A Bernoulli or binomial scenario at its certified threshold (`make_scenario`) with at
    most 4 atoms under a drawn prior."""
    k = draw(st.sampled_from(list(MAX_N)))
    family, params = ("centered_bernoulli", {}) if k is None else ("centered_binomial", {"k": k})
    weights = draw(draws.priors(1, 4))
    n, seed = draw(st.integers(1, MAX_N[k])), draw(st.integers(0, 2**32 - 1))
    config = make_scenario(family, n=n, m=weights.size, replicates=1, seed=seed, **params)
    return replace(config, prior=WeightVector(weights))


@settings(max_examples=100, deadline=None)
@given(config=_configs())
@example(config=make_scenario("centered_bernoulli", n=8, m=4, replicates=1, seed=SEED))
@example(config=make_scenario("centered_binomial", n=4, m=1, replicates=1, seed=SEED, k=3))
def test_exact_risk_is_within_the_gibbs_bound(config):
    # the clean inequality in expectation, with no standard-error allowance: the allowance
    # covers only the rounding of the computed means, as at a tie between copies of an atom
    bound = oracle_bound_gibbs(config.dictionary, config.truth, config.prior, config.beta)
    assert _exact_risk(config) <= bound + _rounding_allowance(config, bound, 0.0, 0.0)


@pytest.mark.parametrize(
    "family, n, params", [("centered_bernoulli", 6, {}), ("centered_binomial", 4, {"k": 3})]
)
def test_mc_risk_standard_error_is_calibrated(family, n, params):
    # over 200 derived seeds, the estimate's error in standard errors is N(0, 1), which the
    # verdict's 3-standard-error allowance assumes
    config = make_scenario(family, n=n, m=4, replicates=250, seed=SEED, **params)
    exact = _exact_risk(config)
    z = []
    for seed in np.random.SeedSequence(SEED).generate_state(200):
        report = mc_risk(replace(config, seed=int(seed)))
        z.append((report.risk - exact) / report.stderr)
    assert stats.kstest(z, "norm").pvalue >= 1e-3
