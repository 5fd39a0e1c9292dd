"""Oracle-inequality bounds and the Monte Carlo certification harness.

The finite oracle bound is min_j { ||theta_j - theta*||^2 +
beta log(1/pi0(j)) } over atoms with positive prior mass; the Gibbs bound
is the variational envelope -beta log sum_j pi0(j) exp(-||theta_j -
theta*||^2 / beta), never above the finite one. `mc_risk` estimates
E||theta_hat - theta*||^2 by independent replicates and compares it with
the Gibbs bound, either directly ("clean", valid from the family's
temperature threshold up) or with the posterior-variance penalty added
("variance_penalty", valid whenever beta > 2 b(0) d0).

`mc_risk` returns a `RiskReport`, and `OracleBoundReport` holds both bounds
for `ewa-agg oracle-bound`; each report's fields are its JSON keys
(`coupling.Report`), and its CSV_HEADER picks the CSV columns.

Replicate r draws its noise from a generator seeded by (seed, r) and runs
the distance, softmax and moments behind `posterior_weights`. Replicates go
through in chunks of R_c = BLOCK_DOUBLES // (m n) rows, m being
prior_samples when set (one row where n outgrows einsum's buffer;
`ewa._signal_rows`), by a rule that does not look at the worker count:
one distance block and one row-wise softmax per chunk, each row giving the
bits of its one-replicate call. So results are bit-identical however many
workers run (EWA_AGG_THREADS, default 1) and however replicates are chunked.
"""

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .bernstein import beta_threshold, variance_penalty_coefficient
from .coupling import Report
from .ewa import (
    _atom_sq_distances,
    _ewa_inputs,
    _posterior,
    _posterior_moments,
    _signal_rows,
)
from .model import (
    Dictionary,
    ExperimentConfig,
    WeightVector,
    _as_count,
    logsumexp,
    sup_diameter,
    squared_distance,
)
from .noise import FAMILIES

CONFIDENCE_MULTIPLIER = 3.0
THREADS_ENV_VAR = "EWA_AGG_THREADS"


def derived_stream(seed, *key):
    """A generator deterministically derived from (seed, key)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def _penalized_distances(prior, d, beta):
    """d_j + beta log(1/pi0(j)) over the atoms of positive prior mass, +inf where it
    overflows; at beta = +inf, d_j for an atom of full mass and +inf for the others."""
    mask = prior.weights > 0.0
    if math.isinf(beta):
        return np.where(prior.weights[mask] == 1.0, d[mask], np.inf)
    with np.errstate(over="ignore"):
        return d[mask] - beta * prior.log_weights[mask]


def oracle_bound_finite(dictionary, truth, prior, beta):
    """min over supported atoms of squared distance plus beta log(1/prior)."""
    return float(_penalized_distances(*_ewa_inputs(truth, dictionary, prior, beta)).min())


def oracle_bound_gibbs(dictionary, truth, prior, beta):
    """-beta log sum_j pi0(j) exp(-d_j / beta), the infimum of the Gibbs objective, never
    above the finite bound f; the prior-mean distance at beta = +inf. Where
    s = sum_j pi0(j) expm1(-d_j / beta) >= -1/16 (large beta) it is log1p(s) / s times
    -beta s = sum_j pi0(j) beta (1 - exp(-d_j / beta)), a term being d_j where d_j / beta is
    subnormal, so no digit cancels. Elsewhere it is f - beta log sum_j exp((f - t_j) / beta)
    over the finite bound's terms t_j: one exponent is exactly 0, so the log-sum-exp is >= 0
    (f where every (t_j - f) / beta overflows, as at subnormal beta)."""
    prior, d, beta = _ewa_inputs(truth, dictionary, prior, beta)
    if math.isinf(beta):
        return float(prior.weights @ d)
    t = _penalized_distances(prior, d, beta)
    f = t.min()
    pi, d = prior.weights[prior.support], d[prior.support]
    with np.errstate(over="ignore"):
        x = d / beta
    e = np.expm1(-x)
    s = pi @ e
    if s >= -1.0 / 16.0:
        terms = np.where(x < np.finfo(np.float64).tiny, d, -beta * e)
        return float(min((np.log1p(s) / s if s else 1.0) * (pi @ terms), f))
    if f == np.inf:  # every t_j overflows: Gibbs <= finite = +inf
        return math.inf
    with np.errstate(over="ignore"):
        return float(f - beta * logsumexp((f - t) / beta))


@dataclass(frozen=True)
class OracleBoundReport(Report):
    """The two bounds for one configuration; the verdict is Gibbs <= finite."""

    CSV_HEADER = ("n", "m", "beta", "bound_finite", "bound_gibbs", "verdict")

    n: int
    m: int
    beta: float
    bound_finite: float
    bound_gibbs: float
    verdict: bool


@dataclass(frozen=True)
class RiskReport(Report):
    CSV_HEADER = (
        "family", "n", "m", "beta", "threshold", "mode", "risk", "stderr", "bound", "penalty",
        "slack", "verdict", "R", "seed",
    )

    family: str
    n: int
    m: int
    beta: float
    threshold: float
    mode: str
    risk: float
    stderr: float
    mean_posterior_variance: float
    posterior_variance_stderr: float
    bound: float
    penalty_coefficient: float
    penalty: float
    combined_stderr: float
    slack: float
    verdict: bool
    R: int
    seed: int


def worker_count():
    raw = os.environ.get(THREADS_ENV_VAR, "1")
    try:
        raw = int(raw)
    except ValueError:
        pass  # the string itself fails the count check
    return _as_count(raw, THREADS_ENV_VAR)


def _run_replicates(config):
    """Each replicate's risk and posterior variance; what no replicate changes is made once.
    A worker's span goes in chunks of `_signal_rows` replicates, whatever the worker count:
    one distance block and one row-wise softmax per chunk, then each row's moments."""
    total, beta, sampled = config.replicates, config.beta, config.prior_samples
    atoms = config.dictionary.atoms
    norms = _atom_sq_distances(0.0, atoms)
    prior = config.prior if sampled is None else WeightVector.uniform(sampled)
    rows = _signal_rows(sampled or len(atoms), config.truth.size)
    risks, pvars = np.empty(total), np.empty(total)

    def fill(chunk):
        draws, picks = [], []
        for r in chunk:
            rng = derived_stream(config.seed, r)
            draws.append(config.noise.sample(rng))
            if sampled is not None:
                picks.append(rng.choice(len(atoms), size=sampled, p=config.prior.weights))
        y = config.truth + np.array(draws)
        if not np.all(np.isfinite(y)):
            raise ValueError("signal entries must be finite")
        theta, sq = atoms, norms
        if sampled is not None:
            idx = np.array(picks)
            theta, sq = atoms[idx], norms[idx]  # each replicate's own (s, n) atoms
        if math.isinf(beta):
            w = np.broadcast_to(prior.weights, (len(chunk), len(prior)))
        else:
            w = _posterior(prior.log_weights, _atom_sq_distances(y, theta), beta)[0]
        for k, r in enumerate(chunk):  # per row: a gemm would sum in another order
            theta_r, sq_r = (theta[k], sq[k]) if sampled else (theta, sq)
            estimate, pvars[r] = _posterior_moments(w[k], theta_r, sq_r)
            risks[r] = squared_distance(estimate, config.truth)

    def fill_span(lo, hi):  # a chunk's arrays go before the next one's are made
        for start in range(lo, hi, rows):
            fill(range(start, min(start + rows, hi)))

    workers = worker_count()
    step = -(-total // workers)
    spans = [(lo, min(lo + step, total)) for lo in range(0, total, step)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for future in [pool.submit(fill_span, lo, hi) for lo, hi in spans]:
            future.result()
    return risks, pvars


def _mean_and_stderr(values):
    mean = float(values.mean())
    if values.size < 2:
        return mean, 0.0
    return mean, float(values.std(ddof=1)) / math.sqrt(values.size)


def mc_risk(config, mode="clean"):
    """Monte Carlo risk certification for one experiment configuration.

    mode "clean" checks risk <= gibbs bound (warning when beta sits below
    the family threshold, where that inequality is not certified);
    "variance_penalty" adds the penalty-coefficient times the mean
    posterior variance to the right-hand side. Verdicts carry a
    3-standard-error allowance computed from the per-replicate series.
    """
    if mode not in ("clean", "variance_penalty"):
        raise ValueError("mode must be 'clean' or 'variance_penalty'")
    profile = config.noise.profile()
    d0 = sup_diameter(config.dictionary)
    threshold = beta_threshold(profile, d0)
    beta = config.beta
    if mode == "variance_penalty":
        if math.isinf(beta):
            raise ValueError("variance_penalty mode requires finite beta")
        coeff = variance_penalty_coefficient(beta, profile, d0)
    else:
        coeff = 0.0
        if not math.isinf(beta) and beta < threshold:
            warnings.warn(
                f"beta={beta:g} is below the certified threshold {threshold:g}; "
                "the clean bound is not guaranteed there",
                stacklevel=2,
            )
    risks, pvars = _run_replicates(config)
    risk, risk_se = _mean_and_stderr(risks)
    pvar, pvar_se = _mean_and_stderr(pvars)
    bound = oracle_bound_gibbs(config.dictionary, config.truth, config.prior, beta)
    if coeff != 0.0:
        combined, combined_se = _mean_and_stderr(risks - coeff * pvars)
    else:
        combined, combined_se = risk, risk_se
    penalty = coeff * pvar
    slack = bound + penalty - risk
    verdict = combined <= bound + CONFIDENCE_MULTIPLIER * combined_se
    return RiskReport(
        family=config.noise.family,
        n=config.dictionary.n,
        m=config.dictionary.m,
        beta=beta,
        threshold=threshold,
        mode=mode,
        risk=risk,
        stderr=risk_se,
        mean_posterior_variance=pvar,
        posterior_variance_stderr=pvar_se,
        bound=bound,
        penalty_coefficient=coeff,
        penalty=penalty,
        combined_stderr=combined_se,
        slack=slack,
        verdict=bool(verdict),
        R=config.replicates,
        seed=config.seed,
    )


_SCENARIO_KEY = 9001


def make_scenario(family, n=50, m=10, replicates=10_000, seed=20250822, **params):
    """A ready-to-run configuration on each family's natural domain.

    Bernoulli and binomial scenarios put truth in (0.2, 0.8)^n, take the
    noise success rates equal to the truth (so observations are honest
    counts), and clip the atoms to [0, 1]^n, keeping the sup diameter at
    most 1. beta is set to the family threshold for the actual dictionary.
    Each family's class draws its own scenario (`NoiseModel.scenario`).
    """
    if family not in FAMILIES:
        known = ", ".join(FAMILIES)
        raise ValueError(f"family must be one of: {known}")
    rng = derived_stream(seed, _SCENARIO_KEY, 0)
    truth, noise, atoms = FAMILIES[family].scenario(n, m, rng, params)
    if params:
        raise ValueError(f"unknown scenario parameters: {sorted(params)}")
    dictionary = Dictionary(atoms)
    beta = beta_threshold(noise.profile(), sup_diameter(dictionary))
    return ExperimentConfig(
        truth=truth,
        dictionary=dictionary,
        prior=WeightVector.uniform(m),
        noise=noise,
        beta=beta,
        replicates=replicates,
        seed=seed,
    )


def certify_config(config):
    """Run the two certification checks on a configuration: the clean
    bound at the family threshold and the variance-penalty bound at half
    the threshold. Returns both reports."""
    threshold = beta_threshold(config.noise.profile(), sup_diameter(config.dictionary))
    clean = mc_risk(replace(config, beta=threshold), mode="clean")
    penalized = mc_risk(replace(config, beta=threshold / 2.0), mode="variance_penalty")
    return [clean, penalized]


def certify_corollary(family, n=50, m=10, replicates=10_000, seed=20250822, **params):
    """Build the family's natural scenario and certify it both ways."""
    return certify_config(
        make_scenario(family, n=n, m=m, replicates=replicates, seed=seed, **params)
    )
