"""Exponentially weighted aggregation over a finite dictionary.

Given an observation y, atoms theta_1..theta_m, a prior pi0, and a
temperature beta > 0, the posterior weight of atom j is proportional to

    exp(-||y - theta_j||^2 / beta) * pi0(j),

computed in log space with the max-shift trick. The aggregate estimate is
the posterior mean of the atoms. The same posterior is the unique
minimizer of the Gibbs objective

    sum_j w_j ||y - theta_j||^2 + beta * KL(w || pi0)

over probability vectors w, which `dv_minimality_test` probes empirically.
beta = +inf is the degenerate no-data limit: the posterior is the prior.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import WeightVector, _as_weight_array, _check_beta, as_signal, softmax

DV_TOLERANCE = 1e-9
BLOCK_DOUBLES = 1 << 16  # 512 KiB of differences: a block stays in a core's L2 cache
EINSUM_BUFFER = 8192  # numpy's iterator buffer; einsum sums a longer row in pieces


@dataclass(frozen=True)
class DvMinimalityReport:
    verdict: bool
    worst_violation: float
    trials: int


def _atom_sq_distances(y, atoms):
    """||theta_j - y||^2 per row theta_j of atoms, from explicit differences (||y||^2 - 2 y.theta
    cancels); at y = 0, the squared norms. Many C-ordered atoms go in blocks of rows whose
    differences stay in cache; einsum sums a row alike in any block, if the row fits its buffer."""
    m, n = atoms.shape
    if m * n <= BLOCK_DOUBLES or n > EINSUM_BUFFER or not atoms.flags.c_contiguous:
        diff = atoms - y
        return np.einsum("ij,ij->i", diff, diff)
    rows, out = BLOCK_DOUBLES // n, np.empty(m)
    for lo in range(0, m, rows):
        diff = atoms[lo : lo + rows] - y
        np.einsum("ij,ij->i", diff, diff, out=out[lo : lo + rows])
    return out


def _log_posterior(log_prior, sq_distances, beta):
    """log pi0(j) - d_j / beta; a quotient that overflows (tiny beta) gives -inf."""
    with np.errstate(over="ignore"):
        return log_prior - sq_distances / beta


def _posterior_moments(w, atoms, sq_norms):
    """Posterior mean and variance (clamped at 0), given the atoms' squared norms."""
    mean = w @ atoms
    return mean, max(float(w @ sq_norms) - float(mean @ mean), 0.0)


def _ewa_inputs(y, dictionary, prior, beta):
    """The one input check of the posterior and the oracle bounds: the prior as a
    WeightVector of the dictionary's length, the signal's squared distances to the
    atoms, and beta."""
    y = as_signal(y, dictionary.n)
    prior = prior if isinstance(prior, WeightVector) else WeightVector(prior)
    if len(prior) != dictionary.m:
        raise ValueError("prior length must match the number of atoms")
    return prior, _atom_sq_distances(y, dictionary.atoms), _check_beta(beta)


def posterior_weights(y, dictionary, prior, beta):
    """Exponential-weight posterior over the dictionary atoms, a WeightVector.

    Atoms with zero prior mass keep exactly zero posterior mass. With
    beta = +inf the prior is returned unchanged.
    """
    prior, d, beta = _ewa_inputs(y, dictionary, prior, beta)
    if math.isinf(beta):
        return prior
    return WeightVector.from_log_weights(_log_posterior(prior.log_weights, d, beta))


def aggregate(dictionary, w):
    """Weighted mean of the atoms; accepts a WeightVector or a plain
    probability vector."""
    return _as_weight_array(w, dictionary.m) @ dictionary.atoms


def posterior_variance(dictionary, w):
    """sum_j w_j ||theta_j||^2 - ||sum_j w_j theta_j||^2, clamped at 0."""
    atoms = dictionary.atoms
    norms = _atom_sq_distances(0.0, atoms)
    return _posterior_moments(_as_weight_array(w, dictionary.m), atoms, norms)[1]


def kl_divergence(p, q):
    """KL(p || q) with the 0 log 0 = 0 convention; +inf when p charges an
    atom q does not."""
    p_arr = _as_weight_array(p)
    q_arr = _as_weight_array(q)
    if p_arr.size != q_arr.size:
        raise ValueError("p and q must have the same length")
    mask = p_arr > 0.0
    if np.any(q_arr[mask] == 0.0):
        return float("inf")
    pm = p_arr[mask]
    return float(pm @ (np.log(pm) - np.log(q_arr[mask])))


def gibbs_objective(w, y, dictionary, prior, beta):
    """Expected squared distance under w plus beta times KL(w || prior)."""
    beta = _check_beta(beta)
    arr = _as_weight_array(w, dictionary.m)
    y = as_signal(y, dictionary.n)
    expected = float(arr @ _atom_sq_distances(y, dictionary.atoms))
    kl = kl_divergence(arr, prior)
    if kl == 0.0:
        return expected
    if math.isinf(beta) or math.isinf(kl):
        return float("inf")
    return expected + beta * kl


def ewa_estimate(y, dictionary, prior, beta):
    """The aggregate estimate and the posterior WeightVector in one call."""
    w = posterior_weights(y, dictionary, prior, beta)
    return aggregate(dictionary, w), w


def sampled_prior_ewa(y, prior_sampler, beta, s, rng):
    """Aggregation against a sampled prior.

    ``prior_sampler(rng, s)`` must return s candidate signals as an (s, n)
    array. The estimate is the self-normalized exponentially weighted mean
    of the draws; beta = +inf degenerates to the plain sample mean.
    """
    beta = _check_beta(beta)
    s = int(s)
    if s < 1:
        raise ValueError("s must be a positive integer")
    draws = np.asarray(prior_sampler(rng, s), dtype=np.float64)
    if draws.ndim != 2 or draws.shape[0] != s:
        raise ValueError("prior_sampler must return an (s, n) array")
    if not np.all(np.isfinite(draws)):
        raise ValueError("sampled atoms must be finite")
    y = as_signal(y, draws.shape[1])
    if math.isinf(beta):
        return draws.mean(axis=0)
    return softmax(_log_posterior(0.0, _atom_sq_distances(y, draws), beta))[0] @ draws


def dv_minimality_test(y, dictionary, prior, beta, trials, rng):
    """Check that no perturbed weight vector beats the posterior on the
    Gibbs objective, up to DV_TOLERANCE.

    Alternates Dirichlet jitter concentrated near the posterior with
    uniform draws from the simplex over the prior's support (mass outside
    the support makes the objective infinite, so nothing is lost).
    """
    trials = int(trials)
    if trials < 1:
        raise ValueError("trials must be a positive integer")
    post = posterior_weights(y, dictionary, prior, beta)
    base = gibbs_objective(post, y, dictionary, prior, beta)
    support = prior.support
    k = int(support.sum())
    w_star = post.weights[support]
    worst = -math.inf
    for t in range(trials):
        if t % 2 == 0:
            cand_sub = rng.dirichlet(1.0 + 50.0 * k * w_star)
        else:
            cand_sub = rng.dirichlet(np.ones(k))
        cand = np.zeros(len(prior))
        cand[support] = cand_sub
        violation = base - gibbs_objective(cand, y, dictionary, prior, beta)
        if violation > worst:
            worst = violation
    return DvMinimalityReport(verdict=worst <= DV_TOLERANCE, worst_violation=worst, trials=trials)
