"""Exponentially weighted aggregation over a finite dictionary.

Given an observation y, atoms theta_1..theta_m, a prior pi0, and a
temperature beta > 0, the posterior weight of atom j is proportional to

    exp(-||y - theta_j||^2 / beta) * pi0(j),

computed in log space with the max-shift trick. The aggregate estimate is
the posterior mean of the atoms. The same posterior is the unique
minimizer of the Gibbs objective

    sum_j w_j ||y - theta_j||^2 + beta * KL(w || pi0)

over probability vectors w, which `dv_minimality_test` probes empirically.
beta = +inf is the degenerate no-data limit: the posterior is the prior; where
every supported d_j / beta overflows, it is the beta -> 0 limit (`_posterior`).
"""

import math
from dataclasses import dataclass

import numpy as np

from .coupling import Report
from .model import WeightVector, _as_count, _as_weight_array, _check_beta, as_signal, softmax

DV_TOLERANCE = 1e-9
BLOCK_DOUBLES = 1 << 16  # 512 KiB of differences: a block stays in a core's L2 cache
EINSUM_BUFFER = 8192  # numpy's iterator buffer; einsum sums a longer row in pieces


@dataclass(frozen=True)
class DvMinimalityReport(Report):
    CSV_HEADER = ("n", "m", "beta", "trials", "worst_violation", "threshold", "verdict")

    n: int
    m: int
    beta: float
    trials: int
    worst_violation: float
    threshold: float
    verdict: bool


def _signal_rows(m, n):
    """How many signals go through `_atom_sq_distances` in one block against m atoms of
    length n: as many as keep the block's differences within BLOCK_DOUBLES, and one where a
    row outgrows einsum's buffer (a longer row sums in other pieces in a block)."""
    return 1 if n > EINSUM_BUFFER else max(1, BLOCK_DOUBLES // (m * n))


def _atom_sq_distances(y, atoms):
    """||theta_j - y||^2 per row theta_j of atoms, from explicit differences (||y||^2 - 2 y.theta
    cancels); at y = 0, the squared norms. An (R, n) block of signals gives (R, m), against one
    (m, n) set of atoms or each signal's own in (R, m, n). Many C-ordered atoms go in blocks of
    rows whose differences stay in cache; einsum sums a row alike in any block, 2-D or 3-D, if
    the row fits its buffer, so a row of a block equals its 1-D call there."""
    y = np.asarray(y)
    if y.ndim == 2:
        if len(y) == 1:
            return _atom_sq_distances(y[0], atoms[0] if atoms.ndim == 3 else atoms)[None]
        diff = (atoms if atoms.ndim == 3 else atoms[None]) - y[:, None]
        return np.einsum("rij,rij->ri", diff, diff)
    m, n = atoms.shape
    if m * n <= BLOCK_DOUBLES or n > EINSUM_BUFFER or not atoms.flags.c_contiguous:
        diff = atoms - y
        return np.einsum("ij,ij->i", diff, diff)
    rows, out = BLOCK_DOUBLES // n, np.empty(m)
    for lo in range(0, m, rows):
        diff = atoms[lo : lo + rows] - y
        np.einsum("ij,ij->i", diff, diff, out=out[lo : lo + rows])
    return out


def _posterior(log_prior, sq_distances, beta):
    """(weights, log-weights): the softmax of log pi0(j) - d_j / beta, an overflowing quotient
    giving -inf, per row of an (R, m) block of distances. A row left with no mass (subnormal
    beta) takes its distances shifted by their minimum over the supported atoms: the
    beta -> 0 limit, the prior restricted to the nearest ones."""
    with np.errstate(over="ignore"):
        log_weights = log_prior - sq_distances / beta
    try:
        return softmax(log_weights)
    except ValueError:  # log_weights is never NaN or +inf, so: some row has no mass
        lost = np.all(log_weights == -np.inf, axis=-1, keepdims=True)
        supported = np.asarray(log_prior) > -np.inf
        nearest = np.min(sq_distances, axis=-1, keepdims=True, where=supported, initial=np.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            limit = log_prior - np.maximum(sq_distances - nearest, 0.0) / beta
        # where every supported distance overflowed there is no limit either: softmax raises
        return softmax(np.where(lost & (nearest < np.inf), limit, log_weights))


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
    return WeightVector(*_posterior(prior.log_weights, d, beta))


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
    s = _as_count(s, "s")
    draws = np.asarray(prior_sampler(rng, s), dtype=np.float64)
    if draws.ndim != 2 or draws.shape[0] != s:
        raise ValueError("prior_sampler must return an (s, n) array")
    if not np.all(np.isfinite(draws)):
        raise ValueError("sampled atoms must be finite")
    y = as_signal(y, draws.shape[1])
    if math.isinf(beta):
        return draws.mean(axis=0)
    return _posterior(0.0, _atom_sq_distances(y, draws), beta)[0] @ draws


def dv_minimality_test(y, dictionary, prior, beta, trials, rng):
    """Check that no perturbed weight vector beats the posterior on the
    Gibbs objective, up to DV_TOLERANCE.

    Alternates Dirichlet jitter concentrated near the posterior with
    uniform draws from the simplex over the prior's support (mass outside
    the support makes the objective infinite, so nothing is lost).
    """
    trials = _as_count(trials, "trials")
    prior, _, beta = _ewa_inputs(y, dictionary, prior, beta)
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
    return DvMinimalityReport(
        n=dictionary.n,
        m=dictionary.m,
        beta=beta,
        trials=trials,
        worst_violation=worst,
        threshold=DV_TOLERANCE,
        verdict=worst <= DV_TOLERANCE,
    )
