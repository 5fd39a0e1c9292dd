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
every supported d_j / beta overflows, it is the beta -> 0 limit (`_posterior_terms`).
"""

import math
from dataclasses import dataclass

import numpy as np

from .bernstein import _gamma
from .coupling import Report, _as_count
from .model import (
    WeightVector,
    _as_weight_array,
    _check_beta,
    _log_softmax,
    _softmax_terms,
    as_signal,
)

DV_TOLERANCE = 1e-9
BLOCK_DOUBLES = 1 << 16  # 512 KiB of differences: a block stays in a core's L2 cache
EINSUM_BUFFER = 8192  # numpy's iterator buffer; einsum sums a longer row in pieces
EXPANSION_TOLERANCE = 2.0**-30  # the most a replicate's expanded d_j / beta may be off


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


def _signal_rows(k, n):
    """How many atoms of length n go in a block against k signals (`_atom_sq_distances`, and
    `_expanded_sq_distances`' cross term at k = 1): as many as keep a block within
    BLOCK_DOUBLES, and one where a row outgrows einsum's buffer, which sums it in pieces. A
    replicate chunk makes no (m, n) difference block, so its (R, m) weights size it
    (`_chunk_rows`)."""
    return 1 if n > EINSUM_BUFFER else max(1, BLOCK_DOUBLES // (k * n))


def _atom_sq_distances(y, atoms):
    """||theta_j - y||^2 per row theta_j of atoms, from explicit differences (||y||^2 - 2 y.theta
    cancels); at y = 0.0, the squared norms: the package's one explicit reduction (replicate
    weights take `_expanded_sq_distances`, guarded by their distance from it). One signal
    gives (m,), an (R, n) block (R, m), against (m, n) atoms. One loop: blocks of
    `_signal_rows(R, n)` atoms, each one C-ordered difference, which stays in cache, and one
    einsum, which sums a C-ordered row that fits its buffer alike in any block and whatever
    the atoms' memory order. Precondition: R is 1 where n > EINSUM_BUFFER (a longer row must
    go alone), as in every replicate chunk there."""
    y = np.asarray(y)
    signals = y.reshape(-1, 1, y.shape[-1] if y.ndim else 1)
    m, n = atoms.shape
    rows, out = _signal_rows(len(signals), n), np.empty((len(signals), m))
    for lo in range(0, m, rows):
        diff = np.subtract(atoms[lo : lo + rows], signals, order="C")
        np.einsum("rij,rij->ri", diff, diff, out=out[:, lo : lo + rows])
    return out if y.ndim == 2 else out[0]


def _expanded_sq_distances(noise, atoms, truth, gaps, reach):
    """(d, err) for an (R, n) block of noise rows xi, the signals y = fl(t + xi) about the
    truth t, against (m, n) atoms: d is (R, m), the expansion of ||y - theta_j||^2 around the
    truth, with a_j = theta_j - t,

        d_j = ||xi||^2 - 2 (xi . theta_j - xi . t) + ||a_j||^2,

    gaps holding ||a_j||^2 (`_atom_sq_distances(truth, atoms)`, made once per set of atoms),
    and err (R,) bounds |d_j - d~_j| over j, d~ being the explicit kernel
    `_atom_sq_distances(y, atoms)`. reach is max_j ||theta_j|| + ||t||. The cross terms are
    einsums, which call no BLAS and sum each (r, j) alike in any block and at any BLAS thread
    count, so equal atoms give equal columns; no (m, n) difference is made. They go in blocks
    of `_signal_rows(1, n)` atoms, each of which serves every row from cache. Precondition,
    as for `_atom_sq_distances`: R is 1 where n > EINSUM_BUFFER.

    The bound: with u = 2^-53 and gamma_k = k u / (1 - k u) (Higham 2002, section 3.1), take
    S = (||xi|| + reach)^2, which dominates ||xi||^2 + 2 ||xi|| (||theta_j|| + ||t||) +
    ||a_j||^2, the sum of the magnitudes of the terms, and E_j = ||xi - a_j||^2 <= S.

    - ||xi||^2, xi . theta_j and xi . t each err within gamma_n of the sum of their terms'
      magnitudes, ||a_j||^2 within gamma_{n+2} (its differences round too); the three
      combining roundings, fl(P - Q), fl(N - 2 .) and fl(. + A) (doubling is exact), make it
      gamma_{n+3} (lemma 3.3), so |d_j - E_j| <= gamma_{n+3} S;
    - y = (t + xi)(1 + delta) by coordinate, ||y - (t + xi)|| <= u sqrt(S), so the exact
      D_j = ||y - theta_j||^2 lies within (2 u + u^2) S <= gamma_2 S of E_j;
    - the explicit kernel rounds a difference, a square and n - 1 sums of nonnegative
      terms: |d~_j - D_j| <= gamma_{n+2} D_j <= gamma_{n+2} (1 + u)^2 S <= gamma_{n+4} S;
    - a product that underflows errs by up to 2^-1075 absolutely instead, once per multiply
      (fused or not) of d, the cross terms counting twice, and of d~: under 7 n 2^-1075
      (1 + gamma).

    So err = 2 gamma_{n+5} S + n 2^-1072 >= (gamma_{n+5} + gamma_{n+4}) S + 7 n 2^-1075
    (1 + gamma); the margin over gamma_{n+5} + gamma_{n+4} also covers err's own rounding.
    Where err <= EXPANSION_TOLERANCE beta, d_j / beta, the one term of a log-weight that the
    signal enters, is within 2^-30 of the explicit kernel's. An overflowing norm makes err
    +inf, which no beta admits."""
    bound = 2.0 * _gamma(noise.shape[-1] + 5)
    sq_noise = _atom_sq_distances(0.0, noise)
    d, step = np.empty((len(noise), len(atoms))), _signal_rows(1, noise.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(atoms), step):  # a block of atoms, from cache, serves every row
            np.einsum("rk,jk->rj", noise, atoms[lo : lo + step], out=d[:, lo : lo + step])
        d -= np.einsum("rk,k->r", noise, truth)[:, None]
        d *= -2.0
        d += sq_noise[:, None]
        d += gaps
        err = bound * (np.sqrt(sq_noise) + reach) ** 2 + noise.shape[-1] * 2.0**-1072
    return d, err


def squared_distance(a, b):
    """Sum of squared coordinate differences: `_atom_sq_distances` on one pair."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(_atom_sq_distances(b, a[None])[0])


def _posterior_terms(log_prior, sq_distances, beta):
    """The softmax terms (`model._softmax_terms`) of log pi0(j) - d_j / beta, an overflowing
    quotient giving -inf, per row of an (R, m) block of distances. A row left with no mass
    (subnormal beta) takes its distances shifted by their minimum over the supported atoms:
    the beta -> 0 limit, the prior restricted to the nearest ones."""
    with np.errstate(over="ignore"):
        log_weights = log_prior - sq_distances / beta
    try:
        return _softmax_terms(log_weights)
    except ValueError:  # log_weights is never NaN or +inf, so: some row has no mass
        lost = np.all(log_weights == -np.inf, axis=-1, keepdims=True)
        supported = np.asarray(log_prior) > -np.inf
        nearest = np.min(sq_distances, axis=-1, keepdims=True, where=supported, initial=np.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            limit = log_prior - np.maximum(sq_distances - nearest, 0.0) / beta
        # where every supported distance overflowed there is no limit either: softmax raises
        return _softmax_terms(np.where(lost & (nearest < np.inf), limit, log_weights))


def _posterior(log_prior, sq_distances, beta):
    """The posterior weights of `_posterior_terms` alone, with no log-weights made."""
    e, s, _ = _posterior_terms(log_prior, sq_distances, beta)
    return e / s


def _posterior_moments(w, atoms, sq_norms, truth):
    """(risks, variances) per row of an (R, m) block of weights over (m, n) atoms and their
    squared norms: ||mean - truth||^2 and w . sq_norms - ||mean||^2 clamped at 0 as Python's
    max clamps it (NaN passes). The two weighted sums are stacked matmuls, each row's BLAS
    gemv or dot of its 1-D product (a 2-D gemm sums otherwise); both squared norms come from
    `_atom_sq_distances` on the (R, n) means, so a point-mass row gives the bound's own d_j
    and a variance of exactly 0."""
    mean = (w[:, None] @ atoms)[:, 0]
    if np.isinf(sq_norms).any():  # an atom of weight 0 adds 0 to w . sq_norms, not 0 * inf
        sq_norms = np.where(w == 0.0, 0.0, sq_norms)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, as in Python floats
        spread = (w[:, None] @ sq_norms[..., None])[:, 0, 0] - _atom_sq_distances(0.0, mean)
    return _atom_sq_distances(truth, mean), np.where(0.0 > spread, 0.0, spread)


def _chunk_rows(m, n):
    """How many replicates go in a `_replicate_chunk` call against m atoms of length n. A chunk
    makes no (m, n) difference block, so its (R, m) distances, weights and priors are the
    largest blocks it makes: BLOCK_DOUBLES // max(m, n) rows, or one where n outgrows einsum's
    buffer, the precondition of the kernel's distance loops."""
    return 1 if n > EINSUM_BUFFER else max(1, BLOCK_DOUBLES // max(m, n))


def _replicate_chunk(xi, atoms, sq_norms, gaps, truth, reach, weights, log_weights, betas):
    """One (risks, variances) pair of (R,) series per temperature in betas for a chunk of
    replicates: the (R, n) noise rows xi about the truth t, each row's signal y = fl(t + xi),
    against the (m, n) atoms, given with their squared norms and gaps ||theta_j - t||^2 (the
    Gibbs bound's own d_j), reach (max_j ||theta_j|| + ||t||, `_expanded_sq_distances`), the
    prior's weights and log-weights, which broadcast to (R, m): one (m,) prior that every row
    shares, or each row's own, and the temperatures. Precondition, as for
    `_atom_sq_distances`: R is 1 where n > EINSUM_BUFFER; `_chunk_rows` sizes a chunk.

    The weights' distances come from the expansion around the truth,
    `_expanded_sq_distances`: ||xi||^2 - 2 (xi . theta_j - xi . t) + ||theta_j - t||^2, the
    cross term by BLAS-free einsums over blocks of atoms that stay in cache, with a bound
    err_r on each row's distance from the explicit kernel. A row keeps the expansion at a
    beta where err_r <= 2^-30 beta (EXPANSION_TOLERANCE), so its d_j / beta is within 2^-30
    of `posterior_weights`'; the rows refused at the lowest finite beta take
    `_atom_sq_distances` once, and each beta takes the explicit rows its own guard refuses
    (none of either if every beta is +inf, whose weights are the prior). Then per
    temperature one row-wise softmax, of the weights alone (`_posterior`), and one moments
    call (`_posterior_moments`: two stacked matmuls, each row's BLAS call where a 2-D gemm
    would sum in another order, and the squared norms by the explicit loop). So each row
    gives the bits of its one-row call, at any BLAS thread count and whatever betas share
    the call, and each pair is bit for bit a call at its beta alone."""
    y = truth + xi
    if not np.all(np.isfinite(y)):
        raise ValueError("signal entries must be finite")
    lowest = min((beta for beta in betas if not math.isinf(beta)), default=None)
    if lowest is not None:
        d, err = _expanded_sq_distances(xi, atoms, truth, gaps, reach)
        explicit, refit = d, ~(err <= EXPANSION_TOLERANCE * lowest)
        if refit.any():  # the rows the guard refuses at the lowest beta, once
            explicit = d.copy()
            explicit[refit] = _atom_sq_distances(y[refit], atoms)
    pairs = []
    for beta in betas:
        if math.isinf(beta):
            w = np.broadcast_to(weights, (len(xi), len(atoms)))
        else:
            kept = (err <= EXPANSION_TOLERANCE * beta)[:, None]
            w = _posterior(log_weights, np.where(kept, d, explicit), beta)
        pairs.append(_posterior_moments(w, atoms, sq_norms, truth))
    return pairs


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
    return WeightVector(*_log_softmax(*_posterior_terms(prior.log_weights, d, beta)))


def aggregate(dictionary, w):
    """Weighted mean of the atoms; accepts a WeightVector or a plain
    probability vector."""
    return _as_weight_array(w, dictionary.m) @ dictionary.atoms


def posterior_variance(dictionary, w):
    """sum_j w_j ||theta_j||^2 - ||sum_j w_j theta_j||^2, clamped at 0."""
    w, norms = _as_weight_array(w, dictionary.m)[None], _atom_sq_distances(0.0, dictionary.atoms)
    return float(_posterior_moments(w, dictionary.atoms, norms, 0.0)[1][0])


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
    return _posterior(0.0, _atom_sq_distances(y, draws), beta) @ draws


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
