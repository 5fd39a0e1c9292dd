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

Replicate r draws its noise from the stream numpy derives for (seed, r),
Generator(PCG64(SeedSequence(seed, spawn_key=(r,)))). The chunk kernel `ewa._replicate_chunk`
turns a chunk's noise rows into their risks and posterior variances, each row the bits of its
one-row call; its docstring says how (guarded distances, the softmax behind
`posterior_weights`, the moments behind `aggregate` and `posterior_variance`). The stream
pipeline: a worker's span of replicates [first, last) gets the words
SeedSequence(seed, spawn_key=(r,)).generate_state(4, np.uint64)
of all its keys from one function of (seed, first, last), `_seed_words`, which redoes numpy's
seed hash in a few array passes and equals numpy's words for every key. Each replicate then
takes Generator(PCG64(_SeedWords(row))): `_SeedWords` holds its row behind numpy's public
`ISeedSequence` interface, and PCG64 seeds itself from it as from the SeedSequence. The
generator makes only the replicate's own calls: the family's raw draw
(`NoiseModel.raw_draw`) and, with prior_samples set, the uniforms of rng.choice(m,
prior_samples, p=prior), which a searchsorted on the prior's cdf, built once per config
as rng.choice builds it (`_choice_cdf`), turns into the replicate's picks. EWA over its
s = prior_samples picks weighted alike is EWA over all m atoms under the picks' counts
c_j / s, so each replicate's counts become its own prior over the dictionary
(`_counted_prior`), and every replicate runs against the one (m, n) atom set. Its chunk then
turns every row's raw draw into noise by one `noise_rows` call. Replicates go through in
chunks of `ewa._chunk_rows` rows, blind to the
worker count and to beta. So results are bit-identical however many workers run, however
replicates are chunked, at any OPENBLAS_NUM_THREADS and however many temperatures share the
pass: `certify_config` makes one pass for its two, and each report equals its own `mc_risk`
run. EWA_AGG_THREADS (default 1) workers share a config whose rows each take
m n > BLOCK_DOUBLES / 2 terms (`ewa._signal_rows(m, n)` is 1), whatever its chunks' rows
and its prior; a smaller one runs on one, as its small numpy calls hold the GIL. A single
span runs in the calling thread, with no pool.

Where the posterior is a point mass on atom j, a tie passes: every risk is the bound's
d_j bit for bit (both sum in `ewa._atom_sq_distances`), every posterior variance is 0, a
constant series has its value as mean and exactly 0 as standard error (`_mean_and_stderr`),
and the Gibbs bound, clamped to [min_j d_j, f], is d_j. Where it is uniform over copies of
one atom, the risk can sit an ulp above d_j, as the weights' sum is not 1 exactly; both
verdicts allow for such rounding (`_rounding_allowance`), scaled by each report's own terms.
"""

import math
import operator
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .bernstein import _gamma, beta_threshold, variance_penalty_coefficient
from .coupling import Report, _as_count
from .ewa import _atom_sq_distances, _chunk_rows, _ewa_inputs, _replicate_chunk, _signal_rows
from .model import (
    Dictionary,
    ExperimentConfig,
    WeightVector,
    logsumexp,
    sup_diameter,
)
from .noise import FAMILIES

CONFIDENCE_MULTIPLIER = 3.0
THREADS_ENV_VAR = "EWA_AGG_THREADS"


# numpy's SeedSequence hash (4-word pool); NEP 19 pins it
_MASK32 = (1 << 32) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # the pool out into state words
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
_STATE_KEYS = 1 << 14  # keys a span derives at once: its transient arrays stay a few MB


def _steps(const, mult, count):
    """The xor and multiply constants of `count` hashmix steps from hash constant `const`: it
    advances with each step, whatever the value hashed."""
    xors, muls = [], []
    for _ in range(count):
        xors.append(const)
        const = const * mult & _MASK32
        muls.append(const)
    return xors, muls


def _hash(value, xor, mul):
    """hashmix on uint32 arrays that broadcast."""
    value = ((value ^ xor) & _MASK32) * mul & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    x = (_MIX_L * x - _MIX_R * y) & _MASK32
    return x ^ x >> 16


def _column(values):
    return np.array(values, np.uint32)[:, None]


def _seed_words(seed, first, last):
    """The words SeedSequence(seed, spawn_key=(r,)).generate_state(4, np.uint64) for r in
    range(first, last), 0 <= first <= last <= 2^64, as one C-contiguous (last - first, 4)
    uint64 array, the words from which PCG64 seeds itself. The seed's pool is numpy's own
    (SeedSequence(seed).pool, which validates the seed). Each key word mixes into the 4 pool
    words of every key at once, one array pass per word position: the low word of every key,
    then the high word of the keys >= 2^32, the only keys with one. The pools hash out 8
    32-bit words, paired low word first."""
    pool = np.random.SeedSequence(seed).pool
    r = np.arange(first, max(first, last), dtype=np.uint64)
    # the seed took 4 hash steps per 32-bit word, padded to 4 words; each key word takes 4 more
    step = _POOL_WORDS * max(-(-operator.index(seed).bit_length() // 32), _POOL_WORDS)
    xors, muls = _steps(_INIT_A, _MULT_A, step + 2 * _POOL_WORDS)
    low, high = slice(step, step + _POOL_WORDS), slice(step + _POOL_WORDS, None)
    pools = _mix(_column(pool), _hash(r.astype(np.uint32), _column(xors[low]), _column(muls[low])))
    wide = min(max(0, (1 << 32) - first), len(r))  # the first key of two words
    if wide < len(r):
        hashed = _hash((r[wide:] >> 32).astype(np.uint32), _column(xors[high]), _column(muls[high]))
        pools[:, wide:] = _mix(pools[:, wide:], hashed)
    xors, muls = _steps(_INIT_B, _MULT_B, 2 * _POOL_WORDS)
    out = _hash(pools[np.arange(2 * _POOL_WORDS) % _POOL_WORDS], _column(xors), _column(muls))
    out = out.astype(np.uint64)
    return (out[0::2] | out[1::2] << 32).T.copy()


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """One replicate's row of `_seed_words`, as the seed sequence PCG64 seeds itself from:
    PCG64(_SeedWords(row)) is the PCG64 of SeedSequence(seed, spawn_key=(r,)). PCG64 reads
    the row's buffer, so the row must be C-contiguous uint64. Any request but PCG64's 4
    uint64 words raises, so that a change in what numpy asks for fails instead of seeding
    another stream."""

    def __init__(self, row):
        self.row = row

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype != np.uint64:
            raise RuntimeError(f"numpy asked for {n_words} words of {dtype}, not 4 of uint64")
        return self.row


def derived_stream(seed, *key):
    """The generator Generator(PCG64(SeedSequence(seed, spawn_key=key))), numpy's own
    derivation, whose seed words `_seed_words` hashes for a whole span of keys (r,). seed and
    the key parts are non-negative integers, as a config's seed is; None or an entropy
    sequence, which SeedSequence also takes, raises TypeError."""
    seeds = np.random.SeedSequence(operator.index(seed), spawn_key=key)
    return np.random.Generator(np.random.PCG64(seeds))


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
    above the finite bound; the prior-mean distance at beta = +inf (`_gibbs_bound`)."""
    return _gibbs_bound(*_ewa_inputs(truth, dictionary, prior, beta))


def _gibbs_bound(prior, d, beta):
    """The Gibbs bound of checked inputs: a prior `WeightVector`, the truth's squared
    distances d_j to the atoms and beta. Where s = sum_j pi0(j) expm1(-d_j / beta) >= -1/16
    (large beta) it is log1p(s) / s times -beta s = sum_j pi0(j) beta (1 - exp(-d_j / beta)),
    a term being d_j where d_j / beta is subnormal, so no digit cancels. Elsewhere it is
    f - beta log sum_j exp((f - t_j) / beta) over the finite bound f's terms t_j: one exponent
    is exactly 0, so the log-sum-exp is >= 0 (f where every (t_j - f) / beta overflows, as at
    subnormal beta). Either value is clamped to [min_j d_j, f], which bracket the bound
    exactly, so a point-mass prior gives its d_j."""
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
        value = (np.log1p(s) / s if s else 1.0) * (pi @ terms)
    elif f == np.inf:  # every t_j overflows: Gibbs <= finite = +inf
        return math.inf
    else:
        with np.errstate(over="ignore"):
            value = f - beta * logsumexp((f - t) / beta)
    return float(min(max(value, d.min()), f))


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


def _choice_cdf(p):
    """The cdf rng.choice(len(p), size, p=p) picks from, built as numpy builds it: its picks
    are cdf.searchsorted(rng.random(size), side="right"). choice also checks p on each call;
    a prior's `WeightVector` checks, made once, are stricter."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _counted_prior(counts, s):
    """The (weights, log-weights) of each row's sampled prior over the m atoms, from the
    (R, m) float counts c_j of its s picks: c_j / s and its log, as WeightVector(c / s) makes
    them, the log written over the counts."""
    weights = counts / s
    with np.errstate(divide="ignore"):
        return weights, np.log(weights, out=counts)


def _run_replicates(config, betas, gaps):
    """One (risks, pvars) pair of per-replicate series per temperature in betas, given gaps,
    the truth's squared distances to the atoms (the Gibbs bound's d_j); what no replicate or
    beta changes is made once. A worker's span seeds its replicates' streams as the module
    docstring's stream pipeline says, for each one's raw noise draw and prior picks, which
    each row counts on its own, so a chunk holds one row's picks at a time. It goes in chunks
    of `_chunk_rows` rows whatever the worker count, beta or prior: one noise transform, then
    one `_replicate_chunk` call for every beta, so each pair is bit for bit a pass at its
    beta alone. A config with `_signal_rows(m, n)` > 1 (m n at most BLOCK_DOUBLES / 2) runs on
    one worker, as its small numpy calls hold the GIL; one span runs in the calling thread,
    with no pool."""
    total, sampled = config.replicates, config.prior_samples
    atoms, truth = config.dictionary.atoms, config.truth
    norms = _atom_sq_distances(0.0, atoms)
    reach = math.sqrt(norms.max()) + math.hypot(*truth.tolist())
    prior = config.prior.weights, config.prior.log_weights
    cdf = _choice_cdf(config.prior.weights)
    m, n = atoms.shape
    rows = _chunk_rows(m, n)
    runs = [(np.empty(total), np.empty(total)) for _ in betas]

    def fill(chunk, words):
        raws, counts = [], np.empty((len(words), m)) if sampled else None
        for i, row in enumerate(words):
            rng = np.random.Generator(np.random.PCG64(_SeedWords(row)))
            raws.append(config.noise.raw_draw(rng))
            if sampled is not None:  # the picks of rng.choice(m, sampled, p=prior), counted
                picks = cdf.searchsorted(rng.random(sampled), side="right")
                counts[i] = np.bincount(picks, minlength=m)
        raws = np.array(raws)  # the list goes before the transform's blocks are made
        xi = config.noise.noise_rows(raws)[0]
        del raws  # and the block before the distance block is
        own = prior if sampled is None else _counted_prior(counts, sampled)
        pairs = _replicate_chunk(xi, atoms, norms, gaps, truth, reach, *own, betas)
        for (risks, pvars), pair in zip(runs, pairs):
            risks[chunk], pvars[chunk] = pair

    def fill_span(lo, hi):  # a chunk's arrays go before the next one's are made
        keys_at_once = rows * max(1, _STATE_KEYS // rows)  # whole chunks
        for first in range(lo, hi, keys_at_once):
            last = min(first + keys_at_once, hi)
            words = _seed_words(config.seed, first, last)
            for start in range(first, last, rows):
                stop = min(start + rows, last)
                fill(slice(start, stop), words[start - first : stop - first])

    workers = worker_count()  # checked even where one worker is taken
    if _signal_rows(m, n) > 1:  # keyed to a row's m n terms, not to the chunk's rows
        workers = 1
    step = -(-total // workers)
    spans = [(lo, min(lo + step, total)) for lo in range(0, total, step)]
    if len(spans) == 1:
        fill_span(*spans[0])
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for future in [pool.submit(fill_span, lo, hi) for lo, hi in spans]:
                future.result()
    return runs


def _mean_and_stderr(values):
    """Mean and standard error, both of the series shifted by its first value (if finite): a
    constant series gives that value and a standard error of exactly 0."""
    first = values[0] if math.isfinite(values[0]) else 0.0  # an infinite one shifts to NaN
    shifted = values - first
    mean = float(first + shifted.mean())
    if values.size < 2:
        return mean, 0.0
    return mean, float(shifted.std(ddof=1)) / math.sqrt(values.size)


def _rounding_allowance(config, bound, penalty, pvar):
    """What a report's verdict adds to its right-hand side: how far rounding alone may put the
    computed left-hand side (mean risk less penalty) above the computed Gibbs bound where the
    exact one is at most the exact bound. With u = 2^-53, gamma_k = k u / (1 - k u) bounds k
    roundings (Higham 2002, section 3.1); take G = gamma_2k over the k atoms a replicate's
    prior may weigh, H = gamma_{n+2} over n coordinates and T = ||t||. k is m, or min(s, m)
    for a prior of s picks: its other atoms have weight 0, and so posterior weight exactly 0,
    and a zero weight adds exact zeros (0 theta = 0 and x + 0 = x for finite theta) to the
    weights' sum and the mean, so whatever order they sum in, each makes at most k - 1
    inexact additions per term. Per replicate let M = sum_j w_j theta_j be the exact mean,
    R = ||M - t||^2 the exact risk, V the posterior variance and P = sum_j w_j ||theta_j -
    t||^2 = R + V:

    - the weights' sum and the gemv mean: fl(sum_j w^_j theta_ji) = sum_j w_j theta_ji
      (1 + theta_2k) lies within G sum_j w_j (|t_i| + |theta_ji - t_i|) of M_i, so the
      computed mean lies within e = G (T + sqrt(P)) of M (Jensen);
    - the squared distance: n + 2 roundings of nonnegative terms, so the computed risk is at
      most (1 + H) (sqrt(R) + e)^2 <= (1 + H) (R + 2 G (T sqrt(P) + P + G (T^2 + P))), and its
      mean over replicates the same in the means of R and P (sqrt is concave);
    - the bound's d_j: the same reduction, so d^_j >= (1 - H) d_j; the Gibbs bound B is
      nondecreasing and concave in d, 0 at d = 0, so the computed one is >= (1 - H) B.

    Where mean R - penalty <= B, the mean R is at most C = (bound + max(penalty, 0)) / (1 - H)
    and the mean P at most C + pvar, so the computed left-hand side exceeds the bound by at
    most 2 H C + 2 (1 + H) G (T sqrt(P) + P + G (T^2 + P)), the allowance, to first order in
    its inputs; atoms of no posterior weight add nothing. Left out: the exp and log of the
    softmax and the bound, the replicate distances' expansion (at most 2^-30 in each d_j /
    beta, and equal for equal atoms), the replicate mean and the posterior variance's
    rounding. At a tie
    between copies of one atom each posterior is uniform over them, the bound is its clamped
    d_j, a constant series keeps its value and the computed variance is at least the exact 0.
    A non-finite allowance (an overflowing norm) is 0, leaving the strict verdict."""
    m = config.dictionary.m
    h, g = _gamma(config.truth.size + 2), _gamma(2 * min(config.prior_samples or m, m))
    cap = (bound + max(penalty, 0.0)) / (1.0 - h)
    p, t = cap + pvar, math.hypot(*config.truth.tolist())
    allowance = 2.0 * h * cap + 2.0 * (1.0 + h) * g * (t * math.sqrt(p) + p + g * (t * t + p))
    return allowance if math.isfinite(allowance) else 0.0


def _reports(checks, profile, d0, threshold):
    """The `RiskReport` of each (config, mode) in checks, configs that differ only in beta.
    Every check runs before one replicate pass serves every beta (`_run_replicates`). The
    truth's squared distances to the atoms are made once, for that pass and every bound."""
    for config, mode in checks:
        if mode == "variance_penalty" and math.isinf(config.beta):
            raise ValueError("variance_penalty mode requires finite beta")
        if mode == "clean" and not math.isinf(config.beta) and config.beta < threshold:
            warnings.warn(
                f"beta={config.beta:g} is below the certified threshold {threshold:g}; "
                "the clean bound is not guaranteed there",
                stacklevel=3,
            )
    coeffs = [
        0.0 if mode == "clean" else variance_penalty_coefficient(config.beta, profile, d0)
        for config, mode in checks
    ]
    first = checks[0][0]
    gaps = _atom_sq_distances(first.truth, first.dictionary.atoms)
    runs = _run_replicates(first, tuple(config.beta for config, _ in checks), gaps)
    reports = []
    for (config, mode), coeff, (risks, pvars) in zip(checks, coeffs, runs):
        risk, risk_se = _mean_and_stderr(risks)
        pvar, pvar_se = _mean_and_stderr(pvars)
        bound = _gibbs_bound(config.prior, gaps, config.beta)
        if coeff != 0.0:
            combined, combined_se = _mean_and_stderr(risks - coeff * pvars)
        else:
            combined, combined_se = risk, risk_se
        penalty = coeff * pvar
        slack = bound + penalty - risk
        allowance = _rounding_allowance(config, bound, penalty, pvar)
        verdict = combined <= bound + allowance + CONFIDENCE_MULTIPLIER * combined_se
        reports.append(RiskReport(
            family=config.noise.family,
            n=config.dictionary.n,
            m=config.dictionary.m,
            beta=config.beta,
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
        ))
    return reports


def mc_risk(config, mode="clean"):
    """Monte Carlo risk certification for one experiment configuration.

    mode "clean" checks risk <= gibbs bound (warning when beta sits below the family
    threshold, where that inequality is not certified); "variance_penalty" adds the
    penalty-coefficient times the mean posterior variance to the right-hand side. Verdicts
    carry a 3-standard-error allowance computed from the per-replicate series of one
    replicate pass at beta, the series `certify_config`'s pass gives each of its two betas.
    """
    if mode not in ("clean", "variance_penalty"):
        raise ValueError("mode must be 'clean' or 'variance_penalty'")
    profile = config.noise.profile()
    d0 = sup_diameter(config.dictionary)
    return _reports([(config, mode)], profile, d0, beta_threshold(profile, d0))[0]


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
    """Run the two certification checks on a configuration: the clean bound at the family
    threshold and the variance-penalty bound at half the threshold. Returns both reports. Both
    checks run before any replicate, and one replicate pass serves both temperatures, so each
    report is bit-identical to its own `mc_risk` run."""
    profile = config.noise.profile()
    d0 = sup_diameter(config.dictionary)
    threshold = beta_threshold(profile, d0)
    clean, half = replace(config, beta=threshold), replace(config, beta=threshold / 2.0)
    return _reports([(clean, "clean"), (half, "variance_penalty")], profile, d0, threshold)


def certify_corollary(family, **params):
    """Build the family's natural scenario (`make_scenario`, its keywords and defaults) and
    certify it both ways."""
    return certify_config(make_scenario(family, **params))
