"""Oracle bounds, the Monte Carlo harness, scenarios, determinism."""

import json
import math
import threading
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import draw_reference as draws
import moments_reference as moments
from ewa_agg import cli, ewa, oracle
from ewa_agg.bernstein import _gamma, beta_threshold
from ewa_agg.ewa import gibbs_objective, kl_divergence, posterior_weights, squared_distance
from ewa_agg.model import (
    Dictionary,
    ExperimentConfig,
    WeightVector,
    sup_diameter,
)
from ewa_agg.noise import FAMILIES, Gaussian
from ewa_agg.oracle import (
    RiskReport,
    _run_replicates,
    certify_config,
    certify_corollary,
    derived_stream,
    make_scenario,
    mc_risk,
    oracle_bound_finite,
    oracle_bound_gibbs,
    worker_count,
)

RNG_SEED = 20250822


def test_derived_stream_is_keyed_and_reproducible():
    a = derived_stream(7, 3).random(5)
    b = derived_stream(7, 3).random(5)
    c = derived_stream(7, 4).random(5)
    d = derived_stream(8, 3).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    # multi-part keys live in their own namespace
    e = derived_stream(7, 3, 0).random(5)
    assert not np.array_equal(a, e)


def _numpy_stream(seed, *key):
    """numpy's own derivation, the oracle that a replicate's stream must equal (NEP 19 fixes
    it)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def _assert_numpy_words(seed, first, last):
    """The span's `_seed_words` are one C-contiguous uint64 row per key, each row the words
    numpy's SeedSequence gives PCG64: PCG64 reads the row's buffer, so a strided row would
    seed another stream without an error."""
    words = oracle._seed_words(seed, first, last)
    assert words.shape == (last - first, 4) and words.dtype == np.uint64
    assert words.flags.c_contiguous
    for r, row in zip(range(first, last), words.tolist(), strict=True):
        seeds = np.random.SeedSequence(seed, spawn_key=(r,))
        assert row == seeds.generate_state(4, np.uint64).tolist()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), first=st.integers(0, 2**40), size=st.integers(0, 300))
@example(seed=0, first=0, size=0)
@example(seed=0, first=5, size=1)
@example(seed=2**64 - 1, first=2**40, size=3)
@example(seed=RNG_SEED, first=7, size=oracle._STATE_KEYS)  # a whole span block
def test_seated_states_equal_numpy(seed, first, size):
    _assert_numpy_words(seed, first, first + size)


@pytest.mark.parametrize("seed", [0, 1, 7, RNG_SEED, 2**63 + 5, 2**64 - 1, 2**130 + 12_345])
def test_span_states_equal_numpy(seed):
    # the pinned span from one-word keys into two-word ones, which the property's examples
    # leave to this table, at seeds of one word, of two and of more than the pool holds
    _assert_numpy_words(seed, 2**32 - 750, 2**32 + 753)


def _raised(make):
    try:
        make()
    except (TypeError, ValueError) as exc:
        return type(exc)
    return None


_ANY_NUMBER = st.integers(-(2**40), 2**40) | st.floats()


@settings(max_examples=200, deadline=None)
@given(seed=_ANY_NUMBER | st.integers(0, 2**40), key=st.lists(_ANY_NUMBER, max_size=3))
def test_bad_seeds_and_keys_raise_as_numpy_does(seed, key):
    # a span's keys are a range, which holds no bad key; derived_stream takes any key
    assert _raised(lambda: oracle._seed_words(seed, 0, 1)) is _raised(
        lambda: np.random.SeedSequence(seed)
    )
    expected = _raised(lambda: np.random.SeedSequence(seed, spawn_key=key))
    assert _raised(lambda: derived_stream(seed, *key)) is expected


@pytest.mark.parametrize("seed", [None, [1, 2], (3,)])
def test_derived_stream_takes_integer_seeds_only(seed):
    with pytest.raises(TypeError):
        derived_stream(seed, 0)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**128 - 1), first=st.integers(0, 2**40), size=st.integers(1, 6))
@example(seed=2**128 - 1, first=2**32 - 2, size=4)
def test_seated_words_equal_numpy_state(seed, first, size):
    # a generator seated from a row is numpy's own stream for its key, by state and draws;
    # any other request than PCG64's 4 uint64 words raises
    words = oracle._seed_words(seed, first, first + size)
    for r, row in zip(range(first, first + size), words, strict=True):
        seeds = oracle._SeedWords(row)
        for n_words, dtype in [(8, np.uint32), (4, np.uint32)]:
            with pytest.raises(RuntimeError, match="not 4 of uint64"):
                seeds.generate_state(n_words, dtype)
        rng, theirs = np.random.Generator(np.random.PCG64(seeds)), _numpy_stream(seed, r)
        assert rng.bit_generator.state == theirs.bit_generator.state
        assert rng.random(3).tolist() == theirs.random(3).tolist()
        assert rng.standard_normal(3).tolist() == theirs.standard_normal(3).tolist()


class TestOracleBounds:
    def test_finite_hand_value(self):
        # atom 1 sits on the truth; uniform prior over 2 atoms, beta = 4:
        # the bound is 0 + 4 log 2
        d = Dictionary([[0.0, 0.0], [3.0, 3.0]])
        truth = np.array([0.0, 0.0])
        bound = oracle_bound_finite(d, truth, WeightVector.uniform(2), 4.0)
        assert bound == pytest.approx(4.0 * math.log(2.0), rel=1e-15)

    def test_finite_ignores_unsupported_atoms(self):
        # the closest atom carries no prior mass, so it cannot help
        d = Dictionary([[0.0], [10.0]])
        prior = WeightVector([0.0, 1.0])
        bound = oracle_bound_finite(d, np.array([0.0]), prior, 1.0)
        assert bound == pytest.approx(100.0)

    def test_gibbs_hand_value(self):
        # distances {0, 1}, uniform prior, beta = 1:
        # -log((1 + e^-1)/2)
        d = Dictionary([[0.0], [1.0]])
        bound = oracle_bound_gibbs(d, np.array([0.0]), WeightVector.uniform(2), 1.0)
        assert bound == pytest.approx(-math.log((1.0 + math.exp(-1.0)) / 2.0), rel=1e-14)

    def test_gibbs_attained_by_posterior(self):
        # DV: the bound is the infimum of the Gibbs objective at y = truth,
        # and the posterior at y = truth attains it
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(20):
            m = int(rng.integers(2, 9))
            n = int(rng.integers(1, 5))
            d = Dictionary(rng.normal(size=(m, n)))
            truth = rng.normal(size=n)
            prior = WeightVector(rng.dirichlet(np.ones(m)))
            beta = float(rng.uniform(0.5, 6.0))
            bound = oracle_bound_gibbs(d, truth, prior, beta)
            post = posterior_weights(truth, d, prior, beta)
            attained = gibbs_objective(post.weights, truth, d, prior, beta)
            assert bound == pytest.approx(attained, rel=1e-10, abs=1e-10)

    def test_gibbs_is_simplex_infimum_on_a_grid(self):
        # independent check: enumerate a coarse simplex grid; the bound
        # must sit below every grid point and near the grid minimum
        d = Dictionary([[0.0], [0.7], [1.5]])
        truth = np.array([0.2])
        prior = WeightVector([0.5, 0.25, 0.25])
        beta = 1.3
        bound = oracle_bound_gibbs(d, truth, prior, beta)
        best = math.inf
        steps = 40
        for i in range(steps + 1):
            for j in range(steps + 1 - i):
                w = np.array([i, j, steps - i - j], dtype=np.float64) / steps
                val = gibbs_objective(w, truth, d, prior, beta)
                assert bound <= val + 1e-12
                best = min(best, val)
        assert best - bound <= 5e-3

    def test_gibbs_never_exceeds_finite(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        for _ in range(50):
            m = int(rng.integers(2, 10))
            n = int(rng.integers(1, 6))
            d = Dictionary(rng.normal(size=(m, n)))
            truth = rng.normal(size=n)
            prior = WeightVector(rng.dirichlet(np.ones(m)))
            beta = float(rng.uniform(0.2, 10.0))
            gibbs = oracle_bound_gibbs(d, truth, prior, beta)
            finite = oracle_bound_finite(d, truth, prior, beta)
            assert gibbs <= finite

    def test_infinite_beta(self):
        d = Dictionary([[0.0], [1.0]])
        prior = WeightVector([0.25, 0.75])
        truth = np.array([0.0])
        # gibbs degenerates to the prior-mean distance; the finite bound's
        # beta log(1/pi) terms blow up unless some atom has full mass
        assert oracle_bound_gibbs(d, truth, prior, math.inf) == pytest.approx(0.75)
        assert oracle_bound_finite(d, truth, prior, math.inf) == math.inf
        dirac = WeightVector.dirac(2, 1)
        assert oracle_bound_finite(d, truth, dirac, math.inf) == pytest.approx(1.0)

    def test_gibbs_at_subnormal_beta_is_the_finite_limit(self):
        # every d_j / beta overflows; the bound is its beta -> 0 limit, not +inf
        cfg = make_scenario("gaussian", seed=1)
        gibbs = oracle_bound_gibbs(cfg.dictionary, cfg.truth, cfg.prior, 1e-310)
        finite = oracle_bound_finite(cfg.dictionary, cfg.truth, cfg.prior, 1e-310)
        assert gibbs == finite == 3.299050434380092
        nearest = min(squared_distance(atom, cfg.truth) for atom in cfg.dictionary.atoms)
        assert gibbs == pytest.approx(nearest, rel=1e-15)

    def test_gibbs_where_every_distance_overflows(self):
        d = Dictionary([[1e200], [2e200]])
        prior = WeightVector.uniform(2)
        assert oracle_bound_gibbs(d, np.array([0.0]), prior, 1.0) == math.inf
        assert oracle_bound_finite(d, np.array([0.0]), prior, 1.0) == math.inf

    def test_beta_is_checked(self):
        d = Dictionary([[0.0], [1.0]])
        for bound in (oracle_bound_finite, oracle_bound_gibbs):
            for beta in (0.0, -1.0, math.nan):
                with pytest.raises(ValueError, match="beta must be positive"):
                    bound(d, np.array([0.0]), WeightVector.uniform(2), beta)

    def test_accepts_plain_arrays(self):
        d = Dictionary([[0.0], [1.0]])
        a = oracle_bound_gibbs(d, np.array([0.0]), np.array([0.5, 0.5]), 1.0)
        b = oracle_bound_gibbs(d, np.array([0.0]), WeightVector.uniform(2), 1.0)
        assert a == b


_coords = st.floats(-10.0, 10.0)


@st.composite
def _bound_instances(draw):
    """A dictionary, a truth and a prior, some of whose atoms may carry no mass."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    row = st.lists(_coords, min_size=n, max_size=n)
    atoms = draw(st.lists(row, min_size=m, max_size=m))
    truth = np.array(draw(row))
    mass = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    raw = np.array(draw(st.lists(mass, min_size=m, max_size=m).filter(any)))
    return Dictionary(atoms), truth, WeightVector(raw / raw.sum())


# subnormal and normal betas alike, up to 1e308
_all_betas = st.one_of(st.floats(5e-324, 1e308), st.floats(-744.0, math.log(1e308)).map(math.exp))


@settings(max_examples=300, deadline=None)
@given(_bound_instances(), _all_betas)
def test_gibbs_never_exceeds_finite_at_any_beta(instance, beta):
    d, truth, prior = instance
    gibbs = oracle_bound_gibbs(d, truth, prior, beta)
    finite = oracle_bound_finite(d, truth, prior, beta)
    assert math.isfinite(gibbs)
    # the Gibbs bound is the finite one minus beta times a log-sum-exp >= 0, so
    # rounding cannot lift it above
    assert gibbs <= finite


def _log_uniform(lo, hi):
    return st.one_of(st.floats(lo, hi), st.floats(math.log(lo), math.log(hi)).map(math.exp))


def _mp_gibbs_bound(d, prior, beta):
    """-beta log sum_j pi_j exp(-d_j / beta) at 50 digits, over the prior normalized at 50
    digits, through log1p of the expm1 sum where that sum is above -1/2."""
    with mpmath.workdps(50):
        weights = [mpmath.mpf(w) for w in prior]
        pi = [w / mpmath.fsum(weights) for w in weights]
        x = [mpmath.mpf(dj) / mpmath.mpf(beta) for dj in d]
        s = mpmath.fsum(p * mpmath.expm1(-xj) for p, xj in zip(pi, x))
        if s > -0.5:
            return -beta * mpmath.log1p(s)
        return -beta * mpmath.log(mpmath.fsum(p * mpmath.exp(-xj) for p, xj in zip(pi, x)))


@st.composite
def _distance_instances(draw):
    """One-coordinate atoms at squared distances 0 or 1e-300 to 1e150 from a zero truth (a
    subnormal bound has no 12 significant digits to keep), and a prior with zero atoms."""
    m = draw(st.integers(1, 6))
    distance = st.one_of(st.just(0.0), _log_uniform(1e-300, 1e150))
    radii = np.sqrt(draw(st.lists(distance, min_size=m, max_size=m)))
    mass = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    raw = np.array(draw(st.lists(mass, min_size=m, max_size=m).filter(any)))
    return Dictionary(radii[:, None]), WeightVector(raw / raw.sum())


@settings(max_examples=500, deadline=None)
@given(_distance_instances(), _log_uniform(5e-324, 1e308))
def test_gibbs_bound_matches_high_precision(instance, beta):
    d, prior = instance
    truth = np.zeros(1)
    gibbs = oracle_bound_gibbs(d, truth, prior, beta)
    reference = _mp_gibbs_bound(d.atoms[:, 0] ** 2, prior.weights, beta)
    if gibbs < oracle_bound_finite(d, truth, prior, beta):
        # plus 20 steps of 5e-324 (as `_assert_close`): a subnormal bound, as at
        # beta = 5e-324, rounds to a multiple of 5e-324, so no relative error holds there
        assert abs(gibbs - reference) <= 1e-12 * abs(reference) + 1e-322


@settings(max_examples=300, deadline=None)
@given(_bound_instances(), _log_uniform(1e-300, 1e300))
def test_gibbs_bound_is_the_objective_at_the_posterior(instance, beta):
    d, truth, prior = instance
    bound = oracle_bound_gibbs(d, truth, prior, beta)
    value = gibbs_objective(posterior_weights(truth, d, prior, beta), truth, d, prior, beta)
    # beta * KL carries an absolute rounding error of order beta * eps * |log prior|
    assert abs(value - bound) <= 1e-12 * abs(bound) + 1e-14 * beta


def _mp_kl_terms(p, q):
    """(KL(p || q), sum_j p_j (|log p_j| + |log q_j|)) at 50 digits over p_j > 0: the value
    and the scale its float sum's rounding errors are relative to; +inf where q_j = 0."""
    with mpmath.workdps(50):
        pairs = [(mpmath.mpf(pj), mpmath.mpf(qj)) for pj, qj in zip(p, q) if pj > 0.0]
        if any(qj == 0 for _, qj in pairs):
            return mpmath.inf, mpmath.inf
        logs = [(pj, mpmath.log(pj), mpmath.log(qj)) for pj, qj in pairs]
        kl = mpmath.fsum(pj * (lp - lq) for pj, lp, lq in logs)
        return kl, mpmath.fsum(pj * (abs(lp) + abs(lq)) for pj, lp, lq in logs)


def _assert_close(value, reference, scale):
    """value is reference within 1e-13 of scale (a few hundred ulps of the operands' size)
    plus 20 steps of 5e-324, the absolute rounding of a result below the normal range; or
    +inf where reference passes the largest double by more than that."""
    if math.isinf(value) or reference == mpmath.inf:
        assert value == math.inf and reference > (1 - 1e-13) * np.finfo(np.float64).max
    else:
        assert abs(mpmath.mpf(value) - reference) <= 1e-13 * scale + 1e-322


@settings(max_examples=300, deadline=None)
@given(_bound_instances(), _all_betas, st.one_of(st.none(), st.lists(st.floats(0.0, 1.0))))
def test_gibbs_objective_and_kl_match_high_precision(instance, beta, raw):
    # at the posterior (the prior up to rounding at large beta) or at another weight vector,
    # which may charge atoms without prior mass
    d, truth, prior = instance
    if raw is None or len(raw) < d.m or not any(raw[: d.m]):
        w = posterior_weights(truth, d, prior, beta).weights
    else:
        w = np.array(raw[: d.m]) / math.fsum(raw[: d.m])
    kl, kl_scale = _mp_kl_terms(w, prior.weights)
    _assert_close(kl_divergence(w, prior), kl, kl_scale)
    with mpmath.workdps(50):
        diffs = [[mpmath.mpf(a) - mpmath.mpf(t) for a, t in zip(atom, truth)] for atom in d.atoms]
        expected = mpmath.fsum(
            mpmath.mpf(wj) * mpmath.fsum(x * x for x in row) for wj, row in zip(w, diffs)
        )
        objective = expected + (beta * kl if kl else 0)
    value = gibbs_objective(w, truth, d, prior, beta)
    _assert_close(value, objective, expected + beta * kl_scale)


@settings(max_examples=100, deadline=None)
@given(_bound_instances(), st.integers(0, 2**64 - 1))
def test_risk_at_the_largest_finite_beta_is_the_prior_mean_risk(instance, seed):
    # beta -> inf: the posterior log pi0(j) - d_j / beta tends to the prior, so at
    # beta = 1e308 every replicate's aggregate is the prior mean up to rounding. The truth
    # sits 20 or more from the atoms in its first coordinate, so that the squared distance
    # does not cancel and its relative error stays that of the weights.
    d, truth, prior = instance
    truth = truth + np.where(np.arange(d.n) == 0, 30.0, 0.0)
    noise = Gaussian.homogeneous(d.n, 1.0)
    config = ExperimentConfig(truth, d, prior, noise, beta=1e308, replicates=5, seed=seed)
    limit = mc_risk(replace(config, beta=math.inf)).risk
    assert abs(mc_risk(config).risk - limit) <= 1e-12 * limit


def test_worker_count(monkeypatch):
    monkeypatch.delenv("EWA_AGG_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("EWA_AGG_THREADS", "4")
    assert worker_count() == 4
    monkeypatch.setenv("EWA_AGG_THREADS", "zero")
    with pytest.raises(ValueError, match="EWA_AGG_THREADS"):
        worker_count()
    monkeypatch.setenv("EWA_AGG_THREADS", "0")
    with pytest.raises(ValueError):
        worker_count()


def _toy_config(replicates=200, beta=None, prior_samples=None):
    rng = np.random.default_rng(5)
    truth = rng.uniform(0.0, 1.0, 6)
    atoms = truth + rng.uniform(-0.5, 0.5, (5, 6))
    d = Dictionary(atoms)
    noise = Gaussian.homogeneous(6, 1.0)
    if beta is None:
        beta = beta_threshold(noise.profile(), sup_diameter(d))
    return ExperimentConfig(
        truth=truth,
        dictionary=d,
        prior=WeightVector.uniform(5),
        noise=noise,
        beta=beta,
        replicates=replicates,
        seed=RNG_SEED,
        prior_samples=prior_samples,
    )


class TestMcRisk:
    def test_report_fields_and_verdict(self):
        report = mc_risk(_toy_config())
        assert report.mode == "clean"
        assert report.penalty_coefficient == 0.0
        assert report.penalty == 0.0
        assert report.verdict
        assert report.risk <= report.bound + 3.0 * report.stderr
        assert report.slack == pytest.approx(report.bound - report.risk, rel=1e-15)
        doc = report.to_json()
        # the JSON keys are the output contract
        assert tuple(doc) == (
            "family", "n", "m", "beta", "threshold", "mode", "risk", "stderr",
            "mean_posterior_variance", "posterior_variance_stderr", "bound",
            "penalty_coefficient", "penalty", "combined_stderr", "slack", "verdict", "R", "seed",
        )
        assert report.csv_row() == [doc[key] for key in RiskReport.CSV_HEADER]
        assert doc["mode"] == "clean"
        assert doc["verdict"] == "pass"
        assert doc["R"] == 200

    def test_runs_are_reproducible(self):
        a = mc_risk(_toy_config())
        b = mc_risk(_toy_config())
        assert a.risk == b.risk
        assert a.mean_posterior_variance == b.mean_posterior_variance

    def test_thread_count_does_not_change_results(self, monkeypatch):
        monkeypatch.setattr(ewa, "BLOCK_DOUBLES", 30)  # m n = 30: 3 workers, chunks of 30 // 6
        assert ewa._signal_rows(5, 6) == 1
        monkeypatch.delenv("EWA_AGG_THREADS", raising=False)
        serial = mc_risk(_toy_config())
        monkeypatch.setenv("EWA_AGG_THREADS", "3")
        threaded = mc_risk(_toy_config())
        assert serial.risk == threaded.risk
        assert serial.stderr == threaded.stderr
        assert serial.mean_posterior_variance == threaded.mean_posterior_variance

    def test_variance_penalty_mode(self):
        cfg = _toy_config()
        half = replace(cfg, beta=cfg.beta / 2.0)
        report = mc_risk(half, mode="variance_penalty")
        assert report.mode == "variance_penalty"
        assert report.penalty_coefficient > 0.0
        assert report.penalty == pytest.approx(
            report.penalty_coefficient * report.mean_posterior_variance
        )
        assert report.combined_stderr > 0.0
        assert report.verdict

    def test_clean_mode_warns_below_threshold(self):
        cfg = _toy_config()
        with pytest.warns(UserWarning, match="below the certified threshold"):
            mc_risk(replace(cfg, beta=cfg.beta / 2.0), mode="clean")

    def test_variance_penalty_rejects_infinite_beta(self):
        cfg = _toy_config(beta=math.inf)
        with pytest.raises(ValueError, match="finite beta"):
            mc_risk(cfg, mode="variance_penalty")

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            mc_risk(_toy_config(), mode="fast")

    def test_prior_samples_path(self):
        exact = mc_risk(_toy_config(replicates=300))
        sampled = mc_risk(_toy_config(replicates=300, prior_samples=4096))
        assert sampled.verdict
        # self-normalized sampling should sit near the exact-prior risk
        assert sampled.risk == pytest.approx(exact.risk, rel=0.25)


def _replicate_inputs(config, r):
    """Replicate r's noise, atoms, prior and the atoms' picks (None without prior_samples),
    drawn from numpy's own (seed, r) stream."""
    rng = _numpy_stream(config.seed, r)
    xi = config.noise.sample(rng)
    atoms, prior, picks = config.dictionary.atoms, config.prior, None
    if config.prior_samples is not None:
        picks = rng.choice(len(atoms), size=config.prior_samples, p=prior.weights)
        atoms, prior = atoms[picks], WeightVector.uniform(config.prior_samples)
    return xi, atoms, prior, picks


def _public_replicate(config, r):
    """Replicate r through posterior_weights and the one-row moment formulas, drawing from
    numpy's own (seed, r) stream."""
    xi, atoms, prior, _ = _replicate_inputs(config, r)
    post = posterior_weights(config.truth + xi, Dictionary(atoms), prior, config.beta)
    norms = ewa._atom_sq_distances(0.0, atoms)
    risk, pvar = moments.one_row(post.weights, atoms, norms, config.truth)
    return risk, pvar


def _expansion(config, xi, picks=None):
    """`ewa._expanded_sq_distances` of the (R, n) noise rows xi against the config's atoms,
    or against each row's own picks (R, s), with the gaps and the reach `_run_replicates`
    makes once per config."""
    atoms, truth = config.dictionary.atoms, config.truth
    gaps = ewa._atom_sq_distances(truth, atoms)
    reach = math.sqrt(ewa._atom_sq_distances(0.0, atoms).max()) + math.hypot(*truth.tolist())
    if picks is not None:
        atoms, gaps = atoms[picks], gaps[picks]
    return ewa._expanded_sq_distances(xi, atoms, truth, gaps, reach)


def _guarded_replicate(config, r):
    """(risk, pvar, kept): replicate r by the distance rule of `_run_replicates` on that row
    alone. Where the expansion's bound keeps the row at config.beta (finite), its distances
    go through the public softmax and the one-row moment formulas; elsewhere the replicate
    is its `posterior_weights` path."""
    xi, atoms, prior, picks = _replicate_inputs(config, r)
    d, err = _expansion(config, xi[None], None if picks is None else picks[None])
    if math.isinf(config.beta) or not err[0] <= ewa.EXPANSION_TOLERANCE * config.beta:
        return (*_public_replicate(config, r), False)
    post = WeightVector.from_log_weights(prior.log_weights - d[0] / config.beta)
    norms = ewa._atom_sq_distances(0.0, atoms)
    risk, pvar = moments.one_row(post.weights, atoms, norms, config.truth)
    return risk, pvar, True


def _guarded_replicates(config):
    """Every replicate's (risk, pvar) by `_guarded_replicate`: a row the guard refuses is
    compared with its `posterior_weights` path."""
    return [_guarded_replicate(config, r)[:2] for r in range(config.replicates)]


def _kept_rows(config):
    """Whether the guard keeps each replicate's expansion at config.beta."""
    return [_guarded_replicate(config, r)[2] for r in range(config.replicates)]


def _public_path_configs(family, replicates):
    base = make_scenario(family, n=8, m=6, replicates=replicates, seed=3)
    skewed = WeightVector([0.0, 0.1, 0.2, 0.3, 0.15, 0.25])
    return [
        base,  # clean mode runs at the threshold
        replace(base, beta=base.beta / 2.0),  # variance_penalty mode at half of it
        replace(base, prior_samples=9),
        replace(base, beta=math.inf),
        replace(base, prior=skewed),
        replace(base, prior=skewed, prior_samples=5, beta=math.inf),
        replace(base, prior=skewed, beta=1e-310),  # every d_j / beta overflows
    ]


def _replicates(config, betas):
    """`_run_replicates` over betas, given the gaps `_reports` makes once per pass."""
    gaps = ewa._atom_sq_distances(config.truth, config.dictionary.atoms)
    return _run_replicates(config, betas, gaps)


@pytest.mark.parametrize("family", FAMILIES)
def test_replicates_equal_the_public_path(family):
    for config in _public_path_configs(family, replicates=12):
        risks, pvars = _replicates(config, (config.beta,))[0]
        assert list(zip(risks, pvars)) == _guarded_replicates(config)


def _assert_chunks_equal_the_public_path(monkeypatch, config, chunk_rows):
    """Every replicate of `config` equals its one-replicate reference (`_guarded_replicate`)
    when ewa.BLOCK_DOUBLES makes `_signal_rows(m, n)` each row count in `chunk_rows` (m being
    prior_samples when set), at 1 and at 3 workers, alone at config.beta and in one pass that
    also serves +inf, 1e-310 and a finite beta, each of them at its own reference. A sampled
    prior's chunks hold that many rows, the dictionary's min(m, n) times as many (they take
    BLOCK_DOUBLES // max(m, n)). A span derives its states 10 keys at a time (whole chunks),
    so spans cross several key blocks."""
    monkeypatch.setattr(oracle, "_STATE_KEYS", 10)
    n = config.truth.size
    m_eff = config.prior_samples or config.dictionary.m
    betas = (config.beta, math.inf, 1e-310, 0.37)
    public = [_guarded_replicates(replace(config, beta=beta)) for beta in betas]
    for rows in chunk_rows:
        monkeypatch.setattr(ewa, "BLOCK_DOUBLES", rows * m_eff * n)
        assert ewa._signal_rows(m_eff, n) == rows
        for threads in ("1", "3"):
            monkeypatch.setenv("EWA_AGG_THREADS", threads)
            [(risks, pvars)] = _replicates(config, betas[:1])
            assert list(zip(risks, pvars)) == public[0]
            runs = _replicates(config, betas)
            assert [list(zip(risks, pvars)) for risks, pvars in runs] == public


@pytest.mark.parametrize("family", FAMILIES)
def test_replicate_chunks_equal_the_public_path(family, monkeypatch):
    # R = 37 is no multiple of 5 or 7 and splits 13 + 13 + 11 over 3 workers; 64 rows exceed R
    for config in _public_path_configs(family, replicates=37):
        _assert_chunks_equal_the_public_path(monkeypatch, config, (1, 5, 7, 64))


@settings(max_examples=200, deadline=None)
@given(weights=draws.priors(), size=st.integers(1, 500), seed=st.integers(0, 2**64 - 1))
@example(weights=np.array([0.0, 0.0, 1.0, 0.0]), size=50, seed=1)
@example(weights=np.array([0.0, 1e-12, 0.5 - 1e-12, 0.5, 0.0]), size=500, seed=2)
def test_prior_cdf_picks_as_numpy_choice(weights, size, seed):
    prior = WeightVector(weights)
    cdf = oracle._choice_cdf(prior.weights)
    ours = cdf.searchsorted(np.random.default_rng(seed).random(size), side="right")
    theirs = draws.prior_pick(np.random.default_rng(seed), prior.weights, size)
    assert ours.dtype == theirs.dtype
    assert ours.tolist() == theirs.tolist()


@pytest.mark.parametrize(
    "bad",
    [
        [-0.1, 0.3, 0.3, 0.3, 0.2],  # negative
        [math.nan, 0.25, 0.25, 0.25, 0.25],
        [0.2, 0.2, 0.2, 0.2, 0.2 + 1e-9],  # off 1 by less than rng.choice's own tolerance
        [0.3, 0.3, 0.3, 0.3, 0.3],
    ],
)
def test_bad_sampled_prior_is_rejected_before_any_replicate(bad, monkeypatch, tmp_path, capsys):
    # rng.choice no longer sees the prior: the checks made when the config is built must hold
    def no_replicate(*_args):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(oracle, "_SeedWords", no_replicate)
    config = _toy_config(replicates=5, prior_samples=7)  # 5 atoms
    with pytest.raises(ValueError, match="weights"):
        replace(config, prior=bad)
    with pytest.raises(ValueError, match="weights"):
        replace(config, prior=np.array(bad))
    doc = {**config.to_json(), "prior": bad}
    with pytest.raises(ValueError, match="prior is invalid"):
        ExperimentConfig.from_json(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for command in ("simulate", "certify"):
        assert cli.main([command, str(path)]) == 2
        assert "prior is invalid" in capsys.readouterr().err


class _OddDraws(Gaussian):
    """Gaussian noise whose raw draw makes 3 int32 draws first, which leave half of a 64-bit
    output buffered."""

    def raw_draw(self, rng):
        rng.integers(0, 2**31, size=3, dtype=np.int32)
        return super().raw_draw(rng)


def test_reused_generator_leaks_no_buffered_half(monkeypatch):
    # each replicate seats a generator of its own, so no buffered half passes to the next
    config = replace(_toy_config(replicates=37), noise=_OddDraws.homogeneous(6, 1.0))
    _assert_chunks_equal_the_public_path(monkeypatch, config, (1, 5, 64))


def test_replicate_sentinel_fires_on_a_valid_config(monkeypatch, tmp_path):
    # the "rejected before any replicate" tests patch `_SeedWords`: every replicate's
    # generator is seeded through it
    def no_replicate(*_args):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(oracle, "_SeedWords", no_replicate)
    config = _toy_config(replicates=5, prior_samples=7)
    path = tmp_path / "valid.json"
    path.write_text(json.dumps(config.to_json()))
    with pytest.raises(AssertionError, match="a replicate ran"):
        certify_config(config)
    with pytest.raises(AssertionError, match="a replicate ran"):
        cli.main(["simulate", str(path)])


def test_chunked_configs_take_one_worker(monkeypatch):
    # each span hashes its keys' words in one call: record the spans and the threads running
    # them
    spans, seed_words = [], oracle._seed_words

    def recorded(seed, first, last):
        spans.append(((first, last), threading.current_thread() is threading.main_thread()))
        if barrier is not None:
            barrier.wait()  # times out unless every span runs at once
        return seed_words(seed, first, last)

    monkeypatch.setattr(oracle, "_seed_words", recorded)
    monkeypatch.setenv("EWA_AGG_THREADS", "3")
    config = _toy_config(replicates=20)  # 5 atoms of length 6
    assert ewa._signal_rows(5, 6) > 1
    barrier = None
    _replicates(config, (config.beta,))
    assert spans == [((0, 20), True)]  # one span, run inline
    spans.clear()
    monkeypatch.setattr(ewa, "BLOCK_DOUBLES", 30)  # m n = 30 > BLOCK_DOUBLES / 2: the pool runs
    barrier = threading.Barrier(3, timeout=30)
    _replicates(config, (config.beta,))
    assert sorted(spans) == [((0, 7), False), ((7, 14), False), ((14, 20), False)]


@pytest.mark.parametrize("family", FAMILIES)
def test_fallback_seating_equals_the_direct_write(family, monkeypatch):
    # every replicate, seated through `_SeedWords`, draws numpy's own stream: a canned config,
    # a sampled prior, two spans at 2 threads and, for gaussian, a buffered 32-bit half
    canned = make_scenario(family, replicates=40, seed=7)
    wide = make_scenario(family, n=64, m=1100, replicates=6, seed=7)
    assert ewa._signal_rows(wide.dictionary.m, wide.dictionary.n) == 1  # two spans at 2 threads
    cases = [(canned, "1"), (replace(canned, prior_samples=25), "1"), (wide, "2")]
    if family == "gaussian":
        cases.append((replace(_toy_config(37), noise=_OddDraws.homogeneous(6, 1.0)), "1"))
    for config, threads in cases:
        monkeypatch.setenv("EWA_AGG_THREADS", threads)
        betas = (config.beta, config.beta / 2.0)
        for beta, (risks, pvars) in zip(betas, _replicates(config, betas), strict=True):
            assert list(zip(risks, pvars)) == _guarded_replicates(replace(config, beta=beta))


def test_wide_chunks_hold_block_doubles_over_m_rows(monkeypatch):
    # no chunk makes an (m, n) difference block, so an unsampled wide config (m n >
    # BLOCK_DOUBLES) takes BLOCK_DOUBLES // max(m, n) rows per chunk, several chunks per span,
    # across EWA_AGG_THREADS workers; a sampled prior's rows gather their own (s, n) atoms, so
    # it keeps one row per chunk. Each chunk's noise reaches the expansion as one block
    calls, expand = [], ewa._expanded_sq_distances

    def recorded(noise, *args):
        calls.append((len(noise), threading.current_thread() is threading.main_thread()))
        return expand(noise, *args)

    monkeypatch.setattr(ewa, "_expanded_sq_distances", recorded)
    wide = make_scenario("gaussian", n=64, m=1100, replicates=200, seed=7)
    sampled = replace(wide, prior_samples=1100, replicates=20)
    m, n = wide.dictionary.m, wide.dictionary.n
    assert m * n > ewa.BLOCK_DOUBLES and ewa.BLOCK_DOUBLES // max(m, n) == 59
    for config, rows in ((wide, 59), (sampled, 1)):
        runs, total = [], config.replicates
        for workers in (1, 3):
            monkeypatch.setenv("EWA_AGG_THREADS", str(workers))
            calls.clear()
            [run] = _replicates(config, (config.beta,))
            runs.append(np.array(run))
            step = -(-total // workers)
            spans = [(lo, min(lo + step, total)) for lo in range(0, total, step)]
            chunks = [min(rows, hi - at) for lo, hi in spans for at in range(lo, hi, rows)]
            assert len(spans) == workers and len(chunks) > workers
            assert sorted(calls) == sorted((chunk, workers == 1) for chunk in chunks)
        assert runs[0].tobytes() == runs[1].tobytes()


def test_long_signals_take_one_row_at_a_time():
    # a row past einsum's buffer sums in other pieces in a 3-D block, so it goes alone
    config = make_scenario("gaussian", n=9000, m=2, replicates=3, seed=3)
    assert ewa._signal_rows(2, 9000) == 1
    risks, pvars = _replicates(config, (config.beta,))[0]
    assert list(zip(risks, pvars)) == _guarded_replicates(config)


def test_chunk_mixing_rows_with_and_without_mass(monkeypatch):
    # at beta = 1e-310, d / beta overflows past d ~ 0.018: a row keeps mass on the atom at
    # truth only where xi^2 < 0.018, and the others take the beta -> 0 limit within a chunk
    truth = np.array([0.4])
    config = ExperimentConfig(
        truth=truth,
        dictionary=Dictionary([truth, truth + 1.0]),
        prior=WeightVector([0.25, 0.75]),
        noise=Gaussian.homogeneous(1, 0.13),
        beta=1e-310,
        replicates=37,
        seed=RNG_SEED,
    )
    xi = np.array([config.noise.sample(derived_stream(RNG_SEED, r))[0] for r in range(37)])
    with np.errstate(over="ignore"):
        kept = xi**2 / config.beta < np.inf
    assert 5 <= kept.sum() <= 32
    _assert_chunks_equal_the_public_path(monkeypatch, config, (5, 7, 64))


def test_distance_blocks_and_threads_do_not_change_replicates(monkeypatch):
    # a 12-double block differences the toy's 6-dimensional atoms two rows at a time
    monkeypatch.delenv("EWA_AGG_THREADS", raising=False)
    configs = [_toy_config(replicates=40), _toy_config(replicates=40, prior_samples=7)]
    whole = [_replicates(config, (config.beta,))[0] for config in configs]
    monkeypatch.setattr(ewa, "BLOCK_DOUBLES", 12)
    for threads in ("1", "3"):
        monkeypatch.setenv("EWA_AGG_THREADS", threads)
        for config, (risks, pvars) in zip(configs, whole):
            got_risks, got_pvars = _replicates(config, (config.beta,))[0]
            assert np.array_equal(got_risks, risks)
            assert np.array_equal(got_pvars, pvars)


@pytest.mark.parametrize("prior_samples", [None, 4])
def test_one_truth_distance_pass_serves_the_replicates_and_every_bound(prior_samples, monkeypatch):
    # the truth's squared distances to the atoms are the expansion's gaps and the Gibbs
    # bound's d_j: one (m, n) pass per certify_config (two reports) and per mc_risk
    config = make_scenario("gaussian", n=8, m=6, replicates=5, seed=3)
    config = replace(config, prior_samples=prior_samples)
    kernel, passes = ewa._atom_sq_distances, []

    def counted(y, atoms):
        truth, dictionary = config.truth, config.dictionary.atoms
        if np.shape(y) == truth.shape and np.array_equal(y, truth) and atoms is dictionary:
            passes.append(atoms.shape)
        return kernel(y, atoms)

    monkeypatch.setattr(ewa, "_atom_sq_distances", counted)
    monkeypatch.setattr(oracle, "_atom_sq_distances", counted)
    certify_config(config)
    assert passes == [(6, 8)]
    mc_risk(config)
    assert passes == [(6, 8)] * 2


def test_a_replicate_at_two_atoms_takes_the_fallback_at_tiny_beta():
    # atoms 0 and 1 sit within 1e-6 of replicate 0's signal, where the expansion cancels
    # terms of order ||xi||^2 down to ~1e-12; at beta = 1e-12 the posterior spreads over the
    # two and the expansion's rounding would move their log-weights by far more than 2^-30.
    # The guard refuses every row there, as their posterior_weights paths, and keeps every
    # row at the threshold; one pass serves both
    base = _toy_config(replicates=8)
    xi = base.noise.sample(derived_stream(base.seed, 0))
    atoms = base.dictionary.atoms.copy()
    atoms[:2] = base.truth + xi + np.array([[1e-6], [-5e-7]]) / math.sqrt(xi.size)
    config = replace(base, dictionary=Dictionary(atoms), beta=1e-12)
    planted = posterior_weights(config.truth + xi, config.dictionary, config.prior, 1e-12)
    assert min(planted.weights[:2]) > 0.1
    d, err = _expansion(config, xi[None])
    explicit = ewa._atom_sq_distances(config.truth + xi, atoms)
    assert np.abs(d[0, :2] - explicit[:2]).max() / 1e-12 > 2.0**-30 * 1e3
    assert not any(_kept_rows(config)) and all(_kept_rows(replace(config, beta=base.beta)))
    runs = _replicates(config, (1e-12, base.beta))
    public = [_public_replicate(config, r) for r in range(8)]
    assert [list(zip(risks, pvars)) for risks, pvars in runs] == [
        public, _guarded_replicates(replace(config, beta=base.beta))
    ]


def test_every_row_falls_back_at_subnormal_beta_or_an_overflowing_atom():
    # at beta = 1e-310 no bound passes the guard, nor the +inf one that a far atom of
    # weight 0 at 1e155 gives (its squared norm overflows): every row takes the explicit
    # kernel, with the bits of its posterior_weights path
    toy = _toy_config(replicates=20)
    far = np.vstack([toy.dictionary.atoms, np.full((1, 6), 1e155)])
    far_toy = replace(toy, dictionary=Dictionary(far), prior=WeightVector([0.2] * 5 + [0.0]))
    configs = [
        replace(toy, beta=1e-310),
        replace(_toy_config(replicates=20, prior_samples=7), beta=1e-310),
        far_toy,
        replace(far_toy, prior_samples=9),
        _far_atom_config(1e155, 20, seed=0),
    ]
    for config in configs:
        betas = (config.beta, config.beta / 2.0)
        for beta, (risks, pvars) in zip(betas, _replicates(config, betas), strict=True):
            public = replace(config, beta=beta)
            assert not any(_kept_rows(public))
            assert list(zip(risks, pvars)) == [
                _public_replicate(public, r) for r in range(config.replicates)
            ]


def _straddling_config(edge):
    """A gaussian n = 1 config, truth and atoms shifted far from 0, whose median replicate's
    bound sits on the guard at `edge` times the certified threshold: about half of the rows
    keep the expansion there."""
    base = make_scenario("gaussian", n=1, m=5, replicates=40, seed=3)
    threshold = beta_threshold(base.noise.profile(), sup_diameter(base.dictionary))
    xi = [abs(_replicate_inputs(base, r)[0][0]) for r in range(base.replicates)]
    # err = 2 gamma_{n+5} (|xi| + reach)^2 + 2^-1072, reach = max_j |theta_j| + |t|
    reach = math.sqrt(ewa.EXPANSION_TOLERANCE * edge * threshold / (2.0 * _gamma(6)))
    atoms = base.dictionary.atoms
    shift = (reach - float(np.median(xi)) - atoms.max() - base.truth[0]) / 2.0
    return replace(base, truth=base.truth + shift, dictionary=Dictionary(atoms + shift))


@pytest.mark.parametrize("edge", [1.0, 0.5])
def test_rows_straddling_the_guard_keep_their_own_temperature(edge, monkeypatch):
    # the guard cuts the rows at the threshold (edge 1) or at half of it, within one chunk:
    # each beta keeps the rows its own bound admits, so one certify pass gives each report
    # its own mc_risk run, in chunks of 1, 7 or every row and at 1 or 3 workers
    config = _straddling_config(edge)
    threshold = beta_threshold(config.noise.profile(), sup_diameter(config.dictionary))
    betas = (threshold, threshold / 2.0)
    kept = [_kept_rows(replace(config, beta=beta)) for beta in betas]
    assert 0 < sum(kept[edge == 0.5]) < config.replicates
    assert all(kept[0]) if edge == 0.5 else not any(kept[1])
    public = [_guarded_replicates(replace(config, beta=beta)) for beta in betas]
    for rows in (1, 7, 64):
        monkeypatch.setattr(ewa, "BLOCK_DOUBLES", rows * config.dictionary.m)
        for threads in ("1", "3"):
            monkeypatch.setenv("EWA_AGG_THREADS", threads)
            runs = _replicates(config, betas)
            assert [list(zip(risks, pvars)) for risks, pvars in runs] == public
            separate = [
                mc_risk(replace(config, beta=betas[0]), "clean"),
                mc_risk(replace(config, beta=betas[1]), "variance_penalty"),
            ]
            assert [r.to_json() for r in certify_config(config)] == [
                r.to_json() for r in separate
            ]


def test_overflowing_observation_is_rejected():
    # sigma = 1e308 overflows the profile's sigma^2 and the draws by design
    config = replace(_toy_config(replicates=5), noise=Gaussian.homogeneous(6, 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match="signal entries must be finite"):
            mc_risk(config)


@pytest.mark.parametrize("value", [0.1, 3.7416977251043515, 1.2901429954575159, 5e-324, 1e308])
def test_constant_series_has_its_value_and_no_stderr(value):
    # numpy's mean of 200 equal doubles can be off in its last bit; an infinite series
    # keeps its infinite mean (its spread is NaN, as numpy's std makes it)
    assert oracle._mean_and_stderr(np.full(200, value)) == (value, 0.0)
    with np.errstate(invalid="ignore"):
        assert oracle._mean_and_stderr(np.full(3, value * math.inf))[0] == math.inf


_PLANTED = 1.0 - 1e-9  # a bound this much low must fail a tie


def _point_mass(family, n, seed, replicates, dirac):
    """make_scenario's config with one atom, or with five under a Dirac prior on atom
    seed % 5: every replicate's posterior is a point mass on that atom, so its risk is the
    atom's squared distance to the truth, which is also the Gibbs bound."""
    if not dirac:
        return make_scenario(family, n=n, m=1, replicates=replicates, seed=seed)
    config = make_scenario(family, n=n, m=5, replicates=replicates, seed=seed)
    return replace(config, prior=WeightVector.dirac(5, seed % 5))


def _tie_report(config, mode, scale=1.0):
    """mc_risk's report, or certify_config's two where mode is "certify", with the Gibbs bound
    scaled by `scale` (below 1: a planted fault)."""
    bound = oracle._gibbs_bound
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # clean mode below the threshold
        patch.setattr(oracle, "_gibbs_bound", lambda *args: scale * bound(*args))
        return certify_config(config) if mode == "certify" else mc_risk(config, mode)


def _assert_tie(config, mode):
    report = _tie_report(config, mode)
    assert report.verdict, report
    assert report.risk == report.bound and report.stderr == 0.0 == report.combined_stderr
    assert report.mean_posterior_variance == 0.0
    assert not _tie_report(config, mode, _PLANTED).verdict
    return report


def test_point_mass_configs_never_false_fail():
    # 5 families x 40 seeds, n = 7 + seed, R = 64, three sets: one atom in clean mode, one
    # atom in variance_penalty mode at half the threshold, and a Dirac prior on 5 atoms
    runs = 0
    for family in FAMILIES:
        for seed in range(40):
            one = _point_mass(family, 7 + seed, seed, 64, dirac=False)
            _assert_tie(one, "clean")
            _assert_tie(replace(one, beta=one.beta / 2.0), "variance_penalty")
            _assert_tie(_point_mass(family, 7 + seed, seed, 64, dirac=True), "clean")
            runs += 3
    assert runs == 600


def test_duplicated_atom_ties_pass():
    # five copies of one atom under a uniform prior, 5 families x 40 seeds: each posterior is
    # uniform over the copies, so the risk series is constant and the last ulp of the weighted
    # mean once decided the verdict; the rounding allowance passes every tie, in both modes and
    # at both certify temperatures, and still fails the planted bound
    runs = 0
    for family in FAMILIES:
        for seed in range(40):
            one = make_scenario(family, n=7 + seed, m=1, replicates=64, seed=seed)
            copies = Dictionary(np.repeat(one.dictionary.atoms, 5, axis=0))
            config = replace(one, dictionary=copies, prior=WeightVector.uniform(5))
            for mode in ("clean", "variance_penalty", "certify"):
                reports = _tie_report(config, mode)
                for report in reports if mode == "certify" else [reports]:
                    assert report.verdict and report.stderr == 0.0, report
                planted = _tie_report(config, mode, _PLANTED)
                assert not any(r.verdict for r in (planted if mode == "certify" else [planted]))
                runs += 1
    assert runs == 600


def _far_atom_config(far, replicates, seed):
    """Five copies of a gaussian n = 50 atom at prior mass 0.2 each, and at prior mass 0 one
    atom with every entry `far`."""
    one = make_scenario("gaussian", n=50, m=1, replicates=replicates, seed=seed)
    atoms = np.vstack([np.repeat(one.dictionary.atoms, 5, axis=0), np.full((1, 50), far)])
    return replace(one, dictionary=Dictionary(atoms), prior=WeightVector([0.2] * 5 + [0.0]))


@pytest.mark.parametrize("far", [1e8, 1e155])
def test_an_atom_of_no_weight_leaves_the_allowance_alone(far):
    # the allowance follows the report's bound, posterior variance and truth, not the
    # dictionary's widest atom, so the planted bound still fails; at 1e155 the far atom's
    # squared norm overflows and the allowance stays finite
    config = _far_atom_config(far, 64, seed=0)
    report = _tie_report(config, "clean")
    assert report.verdict and report.risk == report.bound and report.stderr == 0.0, report
    allowance = oracle._rounding_allowance(
        config, report.bound, report.penalty, report.mean_posterior_variance
    )
    assert 0.0 <= allowance <= 1e-12 * report.bound
    assert not _tie_report(config, "clean", _PLANTED).verdict


def test_an_overflowing_atom_of_no_weight_leaves_the_variance_finite():
    # the far atom at 1e155, whose squared norm overflows, adds 0 to every replicate's
    # w . ||theta||^2 rather than 0 * inf = NaN: the posterior variance and the penalty stay
    # finite and both verdicts pass at each of six seeds (a NaN variance failed seed 5)
    for seed in range(6):
        config = _far_atom_config(1e155, 200, seed)
        for mode in ("clean", "variance_penalty"):
            report = _tie_report(config, mode)
            assert report.verdict, report
            assert math.isfinite(report.mean_posterior_variance + report.penalty), report


@settings(max_examples=100, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    n=st.integers(1, 64),
    dirac=st.booleans(),
    log_ratio=st.floats(-4.0, 2.0),  # log10(d / beta): the bound takes log1p below ~1/16
    mode=st.sampled_from(("clean", "variance_penalty")),
    replicates=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
)
@example(family="gaussian", n=ewa.EINSUM_BUFFER + 1, dirac=True, log_ratio=-1.3, mode="clean",
         replicates=3, seed=1)
@example(family="centered_bernoulli", n=8, dirac=False, log_ratio=math.log10(0.0645),
         mode="variance_penalty", replicates=64, seed=1)
@example(family="bounded_binary_mixture", n=14, dirac=True, log_ratio=math.log10(0.0646),
         mode="clean", replicates=64, seed=7)
def test_point_mass_risk_is_the_bound_bit_for_bit(
    family, n, dirac, log_ratio, mode, replicates, seed
):
    # the risk and the bound's d_j are one reduction of the same differences, the bound
    # sits in its exact bracket [min_j d_j, f] = {d_j}, and a constant series has stderr 0
    config = _point_mass(family, n, seed, replicates, dirac)
    atom = config.dictionary.atoms[seed % 5 if dirac else 0]
    d = squared_distance(atom, config.truth)
    config = replace(config, beta=d / 10.0**log_ratio)
    if mode == "variance_penalty":
        edge = 2.0 * config.noise.profile().b(0.0) * sup_diameter(config.dictionary)
        assume(config.beta > edge)
    assert _assert_tie(config, mode).bound == d


class TestScenarios:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_beta_is_the_threshold(self, family):
        cfg = make_scenario(family, n=12, m=4, replicates=10)
        expected = beta_threshold(cfg.noise.profile(), sup_diameter(cfg.dictionary))
        assert cfg.beta == expected
        assert cfg.dictionary.m == 4
        assert cfg.dictionary.n == 12
        assert cfg.truth.size == 12
        assert cfg.noise.dim == 12
        assert cfg.noise.family == family

    def test_count_families_tie_noise_to_truth(self):
        cfg = make_scenario("centered_bernoulli", n=9, m=3, replicates=10)
        assert np.array_equal(cfg.noise.rho, cfg.truth)
        cfg = make_scenario("centered_binomial", n=9, m=3, replicates=10, k=4)
        assert np.array_equal(cfg.noise.rho, cfg.truth)
        assert cfg.noise.k == 4
        assert cfg.noise.a == pytest.approx(0.25)

    @pytest.mark.parametrize("k", [2.5, True, math.inf, math.nan, 0, -3])
    def test_binomial_scenario_checks_k_before_deriving_a(self, k):
        # k = 2.5 once ran k = 2 with a = 1/2, True ran k = 1, inf raised OverflowError
        with pytest.raises(ValueError, match="k must be a positive integer"):
            make_scenario("centered_binomial", n=9, m=3, replicates=10, k=k)

    def test_binomial_scenario_takes_an_integral_float_k(self):
        a = make_scenario("centered_binomial", n=9, m=3, replicates=10, k=5.0)
        b = make_scenario("centered_binomial", n=9, m=3, replicates=10, k=5)
        assert a.noise.k == 5 and a.noise.a == 0.2
        assert json.dumps(a.to_json()) == json.dumps(b.to_json())

    def test_same_seed_same_scenario(self):
        a = make_scenario("gaussian", n=8, m=3, replicates=10)
        b = make_scenario("gaussian", n=8, m=3, replicates=10)
        assert np.array_equal(a.truth, b.truth)
        assert np.array_equal(a.dictionary.atoms, b.dictionary.atoms)

    def test_unknown_family_and_params(self):
        with pytest.raises(ValueError, match="family must be one of"):
            make_scenario("cauchy")
        with pytest.raises(ValueError, match="unknown scenario parameters"):
            make_scenario("gaussian", fwhm=2.0)


def test_certify_config_runs_both_modes():
    cfg = _toy_config(replicates=150)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the half-threshold run must not warn
        clean, penalized = certify_config(replace(cfg, beta=99.0))  # beta is overridden
    th = beta_threshold(cfg.noise.profile(), sup_diameter(cfg.dictionary))
    assert clean.mode == "clean"
    assert clean.beta == pytest.approx(th)
    assert penalized.mode == "variance_penalty"
    assert penalized.beta == pytest.approx(th / 2.0)
    assert clean.verdict and penalized.verdict


@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize("family", FAMILIES)
def test_certify_pass_equals_two_separate_passes(family, threads, monkeypatch):
    # one replicate pass serves both temperatures: each report is its own mc_risk run's
    monkeypatch.setenv("EWA_AGG_THREADS", threads)
    canned = make_scenario(family, replicates=40, seed=7)
    mass = np.arange(10) % 7  # atom 0 and atom 7 have none
    skewed = WeightVector(mass / mass.sum())
    wide = make_scenario(family, n=64, m=1100, replicates=9, seed=7)
    assert ewa._signal_rows(canned.dictionary.m, canned.dictionary.n) > 1
    assert ewa._signal_rows(wide.dictionary.m, wide.dictionary.n) == 1
    for config in (canned, replace(canned, prior=skewed, prior_samples=25), wide):
        th = beta_threshold(config.noise.profile(), sup_diameter(config.dictionary))
        separate = [
            mc_risk(replace(config, beta=th), "clean"),
            mc_risk(replace(config, beta=th / 2.0), "variance_penalty"),
        ]
        shared = certify_config(config)
        assert [r.to_json() for r in shared] == [r.to_json() for r in separate]


@pytest.mark.parametrize("family", sorted(set(FAMILIES) - {"gaussian"}))
def test_bad_half_temperature_is_rejected_before_any_replicate(
    family, monkeypatch, tmp_path, capsys
):
    def no_replicate(*_args):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(oracle, "_SeedWords", no_replicate)
    config = make_scenario(family, n=20, m=5, replicates=20_000, seed=RNG_SEED)
    # atoms scaled by 20 widen d0 until v'(0) <= b(0) d0: half the threshold has no coefficient
    config = replace(config, dictionary=Dictionary(config.dictionary.atoms * 20.0))
    with pytest.raises(ValueError, match=r"beta must exceed 2 \* b\(0\) \* d0"):
        certify_config(config)
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(config.to_json()))
    assert cli.main(["certify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "beta must exceed 2 * b(0) * d0" in captured.err


def test_certify_corollary_smoke():
    reports = certify_corollary("centered_bernoulli", n=10, m=4, replicates=200)
    assert [r.mode for r in reports] == ["clean", "variance_penalty"]
    assert all(r.verdict for r in reports)
    assert all(r.family == "centered_bernoulli" for r in reports)
