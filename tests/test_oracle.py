"""Oracle bounds, the Monte Carlo harness, scenarios, determinism."""

import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewa_agg import ewa
from ewa_agg.bernstein import beta_threshold
from ewa_agg.ewa import aggregate, gibbs_objective, posterior_variance, posterior_weights
from ewa_agg.model import (
    Dictionary,
    ExperimentConfig,
    WeightVector,
    squared_distance,
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
@given(_distance_instances(), _log_uniform(1e-3, 1e308))
def test_gibbs_bound_matches_high_precision(instance, beta):
    d, prior = instance
    truth = np.zeros(1)
    gibbs = oracle_bound_gibbs(d, truth, prior, beta)
    reference = _mp_gibbs_bound(d.atoms[:, 0] ** 2, prior.weights, beta)
    if gibbs < oracle_bound_finite(d, truth, prior, beta):
        assert abs(gibbs - reference) <= 1e-12 * abs(reference)


@settings(max_examples=300, deadline=None)
@given(_bound_instances(), st.floats(math.log(1e-3), math.log(1e3)).map(math.exp))
def test_gibbs_bound_is_the_objective_at_the_posterior(instance, beta):
    d, truth, prior = instance
    bound = oracle_bound_gibbs(d, truth, prior, beta)
    value = gibbs_objective(posterior_weights(truth, d, prior, beta), truth, d, prior, beta)
    # beta * KL carries an absolute rounding error of order beta * eps * |log prior|
    assert abs(value - bound) <= 1e-12 * abs(bound) + 1e-14 * beta


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


def _public_replicate(config, r):
    """Replicate r through posterior_weights, aggregate and posterior_variance."""
    rng = derived_stream(config.seed, r)
    y = config.truth + config.noise.sample(rng)
    dictionary, prior = config.dictionary, config.prior
    if config.prior_samples is not None:
        idx = rng.choice(dictionary.m, size=config.prior_samples, p=prior.weights)
        dictionary = Dictionary(dictionary.atoms[idx])
        prior = WeightVector.uniform(config.prior_samples)
    post = posterior_weights(y, dictionary, prior, config.beta)
    risk = squared_distance(aggregate(dictionary, post), config.truth)
    return risk, posterior_variance(dictionary, post)


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


@pytest.mark.parametrize("family", FAMILIES)
def test_replicates_equal_the_public_path(family):
    for config in _public_path_configs(family, replicates=12):
        risks, pvars = _run_replicates(config)
        for r in range(config.replicates):
            assert (risks[r], pvars[r]) == _public_replicate(config, r)


def _assert_chunks_equal_the_public_path(monkeypatch, config, chunk_rows):
    """Every replicate of `config` equals its public path when `_run_replicates` takes each
    row count in `chunk_rows` (set through ewa.BLOCK_DOUBLES) at 1 and at 3 workers."""
    n = config.truth.size
    m_eff = config.prior_samples or config.dictionary.m
    public = [_public_replicate(config, r) for r in range(config.replicates)]
    for rows in chunk_rows:
        monkeypatch.setattr(ewa, "BLOCK_DOUBLES", rows * m_eff * n)
        assert ewa._signal_rows(m_eff, n) == rows
        for threads in ("1", "3"):
            monkeypatch.setenv("EWA_AGG_THREADS", threads)
            risks, pvars = _run_replicates(config)
            assert list(zip(risks, pvars)) == public


@pytest.mark.parametrize("family", FAMILIES)
def test_replicate_chunks_equal_the_public_path(family, monkeypatch):
    # R = 37 is no multiple of 5 or 7 and splits 13 + 13 + 11 over 3 workers; 64 rows exceed R
    for config in _public_path_configs(family, replicates=37):
        _assert_chunks_equal_the_public_path(monkeypatch, config, (1, 5, 7, 64))


def test_long_signals_take_one_row_at_a_time():
    # a row past einsum's buffer sums in other pieces in a 3-D block, so it goes alone
    config = make_scenario("gaussian", n=9000, m=2, replicates=3, seed=3)
    assert ewa._signal_rows(2, 9000) == 1
    risks, pvars = _run_replicates(config)
    assert list(zip(risks, pvars)) == [_public_replicate(config, r) for r in range(3)]


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
    whole = [_run_replicates(config) for config in configs]
    monkeypatch.setattr(ewa, "BLOCK_DOUBLES", 12)
    for threads in ("1", "3"):
        monkeypatch.setenv("EWA_AGG_THREADS", threads)
        for config, (risks, pvars) in zip(configs, whole):
            got_risks, got_pvars = _run_replicates(config)
            assert np.array_equal(got_risks, risks)
            assert np.array_equal(got_pvars, pvars)


def test_overflowing_observation_is_rejected():
    # sigma = 1e308 overflows the profile's sigma^2 and the draws by design
    config = replace(_toy_config(replicates=5), noise=Gaussian.homogeneous(6, 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match="signal entries must be finite"):
            mc_risk(config)


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


def test_certify_corollary_smoke():
    reports = certify_corollary("centered_bernoulli", n=10, m=4, replicates=200)
    assert [r.mode for r in reports] == ["clean", "variance_penalty"]
    assert all(r.verdict for r in reports)
    assert all(r.family == "centered_bernoulli" for r in reports)
