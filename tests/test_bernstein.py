"""Moment profiles: thresholds, penalty coefficients, MGF domination."""

import math
import warnings

import numpy as np
import pytest

from ewa_agg.bernstein import (
    beta_threshold,
    check_noise_mgf,
    default_t_grid,
    mgf_bound,
    mgf_bound_check,
    variance_penalty_coefficient,
)
from ewa_agg.coupling import conditional_zeta_laws
from ewa_agg.noise import (
    FAMILIES,
    BoundedBinaryMixture,
    CenteredBernoulli,
    CenteredBinomial,
    Gaussian,
    Laplace,
)
from ewa_agg.oracle import make_scenario

MIXING = [((0.6, 0.6), 0.4), ((0.35, 0.2), 0.35), ((0.1, 0.45), 0.25)]


class TestProfiles:
    def test_bernoulli(self):
        p = CenteredBernoulli([0.3]).profile()
        assert p.v(0.5) == pytest.approx(0.75)
        assert p.b(0.5) == pytest.approx(0.5)
        assert (p.v_prime_0, p.b_0, p.mgf_normalization) == (1.0, 1.0 / 3.0, 2.0)

    def test_gaussian_takes_largest_sigma(self):
        p = Gaussian([1.0, 1.5]).profile()
        assert p.v(1.0) == pytest.approx(3.0 * 2.25)
        assert p.b(1.0) == 0.0
        assert p.v_prime_0 == pytest.approx(4.5)
        assert p.b_0 == 0.0

    def test_mixture_uses_support_span(self):
        p = BoundedBinaryMixture(0.6, 0.6, [MIXING]).profile()
        span = 1.2
        assert p.v(1.0) == pytest.approx(span * span * 2.0)
        assert p.b(1.0) == pytest.approx(span * 2.0 / 3.0)
        assert p.v_prime_0 == pytest.approx(span * span)
        assert p.b_0 == pytest.approx(span / 3.0)

    def test_binomial(self):
        p = CenteredBinomial(0.2, 5, [0.4]).profile()
        assert p.v(0.5) == pytest.approx(0.04 * 5 * 0.75)
        assert p.b(0.5) == pytest.approx(0.2 * 1.5 / 3.0)
        assert p.v_prime_0 == pytest.approx(0.2)
        assert p.b_0 == pytest.approx(0.2 / 3.0)

    def test_laplace_takes_largest_mu(self):
        p = Laplace([0.5, 2.0]).profile()
        assert p.v(1.0) == pytest.approx(3.0 * 4.0)
        assert p.b(1.0) == pytest.approx(4.0)
        assert (p.v_prime_0, p.b_0, p.mgf_normalization) == (8.0, 2.0, 1.0)

    def test_v_prime_matches_finite_difference(self):
        eps = 1e-7
        for family in FAMILIES:
            model = make_scenario(family, n=3, m=2, replicates=1).noise
            p = model.profile()
            assert p.family == family
            assert p.v(eps) / eps == pytest.approx(p.v_prime_0, rel=1e-6)
            assert p.b(0.0) == pytest.approx(p.b_0, abs=1e-15)


class TestThresholds:
    def test_printed_constants(self):
        # gaussian: 4 sigma^2, no diameter dependence
        for sigma in (0.5, 1.0, 3.0):
            p = Gaussian([sigma]).profile()
            assert beta_threshold(p, 0.0) == 4.0 * sigma * sigma
            assert beta_threshold(p, 7.0) == 4.0 * sigma * sigma
        # bernoulli at unit diameter: 8/3
        p = CenteredBernoulli([0.5]).profile()
        assert beta_threshold(p, 1.0) == pytest.approx(8.0 / 3.0, abs=1e-15)
        # binomial with a = 1/k at unit diameter: 8/(3k)
        for k in (1, 2, 3, 5):
            p = CenteredBinomial(1.0 / k, k, [0.5]).profile()
            assert beta_threshold(p, 1.0) == pytest.approx(8.0 / (3.0 * k), rel=1e-15)
        # laplace: 4 mu^2 + 2 mu d0
        p = Laplace([1.5]).profile()
        assert beta_threshold(p, 2.0) == pytest.approx(4.0 * 2.25 + 2.0 * 1.5 * 2.0)
        # mixture with span L: 2 L^2 + (2/3) L d0
        p = BoundedBinaryMixture(0.6, 0.6, [MIXING]).profile()
        L = 1.2
        assert beta_threshold(p, 0.8) == pytest.approx(2.0 * L * L + (2.0 / 3.0) * L * 0.8)

    def test_penalty_coefficient_zero_at_threshold(self):
        models = [
            CenteredBernoulli([0.3]),
            Gaussian([1.2]),
            BoundedBinaryMixture(0.6, 0.6, [MIXING]),
            CenteredBinomial(0.25, 4, [0.4]),
            Laplace([0.8]),
        ]
        for model in models:
            p = model.profile()
            for d0 in (0.0, 0.5, 1.0, 2.5):
                th = beta_threshold(p, d0)
                assert abs(variance_penalty_coefficient(th, p, d0)) <= 1e-12
                # below the threshold (but inside the domain) the
                # coefficient is positive, above the threshold negative
                below = 2.0 * p.b_0 * d0 + 0.8 * p.v_prime_0
                assert variance_penalty_coefficient(below, p, d0) > 0.0
                assert variance_penalty_coefficient(2.0 * th, p, d0) < 0.0

    def test_penalty_matches_printed_forms(self):
        # each family's penalty-plus-one has a closed form in its own
        # parameters; check on a beta x d0 grid
        grid_d0 = (0.0, 0.3, 1.0, 2.0)
        grid_scale = (1.01, 1.5, 3.0)

        def compare(profile, d0, form):
            for s in grid_scale:
                beta = 2.0 * profile.b_0 * d0 + s  # safely inside the domain
                lhs = variance_penalty_coefficient(beta, profile, d0) + 1.0
                assert lhs == pytest.approx(form(beta, d0), rel=1e-12)

        p = CenteredBernoulli([0.5]).profile()
        for d0 in grid_d0:
            compare(p, d0, lambda beta, d0: 6.0 / (3.0 * beta - 2.0 * d0))
        sigma = 1.3
        p = Gaussian([sigma]).profile()
        for d0 in grid_d0:
            compare(p, d0, lambda beta, d0: 4.0 * sigma * sigma / beta)
        p = BoundedBinaryMixture(0.6, 0.6, [MIXING]).profile()
        L = 1.2
        for d0 in grid_d0:
            compare(p, d0, lambda beta, d0: 6.0 * L * L / (3.0 * beta - 2.0 * L * d0))
        a, k = 0.25, 4
        p = CenteredBinomial(a, k, [0.4]).profile()
        for d0 in grid_d0:
            compare(p, d0, lambda beta, d0: 6.0 * a * a * k / (3.0 * beta - 2.0 * a * d0))
        mu = 0.9
        p = Laplace([mu]).profile()
        for d0 in grid_d0:
            compare(p, d0, lambda beta, d0: 4.0 * mu * mu / (beta - 2.0 * mu * d0))

    def test_penalty_domain_is_strict(self):
        p = Laplace([1.0]).profile()
        edge = 2.0 * p.b_0 * 1.0
        with pytest.raises(ValueError, match="beta must exceed"):
            variance_penalty_coefficient(edge, p, 1.0)
        with pytest.raises(ValueError, match="beta must exceed"):
            variance_penalty_coefficient(edge - 0.1, p, 1.0)

    def test_threshold_rejects_bad_diameter(self):
        p = Gaussian([1.0]).profile()
        with pytest.raises(ValueError):
            beta_threshold(p, -1.0)
        with pytest.raises(ValueError):
            beta_threshold(p, math.inf)


class TestGridAndBound:
    def test_grid_respects_domain(self):
        grid = default_t_grid(0.75, 0.5)
        assert grid.size == 64
        assert np.all(0.5 * np.abs(grid) <= 0.95 + 1e-15)
        assert grid[0] == -grid[-1]

    def test_grid_for_unbounded_profiles(self):
        grid = default_t_grid(4.0, 0.0)
        assert grid.max() == pytest.approx(2.0 / math.sqrt(4.0))
        # the bound at the edge is exp(v t^2 / 2) = exp(2)
        assert mgf_bound(grid.max(), 4.0, 0.0, 2.0) == pytest.approx(math.exp(2.0))

    def test_mgf_bound_domain_error(self):
        with pytest.raises(ValueError, match="b \\* \\|t\\|"):
            mgf_bound(2.1, 1.0, 0.5, 2.0)


class TestMgfChecks:
    def test_exact_discrete_law_passes(self):
        # rho = 1/2, xi = 1/2, alpha = 1/2: the companion stays at 0.25
        # w.p. 5/6 and jumps to -1.25 w.p. 1/6
        model = CenteredBernoulli([0.5])
        laws = conditional_zeta_laws(model, 0.5)
        hand = {(-1.25, 1.0 / 6.0), (0.25, 5.0 / 6.0)}
        got = {(v, p) for v, p in laws[0].atoms()}
        for (hv, hp), (gv, gp) in zip(sorted(hand), sorted(got)):
            assert gv == pytest.approx(hv, abs=1e-15)
            assert gp == pytest.approx(hp, abs=1e-15)
        grid = default_t_grid(0.75, 0.5)
        for law in laws:
            report = mgf_bound_check(law, 0.75, 0.5, 2.0, grid, family="centered_bernoulli")
            assert report.verdict
            assert report.method == "exact"
            assert report.max_ratio <= 1.0 + 1e-12

    def test_false_profile_fails(self):
        model = CenteredBernoulli([0.5])
        law = conditional_zeta_laws(model, 1.0)[0]
        # the claimed variance proxy is far too small for this law
        grid = default_t_grid(0.02, 0.1)
        report = mgf_bound_check(law, 0.02, 0.1, 2.0, grid)
        assert not report.verdict
        assert report.max_ratio > 1.0

    def test_callable_laplace_mgf(self):
        # the Laplace companion is 0 w.p. 1/(1+alpha)^2, else Laplace((1+alpha) mu); at
        # alpha = 1, mu = 1 its MGF is 1/4 + (3/4) / (1 - 4 t^2) on |t| < 1/2
        row = Laplace([1.0]).profile()
        v, b, c = row.v(1.0), row.b(1.0), row.mgf_normalization
        assert (v, b, c) == (3.0, 2.0, 1.0)
        grid = default_t_grid(v, b)
        closed = 0.25 + 0.75 / (1.0 - 4.0 * grid * grid)
        assert np.all(closed <= mgf_bound(grid, v, b, c))

    def test_sampled_gaussian_is_sharp(self):
        # the gaussian companion MGF equals its bound exactly, so the
        # sampled check passes only thanks to the standard-error margin
        rng = np.random.default_rng(41)
        alpha, sigma = 0.5, 1.0
        v = (2.0 * alpha + alpha * alpha) * sigma * sigma
        zeta = rng.normal(0.0, math.sqrt(v), 200_000)
        grid = default_t_grid(v, 0.0)
        report = mgf_bound_check(zeta, v, 0.0, 2.0, grid)
        assert report.verdict
        assert report.method == "sampled"
        assert report.max_ratio == pytest.approx(1.0, abs=0.05)

    def test_sampled_false_profile_fails(self):
        rng = np.random.default_rng(42)
        zeta = rng.normal(0.0, 1.0, 100_000)
        grid = default_t_grid(0.25, 0.0)
        report = mgf_bound_check(zeta, 0.25, 0.0, 2.0, grid)  # claims var 1/4
        assert not report.verdict

    def test_sampled_overflow_fails_closed(self):
        # exp(t x) stays finite at t = 4, x = 100 but its square does not, so
        # the margin overflows; the point must fail, not pass with ratio -inf
        zeta = np.random.default_rng(0).normal(size=1000)
        zeta[0] = 100.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = mgf_bound_check(zeta, 1.0, 0.0, 2.0, np.linspace(4.0, 7.0, 8))
        assert not report.verdict
        assert report.max_ratio == math.inf
        assert report.worst_t == 4.0

    def test_sampled_input_validation(self):
        with pytest.raises(ValueError, match="1-D"):
            mgf_bound_check(np.zeros((3, 3)), 1.0, 0.0, 2.0, np.array([0.1]))


ALL_MODELS = [
    CenteredBernoulli([0.2, 0.7]),
    Gaussian([1.0]),
    BoundedBinaryMixture(0.6, 0.6, [MIXING]),
    CenteredBinomial(0.25, 4, [0.35]),
    Laplace([1.0]),
]


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.family)
@pytest.mark.parametrize("alpha", (0.1, 1.0))
def test_check_noise_mgf_all_families(model, alpha):
    report = check_noise_mgf(
        model, alpha, sample_size=100_000, rng=np.random.default_rng(43)
    )
    assert report.verdict, f"{model.family} ratio {report.max_ratio} at t={report.worst_t}"
    assert report.alpha == alpha
    assert report.points == 64
    doc = report.to_json()
    assert doc["verdict"] == "pass"


def test_binomial_exact_mgf_check_is_pinned():
    # the exact conditional laws of the k = 20 binomial scenario, under ==
    report = check_noise_mgf(make_scenario("centered_binomial", k=20, seed=1).noise, 0.5)
    assert (report.max_ratio, report.worst_t) == (0.9971035063997523, -0.6031746031746081)
    assert report.verdict


def test_infinite_bound_is_met_without_overflow_warning():
    # at alpha = 1 and k = 20 the bound overflows to +inf near the domain
    # edge; the ratio there is 0 and no RuntimeWarning may escape
    model = make_scenario("centered_binomial", k=20, seed=1).noise
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_noise_mgf(model, 1.0)
    assert report.max_ratio == 0.9945488883979142
    assert report.verdict
