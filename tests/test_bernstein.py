"""Moment profiles: thresholds, penalty coefficients, MGF domination."""

import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import law_reference as ref
from ewa_agg.bernstein import (
    MGF_RATIO_TOL,
    MGF_SE_MULTIPLIER,
    BernsteinProfile,
    _grid_walk,
    _one_pass_m2,
    _sampled_moments,
    beta_threshold,
    check_noise_mgf,
    default_t_grid,
    mgf_bound,
    mgf_bound_check,
    variance_penalty_coefficient,
)
from ewa_agg.coupling import CF_BLOCK
from ewa_agg.laws import DiscreteLaw
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
        assert (p.v_prime_0, p.b(0.0), p.mgf_normalization) == (1.0, 1.0 / 3.0, 2.0)

    def test_gaussian_takes_largest_sigma(self):
        p = Gaussian([1.0, 1.5]).profile()
        assert p.v(1.0) == pytest.approx(3.0 * 2.25)
        assert p.b(1.0) == 0.0
        assert p.v_prime_0 == pytest.approx(4.5)
        assert p.b(0.0) == 0.0

    def test_mixture_uses_support_span(self):
        p = BoundedBinaryMixture(0.6, 0.6, [MIXING]).profile()
        span = 1.2
        assert p.v(1.0) == pytest.approx(span * span * 2.0)
        assert p.b(1.0) == pytest.approx(span * 2.0 / 3.0)
        assert p.v_prime_0 == pytest.approx(span * span)
        assert p.b(0.0) == pytest.approx(span / 3.0)

    def test_binomial(self):
        p = CenteredBinomial(0.2, 5, [0.4]).profile()
        assert p.v(0.5) == pytest.approx(0.04 * 5 * 0.75)
        assert p.b(0.5) == pytest.approx(0.2 * 1.5 / 3.0)
        assert p.v_prime_0 == pytest.approx(0.2)
        assert p.b(0.0) == pytest.approx(0.2 / 3.0)

    def test_laplace_takes_largest_mu(self):
        p = Laplace([0.5, 2.0]).profile()
        assert p.v(1.0) == pytest.approx(3.0 * 4.0)
        assert p.b(1.0) == pytest.approx(4.0)
        assert (p.v_prime_0, p.b(0.0), p.mgf_normalization) == (8.0, 2.0, 1.0)

    def test_v_prime_matches_finite_difference(self):
        eps = 1e-7
        for family in FAMILIES:
            model = make_scenario(family, n=3, m=2, replicates=1).noise
            p = model.profile()
            assert p.v(eps) / eps == pytest.approx(p.v_prime_0, rel=1e-6)


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
                below = 2.0 * p.b(0.0) * d0 + 0.8 * p.v_prime_0
                assert variance_penalty_coefficient(below, p, d0) > 0.0
                assert variance_penalty_coefficient(2.0 * th, p, d0) < 0.0

    def test_penalty_matches_printed_forms(self):
        # each family's penalty-plus-one has a closed form in its own
        # parameters; check on a beta x d0 grid
        grid_d0 = (0.0, 0.3, 1.0, 2.0)
        grid_scale = (1.01, 1.5, 3.0)

        def compare(profile, d0, form):
            for s in grid_scale:
                beta = 2.0 * profile.b(0.0) * d0 + s  # safely inside the domain
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
        edge = 2.0 * p.b(0.0) * 1.0
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

    @pytest.mark.parametrize("node", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("b", [0.0, 0.5])
    def test_non_finite_nodes_are_refused(self, node, b):
        # a NaN node passes the domain test b |t| < 1 and t = inf at b = 0 makes 0 * inf:
        # both are refused first, with no RuntimeWarning (an error under this suite)
        x = np.random.default_rng(3).normal(size=1000)
        grid = [0.5, node]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (
                lambda: mgf_bound(grid, 1.0, b, 2.0),
                lambda: mgf_bound_check(x, 1.0, b, 2.0, grid),
                lambda: mgf_bound_check(DiscreteLaw([-1.0, 1.0], [0.5, 0.5]), 1.0, b, 2.0, grid),
            ):
                with pytest.raises(ValueError, match="t must be finite"):
                    call()


class TestMgfChecks:
    def test_exact_discrete_law_passes(self):
        # rho = 1/2, xi = 1/2, alpha = 1/2: the companion stays at 0.25
        # w.p. 5/6 and jumps to -1.25 w.p. 1/6
        model = CenteredBernoulli([0.5])
        laws = model.conditional_rows(0.5).laws()
        hand = {(-1.25, 1.0 / 6.0), (0.25, 5.0 / 6.0)}
        got = {(v, p) for v, p in laws[0].atoms()}
        for (hv, hp), (gv, gp) in zip(sorted(hand), sorted(got)):
            assert gv == pytest.approx(hv, abs=1e-15)
            assert gp == pytest.approx(hp, abs=1e-15)
        grid = default_t_grid(0.75, 0.5)
        reports = []
        for law in laws:
            report = mgf_bound_check(law, 0.75, 0.5, 2.0, grid, "centered_bernoulli", 0.5)
            assert report.verdict
            assert report.method == "exact"
            assert report.max_ratio <= 1.0 + 1e-12
            reports.append(report)
        # the same laws as one batch of rows: the two laws mirror each other, so their
        # ratios tie at opposite t, and the batch reports the first
        rows = mgf_bound_check(model.conditional_rows(0.5), 0.75, 0.5, 2.0, grid, "centered_bernoulli", 0.5)
        assert reports[0].max_ratio == reports[1].max_ratio and reports[0] != reports[1]
        assert rows == reports[0]

    def test_false_profile_fails(self):
        model = CenteredBernoulli([0.5])
        law = model.conditional_rows(1.0).laws()[0]
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
        # the margin overflows; the point must fail, not pass with ratio -inf,
        # whichever block of draws holds the 100. On the symmetric grid +-1, +-3,
        # +-5, +-7 the square at x = +-100 first overflows at |t| = 5, a walked
        # node; the first grid index it fails at is 5 on the right, -7 on the left
        symmetric = np.linspace(-7.0, 7.0, 8)
        assert [[k for _, k in nodes] for _, nodes in _grid_walk(symmetric)] == [[0, 1, 2, 3]] * 2
        cases = ((np.linspace(4.0, 7.0, 8), 100.0, 4.0), (symmetric, 100.0, 5.0), (symmetric, -100.0, -7.0))
        for grid, draw, worst_t in cases:
            for size, at in ((1000, 0), (2 * CF_BLOCK + 7, CF_BLOCK + 5)):
                zeta = np.random.default_rng(0).normal(size=size)
                zeta[at] = draw
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    report = mgf_bound_check(zeta, 1.0, 0.0, 2.0, grid)
                assert not report.verdict
                assert report.max_ratio == math.inf
                assert report.worst_t == worst_t

    def test_merged_m2_keeps_two_pass_accuracy(self):
        # exp(x) has mean about 5e21 and relative spread 1e-6 over three blocks;
        # E[z^2] - E[z]^2 would be off by about 5e-5 of the variance here
        x = 50.0 + 1e-6 * np.random.default_rng(7).normal(size=2 * CF_BLOCK + 123)
        mean, m2 = _sampled_moments(x, np.array([1.0]))
        z = np.exp(x)
        assert mean[0] == pytest.approx(z.mean(), rel=1e-15)
        assert m2[0] == pytest.approx(z.var() * z.size, rel=1e-10)

    @pytest.mark.parametrize(
        "model, coordinate",
        [(Gaussian([0.5, 2.0, 1.0, 2.0]), 0), (Laplace([1.0, 0.3, 3.0]), 1)],
        ids=["gaussian", "laplace"],
    )
    def test_sampled_check_reports_its_worst_coordinate(self, model, coordinate):
        # each coordinate's companions are drawn in coordinate order and checked on their
        # own; the model's report is the first with the largest ratio. Near t = 0 the
        # smallest scale's ratio is the largest, as its margin is the smallest
        alpha, n = 0.5, 20_000
        row = model.profile()
        v, b, c = row.v(alpha), row.b(alpha), row.mgf_normalization
        grid = default_t_grid(v, b)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            reports = [
                mgf_bound_check(model.companion_draws(i, alpha, n, rng), v, b, c, grid, model.family, alpha)
                for i in range(model.dim)
            ]
            ratios = [report.max_ratio for report in reports]
            assert ratios.index(max(ratios)) == coordinate
            got = check_noise_mgf(model, alpha, sample_size=n, rng=np.random.default_rng(seed))
            assert got == reports[coordinate]

    def test_sampled_input_validation(self):
        with pytest.raises(ValueError, match="1-D"):
            mgf_bound_check(np.zeros((3, 3)), 1.0, 0.0, 2.0, np.array([0.1]))


U = 2.0**-53
# the bounds below are first order in u; this factor covers their higher-order terms
SECOND_ORDER = 1.0 + 2.0**-20


def _gamma(n):
    return n * U / (1.0 - n * U)


def _walk_errors(grid, x):
    """Per grid index, the bound the `_sampled_moments` docstring derives on the
    relative error of the node's values against exp(t x): 0 where the node takes its
    own exp, e^L - 1 where it is walked, with its offset dt from its step exact."""
    top = float(np.max(np.abs(x)))
    errors = np.zeros(grid.size)
    for step, nodes in _grid_walk(grid):
        for idx, k in nodes:
            if k == 0:
                anchor = idx
                continue
            t, t_a = float(grid[idx]), float(grid[anchor])
            dt = abs(float(Fraction(t) - Fraction(t_a) - k * Fraction(step)))
            rounding = (abs(t_a) + k * abs(step) + abs(t)) * top + 3 * k + 4
            errors[idx] = math.expm1((dt * top + U * rounding) * SECOND_ORDER)
    return errors


_nodes = st.floats(0.01, 3.0).flatmap(lambda t: st.sampled_from([t, -t]))
# (grid, uniform): unsorted lists of +-t, and linspace grids, which the kernel walks
_grids = st.one_of(
    st.lists(_nodes, min_size=1, max_size=9).map(lambda nodes: (np.array(nodes), False)),
    st.builds(default_t_grid, st.floats(0.5, 4.0), st.just(0.0) | st.floats(0.3, 2.0)).map(
        lambda grid: (grid, True)
    ),
    st.builds(np.linspace, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.integers(2, 16)).map(
        lambda grid: (grid, True)
    ),
)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, CF_BLOCK - 1, CF_BLOCK, CF_BLOCK + 1, 2 * CF_BLOCK + 123]),
    st.integers(0, 2**32 - 1),
    st.floats(0.1, 2.0),
    _grids,
)
def test_sampled_moments_match_the_per_point_formula(size, seed, scale, grid_case):
    # the blocked moments against exp(t x).mean() and the 5-standard-error margin,
    # node by node. Up to one block: byte for byte where the arithmetic is numpy's
    # (the mean of a node that takes its own exp, and its margin too where the
    # guard took two passes), elsewhere within the bound the `_sampled_moments`
    # docstring derives in units of u. Beyond one block, where the merge also
    # orders the sums, to 1e-12.
    grid, uniform = grid_case
    x = np.random.default_rng(seed).laplace(0.3, scale, size)
    walk = _grid_walk(grid)
    if uniform:
        # a linspace grid takes one exp per side and walks every other node
        assert sum(k == 0 for _, nodes in walk for _, k in nodes) == len(walk)
    mean, m2 = _sampled_moments(x, grid)
    margin = MGF_SE_MULTIPLIER * np.sqrt(m2 / (size - 1)) / math.sqrt(size)
    walked = _walk_errors(grid, x)
    for idx, t in enumerate(grid):
        values = np.exp(t * x)
        want = (values.mean(), MGF_SE_MULTIPLIER * values.std(ddof=1) / math.sqrt(size))
        if size > CF_BLOCK:
            assert (mean[idx], margin[idx]) == pytest.approx(want, rel=1e-12)
            continue
        rho = walked[idx]
        if rho == 0.0:
            assert mean[idx] == want[0]
        else:
            assert abs(mean[idx] - want[0]) <= (rho + _gamma(2 * size)) * SECOND_ORDER * want[0]
        if rho == 0.0 and _one_pass_m2(values, values.sum(), want[0]) is None or want[1] == 0.0:
            # numpy's arithmetic, or constant values (t = 0, walked by exp(0 x) = 1)
            assert margin[idx] == want[1]
            continue
        # sqrt(M2) moves by at most rho sqrt(sum v^2) under the walk's errors; the
        # one-pass M2 errs by at most 2^-30 of itself and two passes by gamma_{n+2}
        # plus gamma_n^2 (sum v^2) / M2; the margin's last few operations by 12 u
        spread = float(values @ values) / (float(values.var()) * size)
        two_pass = _gamma(size + 2) + _gamma(size) ** 2 * spread
        rel = rho * math.sqrt(spread) + 2.0**-31 + two_pass + 12 * U
        assert abs(margin[idx] - want[1]) <= rel * SECOND_ORDER * want[1]


def test_walk_takes_its_own_exp_off_the_uniform_progression():
    # a grid whose spacing varies walks nothing; one with an infinite node is refused
    # before any walk; the default grid takes one exp per side, at the nodes nearest 0
    assert _grid_walk(np.array([0.3, -0.1, 0.7, 1.0, -2.0])) == [
        (None, [(0, 0), (2, 0), (3, 0)]),
        (None, [(1, 0), (4, 0)]),
    ]
    x = np.random.default_rng(3).normal(size=1000)
    with pytest.raises(ValueError, match="t must be finite"):
        mgf_bound_check(x, 1.0, 0.0, 2.0, [0.5, 1.0, 1.5, math.inf])
    grid = default_t_grid(0.75, 0.5)
    (right, right_nodes), (left, left_nodes) = _grid_walk(grid)
    assert right == -left == (grid[-1] - grid[0]) / (grid.size - 1)
    assert right_nodes == [(32 + k, k) for k in range(32)]
    assert left_nodes == [(31 - k, k) for k in range(32)]


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
    # the JSON keys are the output contract
    assert tuple(doc) == ("family", "alpha", "method", "max_ratio", "worst_t", "verdict", "points")
    assert doc["verdict"] == "pass"
    # the check-table row: max_ratio is the statistic and 1 its threshold
    row = [model.family, alpha, doc["method"], report.max_ratio, 1.0, "pass"]
    assert report.csv_row() == row


def test_sampled_mgf_check_needs_a_generator():
    # an unseeded verdict would not reproduce; the exact checks draw nothing
    with pytest.raises(ValueError, match="generator"):
        check_noise_mgf(Gaussian([1.0]), 0.5, sample_size=100)
    assert check_noise_mgf(CenteredBernoulli([0.3]), 0.5).verdict


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


@pytest.mark.parametrize(
    "family, shape",
    [("centered_bernoulli", {}), ("bounded_binary_mixture", {}), ("centered_binomial", {"k": 20})],
)
def test_exact_check_fails_a_profile_below_the_variance(family, shape, monkeypatch):
    # v shrunk until the largest conditional variance is 1.005 * 2 v / c at alpha = 0.5:
    # the inequality then fails for small |t|, inside the grid's middle gap, so every
    # grid point passes and only the t -> 0 condition fails the verdict
    alpha = 0.5
    model = make_scenario(family, seed=1, **shape).noise
    profile = model.profile()
    c = profile.mgf_normalization
    v = float(np.max(model.conditional_rows(alpha).variances())) * c / (2.0 * 1.005)
    planted = BernsteinProfile(lambda a: v, profile.b, profile.v_prime_0, c)
    monkeypatch.setattr(model, "profile", lambda: planted)
    report = check_noise_mgf(model, alpha)
    assert report.max_ratio <= 1.0 + MGF_RATIO_TOL
    assert not report.verdict
    assert report == ref.mgf_report(model, alpha)


@settings(max_examples=40, deadline=None)
@given(ref.discrete_models, ref.alphas)
@example(CenteredBinomial(0.625, 1, [0.25]), 5e-324)  # a subnormal atom probability
def test_exact_mgf_check_equals_the_per_law_reference(model, alpha):
    assert check_noise_mgf(model, alpha) == ref.mgf_report(model, alpha)


@pytest.mark.parametrize("alpha", (0.5, 1.0))
def test_exact_mgf_check_of_the_k20_binomial_equals_the_per_law_reference(alpha):
    # at alpha = 1 the bound overflows to +inf at the grid's edge
    model = make_scenario("centered_binomial", k=20, seed=1).noise
    assert check_noise_mgf(model, alpha) == ref.mgf_report(model, alpha)
