"""Noise amplification couplings: branch laws, exact identities,
statistical checks for the continuous families."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ewa_agg.coupling import (
    CF_BLOCK,
    CF_POINTS,
    CouplingDraw,
    branch_law,
    bernoulli_coupling_branches,
    binary_coupling_branches,
    conditional_zeta_laws,
    couple_bernoulli,
    couple_binary,
    couple_binomial,
    couple_gaussian,
    couple_laplace,
    exact_coupled_sum_law,
    ks_two_sample_threshold,
    max_conditional_mean_error,
    sample_coupling,
    verify_coupling,
    _empirical_cf_gap,
    _ks_statistic,
)
from ewa_agg.noise import (
    FAMILIES,
    BoundedBinaryMixture,
    CenteredBernoulli,
    CenteredBinomial,
    DiscreteLaw,
    Gaussian,
    Laplace,
    max_atom_probability_error,
)
from ewa_agg.oracle import make_scenario

MIXING = [((0.6, 0.6), 0.4), ((0.35, 0.2), 0.35), ((0.1, 0.45), 0.25)]
ALPHAS = (0.1, 0.25, 0.5, 1.0)


class TestBranchLaws:
    def test_bernoulli_hand_values(self):
        # rho = 1/2, xi = 1/2, alpha = 1:
        # stay at zeta = 1/2 w.p. (2 - 1/2)/2 = 3/4, jump to -3/2 w.p. 1/4
        sv, sp, jv, jp = bernoulli_coupling_branches(0.5, 1.0)
        assert (sv, sp, jv, jp) == (0.5, 0.75, -1.5, 0.25)

    def test_binary_hand_values(self):
        # support {2, -1}, alpha = 1/2, conditioning on eta = 2:
        # stay at alpha*a = 1 w.p. (1.5*1 + 2)/(1.5*3) = 7/9
        sv, sp, jv, jp = binary_coupling_branches(2.0, 1.0, 2.0, 0.5)
        assert float(sv) == 1.0
        assert float(sp) == pytest.approx(7.0 / 9.0, rel=1e-15)
        assert float(jv) == -3.5
        # symmetric support {1, -1}, alpha = 1, from eta = 1
        sv, sp, jv, jp = binary_coupling_branches(1.0, 1.0, 1.0, 1.0)
        assert (float(sv), float(sp), float(jv)) == (1.0, 0.75, -3.0)

    def test_binary_reduces_to_bernoulli(self):
        # {1 - rho, -rho} is the binary support with a = 1 - rho, b = rho
        for rho in (0.1, 0.45, 0.8):
            for alpha in ALPHAS:
                for xi in (1.0 - rho, -rho):
                    bern = bernoulli_coupling_branches(xi, alpha)
                    binr = binary_coupling_branches(1.0 - rho, rho, xi, alpha)
                    for x, y in zip(bern, binr):
                        assert float(x) == pytest.approx(float(y), abs=1e-15)

    def test_probabilities_are_probabilities(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            rho = float(rng.uniform(0.01, 0.99))
            alpha = float(rng.uniform(0.0, 1.0))
            for xi in (1.0 - rho, -rho):
                _, sp, _, jp = bernoulli_coupling_branches(xi, alpha)
                assert 0.0 <= sp <= 1.0
                assert sp + jp == pytest.approx(1.0, abs=1e-15)

    def test_conditional_mean_zero_algebraically(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            alpha = float(rng.uniform(0.0, 1.0))
            a = float(rng.uniform(0.0, 2.0))
            b = float(rng.uniform(0.0, 2.0))
            if a + b < 1e-6:
                continue
            for eta in (a, -b):
                sv, sp, jv, jp = binary_coupling_branches(a, b, eta, alpha)
                assert float(sv * sp + jv * jp) == pytest.approx(0.0, abs=1e-12)

    def test_alpha_zero_is_a_no_op(self):
        sv, sp, jv, jp = bernoulli_coupling_branches(0.7, 0.0)
        assert (sv, sp, jp) == (0.0, 1.0, 0.0)
        rng = np.random.default_rng(13)
        assert couple_bernoulli(0.7, 0.3, 0.0, rng) == 0.0
        assert couple_laplace(1.0, 0.0, rng) == 0.0


DISCRETE_MODELS = [
    CenteredBernoulli([0.1, 0.3, 0.5, 0.7, 0.9]),
    BoundedBinaryMixture(0.6, 0.6, [MIXING]),
    CenteredBinomial(0.2, 3, [0.25, 0.65]),
]


@pytest.mark.parametrize("model", DISCRETE_MODELS, ids=lambda m: m.family)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_exact_amplification_identity(model, alpha):
    for i in range(model.dim):
        lhs = exact_coupled_sum_law(model, i, alpha)
        rhs = model.exact_law(i).scale(1.0 + alpha)
        assert max_atom_probability_error(lhs, rhs) <= 1e-12
    assert max_conditional_mean_error(model, alpha) <= 1e-12


@pytest.mark.parametrize("model", DISCRETE_MODELS, ids=lambda m: m.family)
def test_conditional_laws_are_centered(model):
    for alpha in (0.25, 1.0):
        for law in conditional_zeta_laws(model, alpha):
            assert abs(law.mean()) <= 1e-12
            assert abs(sum(p for _, p in law.atoms()) - 1.0) <= 1e-12


@pytest.mark.parametrize("model", DISCRETE_MODELS, ids=lambda m: m.family)
def test_verify_coupling_exact(model):
    report = verify_coupling(model, 0.5, method="exact")
    assert report.verdict
    assert report.exact
    assert report.statistic <= 1e-12
    assert report.mean_zero <= 1e-12
    assert report.sample_size is None


class TestSamplers:
    def test_couple_bernoulli_scalar_and_vector(self):
        rng = np.random.default_rng(21)
        z = couple_bernoulli(0.7, 0.3, 0.5, rng)
        assert isinstance(z, float)
        zs = couple_bernoulli(np.array([0.7, -0.3]), np.array([0.3, 0.3]), 0.5, rng)
        assert zs.shape == (2,)

    def test_couple_bernoulli_rejects_off_support(self):
        rng = np.random.default_rng(22)
        with pytest.raises(ValueError, match="support"):
            couple_bernoulli(0.5, 0.3, 0.5, rng)
        with pytest.raises(ValueError, match="rho"):
            couple_bernoulli(1.0, 1.0, 0.5, rng)

    def test_couple_bernoulli_branch_frequencies(self):
        # conditioned on xi = 0.5 (rho = 0.5, alpha = 1) the companion stays
        # at 0.5 w.p. 3/4 and jumps to -1.5 w.p. 1/4
        rng = np.random.default_rng(23)
        n = 40_000
        zs = couple_bernoulli(np.full(n, 0.5), np.full(n, 0.5), 1.0, rng)
        stay = float(np.mean(zs == 0.5))
        jump = float(np.mean(zs == -1.5))
        assert stay + jump == 1.0
        assert stay == pytest.approx(0.75, abs=5.0 * math.sqrt(0.75 * 0.25 / n))

    def test_couple_binomial_shapes(self):
        rng = np.random.default_rng(24)
        z = couple_binomial(np.array([0.6, -0.4, 0.6]), 0.5, 0.5, rng)
        assert isinstance(z, float)
        eta = np.where(np.random.default_rng(1).random((3, 50)) < 0.4, 0.6, -0.4)
        zs = couple_binomial(eta, 0.5, 0.5, rng)
        assert zs.shape == (50,)

    def test_couple_binomial_rejects_mixed_supports(self):
        rng = np.random.default_rng(25)
        with pytest.raises(ValueError, match="support"):
            couple_binomial(np.array([0.6, 0.7]), 0.5, 0.5, rng)  # two distinct rhos
        with pytest.raises(ValueError, match="shape"):
            couple_binomial(np.zeros((2, 2, 2)), 0.5, 0.5, rng)

    def test_couple_gaussian_variance(self):
        rng = np.random.default_rng(26)
        n = 100_000
        alpha, sigma = 0.5, 1.5
        zs = couple_gaussian(np.full(n, sigma), alpha, rng)
        target = (2.0 * alpha + alpha * alpha) * sigma * sigma
        assert zs.mean() == pytest.approx(0.0, abs=5.0 * math.sqrt(target / n))
        assert zs.var() == pytest.approx(target, rel=0.05)

    def test_couple_laplace_zero_mass(self):
        rng = np.random.default_rng(27)
        n = 100_000
        alpha = 1.0
        zs = couple_laplace(np.full(n, 1.0), alpha, rng)
        stay = float(np.mean(zs == 0.0))
        p0 = 1.0 / (1.0 + alpha) ** 2
        assert stay == pytest.approx(p0, abs=5.0 * math.sqrt(p0 * (1 - p0) / n))

    def test_invalid_alpha(self):
        rng = np.random.default_rng(28)
        for bad in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="alpha"):
                couple_gaussian(1.0, bad, rng)


@pytest.mark.parametrize("family", FAMILIES)
def test_sample_coupling_dispatch(family):
    model = make_scenario(family, n=4, m=2, replicates=1).noise
    draw = sample_coupling(model, 0.5, np.random.default_rng(31))
    assert isinstance(draw, CouplingDraw)
    assert draw.alpha == 0.5
    assert np.shape(draw.xi) == (model.dim,)
    assert np.shape(draw.zeta) == (model.dim,)
    # xi and its record come first from the generator, then zeta
    xi, record = model.sample_with_latents(np.random.default_rng(31))
    assert np.array_equal(draw.xi, xi)
    assert set(draw.conditioning_record) == set(record)


def test_sample_coupling_conditional_mean_by_record():
    # group bernoulli draws by the observed xi; each group's zeta mean
    # must vanish within Monte Carlo error
    model = CenteredBernoulli([0.3])
    rng = np.random.default_rng(32)
    xs, zs = [], []
    for _ in range(30_000):
        draw = sample_coupling(model, 1.0, rng)
        xs.append(draw.xi[0])
        zs.append(draw.zeta[0])
    xs, zs = np.array(xs), np.array(zs)
    for xi_val in (0.7, -0.3):
        group = zs[xs == xi_val]
        se = group.std(ddof=1) / math.sqrt(group.size)
        assert abs(group.mean()) <= 5.0 * se


def test_ks_threshold_frozen_value():
    # c(0.001) = sqrt(-ln(0.0005)/2) = 1.94947...
    c = math.sqrt(-0.5 * math.log(0.0005))
    assert ks_two_sample_threshold(10**6, 10**6) == pytest.approx(
        c * math.sqrt(2.0 / 10**6), rel=1e-12
    )
    assert c == pytest.approx(1.9494746035, abs=1e-9)


def test_cf_gap_detects_shift():
    rng = np.random.default_rng(33)
    x = rng.normal(0.0, 1.0, 50_000)
    y = rng.normal(0.7, 1.0, 50_000)
    assert _empirical_cf_gap(x, y, 5.0) > 10.0 * (5.0 / math.sqrt(50_000))
    assert _empirical_cf_gap(x, x, 5.0) == 0.0


def _direct_cf_gap(x, y, t_max, points=CF_POINTS):
    """The gap node by node over the full grid, from cos and sin of t * x."""
    return max(
        math.hypot(np.cos(t * x).mean() - np.cos(t * y).mean(), np.sin(t * x).mean() - np.sin(t * y).mean())
        for t in np.linspace(-t_max, t_max, points)
    )


@pytest.mark.parametrize(
    "n_x, n_y, points",
    [(2 * CF_BLOCK + 123, 5_000, CF_POINTS), (40_000, 3 * CF_BLOCK, CF_POINTS), (777, 2_000, 9)],
)
def test_cf_gap_matches_direct_evaluation(n_x, n_y, points):
    rng = np.random.default_rng(n_x)
    for scale in (0.5, 0.9, 2.0):
        x = rng.laplace(0.0, scale, n_x)
        y = 1.05 * rng.laplace(0.0, scale, n_y)
        t_max = 5.0 / scale
        assert abs(_empirical_cf_gap(x, y, t_max, points) - _direct_cf_gap(x, y, t_max, points)) <= 1e-15


def test_cf_gap_peaks_at_the_smallest_node():
    # the nodes t >= 0 are the odd multiples of t_1 = t_max / 63; against a
    # point mass at 0, y = +-c has gap 1 - cos(t c), which peaks on the grid
    # at t_1 when t_1 c = pi - 0.05 (63 * 0.05 < 2 pi - 0.05)
    t_max = 5.0
    c = (math.pi - 0.05) / (t_max / (CF_POINTS - 1))
    x, y = np.zeros(3), np.array([c, -c])
    assert _empirical_cf_gap(x, y, t_max) == pytest.approx(1.0 + math.cos(0.05), abs=1e-12)


def _ks_pairs():
    rng = np.random.default_rng(36)
    same = rng.normal(size=3_000)
    return {
        "equal_sizes": (rng.normal(size=4_000), rng.normal(0.05, 1.0, 4_000)),
        "unequal_sizes": (rng.laplace(size=2_500), rng.normal(size=7_001)),
        "heavy_ties": (rng.integers(0, 6, 3_000).astype(float), rng.integers(0, 7, 2_000).astype(float)),
        "identical": (same, same.copy()),
        "disjoint": (rng.uniform(0.0, 1.0, 500), rng.uniform(2.0, 3.0, 900)),
    }


@pytest.mark.parametrize("case", sorted(_ks_pairs()))
def test_ks_statistic_equals_scipy(case):
    a, b = _ks_pairs()[case]
    got = _ks_statistic(a, b)
    assert got == stats.ks_2samp(a, b, method="asymp").statistic
    if case == "identical":
        assert got == 0.0
    if case == "disjoint":
        assert got == 1.0


class TestVerifyCouplingStatistical:
    def test_gaussian_ks(self):
        report = verify_coupling(
            Gaussian([1.0]), 0.5, method="ks", sample_size=100_000,
            rng=np.random.default_rng(34),
        )
        assert report.verdict
        assert report.method == "ks"
        assert report.statistic <= report.threshold
        assert report.mean_zero <= report.mean_zero_threshold

    def test_laplace_cf_grid(self):
        report = verify_coupling(
            Laplace([1.0]), 1.0, method="cf_grid", sample_size=100_000,
            rng=np.random.default_rng(35),
        )
        assert report.verdict
        assert report.threshold == pytest.approx(5.0 / math.sqrt(100_000))

    def test_method_family_mismatch(self):
        with pytest.raises(ValueError, match="discrete"):
            verify_coupling(Gaussian([1.0]), 0.5, method="exact")
        with pytest.raises(ValueError, match="continuous"):
            verify_coupling(CenteredBernoulli([0.3]), 0.5, method="ks")
        with pytest.raises(ValueError, match="method"):
            verify_coupling(Gaussian([1.0]), 0.5, method="chi2")

    def test_report_serialization(self):
        report = verify_coupling(CenteredBernoulli([0.3]), 0.5)
        doc = report.to_json()
        assert doc["verdict"] == "pass"
        assert doc["family"] == "centered_bernoulli"
        row = report.csv_row()
        assert row[0] == "centered_bernoulli"
        assert row[-1] == "pass"
        assert len(row) == 6


# ---- properties of the one record enumeration the exact checks share

_rhos = st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3)
_alphas = st.floats(0.0, 1.0, exclude_min=True)
# (a, b) on a 0.05 grid, so values either coincide exactly or stay apart
_pairs = st.tuples(st.integers(0, 20), st.integers(0, 20)).filter(lambda ab: sum(ab) > 0)
_tables = st.lists(
    st.tuples(_pairs, st.floats(0.05, 1.0)), min_size=1, max_size=4
).map(lambda rows: [((a / 20, b / 20), w / sum(r[1] for r in rows)) for (a, b), w in rows])
_binomials = st.builds(CenteredBinomial, st.floats(0.05, 1.0), st.integers(1, 6), _rhos)
_discrete_models = st.one_of(
    st.builds(CenteredBernoulli, _rhos),
    st.builds(BoundedBinaryMixture, st.just(1.0), st.just(1.0), st.lists(_tables, min_size=1, max_size=2)),
    _binomials,
)


@settings(max_examples=60, deadline=None)
@given(_discrete_models, _alphas)
def test_records_give_the_exact_identity(model, alpha):
    for i in range(model.dim):
        lhs = exact_coupled_sum_law(model, i, alpha)
        rhs = model.exact_law(i).scale(1.0 + alpha)
        assert max_atom_probability_error(lhs, rhs) <= 1e-12
    assert verify_coupling(model, alpha).statistic <= 1e-12


@settings(max_examples=60, deadline=None)
@given(_discrete_models, _alphas)
def test_mean_error_agrees_with_conditional_laws(model, alpha):
    laws = conditional_zeta_laws(model, alpha)
    assert abs(
        max_conditional_mean_error(model, alpha) - max(abs(law.mean()) for law in laws)
    ) <= 1e-15


@settings(max_examples=40, deadline=None)
@given(_binomials, _alphas)
def test_binomial_laws_match_direct_convolution(model, alpha):
    laws = iter(conditional_zeta_laws(model, alpha))
    for i in range(model.dim):
        rho = float(model.rho[i])
        hi = branch_law(bernoulli_coupling_branches(1.0 - rho, alpha))
        lo = branch_law(bernoulli_coupling_branches(-rho, alpha))
        for count in range(model.k + 1):
            direct = DiscreteLaw([0.0], [1.0])
            for term in [hi] * count + [lo] * (model.k - count):
                direct = direct.convolve(term)
            assert max_atom_probability_error(next(laws), direct.scale(model.a)) <= 1e-12
    assert next(laws, None) is None


def test_binomial_exact_checks_are_pinned():
    # the exact checks of the k = 20 binomial scenario, under ==: a power loop
    # that sums in another order moves these in the last bits. Tied atom values
    # merge in input order (a stable sort), so the pins hold on any CPU
    model = make_scenario("centered_binomial", k=20, seed=1).noise
    pins = {
        0.5: (4.718447854656915e-16, 5.551115123125783e-17),
        1.0: (5.273559366969494e-16, 0.0),
    }
    for alpha, pin in pins.items():
        report = verify_coupling(model, alpha)
        assert (report.statistic, report.mean_zero) == pin
        assert report.verdict
