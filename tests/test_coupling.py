"""Noise amplification couplings: branch laws, exact identities,
statistical checks for the continuous families."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import law_reference as ref
from ewa_agg.bernstein import check_noise_mgf
from ewa_agg.coupling import (
    CF_BLOCK,
    CF_POINTS,
    CouplingDraw,
    CouplingReport,
    ks_two_sample_threshold,
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
        sv, sp, jv, jp = CenteredBernoulli.branches(0.5, 1.0)
        assert (sv, sp, jv, jp) == (0.5, 0.75, -1.5, 0.25)

    def test_binary_hand_values(self):
        # support {2, -1}, alpha = 1/2, conditioning on eta = 2:
        # stay at alpha*a = 1 w.p. (1.5*1 + 2)/(1.5*3) = 7/9
        sv, sp, jv, jp = BoundedBinaryMixture.branches(2.0, 1.0, 2.0, 0.5)
        assert float(sv) == 1.0
        assert float(sp) == pytest.approx(7.0 / 9.0, rel=1e-15)
        assert float(jv) == -3.5
        # symmetric support {1, -1}, alpha = 1, from eta = 1
        sv, sp, jv, jp = BoundedBinaryMixture.branches(1.0, 1.0, 1.0, 1.0)
        assert (float(sv), float(sp), float(jv)) == (1.0, 0.75, -3.0)

    def test_binary_reduces_to_bernoulli(self):
        # {1 - rho, -rho} is the binary support with a = 1 - rho, b = rho
        for rho in (0.1, 0.45, 0.8):
            for alpha in ALPHAS:
                for xi in (1.0 - rho, -rho):
                    bern = CenteredBernoulli.branches(xi, alpha)
                    binr = BoundedBinaryMixture.branches(1.0 - rho, rho, xi, alpha)
                    for x, y in zip(bern, binr):
                        assert float(x) == pytest.approx(float(y), abs=1e-15)

    def test_small_binary_support_takes_its_own_side(self):
        # a + b = 2e-10: the two support values lie within 1e-9 of each other, but
        # eta = -b must still get the -b branches
        a = b = 1e-10
        alpha = 0.5
        model = BoundedBinaryMixture.homogeneous(20_000, a, b, [((a, b), 1.0)])
        draw = sample_coupling(model, alpha, np.random.default_rng(0))
        at_a, at_b = draw.zeta[draw.xi == a], draw.zeta[draw.xi == -b]
        assert at_a.size and at_b.size
        assert set(at_a.tolist()) == {alpha * a, -(1.0 + alpha) * b - a}
        assert set(at_b.tolist()) == {-alpha * b, (1.0 + alpha) * a + b}

    def test_probabilities_are_probabilities(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            rho = float(rng.uniform(0.01, 0.99))
            alpha = float(rng.uniform(0.0, 1.0))
            for xi in (1.0 - rho, -rho):
                _, sp, _, jp = CenteredBernoulli.branches(xi, alpha)
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
                sv, sp, jv, jp = BoundedBinaryMixture.branches(a, b, eta, alpha)
                assert float(sv * sp + jv * jp) == pytest.approx(0.0, abs=1e-12)

    def test_alpha_zero_is_a_no_op(self):
        sv, sp, jv, jp = CenteredBernoulli.branches(0.7, 0.0)
        assert (sv, sp, jp) == (0.0, 1.0, 0.0)
        rng = np.random.default_rng(13)
        for family in FAMILIES:
            model = make_scenario(family, n=6, m=2, replicates=1).noise
            assert np.all(sample_coupling(model, 0.0, rng).zeta == 0.0), family
        assert np.all(Laplace.couple(np.ones(3), 0.0, rng) == 0.0)


DISCRETE_MODELS = [
    CenteredBernoulli([0.1, 0.3, 0.5, 0.7, 0.9]),
    BoundedBinaryMixture(0.6, 0.6, [MIXING]),
    CenteredBinomial(0.2, 3, [0.25, 0.65]),
]


@pytest.mark.parametrize("model", DISCRETE_MODELS, ids=lambda m: m.family)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_exact_amplification_identity(model, alpha):
    marginals, sums = model.marginal_rows(), model.coupled_sum_rows(alpha)
    for i in range(model.dim):
        lhs = sums.law(i)
        rhs = marginals.law(i).scale(1.0 + alpha)
        assert max_atom_probability_error(lhs, rhs) <= 1e-12
    assert np.max(np.abs(model.conditional_means(alpha))) <= 1e-12


@pytest.mark.parametrize("model", DISCRETE_MODELS, ids=lambda m: m.family)
def test_conditional_laws_are_centered(model):
    for alpha in (0.25, 1.0):
        for law in model.conditional_rows(alpha).laws():
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


def _plant_branch_fault(monkeypatch, cls):
    """Scale every stay probability of cls.branches by 1 - 1e-9, the jump taking the
    rest: each conditional law still sums to 1, but it is the wrong law."""
    honest = cls.branches

    def faulty(*args):
        sv, sp, jv, jp = honest(*args)
        return sv, sp * (1.0 - 1e-9), jv, jp + sp * 1e-9

    monkeypatch.setattr(cls, "branches", staticmethod(faulty))


# each discrete model and the class whose branches its records take: the Bernoulli's are
# the binomial's; each case is named by its model and the law whose branches are planted
BRANCH_OWNERS = [CenteredBinomial, BoundedBinaryMixture, CenteredBinomial]
BRANCH_LAWS = ["centered_bernoulli", "bounded_binary_mixture", "centered_bernoulli"]


@pytest.mark.parametrize(
    "model, owner",
    zip(DISCRETE_MODELS, BRANCH_OWNERS),
    ids=[f"{model.family}-{law}" for model, law in zip(DISCRETE_MODELS, BRANCH_LAWS)],
)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_a_branch_fault_fails_the_exact_verdict(monkeypatch, model, owner, alpha):
    # the marginal and the coupled sum come from one enumeration of records, so a
    # fault in the branches alone must show in both the identity and the centering
    assert verify_coupling(model, alpha).verdict
    _plant_branch_fault(monkeypatch, owner)
    report = verify_coupling(model, alpha)
    assert not report.verdict
    assert report.statistic > report.threshold
    assert report.mean_zero > report.mean_zero_threshold


class TestSamplers:
    def test_couple_bernoulli_branch_frequencies(self):
        # conditioned on xi = +-0.5 (rho = 0.5, alpha = 1) the companion stays
        # at alpha * xi w.p. 3/4 and jumps to -3 xi w.p. 1/4
        n = 40_000
        draw = sample_coupling(CenteredBernoulli(np.full(n, 0.5)), 1.0, np.random.default_rng(23))
        for xi in (0.5, -0.5):
            zs = draw.zeta[draw.xi == xi]
            stay = float(np.mean(zs == xi))
            jump = float(np.mean(zs == -3.0 * xi))
            assert stay + jump == 1.0
            assert stay == pytest.approx(0.75, abs=5.0 * math.sqrt(0.75 * 0.25 / zs.size))

    def test_couple_binomial_shapes(self):
        # one coordinate of k = 3 terms: the record holds the terms, zeta a times
        # the sum of their companions
        draw = sample_coupling(CenteredBinomial(0.5, 3, [0.4]), 0.5, np.random.default_rng(24))
        assert draw.conditioning_record["eta"].shape == (3, 1)
        assert draw.zeta.shape == (1,)

    def test_couple_gaussian_variance(self):
        rng = np.random.default_rng(26)
        n = 100_000
        alpha, sigma = 0.5, 1.5
        zs = Gaussian.couple(np.full(n, sigma), alpha, rng)
        target = (2.0 * alpha + alpha * alpha) * sigma * sigma
        assert zs.mean() == pytest.approx(0.0, abs=5.0 * math.sqrt(target / n))
        assert zs.var() == pytest.approx(target, rel=0.05)

    def test_couple_laplace_zero_mass(self):
        rng = np.random.default_rng(27)
        n = 100_000
        alpha = 1.0
        zs = Laplace.couple(np.full(n, 1.0), alpha, rng)
        stay = float(np.mean(zs == 0.0))
        p0 = 1.0 / (1.0 + alpha) ** 2
        assert stay == pytest.approx(p0, abs=5.0 * math.sqrt(p0 * (1 - p0) / n))

    def test_invalid_alpha(self):
        rng = np.random.default_rng(28)
        for bad in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="alpha"):
                sample_coupling(Gaussian([1.0]), bad, rng)


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


def test_ks_threshold_is_bonferroni_over_the_tests():
    # the largest of d statistics is compared, so each is tested at 1e-3 / d
    n = 20_000
    assert ks_two_sample_threshold(n, n, tests=1) == ks_two_sample_threshold(n, n)
    c = math.sqrt(-0.5 * math.log(1e-3 / 50 / 2.0))
    assert ks_two_sample_threshold(n, n, tests=50) == pytest.approx(c * 0.01, rel=1e-12)
    assert ks_two_sample_threshold(n, n, tests=50) == pytest.approx(0.02399, abs=1e-5)


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
        "cross_ties": (
            np.concatenate([rng.normal(size=2_000), np.repeat([-1.0, 0.0, 0.5], 40)]),
            np.concatenate([rng.normal(size=1_500), np.repeat([0.0, 0.5, 2.0], 25)]),
        ),
        "one_draw": (rng.normal(size=1), rng.normal(size=900)),
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

    def test_ks_threshold_counts_the_coordinates(self):
        report = verify_coupling(
            Gaussian([1.0, 2.0, 0.5]), 0.5, method="ks", sample_size=10_000,
            rng=np.random.default_rng(37),
        )
        assert report.threshold == ks_two_sample_threshold(10_000, 10_000, tests=3)

    def test_sampled_methods_need_a_generator(self):
        # an unseeded verdict would not reproduce; the exact method draws nothing
        for method in ("ks", "cf_grid"):
            with pytest.raises(ValueError, match="generator"):
                verify_coupling(Laplace([1.0]), 0.5, method=method, sample_size=100)
        assert verify_coupling(CenteredBernoulli([0.3]), 0.5).verdict

    @pytest.mark.parametrize("entry", ["ks", "cf_grid", "mgf"])
    def test_sample_size_takes_the_package_count_rule(self, entry):
        # the count rule the CLI applies: no truncated float, no bool, no string
        def run(sample_size):
            rng = np.random.default_rng(3)
            if entry == "mgf":
                return check_noise_mgf(Laplace([1.0]), 0.5, sample_size=sample_size, rng=rng)
            return verify_coupling(Laplace([1.0]), 0.5, entry, sample_size=sample_size, rng=rng)

        for bad in (2.9, 10.7, True, "50"):
            with pytest.raises(ValueError, match="sample_size must be a positive integer"):
                run(bad)
        with pytest.raises(ValueError, match="sample_size must be at least 2"):
            run(1)
        report = run(2)
        assert report.points == 64 if entry == "mgf" else report.sample_size == 2

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
        # the JSON keys are the output contract
        assert tuple(doc) == (
            "family", "alpha", "method", "statistic", "threshold", "mean_zero",
            "mean_zero_threshold", "verdict", "sample_size", "exact",
        )
        assert doc["verdict"] == "pass"
        assert doc["family"] == "centered_bernoulli"
        row = report.csv_row()
        assert row == [doc[key] for key in CouplingReport.CSV_HEADER]
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
    marginals, sums = model.marginal_rows(), model.coupled_sum_rows(alpha)
    for i in range(model.dim):
        lhs = sums.law(i)
        rhs = marginals.law(i).scale(1.0 + alpha)
        assert max_atom_probability_error(lhs, rhs) <= 1e-12
    assert verify_coupling(model, alpha).statistic <= 1e-12


@settings(max_examples=60, deadline=None)
@given(_discrete_models, _alphas)
def test_mean_error_agrees_with_conditional_laws(model, alpha):
    laws = model.conditional_rows(alpha).laws()
    assert abs(
        np.max(np.abs(model.conditional_means(alpha))) - max(abs(law.mean()) for law in laws)
    ) <= 1e-15


@settings(max_examples=40, deadline=None)
@given(_binomials, _alphas)
def test_binomial_laws_match_direct_convolution(model, alpha):
    laws = iter(model.conditional_rows(alpha).laws())
    for i in range(model.dim):
        rho = float(model.rho[i])
        hi = ref.branch_law(CenteredBernoulli.branches(1.0 - rho, alpha))
        lo = ref.branch_law(CenteredBernoulli.branches(-rho, alpha))
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


@settings(max_examples=40, deadline=None)
@given(ref.discrete_models, ref.alphas)
def test_exact_verify_equals_the_per_law_reference(model, alpha):
    assert verify_coupling(model, alpha) == ref.coupling_report(model, alpha)


@pytest.mark.parametrize("alpha", (0.5, 1.0))
def test_exact_verify_of_the_k20_binomial_equals_the_per_law_reference(alpha):
    model = make_scenario("centered_binomial", k=20, seed=1).noise
    assert verify_coupling(model, alpha) == ref.coupling_report(model, alpha)


class _WrongSide(BoundedBinaryMixture):
    """Gives eta = -b the branches of eta = a: centered, but the wrong law."""

    @staticmethod
    def branches(a, b, eta, alpha):
        return BoundedBinaryMixture.branches(a, b, a, alpha)


@pytest.mark.parametrize("support", (1e-10, 1e-3, 1e3))
def test_a_wrong_side_branch_fails_at_every_scale(support):
    # the atoms align under MERGE_ATOL times the support span where that is below 1,
    # so a support far narrower than MERGE_ATOL is not merged into one atom
    mixing = [((support, support), 1.0)]
    report = verify_coupling(_WrongSide.homogeneous(2, support, support, mixing), 0.5)
    assert not report.verdict
    assert report.statistic > report.threshold
    assert report.mean_zero <= report.mean_zero_threshold
    assert verify_coupling(BoundedBinaryMixture.homogeneous(2, support, support, mixing), 0.5).verdict
