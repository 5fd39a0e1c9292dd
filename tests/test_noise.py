"""Noise families: exact laws, sampling moments, JSON round trips."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from ewa_agg.laws import MERGE_ATOL
from ewa_agg.noise import (
    CONTINUOUS,
    FAMILIES,
    BoundedBinaryMixture,
    CenteredBernoulli,
    CenteredBinomial,
    DiscreteLaw,
    Gaussian,
    Laplace,
    laplace_inverse_cdf,
    max_atom_probability_error,
    noise_from_json,
    noise_to_json,
)
from ewa_agg.oracle import make_scenario

MIXING = [((0.6, 0.6), 0.4), ((0.35, 0.2), 0.35), ((0.1, 0.45), 0.25)]


class TestDiscreteLaw:
    def test_sorting_and_moments(self):
        law = DiscreteLaw([2.0, -1.0], [0.25, 0.75])
        assert law.values.tolist() == [-1.0, 2.0]
        assert law.mean() == pytest.approx(-0.75 + 0.5)
        # E X^2 = 0.75 + 1.0; var = 1.75 - 0.0625
        assert law.moment(2) == pytest.approx(1.75)
        assert law.variance() == pytest.approx(1.75 - 0.25**2)

    def test_mgf(self):
        law = DiscreteLaw([0.0, 1.0], [0.5, 0.5])
        t = np.array([-1.0, 0.0, 2.0])
        expect = 0.5 + 0.5 * np.exp(t)
        assert np.allclose(law.mgf(t), expect, rtol=1e-15)
        assert law.mgf(0.0) == 1.0

    def test_from_atoms_merges_close_values(self):
        law = DiscreteLaw.from_atoms([1.0, 1.0 + 1e-12, 0.0], [0.25, 0.25, 0.5])
        assert len(law) == 2
        assert law.probs.tolist() == [0.5, 0.5]

    def test_zero_mass_atoms_dropped(self):
        law = DiscreteLaw([0.0, 3.0, 7.0], [0.5, 0.0, 0.5])
        assert len(law) == 2
        assert 3.0 not in law.values

    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteLaw([0.0, 0.0], [0.5, 0.5])  # duplicate values
        with pytest.raises(ValueError):
            DiscreteLaw([0.0, 1.0], [0.6, 0.6])  # mass 1.2
        with pytest.raises(ValueError):
            DiscreteLaw([0.0], [-1.0])

    def test_scale(self):
        law = DiscreteLaw([-1.0, 2.0], [0.5, 0.5]).scale(-0.5)
        assert law.values.tolist() == [-1.0, 0.5]
        assert law.scale(0.0).atoms() == [(0.0, 1.0)]

    def test_convolve_two_coins(self):
        coin = DiscreteLaw([0.0, 1.0], [0.5, 0.5])
        two = coin.convolve(coin)
        assert two.values.tolist() == [0.0, 1.0, 2.0]
        assert np.allclose(two.probs, [0.25, 0.5, 0.25])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(-1e3, 1e3), st.floats(1e-9, 1.0)),
        min_size=1, max_size=30, unique_by=lambda atom: atom[0],
    )
)
def test_from_atoms_keeps_separated_atoms_exact(atoms):
    values = np.array([v for v, _ in atoms])
    probs = np.array([p for _, p in atoms])
    probs /= probs.sum()
    order = np.argsort(values)
    assume(np.all(np.diff(values[order]) > MERGE_ATOL))
    law = DiscreteLaw.from_atoms(values, probs)
    assert law.values.tobytes() == values[order].tobytes()
    assert law.probs.tobytes() == probs[order].tobytes()
    assert law.scale(1.0).values.tobytes() == law.values.tobytes()


def test_max_atom_probability_error():
    a = DiscreteLaw([0.0, 1.0], [0.5, 0.5])
    b = DiscreteLaw([0.0, 1.0 + 1e-12], [0.4, 0.6])
    assert max_atom_probability_error(a, a) == 0.0
    assert max_atom_probability_error(a, b) == pytest.approx(0.1, abs=1e-15)
    # atoms further apart than the tolerance count as separate
    c = DiscreteLaw([0.0, 2.0], [0.5, 0.5])
    assert max_atom_probability_error(a, c) == pytest.approx(0.5)


@pytest.mark.parametrize(
    "values, probs",
    [
        ([math.nan, 1.0], [0.5, 0.5]),
        ([0.0, 1.0], [math.inf, 0.5]),
        ([0.0, 1.0], [0.6, 0.6]),
        ([0.0, 1.0], [0.0, 0.0]),
    ],
    ids=["nan-value", "infinite-mass", "mass-1.2", "no-mass"],
)
def test_from_atoms_rejects_what_the_constructor_rejects(values, probs):
    # from_atoms checks its merged law itself instead of going through __init__
    with pytest.raises(ValueError) as direct:
        DiscreteLaw(values, probs)
    with pytest.raises(ValueError) as merged:
        DiscreteLaw.from_atoms(values, probs)
    assert str(merged.value) == str(direct.value)


def test_from_atoms_sums_tied_masses_in_input_order():
    # atoms at exactly equal values are summed in the order they came in, so the
    # merged masses do not depend on how a sort breaks ties on this CPU or build
    rng = np.random.default_rng(5)
    values = rng.integers(0, 3, 300).astype(np.float64)
    probs = rng.random(300)
    probs /= probs.sum()
    law = DiscreteLaw.from_atoms(values, probs)
    expected = {}
    for value, prob in zip(values.tolist(), probs.tolist()):
        expected[value] = expected.get(value, 0.0) + prob
    assert law.atoms() == sorted(expected.items())


def test_convolution_powers_start_from_the_term():
    law = DiscreteLaw([-0.3, 0.7], [0.7, 0.3])
    assert law.convolution_powers(0)[0].atoms() == [(0.0, 1.0)]
    powers = law.convolution_powers(4)
    assert len(powers) == 5
    assert powers[0].atoms() == [(0.0, 1.0)]
    assert powers[1] is law
    assert powers[4].atoms() == law.convolve(law).convolve(law).convolve(law).atoms()


def _law(atoms):
    values = np.array([v for v, _ in atoms])
    probs = np.array([p for _, p in atoms])
    return DiscreteLaw.from_atoms(values, probs / probs.sum())


_laws = st.lists(
    st.tuples(st.floats(-100.0, 100.0), st.floats(0.01, 1.0)), min_size=1, max_size=12
).map(_law)


@settings(max_examples=200, deadline=None)
@given(_laws, _laws)
def test_convolve_adds_means_and_variances(x, y):
    total = x.convolve(y)
    assert total.mean() == pytest.approx(x.mean() + y.mean(), rel=1e-9, abs=1e-9)
    assert total.variance() == pytest.approx(x.variance() + y.variance(), rel=1e-9, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(_laws, _laws)
def test_max_atom_probability_error_is_symmetric_and_zero_on_a_law(x, y):
    assert max_atom_probability_error(x, y) == max_atom_probability_error(y, x)
    assert max_atom_probability_error(x, x) == 0.0


def test_laplace_inverse_cdf_matches_scipy():
    u = np.linspace(0.001, 0.999, 201)
    ours = laplace_inverse_cdf(u, 1.7)
    ref = stats.laplace.ppf(u, scale=1.7)
    assert np.allclose(ours, ref, rtol=1e-12, atol=1e-12)
    # endpoints must stay finite-by-clamp rather than raise
    assert np.isfinite(laplace_inverse_cdf(np.array([0.0]), 1.0))[0]


def _check_law_centered(model):
    for i in range(model.dim):
        law = model.exact_law(i)
        assert abs(sum(p for _, p in law.atoms()) - 1.0) <= 1e-12
        assert abs(law.mean()) <= 1e-12


class TestCenteredBernoulli:
    def test_exact_law(self):
        m = CenteredBernoulli([0.3])
        assert m.exact_law(0).atoms() == [(-0.3, 0.7), (0.7, 0.3)]
        _check_law_centered(CenteredBernoulli([0.1, 0.5, 0.92]))

    def test_samples_live_on_support(self):
        m = CenteredBernoulli([0.3, 0.6])
        rng = np.random.default_rng(0)
        for _ in range(100):
            xi = m.sample(rng)
            for i, x in enumerate(xi):
                assert x in (1.0 - m.rho[i], -m.rho[i])

    def test_sample_frequencies(self):
        m = CenteredBernoulli.homogeneous(1, 0.3)
        rng = np.random.default_rng(1)
        draws = np.array([m.sample(rng)[0] for _ in range(20_000)])
        up = float(np.mean(draws > 0.0))
        assert up == pytest.approx(0.3, abs=5.0 * math.sqrt(0.3 * 0.7 / 20_000))

    def test_rejects_degenerate_rho(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                CenteredBernoulli([bad])


class TestGaussian:
    def test_moments(self):
        m = Gaussian([1.0, 2.5])
        rng = np.random.default_rng(2)
        draws = np.array([m.sample(rng) for _ in range(20_000)])
        assert np.allclose(draws.mean(axis=0), 0.0, atol=0.1)
        assert np.allclose(draws.std(axis=0), [1.0, 2.5], rtol=0.05)
        assert m.exact_law(0) == CONTINUOUS

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            Gaussian([0.0])


class TestBoundedBinaryMixture:
    def test_exact_law_matches_enumeration(self):
        m = BoundedBinaryMixture.homogeneous(2, 0.6, 0.6, MIXING)
        law = m.exact_law(0)
        # brute force over (pair, side)
        mass = {}
        for (a, b), p in MIXING:
            mass[a] = mass.get(a, 0.0) + p * b / (a + b)
            mass[-b] = mass.get(-b, 0.0) + p * a / (a + b)
        for value, prob in law.atoms():
            assert prob == pytest.approx(mass[value], abs=1e-15)
        _check_law_centered(m)

    def test_latents_are_consistent(self):
        m = BoundedBinaryMixture.homogeneous(3, 0.6, 0.6, MIXING)
        rng = np.random.default_rng(3)
        pairs = {(a, b) for (a, b), _ in MIXING}
        for _ in range(200):
            xi, rec = m.sample_with_latents(rng)
            assert np.array_equal(rec["eta"], xi)
            for i in range(3):
                assert (rec["a"][i], rec["b"][i]) in pairs
                assert xi[i] in (rec["a"][i], -rec["b"][i])

    def test_sample_mean_near_zero(self):
        m = BoundedBinaryMixture.homogeneous(1, 0.6, 0.6, MIXING)
        rng = np.random.default_rng(4)
        draws = np.array([m.sample(rng)[0] for _ in range(20_000)])
        law = m.exact_law(0)
        assert draws.mean() == pytest.approx(0.0, abs=5.0 * math.sqrt(law.variance() / 20_000))
        assert draws.var() == pytest.approx(law.variance(), rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundedBinaryMixture(0.5, 0.5, [[((0.6, 0.1), 1.0)]])  # a > a_max
        with pytest.raises(ValueError):
            BoundedBinaryMixture(0.5, 0.5, [[((0.0, 0.0), 1.0)]])  # a + b = 0
        with pytest.raises(ValueError):
            BoundedBinaryMixture(0.5, 0.5, [[((0.1, 0.1), 0.5)]])  # mass 0.5


class TestCenteredBinomial:
    def test_exact_law_is_k_fold_convolution(self):
        m = CenteredBinomial(0.25, 4, [0.35])
        law = m.exact_law(0)
        term = CenteredBernoulli([0.35]).exact_law(0)
        conv = term
        for _ in range(3):
            conv = conv.convolve(term)
        assert max_atom_probability_error(law, conv.scale(0.25)) <= 1e-12

    def test_exact_law_matches_scipy_binom(self):
        m = CenteredBinomial(0.5, 6, [0.3])
        law = m.exact_law(0)
        j = np.arange(7)
        ref = stats.binom.pmf(j, 6, 0.3)
        assert np.allclose(law.probs, ref, atol=1e-14)
        assert np.allclose(law.values, 0.5 * (j - 6 * 0.3))
        _check_law_centered(m)

    def test_latents_sum_to_sample(self):
        m = CenteredBinomial.homogeneous(3, 0.2, 5, 0.4)
        rng = np.random.default_rng(5)
        xi, rec = m.sample_with_latents(rng)
        assert rec["eta"].shape == (5, 3)
        assert np.allclose(xi, 0.2 * rec["eta"].sum(axis=0))

    def test_validation(self):
        with pytest.raises(ValueError):
            CenteredBinomial(0.0, 3, [0.5])
        with pytest.raises(ValueError):
            CenteredBinomial(0.5, 0, [0.5])


class TestLaplace:
    def test_moments(self):
        m = Laplace([1.0, 0.5])
        rng = np.random.default_rng(6)
        draws = np.array([m.sample(rng) for _ in range(40_000)])
        assert np.allclose(draws.mean(axis=0), 0.0, atol=0.05)
        # Laplace variance is 2 mu^2
        assert np.allclose(draws.var(axis=0), [2.0, 0.5], rtol=0.1)
        assert m.exact_law(1) == CONTINUOUS

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(ValueError):
            Laplace([1.0, -1.0])


MODELS = [
    CenteredBernoulli([0.2, 0.7]),
    Gaussian([1.0, 2.0]),
    BoundedBinaryMixture(0.6, 0.6, [MIXING, MIXING]),
    CenteredBinomial(0.2, 5, [0.3, 0.6]),
    Laplace([1.0, 1.5]),
]


@pytest.mark.parametrize("family", FAMILIES)
def test_json_round_trip(family):
    model = make_scenario(family, n=3, m=2, replicates=1).noise
    doc = noise_to_json(model)
    assert set(doc) == {"family", "params"}
    back = noise_from_json(doc)
    assert back.family == model.family
    assert back.dim == model.dim
    rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
    assert np.array_equal(model.sample(rng_a), back.sample(rng_b))


def test_family_names_are_pinned():
    assert [m.family for m in MODELS] == list(FAMILIES) == [
        "centered_bernoulli",
        "gaussian",
        "bounded_binary_mixture",
        "centered_binomial",
        "laplace",
    ]


def test_noise_from_json_diagnostics():
    with pytest.raises(ValueError, match="family"):
        noise_from_json({"family": "cauchy", "params": {}})
    with pytest.raises(ValueError, match="noise.params.rho"):
        noise_from_json({"family": "centered_bernoulli", "params": {}})
    with pytest.raises(ValueError, match='"family" and "params"'):
        noise_from_json({"family": "gaussian"})
    with pytest.raises(ValueError, match="malformed"):
        noise_from_json({"family": "bounded_binary_mixture", "params": {"a_max": 1, "b_max": 1, "mixing": [[1, 2]]}})
