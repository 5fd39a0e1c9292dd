"""Noise families: exact laws, sampling moments, batched draws, JSON round trips."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

import draw_reference as draws
import law_reference as ref
from ewa_agg.bernstein import check_noise_mgf
from ewa_agg.coupling import EXACT_TOL, sample_coupling, verify_coupling
from ewa_agg.laws import MERGE_ATOL, LawRows
from ewa_agg.noise import (
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
ALPHAS = (0.1, 0.5, 1.0)


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


@settings(max_examples=100, deadline=None)
@given(st.lists(_laws, min_size=1, max_size=5), st.data())
def test_row_kernels_equal_one_law_at_a_time(laws, data):
    # several laws as rows: each row's convolution and alignment are the one law's
    others = [data.draw(_laws) for _ in laws]
    rows, other_rows = LawRows.stack(laws), LawRows.stack(others)
    errors = rows.max_atom_probability_error(other_rows)
    for r, (x, y) in enumerate(zip(laws, others)):
        assert _same(rows.convolve(other_rows).law(r), x.convolve(y))
        assert _same(rows.scale(-1.5).law(r), x.scale(-1.5))
        assert errors[r] == max_atom_probability_error(x, y)


def test_rows_do_not_merge_across_a_row_boundary():
    # 1.0 and 1.0 + 1e-12 lie well within MERGE_ATOL, but in different rows
    rows = LawRows.from_atoms([1, 0, 0, 1], [1.0 + 1e-12, 0.0, 1.0, 3.0], [0.5] * 4, 2)
    assert rows.law(0).atoms() == [(0.0, 0.5), (1.0, 0.5)]
    assert rows.law(1).atoms() == [(1.0 + 1e-12, 0.5), (3.0, 0.5)]
    # aligned against itself with its rows swapped, each row keeps its own atoms
    swapped = rows.take([1, 0])
    assert rows.max_atom_probability_error(swapped).tolist() == [0.5, 0.5]
    assert rows.max_atom_probability_error(rows).tolist() == [0.0, 0.0]


def test_merge_tolerance_follows_a_narrow_span():
    # under a span of 1 the tolerance is MERGE_ATOL times the span; above, MERGE_ATOL
    narrow = DiscreteLaw.from_atoms([1e-10, -1e-10, 1e-10 + 1e-20], [0.25, 0.5, 0.25])
    assert narrow.probs.tolist() == [0.5, 0.5]
    assert len(DiscreteLaw.from_atoms([1e-10, 1.5e-10], [0.5, 0.5])) == 2
    wide = DiscreteLaw.from_atoms([2.0, 0.0, 2.0 + 1.5e-9, 2.0 + 0.5e-9], [0.25] * 4)
    assert len(wide) == 3
    lone = DiscreteLaw([-1e-10, 1e-10], [0.5, 0.5])
    assert max_atom_probability_error(lone, DiscreteLaw([-1e-10, 3e-10], [0.5, 0.5])) == 0.5


def _same(law, want):
    return (law.values.tobytes(), law.probs.tobytes()) == (want.values.tobytes(), want.probs.tobytes())


@settings(max_examples=60, deadline=None)
@given(ref.discrete_models, ref.alphas)
def test_family_rows_equal_the_per_law_reference(model, alpha):
    # every conditional law, coupled-sum law, alignment statistic and conditional
    # mean of the rows equals the per-law reference loop's, byte for byte
    laws = model.conditional_rows(alpha).laws()
    want = [law for i in range(model.dim) for law in ref.conditional_laws(model, i, alpha)]
    assert len(laws) == len(want)
    assert all(_same(law, w) for law, w in zip(laws, want))
    sums = model.coupled_sum_rows(alpha)
    assert all(_same(sums.law(i), ref.sum_law(model, i, alpha)) for i in range(model.dim))
    marginals = model.marginal_rows()
    assert all(_same(marginals.law(i), ref.marginal_law(model, i)) for i in range(model.dim))
    errors = sums.max_atom_probability_error(marginals.scale(1.0 + alpha))
    assert errors.tolist() == ref.alignment_errors(model, alpha)
    assert max(errors) <= EXACT_TOL
    means = [m for i in range(model.dim) for m in ref.conditional_means(model, i, alpha)]
    assert model.conditional_means(alpha).tolist() == means


def test_laplace_inverse_cdf_matches_scipy():
    u = np.linspace(0.001, 0.999, 201)
    ours = laplace_inverse_cdf(u, 1.7)
    ref = stats.laplace.ppf(u, scale=1.7)
    assert np.allclose(ours, ref, rtol=1e-12, atol=1e-12)
    # endpoints must stay finite-by-clamp rather than raise
    assert np.isfinite(laplace_inverse_cdf(np.array([0.0]), 1.0))[0]


def _check_law_centered(model):
    for law in model.marginal_rows().laws():
        assert abs(sum(p for _, p in law.atoms()) - 1.0) <= 1e-12
        assert abs(law.mean()) <= 1e-12


# The marginal oracles: each family's `marginal_rows` against a law computed without it.
def _bernoulli_closed_form():
    m = CenteredBernoulli([0.3])
    assert m.marginal_rows().law(0).atoms() == [(-0.3, 0.7), (0.7, 0.3)]


def _mixture_brute_force():
    m = BoundedBinaryMixture.homogeneous(2, 0.6, 0.6, MIXING)
    # brute force over (pair, side)
    mass = {}
    for (a, b), p in MIXING:
        mass[a] = mass.get(a, 0.0) + p * b / (a + b)
        mass[-b] = mass.get(-b, 0.0) + p * a / (a + b)
    for law in m.marginal_rows().laws():
        assert sorted(mass) == law.values.tolist()
        for value, prob in law.atoms():
            assert prob == pytest.approx(mass[value], abs=1e-15)


def _binomial_scipy():
    m = CenteredBinomial(0.5, 6, [0.3])
    law = m.marginal_rows().law(0)
    j = np.arange(7)
    assert np.allclose(law.probs, stats.binom.pmf(j, 6, 0.3), rtol=0.0, atol=1e-14)
    assert np.allclose(law.values, 0.5 * (j - 6 * 0.3))


def _plant_record_fault(monkeypatch, cls):
    """Move 1e-9 of mass from coordinate 0's second record to its first: every law
    still sums to 1, but coordinate 0's law of xi is wrong."""
    honest = cls.coupling_records

    def faulty(self, alpha):
        coord, p, xi, branches = honest(self, alpha)
        assert coord[0] == coord[1] == 0
        return coord, p + np.r_[1e-9, -1e-9, np.zeros(p.size - 2)], xi, branches

    monkeypatch.setattr(cls, "coupling_records", faulty)


@pytest.mark.parametrize(
    "cls, oracle",
    [
        (CenteredBernoulli, _bernoulli_closed_form),
        (BoundedBinaryMixture, _mixture_brute_force),
        (CenteredBinomial, _binomial_scipy),
    ],
    ids=lambda x: getattr(x, "family", None),
)
def test_a_record_fault_fails_the_marginal_oracle(monkeypatch, cls, oracle):
    oracle()
    _plant_record_fault(monkeypatch, cls)
    with pytest.raises(AssertionError):
        oracle()


class TestCenteredBernoulli:
    def test_exact_law(self):
        _bernoulli_closed_form()
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


def _fields(rows):
    return rows.offsets, rows.values, rows.probs


def _coordinate_laws(rows, n):
    """Each coordinate's two conditional laws as a sorted pair of (values, probs) lists: the
    order of a coordinate's records is not compared."""
    laws = [(law.values.tolist(), law.probs.tolist()) for law in rows.laws()]
    return [sorted(laws[2 * i : 2 * i + 2]) for i in range(n)]


@settings(max_examples=40, deadline=None)
@given(
    rho=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1, max_size=6),
    rows=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_bernoulli_is_the_binomial_at_one_term(rho, rows, seed):
    # CenteredBernoulli(rho) and CenteredBinomial(1, 1, rho) are one family under two tags:
    # draws, exact laws, reports, profiles and coupling draws are equal under ==
    bern, binom = CenteredBernoulli(rho), CenteredBinomial(1.0, 1, rho)
    n = len(rho)
    raw = np.random.default_rng(seed).random((rows, n))
    (xi, latents), (want, want_latents) = bern.noise_rows(raw.copy()), binom.noise_rows(raw)
    _assert_same(xi, want)
    for got, value in zip(latents.values(), want_latents.values(), strict=True):
        _assert_same(got.reshape(rows, n), value.reshape(rows, n))
    for got, value in zip(_fields(bern.marginal_rows()), _fields(binom.marginal_rows())):
        _assert_same(got, value)
    for alpha in ALPHAS:
        sums = bern.coupled_sum_rows(alpha), binom.coupled_sum_rows(alpha)
        for got, value in zip(_fields(sums[0]), _fields(sums[1])):
            _assert_same(got, value)
        means = [model.conditional_means(alpha).reshape(n, 2).tolist() for model in (bern, binom)]
        assert [sorted(pair) for pair in means[0]] == [sorted(pair) for pair in means[1]]
        laws = bern.conditional_rows(alpha), binom.conditional_rows(alpha)
        assert _coordinate_laws(laws[0], n) == _coordinate_laws(laws[1], n)
        for check in (verify_coupling, check_noise_mgf):
            assert replace(check(bern, alpha), family=binom.family) == check(binom, alpha)
    profile, want_profile = bern.profile(), binom.profile()
    for alpha in ALPHAS:
        assert (profile.v(alpha), profile.b(alpha)) == (want_profile.v(alpha), want_profile.b(alpha))
    assert profile.v_prime_0 == want_profile.v_prime_0
    for key in range(3):
        got, value = (sample_coupling(m, 0.5, np.random.default_rng([seed, key])) for m in (bern, binom))
        _assert_same(got.xi, value.xi)
        _assert_same(got.zeta, value.zeta)


class TestGaussian:
    def test_moments(self):
        m = Gaussian([1.0, 2.5])
        rng = np.random.default_rng(2)
        draws = np.array([m.sample(rng) for _ in range(20_000)])
        assert np.allclose(draws.mean(axis=0), 0.0, atol=0.1)
        assert np.allclose(draws.std(axis=0), [1.0, 2.5], rtol=0.05)
        assert not m.discrete

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            Gaussian([0.0])


class TestBoundedBinaryMixture:
    def test_exact_law_matches_enumeration(self):
        _mixture_brute_force()
        _check_law_centered(BoundedBinaryMixture.homogeneous(2, 0.6, 0.6, MIXING))

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
        law = m.marginal_rows().law(0)
        assert draws.mean() == pytest.approx(0.0, abs=5.0 * math.sqrt(law.variance() / 20_000))
        assert draws.var() == pytest.approx(law.variance(), rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundedBinaryMixture(0.5, 0.5, [[((0.6, 0.1), 1.0)]])  # a > a_max
        with pytest.raises(ValueError):
            BoundedBinaryMixture(0.5, 0.5, [[((0.0, 0.0), 1.0)]])  # a + b = 0
        with pytest.raises(ValueError):
            BoundedBinaryMixture(0.5, 0.5, [[((0.1, 0.1), 0.5)]])  # mass 0.5
        with pytest.raises(ValueError, match="finite"):  # NaN passes both p < 0 and the sum check
            BoundedBinaryMixture(0.5, 0.5, [[((0.5, 0.5), math.nan), ((0.2, 0.3), 1.0)]])


class TestCenteredBinomial:
    def test_exact_law_is_k_fold_convolution(self):
        m = CenteredBinomial(0.25, 4, [0.35])
        law = m.marginal_rows().law(0)
        term = DiscreteLaw([0.65, -0.35], [0.35, 0.65])
        conv = term
        for _ in range(3):
            conv = conv.convolve(term)
        assert max_atom_probability_error(law, conv.scale(0.25)) <= 1e-12

    def test_exact_law_matches_scipy_binom(self):
        _binomial_scipy()
        _check_law_centered(CenteredBinomial(0.5, 6, [0.3]))

    def test_latents_sum_to_sample(self):
        m = CenteredBinomial.homogeneous(3, 0.2, 5, 0.4)
        rng = np.random.default_rng(5)
        xi, rec = m.sample_with_latents(rng)
        assert rec["eta"].shape == (5, 3)
        assert np.allclose(xi, 0.2 * rec["eta"].sum(axis=0))

    def test_validation(self):
        with pytest.raises(ValueError):
            CenteredBinomial(0.0, 3, [0.5])
        for k in (0, 2.5, math.inf, math.nan, True, "3"):
            with pytest.raises(ValueError, match="k must be a positive integer"):
                CenteredBinomial(0.5, k, [0.5])
        assert CenteredBinomial(0.5, 3.0, [0.5]).k == 3


class TestLaplace:
    def test_moments(self):
        m = Laplace([1.0, 0.5])
        rng = np.random.default_rng(6)
        draws = np.array([m.sample(rng) for _ in range(40_000)])
        assert np.allclose(draws.mean(axis=0), 0.0, atol=0.05)
        # Laplace variance is 2 mu^2
        assert np.allclose(draws.var(axis=0), [2.0, 0.5], rtol=0.1)
        assert not m.discrete

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


def _assert_same(got, want):
    """Equal under ==, sign bits included."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _assert_same_draw(got, want):
    (xi, latents), (want_xi, want_latents) = got, want
    _assert_same(xi, want_xi)
    assert latents.keys() == want_latents.keys()
    for key, value in want_latents.items():
        _assert_same(latents[key], value)


def _assert_chunk_equals_one_vector_draws(model, seed, rows):
    """R generators each make their raw draw; one transform of the stacked block must give
    every row the bits of that generator's one-vector draw, and leave it where it did."""
    rngs = [np.random.default_rng([seed, r]) for r in range(rows)]
    xi, latents = model.noise_rows(np.array([model.raw_draw(rng) for rng in rngs]))
    assert xi.shape == (rows, model.dim)
    for r, rng in enumerate(rngs):
        expected = np.random.default_rng([seed, r])
        row = xi[r], {key: value[r] for key, value in latents.items()}
        _assert_same_draw(row, draws.sample_with_latents(model, expected))
        assert rng.random(3).tolist() == expected.random(3).tolist()
    want = draws.sample_with_latents(model, np.random.default_rng([seed, 0]))
    _assert_same_draw(model.sample_with_latents(np.random.default_rng([seed, 0])), want)
    _assert_same(model.sample(np.random.default_rng([seed, 0])), want[0])


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_chunk_transform_equals_one_vector_draws(family, data):
    model = data.draw(draws.models(family), label="model")
    seed, rows = data.draw(st.integers(0, 2**32 - 1)), data.draw(st.integers(1, 7))
    _assert_chunk_equals_one_vector_draws(model, seed, rows)


@pytest.mark.parametrize(
    "model",
    [
        # at n = 1 the k axis is innermost and numpy sums it pairwise, from k = 8 on
        CenteredBinomial(0.37, 25, [0.3]),
        CenteredBinomial(0.37, 9, [0.61]),
        CenteredBinomial(0.37, 25, [0.3, 0.6, 0.45]),
        # padded coordinates and zero-mass atoms
        BoundedBinaryMixture(1.0, 1.0, [[((0.5, 0.5), 1.0)], [((0.0, 1.0), 0.0), *MIXING]]),
    ],
)
def test_chunk_transform_equals_one_vector_draws_at_the_edges(model):
    for seed in range(40):
        _assert_chunk_equals_one_vector_draws(model, seed, rows=5)


@pytest.mark.parametrize("family", ["gaussian", "laplace"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_continuous_draws_and_companions_equal_their_formulas(family, data):
    model = data.draw(draws.models(family, max_n=3), label="model")
    assume(np.max(model.scale) < 1e300)  # (1 + alpha) sigma must not overflow
    i = data.draw(st.integers(0, model.dim - 1))
    size, seed = data.draw(st.integers(1, 300)), data.draw(st.integers(0, 2**32 - 1))
    alpha = data.draw(st.floats(0.0, 1.0))
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    scale = np.full(size, float(model.scale[i]))
    _assert_same(model.coordinate_draws(i, size, ours), draws.continuous_draw(model, scale, theirs))
    got = model.companion_draws(i, alpha, size, ours)
    _assert_same(got, draws.companion_draw(model, scale, alpha, theirs))
    assert ours.random(3).tolist() == theirs.random(3).tolist()


def test_gaussian_overflow_is_unwarned_as_in_numpy():
    # rng.normal(0.0, 1.7e308) overflows to inf silently; warnings are errors here
    model = Gaussian([1.7e308] * 8 + [1.0])
    got = model.sample(np.random.default_rng(4))
    _assert_same(got, np.random.default_rng(4).normal(0.0, model.sigma))
    assert np.isinf(got).any()


def _json_text_round_trip(model):
    return noise_from_json(json.loads(json.dumps(noise_to_json(model))))


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_noise_json_round_trips_exactly(family, data):
    model = data.draw(draws.models(family, max_n=8), label="model")
    back = _json_text_round_trip(model)
    assert type(back) is type(model)
    assert back.params_json() == model.params_json()
    assert noise_to_json(_json_text_round_trip(back)) == noise_to_json(model)
    seed = data.draw(st.integers(0, 2**32 - 1))
    _assert_same_draw(
        back.sample_with_latents(np.random.default_rng(seed)),
        model.sample_with_latents(np.random.default_rng(seed)),
    )


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
