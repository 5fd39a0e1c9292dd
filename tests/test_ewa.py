"""Posterior weights, aggregation, KL, the Gibbs objective and its
minimizer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewa_agg.ewa import (
    _atom_sq_distances,
    aggregate,
    dv_minimality_test,
    ewa_estimate,
    gibbs_objective,
    kl_divergence,
    posterior_variance,
    posterior_weights,
    sampled_prior_ewa,
)
from ewa_agg.model import Dictionary, WeightVector

RNG_SEED = 20250822


def _naive_weights(y, atoms, prior, beta):
    # direct formula, no log-space tricks; only safe for moderate distances
    d = ((atoms - y) ** 2).sum(axis=1)
    raw = prior * np.exp(-d / beta)
    return raw / raw.sum()


def test_scalar_two_atom_hand_value():
    # y = 1, atoms {0, 1}, uniform prior, beta = 1:
    # distances are 1 and 0, so the weights are
    # exp(-1)/(1+exp(-1)) and 1/(1+exp(-1))
    d = Dictionary([[0.0], [1.0]])
    post = posterior_weights(np.array([1.0]), d, WeightVector.uniform(2), 1.0)
    lo = math.exp(-1.0) / (1.0 + math.exp(-1.0))
    hi = 1.0 / (1.0 + math.exp(-1.0))
    assert post.weights[0] == pytest.approx(lo, rel=1e-14)
    assert post.weights[1] == pytest.approx(hi, rel=1e-14)
    assert isinstance(post, WeightVector)


def test_matches_naive_formula_on_random_instances():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(30):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(1, 5))
        atoms = rng.normal(size=(m, n))
        y = rng.normal(size=n)
        prior = rng.dirichlet(np.ones(m))
        beta = float(rng.uniform(0.5, 8.0))
        post = posterior_weights(y, Dictionary(atoms), WeightVector(prior), beta)
        naive = _naive_weights(y, atoms, prior, beta)
        assert np.allclose(post.weights, naive, rtol=1e-11, atol=1e-15)


@st.composite
def _posterior_instances(draw):
    """A signal, atoms and a prior (some atoms without mass), and a beta from 0.5 to 50."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    row = st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)
    atoms = np.array(draw(st.lists(row, min_size=m, max_size=m)))
    mass = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    raw = np.array(draw(st.lists(mass, min_size=m, max_size=m).filter(any)))
    beta = draw(st.floats(math.log(0.5), math.log(50.0)).map(math.exp))
    return np.array(draw(row)), atoms, raw / raw.sum(), beta


@settings(max_examples=300, deadline=None)
@given(_posterior_instances(), st.data())
def test_posterior_is_translation_invariant(instance, data):
    y, atoms, prior, beta = instance
    shift = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=y.size, max_size=y.size)))
    w = posterior_weights(y, Dictionary(atoms), WeightVector(prior), beta).weights
    moved = posterior_weights(y + shift, Dictionary(atoms + shift), WeightVector(prior), beta)
    # the shift rounds each coordinate by an ulp of 13 at most
    assert np.max(np.abs(moved.weights - w)) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(_posterior_instances(), st.randoms(use_true_random=False))
def test_posterior_is_permutation_equivariant(instance, random):
    y, atoms, prior, beta = instance
    order = list(range(len(prior)))
    random.shuffle(order)
    w = posterior_weights(y, Dictionary(atoms), WeightVector(prior), beta).weights
    permuted = posterior_weights(y, Dictionary(atoms[order]), WeightVector(prior[order]), beta)
    # each distance and log-weight keeps its bits; only the sums change their order
    assert np.max(np.abs(permuted.weights - w[order])) <= 4 * np.finfo(np.float64).eps


def test_zero_prior_atoms_stay_exactly_zero():
    d = Dictionary([[0.0], [1.0], [2.0]])
    prior = WeightVector([0.5, 0.0, 0.5])
    post = posterior_weights(np.array([1.0]), d, prior, 2.0)
    assert post.weights[1] == 0.0
    assert post.log_weights[1] == -np.inf


def test_huge_distances_do_not_overflow():
    # naive exp(-d/beta) would underflow to 0/0 here
    d = Dictionary([[1.0e4], [1.0e4 + 1.0]])
    post = posterior_weights(np.array([0.0]), d, WeightVector.uniform(2), 1.0)
    w = post.weights
    assert np.all(np.isfinite(w))
    assert abs(w.sum() - 1.0) <= 1e-12
    assert w[0] == pytest.approx(1.0, abs=1e-9)  # nearer atom takes all mass


def test_subnormal_beta_gives_the_nearest_supported_atoms():
    # every d_j / beta overflows; the posterior is the beta -> 0 limit, the
    # prior restricted to the nearest atoms of positive prior mass
    d = Dictionary([[0.0, 0.0], [1.0, 1.0], [3.0, 0.0]])
    y = np.array([0.2, 0.1])
    post = posterior_weights(y, d, WeightVector.uniform(3), 1e-310)
    assert post.weights.tolist() == [1.0, 0.0, 0.0]
    assert post.log_weights.tolist() == [0.0, -np.inf, -np.inf]
    post = posterior_weights(y, d, WeightVector([0.0, 0.25, 0.75]), 1e-310)
    assert post.weights.tolist() == [0.0, 1.0, 0.0]
    # two atoms at the same distance share the mass as the prior does
    tied = Dictionary([[1.0, 0.0], [0.0, 1.0], [3.0, 0.0]])
    post = posterior_weights(np.zeros(2), tied, WeightVector([0.2, 0.6, 0.2]), 1e-310)
    assert post.weights == pytest.approx([0.25, 0.75, 0.0], abs=1e-15)
    # every distance overflows to +inf: there is no nearest atom
    with pytest.raises(ValueError, match="carry some mass"):
        posterior_weights([0.0], Dictionary([[1e200], [2e200]]), WeightVector.uniform(2), 1.0)


def test_infinite_beta_returns_prior():
    d = Dictionary([[0.0], [1.0]])
    prior = WeightVector([0.3, 0.7])
    post = posterior_weights(np.array([0.0]), d, prior, np.inf)
    assert post is prior


def test_posterior_weight_validation():
    d = Dictionary([[0.0], [1.0]])
    with pytest.raises(ValueError, match="beta must be positive"):
        posterior_weights(np.array([0.0]), d, WeightVector.uniform(2), 0.0)
    with pytest.raises(ValueError, match="prior length"):
        posterior_weights(np.array([0.0]), d, WeightVector.uniform(3), 1.0)


def test_aggregate_matches_manual_sum():
    d = Dictionary([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    w = np.array([0.2, 0.3, 0.5])
    assert np.allclose(aggregate(d, w), w @ d.atoms)
    # a Dirac aggregates to its atom
    assert aggregate(d, WeightVector.dirac(3, 1)).tolist() == [2.0, 0.0]


def test_posterior_variance_hand_value():
    # uniform over {(0,0), (2,0), (0,2)}: E||theta||^2 = 8/3,
    # mean = (2/3, 2/3), so variance = 8/3 - 8/9 = 16/9
    d = Dictionary([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    v = posterior_variance(d, WeightVector.uniform(3))
    assert v == pytest.approx(16.0 / 9.0, rel=1e-14)
    assert posterior_variance(d, WeightVector.dirac(3, 2)) == 0.0


@pytest.mark.parametrize(
    "m, n, order",
    [(300, 256, "C"), (20000, 7, "C"), (20, 8192, "C"), (5, 40000, "C"), (257, 256, "F")],
)
def test_atom_distances_equal_whole_differences_bit_for_bit(m, n, order):
    # the first three go a block of rows at a time; a row past einsum's buffer
    # and Fortran-ordered atoms are differenced whole
    rng = np.random.default_rng(RNG_SEED)
    atoms = np.array(rng.normal(scale=30.0, size=(m, n)), order=order)
    y = rng.normal(size=n)
    diff = atoms - y
    whole = np.einsum("ij,ij->i", diff, diff)
    assert np.array_equal(_atom_sq_distances(y, atoms), whole)


@pytest.mark.parametrize("m, n", [(1, 8192), (2, 4096), (10, 50), (5000, 1), (1, 1)])
def test_signal_blocks_equal_one_signal_at_a_time(m, n):
    # rows that fit einsum's buffer: `_signal_rows` sends a longer one alone
    rng = np.random.default_rng(RNG_SEED)
    atoms = rng.normal(scale=30.0, size=(m, n))
    ys = rng.normal(size=(3, n))
    own = rng.normal(size=(3, m, n))
    block = _atom_sq_distances(ys, atoms)
    assert np.array_equal(block, [_atom_sq_distances(y, atoms) for y in ys])
    rows = [_atom_sq_distances(y, a) for y, a in zip(ys, own)]
    assert np.array_equal(_atom_sq_distances(ys, own), rows)
    assert np.array_equal(_atom_sq_distances(ys[:1], atoms), block[:1])


def test_posterior_variance_never_negative():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(20):
        atoms = rng.normal(size=(4, 3)) * 1e-8 + 5.0  # tight cluster, cancellation-prone
        w = rng.dirichlet(np.ones(4))
        assert posterior_variance(Dictionary(atoms), w) >= 0.0


class TestKlDivergence:
    def test_dirac_against_uniform(self):
        for m in (2, 4, 10):
            kl = kl_divergence(WeightVector.dirac(m, 0), WeightVector.uniform(m))
            assert kl == pytest.approx(math.log(m), abs=1e-12)

    def test_absolute_continuity(self):
        assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf
        # 0 log 0 = 0: support shrinkage is fine
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2.0))

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(RNG_SEED + 2)
        for _ in range(30):
            m = int(rng.integers(2, 7))
            p = rng.dirichlet(np.ones(m))
            q = rng.dirichlet(np.ones(m))
            assert kl_divergence(p, q) >= 0.0
            assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-14)


def test_gibbs_objective_infinite_off_support():
    d = Dictionary([[0.0], [1.0]])
    prior = WeightVector([1.0, 0.0])
    val = gibbs_objective([0.5, 0.5], np.array([0.0]), d, prior, 1.0)
    assert val == math.inf


def test_gibbs_objective_at_posterior_matches_log_partition():
    # DV duality: the minimum of the objective equals
    # -beta * log sum_j pi(j) exp(-d_j / beta)
    rng = np.random.default_rng(RNG_SEED + 3)
    for _ in range(20):
        m = int(rng.integers(2, 8))
        n = int(rng.integers(1, 4))
        atoms = rng.normal(size=(m, n))
        y = rng.normal(size=n)
        prior = WeightVector(rng.dirichlet(np.ones(m)))
        beta = float(rng.uniform(0.5, 6.0))
        post = posterior_weights(y, Dictionary(atoms), prior, beta)
        val = gibbs_objective(post.weights, y, Dictionary(atoms), prior, beta)
        d = ((atoms - y) ** 2).sum(axis=1)
        closed = -beta * math.log(float(prior.weights @ np.exp(-d / beta)))
        assert val == pytest.approx(closed, rel=1e-10, abs=1e-10)


def test_ewa_estimate_bundles_weights_and_mean():
    d = Dictionary([[0.0], [1.0]])
    est, post = ewa_estimate(np.array([1.0]), d, WeightVector.uniform(2), 1.0)
    assert np.allclose(est, aggregate(d, post))


class TestSampledPriorEwa:
    def test_recovers_finite_computation(self):
        # a sampler that returns a fixed atom list with equal frequency
        atoms = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, -1.0]])
        reps = np.repeat(atoms, 100, axis=0)

        def sampler(rng, s):
            assert s == reps.shape[0]
            return reps

        y = np.array([0.8, 0.1])
        est = sampled_prior_ewa(y, sampler, 2.0, reps.shape[0], np.random.default_rng(0))
        exact = aggregate(
            Dictionary(atoms),
            posterior_weights(y, Dictionary(atoms), WeightVector.uniform(3), 2.0),
        )
        assert np.allclose(est, exact, rtol=1e-12)

    def test_infinite_beta_is_sample_mean(self):
        draws = np.random.default_rng(1).normal(size=(50, 3))
        est = sampled_prior_ewa(
            np.zeros(3), lambda rng, s: draws, np.inf, 50, np.random.default_rng(2)
        )
        assert np.allclose(est, draws.mean(axis=0))

    def test_converges_to_continuous_posterior_mean(self):
        # scalar gaussian prior N(0, 1), y observed, squared loss:
        # the beta-posterior over theta is N(y/(1+beta/2... ) -- instead of
        # trusting algebra, compare two sample sizes for stabilization
        rng = np.random.default_rng(RNG_SEED + 4)
        y = np.array([1.2])
        sampler = lambda r, s: r.normal(size=(s, 1))
        small = sampled_prior_ewa(y, sampler, 2.0, 2_000, rng)
        big = sampled_prior_ewa(y, sampler, 2.0, 200_000, rng)
        assert abs(float(small[0] - big[0])) < 0.05
        # beta = 2 against an N(0,1) prior conjugates to posterior mean y/2
        assert float(big[0]) == pytest.approx(0.6, abs=0.02)

    def test_tiny_beta_raises_instead_of_nan(self):
        # every log-weight underflows; neither NaN nor an error comes out, but the
        # beta -> 0 limit: the nearest draw
        draws = np.array([[1.0, 0.0], [0.0, 2.0]])
        est = sampled_prior_ewa(
            np.zeros(2), lambda rng, s: draws, 1e-320, 2, np.random.default_rng(0)
        )
        assert est.tolist() == [1.0, 0.0]

    def test_validation(self):
        with pytest.raises(ValueError, match="positive integer"):
            sampled_prior_ewa(np.zeros(1), lambda r, s: np.zeros((1, 1)), 1.0, 0, None)
        with pytest.raises(ValueError, match=r"\(s, n\)"):
            sampled_prior_ewa(
                np.zeros(1), lambda r, s: np.zeros((3, 1)), 1.0, 2, np.random.default_rng(0)
            )


def test_dv_minimality_on_random_instances():
    rng = np.random.default_rng(RNG_SEED + 5)
    for _ in range(10):
        m = int(rng.integers(2, 8))
        n = int(rng.integers(1, 6))
        d = Dictionary(rng.normal(size=(m, n)))
        prior = WeightVector(rng.dirichlet(np.ones(m)))
        y = rng.normal(size=n)
        beta = float(rng.uniform(0.5, 5.0))
        report = dv_minimality_test(y, d, prior, beta, 60, rng)
        assert report.verdict, f"violation {report.worst_violation}"
        assert report.trials == 60
        assert report.worst_violation <= 1e-9


def test_dv_minimality_respects_prior_support():
    # zero-prior atoms must stay out of the perturbations, else the
    # objective would be infinite and the test vacuous
    d = Dictionary([[0.0], [1.0], [5.0]])
    prior = [0.5, 0.5, 0.0]
    report = dv_minimality_test(
        np.array([0.2]), d, WeightVector(prior), 1.0, 40, np.random.default_rng(RNG_SEED + 6)
    )
    assert report.verdict
    assert math.isfinite(report.worst_violation)
    # a plain-array prior is coerced once, as posterior_weights coerces it
    plain = dv_minimality_test(np.array([0.2]), d, prior, 1.0, 40, np.random.default_rng(RNG_SEED + 6))
    assert plain == report


def test_counts_are_checked_not_truncated():
    # 2.9 trials used to run 2, True ran 1, and s = 3.7 drew 3 atoms
    d = Dictionary([[0.0], [1.0]])
    y, prior = np.array([0.2]), WeightVector.uniform(2)
    for trials in (2.9, True, 0):
        with pytest.raises(ValueError, match="trials must be a positive integer"):
            dv_minimality_test(y, d, prior, 1.0, trials, np.random.default_rng(0))
    assert dv_minimality_test(y, d, prior, 1.0, np.int64(3), np.random.default_rng(0)).trials == 3
    for s in (3.7, False):
        with pytest.raises(ValueError, match="s must be a positive integer"):
            sampled_prior_ewa(y, lambda rng, k: np.zeros((3, 1)), 1.0, s, np.random.default_rng(0))
