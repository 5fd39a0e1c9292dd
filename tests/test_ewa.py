"""Posterior weights, aggregation, KL, the Gibbs objective and its
minimizer."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import moments_reference as moments
from ewa_agg.bernstein import beta_threshold
from ewa_agg.ewa import (
    BLOCK_DOUBLES,
    EINSUM_BUFFER,
    EXPANSION_TOLERANCE,
    _atom_sq_distances,
    _expanded_sq_distances,
    _posterior_moments,
    _replicate_chunk,
    _signal_rows,
    aggregate,
    dv_minimality_test,
    ewa_estimate,
    gibbs_objective,
    kl_divergence,
    posterior_variance,
    posterior_weights,
    sampled_prior_ewa,
    squared_distance,
)
from ewa_agg.model import Dictionary, WeightVector, sup_diameter
from ewa_agg.noise import Gaussian

RNG_SEED = 20250822


def _naive_weights(y, atoms, prior, beta):
    # direct formula, no log-space tricks; only safe for moderate distances
    d = ((atoms - y) ** 2).sum(axis=1)
    raw = prior * np.exp(-d / beta)
    return raw / raw.sum()


def _count_priors(rng, m, rows, picks):
    """Each row's sampled prior over m atoms, as a replicate with prior_samples = picks takes
    it: c_j / picks from the counts c_j of its uniform picks, 0 on every atom left unpicked
    (always some where picks < m), and the logs of those weights, -inf at the zeros."""
    idx = rng.integers(0, m, (rows, picks))
    w = np.stack([np.bincount(row, minlength=m) for row in idx]) / picks
    with np.errstate(divide="ignore"):
        return w, np.log(w)


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
    [
        (10, 50, "C"),  # the canned configs' shape
        (4096, 256, "C"),  # the wide config's
        (1024, 256, "C"),
        (1100, 64, "C"),
        (300, 256, "C"),
        (20000, 7, "C"),
        (20, 8192, "C"),
        (1, 8192, "C"),
        (2, 4096, "C"),
        (5000, 1, "C"),
        (1, 1, "C"),
        (3, 10000, "C"),  # rows past einsum's buffer: a block of three would sum otherwise
        (5, 40000, "C"),
        (2, 70000, "C"),
        (257, 256, "F"),
    ],
)
def test_atom_distances_equal_whole_differences_bit_for_bit(m, n, order):
    # each row sums as its whole C-ordered difference does (a row past einsum's buffer
    # alone), whatever the atoms' memory order and however many rows share the call: one
    # signal, 0.0 for the squared norms, a block of _signal_rows(m, n) signals or one (a
    # span's last chunk may hold one), or a replicate chunk's BLOCK_DOUBLES // max(m, n)
    # signals, sampled prior or not, each against the one set of atoms
    rng = np.random.default_rng(RNG_SEED)
    atoms = np.array(rng.normal(scale=30.0, size=(m, n)), order=order)
    signals = _signal_rows(m, n)
    chunk_rows = 1 if n > EINSUM_BUFFER else BLOCK_DOUBLES // max(m, n)
    ys = rng.normal(size=(max(signals, chunk_rows), n))

    def whole(y, a):
        diff = np.ascontiguousarray(a - y)
        rows = diff.reshape(-1, n)
        if n > EINSUM_BUFFER:
            sums = np.concatenate([np.einsum("ij,ij->i", row, row) for row in rows[:, None]])
        else:
            sums = np.einsum("ij,ij->i", rows, rows)
        return sums.reshape(diff.shape[:-1])

    got = _atom_sq_distances(ys[0], atoms)
    assert np.array_equal(got, whole(ys[0], atoms))
    assert np.array_equal(_atom_sq_distances(0.0, atoms), whole(0.0, atoms))
    for j in (0, m - 1):
        assert _atom_sq_distances(ys[0], atoms[j : j + 1])[0] == got[j]
        assert squared_distance(atoms[j], ys[0]) == got[j]
    for k in {signals, 1}:
        chunk = ys[:k, None]
        assert np.array_equal(_atom_sq_distances(ys[:k], atoms), whole(chunk, atoms[None]))
    rows = _atom_sq_distances(ys[:chunk_rows], atoms)
    assert np.array_equal(rows[0], got)
    assert np.array_equal(rows[-1], whole(ys[chunk_rows - 1], atoms))


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 40),
    n=st.integers(1, 64),
    rows=st.integers(1, 40),
    picks=st.one_of(st.none(), st.integers(1, 12)),
    weights=st.sampled_from(("dense", "sparse", "broadcast", "far")),
    scale=st.integers(-160, 160),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=3, n=EINSUM_BUFFER + 1, rows=3, picks=None, weights="dense", scale=0, seed=1)
@example(m=40, n=64, rows=26, picks=None, weights="sparse", scale=0, seed=2)
@example(m=5, n=7, rows=9, picks=4, weights="broadcast", scale=0, seed=3)
@example(m=6, n=3, rows=8, picks=None, weights="sparse", scale=160, seed=4)
@example(m=6, n=3, rows=8, picks=5, weights="dense", scale=155, seed=5)
@example(m=6, n=3, rows=8, picks=None, weights="far", scale=0, seed=6)
def test_moment_rows_equal_the_one_row_formulas(m, n, rows, picks, weights, scale, seed):
    # rows of weights that are exactly zero or subnormal, or one row broadcast as at
    # beta = +inf (stride 0), drawn from the simplex or, with picks, each row's own sampled
    # prior (`_count_priors`, zeros on unpicked atoms); at scale 155 and up the squared
    # norms overflow: inf - inf gives NaN, and an atom of weight 0 adds 0.
    # "far": only the odd atoms, of weight 0 in every row, overflow, so 0 * inf = NaN would
    # show where every other term is finite
    assert _signal_rows(40, 64) < 26 and _signal_rows(3, EINSUM_BUFFER + 1) == 1
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(m, n))
    atoms = base * 10.0**scale
    truth = rng.normal(size=n) * 10.0**scale
    far = np.arange(m) % 2 == 1
    if weights == "far":
        atoms[far] = base[far] * 1e170
    with np.errstate(over="ignore"):
        norms = _atom_sq_distances(0.0, atoms)

    def draw(count):
        if picks is None:
            return rng.dirichlet(np.ones(m), size=count)
        return _count_priors(rng, m, count, picks)[0]

    w = np.broadcast_to(draw(1)[0], (rows, m)) if weights == "broadcast" else draw(rows)
    if weights == "sparse":
        w[rng.random(w.shape) < 0.3] = 0.0
        tiny = rng.random(w.shape) < 0.3
        w[tiny] = rng.integers(1, 2**52, tiny.sum()) * 5e-324
    if weights == "far":
        w *= ~far
    with np.errstate(over="ignore", invalid="ignore"):
        got = np.array(_posterior_moments(w, atoms, norms, truth))
        want = np.array([moments.one_row(w[r], atoms, norms, truth) for r in range(rows)]).T
        assert got.tobytes() == want.tobytes()  # NaN and the sign of zero included
        if weights in ("dense", "broadcast"):  # one row, a probability vector
            one = posterior_variance(Dictionary(atoms), w[0])
            assert np.float64(one).tobytes() == want[1, 0].tobytes()


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(1, 12),
    n=st.integers(1, 64),
    rows=st.integers(1, 6),
    picks=st.one_of(st.none(), st.integers(1, 8)),
    scales=st.tuples(*[st.integers(-170, 100)] * 3),
    planted=st.booleans(),
    log_ratio=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=4, n=9, rows=3, picks=None, scales=(0, 0, 0), planted=True, log_ratio=0.0, seed=1)
@example(m=3, n=5, rows=4, picks=6, scales=(-160, -165, -170), planted=False, log_ratio=-1.0,
         seed=2)
@example(m=5, n=64, rows=6, picks=None, scales=(100, -3, 2), planted=True, log_ratio=0.5,
         seed=3)
# two blocks of atoms in the cross term (_signal_rows(1, 300) = 218), atom 0's copy in the second
@example(m=300, n=300, rows=6, picks=None, scales=(0, 0, 0), planted=False, log_ratio=0.0,
         seed=4)
def test_expanded_distances_lie_within_their_bound(
    m, n, rows, picks, scales, planted, log_ratio, seed
):
    # the expansion about the truth stays within its stated bound of the explicit kernel at
    # every scale, subnormal products included, and where the guard keeps a row at beta its
    # log-weights are within 2^-30 of the explicit ones, under a uniform prior or, with
    # picks, each row's own sampled prior (`_count_priors`), whose unpicked atoms keep -inf;
    # a row's bits are its one-row call's, and equal atoms give equal columns. "planted"
    # puts row 0 within 1e-6 of atom 0 (relative to the spread), where the expansion cancels
    truth_scale, spread, noise_scale = (10.0**k for k in scales)
    rng = np.random.default_rng(seed)
    truth = rng.normal(size=n) * truth_scale
    atoms = truth + rng.normal(size=(m, n)) * spread
    atoms = np.vstack([atoms, atoms[:1]])  # a copy of atom 0
    noise = rng.normal(size=(rows, n)) * noise_scale
    if planted:
        noise[0] = atoms[0] - truth + rng.normal(size=n) * 1e-6 * spread
    y = truth + noise
    gaps = _atom_sq_distances(truth, atoms)
    reach = math.sqrt(_atom_sq_distances(0.0, atoms).max()) + math.hypot(*truth.tolist())
    d, err = _expanded_sq_distances(noise, atoms, truth, gaps, reach)
    explicit = _atom_sq_distances(y, atoms)
    assert np.all(np.abs(d - explicit) <= err[:, None])
    for r in range(rows):
        d_r, err_r = _expanded_sq_distances(noise[r : r + 1], atoms, truth, gaps, reach)
        assert d_r.tobytes() == d[r : r + 1].tobytes() and err_r[0] == err[r]
    assert np.array_equal(d[:, -1], d[:, 0])
    beta = err.max() / EXPANSION_TOLERANCE * 10.0**log_ratio
    kept = err <= EXPANSION_TOLERANCE * beta
    assert kept.any() or log_ratio < 0.0
    if picks is None:
        log_prior = np.full((rows, m + 1), -math.log(m + 1))
    else:
        log_prior = _count_priors(rng, m + 1, rows, picks)[1]
    with np.errstate(over="ignore", invalid="ignore"):  # -inf - -inf at the zeros is NaN
        expanded, direct = log_prior - d / beta, log_prior - explicit / beta
        gap = np.abs(expanded - direct)
    held = log_prior > -np.inf
    assert np.all(gap[kept[:, None] & held] <= 2.0**-30)
    assert np.all(expanded[~held] == -np.inf) and np.all(direct[~held] == -np.inf)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 300),
    n=st.integers(1, 300),
    rows=st.integers(1, 70),
    picks=st.one_of(st.none(), st.integers(1, 8)),
    scales=st.tuples(*[st.integers(-150, 100)] * 3),
    loud=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
)
# two blocks of atoms in the cross term (_signal_rows(1, 300) = 218), atom 0's copy in the second
@example(m=300, n=300, rows=70, picks=None, scales=(0, 0, 0), loud=0, seed=1)
@example(m=300, n=300, rows=70, picks=None, scales=(0, 0, 0), loud=4, seed=2)
@example(m=4, n=9, rows=33, picks=6, scales=(6, -1, 0), loud=2, seed=3)
def test_chunk_kernel_rows_equal_their_one_row_calls(m, n, rows, picks, scales, loud, seed):
    # each row of a chunk is bit for bit its one-row call, at the threshold, at half of it,
    # at +inf (the prior) and at 1e-310 (every row refused, the beta -> 0 limit) in one call,
    # and each beta's pair is its call at that beta alone; against the dictionary, one atom
    # of which has a copy, under one shared prior or, with picks, each row's own sampled
    # prior (`_count_priors`, zeros on unpicked atoms). About half the rows carry noise 10^loud
    # times the family's, so that the guard keeps some rows of a chunk and refuses others.
    # Permuting the chunk's rows permutes its outputs
    truth_scale, spread, noise_scale = (10.0**k for k in scales)
    rng = np.random.default_rng(seed)
    truth = rng.normal(size=n) * truth_scale
    atoms = truth + rng.normal(size=(m, n)) * spread
    atoms = np.vstack([atoms, atoms[:1]])  # a copy of atom 0
    noise = Gaussian.homogeneous(n, noise_scale)
    xi = noise.noise_rows(rng.standard_normal((rows, n)))[0]
    xi[rng.random(rows) < 0.5] *= 10.0**loud
    threshold = beta_threshold(noise.profile(), sup_diameter(Dictionary(atoms)))
    betas = (threshold, threshold / 2.0, math.inf, 1e-310)
    norms, gaps = _atom_sq_distances(0.0, atoms), _atom_sq_distances(truth, atoms)
    reach = math.sqrt(norms.max()) + math.hypot(*truth.tolist())
    if picks is None:
        weights = rng.dirichlet(np.ones(m + 1))
        weights[rng.random(weights.size) < 0.3] = 0.0
        weights[0] += 1.0 - weights.sum()  # the prior keeps atom 0
        prior = WeightVector(weights)
        shared = prior.weights, prior.log_weights
    else:
        sampled = _count_priors(rng, m + 1, rows, picks)

    def kernel(r, temperatures=betas):
        own = shared if picks is None else (sampled[0][r], sampled[1][r])
        pairs = _replicate_chunk(xi[r], atoms, norms, gaps, truth, reach, *own, temperatures)
        return np.array(pairs)

    with np.errstate(over="ignore"):
        chunk = kernel(slice(None))  # (beta, risk or variance, row)
        for b, beta in enumerate(betas):
            assert kernel(slice(None), (beta,)).tobytes() == chunk[b : b + 1].tobytes()
        for r in range(rows):
            assert kernel(slice(r, r + 1)).tobytes() == chunk[..., r : r + 1].tobytes()
        order = rng.permutation(rows)
        assert kernel(order).tobytes() == chunk[..., order].tobytes()


@pytest.mark.parametrize(
    "m, n, order", [(1000, 300, "C"), (700, 129, "F"), (3, EINSUM_BUFFER, "C"), (9000, 8, "C")]
)
def test_blocked_cross_term_equals_one_einsum(m, n, order):
    # the cross term goes over blocks of _signal_rows(1, n) atoms, and each (r, j) is still one
    # einsum dot over the same n terms: d is bit for bit the expansion from one einsum
    rng = np.random.default_rng(RNG_SEED)
    truth, noise = rng.normal(size=n), rng.normal(size=(7, n))
    atoms = np.array(truth + rng.normal(size=(m, n)), order=order)
    gaps = _atom_sq_distances(truth, atoms)
    d, _ = _expanded_sq_distances(noise, atoms, truth, gaps, 1.0)
    want = np.einsum("rk,jk->rj", noise, atoms)
    want -= np.einsum("rk,k->r", noise, truth)[:, None]
    want *= -2.0
    want += _atom_sq_distances(0.0, noise)[:, None]
    want += gaps
    assert d.tobytes() == want.tobytes()


def test_posterior_variance_never_negative():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(20):
        atoms = rng.normal(size=(4, 3)) * 1e-8 + 5.0  # tight cluster, cancellation-prone
        w = rng.dirichlet(np.ones(4))
        assert posterior_variance(Dictionary(atoms), w) >= 0.0


def test_an_atom_of_weight_zero_adds_no_variance():
    # the far atom's squared norm overflows: at weight 0 it adds 0 to w . ||theta||^2 (not
    # 0 * inf = NaN); at any weight, a subnormal one too, the variance is not finite
    atoms = Dictionary(np.array([[1.0, 2.0], [3.0, 4.0], [1e155, 1e155]]))
    with np.errstate(over="ignore", invalid="ignore"):
        assert posterior_variance(atoms, [0.5, 0.5, 0.0]) == 1.0 + 1.0
        assert posterior_variance(atoms, [0.5, 0.5 - 5e-324, 5e-324]) == math.inf
        assert math.isnan(posterior_variance(atoms, [0.5, 0.0, 0.5]))  # inf - inf


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
