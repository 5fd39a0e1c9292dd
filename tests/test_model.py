"""Core data types: signals, dictionaries, weight vectors, configs."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp

import draw_reference as draws
from ewa_agg.ewa import squared_distance
from ewa_agg.model import (
    Dictionary,
    ExperimentConfig,
    WeightVector,
    _as_weight_array,
    as_signal,
    logsumexp,
    softmax,
    sup_diameter,
)
from ewa_agg.noise import FAMILIES, Gaussian
from ewa_agg.oracle import make_scenario


def test_as_signal_coerces_lists():
    arr = as_signal([1, 2, 3])
    assert arr.dtype == np.float64
    assert arr.tolist() == [1.0, 2.0, 3.0]


def test_as_signal_rejects_bad_input():
    with pytest.raises(ValueError):
        as_signal([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_signal([])
    with pytest.raises(ValueError):
        as_signal([1.0, np.nan])
    with pytest.raises(ValueError):
        as_signal([1.0, 2.0], dim=3)


def test_squared_distance_hand_value():
    assert squared_distance([0.0, 0.0], [3.0, 4.0]) == 25.0
    with pytest.raises(ValueError, match="dimension mismatch"):
        squared_distance([0.0], [0.0, 0.0])


def test_dictionary_shape_and_immutability():
    d = Dictionary([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    assert (d.m, d.n) == (3, 2)
    assert len(d) == 3
    assert d.atom(1).tolist() == [2.0, 3.0]
    with pytest.raises(ValueError):
        d.atoms[0, 0] = 9.0


def test_dictionary_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Dictionary([1.0, 2.0])
    with pytest.raises(ValueError):
        Dictionary(np.empty((0, 3)))
    with pytest.raises(ValueError):
        Dictionary([[np.inf]])


def test_sup_diameter_hand_value():
    # coordinate ranges are 1 and 0.5; the sup-norm diameter is the larger
    assert sup_diameter(Dictionary([[0.0, 0.0], [1.0, 0.5]])) == 1.0
    assert sup_diameter(Dictionary([[3.0, 3.0]])) == 0.0


def test_sup_diameter_matches_pairwise_enumeration():
    rng = np.random.default_rng(20250822)
    for _ in range(25):
        m = int(rng.integers(2, 8))
        n = int(rng.integers(1, 6))
        atoms = rng.normal(size=(m, n))
        d = Dictionary(atoms)
        brute = max(
            np.max(np.abs(atoms[i] - atoms[j]))
            for i in range(m)
            for j in range(m)
        )
        assert sup_diameter(d) == pytest.approx(brute, abs=0.0)


class TestWeightVector:
    def test_uniform_and_dirac(self):
        u = WeightVector.uniform(4)
        assert np.allclose(u.weights, 0.25)
        assert np.allclose(u.log_weights, math.log(0.25))
        d = WeightVector.dirac(3, 1)
        assert d.weights.tolist() == [0.0, 1.0, 0.0]
        assert d.log_weights[0] == -np.inf
        assert d.log_weights[1] == 0.0
        assert d.support.tolist() == [False, True, False]

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightVector([0.5, -0.5, 1.0])
        with pytest.raises(ValueError):
            WeightVector([0.5, 0.6])
        with pytest.raises(ValueError):
            WeightVector([0.5, 0.5], log_weights=[0.0, math.log(0.5)])
        with pytest.raises(ValueError):
            # log weight must be -inf exactly where mass is zero
            WeightVector([1.0, 0.0], log_weights=[0.0, -700.0])

    def test_from_log_weights_shift_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            lw = rng.normal(size=6) * 50.0
            a = WeightVector.from_log_weights(lw)
            b = WeightVector.from_log_weights(lw + 1234.5)
            assert np.allclose(a.weights, b.weights, rtol=1e-12, atol=0.0)
            assert abs(a.weights.sum() - 1.0) <= 1e-12

    def test_from_log_weights_handles_extremes(self):
        # the -1e4 entry underflows exp; its stored log weight must pin to -inf
        w = WeightVector.from_log_weights(np.array([0.0, -800.0, -1.0e4]))
        assert w.weights[0] == pytest.approx(1.0, abs=1e-12)
        assert w.weights[2] == 0.0
        assert w.log_weights[2] == -np.inf
        # a large common shift must not overflow
        w = WeightVector.from_log_weights(np.array([1.0e4, 1.0e4 - 1.0]))
        assert w.weights[0] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), rel=1e-14)
        with pytest.raises(ValueError):
            WeightVector.from_log_weights([np.inf, 0.0])
        with pytest.raises(ValueError):
            WeightVector.from_log_weights([-np.inf, -np.inf])


_log_weights = st.one_of(
    st.floats(1e-3, 1e4), st.floats(-1e4, -1e-3), st.just(0.0), st.just(-math.inf)
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_log_weights, min_size=1, max_size=12), st.integers(0, 3))
def test_logsumexp_equals_scipy(values, ties):
    # `ties` extra copies of the max: those entries leave the shifted sum
    a = np.array(values + [max(values)] * ties)
    assert logsumexp(a) == scipy_logsumexp(a)


def test_logsumexp_edges():
    assert logsumexp(np.array([2.5])) == 2.5
    assert logsumexp(np.array([1e4, 1e4])) == scipy_logsumexp(np.array([1e4, 1e4]))
    assert logsumexp(np.full(3, -np.inf)) == -np.inf
    assert logsumexp(np.array([-np.inf, 0.0, -np.inf])) == 0.0


@st.composite
def _log_weight_rows(draw):
    """1 to 6 rows of 1 to 12 log-weights, with copies of a row's max and all -inf rows."""
    m = draw(st.integers(1, 12))
    row = st.lists(_log_weights, min_size=m, max_size=m)
    a = np.array(draw(st.lists(row, min_size=1, max_size=6)))
    for values in a:
        if draw(st.booleans()):
            values[:] = -math.inf
        for j in draw(st.lists(st.integers(0, m - 1), max_size=3)):
            values[j] = values.max()
    return a


@settings(max_examples=500, deadline=None)
@given(_log_weight_rows())
def test_normalizers_work_row_by_row(a):
    total = logsumexp(a)
    assert total.shape == (len(a),)
    assert [total[k] for k in range(len(a))] == [logsumexp(row) for row in a]
    if np.any(total == -np.inf):
        with pytest.raises(ValueError, match="must carry some mass"):
            softmax(a)
        return
    w, lw = softmax(a)
    for k, row in enumerate(a):
        w_k, lw_k = softmax(row)
        assert np.array_equal(w[k], w_k)
        assert np.array_equal(lw[k], lw_k)


def test_softmax_rejects_each_bad_row():
    rows = np.zeros((3, 2))
    for bad in (np.nan, np.inf):
        rows[1, 0] = bad
        with pytest.raises(ValueError, match="< \\+inf and not NaN"):
            softmax(rows)
    rows[1] = -np.inf
    with pytest.raises(ValueError, match="must carry some mass"):
        softmax(rows)
    for shape in ((0,), (2, 0), (1, 1, 1)):
        with pytest.raises(ValueError, match="non-empty 1-D array"):
            softmax(np.zeros(shape))


def test_as_weight_array_accepts_wrappers():
    w = WeightVector.uniform(3)
    assert _as_weight_array(w).tolist() == w.weights.tolist()
    assert _as_weight_array([0.2, 0.8]).tolist() == [0.2, 0.8]
    with pytest.raises(ValueError):
        _as_weight_array([0.2, 0.2])
    with pytest.raises(ValueError):
        _as_weight_array(w, m=5)
    with pytest.raises(ValueError, match="weights must be finite"):
        _as_weight_array([math.nan, 1.0])
    # the one simplex tolerance: what WeightVector refuses, a raw array may not pass
    off = [0.5, 0.5 + 5e-10]
    with pytest.raises(ValueError, match="sum to 1"):
        WeightVector(off)
    with pytest.raises(ValueError, match="probability vector"):
        _as_weight_array(off)


def _small_config(**overrides):
    base = dict(
        truth=np.array([0.3, 0.6]),
        dictionary=Dictionary([[0.0, 0.0], [1.0, 1.0]]),
        prior=WeightVector.uniform(2),
        noise=Gaussian.homogeneous(2, 1.0),
        beta=4.0,
        replicates=10,
        seed=123,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# json.dumps of make_scenario(family, n=2, m=2, replicates=5, seed=1).to_json()
_PINNED_DOCUMENTS = {
    "bounded_binary_mixture": (
        '{"truth": [0.3888860818484182, 0.3657233893101427], '
        '"dictionary": [[0.5901066883956507, 0.19800133309276613], '
        '[0.6078473840658869, 0.5619644584620687]], "prior": [0.5, 0.5], '
        '"noise": {"family": "bounded_binary_mixture", "params": {"a_max": 0.6, '
        '"b_max": 0.6, "mixing": [[[[0.6, 0.6], 0.4], [[0.35, 0.2], 0.35], '
        '[[0.1, 0.45], 0.25]], [[[0.6, 0.6], 0.4], [[0.35, 0.2], 0.35], '
        '[[0.1, 0.45], 0.25]]]}}, "beta": 3.171170500295442, "replicates": 5, '
        '"seed": 1, "prior_samples": null}'
    ),
    "centered_binomial": (
        '{"truth": [0.433331649109051, 0.41943403358608566], '
        '"dictionary": [[0.6345522556562835, 0.2517119773687091], '
        '[0.6522929513265197, 0.6156751027380116]], "prior": [0.5, 0.5], '
        '"noise": {"family": "centered_binomial", "params": {"a": 0.2, "k": 5, '
        '"rho": [0.433331649109051, 0.41943403358608566]}}, '
        '"beta": 0.4485284167159071, "replicates": 5, "seed": 1, "prior_samples": null}'
    ),
}


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="beta must be positive"):
            _small_config(beta=0.0)
        with pytest.raises(ValueError, match="beta must be positive"):
            _small_config(beta=-np.inf)
        with pytest.raises(ValueError, match="replicates"):
            _small_config(replicates=0)
        with pytest.raises(ValueError, match="seed"):
            _small_config(seed=-1)
        with pytest.raises(ValueError, match="seed"):
            _small_config(seed=2**64)
        with pytest.raises(ValueError, match="dimension"):
            _small_config(truth=np.array([0.3, 0.6, 0.9]))
        with pytest.raises(ValueError, match="prior length"):
            _small_config(prior=WeightVector.uniform(3))
        with pytest.raises(ValueError, match="noise dimension"):
            _small_config(noise=Gaussian.homogeneous(3, 1.0))

    def test_counts_share_one_message(self):
        for key in ("replicates", "prior_samples"):
            for bad in (0, 2.5, True):
                with pytest.raises(ValueError, match=f"{key} must be a positive integer"):
                    _small_config(**{key: bad})
        for seed in (-1, 2**64, 1.0, True):
            with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
                _small_config(seed=seed)

    def test_beta_checks_share_one_message(self):
        for beta in (math.nan, -1.0, True, "fast"):
            with pytest.raises(ValueError, match="beta must be positive"):
                _small_config(beta=beta)

    def test_infinite_beta_allowed(self):
        cfg = _small_config(beta=np.inf)
        assert math.isinf(cfg.beta)

    def test_with_beta_and_with_seed(self):
        cfg = _small_config()
        assert replace(cfg, beta=2.0).beta == 2.0
        assert replace(cfg, seed=99).seed == 99
        # original untouched
        assert cfg.beta == 4.0 and cfg.seed == 123
        # replace revalidates through __post_init__
        with pytest.raises(ValueError, match="beta must be positive"):
            replace(cfg, beta=-1.0)
        with pytest.raises(ValueError, match="seed"):
            replace(cfg, seed=-1)

    def test_json_round_trip(self):
        cfg = _small_config(prior_samples=None)
        doc = cfg.to_json()
        assert set(doc) == {
            "truth",
            "dictionary",
            "prior",
            "noise",
            "beta",
            "replicates",
            "seed",
            "prior_samples",
        }
        assert doc["prior_samples"] is None
        text = json.dumps(doc)
        back = ExperimentConfig.from_json(json.loads(text))
        assert np.array_equal(back.truth, cfg.truth)
        assert np.array_equal(back.dictionary.atoms, cfg.dictionary.atoms)
        assert np.array_equal(back.prior.weights, cfg.prior.weights)
        assert back.beta == cfg.beta
        assert (back.replicates, back.seed) == (cfg.replicates, cfg.seed)
        assert back.noise.family == "gaussian"

    @pytest.mark.parametrize("family", _PINNED_DOCUMENTS)
    def test_json_document_is_pinned(self, family):
        # the document format: key order, nested mixing lists, an int k, a null prior_samples
        text = _PINNED_DOCUMENTS[family]
        cfg = make_scenario(family, n=2, m=2, replicates=5, seed=1)
        assert json.dumps(cfg.to_json()) == text
        for value in cfg.to_json()["noise"]["params"].values():
            if isinstance(value, list):
                value.clear()  # a written document is the caller's: the config keeps its own
        assert json.dumps(cfg.to_json()) == text
        assert json.dumps(ExperimentConfig.from_json(json.loads(text)).to_json()) == text

    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_json_text_round_trips_exactly(self, family, data):
        # every float goes through json.dumps's repr and back, -0.0 and beta = inf included
        noise = data.draw(draws.models(family, max_n=6), label="noise")
        n = noise.dim
        coords = st.floats(-1e6, 1e6, allow_subnormal=True)
        truth = np.array(data.draw(st.lists(coords, min_size=n, max_size=n)))
        m = data.draw(st.integers(1, 5))
        rows = st.lists(st.lists(coords, min_size=n, max_size=n), min_size=m, max_size=m)
        atoms = np.array(data.draw(rows))
        weights = data.draw(draws.priors(m, m) | st.just(np.full(m, 1.0 / m)))
        cfg = ExperimentConfig(
            truth=truth,
            dictionary=Dictionary(atoms),
            prior=WeightVector(weights),
            noise=noise,
            beta=data.draw(st.floats(5e-324, math.inf)),
            replicates=data.draw(st.integers(1, 10**6)),
            seed=data.draw(st.integers(0, 2**64 - 1)),
            prior_samples=data.draw(st.none() | st.integers(1, 10**4)),
        )
        back = ExperimentConfig.from_json(json.loads(json.dumps(cfg.to_json())))
        assert json.dumps(back.to_json()) == json.dumps(cfg.to_json())
        for ours, theirs in [
            (back.truth, cfg.truth),
            (back.dictionary.atoms, cfg.dictionary.atoms),
            (back.prior.weights, cfg.prior.weights),
        ]:
            assert ours.tobytes() == theirs.tobytes()
        assert (back.beta, back.replicates, back.seed, back.prior_samples) == (
            cfg.beta, cfg.replicates, cfg.seed, cfg.prior_samples,
        )
        seed = data.draw(st.integers(0, 2**32 - 1))
        ours = back.noise.sample(np.random.default_rng(seed))
        assert ours.tobytes() == cfg.noise.sample(np.random.default_rng(seed)).tobytes()

    def test_prior_samples_round_trip(self):
        cfg = _small_config(prior_samples=64)
        back = ExperimentConfig.from_json(cfg.to_json())
        assert back.prior_samples == 64

    def test_from_json_diagnostics(self):
        doc = _small_config().to_json()
        for key in ("truth", "dictionary", "prior", "noise", "beta", "replicates", "seed"):
            broken = dict(doc)
            del broken[key]
            with pytest.raises(ValueError, match=f"missing key: {key}"):
                ExperimentConfig.from_json(broken)
        broken = dict(doc)
        broken["beta"] = "fast"
        with pytest.raises(ValueError, match="beta must be positive"):
            ExperimentConfig.from_json(broken)
        broken = dict(doc)
        broken["prior"] = [0.9, 0.9]
        with pytest.raises(ValueError, match="prior is invalid"):
            ExperimentConfig.from_json(broken)
        broken = dict(doc)
        broken["truth"] = [[0.1]]
        with pytest.raises(ValueError, match="truth is invalid"):
            ExperimentConfig.from_json(broken)
        broken = {**doc, "truth": [[0.1]]}
        del broken["seed"]  # the missing key is reported before the bad truth
        with pytest.raises(ValueError, match="^missing key: seed$"):
            ExperimentConfig.from_json(broken)
