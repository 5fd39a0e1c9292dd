"""Acceptance suite.

Every guarantee the package advertises, checked end to end at its stated
tolerance and time budget. Each criterion prints one pass/fail line; run
with `pytest tests/test_acceptance.py -v -s` to see them as they land.
"""

import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

from ewa_agg.bernstein import (
    beta_threshold,
    check_noise_mgf,
    variance_penalty_coefficient,
)
from ewa_agg.coupling import verify_coupling
from ewa_agg.ewa import _signal_rows, dv_minimality_test, kl_divergence
from ewa_agg.model import Dictionary, WeightVector
from ewa_agg.noise import (
    BoundedBinaryMixture,
    CenteredBernoulli,
    CenteredBinomial,
    Gaussian,
    Laplace,
)
from ewa_agg.oracle import (
    certify_corollary,
    derived_stream,
    make_scenario,
    oracle_bound_finite,
    oracle_bound_gibbs,
)

TOL = 1e-12
ALPHA_EXACT = (0.1, 0.25, 0.5, 1.0)
ALPHA_STAT = (0.1, 0.5, 1.0)
MIXING = [((0.6, 0.6), 0.4), ((0.35, 0.2), 0.35), ((0.1, 0.45), 0.25)]


@contextmanager
def _criterion(num, label, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance {num}] {label}: FAIL", flush=True)
        raise
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, f"{label} took {elapsed:.1f}s, budget {budget}s"
    print(f"[acceptance {num}] {label}: PASS ({elapsed:.2f}s)", flush=True)


def _random_instance(rng, n_max=10, m_max=8):
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(2, m_max + 1))
    dictionary = Dictionary(rng.normal(0.0, 1.0, (m, n)))
    raw = rng.uniform(0.05, 1.0, m)
    prior = WeightVector(raw / raw.sum())
    y = rng.normal(0.0, 1.0, n)
    beta = float(rng.uniform(0.4, 6.0))
    return y, dictionary, prior, beta


def test_exact_coupling_identity():
    models = [
        CenteredBernoulli([0.1, 0.3, 0.5, 0.7, 0.9]),
        BoundedBinaryMixture.homogeneous(2, 0.6, 0.6, MIXING),
    ]
    models += [CenteredBinomial(1.0 / k, k, [0.25, 0.5, 0.75]) for k in (1, 2, 3, 5)]
    with _criterion(1, "exact coupling identity", budget=1.0):
        for model in models:
            for alpha in ALPHA_EXACT:
                report = verify_coupling(model, alpha, method="exact")
                assert report.statistic <= TOL, (model.family, alpha, report.statistic)
                assert report.mean_zero <= TOL, (model.family, alpha, report.mean_zero)
                assert report.verdict


def test_statistical_coupling_identity():
    n = 1_000_000
    gaussian = Gaussian([1.2])
    laplace = Laplace([0.9])
    with _criterion(2, "statistical coupling identity", budget=30.0):
        for alpha in ALPHA_STAT:
            rng = derived_stream(31415, 2, round(alpha * 100))
            ks = verify_coupling(gaussian, alpha, method="ks", sample_size=n, rng=rng)
            assert ks.verdict, (alpha, ks.statistic, ks.threshold)
            cf = verify_coupling(laplace, alpha, method="cf_grid", sample_size=n, rng=rng)
            assert cf.verdict, (alpha, cf.statistic, cf.threshold)
            assert cf.threshold == 5.0 / math.sqrt(n)


def test_mgf_domination():
    models = [
        CenteredBernoulli([0.2, 0.5, 0.8]),
        BoundedBinaryMixture.homogeneous(2, 0.6, 0.6, MIXING),
        CenteredBinomial(0.25, 4, [0.3, 0.6]),
        Gaussian([1.1]),
        Laplace([0.8]),
    ]
    with _criterion(3, "moment bound domination", budget=30.0):
        for model in models:
            for alpha in ALPHA_STAT:
                rng = derived_stream(27182, 3, round(alpha * 100))
                report = check_noise_mgf(model, alpha, sample_size=500_000, rng=rng)
                assert report.verdict, (model.family, alpha, report.max_ratio)
                assert report.points == 64


def test_threshold_constants_and_penalty_forms():
    with _criterion(4, "temperature thresholds and penalty forms", budget=5.0):
        d0_grid = (0.5, 1.0, 2.0, 3.5)
        beta_steps = (1.25, 2.0, 4.0)

        for sigma in (0.5, 1.0, 2.0):
            p = Gaussian([sigma]).profile()
            for d0 in d0_grid:
                assert abs(beta_threshold(p, d0) - 4.0 * sigma**2) <= TOL
                assert abs(variance_penalty_coefficient(4.0 * sigma**2, p, d0)) <= TOL
                for s in beta_steps:
                    beta = s * 4.0 * sigma**2
                    got = variance_penalty_coefficient(beta, p, d0) + 1.0
                    assert abs(got - 4.0 * sigma**2 / beta) <= TOL * got

        p = CenteredBernoulli([0.5]).profile()
        assert abs(beta_threshold(p, 1.0) - 8.0 / 3.0) <= TOL
        assert abs(variance_penalty_coefficient(8.0 / 3.0, p, 1.0)) <= TOL
        for d0 in d0_grid:
            base = beta_threshold(p, d0)
            for s in beta_steps:
                beta = s * base
                got = variance_penalty_coefficient(beta, p, d0) + 1.0
                assert abs(got - 6.0 / (3.0 * beta - 2.0 * d0)) <= TOL * got

        for a_max, b_max in ((0.6, 0.6), (0.3, 0.9)):
            span = a_max + b_max
            mixing = [((a_max, b_max), 0.5), ((0.5 * a_max, 0.5 * b_max), 0.5)]
            p = BoundedBinaryMixture.homogeneous(2, a_max, b_max, mixing).profile()
            for d0 in d0_grid:
                want = 2.0 * span**2 + (2.0 / 3.0) * span * d0
                base = beta_threshold(p, d0)
                assert abs(base - want) <= TOL
                assert abs(variance_penalty_coefficient(base, p, d0)) <= TOL
                for s in beta_steps:
                    beta = s * base
                    got = variance_penalty_coefficient(beta, p, d0) + 1.0
                    want = 6.0 * span**2 / (3.0 * beta - 2.0 * span * d0)
                    assert abs(got - want) <= TOL * got

        for k in (1, 2, 3, 5):
            a = 1.0 / k
            p = CenteredBinomial(a, k, [0.5]).profile()
            assert abs(beta_threshold(p, 1.0) - 8.0 / (3.0 * k)) <= TOL
            for d0 in d0_grid:
                want = 2.0 * a**2 * k + (2.0 / 3.0) * a * d0
                base = beta_threshold(p, d0)
                assert abs(base - want) <= TOL
                assert abs(variance_penalty_coefficient(base, p, d0)) <= TOL
                for s in beta_steps:
                    beta = s * base
                    got = variance_penalty_coefficient(beta, p, d0) + 1.0
                    want = 6.0 * a**2 * k / (3.0 * beta - 2.0 * a * d0)
                    assert abs(got - want) <= TOL * got

        for mu in (0.5, 1.0, 1.5):
            p = Laplace([mu]).profile()
            for d0 in d0_grid:
                want = 4.0 * mu**2 + 2.0 * mu * d0
                base = beta_threshold(p, d0)
                assert abs(base - want) <= TOL
                assert abs(variance_penalty_coefficient(base, p, d0)) <= TOL
                for s in beta_steps:
                    beta = s * base
                    got = variance_penalty_coefficient(beta, p, d0) + 1.0
                    assert abs(got - 4.0 * mu**2 / (beta - 2.0 * mu * d0)) <= TOL * got


def test_oracle_inequality_certification():
    families = ["gaussian", "centered_bernoulli", "bounded_binary_mixture",
                "centered_binomial", "laplace"]
    with _criterion(5, "oracle inequality certification", budget=120.0):
        for family in families:
            clean, penalized = certify_corollary(family)
            assert clean.mode == "clean"
            assert clean.beta == clean.threshold
            assert clean.risk <= clean.bound + 3.0 * clean.stderr, (
                family, clean.risk, clean.bound, clean.stderr)
            assert clean.verdict

            assert penalized.mode == "variance_penalty"
            assert penalized.beta == 0.5 * penalized.threshold
            assert penalized.penalty_coefficient > 0.0
            lhs = penalized.risk - penalized.penalty
            assert lhs <= penalized.bound + 3.0 * penalized.combined_stderr, (
                family, lhs, penalized.bound, penalized.combined_stderr)
            assert penalized.verdict


def test_posterior_minimizes_gibbs_objective():
    rng = derived_stream(60, 6)
    with _criterion(6, "posterior minimality over the simplex", budget=5.0):
        for _ in range(50):
            y, dictionary, prior, beta = _random_instance(rng)
            report = dv_minimality_test(y, dictionary, prior, beta, 100, rng)
            assert report.worst_violation <= 1e-9, report.worst_violation
            assert report.verdict


def test_kl_identity_and_bound_ordering():
    rng = derived_stream(70, 7)
    with _criterion(7, "KL identity and bound ordering", budget=5.0):
        for m in (2, 4, 10):
            j = int(rng.integers(m))
            got = kl_divergence(WeightVector.dirac(m, j), WeightVector.uniform(m))
            assert abs(got - math.log(m)) <= TOL, (m, got)
        for _ in range(100):
            y, dictionary, prior, beta = _random_instance(rng)
            gibbs = oracle_bound_gibbs(dictionary, y, prior, beta)
            finite = oracle_bound_finite(dictionary, y, prior, beta)
            assert gibbs <= finite + TOL, (gibbs, finite)


def test_certification_is_thread_deterministic(tmp_path):
    # m n > BLOCK_DOUBLES, so 4 workers really share the replicates
    n, m = 64, 1100
    assert _signal_rows(m, n) == 1
    config = make_scenario("gaussian", n=n, m=m, replicates=2_000, seed=424242)
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(config.to_json()))
    with _criterion(8, "byte-identical reports across worker counts", budget=60.0):
        outputs = []
        for threads in ("1", "4"):
            out = tmp_path / f"certify_{threads}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "ewa_agg.cli", "certify", str(cfg_path),
                 "-o", str(out)],
                capture_output=True,
                env=dict(os.environ, EWA_AGG_THREADS=threads),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) > 0
