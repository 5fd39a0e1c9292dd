"""Bernstein-type moment profiles for the coupling companions.

Each noise family carries a variance proxy v(alpha), a tail scale b(alpha),
and a normalization c in {1, 2} such that the companion zeta built by the
coupling satisfies, conditionally on its record,

    E[exp(t * zeta) | record] <= exp( v(alpha) t^2 / (c (1 - b(alpha) |t|)) )

for |t| < 1/b(alpha) (all t when b = 0). The per-family table:

    family                  v(alpha)                      b(alpha)              c
    centered_bernoulli      alpha (1 + alpha)             (1 + alpha) / 3       2
    gaussian                (2 alpha + alpha^2) sigma^2   0                     2
    bounded_binary_mixture  (A + B)^2 alpha (1 + alpha)   (A + B)(1 + alpha)/3  2
    centered_binomial       a^2 k alpha (1 + alpha)       a (1 + alpha) / 3     2
    laplace                 alpha (2 + alpha) mu^2        (1 + alpha) mu        1

with sigma and mu taken as the largest coordinate scale. Two derived
quantities drive the oracle-inequality harness: the temperature threshold
2 v'(0) + 2 b(0) d0 and, below it, the variance penalty coefficient
2 v'(0) / (beta - 2 b(0) d0) - 1.

Each row of the table lives on its family's class in `noise` (its
`profile` method). This module holds the profile type, the thresholds and
the MGF checks, and knows no family.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coupling import conditional_zeta_laws, _check_alpha
from .laws import DiscreteLaw

MGF_RATIO_TOL = 1e-12
MGF_SE_MULTIPLIER = 5.0
DEFAULT_T_POINTS = 64
DOMAIN_COVERAGE = 0.95


@dataclass(frozen=True)
class BernsteinProfile:
    family: str
    v: Callable[[float], float]
    b: Callable[[float], float]
    v_prime_0: float
    b_0: float
    mgf_normalization: float  # the c in the denominator


def _check_diameter(d0):
    d0 = float(d0)
    if d0 < 0.0 or not math.isfinite(d0):
        raise ValueError("d0 must be a finite nonnegative diameter")
    return d0


def beta_threshold(profile, d0):
    """Smallest temperature at which the clean oracle inequality is
    certified: 2 v'(0) + 2 b(0) d0."""
    d0 = _check_diameter(d0)
    return 2.0 * profile.v_prime_0 + 2.0 * profile.b_0 * d0


def variance_penalty_coefficient(beta, profile, d0):
    """2 v'(0) / (beta - 2 b(0) d0) - 1; zero exactly at the threshold.

    Requires beta > 2 b(0) d0, strictly.
    """
    d0 = _check_diameter(d0)
    beta = float(beta)
    if not beta > 2.0 * profile.b_0 * d0:
        raise ValueError("beta must exceed 2 * b(0) * d0 for the penalty form")
    return 2.0 * profile.v_prime_0 / (beta - 2.0 * profile.b_0 * d0) - 1.0


def default_t_grid(v, b, points=DEFAULT_T_POINTS, coverage=DOMAIN_COVERAGE):
    """Symmetric t-grid inside the profile's admissible domain.

    With b > 0 the domain is (-1/b, 1/b) and the grid covers the stated
    fraction of it; with b = 0 the domain is the whole line and the grid
    spans |t| <= 2 / sqrt(v), where the bound is exp(2) at the edge.
    """
    v = float(v)
    b = float(b)
    if points < 2:
        raise ValueError("points must be at least 2")
    if not 0.0 < coverage < 1.0:
        raise ValueError("coverage must lie in (0, 1)")
    if b > 0.0:
        t_max = coverage / b
    else:
        if v <= 0.0:
            raise ValueError("v must be positive when b = 0")
        t_max = 2.0 / math.sqrt(v)
    return np.linspace(-t_max, t_max, points)


def mgf_bound(t, v, b, c):
    """exp(v t^2 / (c (1 - b |t|))) on the admissible domain."""
    t = np.asarray(t, dtype=np.float64)
    if np.any(b * np.abs(t) >= 1.0):
        raise ValueError("t must satisfy b * |t| < 1")
    # near the domain edge the bound overflows to +inf, which any MGF meets
    with np.errstate(over="ignore"):
        return np.exp(v * t * t / (c * (1.0 - b * np.abs(t))))


@dataclass(frozen=True)
class MgfCheckReport:
    family: str
    alpha: float
    method: str
    max_ratio: float
    worst_t: float
    verdict: bool
    points: int

    def to_json(self):
        return {
            "family": self.family,
            "alpha": self.alpha,
            "method": self.method,
            "max_ratio": self.max_ratio,
            "worst_t": self.worst_t,
            "verdict": "pass" if self.verdict else "fail",
            "points": self.points,
        }

    def csv_row(self):
        """The check-table row: max_ratio is the statistic and 1 its threshold."""
        doc = self.to_json()
        return [doc["family"], doc["alpha"], doc["method"], doc["max_ratio"], 1.0, doc["verdict"]]


def mgf_bound_check(law, v, b, c, t_grid, family="", alpha=float("nan")):
    """Compare E[exp(t zeta)] against the profile bound over a t-grid.

    ``law`` is a DiscreteLaw (exact moments) or a 1-D sample array
    (empirical mean, credited a 5-standard-error margin).
    """
    t_grid = np.asarray(t_grid, dtype=np.float64)
    bound = mgf_bound(t_grid, v, b, c)  # also validates the domain
    if isinstance(law, DiscreteLaw):
        mgf = law.mgf(t_grid)
        margin = np.zeros_like(bound)
        method = "exact"
    else:
        samples = np.asarray(law, dtype=np.float64)
        if samples.ndim != 1 or samples.size < 2:
            raise ValueError("sampled laws need a 1-D array with at least 2 draws")
        mgf = np.empty_like(bound)
        margin = np.empty_like(bound)
        root_n = math.sqrt(samples.size)
        # an overflow is caught below, where its point fails
        with np.errstate(over="ignore", invalid="ignore"):
            for idx, t in enumerate(t_grid):
                values = np.exp(t * samples)
                mgf[idx] = values.mean()
                margin[idx] = MGF_SE_MULTIPLIER * values.std(ddof=1) / root_n
        method = "sampled"
    with np.errstate(invalid="ignore"):
        ratio = (mgf - margin) / bound
    # a mean or margin that is not finite certifies nothing: its point fails,
    # unless the bound there is infinite and so met by anything
    blind = ~(np.isfinite(mgf) & np.isfinite(margin))
    ratio[blind] = np.where(np.isinf(bound[blind]), 0.0, np.inf)
    worst = int(np.argmax(ratio))
    max_ratio = float(ratio[worst])
    return MgfCheckReport(
        family=family,
        alpha=alpha,
        method=method,
        max_ratio=max_ratio,
        worst_t=float(t_grid[worst]),
        verdict=max_ratio <= 1.0 + MGF_RATIO_TOL,
        points=int(t_grid.size),
    )


def check_noise_mgf(
    model,
    alpha,
    points=DEFAULT_T_POINTS,
    coverage=DOMAIN_COVERAGE,
    sample_size=1_000_000,
    rng=None,
):
    """Run the profile bound over every conditional companion law of a
    noise model: exactly for the discrete families, from samples for the
    continuous ones. Returns the worst-case report."""
    alpha = _check_alpha(alpha)
    profile = model.profile()
    v = profile.v(alpha)
    b = profile.b(alpha)
    c = profile.mgf_normalization
    t_grid = default_t_grid(v, b, points=points, coverage=coverage)
    if model.discrete:
        laws = conditional_zeta_laws(model, alpha)
    else:
        if rng is None:
            rng = np.random.default_rng()
        n = int(sample_size)
        if n < 2:
            raise ValueError("sample_size must be at least 2")
        laws = (model.companion_draws(i, alpha, n, rng) for i in range(model.dim))
    worst = None
    for law in laws:
        report = mgf_bound_check(law, v, b, c, t_grid, family=model.family, alpha=alpha)
        if worst is None or report.max_ratio > worst.max_ratio:
            worst = report
    return worst

