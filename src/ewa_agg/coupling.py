"""Noise amplification couplings.

For each noise family and each alpha in (0, 1], the coupling attaches to a
noise draw xi a companion zeta with two properties, conditional on the
stated record:

    E[zeta | record] = 0        and        xi + zeta  =d  (1 + alpha) xi.

Two-branch laws for the discrete families (per coordinate):

* centered Bernoulli value xi (support {1 - rho, -rho}): zeta = alpha*xi
  with probability (1 + alpha - alpha*|xi|) / (1 + alpha), else
  zeta = -sgn(xi) * (1 + alpha - alpha*|xi|).
* binary value eta (support {a, -b}, a + b > 0): from eta = a,
  zeta = alpha*a with probability ((1+alpha)*b + a) / ((1+alpha)*(a+b)),
  else zeta = -(1+alpha)*b - a; from eta = -b, zeta = -alpha*b with
  probability ((1+alpha)*a + b) / ((1+alpha)*(a+b)), else
  zeta = (1+alpha)*a + b. Zero conditional mean plus the target marginal
  pin these stay probabilities down uniquely; `verify_coupling` re-checks
  both properties by exact enumeration.
* scaled binomial coordinate a * (eta_1 + ... + eta_k): zeta is a times
  the sum of independent per-term Bernoulli couplings.

Continuous families use independent companions: Gaussian coordinates take
zeta ~ N(0, (2*alpha + alpha^2) * sigma^2); Laplace coordinates take
zeta = 0 with probability 1/(1+alpha)^2 and an independent
Laplace((1+alpha)*mu) draw otherwise.

alpha = 0 is the degenerate no-op: every branch collapses to zeta = 0.

This module knows no noise family. It holds the branch formulas, the
samplers and the checks; each family in `noise` binds them. A discrete
family enumerates one coordinate's conditioning records, (record
probability, xi value, (stay value, stay prob, jump value, jump prob)),
and `exact_coupled_sum_law`, `max_conditional_mean_error` and
`conditional_zeta_laws` are all derived from that one enumeration (through
the family's `coupled_sum_law`, `conditional_means` and `conditional_laws`,
whose defaults use the helpers below). A continuous family draws its
companion independently of xi, and the statistical checks sample it.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .laws import DiscreteLaw, laplace_inverse_cdf, max_atom_probability_error

SUPPORT_ATOL = 1e-9
EXACT_TOL = 1e-12
KS_SIGNIFICANCE = 1e-3
CF_POINTS = 64
MEAN_SE_MULTIPLIER = 5.0
# the columns of a check report's CSV row, all of them keys of its JSON
CHECK_CSV_HEADER = ("family", "alpha", "method", "statistic", "threshold", "verdict")


def _check_alpha(alpha):
    alpha = float(alpha)
    if math.isnan(alpha) or alpha < 0.0 or alpha > 1.0:
        raise ValueError("alpha must lie in (0, 1] (0 is the degenerate no-op)")
    return alpha


def bernoulli_coupling_branches(xi_value, alpha):
    """Stay/jump branch values and probabilities for a centered Bernoulli
    coordinate. Returns (stay_value, stay_prob, jump_value, jump_prob)."""
    xi = np.asarray(xi_value, dtype=np.float64)
    s = np.abs(xi)
    stay_prob = (1.0 + alpha - alpha * s) / (1.0 + alpha)
    stay_value = alpha * xi
    jump_value = -np.sign(xi) * (1.0 + alpha - alpha * s)
    jump_prob = alpha * s / (1.0 + alpha)
    return stay_value, stay_prob, jump_value, jump_prob


def _match_binary_side(a, b, eta):
    """True where eta realizes the positive support point a."""
    is_a = np.abs(eta - a) <= SUPPORT_ATOL
    is_b = np.abs(eta + b) <= SUPPORT_ATOL
    if not np.all(is_a | is_b):
        raise ValueError("eta_value must lie on the binary support {a, -b}")
    return is_a


def binary_coupling_branches(a, b, eta_value, alpha):
    """Branches for a binary coordinate on {a, -b}; same layout as
    `bernoulli_coupling_branches`."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    eta = np.asarray(eta_value, dtype=np.float64)
    if np.any(a < 0.0) or np.any(b < 0.0) or np.any(a + b <= 0.0):
        raise ValueError("binary supports need a >= 0, b >= 0, a + b > 0")
    a, b, eta = np.broadcast_arrays(a, b, eta)
    is_a = _match_binary_side(a, b, eta)
    denom = (1.0 + alpha) * (a + b)
    stay_value = np.where(is_a, alpha * a, -alpha * b)
    stay_prob = np.where(is_a, (1.0 + alpha) * b + a, (1.0 + alpha) * a + b) / denom
    jump_value = np.where(is_a, -(1.0 + alpha) * b - a, (1.0 + alpha) * a + b)
    return stay_value, stay_prob, jump_value, 1.0 - stay_prob


def _two_branch_draw(stay_value, stay_prob, jump_value, rng, scalar):
    u = rng.random(np.shape(stay_prob))
    out = np.where(u < stay_prob, stay_value, jump_value)
    return float(out) if scalar else out


def couple_bernoulli(xi_value, rho, alpha, rng):
    """Companion draw for centered Bernoulli values in {1 - rho, -rho}."""
    alpha = _check_alpha(alpha)
    xi = np.asarray(xi_value, dtype=np.float64)
    rho_arr = np.asarray(rho, dtype=np.float64)
    if np.any(rho_arr <= 0.0) or np.any(rho_arr >= 1.0):
        raise ValueError("rho must lie strictly inside (0, 1)")
    on_support = (np.abs(xi - (1.0 - rho_arr)) <= SUPPORT_ATOL) | (
        np.abs(xi + rho_arr) <= SUPPORT_ATOL
    )
    if not np.all(on_support):
        raise ValueError("xi_value must lie on the support {1 - rho, -rho}")
    branches = bernoulli_coupling_branches(xi, alpha)
    return _two_branch_draw(branches[0], branches[1], branches[2], rng, np.isscalar(xi_value))


def couple_binary(a, b, eta_value, alpha, rng):
    """Companion draw for binary values on {a, -b}."""
    alpha = _check_alpha(alpha)
    branches = binary_coupling_branches(a, b, eta_value, alpha)
    return _two_branch_draw(branches[0], branches[1], branches[2], rng, np.isscalar(eta_value))


def couple_binomial(eta_values, a, alpha, rng):
    """Companion draw for a scaled binomial coordinate.

    ``eta_values`` holds the k centered Bernoulli terms along the first
    axis (shape (k,) or (k, draws)); the result drops that axis.
    """
    alpha = _check_alpha(alpha)
    a = float(a)
    if not (math.isfinite(a) and a > 0.0):
        raise ValueError("a must be positive")
    eta = np.asarray(eta_values, dtype=np.float64)
    if eta.ndim not in (1, 2) or eta.shape[0] < 1:
        raise ValueError("eta_values must have shape (k,) or (k, draws)")
    if np.any(np.abs(eta) >= 1.0) or np.any(eta == 0.0):
        raise ValueError("eta_values must lie on {1 - rho, -rho} for some rho in (0, 1)")
    flat = eta.reshape(eta.shape[0], -1)
    pos_flat = flat > 0.0
    # per column the positive values share one level, the negatives another,
    # and the two levels are one unit apart
    hi = np.where(pos_flat, flat, -np.inf).max(axis=0)
    lo = np.where(~pos_flat, flat, np.inf).min(axis=0)
    hi_spread = hi - np.where(pos_flat, flat, np.inf).min(axis=0)
    lo_spread = np.where(~pos_flat, flat, -np.inf).max(axis=0) - lo
    both = np.isfinite(hi) & np.isfinite(lo)
    if (
        np.any(hi_spread[np.isfinite(hi_spread)] > SUPPORT_ATOL)
        or np.any(lo_spread[np.isfinite(lo_spread)] > SUPPORT_ATOL)
        or np.any(np.abs((hi - lo)[both] - 1.0) > SUPPORT_ATOL)
    ):
        raise ValueError("eta_values must share a single {1 - rho, -rho} support per draw")
    stay_value, stay_prob, jump_value, _ = bernoulli_coupling_branches(eta, alpha)
    u = rng.random(eta.shape)
    zbar = np.where(u < stay_prob, stay_value, jump_value)
    out = a * zbar.sum(axis=0)
    return float(out) if eta.ndim == 1 else out


def couple_gaussian(sigma, alpha, rng):
    """Independent N(0, (2*alpha + alpha^2) * sigma^2) companions."""
    alpha = _check_alpha(alpha)
    sigma_arr = np.asarray(sigma, dtype=np.float64)
    if np.any(sigma_arr <= 0.0):
        raise ValueError("sigma must be positive")
    out = rng.normal(0.0, math.sqrt(2.0 * alpha + alpha * alpha) * sigma_arr)
    return float(out) if np.isscalar(sigma) else out


def couple_laplace(mu, alpha, rng):
    """Zero w.p. 1/(1+alpha)^2, else an independent Laplace((1+alpha)*mu)
    draw."""
    alpha = _check_alpha(alpha)
    mu_arr = np.asarray(mu, dtype=np.float64)
    if np.any(mu_arr <= 0.0):
        raise ValueError("mu must be positive")
    shape = mu_arr.shape
    stay = 1.0 / (1.0 + alpha) ** 2
    pick = rng.random(shape)
    lap = laplace_inverse_cdf(rng.random(shape), (1.0 + alpha) * mu_arr)
    out = np.where(pick < stay, 0.0, lap)
    return float(out) if np.isscalar(mu) else out


@dataclass(frozen=True)
class CouplingDraw:
    xi: np.ndarray
    zeta: np.ndarray
    alpha: float
    conditioning_record: dict


def sample_coupling(model, alpha, rng):
    """One (xi, zeta) pair for the whole noise vector, with the record zeta
    is centered against."""
    alpha = _check_alpha(alpha)
    xi, record = model.sample_with_latents(rng)
    zeta = model.companion(record, alpha, rng)
    return CouplingDraw(xi=xi, zeta=zeta, alpha=alpha, conditioning_record=record)


def branch_mean(branches):
    """E[zeta | record] of one record's (stay value, stay prob, jump value,
    jump prob)."""
    sv, sp, jv, jp = branches
    return float(sv * sp + jv * jp)


def branch_law(branches):
    """The two-atom law of zeta given one record."""
    sv, sp, jv, jp = (float(x) for x in branches)
    return DiscreteLaw.from_atoms([sv, jv], [sp, jp])


def records_sum_law(records, merge_atol):
    """Law of xi + zeta over one coordinate's conditioning records."""
    values, probs = [], []
    for p, xi, (sv, sp, jv, jp) in records:
        values += [xi + sv, xi + jv]
        probs += [p * sp, p * jp]
    return DiscreteLaw.from_atoms(values, probs, merge_atol=merge_atol)


def _require_discrete(model):
    if not model.discrete:
        raise ValueError("exact enumeration needs a discrete noise family")


def exact_coupled_sum_law(model, i, alpha, merge_atol=1e-9):
    """Enumerated law of xi_i + zeta_i for a discrete-family coordinate."""
    alpha = _check_alpha(alpha)
    _require_discrete(model)
    return model.coupled_sum_law(i, alpha, merge_atol)


def max_conditional_mean_error(model, alpha):
    """Largest |E[zeta | record]| over all conditioning records, computed
    exactly from the branch means (discrete families only)."""
    alpha = _check_alpha(alpha)
    _require_discrete(model)
    return max(abs(m) for i in range(model.dim) for m in model.conditional_means(i, alpha))


def conditional_zeta_laws(model, alpha):
    """Exact conditional laws of zeta, one per distinct conditioning record
    (discrete families only). Used by the moment-generating checks."""
    alpha = _check_alpha(alpha)
    _require_discrete(model)
    return [law for i in range(model.dim) for law in model.conditional_laws(i, alpha)]


def ks_two_sample_threshold(n1, n2, significance=KS_SIGNIFICANCE):
    """Asymptotic two-sample Kolmogorov-Smirnov acceptance threshold."""
    c = math.sqrt(-0.5 * math.log(significance / 2.0))
    return c * math.sqrt((n1 + n2) / (n1 * n2))


def _empirical_cf_gap(x, y, t_grid):
    worst = 0.0
    for t in t_grid:
        dc = float(np.cos(t * x).mean() - np.cos(t * y).mean())
        ds = float(np.sin(t * x).mean() - np.sin(t * y).mean())
        gap = math.hypot(dc, ds)
        if gap > worst:
            worst = gap
    return worst


@dataclass(frozen=True)
class CouplingReport:
    family: str
    alpha: float
    method: str
    statistic: float
    threshold: float
    mean_zero: float
    mean_zero_threshold: float
    verdict: bool
    sample_size: int | None
    exact: bool

    def to_json(self):
        return {
            "family": self.family,
            "alpha": self.alpha,
            "method": self.method,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "mean_zero": self.mean_zero,
            "mean_zero_threshold": self.mean_zero_threshold,
            "verdict": "pass" if self.verdict else "fail",
            "sample_size": self.sample_size,
            "exact": self.exact,
        }

    def csv_row(self):
        doc = self.to_json()
        return [doc[key] for key in CHECK_CSV_HEADER]


def verify_coupling(model, alpha, method="exact", sample_size=1_000_000, rng=None, value_atol=1e-9):
    """Check the amplification identity and the centering of zeta.

    method "exact" enumerates the branch tree (discrete families);
    "ks" compares xi + zeta with (1+alpha)*xi by a two-sample
    Kolmogorov-Smirnov statistic; "cf_grid" compares empirical
    characteristic functions on a 64-point grid. The statistical methods
    apply to the continuous families.
    """
    alpha = _check_alpha(alpha)
    if method == "exact":
        if not model.discrete:
            raise ValueError("method 'exact' requires a discrete noise family")
        stat = 0.0
        for i in range(model.dim):
            lhs = exact_coupled_sum_law(model, i, alpha, merge_atol=value_atol)
            rhs = model.exact_law(i).scale(1.0 + alpha)
            stat = max(stat, max_atom_probability_error(lhs, rhs, value_atol=value_atol))
        mean_err = max_conditional_mean_error(model, alpha)
        verdict = stat <= EXACT_TOL and mean_err <= EXACT_TOL
        return CouplingReport(
            family=model.family,
            alpha=alpha,
            method=method,
            statistic=stat,
            threshold=EXACT_TOL,
            mean_zero=mean_err,
            mean_zero_threshold=EXACT_TOL,
            verdict=verdict,
            sample_size=None,
            exact=True,
        )
    if method not in ("ks", "cf_grid"):
        raise ValueError("method must be one of: exact, ks, cf_grid")
    if model.discrete:
        raise ValueError(f"method '{method}' requires a continuous noise family")
    n = int(sample_size)
    if n < 2:
        raise ValueError("sample_size must be at least 2")
    if rng is None:
        rng = np.random.default_rng()
    stat = 0.0
    mean_stat = 0.0
    mean_threshold = math.inf
    ok = True
    if method == "ks":
        threshold = ks_two_sample_threshold(n, n)
    else:
        threshold = 5.0 / math.sqrt(n)
    for i in range(model.dim):
        xi = model.coordinate_draws(i, n, rng)
        zeta = model.companion_draws(i, alpha, n, rng)
        ref = (1.0 + alpha) * model.coordinate_draws(i, n, rng)
        if method == "ks":
            stat_i = float(stats.ks_2samp(xi + zeta, ref, method="asymp").statistic)
        else:
            scale = float(model.scale[i])
            t_grid = np.linspace(-5.0 / scale, 5.0 / scale, CF_POINTS)
            stat_i = _empirical_cf_gap(xi + zeta, ref, t_grid)
        mean_i = abs(float(zeta.mean()))
        se_i = float(zeta.std(ddof=1)) / math.sqrt(n)
        ok = ok and stat_i <= threshold and mean_i <= MEAN_SE_MULTIPLIER * se_i
        if mean_i > mean_stat:
            mean_stat, mean_threshold = mean_i, MEAN_SE_MULTIPLIER * se_i
        stat = max(stat, stat_i)
    return CouplingReport(
        family=model.family,
        alpha=alpha,
        method=method,
        statistic=stat,
        threshold=threshold,
        mean_zero=mean_stat,
        mean_zero_threshold=mean_threshold,
        verdict=ok,
        sample_size=n,
        exact=False,
    )
