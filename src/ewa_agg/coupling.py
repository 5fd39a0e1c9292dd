"""Noise amplification couplings: the family-free draw and checks.

For each noise family and each alpha in (0, 1], the coupling attaches to a
noise draw xi a companion zeta with two properties, conditional on the
stated record:

    E[zeta | record] = 0        and        xi + zeta  =d  (1 + alpha) xi.

alpha = 0 is the degenerate no-op: every branch collapses to zeta = 0.

This module knows no noise family: each family's coupling formula lives on
its class in `noise`. A discrete family states its per-coordinate branches,
(stay value, stay prob, jump value, jump prob), as a static `branches`, and
enumerates the conditioning records of all coordinates at once, as flat
arrays (coordinate, record probability, xi value) and each record's
branches. Its row builders are the exact-law API: `marginal_rows`,
`coupled_sum_rows` and `conditional_rows` hold every coordinate's or
record's law as a row of one `laws.LawRows` batch, and `conditional_means`
every record's E[zeta | record], all derived from that one enumeration. Both
sides of the exact branch of `verify_coupling` and
`bernstein.check_noise_mgf` read them, and `two_branch_draw` draws its
companion from the same branches. Atoms merge and align under the one atom
tolerance of `laws`, MERGE_ATOL · min(1, span) of each law. A continuous
family draws its companion independently of xi (its static `couple`), and
the statistical checks sample it. alpha is checked once, at each public
entry (`sample_coupling`, `verify_coupling`, `bernstein.check_noise_mgf`).

The two sampled statistics are plain numpy. The Kolmogorov-Smirnov
statistic differences the two empirical CDFs at every distinct draw: at the
last index i of a run of equal values in a sorted sample, that sample's CDF is
(i + 1) / size, and only the other sample's CDF takes a lookup. The
characteristic-function gap is even in t, so only the grid's nodes t >= 0
are evaluated, and exp(i t x) moves from node to node by one complex
product with exp(i dt x) instead of a cos/sin pair per node.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

EXACT_TOL = 1e-12
KS_SIGNIFICANCE = 1e-3
CF_POINTS = 64
CF_BLOCK = 1 << 15  # draws per block of the CF sums: two complex blocks take 1 MiB
MEAN_SE_MULTIPLIER = 5.0
# the columns of a check report's CSV row, all of them keys of its JSON
CHECK_CSV_HEADER = ("family", "alpha", "method", "statistic", "threshold", "verdict")


class Report:
    """The one output protocol of a dataclass report: its fields are its JSON keys, the
    verdict reads "pass" or "fail", and its CSV row is that JSON on the class's CSV_HEADER.
    It lives here because `coupling` is the lowest module that defines a report."""

    def to_json(self):
        doc = {field.name: getattr(self, field.name) for field in fields(self)}
        return doc | {"verdict": "pass" if self.verdict else "fail"}

    def csv_row(self):
        doc = self.to_json()
        return [doc[key] for key in self.CSV_HEADER]


def _as_count(value, name):
    """The one count check: an int >= 1, never a bool and never a truncated float."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer")
    return int(value)


def _check_alpha(alpha):
    alpha = float(alpha)
    if math.isnan(alpha) or alpha < 0.0 or alpha > 1.0:
        raise ValueError("alpha must lie in (0, 1] (0 is the degenerate no-op)")
    return alpha


def two_branch_draw(branches, rng):
    """One companion per entry: the stay value w.p. the stay prob, else the jump value."""
    stay_value, stay_prob, jump_value, _ = branches
    return np.where(rng.random(np.shape(stay_prob)) < stay_prob, stay_value, jump_value)


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


def ks_two_sample_threshold(n1, n2, tests=1):
    """Asymptotic two-sample Kolmogorov-Smirnov threshold for the largest of `tests`
    statistics: each is tested at KS_SIGNIFICANCE / tests (Bonferroni)."""
    c = math.sqrt(-0.5 * math.log(KS_SIGNIFICANCE / tests / 2.0))
    return c * math.sqrt((n1 + n2) / (n1 * n2))


def _ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the
    two empirical CDFs, evaluated at every distinct draw of either sample."""
    a = np.sort(a)
    b = np.sort(b)
    gap = 0.0
    for s, other in ((a, b), (b, a)):
        ends = np.append(np.flatnonzero(s[:-1] != s[1:]), s.size - 1)
        own = (ends + 1) / s.size
        cross = np.searchsorted(other, s[ends], side="right") / other.size
        gap = max(gap, float(np.max(np.abs(own - cross))))
    return gap


def _cf_sums(x, t0, dt, nodes):
    """Sums over x of exp(i t x) at t = t0, t0 + dt, ..., t0 + (nodes-1) dt.

    One cos/sin pair gives exp(i t0 x) and another the step exp(i dt x);
    each further node is one complex product. The draws go through in
    blocks of CF_BLOCK so that the two complex arrays stay in cache.
    """
    sums = np.zeros(nodes, dtype=np.complex128)
    z = np.empty(min(x.size, CF_BLOCK), dtype=np.complex128)
    step = np.empty_like(z)
    for start in range(0, x.size, CF_BLOCK):
        block = x[start : start + CF_BLOCK]
        z_b, step_b = z[: block.size], step[: block.size]
        phase = t0 * block
        np.cos(phase, out=z_b.real)
        np.sin(phase, out=z_b.imag)
        phase = dt * block
        np.cos(phase, out=step_b.real)
        np.sin(phase, out=step_b.imag)
        for k in range(nodes):
            if k:
                z_b *= step_b
            sums[k] += z_b.sum()
    return sums


def _empirical_cf_gap(x, y, t_max, points=CF_POINTS):
    """Largest |phi_x(t) - phi_y(t)| of the empirical characteristic
    functions over t in np.linspace(-t_max, t_max, points).

    For real draws phi(-t) is the conjugate of phi(t), so the gap is even in
    t and only the nodes t >= 0 are evaluated. The sums of x and of y are
    kept apart until the end, so equal samples give exactly 0.
    """
    grid, dt = np.linspace(-t_max, t_max, points, retstep=True)
    half = grid[points // 2 :]
    phi_x = _cf_sums(x, half[0], dt, half.size) / x.size
    phi_y = _cf_sums(y, half[0], dt, half.size) / y.size
    return float(np.max(np.abs(phi_x - phi_y)))


@dataclass(frozen=True)
class CouplingReport(Report):
    CSV_HEADER = CHECK_CSV_HEADER

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


def verify_coupling(model, alpha, method="exact", sample_size=1_000_000, rng=None):
    """Check the amplification identity and the centering of zeta.

    method "exact" enumerates the branch tree (discrete families), aligning
    `model.coupled_sum_rows(alpha)` with `model.marginal_rows().scale(1 + alpha)`
    over all coordinates at once; "ks" compares xi + zeta with (1+alpha)*xi by
    a two-sample Kolmogorov-Smirnov statistic per coordinate, computed locally, and
    tests the largest at the asymptotic threshold of
    `ks_two_sample_threshold` over model.dim tests; "cf_grid" compares
    empirical characteristic functions on the CF_POINTS-point grid over
    |t| <= 5 / scale, against 5 / sqrt(n). The gap is even in t, so the
    half grid t >= 0 is evaluated, node to node by the phase recurrence
    exp(i (t + dt) x) = exp(i t x) exp(i dt x). The statistical methods
    apply to the continuous families and draw from `rng`, which they
    require, so that a verdict reproduces from its seed.
    """
    alpha = _check_alpha(alpha)
    if method == "exact":
        if not model.discrete:
            raise ValueError("method 'exact' requires a discrete noise family")
        n = None
        threshold = mean_threshold = EXACT_TOL
        rhs = model.marginal_rows().scale(1.0 + alpha)
        stat = float(np.max(model.coupled_sum_rows(alpha).max_atom_probability_error(rhs)))
        mean_stat = float(np.max(np.abs(model.conditional_means(alpha))))
        ok = stat <= EXACT_TOL and mean_stat <= EXACT_TOL
    else:
        if method not in ("ks", "cf_grid"):
            raise ValueError("method must be one of: exact, ks, cf_grid")
        if model.discrete:
            raise ValueError(f"method '{method}' requires a continuous noise family")
        n = _as_count(sample_size, "sample_size")
        if n < 2:
            raise ValueError("sample_size must be at least 2")
        if rng is None:
            raise ValueError(f"method '{method}' needs a generator: pass rng")
        stat = 0.0
        mean_stat = 0.0
        mean_threshold = math.inf
        ok = True
        if method == "ks":
            threshold = ks_two_sample_threshold(n, n, tests=model.dim)
        else:
            threshold = 5.0 / math.sqrt(n)
        for i in range(model.dim):
            xi = model.coordinate_draws(i, n, rng)
            zeta = model.companion_draws(i, alpha, n, rng)
            ref = (1.0 + alpha) * model.coordinate_draws(i, n, rng)
            if method == "ks":
                stat_i = _ks_statistic(xi + zeta, ref)
            else:
                stat_i = _empirical_cf_gap(xi + zeta, ref, 5.0 / float(model.scale[i]))
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
        exact=method == "exact",
    )
