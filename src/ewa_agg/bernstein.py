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

with sigma and mu taken as the largest coordinate scale. The centered_bernoulli
row is the centered_binomial row at a = 1, k = 1, the profile it inherits. Two
derived quantities drive the oracle-inequality harness: the temperature
threshold 2 v'(0) + 2 b(0) d0 and, below it, the variance penalty coefficient
2 v'(0) / (beta - 2 b(0) d0) - 1.

Each row of the table lives on its family's class in `noise` (its
`profile` method), as a `BernsteinProfile` of v, b, v'(0) and c, each
stated once: b(0) is b evaluated at 0. This module holds the profile
type, the thresholds and the MGF checks, and knows no family.

A sampled check forms its moments block by block: the draws go through in
blocks of `coupling.CF_BLOCK`, in three cache-sized buffers. On each side of 0
the grid is walked outward: the node nearest 0 takes exp(t x) of the block
itself, and a node one grid spacing further is the previous node's values
times exp(spacing x), so a block costs two exps per side. Each node's block mean
is a pairwise sum, and its sum of squared deviations (M2) is sum v^2 - s mean,
one more pass, where the rounding bound of that difference allows it, and the
two-pass sum of (v - mean)^2 elsewhere. The block moments merge into the
running ones by the pairwise update of Chan, Golub and LeVeque (1983). An exp or
a product that overflows, in any block, leaves its point's moments non-finite,
and the point fails.

An exact check takes a family's conditional laws all at once, as the rows
of a `laws.LawRows`: exp(t x) runs over groups of whole laws of at most
CF_BLOCK doubles, each law's MGF is the matrix-vector product on its own
columns, and the report is that of the first law with the largest ratio.
The grid, which never holds t = 0, cannot see the second-order condition
there: the ratio to the bound is 1 + t^2 (Var/2 - v/c) + O(|t|^3) near 0. So
an exact check also requires each law's variance to be at most 2 v / c, the
sub-gamma condition's variance factor (Boucheron, Lugosi and Massart 2013,
section 2.4); a law above it fails the verdict whatever its grid ratios.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .coupling import CF_BLOCK, CHECK_CSV_HEADER, Report, _as_count, _check_alpha
from .laws import DiscreteLaw, LawRows

MGF_RATIO_TOL = 1e-12
MGF_SE_MULTIPLIER = 5.0
DEFAULT_T_POINTS = 64
DOMAIN_COVERAGE = 0.95
_U = 2.0**-53  # unit roundoff of float64
_WALK_TOL = 16 * _U  # of the grid's largest |t|: how far a walked node may sit off its step
_ONE_PASS_M2_RTOL = 2.0**-30  # the rounding, relative to M2, a one-pass block M2 may carry


@dataclass(frozen=True)
class BernsteinProfile:
    v: Callable[[float], float]
    b: Callable[[float], float]
    v_prime_0: float
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
    return 2.0 * profile.v_prime_0 + 2.0 * profile.b(0.0) * d0


def variance_penalty_coefficient(beta, profile, d0):
    """2 v'(0) / (beta - 2 b(0) d0) - 1; zero exactly at the threshold.

    Requires beta > 2 b(0) d0, strictly.
    """
    d0 = _check_diameter(d0)
    beta = float(beta)
    edge = 2.0 * profile.b(0.0) * d0
    if not beta > edge:
        raise ValueError("beta must exceed 2 * b(0) * d0 for the penalty form")
    return 2.0 * profile.v_prime_0 / (beta - edge) - 1.0


def default_t_grid(v, b):
    """Symmetric DEFAULT_T_POINTS-point t-grid inside the profile's admissible domain.

    With b > 0 the domain is (-1/b, 1/b) and the grid covers the fraction
    DOMAIN_COVERAGE of it; with b = 0 the domain is the whole line and the
    grid spans |t| <= 2 / sqrt(v), where the bound is exp(2) at the edge.
    """
    v = float(v)
    b = float(b)
    if b > 0.0:
        t_max = DOMAIN_COVERAGE / b
    else:
        if v <= 0.0:
            raise ValueError("v must be positive when b = 0")
        t_max = 2.0 / math.sqrt(v)
    return np.linspace(-t_max, t_max, DEFAULT_T_POINTS)


def mgf_bound(t, v, b, c):
    """exp(v t^2 / (c (1 - b |t|))) on the admissible domain; a NaN or infinite t is refused."""
    t = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(t)):
        raise ValueError("t must be finite")
    if np.any(b * np.abs(t) >= 1.0):
        raise ValueError("t must satisfy b * |t| < 1")
    # near the domain edge the bound overflows to +inf, which any MGF meets
    with np.errstate(over="ignore"):
        return np.exp(v * t * t / (c * (1.0 - b * np.abs(t))))


@dataclass(frozen=True)
class MgfCheckReport(Report):
    CSV_HEADER = CHECK_CSV_HEADER

    family: str
    alpha: float
    method: str
    max_ratio: float
    worst_t: float
    verdict: bool
    points: int

    def csv_row(self):
        """The check-table row: max_ratio is the statistic and 1 its threshold."""
        doc = self.to_json() | {"statistic": self.max_ratio, "threshold": 1.0}
        return [doc[key] for key in self.CSV_HEADER]


def _gamma(n):
    """Higham's gamma_n = n u / (1 - n u), the relative error bound of n roundings."""
    return n * _U / (1.0 - n * _U)


def _grid_walk(t_grid):
    """The walk `_sampled_moments` takes over a finite t_grid: for each side of 0 that holds
    nodes (t = 0 goes with t > 0), a pair (step, nodes). nodes lists the side's grid
    indices outward from 0, each with k, its count of steps from the last node that
    takes its own exp (k = 0 for that node). step is the grid's mean spacing, signed
    outward, or None when no node of the side is walked. The rule is in the
    `_sampled_moments` docstring."""
    t = t_grid.tolist()
    delta = (max(t) - min(t)) / (len(t) - 1) if len(t) > 1 else math.nan
    tol = _WALK_TOL * max(map(abs, t), default=0.0)
    walk = []
    for sign in (1.0, -1.0):
        side = [i for i, ti in enumerate(t) if (ti >= 0.0) == (sign > 0.0)]
        side.sort(key=lambda i: abs(t[i]))
        nodes, anchor, k = [], None, 0
        for i in side:
            k += 1
            if anchor is None or not abs(t[i] - t[anchor] - k * sign * delta) <= tol:
                anchor, k = i, 0
            nodes.append((i, k))
        if nodes:
            walk.append((sign * delta if any(k for _, k in nodes) else None, nodes))
    return walk


def _one_pass_m2(values, total, mean):
    """sum v^2 - total mean over a block of values, total and mean being the block's
    pairwise sum and mean, where `_sampled_moments`' guard keeps it; else None. The
    sum of squares is einsum's, not BLAS's, whose bits vary with its thread count."""
    squares = float(np.einsum("i,i->", values, values))
    m2 = squares - float(total) * float(mean)
    if 0.0 < m2 < math.inf and _gamma(3 * values.size + 2) * squares <= _ONE_PASS_M2_RTOL * m2:
        return m2
    return None


def _sampled_moments(samples, t_grid):
    """Mean and sum of squared deviations (M2) of exp(t x) over the draws x, for
    each t of the grid, merged block by block as the module docstring says.

    The walk (`_grid_walk`). On each side of 0 the nodes go outward from 0 and the
    nearest takes exp(t x) itself. Let D = (max t - min t) / (points - 1), the
    grid's mean spacing, T = max |t| and u = 2^-53. A node whose inward neighbour
    on its side was computed is walked, its values the neighbour's times
    exp(+-D x), when it lies within 16 u T of t_a +- k D, t_a being the last node
    that took its own exp and k its count of steps from it. linspace's own
    rounding puts each of its nodes within 4 u T of that progression, so two
    nodes sit within 8 u T of each other's, and evaluating the test adds at most
    4 u T more. Any other node takes its own exp and the walk starts again from
    it, so a grid whose spacing varies keeps each node's own exp(t x). A grid
    with an infinite or NaN node never gets here: `mgf_bound` refuses it.

    A walked node's error, against exp(t x) of the same draw x: numpy's accuracy
    tests hold its float64 exp to 1 ulp (at most 2 u relative), each exp's
    argument rounds once, and so does each product. With dt = t - (t_a +- k D),
    the node's exact offset from its step (at most 8 u T on a linspace grid),
    the relative error is at most e^L - 1 with, to first order in u,

        L = |dt| |x| + u ((|t_a| + k D + |t|) |x| + 3 k + 4),

    that is the arguments of exp(t_a x), of the k steps exp(D x) and of the
    reference, two ulps for each of those k + 2 exps, and one u per product.

    The block M2. The mean is the block's pairwise sum over its size nb, as
    numpy's mean is. The one-pass M2 = sum v^2 - s mean (s the sum) errs by at
    most gamma_{3 nb + 1} sum v^2 (Higham 2002, section 3.1: gamma_nb for the sum of
    squares, gamma_{2 nb} for s mean, through s^2 / nb <= sum v^2, and one
    rounding for the difference); evaluated on computed values it is at most
    gamma_{3 nb + 2} sum v^2. M2 keeps the one-pass value only where that bound is
    at most _ONE_PASS_M2_RTOL = 2^-30 of M2, and otherwise (a spread small
    against the mean, M2 <= 0 as in a constant block, or an overflow) takes the
    two passes sum (v - mean)^2. A relative error of 2^-30 in M2 moves the
    5-standard-error margin by at most 2^-31 of itself, far below the margin's
    own sampling error of about 1/sqrt(2 n) of it.

    The merge from the empty state is exact, so up to CF_BLOCK draws a node that
    takes its own exp has numpy's `mean` bytes, and also its `std(ddof=1)` bytes
    where the guard took two passes."""
    count = 0
    mean = np.zeros(t_grid.size)
    m2 = np.zeros(t_grid.size)
    block_mean = np.empty_like(mean)
    block_m2 = np.empty_like(mean)
    buffers = np.empty((3, min(samples.size, CF_BLOCK)))
    walk = _grid_walk(t_grid)
    # an overflow is caught by the caller, where its point fails
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, samples.size, CF_BLOCK):
            block = samples[start : start + CF_BLOCK]
            nb = block.size
            values, steps, scratch = buffers[:, :nb]
            for step, nodes in walk:
                if step is not None:
                    np.multiply(step, block, out=steps)
                    np.exp(steps, out=steps)
                for idx, k in nodes:
                    if k:
                        np.multiply(values, steps, out=values)
                    else:
                        np.multiply(t_grid[idx], block, out=values)
                        np.exp(values, out=values)
                    block_sum = values.sum()
                    block_mean[idx] = node_mean = block_sum / nb
                    node_m2 = _one_pass_m2(values, block_sum, node_mean)
                    if node_m2 is None:
                        np.subtract(values, node_mean, out=scratch)
                        np.square(scratch, out=scratch)
                        node_m2 = scratch.sum()
                    block_m2[idx] = node_m2
            total = count + nb
            delta = block_mean - mean
            mean += delta * (nb / total)
            m2 += block_m2 + delta * delta * (count * nb / total)
            count = total
    return mean, m2


def _worst_points(mgf, margin, bound):
    """Per column of mgf (one law, its rows the grid points): the largest ratio
    (mgf - margin) / bound and the first grid index that reaches it. A mean or
    margin that is not finite certifies nothing: its point fails, unless the
    bound there is infinite and so met by anything."""
    bound = np.broadcast_to(bound[:, None], mgf.shape)
    with np.errstate(invalid="ignore"):
        ratio = (mgf - margin) / bound
    blind = ~(np.isfinite(mgf) & np.isfinite(margin))
    ratio[blind] = np.where(np.isinf(bound[blind]), 0.0, np.inf)
    worst = np.argmax(ratio, axis=0)
    return ratio[worst, np.arange(ratio.shape[1])], worst


def _exact_worst_points(rows, t_grid, bound):
    """`_worst_points` of every law of a `laws.LawRows`, exactly. exp(t x) is taken
    over groups of whole laws whose matrix holds at most CF_BLOCK doubles (a law
    wider than that is a group of its own), and each law's MGF is the matrix-vector
    product on its own columns."""
    offsets = rows.offsets
    width = CF_BLOCK // max(1, t_grid.size)
    ratios, worst = [], []
    first = 0
    while first < rows.count:
        last = int(np.searchsorted(offsets, offsets[first] + width, side="right")) - 1
        last = max(last, first + 1)
        lo, hi = offsets[first], offsets[last]
        terms = np.exp(np.multiply.outer(t_grid, rows.values[lo:hi]))
        spans = zip(offsets[first:last] - lo, offsets[first + 1 : last + 1] - lo)
        mgf = np.stack([terms[:, s:e] @ rows.probs[lo + s : lo + e] for s, e in spans], axis=1)
        group_ratios, group_worst = _worst_points(mgf, 0.0, bound)
        ratios.append(group_ratios)
        worst.append(group_worst)
        first = last
    return np.concatenate(ratios), np.concatenate(worst)


def _report(ratios, worst, t_grid, method, family, alpha):
    """The report of the first law with the largest ratio, at its worst point. The
    ratios are never NaN, so np.argmax picks that law."""
    law = int(np.argmax(ratios))
    max_ratio = float(ratios[law])
    return MgfCheckReport(
        family=family,
        alpha=alpha,
        method=method,
        max_ratio=max_ratio,
        worst_t=float(t_grid[worst[law]]),
        verdict=max_ratio <= 1.0 + MGF_RATIO_TOL,
        points=int(t_grid.size),
    )


def mgf_bound_check(law, v, b, c, t_grid, family="", alpha=float("nan")):
    """Compare E[exp(t zeta)] against the profile bound over a t-grid.

    ``law`` is a DiscreteLaw or a `laws.LawRows` batch of laws (exact moments;
    each law's variance must also be at most 2 v / c, the t -> 0 condition of the
    module docstring, or the verdict fails), or a 1-D sample array (empirical
    mean, credited a 5-standard-error margin, both merged over blocks of CF_BLOCK
    draws by Chan's update, with the grid walked and each block's M2 guarded as
    `_sampled_moments` derives). A batch reports its first law with the largest
    ratio. Any t_grid inside the domain is taken; a non-finite node raises
    ValueError (`mgf_bound`). A point whose mean or margin is not finite, as after
    an overflow, fails unless the bound there is infinite.
    """
    t_grid = np.asarray(t_grid, dtype=np.float64)
    bound = mgf_bound(t_grid, v, b, c)  # also validates the domain
    if isinstance(law, DiscreteLaw):
        law = LawRows.stack([law])
    if isinstance(law, LawRows):
        report = _report(*_exact_worst_points(law, t_grid, bound), t_grid, "exact", family, alpha)
        if c * np.max(law.variances()) <= (1.0 + MGF_RATIO_TOL) * 2.0 * v:
            return report
        return replace(report, verdict=False)
    samples = np.asarray(law, dtype=np.float64)
    if samples.ndim != 1 or samples.size < 2:
        raise ValueError("sampled laws need a 1-D array with at least 2 draws")
    mgf, m2 = _sampled_moments(samples, t_grid)
    margin = MGF_SE_MULTIPLIER * np.sqrt(m2 / (samples.size - 1)) / math.sqrt(samples.size)
    ratios, worst = _worst_points(mgf[:, None], margin[:, None], bound)
    return _report(ratios, worst, t_grid, "sampled", family, alpha)


def check_noise_mgf(model, alpha, sample_size=1_000_000, rng=None):
    """`mgf_bound_check` of every conditional companion law of a noise model, on
    its profile's default grid: exactly for the discrete families, all their
    conditional laws at once as rows, and from samples drawn from `rng` for the
    continuous ones, which require it so that a verdict reproduces from its seed;
    one report per coordinate, drawn in coordinate order. Returns the worst-case
    report: the first law with the largest ratio."""
    alpha = _check_alpha(alpha)
    profile = model.profile()
    v = profile.v(alpha)
    b = profile.b(alpha)
    c = profile.mgf_normalization
    t_grid = default_t_grid(v, b)
    if model.discrete:
        return mgf_bound_check(model.conditional_rows(alpha), v, b, c, t_grid, model.family, alpha)
    if rng is None:
        raise ValueError("sampled MGF checks need a generator: pass rng")
    n = _as_count(sample_size, "sample_size")
    if n < 2:
        raise ValueError("sample_size must be at least 2")
    reports = [
        mgf_bound_check(model.companion_draws(i, alpha, n, rng), v, b, c, t_grid, model.family, alpha)
        for i in range(model.dim)
    ]
    # the ratios are never NaN, so np.argmax picks the first report with the largest
    return reports[int(np.argmax([report.max_ratio for report in reports]))]
