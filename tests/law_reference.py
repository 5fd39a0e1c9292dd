"""A per-law reference for the exact-law rows: each coordinate's conditioning
records, marginal law, conditional laws, coupled-sum law and exact checks, built
one law at a time through `DiscreteLaw`. The row layer must equal it under ==."""

import numpy as np
from hypothesis import strategies as st

from ewa_agg.bernstein import MGF_RATIO_TOL, MgfCheckReport, default_t_grid, mgf_bound
from ewa_agg.coupling import EXACT_TOL, CouplingReport
from ewa_agg.noise import (
    BoundedBinaryMixture,
    CenteredBernoulli,
    CenteredBinomial,
    DiscreteLaw,
    max_atom_probability_error,
)


def records(model, i, alpha):
    """Coordinate i's records (record probability, xi value, branches); a binomial's
    are those of one of its Bernoulli terms."""
    if isinstance(model, BoundedBinaryMixture):
        found = []
        for (a, b), q in model.mixing[i]:
            for eta, p_eta in ((a, b / (a + b)), (-b, a / (a + b))):
                if p_eta != 0.0:
                    found.append((q * p_eta, eta, model.branches(a, b, eta, alpha)))
        return found
    rho = float(model.rho[i])
    return [
        (p, xi, CenteredBernoulli.branches(xi, alpha))
        for xi, p in ((1.0 - rho, rho), (-rho, 1.0 - rho))
    ]


def branch_law(branches):
    """The two-atom law of zeta given one record."""
    sv, sp, jv, jp = (float(x) for x in branches)
    return DiscreteLaw.from_atoms([sv, jv], [sp, jp])


def _lift(model, law):
    """A coordinate's law from the law of its records: a binomial's sums k terms."""
    if isinstance(model, CenteredBinomial):
        return law.convolution_powers(model.k)[-1].scale(model.a)
    return law


def marginal_law(model, i):
    """The law of xi_i."""
    found = records(model, i, 0.0)
    law = DiscreteLaw.from_atoms([xi for _p, xi, _b in found], [p for p, _xi, _b in found])
    return _lift(model, law)


def sum_law(model, i, alpha):
    """The law of xi_i + zeta_i."""
    values, probs = [], []
    for p, xi, (sv, sp, jv, jp) in records(model, i, alpha):
        values += [xi + sv, xi + jv]
        probs += [p * sp, p * jp]
    return _lift(model, DiscreteLaw.from_atoms(values, probs))


def conditional_means(model, i, alpha):
    means = [float(sv * sp + jv * jp) for _p, _xi, (sv, sp, jv, jp) in records(model, i, alpha)]
    if isinstance(model, CenteredBinomial):
        m_hi, m_lo = means
        return [model.a * (c * m_hi + (model.k - c) * m_lo) for c in range(model.k + 1)]
    return means


def conditional_laws(model, i, alpha):
    laws = [branch_law(branches) for _p, _xi, branches in records(model, i, alpha)]
    if isinstance(model, CenteredBinomial):
        hi, lo = (law.convolution_powers(model.k) for law in laws)
        return [hi[c].convolve(lo[model.k - c]).scale(model.a) for c in range(model.k + 1)]
    return laws


def alignment_errors(model, alpha):
    """Per coordinate, the exact identity's discrepancy."""
    scaled = [marginal_law(model, i).scale(1.0 + alpha) for i in range(model.dim)]
    return [max_atom_probability_error(sum_law(model, i, alpha), scaled[i]) for i in range(model.dim)]


def coupling_report(model, alpha):
    """`verify_coupling(model, alpha, method="exact")`, coordinate by coordinate."""
    stat = 0.0
    for error in alignment_errors(model, alpha):
        stat = max(stat, error)
    mean_stat = max(abs(m) for i in range(model.dim) for m in conditional_means(model, i, alpha))
    return CouplingReport(
        family=model.family,
        alpha=alpha,
        method="exact",
        statistic=stat,
        threshold=EXACT_TOL,
        mean_zero=mean_stat,
        mean_zero_threshold=EXACT_TOL,
        verdict=stat <= EXACT_TOL and mean_stat <= EXACT_TOL,
        sample_size=None,
        exact=True,
    )


def mgf_report(model, alpha):
    """`check_noise_mgf(model, alpha)` of a discrete family, law by law: each law's
    ratio E[exp(t zeta)] / bound over the grid, a non-finite MGF failing its point
    unless the bound there is infinite, and the first law with a strictly greater
    largest ratio wins; the verdict also needs each law's variance to be at most
    2 v / c, up to MGF_RATIO_TOL."""
    profile = model.profile()
    v, b, c = profile.v(alpha), profile.b(alpha), profile.mgf_normalization
    t_grid = default_t_grid(v, b)
    bound = mgf_bound(t_grid, v, b, c)
    worst = None
    small_t = True
    for i in range(model.dim):
        for law in conditional_laws(model, i, alpha):
            mgf = law.mgf(t_grid)
            ratio = mgf / bound
            blind = ~np.isfinite(mgf)
            ratio[blind] = np.where(np.isinf(bound[blind]), 0.0, np.inf)
            point = int(np.argmax(ratio))
            if worst is None or ratio[point] > worst[0]:
                worst = (float(ratio[point]), float(t_grid[point]))
            small_t = small_t and c * law.variance() <= (1.0 + MGF_RATIO_TOL) * 2.0 * v
    return MgfCheckReport(
        family=model.family,
        alpha=alpha,
        method="exact",
        max_ratio=worst[0],
        worst_t=worst[1],
        verdict=worst[0] <= 1.0 + MGF_RATIO_TOL and small_t,
        points=int(t_grid.size),
    )


rhos = st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3)
alphas = st.floats(0.0, 1.0, exclude_min=True)
# (a, b) on a 0.25 grid, so mixing atoms often tie; weights of 0 give zero-mass atoms
_mixing_atoms = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda ab: sum(ab) > 0)
_tables = (
    st.lists(st.tuples(_mixing_atoms, st.integers(0, 3)), min_size=1, max_size=5)
    .filter(lambda rows: any(w for _ab, w in rows))
    .map(lambda rows: [((a / 4, b / 4), w / sum(r[1] for r in rows)) for (a, b), w in rows])
)
discrete_models = st.one_of(
    st.builds(CenteredBernoulli, rhos),
    st.builds(
        BoundedBinaryMixture, st.just(1.0), st.just(1.0), st.lists(_tables, min_size=1, max_size=3)
    ),
    st.builds(CenteredBinomial, st.floats(0.05, 1.0), st.integers(1, 25), rhos),
)
