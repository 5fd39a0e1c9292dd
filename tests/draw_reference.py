"""A reference for the noise draws: each family's one-vector sampling formula as it
was written before draws split into a raw generator call and a row-wise transform,
and numpy's own `Generator.choice` for the prior pick. The split must equal it under
== (sign bits included), row by row; strategies for every family's parameters
follow."""

import numpy as np
from hypothesis import strategies as st

from ewa_agg.noise import (
    BoundedBinaryMixture,
    CenteredBernoulli,
    CenteredBinomial,
    Gaussian,
    Laplace,
)


def _laplace(u, mu):
    lo = np.maximum(2.0 * u, 1e-300)
    hi = np.maximum(2.0 * (1.0 - u), 1e-300)
    return np.where(u < 0.5, mu * np.log(lo), -mu * np.log(hi))


def sample_with_latents(model, rng):
    """(xi, latents) of one draw from rng, by the family's one-vector formula."""
    n = model.dim
    if isinstance(model, CenteredBernoulli):
        u = rng.random(n)
        xi = np.where(u < model.rho, 1.0 - model.rho, -model.rho)
        return xi, {"eta": xi[None]}  # its one term, as the binomial's latents hold them
    if isinstance(model, BoundedBinaryMixture):
        u = rng.random(n)
        idx = np.minimum(np.sum(model._cum < u[:, None], axis=1), model._a.shape[1] - 1)
        a, b = model._a[np.arange(n), idx], model._b[np.arange(n), idx]
        u = rng.random(n)
        xi = np.where(u < b / (a + b), a, -b)
        return xi, {"a": a, "b": b, "eta": xi}
    if isinstance(model, CenteredBinomial):
        u = rng.random((model.k, n))
        eta = np.where(u < model.rho, 1.0 - model.rho, -model.rho)
        return model.a * eta.sum(axis=0), {"eta": eta}
    if isinstance(model, Gaussian):
        xi = rng.normal(0.0, model.sigma)
        return xi, {"xi": xi}
    assert isinstance(model, Laplace)
    xi = _laplace(rng.random(n), model.mu)
    return xi, {"xi": xi}


def continuous_draw(model, scale, rng):
    """One draw per entry of the scale array, by the family's formula."""
    if isinstance(model, Gaussian):
        return rng.normal(0.0, scale)
    return _laplace(rng.random(scale.shape), scale)


def companion_draw(model, scale, alpha, rng):
    """The companion of one draw per entry of the scale array, by the family's formula."""
    if isinstance(model, Gaussian):
        return rng.normal(0.0, np.sqrt(2.0 * alpha + alpha * alpha) * scale)
    stay = rng.random(scale.shape) < 1.0 / (1.0 + alpha) ** 2
    return np.where(stay, 0.0, _laplace(rng.random(scale.shape), (1.0 + alpha) * scale))


def prior_pick(rng, weights, size):
    return rng.choice(weights.size, size=size, p=weights)


def _vector(n, values):
    return st.lists(values, min_size=n, max_size=n)


_RHO = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
# scales from subnormal up to where sigma z overflows to inf
_SIGMA = st.floats(0.0, 1.7e308, exclude_min=True)
# below the scales where mu log(2u) overflows, which warns in either formula
_MU = st.floats(0.0, 1e300, exclude_min=True)
_PAIR = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).filter(lambda ab: sum(ab) > 0.0)
# up to 5 atoms per coordinate, so shorter coordinates are padded; weight 0 gives zero mass
_TABLE = (
    st.lists(st.tuples(_PAIR, st.integers(0, 3)), min_size=1, max_size=5)
    .filter(lambda rows: any(w for _ab, w in rows))
    .map(lambda rows: [(ab, w / sum(r[1] for r in rows)) for ab, w in rows])
)


def _family(n, family):
    if family == "centered_bernoulli":
        return st.builds(CenteredBernoulli, _vector(n, _RHO))
    if family == "gaussian":
        return st.builds(Gaussian, _vector(n, _SIGMA))
    if family == "bounded_binary_mixture":
        return st.builds(BoundedBinaryMixture, st.just(1.0), st.just(1.0), _vector(n, _TABLE))
    if family == "centered_binomial":
        return st.builds(CenteredBinomial, st.floats(1e-3, 1e3), st.integers(1, 25), _vector(n, _RHO))
    return st.builds(Laplace, _vector(n, _MU))


def models(family, max_n=60):
    """Models of one family at n in [1, max_n]: uneven scales, binomials with k in
    [1, 25], mixtures with zero-mass and padded atoms."""
    return st.integers(1, max_n).flatmap(lambda n: _family(n, family))


def priors(min_size=1, max_size=300):
    """Prior weights skewed over 9 decades, with zero-mass atoms."""
    masses = st.lists(st.just(0.0) | st.floats(1e-9, 1.0), min_size=min_size, max_size=max_size)
    return masses.filter(lambda w: sum(w) > 0.0).map(lambda w: np.array(w) / np.sum(w))
