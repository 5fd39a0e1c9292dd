"""Centered noise families with independent coordinates.

Five families are supported, each with per-coordinate parameters:

* ``centered_bernoulli``: coordinate i takes 1 - rho_i with probability
  rho_i and -rho_i otherwise.
* ``gaussian``: coordinate i is N(0, sigma_i^2).
* ``bounded_binary_mixture``: coordinate i first draws a pair (a, b) from a
  finite mixing law on [0, a_max] x [0, b_max], then takes a with
  probability b/(a+b) and -b with probability a/(a+b).
* ``centered_binomial``: coordinate i is a * (eta_1 + ... + eta_k) with
  i.i.d. centered Bernoulli(rho_i) terms, i.e. a * (Binomial(k, rho_i) -
  k*rho_i).
* ``laplace``: coordinate i is Laplace with scale mu_i (density
  exp(-|x|/mu_i) / (2 mu_i)).

Every coordinate has mean zero exactly. Discrete families expose their
exact finite law; continuous ones return the ``CONTINUOUS`` marker.
Sampling consumes only the caller's generator, so draws are reproducible
from a seed.

Everything that depends on the family lives on its class: sampling and
latents, the exact law, the coupling (a discrete family's conditioning
records, a continuous family's independent companion), the Bernstein
profile row, the JSON parameters and the natural scenario. ``FAMILIES``
maps each family tag to its class and is the one list of families. The
modules below this one know no family: `laws` holds the finite-law
primitives (re-exported here), `coupling` the branch formulas and the
coupling checks, `bernstein` the profile type and the MGF checks.
"""

import math

import numpy as np

from .bernstein import BernsteinProfile
from .coupling import (
    binary_coupling_branches,
    bernoulli_coupling_branches,
    branch_law,
    branch_mean,
    couple_bernoulli,
    couple_binary,
    couple_binomial,
    couple_gaussian,
    couple_laplace,
    records_sum_law,
)
from .laws import (
    LAW_ATOL,
    MERGE_ATOL,
    DiscreteLaw,
    laplace_inverse_cdf,
    max_atom_probability_error,
)

CONTINUOUS = "continuous"


def _coordinate_array(values, name, low=None, high=None):
    """A validated read-only parameter vector, strictly between low and high where given."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if low is not None and np.any(arr <= low):
        raise ValueError(f"{name} must be > {low}")
    if high is not None and np.any(arr >= high):
        raise ValueError(f"{name} must be < {high}")
    arr.setflags(write=False)
    return arr


def _clipped_atoms(truth, m, rng):
    """m atoms within 0.25 of truth per coordinate, clipped to [0, 1]."""
    return np.clip(truth + rng.uniform(-0.25, 0.25, (m, truth.size)), 0.0, 1.0)


class NoiseModel:
    """Base class: a family name, a dimension, sampling, and exact laws,
    plus the family's coupling, moment profile, JSON form and scenario."""

    family = ""
    discrete = False  # True: finite exact laws, so the coupling is checked by enumeration
    json_keys = ()  # the constructor's arguments, in order, as JSON parameter names

    @property
    def dim(self):
        raise NotImplementedError

    @classmethod
    def homogeneous(cls, n, value):
        """A one-parameter family with the same parameter on all n coordinates."""
        return cls(np.full(n, float(value)))

    def sample(self, rng):
        raise NotImplementedError

    def sample_with_latents(self, rng):
        """Draw one noise vector together with the conditioning record the
        coupling constructions need. Default: the vector itself."""
        xi = self.sample(rng)
        return xi, {"xi": xi}

    def companion(self, record, alpha, rng):
        """The coupling companion zeta of the vector drawn with `record`."""
        raise NotImplementedError

    def exact_law(self, i):
        """Exact law of coordinate i, or the CONTINUOUS marker."""
        return CONTINUOUS

    def profile(self):
        """The family's `bernstein.BernsteinProfile`."""
        raise NotImplementedError

    def params_json(self):
        return {key: np.asarray(getattr(self, key)).tolist() for key in self.json_keys}

    @classmethod
    def scenario(cls, n, m, rng, params):
        """(truth, noise, atoms) of the family's natural scenario, drawn
        from rng; pops the family's parameters from `params`."""
        raise NotImplementedError


class _DiscreteNoise(NoiseModel):
    """A family with a finite law per coordinate. `coupling_records(i, alpha)`
    enumerates coordinate i's conditioning records as (record probability,
    xi value, (stay value, stay prob, jump value, jump prob)); the exact
    coupling checks are derived from them."""

    discrete = True

    def sample(self, rng):
        return self.sample_with_latents(rng)[0]

    def coupling_records(self, i, alpha):
        raise NotImplementedError

    def coupled_sum_law(self, i, alpha):
        return records_sum_law(self.coupling_records(i, alpha))

    def conditional_means(self, i, alpha):
        return [branch_mean(branches) for _p, _xi, branches in self.coupling_records(i, alpha)]

    def conditional_laws(self, i, alpha):
        return [branch_law(branches) for _p, _xi, branches in self.coupling_records(i, alpha)]


class _ContinuousNoise(NoiseModel):
    """A family with one continuous scale parameter per coordinate. Its
    companion is drawn independently of xi by `couple(scale, alpha, rng)`,
    so the coupling is checked from `coordinate_draws` samples."""

    @property
    def dim(self):
        return int(self.scale.size)

    def companion(self, record, alpha, rng):
        return self.couple(self.scale, alpha, rng)

    def companion_draws(self, i, alpha, n, rng):
        """n independent companions of coordinate i."""
        return self.couple(np.full(n, float(self.scale[i])), alpha, rng)

    @classmethod
    def scenario(cls, n, m, rng, params):
        scale = float(params.pop(cls.json_keys[0], 1.0))  # sigma or mu, as named in JSON
        truth = rng.uniform(0.0, 1.0, n)
        return truth, cls.homogeneous(n, scale), truth + rng.uniform(-0.5, 0.5, (m, n))


def _bernoulli_records(rho, alpha):
    return [
        (p_xi, xi, bernoulli_coupling_branches(xi, alpha))
        for xi, p_xi in ((1.0 - rho, rho), (-rho, 1.0 - rho))
    ]


class CenteredBernoulli(_DiscreteNoise):
    """Coordinate i equals 1 - rho_i w.p. rho_i, else -rho_i."""

    family = "centered_bernoulli"
    json_keys = ("rho",)

    def __init__(self, rho):
        self.rho = _coordinate_array(rho, "rho", low=0.0, high=1.0)

    @property
    def dim(self):
        return int(self.rho.size)

    def sample(self, rng):
        u = rng.random(self.dim)
        return np.where(u < self.rho, 1.0 - self.rho, -self.rho)

    def exact_law(self, i):
        rho = float(self.rho[i])
        return DiscreteLaw([1.0 - rho, -rho], [rho, 1.0 - rho])

    def coupling_records(self, i, alpha):
        return _bernoulli_records(float(self.rho[i]), alpha)

    def companion(self, record, alpha, rng):
        return couple_bernoulli(record["xi"], self.rho, alpha, rng)

    def profile(self):
        return BernsteinProfile(
            family=self.family,
            v=lambda alpha: alpha * (1.0 + alpha),
            b=lambda alpha: (1.0 + alpha) / 3.0,
            v_prime_0=1.0,
            b_0=1.0 / 3.0,
            mgf_normalization=2.0,
        )

    @classmethod
    def scenario(cls, n, m, rng, params):
        # success rates equal the truth, so observations are honest counts
        truth = rng.uniform(0.2, 0.8, n)
        return truth, cls(truth.copy()), _clipped_atoms(truth, m, rng)


class Gaussian(_ContinuousNoise):
    """Coordinate i is N(0, sigma_i^2)."""

    family = "gaussian"
    json_keys = ("sigma",)
    couple = staticmethod(couple_gaussian)

    def __init__(self, sigma):
        self.sigma = _coordinate_array(sigma, "sigma", low=0.0)

    @property
    def scale(self):
        return self.sigma

    def sample(self, rng):
        return rng.normal(0.0, self.sigma)

    def coordinate_draws(self, i, n, rng):
        return rng.normal(0.0, float(self.sigma[i]), n)

    def profile(self):
        s2 = float(np.max(self.sigma) ** 2)
        return BernsteinProfile(
            family=self.family,
            v=lambda alpha: (2.0 * alpha + alpha * alpha) * s2,
            b=lambda alpha: 0.0,
            v_prime_0=2.0 * s2,
            b_0=0.0,
            mgf_normalization=2.0,
        )


_DEFAULT_MIXING = [((0.6, 0.6), 0.4), ((0.35, 0.2), 0.35), ((0.1, 0.45), 0.25)]


class BoundedBinaryMixture(_DiscreteNoise):
    """Mixture of binary laws: coordinate i draws (a, b) from a finite
    mixing law, then takes a w.p. b/(a+b) and -b w.p. a/(a+b).

    ``mixing`` is a per-coordinate list of ((a, b), prob) entries with
    0 <= a <= a_max, 0 <= b <= b_max, a + b > 0.
    """

    family = "bounded_binary_mixture"
    json_keys = ("a_max", "b_max", "mixing")

    def __init__(self, a_max, b_max, mixing):
        self.a_max = float(a_max)
        self.b_max = float(b_max)
        if not (math.isfinite(self.a_max) and math.isfinite(self.b_max)):
            raise ValueError("a_max and b_max must be finite")
        if self.a_max < 0.0 or self.b_max < 0.0 or self.a_max + self.b_max <= 0.0:
            raise ValueError("a_max and b_max must be nonnegative with a_max + b_max > 0")
        if len(mixing) == 0:
            raise ValueError("mixing must list at least one coordinate")
        width = max(len(entry) for entry in mixing)
        n = len(mixing)
        self._a = np.zeros((n, width))
        self._b = np.zeros((n, width))
        self._p = np.zeros((n, width))
        for i, entries in enumerate(mixing):
            if len(entries) == 0:
                raise ValueError("each coordinate needs at least one mixing atom")
            for j, ((a, b), p) in enumerate(entries):
                a, b, p = float(a), float(b), float(p)
                if not (0.0 <= a <= self.a_max and 0.0 <= b <= self.b_max):
                    raise ValueError("mixing atoms must satisfy 0 <= a <= a_max and 0 <= b <= b_max")
                if a + b <= 0.0:
                    raise ValueError("mixing atoms must satisfy a + b > 0")
                if p < 0.0:
                    raise ValueError("mixing probabilities must be nonnegative")
                self._a[i, j], self._b[i, j], self._p[i, j] = a, b, p
            if abs(self._p[i].sum() - 1.0) > LAW_ATOL:
                raise ValueError("mixing probabilities must sum to 1")
        # padding columns keep zero mass; give them a valid (a, b) so vectorized
        # arithmetic below never divides by zero
        pad = self._p == 0.0
        self._a[pad & (self._a + self._b == 0.0)] = 1.0
        self._cum = np.cumsum(self._p, axis=1)
        self.mixing = [
            [((float(a), float(b)), float(p)) for (a, b), p in entries] for entries in mixing
        ]
        for arr in (self._a, self._b, self._p, self._cum):
            arr.setflags(write=False)

    @classmethod
    def homogeneous(cls, n, a_max, b_max, mixing):
        return cls(a_max, b_max, [list(mixing) for _ in range(n)])

    @property
    def dim(self):
        return int(self._a.shape[0])

    def _draw_pairs(self, rng):
        u = rng.random(self.dim)
        idx = np.sum(self._cum < u[:, None], axis=1)
        idx = np.minimum(idx, self._a.shape[1] - 1)
        rows = np.arange(self.dim)
        return self._a[rows, idx], self._b[rows, idx]

    def sample_with_latents(self, rng):
        a, b = self._draw_pairs(rng)
        u = rng.random(self.dim)
        xi = np.where(u < b / (a + b), a, -b)
        return xi, {"a": a, "b": b, "eta": xi}

    def exact_law(self, i):
        a, b, p = self._a[i], self._b[i], self._p[i]
        values = np.concatenate([a, -b])
        return DiscreteLaw.from_atoms(values, np.concatenate([p * b / (a + b), p * a / (a + b)]))

    def coupling_records(self, i, alpha):
        records = []
        for (a, b), q in self.mixing[i]:
            for eta, p_eta in ((a, b / (a + b)), (-b, a / (a + b))):
                if p_eta != 0.0:
                    records.append((q * p_eta, eta, binary_coupling_branches(a, b, eta, alpha)))
        return records

    def companion(self, record, alpha, rng):
        return couple_binary(record["a"], record["b"], record["eta"], alpha, rng)

    def profile(self):
        span = self.a_max + self.b_max
        return BernsteinProfile(
            family=self.family,
            v=lambda alpha: span * span * alpha * (1.0 + alpha),
            b=lambda alpha: span * (1.0 + alpha) / 3.0,
            v_prime_0=span * span,
            b_0=span / 3.0,
            mgf_normalization=2.0,
        )

    def params_json(self):
        return {
            "a_max": self.a_max,
            "b_max": self.b_max,
            "mixing": [[[[a, b], p] for (a, b), p in entries] for entries in self.mixing],
        }

    @classmethod
    def scenario(cls, n, m, rng, params):
        mixing = params.pop("mixing", _DEFAULT_MIXING)
        a_max = float(params.pop("a_max", max(a for (a, _b), _p in mixing)))
        b_max = float(params.pop("b_max", max(b for (_a, b), _p in mixing)))
        truth = rng.uniform(0.0, 1.0, n)
        return truth, cls.homogeneous(n, a_max, b_max, mixing), _clipped_atoms(truth, m, rng)


class CenteredBinomial(_DiscreteNoise):
    """Coordinate i is a * (Binomial(k, rho_i) - k * rho_i), realized as a
    sum of k centered Bernoulli terms scaled by a."""

    family = "centered_binomial"
    json_keys = ("a", "k", "rho")

    def __init__(self, a, k, rho):
        self.a = float(a)
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise ValueError("a must be positive")
        self.k = int(k)
        if self.k < 1 or self.k != k:
            raise ValueError("k must be a positive integer")
        self.rho = _coordinate_array(rho, "rho", low=0.0, high=1.0)

    @classmethod
    def homogeneous(cls, n, a, k, rho):
        return cls(a, k, np.full(n, float(rho)))

    @property
    def dim(self):
        return int(self.rho.size)

    def sample_with_latents(self, rng):
        u = rng.random((self.k, self.dim))
        eta = np.where(u < self.rho, 1.0 - self.rho, -self.rho)
        return self.a * eta.sum(axis=0), {"eta": eta}

    def exact_law(self, i):
        rho = float(self.rho[i])
        j = np.arange(self.k + 1)
        values = self.a * (j - self.k * rho)
        probs = np.array(
            [math.comb(self.k, jj) * rho**jj * (1.0 - rho) ** (self.k - jj) for jj in j]
        )
        return DiscreteLaw(values, probs / probs.sum())

    def coupling_records(self, i, alpha):
        """The records of one Bernoulli(rho_i) term: each of the k terms is
        coupled on its own, and the coordinate is a times their sum."""
        return _bernoulli_records(float(self.rho[i]), alpha)

    def coupled_sum_law(self, i, alpha):
        return super().coupled_sum_law(i, alpha).convolution_powers(self.k)[-1].scale(self.a)

    def conditional_means(self, i, alpha):
        # the record is the count c of terms at 1 - rho
        m_hi, m_lo = super().conditional_means(i, alpha)
        return [self.a * (c * m_hi + (self.k - c) * m_lo) for c in range(self.k + 1)]

    def conditional_laws(self, i, alpha):
        hi, lo = (law.convolution_powers(self.k) for law in super().conditional_laws(i, alpha))
        return [hi[c].convolve(lo[self.k - c]).scale(self.a) for c in range(self.k + 1)]

    def companion(self, record, alpha, rng):
        return couple_binomial(record["eta"], self.a, alpha, rng)

    def profile(self):
        a, k = self.a, self.k
        return BernsteinProfile(
            family=self.family,
            v=lambda alpha: a * a * k * alpha * (1.0 + alpha),
            b=lambda alpha: a * (1.0 + alpha) / 3.0,
            v_prime_0=a * a * k,
            b_0=a / 3.0,
            mgf_normalization=2.0,
        )

    @classmethod
    def scenario(cls, n, m, rng, params):
        k = int(params.pop("k", 5))
        a = float(params.pop("a", 1.0 / k))
        truth = rng.uniform(0.2, 0.8, n)
        return truth, cls(a, k, truth.copy()), _clipped_atoms(truth, m, rng)


class Laplace(_ContinuousNoise):
    """Coordinate i is centered Laplace with scale mu_i."""

    family = "laplace"
    json_keys = ("mu",)
    couple = staticmethod(couple_laplace)

    def __init__(self, mu):
        self.mu = _coordinate_array(mu, "mu", low=0.0)

    @property
    def scale(self):
        return self.mu

    def sample(self, rng):
        return laplace_inverse_cdf(rng.random(self.mu.size), self.mu)

    def coordinate_draws(self, i, n, rng):
        return laplace_inverse_cdf(rng.random(n), float(self.mu[i]))

    def profile(self):
        mu = float(np.max(self.mu))
        return BernsteinProfile(
            family=self.family,
            v=lambda alpha: alpha * (2.0 + alpha) * mu * mu,
            b=lambda alpha: (1.0 + alpha) * mu,
            v_prime_0=2.0 * mu * mu,
            b_0=mu,
            mgf_normalization=1.0,
        )


# family tag -> class: the one list of noise families
FAMILIES = {
    cls.family: cls
    for cls in (CenteredBernoulli, Gaussian, BoundedBinaryMixture, CenteredBinomial, Laplace)
}


def noise_to_json(model):
    return {"family": model.family, "params": model.params_json()}


def _require(params, key, family):
    if key not in params:
        raise ValueError(f"missing key: noise.params.{key} (family {family})")
    return params[key]


def noise_from_json(doc):
    if not isinstance(doc, dict) or "family" not in doc or "params" not in doc:
        raise ValueError('noise must be an object with keys "family" and "params"')
    family = doc["family"]
    if family not in FAMILIES:
        known = ", ".join(sorted(FAMILIES))
        raise ValueError(f"noise.family must be one of: {known}")
    params = doc["params"]
    if not isinstance(params, dict):
        raise ValueError("noise.params must be an object")
    cls = FAMILIES[family]
    args = [_require(params, key, family) for key in cls.json_keys]
    try:
        return cls(*args)
    except (TypeError, IndexError) as exc:
        raise ValueError(f"noise.params is malformed for family {family}: {exc}") from None
