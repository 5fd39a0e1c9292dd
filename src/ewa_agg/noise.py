"""Centered noise families with independent coordinates.

Five families are supported, each with per-coordinate parameters:

* ``centered_bernoulli``: coordinate i takes 1 - rho_i with probability
  rho_i and -rho_i otherwise: the centered binomial at a = 1, k = 1.
* ``gaussian``: coordinate i is N(0, sigma_i^2).
* ``bounded_binary_mixture``: coordinate i first draws a pair (a, b) from a
  finite mixing law on [0, a_max] x [0, b_max], then takes a with
  probability b/(a+b) and -b with probability a/(a+b).
* ``centered_binomial``: coordinate i is a * (eta_1 + ... + eta_k) with
  i.i.d. centered Bernoulli(rho_i) terms, i.e. a * (Binomial(k, rho_i) -
  k*rho_i).
* ``laplace``: coordinate i is Laplace with scale mu_i (density
  exp(-|x|/mu_i) / (2 mu_i)).

Every coordinate has mean zero exactly. A discrete family (``discrete`` set)
gives every coordinate's exact finite law as `marginal_rows()`. Sampling
consumes only the caller's generator, so draws are reproducible from a seed.

A draw comes in two parts. `raw_draw(rng)` is its one generator call:
``rng.random(K)`` for the four uniform families (K = n for Laplace, 2n for
the mixture, its pair picks then its sides, and k n for the binomial, so n
for the Bernoulli) and ``rng.standard_normal(n)`` for the Gaussian.
`noise_rows(raw)` turns an (R, K) block of raw draws into (R, n) noise and
the latents, row by row, so a caller that draws many vectors
(`oracle.mc_risk`) runs it once per block. `sample` and `sample_with_latents` are its one-row case, so each
formula is written once, and each row's floats equal the one-row call's.

Everything that depends on the family lives on its class, each formula
once: sampling and latents, the coupling (a discrete family's static
`branches` formula, which both its conditioning records and its companion
draw use; a continuous family's static `raw`, `transform` and `couple`,
from which its sampling and its coupling draws derive), the Bernstein
profile row, the JSON parameters and the natural scenario. A discrete
family states its law of xi once, in `coupling_records`: the conditioning
records of all its coordinates at once, as flat arrays. Every exact law is
built from them as one `laws.LawRows` batch, one merge per step: the
marginals of xi, the coupled sums, the conditional means and laws. A
family whose coordinate sums several coupled terms states its lift from
one term's law to the coordinate's once, in `_lift`. The Bernoulli is the
binomial at a = 1, k = 1, a subclass that keeps only its tag, JSON
parameters and scenario.
``FAMILIES`` maps each family tag to its class and is the one list of
families. The modules below this one know no family: `laws` holds the
finite-law primitives (re-exported here), `coupling` the two-branch draw
and the coupling checks, `bernstein` the profile type and the MGF checks.
"""

import math

import numpy as np

from .bernstein import BernsteinProfile
from .coupling import two_branch_draw
from .laws import LAW_ATOL, MERGE_ATOL, DiscreteLaw, LawRows, max_atom_probability_error


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
    """Base class: a family name, a dimension and sampling, plus the family's
    coupling, moment profile, JSON form and scenario."""

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
        """One noise vector: the one-row case of `noise_rows`."""
        return self.sample_with_latents(rng)[0]

    def raw_draw(self, rng):
        """One vector's only generator call: the raw values `noise_rows` turns into its noise."""
        raise NotImplementedError

    def noise_rows(self, raw):
        """(noise, latents) of an (R, K) block of raw draws, row by row: noise is (R, n) and
        each latent has a leading R axis. It may overwrite raw."""
        raise NotImplementedError

    def sample_with_latents(self, rng):
        """Draw one noise vector together with the conditioning record the
        coupling constructions need: the one-row case of `noise_rows`."""
        xi, latents = self.noise_rows(self.raw_draw(rng)[None])
        return xi[0], {key: value[0] for key, value in latents.items()}

    def companion(self, record, alpha, rng):
        """The coupling companion zeta of the vector drawn with `record`."""
        raise NotImplementedError

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


def _pairs(first, second):
    """Interleave two arrays: first[0], second[0], first[1], second[1], ..."""
    return np.stack([first, second], axis=-1).ravel()


class _DiscreteNoise(NoiseModel):
    """A family with a finite law per coordinate. Its static `branches` formula
    gives (stay value, stay prob, jump value, jump prob) per entry;
    `coupling_records(alpha)` enumerates the conditioning records of all
    coordinates at once, coordinate by coordinate, as flat arrays (coordinate,
    record probability, xi value) and the branches of each record. The first
    three do not depend on alpha, and they are the one statement of the law of
    xi. The exact laws are derived from those arrays as `laws.LawRows`, one
    merge per step over all coordinates, and `companion` draws from the same
    formula (`coupling.two_branch_draw`)."""

    discrete = True

    def coupling_records(self, alpha):
        raise NotImplementedError

    def _lift(self, rows):
        """A coordinate's law from the law its records give: the same law here."""
        return rows

    def marginal_rows(self):
        """Row i: the law of xi_i over coordinate i's records."""
        coord, p, xi, _ = self.coupling_records(0.0)
        return self._lift(LawRows.from_atoms(coord, xi, p, self.dim))

    def coupled_sum_rows(self, alpha):
        """Row i: the law of xi_i + zeta_i over coordinate i's records."""
        coord, p, xi, (sv, sp, jv, jp) = self.coupling_records(alpha)
        values, probs = _pairs(xi + sv, xi + jv), _pairs(p * sp, p * jp)
        return self._lift(LawRows.from_atoms(np.repeat(coord, 2), values, probs, self.dim))

    def conditional_means(self, alpha):
        """E[zeta | record] of every record, in record order."""
        sv, sp, jv, jp = self.coupling_records(alpha)[3]
        return sv * sp + jv * jp

    def conditional_rows(self, alpha):
        """Row j: the two-atom law of zeta given record j."""
        sv, sp, jv, jp = self.coupling_records(alpha)[3]
        record = np.arange(sv.size).repeat(2)
        return LawRows.from_atoms(record, _pairs(sv, jv), _pairs(sp, jp), sv.size)


class _ContinuousNoise(NoiseModel):
    """A family with one continuous scale parameter per coordinate, defined by three
    static formulas: `raw(rng, shape)`, its one generator call; `transform(raw, scale)`,
    which turns the raw values into draws of the given scales entry by entry; and
    `couple(scale, alpha, rng)`, the companion, independent of xi. `draw(scale, rng)`, one
    value per entry of a scale array, is the first two in turn."""

    @property
    def dim(self):
        return int(self.scale.size)

    @classmethod
    def draw(cls, scale, rng):
        return cls.transform(cls.raw(rng, np.shape(scale)), scale)

    def raw_draw(self, rng):
        return self.raw(rng, self.scale.shape)

    def noise_rows(self, raw):
        xi = self.transform(raw, self.scale)
        return xi, {"xi": xi}

    def coordinate_draws(self, i, n, rng):
        """n independent draws of coordinate i."""
        return self.draw(np.broadcast_to(float(self.scale[i]), n), rng)

    def companion(self, record, alpha, rng):
        return self.couple(self.scale, alpha, rng)

    def companion_draws(self, i, alpha, n, rng):
        """n independent companions of coordinate i."""
        return self.couple(np.broadcast_to(float(self.scale[i]), n), alpha, rng)

    @classmethod
    def scenario(cls, n, m, rng, params):
        scale = float(params.pop(cls.json_keys[0], 1.0))  # sigma or mu, as named in JSON
        truth = rng.uniform(0.0, 1.0, n)
        return truth, cls.homogeneous(n, scale), truth + rng.uniform(-0.5, 0.5, (m, n))


class Gaussian(_ContinuousNoise):
    """Coordinate i is N(0, sigma_i^2). Coupling: an independent
    zeta ~ N(0, (2 alpha + alpha^2) sigma_i^2)."""

    family = "gaussian"
    json_keys = ("sigma",)

    @staticmethod
    def raw(rng, shape):
        return rng.standard_normal(shape)

    @staticmethod
    def transform(z, sigma):
        """0.0 + sigma z, in place in z: the arithmetic of rng.normal(0.0, sigma), bit for
        bit, since with loc 0 a fused and an unfused product round alike. Like it, an
        overflow to inf goes unwarned."""
        with np.errstate(over="ignore"):
            z *= sigma
        z += 0.0
        return z

    @staticmethod
    def couple(sigma, alpha, rng):
        return Gaussian.draw(math.sqrt(2.0 * alpha + alpha * alpha) * sigma, rng)

    def __init__(self, sigma):
        self.sigma = _coordinate_array(sigma, "sigma", low=0.0)

    @property
    def scale(self):
        return self.sigma

    def profile(self):
        s2 = float(np.max(self.sigma) ** 2)
        return BernsteinProfile(
            v=lambda alpha: (2.0 * alpha + alpha * alpha) * s2,
            b=lambda alpha: 0.0,
            v_prime_0=2.0 * s2,
            mgf_normalization=2.0,
        )


_DEFAULT_MIXING = [((0.6, 0.6), 0.4), ((0.35, 0.2), 0.35), ((0.1, 0.45), 0.25)]


class BoundedBinaryMixture(_DiscreteNoise):
    """Mixture of binary laws: coordinate i draws (a, b) from a finite
    mixing law, then takes a w.p. b/(a+b) and -b w.p. a/(a+b).

    ``mixing`` is a per-coordinate list of ((a, b), prob) entries with
    0 <= a <= a_max, 0 <= b <= b_max, a + b > 0.

    Coupling: given (a, b) and eta = a, zeta = alpha a w.p.
    ((1 + alpha) b + a) / ((1 + alpha)(a + b)), else -(1 + alpha) b - a; given
    eta = -b, zeta = -alpha b w.p. ((1 + alpha) a + b) / ((1 + alpha)(a + b)),
    else (1 + alpha) a + b. Zero conditional mean and the target marginal pin
    these stay probabilities down uniquely.
    """

    family = "bounded_binary_mixture"
    json_keys = ("a_max", "b_max", "mixing")

    @staticmethod
    def branches(a, b, eta, alpha):
        """The side is eta == a: the records and the sampler hold the exact support values."""
        is_a = eta == a
        denom = (1.0 + alpha) * (a + b)
        stay_value = np.where(is_a, alpha * a, -alpha * b)
        stay_prob = np.where(is_a, (1.0 + alpha) * b + a, (1.0 + alpha) * a + b) / denom
        jump_value = np.where(is_a, -(1.0 + alpha) * b - a, (1.0 + alpha) * a + b)
        return stay_value, stay_prob, jump_value, 1.0 - stay_prob

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
                if not math.isfinite(p):
                    raise ValueError("mixing probabilities must be finite")
                if p < 0.0:
                    raise ValueError("mixing probabilities must be nonnegative")
                self._a[i, j], self._b[i, j], self._p[i, j] = a, b, p
            if abs(self._p[i].sum() - 1.0) > LAW_ATOL:
                raise ValueError("mixing probabilities must sum to 1")
        # the columns each coordinate lists; the others are padding
        self._listed = np.arange(width) < np.array([len(entries) for entries in mixing])[:, None]
        # padding columns keep zero mass; give them a valid (a, b) so vectorized
        # arithmetic below never divides by zero
        pad = self._p == 0.0
        self._a[pad & (self._a + self._b == 0.0)] = 1.0
        self._cum = np.cumsum(self._p, axis=1)
        self.mixing = [
            [((float(a), float(b)), float(p)) for (a, b), p in entries] for entries in mixing
        ]
        for arr in (self._a, self._b, self._p, self._cum, self._listed):
            arr.setflags(write=False)

    @classmethod
    def homogeneous(cls, n, a_max, b_max, mixing):
        return cls(a_max, b_max, [list(mixing) for _ in range(n)])

    @property
    def dim(self):
        return int(self._a.shape[0])

    def raw_draw(self, rng):
        return rng.random(2 * self.dim)

    def noise_rows(self, raw):
        """Each row's first n uniforms pick the pairs (a, b), and its last n the sides."""
        pick, side = raw[:, : self.dim], raw[:, self.dim :]
        idx = np.sum(self._cum < pick[..., None], axis=-1)
        idx = np.minimum(idx, self._a.shape[1] - 1)
        coord = np.arange(self.dim)
        a, b = self._a[coord, idx], self._b[coord, idx]
        xi = np.where(side < b / (a + b), a, -b)
        return xi, {"a": a, "b": b, "eta": xi}

    def coupling_records(self, alpha):
        """Per coordinate and mixing atom (a, b), eta = a then eta = -b, each kept
        where its probability is not 0."""
        a, b = self._a[..., None], self._b[..., None]
        eta = np.concatenate([a, -b], axis=2)
        p_eta = np.concatenate([b / (a + b), a / (a + b)], axis=2)
        keep = self._listed[..., None] & (p_eta != 0.0)
        a, b = np.broadcast_to(a, keep.shape)[keep], np.broadcast_to(b, keep.shape)[keep]
        coord = np.broadcast_to(np.arange(self.dim)[:, None, None], keep.shape)[keep]
        p = (self._p[..., None] * p_eta)[keep]
        return coord, p, eta[keep], self.branches(a, b, eta[keep], alpha)

    def companion(self, record, alpha, rng):
        branches = self.branches(record["a"], record["b"], record["eta"], alpha)
        return two_branch_draw(branches, rng)

    def profile(self):
        span = self.a_max + self.b_max
        return BernsteinProfile(
            v=lambda alpha: span * span * alpha * (1.0 + alpha),
            b=lambda alpha: span * (1.0 + alpha) / 3.0,
            v_prime_0=span * span,
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


def _term_count(k):
    """k as an int, if a positive integer: an integral float such as 5.0 is taken; a bool,
    inf or nan is not."""
    integral = isinstance(k, (int, np.integer)) or (isinstance(k, float) and k.is_integer())
    if isinstance(k, bool) or not integral or k < 1:
        raise ValueError("k must be a positive integer")
    return int(k)


class CenteredBinomial(_DiscreteNoise):
    """Coordinate i is a * (Binomial(k, rho_i) - k * rho_i), realized as a
    sum of k centered Bernoulli terms scaled by a.

    Coupling: each term eta is coupled on its own, zeta_eta = alpha * eta w.p.
    (1 + alpha - alpha |eta|) / (1 + alpha), else -sgn(eta) (1 + alpha - alpha |eta|),
    and zeta is a times the sum of the k terms' companions.
    """

    family = "centered_binomial"
    json_keys = ("a", "k", "rho")

    @staticmethod
    def branches(eta, alpha):
        eta = np.asarray(eta, dtype=np.float64)
        s = np.abs(eta)
        stay_prob = (1.0 + alpha - alpha * s) / (1.0 + alpha)
        stay_value = alpha * eta
        jump_value = -np.sign(eta) * (1.0 + alpha - alpha * s)
        jump_prob = alpha * s / (1.0 + alpha)
        return stay_value, stay_prob, jump_value, jump_prob

    def __init__(self, a, k, rho):
        self.a = float(a)
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise ValueError("a must be positive")
        self.k = _term_count(k)
        self.rho = _coordinate_array(rho, "rho", low=0.0, high=1.0)

    @classmethod
    def homogeneous(cls, n, a, k, rho):
        return cls(a, k, np.full(n, float(rho)))

    @property
    def dim(self):
        return int(self.rho.size)

    def raw_draw(self, rng):
        return rng.random(self.k * self.dim)

    def noise_rows(self, raw):
        """A row's uniforms are its k terms' rows of n, in turn."""
        u = raw.reshape(len(raw), self.k, self.dim)
        eta = np.where(u < self.rho, 1.0 - self.rho, -self.rho)
        return self.a * eta.sum(axis=1), {"eta": eta}

    def coupling_records(self, alpha):
        """The records of one term of coordinate i: eta = 1 - rho_i w.p. rho_i, then
        eta = -rho_i. Each of the k terms is coupled on its own, and the coordinate is a
        times their sum (`_lift`)."""
        eta = _pairs(1.0 - self.rho, -self.rho)
        coord = np.arange(self.dim).repeat(2)
        return coord, _pairs(self.rho, 1.0 - self.rho), eta, self.branches(eta, alpha)

    def _lift(self, rows):
        """a times the sum of k independent terms of one term's law."""
        return rows.convolution_powers(self.k)[-1].scale(self.a)

    def conditional_means(self, alpha):
        # the record is the count c of terms at 1 - rho
        m_hi, m_lo = super().conditional_means(alpha).reshape(-1, 2).T[..., None]
        c = np.arange(self.k + 1.0)
        return (self.a * (c * m_hi + (self.k - c) * m_lo)).ravel()

    def conditional_rows(self, alpha):
        # a term's rows are 2i (eta = 1 - rho_i) and 2i + 1; record (i, c) sums c
        # terms of the first and k - c of the second
        terms = super().conditional_rows(alpha)
        powers = LawRows.concat(terms.convolution_powers(self.k))
        c = np.tile(np.arange(self.k + 1), self.dim)
        first = 2 * np.repeat(np.arange(self.dim), self.k + 1)
        hi, lo = first + c * terms.count, first + 1 + (self.k - c) * terms.count
        return powers.take(hi).convolve(powers.take(lo)).scale(self.a)

    def companion(self, record, alpha, rng):
        return self.a * two_branch_draw(self.branches(record["eta"], alpha), rng).sum(axis=0)

    def profile(self):
        a, k = self.a, self.k
        return BernsteinProfile(
            v=lambda alpha: a * a * k * alpha * (1.0 + alpha),
            b=lambda alpha: a * (1.0 + alpha) / 3.0,
            v_prime_0=a * a * k,
            mgf_normalization=2.0,
        )

    @classmethod
    def scenario(cls, n, m, rng, params):
        k = _term_count(params.pop("k", 5))
        a = float(params.pop("a", 1.0 / k))
        truth = rng.uniform(0.2, 0.8, n)
        return truth, cls(a, k, truth.copy()), _clipped_atoms(truth, m, rng)


class CenteredBernoulli(CenteredBinomial):
    """Coordinate i equals 1 - rho_i w.p. rho_i, else -rho_i: the binomial at a = 1, k = 1,
    whose one term is the coordinate. Its records and latents are the binomial's: the count
    c of terms at 1 - rho_i (xi = -rho_i first), and the terms as "eta" of shape (1, n)."""

    family = "centered_bernoulli"
    json_keys = ("rho",)

    def __init__(self, rho):
        super().__init__(1.0, 1, rho)

    @classmethod
    def homogeneous(cls, n, rho):
        return cls(np.full(n, float(rho)))

    @classmethod
    def scenario(cls, n, m, rng, params):
        # success rates equal the truth, so observations are honest counts
        truth = rng.uniform(0.2, 0.8, n)
        return truth, cls(truth.copy()), _clipped_atoms(truth, m, rng)


def laplace_inverse_cdf(u, scale):
    """Quantile transform of the centered Laplace law with the given scale."""
    u = np.asarray(u, dtype=np.float64)
    scale = np.asarray(scale, dtype=np.float64)
    lo = np.maximum(2.0 * u, 1e-300)  # u = 0.0 has probability 0 but would log to -inf
    hi = np.maximum(2.0 * (1.0 - u), 1e-300)
    return np.where(u < 0.5, scale * np.log(lo), -scale * np.log(hi))


class Laplace(_ContinuousNoise):
    """Coordinate i is centered Laplace with scale mu_i. Coupling: zeta = 0 w.p.
    1/(1 + alpha)^2, else an independent Laplace((1 + alpha) mu_i) draw."""

    family = "laplace"
    json_keys = ("mu",)

    @staticmethod
    def raw(rng, shape):
        return rng.random(shape)

    transform = staticmethod(laplace_inverse_cdf)

    @staticmethod
    def couple(mu, alpha, rng):
        stay = rng.random(mu.shape) < 1.0 / (1.0 + alpha) ** 2
        return np.where(stay, 0.0, Laplace.draw((1.0 + alpha) * mu, rng))

    def __init__(self, mu):
        self.mu = _coordinate_array(mu, "mu", low=0.0)

    @property
    def scale(self):
        return self.mu

    def profile(self):
        mu = float(np.max(self.mu))
        return BernsteinProfile(
            v=lambda alpha: alpha * (2.0 + alpha) * mu * mu,
            b=lambda alpha: (1.0 + alpha) * mu,
            v_prime_0=2.0 * mu * mu,
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
