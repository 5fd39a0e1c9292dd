"""Core data types: signal vectors, dictionaries of candidate signals,
probability weights over atoms (normalized by the one logsumexp and softmax),
and the experiment configuration that the Monte Carlo harness and the CLI consume.
The configuration's dataclass fields are its JSON keys, in order; only the truth, the
dictionary, the prior and the noise have a JSON form of their own."""

import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .coupling import _as_count
from .noise import NoiseModel, noise_from_json, noise_to_json

SIMPLEX_ATOL = 1e-12
LOG_WEIGHT_RTOL = 1e-12


def as_signal(values, dim=None):
    """Validate and return a finite 1-D float64 vector."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("a signal must be a non-empty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("signal entries must be finite")
    if dim is not None and arr.size != dim:
        raise ValueError(f"signal has dimension {arr.size}, expected {dim}")
    return arr


class Dictionary:
    """An ordered finite set of candidate signals, one per row."""

    def __init__(self, atoms):
        arr = np.array(atoms, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("dictionary atoms must form an (m, n) array")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("dictionary needs at least one atom of dimension >= 1")
        if not np.all(np.isfinite(arr)):
            raise ValueError("dictionary atoms must be finite")
        arr.setflags(write=False)
        self.atoms = arr

    @property
    def m(self):
        return int(self.atoms.shape[0])

    @property
    def n(self):
        return int(self.atoms.shape[1])

    def __len__(self):
        return self.m

    def atom(self, j):
        return self.atoms[j]


def sup_diameter(dictionary):
    """Largest sup-norm distance between two atoms.

    Equals the largest per-coordinate range, since the max over pairs and
    the max over coordinates commute.
    """
    atoms = dictionary.atoms
    if atoms.shape[0] == 1:
        return 0.0
    return float(np.max(atoms.max(axis=0) - atoms.min(axis=0)))


def logsumexp(a):
    """log(sum(exp(a))) along the last axis of a float array, one value per row: the
    entries at a row's max leave the max-shifted sum and come back through
    log1p(s / count) + log(count) + max; a non-finite row is recomputed directly (all -inf
    gives -inf). A row of a 2-D array gives the bits its 1-D call gives."""
    a = np.asarray(a)
    top = a.max(axis=-1, keepdims=True)
    at_top = a == top
    count = at_top.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.exp(np.where(at_top, -np.inf, a) - top).sum(axis=-1)
        out = np.log1p(s / count) + np.log(count) + top[..., 0]
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.exp(a).sum(axis=-1)))
    return out[()]


def _softmax_terms(log_weights):
    """softmax's checks and the terms of its result: (e, s, norm), norm being log_weights less
    each row's logsumexp, e = exp(norm) and s each row's sum of e. The weights are e / s, so a
    caller that needs no log-weights stops here."""
    lw = np.asarray(log_weights, dtype=np.float64)
    if lw.ndim not in (1, 2) or lw.size == 0:
        raise ValueError("log_weights must form a non-empty 1-D array, or a 2-D array of rows")
    if not (lw < np.inf).all():
        raise ValueError("log_weights must be < +inf and not NaN")
    total = np.asarray(logsumexp(lw))[..., None]
    if (total == -np.inf).any():
        raise ValueError("log_weights must carry some mass")
    norm = lw - total
    e = np.exp(norm)
    return e, e.sum(axis=-1, keepdims=True), norm


def _log_softmax(e, s, norm):
    """softmax's (weights, log-weights) from its terms (`_softmax_terms`)."""
    # libm's log per row: numpy's vector log differs from it in some last bits
    log_s = np.array([math.log(v) for v in s.flat]).reshape(s.shape)
    # exp underflow leaves e == 0 with a finite log; pin those to -inf
    return e / s, np.where(e > 0.0, norm - log_s, -np.inf)


def softmax(log_weights):
    """(weights, log-weights) proportional to exp(log_weights), normalized by logsumexp and
    then renormalized linearly to kill residual rounding; each row of a 2-D array is
    normalized and checked on its own, to the bits of its 1-D call."""
    return _log_softmax(*_softmax_terms(log_weights))


def _check_beta(beta):
    beta = float(beta)
    if math.isnan(beta) or beta <= 0.0:
        raise ValueError("beta must be positive")
    return beta


class WeightVector:
    """A probability vector over dictionary atoms.

    Stores both linear weights and log-weights (log 0 = -inf) so that
    downstream exponential-weight computations can stay in log space.
    """

    def __init__(self, weights, log_weights=None):
        w = np.array(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must form a non-empty 1-D array")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > SIMPLEX_ATOL:
            raise ValueError("weights must sum to 1")
        if log_weights is None:
            with np.errstate(divide="ignore"):
                lw = np.log(w)
        else:
            lw = np.array(log_weights, dtype=np.float64)
            if lw.shape != w.shape:
                raise ValueError("log_weights must match the weight shape")
            pos = w > 0.0
            if np.any(lw[~pos] != -np.inf):
                raise ValueError("log_weights must be -inf exactly where the weight is 0")
            if np.any(np.abs(np.exp(lw[pos]) - w[pos]) > LOG_WEIGHT_RTOL * w[pos]):
                raise ValueError("log_weights are inconsistent with weights")
        w.setflags(write=False)
        lw.setflags(write=False)
        self.weights = w
        self.log_weights = lw

    @classmethod
    def uniform(cls, m):
        return cls(np.full(m, 1.0 / m))

    @classmethod
    def dirac(cls, m, j):
        w = np.zeros(m)
        w[j] = 1.0
        return cls(w)

    @classmethod
    def from_log_weights(cls, log_weights):
        """The probability vector proportional to exp(log_weights); see `softmax`."""
        return cls(*softmax(log_weights))

    def __len__(self):
        return int(self.weights.size)

    @property
    def support(self):
        return self.weights > 0.0


def _as_weight_array(w, m=None):
    """Accept a WeightVector (or anything with .weights) or a raw array."""
    arr = getattr(w, "weights", w)
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("weights must form a 1-D array")
    if m is not None and arr.size != m:
        raise ValueError(f"weights have length {arr.size}, expected {m}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("weights must be finite")
    if np.any(arr < 0.0) or abs(float(arr.sum()) - 1.0) > SIMPLEX_ATOL:
        raise ValueError("weights must be a probability vector")
    return arr


def _as_beta(value):
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            raise ValueError("beta must be positive") from None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError("beta must be positive")
    return _check_beta(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one denoising experiment needs, serializable to JSON."""

    truth: np.ndarray
    dictionary: Dictionary
    prior: WeightVector
    noise: NoiseModel
    beta: float
    replicates: int
    seed: int
    prior_samples: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "truth", as_signal(self.truth))
        object.__setattr__(self, "beta", _as_beta(self.beta))
        object.__setattr__(self, "replicates", _as_count(self.replicates, "replicates"))
        seed = self.seed
        integral = isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
        if not (integral and 0 <= seed < 2**64):
            raise ValueError("seed must be an integer in [0, 2**64)")
        object.__setattr__(self, "seed", int(seed))
        if self.prior_samples is not None:
            object.__setattr__(
                self, "prior_samples", _as_count(self.prior_samples, "prior_samples")
            )
        if not isinstance(self.prior, WeightVector):  # its checks run here, once
            object.__setattr__(self, "prior", WeightVector(self.prior))
        if self.dictionary.n != self.truth.size:
            raise ValueError("dictionary atoms must share the dimension of truth")
        if self.noise.dim != self.truth.size:
            raise ValueError("noise dimension must match truth")
        if len(self.prior) != self.dictionary.m:
            raise ValueError("prior length must match the number of atoms")

    def to_json(self):
        doc = {field.name: getattr(self, field.name) for field in fields(self)}
        doc.update(
            truth=self.truth.tolist(),
            dictionary=self.dictionary.atoms.tolist(),
            prior=self.prior.weights.tolist(),
            noise=noise_to_json(self.noise),
        )
        return doc

    @classmethod
    def from_json(cls, doc):
        if not isinstance(doc, dict):
            raise ValueError("config must be a JSON object")
        for field in fields(cls):
            if field.default is MISSING and field.name not in doc:
                raise ValueError(f"missing key: {field.name}")
        args = {field.name: doc[field.name] for field in fields(cls) if field.name in doc}
        for key, decode in (("truth", as_signal), ("dictionary", Dictionary), ("prior", WeightVector)):
            try:
                args[key] = decode(args[key])
            except ValueError as exc:
                raise ValueError(f"{key} is invalid: {exc}") from None
        args["noise"] = noise_from_json(args["noise"])  # its messages name their keys
        return cls(**args)
