"""Finite laws on the reals and the Laplace quantile transform.

These primitives know no noise family; `coupling`, `bernstein` and `noise`
all build on them, and `noise` re-exports them.

Only `_cluster` decides when two values are the same atom, under MERGE_ATOL,
the one atom tolerance: `DiscreteLaw.from_atoms` merges by it (`scale` at 0)
and `max_atom_probability_error` aligns two laws by it.
"""

import numpy as np

LAW_ATOL = 1e-12
MERGE_ATOL = 1e-9


def _cluster(values, atol):
    """Sort values and group them into atoms: a new cluster wherever the gap
    to the previous atom exceeds atol. Returns the sorting order, the sorted
    values and each sorted value's cluster index."""
    order = np.argsort(values, kind="stable")
    values = values[order]
    cluster = np.zeros(values.size, dtype=np.int64)
    cluster[1:] = np.cumsum(np.diff(values) > atol)
    return order, values, cluster


def _positive_atoms(values, probs):
    """The atoms of positive mass, once all atoms are finite and one has mass."""
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(probs))):
        raise ValueError("law atoms must be finite")
    keep = probs > 0.0
    if not keep.any():
        raise ValueError("a discrete law needs at least one atom of positive mass")
    return values[keep], probs[keep]


class DiscreteLaw:
    """A finite law on the reals, stored as sorted distinct atoms."""

    def __init__(self, values, probs):
        values = np.asarray(values, dtype=np.float64)
        probs = np.asarray(probs, dtype=np.float64)
        if values.ndim != 1 or values.shape != probs.shape or values.size == 0:
            raise ValueError("a discrete law needs matching non-empty value and probability arrays")
        if np.any(probs < 0.0):
            raise ValueError("atom probabilities must be nonnegative")
        values, probs = _positive_atoms(values, probs)
        order = np.argsort(values)
        self._freeze(values[order], probs[order])

    def _freeze(self, values, probs):
        """Store sorted atoms of positive mass, once they are distinct and sum to 1."""
        if np.any(np.diff(values) <= 0.0):
            raise ValueError("atom values must be distinct")
        if abs(float(probs.sum()) - 1.0) > LAW_ATOL:
            raise ValueError("atom probabilities must sum to 1")
        values.setflags(write=False)
        probs.setflags(write=False)
        self.values, self.probs = values, probs

    @classmethod
    def from_atoms(cls, values, probs, merge_atol=MERGE_ATOL):
        """Build a law from possibly repeated atoms, merging values closer
        than ``merge_atol`` (mass-weighted mean) and dropping zero mass. The merge
        sorts, so `__init__` is skipped; a merged mean can still round onto its
        neighbour at ``merge_atol`` = 0, so distinctness is checked."""
        values = np.asarray(values, dtype=np.float64).ravel()
        probs = np.asarray(probs, dtype=np.float64).ravel()
        values, probs = _positive_atoms(values, probs)
        order, values, cluster = _cluster(values, merge_atol)
        probs = probs[order]
        k = int(cluster[-1]) + 1
        mass = np.bincount(cluster, weights=probs, minlength=k)
        weighted = probs * values
        merged = np.bincount(cluster, weights=weighted, minlength=k) / mass
        # (p * v) / p can miss v by an ulp, so a lone atom keeps its own value
        lone = np.bincount(cluster, minlength=k) == 1
        merged[lone] = values[lone[cluster]]
        # p * v underflows for subnormal p or v, and the mean could then land on
        # another cluster's value; such a cluster keeps its lowest value instead
        lost = (np.abs(weighted) < np.finfo(np.float64).tiny) & (values != 0.0)
        if lost.any():
            lowest = values[np.searchsorted(cluster, np.arange(k))]
            merged[cluster[lost]] = lowest[cluster[lost]]
        law = object.__new__(cls)
        law._freeze(merged, mass)
        return law

    def __len__(self):
        return int(self.values.size)

    def atoms(self):
        return list(zip(self.values.tolist(), self.probs.tolist()))

    def mean(self):
        return float(self.probs @ self.values)

    def variance(self):
        mu = self.probs @ self.values
        return float(self.probs @ (self.values - mu) ** 2)

    def moment(self, order):
        return float(self.probs @ self.values**order)

    def mgf(self, t):
        """E[exp(t X)] for scalar or array t."""
        t = np.asarray(t, dtype=np.float64)
        out = np.exp(np.multiply.outer(t, self.values)) @ self.probs
        return float(out) if out.ndim == 0 else out

    def scale(self, c):
        """Law of c * X."""
        c = float(c)
        if c == 0.0:
            return DiscreteLaw([0.0], [1.0])
        return DiscreteLaw.from_atoms(c * self.values, self.probs, merge_atol=0.0)

    def convolve(self, other):
        """Law of X + Y for independent X ~ self, Y ~ other."""
        v = np.add.outer(self.values, other.values).ravel()
        p = np.multiply.outer(self.probs, other.probs).ravel()
        return DiscreteLaw.from_atoms(v, p)

    def convolution_powers(self, k):
        """Laws of the sums of 0, 1, ..., k independent copies of X; the sum of one
        copy is X itself."""
        powers = [DiscreteLaw([0.0], [1.0]), self]
        for _ in range(k - 1):
            powers.append(powers[-1].convolve(self))
        return powers[: k + 1]


def max_atom_probability_error(law_a, law_b):
    """Largest mass discrepancy between two discrete laws after aligning
    atoms whose values agree within MERGE_ATOL."""
    values = np.concatenate([law_a.values, law_b.values])
    mass_a = np.concatenate([law_a.probs, np.zeros(len(law_b))])
    mass_b = np.concatenate([np.zeros(len(law_a)), law_b.probs])
    order, _, cluster = _cluster(values, MERGE_ATOL)
    k = int(cluster[-1]) + 1
    pa = np.bincount(cluster, weights=mass_a[order], minlength=k)
    pb = np.bincount(cluster, weights=mass_b[order], minlength=k)
    return float(np.max(np.abs(pa - pb)))


def laplace_inverse_cdf(u, scale):
    """Quantile transform of the centered Laplace law with the given scale."""
    u = np.asarray(u, dtype=np.float64)
    scale = np.asarray(scale, dtype=np.float64)
    lo = np.maximum(2.0 * u, 1e-300)  # u = 0.0 has probability 0 but would log to -inf
    hi = np.maximum(2.0 * (1.0 - u), 1e-300)
    return np.where(u < 0.5, scale * np.log(lo), -scale * np.log(hi))
