"""Finite laws on the reals and the Laplace quantile transform.

These primitives know no noise family; `coupling`, `bernstein` and `noise`
all build on them, and `noise` re-exports them.
"""

import numpy as np

LAW_ATOL = 1e-12
MERGE_ATOL = 1e-9


class DiscreteLaw:
    """A finite law on the reals, stored as sorted distinct atoms."""

    def __init__(self, values, probs):
        values = np.asarray(values, dtype=np.float64)
        probs = np.asarray(probs, dtype=np.float64)
        if values.ndim != 1 or values.shape != probs.shape or values.size == 0:
            raise ValueError("a discrete law needs matching non-empty value and probability arrays")
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(probs))):
            raise ValueError("law atoms must be finite")
        if np.any(probs < 0.0):
            raise ValueError("atom probabilities must be nonnegative")
        keep = probs > 0.0
        values, probs = values[keep], probs[keep]
        if values.size == 0:
            raise ValueError("a discrete law needs at least one atom of positive mass")
        order = np.argsort(values)
        values, probs = values[order], probs[order]
        if np.any(np.diff(values) <= 0.0):
            raise ValueError("atom values must be distinct")
        if abs(float(probs.sum()) - 1.0) > LAW_ATOL:
            raise ValueError("atom probabilities must sum to 1")
        self.values = values
        self.probs = probs
        self.values.setflags(write=False)
        self.probs.setflags(write=False)

    @classmethod
    def from_atoms(cls, values, probs, merge_atol=MERGE_ATOL):
        """Build a law from possibly repeated atoms, merging values closer
        than ``merge_atol`` (mass-weighted mean) and dropping zero mass."""
        values = np.asarray(values, dtype=np.float64).ravel()
        probs = np.asarray(probs, dtype=np.float64).ravel()
        keep = probs > 0.0
        values, probs = values[keep], probs[keep]
        order = np.argsort(values)
        values, probs = values[order], probs[order]
        # new cluster wherever the gap to the previous atom exceeds the tolerance
        cluster = np.zeros(values.size, dtype=np.int64)
        if values.size > 1:
            cluster[1:] = np.cumsum(np.diff(values) > merge_atol)
        k = int(cluster[-1]) + 1 if values.size else 0
        mass = np.bincount(cluster, weights=probs, minlength=k)
        weighted = probs * values
        merged = np.bincount(cluster, weights=weighted, minlength=k) / mass
        # p * v underflows for subnormal p or v, and the mean could then land on
        # another cluster's value; such a cluster keeps its lowest value instead
        lost = (np.abs(weighted) < np.finfo(np.float64).tiny) & (values != 0.0)
        if lost.any():
            lowest = values[np.searchsorted(cluster, np.arange(k))]
            merged[cluster[lost]] = lowest[cluster[lost]]
        return cls(merged, mass)

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

    def convolve(self, other, merge_atol=MERGE_ATOL):
        """Law of X + Y for independent X ~ self, Y ~ other."""
        v = np.add.outer(self.values, other.values).ravel()
        p = np.multiply.outer(self.probs, other.probs).ravel()
        return DiscreteLaw.from_atoms(v, p, merge_atol=merge_atol)

    def convolution_powers(self, k):
        """Laws of the sums of 0, 1, ..., k independent copies of X."""
        powers = [DiscreteLaw([0.0], [1.0])]
        for _ in range(k):
            powers.append(powers[-1].convolve(self))
        return powers


def max_atom_probability_error(law_a, law_b, value_atol=MERGE_ATOL):
    """Largest mass discrepancy between two discrete laws after aligning
    atoms whose values agree within ``value_atol``."""
    values = np.concatenate([law_a.values, law_b.values])
    mass_a = np.concatenate([law_a.probs, np.zeros(len(law_b))])
    mass_b = np.concatenate([np.zeros(len(law_a)), law_b.probs])
    order = np.argsort(values)
    values, mass_a, mass_b = values[order], mass_a[order], mass_b[order]
    cluster = np.zeros(values.size, dtype=np.int64)
    if values.size > 1:
        cluster[1:] = np.cumsum(np.diff(values) > value_atol)
    k = int(cluster[-1]) + 1
    pa = np.bincount(cluster, weights=mass_a, minlength=k)
    pb = np.bincount(cluster, weights=mass_b, minlength=k)
    return float(np.max(np.abs(pa - pb)))


def laplace_inverse_cdf(u, scale):
    """Quantile transform of the centered Laplace law with the given scale."""
    u = np.asarray(u, dtype=np.float64)
    scale = np.asarray(scale, dtype=np.float64)
    lo = np.maximum(2.0 * u, 1e-300)  # u = 0.0 has probability 0 but would log to -inf
    hi = np.maximum(2.0 * (1.0 - u), 1e-300)
    return np.where(u < 0.5, scale * np.log(lo), -scale * np.log(hi))
