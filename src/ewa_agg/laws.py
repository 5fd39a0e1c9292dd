"""Finite laws on the reals.

These primitives know no noise family. `noise` builds every exact law of a
discrete family on them (the marginals of xi, the coupled sums and the
conditional laws of zeta, each a batch of rows from the family's one
enumeration of records) and re-exports them; `bernstein` takes those rows,
and `coupling` compares them.

A batch of laws is held as rows (`LawRows`): flat `values` and `probs`
arrays sorted by row and then by value, row r taking the atoms from
`offsets[r]` to `offsets[r + 1]`. Only `_cluster` decides when two values
are the same atom: it sorts a batch's atoms by (row, value) with a stable
`np.lexsort` and starts a new atom wherever the row changes or the gap to
the previous value exceeds the row's tolerance, MERGE_ATOL · min(1, span)
with span the row's value span. So a law on a support narrower than 1
merges and aligns at its own scale, and no law merges more than under
MERGE_ATOL itself. `LawRows.from_atoms` is the one merge (`scale` runs it
at a tolerance of 0), `LawRows.convolve` a per-row outer sum and product
fed to it, and `LawRows.max_atom_probability_error` a per-row alignment
of two batches. `DiscreteLaw` is the one-law view: its `from_atoms`,
`convolve` and `scale`, and `max_atom_probability_error` of two laws, are
the one-row case of these kernels.
"""

import numpy as np

LAW_ATOL = 1e-12
MERGE_ATOL = 1e-9


def _cluster(row, values, atol, rows):
    """Sort atoms by row and then by value, stably, and group them: a new cluster
    wherever the row changes or the gap to the previous value exceeds
    atol · min(1, span) of the row. Every one of the `rows` rows holds an atom.
    Returns the sorting order, the sorted values, each sorted value's cluster
    index, a mask of the sorted values that start a cluster, and the cluster
    offsets of the rows."""
    order = np.lexsort((values, row))
    row, values = row[order], values[order]
    offsets = np.searchsorted(row, np.arange(rows + 1))
    starts = np.ones(values.size, dtype=bool)
    # a gap too wide for a float is wider than any tolerance
    with np.errstate(over="ignore"):
        span = values[offsets[1:] - 1] - values[offsets[:-1]]
        tol = atol * np.minimum(1.0, span)
        starts[1:] = (row[1:] != row[:-1]) | (np.diff(values) > tol[row[1:]])
    bounds = np.searchsorted(row[starts], np.arange(rows + 1))
    return order, values, np.cumsum(starts) - 1, starts, bounds


def _positive_atoms(row, values, probs, rows):
    """The atoms of positive mass, once all atoms are finite and each row has one."""
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(probs))):
        raise ValueError("law atoms must be finite")
    keep = probs > 0.0
    if np.any(np.bincount(row[keep], minlength=rows) == 0):
        raise ValueError("a discrete law needs at least one atom of positive mass")
    return row[keep], values[keep], probs[keep]


def _units(count):
    """`count` rows of the unit law, all mass at 0."""
    return LawRows(np.arange(count + 1), np.zeros(count), np.ones(count))


class LawRows:
    """A batch of finite laws held as rows, as the module docstring says: read-only
    `values` and `probs`, row r at offsets[r]:offsets[r + 1], each row a law of
    sorted distinct atoms of positive mass."""

    def __init__(self, offsets, values, probs):
        values.setflags(write=False)
        probs.setflags(write=False)
        self.offsets, self.values, self.probs = offsets, values, probs

    def _check(self):
        """Raise unless each row's atoms are distinct and sum to 1."""
        same_row = np.ones(self.values.size - 1, dtype=bool)
        same_row[self.offsets[1:-1] - 1] = False
        if np.any((np.diff(self.values) <= 0.0) & same_row):
            raise ValueError("atom values must be distinct")
        if np.any(np.abs(np.add.reduceat(self.probs, self.offsets[:-1]) - 1.0) > LAW_ATOL):
            raise ValueError("atom probabilities must sum to 1")
        return self

    @classmethod
    def from_atoms(cls, row, values, probs, rows, merge_atol=MERGE_ATOL):
        """Build `rows` laws from possibly repeated atoms, atom j going to row row[j]:
        per row, values closer than its tolerance merge (mass-weighted mean, tied
        masses summed in input order) and zero mass is dropped. A merged mean can
        still round onto its neighbour at ``merge_atol`` = 0, so distinctness is
        checked."""
        values = np.asarray(values, dtype=np.float64).ravel()
        probs = np.asarray(probs, dtype=np.float64).ravel()
        row, values, probs = _positive_atoms(np.asarray(row, dtype=np.intp), values, probs, rows)
        order, values, cluster, starts, offsets = _cluster(row, values, merge_atol, rows)
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
            lowest = values[starts]
            merged[cluster[lost]] = lowest[cluster[lost]]
        return cls(offsets, merged, mass)._check()

    @property
    def count(self):
        return self.offsets.size - 1

    @property
    def row(self):
        """Each atom's row."""
        return np.repeat(np.arange(self.count), np.diff(self.offsets))

    def variances(self):
        """Each row's variance: the sum of p (x - mean)^2 over its own atoms, grouped as in
        `DiscreteLaw.variance`: (p (x - mean)) (x - mean) rounds otherwise at a subnormal p."""
        starts = self.offsets[:-1]
        means = np.add.reduceat(self.probs * self.values, starts)
        deviations = self.values - np.repeat(means, np.diff(self.offsets))
        return np.add.reduceat(self.probs * (deviations * deviations), starts)

    def law(self, r):
        """Row r as a `DiscreteLaw`, sharing its arrays."""
        law = object.__new__(DiscreteLaw)
        span = slice(self.offsets[r], self.offsets[r + 1])
        law.values, law.probs = self.values[span], self.probs[span]
        return law

    def laws(self):
        return [self.law(r) for r in range(self.count)]

    def take(self, rows):
        """The rows with the given indices, in that order."""
        sizes = np.diff(self.offsets)[rows]
        offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.intp)
        index = np.repeat(self.offsets[rows] - offsets[:-1], sizes) + np.arange(offsets[-1])
        return LawRows(offsets, self.values[index], self.probs[index])

    @staticmethod
    def stack(laws):
        """The given `DiscreteLaw`s as rows, in order."""
        return LawRows.concat([law._rows() for law in laws])

    @staticmethod
    def concat(batches):
        """The rows of each batch in turn."""
        ends = np.cumsum([0] + [batch.offsets[-1] for batch in batches[:-1]])
        offsets = [batches[0].offsets[:1]] + [b.offsets[1:] + e for b, e in zip(batches, ends)]
        values = np.concatenate([batch.values for batch in batches])
        probs = np.concatenate([batch.probs for batch in batches])
        return LawRows(np.concatenate(offsets), values, probs)

    def scale(self, c):
        """Row r is the law of c * X for X ~ row r."""
        c = float(c)
        if c == 0.0:
            return _units(self.count)
        return LawRows.from_atoms(self.row, c * self.values, self.probs, self.count, merge_atol=0.0)

    def convolve(self, other):
        """Row r is the law of X + Y for independent X ~ row r and Y ~ other's row r;
        each row's atoms enter the merge in the order of np.add.outer."""
        n, m = np.diff(self.offsets), np.diff(other.offsets)
        sizes = n * m
        row = np.repeat(np.arange(sizes.size), sizes)
        within = np.arange(row.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        i = self.offsets[row] + within // m[row]
        j = other.offsets[row] + within % m[row]
        values = self.values[i] + other.values[j]
        return LawRows.from_atoms(row, values, self.probs[i] * other.probs[j], sizes.size)

    def convolution_powers(self, k):
        """Rows of the sums of 0, 1, ..., k independent copies of each row's law; the
        sum of one copy is the row itself."""
        powers = [_units(self.count), self]
        for _ in range(k - 1):
            powers.append(powers[-1].convolve(self))
        return powers[: k + 1]

    def max_atom_probability_error(self, other):
        """Per row, the largest mass discrepancy between this row's law and other's,
        after aligning atoms under the row's tolerance over both laws' values."""
        row = np.concatenate([self.row, other.row])
        values = np.concatenate([self.values, other.values])
        mass_a = np.concatenate([self.probs, np.zeros(other.values.size)])
        mass_b = np.concatenate([np.zeros(self.values.size), other.probs])
        order, _, cluster, _, bounds = _cluster(row, values, MERGE_ATOL, self.count)
        k = int(cluster[-1]) + 1
        pa = np.bincount(cluster, weights=mass_a[order], minlength=k)
        pb = np.bincount(cluster, weights=mass_b[order], minlength=k)
        return np.maximum.reduceat(np.abs(pa - pb), bounds[:-1])


class DiscreteLaw:
    """A finite law on the reals, stored as sorted distinct atoms: the one-row
    view of `LawRows`."""

    def __init__(self, values, probs):
        values = np.asarray(values, dtype=np.float64)
        probs = np.asarray(probs, dtype=np.float64)
        if values.ndim != 1 or values.shape != probs.shape or values.size == 0:
            raise ValueError("a discrete law needs matching non-empty value and probability arrays")
        if np.any(probs < 0.0):
            raise ValueError("atom probabilities must be nonnegative")
        _, values, probs = _positive_atoms(np.zeros(values.size, np.intp), values, probs, 1)
        order = np.argsort(values)
        rows = LawRows(np.array([0, values.size]), values[order], probs[order])._check()
        self.values, self.probs = rows.values, rows.probs

    @classmethod
    def from_atoms(cls, values, probs, merge_atol=MERGE_ATOL):
        """Build a law from possibly repeated atoms, merging values closer than
        ``merge_atol`` · min(1, span) (mass-weighted mean) and dropping zero mass:
        the one-row `LawRows.from_atoms`."""
        values = np.asarray(values, dtype=np.float64).ravel()
        rows = LawRows.from_atoms(np.zeros(values.size, np.intp), values, probs, 1, merge_atol)
        return rows.law(0)

    def _rows(self):
        return LawRows(np.array([0, self.values.size]), self.values, self.probs)

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
        return self._rows().scale(c).law(0)

    def convolve(self, other):
        """Law of X + Y for independent X ~ self, Y ~ other."""
        return self._rows().convolve(other._rows()).law(0)

    def convolution_powers(self, k):
        """Laws of the sums of 0, 1, ..., k independent copies of X; the sum of one
        copy is X itself."""
        powers = self._rows().convolution_powers(k)
        return [self if j == 1 else rows.law(0) for j, rows in enumerate(powers)]


def max_atom_probability_error(law_a, law_b):
    """Largest mass discrepancy between two discrete laws after aligning atoms
    whose values agree within MERGE_ATOL · min(1, span) of their joint support."""
    return float(law_a._rows().max_atom_probability_error(law_b._rows())[0])
