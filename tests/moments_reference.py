"""A reference for a replicate's moments: the one-row formulas of the aggregate, its
posterior variance and its squared error as they were written before a chunk's rows
went through `ewa._posterior_moments` together. The rows kernel must equal them
byte for byte, NaN and the sign of zero included."""

from ewa_agg.model import squared_distance


def one_row(w, atoms, sq_norms, truth):
    """(posterior variance, squared error) of one row of weights w against its (m, n) atoms
    and their (m,) squared norms: the mean is w @ atoms, the variance
    w . sq_norms - ||mean||^2 clamped at 0 by Python's max, the error ||mean - truth||^2."""
    mean = w @ atoms
    return max(float(w @ sq_norms) - float(mean @ mean), 0.0), squared_distance(mean, truth)
