"""A reference for a replicate's moments: the one-row formulas of the aggregate, its
posterior variance and its squared error, each squared norm taken by the package's one
squared-distance reduction (`squared_distance`). The rows kernel
`ewa._posterior_moments` must equal them byte for byte, NaN and the sign of zero
included."""

import numpy as np

from ewa_agg.ewa import squared_distance


def one_row(w, atoms, sq_norms, truth):
    """(squared error, posterior variance) of one row of weights w against its (m, n) atoms
    and their (m,) squared norms: the mean is w @ atoms, the error ||mean - truth||^2, the
    variance w . sq_norms - ||mean||^2 clamped at 0 by Python's max, an atom of weight 0
    adding 0 to w . sq_norms even where its squared norm overflows."""
    mean = w @ atoms
    sq_norms = np.where(w == 0.0, 0.0, sq_norms)
    norm = squared_distance(mean, np.zeros_like(mean))
    return squared_distance(mean, truth), max(float(w @ sq_norms) - norm, 0.0)
