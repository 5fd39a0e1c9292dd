"""Moment bounds behind the couplings, and the temperatures they certify.

Each family's zeta admits E[exp(t*zeta) | record] <= exp(v t^2 / (c (1 - b|t|))).
The profile (v, b) shrinks as alpha -> 0, and its derivatives at zero set
the certified temperature beta >= 2 v'(0) + 2 b(0) D0.
"""

import numpy as np

from ewa_agg import (
    BoundedBinaryMixture,
    CenteredBernoulli,
    CenteredBinomial,
    Gaussian,
    Laplace,
    beta_threshold,
    check_noise_mgf,
    variance_penalty_coefficient,
)

MIXING = [((0.6, 0.6), 0.4), ((0.35, 0.2), 0.35), ((0.1, 0.45), 0.25)]


def main():
    rng = np.random.default_rng(23)
    models = [
        CenteredBernoulli([0.2, 0.5, 0.8]),
        BoundedBinaryMixture.homogeneous(2, 0.6, 0.6, MIXING),
        CenteredBinomial(0.25, 4, [0.4, 0.6]),
        Gaussian([1.0]),
        Laplace([0.8]),
    ]

    print(f"{'family':<24} {'alpha':>5} {'v(alpha)':>10} {'b(alpha)':>10} {'worst mgf ratio':>16}")
    for model in models:
        p = model.profile()
        for alpha in (0.1, 0.5, 1.0):
            r = check_noise_mgf(model, alpha, sample_size=200_000, rng=rng)
            print(f"{model.family:<24} {alpha:>5.2f} {p.v(alpha):>10.4f} "
                  f"{p.b(alpha):>10.4f} {r.max_ratio:>16.6f}")
    print()

    d0 = 1.0  # sup-norm diameter of the dictionary
    print(f"certified temperatures at D0 = {d0}:")
    for model in models:
        p = model.profile()
        beta = beta_threshold(p, d0)
        at = variance_penalty_coefficient(beta, p, d0)
        below = variance_penalty_coefficient(0.75 * beta, p, d0)
        print(f"  {model.family:<24} beta* = {beta:7.4f}   "
              f"penalty coeff at beta*: {at:+.2e}, at 0.75 beta*: {below:+.4f}")


if __name__ == "__main__":
    main()
