"""Denoise a piecewise-constant signal by exponential-weight aggregation.

A dictionary of candidate reconstructions (a few good, most mediocre)
competes to explain one noisy observation. The aggregate tracks the best
candidate up to a log-prior penalty, and the certified temperature makes
that guarantee quantitative: risk <= min_j {distance + beta log(1/pi_j)}.
"""

import numpy as np

from ewa_agg import (
    Dictionary,
    Gaussian,
    WeightVector,
    beta_threshold,
    ewa_estimate,
    oracle_bound_finite,
    oracle_bound_gibbs,
    squared_distance,
)


def staircase(n, levels):
    parts = np.array_split(np.arange(n), len(levels))
    out = np.zeros(n)
    for idx, level in zip(parts, levels):
        out[idx] = level
    return out


def main():
    rng = np.random.default_rng(7)
    n = 120
    truth = staircase(n, [0.0, 1.5, -0.5, 0.8])

    # candidate 0 is the truth itself; the rest are increasingly off
    atoms = [truth]
    for shift in (0.1, 0.25, 0.5, 1.0, 2.0):
        atoms.append(truth + rng.normal(0.0, shift, n))
    atoms.append(np.zeros(n))  # the lazy baseline
    dictionary = Dictionary(np.array(atoms))
    prior = WeightVector.uniform(len(dictionary))

    noise = Gaussian.homogeneous(n, 0.6)
    beta = beta_threshold(noise.profile(), 0.0)
    y = truth + noise.sample(rng)

    estimate, posterior = ewa_estimate(y, dictionary, prior, beta)

    print(f"observation noise: gaussian sigma=0.6, beta = 4 sigma^2 = {beta:.3f}")
    print(f"raw observation distance:   {squared_distance(y, truth):8.3f}")
    print(f"aggregate distance:         {squared_distance(estimate, truth):8.3f}")
    best = min(squared_distance(a, truth) for a in dictionary.atoms)
    print(f"best single atom:           {best:8.3f}")
    print()
    print("posterior mass by atom:")
    for j, w in enumerate(posterior.weights):
        tag = "truth" if j == 0 else ("zeros" if j == len(dictionary) - 1 else f"jitter {j}")
        print(f"  atom {j} ({tag:>8s}): {w:.4f}")
    print()
    finite = oracle_bound_finite(dictionary, truth, prior, beta)
    gibbs = oracle_bound_gibbs(dictionary, truth, prior, beta)
    print(f"oracle bound (best atom + beta log m): {finite:8.3f}")
    print(f"oracle bound (Gibbs, always tighter):  {gibbs:8.3f}")


if __name__ == "__main__":
    main()
