"""Where the posterior sits on the simplex, and why nothing beats it.

The exponential-weight posterior is the exact minimizer of

    sum_j w_j ||y - theta_j||^2 + beta * KL(w || prior)

over probability vectors w. This script sweeps a 3-atom simplex on a
grid, confirms the grid minimum hugs the posterior, and then throws
random perturbations at larger instances.
"""

import numpy as np

from ewa_agg import (
    Dictionary,
    WeightVector,
    aggregate,
    dv_minimality_test,
    gibbs_objective,
    kl_divergence,
    posterior_weights,
)


def simplex_grid(steps):
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            yield np.array([i, j, steps - i - j], dtype=float) / steps


def main():
    rng = np.random.default_rng(42)
    dictionary = Dictionary([[0.0, 0.0], [1.0, 0.0], [0.4, 0.9]])
    prior = WeightVector([0.5, 0.3, 0.2])
    y = np.array([0.45, 0.35])
    beta = 1.2

    post = posterior_weights(y, dictionary, prior, beta)
    base = gibbs_objective(post.weights, y, dictionary, prior, beta)

    grid_best, grid_arg = np.inf, None
    for w in simplex_grid(60):
        val = gibbs_objective(w, y, dictionary, prior, beta)
        if val < grid_best:
            grid_best, grid_arg = val, w

    print(f"posterior weights:    {np.array2string(post.weights, precision=4)}")
    print(f"best grid point:      {np.array2string(grid_arg, precision=4)}")
    print(f"objective at posterior: {base:.6f}")
    print(f"objective at grid best: {grid_best:.6f}  (>= posterior, gap {grid_best - base:.2e})")
    print(f"aggregate estimate:   {np.array2string(aggregate(dictionary, post), precision=4)}")
    print(f"KL(posterior, prior): {kl_divergence(post.weights, prior):.4f}")
    print()

    # random perturbations on random instances; worst violation should be <= 1e-9
    worst = -np.inf
    for _ in range(25):
        n, m = int(rng.integers(2, 11)), int(rng.integers(2, 9))
        d = Dictionary(rng.normal(0.0, 1.0, (m, n)))
        raw = rng.uniform(0.1, 1.0, m)
        p = WeightVector(raw / raw.sum())
        yy = rng.normal(0.0, 1.0, n)
        report = dv_minimality_test(yy, d, p, float(rng.uniform(0.5, 4.0)), 80, rng)
        worst = max(worst, report.worst_violation)
        assert report.verdict
    print(f"25 random instances x 80 perturbations: worst violation {worst:.2e}")


if __name__ == "__main__":
    main()
