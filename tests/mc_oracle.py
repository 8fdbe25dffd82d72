"""The whole-array Monte Carlo concentration checks that the one-pass ones in
``ridgepursuit.risk`` replaced, kept as a test oracle.

Both functions below are the earlier implementations unchanged: each draws
the whole trials * n x d design, and its independent copy or the noise, in
one call from one generator, evaluates every class function on it at once
and reduces the (trials, n) arrays trial by trial.  The one-pass checks draw
the design from a twin of the generator, block by block, while the generator
itself, jumped or drawn past the design, draws the second sample.  They must
return the same (mean, se) bit for bit and leave the generator in the same
state, whatever its bit generator.
"""

import math

import numpy as np

from ridgepursuit.targets import _draw_design


def mc_symmetrization_check(spec, gamma, n, trials, design="uniform", d=1, rng=None):
    if gamma <= 0:
        raise ValueError(f"need gamma > 0, got {gamma}")
    if trials < 2:
        raise ValueError(f"need trials >= 2 for a standard error, got {trials}")
    rng = rng if rng is not None else np.random.default_rng()
    X = _draw_design(trials * n, d, rng, design)
    Xp = _draw_design(trials * n, d, rng, design)
    best = np.full(trials, -math.inf)
    for g, L in zip(spec.functions, spec.complexities):
        gsq = np.asarray(g(X), dtype=float).reshape(trials, n) ** 2
        gsq_p = np.asarray(g(Xp), dtype=float).reshape(trials, n) ** 2
        stat = (
            gsq_p.mean(axis=1)
            - gsq.mean(axis=1)
            - gamma * L / n
            - ((gsq - gsq_p) ** 2).mean(axis=1) / (2.0 * gamma)
        )
        np.maximum(best, stat, out=best)
    return float(best.mean()), float(best.std(ddof=1) / math.sqrt(trials))


def mc_noise_check(spec, A, n, trials, noise, design="uniform", d=1, rng=None):
    if A <= 0:
        raise ValueError(f"need A > 0, got {A}")
    if trials < 2:
        raise ValueError(f"need trials >= 2 for a standard error, got {trials}")
    rng = rng if rng is not None else np.random.default_rng()
    gamma = A * noise.variance / 2.0 + spec.sup_bound * noise.bernstein_eta
    X = _draw_design(trials * n, d, rng, design)
    eps = noise.draw(trials * n, rng).reshape(trials, n)
    best = np.full(trials, -math.inf)
    for g, L in zip(spec.functions, spec.complexities):
        G = np.asarray(g(X), dtype=float).reshape(trials, n)
        stat = (eps * G).mean(axis=1) - gamma * L / n - (G * G).mean(axis=1) / A
        np.maximum(best, stat, out=best)
    return float(best.mean()), float(best.std(ddof=1) / math.sqrt(trials))
