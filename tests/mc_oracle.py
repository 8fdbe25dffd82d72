"""Whole-array Monte Carlo concentration checks, kept as a test oracle for
the one-pass ones in ``ridgepursuit.risk``.

Each function below takes two 64-bit words from the generator, seeds a
SeedSequence with them and builds a generator of the same bit generator
class from each of its two children.  It draws the whole trials * n x d
design from the first, and the whole independent copy or the noise from
the second, evaluates every class function on it at once and reduces the
(trials, n) arrays trial by trial.  The one-pass checks draw the same
arrays block by block, so they must return the same (mean, se) bit for
bit and leave the generator in the same state, whatever its bit generator.
"""

import math

import numpy as np

from ridgepursuit.targets import _draw_design


def split(rng):
    """The two child generators the checks draw from."""
    seeds = np.random.SeedSequence(rng.bit_generator.random_raw(2)).spawn(2)
    return [np.random.Generator(type(rng.bit_generator)(s)) for s in seeds]


def mc_symmetrization_check(spec, gamma, n, trials, design="uniform", d=1, rng=None):
    if gamma <= 0:
        raise ValueError(f"need gamma > 0, got {gamma}")
    if trials < 2:
        raise ValueError(f"need trials >= 2 for a standard error, got {trials}")
    rng = rng if rng is not None else np.random.default_rng()
    first, second = split(rng)
    X = _draw_design(trials * n, d, first, design)
    Xp = _draw_design(trials * n, d, second, design)
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
    first, second = split(rng)
    X = _draw_design(trials * n, d, first, design)
    eps = noise.draw(trials * n, second).reshape(trials, n)
    best = np.full(trials, -math.inf)
    for g, L in zip(spec.functions, spec.complexities):
        G = np.asarray(g(X), dtype=float).reshape(trials, n)
        stat = (eps * G).mean(axis=1) - gamma * L / n - (G * G).mean(axis=1) / A
        np.maximum(best, stat, out=best)
    return float(best.mean()), float(best.std(ddof=1) / math.sqrt(trials))
