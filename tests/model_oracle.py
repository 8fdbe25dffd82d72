"""Earlier per-term model evaluation and scalar ramp sampler of
``ridgepursuit``, kept as test oracles, with the rounding bound that
separates the evaluations.

``evaluate`` is ``RidgeModel.evaluate`` before it stacked the terms: it lifts
the design once and adds beta * sign * phi(X_lift @ theta) one term at a
time.  The blocked evaluation sums the same terms in another order, so the
two agree within ``evaluation_bound``, not bit for bit.

``sample_ramp_model`` is the earlier sampler unchanged: one (t, u) rejection
pair per pair of scalar draws.  The current sampler draws the pairs in
rounds and must match it bit for bit, generator state included.
"""

import math

import numpy as np

from ridgepursuit import Activation, RidgeModel, RidgeUnit, SpectralTarget, lift
from ridgepursuit.targets import (
    _target_value_at_zero,
    ramp_sampler_normalizer,
    target_gradient_at_zero,
)

# Unit roundoff of float64, and the error of numpy's sin and tanh allowed
# for: 2 ulp of the result (measured at most 0.51 and 1.13 ulp against
# 120-bit mpmath on 25,000 points in [-30, 30]).
UNIT_ROUNDOFF = 2.0**-53
ACTIVATION_ULPS = 2


def evaluate(model: RidgeModel, x: np.ndarray) -> float | np.ndarray:
    """f(x) with one lift and one pass per nonzero term, in term order."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    out = np.full(X.shape[0], model.intercept, dtype=float)
    if model.slope is not None:
        out += X @ model.slope
    X_lift = lift(X)
    for beta, unit in model.terms:
        if beta != 0.0:
            out += beta * unit.evaluate_lifted(X_lift)
    return float(out[0]) if single else out


def gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u)."""
    return n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF)


def evaluation_bound(model: RidgeModel, X: np.ndarray) -> np.ndarray:
    """Certified bound on |a - b| for any two evaluations of the model at X.

    With P the intercept plus the slope term, k nonzero terms of signed
    weight w_i = beta_i sign_i and u_i = theta_i . (x, 1), an evaluation
    that computes P the same way and sums the k terms in any order and in
    at most three activation groups is within gamma_N * A of the exact
    P + sum_i w_i phi(u_i), where

        A = |P| + sum_i |w_i| (|phi(u_i)| + sum_j |x_j theta_ij| + |theta_i,d|)

    and N = D + k + 3 + 2 * ACTIVATION_ULPS: gamma_D for each dot product
    (carried through phi, which is 1-Lipschitz), gamma_{k+3} for the
    products and the sums, and the activation's own error, combined by
    gamma_a + gamma_b + gamma_a gamma_b <= gamma_{a+b} (Higham, Accuracy
    and Stability of Numerical Algorithms, Lemma 3.3 and Section 3.1).  Two
    evaluations are then within twice that of each other.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d = X.shape[1]
    A = np.full(X.shape[0], abs(model.intercept))
    if model.slope is not None:
        A = np.abs(model.intercept + X @ model.slope)
    k = 0
    for beta, unit in model.terms:
        if beta == 0.0:
            continue
        k += 1
        theta = unit.theta
        phi = np.abs(unit.activation(X @ theta[:d] + theta[d]))
        A += beta * (phi + np.abs(X) @ np.abs(theta[:d]) + abs(theta[d]))
    N = d + 1 + k + 3 + 2 * ACTIVATION_ULPS
    return 2.0 * gamma(N) * A


def _sample_t(c: float, phase: float, rng: np.random.Generator) -> float:
    """Draw t in [0,1] with density proportional to |cos(c t + phase)|.

    Rejection from the uniform proposal with envelope 1; exact for any c.
    """
    while True:
        t = rng.uniform(0.0, 1.0)
        if rng.uniform(0.0, 1.0) <= abs(math.cos(c * t + phase)):
            return t


def sample_ramp_model(
    target: SpectralTarget, m: int, rng: np.random.Generator
) -> RidgeModel:
    """Random m-term ramp network approximating the target, one pick at a time."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if target.n_atoms < 1:
        raise ValueError("target must have at least one atom")
    v, masses = ramp_sampler_normalizer(target)
    affine_slope = target_gradient_at_zero(target)
    affine_intercept = _target_value_at_zero(target)
    if v == 0.0:
        # Purely constant target: nothing to sample.
        return RidgeModel(terms=[], intercept=affine_intercept, slope=affine_slope)

    c = np.abs(target.freqs).sum(axis=1)
    flat = masses.ravel() / v
    ramp = Activation("ramp")
    picks = rng.choice(flat.shape[0], size=m, p=flat)
    terms: list[tuple[float, RidgeUnit]] = []
    for pick in picks:
        j, zi = divmod(int(pick), 2)
        z = 1.0 if zi == 0 else -1.0
        phase = z * target.phases[j]
        t = _sample_t(c[j], phase, rng)
        alpha = target.freqs[j] / c[j]
        sign = -1 if math.cos(c[j] * t + phase) > 0 else 1
        theta = np.append(z * alpha, -t)
        terms.append((v / m, RidgeUnit(ramp, theta, sign)))
    return RidgeModel(terms=terms, intercept=affine_intercept, slope=affine_slope)
