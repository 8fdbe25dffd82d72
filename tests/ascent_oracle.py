"""The serial projected-gradient ascent the batched one in
``ridgepursuit.greedy`` replaced, kept as a test oracle.

``_ascend_projected`` below is the earlier implementation unchanged: one
restart at a time, one matrix-vector product per gradient and per value, and
one l1 projection per iteration.  ``score``, ``step0`` and ``random_inits``
rebuild what the serial ``inner_maximize`` passed it.
"""

import numpy as np

from ridgepursuit import Activation, GreedyConfig
from ridgepursuit.greedy import _PG_STEPS, project_l1


def score(R: np.ndarray, X: np.ndarray, act: Activation):
    """theta -> (1/n) sum_i R_i phi(theta . X_i), as the serial ascent scored it."""
    n = X.shape[0]

    def value(theta: np.ndarray) -> float:
        return float(R @ act(X @ theta)) / n

    return value


def step0(R: np.ndarray, X: np.ndarray) -> float:
    """The first step size, 1 / (a bound on the gradient's Lipschitz constant)."""
    n = X.shape[0]
    row_sq = np.einsum("ij,ij->i", X, X)
    lipschitz = float(np.abs(R) @ row_sq) / n + 1e-12
    return 1.0 / lipschitz


def random_inits(rng: np.random.Generator, restarts: int, D: int, lam: float) -> list:
    """The random vertices lam * (+-e_j) the serial code started from without a cover."""
    inits = []
    for seed in rng.integers(0, 2**63 - 1, size=restarts):
        rgen = np.random.default_rng(int(seed))
        theta0 = np.zeros(D)
        j = int(rgen.integers(D))
        theta0[j] = lam * (1.0 if rgen.random() < 0.5 else -1.0)
        inits.append(theta0)
    return inits


def _ascend_projected(
    score,
    act: Activation,
    R: np.ndarray,
    X: np.ndarray,
    theta0: np.ndarray,
    config: GreedyConfig,
    step0: float,
) -> tuple[float, np.ndarray]:
    """Projected gradient ascent with monotone step halving."""
    n = X.shape[0]
    theta = project_l1(theta0, config.lam)
    current = score(theta)
    best = (current, theta)
    step = step0
    for _ in range(_PG_STEPS):
        grad = X.T @ (R * act.derivative(X @ theta)) / n
        cand = project_l1(theta + step * grad, config.lam)
        value = score(cand)
        if value > current:
            theta, current = cand, value
            if value > best[0]:
                best = (value, cand)
        else:
            step *= 0.5
            if step < 1e-14 * step0:
                break
    return best
