"""Earlier projected-gradient ascents and l1 projection of
``ridgepursuit.greedy``, kept as test oracles.

``project_l1`` and ``_ascend_batch`` below are the batched projection and
ascent before their per-iteration overhead was cut: the projection gathers
the rows outside the ball and scatters them back on every call, and the
ascent merges accepted rows with masked copies.  The ascent carries the
current step rule (an accepted row doubles its step, a rejected row halves
it, at most ``_PG_STEPS`` iterations) and the current stop (a row is frozen
once its value gained at most ``_PG_TOL`` relative over its last
``_PG_WINDOW`` iterations), which it tracks in a full per-iteration history
rather than a ring; otherwise both are copied unchanged.  The current
kernels must match them bit for bit.  The ascent takes phi' from
``Activation.derivative``, whose ramp branch ``test_dictionary`` pins to the
earlier ``np.where(u > 0, 1.0, 0.0)``.  ``_ascend_capped`` is the ascent
without the settled-row stop, every row running ``_PG_STEPS`` iterations;
``_ascend_halving`` is that under the earlier step rule: the step only
halves, for 200 iterations.

``_ascend_projected`` is the serial implementation the batched ascent
replaced, unchanged apart from using the projection above and the current
step rule and stop: one restart at a time, one matrix-vector product per
gradient and per value, and one l1 projection per iteration.  ``score`` and
``step0`` rebuild what the serial ``inner_maximize`` passed it.
``two_sign_search`` rebuilds the search of the signed dictionary as two
serial searches, one per sign of the residual, with ``signed_inits`` giving
their starting points, the top cover points of each sign.  Cover scores
come from ``exact_scores``, the float64 re-scorer applied to every cover
unit.
"""

import numpy as np

from ridgepursuit import Activation, GreedyConfig
from ridgepursuit.greedy import _PG_STEPS, _PG_TOL, _PG_WINDOW, _rescore_cover


def project_l1(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the l1 ball of the given radius (sort-based).

    ``v`` is one vector or a (k, D) stack whose rows are projected one by
    one (Duchi et al. 2008); rows already inside the ball are copied as is.
    """
    v = np.asarray(v, dtype=float)
    rows = np.atleast_2d(v)
    out = rows.copy()
    mag = np.abs(rows)
    outside = mag.sum(axis=1) > radius
    if outside.any():
        mag = mag[outside]
        u = np.sort(mag, axis=1)[:, ::-1]
        css = np.cumsum(u, axis=1)
        idx = np.arange(1, u.shape[1] + 1)
        # The last index where u_j j > css_j - radius; index 0 always qualifies.
        rho = u.shape[1] - 1 - np.argmax((u * idx > css - radius)[:, ::-1], axis=1)
        tau = (css[np.arange(rho.shape[0]), rho] - radius) / (rho + 1.0)
        out[outside] = np.sign(rows[outside]) * np.maximum(mag - tau[:, None], 0.0)
    return out if v.ndim > 1 else out[0]


def _ascend_batch(
    R: np.ndarray,
    X: np.ndarray,
    act: Activation,
    inits: np.ndarray,
    sign: np.ndarray,
    lam: float,
    step0: float,
    grow: float = 2.0,
    steps: int = _PG_STEPS,
    window: int | None = _PG_WINDOW,
) -> tuple[np.ndarray, np.ndarray]:
    """Projected gradient ascent from every row of ``inits`` at once.

    Row i maximizes (1/n) sum_j sign_i R_j phi(theta . X_j), sign_i = +-1
    applied after each product (negation is exact), and ascends on its own:
    a candidate is accepted only if it raises that row's value, and then the
    row's step is multiplied by ``grow``; otherwise the row's step halves.
    The row stops (and is frozen) after ``steps`` iterations or, unless
    ``window`` is None, after iteration t once
    v_t - v_{t-window} <= _PG_TOL |v_t|.  Per iteration the
    live rows share one gradient product, one row-wise projection and one
    product for the candidates' values, whose Z = Theta X^T is kept for the
    next gradient.  Returns the accepted values (k,) and parameters (k, D).
    """
    n = X.shape[0]
    XT = np.ascontiguousarray(X.T)
    values = np.empty(inits.shape[0])
    thetas = np.empty(inits.shape)
    live = np.arange(inits.shape[0])
    theta = project_l1(inits, lam)
    Z = theta @ XT
    current = sign * (act(Z) @ R) / n
    step = np.full(live.shape[0], step0)
    history = np.empty((steps + 1, inits.shape[0]))  # history[t, i]: row i's v_t
    history[0] = current
    for t in range(1, steps + 1):
        grad = sign[:, None] * ((act.derivative(Z) * R) @ X) / n
        cand = project_l1(theta + step[:, None] * grad, lam)
        Z_cand = cand @ XT
        value = sign * (act(Z_cand) @ R) / n
        up = value > current
        np.copyto(theta, cand, where=up[:, None])
        np.copyto(Z, Z_cand, where=up[:, None])
        np.copyto(current, value, where=up)
        step[up] *= grow
        step[~up] *= 0.5
        history[t, live] = current
        if window is None or t < window:
            continue
        stop = current - history[t - window, live] <= _PG_TOL * np.abs(current)
        if stop.any():
            values[live[stop]], thetas[live[stop]] = current[stop], theta[stop]
            keep = ~stop
            live, theta, Z = live[keep], theta[keep], Z[keep]
            current, step, sign = current[keep], step[keep], sign[keep]
            if not live.shape[0]:
                break
    values[live], thetas[live] = current, theta
    return values, thetas


def _ascend_capped(R, X, act, inits, sign, lam, step0):
    """``_ascend_batch`` without the settled-row stop: every row runs
    ``_PG_STEPS`` iterations."""
    return _ascend_batch(R, X, act, inits, sign, lam, step0, window=None)


def _ascend_halving(R, X, act, inits, sign, lam, step0):
    """``_ascend_capped`` under the earlier step rule: halving only, 200 steps."""
    return _ascend_batch(R, X, act, inits, sign, lam, step0, grow=1.0, steps=200, window=None)


def exact_scores(R: np.ndarray, cover_cache) -> np.ndarray:
    """The float64 score of every cover unit against R, in cover order."""
    return _rescore_cover(R, cover_cache, np.arange(cover_cache.cover.n_distinct))


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


def _ascend_projected(
    score,
    act: Activation,
    R: np.ndarray,
    X: np.ndarray,
    theta0: np.ndarray,
    config: GreedyConfig,
    step0: float,
) -> tuple[float, np.ndarray]:
    """Projected gradient ascent: the step doubles on acceptance and halves
    on rejection, and only increases of the value are accepted.  It stops
    after ``_PG_STEPS`` iterations, or once its value gained at most
    ``_PG_TOL`` relative over its last ``_PG_WINDOW`` iterations."""
    n = X.shape[0]
    theta = project_l1(theta0, config.lam)
    current = score(theta)
    best = (current, theta)
    history = [current]
    step = step0
    for _ in range(_PG_STEPS):
        grad = X.T @ (R * act.derivative(X @ theta)) / n
        cand = project_l1(theta + step * grad, config.lam)
        value = score(cand)
        if value > current:
            theta, current = cand, value
            step *= 2.0
            if value > best[0]:
                best = (value, cand)
        else:
            step *= 0.5
        history.append(current)
        if len(history) > _PG_WINDOW:
            if current - history[-1 - _PG_WINDOW] <= _PG_TOL * abs(current):
                break
    return best


def signed_inits(R, config: GreedyConfig, cover_cache, signs) -> list:
    """The (sign, theta0) pairs the serial searches start from, +R first.

    Each sign starts from the ``restarts`` best cover points of sign * R
    (every point when the cover is smaller).
    """
    pairs = []
    for sign in signs:
        scores = exact_scores(sign * R, cover_cache)
        inits = cover_cache.cover.thetas[np.argsort(-scores, kind="stable")[: config.restarts]]
        pairs += [(sign, theta0) for theta0 in inits]
    return pairs


def two_sign_search(R, X, config: GreedyConfig, cover_cache, signs=(1, -1)):
    """The best signed unit of one serial search per sign.

    Each search takes the best of the zero unit, the cover argmax of sign * R
    and the serial ascents from its inits, a later candidate winning only if
    strictly better; -R wins only if strictly better than +R.  Returns
    (sign, value, theta, n_candidates).
    """
    act = Activation(config.activation)
    pairs = []
    if config.strategy == "projected-gradient":
        pairs = signed_inits(R, config, cover_cache, signs)
    best = (1, 0.0, np.zeros(X.shape[1]))
    n_candidates = 1 + len(pairs)
    for sign in signs:
        signed_R = sign * R
        value, theta = 0.0, np.zeros(X.shape[1])
        scores = exact_scores(signed_R, cover_cache)
        n_candidates += scores.shape[0]
        j = int(np.argmax(scores))
        if scores[j] > value:
            value, theta = float(scores[j]), cover_cache.cover.thetas[j]
        value_of, first_step = score(signed_R, X, act), step0(signed_R, X)
        for _, theta0 in (p for p in pairs if p[0] == sign):
            found, at = _ascend_projected(value_of, act, signed_R, X, theta0, config, first_step)
            if found > value:
                value, theta = found, at
        if value > best[1]:
            best = (sign, value, theta)
    return best + (n_candidates,)
