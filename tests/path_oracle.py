"""The pursuit loop of ``ridgepursuit.greedy.fit_lpgp`` built from
independent pieces, kept as a test oracle.

``oracle_steps`` runs the pursuit without the library's inner search, line
search or unit evaluation:

- ``inner_search`` scores every cover unit in float64 (``_rescore_cover``
  over the whole cover, as ``ascent_oracle.exact_scores``) instead of the
  float32 half cache and its certified re-score set, ranks each sign with
  its own stable sort, and runs the restarts through
  ``ascent_oracle._ascend_batch``;
- ``line_search`` and ``_argmin_on_line`` are frozen copies of the closed-form
  line search as it was before it took the residual from the fit: it
  recomputes R = Y - F and R . R / n and scores its candidates through the
  ``objective`` and ``on_line`` closures (one fix since, made in both: power
  w takes the constant branch when rate * ds rounds to 0, where the closed
  form divided 0 by 0);
- a unit is evaluated as sign * phi(X_lift @ theta), the expression
  ``RidgeUnit.evaluate_lifted`` returned before it worked in place.

It returns every step's record: the unit's theta bytes and sign, (alpha,
beta), v_m, the inner value, train MSE, penalty and diagnostics.
``eager_models`` replays the same loop with the earlier eager model
bookkeeping: before a step recorded only its unit and line-search pair,
every step rebuilt the whole term list, scaling each earlier weight by
(1 - alpha_m) and appending (beta_m, h_m), and validated a new
``RidgeModel``.  ``fit_lpgp``'s records and ``GreedyStep.model`` must match
them bit for bit.
"""

import math

import numpy as np

import ascent_oracle
from ridgepursuit import Activation, CoefficientPenalty, GreedyConfig, RidgeModel, RidgeUnit
from ridgepursuit.dictionary import lift
from ridgepursuit.greedy import _BLOCK_CELLS, _argmin_quadratic, _cover_cache_for, _cubic_root


def inner_search(R, X, config: GreedyConfig, cover_cache):
    """(theta, value, sign, diagnostics) of one signed search.

    Each sign ranks the float64 scores of every cover unit, best first and
    ties in cover order; the first is its cover argmax and the first
    ``restarts`` its restart seeds (projected gradient).  The winner is the
    first strict maximum over the zero unit, the +R argmax, the +R
    restarts, the -R argmax and the -R restarts.
    """
    n, D = X.shape
    diagnostics = {"cover_value": 0.0, "n_candidates": 1}
    if not np.any(R):
        return np.zeros(D), 0.0, 1, diagnostics
    act = Activation(config.activation)
    signs = (1, -1) if act.kind == "ramp" else (1,)
    K = cover_cache.cover.n_distinct
    count = min(config.restarts, K) if config.strategy == "projected-gradient" else 0
    exact = ascent_oracle.exact_scores(R, cover_cache)
    heads, seeds = [], []
    for sign in signs:
        signed = exact if sign == 1 else -exact
        rank = np.argsort(-signed, kind="stable")
        heads.append((float(signed[rank[0]]), cover_cache.cover.thetas[rank[0]]))
        seeds.append(cover_cache.cover.thetas[rank[:count]])
    diagnostics["cover_value"] = max(value for value, _ in heads)
    diagnostics["n_candidates"] += len(signs) * (K + count)

    restarts = [[] for _ in signs]
    if count:
        assert len(signs) * count <= _BLOCK_CELLS // n, "the oracle runs one batch"
        sign_of_row = np.repeat(np.array(signs, dtype=float), count)
        values, thetas = ascent_oracle._ascend_batch(
            R, X, act, np.concatenate(seeds), sign_of_row, config.lam,
            ascent_oracle.step0(R, X),
        )
        for j in range(len(signs)):
            rows = slice(j * count, (j + 1) * count)
            restarts[j] = list(zip(values[rows].tolist(), thetas[rows]))

    best = (0.0, np.zeros(D), 1)
    for sign, head, found in zip(signs, heads, restarts):
        for value, theta in [head] + found:
            if value > best[0]:
                best = (value, theta, sign)
    return best[1].copy(), best[0], best[2], diagnostics


def _argmin_on_line(
    a2: float, a1: float, s0: float, ds: float, hi: float, w: CoefficientPenalty
) -> list[float]:
    """Candidate minimizers of a2 t^2 + a1 t + w(s0 + ds t) over [0, hi]."""
    if w.kind != "power" or w.rate * ds == 0.0:
        ts = [_argmin_quadratic(a2, a1 + slope * ds, hi) for slope in w.slopes]
        if ds != 0.0:
            ts += [t for t in ((b - s0) / ds for b in w.breaks) if 0.0 <= t <= hi]
        return ts
    if a2 > 0.0:
        u = _cubic_root(2.0 * w.rate * ds * ds / (3.0 * a2), a1 * ds / (2.0 * a2) - s0)
    else:
        u = -0.75 * a1 / (w.rate * ds)
    t = (max(u, 0.0) ** 3 - s0) / ds
    return [min(max(t, 0.0), hi)]


def line_search(F, H, Y, v_prev: float, w: CoefficientPenalty) -> tuple[float, float, float]:
    """Minimize ||Y - (1-alpha) F - beta H||_n^2 + w((1-alpha) v_prev + beta)."""
    F = np.asarray(F, dtype=float)
    H = np.asarray(H, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n = Y.shape[0]
    R = Y - F
    rr, rf, rh = float(R @ R) / n, float(R @ F) / n, float(R @ H) / n
    ff, fh, hh = float(F @ F) / n, float(F @ H) / n, float(H @ H) / n
    v = float(v_prev)

    def objective(alpha: float, beta: float) -> float:
        loss = rr + 2.0 * alpha * rf - 2.0 * beta * rh
        loss += alpha * alpha * ff - 2.0 * alpha * beta * fh + beta * beta * hh
        return loss + float(w((1.0 - alpha) * v + beta))

    def on_line(alpha0, beta0, d_alpha, d_beta, hi) -> list[tuple[float, float]]:
        """Candidate points (alpha0, beta0) + t (d_alpha, d_beta), t in [0, hi]."""
        g_alpha = 2.0 * (rf + alpha0 * ff - beta0 * fh)  # grad L at t = 0
        g_beta = 2.0 * (beta0 * hh - rh - alpha0 * fh)
        a1 = g_alpha * d_alpha + g_beta * d_beta
        a2 = d_alpha * d_alpha * ff - 2.0 * d_alpha * d_beta * fh + d_beta * d_beta * hh
        s0, ds = (1.0 - alpha0) * v + beta0, d_beta - v * d_alpha
        ts = _argmin_on_line(a2, a1, s0, ds, hi, w)
        return [(alpha0 + t * d_alpha, beta0 + t * d_beta) for t in ts]

    candidates = [(0.0, 0.0)]
    candidates += on_line(0.0, 0.0, 0.0, 1.0, math.inf)  # alpha = 0
    candidates += on_line(1.0, 0.0, 0.0, 1.0, math.inf)  # alpha = 1
    candidates += on_line(0.0, 0.0, 1.0, 0.0, 1.0)  # beta = 0
    q2 = ff - 2.0 * fh * v + hh * v * v  # ||F - v H||_n^2, the loss curvature along (1, v)
    if q2 > 0.0:
        # The valley by its mass s: alpha q2 = (v - s)(v HH - FH) - RF + v RH and
        # beta = s - (1 - alpha) v, starting at s = 0.
        alpha0 = (v * (v * hh - fh) - rf + v * rh) / q2
        d_alpha = (fh - v * hh) / q2
        valley = on_line(alpha0, (alpha0 - 1.0) * v, d_alpha, 1.0 + v * d_alpha, math.inf)
        candidates += [(a, b) for a, b in valley if 0.0 <= a <= 1.0 and b >= 0.0]

    obj, alpha, beta = min((objective(a, b), a, b) for a, b in candidates)
    return alpha + 0.0, beta + 0.0, obj


def _pursuit(data, config: GreedyConfig):
    """Yield (unit, alpha, beta, record) for every step of the fit."""
    X = np.atleast_2d(np.asarray(data.X, dtype=float))
    Y = np.asarray(data.Y, dtype=float)
    n = X.shape[0]
    X_lift = lift(X)
    act = Activation(config.activation)
    cover_cache = _cover_cache_for(X_lift, act, config)

    fitted = np.zeros(n)
    resid = Y - fitted
    v_prev = 0.0
    for m in range(1, config.m_max + 1):
        theta, value, sign, diagnostics = inner_search(resid, X_lift, config, cover_cache)
        unit = RidgeUnit(activation=act, theta=theta, sign=sign)
        H = sign * act(X_lift @ theta)
        alpha, beta, _ = line_search(fitted, H, Y, v_prev, config.w)

        fitted = (1.0 - alpha) * fitted + beta * H
        v_prev = (1.0 - alpha) * v_prev + beta
        resid = Y - fitted
        record = {
            "m": m,
            "theta": theta.tobytes(),
            "sign": sign,
            "v_m": v_prev,
            "alpha": alpha,
            "beta": beta,
            "inner_value": value,
            "train_mse": float(resid @ resid) / n,
            "penalty": config.w(v_prev),
            "diagnostics": diagnostics,
        }
        yield unit, alpha, beta, record


def oracle_steps(data, config: GreedyConfig) -> list[dict]:
    """Every step's record, in step order."""
    return [record for _, _, _, record in _pursuit(data, config)]


def eager_models(data, config: GreedyConfig) -> list[RidgeModel]:
    """The models f_0, ..., f_{m_max} of a fit, each rebuilt at its step."""
    model = RidgeModel()
    models = [model]
    for unit, alpha, beta, _ in _pursuit(data, config):
        terms = [((1.0 - alpha) * b, u) for b, u in model.terms] + [(beta, unit)]
        model = RidgeModel(terms=terms)
        models.append(model)
    return models
