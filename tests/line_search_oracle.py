"""The nested-search line search the exact one in ``ridgepursuit.greedy``
replaced, kept as a test oracle.

``line_search`` below is the earlier implementation unchanged: it
re-evaluates the previous model on X and runs a bounded scalar search over
alpha around a bracketed scalar search over beta.  Joint convexity makes the
nested searches converge to the optimum, up to their tolerances.
"""

import numpy as np
from scipy.optimize import minimize_scalar

from ridgepursuit import CoefficientPenalty, RidgeModel, RidgeUnit, eval_unit


def line_search(
    f_prev: RidgeModel,
    h_new: RidgeUnit,
    Y: np.ndarray,
    X: np.ndarray,
    w: CoefficientPenalty,
) -> tuple[float, float, float]:
    """Minimize ||Y - (1-alpha) f_prev - beta h||_n^2 + w((1-alpha) v_prev + beta).

    Joint convexity (quadratic loss plus convex w of an affine map) makes the
    nested 1-D searches exact; the result never does worse than keeping
    f_prev unchanged, i.e. (alpha, beta) = (0, 0).
    """
    Y = np.asarray(Y, dtype=float)
    F = np.asarray(f_prev.evaluate(X), dtype=float)
    H = np.asarray(eval_unit(h_new, X), dtype=float)
    v_prev = f_prev.v
    n = Y.shape[0]
    h_sq = float(H @ H) / n

    def objective(alpha: float, beta: float) -> float:
        resid = Y - (1.0 - alpha) * F - beta * H
        return float(resid @ resid) / n + float(w((1.0 - alpha) * v_prev + beta))

    def best_beta(alpha: float) -> float:
        if h_sq <= 0.0:
            return 0.0
        resid_corr = float((Y - (1.0 - alpha) * F) @ H) / n
        if w.kind == "linear":
            return max(0.0, (resid_corr - w.rate / 2.0) / h_sq)
        # General convex w: bracket the minimizer, then bounded search.
        hi = 2.0 * max(1.0, abs(resid_corr) / h_sq)
        for _ in range(60):
            if objective(alpha, hi) >= objective(alpha, hi * (1.0 - 1e-7)):
                break
            hi *= 4.0
        res = minimize_scalar(
            lambda b: objective(alpha, b),
            bounds=(0.0, hi),
            method="bounded",
            options={"xatol": 1e-11},
        )
        beta = float(res.x)
        return beta if objective(alpha, beta) <= objective(alpha, 0.0) else 0.0

    res = minimize_scalar(
        lambda a: objective(a, best_beta(a)),
        bounds=(0.0, 1.0),
        method="bounded",
        options={"xatol": 1e-11},
    )
    candidates = [(float(res.x), best_beta(float(res.x)))]
    for alpha in (0.0, 1.0, float(res.x)):
        candidates.append((alpha, best_beta(alpha)))
        candidates.append((alpha, 0.0))
    scored = [(objective(a, b), a, b) for a, b in candidates]
    obj, alpha, beta = min(scored)
    return alpha, beta, obj
