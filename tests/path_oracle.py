"""The pursuit loop of ``ridgepursuit.greedy.fit_lpgp`` with its earlier
eager model bookkeeping, kept as a test oracle.

Before a step recorded only its unit and line-search pair, every step
rebuilt the whole term list, scaling each earlier weight by (1 - alpha_m)
and appending (beta_m, h_m), and validated a new ``RidgeModel``: O(m) work
and one model copy per step.  ``eager_models`` runs that loop unchanged on
the current search, line search and cover cache and returns the model after
every step, f_0 = 0 first.  ``GreedyStep.model`` must match it bit for bit.
"""

import numpy as np

from ridgepursuit import Activation, GreedyConfig, RidgeModel, RidgeUnit
from ridgepursuit.dictionary import lift
from ridgepursuit.greedy import _cover_cache_for, inner_maximize, line_search


def eager_models(data, config: GreedyConfig) -> list[RidgeModel]:
    """The models f_0, ..., f_{m_max} of a fit, each rebuilt at its step."""
    X = np.atleast_2d(np.asarray(data.X, dtype=float))
    Y = np.asarray(data.Y, dtype=float)
    X_lift = lift(X)
    act = Activation(config.activation)
    cover_cache = _cover_cache_for(X_lift, act, config)

    model = RidgeModel()
    models = [model]
    fitted = np.zeros(X.shape[0])
    resid = Y - fitted
    v_prev = 0.0
    for _ in range(config.m_max):
        found = inner_maximize(resid, X_lift, config, cover_cache=cover_cache)
        unit = RidgeUnit(activation=act, theta=found.theta, sign=found.sign)
        H = unit.evaluate_lifted(X_lift)
        alpha, beta, _ = line_search(fitted, H, Y, v_prev, config.w)

        terms = [((1.0 - alpha) * b, u) for b, u in model.terms] + [(beta, unit)]
        model = RidgeModel(terms=terms)
        models.append(model)
        fitted = (1.0 - alpha) * fitted + beta * H
        v_prev = (1.0 - alpha) * v_prev + beta
        resid = Y - fitted
    return models
