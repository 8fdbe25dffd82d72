"""l1-penalized greedy pursuit over a ridge-unit dictionary.

Starting from f_0 = 0, step m picks a unit h_m nearly maximizing the residual
correlation (1/n) sum_i R_i h(X_i) over the l1 ball ||theta||_1 <= lam (the
relaxation factor c >= 1 measures how near), then sets

    f_m = (1 - alpha_m) f_{m-1} + beta_m h_m,

with (alpha_m, beta_m) minimizing the penalized least-squares objective
||Y - (1-alpha) f_{m-1} - beta h||_n^2 + w((1-alpha) v_{m-1} + beta) over
alpha in [0, 1], beta >= 0, where w is a nonnegative convex function of the
coefficient mass v.  The guarantee evaluated by ``greedy_bound_rhs``: for any
competitor f = sum_h beta_h h with mass v_f,

    ||f* - f_m||^2 + w(v_m) <= ||f* - f||^2 + w(c v_f) + 4 b_f / m,
    b_f = c^2 v_f^2 + 2 v_f ||f*|| (c + 1) - ||f||^2,

provided every dictionary unit has norm at most 1.

Each step costs one n x K product for the cover scores (shared by the +R and
-R searches, since the scores of -R are the negated scores of +R), one
evaluation of the new unit, and a line search that reads only six inner
products of the residual R = Y - f_{m-1}(X), the fitted values and the new
unit's values.  The line search is exact: KKT candidates on the (alpha, beta)
box for linear w and for each segment of piecewise-linear w (plus each knot),
and one bounded convex search over the new mass s for power w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np
from scipy.optimize import minimize_scalar

from .dictionary import (
    Activation,
    CoverSizeError,
    FieldError,
    RidgeUnit,
    enumerate_cover,
    eval_unit,
    lift,
)
from .model import RidgeModel
from .targets import Dataset, write_csv

__all__ = [
    "INNER_STRATEGIES",
    "CoefficientPenalty",
    "w_linear",
    "w_power",
    "w_custom",
    "GreedyConfig",
    "GreedyStep",
    "GreedyPath",
    "InnerResult",
    "inner_maximize",
    "line_search",
    "fit_lpgp",
    "greedy_b_f",
    "greedy_bound_rhs",
    "write_path_csv",
    "project_l1",
]

INNER_STRATEGIES = ("cover-exhaustive", "projected-gradient", "frank-wolfe")

PATH_CSV_COLUMNS = ("m", "v_m", "alpha", "beta", "inner_value", "train_mse", "penalty", "objective")


# ----------------------------------------------------------------------------
# Coefficient-mass penalties w(v)
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientPenalty:
    """Nonnegative convex penalty w(v) of the coefficient mass, v >= 0.

    kinds: ``linear`` w(v) = rate * v; ``power`` w(v) = rate * v^(4/3);
    ``custom`` piecewise-linear through ``knots`` (extended beyond the knot
    range with the boundary slopes, which preserves convexity).
    """

    kind: str
    rate: float = 0.0
    knots: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind in ("linear", "power"):
            if self.rate < 0:
                raise ValueError(f"need rate >= 0, got {self.rate}")
        elif self.kind == "custom":
            if len(self.knots) < 2:
                raise ValueError("custom penalty needs at least 2 knots")
            vk = np.array([k[0] for k in self.knots], dtype=float)
            wk = np.array([k[1] for k in self.knots], dtype=float)
            if vk[0] < 0:
                raise ValueError("knot positions must lie in [0, inf)")
            if np.any(np.diff(vk) <= 0):
                raise ValueError("knot positions must be strictly increasing")
            slopes = np.diff(wk) / np.diff(vk)
            if np.any(np.diff(slopes) < -1e-12):
                raise ValueError("knot values are not convex (slopes must be nondecreasing)")
            if slopes[-1] < 0:
                raise ValueError("final slope must be >= 0 (penalty would go negative)")
            if np.any(wk < 0) or wk[0] - slopes[0] * vk[0] < 0:
                raise ValueError("penalty values must stay nonnegative on [0, inf)")
        else:
            raise ValueError(
                f"unknown penalty kind {self.kind!r}; expected linear, power, or custom"
            )

    def __call__(self, v: np.ndarray | float) -> np.ndarray | float:
        arr = np.maximum(np.asarray(v, dtype=float), 0.0)
        if self.kind == "linear":
            out = self.rate * arr
        elif self.kind == "power":
            out = self.rate * arr ** (4.0 / 3.0)
        else:
            vk = np.array([k[0] for k in self.knots], dtype=float)
            wk = np.array([k[1] for k in self.knots], dtype=float)
            out = np.asarray(np.interp(arr, vk, wk))
            lo_slope = (wk[1] - wk[0]) / (vk[1] - vk[0])
            hi_slope = (wk[-1] - wk[-2]) / (vk[-1] - vk[-2])
            out = np.where(arr < vk[0], wk[0] + lo_slope * (arr - vk[0]), out)
            out = np.where(arr > vk[-1], wk[-1] + hi_slope * (arr - vk[-1]), out)
        return float(out) if np.ndim(v) == 0 else out


def w_linear(rate: float = 0.0) -> CoefficientPenalty:
    """w(v) = rate * v (rate 0 gives the unpenalized objective)."""
    return CoefficientPenalty(kind="linear", rate=rate)


def w_power(rate: float) -> CoefficientPenalty:
    """w(v) = rate * v^(4/3)."""
    return CoefficientPenalty(kind="power", rate=rate)


def w_custom(points: Iterable[tuple[float, float]]) -> CoefficientPenalty:
    """Piecewise-linear convex penalty through the given (v, w) samples."""
    return CoefficientPenalty(kind="custom", knots=tuple((float(a), float(b)) for a, b in points))


# ----------------------------------------------------------------------------
# Configuration and path records
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class GreedyConfig:
    """Settings for one pursuit run.

    ``lam`` is the l1 radius of the internal parameter; ``strategy`` selects
    the inner maximizer; ``restarts`` seeds the multi-start strategies;
    ``c_report`` additionally scores the enumerated cover grid each step so
    the achieved relaxation factor is estimable; ``cover_m_grid`` sets the
    cover resolution used for exhaustive search, restart inits, and the
    c diagnostic.
    """

    lam: float
    m_max: int
    activation: str = "ramp"
    w: CoefficientPenalty = field(default_factory=w_linear)
    strategy: str = "cover-exhaustive"
    restarts: int = 32
    c_report: bool = True
    cover_m_grid: int = 2
    cover_cap: int = 10**6
    pg_steps: int = 200

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise FieldError("lam", f"need lam > 0, got {self.lam}")
        if self.m_max < 0:
            raise FieldError("m_max", f"need m_max >= 0, got {self.m_max}")
        Activation(self.activation)  # validates the kind
        if not isinstance(self.w, CoefficientPenalty):
            raise FieldError("w", "w must be a CoefficientPenalty")
        if self.strategy not in INNER_STRATEGIES:
            raise FieldError(
                "strategy",
                f"unknown inner strategy {self.strategy!r}; expected {INNER_STRATEGIES}",
            )
        if self.restarts < 1:
            raise FieldError("restarts", f"need restarts >= 1, got {self.restarts}")
        if self.cover_m_grid < 1:
            raise FieldError("cover_m_grid", f"need cover_m_grid >= 1, got {self.cover_m_grid}")
        if self.pg_steps < 1:
            raise FieldError("pg_steps", f"need pg_steps >= 1, got {self.pg_steps}")


@dataclass(frozen=True)
class GreedyStep:
    """One pursuit step: the updated model and its bookkeeping."""

    m: int
    model: RidgeModel
    v_m: float
    alpha: float
    beta: float
    inner_value: float
    train_mse: float
    penalty: float
    diagnostics: dict = field(repr=False, default_factory=dict)

    @property
    def objective(self) -> float:
        return self.train_mse + self.penalty


@dataclass(frozen=True)
class GreedyPath:
    """The full iteration path of one pursuit run."""

    records: tuple[GreedyStep, ...]

    @property
    def final_model(self) -> RidgeModel:
        return self.records[-1].model if self.records else RidgeModel()

    def model_at(self, m: int) -> RidgeModel:
        """The iterate after m steps (m = 0 is the zero model)."""
        if m == 0:
            return RidgeModel()
        return self.records[m - 1].model

    def measured_c(self) -> float:
        """Largest observed ratio (best cover-grid value) / (achieved value), >= 1.

        With the cover-exhaustive strategy this is exactly 1; for the local
        strategies it estimates the relaxation factor against the cover grid.
        """
        worst = 1.0
        for rec in self.records:
            cover = rec.diagnostics.get("cover_value", math.nan)
            if math.isfinite(cover) and rec.inner_value > 0:
                worst = max(worst, cover / rec.inner_value)
        return worst


# ----------------------------------------------------------------------------
# Inner maximization
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class InnerResult:
    """Outcome of one inner maximization: argmax, value, and diagnostics."""

    theta: np.ndarray
    value: float
    diagnostics: dict


@dataclass(frozen=True)
class _CoverCache:
    """Precomputed cover grid: parameter rows and their unit values on a design."""

    thetas: np.ndarray  # (K, D)
    values: np.ndarray  # (n, K) = phi(X @ thetas.T)


def _build_cover_cache(
    X: np.ndarray, activation: Activation, m_grid: int, lam: float, cap: int
) -> _CoverCache:
    cover = enumerate_cover(X.shape[1], m_grid, lam, cap=cap)
    n = X.shape[0]
    K = cover.thetas.shape[0]
    # Large grids are cached in float32 (unit values are O(1); scoring only
    # needs argmax resolution) and built block-wise to bound peak memory.
    dtype = np.float32 if n * K > 30_000_000 else np.float64
    values = np.empty((n, K), dtype=dtype)
    block = 2048
    for start in range(0, K, block):
        stop = min(start + block, K)
        values[:, start:stop] = activation(X @ cover.thetas[start:stop].T)
    return _CoverCache(thetas=cover.thetas, values=values)


def _cover_cache_for(
    X: np.ndarray, activation: Activation, config: GreedyConfig
) -> _CoverCache | None:
    """The cover cache the configured strategy needs, or None if it needs none.

    Exhaustive search cannot run without the cover, so an over-cap cover
    raises CoverSizeError there; the ascent strategies use the cover only for
    restart inits and the c diagnostic, and run without it.
    """
    if config.strategy != "cover-exhaustive" and not config.c_report:
        return None
    try:
        return _build_cover_cache(
            X, activation, config.cover_m_grid, config.lam, config.cover_cap
        )
    except CoverSizeError:
        if config.strategy == "cover-exhaustive":
            raise
        return None


def _score_cover(R: np.ndarray, cover_cache: _CoverCache) -> np.ndarray:
    """(1/n) sum_i R_i h_k(X_i) for every cover unit k."""
    values = cover_cache.values
    return R.astype(values.dtype, copy=False) @ values / values.shape[0]


def project_l1(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the l1 ball of the given radius (sort-based)."""
    v = np.asarray(v, dtype=float)
    mag = np.abs(v)
    if mag.sum() <= radius:
        return v.copy()
    u = np.sort(mag)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, u.shape[0] + 1)
    rho = np.nonzero(u * idx > (css - radius))[0][-1]
    tau = (css[rho] - radius) / (rho + 1.0)
    return np.sign(v) * np.maximum(mag - tau, 0.0)


def inner_maximize(
    R: np.ndarray,
    X: np.ndarray,
    config: GreedyConfig,
    rng: np.random.Generator,
    cover_cache: _CoverCache | None = None,
    *,
    cover_scores: np.ndarray | None = None,
) -> InnerResult:
    """Maximize (1/n) sum_i R_i phi(theta . X_i) over ||theta||_1 <= lam.

    The columns of X are the literal inner-product inputs: append a constant
    column upstream to give the units a bias slot.  The returned value
    dominates every candidate examined and is always >= 0 because theta = 0
    (the zero function) is a candidate.

    ``cover_scores``, if given, must equal ``R @ cover_cache.values / n``;
    ``fit_lpgp`` passes the scores of +R and their negation for -R so that
    the n x K product is formed once per step.
    """
    R = np.asarray(R, dtype=float)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, D = X.shape
    if R.shape != (n,):
        raise ValueError(f"residual shape {R.shape} does not match design rows {n}")
    act = Activation(config.activation)
    diagnostics: dict = {"strategy": config.strategy, "cover_value": math.nan}

    if not np.any(R):
        diagnostics["cover_value"] = 0.0
        diagnostics["n_candidates"] = 1
        return InnerResult(np.zeros(D), 0.0, diagnostics)

    def score(theta: np.ndarray) -> float:
        return float(R @ act(X @ theta)) / n

    best_theta = np.zeros(D)
    best_value = 0.0
    n_candidates = 1

    need_cover = config.strategy == "cover-exhaustive" or config.c_report
    if cover_cache is None:
        cover_cache = _cover_cache_for(X, act, config)
    if cover_cache is not None and need_cover:
        if cover_scores is None:
            cover_scores = _score_cover(R, cover_cache)
        j = int(np.argmax(cover_scores))
        diagnostics["cover_value"] = float(cover_scores[j])
        n_candidates += cover_scores.shape[0]
        if cover_scores[j] > best_value:
            best_value = float(cover_scores[j])
            best_theta = cover_cache.thetas[j].copy()

    if config.strategy != "cover-exhaustive":
        seeds = rng.integers(0, 2**63 - 1, size=config.restarts)
        row_sq = np.einsum("ij,ij->i", X, X)
        lipschitz = float(np.abs(R) @ row_sq) / n + 1e-12
        step0 = 1.0 / lipschitz

        def init_theta(rgen: np.random.Generator) -> np.ndarray:
            if cover_cache is not None:
                k = int(rgen.integers(cover_cache.thetas.shape[0]))
                return cover_cache.thetas[k].copy()
            theta = np.zeros(D)
            j = int(rgen.integers(D))
            theta[j] = config.lam * (1.0 if rgen.random() < 0.5 else -1.0)
            return theta

        for seed in seeds:
            theta0 = init_theta(np.random.default_rng(int(seed)))
            if config.strategy == "projected-gradient":
                value, theta = _ascend_projected(score, act, R, X, theta0, config, step0)
            else:
                value, theta = _ascend_frank_wolfe(score, act, R, X, theta0, config)
            n_candidates += 1
            if value > best_value:
                best_value = value
                best_theta = theta

    diagnostics["n_candidates"] = n_candidates
    return InnerResult(best_theta, best_value, diagnostics)


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
    for _ in range(config.pg_steps):
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


def _ascend_frank_wolfe(
    score,
    act: Activation,
    R: np.ndarray,
    X: np.ndarray,
    theta0: np.ndarray,
    config: GreedyConfig,
) -> tuple[float, np.ndarray]:
    """Coordinate vertex moves: blend toward lam * sign(g_j) e_j for the best j."""
    n, D = X.shape
    theta = project_l1(theta0, config.lam)
    best = (score(theta), theta)
    for _ in range(config.pg_steps):
        grad = X.T @ (R * act.derivative(X @ theta)) / n
        j = int(np.argmax(np.abs(grad)))
        vertex = np.zeros(D)
        vertex[j] = config.lam * (1.0 if grad[j] >= 0 else -1.0)
        res = minimize_scalar(
            lambda t: -score((1.0 - t) * theta + t * vertex),
            bounds=(0.0, 1.0),
            method="bounded",
            options={"xatol": 1e-10},
        )
        cand = (1.0 - res.x) * theta + res.x * vertex
        value = score(cand)
        if value <= best[0] + 1e-15:
            break
        theta = cand
        best = (value, cand)
    return best


# ----------------------------------------------------------------------------
# Line search
# ----------------------------------------------------------------------------


def _argmin_quadratic(a2: float, a1: float, lo: float, hi: float) -> float:
    """Minimizer of a2 t^2 + a1 t over [lo, hi] for a2 >= 0 (hi may be inf)."""
    if a2 > 0.0:
        return min(max(-a1 / (2.0 * a2), lo), hi)
    return lo if a1 >= 0.0 or math.isinf(hi) else hi


def line_search(
    F: np.ndarray,
    H: np.ndarray,
    Y: np.ndarray,
    v_prev: float,
    w: CoefficientPenalty,
) -> tuple[float, float, float]:
    """Minimize ||Y - (1-alpha) F - beta H||_n^2 + w((1-alpha) v_prev + beta).

    F and H are the previous fit's and the new unit's values on the design,
    v_prev the previous coefficient mass; alpha ranges over [0, 1] and beta
    over [0, inf).  Returns (alpha, beta, objective).

    With R = Y - F the loss is the quadratic

        (RR + 2 alpha RF - 2 beta RH + alpha^2 FF - 2 alpha beta FH + beta^2 HH) / n

    so six inner products fix it and every later evaluation is O(1).  Write
    s = (1-alpha) v_prev + beta for the new mass.

    * Linear w: the problem is a convex QP on the box.  Its minimum is among
      the KKT candidates: the interior 2 x 2 solve and the clipped minimizers
      on the edges alpha = 0, alpha = 1 and beta = 0 (which cover the corners).
    * Piecewise-linear w: the linear candidates once per segment slope, plus,
      for each knot s_k, the best point on the line s = s_k (a clipped 1-D
      quadratic in alpha).  A minimizer either has s inside a segment, where
      w is that segment's line, or sits on a knot.
    * Power w: for fixed s the best point on the line s is that same clipped
      1-D quadratic, and the partial minimum is convex in s; one bounded
      scalar search over s finds it.

    (alpha, beta) = (0, 0), which keeps f_prev, is always a candidate, so the
    step never does worse than f_prev.  Exact ties go to the smaller alpha.
    """
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

    def box_candidates(rate: float) -> list[tuple[float, float]]:
        """KKT points of loss + rate * s on alpha in [0, 1], beta >= 0."""
        p_a = 2.0 * rf - rate * v  # linear coefficient of alpha
        p_b = rate - 2.0 * rh  # linear coefficient of beta
        cands = [
            (0.0, _argmin_quadratic(hh, p_b, 0.0, math.inf)),
            (1.0, _argmin_quadratic(hh, p_b - 2.0 * fh, 0.0, math.inf)),
            (_argmin_quadratic(ff, p_a, 0.0, 1.0), 0.0),
        ]
        det = ff * hh - fh * fh
        if det > 0.0:
            alpha = -(hh * p_a + fh * p_b) / (2.0 * det)
            beta = -(fh * p_a + ff * p_b) / (2.0 * det)
            if 0.0 <= alpha <= 1.0 and beta >= 0.0:
                cands.append((alpha, beta))
        return cands

    def on_mass_line(s: float) -> tuple[float, float]:
        """Best (alpha, beta) with (1-alpha) v + beta = s, i.e. beta = b0 + alpha v."""
        b0 = s - v
        q2 = ff - 2.0 * fh * v + hh * v * v
        q1 = 2.0 * (rf - rh * v - fh * b0 + hh * b0 * v)
        lo = max(0.0, 1.0 - s / v) if v > 0.0 else 0.0
        alpha = _argmin_quadratic(q2, q1, lo, 1.0)
        # beta >= 0 holds exactly; the clamp only absorbs rounding at alpha = lo.
        return alpha, max(0.0, b0 + alpha * v)

    candidates = [(0.0, 0.0)]
    if w.kind == "linear" or (w.kind == "power" and w.rate == 0.0):
        candidates += box_candidates(w.rate)
    elif w.kind == "custom":
        vk = np.array([k[0] for k in w.knots], dtype=float)
        wk = np.array([k[1] for k in w.knots], dtype=float)
        for rate in np.diff(wk) / np.diff(vk):
            candidates += box_candidates(float(rate))
        candidates += [on_mass_line(float(s)) for s in vk[1:-1]]
    else:
        # Any s with w(s) above the keep-f_prev objective cannot win.
        s_max = (objective(0.0, 0.0) / w.rate) ** 0.75
        candidates.append(on_mass_line(0.0))
        if s_max > 0.0:
            res = minimize_scalar(
                lambda s: objective(*on_mass_line(s)),
                bounds=(0.0, s_max),
                method="bounded",
                options={"xatol": 1e-12},
            )
            candidates.append(on_mass_line(float(res.x)))

    obj, alpha, beta = min((objective(a, b), a, b) for a, b in candidates)
    return alpha + 0.0, beta + 0.0, obj


# ----------------------------------------------------------------------------
# The pursuit itself
# ----------------------------------------------------------------------------


def fit_lpgp(data: Dataset, config: GreedyConfig) -> GreedyPath:
    """Run the pursuit for config.m_max steps on the dataset (deterministic per seed)."""
    X = np.atleast_2d(np.asarray(data.X, dtype=float))
    Y = np.asarray(data.Y, dtype=float)
    n = X.shape[0]
    X_lift = lift(X)
    act = Activation(config.activation)
    rng = np.random.default_rng(np.random.SeedSequence([int(data.seed) & (2**63 - 1), 104729]))

    cover_cache = _cover_cache_for(X_lift, act, config)

    model = RidgeModel()
    fitted = np.zeros(n)
    v_prev = 0.0
    records: list[GreedyStep] = []
    for m in range(1, config.m_max + 1):
        residual = Y - fitted
        # One n x K product scores the cover for both signs.
        scores = None if cover_cache is None else _score_cover(residual, cover_cache)
        pos = inner_maximize(
            residual, X_lift, config, rng, cover_cache=cover_cache, cover_scores=scores
        )
        neg = inner_maximize(
            -residual,
            X_lift,
            config,
            rng,
            cover_cache=cover_cache,
            cover_scores=None if scores is None else -scores,
        )
        if neg.value > pos.value:
            chosen, sign = neg, -1
        else:
            chosen, sign = pos, 1
        unit = RidgeUnit(activation=act, theta=chosen.theta, sign=sign)
        H = np.asarray(eval_unit(unit, X), dtype=float)
        alpha, beta, _ = line_search(fitted, H, Y, v_prev, config.w)

        terms = [((1.0 - alpha) * b, u) for b, u in model.terms] + [(beta, unit)]
        model = RidgeModel(terms=terms)
        fitted = (1.0 - alpha) * fitted + beta * H
        v_m = (1.0 - alpha) * v_prev + beta
        v_prev = v_m

        diagnostics = dict(chosen.diagnostics)
        diagnostics["cover_value"] = max(
            pos.diagnostics.get("cover_value", math.nan),
            neg.diagnostics.get("cover_value", math.nan),
        )
        resid_after = Y - fitted
        records.append(
            GreedyStep(
                m=m,
                model=model,
                v_m=v_m,
                alpha=alpha,
                beta=beta,
                inner_value=chosen.value,
                train_mse=float(resid_after @ resid_after) / n,
                penalty=float(config.w(v_m)),
                diagnostics=diagnostics,
            )
        )
    return GreedyPath(records=tuple(records))


# ----------------------------------------------------------------------------
# Guarantee evaluation
# ----------------------------------------------------------------------------


def greedy_b_f(v_f: float, norm_fstar: float, norm_f: float, c: float) -> float:
    """b_f = c^2 v_f^2 + 2 v_f ||f*|| (c+1) - ||f||^2."""
    return c**2 * v_f**2 + 2.0 * v_f * norm_fstar * (c + 1.0) - norm_f**2


def greedy_bound_rhs(
    dist_sq: float,
    v_f: float,
    norm_fstar: float,
    norm_f: float,
    c: float,
    m: int,
    w: CoefficientPenalty,
    refined: bool = False,
) -> float:
    """Guarantee right-hand side at step m for a competitor f.

    Plain form: dist_sq + w(c v_f) + 4 b_f / m.  Refined form replaces the
    first and last terms by (sqrt(dist_sq) + 2 (c+1) v_f / sqrt(m))^2.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if c < 1:
        raise ValueError(f"need c >= 1, got {c}")
    if dist_sq < 0:
        raise ValueError(f"need dist_sq >= 0, got {dist_sq}")
    if refined:
        return (math.sqrt(dist_sq) + 2.0 * (c + 1.0) * v_f / math.sqrt(m)) ** 2 + float(
            w(c * v_f)
        )
    b_f = greedy_b_f(v_f, norm_fstar, norm_f, c)
    return dist_sq + float(w(c * v_f)) + 4.0 * b_f / m


# ----------------------------------------------------------------------------
# CSV emission
# ----------------------------------------------------------------------------


def write_path_csv(
    path: GreedyPath, fp: IO[str], header_lines: Sequence[str] = ()
) -> None:
    """Write the iteration path as CSV with `#`-prefixed header comment lines."""
    rows = ([getattr(rec, c) for c in PATH_CSV_COLUMNS] for rec in path.records)
    write_csv(fp, PATH_CSV_COLUMNS, rows, header_lines)
