"""Empirical losses, penalized model selection, and concentration certification.

For a fitted f and the regression function f*, with g = f - f* and noise
eps_i = Y_i - f*(X_i):

    D_n(f, f*)  = (1/n) sum_i (f(X_i) - f*(X_i))^2        (train design)
    D'_n(f, f*) = the same on the independent copy X'
    P_n(f||f*)  = (1/n) sum_i [(Y_i - f(X_i))^2 - (Y_i - f*(X_i))^2]
                = D_n(f, f*) - (2/n) sum_i eps_i g(X_i)    (exact identity)
    P'_n        = the P_n form with the test design X' and the train noise,
                  i.e. responses Y'_i = f*(X'_i) + eps_i, so E P'_n = ||g||^2.

Model selection minimizes train MSE + pen/n over a grid of pursuit sizes m and
returns the selected model truncated at the level B_n.  The two Monte Carlo
checks certify the symmetrization and noise-correlation devices behind the
risk bound: each estimates the expected supremum of a centered quantity that
the theory says is <= 0, over a finite function class with complexities
satisfying the codelength (Kraft) inequality sum_g e^{-L(g)} <= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import IO, Callable, Sequence

import numpy as np

from .dictionary import Activation, RidgeUnit, eval_unit
from .greedy import GreedyConfig, fit_lpgp
from .model import RidgeModel
from .penalty import PenaltyConfig, penalty_for_regime, tail_tn, truncate
from .targets import Dataset, Noise, _draw_design, gen_dataset, write_csv

__all__ = [
    "LossReport",
    "TruncatedModel",
    "CountableClassSpec",
    "RiskRow",
    "RISK_CSV_COLUMNS",
    "losses",
    "fit_and_select",
    "default_m_grid",
    "mc_symmetrization_check",
    "mc_noise_check",
    "risk_curve",
    "write_risk_csv",
    "shipped_class_specs",
]

RISK_CSV_COLUMNS = (
    "n",
    "d",
    "trial",
    "regime",
    "m_hat",
    "v_hat",
    "test_mse",
    "pen_per_n",
    "resolvability_proxy",
)


# ----------------------------------------------------------------------------
# Types
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncatedModel:
    """A fitted model clipped to [-level, level] pointwise."""

    model: RidgeModel
    level: float

    def __call__(self, x: np.ndarray) -> float | np.ndarray:
        return self.evaluate(x)

    def evaluate(self, x: np.ndarray) -> float | np.ndarray:
        return truncate(self.model.evaluate(x), self.level)

    @property
    def v(self) -> float:
        return self.model.v


@dataclass(frozen=True)
class LossReport:
    """Empirical loss summary for one fitted model against a known target."""

    D_n: float
    D_n_prime: float
    P_n: float
    P_n_prime: float
    test_mse: float
    m_hat: int | None = None
    pen_per_n: float = math.nan


@dataclass(frozen=True)
class CountableClassSpec:
    """A finite function class with codelength complexities.

    ``functions`` are batch callables (N, d) -> (N,); ``complexities`` L(g)
    must satisfy sum_g e^{-L(g)} <= 1; ``sup_bound`` bounds sup |g| over the
    class (used as the level K in the noise-correlation constant).
    """

    functions: tuple[Callable[[np.ndarray], np.ndarray], ...]
    complexities: tuple[float, ...]
    sup_bound: float

    def __post_init__(self) -> None:
        if len(self.functions) == 0:
            raise ValueError("class must contain at least one function")
        if len(self.functions) != len(self.complexities):
            raise ValueError(
                f"{len(self.functions)} functions but {len(self.complexities)} complexities"
            )
        if any(L < 0 for L in self.complexities):
            raise ValueError("complexities must be nonnegative")
        if self.sup_bound < 0:
            raise ValueError(f"need sup_bound >= 0, got {self.sup_bound}")
        if self.kraft_sum > 1.0 + 1e-12:
            raise ValueError(
                f"codelength inequality violated: sum e^-L = {self.kraft_sum} > 1"
            )

    @property
    def kraft_sum(self) -> float:
        return float(sum(math.exp(-L) for L in self.complexities))


@dataclass(frozen=True)
class RiskRow:
    """One (sample size, trial) record of the risk experiment."""

    n: int
    d: int
    trial: int
    regime: str
    m_hat: int
    v_hat: float
    test_mse: float
    pen_per_n: float
    resolvability_proxy: float


# ----------------------------------------------------------------------------
# Losses
# ----------------------------------------------------------------------------


def losses(model, target, data: Dataset, B_n: float | None = None) -> LossReport:
    """All four empirical losses of the model against the target on a dataset.

    ``model`` and ``target`` are batch callables.  The test MSE compares the
    (optionally truncated) model to the noise-free target on X'.
    """
    if data.X_prime is None:
        raise ValueError("dataset has no test design X'")
    X, Y, Xp = data.X, data.Y, data.X_prime
    fX = np.asarray(model(X), dtype=float)
    tX = np.asarray(target(X), dtype=float)
    fXp = np.asarray(model(Xp), dtype=float)
    tXp = np.asarray(target(Xp), dtype=float)
    eps = Y - tX

    g = fX - tX
    gp = fXp - tXp
    D_n = float(g @ g) / data.n
    D_n_prime = float(gp @ gp) / data.n
    P_n = float(np.mean((Y - fX) ** 2 - eps**2))
    Yp = tXp + eps  # train noise paired with test points
    P_n_prime = float(np.mean((Yp - fXp) ** 2 - (Yp - tXp) ** 2))
    shown = truncate(fXp, B_n) if B_n is not None else fXp
    test_mse = float(np.mean((shown - tXp) ** 2))
    return LossReport(
        D_n=D_n,
        D_n_prime=D_n_prime,
        P_n=P_n,
        P_n_prime=P_n_prime,
        test_mse=test_mse,
    )


# ----------------------------------------------------------------------------
# Model selection
# ----------------------------------------------------------------------------


def default_m_grid(m_max: int) -> tuple[int, ...]:
    """Geometric candidate sizes {0, 1, 2, 4, ...} up to and including m_max."""
    if m_max < 0:
        raise ValueError(f"need m_max >= 0, got {m_max}")
    grid = [0]
    k = 1
    while k <= m_max:
        grid.append(k)
        k *= 2
    if grid[-1] != m_max:
        grid.append(m_max)
    return tuple(grid)


def fit_and_select(
    data: Dataset,
    greedy_config: GreedyConfig,
    penalty_config: PenaltyConfig,
    m_grid: Sequence[int],
    target=None,
) -> tuple[TruncatedModel, LossReport]:
    """Fit the pursuit path, pick m minimizing train MSE + pen/n, truncate.

    Ties go to the smallest m.  When the generating target is supplied (and
    the dataset has a test design), the report carries the full loss summary;
    otherwise only the selection fields are populated.
    """
    grid = sorted(set(int(m) for m in m_grid))
    if not grid or grid[0] < 0:
        raise ValueError(f"m_grid must be nonempty with entries >= 0, got {m_grid!r}")
    run_config = replace(greedy_config, m_max=grid[-1])
    path = fit_lpgp(data, run_config)

    Y = np.asarray(data.Y, dtype=float)
    n, d = data.n, data.d
    T_n = tail_tn(Y, penalty_config.B_n)
    best_m, best_score, best_pen = None, math.inf, math.nan
    for m in grid:
        if m == 0:
            train = float(Y @ Y) / n
            v = 0.0
        else:
            rec = path.records[m - 1]
            train, v = rec.train_mse, rec.v_m
        pen = penalty_for_regime(penalty_config, v, n, d, T_n).pen_per_n
        score = train + (pen if math.isfinite(pen) else math.inf)
        if best_m is None or score < best_score:
            best_m, best_score, best_pen = m, score, pen

    model_hat = path.model_at(best_m)
    truncated = TruncatedModel(model=model_hat, level=penalty_config.B_n)
    if target is not None and data.X_prime is not None:
        report = losses(model_hat, target, data, B_n=penalty_config.B_n)
        report = replace(report, m_hat=best_m, pen_per_n=best_pen)
    else:
        report = LossReport(
            D_n=math.nan,
            D_n_prime=math.nan,
            P_n=math.nan,
            P_n_prime=math.nan,
            test_mse=math.nan,
            m_hat=best_m,
            pen_per_n=best_pen,
        )
    return truncated, report


# ----------------------------------------------------------------------------
# Monte Carlo concentration checks
# ----------------------------------------------------------------------------


def mc_symmetrization_check(
    spec: CountableClassSpec,
    gamma: float,
    n: int,
    trials: int,
    design: str = "uniform",
    d: int = 1,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Estimate E sup_g [D'_n(g) - D_n(g) - (gamma/n) L(g) - s^2(g)/(2 gamma)].

    D_n(g) and D'_n(g) average g^2 over a design and an independent copy;
    s^2(g) = (1/n) sum_i (g^2(X_i) - g^2(X'_i))^2.  The theory gives a
    nonpositive expectation for any positive gamma; returns (mean, SE).
    """
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


def mc_noise_check(
    spec: CountableClassSpec,
    A: float,
    n: int,
    trials: int,
    noise: Noise,
    design: str = "uniform",
    d: int = 1,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Estimate E sup_g [(1/n) sum_i eps_i g(X_i) - (gamma/n) L(g) - (1/(A n)) sum_i g^2(X_i)].

    gamma = A sigma^2 / 2 + K eta, with sigma^2 and eta the noise variance and
    moment-growth parameter and K the class sup bound.  Nonpositive in
    expectation for any A > 0; returns (mean, SE).
    """
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


def shipped_class_specs(d: int = 1) -> dict[str, CountableClassSpec]:
    """The finite classes used by the certification runs.

    ``zero``: the zero function alone.  ``singleton``: one bounded ridge sine
    unit.  ``pair``: two units with the uniform codelength log 2.
    """
    sine = Activation("sine")
    theta_a = np.append(np.full(d, 1.0 / d), 0.5)
    theta_b = np.append(np.full(d, -0.5 / d), 1.0)
    unit_a = RidgeUnit(sine, theta_a)
    unit_b = RidgeUnit(sine, theta_b, sign=-1)

    def as_fn(unit):
        return lambda X, _u=unit: np.asarray(eval_unit(_u, X), dtype=float)

    zero = CountableClassSpec(
        functions=(lambda X: np.zeros(np.atleast_2d(X).shape[0]),),
        complexities=(0.0,),
        sup_bound=0.0,
    )
    singleton = CountableClassSpec(
        functions=(as_fn(unit_a),), complexities=(0.0,), sup_bound=1.0
    )
    pair = CountableClassSpec(
        functions=(as_fn(unit_a), as_fn(unit_b)),
        complexities=(math.log(2.0), math.log(2.0)),
        sup_bound=1.0,
    )
    return {"zero": zero, "singleton": singleton, "pair": pair}


# ----------------------------------------------------------------------------
# Risk experiment
# ----------------------------------------------------------------------------


def risk_curve(
    target,
    n_grid: Sequence[int],
    d: int,
    regime: str,
    trials: int,
    greedy_config: GreedyConfig,
    penalty_config: PenaltyConfig,
    noise: Noise,
    seed: int = 0,
    design: str = "uniform",
    m_grid: Sequence[int] | None = None,
    oracle_v: float | None = None,
) -> list[RiskRow]:
    """Run fit_and_select over fresh datasets for every (n, trial) pair.

    The resolvability proxy evaluates approximation error + pen/n at the
    oracle coefficient mass: when the target itself is a dictionary model the
    approximation error is 0 and oracle_v defaults to its mass; otherwise
    supply oracle_v (the proxy is NaN without it).
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    pconfig = replace(penalty_config, regime=regime)
    if oracle_v is None and isinstance(target, RidgeModel):
        oracle_v = target.v
    grid = tuple(m_grid) if m_grid is not None else default_m_grid(greedy_config.m_max)

    def one(n: int, trial: int) -> RiskRow:
        seed_i = int(np.random.SeedSequence([seed, n, trial]).generate_state(1)[0])
        data = gen_dataset(target, n, d, noise, seed_i, design=design)
        truncated, report = fit_and_select(data, greedy_config, pconfig, grid, target=target)
        if oracle_v is not None:
            T_n = tail_tn(data.Y, pconfig.B_n)
            proxy = penalty_for_regime(pconfig, oracle_v, n, d, T_n).pen_per_n
        else:
            proxy = math.nan
        return RiskRow(
            n=n,
            d=d,
            trial=trial,
            regime=regime,
            m_hat=int(report.m_hat),
            v_hat=truncated.v,
            test_mse=report.test_mse,
            pen_per_n=report.pen_per_n,
            resolvability_proxy=proxy,
        )

    return [one(n, trial) for n in sorted(n_grid) for trial in range(trials)]


def write_risk_csv(
    rows: Sequence[RiskRow], fp: IO[str], header_lines: Sequence[str] = ()
) -> None:
    """Write risk rows as CSV with `#`-prefixed header comment lines."""
    cells = ([getattr(r, c) for c in RISK_CSV_COLUMNS] for r in rows)
    write_csv(fp, RISK_CSV_COLUMNS, cells, header_lines)
