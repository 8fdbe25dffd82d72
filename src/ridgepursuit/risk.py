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
from dataclasses import dataclass, fields, replace
from typing import IO, Callable, Iterator, Sequence

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
    """Empirical loss summary for one fitted model against a known target;
    the losses are nan where no target or test design was given."""

    D_n: float = math.nan
    D_n_prime: float = math.nan
    P_n: float = math.nan
    P_n_prime: float = math.nan
    test_mse: float = math.nan
    m_hat: int | None = None
    pen_per_n: float = math.nan


@dataclass(frozen=True)
class CountableClassSpec:
    """A finite function class with codelength complexities.

    ``functions`` are batch callables (N, d) -> (N,) that act row by row:
    the value at a row depends on that row alone, so the Monte Carlo checks
    may evaluate them on any block of rows.  ``complexities`` L(g), finite
    and nonnegative, must satisfy sum_g e^{-L(g)} <= 1; ``sup_bound``, finite
    and nonnegative, bounds sup |g| over the class (used as the level K in
    the noise-correlation constant).
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
        bad = [L for L in self.complexities if not (L >= 0 and math.isfinite(L))]
        if bad:
            raise ValueError(f"complexities must be finite and nonnegative, got {bad[0]}")
        if not (self.sup_bound >= 0 and math.isfinite(self.sup_bound)):
            raise ValueError(f"need a finite sup_bound >= 0, got {self.sup_bound}")
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


RISK_CSV_COLUMNS = tuple(f.name for f in fields(RiskRow))


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
    else:
        report = LossReport()
    return truncated, replace(report, m_hat=best_m, pen_per_n=best_pen)


# ----------------------------------------------------------------------------
# Monte Carlo concentration checks
# ----------------------------------------------------------------------------

# Design cells per block of the Monte Carlo checks.  A block holds whole
# trials, one at least, so a check holds one block, whatever d is.  At
# n = 256 and 2,000 trials, d = 4 and d = 64, blocks of 2^16 cells ran as
# fast as 2^18 with a 45 MiB peak against 50 MiB; 2^20 peaked at 62-68 MiB
# and spent twice the CPU, its products large enough for BLAS to start a
# thread; 2^14 ran twice as long at d = 64.
_BLOCK_CELLS = 2**16


def _trials_per_block(n: int, d: int) -> int:
    """Whole trials (n x d design cells each) per block: as many as fit in
    _BLOCK_CELLS cells, and one if a trial is larger."""
    return max(1, _BLOCK_CELLS // (n * d))


def _trial_blocks(trials: int, n: int, d: int) -> Iterator[slice]:
    """Consecutive slices of ``_trials_per_block`` trials covering all."""
    step = _trials_per_block(n, d)
    for lo in range(0, trials, step):
        yield slice(lo, min(lo + step, trials))


def _mc_check_bytes(size: int, n: int, trials: int, d: int) -> float:
    """An upper bound on the bytes a Monte Carlo check over a class of
    ``size`` functions allocates: the per-trial maxima and their ``std``
    temporary, and one block of rows: its design or copy, twice over (a
    Rademacher draw makes an index array of the same size first), the
    class's values on it, and eight float64 temporaries a row."""
    rows = min(trials, _trials_per_block(n, d)) * n
    return 8.0 * (2 * trials + rows * (2 * d + size + 8))


def _sup_over_class(
    spec: CountableClassSpec,
    n: int,
    trials: int,
    d: int,
    design: str,
    rng: np.random.Generator,
    draw: Callable[[int, np.random.Generator], np.ndarray],
    stat: Callable[..., np.ndarray],
) -> tuple[float, float]:
    """(mean, SE) over trials of the supremum over the class of a per-trial
    statistic, in one pass over blocks of whole trials (``_trial_blocks``).

    ``rng`` gives two 64-bit words (``random_raw(2)``, which leaves a
    pending 32-bit half where it is) and nothing else.  They seed a
    SeedSequence whose two children seed two generators of ``rng``'s bit
    generator class: the first draws the trials * n x d design, and the
    second the second sample (the design's independent copy, or the noise)
    by ``draw(rows, second)``.  The checks need no more than that the two
    are independent.  Each generator draws its rows block by block, as one
    whole draw would give them.  Each block keeps the class's values on
    its design, drops the design, and folds ``stat(g, L, G, sample)``, the
    block's per-trial statistic with G the (trials, n) values of g on the
    block's design, into the running per-trial maximum.  So the check
    holds that maximum and one block, and no value of the class outside it.
    """
    seeds = np.random.SeedSequence(rng.bit_generator.random_raw(2)).spawn(2)
    first, second = (np.random.Generator(type(rng.bit_generator)(s)) for s in seeds)
    best = np.full(trials, -math.inf)
    # The design is deleted before the second sample is drawn, and both
    # before the next block, so one n x d array is held at a time.  Held
    # together, a design and its copy freed enough per block for the heap
    # to be trimmed and faulted back in: at d = 64, n = 256 and 2,000
    # trials, 112,000 page faults a check and up to half again the time.
    for block in _trial_blocks(trials, n, d):
        rows = (block.stop - block.start) * n
        X = _draw_design(rows, d, first, design)
        values = [np.asarray(g(X), dtype=float).reshape(-1, n) for g in spec.functions]
        del X
        sample = draw(rows, second)
        for G, g, L in zip(values, spec.functions, spec.complexities):
            np.maximum(best[block], stat(g, L, G, sample), out=best[block])
        del values, sample
    return float(best.mean()), float(best.std(ddof=1) / math.sqrt(trials))


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

    ``rng`` gives two 64-bit words, which seed the independent generators
    of X and X' (``_sup_over_class``).  One pass over blocks of whole trials
    holds the per-trial maxima, trials floats, and one block, however large
    d and the class are.
    """
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ValueError(f"need a finite gamma > 0, got {gamma}")
    if trials < 2:
        raise ValueError(f"need trials >= 2 for a standard error, got {trials}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = rng if rng is not None else np.random.default_rng()

    def stat(g, L, G, Xp):
        gsq = G**2
        gsq_p = np.asarray(g(Xp), dtype=float).reshape(-1, n) ** 2
        return (
            gsq_p.mean(axis=1)
            - gsq.mean(axis=1)
            - gamma * L / n
            - ((gsq - gsq_p) ** 2).mean(axis=1) / (2.0 * gamma)
        )

    def draw(rows, second):
        return _draw_design(rows, d, second, design)

    return _sup_over_class(spec, n, trials, d, design, rng, draw, stat)


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

    ``rng`` gives two 64-bit words, which seed the independent generators
    of X and the noise (``_sup_over_class``).  One pass over blocks of whole
    trials holds the per-trial maxima, trials floats, and one block, however
    large d and the class are.
    """
    if not (A > 0 and math.isfinite(A)):
        raise ValueError(f"need a finite A > 0, got {A}")
    if trials < 2:
        raise ValueError(f"need trials >= 2 for a standard error, got {trials}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = rng if rng is not None else np.random.default_rng()
    gamma = A * noise.variance / 2.0 + spec.sup_bound * noise.bernstein_eta

    def stat(g, L, G, eps):
        return (eps * G).mean(axis=1) - gamma * L / n - (G * G).mean(axis=1) / A

    def draw(rows, second):
        return noise.draw(rows, second).reshape(-1, n)

    return _sup_over_class(spec, n, trials, d, design, rng, draw, stat)


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
