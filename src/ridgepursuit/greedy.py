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

The inner maximizer searches the signed dictionary {+-phi(theta . x)}: one
call returns the best unit and its sign, by exhaustive search over an
enumerated cover of the l1 ball (``dictionary.SparseCover``) or by
projected-gradient ascent restarted from the best cover points of each sign
(``_ascend_batch``).  Every search has a cover: the configured one or, when
projected gradient's is over the cap, the vertex cover {+-lam e_j, 0}.  No
random number is drawn, so a fit depends on its data and configuration
alone.

Each step scores every cover unit once, approximately, from a float32 cache
of half the cover's values built once per fit, and re-scores in float64
only the units a certified rounding bound cannot rule out, so every
decision taken from the cover scores (the exhaustive argmax, the
``cover_value`` diagnostic and the restart seeds) is the one a float64
score of every unit gives.  For the odd activations (sine, tanh) the -R
search mirrors the +R one, so only +R is searched.  The line search is
exact and in closed form for every kind of w, and takes its inner products
from the residual and fitted values that the fit updates in place.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import os
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np

from .dictionary import (
    Activation,
    CoverSizeError,
    FieldError,
    RidgeUnit,
    SparseCover,
    cover_bytes,
    cover_counts,
    enumerate_cover,
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

INNER_STRATEGIES = ("cover-exhaustive", "projected-gradient")

PATH_CSV_COLUMNS = ("m", "v_m", "alpha", "beta", "inner_value", "train_mse", "penalty", "objective")


# ----------------------------------------------------------------------------
# Coefficient-mass penalties w(v)
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientPenalty:
    """Nonnegative convex penalty w(v) of the coefficient mass, v >= 0.

    kinds: ``linear`` w(v) = rate * v; ``power`` w(v) = rate * v^(4/3);
    ``custom`` piecewise-linear through ``knots`` (extended beyond the knot
    range with the boundary slopes, which preserves convexity).  ``slopes``
    and ``breaks`` are set once, at construction: custom w's segment slopes
    and interior knot positions, and (rate,) and () for linear and power w.
    Linear and power w need 0 <= rate < inf: a nan or infinite rate makes
    w(0) nan.
    """

    kind: str
    rate: float = 0.0
    knots: tuple[tuple[float, float], ...] = ()
    slopes: tuple[float, ...] = field(init=False, repr=False, compare=False)
    breaks: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        slopes, breaks = (self.rate,), ()
        if self.kind in ("linear", "power"):
            if not 0.0 <= self.rate < math.inf:
                raise ValueError(f"need 0 <= rate < inf, got {self.rate}")
        elif self.kind == "custom":
            if len(self.knots) < 2:
                raise ValueError("custom penalty needs at least 2 knots")
            vk = np.array([k[0] for k in self.knots], dtype=float)
            wk = np.array([k[1] for k in self.knots], dtype=float)
            if vk[0] < 0:
                raise ValueError("knot positions must lie in [0, inf)")
            if np.any(np.diff(vk) <= 0):
                raise ValueError("knot positions must be strictly increasing")
            with np.errstate(over="ignore", invalid="ignore"):
                slopes = np.diff(wk) / np.diff(vk)
            if not np.isfinite(np.concatenate([vk, wk, slopes])).all():
                raise ValueError("knots and the slopes between them must be finite")
            if np.any(np.diff(slopes) < -1e-12):
                raise ValueError("knot values are not convex (slopes must be nondecreasing)")
            if slopes[-1] < 0:
                raise ValueError("final slope must be >= 0 (penalty would go negative)")
            if np.any(wk < 0) or wk[0] - slopes[0] * vk[0] < 0:
                raise ValueError("penalty values must stay nonnegative on [0, inf)")
            slopes, breaks = tuple(slopes.tolist()), tuple(vk[1:-1].tolist())
        else:
            raise ValueError(
                f"unknown penalty kind {self.kind!r}; expected linear, power, or custom"
            )
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "breaks", breaks)

    def __call__(self, v: np.ndarray | float) -> np.ndarray | float:
        """w(v): a float for a scalar or 0-d v, else an array of v's shape
        whose every entry is w of that entry as a float, bit for bit."""
        if isinstance(v, float):
            return self._at(float(v))
        arr = np.asarray(v, dtype=float)
        out = [self._at(x) for x in arr.ravel().tolist()]
        return out[0] if arr.ndim == 0 else np.array(out).reshape(arr.shape)

    def _at(self, v: float) -> float:
        """w(v) for one float, by one formula per kind.

        v is clamped at 0 as np.maximum(v, 0.0) clamps it: -0.0 becomes 0.0
        and nan stays nan.  Power w raises a numpy float64, which overflows
        to inf where a float power would raise; numpy's array power can
        differ from it in the last bit.  Custom w is np.interp's
        w_j + slope_j (v - v_j) on the segment j holding v (the first or last
        segment outside the knots), taken from the last knot for v at or
        past it, where np.interp returns that knot's value.
        """
        x = 0.0 if v <= 0.0 else v
        if self.kind == "linear":
            return self.rate * x
        if self.kind == "power":
            return self.rate * float(np.float64(x) ** (4.0 / 3.0))
        j = bisect.bisect_right(self.breaks, x)
        v0, w0 = self.knots[j + 1] if x >= self.knots[-1][0] else self.knots[j]
        return w0 + self.slopes[j] * (x - v0)


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
    the inner maximizer; ``restarts`` is the number of projected-gradient
    ascents per search, started from the ``restarts`` best-scoring cover
    points (all of them if the cover is smaller) per sign of the residual;
    the restarts of both signs run as one batch in blocks of at most
    ``_BLOCK_CELLS // max(n, D + 1)`` rows on an n x D design.
    ``cover_m_grid`` sets the cover resolution used for exhaustive search,
    the restart inits, and the ``cover_value`` diagnostic; ``cover_cap``
    bounds its multiset count (C(2D + m_grid, m_grid)).  Over the cap, or
    when a search over it (its value cache, entries and step arrays) would
    not fit the memory the process can allocate, exhaustive search raises
    CoverSizeError and projected gradient seeds from the vertex cover
    (m_grid = 1, 2D + 1 rows, built without the cap).
    Each step searches both signs of the residual, except for the odd
    activations (sine, tanh), where the -R search is the +R one mirrored and
    only +R is searched.  ``c_report`` is inert: no code reads it, and every
    strategy builds and scores a cover.
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


@dataclass(frozen=True)
class GreedyStep:
    """One pursuit step: the unit it added and its bookkeeping.

    A step stores its unit h_m and the line-search pair (alpha_m, beta_m),
    not a copy of the model; ``previous`` links it to step m - 1, so the
    records of a path hold O(1) state per step.  ``model`` (f_m) is built
    the first time it is read, by replaying steps 1..m in order, and then
    cached.  Each weight beta_j is scaled by (1 - alpha_{j+1}), ...,
    (1 - alpha_m) in step order, the chain of products of the step
    recurrence, so the model is bit for bit the one an eager rebuild at
    every step gives.
    """

    m: int
    unit: RidgeUnit
    v_m: float
    alpha: float
    beta: float
    inner_value: float
    train_mse: float
    penalty: float
    diagnostics: dict = field(repr=False, default_factory=dict)
    previous: GreedyStep | None = field(default=None, repr=False, compare=False)

    @property
    def objective(self) -> float:
        return self.train_mse + self.penalty

    @functools.cached_property
    def model(self) -> RidgeModel:
        """The iterate f_m, built on first read and cached."""
        steps = []
        step: GreedyStep | None = self
        while step is not None:
            steps.append(step)
            step = step.previous
        steps.reverse()
        weights = np.empty(len(steps))
        for j, step in enumerate(steps):
            weights[:j] *= 1.0 - step.alpha
            weights[j] = step.beta
        return RidgeModel(terms=list(zip(weights.tolist(), [step.unit for step in steps])))


@dataclass(frozen=True)
class GreedyPath:
    """The full iteration path of one pursuit run.

    ``model_at(m)`` is ``records[m - 1].model``: built on first read from
    the recorded units and line-search pairs, and cached on the step.
    """

    records: tuple[GreedyStep, ...]

    @property
    def final_model(self) -> RidgeModel:
        return self.records[-1].model if self.records else RidgeModel()

    def model_at(self, m: int) -> RidgeModel:
        """The iterate after m steps (m = 0 is the zero model)."""
        if m == 0:
            return RidgeModel()
        return self.records[m - 1].model


# ----------------------------------------------------------------------------
# Inner maximization
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class InnerResult:
    """Outcome of one signed inner maximization.

    The best unit is sign * phi(theta . x), with correlation ``value`` >= 0
    against the residual.  ``diagnostics["n_candidates"]`` counts every
    candidate scored, over both signs; ``diagnostics["cover_value"]`` is the
    best signed cover score, always finite, since every search scores a
    cover (0 when the residual is zero).
    """

    theta: np.ndarray
    value: float
    sign: int
    diagnostics: dict


@dataclass(frozen=True)
class _CoverCache:
    """A search's cover and the float32 values of its first K//2 rows (row
    K-1-k is -(row k), the middle row 0), unit-major in blocks of
    _SCORE_ROWS design rows: ``values[b][k, i]`` = phi(theta_k .
    X_{b _SCORE_ROWS + i}).  ``_score_cover`` derives approximate scores of
    every row from them, within ``unit_error * ||R||_1 / n + floor_error``
    of the float64 scores of ``_rescore_cover``.
    """

    cover: SparseCover
    values: tuple[np.ndarray, ...]  # float32 (K//2, <= _SCORE_ROWS) blocks, in design order
    XT: np.ndarray  # (D, n) float64, contiguous: the design's columns
    activation: Activation
    unit_error: float  # the certified score error per unit of ||R||_1 / n
    floor_error: float  # the certified score error from underflow, for any R


# Cells per block of a float64 re-score or of the restart batch: small enough
# that the activation runs on a block still in cache, large enough that each
# product stays efficient.
_BLOCK_CELLS = 2**20

# Design rows per block of the float32 cache, and so per float32 partial sum
# of the cover scores; the partial sums are added in float64, so the float32
# rounding grows with this count, not with n.
_SCORE_ROWS = 1024

# Allowance, in units of the float32 spacing at 1, for the rounding of
# numpy's sine and tanh (measured within 1.5 ulp); the float64 ones get the
# same allowance in units of the float64 spacing at 1.
_ACT_ULPS = 4


def _gamma(k: int, u: float) -> float:
    """gamma_k = k u / (1 - k u), the relative error bound of k roundings."""
    return k * u / (1.0 - k * u)


def _value_error(
    m_grid: int, lam: float, xmax: float, activation: Activation
) -> tuple[float, float]:
    """(value_error, top): the bound on |cached value - phi(theta . x)|, the
    float64 cover row theta against the exact product, and the bound M' on
    every |cached value|; see ``_score_cover``."""
    u, eta = 2.0**-24, 2.0**-126  # float32 unit roundoff, smallest normal float32
    reach = lam * xmax  # >= |x . theta| for every row x and cover row theta
    bound = reach if activation.kind == "ramp" else 1.0
    g = _gamma(m_grid + 3, u)
    under = eta * (3 * m_grid + 1) * (1.0 + g)  # A
    value_error = g * reach + under
    if activation.kind != "ramp":
        value_error = min(value_error + _ACT_ULPS * 2.0**-23, 2.0)
    return value_error, (1.0 + g) * bound + under


def _score_error(
    n: int, D: int, m_grid: int, lam: float, xmax: float, activation: Activation
) -> tuple[float, float]:
    """The bound e of ``_score_cover`` as (unit_error, floor_error): e is
    unit_error * ||R||_1 / n + floor_error; see there."""
    u, u64 = 2.0**-24, 2.0**-53
    eta, eta64 = 2.0**-126, 2.0**-1022  # the smallest normal float32, float64
    c = min(n, _SCORE_ROWS)
    reach = lam * xmax
    bound = reach if activation.kind == "ramp" else 1.0
    value_error, top = _value_error(m_grid, lam, xmax, activation)
    rounding32 = value_error + _gamma(c + 1, u) * top
    rounding64 = (
        4.0 * _gamma(n + 2 * D + 16, u64) * (reach + bound)
        + 2.0 * _ACT_ULPS * 2.0**-52
        + 2.0 * eta64 * (lam + D * xmax + 3 * D) * (1.0 + _gamma(D + 2, u64))
    )
    unit_error = (rounding32 + rounding64) * (1.0 + 2.0**-20)
    floor32 = eta * (top + 2.0) * (1.0 + _gamma(c, u))
    floor64 = eta64 * (4.0 * lam + 2 * D + 16 + unit_error)
    return unit_error, (floor32 + floor64) * (1.0 + 2.0**-20)


_MEMINFO = "/proc/meminfo"  # the kernel's memory counters


def _available_memory() -> float | None:
    """The kernel's estimate of the bytes new allocations can take without
    swapping (MemAvailable in _MEMINFO), or None where it cannot be read."""
    try:
        with open(_MEMINFO, encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return 1024.0 * int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


def _memory_budget() -> float:
    """The bytes a new array may take: the memory available to new
    allocations (``_available_memory``, else physical memory) and, under a
    finite RLIMIT_AS, the address space the process has left.  A bound the
    platform cannot report is not applied."""
    budget = _available_memory()
    try:
        page = os.sysconf("SC_PAGE_SIZE")
        if budget is None:
            budget = float(page * os.sysconf("SC_PHYS_PAGES"))
        import resource

        limit = resource.getrlimit(resource.RLIMIT_AS)[0]
        if limit != resource.RLIM_INFINITY:
            with open("/proc/self/statm", encoding="ascii") as fh:
                used = int(fh.read().split()[0]) * page
            budget = min(budget, float(limit - used))
    except (AttributeError, ValueError, ImportError, OSError):
        pass
    return math.inf if budget is None else budget


def _rescore_rows(n: int, D: int) -> int:
    """Rows per block of a float64 re-score or of the restart batch: the
    block's parameters (D entries per row) and its values on the design
    (n per row) each take at most _BLOCK_CELLS cells."""
    return max(1, _BLOCK_CELLS // max(n, D + 1))


def _cover_bytes(n: int, D: int, m_grid: int, K: int, restarts: int = 0) -> float:
    """An upper bound on the bytes a search over the cover of (D, m_grid),
    of K rows, allocates on an n x D design, with ``restarts`` projected
    gradient ascents per sign (0 for exhaustive search).

    It holds the half cache, the float64 design copy and what the cover
    holds and allocates itself (``cover_bytes``); at each step the scores,
    rankings and restart order over the cover (at most ten float64 or int64
    arrays of K entries) and one re-score block, its decoded rows and their
    values; and, with restarts, one restart block of at most 2 min(restarts,
    K) rows and at most the re-score block's.  While ``_ascend_batch``
    projects a block's candidates, ten arrays of the block's (rows, D) shape
    are live, its inits among them, and three of (rows, n).  Thirteen of (rows,
    D + n) are counted, three for the freed blocks the allocator keeps
    resident: at n = 8, D = 2001 and 2,000 restarts per sign one fit's peak
    RSS grows by 92 to 100 MiB, and the bound reads 113 MiB.
    """
    block = min(K, _rescore_rows(n, D))
    batch = min(2 * min(restarts, K), _rescore_rows(n, D))
    return (
        4.0 * n * (K // 2)
        + 8.0 * n * D
        + cover_bytes(D, m_grid, min(n, _SCORE_ROWS))
        + 80.0 * K
        + 8.0 * block * (D + 1 + n + 2 * m_grid)
        + 104.0 * batch * (D + n)
    )


def _build_cover_cache(
    X: np.ndarray, activation: Activation, m_grid: int, lam: float, cap: int, restarts: int = 0
) -> _CoverCache:
    """The cover of (D = X's columns, m_grid, lam) and its half cache on X.

    Its bytes, with those of a search running ``restarts`` ascents per sign
    from it, are bounded before any array exists (``_cover_bytes``).  Over
    the cap, or over the memory the process can allocate
    (``_memory_budget``), it raises CoverSizeError.  Each block of
    _SCORE_ROWS design rows is the cover's ``half_values`` on those rows,
    with phi applied in place.
    """
    n, D = X.shape
    _, K = cover_counts(D, m_grid, lam, cap)
    need = _cover_bytes(n, D, m_grid, K, restarts)
    budget = _memory_budget()
    if need > budget:
        raise CoverSizeError(
            "cover_m_grid",
            f"the cover of m_grid = {m_grid} at D = {D} has {K} rows, and its value cache "
            f"on n = {n} rows needs {need:.3g} bytes, above the {budget:.3g} this process "
            f"can allocate"
        )
    cover = enumerate_cover(D, m_grid, lam, cap=cap)
    XT = np.ascontiguousarray(X.T)
    blocks = []
    with np.errstate(over="ignore", invalid="ignore"):
        for row in range(0, n, _SCORE_ROWS):
            block = cover.half_values(XT[:, row : row + _SCORE_ROWS])
            blocks.append(activation(block, out=block))
    xmax = float(max(X.max(initial=0.0), -X.min(initial=0.0)))  # max |X_ij|, with no copy of X
    unit_error, floor_error = _score_error(n, D, m_grid, lam, xmax, activation)
    return _CoverCache(cover, tuple(blocks), XT, activation, unit_error, floor_error)


def _cover_cache_for(X: np.ndarray, activation: Activation, config: GreedyConfig) -> _CoverCache:
    """The cover cache of a search: the one place that picks its cover.

    That is the configured cover (``cover_m_grid``, capped at ``cover_cap``
    multisets and at the memory the process can allocate).  Exhaustive
    search cannot run without it, so an over-cap cover raises
    CoverSizeError there; projected gradient, which uses the cover for its
    restart seeds and the c diagnostic, falls back to the vertex cover
    lam * {+-e_j, 0}, the m_grid = 1 cover, whose 2D + 1 rows of one entry
    each are built without the cap (but not without the memory bound).
    """
    restarts = config.restarts if config.strategy == "projected-gradient" else 0
    try:
        return _build_cover_cache(
            X, activation, config.cover_m_grid, config.lam, config.cover_cap, restarts
        )
    except CoverSizeError:
        if config.strategy == "cover-exhaustive":
            raise
        return _build_cover_cache(X, activation, 1, config.lam, 2 * X.shape[1] + 1, restarts)


def _score_cover(
    R: np.ndarray, cover_cache: _CoverCache, r_l1: float
) -> tuple[np.ndarray, float]:
    """Approximate (1/n) sum_i R_i h_k(X_i) for every cover unit k, in cover
    order, and a bound e on the error of each against ``_rescore_cover``.
    ``r_l1`` is ||R||_1, as ``inner_maximize`` computes it.

    A float32 product of each cached block with R's rows gives the sums s_k
    of the first K/2 rows, and the partial sums are added in float64.  Row
    K-1-k is -(row k): its sum is -s_k for the odd activations (sine, tanh)
    and, since ramp(-u) = ramp(u) - u, s_k - (row k) . (X^T R) for the
    ramp, that term in float64 from the cover's ``half_dots``.
    The middle row is 0 and sums to 0.  The sums are written into one array
    and divided by n in place.

    The bound (Higham, Accuracy and Stability of Numerical Algorithms, 3.1
    and 2.1 for underflow).  Let u = 2^-24, gamma_k = k u / (1 - k u), D the
    columns of X, c the rows per partial sum (n if fewer), xmax = max |X_ij|,
    q = lam / m_grid, lam >= ||theta_k||_1 and M >= |phi(X_i . theta_k)|:
    lam xmax for the ramp, 1 for sine and tanh.  A float32 rounding or
    operation has relative error at most u, plus an absolute error below
    eta = 2^-126 (the smallest normal float32) when its result underflows,
    with gradual underflow or with flush to zero.  Row k is q sum_s c_s e_j_s
    over at most m_grid entries with sum_s |c_s| <= m_grid, and its float64
    row theta_k has entries fl(c_s q), within u' = 2^-53 of c_s q.  Its
    cached value is phi of the float32 sum over its entries of c_s x~_j_s,
    x~_j = fl32(fl(X_ij q)): per entry two roundings of the input, one of
    the product by c_s and at most m_grid - 1 of the sum, so with the u'
    of theta the value is within gamma_{m_grid+3} sum_s |c_s q X_ij_s| + A
    <= gamma_{m_grid+3} lam xmax + A of X_i . theta_k, where A = eta
    (3 m_grid + 1) (1 + gamma_{m_grid+3}) bounds the underflow of the inputs
    (eta |c_s| each, plus the float64 product's), the products and the
    sums; phi is 1-Lipschitz.  The float32 ramp max(., 0) is exact; the
    float32 sine and tanh add at most _ACT_ULPS float32 spacings at 1, and
    their values stay in [-1, 1], so the value error is at most 2 there
    (``_value_error``).  Every cached value is then at most
    M' = (1 + gamma_{m_grid+3}) M + A in magnitude.  Rounding R to float32
    and a float32 dot product over c rows add gamma_{c+1} sum_i |R_i| |v_ik|
    <= gamma_{c+1} ||R||_1 M', plus an underflow of at most eta |v_ik| from
    rounding R_i and eta for each of its product and sum, 2 + M' times
    eta (1 + gamma_c) per row.  So

        |approx - exact| <= ||R||_1 / n * (gamma_{m_grid+3} lam xmax + A + a_phi
                            + gamma_{c+1} M')  +  eta (M' + 2) (1 + gamma_c)

    with a_phi = 0 for the ramp, _ACT_ULPS 2^-23 for sine and tanh (and the
    first three terms capped at 2 there).  The float64 steps, on both sides
    (the direct scores of ``_rescore_cover``, the float64 sum of the partial
    sums and the ramp's linear term), add 4 gamma'_{n+2D+16} (lam xmax + M),
    2 _ACT_ULPS 2^-52 and A' = 2 eta' (lam + D xmax + 3D) (1 + gamma'_{D+2})
    (the float64 A of both sides) per unit of ||R||_1 / n, with gamma' taken
    at u', and an underflow below eta' (4 lam + 2D + 16 + that unit error),
    eta' = 2^-1022, which also covers the underflow of ||R||_1 and of the
    re-score thresholds.  e, computed in float64, is inflated by 1 + 2^-20
    to cover its own rounding and that of the thresholds; its R-free part is
    ``floor_error``, so when R, theta or X is so small that the scores sit
    near the underflow range, e covers them all and every unit is
    re-scored.  A score or e that is not finite certifies nothing;
    ``_rescore_set`` then keeps every unit.
    """
    values = cover_cache.values
    n, half = R.shape[0], values[0].shape[0]
    scores = np.zeros(2 * half + 1)
    first, mirror = scores[:half], scores[: half : -1]  # rows k and K-1-k
    with np.errstate(over="ignore", invalid="ignore"):
        R32 = R.astype(np.float32)
        for row, block in zip(range(0, n, _SCORE_ROWS), values):
            first += block @ R32[row : row + _SCORE_ROWS]
        if cover_cache.activation.kind == "ramp":
            np.subtract(first, cover_cache.cover.half_dots(cover_cache.XT @ R), out=mirror)
        else:
            np.negative(first, out=mirror)
        scores /= n
    err = cover_cache.unit_error * r_l1 / n + cover_cache.floor_error
    return scores, err


def _rescore_set(scores: np.ndarray, err: float, top: int, both: bool) -> np.ndarray:
    """The cover units whose exact score may rank in the ``top`` of a sign.

    A unit is kept if its approximate score is within 2 err of the top-th
    largest approximate score of +R or, when ``both``, of -R.  Every score
    is within err of its exact value, so a unit left out scores strictly
    below ``top`` kept units of each sign, exactly: the exact argmax and
    stable top set of each sign lie in the kept set, in the same order.
    Returns ascending indices; all of them when a score or err is not
    finite.
    """
    K = scores.shape[0]
    lo, hi = float(scores.min()), float(scores.max())  # nan if any score is nan
    if not (math.isfinite(err) and math.isfinite(lo) and math.isfinite(hi)):
        return np.arange(K)
    if top > 1:
        part = np.partition(scores, (top - 1, K - top))
        lo, hi = float(part[top - 1]), float(part[K - top])
    keep = scores >= hi - 2.0 * err
    if both:
        keep |= scores <= lo + 2.0 * err
    return keep.nonzero()[0]


def _rescore_cover(R: np.ndarray, cover_cache: _CoverCache, idx: np.ndarray) -> np.ndarray:
    """(1/n) sum_i R_i h(X_i) in float64 for the cover units idx.

    Each unit is evaluated directly, phi(theta . X_i) for every row and then
    its dot product with R, in blocks of ``_rescore_rows`` units decoded
    where they are scored.  Both products run one unit at a time (the rows
    of one product, then a stack of one dot product per row), so a unit's
    score does not depend on which other units share its call or block.
    """
    n = R.shape[0]
    block = _rescore_rows(n, cover_cache.cover.d)
    exact = np.empty(idx.shape[0])
    for start in range(0, idx.shape[0], block):
        Z = cover_cache.cover.rows(idx[start : start + block]) @ cover_cache.XT
        cover_cache.activation(Z, out=Z)
        exact[start : start + block] = (Z[:, None, :] @ R)[:, 0] / n
    return exact


def project_l1(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the l1 ball of the given radius (sort-based).

    ``v`` is one vector or a (k, D) stack whose rows are projected one by
    one (Duchi et al. 2008): every row is shrunk, and the rows already
    inside the ball are then copied back as they are.
    """
    v = np.asarray(v, dtype=float)
    rows = np.atleast_2d(v)
    mag = np.abs(rows)
    inside = ~(mag.sum(axis=1) > radius)
    out = _shrink_l1(rows, mag, radius)
    np.copyto(out, rows, where=inside[:, None])
    return out if v.ndim > 1 else out[0]


def _shrink_l1(rows: np.ndarray, mag: np.ndarray, radius: float) -> np.ndarray:
    """Soft-threshold each row of a stack onto the l1 sphere.

    ``mag`` is ``abs(rows)``; it is overwritten with the result, which is
    the projection for the rows whose l1 norm exceeds ``radius``.  The arithmetic runs in place, and the
    sign is np.sign(rows) times the shrunk magnitude, so a zero keeps the
    sign that product gives (np.copysign would carry the input's instead).
    """
    D = rows.shape[1]
    u = np.sort(mag, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    css -= radius
    u *= np.arange(1.0, D + 1.0)
    # The last index where u_j j > css_j - radius; index 0 always qualifies.
    rho = D - 1 - np.argmax((u > css)[:, ::-1], axis=1)
    tau = css[np.arange(rho.shape[0]), rho] / (rho + 1.0)
    mag -= tau[:, None]
    np.maximum(mag, 0.0, out=mag)
    mag *= np.sign(rows)
    return mag


def _searches_both_signs(act: Activation) -> bool:
    """Whether a step must search -R as well as +R.

    For an odd activation (sine, tanh) the -R search is the +R search
    mirrored: its cover scores are +R's reversed, so it starts from the
    mirror rows -theta_0 and ends at -theta with the same value, and never
    strictly beats +R.  The ramp is not odd, so it keeps the second search.
    """
    return act.kind == "ramp"


def inner_maximize(
    R: np.ndarray,
    X: np.ndarray,
    config: GreedyConfig,
    cover_cache: _CoverCache | None = None,
) -> InnerResult:
    """Maximize (1/n) sum_i s R_i phi(theta . X_i) over s = +-1, ||theta||_1 <= lam.

    The columns of X are the literal inner-product inputs: append a constant
    column upstream to give the units a bias slot.  The returned value
    dominates every candidate examined and is always >= 0 because theta = 0
    (the zero function) is a candidate.  -R is searched too unless
    ``_searches_both_signs`` says it mirrors +R; the cover is scored once,
    and the -R scores are the negated +R scores.  Without ``cover_cache``
    the call builds the one ``_cover_cache_for`` picks.  ``fit_lpgp`` passes
    its residual Y - f_{m-1}(X), the lifted design and the cover cache it
    builds once per fit; the search then reads the activation from that
    cache.

    ||R||_1 is computed once: R = 0 (every entry +-0) returns the zero unit
    with ``n_candidates`` 1 before any cover is built, and otherwise it sets
    the error bound of the cover scores.  A residual whose ||R||_1 is not
    finite (a nan or infinite entry, or finite entries whose l1 norm
    overflows) raises ValueError, as does one whose shape does not match X.

    The cover scores are approximate, each within a certified e of its
    float64 value (``_score_cover``).  With t = 1 for exhaustive search and
    t = min(restarts, K) for projected gradient, every unit whose signed
    approximate score is within 2e of its sign's t-th largest is re-scored
    in float64 (``_rescore_set``, ``_rescore_cover``); no other unit can
    reach a sign's top t.  Each sign's re-scored units are ranked once by
    those float64 scores, best first and ties in cover order: the first is
    the sign's cover argmax, the first t its restart seeds, and
    ``cover_value`` is the best of the argmaxes.  These are the decisions a
    float64 score of every cover unit gives.

    Projected gradient runs the +R restarts and then the -R restarts as one
    batch (``_ascend_batch``, one sign per row), in blocks of
    ``_rescore_rows`` rows, so a block may straddle the two signs.  A
    block's inits are taken when it runs, so memory is bounded by the block
    and the cover, not by ``restarts``.  The winner is the first strict
    maximum over the zero unit, the +R cover argmax, the +R restarts, the -R
    cover argmax and the -R restarts, in that order.
    """
    R = np.asarray(R, dtype=float)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, D = X.shape
    if R.shape != (n,):
        raise ValueError(f"residual shape {R.shape} does not match design rows {n}")
    abs_R = np.abs(R)
    with np.errstate(over="ignore"):
        r_l1 = float(abs_R.sum())
    if not math.isfinite(r_l1):
        raise ValueError(f"the residual's l1 norm must be finite, got {r_l1}")
    diagnostics: dict = {"cover_value": 0.0, "n_candidates": 1}

    if r_l1 == 0.0:
        return InnerResult(np.zeros(D), 0.0, 1, diagnostics)

    if cover_cache is None:
        cover_cache = _cover_cache_for(X, Activation(config.activation), config)
    act, cover = cover_cache.activation, cover_cache.cover
    both = _searches_both_signs(act)
    K = cover.n_distinct
    # Per sign, the restarts (none for exhaustive search).
    count = min(config.restarts, K) if config.strategy == "projected-gradient" else 0
    scores, err = _score_cover(R, cover_cache, r_l1)
    idx = _rescore_set(scores, err, max(count, 1), both)
    exact = _rescore_cover(R, cover_cache, idx)
    # Per sign, the re-scored units best first, ties in cover order: the
    # first is the cover argmax, the first ``count`` are the restart seeds.
    # -R's scores are -exact, so its ranking is the ascending sort of exact.
    ranks = [(-exact).argsort(kind="stable")]
    heads = [float(exact[ranks[0][0]])]
    if both:
        ranks.append(exact.argsort(kind="stable"))
        heads.append(-float(exact[ranks[1][0]]))
    diagnostics["cover_value"] = max(heads)
    total = len(ranks) * count
    diagnostics["n_candidates"] += len(ranks) * K + total

    def restarts():
        order = np.concatenate([idx[r[:count]] for r in ranks])
        step0 = 1.0 / (float(abs_R @ np.einsum("ij,ij->i", X, X)) / n + 1e-12)
        block = _rescore_rows(n, D)
        for start in range(0, total, block):
            stop = min(start + block, total)
            sign = np.where(np.arange(start, stop) < count, 1.0, -1.0)
            inits = cover.rows(order[start:stop])
            values, thetas = _ascend_batch(R, X, act, inits, sign, config.lam, step0)
            yield from zip(values.tolist(), thetas)

    rows = restarts() if count else iter(())
    best_value, best_theta, best_sign = 0.0, None, 1
    for sign, head, rank in zip((1, -1), heads, ranks):
        if head > best_value:
            best_value, best_theta, best_sign = head, cover.row(int(idx[rank[0]])), sign
        for value, theta in itertools.islice(rows, count):
            if value > best_value:
                best_value, best_theta, best_sign = value, theta, sign
    theta = np.zeros(D) if best_theta is None else best_theta.copy()
    return InnerResult(theta, best_value, best_sign, diagnostics)


# Gradient steps per projected-gradient ascent, at most.  With the step
# doubling on acceptance, 50 iterations reach the best value of the earlier
# halving-only rule's 200 in 95 of 96 batches (the 8 steps of 12 fits at
# d = 16, n = 1024, 8 restarts per sign; seeds 100-111) and fall 6.7e-13
# relative short in the last; 50 halving-only iterations fall short in 48 of
# them, by up to 10.2%.
_PG_STEPS = 50

# A row is settled, and frozen, once its value has gained at most _PG_TOL
# relative over its last _PG_WINDOW iterations: v_t - v_{t-w} <= tol |v_t|.
# Measured against running every row to the cap, on the benchmark's fit
# (d = 16, n = 1024, m = 8, 8 restarts per sign; seeds 100-109 and ten op
# seeds) and at d = 64 (seeds 100-109), for ramp, sine and tanh: w = 6 and
# tol = 1e-7 cut a ramp fit's row-iterations from 6,400 to about 4,040
# (-37%), and no final train MSE moves by more than 0.025%.  Shorter windows
# (w = 4, 5) stop rows after a run of rejected steps that would have been
# accepted again later, and tol = 1e-6 stops rows still climbing slowly;
# either changes a step's unit on some seed, and the fit's path with it
# (final train MSE up to 3.7% higher at w = 5, 0.76% at tol = 1e-6).
_PG_WINDOW = 6
_PG_TOL = 1e-7


def _ascend_batch(
    R: np.ndarray,
    X: np.ndarray,
    act: Activation,
    inits: np.ndarray,
    sign: np.ndarray,
    lam: float,
    step0: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Projected gradient ascent from every row of ``inits`` at once.

    Row i maximizes (1/n) sum_j sign_i R_j phi(theta . X_j), sign_i = +-1
    applied after each product (negation is exact), and ascends on its own:
    a candidate is accepted only if it raises that row's value, and then the
    row's step doubles; otherwise the row's step halves.  The row stops (and
    is frozen) once it has settled, its value having gained at most
    ``_PG_TOL`` relative over its last ``_PG_WINDOW`` iterations, or after
    ``_PG_STEPS`` iterations.  Each live row keeps its last ``_PG_WINDOW``
    values in a ring, so the state does not grow with ``_PG_STEPS``.  The
    doubling is the expansion half of a backtracking rule: a step that only
    halves from step0 = 1/L (L bounding the gradient's Lipschitz constant)
    ran to the 200-iteration cap in most batches, and its value is matched
    in far fewer iterations (see ``_PG_STEPS``).  Per iteration the live
    rows share one gradient product, one row-wise projection and one
    product for the candidates' values, whose Z = Theta X^T is kept for the
    next gradient.  The candidate arrays
    become the current ones; only rejected rows are copied back from the old
    ones, and an iteration that accepts every row copies nothing.  Returns
    the accepted values (k,) and parameters (k, D).
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
    # Slot t % w holds v_t.  Slots not yet written hold -inf, so no row
    # stops before iteration w.
    ring = np.full((_PG_WINDOW, live.shape[0]), -np.inf)
    ring[0] = current
    for t in range(1, _PG_STEPS + 1):
        slope = act.derivative(Z)
        slope *= R
        grad = sign[:, None] * (slope @ X) / n
        cand = project_l1(theta + step[:, None] * grad, lam)
        Z_cand = cand @ XT
        value = sign * (act(Z_cand) @ R) / n
        down = ~(value > current)
        if down.any():
            # A rejected row keeps its point, Z and value, and halves its step.
            cand[down], Z_cand[down], value[down] = theta[down], Z[down], current[down]
            step[down] *= 0.5
        step[~down] *= 2.0
        theta, Z, current = cand, Z_cand, value
        slot = ring[t % _PG_WINDOW]
        stop = current - slot <= _PG_TOL * np.abs(current)
        slot[...] = current
        if stop.any():
            values[live[stop]], thetas[live[stop]] = current[stop], theta[stop]
            keep = ~stop
            live, theta, Z, ring = live[keep], theta[keep], Z[keep], ring[:, keep]
            current, step, sign = current[keep], step[keep], sign[keep]
            if not live.shape[0]:
                break
    values[live], thetas[live] = current, theta
    return values, thetas


# ----------------------------------------------------------------------------
# Line search
# ----------------------------------------------------------------------------


def _argmin_quadratic(a2: float, a1: float, hi: float) -> float:
    """Minimizer of a2 t^2 + a1 t over [0, hi] for a2 >= 0 (hi may be inf)."""
    if a2 > 0.0:
        return min(max(-a1 / (2.0 * a2), 0.0), hi)
    return 0.0 if a1 >= 0.0 or math.isinf(hi) else hi


def _cubic_root(p: float, q: float) -> float:
    """The one real root of u^3 + p u + q = 0 for p >= 0.

    The sinh form avoids the cancellation of Cardano's formula.  Where p is
    too small next to q for it to stay finite, the root is cbrt(-q).
    """
    k = math.sqrt(p / 3.0)
    k3 = k * k * k
    x = -q / (2.0 * k3) if k3 > 0.0 else math.copysign(math.inf, -q)
    if math.isinf(x):
        return -math.copysign(abs(q) ** (1.0 / 3.0), q)
    return 2.0 * k * math.sinh(math.asinh(x) / 3.0)


def _argmin_on_line(
    a2: float, a1: float, s0: float, ds: float, hi: float, w: CoefficientPenalty
) -> list[float]:
    """Candidate minimizers of a2 t^2 + a1 t + w(s0 + ds t) over [0, hi].

    a2 >= 0, and the mass s0 + ds t is >= 0 on [0, hi].  Linear and
    piecewise-linear w, and power w where it is constant along the line
    (rate * ds is 0, or rounds to 0): the clipped quadratic with linear
    coefficient a1 + slope ds, once per slope in ``w.slopes``, plus the
    interior knots ``w.breaks``.  Power w: in u = s^(1/3) stationarity is u^3 + p u + q = 0
    with p = 2 rate ds^2 / (3 a2) > 0; its one real root, clipped to s >= 0
    and then to [0, hi], is the minimizer by convexity.
    """
    if w.kind != "power" or w.rate * ds == 0.0:
        ts = [_argmin_quadratic(a2, a1 + slope * ds, hi) for slope in w.slopes]
        if ds != 0.0 and w.breaks:
            ts += [t for t in ((b - s0) / ds for b in w.breaks) if 0.0 <= t <= hi]
        return ts
    if a2 > 0.0:
        u = _cubic_root(2.0 * w.rate * ds * ds / (3.0 * a2), a1 * ds / (2.0 * a2) - s0)
    else:
        u = -0.75 * a1 / (w.rate * ds)
    t = (max(u, 0.0) ** 3 - s0) / ds
    return [min(max(t, 0.0), hi)]


def line_search(
    F: np.ndarray,
    H: np.ndarray,
    Y: np.ndarray,
    v_prev: float,
    w: CoefficientPenalty,
    *,
    R: np.ndarray | None = None,
    rr: float | None = None,
) -> tuple[float, float, float]:
    """Minimize ||Y - (1-alpha) F - beta H||_n^2 + w((1-alpha) v_prev + beta).

    F and H are the previous fit's and the new unit's values on the design,
    v_prev the previous coefficient mass; alpha ranges over [0, 1] and beta
    over [0, inf).  Returns (alpha, beta, objective).  ``R`` = Y - F and
    ``rr`` = R . R / n are computed here unless given: ``fit_lpgp`` passes
    the residual it holds and its previous train MSE, which are those very
    values, so its steps are the ones a call without them gives.

    With R = Y - F the loss is the quadratic

        L = (RR + 2 alpha RF - 2 beta RH + alpha^2 FF - 2 alpha beta FH + beta^2 HH) / n

    so six inner products fix it and every later evaluation is O(1).  w sees
    only the new mass s = (1-alpha) v_prev + beta, which is constant along
    (1, v_prev), so by convexity a minimizer lies on an edge alpha = 0,
    alpha = 1 or beta = 0, or, if interior, on the "valley" where
    grad L . (1, v_prev) = 0.  The valley does not depend on w and is
    parameterized by s >= 0.  ``_argmin_on_line`` minimizes along each line.

    Every candidate is scored with the true objective as it is found, and
    the least (objective, alpha, beta) wins, the first one on a tie.  The
    first candidate is (0, 0), which keeps f_prev, so the step never does
    worse than f_prev; exact ties go to the smaller alpha.
    """
    F = np.asarray(F, dtype=float)
    H = np.asarray(H, dtype=float)
    n = F.shape[0]
    if R is None:
        R = np.asarray(Y, dtype=float) - F
    if rr is None:
        rr = float(R @ R) / n
    rf, rh = float(R @ F) / n, float(R @ H) / n
    ff, fh, hh = float(F @ F) / n, float(F @ H) / n, float(H @ H) / n
    v = float(v_prev)
    at = w._at

    # Each line is (alpha0, beta0, d_alpha, d_beta, hi, in_domain): the points
    # (alpha0, beta0) + t (d_alpha, d_beta) for t in [0, hi], and whether
    # they all lie in the domain.  First the edges alpha = 0, alpha = 1 and
    # beta = 0.
    lines = [
        (0.0, 0.0, 0.0, 1.0, math.inf, True),
        (1.0, 0.0, 0.0, 1.0, math.inf, True),
        (0.0, 0.0, 1.0, 0.0, 1.0, True),
    ]
    q2 = ff - 2.0 * fh * v + hh * v * v  # ||F - v H||_n^2, the loss curvature along (1, v)
    if q2 > 0.0:
        # The valley by its mass s: alpha q2 = (v - s)(v HH - FH) - RF + v RH and
        # beta = s - (1 - alpha) v, starting at s = 0.
        alpha0 = (v * (v * hh - fh) - rf + v * rh) / q2
        d_alpha = (fh - v * hh) / q2
        lines.append((alpha0, (alpha0 - 1.0) * v, d_alpha, 1.0 + v * d_alpha, math.inf, False))

    best = None
    for alpha0, beta0, d_alpha, d_beta, hi, in_domain in lines:
        g_alpha = 2.0 * (rf + alpha0 * ff - beta0 * fh)  # grad L at t = 0
        g_beta = 2.0 * (beta0 * hh - rh - alpha0 * fh)
        a1 = g_alpha * d_alpha + g_beta * d_beta
        a2 = d_alpha * d_alpha * ff - 2.0 * d_alpha * d_beta * fh + d_beta * d_beta * hh
        s0, ds = (1.0 - alpha0) * v + beta0, d_beta - v * d_alpha
        ts = _argmin_on_line(a2, a1, s0, ds, hi, w)
        if best is None:
            ts.insert(0, 0.0)  # (0, 0) is t = 0 on the edge alpha = 0
        for t in ts:
            alpha, beta = alpha0 + t * d_alpha, beta0 + t * d_beta
            if not (in_domain or (0.0 <= alpha <= 1.0 and beta >= 0.0)):
                continue
            loss = rr + 2.0 * alpha * rf - 2.0 * beta * rh
            loss += alpha * alpha * ff - 2.0 * alpha * beta * fh + beta * beta * hh
            point = (loss + at((1.0 - alpha) * v + beta), alpha, beta)
            if best is None or point < best:
                best = point
    obj, alpha, beta = best
    return alpha + 0.0, beta + 0.0, obj


# ----------------------------------------------------------------------------
# The pursuit itself
# ----------------------------------------------------------------------------


def fit_lpgp(data: Dataset, config: GreedyConfig) -> GreedyPath:
    """Run the pursuit for config.m_max steps on the dataset.

    The path depends on X, Y and config alone: no random number is drawn.
    Each step records its unit,
    (alpha, beta) and diagnostics, and carries the fitted values, the
    residual, its train MSE and the mass forward; the line search takes the
    residual and the train MSE as R and R . R / n.  No model is built here.
    ``GreedyStep.model`` builds f_m on demand, bit for bit the iterate of
    the recurrence.

    Against the cover dictionary the relaxation factor is c = 1: every step
    takes at least the cover argmax (``inner_value >= cover_value``), so for
    a competitor whose units are cover points the guarantee of
    ``greedy_bound_rhs`` holds with c = 1.
    """
    X = np.atleast_2d(np.asarray(data.X, dtype=float))
    Y = np.asarray(data.Y, dtype=float)
    n = X.shape[0]
    X_lift = lift(X)
    act = Activation(config.activation)
    cover_cache = _cover_cache_for(X_lift, act, config)

    fitted = np.zeros(n)
    resid = Y - fitted
    train_mse = float(resid @ resid) / n
    v_m = 0.0
    step = None
    records: list[GreedyStep] = []
    for m in range(1, config.m_max + 1):
        found = inner_maximize(resid, X_lift, config, cover_cache=cover_cache)
        unit = RidgeUnit(activation=act, theta=found.theta, sign=found.sign)
        H = unit.evaluate_lifted(X_lift)
        alpha, beta, _ = line_search(fitted, H, Y, v_m, config.w, R=resid, rr=train_mse)

        # f_m = (1 - alpha) f_{m-1} + beta h_m and R = Y - f_m, in place.
        fitted *= 1.0 - alpha
        H *= beta
        fitted += H
        v_m = (1.0 - alpha) * v_m + beta
        np.subtract(Y, fitted, out=resid)
        train_mse = float(resid @ resid) / n
        step = GreedyStep(
            m=m,
            unit=unit,
            v_m=v_m,
            alpha=alpha,
            beta=beta,
            inner_value=found.value,
            train_mse=train_mse,
            penalty=config.w(v_m),
            diagnostics=found.diagnostics,
            previous=step,
        )
        records.append(step)
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
