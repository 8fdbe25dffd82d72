"""Penalty schedules, truncation, and the complexity constant gamma_n.

Every penalty here is reported per sample (pen/n).  The shared complexity
constant is

    gamma_n = (2 tau)^-1 (1 + delta1/2)(1 + 2/delta1)(B + B_n)^2
              + 2 (1 + 1/delta2) sigma^2 + 2 (B + B_n) eta,
    tau = (1 + delta1)(1 + delta2),

with B a sup-norm bound on the regression function, B_n the truncation level,
sigma^2 a variance bound, and eta the noise moment-growth parameter.  The
four regimes trade off differently between the coefficient mass v_f, the
dimension, and the sample size; the moderate regime additionally carries a
validity guard on its internal discretization scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dictionary import FieldError

__all__ = [
    "PenaltyConfig",
    "PenValue",
    "REGIMES",
    "TAIL_CLASSES",
    "gamma_tau",
    "select_Bn",
    "truncate",
    "tail_tn",
    "pen_highdim",
    "pen_nonoise",
    "pen_moderate",
    "pen_mixed",
    "tuning_highdim",
    "penalty_for_regime",
    "resolvability_factors",
]

REGIMES = ("highdim-noise", "no-noise", "moderate", "mixed")
TAIL_CLASSES = ("sub-exponential", "sub-gaussian", "zero")


@dataclass(frozen=True)
class PenaltyConfig:
    """Inputs shared by all penalty formulas."""

    B: float
    B_n: float
    sigma_sq: float
    eta: float
    nu: float
    lam: float
    delta1: float = 1.0
    delta2: float = 1.0
    regime: str = "highdim-noise"
    mixed_C: float = 1.0  # scale of the mixed-regime penalty (only fixed up to a constant)

    def __post_init__(self) -> None:
        if self.B < 0:
            raise FieldError("B", f"need B >= 0, got {self.B}")
        if self.B_n < self.B:
            raise FieldError("B_n", f"need B_n >= B, got B_n={self.B_n} < B={self.B}")
        if self.delta1 <= 0:
            raise FieldError("delta1", f"need delta1 > 0, got {self.delta1}")
        if self.delta2 <= 0:
            raise FieldError("delta2", f"need delta2 > 0, got {self.delta2}")
        if self.sigma_sq < 0:
            raise FieldError("sigma_sq", f"need sigma_sq >= 0, got {self.sigma_sq}")
        if self.eta < 0:
            raise FieldError("eta", f"need eta >= 0, got {self.eta}")
        if self.nu < 0:
            raise FieldError("nu", f"need nu >= 0, got {self.nu}")
        if self.lam <= 0:
            raise FieldError("lam", f"need lam > 0, got {self.lam}")
        if self.regime not in REGIMES:
            raise FieldError("regime", f"unknown regime {self.regime!r}; expected {REGIMES}")
        if self.mixed_C <= 0:
            raise FieldError("mixed_C", f"need mixed_C > 0, got {self.mixed_C}")


@dataclass(frozen=True)
class PenValue:
    """A penalty-per-sample evaluation: total, its main term, and validity."""

    pen_per_n: float
    main_term: float
    valid: bool = True


def gamma_tau(config: PenaltyConfig) -> tuple[float, float]:
    """The complexity constant gamma_n and inflation factor tau."""
    tau = (1.0 + config.delta1) * (1.0 + config.delta2)
    span = config.B + config.B_n
    gamma_n = (
        (1.0 + config.delta1 / 2.0) * (1.0 + 2.0 / config.delta1) * span**2
        / (2.0 * tau)
        + 2.0 * (1.0 + 1.0 / config.delta2) * config.sigma_sq
        + 2.0 * span * config.eta
    )
    return gamma_n, tau


def resolvability_factors(tau: float) -> tuple[float, float]:
    """Risk-bound multipliers (tau + 1, 2(tau + 1)).

    The tighter factor applies to the noise-case penalty construction, the
    conservative one holds across all regimes; diagnostics report both.
    """
    return tau + 1.0, 2.0 * (tau + 1.0)


def select_Bn(B: float, nu: float, n: int, tail: str) -> float:
    """Truncation level at the threshold where the tail bounds take hold.

    sub-exponential: sqrt(2)(B + nu log n); sub-gaussian:
    sqrt(2)(B + sqrt(nu log n)); zero noise: B itself.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if tail == "sub-exponential":
        return math.sqrt(2.0) * (B + nu * math.log(n))
    if tail == "sub-gaussian":
        return math.sqrt(2.0) * (B + math.sqrt(nu * math.log(n)))
    if tail == "zero":
        return float(B)
    raise ValueError(f"unknown tail class {tail!r}; expected {TAIL_CLASSES}")


def truncate(value: np.ndarray | float, B_n: float) -> np.ndarray | float:
    """Clip to [-B_n, B_n] preserving sign: min(B_n, |value|) * sgn(value)."""
    if B_n <= 0:
        raise ValueError(f"need B_n > 0, got {B_n}")
    return np.clip(value, -B_n, B_n)


def tail_tn(Y: np.ndarray, B_n: float) -> float:
    """T_n = 2 sum_i (Y_i^2 - B_n^2) over responses exceeding the level."""
    Y = np.asarray(Y, dtype=float)
    over = np.abs(Y) > B_n
    return float(2.0 * np.sum((Y[over] ** 2 - B_n**2)))


# ----------------------------------------------------------------------------
# Regime formulas (all per sample)
# ----------------------------------------------------------------------------


def pen_highdim(
    v_f: float, n: int, d: int, lam: float, gamma_n: float, B_n: float, T_n: float
) -> PenValue:
    """16 v_f ratio^(1/4) + 8 ratio^(1/2) + T_n/n, ratio = gamma_n B_n^2 lam^2 log(d+1)/n."""
    _check_nd(n, d)
    ratio = gamma_n * B_n**2 * lam**2 * math.log(d + 1) / n
    main = 16.0 * v_f * ratio**0.25
    return PenValue(main + 8.0 * math.sqrt(ratio) + T_n / n, main)


def pen_nonoise(v_f: float, n: int, d: int, lam: float, gamma_n: float) -> PenValue:
    """16 v_f^(4/3) ratio^(1/3) + 4 (v_f^(4/3) + 1) ratio^(2/3), ratio = gamma_n lam^2 log(d+1)/n."""
    _check_nd(n, d)
    ratio = gamma_n * lam**2 * math.log(d + 1) / n
    vpow = v_f ** (4.0 / 3.0)
    main = 16.0 * vpow * ratio ** (1.0 / 3.0)
    return PenValue(main + 4.0 * (vpow + 1.0) * ratio ** (2.0 / 3.0), main)


def pen_moderate(
    v_f: float, n: int, d: int, lam: float, gamma_n: float, T_n: float
) -> PenValue:
    """Moderate-dimension penalty with exponent 1/2 + 1/(2(d+3)) on the main term.

    r = d gamma_n log(n/d + 1)/n.  Valid only while the internal scales
    eps1 = 3 lam r^(1/(2(d+3))) and eps2 = 3 sqrt(d/n) eps1 stay below lam and
    d <= n/(e-1); otherwise the regime-invalid signal (NaN value, valid=False)
    is returned.
    """
    _check_nd(n, d)
    r = d * gamma_n * math.log(n / d + 1.0) / n
    eps1 = 3.0 * lam * r ** (1.0 / (2.0 * (d + 3)))
    eps2 = 3.0 * math.sqrt(d / n) * eps1
    if eps1 > lam or eps2 > lam or d > n / (math.e - 1.0):
        return PenValue(math.nan, math.nan, valid=False)
    expo_main = 0.5 + 1.0 / (2.0 * (d + 3))
    expo_third = 0.5 + 3.0 / (2.0 * (d + 3))
    main = 60.0 * v_f * lam * r**expo_main
    total = main + r**expo_main / lam**2 + r**expo_third + r + T_n / n
    return PenValue(total, main)


def pen_mixed(
    v_f: float,
    n: int,
    d: int,
    lam: float,
    gamma_n: float,
    sigma: float,
    C: float = 1.0,
) -> PenValue:
    """C [ratio^(1/3) + sqrt(sigma) ratio^(1/4)], ratio = v_f^4 lam^2 gamma_n log(d+1)/n.

    Interpolates the noise and no-noise regimes: the sqrt(sigma) term vanishes
    exactly when the noise does.  The scale C is only determined up to a
    constant by the theory and defaults to 1.
    """
    _check_nd(n, d)
    if sigma < 0:
        raise ValueError(f"need sigma >= 0, got {sigma}")
    ratio = v_f**4 * lam**2 * gamma_n * math.log(d + 1) / n
    cube = ratio ** (1.0 / 3.0)
    quart = math.sqrt(sigma) * ratio**0.25
    main = quart if sigma > 0 else cube
    return PenValue(C * (cube + quart), C * main)


def tuning_highdim(
    n: int, d: int, lam: float, gamma_n: float, B_n: float, v: float
) -> tuple[int, float]:
    """Discretization tuning behind the high-dimension noise penalty.

    eps2 = (gamma_n lam^2 log(d+1) / (n B_n^2))^(1/4) and the allocation base
    m0 = ceil( sqrt( v^2 n eps2^2 / (2 gamma_n lam^2 log(d+1)) ) ), clamped to
    at least 1.
    """
    _check_nd(n, d)
    if gamma_n <= 0 or lam <= 0 or B_n <= 0:
        raise ValueError("gamma_n, lam, and B_n must be positive")
    if v < 0:
        raise ValueError(f"need v >= 0, got {v}")
    denom = gamma_n * lam**2 * math.log(d + 1)
    eps2 = (denom / (n * B_n**2)) ** 0.25
    m0 = math.ceil(math.sqrt(v * v * n * eps2**2 / (2.0 * denom)))
    return max(1, m0), eps2


def penalty_for_regime(
    config: PenaltyConfig, v_f: float, n: int, d: int, T_n: float = 0.0
) -> PenValue:
    """Evaluate the configured regime's penalty per sample.

    A value that overflows (pen_per_n or main_term not finite) is returned
    with valid=False, like a regime outside its range.
    """
    gamma_n, _ = gamma_tau(config)
    if config.regime == "highdim-noise":
        pen = pen_highdim(v_f, n, d, config.lam, gamma_n, config.B_n, T_n)
    elif config.regime == "no-noise":
        pen = pen_nonoise(v_f, n, d, config.lam, gamma_n)
    elif config.regime == "moderate":
        pen = pen_moderate(v_f, n, d, config.lam, gamma_n, T_n)
    else:
        sigma = math.sqrt(config.sigma_sq)
        pen = pen_mixed(v_f, n, d, config.lam, gamma_n, sigma, config.mixed_C)
    if not (math.isfinite(pen.pen_per_n) and math.isfinite(pen.main_term)):
        return replace(pen, valid=False)
    return pen


def _check_nd(n: int, d: int) -> None:
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
