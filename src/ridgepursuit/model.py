"""Finite nonnegative combinations of ridge units with an explicit affine part."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dictionary import RidgeUnit, lift

__all__ = ["RidgeModel"]


@dataclass
class RidgeModel:
    """f(x) = sum_k beta_k h_k(x) + slope . x + intercept with all beta_k >= 0.

    Negative directions are expressed through each unit's sign, keeping the
    coefficient mass v = sum beta_k equal to the l1 norm of the signed
    coefficients.  The affine part is stored explicitly instead of being
    expanded into ramp units, so it does not inflate v.
    """

    terms: list[tuple[float, RidgeUnit]] = field(default_factory=list)
    intercept: float = 0.0
    slope: np.ndarray | None = None

    def __post_init__(self) -> None:
        for beta, unit in self.terms:
            if beta < 0:
                raise ValueError(f"term weights must be nonnegative, got {beta}")
            if not isinstance(unit, RidgeUnit):
                raise ValueError("terms must pair a weight with a RidgeUnit")
        if self.slope is not None:
            self.slope = np.asarray(self.slope, dtype=float)

    @property
    def v(self) -> float:
        """Coefficient mass sum_k beta_k (the l1 norm of the combination)."""
        return float(sum(beta for beta, _ in self.terms))

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def __call__(self, x: np.ndarray) -> float | np.ndarray:
        return self.evaluate(x)

    def evaluate(self, x: np.ndarray) -> float | np.ndarray:
        """Evaluate at a point (d,) or batch (n, d)."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        X = np.atleast_2d(x)
        out = np.full(X.shape[0], self.intercept, dtype=float)
        if self.slope is not None:
            out += X @ self.slope
        X_lift = lift(X)
        for beta, unit in self.terms:
            if beta != 0.0:
                out += beta * unit.evaluate_lifted(X_lift)
        return float(out[0]) if single else out
