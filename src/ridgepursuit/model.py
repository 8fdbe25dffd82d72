"""Finite nonnegative combinations of ridge units with an explicit affine part."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dictionary import Activation, RidgeUnit

__all__ = ["RidgeModel"]

# Cells of one row block of the (rows x terms) activation matrix in evaluate.
_BLOCK_CELLS = 1 << 16


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
        """Evaluate at a point (d,) or batch (n, d).

        The nonzero-weight terms of each activation are stacked into one
        (k, d+1) matrix with the signs folded into the weights, and each
        block of rows costs one product for the pre-activations and one for
        their weighted sum.  No lifted copy of the design and no n x k
        array is made; a block holds about ``_BLOCK_CELLS`` values.
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        X = np.atleast_2d(x)
        n, d = X.shape
        out = np.full(n, self.intercept, dtype=float)
        if self.slope is not None:
            out += X @ self.slope
        for act, (thetas, weights) in self._stacks(d).items():
            theta = np.array(thetas)
            coefs = np.ascontiguousarray(theta[:, :d].T)
            w = np.array(weights)
            rows = max(1, _BLOCK_CELLS // len(w))
            block = np.empty((min(rows, n), len(w)))
            for lo in range(0, n, rows):
                U = block[: min(rows, n - lo)]
                np.matmul(X[lo : lo + rows], coefs, out=U)
                U += theta[:, d]
                act(U, out=U)
                out[lo : lo + rows] += U @ w
        return float(out[0]) if single else out

    def _stacks(self, d: int) -> dict[Activation, tuple[list, list]]:
        """Per activation, the thetas and signed weights beta * sign of the nonzero terms."""
        stacks: dict[Activation, tuple[list, list]] = {}
        for beta, unit in self.terms:
            if beta == 0.0:
                continue
            if unit.theta.shape[0] != d + 1:
                raise ValueError(
                    f"dimension mismatch: x has {d} coordinates, "
                    f"theta expects {unit.theta.shape[0] - 1}"
                )
            thetas, weights = stacks.setdefault(unit.activation, ([], []))
            thetas.append(unit.theta)
            weights.append(beta * unit.sign)
        return stacks
