"""Synthetic spectral targets, ramp-network sampling, and dataset generation.

A spectral target is a finite cosine sum f*(x) = sum_j a_j cos(omega_j . x + b_j)
whose weighted spectral norms v_{f,s} = sum_j a_j ||omega_j||_1^s are available in
closed form.  sample_ramp_model draws a random m-term ramp network whose mean
squared L2 error against f* is at most 16 v_{f,2}^2 / m, by importance sampling
from the density proportional to |cos(z c t + b)| c^2 a over sign z, atom, and
threshold t, plus the explicit affine part x . grad f*(0) + f*(0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Sequence

import numpy as np
from scipy import integrate

from .dictionary import Activation, RidgeUnit
from .model import RidgeModel

__all__ = [
    "SpectralTarget",
    "Noise",
    "Dataset",
    "spectral_norm",
    "eval_target",
    "target_gradient_at_zero",
    "sample_ramp_model",
    "ramp_sampler_normalizer",
    "gen_dataset",
    "mc_l2_sq_distance",
    "write_csv",
    "write_dataset_csv",
    "read_dataset_csv",
]

DESIGN_LAWS = ("uniform", "rademacher")
NOISE_KINDS = ("zero", "gaussian", "laplace")


# ----------------------------------------------------------------------------
# Types
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralTarget:
    """f*(x) = sum_j amps_j * cos(freqs_j . x + phases_j), finitely many atoms."""

    freqs: np.ndarray  # (J, d)
    amps: np.ndarray  # (J,), all > 0
    phases: np.ndarray  # (J,), in [-pi, pi]

    def __post_init__(self) -> None:
        freqs = np.atleast_2d(np.asarray(self.freqs, dtype=float))
        amps = np.atleast_1d(np.asarray(self.amps, dtype=float))
        phases = np.atleast_1d(np.asarray(self.phases, dtype=float))
        if freqs.shape[0] != amps.shape[0] or amps.shape[0] != phases.shape[0]:
            raise ValueError(
                f"atom count mismatch: {freqs.shape[0]} freqs, "
                f"{amps.shape[0]} amps, {phases.shape[0]} phases"
            )
        if np.any(amps <= 0):
            raise ValueError("amplitudes must be positive")
        if np.any(np.abs(phases) > math.pi + 1e-12):
            raise ValueError("phases must lie in [-pi, pi]")
        for name, arr in (("freqs", freqs), ("amps", amps), ("phases", phases)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.freqs.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.amps.shape[0]

    @property
    def sup_bound(self) -> float:
        """sum_j a_j, an upper bound on sup |f*|."""
        return float(self.amps.sum())

    def __call__(self, x: np.ndarray) -> float | np.ndarray:
        return eval_target(self, x)


@dataclass(frozen=True)
class Noise:
    """Additive noise law: kind in {zero, gaussian, laplace} with its scale.

    For gaussian the scale is the standard deviation sigma; for laplace it is
    the density scale nu (variance 2 nu^2).  Laplace noise satisfies the
    moment condition E|eps|^k <= (1/2) k! eta^{k-2} Var(eps) with eta = nu
    (with equality at k = 3, 4); gaussian satisfies it with eta = sigma.
    """

    kind: str
    scale: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}; expected {NOISE_KINDS}")
        if self.scale < 0:
            raise ValueError(f"noise scale must be nonnegative, got {self.scale}")

    @property
    def variance(self) -> float:
        if self.kind == "gaussian":
            return self.scale**2
        if self.kind == "laplace":
            return 2.0 * self.scale**2
        return 0.0

    @property
    def bernstein_eta(self) -> float:
        """Smallest convenient eta for the moment condition."""
        return self.scale if self.kind in ("gaussian", "laplace") else 0.0

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "gaussian" and self.scale > 0:
            return rng.normal(0.0, self.scale, size=n)
        if self.kind == "laplace" and self.scale > 0:
            return rng.laplace(0.0, self.scale, size=n)
        return np.zeros(n)


@dataclass
class Dataset:
    """Design X in [-1,1]^(n x d), responses Y, and an independent copy X'."""

    X: np.ndarray
    Y: np.ndarray
    noise: Noise
    seed: int
    X_prime: np.ndarray | None = None

    def __post_init__(self) -> None:
        X = np.asarray(self.X)
        Y = np.asarray(self.Y)
        if X.ndim != 2 or Y.ndim != 1:
            raise ValueError(f"need X 2-D and Y 1-D, got shapes {X.shape} and {Y.shape}")
        if Y.shape[0] != X.shape[0]:
            raise ValueError(f"Y has {Y.shape[0]} values but X has {X.shape[0]} rows")
        if X.size == 0:
            raise ValueError(f"empty design: X has shape {X.shape}")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
            raise ValueError("X and Y must be finite (found NaN or inf)")
        if self.X_prime is not None:
            Xp = np.asarray(self.X_prime)
            if Xp.ndim != 2 or Xp.shape[1] != X.shape[1]:
                raise ValueError(f"X' has shape {Xp.shape}, need {X.shape[1]} columns")
            if not np.all(np.isfinite(Xp)):
                raise ValueError("X' must be finite (found NaN or inf)")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


# ----------------------------------------------------------------------------
# Closed-form quantities
# ----------------------------------------------------------------------------


def spectral_norm(target: SpectralTarget, s: float) -> float:
    """v_{f,s} = sum_j a_j ||omega_j||_1^s (0^0 taken as 1)."""
    if s < 0:
        raise ValueError(f"need s >= 0, got {s}")
    c = np.abs(target.freqs).sum(axis=1)
    return float(np.sum(target.amps * c**s))


def eval_target(target: SpectralTarget, x: np.ndarray) -> float | np.ndarray:
    """Evaluate the cosine sum at a point (d,) or batch (n, d)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    if X.shape[1] != target.dim:
        raise ValueError(
            f"dimension mismatch: x has {X.shape[1]} coordinates, target expects {target.dim}"
        )
    values = np.cos(X @ target.freqs.T + target.phases) @ target.amps
    return float(values[0]) if single else values


def target_gradient_at_zero(target: SpectralTarget) -> np.ndarray:
    """grad f*(0) = -sum_j a_j sin(b_j) omega_j."""
    return -(target.amps * np.sin(target.phases)) @ target.freqs


def _target_value_at_zero(target: SpectralTarget) -> float:
    return float(np.sum(target.amps * np.cos(target.phases)))


# ----------------------------------------------------------------------------
# Ramp-network sampling
# ----------------------------------------------------------------------------


def _abs_cos_integral(c: float, phase: float) -> float:
    """Integral over [0,1] of |cos(c t + phase)|, split at the cosine zeros."""
    if c == 0.0:
        return abs(math.cos(phase))

    def f(t: float) -> float:
        return abs(math.cos(c * t + phase))

    # Zeros of cos(c t + phase) at t = (pi/2 + k pi - phase) / c.
    k_lo = math.ceil((0.0 * c + phase - math.pi / 2) / math.pi)
    k_hi = math.floor((1.0 * c + phase - math.pi / 2) / math.pi)
    kinks = [
        (math.pi / 2 + k * math.pi - phase) / c
        for k in range(k_lo, k_hi + 1)
        if 0.0 < (math.pi / 2 + k * math.pi - phase) / c < 1.0
    ]
    value, _ = integrate.quad(f, 0.0, 1.0, points=sorted(kinks) or None, limit=200)
    return value


def ramp_sampler_normalizer(target: SpectralTarget) -> tuple[float, np.ndarray]:
    """Exact normalizer v of the sampling density and the per-(atom, sign) masses.

    Returns (v, masses) where masses has shape (J, 2) with columns for the two
    sign choices z = +1, -1, mass[j, z] = a_j c_j^2 * integral of
    |cos(c_j t + z b_j)| over t in [0, 1].  v = masses.sum() <= 2 v_{f,2}.
    """
    J = target.n_atoms
    c = np.abs(target.freqs).sum(axis=1)
    masses = np.zeros((J, 2))
    for j in range(J):
        if c[j] == 0.0:
            continue  # zero-frequency atoms carry no sampling mass
        base = target.amps[j] * c[j] ** 2
        masses[j, 0] = base * _abs_cos_integral(c[j], target.phases[j])
        masses[j, 1] = base * _abs_cos_integral(c[j], -target.phases[j])
    return float(masses.sum()), masses


def _sample_t(c: float, phase: float, rng: np.random.Generator) -> float:
    """Draw t in [0,1] with density proportional to |cos(c t + phase)|.

    Rejection from the uniform proposal with envelope 1; exact for any c.
    """
    while True:
        t = rng.uniform(0.0, 1.0)
        if rng.uniform(0.0, 1.0) <= abs(math.cos(c * t + phase)):
            return t


def sample_ramp_model(
    target: SpectralTarget, m: int, rng: np.random.Generator
) -> RidgeModel:
    """Random m-term ramp network approximating the target.

    Each draw picks an atom j and sign z proportional to its sampling mass,
    then a threshold t ~ |cos(c_j t + z b_j)| on [0,1], and contributes the
    unit s * (z alpha_j . x - t)_+ with alpha_j = omega_j / ||omega_j||_1 and
    s = -sgn cos(c_j t + z b_j), at weight v/m.  The affine part
    x . grad f*(0) + f*(0) is attached exactly.  Over repeated draws the mean
    squared L2 error against f* is at most 16 v_{f,2}^2 / m.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if target.n_atoms < 1:
        raise ValueError("target must have at least one atom")
    v, masses = ramp_sampler_normalizer(target)
    affine_slope = target_gradient_at_zero(target)
    affine_intercept = _target_value_at_zero(target)
    if v == 0.0:
        # Purely constant target: nothing to sample.
        return RidgeModel(terms=[], intercept=affine_intercept, slope=affine_slope)

    c = np.abs(target.freqs).sum(axis=1)
    flat = masses.ravel() / v
    ramp = Activation("ramp")
    picks = rng.choice(flat.shape[0], size=m, p=flat)
    terms: list[tuple[float, RidgeUnit]] = []
    for pick in picks:
        j, zi = divmod(int(pick), 2)
        z = 1.0 if zi == 0 else -1.0
        phase = z * target.phases[j]
        t = _sample_t(c[j], phase, rng)
        alpha = target.freqs[j] / c[j]
        sign = -1 if math.cos(c[j] * t + phase) > 0 else 1
        theta = np.append(z * alpha, -t)
        terms.append((v / m, RidgeUnit(ramp, theta, sign)))
    return RidgeModel(terms=terms, intercept=affine_intercept, slope=affine_slope)


# ----------------------------------------------------------------------------
# Datasets and Monte Carlo norms
# ----------------------------------------------------------------------------


def _draw_design(
    n: int, d: int, rng: np.random.Generator, design: str
) -> np.ndarray:
    if design == "uniform":
        return rng.uniform(-1.0, 1.0, size=(n, d))
    if design == "rademacher":
        return rng.choice([-1.0, 1.0], size=(n, d))
    raise ValueError(f"unknown design law {design!r}; expected {DESIGN_LAWS}")


def gen_dataset(
    target: Callable[[np.ndarray], np.ndarray],
    n: int,
    d: int,
    noise: Noise,
    seed: int,
    design: str = "uniform",
    with_test: bool = True,
) -> Dataset:
    """Sample X (and X' from seed+1) from the design law and Y = f*(X) + eps.

    ``target`` is any batch callable (n, d) -> (n,), such as a
    ``SpectralTarget`` or a ``RidgeModel``.
    """
    if n <= 0:
        raise ValueError(f"need n > 0, got {n}")
    rng = np.random.default_rng(seed)
    X = _draw_design(n, d, rng, design)
    Y = np.asarray(target(X), dtype=float) + noise.draw(n, rng)
    X_prime = None
    if with_test:
        rng_test = np.random.default_rng(seed + 1)
        X_prime = _draw_design(n, d, rng_test, design)
    return Dataset(X=X, Y=Y, noise=noise, seed=seed, X_prime=X_prime)


def mc_l2_sq_distance(
    f, g, d: int, n_points: int = 10**5, seed: int = 20_000, design: str = "uniform"
) -> float:
    """Monte Carlo estimate of the squared L2(P) distance between two callables.

    P is the design law on [-1,1]^d; both arguments take batches (n, d).
    """
    rng = np.random.default_rng(seed)
    X = _draw_design(n_points, d, rng, design)
    diff = np.asarray(f(X), dtype=float) - np.asarray(g(X), dtype=float)
    return float(np.mean(diff**2))


# ----------------------------------------------------------------------------
# CSV interchange
# ----------------------------------------------------------------------------


def write_csv(
    fp: IO[str],
    columns: Sequence[str],
    rows: Iterable[Sequence],
    header_lines: Sequence[str] = (),
) -> None:
    """Write `# `-prefixed header lines, the column row, then one line per row.

    Floats get 17 significant digits (lossless float64), bools become
    ``true``/``false``, and any other cell is written with ``str``.  Cells
    are never quoted, so they must not contain commas.
    """
    for line in header_lines:
        fp.write(f"# {line}\n")
    fp.write(",".join(columns) + "\n")
    for row in rows:
        fp.write(",".join(map(_csv_cell, row)) + "\n")


def _csv_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(value, ".17g")
    if isinstance(value, (bool, np.bool_)):  # str() would write "True"
        return "true" if value else "false"
    return str(value)


def write_dataset_csv(dataset: Dataset, path: str, header_lines: list[str] | None = None) -> None:
    """Write `x1,...,xd,y` rows with 17 significant digits (lossless float64)."""
    cols = [f"x{j + 1}" for j in range(dataset.d)] + ["y"]
    with open(path, "w", encoding="utf-8") as fh:
        write_csv(fh, cols, np.column_stack([dataset.X, dataset.Y]), header_lines or ())


def read_dataset_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read back (X, Y) from a dataset CSV, skipping `#` comment lines."""
    X_rows: list[list[float]] = []
    Y_rows: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        header: list[str] | None = None
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                if header[-1] != "y" or not all(
                    c == f"x{j + 1}" for j, c in enumerate(header[:-1])
                ):
                    raise ValueError(f"unexpected dataset header {header!r}")
                continue
            parts = [float(p) for p in line.split(",")]
            if len(parts) != len(header):
                raise ValueError(
                    f"row has {len(parts)} fields, header has {len(header)}"
                )
            X_rows.append(parts[:-1])
            Y_rows.append(parts[-1])
    if header is None:
        raise ValueError("empty dataset file")
    return np.asarray(X_rows), np.asarray(Y_rows)
