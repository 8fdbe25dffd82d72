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

from .dictionary import Activation, RidgeUnit
from .model import RidgeModel

__all__ = [
    "DESIGN_LAWS",
    "NOISE_KINDS",
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
    "mc_l2_sq_distance_to",
    "ramp_sample_distance_to",
    "write_csv",
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
        if not (self.scale >= 0 and math.isfinite(self.scale)):
            raise ValueError(f"noise scale must be finite and nonnegative, got {self.scale}")

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
    """Design X in [-1,1]^(n x d), responses Y, and optionally an independent
    test design X'."""

    X: np.ndarray
    Y: np.ndarray
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
    """Integral over [0,1] of |cos(c t + phase)|, in closed form.

    F(u) = 2k + (-1)^k sin u with k = floor(u/pi + 1/2) is a continuous
    antiderivative of |cos u| (each half-period between zeros adds 2), so the
    integral is (F(c + phase) - F(phase)) / c.  Without a zero inside, the
    sign is constant and the sine difference is taken as a product, which
    keeps small c exact to rounding.
    """
    if c == 0.0:
        return abs(math.cos(phase))
    k0, k1 = (math.floor(u / math.pi + 0.5) for u in (phase, c + phase))
    if k0 == k1:
        return abs(2.0 * math.cos(phase + c / 2.0) * math.sin(c / 2.0)) / c

    def F(u: float, k: int) -> float:
        return 2.0 * k + (1 - 2 * (k % 2)) * math.sin(u)

    return (F(c + phase, k1) - F(phase, k0)) / c


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

    Thresholds come from rejection sampling with the uniform proposal and
    envelope 1: picks take (t, u) pairs in order until u <= |cos(c_j t +
    z b_j)|.  The pairs are drawn in rounds of one per open pick, and every
    open pick needs at least one more, so the generator advances exactly as
    a pair-at-a-time loop would.
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
    picks = rng.choice(flat.shape[0], size=m, p=flat)
    atoms, parity = np.divmod(picks, 2)
    z = 1.0 - 2.0 * parity
    rate = c[atoms].tolist()
    phase = (z * target.phases[atoms]).tolist()
    t = np.empty(m)
    cos_at_t = [0.0] * m
    done = 0
    while done < m:
        for t_try, u in rng.uniform(0.0, 1.0, size=(m - done, 2)).tolist():
            cos_t = math.cos(rate[done] * t_try + phase[done])
            if u <= abs(cos_t):
                t[done], cos_at_t[done] = t_try, cos_t
                done += 1
    thetas = np.column_stack([z[:, None] * (target.freqs[atoms] / c[atoms, None]), -t])
    ramp = Activation("ramp")
    terms = [
        (v / m, RidgeUnit(ramp, theta, -1 if cos_t > 0 else 1))
        for theta, cos_t in zip(thetas, cos_at_t)
    ]
    return RidgeModel(terms=terms, intercept=affine_intercept, slope=affine_slope)


def _ramp_draws_bytes(m: int, d: int) -> float:
    """An upper bound on the bytes ``best_of`` over ``sample_ramp_model``
    draws of m terms in dimension d holds at once: the best network and the
    current one, each term a ``RidgeUnit`` with its own copy of theta, and
    one draw's temporaries, a few float64 values a term per coordinate.
    tracemalloc reads 860 bytes a term at d = 1, 910 at d = 2 and 3,280 at
    d = 64."""
    return 8.0 * m * (128 + 8 * d)


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


def _dataset_bytes(n: int, d: int, n_atoms: int) -> float:
    """An upper bound on the bytes ``gen_dataset`` allocates for a cosine
    target of ``n_atoms`` atoms: X, X' and the index array a Rademacher
    draw makes first; the target's three n x n_atoms evaluation
    temporaries; and its values, the noise, Y and one spare n-vector."""
    return 8.0 * n * (3 * d + 3 * n_atoms + 4)


def gen_dataset(
    target: Callable[[np.ndarray], np.ndarray],
    n: int,
    d: int,
    noise: Noise,
    seed: int,
    design: str = "uniform",
) -> Dataset:
    """Sample X and Y = f*(X) + eps from seed, and X' from a child of seed.

    X' comes from ``SeedSequence(seed).spawn(1)[0]``, a stream independent of
    the one behind X and Y, so X' is not the X of any nearby seed.

    ``target`` is any batch callable (n, d) -> (n,), such as a
    ``SpectralTarget`` or a ``RidgeModel``.
    """
    if n <= 0:
        raise ValueError(f"need n > 0, got {n}")
    rng = np.random.default_rng(seed)
    X = _draw_design(n, d, rng, design)
    Y = np.asarray(target(X), dtype=float) + noise.draw(n, rng)
    rng_test = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    X_prime = _draw_design(n, d, rng_test, design)
    return Dataset(X=X, Y=Y, X_prime=X_prime)


def mc_l2_sq_distance(
    f, g, d: int, n_points: int = 10**5, seed: int = 20_000, design: str = "uniform"
) -> float:
    """Monte Carlo estimate of the squared L2(P) distance between two callables.

    P is the design law on [-1,1]^d; both arguments take batches (n, d).
    """
    return mc_l2_sq_distance_to(g, d, n_points, seed, design)(f)


def mc_l2_sq_distance_to(
    g, d: int, n_points: int = 10**5, seed: int = 20_000, design: str = "uniform"
) -> Callable[[Callable], float]:
    """f -> ``mc_l2_sq_distance(f, g, ...)``, drawing the design and g's values once.

    Scoring many callables against one g then costs one evaluation of each.
    The design and g's values are read-only.  g and every f must give one
    value a point, shape (n_points,): a column (n_points, 1) would broadcast
    against the other into an n_points x n_points array.
    """
    if n_points < 1:
        raise ValueError(f"need n_points >= 1, got {n_points}")
    rng = np.random.default_rng(seed)
    X = _draw_design(n_points, d, rng, design)
    X.setflags(write=False)
    g_values = _point_values(g, X, "g").copy()
    g_values.setflags(write=False)

    def distance(f) -> float:
        diff = _point_values(f, X, "f") - g_values
        return float(np.mean(diff**2))

    return distance


def _point_values(f, X: np.ndarray, name: str) -> np.ndarray:
    """f's values at the rows of X as a float array, checked to be one a row."""
    values = np.asarray(f(X), dtype=float)
    if values.shape != (X.shape[0],):
        raise ValueError(
            f"{name} gave values of shape {values.shape} at {X.shape[0]} points; "
            f"need ({X.shape[0]},)"
        )
    return values


def _ramp_distance_bytes(n_points: int, d: int, n_atoms: int) -> float:
    """An upper bound on the bytes ``ramp_sample_distance_to`` allocates that
    grow with ``n_points``: the design (d values a point) and the target's
    values, two arrays per atom for the frames (the sorted projection and
    the int64 inverse of its order), the target's evaluation at set-up (two arrays per
    atom: the cosines' arguments and the cosines), and three per-draw
    temporaries (the network's values, one atom's values, and the gather
    that adds them in)."""
    return 8.0 * n_points * (d + 1 + 2 * n_atoms + 2 * n_atoms + 3)


def ramp_sample_distance_to(
    target: SpectralTarget,
    d: int,
    n_points: int = 10**5,
    seed: int = 20_000,
    design: str = "uniform",
) -> Callable[[RidgeModel], float]:
    """``mc_l2_sq_distance_to(target, ...)`` for the networks that
    ``sample_ramp_model`` draws from ``target``, at O(n_points + m log m)
    a network of m terms in place of O(n_points m).

    The design and the target's values are drawn as ``mc_l2_sq_distance_to``
    draws them.  The sampler's units lie on the directions +-alpha_j with
    alpha_j = omega_j / ||omega_j||_1, bitwise, so each atom's direction
    gets a frame at set-up: the projections p = X alpha_j, sorted stably,
    and the inverse of their order.  Per network, the terms on one direction
    are one piecewise-linear function of p: a z = +1 unit w (p - t)_+ is
    active where p > t, and a z = -1 unit w (-p - t)_+ where p < -t.
    ``searchsorted`` finds each unit's kink in the sorted frame, the slopes
    and offsets are summed over the sorted kinks, and ``np.repeat`` expands
    them over the frame, whose values slope * p + offset are added into the
    affine part in the design's order.  The sums run in another order than
    ``RidgeModel.evaluate``'s, so the values agree with it to rounding, not
    bit for bit.

    A nonzero term that is not a ramp unit on one of the target's atom
    directions raises ``ValueError``: the function scores the sampler's
    networks only, and ``mc_l2_sq_distance_to`` scores any callable.
    ``_ramp_distance_bytes`` bounds its memory.
    """
    if n_points < 1:
        raise ValueError(f"need n_points >= 1, got {n_points}")
    rng = np.random.default_rng(seed)
    X = _draw_design(n_points, d, rng, design)
    X.setflags(write=False)
    g_values = np.asarray(target(X), dtype=float)
    g_values.setflags(write=False)
    values = _ramp_network_values(target, X)

    def distance(model: RidgeModel) -> float:
        diff = values(model)
        diff -= g_values
        np.square(diff, out=diff)
        return float(diff.mean())

    return distance


def _ramp_network_values(
    target: SpectralTarget, X: np.ndarray
) -> Callable[[RidgeModel], np.ndarray]:
    """model -> its values at the read-only design X, for a network on the
    target's atom directions, by the frames of ``ramp_sample_distance_to``."""
    n_points, d = X.shape
    c = np.abs(target.freqs).sum(axis=1)
    # Direction bytes (signed zeros made +0.0) -> (frame, z); atoms on one
    # line share a frame.
    directions: dict[bytes, tuple[int, float]] = {}
    frames: list[tuple[np.ndarray, np.ndarray]] = []
    for j in np.flatnonzero(c > 0.0):
        alpha = target.freqs[j] / c[j]
        key = (alpha + 0.0).tobytes()
        if key in directions:
            continue
        directions[key] = (len(frames), 1.0)
        directions[(-alpha + 0.0).tobytes()] = (len(frames), -1.0)
        p = X @ alpha
        order = np.argsort(p, kind="stable")
        q = p[order]
        del p
        rank = np.empty_like(order)  # the inverse of order: q[rank] is p
        rank[order] = np.arange(n_points)
        del order
        frames.append((q, rank))

    def values(model: RidgeModel) -> np.ndarray:
        if model.slope is None:
            out = np.full(n_points, model.intercept, dtype=float)
        else:
            out = X @ model.slope
            out += model.intercept
        live = [(beta, unit) for beta, unit in model.terms if beta != 0.0]
        if not live:
            return out
        thetas = np.array([unit.theta for _, unit in live])
        if thetas.shape[1] != d + 1:
            raise ValueError(f"theta has {thetas.shape[1]} coordinates, need d + 1 = {d + 1}")
        keys = np.ascontiguousarray(thetas[:, :d] + 0.0).view(f"V{8 * d}").ravel().tolist()
        hits = [directions.get(key) for key in keys]
        for (_, unit), hit in zip(live, hits):
            if hit is None or unit.activation.kind != "ramp":
                raise ValueError(
                    f"a {unit.activation.kind} unit with theta {unit.theta.tolist()} is not "
                    "a ramp unit on one of the target's atom directions"
                )
        frame_of, z = np.array(hits).T
        w = np.array([beta * unit.sign for beta, unit in live])
        t = -thetas[:, d]
        for f, (q, rank) in enumerate(frames):
            on = frame_of == f
            if not on.any():
                continue
            zf, wf, tf = z[on], w[on], t[on]
            up = zf > 0
            # Every kink adds w to the slope; a z = +1 unit turns on there
            # (offset -w t) and a z = -1 unit, on from the frame's start,
            # turns off (offset +w t).
            kinks = np.where(
                up, np.searchsorted(q, tf, side="right"), np.searchsorted(q, -tf)
            )
            by_kink = np.argsort(kinks, kind="stable")
            slopes = np.concatenate(([-wf[~up].sum()], wf[by_kink]))
            offsets = np.concatenate(([-(wf[~up] @ tf[~up])], (-zf * wf * tf)[by_kink]))
            np.cumsum(slopes, out=slopes)
            np.cumsum(offsets, out=offsets)
            lengths = np.diff(kinks[by_kink], prepend=0, append=n_points)
            frame_values = np.repeat(slopes, lengths)
            frame_values *= q
            frame_values += np.repeat(offsets, lengths)
            out += frame_values[rank]
            del frame_values  # before the next frame's, so one is held at a time
        return out

    return values


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
