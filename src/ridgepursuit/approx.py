"""Probabilistic sparsification of ridge models.

Given f = sum_h beta_h h with coefficient mass v_f, an m-term equal-weight
random average (v/m) sum_k h_k reproduces f with expected squared-distance
inflation at most v v_f / m; stratifying the draw over a partition of the
units into cells of radius eps_1 improves this to v v_f eps_1^2 / m_0; and
quantizing every sampled unit onto an eps_2-net shifts the model by at most
its coefficient mass times eps_2 in empirical L1.  best_of turns the
bound-in-expectation into a concrete realization by keeping the best of k
independent draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dictionary import RidgeUnit, eval_unit
from .model import RidgeModel

__all__ = [
    "maurey_sample",
    "stratified_maurey",
    "farthest_point_cells",
    "quantize_to_net",
    "combined_unit_distance",
    "best_of",
    "BestDraw",
]


def maurey_sample(
    f: RidgeModel, m: int, v: float, rng: np.random.Generator
) -> RidgeModel:
    """Equal-weight m-term random average of f's units.

    Each of the m draws picks unit k with probability beta_k / v and the zero
    function with the leftover probability 1 - v_f / v; kept draws get weight
    v / m.  The affine part of f is carried over unchanged.  Requires v >= v_f.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    v_f = f.v
    if v < v_f * (1 - 1e-12):
        raise ValueError(f"need v >= v_f = {v_f}, got v = {v}")
    v = max(v, v_f)
    n_units = f.n_terms
    probs = np.empty(n_units + 1)
    if v > 0:
        probs[:n_units] = [beta / v for beta, _ in f.terms]
    else:
        probs[:n_units] = 0.0
    probs[n_units] = max(0.0, 1.0 - probs[:n_units].sum())
    probs /= probs.sum()
    draws = rng.choice(n_units + 1, size=m, p=probs)
    terms = [(v / m, f.terms[k][1]) for k in draws if k < n_units]
    return RidgeModel(terms=terms, intercept=f.intercept, slope=f.slope)


def stratified_maurey(
    f: RidgeModel,
    cells: Sequence[Sequence[int]],
    m0: int,
    rng: np.random.Generator,
    v: float | None = None,
) -> RidgeModel:
    """Stratified random average of f's units with proportional allocation.

    ``cells`` partitions the term indices of f.  A cell holding mass
    v_j = sum of its weights receives N_j = ceil(v_j * m0 / v) draws, each
    picking a unit within the cell proportionally to its weight and entering
    at weight v_j / N_j.  Cells with v_j = 0 are skipped.  The total term
    count is at most m0 + (number of cells), and the expected squared
    distortion is at most v v_f eps_1^2 / m0 for cells of radius eps_1.
    """
    if m0 < 1:
        raise ValueError(f"need m0 >= 1, got {m0}")
    v_f = f.v
    if v is None:
        v = v_f
    if v < v_f * (1 - 1e-12):
        raise ValueError(f"need v >= v_f = {v_f}, got v = {v}")
    v = max(v, v_f)
    seen = sorted(i for cell in cells for i in cell)
    if seen != list(range(f.n_terms)):
        raise ValueError("cells must partition the term indices of f exactly")
    terms: list[tuple[float, RidgeUnit]] = []
    for cell in cells:
        weights = np.array([f.terms[i][0] for i in cell])
        v_j = float(weights.sum())
        if v_j == 0.0 or len(cell) == 0:
            continue
        N_j = int(np.ceil(v_j * m0 / v))
        draws = rng.choice(len(cell), size=N_j, p=weights / v_j)
        for k in draws:
            terms.append((v_j / N_j, f.terms[cell[int(k)]][1]))
    return RidgeModel(terms=terms, intercept=f.intercept, slope=f.slope)


def farthest_point_cells(
    f: RidgeModel, n_cells: int, X: np.ndarray, X_prime: np.ndarray | None = None
) -> tuple[list[list[int]], float]:
    """Partition f's units into n_cells by greedy farthest-point clustering.

    Distances are combined empirical L2 over the design(s).  Returns the cells
    (term-index lists, nonempty first) and the realized radius eps_1 = max
    distance of a unit to its cell center.
    """
    n_units = f.n_terms
    if n_units == 0:
        return [[] for _ in range(n_cells)], 0.0
    evals = np.stack(
        [_combined_eval(unit, X, X_prime) for _, unit in f.terms]
    )  # (units, samples)
    half = X.shape[0]
    centers = [0]
    dist_sq = _row_sq_distances(evals, evals[0], half)
    while len(centers) < min(n_cells, n_units):
        far = int(np.argmax(dist_sq))
        centers.append(far)
        dist_sq = np.minimum(dist_sq, _row_sq_distances(evals, evals[far], half))
    assignment = np.argmin(
        np.stack([_row_sq_distances(evals, evals[c], half) for c in centers]), axis=0
    )
    cells = [[] for _ in range(len(centers))]
    for i, c in enumerate(assignment):
        cells[int(c)].append(i)
    radius = float(np.sqrt(np.max(dist_sq))) if len(centers) < n_units else 0.0
    return cells, radius


def _combined_eval(
    unit: RidgeUnit, X: np.ndarray, X_prime: np.ndarray | None
) -> np.ndarray:
    vals = np.atleast_1d(eval_unit(unit, X))
    if X_prime is not None:
        vals = np.concatenate([vals, np.atleast_1d(eval_unit(unit, X_prime))])
    return vals


def _row_sq_distances(evals: np.ndarray, center: np.ndarray, half: int) -> np.ndarray:
    """Squared combined empirical L2 distances of every row to the center row."""
    diff_sq = (evals - center) ** 2
    if diff_sq.shape[1] == half:
        return diff_sq.mean(axis=1)
    train = diff_sq[:, :half].mean(axis=1)
    test = diff_sq[:, half:].mean(axis=1)
    return 0.5 * (train + test)


def combined_unit_distance(
    a: RidgeUnit, b: RidgeUnit, X: np.ndarray, X_prime: np.ndarray | None = None
) -> float:
    """Empirical L2 distance between two units, averaging train and test designs."""
    va = _combined_eval(a, X, X_prime)
    vb = _combined_eval(b, X, X_prime)
    half = X.shape[0]
    return float(np.sqrt(_row_sq_distances(va[None, :], vb, half)[0]))


def quantize_to_net(
    f_m: RidgeModel,
    net: Sequence[RidgeUnit],
    X: np.ndarray,
    X_prime: np.ndarray | None = None,
) -> RidgeModel:
    """Replace every unit of f_m by its nearest net element.

    Nearness is combined empirical L2 over the design(s); exact-distance ties
    break lexicographically on (activation, sign, theta).  Weights are
    unchanged, so v never increases, and the empirical L1 shift of the model
    is at most (coefficient mass of f_m) * eps_2 for an eps_2-net.
    """
    if f_m.n_terms == 0:
        return RidgeModel(terms=[], intercept=f_m.intercept, slope=f_m.slope)
    if len(net) == 0:
        raise ValueError("net must be nonempty")
    half = X.shape[0]
    net_evals = np.stack([_combined_eval(u, X, X_prime) for u in net])
    net_keys = [u.key() for u in net]
    terms: list[tuple[float, RidgeUnit]] = []
    for beta, unit in f_m.terms:
        d_sq = _row_sq_distances(net_evals, _combined_eval(unit, X, X_prime), half)
        best = np.min(d_sq)
        tied = np.flatnonzero(d_sq <= best + 1e-15)
        winner = min(tied, key=lambda i: net_keys[int(i)])
        terms.append((beta, net[int(winner)]))
    return RidgeModel(terms=terms, intercept=f_m.intercept, slope=f_m.slope)


@dataclass(frozen=True)
class BestDraw:
    """A winning realization with its measured distortion and candidate index."""

    model: RidgeModel
    distortion: float
    index: int


def best_of(
    draw: Callable[[np.random.Generator], RidgeModel],
    distortion: Callable[[RidgeModel], float],
    k: int = 32,
    seed: int = 0,
) -> BestDraw:
    """Keep the best of k independent draws.

    Candidate i draws from its own generator derived from ``seed``; the
    winner minimizes (measured distortion, candidate index).  The draws run
    one after another on the calling thread, like everything else in the
    package; BLAS threading is left at the library default.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    seeds = np.random.SeedSequence(seed).spawn(k)

    def _run(i: int) -> tuple[float, int, RidgeModel]:
        model = draw(np.random.default_rng(seeds[i]))
        return (float(distortion(model)), i, model)

    dist, idx, model = min(map(_run, range(k)), key=lambda r: (r[0], r[1]))
    return BestDraw(model=model, distortion=dist, index=idx)
