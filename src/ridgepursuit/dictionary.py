"""Ridge-unit dictionary: activations, unit evaluation, and sparse l1-ball covers.

A ridge unit is x -> sign * phi(theta . (x, 1)) where phi is a 1-Lipschitz
scalar activation and the internal parameter theta (bias folded into the last
coordinate) has l1 norm at most Lambda.  The cover construction enumerates the
vectors (Lambda/m) * sum of m signed standard basis vectors (zero allowed),
whose multiset count is C(2d+m, m), and holds each as at most m (coordinate,
count) entries; sparsify_theta draws random cover members concentrating near
a given theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ACTIVATION_KINDS",
    "Activation",
    "RidgeUnit",
    "SparseCover",
    "CoverSizeError",
    "FieldError",
    "eval_unit",
    "enumerate_cover",
    "cover_counts",
    "cover_runs",
    "cover_bytes",
    "sparsify_theta",
    "cover_count_library",
    "cover_count_log_bound",
    "lift",
]

ACTIVATION_KINDS = ("ramp", "sine", "tanh")


# ----------------------------------------------------------------------------
# Types
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class Activation:
    """A 1-Lipschitz scalar map applied to theta . (x, 1)."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ACTIVATION_KINDS:
            raise ValueError(
                f"unknown activation kind {self.kind!r}; expected one of {ACTIVATION_KINDS}"
            )

    def __call__(
        self, u: np.ndarray | float, out: np.ndarray | None = None
    ) -> np.ndarray | float:
        """phi(u), written into ``out`` when given (``out=u`` works in place)."""
        if self.kind == "ramp":
            return np.maximum(u, 0.0, out=out)
        if self.kind == "sine":
            return np.sin(u, out=out)
        return np.tanh(u, out=out)

    def derivative(self, u: np.ndarray | float) -> np.ndarray | float:
        """Pointwise derivative (subgradient 0 at the ramp kink).

        An array gives a float64 array; a scalar (or 0-d array) gives a numpy
        float64 scalar, for every kind.  The ramp's derivative is the 0/1 cast
        of u > 0, so nan maps to 0.0 and both signed zeros to +0.0.
        """
        if self.kind == "ramp":
            return (np.asarray(u) > 0.0).astype(float)
        if self.kind == "sine":
            return np.cos(u)
        t = np.tanh(u)
        return 1.0 - t * t


@dataclass(frozen=True, eq=False)
class RidgeUnit:
    """One dictionary element h(x) = sign * phi(theta . (x, 1)).

    theta has length d+1; the final coordinate multiplies the constant-1
    input slot and acts as the bias.
    """

    activation: Activation
    theta: np.ndarray
    sign: int = 1

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta, dtype=float)
        if theta.ndim != 1:
            raise ValueError(f"theta must be a vector, got shape {theta.shape}")
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        theta = theta.copy()
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)

    def key(self) -> tuple:
        """Deterministic sort key (activation, sign, coordinates)."""
        return (self.activation.kind, self.sign, tuple(self.theta))

    def evaluate_lifted(self, X_lift: np.ndarray) -> np.ndarray:
        """sign * phi(X_lift @ theta) on a batch that already has the bias column.

        phi and the sign are applied in place on the product, a fresh array.
        """
        if X_lift.shape[1] != self.theta.shape[0]:
            raise ValueError(
                f"dimension mismatch: x has {X_lift.shape[1] - 1} coordinates, "
                f"theta expects {self.theta.shape[0] - 1}"
            )
        values = X_lift @ self.theta
        self.activation(values, out=values)
        if self.sign < 0:
            np.negative(values, out=values)
        return values


class FieldError(ValueError):
    """A bad value for one configuration field, named in ``field``."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


class CoverSizeError(FieldError):
    """Raised when a cover's multiset count exceeds its cap (field
    ``cover_cap``), or when a search over it would not fit the memory the
    process can allocate (field ``cover_m_grid``)."""


@dataclass(frozen=True)
class SparseCover:
    """Enumerated sparse cover of the l1 ball of radius lam in dimension d.

    ``size`` counts the generating multisets, C(2d + m_grid, m_grid); distinct
    multisets can realize the same vector (e.g. {+e1, -e1} and {0, 0}), so
    the cover holds the K distinct vectors (lam/m_grid) c, c integer with
    ||c||_1 <= m_grid, in lexicographic order.  The set is symmetric, so row
    K-1-k is the negation of row k and the middle row is 0.

    No row is stored densely.  Row k is the m_grid (coordinate, signed count)
    entries ``coords[k]``, ``counts[k]``, whose float64 values count * (lam /
    m_grid) are ``values[k]``: a slot with count 0 is padding, value +0.0,
    and points at the column d, one past the last coordinate.  ``rows(idx)``
    decodes the rows idx by one scatter, ``row(k)`` the row k, and
    ``thetas`` every row on each read.

    The rows fall into runs, one per line of ``runs`` = (first row, start j):
    a run is a fixed prefix, the first m_grid - 1 slots of its first row
    (all below coordinate j), plus, in its last slot and in turn, each
    vector of the slice [j, 2d + 1 - j) of the vertex list -e_0, ...,
    -e_{d-1}, 0, e_{d-1}, ..., e_0.  A run with j = d is the prefix alone.
    So run r holds 2 (d - j_r) + 1 rows.  ``half_values`` and ``half_dots``
    evaluate the first K//2 rows from this layout, with no row decoded.
    """

    d: int
    m_grid: int
    lam: float
    size: int
    coords: np.ndarray = field(repr=False)  # (K, m_grid) intp, padding at column d
    counts: np.ndarray = field(repr=False)  # (K, m_grid) signed counts, padding 0
    values: np.ndarray = field(repr=False)  # (K, m_grid) float64 counts * lam / m_grid
    runs: np.ndarray = field(repr=False)  # (runs, 2) intp: first row, slice start j

    @property
    def n_distinct(self) -> int:
        return self.coords.shape[0]

    def rows(self, idx: np.ndarray) -> np.ndarray:
        """The rows idx as a (len(idx), d) float64 array.

        Each entry is float(count) * (lam / m_grid), +0.0 where the count is
        0, as the integer vectors times the step give it in float64.  The
        array is the first d columns of a fresh one whose last column takes
        the padding slots.
        """
        out = np.zeros((idx.shape[0], self.d + 1))
        at = np.arange(idx.shape[0])[:, None]
        out[at, self.coords.take(idx, axis=0)] = self.values.take(idx, axis=0)
        return out[:, : self.d]

    def row(self, k: int) -> np.ndarray:
        """Row k as a (d,) float64 array, as ``rows`` decodes it."""
        out = np.zeros(self.d + 1)
        out[self.coords[k]] = self.values[k]
        return out[: self.d]

    def half_values(self, cols: np.ndarray) -> np.ndarray:
        """theta_k . x in float32 for the first K//2 rows, a (K//2, b) array,
        on a (d, b) float64 block of design columns.

        With x~_j = fl32(x_j (lam / m_grid)), the columns scaled by the step,
        row k's value is sum_s fl32(count_s x~_j_s) over its slots, summed in
        float32 in slot order.  Each run is its prefix, summed once per run,
        plus a contiguous slice of the vertex rows [-x~_0, ..., -x~_{d-1}, 0,
        x~_{d-1}, ..., x~_0]: one numpy add per run.  No row is decoded and
        no product is taken.
        """
        d, m, half = self.d, self.m_grid, self.n_distinct // 2
        vertex = np.empty((2 * d + 1, cols.shape[1]), dtype=np.float32)
        vertex[d + 1 :] = cols[::-1] * (self.lam / m)
        vertex[d] = 0.0
        np.negative(vertex[:d:-1], out=vertex[:d])
        first, start = self.runs[self.runs[:, 0] < half].T
        # x~_j is vertex row 2d - j, so a padding slot (column d) reads the zero row.
        entry = 2 * d - self.coords[first, : m - 1]
        count = self.counts[first, : m - 1]
        prefix = np.zeros((first.shape[0], cols.shape[1]), dtype=np.float32)  # m_grid = 1: none
        for slot in range(m - 1):
            term = vertex[entry[:, slot]]
            term *= count[:, slot : slot + 1]
            prefix = np.add(prefix, term, out=prefix) if slot else term
        out = np.empty((half, cols.shape[1]), dtype=np.float32)
        stop = np.minimum(first + 2 * (d - start) + 1, half)
        for lo, hi, j, p in zip(first.tolist(), stop.tolist(), start.tolist(), prefix):
            np.add(vertex[j : j + hi - lo], p, out=out[lo:hi])
        return out

    def half_dots(self, g: np.ndarray) -> np.ndarray:
        """theta_k . g in float64 for the first K//2 rows and a (d,) g: each
        row's slot values times g at their coordinates, 0 at a padding slot,
        summed by one product with a vector of ones."""
        half = self.n_distinct // 2
        terms = np.append(g, 0.0).take(self.coords[:half])
        terms *= self.values[:half]
        return terms @ np.ones(self.m_grid)

    @property
    def thetas(self) -> np.ndarray:
        """Every row, (K, d) float64 and read-only, decoded on each read."""
        thetas = self.rows(np.arange(self.n_distinct))
        thetas.setflags(write=False)
        return thetas


# ----------------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------------


def lift(X: np.ndarray) -> np.ndarray:
    """Append the constant-1 bias coordinate: (n, d) -> (n, d+1)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    ones = np.ones((X.shape[0], 1))
    return np.hstack([X, ones])


def eval_unit(unit: RidgeUnit, x: np.ndarray) -> float | np.ndarray:
    """Evaluate sign * phi(theta . (x, 1)) at a point (d,) or batch (n, d).

    The bias is added to X @ theta[:d] in place, so the design is not lifted.
    """
    x = np.asarray(x, dtype=float)
    X = np.atleast_2d(x)
    d = unit.theta.shape[0] - 1
    if X.shape[1] != d:
        raise ValueError(
            f"dimension mismatch: x has {X.shape[1]} coordinates, theta expects {d}"
        )
    values = X @ unit.theta[:d]
    values += unit.theta[d]
    unit.activation(values, out=values)
    if unit.sign < 0:
        np.negative(values, out=values)
    return float(values[0]) if x.ndim == 1 else values


def cover_counts(d: int, m_grid: int, lam: float, cap: int = 10**6) -> tuple[int, int]:
    """The multiset count and the distinct-vector count of ``enumerate_cover``.

    The multisets of m_grid symbols from {+-e_j, 0} number C(2d + m_grid,
    m_grid).  A distinct vector with k nonzero coordinates picks them in
    C(d, k) ways, their signs in 2^k, and their magnitudes, positive
    integers summing to at most m_grid, in C(m_grid, k), so there are
    sum_k 2^k C(d, k) C(m_grid, k).  Nothing is enumerated; the checks and
    the ``cap`` on the multiset count are those of ``enumerate_cover``.
    """
    if d < 1 or m_grid < 1:
        raise ValueError(f"need d >= 1 and m_grid >= 1, got d={d}, m_grid={m_grid}")
    if lam <= 0:
        raise ValueError(f"need lam > 0, got {lam}")
    size = math.comb(2 * d + m_grid, m_grid)
    if size > cap:
        raise CoverSizeError(
            "cover_cap",
            f"cover has C({2 * d + m_grid},{m_grid}) = {size} elements, above the cap {cap}",
        )
    distinct = sum(
        2**k * math.comb(d, k) * math.comb(m_grid, k) for k in range(min(d, m_grid) + 1)
    )
    return size, distinct


def cover_runs(d: int, m_grid: int) -> int:
    """The number of runs of ``enumerate_cover(d, m_grid, lam)`` (see
    ``SparseCover``), with nothing enumerated.

    A run is a leaf of the recursion of ``enumerate_cover``: budget r <= 1,
    or no coordinate left.  With t coordinates left there are N_t(r) = 1
    leaves for r <= 1 or t = 0, and otherwise N_{t-1}(r) (the value 0) plus
    2 sum_{s=1}^{r} N_{t-1}(r - s) (the values +-s).
    """
    if d < 1 or m_grid < 1:
        raise ValueError(f"need d >= 1 and m_grid >= 1, got d={d}, m_grid={m_grid}")
    runs = [1] * (m_grid + 1)
    for _ in range(d):
        runs = runs[:2] + [runs[r] + 2 * sum(runs[:r]) for r in range(2, m_grid + 1)]
    return runs[m_grid]


def cover_bytes(d: int, m_grid: int, width: int) -> float:
    """An upper bound on the bytes the cover of (d, m_grid) holds and
    allocates, with nothing enumerated: its entries; while
    ``enumerate_cover`` runs, two int64 columns over the rows and, per run,
    its prefix and a few Python objects; per ``half_values`` call on
    ``width`` columns, the vertex rows (and their float64 product by the
    step) and two float32 rows per run; per ``half_dots`` call, g padded and
    the gather of the half's entries.  Returned arrays are not counted."""
    _, K = cover_counts(d, m_grid, 1.0, cap=math.inf)
    return (
        (21.0 * m_grid + 16.0) * K
        + (256.0 * m_grid + 8.0 * width) * cover_runs(d, m_grid)
        + 4.0 * width * (4 * d + 1)
        + 8.0 * (d + 1)
    )


def enumerate_cover(
    d: int, m_grid: int, lam: float, cap: int = 10**6
) -> SparseCover:
    """Enumerate all vectors (lam/m_grid) * sum of m_grid symbols from {+-e_j, 0}.

    These are the vectors (lam/m_grid) * c for the integer vectors c with
    ||c||_1 <= m_grid, in lexicographic order, so row K-1-k is the negation
    of row k and the middle row is zero.  The multiset count is
    C(2d + m_grid, m_grid); enumeration refuses to run past ``cap``
    multisets.

    The vectors with budget r left over coordinates j..d-1 are, in order,
    v e_j followed by those with budget r - |v| over j+1..d-1, for v from -r
    to r.  Budget 1 leaves the vertex slice -e_j, ..., -e_{d-1}, 0,
    e_{d-1}, ..., e_j, and budget 0 (or no coordinate left) leaves 0, so a
    walk of that recursion down to budget 1 lists the runs of
    ``SparseCover``; the entries of all K rows are then filled from the runs
    in O(K m_grid).  For m_grid = 1 the one run is the vertex list itself.
    """
    size, distinct = cover_counts(d, m_grid, lam, cap)
    prefixes, starts = [], []
    stack = [(0, m_grid, ())]
    while stack:
        j, r, prefix = stack.pop()
        if r <= 1 or j == d:
            prefixes.append(prefix)
            starts.append(j if r == 1 else d)
            continue
        for v in range(r, -r - 1, -1):  # popped from -r up
            stack.append((j + 1, r - abs(v), prefix + ((j, v),) if v else prefix))
    dtype = np.min_scalar_type(-m_grid)
    start = np.array(starts, dtype=np.intp)
    length = 2 * (d - start) + 1
    first = np.cumsum(length) - length
    # A prefix has at most m_grid - 1 entries; the last slot is the vertex.
    pre_coords = np.full((start.shape[0], m_grid), d, dtype=np.intp)
    pre_counts = np.zeros((start.shape[0], m_grid), dtype=dtype)
    for row, prefix in enumerate(prefixes):
        for slot, (j, v) in enumerate(prefix):
            pre_coords[row, slot], pre_counts[row, slot] = j, v
    coords = np.repeat(pre_coords, length, axis=0)
    counts = np.repeat(pre_counts, length, axis=0)
    # The last slot's vertex, as its offset w in -d..d from the zero vertex:
    # -e_{d+w} for w < 0, e_{d-w} for w > 0, so count sign(w) at d - |w|.
    offset = np.repeat(start - first - d, length)
    offset += np.arange(distinct)
    np.sign(offset, out=counts[:, -1], casting="unsafe")
    np.abs(offset, out=offset)
    np.subtract(d, offset, out=coords[:, -1])
    values = counts * (lam / m_grid)
    runs = np.column_stack([first, start])
    for array in (coords, counts, values, runs):
        array.setflags(write=False)
    return SparseCover(
        d=d,
        m_grid=m_grid,
        lam=float(lam),
        size=size,
        coords=coords,
        counts=counts,
        values=values,
        runs=runs,
    )


def sparsify_theta(
    theta: np.ndarray, m_grid: int, lam: float, rng: np.random.Generator
) -> np.ndarray:
    """Random sparse approximation of theta inside the enumerable cover.

    Draws m_grid i.i.d. symbols, taking lam * sgn(theta_j) e_j with probability
    |theta_j|/lam and the zero vector with the leftover mass, and averages.
    The result is unbiased for theta, and the expected empirical squared
    distortion over any design is at most lam * ||theta||_1 * max-norm / m_grid.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1:
        raise ValueError(f"theta must be a vector, got shape {theta.shape}")
    if m_grid < 1:
        raise ValueError(f"need m_grid >= 1, got {m_grid}")
    l1 = float(np.abs(theta).sum())
    if l1 > lam * (1 + 1e-12):
        raise ValueError(f"||theta||_1 = {l1} exceeds lam = {lam}")
    d = theta.shape[0]
    probs = np.empty(d + 1)
    probs[:d] = np.abs(theta) / lam
    probs[d] = max(0.0, 1.0 - probs[:d].sum())
    probs /= probs.sum()
    draws = rng.choice(d + 1, size=m_grid, p=probs)
    out = np.zeros(d)
    for j in draws:
        if j < d:
            out[j] += lam * np.sign(theta[j]) / m_grid
    return out


def cover_count_library(M: int, m: int) -> int:
    """Number of equal-weight m-term selections (with repetition) from M units.

    Counts nonnegative integer solutions of q_1 + ... + q_M = m, i.e.
    C(M - 1 + m, m).  Exact integer arithmetic, no overflow.
    """
    if M < 1 or m < 1:
        raise ValueError(f"need M >= 1 and m >= 1, got M={M}, m={m}")
    return math.comb(M - 1 + m, m)


def cover_count_log_bound(M: int, m: int) -> float:
    """Closed-form upper bound m * log(e * (M/m + 1)) on log cover_count_library."""
    if M < 1 or m < 1:
        raise ValueError(f"need M >= 1 and m >= 1, got M={M}, m={m}")
    return m * math.log(math.e * (M / m + 1))
