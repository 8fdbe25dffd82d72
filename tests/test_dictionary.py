"""Unit library: activations, ridge-unit evaluation, sparse l1-ball covers, and
the randomized sparsification of dense parameter vectors onto the cover grid."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ridgepursuit import (
    Activation,
    CoverSizeError,
    RidgeModel,
    RidgeUnit,
    SparseCover,
    cover_count_library,
    cover_count_log_bound,
    cover_counts,
    enumerate_cover,
    eval_unit,
    lift,
    sparsify_theta,
)
from ridgepursuit import model as model_module
from ridgepursuit.dictionary import ACTIVATION_KINDS, cover_runs

import model_oracle
from conftest import three_se


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------


class TestActivation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Activation("step")

    def test_pointwise_values(self):
        ramp, sine, tanh = Activation("ramp"), Activation("sine"), Activation("tanh")
        u = np.array([-1.5, -0.2, 0.0, 0.7, 2.0])
        np.testing.assert_allclose(ramp(u), np.maximum(u, 0.0))
        np.testing.assert_allclose(sine(u), np.sin(u))
        np.testing.assert_allclose(tanh(u), np.tanh(u))

    def test_one_lipschitz_on_usage_range(self, rng):
        # 1e5 random scalar pairs per activation; exact inequality with only
        # float roundoff slack.
        u = rng.uniform(-8.0, 8.0, size=100_000)
        up = rng.uniform(-8.0, 8.0, size=100_000)
        for kind in ("ramp", "sine", "tanh"):
            act = Activation(kind)
            gap = np.abs(act(u) - act(up))
            assert np.all(gap <= np.abs(u - up) + 1e-12), kind

    def test_range_bound_on_domain(self, rng):
        # |phi(u)| <= 2 for the unnormalized ramp and <= 1 for sine and tanh,
        # for |u| <= 2 (the l1 budget on [-1,1]^d).
        u = rng.uniform(-2.0, 2.0, size=50_000)
        for kind, bound in (("ramp", 2.0), ("sine", 1.0), ("tanh", 1.0)):
            assert np.max(np.abs(Activation(kind)(u))) <= bound + 1e-12

    def test_derivative_matches_finite_differences(self, rng):
        u = rng.uniform(-2.0, 2.0, size=200)
        u = u[np.abs(u) > 1e-3]  # keep away from the ramp kink
        h = 1e-6
        for kind in ("ramp", "sine", "tanh"):
            act = Activation(kind)
            fd = (act(u + h) - act(u - h)) / (2 * h)
            np.testing.assert_allclose(act.derivative(u), fd, atol=1e-6)

    def test_derivative_subgradient_at_kink(self):
        assert Activation("ramp").derivative(np.array([0.0]))[0] == 0.0

    def test_ramp_derivative_is_the_where_form_bit_for_bit(self):
        tiny = np.finfo(float).smallest_subnormal
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 1e-300, -1e-300, 0.5, -2.0]
        for u in (np.array(special), np.array(special[:10]).reshape(2, 5)):
            got = Activation("ramp").derivative(u)
            want = np.where(u > 0, 1.0, 0.0)
            assert isinstance(got, np.ndarray) and got.dtype == np.float64
            assert got.shape == u.shape
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("u", [0.5, -0.5, 0.0, -0.0, np.float64(2.0), np.array(0.25)])
    def test_derivative_of_a_scalar_is_a_float64_scalar(self, u):
        # Every kind returns a numpy float64 scalar (not a 0-d array) for a
        # scalar or 0-d input; the ramp's value is the where form's.
        for kind in ("ramp", "sine", "tanh"):
            got = Activation(kind).derivative(u)
            assert type(got) is np.float64
        got = Activation("ramp").derivative(u)
        assert got == np.where(np.asarray(u) > 0, 1.0, 0.0)
        assert not np.signbit(got)


# ---------------------------------------------------------------------------
# Units and evaluation
# ---------------------------------------------------------------------------


class TestEvalUnit:
    def test_ramp_positive_part(self):
        unit = RidgeUnit(Activation("ramp"), np.array([1.0, 0.0]))
        assert eval_unit(unit, np.array([0.5])) == pytest.approx(0.5)

    def test_ramp_clips_negative(self):
        unit = RidgeUnit(Activation("ramp"), np.array([1.0, 0.0]))
        assert eval_unit(unit, np.array([-0.5])) == 0.0

    def test_sine_zero_parameter(self):
        unit = RidgeUnit(Activation("sine"), np.zeros(3))
        x = np.array([0.4, -0.9])
        assert eval_unit(unit, x) == 0.0

    def test_sign_flips_value(self):
        theta = np.array([1.0, 0.3])
        plus = RidgeUnit(Activation("ramp"), theta, sign=1)
        minus = RidgeUnit(Activation("ramp"), theta, sign=-1)
        x = np.array([0.5])
        assert eval_unit(minus, x) == -eval_unit(plus, x)

    def test_batch_matches_pointwise(self, rng):
        theta = np.array([0.7, -0.4, 0.5])
        unit = RidgeUnit(Activation("tanh"), theta)
        X = rng.uniform(-1, 1, size=(20, 2))
        batch = eval_unit(unit, X)
        single = np.array([eval_unit(unit, row) for row in X])
        np.testing.assert_allclose(batch, single)

    def test_dimension_mismatch_rejected(self):
        unit = RidgeUnit(Activation("ramp"), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            eval_unit(unit, np.array([0.5, 0.5]))

    def test_theta_is_immutable(self):
        theta = np.array([1.0, 0.0])
        unit = RidgeUnit(Activation("ramp"), theta)
        with pytest.raises(ValueError):
            unit.theta[0] = 5.0
        theta[0] = 5.0  # mutating the caller's array must not leak in
        assert unit.theta[0] == 1.0

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            RidgeUnit(Activation("ramp"), np.array([1.0, 0.0]), sign=2)

    def test_evaluate_lifted_matches_eval_unit(self, rng):
        # eval_unit adds the bias after the product instead of lifting the
        # design, so the two agree within the certified rounding bound of a
        # one-term model, not bit for bit.
        for kind, sign, d in itertools.product(ACTIVATION_KINDS, (1, -1), (1, 2, 5)):
            unit = RidgeUnit(Activation(kind), rng.normal(size=d + 1), sign=sign)
            X = rng.uniform(-1, 1, size=(20, d))
            bound = model_oracle.evaluation_bound(RidgeModel(terms=[(1.0, unit)]), X)
            diff = np.abs(unit.evaluate_lifted(lift(X)) - eval_unit(unit, X))
            assert np.all(diff <= bound)
        with pytest.raises(ValueError, match="dimension mismatch"):
            unit.evaluate_lifted(X)

    def test_lift_appends_ones(self, rng):
        X = rng.uniform(-1, 1, size=(7, 3))
        L = lift(X)
        assert L.shape == (7, 4)
        np.testing.assert_allclose(L[:, :3], X)
        np.testing.assert_allclose(L[:, 3], 1.0)


def _random_terms(rng, d, plan):
    """(beta, unit) pairs for (kind, sign, beta) entries; beta None draws one."""
    return [
        (
            float(rng.uniform(0.1, 1.0)) if beta is None else beta,
            RidgeUnit(Activation(kind), rng.normal(size=d + 1), sign=sign),
        )
        for kind, sign, beta in plan
    ]


_MIXED = [("ramp", 1, None), ("sine", -1, None), ("tanh", 1, None), ("ramp", -1, None)]
_ZEROS = [("ramp", 1, 0.0), ("sine", -1, None), ("ramp", -1, 0.0), ("tanh", -1, 0.0)]
_WIDE = [(kind, sign, None) for kind in ACTIVATION_KINDS for sign in (1, -1)] * 11


class TestRidgeModelEvaluate:
    @pytest.mark.parametrize(
        "plan, d, n",
        [
            pytest.param(_MIXED, 3, 30, id="mixed"),
            pytest.param(_ZEROS, 3, 30, id="zero-weights"),
            pytest.param([], 3, 30, id="empty"),
            pytest.param(_MIXED, 1, 30, id="one-coordinate"),
            pytest.param(_MIXED, 3, 1, id="n1"),
            pytest.param(_MIXED, 3, 0, id="point"),
            pytest.param(_WIDE, 4, 3 * model_module._BLOCK_CELLS // 22 + 5, id="several-blocks"),
        ],
    )
    def test_matches_per_term_loop_within_rounding_bound(self, rng, plan, d, n):
        # The blocked products sum the terms in another order than the
        # earlier per-term loop, so the two agree within the rounding bound
        # derived in model_oracle, set before either is run.  n = 0 stands
        # for a single point of shape (d,).
        model = RidgeModel(
            terms=_random_terms(rng, d, plan),
            intercept=0.25,
            slope=rng.normal(size=d),
        )
        X = rng.uniform(-1, 1, size=(max(n, 1), d))
        x = X[0] if n == 0 else X
        got = model.evaluate(x)
        expected = model_oracle.evaluate(model, x)
        if n == 0:
            assert isinstance(got, float)
        bound = model_oracle.evaluation_bound(model, x)
        assert np.all(np.abs(np.asarray(got) - expected) <= bound)

    def test_zero_weight_terms_are_skipped(self, rng):
        # A zero-weight term is neither evaluated nor shape-checked.
        X = rng.uniform(-1, 1, size=(5, 2))
        stray = RidgeUnit(Activation("tanh"), np.ones(7))
        model = RidgeModel(terms=[(0.0, stray)], intercept=-1.5)
        np.testing.assert_array_equal(model.evaluate(X), np.full(5, -1.5))
        with pytest.raises(ValueError, match="dimension mismatch"):
            RidgeModel(terms=[(0.5, stray)]).evaluate(X)

    def test_makes_no_n_by_k_temporary(self, rng):
        # n = 200,000 and k = 256: an n x k array would be 410 MB.  The
        # traced peak stays within the output, the slope product, one block
        # and the stacked parameters.
        n, d, k = 200_000, 8, 256
        X = rng.uniform(-1, 1, size=(n, d))
        model = RidgeModel(
            terms=[(1.0 / k, RidgeUnit(Activation("ramp"), rng.normal(size=d + 1))) for _ in range(k)],
            slope=np.ones(d),
        )
        tracemalloc.start()
        try:
            model.evaluate(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        vector, block = n * 8, model_module._BLOCK_CELLS * 8
        assert peak <= 3 * vector + 2 * block


# ---------------------------------------------------------------------------
# Cover enumeration
# ---------------------------------------------------------------------------


class TestEnumerateCover:
    def test_d1_m1_elements(self):
        cover = enumerate_cover(1, 1, 2.0)
        assert cover.size == 3
        rows = {tuple(row) for row in cover.thetas}
        assert rows == {(2.0,), (-2.0,), (0.0,)}

    def test_d2_m2_count(self):
        assert enumerate_cover(2, 2, 2.0).size == 15

    def test_d3_m2_count(self):
        assert enumerate_cover(3, 2, 2.0).size == 28

    def test_multiset_count_formula_on_grid(self):
        for d in range(1, 13):
            for m in range(1, 7):
                expected = math.comb(2 * d + m, m)
                if expected > 100_000:
                    continue
                cover = enumerate_cover(d, m, 1.5)
                assert cover.size == expected, (d, m)
                assert cover.size == expected

    def test_elements_respect_radius(self):
        cover = enumerate_cover(3, 3, 1.7)
        norms = np.abs(cover.thetas).sum(axis=1)
        assert np.all(norms <= 1.7 + 1e-12)

    def test_distinct_vectors_deduplicated_and_sorted(self):
        cover = enumerate_cover(2, 2, 2.0)
        # {+e1, -e1} and {0, 0} collide as vectors, so distinct < multiset count
        assert cover.n_distinct == 13
        assert cover.thetas.shape == (13, 2)
        as_tuples = [tuple(row) for row in cover.thetas]
        assert as_tuples == sorted(as_tuples)

    @staticmethod
    def multiset_reference(d, m, lam):
        """The cover as sums of m symbols from {0, +-e_j}, deduplicated by
        np.unique and scaled by lam / m.  The symbols are summed as integer
        counts: repeated float additions of lam / m would leave
        near-duplicates such as 0.65 and 0.6500000000000001 at m >= 4."""
        rows = []
        for combo in itertools.combinations_with_replacement(range(2 * d + 1), m):
            row = np.zeros(d, dtype=int)
            for sym in combo:
                if 1 <= sym <= d:
                    row[sym - 1] += 1
                elif sym > d:
                    row[sym - d - 1] -= 1
            rows.append(row)
        return np.unique(np.array(rows), axis=0) * (lam / m)

    @pytest.mark.parametrize("d", range(1, 7))
    @pytest.mark.parametrize("m", range(1, 6))
    def test_distinct_rows_closed_form_and_mirror(self, d, m):
        # A non-dyadic lam: repeated float additions of lam/m would leave
        # near-duplicates such as 0.65 and 0.6500000000000001 at m >= 4.
        lam = 1.3
        cover = enumerate_cover(d, m, lam)
        expected = sum(
            2**k * math.comb(d, k) * math.comb(m, k) for k in range(min(d, m) + 1)
        )
        assert cover.n_distinct == expected
        assert np.unique(cover.thetas, axis=0).shape[0] == expected
        # Lexicographic order of a symmetric set: row K-1-k is -(row k).
        np.testing.assert_array_equal(cover.thetas[::-1], -cover.thetas)
        assert not np.any(cover.thetas[expected // 2])
        assert cover.thetas.tobytes() == self.multiset_reference(d, m, lam).tobytes()

    @pytest.mark.parametrize("d", range(1, 6))
    @pytest.mark.parametrize("m", range(1, 5))
    @pytest.mark.parametrize("lam", [2.0, 0.3])
    def test_sparse_rows_match_reference(self, d, m, lam):
        # The rows are decoded from at most m (coordinate, count) entries,
        # bit for bit the scaled multiset sums, with no negative zero; the
        # runs tile the rows in order.
        cover = enumerate_cover(d, m, lam)
        thetas = cover.thetas
        assert thetas.tobytes() == self.multiset_reference(d, m, lam).tobytes()
        assert not np.signbit(thetas[thetas == 0.0]).any()
        assert cover.coords.shape == cover.counts.shape == (cover.n_distinct, m)
        idx = np.random.default_rng(d * m).permutation(cover.n_distinct)
        assert cover.rows(idx).tobytes() == thetas[idx].tobytes()
        for k in idx[:5].tolist():
            assert cover.row(k).tobytes() == thetas[k].tobytes()
        assert cover.values.tobytes() == (cover.counts * (lam / m)).tobytes()
        first, start = cover.runs.T
        lengths = 2 * (d - start) + 1
        np.testing.assert_array_equal(first, np.cumsum(lengths) - lengths)
        assert lengths.sum() == cover.n_distinct

    @pytest.mark.parametrize("d", [17, 65, 257])
    def test_vertex_cover_closed_form_matches_reference(self, d):
        # m = 1 is built in closed form, lam * (-e_0, ..., -e_{d-1}, 0,
        # e_{d-1}, ..., e_0); the bytes match the multiset enumeration, so
        # every zero is +0.0.
        cover = enumerate_cover(d, 1, 1.3)
        assert cover.thetas.shape == (2 * d + 1, d)
        assert cover.thetas.tobytes() == self.multiset_reference(d, 1, 1.3).tobytes()
        assert not np.signbit(cover.thetas[cover.thetas == 0.0]).any()

    @pytest.mark.parametrize("d", range(1, 6))
    @pytest.mark.parametrize("m", range(1, 5))
    def test_counts_without_enumerating(self, d, m):
        cover = enumerate_cover(d, m, 0.7)
        assert cover_counts(d, m, 0.7) == (cover.size, cover.n_distinct)
        assert cover_runs(d, m) == cover.runs.shape[0]

    @staticmethod
    def slot_reference(theta, m, q, cols):
        """float32 theta . x for one decoded row theta, from the recursion of
        ``enumerate_cover``: a nonzero entry taken with budget 1 left is the
        vertex, in the last slot; the others are the prefix, in coordinate
        order, padded with zero slots to m - 1.  Slot s adds fl32(c_s x~_j_s)
        with x~_j = fl32(x_j q), in slot order; a padding slot adds +0.0,
        and so does the empty prefix of m = 1."""
        scaled = (cols * q).astype(np.float32)
        zero = np.zeros(cols.shape[1], dtype=np.float32)
        prefix, vertex, budget = [], zero, m
        for j in np.flatnonzero(theta).tolist():
            c = int(round(theta[j] / q))
            term = scaled[j] * np.float32(c)
            if budget == 1:
                vertex = term
            else:
                prefix.append(term)
            budget -= abs(c)
        slots = prefix + [zero] * (m - 1 - len(prefix))
        total = slots[0] if slots else zero
        for term in slots[1:]:
            total = total + term
        return total + vertex

    @pytest.mark.parametrize("d", range(1, 6))
    @pytest.mark.parametrize("m", range(1, 5))
    @pytest.mark.parametrize("lam", [2.0, 0.3])
    def test_half_values_match_slot_sums(self, d, m, lam):
        # On a block of 300 columns (not a multiple of 1024) with entries at
        # +-1 and 0 and uniform ones, bit for bit, signed zeros included.
        rng = np.random.default_rng(10 * d + m)
        cols = rng.uniform(-1, 1, size=(d, 300))
        cols[:, :90] = rng.choice([-1.0, 0.0, 1.0], size=(d, 90))
        cover = enumerate_cover(d, m, lam)
        half = cover.n_distinct // 2
        got = cover.half_values(cols)
        assert got.shape == (half, 300) and got.dtype == np.float32
        thetas = cover.rows(np.arange(half))
        want = np.array([self.slot_reference(t, m, lam / m, cols) for t in thetas])
        assert got.view(np.uint32).tobytes() == want.view(np.uint32).tobytes()

    @pytest.mark.parametrize("d", range(1, 6))
    @pytest.mark.parametrize("m", range(1, 5))
    @pytest.mark.parametrize("lam", [2.0, 0.3])
    def test_half_dots_match_decoded_rows(self, d, m, lam):
        # Each row's products theta_j g_j, rounded, summed in coordinate
        # (slot) order from +0.0: bit for bit with at most two nonzero
        # entries per row, within a few ulps with more.  The decoded rows'
        # BLAS product may fuse a multiply into its sum, so it is only
        # within an ulp or two.
        rng = np.random.default_rng(10 * d + m)
        cover = enumerate_cover(d, m, lam)
        thetas = cover.rows(np.arange(cover.n_distinct // 2))
        for g in (rng.normal(size=d), rng.choice([-1.0, 0.0, 1.0], size=d)):
            got = cover.half_dots(g)
            products = [(t * g)[t != 0.0].tolist() for t in thetas]
            want = np.array([sum(p, 0.0) for p in products])
            assert got.shape == want.shape and got.dtype == np.float64
            ulp = np.spacing(np.abs(thetas) @ np.abs(g))
            if m <= 2:
                assert got.tobytes() == want.tobytes()
            else:
                assert np.all(np.abs(got - want) <= 4 * ulp)
            assert np.all(np.abs(got - thetas @ g) <= 4 * ulp)

    def test_counts_share_the_cap_and_checks(self):
        with pytest.raises(CoverSizeError):
            cover_counts(40, 2, 2.0, cap=10)
        with pytest.raises(ValueError):
            cover_counts(0, 2, 2.0)
        with pytest.raises(ValueError):
            cover_counts(2, 2, 0.0)

    def test_cap_exceeded_raises(self):
        with pytest.raises(CoverSizeError):
            enumerate_cover(500, 4, 2.0, cap=10**6)

    def test_default_cap_is_million(self):
        # C(2*500+4, 4) > 1e6 — must refuse without an explicit cap too.
        with pytest.raises(CoverSizeError):
            enumerate_cover(500, 4, 2.0)

    def test_invalid_arguments(self):
        for bad in ((0, 1, 2.0), (1, 0, 2.0), (1, 1, 0.0)):
            with pytest.raises(ValueError):
                enumerate_cover(*bad)


# ---------------------------------------------------------------------------
# Sparsification onto the cover
# ---------------------------------------------------------------------------


class TestSparsifyTheta:
    def test_full_mass_on_one_atom_is_fixed_point(self, rng):
        theta = np.array([2.0, 0.0, 0.0])
        for _ in range(50):
            out = sparsify_theta(theta, 3, 2.0, rng)
            np.testing.assert_array_equal(out, theta)

    def test_zero_vector_maps_to_zero(self, rng):
        theta = np.zeros(4)
        out = sparsify_theta(theta, 2, 2.0, rng)
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_two_outcome_distribution(self, rng):
        # theta=(L/2, L/2), one grid draw: output is L*e1 or L*e2, each w.p. 1/2
        lam = 2.0
        theta = np.array([1.0, 1.0])
        outcomes = {(lam, 0.0): 0, (0.0, lam): 0}
        n_draws = 4000
        for _ in range(n_draws):
            out = sparsify_theta(theta, 1, lam, rng)
            key = tuple(out)
            assert key in outcomes, key
            outcomes[key] += 1
        # binomial(4000, 1/2): 3 sigma ~ 95
        half = n_draws / 2
        sigma = math.sqrt(n_draws * 0.25)
        assert abs(outcomes[(lam, 0.0)] - half) <= 3 * sigma

    def test_norm_violation_rejected(self, rng):
        with pytest.raises(ValueError):
            sparsify_theta(np.array([1.5, 1.0]), 2, 2.0, rng)

    def test_output_always_in_cover(self, rng):
        d, m_grid, lam = 3, 2, 2.0
        rows = {tuple(row) for row in enumerate_cover(d, m_grid, lam).thetas}
        for _ in range(200):
            theta = rng.uniform(-1, 1, size=d)
            theta *= rng.uniform(0, lam) / max(np.abs(theta).sum(), 1e-12)
            out = sparsify_theta(theta, m_grid, lam, rng)
            assert tuple(out) in rows

    def test_unbiasedness(self, rng):
        # E[theta_tilde] = theta: each coordinate atom is drawn w.p.
        # |theta_j|/lam and contributes sign(theta_j)*lam/m per draw.
        theta = np.array([0.8, -0.5, 0.3])
        draws = np.stack(
            [sparsify_theta(theta, 4, 2.0, rng) for _ in range(20_000)]
        )
        se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - theta) <= 3 * se + 1e-12)

    def test_distortion_bound_monte_carlo(self, rng):
        # Mean empirical squared distortion of theta.x over the design is at
        # most lam*|theta|_1*max|x|^2/m_grid (+3 SE), for random dense thetas.
        d, n, m_grid, lam = 20, 200, 4, 2.0
        X = rng.uniform(-1, 1, size=(n, d))
        xmax_sq = float(np.max(np.abs(X)) ** 2)
        n_draws = 2000
        for _ in range(10):
            theta = rng.uniform(-1, 1, size=d)
            theta *= rng.uniform(0.2, 1.0) * lam / np.abs(theta).sum()
            base = X @ theta
            dist = np.empty(n_draws)
            for k in range(n_draws):
                tilde = sparsify_theta(theta, m_grid, lam, rng)
                dist[k] = np.mean((base - X @ tilde) ** 2)
            bound = lam * np.abs(theta).sum() * xmax_sq / m_grid
            mean, band = three_se(dist)
            assert mean <= bound + band


# ---------------------------------------------------------------------------
# Library cardinality accounting
# ---------------------------------------------------------------------------


class TestCoverCountLibrary:
    def test_choose_one_of_two(self):
        assert cover_count_library(2, 1) == 2

    def test_multisets_of_two_over_three(self):
        assert cover_count_library(3, 2) == 6

    def test_twenty_and_log_bound(self):
        count = cover_count_library(4, 3)
        assert count == 20
        bound = cover_count_log_bound(4, 3)
        assert math.log(20) <= bound
        assert bound == pytest.approx(3 * math.log(math.e * (4 / 3 + 1)))

    def test_exact_python_integers(self):
        # big inputs must not overflow (arbitrary precision)
        count = cover_count_library(10**6, 50)
        assert isinstance(count, int)
        assert count == math.comb(10**6 - 1 + 50, 50)

    def test_invalid_inputs(self):
        for M, m in ((0, 1), (1, 0), (-2, 3)):
            with pytest.raises(ValueError):
                cover_count_library(M, m)

    @given(st.integers(1, 40), st.integers(1, 40))
    def test_log_bound_dominates(self, M, m):
        assert math.log(cover_count_library(M, m)) <= cover_count_log_bound(M, m) + 1e-12


class TestSparseCoverType:
    def test_size_vs_distinct_and_contains_tolerance(self):
        cover = enumerate_cover(1, 2, 2.0)
        # multisets of 2 over {+e1,-e1,0}: C(4,2)=6 ; vectors {2,1,0,-1,-2}: 5
        assert cover.size == 6
        assert cover.n_distinct == 5

    def test_fields_frozen(self):
        cover = enumerate_cover(1, 1, 2.0)
        assert isinstance(cover, SparseCover)
        with pytest.raises(AttributeError):
            cover.size = 99
