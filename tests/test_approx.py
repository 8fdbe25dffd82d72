"""Sparsification: equal-weight random averages, stratified sampling with
proportional allocation, quantization onto a net, and best-of-k selection."""

import math
import threading

import numpy as np
import pytest
from scipy import stats

from ridgepursuit import (
    Activation,
    RidgeModel,
    RidgeUnit,
    best_of,
    combined_unit_distance,
    farthest_point_cells,
    maurey_sample,
    quantize_to_net,
    stratified_maurey,
)

from conftest import three_se


def orthonormal_pair():
    """Two sine units empirically orthonormal on a fixed 4-point design.

    h1(x) = sin(2 x1) and h2(x) = sin(2 x2) take values +-1 on the grid
    (+-pi/4, +-pi/4), giving exact empirical norms 1 and inner product 0.
    """
    q = math.pi / 4
    X = np.array([[q, q], [q, -q], [-q, q], [-q, -q]])
    sine = Activation("sine")
    h1 = RidgeUnit(sine, np.array([2.0, 0.0, 0.0]))
    h2 = RidgeUnit(sine, np.array([0.0, 2.0, 0.0]))
    return X, h1, h2


def sq_norm(values):
    return float(np.mean(np.asarray(values) ** 2))


# ---------------------------------------------------------------------------
# maurey_sample
# ---------------------------------------------------------------------------


class TestMaureySample:
    def test_point_mass_reproduces_exactly(self, rng):
        X, h1, _ = orthonormal_pair()
        f = RidgeModel(terms=[(0.8, h1)])
        for _ in range(20):
            fm = maurey_sample(f, 3, 0.8, rng)
            np.testing.assert_allclose(fm(X), f(X), atol=1e-12)

    def test_orthonormal_pair_distortion_exactly_half(self, rng):
        # f = (h1+h2)/2 with v = v_f = 1, m = 1: both outcomes have squared
        # distance exactly 1/2 from f, so the MC mean equals 1/2.
        X, h1, h2 = orthonormal_pair()
        f = RidgeModel(terms=[(0.5, h1), (0.5, h2)])
        fX = f(X)
        dists = np.array(
            [sq_norm(maurey_sample(f, 1, 1.0, rng)(X) - fX) for _ in range(2000)]
        )
        np.testing.assert_allclose(dists, 0.5, atol=1e-12)
        mean, band = three_se(dists)
        assert abs(mean - 0.5) <= max(band, 1e-12)
        assert mean <= 1.0  # v * v_f / m

    def test_slack_three_outcome_enumeration(self, rng):
        # v = 2 with v_f = 1: zero draw w.p. 1/2 (distortion ||f||^2 = 1/2),
        # 2*h1 or 2*h2 each w.p. 1/4 (distortion 2.5); E = 1.5 <= v*v_f/m = 2.
        X, h1, h2 = orthonormal_pair()
        f = RidgeModel(terms=[(0.5, h1), (0.5, h2)])
        fX = f(X)
        exact_outcomes = {0.5, 2.5}
        exact_mean = 0.5 * 0.5 + 0.5 * 2.5
        assert exact_mean <= 2.0
        dists = np.array(
            [sq_norm(maurey_sample(f, 1, 2.0, rng)(X) - fX) for _ in range(4000)]
        )
        for value in np.unique(np.round(dists, 9)):
            assert min(abs(value - o) for o in exact_outcomes) < 1e-9
        mean, band = three_se(dists)
        assert abs(mean - exact_mean) <= band
        assert mean <= 2.0 + band

    def test_insufficient_mass_rejected(self, rng):
        _, h1, h2 = orthonormal_pair()
        f = RidgeModel(terms=[(0.5, h1), (0.5, h2)])
        with pytest.raises(ValueError):
            maurey_sample(f, 1, 0.5, rng)
        with pytest.raises(ValueError):
            maurey_sample(f, 0, 1.0, rng)

    def test_term_weights_and_affine_carry(self, rng):
        X, h1, h2 = orthonormal_pair()
        f = RidgeModel(
            terms=[(0.5, h1), (0.5, h2)], intercept=0.3, slope=np.array([0.1, -0.2])
        )
        fm = maurey_sample(f, 4, 1.5, rng)
        assert fm.intercept == 0.3
        np.testing.assert_array_equal(fm.slope, f.slope)
        for beta, _ in fm.terms:
            assert beta == pytest.approx(1.5 / 4)

    @staticmethod
    def random_small_model(rng):
        """<=5 bounded units (sine/tanh, so ||h||_inf <= 1) in d <= 8."""
        d = int(rng.integers(1, 9))
        k = int(rng.integers(1, 6))
        units = []
        for _ in range(k):
            kind = rng.choice(["sine", "tanh"])
            theta = rng.uniform(-1, 1, size=d + 1)
            theta *= rng.uniform(0.2, 1.0) * 2.0 / max(np.abs(theta).sum(), 1e-9)
            units.append(RidgeUnit(Activation(kind), theta, sign=int(rng.choice([-1, 1]))))
        betas = rng.uniform(0.1, 1.0, size=k)
        return RidgeModel(terms=list(zip(betas.tolist(), units))), d

    def test_expected_distortion_bound_twenty_random_models(self, rng):
        # E[||f_m - f0||^2 - ||f - f0||^2] <= v * v_f / m within 3 SE, for
        # random references f0 and slack factors v >= v_f.
        n, draws = 100, 600
        for case in range(20):
            f, d = self.random_small_model(rng)
            X = rng.uniform(-1, 1, size=(n, d))
            v_f = f.v
            v = v_f * float(rng.uniform(1.0, 1.5))
            m = int(rng.integers(1, 9))
            if case % 2 == 0:
                f0_vals = np.zeros(n)
            else:
                f0_vals = rng.uniform(-0.5, 0.5) + X @ rng.uniform(-0.3, 0.3, size=d)
            base = sq_norm(f(X) - f0_vals)
            gaps = np.array(
                [
                    sq_norm(maurey_sample(f, m, v, rng)(X) - f0_vals) - base
                    for _ in range(draws)
                ]
            )
            mean, band = three_se(gaps)
            bound = v * v_f / m
            assert mean <= bound + band, (case, mean, bound, band)

    def test_bound_under_mixed_two_design_norm(self, rng):
        # The same expectation bound holds for the half/half mixture of two
        # empirical designs (any convex combination of norms).
        n, draws = 80, 800
        for _ in range(3):
            f, d = self.random_small_model(rng)
            X1 = rng.uniform(-1, 1, size=(n, d))
            X2 = rng.uniform(-1, 1, size=(n, d))
            v_f = f.v
            v = v_f * 1.2
            m = int(rng.integers(1, 5))
            f1, f2 = f(X1), f(X2)
            gaps = np.empty(draws)
            for k in range(draws):
                fm = maurey_sample(f, m, v, rng)
                gaps[k] = 0.5 * sq_norm(fm(X1) - f1) + 0.5 * sq_norm(fm(X2) - f2)
            mean, band = three_se(gaps)
            assert mean <= v * v_f / m + band


# ---------------------------------------------------------------------------
# stratified_maurey
# ---------------------------------------------------------------------------


class TestStratifiedMaurey:
    def test_identical_units_zero_distortion(self, rng):
        X, h1, _ = orthonormal_pair()
        f = RidgeModel(terms=[(0.6, h1), (0.4, h1)])
        fm = stratified_maurey(f, [[0, 1]], 3, rng)
        np.testing.assert_allclose(fm(X), f(X), atol=1e-12)

    def test_point_mass_cells_reproduce_exactly(self, rng):
        X, h1, h2 = orthonormal_pair()
        f = RidgeModel(terms=[(0.7, h1), (0.3, h2)])
        for m0 in (2, 3, 7):
            fm = stratified_maurey(f, [[0], [1]], m0, rng)
            np.testing.assert_allclose(fm(X), f(X), atol=1e-12)

    def test_term_budget(self, rng):
        X, h1, h2 = orthonormal_pair()
        f = RidgeModel(terms=[(0.7, h1), (0.3, h2)])
        for m0 in (1, 2, 5):
            fm = stratified_maurey(f, [[0], [1]], m0, rng)
            assert fm.n_terms <= m0 + 2

    def test_single_cell_orthonormal_bound(self, rng):
        # One cell holding the two orthonormal units; with eps_1 = half their
        # distance, eps_1^2 = 1/2 and E distortion = v*v_f*eps_1^2/m0 exactly.
        X, h1, h2 = orthonormal_pair()
        f = RidgeModel(terms=[(0.5, h1), (0.5, h2)])
        fX = f(X)
        m0 = 2
        eps1_sq = 0.5
        bound = 1.0 * 1.0 * eps1_sq / m0
        dists = np.array(
            [
                sq_norm(stratified_maurey(f, [[0, 1]], m0, rng)(X) - fX)
                for _ in range(10_000)
            ]
        )
        mean, band = three_se(dists)
        assert mean <= bound + max(band, 1e-9)

    def test_zero_weight_cell_skipped(self, rng):
        X, h1, h2 = orthonormal_pair()
        f = RidgeModel(terms=[(0.7, h1), (0.0, h2)])
        fm = stratified_maurey(f, [[0], [1]], 4, rng)
        np.testing.assert_allclose(fm(X), f(X), atol=1e-12)
        assert all(unit.key() == h1.key() for _, unit in fm.terms)

    def test_partition_validation(self, rng):
        _, h1, h2 = orthonormal_pair()
        f = RidgeModel(terms=[(0.5, h1), (0.5, h2)])
        with pytest.raises(ValueError):
            stratified_maurey(f, [[0]], 2, rng)  # missing index 1
        with pytest.raises(ValueError):
            stratified_maurey(f, [[0, 1], [1]], 2, rng)  # duplicated index
        with pytest.raises(ValueError):
            stratified_maurey(f, [[0, 1]], 0, rng)

    def test_one_cell_matches_plain_sampler_distribution(self, rng):
        # With a single cell and v = v_f, stratified sampling degenerates to
        # the plain equal-weight sampler; compare unit frequencies over 1e4
        # single-draw runs with a chi-square two-sample test.
        _, h1, h2 = orthonormal_pair()
        f = RidgeModel(terms=[(0.3, h1), (0.7, h2)])
        n_draws = 10_000

        def counts(sampler):
            c = np.zeros(2, dtype=int)
            for _ in range(n_draws):
                model = sampler()
                assert model.n_terms == 1
                c[0 if model.terms[0][1].key() == h1.key() else 1] += 1
            return c

        strat = counts(lambda: stratified_maurey(f, [[0, 1]], 1, rng))
        plain = counts(lambda: maurey_sample(f, 1, f.v, rng))
        _, p, _, _ = stats.chi2_contingency(np.stack([strat, plain]))
        assert p > 0.001, (strat, plain, p)


# ---------------------------------------------------------------------------
# farthest-point cells and quantization
# ---------------------------------------------------------------------------


class TestFarthestPointCells:
    def test_partition_and_zero_radius(self, rng):
        X, h1, h2 = orthonormal_pair()
        f = RidgeModel(terms=[(0.5, h1), (0.5, h2)])
        cells, radius = farthest_point_cells(f, 2, X)
        assert sorted(i for cell in cells for i in cell) == [0, 1]
        assert radius == 0.0

    def test_single_cell_radius_is_max_center_distance(self):
        X, h1, h2 = orthonormal_pair()
        f = RidgeModel(terms=[(0.5, h1), (0.5, h2)])
        cells, radius = farthest_point_cells(f, 1, X)
        assert sorted(i for cell in cells for i in cell) == [0, 1]
        assert radius == pytest.approx(combined_unit_distance(h1, h2, X))

    def test_empty_model(self):
        X, _, _ = orthonormal_pair()
        cells, radius = farthest_point_cells(RidgeModel(), 3, X)
        assert radius == 0.0
        assert all(len(c) == 0 for c in cells)


class TestQuantizeToNet:
    def test_net_containing_units_is_identity(self, rng):
        X, h1, h2 = orthonormal_pair()
        f = RidgeModel(terms=[(0.4, h1), (0.6, h2)])
        out = quantize_to_net(f, [h2, h1], X)
        assert [u.key() for _, u in out.terms] == [h1.key(), h2.key()]
        np.testing.assert_allclose(out(X), f(X), atol=1e-15)

    def test_shift_exactly_v_times_eps2(self):
        # Single ramp unit at combined-L2 distance eps_2 = 0.6 from the only
        # net element; the empirical L1 model shift equals v * eps_2 exactly.
        X = np.array([[0.3], [-0.3]])
        ramp = Activation("ramp")
        unit = RidgeUnit(ramp, np.array([2.0, 0.0]))
        net_unit = RidgeUnit(ramp, np.array([-2.0, 0.0]))
        f = RidgeModel(terms=[(1.0, unit)])
        eps2 = combined_unit_distance(unit, net_unit, X)
        assert eps2 == pytest.approx(0.6)
        out = quantize_to_net(f, [net_unit], X)
        shift = float(np.mean(np.abs(out(X) - f(X))))
        assert shift == pytest.approx(f.v * eps2, rel=1e-12)

    def test_empty_model_passthrough(self):
        X, h1, _ = orthonormal_pair()
        out = quantize_to_net(RidgeModel(intercept=0.2), [h1], X)
        assert out.n_terms == 0
        assert out.intercept == 0.2

    def test_empty_net_rejected(self):
        X, h1, _ = orthonormal_pair()
        with pytest.raises(ValueError):
            quantize_to_net(RidgeModel(terms=[(1.0, h1)]), [], X)

    def test_picks_nearest_element(self, rng):
        X = rng.uniform(-1, 1, size=(40, 1))
        ramp = Activation("ramp")
        unit = RidgeUnit(ramp, np.array([1.0, 0.05]))
        near = RidgeUnit(ramp, np.array([1.0, 0.0]))
        far = RidgeUnit(ramp, np.array([-1.0, 0.5]))
        out = quantize_to_net(RidgeModel(terms=[(1.0, unit)]), [far, near], X)
        assert out.terms[0][1].key() == near.key()

    def test_never_increases_mass(self, rng):
        X, h1, h2 = orthonormal_pair()
        for _ in range(10):
            k = int(rng.integers(1, 5))
            betas = rng.uniform(0, 1, size=k)
            units = [h1 if rng.random() < 0.5 else h2 for _ in range(k)]
            f = RidgeModel(terms=list(zip(betas.tolist(), units)))
            out = quantize_to_net(f, [h1], X)
            assert out.v == f.v  # weights pass through untouched

    def test_train_test_combined_metric(self):
        # With X' included, nearness uses the average of both designs: the
        # candidate closer on the combined metric must win even if it is the
        # worse pick on the training design alone.
        ramp = Activation("ramp")
        unit = RidgeUnit(ramp, np.array([2.0, 0.0]))
        cand_a = RidgeUnit(ramp, np.array([1.5, 0.0]))
        cand_b = RidgeUnit(ramp, np.array([2.0, -0.3]))
        X = np.array([[0.1], [-0.5]])
        X_prime = np.array([[0.9], [0.95]])
        da_tr = combined_unit_distance(unit, cand_a, X)
        db_tr = combined_unit_distance(unit, cand_b, X)
        assert da_tr < db_tr  # a wins on train alone
        da = combined_unit_distance(unit, cand_a, X, X_prime)
        db = combined_unit_distance(unit, cand_b, X, X_prime)
        assert db < da  # b wins on the combined metric
        out = quantize_to_net(RidgeModel(terms=[(1.0, unit)]), [cand_a, cand_b], X, X_prime)
        assert out.terms[0][1].key() == cand_b.key()


# ---------------------------------------------------------------------------
# best_of
# ---------------------------------------------------------------------------


class TestBestOf:
    def setup_method(self):
        self.X, h1, h2 = orthonormal_pair()
        self.f = RidgeModel(terms=[(0.5, h1), (0.5, h2)])
        self.fX = self.f(self.X)

    def draw(self, gen):
        return maurey_sample(self.f, 2, 2.0, gen)

    def distortion(self, model):
        return sq_norm(model(self.X) - self.fX)

    def test_deterministic(self):
        a = best_of(self.draw, self.distortion, k=16, seed=7)
        b = best_of(self.draw, self.distortion, k=16, seed=7)
        assert a.index == b.index
        assert a.distortion == b.distortion
        np.testing.assert_array_equal(a.model(self.X), b.model(self.X))

    def test_wins_over_every_candidate(self):
        k, seed = 16, 3
        result = best_of(self.draw, self.distortion, k=k, seed=seed)
        seeds = np.random.SeedSequence(seed).spawn(k)
        manual = [self.distortion(self.draw(np.random.default_rng(s))) for s in seeds]
        assert result.distortion == min(manual)
        assert result.index == int(np.argmin(manual))
        assert 0 <= result.index < k

    def test_beats_single_draw_on_average(self):
        single = best_of(self.draw, self.distortion, k=1, seed=0)
        best = best_of(self.draw, self.distortion, k=32, seed=0)
        assert best.distortion <= single.distortion

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            best_of(self.draw, self.distortion, k=0)

    def test_draws_run_on_the_calling_thread(self):
        # Every draw and every distortion runs on the caller's thread: the
        # package starts no thread of its own.
        threads = set()

        def draw(gen):
            threads.add(threading.get_ident())
            return self.draw(gen)

        def distortion(model):
            threads.add(threading.get_ident())
            return self.distortion(model)

        best_of(draw, distortion, k=8, seed=1)
        assert threads == {threading.get_ident()}
