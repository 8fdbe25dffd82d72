"""Spectral targets: closed-form norms, gradient consistency, the randomized
ramp-network sampler with its exact normalizer, dataset generation under the
three noise laws, and CSV interchange."""

import io
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from ridgepursuit import (
    Dataset,
    Noise,
    RidgeModel,
    SpectralTarget,
    eval_target,
    gen_dataset,
    mc_l2_sq_distance,
    mc_l2_sq_distance_to,
    ramp_sample_distance_to,
    ramp_sampler_normalizer,
    sample_ramp_model,
    spectral_norm,
    target_gradient_at_zero,
    write_csv,
)
from ridgepursuit import Activation, RidgeUnit, best_of
from ridgepursuit.targets import (
    _abs_cos_integral,
    _dataset_bytes,
    _draw_design,
    _ramp_distance_bytes,
    _ramp_draws_bytes,
    _ramp_network_values,
)

import model_oracle
from conftest import three_se


def one_atom_target(d=2):
    """f*(x) = cos(x1 + x2): the reference single-atom target."""
    return SpectralTarget(
        freqs=np.ones((1, d)), amps=np.array([1.0]), phases=np.array([0.0])
    )


# ---------------------------------------------------------------------------
# SpectralTarget and spectral norms
# ---------------------------------------------------------------------------


class TestSpectralTarget:
    def test_fields_and_bounds(self):
        t = SpectralTarget(
            freqs=np.array([[1.0, 0.0], [0.0, 3.0]]),
            amps=np.array([2.0, 1.0]),
            phases=np.array([0.5, -0.5]),
        )
        assert t.dim == 2
        assert t.n_atoms == 2
        assert t.sup_bound == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpectralTarget(np.ones((1, 2)), np.array([-1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            SpectralTarget(np.ones((1, 2)), np.array([1.0]), np.array([4.0]))
        with pytest.raises(ValueError):
            SpectralTarget(np.ones((2, 2)), np.array([1.0]), np.array([0.0]))

    def test_spectral_norm_single_atom_s2(self):
        assert spectral_norm(one_atom_target(), 2.0) == pytest.approx(4.0)

    def test_spectral_norm_s0_is_amplitude_sum(self, rng):
        t = SpectralTarget(
            freqs=rng.normal(size=(3, 4)),
            amps=np.array([0.5, 1.5, 2.0]),
            phases=np.zeros(3),
        )
        assert spectral_norm(t, 0.0) == pytest.approx(4.0)

    def test_spectral_norm_s1_weighted_sum(self):
        t = SpectralTarget(
            freqs=np.array([[1.0, 0.0], [0.0, 3.0]]),
            amps=np.array([2.0, 1.0]),
            phases=np.zeros(2),
        )
        assert spectral_norm(t, 1.0) == pytest.approx(5.0)

    def test_spectral_norm_negative_s_rejected(self):
        with pytest.raises(ValueError):
            spectral_norm(one_atom_target(), -1.0)


class TestEvalTarget:
    def test_value_at_origin(self):
        assert eval_target(one_atom_target(), np.zeros(2)) == pytest.approx(1.0)

    def test_zero_at_quarter_period(self):
        x = np.array([math.pi / 4, math.pi / 4])  # omega.x = pi/2
        assert eval_target(one_atom_target(), x) == pytest.approx(0.0, abs=1e-15)

    def test_linearity_in_atoms(self, rng):
        freqs = rng.normal(size=(2, 3))
        amps = np.array([0.7, 1.3])
        phases = np.array([0.2, -1.0])
        both = SpectralTarget(freqs, amps, phases)
        parts = [
            SpectralTarget(freqs[j : j + 1], amps[j : j + 1], phases[j : j + 1])
            for j in range(2)
        ]
        X = rng.uniform(-1, 1, size=(15, 3))
        np.testing.assert_allclose(
            eval_target(both, X), eval_target(parts[0], X) + eval_target(parts[1], X)
        )

    def test_callable_matches_function(self, rng):
        t = one_atom_target()
        X = rng.uniform(-1, 1, size=(6, 2))
        np.testing.assert_allclose(t(X), eval_target(t, X))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eval_target(one_atom_target(), np.zeros(5))


class TestGradientAtZero:
    def test_matches_central_differences(self, rng):
        t = SpectralTarget(
            freqs=rng.normal(size=(3, 4)),
            amps=np.array([1.0, 0.6, 1.4]),
            phases=np.array([0.3, -0.9, 2.0]),
        )
        grad = target_gradient_at_zero(t)
        h = 1e-5
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd = (eval_target(t, e) - eval_target(t, -e)) / (2 * h)
            assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_zero_phase_zero_gradient(self):
        np.testing.assert_allclose(target_gradient_at_zero(one_atom_target()), 0.0)


# ---------------------------------------------------------------------------
# Ramp sampler
# ---------------------------------------------------------------------------


class TestRampSamplerNormalizer:
    def test_exact_quadrature_value(self):
        # one atom omega=(1,1), a=1, b=0: each of the two sign-masses equals
        # a*c^2*int_0^1 |cos(c t)| dt with c=2, i.e. 4*(1 - sin(2)/2).
        v, masses = ramp_sampler_normalizer(one_atom_target())
        expected = 8.0 * (1.0 - math.sin(2.0) / 2.0)
        assert v == pytest.approx(expected, rel=1e-9)
        assert masses.shape == (1, 2)
        assert masses[0, 0] == pytest.approx(masses[0, 1], rel=1e-12)

    @pytest.mark.parametrize("c", [1e-9, 1e-3, 0.5, 2.0, 3.7, 10.0, 33.3, 99.5, 100.0])
    @pytest.mark.parametrize("phase", [-2.0, 0.0, 0.3, 1.9, 5.0])
    def test_abs_cos_closed_form_matches_quadrature(self, c, phase):
        f = lambda t: abs(math.cos(c * t + phase))
        kinks = [(math.pi / 2 + k * math.pi - phase) / c for k in range(-3, 40)]
        points = [t for t in kinks if 0.0 < t < 1.0] or None
        expected, _ = integrate.quad(f, 0.0, 1.0, points=points, limit=200)
        assert _abs_cos_integral(c, phase) == pytest.approx(expected, rel=1e-9, abs=0)

    @pytest.mark.parametrize("c", [700.0, 1e8])
    def test_abs_cos_large_frequency_near_mean(self, c):
        # Over many half-periods the mean of |cos| is 2/pi.
        value = _abs_cos_integral(c, 0.3)
        assert math.isfinite(value)
        assert abs(value - 2.0 / math.pi) <= 1.0 / c

    def test_bounded_by_twice_second_spectral_norm(self, rng):
        for _ in range(5):
            t = SpectralTarget(
                freqs=rng.uniform(-2, 2, size=(3, 3)),
                amps=rng.uniform(0.2, 2.0, size=3),
                phases=rng.uniform(-math.pi, math.pi, size=3),
            )
            v, _ = ramp_sampler_normalizer(t)
            assert v <= 2.0 * spectral_norm(t, 2.0) + 1e-9


class TestSampleRampModel:
    def test_constant_target_is_pure_intercept(self, rng):
        t = SpectralTarget(
            freqs=np.zeros((1, 2)), amps=np.array([1.0]), phases=np.array([0.0])
        )
        model = sample_ramp_model(t, 16, rng)
        assert model.n_terms == 0
        assert model.intercept == pytest.approx(1.0)
        X = rng.uniform(-1, 1, size=(50, 2))
        np.testing.assert_allclose(model(X), eval_target(t, X), atol=1e-12)

    def test_unit_structure(self, rng):
        t = SpectralTarget(
            freqs=np.array([[1.0, -2.0, 0.5]]),
            amps=np.array([1.3]),
            phases=np.array([0.7]),
        )
        model = sample_ramp_model(t, 40, rng)
        assert model.n_terms == 40
        v, _ = ramp_sampler_normalizer(t)
        for beta, unit in model.terms:
            assert beta == pytest.approx(v / 40)
            alpha, t_thresh = unit.theta[:-1], -unit.theta[-1]
            assert np.abs(alpha).sum() == pytest.approx(1.0, abs=1e-12)
            assert 0.0 <= t_thresh <= 1.0
            assert unit.sign in (-1, 1)
            assert unit.activation.kind == "ramp"
        assert model.v == pytest.approx(v, rel=1e-12)

    def test_invalid_arguments(self, rng):
        with pytest.raises(ValueError):
            sample_ramp_model(one_atom_target(), 0, rng)

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    @pytest.mark.parametrize("m", [1, 2, 7, 64])
    def test_matches_scalar_rejection_loop_bit_for_bit(self, d, m):
        # Drawing the rejection pairs in rounds consumes the generator's
        # stream exactly as the pair-at-a-time loop did: same thetas, signs
        # and weights, and the same generator state afterwards.  The last
        # atom has zero frequency and so no sampling mass.
        for seed in range(5):
            spec = np.random.default_rng([d, m, seed])
            J = 3
            freqs = spec.normal(size=(J, d)) * spec.uniform(0.1, 6.0, size=(J, 1))
            freqs[-1] = 0.0
            t = SpectralTarget(
                freqs=freqs,
                amps=spec.uniform(0.2, 2.0, size=J),
                phases=spec.uniform(-math.pi, math.pi, size=J),
            )
            got_rng, want_rng = (np.random.default_rng(seed) for _ in range(2))
            got = sample_ramp_model(t, m, got_rng)
            want = model_oracle.sample_ramp_model(t, m, want_rng)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
            assert got.n_terms == want.n_terms == m
            for (b_got, u_got), (b_want, u_want) in zip(got.terms, want.terms):
                assert b_got == b_want
                assert u_got.sign == u_want.sign
                assert u_got.theta.tobytes() == u_want.theta.tobytes()
            assert got.intercept == want.intercept
            assert got.slope.tobytes() == want.slope.tobytes()

    def test_m64_error_within_mean_budget_and_oracle(self, rng):
        # Mean squared L2(uniform) error at m=64 is below 16 v_2^2 / m = 4,
        # and agrees with the 1/m law calibrated at m=512 (both estimate the
        # same constant, so 8x the m=512 error matches the m=64 error).
        t = one_atom_target()
        n_draws, n_pts = 30, 40_000

        def errors(m, base_seed):
            out = np.empty(n_draws)
            for k in range(n_draws):
                model = sample_ramp_model(t, m, np.random.default_rng(base_seed + k))
                out[k] = mc_l2_sq_distance(model, t, d=2, n_points=n_pts, seed=777 + k)
            return out

        err64 = errors(64, 100)
        err512 = errors(512, 900)
        mean64, band64 = three_se(err64)
        assert mean64 <= 4.0
        mean512 = err512.mean()
        se512 = err512.std(ddof=1) / math.sqrt(n_draws)
        combined = 3.0 * math.hypot(band64 / 3.0, 8.0 * se512)
        assert abs(mean64 - 8.0 * mean512) <= combined

    def test_error_decays_like_one_over_m(self):
        # OLS slope of log mean-error vs log m over m in {8..256} is <= -0.8.
        t = one_atom_target()
        ms = [8, 16, 32, 64, 128, 256]
        n_draws, n_pts = 12, 20_000
        means = []
        for mi, m in enumerate(ms):
            errs = [
                mc_l2_sq_distance(
                    sample_ramp_model(t, m, np.random.default_rng(5000 + 97 * mi + k)),
                    t,
                    d=2,
                    n_points=n_pts,
                    seed=333 + k,
                )
                for k in range(n_draws)
            ]
            means.append(np.mean(errs))
        slope = np.polyfit(np.log(ms), np.log(means), 1)[0]
        assert slope <= -0.8, f"slope {slope:.3f}"


# ---------------------------------------------------------------------------
# Noise laws
# ---------------------------------------------------------------------------


class TestNoise:
    def test_kinds_and_moments(self):
        assert Noise("zero").variance == 0.0
        assert Noise("gaussian", 0.5).variance == pytest.approx(0.25)
        assert Noise("laplace", 0.5).variance == pytest.approx(0.5)
        assert Noise("laplace", 0.7).bernstein_eta == pytest.approx(0.7)
        assert Noise("zero").bernstein_eta == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Noise("cauchy", 1.0)
        with pytest.raises(ValueError):
            Noise("gaussian", -0.1)

    @pytest.mark.parametrize("scale", [math.nan, math.inf])
    @pytest.mark.parametrize("kind", ["gaussian", "laplace", "zero"])
    def test_non_finite_scale_rejected(self, kind, scale):
        with pytest.raises(ValueError, match=f"got {scale}"):
            Noise(kind, scale)

    def test_laplace_bernstein_moment_condition(self):
        # E|eps|^k <= (1/2) k! eta^{k-2} Var holds with equality at k=3,4 for
        # Laplace(eta), so the sample moment sits within 3 SE of the bound.
        nu = 0.7
        noise = Noise("laplace", nu)
        eps = noise.draw(100_000, np.random.default_rng(4242))
        var = 2.0 * nu**2
        for k in (3, 4):
            bound = 0.5 * math.factorial(k) * nu ** (k - 2) * var
            sample = np.abs(eps) ** k
            mean, band = three_se(sample)
            assert mean <= bound + band, (k, mean, bound, band)

    def test_gaussian_bernstein_moment_condition(self):
        sigma = 0.9
        noise = Noise("gaussian", sigma)
        eps = noise.draw(100_000, np.random.default_rng(99))
        for k in (3, 4):
            bound = 0.5 * math.factorial(k) * sigma ** (k - 2) * sigma**2
            mean, band = three_se(np.abs(eps) ** k)
            assert mean <= bound + band


# ---------------------------------------------------------------------------
# Dataset generation
# ---------------------------------------------------------------------------


class TestGenDataset:
    def test_zero_noise_exact_responses(self):
        t = one_atom_target()
        data = gen_dataset(t, 50, 2, Noise("zero"), seed=3)
        np.testing.assert_allclose(data.Y, eval_target(t, data.X), atol=1e-15)

    def test_zero_scale_gaussian_equals_zero_regime(self):
        t = one_atom_target()
        a = gen_dataset(t, 40, 2, Noise("gaussian", 0.0), seed=5)
        b = gen_dataset(t, 40, 2, Noise("zero"), seed=5)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.Y, b.Y)

    def test_determinism(self):
        t = one_atom_target()
        a = gen_dataset(t, 30, 2, Noise("gaussian", 0.5), seed=11)
        b = gen_dataset(t, 30, 2, Noise("gaussian", 0.5), seed=11)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.Y, b.Y)
        np.testing.assert_array_equal(a.X_prime, b.X_prime)

    def test_design_in_hypercube_and_shapes(self):
        t = one_atom_target()
        data = gen_dataset(t, 25, 2, Noise("laplace", 0.3), seed=7)
        assert data.n == 25 and data.d == 2
        assert np.max(np.abs(data.X)) <= 1.0
        assert data.X_prime.shape == data.X.shape
        assert not np.array_equal(data.X, data.X_prime)

    def test_test_design_from_spawned_seed(self):
        # X' comes from the seed's first child stream, so it is not the
        # training design of the next seed; X and Y keep the seed's own stream.
        t = one_atom_target()
        data = gen_dataset(t, 12, 2, Noise("zero"), seed=20)
        child = np.random.default_rng(np.random.SeedSequence(20).spawn(1)[0])
        np.testing.assert_array_equal(data.X_prime, child.uniform(-1.0, 1.0, size=(12, 2)))
        own = np.random.default_rng(20).uniform(-1.0, 1.0, size=(12, 2))
        np.testing.assert_array_equal(data.X, own)
        nxt = gen_dataset(t, 12, 2, Noise("zero"), seed=21)
        assert not np.array_equal(data.X_prime, nxt.X)

    def test_rademacher_design(self):
        t = one_atom_target()
        data = gen_dataset(t, 30, 2, Noise("zero"), seed=1, design="rademacher")
        assert set(np.unique(data.X)) <= {-1.0, 1.0}

    @pytest.mark.parametrize("design", ["uniform", "rademacher"])
    @pytest.mark.parametrize("d, atoms", [(1, 1), (2, 8), (64, 1), (64, 8)])
    def test_peak_memory_within_the_byte_bound(self, d, atoms, design):
        t = atoms_target(atoms, d, seed=2)
        n = 5000
        for noise in (Noise("zero"), Noise("gaussian", 0.5), Noise("laplace", 0.3)):
            tracemalloc.start()
            try:
                gen_dataset(t, n, d, noise, seed=3, design=design)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= _dataset_bytes(n, d, atoms), noise.kind

    def test_invalid_arguments(self):
        t = one_atom_target()
        with pytest.raises(ValueError):
            gen_dataset(t, 0, 2, Noise("zero"), seed=1)
        with pytest.raises(ValueError):
            gen_dataset(t, 10, 3, Noise("zero"), seed=1)
        with pytest.raises(ValueError):
            gen_dataset(t, 10, 2, Noise("zero"), seed=1, design="clustered")


class TestDatasetValidation:
    """Bad data is rejected when the Dataset is built, not deep inside a fit."""

    def make(self, X, Y, X_prime=None):
        return Dataset(X=X, Y=Y, X_prime=X_prime)

    def test_nan_response_rejected(self):
        Y = np.ones(5)
        Y[2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            self.make(np.zeros((5, 2)), Y)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="4 values but X has 5 rows"):
            self.make(np.zeros((5, 2)), np.zeros(4))

    def test_empty_design_rejected(self):
        with pytest.raises(ValueError, match="empty design"):
            self.make(np.zeros((0, 2)), np.zeros(0))

    def test_shapes_and_test_design_checked(self):
        with pytest.raises(ValueError, match="2-D"):
            self.make(np.zeros(5), np.zeros(5))
        with pytest.raises(ValueError, match="columns"):
            self.make(np.zeros((5, 2)), np.zeros(5), X_prime=np.zeros((5, 3)))
        assert self.make(np.zeros((5, 2)), np.zeros(5), X_prime=np.zeros((7, 2))).n == 5


# ---------------------------------------------------------------------------
# Monte Carlo L2 distance and CSV interchange
# ---------------------------------------------------------------------------


class TestMcDistance:
    def test_identical_functions(self):
        t = one_atom_target()
        assert mc_l2_sq_distance(t, t, d=2, n_points=1000) == 0.0

    def test_constant_offset(self):
        t = one_atom_target()

        def shifted(X):
            return eval_target(t, X) + 1.0

        assert mc_l2_sq_distance(shifted, t, d=2, n_points=1000) == pytest.approx(1.0)

    def test_seed_determinism(self):
        t = one_atom_target()
        zero = RidgeModel()
        a = mc_l2_sq_distance(t, zero, d=2, n_points=2000, seed=5)
        b = mc_l2_sq_distance(t, zero, d=2, n_points=2000, seed=5)
        assert a == b

    @pytest.mark.parametrize("design", ["uniform", "rademacher"])
    def test_shared_design_scores_every_model_bit_for_bit(self, design):
        # One scorer draws the design and the target's values once; each
        # model's score equals a fresh draw computed the original way.
        t = one_atom_target()
        distance = mc_l2_sq_distance_to(t, 2, n_points=3000, seed=11, design=design)
        rng = np.random.default_rng(4)
        for m in (1, 3, 8):
            model = sample_ramp_model(t, m, rng)
            X = _draw_design(3000, 2, np.random.default_rng(11), design)
            diff = np.asarray(model(X), dtype=float) - np.asarray(t(X), dtype=float)
            assert distance(model) == float(np.mean(diff**2))
            assert distance(model) == mc_l2_sq_distance(model, t, 2, 3000, 11, design)

    @pytest.mark.parametrize("n_points", [0, -3])
    def test_no_points_rejected(self, n_points):
        # Zero points once built a scorer that returned nan and warned.
        t = one_atom_target()
        with pytest.raises(ValueError, match=f"need n_points >= 1, got {n_points}"):
            mc_l2_sq_distance_to(t, 2, n_points=n_points)

    def test_column_values_rejected(self):
        # A column (n, 1) against g's (n,) once broadcast to n x n: a wrong
        # distance, and 80 GB at the default n_points.
        t = one_atom_target()
        column = lambda X: eval_target(t, X)[:, None]  # noqa: E731
        distance = mc_l2_sq_distance_to(t, 2, n_points=3000)
        with pytest.raises(ValueError, match=r"f gave values of shape \(3000, 1\)"):
            distance(column)
        with pytest.raises(ValueError, match=r"f gave values of shape \(\)"):
            distance(lambda X: 0.0)
        with pytest.raises(ValueError, match=r"g gave values of shape \(3000, 1\)"):
            mc_l2_sq_distance_to(column, 2, n_points=3000)
        with pytest.raises(ValueError, match=r"g gave values of shape \(3000, 1\)"):
            mc_l2_sq_distance(t, column, d=2, n_points=3000)


def atoms_target(J, d, seed):
    """J atoms with integer frequencies in [-3, 3]^d (none all zero) and
    random amplitudes and phases."""
    rng = np.random.default_rng(seed)
    freqs = rng.integers(-3, 4, size=(J, d)).astype(float)
    freqs[:, 0] = np.where(freqs[:, 0] == 0.0, 1.0, freqs[:, 0])
    return SpectralTarget(freqs, rng.uniform(0.2, 1.0, J), rng.uniform(-3.0, 3.0, J))


class TestRampSampleDistance:
    """The frame scorer of the sampler's networks against the generic one."""

    @pytest.mark.parametrize("design", ["uniform", "rademacher"])
    @pytest.mark.parametrize("d", [1, 2, 10])
    @pytest.mark.parametrize("J", [1, 3])
    def test_values_within_the_evaluation_bound(self, J, d, design):
        target = atoms_target(J, d, seed=10 * J + d)
        X = _draw_design(2000, d, np.random.default_rng(3), design)
        values = _ramp_network_values(target, X)
        for m in (1, 7, 64, 512):
            model = sample_ramp_model(target, m, np.random.default_rng(m))
            got = values(model)
            assert np.all(np.abs(got - model_oracle.evaluate(model, X))
                          <= model_oracle.evaluation_bound(model, X)), m

    def test_zero_frequency_atom_shared_directions_and_signed_zeros(self):
        # An atom with omega = 0 gets no frame and no units; atoms on one
        # line (omega and -2 omega) share one; a -0.0 frequency gives units
        # whose directions hold -0.0 or +0.0 by their sign z.
        target = SpectralTarget(
            [[1.0, -2.0], [0.0, 0.0], [-2.0, 4.0], [-0.0, 3.0]],
            [0.5, 0.7, 0.3, 0.4],
            [0.4, 1.0, -2.0, 0.1],
        )
        X = _draw_design(3000, 2, np.random.default_rng(5), "uniform")
        values = _ramp_network_values(target, X)
        for m in (1, 7, 64, 512):
            model = sample_ramp_model(target, m, np.random.default_rng(m))
            assert np.all(np.abs(values(model) - model_oracle.evaluate(model, X))
                          <= model_oracle.evaluation_bound(model, X)), m

    def test_constant_target_scores_its_affine_part(self):
        target = SpectralTarget([[0.0, 0.0]], [0.8], [0.5])
        model = sample_ramp_model(target, 16, np.random.default_rng(0))
        assert model.n_terms == 0
        want = mc_l2_sq_distance_to(target, 2, n_points=500, seed=2)(model)
        assert ramp_sample_distance_to(target, 2, n_points=500, seed=2)(model) == want

    @pytest.mark.parametrize("n_points", [0, -3])
    def test_no_points_rejected(self, n_points):
        with pytest.raises(ValueError, match=f"need n_points >= 1, got {n_points}"):
            ramp_sample_distance_to(one_atom_target(), 2, n_points=n_points)

    @pytest.mark.parametrize("design", ["uniform", "rademacher"])
    def test_best_of_picks_the_generic_scorers_winner(self, design):
        target = atoms_target(2, 3, seed=7)
        generic = mc_l2_sq_distance_to(target, 3, n_points=4000, seed=9, design=design)
        frames = ramp_sample_distance_to(target, 3, n_points=4000, seed=9, design=design)
        for seed in range(4):
            for m in (8, 16, 32, 64):
                draw = lambda rng, m=m: sample_ramp_model(target, m, rng)
                want = best_of(draw, generic, k=8, seed=seed)
                got = best_of(draw, frames, k=8, seed=seed)
                assert got.index == want.index, (seed, m)
                assert got.distortion == pytest.approx(want.distortion, rel=1e-10)

    @pytest.mark.parametrize(
        "unit",
        [
            RidgeUnit(Activation("tanh"), np.array([0.5, 0.5, -0.2])),
            RidgeUnit(Activation("ramp"), np.array([0.6, 0.4, -0.2])),
            RidgeUnit(Activation("ramp"), np.array([0.5, 0.5, 0.5, -0.2])),
        ],
        ids=["tanh-on-direction", "ramp-off-direction", "ramp-wrong-length"],
    )
    def test_rejects_a_term_off_the_atom_directions(self, unit):
        target = one_atom_target()
        distance = ramp_sample_distance_to(target, 2, n_points=100, seed=1)
        model = sample_ramp_model(target, 4, np.random.default_rng(0))
        model.terms.append((0.1, unit))
        with pytest.raises(ValueError):
            distance(model)

    def test_peak_memory_within_the_byte_bound(self):
        target = atoms_target(3, 2, seed=4)
        model = sample_ramp_model(target, 64, np.random.default_rng(0))
        n = 20_000
        tracemalloc.start()
        try:
            ramp_sample_distance_to(target, 2, n_points=n, seed=1)(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _ramp_distance_bytes(n, 2, 3)

    @pytest.mark.parametrize("d", [1, 2, 64])
    def test_best_of_draws_within_the_byte_bound(self, d):
        # best_of holds the best network and the current one; the scorer's
        # mc_points arrays are bounded by _ramp_distance_bytes.
        target = atoms_target(3, d, seed=5)
        distance = ramp_sample_distance_to(target, d, n_points=16, seed=1)
        m = 4000
        tracemalloc.start()
        try:
            best_of(lambda rng: sample_ramp_model(target, m, rng), distance, k=3, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _ramp_draws_bytes(m, d) + _ramp_distance_bytes(16, d, 3)


class TestWriteCsv:
    def render(self, columns, rows, header_lines=()):
        fp = io.StringIO()
        write_csv(fp, columns, rows, header_lines)
        return fp.getvalue()

    def test_floats_round_trip_exactly(self):
        values = [0.1, 1.0 / 3.0, -2.5e-300, 1e17, np.float64(math.pi), math.nan, math.inf, -math.inf]
        text = self.render(["x"], [[v] for v in values])
        lines = text.splitlines()[1:]
        assert len(lines) == len(values)
        for v, line in zip(values, lines):
            back = float(line)
            assert back == v or (math.isnan(v) and math.isnan(back))
        assert lines[-3:] == ["nan", "inf", "-inf"]

    def test_bools_before_ints(self):
        text = self.render(["a", "b", "c", "d"], [[True, False, np.bool_(True), np.bool_(False)]])
        assert text.splitlines()[1] == "true,false,true,false"

    def test_other_cells_pass_through(self):
        text = self.render(["i", "j", "s"], [[7, np.int64(-3), "0.5"], [0, np.int64(10**12), "1e-05"]])
        assert text.splitlines()[1:] == ["7,-3,0.5", "0,1000000000000,1e-05"]

    def test_layout(self):
        text = self.render(("m", "label"), [(1, "a b"), (2, 'say "x"')], header_lines=["k=v", "n=2"])
        assert text == '# k=v\n# n=2\nm,label\n1,a b\n2,say "x"\n'
        assert self.render(["m"], []) == "m\n"
