"""Spectral targets: closed-form norms, gradient consistency, the randomized
ramp-network sampler with its exact normalizer, dataset generation under the
three noise laws, and CSV interchange."""

import io
import math

import numpy as np
import pytest

from ridgepursuit import (
    Dataset,
    Noise,
    RidgeModel,
    SpectralTarget,
    eval_target,
    gen_dataset,
    mc_l2_sq_distance,
    ramp_sampler_normalizer,
    read_dataset_csv,
    sample_ramp_model,
    spectral_norm,
    target_gradient_at_zero,
    write_csv,
    write_dataset_csv,
)

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

    def test_test_design_from_shifted_seed(self):
        t = one_atom_target()
        data = gen_dataset(t, 12, 2, Noise("zero"), seed=20)
        expected = np.random.default_rng(21).uniform(-1.0, 1.0, size=(12, 2))
        np.testing.assert_array_equal(data.X_prime, expected)

    def test_rademacher_design(self):
        t = one_atom_target()
        data = gen_dataset(t, 30, 2, Noise("zero"), seed=1, design="rademacher")
        assert set(np.unique(data.X)) <= {-1.0, 1.0}

    def test_invalid_arguments(self):
        t = one_atom_target()
        with pytest.raises(ValueError):
            gen_dataset(t, 0, 2, Noise("zero"), seed=1)
        with pytest.raises(ValueError):
            gen_dataset(t, 10, 3, Noise("zero"), seed=1)
        with pytest.raises(ValueError):
            gen_dataset(t, 10, 2, Noise("zero"), seed=1, design="clustered")

    def test_without_test_design(self):
        data = gen_dataset(one_atom_target(), 10, 2, Noise("zero"), seed=1, with_test=False)
        assert data.X_prime is None


class TestDatasetValidation:
    """Bad data is rejected when the Dataset is built, not deep inside a fit."""

    def make(self, X, Y, X_prime=None):
        return Dataset(X=X, Y=Y, noise=Noise("zero"), seed=0, X_prime=X_prime)

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


class TestDatasetCsv:
    def test_roundtrip_lossless(self, tmp_path, rng):
        t = one_atom_target()
        data = gen_dataset(t, 20, 2, Noise("gaussian", 0.4), seed=9)
        path = tmp_path / "data.csv"
        write_dataset_csv(data, str(path), header_lines=["made by tests"])
        X, Y = read_dataset_csv(str(path))
        np.testing.assert_array_equal(X, data.X)
        np.testing.assert_array_equal(Y, data.Y)
        text = path.read_text()
        assert text.startswith("# made by tests\n")
        assert "x1,x2,y" in text.splitlines()[1]

    def test_rejects_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_dataset_csv(str(path))

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_dataset_csv(str(path))
