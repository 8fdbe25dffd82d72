"""Penalty schedules: complexity constants, truncation level selection, the
truncation operator and tail quantity, all four per-sample penalty formulas,
discretization tuning, and the pointwise truncation/tail inequalities."""

import math

import numpy as np
import pytest

from ridgepursuit import (
    Noise,
    PenaltyConfig,
    PenValue,
    gamma_tau,
    pen_highdim,
    pen_mixed,
    pen_moderate,
    pen_nonoise,
    penalty_for_regime,
    resolvability_factors,
    select_Bn,
    tail_tn,
    truncate,
    tuning_highdim,
)

from conftest import three_se

LOG2 = math.log(2.0)


def base_config(**kwargs):
    defaults = dict(B=1.0, B_n=1.0, sigma_sq=1.0, eta=0.0, nu=1.0, lam=2.0)
    defaults.update(kwargs)
    return PenaltyConfig(**defaults)


# ---------------------------------------------------------------------------
# gamma_n, tau, and the resolvability multipliers
# ---------------------------------------------------------------------------


class TestGammaTau:
    def test_unit_spot_value(self):
        gamma, tau = gamma_tau(base_config())
        assert tau == pytest.approx(4.0, rel=1e-12)
        # (1/8)(1.5)(3)(2^2) + 2*2*1 = 2.25 + 4 = 6.25
        assert gamma == pytest.approx(6.25, rel=1e-12)

    def test_variance_free_terms_vanish(self):
        cfg = base_config(sigma_sq=0.0, eta=0.0)
        gamma, tau = gamma_tau(cfg)
        expected = (1.5 * 3.0 / (2.0 * tau)) * (cfg.B + cfg.B_n) ** 2
        assert gamma == pytest.approx(expected, rel=1e-12)

    def test_quadratic_homogeneity_in_levels(self):
        small = base_config(sigma_sq=0.0, eta=0.0)
        big = base_config(B=2.0, B_n=2.0, sigma_sq=0.0, eta=0.0)
        assert gamma_tau(big)[0] == pytest.approx(4.0 * gamma_tau(small)[0], rel=1e-12)

    def test_eta_term(self):
        with_eta = base_config(sigma_sq=0.0, eta=0.3)
        without = base_config(sigma_sq=0.0, eta=0.0)
        gap = gamma_tau(with_eta)[0] - gamma_tau(without)[0]
        assert gap == pytest.approx(2.0 * 2.0 * 0.3, rel=1e-12)

    def test_resolvability_factors(self):
        assert resolvability_factors(4.0) == (5.0, 10.0)


class TestPenaltyConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            base_config(B=-0.1)
        with pytest.raises(ValueError):
            base_config(B=2.0, B_n=1.0)
        with pytest.raises(ValueError):
            base_config(delta1=0.0)
        with pytest.raises(ValueError):
            base_config(delta2=-1.0)
        with pytest.raises(ValueError):
            base_config(sigma_sq=-1.0)
        with pytest.raises(ValueError):
            base_config(eta=-0.5)
        with pytest.raises(ValueError):
            base_config(nu=-0.5)
        with pytest.raises(ValueError):
            base_config(lam=0.0)
        with pytest.raises(ValueError):
            base_config(regime="bogus")
        with pytest.raises(ValueError):
            base_config(mixed_C=0.0)


# ---------------------------------------------------------------------------
# Truncation level, operator, and tail quantity
# ---------------------------------------------------------------------------


class TestSelectBn:
    def test_subexponential_spot(self):
        n_e = round(math.e)  # n enters through log n; pick n = 3 ~ e? use exp
        # exact: with n such that log n = 1, B = nu = 1 -> sqrt(2) * 2
        value = select_Bn(1.0, 1.0, n_e, "sub-exponential")
        expected = math.sqrt(2.0) * (1.0 + math.log(n_e))
        assert value == pytest.approx(expected, rel=1e-12)

    def test_closed_forms(self):
        # Evaluate the formulas directly at n = 8.
        assert select_Bn(1.0, 1.0, 8, "sub-exponential") == pytest.approx(
            math.sqrt(2.0) * (1.0 + math.log(8)), rel=1e-12
        )
        assert select_Bn(1.0, 1.0, 8, "sub-gaussian") == pytest.approx(
            math.sqrt(2.0) * (1.0 + math.sqrt(math.log(8))), rel=1e-12
        )

    def test_zero_tail_returns_B(self):
        assert select_Bn(0.7, 5.0, 100, "zero") == 0.7

    def test_validation(self):
        with pytest.raises(ValueError):
            select_Bn(1.0, 1.0, 0, "zero")
        with pytest.raises(ValueError):
            select_Bn(1.0, 1.0, 10, "heavy")


class TestTruncate:
    def test_spot_values(self):
        assert truncate(2.0, 1.0) == 1.0
        assert truncate(-0.5, 1.0) == -0.5
        assert truncate(-3.0, 2.0) == -2.0

    def test_array_input(self):
        out = truncate(np.array([2.0, -0.5, -3.0, 0.0]), 2.0)
        np.testing.assert_array_equal(out, [2.0, -0.5, -2.0, 0.0])

    def test_level_must_be_positive(self):
        with pytest.raises(ValueError):
            truncate(1.0, 0.0)

    def test_sign_preserving_clip_property(self, rng):
        y = rng.uniform(-10, 10, size=1000)
        B_n = 1.7
        out = truncate(y, B_n)
        assert np.all(np.abs(out) <= B_n)
        assert np.all(np.sign(out) == np.sign(np.clip(y, -B_n, B_n)))
        inside = np.abs(y) <= B_n
        np.testing.assert_array_equal(out[inside], y[inside])


class TestTailTn:
    def test_spot_values(self):
        assert tail_tn(np.array([3.0, 0.0]), 2.0) == pytest.approx(10.0)
        assert tail_tn(np.array([1.0, -2.0, 0.5]), 2.0) == 0.0
        assert tail_tn(np.array([-3.0, 3.0]), 2.0) == pytest.approx(20.0)

    def test_formula_identity(self, rng):
        Y = rng.uniform(-5, 5, size=500)
        B_n = 1.3
        expected = 2.0 * np.sum((Y**2 - B_n**2)[np.abs(Y) > B_n])
        assert tail_tn(Y, B_n) == pytest.approx(expected, rel=1e-14)


# ---------------------------------------------------------------------------
# Penalty formulas: exact spot values
# ---------------------------------------------------------------------------

# With lam = B_n = 1, d = 1, n = 1, gamma_n = 1/log 2, every "ratio" quantity
# gamma_n * (stuff) * log(d+1) / n collapses to exactly 1.
RATIO_ONE = dict(n=1, d=1, lam=1.0, gamma_n=1.0 / LOG2)


class TestPenHighdim:
    def test_ratio_one_spot(self):
        val = pen_highdim(v_f=1.0, B_n=1.0, T_n=0.0, **RATIO_ONE)
        assert val.pen_per_n == pytest.approx(24.0, rel=1e-12)
        assert val.main_term == pytest.approx(16.0, rel=1e-12)
        assert val.valid

    def test_zero_mass_drops_main_term(self):
        val = pen_highdim(v_f=0.0, B_n=1.0, T_n=3.0, **RATIO_ONE)
        assert val.main_term == 0.0
        assert val.pen_per_n == pytest.approx(8.0 + 3.0, rel=1e-12)

    def test_tail_enters_per_sample(self):
        base = pen_highdim(v_f=1.0, B_n=1.0, T_n=0.0, n=4, d=1, lam=1.0, gamma_n=1.0)
        tailed = pen_highdim(v_f=1.0, B_n=1.0, T_n=2.0, n=4, d=1, lam=1.0, gamma_n=1.0)
        assert tailed.pen_per_n - base.pen_per_n == pytest.approx(0.5, rel=1e-12)

    def test_main_term_quarter_power_in_n(self):
        kw = dict(v_f=1.0, d=1, lam=1.0, gamma_n=1.0, B_n=1.0, T_n=0.0)
        main_n = pen_highdim(n=100, **kw).main_term
        main_16n = pen_highdim(n=1600, **kw).main_term
        assert main_n == pytest.approx(2.0 * main_16n, rel=1e-12)


class TestPenNonoise:
    def test_ratio_one_spot(self):
        val = pen_nonoise(v_f=1.0, **RATIO_ONE)
        assert val.pen_per_n == pytest.approx(24.0, rel=1e-12)
        assert val.main_term == pytest.approx(16.0, rel=1e-12)

    def test_zero_mass(self):
        val = pen_nonoise(v_f=0.0, **RATIO_ONE)
        assert val.main_term == 0.0
        assert val.pen_per_n == pytest.approx(4.0, rel=1e-12)

    def test_vanishes_with_ratio(self):
        values = [
            pen_nonoise(v_f=1.0, n=10**k, d=1, lam=1.0, gamma_n=1.0).pen_per_n
            for k in (3, 6, 9, 12, 15, 18)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert 0.0 < values[-1] < 1e-4

    def test_closed_form_random_inputs(self, rng):
        for _ in range(20):
            v, n, d = float(rng.uniform(0, 3)), int(rng.integers(1, 10**6)), int(rng.integers(1, 50))
            lam, gamma = float(rng.uniform(0.5, 4)), float(rng.uniform(0.1, 10))
            ratio = gamma * lam**2 * math.log(d + 1) / n
            expected = 16 * v ** (4 / 3) * ratio ** (1 / 3) + 4 * (v ** (4 / 3) + 1) * ratio ** (2 / 3)
            assert pen_nonoise(v, n, d, lam, gamma).pen_per_n == pytest.approx(expected, rel=1e-12)


class TestPenModerate:
    def test_d1_exponent_and_full_formula(self):
        v_f, n, d, lam, gamma, T_n = 0.5, 10**6, 1, 2.0, 0.3, 0.7
        r = d * gamma * math.log(n / d + 1.0) / n
        assert 3.0 * r ** (1.0 / 8.0) <= 1.0  # guard satisfied
        val = pen_moderate(v_f, n, d, lam, gamma, T_n)
        assert val.valid
        main = 60.0 * v_f * lam * r**0.625
        expected = main + r**0.625 / lam**2 + r ** (0.5 + 3.0 / 8.0) + r + T_n / n
        assert val.main_term == pytest.approx(main, rel=1e-12)
        assert val.pen_per_n == pytest.approx(expected, rel=1e-12)

    def test_measured_main_exponent(self):
        # Fit the main term's power law in r from two evaluations; it must be
        # exactly 1/2 + 1/(2(d+3)) and approach 1/2 as d grows.
        for d, n1, n2, gamma in ((1, 10**6, 10**8, 0.3), (2, 10**8, 10**9, 0.05), (3, 10**9, 10**10, 0.05)):
            mains, rs = [], []
            for n in (n1, n2):
                r = d * gamma * math.log(n / d + 1.0) / n
                val = pen_moderate(1.0, n, d, 1.0, gamma, 0.0)
                assert val.valid, (d, n, r)
                mains.append(val.main_term)
                rs.append(r)
            measured = math.log(mains[0] / mains[1]) / math.log(rs[0] / rs[1])
            assert measured == pytest.approx(0.5 + 1.0 / (2 * (d + 3)), rel=1e-9)
        exponents = [0.5 + 1.0 / (2 * (d + 3)) for d in (1, 2, 3, 10**9)]
        assert exponents[0] == 0.625
        assert all(a > b for a, b in zip(exponents, exponents[1:]))
        assert exponents[-1] == pytest.approx(0.5, abs=1e-9)

    def test_r_equal_one_invalid(self):
        # d=1, n=1, gamma = 1/log 2 gives r = 1, so eps1 = 3 lam > lam.
        val = pen_moderate(1.0, 1, 1, 2.0, 1.0 / LOG2, 0.0)
        assert not val.valid
        assert math.isnan(val.pen_per_n)

    def test_dimension_guard(self):
        # d > n/(e-1) must invalidate even when r is tiny.
        n, d = 100, 80
        assert d > n / (math.e - 1.0)
        val = pen_moderate(1.0, n, d, 10**9, 1e-12, 0.0)
        assert not val.valid


class TestPenMixed:
    def test_ratio_one_spot(self):
        val = pen_mixed(v_f=1.0, sigma=1.0, C=1.0, **RATIO_ONE)
        assert val.pen_per_n == pytest.approx(2.0, rel=1e-12)
        assert val.main_term == pytest.approx(1.0, rel=1e-12)

    def test_noise_free_keeps_cube_root_only(self):
        val = pen_mixed(v_f=1.0, sigma=0.0, C=1.0, n=8, d=1, lam=1.0, gamma_n=1.0)
        ratio = LOG2 / 8.0
        assert val.pen_per_n == pytest.approx(ratio ** (1 / 3), rel=1e-12)
        assert val.main_term == val.pen_per_n

    def test_zero_mass_is_zero(self):
        val = pen_mixed(v_f=0.0, sigma=1.0, C=1.0, **RATIO_ONE)
        assert val.pen_per_n == 0.0

    def test_scale_C_linear(self):
        a = pen_mixed(v_f=1.0, sigma=1.0, C=1.0, **RATIO_ONE)
        b = pen_mixed(v_f=1.0, sigma=1.0, C=0.1, **RATIO_ONE)
        assert b.pen_per_n == pytest.approx(0.1 * a.pen_per_n, rel=1e-12)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            pen_mixed(v_f=1.0, sigma=-1.0, **RATIO_ONE)


class TestTuningHighdim:
    def test_ratio_one_spot(self):
        m0, eps2 = tuning_highdim(n=1, d=1, lam=1.0, gamma_n=1.0 / LOG2, B_n=1.0, v=1.0)
        assert eps2 == pytest.approx(1.0, rel=1e-12)
        assert m0 == 1  # ceil(sqrt(1/2))

    def test_eps2_quarter_power(self):
        kw = dict(d=3, lam=2.0, gamma_n=0.7, B_n=1.5, v=2.0)
        _, eps_n = tuning_highdim(n=50, **kw)
        _, eps_16n = tuning_highdim(n=800, **kw)
        assert eps_n == pytest.approx(2.0 * eps_16n, rel=1e-12)

    def test_zero_mass_clamps_to_one(self):
        m0, _ = tuning_highdim(n=100, d=2, lam=1.0, gamma_n=1.0, B_n=1.0, v=0.0)
        assert m0 == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            tuning_highdim(n=10, d=1, lam=0.0, gamma_n=1.0, B_n=1.0, v=1.0)
        with pytest.raises(ValueError):
            tuning_highdim(n=10, d=1, lam=1.0, gamma_n=1.0, B_n=1.0, v=-1.0)


class TestPenaltyForRegime:
    def test_dispatch_matches_direct_calls(self):
        n, d, v, T_n = 500, 7, 1.3, 0.4
        cfg = base_config(B_n=2.0, lam=1.5)
        gamma, _ = gamma_tau(cfg)
        direct = {
            "highdim-noise": pen_highdim(v, n, d, cfg.lam, gamma, cfg.B_n, T_n),
            "no-noise": pen_nonoise(v, n, d, cfg.lam, gamma),
            "moderate": pen_moderate(v, n, d, cfg.lam, gamma, T_n),
            "mixed": pen_mixed(v, n, d, cfg.lam, gamma, 1.0, cfg.mixed_C),
        }
        for regime, expected in direct.items():
            got = penalty_for_regime(
                PenaltyConfig(
                    B=cfg.B, B_n=cfg.B_n, sigma_sq=cfg.sigma_sq, eta=cfg.eta,
                    nu=cfg.nu, lam=cfg.lam, regime=regime,
                ),
                v, n, d, T_n,
            )
            if expected.valid:
                assert got.pen_per_n == pytest.approx(expected.pen_per_n, rel=1e-12)
            else:
                assert not got.valid

    def test_returns_penvalue(self):
        out = penalty_for_regime(base_config(), 1.0, 100, 2)
        assert isinstance(out, PenValue)


# ---------------------------------------------------------------------------
# Regime-wide structural properties
# ---------------------------------------------------------------------------


class TestPenaltyShapeProperties:
    def test_nondecreasing_in_mass(self):
        vs = np.linspace(0.0, 3.0, 40)
        evals = {
            "highdim": [pen_highdim(v, 200, 5, 2.0, 1.0, 1.5, 0.3).pen_per_n for v in vs],
            "nonoise": [pen_nonoise(v, 200, 5, 2.0, 1.0).pen_per_n for v in vs],
            "moderate": [pen_moderate(v, 10**7, 1, 2.0, 0.3, 0.3).pen_per_n for v in vs],
            "mixed": [pen_mixed(v, 200, 5, 2.0, 1.0, 0.5).pen_per_n for v in vs],
        }
        for name, seq in evals.items():
            arr = np.asarray(seq)
            assert np.all(np.isfinite(arr)), name
            assert np.all(np.diff(arr) >= -1e-15), name

    def test_continuity_in_n(self):
        # Small relative jumps along consecutive n on each validity region.
        for n in range(100, 121):
            pairs = [
                (pen_highdim(1.0, n, 5, 2.0, 1.0, 1.5, 0.0),
                 pen_highdim(1.0, n + 1, 5, 2.0, 1.0, 1.5, 0.0)),
                (pen_nonoise(1.0, n, 5, 2.0, 1.0), pen_nonoise(1.0, n + 1, 5, 2.0, 1.0)),
                (pen_mixed(1.0, n, 5, 2.0, 1.0, 0.5), pen_mixed(1.0, n + 1, 5, 2.0, 1.0, 0.5)),
            ]
            for a, b in pairs:
                assert abs(b.pen_per_n - a.pen_per_n) <= 0.05 * a.pen_per_n
        for n in range(10**6, 10**6 + 21):
            a = pen_moderate(1.0, n, 1, 2.0, 0.3, 0.0)
            b = pen_moderate(1.0, n + 1, 1, 2.0, 0.3, 0.0)
            assert a.valid and b.valid
            assert abs(b.pen_per_n - a.pen_per_n) <= 0.05 * a.pen_per_n

    def test_noise_free_main_term_eventually_smaller(self):
        # With B_n = 1 both mains share the same ratio; the 1/3 exponent beats
        # the 1/4 exponent once the ratio is small: holds on n = 2^10..2^30.
        v = 1.3
        for k in range(10, 31):
            n = 2**k
            hd = pen_highdim(v, n, 1, 1.0, 1.0, 1.0, 0.0).main_term
            nn = pen_nonoise(v, n, 1, 1.0, 1.0).main_term
            assert nn <= hd, (k, nn, hd)


# ---------------------------------------------------------------------------
# Pointwise truncation inequalities
# ---------------------------------------------------------------------------


class TestTruncationInequalities:
    N = 100_000

    def test_clip_versus_raw_prediction(self, rng):
        # (y - Tf)^2 <= (y - f)^2 + 2(|y| - B_n)^2 1{|y| > B_n}
        y = rng.uniform(-10, 10, size=self.N)
        f = rng.uniform(-10, 10, size=self.N)
        B_n = rng.uniform(0.1, 5.0, size=self.N)
        Tf = np.clip(f, -B_n, B_n)
        lhs = (y - Tf) ** 2
        rhs = (y - f) ** 2 + 2.0 * np.where(np.abs(y) > B_n, (np.abs(y) - B_n) ** 2, 0.0)
        assert np.all(lhs <= rhs + 1e-12)

    def test_clip_stability_under_model_swap(self, rng):
        # (y-Tf)^2 <= (y-Tf~)^2 + 4 B_n |f - f~| + 4 B_n (|y|-B_n) 1{|y|>B_n}
        y = rng.uniform(-10, 10, size=self.N)
        f = rng.uniform(-10, 10, size=self.N)
        f_alt = rng.uniform(-10, 10, size=self.N)
        B_n = rng.uniform(0.1, 5.0, size=self.N)
        Tf = np.clip(f, -B_n, B_n)
        Tf_alt = np.clip(f_alt, -B_n, B_n)
        lhs = (y - Tf) ** 2
        rhs = (
            (y - Tf_alt) ** 2
            + 4.0 * B_n * np.abs(f - f_alt)
            + 4.0 * B_n * np.where(np.abs(y) > B_n, np.abs(y) - B_n, 0.0)
        )
        assert np.all(lhs <= rhs + 1e-12)

    def test_clip_distance_against_surrogate(self, rng):
        # (Tf~ - Tf)^2 <= (f - f1)^2 + 4 B_n |f1 - f~|
        f = rng.uniform(-10, 10, size=self.N)
        f_alt = rng.uniform(-10, 10, size=self.N)
        f_sur = rng.uniform(-10, 10, size=self.N)
        B_n = rng.uniform(0.1, 5.0, size=self.N)
        Tf = np.clip(f, -B_n, B_n)
        Tf_alt = np.clip(f_alt, -B_n, B_n)
        lhs = (Tf_alt - Tf) ** 2
        rhs = (f - f_sur) ** 2 + 4.0 * B_n * np.abs(f_sur - f_alt)
        assert np.all(lhs <= rhs + 1e-12)


class TestTailBoundMonteCarlo:
    """E[(Y^2 - B_n^2) 1{|Y| > B_n}] against the closed-form tail budgets.

    Small n keeps the truncation level low enough that exceedances actually
    occur; Laplace(s) with nu = 3s has E e^{|eps|/nu} = 3/2 exactly, and
    Gaussian(sigma) with nu = 4 sigma^2 has E e^{eps^2/nu} = sqrt(2).
    """

    N_DRAWS = 100_000
    B = 1.0  # f* == 1 realizes |f*| <= B with equality

    def tail_stat(self, eps, B_n):
        Y = self.B + eps
        return np.where(np.abs(Y) > B_n, Y**2 - B_n**2, 0.0)

    def test_subexponential_tail_budget(self):
        s, n = 0.5, 3
        nu = 3.0 * s
        eps = Noise("laplace", s).draw(self.N_DRAWS, np.random.default_rng(777))
        B_n = select_Bn(self.B, nu, n, "sub-exponential")
        stat = self.tail_stat(eps, B_n)
        assert np.count_nonzero(stat) > 50  # the tail event has real mass
        mean, band = three_se(stat)
        mgf = 1.0 / (1.0 - s / nu)  # = 3/2
        bound = 4.0 * nu**2 / n * mgf
        assert mean <= bound + band
        # tail_tn is 2n times the same sample mean
        assert tail_tn(self.B + eps, B_n) == pytest.approx(stat.sum() * 2.0, rel=1e-12)

    def test_subgaussian_tail_budget(self):
        sigma, n = 1.0, 3
        nu = 4.0 * sigma**2
        eps = Noise("gaussian", sigma).draw(self.N_DRAWS, np.random.default_rng(778))
        B_n = select_Bn(self.B, nu, n, "sub-gaussian")
        stat = self.tail_stat(eps, B_n)
        assert np.count_nonzero(stat) > 10
        mean, band = three_se(stat)
        mgf = 1.0 / math.sqrt(1.0 - 2.0 * sigma**2 / nu)  # = sqrt(2)
        bound = 2.0 * nu / n * mgf
        assert mean <= bound + band
