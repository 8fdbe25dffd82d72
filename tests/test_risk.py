"""Empirical losses, penalized size selection, concentration certification
checks, and the risk-curve experiment driver."""

import io
import math
import threading
import tracemalloc
from dataclasses import FrozenInstanceError

import mc_oracle
import numpy as np
import pytest

from ridgepursuit import risk
from ridgepursuit import (
    Activation,
    CountableClassSpec,
    Dataset,
    GreedyConfig,
    LossReport,
    Noise,
    PenaltyConfig,
    RidgeModel,
    RidgeUnit,
    RiskRow,
    default_m_grid,
    fit_and_select,
    losses,
    mc_noise_check,
    mc_symmetrization_check,
    penalty_for_regime,
    risk_curve,
    shipped_class_specs,
    tail_tn,
    write_risk_csv,
)
from ridgepursuit.risk import RISK_CSV_COLUMNS, TruncatedModel


def two_unit_model():
    sine = Activation("sine")
    return RidgeModel(
        terms=[
            (0.5, RidgeUnit(sine, np.array([1.0, 0.3, -0.2]))),
            (0.3, RidgeUnit(sine, np.array([-0.5, 0.8, 0.1]))),
        ]
    )


def tanh_target():
    return RidgeModel(
        terms=[(0.4, RidgeUnit(Activation("tanh"), np.array([0.7, 0.2, -0.1])))]
    )


def dataset_for(target, n, d, sigma, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, d))
    noise = Noise("gaussian", sigma) if sigma > 0 else Noise("zero")
    Y = np.asarray(target(X), dtype=float) + noise.draw(n, rng)
    Xp = np.random.default_rng(seed + 1).uniform(-1, 1, size=(n, d))
    return Dataset(X=X, Y=Y, X_prime=Xp)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


class TestLosses:
    def test_model_equals_target_all_zero(self):
        target = tanh_target()
        data = dataset_for(target, 50, 2, 0.5, seed=3)
        rep = losses(target, target, data)
        assert rep.D_n == 0.0
        assert rep.D_n_prime == 0.0
        assert rep.P_n == pytest.approx(0.0, abs=1e-14)
        assert rep.P_n_prime == pytest.approx(0.0, abs=1e-14)
        assert rep.test_mse == 0.0

    def test_constant_offset(self):
        target = tanh_target()
        data = dataset_for(target, 64, 2, 0.0, seed=4)

        def shifted(X):
            return np.asarray(target(X), dtype=float) + 1.0

        rep = losses(shifted, target, data)
        assert rep.D_n == pytest.approx(1.0, rel=1e-12)
        assert rep.D_n_prime == pytest.approx(1.0, rel=1e-12)
        assert rep.test_mse == pytest.approx(1.0, rel=1e-12)
        # zero noise: the excess losses collapse to the squared distances
        assert rep.P_n == pytest.approx(rep.D_n, abs=1e-12)
        assert rep.P_n_prime == pytest.approx(rep.D_n_prime, abs=1e-12)

    def test_excess_loss_identity_under_noise(self):
        model, target = two_unit_model(), tanh_target()
        data = dataset_for(target, 80, 2, 0.7, seed=5)
        rep = losses(model, target, data)
        eps = data.Y - np.asarray(target(data.X), dtype=float)
        g = np.asarray(model(data.X), dtype=float) - np.asarray(
            target(data.X), dtype=float
        )
        assert rep.P_n == pytest.approx(rep.D_n - 2.0 * float(np.mean(eps * g)), abs=1e-12)

    def test_holdout_excess_matches_direct_formula(self):
        model, target = two_unit_model(), tanh_target()
        for seed in range(20):
            data = dataset_for(target, 40, 2, 0.6, seed=100 + seed)
            rep = losses(model, target, data)
            eps = data.Y - np.asarray(target(data.X), dtype=float)
            gp = np.asarray(model(data.X_prime), dtype=float) - np.asarray(
                target(data.X_prime), dtype=float
            )
            direct = float(np.mean(gp**2 - 2.0 * eps * gp))
            assert rep.P_n_prime == pytest.approx(direct, abs=1e-12)

    def test_holdout_excess_unbiased_for_population_distance(self):
        # E P'_n = ||f - f*||^2: vectorized resampling of (X', eps).
        model, target = two_unit_model(), tanh_target()
        d, n, trials, sigma = 2, 50, 10_000, 0.4
        rng = np.random.default_rng(2024)
        X = rng.uniform(-1, 1, size=(trials * n, d))
        G = (
            np.asarray(model(X), dtype=float) - np.asarray(target(X), dtype=float)
        ).reshape(trials, n)
        eps = rng.normal(scale=sigma, size=(trials, n))
        stats = np.mean(G**2 - 2.0 * eps * G, axis=1)
        mean, se = float(stats.mean()), float(stats.std(ddof=1) / math.sqrt(trials))

        Xpop = np.random.default_rng(999).uniform(-1, 1, size=(200_000, d))
        gpop = np.asarray(model(Xpop), dtype=float) - np.asarray(
            target(Xpop), dtype=float
        )
        pop = float(np.mean(gpop**2))
        pop_se = float(np.std(gpop**2, ddof=1) / math.sqrt(len(gpop)))
        assert abs(mean - pop) <= 3.0 * math.hypot(se, pop_se)

    def test_truncation_level_applies_to_test_mse(self):
        target = tanh_target()
        data = dataset_for(target, 30, 2, 0.0, seed=6)

        def big(X):
            return np.full(np.atleast_2d(X).shape[0], 10.0)

        rep = losses(big, target, data, B_n=0.5)
        tXp = np.asarray(target(data.X_prime), dtype=float)
        assert rep.test_mse == pytest.approx(float(np.mean((0.5 - tXp) ** 2)), rel=1e-12)
        # untruncated distances are unaffected by B_n
        assert rep.D_n_prime == pytest.approx(float(np.mean((10.0 - tXp) ** 2)), rel=1e-12)

    def test_requires_test_design(self):
        target = tanh_target()
        data = dataset_for(target, 20, 2, 0.0, seed=7)
        bare = Dataset(X=data.X, Y=data.Y)
        with pytest.raises(ValueError):
            losses(target, target, bare)


class TestTruncatedModel:
    def test_clips_and_reports_mass(self, rng):
        model = RidgeModel(
            terms=[(5.0, RidgeUnit(Activation("ramp"), np.array([2.0, 0.0, 1.0])))]
        )
        trunc = TruncatedModel(model=model, level=1.5)
        X = rng.uniform(-1, 1, size=(40, 2))
        out = np.asarray(trunc(X))
        raw = np.asarray(model(X))
        assert np.max(np.abs(out)) <= 1.5
        assert np.max(np.abs(raw)) > 1.5  # truncation actually bit
        np.testing.assert_allclose(out, np.clip(raw, -1.5, 1.5))
        assert trunc.v == model.v


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------


class TestDefaultMGrid:
    def test_values(self):
        assert default_m_grid(0) == (0,)
        assert default_m_grid(1) == (0, 1)
        assert default_m_grid(8) == (0, 1, 2, 4, 8)
        assert default_m_grid(5) == (0, 1, 2, 4, 5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            default_m_grid(-1)


def constant_target(value):
    def f(X):
        return np.full(np.atleast_2d(X).shape[0], value)

    return f


class TestFitAndSelect:
    def exact_fit_setup(self, n=4096, d=2, seed=9):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, size=(n, d))
        Y = np.full(n, 0.6)
        Xp = np.random.default_rng(seed + 1).uniform(-1, 1, size=(n, d))
        data = Dataset(X=X, Y=Y, X_prime=Xp)
        gcfg = GreedyConfig(lam=2.0, m_max=2)
        pcfg = PenaltyConfig(
            B=0.6, B_n=0.6, sigma_sq=0.0, eta=0.0, nu=1.0, lam=2.0, regime="no-noise"
        )
        return data, gcfg, pcfg

    def test_exact_fit_selects_one_unit(self):
        data, gcfg, pcfg = self.exact_fit_setup()
        trunc, rep = fit_and_select(
            data, gcfg, pcfg, m_grid=(0, 1, 2), target=constant_target(0.6)
        )
        assert rep.m_hat == 1
        assert trunc.v == pytest.approx(0.3, rel=1e-12)
        assert rep.test_mse <= 1e-16
        assert rep.D_n <= 1e-28
        assert math.isfinite(rep.pen_per_n)

    def test_pure_noise_selects_zero_model(self):
        n, d, seed = 256, 2, 21
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, size=(n, d))
        noise = Noise("gaussian", 1.0)
        Y = noise.draw(n, rng)
        Xp = np.random.default_rng(seed + 1).uniform(-1, 1, size=(n, d))
        data = Dataset(X=X, Y=Y, X_prime=Xp)
        gcfg = GreedyConfig(lam=2.0, m_max=4)
        pcfg = PenaltyConfig(
            B=1.0, B_n=1.0, sigma_sq=1.0, eta=1.0, nu=1.0, lam=2.0,
            regime="highdim-noise",
        )
        trunc, rep = fit_and_select(
            data, gcfg, pcfg, m_grid=(0, 1, 2, 4), target=constant_target(0.0)
        )
        assert rep.m_hat == 0
        assert trunc.v == 0.0
        assert rep.test_mse == 0.0

    def test_selection_minimizes_penalized_score(self):
        # Recompute the score at every grid size from an identical path run.
        from ridgepursuit import fit_lpgp

        target = tanh_target()
        data = dataset_for(target, 128, 2, 0.3, seed=31)
        gcfg = GreedyConfig(lam=2.0, m_max=4)
        pcfg = PenaltyConfig(
            B=1.0, B_n=1.2, sigma_sq=0.09, eta=0.3, nu=1.0, lam=2.0,
            regime="highdim-noise",
        )
        grid = (0, 1, 2, 4)
        trunc, rep = fit_and_select(data, gcfg, pcfg, grid, target=target)

        path = fit_lpgp(data, gcfg)
        Y = np.asarray(data.Y, dtype=float)
        T_n = tail_tn(Y, pcfg.B_n)
        scores = {}
        for m in grid:
            train = float(Y @ Y) / data.n if m == 0 else path.records[m - 1].train_mse
            v = 0.0 if m == 0 else path.records[m - 1].v_m
            scores[m] = train + penalty_for_regime(pcfg, v, data.n, data.d, T_n).pen_per_n
        assert scores[rep.m_hat] == min(scores.values())
        assert rep.m_hat == min(m for m, s in scores.items() if s == scores[rep.m_hat])

    def test_zero_only_grid(self):
        data, gcfg, pcfg = self.exact_fit_setup(n=64)
        trunc, rep = fit_and_select(data, gcfg, pcfg, m_grid=(0,))
        assert rep.m_hat == 0
        assert trunc.model.n_terms == 0
        assert math.isnan(rep.test_mse)  # no target supplied

    def test_all_invalid_penalties_fall_back_to_smallest(self):
        # The moderate regime's feasibility guard fails at small n for every
        # mass, so each penalty is NaN; selection must still return m = 0.
        target = tanh_target()
        data = dataset_for(target, 50, 2, 0.2, seed=41)
        gcfg = GreedyConfig(lam=2.0, m_max=2)
        pcfg = PenaltyConfig(
            B=1.0, B_n=1.0, sigma_sq=0.04, eta=0.2, nu=1.0, lam=2.0,
            regime="moderate",
        )
        trunc, rep = fit_and_select(data, gcfg, pcfg, m_grid=(0, 1, 2), target=target)
        assert rep.m_hat == 0
        assert math.isnan(rep.pen_per_n)

    def test_bad_grid_rejected(self):
        data, gcfg, pcfg = self.exact_fit_setup(n=32)
        with pytest.raises(ValueError):
            fit_and_select(data, gcfg, pcfg, m_grid=())
        with pytest.raises(ValueError):
            fit_and_select(data, gcfg, pcfg, m_grid=(-1, 0))


# ---------------------------------------------------------------------------
# Concentration checks
# ---------------------------------------------------------------------------


class TestCountableClassSpec:
    def test_kraft_sum_and_violation(self):
        ok = CountableClassSpec(
            functions=(constant_target(0.0), constant_target(0.0)),
            complexities=(math.log(2.0), math.log(2.0)),
            sup_bound=0.0,
        )
        assert ok.kraft_sum == pytest.approx(1.0)
        with pytest.raises(ValueError):
            CountableClassSpec(
                functions=(constant_target(0.0), constant_target(0.0)),
                complexities=(0.0, 0.0),
                sup_bound=0.0,
            )

    def test_field_validation(self):
        with pytest.raises(ValueError):
            CountableClassSpec(functions=(), complexities=(), sup_bound=0.0)
        with pytest.raises(ValueError):
            CountableClassSpec(
                functions=(constant_target(0.0),), complexities=(0.0, 1.0), sup_bound=0.0
            )
        with pytest.raises(ValueError):
            CountableClassSpec(
                functions=(constant_target(0.0),), complexities=(-0.1,), sup_bound=0.0
            )
        with pytest.raises(ValueError):
            CountableClassSpec(
                functions=(constant_target(0.0),), complexities=(0.0,), sup_bound=-1.0
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_constants_rejected(self, bad):
        # A nan complexity passed the codelength test (nan > 1 is False) and
        # both checks returned (nan, nan); inf gave (-inf, nan).
        with pytest.raises(ValueError, match="complexities"):
            CountableClassSpec(
                functions=(constant_target(0.0), constant_target(0.0)),
                complexities=(1.0, bad),
                sup_bound=1.0,
            )
        with pytest.raises(ValueError, match="sup_bound"):
            CountableClassSpec(
                functions=(constant_target(0.0),), complexities=(0.0,), sup_bound=bad
            )


class TestShippedSpecs:
    def test_inventory(self):
        specs = shipped_class_specs()
        assert set(specs) == {"zero", "singleton", "pair"}
        for name, spec in specs.items():
            assert spec.kraft_sum <= 1.0 + 1e-12, name
        assert specs["zero"].sup_bound == 0.0
        assert specs["singleton"].sup_bound == 1.0
        assert specs["pair"].sup_bound == 1.0

    @pytest.mark.parametrize("d", [0, -1])
    def test_d_below_one_rejected(self, d):
        with pytest.raises(ValueError, match=f"need d >= 1, got {d}"):
            shipped_class_specs(d)

    def test_functions_are_batch_callables_with_bounded_range(self, rng):
        for d in (1, 3):
            for name, spec in shipped_class_specs(d).items():
                X = rng.uniform(-1, 1, size=(25, d))
                for g in spec.functions:
                    out = np.asarray(g(X))
                    assert out.shape == (25,), (name, d)
                    assert np.max(np.abs(out)) <= spec.sup_bound + 1e-12, name


class TestSymmetrizationCheck:
    def test_zero_class_is_exactly_zero(self):
        mean, se = mc_symmetrization_check(
            shipped_class_specs()["zero"], gamma=1.0, n=20, trials=50,
            rng=np.random.default_rng(0),
        )
        assert mean == 0.0
        assert se == 0.0

    @pytest.mark.parametrize("name", ["singleton", "pair"])
    @pytest.mark.parametrize("gamma", [0.5, 2.0])
    def test_nonpositive_within_three_se(self, name, gamma):
        mean, se = mc_symmetrization_check(
            shipped_class_specs()[name], gamma=gamma, n=50, trials=2000, d=1,
            rng=np.random.default_rng(808),
        )
        assert se > 0.0
        assert mean <= 3.0 * se, (name, gamma, mean, se)

    def test_validation(self):
        spec = shipped_class_specs()["zero"]
        with pytest.raises(ValueError):
            mc_symmetrization_check(spec, gamma=0.0, n=10, trials=10)
        with pytest.raises(ValueError):
            mc_symmetrization_check(spec, gamma=1.0, n=10, trials=1)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_non_finite_gamma_rejected(self, gamma):
        spec = shipped_class_specs()["pair"]
        with pytest.raises(ValueError, match=f"got {gamma}"):
            mc_symmetrization_check(spec, gamma=gamma, n=10, trials=10)


class TestNoiseCheck:
    def test_zero_class_is_exactly_zero(self):
        mean, se = mc_noise_check(
            shipped_class_specs()["zero"], A=1.0, n=20, trials=50,
            noise=Noise("gaussian", 0.5), rng=np.random.default_rng(1),
        )
        assert mean == 0.0
        assert se == 0.0

    @pytest.mark.parametrize("name", ["singleton", "pair"])
    @pytest.mark.parametrize(
        "noise", [Noise("gaussian", 0.5), Noise("laplace", 0.4)], ids=["gauss", "lap"]
    )
    def test_nonpositive_within_three_se(self, name, noise):
        mean, se = mc_noise_check(
            shipped_class_specs()[name], A=2.0, n=50, trials=2000, noise=noise,
            d=1, rng=np.random.default_rng(909),
        )
        assert se > 0.0
        assert mean <= 3.0 * se, (name, noise.kind, mean, se)

    def test_validation(self):
        spec = shipped_class_specs()["zero"]
        with pytest.raises(ValueError):
            mc_noise_check(spec, A=0.0, n=10, trials=10, noise=Noise("gaussian", 1.0))
        with pytest.raises(ValueError):
            mc_noise_check(spec, A=1.0, n=10, trials=1, noise=Noise("gaussian", 1.0))

    @pytest.mark.parametrize("A", [math.nan, math.inf])
    def test_non_finite_A_rejected(self, A):
        spec = shipped_class_specs()["pair"]
        with pytest.raises(ValueError, match=f"got {A}"):
            mc_noise_check(spec, A=A, n=10, trials=10, noise=Noise("gaussian", 1.0))


def blocked_shape(d, shape):
    """(n, trials) at dimension d: several blocks with a partial last one,
    or one trial per block with n d above one block's cells."""
    if shape == "partial-block":
        n = 100
        per_block = risk._trials_per_block(n, d)
        trials = 2 * per_block + 3
        assert per_block > 3 and trials % per_block
        return n, trials
    n = risk._BLOCK_CELLS // d + 1
    assert risk._trials_per_block(n, d) == 1
    return n, 3


CHECK_NOISES = (Noise("gaussian", 0.5), Noise("laplace", 0.4), Noise("gaussian", 0.0))


def checks_against_oracle(make_rng, d, design, n, trials):
    """Both checks on every shipped class, run in turn on one generator
    from ``make_rng()`` and by the oracle on another: the (mean, se) lists
    and the two generators' end states."""
    got_rng, want_rng = make_rng(), make_rng()
    got, want = [], []
    for spec in shipped_class_specs(d).values():
        args = (spec, 0.7, n, trials, design, d)
        got.append(mc_symmetrization_check(*args, got_rng))
        want.append(mc_oracle.mc_symmetrization_check(*args, want_rng))
        for noise in CHECK_NOISES:
            got.append(mc_noise_check(spec, 2.0, n, trials, noise, design, d, got_rng))
            want.append(mc_oracle.mc_noise_check(spec, 2.0, n, trials, noise, design, d, want_rng))
    return got, want, plain(got_rng.bit_generator.state), plain(want_rng.bit_generator.state)


def plain(state):
    """A bit generator's state with its arrays as lists, so == compares it."""
    if isinstance(state, dict):
        return {key: plain(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def pending_uint32_pcg64(seed):
    """A PCG64 generator holding the unused half of a 64-bit draw."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rng.integers(0, 10, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1
    return rng


BIT_GENERATORS = (
    np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.MT19937, np.random.SFC64
)


class TestBlockedChecksMatchOracle:
    """The one-pass checks return the whole-array ones' (mean, se) bit for
    bit, and leave the generator in the same state: two words of the
    generator seed one generator for the design and one for the second
    sample, and each draws its rows block by block."""

    @pytest.mark.parametrize("shape", ["partial-block", "wide-trial"])
    @pytest.mark.parametrize("design", ["uniform", "rademacher"])
    @pytest.mark.parametrize("d", [1, 4, 64])
    def test_bit_identical_to_whole_array_checks(self, d, design, shape):
        n, trials = blocked_shape(d, shape)
        for seed in (0, 1):
            got, want, got_state, want_state = checks_against_oracle(
                lambda: np.random.default_rng(seed), d, design, n, trials
            )
            assert got == want, seed
            assert got_state == want_state, seed

    @pytest.mark.parametrize("pending", [False, True], ids=["aligned", "pending-half"])
    @pytest.mark.parametrize("design", ["uniform", "rademacher"])
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda cls: cls.__name__)
    def test_twin_matches_oracle_for_every_bit_generator(self, bit_generator, design, pending):
        # One path for every bit generator: its own class builds both child
        # generators.  MT19937 draws 32-bit values natively, so a 32-bit
        # draw leaves it no pending half.
        def make_rng():
            rng = np.random.Generator(bit_generator(5))
            if pending:
                rng.integers(0, 10, dtype=np.uint32)
            return rng

        n, trials = blocked_shape(4, "partial-block")
        got, want, got_state, want_state = checks_against_oracle(make_rng, 4, design, n, trials)
        assert got == want
        assert got_state == want_state

    def test_jump_keeps_a_pending_32_bit_value(self):
        # The checks take two 64-bit words from the generator and no 32-bit
        # value, so a pending half is still there after every check.
        n, trials = blocked_shape(4, "partial-block")
        got, want, got_state, want_state = checks_against_oracle(
            lambda: pending_uint32_pcg64(6), 4, "uniform", n, trials
        )
        assert got == want
        assert got_state == want_state
        assert got_state["has_uint32"] == 1

    @pytest.mark.parametrize("pending", [False, True], ids=["aligned", "pending-half"])
    @pytest.mark.parametrize(
        "bit_generator", [np.random.PCG64, np.random.PCG64DXSM], ids=lambda cls: cls.__name__
    )
    @pytest.mark.parametrize("n, trials, d", [(7, 5, 1), (9, 3, 3), (100, 35, 4)])
    def test_rademacher_jump_matches_oracle(self, n, trials, d, bit_generator, pending):
        # trials * n * d is odd in the first two shapes and even in the
        # last, so the Rademacher draws leave the design's generator with a
        # pending half, or with none and a stale one.
        def make_rng():
            rng = np.random.Generator(bit_generator(8))
            if pending:
                rng.integers(0, 10, dtype=np.uint32)
            return rng

        got, want, got_state, want_state = checks_against_oracle(
            make_rng, d, "rademacher", n, trials
        )
        assert got == want
        assert got_state == want_state

    @pytest.mark.parametrize("design", ["uniform", "rademacher"])
    def test_a_pending_half_leaves_both_checks_unchanged(self, design):
        # The same generator state, with and without a pending 32-bit half:
        # the checks never read the half, so they return the same values.
        spec = shipped_class_specs(4)["pair"]
        results = []
        for pending in (0, 1):
            rng = np.random.default_rng(12)
            if pending:
                state = rng.bit_generator.state
                rng.bit_generator.state = {**state, "has_uint32": 1, "uinteger": 0x9E3779B9}
            results.append([
                mc_symmetrization_check(spec, 0.7, 100, 7, design, 4, rng),
                mc_noise_check(spec, 2.0, 100, 7, Noise("laplace", 0.4), design, 4, rng),
            ])
            assert rng.bit_generator.state["has_uint32"] == pending
        assert results[0] == results[1]

    @pytest.mark.parametrize("design", ["uniform", "rademacher"])
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda cls: cls.__name__)
    def test_a_check_takes_two_raw_words(self, bit_generator, design):
        spec = shipped_class_specs(3)["pair"]
        checks = (
            lambda rng: mc_symmetrization_check(spec, 0.7, 9, 5, design, 3, rng),
            lambda rng: mc_noise_check(spec, 2.0, 9, 5, Noise("gaussian", 0.5), design, 3, rng),
        )
        for check in checks:
            checked, raw = (np.random.Generator(bit_generator(13)) for _ in range(2))
            check(checked)
            raw.bit_generator.random_raw(2)
            assert plain(checked.bit_generator.state) == plain(raw.bit_generator.state)

    @pytest.mark.parametrize("design", ["uniform", "rademacher"])
    def test_peak_grows_by_the_per_trial_arrays_alone(self, design):
        # At n = 256, d = 4 a block is 64 trials, so 2,000 and 8,000 trials
        # hold blocks of one size; only the per-trial maxima and their std
        # temporary grow with trials.
        spec = shipped_class_specs(4)["pair"]
        noise = Noise("laplace", 0.4)
        peaks = {}
        for trials in (2000, 8000):
            rng = np.random.default_rng(4)
            for name, check in (
                ("sym", lambda: mc_symmetrization_check(spec, 1.0, 256, trials, design, 4, rng)),
                ("noise", lambda: mc_noise_check(spec, 2.0, 256, trials, noise, design, 4, rng)),
            ):
                tracemalloc.start()
                try:
                    check()
                    peaks[name, trials] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        for name in ("sym", "noise"):
            assert peaks[name, 8000] - peaks[name, 2000] <= 2 * 8 * (8000 - 2000), peaks

    @pytest.mark.parametrize("design", ["uniform", "rademacher"])
    @pytest.mark.parametrize(
        "d, n, trials", [(4, 256, 2000), (64, 256, 300), (64, 1100, 3), (1, 7, 5000)]
    )
    def test_byte_bound_covers_each_check(self, d, n, trials, design):
        spec = shipped_class_specs(d)["pair"]
        rng = np.random.default_rng(3)
        checks = [
            lambda: mc_symmetrization_check(spec, 1.0, n, trials, design, d, rng),
            lambda: mc_noise_check(spec, 2.0, n, trials, Noise("laplace", 0.4), design, d, rng),
        ]
        bound = risk._mc_check_bytes(len(spec.functions), n, trials, d)
        for check in checks:
            tracemalloc.start()
            try:
                check()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound


def zero_pair():
    """Two zero functions with complexities (log 2, log 2): the supremum is
    -gamma log 2 / n, not 0."""
    return CountableClassSpec(
        functions=(lambda X: np.zeros(len(X)), lambda X: np.zeros(len(X))),
        complexities=(math.log(2.0), math.log(2.0)),
        sup_bound=0.0,
    )


class TestZeroClassDrawsNothing:
    """A class with sup_bound 0 is settled from one zero block: both checks
    return the whole-array ones' (mean, se) bit for bit and take the same two
    raw words, but draw no design, copy or noise."""

    @pytest.mark.parametrize("pending", [False, True], ids=["aligned", "pending-half"])
    @pytest.mark.parametrize("design", ["uniform", "rademacher"])
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda cls: cls.__name__)
    def test_no_draw_and_the_oracles_end_state(self, bit_generator, design, pending, monkeypatch):
        def make_rng():
            rng = np.random.Generator(bit_generator(14))
            if pending:
                rng.integers(0, 10, dtype=np.uint32)
            return rng

        noise = Noise("laplace", 0.4)
        classes = (shipped_class_specs(3)["zero"], zero_pair())
        want_rng = make_rng()
        want = []
        for spec in classes:
            want.append(mc_oracle.mc_symmetrization_check(spec, 0.7, 9, 5, design, 3, want_rng))
            want.append(mc_oracle.mc_noise_check(spec, 2.0, 9, 5, noise, design, 3, want_rng))

        calls = []
        draw_design, draw_noise = risk._draw_design, Noise.draw
        monkeypatch.setattr(
            risk, "_draw_design", lambda *a: calls.append("design") or draw_design(*a)
        )
        monkeypatch.setattr(
            Noise, "draw", lambda self, *a: calls.append("noise") or draw_noise(self, *a)
        )
        got_rng = make_rng()
        got = []
        for spec in classes:
            got.append(mc_symmetrization_check(spec, 0.7, 9, 5, design, 3, got_rng))
            got.append(mc_noise_check(spec, 2.0, 9, 5, noise, design, 3, got_rng))
        assert calls == []
        assert got == want
        assert plain(got_rng.bit_generator.state) == plain(want_rng.bit_generator.state)
        # The counters see the draws of a class that is not zero.
        pair = shipped_class_specs(3)["pair"]
        mc_noise_check(pair, 2.0, 9, 5, noise, design, 3, got_rng)
        assert calls == ["design", "noise"]

    @pytest.mark.parametrize("design", ["uniform", "rademacher"])
    @pytest.mark.parametrize("n", [1, 7, 256])
    def test_two_zero_functions_match_the_oracle(self, n, design):
        spec, trials = zero_pair(), 1000
        got_rng, want_rng = np.random.default_rng(15), np.random.default_rng(15)
        got = mc_symmetrization_check(spec, 0.7, n, trials, design, 3, got_rng)
        assert got == mc_oracle.mc_symmetrization_check(spec, 0.7, n, trials, design, 3, want_rng)
        assert got[0] == pytest.approx(-0.7 * math.log(2.0) / n, rel=1e-12)
        for noise in CHECK_NOISES:
            got = mc_noise_check(spec, 2.0, n, trials, noise, design, 3, got_rng)
            want = mc_oracle.mc_noise_check(spec, 2.0, n, trials, noise, design, 3, want_rng)
            assert got == want, noise
            gamma = 2.0 * noise.variance / 2.0
            assert got[0] == pytest.approx(-gamma * math.log(2.0) / n, rel=1e-12, abs=0.0)
        assert plain(got_rng.bit_generator.state) == plain(want_rng.bit_generator.state)

    def test_unknown_design_still_rejected(self):
        spec = shipped_class_specs()["zero"]
        with pytest.raises(ValueError, match="unknown design law 'sobol'"):
            mc_symmetrization_check(spec, 1.0, 10, 10, design="sobol")
        with pytest.raises(ValueError, match="unknown design law 'sobol'"):
            mc_noise_check(spec, 1.0, 10, 10, Noise("gaussian", 0.5), design="sobol")


@pytest.mark.parametrize("d", [0, -1])
@pytest.mark.parametrize("name", ["zero", "pair"])
def test_d_below_one_rejected_before_a_draw(name, d):
    spec = shipped_class_specs()[name]
    rng = np.random.default_rng(16)
    before = plain(rng.bit_generator.state)
    with pytest.raises(ValueError, match=f"need d >= 1, got {d}"):
        mc_symmetrization_check(spec, 1.0, 10, 10, d=d, rng=rng)
    with pytest.raises(ValueError, match=f"need d >= 1, got {d}"):
        mc_noise_check(spec, 2.0, 10, 10, Noise("gaussian", 0.5), d=d, rng=rng)
    assert plain(rng.bit_generator.state) == before


# ---------------------------------------------------------------------------
# Risk curve
# ---------------------------------------------------------------------------


def ramp_model_target():
    return RidgeModel(
        terms=[(0.4, RidgeUnit(Activation("ramp"), np.array([1.0, 0.5, 0.0])))]
    )


def small_risk_configs():
    gcfg = GreedyConfig(lam=2.0, m_max=2)
    pcfg = PenaltyConfig(
        B=1.0, B_n=1.0, sigma_sq=0.09, eta=0.3, nu=1.0, lam=2.0,
        regime="highdim-noise",
    )
    return gcfg, pcfg


class TestRiskCurve:
    def test_rows_ordered_and_populated(self):
        gcfg, pcfg = small_risk_configs()
        rows = risk_curve(
            target=ramp_model_target(), n_grid=(64, 32), d=2,
            regime="highdim-noise", trials=2, greedy_config=gcfg,
            penalty_config=pcfg, noise=Noise("gaussian", 0.3), seed=11,
        )
        assert [(r.n, r.trial) for r in rows] == [(32, 0), (32, 1), (64, 0), (64, 1)]
        for r in rows:
            assert r.d == 2
            assert r.regime == "highdim-noise"
            assert r.m_hat in (0, 1, 2)
            assert r.v_hat >= 0.0
            assert math.isfinite(r.test_mse) and r.test_mse >= 0.0
            assert math.isfinite(r.pen_per_n)
            # dictionary-model target: oracle mass is inferred automatically
            assert math.isfinite(r.resolvability_proxy)

    def test_deterministic(self):
        gcfg, pcfg = small_risk_configs()
        kwargs = dict(
            target=ramp_model_target(), n_grid=(32,), d=2, regime="highdim-noise",
            trials=2, greedy_config=gcfg, penalty_config=pcfg,
            noise=Noise("gaussian", 0.3), seed=5,
        )
        assert risk_curve(**kwargs) == risk_curve(**kwargs)

    def test_oracle_mass_handling(self):
        gcfg, pcfg = small_risk_configs()
        kwargs = dict(
            n_grid=(32,), d=2, regime="highdim-noise", trials=1,
            greedy_config=gcfg, penalty_config=pcfg, noise=Noise("zero"), seed=2,
        )
        opaque = constant_target(0.25)
        assert math.isnan(risk_curve(target=opaque, **kwargs)[0].resolvability_proxy)
        row = risk_curve(target=opaque, oracle_v=0.5, **kwargs)[0]
        assert math.isfinite(row.resolvability_proxy)

    def test_trials_run_on_the_calling_thread(self):
        # Every trial runs on the caller's thread: no pool over the trials.
        gcfg, pcfg = small_risk_configs()
        fstar = ramp_model_target()
        threads = set()

        def target(X):
            threads.add(threading.get_ident())
            return fstar(X)

        risk_curve(
            target=target, n_grid=(32,), d=2, regime="highdim-noise", trials=2,
            greedy_config=gcfg, penalty_config=pcfg, noise=Noise("gaussian", 0.3), seed=3,
        )
        assert threads == {threading.get_ident()}

    def test_trials_validated(self):
        gcfg, pcfg = small_risk_configs()
        with pytest.raises(ValueError):
            risk_curve(
                target=ramp_model_target(), n_grid=(32,), d=2,
                regime="highdim-noise", trials=0, greedy_config=gcfg,
                penalty_config=pcfg, noise=Noise("zero"),
            )

    def test_row_is_frozen(self):
        row = RiskRow(
            n=1, d=1, trial=0, regime="no-noise", m_hat=0, v_hat=0.0,
            test_mse=0.0, pen_per_n=0.0, resolvability_proxy=0.0,
        )
        with pytest.raises(FrozenInstanceError):
            row.n = 2


class TestRiskCsv:
    def test_structure(self):
        rows = [
            RiskRow(
                n=32, d=2, trial=0, regime="highdim-noise", m_hat=1,
                v_hat=0.3, test_mse=0.01, pen_per_n=0.5, resolvability_proxy=0.4,
            )
        ]
        buf = io.StringIO()
        write_risk_csv(rows, buf, header_lines=["experiment alpha"])
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# experiment alpha"
        assert lines[1] == ",".join(RISK_CSV_COLUMNS)
        cells = lines[2].split(",")
        assert cells[:5] == ["32", "2", "0", "highdim-noise", "1"]
        assert float(cells[5]) == 0.3
        assert float(cells[8]) == 0.4

    def test_nan_roundtrips(self):
        rows = [
            RiskRow(
                n=8, d=1, trial=0, regime="no-noise", m_hat=0, v_hat=0.0,
                test_mse=math.nan, pen_per_n=math.nan, resolvability_proxy=math.nan,
            )
        ]
        buf = io.StringIO()
        write_risk_csv(rows, buf)
        cells = buf.getvalue().splitlines()[1].split(",")
        assert math.isnan(float(cells[6]))
