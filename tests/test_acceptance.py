"""Acceptance gate: eight end-to-end checks, one per headline guarantee.

Each test prints a one-line summary with its measured margins; pytest -v gives
the per-criterion pass/fail line.  Time budgets are asserted where a check is
expensive by design.
"""

import math
import time

import numpy as np
import pytest

from ridgepursuit import (
    Activation,
    Dataset,
    GreedyConfig,
    Noise,
    PenaltyConfig,
    RidgeModel,
    RidgeUnit,
    SpectralTarget,
    best_of,
    enumerate_cover,
    fit_lpgp,
    gamma_tau,
    greedy_bound_rhs,
    maurey_sample,
    mc_l2_sq_distance,
    mc_noise_check,
    mc_symmetrization_check,
    pen_highdim,
    pen_moderate,
    pen_nonoise,
    resolvability_factors,
    risk_curve,
    sample_ramp_model,
    select_Bn,
    shipped_class_specs,
    sparsify_theta,
    spectral_norm,
    w_linear,
)
from conftest import three_se


# ---------------------------------------------------------------------------
# 1. Ramp sampling achieves the mean approximation bound with the right rate
# ---------------------------------------------------------------------------


def test_c1_ramp_sampling_rate_two_and_ten_dims():
    t0 = time.monotonic()
    m_values = (8, 16, 32, 64, 128, 256)
    for label, d, freqs in (
        ("d=2", 2, np.array([[1.0, 1.0]])),
        ("d=10", 10, np.full((1, 10), 0.2)),
    ):
        target = SpectralTarget(
            freqs=freqs, amps=np.array([1.0]), phases=np.array([0.0])
        )
        v2 = spectral_norm(target, 2.0)
        assert v2 == pytest.approx(4.0)
        errors = []
        for m in m_values:
            result = best_of(
                lambda rng, m=m: sample_ramp_model(target, m, rng),
                lambda model: mc_l2_sq_distance(
                    model, target, d, n_points=20_000, seed=31337
                ),
                k=32,
                seed=9000 + m,
            )
            bound = 16.0 * v2**2 / m
            assert result.distortion <= bound, (label, m)
            errors.append(result.distortion)
        slope = float(np.polyfit(np.log(m_values), np.log(errors), 1)[0])
        assert slope <= -0.8, (label, slope)
        print(f"criterion 1 [{label}]: worst err/bound = "
              f"{max(e * m / (16 * v2**2) for e, m in zip(errors, m_values)):.2e}, "
              f"slope = {slope:.3f}")
    elapsed = time.monotonic() - t0
    print(f"criterion 1: PASS in {elapsed:.1f}s (budget 120s)")
    assert elapsed <= 120.0


# ---------------------------------------------------------------------------
# 2. Random convexification matches its exact two-unit value and mean bound
# ---------------------------------------------------------------------------


def test_c2_sampling_distortion_exact_value_and_mean_bound():
    # Two empirically orthonormal sine units at equal weight: every one-term
    # draw has squared distance exactly 1/2 on the design.
    q = math.pi / 4
    X = np.array([[q, q], [q, -q], [-q, q], [-q, -q]])
    sine = Activation("sine")
    f = RidgeModel(
        terms=[
            (0.5, RidgeUnit(sine, np.array([2.0, 0.0, 0.0]))),
            (0.5, RidgeUnit(sine, np.array([0.0, 2.0, 0.0]))),
        ]
    )
    fX = np.asarray(f(X))
    rng = np.random.default_rng(606)
    draws = np.array(
        [
            float(np.mean((np.asarray(maurey_sample(f, 1, 1.0, rng)(X)) - fX) ** 2))
            for _ in range(10_000)
        ]
    )
    mean, band = three_se(draws)
    assert abs(mean - 0.5) <= max(band, 1e-12)
    print(f"criterion 2: enumerated-value check |mean - 0.5| = {abs(mean - 0.5):.2e}")

    # Twenty randomized small models: mean distortion <= v * v_f / m (+3 SE).
    worst = -math.inf
    for case in range(20):
        d = int(rng.integers(1, 9))
        k = int(rng.integers(1, 6))
        units = []
        for _ in range(k):
            kind = rng.choice(["sine", "tanh"])
            theta = rng.uniform(-1, 1, size=d + 1)
            theta *= rng.uniform(0.2, 1.0) * 2.0 / max(np.abs(theta).sum(), 1e-9)
            units.append(
                RidgeUnit(Activation(kind), theta, sign=int(rng.choice([-1, 1])))
            )
        betas = rng.uniform(0.1, 1.0, size=k)
        model = RidgeModel(terms=list(zip(betas.tolist(), units)))
        Xr = rng.uniform(-1, 1, size=(100, d))
        base = np.asarray(model(Xr))
        v_f = model.v
        v = v_f * float(rng.uniform(1.0, 1.5))
        m = int(rng.integers(1, 9))
        gaps = np.array(
            [
                float(np.mean((np.asarray(maurey_sample(model, m, v, rng)(Xr)) - base) ** 2))
                for _ in range(600)
            ]
        )
        mean, band = three_se(gaps)
        bound = v * v_f / m
        assert mean <= bound + band, case
        worst = max(worst, (mean - band) / bound)
    print(f"criterion 2: PASS, worst (mean-3SE)/bound over 20 configs = {worst:.3f}")


# ---------------------------------------------------------------------------
# 3. Cover enumeration counts and sparsification distortion
# ---------------------------------------------------------------------------


def test_c3_cover_counts_and_sparsify_distortion():
    for (d, m_grid), expected in (((1, 1), 3), ((2, 2), 15), ((3, 2), 28)):
        cover = enumerate_cover(d, m_grid, 2.0)
        assert cover.size == expected == math.comb(2 * d + m_grid, m_grid)
    print("criterion 3: cover sizes 3/15/28 exact")

    d, n, m_grid, lam = 20, 200, 4, 2.0
    rng = np.random.default_rng(515)
    X = rng.uniform(-1, 1, size=(n, d))
    xmax_sq = float(np.max(np.abs(X)) ** 2)
    worst = -math.inf
    for _ in range(10):
        theta = rng.uniform(-1, 1, size=d)
        theta *= rng.uniform(0.2, 1.0) * lam / np.abs(theta).sum()
        base = X @ theta
        dist = np.empty(2000)
        for k in range(2000):
            tilde = sparsify_theta(theta, m_grid, lam, rng)
            dist[k] = np.mean((base - X @ tilde) ** 2)
        bound = lam * float(np.abs(theta).sum()) * xmax_sq / m_grid
        mean, band = three_se(dist)
        assert mean <= bound + band
        worst = max(worst, (mean - band) / bound)
    print(f"criterion 3: PASS, worst sparsify (mean-3SE)/bound = {worst:.3f}")


# ---------------------------------------------------------------------------
# 4. Clipping inequalities and the tail-moment budget
# ---------------------------------------------------------------------------


def test_c4_truncation_inequalities_and_tail_budget():
    N = 100_000
    rng = np.random.default_rng(717)
    y = rng.uniform(-10, 10, size=N)
    f = rng.uniform(-10, 10, size=N)
    f_alt = rng.uniform(-10, 10, size=N)
    f_sur = rng.uniform(-10, 10, size=N)
    B_n = rng.uniform(0.1, 5.0, size=N)
    Tf = np.clip(f, -B_n, B_n)
    Tf_alt = np.clip(f_alt, -B_n, B_n)
    over = np.where(np.abs(y) > B_n, np.abs(y) - B_n, 0.0)

    assert np.all((y - Tf) ** 2 <= (y - f) ** 2 + 2.0 * over**2 + 1e-12)
    assert np.all(
        (y - Tf) ** 2
        <= (y - Tf_alt) ** 2 + 4.0 * B_n * np.abs(f - f_alt) + 4.0 * B_n * over + 1e-12
    )
    assert np.all(
        (Tf_alt - Tf) ** 2 <= (f - f_sur) ** 2 + 4.0 * B_n * np.abs(f_sur - f_alt) + 1e-12
    )
    print("criterion 4: clipping inequalities hold on 100000 tuples")

    # Tail budget E[(Y^2 - B_n^2) 1{|Y| > B_n}] for both tail classes, n = 3.
    B, n = 1.0, 3
    margins = {}
    for tail, noise, nu, mgf, seed in (
        ("sub-exponential", Noise("laplace", 0.5), 1.5, 1.5, 777),
        ("sub-gaussian", Noise("gaussian", 1.0), 4.0, math.sqrt(2.0), 778),
    ):
        eps = noise.draw(N, np.random.default_rng(seed))
        Y = B + eps
        level = select_Bn(B, nu, n, tail)
        stat = np.where(np.abs(Y) > level, Y**2 - level**2, 0.0)
        assert np.count_nonzero(stat) > 10
        mean, band = three_se(stat)
        bound = (4.0 * nu**2 / n) * mgf if tail == "sub-exponential" else (2.0 * nu / n) * mgf
        assert mean <= bound + band, tail
        margins[tail] = (mean - band) / bound
    print(f"criterion 4: PASS, tail margins {margins}")


# ---------------------------------------------------------------------------
# 5. Pursuit guarantee on noiseless dictionary targets
# ---------------------------------------------------------------------------


def test_c5_pursuit_guarantee_noiseless_cover_targets():
    t0 = time.monotonic()
    d, n = 8, 500
    D = d + 1
    sine = Activation("sine")
    th1 = np.zeros(D); th1[0], th1[1] = 1.0, 1.0
    th2 = np.zeros(D); th2[1], th2[2] = 1.0, 1.0
    th3 = np.zeros(D); th3[0] = 2.0
    fstar = RidgeModel(
        terms=[
            (0.5, RidgeUnit(sine, th1)),
            (0.4, RidgeUnit(sine, th2)),
            (0.3, RidgeUnit(sine, th3)),
        ]
    )
    cfg = GreedyConfig(lam=2.0, m_max=50, activation="sine", w=w_linear())
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(3000 + seed)
        X = rng.uniform(-1, 1, size=(n, d))
        Y = np.asarray(fstar(X))
        path = fit_lpgp(
            data=Dataset(X=X, Y=Y),
            config=cfg,
        )
        # c = 1: f*'s units are m_grid = 2 cover points, and every step takes
        # at least the cover argmax.
        c = 1.0
        for rec in path.records:
            assert rec.inner_value >= rec.diagnostics["cover_value"], (seed, rec.m)
        norm_f = float(np.sqrt(np.mean(Y**2)))
        objectives = [rec.objective for rec in path.records]
        assert all(a >= b - 1e-12 for a, b in zip(objectives, objectives[1:]))
        for rec in path.records:
            lhs = rec.train_mse + cfg.w(rec.v_m)
            rhs = greedy_bound_rhs(0.0, fstar.v, norm_f, norm_f, c, rec.m, cfg.w)
            assert lhs <= rhs + 1e-12, (seed, rec.m)
            worst = max(worst, lhs / rhs)
    elapsed = time.monotonic() - t0
    print(f"criterion 5: PASS, worst lhs/rhs = {worst:.4f}, "
          f"{elapsed:.1f}s (budget 60s)")
    assert elapsed <= 60.0


# ---------------------------------------------------------------------------
# 6. Concentration devices certified by Monte Carlo
# ---------------------------------------------------------------------------


def test_c6_concentration_checks_all_shipped_classes():
    n, trials = 200, 10_000
    rng = np.random.default_rng(1212)
    noise = Noise("gaussian", 0.5)
    report = []
    for name, spec in sorted(shipped_class_specs(d=1).items()):
        mean, se = mc_symmetrization_check(spec, gamma=1.0, n=n, trials=trials, rng=rng)
        assert mean <= 3.0 * se, ("symmetrization", name, mean, se)
        report.append(f"sym/{name}={mean:.2e}")
        mean, se = mc_noise_check(spec, A=2.0, n=n, trials=trials, noise=noise, rng=rng)
        assert mean <= 3.0 * se, ("noise", name, mean, se)
        report.append(f"noise/{name}={mean:.2e}")
    print("criterion 6: PASS, means " + ", ".join(report))


# ---------------------------------------------------------------------------
# 7. Penalty formula spot values
# ---------------------------------------------------------------------------


def test_c7_penalty_spot_values():
    config = PenaltyConfig(
        B=1.0, B_n=1.0, sigma_sq=1.0, eta=0.0, nu=1.0, lam=1.0, delta1=1.0, delta2=1.0
    )
    gamma_n, tau = gamma_tau(config)
    assert gamma_n == pytest.approx(6.25, rel=1e-12)
    assert tau == pytest.approx(4.0, rel=1e-12)

    ratio_one = dict(n=1, d=1, lam=1.0, gamma_n=1.0 / math.log(2.0))
    assert pen_highdim(1.0, B_n=1.0, T_n=0.0, **ratio_one).pen_per_n == pytest.approx(
        24.0, rel=1e-12
    )
    assert pen_nonoise(1.0, **ratio_one).pen_per_n == pytest.approx(24.0, rel=1e-12)

    # moderate-dimension main term scales as ratio^(1/2 + 1/(2(d+3))) = 0.625
    # at d = 1: measure the exponent from two sample sizes.
    gamma_n, lam, v, d = 0.3, 1.0, 0.7, 1
    mains, ratios = [], []
    for n in (10**6, 10**8):
        pen = pen_moderate(v, n, d, lam, gamma_n, T_n=0.0)
        assert pen.valid
        mains.append(pen.main_term)
        ratios.append(d * gamma_n * math.log(n / d + 1.0) / n)
    exponent = math.log(mains[0] / mains[1]) / math.log(ratios[0] / ratios[1])
    assert exponent == pytest.approx(0.625, rel=1e-12)
    print(f"criterion 7: PASS, (6.25, 4), 24, 24, exponent={exponent!r}")


# ---------------------------------------------------------------------------
# 8. End-to-end risk decreases with n and meets the selection bound
# ---------------------------------------------------------------------------


def test_c8_end_to_end_risk_decreases_and_meets_bound():
    t0 = time.monotonic()
    d, sigma, trials = 64, 0.5, 20
    D = d + 1
    ramp = Activation("ramp")
    th1 = np.zeros(D); th1[0] = 2.0
    th2 = np.zeros(D); th2[1], th2[2] = 1.0, 1.0
    th3 = np.zeros(D); th3[3], th3[D - 1] = -1.0, 1.0
    fstar = RidgeModel(
        terms=[
            (0.5, RidgeUnit(ramp, th1)),
            (0.4, RidgeUnit(ramp, th2)),
            (0.3, RidgeUnit(ramp, th3)),
        ]
    )
    B = 2.4  # sup |f*| <= v_f * lam * max|x~| = 1.2 * 2
    nu = 4.0 * sigma**2
    noise = Noise("gaussian", sigma)
    gcfg = GreedyConfig(lam=2.0, m_max=16, w=w_linear(), c_report=False)
    m_grid = (0, 1, 2, 3, 4, 6, 8, 12, 16)

    medians, fractions = [], []
    for n in (256, 1024, 4096):
        B_n = select_Bn(B, nu, n, "sub-gaussian")
        pcfg = PenaltyConfig(
            B=B, B_n=B_n, sigma_sq=sigma**2, eta=sigma, nu=nu, lam=2.0,
            regime="mixed", mixed_C=0.03,
        )
        rows = risk_curve(
            fstar, (n,), d, "mixed", trials, gcfg, pcfg, noise,
            seed=4242, m_grid=m_grid,
        )
        _, tau = gamma_tau(pcfg)
        factor = resolvability_factors(tau)[1]  # 2 (tau + 1)
        tests = np.array([r.test_mse for r in rows])
        covered = np.array(
            [r.test_mse <= factor * r.resolvability_proxy for r in rows]
        )
        medians.append(float(np.median(tests)))
        fractions.append(float(covered.mean()))
        print(f"criterion 8: n={n} median={medians[-1]:.5f} "
              f"bound={factor * rows[0].resolvability_proxy:.4f} "
              f"covered={fractions[-1]:.2f}")
    assert medians[0] > medians[1] > medians[2], medians
    assert all(frac >= 0.9 for frac in fractions), fractions
    elapsed = time.monotonic() - t0
    print(f"criterion 8: PASS, medians {[f'{m:.5f}' for m in medians]}, "
          f"{elapsed:.1f}s (budget 600s)")
    assert elapsed <= 600.0
