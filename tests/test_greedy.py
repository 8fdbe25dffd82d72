"""Greedy pursuit: convex coefficient penalties, l1 projection, the inner
correlation maximizer, penalized line search, the full iteration path with its
guarantee, and path CSV emission."""

import io
import math
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ridgepursuit import (
    Activation,
    CoefficientPenalty,
    CoverSizeError,
    Dataset,
    GreedyConfig,
    GreedyPath,
    Noise,
    RidgeModel,
    RidgeUnit,
    SparseCover,
    SpectralTarget,
    cover_counts,
    enumerate_cover,
    eval_unit,
    fit_lpgp,
    gen_dataset,
    greedy_b_f,
    greedy_bound_rhs,
    inner_maximize,
    line_search,
    project_l1,
    w_custom,
    w_linear,
    w_power,
    write_path_csv,
)
from ridgepursuit import greedy
from ridgepursuit.greedy import PATH_CSV_COLUMNS

import ascent_oracle
import path_oracle
from line_search_oracle import line_search as oracle_line_search

CUSTOM_POINTS = [(0.0, 0.0), (1.0, 0.5), (2.0, 1.4), (5.0, 6.0)]


# ---------------------------------------------------------------------------
# Coefficient penalties
# ---------------------------------------------------------------------------


class TestCoefficientPenalty:
    def all_kinds(self):
        return [w_linear(0.7), w_power(0.4), w_custom(CUSTOM_POINTS), w_linear(0.0)]

    def test_basic_values(self):
        assert w_linear(0.5)(2.0) == pytest.approx(1.0)
        assert w_power(2.0)(8.0) == pytest.approx(2.0 * 8.0 ** (4.0 / 3.0))
        assert w_linear()(123.0) == 0.0

    def test_custom_interpolation_and_extension(self):
        w = w_custom(CUSTOM_POINTS)
        assert w(0.0) == 0.0
        assert w(1.0) == pytest.approx(0.5)
        assert w(1.5) == pytest.approx(0.95)  # midpoint of (1,0.5)-(2,1.4)
        # beyond the last knot: extend with the final slope (6-1.4)/3
        assert w(8.0) == pytest.approx(6.0 + (6.0 - 1.4) / 3.0 * 3.0)

    def test_negative_mass_clamps_to_zero(self):
        for w in self.all_kinds():
            assert w(-3.0) == w(0.0)

    def test_midpoint_convexity_thousand_triples(self, rng):
        vs = rng.uniform(0.0, 10.0, size=(1000, 2))
        for w in self.all_kinds():
            a, b = vs[:, 0], vs[:, 1]
            lhs = w((a + b) / 2.0)
            rhs = (w(a) + w(b)) / 2.0
            assert np.all(lhs <= rhs + 1e-9), w.kind

    @given(
        st.floats(0.0, 50.0, allow_nan=False),
        st.floats(0.0, 50.0, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_convexity_property(self, v1, v2, t):
        for w in (w_linear(0.3), w_power(0.8), w_custom(CUSTOM_POINTS)):
            mix = t * v1 + (1.0 - t) * v2
            assert w(mix) <= t * w(v1) + (1.0 - t) * w(v2) + 1e-7

    def test_nonnegative_everywhere(self, rng):
        grid = rng.uniform(0, 20, size=500)
        for w in self.all_kinds():
            assert np.all(w(grid) >= 0.0)

    def test_custom_validation(self):
        with pytest.raises(ValueError):
            w_custom([(0.0, 0.0)])  # too few knots
        with pytest.raises(ValueError):
            w_custom([(0.0, 0.0), (0.0, 1.0)])  # not increasing
        with pytest.raises(ValueError):
            w_custom([(0.0, 0.0), (1.0, 2.0), (2.0, 2.5)])  # slopes decrease
        with pytest.raises(ValueError):
            w_custom([(0.0, 1.0), (1.0, 0.5), (2.0, 0.4)])  # heads below zero
        with pytest.raises(ValueError):
            w_custom([(0.0, -0.5), (1.0, 1.0)])  # negative value
        with pytest.raises(ValueError):
            w_custom([(0.0, 0.0), (1e-300, 1e10)])  # slope overflows
        with pytest.raises(ValueError):
            w_custom([(0.0, 0.0), (math.inf, 1.0)])  # knot at infinity
        with pytest.raises(ValueError):
            CoefficientPenalty(kind="linear", rate=-1.0)
        with pytest.raises(ValueError):
            CoefficientPenalty(kind="exp")

    @pytest.mark.parametrize("kind", ["linear", "power"])
    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_rate_must_be_finite(self, kind, rate):
        # A nan or infinite rate made w(0) nan: inf * 0.0 and nan * 1.0.
        with pytest.raises(ValueError, match="0 <= rate < inf"):
            CoefficientPenalty(kind=kind, rate=rate)
        with pytest.raises(ValueError, match="0 <= rate < inf"):
            (w_linear if kind == "linear" else w_power)(rate)


def penalty_0d(w, v):
    """w(v) through a 0-d array, as ``CoefficientPenalty`` evaluated every
    input before it had a scalar path."""
    arr = np.maximum(np.asarray(v, dtype=float), 0.0)
    if w.kind == "linear":
        out = w.rate * arr
    elif w.kind == "power":
        out = w.rate * arr ** (4.0 / 3.0)
    else:
        vk = np.array([k[0] for k in w.knots], dtype=float)
        wk = np.array([k[1] for k in w.knots], dtype=float)
        out = np.asarray(np.interp(arr, vk, wk))
        lo_slope = (wk[1] - wk[0]) / (vk[1] - vk[0])
        hi_slope = (wk[-1] - wk[-2]) / (vk[-1] - vk[-2])
        out = np.where(arr < vk[0], wk[0] + lo_slope * (arr - vk[0]), out)
        out = np.where(arr > vk[-1], wk[-1] + hi_slope * (arr - vk[-1]), out)
    return float(out)


SCALAR_PENALTIES = {
    "linear": w_linear(0.7),
    "linear-zero": w_linear(0.0),
    "power": w_power(0.4),
    "power-zero": w_power(0.0),
    "custom": w_custom(CUSTOM_POINTS),
}
SCALAR_MASSES = [-1.0, -0.0, 0.0, 5e-324, 0.25, 0.5, 1.0, 3.7, 1e12, 1e300, math.inf, math.nan]


class TestScalarPenalty:
    """A float (or np.float64) mass skips the array round-trip and gives the
    0-d result bit for bit: signed zeros, nan, inf and overflow included."""

    @pytest.mark.parametrize("name", list(SCALAR_PENALTIES))
    def test_matches_0d_array_bitwise(self, name):
        w = SCALAR_PENALTIES[name]
        with np.errstate(over="ignore", invalid="ignore"):
            for v in SCALAR_MASSES:
                want = np.float64(penalty_0d(w, v)).tobytes()
                for x in (v, np.float64(v), np.asarray(v)):
                    got = w(x)
                    assert type(got) is float, (v, type(x))
                    assert np.float64(got).tobytes() == want, (v, type(x), got)

    @pytest.mark.parametrize("name", list(SCALAR_PENALTIES))
    def test_random_masses_match_0d_array(self, name, rng):
        w = SCALAR_PENALTIES[name]
        masses = np.concatenate([rng.uniform(0.0, 10.0, 500), 10.0 ** rng.uniform(-300, 200, 500)])
        for v in masses.tolist():
            assert w(v) == penalty_0d(w, v), v


ARRAY_PENALTIES = {
    "linear": w_linear(0.7),
    "power-1e-3": w_power(1e-3),
    "power-0.4": w_power(0.4),
    "custom": w_custom(CUSTOM_POINTS),
    "custom-offset": w_custom([(0.5, 0.5), (1.5, 0.6), (2.0, 1.5)]),
}


class TestArrayPenalty:
    """An array of masses maps the one-float formula entry by entry."""

    @pytest.mark.parametrize("name", list(ARRAY_PENALTIES))
    def test_array_is_the_floats_bitwise(self, name):
        w = ARRAY_PENALTIES[name]
        rng = np.random.default_rng(19)
        special = [0.0, -0.0, math.nan, math.inf, -math.inf]
        masses = np.concatenate([rng.uniform(-2.0, 12.0, 20_000), special])
        with np.errstate(over="ignore", invalid="ignore"):
            got = w(masses)
            want = np.array([w(float(x)) for x in masses])
            grid = w(masses[:20_000].reshape(100, 200))
        assert got.shape == masses.shape and got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert grid.tobytes() == want[:20_000].tobytes()


class TestGreedyConfig:
    def test_defaults_valid(self):
        cfg = GreedyConfig(lam=2.0, m_max=4)
        assert cfg.strategy == "cover-exhaustive"
        assert cfg.activation == "ramp"

    def test_validation(self):
        with pytest.raises(ValueError):
            GreedyConfig(lam=0.0, m_max=1)
        with pytest.raises(ValueError):
            GreedyConfig(lam=2.0, m_max=-1)
        with pytest.raises(ValueError):
            GreedyConfig(lam=2.0, m_max=1, activation="step")
        with pytest.raises(ValueError):
            GreedyConfig(lam=2.0, m_max=1, strategy="annealing")
        with pytest.raises(ValueError):
            GreedyConfig(lam=2.0, m_max=1, restarts=0)
        with pytest.raises(ValueError):
            GreedyConfig(lam=2.0, m_max=1, w="not-a-penalty")


# ---------------------------------------------------------------------------
# l1 projection
# ---------------------------------------------------------------------------


class TestProjectL1:
    def test_frozen_examples(self):
        np.testing.assert_allclose(project_l1(np.array([3.0, 0.0]), 1.0), [1.0, 0.0])
        np.testing.assert_allclose(project_l1(np.array([2.0, 1.0]), 1.0), [1.0, 0.0])
        np.testing.assert_allclose(
            project_l1(np.array([0.3, -0.2]), 1.0), [0.3, -0.2]
        )

    def test_symmetric_split(self):
        out = project_l1(np.array([2.0, 2.0]), 2.0)
        np.testing.assert_allclose(out, [1.0, 1.0])

    @given(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=6),
        st.floats(0.1, 10.0, allow_nan=False),
    )
    def test_projection_properties(self, coords, radius):
        v = np.array(coords)
        out = project_l1(v, radius)
        assert np.abs(out).sum() <= radius * (1 + 1e-9) + 1e-9
        if np.abs(v).sum() <= radius:
            np.testing.assert_array_equal(out, v)
        again = project_l1(out, radius)
        np.testing.assert_allclose(again, out, atol=1e-9)

    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(3, 12),
        D=st.integers(1, 8),
        radius=st.floats(0.1, 10.0, allow_nan=False),
    )
    def test_stack_matches_rows_bit_for_bit(self, seed, k, D, radius):
        rng = np.random.default_rng(seed)
        V = rng.normal(scale=rng.uniform(0.01, 5.0), size=(k, D))
        V[0] = 0.0
        V[1] *= 0.5 * radius / max(np.abs(V[1]).sum(), 1e-300)  # strictly inside
        V[2] = 0.0
        V[2, : min(D, 2)] = radius / min(D, 2)  # on the boundary
        assert np.abs(V[2]).sum() == radius
        out = project_l1(V, radius)
        assert out.shape == V.shape
        for row, projected in zip(V, out):
            np.testing.assert_array_equal(projected, project_l1(row, radius))
        np.testing.assert_array_equal(out[:3], V[:3])

    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 19),
        D=st.integers(1, 29),
        radius=st.floats(0.1, 10.0, allow_nan=False),
        layout=st.sampled_from(["outside", "inside", "mixed"]),
    )
    def test_matches_oracle_bit_for_bit(self, seed, k, D, radius, layout):
        # Stacks with every row outside the ball, with none, and with both
        # must each give the earlier projection's bits, signed zeros
        # included.
        rng = np.random.default_rng(seed)
        k = max(k, 2) if layout == "mixed" else k
        V = rng.normal(scale=rng.uniform(0.01, 5.0), size=(k, D))
        V[rng.random(V.shape) < 0.2] = -0.0
        V[:, 0] = rng.choice([-1.0, 1.0], size=k) * rng.uniform(0.1, 1.0, size=k)
        inside = {"outside": np.zeros(k, bool), "inside": np.ones(k, bool)}.get(
            layout, np.arange(k) % 2 == 1
        )
        scale = np.where(inside, rng.uniform(0.0, 0.99, size=k), rng.uniform(1.01, 5.0, size=k))
        V *= (scale * radius / np.abs(V).sum(axis=1))[:, None]
        outside = np.abs(V).sum(axis=1) > radius
        assert np.array_equal(outside, ~inside)
        for stack in (V, V[0]):
            got, want = project_l1(stack, radius), ascent_oracle.project_l1(stack, radius)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert got is not stack and not np.shares_memory(got, stack)


# ---------------------------------------------------------------------------
# Inner maximization
# ---------------------------------------------------------------------------


def inner_config(**kwargs):
    defaults = dict(lam=2.0, m_max=1, activation="ramp", w=w_linear())
    defaults.update(kwargs)
    return GreedyConfig(**defaults)


class TestInnerMaximize:
    def test_zero_residual(self, rng):
        X = rng.uniform(-1, 1, size=(30, 3))
        for R in (np.zeros(30), np.full(30, -0.0)):
            res = inner_maximize(R, X, inner_config())
            np.testing.assert_array_equal(res.theta, np.zeros(3))
            assert res.value == 0.0
            assert res.theta.tobytes() == np.zeros(3).tobytes() and res.sign == 1
            assert res.diagnostics == {"cover_value": 0.0, "n_candidates": 1}

    def test_smallest_subnormal_residual_is_searched(self):
        # ||R||_1 = n 5e-324 > 0, so the search runs.  With X = 0 (lifted)
        # a unit sees only its bias weight: lam e_bias, lam = 1, gives 1 on
        # every row and scores n 5e-324 / n = 5e-324 exactly; every other
        # unit's products round to 0.
        n = 16
        X = np.hstack([np.zeros((n, 2)), np.ones((n, 1))])
        res = inner_maximize(np.full(n, 5e-324), X, inner_config(lam=1.0))
        assert res.value == 5e-324 and res.sign == 1
        assert res.theta.tolist() == [0.0, 0.0, 1.0]
        assert res.diagnostics["cover_value"] == 5e-324

    @pytest.mark.parametrize("case", ["nan", "inf", "l1_overflow"])
    def test_nonfinite_residual_raises(self, rng, case):
        # Before the check, a nan entry returned cover_value nan, and a +inf
        # entry or an R whose l1 norm overflows returned value inf, with
        # RuntimeWarnings.
        X = rng.uniform(-1, 1, size=(30, 3))
        R = rng.normal(size=30)
        if case == "nan":
            R[4] = math.nan
        elif case == "inf":
            R[4] = math.inf
        else:
            R = np.full(30, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="l1 norm must be finite"):
                inner_maximize(R, X, inner_config())

    def test_value_never_negative(self, rng, monkeypatch):
        # Residuals anti-correlated with every ramp: the -R search finds a
        # ramp with positive value, and with +R alone the zero parameter wins.
        X = rng.uniform(-1, 1, size=(50, 1))
        X = np.hstack([X, np.ones((50, 1))])  # lifted: constant column
        R = -np.ones(50)
        res = inner_maximize(R, X, inner_config())
        assert res.sign == -1 and res.value > 0.0
        assert res.value == pytest.approx(np.mean(np.maximum(X @ res.theta, 0.0)), rel=1e-14)

        monkeypatch.setattr(greedy, "_searches_both_signs", lambda act: False)
        res = inner_maximize(R, X, inner_config())
        assert res.sign == 1 and res.value == 0.0
        np.testing.assert_array_equal(res.theta, np.zeros(2))

    def test_collinear_cover_unit_recovered(self, rng):
        # Residual exactly collinear with the constant cover unit theta0 =
        # (0, 0, 2) on the lifted design: brute force must return theta0.
        n = 40
        X = rng.uniform(-1, 1, size=(n, 2))
        X_lift = np.hstack([X, np.ones((n, 1))])
        theta0 = np.array([0.0, 0.0, 2.0])
        R = 1.5 * np.maximum(X_lift @ theta0, 0.0)  # == 3.0 everywhere
        res = inner_maximize(R, X_lift, inner_config())
        np.testing.assert_array_equal(res.theta, theta0)
        assert res.value == pytest.approx(np.mean(R * 2.0), rel=1e-14)
        assert res.diagnostics["cover_value"] == res.value

    def test_monotone_positive_residual_all_strategies(self):
        # d = 1 with R positive and increasing in x: full mass lam on the
        # coordinate with positive sign is optimal (checked by a dense grid).
        n, lam = 101, 2.0
        x = np.linspace(-1.0, 1.0, n)
        X = x[:, None]
        R = 2.0 + x

        def score(theta):
            return float(np.mean(R * np.maximum(theta * x, 0.0)))

        grid = np.linspace(-lam, lam, 2001)
        oracle = max(score(t) for t in grid)
        assert oracle == pytest.approx(score(lam), rel=1e-15)

        exact = inner_maximize(R, X, inner_config(strategy="cover-exhaustive"))
        np.testing.assert_array_equal(exact.theta, [lam])
        assert exact.value == pytest.approx(oracle, rel=1e-12)

        # Projected gradient from the configured cover and from the vertex
        # cover {-lam, 0, lam} it falls back to over the cap.
        for cap in (10**6, 1):
            cfg = inner_config(strategy="projected-gradient", restarts=8, cover_cap=cap)
            res = inner_maximize(R, X, cfg)
            assert res.value >= oracle - 1e-6
            assert abs(res.theta[0] - lam) <= 1e-4

    def test_gradient_strategies_dominate_cover_value(self, rng):
        # With the c diagnostic on, the reported value must match or beat the
        # cover grid's best whenever ascent starts from cover elements.
        n = 60
        X = np.hstack([rng.uniform(-1, 1, size=(n, 2)), np.ones((n, 1))])
        R = rng.normal(size=n)
        res = inner_maximize(R, X, inner_config(strategy="projected-gradient", restarts=8))
        assert res.value >= res.diagnostics["cover_value"] - 1e-12

    @pytest.mark.parametrize("restarts", [1, 3, 1000])
    def test_restarts_start_from_top_cover_points(self, restarts, monkeypatch):
        # The ascents start from the `restarts` best cover points in score
        # order (every point when the cover is smaller).
        rng = np.random.default_rng(5)
        X = np.hstack([rng.uniform(-1, 1, size=(60, 2)), np.ones((60, 1))])
        R = rng.normal(size=60)
        cfg = inner_config(strategy="projected-gradient", restarts=restarts)
        cache = greedy._cover_cache_for(X, Activation("ramp"), cfg)
        scores = ascent_oracle.exact_scores(R, cache)
        inits, signs, values = [], [], []
        ascend = greedy._ascend_batch

        def recording(R, X, act, theta0, sign, lam, step0):
            inits.append(theta0.copy())
            signs.append(sign.copy())
            result = ascend(R, X, act, theta0, sign, lam, step0)
            values.append(result[0])
            return result

        monkeypatch.setattr(greedy, "_ascend_batch", recording)
        inner_maximize(R, X, cfg, cover_cache=cache)
        # The ramp searches both signs: the top points of +R, then of -R.
        count = min(restarts, cache.cover.n_distinct)
        top = np.argsort(-scores, kind="stable")[:count]
        bottom = np.argsort(scores, kind="stable")[:count]
        np.testing.assert_array_equal(
            np.concatenate(inits), cache.cover.thetas[np.concatenate([top, bottom])]
        )
        assert len(signs) == 1  # one batch holds both signs
        np.testing.assert_array_equal(signs[0], np.repeat([1.0, -1.0], count))
        # The first ascent of each sign starts at its cover argmax and never
        # loses ground.
        values = np.concatenate(values)
        assert values[0] >= scores.max()
        assert values[count] >= -scores.min()

    def test_exact_tie_goes_to_the_lower_cover_index(self):
        # Two equal columns make lam e_0 and lam e_1 score the same, bit for
        # bit, and so -lam e_0 and -lam e_1.  Each sign ranks its units once:
        # its cover argmax is the tied unit of lower cover index, and that
        # unit is also its first restart seed.
        x = np.random.default_rng(3).uniform(-0.5, 1.0, size=64)
        X = np.column_stack([x, x])
        cfg = inner_config(cover_m_grid=1)
        cache = greedy._cover_cache_for(X, Activation("ramp"), cfg)
        rows = [tuple(theta) for theta in cache.cover.thetas.tolist()]
        up = sorted(rows.index(t) for t in ((2.0, 0.0), (0.0, 2.0)))
        down = sorted(rows.index(t) for t in ((-2.0, 0.0), (0.0, -2.0)))
        exact = ascent_oracle.exact_scores(x, cache)
        assert exact[up[0]] == exact[up[1]] == exact.max() > 0.0
        assert exact[down[0]] == exact[down[1]] == exact.min() < 0.0
        inits = []

        def recording(R, X, act, theta0, sign, lam, step0):
            inits.append(theta0.copy())
            return np.full(theta0.shape[0], -np.inf), theta0

        # x leans positive, so a tied +lam unit wins from the +R search when
        # R = x and from the -R search when R = -x.
        for R, sign, seeds in ((x, 1, up + down), (-x, -1, down + up)):
            res = inner_maximize(R, X, cfg, cover_cache=cache)
            assert res.sign == sign
            np.testing.assert_array_equal(res.theta, cache.cover.thetas[up[0]])
            inits.clear()
            pg = replace(cfg, strategy="projected-gradient", restarts=2)
            with mock.patch.object(greedy, "_ascend_batch", recording):
                res = inner_maximize(R, X, pg, cover_cache=cache)
            np.testing.assert_array_equal(np.concatenate(inits), cache.cover.thetas[seeds])
            assert res.sign == sign
            np.testing.assert_array_equal(res.theta, cache.cover.thetas[up[0]])

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            inner_maximize(np.ones(5), np.ones((4, 2)), inner_config())

    def test_cover_cap_exhausted(self, rng):
        X = rng.uniform(-1, 1, size=(10, 40))
        cfg = inner_config(strategy="cover-exhaustive", cover_cap=10)
        with pytest.raises(CoverSizeError):
            inner_maximize(np.ones(10), X, cfg)

    def test_gradient_strategy_survives_cap(self, rng):
        # Over the cap, projected gradient scores and seeds from the vertex
        # cover lam * {+-e_j, 0}: 2D + 1 rows, whatever the cap.
        X = rng.uniform(-1, 1, size=(10, 40))
        cfg = inner_config(strategy="projected-gradient", cover_cap=10, restarts=4)
        cache = greedy._cover_cache_for(X, Activation("ramp"), cfg)
        vertices = enumerate_cover(40, 1, cfg.lam)
        assert cache.cover.thetas.tobytes() == vertices.thetas.tobytes()
        res = inner_maximize(np.ones(10), X, cfg)
        assert math.isfinite(res.diagnostics["cover_value"])
        assert res.value >= res.diagnostics["cover_value"] > 0.0
        assert res.diagnostics["n_candidates"] == 1 + 2 * (81 + 4)


def signed_search_case(seed, kind, restarts, cover):
    """A random lifted design, residual and projected-gradient config, and the
    cover cache and searched signs ``inner_maximize`` uses for them.  With
    ``cover`` False the configured cover is over the cap, so the search
    falls back to the vertex cover."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(8, 60)), int(rng.integers(1, 4))
    X = np.hstack([rng.uniform(-1, 1, size=(n, d)), np.ones((n, 1))])
    R = rng.normal(size=n)
    act = Activation(kind)
    cfg = inner_config(
        activation=kind,
        strategy="projected-gradient",
        restarts=restarts,
        cover_cap=10**6 if cover else 1,
    )
    cache = greedy._cover_cache_for(X, act, cfg)
    signs = (1, -1) if greedy._searches_both_signs(act) else (1,)
    # 1e-12 relative to mean|R| lam max|x|, which bounds every |value|
    # since phi is 1-Lipschitz with phi(0) = 0.
    tol = 1e-12 * np.abs(R).mean() * cfg.lam * np.abs(X).max()
    return X, R, act, cfg, cache, signs, tol


SIGNED_SEARCH_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["ramp", "sine", "tanh"]),
    restarts=st.integers(1, 8),
    cover=st.booleans(),
)


class TestBatchedAscent:
    """The restarts of both signs run as one blocked batch that matches the
    serial ascents, and one call matches one serial search per sign."""

    @given(**SIGNED_SEARCH_CASES)
    def test_matches_serial_oracle(self, seed, kind, restarts, cover):
        X, R, act, cfg, cache, signs, tol = signed_search_case(seed, kind, restarts, cover)
        with mock.patch.object(greedy, "_ascend_batch", wraps=greedy._ascend_batch) as batch:
            inner_maximize(R, X, cfg, cover_cache=cache)
        (_, _, _, batch_inits, batch_signs, _, step0), _ = batch.call_args

        # The serial searches: the same inits and signs, one ascent each.
        pairs = ascent_oracle.signed_inits(R, cfg, cache, signs)
        np.testing.assert_array_equal(batch_inits, np.array([theta0 for _, theta0 in pairs]))
        np.testing.assert_array_equal(batch_signs, [sign for sign, _ in pairs])
        assert step0 == ascent_oracle.step0(R, X)
        values, _ = greedy._ascend_batch(R, X, act, batch_inits, batch_signs, cfg.lam, step0)
        for (sign, theta0), batched in zip(pairs, values):
            score = ascent_oracle.score(sign * R, X, act)
            value, _ = ascent_oracle._ascend_projected(
                score, act, sign * R, X, theta0, cfg, step0
            )
            assert abs(batched - value) <= tol

    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["ramp", "sine", "tanh"]),
        rows=st.integers(1, 40),
        lam=st.floats(0.1, 10.0, allow_nan=False),
    )
    def test_matches_batched_oracle_bit_for_bit(self, seed, kind, rows, lam):
        # The earlier batched ascent, copied unchanged into the oracle, gives
        # the same bits: values, parameters and the signs of their zeros.
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(8, 60)), int(rng.integers(1, 5))
        X = np.hstack([rng.uniform(-1, 1, size=(n, d)), np.ones((n, 1))])
        R = rng.normal(size=n)
        act = Activation(kind)
        inits = rng.normal(scale=rng.uniform(0.01, 3.0), size=(rows, d + 1))
        inits[rng.random(inits.shape) < 0.2] = -0.0
        sign = rng.choice([-1.0, 1.0], size=rows)
        if rows > 1:
            sign[0] = -sign[-1]  # both signs in one batch
        step0 = ascent_oracle.step0(R, X)
        args = (R, X, act, inits, sign, lam, step0)
        frozen = [a.copy() for a in (R, X, inits, sign)]
        values, thetas = greedy._ascend_batch(*args)
        want_values, want_thetas = ascent_oracle._ascend_batch(*args)
        assert np.array_equal(values, want_values)
        assert np.array_equal(thetas, want_thetas)
        assert np.array_equal(np.signbit(thetas), np.signbit(want_thetas))
        for before, after in zip(frozen, (R, X, inits, sign)):
            assert np.array_equal(before, after)

    @given(**SIGNED_SEARCH_CASES)
    def test_signed_search_matches_two_sign_oracle(self, seed, kind, restarts, cover):
        X, R, act, cfg, cache, signs, tol = signed_search_case(seed, kind, restarts, cover)
        sign, value, theta, n_candidates = ascent_oracle.two_sign_search(
            R, X, cfg, cache, signs
        )
        # One block, then blocks of two rows: with an odd restart count a
        # block holds the last +R row and the first -R row.
        for cells in (greedy._BLOCK_CELLS, 2 * X.shape[0]):
            with mock.patch.object(greedy, "_BLOCK_CELLS", cells):
                res = inner_maximize(R, X, cfg, cover_cache=cache)
            # sign * phi(theta . x) is phi(sign * theta . x) for sine and tanh,
            # so there a tie between mirrored restarts may land on either sign.
            assert res.sign == sign or kind != "ramp"
            assert abs(res.value - value) <= tol
            np.testing.assert_allclose(res.sign * res.theta, sign * theta, rtol=0, atol=1e-6)
            assert res.diagnostics["n_candidates"] == n_candidates

    def test_blocks_bound_the_batch_width(self, monkeypatch):
        # restarts has no upper bound, so the batch is cut into blocks of at
        # most _BLOCK_CELLS // n rows; the ramp runs the 10 +R rows and then
        # the 10 -R rows, and one block holds both signs.
        rng = np.random.default_rng(2)
        n = 40
        X = np.hstack([rng.uniform(-1, 1, size=(n, 2)), np.ones((n, 1))])
        R = rng.normal(size=n)
        monkeypatch.setattr(greedy, "_BLOCK_CELLS", 3 * n)
        signs = []
        ascend = greedy._ascend_batch

        def recording(R, X, act, inits, sign, lam, step0):
            signs.append(sign.tolist())
            return ascend(R, X, act, inits, sign, lam, step0)

        monkeypatch.setattr(greedy, "_ascend_batch", recording)
        cfg = inner_config(strategy="projected-gradient", restarts=10)
        res = inner_maximize(R, X, cfg)
        assert [len(b) for b in signs] == [3, 3, 3, 3, 3, 3, 2]
        assert signs[3] == [1.0, -1.0, -1.0]
        assert sum(signs, []) == [1.0] * 10 + [-1.0] * 10
        # The zero unit, the 25 cover points of D = 3 per sign, the restarts.
        assert math.isfinite(res.diagnostics["cover_value"])
        assert res.diagnostics["n_candidates"] == 1 + 2 * 25 + 20

    def test_init_memory_does_not_grow_with_restarts(self, monkeypatch):
        # The inits are gathered from the cover block by block, so peak
        # memory is set by the block, not by restarts.  Over the cap the
        # cover is the vertex cover, K = 2D + 1 = 4001 rows, and restarts
        # above K stop at K; the cache is built first, so its O(D^2) rows
        # do not count as init memory.
        rng = np.random.default_rng(4)
        n, D = 16, 2000
        K = 2 * D + 1
        X = rng.uniform(-1, 1, size=(n, D))
        R = rng.normal(size=n)
        monkeypatch.setattr(greedy, "_BLOCK_CELLS", 16 * (D + 1))
        monkeypatch.setattr(
            greedy,
            "_ascend_batch",
            lambda R, X, act, inits, sign, lam, step0: (np.zeros(inits.shape[0]), inits),
        )
        cache = greedy._cover_cache_for(
            X, Activation("ramp"), inner_config(strategy="projected-gradient")
        )
        assert (cache.cover.n_distinct, cache.cover.d) == (K, D)

        def peak(restarts):
            cfg = inner_config(strategy="projected-gradient", restarts=restarts)
            tracemalloc.start()
            try:
                res = inner_maximize(R, X, cfg, cover_cache=cache)
                _, peak_bytes = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert res.diagnostics["n_candidates"] == 1 + 2 * (K + min(restarts, K))
            return peak_bytes

        small, large = peak(100), peak(5000)
        # 4001 restarts per sign at D = 2000 would take 128 MB as one
        # (2K, D) array of inits.
        assert large < 2 * small < 4 * 2**20


def cosine_fit_data(d, n=1024, seed=7):
    """The CLI ``fit`` data: one cosine atom along (1, -1, 0.5, 0.5, 0, ...),
    gaussian noise of scale 0.5."""
    freqs = np.zeros((1, d))
    freqs[0, :4] = [1.0, -1.0, 0.5, 0.5]
    target = SpectralTarget(freqs=freqs, amps=np.array([1.0]), phases=np.array([0.0]))
    return gen_dataset(target, n, d, Noise("gaussian", 0.5), seed)


def ascent_config(kind, m_max):
    return GreedyConfig(
        lam=2.0,
        m_max=m_max,
        activation=kind,
        w=w_linear(),
        strategy="projected-gradient",
        restarts=8,
    )


class TestStepRule:
    """The step doubles on acceptance and the ascent stops after _PG_STEPS
    iterations: its searches are as good as the earlier halving-only rule's
    200 iterations, and the ascent stays within its cap."""

    @pytest.mark.parametrize("d", [16, 64])
    @pytest.mark.parametrize("kind", ["ramp", "sine", "tanh"])
    def test_searches_no_worse_than_halving_rule(self, kind, d):
        # The batches of the first four steps of a pursuit: 8 restarts per
        # sign from the top cover points of the step's residual.
        with mock.patch.object(greedy, "_ascend_batch", wraps=greedy._ascend_batch) as batch:
            fit_lpgp(cosine_fit_data(d), ascent_config(kind, m_max=4))
        assert batch.call_count == 4
        got, want = [], []
        for call in batch.call_args_list:
            got.append(greedy._ascend_batch(*call.args)[0].max())
            want.append(ascent_oracle._ascend_halving(*call.args)[0].max())
        got, want = np.array(got), np.array(want)
        assert np.all(want > 0)
        assert np.all(got >= (1 - 1e-5) * want)
        assert got.mean() >= want.mean()

    def test_project_l1_calls_stay_within_the_cap(self):
        # The benchmark's projected-gradient fit (d = 16, n = 1024, m = 8,
        # 8 restarts per sign): each step runs one batch, with one
        # projection of its inits and at most one per iteration.
        cfg = ascent_config("ramp", m_max=8)
        with mock.patch.object(greedy, "project_l1", wraps=greedy.project_l1) as proj:
            path = fit_lpgp(cosine_fit_data(16, seed=100), cfg)
        assert len(path.records) == 8
        assert 8 <= proj.call_count <= 8 * (1 + greedy._PG_STEPS)


def ascent_rows(run):
    """Call ``run()`` and count the (row, iteration) pairs its ascents ran:
    every row ``greedy.project_l1`` saw, less each ``_ascend_batch`` call's
    projection of its inits (the projection runs nowhere else)."""
    with mock.patch.object(greedy, "project_l1", wraps=greedy.project_l1) as proj:
        with mock.patch.object(greedy, "_ascend_batch", wraps=greedy._ascend_batch) as batch:
            result = run()
    projected = sum(call.args[0].shape[0] for call in proj.call_args_list)
    inits = sum(call.args[3].shape[0] for call in batch.call_args_list)
    return result, projected - inits


class TestSettledRows:
    """A row leaves the ascent once its value has gained at most _PG_TOL
    relative over its last _PG_WINDOW iterations: fits stay as good as with
    every row run to the cap, each row keeps its own frozen result, the
    window state does not grow with the cap, and the benchmark's fit runs
    well under the cap's row-iterations."""

    @pytest.mark.parametrize("d, seed", [(16, 100), (16, 101), (16, 102), (64, 100)])
    @pytest.mark.parametrize("kind", ["ramp", "sine", "tanh"])
    def test_train_mse_no_worse_than_capped_rule(self, kind, d, seed):
        # The benchmark's projected-gradient fit (m = 8, 8 restarts per sign).
        data, cfg = cosine_fit_data(d, seed=seed), ascent_config(kind, m_max=8)
        settled = fit_lpgp(data, cfg).records[-1].train_mse
        with mock.patch.object(greedy, "_ascend_batch", ascent_oracle._ascend_capped):
            capped = fit_lpgp(data, cfg).records[-1].train_mse
        assert settled <= 1.001 * capped

    def test_rows_freeze_on_their_own_in_input_order(self):
        # For the ramp, theta = 0 has a zero gradient: every candidate is
        # rejected, so that row settles after exactly _PG_WINDOW iterations
        # with value 0.  The other row climbs for longer, and wherever the
        # zero rows sit in the batch it ends as it does alone.
        rng = np.random.default_rng(3)
        n, w = 64, greedy._PG_WINDOW
        X = np.hstack([rng.uniform(-1, 1, size=(n, 3)), np.ones((n, 1))])
        R = rng.normal(size=n)
        act = Activation("ramp")
        climb = np.array([0.3, -0.2, 0.1, 0.05])
        step0 = ascent_oracle.step0(R, X)
        (alone_value, alone_theta), alone_rows = ascent_rows(
            lambda: greedy._ascend_batch(R, X, act, climb[None], np.ones(1), 2.0, step0)
        )
        assert w < alone_rows <= greedy._PG_STEPS
        for layout in ([0, 1], [1, 0], [0, 1, 0]):
            inits = np.where(np.array(layout)[:, None] == 1, climb, 0.0)
            (values, thetas), rows = ascent_rows(
                lambda: greedy._ascend_batch(R, X, act, inits, np.ones(len(layout)), 2.0, step0)
            )
            zero = np.array(layout) == 0
            assert rows == w * zero.sum() + alone_rows
            assert np.all(values[zero] == 0.0) and np.all(thetas[zero] == 0.0)
            assert values[~zero][0] == pytest.approx(alone_value[0], rel=1e-12)
            np.testing.assert_allclose(thetas[~zero][0], alone_theta[0], rtol=0, atol=1e-12)

    def test_window_state_does_not_grow_with_the_cap(self, monkeypatch):
        # Many rows on a short design, so per-row state dominates: a history
        # of every iteration would take (steps + 1) * k * 8 bytes.
        rng = np.random.default_rng(6)
        n, k = 8, 400
        X = np.hstack([rng.uniform(-1, 1, size=(n, 2)), np.ones((n, 1))])
        R = rng.normal(size=n)
        inits = rng.normal(size=(k, 3))
        args = (R, X, Activation("tanh"), inits, np.ones(k), 2.0, ascent_oracle.step0(R, X))
        greedy._ascend_batch(*args)  # warm up numpy's caches

        def peak(steps):
            monkeypatch.setattr(greedy, "_PG_STEPS", steps)
            tracemalloc.start()
            try:
                greedy._ascend_batch(*args)
                _, peak_bytes = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak_bytes

        small, large = peak(50), peak(1000)
        assert large < small + 50 * k * 8

    def test_benchmark_fit_runs_under_the_cap(self):
        # The benchmark's ramp fit: 8 steps, each one batch of 8 restarts
        # per sign, at most _PG_STEPS iterations per row.
        cfg = ascent_config("ramp", m_max=8)
        path, rows = ascent_rows(lambda: fit_lpgp(cosine_fit_data(16, seed=100), cfg))
        assert len(path.records) == 8
        assert 0 < rows <= 0.7 * 16 * 50 * 8

    def test_exhaustive_search_runs_no_ascent(self):
        cfg = GreedyConfig(lam=2.0, m_max=3)
        _, rows = ascent_rows(lambda: fit_lpgp(cosine_fit_data(4, n=256), cfg))
        assert rows == 0


def direct_decisions(R, cache, signs, restarts):
    """The decisions of a step taken from the float64 score of every cover
    unit: the exhaustive (value, sign, index) over the zero unit and each
    sign's first strict argmax, the best signed cover score, and the
    projected-gradient seeds, each sign's stable top ``restarts``."""
    exact = ascent_oracle.exact_scores(R, cache)
    best, cover_value, seeds = (0.0, 1, None), -math.inf, []
    for sign in signs:
        score = sign * exact
        j = int(np.argmax(score))
        cover_value = max(cover_value, float(score[j]))
        if score[j] > best[0]:
            best = (float(score[j]), sign, j)
        seeds.append(np.argsort(-score, kind="stable")[:restarts])
    return best, cover_value, np.concatenate(seeds)


def assert_exact_decisions(R, X, cache, kind, lam, restarts_grid):
    """inner_maximize takes every decision as a direct float64 search does."""
    act = Activation(kind)
    signs = (1, -1) if greedy._searches_both_signs(act) else (1,)
    K = cache.cover.n_distinct
    tol = 1e-12 * np.abs(R).mean() * max(1.0, lam * np.abs(X).max())
    (value, sign, j), cover_value, _ = direct_decisions(R, cache, signs, 1)
    cfg = inner_config(activation=kind, lam=lam, strategy="cover-exhaustive")
    res = inner_maximize(R, X, cfg, cover_cache=cache)
    assert res.value == pytest.approx(value, rel=0, abs=tol)
    assert res.diagnostics["cover_value"] == pytest.approx(cover_value, rel=0, abs=tol)
    assert res.sign == sign
    np.testing.assert_array_equal(res.theta, 0.0 if j is None else cache.cover.thetas[j])
    for restarts in restarts_grid:
        count = min(restarts, K)
        *_, seeds = direct_decisions(R, cache, signs, count)
        inits = []

        def recording(R, X, act, theta0, sign, lam, step0):
            inits.append(theta0.copy())
            return np.zeros(theta0.shape[0]), theta0

        cfg = inner_config(
            activation=kind, lam=lam, strategy="projected-gradient", restarts=restarts
        )
        with mock.patch.object(greedy, "_ascend_batch", recording):
            inner_maximize(R, X, cfg, cover_cache=cache)
        np.testing.assert_array_equal(np.concatenate(inits), cache.cover.thetas[seeds])


def score_cover(R, cache):
    """``_score_cover`` with ||R||_1 computed as ``inner_maximize`` computes it."""
    return greedy._score_cover(R, cache, float(np.abs(R).sum()))


class TestSharedCoverScores:
    """Each step scores the cover once, approximately, from the float32 half
    cache; the -R scores are the negated +R ones, and the float64 re-scores
    of the units the error bound cannot rule out take every decision."""

    @pytest.mark.parametrize("kind", ["ramp", "sine", "tanh"])
    def test_half_cache_scores_match_full_float64(self, kind):
        # The risk-c8 shape, n = 4096 and K = 8581; every cover unit is
        # scored here directly in float64.
        rng = np.random.default_rng(11)
        n, d = 4096, 64
        X = np.hstack([rng.uniform(-1, 1, size=(n, d)), np.ones((n, 1))])
        R = rng.normal(size=n)
        act = Activation(kind)
        cache = greedy._build_cover_cache(X, act, m_grid=2, lam=2.0, cap=10**6)
        K = cache.cover.n_distinct
        assert K == 8581
        # Unit-major blocks of _SCORE_ROWS = 1024 design rows.
        assert [block.shape for block in cache.values] == [(K // 2, 1024)] * 4
        assert all(block.dtype == np.float32 for block in cache.values)
        assert sum(block.nbytes for block in cache.values) == n * (K // 2) * 4
        direct = ascent_oracle.exact_scores(R, cache)
        scores, err = score_cover(R, cache)
        assert 0.0 < err < 1e-4 * np.abs(R).mean() * 2.0
        assert np.abs(scores - direct).max() <= err
        assert_exact_decisions(R, X, cache, kind, 2.0, [1, 32])

    def test_cover_scored_once_per_step(self, rng, monkeypatch):
        calls = []
        score = greedy._score_cover
        monkeypatch.setattr(
            greedy, "_score_cover", lambda R, cache, r_l1: calls.append(1) or score(R, cache, r_l1)
        )
        data, _ = sine_cover_target(rng)
        fit_lpgp(data, GreedyConfig(lam=2.0, m_max=5))
        assert len(calls) == 5


class TestCertifiedScores:
    """The approximate scores stay within their certified bound, and the
    re-scored set holds every unit a decision can need."""

    @pytest.mark.parametrize("kind", ["ramp", "sine", "tanh"])
    @pytest.mark.parametrize("design", ["uniform", "gaussian"])
    @pytest.mark.parametrize("lam", [0.5, 2.0, 1e6])
    def test_small_designs(self, kind, design, lam, monkeypatch):
        sets = []
        rescore = greedy._rescore_cover
        monkeypatch.setattr(
            greedy,
            "_rescore_cover",
            lambda R, cache, idx: sets.append(idx) or rescore(R, cache, idx),
        )
        # Two designs fit one float32 partial sum; two take several, and a
        # shorter last one.
        for seed, n in enumerate((37, 700, 1324, 2053)):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(1, 4))
            if design == "uniform":
                draw = rng.uniform(-1, 1, size=(n, d))
            else:
                draw = rng.normal(size=(n, d))
            X = np.hstack([draw, np.ones((n, 1))])
            R = rng.normal(size=n)
            cache = greedy._build_cover_cache(X, Activation(kind), m_grid=2, lam=lam, cap=10**6)
            K = cache.cover.n_distinct
            scores, err = score_cover(R, cache)
            exact = ascent_oracle.exact_scores(R, cache)
            assert np.abs(scores - exact).max() <= err
            sets.clear()
            assert_exact_decisions(R, X, cache, kind, lam, [1, 5, K, K + 7])
            if kind != "ramp" and lam == 1e6:
                # sin and tanh of arguments up to 1e6 * max|x|.  Float32 sine
                # carries no information there, and the bound covers every
                # score, so every unit is re-scored.  tanh saturates at +-1,
                # where its float32 values are within a few ulp: the bound
                # may leave a unit out of the exhaustive re-score, but only
                # one it certifies out (its approximate score plus err below
                # the best approximate score minus err), and every unit whose
                # exact score is within 2 err of the best is re-scored.
                left = np.setdiff1d(np.arange(K), sets[0])
                assert kind == "tanh" or left.size == 0
                assert np.all(scores[left] + err < scores.max() - err)
                near = np.flatnonzero(exact >= exact.max() - 2.0 * err)
                assert np.isin(near, sets[0]).all()
            assert sets[-1].shape[0] == K  # restarts >= K take every unit

    @pytest.mark.parametrize("kind", ["ramp", "sine", "tanh"])
    @pytest.mark.parametrize("lam", [2.0, 1.7, 0.3])
    @pytest.mark.parametrize("m_grid", [1, 2, 3, 4])
    @pytest.mark.parametrize("scale", [1.0, 1e-39])
    def test_cached_values_within_value_bound(self, kind, lam, m_grid, scale):
        # Each cached value, built from the scaled design columns, is within
        # ``_value_error`` of phi(theta . x) for its float64 cover row; the
        # float64 reference adds its own rounding.  Entries at and next to
        # +-1, and entries near the float32 underflow range (scale 1e-39,
        # next to the constant bias column); n spans two blocks.
        rng = np.random.default_rng(m_grid)
        n, d = 1100, 3
        draw = rng.uniform(-1, 1, size=(n, d))
        draw[:6] = np.array([1.0, -1.0, np.nextafter(1.0, 0.0)])[rng.integers(0, 3, size=(6, d))]
        X = np.hstack([draw * scale, np.ones((n, 1))])
        act = Activation(kind)
        cache = greedy._build_cover_cache(X, act, m_grid=m_grid, lam=lam, cap=10**6)
        half = cache.cover.n_distinct // 2
        cached = np.hstack(cache.values).astype(np.float64)
        exact = act(cache.cover.rows(np.arange(half)) @ X.T)
        xmax = float(np.abs(X).max())
        bound, _ = greedy._value_error(m_grid, lam, xmax, act)
        reference = greedy._gamma(d + 3, 2.0**-53) * lam * xmax + greedy._ACT_ULPS * 2.0**-52
        assert np.abs(cached - exact).max() <= bound + reference

    @pytest.mark.parametrize("kind", ["ramp", "sine", "tanh"])
    @pytest.mark.parametrize("lam, r_scale", [(1e-40, 1.0), (2.0, 1e-44), (2.0, 1e-310)])
    def test_underflow(self, kind, lam, r_scale, monkeypatch):
        # lam = 1e-40 makes the float32 cover rows and values subnormal, and
        # R of 1e-44 (1e-310) is subnormal in float32 (float64): rounding
        # there has an absolute error that a relative bound misses.
        sizes = []
        rescore = greedy._rescore_cover
        monkeypatch.setattr(
            greedy,
            "_rescore_cover",
            lambda R, cache, idx: sizes.append(idx.shape[0]) or rescore(R, cache, idx),
        )
        for seed, n in enumerate((37, 700, 1324)):
            rng = np.random.default_rng(seed)
            X = np.hstack([rng.uniform(-1, 1, size=(n, 2)), np.ones((n, 1))])
            R = rng.normal(size=n) * r_scale
            cache = greedy._build_cover_cache(X, Activation(kind), m_grid=2, lam=lam, cap=10**6)
            K = cache.cover.n_distinct
            scores, err = score_cover(R, cache)
            assert np.abs(scores - ascent_oracle.exact_scores(R, cache)).max() <= err
            sizes.clear()
            assert_exact_decisions(R, X, cache, kind, lam, [1, 5])
            assert sizes[0] == K  # the scores sit below the underflow floor

    def test_rescore_does_not_depend_on_the_set(self, monkeypatch):
        # A unit's float64 score is bit-identical whichever units share its
        # call or block, so every re-scored set takes the same decisions.
        rng = np.random.default_rng(6)
        n = 1000
        X = np.hstack([rng.uniform(-1, 1, size=(n, 8)), np.ones((n, 1))])
        R = rng.normal(size=n)
        for kind in ("ramp", "sine"):
            cache = greedy._build_cover_cache(X, Activation(kind), m_grid=2, lam=2.0, cap=10**6)
            K = cache.cover.n_distinct
            full = ascent_oracle.exact_scores(R, cache)
            for k in (1, 2, 3, 17, 150, K):
                idx = np.sort(rng.choice(K, size=k, replace=False))
                np.testing.assert_array_equal(greedy._rescore_cover(R, cache, idx), full[idx])
                with monkeypatch.context() as m:
                    m.setattr(greedy, "_BLOCK_CELLS", 7 * n)
                    np.testing.assert_array_equal(greedy._rescore_cover(R, cache, idx), full[idx])

    def test_nonfinite_approximation_rescores_everything(self, monkeypatch):
        # -1e39 overflows float32: the vertex row -x~_0 is +inf, so the
        # cached values of the -e_0 units are not finite and every unit is
        # re-scored in float64, silently.  At +1e39 no unit of the cached
        # half adds +x~_0 (its first nonzero entry is negative): the values
        # stay finite, within the bound of the float64 scores.
        rng = np.random.default_rng(3)
        n = 50
        X = np.hstack([rng.uniform(-1, 1, size=(n, 2)), np.ones((n, 1))])
        R = rng.normal(size=n)
        sizes = []
        rescore = greedy._rescore_cover
        monkeypatch.setattr(
            greedy,
            "_rescore_cover",
            lambda R, cache, idx: sizes.append(idx.shape[0]) or rescore(R, cache, idx),
        )
        for big in (-1e39, 1e39):
            X[0, 0] = big
            sizes.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cache = greedy._build_cover_cache(
                    X, Activation("ramp"), m_grid=2, lam=2.0, cap=10**6
                )
                scores, err = score_cover(R, cache)
                K = cache.cover.n_distinct
                if big < 0:
                    assert not np.isfinite(scores).all()
                    np.testing.assert_array_equal(
                        greedy._rescore_set(scores, err, 1, True), np.arange(K)
                    )
                else:
                    assert np.abs(scores - ascent_oracle.exact_scores(R, cache)).max() <= err
                    sizes.clear()
                assert_exact_decisions(R, X, cache, "ramp", 2.0, [3])
            assert big > 0 or sizes == [K] * 2

    @pytest.mark.parametrize("kind", ["sine", "tanh"])
    def test_float32_activation_within_allowance(self, kind):
        # The bound allows _ACT_ULPS float32 spacings at 1 for numpy's
        # float32 sine and tanh, and values in [-1, 1].
        rng = np.random.default_rng(9)
        act = Activation(kind)
        u = np.concatenate(
            [rng.uniform(-s, s, size=100_000) for s in (1e-3, 1.0, 10.0, 1e3, 1e6, 1e12)]
        ).astype(np.float32)
        approx = act(u)
        assert approx.dtype == np.float32 and np.abs(approx).max() <= 1.0
        err = np.abs(approx.astype(np.float64) - act(u.astype(np.float64)))
        assert err.max() <= greedy._ACT_ULPS * 2.0**-23

    @pytest.mark.parametrize("kind", ["ramp", "sine", "tanh"])
    def test_huge_lam_fit_matches_full_rescore(self, kind, monkeypatch):
        # The CLI setup lam = 1e12, d = 4 (see test_cli's -W error run): the
        # certified path chooses the units a float64 search of every cover
        # unit chooses.  For sine and tanh the bound covers every score
        # there; ramp scores scale with lam, and so does the bound.
        rng = np.random.default_rng(21)
        X = rng.uniform(-1, 1, size=(200, 4))
        data = make_dataset(X, np.cos(X @ np.array([1.0, -1.0, 0.5, 0.5])))
        cfg = GreedyConfig(lam=1e12, m_max=8, activation=kind)
        sizes = []
        rescore = greedy._rescore_cover
        monkeypatch.setattr(
            greedy,
            "_rescore_cover",
            lambda R, cache, idx: sizes.append(idx.shape[0]) or rescore(R, cache, idx),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            path = fit_lpgp(data, cfg)
        if kind != "ramp":
            assert sizes == [61] * cfg.m_max  # K for d + 1 = 5, m_grid = 2
        with mock.patch.object(
            greedy, "_rescore_set", lambda scores, err, top, both: np.arange(scores.shape[0])
        ):
            full = fit_lpgp(data, cfg)
        for rec, ref in zip(path.records, full.records, strict=True):
            (_, unit), (_, ref_unit) = rec.model.terms[-1], ref.model.terms[-1]
            np.testing.assert_array_equal(unit.theta, ref_unit.theta)
            assert unit.sign == ref_unit.sign
            assert (rec.alpha, rec.beta, rec.train_mse) == (ref.alpha, ref.beta, ref.train_mse)
            assert rec.inner_value == pytest.approx(ref.inner_value, rel=1e-12)


# ---------------------------------------------------------------------------
# Line search
# ---------------------------------------------------------------------------


class TestLineSearch:
    def test_exact_fit_beta_one(self, rng):
        X = rng.uniform(-1, 1, size=(40, 2))
        h = RidgeUnit(Activation("sine"), np.array([1.0, 0.5, 0.0]))
        Y = np.asarray(eval_unit(h, X))
        alpha, beta, obj = line_search(np.zeros(40), eval_unit(h, X), Y, 0.0, w_linear())
        assert beta == pytest.approx(1.0, rel=1e-12)
        assert obj <= 1e-12

    def test_soft_threshold_kills_weight(self, rng):
        X = rng.uniform(-1, 1, size=(50, 2))
        h = RidgeUnit(Activation("sine"), np.array([0.8, -0.3, 0.1]))
        Y = rng.normal(size=50)
        H = np.asarray(eval_unit(h, X))
        corr = float(Y @ H) / 50
        if corr < 0:
            Y = -Y
            corr = -corr
        rate = 2.5 * corr
        alpha, beta, obj = line_search(np.zeros(50), H, Y, 0.0, w_linear(rate))
        assert beta == 0.0
        assert alpha == 0.0
        assert obj == pytest.approx(float(Y @ Y) / 50, rel=1e-12)

    def test_already_optimal_returns_origin(self, rng):
        X = rng.uniform(-1, 1, size=(30, 2))
        f_prev = RidgeModel(
            terms=[(0.8, RidgeUnit(Activation("sine"), np.array([1.0, -0.5, 0.2])))]
        )
        Y = np.asarray(f_prev(X))
        h = RidgeUnit(Activation("sine"), np.array([0.0, 1.0, 0.5]))
        alpha, beta, obj = line_search(f_prev(X), eval_unit(h, X), Y, f_prev.v, w_linear())
        assert alpha == 0.0
        assert beta == 0.0
        assert obj <= 1e-28

    def test_never_worse_than_keeping_previous(self, rng):
        for w in (w_linear(0.3), w_power(0.2), w_custom(CUSTOM_POINTS)):
            X = rng.uniform(-1, 1, size=(40, 2))
            f_prev = RidgeModel(
                terms=[(0.5, RidgeUnit(Activation("tanh"), np.array([0.7, 0.2, -0.1])))]
            )
            Y = rng.normal(size=40)
            h = RidgeUnit(Activation("sine"), np.array([0.3, -0.9, 0.4]))
            F = np.asarray(f_prev(X))
            origin = float((Y - F) @ (Y - F)) / 40 + w(f_prev.v)
            _, _, obj = line_search(F, eval_unit(h, X), Y, f_prev.v, w)
            assert obj <= origin + 1e-15

    def test_tiny_power_rate_matches_unpenalized(self, rng):
        # rate * s^(4/3) is below rounding for any mass here, so the step is
        # the unpenalized one; the cubic's linear term underflows.
        F, H = rng.normal(size=(2, 40))
        Y = 0.6 * F + 0.8 * H + rng.normal(scale=0.1, size=40)
        alpha, beta, obj = line_search(F, H, Y, 0.7, w_power(1e-300))
        alpha0, beta0, obj0 = line_search(F, H, Y, 0.7, w_linear())
        assert alpha == pytest.approx(alpha0, rel=1e-9) and beta == pytest.approx(beta0, rel=1e-9)
        assert obj == pytest.approx(obj0, rel=1e-12)

    def test_matches_dense_grid_minimum(self, rng):
        # 101 x 101 (alpha, beta) grid: the returned objective is within 1e-6
        # of the grid's best for every penalty kind.
        for w in (w_linear(0.25), w_power(0.15), w_custom(CUSTOM_POINTS)):
            n = 60
            X = rng.uniform(-1, 1, size=(n, 2))
            sine = Activation("sine")
            f_prev = RidgeModel(
                terms=[
                    (0.4, RidgeUnit(sine, np.array([1.0, 0.3, -0.2]))),
                    (0.3, RidgeUnit(sine, np.array([-0.5, 0.8, 0.1]))),
                ]
            )
            h = RidgeUnit(Activation("tanh"), np.array([0.6, -0.6, 0.3]))
            Y = np.asarray(f_prev(X)) + rng.normal(scale=0.4, size=n)
            F, H = np.asarray(f_prev(X)), np.asarray(eval_unit(h, X))
            _, _, obj = line_search(F, H, Y, f_prev.v, w)

            corr = abs(float(Y @ H)) / n
            h_sq = float(H @ H) / n
            betas = np.linspace(0.0, 2.0 * (corr / h_sq + 1.0), 101)
            alphas = np.linspace(0.0, 1.0, 101)
            A = alphas[:, None]
            Bv = betas[None, :]
            resid_sq = (
                float(Y @ Y)
                - 2.0 * (1.0 - A) * float(Y @ F)
                - 2.0 * Bv * float(Y @ H)
                + (1.0 - A) ** 2 * float(F @ F)
                + 2.0 * (1.0 - A) * Bv * float(F @ H)
                + Bv**2 * float(H @ H)
            ) / n
            grid_obj = resid_sq + w((1.0 - A) * f_prev.v + Bv)
            assert obj <= grid_obj.min() + 1e-6, w.kind


ORACLE_PENALTIES = (
    w_linear(0.0),
    w_linear(0.3),
    w_power(0.2),
    w_power(1e-3),
    w_power(50.0),
    w_custom(CUSTOM_POINTS),
    w_custom([(0.0, 0.5), (1.0, 0.2), (3.0, 1.0)]),  # falls, then rises
    w_custom([(0.5, 0.5), (1.5, 0.6), (2.0, 1.5)]),  # first knot above 0
)
LINE_SEARCH_CASES = ("generic", "h_zero", "f_zero", "h_parallel_f", "y_equals_f")


def random_unit(rng):
    kind = ("ramp", "sine", "tanh")[int(rng.integers(3))]
    return RidgeUnit(Activation(kind), rng.normal(size=3), sign=int(rng.choice([-1, 1])))


class TestLineSearchOracle:
    """The exact line search against the nested-search oracle it replaced."""

    @settings(max_examples=150)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(5, 40),
        case=st.sampled_from(LINE_SEARCH_CASES),
        w=st.sampled_from(ORACLE_PENALTIES),
    )
    def test_matches_or_beats_oracle(self, seed, n, case, w):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, size=(n, 2))
        h = random_unit(rng)
        f_prev = RidgeModel(
            terms=[(float(rng.exponential(0.5)), random_unit(rng)) for _ in range(2)]
        )
        if case == "h_zero":
            h = RidgeUnit(Activation("tanh"), np.zeros(3))
        elif case == "f_zero":
            f_prev = RidgeModel()
        elif case == "h_parallel_f":  # the same unit picked again
            f_prev = RidgeModel(terms=[(float(rng.exponential(1.0)), h)])
        F, H = np.asarray(f_prev(X)), np.asarray(eval_unit(h, X))
        Y = F.copy() if case == "y_equals_f" else F + rng.normal(scale=1.5, size=n)

        alpha, beta, obj = line_search(F, H, Y, f_prev.v, w)
        _, _, oracle_obj = oracle_line_search(f_prev, h, Y, X, w)

        def direct(a, b):
            resid = Y - (1.0 - a) * F - b * H
            return float(resid @ resid) / n + float(w((1.0 - a) * f_prev.v + b))

        assert 0.0 <= alpha <= 1.0 and beta >= 0.0
        assert obj == pytest.approx(direct(alpha, beta), abs=1e-12)
        assert direct(alpha, beta) <= oracle_obj + 1e-12
        assert direct(alpha, beta) <= direct(0.0, 0.0) + 1e-12

    def test_works_from_inner_products_alone(self, rng, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("line_search evaluated a model")

        monkeypatch.setattr(RidgeUnit, "evaluate_lifted", forbidden)
        monkeypatch.setattr(RidgeModel, "evaluate", forbidden)
        F, H, Y = rng.normal(size=(3, 30))
        for w in ORACLE_PENALTIES:
            line_search(F, H, Y, 0.7, w)


def float_bits(x):
    """A float's type and its IEEE bytes: equal bits, signed zeros included."""
    return type(x), struct.pack("<d", x)


FROZEN_CASES = ("generic", "f_zero", "h_zero", "all_zero", "y_equals_f", "h_equals_f")


class TestLineSearchFrozen:
    """The line search against its frozen copy in ``path_oracle``, bit for bit,
    with and without the residual and R . R / n that ``fit_lpgp`` passes."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        case=st.sampled_from(FROZEN_CASES),
        w=st.sampled_from(ORACLE_PENALTIES),
        v=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    # rate * ds underflows to 0 on the alpha edge, where a1 is 0 too.
    @example(seed=0, n=1, case="f_zero", w=w_power(0.2), v=5e-324, scale=1e-3)
    def test_matches_frozen_copy(self, seed, n, case, w, v, scale):
        rng = np.random.default_rng(seed)
        F, H, Y = scale * rng.normal(size=(3, n))
        if case in ("f_zero", "all_zero"):  # alpha = 0 and alpha = 1 tie when v = 0
            F = np.zeros(n)
        if case in ("h_zero", "all_zero"):  # beta moves nothing but the mass
            H = np.zeros(n)
        if case == "all_zero":
            Y = np.zeros(n)
        if case == "y_equals_f":  # R = 0: (0, 0) ties with the alpha = 0 edge's minimizer
            Y = F.copy()
        if case == "h_equals_f":
            H = F.copy()
        want = [float_bits(x) for x in path_oracle.line_search(F, H, Y, v, w)]
        R = Y - F
        for kwargs in ({}, {"R": R, "rr": float(R @ R) / n}):
            got = line_search(F, H, Y, v, w, **kwargs)
            assert [float_bits(x) for x in got] == want

    @pytest.mark.parametrize("w", ORACLE_PENALTIES)
    def test_exact_ties_at_the_origin(self, w):
        # Everything zero: every candidate's loss is 0, so candidates tie
        # wherever w does; with w = 0 all of them tie, and (0, 0) wins.
        zeros = np.zeros(8)
        for v in (0.0, 0.5, 2.0):
            got = line_search(zeros, zeros, zeros, v, w)
            want = path_oracle.line_search(zeros, zeros, zeros, v, w)
            assert [float_bits(x) for x in got] == [float_bits(x) for x in want]
            if w == w_linear(0.0):
                assert got == (0.0, 0.0, 0.0)


class TestPowerStationarity:
    """Power w: the closed-form root meets the first-order conditions to rounding."""

    RATE = 0.1

    def gradient(self, F, H, Y, v, alpha, beta):
        """d/dalpha and d/dbeta of the objective, each with the sum of its terms' sizes."""
        n = Y.shape[0]
        resid = Y - (1.0 - alpha) * F - beta * H
        dw = 4.0 / 3.0 * self.RATE * ((1.0 - alpha) * v + beta) ** (1.0 / 3.0)
        d_alpha = (2.0 * float(resid @ F) / n, -v * dw)
        d_beta = (-2.0 * float(resid @ H) / n, dw)
        return [(sum(t), sum(map(abs, t))) for t in (d_alpha, d_beta)]

    def case(self, seed, f_scale):
        rng = np.random.default_rng(seed)
        F, H = rng.normal(size=(2, 40))
        Y = f_scale * F + 0.8 * H + rng.normal(scale=0.1, size=40)
        return F, H, Y, float(rng.uniform(0.5, 1.0))

    @pytest.mark.parametrize("seed", range(5))
    def test_alpha_zero_edge(self, seed):
        # Y carries more of F than f_prev does, so shrinking f_prev never pays.
        F, H, Y, v = self.case(seed, f_scale=1.5)
        alpha, beta, _ = line_search(F, H, Y, v, w_power(self.RATE))
        assert alpha == 0.0 and beta > 0.0
        (g_alpha, _), (g_beta, size) = self.gradient(F, H, Y, v, alpha, beta)
        assert g_alpha > 0.0
        assert abs(g_beta) <= 1e-12 * size

    @pytest.mark.parametrize("seed", range(5))
    def test_valley_point(self, seed):
        F, H, Y, v = self.case(seed, f_scale=0.6)
        alpha, beta, _ = line_search(F, H, Y, v, w_power(self.RATE))
        assert 0.0 < alpha < 1.0 and beta > 0.0
        for g, size in self.gradient(F, H, Y, v, alpha, beta):
            assert abs(g) <= 1e-12 * size


# ---------------------------------------------------------------------------
# The pursuit
# ---------------------------------------------------------------------------


def make_dataset(X, Y):
    return Dataset(X=X, Y=Y)


def sine_cover_target(rng, n=150, d=3):
    """Noiseless data from 3 cover units (sine, lifted m_grid=2 elements)."""
    thetas = [
        np.array([1.0, 1.0, 0.0, 0.0]),
        np.array([0.0, 1.0, 1.0, 0.0]),
        np.array([2.0, 0.0, 0.0, 0.0]),
    ]
    betas = [0.5, 0.4, 0.3]
    sine = Activation("sine")
    fstar = RidgeModel(
        terms=[(b, RidgeUnit(sine, th)) for b, th in zip(betas, thetas)]
    )
    X = rng.uniform(-1, 1, size=(n, d))
    return make_dataset(X, np.asarray(fstar(X))), fstar


class TestFitLpgp:
    def test_restarts_run_on_the_calling_thread(self, rng, monkeypatch):
        # Every restart runs on the caller's thread: no pool over the restarts.
        threads = set()
        ascend = greedy._ascend_batch

        def recording(*args, **kwargs):
            threads.add(threading.get_ident())
            return ascend(*args, **kwargs)

        monkeypatch.setattr(greedy, "_ascend_batch", recording)
        X = rng.uniform(-1, 1, size=(40, 2))
        cfg = GreedyConfig(lam=2.0, m_max=2, strategy="projected-gradient", restarts=4)
        fit_lpgp(make_dataset(X, np.sin(2 * X[:, 0])), cfg)
        assert threads == {threading.get_ident()}

    @pytest.mark.parametrize(
        "kind, kwargs, per_step",
        [
            ("sine", dict(strategy="cover-exhaustive"), 1),
            ("tanh", dict(strategy="cover-exhaustive"), 1),
            ("sine", dict(strategy="projected-gradient", restarts=8), 1),
            ("tanh", dict(strategy="projected-gradient", restarts=8), 1),
            ("tanh", dict(strategy="projected-gradient", restarts=3, cover_m_grid=3), 1),
            ("ramp", dict(strategy="projected-gradient", restarts=8), 2),
            ("sine", dict(strategy="projected-gradient", restarts=8, cover_cap=1), 1),
        ],
    )
    def test_odd_activation_with_cover_searches_one_sign(self, kind, kwargs, per_step, monkeypatch):
        # One search per step.  For sine and tanh the -R search mirrors the
        # +R one and never wins, also from the vertex cover that projected
        # gradient falls back to over the cap, so its rows are skipped and each
        # batch holds `restarts` rows, not 2 * restarts; the path is
        # byte-identical to the run that searches both signs.  A batch row
        # can move in the last bit with the batch height, so that run puts
        # each sign in its own block, where the +R rows run as they do alone.
        rng = np.random.default_rng(21)
        X = rng.uniform(-1, 1, size=(120, 3))
        Y = np.sin(2.0 * X[:, 0] - X[:, 1]) + 0.3 * rng.normal(size=120)
        data = make_dataset(X, Y)
        cfg = GreedyConfig(lam=2.0, m_max=6, activation=kind, **kwargs)
        calls, rows = [], []
        search, ascend = greedy.inner_maximize, greedy._ascend_batch

        def counting(*args, **kw):
            calls.append(1)
            return search(*args, **kw)

        def recording(R, X, act, inits, sign, lam, step0):
            rows.append(len(sign))
            return ascend(R, X, act, inits, sign, lam, step0)

        monkeypatch.setattr(greedy, "inner_maximize", counting)
        monkeypatch.setattr(greedy, "_ascend_batch", recording)
        one = io.StringIO()
        write_path_csv(fit_lpgp(data, cfg), one)
        assert len(calls) == cfg.m_max
        batches = cfg.m_max if cfg.strategy == "projected-gradient" else 0
        assert rows == [per_step * cfg.restarts] * batches

        monkeypatch.setattr(greedy, "_searches_both_signs", lambda act: True)
        rows.clear()
        both = io.StringIO()
        write_path_csv(fit_lpgp(data, cfg), both)
        assert len(calls) == 2 * cfg.m_max
        assert rows == [2 * cfg.restarts] * batches
        if per_step == 1:
            monkeypatch.setattr(greedy, "_BLOCK_CELLS", cfg.restarts * X.shape[0])
            both = io.StringIO()
            write_path_csv(fit_lpgp(data, cfg), both)
        assert one.getvalue() == both.getvalue()

    @pytest.mark.parametrize(
        "kind, kwargs, signs",
        [
            ("ramp", dict(strategy="cover-exhaustive"), 2),
            ("ramp", dict(strategy="projected-gradient", restarts=4), 2),
            ("sine", dict(strategy="projected-gradient", restarts=4), 1),
        ],
    )
    def test_step_diagnostics_count_both_signs(self, kind, kwargs, signs):
        # n_candidates counts the zero unit, every cover score and every
        # restart of each searched sign; cover_value is the best signed
        # cover score of the step's residual.
        rng = np.random.default_rng(8)
        X = rng.uniform(-1, 1, size=(80, 2))
        data = make_dataset(X, np.cos(3.0 * X[:, 0]) - X[:, 1])
        cfg = GreedyConfig(lam=2.0, m_max=4, activation=kind, **kwargs)
        path = fit_lpgp(data, cfg)
        X_lift = greedy.lift(X)
        cache = greedy._cover_cache_for(X_lift, Activation(kind), cfg)
        K = cache.cover.n_distinct
        restarts = min(cfg.restarts, K) if cfg.strategy == "projected-gradient" else 0
        for m, rec in enumerate(path.records, start=1):
            assert rec.diagnostics["n_candidates"] == 1 + signs * (K + restarts)
            scores = ascent_oracle.exact_scores(data.Y - path.model_at(m - 1)(X), cache)
            assert rec.diagnostics["cover_value"] == pytest.approx(np.abs(scores).max(), rel=1e-12)

    def test_zero_steps_empty_path(self, rng):
        X = rng.uniform(-1, 1, size=(20, 2))
        path = fit_lpgp(make_dataset(X, rng.normal(size=20)), GreedyConfig(lam=2.0, m_max=0))
        assert path.records == ()
        assert path.final_model.n_terms == 0
        assert path.model_at(0).n_terms == 0

    def test_single_cover_unit_exact_fit_in_one_step(self, rng):
        # Y generated by the constant ramp cover unit (0,0,2) at weight 0.3:
        # the first step must fit it exactly.
        n = 60
        X = rng.uniform(-1, 1, size=(n, 2))
        Y = np.full(n, 0.6)
        path = fit_lpgp(
            make_dataset(X, Y), GreedyConfig(lam=2.0, m_max=3, w=w_linear())
        )
        assert path.records[0].train_mse <= 1e-28
        assert path.records[0].v_m == pytest.approx(0.3, rel=1e-14)
        for rec in path.records:
            assert rec.train_mse <= 1e-28
            assert rec.v_m == pytest.approx(0.3, rel=1e-14)

    def test_three_term_cover_target_guarantee(self, rng):
        # Noiseless f* spanned by 3 cover units, w == 0: per-step train error
        # obeys dist^2 <= 4 b_f / m with c = 1, both seeds.
        for seed in (0, 1):
            data, fstar = sine_cover_target(np.random.default_rng(100 + seed))
            cfg = GreedyConfig(lam=2.0, m_max=12, activation="sine", w=w_linear())
            path = fit_lpgp(data, cfg)
            for rec in path.records:
                assert rec.inner_value >= rec.diagnostics["cover_value"], (seed, rec.m)
            norm_fstar = math.sqrt(float(np.mean(np.asarray(data.Y) ** 2)))
            v_f = fstar.v
            for rec in path.records:
                rhs = greedy_bound_rhs(
                    0.0, v_f, norm_fstar, norm_fstar, 1.0, rec.m, cfg.w
                )
                assert rec.train_mse <= rhs + 1e-12, (seed, rec.m)

    def test_mass_recursion_identity(self, rng):
        X = rng.uniform(-1, 1, size=(80, 2))
        Y = np.sin(2 * X[:, 0]) + rng.normal(scale=0.3, size=80)
        cfg = GreedyConfig(lam=2.0, m_max=6, w=w_linear(0.05))
        path = fit_lpgp(make_dataset(X, Y), cfg)
        v_prev = 0.0
        for rec in path.records:
            expected = (1.0 - rec.alpha) * v_prev + rec.beta
            assert rec.v_m == pytest.approx(expected, abs=1e-15)
            assert rec.model.v == pytest.approx(rec.v_m, abs=1e-9)
            v_prev = rec.v_m

    def test_objective_monotone(self, rng):
        X = rng.uniform(-1, 1, size=(70, 2))
        Y = rng.normal(size=70)
        for w in (w_linear(0.1), w_power(0.05), w_custom(CUSTOM_POINTS)):
            path = fit_lpgp(make_dataset(X, Y), GreedyConfig(lam=2.0, m_max=5, w=w))
            objs = [rec.objective for rec in path.records]
            start = float(Y @ Y) / 70 + w(0.0)
            assert objs[0] <= start + 1e-12
            assert all(a >= b - 1e-12 for a, b in zip(objs, objs[1:])), w.kind

    def test_objective_equals_loss_plus_penalty(self, rng):
        X = rng.uniform(-1, 1, size=(50, 2))
        Y = rng.normal(size=50)
        cfg = GreedyConfig(lam=2.0, m_max=3, w=w_linear(0.2))
        path = fit_lpgp(make_dataset(X, Y), cfg)
        for rec in path.records:
            resid = Y - np.asarray(rec.model(X))
            assert rec.train_mse == pytest.approx(float(resid @ resid) / 50, abs=1e-12)
            assert rec.penalty == pytest.approx(cfg.w(rec.v_m), abs=1e-15)
            assert rec.objective == rec.train_mse + rec.penalty

    def test_deterministic_given_seed(self, rng):
        X = rng.uniform(-1, 1, size=(60, 2))
        Y = rng.normal(size=60)
        cfg = GreedyConfig(lam=2.0, m_max=4, strategy="projected-gradient", restarts=6)
        a = fit_lpgp(make_dataset(X, Y), cfg)
        b = fit_lpgp(make_dataset(X, Y), cfg)
        for ra, rb in zip(a.records, b.records):
            assert ra.v_m == rb.v_m
            assert ra.train_mse == rb.train_mse
            assert ra.inner_value == rb.inner_value
            np.testing.assert_array_equal(
                ra.model.terms[-1][1].theta, rb.model.terms[-1][1].theta
            )

    def test_gradient_strategies_run_and_descend(self, rng):
        X = rng.uniform(-1, 1, size=(60, 2))
        Y = np.sin(X[:, 0] + X[:, 1]) + rng.normal(scale=0.1, size=60)
        base = float(Y @ Y) / 60
        cfg = GreedyConfig(lam=2.0, m_max=4, strategy="projected-gradient", restarts=6)
        path = fit_lpgp(make_dataset(X, Y), cfg)
        objs = [rec.objective for rec in path.records]
        assert all(a >= b - 1e-12 for a, b in zip(objs, objs[1:]))
        assert objs[-1] < base
        for rec in path.records:
            assert rec.inner_value >= rec.diagnostics["cover_value"], rec.m

    def test_cover_cap_propagates_for_exhaustive_only(self, rng):
        X = rng.uniform(-1, 1, size=(10, 40))
        Y = rng.normal(size=10)
        with pytest.raises(CoverSizeError):
            fit_lpgp(
                make_dataset(X, Y),
                GreedyConfig(lam=2.0, m_max=1, cover_cap=10),
            )
        path = fit_lpgp(
            make_dataset(X, Y),
            GreedyConfig(
                lam=2.0, m_max=1, cover_cap=10, strategy="projected-gradient", restarts=2
            ),
        )
        assert len(path.records) == 1

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            fit_lpgp(
                make_dataset(np.zeros((0, 2)), np.zeros(0)),
                GreedyConfig(lam=2.0, m_max=1),
            )

    def test_model_at_prefixes(self, rng):
        X = rng.uniform(-1, 1, size=(40, 2))
        Y = rng.normal(size=40)
        path = fit_lpgp(make_dataset(X, Y), GreedyConfig(lam=2.0, m_max=3))
        assert path.model_at(0).n_terms == 0
        for m in (1, 2, 3):
            assert path.model_at(m) is path.records[m - 1].model


def path_csv(data, cfg):
    """The path CSV of one fit, as text."""
    buf = io.StringIO()
    write_path_csv(fit_lpgp(data, cfg), buf)
    return buf.getvalue()


# Projected gradient from the configured cover and, with cover_cap = 1 (the
# m_grid = 2 cover is over it), from the vertex cover it falls back to.
SEARCHES = {
    "exhaustive": dict(strategy="cover-exhaustive"),
    "gradient": dict(strategy="projected-gradient", restarts=4),
    "gradient-vertex-cover": dict(strategy="projected-gradient", restarts=4, cover_cap=1),
}


class TestCoverSeeding:
    """Every search is seeded from a cover, so a fit draws no random number
    and depends on X, Y and the config alone."""

    @staticmethod
    def data():
        rng = np.random.default_rng(31)
        X = rng.uniform(-1, 1, size=(60, 3))
        Y = np.sin(2.0 * X[:, 0] - X[:, 1]) + 0.2 * rng.normal(size=60)
        return make_dataset(X, Y)

    @pytest.mark.parametrize("search", list(SEARCHES))
    @pytest.mark.parametrize("kind", ["ramp", "sine", "tanh"])
    def test_fit_draws_no_random_numbers(self, kind, search, monkeypatch):
        data = self.data()

        def refuse(*args, **kwargs):
            raise AssertionError("the fit drew a random number")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        cfg = GreedyConfig(lam=2.0, m_max=3, activation=kind, **SEARCHES[search])
        assert len(fit_lpgp(data, cfg).records) == 3

    @pytest.mark.parametrize("search", list(SEARCHES))
    def test_dataset_seed_does_not_enter_the_fit(self, search):
        # A Dataset holds no seed: two fits of the same data write one CSV.
        cfg = GreedyConfig(lam=2.0, m_max=4, **SEARCHES[search])
        assert path_csv(self.data(), cfg) == path_csv(self.data(), cfg)

    @pytest.mark.parametrize("kind", ["ramp", "sine"])
    def test_over_cap_fallback_is_the_vertex_cover_run(self, kind):
        common = dict(lam=2.0, m_max=4, activation=kind, strategy="projected-gradient", restarts=2)
        fallback = GreedyConfig(cover_cap=1, **common)
        vertex = GreedyConfig(cover_m_grid=1, **common)
        assert path_csv(self.data(), fallback) == path_csv(self.data(), vertex)

    @pytest.mark.parametrize("search", ["exhaustive", "gradient"])
    def test_c_report_is_inert(self, search):
        on = GreedyConfig(lam=2.0, m_max=4, c_report=True, **SEARCHES[search])
        off = GreedyConfig(lam=2.0, m_max=4, c_report=False, **SEARCHES[search])
        assert path_csv(self.data(), on) == path_csv(self.data(), off)


class TestSparseCoverPursuit:
    """The pursuit reads the cover as (coordinate, count) entries: it never
    decodes every row, and it bounds the cache's memory before building it."""

    needs_proc = pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc/self/status"
    )

    @pytest.mark.parametrize("search", list(SEARCHES))
    @pytest.mark.parametrize("kind", ["ramp", "sine", "tanh"])
    def test_fit_never_decodes_the_whole_cover(self, kind, search, monkeypatch):
        def refuse(cover):
            raise AssertionError("the fit decoded every cover row")

        monkeypatch.setattr(SparseCover, "thetas", property(refuse))
        cfg = GreedyConfig(lam=2.0, m_max=4, activation=kind, **SEARCHES[search])
        assert len(fit_lpgp(TestCoverSeeding.data(), cfg).records) == 4

    def test_memory_budget_bounds_the_cache(self, monkeypatch):
        # At d = 40, n = 10 a search over the m_grid = 2 cover may take
        # about 2.1 MB (a re-score of every unit decodes 3,281 rows) and one
        # over the vertex cover about 0.39 MB (mostly its block of 2 x 32
        # restarts): under a 1 MB budget exhaustive search refuses, and
        # projected gradient seeds from the vertex cover.
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(10, 40))
        monkeypatch.setattr(greedy, "_memory_budget", lambda: 1e6)
        act = Activation("ramp")
        with pytest.raises(CoverSizeError, match="bytes"):
            greedy._cover_cache_for(X, act, inner_config(strategy="cover-exhaustive"))
        cache = greedy._cover_cache_for(X, act, inner_config(strategy="projected-gradient"))
        assert (cache.cover.m_grid, cache.cover.n_distinct) == (1, 81)
        monkeypatch.setattr(greedy, "_memory_budget", lambda: 5e3)
        with pytest.raises(CoverSizeError):
            greedy._cover_cache_for(X, act, inner_config(strategy="projected-gradient"))

    def test_only_restarts_move_the_memory_bound(self, monkeypatch):
        # Exhaustive search runs no restart blocks, so its bound is the one
        # without them whatever ``restarts`` says; projected gradient's grows
        # with its restart block until the block reaches _rescore_rows.
        X = np.random.default_rng(0).uniform(-1, 1, size=(10, 40))
        _, K = cover_counts(40, 2, 2.0)
        needs = []
        bytes_of = greedy._cover_bytes

        def recorded(*args):
            needs.append(bytes_of(*args))
            return needs[-1]

        monkeypatch.setattr(greedy, "_cover_bytes", recorded)
        for strategy in ("cover-exhaustive", "projected-gradient"):
            for restarts in (1, 500):
                cfg = inner_config(strategy=strategy, restarts=restarts)
                greedy._cover_cache_for(X, Activation("ramp"), cfg)
        exhaustive_1, exhaustive_500, pg_1, pg_500 = needs
        assert exhaustive_1 == exhaustive_500 == bytes_of(10, 40, 2, K)
        assert exhaustive_1 < pg_1 < pg_500

    @staticmethod
    def fake_meminfo(tmp_path, monkeypatch, text):
        """Point the budget at a meminfo file holding text (none if None),
        with no RLIMIT_AS."""
        resource = pytest.importorskip("resource")
        path = tmp_path / "meminfo"
        if text is not None:
            path.write_text(text, encoding="ascii")
        monkeypatch.setattr(greedy, "_MEMINFO", str(path))
        infinite = (resource.RLIM_INFINITY, resource.RLIM_INFINITY)
        monkeypatch.setattr(resource, "getrlimit", lambda which: infinite)

    def test_budget_is_the_available_memory(self, tmp_path, monkeypatch):
        # The same search as above under 977 kB of MemAvailable, well below
        # MemTotal: exhaustive search refuses, projected gradient falls back.
        meminfo = "MemTotal:        8211568 kB\nMemFree:  100 kB\nMemAvailable:  977 kB\n"
        self.fake_meminfo(tmp_path, monkeypatch, meminfo)
        assert greedy._memory_budget() == 977 * 1024
        X = np.random.default_rng(0).uniform(-1, 1, size=(10, 40))
        act = Activation("ramp")
        with pytest.raises(CoverSizeError, match="bytes"):
            greedy._cover_cache_for(X, act, inner_config(strategy="cover-exhaustive"))
        cache = greedy._cover_cache_for(X, act, inner_config(strategy="projected-gradient"))
        assert (cache.cover.m_grid, cache.cover.n_distinct) == (1, 81)

    @pytest.mark.parametrize(
        "text", [None, "", "MemTotal:        8211568 kB\n", "MemAvailable: many kB\n"]
    )
    def test_budget_without_available_memory_is_physical(self, tmp_path, monkeypatch, text):
        # A missing file, or one without a readable MemAvailable line.
        self.fake_meminfo(tmp_path, monkeypatch, text)
        assert greedy._available_memory() is None
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        assert greedy._memory_budget() == float(physical)

    @staticmethod
    def fit_in_subprocess(d, n, m_max, **config):
        """Fit the pursuit in a fresh interpreter; returns the fit's seconds,
        the peak RSS before it and the peak RSS after it, in MiB.  The peak is
        the process's VmHWM: ru_maxrss would also count the RSS of the
        forked test process before its exec."""
        code = f"""
import time
import numpy as np
from ridgepursuit import Dataset, GreedyConfig, fit_lpgp
def peak():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
rng = np.random.default_rng(0)
X = rng.uniform(-1, 1, size=({n}, {d}))
Y = np.maximum(X[:, 0] + X[:, 1], 0.0) + 0.1 * rng.normal(size={n})
data = Dataset(X=X, Y=Y)
cfg = GreedyConfig(lam=2.0, m_max={m_max}, **{config!r})
before = peak()
start = time.perf_counter()
assert len(fit_lpgp(data, cfg).records) == {m_max}
seconds = time.perf_counter() - start
print(seconds, before, peak())
"""
        src = str(Path(greedy.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        return tuple(float(x) for x in out.stdout.split())

    @needs_proc
    def test_exhaustive_fit_at_d_512(self):
        # K = 527,365 cover rows (D = 513): the dense matrix alone took
        # 2.0 GiB and the fit 60 s; the half cache takes 258 MiB.
        seconds, _, peak = self.fit_in_subprocess(512, 256, 16, strategy="cover-exhaustive")
        assert seconds < 5.0
        assert peak < 1024.0

    @needs_proc
    def test_vertex_cover_memory_is_linear_in_d(self):
        # Over the cap at d = 2048 projected gradient seeds from the 4,099
        # rows of the vertex cover.  As a dense (2D + 1) x D matrix they took
        # 16 D^2 bytes = 64 MiB, and a fit's peak RSS grew by 95 MiB; as
        # entries it grows by about 30 MiB (the design copies, the cache and
        # the ascent).
        _, before, after = self.fit_in_subprocess(2048, 256, 2, strategy="projected-gradient")
        assert after - before < 48.0

    @needs_proc
    def test_restart_blocks_are_bounded_by_d(self):
        # 2,000 restarts per sign from the vertex cover at D = 2001, n = 8.
        # Blocks of _BLOCK_CELLS // n rows held all 4,000 as one batch of
        # (4000, D) arrays, and the fit's peak RSS grew by about 600 MiB;
        # blocks of _BLOCK_CELLS // (D + 1) rows keep each array at 8 MiB.
        # The search's memory bound, restart blocks included, covers the
        # growth (it read 8.9 MiB when they were left out).
        _, before, after = self.fit_in_subprocess(
            2000, 8, 1, strategy="projected-gradient", restarts=2000
        )
        assert after - before < 160.0
        D = 2001
        bound = greedy._cover_bytes(8, D, 1, 2 * D + 1, restarts=2000) / 2**20
        assert after - before <= bound


# ---------------------------------------------------------------------------
# Guarantee arithmetic
# ---------------------------------------------------------------------------


def oracle_case(kind, w, search, Y=None):
    rng = np.random.default_rng(41)
    X = rng.uniform(-1, 1, size=(80, 3))
    if Y is None:
        Y = np.sin(2.0 * X[:, 0] - X[:, 1]) + 0.2 * rng.normal(size=80)
    cfg = GreedyConfig(lam=2.0, m_max=16, activation=kind, w=w, **SEARCHES[search])
    return make_dataset(X, Y), cfg


def assert_same_terms(got, want):
    """Same units in the same order, with bitwise equal weights."""
    assert len(got.terms) == len(want.terms)
    for (b, unit), (b_ref, ref) in zip(got.terms, want.terms):
        assert type(b) is float
        assert b == b_ref and np.signbit(b) == np.signbit(b_ref)
        assert unit.activation == ref.activation and unit.sign == ref.sign
        assert unit.theta.tobytes() == ref.theta.tobytes()


PATH_PENALTIES = {
    "linear": w_linear(0.02),
    "power": w_power(0.02),
    "custom": w_custom(CUSTOM_POINTS),
}


class TestPathOracle:
    """Every model on the path is bit for bit the one the earlier eager
    rebuild made at its step (``path_oracle``)."""

    @pytest.mark.parametrize("search", ["exhaustive", "gradient"])
    @pytest.mark.parametrize("w", list(PATH_PENALTIES))
    @pytest.mark.parametrize("kind", ["ramp", "sine"])
    def test_models_match_eager_rebuild(self, kind, w, search):
        data, cfg = oracle_case(kind, PATH_PENALTIES[w], search)
        path = fit_lpgp(data, cfg)
        want = path_oracle.eager_models(data, cfg)
        assert len(want) == cfg.m_max + 1
        for m in range(cfg.m_max + 1):
            assert_same_terms(path.model_at(m), want[m])
        assert_same_terms(path.final_model, want[-1])

    def test_zero_steps(self):
        data, cfg = oracle_case("ramp", w_linear(), "exhaustive")
        cfg = replace(cfg, m_max=0)
        path = fit_lpgp(data, cfg)
        (want,) = path_oracle.eager_models(data, cfg)
        assert_same_terms(path.final_model, want)
        assert_same_terms(path.model_at(0), want)

    @pytest.mark.parametrize("search", ["exhaustive", "gradient"])
    def test_zero_response(self, search):
        data, cfg = oracle_case("ramp", w_power(0.02), search, Y=np.zeros(80))
        path = fit_lpgp(data, cfg)
        want = path_oracle.eager_models(data, cfg)
        for m in range(cfg.m_max + 1):
            assert_same_terms(path.model_at(m), want[m])


def assert_same_steps(path, want):
    """Every record of a fit equals the oracle's, field for field, bit for bit."""
    assert len(path.records) == len(want)
    for rec, ref in zip(path.records, want):
        assert rec.m == ref["m"]
        assert rec.unit.theta.tobytes() == ref["theta"] and rec.unit.sign == ref["sign"]
        for name in ("v_m", "alpha", "beta", "inner_value", "train_mse", "penalty"):
            assert float_bits(getattr(rec, name)) == float_bits(ref[name]), (rec.m, name)
        assert rec.diagnostics.keys() == ref["diagnostics"].keys()
        assert float_bits(rec.diagnostics["cover_value"]) == float_bits(
            ref["diagnostics"]["cover_value"]
        )
        assert rec.diagnostics["n_candidates"] == ref["diagnostics"]["n_candidates"]


class TestStepOracle:
    """Every step of a fit is the one ``path_oracle`` takes from its own
    float64 cover search, frozen line search and unit evaluation."""

    @pytest.mark.parametrize("search", ["exhaustive", "gradient", "gradient-vertex-cover"])
    @pytest.mark.parametrize("w", list(PATH_PENALTIES))
    @pytest.mark.parametrize("kind", ["ramp", "sine"])
    def test_records_match(self, kind, w, search):
        data, cfg = oracle_case(kind, PATH_PENALTIES[w], search)
        assert_same_steps(fit_lpgp(data, cfg), path_oracle.oracle_steps(data, cfg))

    @pytest.mark.parametrize("search", ["exhaustive", "gradient"])
    def test_zero_response(self, search):
        data, cfg = oracle_case("ramp", w_linear(0.02), search, Y=np.zeros(80))
        path = fit_lpgp(data, cfg)
        assert_same_steps(path, path_oracle.oracle_steps(data, cfg))
        assert all(rec.alpha == rec.beta == 0.0 for rec in path.records)

    def test_benchmark_fit_path_config(self):
        # The fit-path benchmark's linear-w fit: d = 8, n = 1024, m = 256.
        data, cfg = cosine_fit_data(8), GreedyConfig(lam=2.0, m_max=256)
        assert_same_steps(fit_lpgp(data, cfg), path_oracle.oracle_steps(data, cfg))


class TestPathBookkeeping:
    """A step records its unit, not a model: a fit builds no model, a read
    builds one and caches it, and a path's memory is linear in m."""

    def test_fit_builds_no_model(self, monkeypatch):
        built = mock.Mock(wraps=RidgeModel)
        monkeypatch.setattr(greedy, "RidgeModel", built)
        path = fit_lpgp(cosine_fit_data(8, n=256), GreedyConfig(lam=2.0, m_max=64))
        assert len(path.records) == 64
        assert built.call_count == 0
        model = path.final_model
        assert built.call_count == 1
        assert path.final_model is model and path.model_at(64) is model
        assert built.call_count == 1
        assert model.n_terms == 64

    def test_retained_memory_is_linear_in_steps(self):
        data = cosine_fit_data(8)
        fit_lpgp(data, GreedyConfig(lam=2.0, m_max=2))  # warm up numpy's caches

        def retained(m_max):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                path = fit_lpgp(data, GreedyConfig(lam=2.0, m_max=m_max))
                held = tracemalloc.get_traced_memory()[0] - base
            finally:
                tracemalloc.stop()
            assert len(path.records) == m_max
            return held

        # A model copy per step held O(m^2) terms: 3.6x from 128 to 256 steps.
        assert retained(256) < 2.5 * retained(128)


class TestGuaranteeBound:
    def test_b_f_spot_values(self):
        assert greedy_b_f(1.0, 1.0, 1.0, 1.0) == pytest.approx(4.0)
        assert greedy_b_f(0.0, 5.0, 0.0, 3.0) == 0.0
        assert greedy_b_f(1.0, 0.0, 0.0, 2.0) == pytest.approx(4.0)

    def test_rhs_plain_formula(self):
        w = w_linear(0.3)
        dist_sq, v_f, nfs, nf, c, m = 0.04, 1.2, 0.9, 0.85, 1.5, 7
        b_f = c**2 * v_f**2 + 2 * v_f * nfs * (c + 1) - nf**2
        expected = dist_sq + 0.3 * (c * v_f) + 4.0 * b_f / m
        got = greedy_bound_rhs(dist_sq, v_f, nfs, nf, c, m, w)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_rhs_refined_formula(self):
        w = w_linear(0.3)
        dist_sq, v_f, c, m = 0.04, 1.2, 1.5, 7
        expected = (math.sqrt(dist_sq) + 2 * (c + 1) * v_f / math.sqrt(m)) ** 2 + 0.3 * (
            c * v_f
        )
        got = greedy_bound_rhs(dist_sq, v_f, 0.9, 0.85, c, m, w, refined=True)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_validation(self):
        w = w_linear()
        with pytest.raises(ValueError):
            greedy_bound_rhs(0.0, 1.0, 1.0, 1.0, 1.0, 0, w)
        with pytest.raises(ValueError):
            greedy_bound_rhs(0.0, 1.0, 1.0, 1.0, 0.5, 3, w)
        with pytest.raises(ValueError):
            greedy_bound_rhs(-0.1, 1.0, 1.0, 1.0, 1.0, 3, w)


# ---------------------------------------------------------------------------
# Path CSV
# ---------------------------------------------------------------------------


class TestPathCsv:
    def test_roundtrip_structure(self, rng):
        X = rng.uniform(-1, 1, size=(30, 2))
        Y = rng.normal(size=30)
        path = fit_lpgp(make_dataset(X, Y), GreedyConfig(lam=2.0, m_max=3))
        buf = io.StringIO()
        write_path_csv(path, buf, header_lines=["run A", "seed 0"])
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# run A"
        assert lines[1] == "# seed 0"
        assert lines[2] == ",".join(PATH_CSV_COLUMNS)
        assert len(lines) == 3 + 3
        for rec, line in zip(path.records, lines[3:]):
            cells = line.split(",")
            assert int(cells[0]) == rec.m
            assert float(cells[1]) == rec.v_m  # 17 significant digits: lossless
            assert float(cells[5]) == rec.train_mse
            assert float(cells[7]) == rec.objective

    def test_empty_path(self):
        buf = io.StringIO()
        write_path_csv(GreedyPath(records=()), buf)
        assert buf.getvalue().splitlines() == [",".join(PATH_CSV_COLUMNS)]
