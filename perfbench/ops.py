"""The four benchmark workloads: how each op is built, run and checked.

An op's inputs come only from its seed, which the caller derives from the
run seed and the op index (``op_seed``).  ``Workload.run_op`` returns an
``OpResult`` listing the reasons the op failed; a failed check is a reason,
not an exception, so one bad op cannot abort a run.  Checks are structural (exit codes, row counts,
monotone objectives, grid membership, certified properties), so they keep
holding when a later change moves the digits of the outputs.

Library entry points are looked up through their module at call time
(``cli.main``, ``risk.risk_curve``), so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ridgepursuit import cli, penalty, risk
from ridgepursuit.dictionary import Activation, RidgeUnit
from ridgepursuit.greedy import GreedyConfig, w_linear
from ridgepursuit.model import RidgeModel
from ridgepursuit.penalty import PenaltyConfig
from ridgepursuit.targets import Noise


def op_seed(run_seed: int, index: int) -> int:
    """The seed of op ``index`` in a run with seed ``run_seed``."""
    return int(np.random.SeedSequence([run_seed, index]).generate_state(1)[0])


@dataclass
class OpResult:
    reasons: list[str]
    covered: int = 0  # risk-c8 rows inside the selection bound
    rows: int = 0  # risk-c8 rows produced


def _read_csv(path: str) -> list[dict[str, str]]:
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _finite(rows: list[dict[str, str]], columns: tuple[str, ...]) -> bool:
    try:
        return all(math.isfinite(float(r[c])) for r in rows for c in columns)
    except (KeyError, ValueError):
        return False


def cli_step(argv: list[str], label: str) -> list[str]:
    """One in-process ``ridgepursuit`` run; a non-zero exit is a failure reason."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        return [f"{label}: exit {code}: {err.getvalue().strip()[-200:]}"]
    return []


PATH_COLUMNS = ("v_m", "alpha", "beta", "inner_value", "train_mse", "penalty", "objective")


def check_path_csv(path: str, m_max: int, label: str) -> list[str]:
    """A `fit` CSV has m_max finite rows and a non-increasing objective."""
    rows = _read_csv(path)
    if len(rows) != m_max:
        return [f"{label}: {len(rows)} path rows, expected {m_max}"]
    if not _finite(rows, PATH_COLUMNS):
        return [f"{label}: non-finite path value"]
    if [int(r["m"]) for r in rows] != list(range(1, m_max + 1)):
        return [f"{label}: path steps are not 1..{m_max}"]
    objective = [float(r["objective"]) for r in rows]
    if any(b > a + 1e-9 for a, b in zip(objective, objective[1:])):
        return [f"{label}: objective increased along the path"]
    return []


def _freqs(d: int) -> str:
    """One cosine atom along a fixed direction in d dimensions."""
    row = [1.0, -1.0, 0.5, 0.5] + [0.0] * max(d - 4, 0)
    return ",".join(format(x, "g") for x in row[:d])


def _fit_argv(d: int, n: int, m_max: int, seed: int, out: str, extra: list[str]) -> list[str]:
    sets = [f"d={d}", f"n={n}", f"m_max={m_max}", f"freqs={_freqs(d)}"] + extra
    argv = ["fit", "--seed", str(seed), "--out", out]
    for s in sets:
        argv += ["--set", s]
    return argv


class Workload:
    name: str

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir

    def out(self, stem: str) -> str:
        return os.path.join(self.workdir, f"{stem}.csv")

    def run_op(self, seed: int) -> OpResult:
        raise NotImplementedError


class RiskC8(Workload):
    """`risk_curve` at the acceptance-criterion-c8 setup, n = 4096, trials = 2."""

    name = "risk-c8"
    d, n, trials, sigma, B = 64, 4096, 2, 0.5, 2.4
    m_grid = (0, 1, 2, 3, 4, 6, 8, 12, 16)

    def __init__(self, workdir: str) -> None:
        super().__init__(workdir)
        D = self.d + 1
        ramp = Activation("ramp")
        th1 = np.zeros(D)
        th1[0] = 2.0
        th2 = np.zeros(D)
        th2[1], th2[2] = 1.0, 1.0
        th3 = np.zeros(D)
        th3[3], th3[D - 1] = -1.0, 1.0
        self.fstar = RidgeModel(
            terms=[
                (0.5, RidgeUnit(ramp, th1)),
                (0.4, RidgeUnit(ramp, th2)),
                (0.3, RidgeUnit(ramp, th3)),
            ]
        )
        nu = 4.0 * self.sigma**2
        self.noise = Noise("gaussian", self.sigma)
        self.gcfg = GreedyConfig(lam=2.0, m_max=16, w=w_linear(), c_report=False)
        self.pcfg = PenaltyConfig(
            B=self.B,
            B_n=penalty.select_Bn(self.B, nu, self.n, "sub-gaussian"),
            sigma_sq=self.sigma**2,
            eta=self.sigma,
            nu=nu,
            lam=2.0,
            regime="mixed",
            mixed_C=0.03,
        )
        self.factor = penalty.resolvability_factors(penalty.gamma_tau(self.pcfg)[1])[1]

    def run_op(self, seed: int) -> OpResult:
        rows = risk.risk_curve(
            self.fstar, (self.n,), self.d, "mixed", self.trials, self.gcfg, self.pcfg,
            self.noise, seed=seed, m_grid=self.m_grid,
        )
        reasons = []
        if len(rows) != self.trials:
            reasons.append(f"risk-curve: {len(rows)} rows, expected {self.trials}")
        for r in rows:
            if r.m_hat not in self.m_grid:
                reasons.append(f"risk-curve: m_hat={r.m_hat} not in the grid")
            values = (r.v_hat, r.test_mse, r.pen_per_n, r.resolvability_proxy)
            if not all(math.isfinite(v) for v in values):
                reasons.append("risk-curve: non-finite row value")
        covered = sum(r.test_mse <= self.factor * r.resolvability_proxy for r in rows)
        return OpResult(reasons, covered=covered, rows=len(rows))


class FitPath(Workload):
    """Two `fit` runs on one seed: linear w to m = 256, power w to m = 64."""

    name = "fit-path"
    d, n = 8, 1024
    runs = (
        ("linear", 256, ["w_kind=linear"]),
        ("power", 64, ["w_kind=power", "w_rate=1e-3"]),
    )

    def run_op(self, seed: int) -> OpResult:
        reasons: list[str] = []
        for label, m_max, extra in self.runs:
            out = self.out(label)
            argv = _fit_argv(self.d, self.n, m_max, seed, out, ["strategy=cover-exhaustive"] + extra)
            failed = cli_step(argv, f"fit {label}")
            reasons += failed or check_path_csv(out, m_max, f"fit {label}")
        return OpResult(reasons)


class FitAscent(Workload):
    """`fit` with projected-gradient ascent, 8 restarts, d = 16, m = 8."""

    name = "fit-ascent"
    d, n, m_max = 16, 1024, 8

    def run_op(self, seed: int) -> OpResult:
        out = self.out("ascent")
        extra = ["strategy=projected-gradient", "restarts=8", "w_kind=linear"]
        argv = _fit_argv(self.d, self.n, self.m_max, seed, out, extra)
        reasons = cli_step(argv, "fit ascent")
        return OpResult(reasons or check_path_csv(out, self.m_max, "fit ascent"))


class Certify(Workload):
    """`approx-rate` (d = 2) then `concentration-check` (d = 4, n = 256)."""

    name = "certify"
    ar_rows, cc_rows = 4, 6  # default ar_m_grid; three classes x two checks

    def run_op(self, seed: int) -> OpResult:
        ar, cc = self.out("approx_rate"), self.out("concentration")
        argv = ["approx-rate", "--seed", str(seed), "--out", ar]
        argv += ["--set", "d=2", "--set", "draws=32"]
        reasons = cli_step(argv, "approx-rate")
        if not reasons:
            rows = _read_csv(ar)
            if len(rows) != self.ar_rows:
                reasons.append(f"approx-rate: {len(rows)} rows, expected {self.ar_rows}")
            elif not _finite(rows, ("mc_sq_error", "bound")):
                reasons.append("approx-rate: non-finite error")
            elif any(float(r["mc_sq_error"]) > float(r["bound"]) for r in rows):
                reasons.append("approx-rate: sampled error above the mean bound")
        argv = ["concentration-check", "--seed", str(seed), "--out", cc]
        argv += ["--set", "d=4", "--set", "n=256", "--set", "cc_trials=2000"]
        failed = cli_step(argv, "concentration-check")
        reasons += failed
        if not failed:
            rows = _read_csv(cc)
            if len(rows) != self.cc_rows:
                reasons.append(f"concentration-check: {len(rows)} rows, expected {self.cc_rows}")
            elif any(r["pass"] != "true" for r in rows):
                reasons.append("concentration-check: a check did not pass")
        return OpResult(reasons)


WORKLOADS: dict[str, Callable[[str], Workload]] = {
    w.name: w for w in (RiskC8, FitPath, FitAscent, Certify)
}
