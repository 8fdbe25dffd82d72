"""Batch front door: config parsing, subcommand dispatch, CSV emission.

Config files are plain ``key=value`` lines (``#`` starts a comment); command
line flags override file values.  Every run writes one CSV whose leading
``#`` comment lines echo the fully resolved configuration, so reruns with the
same inputs are byte-identical.  Exit codes: 0 success, 1 property/assertion
failure, 2 configuration error.  ``best_of`` draws run on as many threads as
the process's CPU affinity allows; everything else is single-threaded, and
BLAS threading is left at the library default.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .approx import best_of
from .dictionary import (
    ACTIVATION_KINDS,
    CoverSizeError,
    FieldError,
    cover_count_log_bound,
    enumerate_cover,
)
from .greedy import (
    INNER_STRATEGIES,
    GreedyConfig,
    fit_lpgp,
    w_linear,
    w_power,
    write_path_csv,
)
from .penalty import (
    REGIMES,
    TAIL_CLASSES,
    PenaltyConfig,
    penalty_for_regime,
    select_Bn,
)
from .risk import (
    mc_noise_check,
    mc_symmetrization_check,
    risk_curve,
    shipped_class_specs,
    write_risk_csv,
)
from .targets import (
    DESIGN_LAWS,
    NOISE_KINDS,
    Noise,
    SpectralTarget,
    gen_dataset,
    mc_l2_sq_distance,
    sample_ramp_model,
    spectral_norm,
    write_csv,
)

__all__ = ["RunConfig", "ConfigError", "parse_config", "dispatch", "main", "SUBCOMMANDS"]

SUBCOMMANDS = (
    "fit",
    "approx-rate",
    "cover-stats",
    "penalty-table",
    "concentration-check",
    "risk-curve",
)


class ConfigError(ValueError):
    """A configuration problem; always names the offending key."""


# ----------------------------------------------------------------------------
# Key table: name -> (parser, default-as-string)
# ----------------------------------------------------------------------------


def _int(raw: str) -> int:
    return int(raw)


def _float(raw: str) -> float:
    val = float(raw)
    if not math.isfinite(val):
        raise ValueError(f"need a finite number, got {raw.strip()!r}")
    return val


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true/false, got {raw!r}")


def _str(raw: str) -> str:
    return raw.strip()


def _choice(*options: str) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        val = raw.strip()
        if val not in options:
            raise ValueError(f"expected one of {options}, got {val!r}")
        return val

    return parse


def _at_least(
    parse: Callable[[str], object], low: float, strict: bool = False
) -> Callable[[str], object]:
    """``parse``, then reject numbers below ``low``, or equal to it when ``strict``.

    List values are checked entry by entry; "auto" passes through.
    """
    relation = ">" if strict else ">="

    def checked(raw: str):
        val = parse(raw)
        for x in val if isinstance(val, tuple) else (val,):
            if x != "auto" and (x <= low if strict else x < low):
                raise ValueError(f"need a value {relation} {format(low, 'g')}, got {x}")
        return val

    return checked


def _int_list(raw: str) -> tuple[int, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(int(p) for p in raw.split(","))


def _float_list(raw: str) -> tuple[float, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(_float(p) for p in raw.split(","))


def _matrix(raw: str) -> tuple[tuple[float, ...], ...]:
    """Rows separated by ';', entries by ',' (e.g. "1,1;0.5,2")."""
    rows = tuple(
        tuple(_float(p) for p in chunk.split(",")) for chunk in raw.strip().split(";") if chunk
    )
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("rows have unequal lengths")
    return rows


def _auto_float(raw: str) -> float | str:
    val = raw.strip().lower()
    if val == "auto":
        return "auto"
    return _float(raw)


_KEYS: dict[str, tuple[Callable[[str], object], str]] = {
    # run plumbing
    "seed": (_at_least(_int, 0), "0"),
    "out": (_str, ""),
    # data
    "n": (_at_least(_int, 1), "200"),
    "d": (_at_least(_int, 1), "2"),
    "design": (_choice(*DESIGN_LAWS), "uniform"),
    "noise": (_choice(*NOISE_KINDS), "gaussian"),
    "noise_scale": (_at_least(_float, 0.0), "0.5"),
    # cosine target atoms
    "freqs": (_matrix, "1,1"),
    "amps": (_float_list, "1"),
    "phases": (_float_list, "0"),
    # pursuit
    "m_max": (_int, "8"),
    "lam": (_at_least(_float, 0.0, strict=True), "2.0"),
    "activation": (_choice(*ACTIVATION_KINDS), "ramp"),
    "strategy": (_choice(*INNER_STRATEGIES), "cover-exhaustive"),
    "restarts": (_int, "32"),
    "w_kind": (_choice("linear", "power"), "linear"),
    "w_rate": (_float, "0.0"),
    "cover_m_grid": (_at_least(_int, 1), "2"),
    "cover_cap": (_int, "1000000"),
    "c_report": (_bool, "true"),
    # penalty
    "B": (_auto_float, "auto"),
    "B_n": (_auto_float, "auto"),
    "sigma_sq": (_auto_float, "auto"),
    "eta": (_auto_float, "auto"),
    "nu": (_at_least(_auto_float, 0.0), "auto"),
    "delta1": (_float, "1.0"),
    "delta2": (_float, "1.0"),
    "regime": (_choice(*REGIMES), "highdim-noise"),
    "mixed_C": (_float, "1.0"),
    "tail": (_choice("auto", *TAIL_CLASSES), "auto"),
    # concentration checks
    "gamma": (_at_least(_float, 0.0, strict=True), "1.0"),
    "A": (_at_least(_float, 0.0, strict=True), "2.0"),
    "cc_trials": (_at_least(_int, 2), "2000"),
    # experiment grids
    "trials": (_at_least(_int, 1), "5"),
    "n_grid": (_at_least(_int_list, 1), "256,512,1024"),
    "m_grid": (_at_least(_int_list, 0), ""),
    "ar_m_grid": (_at_least(_int_list, 1), "8,16,32,64"),
    "draws": (_at_least(_int, 1), "32"),
    "mc_points": (_at_least(_int, 1), "20000"),
    "v_f": (_at_least(_float, 0.0), "1.0"),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved key-value configuration for one run."""

    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    def header_lines(self, subcommand: str) -> list[str]:
        lines = [f"subcommand={subcommand}"]
        for key in sorted(self.values):
            lines.append(f"{key}={_render(self.values[key])}")
        return lines


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):
            return ";".join(",".join(format(x, "g") for x in row) for row in value)
        return ",".join(format(x, "g") for x in value)
    if isinstance(value, float):
        return format(value, "g")
    return str(value)


def parse_config(path: str | None, overrides: Sequence[tuple[str, str]] = ()) -> RunConfig:
    """Resolve defaults, then the config file, then overrides (flags win)."""
    values: dict = {}
    for key, (parser, default) in _KEYS.items():
        values[key] = parser(default)

    def assign(key: str, raw: str, where: str) -> None:
        if key not in _KEYS:
            raise ConfigError(f"unknown key '{key}' ({where})")
        parser, _ = _KEYS[key]
        try:
            values[key] = parser(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for key '{key}' ({where}): {exc}") from exc

    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, start=1):
                    stripped = line.split("#", 1)[0].strip()
                    if not stripped:
                        continue
                    if "=" not in stripped:
                        raise ConfigError(
                            f"unknown key '{stripped}' ({path}:{lineno}: expected key=value)"
                        )
                    key, raw = stripped.split("=", 1)
                    assign(key.strip(), raw.strip(), f"{path}:{lineno}")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc

    for key, raw in overrides:
        assign(key.strip(), raw, "flag override")
    return RunConfig(values=values)


# ----------------------------------------------------------------------------
# Resolved-object builders
# ----------------------------------------------------------------------------


def _build_target(config: RunConfig) -> SpectralTarget:
    freqs = config["freqs"]
    if not freqs:
        raise ConfigError("bad value for key 'freqs': at least one atom required")
    d = config["d"]
    if len(freqs[0]) != d:
        raise ConfigError(
            f"bad value for key 'freqs': rows have {len(freqs[0])} coordinates but d={d}"
        )
    amps = config["amps"]
    phases = config["phases"]
    if len(amps) != len(freqs) or len(phases) != len(freqs):
        raise ConfigError(
            "bad value for key 'amps': freqs, amps, and phases must have equal atom counts"
        )
    try:
        return SpectralTarget(
            freqs=np.asarray(freqs, dtype=float),
            amps=np.asarray(amps, dtype=float),
            phases=np.asarray(phases, dtype=float),
        )
    except ValueError as exc:
        raise ConfigError(f"bad value for key 'freqs': {exc}") from exc


def _build_noise(config: RunConfig) -> Noise:
    scale = config["noise_scale"] if config["noise"] != "zero" else 0.0
    return Noise(kind=config["noise"], scale=scale)


def _resolved_tail(config: RunConfig) -> str:
    tail = config["tail"]
    if tail != "auto":
        return tail
    return {"gaussian": "sub-gaussian", "laplace": "sub-exponential", "zero": "zero"}[
        config["noise"]
    ]


def _build_penalty_config(config: RunConfig, target: SpectralTarget, n: int) -> PenaltyConfig:
    noise = _build_noise(config)
    sigma_sq = config["sigma_sq"]
    if sigma_sq == "auto":
        sigma_sq = noise.variance
    eta = config["eta"]
    if eta == "auto":
        eta = noise.bernstein_eta
    nu = config["nu"]
    if nu == "auto":
        # Levels at which the tail moment bounds close: 4 sigma^2 for gaussian
        # noise, 3x the density scale for laplace.
        if noise.kind == "gaussian":
            nu = 4.0 * noise.scale**2
        elif noise.kind == "laplace":
            nu = 3.0 * noise.scale
        else:
            nu = 0.0
    B = config["B"]
    if B == "auto":
        B = target.sup_bound
    B_n = config["B_n"]
    if B_n == "auto":
        B_n = select_Bn(B, nu, n, _resolved_tail(config))
    try:
        return PenaltyConfig(
            B=B,
            B_n=max(B_n, B),
            sigma_sq=sigma_sq,
            eta=eta,
            nu=nu,
            lam=config["lam"],
            delta1=config["delta1"],
            delta2=config["delta2"],
            regime=config["regime"],
            mixed_C=config["mixed_C"],
        )
    except FieldError as exc:
        raise ConfigError(f"bad value for key '{exc.field}': {exc}") from exc


def _build_greedy_config(config: RunConfig) -> GreedyConfig:
    try:
        w = (w_linear if config["w_kind"] == "linear" else w_power)(config["w_rate"])
    except ValueError as exc:
        raise ConfigError(f"bad value for key 'w_rate': {exc}") from exc
    try:
        return GreedyConfig(
            lam=config["lam"],
            m_max=config["m_max"],
            activation=config["activation"],
            w=w,
            strategy=config["strategy"],
            restarts=config["restarts"],
            c_report=config["c_report"],
            cover_m_grid=config["cover_m_grid"],
            cover_cap=config["cover_cap"],
        )
    except FieldError as exc:
        raise ConfigError(f"bad value for key '{exc.field}': {exc}") from exc


def _out_path(config: RunConfig, subcommand: str) -> str:
    return config["out"] or f"{subcommand.replace('-', '_')}.csv"


def _write_out(
    config: RunConfig,
    subcommand: str,
    columns: Sequence[str],
    rows: Sequence[Sequence],
    notes: Sequence[str] = (),
) -> None:
    """Write one subcommand's CSV: the config echo, then ``notes``, as header lines."""
    with open(_out_path(config, subcommand), "w", encoding="utf-8") as fh:
        write_csv(fh, columns, rows, header_lines=[*config.header_lines(subcommand), *notes])


# ----------------------------------------------------------------------------
# Subcommand bodies (return process exit codes)
# ----------------------------------------------------------------------------


def _cmd_fit(config: RunConfig) -> int:
    target = _build_target(config)
    noise = _build_noise(config)
    data = gen_dataset(
        target, config["n"], config["d"], noise, config["seed"], design=config["design"]
    )
    path = fit_lpgp(data, _build_greedy_config(config))
    with open(_out_path(config, "fit"), "w", encoding="utf-8") as fh:
        write_path_csv(path, fh, header_lines=config.header_lines("fit"))
    objectives = [rec.objective for rec in path.records]
    if any(b > a + 1e-9 for a, b in zip(objectives, objectives[1:])):
        print("property failure: objective increased along the path", file=sys.stderr)
        return 1
    return 0


def _cmd_approx_rate(config: RunConfig) -> int:
    target = _build_target(config)
    d = config["d"]
    v2 = spectral_norm(target, 2.0)
    m_grid = config["ar_m_grid"] or (8, 16, 32, 64)
    rows = []
    for m in m_grid:
        result = best_of(
            lambda rng, m=m: sample_ramp_model(target, m, rng),
            lambda model: mc_l2_sq_distance(
                model, target, d, n_points=config["mc_points"], seed=config["seed"] + 7919
            ),
            k=config["draws"],
            seed=config["seed"],
        )
        bound = 16.0 * v2**2 / m
        rows.append((m, result.distortion, bound))
    slope = _loglog_slope([r[0] for r in rows], [max(r[1], 1e-300) for r in rows])
    _write_out(
        config, "approx-rate", ("m", "mc_sq_error", "bound"), rows,
        notes=[f"log_log_slope={format(slope, '.17g')}"],
    )
    if any(err > bound for _, err, bound in rows):
        print("property failure: sampled error exceeded the mean bound", file=sys.stderr)
        return 1
    return 0


def _loglog_slope(ms: Sequence[int], errs: Sequence[float]) -> float:
    lx = np.log(np.asarray(ms, dtype=float))
    ly = np.log(np.asarray(errs, dtype=float))
    slope, _ = np.polyfit(lx, ly, 1)
    return float(slope)


def _cmd_cover_stats(config: RunConfig) -> int:
    d = config["d"]
    m_grid = config["cover_m_grid"]
    lam = config["lam"]
    cover = enumerate_cover(d, m_grid, lam, cap=config["cover_cap"])
    log_bound = cover_count_log_bound(2 * d + 1, m_grid)
    columns = ("d", "m_grid", "lam", "multisets", "distinct", "log_multisets", "log_bound")
    row = (d, m_grid, format(lam, "g"), len(cover), cover.n_distinct, math.log(len(cover)), log_bound)
    _write_out(config, "cover-stats", columns, [row])
    if math.log(len(cover)) > log_bound:
        print("property failure: cover count exceeded its closed-form bound", file=sys.stderr)
        return 1
    return 0


def _cmd_penalty_table(config: RunConfig) -> int:
    target = _build_target(config)
    v_f = config["v_f"]
    n_grid = config["n_grid"] or (256, 1024, 4096)
    rows = []
    for regime in REGIMES:
        for n in n_grid:
            pconfig = replace(_build_penalty_config(config, target, n), regime=regime)
            pen = penalty_for_regime(pconfig, v_f, n, config["d"])
            rows.append(
                (regime, n, config["d"], format(v_f, "g"), pen.pen_per_n, pen.main_term, pen.valid)
            )
    columns = ("regime", "n", "d", "v_f", "pen_per_n", "main_term", "valid")
    _write_out(config, "penalty-table", columns, rows)
    return 0


def _cmd_concentration_check(config: RunConfig) -> int:
    d = config["d"]
    specs = shipped_class_specs(d=d)
    noise = _build_noise(config)
    n, trials = config["n"], config["cc_trials"]
    rng = np.random.default_rng(config["seed"])
    rows = []
    failed = False
    for name, spec in sorted(specs.items()):
        mean, se = mc_symmetrization_check(
            spec, config["gamma"], n, trials, design=config["design"], d=d, rng=rng
        )
        ok = mean <= 3.0 * se
        failed = failed or not ok
        rows.append(("symmetrization", name, format(config["gamma"], "g"), n, trials, mean, se, ok))
        mean, se = mc_noise_check(
            spec, config["A"], n, trials, noise, design=config["design"], d=d, rng=rng
        )
        ok = mean <= 3.0 * se
        failed = failed or not ok
        rows.append(("noise", name, format(config["A"], "g"), n, trials, mean, se, ok))
    columns = ("check", "spec", "constant", "n", "trials", "mean", "se", "pass")
    _write_out(config, "concentration-check", columns, rows)
    if failed:
        print("property failure: a concentration mean exceeded 3 standard errors", file=sys.stderr)
        return 1
    return 0


def _cmd_risk_curve(config: RunConfig) -> int:
    target = _build_target(config)
    noise = _build_noise(config)
    n_grid = config["n_grid"] or (256, 512, 1024)
    pconfig = _build_penalty_config(config, target, max(n_grid))
    rows = risk_curve(
        target,
        n_grid,
        config["d"],
        config["regime"],
        config["trials"],
        _build_greedy_config(config),
        pconfig,
        noise,
        seed=config["seed"],
        design=config["design"],
        m_grid=config["m_grid"] or None,
        oracle_v=None,
    )
    with open(_out_path(config, "risk-curve"), "w", encoding="utf-8") as fh:
        write_risk_csv(rows, fh, header_lines=config.header_lines("risk-curve"))
    return 0


_COMMANDS = {
    "fit": _cmd_fit,
    "approx-rate": _cmd_approx_rate,
    "cover-stats": _cmd_cover_stats,
    "penalty-table": _cmd_penalty_table,
    "concentration-check": _cmd_concentration_check,
    "risk-curve": _cmd_risk_curve,
}


def dispatch(subcommand: str, config: RunConfig) -> int:
    """Run one subcommand; returns the process exit code."""
    if subcommand not in _COMMANDS:
        print(f"config error: unknown subcommand '{subcommand}'", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[subcommand](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CoverSizeError as exc:
        print(
            f"config error: bad value for key 'cover_m_grid' or 'cover_cap': {exc}",
            file=sys.stderr,
        )
        return 2


# ----------------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ridgepursuit",
        description="Penalized greedy pursuit over ridge-function dictionaries.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} batch job")
        p.add_argument("--config", default=None, help="path to a key=value config file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config key (repeatable; wins over the file)",
        )
        p.add_argument("--seed", default=None, help="override the seed key")
        p.add_argument("--out", default=None, help="override the output path key")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    overrides: list[tuple[str, str]] = []
    for pair in args.set:
        if "=" not in pair:
            print(f"config error: bad --set {pair!r}, expected KEY=VALUE", file=sys.stderr)
            return 2
        key, raw = pair.split("=", 1)
        overrides.append((key, raw))
    if args.seed is not None:
        overrides.append(("seed", args.seed))
    if args.out is not None:
        overrides.append(("out", args.out))

    try:
        config = parse_config(args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return dispatch(args.subcommand, config)


if __name__ == "__main__":
    sys.exit(main())
