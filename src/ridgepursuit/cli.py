"""Batch front door: config parsing, subcommand dispatch, CSV emission.

Config files are plain ``key=value`` lines (``#`` starts a comment); command
line flags override file values, and may come before or after the
subcommand.  Every run writes one CSV whose leading ``#`` comment lines echo
the text each key was resolved from, so reruns with the same inputs are
byte-identical, and the echo, less ``subcommand`` and ``out``, reruns the
same job as a config file.  ``dispatch`` owns the exit-code contract: 0
success, 1 a certified property failed, 2 configuration error.  The package
is single-threaded: it starts no thread or process of its own, and BLAS
threading is left at the library default.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .approx import best_of
from .dictionary import ACTIVATION_KINDS, FieldError, cover_count_log_bound, cover_counts
from .greedy import (
    INNER_STRATEGIES,
    GreedyConfig,
    _memory_budget,
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
    _mc_check_bytes,
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
    _dataset_bytes,
    _ramp_distance_bytes,
    _ramp_draws_bytes,
    gen_dataset,
    ramp_sample_distance_to,
    sample_ramp_model,
    spectral_norm,
    write_csv,
)

__all__ = ["RunConfig", "ConfigError", "parse_config", "dispatch", "main", "SUBCOMMANDS"]


class ConfigError(ValueError):
    """A configuration problem; always names the offending key."""


# ----------------------------------------------------------------------------
# Key table: name -> (parser, default text, which the echo writes as is)
# ----------------------------------------------------------------------------


def _float(raw: str) -> float:
    val = float(raw)
    if not math.isfinite(val):
        raise ValueError(f"need a finite number, got {raw.strip()!r}")
    return val


def _choice(*options: str) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        val = raw.strip()
        if val not in options:
            raise ValueError(f"expected one of {options}, got {val!r}")
        return val

    return parse


# Upper bound on the scale keys: amps, noise_scale, lam, B, B_n, v_f and the
# penalty keys sigma_sq, eta, nu and mixed_C, and on the magnitude of each
# freqs entry; delta1 and delta2 lie in [1 / _MAX_SCALE, _MAX_SCALE], since
# gamma_tau divides by them.  The penalty formulas multiply powers of these
# keys of total degree up to eight (the mixed regime's
# v_f^4 lam^2 (B + B_n)^2, where B_n grows with noise_scale), and the ramp
# sampler's masses are amps * ||omega||_1^2, so 1e12 keeps every such product
# far inside the float64 range.
_MAX_SCALE = 1e12


def _at_least(
    parse: Callable[[str], object],
    low: float,
    strict: bool = False,
    at_most: float = math.inf,
) -> Callable[[str], object]:
    """``parse``, then range-check the value.

    Rejects numbers below ``low`` (or equal to it when ``strict``) and above
    ``at_most``.  List values are checked entry by entry; "auto" passes through.
    The returned parser carries the range as ``bounds = (low, strict, at_most)``.
    """
    relation = ">" if strict else ">="

    def checked(raw: str):
        val = parse(raw)
        for x in val if isinstance(val, tuple) else (val,):
            if x == "auto":
                continue
            if x <= low if strict else x < low:
                raise ValueError(f"need a value {relation} {format(low, 'g')}, got {x}")
            if x > at_most:
                raise ValueError(f"need a value <= {format(at_most, 'g')}, got {x}")
        return val

    checked.bounds = (low, strict, at_most)
    return checked


def _int_list(raw: str) -> tuple[int, ...]:
    """Comma-separated integers; empty text holds no integer and is rejected."""
    return tuple(int(p) for p in raw.split(","))


def _m_grid(raw: str) -> tuple[int, ...]:
    """``_int_list``, except that empty text gives (): ``risk.default_m_grid``'s grid."""
    return _int_list(raw) if raw.strip() else ()


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
    if any(abs(x) > _MAX_SCALE for r in rows for x in r):
        raise ValueError(f"need entries of magnitude <= {format(_MAX_SCALE, 'g')}")
    return rows


def _auto_float(raw: str) -> float | str:
    val = raw.strip().lower()
    if val == "auto":
        return "auto"
    return _float(raw)


_KEYS: dict[str, tuple[Callable[[str], object], str]] = {
    # run plumbing
    "seed": (_at_least(int, 0), "0"),
    "out": (str.strip, ""),
    # data
    "n": (_at_least(int, 1), "200"),
    "d": (_at_least(int, 1), "2"),
    "design": (_choice(*DESIGN_LAWS), "uniform"),
    "noise": (_choice(*NOISE_KINDS), "gaussian"),
    "noise_scale": (_at_least(_float, 0.0, at_most=_MAX_SCALE), "0.5"),
    # cosine target atoms
    "freqs": (_matrix, "1,1"),
    "amps": (_at_least(_float_list, 0.0, strict=True, at_most=_MAX_SCALE), "1"),
    "phases": (_at_least(_float_list, -math.pi, at_most=math.pi), "0"),
    # pursuit
    "m_max": (int, "8"),
    "lam": (_at_least(_float, 0.0, strict=True, at_most=_MAX_SCALE), "2"),
    "activation": (_choice(*ACTIVATION_KINDS), "ramp"),
    "strategy": (_choice(*INNER_STRATEGIES), "cover-exhaustive"),
    "restarts": (int, "32"),
    "w_kind": (_choice("linear", "power"), "linear"),
    "w_rate": (_float, "0"),
    "cover_m_grid": (_at_least(int, 1), "2"),
    "cover_cap": (_at_least(int, 1), "1000000"),
    # penalty
    "B": (_at_least(_auto_float, 0.0, at_most=_MAX_SCALE), "auto"),
    "B_n": (_at_least(_auto_float, 0.0, at_most=_MAX_SCALE), "auto"),
    "sigma_sq": (_at_least(_auto_float, 0.0, at_most=_MAX_SCALE), "auto"),
    "eta": (_at_least(_auto_float, 0.0, at_most=_MAX_SCALE), "auto"),
    "nu": (_at_least(_auto_float, 0.0, at_most=_MAX_SCALE), "auto"),
    "delta1": (_at_least(_float, 1.0 / _MAX_SCALE, at_most=_MAX_SCALE), "1"),
    "delta2": (_at_least(_float, 1.0 / _MAX_SCALE, at_most=_MAX_SCALE), "1"),
    "regime": (_choice(*REGIMES), "highdim-noise"),
    "mixed_C": (_at_least(_float, 0.0, strict=True, at_most=_MAX_SCALE), "1"),
    "tail": (_choice("auto", *TAIL_CLASSES), "auto"),
    # concentration checks
    "gamma": (_at_least(_float, 0.0, strict=True), "1"),
    "A": (_at_least(_float, 0.0, strict=True), "2"),
    "cc_trials": (_at_least(int, 2), "2000"),
    # experiment grids
    "trials": (_at_least(int, 1), "5"),
    "n_grid": (_at_least(_int_list, 1), "256,512,1024"),
    "m_grid": (_at_least(_m_grid, 0), ""),
    "ar_m_grid": (_at_least(_int_list, 1), "8,16,32,64"),
    "draws": (_at_least(int, 1), "32"),
    "mc_points": (_at_least(int, 1), "20000"),
    "v_f": (_at_least(_float, 0.0, at_most=_MAX_SCALE), "1"),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration for one run.

    ``values`` maps each key to its parsed value, and ``texts`` to the text
    that value was parsed from: the default, the config file's or the flag's,
    stripped.
    """

    values: dict
    texts: dict

    def __getitem__(self, key: str):
        return self.values[key]

    def header_lines(self, subcommand: str) -> list[str]:
        """The config echo: ``subcommand=...``, then ``key=text`` in key order.

        Each text parses back to the value the run used.
        """
        return [f"subcommand={subcommand}", *(f"{k}={self.texts[k]}" for k in sorted(self.texts))]


def parse_config(path: str | None, overrides: Sequence[tuple[str, str]] = ()) -> RunConfig:
    """Resolve defaults, then the config file, then overrides (flags win)."""
    values: dict = {}
    texts: dict = {}

    def assign(key: str, raw: str, where: str) -> None:
        if key not in _KEYS:
            raise ConfigError(f"unknown key '{key}' ({where})")
        text = raw.strip()
        try:
            if len(text.splitlines()) > 1:  # the echo holds one line per key
                raise ValueError("a value must fit on one line")
            values[key] = _KEYS[key][0](text)
        except ValueError as exc:
            raise ConfigError(f"bad value for key '{key}' ({where}): {exc}") from exc
        texts[key] = text

    for key, (_, default) in _KEYS.items():
        assign(key, default, "default")

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
                    assign(key.strip(), raw, f"{path}:{lineno}")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc

    for key, raw in overrides:
        assign(key.strip(), raw, "flag override")
    return RunConfig(values=values, texts=texts)


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


def _build_greedy_config(config: RunConfig) -> GreedyConfig:
    try:
        w = (w_linear if config["w_kind"] == "linear" else w_power)(config["w_rate"])
    except ValueError as exc:
        raise ConfigError(f"bad value for key 'w_rate': {exc}") from exc
    return GreedyConfig(
        lam=config["lam"],
        m_max=config["m_max"],
        activation=config["activation"],
        w=w,
        strategy=config["strategy"],
        restarts=config["restarts"],
        cover_m_grid=config["cover_m_grid"],
        cover_cap=config["cover_cap"],
    )


def _out_path(config: RunConfig, subcommand: str) -> str:
    return config["out"] or f"{subcommand.replace('-', '_')}.csv"


def _check_memory(key: str, need: float) -> None:
    """Raise ConfigError naming ``key`` when a run's arrays, ``need`` bytes
    in all, exceed the memory the process can allocate (``_memory_budget``);
    called before the run draws anything."""
    budget = _memory_budget()
    if need > budget:
        raise ConfigError(
            f"bad value for key '{key}': the run needs {need:.3g} bytes, above the "
            f"{budget:.3g} this process can allocate"
        )


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
# Subcommand bodies (each returns its property-failure message, or None)
# ----------------------------------------------------------------------------


def _cmd_fit(config: RunConfig) -> str | None:
    target = _build_target(config)
    noise = _build_noise(config)
    n, d = config["n"], config["d"]
    _check_memory("n", _dataset_bytes(n, d, target.n_atoms))
    data = gen_dataset(target, n, d, noise, config["seed"], design=config["design"])
    path = fit_lpgp(data, _build_greedy_config(config))
    with open(_out_path(config, "fit"), "w", encoding="utf-8") as fh:
        write_path_csv(path, fh, header_lines=config.header_lines("fit"))
    objectives = [rec.objective for rec in path.records]
    if any(b > a + 1e-9 for a, b in zip(objectives, objectives[1:])):
        return "objective increased along the path"
    return None


def _cmd_approx_rate(config: RunConfig) -> str | None:
    target = _build_target(config)
    d = config["d"]
    # The design, the target's values, two frame arrays and two cosine
    # arrays an atom, and one draw's temporaries.
    _check_memory("mc_points", _ramp_distance_bytes(config["mc_points"], d, target.n_atoms))
    _check_memory("ar_m_grid", _ramp_draws_bytes(max(config["ar_m_grid"]), d))
    v2 = spectral_norm(target, 2.0)
    # One Monte Carlo design, one evaluation of the target and one sorted
    # frame per atom, for every draw.
    distance = ramp_sample_distance_to(
        target, d, n_points=config["mc_points"], seed=config["seed"] + 7919,
        design=config["design"],
    )
    rows = []
    for m in config["ar_m_grid"]:
        result = best_of(
            lambda rng, m=m: sample_ramp_model(target, m, rng),
            distance,
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
        return "sampled error exceeded the mean bound"
    return None


def _loglog_slope(ms: Sequence[int], errs: Sequence[float]) -> float:
    lx = np.log(np.asarray(ms, dtype=float))
    ly = np.log(np.asarray(errs, dtype=float))
    if np.unique(lx).size < 2:
        return math.nan  # no slope through fewer than two distinct m
    slope, _ = np.polyfit(lx, ly, 1)
    return float(slope)


def _cmd_cover_stats(config: RunConfig) -> str | None:
    d = config["d"]
    m_grid = config["cover_m_grid"]
    lam = config["lam"]
    multisets, distinct = cover_counts(d, m_grid, lam, cap=config["cover_cap"])
    log_bound = cover_count_log_bound(2 * d + 1, m_grid)
    columns = ("d", "m_grid", "lam", "multisets", "distinct", "log_multisets", "log_bound")
    row = (d, m_grid, lam, multisets, distinct, math.log(multisets), log_bound)
    _write_out(config, "cover-stats", columns, [row])
    if math.log(multisets) > log_bound:
        return "cover count exceeded its closed-form bound"
    return None


def _cmd_penalty_table(config: RunConfig) -> str | None:
    target = _build_target(config)
    v_f = config["v_f"]
    rows = []
    for regime in REGIMES:
        for n in config["n_grid"]:
            pconfig = replace(_build_penalty_config(config, target, n), regime=regime)
            pen = penalty_for_regime(pconfig, v_f, n, config["d"])
            rows.append((regime, n, config["d"], v_f, pen.pen_per_n, pen.main_term, pen.valid))
    columns = ("regime", "n", "d", "v_f", "pen_per_n", "main_term", "valid")
    _write_out(config, "penalty-table", columns, rows)
    return None


def _cmd_concentration_check(config: RunConfig) -> str | None:
    d = config["d"]
    specs = shipped_class_specs(d=d)
    noise = _build_noise(config)
    n, trials = config["n"], config["cc_trials"]
    _check_memory(
        "cc_trials", max(_mc_check_bytes(len(s.functions), n, trials, d) for s in specs.values())
    )
    rng = np.random.default_rng(config["seed"])
    rows = []
    failed = False
    for name, spec in sorted(specs.items()):
        mean, se = mc_symmetrization_check(
            spec, config["gamma"], n, trials, design=config["design"], d=d, rng=rng
        )
        ok = mean <= 3.0 * se
        failed = failed or not ok
        rows.append(("symmetrization", name, config["gamma"], n, trials, mean, se, ok))
        mean, se = mc_noise_check(
            spec, config["A"], n, trials, noise, design=config["design"], d=d, rng=rng
        )
        ok = mean <= 3.0 * se
        failed = failed or not ok
        rows.append(("noise", name, config["A"], n, trials, mean, se, ok))
    columns = ("check", "spec", "constant", "n", "trials", "mean", "se", "pass")
    _write_out(config, "concentration-check", columns, rows)
    if failed:
        return "a concentration mean exceeded 3 standard errors"
    return None


def _cmd_risk_curve(config: RunConfig) -> str | None:
    m_grid, m_max = config["m_grid"], config["m_max"]
    if m_grid and max(m_grid) > m_max:
        # fit_and_select would fit to max(m_grid), past the echoed m_max.
        raise ConfigError(
            f"bad value for key 'm_grid': need entries <= m_max={m_max}, got {max(m_grid)}"
        )
    target = _build_target(config)
    noise = _build_noise(config)
    n_grid = config["n_grid"]
    _check_memory("n_grid", _dataset_bytes(max(n_grid), config["d"], target.n_atoms))
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
        m_grid=m_grid or None,
        oracle_v=None,
    )
    with open(_out_path(config, "risk-curve"), "w", encoding="utf-8") as fh:
        write_risk_csv(rows, fh, header_lines=config.header_lines("risk-curve"))
    return None


_COMMANDS = {
    "fit": _cmd_fit,
    "approx-rate": _cmd_approx_rate,
    "cover-stats": _cmd_cover_stats,
    "penalty-table": _cmd_penalty_table,
    "concentration-check": _cmd_concentration_check,
    "risk-curve": _cmd_risk_curve,
}


SUBCOMMANDS = tuple(_COMMANDS)


def dispatch(subcommand: str, path: str | None, flags: Sequence[str]) -> int:
    """Resolve the config from the file at ``path`` and the ``KEY=VALUE``
    ``flags``, run one subcommand, and return the process exit code.

    The exit-code contract is decided here alone: 0 on success; 1 when the
    subcommand returns a property-failure message, after writing its CSV; 2
    on a configuration error, whose message names the offending key.
    """
    try:
        config = parse_config(path, [_split_flag(flag) for flag in flags])
        failure = _COMMANDS[subcommand](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FieldError as exc:  # a library check on one key, a cover's size among them
        print(f"config error: bad value for key '{exc.field}': {exc}", file=sys.stderr)
        return 2
    if failure is not None:
        print(f"property failure: {failure}", file=sys.stderr)
        return 1
    return 0


def _split_flag(flag: str) -> tuple[str, str]:
    key, eq, raw = flag.partition("=")
    if not eq:
        raise ConfigError(f"bad --set {flag!r}, expected KEY=VALUE")
    return key, raw


# ----------------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused by every call
    of ``main``; argparse copies the ``--set`` default list before appending
    to it, so no call sees another's flags."""
    parser = argparse.ArgumentParser(
        prog="ridgepursuit",
        description="Penalized greedy pursuit over ridge-function dictionaries.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS, help="the batch job to run")
    parser.add_argument("--config", default=None, help="path to a key=value config file")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (repeatable; wins over the file)",
    )
    parser.add_argument("--seed", default=None, help="override the seed key")
    parser.add_argument("--out", default=None, help="override the output path key")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # --help (0), or a usage error argparse reported (2)
        return int(exc.code or 0)
    flags = list(args.set)  # with no --set, args.set is the parser's own default list
    if args.seed is not None:
        flags.append(f"seed={args.seed}")
    if args.out is not None:
        flags.append(f"out={args.out}")
    return dispatch(args.subcommand, args.config, flags)


if __name__ == "__main__":
    sys.exit(main())
