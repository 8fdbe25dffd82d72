"""Batch CLI: config resolution, subcommand dispatch, CSV outputs, exit codes."""

import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import mc_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ridgepursuit
from ridgepursuit import cli, risk
from ridgepursuit.cli import ConfigError, RunConfig, SUBCOMMANDS, main, parse_config
from ridgepursuit.penalty import REGIMES, PenaltyConfig, penalty_for_regime
from ridgepursuit.targets import write_csv


def read_csv_with_comments(path):
    comments, rows = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif line:
                rows.append(line.split(","))
    header, data = rows[0], rows[1:]
    return comments, header, data


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


class TestParseConfig:
    def test_defaults_without_file(self):
        cfg = parse_config(None)
        assert cfg["seed"] == 0
        assert cfg["n"] == 200
        assert cfg["regime"] == "highdim-noise"
        assert cfg["freqs"] == ((1.0, 1.0),)
        assert cfg["B"] == "auto"

    def test_empty_file_keeps_defaults(self, tmp_path):
        p = tmp_path / "empty.cfg"
        p.write_text("# nothing but a comment\n\n")
        cfg = parse_config(str(p))
        assert cfg["n"] == 200
        assert cfg["lam"] == 2.0

    def test_flag_overrides_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed=7\nn=64\n")
        cfg = parse_config(str(p), overrides=[("seed", "9")])
        assert cfg["seed"] == 9
        assert cfg["n"] == 64

    def test_unknown_key_named(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("bogus_key=3\n")
        with pytest.raises(ConfigError, match="bogus_key"):
            parse_config(str(p))

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="'regime'"):
            parse_config(None, overrides=[("regime", "bogus")])
        with pytest.raises(ConfigError, match="'n'"):
            parse_config(None, overrides=[("n", "three")])

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(str(tmp_path / "nope.cfg"))

    def test_matrix_and_list_keys(self):
        cfg = parse_config(
            None,
            overrides=[("freqs", "1,1;0.5,2"), ("amps", "1,0.5"), ("n_grid", "8,16")],
        )
        assert cfg["freqs"] == ((1.0, 1.0), (0.5, 2.0))
        assert cfg["amps"] == (1.0, 0.5)
        assert cfg["n_grid"] == (8, 16)
        with pytest.raises(ConfigError, match="'freqs'"):
            parse_config(None, overrides=[("freqs", "1,1;2")])

    def test_header_lines_echo_everything(self):
        cfg = parse_config(None, overrides=[("seed", "3")])
        lines = cfg.header_lines("fit")
        assert lines[0] == "subcommand=fit"
        assert "seed=3" in lines
        assert "regime=highdim-noise" in lines
        keys = [ln.split("=", 1)[0] for ln in lines[1:]]
        assert keys == sorted(keys)

    def test_c_report_is_not_a_key(self, tmp_path, capsys):
        # Every search scores a cover, so there is no switch for it.
        argv = ["fit", "--set", "c_report=false", "--out", str(tmp_path / "fit.csv")]
        assert main(argv) == 2
        assert "'c_report'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Entry-point plumbing
# ---------------------------------------------------------------------------


class TestConfigErrors:
    """Bad values exit 2 with a `config error:` line naming the offending key."""

    @pytest.mark.parametrize("subcommand", ["fit", "cover-stats"])
    def test_over_cap_cover(self, subcommand, tmp_path, capsys):
        argv = [subcommand, "--set", "cover_cap=10", "--out", str(tmp_path / "out.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "'cover_cap'" in err and "'cover_m_grid'" not in err

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_cover_cap_below_one_is_rejected_where_it_is_parsed(self, value):
        with pytest.raises(ConfigError, match="'cover_cap'"):
            parse_config(None, [("cover_cap", value)])

    def test_greedy_error_names_restarts(self, tmp_path, capsys):
        argv = ["fit", "--set", "strategy=projected-gradient", "--set", "restarts=0"]
        assert main(argv + ["--out", str(tmp_path / "fit.csv")]) == 2
        err = capsys.readouterr().err
        assert "'restarts'" in err and "'m_max'" not in err

    def test_penalty_error_names_delta1(self, tmp_path, capsys):
        argv = ["penalty-table", "--set", "delta1=0", "--out", str(tmp_path / "pt.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "'delta1'" in err and "'regime'" not in err

    def test_negative_w_rate_names_key(self, tmp_path, capsys):
        argv = ["fit", "--set", "w_rate=-1", "--out", str(tmp_path / "fit.csv")]
        assert main(argv) == 2
        assert "'w_rate'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subcommand, key, value",
        [
            ("fit", "n", "0"),
            ("risk-curve", "trials", "0"),
            ("approx-rate", "draws", "0"),
            ("concentration-check", "cc_trials", "1"),
            ("penalty-table", "nu", "-1"),
            ("risk-curve", "n_grid", "0"),
            ("penalty-table", "n_grid", "0"),
            ("cover-stats", "d", "0"),
            ("cover-stats", "lam", "0"),
            ("cover-stats", "cover_m_grid", "0"),
            ("concentration-check", "d", "0"),
            ("risk-curve", "m_grid", "0,-1"),
            ("risk-curve", "m_grid", "0,50"),
            ("fit", "noise_scale", "-1"),
            ("approx-rate", "mc_points", "0"),
            ("fit", "lam", "nan"),
            ("cover-stats", "lam", "nan"),
            ("fit", "seed", "-1"),
            ("concentration-check", "gamma", "0"),
            ("concentration-check", "A", "-1"),
            ("penalty-table", "v_f", "-1"),
            ("fit", "strategy", "frank-wolfe"),
            ("penalty-table", "v_f", "1e308"),
            ("penalty-table", "noise_scale", "1e308"),
            ("penalty-table", "amps", "1e308"),
            ("penalty-table", "lam", "1e308"),
            ("penalty-table", "B", "1e308"),
            ("penalty-table", "B_n", "1e308"),
            ("fit", "noise_scale", "1e308"),
            ("approx-rate", "amps", "1e308"),
            ("approx-rate", "freqs", "1e308,1"),
            ("fit", "phases", "4"),
            ("approx-rate", "phases", "-3.2"),
            ("penalty-table", "n_grid", ""),
            ("risk-curve", "n_grid", ""),
            ("approx-rate", "ar_m_grid", ""),
            ("risk-curve", "n_grid", "32,\n64"),
        ],
    )
    def test_out_of_range_value_names_key(self, subcommand, key, value, tmp_path, capsys):
        argv = [subcommand, "--set", f"{key}={value}", "--out", str(tmp_path / "out.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"'{key}'" in err
        assert not (tmp_path / "out.csv").exists()


# Small sizes at which each subcommand runs in milliseconds.
FUZZ_BASE = {
    "fit": ["n=32", "m_max=2", "restarts=2"],
    "approx-rate": ["draws=2", "mc_points=64", "ar_m_grid=2,4"],
    "cover-stats": [],
    "penalty-table": ["n_grid=64"],
    "concentration-check": ["n=16", "cc_trials=8"],
    "risk-curve": ["n_grid=16", "trials=1", "m_max=2"],
}
HOSTILE_VALUES = ("nan", "inf", "-inf", "-1", "0", "1e308", "", "abc")


def past_bounds(key):
    """Values just outside the range ``cli._KEYS`` checks for ``key``."""
    bounds = getattr(cli._KEYS[key][0], "bounds", None)
    if bounds is None:
        return []
    low, strict, at_most = bounds
    values = [repr(math.nextafter(low, -math.inf))]
    if float(low).is_integer():
        values.append(str(int(low) - 1))
    if strict:
        values.append(repr(float(low)))
    if math.isfinite(at_most):
        values.append(repr(math.nextafter(at_most, math.inf)))
    return values


@st.composite
def hostile_runs(draw):
    subcommand = draw(st.sampled_from(SUBCOMMANDS))
    key = draw(st.sampled_from(sorted(cli._KEYS)))
    value = draw(st.sampled_from(HOSTILE_VALUES + tuple(past_bounds(key))))
    return subcommand, key, value


class TestHostileValues:
    """One hostile value in one key never lets an exception escape ``main``."""

    @settings(max_examples=600)
    @given(hostile_runs())
    def test_exit_code_contract(self, run):
        subcommand, key, value = run
        argv = [subcommand]
        for pair in FUZZ_BASE[subcommand] + [f"{key}={value}"]:
            argv += ["--set", pair]
        err = io.StringIO()
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)  # `out` may be the drawn key
            try:
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
            finally:
                os.chdir(cwd)
        assert code in (0, 1, 2)
        if code == 2:
            assert any(f"'{k}'" in err.getvalue() for k in cli._KEYS), err.getvalue()
        if value in past_bounds(key):
            assert code == 2 and f"'{key}'" in err.getvalue(), err.getvalue()

    @pytest.mark.parametrize(
        "subcommand, key", [("concentration-check", "cc_trials"), ("approx-rate", "mc_points")]
    )
    def test_monte_carlo_size_is_bounded_before_it_draws(
        self, subcommand, key, tmp_path, monkeypatch, capsys
    ):
        if subcommand == "concentration-check":
            # The per-trial maxima and one block, at n = 16, d = 2, 8 trials.
            need = risk._mc_check_bytes(2, 16, 8, 2)
            settings = []
        else:
            # The design, the target's values, one draw's three temporaries,
            # and for each of the target's 3 atoms its two frame arrays and
            # its two arrays of the target's evaluation at set-up.
            need = 8.0 * 64 * (2 + 1 + 3 + 4 * 3)
            settings = ["freqs=1,1;2,0;0,3", "amps=1,0.5,0.25", "phases=0,0,0"]
        out = tmp_path / "out.csv"
        argv = [subcommand, "--out", str(out), "--set", "d=2"]
        for pair in FUZZ_BASE[subcommand] + settings:
            argv += ["--set", pair]
        monkeypatch.setattr(cli, "_memory_budget", lambda: need - 1.0)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"'{key}'" in err, err
        assert "Traceback" not in err
        assert not out.exists()
        monkeypatch.setattr(cli, "_memory_budget", lambda: need)
        assert main(argv) == 0

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="reads /proc/self/statm")
    @pytest.mark.parametrize(
        "subcommand, key, sizes",
        [
            # 10^8 per-trial maxima and their std temporary: 1.6 GB.
            ("concentration-check", "cc_trials", ("d=64", "n=256", "cc_trials=100000000")),
            # 400 million points x (2 + 1 + 3 + 4) float64: 32 GB.
            ("approx-rate", "mc_points", ("mc_points=400000000",)),
            # A dataset of 10^11 rows: X alone takes 1.6 TB.
            ("fit", "n", ("n=100000000000", "m_max=1")),
            # A dataset of 10^14 rows at the largest n_grid entry.
            ("risk-curve", "n_grid", ("trials=1", "m_max=1", "n_grid=100000000000000")),
            # Two sampled networks of 10^14 terms.
            ("approx-rate", "ar_m_grid", ("draws=1", "ar_m_grid=100000000000000")),
        ],
    )
    def test_monte_carlo_size_over_address_space_limit_exits_2(
        self, subcommand, key, sizes, tmp_path
    ):
        argv = [subcommand, "--out", str(tmp_path / "out.csv")]
        for pair in sizes:
            argv += ["--set", pair]
        out = run_main_in_subprocess(argv, headroom_mib=256)
        assert out.returncode == 2, out.stderr
        assert f"'{key}'" in out.stderr
        assert "MemoryError" not in out.stderr and "Traceback" not in out.stderr

    def test_range_checked_keys_expose_their_bounds(self):
        checked = [key for key in cli._KEYS if past_bounds(key)]
        assert {"n", "lam", "phases", "amps", "cc_trials"} <= set(checked)
        assert {"sigma_sq", "eta", "nu", "delta1", "delta2", "mixed_C"} <= set(checked)


class TestMainPlumbing:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_bad_set_flag(self, capsys):
        assert main(["cover-stats", "--set", "lam2"]) == 2
        assert "lam2" in capsys.readouterr().err

    def test_options_before_subcommand(self, tmp_path):
        out = tmp_path / "c1.csv"
        argv = ["--set", "d=1", "--set", "cover_m_grid=1", "--out", str(out), "cover-stats"]
        assert main(argv) == 0
        _, _, data = read_csv_with_comments(out)
        assert int(data[0][3]) == 3

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "cover-stats" in capsys.readouterr().out

    def test_reused_parser_keeps_no_flags(self, tmp_path):
        # The parser is built once per process; no call's flags may reach
        # a later call.
        out = tmp_path / "cover.csv"
        assert main(["cover-stats", "--set", "d=3", "--out", str(out)]) == 0
        assert main(["cover-stats", "--seed", "5", "--out", str(out)]) == 0
        assert main(["cover-stats", "--out", str(out)]) == 0
        comments, _, _ = read_csv_with_comments(out)
        assert "# d=2" in comments and "# seed=0" in comments

    def test_unknown_key_via_set(self, capsys):
        assert main(["cover-stats", "--set", "bogus=1"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_config_file(self, capsys, tmp_path):
        assert main(["cover-stats", "--config", str(tmp_path / "none.cfg")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_subcommand_inventory(self):
        assert set(SUBCOMMANDS) == {
            "fit",
            "approx-rate",
            "cover-stats",
            "penalty-table",
            "concentration-check",
            "risk-curve",
        }

    def test_import_loads_no_scipy(self):
        # scipy is a test-only dependency: importing the package and its CLI
        # in a fresh interpreter must not load it.
        src = str(Path(ridgepursuit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "import sys, ridgepursuit, ridgepursuit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def run_main_in_subprocess(argv, headroom_mib=None):
    """``main(argv)`` in a fresh interpreter, under an RLIMIT_AS of
    ``headroom_mib`` above what the interpreter maps at start if given.  Its
    stdout ends with the VmHWM before and after the run, in MiB."""
    code = (
        "import resource, sys\n"
        "from ridgepursuit import cli\n"
        "def peak():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(l.split()[1]) for l in fh if l.startswith('VmHWM:')) / 1024\n"
        f"headroom = {headroom_mib!r}\n"
        "if headroom is not None:\n"
        "    page = resource.getpagesize()\n"
        "    with open('/proc/self/statm') as fh:\n"
        "        used = int(fh.read().split()[0]) * page\n"
        "    limit = used + headroom * 2**20\n"
        "    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
        "before = peak()\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(before, peak())\n"
        "sys.exit(code)\n"
    )
    src = str(Path(ridgepursuit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120
    )


class TestCoverMemoryBound:
    """The cover's bytes are bounded before any array exists: a fit whose
    cover would not fit the address space left under RLIMIT_AS exits 2
    naming the cover keys, not with a MemoryError traceback."""

    @staticmethod
    def fit_under_address_limit(tmp_path, headroom_mib, d, settings):
        freqs = ",".join(["1"] + ["0"] * (d - 1))
        argv = ["fit", "--out", str(tmp_path / "fit.csv")]
        for kv in (f"d={d}", f"freqs={freqs}", "m_max=2", "strategy=cover-exhaustive", *settings):
            argv += ["--set", kv]
        return run_main_in_subprocess(argv, headroom_mib)

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="reads /proc/self/statm")
    @pytest.mark.parametrize(
        "headroom_mib, d, settings",
        [
            # A 1.0 GiB half cache at d = 512, n = 1024, under 512 MiB.
            (512, 512, ("n=1024",)),
            # At n = 8 the half cache of the 1.39 million rows of the
            # m_grid = 3 cover at d = 100 takes 21 MiB, but the entries, the
            # enumeration and a step's arrays over the cover take more: the
            # fit maps about 170 MiB more than at its start, over 128 MiB.
            (128, 100, ("n=8", "cover_m_grid=3", "cover_cap=2000000")),
        ],
    )
    def test_cover_over_address_space_limit_exits_2(self, tmp_path, headroom_mib, d, settings):
        out = self.fit_under_address_limit(tmp_path, headroom_mib, d, settings)
        assert out.returncode == 2, out.stderr
        assert "'cover_m_grid'" in out.stderr
        assert "MemoryError" not in out.stderr and "Traceback" not in out.stderr


class TestCoverStats:
    def test_counts_and_determinism(self, tmp_path):
        out = tmp_path / "cover.csv"
        argv = ["cover-stats", "--set", "d=2", "--set", "cover_m_grid=2", "--out", str(out)]
        assert main(argv) == 0
        comments, header, data = read_csv_with_comments(out)
        assert comments[0] == "# subcommand=cover-stats"
        assert any(c == "# d=2" for c in comments)
        assert header == ["d", "m_grid", "lam", "multisets", "distinct", "log_multisets", "log_bound"]
        (row,) = data
        assert row[:2] == ["2", "2"]
        assert int(row[3]) == 15
        assert int(row[4]) == 13
        assert float(row[5]) <= float(row[6])

        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first  # byte-identical rerun

    def test_one_dimensional(self, tmp_path):
        out = tmp_path / "c1.csv"
        assert main(["cover-stats", "--set", "d=1", "--set", "cover_m_grid=1", "--out", str(out)]) == 0
        _, _, data = read_csv_with_comments(out)
        assert int(data[0][3]) == 3

    def test_distinct_count_without_rounding_duplicates(self, tmp_path):
        # sum_k 2^k C(4,k) C(4,k) = 321 distinct vectors; lam/m = 0.325 is not
        # dyadic, so summing it four times once left near-duplicate rows.
        out = tmp_path / "c4.csv"
        argv = ["cover-stats", "--set", "d=4", "--set", "cover_m_grid=4", "--set", "lam=1.3"]
        assert main(argv + ["--out", str(out)]) == 0
        _, _, data = read_csv_with_comments(out)
        assert int(data[0][4]) == 321

    def test_large_d_enumerates_nothing(self, tmp_path, monkeypatch):
        # The counts come from closed forms: d = 1024, m_grid = 2 has 2.1M
        # multisets, whose dense cover alone would take 16 GiB.
        def forbidden(*args, **kwargs):
            raise AssertionError("cover-stats enumerated the cover")

        monkeypatch.setattr(ridgepursuit.dictionary, "enumerate_cover", forbidden)
        out = tmp_path / "big.csv"
        argv = ["cover-stats", "--set", "d=1024", "--set", "cover_m_grid=2"]
        assert main(argv + ["--set", "cover_cap=10000000", "--out", str(out)]) == 0
        _, _, data = read_csv_with_comments(out)
        assert int(data[0][3]) == math.comb(2050, 2)
        assert int(data[0][4]) == 1 + 2 * 1024 * 2 + 4 * math.comb(1024, 2)


@pytest.mark.parametrize(
    "subcommand, key, column, check",
    [
        ("cover-stats", "lam", "lam", None),
        ("penalty-table", "v_f", "v_f", None),
        ("concentration-check", "gamma", "constant", "symmetrization"),
        ("concentration-check", "A", "constant", "noise"),
    ],
)
def test_config_floats_in_data_rows_read_back_exactly(subcommand, key, column, check, tmp_path):
    # Like every other float cell, these carry 17 significant digits, so the
    # cell reads back as the value set, not rounded to six digits.
    out = tmp_path / "out.csv"
    argv = [subcommand, "--set", f"{key}=1.23456789012345", "--out", str(out)]
    for flag in FUZZ_BASE[subcommand]:
        argv += ["--set", flag]
    assert main(argv) != 2
    _, header, data = read_csv_with_comments(out)
    cells = [row[header.index(column)] for row in data if check in (None, row[0])]
    assert cells and all(cell == format(1.23456789012345, ".17g") for cell in cells)


class TestPenaltyTable:
    def test_overflowing_penalty_is_not_valid(self, tmp_path, capsys):
        # sigma_sq past 1e12 is a config error; below the CLI a penalty that
        # overflows is still marked invalid rather than written as valid.
        out = tmp_path / "pen.csv"
        assert main(["penalty-table", "--set", "sigma_sq=1e308", "--out", str(out)]) == 2
        assert "'sigma_sq'" in capsys.readouterr().err and not out.exists()
        base = PenaltyConfig(B=1.0, B_n=1.5, sigma_sq=1e308, eta=0.5, nu=1.0, lam=2.0)
        pens = [penalty_for_regime(replace(base, regime=r), 1.0, 256, 2) for r in REGIMES]
        assert not all(pen.valid for pen in pens)
        for pen in (pen for pen in pens if pen.valid):
            assert math.isfinite(pen.pen_per_n) and math.isfinite(pen.main_term)

    @pytest.mark.parametrize(
        "key, bound",
        [
            ("sigma_sq", "1e12"),
            ("eta", "1e12"),
            ("nu", "1e12"),
            ("mixed_C", "1e12"),
            ("delta1", "1e12"),
            ("delta1", "1e-12"),
            ("delta2", "1e12"),
            ("delta2", "1e-12"),
        ],
    )
    def test_penalty_keys_at_their_bounds_stay_finite(self, key, bound, tmp_path):
        out = tmp_path / "pen.csv"
        assert main(["penalty-table", "--set", f"{key}={bound}", "--out", str(out)]) == 0
        _, header, data = read_csv_with_comments(out)
        for row in (dict(zip(header, r)) for r in data):
            # At the default sizes the moderate regime's scale eps1 exceeds lam.
            if row["regime"] != "moderate":
                assert row["valid"] == "true" and math.isfinite(float(row["pen_per_n"]))

    def test_all_regimes_all_sizes(self, tmp_path):
        out = tmp_path / "pen.csv"
        assert main(["penalty-table", "--set", "n_grid=64,256", "--out", str(out)]) == 0
        _, header, data = read_csv_with_comments(out)
        assert header == ["regime", "n", "d", "v_f", "pen_per_n", "main_term", "valid"]
        assert len(data) == 4 * 2
        regimes = {row[0] for row in data}
        assert regimes == {"highdim-noise", "no-noise", "moderate", "mixed"}
        for row in data:
            assert row[6] in ("true", "false")
            if row[6] == "true":
                assert math.isfinite(float(row[4]))


class TestFit:
    def test_small_run(self, tmp_path):
        out = tmp_path / "fit.csv"
        argv = [
            "fit",
            "--set", "n=64",
            "--set", "m_max=3",
            "--set", "noise_scale=0.3",
            "--seed", "4",
            "--out", str(out),
        ]
        assert main(argv) == 0
        comments, header, data = read_csv_with_comments(out)
        assert comments[0] == "# subcommand=fit"
        assert "# seed=4" in comments
        assert header == ["m", "v_m", "alpha", "beta", "inner_value", "train_mse", "penalty", "objective"]
        assert [int(r[0]) for r in data] == [1, 2, 3]
        objectives = [float(r[7]) for r in data]
        assert all(a >= b - 1e-9 for a, b in zip(objectives, objectives[1:]))

    @staticmethod
    def fit_under_warnings_as_errors(sets, tmp_path):
        """Run ``fit`` with the given --set pairs in a fresh interpreter that
        treats warnings as errors; it must exit 0, silent, with 8 rows."""
        src = str(Path(ridgepursuit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = [sys.executable, "-W", "error", "-m", "ridgepursuit.cli", "fit"]
        for kv in ("d=4", "freqs=1,-1,0.5,0.5", *sets):
            argv += ["--set", kv]
        out = subprocess.run(
            argv + ["--out", str(tmp_path / "fit.csv")], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        assert out.stderr == ""
        _, _, data = read_csv_with_comments(tmp_path / "fit.csv")
        assert len(data) == 8

    @pytest.mark.parametrize("kind", ["ramp", "sine", "tanh"])
    def test_huge_lam_fit_under_warnings_as_errors(self, kind, tmp_path):
        # The cover is scored in float32; at lam = 1e12 no overflow or
        # invalid-value warning may escape a run that treats warnings as
        # errors.
        self.fit_under_warnings_as_errors(("lam=1e12", f"activation={kind}"), tmp_path)

    @pytest.mark.parametrize("scale", ["lam=1e12", "lam=1e-12", "noise_scale=1e12"])
    @pytest.mark.parametrize("kind", ["ramp", "sine", "tanh"])
    def test_extreme_scale_ascent_under_warnings_as_errors(self, kind, scale, tmp_path):
        # The ascent's step doubles on each accepted iteration, up to 2^50
        # times its first value; no overflow or invalid-value warning may
        # escape at the extreme scales either.
        sets = (scale, f"activation={kind}", "strategy=projected-gradient")
        self.fit_under_warnings_as_errors(sets, tmp_path)

    def test_detects_objective_regression(self, tmp_path, monkeypatch, capsys):
        class FakeRec:
            def __init__(self, obj):
                self.objective = obj

        class FakePath:
            records = (FakeRec(1.0), FakeRec(2.0))

        monkeypatch.setattr(cli, "fit_lpgp", lambda data, config: FakePath())
        monkeypatch.setattr(cli, "write_path_csv", lambda path, fh, header_lines: None)
        out = tmp_path / "fit.csv"
        assert main(["fit", "--set", "n=8", "--out", str(out)]) == 1
        assert "property failure" in capsys.readouterr().err


class TestApproxRate:
    def test_small_run(self, tmp_path):
        out = tmp_path / "ar.csv"
        argv = [
            "approx-rate",
            "--set", "ar_m_grid=8,16",
            "--set", "draws=4",
            "--set", "mc_points=2000",
            "--out", str(out),
        ]
        assert main(argv) == 0
        comments, header, data = read_csv_with_comments(out)
        assert header == ["m", "mc_sq_error", "bound"]
        assert len(data) == 2
        for row in data:
            assert float(row[1]) <= float(row[2])
        assert any(c.startswith("# log_log_slope=") for c in comments)

    def test_single_m_writes_nan_slope(self, tmp_path, recwarn):
        out = tmp_path / "ar.csv"
        argv = ["approx-rate", "--set", "ar_m_grid=8", "--set", "draws=2"]
        assert main(argv + ["--set", "mc_points=200", "--out", str(out)]) == 0
        comments, _, data = read_csv_with_comments(out)
        assert len(data) == 1
        assert "# log_log_slope=nan" in comments
        assert len(recwarn) == 0

    def test_high_frequency_atom(self, tmp_path, recwarn):
        # 223 cosine zeros on [0, 1]: past the old quadrature's interval limit.
        out = tmp_path / "ar.csv"
        argv = ["approx-rate", "--set", "freqs=700,1", "--set", "ar_m_grid=4"]
        assert main(argv + ["--set", "draws=2", "--set", "mc_points=100", "--out", str(out)]) == 0
        _, _, data = read_csv_with_comments(out)
        assert len(data) == 1 and all(math.isfinite(float(x)) for x in data[0])
        assert len(recwarn) == 0

    def test_design_key_picks_the_monte_carlo_design(self, tmp_path):
        # The Monte Carlo points follow ``design``; before, approx-rate drew
        # a uniform design whatever the header echoed.
        argv = ["approx-rate", "--set", "ar_m_grid=8,16", "--set", "draws=4"]
        argv += ["--set", "mc_points=2000"]
        rows = {}
        for name, extra in (
            ("unset", []),
            ("uniform", ["--set", "design=uniform"]),
            ("rademacher", ["--set", "design=rademacher"]),
        ):
            out = tmp_path / f"{name}.csv"
            assert main(argv + extra + ["--out", str(out)]) == 0
            rows[name] = read_csv_with_comments(out)[2]
        assert rows["uniform"] == rows["unset"]
        assert [r[0] for r in rows["rademacher"]] == [r[0] for r in rows["uniform"]]
        assert [r[1] for r in rows["rademacher"]] != [r[1] for r in rows["uniform"]]

    def test_rejects_nonpositive_m(self, capsys):
        assert main(["approx-rate", "--set", "ar_m_grid=0,8"]) == 2
        assert "ar_m_grid" in capsys.readouterr().err


class TestConcentrationCheck:
    def test_six_rows_all_pass(self, tmp_path):
        out = tmp_path / "cc.csv"
        argv = [
            "concentration-check",
            "--set", "cc_trials=400",
            "--set", "n=100",
            "--seed", "12",
            "--out", str(out),
        ]
        assert main(argv) == 0
        _, header, data = read_csv_with_comments(out)
        assert header == ["check", "spec", "constant", "n", "trials", "mean", "se", "pass"]
        assert len(data) == 6
        assert {row[0] for row in data} == {"symmetrization", "noise"}
        assert {row[1] for row in data} == {"zero", "singleton", "pair"}
        assert all(row[7] == "true" for row in data)

    @pytest.mark.parametrize("design", ["uniform", "rademacher"])
    def test_rows_match_the_whole_array_oracle(self, design, tmp_path):
        # Both checks on each shipped class in name order, on one generator
        # seeded by --seed: the oracle draws for the zero class too, and its
        # rows are the CLI's, byte for byte.
        out = tmp_path / "cc.csv"
        overrides = [("d", "3"), ("n", "40"), ("cc_trials", "300"), ("design", design)]
        argv = ["concentration-check", "--seed", "17", "--out", str(out)]
        for key, value in overrides:
            argv += ["--set", f"{key}={value}"]
        assert main(argv) == 0
        config = parse_config(None, overrides=overrides)
        noise = cli._build_noise(config)
        rng = np.random.default_rng(17)
        rows = []
        gamma, A = config["gamma"], config["A"]
        for name, spec in sorted(risk.shipped_class_specs(d=3).items()):
            sym = mc_oracle.mc_symmetrization_check(spec, gamma, 40, 300, design, 3, rng)
            eps = mc_oracle.mc_noise_check(spec, A, 40, 300, noise, design, 3, rng)
            for check, constant, (mean, se) in (("symmetrization", gamma, sym), ("noise", A, eps)):
                rows.append((check, name, constant, 40, 300, mean, se, mean <= 3.0 * se))
        want = io.StringIO()
        write_csv(want, ("check", "spec", "constant", "n", "trials", "mean", "se", "pass"), rows)
        got = "".join(line for line in out.read_text().splitlines(True) if line[0] != "#")
        assert got == want.getvalue()

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_peak_memory_does_not_grow_with_d(self, tmp_path):
        # At d = 64, n = 256 and 2,000 trials the whole design and its copy
        # took 262 MB each, and the run's peak RSS grew by about 520 MiB.
        # One pass over blocks of whole trials keeps the per-trial maxima
        # (16 kB) and one block.
        argv = ["concentration-check", "--out", str(tmp_path / "cc.csv")]
        for pair in ("d=64", "n=256", "cc_trials=2000"):
            argv += ["--set", pair]
        out = run_main_in_subprocess(argv)
        assert out.returncode == 0, out.stderr
        before, after = map(float, out.stdout.split())
        assert after - before < 64.0

    def test_failure_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            cli, "mc_symmetrization_check", lambda *a, **k: (1.0, 0.01)
        )
        out = tmp_path / "cc.csv"
        assert main(["concentration-check", "--set", "cc_trials=10", "--out", str(out)]) == 1
        assert "property failure" in capsys.readouterr().err
        _, _, data = read_csv_with_comments(out)  # CSV still written
        assert any(row[7] == "false" for row in data)


class TestRiskCurve:
    def test_tiny_run(self, tmp_path):
        out = tmp_path / "risk.csv"
        argv = [
            "risk-curve",
            "--set", "n_grid=32,64",
            "--set", "trials=1",
            "--set", "m_max=2",
            "--set", "noise_scale=0.3",
            "--out", str(out),
        ]
        assert main(argv) == 0
        _, header, data = read_csv_with_comments(out)
        assert header == list(
            ("n", "d", "trial", "regime", "m_hat", "v_hat", "test_mse", "pen_per_n", "resolvability_proxy")
        )
        assert [(int(r[0]), int(r[2])) for r in data] == [(32, 0), (64, 0)]
        for row in data:
            assert row[3] == "highdim-noise"
            assert float(row[6]) >= 0.0

    def test_dimension_mismatch_is_config_error(self, capsys):
        assert main(["risk-curve", "--set", "d=3"]) == 2  # freqs default has 2 coords
        assert "freqs" in capsys.readouterr().err


# Small runs of every subcommand; the CSV must not depend on anything but the config.
SMALL_RUNS = {
    "fit": ["--set", "n=64", "--set", "m_max=3"],
    "approx-rate": ["--set", "ar_m_grid=4,8", "--set", "draws=2", "--set", "mc_points=500"],
    "cover-stats": ["--set", "d=2"],
    "penalty-table": ["--set", "n_grid=64,256"],
    "concentration-check": ["--set", "cc_trials=50", "--set", "n=32"],
    "risk-curve": ["--set", "n_grid=32", "--set", "trials=1", "--set", "m_max=2"],
}


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_rerun_is_byte_identical(subcommand, tmp_path):
    out = tmp_path / "out.csv"
    argv = [subcommand, *SMALL_RUNS[subcommand], "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first


# SMALL_RUNS, plus a fit whose values have more digits than a "g" echo keeps.
ECHO_RUNS = {
    **{subcommand: [subcommand, *flags] for subcommand, flags in SMALL_RUNS.items()},
    "fit-long-digits": [
        "fit",
        "--set", "n=64",
        "--set", "m_max=3",
        "--set", "lam=1.23456789",
        "--set", "noise_scale=0.123456789",
        "--set", "freqs=1.2345678901234567,-0.98765432109876543",
    ],
}


@pytest.mark.parametrize("argv", ECHO_RUNS.values(), ids=list(ECHO_RUNS))
def test_rerun_from_echo_is_byte_identical(argv, tmp_path):
    # The echoed lines, less subcommand and out, rerun the job as a config
    # file: the data rows and the rest of the echo come out the same.
    first, second, config = tmp_path / "first.csv", tmp_path / "second.csv", tmp_path / "echo.cfg"
    assert main([*argv, "--out", str(first)]) == 0
    echo = [c[2:] for c in read_csv_with_comments(first)[0]]
    keys = set(cli._KEYS) - {"out"}
    config.write_text("".join(f"{line}\n" for line in echo if line.split("=")[0] in keys))
    assert main([argv[0], "--config", str(config), "--out", str(second)]) == 0

    def without_out(path):
        return [ln for ln in path.read_text().splitlines() if not ln.startswith("# out=")]

    assert without_out(second) == without_out(first)


class TestDefaultOutPath:
    def test_uses_subcommand_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["cover-stats", "--set", "d=1", "--set", "cover_m_grid=1"]) == 0
        assert (tmp_path / "cover_stats.csv").exists()
