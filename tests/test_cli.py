"""Batch CLI: config resolution, subcommand dispatch, CSV outputs, exit codes."""

import math

import pytest

from ridgepursuit import cli
from ridgepursuit.cli import ConfigError, RunConfig, SUBCOMMANDS, main, parse_config


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

    def test_bool_parsing(self):
        assert parse_config(None, overrides=[("c_report", "no")])["c_report"] is False
        with pytest.raises(ConfigError, match="'c_report'"):
            parse_config(None, overrides=[("c_report", "maybe")])


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
        assert "'cover_m_grid'" in err and "'cover_cap'" in err

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
            ("fit", "noise_scale", "-1"),
            ("approx-rate", "mc_points", "0"),
            ("fit", "lam", "nan"),
            ("cover-stats", "lam", "nan"),
            ("fit", "seed", "-1"),
            ("concentration-check", "gamma", "0"),
            ("concentration-check", "A", "-1"),
            ("penalty-table", "v_f", "-1"),
        ],
    )
    def test_out_of_range_value_names_key(self, subcommand, key, value, tmp_path, capsys):
        argv = [subcommand, "--set", f"{key}={value}", "--out", str(tmp_path / "out.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"'{key}'" in err
        assert not (tmp_path / "out.csv").exists()


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


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


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


class TestPenaltyTable:
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


class TestDefaultOutPath:
    def test_uses_subcommand_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["cover-stats", "--set", "d=1", "--set", "cover_m_grid=1"]) == 0
        assert (tmp_path / "cover_stats.csv").exists()
