import warnings
from pathlib import Path

import numpy as np
import pytest

from wmqkd.cli import EXIT_ABORT, EXIT_OK, EXIT_USAGE, main
from wmqkd.config import ConfigError, DEFAULT_CONFIG, parse_config_text
from wmqkd.estimation import CHECK_NAMES, write_signal_log
from wmqkd.harness import ProtocolConfig, channel_estimation_log, run_protocol, set_config_axis, sweep
from wmqkd.bloch import ChannelModel
from wmqkd.pointer import PointerConfig, wm_disturbance_error

QUICK = """
[run]
n_signals = 400000
master_seed = 77

[system]
eta_d = 1.0
distance_km = 0.0
"""

# the honest default device resolved: its runs pass on each of 40 seeds at
# n = 2e6, where at QUICK's n = 4e5 about one seed in eight aborts
HONEST = QUICK.replace("n_signals = 400000", "n_signals = 2000000")

ATTACK_IR = QUICK + """
[attack]
strategy = intercept_resend
p_basis = 0.5
"""

# intercept-resend resolved: its qber (expectation 0.25) has a standard error
# of about 0.011 at n = 2.6e7, under a quarter of the margin to 0.2; at QUICK's
# n = 4e5 it is about 0.08, and one seed in three reads qber <= 0.2
ATTACK_IR_RESOLVED = ATTACK_IR.replace("n_signals = 400000", "n_signals = 26000000")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_defaults_parse(self):
        cfg = parse_config_text(DEFAULT_CONFIG)
        assert cfg.pointer.g == 0.05
        assert cfg.decoy.mu == 0.48

    def test_unknown_key_diagnostic(self):
        bad = "[pointer]\ng = 0.05\ngg = 1.0\n"
        with pytest.raises(ConfigError, match=r"line 3: unknown key 'gg'"):
            parse_config_text(bad)

    def test_colon_delimited_key_diagnostic(self):
        with pytest.raises(ConfigError, match=r"line 2: bad value for \[pointer\] g"):
            parse_config_text("[pointer]\ng: fast\n")

    def test_unknown_section_diagnostic(self):
        with pytest.raises(ConfigError, match=r"unknown section \[detector\]"):
            parse_config_text("[detector]\nefficiency = 1\n")

    @pytest.mark.parametrize("text, message", [
        ("[pointer]\nG = abc\n", r"line 2: bad value for \[pointer\] g"),
        ("[pointer]\nFoo = 1\n", r"line 2: unknown key 'foo'"),
    ], ids=["bad_value", "unknown_key"])
    def test_upper_case_key_diagnostic_has_its_line(self, text, message):
        # configparser lowercases a key, the text keeps its case
        with pytest.raises(ConfigError, match=message):
            parse_config_text(text)

    @pytest.mark.parametrize("text", ["[DEFAULT]\ndelta_sec = 0.3\n", "[DEFAULT]\ng = 0.2\n[pointer]\n"],
                             ids=["alone", "before_pointer"])
    def test_default_section_is_unknown(self, text):
        # configparser would copy its keys into every section, or drop them
        with pytest.raises(ConfigError, match=r"line 1: unknown section \[DEFAULT\]"):
            parse_config_text(text)

    def test_bad_value_diagnostic(self):
        with pytest.raises(ConfigError, match=r"bad value"):
            parse_config_text("[pointer]\ng = fast\n")

    def test_invariant_violation(self):
        with pytest.raises(ConfigError):
            parse_config_text("[decoy]\nmu = 0.05\nnu = 0.4\n")

    def test_attack_section(self):
        cfg = parse_config_text(ATTACK_IR)
        assert cfg.attack.strategy == "intercept_resend"
        assert cfg.attack.p_basis == 0.5

    def test_strategy2_requires_alphas(self):
        text = QUICK + "[attack]\nstrategy = fake_wm_strategy2\np_basis = 0.9\np_h = 0.9\n"
        with pytest.raises(ConfigError):
            parse_config_text(text)
        ok = text + "alpha_x = 1.0\nalpha_z = 1.0\n"
        cfg = parse_config_text(ok)
        assert cfg.attack.alpha_x == 1.0

    def test_thresholds_merge_with_device_defaults(self):
        text = QUICK + "[thresholds]\ndelta_sec = 0.09\n"
        cfg = parse_config_text(text)
        th = cfg.resolved_thresholds()
        assert th.delta_sec == 0.09
        assert th.g_sec == pytest.approx(1.2 * cfg.pointer.g)
        assert th.sigma_sec_sq == pytest.approx((1.1 * cfg.pointer.sigma_md) ** 2)

    def test_default_text_is_library_default(self):
        assert parse_config_text(DEFAULT_CONFIG) == ProtocolConfig()

    def test_readme_shows_default_config(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        assert DEFAULT_CONFIG in readme.read_text()

    def test_cli_and_library_g_sweeps_agree(self, tmp_path):
        values = [0.05, 0.1, 0.2]
        code = main(["--out", str(tmp_path), "sweep", "--axis", "pointer.g_over_sigma",
                     "--values", ",".join(map(str, values))])
        assert code == EXIT_OK
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        column = lines[0].split(",").index("abort")
        cli_abort = [line.split(",")[column] == "true" for line in lines[1:]]
        library = sweep(ProtocolConfig(), "pointer.g_over_sigma", values)
        assert cli_abort == [row["abort"] for row in library]

    def test_readme_sweep_example_runs(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        line = next(line for line in readme.splitlines() if line.startswith("- `wmqkd sweep "))
        args = line.split("`")[1].split(" [")[0].split()[1:]  # the command up to its optional flags
        assert main(["--out", str(tmp_path), *args]) == EXIT_OK
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 1 + 3

    def test_readme_library_example_runs(self):
        """One two-sided 3-standard-error check of the honest QBER: nominal
        false-alarm rate 2.7e-3 (normal tail)."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        code = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        namespace = {}
        exec(code, namespace)
        honest, attacked = namespace["honest"], namespace["attacked"]
        pointer = ProtocolConfig().pointer
        delta_wm = wm_disturbance_error(pointer.g, pointer.sigma_md)
        assert abs(honest.qber - delta_wm) <= 3 * honest.report.delta_b_se
        assert not honest.abort
        assert attacked.abort

    def test_explicit_g_sec_survives_g_sweep(self):
        cfg = parse_config_text("[thresholds]\ng_sec = 0.07\n")
        for value in (0.05, 0.1, 0.2):
            swept = set_config_axis(cfg, "pointer.g_over_sigma", value)
            assert swept.resolved_thresholds().g_sec == 0.07
        rows = sweep(cfg, "pointer.g_over_sigma", [0.05, 0.1, 0.2])
        assert [row["abort"] for row in rows] == [False, True, True]


@pytest.mark.parametrize("config, command, message", [
    ("[run]\nn_signals = 0\n", ["run"], "n_signals must be >= 1"),
    ("[source]\np_signal = 0.5\n", ["run"], "intensity_probs must sum to 1"),
    ("[thresholds]\ndelta_sec = 0.5\n", ["run"], "delta_sec must be in (0, 0.5)"),
    ("[thresholds]\nvariance_equality_significance = 1\n", ["run"],
     "variance_equality_significance must be in (0, 1)"),
    ("[channel]\ndepolarizing_prob = 1.5\n", ["run"], "depolarizing_prob must be in [0,1]"),
    ("[system]\ne_d = 0.6\n", ["run"], "e_d must be in [0, 0.5]"),
    ("g = 0.1\n[pointer]\n", ["run"], "config parse error"),
    ("[DEFAULT]\ng = 0.2\n[pointer]\n", ["run"], "line 1: unknown section [DEFAULT]"),
    ("", ["verify", "LOG"], "empty signal log"),
    ("", ["sweep", "--axis", "pointer.g", "--values", "1,abc"],
     "bad --values list: could not convert string to float: 'abc'"),
], ids=["n_signals", "source_sum", "delta_sec", "significance", "depolarizing", "e_d",
        "no_section", "default_section", "header_only_log", "non_numeric_value"])
def test_boundary_error_is_usage_error(tmp_path, capsys, config, command, message):
    cfg = write(tmp_path, "run.ini", config)
    log = write(tmp_path, "log.csv", "s_A,b,h,omega,s_B,intensity_class\n")
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), *(log if arg == "LOG" else arg for arg in command)]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


class TestRunCommand:
    def test_honest_run_exit_zero(self, tmp_path):
        cfg = write(tmp_path, "run.ini", HONEST)
        code = main(["--config", cfg, "--out", str(tmp_path), "run"])
        assert code == EXIT_OK
        report = (tmp_path / "run_report.txt").read_text()
        assert "abort = false" in report
        assert "qber = " in report

    def test_intercept_resend_aborts_exit_three(self, tmp_path):
        cfg = write(tmp_path, "attack.ini", ATTACK_IR_RESOLVED)
        code = main(["--config", cfg, "--out", str(tmp_path), "run"])
        assert code == EXIT_ABORT
        report = (tmp_path / "run_report.txt").read_text()
        assert "abort = true" in report
        qber = float([l for l in report.splitlines() if l.startswith("qber =")][0].split("=")[1])
        assert qber > 0.2

    @pytest.mark.parametrize("settings, failing", [
        # three windows leave a signal cell of each observable empty on every
        # stream, so both couplings are NaN and every check fails; 150 km
        # leaves signal cells empty
        ("[run]\nn_signals = 3\n", CHECK_NAMES),
        ("[run]\nn_signals = 200000\n[system]\neta_d = 0.145\ndistance_km = 150\n", CHECK_NAMES),
    ], ids=["tiny_n", "150km"])
    def test_unestimable_run_is_an_abort(self, tmp_path, settings, failing):
        cfg = write(tmp_path, "run.ini", settings)
        assert main(["--config", cfg, "--out", str(tmp_path), "run"]) == EXIT_ABORT
        report = (tmp_path / "run_report.txt").read_text()
        assert "abort = true" in report and "run.key_rate = 0" in report
        for name in CHECK_NAMES:
            assert f"verdict.{name} = {'fail' if name in failing else 'pass'}" in report, name

    def test_csv_format(self, tmp_path):
        cfg = write(tmp_path, "run.ini", HONEST)
        code = main(["--config", cfg, "--out", str(tmp_path), "--format", "csv", "run"])
        assert code == EXIT_OK
        lines = (tmp_path / "run_summary.csv").read_text().splitlines()
        assert lines[0].startswith("qber,abort,")
        assert len(lines) == 2

    @pytest.mark.parametrize("settings, abort", [(HONEST, "false"), ("[run]\nn_signals = 3\n", "true")],
                             ids=["honest", "aborting"])
    def test_csv_columns_are_the_report_values(self, tmp_path, settings, abort):
        # each column holds the report's text under the key whose last dotted segment names it
        keys = ("qber", "abort", "estimate.delta_x", "estimate.delta_z", "estimate.delta_b",
                "run.sifted_key_length", "run.ground_truth_sifted_error", "run.key_rate")
        cfg = write(tmp_path, "run.ini", settings)
        for fmt in ("report", "csv"):
            main(["--config", cfg, "--out", str(tmp_path), "--format", fmt, "run"])
        report = dict(line.split(" = ") for line in (tmp_path / "run_report.txt").read_text().splitlines())
        header, values = [line.split(",") for line in (tmp_path / "run_summary.csv").read_text().splitlines()]
        assert report["abort"] == abort
        assert header == [key.rpartition(".")[2] for key in keys]
        assert values == [report[key] for key in keys]

    def test_missing_config_is_usage_error(self, tmp_path):
        code = main(["--config", str(tmp_path / "absent.ini"), "run"])
        assert code == EXIT_USAGE

    def test_bad_config_is_usage_error(self, tmp_path):
        cfg = write(tmp_path, "bad.ini", "[pointer]\nzz = 1\n")
        code = main(["--config", cfg, "run"])
        assert code == EXIT_USAGE

    NON_FINITE = [
        ("source", "p_signal", "nan"), ("pointer", "g", "nan"), ("pointer", "sigma_md", "nan"),
        ("pointer", "sigma_phi", "nan"), ("thresholds", "g_sec", "nan"),
        ("thresholds", "sigma_sec_sq", "nan"), ("system", "distance_km", "nan"),
        ("system", "loss_db_per_km", "nan"), ("system", "f_ec", "nan"),
        ("pointer", "bias_phi", "nan"), ("channel", "rotation_theta", "nan"), ("attack", "phi", "nan"),
        ("thresholds", "sigma_phi_upper", "nan"), ("pointer", "g", "inf"),
        ("pointer", "sigma_md", "inf"), ("system", "distance_km", "inf"),
    ]

    @pytest.mark.parametrize("section,key,value", NON_FINITE,
                             ids=[f"{s}-{k}" + ("" if v == "nan" else f"-{v}") for s, k, v in NON_FINITE])
    def test_nan_setting_is_usage_error(self, tmp_path, section, key, value):
        # each passed its range check and ended in a report (exit 0 or 3) or exit 2;
        # g = inf also warned that the interaction was no longer weak before it failed
        cfg = write(tmp_path, "bad.ini", f"[run]\nn_signals = 100000\n\n[{section}]\n{key} = {value}\n")
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["--config", cfg, "--out", str(out), "run"]) == EXIT_USAGE
        assert not out.exists()
        assert not [str(w.message) for w in caught]

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write(tmp_path, "run.ini", QUICK)
        main(["--config", cfg, "--out", str(tmp_path / "a"), "--format", "csv", "run"])
        main(["--config", cfg, "--out", str(tmp_path / "b"), "--format", "csv",
              "--seed", "123", "run"])
        a = (tmp_path / "a" / "run_summary.csv").read_text()
        b = (tmp_path / "b" / "run_summary.csv").read_text()
        assert a != b

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_u64_is_usage_error(self, tmp_path, capsys, seed):
        # the Philox key holds 64 bits: both seeds used to run as a seed inside the range
        out = tmp_path / "out"
        assert main(["--out", str(out), "--seed", seed, "run"]) == EXIT_USAGE
        assert "master_seed" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_nonneg_z_is_usage_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.ini", QUICK + "[thresholds]\nnonneg_z = -1\n")
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "run"]) == EXIT_USAGE
        assert "nonneg_z" in capsys.readouterr().err
        assert not out.exists()

    def test_same_invocation_byte_identical(self, tmp_path):
        cfg = write(tmp_path, "run.ini", QUICK)
        main(["--config", cfg, "--out", str(tmp_path / "a"), "--format", "csv", "run"])
        main(["--config", cfg, "--out", str(tmp_path / "b"), "--format", "csv", "run"])
        assert (tmp_path / "a" / "run_summary.csv").read_bytes() == \
            (tmp_path / "b" / "run_summary.csv").read_bytes()


class TestAttackCommand:
    def test_requires_strategy(self, tmp_path):
        cfg = write(tmp_path, "run.ini", QUICK)
        assert main(["--config", cfg, "--out", str(tmp_path), "attack"]) == EXIT_USAGE

    def test_runs_with_strategy(self, tmp_path):
        # at ATTACK_IR's n = 4e5, 6 of seeds 1000-1059 do not abort
        cfg = write(tmp_path, "attack.ini", ATTACK_IR_RESOLVED)
        assert main(["--config", cfg, "--out", str(tmp_path), "attack"]) == EXIT_ABORT


class TestSweepCommand:
    def test_analytic_sweep_csv(self, tmp_path):
        cfg = write(tmp_path, "run.ini", QUICK)
        code = main(["--config", cfg, "--out", str(tmp_path), "sweep",
                     "--axis", "channel.depolarizing_prob", "--values", "0,0.05,0.1"])
        assert code == EXIT_OK
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 4
        assert lines[0].split(",")[0] == "axis"

    def test_unknown_axis(self, tmp_path):
        cfg = write(tmp_path, "run.ini", QUICK)
        code = main(["--config", cfg, "--out", str(tmp_path), "sweep",
                     "--axis", "bogus.axis", "--values", "1"])
        assert code == EXIT_USAGE

    def test_negative_first_value(self, tmp_path):
        # a list starting with a negative number is a value, with or without '='
        cfg = write(tmp_path, "run.ini", QUICK + "[attack]\nstrategy = biased_observables\n")
        texts = []
        for form in (["--values", "-0.2,0,0.1"], ["--values=-0.2,0,0.1"]):
            out = tmp_path / form[0]
            code = main(["--config", cfg, "--out", str(out), "sweep", "--axis", "attack.phi", *form])
            assert code == EXIT_OK
            texts.append((out / "sweep.csv").read_text())
        assert texts[0] == texts[1]
        rows = texts[0].splitlines()
        assert len(rows) == 4 and rows[1].startswith("attack.phi,-0.2")

    def test_attack_axis_the_strategy_ignores(self, tmp_path, capsys):
        # under strategy = none, attack.phi would write identical rows
        cfg = write(tmp_path, "run.ini", QUICK)
        code = main(["--config", cfg, "--out", str(tmp_path), "sweep",
                     "--axis", "attack.phi", "--values", "-0.2,0,0.1"])
        assert code == EXIT_USAGE
        assert "has no effect" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_zero_coupling_names_the_cause(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path), "sweep", "--axis", "pointer.g_over_sigma",
                     "--values", "0,0.05"])
        assert code == EXIT_USAGE
        assert "coupling g = 0.0 resolves g_sec = 1.2*g to 0.0" in capsys.readouterr().err

    def test_zero_coupling_under_explicit_g_sec_is_an_aborting_row(self, tmp_path):
        # the g = 0 row estimates zero couplings and aborts; the sweep goes on
        cfg = write(tmp_path, "run.ini", "[thresholds]\ng_sec = 0.06\n")
        code = main(["--config", cfg, "--out", str(tmp_path), "sweep", "--axis", "pointer.g_over_sigma",
                     "--values", "0,0.05"])
        assert code == EXIT_OK
        header, *rows = [line.split(",") for line in (tmp_path / "sweep.csv").read_text().splitlines()]
        assert [row[header.index("abort")] for row in rows] == ["true", "false"]

    @pytest.mark.parametrize("axis, values", [("n_signals", "20000,30000"), ("master_seed", "1,2")])
    def test_integer_axis(self, tmp_path, axis, values):
        # the CLI parses every value as a float
        cfg = write(tmp_path, "run.ini", "[run]\nn_signals = 20000\n")
        code = main(["--config", cfg, "--out", str(tmp_path), "sweep", "--axis", axis,
                     "--values", values, "--mode", "monte_carlo"])
        assert code == EXIT_OK
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [[axis, v] for v in values.split(",")]

    @pytest.mark.parametrize("axis, values, message", [
        ("intensity_probs", "0.5", "axis 'intensity_probs' holds a tuple"),
        ("n_signals", "20000.5", "axis 'n_signals' takes integers, got 20000.5"),
    ])
    def test_axis_value_of_the_wrong_kind(self, tmp_path, capsys, axis, values, message):
        code = main(["--out", str(tmp_path), "sweep", "--axis", axis, "--values", values,
                     "--mode", "monte_carlo"])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_intrinsic_error_up_to_half(self, tmp_path):
        cfg = write(tmp_path, "run.ini", QUICK)
        code = main(["--config", cfg, "--out", str(tmp_path), "sweep",
                     "--axis", "system.e_d", "--values", "0.25,0.5"])
        assert code == EXIT_OK
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        header, last = lines[0].split(","), lines[-1].split(",")
        assert len(lines) == 3 and last[header.index("rate_wm_decoy")] == "0"

    def test_empty_values(self, tmp_path):
        cfg = write(tmp_path, "run.ini", QUICK)
        code = main(["--config", cfg, "--out", str(tmp_path), "sweep",
                     "--axis", "pointer.g", "--values", " "])
        assert code == EXIT_USAGE


class TestFiguresCommand:
    @pytest.mark.parametrize("which,first_col", [
        ("fig3", "g_over_sigma"), ("fig5", "qber"), ("fig6", "distance_km")])
    def test_figure_csv(self, tmp_path, which, first_col):
        code = main(["--out", str(tmp_path), "figures", "--which", which])
        assert code == EXIT_OK
        lines = (tmp_path / f"{which}.csv").read_text().splitlines()
        assert lines[0].split(",")[0] == first_col
        assert len(lines) > 10

    def test_figures_reproducible_bytes(self, tmp_path):
        main(["--out", str(tmp_path / "a"), "figures", "--which", "fig3"])
        main(["--out", str(tmp_path / "b"), "figures", "--which", "fig3"])
        assert (tmp_path / "a" / "fig3.csv").read_bytes() == \
            (tmp_path / "b" / "fig3.csv").read_bytes()

    def test_unknown_figure(self, tmp_path):
        assert main(["--out", str(tmp_path), "figures", "--which", "fig9"]) == EXIT_USAGE

    @pytest.mark.parametrize("config", ["absent.ini", "bad.ini"])
    def test_bad_config_is_usage_error(self, tmp_path, capsys, config):
        # figures reads no setting, but a config it cannot use is still an error
        write(tmp_path, "bad.ini", "[run]\nn_signals = 0\n")
        out = tmp_path / "out"
        code = main(["--config", str(tmp_path / config), "--out", str(out), "figures", "--which", "fig3"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestVerifyCommand:
    def test_honest_log_passes(self, tmp_path):
        log = channel_estimation_log(ChannelModel(), PointerConfig(0.05, 1.0), 200_000, 3)
        path = tmp_path / "log.csv"
        write_signal_log(path, log)
        code = main(["--out", str(tmp_path), "verify", str(path)])
        assert code == EXIT_OK
        assert "verdict.errors_nonnegative = pass" in (tmp_path / "verify_report.txt").read_text()

    def test_tampered_log_fails(self, tmp_path):
        log = channel_estimation_log(ChannelModel(), PointerConfig(0.05, 1.0), 200_000, 4)
        # inflate the X-conditioned readings' spread: variance checks must fire
        mask = log.b == 1
        log.omega[mask] = log.omega[mask] * 1.6
        path = tmp_path / "log.csv"
        write_signal_log(path, log)
        code = main(["--out", str(tmp_path), "verify", str(path)])
        assert code == EXIT_ABORT

    @pytest.mark.parametrize("column,value,records", [
        ("s_a", 7, "clicked_signal"),   # gave "empty or singleton conditioning cell", exit 2
        ("h", 5, "unclicked"),          # passed every check, exit 0
        ("omega", np.nan, "clicked_signal"),  # gave qber = nan, exit 3
    ])
    def test_out_of_range_log_is_usage_error(self, tmp_path, capsys, column, value, records):
        log = run_protocol(ProtocolConfig(n_signals=100_000, master_seed=7), keep_log=True).log
        pick = log.clicked & (log.intensity == 0) if records == "clicked_signal" else ~log.clicked
        row = int(np.flatnonzero(pick)[0])
        getattr(log, column)[row] = value
        path = tmp_path / "log.csv"
        write_signal_log(path, log)
        code = main(["--out", str(tmp_path), "verify", str(path)])
        assert code == EXIT_USAGE
        header_name = {"s_a": "s_A", "h": "h", "omega": "omega"}[column]
        assert f"line {row + 2}: {header_name} = " in capsys.readouterr().err

    def test_unestimable_log_is_a_verification_failure(self, tmp_path, capsys):
        # four records leave six of the eight signal cells empty
        path = tmp_path / "log.csv"
        path.write_text("s_A,b,h,omega,s_B,intensity_class\n" + "0,0,0,0.1,0,0\n1,1,1,0.2,1,0\n" * 2)
        assert main(["--out", str(tmp_path), "verify", str(path)]) == EXIT_ABORT
        assert "couplings_bounded: FAIL" in capsys.readouterr().out

    def test_short_record_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "log.csv"
        path.write_text("s_A,b,h,omega,s_B,intensity_class\n0,0,0,0.1,0\n1,0,0,0.1,0\n")
        assert main(["--out", str(tmp_path), "verify", str(path)]) == EXIT_USAGE
        assert "line 2: 5 fields, expected 6" in capsys.readouterr().err

    def test_non_numeric_field_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "log.csv"
        path.write_text("s_A,b,h,omega,s_B,intensity_class\n" + "0,0,0,0.1,0,0\n" * 70_000 + "0,0,0,,0,0\n")
        assert main(["--out", str(tmp_path), "verify", str(path)]) == EXIT_USAGE
        assert "line 70002: omega = '' is not a number" in capsys.readouterr().err

    def test_missing_log_usage_error(self, tmp_path):
        assert main(["--out", str(tmp_path), "verify", str(tmp_path / "no.csv")]) == EXIT_USAGE
