import functools
import math

import numpy as np
import pytest

from wmqkd import estimation
from wmqkd.bloch import ChannelModel, true_error_rates
from wmqkd.estimation import (
    _delta_gradients,
    ConditionedStats,
    EstimationError,
    EstimationThresholds,
    INTENSITY_DECOY,
    INTENSITY_SIGNAL,
    INTENSITY_VACUUM,
    SIGNAL_LOG_HEADER,
    SignalLog,
    build_report,
    compute_qber,
    condition_and_average,
    corrected_error_rate,
    coupling_standard_errors,
    dark_count_fraction,
    delta_standard_errors,
    estimate_couplings,
    estimate_error_rates,
    exact_stats,
    merge_moments,
    read_signal_log,
    report_from_stats,
    write_signal_log,
)
from wmqkd.harness import ProtocolConfig, analytic_report, channel_estimation_log, exact_cell_statistics
from wmqkd.pointer import PointerConfig

G = 0.05
EXPECT_PLUS_0 = 0.5 + 1 / (2 * math.sqrt(2))


def make_log(n=4096, omega=None, seed=0, intensity=None):
    rng = np.random.default_rng(seed)
    s_a = rng.integers(0, 2, n).astype(np.uint8)
    b = rng.integers(0, 2, n).astype(np.uint8)
    h = rng.integers(0, 2, n).astype(np.uint8)
    if omega is None:
        omega = rng.normal(0, 1, n)
    s_b = rng.integers(0, 2, n).astype(np.int8)
    if intensity is None:
        intensity = np.zeros(n, dtype=np.uint8)
    return SignalLog(s_a, b, h, omega, s_b, intensity)


def exact_channel_stats(channel, g=G, sigma=1.0):
    cfg = ProtocolConfig(pointer=PointerConfig(g=g, sigma_md=sigma), channel=channel)
    mean, var = exact_cell_statistics(cfg)
    return exact_stats(mean, var)


class TestConditioning:
    def test_constant_readings(self):
        log = make_log(omega=np.full(4096, 0.5))
        stats = condition_and_average(log)[INTENSITY_SIGNAL]
        assert np.all(stats.mean == 0.5)
        assert np.all(stats.var == 0.0)
        assert stats.count.sum() == 4096

    def test_alternating_cell_variance(self):
        # long alternating {0,1} readings: mean 1/2, variance -> 1/4
        n = 4096
        log = SignalLog(np.zeros(n), np.zeros(n), np.zeros(n),
                        np.arange(n) % 2, np.zeros(n), np.zeros(n))
        with pytest.raises(EstimationError):
            build_report(log, EstimationThresholds.for_device(G, 1.0))  # 7 empty cells: abort-grade
        # pack the same readings into every cell instead
        rng = np.random.default_rng(1)
        s_a = rng.integers(0, 2, n).astype(np.uint8)
        b = rng.integers(0, 2, n).astype(np.uint8)
        h = rng.integers(0, 2, n).astype(np.uint8)
        log = SignalLog(s_a, b, h, np.arange(n) % 2, np.zeros(n), np.zeros(n))
        stats = condition_and_average(log)[INTENSITY_SIGNAL]
        assert stats.mean == pytest.approx(np.full((2, 2, 2), 0.5), abs=0.05)
        assert stats.var == pytest.approx(np.full((2, 2, 2), 0.25), abs=0.01)

    def test_monte_carlo_cell_mean(self):
        # noiseless channel: the (bit 0, Z, H+) cell mean tends to g <H+>
        log = channel_estimation_log(ChannelModel(), PointerConfig(G, 1.0), 400_000, 42)
        stats = condition_and_average(log)[INTENSITY_SIGNAL]
        n_cell = stats.count[0, 0, 0]
        se = math.sqrt(stats.var[0, 0, 0] / n_cell)
        assert stats.mean[0, 0, 0] == pytest.approx(G * EXPECT_PLUS_0, abs=4 * se)

    def test_no_click_records_are_skipped(self):
        log = make_log()
        log.s_b[::5] = -1
        got = condition_and_average(log)[INTENSITY_SIGNAL]
        want = condition_and_average(log.subset(log.clicked))[INTENSITY_SIGNAL]
        for name in ("mean", "var", "count"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_one_pass_matches_per_class_reference(self):
        # the masked two-pass moments of one class at a time, as a reference
        def reference(log, intensity):
            keep = log.clicked & (log.intensity == intensity)
            cell = (log.s_a.astype(np.int64) * 4 + log.b * 2 + log.h)[keep]
            omega = log.omega[keep]
            count = np.bincount(cell, minlength=8).astype(float)
            mean = np.bincount(cell, weights=omega, minlength=8) / count
            m2 = np.bincount(cell, weights=(omega - mean[cell]) ** 2, minlength=8)
            return mean.reshape(2, 2, 2), (m2 / (count - 1.0)).reshape(2, 2, 2), count.reshape(2, 2, 2)

        rng = np.random.default_rng(90)  # make_log(seed=9) draws its own stream
        n = 20_000
        intensity = rng.integers(0, 2, n).astype(np.uint8)
        intensity[:3] = INTENSITY_VACUUM
        log = make_log(n=n, seed=9, intensity=intensity)
        log.s_b[rng.random(n) < 0.3] = -1
        stats = condition_and_average(log)
        assert len(stats) == 3
        for code in (INTENSITY_SIGNAL, INTENSITY_DECOY):
            got = stats[code]
            for name, want in zip(("mean", "var", "count"), reference(log, code)):
                assert getattr(got, name).tobytes() == want.tobytes(), (code, name)
        # three vacuum records fill at most three of its eight cells
        assert stats[INTENSITY_VACUUM] is None

    def test_permutation_invariance(self):
        log = make_log(seed=3)
        stats = condition_and_average(log)[INTENSITY_SIGNAL]
        perm = np.random.default_rng(4).permutation(len(log))
        stats_p = condition_and_average(log.subset(perm))[INTENSITY_SIGNAL]
        assert stats_p.mean == pytest.approx(stats.mean, abs=1e-12)
        assert stats_p.var == pytest.approx(stats.var, abs=1e-12)
        assert np.all(stats_p.count == stats.count)

    def test_partitioned_fold_bit_stable(self):
        log = make_log(n=50_000, seed=5)
        bounds = np.linspace(0, len(log), 8).astype(int)

        def fold():
            pieces = [condition_and_average(log.subset(slice(lo, hi)))[INTENSITY_SIGNAL]
                      for lo, hi in zip(bounds[:-1], bounds[1:])]
            return functools.reduce(merge_moments, pieces)

        a = fold()
        b = fold()
        assert np.all(a.mean == b.mean) and np.all(a.var == b.var)
        whole = condition_and_average(log)[INTENSITY_SIGNAL]
        assert a.mean == pytest.approx(whole.mean, abs=1e-12)
        assert a.var == pytest.approx(whole.var, rel=1e-10)

    def test_merge_moments_exact(self):
        rng = np.random.default_rng(6)
        x = rng.normal(2.0, 3.0, (2, 2, 2, 100))
        halves = []
        for sl in (slice(0, 60), slice(60, 100)):
            part = x[..., sl]
            halves.append(ConditionedStats(
                part.mean(axis=-1), part.var(axis=-1, ddof=1),
                np.full((2, 2, 2), float(part.shape[-1]))))
        merged = merge_moments(halves[0], halves[1])
        assert merged.mean == pytest.approx(x.mean(axis=-1), abs=1e-12)
        assert merged.var == pytest.approx(x.var(axis=-1, ddof=1), rel=1e-12)


class TestCouplings:
    def test_exact_complement_identity(self):
        stats = exact_channel_stats(ChannelModel())
        gp, gm = estimate_couplings(stats)
        assert gp == pytest.approx(G, abs=1e-15)
        assert gm == pytest.approx(G, abs=1e-15)

    def test_dark_deflation_cancels(self):
        stats = exact_channel_stats(ChannelModel())
        halved = type(stats)(0.5 * stats.mean, stats.var, stats.count)
        gp, gm = estimate_couplings(halved, dark_fraction=0.5)
        assert gp == pytest.approx(G, abs=1e-15)
        assert gm == pytest.approx(G, abs=1e-15)

    def test_all_dark_error(self):
        stats = exact_channel_stats(ChannelModel())
        with pytest.raises(EstimationError):
            estimate_couplings(stats, dark_fraction=1.0)

    def test_monte_carlo_recovery(self):
        log = channel_estimation_log(ChannelModel(), PointerConfig(G, 1.0), 400_000, 7)
        stats = condition_and_average(log)[INTENSITY_SIGNAL]
        gp, gm = estimate_couplings(stats)
        se_p, se_m = coupling_standard_errors(stats)
        assert gp == pytest.approx(G, abs=3 * se_p)
        assert gm == pytest.approx(G, abs=3 * se_m)


class TestErrorRates:
    def test_noiseless_exact(self):
        stats = exact_channel_stats(ChannelModel())
        rates = estimate_error_rates(stats, G, G)
        assert rates.delta_x == pytest.approx(0.0, abs=1e-14)
        assert rates.delta_z == pytest.approx(0.0, abs=1e-14)

    def test_depolarizing_exact(self):
        stats = exact_channel_stats(ChannelModel(depolarizing_prob=0.2))
        rates = estimate_error_rates(stats, G, G)
        assert rates.delta_x == pytest.approx(0.1, abs=1e-14)
        assert rates.delta_z == pytest.approx(0.1, abs=1e-14)
        assert rates.delta_b == pytest.approx(0.1, abs=1e-14)

    def test_round_trip_random_channels(self):
        # exact expectations reproduce the channel's true rates to 1e-12
        rng = np.random.default_rng(8)
        for _ in range(200):
            chan = ChannelModel(float(rng.uniform(0, 0.9)), float(rng.uniform(-math.pi, math.pi)))
            stats = exact_channel_stats(chan)
            gp, gm = estimate_couplings(stats)
            rates = estimate_error_rates(stats, gp, gm)
            dx, dz = true_error_rates(chan)
            assert abs(rates.delta_x - dx) < 1e-12
            assert abs(rates.delta_z - dz) < 1e-12

    def test_biased_observables_cross_module(self):
        from wmqkd.adversary import AttackConfig, biased_estimates
        cfg = ProtocolConfig(
            pointer=PointerConfig(G, 1.0),
            channel=ChannelModel(depolarizing_prob=0.2),
            attack=AttackConfig(strategy="biased_observables", p_h=1.0, phi=0.1, phi_prime=0.1),
        )
        mean, var = exact_cell_statistics(cfg)
        stats = exact_stats(mean, var)
        gp, gm = estimate_couplings(stats)
        rates = estimate_error_rates(stats, gp, gm)
        dx, dz = biased_estimates(0.8, 0.8, 0.1)
        assert rates.delta_x == pytest.approx(dx, abs=1e-12)
        assert rates.delta_z == pytest.approx(dz, abs=1e-12)

    def test_positive_couplings_required(self):
        stats = exact_channel_stats(ChannelModel())
        with pytest.raises(EstimationError):
            estimate_error_rates(stats, 0.0, G)


class TestDarkCounts:
    def test_fraction(self):
        assert dark_count_fraction(0.0273, 6e-6) == pytest.approx(2.1978e-4, rel=1e-3)
        assert dark_count_fraction(0.5, 0.5) == 1.0
        assert dark_count_fraction(0.5, 0.0) == 0.0
        with pytest.raises(EstimationError):
            dark_count_fraction(0.0, 0.0)
        with pytest.raises(EstimationError):
            dark_count_fraction(0.1, 0.2)

    def test_corrected_rate(self):
        assert corrected_error_rate(0.02, 0.1) == pytest.approx(0.068)
        assert corrected_error_rate(0.3, 0.0) == 0.3
        assert corrected_error_rate(0.5, 0.7) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            corrected_error_rate(0.1, 1.5)

    def test_qber(self):
        assert compute_qber(0.05, 3.123e-4, 0.0) == pytest.approx(0.0503123)
        assert compute_qber(0.07, 0.0, 0.3) == 0.07
        with pytest.raises(ValueError):
            compute_qber(0.05, -0.1, 0.0)


class TestVerification:
    def honest_report(self, n=400_000, seed=11, channel=None):
        log = channel_estimation_log(channel or ChannelModel(), PointerConfig(G, 1.0), n, seed)
        return build_report(log, EstimationThresholds.for_device(G, 1.0))

    def test_honest_run_passes(self):
        report = self.honest_report()
        assert report.verdicts.all_pass
        assert not report.abort

    def test_negative_estimate_fails_nonneg(self):
        # constructed negative delta: flip the sign of the X-cell contrast
        stats = exact_channel_stats(ChannelModel())
        mean = stats.mean.copy()
        mean[:, 1, :] = mean[::-1, 1, :]  # swap the X-basis bits: r_x^+ -> -1
        report = report_from_stats(
            exact_stats(mean, stats.var),
            EstimationThresholds.for_device(G, 1.0),
            {"signal": 1.0, "decoy": 0.0, "vacuum": 0.0},
        )
        assert report.rates.delta_x > 0.5  # mirrored contrast
        mean2 = stats.mean.copy()
        mean2[0, 1, 0] = mean2[1, 1, 0]  # kill the H+ X contrast asymmetrically
        report2 = report_from_stats(
            exact_stats(mean2, stats.var),
            EstimationThresholds.for_device(G, 1.0),
            {"signal": 1.0, "decoy": 0.0, "vacuum": 0.0},
        )
        assert not report2.verdicts.errors_nonnegative or report2.rates.delta_x >= 0

    def test_biased_tripwire_fails_nonneg(self):
        from wmqkd.adversary import AttackConfig
        cfg = ProtocolConfig(
            pointer=PointerConfig(G, 1.0),
            channel=ChannelModel(),
            attack=AttackConfig(strategy="biased_observables", p_h=1.0,
                                phi=0.6, phi_prime=0.6),
        )
        report = analytic_report(cfg)
        assert report.rates.delta_x < 0
        assert not report.verdicts.errors_nonnegative
        assert report.abort

    def test_coupling_cap(self):
        stats = exact_channel_stats(ChannelModel())
        report = report_from_stats(
            exact_stats(stats.mean * 1.5, stats.var),
            EstimationThresholds.for_device(G, 1.0),
            {"signal": 1.0, "decoy": 0.0, "vacuum": 0.0},
        )
        assert not report.verdicts.couplings_bounded
        assert report.abort

    def test_variance_level_cap(self):
        stats = exact_channel_stats(ChannelModel())
        report = report_from_stats(
            exact_stats(stats.mean, stats.var * 1.4),
            EstimationThresholds.for_device(G, 1.0),
            {"signal": 1.0, "decoy": 0.0, "vacuum": 0.0},
        )
        assert not report.verdicts.variances_bounded

    def test_variance_equality_rejects_strategy1_ratio(self):
        from wmqkd.adversary import AttackConfig
        from wmqkd.harness import run_protocol
        cfg = ProtocolConfig(
            n_signals=1_000_000, master_seed=13,
            attack=AttackConfig(strategy="fake_wm_strategy1", p_h=0.9, alpha=1.0),
            intensity_probs=(1.0, 0.0, 0.0),
        )
        res = run_protocol(cfg)
        v = res.report.verdicts
        assert not v.variances_equal
        assert v.max_variance_ratio == pytest.approx(1.5625, rel=0.05)

    def test_nan_reading_fails_variance_equality(self):
        # the NaN sits outside the first cell, so its p-values are not the first
        log = channel_estimation_log(ChannelModel(), PointerConfig(G, 1.0), 100_000, 12)
        log.omega[np.flatnonzero((log.s_a == 1) & (log.b == 1) & (log.h == 1))[0]] = np.nan
        report = build_report(log, EstimationThresholds.for_device(G, 1.0))
        assert not report.verdicts.variances_equal

    def test_unresolved_device_thresholds_rejected(self):
        stats = exact_channel_stats(ChannelModel())
        with pytest.raises(ValueError, match="with_device_defaults"):
            report_from_stats(stats, EstimationThresholds(),
                              {"signal": 1.0, "decoy": 0.0, "vacuum": 0.0})

    def test_abort_on_high_qber(self):
        report = self.honest_report(channel=ChannelModel(depolarizing_prob=0.4))
        assert report.abort
        assert report.qber > 0.11


def numeric_delta_gradients(stats, dark_fraction):
    """Central differences of (delta_x, delta_z, delta_b) through the estimator itself."""
    def evaluate(mean):
        s = ConditionedStats(mean, stats.var, stats.count)
        gp, gm = estimate_couplings(s, dark_fraction)
        r = estimate_error_rates(s, gp, gm, dark_fraction)
        return np.array([r.delta_x, r.delta_z, r.delta_b])

    grads = np.zeros((3, 2, 2, 2))
    scale = max(1e-6, 1e-6 * float(np.max(np.abs(stats.mean))))
    for idx in np.ndindex(2, 2, 2):
        bump = np.zeros_like(stats.mean)
        bump[idx] = scale
        grads[(slice(None),) + idx] = (evaluate(stats.mean + bump) - evaluate(stats.mean - bump)) / (2 * scale)
    return grads


class TestStandardErrors:
    def test_closed_form_gradient_matches_central_difference(self):
        from wmqkd.harness import run_protocol
        from wmqkd.keyrate import SystemParams
        report = run_protocol(ProtocolConfig(
            n_signals=500_000, master_seed=41, channel=ChannelModel(depolarizing_prob=0.1),
            system=SystemParams(eta_d=1.0, distance_km=0.0, y0=0.02))).report
        assert report.dark_fraction_signal > 0.0
        stats = ConditionedStats(report.cell_mean, report.cell_var, report.cell_count)
        want = numeric_delta_gradients(stats, report.dark_fraction_signal)
        assert _delta_gradients(stats) == pytest.approx(want, rel=1e-6)

    def test_exact_gives_zero(self):
        stats = exact_channel_stats(ChannelModel())
        assert delta_standard_errors(stats) == (0.0, 0.0, 0.0)

    def test_scaling_with_n(self):
        # the plug-in se is evaluated at the estimated couplings, so average a
        # few seeds before checking the O(n^-1/2) scaling
        def mean_se(n, seeds):
            return np.mean([
                delta_standard_errors(condition_and_average(
                    channel_estimation_log(ChannelModel(), PointerConfig(G, 1.0), n, s))[INTENSITY_SIGNAL])[0]
                for s in seeds])
        se_small = mean_se(50_000, (21, 22, 23))
        se_big = mean_se(200_000, (24, 25, 26))
        assert se_big == pytest.approx(se_small / 2.0, rel=0.2)

    def test_magnitude(self):
        # weak-measurement noise floor: se(delta_X) ~ (sigma/g)/sqrt(2 n_cell)
        n = 200_000
        log = channel_estimation_log(ChannelModel(), PointerConfig(G, 1.0), n, 23)
        stats = condition_and_average(log)[INTENSITY_SIGNAL]
        se_x, se_z, se_b = delta_standard_errors(stats)
        rough = (1.0 / G) / math.sqrt(2 * n / 8)
        assert se_x == pytest.approx(rough, rel=0.5)
        assert se_b < se_x


class TestDarkCorrectionConsistency:
    def test_corrected_matches_dark_free(self):
        # runs with inflated dark counts: the corrected delta agrees with the
        # uncorrected delta of a dark-free run within statistical tolerance
        from wmqkd.harness import run_protocol
        from wmqkd.keyrate import SystemParams
        base = dict(
            n_signals=1_500_000,
            channel=ChannelModel(depolarizing_prob=0.1),
            intensity_probs=(0.8, 0.1, 0.1),
        )
        dark = run_protocol(ProtocolConfig(
            master_seed=31, system=SystemParams(eta_d=1.0, distance_km=0.0, y0=0.02), **base))
        clean = run_protocol(ProtocolConfig(
            master_seed=32, system=SystemParams(eta_d=1.0, distance_km=0.0, y0=0.0), **base))
        tol = 3 * math.hypot(dark.report.delta_b_se, clean.report.delta_b_se)
        assert dark.report.delta_b_corrected == pytest.approx(
            clean.report.rates.delta_b, abs=max(tol, 5e-3))


class TestSignalLogIO:
    def test_round_trip(self, tmp_path):
        log = make_log(n=500, seed=40)
        log.s_b[::7] = -1
        path = tmp_path / "log.csv"
        write_signal_log(path, log)
        back = read_signal_log(path)
        assert np.all(back.s_a == log.s_a)
        assert np.all(back.s_b == log.s_b)
        assert back.omega == pytest.approx(log.omega, abs=0)

    @pytest.mark.parametrize("body, line, what", [
        # np.loadtxt skips both lines, so the h = 7 record was reported as line 4
        ("0,0,0,0.1,0,0\n\n# note\n0,0,0,0.1,0,0\n0,0,7,0.1,0,0\n", 3, "blank line"),
        ("0,0,0,0.1,0,0\n# note\n0,0,7,0.1,0,0\n", 3, "comment"),
        ("\n0,0,0,0.1,0,0\n", 2, "blank line"),
        ("0,0,0,0.1,0,0\n0,0,0,0.1,0,0 # note\n", 3, "comment"),
        ("0,0,0,0.1,0,0\n\n", 3, "blank line"),
    ])
    def test_blank_and_comment_lines_are_rejected(self, tmp_path, monkeypatch, body, line, what):
        path = tmp_path / "log.csv"
        path.write_text(SIGNAL_LOG_HEADER + "\n" + body)
        for chunk in (1, 2, 7, 1 << 16):  # a blank line may straddle two scan chunks
            monkeypatch.setattr(estimation, "_SCAN_CHUNK", chunk)
            with pytest.raises(EstimationError, match=f"line {line}: {what}"):
                read_signal_log(path)

    def test_first_bad_record_is_named(self, tmp_path):
        # the s_A column is checked first, but the bad b comes first in the file
        path = tmp_path / "log.csv"
        path.write_text(SIGNAL_LOG_HEADER + "\n0,0,0,0.1,0,0\n0,2,0,0.1,0,0\n3,0,0,0.1,0,0\n")
        with pytest.raises(EstimationError, match="line 3: b = 2 is not one of"):
            read_signal_log(path)

    def test_read_omega_owns_its_data(self, tmp_path):
        path = tmp_path / "log.csv"
        write_signal_log(path, make_log(n=300, seed=41))
        back = read_signal_log(path)
        for name in ("s_a", "b", "h", "omega", "s_b", "intensity"):
            column = getattr(back, name)
            assert column.base is None and column.flags.c_contiguous, name

    @pytest.mark.parametrize("records, line, fields", [
        (["0,0,0,0.1,0"] * 2, 2, 5),                          # every record short
        (["0,0,0,0.1,0,0", "0,0,0,0.1,0"], 3, 5),             # one short record
        (["0,0,0,0.1,0,0", "0,0,0,0.1,0,0,1"], 3, 7),         # one long record
        (["0,0,0,0.1,0,0"] * ((1 << 16) + 8) + ["0,0,0,0.1,0"], (1 << 16) + 10, 5),  # second parse block
    ])
    def test_wrong_field_count_names_the_line(self, tmp_path, records, line, fields):
        path = tmp_path / "log.csv"
        path.write_text(SIGNAL_LOG_HEADER + "\n" + "\n".join(records) + "\n")
        with pytest.raises(EstimationError, match=f"line {line}: {fields} fields, expected 6$"):
            read_signal_log(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,2,3\n")
        with pytest.raises(EstimationError):
            read_signal_log(path)


class TestReportText:
    def test_flat_key_value(self):
        log = channel_estimation_log(ChannelModel(), PointerConfig(G, 1.0), 100_000, 50)
        report = build_report(log, EstimationThresholds.for_device(G, 1.0))
        text = report.to_text()
        assert "qber = " in text
        assert "verdict.errors_nonnegative = pass" in text
        for line in text.strip().splitlines():
            assert " = " in line
