import functools
import itertools
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

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
THRESHOLDS = EstimationThresholds().with_device_defaults(G, 1.0)
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
        # 7 empty cells: their NaN moments fail every check they reach, and the run aborts
        report = build_report(log, THRESHOLDS)
        assert [name for name, ok in report.verdicts.as_dict().items() if not ok] == [
            "errors_nonnegative", "couplings_bounded", "variances_bounded", "variances_equal"]
        assert report.abort and math.isnan(report.g_plus) and math.isnan(report.qber)
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
        """One two-sided 4-standard-error check: nominal false-alarm rate 6.3e-5
        (normal tail)."""
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
        # three vacuum records fill at most three of its eight cells: an empty cell
        # has no mean, and a cell with fewer than two readings has no variance
        vacuum = stats[INTENSITY_VACUUM]
        assert vacuum.count.sum() <= 3
        assert np.array_equal(np.isnan(vacuum.mean), vacuum.count == 0)
        assert np.array_equal(np.isnan(vacuum.var), vacuum.count < 2)

    def test_chunked_passes_match_whole_array_reference(self):
        # the whole-array conditioning that the chunked passes replaced: each cell's
        # sum and squared deviations are added in record order by both
        def whole_array(log):
            clicked = log.clicked
            code = (log.intensity * 8 + log.s_a * 4 + log.b * 2 + log.h)[clicked]
            omega = log.omega[clicked]
            counts = np.bincount(code, minlength=24).astype(float)
            sums = np.bincount(code, weights=omega, minlength=24)
            with np.errstate(divide="ignore", invalid="ignore"):
                means = sums / counts
                omega -= means[code]
                omega *= omega
                m2 = np.bincount(code, weights=omega, minlength=24)
                var = np.where(counts > 1, m2 / (counts - 1.0), np.nan)
            return [(m, v, n) for m, v, n in zip(means.reshape(3, 8), var.reshape(3, 8), counts.reshape(3, 8))]

        chunk = estimation._CHUNK
        n = 3 * chunk + 1234  # a short last chunk
        rng = np.random.default_rng(91)
        intensity = rng.integers(0, 2, n).astype(np.uint8)
        log = make_log(n=n, seed=10, intensity=intensity)
        log.omega[:] = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-8, 9, n)  # sums that round
        log.s_b[:chunk][rng.random(chunk) < 0.3] = -1  # one chunk with no-click records, the rest views
        log.s_b[-1000:][rng.random(1000) < 0.5] = -1
        # three vacuum readings: two in one cell, one in another, six cells empty
        at = [5, chunk + 7, n - 3]
        log.intensity[at], log.s_b[at] = INTENSITY_VACUUM, 0
        log.s_a[at], log.b[at], log.h[at] = [0, 0, 1], [0, 0, 1], [0, 0, 1]
        omega = log.omega.copy()
        got = condition_and_average(log)
        assert log.omega.tobytes() == omega.tobytes()  # the views are read, never written
        for code, (stats, want) in enumerate(zip(got, whole_array(log))):
            for name, values in zip(("mean", "var", "count"), want):
                assert getattr(stats, name).ravel().tobytes() == values.tobytes(), (code, name)
        vacuum = got[INTENSITY_VACUUM].count.ravel()
        assert vacuum[0] == 2 and vacuum[7] == 1 and vacuum.sum() == 3

    def test_clicked_log_peak_memory(self):
        # the records are 11 B each; the moments are taken a chunk at a time,
        # so the peak stays far under three float64 per record
        n = 1 << 18
        log = make_log(n=n, seed=7)  # every record clicked
        omega = log.omega.copy()
        tracemalloc.start()
        try:
            condition_and_average(log)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n < 24.0
        assert log.omega.tobytes() == omega.tobytes()

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

    def test_all_dark_class_fails_couplings_bounded(self):
        # Q_vac = Q_mu: every click is dark and the couplings cannot be recovered
        stats = exact_channel_stats(ChannelModel())
        report = report_from_stats(stats, THRESHOLDS, (0.1, 0.05, 0.1))
        assert report.dark_fraction_signal == 1.0
        assert not report.verdicts.couplings_bounded and report.abort

    def test_monte_carlo_recovery(self):
        """Two two-sided 3-standard-error checks: each has nominal false-alarm
        rate 2.7e-3 (normal tail), the pair 5.4e-3."""
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

    @pytest.mark.parametrize("sign", [-1.0, 0.0])
    def test_non_positive_coupling_fails_couplings_bounded(self, sign):
        # negated cell means give g = -G and the same error estimates, which pass
        # the nonnegativity check: only the coupling check stops them
        stats = exact_channel_stats(ChannelModel())
        stats = ConditionedStats(sign * stats.mean, stats.var, stats.count)
        report = report_from_stats(stats, THRESHOLDS, (0.1, 0.05, 0.0))
        assert report.g_plus == pytest.approx(sign * G, abs=1e-15)
        assert not report.verdicts.couplings_bounded and report.abort
        assert report.verdicts.errors_nonnegative == (sign < 0)


class TestDarkCounts:
    def test_fraction(self):
        assert dark_count_fraction(0.0273, 6e-6) == pytest.approx(2.1978e-4, rel=1e-3)
        assert dark_count_fraction(0.5, 0.5) == 1.0
        assert dark_count_fraction(0.5, 0.0) == 0.0
        # a vacuum gain above Q_gamma is capped at it; a class with no detections has none dark
        assert dark_count_fraction(0.1, 0.2) == 1.0
        assert dark_count_fraction(0.0, 0.0) == 0.0
        assert dark_count_fraction(0.0, 0.2) == 0.0

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
        return build_report(log, THRESHOLDS)

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
            THRESHOLDS,
            (1.0, 0.0, 0.0),
        )
        assert report.rates.delta_x > 0.5  # mirrored contrast
        mean2 = stats.mean.copy()
        mean2[0, 1, 0] = mean2[1, 1, 0]  # kill the H+ X contrast asymmetrically
        report2 = report_from_stats(
            exact_stats(mean2, stats.var),
            THRESHOLDS,
            (1.0, 0.0, 0.0),
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
            THRESHOLDS,
            (1.0, 0.0, 0.0),
        )
        assert not report.verdicts.couplings_bounded
        assert report.abort

    def test_variance_level_cap(self):
        stats = exact_channel_stats(ChannelModel())
        report = report_from_stats(
            exact_stats(stats.mean, stats.var * 1.4),
            THRESHOLDS,
            (1.0, 0.0, 0.0),
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
        report = build_report(log, THRESHOLDS)
        assert not report.verdicts.variances_equal

    @pytest.mark.parametrize("exact", [True, False])
    def test_nan_cell_fails_its_checks(self, exact):
        # every verdict is NaN-safe, on exact (count = inf) and on sampled statistics
        if exact:
            stats = exact_channel_stats(ChannelModel())
        else:
            log = channel_estimation_log(ChannelModel(), PointerConfig(G, 1.0), 100_000, 12)
            stats = condition_and_average(log)[INTENSITY_SIGNAL]
        for field, checks in (("mean", ("errors_nonnegative",)),
                              ("var", ("variances_bounded", "variances_equal"))):
            moments = {"mean": stats.mean.copy(), "var": stats.var.copy()}
            moments[field][1, 1, 1] = np.nan
            report = report_from_stats(ConditionedStats(moments["mean"], moments["var"], stats.count),
                                       THRESHOLDS, (1.0, 0.0, 0.0))
            assert not any(getattr(report.verdicts, check) for check in checks), field
            assert report.abort

    def test_import_leaves_scipy_stats_unloaded(self):
        # the variance-equality p-values need one special function, not scipy.stats
        code = "import sys, wmqkd; print('scipy.stats' in sys.modules)"
        src = os.path.dirname(os.path.dirname(estimation.__file__))
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert run.stdout.strip() == "False"

    def test_analytic_path_loads_no_scipy(self, tmp_path):
        # only a sampled report's variance-equality check needs scipy.special,
        # so a cold process on the analytic path and its CLI commands starts without it
        code = textwrap.dedent(f"""
            import sys
            import wmqkd
            from wmqkd import cli, estimation, harness
            from wmqkd.adversary import STRATEGIES, AttackConfig
            from wmqkd.bloch import ChannelModel
            from wmqkd.pointer import PointerConfig
            for strategy in STRATEGIES:
                attack = AttackConfig(strategy=strategy, p_basis=0.9, p_h=0.9, alpha=1.0, alpha_x=1.0, alpha_z=1.0)
                harness.analytic_report(harness.ProtocolConfig(attack=attack))
            for axis, value in (("pointer.g", 0.3), ("channel.depolarizing_prob", 0.1),
                                ("system.distance_km", 20.0)):
                harness.sweep(harness.ProtocolConfig(), axis, [value], mode="analytic")
            harness.fig3_dataset(), harness.fig5_dataset(), harness.fig6_dataset()
            out = {str(tmp_path)!r}
            assert cli.main(["--out", out, "figures", "--which", "fig6"]) == cli.EXIT_OK
            assert cli.main(["--out", out, "sweep", "--axis", "pointer.g", "--values", "0.2,0.3",
                             "--mode", "analytic"]) == cli.EXIT_OK
            print('scipy' in sys.modules)
            log = harness.channel_estimation_log(ChannelModel(), PointerConfig(0.5, 1.0), 2000, 3)
            estimation.build_report(log, estimation.EstimationThresholds().with_device_defaults(0.5, 1.0))
            print('scipy.special' in sys.modules)
            """)
        src = os.path.dirname(os.path.dirname(estimation.__file__))
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert run.stdout.split()[-2:] == ["False", "True"]

    @pytest.mark.parametrize("z", [math.inf, math.nan])
    def test_nonneg_z_must_be_finite(self, z):
        # z * se must be 0 on exact statistics, whose standard errors are 0
        with pytest.raises(ValueError, match="nonneg_z must be finite"):
            EstimationThresholds(nonneg_z=z)

    @pytest.mark.parametrize("field", ["nonneg_z", "sigma_phi_upper"])
    def test_negative_slack_rejected(self, field):
        # a negative nonneg_z turns the slack around: an honest run would have
        # to beat its own standard error to pass
        EstimationThresholds(**{field: 0.0})
        with pytest.raises(ValueError, match=f"{field} must be"):
            EstimationThresholds(**{field: -0.5})

    def test_unresolved_device_thresholds_rejected(self):
        stats = exact_channel_stats(ChannelModel())
        with pytest.raises(ValueError, match="with_device_defaults"):
            report_from_stats(stats, EstimationThresholds(),
                              (1.0, 0.0, 0.0))

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
        # var / inf is +0.0, so exact statistics need no special case; a -0
        # would print into the report text
        stats = exact_channel_stats(ChannelModel(depolarizing_prob=0.1, rotation_theta=0.2))
        assert delta_standard_errors(stats) == (0.0, 0.0, 0.0)
        assert coupling_standard_errors(stats, 0.3) == (0.0, 0.0)
        ses = delta_standard_errors(stats) + coupling_standard_errors(stats, 0.3)
        assert all(math.copysign(1.0, se) == 1.0 for se in ses)

    def test_scaling_with_n(self):
        # the plug-in se is evaluated at the estimated couplings, so average a
        # few seeds before checking the O(n^-1/2) scaling, at n where the
        # couplings are known to about 6 % (at n = 5e4 about one triple of seeds in
        # three missed the 20 % band)
        def mean_se(n, seeds):
            return np.mean([
                delta_standard_errors(condition_and_average(
                    channel_estimation_log(ChannelModel(), PointerConfig(G, 1.0), n, s))[INTENSITY_SIGNAL])[0]
                for s in seeds])
        se_small = mean_se(800_000, (21, 22, 23))
        se_big = mean_se(3_200_000, (24, 25, 26))
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
        """One two-sided 3-standard-error check on the difference of two
        independent runs, floored at 5e-3: nominal false-alarm rate at most
        2.7e-3 (normal tail)."""
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


class TestSignalLogFlags:
    @pytest.mark.parametrize("column, value", [
        ("intensity", 32),  # the uint8 cell code 32 * 8 wrapped to a signal cell
        ("s_a", 2),         # 2 * 4 landed in a decoy cell
    ])
    def test_out_of_range_flag_is_rejected(self, column, value):
        n = 4000
        flags = np.zeros(n, dtype=np.uint8)
        flags[:50] = value
        columns = {name: np.zeros(n) for name in ("s_a", "b", "h", "omega", "s_b", "intensity")}
        columns[column] = flags
        with pytest.raises(ValueError, match=f"column '{column}' holds a flag outside"):
            SignalLog(**columns)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_reading_is_rejected(self, value):
        omega = np.zeros(40)
        omega[17] = value
        with pytest.raises(ValueError, match="column 'omega' holds a non-finite reading"):
            SignalLog(*([np.zeros(40)] * 3), omega, np.zeros(40), np.zeros(40))

    def test_column_length_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="column 'omega' length mismatch"):
            SignalLog(*([np.zeros(3)] * 3), np.zeros(2), np.zeros(3), np.zeros(3))

    def test_in_range_flags_are_kept(self):
        log = SignalLog([0, 1, 1], [1, 0, 1], [0, 1, 0], [0.1, 0.2, 0.3], [-1, 0, 1], [0, 1, 2])
        assert np.array_equal(log.s_b, [-1, 0, 1]) and np.array_equal(log.intensity, [0, 1, 2])
        assert len(SignalLog(*([[]] * 6))) == 0


# readings whose 17-digit text is easy to get wrong: signed zero, the smallest
# subnormal and normal, the largest float, a tiny negative, and three that print short
EDGE_READINGS = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1e-300, 3.0, 0.1, 1 / 3]
# (column, value) of the out-of-range flags a log built in code may still hold
STRAY_FLAGS = [("s_a", 7), ("h", 5), ("s_b", -2), ("intensity", 3), ("b", 2)]


def reference_write_signal_log(path, log):
    """The per-field writer: every record is one %-format of its six fields."""
    columns = [log.s_a, log.b, log.h, log.omega, log.s_b, log.intensity]
    with open(path, "w", newline="\n") as fh:
        fh.write(SIGNAL_LOG_HEADER + "\n")
        for row in zip(*(column.tolist() for column in columns)):
            fh.write("%d,%d,%d,%.17g,%d,%d\n" % row)


class TestSignalLogIO:
    def test_round_trip(self, tmp_path):
        log = make_log(n=500, seed=40, intensity=np.arange(500) % 3)
        log.s_b[::7] = -1
        log.omega[:len(EDGE_READINGS)] = EDGE_READINGS
        path = tmp_path / "log.csv"
        write_signal_log(path, log)
        back = read_signal_log(path)
        for name in ("s_a", "b", "h", "s_b", "intensity"):
            assert np.array_equal(getattr(back, name), getattr(log, name)), name
        assert np.array_equal(back.omega.view(np.uint64), log.omega.view(np.uint64))  # -0.0 counts

    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize("n", [0, 1, 1 << 16, (1 << 16) + 1, 2 * (1 << 16) + 5])
    def test_writer_matches_per_field_reference(self, tmp_path, monkeypatch, n, chunk):
        # every in-range flag combination, stray flags written as stored, edge readings
        if chunk:
            monkeypatch.setattr(estimation, "_WRITE_CHUNK", chunk)
        rng = np.random.default_rng(n)
        combos = np.array(list(itertools.product((0, 1), (0, 1), (0, 1), (-1, 0, 1), (0, 1, 2))))
        flags = combos[rng.permutation(n) % len(combos)].T
        omega = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)
        omega[::3] = np.resize(EDGE_READINGS, len(omega[::3]))
        log = SignalLog(*flags[:3], omega, *flags[3:])
        for row, (column, value) in zip(rng.permutation(n), STRAY_FLAGS):
            getattr(log, column)[row] = value
        if n > 1:
            log.s_a[-1], log.intensity[-1] = 7, 3  # two stray flags in one record
        path, want = tmp_path / "log.csv", tmp_path / "reference.csv"
        write_signal_log(path, log)
        reference_write_signal_log(want, log)
        assert path.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("body, line, what", [
        # np.loadtxt skips both lines, so the h = 7 record was reported as line 4
        ("0,0,0,0.1,0,0\n\n# note\n0,0,0,0.1,0,0\n0,0,7,0.1,0,0\n", 3, "blank line"),
        ("0,0,0,0.1,0,0\n# note\n0,0,7,0.1,0,0\n", 3, "comment"),
        ("\n0,0,0,0.1,0,0\n", 2, "blank line"),
        ("0,0,0,0.1,0,0\n0,0,0,0.1,0,0 # note\n", 3, "comment"),
        ("0,0,0,0.1,0,0\n\n", 3, "blank line"),
        # a bad record before the blank or comment line is the first bad line
        ("0,0,0,0.1,0,0\n0,0,7,0.1,0,0\n" + "0,0,0,0.1,0,0\n" * 5 + "\n", 3, "h = 7 is not one of"),
        ("0,0,0,0.1,0,0\n0,0,x,0.1,0,0\n0,0,0,0.1,0,0\n# note\n", 3, "h = 'x' is not a number"),
        ("0,0,0,0.1,0,0\n0,0,0,0.1,0\n# note\n", 3, "5 fields, expected 6"),
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

    @pytest.mark.parametrize("record, message", [
        ("0,0,0,,0,0", "omega = '' is not a number"),
        ("0,x,0,0.1,0,0", "b = 'x' is not a number"),
        # float() takes both, so only np.loadtxt's own parser finds the record
        ("0,0,0,1_0,0,0", "omega = '1_0' is not a number"),
        ("0,0,\u0663,0.1,0,0", "h = '\u0663' is not a number"),
    ])
    def test_non_numeric_field_names_the_line(self, tmp_path, record, message):
        # the bad record sits in the second parse block; numpy counted its row within that block
        path = tmp_path / "log.csv"
        path.write_text(SIGNAL_LOG_HEADER + "\n" + "0,0,0,0.1,0,0\n" * 70_000 + record + "\n")
        with pytest.raises(EstimationError, match=f"line 70002: {message}$"):
            read_signal_log(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,2,3\n")
        with pytest.raises(EstimationError):
            read_signal_log(path)


class TestReportText:
    def test_flat_key_value(self):
        log = channel_estimation_log(ChannelModel(), PointerConfig(G, 1.0), 100_000, 50)
        report = build_report(log, THRESHOLDS)
        text = report.to_text()
        assert "qber = " in text
        assert "verdict.errors_nonnegative = pass" in text
        for line in text.strip().splitlines():
            assert " = " in line
