import hashlib
import itertools
import math
import os
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wmqkd import adversary as adv
from wmqkd import estimation, harness
from wmqkd.adversary import (
    STRATEGIES,
    STRATEGY_FIELDS,
    AttackConfig,
    strategy1_predicted_qber,
)
from wmqkd.bloch import ChannelModel, binary_entropy, true_error_rates
from wmqkd.estimation import (
    CELLS,
    INTENSITY_SIGNAL,
    EstimationThresholds,
    SignalLog,
    build_report,
    condition_and_average,
    delta_standard_errors,
    report_from_stats,
)
from wmqkd.harness import (
    BLOCK_SIZE,
    ProtocolConfig,
    analytic_report,
    channel_estimation_log,
    exact_cell_statistics,
    fig3_dataset,
    fig5_dataset,
    fig6_dataset,
    run_protocol,
    set_config_axis,
    stage_block_generator,
    sweep,
    write_csv,
)
from wmqkd.keyrate import SystemParams
from wmqkd.pointer import PointerConfig, wm_disturbance_error


def small_cfg(**kwargs):
    defaults = dict(n_signals=300_000, master_seed=101)
    defaults.update(kwargs)
    return ProtocolConfig(**defaults)


class TestStreams:
    def test_streams_are_disjoint_and_deterministic(self):
        def draws(seed, stage, block, part=0):
            return stage_block_generator(seed, stage, block, part).random(1000)

        a = draws(9, "alice_bits", 1)
        assert np.array_equal(a, draws(9, "alice_bits", 1))
        for other in (draws(10, "alice_bits", 1), draws(9, "alice_basis", 1),
                      draws(9, "alice_bits", 0), draws(9, "alice_bits", 1, part=1)):
            assert not np.isin(a, other).any()

    @pytest.mark.parametrize("stage", ["detection", "alice_bits"])
    def test_every_u64_seed_keys_its_own_stream(self, stage):
        # numpy reads a (seed, tag) tuple that holds a word >= 2^63 as float64:
        # that rounded seeds above 2^53 together and cast 2^64 - 1 out of range
        seeds = (0, 2**53, 2**53 + 1, 2**63, 2**64 - 2049, 2**64 - 1025, 2**64 - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = {stage_block_generator(seed, stage, 0).random(8).tobytes() for seed in seeds}
        assert len(draws) == len(seeds)

    @pytest.mark.pins_streams
    @pytest.mark.parametrize("stage", ["detection", "alice_bits", "dark_bit"])
    def test_stage_tag_is_the_exact_digest(self, stage):
        # a digest of 2^63 or more is a key word as it is, not rounded to a double
        digest = int.from_bytes(hashlib.blake2b(stage.encode(), digest_size=8).digest(), "little")
        key = stage_block_generator(5, stage, 0).bit_generator.state["state"]["key"]
        assert [int(word) for word in key] == [5, digest]

    @pytest.mark.parametrize("seed", [0, 2**53, 2**64 - 1])
    @pytest.mark.parametrize("part", [0, 1])
    def test_stream_is_the_philox_keyed_by_seed_and_tag(self, seed, part):
        block = 2**40 + 3
        got = stage_block_generator(seed, "bob_wm", block, part)
        key = np.array([seed, harness._stage_tag("bob_wm")], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key, counter=[0, part, block, 0]))
        assert got.random(7).tobytes() == want.random(7).tobytes()
        assert got.normal(0.0, 2.0, 7).tobytes() == want.normal(0.0, 2.0, 7).tobytes()
        assert got.bit_generator.random_raw(3).tobytes() == want.bit_generator.random_raw(3).tobytes()

    def test_a_run_draws_no_os_entropy(self, monkeypatch):
        # numpy seeds a SeedSequence from OS entropy for a Philox built from
        # key= alone; a stream keyed directly never asks for any
        def refuse(*args):
            raise AssertionError("a stream drew OS entropy")

        monkeypatch.setattr(np.random.bit_generator, "randbits", refuse)
        with pytest.raises(AssertionError, match="OS entropy"):
            np.random.Philox(key=[1, 2])
        run_protocol(small_cfg(n_signals=3000, system=SystemParams(y0=0.05)), keep_log=True)
        channel_estimation_log(ChannelModel(0.1), PointerConfig(0.05, 1.0, sigma_phi=0.1), 3000, 7)

    def test_random_bits_are_packed_64_to_a_word(self):
        rng, words = stage_block_generator(3, "alice_bits", 0), stage_block_generator(3, "alice_bits", 0)
        bits = harness._random_bits(rng, 130)
        word = [int(w) for w in words.bit_generator.random_raw(3)]
        assert bits.dtype == np.uint8 and len(bits) == 130
        assert [int(bit) for bit in bits] == [(word[i // 64] >> (i % 64)) & 1 for i in range(130)]

    def test_master_seed_outside_u64_is_rejected(self):
        ProtocolConfig(master_seed=0)
        ProtocolConfig(master_seed=2**64 - 1)
        for seed in (-1, 2**64, 5 + 2**64, 5 - 2**64):
            with pytest.raises(ValueError, match="master_seed"):
                ProtocolConfig(master_seed=seed)


class TwoWorkers:
    """Single blocks run on a pool of two threads.

    A subclass that sets workers = 1 runs the same tests on the calling thread alone.
    """

    workers = 2

    @pytest.fixture(autouse=True)
    def _worker_count(self, monkeypatch):
        monkeypatch.setattr(harness, "_WORKERS", self.workers)


class TestRunDeterminism(TwoWorkers):
    def test_identical_seed_identical_result(self):
        cfg = small_cfg()
        r1 = run_protocol(cfg, keep_log=True)
        r2 = run_protocol(cfg, keep_log=True)
        assert np.array_equal(r1.log.omega, r2.log.omega)
        assert np.array_equal(r1.log.s_b, r2.log.s_b)
        assert r1.qber == r2.qber
        assert r1.report.rates == r2.report.rates

    def test_seed_changes_result(self):
        r1 = run_protocol(small_cfg(master_seed=1))
        r2 = run_protocol(small_cfg(master_seed=2))
        assert r1.qber != r2.qber


class TestRunDeterminismOneWorker(TestRunDeterminism):
    workers = 1


@pytest.mark.parametrize("workers", [1, 2])
def test_block_exception_propagates_and_cancels_pending_blocks(monkeypatch, workers):
    monkeypatch.setattr(harness, "_WORKERS", workers)
    measure, calls = harness.measure_array, itertools.count(1)
    measured = []

    def fail_on_third_call(*args):
        # whichever thread makes the call; next() on a count is atomic
        if next(calls) == 3:
            raise RuntimeError("block failed")
        measured.append(len(args[0]))
        return measure(*args)

    monkeypatch.setattr(harness, "measure_array", fail_on_third_call)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="block failed"):
        run_protocol(small_cfg(n_signals=64 * BLOCK_SIZE))
    assert threading.active_count() == threads
    # of the 63 other blocks, those not yet started when the failure surfaced never ran
    assert len(measured) < 63


@pytest.mark.parametrize("workers", [1, 2])
def test_map_blocks_returns_block_order(monkeypatch, workers):
    monkeypatch.setattr(harness, "_WORKERS", workers)
    finished = []

    def task(group):
        if group[0] == 0:
            time.sleep(0.1)  # with a second thread, the later groups finish first
        finished.append(group[0])
        return group

    singles = [range(block, block + 1) for block in range(4)]
    assert harness._map_blocks(task, singles) == singles
    assert harness._map_blocks(task, [range(3), range(3, 4)]) == [range(3), range(3, 4)]
    assert harness._map_blocks(task, [range(4)]) == [range(4)]
    assert sorted(finished) == [0, 0, 0, 1, 2, 3, 3]
    if workers == 2 and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2:
        assert finished[:4] == [1, 2, 3, 0]
    assert finished[4:6] == [0, 3]  # groups of several blocks run on one thread


def reference_cell_expectations(cfg, attack):
    """The scalar per-cell loop the analytic mode ran before it was vectorised.

    Per cell: BB84 state, channel, intercept-resend mean, then the
    p_h-weighted expectation at (pi/4 + bias_phi) + bias.
    """
    expectations = np.empty((2, 2, 2))
    damp = math.exp(-0.5 * cfg.pointer.sigma_phi**2)
    z_axis, x_axis = np.array([0.0, 1.0]), np.array([1.0, 0.0])
    for s_a in (0, 1):
        sign = 1.0 if s_a == 0 else -1.0
        for basis_flag in (0, 1):
            state = (0.0, sign) if basis_flag == 0 else (sign, 0.0)
            r_vec = np.array([float(c) for c in cfg.channel.apply_array(*state)])
            if attack.strategy == "intercept_resend":
                e_true, e_other = (z_axis, x_axis) if basis_flag == 0 else (x_axis, z_axis)
                r_vec = (attack.p_basis * (r_vec @ e_true) * e_true
                         + (1.0 - attack.p_basis) * (r_vec @ e_other) * e_other)
            for h_flag, fam in enumerate((+1.0, -1.0)):
                if attack.strategy == "biased_observables":
                    intended = attack.phi if h_flag == 0 else attack.phi_prime
                    swapped = attack.phi_prime if h_flag == 0 else attack.phi
                    biases = (attack.p_h, intended), (1.0 - attack.p_h, swapped)
                else:
                    biases = ((1.0, 0.0),)
                e = 0.0
                for weight, bias in biases:
                    a = math.pi / 4 + cfg.pointer.bias_phi + bias
                    e += weight * 0.5 * (
                        1.0 + damp * (fam * math.sin(a) * r_vec[0] + math.cos(a) * r_vec[1]))
                expectations[s_a, basis_flag, h_flag] = e
    return expectations


def reference_delta_standard_errors(stats):
    """delta_standard_errors with the +-1 sign tables of its gradients rebuilt
    on every call and the cell sum taken by np.tensordot."""
    s_a, basis, h = CELLS
    bit_sign = np.where(s_a == 0, 1.0, -1.0)
    c_x = np.where(basis == 1, bit_sign * np.where(h == 0, 1.0, -1.0), 0.0)
    c_z = np.where(basis == 0, bit_sign, 0.0)
    c = np.stack([c_x, c_z, 0.5 * (c_x + c_z)])
    m = stats.mean
    s_h = m.sum(axis=(0, 1))
    t_h = (c * m).sum(axis=(1, 2))
    grads = -(math.sqrt(2.0) / 2.0) * (c - (t_h / s_h)[:, None, None, :]) / s_h
    ses = np.sqrt(np.tensordot(grads**2, stats.var / stats.count, axes=([1, 2, 3], [0, 1, 2])))
    return float(ses[0]), float(ses[1]), float(ses[2])


def use_per_call_reference(monkeypatch):
    """Route the standard errors of every report through the per-call reference."""
    monkeypatch.setattr(estimation, "delta_standard_errors", reference_delta_standard_errors)


def _random_analytic_config(rng):
    strategy = ("none", "intercept_resend", "biased_observables")[rng.integers(3)]
    attack = AttackConfig(strategy=strategy, p_basis=float(rng.uniform(0.5, 1.0)),
                          p_h=float(rng.uniform(0.5, 1.0)), phi=float(rng.uniform(-0.6, 0.6)),
                          phi_prime=float(rng.uniform(-0.6, 0.6)))
    sigma_md = float(rng.uniform(0.5, 2.0))
    pointer = PointerConfig(g=float(rng.uniform(0.0, 0.5)) * sigma_md, sigma_md=sigma_md,
                            sigma_phi=float(rng.choice([0.0, rng.uniform(0.0, 0.4)])),
                            bias_phi=float(rng.choice([0.0, rng.uniform(-0.3, 0.3)])))
    channel = ChannelModel(depolarizing_prob=float(rng.uniform(0.0, 1.0)),
                           rotation_theta=float(rng.uniform(-math.pi, math.pi)))
    return ProtocolConfig(pointer=pointer, channel=channel, attack=attack)


LOG_COLUMNS = ("s_a", "b", "h", "omega", "s_b", "intensity")
PIPELINE_N = 3 * (1 << 16) + 123
PIPELINE_ATTACKS = {
    "none": AttackConfig(),
    "intercept_resend": AttackConfig(strategy="intercept_resend", p_basis=0.5),
    "biased_observables": AttackConfig(strategy="biased_observables", p_h=0.8, phi=0.1, phi_prime=-0.05),
    "fake_wm_strategy1": AttackConfig(strategy="fake_wm_strategy1", p_h=0.9, alpha=1.0),
    "fake_wm_strategy2": AttackConfig(strategy="fake_wm_strategy2", p_basis=0.9, p_h=0.9,
                                      alpha_x=1.0, alpha_z=1.0),
}
NOISY_DEVICE = dict(pointer=PointerConfig(0.05, 1.0, sigma_phi=0.02, bias_phi=0.01),
                    channel=ChannelModel(0.03, 0.1))
# the dark-heavy systems run the noisy device: dark counts are 63 % of the lossy
# and 12 % of the lossless signal-class clicks
PIPELINE_SYSTEMS = {"lossless": ProtocolConfig().system, "lossy": SystemParams(),
                    "dark_lossless": replace(ProtocolConfig().system, y0=0.05),
                    "dark_lossy": SystemParams(y0=0.05)}


def pipeline_cfg(strategy, system):
    device = NOISY_DEVICE if system.startswith("dark") else {}
    return ProtocolConfig(n_signals=PIPELINE_N, master_seed=101, attack=PIPELINE_ATTACKS[strategy],
                          system=PIPELINE_SYSTEMS[system], **device)


# _GROUP_WINDOWS settings: one block per task, the default, the whole run in one task
GROUPINGS = {"one_block": 0, "default": harness._GROUP_WINDOWS, "whole_run": 1 << 62}


def run_fields(result):
    return (result.report.to_text(), result.sifted_key_length, result.ground_truth_sifted_error,
            result.eve_sifted_knowledge, result.key_rate)


def assert_same_log(got, want):
    for name in LOG_COLUMNS:
        column, expected = getattr(got, name), getattr(want, name)
        assert column.dtype == expected.dtype and column.tobytes() == expected.tobytes(), name


@pytest.mark.parametrize("system", sorted(PIPELINE_SYSTEMS))
@pytest.mark.parametrize("strategy", sorted(PIPELINE_ATTACKS))
def test_worker_count_does_not_change_the_run(monkeypatch, strategy, system):
    # nor does the number of blocks a task simulates at once; TestBlockPipeline
    # runs the kept log at each grouping
    cfg = pipeline_cfg(strategy, system)
    kept, runs = [], []
    for workers in (1, 2):
        monkeypatch.setattr(harness, "_WORKERS", workers)
        kept.append(run_protocol(cfg, keep_log=True))
        for grouping in GROUPINGS.values():
            monkeypatch.setattr(harness, "_GROUP_WINDOWS", grouping)
            runs.append(run_fields(run_protocol(cfg)))
    assert runs == [run_fields(kept[0])] * len(runs) and run_fields(kept[1]) == runs[0]
    assert_same_log(*(result.log for result in kept))


def test_worker_count_does_not_change_the_estimation_bench(monkeypatch):
    logs = []
    channel, pointer = ChannelModel(0.1, 0.2), PointerConfig(0.05, 1.0, sigma_phi=0.1, bias_phi=0.02)
    for workers in (1, 2):
        monkeypatch.setattr(harness, "_WORKERS", workers)
        logs.append(channel_estimation_log(channel, pointer, PIPELINE_N, 7))
    assert_same_log(*logs)
    assert len(logs[0]) == PIPELINE_N and logs[0].clicked.all() and not logs[0].intensity.any()


class TestBlockPipeline(TwoWorkers):
    @pytest.mark.parametrize("grouping", sorted(GROUPINGS))
    @pytest.mark.parametrize("system", sorted(PIPELINE_SYSTEMS))
    @pytest.mark.parametrize("strategy", sorted(PIPELINE_ATTACKS))
    def test_kept_log_is_the_run_plus_its_no_click_windows(self, monkeypatch, strategy, system, grouping):
        monkeypatch.setattr(harness, "_GROUP_WINDOWS", GROUPINGS[grouping])
        cfg = pipeline_cfg(strategy, system)
        result, kept = run_protocol(cfg), run_protocol(cfg, keep_log=True)
        assert run_fields(kept) == run_fields(result)
        log = kept.log
        assert build_report(log, cfg.resolved_thresholds()).to_text() == result.report.to_text()
        # every window sent is a record, and the run's gains are the log's clicks over its class counts
        assert len(log) == cfg.n_signals
        sent = np.bincount(log.intensity, minlength=3)
        clicks = np.bincount(log.intensity[log.clicked], minlength=3)
        assert result.report.gains == tuple(clicks[c] / sent[c] if sent[c] else 0.0 for c in range(3))
        # each block's records: its clicked windows by class, then its no-click windows by class
        for lo in range(0, len(log), BLOCK_SIZE):
            order = 3 * (~log.clicked[lo:lo + BLOCK_SIZE]) + log.intensity[lo:lo + BLOCK_SIZE]
            assert np.all(np.diff(order) >= 0)

    def test_traced_memory_per_signal(self):
        # the whole-array run peaked near 150 B/signal; a block keeps O(BLOCK_SIZE)
        # temporaries and only the clicked records (13 B each) outlive it
        n = 1 << 21
        tracemalloc.start()
        try:
            run_protocol(ProtocolConfig(n_signals=n, master_seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n < 40.0

    def test_traced_peak_is_the_log_and_two_tasks(self, monkeypatch):
        # the log is allocated once from the counts and written in place: no
        # second copy of the records, so the peak is the log (13 B per record)
        # plus a bounded number of tasks' temporaries
        records = []
        report = harness.build_report

        def count_records(log, *args, **kwargs):
            records.append(len(log))
            return report(log, *args, **kwargs)

        monkeypatch.setattr(harness, "build_report", count_records)
        tracemalloc.start()
        try:
            run_protocol(ProtocolConfig(n_signals=1 << 23, master_seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 13 * records[0]


class TestBlockPipelineOneWorker(TestBlockPipeline):
    workers = 1


class TestHonestRun:
    def test_noiseless_passes_and_matches_ground_truth(self):
        """Two two-sided 4-standard-error checks: each has nominal false-alarm
        rate 6.3e-5 (normal tail), the pair 1.3e-4."""
        cfg = ProtocolConfig(n_signals=1_000_000, master_seed=5)
        res = run_protocol(cfg)
        assert not res.abort
        assert res.report.verdicts.all_pass
        # ground-truth sifted error is the weak-measurement disturbance
        delta = wm_disturbance_error(cfg.pointer.g, cfg.pointer.sigma_md)
        se = math.sqrt(delta / res.sifted_key_length)
        assert res.ground_truth_sifted_error == pytest.approx(delta, abs=4 * se + 1e-5)
        # estimated QBER agrees with ground truth within its standard error
        assert res.qber == pytest.approx(
            res.ground_truth_sifted_error, abs=4 * res.report.delta_b_se)

    def test_depolarizing_estimate_tracks_truth(self):
        """Two two-sided 4-standard-error checks: each has nominal false-alarm
        rate 6.3e-5 (normal tail), the pair 1.3e-4."""
        chan = ChannelModel(depolarizing_prob=0.06)
        cfg = ProtocolConfig(n_signals=1_200_000, master_seed=6, channel=chan,
                             intensity_probs=(1.0, 0.0, 0.0))
        res = run_protocol(cfg)
        dx, _ = true_error_rates(chan)
        assert res.report.rates.delta_b == pytest.approx(dx, abs=4 * res.report.delta_b_se)
        gt = res.ground_truth_sifted_error
        assert res.qber == pytest.approx(gt, abs=4 * res.report.delta_b_se)


    def test_angle_noise_is_drawn_per_signal(self):
        """Each of the 8 cell means lies within 5 standard errors of its exact
        value: nominal false-alarm rate 5.7e-7 per cell (two-sided normal
        tail), 4.6e-6 over the 8 cells."""
        # one angle draw shared by a block's signals moves every cell mean by
        # several se at sigma_phi = 1; per-signal noise damps it exactly
        cfg = ProtocolConfig(n_signals=BLOCK_SIZE, master_seed=3, pointer=PointerConfig(0.5, 1.0, sigma_phi=1.0),
                             intensity_probs=(1.0, 0.0, 0.0))
        res = run_protocol(cfg)
        mean, var = exact_cell_statistics(cfg)
        assert np.all(np.abs(res.report.cell_mean - mean) < 5 * np.sqrt(var / res.report.cell_count))


class TestDetectorIndependence:
    def test_estimation_ignores_strong_outcomes(self):
        cfg = small_cfg()
        res = run_protocol(cfg, keep_log=True)
        log = res.log
        scrubbed = SignalLog(log.s_a, log.b, log.h, log.omega,
                             np.where(log.s_b == -1, -1, 0).astype(np.int8),
                             log.intensity)
        r1 = build_report(log, cfg.resolved_thresholds())
        r2 = build_report(scrubbed, cfg.resolved_thresholds())
        assert np.array_equal(r1.cell_mean, r2.cell_mean)
        assert np.array_equal(r1.cell_var, r2.cell_var)
        assert r1.rates == r2.rates
        assert r1.qber == r2.qber
        assert r1.abort == r2.abort
        assert r1.verdicts == r2.verdicts


class TestAttackRuns:
    def test_intercept_resend_aborts(self):
        """One two-sided 4-standard-error check on delta_b: nominal false-alarm
        rate 6.3e-5 (normal tail); the sifted-error band is not a k-se check."""
        cfg = small_cfg(
            n_signals=600_000,
            attack=AttackConfig(strategy="intercept_resend", p_basis=0.5),
            intensity_probs=(1.0, 0.0, 0.0),
        )
        res = run_protocol(cfg)
        assert res.abort
        assert res.key_rate == 0.0
        assert res.report.rates.delta_b == pytest.approx(0.25, abs=4 * res.report.delta_b_se)
        assert res.ground_truth_sifted_error == pytest.approx(0.25, abs=0.01)

    def test_strategy1_perfect_knowledge_undetected(self):
        # at n = 1e6 the qber's se is 0.05, and a few seeds in a hundred abort
        # on qber > delta_sec alone
        cfg = small_cfg(
            n_signals=4_000_000,
            attack=AttackConfig(strategy="fake_wm_strategy1", p_h=1.0, alpha=1.0),
            intensity_probs=(1.0, 0.0, 0.0),
        )
        res = run_protocol(cfg)
        assert not res.abort            # every check passes
        assert res.undetected_attack    # yet Eve holds the key
        assert res.eve_sifted_knowledge > 0.99
        assert res.ground_truth_sifted_error < 0.01

    def test_strategy1_partial_knowledge_detected(self):
        """One two-sided 3-standard-error check on delta_b: nominal false-alarm
        rate 2.7e-3 (normal tail)."""
        cfg = small_cfg(
            n_signals=1_000_000,
            attack=AttackConfig(strategy="fake_wm_strategy1", p_h=0.9, alpha=1.0),
            intensity_probs=(1.0, 0.0, 0.0),
        )
        res = run_protocol(cfg)
        assert res.abort
        assert not res.report.verdicts.variances_equal
        assert res.report.rates.delta_b == pytest.approx(
            strategy1_predicted_qber(1.0, 0.9), abs=3 * res.report.delta_b_se)

    def test_strategy2_relaxed_variance_budget(self):
        """One one-sided 3-standard-error check on the QBER floor: nominal
        false-alarm rate 1.35e-3 (normal tail) where the bound is tight; the
        0.97 back-off puts the expected QBER above it, so the rate is lower."""
        # sigma_sec = 1.5 sigma_md: Eve saturates the relaxed cap, the QBER
        # floor drops by the same ratio, and the variance checks stay quiet
        from wmqkd.adversary import strategy2_qber_lower_bound
        from wmqkd.estimation import EstimationThresholds
        sigma_ratio = 1.5
        # a careful Eve backs off the exact cap so sampling noise cannot trip
        # the level check; she lands above the bound by the same margin
        eve_amp = 0.97 * sigma_ratio
        cfg = small_cfg(
            n_signals=800_000,
            attack=AttackConfig(strategy="fake_wm_strategy2", p_basis=0.9, p_h=0.9,
                                alpha_x=eve_amp, alpha_z=eve_amp),
            intensity_probs=(1.0, 0.0, 0.0),
            thresholds=EstimationThresholds(sigma_sec_sq=sigma_ratio**2).with_device_defaults(0.05, 1.0),
        )
        res = run_protocol(cfg)
        v = res.report.verdicts
        assert v.variances_bounded and v.variances_equal
        bound = strategy2_qber_lower_bound(0.9, 0.9, sigma_ratio)
        assert res.qber >= bound - 3 * res.report.delta_b_se


class TestAnalyticMode:
    def test_matches_monte_carlo(self):
        """Two two-sided 4-standard-error checks: each has nominal false-alarm
        rate 6.3e-5 (normal tail), the pair 1.3e-4."""
        chan = ChannelModel(depolarizing_prob=0.08, rotation_theta=0.05)
        cfg = ProtocolConfig(n_signals=1_500_000, master_seed=8, channel=chan,
                             intensity_probs=(1.0, 0.0, 0.0))
        exact = analytic_report(cfg)
        mc = run_protocol(cfg)
        assert mc.report.rates.delta_x == pytest.approx(
            exact.rates.delta_x, abs=4 * mc.report.delta_x_se)
        assert mc.report.rates.delta_z == pytest.approx(
            exact.rates.delta_z, abs=4 * mc.report.delta_z_se)

    def test_exact_cells_match_sampled_cells(self):
        """Each of the 8 sampled cell means lies within 5 standard errors of its
        exact value: nominal false-alarm rate 5.7e-7 per cell (two-sided normal
        tail), 4.6e-6 over the 8 cells.  The 5 % variance band is not a k-se check."""
        cfg = ProtocolConfig(n_signals=400_000, master_seed=9,
                             channel=ChannelModel(depolarizing_prob=0.1))
        mean, var = exact_cell_statistics(cfg)
        log = channel_estimation_log(cfg.channel, cfg.pointer, 400_000, 9)
        from wmqkd.estimation import INTENSITY_SIGNAL, condition_and_average
        stats = condition_and_average(log)[INTENSITY_SIGNAL]
        se = np.sqrt(var / stats.count)
        assert np.all(np.abs(stats.mean - mean) < 5 * se)
        assert stats.var == pytest.approx(var, rel=0.05)

    def test_exact_cells_bit_equal_scalar_reference(self):
        rng = np.random.default_rng(2017)
        seen = set()
        for _ in range(600):
            cfg = _random_analytic_config(rng)
            seen.add(cfg.attack.strategy)
            attack = cfg.attack.with_device_defaults(cfg.pointer.g, cfg.pointer.sigma_md)
            e = reference_cell_expectations(cfg, attack)
            g, sig = cfg.pointer.g, cfg.pointer.sigma_md
            mean, var = exact_cell_statistics(cfg)
            assert mean.tobytes() == (g * e).tobytes()
            assert var.tobytes() == (sig**2 + g**2 * e * (1.0 - e)).tobytes()
        assert seen == {"none", "intercept_resend", "biased_observables"}
        # the fake-WM laws fill Eve's device defaults themselves; check them against filling first
        for strategy in ("fake_wm_strategy1", "fake_wm_strategy2"):
            for _ in range(50):
                base = _random_analytic_config(rng)
                g, sig = base.pointer.g, base.pointer.sigma_md
                attack = AttackConfig(strategy=strategy, p_basis=float(rng.uniform(0.5, 1.0)),
                                      p_h=float(rng.uniform(0.55, 1.0)), alpha=float(rng.uniform(0.5, 2.0)),
                                      alpha_x=float(rng.uniform(0.5, 2.0)), alpha_z=float(rng.uniform(0.5, 2.0)),
                                      g_eve=rng.choice([None, float(rng.uniform(0.0, 1.0))]),
                                      sigma_eve=rng.choice([None, float(rng.uniform(0.5, 2.0))]))
                mean, var = exact_cell_statistics(replace(base, attack=attack))
                want = adv.strategy_fake_cell_laws(attack.with_device_defaults(g, sig), g, sig)
                assert mean.tobytes() == want[0].tobytes()
                assert var.tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("system", ["lossless", "lossy"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_report_bit_equal_per_call_reference(self, monkeypatch, strategy, system):
        # rotated channel, biased and noisy pointer: every term of the cell laws is live
        cfg = ProtocolConfig(attack=PIPELINE_ATTACKS[strategy], system=PIPELINE_SYSTEMS[system], **NOISY_DEVICE)
        got = analytic_report(cfg).to_text()
        with monkeypatch.context() as m:
            use_per_call_reference(m)
            want = analytic_report(cfg).to_text()
        assert got == want

    @pytest.mark.parametrize("nan_cell", [None, (0, 1, 1)])
    def test_sampled_standard_errors_bit_equal_per_call_reference(self, monkeypatch, nan_cell):
        log = channel_estimation_log(ChannelModel(0.05, 0.2), PointerConfig(0.05, 1.0, bias_phi=0.03), 40_000, 5)
        stats = condition_and_average(log)[INTENSITY_SIGNAL]
        if nan_cell:
            stats.var[nan_cell] = np.nan
        report = partial(report_from_stats, stats, ProtocolConfig().resolved_thresholds(), (0.5, 0.1, 0.0))
        got = delta_standard_errors(stats), report().to_text()
        with monkeypatch.context() as m:
            use_per_call_reference(m)
            want = reference_delta_standard_errors(stats), report().to_text()
        assert np.array(got[0]).tobytes() == np.array(want[0]).tobytes()  # NaN and -0.0 compare by bits
        assert got[1] == want[1]

    def test_delta_b_never_understates_the_channel(self):
        # the paper's robustness claim: angle noise and a fixed device bias can
        # only raise the symmetrized estimate above the channel's true error
        rng = np.random.default_rng(1709)
        worst = math.inf
        for _ in range(2000):
            channel = ChannelModel(depolarizing_prob=float(rng.uniform(0.0, 0.3)),
                                   rotation_theta=float(rng.uniform(-1.2, 1.2)))
            pointer = PointerConfig(g=0.05, sigma_md=1.0, bias_phi=float(rng.uniform(-0.7, 0.7)),
                                    sigma_phi=float(rng.uniform(0.0, 0.5)))
            delta_b = analytic_report(ProtocolConfig(pointer=pointer, channel=channel)).rates.delta_b
            worst = min(worst, delta_b - float(np.mean(true_error_rates(channel))))
        assert worst >= -1e-12

    def test_abort_monotone_in_noise(self):
        cfg = ProtocolConfig(n_signals=1000, master_seed=1)
        aborted = [analytic_report(set_config_axis(cfg, "channel.depolarizing_prob", p)).abort
                   for p in np.linspace(0.0, 0.5, 21)]
        # once the analytic run aborts it stays aborted as noise rises
        first = aborted.index(True)
        assert all(aborted[first:])
        assert not any(aborted[:first])

    def test_no_detections_is_no_dark_fraction(self):
        # no gain at all: no click is dark, as at a vanishing gain without dark counts
        zero = analytic_report(ProtocolConfig(system=SystemParams(eta_d=0.0, y0=0.0)))
        tiny = analytic_report(ProtocolConfig(system=SystemParams(eta_d=1e-12, y0=0.0)))
        assert zero.gains == (0.0, 0.0, 0.0) and tiny.gains[0] > 0.0
        tiny.gains = zero.gains
        assert zero.to_text() == tiny.to_text()
        row, = sweep(ProtocolConfig(system=SystemParams(y0=0.0)), "system.eta_d", [0.0])
        assert row["rate_wm_decoy"] == row["rate_bb84_decoy"] == 0.0


@st.composite
def valid_configs(draw):
    """Any valid config: tiny to 3-block n, up to 200 km, no detections or no dark
    counts, no decoy class, every strategy, and g = 0 under an explicit g_sec."""
    zero = st.just(0.0)
    p_decoy, p_vacuum = draw(zero | st.floats(0.0, 0.5)), draw(st.floats(0.0, 0.3))
    g = draw(st.floats(0.0, 0.5))
    g_sec = draw(st.just(0.06) if g == 0.0 else st.sampled_from([None, 0.06]))
    strategy = draw(st.sampled_from(STRATEGIES))
    attack = AttackConfig(strategy=strategy, p_basis=draw(st.floats(0.5, 1.0)),
                          p_h=draw(st.floats(0.5, 1.0, exclude_min=True)),
                          alpha=draw(st.floats(0.5, 1.5)), alpha_x=draw(st.floats(0.5, 1.5)),
                          alpha_z=draw(st.floats(0.5, 1.5)), phi=draw(st.floats(-0.3, 0.3)),
                          phi_prime=draw(st.floats(-0.3, 0.3)))
    return ProtocolConfig(
        n_signals=draw(st.integers(1, 3 * BLOCK_SIZE) | st.just(3 * BLOCK_SIZE)),
        master_seed=draw(st.integers(0, 2**32)),
        pointer=PointerConfig(g=g, sigma_md=1.0, sigma_phi=draw(st.floats(0.0, 0.3))),
        channel=ChannelModel(depolarizing_prob=draw(st.floats(0.0, 0.2)),
                             rotation_theta=draw(st.floats(-0.5, 0.5))),
        attack=attack,
        system=SystemParams(eta_d=draw(zero | st.floats(0.0, 1.0)), y0=draw(zero | st.floats(0.0, 1e-3)),
                            distance_km=draw(st.floats(0.0, 200.0))),
        intensity_probs=(1.0 - p_decoy - p_vacuum, p_decoy, p_vacuum),
        thresholds=EstimationThresholds(g_sec=g_sec))


class TestEveryConfigEndsInAReport:
    """A degenerate estimate is an abort named by its failing check, never an exception."""

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(valid_configs())
    def test_report_or_abort(self, cfg):
        result = run_protocol(cfg)
        for report in (result.report, analytic_report(cfg)):
            deltas = (report.rates.delta_x, report.rates.delta_z, report.rates.delta_b, report.qber)
            couplings_usable = all(math.isfinite(g) and g > 0 for g in (report.g_plus, report.g_minus))
            if not (all(map(math.isfinite, deltas)) and couplings_usable):
                assert report.abort
        assert result.abort == result.report.abort
        if result.abort:
            assert result.key_rate == 0.0


class TestSweep:
    def test_axis_resolution(self):
        cfg = small_cfg()
        assert set_config_axis(cfg, "pointer.g", 0.07).pointer.g == 0.07
        assert set_config_axis(cfg, "pointer.g_over_sigma", 0.2).pointer.g == pytest.approx(0.2)
        assert set_config_axis(cfg, "system.distance_km", 33.0).system.distance_km == 33.0
        with pytest.raises(ValueError):
            set_config_axis(cfg, "nope.nothing", 1.0)
        with pytest.raises(ValueError):
            set_config_axis(cfg, "pointer.wrong_field", 1.0)

    def test_analytic_sweep_rows(self):
        cfg = ProtocolConfig(n_signals=1000, master_seed=1)
        rows = sweep(cfg, "channel.depolarizing_prob", [0.0, 0.1, 0.2], mode="analytic")
        assert len(rows) == 3
        assert rows[0]["delta_b"] == pytest.approx(0.0, abs=1e-12)
        assert rows[1]["delta_b"] == pytest.approx(0.05, abs=1e-12)
        assert [r["rate_smoothed"] for r in rows] == sorted(
            (r["rate_smoothed"] for r in rows), reverse=True)

    @pytest.mark.parametrize("axis, values", [
        ("channel.depolarizing_prob", [0.0, 0.05, 0.1]),
        ("system.distance_km", [0.0, 30.0, 60.0]),
        ("decoy.nu", [0.02, 0.05, 0.1]),
    ])
    def test_sweep_rows_equal_one_point_sweeps(self, axis, values):
        # a sweep's rows do not depend on the other values swept; only system and decoy axes move the BB84 chain
        base = ProtocolConfig(system=SystemParams())
        rows = sweep(base, axis, values)
        assert rows == [sweep(base, axis, [v])[0] for v in values]
        assert (len({row["rate_bb84_decoy"] for row in rows}) == 1) == (axis.startswith("channel."))

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            sweep(small_cfg(), "pointer.g", [0.1], mode="exact")

    @pytest.mark.parametrize("strategy", sorted(STRATEGY_FIELDS))
    def test_strategy_fields_are_what_the_analytic_report_reads(self, strategy):
        # every listed knob moves the report, every other knob leaves it as it is
        values = {"p_basis": (0.6, 0.9), "p_h": (0.6, 0.9), "alpha": (0.9, 1.1),
                  "alpha_x": (0.9, 1.1), "alpha_z": (0.9, 1.1), "g_eve": (0.04, 0.06),
                  "sigma_eve": (0.9, 1.1), "phi": (-0.1, 0.1), "phi_prime": (-0.1, 0.1)}
        attack = AttackConfig(strategy=strategy, p_h=0.8, alpha=1.0, alpha_x=1.0, alpha_z=1.0,
                              phi=0.1, phi_prime=-0.05)
        base = ProtocolConfig(channel=ChannelModel(depolarizing_prob=0.05), attack=attack)
        for knob, pair in values.items():
            texts = {analytic_report(set_config_axis(base, f"attack.{knob}", v)).to_text() for v in pair}
            assert (len(texts) == 2) == (knob in STRATEGY_FIELDS[strategy]), knob

    def test_monte_carlo_sweep(self):
        cfg = small_cfg(n_signals=150_000)
        rows = sweep(cfg, "channel.depolarizing_prob", [0.0, 0.3], mode="monte_carlo")
        assert rows[0]["qber"] < rows[1]["qber"]
        assert "ground_truth_sifted_error" in rows[0]

    def test_biased_attack_phi_sweep(self):
        # analytic sweep over the bias angle on an 8%-QBER depolarizing channel:
        # the smoothed rate peaks at phi = 0 and never exceeds its phi = 0 value
        cfg = ProtocolConfig(
            n_signals=1000, master_seed=1,
            channel=ChannelModel(depolarizing_prob=0.16),
            attack=AttackConfig(strategy="biased_observables", p_h=1.0),
        )
        phis = np.linspace(-0.5, 0.5, 41)
        rows = []
        for phi in phis:
            c = replace(cfg, attack=replace(cfg.attack, phi=float(phi), phi_prime=float(phi)))
            rows.extend(sweep(c, "pointer.bias_phi", [0.0], mode="analytic"))
        rates = [r["rate_smoothed"] for r in rows]
        peak = rates[len(rates) // 2]  # phi = 0 midpoint
        assert all(r <= peak + 1e-12 for r in rates)
        assert peak == max(rates)


class TestFigureDatasets:
    def test_fig3_shape_and_monotonicity(self):
        header, rows = fig3_dataset()
        assert header == ["g_over_sigma", "channel_error", "rate"]
        by_error = {}
        for gs, e, rate in rows:
            by_error.setdefault(e, []).append((gs, rate))
        # monotone decreasing in g/sigma, pointwise ordered in channel error
        for e, series in by_error.items():
            rates = [r for _, r in sorted(series)]
            assert all(a >= b - 1e-15 for a, b in zip(rates, rates[1:]))
        errors = sorted(by_error)
        for lo, hi in zip(errors, errors[1:]):
            lo_rates = dict((gs, r) for gs, r in by_error[lo])
            for gs, r in by_error[hi]:
                assert r <= lo_rates[gs] + 1e-15

    def test_fig3_sub_percent_reduction(self):
        header, rows = fig3_dataset()
        noiseless = {round(gs, 6): rate for gs, e, rate in rows if e == 0.0}
        r0, r1 = noiseless[0.0], noiseless[0.1]
        assert (r0 - r1) / r0 < 0.01

    def test_fig5_red_below_blue_peak_at_zero(self):
        header, rows = fig5_dataset()
        assert header == ["qber", "phi", "rate_split", "rate_smoothed"]
        for qber in (0.08, 0.11):
            block = [r for r in rows if r[0] == qber]
            smoothed = {phi: s for _, phi, _, s in block}
            peak = smoothed[min(smoothed, key=lambda p: abs(p))]
            blue_at_zero = max(1 - 2 * binary_entropy(qber), 0.0)
            assert peak == pytest.approx(blue_at_zero, abs=1e-12)
            assert all(s <= peak + 1e-12 for s in smoothed.values())

    def test_fig6_positive_and_ordered(self):
        header, rows = fig6_dataset()
        for _, r_wm, r_bb in (r for r in rows if r[0] <= 80.0):
            assert r_wm > 0 and r_bb > 0
            assert abs(r_bb - r_wm) / r_bb < 0.05


class TestCsv:
    def test_deterministic_bytes(self, tmp_path):
        header, rows = fig3_dataset()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(p1, header, rows)
        write_csv(p2, header, rows)
        assert p1.read_bytes() == p2.read_bytes()
        text = p1.read_text()
        assert text.splitlines()[0] == "g_over_sigma,channel_error,rate"
