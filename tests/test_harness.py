import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from wmqkd.adversary import (
    STRATEGY_FIELDS,
    AttackConfig,
    intercept_resend_array,
    sample_strategy_fakes,
    strategy1_predicted_qber,
)
from wmqkd.bloch import ChannelModel, binary_entropy, true_error_rates
from wmqkd.estimation import (
    INTENSITY_DECOY,
    INTENSITY_SIGNAL,
    INTENSITY_VACUUM,
    NO_CLICK,
    EstimationError,
    SignalLog,
    build_report,
)
from wmqkd.harness import (
    ProtocolConfig,
    _estimated_key_rate,
    analytic_report,
    channel_estimation_log,
    exact_cell_statistics,
    fig3_dataset,
    fig5_dataset,
    fig6_dataset,
    run_protocol,
    set_config_axis,
    stage_block_generator,
    stage_uniform,
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
    def test_blocks_are_disjoint_and_deterministic(self):
        a = stage_uniform(9, "alice_bits", 200_000)
        b = stage_uniform(9, "alice_bits", 200_000)
        assert np.array_equal(a, b)
        c = stage_uniform(10, "alice_bits", 200_000)
        assert not np.array_equal(a, c)
        d = stage_uniform(9, "alice_basis", 200_000)
        assert not np.array_equal(a, d)

    def test_partition_independence(self):
        # workers owning whole blocks reproduce the serial stream exactly
        n = 150_000
        serial = stage_uniform(9, "detection", n)
        pieces = []
        for block in range(0, math.ceil(n / (1 << 16))):
            lo = block * (1 << 16)
            hi = min(lo + (1 << 16), n)
            gen = stage_block_generator(9, "detection", block)
            pieces.append(gen.random(hi - lo))
        assert np.array_equal(serial, np.concatenate(pieces))


class TestRunDeterminism:
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


# ---------------------------------------------------------------------------
# reference: the whole-array run that run_protocol's block loop replaced
# ---------------------------------------------------------------------------

def _ref_blocks(seed, stage, n):
    for block, lo in enumerate(range(0, n, 1 << 16)):
        yield lo, min(lo + (1 << 16), n), stage_block_generator(seed, stage, block)


def _ref_bits(seed, stage, n):
    return (stage_uniform(seed, stage, n) < 0.5).astype(np.uint8)


def _ref_measure(r, sign, angle, pointer, rng):
    """Weak measurement with full (N, 3) axis, projection and Kraus temporaries."""
    angle = angle + pointer.bias_phi
    if pointer.sigma_phi > 0:
        angle = angle + rng.normal(0.0, pointer.sigma_phi, angle.shape)
    axis = np.stack([sign * np.sin(angle), np.zeros_like(angle), np.cos(angle)], axis=-1)
    rn = np.sum(r * axis, axis=-1)
    shifted = rng.random(rn.shape) < 0.5 * (1.0 + rn)
    omega = rng.normal(0.0, pointer.sigma_md, rn.shape) + np.where(shifted, pointer.g, 0.0)
    g, sigma = pointer.g, pointer.sigma_md
    a2 = np.exp(-(omega**2) / (2.0 * sigma * sigma))
    b2 = np.exp(-((omega - g) ** 2) / (2.0 * sigma * sigma))
    ab = np.exp(-(omega**2 + (omega - g) ** 2) / (4.0 * sigma * sigma))
    norm = 0.5 * (a2 * (1.0 - rn) + b2 * (1.0 + rn))
    out_n = (b2 * (1.0 + rn) - a2 * (1.0 - rn)) / (2.0 * norm)
    perp = r - rn[..., None] * axis
    return omega, out_n[..., None] * axis + (ab / norm)[..., None] * perp


def _ref_source(seed, n):
    s_a, b = _ref_bits(seed, "alice_bits", n), _ref_bits(seed, "alice_basis", n)
    r = np.zeros((n, 3))
    sign = np.where(s_a == 0, 1.0, -1.0)
    r[b == 0, 2] = sign[b == 0]
    r[b == 1, 0] = sign[b == 1]
    return s_a, b, r


def _ref_bob(seed, r, h, bias, pointer):
    sign = np.where(h == 0, 1.0, -1.0)
    angle = math.pi / 4 + bias
    omega, posterior = np.empty(len(h)), np.empty_like(r)
    for lo, hi, gen in _ref_blocks(seed, "bob_wm", len(h)):
        omega[lo:hi], posterior[lo:hi] = _ref_measure(r[lo:hi], sign[lo:hi], angle[lo:hi], pointer, gen)
    u_strong = stage_uniform(seed, "bob_strong", len(h))
    return omega, np.where(u_strong < 0.5 * (1.0 - posterior[:, 2]), 1, 0).astype(np.int8)


def reference_run(cfg):
    """The protocol run over whole n-length arrays; returns (result fields, full log)."""
    n, seed = cfg.n_signals, cfg.master_seed
    attack = cfg.attack.with_device_defaults(cfg.pointer.g, cfg.pointer.sigma_md)
    s_a, b, r = _ref_source(seed, n)
    edges = np.cumsum(cfg.intensity_probs)
    u = stage_uniform(seed, "intensity", n)
    intensity = np.full(n, INTENSITY_VACUUM, dtype=np.uint8)
    intensity[u < edges[1]] = INTENSITY_DECOY
    intensity[u < edges[0]] = INTENSITY_SIGNAL
    r = np.stack(cfg.channel.apply_array(r[:, 0], r[:, 1], r[:, 2]), axis=-1)
    eve_bits = None
    if attack.strategy in ("intercept_resend", "fake_wm_strategy1", "fake_wm_strategy2"):
        out, eve_bits = np.empty_like(r), np.empty(n, dtype=np.uint8)
        for lo, hi, gen in _ref_blocks(seed, "eve_channel", n):
            out[lo:hi], _, eve_bits[lo:hi] = intercept_resend_array(
                r[lo:hi], b[lo:hi], attack.p_basis, gen, force_z=attack.strategy == "fake_wm_strategy1")
        r = out
    p_photon = -np.expm1(-cfg.system.eta * np.choose(intensity, [cfg.decoy.mu, cfg.decoy.nu, 0.0]))
    u = stage_uniform(seed, "detection", n)
    photon_click = u < p_photon
    dark_click = (~photon_click) & (u < p_photon + cfg.system.y0)
    clicked = photon_click | dark_click
    h = _ref_bits(seed, "bob_observable", n)
    bias = np.zeros(n)
    if attack.strategy == "biased_observables":
        guess_right = stage_uniform(seed, "eve_observable_guess", n) < attack.p_h
        bias = np.where(guess_right, np.where(h == 0, attack.phi, attack.phi_prime),
                        np.where(h == 0, attack.phi_prime, attack.phi))
    omega, s_b = _ref_bob(seed, r, h, bias, cfg.pointer)
    dark_omega = np.zeros(n)
    for lo, hi, gen in _ref_blocks(seed, "dark_pointer", n):
        dark_omega[lo:hi] = gen.normal(0.0, cfg.pointer.sigma_md, hi - lo)
    omega = np.where(dark_click, dark_omega, omega)
    s_b = np.where(dark_click, (stage_uniform(seed, "dark_bit", n) < 0.5).astype(np.int8), s_b)
    if attack.strategy in ("fake_wm_strategy1", "fake_wm_strategy2"):
        omega = np.empty(n)
        for lo, hi, gen in _ref_blocks(seed, "eve_fakes", n):
            omega[lo:hi] = sample_strategy_fakes(s_a[lo:hi], b[lo:hi], h[lo:hi], attack,
                                                 cfg.pointer.g, cfg.pointer.sigma_md, gen)
    s_b = np.where(clicked, s_b, NO_CLICK).astype(np.int8)
    log = SignalLog(s_a, b, h, omega, s_b, intensity)
    report = build_report(log, cfg.resolved_thresholds())
    sift = clicked & (b == 0)
    key_len = int(sift.sum())
    gt_error = float((s_a[sift] != s_b[sift]).mean()) if key_len else 0.0
    eve_known = float((eve_bits[sift] == s_b[sift]).mean()) if eve_bits is not None and key_len else None
    key_rate = 0.0 if report.abort else _estimated_key_rate(report, cfg)
    return (report.to_text(), key_len, gt_error, eve_known, key_rate), log


def reference_channel_estimation_log(channel, pointer, n, seed):
    s_a, b, r = _ref_source(seed, n)
    h = _ref_bits(seed, "bob_observable", n)
    r = np.stack(channel.apply_array(r[:, 0], r[:, 1], r[:, 2]), axis=-1)
    omega, s_b = _ref_bob(seed, r, h, np.zeros(n), pointer)
    return SignalLog(s_a, b, h, omega, s_b, np.full(n, INTENSITY_SIGNAL, dtype=np.uint8))


def reference_cell_expectations(cfg, attack):
    """The scalar per-cell loop the analytic mode ran before it was vectorised.

    Per cell: BB84 state, channel, intercept-resend mean, then the
    p_h-weighted expectation at (pi/4 + bias_phi) + bias.
    """
    expectations = np.empty((2, 2, 2))
    damp = math.exp(-0.5 * cfg.pointer.sigma_phi**2)
    z_axis, x_axis = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    for s_a in (0, 1):
        sign = 1.0 if s_a == 0 else -1.0
        for basis_flag in (0, 1):
            state = (0.0, 0.0, sign) if basis_flag == 0 else (sign, 0.0, 0.0)
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
                        1.0 + damp * (fam * math.sin(a) * r_vec[0] + math.cos(a) * r_vec[2]))
                expectations[s_a, basis_flag, h_flag] = e
    return expectations


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
EQUIVALENCE_N = 3 * (1 << 16) + 123
EQUIVALENCE_ATTACKS = {
    "none": AttackConfig(),
    "intercept_resend": AttackConfig(strategy="intercept_resend", p_basis=0.5),
    "biased_observables": AttackConfig(strategy="biased_observables", p_h=0.8, phi=0.1, phi_prime=-0.05),
    "fake_wm_strategy1": AttackConfig(strategy="fake_wm_strategy1", p_h=0.9, alpha=1.0),
    "fake_wm_strategy2": AttackConfig.strategy2(p_basis=0.9, p_h=0.9),
}
EQUIVALENCE_SYSTEMS = {"lossless": ProtocolConfig().system, "lossy": SystemParams()}


class TestBlockPipelineEquivalence:
    """The block loop reproduces the whole-array run bit for bit."""

    @pytest.mark.parametrize("system", sorted(EQUIVALENCE_SYSTEMS))
    @pytest.mark.parametrize("strategy", sorted(EQUIVALENCE_ATTACKS))
    def test_matches_whole_array_run(self, strategy, system):
        cfg = ProtocolConfig(n_signals=EQUIVALENCE_N, master_seed=101,
                             attack=EQUIVALENCE_ATTACKS[strategy], system=EQUIVALENCE_SYSTEMS[system])
        try:
            expected, expected_log = reference_run(cfg)
        except EstimationError as exc:
            with pytest.raises(EstimationError, match=re.escape(str(exc))):
                run_protocol(cfg)
            return
        result = run_protocol(cfg)
        kept = run_protocol(cfg, keep_log=True)
        for res in (result, kept):
            assert (res.report.to_text(), res.sifted_key_length, res.ground_truth_sifted_error,
                    res.eve_sifted_knowledge, res.key_rate) == expected
        for name in LOG_COLUMNS:
            got, want = getattr(kept.log, name), getattr(expected_log, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        rebuilt = build_report(kept.log, cfg.resolved_thresholds())
        assert result.report.to_text() == rebuilt.to_text()

    def test_channel_estimation_log_matches(self):
        chan = ChannelModel(depolarizing_prob=0.1, rotation_theta=0.2)
        pointer = PointerConfig(0.05, 1.0, sigma_phi=0.1, bias_phi=0.02)
        got = channel_estimation_log(chan, pointer, EQUIVALENCE_N, 7)
        want = reference_channel_estimation_log(chan, pointer, EQUIVALENCE_N, 7)
        for name in LOG_COLUMNS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

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


class TestHonestRun:
    def test_noiseless_passes_and_matches_ground_truth(self):
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
        chan = ChannelModel(depolarizing_prob=0.06)
        cfg = ProtocolConfig(n_signals=1_200_000, master_seed=6, channel=chan,
                             intensity_probs=(1.0, 0.0, 0.0))
        res = run_protocol(cfg)
        dx, _ = true_error_rates(chan)
        assert res.report.rates.delta_b == pytest.approx(dx, abs=4 * res.report.delta_b_se)
        gt = res.ground_truth_sifted_error
        assert res.qber == pytest.approx(gt, abs=4 * res.report.delta_b_se)


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
        cfg = small_cfg(
            n_signals=1_000_000,
            attack=AttackConfig(strategy="fake_wm_strategy1", p_h=1.0, alpha=1.0),
            intensity_probs=(1.0, 0.0, 0.0),
        )
        res = run_protocol(cfg)
        assert not res.abort            # every check passes
        assert res.undetected_attack    # yet Eve holds the key
        assert res.eve_sifted_knowledge > 0.99
        assert res.ground_truth_sifted_error < 0.01

    def test_strategy1_partial_knowledge_detected(self):
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
            attack=AttackConfig.strategy2(p_basis=0.9, p_h=0.9,
                                          alpha_x=eve_amp, alpha_z=eve_amp),
            intensity_probs=(1.0, 0.0, 0.0),
            thresholds=EstimationThresholds.for_device(
                0.05, 1.0, sigma_sec_sq=sigma_ratio**2),
        )
        res = run_protocol(cfg)
        v = res.report.verdicts
        assert v.variances_bounded and v.variances_equal
        bound = strategy2_qber_lower_bound(0.9, 0.9, sigma_ratio)
        assert res.qber >= bound - 3 * res.report.delta_b_se


class TestAnalyticMode:
    def test_matches_monte_carlo(self):
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

    def test_abort_monotone_in_noise(self):
        cfg = ProtocolConfig(n_signals=1000, master_seed=1)
        aborted = [analytic_report(set_config_axis(cfg, "channel.depolarizing_prob", p)).abort
                   for p in np.linspace(0.0, 0.5, 21)]
        # once the analytic run aborts it stays aborted as noise rises
        first = aborted.index(True)
        assert all(aborted[first:])
        assert not any(aborted[:first])

    def test_no_detections_is_an_estimation_error(self):
        # no gain at all: the dark fraction Q_vac / Q_mu is undefined
        cfg = ProtocolConfig(system=SystemParams(eta_d=0.0, y0=0.0))
        with pytest.raises(EstimationError, match="Q_gamma must be positive"):
            analytic_report(cfg)


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
        header, rows = fig3_dataset(g_over_sigma=[0.0, 0.1], channel_errors=[0.0])
        r0 = rows[0][2]
        r1 = rows[1][2]
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
        header, rows = fig6_dataset(distances=np.arange(0.0, 81.0, 10.0))
        for _, r_wm, r_bb in rows:
            assert r_wm > 0 and r_bb > 0
            assert abs(r_bb - r_wm) / r_bb < 0.05


class TestCsv:
    def test_deterministic_bytes(self, tmp_path):
        header, rows = fig3_dataset(g_over_sigma=[0.0, 0.25, 0.5])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(p1, header, rows)
        write_csv(p2, header, rows)
        assert p1.read_bytes() == p2.read_bytes()
        text = p1.read_text()
        assert text.splitlines()[0] == "g_over_sigma,channel_error,rate"
