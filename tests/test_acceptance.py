"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -s` to see one PASS line per
criterion (failures surface as ordinary pytest failures).
"""

import math
import time

import numpy as np
import pytest

from wmqkd.adversary import (
    AttackConfig,
    biased_estimates,
    optimal_bias_angles,
    strategy1_predicted_qber,
    strategy2_qber_lower_bound,
)
from wmqkd.bloch import (
    ChannelModel,
    bb84_bloch,
    binary_entropy,
    channel_r_parameters,
    projector_axis,
    true_error_rates,
)
from wmqkd.estimation import (
    INTENSITY_SIGNAL,
    SignalLog,
    build_report,
    condition_and_average,
    delta_standard_errors,
    estimate_couplings,
    estimate_error_rates,
    exact_stats,
)
from wmqkd.harness import (
    ProtocolConfig,
    channel_estimation_log,
    exact_cell_statistics,
    fig3_dataset,
    fig6_dataset,
    run_protocol,
)
from wmqkd.keyrate import DecoyConfig, SystemParams, bb84_decoy_chain, wm_decoy_chain
from wmqkd.pointer import PointerConfig, measure_array, wm_disturbance_error

from test_paper_formulas import strategy1_variance_ratio, strategy2_sigma_ratio_crossover

G_SIGMA = 0.05


def _passed(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_disturbance_bound():
    """The Monte Carlo flip rate lies within 3 binomial standard errors of
    delta_wm: one two-sided check, nominal false-alarm rate 2.7e-3 (normal tail)."""
    t0 = time.perf_counter()
    value = wm_disturbance_error(0.10, 1.0)
    assert value < 0.0004
    assert abs(value - 0.25 * (1.0 - math.exp(-0.00125))) < 1e-12

    # Monte Carlo flip rate over 1e7 signals, all four inputs and both
    # observables interleaved; flip = strong measurement in the preparation
    # basis lands on the orthogonal state
    cfg = PointerConfig(g=0.10, sigma_md=1.0)
    total = 10_000_000
    chunk = 1_000_000
    flips = 0
    rng = np.random.default_rng(20170109)
    states = np.stack(bb84_bloch(np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1])), axis=-1)
    for _ in range(total // chunk):
        pick = rng.integers(0, 4, chunk)
        r = states[pick]
        sign = np.where(rng.random(chunk) < 0.5, 1.0, -1.0)
        _, post = measure_array(*r.T, sign, np.full(chunk, math.pi / 4), cfg, rng)
        post = np.stack(post, axis=-1)
        overlap = 0.5 * (1.0 + np.einsum("ij,ij->i", post, r))
        flips += int((rng.random(chunk) > overlap).sum())
    rate = flips / total
    se = math.sqrt(value * (1.0 - value) / total)
    assert abs(rate - value) <= 3 * se
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passed(1, f"delta_wm(0.1) = {value:.6e} < 4e-4; MC flip rate {rate:.6e} "
               f"within 3 se ({se:.1e}); {elapsed:.1f}s")


def test_criterion_2_fig3_property():
    t0 = time.perf_counter()
    header, rows = fig3_dataset()
    series = {}
    for gs, e, rate in rows:
        series.setdefault(e, {})[round(gs, 6)] = rate
    # < 1% relative reduction at g/sigma = 0.10 on the noiseless curve
    noiseless = series[0.0]
    reduction = (noiseless[0.0] - noiseless[0.1]) / noiseless[0.0]
    assert reduction < 0.01
    # monotone in g/sigma for every channel error
    for e, curve in series.items():
        rates = [curve[k] for k in sorted(curve)]
        assert all(a >= b - 1e-15 for a, b in zip(rates, rates[1:]))
    # pointwise ordered across the 0/2/5/8% curves
    errors = sorted(series)
    assert errors == [0.0, 0.02, 0.05, 0.08]
    for lo, hi in zip(errors, errors[1:]):
        for k in series[lo]:
            assert series[hi][k] <= series[lo][k] + 1e-15
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _passed(2, f"noiseless reduction at g/sigma=0.1 is {reduction:.3%} < 1%; "
               f"curves ordered and monotone; {elapsed:.1f}s")


def test_criterion_3_estimation_round_trip():
    """Exact round trip to 1e-12, then 100 Monte Carlo trials whose two deltas
    must each lie within 4 of their standard errors in at least 99.  A check fails
    with nominal rate 6.3e-5 (two-sided normal tail), so a trial with at most
    1.3e-4, and the test, which needs two failed trials, with 7.9e-5."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    # exact-expectation round trip on 200 randomized unital channels
    worst = 0.0
    for _ in range(200):
        chan = ChannelModel(
            depolarizing_prob=float(rng.uniform(0.0, 0.95)),
            rotation_theta=float(rng.uniform(-math.pi, math.pi)),
        )
        cfg = ProtocolConfig(pointer=PointerConfig(G_SIGMA, 1.0), channel=chan)
        mean, var = exact_cell_statistics(cfg)
        stats = exact_stats(mean, var)
        gp, gm = estimate_couplings(stats)
        rates = estimate_error_rates(stats, gp, gm)
        dx, dz = true_error_rates(chan)
        worst = max(worst, abs(rates.delta_x - dx), abs(rates.delta_z - dz))
    assert worst < 1e-12

    # Monte Carlo at N = 1e6: both deltas within 4 standard errors in >= 99/100 trials
    hits = 0
    pointer = PointerConfig(G_SIGMA, 1.0)
    for trial in range(100):
        chan = ChannelModel(
            depolarizing_prob=float(rng.uniform(0.0, 0.3)),
            rotation_theta=float(rng.uniform(-0.5, 0.5)),
        )
        log = channel_estimation_log(chan, pointer, 1_000_000, 1000 + trial)
        stats = condition_and_average(log)[INTENSITY_SIGNAL]
        gp, gm = estimate_couplings(stats)
        rates = estimate_error_rates(stats, gp, gm)
        se_x, se_z, _ = delta_standard_errors(stats)
        dx, dz = true_error_rates(chan)
        if abs(rates.delta_x - dx) <= 4 * se_x and abs(rates.delta_z - dz) <= 4 * se_z:
            hits += 1
    assert hits >= 99
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _passed(3, f"exact round-trip worst error {worst:.2e} < 1e-12; "
               f"MC coverage {hits}/100 trials; {elapsed:.0f}s")


def test_criterion_4_complement_identity_and_concavity():
    rng = np.random.default_rng(44)
    # complement identity on randomized pure states, projectors and channels
    worst = 0.0
    for _ in range(500):
        theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        s = np.array([math.sin(theta) * math.cos(phi),
                      math.sin(theta) * math.sin(phi), math.cos(theta)])
        sign, angle = int(rng.choice([-1, 1])), math.pi / 4 + float(rng.uniform(-1.2, 1.2))
        axis_x, axis_z = projector_axis(sign, angle)
        chan = ChannelModel(float(rng.uniform(0, 1)), float(rng.uniform(-math.pi, math.pi)))
        total = 0.0
        for r in (s, -s):  # the state and its complement
            r_x, r_z = chan.apply_array(r[0], r[2])
            total += 0.5 * (1.0 + axis_x * r_x + axis_z * r_z)
        worst = max(worst, abs(total - 1.0))
    assert worst < 1e-12

    # entropy concavity over the full 100 x 100 grid on [0, 1/2]^2
    grid = np.linspace(0.0, 0.5, 100)
    a, b = np.meshgrid(grid, grid)
    h2 = np.vectorize(binary_entropy)  # H2 takes one error rate
    lhs = 1.0 - 2.0 * h2((a + b) / 2.0)
    rhs = 1.0 - h2(a) - h2(b)
    gap = float(np.min(rhs - lhs))
    assert gap >= -1e-12
    _passed(4, f"complement identity worst residual {worst:.2e}; "
               f"concavity margin min {gap:.2e} on 100x100 grid")


def test_criterion_5_biased_observable_theorem():
    for qber in (0.08, 0.11):
        r = 1.0 - 2.0 * qber
        rhs = 1.0 - 2.0 * binary_entropy(qber)  # = 1 - H2(dX) - H2(dZ), dX = dZ
        for phi in np.linspace(-math.pi / 2 + 1e-6, math.pi / 2 - 1e-6, 2001):
            dx, dz = biased_estimates(r, r, float(phi))
            db = 0.5 * (dx + dz)
            lhs = 1.0 - 2.0 * binary_entropy(min(max(db, 0.0), 0.5))
            assert lhs <= rhs + 1e-9
            if phi == 0.0:
                assert abs(lhs - rhs) < 1e-12
            elif abs(phi) > 2e-3:
                assert lhs < rhs - 1e-9
    _passed(5, "1 - 2 H2(db~) <= 1 - H2(dX) - H2(dZ) over phi in (-pi/2, pi/2) "
               "at QBER 8% and 11%, equality only at phi = 0")


def test_criterion_6_optimal_bias_formulas():
    rng = np.random.default_rng(66)
    resolution = 1e-3
    phis = np.arange(-math.pi / 2, math.pi / 2, resolution)
    s = np.sin(math.pi / 4 + phis)
    c = np.cos(math.pi / 4 + phis)
    for _ in range(50):
        chan = ChannelModel(
            depolarizing_prob=float(rng.uniform(0.0, 0.6)),
            rotation_theta=float(rng.uniform(-0.4, 0.4)),
        )
        p_h = float(rng.uniform(0.5, 1.0))
        r = channel_r_parameters(chan)
        phi, phi_p = optimal_bias_angles(
            r["r_x_plus"], r["r_z_plus"], r["r_x_0"], r["r_z_0"], p_h)
        two_ph = 2.0 * p_h - 1.0
        g_phi = (r["r_x_plus"] + r["r_x_0"] * two_ph) * s + \
                (r["r_z_0"] + r["r_z_plus"] * two_ph) * c
        g_phi_p = (r["r_x_plus"] - r["r_x_0"] * two_ph) * s + \
                  (r["r_z_0"] - r["r_z_plus"] * two_ph) * c
        assert abs(phi - float(phis[np.argmax(g_phi)])) <= resolution
        assert abs(phi_p - float(phis[np.argmax(g_phi_p)])) <= resolution
    # depolarizing channels give exactly (0, 0)
    for p in (0.0, 0.2, 0.7):
        r = channel_r_parameters(ChannelModel(depolarizing_prob=p))
        assert optimal_bias_angles(
            r["r_x_plus"], r["r_z_plus"], r["r_x_0"], r["r_z_0"], 0.85) == (0.0, 0.0)
    _passed(6, "arctan bias formulas match the 1e-3 grid minimizer on 50 random "
               "unital channels; depolarizing channels give (0, 0) exactly")


def test_criterion_7_attack_strategy_1():
    """delta_b~ lies within 3 delta_b_se of (1 - alpha p_H)/2 for four p_H: each
    two-sided check has nominal false-alarm rate 2.7e-3, so the loop 1.1e-2.
    The variance-ratio and p_H = 1 checks are not k-standard-error checks."""
    t0 = time.perf_counter()
    alpha = 1.0
    rejected = []
    for i, p_h in enumerate((0.6, 0.8, 0.9, 0.95)):
        cfg = ProtocolConfig(
            n_signals=1_000_000, master_seed=700 + i,
            attack=AttackConfig(strategy="fake_wm_strategy1", p_h=p_h, alpha=alpha),
            intensity_probs=(1.0, 0.0, 0.0),
        )
        res = run_protocol(cfg)
        predicted = strategy1_predicted_qber(alpha, p_h)
        assert abs(res.report.rates.delta_b - predicted) <= 3 * res.report.delta_b_se
        assert not res.report.verdicts.variances_equal
        assert res.report.verdicts.max_variance_ratio == pytest.approx(
            strategy1_variance_ratio(p_h), rel=0.08)
        rejected.append(p_h)
    # perfect observable knowledge sails through every check
    cfg = ProtocolConfig(
        n_signals=1_000_000, master_seed=799,
        attack=AttackConfig(strategy="fake_wm_strategy1", p_h=1.0, alpha=1.0),
        intensity_probs=(1.0, 0.0, 0.0),
    )
    res = run_protocol(cfg)
    assert res.report.verdicts.variances_equal
    assert res.report.verdicts.all_pass
    assert not res.abort
    elapsed = time.perf_counter() - t0
    _passed(7, f"delta_b~ = (1 - alpha p_H)/2 reproduced and variance equality "
               f"rejected for p_H in {rejected}; p_H = 1 run passes; {elapsed:.0f}s")


def test_criterion_8_attack_strategy_2():
    """The QBER is at least (1 - sigma_ratio p_b p_H)/2 - 3 delta_b_se on a 3x3
    grid.  At sigma_ratio = 1 the bound holds with equality, so each one-sided
    check has nominal false-alarm rate 1.35e-3, and the nine checks 1.2e-2."""
    t0 = time.perf_counter()
    # alpha = sigma_sec/sigma_md saturates the variance cap (a delivered cell
    # variance is (alpha sigma_md)^2), and there the QBER bound holds with equality
    sigma_ratio = 1.0
    for i, p_b in enumerate((0.5, 0.7, 0.9)):
        for j, p_h in enumerate((0.5, 0.7, 0.9)):
            cfg = ProtocolConfig(
                n_signals=1_000_000, master_seed=800 + 10 * i + j,
                attack=AttackConfig(strategy="fake_wm_strategy2", p_basis=p_b, p_h=p_h,
                                    alpha_x=sigma_ratio, alpha_z=sigma_ratio),
                intensity_probs=(1.0, 0.0, 0.0),
            )
            res = run_protocol(cfg)
            bound = strategy2_qber_lower_bound(p_b, p_h, sigma_ratio)
            assert res.qber >= bound - 3 * res.report.delta_b_se
    crossover = strategy2_sigma_ratio_crossover(0.35, 0.11)
    assert abs(crossover - 2.229) <= 1e-3
    elapsed = time.perf_counter() - t0
    _passed(8, f"estimated QBER >= (1 - sigma_ratio p_b p_H)/2 - 3 se on the "
               f"3x3 grid; sigma_sec/sigma_md crossover {crossover:.4f}; {elapsed:.0f}s")


def test_criterion_9_decoy_rates():
    t0 = time.perf_counter()
    params = SystemParams(eta_d=0.145, y0=6e-6, loss_db_per_km=0.2,
                          distance_km=50.0, f_ec=1.22, e_d=0.015)
    decoy = DecoyConfig(mu=0.48, nu=0.05)
    delta_wm = wm_disturbance_error(G_SIGMA, 1.0)
    r_wm_50 = wm_decoy_chain(params, decoy, delta_wm).rate
    r_bb_50 = bb84_decoy_chain(params, decoy).rate
    assert r_wm_50 > 0 and r_bb_50 > 0

    header, rows = fig6_dataset()
    rows = [r for r in rows if r[0] <= 80.0]
    # the figure is drawn at the parameters stated above
    assert [r for r in rows if r[0] == 50.0] == [[50.0, r_wm_50, r_bb_50]]
    wm = [r[1] for r in rows]
    bb = [r[2] for r in rows]
    assert all(a >= b - 1e-15 for a, b in zip(wm, wm[1:]))
    assert all(a >= b - 1e-15 for a, b in zip(bb, bb[1:]))
    worst_gap = max(abs(b - w) / b for w, b in zip(wm, bb))
    assert worst_gap < 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _passed(9, f"both rates positive at 50 km (WM {r_wm_50:.3e}, BB84 {r_bb_50:.3e}), "
               f"monotone, max relative gap {worst_gap:.2%} < 5% over 0-80 km; {elapsed:.1f}s")


def test_criterion_10_detector_independence():
    cfg = ProtocolConfig(n_signals=400_000, master_seed=1001)
    res = run_protocol(cfg, keep_log=True)
    log = res.log
    # delete every strong-measurement outcome (keep the no-click pattern)
    scrubbed = SignalLog(log.s_a, log.b, log.h, log.omega,
                         np.where(log.s_b == -1, -1, 0).astype(np.int8),
                         log.intensity)
    r1 = build_report(log, cfg.resolved_thresholds())
    r2 = build_report(scrubbed, cfg.resolved_thresholds())
    assert np.array_equal(r1.cell_mean, r2.cell_mean)
    assert np.array_equal(r1.cell_var, r2.cell_var)
    assert np.array_equal(r1.cell_count, r2.cell_count)
    assert r1.rates == r2.rates
    assert r1.decoy_rates == r2.decoy_rates
    assert (r1.g_plus, r1.g_minus) == (r2.g_plus, r2.g_minus)
    assert (r1.qber, r1.abort) == (r2.qber, r2.abort)
    assert r1.verdicts == r2.verdicts
    assert r1.to_text() == r2.to_text()
    _passed(10, "estimation report is bit-identical after deleting all "
                "strong-measurement outcomes")
