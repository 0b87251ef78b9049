import math

import numpy as np
import pytest

from wmqkd.adversary import (
    AttackConfig,
    biased_estimates,
    biased_estimates_selective,
    intercept_resend_array,
    optimal_bias_angles,
    sample_strategy_fakes,
    strategy1_predicted_qber,
    strategy1_variance_ratio,
    strategy2_qber_lower_bound,
    strategy2_sigma_ratio_crossover,
    strategy_fake_cell_laws,
)
from wmqkd.bloch import BlochState, ChannelModel, bb84_state, binary_entropy, channel_r_parameters
from wmqkd.pointer import PointerConfig, measure_array


def z0_states(n):
    return np.tile(bb84_state("Z", 0).as_array(), (n, 1))


def measure_pair(r, first_sign, cfg, rng):
    """Weak-measure H(first_sign) then the other family on the posterior; returns both readings."""
    n = len(r)
    quarter = np.full(n, math.pi / 4)  # H- is sign -1 at the same angle
    first, posterior = measure_array(r, np.full(n, first_sign), quarter, cfg, rng)
    second, _ = measure_array(posterior, np.full(n, -first_sign), quarter, cfg, rng)
    return first, second


class TestAttackConfig:
    def test_probability_ranges(self):
        with pytest.raises(ValueError):
            AttackConfig(p_basis=0.4)
        with pytest.raises(ValueError):
            AttackConfig(p_h=1.2)

    def test_strategy_field_requirements(self):
        with pytest.raises(ValueError):
            AttackConfig(strategy="fake_wm_strategy1", p_h=0.9)  # alpha missing
        with pytest.raises(ValueError):
            AttackConfig(strategy="fake_wm_strategy1", p_h=0.5, alpha=1.0)  # needs p_h > 1/2
        with pytest.raises(ValueError):
            AttackConfig(strategy="fake_wm_strategy2", p_basis=0.9, p_h=0.9)  # alphas missing
        with pytest.raises(ValueError):
            AttackConfig(strategy="nonsense")

    def test_strategy2_builder_defaults(self):
        cfg = AttackConfig.strategy2(p_basis=0.7, p_h=0.9, sigma_ratio=1.1)
        assert cfg.alpha_x == pytest.approx(1.1)
        assert cfg.alpha_z == pytest.approx(1.1)

    def test_device_defaults(self):
        cfg = AttackConfig(strategy="intercept_resend", p_basis=0.8)
        filled = cfg.with_device_defaults(0.05, 1.0)
        assert filled.g_eve == 0.05 and filled.sigma_eve == 1.0


class TestInterceptResend:
    def test_perfect_basis_knowledge(self):
        rng = np.random.default_rng(0)
        cfg = AttackConfig(strategy="intercept_resend", p_basis=1.0)
        out, _, _ = intercept_resend_array(z0_states(50), np.zeros(50, dtype=np.uint8), cfg.p_basis, rng)
        for row in out:
            assert BlochState.from_array(row) == bb84_state("Z", 0)

    def test_half_basis_knowledge_mean_state(self):
        rng = np.random.default_rng(1)
        cfg = AttackConfig(strategy="intercept_resend", p_basis=0.5)
        n = 40_000
        out, _, _ = intercept_resend_array(z0_states(n), np.zeros(n, dtype=np.uint8), cfg.p_basis, rng)
        # re-emitted ensemble averages to (0, 0, 1/2)
        assert out.mean(axis=0) == pytest.approx([0, 0, 0.5], abs=4 / math.sqrt(n))

    @pytest.mark.parametrize("p_basis,want", [(0.5, 0.25), (0.9, 0.05), (1.0, 0.0)])
    def test_induced_sifted_error(self, p_basis, want):
        # Z-sent, Z-measured error rate is (1 - p_basis)/2
        rng = np.random.default_rng(2)
        n = 200_000
        r = np.tile(bb84_state("Z", 0).as_array(), (n, 1))
        basis = np.zeros(n, dtype=np.uint8)
        out, _, _ = intercept_resend_array(r, basis, p_basis, rng)
        flips = rng.random(n) < 0.5 * (1.0 - out[:, 2])
        se = math.sqrt(max(want * (1 - want), 0.25 / n) / n)
        assert flips.mean() == pytest.approx(want, abs=max(3 * se, 2e-3))


class TestFakePointer:
    def test_measurement_ordering_second_order(self):
        # measuring H+ then H- versus H- then H+: at weak couplings the
        # ordering shifts Eve's conditional means only at O(g^3/sigma^2)
        cfg = PointerConfig(g=0.05, sigma_md=1.0)
        n = 40_000
        means = []
        for seed, first_sign in ((20, 1.0), (20, -1.0)):
            first, second = measure_pair(z0_states(n), first_sign, cfg, np.random.default_rng(seed))
            means.append((first.mean(), second.mean()))
        plus_first, minus_first = means
        se = 3.0 * math.sqrt(2.0 / n)
        # the H+ mean measured first equals the H+ mean measured second, etc.
        assert plus_first[0] == pytest.approx(minus_first[1], abs=se)
        assert plus_first[1] == pytest.approx(minus_first[0], abs=se)

    def test_faked_conditional_mean(self):
        # alpha = 1.2, perfect observable knowledge, Z-basis bit 0:
        # faked mean -> g (1/2 + 1.2/(2 sqrt 2))
        rng = np.random.default_rng(3)
        cfg = AttackConfig(strategy="fake_wm_strategy1", p_h=1.0, alpha=1.2,
                           g_eve=0.05, sigma_eve=1.0)
        n = 60_000
        delta_plus, _ = measure_pair(z0_states(n), 1.0, PointerConfig(g=0.05, sigma_md=1.0), rng)
        # Eve substitutes her H+ reading through the affine rule g_e/2 + alpha (Delta_+ - g_e/2)
        faked = cfg.g_eve / 2 + cfg.alpha * (delta_plus - cfg.g_eve / 2)
        want = 0.05 * (0.5 + 1.2 / (2 * math.sqrt(2)))
        assert faked.mean() == pytest.approx(want, abs=4 * 1.2 / math.sqrt(n))


class TestStrategyFormulas:
    def test_strategy1_qber(self):
        assert strategy1_predicted_qber(1.0, 1.0) == 0.0
        assert strategy1_predicted_qber(0.0, 0.7) == 0.5
        assert strategy1_predicted_qber(1.0, 0.9) == pytest.approx(0.05)

    def test_strategy1_variance_ratio(self):
        assert strategy1_variance_ratio(0.9) == pytest.approx(1.5625)
        assert strategy1_variance_ratio(1.0) == 1.0

    def test_strategy2_bound(self):
        assert strategy2_qber_lower_bound(0.7, 0.5, 1.0) == pytest.approx(0.325)
        assert strategy2_qber_lower_bound(1.0, 1.0, 1.0) == 0.0
        with pytest.raises(ValueError):
            strategy2_qber_lower_bound(0.7, 0.5, 0.9)

    def test_strategy2_crossover(self):
        # at p_basis p_H = 0.35 and delta_sec = 0.11, sigma_sec/sigma_md = 0.78/0.35
        ratio = strategy2_sigma_ratio_crossover(0.35, 0.11)
        assert ratio == pytest.approx(2.2285714285714286, abs=1e-12)
        assert strategy2_qber_lower_bound(0.7, 0.5, ratio) == pytest.approx(0.11, abs=1e-12)

    def test_strategy2_cell_laws_select_alpha_by_basis(self):
        attack = AttackConfig.strategy2(p_basis=0.9, p_h=0.9, alpha_x=2.0, alpha_z=3.0)
        mean, var = strategy_fake_cell_laws(attack, 0.05, 1.0)
        assert var[:, 0, :] == pytest.approx(9.0)
        assert var[:, 1, :] == pytest.approx(4.0)
        # signal amplitudes alpha_z p_basis (Z cells) and alpha_x p_basis (2 p_H - 1) (X cells)
        assert mean[0, 0, 0] == pytest.approx(0.05 * (0.5 + 3.0 * 0.9 / (2 * math.sqrt(2))))
        assert mean[0, 1, 0] == pytest.approx(0.05 * (0.5 + 2.0 * 0.9 * 0.8 / (2 * math.sqrt(2))))

    def test_fake_cell_laws_match_sampler(self):
        attack = AttackConfig(strategy="fake_wm_strategy1", p_h=0.9, alpha=1.0)
        mean, var = strategy_fake_cell_laws(attack, 0.05, 1.0)
        rng = np.random.default_rng(4)
        n = 200_000
        s_a = rng.integers(0, 2, n)
        b = rng.integers(0, 2, n)
        h = rng.integers(0, 2, n)
        omega = sample_strategy_fakes(s_a, b, h, attack, 0.05, 1.0, rng)
        for idx in np.ndindex(2, 2, 2):
            cell = omega[(s_a == idx[0]) & (b == idx[1]) & (h == idx[2])]
            assert cell.mean() == pytest.approx(
                mean[idx], abs=4 * math.sqrt(var[idx] / len(cell)))
            assert cell.var(ddof=1) == pytest.approx(var[idx], rel=0.05)
        # X-conditioned variance exceeds Z-conditioned by 1/(2 p_H - 1)^2
        assert var[0, 1, 0] / var[0, 0, 0] == pytest.approx(strategy1_variance_ratio(0.9))


class TestBiasedEstimates:
    def test_unbiased_recovers_truth(self):
        dx, dz = biased_estimates(0.8, 0.8, 0.0)
        assert dx == pytest.approx(0.1) and dz == pytest.approx(0.1)

    def test_negative_estimate_tripwire(self):
        dx, _ = biased_estimates(1.0, 1.0, math.pi / 4)
        assert dx == pytest.approx((1 - math.sqrt(2)) / 2)
        assert dx < 0.0

    def test_depolarizing_phi_0p1(self):
        # frozen from the closed forms: (1 - r(cos+sin))/2 and (1 - r(cos-sin))/2
        dx, dz = biased_estimates(0.8, 0.8, 0.1)
        assert dx == pytest.approx(0.06206496723005839, abs=1e-12)
        assert dz == pytest.approx(0.1419317005475209, abs=1e-12)
        db = 0.5 * (dx + dz)
        assert db == pytest.approx(0.10199833388878965, abs=1e-12)
        # the averaged estimate can only overstate the true rate through the
        # smoothed-rate ordering, never understate it
        true_rate = 1 - 2 * binary_entropy(0.1)
        assert 1 - 2 * binary_entropy(db) <= true_rate + 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            biased_estimates(0.5, 0.5, 3.5)

    def test_smoothed_rate_dominated_depolarizing(self):
        # 1 - 2 H2(db~) <= 1 - H2(dX) - H2(dZ), equality only at phi = 0
        for qber in (0.08, 0.11):
            r = 1 - 2 * qber
            rhs = 1 - 2 * binary_entropy(qber)
            for phi in np.linspace(-math.pi / 2 + 0.01, math.pi / 2 - 0.01, 301):
                dx, dz = biased_estimates(r, r, float(phi))
                db = min(max(0.5 * (dx + dz), 0.0), 0.5)
                lhs = 1 - 2 * binary_entropy(db)
                assert lhs <= rhs + 1e-12
                if abs(phi) > 1e-3:
                    assert lhs < rhs - 1e-9

    def test_selective_reduces_to_uniform(self):
        r = channel_r_parameters(ChannelModel(depolarizing_prob=0.3, rotation_theta=0.2))
        dx_u, dz_u = biased_estimates(r["r_x_plus"], r["r_z_0"], 0.15)
        # equal angles make p_h drop out, but the rotated channel's cross terms
        # only cancel between the two observables when the biases are equal
        dx_s, dz_s = biased_estimates_selective(r, 0.15, 0.15, 0.77)
        assert dx_s == pytest.approx(dx_u, abs=1e-12)
        assert dz_s == pytest.approx(dz_u, abs=1e-12)


def _grid_minimize_bias(r_params, p_h, resolution=1e-3):
    """Brute-force oracle: separable 1-D scans of the estimated-QBER objective."""
    phis = np.arange(-math.pi / 2, math.pi / 2, resolution)
    s = np.sin(math.pi / 4 + phis)
    c = np.cos(math.pi / 4 + phis)
    two_ph = 2.0 * p_h - 1.0
    g_phi = r_params["r_x_plus"] * s + (r_params["r_z_plus"] * two_ph + r_params["r_z_0"]) * c \
        + r_params["r_x_0"] * two_ph * s
    g_phi_prime = r_params["r_x_plus"] * s - r_params["r_z_plus"] * two_ph * c \
        + r_params["r_z_0"] * c - r_params["r_x_0"] * two_ph * s
    return float(phis[np.argmax(g_phi)]), float(phis[np.argmax(g_phi_prime)])


class TestOptimalBias:
    def test_depolarizing_gives_zero_exactly(self):
        for p in (0.0, 0.1, 0.5):
            r = channel_r_parameters(ChannelModel(depolarizing_prob=p))
            phi, phi_p = optimal_bias_angles(
                r["r_x_plus"], r["r_z_plus"], r["r_x_0"], r["r_z_0"], 0.9)
            assert phi == 0.0 and phi_p == 0.0

    def test_fully_depolarized_degenerate(self):
        assert optimal_bias_angles(0.0, 0.0, 0.0, 0.0, 0.9) == (0.0, 0.0)

    def test_no_knowledge_collapses(self):
        # p_H = 1/2: both angles satisfy tan = (r_x^+ - r_z^0)/(r_x^+ + r_z^0)
        r = channel_r_parameters(ChannelModel(0.1, 0.25))
        phi, phi_p = optimal_bias_angles(
            r["r_x_plus"], r["r_z_plus"], r["r_x_0"], r["r_z_0"], 0.5)
        want = math.atan((r["r_x_plus"] - r["r_z_0"]) / (r["r_x_plus"] + r["r_z_0"]))
        assert phi == pytest.approx(want, abs=1e-12)
        assert phi_p == pytest.approx(want, abs=1e-12)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            chan = ChannelModel(
                depolarizing_prob=float(rng.uniform(0.0, 0.5)),
                rotation_theta=float(rng.uniform(-0.3, 0.3)),
            )
            p_h = float(rng.uniform(0.5, 1.0))
            r = channel_r_parameters(chan)
            phi, phi_p = optimal_bias_angles(
                r["r_x_plus"], r["r_z_plus"], r["r_x_0"], r["r_z_0"], p_h)
            phi_g, phi_p_g = _grid_minimize_bias(r, p_h)
            assert abs(phi - phi_g) <= 1e-3
            assert abs(phi_p - phi_p_g) <= 1e-3

    def test_optimum_beats_neighbours(self):
        r = channel_r_parameters(ChannelModel(0.2, 0.15))
        p_h = 0.85
        phi, phi_p = optimal_bias_angles(
            r["r_x_plus"], r["r_z_plus"], r["r_x_0"], r["r_z_0"], p_h)
        def qber(a, b):
            dx, dz = biased_estimates_selective(r, a, b, p_h)
            return 0.5 * (dx + dz)
        best = qber(phi, phi_p)
        for da in (-0.05, 0.05):
            assert best <= qber(phi + da, phi_p) + 1e-12
            assert best <= qber(phi, phi_p + da) + 1e-12
