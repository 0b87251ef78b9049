import math

import numpy as np
import pytest

from wmqkd.bloch import binary_entropy
from wmqkd.keyrate import (
    DecoyConfig,
    SystemParams,
    bb84_decoy_chain,
    decoy_chain,
    honest_gains,
    q1_lower,
    smoothed_rate,
    split_rate,
    transmittance,
    wm_decoy_chain,
)
from wmqkd.pointer import wm_disturbance_error

FIG6 = SystemParams(eta_d=0.145, y0=6e-6, loss_db_per_km=0.2, distance_km=20.0,
                    f_ec=1.22, e_d=0.015)
DECOY = DecoyConfig(mu=0.48, nu=0.05)


def single_photon_gain(params, cfg):
    """Exact Poissonian single-photon gain mu e^-mu (Y0 + eta): the Q_1^L ceiling."""
    return cfg.mu * math.exp(-cfg.mu) * (params.y0 + params.eta)


class TestConfigs:
    def test_decoy_ordering(self):
        with pytest.raises(ValueError):
            DecoyConfig(mu=0.05, nu=0.48)
        with pytest.raises(ValueError):
            DecoyConfig(mu=0.5, nu=0.0)

    def test_system_validation(self):
        with pytest.raises(ValueError):
            SystemParams(eta_d=1.5)
        with pytest.raises(ValueError):
            SystemParams(f_ec=0.9)


class TestTransmittance:
    def test_vacuum(self):
        assert transmittance(FIG6, 0.0) == pytest.approx(6e-6)

    def test_opaque_channel(self):
        params = SystemParams(eta_d=0.145, y0=6e-6, loss_db_per_km=0.2, distance_km=1e6)
        assert transmittance(params, 0.48) == pytest.approx(6e-6)

    def test_fig6_at_20km(self):
        # frozen from a direct evaluation of Y0 + 1 - exp(-eta mu)
        assert transmittance(FIG6, 0.48) == pytest.approx(0.02733390632745203, rel=1e-9)


class TestQ1Lower:
    def test_positive_and_below_exact_gain(self):
        q_mu, q_nu, q_vac = honest_gains(FIG6, DECOY)
        q1 = q1_lower(q_mu, q_nu, q_vac, DECOY)
        assert 0.0 < q1 <= single_photon_gain(FIG6, DECOY)

    def test_below_exact_gain_over_distances(self):
        for d in np.arange(0.0, 120.0, 5.0):
            p = SystemParams(eta_d=0.145, y0=6e-6, distance_km=float(d), e_d=0.015)
            q_mu, q_nu, q_vac = honest_gains(p, DECOY)
            q1 = q1_lower(q_mu, q_nu, q_vac, DECOY)
            assert q1 <= single_photon_gain(p, DECOY) + 1e-15

    def test_pns_suppression_decreases_bound(self):
        q_mu, q_nu, q_vac = honest_gains(FIG6, DECOY)
        q1 = q1_lower(q_mu, q_nu, q_vac, DECOY)
        q1_suppressed = q1_lower(q_mu, 0.9 * q_nu, q_vac, DECOY)
        assert q1_suppressed < q1

    def test_blackout_yields_no_key(self):
        # all-dark gains: the bound stays within the dark-only single-photon
        # gain mu e^-mu Y0 and the resulting rate is zero
        y0 = 6e-6
        q1 = q1_lower(y0, y0, y0, DECOY)
        assert 0.0 <= q1 <= DECOY.mu * math.exp(-DECOY.mu) * y0
        assert decoy_chain(y0, y0, y0, 0.5, 0.5, FIG6, DECOY).rate == 0.0

    def test_clamp_fires_on_suppressed_decoys(self):
        q_mu, _, q_vac = honest_gains(FIG6, DECOY)
        assert q1_lower(q_mu, 0.0, q_vac, DECOY) == 0.0

    def test_bad_intensities(self):
        # nu < mu, yet mu nu - nu^2, the bound's denominator, rounds to 0
        for mu, nu in ((math.nextafter(0.05, 1.0), 0.05), (1e-300, 5e-324)):
            assert nu < mu
            with pytest.raises(ValueError):
                DecoyConfig(mu=mu, nu=nu)


class TestEps1Upper:
    def test_error_free(self):
        # no errors and no dark counts: the bound is 0 without clamping
        q_mu, q_nu, _ = honest_gains(FIG6, DECOY)
        chain = decoy_chain(q_mu, q_nu, 0.0, 0.0, 0.0, FIG6, DECOY)
        assert chain.single_photon_error_bound == 0.0
        assert not chain.clamped

    def test_monotone_in_decoy_error(self):
        q_mu, q_nu, q_vac = honest_gains(FIG6, DECOY)
        e1 = decoy_chain(q_mu, q_nu, q_vac, 0.02, 0.02, FIG6, DECOY).single_photon_error_bound
        e2 = decoy_chain(q_mu, q_nu, q_vac, 0.02, 0.04, FIG6, DECOY).single_photon_error_bound
        assert e2 > e1

    def test_above_intrinsic_with_dark_vacuum(self):
        chain = bb84_decoy_chain(FIG6, DECOY)
        assert chain.single_photon_error_bound > FIG6.e_d
        assert chain.single_photon_error_bound < 2 * chain.eps_nu


class TestRates:
    def test_perfect_channel(self):
        # no errors, no dark counts: R = q Q_1^L
        params = SystemParams(y0=0.0)
        chain = decoy_chain(*honest_gains(params, DECOY), 0.0, 0.0, params, DECOY)
        assert chain.q1_l > 0
        assert chain.rate == pytest.approx(0.5 * chain.q1_l)

    def test_entropy_kills_rate(self):
        chain = decoy_chain(*honest_gains(FIG6, DECOY), 0.2, 0.5, FIG6, DECOY)
        assert chain.single_photon_error_bound == 0.5
        assert chain.rate == 0.0

    def test_fig6_rate_positive_20km(self):
        chain = bb84_decoy_chain(FIG6, DECOY)
        assert chain.rate > 0
        # independent re-evaluation of the closed-form chain
        q1, e1 = chain.q1_l, chain.single_photon_error_bound
        want = 0.5 * (q1 * (1 - binary_entropy(e1))
                      - chain.q_mu * 1.22 * binary_entropy(chain.eps_mu))
        assert chain.rate == pytest.approx(want, rel=1e-9)

    def test_wm_zero_errors(self):
        q_mu, q_nu, q_vac = honest_gains(FIG6, DECOY)
        q1 = q1_lower(q_mu, q_nu, q_vac, DECOY)
        assert decoy_chain(q_mu, q_nu, q_vac, 0.0, 0.0, FIG6, DECOY).rate == \
            pytest.approx(0.5 * q1)

    def test_split_beats_average_when_x_dominates(self):
        # the split chain wins when delta_X >= delta_Z (the error-correction
        # term carries the larger weight)
        for d in (10.0, 30.0, 50.0):
            p = SystemParams(eta_d=0.145, y0=6e-6, distance_km=d, e_d=0.015)
            gains = honest_gains(p, DECOY)
            for dx, dz in [(0.03, 0.01), (0.05, 0.02), (0.02, 0.02)]:
                eps = 0.5 * (dx + dz)
                r_wm = decoy_chain(*gains, dz, dx, p, DECOY).rate
                r_bb = decoy_chain(*gains, eps, eps, p, DECOY).rate
                assert r_wm >= r_bb - 1e-15


class TestIdealizedRate:
    def test_zero_errors(self):
        assert smoothed_rate(0.0) == 1.0 and split_rate(0.0, 0.0) == 1.0

    def test_threshold_edge(self):
        assert smoothed_rate(0.11) == pytest.approx(1.680836709440081e-4, rel=1e-9)

    def test_beyond_threshold_clamps(self):
        assert smoothed_rate(0.12) == 0.0
        assert split_rate(0.12, 0.12) < 0.0  # the split rate leaves the floor to its callers

    def test_split_dominates_smoothed(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            dx, dz = rng.uniform(0, 0.5, 2)
            smoothed = smoothed_rate(0.5 * float(dx + dz))
            assert smoothed <= max(split_rate(float(dx), float(dz)), 0.0) + 1e-12


class TestChains:
    def test_rates_decrease_with_distance_error_dark(self):
        delta_wm = wm_disturbance_error(0.05, 1.0)
        rates_d = [wm_decoy_chain(
            SystemParams(eta_d=0.145, y0=6e-6, distance_km=d, e_d=0.015), DECOY, delta_wm).rate
            for d in np.arange(0, 90, 10.0)]
        assert all(a >= b for a, b in zip(rates_d, rates_d[1:]))
        rates_e = [wm_decoy_chain(
            SystemParams(eta_d=0.145, y0=6e-6, distance_km=20.0, e_d=e), DECOY, delta_wm).rate
            for e in np.linspace(0.0, 0.08, 9)]
        assert all(a >= b for a, b in zip(rates_e, rates_e[1:]))
        rates_y = [wm_decoy_chain(
            SystemParams(eta_d=0.145, y0=y, distance_km=20.0, e_d=0.015), DECOY, delta_wm).rate
            for y in np.linspace(1e-6, 5e-4, 9)]
        assert all(a >= b for a, b in zip(rates_y, rates_y[1:]))

    def test_intrinsic_error_at_half_gives_no_key(self):
        # e_d + delta_wm passes 1/2 at e_d = 1/2: the error is capped, not rejected
        params = SystemParams(e_d=0.5)
        chain = wm_decoy_chain(params, DECOY, wm_disturbance_error(0.05, 1.0))
        assert chain.eps_mu == chain.eps_nu == 0.5
        assert chain.rate == 0.0
        assert bb84_decoy_chain(params, DECOY).rate == 0.0

    def test_gap_between_protocols_small(self):
        delta_wm = wm_disturbance_error(0.05, 1.0)
        for d in np.arange(0.0, 81.0, 5.0):
            p = SystemParams(eta_d=0.145, y0=6e-6, distance_km=float(d), e_d=0.015)
            r_wm = wm_decoy_chain(p, DECOY, delta_wm).rate
            r_bb = bb84_decoy_chain(p, DECOY).rate
            assert r_bb > 0
            assert abs(r_bb - r_wm) / r_bb < 0.05
