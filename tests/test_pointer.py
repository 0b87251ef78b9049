import math

import numpy as np
import pytest

from wmqkd.bloch import BlochState, Projector, bb84_state, expectation
from wmqkd.pointer import (
    PointerConfig,
    dephased_state,
    dephasing_factor,
    measure_array,
    coupling_scaled_variance,
    physical_pointer_variance,
    pointer_variance,
    wm_disturbance_error,
)


class TestPointerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PointerConfig(g=-0.1, sigma_md=1.0)
        with pytest.raises(ValueError):
            PointerConfig(g=0.1, sigma_md=0.0)

    def test_weakness_warning(self):
        with pytest.warns(UserWarning, match="no longer weak"):
            PointerConfig(g=0.6, sigma_md=1.0)

    def test_conversion_round_trip(self):
        v = pointer_variance(0.85, 0.05, 1.0)
        assert physical_pointer_variance(coupling_scaled_variance(v, 0.05), 0.05) == pytest.approx(v)


class TestDisturbance:
    def test_zero_coupling(self):
        assert wm_disturbance_error(0.0, 1.0) == 0.0

    def test_ratio_0p1(self):
        value = wm_disturbance_error(0.1, 1.0)
        assert value == pytest.approx(0.25 * (1 - math.exp(-0.01 / 8)), abs=1e-15)
        assert value == pytest.approx(3.123047688547709e-4, abs=1e-12)
        assert value < 0.0004  # practical couplings stay below the 0.04% budget

    def test_strong_limit(self):
        assert wm_disturbance_error(1e6, 1.0) == pytest.approx(0.25)

    def test_monotone_in_ratio(self):
        ratios = np.linspace(0.0, 3.0, 50)
        values = [wm_disturbance_error(r, 1.0) for r in ratios]
        assert np.all(np.diff(values) >= 0)

    def test_scale_invariance(self):
        assert wm_disturbance_error(0.2, 2.0) == pytest.approx(wm_disturbance_error(0.1, 1.0))


class TestDephasedState:
    def test_zero_coupling_identity(self):
        s = BlochState(0.3, 0.2, 0.5)
        cfg = PointerConfig(g=0.0, sigma_md=1.0)
        assert dephased_state(s, Projector.h_plus(), cfg) == s

    def test_eigenstate_untouched(self):
        axis = Projector.h_plus().axis()
        s = BlochState.from_array(axis)
        cfg = PointerConfig(g=0.4, sigma_md=1.0)
        out = dephased_state(s, Projector.h_plus(), cfg)
        assert out.as_array() == pytest.approx(axis, abs=1e-15)

    def test_perpendicular_shrink(self):
        cfg = PointerConfig(g=0.1, sigma_md=1.0)
        out = dephased_state(bb84_state("Z", 0), Projector.h_plus(), cfg)
        f = dephasing_factor(0.1, 1.0)
        assert f == pytest.approx(0.998750780924581, abs=1e-12)
        axis = Projector.h_plus().axis()
        r = bb84_state("Z", 0).as_array()
        rn = r @ axis
        expected = rn * axis + f * (r - rn * axis)
        assert out.as_array() == pytest.approx(expected, abs=1e-15)


class TestSampling:
    def test_eigenstate_no_backaction(self):
        rng = np.random.default_rng(3)
        cfg = PointerConfig(g=0.3, sigma_md=1.0)
        proj = Projector.h_plus()
        n = 4000
        values, post = measure_array(
            np.tile(proj.axis(), (n, 1)), np.ones(n), np.full(n, math.pi / 4), cfg, rng)
        assert post == pytest.approx(np.tile(proj.axis(), (n, 1)), abs=1e-12)
        # pointer ~ N(g, sigma^2) for the +1 eigenstate
        assert np.mean(values) == pytest.approx(0.3, abs=4 * 1.0 / math.sqrt(4000))

    def test_orthogonal_eigenstate(self):
        rng = np.random.default_rng(4)
        cfg = PointerConfig(g=0.3, sigma_md=1.0)
        proj = Projector.h_plus()
        n = 4000
        values, _ = measure_array(
            np.tile(-proj.axis(), (n, 1)), np.ones(n), np.full(n, math.pi / 4), cfg, rng)
        assert np.mean(values) == pytest.approx(0.0, abs=4 / math.sqrt(4000))

    def test_pointer_moments(self):
        # mean -> g <P>, variance -> sigma^2 + g^2 <P>(1-<P>)
        rng = np.random.default_rng(5)
        cfg = PointerConfig(g=0.4, sigma_md=1.0)
        s = bb84_state("Z", 0)
        proj = Projector.h_plus()
        n = 200_000
        omega, _ = measure_array(
            np.tile(s.as_array(), (n, 1)), np.ones(n), np.full(n, math.pi / 4), cfg, rng)
        p = expectation(proj, s)
        assert omega.mean() == pytest.approx(0.4 * p, abs=4 / math.sqrt(n))
        want_var = pointer_variance(p, 0.4, 1.0)
        assert omega.var(ddof=1) == pytest.approx(want_var, rel=0.02)

    def test_marginal_consistency(self):
        # average posterior over many samples -> dephased_state
        rng = np.random.default_rng(6)
        cfg = PointerConfig(g=0.3, sigma_md=1.0)
        s = BlochState(0.4, 0.3, 0.6)
        proj = Projector.h_minus()
        n = 120_000
        sign = -np.ones(n)
        _, post = measure_array(
            np.tile(s.as_array(), (n, 1)), sign, np.full(n, math.pi / 4), cfg, rng)
        target = dephased_state(s, proj, cfg).as_array()
        se = 3.0 / math.sqrt(n)
        assert post.mean(axis=0) == pytest.approx(target, abs=se)

    def test_flip_probability_matches_formula(self):
        # strong measurement in the preparation basis flips with rate delta_wm,
        # identically for all four BB84 inputs and both observables
        cfg = PointerConfig(g=0.3, sigma_md=1.0)
        delta = wm_disturbance_error(0.3, 1.0)
        n = 150_000
        for seed, (basis, bit, sign_val) in enumerate(
                [("Z", 0, 1.0), ("Z", 1, -1.0), ("X", 0, 1.0), ("X", 1, 1.0)]):
            rng = np.random.default_rng(100 + seed)
            s = bb84_state(basis, bit)
            sign = np.full(n, sign_val)
            _, post = measure_array(
                np.tile(s.as_array(), (n, 1)), sign, np.full(n, math.pi / 4), cfg, rng)
            overlap = 0.5 * (1.0 + post @ s.as_array())
            flips = rng.random(n) > overlap
            se = math.sqrt(delta * (1 - delta) / n)
            assert flips.mean() == pytest.approx(delta, abs=4 * se)

    def test_angle_noise_mean_invariant_variance_grows(self):
        # sigma_phi leaves the mean unchanged; the variance grows by
        # g^2 (h - 1/2)^2 sigma_phi^2, i.e. g^2 sigma_phi^2 / 8 at BB84 inputs
        # (the worst-case coefficient over all states is 1/4)
        g, sphi = 0.4, 0.3
        n = 400_000
        s = bb84_state("Z", 0)
        rng0 = np.random.default_rng(7)
        quiet = PointerConfig(g=g, sigma_md=1.0)
        noisy = PointerConfig(g=g, sigma_md=1.0, sigma_phi=sphi)
        om0, _ = measure_array(np.tile(s.as_array(), (n, 1)), np.ones(n),
                               np.full(n, math.pi / 4), quiet, rng0)
        rng1 = np.random.default_rng(8)
        om1, _ = measure_array(np.tile(s.as_array(), (n, 1)), np.ones(n),
                               np.full(n, math.pi / 4), noisy, rng1)
        se_mean = 4 / math.sqrt(n)
        assert om1.mean() == pytest.approx(om0.mean(), abs=2 * se_mean)
        growth = om1.var(ddof=1) - om0.var(ddof=1)
        predicted = g * g * (1 - math.exp(-sphi * sphi)) / 8.0
        se_var = 4 * math.sqrt(2.0 / n)  # var-of-variance scale, sigma^2 ~ 1
        assert growth == pytest.approx(predicted, abs=2 * se_var)
        assert predicted <= 0.25 * g * g * sphi * sphi  # worst-case bound

    def test_bias_phi_shifts_mean(self):
        cfg = PointerConfig(g=0.4, sigma_md=1.0, bias_phi=0.2)
        rng = np.random.default_rng(9)
        s = bb84_state("Z", 0)
        n = 200_000
        omega, _ = measure_array(np.tile(s.as_array(), (n, 1)), np.ones(n),
                                 np.full(n, math.pi / 4), cfg, rng)
        want = 0.4 * 0.5 * (1 + math.cos(math.pi / 4 + 0.2))
        assert omega.mean() == pytest.approx(want, abs=4 / math.sqrt(n))

    def test_posterior_update_normalizes(self):
        rng = np.random.default_rng(10)
        r = rng.normal(size=(500, 3))
        r /= np.maximum(np.linalg.norm(r, axis=1, keepdims=True), 1.0) * 1.0001
        _, out = measure_array(r, np.ones(500), np.full(500, math.pi / 4),
                               PointerConfig(g=0.3, sigma_md=1.0), rng)
        assert np.all(np.linalg.norm(out, axis=1) <= 1 + 1e-9)
