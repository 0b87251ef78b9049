import math

import numpy as np
import pytest

from wmqkd.bloch import bb84_bloch, projector_axis
from wmqkd.pointer import PointerConfig, measure_array, pointer_variance, wm_disturbance_error

QUARTER = math.pi / 4  # total axis angle of the unbiased H+-


def axis(sign=1.0, angle=QUARTER):
    """(x, z) Bloch axis of H(sign) at a total angle."""
    return np.array(projector_axis(sign, angle))


def bb84(basis, bit):
    return np.array(bb84_bloch(bit, basis))


def measure_rows(r, sign, angle, cfg, rng):
    """measure_array on (N, 2) rows of (x, z) Bloch components; returns (omega, (N, 2) posteriors)."""
    omega, posterior = measure_array(*np.moveaxis(r, -1, 0), sign, angle, cfg, rng)
    return omega, np.stack(posterior, axis=-1)


def dephasing_factor(g, sigma):
    """Coherence survival e^{-g^2 / 8 sigma^2} of one weak measurement."""
    return math.exp(-(g * g) / (8.0 * sigma * sigma))


def dephased_state(r_x, r_z, sign, angle, cfg):
    """Pointer-averaged post-measurement (x, z) of H(sign) at total axis angles `angle`.

    The component along the projector axis is preserved; the perpendicular
    part shrinks by e^{-g^2/8 sigma^2}.  Unlike `measure_array`, no
    device bias_phi or angle noise is added.  The Kraus update of
    `measure_array`, averaged over readings, must reproduce this map.
    """
    f = dephasing_factor(cfg.g, cfg.sigma_md)
    axis_x, axis_z = projector_axis(sign, angle)
    rn = r_x * axis_x + r_z * axis_z
    return (rn * axis_x + f * (r_x - rn * axis_x),
            rn * axis_z + f * (r_z - rn * axis_z))


def dephased_row(s, sign, angle, cfg):
    """dephased_state of one (x, z) Bloch vector, as a (2,) array."""
    return np.array(dephased_state(*s, sign, angle, cfg))


class TestPointerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PointerConfig(g=-0.1, sigma_md=1.0)
        with pytest.raises(ValueError):
            PointerConfig(g=0.1, sigma_md=0.0)

    def test_weakness_warning(self):
        with pytest.warns(UserWarning, match="no longer weak"):
            PointerConfig(g=0.6, sigma_md=1.0)


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
        s = np.array([0.3, 0.5])
        cfg = PointerConfig(g=0.0, sigma_md=1.0)
        assert np.array_equal(dephased_row(s, 1.0, QUARTER, cfg), s)

    def test_eigenstate_untouched(self):
        s = axis()
        cfg = PointerConfig(g=0.4, sigma_md=1.0)
        out = dephased_row(s, 1.0, QUARTER, cfg)
        assert out == pytest.approx(axis(), abs=1e-15)

    def test_perpendicular_shrink(self):
        cfg = PointerConfig(g=0.1, sigma_md=1.0)
        out = dephased_row(bb84(0, 0), 1.0, QUARTER, cfg)
        f = dephasing_factor(0.1, 1.0)
        assert f == pytest.approx(0.998750780924581, abs=1e-12)
        n = axis()
        r = bb84(0, 0)
        rn = r @ n
        expected = rn * n + f * (r - rn * n)
        assert out == pytest.approx(expected, abs=1e-15)


class TestSampling:
    def test_eigenstate_no_backaction(self):
        rng = np.random.default_rng(3)
        cfg = PointerConfig(g=0.3, sigma_md=1.0)
        n = 4000
        values, post = measure_rows(
            np.tile(axis(), (n, 1)), np.ones(n), np.full(n, math.pi / 4), cfg, rng)
        assert post == pytest.approx(np.tile(axis(), (n, 1)), abs=1e-12)
        # pointer ~ N(g, sigma^2) for the +1 eigenstate
        assert np.mean(values) == pytest.approx(0.3, abs=4 * 1.0 / math.sqrt(4000))

    def test_orthogonal_eigenstate(self):
        rng = np.random.default_rng(4)
        cfg = PointerConfig(g=0.3, sigma_md=1.0)
        n = 4000
        values, _ = measure_rows(
            np.tile(-axis(), (n, 1)), np.ones(n), np.full(n, math.pi / 4), cfg, rng)
        assert np.mean(values) == pytest.approx(0.0, abs=4 / math.sqrt(4000))

    def test_pointer_moments(self):
        # mean -> g <P>, variance -> sigma^2 + g^2 <P>(1-<P>)
        rng = np.random.default_rng(5)
        cfg = PointerConfig(g=0.4, sigma_md=1.0)
        s = bb84(0, 0)
        n = 200_000
        omega, _ = measure_rows(
            np.tile(s, (n, 1)), np.ones(n), np.full(n, math.pi / 4), cfg, rng)
        p = 0.5 * (1.0 + axis() @ s)
        assert omega.mean() == pytest.approx(0.4 * p, abs=4 / math.sqrt(n))
        want_var = pointer_variance(p, 0.4, 1.0)
        assert omega.var(ddof=1) == pytest.approx(want_var, rel=0.02)

    def test_marginal_consistency(self):
        # average posterior over many samples -> dephased_state
        rng = np.random.default_rng(6)
        cfg = PointerConfig(g=0.3, sigma_md=1.0)
        s = np.array([0.4, 0.6])
        n = 120_000
        sign = -np.ones(n)
        _, post = measure_rows(
            np.tile(s, (n, 1)), sign, np.full(n, math.pi / 4), cfg, rng)
        target = dephased_row(s, -1.0, QUARTER, cfg)
        se = 3.0 / math.sqrt(n)
        assert post.mean(axis=0) == pytest.approx(target, abs=se)

    def test_flip_probability_matches_formula(self):
        """Four two-sided 4-standard-error checks, one per BB84 input: each has
        nominal false-alarm rate 6.3e-5 (binomial, normal tail), the loop 2.5e-4."""
        # strong measurement in the preparation basis flips with rate delta_wm,
        # identically for all four BB84 inputs and both observables
        cfg = PointerConfig(g=0.3, sigma_md=1.0)
        delta = wm_disturbance_error(0.3, 1.0)
        n = 150_000
        for seed, (basis, bit, sign_val) in enumerate(
                [(0, 0, 1.0), (0, 1, -1.0), (1, 0, 1.0), (1, 1, 1.0)]):
            rng = np.random.default_rng(100 + seed)
            s = bb84(basis, bit)
            sign = np.full(n, sign_val)
            _, post = measure_rows(
                np.tile(s, (n, 1)), sign, np.full(n, math.pi / 4), cfg, rng)
            overlap = 0.5 * (1.0 + post @ s)
            flips = rng.random(n) > overlap
            se = math.sqrt(delta * (1 - delta) / n)
            assert flips.mean() == pytest.approx(delta, abs=4 * se)

    def test_angle_noise_damps_mean_and_grows_variance(self):
        """Two two-sided checks at 4 standard errors of the difference itself,
        each estimated from the readings: nominal false-alarm rate 6.3e-5 each
        (normal tail), 1.3e-4 for the pair.  At sigma_phi = 1, g = 0.5 and
        n = 1.5e6 a pointer that ignored sigma_phi would sit about 58 standard
        errors off the mean shift and 12 off the variance growth."""
        # angle noise shortens the mean projector axis by e^{-sigma_phi^2/2}: at a
        # BB84 input the mean reading moves by (g/2) cos(pi/4) (e^{-sigma_phi^2/2} - 1)
        # and the variance grows by g^2 (1 - e^{-sigma_phi^2}) / 8, within the
        # small-noise worst case g^2 sigma_phi^2 / 4 over all states
        g, sphi = 0.5, 1.0
        n = 1_500_000
        s = bb84(0, 0)
        om0, _ = measure_rows(np.tile(s, (n, 1)), np.ones(n), np.full(n, math.pi / 4),
                              PointerConfig(g=g, sigma_md=1.0), np.random.default_rng(7))
        om1, _ = measure_rows(np.tile(s, (n, 1)), np.ones(n), np.full(n, math.pi / 4),
                              PointerConfig(g=g, sigma_md=1.0, sigma_phi=sphi), np.random.default_rng(8))
        var0, var1 = om0.var(ddof=1), om1.var(ddof=1)
        shift = om1.mean() - om0.mean()
        se_shift = math.sqrt((var0 + var1) / n)
        assert shift == pytest.approx(0.5 * g * math.cos(math.pi / 4) * math.expm1(-0.5 * sphi * sphi),
                                      abs=4 * se_shift)
        # a sample variance's variance is (m4 - var^2) / n, m4 the fourth central moment
        m4 = [np.mean((om - om.mean()) ** 4) for om in (om0, om1)]
        se_growth = math.sqrt((m4[0] - var0**2 + m4[1] - var1**2) / n)
        predicted = g * g * -math.expm1(-sphi * sphi) / 8.0
        assert var1 - var0 == pytest.approx(predicted, abs=4 * se_growth)
        assert predicted <= 0.25 * g * g * sphi * sphi  # worst-case bound

    def test_bias_phi_shifts_mean(self):
        cfg = PointerConfig(g=0.4, sigma_md=1.0, bias_phi=0.2)
        rng = np.random.default_rng(9)
        s = bb84(0, 0)
        n = 200_000
        omega, _ = measure_rows(np.tile(s, (n, 1)), np.ones(n),
                                np.full(n, math.pi / 4), cfg, rng)
        want = 0.4 * 0.5 * (1 + math.cos(math.pi / 4 + 0.2))
        assert omega.mean() == pytest.approx(want, abs=4 / math.sqrt(n))

    def test_posterior_update_normalizes(self):
        rng = np.random.default_rng(10)
        r = rng.normal(size=(500, 3))
        r /= np.maximum(np.linalg.norm(r, axis=1, keepdims=True), 1.0) * 1.0001
        _, out = measure_rows(r[:, [0, 2]], np.ones(500), np.full(500, math.pi / 4),
                              PointerConfig(g=0.3, sigma_md=1.0), rng)
        assert np.all(np.linalg.norm(out, axis=1) <= 1 + 1e-9)


def reference_measure_array(r_x, r_z, sign, angle, cfg, rng):
    """measure_array as the textbook formulas, one new array per operation: the
    in-place update must give the same bits."""
    sign = np.asarray(sign, dtype=float)
    angle = np.asarray(angle, dtype=float) + cfg.bias_phi
    if cfg.sigma_phi > 0:
        angle = angle + rng.normal(0.0, cfg.sigma_phi, sign.shape)
    axis_x, axis_z = projector_axis(sign, angle)
    rn = r_x * axis_x + r_z * axis_z
    p = 0.5 * (1.0 + rn)
    shifted = rng.random(p.shape) < p
    omega = rng.normal(0.0, cfg.sigma_md, p.shape) + shifted * cfg.g
    g, sigma = cfg.g, cfg.sigma_md
    w_a = omega**2
    w_b = (omega - g) ** 2
    a2 = np.exp(-w_a / (2.0 * sigma * sigma))
    b2 = np.exp(-w_b / (2.0 * sigma * sigma))
    ab = np.exp(-(w_a + w_b) / (4.0 * sigma * sigma))
    weight_a = a2 * (1.0 - rn)
    weight_b = b2 * (1.0 + rn)
    norm = 0.5 * (weight_a + weight_b)
    out_n = (weight_b - weight_a) / (2.0 * norm)
    overlap = ab / norm
    return omega, (out_n * axis_x + overlap * (r_x - rn * axis_x),
                   out_n * axis_z + overlap * (r_z - rn * axis_z))


class TestInPlaceUpdate:
    @pytest.mark.parametrize("n, cfg, per_window", [
        (5000, PointerConfig(0.05, 1.0), False),
        (5000, PointerConfig(0.3, 0.7, bias_phi=0.01), True),
        (5000, PointerConfig(0.2, 1.3, sigma_phi=0.4, bias_phi=-0.02), True),
        (5000, PointerConfig(0.2, 1.3, sigma_phi=0.4), False),
        (1, PointerConfig(0.05, 1.0, sigma_phi=0.2), True),
    ])
    def test_matches_out_of_place_reference(self, n, cfg, per_window):
        rng = np.random.default_rng(n + int(per_window))
        r = rng.normal(size=(2, n))
        r /= np.maximum(np.hypot(*r), 1.0) * 1.0001
        r[:, : n // 2] = bb84_bloch(rng.integers(0, 2, n // 2), rng.integers(0, 2, n // 2))
        sign = 1.0 - 2.0 * rng.integers(0, 2, n)
        angle = QUARTER + rng.normal(0.0, 0.1, n) if per_window else QUARTER
        got = measure_array(*r, sign, angle, cfg, np.random.default_rng(5))
        want = reference_measure_array(*r, sign, angle, cfg, np.random.default_rng(5))
        assert got[0].tobytes() == want[0].tobytes()
        for component, reference in zip(got[1], want[1]):
            assert component.shape == (n,)
            assert component.tobytes() == reference.tobytes()
