import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wmqkd.bloch import (
    ChannelModel,
    bb84_bloch,
    binary_entropy,
    channel_r_parameters,
    projector_axis,
    true_error_rates,
)

ROOT2 = math.sqrt(2.0)


def unit_states(allow_mixed=True):
    """(x, z) components of a Bloch vector drawn over the whole sphere (or ball)."""
    def build(theta, phi, scale):
        r = scale if allow_mixed else 1.0
        return np.array([
            r * math.sin(theta) * math.cos(phi),
            r * math.cos(theta),
        ])
    return st.builds(
        build,
        st.floats(0, math.pi),
        st.floats(0, 2 * math.pi),
        st.floats(0, 1),
    )


def projectors():
    """(family sign, total axis angle pi/4 + bias) of H(+-, bias)."""
    return st.builds(
        lambda sign, bias: (sign, math.pi / 4 + bias),
        st.sampled_from([+1, -1]),
        st.floats(-1.5, 1.5),
    )


def expectation(proj, r):
    """Tr(H rho) = (1 + axis . r)/2."""
    axis_x, axis_z = projector_axis(*proj)
    return 0.5 * (1.0 + axis_x * r[0] + axis_z * r[1])


def bb84(basis, bit):
    return np.array(bb84_bloch(bit, basis))


H_PLUS = (1, math.pi / 4)


class TestBlochState:
    def test_bb84_states(self):
        assert np.array_equal(bb84(0, 0), [0, 1])
        assert np.array_equal(bb84(1, 1), [-1, 0])
        assert np.array_equal(bb84(1, 0), [1, 0])
        assert np.array_equal(bb84(0, 1), [0, -1])
        for basis in (0, 1):
            for bit in (0, 1):
                assert np.linalg.norm(bb84(basis, bit)) == 1.0
        # a block of flags gives one component array per axis
        r_x, r_z = bb84_bloch(np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1]))
        assert np.array_equal(np.stack([r_x, r_z], axis=-1), [[0, 1], [0, -1], [1, 0], [-1, 0]])


class TestExpectation:
    def test_h_plus_at_zero_ket(self):
        # 1/2 + 1/(2 sqrt 2)
        value = expectation(H_PLUS, bb84(0, 0))
        assert value == pytest.approx(0.8535533905932737, abs=1e-15)

    def test_h_minus_at_plus_ket(self):
        value = expectation((-1, math.pi / 4), bb84(1, 0))
        assert value == pytest.approx(0.5 - 1 / (2 * ROOT2), abs=1e-15)

    def test_maximally_mixed(self):
        for proj in (H_PLUS, (-1, math.pi / 4 + 0.3), (1, math.pi / 4 - 0.9)):
            assert expectation(proj, np.zeros(2)) == pytest.approx(0.5, abs=1e-15)

    def test_biased_form(self):
        # general-angle expectation (1 +- r_x sin(pi/4+phi) + r_z cos(pi/4+phi))/2
        phi = 0.17
        s = np.array([0.3, -0.5])
        want = 0.5 * (1 - 0.3 * math.sin(math.pi / 4 + phi) - 0.5 * math.cos(math.pi / 4 + phi))
        assert expectation((-1, math.pi / 4 + phi), s) == pytest.approx(want, abs=1e-15)

    @given(projectors(), unit_states())
    def test_in_unit_interval(self, proj, state):
        value = expectation(proj, state)
        assert -1e-12 <= value <= 1.0 + 1e-12

    @given(projectors(), unit_states(allow_mixed=False))
    def test_complement_identity(self, proj, state):
        total = expectation(proj, state) + expectation(proj, -state)
        assert total == pytest.approx(1.0, abs=1e-12)

    @given(projectors(), unit_states(allow_mixed=False),
           st.floats(0, 1), st.floats(-math.pi, math.pi))
    def test_complement_identity_through_channel(self, proj, state, p, theta):
        chan = ChannelModel(p, theta)
        total = expectation(proj, chan.apply_array(*state)) + expectation(
            proj, chan.apply_array(*-state))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestChannel:
    def test_identity(self):
        s = bb84(0, 0)
        assert np.array_equal(ChannelModel().apply_array(*s), s)

    def test_uniform_shrink(self):
        out = ChannelModel(depolarizing_prob=0.2).apply_array(*bb84(1, 0))
        assert out == pytest.approx([0.8, 0], abs=1e-15)

    def test_quarter_rotation(self):
        out = ChannelModel(rotation_theta=math.pi / 2).apply_array(*bb84(0, 0))
        assert out == pytest.approx([1, 0], abs=1e-15)

    def test_fixes_maximally_mixed(self):
        out = ChannelModel(0.7, 1.1).apply_array(0.0, 0.0)
        assert np.array_equal(out, [0, 0])

    @given(st.floats(0, 1), st.floats(-math.pi, math.pi), unit_states())
    def test_norm_never_grows(self, p, theta, state):
        out = ChannelModel(p, theta).apply_array(*state)
        assert np.linalg.norm(out) <= np.linalg.norm(state) + 1e-12

    def test_intrinsic_error_mapping(self):
        # a source rotation by acos(1 - 2 e_d) gives intrinsic error e_d on both bases
        chan = ChannelModel(rotation_theta=math.acos(1.0 - 2.0 * 0.015))
        dx, dz = true_error_rates(chan)
        assert dx == pytest.approx(0.015, abs=1e-12)
        assert dz == pytest.approx(0.015, abs=1e-12)

    def test_r_parameters_depolarizing(self):
        r = channel_r_parameters(ChannelModel(depolarizing_prob=0.2))
        assert r["r_x_plus"] == pytest.approx(0.8)
        assert r["r_z_0"] == pytest.approx(0.8)
        assert r["r_z_plus"] == 0.0 and r["r_x_0"] == 0.0


class TestBinaryEntropy:
    def test_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_degenerate(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_value_011(self):
        # frozen from a direct evaluation of the formula
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)

    def test_concavity_grid(self):
        # smoothed-rate bound 1 - 2 H2((a+b)/2) <= 1 - H2(a) - H2(b) on [0, 1/2]^2
        grid = np.linspace(0.0, 0.5, 100)
        a, b = np.meshgrid(grid, grid)
        h2 = np.vectorize(binary_entropy)
        lhs = 1.0 - 2.0 * h2((a + b) / 2.0)
        rhs = 1.0 - h2(a) - h2(b)
        assert np.all(lhs <= rhs + 1e-12)

    @given(st.floats(0, 0.5), st.floats(0, 0.5))
    def test_concavity_property(self, a, b):
        lhs = 1.0 - 2.0 * binary_entropy((a + b) / 2.0)
        rhs = 1.0 - binary_entropy(a) - binary_entropy(b)
        assert lhs <= rhs + 1e-12
