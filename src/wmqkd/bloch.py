"""Single-qubit Bloch-vector algebra for the weak-measurement QKD toolkit.

A qubit density operator rho = (I + r_x X + r_z Z)/2 is represented by its
Bloch components (r_x, r_z), held as plain float arrays of any common shape:
one entry per signal in a Monte Carlo block, one per (bit, basis, observable)
cell in the analytic mode.  No Y component is held: the BB84 states, the
observables and the channel are all real, so a state never leaves the X-Z
plane.  The protocol's observables are the rank-1 projectors

    H(+, phi) = (I + sin(pi/4 + phi) X + cos(pi/4 + phi) Z) / 2
    H(-, phi) = (I - sin(pi/4 + phi) X + cos(pi/4 + phi) Z) / 2

which sit midway between the Z and X bases (phi = 0 gives the canonical pair).
Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def bb84_bloch(bits, basis):
    """Bloch components (x, z) of the BB84 states for bit and basis flags.

    Basis 0 = Z, 1 = X; bit 0 lies along +axis, bit 1 along -axis, so
    (Z, 0) -> |0>, (Z, 1) -> |1>, (X, 0) -> |+>, (X, 1) -> |->.
    """
    state = 2 * np.asarray(basis) + bits  # |0>, |1>, |+>, |->: a lookup keeps every 0 at +0.0
    return np.array([0.0, 0.0, 1.0, -1.0]).take(state), np.array([1.0, -1.0, 0.0, 0.0]).take(state)


def projector_axis(sign, angle):
    """X and Z components of the unit axis of H(sign), the projector (I + axis . sigma)/2.

    angle is the total angle pi/4 + phi; the family sign (+1 for H+, -1 for
    H-) mirrors the X component.  The axis has no Y component.
    """
    return sign * np.sin(angle), np.cos(angle)


@dataclass(frozen=True)
class ChannelModel:
    """Unital qubit channel: rotation in the X-Z plane, then uniform shrink.

    The rotation sends (r_x, r_z) -> (r_x cos + r_z sin, -r_x sin + r_z cos),
    so theta = pi/2 maps the Z axis onto the X axis.  Depolarizing scales all
    components by (1 - p).  Composition order is fixed: rotation first.
    """

    depolarizing_prob: float = 0.0
    rotation_theta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.depolarizing_prob <= 1.0:
            raise ValueError(f"depolarizing_prob must be in [0,1], got {self.depolarizing_prob}")

    def apply_array(self, r_x, r_z):
        """Vectorised channel action on component arrays; returns (x, z)."""
        c, s = math.cos(self.rotation_theta), math.sin(self.rotation_theta)
        shrink = 1.0 - self.depolarizing_prob
        out_x = shrink * (r_x * c + r_z * s)
        out_z = shrink * (r_z * c - r_x * s)
        return out_x, out_z


def channel_r_parameters(c: ChannelModel) -> dict:
    """Post-channel Bloch components of the four BB84 states.

    Keys r_x_plus, r_x_minus, r_z_0, r_z_1 name the components that enter the
    error-rate formulas; r_z_plus and r_x_0 (nonzero only under rotation) feed
    the optimal-bias expressions.
    """
    r_x, r_z = c.apply_array(*bb84_bloch(np.array([0, 1, 0, 1]), np.array([1, 1, 0, 0])))
    return {f"r_{axis}_{state}": float(r[i])
            for i, state in enumerate(("plus", "minus", "0", "1"))
            for axis, r in (("x", r_x), ("z", r_z))}


def true_error_rates(c: ChannelModel) -> tuple[float, float]:
    """Ground-truth (delta_X, delta_Z) of a channel, by the general formulas

    delta_X = (2 - r_x^+ + r_x^-)/4,  delta_Z = (2 - r_z^0 + r_z^1)/4.
    """
    r = channel_r_parameters(c)
    delta_x = 0.25 * (2.0 - r["r_x_plus"] + r["r_x_minus"])
    delta_z = 0.25 * (2.0 - r["r_z_0"] + r["r_z_1"])
    return delta_x, delta_z


def binary_entropy(x: float) -> float:
    """H2(x) = -x log2 x - (1-x) log2 (1-x) of one error rate, with 0 log 0 = 0.

    Rejects x outside [0, 1]; NaN passes through.  np.log2, not math.log2:
    the two differ in the last bit on some doubles.
    """
    if x < 0.0 or x > 1.0:
        raise ValueError(f"binary_entropy domain is [0,1], got {x!r}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))
