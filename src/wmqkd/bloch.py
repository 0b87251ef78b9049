"""Single-qubit Bloch-vector algebra for the weak-measurement QKD toolkit.

A qubit density operator rho = (I + r_x X + r_y Y + r_z Z)/2 is represented by
its Bloch vector (r_x, r_y, r_z).  The protocol's observables are the rank-1
projectors

    H(+, phi) = (I + sin(pi/4 + phi) X + cos(pi/4 + phi) Z) / 2
    H(-, phi) = (I - sin(pi/4 + phi) X + cos(pi/4 + phi) Z) / 2

which sit midway between the Z and X bases (phi = 0 gives the canonical pair).
Everything here is a pure function of immutable values; vectorised variants
operate on plain float arrays and are used by the Monte Carlo harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12

BASIS_Z = "Z"
BASIS_X = "X"

_BASIS_ALIASES = {
    "Z": BASIS_Z,
    "X": BASIS_X,
    0: BASIS_Z,  # protocol basis flag: b=0 encodes Z
    1: BASIS_X,
}


def _canonical_basis(basis) -> str:
    try:
        return _BASIS_ALIASES[basis]
    except (KeyError, TypeError):
        raise ValueError(f"unknown basis {basis!r}; expected 'Z', 'X', 0 or 1") from None


@dataclass(frozen=True)
class BlochState:
    """A qubit state as a Bloch vector; valid iff |r| <= 1 (+ tolerance)."""

    r_x: float
    r_y: float
    r_z: float

    def __post_init__(self):
        n2 = self.r_x**2 + self.r_y**2 + self.r_z**2
        if n2 > 1.0 + NORM_TOL:
            raise ValueError(f"Bloch norm {math.sqrt(n2):.6f} exceeds 1: not a density operator")

    @property
    def norm(self) -> float:
        return math.sqrt(self.r_x**2 + self.r_y**2 + self.r_z**2)

    def as_array(self) -> np.ndarray:
        return np.array([self.r_x, self.r_y, self.r_z])

    def negate(self) -> "BlochState":
        """Antipodal vector; for a pure state this is the orthogonal state."""
        return BlochState(-self.r_x, -self.r_y, -self.r_z)

    @staticmethod
    def from_array(r) -> "BlochState":
        r = np.asarray(r, dtype=float)
        return BlochState(float(r[0]), float(r[1]), float(r[2]))


MAXIMALLY_MIXED = BlochState(0.0, 0.0, 0.0)


def bb84_state(basis, bit: int) -> BlochState:
    """The four BB84 source states, exactly pure at construction.

    (Z, 0) -> |0>, (Z, 1) -> |1>, (X, 0) -> |+>, (X, 1) -> |->.
    """
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    sign = 1.0 if bit == 0 else -1.0
    if _canonical_basis(basis) == BASIS_Z:
        return BlochState(0.0, 0.0, sign)
    return BlochState(sign, 0.0, 0.0)


@dataclass(frozen=True)
class Projector:
    """Rank-1 observable (I + sin(phi_total) X + cos(phi_total) Z)/2 in the X-Z plane.

    ``sign`` tags the family member: +1 stores phi_total = pi/4 + bias for H+,
    -1 stores the mirrored phi_total = -(pi/4 + bias) for H-.  The axis formula
    (sin(phi_total), 0, cos(phi_total)) then covers both families uniformly.
    """

    phi_total: float
    sign: int

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")

    @classmethod
    def h_plus(cls, bias: float = 0.0) -> "Projector":
        return cls(math.pi / 4 + bias, +1)

    @classmethod
    def h_minus(cls, bias: float = 0.0) -> "Projector":
        return cls(-(math.pi / 4 + bias), -1)

    @classmethod
    def from_family(cls, sign: int, bias: float = 0.0) -> "Projector":
        return cls.h_plus(bias) if sign == +1 else cls.h_minus(bias)

    @property
    def bias(self) -> float:
        return abs(self.phi_total) - math.pi / 4

    def axis(self) -> np.ndarray:
        """Unit Bloch axis, so that the projector is (I + axis . sigma)/2."""
        return np.array([math.sin(self.phi_total), 0.0, math.cos(self.phi_total)])

    def complement(self) -> "Projector":
        """The orthogonal projector (axis negated, same family tag)."""
        return Projector(self.phi_total + math.pi, self.sign)


def expectation(p: Projector, s: BlochState) -> float:
    """Tr(P rho) = (1 + n.r)/2 for projector axis n; always in [0, 1]."""
    n = p.axis()
    return 0.5 * (1.0 + n[0] * s.r_x + n[2] * s.r_z)


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

    @classmethod
    def from_intrinsic_error(cls, e_d: float, depolarizing_prob: float = 0.0) -> "ChannelModel":
        """Source rotation reproducing intrinsic error rate e_d on both bases."""
        if not 0.0 <= e_d <= 0.5:
            raise ValueError(f"e_d must be in [0, 0.5], got {e_d}")
        return cls(depolarizing_prob, math.acos(1.0 - 2.0 * e_d))

    def apply_array(self, r_x, r_y, r_z):
        """Vectorised channel action on component arrays."""
        c, s = math.cos(self.rotation_theta), math.sin(self.rotation_theta)
        shrink = 1.0 - self.depolarizing_prob
        out_x = shrink * (r_x * c + r_z * s)
        out_z = shrink * (r_z * c - r_x * s)
        return out_x, shrink * np.asarray(r_y), out_z


def apply_channel(c: ChannelModel, s: BlochState) -> BlochState:
    rx, ry, rz = c.apply_array(s.r_x, s.r_y, s.r_z)
    return BlochState(float(rx), float(ry), float(rz))


def channel_r_parameters(c: ChannelModel) -> dict:
    """Post-channel Bloch components of the four BB84 states.

    Keys r_x_plus, r_x_minus, r_z_0, r_z_1 name the components that enter the
    error-rate formulas; r_z_plus and r_x_0 (nonzero only under rotation) feed
    the optimal-bias expressions.
    """
    plus = apply_channel(c, bb84_state(BASIS_X, 0))
    minus = apply_channel(c, bb84_state(BASIS_X, 1))
    zero = apply_channel(c, bb84_state(BASIS_Z, 0))
    one = apply_channel(c, bb84_state(BASIS_Z, 1))
    return {
        "r_x_plus": plus.r_x,
        "r_z_plus": plus.r_z,
        "r_x_minus": minus.r_x,
        "r_z_minus": minus.r_z,
        "r_x_0": zero.r_x,
        "r_z_0": zero.r_z,
        "r_x_1": one.r_x,
        "r_z_1": one.r_z,
    }


def true_error_rates(c: ChannelModel) -> tuple[float, float]:
    """Ground-truth (delta_X, delta_Z) of a channel, by the general formulas

    delta_X = (2 - r_x^+ + r_x^-)/4,  delta_Z = (2 - r_z^0 + r_z^1)/4.
    """
    r = channel_r_parameters(c)
    delta_x = 0.25 * (2.0 - r["r_x_plus"] + r["r_x_minus"])
    delta_z = 0.25 * (2.0 - r["r_z_0"] + r["r_z_1"])
    return delta_x, delta_z


def binary_entropy(x):
    """H2(x) = -x log2 x - (1-x) log2 (1-x) with the 0 log 0 = 0 convention.

    Accepts scalars or arrays; rejects inputs outside [0, 1].
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError(f"binary_entropy domain is [0,1], got {x!r}")
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -arr * np.log2(arr) - (1.0 - arr) * np.log2(1.0 - arr)
    h = np.where((arr == 0.0) | (arr == 1.0), 0.0, h)
    if np.isscalar(x) or arr.ndim == 0:
        return float(h)
    return h
