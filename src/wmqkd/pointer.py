"""Discrete von Neumann weak measurement of a qubit with a Gaussian pointer.

The measurement device starts in a real Gaussian position wavefunction of
width sigma_md; the interaction displaces it by g conditional on the measured
projector P.  Tracing out the qubit, the pointer reading is the two-branch
mixture

    omega ~ <P_perp> N(0, sigma^2) + <P> N(g, sigma^2)        (physical units)

and, given a reading omega, the qubit is updated with the Gaussian Kraus
operator M(omega) ∝ e^{-omega^2/4s^2} P_perp + e^{-(omega-g)^2/4s^2} P, the
minimal-disturbance completion consistent with the pointer-traced state: the
Bloch component along the projector axis is filtered, the perpendicular part
is scaled by the branch overlap.  Averaged over readings this reproduces the
dephasing map with factor e^{-g^2/8 sigma^2}.

States are Bloch components (x, z), one array each, as ``wmqkd.bloch``
holds them, and observables are given by their family sign and total axis
angle (``wmqkd.bloch.projector_axis``): ``measure_array`` samples readings and
posteriors for a batch.

Readings are in physical units: Var[omega] = sigma_md^2 plus the binomial
branch term g^2 <P>(1-<P>), and every variance in the package uses them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bloch import projector_axis

WEAKNESS_WARN_RATIO = 0.5


@dataclass(frozen=True)
class PointerConfig:
    """Weak-measurement device parameters.

    g: coupling strength (pointer-position units); sigma_md: pointer spread;
    sigma_phi: per-signal Gaussian noise on the projector angle (radians);
    bias_phi: fixed angle offset added to every projector.
    """

    g: float
    sigma_md: float
    sigma_phi: float = 0.0
    bias_phi: float = 0.0

    def __post_init__(self):
        # finite first: the weakness check below must not see an infinite ratio
        if not 0 <= self.g < math.inf:
            raise ValueError(f"coupling g must be finite and >= 0, got {self.g}")
        if not 0 < self.sigma_md < math.inf:
            raise ValueError(f"sigma_md must be finite and > 0, got {self.sigma_md}")
        if not self.sigma_phi >= 0:
            raise ValueError(f"sigma_phi must be >= 0, got {self.sigma_phi}")
        if self.weakness_ratio > WEAKNESS_WARN_RATIO:
            warnings.warn(
                f"g/sigma_md = {self.weakness_ratio:.3f} > {WEAKNESS_WARN_RATIO}: "
                "interaction is no longer weak",
                stacklevel=2,
            )

    @property
    def weakness_ratio(self) -> float:
        return self.g / self.sigma_md


def wm_disturbance_error(g: float, sigma: float) -> float:
    """Depolarizing-equivalent error (1 - e^{-g^2/8s^2})/4 of one weak measurement.

    Basis-independent over the four BB84 inputs and both projector families;
    tends to 1/4 as g/sigma grows.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if g < 0:
        raise ValueError(f"g must be >= 0, got {g}")
    return -0.25 * math.expm1(-(g * g) / (8.0 * sigma * sigma))


def pointer_variance(p_expectation, g: float, sigma: float):
    """Analytic reading variance sigma^2 + g^2 <P>(1-<P>) (physical units)."""
    return sigma**2 + g**2 * p_expectation * (1.0 - p_expectation)


def sample_readings(p_expectations, g, sigma, rng):
    """Draw pointer readings from the two-branch mixture (vectorised)."""
    p = np.asarray(p_expectations, dtype=float)
    shifted = rng.random(p.shape) < p
    return rng.normal(0.0, sigma, p.shape) + shifted * g


def measure_array(r_x, r_z, sign, angle, cfg: PointerConfig, rng):
    """Weak-measure a batch of states; returns (omega, (x, z) of the posteriors).

    r_x, r_z: (N,) Bloch components; sign: (N,) +-1 family tags; angle:
    (N,) total axis angles, or one for all (already including any adversarial
    bias).  Device bias_phi is added here, and sigma_phi angle noise is drawn
    fresh per signal.
    """
    sign = np.asarray(sign, dtype=float)
    angle = np.asarray(angle, dtype=float) + cfg.bias_phi
    if cfg.sigma_phi > 0:
        angle = angle + rng.normal(0.0, cfg.sigma_phi, sign.shape)
    axis_x, axis_z = projector_axis(sign, angle)
    rn = r_x * axis_x + r_z * axis_z
    omega = sample_readings(0.5 * (1.0 + rn), cfg.g, cfg.sigma_md, rng)
    # Kraus update in place, by the textbook formulas' IEEE operations on each element (a sign flip
    # and the order of one + or * are exact): weights a <-> P_perp (no shift), b <-> P (shift g)
    sigma = cfg.sigma_md
    a, b = omega * omega, omega - cfg.g
    b *= b
    ab = a + b                                       # the exponent of the overlap's numerator
    for w, scale in ((a, 2.0), (b, 2.0), (ab, 4.0)):
        np.exp(np.divide(w, -(scale * sigma * sigma), out=w), out=w)
    norm = 1.0 - rn
    a *= norm                                        # weight_a = a2 (1 - rn)
    b *= np.add(rn, 1.0, out=norm)                   # weight_b = b2 (1 + rn)
    norm = np.multiply(np.add(a, b, out=norm), 0.5, out=norm)
    b -= a
    b /= np.multiply(norm, 2.0, out=a)               # the axis component (weight_b - weight_a) / (2 norm)
    ab /= norm                                       # the branch overlap
    # the axis component is filtered, the perpendicular part scaled by the overlap
    posterior = [np.subtract(r, rn * axis) for r, axis in ((r_x, axis_x), (r_z, axis_z))]
    for component, axis in zip(posterior, (axis_x, axis_z)):
        component *= ab
        component += np.multiply(b, axis, out=a)
    return omega, tuple(posterior)
