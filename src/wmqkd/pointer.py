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

Variance conventions: simulated readings carry Var[omega] = sigma_md^2 plus
the binomial branch term g^2 <P>(1-<P>).  Some closed-form device checks are
stated in coupling-scaled units where the variance is (g sigma_md)^2; use
``coupling_scaled_variance`` / ``physical_pointer_variance`` to convert, and
see each formula's docstring for which convention it expects.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bloch import BlochState, Projector

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
        if self.g < 0:
            raise ValueError(f"coupling g must be >= 0, got {self.g}")
        if self.sigma_md <= 0:
            raise ValueError(f"sigma_md must be > 0, got {self.sigma_md}")
        if self.sigma_phi < 0:
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


def dephasing_factor(g: float, sigma: float) -> float:
    """Coherence survival e^{-g^2 / 8 sigma^2} of one weak measurement."""
    return math.exp(-(g * g) / (8.0 * sigma * sigma))


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


def pointer_variance(p_expectation: float, g: float, sigma: float) -> float:
    """Analytic reading variance sigma^2 + g^2 <P>(1-<P>) (physical units)."""
    return sigma * sigma + g * g * p_expectation * (1.0 - p_expectation)


def coupling_scaled_variance(physical_variance: float, g: float) -> float:
    """Convert a physical reading variance to the (g sigma)^2 convention."""
    return g * g * physical_variance


def physical_pointer_variance(scaled_variance: float, g: float) -> float:
    """Convert a (g sigma)^2-convention variance to physical units."""
    return scaled_variance / (g * g)


def sample_readings(p_expectations, g, sigma, rng):
    """Draw pointer readings from the two-branch mixture (vectorised)."""
    p = np.asarray(p_expectations, dtype=float)
    shifted = rng.random(p.shape) < p
    return rng.normal(0.0, sigma, p.shape) + np.where(shifted, g, 0.0)


def measure_array(r, sign, angle, cfg: PointerConfig, rng):
    """Weak-measure a batch of states; returns (omega, posterior_bloch).

    r: (N, 3) Bloch vectors; sign: (N,) +-1 family tags; angle: (N,) total
    axis angles (already including any adversarial bias).  Device bias_phi is
    added here, and sigma_phi angle noise is drawn fresh per signal.
    """
    r_x, r_y, r_z = np.moveaxis(np.asarray(r, dtype=float), -1, 0)
    sign = np.asarray(sign, dtype=float)
    angle = np.asarray(angle, dtype=float) + cfg.bias_phi
    if cfg.sigma_phi > 0:
        angle = angle + rng.normal(0.0, cfg.sigma_phi, angle.shape)
    # axis (sign sin, 0, cos) absorbs the family sign: H(-) has a mirrored X component
    axis_x, axis_z = sign * np.sin(angle), np.cos(angle)
    rn = r_x * axis_x + r_z * axis_z
    omega = sample_readings(0.5 * (1.0 + rn), cfg.g, cfg.sigma_md, rng)
    # Kraus update: branch weights a <-> P_perp (no shift), b <-> P (shift g)
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
    # the axis component is filtered, the perpendicular part (all of y) scaled by the overlap
    overlap = ab / norm
    posterior = (out_n * axis_x + overlap * (r_x - rn * axis_x),
                 overlap * r_y,
                 out_n * axis_z + overlap * (r_z - rn * axis_z))
    return omega, np.stack(posterior, axis=-1)


def dephased_state(s: BlochState, p: Projector, cfg: PointerConfig) -> BlochState:
    """Pointer-averaged post-measurement state.

    The Bloch component along p's axis is preserved; the perpendicular part
    shrinks by e^{-g^2/8 sigma^2}.
    """
    f = dephasing_factor(cfg.g, cfg.sigma_md)
    axis = p.axis()
    r = s.as_array()
    rn = float(r @ axis)
    out = rn * axis + f * (r - rn * axis)
    return BlochState.from_array(out)
