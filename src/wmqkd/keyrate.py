"""Asymptotic secure key rates with weak+vacuum decoy states.

Single-photon bounds from the measured gains (Q_mu, Q_nu, Q_vac):

    Q_1^L = mu^2 e^-mu / (mu nu - nu^2) [ Q_nu e^nu - Q_mu e^mu (nu/mu)^2
                                          - Q_vac (mu^2 - nu^2)/mu^2 ]
    eps_1^U = (eps_nu Q_nu e^nu - Q_vac / 2) / (Q_1^L e^mu nu/mu)

feeding R = q { Q_1^L [1 - H2(eps_1^U)] - Q_mu f H2(eps_mu) }, with the sifting
fraction q = SIFTING_FRACTION = 1/2 (Alice's basis is a fair coin and only
Z-prepared signals make key) and split errors: eps_mu is the Z error of the
signal pulses, eps_nu the X error of the decoys.
`decoy_chain` is the one implementation.  Its callers: `wm_decoy_chain` (honest
gains, errors debited by the measurement back-action), `bb84_decoy_chain` (no
back-action) and the Monte Carlo run's key rate, fed with estimated gains and
errors.  A clamp of eps_1^U into [0, 1/2] sets a diagnostic flag (it signals
model breakdown, not routine sanitizing).

The detection model behind the honest chains is Poissonian:
Q_gamma = Y0 + 1 - exp(-eta gamma) with eta = eta_d 10^(-loss d / 10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bloch import binary_entropy
from .estimation import corrected_error_rate, dark_count_fraction

SIFTING_FRACTION = 0.5


@dataclass(frozen=True)
class DecoyConfig:
    """Pulse intensity classes: signal mu, decoy nu, vacuum fixed at zero."""

    mu: float = 0.48
    nu: float = 0.05

    def __post_init__(self):
        # mu nu - nu^2 can round to 0 for nu < mu a few ulps apart
        if not 0.0 < self.nu < self.mu or self.mu * self.nu - self.nu**2 <= 0:
            raise ValueError(f"need 0 < nu < mu and mu nu - nu^2 > 0, got nu={self.nu}, mu={self.mu}")


@dataclass(frozen=True)
class SystemParams:
    """Detector, channel and post-processing parameters.

    eta_d: total detection efficiency; y0: vacuum yield; e_d: intrinsic error
    rate (source rotation); f_ec: error-reconciliation efficiency (per run).
    """

    eta_d: float = 0.145
    y0: float = 6e-6
    loss_db_per_km: float = 0.2
    distance_km: float = 20.0
    f_ec: float = 1.22
    e_d: float = 0.015

    def __post_init__(self):
        for name in ("eta_d", "y0"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {value}")
        if not 0.0 <= self.e_d <= 0.5:
            raise ValueError(f"e_d must be in [0, 0.5], got {self.e_d}")
        if not (self.loss_db_per_km >= 0 and self.distance_km >= 0):
            raise ValueError("loss and distance must be nonnegative")
        if not self.f_ec >= 1.0:
            raise ValueError(f"f_ec must be >= 1, got {self.f_ec}")

    @property
    def eta(self) -> float:
        return self.eta_d * 10.0 ** (-self.loss_db_per_km * self.distance_km / 10.0)


def transmittance(params: SystemParams, gamma: float) -> float:
    """Detection probability Q_gamma = Y0 + 1 - e^(-eta gamma) for intensity gamma."""
    if gamma < 0:
        raise ValueError(f"intensity must be >= 0, got {gamma}")
    return params.y0 - math.expm1(-params.eta * gamma)


def honest_gains(params: SystemParams, cfg: DecoyConfig) -> tuple[float, float, float]:
    """(Q_mu, Q_nu, Q_vac) of the honest Poissonian detection model."""
    return (transmittance(params, cfg.mu),
            transmittance(params, cfg.nu),
            transmittance(params, 0.0))


def q1_lower(q_mu: float, q_nu: float, q_vac: float, cfg: DecoyConfig) -> float:
    """Decoy lower bound on the single-photon gain, clamped below at 0."""
    bracket = (q_nu * math.exp(cfg.nu)
               - q_mu * math.exp(cfg.mu) * (cfg.nu / cfg.mu) ** 2
               - q_vac * (cfg.mu**2 - cfg.nu**2) / cfg.mu**2)
    value = cfg.mu**2 * math.exp(-cfg.mu) / (cfg.mu * cfg.nu - cfg.nu**2) * bracket
    return max(value, 0.0)


def clip_error(x: float) -> float:
    """Clamp an error rate into [0, 1/2]."""
    return min(max(x, 0.0), 0.5)


def smoothed_rate(qber: float) -> float:
    """Idealized rate max(1 - 2 H2(qber), 0), qber clamped into [0, 1/2]."""
    return max(1.0 - 2.0 * binary_entropy(clip_error(qber)), 0.0)


def split_rate(delta_x: float, delta_z: float) -> float:
    """Idealized split rate 1 - H2(delta_X) - H2(delta_Z); callers clip and floor."""
    return 1.0 - binary_entropy(delta_x) - binary_entropy(delta_z)


@dataclass(frozen=True)
class DecoyRateBreakdown:
    """One protocol's full decoy chain at a set of gains and error rates."""

    q_mu: float
    q_nu: float
    q_vac: float
    q1_l: float
    eps_mu: float
    eps_nu: float
    single_photon_error_bound: float
    rate: float
    clamped: bool


def decoy_chain(q_mu: float, q_nu: float, q_vac: float, eps_mu: float, eps_nu: float,
                params: SystemParams, cfg: DecoyConfig) -> DecoyRateBreakdown:
    """Decoy rate from the gains, the signal error eps_mu and the decoy error eps_nu.

    eps_1^U takes the vacuum error as 1/2 and is clamped into [0, 1/2]
    (`clamped` says the clamp fired); the rate is floored at 0 and is 0
    outright when Q_1^L is.
    """
    q1 = q1_lower(q_mu, q_nu, q_vac, cfg)
    if q1 <= 0.0:
        return DecoyRateBreakdown(q_mu, q_nu, q_vac, 0.0, eps_mu, eps_nu, 0.5, 0.0, True)
    value = (eps_nu * q_nu * math.exp(cfg.nu) - 0.5 * q_vac) / (q1 * math.exp(cfg.mu) * cfg.nu / cfg.mu)
    eps1 = clip_error(value)
    rate = SIFTING_FRACTION * (q1 * (1.0 - binary_entropy(eps1))
                               - q_mu * params.f_ec * binary_entropy(eps_mu))
    return DecoyRateBreakdown(q_mu, q_nu, q_vac, q1, eps_mu, eps_nu, eps1, max(rate, 0.0), eps1 != value)


# ---------------------------------------------------------------------------
# analytic chains (honest model -> rates), used by sweeps and figure datasets
# ---------------------------------------------------------------------------

def wm_decoy_chain(params: SystemParams, cfg: DecoyConfig, delta_wm: float) -> DecoyRateBreakdown:
    """Weak-measurement chain on the honest gains, every error debited by delta_wm.

    The measurement back-action enters every intensity's error budget (the
    QBER definition includes it): e_d + delta_wm, capped at 1/2 and dark-count
    corrected per intensity, is the error of both the signal and the decoy pulses.
    """
    q_mu, q_nu, q_vac = honest_gains(params, cfg)
    d_mu = dark_count_fraction(q_mu, q_vac)
    d_nu = dark_count_fraction(q_nu, q_vac)
    error = min(params.e_d + delta_wm, 0.5)
    return decoy_chain(q_mu, q_nu, q_vac, corrected_error_rate(error, d_mu),
                       corrected_error_rate(error, d_nu), params, cfg)


def bb84_decoy_chain(params: SystemParams, cfg: DecoyConfig) -> DecoyRateBreakdown:
    """BB84 chain: the weak-measurement chain with no back-action."""
    return wm_decoy_chain(params, cfg, 0.0)
