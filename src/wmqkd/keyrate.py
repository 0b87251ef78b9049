"""Asymptotic secure key rates with weak+vacuum decoy states.

Single-photon bounds from the measured gains (Q_mu, Q_nu, Q_vac):

    Q_1^L = mu^2 e^-mu / (mu nu - nu^2) [ Q_nu e^nu - Q_mu e^mu (nu/mu)^2
                                          - Q_vac (mu^2 - nu^2)/mu^2 ]
    eps_1^U = (eps_nu Q_nu e^nu - eps_vac Q_vac) / (Q_1^L e^mu nu/mu)

feeding the rate R = q { Q_1^L [1 - H2(eps_1^U)] - Q_mu f H2(eps_mu) }, and the
split-error variant that replaces eps_1^U by the single-photon X-error bound
and eps_mu by the Z error of the signal pulses.  Probability-like bounds are
clamped into their domains after computation, with a diagnostic flag when the
clamp fired (clamping signals model breakdown, not routine sanitizing).

The detection model behind the honest chains is Poissonian:
Q_gamma = Y0 + 1 - exp(-eta gamma) with eta = eta_d 10^(-loss d / 10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bloch import binary_entropy
from .estimation import corrected_error_rate, dark_count_fraction


@dataclass(frozen=True)
class DecoyConfig:
    """Pulse intensity classes: signal mu, decoy nu, vacuum fixed at zero."""

    mu: float = 0.48
    nu: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.nu < self.mu:
            raise ValueError(f"need 0 < nu < mu, got nu={self.nu}, mu={self.mu}")


@dataclass(frozen=True)
class SystemParams:
    """Detector, channel and post-processing parameters.

    eta_d: total detection efficiency; y0: vacuum yield; e_d: intrinsic error
    rate (source rotation); f_ec: error-reconciliation efficiency (constant per
    run); q: sifting fraction, 1/2 since only Z-prepared signals make key.
    """

    eta_d: float = 0.145
    y0: float = 6e-6
    loss_db_per_km: float = 0.2
    distance_km: float = 20.0
    f_ec: float = 1.22
    e_d: float = 0.015
    q: float = 0.5

    def __post_init__(self):
        for name in ("eta_d", "y0", "q"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {value}")
        if not 0.0 <= self.e_d <= 0.5:
            raise ValueError(f"e_d must be in [0, 0.5], got {self.e_d}")
        if self.loss_db_per_km < 0 or self.distance_km < 0:
            raise ValueError("loss and distance must be nonnegative")
        if self.f_ec < 1.0:
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


def single_photon_gain(params: SystemParams, cfg: DecoyConfig) -> float:
    """Exact Poissonian single-photon gain mu e^-mu (Y0 + eta): the Q_1^L ceiling."""
    return cfg.mu * math.exp(-cfg.mu) * (params.y0 + params.eta)


def q1_lower(q_mu: float, q_nu: float, q_vac: float, cfg: DecoyConfig) -> float:
    """Decoy lower bound on the single-photon gain, clamped below at 0."""
    denom = cfg.mu * cfg.nu - cfg.nu**2
    if denom <= 0:
        raise ValueError(f"mu nu - nu^2 must be positive, got {denom}")
    bracket = (q_nu * math.exp(cfg.nu)
               - q_mu * math.exp(cfg.mu) * (cfg.nu / cfg.mu) ** 2
               - q_vac * (cfg.mu**2 - cfg.nu**2) / cfg.mu**2)
    value = cfg.mu**2 * math.exp(-cfg.mu) / denom * bracket
    return max(value, 0.0)


def clip_error(x: float) -> float:
    """Clamp an error rate into [0, 1/2]."""
    return min(max(x, 0.0), 0.5)


def smoothed_rate(qber: float) -> float:
    """Idealized rate max(1 - 2 H2(qber), 0), qber clamped into [0, 1/2]."""
    return max(1.0 - 2.0 * binary_entropy(clip_error(qber)), 0.0)


def _eps1_bound(eps_nu: float, q_nu: float, eps_vac: float, q_vac: float,
                q1_l: float, cfg: DecoyConfig) -> tuple[float, bool]:
    """eps_1^U clamped to [0, 1/2] (Q_1^L > 0), and whether the clamp fired."""
    value = (eps_nu * q_nu * math.exp(cfg.nu) - eps_vac * q_vac) / (
        q1_l * math.exp(cfg.mu) * cfg.nu / cfg.mu)
    bound = clip_error(value)
    return bound, bound != value


def eps1_upper(eps_nu: float, q_nu: float, eps_vac: float, q_vac: float,
               q1_l: float, cfg: DecoyConfig) -> float:
    """Upper bound on the single-photon bit error rate, clamped to [0, 1/2]."""
    if q1_l <= 0:
        raise ValueError("Q_1^L must be positive (the rate is 0 otherwise)")
    return _eps1_bound(eps_nu, q_nu, eps_vac, q_vac, q1_l, cfg)[0]


def decoy_rate(q1_l: float, eps1_u: float, q_mu: float, eps_mu: float,
               params: SystemParams) -> float:
    """R = q { Q_1^L [1 - H2(eps_1^U)] - Q_mu f H2(eps_mu) }, floored at 0."""
    rate = params.q * (q1_l * (1.0 - binary_entropy(eps1_u))
                       - q_mu * params.f_ec * binary_entropy(eps_mu))
    return max(rate, 0.0)


def wm_decoy_rate(q1_l: float, q_mu: float, delta_z_mu: float, delta_x_nu: float,
                  delta_x_vac: float, q_nu: float, q_vac: float,
                  params: SystemParams, cfg: DecoyConfig) -> float:
    """Split-error decoy rate R = q { Q_1^L [1 - H2(delta_X1^U)] - Q_mu f H2(delta_Z_mu) }.

    delta_X1^U is the single-photon X-error bound built from the decoy and
    vacuum X errors, clamped to [0, 1/2].
    """
    delta_x1 = eps1_upper(delta_x_nu, q_nu, delta_x_vac, q_vac, q1_l, cfg)
    return decoy_rate(q1_l, delta_x1, q_mu, delta_z_mu, params)


@dataclass(frozen=True)
class IdealizedRate:
    """Both idealized rate variants; `smoothed` is the conservative one."""

    smoothed: float  # max(1 - 2 H2(delta_b), 0)
    split: float     # max(1 - H2(delta_X) - H2(delta_Z), 0)


def idealized_rate(delta_x: float, delta_z: float) -> IdealizedRate:
    """Loss-free asymptotic rates from the two error estimates.

    Inputs must land in [0, 1/2]: negatives are rejected here because the
    verification step upstream owns them; values above 1/2 are rejected.
    """
    for name, value in (("delta_x", delta_x), ("delta_z", delta_z)):
        if not 0.0 <= value <= 0.5:
            raise ValueError(f"{name} must be in [0, 1/2], got {value}")
    delta_b = 0.5 * (delta_x + delta_z)
    smoothed = smoothed_rate(delta_b)
    split = max(1.0 - binary_entropy(delta_x) - binary_entropy(delta_z), 0.0)
    return IdealizedRate(smoothed, split)


# ---------------------------------------------------------------------------
# analytic chains (honest model -> rates), used by sweeps and figure datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecoyRateBreakdown:
    """One protocol's full decoy chain at a set of system parameters."""

    q_mu: float
    q_nu: float
    q_vac: float
    q1_l: float
    eps_mu: float
    eps_nu: float
    single_photon_error_bound: float
    rate: float
    clamped: bool


def _dark_corrected(params: SystemParams, cfg: DecoyConfig, base_error: float):
    """Per-intensity errors after folding in the dark-count fraction."""
    q_mu, q_nu, q_vac = honest_gains(params, cfg)
    d_mu = dark_count_fraction(q_mu, min(q_vac, q_mu))
    d_nu = dark_count_fraction(q_nu, min(q_vac, q_nu))
    eps_mu = corrected_error_rate(base_error, d_mu)
    eps_nu = corrected_error_rate(base_error, d_nu)
    return q_mu, q_nu, q_vac, eps_mu, eps_nu


def bb84_decoy_chain(params: SystemParams, cfg: DecoyConfig,
                     base_error: float | None = None) -> DecoyRateBreakdown:
    """BB84-style chain: symmetric errors eps = delta_b at every intensity."""
    base = params.e_d if base_error is None else base_error
    q_mu, q_nu, q_vac, eps_mu, eps_nu = _dark_corrected(params, cfg, base)
    q1 = q1_lower(q_mu, q_nu, q_vac, cfg)
    if q1 <= 0.0:
        return DecoyRateBreakdown(q_mu, q_nu, q_vac, 0.0, eps_mu, eps_nu, 0.5, 0.0, True)
    eps1, clamped = _eps1_bound(eps_nu, q_nu, 0.5, q_vac, q1, cfg)
    rate = decoy_rate(q1, eps1, q_mu, eps_mu, params)
    return DecoyRateBreakdown(q_mu, q_nu, q_vac, q1, eps_mu, eps_nu, eps1, rate, clamped)


def wm_decoy_chain(params: SystemParams, cfg: DecoyConfig, delta_wm: float = 0.0,
                   delta_x: float | None = None, delta_z: float | None = None) -> DecoyRateBreakdown:
    """Weak-measurement chain: split errors, both debited by delta_wm.

    delta_x / delta_z default to the intrinsic e_d on both bases; the
    measurement back-action enters every intensity's error budget (the QBER
    definition includes it) and the vacuum X error is 1/2.
    """
    dx = (params.e_d if delta_x is None else delta_x) + delta_wm
    dz = (params.e_d if delta_z is None else delta_z) + delta_wm
    q_mu, q_nu, q_vac = honest_gains(params, cfg)
    d_mu = dark_count_fraction(q_mu, min(q_vac, q_mu))
    d_nu = dark_count_fraction(q_nu, min(q_vac, q_nu))
    dz_mu = corrected_error_rate(dz, d_mu)
    dx_nu = corrected_error_rate(dx, d_nu)
    q1 = q1_lower(q_mu, q_nu, q_vac, cfg)
    if q1 <= 0.0:
        return DecoyRateBreakdown(q_mu, q_nu, q_vac, 0.0, dz_mu, dx_nu, 0.5, 0.0, True)
    dx1, clamped = _eps1_bound(dx_nu, q_nu, 0.5, q_vac, q1, cfg)
    rate = decoy_rate(q1, dx1, q_mu, dz_mu, params)
    return DecoyRateBreakdown(q_mu, q_nu, q_vac, q1, dz_mu, dx_nu, dx1, rate, clamped)


def optimize_intensities(params: SystemParams, mu_grid, nu_grid,
                         delta_wm: float = 0.0, use_wm_chain: bool = True):
    """Plain grid search over (mu, nu) maximizing the chain rate."""
    best = (0.0, None)
    for mu in mu_grid:
        for nu in nu_grid:
            if not 0.0 < nu < mu:
                continue
            cfg = DecoyConfig(mu=mu, nu=nu)
            chain = (wm_decoy_chain(params, cfg, delta_wm) if use_wm_chain
                     else bb84_decoy_chain(params, cfg))
            if chain.rate > best[0]:
                best = (chain.rate, cfg)
    return best
