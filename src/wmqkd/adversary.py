"""Adversary models: channel attacks and measurement-device (fake pointer) attacks.

Three families are implemented.

* Intercept-resend: Eve guesses the preparation basis (correctly with
  probability p_basis), strongly measures, and re-emits the outcome eigenstate.
  Induces sifted-key error (1 - p_basis)/2.

* Fake weak-measurement strategies 1 and 2: Eve's agent controls the
  measurement-device output.  She weakly measures both observables near the
  source and substitutes an affine transform of her own reading for the
  observable she guesses Bob expects (correctly with probability p_H): for her
  reading Delta of that observable she delivers g_e/2 + alpha (Delta - g_e/2),
  with alpha_x / alpha_z chosen by her basis guess under strategy 2.  Runs
  do not simulate that per-signal rule; they draw the delivered readings from
  the closed-form conditional laws this attack family induces: cell means
  carry the guess-diluted signal amplitudes
  (r_x -> alpha p_basis (2 p_H - 1), r_z -> alpha p_basis) and the delivered
  per-basis standard deviations are alpha sigma_eve for Z-conditioned cells
  and alpha sigma_eve/(2 p_H - 1) for X-conditioned cells, which is what the
  verification variance tests probe.  Those laws are stated in (g sigma)^2
  pointer units and are translated to physical units here.

* Biased observables: the measured projectors are rotated by fixed angles
  (phi for the intended H+, phi' for H-), selectively per Eve's guess of
  Bob's choice when p_H > 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bloch import bb84_bloch
from .estimation import CELLS

INV_2ROOT2 = 1.0 / (2.0 * math.sqrt(2.0))

# the AttackConfig knobs each strategy reads (strategy 1's Eve always measures Z)
STRATEGY_FIELDS = {
    "none": (),
    "intercept_resend": ("p_basis",),
    "fake_wm_strategy1": ("p_h", "alpha", "g_eve", "sigma_eve"),
    "fake_wm_strategy2": ("p_basis", "p_h", "alpha_x", "alpha_z", "g_eve", "sigma_eve"),
    "biased_observables": ("p_h", "phi", "phi_prime"),
}
STRATEGIES = tuple(STRATEGY_FIELDS)


@dataclass(frozen=True)
class AttackConfig:
    """Adversary strategy selector with side-channel powers and knobs.

    p_basis / p_h are Eve's per-signal probabilities of guessing Alice's
    preparation basis and Bob's observable choice.  alpha (strategy 1) or
    alpha_x / alpha_z (strategy 2) are the fake-pointer amplification factors;
    g_eve / sigma_eve default to Bob's device parameters when left None.
    phi / phi_prime are the bias angles for the biased-observable attack.
    """

    strategy: str = "none"
    p_basis: float = 0.5
    p_h: float = 0.5
    alpha: float | None = None
    alpha_x: float | None = None
    alpha_z: float | None = None
    g_eve: float | None = None
    sigma_eve: float | None = None
    phi: float = 0.0
    phi_prime: float = 0.0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; choose from {STRATEGIES}")
        for name, value in (("p_basis", self.p_basis), ("p_h", self.p_h)):
            if not 0.5 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0.5, 1], got {value}")
        if self.strategy == "fake_wm_strategy1":
            if self.alpha is None:
                raise ValueError("fake_wm_strategy1 requires alpha")
            if self.p_h <= 0.5:
                raise ValueError("fake_wm_strategy1 requires p_h > 0.5")
        if self.strategy == "fake_wm_strategy2":
            if self.alpha_x is None or self.alpha_z is None:
                raise ValueError("fake_wm_strategy2 requires alpha_x and alpha_z")

    def with_device_defaults(self, g: float, sigma_md: float) -> "AttackConfig":
        """Fill g_eve / sigma_eve with Bob's device values (Eve mimics the device)."""
        out = self
        if out.g_eve is None:
            out = replace(out, g_eve=g)
        if out.sigma_eve is None:
            out = replace(out, sigma_eve=sigma_md)
        return out


# ---------------------------------------------------------------------------
# intercept-resend
# ---------------------------------------------------------------------------

def intercept_resend_array(r_x, r_z, basis_flags, p_basis, rng, force_z: bool = False):
    """Vectorised intercept-resend on post-channel states.

    r_x, r_z: (N,) Bloch components; basis_flags: (N,) 0=Z / 1=X true bases.
    Eve measures Z always when force_z (Strategy 1/3 with believed-Z),
    otherwise in her guessed basis.  Returns ((x, z) of the re-emitted
    eigenstates, eve_outcome_bits).
    """
    n = len(basis_flags)
    if force_z:
        guess, proj = np.zeros(n, dtype=np.uint8), r_z
    else:
        guess = (basis_flags ^ (rng.random(n) >= p_basis)).astype(np.uint8, copy=False)  # a wrong guess flips it
        proj = np.where(guess.view(bool), r_x, r_z)  # the state on the measured axis
    bits = (rng.random(n) >= 0.5 * (1.0 + proj)).view(np.uint8)
    return bb84_bloch(bits, guess), bits


def intercept_resend_mean_state(r_x, r_z, basis_flags, p_basis: float):
    """Exact ensemble average (x, z) of the re-emitted states (analytic mode).

    Eve measures the true basis (0=Z / 1=X) with probability p_basis, which
    keeps that component, and the other basis otherwise.
    """
    return (np.where(basis_flags == 1, p_basis, 1.0 - p_basis) * r_x,
            np.where(basis_flags == 0, p_basis, 1.0 - p_basis) * r_z)


# ---------------------------------------------------------------------------
# fake weak-measurement pointers (strategies 1 and 2)
# ---------------------------------------------------------------------------

def strategy1_predicted_qber(alpha: float, p_h: float) -> float:
    """Bit error rate Alice and Bob estimate under Strategy 1: (1 - alpha p_H)/2."""
    return 0.5 * (1.0 - alpha * p_h)


def strategy1_variance_ratio(p_h: float) -> float:
    """Predicted X/Z conditioned pointer-variance ratio 1/(2 p_H - 1)^2."""
    return 1.0 / (2.0 * p_h - 1.0) ** 2


def strategy2_qber_lower_bound(p_basis: float, p_h: float, sigma_ratio: float) -> float:
    """Lower bound (1 - (sigma_sec/sigma_md) p_basis p_H)/2 on the estimated QBER.

    The protocol is secure against Strategy 2 whenever delta_sec - delta_wm
    stays below this bound.
    """
    if sigma_ratio < 1.0:
        raise ValueError(f"sigma_ratio = sigma_sec/sigma_md must be >= 1, got {sigma_ratio}")
    return 0.5 * (1.0 - sigma_ratio * p_basis * p_h)


def strategy2_sigma_ratio_crossover(p_product: float, delta_sec: float) -> float:
    """sigma_sec/sigma_md at which the Strategy-2 bound meets delta_sec."""
    return (1.0 - 2.0 * delta_sec) / p_product


def _fake_cell_table(attack: AttackConfig, g: float, sigma_md: float):
    """Per-cell (mean, std) of the delivered reading, indexed [s_a, basis, h].

    basis 0 = Z, h 0 = H+.  The mean carries the guess-diluted signal term and
    the standard deviation is the per-basis value the variance checks test.
    """
    cfg = attack.with_device_defaults(g, sigma_md)
    s_a, basis, h = CELLS
    t = np.where(h == 0, 1.0, -1.0)  # +1 for H+, -1 for H-
    bit_sign = np.where(s_a == 0, 1.0, -1.0)
    two_ph = 2.0 * cfg.p_h - 1.0
    if cfg.strategy == "fake_wm_strategy1":
        # strategy 1 assumes no basis knowledge; delivering full Z amplitude
        # alpha forces the X-cell spread up by 1/(2pH-1)
        signal = np.where(basis == 0, cfg.alpha * bit_sign, cfg.alpha * two_ph * t * bit_sign)
        std = np.where(basis == 0, cfg.alpha * cfg.sigma_eve, cfg.alpha * cfg.sigma_eve / two_ph)
    elif cfg.strategy == "fake_wm_strategy2":
        signal = np.where(
            basis == 0,
            cfg.alpha_z * cfg.p_basis * bit_sign,
            cfg.alpha_x * cfg.p_basis * two_ph * t * bit_sign,
        )
        std = np.where(basis == 0, cfg.alpha_z * cfg.sigma_eve, cfg.alpha_x * cfg.sigma_eve)
    else:
        raise ValueError(f"not a fake-WM strategy: {cfg.strategy!r}")
    return cfg.g_eve * (0.5 + signal * INV_2ROOT2), std


def sample_strategy_fakes(s_a, basis_flags, h_flags, attack: AttackConfig,
                          g: float, sigma_md: float, rng) -> np.ndarray:
    """Draw the pointer readings Eve's agent delivers under strategies 1/2.

    Each reading follows its cell's law from `strategy_fake_cell_laws`
    (noiseless source, physical pointer units).  s_a / basis_flags / h_flags
    are Alice's bit, basis (0=Z), and Bob's observable choice (0 = H+).
    """
    mean, std = _fake_cell_table(attack, g, sigma_md)
    cell = (np.asarray(s_a), np.asarray(basis_flags), np.asarray(h_flags))
    return mean[cell] + std[cell] * rng.normal(0.0, 1.0, cell[0].shape)


def strategy_fake_cell_laws(attack: AttackConfig, g: float, sigma_md: float):
    """Exact (mean, variance) of the delivered reading per (bit, basis, observable) cell.

    Returns arrays shaped (2, 2, 2) indexed [s_a, basis, h]; used by the
    analytic sweep mode and as the Monte Carlo oracle.
    """
    mean, std = _fake_cell_table(attack, g, sigma_md)
    return mean, std**2


# ---------------------------------------------------------------------------
# biased observables
# ---------------------------------------------------------------------------

def observable_biases(h_flags, attack: AttackConfig):
    """(intended, swapped) bias per observable flag; Eve means to bias H+ (h = 0) by phi, H- by phi'."""
    return (np.where(h_flags == 0, attack.phi, attack.phi_prime),
            np.where(h_flags == 0, attack.phi_prime, attack.phi))


def biased_estimates(r_x_plus: float, r_z_0: float, phi: float) -> tuple[float, float]:
    """Error estimates under a uniform bias phi of both observables.

    delta_X~ = 1/2 - (r_x^+/2)(cos phi + sin phi)
    delta_Z~ = 1/2 - (r_z^0/2)(cos phi - sin phi)

    Negative outputs are legal: they are the verification tripwire.
    """
    if not -math.pi < phi < math.pi:
        raise ValueError(f"|phi| must be < pi, got {phi}")
    dx = 0.5 - 0.5 * r_x_plus * (math.cos(phi) + math.sin(phi))
    dz = 0.5 - 0.5 * r_z_0 * (math.cos(phi) - math.sin(phi))
    return dx, dz


def biased_estimates_selective(r_params: dict, phi: float, phi_prime: float,
                               p_h: float) -> tuple[float, float]:
    """Error estimates when Eve biases H+ by phi and H- by phi' per her guess.

    With probability p_h Bob's intended observable receives its designated
    bias; otherwise the two biases are swapped.  Unital-channel form
    (delta from r~ via delta = (1 - r~)/2).
    """
    s = lambda a: math.sin(math.pi / 4 + a)
    c = lambda a: math.cos(math.pi / 4 + a)
    two_ph = 2.0 * p_h - 1.0
    half_rt2 = math.sqrt(2.0) / 2.0
    r_x_t = half_rt2 * (
        r_params["r_x_plus"] * (s(phi) + s(phi_prime))
        + r_params["r_z_plus"] * two_ph * (c(phi) - c(phi_prime))
    )
    r_z_t = half_rt2 * (
        r_params["r_x_0"] * two_ph * (s(phi) - s(phi_prime))
        + r_params["r_z_0"] * (c(phi) + c(phi_prime))
    )
    return 0.5 * (1.0 - r_x_t), 0.5 * (1.0 - r_z_t)


def optimal_bias_angles(r_x_plus: float, r_z_plus: float, r_x_0: float, r_z_0: float,
                        p_h: float) -> tuple[float, float]:
    """Eve's bias angles minimizing the estimated QBER under partial p_H knowledge.

    tan(phi)  = [r_x^+ - r_z^+(2pH-1) - r_z^0 + r_x^0(2pH-1)] /
                [r_x^+ + r_z^+(2pH-1) + r_z^0 + r_x^0(2pH-1)]
    tan(phi') = [r_x^+ + r_z^+(2pH-1) - r_z^0 - r_x^0(2pH-1)] /
                [r_x^+ - r_z^+(2pH-1) + r_z^0 - r_x^0(2pH-1)]

    Solved through atan2 so the minimizing branch is selected.  A fully
    depolarized channel has no preferred bias and returns (0, 0).
    """
    two_ph = 2.0 * p_h - 1.0
    # delta_b~ = 1/2 - [A sin(pi/4+phi) + B cos(pi/4+phi)
    #                   + A' sin(pi/4+phi') + B' cos(pi/4+phi')] * sqrt(2)/8 ...
    # each angle maximizes its own sinusoid at pi/4 + phi = atan2(A, B)
    a = r_x_plus + r_x_0 * two_ph
    b = r_z_0 + r_z_plus * two_ph
    a_p = r_x_plus - r_x_0 * two_ph
    b_p = r_z_0 - r_z_plus * two_ph
    tol = 1e-12  # a sinusoid of smaller amplitude prefers no angle
    if a * a + b * b < tol**2 or a_p * a_p + b_p * b_p < tol**2:
        return 0.0, 0.0
    phi = math.atan2(a, b) - math.pi / 4
    phi_prime = math.atan2(a_p, b_p) - math.pi / 4
    return phi, phi_prime
