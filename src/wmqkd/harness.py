"""End-to-end protocol runner, analytic sweeps, and figure datasets.

One run executes: source bits/bases -> intensity draw -> channel -> attack ->
loss and detection (with dark counts) -> one weak measurement per signal
(observable chosen uniformly) -> strong Z measurement -> sifting -> the
estimation subroutine -> key-rate evaluation.  Everything is deterministic
given the master seed: every random stage draws from its own Philox stream
keyed by (master_seed, stage tag) and partitioned into fixed 2^16-signal
counter blocks.  A run walks those blocks in order and takes each one through
every stage before the next, so its memory is one block's temporaries plus
the clicked records; the estimation subroutine then sees exactly the records
a whole-array run would keep, in the same order.

The analytic mode bypasses sampling: conditioned cell statistics are computed
in closed form (for an honest device the reading in any cell is the two-branch
mixture with marginal branch probability E = mean expectation value, hence
mean g E and variance sigma^2 + g^2 E(1-E) regardless of angle noise, biasing
or ensemble mixing, because the branch probability is linear in the state).
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import adversary as adv
from .bloch import ChannelModel, bb84_bloch, binary_entropy, projector_axis
from .estimation import (
    INTENSITY_SIGNAL,
    NO_CLICK,
    EstimationReport,
    EstimationThresholds,
    SignalLog,
    build_report,
    dark_count_fraction,
    exact_stats,
    report_from_stats,
)
from .keyrate import (
    DecoyConfig,
    SystemParams,
    bb84_decoy_chain,
    clip_error,
    decoy_chain,
    honest_gains,
    smoothed_rate,
    split_rate,
    wm_decoy_chain,
)
from .pointer import PointerConfig, measure_array, pointer_variance, wm_disturbance_error

BLOCK_SIZE = 1 << 16


# ---------------------------------------------------------------------------
# deterministic stage streams
# ---------------------------------------------------------------------------

def _stage_tag(stage: str) -> int:
    return int.from_bytes(hashlib.blake2b(stage.encode(), digest_size=8).digest(), "little")


def stage_block_generator(master_seed: int, stage: str, block: int) -> np.random.Generator:
    """Philox stream for one (stage, block); blocks own disjoint counter ranges."""
    key = (master_seed & (2**64 - 1), _stage_tag(stage))
    bit_gen = np.random.Philox(key=key, counter=[0, 0, block, 0])
    return np.random.Generator(bit_gen)


def _block_plan(n: int):
    """Yield (block, size) covering range(n) in fixed BLOCK_SIZE blocks."""
    for block, lo in enumerate(range(0, n, BLOCK_SIZE)):
        yield block, min(BLOCK_SIZE, n - lo)


def _block_uniform(master_seed: int, stage: str, block: int, size: int) -> np.ndarray:
    return stage_block_generator(master_seed, stage, block).random(size)


def _block_bits(master_seed: int, stage: str, block: int, size: int) -> np.ndarray:
    return (_block_uniform(master_seed, stage, block, size) < 0.5).view(np.uint8)


def stage_uniform(master_seed: int, stage: str, n: int) -> np.ndarray:
    return np.concatenate([_block_uniform(master_seed, stage, block, size)
                           for block, size in _block_plan(n)])


# ---------------------------------------------------------------------------
# configuration and result records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProtocolConfig:
    """Everything one protocol run needs; immutable and hashable."""

    n_signals: int = 2_000_000
    master_seed: int = 20170109
    pointer: PointerConfig = field(default_factory=lambda: PointerConfig(g=0.05, sigma_md=1.0))
    channel: ChannelModel = field(default_factory=ChannelModel)
    attack: adv.AttackConfig = field(default_factory=adv.AttackConfig)
    system: SystemParams = field(default_factory=lambda: SystemParams(eta_d=1.0, distance_km=0.0))
    decoy: DecoyConfig = field(default_factory=DecoyConfig)
    intensity_probs: tuple = (0.7, 0.2, 0.1)
    thresholds: EstimationThresholds = field(default_factory=EstimationThresholds)

    def __post_init__(self):
        if self.n_signals < 1:
            raise ValueError("n_signals must be >= 1")
        if len(self.intensity_probs) != 3 or any(p < 0 for p in self.intensity_probs):
            raise ValueError("intensity_probs must be three nonnegative numbers")
        if abs(sum(self.intensity_probs) - 1.0) > 1e-9:
            raise ValueError(f"intensity_probs must sum to 1, got {self.intensity_probs}")

    def resolved_thresholds(self) -> EstimationThresholds:
        """Thresholds with g_sec / sigma_sec_sq left unset resolved against the pointer."""
        return self.thresholds.with_device_defaults(self.pointer.g, self.pointer.sigma_md)


@dataclass
class RunResult:
    """Outcome of one protocol run plus ground-truth oracle comparisons."""

    report: EstimationReport
    abort: bool
    qber: float
    sifted_key_length: int
    ground_truth_sifted_error: float
    eve_sifted_knowledge: float | None
    key_rate: float
    idealized_rate_smoothed: float
    undetected_attack: bool
    timings: dict
    log: SignalLog | None = None


# ---------------------------------------------------------------------------
# the protocol
# ---------------------------------------------------------------------------

def _alice_block(master_seed: int, block: int, size: int):
    """Alice's bits, basis flags and the Bloch components (x, y, z) of her BB84 states."""
    s_a = _block_bits(master_seed, "alice_bits", block, size)
    b = _block_bits(master_seed, "alice_basis", block, size)
    return s_a, b, bb84_bloch(s_a, b)


def _block_intensities(master_seed: int, block: int, size: int, probs) -> np.ndarray:
    """Intensity class per signal: how many cumulative class probabilities u passed.

    The class codes 0, 1, 2 (signal, decoy, vacuum) are the order of `probs`.
    """
    u = _block_uniform(master_seed, "intensity", block, size)
    edges = np.cumsum(probs)
    return np.add(u >= edges[0], u >= edges[1], dtype=np.uint8)


def _bob_block(master_seed: int, block: int, r: np.ndarray, h: np.ndarray,
               bias: np.ndarray, pointer: PointerConfig):
    """Weak measurement of H(h) rotated by `bias` on every signal of a block, then a strong Z.

    r holds the (size, 3) Bloch vectors.  Returns the pointer readings and
    Bob's strong-measurement bits.
    """
    sign = np.where(h == 0, 1.0, -1.0)
    omega, posterior = measure_array(r, sign, math.pi / 4 + bias, pointer,
                                     stage_block_generator(master_seed, "bob_wm", block))
    u_strong = _block_uniform(master_seed, "bob_strong", block, len(h))
    return omega, (u_strong < 0.5 * (1.0 - posterior[:, 2])).view(np.int8)


def _bob_bias_angles(h: np.ndarray, attack: adv.AttackConfig, master_seed: int, block: int) -> np.ndarray:
    """Adversarial rotation of the measured projector, selective per Eve's guess."""
    if attack.strategy != "biased_observables":
        return np.zeros(len(h))
    guess_right = _block_uniform(master_seed, "eve_observable_guess", block, len(h)) < attack.p_h
    return np.where(guess_right, *adv.observable_biases(h, attack))


STAGES = ("source", "channel", "attack", "detection", "measurement", "estimation", "rates")


def run_protocol(cfg: ProtocolConfig, keep_log: bool = False) -> RunResult:
    """Execute the protocol once; deterministic in cfg.master_seed.

    Every stage runs on one BLOCK_SIZE block at a time.  Only the per-class
    sent counts, the sifted-key tallies and the clicked records outlive a
    block (every record with keep_log); the estimation counts the clicks.
    """
    timings = dict.fromkeys(STAGES, 0.0)
    tick = time.perf_counter()

    def lap(stage):
        nonlocal tick
        now = time.perf_counter()
        timings[stage] += now - tick
        tick = now

    seed = cfg.master_seed
    thresholds = cfg.resolved_thresholds()
    attack = cfg.attack.with_device_defaults(cfg.pointer.g, cfg.pointer.sigma_md)
    eve_on_channel = attack.strategy in ("intercept_resend", "fake_wm_strategy1", "fake_wm_strategy2")
    faked = attack.strategy in ("fake_wm_strategy1", "fake_wm_strategy2")
    # intensity only gates detection since multi-photon pulses are accounted
    # analytically by the decoy bounds
    p_photon_by_class = -np.expm1(-cfg.system.eta * np.array([cfg.decoy.mu, cfg.decoy.nu, 0.0]))
    sent = np.zeros(3, dtype=np.int64)
    key_len = errors = eve_agreements = 0
    records = []
    for block, size in _block_plan(cfg.n_signals):
        s_a, b, r = _alice_block(seed, block, size)
        intensity = _block_intensities(seed, block, size, cfg.intensity_probs)
        lap("source")

        r = np.stack(cfg.channel.apply_array(*r), axis=-1)
        lap("channel")

        eve_bits = None
        if eve_on_channel:
            r, _, eve_bits = adv.intercept_resend_array(
                r, b, attack.p_basis, stage_block_generator(seed, "eve_channel", block),
                force_z=attack.strategy == "fake_wm_strategy1")
        lap("attack")

        p_photon = p_photon_by_class[intensity]
        u = _block_uniform(seed, "detection", block, size)
        photon_click = u < p_photon
        dark_click = (~photon_click) & (u < p_photon + cfg.system.y0)
        clicked = photon_click | dark_click
        lap("detection")

        # Bob: one weak measurement per signal, then a strong Z measurement
        h = _block_bits(seed, "bob_observable", block, size)
        omega, s_b = _bob_block(seed, block, r, h, _bob_bias_angles(h, attack, seed, block), cfg.pointer)
        if dark_click.any():
            # dark windows carry a photonless pointer record centered at 0 and
            # a coin-flip bit; a block without one needs neither stream
            dark_omega = stage_block_generator(seed, "dark_pointer", block).normal(
                0.0, cfg.pointer.sigma_md, size)
            omega = np.where(dark_click, dark_omega, omega)
            s_b = np.where(dark_click, _block_bits(seed, "dark_bit", block, size).view(np.int8), s_b)
        if faked:
            # Eve's agent overwrites the device output for every detection window
            omega = adv.sample_strategy_fakes(
                s_a, b, h, attack, cfg.pointer.g, cfg.pointer.sigma_md,
                stage_block_generator(seed, "eve_fakes", block))
        s_b = np.where(clicked, s_b, np.int8(NO_CLICK))
        lap("measurement")

        sent += np.bincount(intensity, minlength=3)
        kept = slice(None) if keep_log else np.flatnonzero(clicked)
        records.append([column[kept] for column in (s_a, b, h, omega, s_b, intensity)])
        lap("estimation")

        # ground truth from the oracle's side of the fence
        sift = clicked & (b == 0)
        key_len += int(np.count_nonzero(sift))
        errors += int(np.count_nonzero(sift & (s_a != s_b)))
        if eve_bits is not None:
            eve_agreements += int(np.count_nonzero(sift & (eve_bits == s_b)))
        lap("rates")

    log = SignalLog(*(np.concatenate(column) for column in zip(*records)))
    del records  # the log holds copies
    report = build_report(log, thresholds, sent=sent)
    lap("estimation")

    gt_error = errors / key_len if key_len else 0.0
    eve_known = eve_agreements / key_len if eve_on_channel and key_len else None
    abort = report.abort
    key_rate = 0.0
    if not abort:
        key_rate = _estimated_key_rate(report, cfg)
    ideal = smoothed_rate(report.qber)
    undetected = (attack.strategy != "none") and not abort and (eve_known or 0.0) > 0.99
    lap("rates")

    return RunResult(
        report=report, abort=abort, qber=report.qber,
        sifted_key_length=key_len, ground_truth_sifted_error=gt_error,
        eve_sifted_knowledge=eve_known, key_rate=key_rate,
        idealized_rate_smoothed=0.0 if abort else ideal,
        undetected_attack=undetected, timings=timings,
        log=log if keep_log else None,
    )


def _estimated_key_rate(report: EstimationReport, cfg: ProtocolConfig) -> float:
    """Decoy rate evaluated on the run's estimated gains and error rates."""
    gains = report.gains
    q_mu, q_nu, q_vac = gains.get("signal", 0.0), gains.get("decoy", 0.0), gains.get("vacuum", 0.0)
    if q_nu <= 0.0 or q_mu <= 0.0:
        # no decoy data: fall back to the idealized rate at the estimated QBER
        return smoothed_rate(report.qber)
    dz_mu = clip_error(report.delta_z_corrected + (1.0 - report.dark_fraction_signal) * report.delta_wm_estimate)
    dx_nu = report.delta_x_decoy_corrected
    if dx_nu is None:
        dx_nu = report.delta_x_corrected
    dx_nu = clip_error(dx_nu + (1.0 - report.dark_fraction_decoy) * report.delta_wm_estimate)
    return decoy_chain(q_mu, q_nu, q_vac, dz_mu, dx_nu, cfg.system, cfg.decoy).rate


def channel_estimation_log(channel: ChannelModel, pointer: PointerConfig,
                           n: int, master_seed: int) -> SignalLog:
    """Loss-free estimation bench: weak-measure n signals through a channel.

    Every signal clicks, all pulses are signal intensity; this isolates the
    estimation statistics from the detection model.  The source and Bob's
    measurement are run_protocol's, block for block.
    """
    columns = []
    for block, size in _block_plan(n):
        s_a, b, r = _alice_block(master_seed, block, size)
        h = _block_bits(master_seed, "bob_observable", block, size)
        r = np.stack(channel.apply_array(*r), axis=-1)
        omega, s_b = _bob_block(master_seed, block, r, h, np.zeros(size), pointer)
        columns.append((s_a, b, h, omega, s_b))
    s_a, b, h, omega, s_b = (np.concatenate(column) for column in zip(*columns))
    return SignalLog(s_a, b, h, omega, s_b, np.full(n, INTENSITY_SIGNAL, dtype=np.uint8))


# ---------------------------------------------------------------------------
# analytic (exact-expectation) mode
# ---------------------------------------------------------------------------

_CELLS = np.indices((2, 2, 2))  # (s_a, basis, h) of every conditioning cell


def _honest_cell_expectations(cfg: ProtocolConfig, attack: adv.AttackConfig) -> np.ndarray:
    """Marginal shifted-branch probability E per (bit, basis, observable) cell."""
    s_a, basis, h = _CELLS
    r_x, _, r_z = cfg.channel.apply_array(*bb84_bloch(s_a, basis))
    if attack.strategy == "intercept_resend":
        r_x, r_z = adv.intercept_resend_mean_state(r_x, r_z, basis, attack.p_basis)
    if attack.strategy == "biased_observables":
        intended, swapped = adv.observable_biases(h, attack)
        biases = (attack.p_h, intended), (1.0 - attack.p_h, swapped)
    else:
        biases = ((1.0, 0.0),)
    damp = math.exp(-0.5 * cfg.pointer.sigma_phi**2)  # Gaussian angle noise damps exactly
    sign = np.where(h == 0, 1.0, -1.0)
    e = 0.0
    for weight, bias in biases:
        axis_x, axis_z = projector_axis(sign, (math.pi / 4 + cfg.pointer.bias_phi) + bias)
        e = e + weight * 0.5 * (1.0 + damp * (axis_x * r_x + axis_z * r_z))
    return e


def exact_cell_statistics(cfg: ProtocolConfig):
    """Exact (mean, variance) of the conditioned readings under the configured attack."""
    attack = cfg.attack.with_device_defaults(cfg.pointer.g, cfg.pointer.sigma_md)
    g, sig = cfg.pointer.g, cfg.pointer.sigma_md
    if attack.strategy in ("fake_wm_strategy1", "fake_wm_strategy2"):
        return adv.strategy_fake_cell_laws(attack, g, sig)
    e = _honest_cell_expectations(cfg, attack)
    return g * e, pointer_variance(e, g, sig)


def analytic_report(cfg: ProtocolConfig) -> EstimationReport:
    """The estimation subroutine fed with exact expectations (no sampling)."""
    mean, var = exact_cell_statistics(cfg)
    q_mu, q_nu, q_vac = honest_gains(cfg.system, cfg.decoy)
    gains = {"signal": q_mu, "decoy": q_nu, "vacuum": q_vac}
    d_mu = dark_count_fraction(q_mu, q_vac)
    d_nu = dark_count_fraction(q_nu, q_vac)
    stats = exact_stats((1.0 - d_mu) * mean, var)
    stats_nu = exact_stats((1.0 - d_nu) * mean, var)
    return report_from_stats(stats, cfg.resolved_thresholds(), gains, stats_decoy=stats_nu)


# ---------------------------------------------------------------------------
# sweeps and figure datasets
# ---------------------------------------------------------------------------

_AXIS_HELP = "dotted config path, e.g. pointer.g_over_sigma, channel.depolarizing_prob, attack.phi"


def set_config_axis(cfg: ProtocolConfig, axis: str, value) -> ProtocolConfig:
    """Return cfg with the dotted `axis` field replaced by `value`."""
    parts = axis.split(".")
    if axis == "pointer.g_over_sigma":
        return replace(cfg, pointer=replace(cfg.pointer, g=value * cfg.pointer.sigma_md))
    if len(parts) == 1:
        if not hasattr(cfg, parts[0]):
            raise ValueError(f"unknown axis {axis!r} ({_AXIS_HELP})")
        return replace(cfg, **{parts[0]: value})
    if len(parts) == 2:
        section, fieldname = parts
        if not hasattr(cfg, section):
            raise ValueError(f"unknown axis {axis!r} ({_AXIS_HELP})")
        sub = getattr(cfg, section)
        if not hasattr(sub, fieldname):
            raise ValueError(f"unknown axis {axis!r} ({_AXIS_HELP})")
        return replace(cfg, **{section: replace(sub, **{fieldname: value})})
    raise ValueError(f"unknown axis {axis!r} ({_AXIS_HELP})")


def sweep(base: ProtocolConfig, axis: str, values, mode: str = "analytic") -> list[dict]:
    """One row per axis value; analytic mode uses exact expectations.

    An attack knob that the configured strategy does not read is rejected:
    its rows would all be equal.
    """
    if mode not in ("analytic", "monte_carlo"):
        raise ValueError(f"mode must be 'analytic' or 'monte_carlo', got {mode!r}")
    section, _, knob = axis.partition(".")
    if (section == "attack" and knob != "strategy" and hasattr(base.attack, knob)
            and knob not in adv.STRATEGY_FIELDS[base.attack.strategy]):
        raise ValueError(f"axis {axis!r} has no effect: attack.strategy = "
                         f"{base.attack.strategy!r} does not read {knob!r}")
    rows = []
    for value in values:
        cfg = set_config_axis(base, axis, value)
        row = {"axis": axis, "value": float(value)}
        if mode == "analytic":
            report = analytic_report(cfg)
            row.update(
                delta_x=report.rates.delta_x, delta_z=report.rates.delta_z,
                delta_b=report.rates.delta_b, qber=report.qber,
                abort=report.abort,
                rate_smoothed=smoothed_rate(report.qber),
                rate_split=max(split_rate(clip_error(report.delta_x_corrected),
                                          clip_error(report.delta_z_corrected)), 0.0),
            )
            delta_wm = wm_disturbance_error(cfg.pointer.g, cfg.pointer.sigma_md)
            row["rate_wm_decoy"] = wm_decoy_chain(cfg.system, cfg.decoy, delta_wm).rate
            row["rate_bb84_decoy"] = bb84_decoy_chain(cfg.system, cfg.decoy).rate
        else:
            result = run_protocol(cfg)
            row.update(
                delta_x=result.report.rates.delta_x, delta_z=result.report.rates.delta_z,
                delta_b=result.report.rates.delta_b, qber=result.qber,
                abort=result.abort, rate_smoothed=result.idealized_rate_smoothed,
                rate_split=float("nan"), rate_wm_decoy=result.key_rate,
                rate_bb84_decoy=float("nan"),
                ground_truth_sifted_error=result.ground_truth_sifted_error,
            )
        rows.append(row)
    return rows


def fig3_dataset(g_over_sigma=None, channel_errors=(0.0, 0.02, 0.05, 0.08)):
    """Key-rate reduction vs coupling strength at several depolarizing levels.

    Rate is the idealized max(1 - 2 H2(QBER), 0) with QBER = channel error +
    delta_wm(g/sigma).
    """
    if g_over_sigma is None:
        g_over_sigma = np.arange(0.0, 0.5 + 1e-12, 0.01)
    header = ["g_over_sigma", "channel_error", "rate"]
    rows = []
    for e in channel_errors:
        for gs in g_over_sigma:
            qber = e + wm_disturbance_error(gs, 1.0)
            rows.append([float(gs), float(e), smoothed_rate(qber)])
    return header, rows


def fig5_dataset(phis=None, qbers=(0.08, 0.11)):
    """Calculated rates vs uniform observable bias for depolarizing channels.

    Emits the split variant 1 - H2(dX~) - H2(dZ~) and the smoothed variant
    1 - 2 H2(db~); rows are limited to biases keeping both estimates
    nonnegative, as the protocol enforces.
    """
    if phis is None:
        phis = np.arange(-0.5, 0.5 + 1e-12, 0.005)
    header = ["qber", "phi", "rate_split", "rate_smoothed"]
    rows = []
    for qber in qbers:
        r = 1.0 - 2.0 * qber
        for phi in phis:
            dx, dz = adv.biased_estimates(r, r, float(phi))
            if dx < 0.0 or dz < 0.0:
                continue
            db = 0.5 * (dx + dz)
            rows.append([
                float(qber), float(phi),
                split_rate(min(dx, 0.5), min(dz, 0.5)),
                1.0 - 2.0 * binary_entropy(min(db, 0.5)),
            ])
    return header, rows


def fig6_dataset(distances=None, params: SystemParams | None = None,
                 cfg: DecoyConfig | None = None, g_over_sigma: float = 0.05):
    """WM vs BB84 decoy rates over distance at the reference system parameters."""
    if distances is None:
        distances = np.arange(0.0, 121.0, 1.0)
    if params is None:
        params = SystemParams()
    if cfg is None:
        cfg = DecoyConfig()
    delta_wm = wm_disturbance_error(g_over_sigma, 1.0)
    header = ["distance_km", "rate_wm", "rate_bb84"]
    rows = []
    for d in distances:
        p = replace(params, distance_km=float(d))
        rows.append([float(d), wm_decoy_chain(p, cfg, delta_wm).rate,
                     bb84_decoy_chain(p, cfg).rate])
    return header, rows


def write_csv(path, header, rows) -> None:
    """Locale-independent CSV: fixed column order, full double precision."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(v) for v in row) + "\n")


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def rows_to_csv(path, rows: list[dict]) -> None:
    """Write sweep dict-rows with a stable column order."""
    if not rows:
        raise ValueError("no rows to write")
    header = list(rows[0].keys())
    write_csv(path, header, [[row[k] for k in header] for row in rows])
