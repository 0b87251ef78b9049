"""End-to-end protocol runner, analytic sweeps, and figure datasets.

One run executes: intensity counts -> click counts (loss and detection with
dark counts) -> source bits/bases -> channel -> attack -> one weak measurement
per signal (observable chosen uniformly) -> strong Z measurement -> sifting ->
the estimation subroutine -> key-rate evaluation.  A window clicks by its
intensity class alone and windows are exchangeable, so each 2^16-signal block
draws counts first (its per-class sent counts, then each class's photon-click,
dark-click and no-click counts) and the later stages run on the clicked
windows only; a run that keeps the full log runs its no-click windows up to
the weak measurement as a second window set.  Everything is deterministic given
the master seed: every random stage draws from its own Philox stream keyed by
(master_seed, stage tag), one counter range per (block, window set), at the
block's count.  All counts come first, so each record is written once, at
its place in a log sized from them.  A task takes a group of consecutive
blocks expecting about _GROUP_WINDOWS clicks through every stage as one set;
single blocks run on a thread pool of two, so a run's memory is the kept
records plus two tasks' temporaries.  No value depends on the worker count
or the grouping.

The analytic mode bypasses sampling: conditioned cell statistics are computed
in closed form (for an honest device the reading in any cell is the two-branch
mixture with marginal branch probability E = mean expectation value, hence
mean g E and variance sigma^2 + g^2 E(1-E) regardless of angle noise, biasing
or ensemble mixing, because the branch probability is linear in the state).
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cache, partial

import numpy as np

from . import adversary as adv
from .bloch import ChannelModel, bb84_bloch, binary_entropy, projector_axis
from .estimation import (
    CELLS,
    NO_CLICK,
    EstimationReport,
    EstimationThresholds,
    _COLUMN_DTYPES,
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

@cache
def _stage_tag(stage: str) -> int:
    """A 64-bit digest of the stage name."""
    return int.from_bytes(hashlib.blake2b(stage.encode(), digest_size=8).digest(), "little")


class _StreamKey(np.random.bit_generator.ISeedSequence):
    """A Philox key handed over as it is, so building a stream draws no OS entropy."""

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def stage_block_generator(master_seed: int, stage: str, block: int, part: int = 0) -> np.random.Generator:
    """Philox stream for one (stage, block, window set); each owns a disjoint counter range.

    The key is (master_seed, stage tag) as exact 64-bit words: a seed outside
    [0, 2^64) raises.  A block's clicked windows are part 0 and its no-click
    windows part 1, so keeping the no-click windows moves no clicked value.
    """
    key = _StreamKey(np.array([master_seed, _stage_tag(stage)], dtype=np.uint64))
    return np.random.Generator(np.random.Philox(key, counter=[0, part, block, 0]))


def _random_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    """n fair bits (uint8 0/1), 64 from each raw Philox word."""
    words = rng.bit_generator.random_raw(-(-n // 64))
    return np.unpackbits(words.view(np.uint8), count=n, bitorder="little")


class _BlockStreams:
    """One stage's draws for windows of consecutive blocks, called like a Generator.

    Each draw joins the blocks' own streams drawn at their counts (the size a
    caller passes is their sum), so how blocks are grouped moves no value.
    """

    def __init__(self, master_seed: int, stage: str, part: int, blocks, counts):
        # a block with nothing to draw builds no stream, unless no block has anything
        kept = [(block, int(count)) for block, count in zip(blocks, counts) if count] or [(blocks[0], 0)]
        self._streams = [(stage_block_generator(master_seed, stage, block, part), count) for block, count in kept]

    def _draw(self, method, *args):
        draws = [method(rng, *args, count) for rng, count in self._streams]
        return draws[0] if len(draws) == 1 else np.concatenate(draws)

    def bits(self, size):
        return self._draw(_random_bits)

    def random(self, size):
        return self._draw(np.random.Generator.random)

    def normal(self, loc, scale, size):
        return self._draw(np.random.Generator.normal, loc, scale)


# expected clicked windows per task: per-block overhead dominates a lossy block's ~1300
_GROUP_WINDOWS = 8192
_WORKERS = 2  # tasks in flight at once: numpy's generators and large ufuncs drop the GIL


def _map_blocks(task, groups: list[range]) -> list:
    """[task(group) for group in groups], in order.

    Single blocks run on a pool of _WORKERS threads when that many CPUs are usable; else,
    and for groups of several blocks (numpy calls too short for two threads to overlap),
    the calling thread runs them.  A group that raises leaves the later ones unstarted.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if len(groups[0]) > 1 or min(_WORKERS, cpus) < 2:
        return list(map(task, groups))  # no helper thread, and no second malloc arena to hold its peak
    with ThreadPoolExecutor(min(_WORKERS, cpus)) as pool:
        return list(pool.map(task, groups))


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
        # the seed is one 64-bit word of every stream's Philox key
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must be in [0, 2^64), got {self.master_seed}")
        if len(self.intensity_probs) != 3 or any(not p >= 0 for p in self.intensity_probs):
            raise ValueError("intensity_probs must be three nonnegative numbers")
        if not abs(sum(self.intensity_probs) - 1.0) <= 1e-9:
            raise ValueError(f"intensity_probs must sum to 1, got {self.intensity_probs}")
        # one boundary for every float knob: NaN or inf must not reach a run
        for section, sub in vars(self).items():
            for key, value in vars(sub).items() if is_dataclass(sub) else ():
                if isinstance(value, float) and not math.isfinite(value):
                    raise ValueError(f"{section}.{key} must be finite, got {value}")

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
    undetected_attack: bool
    timings: dict
    log: SignalLog | None = None

    def items(self) -> list:
        """The run's table: the report's (key, value) pairs, then the run.* ones."""
        run = ("sifted_key_length", "ground_truth_sifted_error", "key_rate", "undetected_attack")
        return [*self.report.items(), *((f"run.{name}", getattr(self, name)) for name in run)]


# ---------------------------------------------------------------------------
# the protocol
# ---------------------------------------------------------------------------

STAGES = ("source", "channel", "attack", "detection", "measurement", "estimation", "rates")
_FAKED = ("fake_wm_strategy1", "fake_wm_strategy2")
_ON_CHANNEL = ("intercept_resend", *_FAKED)  # the strategies whose Eve measures the signals


def _stopwatch(timings: dict):
    """lap(stage) adds the time since the previous lap (or since this call) to timings[stage]."""
    tick = time.perf_counter()

    def lap(stage):
        nonlocal tick
        now = time.perf_counter()
        timings[stage] += now - tick
        tick = now

    return lap


def _simulate_windows(cfg: ProtocolConfig, blocks, part: int, windows, dark, out, lap):
    """Source, channel, attack and Bob's measurements on one set of windows of consecutive blocks.

    The set holds windows[i, c] windows of intensity class c from blocks[i],
    grouped by block, then class; the last dark[i, c] of each are dark clicks.
    Part 0 is the clicked windows and part 1 the no-click ones.  Writes the
    set's records into `out`, its slices of the log's six columns, and returns
    its sift tallies (sifted length, errors, Eve's agreements).
    """
    attack = cfg.attack
    dark_at = np.flatnonzero(np.repeat([False, True] * windows.size, np.stack([windows - dark, dark], -1).ravel()))
    stream = partial(_BlockStreams, cfg.master_seed, part=part, blocks=blocks, counts=windows.sum(axis=1))
    intensity = np.repeat(np.tile(np.arange(3, dtype=np.uint8), len(blocks)), windows.ravel())
    n = len(intensity)
    s_a, b = stream("alice_bits").bits(n), stream("alice_basis").bits(n)
    state = 2 * b + s_a
    lap("source")

    # the channel acts on the four BB84 states |0>, |1>, |+>, |->, and each window takes its state's image
    r = [image.take(state) for image in cfg.channel.apply_array(*bb84_bloch(np.arange(4) % 2, np.arange(4) // 2))]
    lap("channel")

    eve_bits = None
    if attack.strategy in _ON_CHANNEL:
        r, eve_bits = adv.intercept_resend_array(
            *r, b, attack.p_basis, stream("eve_channel"), force_z=attack.strategy == "fake_wm_strategy1")
    lap("attack")

    # Bob: one weak measurement per signal, of H(h) rotated by Eve's bias, then a strong Z
    h = stream("bob_observable").bits(n)
    angle = math.pi / 4
    if attack.strategy == "biased_observables":
        guess_right = stream("eve_observable_guess").random(n) < attack.p_h
        angle = angle + np.where(guess_right, *adv.observable_biases(h, attack))
    omega, (_, post_z) = measure_array(*r, 1.0 - 2.0 * h, angle, cfg.pointer, stream("bob_wm"))
    s_b = (np.full(n, NO_CLICK, dtype=np.int8) if part  # a no-click window has no strong outcome
           else (stream("bob_strong").random(n) < 0.5 * (1.0 - post_z)).view(np.int8))
    if len(dark_at):
        # dark windows carry a photonless pointer record centered at 0 and a coin-flip bit
        omega[dark_at] = stream("dark_pointer", counts=dark.sum(1)).normal(0.0, cfg.pointer.sigma_md, len(dark_at))
        s_b[dark_at] = stream("dark_bit", counts=dark.sum(1)).bits(len(dark_at))
    if attack.strategy in _FAKED:
        # Eve's agent overwrites the device output for every detection window
        omega = adv.sample_strategy_fakes(
            s_a, b, h, attack, cfg.pointer.g, cfg.pointer.sigma_md, stream("eve_fakes"))
    for column, values in zip(out, (s_a, b, h, omega, s_b, intensity)):
        column[:] = values
    lap("measurement")

    # ground truth from the oracle's side of the fence
    sift = (b == 0) & (s_b != NO_CLICK)
    tallies = (int(np.count_nonzero(sift)), int(np.count_nonzero(sift & (s_a != s_b))),
               int(np.count_nonzero(sift & (eve_bits == s_b))) if eve_bits is not None else 0)
    lap("rates")
    return tallies


def _simulate_log(cfg: ProtocolConfig, timings: dict, clicked, dark, unclicked=None, per_task: int = 1):
    """Run each block's clicked windows (clicked[block, c] of class c, the last dark[block, c]
    of them dark), then its no-click ones if unclicked counts them, into one log sized from
    the counts; tasks of per_task blocks each write their own slices.  Adds the tasks' stage
    times to timings; returns the log and the summed sift tallies."""
    start = np.concatenate([[0], np.cumsum(clicked.sum(1) + (0 if unclicked is None else unclicked.sum(1)))])
    columns = [np.empty(start[-1], dtype) for dtype in _COLUMN_DTYPES.values()]

    def run_group(group):
        """The group's sift tallies and stage timings."""
        group_timings = dict.fromkeys(STAGES, 0.0)
        lap = _stopwatch(group_timings)
        rows, lo, hi = slice(group.start, group.stop), start[group.start], start[group.stop]
        mid = lo + clicked[rows].sum()
        tallies = _simulate_windows(cfg, group, 0, clicked[rows], dark[rows], [c[lo:mid] for c in columns], lap)
        if unclicked is not None:  # no-click windows sift nothing
            _simulate_windows(cfg, group, 1, unclicked[rows], 0 * unclicked[rows],
                              [c[mid:hi] for c in columns], lap)
        return tallies, group_timings

    groups = [range(lo, min(lo + per_task, len(clicked))) for lo in range(0, len(clicked), per_task)]
    tallies, group_timings = zip(*_map_blocks(run_group, groups))
    timings.update({stage: timings[stage] + sum(t[stage] for t in group_timings) for stage in STAGES})
    return SignalLog(*columns), tuple(map(sum, zip(*tallies)))


def run_protocol(cfg: ProtocolConfig, keep_log: bool = False) -> RunResult:
    """Execute the protocol once; deterministic in cfg.master_seed.

    Each BLOCK_SIZE block first draws its per-class sent counts and then each
    class's photon-click, dark-click and no-click counts: a window clicks by
    its intensity class alone, and windows are exchangeable.  All counts come
    first, so the log is allocated once from them and each task writes its
    records into its own slices.  The later stages run on the clicked windows
    only, every stream drawn at their number.  With keep_log each block's
    no-click windows run through the same stages up to the weak measurement
    as a set of their own, on streams of their own, so the clicked records and
    the report do not change.  A block's records come out grouped: its clicked
    windows by class (signal, decoy, vacuum), photon clicks before dark
    clicks, then with keep_log its no-click windows by class.  The block stays
    the stream unit, but a task runs the clicked windows of consecutive blocks
    expecting about _GROUP_WINDOWS clicks as one set (of one block when
    keep_log measures every window).  Single blocks run two at a time on a
    thread pool (`_map_blocks`), so the stage timings can exceed the wall time.
    """
    # intensity only gates detection since multi-photon pulses are accounted
    # analytically by the decoy bounds; a window clicks by a photon, else by a
    # dark count, else not at (class, outcome) probabilities:
    p_photon = -np.expm1(-cfg.system.eta * np.array([cfg.decoy.mu, cfg.decoy.nu, 0.0]))
    p_dark = np.minimum(cfg.system.y0, 1.0 - p_photon)
    outcome_probs = np.column_stack([p_photon, p_dark, np.maximum(1.0 - p_photon - p_dark, 0.0)])
    expected_clicks = BLOCK_SIZE * float(np.dot(cfg.intensity_probs, p_photon + p_dark))
    per_task = 1 if keep_log else max(1, int(_GROUP_WINDOWS // max(expected_clicks, 1.0)))

    timings = dict.fromkeys(STAGES, 0.0)
    lap = _stopwatch(timings)
    sizes = np.diff(np.r_[0:cfg.n_signals:BLOCK_SIZE, cfg.n_signals])  # each block's signals
    sent = np.array([stage_block_generator(cfg.master_seed, "intensity", block).multinomial(
        size, cfg.intensity_probs) for block, size in enumerate(sizes)])
    lap("source")
    photon, dark, unclicked = np.array([stage_block_generator(cfg.master_seed, "detection", block).multinomial(
        block_sent, outcome_probs) for block, block_sent in enumerate(sent)]).transpose(2, 0, 1)
    lap("detection")
    log, (key_len, errors, eve_agreements) = _simulate_log(
        cfg, timings, photon + dark, dark, unclicked if keep_log else None, per_task)
    lap = _stopwatch(timings)
    report = build_report(log, cfg.resolved_thresholds(), sent=sent.sum(axis=0))
    lap("estimation")

    eve_on_channel = cfg.attack.strategy in _ON_CHANNEL
    gt_error = errors / key_len if key_len else 0.0
    eve_known = eve_agreements / key_len if eve_on_channel and key_len else None
    abort = report.abort
    key_rate = 0.0
    if not abort:
        key_rate = _estimated_key_rate(report, cfg)
    undetected = (cfg.attack.strategy != "none") and not abort and (eve_known or 0.0) > 0.99
    lap("rates")

    return RunResult(
        report=report, abort=abort, qber=report.qber,
        sifted_key_length=key_len, ground_truth_sifted_error=gt_error,
        eve_sifted_knowledge=eve_known, key_rate=key_rate,
        undetected_attack=undetected, timings=timings,
        log=log if keep_log else None,
    )


def _estimated_key_rate(report: EstimationReport, cfg: ProtocolConfig) -> float:
    """Decoy rate evaluated on the run's estimated gains and error rates."""
    q_mu, q_nu, q_vac = report.gains
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
    estimation statistics from the detection model.  The signals are
    run_protocol's clicked windows, block for block, for a block whose every
    window is a signal-class photon click.
    """
    cfg = ProtocolConfig(n_signals=n, master_seed=master_seed, pointer=pointer, channel=channel)
    clicked = np.diff(np.r_[0:n:BLOCK_SIZE, n])[:, None] * [1, 0, 0]  # each block's signals, all of class 0
    return _simulate_log(cfg, dict.fromkeys(STAGES, 0.0), clicked, 0 * clicked)[0]


# ---------------------------------------------------------------------------
# analytic (exact-expectation) mode
# ---------------------------------------------------------------------------

_CELL_STATES = bb84_bloch(CELLS[0], CELLS[1])  # Alice's Bloch (x, z) per cell
_FAMILY_SIGN = np.where(CELLS[2] == 0, 1.0, -1.0)  # the sign of H(h) per cell


def _honest_cell_expectations(cfg: ProtocolConfig) -> np.ndarray:
    """Marginal shifted-branch probability E per (bit, basis, observable) cell."""
    attack = cfg.attack
    _, basis, h = CELLS
    r_x, r_z = cfg.channel.apply_array(*_CELL_STATES)
    if attack.strategy == "intercept_resend":
        r_x, r_z = adv.intercept_resend_mean_state(r_x, r_z, basis, attack.p_basis)
    if attack.strategy == "biased_observables":
        intended, swapped = adv.observable_biases(h, attack)
        biases = (attack.p_h, intended), (1.0 - attack.p_h, swapped)
    else:
        biases = ((1.0, 0.0),)
    damp = math.exp(-0.5 * cfg.pointer.sigma_phi**2)  # Gaussian angle noise damps exactly
    e = 0.0
    for weight, bias in biases:
        axis_x, axis_z = projector_axis(_FAMILY_SIGN, (math.pi / 4 + cfg.pointer.bias_phi) + bias)
        e = e + weight * 0.5 * (1.0 + damp * (axis_x * r_x + axis_z * r_z))
    return e


def exact_cell_statistics(cfg: ProtocolConfig):
    """Exact (mean, variance) of the conditioned readings under the configured attack."""
    g, sig = cfg.pointer.g, cfg.pointer.sigma_md
    if cfg.attack.strategy in _FAKED:  # these fill g_eve, sigma_eve themselves
        return adv.strategy_fake_cell_laws(cfg.attack, g, sig)
    e = _honest_cell_expectations(cfg)
    return g * e, pointer_variance(e, g, sig)


def analytic_report(cfg: ProtocolConfig) -> EstimationReport:
    """The estimation subroutine fed with exact expectations (no sampling)."""
    mean, var = exact_cell_statistics(cfg)
    gains = q_mu, q_nu, q_vac = honest_gains(cfg.system, cfg.decoy)
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
    """Return cfg with the dotted `axis` field replaced by `value`; an integer
    field takes an integral value only, and a tuple field is no axis."""
    if axis == "pointer.g_over_sigma":
        return replace(cfg, pointer=replace(cfg.pointer, g=value * cfg.pointer.sigma_md))
    *section, name = axis.split(".")
    owner = getattr(cfg, section[0], None) if section else cfg
    if len(section) > 1 or not is_dataclass(owner) or name not in {f.name for f in fields(owner)}:
        raise ValueError(f"unknown axis {axis!r} ({_AXIS_HELP})")
    current = getattr(owner, name)
    if isinstance(current, tuple):
        raise ValueError(f"axis {axis!r} holds a tuple and cannot be swept")
    if isinstance(current, int):
        if not float(value).is_integer():
            raise ValueError(f"axis {axis!r} takes integers, got {value}")
        value = int(value)
    swept = replace(owner, **{name: value})
    return replace(cfg, **{section[0]: swept}) if section else swept


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
        result = None if mode == "analytic" else run_protocol(cfg)
        report = analytic_report(cfg) if result is None else result.report
        row = {"axis": axis, "value": float(value), "delta_x": report.rates.delta_x,
               "delta_z": report.rates.delta_z, "delta_b": report.rates.delta_b,
               "qber": report.qber, "abort": report.abort}
        if result is None:
            delta_wm = wm_disturbance_error(cfg.pointer.g, cfg.pointer.sigma_md)
            row.update(rate_smoothed=smoothed_rate(report.qber),
                       rate_split=max(split_rate(clip_error(report.delta_x_corrected),
                                                 clip_error(report.delta_z_corrected)), 0.0),
                       rate_wm_decoy=wm_decoy_chain(cfg.system, cfg.decoy, delta_wm).rate,
                       rate_bb84_decoy=bb84_decoy_chain(cfg.system, cfg.decoy).rate)
        else:
            row.update(rate_smoothed=0.0 if report.abort else smoothed_rate(report.qber),
                       rate_split=float("nan"), rate_wm_decoy=result.key_rate, rate_bb84_decoy=float("nan"),
                       ground_truth_sifted_error=result.ground_truth_sifted_error)
        rows.append(row)
    return rows


def fig3_dataset():
    """Key-rate reduction vs coupling strength at several depolarizing levels.

    Rate is the idealized max(1 - 2 H2(QBER), 0) with QBER = channel error +
    delta_wm(g/sigma), for g/sigma = 0, 0.01, ..., 0.5 and channel errors 0,
    2, 5 and 8 %.
    """
    header = ["g_over_sigma", "channel_error", "rate"]
    rows = []
    for e in (0.0, 0.02, 0.05, 0.08):
        for gs in np.arange(0.0, 0.5 + 1e-12, 0.01):
            qber = e + wm_disturbance_error(gs, 1.0)
            rows.append([float(gs), float(e), smoothed_rate(qber)])
    return header, rows


def fig5_dataset():
    """Calculated rates vs uniform observable bias for depolarizing channels.

    Emits the split variant 1 - H2(dX~) - H2(dZ~) and the smoothed variant
    1 - 2 H2(db~) at QBER 8 and 11 % for phi = -0.5, -0.495, ..., 0.5; rows
    are limited to biases keeping both estimates nonnegative, as the protocol
    enforces.
    """
    header = ["qber", "phi", "rate_split", "rate_smoothed"]
    rows = []
    for qber in (0.08, 0.11):
        r = 1.0 - 2.0 * qber
        for phi in np.arange(-0.5, 0.5 + 1e-12, 0.005):
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


def fig6_dataset():
    """WM vs BB84 decoy rates over distance at the reference system parameters.

    The WM chain is at g/sigma = 0.05; distances are 0, 1, ..., 120 km.
    """
    decoy, delta_wm = DecoyConfig(), wm_disturbance_error(0.05, 1.0)
    header = ["distance_km", "rate_wm", "rate_bb84"]
    rows = []
    for d in np.arange(0.0, 121.0, 1.0):
        p = SystemParams(distance_km=float(d))
        rows.append([float(d), wm_decoy_chain(p, decoy, delta_wm).rate, bb84_decoy_chain(p, decoy).rate])
    return header, rows
