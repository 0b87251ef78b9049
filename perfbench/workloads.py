"""The four benchmark workloads: pinned configurations, set-up, one cycle, output checks.

Each workload builds its inputs from the seed (used as ``master_seed``), runs a
cheap warm-up call during set-up, then repeats one *cycle* of public wmqkd calls:

- ``honest_lossless``: one ``run_protocol`` at n = 2e6 with library defaults;
- ``intercept_lossy``: the same with intercept-resend (p_basis = 0.5) on the
  lossy reference system (eta_d = 0.145, 20 km);
- ``analytic_sweep``: one analytic ``sweep`` call per point of three axes,
  then one regeneration of the fig3/fig5/fig6 datasets;
- ``log_roundtrip``: ``write_signal_log`` and ``read_signal_log`` on eighths
  of a 5e5-signal log, then the CLI ``verify`` on the whole log.

Every call is an op.  An op fails when it raises or when its output check
fails; a failure is counted and the benchmark carries on.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import sys
import time
from collections import Counter
from dataclasses import replace

import numpy as np

from wmqkd import cli, estimation, harness
from wmqkd.adversary import AttackConfig
from wmqkd.bloch import binary_entropy
from wmqkd.keyrate import SystemParams
from wmqkd.pointer import wm_disturbance_error

MASTER_SEED = 20170109
MC_SIGNALS = 2_000_000
LOG_SIGNALS = 500_000
LOG_PIECES = 8
CHECK_Z = 5.0

SWEEP_AXES = (
    # (axis, first value, step, number of points); g/sigma = 0 is the README's
    # own start point and raises today: it stays in as a failing op
    ("pointer.g_over_sigma", 0.0, 0.001, 501),
    ("channel.depolarizing_prob", 0.0, 0.001, 301),
    ("system.distance_km", 0.0, 1.0, 151),
)

CELL_NAMES = [f"b{i}_{'ZX'[j]}_H{'pm'[k]}" for i, j, k in np.ndindex(2, 2, 2)]


class Recorder:
    """Counts attempted and failed ops and keeps each op's latency by kind.

    Failed ops keep their time to the raise or the failed check apart, so a
    run whose ops all fail (intercept_lossy raises EstimationError on a few
    seeds) still measures the work done.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.latency = {}
        self.failed_latency = {}
        self.cycles = 0
        self.failures = Counter()

    def op(self, kind, fn, *args, check=None):
        """Time fn(*args); return its result, or None if it raised or failed `check`."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failing op is counted, never fatal
            self.failed_latency.setdefault(kind, []).append(time.perf_counter() - start)
            self._fail(kind, type(exc).__name__, str(exc))
            return None
        elapsed = time.perf_counter() - start
        problem = check(result) if check is not None else None
        if problem:
            self.failed_latency.setdefault(kind, []).append(elapsed)
            self.wrong += 1
            self._fail(kind, "check", problem)
            return None
        self.latency.setdefault(kind, []).append(elapsed)
        return result

    def latency_ms(self, kind):
        """Latencies of the ops of `kind` that succeeded, or of all if none did."""
        return [1e3 * s for s in self.latency.get(kind) or self.failed_latency.get(kind, [])]

    def _fail(self, kind, what, detail):
        self.failed += 1
        key = f"{kind}:{what}"
        if not self.failures[key]:
            print(f"op failed: {key}: {detail}", file=sys.stderr)
        self.failures[key] += 1

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.failures.update(other.failures)


class MonteCarlo:
    """One full Monte Carlo protocol run per cycle; the work unit is a signal."""

    work_unit = "signals"
    latency_kind = "run_protocol"
    cycle_ops = {"run_protocol": 1}

    def __init__(self, seed, **overrides):
        self.cfg = harness.ProtocolConfig(n_signals=MC_SIGNALS, master_seed=seed, **overrides)
        self.work_per_cycle = MC_SIGNALS
        self.stage_timings = []
        self.counts = {}
        self.first = None

    def make_inputs(self, tmp):
        self.expected_qber = harness.analytic_report(self.cfg).qber

    def warm_up(self):
        # one block of the lossless system at the default seed, which estimates
        # fine; on other seeds a block's cells can be too thin for the coupling
        harness.run_protocol(replace(self.cfg, n_signals=harness.BLOCK_SIZE, master_seed=MASTER_SEED,
                                     system=harness.ProtocolConfig().system))

    def cycle(self, rec):
        result = rec.op("run_protocol", harness.run_protocol, self.cfg, check=self.check)
        if result is not None:
            self.stage_timings.append(dict(result.timings))

    def check(self, result):
        report = result.report
        if abs(result.qber - self.expected_qber) > CHECK_Z * report.delta_b_se:
            return (f"qber {result.qber} is more than {CHECK_Z} se ({report.delta_b_se}) "
                    f"from the analytic {self.expected_qber}")
        key = (report.to_text(), result.sifted_key_length, result.ground_truth_sifted_error)
        if self.first is None:
            self.first = key
            self.counts = physics_counts(report, result.sifted_key_length)
        elif key != self.first:
            return "a same-seed run gave a different report"
        return None


class InterceptLossy(MonteCarlo):
    """Intercept-resend on the lossy reference system; ground truth is checked too."""

    P_BASIS = 0.5

    def __init__(self, seed):
        super().__init__(seed, attack=AttackConfig(strategy="intercept_resend", p_basis=self.P_BASIS),
                         system=SystemParams())

    def check(self, result):
        expected = 0.5 * (1.0 - self.P_BASIS)
        n = result.sifted_key_length
        se = math.sqrt(expected * (1.0 - expected) / n) if n else math.inf
        if not abs(result.ground_truth_sifted_error - expected) <= CHECK_Z * se:
            return (f"sifted error {result.ground_truth_sifted_error} is more than "
                    f"{CHECK_Z} binomial se ({se}) from {expected}")
        return super().check(result)


class AnalyticSweep:
    """Every sweep point is an op, then one figures op; no sampling runs here."""

    work_unit = "sweep points"
    latency_kind = "sweep_point"

    def __init__(self, seed):
        self.base = harness.ProtocolConfig(master_seed=seed)
        self.stage_timings = []
        self.counts = {}

    def make_inputs(self, tmp):
        self.points = [(axis, round(start + i * step, 10))
                       for axis, start, step, count in SWEEP_AXES for i in range(count)]
        self.work_per_cycle = len(self.points)
        self.cycle_ops = {"sweep_point": len(self.points), "figures": 1}

    def warm_up(self):
        for axis, start, step, count in SWEEP_AXES:
            harness.sweep(self.base, axis, [start + (count // 2) * step], mode="analytic")
        self.figures()

    def point(self, axis, value):
        return harness.sweep(self.base, axis, [value], mode="analytic")

    @staticmethod
    def figures():
        return harness.fig3_dataset(), harness.fig5_dataset(), harness.fig6_dataset()

    def cycle(self, rec):
        for axis, value in self.points:
            check = self.check_depolarizing if axis == "channel.depolarizing_prob" else None
            rec.op("sweep_point", self.point, axis, value, check=check)
        rec.op("figures", self.figures, check=self.check_figures)

    @staticmethod
    def check_depolarizing(rows):
        row = rows[0]
        if abs(row["delta_b"] - 0.5 * row["value"]) > 1e-9:
            return f"delta_b {row['delta_b']} != p/2 at p = {row['value']}"
        return None

    @staticmethod
    def check_figures(figures):
        (_, fig3_rows), _, _ = figures
        for g_over_sigma, error, rate in fig3_rows:
            expected = max(1.0 - 2.0 * binary_entropy(error + wm_disturbance_error(g_over_sigma, 1.0)), 0.0)
            if abs(rate - expected) > 1e-12:
                return f"fig3 rate {rate} != {expected} at g/sigma = {g_over_sigma}, e = {error}"
        return None


class LogRoundtrip:
    """Write and read back the log in pieces, then CLI-verify the whole log; the work unit is a record.

    The log goes through write + read in LOG_PIECES pieces so that each timed
    op is short; `verify` runs on the whole log, written once at set-up,
    because a piece leaves the conditioning cells too thin to estimate the
    coupling reliably.
    """

    work_unit = "records"
    latency_kind = "roundtrip"
    cycle_ops = {"roundtrip": LOG_PIECES, "verify": 1}
    work_per_cycle = LOG_SIGNALS

    def __init__(self, seed):
        self.cfg = harness.ProtocolConfig(n_signals=LOG_SIGNALS, master_seed=seed)
        self.stage_timings = []
        self.sizes = {}

    def make_inputs(self, tmp):
        result = harness.run_protocol(self.cfg, keep_log=True)
        log = result.log
        report = estimation.build_report(log, self.cfg.resolved_thresholds())
        self.expected_text = report.to_text()
        self.counts = physics_counts(report, result.sifted_key_length)
        size = LOG_SIGNALS // LOG_PIECES
        self.pieces = [log.subset(slice(i * size, (i + 1) * size)) for i in range(LOG_PIECES)]
        self.piece_path = os.path.join(tmp, "piece.csv")
        self.path = os.path.join(tmp, "signal_log.csv")
        self.out_dir = os.path.join(tmp, "verify")
        estimation.write_signal_log(self.path, log)

    def warm_up(self):
        self.roundtrip(self.pieces[0])
        self.verify()

    def roundtrip(self, piece):
        estimation.write_signal_log(self.piece_path, piece)
        return os.path.getsize(self.piece_path), estimation.read_signal_log(self.piece_path)

    def verify(self):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--out", self.out_dir, "verify", self.path])
        with open(os.path.join(self.out_dir, "verify_report.txt")) as fh:
            return code, fh.read()

    def cycle(self, rec):
        for index, piece in enumerate(self.pieces):
            rec.op("roundtrip", self.roundtrip, piece,
                   check=lambda outcome: self.check_roundtrip(index, piece, outcome))
        rec.op("verify", self.verify, check=self.check_verify)

    def check_roundtrip(self, index, piece, outcome):
        size, back = outcome
        if self.sizes.setdefault(index, size) != size:
            return f"piece {index} was written with a different size"
        if len(self.sizes) == LOG_PIECES:
            self.counts["estimation.write_signal_log.records"] = LOG_SIGNALS
            self.counts["estimation.write_signal_log.bytes"] = sum(self.sizes.values())
        for name in ("s_a", "b", "h", "omega", "s_b", "intensity"):
            if not np.array_equal(getattr(back, name), getattr(piece, name)):
                return f"read-back column {name} of piece {index} differs from the written one"
        return None

    def check_verify(self, outcome):
        code, text = outcome
        if code not in (cli.EXIT_OK, cli.EXIT_ABORT):
            return f"verify exited {code}"
        if text != self.expected_text:
            return "verify report differs from build_report(log).to_text()"
        return None


def physics_counts(report, sifted_key_length):
    """Counts that repeat exactly for a fixed seed; a change is a workload change."""
    counts = {"harness.sifted_key_length": sifted_key_length}
    for name, count in zip(CELL_NAMES, report.cell_count.reshape(8)):
        counts[f"estimation.cell_count.{name}"] = int(count)
    return counts


WORKLOADS = {
    "honest_lossless": MonteCarlo,
    "intercept_lossy": InterceptLossy,
    "analytic_sweep": AnalyticSweep,
    "log_roundtrip": LogRoundtrip,
}
