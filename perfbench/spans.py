"""Per-layer spans recorded from the benchmark's side of each layer boundary.

`Tracer.install()` replaces each traced public function of wmqkd at the place
its caller looks the name up at call time (``harness`` imports
``measure_array``, ``build_report`` and the decoy chains by name, so those are
patched in ``harness``; ``intercept_resend_array`` is reached through the
``adversary`` module, and so on).  Every site of one function shares one
wrapper, so a call is counted once whichever caller made it.  Nothing under
``src/`` is modified; `uninstall()` puts the originals back.

A span's self time is its duration minus the time of the spans it encloses.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

import numpy as np

from wmqkd import adversary, bloch, cli, estimation, harness, keyrate

# span name -> (object, attribute) pairs where callers look the function up
SITES = {
    "pointer.measure_array": [(harness, "measure_array")],
    "adversary.intercept_resend_array": [(adversary, "intercept_resend_array")],
    "bloch.ChannelModel.apply_array": [(bloch.ChannelModel, "apply_array")],
    "bloch.binary_entropy": [(harness, "binary_entropy"), (keyrate, "binary_entropy")],
    "harness.stage_block_generator": [(harness, "stage_block_generator")],
    "harness.analytic_report": [(harness, "analytic_report")],
    "harness.exact_cell_statistics": [(harness, "exact_cell_statistics")],
    "estimation.build_report": [(harness, "build_report"), (cli, "build_report")],
    "estimation.condition_and_average": [(estimation, "condition_and_average")],
    "estimation.delta_standard_errors": [(estimation, "delta_standard_errors")],
    "estimation.wm_verification": [(estimation, "wm_verification")],
    "estimation.report_from_stats": [(estimation, "report_from_stats"),
                                     (harness, "report_from_stats")],
    "estimation.write_signal_log": [(estimation, "write_signal_log")],
    "estimation.read_signal_log": [(estimation, "read_signal_log"), (cli, "read_signal_log")],
    "keyrate.wm_decoy_chain": [(harness, "wm_decoy_chain")],
    "keyrate.bb84_decoy_chain": [(harness, "bb84_decoy_chain")],
    "cli.main": [(cli, "main")],
    "config.parse_config_text": [(cli, "parse_config_text")],
}


def _count_measured(tracer, args, result):
    tracer.counts["pointer.measure_array.signals"] += len(args[0])


def _count_log_entering_estimation(tracer, args, result):
    log = args[0]
    clicked = log.clicked
    tracer.counts["estimation.signals_in"] += len(log)
    tracer.counts["estimation.clicks_in"] += int(clicked.sum())
    for code, name in estimation.INTENSITY_NAMES.items():
        tracer.counts[f"estimation.clicks.{name}"] += int(np.count_nonzero(clicked & (log.intensity == code)))


def _count_written(tracer, args, result):
    path, log = args[0], args[1]
    tracer.counts["estimation.write_signal_log.records"] += len(log)
    tracer.counts["estimation.write_signal_log.bytes"] += os.path.getsize(path)


def _count_read(tracer, args, result):
    tracer.counts["estimation.read_signal_log.records"] += len(result)


AFTER_CALL = {
    "pointer.measure_array": _count_measured,
    "estimation.build_report": _count_log_entering_estimation,
    "estimation.write_signal_log": _count_written,
    "estimation.read_signal_log": _count_read,
}


class Tracer:
    """Self time and call counts per span, plus counts taken at the boundaries."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.estimation_errors = 0
        self._open = []          # child time accumulated by each open span
        self._saved = []

    def _wrap(self, name, fn):
        after = AFTER_CALL.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except estimation.EstimationError as exc:
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    self.estimation_errors += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[name] += elapsed - self._open.pop()
                self.calls[name] += 1
                if self._open:
                    self._open[-1] += elapsed
            if after is not None:
                after(self, args, result)
            return result

        return span

    def install(self):
        for name, sites in SITES.items():
            owner, attr = sites[0]
            span = self._wrap(name, owner.__dict__[attr])
            for owner, attr in sites:
                self._saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, span)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
