"""wmqkd benchmark: one workload, one process, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload honest_lossless --seed 1 --seconds 15 --trace 0

The package is imported from ./src.  Set-up (import, inputs, one warm-up call)
is timed in this process and in SETUP_PROBES fresh processes started one after
another once the measurement is over; `setup_s` is their median.  The
measurement repeats the workload's cycle until --seconds have passed.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 spends
half the time untraced and half with spans installed (see spans.py), and
prints the per-layer metrics; `trace.overhead_ms_p1` is the traced minus the
untraced op_ms_p1, and the untraced half also gives the op latency median
and 99th percentile.  The last stdout line is always the JSON result.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 3
MIN_CYCLES = 2
STAGES = ("source", "channel", "attack", "detection", "measurement", "estimation", "rates")
SELF_TIMED = (
    "pointer.measure_array", "adversary.intercept_resend_array", "bloch.ChannelModel.apply_array",
    "harness.analytic_report", "harness.exact_cell_statistics",
    "estimation.build_report", "estimation.condition_and_average",
    "estimation.delta_standard_errors", "estimation.wm_verification",
    "estimation.report_from_stats", "estimation.write_signal_log", "estimation.read_signal_log",
    "keyrate.wm_decoy_chain", "keyrate.bb84_decoy_chain", "cli.main", "config.parse_config_text",
)
CALL_COUNTED = (
    "pointer.measure_array", "adversary.intercept_resend_array", "bloch.binary_entropy",
    "keyrate.wm_decoy_chain", "keyrate.bb84_decoy_chain",
)
BOUNDARY_COUNTS = (
    "pointer.measure_array.signals", "estimation.write_signal_log.records",
    "estimation.write_signal_log.bytes", "estimation.read_signal_log.records",
    "estimation.clicks.signal", "estimation.clicks.decoy", "estimation.clicks.vacuum",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("honest_lossless", "intercept_lossy", "analytic_sweep", "log_roundtrip"))
    parser.add_argument("--seed", type=int, default=20170109, help="master_seed of the inputs")
    parser.add_argument("--seconds", type=float, default=10.0, help="measurement time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up, print it as JSON and exit (used for the set-up probes)")
    return parser.parse_args(argv)


def set_up(args, tmp):
    """Import, build the inputs and warm up; returns the workload and its set-up times."""
    if not os.path.isfile(os.path.join(SRC, "wmqkd", "__init__.py")):
        raise SystemExit(f"perfbench: no wmqkd package under {SRC}; run from the repository root")
    sys.path.insert(0, SRC)
    import workloads  # numpy, scipy and every wmqkd module

    if not workloads.harness.__file__.startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: wmqkd was imported from {workloads.harness.__file__}, not {SRC}")
    imported = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.make_inputs(tmp)
    made = time.perf_counter()
    workload.warm_up()
    ready = time.perf_counter()
    return workload, workloads, {"setup_s": ready - START, "import_s": imported - START,
                                 "inputs_s": made - imported, "warmup_s": ready - made}


def measure(workload, seconds, rec):
    deadline = time.perf_counter() + seconds
    while rec.cycles < MIN_CYCLES or time.perf_counter() < deadline:
        workload.cycle(rec)
        rec.cycles += 1


def probe_setup(args):
    """Median-able set-up samples from fresh processes, run one at a time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q):
    """Linear-interpolated q-th percentile of a non-empty list."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(workload, rec, setup_samples):
    p1_ms = {kind: percentile(rec.latency_ms(kind), 1.0) for kind in workload.cycle_ops}
    cycle_s = sum(n * p1_ms[kind] for kind, n in workload.cycle_ops.items()) / 1e3
    return {
        "setup_s": statistics.median(setup_samples),
        "work_per_s": workload.work_per_cycle / cycle_s,
        "op_ms_p1": p1_ms[workload.latency_kind],
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(workloads, workload, setup, tracer, plain, traced, timings,
              rss_growth_mb, tracemalloc_mb, changes):
    cycles = traced.cycles
    m = {"setup.import_s": setup["import_s"], "setup.inputs_s": setup["inputs_s"]}
    for stage in STAGES:
        m[f"harness.stage.{stage}_s"] = statistics.fmean(t[stage] for t in timings) if timings else 0.0
    runs = traced.latency.get("run_protocol", [])
    m["harness.stage_share"] = (sum(m[f"harness.stage.{s}_s"] for s in STAGES) / statistics.fmean(runs)
                                if runs and timings else 0.0)
    signals_in = tracer.counts["estimation.signals_in"]
    m["harness.clicked_fraction"] = tracer.counts["estimation.clicks_in"] / signals_in if signals_in else 0.0
    m["harness.philox_streams"] = tracer.calls["harness.stage_block_generator"] / cycles
    mc_signals = tracer.counts["pointer.measure_array.signals"] / cycles
    m["harness.bytes_per_signal"] = rss_growth_mb * 2**20 / mc_signals if mc_signals else 0.0
    m["harness.tracemalloc_peak_mb"] = tracemalloc_mb
    for span in SELF_TIMED:
        m[f"{span}.self_s"] = tracer.self_s[span] / cycles
    for span in CALL_COUNTED:
        m[f"{span}.calls"] = tracer.calls[span] / cycles
    for name in BOUNDARY_COUNTS:
        m[name] = tracer.counts[name] / cycles
    m["estimation.errors"] = tracer.estimation_errors / cycles
    m["harness.sifted_key_length"] = workload.counts.get("harness.sifted_key_length", 0)
    for name in workloads.CELL_NAMES:
        m[f"estimation.cell_count.{name}"] = workload.counts.get(f"estimation.cell_count.{name}", 0)
    plain_lat, traced_lat = (r.latency_ms(workload.latency_kind) for r in (plain, traced))
    m["trace.overhead_ms_p1"] = (percentile(traced_lat, 1.0) - percentile(plain_lat, 1.0)
                                  if plain_lat and traced_lat else 0.0)
    m["workload.ops"] = len(plain_lat)
    m["workload.op_ms_p50"] = statistics.median(plain_lat) if plain_lat else 0.0
    m["workload.op_ms_p99"] = percentile(plain_lat, 99.0) if plain_lat else 0.0
    m["workload.count_changes"] = len(changes)
    return m


def traced_run(args, workloads, workload, setup):
    """Half the time untraced, half traced, then one cycle under tracemalloc."""
    import spans

    plain = workloads.Recorder()
    rss_before_mb = peak_rss_mb()
    measure(workload, args.seconds / 2, plain)
    workload.stage_timings = []
    tracer = spans.Tracer()
    traced = workloads.Recorder()
    tracer.install()
    try:
        measure(workload, args.seconds / 2, traced)
    finally:
        tracer.uninstall()
    timings = list(workload.stage_timings)
    rss_growth_mb = peak_rss_mb() - rss_before_mb
    memory = workloads.Recorder()
    tracemalloc.start()
    try:
        workload.cycle(memory)
        tracemalloc_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    rec = workloads.Recorder()
    for part in (plain, traced, memory):
        rec.merge(part)
    for intensity in ("signal", "decoy", "vacuum"):
        name = f"estimation.clicks.{intensity}"
        workload.counts[name] = tracer.counts[name] / traced.cycles
    changes = count_changes(args, workload.counts)
    return rec, per_layer(workloads, workload, setup, tracer, plain, traced, timings,
                          rss_growth_mb, tracemalloc_mb, changes)


def count_changes(args, counts):
    """Compare physics counts with the ones recorded for this seed, if any."""
    with open(os.path.join(HERE, "physics_counts.json")) as fh:
        recorded = json.load(fh).get(str(args.seed), {}).get(args.workload, {})
    changes = [f"{name}: recorded {recorded[name]}, now {value}"
               for name, value in sorted(counts.items())
               if name in recorded and recorded[name] != value]
    for change in changes:
        print(f"workload change: {change}", file=sys.stderr)
    return changes


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    tmp = os.path.join(ROOT, ".perfbench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        workload, workloads, setup = set_up(args, tmp)
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        units = declared_metrics(args.trace)
        if args.trace:
            rec, metrics = traced_run(args, workloads, workload, setup)
        else:
            rec = workloads.Recorder()
            measure(workload, args.seconds, rec)
            count_changes(args, workload.counts)
            metrics = end_to_end(workload, rec, [setup["setup_s"]] + probe_setup(args))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(tmp))

    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
                         "do not match BENCHMARK.json")
    print(f"{args.workload} seed {args.seed}: {rec.attempted} ops attempted, {rec.failed} failed"
          + "".join(f", {key} x{n}" for key, n in sorted(rec.failures.items())))
    print(f"physics counts: {json.dumps(workload.counts, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if not args.trace:
        print(f"(work_per_s counts {workload.work_unit}; op_ms_p1 times one {workload.latency_kind})")
    print(json.dumps({
        "correct": rec.wrong == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
