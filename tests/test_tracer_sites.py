"""The benchmark tracer (perfbench/spans.py) can patch every name it lists.

The tracer replaces public functions at the place their callers look them up.
A rename or deletion under src/ that drops one of those names fails here
rather than only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

from wmqkd.harness import ProtocolConfig, analytic_report, run_protocol

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def site_values(spans):
    return {(owner, attr): owner.__dict__.get(attr)
            for sites in spans.SITES.values() for owner, attr in sites}


def test_every_site_is_an_attribute_of_its_owner():
    spans = load_spans()
    missing = [f"{span}: {getattr(owner, '__name__', owner)}.{attr}"
               for span, sites in spans.SITES.items()
               for owner, attr in sites if attr not in owner.__dict__]
    assert not missing


def test_install_then_uninstall_restores_every_original():
    spans = load_spans()
    originals = site_values(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = site_values(spans)
    finally:
        tracer.uninstall()
    assert all(patched[site] is not originals[site] for site in originals)
    restored = site_values(spans)
    assert all(restored[site] is originals[site] for site in originals)


def test_measured_signal_count_is_the_kept_signal_count():
    # the tracer counts len(args[0]) of each measure_array call as signals, so
    # the first argument must stay one entry per measured signal: a run measures
    # the clicked windows only, or every window when it keeps the full log
    spans = load_spans()
    n = 3 * (1 << 16) + 123
    for keep_log in (False, True):
        tracer = spans.Tracer()
        tracer.install()
        try:
            run_protocol(ProtocolConfig(n_signals=n, master_seed=5), keep_log=keep_log)
        finally:
            tracer.uninstall()
        clicks = tracer.counts["estimation.clicks_in"]
        assert 0 < clicks < n
        expected = n if keep_log else clicks
        assert tracer.counts["pointer.measure_array.signals"] == expected, keep_log


def test_analytic_report_calls_each_estimation_span_once():
    # inlining one of these functions into its caller would silently zero its span
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        analytic_report(ProtocolConfig())
    finally:
        tracer.uninstall()
    for name in ("report_from_stats", "delta_standard_errors", "wm_verification"):
        assert tracer.calls[f"estimation.{name}"] == 1, name
