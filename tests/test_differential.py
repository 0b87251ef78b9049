"""Monte Carlo vs analytic: the two implementations of the physics agree within standard errors.

Each draw runs `run_protocol` on a random valid config and compares it with the
closed forms the analytic mode uses:

- each intensity class's click count with n · p_class · Q_class, in binomial
  standard errors;
- each signal-class cell's sample mean and variance with
  `exact_cell_statistics`, the mean deflated by the dark fraction (1 − d) as
  `analytic_report` deflates it;
- `qber` with `analytic_report(cfg).qber`, in units of the run's own
  `delta_b_se`.

Every check allows K standard errors.  A draw makes 20 checks (3 click counts,
8 cell means, 8 cell variances, 1 qber) and the search makes DRAWS draws, so
with K = 5 (two-sided normal tail 5.7e-7) Bonferroni bounds the chance that a
correct implementation fails anywhere in the search by 20 · 40 · 5.7e-7 < 5e-4.

The draws keep g/sigma in [0.25, 0.5] and the weakest cells at about 6000
readings (n = 2^20), so that the estimator's coupling denominators are known
to about 10 % and its ratio bias stays far below one standard error.  The
analytic variance leaves out the mixture of dark and photon windows (ROADMAP
item 5); at y0 <= 0.05 that drift is under g^2 d (1 - d) <= g^2/4, about two
standard errors of the weakest cell's variance at most.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from wmqkd.adversary import STRATEGIES, AttackConfig
from wmqkd.bloch import ChannelModel
from wmqkd.estimation import INTENSITY_NAMES, dark_count_fraction
from wmqkd.harness import ProtocolConfig, analytic_report, exact_cell_statistics, run_protocol
from wmqkd.keyrate import SystemParams, honest_gains
from wmqkd.pointer import PointerConfig

K = 5.0
DRAWS = 40
N = 1 << 20
FAKES = ("fake_wm_strategy1", "fake_wm_strategy2")
SYSTEMS = {
    "lossless": ProtocolConfig().system,
    # the reference detector without the fibre: 6.7 % of signal pulses click
    "detector_limited": SystemParams(distance_km=0.0),
}


def differential_failures(cfg):
    """The checks of one run against the analytic mode, as a list of failure messages."""
    result = run_protocol(cfg, keep_log=True)
    log, report = result.log, result.report
    failures = []

    def check(name, got, want, se):
        if not abs(got - want) <= K * se:
            failures.append(f"{name}: {got} vs {want} (se {se})")

    gains = honest_gains(cfg.system, cfg.decoy)
    for code, name in INTENSITY_NAMES.items():
        p = cfg.intensity_probs[code] * gains[code]
        clicks = int(np.count_nonzero(log.clicked & (log.intensity == code)))
        check(f"clicks.{name}", clicks, N * p, math.sqrt(N * p * (1.0 - p)))

    mean, var = exact_cell_statistics(cfg)
    mean = (1.0 - dark_count_fraction(gains[0], gains[2])) * mean
    count = report.cell_count
    for cell in np.ndindex(2, 2, 2):
        check(f"cell_mean{cell}", report.cell_mean[cell], mean[cell], math.sqrt(var[cell] / count[cell]))
        check(f"cell_var{cell}", report.cell_var[cell], var[cell],
              var[cell] * math.sqrt(2.0 / (count[cell] - 1.0)))

    check("qber", report.qber, analytic_report(cfg).qber, report.delta_b_se)
    return failures


@st.composite
def differential_configs(draw):
    """Every strategy, depolarizing and rotating channels, dark counts, pointer noise and bias."""
    strategy = draw(st.sampled_from(STRATEGIES))
    # runs overwrite the dark windows with Eve's fakes too, but the analytic
    # mode deflates the fake laws by (1 - d): that drift is pinned apart, in
    # test_fake_dark_windows_drift, and fakes are drawn without dark counts
    y0 = 0.0 if strategy in FAKES else draw(st.sampled_from([0.0, 0.05]) | st.floats(1e-4, 0.05))
    attack = AttackConfig(strategy=strategy, p_basis=draw(st.floats(0.5, 1.0)),
                          p_h=draw(st.floats(0.75, 1.0)),
                          alpha=draw(st.floats(0.5, 1.5)), alpha_x=draw(st.floats(0.5, 1.5)),
                          alpha_z=draw(st.floats(0.5, 1.5)), phi=draw(st.floats(-0.3, 0.3)),
                          phi_prime=draw(st.floats(-0.3, 0.3)))
    return ProtocolConfig(
        n_signals=N,
        master_seed=draw(st.integers(0, 2**32)),
        pointer=PointerConfig(g=draw(st.floats(0.25, 0.5)), sigma_md=1.0,
                              sigma_phi=draw(st.just(0.0) | st.floats(0.0, 0.3)),
                              bias_phi=draw(st.just(0.0) | st.floats(-0.2, 0.2))),
        channel=ChannelModel(depolarizing_prob=draw(st.floats(0.0, 0.2)),
                             rotation_theta=draw(st.floats(-0.5, 0.5))),
        attack=attack,
        system=replace(SYSTEMS[draw(st.sampled_from(sorted(SYSTEMS)))], y0=y0))


@seed(20170109)
@settings(max_examples=DRAWS, derandomize=True, deadline=None, database=None)
@given(differential_configs())
def test_monte_carlo_matches_analytic(cfg):
    assert differential_failures(cfg) == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: runs overwrite dark windows with Eve's fakes, "
                                       "but analytic_report deflates the fake cell laws by (1 - d)")
@pytest.mark.parametrize("strategy", FAKES)
def test_fake_dark_windows_drift(strategy):
    attack = AttackConfig(strategy=strategy, p_basis=0.9, p_h=0.9, alpha=1.0, alpha_x=1.0, alpha_z=1.0)
    cfg = ProtocolConfig(n_signals=N, master_seed=7, pointer=PointerConfig(g=0.5, sigma_md=1.0),
                         attack=attack, system=replace(SYSTEMS["detector_limited"], y0=0.05))
    assert differential_failures(cfg) == []
