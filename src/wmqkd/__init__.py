"""wmqkd: weak-measurement QKD simulator and analytic key-rate toolkit."""

from .adversary import (
    AttackConfig,
    biased_estimates,
    optimal_bias_angles,
    strategy1_predicted_qber,
    strategy2_qber_lower_bound,
)
from .bloch import ChannelModel, bb84_bloch, binary_entropy, projector_axis
from .estimation import (
    EstimationReport,
    EstimationThresholds,
    SignalLog,
    build_report,
    compute_qber,
    condition_and_average,
    corrected_error_rate,
    dark_count_fraction,
    estimate_couplings,
    estimate_error_rates,
    wm_verification,
)
from .harness import ProtocolConfig, RunResult, run_protocol, sweep
from .keyrate import (
    DecoyConfig,
    SystemParams,
    decoy_chain,
    q1_lower,
    smoothed_rate,
    split_rate,
    transmittance,
)
from .pointer import PointerConfig, wm_disturbance_error

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
