"""The paper's closed forms that only the tests use, with their own checks.

Each formula states a prediction of the paper that a test compares the
simulator against; nothing in the program calls them.
"""

import pytest

from wmqkd.adversary import strategy2_qber_lower_bound


def strategy1_variance_ratio(p_h: float) -> float:
    """Predicted X/Z conditioned pointer-variance ratio 1/(2 p_H - 1)^2."""
    return 1.0 / (2.0 * p_h - 1.0) ** 2


def strategy2_sigma_ratio_crossover(p_product: float, delta_sec: float) -> float:
    """sigma_sec/sigma_md at which the Strategy-2 bound meets delta_sec."""
    return (1.0 - 2.0 * delta_sec) / p_product


class TestStrategyFormulas:
    def test_strategy1_variance_ratio(self):
        assert strategy1_variance_ratio(0.9) == pytest.approx(1.5625)
        assert strategy1_variance_ratio(1.0) == 1.0

    def test_strategy2_crossover(self):
        # at p_basis p_H = 0.35 and delta_sec = 0.11, sigma_sec/sigma_md = 0.78/0.35
        ratio = strategy2_sigma_ratio_crossover(0.35, 0.11)
        assert ratio == pytest.approx(2.2285714285714286, abs=1e-12)
        assert strategy2_qber_lower_bound(0.7, 0.5, ratio) == pytest.approx(0.11, abs=1e-12)
