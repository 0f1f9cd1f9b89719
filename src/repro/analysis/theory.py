"""Closed-form theory predictions (Section 3.2, 3.3, Appendix B).

These are the quantities the benchmarks plot the measured values against:

* Lemma 3.6:  ``sqrt(D k / 3n) < NQ_k <= min(D, sqrt(k))``.
* Lemma 3.7:  ``NQ_{alpha k} <= 6 sqrt(alpha) NQ_k``.
* Theorem 15: on paths and cycles ``NQ_k = Theta(min(sqrt k, D))``.
* Theorem 16: on d-dimensional grids ``NQ_k = Theta(min(k^{1/(d+1)}, D))``.
* Theorem 17: ball growth ``|B_r(v)| = Omega(r^d)`` implies
  ``NQ_k = O(min(D, k^{1/(d+1)}))``.
"""

from __future__ import annotations

import math
from typing import Optional

__all__ = ["TheoryPredictions"]


class TheoryPredictions:
    """Static closed-form predictions used by tests and benchmark tables."""

    # ------------------------------------------------------------------
    # Lemma 3.6 bounds, valid on every graph.
    # ------------------------------------------------------------------
    @staticmethod
    def nq_upper_bound(k: float, diameter: int) -> float:
        """``NQ_k <= min(D, sqrt(k))`` (Lemma 3.6)."""
        return min(float(diameter), math.sqrt(max(k, 0.0)))

    @staticmethod
    def nq_lower_bound(k: float, diameter: int, n: int) -> float:
        """``NQ_k > sqrt(D k / 3 n)`` (Lemma 3.6)."""
        if n <= 0:
            raise ValueError("n must be positive")
        return math.sqrt(diameter * max(k, 0.0) / (3.0 * n))

    @staticmethod
    def nq_growth_bound(nq_k: float, alpha: float) -> float:
        """``NQ_{alpha k} <= 6 sqrt(alpha) NQ_k`` for alpha >= 1 (Lemma 3.7)."""
        if alpha < 1:
            raise ValueError("alpha must be at least 1")
        return 6.0 * math.sqrt(alpha) * nq_k

    # ------------------------------------------------------------------
    # Special families (Theorems 15 - 17).
    # ------------------------------------------------------------------
    @staticmethod
    def nq_path_or_cycle(k: float, diameter: int) -> float:
        """Theorem 15: ``NQ_k = Theta(min(sqrt k, D))`` on paths and cycles."""
        return min(math.sqrt(max(k, 0.0)), float(diameter))

    @staticmethod
    def nq_grid(k: float, dim: int, diameter: int) -> float:
        """Theorem 16: ``NQ_k = Theta(min(k^{1/(d+1)}, D))`` on d-dim grids."""
        if dim < 1:
            raise ValueError("dim must be positive")
        return min(max(k, 0.0) ** (1.0 / (dim + 1)), float(diameter))

    # ------------------------------------------------------------------
    # Figure 1 axes: exponents.
    # ------------------------------------------------------------------
    @staticmethod
    def fig1_expected_exponent_const_approx(beta: float) -> float:
        """Figure 1: for k = n^beta sources, Theorem 14 gives rounds n^{beta/2}
        for constant-stretch k-SSP (delta = beta / 2)."""
        return beta / 2.0

    @staticmethod
    def fig1_expected_exponent_exact_prior(beta: float) -> float:
        """Figure 1: prior exact k-SSP [CHLP21a]: delta = max(1/3, beta/2)."""
        return max(1.0 / 3.0, beta / 2.0)

    @staticmethod
    def ratio_is_within_polylog(
        measured: float, predicted: float, n: int, *, polylog_power: int = 3, slack: float = 8.0
    ) -> bool:
        """Whether measured/predicted lies within ``slack * log^power n`` both ways.

        This is the operational meaning of the paper's eO()/eOmega() statements
        on finite instances, used by the property tests.
        """
        if predicted <= 0 or measured <= 0:
            return measured == predicted
        log_n = max(2.0, math.log2(max(n, 2)))
        allowance = slack * (log_n**polylog_power)
        ratio = measured / predicted
        return (1.0 / allowance) <= ratio <= allowance
