"""Analytic round bounds of the prior (existentially optimal) algorithms.

The paper's Tables 1-4 and Figure 1 compare round complexities as functions of
``n``, ``k``, ``l`` and ``D``.  The prior-work rows of those tables are
asymptotic bounds, not runnable systems; this module turns each of them into a
concrete formula (polylog factors instantiated as ``ceil(log2 n)`` powers) so
the benchmark tables can print "new algorithm (measured) vs. prior bound
(analytic)" side by side — exactly the comparison the paper makes.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.simulator.config import log2_ceil

__all__ = ["ExistentialBounds"]


class ExistentialBounds:
    """Round bounds of prior HYBRID-model algorithms (Tables 1-4, Figure 1)."""

    # ------------------------------------------------------------------
    # Table 1: information dissemination
    # ------------------------------------------------------------------
    @staticmethod
    def broadcast_ahk20(n: int, k: int, max_initial_per_node: int = 1) -> float:
        """[AHK+20]: k-dissemination / aggregation in eO(sqrt(k) + l) rounds."""
        return math.sqrt(max(k, 1)) + max_initial_per_node

    @staticmethod
    def unicast_ks20(n: int, k: int, l: int) -> float:
        """[KS20]: (k, l)-routing in eO(sqrt(k) + k*l/n) rounds."""
        return math.sqrt(max(k, 1)) + (k * l) / max(n, 1)

    # ------------------------------------------------------------------
    # Table 2: APSP
    # ------------------------------------------------------------------
    @staticmethod
    def apsp_sqrt_n(n: int) -> float:
        """[KS20] / [AG21a]: exact or O(log n / log log n)-approx APSP in eO(sqrt n)."""
        return math.sqrt(max(n, 1))

    # ------------------------------------------------------------------
    # Table 3 / Figure 1: k-SSP
    # ------------------------------------------------------------------
    @staticmethod
    def ksp_lower_bound(k: int) -> float:
        """[KS20]: eOmega(sqrt k) even for (k, 1)-SP with O(sqrt n) stretch."""
        return math.sqrt(max(k, 1))

    @staticmethod
    def ksp_chlp21(n: int, k: int) -> float:
        """[CHLP21a]: exact k-SSP in eO(n^{1/3} + sqrt k)."""
        return max(n, 1) ** (1.0 / 3.0) + math.sqrt(max(k, 1))

    @staticmethod
    def ksp_this_work(k: int) -> float:
        """Theorem 14: constant-approximation k-SSP in eO(sqrt k)."""
        return math.sqrt(max(k, 1))

    # ------------------------------------------------------------------
    # Table 4: SSSP
    # ------------------------------------------------------------------
    @staticmethod
    def sssp_ag21(n: int) -> float:
        """[AG21a]: (log n / log log n)-approx SSSP in eO(n^{1/2})."""
        return math.sqrt(max(n, 1))

    @staticmethod
    def sssp_chlp21(n: int) -> float:
        """[CHLP21b]: (1+eps)-approx SSSP in eO(n^{5/17})."""
        return max(n, 1) ** (5.0 / 17.0)

    @staticmethod
    def sssp_ahk20(n: int, eps: float = 1.0 / 3.0) -> float:
        """[AHK+20]: (1/eps)^O(1/eps)-approx SSSP in eO(n^eps)."""
        return max(n, 1) ** eps

    @staticmethod
    def sssp_this_work(n: int, eps: float) -> float:
        """Theorem 13: (1+eps)-approx SSSP in eO(1/eps^2) = polylog rounds."""
        log_n = log2_ceil(max(n, 2))
        return (1.0 / (max(eps, 1e-9) ** 2)) * log_n

    # ------------------------------------------------------------------
    # Universal bounds of this paper (for reference columns)
    # ------------------------------------------------------------------
    @staticmethod
    def universal_upper_bound(nq: int, n: int) -> float:
        """Theorems 1-3, 5-7: eO(NQ_k) with the polylog instantiated as log^2 n."""
        log_n = log2_ceil(max(n, 2))
        return max(nq, 1) * log_n * log_n

    @staticmethod
    def universal_lower_bound(nq: int, n: int) -> float:
        """Theorem 4 / 10-12: eOmega(NQ_k); polylog divided out as log^2 n."""
        log_n = log2_ceil(max(n, 2))
        return max(nq, 1) / float(log_n * log_n)
