"""kappa-wise independent hashing for intermediate-node routing (Lemma 5.3).

The (k,l)-routing algorithm relays every (source, target) message pair through
a pseudo-random intermediate node ``h(ID(s), ID(t))`` so that senders and
receivers never have to exchange their helper sets explicitly.  Lemma 5.3 asks
for a hash family that is ``kappa``-wise independent with
``kappa = Theta(NQ_k log n)``, which bounds (w.h.p.) both the number of pairs
mapped to any single node (``O(NQ_k)``) and the number of simultaneous
requests any node receives (``O(log n)``).

We implement the standard construction: a random polynomial of degree
``kappa - 1`` over a prime field ``F_p`` with ``p > n^2``, evaluated at the
encoded pair ``ID(s) * n + ID(t)`` and reduced modulo the number of nodes.  The
seed consists of ``kappa`` field elements, i.e. ``Theta(kappa)`` words — this is
the quantity charged for broadcasting the seed (via Theorem 1) in the routing
algorithm.
"""

from __future__ import annotations

import random
from typing import List, Optional

__all__ = ["PairwiseHash", "next_prime"]


def _is_prime(value: int) -> bool:
    if value < 2:
        return False
    if value % 2 == 0:
        return value == 2
    divisor = 3
    while divisor * divisor <= value:
        if value % divisor == 0:
            return False
        divisor += 2
    return True


def next_prime(value: int) -> int:
    """Smallest prime >= value (trial division; inputs here are small)."""
    candidate = max(2, value)
    while not _is_prime(candidate):
        candidate += 1
    return candidate


class PairwiseHash:
    """A kappa-wise independent hash ``h : [U] x [U] -> [m]``.

    Parameters
    ----------
    universe:
        Upper bound (exclusive) on the identifiers being hashed.
    buckets:
        Size of the range ``m`` (the number of nodes).
    independence:
        ``kappa``; the polynomial degree is ``kappa - 1``.
    seed:
        Seed for drawing the polynomial coefficients.
    """

    def __init__(
        self, universe: int, buckets: int, independence: int, seed: Optional[int] = None
    ) -> None:
        if universe < 1:
            raise ValueError("universe must be positive")
        if buckets < 1:
            raise ValueError("buckets must be positive")
        if independence < 1:
            raise ValueError("independence must be at least 1")
        self.universe = universe
        self.buckets = buckets
        self.independence = independence
        self.prime = next_prime(max(universe * universe + 1, buckets + 1, 11))
        rng = random.Random(seed)
        self.coefficients: List[int] = [rng.randrange(self.prime) for _ in range(independence)]
        if independence > 1 and self.coefficients[-1] == 0:
            self.coefficients[-1] = 1  # keep the polynomial of full degree

    # ------------------------------------------------------------------
    @property
    def seed_words(self) -> int:
        """Size of the seed in O(log n)-bit words (one word per coefficient)."""
        return len(self.coefficients)

    def _evaluate(self, x: int) -> int:
        result = 0
        for coefficient in reversed(self.coefficients):
            result = (result * x + coefficient) % self.prime
        return result

    def __call__(self, i: int, j: int) -> int:
        """Hash the pair ``(i, j)`` to a bucket in ``[0, buckets)``."""
        if i < 0 or j < 0:
            raise ValueError("identifiers must be non-negative")
        encoded = (i % self.universe) * self.universe + (j % self.universe)
        return self._evaluate(encoded) % self.buckets
