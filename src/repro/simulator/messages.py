"""Message size accounting.

The HYBRID model's global mode moves ``O(log n)``-bit messages, so the simulator
needs a notion of message *size in words* to enforce the per-node capacity
``gamma``.  Payloads are arbitrary Python objects; :func:`payload_words`
estimates how many O(log n)-bit words a payload occupies using the convention
that an integer, a float, a short string, a node identifier, or ``None`` each
cost one word, and containers cost the sum of their elements (plus one word of
framing).  The estimate is deliberately simple and deterministic — what matters
for the reproduction is that algorithms which the paper says move Theta(k)
words are charged Theta(k) words.
"""

from __future__ import annotations

import dataclasses
from typing import Any

__all__ = ["payload_words", "LOCAL_MODE", "GLOBAL_MODE"]

LOCAL_MODE = "local"
GLOBAL_MODE = "global"

#: Strings cost one word per this many characters (log n bits ~ a few characters).
_CHARS_PER_WORD = 8


def payload_words(payload: Any) -> int:
    """Estimate the size of ``payload`` in O(log n)-bit words (at least 1).

    Objects may pin their charged size via a ``payload_words_override``
    attribute (may be 0).  The only in-tree user is the round engine's
    :class:`~repro.simulator.engine.ExchangeTag`, whose unique demux serial is
    engine bookkeeping rather than protocol payload: the tag is charged as its
    user-visible prefix so word accounting is identical across engines.
    """
    override = getattr(payload, "payload_words_override", None)
    if override is not None:
        return override
    return max(1, _payload_words(payload))


def _payload_words(payload: Any) -> int:
    if payload is None:
        return 1
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        # Large integers (e.g. packed bit strings) cost proportionally more.
        bits = payload.bit_length()
        return max(1, (bits + 63) // 64)
    if isinstance(payload, float):
        return 1
    if isinstance(payload, str):
        return max(1, (len(payload) + _CHARS_PER_WORD - 1) // _CHARS_PER_WORD)
    if isinstance(payload, bytes):
        return max(1, (len(payload) + 7) // 8)
    if isinstance(payload, (tuple, list, set, frozenset)):
        return 1 + sum(_payload_words(item) for item in payload)
    if isinstance(payload, dict):
        return 1 + sum(
            _payload_words(key) + _payload_words(value) for key, value in payload.items()
        )
    if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        return 1 + sum(
            _payload_words(getattr(payload, field.name))
            for field in dataclasses.fields(payload)
        )
    # Unknown object: charge a single word.  Algorithms in this repository only
    # ever send primitives and containers, so this branch is a safety net.
    return 1
