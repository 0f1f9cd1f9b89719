"""Optional NumPy acceleration gate for the round engine.

NumPy is an *optional* accelerator: the vectorised round engine
(:mod:`repro.simulator.engine`) and the bulk id-native send paths
(:mod:`repro.simulator.network`) consult :data:`np` at call time and fall back
to pure-Python array sweeps when it is ``None``.  The dependency surface of the
package is unchanged — install the ``[fast]`` extra (``pip install .[fast]``)
to pull NumPy in, or set ``REPRO_NO_NUMPY=1`` to force the pure-Python fallback
even when NumPy is importable (one CI leg runs the whole tier-1 suite this way).

Both code paths are exercised by ``tests/properties/test_round_engine.py`` and
produce bit-for-bit identical schedules, inboxes and metrics; only the
wall-clock differs.

Consumers read ``_accel.np`` through the module attribute (never ``from
_accel import np``) so tests can monkeypatch ``_accel.np = None`` and flip
every call site at once.
"""

from __future__ import annotations

import os

__all__ = ["np", "have_numpy"]

try:  # pragma: no cover - exercised via both CI legs
    import numpy as np  # type: ignore
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

if os.environ.get("REPRO_NO_NUMPY"):
    np = None  # type: ignore[assignment]


def have_numpy() -> bool:
    """Whether the vectorised (NumPy) paths are active."""
    return np is not None

