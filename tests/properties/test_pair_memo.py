"""The knowledge tracker's pair store against a Python ``set`` model.

:class:`~repro.simulator.knowledge._PairMemo` keeps flat ``a * n + b`` keys
in a sorted snapshot plus a sorted recent buffer that merges into the
snapshot once it reaches a quarter of its size.  Every operation is checked
after every batch, across those merges, with duplicate, already-stored and
empty batches: :meth:`unknown` on raw and on sorted duplicate-free needles,
``in``, :meth:`row`, and the two ways keys enter (:meth:`add` for raw lists,
:meth:`absorb` for filtered sorted arrays).  Hypothesis runs under the
derandomized profile of ``tests/conftest.py``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, strategies as st

from repro.simulator.knowledge import _PairMemo, sorted_unique

N = 12
KEYS = st.integers(min_value=0, max_value=N * N - 1)
BATCHES = st.lists(
    st.tuples(st.booleans(), st.lists(KEYS, max_size=40)), min_size=1, max_size=30
)


def _check(memo: _PairMemo, model: set) -> None:
    levels = memo.levels()
    assert len(levels) <= 2 and bool(memo) == bool(levels)
    stored = []
    for level in levels:
        assert level.dtype == np.int64
        assert level.tolist() == sorted(set(level.tolist()))
        stored.extend(level.tolist())
    # Every key is held exactly once, in one of the two levels.
    assert sorted(stored) == sorted(model)
    everything = np.arange(N * N, dtype=np.int64)
    assert memo.unknown(everything).tolist() == sorted(set(range(N * N)) - model)
    assert all((key in memo) == (key in model) for key in range(N * N))
    for a in range(N):
        assert sorted(memo.row(a, N)) == sorted(key - a * N for key in model if key // N == a)


@given(BATCHES)
def test_pair_store_matches_a_set_model(batches):
    memo = _PairMemo()
    model: set = set()
    for through_add, keys in batches:
        # Any needles filter exactly, in their order, duplicates kept.
        raw = memo.unknown(np.array(keys, dtype=np.int64))
        assert raw.tolist() == [key for key in keys if key not in model]
        needles = sorted_unique(np.array(keys, dtype=np.int64))
        fresh = memo.unknown(needles)
        # Sorted, duplicate-free needles come back sorted and duplicate-free.
        assert fresh.tolist() == sorted(set(keys) - model)
        if through_add:
            memo.add(keys)
        else:
            memo.absorb(fresh)
        model |= set(keys)
        _check(memo, model)
    assert memo.unknown(np.array([], dtype=np.int64)).size == 0


def test_recent_buffer_merges_into_the_snapshot():
    memo = _PairMemo()
    memo.add(list(range(0, 80, 2)))  # the 40-key snapshot
    memo.add([1, 3, 3])  # below a quarter: a recent buffer
    assert [level.size for level in memo.levels()] == [40, 2]
    memo.add([])
    memo.absorb(np.array([], dtype=np.int64))
    assert [level.size for level in memo.levels()] == [40, 2]
    memo.add(list(range(5, 21, 2)))  # 2 + 8 >= 40 / 4: one merged snapshot
    assert [level.size for level in memo.levels()] == [50]
    model = set(range(0, 80, 2)) | {1, 3} | set(range(5, 21, 2))
    assert memo.levels()[0].tolist() == sorted(model)
    assert memo.unknown(np.arange(0, 10, dtype=np.int64)).tolist() == []
    assert memo.unknown(np.array([1, 21, 81], dtype=np.int64)).tolist() == [21, 81]
