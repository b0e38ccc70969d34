"""Tie-heavy exactness of every partitioned facade against the naive oracle.

The shard, LSM and dynamic facades all split their points into parts
and merge the parts' answers per ``n`` under the canonical
``(difference, id)`` order.  Integer-grid data makes that merge decide
ties constantly: points tie with each other within a part, across part
boundaries, and — on the mutable stores — with tombstoned rows.  Copies
of early points are re-inserted late so that exact duplicates straddle
parts, and some of the originals are then deleted.
"""

import numpy as np
import pytest

from repro.core.dynamic import DynamicMatchDatabase
from repro.core.naive import NaiveScanEngine
from repro.lsm import LsmMatchDatabase
from repro.shard import ShardedMatchDatabase

DIMS = 5
K_VALUES = (1, 4, 9)


def grid_points(seed):
    """80 grid points plus duplicates of the first 12, appended last."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 4, size=(80, DIMS)).astype(np.float64)
    return np.vstack([base, base[:12]])


def make_dynamic(data, deletes, tmp_path):
    # Base = the first half; the rest (duplicates included) stay
    # buffered because the compaction threshold is never reached.
    db = DynamicMatchDatabase(data[:46], min_buffer=10_000)
    db.insert_many(data[46:])
    for pid in deletes:
        db.delete(pid)
    assert db.buffer_size > 0
    return db


def make_lsm(data, deletes, tmp_path):
    db = LsmMatchDatabase(
        tmp_path / "store",
        dimensionality=DIMS,
        memtable_flush_rows=20,
        auto_compact=False,
    )
    db.insert_many(data)
    for pid in deletes:
        db.delete(pid)
    assert db.segment_count >= 3
    assert db.memtable_size > 0
    return db


def make_sharded(data, deletes, tmp_path):
    return ShardedMatchDatabase(
        data, shards=3, backend="thread", default_engine="block-ad"
    )


FACTORIES = {
    "dynamic": (make_dynamic, True),
    "lsm": (make_lsm, True),
    "sharded-thread": (make_sharded, False),
}


def oracle(data, live, query, k, n_range):
    """Naive frequent k-n-match over the live rows, ids mapped back.

    ``live`` is ascending, so the naive engine's row-order tie-break is
    the global id order every facade must reproduce.
    """
    engine = NaiveScanEngine(data[live])
    result = engine.frequent_k_n_match(query, k, n_range)
    answer_sets = {
        n: [int(live[row]) for row in rows]
        for n, rows in result.answer_sets.items()
    }
    ids = [int(live[row]) for row in result.ids]
    return engine, ids, result.frequencies, answer_sets


@pytest.mark.parametrize("facade", sorted(FACTORIES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tie_heavy_partitions_match_oracle(facade, seed, tmp_path):
    data = grid_points(seed)
    make, mutable = FACTORIES[facade]
    deletes = []
    if mutable:
        rng = np.random.default_rng(100 + seed)
        # Originals of duplicated rows (their live twins sit in a later
        # part) plus random rows from every part.
        deletes = sorted(
            {0, 3, 7, 11}
            | set(int(p) for p in rng.choice(len(data), 14, replace=False))
        )
    live = np.setdiff1d(np.arange(len(data)), deletes)
    db = make(data, deletes, tmp_path)
    try:
        queries = [data[1], data[5] + 0.5, np.full(DIMS, 2.0), data[80]]
        for query in queries:
            for k in K_VALUES:
                engine, ids, frequencies, answer_sets = oracle(
                    data, live, query, k, (1, DIMS)
                )
                for n in range(1, DIMS + 1):
                    got = db.k_n_match(query, k, n)
                    want = engine.k_n_match(query, k, n)
                    assert got.ids == answer_sets[n]
                    assert got.ids == [int(live[row]) for row in want.ids]
                    assert got.differences == want.differences
                got = db.frequent_k_n_match(query, k, (1, DIMS))
                assert got.ids == ids
                assert got.frequencies == frequencies
                assert got.answer_sets == answer_sets
                _, sub_ids, sub_freqs, sub_sets = oracle(
                    data, live, query, k, (2, 4)
                )
                got = db.frequent_k_n_match(query, k, (2, 4))
                assert (got.ids, got.frequencies) == (sub_ids, sub_freqs)
                assert got.answer_sets == sub_sets
    finally:
        if hasattr(db, "close"):
            db.close()
