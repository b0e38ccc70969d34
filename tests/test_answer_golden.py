"""Answer golden: every facade, exact engine and query kind, byte for byte.

A fixed case matrix — tie-heavy integer-grid and uniform data; the flat,
sharded (thread and process), LSM and dynamic facades; every exact
engine; k-n-match, frequent and both batch kinds; budget-ad,
pivot-sketch and anytime at fixed budgets; ``trace=True`` traces with
their timings masked — is encoded with the serve protocol's
``canonical_json`` and compared, one sha256 per case, with the committed
``tests/answers.golden``.  Refactors that must not change answers or
``SearchStats`` counters run this instead of a hand-written byte-identity
script.

Every exact case is also checked against the naive oracle (ids,
differences, frequencies, answer sets), so the golden cannot freeze a
wrong answer.  ``engine="auto"`` stays out: its choice depends on
measured timings.  Regenerate with
``REPRO_UPDATE_GOLDEN=1 python -m pytest tests/test_answer_golden.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib

import numpy as np

from repro.core.dynamic import DynamicMatchDatabase
from repro.core.engine import ENGINE_NAMES, MatchDatabase
from repro.core.naive import NaiveScanEngine
from repro.data import float32_exact
from repro.disk import DiskADEngine
from repro.lsm import LsmMatchDatabase
from repro.obs.trace import QueryTrace
from repro.serve.protocol import (
    canonical_json,
    encode_approx_result,
    encode_frequent_result,
    encode_match_result,
    encode_stats,
)
from repro.shard import ShardedMatchDatabase

GOLDEN_PATH = pathlib.Path(__file__).with_name("answers.golden")

K, N, N_RANGE = 6, 3, (2, 5)


def _datasets():
    """Name -> (data, single queries, batch matrix)."""
    rng = np.random.default_rng(20260922)
    grid = rng.integers(0, 4, size=(240, 6)).astype(np.float64)
    # float32-exact, so the disk engine's stored columns are lossless
    uniform = float32_exact(rng.random((240, 6)))
    return {
        # exact grid points and half-offsets: n-match differences tie
        # in bulk, so every tie-break is exercised
        "grid": (grid, [grid[5], grid[17] + 0.5], grid[[9, 30, 77]] + 0.5),
        "uniform": (
            uniform,
            [uniform[5] + 0.01, rng.random(6)],
            np.vstack([uniform[[40, 41]] - 0.01, rng.random((1, 6))]),
        ),
    }


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def _encode_trace(trace):
    payload = {}
    for field in dataclasses.fields(QueryTrace):
        value = getattr(trace, field.name)
        if field.name == "wall_time_seconds":
            value = "*"
        elif field.name == "stats":
            value = encode_stats(value)
        elif field.name == "n_range":
            value = list(value)
        payload[field.name] = value
    return payload


def _encode_anytime(result):
    return {
        "ids": list(result.ids),
        "differences": [float(d) for d in result.differences],
        "k": result.k,
        "n": result.n,
        "exact": bool(result.exact),
        "unseen_lower_bound": result.unseen_lower_bound,
        "stats": encode_stats(result.stats),
    }


def _encode(result):
    if hasattr(result, "certified_recall"):
        payload = encode_approx_result(result)
    elif hasattr(result, "unseen_lower_bound"):
        payload = _encode_anytime(result)
    elif hasattr(result, "frequencies"):
        payload = encode_frequent_result(result)
    else:
        payload = encode_match_result(result)
    trace = getattr(result, "trace", None)
    if trace is not None:
        payload = {"result": payload, "trace": _encode_trace(trace)}
    return payload


# ----------------------------------------------------------------------
# the naive oracle
# ----------------------------------------------------------------------
def _true_differences(rows, query, n, ids, pids):
    """Each answer id's own n-match difference, recomputed from its row."""
    position = {int(pid): index for index, pid in enumerate(pids)}
    return [
        float(np.sort(np.abs(rows[position[pid]] - query))[n - 1])
        for pid in ids
    ]


def _check_valid(key, rows, pids, query, k, n, ids, differences=None):
    """``ids`` is a k-n-match set (Def. 3) in ascending difference order.

    Under ties the set is not unique: the heap engines (``ad``,
    ``disk-ad``) order tied ids by pop order, the rest by ascending id.
    So the check is the tie-agnostic one — k distinct ids whose own
    n-match differences are exactly the oracle's k smallest.
    """
    expected = NaiveScanEngine(rows).k_n_match(query, k, n).differences
    actual = _true_differences(rows, query, n, ids, pids)
    assert len(set(ids)) == len(ids) == k, key
    assert actual == list(expected), key
    if differences is not None:
        assert list(differences) == actual, key


def _check_exact(key, rows, pids, query, result, canonical):
    """``result`` is the naive scan's answer over ``rows`` (ids via ``pids``).

    ``canonical`` engines must equal the oracle outright (ties by
    ascending id); the others must return a valid answer.
    """
    oracle = NaiveScanEngine(rows)
    if hasattr(result, "frequencies"):
        if result.answer_sets is not None:
            for n, ids in result.answer_sets.items():
                _check_valid(key, rows, pids, query, result.k, n, ids)
        if not canonical:
            return
        expected = oracle.frequent_k_n_match(query, result.k, result.n_range)
        assert [int(pids[i]) for i in expected.ids] == list(result.ids), key
        assert list(expected.frequencies) == list(result.frequencies), key
        if result.answer_sets is not None:
            assert {
                n: [int(pids[i]) for i in ids]
                for n, ids in expected.answer_sets.items()
            } == result.answer_sets, key
    else:
        _check_valid(
            key, rows, pids, query, result.k, result.n, result.ids,
            result.differences,
        )
        if canonical:
            expected = oracle.k_n_match(query, result.k, result.n)
            assert [int(pids[i]) for i in expected.ids] == list(result.ids), key


# ----------------------------------------------------------------------
# the case matrix
# ----------------------------------------------------------------------
def _exact_calls(queries, batch):
    """(suffix, call) for every exact kind; ``call(target, **kw)``."""
    calls = []
    for index, query in enumerate(queries):
        calls.append((
            f"k_n_match/q{index}",
            lambda t, q=query, **kw: t.k_n_match(q, K, N, **kw),
        ))
        calls.append((
            f"frequent_k_n_match/q{index}",
            lambda t, q=query, **kw: t.frequent_k_n_match(q, K, N_RANGE, **kw),
        ))
    calls.append((
        "k_n_match_batch",
        lambda t, **kw: t.k_n_match_batch(batch, K, N, **kw),
    ))
    calls.append((
        "frequent_k_n_match_batch",
        lambda t, **kw: t.frequent_k_n_match_batch(
            batch, K, N_RANGE, keep_answer_sets=True, **kw
        ),
    ))
    return calls


def _golden_cases(tmp_path):
    """Case key -> canonical JSON bytes, oracle-checking exact cases."""
    cases = {}

    def record(key, result, rows=None, pids=None, queries=None):
        if rows is not None:
            results = result if isinstance(result, list) else [result]
            canonical = "/ad/" not in key and "disk-ad" not in key
            for query, single in zip(queries, results):
                _check_exact(key, rows, pids, query, single, canonical)
        payload = (
            [_encode(r) for r in result]
            if isinstance(result, list)
            else _encode(result)
        )
        cases[key] = canonical_json(payload)

    for name, (data, queries, batch) in _datasets().items():
        ids = np.arange(data.shape[0])

        def run_exact(prefix, target, rows, pids, engines, **kw):
            for engine in engines:
                extra = dict(kw, engine=engine) if engine else kw
                for suffix, call in _exact_calls(queries, batch):
                    batched = suffix.endswith("_batch")
                    if batched:
                        asked = batch
                    else:
                        asked = [queries[int(suffix.rsplit("q", 1)[1])]]
                    record(
                        f"{prefix}/{engine or 'default'}/{suffix}",
                        call(target, **extra), rows, pids, asked,
                    )

        # flat facade: every registry engine, serial and thread-parallel
        flat = MatchDatabase(data)
        run_exact(f"{name}/flat", flat, data, ids, ENGINE_NAMES)
        for engine in ENGINE_NAMES:
            for suffix, call in _exact_calls(queries, batch)[-2:]:
                record(
                    f"{name}/flat-workers2/{engine}/{suffix}",
                    call(flat, engine=engine, workers=2), data, ids, batch,
                )
        disk = DiskADEngine(data)
        for suffix, call in _exact_calls(queries, batch)[:-2]:
            index = int(suffix.rsplit("q", 1)[1])
            record(
                f"{name}/disk-ad/{suffix}", call(disk), data, ids,
                [queries[index]],
            )

        # traces (wall time masked)
        for engine in ENGINE_NAMES:
            record(
                f"{name}/flat/{engine}/trace/k_n_match",
                flat.k_n_match(queries[0], K, N, engine=engine, trace=True),
                data, ids, queries[:1],
            )
        record(
            f"{name}/flat/block-ad/trace/frequent_k_n_match",
            flat.frequent_k_n_match(
                queries[1], K, N_RANGE, engine="block-ad", trace=True
            ),
            data, ids, queries[1:],
        )

        # approximate tier and the anytime prefix engine
        for budget in (40, 150, None):
            record(
                f"{name}/flat/budget-ad/budget={budget}",
                flat.k_n_match(
                    queries[0], K, N, mode="approx", engine="budget-ad",
                    budget=budget,
                ),
            )
        for options in (
            dict(candidate_multiplier=2),
            dict(budget=120),
            dict(target_recall=0.9),
        ):
            label = ",".join(f"{k}={v}" for k, v in options.items())
            record(
                f"{name}/flat/pivot-sketch/{label}",
                flat.k_n_match(
                    queries[1], K, N, mode="approx", engine="pivot-sketch",
                    **options,
                ),
            )
        record(
            f"{name}/flat/budget-ad/batch/budget=100",
            flat.k_n_match_batch(
                batch, K, N, mode="approx", engine="budget-ad", budget=100
            ),
        )
        record(
            f"{name}/flat/budget-ad/trace/budget=100",
            flat.k_n_match(
                queries[1], K, N, mode="approx", engine="budget-ad",
                budget=100, trace=True,
            ),
        )
        for budget in (20, 90, None):
            record(
                f"{name}/flat/anytime/attribute_budget={budget}",
                flat.k_n_match(
                    queries[0], K, N, engine="anytime",
                    attribute_budget=budget,
                ),
            )
        record(
            f"{name}/flat/anytime/trace",
            flat.k_n_match(
                queries[1], K, N, engine="anytime", attribute_budget=90,
                trace=True,
            ),
        )

        # sharded facade: thread backend (every engine), process backend
        with ShardedMatchDatabase(data, shards=3, workers=2) as sharded:
            run_exact(f"{name}/sharded-thread", sharded, data, ids, ENGINE_NAMES)
            record(
                f"{name}/sharded-thread/ad/trace/k_n_match",
                sharded.k_n_match(queries[0], K, N, engine="ad", trace=True),
                data, ids, queries[:1],
            )
            record(
                f"{name}/sharded-thread/budget-ad/budget=150",
                sharded.k_n_match(
                    queries[0], K, N, mode="approx", engine="budget-ad",
                    budget=150,
                ),
            )
            record(
                f"{name}/sharded-thread/pivot-sketch/batch",
                sharded.k_n_match_batch(
                    batch, K, N, mode="approx", engine="pivot-sketch",
                    candidate_multiplier=2,
                ),
            )
        with ShardedMatchDatabase(
            data, shards=3, workers=2, backend="process"
        ) as sharded:
            run_exact(
                f"{name}/sharded-process", sharded, data, ids,
                ("ad", "batch-block-ad"),
            )

        # LSM: >= 3 flushed segments, a live memtable and tombstones
        lsm = LsmMatchDatabase(
            tmp_path / f"lsm-{name}",
            dimensionality=data.shape[1],
            memtable_flush_rows=40,
            level_fanout=4,
            auto_compact=False,
        )
        try:
            for row in data[:150]:
                lsm.insert(row)
            for pid in (3, 52, 141):
                lsm.delete(pid)
            assert lsm.segment_count >= 3
            assert lsm.memtable_size > 0 and lsm.tombstone_count > 0
            rows, pids = lsm.snapshot()
            run_exact(f"{name}/lsm", _Singles(lsm), rows, pids, [None])
            lsm.flush()
            lsm.compact()
            rows, pids = lsm.snapshot()
            record(
                f"{name}/lsm/compacted/k_n_match",
                lsm.k_n_match(queries[1], K, N), rows, pids, queries[1:],
            )
        finally:
            lsm.close()

        # dynamic: base segment, buffered inserts, deletes
        dynamic = DynamicMatchDatabase(data[:150])
        for row in data[150:190]:
            dynamic.insert(row)
        for pid in (2, 60, 170):
            dynamic.delete(pid)
        rows, pids = dynamic.snapshot()
        run_exact(f"{name}/dynamic", _Singles(dynamic), rows, pids, [None])
    return cases


class _Singles:
    """A single-query facade's batch kinds, as one call per row."""

    def __init__(self, db) -> None:
        self._db = db

    def k_n_match(self, query, k, n):
        return self._db.k_n_match(query, k, n)

    def frequent_k_n_match(self, query, k, n_range):
        return self._db.frequent_k_n_match(query, k, n_range)

    def k_n_match_batch(self, queries, k, n):
        return [self._db.k_n_match(q, k, n) for q in queries]

    def frequent_k_n_match_batch(self, queries, k, n_range, keep_answer_sets):
        return [
            self._db.frequent_k_n_match(
                q, k, n_range, keep_answer_sets=keep_answer_sets
            )
            for q in queries
        ]


def _digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _read_golden():
    entries = {}
    for line in GOLDEN_PATH.read_text().splitlines():
        key, digest = line.rsplit(" ", 1)
        entries[key] = digest
    return entries


class TestAnswerGolden:
    """Answers and stats of the whole case matrix match the golden."""

    def test_matches_golden(self, tmp_path):
        cases = _golden_cases(tmp_path)
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            GOLDEN_PATH.write_text(
                "".join(
                    f"{key} {_digest(blob)}\n"
                    for key, blob in sorted(cases.items())
                )
            )
        golden = _read_golden()
        report = []
        for key in sorted(set(golden) | set(cases)):
            if key not in cases:
                report.append(f"{key}: in the golden, no longer produced")
            elif key not in golden:
                report.append(f"{key}: new case, not in the golden")
            elif _digest(cases[key]) != golden[key]:
                decoded = json.dumps(json.loads(cases[key]), indent=1)
                report.append(
                    f"{key}: sha256 {_digest(cases[key])} != golden "
                    f"{golden[key]}; now decodes to:\n{decoded}"
                )
        assert not report, "\n".join(report)
