"""DynamicMatchDatabase under threads, plus its observability surface.

The dynamic facade sits behind the threaded HTTP server, so writers
(insert/delete/compact) race readers (k_n_match) from a thread pool
here.  Correctness bar: no exceptions, no torn state, and every answer
is a *valid* k-n-match of some consistent snapshot — which the lock
guarantees by construction (each query runs against exactly one
generation).
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.dynamic import DynamicMatchDatabase
from repro.core.naive import NaiveScanEngine
from repro.obs import MetricsRegistry, SpanCollector, registry_to_dict


# ----------------------------------------------------------------------
# generation counter
# ----------------------------------------------------------------------
class TestGeneration:
    def test_starts_at_zero_and_bumps_on_every_mutation(self, small_data):
        db = DynamicMatchDatabase(small_data)
        assert db.generation == 0
        db.insert(np.full(8, 0.5))
        assert db.generation == 1
        db.delete(0)
        assert db.generation == 2
        db.compact()
        assert db.generation == 3

    def test_queries_do_not_bump(self, small_data, small_query):
        db = DynamicMatchDatabase(small_data)
        db.k_n_match(small_query, 3, 4)
        db.frequent_k_n_match(small_query, 3, (2, 4))
        assert db.generation == 0

    def test_insert_many_bumps_per_point(self, small_data, rng):
        db = DynamicMatchDatabase(small_data)
        db.insert_many(rng.random((5, 8)))
        assert db.generation == 5

    def test_auto_compaction_bumps_too(self):
        db = DynamicMatchDatabase(np.zeros((4, 2)), min_buffer=2)
        before = db.generation
        for value in range(5):
            db.insert(np.full(2, float(value)))
        assert db.compactions >= 1
        # 5 inserts plus one bump per compaction
        assert db.generation == before + 5 + db.compactions


# ----------------------------------------------------------------------
# metrics / spans threading (satellite: obs parity with other facades)
# ----------------------------------------------------------------------
class TestDynamicObservability:
    def test_metrics_recorded_under_dynamic_engine(self, small_data, small_query):
        registry = MetricsRegistry()
        db = DynamicMatchDatabase(small_data, metrics=registry)
        db.k_n_match(small_query, 3, 4)
        db.frequent_k_n_match(small_query, 3, (2, 4))
        queries = registry_to_dict(registry)["repro_queries_total"]["series"]
        by_labels = {
            (series["labels"]["engine"], series["labels"]["kind"]): series["value"]
            for series in queries
        }
        assert by_labels[("dynamic", "k_n_match")] == 1
        assert by_labels[("dynamic", "frequent_k_n_match")] == 1

    def test_set_metrics_after_construction(self, small_data, small_query):
        db = DynamicMatchDatabase(small_data)
        registry = MetricsRegistry()
        db.set_metrics(registry)
        assert db.metrics is registry
        db.k_n_match(small_query, 2, 3)
        assert "repro_queries_total" in registry_to_dict(registry)

    def test_spans_tree_has_dynamic_phases(self, small_data, small_query):
        spans = SpanCollector()
        db = DynamicMatchDatabase(small_data, spans=spans)
        db.insert(np.asarray(small_query))  # non-empty buffer
        db.k_n_match(small_query, 3, 4)
        (root,) = spans.traces()
        assert root.name == "dynamic/k_n_match"
        assert root.meta == {"k": 3, "n": 4}
        names = [span.name for span in root.iter_spans()]
        assert "segment_search" in names
        assert "memtable_scan" in names
        assert "merge" in names

    def test_frequent_span_root(self, small_data, small_query):
        spans = SpanCollector()
        db = DynamicMatchDatabase(small_data)
        db.set_spans(spans)
        assert db.spans is spans
        db.frequent_k_n_match(small_query, 3, (2, 5))
        (root,) = spans.traces()
        assert root.name == "dynamic/frequent_k_n_match"
        assert root.meta == {"k": 3, "n0": 2, "n1": 5}

    def test_instrumentation_does_not_change_answers(self, small_data, small_query):
        plain = DynamicMatchDatabase(small_data)
        instrumented = DynamicMatchDatabase(
            small_data, metrics=MetricsRegistry(), spans=SpanCollector()
        )
        for db in (plain, instrumented):
            db.insert(np.full(8, 0.25))
            db.delete(7)
        a = plain.k_n_match(small_query, 5, 4)
        b = instrumented.k_n_match(small_query, 5, 4)
        assert a.ids == b.ids
        assert a.differences == b.differences


# ----------------------------------------------------------------------
# writers racing readers
# ----------------------------------------------------------------------
def _stress(db, rounds, readers, writers, dims, seed):
    """Race queries against mutations; returns reader exceptions."""
    errors = []
    stop = threading.Event()
    rng = np.random.default_rng(seed)
    queries = rng.random((readers, dims))

    def read(index):
        try:
            while not stop.is_set():
                result = db.k_n_match(queries[index], 3, max(1, dims // 2))
                assert len(result.ids) == 3
                assert sorted(result.differences) == result.differences
                generation = db.generation
                assert generation >= 0
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    def write(index):
        try:
            local = np.random.default_rng(seed + index + 1)
            inserted = []
            for round_index in range(rounds):
                inserted.append(db.insert(local.random(dims)))
                if inserted and round_index % 3 == 2:
                    db.delete(inserted.pop(local.integers(len(inserted))))
                if round_index % 7 == 6:
                    db.compact()
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    with ThreadPoolExecutor(max_workers=readers + writers) as pool:
        reader_futures = [pool.submit(read, i) for i in range(readers)]
        writer_futures = [pool.submit(write, i) for i in range(writers)]
        for future in writer_futures:
            future.result(timeout=120)
        stop.set()
        for future in reader_futures:
            future.result(timeout=120)
    return errors


class TestConcurrentStress:
    def test_quick_stress(self, rng):
        data = rng.random((120, 6))
        db = DynamicMatchDatabase(data, min_buffer=16)
        errors = _stress(db, rounds=30, readers=3, writers=2, dims=6, seed=11)
        assert errors == []
        assert db.compactions >= 1
        # final state answers exactly like a fresh naive engine on its snapshot
        rows, pids = db.snapshot()
        query = rng.random(6)
        result = db.k_n_match(query, 5, 3)
        profiles = np.sort(np.abs(rows - query), axis=1)[:, 2]
        expected = sorted(zip(profiles, pids.tolist()))[:5]
        assert result.ids == [pid for _d, pid in expected]

    def test_concurrent_inserts_assign_unique_ids(self, rng):
        db = DynamicMatchDatabase(dimensionality=4, min_buffer=1000)
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(db.insert, rng.random(4).copy()) for _ in range(200)
            ]
            pids = [future.result() for future in futures]
        assert sorted(pids) == list(range(200))
        assert db.cardinality == 200
        assert db.generation == 200

    @pytest.mark.tier2
    def test_heavy_stress(self, rng):
        data = rng.random((600, 8))
        db = DynamicMatchDatabase(data, min_buffer=32)
        errors = _stress(db, rounds=200, readers=6, writers=4, dims=8, seed=23)
        assert errors == []
        # cross-check the final structure against the naive oracle
        rows, pids = db.snapshot()
        query = rng.random(8)
        naive = NaiveScanEngine(rows).k_n_match(query, 10, 4)
        remapped = [int(pids[row]) for row in naive.ids]
        assert db.k_n_match(query, 10, 4).ids == remapped
