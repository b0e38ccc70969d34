"""Unit tests for the repro.obs span tracer and its exporters.

Covers span-tree construction (nesting, annotation, ring-buffer
eviction, the slow-query log), thread confinement, both exporters
(Chrome ``trace_event`` schema-checked, text renderer golden-tested),
and the zero-cost / bit-identical-answers contract on the instrumented
engines.
"""

import ast
import json
import os
import pathlib
import threading
import time

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.obs import (
    PHASE_NAMES,
    SpanCollector,
    chrome_trace_events,
    render_chrome_json,
    render_span_text,
)


class TestSpanTree:
    def test_nesting_and_order(self):
        spans = SpanCollector()
        with spans.span("root"):
            with spans.span("first"):
                pass
            with spans.span("second"):
                with spans.span("inner"):
                    pass
        (root,) = spans.traces()
        assert [s.name for s in root.iter_spans()] == [
            "root",
            "first",
            "second",
            "inner",
        ]
        assert [c.name for c in root.children] == ["first", "second"]

    def test_durations_are_monotonic_and_nested(self):
        spans = SpanCollector()
        with spans.span("root"):
            with spans.span("child"):
                time.sleep(0.002)
        (root,) = spans.traces()
        child = root.children[0]
        assert child.duration_seconds > 0
        assert root.start <= child.start
        assert child.end <= root.end

    def test_meta_and_annotate(self):
        spans = SpanCollector()
        with spans.span("root", k=5):
            spans.annotate(pops=17)
        (root,) = spans.traces()
        assert root.meta == {"k": 5, "pops": 17}

    def test_annotate_without_open_span_is_a_noop(self):
        spans = SpanCollector()
        spans.annotate(ignored=1)  # must not raise
        assert spans.traces() == []

    def test_find(self):
        spans = SpanCollector()
        with spans.span("root"):
            with spans.span("round"):
                pass
            with spans.span("round"):
                pass
        (root,) = spans.traces()
        assert len(root.find("round")) == 2
        assert root.find("missing") == []

    def test_incomplete_root_is_not_published(self):
        spans = SpanCollector()
        context = spans.span("root")
        context.__enter__()
        assert spans.traces() == []
        context.__exit__(None, None, None)
        assert len(spans.traces()) == 1

    def test_exception_still_publishes(self):
        spans = SpanCollector()
        with pytest.raises(RuntimeError):
            with spans.span("root"):
                with spans.span("child"):
                    raise RuntimeError("boom")
        (root,) = spans.traces()
        assert [s.name for s in root.iter_spans()] == ["root", "child"]


class TestRingBuffers:
    def test_capacity_evicts_oldest_and_counts_drops(self):
        spans = SpanCollector(capacity=2)
        for index in range(4):
            with spans.span(f"q{index}"):
                pass
        assert [root.name for root in spans.traces()] == ["q2", "q3"]
        assert spans.dropped == 2

    def test_clear(self):
        spans = SpanCollector(slow_threshold_seconds=0.0)
        with spans.span("q"):
            pass
        spans.clear()
        assert spans.traces() == []
        assert spans.slow_traces() == []
        assert spans.dropped == 0

    def test_slow_log_thresholds(self):
        spans = SpanCollector(slow_threshold_seconds=0.005)
        with spans.span("fast"):
            pass
        with spans.span("slow"):
            time.sleep(0.01)
        assert [root.name for root in spans.slow_traces()] == ["slow"]
        assert len(spans.traces()) == 2

    def test_slow_log_disabled_by_default(self):
        spans = SpanCollector()
        with spans.span("q"):
            time.sleep(0.002)
        assert spans.slow_traces() == []

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            SpanCollector(capacity=0)
        with pytest.raises(ValidationError):
            SpanCollector(slow_capacity=0)
        with pytest.raises(ValidationError):
            SpanCollector(slow_threshold_seconds=-1.0)


class TestThreadConfinement:
    def test_worker_spans_become_roots_on_their_thread(self):
        spans = SpanCollector()
        barrier = threading.Barrier(2)

        def worker():
            barrier.wait()
            with spans.span("worker_root"):
                with spans.span("worker_child"):
                    pass

        thread = threading.Thread(target=worker)
        with spans.span("main_root"):
            thread.start()
            barrier.wait()
            thread.join()
        roots = {root.name for root in spans.traces()}
        assert roots == {"main_root", "worker_root"}
        by_name = {root.name: root for root in spans.traces()}
        assert by_name["worker_root"].thread_id != by_name[
            "main_root"
        ].thread_id
        # The worker tree is intact and carries one thread id throughout.
        worker_root = by_name["worker_root"]
        assert [s.name for s in worker_root.iter_spans()] == [
            "worker_root",
            "worker_child",
        ]
        assert {s.thread_id for s in worker_root.iter_spans()} == {
            worker_root.thread_id
        }

    def test_concurrent_publishing_loses_nothing(self):
        spans = SpanCollector(capacity=1024)

        def hammer(tag):
            for index in range(100):
                with spans.span(f"{tag}-{index}"):
                    pass

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(spans.traces()) == 400
        assert spans.dropped == 0


class TestChromeExport:
    def _sample_traces(self):
        spans = SpanCollector()
        with spans.span("ad/k_n_match", k=3, n=2):
            with spans.span("cursor_init"):
                pass
            with spans.span("heap_consume"):
                spans.annotate(heap_pops=9)
        return spans

    def test_schema(self):
        spans = self._sample_traces()
        document = chrome_trace_events(spans.traces(), epoch=spans.epoch)
        assert set(document) == {"traceEvents", "displayTimeUnit"}
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        metadata, *complete = events
        assert metadata["ph"] == "M"
        assert metadata["name"] == "process_name"
        assert len(complete) == 3  # root + two phases
        for event in complete:
            assert event["ph"] == "X"
            assert event["cat"] == "repro"
            assert isinstance(event["ts"], float) and event["ts"] >= 0.0
            assert isinstance(event["dur"], float) and event["dur"] >= 0.0
            assert isinstance(event["tid"], int)
            assert isinstance(event["args"], dict)
        names = [event["name"] for event in complete]
        assert names == ["ad/k_n_match", "cursor_init", "heap_consume"]
        assert complete[0]["args"] == {"k": 3, "n": 2}
        assert complete[2]["args"] == {"heap_pops": 9}

    def test_json_text_round_trips_and_is_deterministic(self):
        spans = self._sample_traces()
        text = render_chrome_json(spans.traces(), epoch=spans.epoch)
        assert json.loads(text) == chrome_trace_events(
            spans.traces(), epoch=spans.epoch
        )
        assert text == render_chrome_json(spans.traces(), epoch=spans.epoch)


class TestTextRenderer:
    def test_golden_structure(self):
        spans = SpanCollector()
        with spans.span("root", k=2):
            with spans.span("first"):
                pass
            with spans.span("second"):
                with spans.span("inner", b=2, a=1):
                    pass
        (root,) = spans.traces()
        assert render_span_text(root, show_times=False) == (
            "root  [k=2]\n"
            "|- first\n"
            "`- second\n"
            "   `- inner  [a=1 b=2]"
        )

    def test_times_column(self):
        spans = SpanCollector()
        with spans.span("root"):
            pass
        (root,) = spans.traces()
        assert "ms" in render_span_text(root)


class TestEngineIntegration:
    """Spans on real engines: right phases, identical answers."""

    @pytest.fixture
    def workload(self, rng):
        data = rng.random((300, 6))
        query = rng.random(6)
        return data, query

    def test_ad_phases(self, workload):
        from repro.core.ad import ADEngine

        data, query = workload
        spans = SpanCollector()
        engine = ADEngine(data, spans=spans)
        result = engine.k_n_match(query, 4, 3)
        (root,) = spans.traces()
        assert root.name == "ad/k_n_match"
        assert root.meta["k"] == 4 and root.meta["n"] == 3
        assert [c.name for c in root.children] == [
            "cursor_init",
            "heap_consume",
        ]
        assert root.children[1].meta["heap_pops"] == result.stats.heap_pops

    def test_block_ad_phases(self, workload):
        from repro.core.ad_block import BlockADEngine

        data, query = workload
        spans = SpanCollector()
        engine = BlockADEngine(data, spans=spans)
        engine.frequent_k_n_match(query, 4, (1, 6))
        (root,) = spans.traces()
        assert root.name == "block-ad/frequent_k_n_match"
        names = [c.name for c in root.children]
        assert names == ["window_grow", "refine", "rank"]
        rounds = root.find("round")
        assert len(rounds) == root.children[0].meta["rounds"] >= 1

    def test_sharded_phases(self, workload):
        from repro.shard import ShardedMatchDatabase

        data, query = workload
        spans = SpanCollector()
        db = ShardedMatchDatabase(data, shards=3, spans=spans)
        db.k_n_match(query, 4, 3)
        roots = spans.traces()
        logical = [r for r in roots if r.name == "sharded/k_n_match"]
        assert len(logical) == 1
        (root,) = logical
        assert root.meta["shards"] == 3
        fanout = root.find("shard_fanout")
        assert len(fanout) == 1
        calls = [s for r in roots for s in r.find("shard_call")]
        assert len(calls) == 3
        assert {c.meta["shard"] for c in calls} == {0, 1, 2}
        merges = root.find("merge")
        assert len(merges) == 1

    def test_all_phase_names_are_in_the_vocabulary(self, workload):
        from repro.parallel import BatchBlockADEngine
        from repro.shard import ShardedMatchDatabase

        data, query = workload
        spans = SpanCollector(capacity=256)
        db = ShardedMatchDatabase(data, shards=2, spans=spans)
        db.frequent_k_n_match_batch(np.stack([query, query]), 3, (1, 6))
        batch = BatchBlockADEngine(data, spans=spans)
        batch.k_n_match_batch(np.stack([query, query]), 3, 4)
        seen = set()
        for root in spans.traces():
            for span in root.iter_spans():
                seen.add(span.name)
        phase_like = {name for name in seen if "/" not in name}
        assert phase_like <= set(PHASE_NAMES)
        roots = {name for name in seen if "/" in name}
        assert all(
            name.split("/", 1)[1].startswith(("k_n_match", "frequent"))
            for name in roots
        )

    def test_answers_bit_identical_with_spans(self, workload):
        from repro.core.engine import ENGINE_NAMES, MatchDatabase

        data, query = workload
        plain = MatchDatabase(data)
        traced = MatchDatabase(data, spans=SpanCollector())
        for engine in ENGINE_NAMES:
            reference = plain.k_n_match(query, 5, 3, engine=engine)
            result = traced.k_n_match(query, 5, 3, engine=engine)
            assert result.ids == reference.ids
            assert result.differences == reference.differences
            freq_reference = plain.frequent_k_n_match(
                query, 5, (2, 5), engine=engine
            )
            freq_result = traced.frequent_k_n_match(
                query, 5, (2, 5), engine=engine
            )
            assert freq_result.ids == freq_reference.ids
            assert freq_result.frequencies == freq_reference.frequencies

    def test_set_spans_reaches_existing_engines(self, workload):
        from repro.core.engine import MatchDatabase

        data, query = workload
        db = MatchDatabase(data)
        db.k_n_match(query, 2, 2)  # constructs the engine with spans=None
        spans = SpanCollector()
        db.set_spans(spans)
        db.k_n_match(query, 2, 2)
        assert len(spans.traces()) == 1
        db.set_spans(None)
        db.k_n_match(query, 2, 2)
        assert len(spans.traces()) == 1


# ----------------------------------------------------------------------
# span-tree golden: every instrumented component, one fixed query
# ----------------------------------------------------------------------
#: Meta keys whose values differ run to run: process ids, wall times,
#: and plan predictions (the cost model learns from observed times).
_VOLATILE_META = ("worker_pid", "worker_seconds", "predicted_ms")

GOLDEN_PATH = pathlib.Path(__file__).with_name("span_trees.golden")


def _render_roots(roots):
    """Every root's timeless text tree, in publish order."""
    texts = []
    for root in roots:
        for span in root.iter_spans():
            for key in _VOLATILE_META:
                if key in span.meta:
                    span.meta[key] = "*"
        texts.append(render_span_text(root, show_times=False))
    return "\n".join(texts)


def _golden_trees(tmp_path):
    """Label -> rendered span forest of one component's traced calls."""
    from repro.approx import BudgetADEngine, PivotSketchEngine
    from repro.core.ad import ADEngine
    from repro.core.ad_block import BlockADEngine
    from repro.core.dynamic import DynamicMatchDatabase
    from repro.core.engine import MatchDatabase
    from repro.core.naive import NaiveScanEngine
    from repro.disk import DiskADEngine
    from repro.lsm import LsmMatchDatabase
    from repro.parallel import BatchBlockADEngine
    from repro.plan import CostCurve, PlanModel
    from repro.serve import ServeApp
    from repro.serve.protocol import canonical_json
    from repro.shard import ShardedMatchDatabase

    data = np.round(np.random.default_rng(11).random((120, 6)) * 4) / 4
    query = data[3] + 0.125
    batch = np.stack([query, data[7] - 0.125])
    k, n, n_range = 5, 3, (2, 5)
    trees = {}

    def record(label, run):
        spans = SpanCollector(capacity=4096)
        run(spans)
        trees[label] = _render_roots(spans.traces())

    def single_engine(factory):
        def run(spans):
            engine = factory(spans)
            engine.k_n_match(query, k, n)
            engine.frequent_k_n_match(query, k, n_range)

        return run

    record("naive", single_engine(lambda s: NaiveScanEngine(data, spans=s)))
    record("ad", single_engine(lambda s: ADEngine(data, spans=s)))
    record("block-ad", single_engine(lambda s: BlockADEngine(data, spans=s)))
    record("disk-ad", single_engine(lambda s: DiskADEngine(data, spans=s)))

    def batch_block_ad(spans):
        engine = BatchBlockADEngine(data, spans=spans)
        engine.k_n_match(query, k, n)
        engine.k_n_match_batch(batch, k, n)
        engine.frequent_k_n_match_batch(batch, k, n_range)

    record("batch-block-ad", batch_block_ad)
    record(
        "budget-ad/budgeted",
        lambda s: BudgetADEngine(data, spans=s).k_n_match(
            query, k, n, budget=200
        ),
    )
    record(
        "budget-ad/delegated",
        lambda s: BudgetADEngine(data, spans=s).k_n_match(query, k, n),
    )
    record(
        "pivot-sketch",
        lambda s: PivotSketchEngine(data, spans=s).k_n_match(query, k, n),
    )

    def planner(spans):
        db = MatchDatabase(data, spans=spans)
        db.set_plan_model(
            PlanModel(
                {
                    "block-ad": CostCurve("block-ad", 1e-7, source="bench"),
                    "naive": CostCurve("naive", 2e-7, source="bench"),
                    "batch-block-ad": CostCurve(
                        "batch-block-ad", 1e-7, source="bench"
                    ),
                }
            )
        )
        db.k_n_match(query, k, n, engine="auto")
        db.frequent_k_n_match(query, k, n_range, engine="auto")

    record("planner", planner)

    def sharded(backend):
        def run(spans):
            # One worker: thread-backend shard calls then run inline,
            # so the forest's order is deterministic.
            with ShardedMatchDatabase(
                data, shards=3, workers=1, backend=backend, spans=spans
            ) as db:
                db.k_n_match(query, k, n)
                db.frequent_k_n_match(query, k, n_range)
                db.k_n_match_batch(batch, k, n)
                db.frequent_k_n_match_batch(batch, k, n_range)

        return run

    record("sharded/thread", sharded("thread"))
    record("sharded/process", sharded("process"))

    def sharded_approx(spans):
        with ShardedMatchDatabase(data, shards=3, workers=1, spans=spans) as db:
            db.k_n_match(query, k, n, mode="approx", budget=200)

    record("sharded/approx", sharded_approx)

    def lsm(spans):
        db = LsmMatchDatabase(
            tmp_path / "lsm",
            dimensionality=data.shape[1],
            memtable_flush_rows=8,
            level_fanout=2,
            auto_compact=False,
            spans=spans,
        )
        try:
            for row in data[:20]:
                db.insert(row)
            db.delete(4)
            db.k_n_match(query, k, n)
            db.frequent_k_n_match(query, k, n_range)
            db.flush()
            db.compact()
            db.k_n_match(query, k, n)
        finally:
            db.close()

    record("lsm", lsm)

    def dynamic(spans):
        db = DynamicMatchDatabase(data[:60], spans=spans)
        for row in data[60:70]:
            db.insert(row)
        db.delete(4)
        db.k_n_match(query, k, n)
        db.frequent_k_n_match(query, k, n_range)

    record("dynamic", dynamic)

    def serve(spans):
        app = ServeApp(MatchDatabase(data), spans=spans)
        body = canonical_json({"query": list(query), "k": k, "n": n})
        for _ in range(2):  # a miss, then a hit
            app.handle("POST", "/v1/query", body)

    record("serve", serve)

    def serve_mutations(spans):
        db = LsmMatchDatabase(
            tmp_path / "served", dimensionality=data.shape[1], spans=spans
        )
        try:
            app = ServeApp(db, spans=spans)
            point = canonical_json({"point": list(data[0])})
            app.handle("POST", "/v1/insert", point)
            app.handle("POST", "/v1/delete", canonical_json({"pid": 0}))
        finally:
            db.close()

    record("serve/mutations", serve_mutations)
    return trees


def _format_golden(trees):
    return "".join(
        f"== {label} ==\n{text}\n" for label, text in sorted(trees.items())
    )


class TestSpanTreeGolden:
    """The span tree of every instrumented component, structure only.

    One fixed tie-heavy query per component, rendered without times and
    compared with a committed golden: instrumentation refactors must
    keep every span name, nesting and annotation.  Regenerate with
    ``REPRO_UPDATE_GOLDEN=1 python -m pytest tests/test_spans.py``.
    """

    def test_matches_golden(self, tmp_path):
        text = _format_golden(_golden_trees(tmp_path))
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            GOLDEN_PATH.write_text(text)
        assert text == GOLDEN_PATH.read_text()


class TestNoSpanForks:
    """Instrumentation is written once: ``spans or NULL_SPANS``, no fork."""

    def test_no_if_spans_is_none_in_src(self):
        import re

        import repro

        fork = re.compile(r"\bif\s+spans\s+is\s+None\s*:")
        root = pathlib.Path(repro.__file__).parent
        offenders = [
            f"{path.relative_to(root)}:{number}"
            for path in sorted(root.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if fork.search(line)
        ]
        assert offenders == []


def _enclosing_functions(tree):
    """Line number -> qualified name of the innermost function around it."""
    owners = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                name = f"{prefix}{child.name}"
                if isinstance(child, ast.FunctionDef):
                    for line in range(child.lineno, child.end_lineno + 1):
                        owners[line] = name
                visit(child, f"{name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return owners


class TestNoMetricsGuards:
    """Metrics are recorded once, inside ``obs/``: no call-site guards.

    Queries record through the observer base where their root span
    closes, and every per-event helper returns at once on ``None``, so
    nothing outside ``obs/`` tests whether a registry is installed.  The
    allowlist names constructor defaults by file and function.
    """

    ALLOWED = {
        # an always-present registry: serve exports /metrics regardless
        ("serve/server.py", "ServeApp.__init__"),
        # hand the engine's registry to a caller-supplied pager once
        ("disk/ad_disk.py", "DiskADEngine.__init__"),
    }

    def test_no_registry_guards_in_src(self):
        import re

        import repro

        guard = re.compile(
            r"(registry|metrics) is (not )?None|perf_counter\(\) if registry"
        )
        root = pathlib.Path(repro.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            relative = path.relative_to(root).as_posix()
            if relative.startswith("obs/"):
                continue
            source = path.read_text()
            lines = [
                number
                for number, line in enumerate(source.splitlines(), 1)
                if guard.search(line)
            ]
            if not lines:
                continue
            owners = _enclosing_functions(ast.parse(source))
            offenders += [
                f"{relative}:{number}"
                for number in lines
                if (relative, owners.get(number)) not in self.ALLOWED
            ]
        assert offenders == []
