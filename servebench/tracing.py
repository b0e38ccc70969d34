"""Benchmark-owned span tracing of the served path, and its analysis.

Server side, :func:`install` wraps the public functions of each layer by
attribute replacement (nothing under ``src/`` changes) and records one
span per call: id, parent id, name, start, end and a few attributes.
Spans stay in memory until the benchmark asks for them (``dump``).

The parent of a span is the innermost open span on the same thread.
Per-shard engine calls run on the scatter's pool threads, where no span
is open; they adopt the coordinator span that fanned out the same query
array (keyed by the array's identity while the call is in flight).

Benchmark side, :func:`analyse` joins each request's span tree to the
client's wall time for the same request (through the trace id the
client sent) and derives the per-layer metrics and the layer budget.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

from load import request_of_trace


class Recorder:
    """Thread-safe in-memory span store plus the wrapping machinery."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._fanout: Dict[int, int] = {}

    def clear(self) -> None:
        self.spans = []

    def dump(self, path: str) -> int:
        spans = self.spans
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(spans, handle, separators=(",", ":"))
        return len(spans)

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str,
             annotate: Optional[Callable] = None,
             before: Optional[Callable] = None,
             fanout: bool = False, adopt: bool = False) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``before(args, kwargs)`` runs ahead of the call; its value and
        the call's result feed ``annotate(args, kwargs, result, pre)``,
        whose dict becomes the span's attributes.  ``fanout`` publishes
        the span as the parent for pool-thread calls on the same query
        array (``args[1]``); ``adopt`` makes a call with no open span on
        its thread look that parent up.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            if stack:
                parent = stack[-1]
            elif adopt:
                parent = recorder._fanout.get(id(args[1]))
            else:
                parent = None
            sid = next(recorder._ids)
            pre = before(args, kwargs) if before is not None else None
            stack.append(sid)
            if fanout:
                recorder._fanout[id(args[1])] = sid
            result = None
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                ended = time.perf_counter()
                stack.pop()
                if fanout:
                    recorder._fanout.pop(id(args[1]), None)
                attrs = (
                    annotate(args, kwargs, result, pre)
                    if annotate is not None else None
                )
                recorder.spans.append((sid, parent, name, started, ended, attrs))

        setattr(owner, attr, traced)


def _header(headers, name: str) -> Optional[str]:
    for key, value in (headers or {}).items():
        if key.lower() == name.lower():
            return value
    return None


def install() -> Recorder:
    """Wrap every traced layer function; returns the live recorder."""
    from repro.core.engine import MatchDatabase
    from repro.lsm.memtable import Memtable
    from repro.lsm.segment import Segment
    from repro.lsm.store import LsmMatchDatabase
    from repro.lsm.wal import WalWriter
    from repro.plan.planner import QueryPlanner
    from repro.serve import protocol
    from repro.serve.admission import AdmissionController
    from repro.serve.cache import ResultCache
    from repro.serve.server import ServeApp
    from repro.shard import coordinator

    recorder = Recorder()
    wrap = recorder.wrap

    def handle_attrs(args, kwargs, result, pre):
        headers = args[4] if len(args) > 4 else kwargs.get("headers")
        context = _header(headers, "X-Repro-Trace") or ""
        return {
            "trace": context[3:35],
            "path": args[2],
            "status": result[0] if result is not None else 0,
        }

    wrap(ServeApp, "handle", "serve.handle", annotate=handle_attrs)
    for function in (
        "parse_query_request", "parse_frequent_request", "parse_batch_request",
        "parse_insert_request", "parse_delete_request",
    ):
        wrap(protocol, function, "protocol.parse")
    for function in (
        "encode_match_result", "encode_frequent_result", "canonical_json",
    ):
        wrap(protocol, function, "protocol.encode")
    wrap(AdmissionController, "admit", "admission.admit",
         annotate=lambda a, k, ticket, pre: (
             {"queue_s": ticket.queue_seconds} if ticket is not None else None
         ))
    wrap(AdmissionController, "release", "admission.release")
    wrap(ResultCache, "get", "cache.get",
         annotate=lambda a, k, value, pre: {"hit": value is not None})
    wrap(ResultCache, "put", "cache.put",
         annotate=lambda a, k, evicted, pre: {"evicted": evicted or 0})

    # A plan call is cold when its (planner, workload) key had not been
    # planned when the call started, so two racing first calls both
    # count; keyed here exactly as the planner keys its decisions.
    planned = set()
    plan_signature = inspect.signature(QueryPlanner.plan)

    def plan_start(args, kwargs):
        bound = plan_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        values = bound.arguments
        key = (
            id(values["self"]), values["kind"], int(values["k"]),
            tuple(values["n_range"]), bool(values["batched"]),
            values["mode"], values["target_recall"],
        )
        return key, key not in planned

    def plan_attrs(args, kwargs, result, start):
        key, cold = start
        planned.add(key)
        return {"cold": cold, "engine": getattr(result, "engine", None)}

    wrap(QueryPlanner, "plan", "plan", before=plan_start, annotate=plan_attrs)

    scatter = coordinator.ScatterGatherCoordinator
    wrap(scatter, "k_n_match", "shard.query", fanout=True)
    wrap(scatter, "frequent_k_n_match", "shard.frequent", fanout=True)
    wrap(scatter, "k_n_match_batch", "shard.batch", fanout=True,
         annotate=lambda a, k, result, pre: {"rows": int(len(a[1]))})
    wrap(coordinator, "merge_top_k", "merge")
    wrap(MatchDatabase, "k_n_match", "engine.query", adopt=True)
    wrap(MatchDatabase, "frequent_k_n_match", "engine.frequent", adopt=True)
    wrap(MatchDatabase, "k_n_match_batch", "engine.batch", adopt=True)

    wrap(LsmMatchDatabase, "insert", "lsm.insert")
    wrap(LsmMatchDatabase, "delete", "lsm.delete")
    wrap(LsmMatchDatabase, "k_n_match", "lsm.query")
    wrap(LsmMatchDatabase, "flush", "lsm.flush")
    wrap(LsmMatchDatabase, "compact_once", "lsm.compact",
         annotate=lambda a, k, merged, pre: {"merged": bool(merged)})
    wrap(WalWriter, "append", "lsm.wal_append")
    wrap(WalWriter, "sync", "lsm.wal_sync")
    wrap(Memtable, "add", "lsm.memtable_add")
    wrap(Memtable, "collect_candidates", "lsm.memtable_scan")
    wrap(Segment, "collect_candidates", "lsm.segment_search")
    return recorder


# ----------------------------------------------------------------------
# analysis (benchmark process)
# ----------------------------------------------------------------------
class Span(NamedTuple):
    sid: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    attrs: Optional[dict]

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


def load_spans(path: str) -> List[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span(*row) for row in json.load(handle)]


def _mean(values) -> float:
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0


def _covered(interval_start: float, interval_end: float, spans) -> float:
    """Length of ``[start, end]`` covered by the union of ``spans``."""
    covered, cursor = 0.0, interval_start
    for span in sorted(spans, key=lambda s: s.start):
        start, end = max(span.start, cursor), min(span.end, interval_end)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def self_ms(span: Span, children: Dict[int, List[Span]]) -> float:
    """A span's self time: its duration minus the time its children cover."""
    kids = children.get(span.sid, [])
    return (span.end - span.start - _covered(span.start, span.end, kids)) * 1e3


def exclusive_ms(tree: List[Span], children: Dict[int, List[Span]]) -> Dict[str, float]:
    """Split a request's wall interval among its innermost open spans.

    On one thread this is each span's self time.  Where children run
    in parallel on pool threads, an instant covered by several of them
    is shared equally, so the layers of one request sum to its root
    duration exactly.
    """
    points = sorted({t for span in tree for t in (span.start, span.end)})
    totals: Dict[str, float] = defaultdict(float)
    for left, right in zip(points, points[1:]):
        active = [s for s in tree if s.start <= left and s.end >= right]
        active_ids = {s.sid for s in active}
        innermost = [
            s for s in active
            if not any(c.sid in active_ids for c in children.get(s.sid, ()))
        ]
        for span in innermost:
            totals[span.name] += (right - left) * 1e3 / len(innermost)
    return totals


def analyse(spans: List[Span], samples) -> Dict:
    """Per-layer metrics, the layer budget and the accounting check."""
    by_name: Dict[str, List[Span]] = defaultdict(list)
    children: Dict[int, List[Span]] = defaultdict(list)
    known = {span.sid for span in spans}
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None and span.parent in known:
            children[span.parent].append(span)

    roots = {}
    for span in by_name["serve.handle"]:
        if span.attrs and span.attrs.get("trace"):
            roots[request_of_trace(span.attrs["trace"])] = span

    def tree_of(root: Span) -> List[Span]:
        tree, pending = [], [root]
        while pending:
            span = pending.pop()
            tree.append(span)
            pending.extend(children.get(span.sid, ()))
        return tree

    budget: Dict[str, float] = defaultdict(float)
    wall_total = 0.0
    joined = 0
    handle_q, outside_q = [], []
    parse_per_request, encode_per_request = [], []
    for sample in samples:
        if sample.status != 200:
            continue
        wall = (sample.end - sample.start) * 1e3
        wall_total += wall
        root = roots.get((sample.client, sample.index))
        if root is None:
            continue
        joined += 1
        tree = tree_of(root)
        for name, value in exclusive_ms(tree, children).items():
            budget[name] += value
        budget["serve.outside_app"] += wall - root.ms
        parse_per_request.append(
            sum(s.ms for s in tree if s.name == "protocol.parse"))
        encode_per_request.append(
            sum(s.ms for s in tree if s.name == "protocol.encode"))
        if sample.path == "/v1/query":
            handle_q.append(root.ms)
            outside_q.append(wall - root.ms)

    requests = max(1, joined)
    table = {
        name: {
            "ms_per_request": total / requests,
            "share_of_wall": total / wall_total if wall_total else 0.0,
        }
        for name, total in sorted(budget.items(), key=lambda kv: -kv[1])
    }
    attributed = sum(budget.values())

    def median(values) -> float:
        return float(np.median(values)) if values else 0.0

    queue = [s.attrs["queue_s"] * 1e3 for s in by_name["admission.admit"]
             if s.attrs]
    gets = by_name["cache.get"]
    plans = by_name["plan"]
    cold = [s for s in plans if s.attrs["cold"]]
    warm = [s for s in plans if not s.attrs["cold"]]

    slowest, imbalance, overhead = [], [], []
    for span in by_name["shard.query"]:
        calls = [c.ms for c in children.get(span.sid, ()) if c.name == "engine.query"]
        merges = sum(c.ms for c in children.get(span.sid, ()) if c.name == "merge")
        if not calls:
            continue
        slowest.append(max(calls))
        imbalance.append(max(calls) / max(_mean(calls), 1e-9))
        overhead.append(span.ms - max(calls) - merges)
    batch_rows = sum(s.attrs["rows"] for s in by_name["shard.batch"])

    lsm_queries = by_name["lsm.query"]

    def child_sum(span: Span, name: str) -> float:
        return sum(c.ms for c in children.get(span.sid, ()) if c.name == name)

    metrics = {
        "serve.handle_ms": median(handle_q),
        "serve.outside_app_ms": median(outside_q),
        "protocol.parse_ms": _mean(parse_per_request),
        "protocol.encode_ms": _mean(encode_per_request),
        "admission.queue_p95_ms": (
            float(np.percentile(queue, 95)) if queue else 0.0),
        "cache.hit_ratio": (
            sum(s.attrs["hit"] for s in gets) / len(gets) if gets else 0.0),
        "cache.get_ms": _mean(s.ms for s in gets),
        "cache.put_ms": _mean(s.ms for s in by_name["cache.put"]),
        "cache.evictions": sum(s.attrs["evicted"] for s in by_name["cache.put"]),
        "plan.calls": len(plans),
        "plan.cold_calls": len(cold),
        "plan.cold_ms": sum(s.ms for s in cold),
        "plan.warm_ms": _mean(s.ms for s in warm),
        "engine.query_ms": _mean(s.ms for s in by_name["engine.query"]),
        "engine.frequent_ms": _mean(s.ms for s in by_name["engine.frequent"]),
        "batch.ms_per_row": (
            sum(s.ms for s in by_name["shard.batch"]) / batch_rows
            if batch_rows else 0.0),
        "shard.query_ms": _mean(s.ms for s in by_name["shard.query"]),
        "shard.slowest_ms": _mean(slowest),
        "shard.imbalance": _mean(imbalance),
        "merge.ms": _mean(s.ms for s in by_name["merge"]),
        "shard.fanout_overhead_ms": _mean(overhead),
        "lsm.insert_ms": _mean(s.ms for s in by_name["lsm.insert"]),
        "lsm.wal_append_ms": _mean(s.ms for s in by_name["lsm.wal_append"]),
        "lsm.wal_sync_ms": _mean(s.ms for s in by_name["lsm.wal_sync"]),
        "lsm.wal_syncs": len(by_name["lsm.wal_sync"]),
        "lsm.insert_wait_ms": _mean(
            self_ms(s, children) for s in by_name["lsm.insert"]),
        "lsm.flush_ms": _mean(s.ms for s in by_name["lsm.flush"]),
        "lsm.compact_ms": _mean(
            s.ms for s in by_name["lsm.compact"] if s.attrs["merged"]),
        "lsm.query_ms": _mean(s.ms for s in lsm_queries),
        "lsm.segment_search_ms": _mean(
            child_sum(s, "lsm.segment_search") for s in lsm_queries),
        "lsm.memtable_scan_ms": _mean(
            child_sum(s, "lsm.memtable_scan") for s in lsm_queries),
        "lsm.segments_per_query": _mean(
            sum(c.name == "lsm.segment_search" for c in children.get(s.sid, ()))
            for s in lsm_queries),
    }
    return {
        "metrics": metrics,
        "budget": table,
        "accounting": {
            "client_wall_ms": wall_total,
            "attributed_ms": attributed,
            "joined_requests": joined,
            "ok_requests": sum(1 for s in samples if s.status == 200),
        },
    }
