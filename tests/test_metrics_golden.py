"""``/metrics`` exposition golden: what every facade records, by name.

A fixed query mix runs with a :class:`~repro.obs.MetricsRegistry`
installed on every facade — flat (every engine, serial and parallel
batches, both approx engines), sharded over threads and processes, LSM
(insert / delete / flush / compact / query), dynamic, the disk engine
and a served query (read back through ``GET /metrics``) — and each
registry's Prometheus rendering is compared with the committed
``tests/metrics.golden``.

The golden keeps every metric family, every label set, every counter
and gauge value and every histogram ``_count``.  Values that depend on
the clock or on thread scheduling are masked with ``*``: the samples,
sums and bucket counts of every ``*_seconds*`` family and of
``repro_batch_straggler_ratio``; ``repro_batch_worker_*`` samples are
dropped outright, because which pool thread ran a shard decides their
``worker`` labels.  Regenerate with
``REPRO_UPDATE_GOLDEN=1 python -m pytest tests/test_metrics_golden.py``.
"""

from __future__ import annotations

import os
import pathlib
import re

import numpy as np

from repro.core.dynamic import DynamicMatchDatabase
from repro.core.engine import ENGINE_NAMES, MatchDatabase
from repro.data import float32_exact
from repro.disk import DiskADEngine
from repro.lsm import LsmMatchDatabase
from repro.obs import MetricsRegistry, render_prometheus
from repro.serve import ServeApp
from repro.serve.protocol import canonical_json
from repro.shard import ShardedMatchDatabase

GOLDEN_PATH = pathlib.Path(__file__).with_name("metrics.golden")

K, N, N_RANGE = 5, 3, (2, 5)

_SAMPLE = re.compile(r"^(?P<name>[a-z_]+)(?P<labels>\{.*\})? (?P<value>\S+)$")


def _masked(text: str) -> str:
    """The exposition with clock- and scheduling-dependent values masked."""
    kinds = {}
    out = []
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            kinds[name] = kind
        if line.startswith("#"):
            out.append(line)
            continue
        match = _SAMPLE.match(line)
        name = match.group("name")
        family = name
        if kinds.get(name) is None:
            family = re.sub(r"_(bucket|sum|count)$", "", name)
        if family.startswith("repro_batch_worker_"):
            continue
        timed = "_seconds" in family or family == "repro_batch_straggler_ratio"
        counted = kinds[family] == "histogram" and name == f"{family}_count"
        if timed and not counted:
            line = f"{name}{match.group('labels') or ''} *"
        out.append(line)
    return "\n".join(out) + "\n"


def _data():
    rng = np.random.default_rng(22)
    data = float32_exact(rng.random((200, 6)))
    return data, data[[3, 8]] + 0.01


def _sections(tmp_path):
    """Label -> masked exposition of one facade's fixed query mix."""
    data, queries = _data()
    query = queries[0]
    sections = {}

    def record(label, run):
        registry = MetricsRegistry()
        exposition = run(registry)
        sections[label] = _masked(exposition or render_prometheus(registry))

    def flat(registry):
        db = MatchDatabase(data, metrics=registry)
        for engine in ENGINE_NAMES:
            db.k_n_match(query, K, N, engine=engine)
            db.frequent_k_n_match(query, K, N_RANGE, engine=engine)
            db.k_n_match_batch(queries, K, N, engine=engine)
            db.frequent_k_n_match_batch(queries, K, N_RANGE, engine=engine)
        db.k_n_match_batch(queries, K, N, engine="block-ad", workers=2)
        db.frequent_k_n_match_batch(
            queries, K, N_RANGE, engine="batch-block-ad", workers=2
        )
        for engine, options in (
            ("budget-ad", dict(budget=60)),
            ("budget-ad", {}),
            ("pivot-sketch", dict(candidate_multiplier=2)),
        ):
            db.k_n_match(query, K, N, mode="approx", engine=engine, **options)
        db.k_n_match_batch(
            queries, K, N, mode="approx", engine="pivot-sketch", budget=60
        )

    record("flat", flat)

    def sharded(backend):
        def run(registry):
            with ShardedMatchDatabase(
                data, shards=3, workers=2, backend=backend, metrics=registry
            ) as db:
                db.k_n_match(query, K, N)
                db.frequent_k_n_match(query, K, N_RANGE, engine="block-ad")
                db.k_n_match_batch(queries, K, N, engine="batch-block-ad")
                db.frequent_k_n_match_batch(queries, K, N_RANGE)
                if backend == "thread":
                    db.k_n_match(query, K, N, mode="approx", budget=60)
                    db.k_n_match_batch(
                        queries, K, N, mode="approx", engine="pivot-sketch"
                    )

        return run

    record("sharded/thread", sharded("thread"))
    record("sharded/process", sharded("process"))

    def lsm(registry):
        db = LsmMatchDatabase(
            tmp_path / "lsm",
            dimensionality=data.shape[1],
            memtable_flush_rows=16,
            level_fanout=2,
            auto_compact=False,
            metrics=registry,
        )
        try:
            for row in data[:40]:
                db.insert(row)
            db.delete(3)
            db.delete(35)
            db.k_n_match(query, K, N)
            db.frequent_k_n_match(query, K, N_RANGE)
            db.flush()
            db.compact()
            db.k_n_match(query, K, N)
        finally:
            db.close()

    record("lsm", lsm)

    def dynamic(registry):
        db = DynamicMatchDatabase(data[:100], metrics=registry)
        for row in data[100:120]:
            db.insert(row)
        db.delete(7)
        db.k_n_match(query, K, N)
        db.frequent_k_n_match(query, K, N_RANGE)

    record("dynamic", dynamic)

    def disk(registry):
        engine = DiskADEngine(data, metrics=registry)
        engine.k_n_match(query, K, N)
        engine.frequent_k_n_match(query, K, N_RANGE)

    record("disk-ad", disk)

    def served(registry):
        app = ServeApp(MatchDatabase(data), metrics=registry)
        body = canonical_json({"query": list(query), "k": K, "n": N})
        for _ in range(2):  # a miss, then a hit
            app.handle("POST", "/v1/query", body)
        app.handle("POST", "/v1/query", b"{")
        status, _headers, exposition = app.handle("GET", "/metrics", b"")
        assert status == 200
        return exposition.decode()

    record("serve", served)
    return sections


def _format_golden(sections):
    return "".join(
        f"== {label} ==\n{text}" for label, text in sorted(sections.items())
    )


class TestMetricsGolden:
    """Every facade's metric names, labels and counts match the golden."""

    def test_matches_golden(self, tmp_path):
        text = _format_golden(_sections(tmp_path))
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            GOLDEN_PATH.write_text(text)
        assert text == GOLDEN_PATH.read_text()
