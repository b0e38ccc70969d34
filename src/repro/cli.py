"""Command-line interface.

Subcommands::

    repro generate  --kind uniform --cardinality 10000 --dimensionality 16 out.npy
    repro build     data.npy db.npz [--shards 4 --partitioner hash]
    repro info      db.npz
    repro shard-info db.npz
    repro query     db.npz --k 5 --n 8 --query 0.1,0.2,...     (k-n-match)
    repro query     db.npz --k 5 --n-range 4:12 --query-row 42 (frequent)
    repro batch     db.npz --k 5 --n 8 --queries batch.npy --workers 4
    repro stats     db.npz --k 5 --n 8 --format prom [--engine block-ad]
    repro trace     db.npz --k 5 --n 8 --query-row 0 [--chrome-out t.json]
    repro advise    db.npz --k 20 --n-range 4:8 [--minimize disk-time]
    repro plan      db.npz --k 20 --n 8 [--save]   (calibrate engine=auto)
    repro serve     db.npz --port 8707 --max-inflight 64 --cache-size 1024
    repro serve     --store store_dir/ [--dimensionality 16]  (mutable LSM)
    repro flight    --host 127.0.0.1 --port 8707 [--trace ID --chrome-out t.json]
    repro lsm-info  store_dir/            (level layout, WAL, compaction stats)
    repro wal-info  store_dir/            (decode the write-ahead log)
    repro compact   store_dir/            (flush + compact to quiescence)
    repro experiments --scale 0.1 --only table4,fig12

``query`` accepts either an inline comma-separated vector (``--query``)
or a row of the database itself (``--query-row``).  ``query`` and
``batch`` accept ``--metrics-out PATH`` to run under a fresh
:class:`~repro.obs.MetricsRegistry` and write its export next to the
answers (Prometheus text for ``.prom``/``.txt`` paths, JSON otherwise);
``stats`` probes a database with one in-memory ``ad`` query and one
disk-backed query and prints the resulting registry.  All output goes to
stdout; exit status is non-zero on any validation or storage error.

Sharding: ``build --shards S`` writes a sharded database file;
``query``/``batch`` open either kind of file and also accept
``--shards S [--partitioner NAME]`` to (re)shard in memory and answer
by scatter-gather — answers are exact either way, so sharded and flat
invocations print identical ids.  ``--shard-backend process`` moves the
per-shard calls into a shared-memory worker-process pool (multi-core
scaling past the GIL; same answers).  ``shard-info`` describes a
sharded file's partitioner and per-shard balance.

Planning: ``--engine auto`` on ``query``/``batch``/``trace``/``serve``
lets the cost-based planner (:mod:`repro.plan`) pick the engine per
query; ``repro plan`` calibrates the per-database cost model and
persists it as a ``<db>.plan.json`` sidecar, which every later
invocation loads automatically.  Answers are bit-identical to any
manual engine choice.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

import numpy as np

from . import __version__
from .approx import APPROX_ENGINE_NAMES, DEFAULT_TARGET_RECALL, MODES
from .core.advisor import recommend_engine
from .core.engine import ENGINE_CHOICES, ENGINE_NAMES, MatchDatabase
from .data import gaussian_clusters, skewed_dataset, uniform_dataset
from .errors import ReproError
from .io import (
    load_any_database,
    load_database,
    save_database,
    save_sharded_database,
)
from .shard.coordinator import SHARD_BACKENDS
from .shard.partition import DEFAULT_PARTITIONER, partitioner_names

__all__ = ["main", "build_parser"]

#: Engines a query-shaped subcommand accepts: the exact registry (plus
#: ``auto``) and, under ``--mode approx``, the approximate tier.
_QUERY_ENGINE_CHOICES = ENGINE_CHOICES + APPROX_ENGINE_NAMES


def _add_approx_args(sub) -> None:
    """The approximate-tier flags shared by query/batch/trace."""
    sub.add_argument(
        "--mode",
        choices=MODES,
        default=None,
        help="approx = approximate tier with a per-query recall "
        "certificate (k-n-match only); default exact",
    )
    sub.add_argument(
        "--budget",
        type=int,
        default=None,
        help="attribute budget for --mode approx (budget-ad)",
    )
    sub.add_argument(
        "--target-recall",
        type=float,
        default=None,
        dest="target_recall",
        help=f"recall target for --mode approx "
        f"(default {DEFAULT_TARGET_RECALL})",
    )
    sub.add_argument(
        "--candidate-multiplier",
        type=int,
        default=None,
        dest="candidate_multiplier",
        help="re-rank pool size per answer slot for --mode approx",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="matching-based similarity search (k-n-match, VLDB'06)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a synthetic dataset as .npy"
    )
    generate.add_argument("output", help="output .npy path")
    generate.add_argument(
        "--kind",
        choices=("uniform", "clustered", "skewed"),
        default="uniform",
    )
    generate.add_argument("--cardinality", type=int, default=10000)
    generate.add_argument("--dimensionality", type=int, default=16)
    generate.add_argument("--seed", type=int, default=0)

    build = commands.add_parser(
        "build", help="build a match database from a .npy array"
    )
    build.add_argument("data", help="input .npy path (cardinality x dims)")
    build.add_argument("output", help="output database .npz path")
    build.add_argument(
        "--engine", choices=ENGINE_NAMES, default="ad", help="default engine"
    )
    build.add_argument(
        "--shards",
        type=int,
        default=None,
        help="write a sharded database with this many shards",
    )
    build.add_argument(
        "--partitioner",
        choices=partitioner_names(),
        default=None,
        help=f"shard assignment strategy (default {DEFAULT_PARTITIONER})",
    )
    build.add_argument(
        "--partition-dim",
        type=int,
        default=0,
        help="dimension for the range partitioner",
    )

    info = commands.add_parser("info", help="describe a database file")
    info.add_argument("database", help="database .npz path")

    shard_info = commands.add_parser(
        "shard-info",
        help="describe a sharded database file (partitioner, balance)",
    )
    shard_info.add_argument("database", help="sharded database .npz path")

    query = commands.add_parser(
        "query", help="run a (frequent) k-n-match query"
    )
    query.add_argument("database", help="database .npz path")
    query.add_argument("--k", type=int, required=True)
    group = query.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="single n: plain k-n-match")
    group.add_argument(
        "--n-range", type=str, help="n0:n1 -> frequent k-n-match"
    )
    source = query.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--query", type=str, help="comma-separated query vector"
    )
    source.add_argument(
        "--query-row", type=int, help="use this database row as the query"
    )
    query.add_argument(
        "--engine", choices=_QUERY_ENGINE_CHOICES, default=None
    )
    _add_approx_args(query)
    query.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard the data and answer by scatter-gather (exact)",
    )
    query.add_argument(
        "--partitioner",
        choices=partitioner_names(),
        default=None,
        help="shard assignment strategy (requires --shards)",
    )
    query.add_argument(
        "--shard-backend",
        choices=SHARD_BACKENDS,
        default="thread",
        help="scatter fan-out backend for sharded execution "
        "(process = shared-memory worker pool; identical answers)",
    )
    query.add_argument(
        "--stats", action="store_true", help="also print work counters"
    )
    query.add_argument(
        "--trace", action="store_true", help="also print a per-query trace"
    )
    query.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        help="export query metrics to this path (.prom -> text, else JSON)",
    )

    batch = commands.add_parser(
        "batch", help="run many (frequent) k-n-match queries in one go"
    )
    batch.add_argument("database", help="database .npz path")
    batch.add_argument("--k", type=int, required=True)
    batch_mode = batch.add_mutually_exclusive_group(required=True)
    batch_mode.add_argument("--n", type=int, help="single n: plain k-n-match")
    batch_mode.add_argument(
        "--n-range", type=str, help="n0:n1 -> frequent k-n-match"
    )
    batch_source = batch.add_mutually_exclusive_group(required=True)
    batch_source.add_argument(
        "--queries", type=str, help=".npy file with one query per row"
    )
    batch_source.add_argument(
        "--query-rows",
        type=str,
        help="A:B -> use database rows [A, B) as the queries",
    )
    batch.add_argument(
        "--engine",
        choices=_QUERY_ENGINE_CHOICES,
        default="batch-block-ad",
        help="engine to run each shard with (auto = planner's choice)",
    )
    _add_approx_args(batch)
    batch.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard the data and answer by scatter-gather (exact)",
    )
    batch.add_argument(
        "--partitioner",
        choices=partitioner_names(),
        default=None,
        help="shard assignment strategy (requires --shards)",
    )
    batch.add_argument(
        "--shard-backend",
        choices=SHARD_BACKENDS,
        default="thread",
        help="scatter fan-out backend for sharded execution "
        "(process = shared-memory worker pool; identical answers)",
    )
    batch.add_argument(
        "--parallel",
        action="store_true",
        default=None,
        help="shard the batch across a thread pool",
    )
    batch.add_argument(
        "--workers",
        type=int,
        default=None,
        help="thread-pool size (implies --parallel)",
    )
    batch.add_argument(
        "--stats", action="store_true", help="also print aggregate counters"
    )
    batch.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        help="export batch metrics to this path (.prom -> text, else JSON)",
    )

    stats = commands.add_parser(
        "stats",
        help="probe a database and export its metrics registry",
        description=(
            "Run one in-memory ad query and one disk-backed AD query "
            "against the database under a fresh metrics registry, then "
            "print the registry (Prometheus text or JSON).  A quick way "
            "to see the attribute-retrieval and page-access profile of "
            "a dataset, and a smoke test for the observability layer."
        ),
    )
    stats.add_argument("database", help="database .npz path")
    stats.add_argument("--k", type=int, default=5)
    stats.add_argument(
        "--n", type=int, default=None, help="defaults to half the dimensions"
    )
    stats.add_argument(
        "--query-row", type=int, default=0, help="database row used as probe"
    )
    stats.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        default="ad",
        help="engine for the in-memory probe query",
    )
    stats.add_argument(
        "--format", choices=("prom", "json"), default="prom"
    )
    stats.add_argument(
        "--no-disk",
        action="store_true",
        help="skip the disk-backed probe (page-read counters stay zero)",
    )

    trace = commands.add_parser(
        "trace",
        help="run a query under a span collector and print phase spans",
        description=(
            "Run one (frequent) k-n-match query with a SpanCollector "
            "installed and print the phase-span tree (where the time "
            "went inside the query).  --chrome-out writes the spans as "
            "Chrome trace_event JSON loadable in chrome://tracing or "
            "Perfetto; --audit additionally checks the engine's "
            "attribute cost against the Fagin-model lower bound of "
            "Thm 3.2/3.3."
        ),
    )
    trace.add_argument("database", help="database .npz path")
    trace.add_argument("--k", type=int, required=True)
    trace_mode = trace.add_mutually_exclusive_group(required=True)
    trace_mode.add_argument("--n", type=int, help="single n: plain k-n-match")
    trace_mode.add_argument(
        "--n-range", type=str, help="n0:n1 -> frequent k-n-match"
    )
    trace_source = trace.add_mutually_exclusive_group(required=True)
    trace_source.add_argument(
        "--query", type=str, help="comma-separated query vector"
    )
    trace_source.add_argument(
        "--query-row", type=int, help="use this database row as the query"
    )
    trace.add_argument(
        "--engine", choices=_QUERY_ENGINE_CHOICES, default=None
    )
    _add_approx_args(trace)
    trace.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard the data and trace the scatter-gather fan-out",
    )
    trace.add_argument(
        "--partitioner",
        choices=partitioner_names(),
        default=None,
        help="shard assignment strategy (requires --shards)",
    )
    trace.add_argument(
        "--shard-backend",
        choices=SHARD_BACKENDS,
        default="thread",
        help="scatter fan-out backend for sharded execution",
    )
    trace.add_argument(
        "--chrome-out",
        type=str,
        default=None,
        help="write the spans as Chrome trace_event JSON to this path",
    )
    trace.add_argument(
        "--audit",
        action="store_true",
        help="audit the engine cost against the Fagin lower bound",
    )
    trace.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        help="slow-query-log threshold in milliseconds",
    )

    advise = commands.add_parser(
        "advise", help="estimate cost and recommend an engine"
    )
    advise.add_argument("database", help="database .npz path")
    advise.add_argument("--k", type=int, required=True)
    advise.add_argument("--n-range", type=str, required=True, help="n0:n1")
    advise.add_argument(
        "--minimize",
        choices=("attributes", "wall-clock", "disk-time"),
        default="wall-clock",
        help="what the recommendation optimises (disk-time prices the "
        "disk engines under the calibrated DiskModel)",
    )
    advise.add_argument(
        "--kind",
        choices=("frequent", "k-n-match"),
        default="frequent",
        help="the workload kind the estimate is taken for",
    )
    advise.add_argument(
        "--page-size",
        type=int,
        default=None,
        help="disk-model page size in bytes (rescales transfer costs; "
        "only meaningful with --minimize disk-time)",
    )
    advise.add_argument("--samples", type=int, default=5)

    plan = commands.add_parser(
        "plan",
        help="calibrate the engine=auto planner and show its decision",
        description=(
            "Run the cost-based planner for one workload: estimate the "
            "retrieval fraction, probe the candidate engines, print the "
            "decision with per-candidate predicted costs, and (with "
            "--save) persist the calibrated cost model as a "
            "<database>.plan.json sidecar that query/batch/trace/serve "
            "--engine auto load automatically."
        ),
    )
    plan.add_argument("database", help="database .npz path")
    plan.add_argument("--k", type=int, required=True)
    plan_mode = plan.add_mutually_exclusive_group(required=True)
    plan_mode.add_argument("--n", type=int, help="single n: plain k-n-match")
    plan_mode.add_argument(
        "--n-range", type=str, help="n0:n1 -> frequent k-n-match"
    )
    plan.add_argument(
        "--batch",
        action="store_true",
        help="plan the batch variant of the workload",
    )
    plan.add_argument(
        "--save",
        action="store_true",
        help="persist the calibrated model as <database>.plan.json",
    )
    plan.add_argument(
        "--from-bench",
        type=str,
        default=None,
        help="seed the model with priors from BENCH_*.json under this "
        "directory before probing",
    )

    serve = commands.add_parser(
        "serve",
        help="serve (frequent) k-n-match queries over HTTP",
        description=(
            "Run an HTTP server answering k-n-match, frequent k-n-match "
            "and batch queries over a versioned JSON protocol (see "
            "docs/serving.md).  Admission control bounds concurrent "
            "queries (--max-inflight) with deadline-aware 429 shedding "
            "(--deadline-ms); a generation-keyed LRU cache (--cache-size) "
            "replays repeated queries byte-identically.  GET /metrics "
            "exposes the repro_serve_* and engine counters in Prometheus "
            "text; SIGTERM/SIGINT drains in-flight queries before exit.  "
            "--port 0 picks an ephemeral port, printed on startup."
        ),
    )
    serve.add_argument(
        "database",
        nargs="?",
        default=None,
        help="database .npz path (omit when serving an LSM store "
        "via --store)",
    )
    serve.add_argument(
        "--store",
        type=str,
        default=None,
        help="serve a mutable LSM store from this directory instead of "
        "a database file; enables POST /v1/insert and /v1/delete "
        "(see docs/durability.md)",
    )
    serve.add_argument(
        "--dimensionality",
        type=int,
        default=None,
        help="with --store on an empty directory: create a fresh store "
        "with this many dimensions",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8707,
        help="listen port (0 picks an ephemeral one, printed on startup)",
    )
    serve.add_argument(
        "--engine",
        choices=_QUERY_ENGINE_CHOICES,
        default=None,
        help="default engine for served queries (auto = planner's choice)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard the data and serve by scatter-gather (exact)",
    )
    serve.add_argument(
        "--partitioner",
        choices=partitioner_names(),
        default=None,
        help="shard assignment strategy (requires --shards)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="shard coordinator pool size (requires --shards)",
    )
    serve.add_argument(
        "--shard-backend",
        choices=SHARD_BACKENDS,
        default="thread",
        help="scatter fan-out backend for sharded serving "
        "(process = shared-memory worker pool; identical answers)",
    )
    serve.add_argument(
        "--mode",
        choices=MODES,
        default=None,
        help="default query mode for requests that set no approx field",
    )
    serve.add_argument(
        "--budget",
        type=int,
        default=None,
        help="default attribute budget under --mode approx",
    )
    serve.add_argument(
        "--target-recall",
        type=float,
        default=None,
        dest="target_recall",
        help="default recall target under --mode approx",
    )
    serve.add_argument(
        "--candidate-multiplier",
        type=int,
        default=None,
        dest="candidate_multiplier",
        help="default re-rank pool multiplier under --mode approx",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="concurrent query limit; excess requests queue then shed (429)",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=1000.0,
        help="default per-request queueing deadline in milliseconds",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        help="result-cache capacity in entries (0 disables caching)",
    )
    serve.add_argument(
        "--drain-seconds",
        type=float,
        default=5.0,
        help="how long shutdown waits for in-flight queries",
    )
    serve.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        help="slow-query threshold in milliseconds: requests at least "
        "this slow land in the slow-query log and the flight recorder "
        "(0 records every query)",
    )
    serve.add_argument(
        "--flight-capacity",
        type=int,
        default=64,
        help="flight-recorder ring size for slow/shed/error requests "
        "(0 disables; inspect via GET /v1/debug/flight or repro flight)",
    )
    serve.add_argument(
        "--access-log",
        type=str,
        default=None,
        help="write one JSON line per request to this path ('-' = stdout)",
    )

    flight = commands.add_parser(
        "flight",
        help="inspect a running server's flight recorder",
        description=(
            "Fetch the flight recorder of a running repro serve instance "
            "(the retained slow/shed/error request records) and print "
            "one line per record, or one full record by trace id.  The "
            "server records requests when started with --slow-ms and/or "
            "--flight-capacity; see docs/observability.md."
        ),
    )
    flight.add_argument("--host", default="127.0.0.1")
    flight.add_argument("--port", type=int, default=8707)
    flight.add_argument(
        "--trace",
        type=str,
        default=None,
        help="print one full record (canonical JSON) by trace id",
    )
    flight.add_argument(
        "--chrome-out",
        type=str,
        default=None,
        help="with --trace: write the record's span tree as Chrome "
        "trace_event JSON to this path",
    )
    flight.add_argument(
        "--json",
        action="store_true",
        help="print the raw canonical JSON instead of the summary lines",
    )

    lsm_info = commands.add_parser(
        "lsm-info",
        help="describe an LSM store directory",
        description=(
            "Print an LSM store's level layout (segments, rows, dead "
            "rows per level), live/tombstone counts, WAL size and the "
            "last compaction's statistics.  Opening the store runs "
            "recovery, so a torn WAL tail is truncated and reported."
        ),
    )
    lsm_info.add_argument("store", help="LSM store directory")
    lsm_info.add_argument(
        "--json",
        action="store_true",
        help="print the raw status as canonical JSON",
    )

    wal_info_cmd = commands.add_parser(
        "wal-info",
        help="decode an LSM store's write-ahead log",
        description=(
            "Read a write-ahead log (a store directory or the wal.log "
            "file itself) without replaying it and print its record "
            "counts, generation span and torn-tail status.  Purely a "
            "read: the log is not truncated or modified."
        ),
    )
    wal_info_cmd.add_argument(
        "path", help="LSM store directory or wal.log path"
    )
    wal_info_cmd.add_argument(
        "--json",
        action="store_true",
        help="print the raw summary as canonical JSON",
    )

    compact_cmd = commands.add_parser(
        "compact",
        help="flush and fully compact an LSM store",
        description=(
            "Open an LSM store, flush its memtable and run leveled "
            "compaction to quiescence (no level over its fanout), then "
            "print the resulting layout.  Queries before and after "
            "return bit-identical answers; this only reclaims "
            "tombstoned rows and reduces the segment count."
        ),
    )
    compact_cmd.add_argument("store", help="LSM store directory")

    approx_info = commands.add_parser(
        "approx-info",
        help="describe and probe the approximate tier for a database",
        description=(
            "Probe both approximate engines on a few database rows and "
            "print what they deliver here: certified recall, attributes "
            "touched versus the exact block-AD baseline, and (for "
            "pivot-sketch) the sketch index footprint.  The certified "
            "recall is a per-query *lower bound* the engine proves, not "
            "a sample estimate."
        ),
    )
    approx_info.add_argument("database", help="database .npz path")
    approx_info.add_argument("--k", type=int, default=10)
    approx_info.add_argument(
        "--n", type=int, default=None, help="defaults to half the dimensions"
    )
    approx_info.add_argument(
        "--target-recall",
        type=float,
        default=None,
        dest="target_recall",
        help=f"recall target probed (default {DEFAULT_TARGET_RECALL})",
    )
    approx_info.add_argument(
        "--probe-queries",
        type=int,
        default=3,
        help="database rows probed per engine",
    )

    experiments = commands.add_parser(
        "experiments", help="regenerate the paper's tables and figures"
    )
    experiments.add_argument("--scale", type=float, default=1.0)
    experiments.add_argument("--queries", type=int, default=3)
    experiments.add_argument("--accuracy-queries", type=int, default=100)
    experiments.add_argument("--only", type=str, default="")
    experiments.add_argument("--csv-dir", type=str, default="")
    experiments.add_argument("--charts", action="store_true")
    return parser


def _parse_range(text: str) -> Tuple[int, int]:
    try:
        n0_text, n1_text = text.split(":")
        return int(n0_text), int(n1_text)
    except ValueError:
        raise ReproError(
            f"invalid n range {text!r}; expected the form n0:n1"
        ) from None


def _resolve_query(args, db: MatchDatabase) -> np.ndarray:
    if args.query is not None:
        try:
            return np.asarray(
                [float(token) for token in args.query.split(",")]
            )
        except ValueError:
            raise ReproError(
                f"invalid --query {args.query!r}; expected comma-separated numbers"
            ) from None
    if not 0 <= args.query_row < db.cardinality:
        raise ReproError(
            f"--query-row {args.query_row} out of range [0, {db.cardinality})"
        )
    return db.data[args.query_row]


def _load_db(args):
    """Open a flat or sharded database; (re)shard when ``--shards``.

    With ``--shards`` the data is repartitioned in memory regardless of
    how the file was stored — answers are exact either way, so this only
    changes the execution strategy, never the output.  ``--shard-backend``
    likewise only moves where the per-shard calls run (stored sharded
    files included); it never changes answers.
    """
    backend = getattr(args, "shard_backend", None) or "thread"
    db = load_any_database(
        args.database, backend=backend, workers=getattr(args, "workers", None)
    )
    shards = getattr(args, "shards", None)
    partitioner = getattr(args, "partitioner", None)
    if shards is not None:
        from .shard import ShardedMatchDatabase

        db = ShardedMatchDatabase(
            db.data,
            shards=shards,
            partitioner=partitioner or DEFAULT_PARTITIONER,
            default_engine=db.default_engine,
            workers=getattr(args, "workers", None),
            backend=backend,
        )
    else:
        if partitioner is not None:
            raise ReproError("--partitioner requires --shards")
        if backend != "thread" and not hasattr(db, "shard_count"):
            raise ReproError(
                "--shard-backend requires a sharded database file or --shards"
            )
    _install_plan_model(db, args.database)
    return db


def _install_plan_model(db, database_path: str) -> None:
    """Load the ``<db>.plan.json`` sidecar, when present, onto the facade."""
    from .plan import load_plan_model

    model = load_plan_model(database_path)
    if model is not None and hasattr(db, "set_plan_model"):
        db.set_plan_model(model)


def _make_registry(args):
    """A fresh registry when ``--metrics-out`` was given, else ``None``."""
    if getattr(args, "metrics_out", None) is None:
        return None
    from .obs import MetricsRegistry

    return MetricsRegistry()


def _write_metrics(registry, path: str) -> None:
    from .obs import render_json, render_prometheus

    if path.endswith((".prom", ".txt")):
        text = render_prometheus(registry)
    else:
        text = render_json(registry) + "\n"
    with open(path, "w") as handle:
        handle.write(text)
    print(f"wrote metrics to {path}")


def _approx_cli_kwargs(args) -> dict:
    """The facade kwargs the approx CLI flags resolve to (non-None only)."""
    fields = {
        "mode": getattr(args, "mode", None),
        "budget": getattr(args, "budget", None),
        "target_recall": getattr(args, "target_recall", None),
        "candidate_multiplier": getattr(args, "candidate_multiplier", None),
    }
    return {
        name: value for name, value in fields.items() if value is not None
    }


def _check_frequent_approx_flags(args) -> dict:
    """Frequent queries accept ``--mode`` only (to reject it canonically)."""
    extras = [
        flag
        for flag, name in (
            ("--budget", "budget"),
            ("--target-recall", "target_recall"),
            ("--candidate-multiplier", "candidate_multiplier"),
        )
        if getattr(args, name, None) is not None
    ]
    if extras:
        raise ReproError(
            f"{'/'.join(extras)} apply to k-n-match queries (--n); "
            f"frequent k-n-match has no approximate mode"
        )
    mode = getattr(args, "mode", None)
    return {} if mode is None else {"mode": mode}


def _print_certificate(result) -> None:
    """One line stating what an approximate answer provably delivers."""
    if not hasattr(result, "certified_recall"):
        return
    bound = result.unseen_lower_bound
    tail = (
        f", unseen difference >= {bound:.6f}" if bound is not None else ""
    )
    print(
        f"certificate: recall >= {result.certified_recall:.3f} "
        f"({result.certified_count}/{result.k} answers certified, "
        f"engine={result.engine}, attributes="
        f"{result.stats.attributes_retrieved}"
        f"/{result.stats.total_attributes}{tail})"
    )


def _print_stats(stats) -> None:
    print(
        f"stats: attributes={stats.attributes_retrieved}"
        f"/{stats.total_attributes} ({stats.fraction_retrieved:.1%}), "
        f"heap pops={stats.heap_pops}, pages seq={stats.sequential_page_reads} "
        f"rand={stats.random_page_reads}"
    )


def _run_generate(args) -> int:
    if args.kind == "uniform":
        data = uniform_dataset(args.cardinality, args.dimensionality, args.seed)
    elif args.kind == "clustered":
        data, _labels = gaussian_clusters(
            args.cardinality, args.dimensionality, seed=args.seed
        )
    else:
        data = skewed_dataset(args.cardinality, args.dimensionality, args.seed)
    np.save(args.output, data)
    print(f"wrote {args.kind} dataset {data.shape} to {args.output}")
    return 0


def _run_build(args) -> int:
    try:
        data = np.load(args.data)
    except (OSError, ValueError) as error:
        raise ReproError(f"cannot read {args.data!r}: {error}") from error
    if args.shards is not None:
        from .shard import ShardedMatchDatabase

        options = (
            {"dimension": args.partition_dim}
            if args.partitioner == "range"
            else {}
        )
        db = ShardedMatchDatabase(
            data,
            shards=args.shards,
            partitioner=args.partitioner or DEFAULT_PARTITIONER,
            default_engine=args.engine,
            **options,
        )
        save_sharded_database(db, args.output)
        print(
            f"built sharded database: {db.cardinality} points x "
            f"{db.dimensionality} dims, {db.shard_count} shards "
            f"({db.partitioner.describe()}) -> {args.output}"
        )
        return 0
    if args.partitioner is not None:
        raise ReproError("--partitioner requires --shards")
    db = MatchDatabase(data, default_engine=args.engine)
    save_database(db, args.output)
    print(
        f"built database: {db.cardinality} points x {db.dimensionality} "
        f"dims -> {args.output}"
    )
    return 0


def _run_info(args) -> int:
    db = load_any_database(args.database)
    print(f"cardinality:     {db.cardinality}")
    print(f"dimensionality:  {db.dimensionality}")
    print(f"default engine:  {db.default_engine}")
    print(f"attribute count: {db.cardinality * db.dimensionality}")
    if hasattr(db, "shard_count"):
        print(f"shards:          {db.shard_count}")
        print(f"partitioner:     {db.partitioner.describe()}")
    return 0


def _run_shard_info(args) -> int:
    db = load_any_database(args.database)
    if not hasattr(db, "shard_count"):
        raise ReproError(
            f"{args.database!r} is a flat database; rebuild it with "
            f"'repro build --shards' to shard it"
        )
    sizes = db.shard_sizes
    occupied = [size for size in sizes if size]
    print(f"cardinality:     {db.cardinality}")
    print(f"dimensionality:  {db.dimensionality}")
    print(f"default engine:  {db.default_engine}")
    print(f"partitioner:     {db.partitioner.describe()}")
    print(f"shards:          {db.shard_count} ({len(occupied)} non-empty)")
    print(
        f"trace label:     sharded[{db.shard_count}x{db.default_engine}"
        f"/{db.partitioner.name}]"
    )
    if occupied:
        mean = db.cardinality / len(occupied)
        balance = max(occupied) / mean if mean else 1.0
        print(
            f"shard sizes:     min={min(occupied)} max={max(occupied)} "
            f"(balance: largest/mean = {balance:.2f})"
        )
    for index, size in enumerate(sizes):
        print(f"  shard {index:4d}: {size} points")
    return 0


def _run_query(args) -> int:
    db = _load_db(args)
    registry = _make_registry(args)
    db.set_metrics(registry)
    query = _resolve_query(args, db)
    if args.n is not None:
        result = db.k_n_match(
            query, args.k, args.n, engine=args.engine, trace=args.trace,
            **_approx_cli_kwargs(args),
        )
        print(f"{args.k}-{args.n}-match answers (id, difference):")
        for pid, diff in result:
            print(f"  {pid:8d}  {diff:.6f}")
        _print_certificate(result)
    else:
        n_range = _parse_range(args.n_range)
        result = db.frequent_k_n_match(
            query,
            args.k,
            n_range,
            engine=args.engine,
            keep_answer_sets=False,
            trace=args.trace,
            **_check_frequent_approx_flags(args),
        )
        print(
            f"frequent {args.k}-n-match over n in "
            f"[{n_range[0]}, {n_range[1]}] (id, appearances):"
        )
        for pid, count in result:
            print(f"  {pid:8d}  {count}")
    if args.stats:
        _print_stats(result.stats)
    if args.trace and result.trace is not None:
        print(result.trace.summary())
    if args.metrics_out is not None:
        _write_metrics(registry, args.metrics_out)
    if hasattr(db, "close"):
        db.close()
    return 0


def _resolve_query_batch(args, db: MatchDatabase) -> np.ndarray:
    if args.queries is not None:
        try:
            queries = np.load(args.queries)
        except (OSError, ValueError) as error:
            raise ReproError(
                f"cannot read {args.queries!r}: {error}"
            ) from error
        return np.atleast_2d(np.asarray(queries, dtype=np.float64))
    start, stop = _parse_range(args.query_rows)
    if not 0 <= start <= stop <= db.cardinality:
        raise ReproError(
            f"--query-rows {args.query_rows!r} out of range "
            f"[0, {db.cardinality}]"
        )
    return db.data[start:stop]


def _run_batch(args) -> int:
    import time

    db = _load_db(args)
    registry = _make_registry(args)
    db.set_metrics(registry)
    queries = _resolve_query_batch(args, db)
    if hasattr(db, "shard_count"):
        # the coordinator owns parallelism; workers were set at load time
        kwargs = dict(engine=args.engine)
    else:
        kwargs = dict(
            engine=args.engine, parallel=args.parallel, workers=args.workers
        )
    approx = _approx_cli_kwargs(args)
    if approx.get("mode") == "approx" and args.engine == "batch-block-ad":
        # the batch default engine is exact; under --mode approx let the
        # approximate tier pick its own default instead of rejecting
        kwargs["engine"] = None
    started = time.perf_counter()
    if args.n is not None:
        results = db.k_n_match_batch(
            queries, args.k, args.n, **kwargs, **approx
        )
        elapsed = time.perf_counter() - started
        print(
            f"{args.k}-{args.n}-match over {len(results)} queries "
            f"(query: id,id,... in ascending difference order):"
        )
        for index, result in enumerate(results):
            print(f"  {index:6d}: {','.join(str(pid) for pid in result.ids)}")
        if results and hasattr(results[0], "certified_recall"):
            recalls = [result.certified_recall for result in results]
            print(
                f"certificates: recall >= {min(recalls):.3f} (weakest), "
                f"mean {sum(recalls) / len(recalls):.3f} over "
                f"{len(recalls)} queries"
            )
    else:
        n_range = _parse_range(args.n_range)
        results = db.frequent_k_n_match_batch(
            queries, args.k, n_range, keep_answer_sets=False, **kwargs,
            **_check_frequent_approx_flags(args),
        )
        elapsed = time.perf_counter() - started
        print(
            f"frequent {args.k}-n-match over n in [{n_range[0]}, {n_range[1]}], "
            f"{len(results)} queries (query: id,id,... by appearances):"
        )
        for index, result in enumerate(results):
            print(f"  {index:6d}: {','.join(str(pid) for pid in result.ids)}")
    if args.stats:
        from .core.types import SearchStats

        total = SearchStats.aggregate([result.stats for result in results])
        rate = len(results) / elapsed if elapsed > 0 else 0.0
        print(
            f"batch: {len(results)} queries in {elapsed:.3f}s "
            f"({rate:.1f} q/s)"
        )
        _print_stats(total)
    if args.metrics_out is not None:
        _write_metrics(registry, args.metrics_out)
    if hasattr(db, "close"):
        db.close()
    return 0


def _run_stats(args) -> int:
    db = load_database(args.database)
    if not 0 <= args.query_row < db.cardinality:
        raise ReproError(
            f"--query-row {args.query_row} out of range [0, {db.cardinality})"
        )
    from .obs import MetricsRegistry, render_json, render_prometheus

    registry = MetricsRegistry()
    db.set_metrics(registry)
    query = db.data[args.query_row]
    n = args.n if args.n is not None else max(1, db.dimensionality // 2)
    db.k_n_match(query, args.k, n, engine=args.engine)
    if not args.no_disk:
        from .disk import DiskADEngine

        disk = DiskADEngine(db.data, metrics=registry)
        disk.k_n_match(query, args.k, n)
    if args.format == "json":
        print(render_json(registry))
    else:
        print(render_prometheus(registry), end="")
    return 0


def _run_trace(args) -> int:
    from .obs import SpanCollector, render_chrome_json, render_span_text

    db = _load_db(args)
    query = _resolve_query(args, db)
    threshold = (
        args.slow_ms / 1000.0 if args.slow_ms is not None else None
    )
    collector = SpanCollector(slow_threshold_seconds=threshold)
    db.set_spans(collector)
    if args.n is not None:
        result = db.k_n_match(
            query, args.k, args.n, engine=args.engine,
            **_approx_cli_kwargs(args),
        )
        print(f"{args.k}-{args.n}-match answers (id, difference):")
        for pid, diff in result:
            print(f"  {pid:8d}  {diff:.6f}")
        _print_certificate(result)
    else:
        n_range = _parse_range(args.n_range)
        result = db.frequent_k_n_match(
            query, args.k, n_range, engine=args.engine,
            keep_answer_sets=False, **_check_frequent_approx_flags(args),
        )
        print(
            f"frequent {args.k}-n-match over n in "
            f"[{n_range[0]}, {n_range[1]}] (id, appearances):"
        )
        for pid, count in result:
            print(f"  {pid:8d}  {count}")
    traces = collector.traces()
    print(f"spans ({len(traces)} trace{'s' if len(traces) != 1 else ''}):")
    for root in traces:
        print(render_span_text(root))
    if threshold is not None:
        slow = collector.slow_traces()
        print(
            f"slow-query log (>= {args.slow_ms:g}ms): "
            f"{len(slow)} trace{'s' if len(slow) != 1 else ''}"
        )
    if args.chrome_out is not None:
        with open(args.chrome_out, "w") as handle:
            handle.write(
                render_chrome_json(traces, epoch=collector.epoch) + "\n"
            )
        print(f"wrote Chrome trace to {args.chrome_out}")
    if args.audit:
        from .obs import audit_result

        engine_label = args.engine or db.default_engine
        report = audit_result(db.data, query, result, engine=engine_label)
        print(report.summary())
    if hasattr(db, "close"):
        db.close()
    return 0


def _run_advise(args) -> int:
    db = load_database(args.database)
    disk_model = None
    if args.page_size is not None:
        from .storage import DEFAULT_DISK_MODEL

        disk_model = DEFAULT_DISK_MODEL.with_page_size(args.page_size)
    advice = recommend_engine(
        db,
        args.k,
        _parse_range(args.n_range),
        minimize=args.minimize,
        sample_queries=args.samples,
        kind=args.kind,
        disk_model=disk_model,
    )
    print(str(advice.estimate))
    print(f"recommended engine: {advice.engine}")
    print(f"reason: {advice.reason}")
    return 0


def _run_plan(args) -> int:
    from .plan import PlanModel, load_plan_model, save_plan_model

    db = load_any_database(args.database)
    model = load_plan_model(args.database)
    if model is None and args.from_bench is not None:
        model = PlanModel.from_reports(args.from_bench)
        print(
            f"seeded model from bench reports: "
            f"{', '.join(model.engines) or 'none matched'}"
        )
    if model is not None:
        db.set_plan_model(model)
    if args.n is not None:
        kind, n_range = "k_n_match", (args.n, args.n)
    else:
        kind, n_range = "frequent_k_n_match", _parse_range(args.n_range)
    plan = db.plan_query(kind, args.k, n_range, batched=args.batch)
    print(plan.describe())
    if plan.estimate is not None:
        print(f"estimate: {plan.estimate}")
    fitted = db.planner.model
    print("cost curves (seconds per cell):")
    for name in fitted.engines:
        curve = fitted.curve(name)
        print(
            f"  {name:15s} {curve.seconds_per_cell:.3e} "
            f"({curve.source}, {curve.samples} sample"
            f"{'s' if curve.samples != 1 else ''})"
        )
    if args.save:
        path = save_plan_model(fitted, args.database)
        print(f"wrote plan model to {path}")
    if hasattr(db, "close"):
        db.close()
    return 0


def _run_experiments(args) -> int:
    from .experiments import runall

    argv: List[str] = [
        "--scale",
        str(args.scale),
        "--queries",
        str(args.queries),
        "--accuracy-queries",
        str(args.accuracy_queries),
    ]
    if args.only:
        argv += ["--only", args.only]
    if args.csv_dir:
        argv += ["--csv-dir", args.csv_dir]
    if args.charts:
        argv += ["--charts"]
    return runall.main(argv)


def _open_store(args):
    """Open (or, with --dimensionality, create) the LSM store for serve."""
    from .lsm import LsmMatchDatabase

    for flag, name in (
        ("--shards", "shards"),
        ("--partitioner", "partitioner"),
        ("--engine", "engine"),
    ):
        if getattr(args, name, None) is not None:
            raise ReproError(f"{flag} does not apply to --store serving")
    return LsmMatchDatabase(
        args.store, dimensionality=args.dimensionality
    )


def _run_serve(args) -> int:
    from .obs import SpanCollector
    from .serve import MatchServer, ServeApp

    if args.store is not None:
        if args.database is not None:
            raise ReproError(
                "give either a database file or --store, not both"
            )
        db = _open_store(args)
    elif args.database is None:
        raise ReproError("provide a database file or --store <dir>")
    else:
        if args.dimensionality is not None:
            raise ReproError("--dimensionality requires --store")
        db = _load_db(args)
    slow_threshold = (
        args.slow_ms / 1000.0 if args.slow_ms is not None else None
    )
    access_log = None
    access_log_note = ""
    if args.access_log is not None:
        if args.access_log == "-":
            access_log = sys.stdout
        else:
            access_log = open(args.access_log, "a", encoding="utf-8")
        access_log_note = f", access-log={args.access_log}"
    try:
        app = ServeApp(
            db,
            default_engine=args.engine,
            max_inflight=args.max_inflight,
            deadline_ms=args.deadline_ms,
            cache_size=args.cache_size,
            default_mode=args.mode,
            default_budget=args.budget,
            default_target_recall=args.target_recall,
            default_candidate_multiplier=args.candidate_multiplier,
            spans=SpanCollector(),
            slow_threshold_seconds=slow_threshold,
            flight_capacity=args.flight_capacity,
            access_log=access_log,
        )
        server = MatchServer(app, host=args.host, port=args.port)
        shard_note = (
            f", {db.shard_count} shards" if hasattr(db, "shard_count") else ""
        )
        store_note = (
            f", store={args.store} gen={db.generation}"
            if args.store is not None
            else ""
        )
        # the port line is load-bearing: with --port 0, clients (and the
        # CLI e2e test) learn the ephemeral port from it.
        print(
            f"serving {db.cardinality} points x {db.dimensionality} dims"
            f"{shard_note}{store_note} on http://{server.host}:{server.port} "
            f"(max-inflight={args.max_inflight}, "
            f"deadline={args.deadline_ms:g}ms, "
            f"cache={args.cache_size})",
            flush=True,
        )
        slow_note = (
            f"slow-ms={args.slow_ms:g}" if args.slow_ms is not None
            else "slow-ms off"
        )
        print(
            f"flight recorder: capacity={args.flight_capacity}, "
            f"{slow_note}{access_log_note}",
            flush=True,
        )
        if args.mode == "approx":
            target = (
                args.target_recall
                if args.target_recall is not None
                else (DEFAULT_TARGET_RECALL if args.budget is None else None)
            )
            note = f"budget={args.budget}" if args.budget is not None else (
                f"target recall {target:g}"
            )
            print(f"default mode: approx ({note})", flush=True)
        server.run(drain_seconds=args.drain_seconds)
        print("server drained and stopped", flush=True)
    finally:
        if hasattr(db, "close"):
            db.close()
        if access_log is not None and access_log is not sys.stdout:
            access_log.close()
    return 0


def _print_lsm_status(status: dict) -> None:
    print(f"path:             {status['path']}")
    print(f"dimensionality:   {status['dimensionality']}")
    print(f"cardinality:      {status['cardinality']} live points")
    print(
        f"memtable:         {status['memtable_rows']} rows, "
        f"{status['tombstones']} tombstones"
    )
    print(
        f"generation:       {status['generation']} "
        f"(persisted {status['persisted_generation']})"
    )
    print(f"wal:              {status['wal_bytes']} bytes")
    print(
        f"flushes:          {status['flushes']}, "
        f"compactions: {status['compactions']}, "
        f"write amplification: {status['write_amplification']:.2f}"
    )
    print(f"segments:         {status['segments']}")
    for level in status["levels"]:
        ids = ",".join(str(s) for s in level["segment_ids"])
        print(
            f"  level {level['level']}: {level['segments']} segment"
            f"{'s' if level['segments'] != 1 else ''}, "
            f"{level['rows']} rows ({level['dead_rows']} dead) "
            f"[{ids}]"
        )
    last = status.get("last_compaction")
    if last:
        print(
            f"last compaction:  level {last['level']} -> "
            f"{last['level'] + 1}: {last['segments_merged']} segments, "
            f"{last['rows_in']} -> {last['rows_out']} rows in "
            f"{last['seconds']:.3f}s (generation {last['at_generation']})"
        )
    else:
        print("last compaction:  never")


def _run_lsm_info(args) -> int:
    from .lsm import LsmMatchDatabase

    with LsmMatchDatabase.recover(args.store, auto_compact=False) as db:
        status = db.info()
        torn = db.recovered_torn_wal
    if args.json:
        print(json.dumps(status, sort_keys=True, indent=2))
        return 0
    _print_lsm_status(status)
    if torn:
        print("note: a torn WAL tail was truncated during recovery")
    return 0


def _run_wal_info(args) -> int:
    import os

    from .lsm import wal_info
    from .lsm.store import WAL_NAME

    path = args.path
    if os.path.isdir(path):
        path = os.path.join(path, WAL_NAME)
    summary = wal_info(path)
    if args.json:
        print(json.dumps(summary, sort_keys=True, indent=2))
        return 0
    print(f"path:            {summary['path']}")
    print(
        f"bytes:           {summary['total_bytes']} total, "
        f"{summary['valid_bytes']} valid"
    )
    if summary["torn"]:
        print(f"torn tail:       yes ({summary['torn_reason']})")
    else:
        print("torn tail:       no")
    print(
        f"records:         {summary['records']} "
        f"({summary['inserts']} inserts, {summary['deletes']} deletes)"
    )
    if summary["records"]:
        print(
            f"generations:     {summary['min_generation']} .. "
            f"{summary['max_generation']}"
        )
    return 0


def _run_compact(args) -> int:
    from .lsm import LsmMatchDatabase

    with LsmMatchDatabase.recover(args.store, auto_compact=False) as db:
        before = db.info()
        flushed = db.flush()
        merges = db.compact()
        status = db.info()
    print(
        f"flushed {'the memtable' if flushed else 'nothing'} "
        f"({before['memtable_rows']} rows), ran {merges} level merge"
        f"{'s' if merges != 1 else ''}"
    )
    print(
        f"segments: {before['segments']} -> {status['segments']}, "
        f"tombstones: {before['tombstones']} -> {status['tombstones']}"
    )
    _print_lsm_status(status)
    return 0


def _run_flight(args) -> int:
    from .serve import ServeClient, ServeError

    client = ServeClient(args.host, args.port)
    try:
        if args.trace is not None:
            payload = client.debug_trace(args.trace)
            record = payload.get("record", payload)
            if args.chrome_out is not None:
                chrome = client.debug_trace(args.trace, chrome=True)
                with open(args.chrome_out, "w", encoding="utf-8") as handle:
                    json.dump(chrome, handle)
                    handle.write("\n")
                print(
                    f"wrote Chrome trace for {args.trace} to "
                    f"{args.chrome_out}",
                    file=sys.stderr,
                )
            print(json.dumps(record, sort_keys=True, indent=2))
            return 0
        if args.chrome_out is not None:
            raise ReproError("--chrome-out requires --trace <id>")
        payload = client.debug_flight()
        if args.json:
            print(json.dumps(payload, sort_keys=True, indent=2))
            return 0
        records = payload.get("records", [])
        print(
            f"flight recorder: capacity={payload.get('capacity')} "
            f"recorded={payload.get('recorded')} "
            f"dropped={payload.get('dropped')} "
            f"retained={len(records)}"
        )
        for record in records:
            print(
                f"  seq={record['seq']} {record['reason']:5s} "
                f"{record['method']} {record['path']} "
                f"status={record['status']} "
                f"queue={record['queue_ms']:.3f}ms "
                f"handle={record['handle_ms']:.3f}ms "
                f"trace={record['trace_id']}"
            )
        return 0
    except ServeError as error:
        raise ReproError(str(error)) from error


def _run_approx_info(args) -> int:
    import time as _time

    from .eval import tie_aware_match_recall

    db = load_any_database(args.database)
    if args.k < 1 or args.k > db.cardinality:
        raise ReproError(
            f"--k {args.k} out of range [1, {db.cardinality}]"
        )
    n = args.n if args.n is not None else max(1, db.dimensionality // 2)
    target = (
        args.target_recall
        if args.target_recall is not None
        else DEFAULT_TARGET_RECALL
    )
    probes = max(1, min(args.probe_queries, db.cardinality))
    rows = np.unique(
        np.linspace(0, db.cardinality - 1, probes).astype(np.int64)
    )
    print(
        f"approximate tier on {args.database}: "
        f"{db.cardinality} points x {db.dimensionality} dims, "
        f"k={args.k}, n={n}, target recall {target:g}"
    )
    exact = []
    started = _time.perf_counter()
    for row in rows:
        exact.append(db.k_n_match(db.data[row], args.k, n, engine="block-ad"))
    exact_seconds = _time.perf_counter() - started
    exact_cells = sum(r.stats.attributes_retrieved for r in exact)
    print(
        f"exact block-ad baseline: {exact_cells} attributes, "
        f"{exact_seconds / len(rows) * 1e3:.2f} ms/query over "
        f"{len(rows)} probe queries"
    )
    for name in APPROX_ENGINE_NAMES:
        certified, measured, cells = [], [], 0
        started = _time.perf_counter()
        for row, truth in zip(rows, exact):
            result = db.k_n_match(
                db.data[row], args.k, n,
                mode="approx", engine=name, target_recall=target,
            )
            certified.append(result.certified_recall)
            measured.append(
                tie_aware_match_recall(result.differences, truth.differences)
            )
            cells += result.stats.attributes_retrieved
        seconds = _time.perf_counter() - started
        print(
            f"  {name:12s} certified recall >= {min(certified):.3f} "
            f"(weakest), measured {float(np.mean(measured)):.3f} mean; "
            f"attributes {cells}/{exact_cells} of exact, "
            f"{seconds / len(rows) * 1e3:.2f} ms/query"
        )
    engine = getattr(db, "_approx_engine", None)
    if engine is not None:
        sketch = engine("pivot-sketch")
        index = getattr(sketch, "index", None)
        if index is not None:
            print(
                f"pivot-sketch index: {index.pivot_count} pivots, "
                f"{index.nbytes / 1024:.1f} KiB "
                f"({index.nbytes / max(1, db.data.nbytes):.1%} of the data)"
            )
    print(
        "certified recall is a per-query lower bound the engine proves; "
        "measured recall is tie-aware agreement with the exact answer."
    )
    if hasattr(db, "close"):
        db.close()
    return 0


_HANDLERS = {
    "generate": _run_generate,
    "build": _run_build,
    "info": _run_info,
    "shard-info": _run_shard_info,
    "query": _run_query,
    "batch": _run_batch,
    "stats": _run_stats,
    "trace": _run_trace,
    "advise": _run_advise,
    "plan": _run_plan,
    "serve": _run_serve,
    "flight": _run_flight,
    "lsm-info": _run_lsm_info,
    "wal-info": _run_wal_info,
    "compact": _run_compact,
    "approx-info": _run_approx_info,
    "experiments": _run_experiments,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
