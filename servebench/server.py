"""The server process of one benchmark run.

Usage (started by ``run.py``, never by hand)::

    python3 servebench/server.py --data data.npy --facade flat|sharded|lsm
        [--store DIR] [--trace]

It loads the generated data, builds the facade (for ``lsm``: creates a
store in ``--store`` and preloads every row, see :func:`build_facade`),
serves it with a ``MatchServer`` on an ephemeral port using the server's
default flags, and prints one JSON line ``{"port": .., "flags": ..}``.
It then obeys one JSON command per stdin line, answering each with one
JSON line:

* ``info`` — peak RSS, result-cache counters, sheds, LSM store counters;
* ``quiesce`` — compact the LSM store until no level overflows;
* ``reset`` / ``dump`` — clear / write the span recorder (``--trace``);
* ``stop`` — drain and shut down (also on stdin EOF).

With ``--trace`` the timing wrappers of :mod:`tracing` are installed by
attribute replacement after the facade is built, so set-up is not
traced and nothing under ``src/`` changes.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

import numpy as np

from repro import MatchDatabase
from repro.lsm import LsmMatchDatabase
from repro.serve import MatchServer, ServeApp
from repro.shard import ShardedMatchDatabase

import tracing

SHARDS = 2
SHARD_BACKEND = "thread"


def build_facade(args, data: np.ndarray):
    if args.facade == "flat":
        return MatchDatabase(data)
    if args.facade == "sharded":
        return ShardedMatchDatabase(data, shards=SHARDS, backend=SHARD_BACKEND)
    # A store that has been running a while, with L0 and L1 both one
    # segment short of overflowing: the base run plus three merged L0
    # batches in L1, and four flushed segments in L0.  The first flush
    # of the timed window then cascades into two compactions, and every
    # query starts out searching eight segments plus the memtable.
    store = LsmMatchDatabase(args.store, dimensionality=data.shape[1])
    fanout, rows = store.level_fanout, store.memtable_flush_rows
    merged_batch = (fanout + 1) * rows
    base = len(data) - (fanout - 1) * merged_batch - fanout * rows
    store.insert_many(data[:base])
    store.compact()
    for start in range(base, base + (fanout - 1) * merged_batch, merged_batch):
        store.insert_many(data[start:start + merged_batch])
        store.compact()
    store.insert_many(data[base + (fanout - 1) * merged_batch:])
    return store


def server_flags(app: ServeApp, db) -> dict:
    """The start-up configuration a run record must carry."""
    flags = {
        "facade": type(db).__name__,
        "default_engine": getattr(db, "default_engine", None),
        "cache_size": app.cache.capacity,
        "max_inflight": app.admission.max_inflight,
        "deadline_seconds": app.admission.deadline_seconds,
    }
    if isinstance(db, ShardedMatchDatabase):
        flags.update(shards=db.shard_count, backend=db.backend)
    if isinstance(db, LsmMatchDatabase):
        flags["lsm_policy"] = {
            "memtable_flush_rows": db.memtable_flush_rows,
            "level_fanout": db.level_fanout,
            "wal_sync_interval": db.wal_sync_interval,
            "background_compaction": True,
        }
    return flags


def info(app: ServeApp, db) -> dict:
    cache = app.cache
    payload = {
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cache": {
            "hits": cache.hits,
            "misses": cache.misses,
            "evictions": cache.evictions,
            "entries": len(cache),
        },
        "sheds": app.admission.sheds,
    }
    if isinstance(db, LsmMatchDatabase):
        payload["store"] = {
            "flushes": db.flushes,
            "compactions": db.compactions,
            "segments": db.segment_count,
            "cardinality": db.cardinality,
            "generation": db.generation,
            "write_amp": db.write_amplification,
        }
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", required=True)
    parser.add_argument("--facade", choices=("flat", "sharded", "lsm"),
                        required=True)
    parser.add_argument("--store")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    db = build_facade(args, np.load(args.data))
    app = ServeApp(db)
    recorder = tracing.install() if args.trace else None
    server = MatchServer(app).start()
    try:
        print(json.dumps({"port": server.port, "flags": server_flags(app, db)}),
              flush=True)
        for line in sys.stdin:
            command = json.loads(line)
            name = command["cmd"]
            if name == "stop":
                break
            if name == "quiesce":
                db.compact()
                reply = info(app, db)
            elif name == "reset":
                recorder.clear()
                reply = {}
            elif name == "dump":
                reply = {"spans": recorder.dump(command["path"])}
            else:
                reply = info(app, db)
            print(json.dumps(reply), flush=True)
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
