"""Batch-execution benchmark: serial loop vs lock-step vs thread pool.

Measures queries/second of the three batch paths over the same workload:

* ``serial`` — the plain per-query loop over ``BlockADEngine`` (the
  baseline every speedup is reported against),
* ``vectorised`` — ``BatchBlockADEngine``'s lock-step batch call,
* ``parallel`` — ``ParallelBatchExecutor`` sharding the lock-step
  engine across 1/2/4 worker threads.

Answers are asserted identical across paths before any timing is
recorded.  Results are written as machine-readable JSON (see
``BENCH_batch.json`` at the repository root for a recorded run)::

    python benchmarks/bench_batch.py --smoke          # < 10 s sanity run
    python benchmarks/bench_batch.py -o BENCH_batch.json

Each configuration is timed ``--repeats`` times and the best run is
kept (wall-clock minima are the stablest point estimate on a shared
machine).  ``cpu_count`` is recorded because thread scaling is bounded
by the cores actually available.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

import numpy as np

from repro.core.ad_block import BlockADEngine
from repro.obs import MetricsRegistry, SpanCollector
from repro.parallel import BatchBlockADEngine, ParallelBatchExecutor

from bench_meta import run_metadata

#: (cardinality, dimensionality, k, n, batch size) per configuration.
FULL_CONFIGS = [
    (50_000, 32, 20, 16, 64),  # the headline acceptance configuration
    (50_000, 32, 20, 16, 8),
    (20_000, 16, 20, 8, 64),
]
SMOKE_CONFIGS = [(5_000, 8, 5, 4, 16)]

FULL_WORKERS = [1, 2, 4]
SMOKE_WORKERS = [1, 2]


def _best_of(repeats: int, run) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def bench_config(
    cardinality: int,
    dimensionality: int,
    k: int,
    n: int,
    batch: int,
    workers_list: List[int],
    repeats: int,
    seed: int = 42,
) -> Dict:
    rng = np.random.default_rng(seed)
    data = rng.uniform(0.0, 1.0, size=(cardinality, dimensionality))
    queries = rng.uniform(0.0, 1.0, size=(batch, dimensionality))

    serial = BlockADEngine(data)
    vectorised = BatchBlockADEngine(serial.columns)

    # Correctness gate + warm-up in one: the timed paths must agree.
    expected = [serial.k_n_match(query, k, n) for query in queries]
    for result, reference in zip(
        vectorised.k_n_match_batch(queries, k, n), expected
    ):
        assert result.ids == reference.ids
        assert result.differences == reference.differences

    serial_seconds = _best_of(
        repeats, lambda: [serial.k_n_match(query, k, n) for query in queries]
    )
    vectorised_seconds = _best_of(
        repeats, lambda: vectorised.k_n_match_batch(queries, k, n)
    )

    parallel: Dict[str, Dict] = {}
    for workers in workers_list:
        executor = ParallelBatchExecutor(vectorised, workers=workers)
        for result, reference in zip(
            executor.k_n_match_batch(queries, k, n), expected
        ):
            assert result.ids == reference.ids
        seconds = _best_of(
            repeats, lambda: executor.k_n_match_batch(queries, k, n)
        )
        parallel[str(workers)] = {
            "seconds": seconds,
            "queries_per_second": batch / seconds,
            "speedup_vs_serial": serial_seconds / seconds,
        }

    return {
        "cardinality": cardinality,
        "dimensionality": dimensionality,
        "k": k,
        "n": n,
        "batch_size": batch,
        "serial": {
            "seconds": serial_seconds,
            "queries_per_second": batch / serial_seconds,
        },
        "vectorised": {
            "seconds": vectorised_seconds,
            "queries_per_second": batch / vectorised_seconds,
            "speedup_vs_serial": serial_seconds / vectorised_seconds,
        },
        "parallel": parallel,
    }


def check_instrumentation(repeats: int, seed: int = 7) -> Dict:
    """Assert the observability layer is inert when not installed.

    Guarantees, all asserted (the benchmark fails loudly if the
    instrumentation ever stops being opt-in):

    1. answers are bit-identical with and without a registry installed,
       and with and without a span collector installed,
    2. an engine without a registry records nothing (a probe registry
       created alongside it stays empty),
    3. the uninstrumented path pays no material overhead versus either
       instrumented path being disabled — the plain run must not be
       slower than the metered or span-traced one beyond timing noise
       (metrics guarded by ``is None``, spans run under the no-op
       ``NULL_SPANS`` collector).
    """
    rng = np.random.default_rng(seed)
    data = rng.uniform(0.0, 1.0, size=(5_000, 8))
    queries = rng.uniform(0.0, 1.0, size=(16, 8))
    k, n = 5, 4

    plain = BatchBlockADEngine(data)
    probe = MetricsRegistry()  # never installed: must stay empty
    registry = MetricsRegistry()
    metered = BatchBlockADEngine(plain.columns, metrics=registry)
    collector = SpanCollector()
    spanned = BatchBlockADEngine(plain.columns, spans=collector)

    expected = plain.k_n_match_batch(queries, k, n)
    observed = metered.k_n_match_batch(queries, k, n)
    traced = spanned.k_n_match_batch(queries, k, n)
    for result, reference in zip(observed, expected):
        assert result.ids == reference.ids
        assert result.differences == reference.differences
    for result, reference in zip(traced, expected):
        assert result.ids == reference.ids
        assert result.differences == reference.differences
    assert probe.collect() == [], "uninstalled registry must record nothing"
    assert any(
        family.name == "repro_queries_total" for family in registry.collect()
    ), "installed registry must record query events"
    assert collector.traces(), "installed collector must record spans"

    unmetered_seconds = _best_of(
        repeats, lambda: plain.k_n_match_batch(queries, k, n)
    )
    metered_seconds = _best_of(
        repeats, lambda: metered.k_n_match_batch(queries, k, n)
    )
    spanned_seconds = _best_of(
        repeats, lambda: spanned.k_n_match_batch(queries, k, n)
    )
    # The uninstrumented path must not be paying for the instrumentation:
    # it may not be slower than an instrumented path beyond timing noise.
    assert unmetered_seconds <= metered_seconds * 1.25, (
        f"no-registry path slower than metered path: "
        f"{unmetered_seconds:.6f}s vs {metered_seconds:.6f}s"
    )
    assert unmetered_seconds <= spanned_seconds * 1.25, (
        f"no-collector path slower than span-traced path: "
        f"{unmetered_seconds:.6f}s vs {spanned_seconds:.6f}s"
    )
    return {
        "unmetered_seconds": unmetered_seconds,
        "metered_seconds": metered_seconds,
        "metered_overhead": metered_seconds / unmetered_seconds - 1.0,
        "spanned_seconds": spanned_seconds,
        "span_overhead": spanned_seconds / unmetered_seconds - 1.0,
        "answers_identical": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one small configuration, < 10 s end to end",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="timed runs per path (best kept)"
    )
    parser.add_argument(
        "-o",
        "--output",
        type=str,
        default=None,
        help="also write the JSON report to this path",
    )
    args = parser.parse_args(argv)

    configs = SMOKE_CONFIGS if args.smoke else FULL_CONFIGS
    workers_list = SMOKE_WORKERS if args.smoke else FULL_WORKERS
    repeats = 1 if args.smoke else args.repeats

    report = {
        "benchmark": "bench_batch",
        "mode": "smoke" if args.smoke else "full",
        **run_metadata(backend="thread"),
        "repeats": repeats,
        "results": [],
    }
    print("instrumentation check ...", flush=True)
    report["instrumentation"] = check_instrumentation(max(repeats, 3))
    print(
        f"  metered overhead "
        f"{report['instrumentation']['metered_overhead']:+.1%}, "
        f"span overhead "
        f"{report['instrumentation']['span_overhead']:+.1%} "
        f"(answers identical, uninstrumented path records nothing)",
        flush=True,
    )
    for cardinality, dimensionality, k, n, batch in configs:
        print(
            f"config c={cardinality} d={dimensionality} k={k} n={n} "
            f"batch={batch} ...",
            flush=True,
        )
        entry = bench_config(
            cardinality, dimensionality, k, n, batch, workers_list, repeats
        )
        report["results"].append(entry)
        print(
            f"  serial     {entry['serial']['queries_per_second']:8.1f} q/s\n"
            f"  vectorised {entry['vectorised']['queries_per_second']:8.1f} q/s "
            f"({entry['vectorised']['speedup_vs_serial']:.2f}x)",
            flush=True,
        )
        for workers, stats in entry["parallel"].items():
            print(
                f"  parallel x{workers} {stats['queries_per_second']:6.1f} q/s "
                f"({stats['speedup_vs_serial']:.2f}x)",
                flush=True,
            )

    text = json.dumps(report, indent=2)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
