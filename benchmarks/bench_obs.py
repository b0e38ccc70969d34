"""Observability-overhead benchmark: plain vs metered vs span-traced.

Times the same k-n-match workload through identical engines in three
modes — no instrumentation, a :class:`~repro.obs.MetricsRegistry`
installed, and a :class:`~repro.obs.SpanCollector` installed — for both
the ``ad`` engine (the paper's AD order, computed with numpy) and the
vectorised ``block-ad`` engine (the two span-densest hot paths:
per-query cursor/heap phases and per-round window phases
respectively).

A second matrix covers the serving layer end to end
(:class:`~repro.serve.ServeApp.handle`, no sockets) in three modes —
``off`` (no collector, flight recorder idle), ``context`` (span
collector installed, so every request mints/propagates a trace context
and produces a span tree), and ``flight`` (tracing plus a zero slow
threshold, so every request is additionally deposited in the flight
recorder) — asserting response bodies byte-identical across all three.

Three invariants are asserted before anything is reported:

* answers are bit-identical across all modes (response *bytes*, for the
  serve matrix),
* the uninstrumented mode records nothing: no :class:`Span` comes alive
  while it runs (a collector that is on although none was installed
  costs a few percent per query — far inside the timing tolerance —
  so only a count can see it), and
* the uninstrumented run is not slower than an instrumented one beyond
  timing noise (with nothing installed a query runs under the no-op
  ``NULL_SPANS`` collector and the observer skips its metrics: neither
  may show up as overhead).

Timing: every repeat runs each mode of a matrix on every query, the
modes back to back per query with the first mode rotated, and each mode
reports the median of its per-repeat totals.  Host speed on shared
machines flips between fast and ~1.6x slower spells of ~0.1 s; timing
each mode as one block let a spell land on one mode only, so a single
ratio failed on noise.  Interleaved per query, a spell hits every mode
alike, and the median drops an outlier repeat instead of keeping a
lucky one.  Garbage collection is paused inside each repeat, so one
mode's allocations are not collected on another mode's clock.

Results are written under the shared bench JSON schema (every leaf is a
``queries_per_second`` dict), so ``benchmarks/regress.py`` can gate
them; see ``BENCH_obs.json`` at the repository root for a recorded
run::

    python benchmarks/bench_obs.py --smoke          # < 10 s sanity run
    python benchmarks/bench_obs.py -o BENCH_obs.json

The smoke configuration is the first full configuration (fewer
repeats), so a smoke run produces a key subset of the committed full
report and regress.py finds genuine matches in CI.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from typing import Dict, List, Sequence

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

import numpy as np

from repro.core.ad import ADEngine
from repro.core.ad_block import BlockADEngine
from repro.obs import MetricsRegistry, Span, SpanCollector

from bench_meta import run_metadata

#: (cardinality, dimensionality, k, n, batch size) per configuration.
FULL_CONFIGS = [
    (10_000, 16, 10, 8, 32),
    (20_000, 16, 10, 8, 32),
]
SMOKE_CONFIGS = FULL_CONFIGS[:1]

#: The allowed slowdown of the *uninstrumented* path relative to an
#: instrumented one — pure timing noise headroom, same tolerance as
#: bench_batch's instrumentation check.
NOISE_TOLERANCE = 1.25

_ENGINES = {
    "ad": lambda columns, metrics, spans: ADEngine(
        columns, metrics=metrics, spans=spans
    ),
    "block-ad": lambda columns, metrics, spans: BlockADEngine(
        columns, metrics=metrics, spans=spans
    ),
}


def _interleaved_medians(
    repeats: int, runs: Dict[str, object], items: Sequence
) -> Dict[str, float]:
    """Median seconds per mode for one pass over ``items``, interleaved.

    Each repeat takes the items in turn and runs every mode on the item
    back to back, rotating which mode goes first, and sums each mode's
    time.  A slow spell of the host therefore lands on all modes alike
    instead of on whichever mode's block it overlapped.  The collector
    is paused for the repeat (as ``timeit`` does), so one mode's
    allocations are not collected on another mode's clock.
    """
    names = list(runs)
    samples: Dict[str, List[float]] = {name: [] for name in names}
    for repeat in range(repeats):
        totals = dict.fromkeys(names, 0.0)
        gc.collect()
        gc.disable()
        try:
            for index, item in enumerate(items):
                shift = (repeat + index) % len(names)
                for name in names[shift:] + names[:shift]:
                    started = time.perf_counter()
                    runs[name](item)
                    totals[name] += time.perf_counter() - started
        finally:
            gc.enable()
        for name in names:
            samples[name].append(totals[name])
    return {name: float(np.median(times)) for name, times in samples.items()}


def _live_spans() -> int:
    """How many :class:`Span` objects are alive (any collector's ring)."""
    gc.collect()
    return sum(isinstance(item, Span) for item in gc.get_objects())


def _timings(seconds: Dict[str, float], count: int) -> Dict[str, Dict]:
    return {
        mode: {"seconds": value, "queries_per_second": count / value}
        for mode, value in seconds.items()
    }


def bench_serve_modes(
    data, queries, k: int, n: int, repeats: int
) -> Dict[str, Dict]:
    """Serve-layer overhead matrix: off vs context vs flight.

    Each mode gets its own :class:`ServeApp` over the same data with the
    result cache disabled, so every timed request runs admission, JSON
    parse, the engine, and response encoding.  Response bodies must be
    byte-identical across modes — tracing may never change an answer.
    """
    from repro.core.engine import MatchDatabase
    from repro.serve import ServeApp, canonical_json

    bodies = [
        canonical_json(
            {"query": [float(value) for value in query], "k": k, "n": n}
        )
        for query in queries
    ]

    def make_app(mode: str) -> ServeApp:
        if mode == "off":
            return ServeApp(MatchDatabase(data), cache_size=0)
        if mode == "context":
            return ServeApp(
                MatchDatabase(data), cache_size=0, spans=SpanCollector()
            )
        return ServeApp(
            MatchDatabase(data),
            cache_size=0,
            spans=SpanCollector(),
            slow_threshold_seconds=0.0,  # every request hits the recorder
            flight_capacity=len(bodies),
        )

    apps = {mode: make_app(mode) for mode in ("off", "context", "flight")}
    alive = _live_spans()
    expected = [
        apps["off"].handle("POST", "/v1/query", body) for body in bodies
    ]
    assert _live_spans() <= alive, "serve/off: spans recorded with none installed"
    for mode in ("context", "flight"):
        for body, (status, _, reference) in zip(bodies, expected):
            got_status, _, got = apps[mode].handle("POST", "/v1/query", body)
            assert (got_status, got) == (status, reference), (
                f"serve/{mode}: response bytes diverged"
            )

    timings = _timings(
        _interleaved_medians(
            repeats,
            {
                mode: lambda body, app=app: app.handle(
                    "POST", "/v1/query", body
                )
                for mode, app in apps.items()
            },
            bodies,
        ),
        len(bodies),
    )
    off = timings["off"]["seconds"]
    for mode in ("context", "flight"):
        seconds = timings[mode]["seconds"]
        timings[mode]["overhead_vs_off"] = seconds / off - 1.0
        assert off <= seconds * NOISE_TOLERANCE, (
            f"serve: uninstrumented path slower than {mode} path: "
            f"{off:.6f}s vs {seconds:.6f}s"
        )
    return timings


def bench_config(
    cardinality: int,
    dimensionality: int,
    k: int,
    n: int,
    batch: int,
    repeats: int,
    seed: int = 42,
) -> Dict:
    rng = np.random.default_rng(seed)
    data = rng.uniform(0.0, 1.0, size=(cardinality, dimensionality))
    queries = rng.uniform(0.0, 1.0, size=(batch, dimensionality))

    engines: Dict[str, Dict] = {}
    shared_columns = None
    for engine_name, factory in _ENGINES.items():
        plain = factory(
            shared_columns if shared_columns is not None else data, None, None
        )
        shared_columns = plain.columns  # one sorted-column build for all
        metered = factory(shared_columns, MetricsRegistry(), None)
        spanned = factory(shared_columns, None, SpanCollector())

        modes = {"off": plain, "metrics": metered, "spans": spanned}
        alive = _live_spans()
        expected = [plain.k_n_match(query, k, n) for query in queries]
        assert _live_spans() <= alive, (
            f"{engine_name}/off: spans recorded with none installed"
        )
        for mode_name, engine in modes.items():
            if engine is plain:
                continue
            for result, reference in zip(
                [engine.k_n_match(query, k, n) for query in queries], expected
            ):
                assert result.ids == reference.ids, (
                    f"{engine_name}/{mode_name}: ids diverged"
                )
                assert result.differences == reference.differences, (
                    f"{engine_name}/{mode_name}: differences diverged"
                )

        timings = _timings(
            _interleaved_medians(
                repeats,
                {
                    mode_name: lambda query, engine=engine: engine.k_n_match(
                        query, k, n
                    )
                    for mode_name, engine in modes.items()
                },
                queries,
            ),
            batch,
        )
        off = timings["off"]["seconds"]
        for mode_name in ("metrics", "spans"):
            seconds = timings[mode_name]["seconds"]
            timings[mode_name]["overhead_vs_off"] = seconds / off - 1.0
            # Disabled instrumentation must be free: the plain engine may
            # not be slower than the instrumented one beyond noise.
            assert off <= seconds * NOISE_TOLERANCE, (
                f"{engine_name}: uninstrumented path slower than "
                f"{mode_name} path: {off:.6f}s vs {seconds:.6f}s"
            )
        engines[engine_name] = timings

    return {
        "cardinality": cardinality,
        "dimensionality": dimensionality,
        "k": k,
        "n": n,
        "batch_size": batch,
        "engines": engines,
        "serve": bench_serve_modes(data, queries, k, n, repeats),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="first configuration only, fewer repeats, < 10 s end to end",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=7,
        help="interleaved timed runs per mode (median kept)",
    )
    parser.add_argument(
        "-o",
        "--output",
        type=str,
        default=None,
        help="also write the JSON report to this path",
    )
    args = parser.parse_args(argv)

    configs: List = SMOKE_CONFIGS if args.smoke else FULL_CONFIGS
    repeats = 5 if args.smoke else args.repeats

    report = {
        "benchmark": "bench_obs",
        "mode": "smoke" if args.smoke else "full",
        **run_metadata(backend="thread"),
        "repeats": repeats,
        "estimator": "median of interleaved repeats",
        "results": [],
    }
    for cardinality, dimensionality, k, n, batch in configs:
        print(
            f"config c={cardinality} d={dimensionality} k={k} n={n} "
            f"batch={batch} ...",
            flush=True,
        )
        entry = bench_config(
            cardinality, dimensionality, k, n, batch, repeats
        )
        report["results"].append(entry)
        for engine_name, timings in entry["engines"].items():
            print(
                f"  {engine_name:9s} off {timings['off']['queries_per_second']:8.1f} q/s"
                f"  metrics {timings['metrics']['overhead_vs_off']:+6.1%}"
                f"  spans {timings['spans']['overhead_vs_off']:+6.1%}",
                flush=True,
            )
        serve = entry["serve"]
        print(
            f"  {'serve':9s} off {serve['off']['queries_per_second']:8.1f} q/s"
            f"  context {serve['context']['overhead_vs_off']:+6.1%}"
            f"  flight {serve['flight']['overhead_vs_off']:+6.1%}",
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
