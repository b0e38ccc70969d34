"""Served-path benchmark: one workload against a MatchServer in its own process.

Usage::

    python3 servebench/run.py --workload cold-flat|hot-sharded|lsm-churn \\
        --seed N --seconds S --trace 0|1

``--trace 0`` launches the server several times (the median launch is
``setup_s``), then drives the last one with two closed-loop clients for
``--seconds`` and reports the end-to-end metrics.  ``--trace 1`` runs
the same window twice, on a plain server and on one with the timing
wrappers of ``tracing.py`` installed, and reports the per-layer metrics.
Every answer is checked against the naive oracle off the clock; the
last stdout line is the JSON result, and the exit code is non-zero when
any request failed or any answer was wrong.  See ``README.md`` here for
the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORK_DIR = BENCH_DIR / "_work"

sys.path[:0] = [str(SRC), str(ROOT / "benchmarks")]
try:
    import bench_meta
    from oracle import Oracle
except ImportError as error:  # not a full checkout: no program to measure
    sys.exit(f"error: cannot import the program under test: {error}")

import load  # noqa: E402
import tracing  # noqa: E402

#: The facade ``server.py`` builds per workload; every server flag is
#: the server's default.
WORKLOADS = {"cold-flat": "flat", "hot-sharded": "sharded", "lsm-churn": "lsm"}

END_TO_END = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "query_qps": "1/s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "serve.handle_ms": "ms",
    "serve.outside_app_ms": "ms",
    "protocol.parse_ms": "ms",
    "protocol.encode_ms": "ms",
    "admission.queue_p95_ms": "ms",
    "admission.sheds": "count",
    "cache.hit_ratio": "ratio",
    "cache.get_ms": "ms",
    "cache.put_ms": "ms",
    "cache.evictions": "count",
    "plan.calls": "count",
    "plan.cold_calls": "count",
    "plan.cold_ms": "ms",
    "plan.warm_ms": "ms",
    "engine.query_ms": "ms",
    "engine.attr_fraction": "ratio",
    "engine.frequent_ms": "ms",
    "batch.ms_per_row": "ms",
    "shard.query_ms": "ms",
    "shard.slowest_ms": "ms",
    "shard.imbalance": "ratio",
    "merge.ms": "ms",
    "shard.fanout_overhead_ms": "ms",
    "lsm.insert_ms": "ms",
    "lsm.wal_append_ms": "ms",
    "lsm.wal_sync_ms": "ms",
    "lsm.wal_syncs": "count",
    "lsm.insert_wait_ms": "ms",
    "lsm.flush_ms": "ms",
    "lsm.flushes": "count",
    "lsm.compact_ms": "ms",
    "lsm.compactions": "count",
    "lsm.query_ms": "ms",
    "lsm.segment_search_ms": "ms",
    "lsm.memtable_scan_ms": "ms",
    "lsm.segments_per_query": "count",
    "lsm.write_amp": "ratio",
    "frequent_p50_ms": "ms",
    "batch_p50_ms": "ms",
    "write_p50_ms": "ms",
    "write_p95_ms": "ms",
    "write_ops_per_s": "1/s",
    "failed_ratio": "ratio",
    "trace.overhead": "ratio",
}

#: Server launches per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_LAUNCHES = 5
#: Whole-run watchdog: a wedged server is killed well inside 180 s.
WATCHDOG_SECONDS = 170.0
WRITE_PATHS = ("/v1/insert", "/v1/delete")


class ServerProcess:
    """One ``server.py`` child: launch, wait healthy, commands, stop."""

    def __init__(self, workload: str, data_path: Path, work: Path,
                 launch: int, traced: bool) -> None:
        args = [sys.executable, str(BENCH_DIR / "server.py"),
                "--data", str(data_path), "--facade", WORKLOADS[workload]]
        if workload == "lsm-churn":
            args += ["--store", str(work / f"store-{launch}")]
        if traced:
            args.append("--trace")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            args, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env, cwd=str(ROOT),
        )
        try:
            hello = self._read()
            self.port: int = hello["port"]
            self.flags: Dict = hello["flags"]
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _read(self) -> Dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server exited (code {self.proc.poll()}) before answering")
        return json.loads(line)

    def _wait_healthy(self) -> None:
        deadline = time.perf_counter() + 60.0
        while time.perf_counter() < deadline:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.005)
        raise RuntimeError("server never became healthy")

    def command(self, name: str, **fields) -> Dict:
        self.proc.stdin.write(json.dumps({"cmd": name, **fields}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> None:
        try:
            self.proc.stdin.write(json.dumps({"cmd": "stop"}) + "\n")
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()


@dataclass
class Phase:
    """One timed window's client samples, server counters and checks."""

    samples: List
    start: float
    deadline: float
    before: Dict
    after: Dict
    problems: List[str]
    checked: int
    spans_path: Optional[Path]

    @property
    def attempted(self) -> int:
        return len(self.samples) + self.checked

    @property
    def failed(self) -> int:
        return sum(s.status != 200 for s in self.samples) + len(self.problems)

    def ok(self, paths) -> List:
        return [s for s in self.samples if s.path in paths and s.status == 200]

    def latency(self, paths, q: float) -> float:
        values = [(s.end - s.start) * 1e3 for s in self.ok(paths)]
        return float(np.percentile(values, q)) if values else 0.0

    def rate(self, paths) -> float:
        done = sum(s.end <= self.deadline for s in self.ok(paths))
        return done / (self.deadline - self.start)


def measure(server: ServerProcess, workload: str, seed: int, seconds: float,
            data, spans_path: Optional[Path] = None) -> Phase:
    """Warm up, run the closed loops for ``seconds``, then check answers."""
    host, port = "127.0.0.1", server.port
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        for request in load.warmup_requests(workload, seed):
            status, _, body = load.post(conn, request)
            if status != 200:
                raise RuntimeError(f"warm-up request failed: {status} {body!r}")
    finally:
        conn.close()
    streams = load.streams_for(workload, seed, data)
    before = server.command("info")
    if spans_path is not None:
        server.command("reset")
    samples: List[List] = [[] for _ in streams]
    start = time.perf_counter()
    deadline = start + seconds
    threads = [
        threading.Thread(target=load.closed_loop,
                         args=(host, port, client, stream, deadline,
                               samples[client]))
        for client, stream in enumerate(streams)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if spans_path is not None:
        server.command("dump", path=str(spans_path))
    after = server.command("info")
    flat = sorted((s for per_client in samples for s in per_client),
                  key=lambda s: s.start)

    problems: List[str] = []
    checked = 0
    if workload == "lsm-churn":
        writer = streams[0]
        problems += writer.violations
        settled = server.command("quiesce")["store"]
        pids = sorted(writer.live)
        oracle = Oracle(np.asarray([writer.live[p] for p in pids]), pids)
        if settled["cardinality"] != len(pids):
            problems.append(
                f"store holds {settled['cardinality']} points; "
                f"the writer tracked {len(pids)}")
        checks = load.DistinctQueries(seed, 40)
        conn = http.client.HTTPConnection(host, port, timeout=60)
        try:
            for _ in range(load.LSM_CHECK_QUERIES):
                request = checks.next()
                status, _, body = load.post(conn, request)
                checked += 1
                problem = (f"check query returned {status}" if status != 200
                           else oracle.check(request.spec, body))
                if problem:
                    problems.append(problem)
        finally:
            conn.close()
    else:
        oracle = Oracle(data)
        for sample in flat:
            if sample.status == 200:
                problem = oracle.check(sample.spec, sample.body)
                if problem:
                    problems.append(problem)
    return Phase(flat, start, deadline, before, after, problems, checked,
                 spans_path)


def end_to_end(phase: Phase, setups: List[float]) -> Dict[str, float]:
    query = ("/v1/query",)
    return {
        "setup_s": statistics.median(setups),
        "query_p50_ms": phase.latency(query, 50),
        "query_p95_ms": phase.latency(query, 95),
        "query_qps": phase.rate(query),
        "ops_per_s": phase.rate(
            ("/v1/query", "/v1/frequent", "/v1/batch") + WRITE_PATHS),
        "peak_rss_mb": phase.after["rss_mb"],
    }


def per_layer(plain: Phase, traced: Phase) -> Dict:
    """The traced window's layer split plus the plain window's extras."""
    report = tracing.analyse(tracing.load_spans(str(traced.spans_path)),
                             traced.samples)
    metrics = report["metrics"]
    fractions = []
    for sample in traced.ok(("/v1/query",)):
        stats = json.loads(sample.body)["result"]["stats"]
        fractions.append(stats["attributes_retrieved"] / stats["total_attributes"])
    metrics["engine.attr_fraction"] = (
        statistics.fmean(fractions) if fractions else 0.0)
    metrics["admission.sheds"] = sum(s.status == 429 for s in traced.samples)
    store_before = traced.before.get("store", {})
    store_after = traced.after.get("store", {})
    for name in ("flushes", "compactions"):
        metrics[f"lsm.{name}"] = (
            store_after.get(name, 0) - store_before.get(name, 0))
    metrics["lsm.write_amp"] = store_after.get("write_amp", 0.0)
    metrics["frequent_p50_ms"] = plain.latency(("/v1/frequent",), 50)
    metrics["batch_p50_ms"] = plain.latency(("/v1/batch",), 50)
    metrics["write_p50_ms"] = plain.latency(WRITE_PATHS, 50)
    metrics["write_p95_ms"] = plain.latency(WRITE_PATHS, 95)
    metrics["write_ops_per_s"] = plain.rate(WRITE_PATHS)
    attempted = plain.attempted + traced.attempted
    metrics["failed_ratio"] = (plain.failed + traced.failed) / attempted
    untraced_p50 = plain.latency(("/v1/query",), 50)
    metrics["trace.overhead"] = (
        traced.latency(("/v1/query",), 50) / untraced_p50 - 1.0
        if untraced_p50 else 0.0)
    return report


def summary_lines(phase: Phase, label: str) -> List[str]:
    """Human-readable facts about a window that are not gated metrics."""
    queue = [s.queue_ms for s in phase.ok(
        ("/v1/query", "/v1/frequent", "/v1/batch") + WRITE_PATHS)]
    hits = [s.cache == "hit" for s in phase.ok(("/v1/query",))]
    lines = [
        f"{label}: {len(phase.samples)} requests, {phase.failed} failed, "
        f"{phase.checked} post-window checks",
        f"{label}: header queue p95 "
        f"{np.percentile(queue, 95) if queue else 0.0:.3f} ms, "
        f"query cache hits {sum(hits)}/{len(hits)}",
    ]
    if "store" in phase.after:
        before, after = phase.before["store"], phase.after["store"]
        lines.append(
            f"{label}: {after['flushes'] - before['flushes']} flushes, "
            f"{after['compactions'] - before['compactions']} compactions, "
            f"{after['segments']} segments at the end of the window")
    return lines + [f"{label}: problem: {p}" for p in phase.problems[:5]]


def run(workload: str, seed: int, seconds: float, trace: bool,
        cardinality: int = 0, setup_launches: int = SETUP_LAUNCHES) -> Dict:
    """Run one workload; prints a summary, writes the record, returns the result."""
    cardinality = cardinality or load.CARDINALITY
    WORK_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    servers: List[ServerProcess] = []
    watchdog = threading.Timer(
        WATCHDOG_SECONDS, lambda: [s.proc.kill() for s in servers])
    watchdog.daemon = True
    watchdog.start()
    stem = f"{workload}.seed{seed}.trace{int(trace)}"
    try:
        data = load.make_data(seed, cardinality)
        data_path = work / "data.npy"
        np.save(data_path, data)

        def launch(index: int, traced: bool = False) -> ServerProcess:
            server = ServerProcess(workload, data_path, work, index, traced)
            servers.append(server)
            return server

        if trace:
            server = launch(0)
            plain = measure(server, workload, seed, seconds, data)
            server.stop()
            server = launch(1, traced=True)
            traced = measure(server, workload, seed, seconds, data,
                             spans_path=OUT_DIR / f"{workload}.spans.json")
            server.stop()
            report = per_layer(plain, traced)
            metrics, units = report["metrics"], PER_LAYER
            phases = [plain, traced]
            lines = summary_lines(plain, "plain") + summary_lines(traced, "traced")
        else:
            setups = []
            for index in range(setup_launches):
                server = launch(index)
                setups.append(server.setup_s)
                if index < setup_launches - 1:
                    server.stop()
            plain = measure(server, workload, seed, seconds, data)
            server.stop()
            metrics, units = end_to_end(plain, setups), END_TO_END
            report = {"setup_launches_s": setups}
            phases = [plain]
            lines = summary_lines(plain, "plain")
        attempted = sum(p.attempted for p in phases)
        failed = sum(p.failed for p in phases)
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": float(metrics[name]), "unit": unit}
                for name, unit in units.items()
            },
        }
        record = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": bool(trace),
            "cardinality": cardinality,
            "clients": load.CLIENTS,
            "nproc": os.cpu_count(),
            "server_flags": server.flags,
            **bench_meta.run_metadata(backend="thread"),
        }
        with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as handle:
            json.dump({"record": record, "result": result, **report}, handle,
                      indent=1, sort_keys=True)
        lines.append("record: " + json.dumps(record, sort_keys=True))
        lines += [
            f"layer {name:<22} {row['ms_per_request']:9.4f} ms/request "
            f"{100 * row['share_of_wall']:6.2f}% of client wall"
            for name, row in report.get("budget", {}).items()
        ]
        print("\n".join(lines), flush=True)
        return result
    finally:
        watchdog.cancel()
        for server in servers:
            if server.proc.poll() is None:
                server.proc.kill()
                server.proc.wait()
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
