"""Self-tests of the benchmark: ``python3 -m pytest servebench -q``."""

from __future__ import annotations

import json

import numpy as np
import pytest

import run
from oracle import Oracle
from repro import MatchDatabase
from repro.serve import protocol

#: Smallest data set the LSM preload layout fits (L1 and L0 nearly full).
TINY = 6000


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_pass_emits_every_metric_with_its_unit(workload, trace):
    result = run.run(workload, seed=3, seconds=1.0, trace=trace,
                     cardinality=TINY, setup_launches=2)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_oracle_flags_a_corrupted_answer():
    data = np.random.default_rng(7).random((500, 6))
    query = [0.5] * 6
    spec = ("query", tuple(query), 5, 3)
    result = MatchDatabase(data).k_n_match(query, 5, 3)
    payload = {"protocol": 1, "kind": "k_n_match",
               "result": protocol.encode_match_result(result)}
    oracle = Oracle(data)
    assert oracle.check(spec, protocol.canonical_json(payload)) is None

    swapped = json.loads(protocol.canonical_json(payload))
    ids = swapped["result"]["ids"]
    ids[0], ids[1] = ids[1], ids[0]
    assert oracle.check(spec, protocol.canonical_json(swapped)) is not None

    nudged = json.loads(protocol.canonical_json(payload))
    first = nudged["result"]["differences"][0]
    nudged["result"]["differences"][0] = float(np.nextafter(first, 1.0))
    assert oracle.check(spec, protocol.canonical_json(nudged)) is not None


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_layers_account_for_client_wall_time(workload):
    result = run.run(workload, seed=4, seconds=1.0, trace=True,
                     cardinality=TINY)
    assert result["correct"]
    record = json.loads(
        (run.OUT_DIR / f"{workload}.seed4.trace1.json").read_text())
    accounting = record["accounting"]
    assert accounting["joined_requests"] == accounting["ok_requests"] > 0
    wall = accounting["client_wall_ms"]
    assert abs(accounting["attributed_ms"] - wall) <= 0.1 * wall
    rows = record["budget"]
    assert "serve.outside_app" in rows and "serve.handle" in rows
    assert sum(row["share_of_wall"] for row in rows.values()) == pytest.approx(
        accounting["attributed_ms"] / wall)
