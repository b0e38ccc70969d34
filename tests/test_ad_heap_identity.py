"""``ADEngine`` against the heap loop of Fig. 4/6 it reproduces.

The engine computes the frontier's pop prefix with numpy instead of
popping a heap.  The reference here is the literal loop:
``run_k_n_match`` / ``run_frequent_k_n_match`` over an
``AscendingDifferenceFrontier`` of ``make_cursors``, with the counters
read off the frontier.  Every output must agree exactly: ids,
differences, answer sets (truncated or not, kept or not), frequencies
and every ``SearchStats`` field.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ad import ADEngine
from repro.core.matchloop import run_frequent_k_n_match, run_k_n_match
from repro.core.types import SearchStats, rank_by_frequency
from repro.sorted_lists import AscendingDifferenceFrontier, make_cursors


def _frontier(columns, query):
    return AscendingDifferenceFrontier(
        make_cursors(columns, np.asarray(query, dtype=np.float64))
    )


def _stats(columns, frontier):
    return SearchStats(
        attributes_retrieved=frontier.attributes_retrieved,
        total_attributes=columns.total_attributes,
        heap_pops=frontier.pops,
        binary_search_probes=columns.dimensionality,
    )


def heap_k_n_match(columns, query, k, n):
    frontier = _frontier(columns, query)
    ids, differences = run_k_n_match(frontier, columns.cardinality, k, n)
    return ids, differences, _stats(columns, frontier)


def heap_frequent(columns, query, k, n0, n1, truncate):
    frontier = _frontier(columns, query)
    sets = run_frequent_k_n_match(frontier, columns.cardinality, k, n0, n1)
    if truncate:
        sets = {n: ids[:k] for n, ids in sets.items()}
    chosen, frequencies = rank_by_frequency(sets, k)
    return chosen, frequencies, sets, _stats(columns, frontier)


def assert_matches_heap(engine, query, k, n):
    result = engine.k_n_match(query, k, n)
    ids, differences, stats = heap_k_n_match(engine.columns, query, k, n)
    assert result.ids == ids
    assert all(type(i) is int for i in result.ids)
    assert result.differences == differences
    assert result.stats == stats


def assert_frequent_matches_heap(engine, query, k, n_range):
    n0, n1 = n_range
    for truncate in (True, False):
        chosen, frequencies, sets, stats = heap_frequent(
            engine.columns, query, k, n0, n1, truncate
        )
        for keep in (True, False):
            result = engine.frequent_k_n_match(
                query, k, n_range, keep_answer_sets=keep,
                truncate_answer_sets=truncate,
            )
            assert result.ids == chosen
            assert result.frequencies == frequencies
            assert result.answer_sets == (sets if keep else None)
            assert result.stats == stats


def _cases():
    rng = np.random.default_rng(20061015)
    uniform = rng.random((120, 6))
    grid = rng.integers(0, 4, size=(90, 5)).astype(float)
    duplicate = np.tile(rng.random(4), (25, 1))
    # values a few ulps around 1.0: q -/+ eps rounds differently from
    # the cursors' |value - q|, which the engine must widen for
    ulps = 1.0 + rng.integers(-20, 21, size=(80, 4)) * np.finfo(float).eps
    return [
        ("uniform", uniform, rng.random(6)),
        ("uniform-row", uniform, uniform[7]),
        ("grid", grid, rng.integers(0, 4, 5).astype(float)),
        ("grid-row", grid, grid[3]),
        ("grid-half", grid, np.array([1.5, 0.0, 3.0, 2.5, 1.0])),
        ("duplicate-rows", duplicate, duplicate[0]),
        ("duplicate-off", duplicate, duplicate[0] + 0.25),
        ("outside-range", uniform, np.array([-1.0, 2.0, 0.5, -0.5, 3.0, 0.2])),
        ("all-outside", grid, np.full(5, 7.0)),
        ("ulps", ulps, np.ones(4)),
        ("signed-zeros", rng.choice([-0.0, 0.0, 1.0, -1.0], size=(40, 3)),
         np.array([0.0, -0.0, 0.5])),
    ]


CASES = _cases()


@pytest.mark.parametrize(
    "data,query", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
class TestHeapIdentity:
    def test_k_n_match(self, data, query):
        engine = ADEngine(data)
        c, d = data.shape
        for k in sorted({1, 3, 10, c}):
            for n in sorted({1, 2, (d + 1) // 2, d}):
                assert_matches_heap(engine, query, k, n)

    def test_frequent_k_n_match(self, data, query):
        engine = ADEngine(data)
        c, d = data.shape
        for k in sorted({1, 4, c}):
            for n_range in sorted({(1, d), (1, 1), (d, d), (2, d), (1, 2)}):
                assert_frequent_matches_heap(engine, query, k, n_range)


@st.composite
def heap_cases(draw):
    c = draw(st.integers(1, 40))
    d = draw(st.integers(1, 6))
    if draw(st.booleans()):
        elements = st.integers(0, 3).map(float)  # ties within and across slots
    else:
        elements = st.floats(-2.0, 2.0, allow_nan=False, width=32)
    rows = draw(st.lists(
        st.lists(elements, min_size=d, max_size=d), min_size=c, max_size=c
    ))
    data = np.array(rows, dtype=np.float64)
    if draw(st.booleans()):
        query = data[draw(st.integers(0, c - 1))].copy()
    else:
        query = np.array(
            draw(st.lists(elements, min_size=d, max_size=d)), dtype=np.float64
        )
    k = draw(st.integers(1, c))
    n0 = draw(st.integers(1, d))
    n1 = draw(st.integers(n0, d))
    return data, query, k, n0, n1


@pytest.mark.tier2
class TestHeapIdentityProperty:
    @settings(max_examples=300, deadline=None)
    @given(heap_cases())
    def test_matches_heap(self, case):
        data, query, k, n0, n1 = case
        engine = ADEngine(data)
        assert_matches_heap(engine, query, k, n1)
        assert_frequent_matches_heap(engine, query, k, (n0, n1))
