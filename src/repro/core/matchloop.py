"""The engine-independent consumption loop of the AD algorithm.

The disk AD engine (Sec. 4.1 over paged column files) and the IR
middleware consume attributes from an ascending-difference frontier and
watch appearance counts.  The loop itself is identical; only the
frontier differs.

A *frontier* is any object with ``pop() -> (pid, slot, diff) | None``
yielding attributes in globally ascending difference order.  Over
sorted columns the frontier pops a stable sort of all attributes by
(difference, slot, position along the slot's walk), since a slot's
difference never decreases along its walk.  The in-memory
:class:`~repro.core.ad.ADEngine` computes the prefix of that order this
loop would consume — same ids, differences and counters — with numpy
(:func:`repro.core.ad.pop_prefix`); the loop here over
``AscendingDifferenceFrontier(make_cursors(...))`` is its reference in
the tests.
"""

from __future__ import annotations

from typing import Dict, List, Protocol, Tuple

import numpy as np

__all__ = ["Frontier", "run_k_n_match", "run_frequent_k_n_match"]


class Frontier(Protocol):
    """Structural type of an ascending-difference attribute source."""

    def pop(self) -> "Tuple[int, int, float] | None":  # pragma: no cover
        ...


def run_k_n_match(
    frontier: Frontier, cardinality: int, k: int, n: int
) -> Tuple[List[int], List[float]]:
    """Algorithm ``KNMatchAD`` body (Fig. 4, lines 5-12).

    Pops attributes until ``k`` point ids have been seen ``n`` times.
    Returns ids in completion order — by Thm 3.1 that is ascending
    n-match-difference order — together with their exact differences
    (the difference of the pop that completed each id).
    """
    appear = np.zeros(cardinality, dtype=np.int32)
    ids: List[int] = []
    differences: List[float] = []
    while len(ids) < k:
        popped = frontier.pop()
        if popped is None:  # all attributes consumed; k <= c prevents this
            break  # pragma: no cover
        pid, _slot, dif = popped
        appear[pid] += 1
        if appear[pid] == n:
            ids.append(pid)
            differences.append(dif)
    return ids, differences


def run_frequent_k_n_match(
    frontier: Frontier, cardinality: int, k: int, n0: int, n1: int
) -> Dict[int, List[int]]:
    """Algorithm ``FKNMatchAD`` body (Fig. 6, lines 5-11).

    Pops attributes until ``k`` ids have been seen ``n1`` times; on the
    way, records ``S[n]`` — ids in the order they complete ``n``
    appearances — for every ``n`` in ``[n0, n1]``.  By the time the loop
    ends every ``S[n]`` holds (a superset of) the k-n-match answer set in
    ascending difference order; the caller truncates to ``k`` per
    Definition 4.
    """
    appear = np.zeros(cardinality, dtype=np.int32)
    sets: Dict[int, List[int]] = {n: [] for n in range(n0, n1 + 1)}
    completed = 0
    while completed < k:
        popped = frontier.pop()
        if popped is None:
            break  # pragma: no cover
        pid, _slot, _dif = popped
        appear[pid] += 1
        count = int(appear[pid])
        if n0 <= count <= n1:
            sets[count].append(pid)
            if count == n1:
                completed += 1
    return sets
