"""The correctness gate: every served answer against the naive oracle.

The oracle is :class:`repro.core.naive.NaiveScanEngine` over the point
set the server holds, run in the benchmark process after the timed
window.  A k-n-match answer must match it bit for bit (ids and
differences); a frequent answer must match its ids and frequencies.
For a store whose ids are not row positions (``lsm-churn``), the rows
are given in ascending-pid order, so the oracle's id tie-break (by row
position) is the pid tie-break the server uses.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.naive import NaiveScanEngine


class Oracle:
    """Memoised naive answers keyed by the request spec of :mod:`load`."""

    def __init__(self, rows: np.ndarray, pids: Optional[Sequence[int]] = None):
        self._engine = NaiveScanEngine(rows)
        self._pids = None if pids is None else np.asarray(pids, dtype=np.int64)
        self._expected: Dict[Tuple, object] = {}
        self._verified: Dict[Tuple, Set[bytes]] = {}

    def _ids(self, positions) -> list:
        if self._pids is None:
            return [int(i) for i in positions]
        return [int(self._pids[i]) for i in positions]

    def _match(self, query, k: int, n: int) -> dict:
        result = self._engine.k_n_match(np.asarray(query), k, n)
        return {"ids": self._ids(result.ids),
                "differences": [float(d) for d in result.differences]}

    def expected(self, spec: Tuple):
        if spec not in self._expected:
            kind = spec[0]
            if kind == "query":
                _, query, k, n = spec
                answer = self._match(query, k, n)
            elif kind == "batch":
                _, rows, k, n = spec
                answer = [self._match(row, k, n) for row in rows]
            elif kind == "frequent":
                _, query, k, n_range = spec
                result = self._engine.frequent_k_n_match(
                    np.asarray(query), k, n_range, keep_answer_sets=False
                )
                answer = {"ids": self._ids(result.ids),
                          "frequencies": list(result.frequencies)}
            else:
                raise ValueError(f"no oracle for {kind!r} requests")
            self._expected[spec] = answer
        return self._expected[spec]

    def check(self, spec: Tuple, body: bytes) -> Optional[str]:
        """``None`` when ``body`` answers ``spec`` exactly, else why not.

        A body already verified for the same spec (a cache hit replays
        the same bytes) is accepted without decoding it again.
        """
        verified = self._verified.setdefault(spec, set())
        if body in verified:
            return None
        payload = json.loads(body)
        want = self.expected(spec)
        if spec[0] == "batch":
            got = [
                {"ids": r["ids"], "differences": r["differences"]}
                for r in payload["results"]
            ]
        elif spec[0] == "frequent":
            result = payload["result"]
            got = {"ids": result["ids"], "frequencies": result["frequencies"]}
        else:
            result = payload["result"]
            got = {"ids": result["ids"], "differences": result["differences"]}
        if got != want:
            return f"{spec[0]} answer differs from the oracle: {got} != {want}"
        verified.add(body)
        return None
