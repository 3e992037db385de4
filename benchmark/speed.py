"""Machine-speed probe that puts timed figures on a common scale.

On the reference machine (2 vCPUs shared with other tenants, see
README.md), one fixed pure-Python loop takes anywhere from 0.7x to 1.4x
of its median time, in phases that last from seconds to tens of seconds,
and process CPU time drifts with wall time (the slowdown happens while
the process runs, not while it waits). Raw round wall times of runs a
minute apart therefore spread by 11-26% (IQR/median over ten seeds).

So every timed command is bracketed by a probe: a fixed piece of work
owned by the benchmark (regex tokenizing, dict counting, JSON round trips
and small numpy products, the kinds of work the pipeline does), which no
change to argtree can touch. A command's normalised time is its wall
time x REFERENCE_S / (mean of the probes just before and just after it):
the seconds it would take when the machine runs the probe in REFERENCE_S,
about the probe's median on the reference machine in a quiet phase.
"""

from __future__ import annotations

import json
import re
import statistics
import time

import numpy as np

REFERENCE_S = 2.0e-3
REPEATS = 3

_TOKEN = re.compile(r"\w+|[^\w\s]")
_MATRIX = np.random.default_rng(0).standard_normal((128, 64)) * 0.1


def _work() -> float:
    counts: dict[str, int] = {}
    vector = np.ones(64)
    for i in range(110):
        text = f"Claim {i} has filler{i % 13} words, concepts topic{i % 5}term{i % 7} and marks."
        for token in _TOKEN.findall(text.lower()):
            counts[token] = counts.get(token, 0) + 1
        record = json.loads(json.dumps({"id": i, "tokens": sorted(counts)[:8]}))
        vector = np.tanh(_MATRIX @ vector)[:64] * 0.5 + record["id"] * 1e-6
    return float(vector.sum())


def probe() -> float:
    """Median seconds of REPEATS runs of the fixed work."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor that turns wall seconds between two probes into reference seconds."""
    return REFERENCE_S / ((before + after) / 2.0)
