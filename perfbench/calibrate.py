"""A fixed reference workload that measures the host's current speed.

The benchmark runs ``reference()`` between operations and scales each
operation's time by ``NOMINAL_S / reference seconds``. A shared host's speed
drifts by up to 2x over minutes, and the reference slows with it, so the
scaled times keep the program's cost and lose most of the host's drift.

The reference is the benchmark's own code and never changes with the
program. It mixes the kinds of work hmsim does, in about the same shares as
a campaign: pure-Python geometry and harmonic means over small lists (the
pair solver), CSV parsing into records (table load), and numpy array maths
including long doubles (the beam draw).
"""

from __future__ import annotations

import bisect
import csv
import io
import math
import random
from time import perf_counter

import numpy as np

# Reference seconds that count as nominal speed: about its median on a
# 2-vCPU Xeon host (Sapphire Rapids, KVM) with both vCPUs busy.
NOMINAL_S = 0.1

_RNG = random.Random(20131002)
_THRESHOLDS = sorted(_RNG.uniform(-3.0, 20.0) for _ in range(60))
_EFFICIENCIES = sorted(_RNG.uniform(0.2, 4.5) for _ in range(60))
_CSV_TEXT = "family,code_rate,threshold_db,stream\n" + "".join(
    f"f{i % 7},{1 + i % 9}/{10 + i % 3},{_RNG.uniform(-3.0, 20.0):.3f},{('HP', 'LP', 'SINGLE')[i % 3]}\n"
    for i in range(150)
)
_ANGLES = np.linspace(1e-4, 0.02, 4000)
_COEFFS = [np.longdouble((-1) ** k) / np.longdouble(math.factorial(k) * math.factorial(k + 1)) for k in range(24)]


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _upper_hull(points):
    hull = []
    for p in sorted(points):
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) >= 0:
            hull.pop()
        hull.append(p)
    return hull


def _pairs(n: int, rng: random.Random) -> float:
    acc = 0.0
    top = len(_THRESHOLDS)
    for _ in range(n):
        i = bisect.bisect_right(_THRESHOLDS, rng.uniform(-2.0, 20.0))
        j = bisect.bisect_right(_THRESHOLDS, rng.uniform(-2.0, 20.0))
        points = [
            (_EFFICIENCIES[a], _EFFICIENCIES[b] * (1.0 + 0.01 * a))
            for a in range(max(1, i - 8), min(i + 1, top))
            for b in range(max(1, j - 8), min(j + 1, top))
        ]
        hull = _upper_hull(points) or [(1.0, 1.0)]
        acc += sum(1.0 / (1.0 / x + 1.0 / y) for x, y in hull) / len(hull)
    return acc


def _tables(n: int) -> float:
    acc = 0.0
    for _ in range(n):
        rows = []
        for row in csv.DictReader(io.StringIO(_CSV_TEXT)):
            p, _, q = row["code_rate"].partition("/")
            rows.append((row["family"], int(p) / int(q), float(row["threshold_db"]), row["stream"]))
        rows.sort(key=lambda r: (r[0], r[2]))
        acc += sum(r[1] for r in rows if r[3] == "SINGLE")
    return acc


def _arrays(n: int) -> float:
    acc = 0.0
    for k in range(n):
        x = np.sin(_ANGLES * (1.0 + 0.01 * k)) * 5000.0
        u = np.asarray(x * x / 4.0, dtype=np.longdouble)
        series = np.full_like(u, _COEFFS[-1])
        for c in reversed(_COEFFS[:-1]):
            series = series * -u + c
        gain = np.maximum(-10.0 * np.log10(np.abs(series.astype(float)) + 1e-12), 0.0)
        acc += float(np.interp(0.5, np.linspace(0.0, 1.0, gain.size), np.sort(gain)))
    return acc


def reference(size: int = 4) -> float:
    """Run the fixed reference work ``size`` quarters long; returns its wall
    seconds per nominal second, which is 1.0 at nominal host speed."""
    t0 = perf_counter()
    for _ in range(size):
        _pairs(175, random.Random(1))
        _tables(8)
        _arrays(3)
    return (perf_counter() - t0) / (size * NOMINAL_S / 4)
