"""In-memory span tracer that wraps hmsim's public functions from outside.

A span is (name, start, end, parent). Spans are kept in flat arrays so a
traced campaign call (hundreds of thousands of spans) stays small, and self
time is computed at the end as a span's duration minus the time its child
spans cover. Calls run in one thread, so children never overlap and the
covered time is the sum of their durations.

Wrapping works by replacing the attribute that callers look up: a function
is replaced in every loaded ``hmsim`` module that holds it (``campaign``
calls ``draw_population`` through its own namespace, for example), and a
method is replaced on its class. A target that does not exist is skipped,
so a layer a later version removes reports zero calls instead of failing.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# (span name, module, attribute path). Span names are "<layer>.<function>".
TARGETS = (
    ("cli.load_scenario", "hmsim.cli", "load_scenario"),
    ("cli.cmd_pair", "hmsim.cli", "cmd_pair"),
    ("campaign.run_campaign", "hmsim.campaign", "run_campaign"),
    ("campaign.gains_csv_text", "hmsim.campaign", "gains_csv_text"),
    ("modcod.load_threshold_csv", "hmsim.modcod", "load_threshold_csv"),
    ("modcod.merged_with", "hmsim.modcod", "ThresholdTable.merged_with"),
    ("modcod.subset", "hmsim.modcod", "ThresholdTable.subset"),
    ("modcod.best_single", "hmsim.modcod", "ThresholdTable.best_single"),
    ("rateopt.system_gain", "hmsim.rateopt", "system_gain"),
    ("rateopt.pair_solution", "hmsim.rateopt", "pair_solution"),
    ("rateopt.achievable_pairs", "hmsim.rateopt", "achievable_pairs"),
    ("rateopt.equal_rate_point", "hmsim.rateopt", "equal_rate_point"),
    ("beam.draw_population", "hmsim.beam", "draw_population"),
    ("beam.antenna_gain_rel", "hmsim.beam", "antenna_gain_rel"),
    ("beam.sample_weather_attenuation", "hmsim.beam", "sample_weather_attenuation"),
)


def _count_result(tracer: "Tracer", name: str, args, kwargs, result) -> None:
    """Work counters taken at the layer boundary."""
    if name == "rateopt.achievable_pairs":
        tracer.counters["achievable_points"] += len(result)
    elif name == "rateopt.pair_solution":
        tracer.counters["hm_wins"] += int(result.r_hm > result.r_ts)
    elif name == "beam.draw_population":
        tracer.counters["receivers_drawn"] += int(args[0] if args else kwargs["n"])


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters = {"achievable_points": 0, "hm_wins": 0, "receivers_drawn": 0}
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        index = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(index)
            _count_result(self, name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every target that exists in the loaded hmsim modules."""
        modules = [m for key, m in sys.modules.items() if key == "hmsim" or key.startswith("hmsim.")]
        for name, module_name, attr in TARGETS:
            owner = sys.modules.get(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                continue
            traced = self.wrap(name, original)
            holders = [owner] if path else [m for m in modules if getattr(m, leaf, None) is original]
            for holder in holders:
                self._restore.append((holder, leaf, original))
                setattr(holder, leaf, traced)

    def uninstall(self) -> None:
        for holder, leaf, original in reversed(self._restore):
            setattr(holder, leaf, original)
        self._restore.clear()

    def arrays(self):
        """(name_id, parent, start, end, self_time) as numpy arrays."""
        name_id = np.frombuffer(self.name_id, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        duration = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
        return name_id, parent, start, end, duration - covered

    def totals(self, first: int = 0, last: int | None = None) -> dict[str, dict[str, float]]:
        """Calls, inclusive and self seconds per span name over spans
        [first, last). Every name in TARGETS is present, with zero calls if
        it never ran."""
        name_id, _, start, end, self_time = self.arrays()
        sl = slice(first, last)
        ids, dur, own = name_id[sl], (end - start)[sl], self_time[sl]
        n = max(len(self.names), 1)
        calls = np.bincount(ids, minlength=n)
        incl = np.bincount(ids, weights=dur, minlength=n)
        selfs = np.bincount(ids, weights=own, minlength=n)
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name, _, _ in TARGETS}
        for i, name in enumerate(self.names):
            out[name] = {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(selfs[i])}
        return out

    def save(self, path, first: int = 0, last: int | None = None) -> None:
        """Write spans [first, last) with their self time as a compressed npz."""
        name_id, parent, start, end, self_time = self.arrays()
        sl = slice(first, last)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=name_id[sl],
            parent=parent[sl],
            start=start[sl],
            end=end[sl],
            self_s=self_time[sl],
        )
