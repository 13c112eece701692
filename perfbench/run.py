#!/usr/bin/env python3
"""Benchmark of hmsim, driven only through its public entry points.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

The package is imported from ``src/`` of the checkout; nothing is installed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, measured with tracing off and scaled
to nominal host speed by the reference workload in ``calibrate.py``; with
``--trace 1`` they are the per-layer ones from a traced pass at workers=1.
A run record (machine, versions, input digests, work counts, checks) is
printed on the line before and saved under ``perfbench/results/``.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "hmsim" / "data"
RESULTS = HERE / "results"

DEFAULT_SEED = 1
SETUP_REPEATS = 9
WARMUP_S = 3.0
FAMILIES = "h_qpsk,h_apsk32"

# Why each workload exists is in README.md. Sizes keep one operation short
# (0.2-1.5 s) so that a run holds tens of them and its median rejects short
# shifts in the host's speed.
WORKLOADS = {
    "sweep": {"kind": "campaign", "grid": "1:16:0.5", "receivers": 500, "reps": 1, "workers": 1},
    "sweep-2w": {"kind": "campaign", "grid": "1:16:0.5", "receivers": 500, "reps": 1, "workers": 2},
    "outage-edge": {"kind": "campaign", "grid": "-2.4:-1.5:0.05", "receivers": 500, "reps": 5, "workers": 1},
    # SNRs in centi-dB: from the lowest single-modcod threshold up, so both
    # receivers of every query decode some single modcod.
    "pair-cli": {"kind": "pair", "snr_centi_db": [-235, 2000], "min_queries": 1000, "count_queries": 200, "batch": 20,
                 "ref_every": 5, "ref_size": 1, "ref_half_width": 4},
}
TINY = {
    "sweep": {"grid": "1:16:5", "receivers": 40, "reps": 1},
    "sweep-2w": {"grid": "1:16:5", "receivers": 40, "reps": 1},
    "outage-edge": {"grid": "-2.4:-1.5:0.3", "receivers": 100, "reps": 2},
    "pair-cli": {"min_queries": 20, "count_queries": 10, "batch": 5},
}

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}
PER_LAYER = {
    "rateopt.system_gain.self_s": "s",
    "rateopt.pair_solution.calls": "count",
    "rateopt.pair_solution.self_s": "s",
    "rateopt.pair_solution.us": "us",
    "rateopt.achievable_pairs.s": "s",
    "rateopt.achievable_pairs.points_per_call": "count",
    "rateopt.equal_rate_point.s": "s",
    "rateopt.hm_win_ratio": "frac",
    "beam.draw_population.calls": "count",
    "beam.draw_population.self_s": "s",
    "beam.draw_population.ns_per_rx": "ns",
    "beam.antenna_gain_rel.s": "s",
    "beam.sample_weather_attenuation.s": "s",
    "beam.receivers_drawn": "count",
    "modcod.load.calls": "count",
    "modcod.load.s": "s",
    "modcod.subset.s": "s",
    "modcod.best_single.calls": "count",
    "modcod.best_single.us": "us",
    "campaign.run_campaign.self_s": "s",
    "campaign.units": "count",
    "campaign.receivers_dropped": "count",
    "campaign.served_ratio": "frac",
    "campaign.excluded_runs": "count",
    "campaign.tasks": "count",
    "campaign.worker_cpu_s": "s",
    "campaign.worker_util": "frac",
    "campaign.gains_csv.bytes": "bytes",
    "cli.load_scenario.s": "s",
    "cli.cmd_pair.self_s": "s",
    "trace.overhead_frac": "frac",
}

# Bits per symbol of the non-hierarchical DVB-S2 modulations, for the
# benchmark's own brute-force single-modcod scan.
SINGLE_BITS = {"qpsk": 2, "psk8": 3, "apsk16": 4, "apsk32": 5}


# A spinner stops by itself if the benchmark dies without stopping it, even
# while it is paused: the kernel kills it when its parent exits.
SPIN = """
import ctypes, os, time
try:
    ctypes.CDLL(None, use_errno=True).prctl(1, 9)  # PR_SET_PDEATHSIG, SIGKILL
except (OSError, AttributeError):
    pass
parent, end = os.getppid(), time.monotonic() + 600
while os.getppid() == parent and time.monotonic() < end:
    for _ in range(100000):
        pass
"""


class Spinners:
    """Spinning processes that hold the CPUs a single process leaves idle.

    On a shared 2-vCPU Xeon host, one busy process ran up to 1.7x faster
    while the other vCPU was idle, in bursts of seconds to minutes; with both
    vCPUs busy it stayed steadier. At most two CPUs are considered, so a
    larger host gets at most one spinner. ``paused()`` stops them while an
    operation's own worker processes fill the CPUs.
    """

    def __init__(self, procs: list[subprocess.Popen]):
        self.procs = procs

    def _signal(self, sig: int) -> None:
        for proc in self.procs:
            proc.send_signal(sig)

    @contextmanager
    def paused(self, pause: bool = True):
        if pause:
            self._signal(signal.SIGSTOP)
        try:
            yield
        finally:
            if pause:
                self._signal(signal.SIGCONT)


@contextmanager
def busy_cpus():
    cpus = os.sched_getaffinity(0)
    procs = [subprocess.Popen([sys.executable, "-c", SPIN]) for _ in range(min(len(cpus), 2) - 1)]
    try:
        yield Spinners(procs)
    finally:
        for proc in procs:
            proc.kill()
        for proc in procs:
            proc.wait()


def host_factor(refs: list[float], group: int, half_width: int) -> float:
    """The host's slowness around a group of operations: the median of the
    ``half_width`` reference runs on each side of the group."""
    return statistics.median(refs[max(0, group + 1 - half_width) : group + 1 + half_width])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


# -- program under test ----------------------------------------------------------


class Program:
    """The hmsim modules the benchmark calls, looked up on each call so that
    patched attributes are seen."""

    def __init__(self):
        self.cli = importlib.import_module("hmsim.cli")
        self.campaign = importlib.import_module("hmsim.campaign")
        self.tasks = 0
        pool = getattr(self.campaign, "ProcessPoolExecutor", None)
        if pool is not None:
            program = self

            class CountingPool(pool):
                def submit(self, *args, **kwargs):
                    program.tasks += 1
                    return super().submit(*args, **kwargs)

            self.campaign.ProcessPoolExecutor = CountingPool


def purge_hmsim() -> None:
    for key in [k for k in sys.modules if k == "hmsim" or k.startswith("hmsim.")]:
        del sys.modules[key]


def set_up(overrides: argparse.Namespace, warmup_s: float) -> tuple[Program, float, list[float]]:
    """Import hmsim and load the scenario SETUP_REPEATS times from scratch;
    returns the last import, the median of the scaled seconds, and the raw
    seconds.

    Loading repeats untimed for ``warmup_s`` first, so that the host's clock
    settles at its all-CPUs-busy speed: the first seconds after idle run
    faster. Each timed set-up sits between two runs of the reference
    workload, which scale it to nominal host speed."""
    import numpy  # noqa: F401  a dependency's import is not hmsim's set-up

    raw, refs = [], []
    with busy_cpus():
        cli = importlib.import_module("hmsim.cli")
        warm_until = perf_counter() + warmup_s
        while perf_counter() < warm_until:
            cli.load_scenario(None, overrides)
            calibrate.reference()
        refs.append(calibrate.reference())
        for _ in range(SETUP_REPEATS):
            purge_hmsim()
            t0 = perf_counter()
            cli = importlib.import_module("hmsim.cli")
            cli.load_scenario(None, overrides)
            raw.append(perf_counter() - t0)
            refs.append(calibrate.reference())
    setup = [t / host_factor(refs, i, 1) for i, t in enumerate(raw)]
    return Program(), statistics.median(setup), raw


def scenario_overrides(spec: dict, seed: int, workers: int | None = None) -> argparse.Namespace:
    campaign = spec["kind"] == "campaign"
    return argparse.Namespace(
        seed=seed,
        receivers=spec["receivers"] if campaign else None,
        reps=spec["reps"] if campaign else None,
        grid=spec["grid"] if campaign else None,
        families=FAMILIES if campaign else None,
        out=None,
        workers=(workers or spec["workers"]) if campaign else None,
    )


# -- output checks ------------------------------------------------------------------


def bad_grid_points(text: str, grid: tuple[float, ...], tokens: tuple[str, ...], reps: int) -> set[float]:
    """Grid points whose gains.csv rows are missing or break an invariant:
    an included mean gain is finite and >= 0; a point with every run
    excluded (total outage) has a NaN mean."""
    lines = text.splitlines()
    if not lines or lines[0] != "snr_max_db,family,mean_gain,std_gain,excluded_runs":
        return set(grid)
    seen: dict[float, set[str]] = {}
    bad: set[float] = set()
    for row in csv.reader(lines[1:]):
        try:
            snr, token, mean, std, excluded = float(row[0]), row[1], float(row[2]), float(row[3]), int(row[4])
        except (ValueError, IndexError):
            return set(grid)
        seen.setdefault(snr, set()).add(token)
        if excluded < reps:
            ok = math.isfinite(mean) and mean >= 0.0 and math.isfinite(std) and std >= 0.0
        else:
            ok = excluded == reps and math.isnan(mean)
        if not ok:
            bad.add(snr)
    bad.update(s for s in grid if seen.get(s) != set(tokens))
    return bad


def single_efficiency_scan() -> list[tuple[float, float]]:
    """(threshold_db, efficiency) of every SINGLE row in the shipped CSVs."""
    rows = []
    for path in sorted(DATA.glob("*.csv")):
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                if row.get("stream") == "SINGLE":
                    p, _, q = row["code_rate"].partition("/")
                    rows.append((float(row["threshold_db"]), SINGLE_BITS[row["family"]] * int(p) / int(q)))
    return rows


def pair_output_ok(text: str, snr1: float, snr2: float, singles: list[tuple[float, float]]) -> bool:
    """r_ts is the harmonic combination of the best single efficiencies and
    r_hm >= r_ts. Both SNRs decode some single modcod by construction."""
    r_ts = re.search(r"^r_ts\s*=\s*(\S+)", text, re.M)
    r_hm = re.search(r"^r_hm\s*=\s*(\S+)", text, re.M)
    if not (r_ts and r_hm):
        return False
    best = [max(eff for thr, eff in singles if thr <= snr) for snr in (snr1, snr2)]
    expected = 1.0 / (1.0 / best[0] + 1.0 / best[1])
    printed_ts, printed_hm = float(r_ts.group(1)), float(r_hm.group(1))
    return abs(printed_ts - expected) <= 6e-7 and printed_hm >= printed_ts


# -- operations ----------------------------------------------------------------------


class CampaignWorkload:
    """One operation: load the scenario (untimed, so a structure built at
    load shows in setup_s), then time run_campaign plus gains.csv text."""

    # A full-size reference run (about 0.1 s) before every operation.
    ref_every, ref_size, ref_half_width = 1, 4, 1

    def __init__(self, program: Program, spec: dict, seed: int):
        self.program = program
        self.spec = spec
        self.seed = seed

    def op(self, index: int, workers: int) -> dict:
        program, spec = self.program, self.spec
        scenario = program.cli.load_scenario(None, scenario_overrides(spec, self.seed, workers))
        cfg = scenario.campaign_config()
        units = len(cfg.snr_max_grid) * cfg.repetitions
        cpu_kind = resource.RUSAGE_CHILDREN if cfg.workers > 1 else resource.RUSAGE_SELF
        cpu0, tasks0 = cpu_seconds(cpu_kind), program.tasks
        t0 = perf_counter()
        try:
            report = program.campaign.run_campaign(cfg, scenario.tables, scenario.antenna, scenario.weather)
            text = program.campaign.gains_csv_text(report)
        except Exception as exc:  # a failed operation is counted, not fatal
            return {"latency": perf_counter() - t0, "items": units, "failed": units, "error": repr(exc)}
        latency = perf_counter() - t0
        cpu = cpu_seconds(cpu_kind) - cpu0
        tokens = tuple(report.family_tokens)
        bad = bad_grid_points(text, cfg.snr_max_grid, tokens, cfg.repetitions)
        outage = report.outage.values()
        return {
            "latency": latency,
            "items": units,
            "failed": len(bad) * cfg.repetitions,
            "workers": cfg.workers,
            "sha256": sha256(text.encode()),
            "worker_cpu_s": cpu,
            "worker_util": cpu / (cfg.workers * latency),
            "counts": {
                "units": units,
                "receivers_dropped": sum(round(s.mean_count * cfg.repetitions) for s in outage),
                "excluded_runs": sum(s.total_outage_runs for s in outage),
                "tasks": program.tasks - tasks0,
                "gains_csv_bytes": len(text.encode()),
            },
        }


class PairWorkload:
    """One operation: an in-process ``hmsim pair SNR1 SNR2`` query. The
    query stream is a pure function of the seed, one closed-loop client."""

    def __init__(self, program: Program, spec: dict, seed: int):
        self.program = program
        self.ref_every, self.ref_size, self.ref_half_width = spec["ref_every"], spec["ref_size"], spec["ref_half_width"]
        self.singles = single_efficiency_scan()
        rng = random.Random(seed)
        lo, hi = spec["snr_centi_db"]
        self._next = lambda: (f"{rng.randint(lo, hi) / 100:.2f}", f"{rng.randint(lo, hi) / 100:.2f}")
        self.queries: list[tuple[str, str]] = []

    def query(self, index: int) -> tuple[str, str]:
        while len(self.queries) <= index:
            self.queries.append(self._next())
        return self.queries[index]

    def op(self, index: int, workers: int) -> dict:
        snr1, snr2 = self.query(index)
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.program.cli.main(["pair", snr1, snr2])
        except (Exception, SystemExit) as exc:
            return {"latency": perf_counter() - t0, "items": 1, "failed": 1, "error": repr(exc)}
        latency = perf_counter() - t0
        text = out.getvalue()
        ok = code == 0 and pair_output_ok(text, float(snr1), float(snr2), self.singles)
        return {"latency": latency, "items": 1, "failed": 0 if ok else 1, "stdout": text}


def run_pass(workload, seconds: float, min_ops: int, workers: int, tracer=None) -> list[dict]:
    """Closed loop: the next operation starts when the previous one ends,
    until ``seconds`` have passed and at least ``min_ops`` ran. With a
    tracer, every odd-numbered operation is traced, so traced and untraced
    operations see the same host conditions.

    The reference workload runs before every ``workload.ref_every``
    operations and once at the end, untimed by the loop; each operation's
    ``scaled`` latency uses the reference runs on either side of its group."""
    ref_every, ref_size, half_width = workload.ref_every, workload.ref_size, workload.ref_half_width
    ops: list[dict] = []
    refs: list[float] = []
    with busy_cpus() as spinners:
        deadline = perf_counter() + seconds
        while perf_counter() < deadline or len(ops) < min_ops:
            if len(ops) % ref_every == 0:
                refs.append(calibrate.reference(ref_size))
            with spinners.paused(workers > 1):
                if tracer is None or len(ops) % 2 == 0:
                    ops.append(workload.op(len(ops), workers))
                    continue
                first, before = len(tracer.start), dict(tracer.counters)
                tracer.install()
                span = tracer.begin("op")
                try:
                    record = workload.op(len(ops), workers)
                finally:
                    tracer.finish(span)
                    tracer.uninstall()
            record["spans"] = (first, len(tracer.start))
            record["counters"] = {k: v - before[k] for k, v in tracer.counters.items()}
            ops.append(record)
        refs.append(calibrate.reference(ref_size))
    for i, o in enumerate(ops):
        o["host_factor"] = host_factor(refs, i // ref_every, half_width)
        o["scaled"] = o["latency"] / o["host_factor"]
    return ops


# -- metrics ---------------------------------------------------------------------------


def items_per_s(ops: list[dict], batch: int) -> float:
    """Median over batches of consecutive operations of items per second."""
    rates = []
    for i in range(0, len(ops) - batch + 1, batch):
        chunk = ops[i : i + batch]
        rates.append(sum(o["items"] for o in chunk) / sum(o["scaled"] for o in chunk))
    return statistics.median(rates)


def tail_percentile(n: int) -> int:
    """Highest whole percentile (at most 99, at least 50) with at least ten
    samples beyond it."""
    return max(50, min(99, math.floor(100 - 1000 / n)))


def end_to_end_metrics(ops: list[dict], batch: int, setup_s: float, workers: int) -> tuple[dict, dict]:
    latencies = [o["scaled"] for o in ops]
    raw = [o["latency"] for o in ops]
    p = tail_percentile(len(latencies))
    attempted = sum(o["items"] for o in ops)
    failed = sum(o["failed"] for o in ops)
    # The only other children are spinners, far smaller than a worker.
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers > 1:
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {
        "setup_s": setup_s,
        "items_per_s": items_per_s(ops, batch),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "peak_rss_mb": peak_kb / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
    }

    def tail_ms(values):
        return 1e3 * statistics.quantiles(values, n=100, method="inclusive")[p - 1]

    # The tail is recorded, not gated: see "Steadiness" in README.md.
    return values, {
        "operations": len(ops),
        "tail_percentile": p,
        "op_tail_ms": tail_ms(latencies),
        "raw_op_p50_ms": 1e3 * statistics.median(raw),
        "raw_op_tail_ms": tail_ms(raw),
        "latencies_s": latencies,
        "raw_latencies_s": raw,
        "host_factors": [o["host_factor"] for o in ops],
    }


def per_layer_metrics(tracer, traced: list[dict], fanout: list[dict], window: int, overhead: float) -> dict:
    n = len(traced)
    t = tracer.totals(traced[0]["spans"][0], traced[-1]["spans"][1])
    w = tracer.totals(traced[0]["spans"][0], traced[window - 1]["spans"][1])
    counters = {k: sum(o["counters"][k] for o in traced[:window]) for k in traced[0]["counters"]}
    counts = {k: sum(o.get("counts", {}).get(k, 0) for o in traced[:window]) for k in
              ("units", "receivers_dropped", "excluded_runs", "gains_csv_bytes")}

    def per_op(name, key="s"):
        return t[name][key] / n

    def ratio(a, b):
        return a / b if b else 0.0

    load = ("modcod.load_threshold_csv", "modcod.merged_with")
    drawn = counters["receivers_drawn"]
    return {
        "rateopt.system_gain.self_s": per_op("rateopt.system_gain", "self_s"),
        "rateopt.pair_solution.calls": w["rateopt.pair_solution"]["calls"],
        "rateopt.pair_solution.self_s": per_op("rateopt.pair_solution", "self_s"),
        "rateopt.pair_solution.us": 1e6 * ratio(t["rateopt.pair_solution"]["s"], t["rateopt.pair_solution"]["calls"]),
        "rateopt.achievable_pairs.s": per_op("rateopt.achievable_pairs"),
        "rateopt.achievable_pairs.points_per_call": ratio(counters["achievable_points"], w["rateopt.achievable_pairs"]["calls"]),
        "rateopt.equal_rate_point.s": per_op("rateopt.equal_rate_point"),
        "rateopt.hm_win_ratio": ratio(counters["hm_wins"], w["rateopt.pair_solution"]["calls"]),
        "beam.draw_population.calls": w["beam.draw_population"]["calls"],
        "beam.draw_population.self_s": per_op("beam.draw_population", "self_s"),
        "beam.draw_population.ns_per_rx": 1e9 * ratio(
            t["beam.draw_population"]["s"], sum(o["counters"]["receivers_drawn"] for o in traced)
        ),
        "beam.antenna_gain_rel.s": per_op("beam.antenna_gain_rel"),
        "beam.sample_weather_attenuation.s": per_op("beam.sample_weather_attenuation"),
        "beam.receivers_drawn": drawn,
        "modcod.load.calls": sum(w[name]["calls"] for name in load),
        "modcod.load.s": sum(per_op(name) for name in load),
        "modcod.subset.s": per_op("modcod.subset"),
        "modcod.best_single.calls": w["modcod.best_single"]["calls"],
        "modcod.best_single.us": 1e6 * ratio(t["modcod.best_single"]["s"], t["modcod.best_single"]["calls"]),
        "campaign.run_campaign.self_s": per_op("campaign.run_campaign", "self_s"),
        "campaign.units": counts["units"],
        "campaign.receivers_dropped": counts["receivers_dropped"],
        "campaign.served_ratio": ratio(drawn - counts["receivers_dropped"], drawn),
        "campaign.excluded_runs": counts["excluded_runs"],
        "campaign.tasks": fanout[0].get("counts", {}).get("tasks", 0),
        "campaign.worker_cpu_s": statistics.median(o.get("worker_cpu_s", 0.0) for o in fanout),
        "campaign.worker_util": statistics.median(o.get("worker_util", 0.0) for o in fanout),
        "campaign.gains_csv.bytes": counts["gains_csv_bytes"],
        "cli.load_scenario.s": per_op("cli.load_scenario"),
        "cli.cmd_pair.self_s": per_op("cli.cmd_pair", "self_s"),
        "trace.overhead_frac": overhead,
    }


def work_counts(metrics: dict) -> dict:
    """The per-layer counts that must repeat exactly between runs."""
    names = (
        "beam.receivers_drawn", "campaign.receivers_dropped", "campaign.units", "campaign.excluded_runs",
        "rateopt.pair_solution.calls", "rateopt.achievable_pairs.points_per_call", "rateopt.hm_win_ratio",
        "campaign.tasks", "campaign.gains_csv.bytes",
    )
    return {name: metrics[name] for name in names}


# -- run record ------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree; None otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(name: str, spec: dict, args) -> dict:
    import numpy

    return {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "input_sha256": {p.name: sha256(p.read_bytes()) for p in sorted(DATA.glob("*.csv"))},
        "workload_sha256": sha256(json.dumps({"name": name, **spec}, sort_keys=True).encode()),
        "workload_spec": spec,
    }


# -- checks over a whole run -----------------------------------------------------------


def run_checks(name: str, spec: dict, args, passes: list[list[dict]]) -> tuple[list[str], str | None]:
    """Run-level output checks. An operation whose output differs from the
    expected digest is marked failed. Returns (problems, output digest)."""
    ops = [o for p in passes for o in p]
    problems = [f"operation raised {e}" for e in sorted({o["error"] for o in ops if "error" in o})[:3]]
    reference = None
    if args.size == "full" and args.seed == DEFAULT_SEED:
        reference = json.loads((HERE / "reference.json").read_text()).get(name)
    if spec["kind"] == "campaign":
        # The first workers=1 result is the expectation for every other
        # operation: same seed, same bytes, whatever the worker count.
        done = [o for o in ops if "sha256" in o]
        baseline = next((o for o in done if o["workers"] == 1), done[0] if done else None)
        digest = baseline["sha256"] if baseline else None
        expected = reference or digest
        wrong = [o for o in done if o["sha256"] != expected]
        for o in wrong:
            o["failed"] = o["items"]
        if wrong:
            problems.append(f"{len(wrong)} operations wrote a gains.csv other than {expected}")
        keys = ("units", "receivers_dropped", "excluded_runs", "gains_csv_bytes")
        if len({tuple(o["counts"][k] for k in keys) for o in done}) > 1:
            problems.append("work counts differ between operations")
        if len({tuple(sorted(o["counters"].items())) for o in ops if "counters" in o}) > 1:
            problems.append("traced work counters differ between operations")
    else:
        prefix = passes[0][: spec["count_queries"]]
        digest = sha256("".join(o.get("stdout", "") for o in prefix).encode())
        if reference is not None and digest != reference:
            for o in prefix:
                o["failed"] = o["items"]
            problems.append(f"stdout of the first {len(prefix)} queries has digest {digest}, not {reference}")
    return problems, digest


# -- main --------------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few small operations, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hmsim" / "__init__.py").is_file():
        print(f"error: no hmsim source tree at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    name = args.workload
    spec = dict(WORKLOADS[name], **(TINY[name] if args.size == "tiny" else {}))
    campaign = spec["kind"] == "campaign"

    program, setup_s, setup_raw = set_up(scenario_overrides(spec, args.seed), min(WARMUP_S, args.seconds / 4))
    workload = (CampaignWorkload if campaign else PairWorkload)(program, spec, args.seed)
    min_ops = 3 if campaign else spec["min_queries"]
    batch = 1 if campaign else spec["batch"]
    window = 1 if campaign else spec["count_queries"]
    workers = spec.get("workers", 1)

    if args.trace == 0:
        passes = [run_pass(workload, args.seconds, min_ops, workers)]
        if workers > 1:  # expectation for the worker-count invariance check
            passes.append([workload.op(0, 1)])
        problems, digest = run_checks(name, spec, args, passes)
        metrics, info = end_to_end_metrics(passes[0], batch, setup_s, workers)
        units = END_TO_END
    else:
        from tracer import Tracer

        tracer = Tracer()
        share = args.seconds / (2 if workers > 1 else 1)
        mixed = run_pass(workload, share, 2 * max(window, 2), 1, tracer)
        plain, traced = mixed[0::2], mixed[1::2]
        passes = [mixed]
        if workers > 1:  # the fan-out metrics need the workload's own worker count
            passes.append(run_pass(workload, share, 2, workers))
        rate_plain, rate_traced = items_per_s(plain, batch), items_per_s(traced, batch)
        metrics = per_layer_metrics(tracer, traced, passes[-1] if workers > 1 else plain, window,
                                    rate_plain / rate_traced - 1.0)
        problems, digest = run_checks(name, spec, args, passes)
        info = {"operations": [len(p) for p in passes], "spans": len(tracer.start), "work_counts": work_counts(metrics)}
        units = PER_LAYER

    attempted = sum(o["items"] for p in passes for o in p)
    failed = sum(o["failed"] for p in passes for o in p)
    record = run_record(name, spec, args)
    record.update(info, output_sha256=digest, problems=problems, setup_s=setup_s, raw_setup_s=setup_raw)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{name}_seed{args.seed}_trace{args.trace}" + ("_tiny" if args.size == "tiny" else "")
    (RESULTS / f"{stem}.json").write_text(json.dumps({"record": record, "result": result}, indent=1) + "\n")
    if args.trace:
        first, last = traced[0]["spans"][0], traced[window - 1]["spans"][1]
        tracer.save(RESULTS / f"{stem}.spans.npz", first, last)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
