"""Acceptance criteria for the simulator, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. The campaign-level criteria (8, 9) share two full default
campaigns (500 receivers x 100 repetitions x 31 grid points, run at two
different worker counts) through a session fixture and are marked ``slow``;
everything else is sub-minute (``pytest -m "not slow"`` skips the two).
"""

import dataclasses
import hashlib
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    build_apsk32_points,
    equal_rate_oracle,
    h32apsk_reference_cells,
    hqpsk_reference_cells,
    table_entries,
)
from hmsim.beam import AntennaConfig, antenna_gain_rel, beam_edge_angle
from hmsim.campaign import gain_curve, gains_csv_text, run_campaign
from hmsim.constellations import (
    ADOPTED_APSK32_TRIPLES,
    ADOPTED_QPSK_SPLITS,
    Apsk32Params,
    QpskParams,
    apsk32_rho_he,
    qpsk_rho_he,
)
from hmsim.modcod import Family, SchemeId, Stream, signaling_bits
from hmsim.rateopt import RatePair, achievable_pairs, equal_rate_point, pair_solution

F = Fraction

# sha256 of the default campaign's gains.csv (seed 1, every family, no
# combined rows), the same at every worker count.
DEFAULT_GAINS_SHA256 = "ec590b97094c49b6b390bd9408f15083f8b6953ec3ec1404f47db59647cd9d29"


def report(criterion: str, detail: str):
    print(f"acceptance {criterion}: PASS - {detail}")


@pytest.fixture(scope="session")
def default_campaign(full_table, default_antenna, sample_weather, campaign_config):
    """The default campaign run twice at different parallelism degrees."""
    cfg_parallel = campaign_config(
        snr_max_grid=tuple(np.round(np.arange(1.0, 16.0 + 1e-9, 0.5), 6)),
        receivers=500,
        repetitions=100,
        master_seed=1,
        workers=2,
    )
    t0 = time.perf_counter()
    run_a = run_campaign(cfg_parallel, full_table, default_antenna, sample_weather)
    elapsed_a = time.perf_counter() - t0

    cfg_serial = dataclasses.replace(cfg_parallel, workers=1)
    t0 = time.perf_counter()
    run_b = run_campaign(cfg_serial, full_table, default_antenna, sample_weather)
    elapsed_b = time.perf_counter() - t0
    return run_a, run_b, elapsed_a, elapsed_b


def test_criterion_1_qpsk_split_table():
    t0 = time.perf_counter()
    worst = 0.0
    for rho, theta in ADOPTED_QPSK_SPLITS.items():
        worst = max(worst, abs(qpsk_rho_he(QpskParams(theta)) - rho))
        assert abs(qpsk_rho_he(QpskParams(theta)) - rho) <= 0.02
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report("1 (hierarchical-QPSK split table)", f"9 columns, worst |cos^2(theta)-rho| = {worst:.4f}")


def test_criterion_2_apsk32_split_table():
    t0 = time.perf_counter()
    worst = 0.0
    for rho, (g1, g2, theta) in ADOPTED_APSK32_TRIPLES.items():
        err = abs(apsk32_rho_he(Apsk32Params(g1, g2, theta)) - rho)
        worst = max(worst, err)
        assert err <= 0.005
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report("2 (hierarchical 32-APSK split table)", f"5 triples, worst error = {worst:.5f}")


def test_criterion_3_threshold_table_fidelity(hqpsk_table, h32apsk_table):
    t0 = time.perf_counter()
    rng = random.Random(2024)
    hq_cells = hqpsk_reference_cells()
    h32_cells = h32apsk_reference_cells()
    checked = 0
    for (rho, stream, rate) in rng.sample(sorted(hq_cells, key=str), 10):
        got = table_entries(hqpsk_table)[SchemeId(Family.H_QPSK, rho), Stream(stream), rate]
        assert got == hq_cells[(rho, stream, rate)], (rho, stream, rate)
        checked += 1
    for (rho, stream, rate) in rng.sample(sorted(h32_cells, key=str), 10):
        got = table_entries(h32apsk_table)[SchemeId(Family.H_APSK32, rho), Stream(stream), rate]
        assert got == h32_cells[(rho, stream, rate)], (rho, stream, rate)
        checked += 1
    # the known-anomaly cell is preserved verbatim and flagged on load
    assert table_entries(hqpsk_table)[SchemeId(Family.H_QPSK, 0.6), Stream.LE, F(1, 2)] == 1.2
    assert [w.known_anomaly for w in hqpsk_table.warnings] == [True]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report("3 (appendix table fidelity)", f"{checked} sampled cells exact, anomaly cell flagged")


def test_criterion_4_formula_vs_geometry():
    rng = random.Random(314)
    worst = 0.0
    for _ in range(1000):
        g1 = rng.uniform(1.01, 4.0)
        g2 = rng.uniform(g1 + 0.01, 9.0)
        params = Apsk32Params(g1, g2, rng.uniform(0.1, 44.9))
        points = build_apsk32_points(params).points
        quadrant = [p for p in points if p.real > 0 and p.imag > 0]
        bary_sq = abs(sum(quadrant) / len(quadrant)) ** 2
        err = abs(bary_sq - apsk32_rho_he(params))
        worst = max(worst, err)
        assert err <= 1e-9
    report("4 (energy formula vs generated geometry)", f"1000 random params, worst gap = {worst:.2e}")


def test_criterion_5_equal_rate_solver(full_table):
    t0 = time.perf_counter()
    rng = random.Random(55)
    worst = 0.0
    for _ in range(1000):
        pts = [(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(rng.randint(1, 12))]
        solved = equal_rate_point([RatePair(x, y) for x, y in pts]).rate
        oracle = equal_rate_oracle(pts)
        worst = max(worst, abs(solved - oracle))
        assert abs(solved - oracle) <= 1e-9
    checked = 0
    for _ in range(10_000):
        a, b = sorted((rng.uniform(-6.0, 20.0), rng.uniform(-6.0, 20.0)))
        sol = pair_solution(a, b, full_table)
        assert sol.r_hm >= sol.r_ts >= 0.0
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(
        "5 (equal-rate solver)",
        f"1000 oracle matches (worst {worst:.2e}), r_hm >= r_ts on {checked} SNR pairs, {elapsed:.1f} s",
    )


def test_criterion_6_signaling_bits():
    assert signaling_bits(11, 22) == 12
    report("6 (signaling bit count)", "11 rates x 22 hierarchical modulations -> 12 bits")


def test_criterion_7_beam_edge():
    cfg = AntennaConfig(diameter_m=1.5, frequency_hz=20e9, edge_level_db=4.0)
    theta = beam_edge_angle(cfg)
    gap = abs(antenna_gain_rel(theta, cfg) - 10 ** (-0.4))
    assert gap <= 1e-9
    beam_edge_angle.cache_clear()
    again = beam_edge_angle(AntennaConfig(diameter_m=1.5, frequency_hz=20e9, edge_level_db=4.0))
    assert abs(again - theta) <= 1e-9
    assert math.degrees(theta) == pytest.approx(0.336, abs=5e-4)
    report("7 (beam edge angle)", f"theta_edge = {math.degrees(theta):.6f} deg, gain gap {gap:.1e}")


@pytest.mark.slow
def test_criterion_8_gain_curve_bands(default_campaign):
    run_a, _, elapsed_a, elapsed_b = default_campaign
    assert elapsed_a < 600.0

    hqpsk = dict(gain_curve(run_a, "h_qpsk"))
    h32 = dict(gain_curve(run_a, "h_apsk32"))

    # (a) low-SNR gains carried by the hierarchical QPSK
    assert 0.05 <= hqpsk[1.0] <= 0.15
    peak = max(v for s, v in hqpsk.items() if 1.0 <= s <= 4.0)
    assert 0.06 <= peak <= 0.16
    # (b) no hierarchical-QPSK gain once every receiver reaches 8-PSK range
    high = {s: v for s, v in hqpsk.items() if s >= 8.0}
    assert all(v < 0.01 for v in high.values())
    # (c) hierarchical 32-APSK keeps a few percent at the top of the sweep
    assert 0.01 <= h32[16.0] <= 0.06
    # (d) gains are never negative anywhere
    for token in run_a.family_tokens:
        for snr, mean in gain_curve(run_a, token):
            assert not math.isnan(mean)
            assert mean >= 0.0
    report(
        "8 (gain-curve bands, 500 rx x 100 reps)",
        f"hqpsk@1dB={hqpsk[1.0]:.3f}, peak={peak:.3f}, worst@>=8dB={max(high.values()):.4f}, "
        f"h32apsk@16dB={h32[16.0]:.3f}; runs took {elapsed_a:.0f}s/{elapsed_b:.0f}s",
    )


@pytest.mark.slow
def test_criterion_9_campaign_determinism(default_campaign):
    run_a, run_b, _, _ = default_campaign
    text_a, text_b = gains_csv_text(run_a), gains_csv_text(run_b)
    assert text_a.encode() == text_b.encode()
    assert hashlib.sha256(text_a.encode()).hexdigest() == DEFAULT_GAINS_SHA256
    report(
        "9 (determinism across parallelism)",
        f"workers=2 and workers=1 produced byte-identical gains.csv ({len(text_a)} bytes)",
    )
