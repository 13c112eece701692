"""Rate-region optimization: hull solver vs brute-force oracle, pairing,
aggregation, and system gains."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ExactPairOracle, equal_rate_oracle, system_summary_reference, unpruned_points
from hmsim.modcod import Family, ModcodChoice, SchemeId, Stream, ThresholdTable
from hmsim.rateopt import (
    RatePair,
    achievable_pairs,
    equal_rate_point,
    pair_solution,
    rate_region_hull,
    solve_cell_pairs,
    system_summaries,
    system_summary,
)

F = Fraction


def synthetic_singles(table: ThresholdTable, entries) -> ThresholdTable:
    """Attach single-stream entries {(family, rate): threshold} to a table."""
    merged = table.entries()
    for (family, rate), thr in entries.items():
        merged[(SchemeId(family), Stream.SINGLE, rate)] = thr
    return ThresholdTable(merged)


@pytest.fixture(scope="module")
def hqpsk_rho08_with_singles(hqpsk_table):
    sub = {k: v for k, v in hqpsk_table.entries().items() if k[0].rho_he == 0.8}
    return synthetic_singles(ThresholdTable(sub), {
        (Family.QPSK, F(1, 2)): 0.9,
        (Family.QPSK, F(9, 10)): 6.3,
    })


class TestAchievablePairs:
    def test_contains_example_point(self, hqpsk_rho08_with_singles):
        points = achievable_pairs(1.0, 7.0, hqpsk_rho08_with_singles)
        assert any(
            p.r1 == pytest.approx(2 / 3) and p.r2 == pytest.approx(2 / 3) for p in points
        )

    def test_outage_gives_origin_only(self, full_table):
        points = achievable_pairs(-10.0, -10.0, full_table)
        assert [(p.r1, p.r2) for p in points] == [(0.0, 0.0)]

    def test_h32_example_point_unpruned(self, h32apsk_table):
        sub = ThresholdTable(
            {k: v for k, v in h32apsk_table.entries().items() if k[0].rho_he == 0.7}
        )
        points = unpruned_points(0.0, 12.0, sub)
        assert any(
            r1 == pytest.approx(0.5) and r2 == pytest.approx(1.5) for r1, r2 in points
        )
        # the dominant point for that assignment: HE 1/4 (thr 0.0), LE 3/5 (thr 11.5)
        pruned = achievable_pairs(0.0, 12.0, sub)
        assert any(
            p.r1 == pytest.approx(0.5) and p.r2 == pytest.approx(1.8) for p in pruned
        )

    def test_both_assignments_enumerated(self, full_table):
        points = achievable_pairs(4.0, 9.0, full_table)
        he_first = [p for p in points if p.provenance[0] and p.provenance[0].stream is Stream.HE]
        le_first = [p for p in points if p.provenance[0] and p.provenance[0].stream is Stream.LE]
        assert he_first and le_first

    def test_pruning_preserves_equal_rate(self, full_table):
        # under free disposal for any pair, including weak receivers below
        # the -2.35 dB floor of the shipped baseline
        rng = random.Random(5)
        for _ in range(150):
            a = rng.uniform(-6.0, 17.0)
            b = rng.uniform(-6.0, 17.0)
            weak, strong = sorted((a, b))
            full = equal_rate_point([RatePair(x, y) for x, y in unpruned_points(weak, strong, full_table)])
            pruned = equal_rate_point(achievable_pairs(weak, strong, full_table))
            assert pruned.rate == pytest.approx(full.rate, abs=1e-12)

    def test_pruned_equals_unpruned_without_anchor(self, full_table):
        # the weak receiver decodes no single modcod; h_qpsk rho=0.9 with
        # HE 2/5 (0.4) for it and LE 3/5 (0.6) for the strong one still
        # serves both at 0.4
        full = equal_rate_point([RatePair(x, y) for x, y in unpruned_points(-3.0, 10.0, full_table)])
        pruned = equal_rate_point(achievable_pairs(-3.0, 10.0, full_table))
        assert pruned.rate == full.rate == pytest.approx(0.4, abs=1e-15)

    def test_requires_ordered_snrs(self, full_table):
        with pytest.raises(ValueError):
            achievable_pairs(7.0, 1.0, full_table)

    @pytest.mark.parametrize("name", ["full_table", "hqpsk_table", "h32apsk_table"])
    def test_provenance_is_the_best_decodable_stream(self, request, name):
        # every hierarchical point, in scheme order with weak-on-HE first,
        # carries the highest decodable rate of its scheme and stream for
        # each receiver, worked out from the entries, and sits at their
        # efficiencies; SNRs at every threshold and one ulp either side
        table = request.getfixturevalue(name)
        columns: dict = {}
        for (scheme, stream, rate), thr in table.entries().items():
            columns.setdefault((scheme, stream), []).append((rate, thr))

        def best(scheme, stream, snr):
            rate = max((r for r, thr in columns.get((scheme, stream), ()) if thr <= snr), default=None)
            return None if rate is None else ModcodChoice(scheme, stream, rate)

        thresholds = np.array(sorted(set(table.entries().values())))
        snrs = np.concatenate([thresholds, np.nextafter(thresholds, -np.inf), np.nextafter(thresholds, np.inf)])
        snrs = snrs.tolist()
        partners = random.Random(4).sample(snrs, len(snrs))
        pairs = [sorted(pair) for pair in zip(snrs, partners)] + [[snr, snr] for snr in snrs]
        for weak, strong in pairs:
            expected = []
            for scheme in table.hierarchical_schemes():
                for snr_he, snr_le, he_first in ((weak, strong, True), (strong, weak, False)):
                    he, le = best(scheme, Stream.HE, snr_he), best(scheme, Stream.LE, snr_le)
                    if he and le:
                        expected.append((he, le) if he_first else (le, he))
            hier = [p for p in achievable_pairs(weak, strong, table) if None not in p.provenance]
            assert [p.provenance for p in hier] == expected
            assert [repr(p.provenance) for p in hier] == [repr(e) for e in expected]
            assert [(p.r1, p.r2) for p in hier] == [(a.spectral_efficiency, b.spectral_efficiency) for a, b in expected]


class TestEqualRatePoint:
    def test_symmetric_triangle(self):
        sol = equal_rate_point([RatePair(0, 0), RatePair(2, 0), RatePair(0, 2)])
        assert sol.rate == pytest.approx(1.0, abs=1e-12)
        share = sol.schedule
        assert share.tau == pytest.approx(0.5, abs=1e-12)
        assert {share.point_a.r1, share.point_b.r1} == {2.0, 0.0}

    def test_single_diagonal_point(self):
        sol = equal_rate_point([RatePair(0, 0), RatePair(0.667, 0.667)])
        assert sol.rate == pytest.approx(0.667)
        assert sol.schedule.tau == 1.0
        assert sol.schedule.point_a is sol.schedule.point_b

    def test_origin_only(self):
        sol = equal_rate_point([RatePair(0, 0)])
        assert sol.rate == 0.0

    def test_off_diagonal_vertex_under_free_disposal(self):
        # the diagonal leaves the hull of (0, 0), (0.5, 0), (1, 3) at 0.6,
        # but serving (1, 3) gives both receivers 1
        sol = equal_rate_point([RatePair(0, 0), RatePair(0.5, 0), RatePair(1, 3)])
        assert sol.rate == 1.0
        share = sol.schedule
        assert share.tau == 1.0
        assert (share.point_a.r1, share.point_a.r2) == (1.0, 3.0)
        assert share.point_a is share.point_b

    def test_vertex_tie_prefers_single_point(self):
        # the diagonal touches (1, 1) exactly where two edges meet
        sol = equal_rate_point([RatePair(0, 0), RatePair(2, 0), RatePair(1, 1), RatePair(0, 2)])
        assert sol.rate == pytest.approx(1.0, abs=1e-12)
        assert sol.schedule.point_a is sol.schedule.point_b

    def test_matches_oracle_on_random_sets(self):
        rng = random.Random(11)
        for _ in range(300):
            k = rng.randint(1, 12)
            pts = [(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(k)]
            sol = equal_rate_point([RatePair(x, y) for x, y in pts])
            assert sol.rate == pytest.approx(equal_rate_oracle(pts), abs=1e-9)

    @given(
        pts=st.lists(
            st.tuples(st.floats(0, 4), st.floats(0, 4)), min_size=1, max_size=10
        )
    )
    @settings(max_examples=200)
    def test_matches_oracle_property(self, pts):
        sol = equal_rate_point([RatePair(x, y) for x, y in pts])
        assert sol.rate == pytest.approx(equal_rate_oracle(pts), abs=1e-9)

    def test_invariant_under_interior_point_removal(self):
        rng = random.Random(23)
        for _ in range(100):
            pts = [(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(10)]
            pairs = [RatePair(x, y) for x, y in pts]
            hull = {(p.r1, p.r2) for p in rate_region_hull(pairs)}
            interior = [p for p in pairs if (p.r1, p.r2) not in hull]
            if not interior:
                continue
            keep = [p for p in pairs if p is not interior[0]]
            assert equal_rate_point(keep).rate == pytest.approx(
                equal_rate_point(pairs).rate, abs=1e-12
            )

    def test_scaling_homogeneity_exact_for_powers_of_two(self):
        rng = random.Random(37)
        pts = [(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(8)]
        base = equal_rate_point([RatePair(x, y) for x, y in pts]).rate
        for c in (0.5, 2.0, 8.0):
            scaled = equal_rate_point([RatePair(c * x, c * y) for x, y in pts]).rate
            assert scaled == c * base

    @given(
        pts=st.lists(st.tuples(st.floats(0, 4), st.floats(0, 4)), min_size=1, max_size=8),
        c=st.floats(0.01, 100),
    )
    @settings(max_examples=150)
    def test_scaling_homogeneity_general(self, pts, c):
        base = equal_rate_point([RatePair(x, y) for x, y in pts]).rate
        scaled = equal_rate_point([RatePair(c * x, c * y) for x, y in pts]).rate
        assert scaled == pytest.approx(c * base, rel=1e-12, abs=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            equal_rate_point([])


class TestPairSolution:
    def test_derived_example(self, hqpsk_rho08_with_singles):
        sol = pair_solution(1.0, 7.0, hqpsk_rho08_with_singles)
        assert sol.r_hm == pytest.approx(2 / 3, abs=1e-12)
        assert sol.r_ts == pytest.approx(9 / 14, abs=1e-12)
        assert sol.gain == pytest.approx(1 / 27, abs=1e-9)
        oracle = equal_rate_oracle(
            [(p.r1, p.r2) for p in achievable_pairs(1.0, 7.0, hqpsk_rho08_with_singles)]
        )
        assert sol.r_hm == pytest.approx(oracle, abs=1e-12)

    def test_r_hm_never_below_r_ts_randomized(self, full_table):
        rng = random.Random(1234)
        for _ in range(2000):
            a, b = sorted((rng.uniform(-6, 20), rng.uniform(-6, 20)))
            sol = pair_solution(a, b, full_table)
            assert sol.r_hm >= sol.r_ts >= 0.0

    def test_free_disposal_matches_unpruned_brute_force(self, full_table):
        rng = random.Random(2013)
        outage_weak = 0
        for _ in range(2000):
            a, b = sorted((rng.uniform(-6.0, 21.0), rng.uniform(-6.0, 21.0)))
            outage_weak += full_table.best_single(a) is None
            expected = equal_rate_oracle(unpruned_points(a, b, full_table))
            assert pair_solution(a, b, full_table).r_hm == pytest.approx(expected, abs=1e-12)
        assert outage_weak > 100

    def test_outage_pair(self, full_table):
        sol = pair_solution(-10.0, -10.0, full_table)
        assert sol.r_hm == sol.r_ts == 0.0
        assert sol.gain == 0.0

    def test_exact_oracle_matches_unpruned_brute_force(self, full_table):
        oracle = ExactPairOracle(full_table)
        rng = random.Random(2014)
        for _ in range(300):
            a, b = sorted((rng.uniform(-6.0, 21.0), rng.uniform(-6.0, 21.0)))
            expected = equal_rate_oracle(unpruned_points(a, b, full_table))
            assert float(oracle.rates(a, b)[0]) == pytest.approx(expected, abs=1e-12)


def table_for(full_table: ThresholdTable, family) -> ThresholdTable:
    """A fresh copy of the shipped tables: all of them, or the singles and
    one hierarchical family."""
    keep = set(full_table.families())
    if family is not None:
        keep = {f for f in keep if not f.hierarchical} | {family}
    return full_table.subset(keep)


@pytest.mark.slow
class TestEveryCellPair:
    """Every (weak cell, strong cell) pair of the shipped tables against the
    exact oracle: 18,721 for the combined table, 10,296 for h_qpsk and
    6,105 for h_apsk32, 35,122 in all. A cell is represented by its lower
    edge, and cell 0 by 1 dB below the lowest threshold."""

    @pytest.fixture(scope="class", params=[(None, 18721), (Family.H_QPSK, 10296), (Family.H_APSK32, 6105)],
                    ids=["combined", "h_qpsk", "h_apsk32"])
    def space(self, request, full_table):
        family, size = request.param
        table = table_for(full_table, family)
        edges = sorted(set(table.entries().values()))
        snrs = [edges[0] - 1.0] + edges
        weak, strong = np.triu_indices(len(snrs))
        assert weak.size == size
        oracle = ExactPairOracle(table)
        pairs = [(snrs[i], snrs[j]) for i, j in zip(weak.tolist(), strong.tolist())]
        return table, weak, strong, pairs, [oracle.rates(*pair) for pair in pairs]

    def test_memo_terms_equal_the_exact_oracle(self, space):
        table, weak, strong, pairs, rates = space

        def inv(snr):
            choice = table.best_single(snr)
            return 1.0 / choice.spectral_efficiency if choice else math.inf

        expected = [float(1 / r) if r > ts else inv(a) + inv(b) for (a, b), (r, ts) in zip(pairs, rates)]
        assert solve_cell_pairs(table, weak, strong).tolist() == expected

    def test_float_hull_decides_alike_within_two_ulps(self, space):
        """pair_solution's 1e-9 snap sits between the float hull's roundoff
        on pairs without gain and the smallest genuine gain, both relative
        to r_ts, with decades to spare on either side."""
        table, _, _, pairs, rates = space
        roundoff, smallest_gain = 0.0, math.inf
        for (a, b), (r_star, r_ts) in zip(pairs, rates):
            sol = pair_solution(a, b, table)
            assert (sol.r_hm > sol.r_ts) == (r_star > r_ts), (a, b)
            if r_star > r_ts:
                assert abs(sol.r_hm - float(r_star)) <= 2 * math.ulp(float(r_star)), (a, b)
                if r_ts:
                    smallest_gain = min(smallest_gain, float((r_star - r_ts) / r_ts))
            elif r_ts:
                raw = equal_rate_point(achievable_pairs(a, b, table)).rate
                roundoff = max(roundoff, abs(raw - sol.r_ts) / sol.r_ts)
        assert 0.0 < roundoff <= 3.3e-16 and 8.1e-4 <= smallest_gain < math.inf


def snr_for_efficiency(table: ThresholdTable, eff: float) -> float:
    """A table threshold at which the best single modcod has efficiency
    eff, or the double just below the lowest one for eff = 0."""
    if eff == 0:
        return float(np.nextafter(table.lowest_single_threshold(), -np.inf))
    for thr in sorted(set(table.entries().values())):
        choice = table.best_single(thr)
        if choice is not None and choice.spectral_efficiency == eff:
            return thr
    raise LookupError(eff)


class TestAggregates:
    """Classical time sharing composes single-modcod rates harmonically,
    and a receiver that decodes nothing pins the aggregate at 0."""

    def test_examples(self, full_table):
        for rates, expected in [([1, 1], 0.5), ([2, 1, 2], 0.5), ([2, 2], 1.0), ([1, 2, 4, 4], 0.5), ([2], 2.0)]:
            snrs = [snr_for_efficiency(full_table, r) for r in rates]
            assert system_summary(snrs, full_table).r_ts == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize(
        "r1,r2,expected", [(2, 2, 1.0), (2, 3, 1.2), (0, 3, 0.0), (1, 2, 2 / 3)]
    )
    def test_pair_values(self, full_table, r1, r2, expected):
        weak, strong = (snr_for_efficiency(full_table, r) for r in (r1, r2))
        assert pair_solution(weak, strong, full_table).r_ts == pytest.approx(expected, abs=1e-15)

    def test_zero_dominates(self, full_table):
        snrs = [snr_for_efficiency(full_table, r) for r in (1, 0, 3)]
        assert system_summary(snrs, full_table).r_ts == 0.0
        assert system_summary(snrs[1:2], full_table).r_ts == 0.0

    def test_empty_rejected(self, full_table):
        with pytest.raises(ValueError):
            system_summary([], full_table)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            RatePair(-1.0, 2.0)


class TestSystemGain:
    def test_total_outage_is_zero_gain(self, full_table):
        assert system_summary([-10.0, -10.0, -10.0, -10.0], full_table).gain == 0.0

    def test_gain_nonnegative_when_baseline_positive(self, full_table):
        rng = random.Random(99)
        for _ in range(60):
            n = rng.choice([2, 3, 5, 8])
            snrs = [rng.uniform(-2.3, 18.0) for _ in range(n)]
            summary = system_summary(snrs, full_table)
            assert summary.r_ts > 0
            assert summary.gain >= 0.0

    def test_permutation_invariance(self, full_table):
        rng = random.Random(7)
        snrs = [rng.uniform(-1, 15) for _ in range(9)]
        base = system_summary(snrs, full_table).gain
        for _ in range(5):
            shuffled = snrs[:]
            rng.shuffle(shuffled)
            assert system_summary(shuffled, full_table).gain == pytest.approx(base, abs=1e-12)

    def test_partial_outage_served_by_hierarchy(self, full_table):
        # the weak receiver decodes HE streams but no single modcod: the
        # baseline is 0, while h_qpsk rho=0.9 (HE 2/5 + LE 3/5) serves the
        # pair at 0.4 under free disposal
        summary = system_summary([-3.0, 10.0], full_table)
        assert summary.r_ts == 0.0
        assert summary.r_hm == pytest.approx(0.4, abs=1e-15)
        assert summary.gain == float("inf")

    def test_matches_manual_composition(self, full_table):
        rng = random.Random(4242)
        for _ in range(20):
            snrs = [rng.uniform(-1, 16) for _ in range(7)]
            summary = system_summary(snrs, full_table)
            rates = [full_table.best_single(s).spectral_efficiency for s in snrs]
            ranked = sorted(snrs)
            hm = [pair_solution(ranked[k], ranked[-1 - k], full_table).r_hm for k in range(3)]
            hm.append(full_table.best_single(ranked[3]).spectral_efficiency)
            r_ts = 1 / sum(1 / r for r in rates)
            assert summary.r_ts == pytest.approx(r_ts, abs=1e-15)
            assert summary.r_hm == pytest.approx(max(1 / sum(1 / r for r in hm), r_ts), abs=1e-15)

    def test_two_receiver_case_reduces_to_pair(self, full_table):
        sol = pair_solution(1.0, 7.0, full_table)
        assert system_summary([7.0, 1.0], full_table).gain == pytest.approx(sol.gain, abs=1e-12)


class TestPairMemo:
    """system_summary solves each (weak cell, strong cell) pair once per
    table and reads the answer back for every later pair in that cell."""

    @staticmethod
    def snr_pool(table: ThresholdTable, rng) -> list[float]:
        """Every threshold, the doubles either side of it and as many
        uniform SNRs on [-6, 21] dB."""
        edges = np.unique(list(table.entries().values()))
        pool = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
        return np.concatenate([pool, rng.uniform(-6.0, 21.0, pool.size)]).tolist()

    @classmethod
    def populations(cls, table: ThresholdTable) -> list[list[float]]:
        """Populations of 1-41 receivers drawn with replacement from the
        SNR pool, so ties, odd sizes and outage receivers all occur."""
        rng = np.random.default_rng(1)
        pool = cls.snr_pool(table, rng)
        return [
            [pool[k] for k in rng.integers(0, len(pool), rng.integers(1, 42))]
            for _ in range(400)
        ]

    @pytest.mark.parametrize("family", [None, Family.H_QPSK, Family.H_APSK32], ids=["full", "h_qpsk", "h_apsk32"])
    def test_bit_equal_to_memo_free_reference(self, full_table, family):
        table = table_for(full_table, family)  # a fresh table: the memo starts cold
        populations = self.populations(table)
        oracle = ExactPairOracle(table)
        expected = [system_summary_reference(snrs, table, oracle) for snrs in populations]
        # r_ts == 0: some population holds a receiver in outage
        assert any(e[1] == 0.0 for e in expected) and any(len(p) % 2 for p in populations)
        for order in (range(len(populations)), reversed(range(len(populations)))):
            for k in order:
                s = system_summary(populations[k], table)
                assert (s.r_hm, s.r_ts, s.gain) == expected[k], populations[k]
        assert not np.isnan(table.pair_memo).all()

    @pytest.mark.parametrize("family", [None, Family.H_QPSK, Family.H_APSK32], ids=["full", "h_qpsk", "h_apsk32"])
    def test_batch_rows_equal_system_summary_of_the_served(self, full_table, family):
        """One batch of rows that leave out different counts of weakest
        receivers (none, all, the outage count, odd and even served counts)
        equals system_summary of each row's served SNRs bit for bit; the
        batch starts on a cold memo."""
        rng = np.random.default_rng(2)
        n, table = 40, table_for(full_table, family)
        snrs = rng.choice(self.snr_pool(table, rng), size=(60, n))
        outage = (snrs < table.lowest_single_threshold()).sum(axis=1)
        dropped = np.concatenate([[0, n, n - 1, n - 2, 1, 2], outage[6:30], rng.integers(0, n + 1, 30)])
        assert {(n - k) % 2 for k in dropped} == {0, 1} and 0 < outage.max() < n
        r_hm, r_ts, gain = system_summaries(snrs, table, dropped)
        reference = table_for(full_table, family)
        for row, k, *got in zip(snrs, dropped, r_hm, r_ts, gain):
            if k == n:
                assert np.isnan(got).all()
            else:
                s = system_summary(np.sort(row)[k:], reference)
                assert tuple(got) == (s.r_hm, s.r_ts, s.gain), (row, k)

    def test_one_solve_per_cell_pair(self, full_table, monkeypatch):
        table = full_table.subset(full_table.families())
        solved = []
        def counting(table, weak_cells, strong_cells):
            solved.extend(zip(weak_cells.tolist(), strong_cells.tolist()))
            return solve_cell_pairs(table, weak_cells, strong_cells)
        monkeypatch.setattr("hmsim.rateopt.solve_cell_pairs", counting)
        # 3.0 and 3.01 share a cell, 9.0 and 9.02 too: 40 pairs, one solve
        system_summary([3.0, 3.01] * 20 + [9.0, 9.02] * 20, table)
        assert solved == [(table.cell(3.0), table.cell(9.0))]
        system_summary([3.005, 9.01], table)
        assert len(solved) == 1
        # two new cell pairs, one of them twice, and a solved one: one batch
        system_summary([-1.0, -1.0, 0.5, 3.0, 3.01, 9.0, 9.02, 14.0, 17.5, 17.5], table)
        cell = table.cell
        assert solved[1:] == [(cell(-1.0), cell(17.5)), (cell(0.5), cell(14.0))]
