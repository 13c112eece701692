"""Rate-region optimization: hull solver vs brute-force oracle, pairing,
aggregation, and system gains."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import equal_rate_oracle, unpruned_points
from hmsim.modcod import Family, SchemeId, Stream, ThresholdTable
from hmsim.rateopt import (
    RatePair,
    achievable_pairs,
    aggregate_ts,
    equal_rate_point,
    group_receivers,
    pair_solution,
    rate_region_hull,
    system_gain,
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


class TestGroupReceivers:
    def test_forced_pairings(self):
        assert group_receivers([1, 4, 7, 10]) == ([(0, 3), (1, 2)], None)
        assert group_receivers([0, 1, 2, 3, 4, 5]) == ([(0, 5), (1, 4), (2, 3)], None)

    def test_all_equal(self):
        pairs, unpaired = group_receivers([5, 5, 5, 5])
        assert sorted(i for ij in pairs for i in ij) == [0, 1, 2, 3]
        assert unpaired is None

    def test_odd_leaves_median_out(self):
        snrs = [9, 1, 5, 3, 7]
        pairs, unpaired = group_receivers(snrs)
        used = {i for ij in pairs for i in ij}
        assert set(range(5)) - used == {unpaired}
        assert snrs[unpaired] == 5

    def test_values_not_indices_decide(self):
        assert group_receivers([10, 1, 7, 4]) == ([(1, 0), (3, 2)], None)

    def test_ties_sort_by_index(self):
        rng = random.Random(31)
        for _ in range(300):
            snrs = [rng.choice([-1.0, 0.0, 2.5, 7.0]) for _ in range(rng.randint(1, 12))]
            order = sorted(range(len(snrs)), key=lambda i: (snrs[i], i))
            pairs, unpaired = group_receivers(snrs)
            assert [i for ij in pairs for i in ij] == [
                i for k in range(len(snrs) // 2) for i in (order[k], order[-1 - k])
            ]
            assert unpaired == (order[len(snrs) // 2] if len(snrs) % 2 else None)

    @given(st.lists(st.floats(-5, 20), min_size=2, max_size=30))
    def test_each_receiver_in_at_most_one_pair(self, snrs):
        pairs, unpaired = group_receivers(snrs)
        used = [i for ij in pairs for i in ij] + ([unpaired] if unpaired is not None else [])
        assert sorted(used) == list(range(len(snrs)))
        assert len(pairs) == len(snrs) // 2


class TestAggregates:
    def test_examples(self):
        assert aggregate_ts([1, 1]) == pytest.approx(0.5)
        assert aggregate_ts([0.667]) == pytest.approx(0.667)
        assert aggregate_ts([2, 1, 2]) == pytest.approx(0.5)
        assert aggregate_ts([2, 2]) == pytest.approx(1.0)
        assert aggregate_ts([1, 2, 4, 4]) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "r1,r2,expected", [(2, 2, 1.0), (2, 3, 1.2), (0, 3, 0.0), (1, 2, 2 / 3)]
    )
    def test_pair_values(self, r1, r2, expected):
        assert aggregate_ts((r1, r2)) == pytest.approx(expected)

    def test_zero_dominates(self):
        assert aggregate_ts([1.0, 0.0, 3.0]) == 0.0
        assert aggregate_ts([0.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_ts([])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            aggregate_ts((-1.0, 2.0))


class TestSystemGain:
    def test_total_outage_is_zero_gain(self, full_table):
        assert system_gain([-10.0, -10.0, -10.0, -10.0], full_table) == 0.0

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
        base = system_gain(snrs, full_table)
        for _ in range(5):
            shuffled = snrs[:]
            rng.shuffle(shuffled)
            assert system_gain(shuffled, full_table) == pytest.approx(base, abs=1e-12)

    def test_partial_outage_served_by_hierarchy(self, full_table):
        # the weak receiver decodes HE streams but no single modcod: the
        # baseline is 0, while h_qpsk rho=0.9 (HE 2/5 + LE 3/5) serves the
        # pair at 0.4 under free disposal
        summary = system_summary([-3.0, 10.0], full_table)
        assert summary.r_ts == 0.0
        assert summary.r_hm == pytest.approx(0.4, abs=1e-15)
        assert summary.gain == float("inf")
        assert summary.outage_count == 1

    def test_matches_manual_composition(self, full_table):
        rng = random.Random(4242)
        for _ in range(20):
            snrs = [rng.uniform(-1, 16) for _ in range(7)]
            summary = system_summary(snrs, full_table)
            singles = [full_table.best_single(s) for s in snrs]
            rates = [c.spectral_efficiency if c else 0.0 for c in singles]
            r_ts = aggregate_ts(rates)
            hm = []
            pairs, leftover = group_receivers(snrs)
            for i, j in pairs:
                lo, hi = sorted((snrs[i], snrs[j]))
                hm.append(pair_solution(lo, hi, full_table).r_hm)
            hm.append(rates[leftover])
            assert summary.r_ts == pytest.approx(r_ts, abs=1e-15)
            assert summary.r_hm == pytest.approx(max(aggregate_ts(hm), r_ts), abs=1e-15)

    def test_two_receiver_case_reduces_to_pair(self, full_table):
        sol = pair_solution(1.0, 7.0, full_table)
        assert system_gain([7.0, 1.0], full_table) == pytest.approx(sol.gain, abs=1e-12)
