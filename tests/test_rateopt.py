"""Rate-region optimization: hull solver vs brute-force oracle, pairing,
aggregation, and system gains."""

import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ExactPairOracle,
    best_single_reference,
    equal_rate_oracle,
    hierarchical_families,
    row_summary,
    snr_summaries,
    system_summary_reference,
    table_entries,
    table_from_entries,
    unpruned_points,
)
from hmsim import rateopt
from hmsim.campaign import run_campaign
from hmsim.modcod import DVBS2_CODE_RATES, Family, ModcodChoice, SchemeId, Stream, ThresholdTable
from hmsim.rateopt import (
    RatePair,
    achievable_pairs,
    equal_rate_point,
    pair_solution,
    rate_region_hull,
    solve_cell_pairs,
    system_summaries,
)

F = Fraction


def synthetic_singles(table: ThresholdTable, entries) -> ThresholdTable:
    """Attach single-stream entries {(family, rate): threshold} to a table."""
    merged = table_entries(table)
    for (family, rate), thr in entries.items():
        merged[(SchemeId(family), Stream.SINGLE, rate)] = thr
    return table_from_entries(merged)


@pytest.fixture(scope="module")
def hqpsk_rho08_with_singles(hqpsk_table):
    sub = {k: v for k, v in table_entries(hqpsk_table).items() if k[0].rho_he == 0.8}
    return synthetic_singles(table_from_entries(sub), {
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
        sub = table_from_entries(
            {k: v for k, v in table_entries(h32apsk_table).items() if k[0].rho_he == 0.7}
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
        for (scheme, stream, rate), thr in table_entries(table).items():
            columns.setdefault((scheme, stream), []).append((rate, thr))

        def best(scheme, stream, snr):
            rate = max((r for r, thr in columns.get((scheme, stream), ()) if thr <= snr), default=None)
            return None if rate is None else ModcodChoice(scheme, stream, rate)

        thresholds = np.array(sorted(set(table_entries(table).values())))
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

    @pytest.mark.parametrize("weak,strong", [(12.0, 12.0), (-2.35, -1.24), (5.0, 6.0)])
    def test_pair_without_gain(self, full_table, weak, strong):
        # the exact solver finds no gain, so r_hm is r_ts bit for bit; in
        # one cell the float hull gives r_ts too, but on the other two pairs
        # it rounds 1 ulp above
        sol = pair_solution(weak, strong, full_table)
        assert sol.r_hm == sol.r_ts > 0.0
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


def every_cell_pair(table: ThresholdTable) -> tuple[np.ndarray, np.ndarray, list[tuple[float, float]]]:
    """Every (weak cell, strong cell) pair of a table, weak <= strong, and
    an SNR pair in each: a cell is represented by its lower edge, and cell
    0 by 1 dB below the lowest threshold."""
    edges = sorted(set(table_entries(table).values()))
    snrs = [edges[0] - 1.0] + edges
    weak, strong = np.triu_indices(len(snrs))
    return weak, strong, [(snrs[i], snrs[j]) for i, j in zip(weak.tolist(), strong.tolist())]


def oracle_terms(table: ThresholdTable, pairs, rates) -> list[float]:
    """The solve_cell_pairs term of each SNR pair from its exact (R*,
    R_ts): 1 / R* where R* > R_ts, else the sum of the two best-single
    reciprocals."""
    def inv(snr):
        choice = table.best_single(snr)
        return 1.0 / choice.spectral_efficiency if choice else math.inf

    return [float(1 / r) if r > ts else inv(a) + inv(b) for (a, b), (r, ts) in zip(pairs, rates)]


def assert_below_classical(table: ThresholdTable, weak, strong, terms, rates) -> None:
    """Each term is at most its classical float term, and strictly below it
    where the exact oracle's pair gains, so r_hm >= r_ts needs no clamp."""
    classical = table.cell_inv[weak] + table.cell_inv[strong]
    gains = np.array([r_star > r_ts for r_star, r_ts in rates], dtype=bool)
    assert (terms <= classical).all()
    assert (terms[gains] < classical[gains]).all()


class TestSolveCellPairs:
    """The batch solver against the exact oracle at the edges of its gain
    test and of its crossings, and on every cell pair of tables that are
    not shipped."""

    @staticmethod
    def assert_exact(table: ThresholdTable, pairs) -> list[tuple[Fraction, Fraction]]:
        """Bit-equal terms for the given SNR pairs, solved as one batch;
        returns the oracle's (R*, R_ts) of each."""
        oracle = ExactPairOracle(table)
        rates = [oracle.rates(*pair) for pair in pairs]
        weak, strong = (table.cells([pair[k] for pair in pairs]) for k in (0, 1))
        terms = solve_cell_pairs(table.cell_units, weak, strong)
        assert terms.tolist() == oracle_terms(table, pairs, rates)
        assert_below_classical(table, weak, strong, terms, rates)
        return rates

    def test_baseline_only_table(self, single_table):
        assert single_table.cell_units.shape[1] == 1  # no hierarchical scheme: S = 0
        rates = self.assert_exact(single_table, every_cell_pair(single_table)[2])
        assert all(r == ts for r, ts in rates)

    def test_both_receivers_below_every_single(self, full_table):
        """h_qpsk streams decode below the lowest single threshold, where
        s_w = s_s = 0: a live point there gains over R_ts = 0, and its term
        is 1 / R*, not the classical inf."""
        table = table_for(full_table, Family.H_QPSK)
        pairs = [(a, b) for a, b in every_cell_pair(table)[2] if best_single_reference(table, b) is None]
        rates = self.assert_exact(table, pairs)
        assert all(ts == 0 for _, ts in rates) and sum(r > 0 for r, _ in rates) >= 3

    @pytest.mark.parametrize("he, le, singles, snrs, rates", [
        # s_w = 1, s_s = 3/2 and (1/2, 3/4) on the line x + y / (3/2) = 1;
        # 1/s_w + 1/s_s and 1/R_ts round to different doubles here
        pytest.param({F(1, 2): 0.5}, {F(3, 4): 5.0}, {(Family.QPSK, F(1, 2)): 0.0, (Family.QPSK, F(3, 4)): 6.0},
                     (1.0, 7.0), (F(3, 5), F(3, 5)), id="point-on-the-time-sharing-line"),
        # the same singles and (4/5, 4/5): beyond the line, on the diagonal
        pytest.param({F(4, 5): 0.5}, {F(4, 5): 5.0}, {(Family.QPSK, F(1, 2)): 0.0, (Family.QPSK, F(3, 4)): 6.0},
                     (1.0, 7.0), (F(4, 5), F(3, 5)), id="beyond-point-on-the-diagonal"),
        # s_w = s_s = 1/2 and (0.9, 0.6): min 0.6 beats the crossings 9/16
        # (towards (0, s_s)) and 1/4 (the singles) under free disposal
        pytest.param({F(9, 10): -3.0}, {F(3, 5): -1.5}, {(Family.QPSK, F(1, 4)): -2.0},
                     (-2.0, -1.0), (F(3, 5), F(1, 4)), id="off-diagonal-vertex"),
    ])
    def test_boundary_pair(self, he, le, singles, snrs, rates):
        """One h_qpsk scheme (one bit per stream) with the given HE and LE
        thresholds per code rate; the weak receiver decodes no LE stream,
        so the pair's only hierarchical point is weak on HE."""
        scheme = SchemeId(Family.H_QPSK, 0.8)
        entries = {(scheme, Stream.HE, rate): thr for rate, thr in he.items()}
        entries.update({(scheme, Stream.LE, rate): thr for rate, thr in le.items()})
        table = synthetic_singles(table_from_entries(entries), singles)
        assert self.assert_exact(table, [snrs]) == [rates]

    @staticmethod
    def random_table(full_table: ThresholdTable, seed: int) -> ThresholdTable:
        """A random subset of the shipped schemes, with every threshold
        jittered by up to 3 dB either way on odd seeds."""
        rng = np.random.default_rng(seed)
        singles = [f for f in full_table.families() if not f.hierarchical]
        schemes = full_table.hierarchical_schemes()
        keep = {singles[i] for i in np.flatnonzero(rng.random(len(singles)) < 0.5)}
        keep |= {schemes[i] for i in rng.choice(len(schemes), rng.integers(1, 5), replace=False)}
        entries = {k: v for k, v in table_entries(full_table).items() if (k[0].family if k[0].rho_he is None else k[0]) in keep}
        if seed % 2:
            entries = {k: v + rng.uniform(-3.0, 3.0) for k, v in entries.items()}
        return table_from_entries(entries)

    @pytest.mark.parametrize("seed", range(6))
    def test_every_cell_pair_of_random_tables(self, full_table, seed):
        table = self.random_table(full_table, seed)
        rates = self.assert_exact(table, every_cell_pair(table)[2])
        assert 0 < sum(r > ts for r, ts in rates) < len(rates)

    @pytest.mark.parametrize("seed", range(6))
    def test_term_does_not_depend_on_its_batch(self, full_table, monkeypatch, seed):
        """Every cell pair of a random table solved as one shuffled batch,
        one pair per call, and in blocks of one pair: the same bits as the
        batch of all pairs in order."""
        table = self.random_table(full_table, seed)
        weak, strong, _ = every_cell_pair(table)
        terms = solve_cell_pairs(table.cell_units, weak, strong)
        order = np.random.default_rng(seed).permutation(weak.size)
        shuffled = np.empty_like(terms)
        shuffled[order] = solve_cell_pairs(table.cell_units, weak[order], strong[order])
        alone = np.concatenate([solve_cell_pairs(table.cell_units, weak[k:k + 1], strong[k:k + 1]) for k in range(weak.size)])
        monkeypatch.setattr(rateopt, "_SOLVE_ENTRIES", 1)
        blocks = solve_cell_pairs(table.cell_units, weak, strong)
        for other in (shuffled, alone, blocks):
            assert other.dtype == np.float64 and other.tobytes() == terms.tobytes()
        assert 0 < np.count_nonzero(terms != table.cell_inv[weak] + table.cell_inv[strong]) < weak.size

    def test_empty_batch(self, full_table, single_table, monkeypatch):
        """An empty batch gives an empty float64 array: all that
        system_summaries has to solve when every receiver is in outage."""
        for table in (full_table, single_table):
            empty = np.array([], dtype=np.intp)
            terms = solve_cell_pairs(table.cell_units, empty, empty)
            assert terms.dtype == np.float64 and terms.shape == (0,)
        sizes = []

        def recording(units, weak_cells, strong_cells):
            sizes.append(len(weak_cells))
            return solve_cell_pairs(units, weak_cells, strong_cells)

        monkeypatch.setattr(rateopt, "solve_cell_pairs", recording)
        cells = np.zeros((2, 3), dtype=np.intp)  # cell 0: below every single threshold
        r_hm, r_ts, gain, outage = system_summaries(cells, full_table, [hierarchical_families(full_table)])
        assert not any(sizes) and outage.tolist() == [3, 3]
        assert np.isnan(r_hm).all() and np.isnan(r_ts).all() and np.isnan(gain).all()

    @pytest.mark.parametrize("name", ["full_table", "single_table"])
    def test_batch_without_gain_is_classical(self, request, name):
        """A batch in which no pair gains returns exactly the classical
        terms: every pair of the shipped full table that does not gain, and
        every pair of the baseline-only table (S = 0)."""
        table = request.getfixturevalue(name)
        weak, strong, _ = every_cell_pair(table)
        classical = table.cell_inv[weak] + table.cell_inv[strong]
        keep = solve_cell_pairs(table.cell_units, weak, strong) == classical
        assert keep.all() if name == "single_table" else 1000 < keep.sum() < keep.size
        terms = solve_cell_pairs(table.cell_units, weak[keep], strong[keep])
        assert terms.tobytes() == classical[keep].tobytes()


@pytest.mark.parametrize("family, size, sha256", [
    (None, 18721, "5d22190cd1c7ce6d301ee994b54dca1925e2983993e1878a9d29d8bf4dd91ec6"),
    (Family.H_QPSK, 10296, "a96aaab2229c1a430b367008e7ae62025e5d81390d15524b8ed2146c6619e1ac"),
    (Family.H_APSK32, 6105, "012573ecbb4182d7ae5a676a062ae2c3eb6883caa9b7d460d4ab5993ec43b876"),
], ids=["combined", "h_qpsk", "h_apsk32"])
def test_every_shipped_cell_pair_term_golden(full_table, family, size, sha256):
    """The float64 bytes of every cell pair's term on the shipped tables.
    The slow ``TestEveryCellPair`` checks these terms against the Fraction
    oracle; this digest pins the same bytes without it."""
    table = table_for(full_table, family)
    weak, strong = np.triu_indices(table.cell_inv.size)
    assert weak.size == size
    terms = solve_cell_pairs(table.cell_units, weak, strong)
    assert terms.dtype == np.float64
    assert hashlib.sha256(terms.astype("<f8").tobytes()).hexdigest() == sha256


@pytest.mark.slow
class TestEveryCellPair:
    """Every (weak cell, strong cell) pair of the shipped tables against the
    exact oracle: 18,721 for the combined table, 10,296 for h_qpsk and
    6,105 for h_apsk32, 35,122 in all."""

    @pytest.fixture(scope="class", params=[(None, 18721), (Family.H_QPSK, 10296), (Family.H_APSK32, 6105)],
                    ids=["combined", "h_qpsk", "h_apsk32"])
    def space(self, request, full_table):
        family, size = request.param
        table = table_for(full_table, family)
        weak, strong, pairs = every_cell_pair(table)
        assert weak.size == size
        oracle = ExactPairOracle(table)
        return table, weak, strong, pairs, [oracle.rates(*pair) for pair in pairs]

    def test_memo_terms_equal_the_exact_oracle(self, space):
        table, weak, strong, pairs, rates = space
        terms = solve_cell_pairs(table.cell_units, weak, strong)
        assert terms.tolist() == oracle_terms(table, pairs, rates)
        assert_below_classical(table, weak, strong, terms, rates)

    def test_float_hull_decides_alike_within_two_ulps(self, space):
        """pair_solution's rule, a term other than the classical one, gains
        exactly where the exact oracle does. On every pair that gains, the
        float hull's rate, which ``hmsim pair`` prints, is within 2 ulps of
        the exact rate and above the classical one, so the printed gain is
        positive exactly there."""
        table, weak, strong, pairs, rates = space
        classical = table.cell_inv[weak] + table.cell_inv[strong]
        gains = solve_cell_pairs(table.cell_units, weak, strong) != classical
        assert gains.tolist() == [r_star > r_ts for r_star, r_ts in rates]
        assert 0 < gains.sum() < gains.size
        for (a, b), (r_star, _), term, gain in zip(pairs, rates, classical.tolist(), gains.tolist()):
            if gain:
                rate = equal_rate_point(achievable_pairs(a, b, table)).rate
                assert abs(rate - float(r_star)) <= 2 * math.ulp(float(r_star)), (a, b)
                assert rate > 1.0 / term, (a, b)


def snr_for_efficiency(table: ThresholdTable, eff: float) -> float:
    """A table threshold at which the best single modcod has efficiency
    eff, or the double just below the lowest one for eff = 0."""
    if eff == 0:
        floor = min(thr for (_, stream, _), thr in table_entries(table).items() if stream is Stream.SINGLE)
        return float(np.nextafter(floor, -np.inf))
    for thr in sorted(set(table_entries(table).values())):
        choice = table.best_single(thr)
        if choice is not None and choice.spectral_efficiency == eff:
            return thr
    raise LookupError(eff)


class TestAggregates:
    """Classical time sharing composes single-modcod rates harmonically.
    A receiver that decodes nothing pins a pair's classical rate at 0, and
    a population leaves it out and counts it."""

    def test_examples(self, full_table):
        for rates, expected in [([1, 1], 0.5), ([2, 1, 2], 0.5), ([2, 2], 1.0), ([1, 2, 4, 4], 0.5), ([2], 2.0)]:
            snrs = [snr_for_efficiency(full_table, r) for r in rates]
            assert row_summary(snrs, full_table).r_ts == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize(
        "r1,r2,expected", [(2, 2, 1.0), (2, 3, 1.2), (0, 3, 0.0), (1, 2, 2 / 3)]
    )
    def test_pair_values(self, full_table, r1, r2, expected):
        weak, strong = (snr_for_efficiency(full_table, r) for r in (r1, r2))
        assert pair_solution(weak, strong, full_table).r_ts == pytest.approx(expected, abs=1e-15)

    def test_zero_dominates(self, full_table):
        snrs = [snr_for_efficiency(full_table, r) for r in (1, 0, 3)]
        assert pair_solution(snrs[1], snrs[2], full_table).r_ts == 0.0
        assert row_summary(snrs, full_table) == row_summary(snrs[::2], full_table)._replace(outage=1)
        alone = row_summary(snrs[1:2], full_table)
        assert np.isnan(alone[:3]).all() and alone.outage == 1

    def test_empty_rejected(self, full_table):
        with pytest.raises(ValueError, match="at least one receiver"):
            system_summaries(np.empty((3, 0), dtype=np.intp), full_table, [hierarchical_families(full_table)])

    @pytest.mark.parametrize("family", [Family.QPSK, Family.H_APSK32], ids=["non_hierarchical", "absent"])
    def test_curve_with_a_family_outside_the_tables_hierarchy_rejected(self, full_table, family):
        # qpsk has entries in the table but no HE or LE streams; the h_qpsk
        # table holds no h_apsk32 scheme. The error names the curve.
        table = table_for(full_table, Family.H_QPSK)
        cells = table.cells(np.linspace(-3.0, 18.0, 12)[None])
        with pytest.raises(ValueError, match=rf"^curves\[1\]: {family.token}: not a hierarchical family of the table$"):
            system_summaries(cells, table, [(Family.H_QPSK,), (Family.H_QPSK, family)])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            RatePair(-1.0, 2.0)

    @pytest.mark.parametrize("r1,r2", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)])
    def test_rejects_non_finite(self, r1, r2):
        with pytest.raises(ValueError, match="finite"):
            RatePair(r1, r2)


class TestSystemGain:
    def test_total_outage_reads_nan(self, full_table):
        summary = row_summary([-10.0, -10.0, -10.0, -10.0], full_table)
        assert np.isnan(summary[:3]).all() and summary.outage == 4

    def test_gain_nonnegative_when_baseline_positive(self, full_table):
        rng = random.Random(99)
        for _ in range(60):
            n = rng.choice([2, 3, 5, 8])
            snrs = [rng.uniform(-2.3, 18.0) for _ in range(n)]
            summary = row_summary(snrs, full_table)
            assert summary.r_ts > 0 and summary.outage == 0
            assert summary.gain >= 0.0

    def test_permutation_invariance(self, full_table):
        rng = random.Random(7)
        snrs = [rng.uniform(-1, 15) for _ in range(9)]
        base = row_summary(snrs, full_table).gain
        for _ in range(5):
            shuffled = snrs[:]
            rng.shuffle(shuffled)
            assert row_summary(shuffled, full_table).gain == pytest.approx(base, abs=1e-12)

    def test_partial_outage_left_out_and_counted(self, full_table):
        # the weak receiver decodes HE streams but no single modcod: the
        # population leaves it out and counts it, and serves the strong
        # receiver alone
        summary = row_summary([-3.0, 10.0], full_table)
        assert summary == row_summary([10.0], full_table)._replace(outage=1)
        assert summary.gain == 0.0
        # the pair keeps it: its baseline is 0, while h_qpsk rho=0.9 (HE
        # 2/5 + LE 3/5) serves it at 0.4 under free disposal
        pair = pair_solution(-3.0, 10.0, full_table)
        assert pair.r_ts == 0.0
        assert pair.r_hm == pytest.approx(0.4, abs=1e-15)
        assert pair.gain == float("inf")

    def test_matches_manual_composition(self, full_table):
        rng = random.Random(4242)
        for _ in range(20):
            snrs = [rng.uniform(-1, 16) for _ in range(7)]
            summary = row_summary(snrs, full_table)
            rates = [full_table.best_single(s).spectral_efficiency for s in snrs]
            ranked = sorted(snrs)
            hm = [pair_solution(ranked[k], ranked[-1 - k], full_table).r_hm for k in range(3)]
            hm.append(full_table.best_single(ranked[3]).spectral_efficiency)
            r_ts = 1 / sum(1 / r for r in rates)
            assert summary.r_ts == pytest.approx(r_ts, abs=1e-15)
            assert summary.r_hm == pytest.approx(1 / sum(1 / r for r in hm), abs=1e-15)

    def test_two_receiver_case_reduces_to_pair(self, full_table):
        sol = pair_solution(1.0, 7.0, full_table)
        assert row_summary([7.0, 1.0], full_table).gain == pytest.approx(sol.gain, abs=1e-12)


class TestPairMemo:
    """system_summaries against a reference that solves each receiver pair
    on its own, and its solves: each distinct (weak cell, strong cell) pair
    of a call once, in one batch per call."""

    @staticmethod
    def snr_pool(table: ThresholdTable, rng) -> list[float]:
        """Every threshold, the doubles either side of it and as many
        uniform SNRs on [-6, 21] dB."""
        edges = np.unique(list(table_entries(table).values()))
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
        table = table_for(full_table, family)
        # one population wholly in outage, too, which reads NaN
        populations = self.populations(table) + [[-8.0] * 3]
        oracle = ExactPairOracle(table)
        expected = [system_summary_reference(snrs, table, oracle) for snrs in populations]
        # some populations leave out part or all of their receivers
        assert any(0 < e.outage < len(p) for e, p in zip(expected, populations))
        assert any(e.outage == len(p) for e, p in zip(expected, populations))
        assert any(len(p) % 2 for p in populations)
        for snrs, want in zip(populations, expected):
            assert np.array_equal(row_summary(snrs, table), want, equal_nan=True), snrs

    @pytest.mark.parametrize("family", [None, Family.H_QPSK, Family.H_APSK32], ids=["full", "h_qpsk", "h_apsk32"])
    def test_batch_rows_equal_system_summary_of_the_served(self, full_table, family):
        """One batch of rows with different counts of receivers that decode
        no single modcod (none, all, odd and even served counts) leaves
        them out and counts them, and equals the one-row call on each row's
        served SNRs bit for bit."""
        rng = np.random.default_rng(2)
        n, table = 40, table_for(full_table, family)
        pool = np.array(self.snr_pool(table, rng))
        out = np.array([best_single_reference(table, s) is None for s in pool.tolist()])
        counts = np.concatenate([[0, n, n - 1, n - 2, 1, 2], rng.integers(0, n + 1, 54)])
        assert {(n - k) % 2 for k in counts} == {0, 1}
        snrs = np.array([rng.permutation(np.concatenate([rng.choice(pool[out], k), rng.choice(pool[~out], n - k)]))
                         for k in counts])
        r_hm, r_ts, gain, outage = snr_summaries(snrs, table)
        assert outage.tolist() == counts.tolist()
        for row, k, *got in zip(snrs, counts, r_hm, r_ts, gain):
            served = [s for s in row.tolist() if best_single_reference(table, s) is not None]
            if k == n:
                assert not served and np.isnan(got).all()
            else:
                assert tuple(got) == row_summary(served, table)[:3], (row, k)

    @staticmethod
    def wide_table(single_table: ThresholdTable) -> ThresholdTable:
        """The shipped singles and eleven synthetic h_psk8 schemes with 227
        more distinct thresholds: 255 in all, so 256 cells, whose sentinel
        cell 256 does not fit the uint8 cells that a campaign passes."""
        rng = np.random.default_rng(3)
        schemes = [SchemeId(Family.H_PSK8, rho) for rho in np.linspace(0.5, 0.9, 11).round(2).tolist()]
        keys = [(scheme, stream, rate) for scheme in schemes for stream in (Stream.HE, Stream.LE)
                for rate in DVBS2_CODE_RATES]
        pool = np.linspace(-4.0, 19.0, 227).round(4) + 5e-5
        thresholds = rng.permutation(np.concatenate([pool, rng.choice(pool, len(keys) - pool.size)]))
        table = single_table.merged_with(table_from_entries(dict(zip(keys, thresholds.tolist()))))
        assert table.cell_inv.size == 256
        return table

    @pytest.mark.parametrize("wide", [False, True], ids=["shipped", "256_cells"])
    def test_uint8_and_intp_cells_agree(self, full_table, single_table, sample_weather, default_antenna,
                                        campaign_config, wide):
        """The same bits from uint8 cells, as a campaign passes them, and
        intp cells, from total outage through partial outage to full
        service, with the outage of each row its inf cells; and a campaign
        on the 256-cell table excludes no run that has a served receiver."""
        table = self.wide_table(single_table) if wide else full_table
        rng = np.random.default_rng(4)
        lows, highs = rng.uniform(-8.0, 21.0, (2, 90, 1))
        snrs = np.sort(lows + (np.maximum(lows, highs) - lows) * rng.random((90, 31)), axis=1)
        snrs[:3] = np.linspace(-8.0, -2.4, 31)
        snrs[3:6] = np.linspace(16.1, 21.0, 31)
        cells = table.cells(snrs)
        assert cells.dtype == np.intp and cells.max() <= 255
        curves = [hierarchical_families(table)]
        summaries = system_summaries(cells, table, curves)
        assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
                   for a, b in zip(summaries, system_summaries(cells.astype(np.uint8), table, curves)))
        outage = summaries[3]
        assert outage.tolist() == np.isinf(table.cell_inv)[cells].sum(axis=1).tolist()
        assert outage[:3].tolist() == [31] * 3 and outage[3:6].tolist() == [0] * 3
        assert ((0 < outage) & (outage < 31)).any()
        assert np.isnan(summaries[2][0, outage == 31]).all() and (summaries[2][0, outage < 31] >= 0).all()
        if wide:
            cfg = campaign_config(snr_max_grid=(2.0, 12.0), receivers=40, repetitions=3, families=(Family.H_PSK8,),
                                  combined=False, master_seed=2)
            report = run_campaign(cfg, table, default_antenna, sample_weather)
            assert all(stat.total_outage_runs == 0 for stat in report.outage.values())

    @pytest.mark.parametrize("wide", [False, True], ids=["shipped", "256_cells"])
    def test_one_call_equals_each_tables_own_call(self, full_table, single_table, monkeypatch, wide):
        """One call on the union table's cells, uint8 as a campaign passes
        them, gives each curve, bit for bit, every array of the one-curve
        call on its families' own table (``subset``) and that table's
        cells: h_qpsk, h_apsk32 and both, a campaign's combined curve; or
        no family at all and the 256-cell table's h_psk8, whose union cells
        widen to hold the sentinel. The rows hold every threshold, the
        doubles either side of it, both infinities and NaN, then random
        draws from those with partial outage, then total outage. Three
        curves pair as many blocks as one."""
        if wide:
            union = self.wide_table(single_table)
            curves = [(), (Family.H_PSK8,)]
        else:
            union = table_for(full_table, None)
            curves = [(Family.H_QPSK,), (Family.H_APSK32,), (Family.H_QPSK, Family.H_APSK32)]
        edges = union.edges
        snrs = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                               [-np.inf, np.inf, np.nan]])
        rng = np.random.default_rng(5)
        rows = np.sort(np.concatenate([snrs[None], rng.choice(snrs, (40, snrs.size)), np.full((1, snrs.size), -8.0)]),
                       axis=1)
        cells = union.cells(rows).astype(np.min_scalar_type(edges.size))
        assert cells.dtype == np.uint8
        pairings, pairing = [], rateopt._pairing
        def counting(*args):
            pairings.append(args)
            return pairing(*args)
        monkeypatch.setattr(rateopt, "_pairing", counting)
        r_hm, r_ts, gain, outage = system_summaries(cells, union, curves)
        blocks = len(pairings)
        assert blocks > 1
        assert ((0 < outage[:-1]) & (outage[:-1] < snrs.size)).all() and outage[-1] == snrs.size
        singles = {fam for fam in union.families() if not fam.hierarchical}
        for i, families in enumerate(curves):
            own = union.subset(singles | set(families))
            want = system_summaries(own.cells(rows), own, [families])
            got = r_hm[i:i + 1], r_ts, gain[i:i + 1], outage
            assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(got, want)), i
        del pairings[:]
        system_summaries(cells, union, curves[:1])
        assert len(pairings) == blocks

    def test_one_solve_per_cell_pair(self, full_table, monkeypatch):
        solved = []
        def counting(units, weak_cells, strong_cells):
            solved.append([(tuple(units[w]), tuple(units[s])) for w, s in zip(weak_cells, strong_cells)])
            return solve_cell_pairs(units, weak_cells, strong_cells)
        monkeypatch.setattr("hmsim.rateopt.solve_cell_pairs", counting)
        def row(snr, table=full_table):
            return tuple(table.cell_units[table.cell(snr)])
        # 3.0 and 3.01 share a cell, 9.0 and 9.02 too: 40 pairs, one solve
        row_summary([3.0, 3.01] * 20 + [9.0, 9.02] * 20, full_table)
        assert solved == [[(row(3.0), row(9.0))]]
        # a later call solves its own pairs, the same cell pair included
        row_summary([3.005, 9.01], full_table)
        assert solved[1:] == [[(row(3.0), row(9.0))]]
        # three cell pairs, one of them twice: one batch, in (weak, strong) order
        row_summary([-1.0, -1.0, 0.5, 3.0, 3.01, 9.0, 9.02, 14.0, 17.5, 17.5], full_table)
        assert solved[2:] == [[(row(-1.0), row(17.5)), (row(0.5), row(14.0)), (row(3.0), row(9.0))]]
        # Just below and at an h_apsk32 threshold that no h_qpsk or single
        # entry shares: two cells of the full table, with equal rows for the
        # h_qpsk curve, so its two pairs are one solve.
        hqpsk = table_for(full_table, Family.H_QPSK)
        apsk = sorted(set(table_entries(table_for(full_table, Family.H_APSK32)).values()) - set(hqpsk.edges.tolist()))
        below, at = np.nextafter(apsk[len(apsk) // 2], -np.inf), apsk[len(apsk) // 2]
        assert full_table.cell(below) != full_table.cell(at) and row(below, hqpsk) == row(at, hqpsk)
        del solved[:]
        system_summaries(full_table.cells([[below, 20.0], [at, 20.0]]), full_table, [(Family.H_QPSK,)])
        assert solved == [[(row(at, hqpsk), row(20.0, hqpsk))]]
