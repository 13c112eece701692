"""Constellation geometry: energy splits, symbol generation, cross-checks."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build_apsk32_points, build_psk8_points, build_qpsk_points
from hmsim import cli
from hmsim.constellations import (
    ADOPTED_APSK32_TRIPLES,
    ADOPTED_QPSK_SPLITS,
    Apsk32Params,
    Psk8Params,
    QpskParams,
    apsk32_barycenter_distance,
    apsk32_rho_he,
    psk8_rho_he,
    qpsk_rho_he,
)

valid_apsk32 = st.builds(
    Apsk32Params,
    gamma1=st.floats(1.01, 4.0),
    gamma2=st.floats(4.01, 8.0),
    theta=st.floats(0.1, 44.9),
)


def quadrant_barycenter(points):
    """Average of the points in the (strictly) upper-right quadrant."""
    quadrant = [p for p in points if p.real > 0 and p.imag > 0]
    return sum(quadrant) / len(quadrant)


class TestQpskRho:
    def test_uniform_qpsk(self):
        assert qpsk_rho_he(QpskParams(45.0)) == pytest.approx(0.5, abs=1e-15)

    def test_adopted_30_degrees(self):
        assert qpsk_rho_he(QpskParams(30.0)) == pytest.approx(0.75, abs=1e-12)

    def test_24_degrees_exact_value(self):
        # cos^2(24 deg); the adopted table rounds this split to 0.85
        assert qpsk_rho_he(QpskParams(24.0)) == pytest.approx(0.8345653031794290, abs=1e-12)

    def test_adopted_splits_rebuild(self):
        # theta values are rounded to integer degrees, so allow 0.02
        for rho, theta in ADOPTED_QPSK_SPLITS.items():
            assert abs(qpsk_rho_he(QpskParams(theta)) - rho) <= 0.02

    @given(theta=st.floats(0.001, 45.0))
    def test_range(self, theta):
        rho = qpsk_rho_he(QpskParams(theta))
        assert 0.5 <= rho < 1.0

    @given(a=st.floats(0.001, 44.999), b=st.floats(0.001, 44.999))
    def test_monotone_decreasing(self, a, b):
        # cos^2 of two angles within 1e-6 degrees of each other near 0 can
        # round to the same double, so only the wider gaps are strict
        lo, hi = sorted((a, b))
        rho_lo, rho_hi = qpsk_rho_he(QpskParams(lo)), qpsk_rho_he(QpskParams(hi))
        if hi - lo > 1e-6:
            assert rho_lo > rho_hi
        else:
            assert rho_lo >= rho_hi

    @pytest.mark.parametrize("theta", [0.0, -1.0, 45.1, 90.0])
    def test_rejects_out_of_range(self, theta):
        with pytest.raises(ValueError):
            QpskParams(theta)


class TestApsk32Rho:
    @pytest.mark.parametrize(
        "g1,g2,theta,rho",
        [(g1, g2, th, rho) for rho, (g1, g2, th) in ADOPTED_APSK32_TRIPLES.items()],
    )
    def test_adopted_triples(self, g1, g2, theta, rho):
        assert apsk32_rho_he(Apsk32Params(g1, g2, theta)) == pytest.approx(rho, abs=0.005)

    def test_barycenter_distance_is_sqrt_rho(self):
        p = Apsk32Params(1.8, 3.4, 30.2)
        d = apsk32_barycenter_distance(p)
        assert d == pytest.approx(math.sqrt(0.75), abs=0.003)
        assert d * d == pytest.approx(apsk32_rho_he(p), abs=1e-12)

    @given(params=valid_apsk32)
    def test_distance_squared_equals_rho(self, params):
        assert apsk32_barycenter_distance(params) ** 2 == pytest.approx(
            apsk32_rho_he(params), abs=1e-12
        )

    @given(params=valid_apsk32)
    @settings(max_examples=200)
    def test_formula_matches_generated_geometry(self, params):
        pts = build_apsk32_points(params).points
        assert abs(quadrant_barycenter(pts)) ** 2 == pytest.approx(
            apsk32_rho_he(params), abs=1e-9
        )

    def test_rejects_bad_ring_ratios(self):
        with pytest.raises(ValueError):
            Apsk32Params(0.9, 2.0, 20.0)
        with pytest.raises(ValueError):
            Apsk32Params(2.0, 1.5, 20.0)
        with pytest.raises(ValueError):
            Apsk32Params(1.5, 2.5, 45.0)
        with pytest.raises(ValueError, match="got gamma1=2.0, gamma2=inf$"):
            Apsk32Params(2.0, math.inf, 20.0)

    def test_rho_command_rejects_an_infinite_ring_ratio(self, capsys):
        assert cli.main(["rho", "--h32apsk", "--g1", "2", "--g2", "inf", "--theta", "30"]) == 1
        assert capsys.readouterr() == (
            "", "error: ring ratios must be finite and satisfy 1 < gamma1 < gamma2, got gamma1=2.0, gamma2=inf\n"
        )


class TestQpskPoints:
    def test_uniform_qpsk_points(self):
        pts = build_qpsk_points(QpskParams(45.0)).points
        expected = {(s * math.sqrt(0.5), t * math.sqrt(0.5)) for s in (1, -1) for t in (1, -1)}
        got = {(round(p.real, 12), round(p.imag, 12)) for p in pts}
        assert got == {(round(x, 12), round(y, 12)) for x, y in expected}

    def test_30_degree_angles(self):
        pts = build_qpsk_points(QpskParams(30.0)).points
        angles = sorted(math.degrees(cmath.phase(p)) % 360 for p in pts)
        assert angles == pytest.approx([30.0, 150.0, 210.0, 330.0])
        assert all(abs(abs(p) - 1.0) < 1e-12 for p in pts)

    @given(theta=st.floats(1.0, 45.0))
    def test_he_barycenter_energy(self, theta):
        cp = build_qpsk_points(QpskParams(theta))
        # HE bit = I-axis sign; the two right-half points average to the
        # virtual BPSK symbol whose energy is rho_he.
        right = [p for p in cp.points if p.real > 0]
        bary = sum(right) / len(right)
        assert abs(bary) ** 2 == pytest.approx(qpsk_rho_he(QpskParams(theta)), abs=1e-12)

    def test_bit_widths(self):
        cp = build_qpsk_points(QpskParams(30.0))
        assert (cp.he_bits, cp.le_bits) == (1, 1)
        assert len(cp.points) == 4


class TestPsk8Points:
    def test_rho_matches_qpsk_form(self):
        assert psk8_rho_he(Psk8Params(27.0)) == pytest.approx(
            math.cos(math.radians(27.0)) ** 2, abs=1e-15
        )

    @pytest.mark.parametrize("theta", [30.0, 27.0, 24.0, 18.0])
    def test_cluster_barycenter(self, theta):
        cp = build_psk8_points(Psk8Params(theta))
        assert len(cp.points) == 8
        assert (cp.he_bits, cp.le_bits) == (2, 1)
        bary = quadrant_barycenter(cp.points)
        assert abs(bary) ** 2 == pytest.approx(psk8_rho_he(Psk8Params(theta)), abs=1e-12)


class TestApsk32Points:
    @given(params=valid_apsk32)
    @settings(max_examples=100)
    def test_unit_mean_energy(self, params):
        cp = build_apsk32_points(params)
        assert cp.mean_energy == pytest.approx(1.0, abs=1e-12)

    def test_ring_structure(self):
        cp = build_apsk32_points(Apsk32Params(2.0, 5.0, 30.0))
        radii = sorted(round(abs(p), 9) for p in cp.points)
        assert len(cp.points) == 32
        assert (cp.he_bits, cp.le_bits) == (2, 3)
        assert len(set(radii)) == 3
        inner, middle, outer = sorted(set(radii))
        assert radii.count(inner) == 4
        assert radii.count(middle) == 12
        assert radii.count(outer) == 16
        assert middle / inner == pytest.approx(2.0, abs=1e-9)
        assert outer / inner == pytest.approx(5.0, abs=1e-9)

    def test_adopted_075_barycenter(self):
        cp = build_apsk32_points(Apsk32Params(1.8, 3.4, 30.2))
        assert abs(quadrant_barycenter(cp.points)) ** 2 == pytest.approx(0.75, abs=0.005)

    def test_90_degree_symmetry(self):
        cp = build_apsk32_points(Apsk32Params(1.6, 2.6, 28.4))
        pts = {(round(p.real, 9), round(p.imag, 9)) for p in cp.points}
        rotated = {(round((p * 1j).real, 9), round((p * 1j).imag, 9)) for p in cp.points}
        assert pts == rotated
