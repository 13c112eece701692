"""Beam model: Bessel evaluation, edge geometry, attenuation sampling."""

import math

import numpy as np
import pytest
import scipy.optimize
import scipy.special

from hmsim.beam import (
    GEO_ALTITUDE_M,
    AntennaConfig,
    WeatherCdf,
    antenna_gain_rel,
    beam_edge_angle,
    bessel_j1,
    draw_population,
    sample_location_attenuation,
    sample_weather_attenuation,
    _SERIES_CUTOFF,
    _j1_asymptotic,
    _j1_series_factor,
)

# J1 reference values on [0, 10], 30-digit arbitrary-precision series,
# computed offline and frozen here.
J1_REFERENCE = [
    (0.0, 0.0),
    (0.5, 0.24226845767487388638),
    (1.0, 0.44005058574493351596),
    (1.5, 0.55793650791009964199),
    (2.0, 0.5767248077568733872),
    (2.5, 0.49709410246427403801),
    (3.0, 0.33905895852593645893),
    (3.5, 0.13737752736232718572),
    (4.0, -0.066043328023549136143),
    (4.5, -0.23106043192337063401),
    (5.0, -0.32757913759146522204),
    (5.5, -0.34143821542904335018),
    (6.0, -0.27668385812756560817),
    (6.5, -0.15384130140997183711),
    (7.0, -0.0046828234823458326991),
    (7.5, 0.13524842757970550518),
    (8.0, 0.23463634685391462438),
    (8.5, 0.27312196367405374427),
    (9.0, 0.24531178657332527232),
    (9.5, 0.16126443075752985095),
    (10.0, 0.04347274616886143667),
]

# Independently computed: theta at which the default pattern is 4 dB down,
# and the relative gain exactly at 0.336 degrees.
EDGE_ANGLE_RAD = 0.0058668218250460214517
GAIN_AT_0336_DEG = 0.39845002707054591143


class TestBesselJ1:
    def test_frozen_reference_grid(self):
        for x, expected in J1_REFERENCE:
            assert abs(bessel_j1(x) - expected) < 1e-10, x

    def test_against_scipy_dense(self):
        x = np.linspace(0.0, 10.0, 2001)
        assert np.max(np.abs(bessel_j1(x) - scipy.special.j1(x))) < 1e-10

    def test_large_arguments_against_scipy(self):
        x = np.linspace(10.0, 330.0, 1500)
        assert np.max(np.abs(bessel_j1(x) - scipy.special.j1(x))) < 1e-10

    def test_branch_agreement_at_cutoff(self):
        x = np.array([_SERIES_CUTOFF])
        series = (x / 2.0) * _j1_series_factor(x * x / 4.0)
        asym = _j1_asymptotic(x)
        assert abs(series[0] - asym[0]) < 1e-12

    def test_odd_function(self):
        x = np.array([0.3, 1.7, 5.2])
        assert np.allclose(bessel_j1(-x), -bessel_j1(x), rtol=0, atol=0)


class TestAntennaGain:
    def test_boresight_is_exactly_one(self, default_antenna):
        assert antenna_gain_rel(0.0, default_antenna) == 1.0

    def test_edge_gain_matches_edge_level(self, default_antenna):
        theta = beam_edge_angle(default_antenna)
        assert abs(antenna_gain_rel(theta, default_antenna) - 10 ** (-0.4)) <= 1e-9

    def test_edge_angle_value(self, default_antenna):
        assert beam_edge_angle(default_antenna) == pytest.approx(EDGE_ANGLE_RAD, abs=1e-11)

    def test_gain_at_0336_degrees(self, default_antenna):
        got = antenna_gain_rel(math.radians(0.336), default_antenna)
        assert got == pytest.approx(GAIN_AT_0336_DEG, abs=1e-12)
        assert got == pytest.approx(0.398, abs=1e-3)

    def test_doubling_diameter_halves_sine(self, default_antenna):
        doubled = AntennaConfig(diameter_m=2 * default_antenna.diameter_m)
        ratio = math.sin(beam_edge_angle(doubled)) / math.sin(beam_edge_angle(default_antenna))
        assert ratio == pytest.approx(0.5, abs=1e-9)

    def test_bisection_is_reproducible(self, default_antenna):
        first = beam_edge_angle(default_antenna)
        beam_edge_angle.cache_clear()
        assert beam_edge_angle(AntennaConfig()) == first

    def test_rejects_angles_outside_domain(self, default_antenna):
        with pytest.raises(ValueError):
            antenna_gain_rel(-0.1, default_antenna)
        with pytest.raises(ValueError):
            antenna_gain_rel(math.pi / 2, default_antenna)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AntennaConfig(edge_level_db=0.0)
        with pytest.raises(ValueError):
            AntennaConfig(diameter_m=-1.0)
        for name in ("diameter_m", "frequency_hz", "edge_level_db"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=name):
                    AntennaConfig(**{name: value})


class TestLocationSampling:
    def test_bounded_by_edge_level(self, default_antenna):
        att = sample_location_attenuation(np.random.default_rng(3), default_antenna, size=200_000)
        assert att.min() >= 0.0
        assert att.max() <= default_antenna.edge_level_db + 1e-9

    def test_deterministic_for_seed(self, default_antenna):
        a = sample_location_attenuation(np.random.default_rng(11), default_antenna, size=1000)
        b = sample_location_attenuation(np.random.default_rng(11), default_antenna, size=1000)
        assert np.array_equal(a, b)

    def test_empirical_cdf_matches_ring_area_law(self, default_antenna):
        # independent construction: the fraction of the disk within
        # attenuation a is (tan(theta_a) / tan(theta_edge))^2, with theta_a
        # inverted from the pattern using scipy's J1 and a root finder
        cfg = default_antenna
        k = cfg.aperture_factor

        def gain(theta):
            x = math.sin(theta) * k
            return (2.0 * scipy.special.j1(x) / x) ** 2 if x else 1.0

        theta_edge = scipy.optimize.brentq(
            lambda th: gain(th) - 10 ** (-cfg.edge_level_db / 10), 1e-9, 0.012, xtol=1e-15
        )
        thetas = np.linspace(1e-7, theta_edge, 4001)
        att_grid = np.array([-10 * math.log10(gain(t)) for t in thetas])
        cdf_grid = (np.tan(thetas) / math.tan(theta_edge)) ** 2

        samples = np.sort(
            sample_location_attenuation(np.random.default_rng(7), cfg, size=1_000_000)
        )
        model = np.interp(samples, att_grid, cdf_grid, left=0.0, right=1.0)
        empirical = np.arange(1, samples.size + 1) / samples.size
        ks = np.max(np.abs(empirical - model))
        assert ks < 0.005


class TestWeatherSampling:
    def test_degenerate_clear_sky(self):
        cdf = WeatherCdf([(0.0, 0.0), (0.0, 1.0)])
        draws = sample_weather_attenuation(np.random.default_rng(1), cdf, size=10_000)
        assert np.all(draws == 0.0)

    def test_uniform_mean(self):
        cdf = WeatherCdf([(0.0, 0.0), (10.0, 1.0)])
        draws = sample_weather_attenuation(np.random.default_rng(2), cdf, size=1_000_000)
        assert draws.mean() == pytest.approx(5.0, abs=0.02)

    def test_shipped_cdf_self_consistency(self, sample_weather):
        draws = np.sort(
            sample_weather_attenuation(np.random.default_rng(5), sample_weather, size=1_000_000)
        )
        model = sample_weather.cdf(draws)
        empirical = np.arange(1, draws.size + 1) / draws.size
        assert np.max(np.abs(empirical - model)) < 0.005

    def test_validation(self):
        with pytest.raises(ValueError):
            WeatherCdf([(0.0, 0.0)])
        with pytest.raises(ValueError):
            WeatherCdf([(0.0, 0.5), (1.0, 0.4), (2.0, 1.0)])
        with pytest.raises(ValueError):
            WeatherCdf([(1.0, 0.0), (0.5, 1.0)])
        with pytest.raises(ValueError):
            WeatherCdf([(-0.5, 0.0), (1.0, 1.0)])
        with pytest.raises(ValueError):
            WeatherCdf([(0.0, 0.0), (1.0, 0.9)])

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "wx.csv"
        path.write_text("attenuation_db,cum_prob\n0,0\n2,0.5\n8,1\n")
        cdf = WeatherCdf.from_csv(path)
        assert list(cdf.attenuation_db) == [0.0, 2.0, 8.0]

    def test_csv_errors(self, tmp_path):
        bad_header = tmp_path / "a.csv"
        bad_header.write_text("x,y\n0,1\n")
        with pytest.raises(ValueError, match="header"):
            WeatherCdf.from_csv(bad_header)
        decreasing = tmp_path / "b.csv"
        decreasing.write_text("attenuation_db,cum_prob\n0,0.9\n5,0.2\n6,1\n")
        with pytest.raises(ValueError, match="nondecreasing"):
            WeatherCdf.from_csv(decreasing)


class TestDrawPopulation:
    def test_shape_and_bounds(self, default_antenna, sample_weather):
        snrs = draw_population(500, 10.0, default_antenna, sample_weather, rng=123)
        assert snrs.shape == (500,)
        assert snrs.dtype == np.float64
        assert (snrs <= 10.0).all()

    def test_clear_sky_band(self, default_antenna):
        clear = WeatherCdf([(0.0, 0.0), (0.0, 1.0)])
        snrs = draw_population(300, 10.0, default_antenna, clear, rng=5)
        assert ((6.0 - 1e-9 <= snrs) & (snrs <= 10.0)).all()

    def test_snr_identity(self, default_antenna, sample_weather):
        # n location uniforms first, then n weather uniforms
        rng = np.random.default_rng(9)
        loc = sample_location_attenuation(rng, default_antenna, size=50)
        wx = sample_weather_attenuation(rng, sample_weather, size=50)
        assert (loc >= 0).all() and (wx >= 0).all()
        snrs = draw_population(50, 7.5, default_antenna, sample_weather, rng=9)
        assert np.array_equal(snrs, 7.5 - loc - wx)

    def test_bit_reproducible(self, default_antenna, sample_weather):
        a = draw_population(100, 5.0, default_antenna, sample_weather, rng=np.random.SeedSequence(77))
        b = draw_population(100, 5.0, default_antenna, sample_weather, rng=np.random.SeedSequence(77))
        assert a.tobytes() == b.tobytes()

    def test_rejects_empty(self, default_antenna, sample_weather):
        with pytest.raises(ValueError):
            draw_population(0, 5.0, default_antenna, sample_weather, rng=1)
