"""Beam model: main-lobe J1 series, edge geometry, attenuation sampling."""

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
    draw_population,
    sample_location_attenuation,
    sample_weather_attenuation,
    _J1_FIRST_ZERO,
    _J1_SERIES_TERMS,
    _X_MAX,
    _j1_series_factor,
)

# J1 reference values on the main lobe [0, j1,1], 30-digit
# arbitrary-precision series, computed offline and frozen here.
J1_REFERENCE = [
    (0.0, 0.0),
    (0.5, 0.24226845767487388638),
    (1.0, 0.44005058574493351596),
    (1.5, 0.55793650791009964199),
    (2.0, 0.5767248077568733872),
    (2.5, 0.49709410246427403801),
    (3.0, 0.33905895852593645893),
    (3.5, 0.13737752736232718572),
]

# Independently computed: theta at which the default pattern is 4 dB down,
# and the relative gain exactly at 0.336 degrees.
EDGE_ANGLE_RAD = 0.0058668218250460214517
GAIN_AT_0336_DEG = 0.39845002707054591143

# Reference for the short series: the same extended-precision Horner with
# 52 terms, whose tail is negligible far beyond the main lobe.
_REFERENCE_COEFFS = [
    np.longdouble((-1) ** k) / (np.longdouble(math.factorial(k)) * np.longdouble(math.factorial(k + 1)))
    for k in range(52)
]


def reference_series_factor(u):
    u = np.asarray(u, dtype=np.longdouble)
    acc = np.full_like(u, _REFERENCE_COEFFS[-1])
    for c in reversed(_REFERENCE_COEFFS[:-1]):
        acc = acc * u + c
    return acc.astype(float)


def j1_main_lobe(x):
    x = np.asarray(x, dtype=float)
    return (x / 2.0) * _j1_series_factor(x * x / 4.0)


class TestBesselJ1:
    def test_frozen_reference_grid(self):
        for x, expected in J1_REFERENCE:
            assert abs(j1_main_lobe(x) - expected) < 1e-10, x

    def test_against_scipy_dense(self):
        x = np.linspace(0.0, _J1_FIRST_ZERO, 2001)
        assert np.max(np.abs(j1_main_lobe(x) - scipy.special.j1(x))) < 1e-10


class TestMainLobeSeries:
    def test_bit_equal_to_52_terms(self):
        # seeded x over the whole main lobe up to the reject bound, plus the
        # null and the doubles either side of it
        x = np.random.default_rng(20131002).uniform(0.0, _X_MAX, 1_000_000)
        null = _J1_FIRST_ZERO
        x = np.concatenate([x, [0.0, np.nextafter(null, 0.0), null, np.nextafter(null, 4.0), _X_MAX]])
        u = x * x / 4.0
        assert np.array_equal(_j1_series_factor(u), reference_series_factor(u))

    def test_tail_bound_justifies_term_count(self):
        # from k = 1 on, term k+1 / term k = u / ((k+1)(k+2)) < 1 needs u < 6,
        # so the alternating tail is bounded by its first term
        n = _J1_SERIES_TERMS
        u = _X_MAX * _X_MAX / 4.0
        assert u < 6.0
        assert u**n / (math.factorial(n) * math.factorial(n + 1)) < 1e-30

    def test_edge_angle_where_sine_rounds_past_the_null(self):
        # here sin(asin(j1,1 / k)) * k lands 1 ulp above j1,1, so the
        # bisection's upper end needs the reject bound's rounding margin
        cfg = AntennaConfig(diameter_m=0.2, frequency_hz=2.95e9)
        k = cfg.aperture_factor
        assert math.sin(math.asin(_J1_FIRST_ZERO / k)) * k > _J1_FIRST_ZERO
        theta = beam_edge_angle(cfg)
        assert antenna_gain_rel(theta, cfg) == pytest.approx(10 ** (-0.4), abs=1e-9)

    def test_rejects_angles_past_the_null(self, default_antenna):
        theta = math.asin(4.0 / default_antenna.aperture_factor)
        with pytest.raises(ValueError, match=f"off-axis angle {theta} rad is past the main lobe"):
            antenna_gain_rel(theta, default_antenna)
        with pytest.raises(ValueError, match="past the main lobe"):
            antenna_gain_rel(np.array([0.0, 0.001, theta]), default_antenna)


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

    def test_edge_levels_below_the_series_floor(self, sample_weather):
        # next to the null the computed gain bottoms out near 325 dB, so a
        # deeper edge level gives that angle, 1 ulp below the null
        floor_angle = beam_edge_angle(AntennaConfig(edge_level_db=325))
        null = math.asin(_J1_FIRST_ZERO / AntennaConfig().aperture_factor)
        assert floor_angle == np.nextafter(null, 0.0)
        for level in (326, 350, 1000, 1e6):
            assert beam_edge_angle(AntennaConfig(edge_level_db=level)) == floor_angle
        snrs = draw_population(2000, 10.0, AntennaConfig(edge_level_db=1000), sample_weather, 3)
        assert np.isfinite(snrs).all()

    def test_rejects_edge_level_without_a_null(self):
        # the first null lies past 90 degrees; the gain there is -0.01 dB
        cfg = AntennaConfig(diameter_m=0.01, frequency_hz=1e9)
        assert _J1_FIRST_ZERO / cfg.aperture_factor >= 1.0
        with pytest.raises(ValueError, match="main lobe never drops 4.0 dB below boresight"):
            beam_edge_angle(cfg)

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
        model = np.interp(draws, sample_weather.attenuation_db, sample_weather.cum_prob, left=0.0, right=1.0)
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

    def test_rows_equal_one_row_draws(self, default_antenna, sample_weather):
        snr_max = np.array([-2.0, 5.0, 5.0, 12.5])
        seeds = [np.random.SeedSequence(3, spawn_key=key) for key in [(0, 0), (1, 0), (1, 1), (2, 0)]]
        rows = draw_population(70, snr_max, default_antenna, sample_weather, rng=seeds)
        assert rows.shape == (4, 70)
        for row, snr, seed in zip(rows, snr_max.tolist(), seeds):
            assert row.tobytes() == draw_population(70, snr, default_antenna, sample_weather, rng=seed).tobytes()

    def test_rejects_empty(self, default_antenna, sample_weather):
        with pytest.raises(ValueError):
            draw_population(0, 5.0, default_antenna, sample_weather, rng=1)
