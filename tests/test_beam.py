"""Beam model: main-lobe J1 series, edge geometry, attenuation sampling."""

import argparse
import dataclasses
import math

import numpy as np
import pytest
import scipy.optimize
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_series_factor, series_factor
from hmsim.beam import (
    GEO_ALTITUDE_M,
    WeatherCdf,
    antenna_gain_rel,
    beam_edge_angle,
    draw_population,
    _J1_FIRST_ZERO,
    _J1_SERIES_TERMS,
    _X_MAX,
    _j1_series_factor,
    _location_attenuation,
)
from hmsim.cli import load_scenario, main

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
        # the same float64 Horner with 52 terms: the 30 further terms change
        # no bit over the whole main lobe up to the reject bound, nor at the
        # null and the doubles either side of it
        coeffs = [(-1) ** k / (math.factorial(k) * math.factorial(k + 1)) for k in range(52)]
        x = np.random.default_rng(20131002).uniform(0.0, _X_MAX, 1_000_000)
        null = _J1_FIRST_ZERO
        x = np.concatenate([x, [0.0, np.nextafter(null, 0.0), null, np.nextafter(null, 4.0), _X_MAX]])
        u = x * x / 4.0
        assert np.array_equal(_j1_series_factor(u), series_factor(u, coeffs))

    def test_float64_series_absolute_bound(self):
        # the pattern's float64 series is within 2^-50 of the long-double
        # 52-term reference over the whole main lobe
        x = np.random.default_rng(20131002).uniform(0.0, _X_MAX, 1_000_000)
        x = np.concatenate([x, [0.0, _J1_FIRST_ZERO, _X_MAX]])
        u = x * x / 4.0
        assert np.abs(_j1_series_factor(u) - reference_series_factor(u)).max() <= 2.0**-50

    @pytest.mark.parametrize("edge_level_db", [1, 4, 10, 20, 40])
    def test_float64_series_relative_bound_inside_the_edge(self, default_antenna, edge_level_db):
        # on [0, x_edge] the bracket is at least 10^(-L/20), so the stated
        # relative bound is 2^-50 * 10^(L/20)
        cfg = dataclasses.replace(default_antenna, edge_level_db=edge_level_db)
        x = np.linspace(0.0, math.sin(beam_edge_angle(cfg)) * cfg.aperture_factor, 1_000_001)
        u = x * x / 4.0
        exact = reference_series_factor(u)
        rel = np.abs(_j1_series_factor(u) - exact) / exact
        assert rel.max() <= 2.0**-50 * 10 ** (edge_level_db / 20)

    def test_tail_bound_justifies_term_count(self):
        # from k = 1 on, term k+1 / term k = u / ((k+1)(k+2)) < 1 needs u < 6,
        # so the alternating tail is bounded by its first term
        n = _J1_SERIES_TERMS
        u = _X_MAX * _X_MAX / 4.0
        assert u < 6.0
        assert u**n / (math.factorial(n) * math.factorial(n + 1)) < 1e-30

    def test_edge_angle_where_sine_rounds_past_the_null(self, default_antenna):
        # here sin(asin(j1,1 / k)) * k lands 1 ulp above j1,1, so the
        # bisection's upper end needs the reject bound's rounding margin
        cfg = dataclasses.replace(default_antenna, diameter_m=0.2, frequency_hz=2.95e9)
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
        doubled = dataclasses.replace(default_antenna, diameter_m=2 * default_antenna.diameter_m)
        ratio = math.sin(beam_edge_angle(doubled)) / math.sin(beam_edge_angle(default_antenna))
        assert ratio == pytest.approx(0.5, abs=1e-9)

    def test_bisection_is_reproducible(self, default_antenna):
        first = beam_edge_angle(default_antenna)
        beam_edge_angle.cache_clear()
        assert beam_edge_angle(dataclasses.replace(default_antenna)) == first

    def test_edge_levels_below_the_series_floor(self, default_antenna, sample_weather):
        # next to the null the float64 gain falls to rounding noise near
        # 300-313 dB and then to 0, so a deeper edge level gives the angle
        # where it reads 0, 3 ulps below the null
        def edge(level):
            return dataclasses.replace(default_antenna, edge_level_db=level)

        floor_angle = beam_edge_angle(edge(325))
        null = math.asin(_J1_FIRST_ZERO / default_antenna.aperture_factor)
        assert floor_angle == null - 3 * np.spacing(null)
        for level in (326, 350, 1000, 1e6):
            assert beam_edge_angle(edge(level)) == floor_angle
        snrs = draw_population(2000, [10.0], edge(1000), sample_weather, [3])[0]
        assert np.isfinite(snrs).all()
        # the largest uniform lands short of the floor angle, where the gain
        # is above 0: a log10 of 0 would warn, and warnings are errors here
        for level in (325, 1000, 1e6):
            assert np.isfinite(_location_attenuation(np.array([1.0 - 2.0**-53]), edge(level))).all()

    def test_rejects_edge_level_without_a_null(self, default_antenna):
        # the first null lies past 90 degrees; the gain there is -0.01 dB
        cfg = dataclasses.replace(default_antenna, diameter_m=0.01, frequency_hz=1e9)
        assert _J1_FIRST_ZERO / cfg.aperture_factor >= 1.0
        with pytest.raises(ValueError, match="main lobe never drops 4.0 dB below boresight"):
            beam_edge_angle(cfg)

    def test_rejects_angles_outside_domain(self, default_antenna):
        with pytest.raises(ValueError):
            antenna_gain_rel(-0.1, default_antenna)
        with pytest.raises(ValueError):
            antenna_gain_rel(math.pi / 2, default_antenna)

    def test_config_validation(self, default_antenna):
        with pytest.raises(ValueError):
            dataclasses.replace(default_antenna, edge_level_db=0.0)
        with pytest.raises(ValueError):
            dataclasses.replace(default_antenna, diameter_m=-1.0)
        for name in ("diameter_m", "frequency_hz", "edge_level_db"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=name):
                    dataclasses.replace(default_antenna, **{name: value})


class TestLocationSampling:
    def test_bounded_by_edge_level(self, default_antenna):
        att = _location_attenuation(np.random.default_rng(3).random(200_000), default_antenna)
        assert att.min() >= 0.0
        assert att.max() <= default_antenna.edge_level_db + 1e-9

    def test_deterministic_for_seed(self, default_antenna):
        a = _location_attenuation(np.random.default_rng(11).random(1000), default_antenna)
        b = _location_attenuation(np.random.default_rng(11).random(1000), default_antenna)
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

        samples = np.sort(_location_attenuation(np.random.default_rng(7).random(1_000_000), cfg))
        model = np.interp(samples, att_grid, cdf_grid, left=0.0, right=1.0)
        empirical = np.arange(1, samples.size + 1) / samples.size
        ks = np.max(np.abs(empirical - model))
        assert ks < 0.005


class TestWeatherSampling:
    def test_degenerate_clear_sky(self):
        cdf = WeatherCdf([(0.0, 0.0), (0.0, 1.0)])
        draws = cdf.quantile(np.random.default_rng(1).random(10_000))
        assert np.all(draws == 0.0)

    def test_uniform_mean(self):
        cdf = WeatherCdf([(0.0, 0.0), (10.0, 1.0)])
        draws = cdf.quantile(np.random.default_rng(2).random(1_000_000))
        assert draws.mean() == pytest.approx(5.0, abs=0.02)

    def test_shipped_cdf_self_consistency(self, sample_weather):
        draws = np.sort(sample_weather.quantile(np.random.default_rng(5).random(1_000_000)))
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
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                WeatherCdf([(0.0, 0.0), (bad, 0.5), (2.0, 1.0)])
            with pytest.raises(ValueError, match="finite"):
                WeatherCdf([(0.0, 0.0), (1.0, bad), (2.0, 1.0)])

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
        for row in ("nan,0.5", "1,nan", "inf,0.5", "1,-inf"):
            non_finite = tmp_path / "c.csv"
            non_finite.write_text(f"attenuation_db,cum_prob\n0,0\n{row}\n6,1\n")
            with pytest.raises(ValueError) as excinfo:
                WeatherCdf.from_csv(non_finite)
            assert str(excinfo.value) == f"{non_finite}: line 3: non-finite value"

    @pytest.mark.parametrize("text,problem", [
        ("", "empty file"),
        ("attenuation_db,cum_prob\n0,0\n1,0.5,2\n6,1\n", "line 3: expected 2 fields, got 3"),
        ("attenuation_db,cum_prob\n0,0\n1 dB,0.5\n6,1\n", "line 3: bad number"),
        ("attenuation_db,cum_prob\n0,0\n\xff,0.5\n6,1\n",
         "not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 28: invalid start byte"),
    ], ids=["empty", "field_count", "bad_number", "not_utf8"])
    def test_csv_errors_located(self, tmp_path, text, problem, capsys):
        path = tmp_path / "wx.csv"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ValueError) as excinfo:
            WeatherCdf.from_csv(path)
        assert str(excinfo.value) == f"{path}: {problem}"
        ini = tmp_path / "s.ini"
        ini.write_text("[weather]\ncdf = wx.csv\n")
        assert main(["validate", "--scenario", str(ini)]) == 1
        assert capsys.readouterr() == ("", f"FAIL: weather CDF: {path}: {problem}\n")

    def test_csv_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "wx.csv"
        path.write_text("attenuation_db,cum_prob\n0,0\n\n , \n8,1\n")
        assert list(WeatherCdf.from_csv(path).attenuation_db) == [0.0, 8.0]


def _quantile_probes(cdf):
    """0 and 1, every breakpoint and its two neighbouring floats, values
    below 0 and above 1, infinities and uniforms."""
    breaks = cdf.cum_prob
    return np.concatenate([
        [0.0, 1.0, -0.0, -1e-300, -0.5, -1.0, -1.5, -1e300, -np.inf, 1 + 2**-52, 1.5, 2.0, 2.5, 1e300, np.inf],
        breaks, np.nextafter(breaks, -np.inf), np.nextafter(breaks, np.inf),
        np.random.default_rng(3).random(2_000),
    ])


def _assert_quantile_is_interp(cdf, u):
    got, expected = cdf.quantile(u), np.interp(u, cdf.cum_prob, cdf.attenuation_db)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


# Generated CDFs: nondecreasing attenuations from >= 0 with repeats (point
# masses), and probabilities from 0 or above, with repeats, ending at 1 or
# at 1 - 1e-13, inside the 1e-12 that WeatherCdf allows.
_steps = st.one_of(st.just(0.0), st.floats(1e-9, 1.0))
_cdf_shapes = st.integers(2, 24).flatmap(lambda n: st.tuples(
    st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 10.0)), min_size=n - 1, max_size=n - 1),
    st.one_of(st.just(0.0), st.floats(0.0, 0.9)),
    st.lists(_steps, min_size=n - 1, max_size=n - 1),
    st.sampled_from([1.0, 1 - 1e-13]),
))


def _cdf_of(shape):
    att0, att_steps, prob0, prob_steps, last = shape
    att = att0 + np.cumsum([0.0] + att_steps)
    rising = np.cumsum([0.0] + prob_steps)
    prob = prob0 + (last - prob0) * (rising / rising[-1] if rising[-1] > 0 else rising)
    prob = np.minimum(prob, last)
    prob[-1] = last
    return WeatherCdf(list(zip(att, prob)))


class TestWeatherQuantile:
    """``WeatherCdf.quantile`` is ``np.interp`` on the table, bit for bit."""

    def test_shipped_cdf(self, sample_weather):
        _assert_quantile_is_interp(sample_weather, _quantile_probes(sample_weather))
        # the rows of a draw: a strided (rows, receivers) view
        _assert_quantile_is_interp(sample_weather, np.random.default_rng(4).random((8, 2, 500))[:, 1])

    @given(shape=_cdf_shapes, extra=st.lists(st.floats(allow_nan=False), max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_generated_cdfs(self, shape, extra):
        cdf = _cdf_of(shape)
        _assert_quantile_is_interp(cdf, np.concatenate([_quantile_probes(cdf), extra]))

    @pytest.mark.parametrize("points", [
        [(0.0, 0.0), (0.0, 0.4), (1.0, 0.4), (1.0, 0.4), (3.0, 0.9), (3.0, 1.0)],  # masses and flats
        [(0.0, 0.25), (2.0, 0.25), (5.0, 1 - 1e-13)],  # mass at 0, last below 1
        [(0.0, 1.0), (7.0, 1.0)],  # one step of probability 1
        [(-0.0, 0.0), (-0.0, 0.5), (4.0, 1.0)],  # -0.0 reads as 0.0
    ], ids=["masses_and_flats", "first_above_zero", "all_at_one", "negative_zero"])
    def test_adversarial_cdfs(self, points):
        cdf = WeatherCdf(points)
        _assert_quantile_is_interp(cdf, _quantile_probes(cdf))

    def test_nan_reads_nan(self, sample_weather):
        got = sample_weather.quantile(np.array([np.nan, 0.5, np.nan]))
        assert np.isnan(got[[0, 2]]).all() and got[1] == np.interp(0.5, sample_weather.cum_prob,
                                                                  sample_weather.attenuation_db)

    def test_segments_built_on_first_quantile(self):
        # so that loading a scenario, as every hmsim pair does, builds none
        assert "_segments" not in vars(load_scenario(None, argparse.Namespace()).weather)
        cdf = WeatherCdf([(0.0, 0.0), (1.0, 1.0)])
        cdf.quantile(np.zeros(1))
        assert "_segments" in vars(cdf)


class TestDrawPopulation:
    def test_shape_and_bounds(self, default_antenna, sample_weather):
        snrs = draw_population(500, [10.0], default_antenna, sample_weather, rng=[123])
        assert snrs.shape == (1, 500)
        assert snrs.dtype == np.float64
        assert (snrs <= 10.0).all()

    def test_clear_sky_band(self, default_antenna):
        clear = WeatherCdf([(0.0, 0.0), (0.0, 1.0)])
        snrs = draw_population(300, [10.0], default_antenna, clear, rng=[5])
        assert ((6.0 - 1e-9 <= snrs) & (snrs <= 10.0)).all()

    def test_snr_identity(self, default_antenna, sample_weather):
        # n location uniforms first, then n weather uniforms
        rng = np.random.default_rng(9)
        loc = _location_attenuation(rng.random(50), default_antenna)
        wx = sample_weather.quantile(rng.random(50))
        assert (loc >= 0).all() and (wx >= 0).all()
        snrs = draw_population(50, [7.5], default_antenna, sample_weather, rng=[9])
        assert np.array_equal(snrs, [7.5 - loc - wx])

    def test_bit_reproducible(self, default_antenna, sample_weather):
        a = draw_population(100, [5.0], default_antenna, sample_weather, rng=[np.random.SeedSequence(77)])
        b = draw_population(100, [5.0], default_antenna, sample_weather, rng=[np.random.SeedSequence(77)])
        assert a.tobytes() == b.tobytes()

    def test_rows_equal_one_row_draws(self, default_antenna, sample_weather):
        snr_max = np.array([-2.0, 5.0, 5.0, 12.5])
        seeds = [np.random.SeedSequence(3, spawn_key=key) for key in [(0, 0), (1, 0), (1, 1), (2, 0)]]
        rows = draw_population(70, snr_max, default_antenna, sample_weather, rng=seeds)
        assert rows.shape == (4, 70)
        for row, snr, seed in zip(rows, snr_max.tolist(), seeds):
            assert row.tobytes() == draw_population(70, [snr], default_antenna, sample_weather, rng=[seed]).tobytes()

    def test_rejects_empty(self, default_antenna, sample_weather):
        with pytest.raises(ValueError):
            draw_population(0, [5.0], default_antenna, sample_weather, rng=[1])

    @pytest.mark.parametrize("snr_max, generators, shape", [([1.0], 3, r"\(1,\)"), ([1.0, 2.0], 3, r"\(2,\)"),
                                                          ([1.0, 2.0, 3.0], 2, r"\(3,\)"), ([[1.0, 2.0]], 2, r"\(1, 2\)")],
                             ids=["one_for_three", "two_for_three", "three_for_two", "two_dimensional"])
    def test_rejects_one_snr_per_generator_mismatch(self, default_antenna, sample_weather, snr_max, generators, shape):
        # One SNR for three generators once drew three rows from that SNR,
        # and two for three failed in numpy's broadcasting.
        with pytest.raises(ValueError, match=rf"snr_max_db has shape {shape}, rng has {generators} generators"):
            draw_population(4, snr_max, default_antenna, sample_weather, rng=list(range(1, generators + 1)))
