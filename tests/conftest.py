import argparse
import dataclasses
import functools

import pytest

from hmsim.beam import WeatherCdf
from hmsim.cli import load_scenario
from hmsim.modcod import load_threshold_csv, packaged_data_path


@pytest.fixture(scope="session")
def hqpsk_table():
    return load_threshold_csv(packaged_data_path("hqpsk_thresholds.csv"))


@pytest.fixture(scope="session")
def h32apsk_table():
    return load_threshold_csv(packaged_data_path("h32apsk_thresholds.csv"))


@pytest.fixture(scope="session")
def single_table():
    return load_threshold_csv(packaged_data_path("dvbs2_single.csv"))


@pytest.fixture(scope="session")
def full_table(single_table, hqpsk_table, h32apsk_table):
    return single_table.merged_with(hqpsk_table).merged_with(h32apsk_table)


@pytest.fixture(scope="session")
def default_scenario():
    """The scenario of ``cli.DEFAULT_SCENARIO``, the one place that states
    the defaults: tests take the defaults they rely on from here."""
    return load_scenario(None, argparse.Namespace())


@pytest.fixture(scope="session")
def default_antenna(default_scenario):
    return default_scenario.antenna


@pytest.fixture(scope="session")
def campaign_config(default_scenario):
    """The default scenario's campaign with the given fields replaced."""
    return functools.partial(dataclasses.replace, default_scenario.campaign_config())


@pytest.fixture(scope="session")
def sample_weather():
    return WeatherCdf.from_csv(packaged_data_path("weather_cdf_sample.csv"))
