"""hmsim: spectrum-efficiency gains of hierarchical-modulation time sharing
in a DVB-S2-like satellite broadcast system.

The package splits into constellation geometry (pure math), decoding
threshold tables, the pair/population rate optimizer, the spot-beam channel
model, the Monte Carlo campaign engine, and a CLI front end.
"""

from .beam import (
    AntennaConfig,
    WeatherCdf,
    antenna_gain_rel,
    beam_edge_angle,
    draw_population,
    sample_location_attenuation,
    sample_weather_attenuation,
)
from .campaign import (
    COMBINED,
    CampaignConfig,
    SimulationReport,
    curve_csv_text,
    gain_curve,
    gains_csv_text,
    run_campaign,
)
from .constellations import (
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
from .modcod import (
    DVBS2_CODE_RATES,
    Family,
    ModcodChoice,
    SchemeId,
    Stream,
    TableParseError,
    TableValidationError,
    ThresholdTable,
    load_anomaly_manifest,
    load_threshold_csv,
    packaged_data_path,
    serialize_threshold_csv,
    signaling_bits,
)
from .rateopt import (
    EqualRateSolution,
    PairSolution,
    RatePair,
    SystemSummary,
    TimeShare,
    achievable_pairs,
    aggregate_ts,
    equal_rate_point,
    group_receivers,
    pair_solution,
    rate_region_hull,
    system_gain,
    system_summary,
)

__version__ = "0.1.0"
