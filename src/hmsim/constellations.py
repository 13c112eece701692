"""Non-uniform constellation geometry for hierarchical modulation.

A hierarchical constellation carries two streams per symbol: the high-energy
(HE) stream and the low-energy (LE) stream. The fraction of symbol energy
allocated to the HE stream, rho_he = E_he / E_s, is a pure function of the
constellation parameters and always lies in [0.5, 1).

All public APIs take angles in degrees (the usual way these parameters are
tabulated); trigonometry is done in radians internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "QpskParams",
    "Psk8Params",
    "Apsk32Params",
    "qpsk_rho_he",
    "psk8_rho_he",
    "apsk32_barycenter_distance",
    "apsk32_rho_he",
    "ADOPTED_QPSK_SPLITS",
    "ADOPTED_APSK32_TRIPLES",
]

# Adopted hierarchical-QPSK energy splits: rho_he -> theta (degrees).
ADOPTED_QPSK_SPLITS = {
    0.5: 45.0,
    0.55: 42.0,
    0.6: 39.0,
    0.65: 36.0,
    0.7: 33.0,
    0.75: 30.0,
    0.8: 27.0,
    0.85: 24.0,
    0.9: 18.0,
}

# Adopted hierarchical 32-APSK parameters: rho_he -> (gamma1, gamma2, theta degrees).
ADOPTED_APSK32_TRIPLES = {
    0.7: (2.4, 5.0, 32.3),
    0.75: (1.8, 3.4, 30.2),
    0.8: (1.6, 2.6, 28.4),
    0.85: (1.6, 2.2, 25.6),
    0.9: (1.8, 2.4, 17.4),
}


@dataclass(frozen=True)
class QpskParams:
    """Hierarchical QPSK: the four symbols sit on the unit circle at angles
    +-theta and 180 +- theta. theta = 45 degrees is the uniform QPSK.

    theta = 0 is rejected: it collapses the constellation to two points and
    leaves no energy for the LE stream.
    """

    theta: float

    def __post_init__(self):
        if not 0.0 < self.theta <= 45.0:
            raise ValueError(f"theta must be in (0, 45] degrees, got {self.theta}")


@dataclass(frozen=True)
class Psk8Params:
    """Hierarchical 8-PSK: four clusters of two unit-circle points, one
    cluster per quadrant, the two points at half-angle theta either side of
    the quadrant diagonal. HE bits select the quadrant, the LE bit the point.
    """

    theta: float

    def __post_init__(self):
        if not 0.0 < self.theta <= 45.0:
            raise ValueError(f"theta must be in (0, 45] degrees, got {self.theta}")


@dataclass(frozen=True)
class Apsk32Params:
    """Hierarchical 32-APSK ring geometry.

    gamma1 = R2/R1 and gamma2 = R3/R1 are the middle/outer ring radii
    relative to the inner ring; theta is the half-angle between the extreme
    outer-ring points of a quadrant.
    """

    gamma1: float
    gamma2: float
    theta: float

    def __post_init__(self):
        if not (1.0 < self.gamma1 < self.gamma2 and math.isfinite(self.gamma2)):
            raise ValueError(
                f"ring ratios must be finite and satisfy 1 < gamma1 < gamma2, got "
                f"gamma1={self.gamma1}, gamma2={self.gamma2}"
            )
        if not 0.0 < self.theta < 45.0:
            raise ValueError(f"theta must be in (0, 45) degrees, got {self.theta}")


def qpsk_rho_he(params: QpskParams) -> float:
    """HE energy fraction of the hierarchical QPSK: rho_he = cos(theta)^2.

    The HE "virtual" constellation is the BPSK formed by the barycenters of
    the two symbols sharing an HE bit, which sit at distance cos(theta) from
    the origin.
    """
    return math.cos(math.radians(params.theta)) ** 2


def psk8_rho_he(params: Psk8Params) -> float:
    """HE energy fraction of the hierarchical 8-PSK.

    The barycenter of the two unit-circle points of a quadrant cluster lies
    at distance cos(theta) from the origin, so rho_he = cos(theta)^2 exactly
    as for the hierarchical QPSK.
    """
    return math.cos(math.radians(params.theta)) ** 2


def apsk32_barycenter_distance(params: Apsk32Params) -> float:
    """Distance from the origin of the quadrant barycenter, in units of
    sqrt(E_s).

    With R1 = 1 the eight points of the upper-right quadrant average to a
    point at distance

        [1 + g1 (1 + 2 cos th) + 2 g2 (cos th + cos(th/3))] / 8

    and sqrt(E_s) = sqrt((1 + 3 g1^2 + 4 g2^2) / 8), which combine to the
    returned ratio. Note cos(th/3) means cos of a third of the angle: the
    outer ring places points at the diagonal +- th/3 and +- th.
    """
    g1, g2 = params.gamma1, params.gamma2
    th = math.radians(params.theta)
    num = 1.0 + g1 * (1.0 + 2.0 * math.cos(th)) + 2.0 * g2 * (math.cos(th) + math.cos(th / 3.0))
    den = math.sqrt(8.0 * (1.0 + 3.0 * g1 ** 2 + 4.0 * g2 ** 2))
    return num / den


def apsk32_rho_he(params: Apsk32Params) -> float:
    """HE energy fraction of the hierarchical 32-APSK.

    Equals the squared barycenter distance:

        rho_he = (1 + g1 (1 + 2 cos th) + 2 g2 (cos th + cos(th/3)))^2
                 / (8 (1 + 3 g1^2 + 4 g2^2))
    """
    return apsk32_barycenter_distance(params) ** 2
