"""Rotary-wing propulsion power and per-slot energy accounting.

P(v) = P0*(1 + 3v^2/U_tip^2)
     + Pi*(sqrt(1 + v^4/(4 v0^4)) - v^2/(2 v0^2))^(1/2)
     + (1/2) d0 rho s A v^3

Transmit energy is excluded everywhere; only propulsion counts.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PropulsionParams:
    p0_blade: float = 79.86
    pi_induced: float = 88.63
    tip_speed: float = 120.0
    mean_rotor_induced_velocity: float = 4.03
    fuselage_drag_ratio: float = 0.6
    rotor_solidity: float = 0.05
    rotor_disc_area: float = 0.503
    air_density: float = 1.225


REFERENCE_PROPULSION = PropulsionParams()


def flight_power(v: float, p: PropulsionParams = REFERENCE_PROPULSION) -> float:
    """Propulsion power in W at level speed v >= 0 (m/s)."""
    if v < 0:
        raise ValueError("speed must be nonnegative")
    v2 = v * v
    blade = p.p0_blade * (1.0 + 3.0 * v2 / p.tip_speed ** 2)
    v0sq = p.mean_rotor_induced_velocity ** 2
    induced = p.pi_induced * np.sqrt(
        np.sqrt(1.0 + v2 * v2 / (4.0 * v0sq * v0sq)) - v2 / (2.0 * v0sq)
    )
    parasite = 0.5 * p.fuselage_drag_ratio * p.air_density \
        * p.rotor_solidity * p.rotor_disc_area * v ** 3
    return float(blade + induced + parasite)


def hover_power(p: PropulsionParams = REFERENCE_PROPULSION) -> float:
    """Hover power: blade profile plus induced component."""
    return p.p0_blade + p.pi_induced


def slot_energy(flying: int, tau: float, p: PropulsionParams, v_fixed: float) -> float:
    """Energy in J spent during one slot, hovering or flying at v_fixed."""
    if tau <= 0:
        raise ValueError("slot length must be positive")
    power = flight_power(v_fixed, p) if flying else hover_power(p)
    return power * tau
