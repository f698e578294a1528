from dataclasses import replace

import numpy as np
import pytest

from uavisac.config import config_problems, load_config
from uavisac.energy import (PropulsionParams, REFERENCE_PROPULSION,
                            flight_power, hover_power, slot_energy)


def brute_force_power(v, p=REFERENCE_PROPULSION):
    """Independent scalar evaluation of the rotary-wing power model."""
    blade = p.p0_blade * (1 + 3 * v**2 / p.tip_speed**2)
    induced = p.pi_induced * (
        (1 + v**4 / (4 * p.mean_rotor_induced_velocity**4)) ** 0.5
        - v**2 / (2 * p.mean_rotor_induced_velocity**2)) ** 0.5
    parasite = (0.5 * p.fuselage_drag_ratio * p.air_density * p.rotor_solidity
                * p.rotor_disc_area * v**3)
    return blade + induced + parasite


def test_hover_power_is_sum_of_components():
    assert hover_power() == pytest.approx(79.86 + 88.63, abs=1e-12)
    assert hover_power() == pytest.approx(168.49, abs=1e-10)


def test_hover_equals_zero_speed_flight():
    assert flight_power(0.0) == pytest.approx(hover_power(), abs=1e-12)


def test_hover_scales_linearly_with_components():
    doubled = PropulsionParams(p0_blade=2 * 79.86, pi_induced=2 * 88.63)
    assert hover_power(doubled) == pytest.approx(2 * hover_power(), rel=1e-12)


def test_flight_power_at_20ms_matches_scalar_oracle():
    assert flight_power(20.0) == pytest.approx(brute_force_power(20.0), rel=1e-12)


@pytest.mark.parametrize("v", np.arange(0.0, 30.0 + 1e-9, 0.1).tolist())
def test_power_finite_on_speed_range(v):
    p = flight_power(v)
    assert np.isfinite(p) and p > 0


def test_power_is_continuous_on_grid():
    vs = np.arange(0.0, 30.0 + 1e-9, 0.1)
    ps = np.array([flight_power(v) for v in vs])
    # no jumps beyond what the local slope explains
    assert np.max(np.abs(np.diff(ps))) < 10.0


def test_negative_speed_rejected():
    with pytest.raises(ValueError):
        flight_power(-0.1)


def test_slot_energy_hover():
    assert slot_energy(0, 1.0, REFERENCE_PROPULSION, 20.0) == pytest.approx(hover_power())


def test_slot_energy_flight():
    assert slot_energy(1, 1.0, REFERENCE_PROPULSION, 20.0) == pytest.approx(flight_power(20.0))


def test_slot_energy_linear_in_tau():
    e1 = slot_energy(1, 1.0, REFERENCE_PROPULSION, 20.0)
    e3 = slot_energy(1, 3.0, REFERENCE_PROPULSION, 20.0)
    assert e3 == pytest.approx(3 * e1, rel=1e-12)
    with pytest.raises(ValueError):
        slot_energy(1, 0.0, REFERENCE_PROPULSION, 20.0)


def test_500s_hover_mission_energy():
    total = sum(slot_energy(0, 1.0, REFERENCE_PROPULSION, 20.0) for _ in range(500))
    assert total == pytest.approx(168.49 * 500, rel=1e-9)
    assert total == pytest.approx(0.84e5, rel=0.01)


def test_mission_energy_brackets_reported_single_uav_scale():
    # 352 s of mixed hover/flight sits inside the published-order bracket
    lo = 0.84e5 * (352 / 500) * 0.9
    hi = flight_power(20.0) * 352 * 1.1
    for frac_fly in (0.0, 0.5, 1.0):
        fly = int(352 * frac_fly)
        e = fly * flight_power(20.0) + (352 - fly) * hover_power()
        assert lo <= e <= hi
    assert lo <= 0.56e5 <= hi


def test_validate_rejects_nonpositive():
    rc = load_config()
    rc = replace(rc, propulsion=PropulsionParams(tip_speed=0.0))
    assert config_problems(rc) == ["[propulsion] tip_speed must be above 0, got 0.0"]
