"""Each of the benchmark's oracles must pass a real output and reject a
deliberately corrupted one.

    python3 -m pytest perfbench -q
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles  # noqa: E402
from uavisac.channel import effective_channel, sample_rician_channel  # noqa: E402
from uavisac.energy import PropulsionParams, flight_power, hover_power  # noqa: E402
from uavisac.isac_sdr import solve_feasibility  # noqa: E402
from uavisac.scenario import ScenarioConfig, build_scenario, rng_stream  # noqa: E402

CFG = ScenarioConfig()
CONSTS = {k: float(v) for k, v in vars(PropulsionParams()).items()}


def link(distance):
    sc = build_scenario(CFG)
    h = sample_rician_channel((0.0, 0.0, CFG.altitude), (distance, 0.0, CFG.altitude),
                              CFG.rician_k, CFG.beta_ref, CFG.n_antennas,
                              rng_stream(7, "oracle-test"))
    return effective_channel(h, sc.rx_combiner)


def check(design, h_eff):
    return oracles.design_problems(design.r_comm, design.r_sens, design.w_c, h_eff,
                                   CFG.noise_uav, CFG.gamma_th_uav, CFG.tbp_threshold,
                                   CFG.sensing_angles, CFG.p_max)


@pytest.fixture(scope="module")
def feasible():
    h_eff = link(600.0)
    design = solve_feasibility(h_eff, CFG.noise_uav, CFG.gamma_th_uav,
                               CFG.tbp_threshold, CFG.sensing_angles, CFG.p_max)
    assert design.feasible
    return design, h_eff


def test_feasible_design_passes(feasible):
    assert check(*feasible) == []


def test_one_beampattern_value_below_floor_is_rejected(feasible):
    design, h_eff = feasible
    phi = CFG.sensing_angles[0]
    a = oracles.ula_steering(phi, CFG.n_antennas)
    gain = float(np.real(a.conj() @ (design.r_comm + design.r_sens) @ a))
    # remove just enough power along a(phi) to sit 1 % under the floor there
    cut = (gain - 0.99 * CFG.tbp_threshold) / CFG.n_antennas ** 2
    corrupted = replace(design, r_sens=design.r_sens - cut * np.outer(a, a.conj()))
    beam = [p for p in check(corrupted, h_eff) if p.startswith("beampattern")]
    assert len(beam) == 1 and "-10.0 deg" in beam[0]


def test_comm_covariance_not_from_beam_is_rejected(feasible):
    design, h_eff = feasible
    corrupted = replace(design, w_c=design.w_c * 1.01)
    assert "r_comm is not w_c w_c^H" in check(corrupted, h_eff)


def test_power_above_budget_is_rejected(feasible):
    design, h_eff = feasible
    corrupted = replace(design, r_sens=design.r_sens
                        + 0.01 * CFG.p_max * np.eye(CFG.n_antennas))
    assert any(p.startswith("trace") for p in check(corrupted, h_eff))


def test_sinr_cap_flags_hopeless_links():
    assert oracles.sinr_cap_infeasible(link(5000.0), CFG.noise_uav,
                                       CFG.gamma_th_uav, CFG.p_max)
    assert not oracles.sinr_cap_infeasible(link(600.0), CFG.noise_uav,
                                           CFG.gamma_th_uav, CFG.p_max)


@pytest.mark.parametrize("flags,ok", [
    ([False, False, True, True], True),
    ([True, True, True, True], True),
    ([False, False, False, False], True),
    ([False, True, False, True], False),
    ([True, False, False, False], False),
])
def test_ladder_must_be_monotone_in_gain(flags, ok):
    gains = [1.0, 2.0, 3.0, 4.0]
    assert (oracles.ladder_problems(gains, flags) == []) is ok
    # the order the rungs are listed in does not matter
    assert (oracles.ladder_problems(gains[::-1], flags[::-1]) == []) is ok


def test_own_propulsion_formula_matches_the_model():
    for v in (0.0, 5.0, 20.0, 35.0):
        assert oracles.rotary_wing_power(v, CONSTS) == pytest.approx(flight_power(v))
    assert oracles.rotary_wing_power(0.0, CONSTS) == pytest.approx(hover_power())


def row(method="greedy_online", m=3, time_s=100.0, energy=None, **extra):
    base = {"method": method, "value": str(m), "seed": "0", "time_s": f"{time_s:.3f}",
            "collected": "10", "success": "1", "v_md_exclusivity": "0",
            "v_power": "0", "v_psd": "0", "v_tbp": "0", "v_min_distance": "0",
            "v_inter_uav": "na" if method in oracles.OFFLINE_METHODS else "0"}
    lo, hi = oracles.energy_bounds(m, time_s, CFG.v_fixed, CONSTS)
    base["energy_j"] = f"{0.5 * (lo + hi) if energy is None else energy:.6f}"
    base.update(extra)
    return base


def test_energy_inside_propulsion_bounds_passes():
    assert oracles.row_problems(row(), 10, CFG.v_fixed, CONSTS, 2.0) == []


@pytest.mark.parametrize("scale,side", [(0.999, 0), (1.001, 1)])
def test_energy_outside_propulsion_bounds_is_rejected(scale, side):
    bound = oracles.energy_bounds(3, 100.0, CFG.v_fixed, CONSTS)[side]
    probs = oracles.row_problems(row(energy=scale * bound), 10, CFG.v_fixed, CONSTS, 2.0)
    assert any("outside propulsion bounds" in p for p in probs)


def test_split_array_energy_must_exceed_by_the_circuit_draw():
    sdr = row("drl_sdr", energy=50000.0)
    good = row("drl_sc", energy=50000.0 + 2.0 * 3 * 100.0)
    bad = row("drl_sc", energy=50000.0 + 2.0 * 3 * 100.0 + 1.0)
    assert oracles.split_array_problems([sdr, good], 2.0) == {}
    assert list(oracles.split_array_problems([sdr, bad], 2.0)) == ["3"]


def test_row_counters_and_link_column_are_checked():
    assert oracles.row_problems(row(success="1", collected="9"), 10, CFG.v_fixed,
                                CONSTS, 2.0)
    assert oracles.row_problems(row(v_tbp="1"), 10, CFG.v_fixed, CONSTS, 2.0)
    assert oracles.row_problems(row("pso", v_inter_uav="0"), 10, CFG.v_fixed,
                                CONSTS, 2.0)


def test_curve_checks():
    assert oracles.curve_problems([(1.0, 1.0, 0.0), (2.0, 1.5, 0.3)], 2) == []
    assert oracles.curve_problems([(1.0, float("nan"), 0.0)], 2)
    assert oracles.curve_problems([(1.0, 1.0, 0.0)], 1)
