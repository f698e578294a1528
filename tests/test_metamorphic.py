"""Metamorphic tests: relations between two runs of the program that must
hold whatever each run's output is.

- Relabelling the MDs of a world (and of its plans) names the same
  missions, so the planners' fitness arrays and the audited mission rows
  keep their bits.
- A cell's row depends on its method, axis value and seed, not on the
  other seeds run beside it, so reordering a task's seeds keeps every row.
- A chain link's channel g enters the transmit design only through g g^H,
  so a random phase per link keeps every verdict, status and Newton step
  count, and the margins up to rounding.
- Scaling the power budget, the UAV receiver noise and the beampattern
  floor by 4 writes the same design problem in another unit of power, so
  it keeps every verdict and status. It should keep the Newton step counts
  too, but does not yet (the xfail below says why).
"""

from dataclasses import replace

import numpy as np
import pytest

from uavisac.config import load_config
from uavisac.energy import REFERENCE_PROPULSION
from uavisac.harness import ExperimentSpec, run_cells
from uavisac.isac_sdr import _chain_gains, _isac_links
from uavisac.mdp_env import LINK_OPTIONS
from uavisac.planners import (GaConfig, Plan, PsoConfig, _ga_search,
                              _pso_search, fly_plans, greedy_offline,
                              mission_result, population_fitness)
from uavisac.scenario import (ScenarioConfig, build_scenario, db_to_linear,
                              rng_stream)


def test_md_relabelling_keeps_fitness_bits():
    # greedy_offline's plan and the first PSO and GA generations of seeds 0, 1
    sc = build_scenario(ScenarioConfig())
    perm = rng_stream(7, "relabel").permutation(sc.config.num_mds)
    label = np.argsort(perm)        # MD i of sc is MD label[i] of relabelled
    relabelled = replace(sc, md_positions=sc.md_positions[perm])
    plans = [greedy_offline(sc)]
    for seed in (0, 1):
        plans += next(_pso_search(sc, PsoConfig(seed=seed)))
        plans += next(_ga_search(sc, GaConfig(seed=seed)))
    moved = [Plan([[int(label[i]) for i in route] for route in plan.md_order],
                  plan.waypoints) for plan in plans]
    want = population_fitness(plans, sc)
    got = population_fitness(moved, relabelled)
    for name, a, b in zip(("fitness", "energy", "slots", "collected"), want, got):
        assert np.array_equal(a, b), name


def test_md_relabelling_keeps_mission_rows():
    # greedy_offline's plan and the first PSO and GA plans of seed 0 on the
    # 22 dB world, where chain links fail, audited in every link mode
    sc = build_scenario(ScenarioConfig(gamma_th_uav=db_to_linear(22.0)))
    plans = [greedy_offline(sc), next(_pso_search(sc, PsoConfig(seed=0)))[0],
             next(_ga_search(sc, GaConfig(seed=0)))[0]]
    perm = rng_stream(7, "relabel").permutation(sc.config.num_mds)
    label = np.argsort(perm)        # MD i of sc is MD label[i] of relabelled
    relabelled = replace(sc, md_positions=sc.md_positions[perm])
    moved = [Plan([[int(label[i]) for i in route] for route in plan.md_order],
                  plan.waypoints) for plan in plans]
    want = fly_plans(plans, sc, REFERENCE_PROPULSION, record=True)[3]
    got = fly_plans(moved, relabelled, REFERENCE_PROPULSION, record=True)[3]
    failed_links = 0
    for mode in ("isac", "separated", "none"):
        for a, b in zip(want, got):
            row = mission_result(a, sc, 0, "m", mode)
            assert mission_result(b, relabelled, 0, "m", mode) == row, mode
            failed_links += row.violations.inter_uav_sinr or 0
    assert failed_links > 1000


def test_seed_order_keeps_cell_rows():
    # the mission_grid benchmark world with its cut search budgets
    rc = load_config()
    rc = replace(rc, scenario=replace(
        rc.scenario, area_width=1000.0, area_height=1000.0, start=(0.0, 1000.0),
        end=(1000.0, 0.0), num_mds=10, horizon_slots=200),
        pso=replace(rc.pso, swarm=6, iterations=4),
        ga=replace(rc.ga, population=6, generations=4))
    methods = ("greedy_online", "greedy_offline", "pso", "ga")
    spec = ExperimentSpec(run_config=rc, methods=methods, values=(2,),
                          seeds=(0, 1))
    rows = [{(r.method, r.seed): r for r in run_cells(methods, spec, 2, seeds)}
            for seeds in ((0, 1), (1, 0))]
    assert rows[0] == rows[1]
    assert rows[0]["pso", 0] != rows[0]["pso", 1]     # the seeds matter


@pytest.fixture(scope="module")
def link_world():
    """The chain links of one first-generation PSO plan's flight on the
    default world with a 22 dB inter-UAV SINR floor (tools/same_outputs.py's
    LINK_WORLD): the UAVs fly apart, so links fail and reach the Newton
    solve. Returns the world, g, ||g||^2 and their verdicts and designs."""
    sc = build_scenario(ScenarioConfig(gamma_th_uav=db_to_linear(22.0)))
    plan = next(_pso_search(sc, PsoConfig(seed=0)))[0]
    flight, = fly_plans([plan], sc, REFERENCE_PROPULSION, record=True)[3]
    g, lead = _chain_gains(flight.final, sc, rng_stream(0, "env-channel"))
    g, lead = g.reshape(-1, g.shape[-1]), lead.ravel()
    feasible, designs = _isac_links(g, lead, sc, LINK_OPTIONS, build=True)
    assert designs.iterations.max() > 0
    assert set(designs.solver_status) == {"feasible", "infeasible"}
    return sc, g, lead, feasible, designs


def test_link_phase_keeps_verdicts_and_steps(link_world):
    sc, g, _, feasible, designs = link_world
    turned = g * np.exp(1j * rng_stream(8, "phase").uniform(
        0.0, 2 * np.pi, len(g)))[:, None]
    got_feasible, got = _isac_links(turned, np.vecdot(turned, turned).real,
                                    sc, LINK_OPTIONS, build=True)
    assert np.array_equal(got_feasible, feasible)
    assert np.array_equal(got.solver_status, designs.solver_status)
    assert np.array_equal(got.iterations, designs.iterations)
    np.testing.assert_allclose(got.margin, designs.margin, rtol=0, atol=1e-12)


def scaled_power(sc, factor):
    cfg = sc.config
    return replace(sc, config=replace(
        cfg, p_max=factor * cfg.p_max, noise_uav=factor * cfg.noise_uav,
        tbp_threshold=factor * cfg.tbp_threshold))


def test_power_unit_keeps_verdicts(link_world):
    sc, g, lead, feasible, designs = link_world
    got_feasible, got = _isac_links(g, lead, scaled_power(sc, 4.0),
                                    LINK_OPTIONS, build=True)
    assert np.array_equal(got_feasible, feasible)
    assert np.array_equal(got.solver_status, designs.solver_status)


@pytest.mark.xfail(strict=True, reason=(
    "the margin program mixes units: a beampattern slack is absolute "
    "(a^H X a - tbp_threshold, in watts) and the SINR slack relative, so "
    "its optimum and Newton path depend on the unit of power"))
def test_power_unit_keeps_newton_steps(link_world):
    sc, g, lead, _, designs = link_world
    _, got = _isac_links(g, lead, scaled_power(sc, 4.0), LINK_OPTIONS,
                         build=True)
    assert np.array_equal(got.iterations, designs.iterations)
