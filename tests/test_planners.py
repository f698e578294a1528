import itertools
from dataclasses import replace

import numpy as np
import pytest

from uavisac import planners
from uavisac.config import load_config
from uavisac.energy import REFERENCE_PROPULSION
from uavisac.planners import (GaConfig, InfeasiblePlanError, Plan, PsoConfig,
                              _decode_keys, _split_decode, evaluate_plan,
                              ga_plan, greedy_offline, greedy_online,
                              plan_fitness, population_fitness, pso_plan)
from uavisac.scenario import (Scenario, ScenarioConfig, build_scenario,
                              rng_stream)

SMALL = dict(area_width=800.0, area_height=800.0, start=(0.0, 800.0),
             end=(800.0, 0.0), horizon_slots=200)


def corridor(num_mds, num_uavs, seed=0, **extra):
    cfg = ScenarioConfig(num_mds=num_mds, num_uavs=num_uavs, seed=seed,
                         **{**SMALL, **extra})
    return build_scenario(cfg)


def line_scenario(xs, num_uavs=1, **extra):
    """MDs on the straight start-end diagonal at parameter positions xs."""
    base = corridor(len(xs), num_uavs, **extra)
    cfg = base.config
    start = np.asarray(cfg.start)
    end = np.asarray(cfg.end)
    md = np.array([[*(start + t * (end - start)), 0.0] for t in xs])
    return Scenario(config=cfg, md_positions=md,
                    tower_positions=base.tower_positions,
                    chain_edges=base.chain_edges, rx_combiner=base.rx_combiner)


class TestGreedyOffline:
    def test_single_md_single_uav_route(self):
        sc = line_scenario([0.4])
        plan = greedy_offline(sc)
        assert plan.md_order == [[0]]
        res = evaluate_plan(plan, sc, method="greedy_offline")
        assert res.success and res.collected == 1

    def test_online_mds_visited_in_line_order(self):
        sc = line_scenario([0.3, 0.7])
        plan = greedy_offline(sc)
        assert plan.md_order == [[0, 1]]

    def test_partition_covers_all(self):
        sc = corridor(30, 2, seed=3, area_width=2500.0, area_height=2500.0,
                      start=(0.0, 2500.0), end=(2500.0, 0.0),
                      horizon_slots=500)
        plan = greedy_offline(sc)
        assert plan.covers_once(30)

    def test_unreachable_horizon_rejected(self):
        sc = corridor(20, 1, seed=1, horizon_slots=3)
        with pytest.raises(InfeasiblePlanError):
            greedy_offline(sc)


class TestEvaluatePlan:
    def test_empty_plan_heads_for_the_end_without_collecting(self):
        sc = corridor(2, 1, horizon_slots=50)
        plan = Plan(md_order=[[]], waypoints=[[]])
        res = evaluate_plan(plan, sc)
        assert res.collected == 0 and not res.success
        assert res.time_s == 50 * sc.config.slot_seconds
        assert res.energy_j == pytest.approx(plan_fitness(plan, sc)[1], rel=1e-12)

    def test_partition_violation_rejected(self):
        sc = corridor(3, 1)
        bad = Plan(md_order=[[0, 0, 1]],
                   waypoints=[[sc.md_positions[i, :2] for i in (0, 0, 1)]])
        with pytest.raises(InfeasiblePlanError):
            evaluate_plan(bad, sc)

    def test_fitness_rejects_the_same_partition_violation(self):
        sc = corridor(3, 1)
        bad = Plan(md_order=[[0, 0, 1]],
                   waypoints=[[sc.md_positions[i, :2] for i in (0, 0, 1)]])
        with pytest.raises(InfeasiblePlanError):
            plan_fitness(bad, sc)
        good = greedy_offline(sc)
        with pytest.raises(InfeasiblePlanError):
            population_fitness([good, bad], sc)

    def test_seed_repeat_deterministic(self):
        sc = line_scenario([0.2, 0.6], num_uavs=2)
        plan = greedy_offline(sc)
        a = evaluate_plan(plan, sc, seed=5)
        b = evaluate_plan(plan, sc, seed=5)
        assert a.energy_j == b.energy_j and a.time_s == b.time_s

    def test_disconnected_audit_marks_na(self):
        sc = line_scenario([0.2, 0.6], num_uavs=2)
        res = evaluate_plan(greedy_offline(sc), sc, connected=False)
        assert res.violations.inter_uav_sinr is None
        assert res.violations.min_distance == 0


GRID_WORLD = dict(area_width=1000.0, area_height=1000.0, start=(0.0, 1000.0),
                  end=(1000.0, 0.0), num_mds=10, horizon_slots=200)


def parity_plans(sc, seed):
    """A greedy_offline plan (when the horizon admits one), a random-key plan
    as PSO decodes it and a permutation-with-split plan as GA decodes it."""
    n, m = sc.config.num_mds, sc.config.num_uavs
    rng = rng_stream(seed, f"parity-{m}")
    plans = [
        _decode_keys(rng.uniform(-1.0, 1.0, n), rng.uniform(0.0, m, n),
                     rng.uniform(-60.0, 60.0, (n, 2)), sc),
        _split_decode(rng.permutation(n), rng.integers(0, n + 1, m - 1), sc),
    ]
    try:
        plans.insert(0, greedy_offline(sc))
    except InfeasiblePlanError:
        pass
    return plans


class TestPopulationFitness:
    """The batched rollout flies each plan exactly as the env replay does."""

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("world", ["1km", "default"])
    def test_matches_disconnected_replay(self, world, seed, m):
        base = load_config().scenario
        if world == "1km":
            base = replace(base, **GRID_WORLD)
        sc = build_scenario(replace(base, seed=seed, num_uavs=m))
        plans = parity_plans(sc, seed)
        fitness, energy, slots, collected = population_fitness(plans, sc)
        for k, plan in enumerate(plans):
            replay = evaluate_plan(plan, sc, connected=False)
            assert energy[k] == replay.energy_j
            assert slots[k] * sc.config.slot_seconds == replay.time_s
            assert collected[k] == replay.collected
            missing = sc.config.num_mds - replay.collected
            assert fitness[k] == replay.energy_j + 1e5 * missing
            assert plan_fitness(plan, sc) == (fitness[k], energy[k], slots[k],
                                              collected[k])


class TestSearchPropulsion:
    """PSO and GA score plans with the propulsion their replay flies."""

    @pytest.mark.parametrize("search", ["pso", "ga"])
    def test_fitness_energy_equals_replay(self, monkeypatch, search):
        scored = []
        fitness = planners.population_fitness

        def recorded(plans, *args):
            out = fitness(plans, *args)
            scored.append((plans, out[1]))
            return out

        monkeypatch.setattr(planners, "population_fitness", recorded)
        sc = corridor(5, 2, seed=8)
        heavy = replace(REFERENCE_PROPULSION,
                        p0_blade=2.0 * REFERENCE_PROPULSION.p0_blade)
        if search == "pso":
            pso_plan(sc, PsoConfig(swarm=4, iterations=1, seed=1), heavy)
        else:
            ga_plan(sc, GaConfig(population=4, generations=1, seed=1), heavy)
        plans, energy = scored[-1]
        for plan, e in zip(plans, energy):
            assert e == evaluate_plan(plan, sc, propulsion=heavy).energy_j


class TestGreedyOnline:
    def test_single_uav_matches_offline_route(self):
        sc = line_scenario([0.25, 0.5, 0.75])
        off = evaluate_plan(greedy_offline(sc), sc, method="greedy_offline")
        on = greedy_online(sc)
        assert on.collected == off.collected == 3
        assert on.time_s == pytest.approx(off.time_s, abs=2.0)
        assert on.energy_j == pytest.approx(off.energy_j, rel=0.02)

    def test_no_md_served_twice(self):
        sc = corridor(8, 2, seed=2)
        res = greedy_online(sc)
        assert res.violations.md_exclusivity == 0
        assert res.collected == 8

    def test_shared_status_splits_work(self):
        sc = corridor(10, 2, seed=4)
        res = greedy_online(sc)
        assert res.success
        # both UAVs spent meaningful energy, so the work was actually split
        assert min(res.per_uav_energy) > 0.2 * max(res.per_uav_energy)


class TestPso:
    def test_zero_iterations_returns_initial_best(self):
        sc = line_scenario([0.3, 0.7])
        plan = pso_plan(sc, PsoConfig(swarm=8, iterations=0, seed=1))
        assert plan.covers_once(2)

    def test_seed_repeat_identical(self):
        sc = line_scenario([0.2, 0.5, 0.8])
        cfgp = PsoConfig(swarm=10, iterations=20, seed=3)
        a = pso_plan(sc, cfgp)
        b = pso_plan(sc, cfgp)
        assert a.md_order == b.md_order
        for wa, wb in zip(a.waypoints, b.waypoints):
            assert np.allclose(np.asarray(wa, float), np.asarray(wb, float))

    def test_single_md_close_to_greedy(self):
        sc = line_scenario([0.45])
        plan = pso_plan(sc, PsoConfig(swarm=30, iterations=80, seed=0))
        res = evaluate_plan(plan, sc, method="pso")
        ref = evaluate_plan(greedy_offline(sc), sc, method="greedy_offline")
        assert res.success
        assert res.energy_j <= 1.05 * ref.energy_j


class TestGa:
    def test_degenerate_population_returns_decoded_initial(self):
        sc = line_scenario([0.3, 0.7])
        plan = ga_plan(sc, GaConfig(population=1, generations=3, mutation=0.0,
                                    crossover=0.0, seed=5))
        assert plan.covers_once(2)

    def test_fitness_nonincreasing_with_elitism(self):
        sc = corridor(6, 1, seed=6)
        history = []
        base = GaConfig(population=12, mutation=0.2, seed=7)
        for gens in (0, 5, 15, 30):
            plan = ga_plan(sc, GaConfig(population=base.population,
                                        generations=gens,
                                        mutation=base.mutation, seed=base.seed))
            history.append(plan_fitness(plan, sc)[0])
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    def test_seed_repeat_identical(self):
        sc = corridor(5, 2, seed=8)
        a = ga_plan(sc, GaConfig(population=10, generations=10, seed=9))
        b = ga_plan(sc, GaConfig(population=10, generations=10, seed=9))
        assert a.md_order == b.md_order


@pytest.mark.slow
class TestSmallInstanceOptimality:
    def exhaustive_best(self, sc):
        best = np.inf
        for perm in itertools.permutations(range(sc.config.num_mds)):
            plan = Plan(md_order=[list(perm)],
                        waypoints=[[sc.md_positions[i, :2].copy() for i in perm]])
            best = min(best, plan_fitness(plan, sc)[0])
        return best

    def test_ga_matches_exhaustive_on_four_mds(self):
        sc = corridor(4, 1, seed=10)
        target = self.exhaustive_best(sc)
        plan = ga_plan(sc, GaConfig(population=40, generations=60, seed=11))
        assert plan_fitness(plan, sc)[0] <= 1.02 * target

    def test_pso_matches_exhaustive_on_four_mds(self):
        sc = corridor(4, 1, seed=10)
        target = self.exhaustive_best(sc)
        plan = pso_plan(sc, PsoConfig(swarm=40, iterations=150, seed=12))
        assert plan_fitness(plan, sc)[0] <= 1.02 * target
