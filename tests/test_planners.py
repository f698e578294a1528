import itertools
import weakref
from dataclasses import replace

import numpy as np
import pytest

from test_isac_sdr import links_of
from uavisac import mdp_env, planners
from uavisac.config import load_config
from uavisac.energy import REFERENCE_PROPULSION
from uavisac.isac_sdr import _measure_design
from uavisac.mdp_env import (ConstraintReport, CorridorEnv, Flight,
                             JointAction, check_constraints, fleet_transition,
                             mission_status, pairs_above, run_episode,
                             score_links, slot_costs, station_exempt,
                             too_close, uplink_gain2)
from uavisac.planners import (GaConfig, InfeasiblePlanError, MissionResult,
                              Plan, PsoConfig, _decode_keys, _ga_search,
                              _pso_search, _split_decode, controller_actions,
                              evaluate_plan, ga_plan, greedy_offline,
                              greedy_online, online_flight, plan_fitness,
                              plan_searches, population_fitness, pso_plan)
from uavisac.scenario import (Scenario, ScenarioConfig, build_scenario,
                              db_to_linear, rng_stream)

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
                    rx_combiner=base.rx_combiner)


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

    @pytest.mark.parametrize("uavs, md_order, aimed", [
        (2, [[0], [1], [2, 3]], [[0], [1], [2, 3]]),    # a route without a UAV
        (1, [[0, 1]], [[0]]),                           # a stop without an aim
        (2, [[0, 1], [2, 3]], [[0, 1]])],               # a route without aims
        ids=["extra_route", "short_waypoints", "missing_waypoints"])
    def test_malformed_plan_rejected(self, uavs, md_order, aimed):
        mds = sum(map(len, md_order))
        sc = build_scenario(replace(load_config().scenario, seed=0,
                                    num_uavs=uavs,
                                    **{**GRID_WORLD, "num_mds": mds}))
        bad = Plan(md_order=md_order,
                   waypoints=[[sc.md_positions[i, :2] for i in route]
                              for route in aimed])
        assert bad.covers_once(mds)
        with pytest.raises(InfeasiblePlanError, match="routes and one waypoint"):
            evaluate_plan(bad, sc)
        with pytest.raises(InfeasiblePlanError, match="routes and one waypoint"):
            population_fitness([greedy_offline(sc), bad], sc)

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


def oracle_replay(plan, sc, seed):
    """The env-flown replay, frozen: the plan's controller actions stepped
    through a CorridorEnv by run_episode, each MissionResult read off the
    landed env's fleet state. Returns the env's flight and its results
    disconnected and connected."""
    route, waypoint = planners._pack_routes([plan], sc)
    cursor = np.zeros(route.shape[:2], dtype=int)

    def act(env):
        s = env.state
        targets, aims = planners._follow_routes(route, waypoint, cursor,
                                                s.collected, sc.config)
        md, heading, speed = controller_actions(
            s.positions, s.collected, env.gain2(), targets, aims, env.cfg)
        return JointAction(md_choice=md, heading=heading, speed=speed)

    env = CorridorEnv(sc)
    state, success = run_episode(env, act)
    results = []
    for connected in (False, True):
        designs = ((stack for _, stack in score_links(
            env.flown(), sc, seed, separated=False, build=True))
            if connected else [])
        results.append(MissionResult(
            method="plan", energy_j=float(state.energy_per_uav[0].sum()),
            time_s=state.slot[0] * sc.config.slot_seconds,
            collected=int(state.collected[0].sum()), success=bool(success[0]),
            violations=check_constraints(env.flown(), designs, sc,
                                         connected=connected),
            seed=seed))
    return env.flown(), results


class TestBatchedReplay:
    """One recorded fly_plans replays every plan as the env replay did."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_env_replay(self, seed, m):
        sc = build_scenario(replace(load_config().scenario, seed=seed,
                                    num_uavs=m, **GRID_WORLD))
        searches = plan_searches(
            [_pso_search(sc, PsoConfig(swarm=4, iterations=2, seed=seed)),
             _ga_search(sc, GaConfig(population=4, generations=2, seed=seed))],
            sc)
        plans = parity_plans(sc, seed) + searches
        flights = planners.fly_plans(plans, sc, REFERENCE_PROPULSION,
                                     record=True)[3]
        for plan, flight in zip(plans, flights):
            want_flight, want = oracle_replay(plan, sc, seed)
            for name, rows in vars(want_flight).items():
                got = getattr(flight, name)
                assert got.dtype == rows.dtype, name
                assert got.shape == rows.shape, name
                assert got.tobytes() == rows.tobytes(), name
            for mode, result in zip(("none", "isac"), want):
                assert planners.mission_result(flight, sc, seed, "plan",
                                               mode) == result
            assert evaluate_plan(plan, sc, seed=seed, connected=True) == want[1]


def oracle_fly_plans(plans, scenario, propulsion, record):
    """fly_plans as it stood with its own per-slot loop, frozen: the plans'
    fleets stepped through the mission rules without an env, compacted as
    they end. Returns (energy, slots, collected, flights or None)."""
    cfg = scenario.config
    costs = slot_costs(cfg, propulsion)
    route, waypoint = planners._pack_routes(plans, scenario)
    n, m_count = route.shape[:2]
    energy = np.zeros(n)
    slots = np.zeros(n, dtype=int)
    collected_count = np.zeros(n, dtype=int)
    live = np.arange(n)
    positions = np.tile(np.array([*cfg.start, cfg.altitude]), (n, m_count, 1))
    collected = np.zeros((n, cfg.num_mds), dtype=np.uint8)
    cursor = np.zeros((n, m_count), dtype=int)
    spent = np.zeros((n, m_count))
    residual = np.full((n, m_count), cfg.e_total)
    flights = (Flight.empty((n, cfg.horizon_slots), m_count, cfg.num_mds)
               if record else None)
    slot = 0
    follow = True
    while len(live):
        # targets move on only when an MD gets collected
        if follow:
            targets, aims = planners._follow_routes(route, waypoint, cursor,
                                                    collected, cfg)
        gain2 = uplink_gain2(positions, scenario)
        md, heading, speed = controller_actions(positions, collected, gain2,
                                                targets, aims, cfg)
        if record:
            flights.start[live, slot] = positions
            flights.collected[live, slot] = collected
            flights.served[live, slot] = md
        out = fleet_transition(positions, collected, gain2, md, heading, speed,
                               cfg, costs)
        if record:
            for name, value in vars(out).items():
                getattr(flights, name)[live, slot] = value
        slot += 1
        follow = out.newly.any()
        spent += out.energy
        residual -= out.energy
        positions = out.final
        _, done = mission_status(positions, collected, residual, slot, cfg)
        if done.any():
            ended = live[done]
            energy[ended] = spent[done].sum(axis=1)
            slots[ended] = slot
            collected_count[ended] = collected[done].sum(axis=1)
            keep = ~done
            live, route, waypoint, cursor, targets, aims = (
                live[keep], route[keep], waypoint[keep], cursor[keep],
                targets[keep], aims[keep])
            positions, collected, spent, residual = (
                positions[keep], collected[keep], spent[keep], residual[keep])
    if record:
        flights = [flights.take((p, slice(slots[p]))) for p in range(n)]
    return energy, slots, collected_count, flights


def oracle_check_constraints(flight, designs, sc, connected):
    """check_constraints as it stood when a mission's designs were one flat
    list of per-link designs, frozen: per block of slots, the designs that
    share their problem's scalars are regrouped, restacked and measured."""
    cfg = sc.config
    rep = ConstraintReport(inter_uav_sinr=0 if connected else None)
    close = pairs_above(cfg.num_uavs) & too_close(flight.final, cfg)
    close &= ~station_exempt(flight.final, cfg)
    rep.min_distance = int(close.sum())
    served, sinr = flight.served, flight.served_sinr
    ordered = np.sort(served, axis=1)
    rep.md_exclusivity = int(((ordered[:, 1:] == ordered[:, :-1])
                              & (ordered[:, 1:] >= 0)).sum())
    rep.uplink_gating = int(((served >= 0) & (sinr < cfg.gamma_th_md)).sum())
    collected = np.zeros(cfg.num_mds, dtype=bool)
    collected[served[(served >= 0) & (sinr >= cfg.gamma_th_md)]] = True
    size = mdp_env._BLOCK * max(cfg.num_uavs - 1, 1)
    for start in range(0, len(designs), size):
        for _, block in itertools.groupby(
                designs[start:start + size],
                lambda d: replace(d.problem, h_eff=None)):
            block = list(block)
            r_comm, r_sens, h_eff = (np.stack(m) for m in zip(
                *((d.r_comm, d.r_sens, d.problem.h_eff) for d in block)))
            _, report = _measure_design(r_comm, r_sens,
                                        replace(block[0].problem, h_eff=h_eff))
            feasible = np.array([d.feasible for d in block])
            tbp_short = report.tbp_residuals.min(axis=-1) < -1e-6
            rep.power_budget += int((report.power_residual < -1e-6).sum())
            rep.psd += int((report.psd_residual < -1e-8).sum())
            rep.tbp += int((feasible & tbp_short).sum())
            if connected:
                rep.inter_uav_sinr += int(
                    (~feasible | (report.sinr_residual < -1e-6)).sum())
    rep.coverage_missing = int((~collected).sum())
    return rep


# the default-size world under a 22 dB link floor, where chain links fail
AUDIT_WORLDS = {"grid": GRID_WORLD, "links": dict(gamma_th_uav=db_to_linear(22.0))}


def same_arrays(got, want) -> bool:
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


# first generations of small searches: random plans, many of them reverted
FIRST_GENERATIONS = {"pso": lambda sc, m: _pso_search(sc, PsoConfig(swarm=8, seed=m)),
                     "ga": lambda sc, m: _ga_search(sc, GaConfig(population=8, seed=m))}


class TestFrozenFlyPlans:
    """fly_plans, one run_episode over a batched env, flies a search
    generation as its own per-slot loop did, recorded or not."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("world", sorted(AUDIT_WORLDS))
    @pytest.mark.parametrize("search", sorted(FIRST_GENERATIONS))
    def test_matches_the_frozen_loop(self, search, world, m):
        sc = build_scenario(replace(load_config().scenario, seed=0,
                                    num_uavs=m, **AUDIT_WORLDS[world]))
        plans = next(FIRST_GENERATIONS[search](sc, m))
        for record in (True, False):
            got = planners.fly_plans(plans, sc, REFERENCE_PROPULSION, record)
            want = oracle_fly_plans(plans, sc, REFERENCE_PROPULSION, record)
            for got_sums, want_sums in zip(got[:3], want[:3]):
                assert same_arrays(got_sums, want_sums)
            if record:
                assert len(got[3]) == len(want[3]) == len(plans)
                for flight, want_flight in zip(got[3], want[3]):
                    for name, rows in vars(want_flight).items():
                        assert same_arrays(getattr(flight, name), rows), name
                reverted = any(flight.overrides.any() for flight in got[3])
                assert reverted == (m > 1)
            else:
                assert got[3] is None


class TestStackedAudit:
    """check_constraints measures each block's design stack as score_links
    yields it, and reports what the per-link audit reported."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("world", sorted(AUDIT_WORLDS))
    def test_matches_the_per_link_audit(self, world, m):
        sc = build_scenario(replace(load_config().scenario, seed=0,
                                    num_uavs=m, **AUDIT_WORLDS[world]))
        plans = parity_plans(sc, 0)
        flights = planners.fly_plans(plans, sc, REFERENCE_PROPULSION,
                                     record=True)[3]
        failed = 0
        for flight in flights:
            for mode in ("none", "isac", "separated"):
                designs = [] if mode == "none" else [
                    stack for _, stack in score_links(
                        flight, sc, 0, separated=mode == "separated",
                        build=True)]
                got = check_constraints(flight, iter(designs), sc,
                                        connected=mode != "none")
                assert got == oracle_check_constraints(
                    flight, links_of(*designs), sc, connected=mode != "none")
                failed += got.inter_uav_sinr or 0
        assert (failed > 0) == (world == "links" and m > 1)


class TestStreamedAudit:
    """mission_result audits each block's designs as score_links sweeps them
    and lets them go: at most the block being audited and the one being
    swept are alive at once."""

    @pytest.mark.parametrize("mode", ["isac", "separated"])
    def test_holds_at_most_two_design_stacks(self, monkeypatch, mode):
        sc = build_scenario(replace(load_config().scenario, seed=0, num_uavs=3))
        flight = planners.online_flight(sc, REFERENCE_PROPULSION)
        want = planners.mission_result(flight, sc, 0, "greedy_online", mode)
        stacks, alive = [], []
        sweep = mdp_env.link_feasibility_sweep

        def swept(*args, **kwargs):
            verdicts, designs = sweep(*args, **kwargs)
            stacks.append(weakref.ref(designs))
            alive.append(sum(ref() is not None for ref in stacks))
            return verdicts, designs

        monkeypatch.setattr(mdp_env, "link_feasibility_sweep", swept)
        got = planners.mission_result(flight, sc, 0, "greedy_online", mode)
        assert got == want
        assert len(alive) == -(-len(flight.final) // mdp_env._BLOCK) >= 3
        assert max(alive) == 2
        assert all(ref() is None for ref in stacks)


def same_plan(a: Plan, b: Plan) -> bool:
    return a.md_order == b.md_order and len(a.waypoints) == len(b.waypoints) \
        and all(np.array_equal(np.asarray(wa, float).reshape(-1, 2),
                               np.asarray(wb, float).reshape(-1, 2))
                for wa, wb in zip(a.waypoints, b.waypoints))


class TestPlanSearches:
    """Searches flown together through one rollout per round end as alone."""

    @pytest.mark.parametrize("m", [2, 3])
    def test_mixed_batch_equals_separate_calls(self, m):
        sc = build_scenario(replace(load_config().scenario, seed=1, num_uavs=m,
                                    **GRID_WORLD))
        parts = [parity_plans(sc, seed) for seed in range(3)]
        parts.append([greedy_offline(sc)])
        joint = population_fitness([p for part in parts for p in part], sc)
        start = 0
        for part in parts:
            alone = population_fitness(part, sc)
            for whole, own in zip(joint, alone):
                assert np.array_equal(whole[start:start + len(part)], own)
            start += len(part)

    def test_joint_searches_return_the_plans_found_alone(self, monkeypatch):
        sc = corridor(6, 2, seed=3)
        psos = [PsoConfig(swarm=5, iterations=3, seed=0),
                PsoConfig(swarm=4, iterations=6, seed=1)]
        gas = [GaConfig(population=6, generations=4, seed=0),
               GaConfig(population=5, generations=2, seed=1),
               GaConfig(population=1, generations=3, seed=1)]
        alone = ([pso_plan(sc, h) for h in psos] + [ga_plan(sc, h) for h in gas])
        sizes = []
        fitness = planners.population_fitness

        def recorded(plans, *args):
            sizes.append(len(plans))
            return fitness(plans, *args)

        monkeypatch.setattr(planners, "population_fitness", recorded)
        joint = plan_searches([_pso_search(sc, h) for h in psos]
                              + [_ga_search(sc, h) for h in gas], sc)
        assert all(same_plan(a, b) for a, b in zip(joint, alone))
        assert len(joint) == len(alone)
        # every search's first generation, then each leaves once it is done;
        # the lone GA individual is the carried-over champion, never rescored
        assert sizes == [5 + 4 + 6 + 5 + 1, 5 + 4 + 5 + 4, 5 + 4 + 5 + 4,
                         5 + 4 + 5, 4 + 5, 4, 4]


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
        assert greedy_online(sc).success
        # both UAVs spent meaningful energy, so the work was actually split
        per_uav = online_flight(sc, REFERENCE_PROPULSION).energy.sum(axis=0)
        assert per_uav.min() > 0.2 * per_uav.max()


def test_controllers_build_no_observations(monkeypatch):
    # the controller missions read the fleet state, never the actor's view
    built = []
    observations = CorridorEnv.observations

    def counted(env):
        built.append(env.state.slot)
        return observations(env)

    monkeypatch.setattr(CorridorEnv, "observations", counted)
    sc = corridor(6, 2, seed=1)
    for res in (evaluate_plan(greedy_offline(sc), sc, connected=True),
                greedy_online(sc)):
        assert res.time_s > 0.0
    assert built == []


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
            assert np.array_equal(np.asarray(wa, float), np.asarray(wb, float))

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
