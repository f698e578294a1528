"""Classical mission planners: greedy (offline/online), particle swarm, genetic.

Offline planners decide routes on expected channels only; their plans are then
replayed through the real environment by evaluate_plan. Every planner flies
the same serve-or-fly controller under the env's own mission rules
(``mdp_env``): evaluate_plan and greedy_online fly a CorridorEnv through
fly_mission, the one runner of every method's audited mission. The
metaheuristics are ask/tell searches run by plan_searches, which scores a
generation of every live search with one population_fitness call; that steps
one fleet per plan through those rules and so matches the disconnected replay
exactly.
"""

from dataclasses import dataclass

import numpy as np

from .channel import uplink_sinr
from .energy import PropulsionParams, REFERENCE_PROPULSION
from .mdp_env import (CorridorEnv, ConstraintReport, JointAction, RewardConfig,
                      check_constraints, claim_targets, fleet_transition,
                      mission_status, run_episode, schedulable, score_links,
                      slot_costs, uplink_gain2)
from .scenario import Scenario, rng_stream


@dataclass
class Plan:
    """Per-UAV service order and aim points; UAVs head to the end afterwards."""

    md_order: list            # list of per-UAV MD index lists
    waypoints: list           # list of per-UAV (x, y) arrays aligned with md_order

    def covers_once(self, num_mds: int) -> bool:
        seen = [i for route in self.md_order for i in route]
        return sorted(seen) == list(range(num_mds))


@dataclass
class MissionResult:
    method: str
    energy_j: float
    time_s: float
    collected: int
    success: bool
    violations: ConstraintReport
    per_uav_energy: list
    seed: int = 0


class InfeasiblePlanError(RuntimeError):
    pass


# -- controller rules ------------------------------------------------------------
# Batched like the env rules: arrays lead with (B fleets, M UAVs).


def serve_backoff(gain2, md, cfg) -> np.ndarray:
    """Drop serve claims that fail under the slot's cross interference, junior
    first, until every remaining claim clears the gate. This keeps two
    hovering UAVs from jamming each other indefinitely."""
    md = md.copy()
    fleets = np.flatnonzero((md >= 0).any(axis=1))
    while len(fleets):
        failing = (md[fleets] >= 0) & (
            uplink_sinr(gain2[fleets], md[fleets], cfg.p_md, cfg.noise_md)
            < cfg.gamma_th_md)
        hit = failing.any(axis=1)
        if not hit.any():
            break
        fleets, failing = fleets[hit], failing[hit]
        md[fleets, md.shape[1] - 1 - np.argmax(failing[:, ::-1], axis=1)] = -1
    return md


def steer(positions, targets, aims, md, cfg):
    """(heading, speed): idle UAVs fly toward their aim point, serving ones
    hover; a UAV without a target stops within arrival_radius of its aim."""
    dx = aims[..., 0] - positions[..., 0]
    dy = aims[..., 1] - positions[..., 1]
    dist = np.sqrt(dx * dx + dy * dy)
    go = (md < 0) & (dist > 1e-9)
    heading = np.where(go, np.arctan2(dy, dx), 0.0)
    stop = np.where(targets < 0, cfg.arrival_radius, 0.0)
    return heading, (go & (dist > stop)).astype(np.uint8)


def controller_actions(positions, collected, gain2, targets, aims, cfg):
    """Serve-or-fly decisions under the environment's own masks.

    ``targets`` (B, M) is the MD each UAV wants next (or -1) and ``aims``
    (B, M, 2) the point it flies toward. Returns (md, heading, speed).
    """
    md = claim_targets(targets, schedulable(gain2, collected, cfg))
    md = serve_backoff(gain2, md, cfg)
    heading, speed = steer(positions, targets, aims, md, cfg)
    return md, heading, speed


def _pack_routes(plans, scenario: Scenario):
    """Plans as arrays: MD order (P, M, L+1) padded with -1 and aim points
    (P, M, L+1, 2)."""
    cfg = scenario.config
    m_count = cfg.num_uavs
    for plan in plans:
        if any(len(r) for r in plan.md_order) and not plan.covers_once(cfg.num_mds):
            raise InfeasiblePlanError("plan does not assign every MD exactly once")
    longest = max((len(r) for plan in plans for r in plan.md_order[:m_count]),
                  default=0)
    route = np.full((len(plans), m_count, longest + 1), -1)
    waypoint = np.zeros((len(plans), m_count, longest + 1, 2))
    for p, plan in enumerate(plans):
        for m, (order, points) in enumerate(zip(plan.md_order[:m_count],
                                                plan.waypoints)):
            if len(order):
                route[p, m, :len(order)] = order
                waypoint[p, m, :len(order)] = points
    return route, waypoint


def _follow_routes(route, waypoint, cursor, collected, cfg):
    """Each UAV's target (B, M) and aim point (B, M, 2) along its route.

    Cursors (updated in place) skip MDs that are already collected; past its
    route's end a UAV aims at the end station.
    """
    fleets = np.arange(len(route))[:, None]
    uavs = np.arange(route.shape[1])
    while True:
        target = route[fleets, uavs, cursor]
        skip = (target >= 0) & (collected[fleets, np.maximum(target, 0)] != 0)
        if not skip.any():
            break
        cursor += skip
    aims = np.where((target >= 0)[..., None], waypoint[fleets, uavs, cursor],
                    np.asarray(cfg.end, float))
    return target, aims


def population_fitness(plans, scenario: Scenario,
                       propulsion: PropulsionParams = REFERENCE_PROPULSION):
    """Fly P plans at once through the controller and the env's rules.

    Each plan is flown exactly as ``evaluate_plan(..., connected=False)``
    flies it, so energy, slots and collected count equal the replay's.
    Returns arrays (fitness, energy, slots, collected) with fitness equal to
    energy plus 1e5 per missing MD.
    """
    cfg = scenario.config
    costs = slot_costs(cfg, propulsion)
    route, waypoint = _pack_routes(plans, scenario)
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
    slot = 0
    follow = True
    while len(live):
        slot += 1
        # targets move on only when an MD gets collected
        if follow:
            targets, aims = _follow_routes(route, waypoint, cursor, collected,
                                           cfg)
        gain2 = uplink_gain2(positions, scenario)
        md, heading, speed = controller_actions(positions, collected, gain2,
                                                targets, aims, cfg)
        out = fleet_transition(positions, collected, gain2, md, heading, speed,
                               cfg, costs)
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
    fitness = energy + 1e5 * (cfg.num_mds - collected_count)
    return fitness, energy, slots, collected_count


def plan_fitness(plan: Plan, scenario: Scenario,
                 propulsion: PropulsionParams = REFERENCE_PROPULSION):
    """(fitness, energy, slots, collected) of one plan: its population_fitness row."""
    fitness, energy, slots, collected = population_fitness([plan], scenario,
                                                           propulsion)
    return float(fitness[0]), float(energy[0]), int(slots[0]), int(collected[0])


# -- greedy planners ------------------------------------------------------------


def greedy_offline(scenario: Scenario) -> Plan:
    """Cheapest-insertion partition, then nearest-neighbour service order."""
    cfg = scenario.config
    md = scenario.md_positions[:, :2]
    start = np.asarray(cfg.start, float)
    end = np.asarray(cfg.end, float)
    routes = [[start, end] for _ in range(cfg.num_uavs)]
    owner: list = [[] for _ in range(cfg.num_uavs)]

    remaining = set(range(cfg.num_mds))
    while remaining:
        best = None
        for i in remaining:
            for m in range(cfg.num_uavs):
                r = routes[m]
                for k in range(len(r) - 1):
                    extra = (np.linalg.norm(r[k] - md[i])
                             + np.linalg.norm(md[i] - r[k + 1])
                             - np.linalg.norm(r[k] - r[k + 1]))
                    if best is None or extra < best[0]:
                        best = (extra, i, m, k)
        _, i, m, k = best
        routes[m].insert(k + 1, md[i])
        owner[m].append(i)
        remaining.discard(i)

    md_order = []
    waypoints = []
    total_length = 0.0
    for m in range(cfg.num_uavs):
        order = []
        pos = start
        left = list(owner[m])
        while left:
            nxt = min(left, key=lambda i: np.linalg.norm(pos - md[i]))
            order.append(nxt)
            total_length += float(np.linalg.norm(pos - md[nxt]))
            pos = md[nxt]
            left.remove(nxt)
        total_length += float(np.linalg.norm(pos - end))
        md_order.append(order)
        waypoints.append([md[i].copy() for i in order])

    per_uav_budget = cfg.horizon_slots * cfg.slot_seconds * cfg.v_fixed
    if total_length > cfg.num_uavs * per_uav_budget:
        raise InfeasiblePlanError(
            f"route length {total_length:.0f} m exceeds the mission horizon")
    return Plan(md_order=md_order, waypoints=waypoints)


def _controller_step(env: CorridorEnv, targets, aim_points):
    """The controller's action for the env's fleet."""
    s = env.state
    md, heading, speed = controller_actions(
        s.positions[None], s.collected[None],
        env.gain2()[None],
        np.asarray(targets)[None], np.asarray(aim_points, float)[None], env.cfg)
    return JointAction(md_choice=md[0], heading=heading[0], speed=speed[0])


def fly_mission(scenario: Scenario, act, seed: int, method: str, link_mode: str,
                propulsion: PropulsionParams, reward: RewardConfig) -> MissionResult:
    """One env episode of ``act(env)``, audited and reported; every method's
    mission is flown here. After landing, the chain links are scored and
    designed in ``link_mode`` ("isac", "separated" or "none"); no reward is
    scored."""
    env = CorridorEnv(scenario, reward=reward, propulsion=propulsion)
    state, success = run_episode(env, seed, act)
    designs = ([] if link_mode == "none" else score_links(
        env, seed, separated=link_mode == "separated", build=True)[1])
    return MissionResult(
        method=method, energy_j=state.cumulative_energy,
        time_s=state.slot * scenario.config.slot_seconds,
        collected=int(state.collected.sum()), success=bool(success),
        violations=check_constraints(env.flown(), designs, scenario,
                                     connected=link_mode != "none"),
        per_uav_energy=state.energy_per_uav.tolist(), seed=seed)


def evaluate_plan(plan: Plan, scenario: Scenario, seed: int = 0,
                  method: str = "plan", connected: bool = False,
                  propulsion: PropulsionParams = REFERENCE_PROPULSION,
                  reward: RewardConfig = RewardConfig()) -> MissionResult:
    """Replay a plan through the environment and audit the episode; a
    ``connected`` replay scores its chain links in the "isac" link mode."""
    route, waypoint = _pack_routes([plan], scenario)
    cursor = np.zeros(route.shape[:2], dtype=int)

    def act(env):
        targets, aims = _follow_routes(route, waypoint, cursor,
                                       env.state.collected[None], scenario.config)
        return _controller_step(env, targets[0], aims[0])

    return fly_mission(scenario, act, seed, method,
                       "isac" if connected else "none", propulsion, reward)


def greedy_online(scenario: Scenario, seed: int = 0,
                  propulsion: PropulsionParams = REFERENCE_PROPULSION,
                  reward: RewardConfig = RewardConfig()) -> MissionResult:
    """Nearest-unvisited pursuit on the live shared collection status.

    Connected baseline: after the mission lands, every slot's chain links get
    their transmit design and are audited, but no link outcome moves a UAV.
    """
    cfg = scenario.config
    md = scenario.md_positions[:, :2]

    def act(env):
        state = env.state
        targets = []
        aims = []
        for m in range(cfg.num_uavs):
            pos = state.positions[m][:2]
            candidates = [i for i in range(cfg.num_mds)
                          if not state.collected[i] and i not in targets]
            if candidates:
                tgt = min(candidates, key=lambda i: np.linalg.norm(pos - md[i]))
                targets.append(tgt)
                aims.append(md[tgt])
            else:
                targets.append(-1)
                aims.append(np.asarray(cfg.end, float))
        return _controller_step(env, targets, aims)

    return fly_mission(scenario, act, seed, "greedy_online", "isac",
                       propulsion, reward)


# -- metaheuristics -------------------------------------------------------------


@dataclass(frozen=True)
class PsoConfig:
    swarm: int = 60
    iterations: int = 300
    inertia: float = 0.7
    cognitive: float = 1.5
    social: float = 1.5
    waypoint_span: float = 60.0
    seed: int = 0


@dataclass(frozen=True)
class GaConfig:
    population: int = 80
    generations: int = 400
    crossover: float = 0.9
    mutation: float = 0.1
    seed: int = 0


def _decode_keys(order_keys, assign_keys, offsets, scenario: Scenario) -> Plan:
    cfg = scenario.config
    m_count = cfg.num_uavs
    uav_of = np.minimum(np.floor(np.clip(assign_keys, 0.0, m_count)),
                        m_count - 1).astype(int)
    md_order = []
    waypoints = []
    for m in range(m_count):
        mine = np.flatnonzero(uav_of == m)
        mine = mine[np.argsort(order_keys[mine], kind="stable")]
        md_order.append([int(i) for i in mine])
        pts = []
        for i in mine:
            xy = scenario.md_positions[i, :2] + offsets[i]
            pts.append(np.clip(xy, [0.0, 0.0],
                               [cfg.area_width, cfg.area_height]))
        waypoints.append(pts)
    return Plan(md_order=md_order, waypoints=waypoints)


def _pso_search(scenario: Scenario, hyper: PsoConfig):
    """Random-key particle swarm over assignment, order and aim offsets: an
    ask/tell search for plan_searches."""
    cfg = scenario.config
    n = cfg.num_mds
    dim = 2 * n + 2 * n  # order keys, assignment keys, 2-d offsets
    rng = rng_stream(hyper.seed, "pso")
    lo = np.concatenate([np.full(n, -1.0), np.zeros(n),
                         np.full(2 * n, -hyper.waypoint_span)])
    hi = np.concatenate([np.full(n, 1.0), np.full(n, float(cfg.num_uavs)),
                         np.full(2 * n, hyper.waypoint_span)])
    pos = rng.uniform(lo, hi, size=(hyper.swarm, dim))
    vel = np.zeros_like(pos)

    def decode(x) -> Plan:
        return _decode_keys(x[:n], x[n:2 * n], x[2 * n:].reshape(n, 2), scenario)

    fitness = yield [decode(x) for x in pos]
    pbest = pos.copy()
    pbest_fit = fitness.copy()
    g = int(np.argmin(fitness))
    gbest = pos[g].copy()
    gbest_fit = float(fitness[g])

    for _ in range(hyper.iterations):
        r1 = rng.random((hyper.swarm, dim))
        r2 = rng.random((hyper.swarm, dim))
        vel = (hyper.inertia * vel
               + hyper.cognitive * r1 * (pbest - pos)
               + hyper.social * r2 * (gbest[None, :] - pos))
        pos = np.clip(pos + vel, lo, hi)
        fitness = yield [decode(x) for x in pos]
        improved = fitness < pbest_fit
        pbest[improved] = pos[improved]
        pbest_fit[improved] = fitness[improved]
        g = int(np.argmin(pbest_fit))
        if pbest_fit[g] < gbest_fit:
            gbest = pbest[g].copy()
            gbest_fit = float(pbest_fit[g])
    return decode(gbest)


def _order_crossover(rng, pa, pb):
    """pa's genes a..b kept in place, the other positions filled in pb's order."""
    n = len(pa)
    a, b = sorted(rng.integers(0, n, size=2))
    taken = set(pa[a:b + 1])
    fill = (x for x in pb if x not in taken)
    return np.array([pa[i] if a <= i <= b else next(fill) for i in range(n)])


def _split_decode(perm, splits, scenario: Scenario) -> Plan:
    bounds = [0] + sorted(int(s) for s in splits) + [len(perm)]
    md_order = []
    waypoints = []
    for m in range(scenario.config.num_uavs):
        seg = [int(i) for i in perm[bounds[m]:bounds[m + 1]]]
        md_order.append(seg)
        waypoints.append([scenario.md_positions[i, :2].copy() for i in seg])
    return Plan(md_order=md_order, waypoints=waypoints)


def _ga_search(scenario: Scenario, hyper: GaConfig):
    """Permutation-with-split genetic search, order crossover and swap
    mutation: an ask/tell search for plan_searches."""
    cfg = scenario.config
    n = cfg.num_mds
    m_count = cfg.num_uavs
    rng = rng_stream(hyper.seed, "ga")

    def decode(individuals) -> list:
        return [_split_decode(*ind, scenario) for ind in individuals]

    pop = [(rng.permutation(n), rng.integers(0, n + 1, size=m_count - 1))
           for _ in range(hyper.population)]
    fit = yield decode(pop)

    for _ in range(hyper.generations):
        order = np.argsort(fit, kind="stable")
        elite = pop[order[0]]
        elite_fit = float(fit[order[0]])
        next_pop = [(elite[0].copy(), elite[1].copy())]
        while len(next_pop) < hyper.population:
            # binary tournament selection
            picks = rng.integers(0, hyper.population, size=4)
            pa = pop[picks[0]] if fit[picks[0]] <= fit[picks[1]] else pop[picks[1]]
            pb = pop[picks[2]] if fit[picks[2]] <= fit[picks[3]] else pop[picks[3]]
            if n >= 2 and rng.random() < hyper.crossover:
                perm = _order_crossover(rng, pa[0], pb[0])
            else:
                perm = pa[0].copy()
            splits = (pa[1] if rng.random() < 0.5 else pb[1]).copy()
            if n >= 2 and rng.random() < hyper.mutation:
                i, j = rng.integers(0, n, size=2)
                perm[i], perm[j] = perm[j], perm[i]
            if m_count > 1 and rng.random() < hyper.mutation:
                splits[rng.integers(0, m_count - 1)] = rng.integers(0, n + 1)
            next_pop.append((perm, splits))
        pop = next_pop
        # the carried-over champion keeps its score: fitness is deterministic
        fit = np.concatenate([[elite_fit], (yield decode(pop[1:]))])
    best = int(np.argmin(fit))
    return _split_decode(*pop[best], scenario)


SEARCHES = {"pso": _pso_search, "ga": _ga_search}   # ask/tell search per method


def plan_searches(searches, scenario: Scenario,
                  propulsion: PropulsionParams = REFERENCE_PROPULSION) -> list:
    """Run ask/tell searches of one world together; returns each one's plan.

    A search yields a generation's plans and is sent their fitness. Each round
    scores the plans of every live search in one population_fitness call, which
    scores a plan the same at any batch size, so each search ends as alone."""
    best = [None] * len(searches)
    asked = {k: next(search) for k, search in enumerate(searches)}
    while asked:
        fitness = population_fitness(sum(asked.values(), []), scenario,
                                     propulsion)[0]
        cuts = np.cumsum([len(plans) for plans in asked.values()])[:-1]
        pending = {}
        for k, part in zip(asked, np.split(fitness, cuts)):
            try:
                pending[k] = searches[k].send(part.copy())
            except StopIteration as done:
                best[k] = done.value
        asked = pending
    return best


def pso_plan(scenario: Scenario, hyper: PsoConfig = PsoConfig(),
             propulsion: PropulsionParams = REFERENCE_PROPULSION) -> Plan:
    """The particle swarm's plan, searched on its own."""
    return plan_searches([_pso_search(scenario, hyper)], scenario, propulsion)[0]


def ga_plan(scenario: Scenario, hyper: GaConfig = GaConfig(),
            propulsion: PropulsionParams = REFERENCE_PROPULSION) -> Plan:
    """The genetic search's plan, searched on its own."""
    return plan_searches([_ga_search(scenario, hyper)], scenario, propulsion)[0]
