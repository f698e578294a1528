"""The per-step reward rule, frozen, against the post-flight reward_terms.

CorridorEnv.step once scored each slot's reward in flight: the terms of
``RewardBreakdown`` below, with the state potential of ``potential`` taken
before and after the slot. ``oracle_step`` is that step, frozen: it applies
the mission rules to the env's state as the step did (without writing the
flight arrays) and returns the slot's terms. ``reward_terms`` scores the same
terms after landing from the slot arrays of an env stepped the ordinary way;
every term of every slot must agree bit for bit, signed zeros included.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from uavisac import mdp_env, planners
from uavisac.mdp_env import (CorridorEnv, JointAction, RewardConfig,
                             fleet_transition, mission_status, pairs_above,
                             reward_terms, score_links, station_exempt,
                             too_close)
from uavisac.scenario import ScenarioConfig, build_scenario, db_to_linear, rng_stream

TERMS = ("collection", "qos", "energy", "distance", "bonus", "shaping")


@dataclass(slots=True)
class RewardBreakdown:
    collection: float = 0.0
    qos: float = 0.0
    energy: float = 0.0
    distance: float = 0.0
    bonus: float = 0.0
    shaping: float = 0.0

    @property
    def total(self) -> float:
        return (self.collection + self.qos + self.energy + self.distance
                + self.bonus + self.shaping)


def potential(env, positions, collected) -> float:
    """State potential: negative device-deficit and landing distances."""
    r = env.reward_cfg
    if r.shaping_md == 0.0 and r.shaping_end == 0.0:
        return 0.0
    value = 0.0
    if r.shaping_md != 0.0:
        open_md = env.scenario.md_positions[collected == 0, :2]
        if len(open_md):
            diff = open_md[None, :, :] - positions[:, None, :2]
            dist = np.sqrt((diff ** 2).sum(axis=2))
            value -= r.shaping_md * float(dist.min(axis=0).sum())
    if r.shaping_end != 0.0:
        end = np.array([*env.cfg.end, env.cfg.altitude])
        d_end = np.linalg.norm(positions[:, :2] - end[:2], axis=1)
        value -= r.shaping_end * float(d_end.sum())
    return value


def oracle_step(env, action):
    """The in-flight step of a one-fleet env: (RewardBreakdown with qos 0,
    done, success)."""
    s, cfg, r = env.state, env.cfg, env.reward_cfg
    md_choice = np.asarray(action.md_choice, dtype=int)[0]
    heading = np.asarray(action.heading, dtype=float)[0]
    speed = np.asarray(action.speed).astype(np.uint8)[0]
    gain2 = env.gain2()[0]

    reward = RewardBreakdown()
    potential_before = potential(env, s.positions[0], s.collected[0])
    out = fleet_transition(s.positions, s.collected, gain2[None],
                           md_choice[None], heading[None], speed[None], cfg,
                           env._slot_costs)
    final, overrides = out.final[0], out.overrides[0]
    reward.collection = r.collect * int(out.newly.sum())

    near = too_close(final, cfg)
    near |= overrides[:, None] & (out.blocked[0][:, None] == np.arange(env.n_agents))
    near = (near | near.T) & pairs_above(env.n_agents)
    if near.any():
        near &= ~station_exempt(final, cfg)
    reward.distance = r.distance_penalty * int(near.sum())

    slot_e = out.energy[0]
    s.energy_per_uav[0] += slot_e
    s.residual_energy[0] -= slot_e
    reward.energy = -float(slot_e.sum()) / r.energy_scale

    s.positions = out.final
    s.headings = out.heading
    s.slot += 1
    reward.shaping = potential(env, final, s.collected[0]) - potential_before

    success, done = mission_status(s.positions[0], s.collected[0],
                                   s.residual_energy[0], s.slot, cfg)
    success, done = bool(success), bool(done)
    if success:
        reward.bonus = r.arrival_bonus
    return reward, done, success


def pursue(env):
    """Each UAV heads for the nearest open MD that no lower-index UAV
    pursues, and for the landing pad once none is left."""
    s, cfg = env.state, env.cfg
    md = env.scenario.md_positions[:, :2]
    targets, aims = [], []
    for m in range(env.n_agents):
        dist = np.linalg.norm(md - s.positions[0, m, :2], axis=1)
        dist[s.collected[0] == 1] = np.inf
        dist[[t for t in targets if t >= 0]] = np.inf
        target = int(np.argmin(dist)) if np.isfinite(dist).any() else -1
        targets.append(target)
        aims.append(md[target] if target >= 0 else np.asarray(cfg.end, float))
    return JointAction(*planners.controller_actions(
        s.positions, s.collected, env.gain2(), np.asarray(targets)[None],
        np.asarray(aims, float)[None], cfg))


def wander(rng):
    """Random headings and speeds, each UAV serving its first open MD."""
    def act(env):
        masks, md = env.open_masks()[0], np.full(env.n_agents, -1)
        for m in range(env.n_agents):
            options = np.flatnonzero(masks[m, :-1])
            options = options[~np.isin(options, md)]
            if len(options):
                md[m] = options[0]
        return JointAction(md_choice=md[None],
                           heading=rng.uniform(-np.pi, np.pi, (1, env.n_agents)),
                           speed=rng.integers(0, 2, (1, env.n_agents)).astype(np.uint8))
    return act


def fly_both(scenario, reward, act, slots=None, inject=None):
    """Fly ``act`` in an env stepped the ordinary way and replay each action
    through oracle_step on a twin env; ``inject(env, slot)`` may change both
    states before a slot. Returns the flown env and the oracle's
    (RewardBreakdown, done, success) of each slot."""
    env, twin = CorridorEnv(scenario, reward), CorridorEnv(scenario, reward)
    env.reset()
    twin.reset()
    oracle, done = [], False
    while not done and (slots is None or len(oracle) < slots):
        if inject is not None:
            for e in (env, twin):
                inject(e, len(oracle))
        action = act(env)
        done, success = env.step(action)
        done, success = done[0], success[0]
        oracle.append(oracle_step(twin, action))
        assert (done, success) == oracle[-1][1:]
        fleet = env.end_state if done else env.state
        for name in ("positions", "headings", "residual_energy", "collected",
                     "energy_per_uav"):
            assert np.array_equal(getattr(fleet, name),
                                  getattr(twin.state, name))
    return env, oracle


def assert_terms_match(env, oracle, links=None):
    """reward_terms of ``env`` with the chain-link verdicts ``links`` (no
    link by default) equal the oracle's terms bit for bit; the oracle scores
    each slot's links one by one in chain order."""
    if links is None:
        links = np.zeros((len(oracle), 0), dtype=bool)
    terms = reward_terms(env, links)
    assert list(terms) == [*TERMS, "total"]
    r = env.reward_cfg
    for verdict, (rew, _, _) in zip(links, oracle, strict=True):
        rew.qos = 0.0
        for ok in verdict:
            rew.qos += r.link_pass if ok else r.link_fail
    for name in TERMS:
        want = np.array([getattr(rew, name) for rew, _, _ in oracle])
        assert terms[name].tobytes() == want.tobytes(), name
    want = np.array([rew.total for rew, _, _ in oracle])
    assert terms["total"].tobytes() == want.tobytes()
    return terms


SHAPING = {"default": RewardConfig(),
           "no_md_shaping": RewardConfig(shaping_md=0.0),
           "no_end_shaping": RewardConfig(shaping_end=0.0),
           "no_shaping": RewardConfig(shaping_md=0.0, shaping_end=0.0)}


class TestPostFlightRewards:
    @pytest.mark.parametrize("weights", list(SHAPING))
    def test_default_world_as_its_open_set_shrinks(self, weights):
        # the default world (30 MDs, 3 UAVs), flown until every MD is in
        # and the fleet has landed
        env, oracle = fly_both(build_scenario(ScenarioConfig(seed=0)),
                               SHAPING[weights], pursue)
        terms = assert_terms_match(env, oracle)
        assert oracle[-1][2]                         # landed with every MD
        assert terms["bonus"][-1] == 50.0 and not terms["bonus"][:-1].any()
        open_sets = {tuple(row) for row in env.flown().collected}
        assert len(open_sets) > 20
        assert terms["shaping"].any() == (weights != "no_shaping")

    @pytest.mark.parametrize("weights", list(SHAPING))
    def test_state_injected_between_steps(self, weights):
        # positions and collected sets overwritten between slots, collected
        # MDs handed back, close pairs that the distance penalty scores
        sc = build_scenario(ScenarioConfig(num_uavs=3, num_mds=8, seed=2))
        cfg = sc.config
        inject_rng = rng_stream(5, "inject")
        injections = [(inject_rng.uniform(0.0, cfg.area_width, (3, 2)),
                       (inject_rng.random(8) < 0.5).astype(np.uint8))
                      for _ in range(10)]

        def inject(env, slot):
            if slot % 6 == 3:
                xy, collected = injections[slot // 6]
                env.state.positions = np.column_stack(
                    [xy, np.full(3, cfg.altitude)])[None]
                env.state.positions[0, 1] = env.state.positions[0, 0] + [9.0, 0.0, 0.0]
                env.state.collected = collected[None].copy()

        env, oracle = fly_both(sc, SHAPING[weights], wander(rng_stream(6, "act")),
                               slots=60, inject=inject)
        terms = assert_terms_match(env, oracle)
        assert terms["distance"].min() < 0.0
        assert terms["collection"].max() > 0.0
        assert env.flown().overrides.any()

    def test_one_uav(self):
        sc = build_scenario(ScenarioConfig(num_uavs=1, num_mds=6, seed=3,
                                           area_width=800.0, area_height=800.0,
                                           start=(0.0, 800.0), end=(800.0, 0.0)))
        env, oracle = fly_both(sc, RewardConfig(), pursue)
        links = np.concatenate([verdicts for verdicts, _ in score_links(
            env.flown(), sc, 0, separated=False, build=False)])
        assert links.shape == (len(oracle), 0)
        terms = assert_terms_match(env, oracle, links)
        assert oracle[-1][2] and not terms["distance"].any()
        assert not terms["qos"].any()

    def test_qos_adds_in_term_order(self):
        # a link-failing world, so QoS terms below 0 enter the totals
        sc = build_scenario(ScenarioConfig(num_uavs=3, num_mds=6, seed=1,
                                           gamma_th_uav=db_to_linear(22.0)))
        rng = rng_stream(7, "act")

        def spread(env):
            return JointAction(
                md_choice=np.full((1, 3), -1),
                heading=(np.array([0.0, -0.5, -0.25]) * np.pi
                         + rng.normal(0.0, 0.3, 3))[None],
                speed=np.ones((1, 3), dtype=np.uint8))

        env, oracle = fly_both(sc, RewardConfig(), spread, slots=40)
        links = np.concatenate([verdicts for verdicts, _ in score_links(
            env.flown(), sc, 0, separated=False, build=False)])
        assert not links.all()
        terms = assert_terms_match(env, oracle, links)
        assert terms["qos"].min() < 0.0

    def test_missions_score_no_reward(self, monkeypatch):
        # _potentials also catches a reward_terms imported by name
        called = []
        for name in ("reward_terms", "_potentials"):
            monkeypatch.setattr(mdp_env, name, lambda *a: called.append(a))
        sc = build_scenario(ScenarioConfig(num_uavs=2, num_mds=4, seed=0,
                                           horizon_slots=60, area_width=600.0,
                                           area_height=600.0, start=(0.0, 600.0),
                                           end=(600.0, 0.0)))
        planners.greedy_online(sc)
        planners.evaluate_plan(planners.greedy_offline(sc), sc, connected=True)
        assert called == []

