import itertools
import math
from copy import deepcopy
from dataclasses import replace

import numpy as np
import pytest

from test_isac_sdr import links_of
from uavisac import isac_sdr, mdp_env
from uavisac.energy import flight_power, hover_power
from uavisac.isac_sdr import link_feasibility_sweep
from uavisac.mdp_env import (CorridorEnv, JointAction, RewardConfig,
                             check_constraints, reward_terms, run_episode,
                             score_links, uplink_gain2, write_trace_csv)
from uavisac.scenario import (Scenario, ScenarioConfig, build_scenario,
                              db_to_linear, rng_stream)


def make_scenario(md_xyz, num_uavs=1, **overrides) -> Scenario:
    """Scenario with hand-placed MDs for geometry-exact tests."""
    md = np.asarray(md_xyz, dtype=float).reshape(-1, 3)
    cfg = ScenarioConfig(num_mds=len(md), num_uavs=num_uavs, **overrides)
    base = build_scenario(cfg)
    return Scenario(config=cfg, md_positions=md,
                    tower_positions=base.tower_positions,
                    rx_combiner=base.rx_combiner)


def observations_oracle(env, fleet=0) -> np.ndarray:
    """Per-agent loop over the observation layout of one live fleet, kept as
    the reference for the env's array-form observations()."""
    s, cfg = env.state, env.cfg
    diag = float(np.hypot(cfg.area_width, cfg.area_height))
    end3 = np.array([*cfg.end, cfg.altitude])

    def bearings(origin, points):
        delta = np.atleast_2d(points)[:, :2] - origin[:2]
        dist = np.hypot(delta[:, 0], delta[:, 1])
        safe = np.maximum(dist, 1e-9)
        return np.column_stack([delta[:, 0] / safe, delta[:, 1] / safe,
                                2.0 * np.minimum(dist / diag, 1.0) - 1.0])

    out = np.empty((env.n_agents, env.obs_dim))
    c01 = s.collected[fleet].astype(float)
    positions = s.positions[fleet]
    for m in range(env.n_agents):
        p = positions[m]
        md_feat = np.column_stack([bearings(p, env.scenario.md_positions), c01])
        others = np.delete(positions, m, axis=0)
        parts = [
            [np.cos(s.headings[fleet, m]), np.sin(s.headings[fleet, m])],
            [2 * p[0] / cfg.area_width - 1, 2 * p[1] / cfg.area_height - 1],
            [2 * s.residual_energy[fleet, m] / cfg.e_total - 1],
            bearings(p, end3[None, :]).ravel(),
            md_feat.ravel(),
            bearings(p, others).ravel() if len(others) else [],
            np.eye(env.n_agents)[m],
        ]
        out[m] = np.concatenate(
            [np.atleast_1d(np.asarray(q, float)) for q in parts])
    return out


def critic_state_oracle(env, fleet=0) -> np.ndarray:
    cfg, md = env.cfg, env.scenario.md_positions
    return np.concatenate([observations_oracle(env, fleet).ravel(),
                           2 * md[:, 0] / cfg.area_width - 1,
                           2 * md[:, 1] / cfg.area_height - 1,
                           env.state.collected[fleet].astype(float)])


def terms(env):
    """The post-flight reward terms of the slots ``env`` flew, QoS at 0."""
    return reward_terms(env, np.zeros((env.state.slot, 0), dtype=bool))


def hover(m, fleets=1):
    """The JointAction of ``fleets`` fleets of ``m`` UAVs that all hover."""
    return JointAction(md_choice=np.full((fleets, m), -1),
                       heading=np.zeros((fleets, m)),
                       speed=np.zeros((fleets, m), dtype=np.uint8))


def hover_action(env, md=None):
    """Every live fleet hovers; fleet 0's first UAVs serve ``md``."""
    act = hover(env.n_agents, len(env.live))
    if md is not None:
        act.md_choice[0, :len(md)] = md
    return act


def one_fleet(md_choice, heading, speed):
    """The JointAction of a one-fleet env from each UAV's choices."""
    return JointAction(md_choice=np.asarray(md_choice)[None],
                       heading=np.asarray(heading)[None],
                       speed=np.asarray(speed)[None])


def fleet_state(env):
    """A one-fleet env's FleetState, live or ended."""
    return env.state if len(env.live) else env.end_state


class TestReset:
    def test_initial_conditions(self):
        sc = build_scenario(ScenarioConfig(num_uavs=3, seed=1))
        env = CorridorEnv(sc)
        for fleets in (1, 4):
            assert env.reset(fleets=fleets) is None
            state = env.state
            obs = env.observations()
            critic = env.critic_state(obs)
            assert state.positions.shape == (fleets, 3, 3)
            assert np.allclose(state.positions, [0.0, 2500.0, 80.0])
            assert np.all(state.collected == 0)
            assert np.all(state.residual_energy == sc.config.e_total)
            assert np.array_equal(env.live, np.arange(fleets))
            assert env.flight.final.shape == (fleets, sc.config.horizon_slots, 3, 3)
            assert obs.shape == (fleets, 3, env.obs_dim)
            assert critic.shape == (fleets, env.state_dim)
            assert np.all(np.abs(obs) <= 1.0 + 1e-9)

    def test_seed_repeat_identical(self):
        sc = build_scenario(ScenarioConfig(num_uavs=2, num_mds=5, seed=1))
        env = CorridorEnv(sc)

        def episode():
            env.reset()
            out = []
            for k in range(30):
                act = one_fleet(md_choice=np.array([-1, -1]),
                                heading=np.array([0.1 * k, -0.2 * k]),
                                speed=np.array([1, 1], dtype=np.uint8))
                env.step(act)
                out.append(env.state.positions.copy())
            return out, terms(env)["total"]

        (a, ra), (b, rb) = episode(), episode()
        for pa, pb in zip(a, b):
            assert np.array_equal(pa, pb)
        assert ra.tobytes() == rb.tobytes()

    def test_takes_no_seed(self):
        """An episode draws nothing random, so neither reset nor run_episode
        takes a seed; a leftover one is an error, not a fleet count."""
        env = CorridorEnv(build_scenario(ScenarioConfig(num_uavs=2, seed=0)))
        with pytest.raises(TypeError):
            env.reset(3)
        with pytest.raises(TypeError):
            run_episode(env, 0, hover_action)


class TestObservations:
    @pytest.mark.parametrize("m_count", [1, 2, 3, 5])
    def test_matches_per_agent_oracle(self, m_count):
        sc = build_scenario(ScenarioConfig(num_uavs=m_count, num_mds=7,
                                           seed=m_count))
        cfg = sc.config
        env = CorridorEnv(sc)
        rng = np.random.default_rng(m_count)
        for trial in range(40):
            fleets = 1 if trial < 20 else 3
            env.reset(fleets=fleets)
            s = env.state
            s.positions = np.stack([
                rng.uniform(0.0, cfg.area_width, (fleets, m_count)),
                rng.uniform(0.0, cfg.area_height, (fleets, m_count)),
                np.full((fleets, m_count), cfg.altitude)], axis=-1)
            if trial % 5 == 0:      # co-located UAVs and a UAV over an MD
                s.positions[:, -1] = s.positions[:, 0]
                s.positions[-1, 0, :2] = sc.md_positions[trial % 7, :2]
            s.headings = rng.uniform(-np.pi, np.pi, (fleets, m_count))
            s.residual_energy = rng.uniform(0.0, cfg.e_total, (fleets, m_count))
            s.collected = (rng.random((fleets, cfg.num_mds)) < 0.4).astype(np.uint8)
            obs = env.observations()
            assert obs.shape == (fleets, m_count, env.obs_dim)
            critic = env.critic_state()
            assert np.array_equal(env.critic_state(obs), critic)
            for fleet in range(fleets):
                assert np.array_equal(obs[fleet], observations_oracle(env, fleet))
                assert np.array_equal(critic[fleet], critic_state_oracle(env, fleet))

    def test_stepped_states_match_oracle(self):
        sc = build_scenario(ScenarioConfig(num_uavs=3, num_mds=6, seed=4))
        env = CorridorEnv(sc)
        env.reset()
        rng = np.random.default_rng(5)
        for _ in range(25):
            obs = env.observations()
            assert np.array_equal(obs[0], observations_oracle(env))
            assert np.array_equal(env.critic_state(obs)[0], critic_state_oracle(env))
            act = one_fleet(md_choice=np.full(3, -1),
                            heading=rng.uniform(-np.pi, np.pi, 3),
                            speed=rng.integers(0, 2, 3).astype(np.uint8))
            env.step(act)

    def test_injected_state_is_followed(self):
        # one MD beside the start pad, one far away
        sc = make_scenario([[30.0, 2470.0, 0.0], [2000.0, 500.0, 0.0]],
                           num_uavs=2)
        env = CorridorEnv(sc)
        env.reset()
        assert env.action_mask(0)[0, 0] and not env.action_mask(0)[0, 1]
        env.state.collected[:] = 1
        obs = env.observations()
        assert np.array_equal(obs[0], observations_oracle(env))
        assert np.all(obs[0, :, 8 + 3:8 + 4 * 2:4] == 1.0)
        assert np.array_equal(env.critic_state()[0], critic_state_oracle(env))
        for m in range(2):
            mask = env.action_mask(m)[0]
            assert mask[-1] and not mask[:-1].any()
        env.state.collected[:] = 0
        env.state.positions = np.array([[[2000.0, 500.0, 80.0],
                                         [1990.0, 520.0, 80.0]]])
        obs = env.observations()
        assert np.array_equal(obs[0], observations_oracle(env))
        assert obs[0, 0, 2] == 2 * 2000.0 / sc.config.area_width - 1
        assert not env.action_mask(0)[0, 0] and env.action_mask(0)[0, 1]
        assert env.action_mask(1, [1])[0, 1] == False  # noqa: E712

    def test_shaping_follows_injected_state(self):
        # a slot's start potential is the previous slot's end potential,
        # unless the state was changed in between
        sc = make_scenario([[1200.0, 1200.0, 0.0], [600.0, 1800.0, 0.0]])
        end = np.array(sc.config.end)

        def potential(env):
            r, s = env.reward_cfg, env.state
            positions = s.positions[0]
            open_md = sc.md_positions[s.collected[0] == 0, :2]
            dist = np.sqrt(((open_md[None] - positions[:, None, :2]) ** 2).sum(axis=2))
            d_end = np.linalg.norm(positions[:, :2] - end, axis=1)
            return (-r.shaping_md * float(dist.min(axis=0).sum())
                    - r.shaping_end * float(d_end.sum()))

        def inject_collected(env):
            env.state.collected[:] = [1, 0]

        def inject_positions(env):
            env.state.positions = np.array([[[900.0, 1500.0, 80.0]]])

        act = one_fleet(md_choice=np.array([-1]), heading=np.array([0.3]),
                        speed=np.array([1], dtype=np.uint8))
        for inject in (inject_collected, inject_positions):
            fresh, stepped = CorridorEnv(sc), CorridorEnv(sc)
            fresh.reset()
            stepped.reset()
            stepped.step(hover_action(stepped))
            for env in (fresh, stepped):
                inject(env)
            for env in (fresh, stepped, fresh, stepped):
                before = potential(env)
                env.step(act)
                shaping = terms(env)["shaping"][-1]
                assert shaping == potential(env) - before
                assert shaping != 0.0


class TestActionMask:
    def test_all_collected_leaves_noop_only(self):
        sc = make_scenario([[100.0, 2400.0, 0.0]])
        env = CorridorEnv(sc)
        env.reset()
        env.state.collected[:] = 1
        mask = env.action_mask(0, [])[0]
        assert mask[-1] and not mask[:-1].any()

    def test_out_of_range_md_masked(self):
        # the only MD sits 2 km from the start pad: below the SINR gate
        sc = make_scenario([[2000.0, 500.0, 0.0]])
        env = CorridorEnv(sc)
        env.reset()
        mask = env.action_mask(0, [])[0]
        assert mask[-1] and not mask[:-1].any()

    def test_claimed_md_masked_for_later_agent(self):
        sc = make_scenario([[30.0, 2470.0, 0.0]], num_uavs=2)
        env = CorridorEnv(sc)
        env.reset()
        assert env.action_mask(0, [])[0, 0]
        assert env.action_mask(1, [0])[0, 0] == False  # noqa: E712
        assert env.action_mask(1, [-1])[0, 0]

    def test_claimed_noop_stays_on(self):
        # act_in_env stores the no-op index for an agent that claims no MD
        sc = make_scenario([[30.0, 2470.0, 0.0]], num_uavs=2)
        env = CorridorEnv(sc)
        env.reset()
        mask = env.action_mask(1, [env.n_mds])[0]
        assert mask[-1]
        assert np.array_equal(mask, env.open_masks()[0, 1])

    def test_mask_violation_rejected(self):
        # MD 0 claimed twice, or MD 1 out of range, in the last fleet only
        sc = make_scenario([[30.0, 2470.0, 0.0], [2000.0, 500.0, 0.0]],
                           num_uavs=2)
        env = CorridorEnv(sc)
        for fleets, md in itertools.product((1, 3), ([0, 0], [-1, 1])):
            env.reset(fleets=fleets)
            act = hover(2, fleets)
            act.md_choice[-1] = md
            with pytest.raises(ValueError,
                               match=f"mask violation: fleet {fleets - 1} "):
                env.step(act)
            assert env.state.slot == 0

    @pytest.mark.parametrize("fleets, m_count", itertools.product((1, 7),
                                                                   (2, 3, 5)))
    def test_step_rejects_exactly_the_ungranted_claims(self, fleets, m_count):
        # random positions, collected sets and choices, duplicate and
        # unschedulable MDs among them: a step raises exactly when
        # claim_targets does not grant the joint choice, and names its first
        # ungranted (fleet, UAV), which is the first choice that is
        # unschedulable or taken by a lower-index UAV of its fleet
        sc = build_scenario(ScenarioConfig(
            num_uavs=m_count, num_mds=6, area_width=300, area_height=300,
            start=(0, 300), end=(300, 0), seed=fleets + m_count))
        cfg, rng = sc.config, rng_stream(m_count, "claims")
        env = CorridorEnv(sc)
        outcomes = set()
        for _ in range(60):
            env.reset(fleets=fleets)
            xy = rng.uniform(0.0, 300.0, (fleets, m_count, 2))
            env.state.positions = np.concatenate(
                [xy, np.full((fleets, m_count, 1), cfg.altitude)], axis=-1)
            env.state.collected = rng.integers(0, 2, (fleets, 6), dtype=np.uint8)
            allowed = mdp_env.schedulable(env.gain2(), env.state.collected, cfg)
            # claims in UAV order through the masks, then up to two UAVs
            # take a fleet mate's choice or a random one
            md = np.full((fleets, m_count), -1)
            for b, m in np.ndindex(fleets, m_count):
                open_md = np.setdiff1d(np.flatnonzero(allowed[b, m]), md[b])
                md[b, m] = rng.choice(np.append(open_md, -1))
            for _ in range(rng.integers(0, 3)):
                b, m = rng.integers(fleets), rng.integers(m_count)
                md[b, m] = rng.choice(np.append(md[b], rng.integers(-1, 6)))
            act = replace(hover(m_count, fleets), md_choice=md)
            first = next(((b, m) for b in range(fleets) for m in range(m_count)
                          if md[b, m] >= 0 and (not allowed[b, m, md[b, m]]
                                                or md[b, m] in md[b, :m])), None)
            ungranted = np.argwhere(mdp_env.claim_targets(md, allowed) != md)
            assert first == (tuple(ungranted[0]) if len(ungranted) else None)
            if first is None:
                env.step(act)
                assert env.state.slot == 1
                outcomes.add("granted")
                continue
            b, m = first
            with pytest.raises(ValueError, match=(
                    f"mask violation: fleet {b} UAV {m} chose MD {md[b, m]}$")):
                env.step(act)
            assert env.state.slot == 0
            outcomes.add("taken" if md[b, m] in md[b, :m] else "unschedulable")
        assert outcomes == {"granted", "taken", "unschedulable"}

    @pytest.mark.parametrize("field, value", [
        ("heading", 0.5),                           # scalar, not (B, M)
        ("speed", np.ones(1, dtype=np.uint8)),      # length 1, not (B, M)
        ("md_choice", np.array([-7, -1])),          # below the idle -1
        ("heading", np.array([np.nan, 0.0])),
        ("heading", np.array([np.inf, 0.0])),
        ("speed", np.array([0.7, 0.0])),            # not cast to hover
        ("md_choice", np.array([0.9, -1]))])        # not cast to MD 0
    def test_malformed_joint_action_rejected(self, field, value):
        # with several fleets, a two-UAV value is the last fleet's row and
        # the others hover
        sc = make_scenario([[30.0, 2470.0, 0.0]], num_uavs=2)
        env = CorridorEnv(sc)
        for fleets in (1, 3):
            env.reset(fleets=fleets)
            act = hover(2, fleets)
            bad = value
            if np.shape(value) == (2,):
                bad = getattr(act, field).astype(
                    np.result_type(getattr(act, field), value))
                bad[-1] = value
            with pytest.raises(ValueError, match="malformed joint action"):
                env.step(replace(act, **{field: bad}))
            assert env.state.slot == 0


class TestStepKinematics:
    def test_heading_zero_advances_x(self):
        sc = make_scenario([[1200.0, 1200.0, 0.0]])
        env = CorridorEnv(sc)
        env.reset()
        act = one_fleet(md_choice=np.array([-1]), heading=np.array([0.0]),
                        speed=np.array([1], dtype=np.uint8))
        env.step(act)
        state = env.state
        assert np.allclose(state.positions[0, 0], [20.0, 2500.0, 80.0])

    def test_altitude_preserved_exactly(self):
        sc = make_scenario([[1200.0, 1200.0, 0.0]])
        env = CorridorEnv(sc)
        env.reset()
        rng = np.random.default_rng(0)
        for _ in range(50):
            act = one_fleet(md_choice=np.array([-1]),
                            heading=np.array([rng.uniform(-np.pi, np.pi)]),
                            speed=np.array([1], dtype=np.uint8))
            env.step(act)
            state = env.state
            assert state.positions[0, 0, 2] == 80.0

    def test_area_clipping(self):
        sc = make_scenario([[1200.0, 1200.0, 0.0]])
        env = CorridorEnv(sc)
        env.reset()
        act = one_fleet(md_choice=np.array([-1]), heading=np.array([np.pi / 2]),
                        speed=np.array([1], dtype=np.uint8))
        env.step(act)  # pushing past the top edge
        state = env.state
        assert state.positions[0, 0, 1] == 2500.0


class TestCollection:
    def test_collects_within_range(self):
        sc = make_scenario([[30.0, 2470.0, 0.0]])
        env = CorridorEnv(sc)
        env.reset()
        env.step(hover_action(env, md=[0]))
        state = env.state
        assert state.collected[0, 0] == 1
        assert terms(env)["collection"][0] == pytest.approx(10.0)

    def test_interference_blocks_collection(self):
        # symmetric MDs between two co-serving UAVs: cross interference drops
        # the realized SINR below the gate even though the mask allowed it
        md = [[0.0, 30.0, 0.0], [30.0, 0.0, 0.0],
              [120.0, 30.0, 0.0], [70.0, 0.0, 0.0]]
        sc = make_scenario(md, num_uavs=2, start=(0.0, 0.0), end=(2500.0, 2500.0))
        env = CorridorEnv(sc)
        env.reset()
        env.state.positions = np.array([[[0.0, 0.0, 80.0], [85.0, 0.0, 80.0]]])
        mask0 = env.action_mask(0, [])[0]
        mask1 = env.action_mask(1, [1])[0]
        assert mask0[1] and mask1[3]
        act = one_fleet(md_choice=np.array([1, 3]), heading=np.zeros(2),
                        speed=np.zeros(2, dtype=np.uint8))
        env.step(act)
        state = env.state
        # both uplinks suffer a near-equal-power interferer, so neither clears
        assert state.collected[0, 1] == 0 and state.collected[0, 3] == 0
        assert terms(env)["collection"][0] == 0.0

    def test_collection_is_monotone(self):
        sc = build_scenario(ScenarioConfig(num_uavs=2, num_mds=8, seed=2))
        env = CorridorEnv(sc)
        env.reset()
        prev = env.state.collected.copy()
        rng = np.random.default_rng(1)
        for _ in range(80):
            claimed, md = [], []
            for m in range(2):
                mask = env.action_mask(m, claimed)[0]
                valid = np.flatnonzero(mask)
                pick = int(rng.choice(valid))
                c = pick if pick < env.n_mds else -1
                md.append(c)
                claimed.append(c)
            act = one_fleet(md_choice=np.array(md),
                            heading=rng.uniform(-np.pi, np.pi, 2),
                            speed=rng.integers(0, 2, 2).astype(np.uint8))
            done, _ = env.step(act)
            state = fleet_state(env)
            assert np.all(state.collected >= prev)
            prev = state.collected.copy()
            if done:
                break


class TestSafety:
    def test_close_pair_penalized(self):
        sc = make_scenario([[2000.0, 300.0, 0.0]], num_uavs=2)
        env = CorridorEnv(sc)
        env.reset()
        env.state.positions = np.array([[[1000.0, 1000.0, 80.0],
                                         [1008.0, 1000.0, 80.0]]])
        env.step(hover_action(env))
        assert terms(env)["distance"][0] == pytest.approx(-5.0)

    def test_penalty_and_audit_share_the_threshold(self):
        # a pair within the audit's 1e-9 m tolerance of d_min is neither
        # penalized nor counted
        sc = make_scenario([[2000.0, 300.0, 0.0]], num_uavs=2)
        env = CorridorEnv(sc)
        env.reset()
        gap = sc.config.d_min - 5e-10
        env.state.positions = np.array([[[1000.0, 1000.0, 80.0],
                                         [1000.0 + gap, 1000.0, 80.0]]])
        env.step(hover_action(env))
        assert terms(env)["distance"][0] == 0.0
        assert check_constraints(env.flown(), [], sc,
                                 connected=False).min_distance == 0

    def test_override_prevents_closing_in(self):
        sc = make_scenario([[2000.0, 300.0, 0.0]], num_uavs=2)
        env = CorridorEnv(sc)
        env.reset()
        env.state.positions = np.array([[[1000.0, 1000.0, 80.0],
                                         [1025.0, 1000.0, 80.0]]])
        # head-on at 20 m/s each would end 15 m apart... still legal;
        # repeat until the override must trigger
        for _ in range(3):
            act = one_fleet(md_choice=np.array([-1, -1]),
                            heading=np.array([0.0, np.pi]),
                            speed=np.ones(2, dtype=np.uint8))
            env.step(act)
            state = env.state
            d = np.linalg.norm(state.positions[0, 0] - state.positions[0, 1])
            assert d >= sc.config.d_min - 1e-9

    def test_shared_start_pad_is_exempt(self):
        sc = make_scenario([[2000.0, 300.0, 0.0]], num_uavs=3)
        env = CorridorEnv(sc)
        env.reset()
        env.step(hover_action(env))
        assert terms(env)["distance"][0] == 0.0


def frozen_resolve_collisions(pre, intended, cfg):
    """resolve_collisions as it stood when every pass tested every fleet,
    frozen."""
    cand = intended.copy()
    n_fleets, m_count = cand.shape[:2]
    overrides = np.zeros((n_fleets, m_count), dtype=bool)
    blocked = np.full((n_fleets, m_count), -1)
    moved = (cand != pre).any(axis=-1)
    for _ in range(m_count * m_count + 1):
        close = (mdp_env.pairs_above(m_count)
                 & (moved[:, :, None] | moved[:, None, :])
                 & mdp_env.too_close(cand, cfg))
        if not np.count_nonzero(close):
            break
        close &= ~mdp_env.station_exempt(cand, cfg)
        close = close.reshape(n_fleets, -1)
        fleets = np.flatnonzero(close.any(axis=1))
        if not len(fleets):
            break
        a, b = np.divmod(np.argmax(close[fleets], axis=1), m_count)
        junior = np.where(moved[fleets, b], b, a)
        cand[fleets, junior] = pre[fleets, junior]
        moved[fleets, junior] = False
        overrides[fleets, junior] = True
        blocked[fleets, junior] = a + b - junior
    return cand, overrides, blocked


def deadlocked_fleet(cfg):
    """(pre, intended) of three UAVs just over d_min apart that each step 5 m
    toward their centroid: every UAV gets reverted, one pass each."""
    gap = cfg.d_min + 1.0
    pre = np.array([[1000.0, 1000.0, cfg.altitude],
                    [1000.0 + gap, 1000.0, cfg.altitude],
                    [1000.0, 1000.0 + gap, cfg.altitude]])
    toward = pre.mean(axis=0) - pre
    step = 5.0 * toward / np.linalg.norm(toward, axis=1, keepdims=True)
    return pre, pre + step


class TestCollisionPasses:
    """resolve_collisions tests again only the fleets its last pass
    reverted, and reverts what the all-fleet loop reverted."""

    def test_deadlocked_fleet_reverts_every_uav(self):
        cfg = ScenarioConfig()
        pre, intended = deadlocked_fleet(cfg)
        final, overrides, blocked = mdp_env.resolve_collisions(
            pre[None], intended[None], cfg)
        assert np.array_equal(final[0], pre) and overrides.all()
        assert blocked.tolist() == [[1, 0, 0]]

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_matches_the_all_fleet_loop(self, m):
        cfg = ScenarioConfig()
        rng = rng_stream(m, "collisions")
        for _ in range(20):
            n_fleets = int(rng.integers(1, 13))
            # crowded boxes in the open and on the start pad, steps of up to
            # one slot at v_fixed, some UAVs hovering
            centre = np.where(rng.random((n_fleets, 1, 1)) < 0.3,
                              [*cfg.start, cfg.altitude],
                              [1200.0, 1200.0, cfg.altitude])
            pre = centre + rng.uniform(-30.0, 30.0, (n_fleets, m, 3)) * [1, 1, 0]
            pre[..., :2] = np.clip(pre[..., :2], 0.0, cfg.area_width)
            heading = rng.uniform(-np.pi, np.pi, (n_fleets, m))
            speed = (rng.random((n_fleets, m)) < 0.8).astype(np.uint8)
            intended = mdp_env.advance(pre, heading, speed, cfg)
            if m == 3:
                k = int(rng.integers(n_fleets))
                pre[k], intended[k] = deadlocked_fleet(cfg)
            got = mdp_env.resolve_collisions(pre, intended, cfg)
            want = frozen_resolve_collisions(pre, intended, cfg)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    def test_later_passes_test_only_reverted_fleets(self, monkeypatch):
        cfg = ScenarioConfig()
        pre, intended = deadlocked_fleet(cfg)
        far = pre + [500.0, 0.0, 0.0]           # six fleets that move freely
        pre = np.stack([far] * 3 + [pre] + [far] * 3)
        intended = np.stack([far + [5.0, 0.0, 0.0]] * 3 + [intended]
                            + [far + [5.0, 0.0, 0.0]] * 3)
        tested, too_close = [], mdp_env.too_close

        def counted(positions, cfg):
            tested.append(len(positions))
            return too_close(positions, cfg)

        monkeypatch.setattr(mdp_env, "too_close", counted)
        _, overrides, _ = mdp_env.resolve_collisions(pre, intended, cfg)
        assert np.flatnonzero(overrides.any(axis=1)).tolist() == [3]
        assert tested == [7, 1, 1, 1]


class TestEnergyAccounting:
    def test_hover_and_flight_rates(self):
        sc = make_scenario([[1200.0, 1200.0, 0.0]])
        env = CorridorEnv(sc)
        env.reset()
        env.step(hover_action(env))
        state = env.state
        assert state.energy_per_uav[0].sum() == pytest.approx(hover_power())
        act = one_fleet(md_choice=np.array([-1]), heading=np.array([0.0]),
                        speed=np.array([1], dtype=np.uint8))
        env.step(act)
        state = env.state
        assert state.energy_per_uav[0].sum() == pytest.approx(hover_power() + flight_power(20.0))

    def test_objective_matches_offline_recomputation(self):
        sc = build_scenario(ScenarioConfig(num_uavs=2, num_mds=4, seed=5))
        env = CorridorEnv(sc)
        env.reset()
        rng = np.random.default_rng(2)
        for _ in range(60):
            act = one_fleet(md_choice=np.array([-1, -1]),
                            heading=rng.uniform(-np.pi, np.pi, 2),
                            speed=rng.integers(0, 2, 2).astype(np.uint8))
            done, _ = env.step(act)
            state = fleet_state(env)
            if done:
                break
        recomputed = sum(
            (flight_power(20.0) if moved else hover_power())
            * sc.config.slot_seconds
            for moved in env.flown().moved.ravel())
        assert state.energy_per_uav[0].sum() == pytest.approx(recomputed, rel=1e-9)

    def test_battery_exhaustion_terminates(self):
        sc = make_scenario([[1200.0, 1200.0, 0.0]], e_total=400.0)
        env = CorridorEnv(sc)
        env.reset()
        done = False
        steps = 0
        while not done:
            done, _ = env.step(hover_action(env))
            steps += 1
        assert steps == 3  # 168.49 J per hover slot against a 400 J budget


class TestRewardBreakdown:
    def test_components_sum_to_total(self):
        sc = build_scenario(ScenarioConfig(num_uavs=3, num_mds=6, seed=4))
        env = CorridorEnv(sc)
        env.reset()
        rng = np.random.default_rng(3)
        for _ in range(30):
            act = one_fleet(md_choice=np.array([-1, -1, -1]),
                            heading=rng.uniform(-np.pi, np.pi, 3),
                            speed=rng.integers(0, 2, 3).astype(np.uint8))
            done, _ = env.step(act)
            if done:
                break
        rew = reward_terms(env, rng.random((env.state.slot, 2)) < 0.5)
        parts = (rew["collection"] + rew["qos"] + rew["energy"]
                 + rew["distance"] + rew["bonus"] + rew["shaping"])
        assert np.array_equal(rew["total"], parts)

    def test_qos_sums_in_chain_order(self):
        """Each slot's QoS adds its links' scores left to right from 0.0,
        whatever the Python version's builtin sum() would round to."""
        sc = build_scenario(ScenarioConfig(num_uavs=4, num_mds=3, seed=0))
        env = CorridorEnv(sc, reward=RewardConfig(link_pass=0.05))
        env.reset()
        env.step(hover(4))
        qos = reward_terms(env, np.array([[True, False, True]]))["qos"]
        assert qos.tolist() == [(0.05 - 1.0) + 0.05]
        assert qos[0] != math.fsum([0.05, -1.0, 0.05])


class TestTermination:
    def test_success_requires_coverage_and_arrival(self):
        sc = make_scenario([[30.0, 2470.0, 0.0]], end=(100.0, 2500.0),
                           arrival_radius=40.0)
        env = CorridorEnv(sc)
        env.reset()
        done, success = env.step(hover_action(env, md=[0]))
        state = env.state
        assert state.collected.all() and not done
        # fly to the nearby end point
        for _ in range(10):
            act = one_fleet(md_choice=np.array([-1]), heading=np.array([0.0]),
                            speed=np.array([1], dtype=np.uint8))
            done, success = env.step(act)
            if done:
                break
        assert done and success
        bonus = terms(env)["bonus"]
        assert bonus[-1] == pytest.approx(50.0) and not bonus[:-1].any()

    def test_horizon_cap(self):
        sc = make_scenario([[2300.0, 200.0, 0.0]], horizon_slots=5)
        env = CorridorEnv(sc)
        env.reset()
        done = False
        n = 0
        while not done:
            done, success = env.step(hover_action(env))
            n += 1
        assert n == 5 and not success
        assert not terms(env)["bonus"].any()

    def test_step_past_the_horizon_rejected(self):
        # the flight arrays hold horizon_slots slots; every fleet leaves the
        # batch there, and a step with no live fleet changes neither the end
        # states nor the arrays
        sc = make_scenario([[2300.0, 200.0, 0.0]], horizon_slots=3)
        env = CorridorEnv(sc)
        with pytest.raises(RuntimeError, match="reset"):
            env.step(hover(1))
        for fleets in (1, 3):
            env.reset(fleets=fleets)
            while len(env.live):
                env.step(hover_action(env))
            assert not env.state.positions.size
            state, flight = deepcopy(env.end_state), deepcopy(env.flight)
            with pytest.raises(RuntimeError, match="no live fleet.*horizon"):
                env.step(hover(1, fleets))
            for name, value in vars(state).items():
                assert np.array_equal(getattr(env.end_state, name), value)
            for name, rows in vars(flight).items():
                assert np.array_equal(getattr(env.flight, name), rows)
            assert env.flight.final.shape[1] == 3
            assert env.end_state.slot.tolist() == [3] * fleets

    def test_fleets_leave_the_batch_on_their_own(self):
        # fleet 1 collects the MD beside the pad and lands at the nearby end;
        # fleets 0 and 2 hover until the horizon
        sc = make_scenario([[30.0, 2470.0, 0.0]], end=(100.0, 2500.0),
                           arrival_radius=40.0, horizon_slots=12)
        env = CorridorEnv(sc)
        env.reset(fleets=3)
        act = hover(1, 3)
        act.md_choice[1] = 0
        done, success = env.step(act)
        assert not done.any() and env.state.collected[:, 0].tolist() == [0, 1, 0]
        act = hover(1, 3)
        act.speed[1] = 1
        slots = 1
        while len(env.live) == 3:
            done, success = env.step(act)
            slots += 1
        assert done.tolist() == success.tolist() == [False, True, False]
        assert env.live.tolist() == [0, 2] and env.end_state.slot[1] == slots
        with pytest.raises(ValueError, match="malformed"):
            env.step(act)                   # one action row too many
        while len(env.live):
            env.step(hover_action(env))
        assert env.end_state.slot.tolist() == [12, slots, 12]
        assert env.success.tolist() == [False, True, False]
        assert env.end_state.collected[:, 0].tolist() == [0, 1, 0]
        landed = env.flown(1)
        assert len(landed.final) == slots and landed.moved[1:].all()
        # fleet 1's rows stop at its end slot while the others fly on
        assert not env.flight.moved[1, slots:].any()
        assert not env.flight.start[1, slots:].any()
        assert (env.flight.start[[0, 2], slots:, :, 2] == 80.0).all()
        assert len(env.flown(0).final) == len(env.flown(2).final) == 12
        assert np.array_equal(env.flown(0).final, env.flown(2).final)


class TestConstraintAudit:
    def test_hover_forever_misses_all_coverage(self):
        sc = build_scenario(ScenarioConfig(num_uavs=1, num_mds=12, seed=0,
                                           horizon_slots=10))
        env = CorridorEnv(sc)
        env.reset()
        done = False
        while not done:
            done, _ = env.step(hover_action(env))
        rep = check_constraints(env.flown(), [], sc)
        assert rep.coverage_missing == 12

    def test_failed_uplink_leaves_its_md_uncovered(self):
        # both UAVs serve an MD from the start pad; under each other's
        # interference neither uplink clears the gate, so nothing is collected
        sc = build_scenario(ScenarioConfig(
            num_uavs=2, num_mds=6, seed=1, horizon_slots=1, area_width=300,
            area_height=300, start=(0, 300), end=(300, 0)))
        env = CorridorEnv(sc)
        env.reset()
        done, _ = env.step(hover_action(env, md=[1, 3]))
        assert done and env.end_state.collected.sum() == 0
        sinr = env.flown().served_sinr[0]
        assert (sinr < sc.config.gamma_th_md).all()
        assert sinr == pytest.approx([1.86, 0.34], abs=0.005)
        rep = check_constraints(env.flown(), [], sc, connected=False)
        assert (rep.coverage_missing, rep.uplink_gating) == (6, 2)

    def test_single_uav_has_no_distance_violations(self):
        sc = build_scenario(ScenarioConfig(num_uavs=1, num_mds=3, seed=0,
                                           horizon_slots=20))
        env = CorridorEnv(sc)
        env.reset()
        done = False
        rng = np.random.default_rng(0)
        while not done:
            act = one_fleet(md_choice=np.array([-1]),
                            heading=np.array([rng.uniform(-np.pi, np.pi)]),
                            speed=np.array([1], dtype=np.uint8))
            done, _ = env.step(act)
        rep = check_constraints(env.flown(), [], sc)
        assert rep.min_distance == 0

    def test_feasible_designs_audit_clean(self):
        sc = build_scenario(ScenarioConfig(num_uavs=3, num_mds=4, seed=0,
                                           horizon_slots=15))
        env = CorridorEnv(sc)
        env.reset()
        done = False
        rng = np.random.default_rng(5)
        while not done:
            act = one_fleet(md_choice=np.array([-1, -1, -1]),
                            heading=rng.uniform(-np.pi, np.pi, 3),
                            speed=np.ones(3, dtype=np.uint8))
            done, _ = env.step(act)
        designs = [stack for _, stack in score_links(
            env.flown(), sc, 0, separated=False, build=True)]
        rep = check_constraints(env.flown(), iter(designs), sc)
        assert len(links_of(*designs)) == 2 * env.state.slot
        assert rep.power_budget == 0 and rep.psd == 0 and rep.tbp == 0
        assert rep.md_exclusivity == 0

    def test_separated_episode_audits_clean(self):
        sc = build_scenario(ScenarioConfig(num_uavs=3, num_mds=4, seed=0,
                                           horizon_slots=15))
        env = CorridorEnv(sc)
        env.reset()
        done = False
        rng = np.random.default_rng(5)
        while not done:
            act = one_fleet(md_choice=np.array([-1, -1, -1]),
                            heading=rng.uniform(-np.pi, np.pi, 3),
                            speed=np.ones(3, dtype=np.uint8))
            done, _ = env.step(act)
        designs = [stack for _, stack in score_links(
            env.flown(), sc, 0, separated=True, build=True)]
        rep = check_constraints(env.flown(), iter(designs), sc)
        assert (rep.md_exclusivity, rep.power_budget, rep.psd, rep.tbp,
                rep.min_distance) == (0, 0, 0, 0, 0)
        links = links_of(*designs)
        failed = sum(not d.feasible for d in links)
        assert rep.inter_uav_sinr == failed
        margins = np.array([d.margin for d in links])
        assert len(margins) == 2 * env.state.slot
        assert np.all(np.isfinite(margins))

    def test_disconnected_reports_na(self):
        sc = build_scenario(ScenarioConfig(num_uavs=1, num_mds=2, seed=0,
                                           horizon_slots=5))
        env = CorridorEnv(sc)
        env.reset()
        done = False
        while not done:
            done, _ = env.step(hover_action(env))
        rep = check_constraints(env.flown(), [], sc, connected=False)
        assert rep.inter_uav_sinr is None


def fly_link_failing_episode():
    """A 40-slot episode of three UAVs spreading out under a 22 dB
    link SINR floor, so some of its chain links fail."""
    sc = build_scenario(ScenarioConfig(num_uavs=3, num_mds=4, seed=0,
                                       horizon_slots=40,
                                       gamma_th_uav=db_to_linear(22.0)))
    env = CorridorEnv(sc)
    rng = np.random.default_rng(11)
    headings = np.array([0.0, -0.5 * np.pi, -0.25 * np.pi])

    def act(env):
        return one_fleet(md_choice=np.full(3, -1),
                         heading=headings + rng.normal(0.0, 0.3, 3),
                         speed=np.ones(3, dtype=np.uint8))

    run_episode(env, act)
    return env


class TestLinkMode:
    """Flight has one link mode, "none": stepping an env, whatever its
    record flag, opens no "env-channel" stream and sweeps no chain. The
    flag selects only whether the flight arrays are written."""

    @pytest.mark.parametrize("record", [True, False])
    def test_none_scores_and_draws_no_links(self, record, monkeypatch):
        opened, swept = [], []
        stream, chain_gains = mdp_env.rng_stream, isac_sdr._chain_gains
        monkeypatch.setattr(mdp_env, "rng_stream",
                            lambda *a: opened.append(a) or stream(*a))
        monkeypatch.setattr(isac_sdr, "_chain_gains",
                            lambda *a: swept.append(a) or chain_gains(*a))
        sc = build_scenario(ScenarioConfig(num_uavs=3, num_mds=4, seed=0,
                                           horizon_slots=6))
        env = CorridorEnv(sc, record=record)
        env.reset()
        act = one_fleet(md_choice=np.full(3, -1),
                        heading=np.array([0.0, -0.5 * np.pi, -0.25 * np.pi]),
                        speed=np.ones(3, dtype=np.uint8))
        done = False
        while not done:
            done, _ = env.step(act)
        assert (opened, swept) == ([], [])
        assert env.end_state.slot[0] == 6
        assert (env.flight is None) == (not record)
        if record:
            assert len(env.flown().final) == 6


class TestLinkVerdicts:
    """No chain link is drawn or scored in flight. score_links adds each
    slot's QoS term after landing, from the episode's "env-channel" stream,
    with the verdicts of sweeping each slot as it was flown."""

    def test_flight_draws_no_links_until_scored(self, monkeypatch):
        opened, swept = [], []
        stream, chain_gains = mdp_env.rng_stream, isac_sdr._chain_gains

        def counted_stream(*args):
            opened.append(args)
            return stream(*args)

        def counted_gains(*args):
            swept.append(len(args[0]))
            return chain_gains(*args)

        monkeypatch.setattr(mdp_env, "rng_stream", counted_stream)
        monkeypatch.setattr(isac_sdr, "_chain_gains", counted_gains)
        env = fly_link_failing_episode()
        assert (opened, swept) == ([], [])
        assert len(env.flown().final) == 40
        blocks = score_links(env.flown(), env.scenario, 3, separated=False,
                             build=False)
        assert (opened, swept) == ([], [])    # the stream sweeps as it is read
        first = next(blocks)
        assert opened == [(3, "env-channel")] and swept == [16]
        verdicts, designs = zip(first, *blocks)
        assert swept == [16, 16, 8]
        links = np.concatenate(verdicts)
        assert links.shape == (40, 2) and links.dtype == bool
        qos = reward_terms(env, links)["qos"]
        assert min(qos) < 0.0 and max(qos) == 0.0
        assert designs == (None, None, None)

    @pytest.mark.parametrize("separated", [False, True], ids=["isac", "separated"])
    def test_verdicts_do_not_depend_on_the_blocking(self, separated):
        env = fly_link_failing_episode()
        positions = env.flown().final
        verdicts = []
        for block in (1, mdp_env._BLOCK, len(positions)):
            rng = rng_stream(3, "env-channel")
            verdicts.append(np.concatenate([link_feasibility_sweep(
                positions[k:k + block], env.scenario, rng, env.sdr_opts,
                separated, build=False)[0]
                for k in range(0, len(positions), block)]))
        want = verdicts[0]
        assert all(np.array_equal(got, want) for got in verdicts)
        assert want.any() and not want.all()
        verdicts, designs = zip(*score_links(env.flown(), env.scenario, 3,
                                             separated, build=True))
        links = np.concatenate(verdicts)
        assert np.array_equal(links, want)
        assert [d.feasible for d in links_of(*designs)] == list(want.ravel())
        r = env.reward_cfg
        for verdict, qos in zip(want, reward_terms(env, links)["qos"]):
            total = 0.0
            for ok in verdict:
                total += r.link_pass if ok else r.link_fail
            assert qos == total

    def test_one_gain_matrix_per_slot(self, monkeypatch):
        sc = build_scenario(ScenarioConfig(num_uavs=3, num_mds=6, seed=1,
                                           horizon_slots=12))
        calls = []

        def counted(positions, scenario):
            calls.append(positions.copy())
            return uplink_gain2(positions, scenario)

        monkeypatch.setattr(mdp_env, "uplink_gain2", counted)
        env = CorridorEnv(sc)
        env.reset()
        done, slots = False, 0
        while not done:
            masks = env.open_masks()
            gain2 = env.gain2()
            assert not gain2.flags.writeable
            assert np.array_equal(gain2, uplink_gain2(env.state.positions, sc))
            md = np.full(3, -1)
            if masks[0, 0, :-1].any():
                md[0] = np.flatnonzero(masks[0, 0, :-1])[0]
            done, _ = env.step(one_fleet(
                md_choice=md, heading=np.array([0.0, -0.5, -1.0]),
                speed=np.ones(3, dtype=np.uint8)))
            slots += 1
        assert len(calls) == slots == 12


def test_trace_csv_round_trip(tmp_path):
    sc = build_scenario(ScenarioConfig(num_uavs=2, num_mds=3, seed=0,
                                       horizon_slots=8))
    env = CorridorEnv(sc)
    env.reset()
    done = False
    while not done:
        done, _ = env.step(hover(2))
    links = np.concatenate([verdicts for verdicts, _ in score_links(
        env.flown(), sc, 0, separated=False, build=False)])
    out = tmp_path / "trace.csv"
    # the trace reads the design stream of the same draws as it writes rows
    write_trace_csv(env.flown(), reward_terms(env, links),
                    (stack for _, stack in score_links(
                        env.flown(), sc, 0, separated=False, build=True)),
                    sc, out)
    lines = out.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert len(lines) == 9
    assert "x_0" in header and "served_md_1" in header and "r_total" in header
    assert all(len(line.split(",")) == len(header) for line in lines[1:])
    assert all(line.split(",")[-1] != "nan" for line in lines[1:])
