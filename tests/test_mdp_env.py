from copy import deepcopy
from dataclasses import replace

import numpy as np
import pytest

from uavisac import isac_sdr, mdp_env
from uavisac.energy import flight_power, hover_power
from uavisac.isac_sdr import link_feasibility_sweep, link_reward
from uavisac.mdp_env import (CorridorEnv, JointAction, check_constraints,
                             reward_terms, run_episode, score_links,
                             uplink_gain2, write_trace_csv)
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


def observations_oracle(env) -> np.ndarray:
    """Per-agent loop over the observation layout, kept as the reference for
    the env's array-form observations()."""
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
    c01 = s.collected.astype(float)
    for m in range(env.n_agents):
        p = s.positions[m]
        md_feat = np.column_stack([bearings(p, env.scenario.md_positions), c01])
        others = np.delete(s.positions, m, axis=0)
        parts = [
            [np.cos(s.headings[m]), np.sin(s.headings[m])],
            [2 * p[0] / cfg.area_width - 1, 2 * p[1] / cfg.area_height - 1],
            [2 * s.residual_energy[m] / cfg.e_total - 1],
            bearings(p, end3[None, :]).ravel(),
            md_feat.ravel(),
            bearings(p, others).ravel() if len(others) else [],
            np.eye(env.n_agents)[m],
        ]
        out[m] = np.concatenate(
            [np.atleast_1d(np.asarray(q, float)) for q in parts])
    return out


def critic_state_oracle(env) -> np.ndarray:
    cfg, md = env.cfg, env.scenario.md_positions
    return np.concatenate([observations_oracle(env).ravel(),
                           2 * md[:, 0] / cfg.area_width - 1,
                           2 * md[:, 1] / cfg.area_height - 1,
                           env.state.collected.astype(float)])


def terms(env):
    """The post-flight reward terms of the slots ``env`` flew, QoS at 0."""
    return reward_terms(env, np.zeros(env.state.slot))


def hover_action(env, md=None):
    act = JointAction.hover(env.n_agents)
    if md is not None:
        act.md_choice[:len(md)] = md
    return act


class TestReset:
    def test_initial_conditions(self):
        sc = build_scenario(ScenarioConfig(num_uavs=3, seed=1))
        env = CorridorEnv(sc)
        assert env.reset(0) is None
        state = env.state
        obs = env.observations()
        critic = env.critic_state(obs)
        assert np.allclose(state.positions, [0.0, 2500.0, 80.0])
        assert np.all(state.collected == 0)
        assert np.all(state.residual_energy == sc.config.e_total)
        assert obs.shape == (3, env.obs_dim)
        assert critic.shape == (env.state_dim,)
        assert np.all(np.abs(obs) <= 1.0 + 1e-9)

    def test_seed_repeat_identical(self):
        sc = build_scenario(ScenarioConfig(num_uavs=2, num_mds=5, seed=1))
        env = CorridorEnv(sc)

        def episode():
            env.reset(7)
            out = []
            for k in range(30):
                act = JointAction(md_choice=np.array([-1, -1]),
                                  heading=np.array([0.1 * k, -0.2 * k]),
                                  speed=np.array([1, 1], dtype=np.uint8))
                env.step(act)
                out.append(env.state.positions.copy())
            return out, terms(env)["total"]

        (a, ra), (b, rb) = episode(), episode()
        for pa, pb in zip(a, b):
            assert np.array_equal(pa, pb)
        assert ra.tobytes() == rb.tobytes()


class TestObservations:
    @pytest.mark.parametrize("m_count", [1, 2, 3, 5])
    def test_matches_per_agent_oracle(self, m_count):
        sc = build_scenario(ScenarioConfig(num_uavs=m_count, num_mds=7,
                                           seed=m_count))
        cfg = sc.config
        env = CorridorEnv(sc)
        env.reset(0)
        rng = np.random.default_rng(m_count)
        for trial in range(20):
            s = env.state
            s.positions = np.column_stack([
                rng.uniform(0.0, cfg.area_width, m_count),
                rng.uniform(0.0, cfg.area_height, m_count),
                np.full(m_count, cfg.altitude)])
            if trial % 5 == 0:      # co-located UAVs and a UAV over an MD
                s.positions[-1] = s.positions[0]
                s.positions[0, :2] = sc.md_positions[trial % 7, :2]
            s.headings = rng.uniform(-np.pi, np.pi, m_count)
            s.residual_energy = rng.uniform(0.0, cfg.e_total, m_count)
            s.collected = (rng.random(cfg.num_mds) < 0.4).astype(np.uint8)
            obs = env.observations()
            assert obs.shape == (m_count, env.obs_dim)
            assert np.array_equal(obs, observations_oracle(env))
            critic = critic_state_oracle(env)
            assert np.array_equal(env.critic_state(), critic)
            assert np.array_equal(env.critic_state(obs), critic)

    def test_stepped_states_match_oracle(self):
        sc = build_scenario(ScenarioConfig(num_uavs=3, num_mds=6, seed=4))
        env = CorridorEnv(sc)
        env.reset(2)
        rng = np.random.default_rng(5)
        for _ in range(25):
            obs = env.observations()
            assert np.array_equal(obs, observations_oracle(env))
            assert np.array_equal(env.critic_state(obs), critic_state_oracle(env))
            act = JointAction(md_choice=np.full(3, -1),
                              heading=rng.uniform(-np.pi, np.pi, 3),
                              speed=rng.integers(0, 2, 3).astype(np.uint8))
            env.step(act)

    def test_injected_state_is_followed(self):
        # one MD beside the start pad, one far away
        sc = make_scenario([[30.0, 2470.0, 0.0], [2000.0, 500.0, 0.0]],
                           num_uavs=2)
        env = CorridorEnv(sc)
        env.reset(0)
        assert env.action_mask(0)[0] and not env.action_mask(0)[1]
        env.state.collected[:] = 1
        obs = env.observations()
        assert np.array_equal(obs, observations_oracle(env))
        assert np.all(obs[:, 8 + 3:8 + 4 * 2:4] == 1.0)
        assert np.array_equal(env.critic_state(), critic_state_oracle(env))
        for m in range(2):
            mask = env.action_mask(m)
            assert mask[-1] and not mask[:-1].any()
        env.state.collected[:] = 0
        env.state.positions = np.array([[2000.0, 500.0, 80.0],
                                        [1990.0, 520.0, 80.0]])
        obs = env.observations()
        assert np.array_equal(obs, observations_oracle(env))
        assert obs[0, 2] == 2 * 2000.0 / sc.config.area_width - 1
        assert not env.action_mask(0)[0] and env.action_mask(0)[1]
        assert env.action_mask(1, [1])[1] == False  # noqa: E712

    def test_shaping_follows_injected_state(self):
        # a slot's start potential is the previous slot's end potential,
        # unless the state was changed in between
        sc = make_scenario([[1200.0, 1200.0, 0.0], [600.0, 1800.0, 0.0]])
        end = np.array(sc.config.end)

        def potential(env):
            r, s = env.reward_cfg, env.state
            open_md = sc.md_positions[s.collected == 0, :2]
            dist = np.sqrt(((open_md[None] - s.positions[:, None, :2]) ** 2).sum(axis=2))
            d_end = np.linalg.norm(s.positions[:, :2] - end, axis=1)
            return (-r.shaping_md * float(dist.min(axis=0).sum())
                    - r.shaping_end * float(d_end.sum()))

        def inject_collected(env):
            env.state.collected[:] = [1, 0]

        def inject_positions(env):
            env.state.positions = np.array([[900.0, 1500.0, 80.0]])

        act = JointAction(md_choice=np.array([-1]), heading=np.array([0.3]),
                          speed=np.array([1], dtype=np.uint8))
        for inject in (inject_collected, inject_positions):
            fresh, stepped = CorridorEnv(sc), CorridorEnv(sc)
            fresh.reset(0)
            stepped.reset(0)
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
        env.reset(0)
        env.state.collected[:] = 1
        mask = env.action_mask(0, [])
        assert mask[-1] and not mask[:-1].any()

    def test_out_of_range_md_masked(self):
        # the only MD sits 2 km from the start pad: below the SINR gate
        sc = make_scenario([[2000.0, 500.0, 0.0]])
        env = CorridorEnv(sc)
        env.reset(0)
        mask = env.action_mask(0, [])
        assert mask[-1] and not mask[:-1].any()

    def test_claimed_md_masked_for_later_agent(self):
        sc = make_scenario([[30.0, 2470.0, 0.0]], num_uavs=2)
        env = CorridorEnv(sc)
        env.reset(0)
        assert env.action_mask(0, [])[0]
        assert env.action_mask(1, [0])[0] == False  # noqa: E712
        assert env.action_mask(1, [-1])[0]

    def test_claimed_noop_stays_on(self):
        # act_in_env stores the no-op index for an agent that claims no MD
        sc = make_scenario([[30.0, 2470.0, 0.0]], num_uavs=2)
        env = CorridorEnv(sc)
        env.reset(0)
        mask = env.action_mask(1, [env.n_mds])
        assert mask[-1]
        assert np.array_equal(mask, env.open_masks()[1])

    def test_mask_violation_rejected(self):
        sc = make_scenario([[30.0, 2470.0, 0.0]], num_uavs=2)
        env = CorridorEnv(sc)
        env.reset(0)
        act = JointAction(md_choice=np.array([0, 0]),
                          heading=np.zeros(2), speed=np.zeros(2, dtype=np.uint8))
        with pytest.raises(ValueError, match="mask violation"):
            env.step(act)

    @pytest.mark.parametrize("field, value", [
        ("heading", 0.5),                           # scalar, not (M,)
        ("speed", np.ones(1, dtype=np.uint8)),      # length 1, not (M,)
        ("md_choice", np.array([-7, -1])),          # below the idle -1
        ("heading", np.array([np.nan, 0.0])),
        ("heading", np.array([np.inf, 0.0])),
        ("speed", np.array([0.7, 0.0])),            # not cast to hover
        ("md_choice", np.array([0.9, -1]))])        # not cast to MD 0
    def test_malformed_joint_action_rejected(self, field, value):
        sc = make_scenario([[30.0, 2470.0, 0.0]], num_uavs=2)
        env = CorridorEnv(sc)
        env.reset(0)
        with pytest.raises(ValueError, match="malformed joint action"):
            env.step(replace(JointAction.hover(2), **{field: value}))
        assert env.state.slot == 0


class TestStepKinematics:
    def test_heading_zero_advances_x(self):
        sc = make_scenario([[1200.0, 1200.0, 0.0]])
        env = CorridorEnv(sc)
        env.reset(0)
        act = JointAction(md_choice=np.array([-1]), heading=np.array([0.0]),
                          speed=np.array([1], dtype=np.uint8))
        env.step(act)
        state = env.state
        assert np.allclose(state.positions[0], [20.0, 2500.0, 80.0])

    def test_altitude_preserved_exactly(self):
        sc = make_scenario([[1200.0, 1200.0, 0.0]])
        env = CorridorEnv(sc)
        env.reset(0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            act = JointAction(md_choice=np.array([-1]),
                              heading=np.array([rng.uniform(-np.pi, np.pi)]),
                              speed=np.array([1], dtype=np.uint8))
            env.step(act)
            state = env.state
            assert state.positions[0, 2] == 80.0

    def test_area_clipping(self):
        sc = make_scenario([[1200.0, 1200.0, 0.0]])
        env = CorridorEnv(sc)
        env.reset(0)
        act = JointAction(md_choice=np.array([-1]), heading=np.array([np.pi / 2]),
                          speed=np.array([1], dtype=np.uint8))
        env.step(act)  # pushing past the top edge
        state = env.state
        assert state.positions[0, 1] == 2500.0


class TestCollection:
    def test_collects_within_range(self):
        sc = make_scenario([[30.0, 2470.0, 0.0]])
        env = CorridorEnv(sc)
        env.reset(0)
        env.step(hover_action(env, md=[0]))
        state = env.state
        assert state.collected[0] == 1
        assert terms(env)["collection"][0] == pytest.approx(10.0)

    def test_interference_blocks_collection(self):
        # symmetric MDs between two co-serving UAVs: cross interference drops
        # the realized SINR below the gate even though the mask allowed it
        md = [[0.0, 30.0, 0.0], [30.0, 0.0, 0.0],
              [120.0, 30.0, 0.0], [70.0, 0.0, 0.0]]
        sc = make_scenario(md, num_uavs=2, start=(0.0, 0.0), end=(2500.0, 2500.0))
        env = CorridorEnv(sc)
        env.reset(0)
        env.state.positions = np.array([[0.0, 0.0, 80.0], [85.0, 0.0, 80.0]])
        mask0 = env.action_mask(0, [])
        mask1 = env.action_mask(1, [1])
        assert mask0[1] and mask1[3]
        act = JointAction(md_choice=np.array([1, 3]), heading=np.zeros(2),
                          speed=np.zeros(2, dtype=np.uint8))
        env.step(act)
        state = env.state
        # both uplinks suffer a near-equal-power interferer, so neither clears
        assert state.collected[1] == 0 and state.collected[3] == 0
        assert terms(env)["collection"][0] == 0.0

    def test_collection_is_monotone(self):
        sc = build_scenario(ScenarioConfig(num_uavs=2, num_mds=8, seed=2))
        env = CorridorEnv(sc)
        env.reset(3)
        prev = env.state.collected.copy()
        rng = np.random.default_rng(1)
        for _ in range(80):
            claimed, md = [], []
            for m in range(2):
                mask = env.action_mask(m, claimed)
                valid = np.flatnonzero(mask)
                pick = int(rng.choice(valid))
                c = pick if pick < env.n_mds else -1
                md.append(c)
                claimed.append(c)
            act = JointAction(md_choice=np.array(md),
                              heading=rng.uniform(-np.pi, np.pi, 2),
                              speed=rng.integers(0, 2, 2).astype(np.uint8))
            done, _ = env.step(act)
            state = env.state
            assert np.all(state.collected >= prev)
            prev = state.collected.copy()
            if done:
                break


class TestSafety:
    def test_close_pair_penalized(self):
        sc = make_scenario([[2000.0, 300.0, 0.0]], num_uavs=2)
        env = CorridorEnv(sc)
        env.reset(0)
        env.state.positions = np.array([[1000.0, 1000.0, 80.0],
                                        [1008.0, 1000.0, 80.0]])
        env.step(hover_action(env))
        assert terms(env)["distance"][0] == pytest.approx(-5.0)

    def test_penalty_and_audit_share_the_threshold(self):
        # a pair within the audit's 1e-9 m tolerance of d_min is neither
        # penalized nor counted
        sc = make_scenario([[2000.0, 300.0, 0.0]], num_uavs=2)
        env = CorridorEnv(sc)
        env.reset(0)
        gap = sc.config.d_min - 5e-10
        env.state.positions = np.array([[1000.0, 1000.0, 80.0],
                                        [1000.0 + gap, 1000.0, 80.0]])
        env.step(hover_action(env))
        assert terms(env)["distance"][0] == 0.0
        assert check_constraints(env.flown(), [], sc,
                                 connected=False).min_distance == 0

    def test_override_prevents_closing_in(self):
        sc = make_scenario([[2000.0, 300.0, 0.0]], num_uavs=2)
        env = CorridorEnv(sc)
        env.reset(0)
        env.state.positions = np.array([[1000.0, 1000.0, 80.0],
                                        [1025.0, 1000.0, 80.0]])
        # head-on at 20 m/s each would end 15 m apart... still legal;
        # repeat until the override must trigger
        for _ in range(3):
            act = JointAction(md_choice=np.array([-1, -1]),
                              heading=np.array([0.0, np.pi]),
                              speed=np.ones(2, dtype=np.uint8))
            env.step(act)
            state = env.state
            d = np.linalg.norm(state.positions[0] - state.positions[1])
            assert d >= sc.config.d_min - 1e-9

    def test_shared_start_pad_is_exempt(self):
        sc = make_scenario([[2000.0, 300.0, 0.0]], num_uavs=3)
        env = CorridorEnv(sc)
        env.reset(0)
        env.step(hover_action(env))
        assert terms(env)["distance"][0] == 0.0


class TestEnergyAccounting:
    def test_hover_and_flight_rates(self):
        sc = make_scenario([[1200.0, 1200.0, 0.0]])
        env = CorridorEnv(sc)
        env.reset(0)
        env.step(hover_action(env))
        state = env.state
        assert state.cumulative_energy == pytest.approx(hover_power())
        act = JointAction(md_choice=np.array([-1]), heading=np.array([0.0]),
                          speed=np.array([1], dtype=np.uint8))
        env.step(act)
        state = env.state
        assert state.cumulative_energy == pytest.approx(hover_power() + flight_power(20.0))

    def test_objective_matches_offline_recomputation(self):
        sc = build_scenario(ScenarioConfig(num_uavs=2, num_mds=4, seed=5))
        env = CorridorEnv(sc)
        env.reset(1)
        rng = np.random.default_rng(2)
        for _ in range(60):
            act = JointAction(md_choice=np.array([-1, -1]),
                              heading=rng.uniform(-np.pi, np.pi, 2),
                              speed=rng.integers(0, 2, 2).astype(np.uint8))
            done, _ = env.step(act)
            state = env.state
            if done:
                break
        recomputed = sum(
            (flight_power(20.0) if moved else hover_power())
            * sc.config.slot_seconds
            for moved in env.flown().moved.ravel())
        assert state.cumulative_energy == pytest.approx(recomputed, rel=1e-9)

    def test_battery_exhaustion_terminates(self):
        sc = make_scenario([[1200.0, 1200.0, 0.0]], e_total=400.0)
        env = CorridorEnv(sc)
        env.reset(0)
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
        env.reset(2)
        rng = np.random.default_rng(3)
        for _ in range(30):
            act = JointAction(md_choice=np.array([-1, -1, -1]),
                              heading=rng.uniform(-np.pi, np.pi, 3),
                              speed=rng.integers(0, 2, 3).astype(np.uint8))
            done, _ = env.step(act)
            if done:
                break
        rew = reward_terms(env, rng.uniform(-2.0, 0.0, env.state.slot))
        parts = (rew["collection"] + rew["qos"] + rew["energy"]
                 + rew["distance"] + rew["bonus"] + rew["shaping"])
        assert np.array_equal(rew["total"], parts)


class TestTermination:
    def test_success_requires_coverage_and_arrival(self):
        sc = make_scenario([[30.0, 2470.0, 0.0]], end=(100.0, 2500.0),
                           arrival_radius=40.0)
        env = CorridorEnv(sc)
        env.reset(0)
        done, success = env.step(hover_action(env, md=[0]))
        state = env.state
        assert state.collected.all() and not done
        # fly to the nearby end point
        for _ in range(10):
            act = JointAction(md_choice=np.array([-1]), heading=np.array([0.0]),
                              speed=np.array([1], dtype=np.uint8))
            done, success = env.step(act)
            state = env.state
            if done:
                break
        assert done and success
        bonus = terms(env)["bonus"]
        assert bonus[-1] == pytest.approx(50.0) and not bonus[:-1].any()

    def test_horizon_cap(self):
        sc = make_scenario([[2300.0, 200.0, 0.0]], horizon_slots=5)
        env = CorridorEnv(sc)
        env.reset(0)
        done = False
        n = 0
        while not done:
            done, success = env.step(hover_action(env))
            n += 1
        assert n == 5 and not success
        assert not terms(env)["bonus"].any()

    def test_step_past_the_horizon_rejected(self):
        # the flight arrays hold horizon_slots slots; a step past them
        # changes neither the state nor the arrays
        sc = make_scenario([[2300.0, 200.0, 0.0]], horizon_slots=3)
        env = CorridorEnv(sc)
        env.reset(0)
        while not env.step(hover_action(env))[0]:
            pass
        state, flight = deepcopy(env.state), deepcopy(env.flight)
        with pytest.raises(RuntimeError, match="horizon"):
            env.step(hover_action(env))
        for name, value in vars(state).items():
            assert np.array_equal(getattr(env.state, name), value)
        for name, rows in vars(flight).items():
            assert np.array_equal(getattr(env.flight, name), rows)
        assert len(env.flight.final) == env.state.slot == 3


class TestConstraintAudit:
    def test_hover_forever_misses_all_coverage(self):
        sc = build_scenario(ScenarioConfig(num_uavs=1, num_mds=12, seed=0,
                                           horizon_slots=10))
        env = CorridorEnv(sc)
        env.reset(0)
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
        env.reset(0)
        done, _ = env.step(hover_action(env, md=[1, 3]))
        assert done and env.state.collected.sum() == 0
        sinr = env.flown().served_sinr[0]
        assert (sinr < sc.config.gamma_th_md).all()
        assert sinr == pytest.approx([1.86, 0.34], abs=0.005)
        rep = check_constraints(env.flown(), [], sc, connected=False)
        assert (rep.coverage_missing, rep.uplink_gating) == (6, 2)

    def test_single_uav_has_no_distance_violations(self):
        sc = build_scenario(ScenarioConfig(num_uavs=1, num_mds=3, seed=0,
                                           horizon_slots=20))
        env = CorridorEnv(sc)
        env.reset(0)
        done = False
        rng = np.random.default_rng(0)
        while not done:
            act = JointAction(md_choice=np.array([-1]),
                              heading=np.array([rng.uniform(-np.pi, np.pi)]),
                              speed=np.array([1], dtype=np.uint8))
            done, _ = env.step(act)
        rep = check_constraints(env.flown(), [], sc)
        assert rep.min_distance == 0

    def test_feasible_designs_audit_clean(self):
        sc = build_scenario(ScenarioConfig(num_uavs=3, num_mds=4, seed=0,
                                           horizon_slots=15))
        env = CorridorEnv(sc)
        env.reset(0)
        done = False
        rng = np.random.default_rng(5)
        while not done:
            act = JointAction(md_choice=np.array([-1, -1, -1]),
                              heading=rng.uniform(-np.pi, np.pi, 3),
                              speed=np.ones(3, dtype=np.uint8))
            done, _ = env.step(act)
        _, designs = score_links(env, 0, separated=False, build=True)
        rep = check_constraints(env.flown(), designs, sc)
        assert len(designs) == 2 * env.state.slot
        assert rep.power_budget == 0 and rep.psd == 0 and rep.tbp == 0
        assert rep.md_exclusivity == 0

    def test_separated_episode_audits_clean(self):
        sc = build_scenario(ScenarioConfig(num_uavs=3, num_mds=4, seed=0,
                                           horizon_slots=15))
        env = CorridorEnv(sc)
        env.reset(0)
        done = False
        rng = np.random.default_rng(5)
        while not done:
            act = JointAction(md_choice=np.array([-1, -1, -1]),
                              heading=rng.uniform(-np.pi, np.pi, 3),
                              speed=np.ones(3, dtype=np.uint8))
            done, _ = env.step(act)
        _, designs = score_links(env, 0, separated=True, build=True)
        rep = check_constraints(env.flown(), designs, sc)
        assert (rep.md_exclusivity, rep.power_budget, rep.psd, rep.tbp,
                rep.min_distance) == (0, 0, 0, 0, 0)
        failed = sum(not d.feasible for d in designs)
        assert rep.inter_uav_sinr == failed
        margins = np.array([d.margin for d in designs])
        assert len(margins) == 2 * env.state.slot
        assert np.all(np.isfinite(margins))

    def test_disconnected_reports_na(self):
        sc = build_scenario(ScenarioConfig(num_uavs=1, num_mds=2, seed=0,
                                           horizon_slots=5))
        env = CorridorEnv(sc)
        env.reset(0)
        done = False
        while not done:
            done, _ = env.step(hover_action(env))
        rep = check_constraints(env.flown(), [], sc, connected=False)
        assert rep.inter_uav_sinr is None


def fly_link_failing_episode(seed):
    """A 40-slot episode of three UAVs spreading out under a 22 dB
    link SINR floor, so some of its chain links fail."""
    sc = build_scenario(ScenarioConfig(num_uavs=3, num_mds=4, seed=0,
                                       horizon_slots=40,
                                       gamma_th_uav=db_to_linear(22.0)))
    env = CorridorEnv(sc)
    rng = np.random.default_rng(11)
    headings = np.array([0.0, -0.5 * np.pi, -0.25 * np.pi])

    def act(env):
        return JointAction(md_choice=np.full(3, -1),
                           heading=headings + rng.normal(0.0, 0.3, 3),
                           speed=np.ones(3, dtype=np.uint8))

    run_episode(env, seed, act)
    return env


class TestLinkMode:
    """Flight has one link mode, "none": stepping an env, whatever its
    record flag, opens no "env-channel" stream and sweeps no chain."""

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
        env.reset(0)
        act = JointAction(md_choice=np.full(3, -1),
                          heading=np.array([0.0, -0.5 * np.pi, -0.25 * np.pi]),
                          speed=np.ones(3, dtype=np.uint8))
        done = False
        while not done:
            done, _ = env.step(act)
        assert (opened, swept) == ([], [])
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
        env = fly_link_failing_episode(3)
        assert (opened, swept) == ([], [])
        assert len(env.flown().final) == 40
        qos, designs = score_links(env, 3, separated=False, build=False)
        assert opened == [(3, "env-channel")]
        assert swept == [16, 16, 8]
        assert qos.shape == (40,) and min(qos) < 0.0 and max(qos) == 0.0
        assert designs == []

    @pytest.mark.parametrize("separated", [False, True], ids=["isac", "separated"])
    def test_verdicts_do_not_depend_on_the_blocking(self, separated):
        env = fly_link_failing_episode(3)
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
        qos, designs = score_links(env, 3, separated, build=True)
        r = env.reward_cfg
        assert [d.feasible for d in designs] == list(want.ravel())
        assert qos.tolist() == [link_reward(verdict, r.link_pass, r.link_fail)
                                for verdict in want]

    def test_one_gain_matrix_per_slot(self, monkeypatch):
        sc = build_scenario(ScenarioConfig(num_uavs=3, num_mds=6, seed=1,
                                           horizon_slots=12))
        calls = []

        def counted(positions, scenario):
            calls.append(positions.copy())
            return uplink_gain2(positions, scenario)

        monkeypatch.setattr(mdp_env, "uplink_gain2", counted)
        env = CorridorEnv(sc)
        env.reset(0)
        done, slots = False, 0
        while not done:
            masks = env.open_masks()
            gain2 = env.gain2()
            assert not gain2.flags.writeable
            assert np.array_equal(gain2, uplink_gain2(env.state.positions, sc))
            md = np.full(3, -1)
            if masks[0, :-1].any():
                md[0] = np.flatnonzero(masks[0, :-1])[0]
            done, _ = env.step(JointAction(
                md_choice=md, heading=np.array([0.0, -0.5, -1.0]),
                speed=np.ones(3, dtype=np.uint8)))
            slots += 1
        assert len(calls) == slots == 12


def test_trace_csv_round_trip(tmp_path):
    sc = build_scenario(ScenarioConfig(num_uavs=2, num_mds=3, seed=0,
                                       horizon_slots=8))
    env = CorridorEnv(sc)
    env.reset(0)
    done = False
    while not done:
        done, _ = env.step(JointAction.hover(2))
    qos, designs = score_links(env, 0, separated=False, build=True)
    out = tmp_path / "trace.csv"
    write_trace_csv(env.flown(), reward_terms(env, qos), designs, sc, out)
    lines = out.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert len(lines) == 9
    assert "x_0" in header and "served_md_1" in header and "r_total" in header
    assert all(len(line.split(",")) == len(header) for line in lines[1:])
    assert all(line.split(",")[-1] != "nan" for line in lines[1:])
