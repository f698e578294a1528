from dataclasses import replace

import numpy as np
import pytest

from uavisac import drl_mappo
from uavisac.drl_mappo import (ActorNet, Adam, CriticNet, MappoConfig,
                               MappoPolicy, act_in_env, actor_forward,
                               actor_loss_and_grads,
                               critic_forward, critic_loss_and_grads,
                               critic_update, gae, ppo_actor_update,
                               sample_actions, train)
from uavisac.energy import REFERENCE_PROPULSION
from uavisac.mdp_env import CorridorEnv, slot_costs
from uavisac.scenario import (ScenarioConfig, build_scenario, db_to_linear,
                              rng_stream)


def random_actor_batch(rng, actor, n=16, forced_ratio=None):
    obs = rng.standard_normal((n, actor.obs_dim))
    mask = rng.random((n, actor.n_actions)) < 0.7
    mask[:, -1] = True
    md, u, _, speed, logp = sample_actions(actor, obs, mask, rng)
    logp_old = logp if forced_ratio is None else logp - np.log(forced_ratio)
    adv = rng.standard_normal(n)
    return {"obs": obs, "mask": mask, "md": md, "u": u,
            "speed": speed.astype(float), "logp_old": logp_old, "adv": adv}


class TestActorDistribution:
    def setup_method(self):
        self.rng = rng_stream(0, "actor-test")
        self.actor = ActorNet(self.rng, obs_dim=6, n_actions=5, hidden=16)

    def test_masked_probability_exactly_zero(self):
        obs = self.rng.standard_normal((1, 6))
        mask = np.array([[True, False, True, False, True]])
        counts = np.zeros(5)
        for _ in range(2000):
            md, _, _, _, _ = sample_actions(self.actor, obs, mask, self.rng)
            counts[md[0]] += 1
        assert counts[1] == 0 and counts[3] == 0

    def test_logp_of_sample_is_finite(self):
        obs = self.rng.standard_normal((8, 6))
        mask = np.ones((8, 5), dtype=bool)
        _, _, _, _, logp = sample_actions(self.actor, obs, mask, self.rng)
        assert np.all(np.isfinite(logp))

    def test_same_rng_state_same_sample(self):
        obs = rng_stream(5, "obs").standard_normal((3, 6))
        mask = np.ones((3, 5), dtype=bool)
        a = sample_actions(self.actor, obs, mask, rng_stream(9, "draw"))
        b = sample_actions(self.actor, obs, mask, rng_stream(9, "draw"))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_forward_shapes(self):
        obs = self.rng.standard_normal((4, 6))
        mask = np.ones((4, 5), dtype=bool)
        logp_md, mu, sigma, z = actor_forward(self.actor, obs, mask)
        assert logp_md.shape == (4, 5) and mu.shape == (4,)
        assert sigma > 0 and z.shape == (4,)


class TestCritic:
    def test_zero_weights_give_zero_value(self):
        critic = CriticNet(rng_stream(1, "crit"), state_dim=10, hidden=8)
        for p in critic.params:
            p[...] = 0.0
        assert critic_forward(critic, np.ones(10))[0] == 0.0

    def test_deterministic(self):
        critic = CriticNet(rng_stream(2, "crit"), state_dim=10, hidden=8)
        s = rng_stream(3, "s").standard_normal(10)
        assert critic_forward(critic, s)[0] == critic_forward(critic, s)[0]

    def test_value_sensitive_to_every_state_block(self):
        # finite-difference sensitivity: each coordinate moves the value
        critic = CriticNet(rng_stream(4, "crit"), state_dim=12, hidden=16)
        s = rng_stream(5, "s").standard_normal(12)
        base = critic_forward(critic, s)[0]
        moved = 0
        for i in range(12):
            sp = s.copy()
            sp[i] += 0.5
            if abs(critic_forward(critic, sp)[0] - base) > 1e-9:
                moved += 1
        assert moved == 12


class TestGae:
    def test_single_step_equals_td_residual(self):
        adv = gae([2.0], [0.5], [True], 0.99, 0.95)
        assert adv[0] == pytest.approx(2.0 - 0.5)

    def test_zero_inputs_zero_advantages(self):
        adv = gae([0.0] * 5, [0.0] * 5, [False] * 4 + [True], 0.99, 0.95)
        assert np.allclose(adv, 0.0)

    def test_two_step_hand_value(self):
        # delta0 = 1 + 0.99*0 - 0 = 1; delta1 = 1; adv0 = 1 + 0.9405*1
        adv = gae([1.0, 1.0], [0.0, 0.0], [False, True], 0.99, 0.95)
        assert adv[1] == pytest.approx(1.0)
        assert adv[0] == pytest.approx(1.9405)

    def test_episode_boundary_resets(self):
        adv = gae([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [True, False, True],
                  0.99, 0.95)
        assert adv[0] == pytest.approx(1.0)

    def test_lambda_one_is_discounted_return_minus_baseline(self):
        rng = rng_stream(6, "gae")
        rewards = rng.standard_normal(5)
        values = rng.standard_normal(5)
        dones = [False, False, False, False, True]
        adv = gae(rewards, values, dones, 0.9, 1.0)
        for t in range(5):
            ret = sum(0.9 ** (k - t) * rewards[k] for k in range(t, 5))
            assert adv[t] == pytest.approx(ret - values[t], rel=1e-12)


class TestPpoArithmetic:
    def setup_method(self):
        self.rng = rng_stream(7, "ppo")
        self.actor = ActorNet(self.rng, obs_dim=5, n_actions=4, hidden=8)

    def test_unit_ratio_surrogate_is_mean_advantage(self):
        batch = random_actor_batch(self.rng, self.actor, forced_ratio=1.0)
        loss, _, diag = actor_loss_and_grads(self.actor, batch, 0.2, 0.0)
        assert loss == pytest.approx(-batch["adv"].mean(), rel=1e-9)
        assert diag["ratio_mean"] == pytest.approx(1.0, rel=1e-9)

    def test_ratio_above_clip_uses_clipped_value(self):
        batch = random_actor_batch(self.rng, self.actor, forced_ratio=1.5)
        batch["adv"] = np.abs(batch["adv"]) + 0.1
        loss, _, _ = actor_loss_and_grads(self.actor, batch, 0.2, 0.0)
        assert loss == pytest.approx(-1.2 * batch["adv"].mean(), rel=1e-9)

    def test_surrogate_never_exceeds_clip_envelope(self):
        for k in range(10):
            forced = float(rng_stream(k, "f").uniform(0.5, 2.0))
            batch = random_actor_batch(self.rng, self.actor, forced_ratio=forced)
            loss, _, _ = actor_loss_and_grads(self.actor, batch, 0.2, 0.0)
            envelope = np.maximum(forced * batch["adv"],
                                  np.clip(forced, 0.8, 1.2) * batch["adv"])
            assert -loss <= envelope.mean() + 1e-9

    def test_masked_head_columns_get_zero_gradient(self):
        batch = random_actor_batch(self.rng, self.actor)
        batch["mask"][:, 2] = False
        batch["md"] = np.where(batch["md"] == 2, 3, batch["md"])
        _, grads, _ = actor_loss_and_grads(self.actor, batch, 0.2, 0.01)
        gw_md = grads[4]
        assert np.allclose(gw_md[:, 2], 0.0)

    def test_nonfinite_gradient_aborts(self):
        batch = random_actor_batch(self.rng, self.actor)
        batch["adv"] = np.full_like(batch["adv"], np.nan)
        opt = Adam(self.actor.params, 1e-3)
        with pytest.raises(FloatingPointError):
            ppo_actor_update(self.actor, opt, batch, 0.2, 0.01)


class TestGradientChecks:
    """Backprop against central finite differences on small random networks."""

    def check(self, loss_fn, params, grads, probes, seed, rel=1e-4):
        probe_rng = rng_stream(seed, "probe")
        h = 1e-6
        for _ in range(probes):
            k = int(probe_rng.integers(len(params)))
            flat = int(probe_rng.integers(params[k].size))
            idx = np.unravel_index(flat, params[k].shape)
            params[k][idx] += h
            up = loss_fn()
            params[k][idx] -= 2 * h
            dn = loss_fn()
            params[k][idx] += h
            numeric = (up - dn) / (2 * h)
            analytic = grads[k][idx]
            scale = max(abs(numeric), abs(analytic), 1e-8)
            assert abs(numeric - analytic) / scale < rel, \
                f"param {k}{idx}: fd={numeric} vs grad={analytic}"

    def test_actor_gradients(self):
        rng = rng_stream(8, "gc-actor")
        actor = ActorNet(rng, obs_dim=6, n_actions=4, hidden=8)
        batch = random_actor_batch(rng, actor, n=12)
        _, grads, _ = actor_loss_and_grads(actor, batch, 0.2, 0.01)
        self.check(lambda: actor_loss_and_grads(actor, batch, 0.2, 0.01)[0],
                   actor.params, grads, probes=60, seed=1)

    def test_critic_gradients(self):
        rng = rng_stream(9, "gc-critic")
        critic = CriticNet(rng, state_dim=7, hidden=8)
        states = rng.standard_normal((10, 7))
        targets = rng.standard_normal(10)
        _, grads = critic_loss_and_grads(critic, states, targets)
        self.check(lambda: critic_loss_and_grads(critic, states, targets)[0],
                   critic.params, grads, probes=40, seed=2)


class TestCriticUpdate:
    def test_zero_error_zero_loss(self):
        critic = CriticNet(rng_stream(10, "cu"), state_dim=4, hidden=8)
        states = rng_stream(11, "s").standard_normal((6, 4))
        targets = critic_forward(critic, states)
        opt = Adam(critic.params, 1e-3)
        loss = critic_update(critic, opt, states, targets)
        assert loss == pytest.approx(0.0, abs=1e-20)

    def test_constant_shift_moves_bias_up(self):
        critic = CriticNet(rng_stream(12, "cu"), state_dim=4, hidden=8)
        states = rng_stream(13, "s").standard_normal((6, 4))
        targets = critic_forward(critic, states) + 1.0
        bias_before = critic.out.b.copy()
        opt = Adam(critic.params, 1e-3)
        loss = critic_update(critic, opt, states, targets)
        assert loss == pytest.approx(1.0, rel=1e-12)
        assert critic.out.b[0] > bias_before[0]


class TestCheckpointRoundTrip:
    def test_save_load_identical(self, tmp_path):
        rng = rng_stream(14, "ckpt")
        actor = ActorNet(rng, obs_dim=6, n_actions=4, hidden=8)
        critic = CriticNet(rng, state_dim=9, hidden=8)
        policy = MappoPolicy(actor, critic, MappoConfig(hidden=8, seed=3))
        path = tmp_path / "ckpt.npz"
        policy.save(path)
        loaded = MappoPolicy.load(path)
        for a, b in zip(policy.actor.params, loaded.actor.params):
            assert np.array_equal(a, b)
        for a, b in zip(policy.critic.params, loaded.critic.params):
            assert np.array_equal(a, b)
        assert loaded.config.seed == 3

        obs = rng.standard_normal((2, 6))
        mask = np.ones((2, 4), dtype=bool)
        a_out = actor_forward(policy.actor, obs, mask)
        b_out = actor_forward(loaded.actor, obs, mask)
        for x, y in zip(a_out[:2], b_out[:2]):
            assert np.array_equal(x, y)


class TestActInEnv:
    def test_masks_follow_claim_order(self):
        # three UAVs on one pad, MDs in reach of all: later agents lose the
        # MDs that earlier agents claimed this slot
        sc = build_scenario(ScenarioConfig(
            num_uavs=3, num_mds=4, seed=0, area_width=300.0, area_height=300.0,
            start=(0.0, 300.0), end=(300.0, 0.0)))
        env = CorridorEnv(sc, link_mode="none")
        rng = rng_stream(0, "act")
        actor = ActorNet(rng, env.obs_dim, env.n_actions, hidden=8)
        policy = MappoPolicy(actor, CriticNet(rng, env.state_dim, 8), MappoConfig())
        withheld = 0
        for episode in range(3):
            _, obs, _ = env.reset(episode)
            for _ in range(15):
                open_masks = env.open_masks()
                action, masks, _, _ = act_in_env(policy, env, obs, rng)
                for m in range(3):
                    claimed = action.md_choice[:m]
                    assert np.array_equal(masks[m], env.action_mask(m, claimed))
                    withheld += int((open_masks[m] & ~masks[m]).sum())
                _, _, obs, done, _ = env.step(action)
                if done:
                    break
        assert withheld > 0


class TestTrainLoop:
    def scenario(self):
        return build_scenario(ScenarioConfig(
            num_uavs=2, num_mds=3, horizon_slots=40, seed=0,
            area_width=600.0, area_height=600.0, start=(0.0, 600.0),
            end=(600.0, 0.0)))

    def test_zero_episodes_returns_initial_params(self):
        sc = self.scenario()
        cfg = MappoConfig(max_episodes=0, hidden=16, seed=0)
        policy, curve = train(sc, cfg)
        fresh = ActorNet(rng_stream(0, "init-actor"),
                         policy.actor.obs_dim, policy.actor.n_actions, 16)
        for a, b in zip(policy.actor.params, fresh.params):
            assert np.array_equal(a, b)
        assert curve.episode == []

    @pytest.mark.slow
    def test_seed_repeat_identical_curves(self):
        sc = self.scenario()
        cfg = MappoConfig(max_episodes=6, hidden=16, rollout=128,
                          minibatch=64, epochs=2, seed=4)
        _, c1 = train(sc, cfg)
        _, c2 = train(sc, cfg)
        assert c1.reward == c2.reward
        assert c1.value_loss == c2.value_loss

    def test_ppo_diagnostics_recorded_per_update(self, monkeypatch):
        updates = []
        update = drl_mappo._update

        def counted(*args, **kwargs):
            updates.append(1)
            return update(*args, **kwargs)

        monkeypatch.setattr(drl_mappo, "_update", counted)
        cfg = MappoConfig(max_episodes=3, hidden=16, rollout=64,
                          minibatch=32, epochs=2, seed=4)
        _, curve = train(self.scenario(), cfg)
        assert len(updates) >= 2
        for diag in (curve.ratio_mean, curve.clip_fraction, curve.entropy):
            assert len(diag) == len(updates)
            assert np.all(np.isfinite(diag))
        assert all(0.0 <= f <= 1.0 for f in curve.clip_fraction)
        assert all(r > 0.0 for r in curve.ratio_mean)

    def test_env_energy_follows_the_given_propulsion(self, monkeypatch):
        envs = []

        class Recorded(CorridorEnv):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, record=True, **kwargs)
                envs.append(self)

        monkeypatch.setattr(drl_mappo, "CorridorEnv", Recorded)
        sc = self.scenario()
        heavy = replace(REFERENCE_PROPULSION,
                        p0_blade=2.0 * REFERENCE_PROPULSION.p0_blade)
        train(sc, MappoConfig(max_episodes=1, hidden=16, seed=4),
              propulsion=heavy)
        (env,) = envs
        costs = slot_costs(sc.config, heavy)
        spent = np.zeros(sc.config.num_uavs)
        for rec in env.trace:
            spent += costs[rec.speeds]
        assert np.array_equal(env.state.energy_per_uav, spent)
        assert not np.array_equal(costs, slot_costs(sc.config,
                                                    REFERENCE_PROPULSION))

    def test_link_failing_world_records_every_link_margin(self, monkeypatch):
        # every slot draws and solves its own links, so no recorded link
        # margin is missing, also where episodes revisit a slot's formation
        traces = []

        class Recorded(CorridorEnv):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, record=True, **kwargs)

            def reset(self, seed):
                out = super().reset(seed)
                traces.append(self.trace)
                return out

        monkeypatch.setattr(drl_mappo, "CorridorEnv", Recorded)
        sc = build_scenario(replace(self.scenario().config,
                                    gamma_th_uav=db_to_linear(40.0)))
        cfg = MappoConfig(max_episodes=3, hidden=16, rollout=64,
                          minibatch=32, epochs=1, seed=4)
        train(sc, cfg)
        assert len(traces) == 3
        margins = np.array([d.margin for trace in traces for rec in trace
                            for d in rec.link_designs])
        assert len(margins) == sum(len(trace) for trace in traces)
        assert not np.isnan(margins).any()
        assert (margins < 0.0).any()        # the world has failing links

    @pytest.mark.slow
    def test_curve_csv(self, tmp_path):
        sc = self.scenario()
        cfg = MappoConfig(max_episodes=3, hidden=16, rollout=128,
                          minibatch=64, epochs=1, seed=4)
        _, curve = train(sc, cfg)
        path = tmp_path / "curve.csv"
        curve.write_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "episode,reward,smoothed_reward,value_loss,success"
        assert len(lines) == 4
