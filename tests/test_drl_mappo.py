import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from test_reward_oracle import oracle_step
from uavisac import drl_mappo, nn
from uavisac.drl_mappo import (ActorNet, Adam, CriticNet, MappoConfig,
                               MappoPolicy, _update, act_in_env, actor_forward,
                               actor_loss_and_grads,
                               critic_forward, critic_loss_and_grads,
                               critic_update, gae, ppo_actor_update,
                               run_policy_episode, sample_actions, train)
from uavisac.energy import REFERENCE_PROPULSION
from uavisac.isac_sdr import link_feasibility_sweep, link_reward
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
        opt = Adam([self.actor.vec], 1e-3)
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
        opt = Adam([critic.vec], 1e-3)
        loss = critic_update(critic, opt, states, targets)
        assert loss == pytest.approx(0.0, abs=1e-20)

    def test_constant_shift_moves_bias_up(self):
        critic = CriticNet(rng_stream(12, "cu"), state_dim=4, hidden=8)
        states = rng_stream(13, "s").standard_normal((6, 4))
        targets = critic_forward(critic, states) + 1.0
        bias_before = critic.out.b.copy()
        opt = Adam([critic.vec], 1e-3)
        loss = critic_update(critic, opt, states, targets)
        assert loss == pytest.approx(1.0, rel=1e-12)
        assert critic.out.b[0] > bias_before[0]


class TestCheckpointRoundTrip:
    def test_save_load_identical(self, tmp_path, monkeypatch):
        # the nets are built from the file's arrays, in their dtype, with no
        # initial draw to overwrite
        draws = []
        orthogonal = nn.orthogonal
        monkeypatch.setattr(nn, "orthogonal",
                            lambda *args: draws.append(args) or orthogonal(*args))
        for dtype in (np.float32, np.float64):
            rng = rng_stream(14, "ckpt")
            actor = ActorNet(rng, obs_dim=6, n_actions=4, hidden=8, dtype=dtype)
            critic = CriticNet(rng, state_dim=9, hidden=8, dtype=dtype)
            policy = MappoPolicy(actor, critic, MappoConfig(hidden=8, seed=3))
            path = tmp_path / f"ckpt-{np.dtype(dtype).name}.npz"
            policy.save(path)
            assert len(draws) == 8          # five actor layers, three critic
            del draws[:]
            loaded = MappoPolicy.load(path)
            assert draws == []
            for a, b in zip(policy.actor.params + policy.critic.params,
                            loaded.actor.params + loaded.critic.params,
                            strict=True):
                assert np.array_equal(a, b) and b.dtype == dtype
            assert loaded.actor.vec.dtype == loaded.critic.vec.dtype == dtype
            assert loaded.config.seed == 3
            assert MappoPolicy.read_meta(path)["state_dim"] == 9

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
        env = CorridorEnv(sc)
        rng = rng_stream(0, "act")
        actor = ActorNet(rng, env.obs_dim, env.n_actions, hidden=8)
        policy = MappoPolicy(actor, CriticNet(rng, env.state_dim, 8), MappoConfig())
        withheld = 0
        for episode in range(3):
            env.reset(episode)
            for _ in range(15):
                open_masks = env.open_masks()
                action, (_, masks, md_head, _, speed, _) = act_in_env(policy, env, rng)
                assert np.array_equal(action.md_choice,
                                      np.where(md_head < env.n_mds, md_head, -1))
                assert speed is action.speed
                for m in range(3):
                    claimed = action.md_choice[:m]
                    assert np.array_equal(masks[m], env.action_mask(m, claimed))
                    withheld += int((open_masks[m] & ~masks[m]).sum())
                done, _ = env.step(action)
                if done:
                    break
        assert withheld > 0


def test_policy_mission_observes_once_per_slot(monkeypatch):
    sc = build_scenario(ScenarioConfig(num_uavs=2, num_mds=3, seed=0,
                                       horizon_slots=30))
    policy, _ = train(sc, MappoConfig(max_episodes=0, hidden=16, seed=0))
    built = []
    observations = CorridorEnv.observations

    def counted(env):
        built.append(env.state.slot)
        return observations(env)

    monkeypatch.setattr(CorridorEnv, "observations", counted)
    _, slots, _, _ = run_policy_episode(policy, CorridorEnv(sc), 0)
    assert built == list(range(slots))


def record_dtypes(monkeypatch):
    """(what, dtype) of every Workspace buffer, network product (operands
    and result), stacked rollout array gathered into a minibatch, minibatch
    float input and gradient, as the calls go by."""
    seen = []
    array, product, take = nn.Workspace.array, nn.matmul, np.take
    actor_grads = drl_mappo.actor_loss_and_grads
    critic_grads = drl_mappo.critic_loss_and_grads

    def recorded_array(work, name, shape):
        out = array(work, name, shape)
        seen.append((f"workspace {name}", out.dtype))
        return out

    def recorded_product(a, b, out=None):
        out = product(a, b, out)
        seen.extend(("product", x.dtype) for x in (a, b, out))
        return out

    def recorded_take(x, sel, **kwargs):
        if "out" in kwargs:             # a minibatch's rows of a stacked array
            seen.append(("stacked", x.dtype))
        return take(x, sel, **kwargs)

    def recorded_actor(actor, batch, *args):
        loss, grads, diag = actor_grads(actor, batch, *args)
        seen.extend((f"batch {key}", x.dtype) for key, x in batch.items()
                    if x.dtype.kind == "f")
        seen.extend(("actor grad", g.dtype) for g in grads)
        return loss, grads, diag

    def recorded_critic(critic, states, targets, *args):
        loss, grads = critic_grads(critic, states, targets, *args)
        seen.append(("targets", targets.dtype))
        seen.extend(("critic grad", g.dtype) for g in grads)
        return loss, grads

    for owner, name, fn in ((nn.Workspace, "array", recorded_array),
                            (nn, "matmul", recorded_product),
                            (drl_mappo, "matmul", recorded_product),
                            (np, "take", recorded_take),
                            (drl_mappo, "actor_loss_and_grads", recorded_actor),
                            (drl_mappo, "critic_loss_and_grads", recorded_critic)):
        monkeypatch.setattr(owner, name, fn)
    return seen


RECORDED = {"workspace h1", "workspace h2", "workspace gw1", "workspace gh2",
            "workspace adam_t", "workspace x", "product", "stacked",
            "batch obs", "batch u", "batch adv", "targets", "actor grad",
            "critic grad"}


def keep_scored_flights(monkeypatch):
    """(env, the slots it flew, score_links' QoS and, scored again with
    designs built, its designs) of each episode that train scores, in order;
    each reset gives the env new flight arrays."""
    scored = []
    score = drl_mappo.score_links

    def kept(env, seed, separated, build):
        qos, designs = score(env, seed, separated, build)
        scored.append((env, env.flown(), qos,
                       score(env, seed, separated, build=True)[1]))
        return qos, designs

    monkeypatch.setattr(drl_mappo, "score_links", kept)
    return scored


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
        fresh = ActorNet(rng_stream(0, "init-actor"), policy.actor.obs_dim,
                         policy.actor.n_actions, 16, np.float32)
        for a, b in zip(policy.actor.params, fresh.params):
            assert np.array_equal(a, b) and a.dtype == b.dtype
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

    def test_training_runs_in_float32(self, monkeypatch):
        # parameters, moments, scratch buffers, the stacked rollout, every
        # product and every gradient: no float64 array of a batch's size
        # appears in an update
        optimizers = []
        update = drl_mappo._update

        def kept(policy, opt_actor, opt_critic, *args):
            optimizers.extend((opt_actor, opt_critic))
            return update(policy, opt_actor, opt_critic, *args)

        monkeypatch.setattr(drl_mappo, "_update", kept)
        seen = record_dtypes(monkeypatch)
        policy, _ = train(self.scenario(), MappoConfig(
            max_episodes=2, hidden=16, rollout=64, minibatch=32, epochs=1,
            seed=4))
        assert len(optimizers) == 4
        assert RECORDED <= {what for what, _ in seen}
        assert [(what, dtype) for what, dtype in seen
                if dtype != np.float32] == []
        for p in policy.actor.params + policy.critic.params + [
                m for opt in optimizers for m in opt.m + opt.v]:
            assert p.dtype == np.float32

    def test_float64_nets_stay_float64_through_update(self, monkeypatch):
        rng = rng_stream(21, "rollout")
        policy = MappoPolicy(ActorNet(rng, 9, 4, 16), CriticNet(rng, 20, 16),
                             MappoConfig(hidden=16))
        optimizers = (Adam([policy.actor.vec], 1e-4),
                      Adam([policy.critic.vec], 3e-4))
        slots = [(rng.standard_normal((2, 9)), np.ones((2, 4), dtype=bool),
                  rng.integers(0, 4, 2), rng.standard_normal(2),
                  rng.integers(0, 2, 2).astype(np.uint8),
                  rng.standard_normal(2) - 2.0, rng.standard_normal(20))
                 for _ in range(40)]
        seen = record_dtypes(monkeypatch)
        _update(policy, *optimizers, slots, list(rng.standard_normal(40)),
                [t % 13 == 12 for t in range(40)],
                MappoConfig(hidden=16, minibatch=16, epochs=1),
                rng_stream(22, "shuffle"))
        assert RECORDED <= {what for what, _ in seen}
        assert {dtype for _, dtype in seen} == {np.dtype(np.float64)}
        for p in policy.actor.params + policy.critic.params + [
                m for opt in optimizers for m in opt.m + opt.v]:
            assert p.dtype == np.float64

    def test_matches_explicit_loop(self):
        # the frozen reward rule: a slot's reward is the in-flight step's
        # terms (test_reward_oracle.oracle_step) plus the QoS term of its
        # chain links, swept right after the step from the episode's
        # "env-channel" stream. train flies each episode first and scores
        # its rewards and links after landing; the curve, success flags,
        # value losses and weights must be the same, bit for bit, on a
        # default-size world whose links fail and on a one-UAV world
        worlds = (ScenarioConfig(gamma_th_uav=db_to_linear(22.0)),
                  replace(self.scenario().config, num_uavs=1))
        cfg = MappoConfig(max_episodes=2, hidden=16, rollout=64,
                          minibatch=32, epochs=2, seed=4)
        for world in worlds:
            sc = build_scenario(world)
            policy, curve = train(sc, cfg)

            env = CorridorEnv(sc)
            r = env.reward_cfg
            dtype = np.float32             # the dtype train builds its nets in
            ref = MappoPolicy(
                ActorNet(rng_stream(4, "init-actor"), env.obs_dim,
                         env.n_actions, 16, dtype),
                CriticNet(rng_stream(4, "init-critic"), env.state_dim, 16, dtype),
                cfg)
            opt_a = Adam([ref.actor.vec], cfg.actor_lr)
            opt_c = Adam([ref.critic.vec], cfg.critic_lr)
            sample_rng = rng_stream(4, "policy-sample")
            shuffle_rng = rng_stream(4, "minibatch")
            slots, rewards, dones = [], [], []
            ep_rewards, successes, losses = [], [], []
            loss, updates, failed = 0.0, 0, 0
            for episode in range(2):
                seed = 4 * 1_000_003 + episode
                env.reset(seed)
                link_rng = rng_stream(seed, "env-channel")
                total, done = 0.0, False
                while not done:
                    action, sample = act_in_env(ref, env, sample_rng)
                    slots.append(sample + (env.critic_state(),))
                    rew, done, success = oracle_step(env, action)
                    feasible, _ = link_feasibility_sweep(
                        env.state.positions, sc, link_rng, env.sdr_opts,
                        build=False)
                    failed += int((~feasible).sum())
                    rew.qos = link_reward(feasible, r.link_pass, r.link_fail)
                    rewards.append(rew.total)
                    dones.append(done)
                    total += rew.total
                ep_rewards.append(total)
                successes.append(success)
                if len(slots) * env.n_agents >= cfg.rollout:
                    loss, _ = _update(ref, opt_a, opt_c, slots, rewards, dones,
                                      cfg, shuffle_rng)
                    updates += 1
                losses.append(loss)

            assert updates >= 1 and (failed > 0) == (world.num_uavs > 1)
            assert curve.reward == ep_rewards
            assert curve.value_loss == losses
            assert curve.success == successes
            for a, b in zip(policy.actor.params + policy.critic.params,
                            ref.actor.params + ref.critic.params):
                assert np.array_equal(a, b)

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
        scored = keep_scored_flights(monkeypatch)
        sc = self.scenario()
        heavy = replace(REFERENCE_PROPULSION,
                        p0_blade=2.0 * REFERENCE_PROPULSION.p0_blade)
        train(sc, MappoConfig(max_episodes=1, hidden=16, seed=4),
              propulsion=heavy)
        ((env, flown, _, _),) = scored
        costs = slot_costs(sc.config, heavy)
        spent = np.zeros(sc.config.num_uavs)
        for moved in flown.moved:
            spent += costs[moved]
        assert np.array_equal(env.state.energy_per_uav, spent)
        assert not np.array_equal(costs, slot_costs(sc.config,
                                                    REFERENCE_PROPULSION))

    def test_link_failing_world_records_every_link_margin(self, monkeypatch):
        # every slot draws and solves its own links, so no link margin of a
        # scored trace is missing, also where episodes revisit a slot's
        # formation; building the designs keeps the verdicts train scored
        scored = keep_scored_flights(monkeypatch)
        sc = build_scenario(replace(self.scenario().config,
                                    gamma_th_uav=db_to_linear(40.0)))
        cfg = MappoConfig(max_episodes=3, hidden=16, rollout=64,
                          minibatch=32, epochs=1, seed=4)
        train(sc, cfg)
        assert len(scored) == 3
        r = scored[0][0].reward_cfg
        for _, flown, qos, designs in scored:
            assert len(designs) == len(flown.final)
            assert qos.tolist() == [link_reward([d.feasible], r.link_pass,
                                                r.link_fail) for d in designs]
        margins = np.array([d.margin for *_, designs in scored for d in designs])
        assert len(margins) == sum(len(flown.final) for _, flown, _, _ in scored)
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


THREADS_RUN = """
import hashlib, json
from dataclasses import replace
from uavisac.config import load_config
from uavisac.drl_mappo import MappoConfig, train
from uavisac.scenario import build_scenario
rc = load_config()
world = build_scenario(replace(rc.scenario, horizon_slots=100))
policy, _ = train(world, MappoConfig(max_episodes=2, rollout=128, epochs=2,
                                     seed=1), rc.reward)
print(json.dumps([hashlib.sha256(p.tobytes()).hexdigest()
                  for p in policy.actor.params + policy.critic.params]))
"""


@pytest.mark.slow
def test_training_bits_do_not_depend_on_blas_threads():
    # the default world's critic input is 501 wide: an unblocked product of
    # that depth rounds differently under one and two OpenBLAS threads
    src = os.path.dirname(os.path.dirname(drl_mappo.__file__))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    digests = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", THREADS_RUN], capture_output=True, text=True,
            timeout=600, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                                  PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        digests.append(json.loads(proc.stdout.splitlines()[-1]))
    assert len(digests[0]) == 17
    assert digests[0] == digests[1]
