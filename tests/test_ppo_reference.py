"""The in-place PPO arithmetic and the batched acting path against reference
copies of the straightforward forms they replace.

The loss, gradient and Adam references allocate every intermediate and must
agree bit for bit. The acting reference runs one actor forward per agent
and draws through ``rng.choice``; the batched forward rounds differently,
so continuous outputs agree within 1e-12 and discrete ones exactly.
"""

import numpy as np
import pytest

from uavisac import drl_mappo
from uavisac.drl_mappo import (LOG_2PI, ActorNet, CriticNet, MappoConfig,
                               MappoPolicy, Rollout, _update, act_in_env,
                               actor_loss_and_grads, critic_forward,
                               critic_loss_and_grads, joint_log_prob,
                               sample_actions)
from uavisac.mdp_env import CorridorEnv, JointAction
from uavisac.nn import Adam, Workspace, log_softmax_masked, softplus
from uavisac.scenario import ScenarioConfig, build_scenario, rng_stream

# -- reference forms ------------------------------------------------------------


def ref_forward(layer, x):
    return x @ layer.w + layer.b


def ref_backward(layer, x, grad_out):
    return grad_out @ layer.w.T, x.T @ grad_out, grad_out.sum(axis=0)


def ref_actor_heads(actor, obs):
    h1 = np.tanh(ref_forward(actor.l1, obs))
    h2 = np.tanh(ref_forward(actor.l2, h1))
    return (h1, h2, ref_forward(actor.head_md, h2),
            ref_forward(actor.head_mu, h2)[:, 0],
            ref_forward(actor.head_speed, h2)[:, 0])


def ref_actor_loss_and_grads(actor, batch, clip_ratio, entropy_coef):
    obs, mask, md, u = batch["obs"], batch["mask"], batch["md"], batch["u"]
    speed, logp_old, adv = batch["speed"], batch["logp_old"], batch["adv"]
    n = len(obs)

    h1, h2, md_logits, mu, z_speed = ref_actor_heads(actor, obs)
    logp_all = log_softmax_masked(md_logits, mask)
    sigma = float(np.exp(actor.log_std[0]))

    logp = joint_log_prob(logp_all, mu, sigma, z_speed, md, u, speed)
    ratio = np.exp(logp - logp_old)
    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - clip_ratio, 1.0 + clip_ratio) * adv
    surrogate = np.minimum(unclipped, clipped)

    probs = np.exp(logp_all)
    probs[~mask] = 0.0
    with np.errstate(invalid="ignore"):
        plogp = np.where(probs > 0.0, probs * logp_all, 0.0)
    ent_md = -plogp.sum(axis=1)
    ent_heading = 0.5 * (LOG_2PI + 1.0) + actor.log_std[0]
    sig_speed = 1.0 / (1.0 + np.exp(-z_speed))
    ent_speed = softplus(z_speed) - z_speed * sig_speed
    entropy = ent_md + ent_heading + ent_speed

    loss = -surrogate.mean() - entropy_coef * entropy.mean()

    active = (unclipped <= clipped).astype(float)
    g_logp = -(active * ratio * adv) / n

    onehot = np.zeros_like(probs)
    onehot[np.arange(n), md] = 1.0
    g_md = g_logp[:, None] * (onehot - probs)
    g_md += -(entropy_coef / n) * (-probs * (np.where(probs > 0, logp_all, 0.0)
                                             + ent_md[:, None]))

    inv_var = 1.0 / sigma ** 2
    g_mu = g_logp * (u - mu) * inv_var
    g_logstd = float(np.sum(g_logp * (((u - mu) ** 2) * inv_var - 1.0))
                     - entropy_coef)

    g_z = g_logp * (speed - sig_speed)
    g_z += -(entropy_coef / n) * (-z_speed * sig_speed * (1.0 - sig_speed))

    gh2_md, gw_md, gb_md = ref_backward(actor.head_md, h2, g_md)
    gh2_mu, gw_mu, gb_mu = ref_backward(actor.head_mu, h2, g_mu[:, None])
    gh2_sp, gw_sp, gb_sp = ref_backward(actor.head_speed, h2, g_z[:, None])
    gh2 = gh2_md + gh2_mu + gh2_sp
    gz2 = gh2 * (1.0 - h2 ** 2)
    gh1, gw2, gb2 = ref_backward(actor.l2, h1, gz2)
    gz1 = gh1 * (1.0 - h1 ** 2)
    _, gw1, gb1 = ref_backward(actor.l1, obs, gz1)

    grads = [gw1, gb1, gw2, gb2, gw_md, gb_md, gw_mu, gb_mu, gw_sp, gb_sp,
             np.array([g_logstd])]
    diag = {"ratio_mean": float(ratio.mean()),
            "clip_fraction": float((active == 0.0).mean()),
            "entropy": float(entropy.mean())}
    return float(loss), grads, diag


def ref_critic_loss_and_grads(critic, states, targets):
    n = len(states)
    h1 = np.tanh(ref_forward(critic.l1, states))
    h2 = np.tanh(ref_forward(critic.l2, h1))
    v = ref_forward(critic.out, h2)[:, 0]
    err = v - targets
    loss = float(np.mean(err ** 2))
    gv = (2.0 / n) * err
    gh2, gw3, gb3 = ref_backward(critic.out, h2, gv[:, None])
    gz2 = gh2 * (1.0 - h2 ** 2)
    gh1, gw2, gb2 = ref_backward(critic.l2, h1, gz2)
    gz1 = gh1 * (1.0 - h1 ** 2)
    _, gw1, gb1 = ref_backward(critic.l1, states, gz1)
    return loss, [gw1, gb1, gw2, gb2, gw3, gb3]


class RefAdam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads):
        self.step_count += 1
        b1c = 1.0 - self.beta1 ** self.step_count
        b2c = 1.0 - self.beta2 ** self.step_count
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def ref_sample_row(actor, obs_row, mask_row, rng):
    """One agent's draw as the per-agent path made it: md, u, heading,
    speed, logp."""
    _, _, md_logits, mu, z_speed = ref_actor_heads(actor, obs_row[None])
    logp_md = log_softmax_masked(md_logits, mask_row[None])
    sigma = float(np.exp(actor.log_std[0]))
    probs = np.exp(logp_md)
    md = np.array([rng.choice(logp_md.shape[1], p=probs[0] / probs[0].sum())])
    u = mu + sigma * rng.standard_normal(1)
    heading = np.pi * np.tanh(u)
    p_speed = 1.0 / (1.0 + np.exp(-z_speed))
    speed = (rng.random(1) < p_speed).astype(np.uint8)
    logp = joint_log_prob(logp_md, mu, sigma, z_speed, md, u, speed)
    return md[0], u[0], heading[0], speed[0], logp[0]


def ref_act_in_env(actor, env, rng):
    """Per-agent forward and draw under the claim-order masks."""
    m_agents = env.n_agents
    obs = env.observations()[0]
    md = np.empty(m_agents, dtype=int)
    u, heading, logp = np.zeros(m_agents), np.zeros(m_agents), np.zeros(m_agents)
    speed = np.zeros(m_agents, dtype=np.uint8)
    masks = env.open_masks()[0]
    for m in range(m_agents):
        if rng is None:
            _, _, md_logits, mu, z_speed = ref_actor_heads(actor, obs[m][None])
            logp_md = log_softmax_masked(md_logits, masks[m][None])
            md[m] = logp_md.argmax(axis=1)[0]
            heading[m] = np.pi * np.tanh(mu)[0]
            speed[m] = z_speed[0] > 0
        else:
            md[m], u[m], heading[m], speed[m], logp[m] = ref_sample_row(
                actor, obs[m], masks[m], rng)
        if md[m] < env.n_mds:
            masks[m + 1:, md[m]] = False
        else:
            md[m] = -1
    return (JointAction(md_choice=md[None], heading=heading[None],
                        speed=speed[None]), masks, u, logp)


def list_update(policy, opt_actor, opt_critic, slots, rewards, dones, config,
                shuffle_rng):
    """The former list-based ``_update``, frozen: ``slots`` holds one (obs,
    masks, md_head, u, speed, logp, critic_state) per env slot, with float64
    samples and critic states; the columns are stacked, the float ones cast
    to the nets' dtype, and the three lists emptied."""
    dtype = policy.actor.vec.dtype
    work = Workspace(dtype)
    obs, mask, md, u, speed, logp_old, states = (
        np.concatenate(col, dtype=None if k in (1, 2) else dtype)
        for k, col in enumerate(zip(*slots)))
    states = states.reshape(len(slots), -1)
    values = critic_forward(policy.critic, states, work)
    adv_step = drl_mappo.gae(rewards, values, dones, config.discount,
                             config.gae_lambda)
    targets = (adv_step + values).astype(dtype)

    adv = np.repeat(adv_step, len(md) // len(states))
    adv = ((adv - adv.mean()) / (adv.std() + 1e-8)).astype(dtype)
    for rollout in (slots, rewards, dones):
        rollout.clear()

    def rows(x, sel):
        return np.take(x, sel, axis=0, out=work.array("x", (len(sel),) + x.shape[1:]))

    losses, diags = [], []
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(len(obs))
        for lo in range(0, len(obs), config.minibatch):
            sel = order[lo:lo + config.minibatch]
            diags.append(drl_mappo.ppo_actor_update(policy.actor, opt_actor, {
                "obs": rows(obs, sel), "mask": mask[sel], "md": md[sel],
                "u": u[sel], "speed": speed[sel],
                "logp_old": logp_old[sel], "adv": adv[sel]},
                config.clip_ratio, config.entropy_coef, work))
        order_c = shuffle_rng.permutation(len(states))
        for lo in range(0, len(states), config.minibatch):
            sel = order_c[lo:lo + config.minibatch]
            losses.append(drl_mappo.critic_update(
                policy.critic, opt_critic, rows(states, sel), targets[sel], work))
    return float(np.mean(losses)), {
        key: float(np.mean([d[key] for d in diags]))
        for key in ("ratio_mean", "clip_fraction", "entropy")}


def ref_critic_state(obs, md_state, collected):
    """A slot's critic state by the env's rule: the joint observations, the
    scaled MD locations and the collected set, in float64."""
    return np.concatenate([obs.ravel(), md_state, collected.astype(float)])


# -- fixtures -------------------------------------------------------------------

SHAPES = [(6, 4, 16, 12), (97, 21, 256, 256)]   # obs_dim, n_actions, hidden, n


def ppo_batch(rng, actor, n):
    """Random minibatch with masked columns, some no-op heads and ratios
    spread over [0.5, 2] so that both clip sides are hit."""
    obs = rng.standard_normal((n, actor.obs_dim))
    mask = rng.random((n, actor.n_actions)) < 0.6
    mask[:, 1] = False                      # a column masked in every row
    mask[:, -1] = True                      # the no-op is always open
    md = np.array([rng.choice(np.flatnonzero(row)) for row in mask])
    md[::5] = actor.n_actions - 1
    u = rng.standard_normal(n)
    speed = (rng.random(n) < 0.5).astype(float)
    _, _, md_logits, mu, z_speed = ref_actor_heads(actor, obs)
    logp = joint_log_prob(log_softmax_masked(md_logits, mask), mu,
                          float(np.exp(actor.log_std[0])), z_speed, md, u, speed)
    logp_old = logp - np.log(rng.uniform(0.5, 2.0, n))
    return {"obs": obs, "mask": mask, "md": md, "u": u, "speed": speed,
            "logp_old": logp_old, "adv": rng.standard_normal(n)}


def twin_actors(seed, obs_dim, n_actions, hidden):
    return [ActorNet(rng_stream(seed, "ref-actor"), obs_dim, n_actions, hidden)
            for _ in range(2)]


def assert_all_equal(xs, ys):
    assert len(xs) == len(ys)
    for x, y in zip(xs, ys):
        assert np.array_equal(x, y)


def random_rollout(rng, steps, m_agents, obs_dim, n_actions, n_mds):
    """(samples, collected sets, rewards, dones, md_state) of ``steps`` slots
    with float64 samples as act_in_env returns them, masked MD columns and
    episode ends every 13 slots."""
    samples = []
    for _ in range(steps):
        mask = rng.random((m_agents, n_actions)) < 0.7
        mask[:, -1] = True
        samples.append((rng.standard_normal((m_agents, obs_dim)), mask,
                        rng.integers(0, n_actions, m_agents),
                        rng.standard_normal(m_agents),
                        rng.integers(0, 2, m_agents).astype(np.uint8),
                        rng.standard_normal(m_agents) - 2.0))
    collected = (rng.random((steps, n_mds)) < 0.4).astype(np.uint8)
    return (samples, collected, rng.standard_normal(steps),
            np.arange(steps) % 13 == 12, rng.uniform(-1.0, 1.0, 2 * n_mds))


def filled_rollout(samples, collected, rewards, dones, md_state, dtype):
    """A Rollout with just enough room, holding the slots."""
    obs, mask = samples[0][:2]
    rollout = Rollout(len(samples), *obs.shape, mask.shape[1], md_state, dtype)
    for sample, slot_collected in zip(samples, collected):
        rollout.add(sample, slot_collected)
    rollout.reward[:len(samples)] = rewards
    rollout.done[:len(samples)] = dones
    return rollout


# -- bit-identical arithmetic ---------------------------------------------------


class TestInPlaceArithmetic:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_linear_forward(self, shape):
        obs_dim, _, hidden, n = shape
        actor = ActorNet(rng_stream(0, "lin"), obs_dim, 3, hidden)
        x = rng_stream(1, "x").standard_normal((n, obs_dim))
        assert np.array_equal(actor.l1.forward(x), ref_forward(actor.l1, x))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("entropy_coef", [0.0, 0.01])
    def test_actor_loss_and_grads(self, shape, entropy_coef):
        obs_dim, n_actions, hidden, n = shape
        rng = rng_stream(2, "batch")
        actor, _ = twin_actors(2, obs_dim, n_actions, hidden)
        actor.log_std[0] = -0.3
        for _ in range(3):
            batch = ppo_batch(rng, actor, n)
            loss, grads, diag = actor_loss_and_grads(actor, batch, 0.2,
                                                     entropy_coef)
            ref_loss, ref_grads, ref_diag = ref_actor_loss_and_grads(
                actor, batch, 0.2, entropy_coef)
            assert 0.0 < diag["clip_fraction"] < 1.0
            assert loss == ref_loss and diag == ref_diag
            assert_all_equal(grads, ref_grads)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_critic_loss_and_grads(self, shape):
        state_dim, _, hidden, n = shape
        critic = CriticNet(rng_stream(3, "critic"), state_dim, hidden)
        rng = rng_stream(4, "states")
        states = rng.standard_normal((n, state_dim))
        targets = rng.standard_normal(n)
        loss, grads = critic_loss_and_grads(critic, states, targets)
        ref_loss, ref_grads = ref_critic_loss_and_grads(critic, states, targets)
        assert loss == ref_loss
        assert_all_equal(grads, ref_grads)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_five_adam_steps(self, shape):
        # one workspace serves both networks, as in an update; the batch
        # size and the input widths change between calls
        obs_dim, n_actions, hidden, n = shape
        state_dim = 3 * obs_dim + 5
        actor, ref_actor = twin_actors(5, obs_dim, n_actions, hidden)
        critic, ref_critic = (CriticNet(rng_stream(5, "ref-critic"), state_dim,
                                        hidden) for _ in range(2))
        opts = (Adam(actor.params, 1e-3), RefAdam(ref_actor.params, 1e-3),
                Adam(critic.params, 3e-4), RefAdam(ref_critic.params, 3e-4))
        work = Workspace()
        rng = rng_stream(6, "steps")
        for rows in (n, n // 2 + 1, n, n - 3, n):
            batch = ppo_batch(rng, ref_actor, rows)
            states = rng.standard_normal((rows, state_dim))
            targets = rng.standard_normal(rows)
            loss, grads, _ = actor_loss_and_grads(actor, batch, 0.2, 0.01, work)
            ref_loss, ref_grads, _ = ref_actor_loss_and_grads(ref_actor, batch,
                                                              0.2, 0.01)
            assert loss == ref_loss
            assert_all_equal(grads, ref_grads)
            opts[0].step(actor.params, grads)
            opts[1].step(ref_actor.params, ref_grads)
            loss, grads = critic_loss_and_grads(critic, states, targets, work)
            ref_loss, ref_grads = ref_critic_loss_and_grads(ref_critic, states,
                                                            targets)
            assert loss == ref_loss
            assert_all_equal(grads, ref_grads)
            opts[2].step(critic.params, grads)
            opts[3].step(ref_critic.params, ref_grads)
            assert_all_equal(actor.params, ref_actor.params)
            assert_all_equal(critic.params, ref_critic.params)
        assert_all_equal(opts[0].m + opts[0].v, opts[1].m + opts[1].v)
        assert_all_equal(opts[2].m + opts[2].v, opts[3].m + opts[3].v)

    def test_update_matches_reference_loop(self):
        # the minibatch loop with its shared workspace and gathered rows,
        # given the same rollout values
        rng = rng_stream(18, "rollout")
        steps = 45
        samples, collected, rewards, dones, md_state = random_rollout(
            rng, steps, 3, 9, 5, 4)
        nets = [(ActorNet(rng_stream(19, "a"), 9, 5, 32),
                 CriticNet(rng_stream(19, "c"), 3 * 9 + 3 * 4, 32))
                for _ in range(2)]
        cfg = MappoConfig(hidden=32, minibatch=16, epochs=3)

        (actor, critic), (ref_actor, ref_critic) = nets
        rollout = filled_rollout(samples, collected, rewards, dones, md_state,
                                 np.float64)
        opt_a, opt_c = Adam([actor.vec], 1e-3), Adam([critic.vec], 1e-3)
        loss, diag = _update(MappoPolicy(actor, critic, cfg), opt_a, opt_c,
                             rollout, cfg, rng_stream(20, "shuffle"))

        states = np.array([ref_critic_state(sample[0], md_state, slot_collected)
                           for sample, slot_collected in zip(samples, collected)])
        values = critic_forward(ref_critic, states)
        adv_step = drl_mappo.gae(rewards, values, dones, cfg.discount,
                                 cfg.gae_lambda)
        targets = adv_step + values
        obs, mask, md, u, speed, logp = (np.concatenate(col)
                                         for col in zip(*samples))
        adv = np.repeat(adv_step, 3)
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)
        ref_opt_a = RefAdam(ref_actor.params, 1e-3)
        ref_opt_c = RefAdam(ref_critic.params, 1e-3)
        shuffle = rng_stream(20, "shuffle")
        losses, diags = [], []
        for _ in range(cfg.epochs):
            order = shuffle.permutation(len(obs))
            for lo in range(0, len(obs), cfg.minibatch):
                sel = order[lo:lo + cfg.minibatch]
                _, grads, d = ref_actor_loss_and_grads(ref_actor, {
                    "obs": obs[sel], "mask": mask[sel], "md": md[sel],
                    "u": u[sel], "speed": speed[sel].astype(float),
                    "logp_old": logp[sel], "adv": adv[sel]}, 0.2, 0.01)
                ref_opt_a.step(ref_actor.params, grads)
                diags.append(d)
            order = shuffle.permutation(steps)
            for lo in range(0, steps, cfg.minibatch):
                sel = order[lo:lo + cfg.minibatch]
                c_loss, grads = ref_critic_loss_and_grads(
                    ref_critic, states[sel], targets[sel])
                ref_opt_c.step(ref_critic.params, grads)
                losses.append(c_loss)

        assert loss == float(np.mean(losses))
        assert diag == {k: float(np.mean([d[k] for d in diags]))
                        for k in ("ratio_mean", "clip_fraction", "entropy")}
        assert_all_equal(actor.params, ref_actor.params)
        assert_all_equal(critic.params, ref_critic.params)
        assert rollout.n == 0


class TestRolloutBuffer:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_update_matches_list_oracle(self, dtype):
        # two rollouts in turn, stored per slot in a list (float64 samples
        # and critic states, stacked and cast at the update) and written
        # into one buffer as they are sampled: equal weights, Adam moments,
        # losses, diagnostics and shuffle rng states after each update
        rng = rng_stream(23, "rollout")
        rollouts = [random_rollout(rng, steps, 3, 9, 5, 4) for steps in (50, 37)]
        cfg = MappoConfig(hidden=32, minibatch=16, epochs=3)
        sides = []
        for _ in range(2):
            actor = ActorNet(rng_stream(24, "a"), 9, 5, 32, dtype)
            critic = CriticNet(rng_stream(24, "c"), 3 * 9 + 3 * 4, 32, dtype)
            sides.append((MappoPolicy(actor, critic, cfg), Adam([actor.vec], 1e-3),
                          Adam([critic.vec], 1e-3), rng_stream(25, "shuffle")))
        (policy, opt_a, opt_c, shuffle), (ref, ref_a, ref_c, ref_shuffle) = sides
        buffer = Rollout(64, 3, 9, 5, rollouts[0][-1], dtype)
        for samples, collected, rewards, dones, md_state in rollouts:
            buffer.md_state = md_state
            for sample, slot_collected in zip(samples, collected):
                buffer.add(sample, slot_collected)
            buffer.reward[:len(samples)] = rewards
            buffer.done[:len(samples)] = dones
            out = _update(policy, opt_a, opt_c, buffer, cfg, shuffle)
            assert buffer.n == 0
            slots = [sample + (ref_critic_state(sample[0], md_state, slot_collected),)
                     for sample, slot_collected in zip(samples, collected)]
            assert out == list_update(ref, ref_a, ref_c, slots, list(rewards),
                                      list(dones), cfg, ref_shuffle)
            for net, ref_net in ((policy.actor, ref.actor),
                                 (policy.critic, ref.critic)):
                assert_all_equal(net.params, ref_net.params)
                assert net.vec.dtype == dtype
            assert_all_equal(opt_a.m + opt_a.v + opt_c.m + opt_c.v,
                             ref_a.m + ref_a.v + ref_c.m + ref_c.v)
            assert shuffle.random() == ref_shuffle.random()


# -- batched acting -------------------------------------------------------------


def claim_world():
    # three UAVs on one pad with every MD in reach, so claims mask later agents
    return build_scenario(ScenarioConfig(
        num_uavs=3, num_mds=4, seed=0, area_width=300.0, area_height=300.0,
        start=(0.0, 300.0), end=(300.0, 0.0)))


def claim_policy(env, hidden=256):
    rng = rng_stream(7, "act-ref")
    actor = ActorNet(rng, env.obs_dim, env.n_actions, hidden)
    actor.head_md.b[:-1] += 5.0             # MDs over the no-op: claims clash
    return MappoPolicy(actor, CriticNet(rng, env.state_dim, hidden), MappoConfig())


class TestBatchedActing:
    def test_categorical_is_rng_choice(self):
        rng = rng_stream(8, "probs")
        a, b = rng_stream(9, "draw"), rng_stream(9, "draw")
        for _ in range(20_000):
            probs = rng.random(6) * (rng.random(6) < 0.7)
            probs[-1] += 1e-3
            assert (drl_mappo._categorical(probs, a)
                    == b.choice(6, p=probs / probs.sum()))
        assert a.random() == b.random()

    def test_sample_actions_matches_rng_choice_rows(self):
        # a batch draws every row's MD, then the normals, then the uniforms
        actor = ActorNet(rng_stream(10, "actor"), 6, 5, 16)
        obs = rng_stream(11, "obs").standard_normal((7, 6))
        mask = rng_stream(12, "mask").random((7, 5)) < 0.6
        mask[:, -1] = True
        a, b = rng_stream(13, "draw"), rng_stream(13, "draw")
        md, u, heading, speed, logp = sample_actions(actor, obs, mask, a)
        _, _, md_logits, mu, z_speed = ref_actor_heads(actor, obs)
        logp_md = log_softmax_masked(md_logits, mask)
        probs = np.exp(logp_md)
        ref_md = np.array([b.choice(5, p=p / p.sum()) for p in probs])
        ref_u = mu + float(np.exp(actor.log_std[0])) * b.standard_normal(7)
        ref_speed = (b.random(7) < 1.0 / (1.0 + np.exp(-z_speed))).astype(np.uint8)
        assert np.array_equal(md, ref_md) and np.array_equal(speed, ref_speed)
        assert np.array_equal(u, ref_u)
        assert np.array_equal(heading, np.pi * np.tanh(ref_u))
        assert np.array_equal(logp, joint_log_prob(
            logp_md, mu, float(np.exp(actor.log_std[0])), z_speed, md, u, speed))
        assert a.random() == b.random()

    @pytest.mark.parametrize("greedy", [False, True])
    def test_matches_per_agent_reference(self, greedy):
        env = CorridorEnv(claim_world())
        policy = claim_policy(env)
        a, b = rng_stream(14, "draw"), rng_stream(14, "draw")
        withheld = 0
        for episode in range(3):
            env.reset()
            for _ in range(20):
                open_masks = env.open_masks()
                action, (obs, masks, _, u, _, logp) = act_in_env(
                    policy, env, None if greedy else a)
                assert np.array_equal(obs, env.observations()[0])
                ref, ref_masks, ref_u, ref_logp = ref_act_in_env(
                    policy.actor, env, None if greedy else b)
                assert np.array_equal(action.md_choice, ref.md_choice)
                assert np.array_equal(action.speed, ref.speed)
                assert np.array_equal(masks, ref_masks)
                for m in range(env.n_agents):
                    claimed = action.md_choice[0, :m]
                    assert np.array_equal(masks[m], env.action_mask(m, claimed)[0])
                np.testing.assert_allclose(action.heading, ref.heading,
                                           rtol=0, atol=1e-12)
                np.testing.assert_allclose(u, ref_u, rtol=0, atol=1e-12)
                np.testing.assert_allclose(logp, ref_logp, rtol=0, atol=1e-12)
                withheld += int((open_masks[0] & ~masks).sum())
                done, _ = env.step(action)
                if done:
                    break
        assert withheld > 0
        assert a.random() == b.random()

    def test_nan_weight_raises(self):
        env = CorridorEnv(claim_world())
        policy = claim_policy(env, hidden=16)
        policy.actor.l1.w[0, 0] = np.nan
        env.reset()
        with pytest.raises(ValueError):
            act_in_env(policy, env, rng_stream(15, "draw"))


class TestBatchedValues:
    def test_update_values_match_per_state_critic(self, monkeypatch):
        rng = rng_stream(16, "buffer")
        samples, collected, rewards, dones, md_state = random_rollout(
            rng, 40, 2, 9, 4, 2)
        actor = ActorNet(rng, 9, 4, 32)
        critic = CriticNet(rng, 2 * 9 + 3 * 2, 32)
        policy = MappoPolicy(actor, critic, MappoConfig(hidden=32))
        per_state = np.array([
            critic_forward(critic, ref_critic_state(sample[0], md_state,
                                                    slot_collected))[0]
            for sample, slot_collected in zip(samples, collected)])
        seen = []
        gae = drl_mappo.gae

        def recorded(rewards, values, *args):
            seen.append(np.array(values))
            return gae(rewards, values, *args)

        monkeypatch.setattr(drl_mappo, "gae", recorded)
        cfg = MappoConfig(hidden=32, minibatch=16, epochs=1)
        _update(policy, Adam([actor.vec], 1e-4), Adam([critic.vec], 3e-4),
                filled_rollout(samples, collected, rewards, dones, md_state,
                               np.float64), cfg, rng_stream(17, "shuffle"))
        assert len(seen) == 1
        np.testing.assert_allclose(seen[0], per_state, rtol=0, atol=1e-12)
