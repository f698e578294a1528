"""Multi-agent PPO with a centralized critic and decentralized actors.

One parameter-shared actor drives every UAV (an agent one-hot in the
observation breaks symmetry); the critic sees the joint state during
training only. The compound action factorizes into a masked categorical
device head, a tanh-squashed Gaussian heading head and a Bernoulli speed
head; the joint log-probability is the sum over heads.

All gradients are hand-derived (see nn.py) and checked against finite
differences in the tests. A net computes in the dtype of its weights.
"""

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .energy import PropulsionParams, REFERENCE_PROPULSION
from .mdp_env import (CorridorEnv, JointAction, RewardConfig, joint_states,
                      reward_terms, run_episode, score_links)
from .nn import (Adam, Linear, Workspace, log_softmax_masked, matmul, pack,
                 softplus, tanh_backward, tanh_layer)
from .scenario import Scenario, rng_stream

LOG_2PI = float(np.log(2.0 * np.pi))
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class MappoConfig:
    hidden: int = 256
    actor_lr: float = 1e-4
    critic_lr: float = 3e-4
    clip_ratio: float = 0.2
    entropy_coef: float = 0.01
    discount: float = 0.99
    gae_lambda: float = 0.95
    rollout: int = 4096          # agent transitions per update
    minibatch: int = 256
    epochs: int = 10
    max_episodes: int = 1500
    smooth_window: int = 20
    seed: int = 0


def _layers(rng, dims, params, dtype, extra=()):
    """(vec, views, layers): ``params``, or a draw for ``dims`` then ``extra``,
    cast to ``dtype`` (None keeps theirs) as views of one vector ``vec``."""
    if params is None:
        params = [a for layer in (Linear(rng, *d) for d in dims)
                  for a in (layer.w, layer.b)] + list(extra)
    vec, views = pack(params, dtype)
    return vec, views, [Linear.over(*views[k:k + 2])
                        for k in range(0, 2 * len(dims), 2)]


class ActorNet:
    """Shared two-layer trunk with device, heading and speed heads."""

    def __init__(self, rng, obs_dim, n_actions, hidden=256, dtype=None,
                 params=None):
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        self.hidden = hidden
        dims = [(obs_dim, hidden, np.sqrt(2.0)), (hidden, hidden, np.sqrt(2.0)),
                (hidden, n_actions, 0.01), (hidden, 1, 0.01), (hidden, 1, 0.01)]
        self.vec, self.params, layers = _layers(rng, dims, params, dtype,
                                                [np.zeros(1)])
        self.l1, self.l2, self.head_md, self.head_mu, self.head_speed = layers
        self.log_std = self.params[-1]

    def heads(self, h2):
        return (self.head_md.forward(h2),
                self.head_mu.forward(h2)[:, 0],
                self.head_speed.forward(h2)[:, 0])


class CriticNet:
    def __init__(self, rng, state_dim, hidden=256, dtype=None, params=None):
        self.state_dim = state_dim
        self.hidden = hidden
        self.vec, self.params, (self.l1, self.l2, self.out) = _layers(rng, [
            (state_dim, hidden, np.sqrt(2.0)), (hidden, hidden, np.sqrt(2.0)),
            (hidden, 1, 1.0)], params, dtype)


def _trunk(net, x, work: Workspace | None = None):
    """(h1, h2) of a net's tanh layers ``l1`` and ``l2`` for ``x`` in its dtype."""
    work = Workspace(net.vec.dtype) if work is None else work
    shape = (len(x), net.hidden)
    h1 = tanh_layer(net.l1, x.astype(net.vec.dtype, copy=False),
                    work.array("h1", shape))
    return h1, tanh_layer(net.l2, h1, work.array("h2", shape))


def _trunk_grads(net, x, h1, h2, gh2, work: Workspace):
    """[gw1, gb1, gw2, gb2] of the two tanh layers under the upstream
    gradient ``gh2``. Overwrites ``gh2``, ``h1`` and ``h2``, whose buffers
    the backward pass reuses; the network input gets no gradient."""
    gz2 = tanh_backward(gh2, h2)
    gw2, gb2 = net.l2.backward(h1, gz2, work.array("gw2", net.l2.w.shape))
    gz1 = tanh_backward(matmul(gz2, net.l2.w.T, out=h2), h1)
    gw1, gb1 = net.l1.backward(x, gz1, work.array("gw1", net.l1.w.shape))
    return [gw1, gb1, gw2, gb2]


def actor_forward(actor: ActorNet, obs, mask):
    """Distribution parameters for a batch of observations.

    Returns masked per-action log-probabilities, heading mean, heading std
    and the speed logit.
    """
    _, h2 = _trunk(actor, np.atleast_2d(obs))
    md_logits, mu, z_speed = actor.heads(h2)
    logp_md = log_softmax_masked(md_logits, np.atleast_2d(mask))
    return logp_md, mu, float(np.exp(actor.log_std[0])), z_speed


def critic_forward(critic: CriticNet, state, work: Workspace | None = None):
    """V(s) for a state or a batch of states; the hidden activations go to
    ``work`` when given."""
    _, h2 = _trunk(critic, np.atleast_2d(state), work)
    return critic.out.forward(h2)[:, 0]


def _categorical(probs, rng: np.random.Generator):
    """The draw of ``rng.choice(len(probs), p=probs / probs.sum())``, bit for
    bit, without that call's per-call argument checks; non-finite
    probabilities raise ValueError as they do there."""
    cdf = (probs / probs.sum()).cumsum()
    if not np.isfinite(cdf[-1]):
        raise ValueError("probabilities are not finite")
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(), "right")


def sample_actions(actor: ActorNet, obs, mask, rng: np.random.Generator):
    """One action tuple per row: (md index or -1, pre-squash u, heading, speed,
    logp), drawn as the MD indices row by row, then the heading normals,
    then the speed uniforms; one row alone gives one agent's draws."""
    logp_md, mu, sigma, z_speed = actor_forward(actor, obs, mask)
    md = np.array([_categorical(p, rng) for p in np.exp(logp_md)], dtype=int)
    u = mu + sigma * rng.standard_normal(len(md))
    p_speed = 1.0 / (1.0 + np.exp(-z_speed))
    speed = (rng.random(len(md)) < p_speed).astype(np.uint8)
    logp = joint_log_prob(logp_md, mu, sigma, z_speed, md, u, speed)
    return md, u, np.pi * np.tanh(u), speed, logp


def greedy_actions(actor: ActorNet, obs, mask):
    """(md, heading, speed): every row's most likely action."""
    logp_md, mu, _, z_speed = actor_forward(actor, obs, mask)
    return (logp_md.argmax(axis=1), np.pi * np.tanh(mu),
            (z_speed > 0).astype(np.uint8))


def joint_log_prob(logp_md, mu, sigma, z_speed, md, u, speed):
    """Sum of the three heads' log-probabilities (tanh correction included)."""
    batch = logp_md.shape[0]
    lp_md = logp_md[np.arange(batch), md]
    lp_gauss = (-0.5 * ((u - mu) / sigma) ** 2 - float(np.log(sigma))
                - 0.5 * LOG_2PI)
    tanh_corr = np.log(np.pi * (1.0 - np.tanh(u) ** 2) + 1e-12)
    lp_heading = lp_gauss - tanh_corr
    lp_speed = speed * z_speed - softplus(z_speed)
    return lp_md + lp_heading + lp_speed


def gae(rewards, values, dones, discount, lam):
    """Generalized advantage estimates by backward recursion.

    ``values`` has one entry per reward; episode boundaries (dones) cut both
    the bootstrap and the accumulation.
    """
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    dones = np.asarray(dones, dtype=bool)
    n = len(rewards)
    adv = np.zeros(n)
    acc = 0.0
    for t in reversed(range(n)):
        next_v = 0.0 if (t == n - 1 or dones[t]) else values[t + 1]
        delta = rewards[t] + discount * next_v * (1.0 - dones[t]) - values[t]
        acc = delta + discount * lam * acc * (1.0 - dones[t])
        adv[t] = acc
    return adv


def actor_loss_and_grads(actor: ActorNet, batch, clip_ratio, entropy_coef,
                         work: Workspace | None = None):
    """Clipped-surrogate loss (to minimize) and gradients for every actor param.

    ``batch`` carries obs, mask, md, u, speed, logp_old and normalized adv.
    The large temporaries and weight gradients live in ``work`` (a fresh
    Workspace when None), so the gradients hold until its next use.
    """
    work = Workspace(actor.vec.dtype) if work is None else work
    obs = batch["obs"]
    mask = batch["mask"]
    md = batch["md"]
    u = batch["u"]
    speed = batch["speed"]
    logp_old = batch["logp_old"]
    adv = batch["adv"]
    n = len(obs)

    h1, h2 = _trunk(actor, obs, work)
    md_logits, mu, z_speed = actor.heads(h2)
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

    # d(-surrogate)/d logp: gradient passes only where the unclipped branch
    # is the active minimum
    active = (unclipped <= clipped).astype(ratio.dtype)
    g_logp = -(active * ratio * adv) / n

    # categorical head: d logp/d logits = onehot - p ; entropy adds -p(lp + H)
    onehot = np.zeros_like(probs)
    onehot[np.arange(n), md] = 1.0
    g_md = g_logp[:, None] * (onehot - probs)
    g_md += -(entropy_coef / n) * (-probs * (np.where(probs > 0, logp_all, 0.0)
                                             + ent_md[:, None]))

    # heading head (Gaussian over the pre-squash variable)
    inv_var = 1.0 / sigma ** 2
    g_mu = g_logp * (u - mu) * inv_var
    g_logstd = (np.sum(g_logp * (((u - mu) ** 2) * inv_var - 1.0))
                - entropy_coef)

    # speed head
    g_z = g_logp * (speed - sig_speed)
    g_z += -(entropy_coef / n) * (-z_speed * sig_speed * (1.0 - sig_speed))

    # backprop heads into the trunk; a one-column head's input gradient is
    # an outer product, which broadcasting forms with the same bits as a
    # matrix product
    gw_md, gb_md = actor.head_md.backward(h2, g_md)
    gw_mu, gb_mu = actor.head_mu.backward(h2, g_mu[:, None])
    gw_sp, gb_sp = actor.head_speed.backward(h2, g_z[:, None])
    gh2 = matmul(g_md, actor.head_md.w.T, out=work.array("gh2", h2.shape))
    outer = np.multiply(g_mu[:, None], actor.head_mu.w.T,
                        out=work.array("outer", h2.shape))
    gh2 += outer
    gh2 += np.multiply(g_z[:, None], actor.head_speed.w.T, out=outer)

    grads = _trunk_grads(actor, obs, h1, h2, gh2, work) + [
        gw_md, gb_md, gw_mu, gb_mu, gw_sp, gb_sp, g_logstd.reshape(1)]
    diag = {"ratio_mean": float(ratio.mean()),
            "clip_fraction": float((active == 0.0).mean()),
            "entropy": float(entropy.mean())}
    return float(loss), grads, diag


def critic_loss_and_grads(critic: CriticNet, states, targets,
                          work: Workspace | None = None):
    """Mean squared error against the frozen value targets; ``work`` as in
    ``actor_loss_and_grads``."""
    work = Workspace(critic.vec.dtype) if work is None else work
    n = len(states)
    h1, h2 = _trunk(critic, states, work)
    v = critic.out.forward(h2)[:, 0]
    err = v - targets
    loss = float(np.mean(err ** 2))
    gv = (2.0 / n) * err
    gw3, gb3 = critic.out.backward(h2, gv[:, None])
    gh2 = np.multiply(gv[:, None], critic.out.w.T, out=work.array("gh2", h2.shape))
    return loss, _trunk_grads(critic, states, h1, h2, gh2, work) + [gw3, gb3]


def _step(net, optimizer: Adam, grads, name):
    """One step on ``net.vec`` with ``grads`` gathered, if all are finite."""
    grad = np.concatenate([g.ravel() for g in grads])
    if not np.isfinite(grad).all():
        raise FloatingPointError(f"non-finite {name} gradient; update aborted")
    optimizer.step([net.vec], [grad])


def ppo_actor_update(actor: ActorNet, optimizer: Adam, batch,
                     clip_ratio=0.2, entropy_coef=0.01,
                     work: Workspace | None = None):
    loss, grads, diag = actor_loss_and_grads(actor, batch, clip_ratio,
                                             entropy_coef, work)
    _step(actor, optimizer, grads, "actor")
    diag["loss"] = loss
    return diag


def critic_update(critic: CriticNet, optimizer: Adam, states, targets,
                  work: Workspace | None = None):
    loss, grads = critic_loss_and_grads(critic, states, targets, work)
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite critic loss; update aborted")
    _step(critic, optimizer, grads, "critic")
    return loss


# -- policy bundle -------------------------------------------------------------


class MappoPolicy:
    def __init__(self, actor: ActorNet, critic: CriticNet, config: MappoConfig):
        self.actor = actor
        self.critic = critic
        self.config = config

    def save(self, path):
        arrays = {f"actor_{i}": p for i, p in enumerate(self.actor.params)}
        arrays.update({f"critic_{i}": p for i, p in enumerate(self.critic.params)})
        meta = {
            "version": CHECKPOINT_VERSION,
            "obs_dim": self.actor.obs_dim,
            "n_actions": self.actor.n_actions,
            "state_dim": self.critic.state_dim,
            "hidden": self.actor.hidden,
            "config": asdict(self.config),
        }
        np.savez(path, meta=json.dumps(meta), **arrays)

    @staticmethod
    def read_meta(path) -> dict:
        """The checkpoint's dims and config; its weights are not read."""
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
        if meta["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta['version']}")
        return meta

    @classmethod
    def load(cls, path):
        """The saved nets, built from the file's arrays in their dtype."""
        meta = cls.read_meta(path)
        with np.load(path, allow_pickle=False) as data:
            actor, critic = ([data[f"{net}_{i}"] for i in range(sum(
                name.startswith(net) for name in data.files))]
                for net in ("actor", "critic"))
        return cls(ActorNet(None, meta["obs_dim"], meta["n_actions"],
                            meta["hidden"], params=actor),
                   CriticNet(None, meta["state_dim"], meta["hidden"],
                             params=critic),
                   MappoConfig(**meta["config"]))


def act_in_env(policy: MappoPolicy, env: CorridorEnv,
               rng: np.random.Generator | None):
    """Sequential per-agent action selection under the claim-order masks,
    from the current observations of the env's one fleet.

    One forward pass and one masked log-softmax serve every agent: the claim
    order changes only the MD-head masks, so a row is normalised again only
    when an earlier agent's claim closes one of its open entries. Each agent
    then draws in turn (MD, heading normal, speed uniform), and the joint
    log-probabilities are taken over the final masks, which are the masks
    each agent drew under. Deterministic (greedy) when ``rng`` is None.
    Returns the joint action and the sample the trainer stores: (obs, masks,
    md_head, u, speed, logp), where md_head holds the no-op index n_mds for
    an agent that claims no MD.
    """
    actor = policy.actor
    m_agents = env.n_agents
    obs = env.observations()[0]
    md_logits, mu, z_speed = actor.heads(_trunk(actor, obs)[1])
    sigma = float(np.exp(actor.log_std[0]))
    masks = env.open_masks()[0]
    logp_md = log_softmax_masked(md_logits, masks)
    stale = np.zeros(m_agents, dtype=bool)
    md = np.empty(m_agents, dtype=int)
    u = np.zeros(m_agents)
    if rng is None:
        speed = (z_speed > 0).astype(np.uint8)
    else:
        p_speed = 1.0 / (1.0 + np.exp(-z_speed))
        speed = np.zeros(m_agents, dtype=np.uint8)
    for m in range(m_agents):
        if stale[m]:
            logp_md[m] = log_softmax_masked(md_logits[m:m + 1], masks[m:m + 1])[0]
        if rng is None:
            md[m] = logp_md[m].argmax()
        else:
            md[m] = _categorical(np.exp(logp_md[m]), rng)
            u[m] = mu[m] + sigma * rng.standard_normal()
            speed[m] = rng.random() < p_speed[m]
        if md[m] < env.n_mds:
            later = masks[m + 1:, md[m]]     # claimed for the later agents
            stale[m + 1:] |= later
            later[:] = False
    if rng is None:
        heading, logp = np.pi * np.tanh(mu), np.zeros(m_agents)
    else:
        heading = np.pi * np.tanh(u)
        logp = joint_log_prob(logp_md, mu, sigma, z_speed, md, u, speed)
    action = JointAction(md_choice=np.where(md < env.n_mds, md, -1)[None],
                         heading=heading[None], speed=speed[None])
    return action, (obs, masks, md, u, speed, logp)


# -- training loop --------------------------------------------------------------


@dataclass
class LearningCurve:
    episode: list = field(default_factory=list)
    reward: list = field(default_factory=list)
    smoothed: list = field(default_factory=list)
    value_loss: list = field(default_factory=list)
    success: list = field(default_factory=list)
    # per PPO update, the mean over its actor minibatches; not in the CSV
    ratio_mean: list = field(default_factory=list)
    clip_fraction: list = field(default_factory=list)
    entropy: list = field(default_factory=list)

    def write_csv(self, path):
        lines = ["episode,reward,smoothed_reward,value_loss,success"]
        for i in range(len(self.episode)):
            lines.append(f"{self.episode[i]},{self.reward[i]:.6f},"
                         f"{self.smoothed[i]:.6f},{self.value_loss[i]:.6f},"
                         f"{int(self.success[i])}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


class Rollout:
    """The transitions of one PPO update, in arrays allocated once.

    Row t holds slot t: act_in_env's sample (obs, u and logp in the nets'
    dtype, each the cast of the float64 sample; masks, MD heads and speeds
    as drawn), the collected set the slot started from and, once its episode
    has landed, the slot's reward and episode end. ``n`` counts the filled
    rows; ``md_state`` is the env's scaled MD locations, which every critic
    state shares (mdp_env.joint_states)."""

    def __init__(self, slots, m_agents, obs_dim, n_actions, md_state, dtype):
        n_mds = len(md_state) // 2
        self.md_state = md_state
        self.obs = np.empty((slots, m_agents, obs_dim), dtype)
        self.mask = np.empty((slots, m_agents, n_actions), bool)
        self.md = np.empty((slots, m_agents), int)
        self.u = np.empty((slots, m_agents), dtype)
        self.speed = np.empty((slots, m_agents), np.uint8)
        self.logp = np.empty((slots, m_agents), dtype)
        self.collected = np.empty((slots, n_mds), np.uint8)
        self.reward = np.empty(slots)
        self.done = np.empty(slots, bool)
        self.n = 0

    @classmethod
    def for_env(cls, env: CorridorEnv, rollout: int, dtype) -> "Rollout":
        """Room for the most slots one update sees: an update follows the
        episode that reaches ``rollout`` agent transitions, so fewer than
        ceil(rollout / M) slots precede that episode's horizon_slots."""
        slots = math.ceil(rollout / env.n_agents) - 1 + env.cfg.horizon_slots
        return cls(slots, env.n_agents, env.obs_dim, env.n_actions,
                   env.md_state, dtype)

    def add(self, sample, collected):
        """Write one act_in_env sample and the slot's collected set (I,) into
        the next row."""
        t = self.n
        (self.obs[t], self.mask[t], self.md[t], self.u[t], self.speed[t],
         self.logp[t]) = sample
        self.collected[t] = collected
        self.n = t + 1

    def land(self, rewards):
        """The rewards of the landed episode's slots, the last rows written;
        its last slot ends the episode."""
        episode = slice(self.n - len(rewards), self.n)
        self.reward[episode] = rewards
        self.done[episode] = False
        self.done[self.n - 1] = True


def _update(policy: MappoPolicy, opt_actor: Adam, opt_critic: Adam,
            rollout: Rollout, config: MappoConfig, shuffle_rng):
    """PPO epochs over one rollout; returns the mean critic loss and the
    means of the actor diagnostics (ratio_mean, clip_fraction, entropy).

    Reads the ``rollout.n`` filled rows as views and empties the rollout
    (``n`` = 0). Critic states are built from the rows a pass reads
    (joint_states), so no pass holds more than max(8, ``minibatch``) states
    or activations: the value pass runs over at most that many slots at a
    time, and each critic minibatch builds its own. The values come from the
    critic as it enters: it changes only inside this function, so they are
    the values it had while the rollout was collected. Every pass reuses one
    Workspace. The float64 advantages and targets are cast to the nets' dtype."""
    dtype = policy.actor.vec.dtype
    work = Workspace(dtype)
    n, size = rollout.n, config.minibatch
    obs, mask, md, u, speed, logp_old = (
        x[:n].reshape(-1, *x.shape[2:]) for x in (
            rollout.obs, rollout.mask, rollout.md, rollout.u, rollout.speed,
            rollout.logp))
    speed = speed.astype(dtype)

    def states(slots):
        return joint_states(rollout.obs[slots], rollout.md_state,
                            rollout.collected[slots], dtype)

    # Passes that start on multiples of 4 rows give one n-row pass's values
    # bit for bit: OpenBLAS rounds the value head's matrix-vector product in
    # groups of four rows and the last n % 4 apart. numpy forms a one-row
    # product as a vector product, which rounds apart too, so a lone last
    # row is passed with the 4 before it, in a pass of at least 8 rows.
    chunk = max(8, size - size % 4)
    values = np.empty(n, dtype)
    for lo in range(0, n, chunk):
        if lo == n - 1:
            lo -= min(4, lo)
        hi = min(lo + chunk, n)
        values[lo:hi] = critic_forward(policy.critic, states(slice(lo, hi)), work)
    adv_step = gae(rollout.reward[:n], values, rollout.done[:n],
                   config.discount, config.gae_lambda)
    targets = (adv_step + values).astype(dtype)

    adv = np.repeat(adv_step, len(md) // n)             # one per agent
    adv = ((adv - adv.mean()) / (adv.std() + 1e-8)).astype(dtype)
    rollout.n = 0

    def rows(x, sel):
        return np.take(x, sel, axis=0, out=work.array("x", (len(sel),) + x.shape[1:]))

    losses, diags = [], []
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(len(obs))
        for lo in range(0, len(obs), size):
            sel = order[lo:lo + size]
            diags.append(ppo_actor_update(policy.actor, opt_actor, {
                "obs": rows(obs, sel), "mask": mask[sel], "md": md[sel],
                "u": u[sel], "speed": speed[sel],
                "logp_old": logp_old[sel], "adv": adv[sel]},
                config.clip_ratio, config.entropy_coef, work))
        order_c = shuffle_rng.permutation(n)
        for lo in range(0, n, size):
            sel = order_c[lo:lo + size]
            losses.append(critic_update(policy.critic, opt_critic,
                                        states(sel), targets[sel], work))
    return float(np.mean(losses)), {
        key: float(np.mean([d[key] for d in diags]))
        for key in ("ratio_mean", "clip_fraction", "entropy")}


def train(scenario: Scenario, config: MappoConfig = MappoConfig(),
          reward: RewardConfig = RewardConfig(),
          progress=None,
          propulsion: PropulsionParams = REFERENCE_PROPULSION
          ) -> tuple[MappoPolicy, LearningCurve]:
    """Episodes through run_episode: sample and store each slot, score the
    landed episode's links (score_links) and rewards (reward_terms), then PPO
    epochs on a full rollout.

    Single-worker, float32, and bit-deterministic for a fixed config (seed
    included) under any BLAS thread count. The slots go into one Rollout,
    allocated here for the config's ``rollout``, which must be at least 1.
    ``progress`` is an optional callback(episode, curve); ``propulsion`` sets
    the env's slot energy costs.
    """
    if config.rollout < 1:
        raise ValueError(f"rollout must be at least 1, got {config.rollout}")
    env = CorridorEnv(scenario, reward=reward, propulsion=propulsion)
    actor = ActorNet(rng_stream(config.seed, "init-actor"), env.obs_dim,
                     env.n_actions, config.hidden, np.float32)
    critic = CriticNet(rng_stream(config.seed, "init-critic"), env.state_dim,
                       config.hidden, np.float32)
    policy = MappoPolicy(actor, critic, config)
    opt_actor = Adam([actor.vec], config.actor_lr)
    opt_critic = Adam([critic.vec], config.critic_lr)
    sample_rng = rng_stream(config.seed, "policy-sample")
    shuffle_rng = rng_stream(config.seed, "minibatch")

    rollout = Rollout.for_env(env, config.rollout, np.float32)
    curve = LearningCurve()
    last_value_loss = 0.0

    def act(env):
        action, sample = act_in_env(policy, env, sample_rng)
        rollout.add(sample, env.state.collected[0])
        return action

    for episode in range(config.max_episodes):
        seed = config.seed * 1_000_003 + episode    # its link draws
        _, success = run_episode(env, act)
        links = np.concatenate([verdicts for verdicts, _ in score_links(
            env.flown(), scenario, seed, separated=False, build=False,
            sdr_opts=env.sdr_opts)])
        totals = reward_terms(env, links)["total"]
        rollout.land(totals)
        ep_reward = 0.0
        # in slot order; sum() would round differently
        for total in totals.tolist():
            ep_reward += total

        curve.episode.append(episode)
        curve.reward.append(ep_reward)
        window = curve.reward[-config.smooth_window:]
        curve.smoothed.append(float(np.mean(window)))
        curve.value_loss.append(last_value_loss)
        curve.success.append(bool(success[0]))
        if progress is not None:
            progress(episode, curve)

        if rollout.n * env.n_agents >= config.rollout:
            last_value_loss, diag = _update(policy, opt_actor, opt_critic,
                                            rollout, config, shuffle_rng)
            for key, value in diag.items():
                getattr(curve, key).append(value)
            curve.value_loss[-1] = last_value_loss
    return policy, curve


def run_policy_episode(policy: MappoPolicy, env: CorridorEnv, seed: int):
    """Roll one greedy evaluation episode; returns (success, slots, energy,
    collected). ``seed`` is not read: a greedy episode draws nothing."""
    end, success = run_episode(env, lambda env: act_in_env(policy, env, None)[0])
    return (bool(success[0]), int(end.slot[0]),
            float(end.energy_per_uav[0].sum()), int(end.collected[0].sum()))
