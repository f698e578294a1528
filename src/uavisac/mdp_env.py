"""Slot-stepped multi-UAV data-collection environment for a batch of fleets.

Per slot, each UAV picks a monitoring device (or none), a heading and a
binary speed; collection succeeds when the scheduled uplink clears the SINR
threshold under the slot's interference. The env writes each slot into its
flight arrays and scores no reward. After landing, reward_terms scores the
shared reward from those arrays: collection progress, an energy penalty, a
safe-distance penalty, the arrival bonus, potential shaping and the QoS
term of the chain-link verdicts that score_links draws.

Safe-distance handling: intended moves that would end a non-exempt pair
closer than d_min (or shrink an already-close pair) are replaced by hover,
junior (higher) UAV index first. Pairs jointly parked at the start or end
station are exempt, since the shared launch/landing pads make co-location
unavoidable there.
"""

from dataclasses import dataclass, fields
from functools import lru_cache, reduce
from itertools import islice

import numpy as np

from .channel import md_gain_matrix, uplink_sinr
from .energy import PropulsionParams, REFERENCE_PROPULSION, slot_energy
from .isac_sdr import SdrOptions, link_feasibility_sweep, verify_design
from .scenario import Scenario, rng_stream


@dataclass(frozen=True)
class RewardConfig:
    # link_pass must not outrun the per-slot energy penalty or parked fleets
    # farm the QoS reward instead of finishing the mission
    collect: float = 10.0
    link_pass: float = 0.0
    link_fail: float = -1.0
    energy_scale: float = 1e4
    distance_penalty: float = -5.0
    arrival_bonus: float = 50.0
    # potential-based shaping (optimal-policy invariant): progress toward
    # uncollected devices and, once done, toward the landing pad; collection
    # events alone are too sparse to train navigation from a corner start
    shaping_md: float = 0.01      # reward per metre of closing device distance
    shaping_end: float = 0.002    # reward per metre of closing landing distance


@dataclass
class FleetState:
    """Fleets' state, arrays led by the fleet axis; ``slot`` counts the slots
    flown, for the live batch (CorridorEnv.state) or per fleet (end_state)."""

    slot: int | np.ndarray
    positions: np.ndarray          # (B, M, 3)
    headings: np.ndarray           # (B, M)
    residual_energy: np.ndarray    # (B, M)
    collected: np.ndarray          # (B, I) uint8
    energy_per_uav: np.ndarray     # (B, M) cumulative J


@dataclass(frozen=True)
class JointAction:
    md_choice: np.ndarray   # (B, M) int, -1 for no MD
    heading: np.ndarray     # (B, M) radians
    speed: np.ndarray       # (B, M) uint8, 0 hover / 1 fly at v_fixed


# -- mission rules ---------------------------------------------------------------
# Each rule takes arrays with leading batch axes (B fleets of M UAVs). Only
# CorridorEnv.step applies them, to one fleet for training and the DRL and
# online missions, to one per plan for the planners' searches and replays.
# Per-slot "any" tests use np.count_nonzero, far cheaper than ndarray.any().


@lru_cache(maxsize=None)
def pairs_above(m_count: int) -> np.ndarray:
    """(M, M) mask of the UAV pairs (a, b) with a < b; read-only."""
    upper = np.triu(np.ones((m_count, m_count), dtype=bool), 1)
    upper.flags.writeable = False
    return upper


def uplink_gain2(positions, scenario: Scenario) -> np.ndarray:
    """Squared expected UAV-MD gains, (..., M, I) for positions (..., M, 3)."""
    cfg = scenario.config
    return md_gain_matrix(positions, scenario.md_positions, cfg.beta_ref,
                          cfg.kappa_nlos, cfg.los_c, cfg.los_d) ** 2


def interference_free_sinr(gain2, cfg) -> np.ndarray:
    return cfg.p_md * gain2 / cfg.noise_md


def schedulable(gain2, collected, cfg) -> np.ndarray:
    """(..., M, I): uncollected MDs whose interference-free SINR clears the gate."""
    return ((collected[..., None, :] == 0)
            & (interference_free_sinr(gain2, cfg) >= cfg.gamma_th_md))


def claim_targets(targets, allowed):
    """Claims in UAV order: UAV m gets ``targets[b, m]`` (-1 for none) when
    ``allowed[b, m]`` admits it and no lower-index UAV holds it, i.e. the
    lowest-index admitted UAV holds each MD. Returns the granted MD (-1
    otherwise), (B, M)."""
    n_fleets, m_count = targets.shape
    admitted = (targets >= 0) & allowed[np.arange(n_fleets)[:, None],
                                        np.arange(m_count),
                                        np.maximum(targets, 0)]
    held = ((targets[:, :, None] == targets[:, None, :]) & admitted[:, None, :]
            & pairs_above(m_count).T)
    return np.where(admitted & ~held.any(axis=-1), targets, -1)


def advance(positions, heading, speed, cfg) -> np.ndarray:
    """Intended positions after one slot at v_fixed along ``heading``, clipped
    to the area; altitude is kept."""
    step = speed * cfg.v_fixed * cfg.slot_seconds
    intended = positions.copy()
    intended[..., 0] = np.minimum(np.maximum(
        positions[..., 0] + step * np.cos(heading), 0.0), cfg.area_width)
    intended[..., 1] = np.minimum(np.maximum(
        positions[..., 1] + step * np.sin(heading), 0.0), cfg.area_height)
    return intended


def distances(a, b) -> np.ndarray:
    return np.sqrt(((a - b) ** 2).sum(axis=-1))


def too_close(positions, cfg) -> np.ndarray:
    """(..., M, M): the UAV pairs of each fleet closer than d_min - 1e-9 m."""
    pair = distances(positions[..., :, None, :], positions[..., None, :, :])
    return pair < cfg.d_min - 1e-9


def station_exempt(positions, cfg) -> np.ndarray:
    """(..., M, M): pairs inside the same station zone, where the shared
    launch/landing pads make co-location unavoidable. The zone is the pad plus
    one motion step, so the final approach cannot wedge against already-parked
    UAVs just outside the arrival radius."""
    radius = cfg.arrival_radius + cfg.v_fixed * cfg.slot_seconds
    exempt = False
    for station in (cfg.start, cfg.end):
        inside = distances(positions, np.array([*station, cfg.altitude])) <= radius
        exempt = exempt | (inside[..., :, None] & inside[..., None, :])
    return exempt


def resolve_collisions(pre, intended, cfg):
    """Junior-first hover reverts until no non-exempt pair ends below d_min.

    Arrays are (B, M, 3). In each fleet the first offending pair (a, b) with
    a mover loses the junior mover's step: b's if b moved, else a's. Station
    zones aside, the post-step fleet therefore always satisfies the pairwise
    safe distance; a pair that was already too close before the step (only
    reachable by direct state injection) simply cannot be separated by
    reverting and is left to the distance penalty. Returns (final, overrides,
    blocked): the reverted UAVs and the partner that blocked each (-1 if none).

    A pass reverts nothing in a fleet without an offending pair, so after the
    first pass only the fleets that the last pass reverted are tested again.
    """
    cand = intended.copy()
    n_fleets, m_count = cand.shape[:2]
    overrides = np.zeros((n_fleets, m_count), dtype=bool)
    blocked = np.full((n_fleets, m_count), -1)
    moved = (cand != pre).any(axis=-1)
    fleets, rows = np.arange(n_fleets), slice(None)
    for _ in range(m_count * m_count + 1):
        close = (pairs_above(m_count) & (moved[rows, :, None] | moved[rows, None, :])
                 & too_close(cand[rows], cfg))
        if not np.count_nonzero(close):
            break
        close &= ~station_exempt(cand[rows], cfg)
        close = close.reshape(len(fleets), -1)
        hit = close.any(axis=1)
        fleets = rows = fleets[hit]
        if not len(fleets):
            break
        a, b = np.divmod(np.argmax(close[hit], axis=1), m_count)
        junior = np.where(moved[fleets, b], b, a)
        cand[fleets, junior] = pre[fleets, junior]
        moved[fleets, junior] = False
        overrides[fleets, junior] = True
        blocked[fleets, junior] = a + b - junior
    return cand, overrides, blocked


@dataclass
class SlotOutcome:
    """What one slot did to a batch of fleets; arrays lead with (B, M)."""

    served_sinr: np.ndarray   # SINR of each scheduled uplink, 0 when idle
    newly: np.ndarray         # the UAV's scheduled MD was collected this slot
    heading: np.ndarray       # wrapped to [-pi, pi)
    final: np.ndarray         # (B, M, 3) positions after the overrides
    overrides: np.ndarray
    blocked: np.ndarray
    moved: np.ndarray         # uint8 effective motion
    energy: np.ndarray        # J spent in the slot


@dataclass
class Flight(SlotOutcome):
    """One fleet's episode: each slot's SlotOutcome and the state and
    schedule it started from, every array led by the slot axis (T, ...)."""

    start: np.ndarray         # (T, M, 3) positions at the slot's start
    collected: np.ndarray     # (T, I) uint8, collected at the slot's start
    served: np.ndarray        # (T, M) scheduled MD, -1 for none

    @classmethod
    def empty(cls, lead: tuple, m_count: int, n_mds: int) -> "Flight":
        """Zeroed arrays led by ``lead``: (T,) for one episode, (B, T) for a
        batch of episodes."""
        dtypes = {"newly": bool, "overrides": bool, "blocked": int,
                  "moved": np.uint8, "served": int}
        arrays = {f.name: np.zeros((*lead, m_count), dtypes.get(f.name, float))
                  for f in fields(cls)}
        return cls(**arrays | {"final": np.zeros((*lead, m_count, 3)),
                               "start": np.zeros((*lead, m_count, 3)),
                               "collected": np.zeros((*lead, n_mds), np.uint8)})

    def take(self, index) -> "Flight":
        """The Flight of ``array[index]`` for every array."""
        return Flight(**{name: rows[index] for name, rows in vars(self).items()})

    def end_collected(self) -> np.ndarray:
        """(T, I): the MDs collected at each slot's end."""
        end = self.collected.copy()
        slots, uavs = np.nonzero(self.newly)
        end[slots, self.served[slots, uavs]] = 1
        return end


def slot_costs(cfg, propulsion: PropulsionParams) -> np.ndarray:
    """Energy in J of one slot spent hovering (index 0) or flying (index 1)."""
    return np.array([slot_energy(flying, cfg.slot_seconds, propulsion, cfg.v_fixed)
                     for flying in (0, 1)])


def fleet_transition(positions, collected, gain2, md_choice, heading, speed,
                     cfg, costs) -> SlotOutcome:
    """Serve, then move: one slot of the mission rules for (B, M) fleets.

    A scheduled uplink that clears the SINR gate under the slot's interference
    at the starting positions collects its MD (``collected`` (B, I) is updated
    in place). Each UAV then takes its intended step under the safe-distance
    reverts and pays the hover or flight cost (``costs``, from slot_costs) of
    its effective motion."""
    served_sinr = uplink_sinr(gain2, md_choice, cfg.p_md, cfg.noise_md)
    newly = served_sinr >= cfg.gamma_th_md
    if np.count_nonzero(newly):
        fleets, uavs = np.nonzero(newly)
        mds = md_choice[fleets, uavs]
        newly[fleets, uavs] = collected[fleets, mds] == 0
        collected[fleets, mds] = 1

    heading = np.mod(heading + np.pi, 2 * np.pi) - np.pi
    intended = advance(positions, heading, speed, cfg)
    final, overrides, blocked = resolve_collisions(positions, intended, cfg)
    moved = (np.abs(final - positions) > 1e-12).any(axis=-1).astype(np.uint8)
    return SlotOutcome(served_sinr, newly, heading, final, overrides, blocked,
                       moved, costs[moved])


def arrived(positions, collected, cfg) -> np.ndarray:
    """Per fleet: every MD collected, every UAV within arrival_radius of the end."""
    success = collected.all(axis=-1)
    if np.count_nonzero(success):
        end = np.array([*cfg.end, cfg.altitude])
        success &= (distances(positions, end) <= cfg.arrival_radius).all(axis=-1)
    return success


def mission_status(positions, collected, residual_energy, slot, cfg):
    """(success, done) per fleet: success is arrived(); the episode also ends
    at the horizon or on an empty battery."""
    success = arrived(positions, collected, cfg)
    done = (success | (slot >= cfg.horizon_slots)
            | (residual_energy <= 0).any(axis=-1))
    return success, done


# the transmit-design options of every post-flight link sweep
LINK_OPTIONS = SdrOptions(certify_only=True)


def joint_states(obs, md_state, collected, dtype=None) -> np.ndarray:
    """(B, state_dim) critic states: each row's joint observations (B, M,
    obs_dim), the scaled MD locations ``md_state`` (2I,) and its collected
    set (B, I), cast to ``dtype`` (None: the inputs' common type)."""
    rows = len(obs)
    return np.concatenate([obs.reshape(rows, -1),
                           np.broadcast_to(md_state, (rows, len(md_state))),
                           collected], axis=1, dtype=dtype)


class CorridorEnv:
    """B fleets of one world stepped in lock step; single-owner, so spawn one
    instance per worker. A fleet that lands, runs out of battery or reaches
    the horizon leaves the batch: ``state`` holds the ``live`` fleets,
    ``end_state`` and ``success`` each fleet's end. A step scores no reward
    and draws no chain link; with ``record`` it writes the slot into the
    (B, T) ``flight`` arrays, which reward_terms reads after landing and
    whose chain links score_links (given ``sdr_opts``) decides as flown()."""

    def __init__(self, scenario: Scenario, reward: RewardConfig = RewardConfig(),
                 propulsion: PropulsionParams = REFERENCE_PROPULSION,
                 sdr_opts: SdrOptions = LINK_OPTIONS,
                 record: bool = True):
        self.scenario = scenario
        self.cfg = scenario.config
        self.reward_cfg = reward
        self._slot_costs = slot_costs(self.cfg, propulsion)
        self.sdr_opts = sdr_opts
        self.record = record
        self.n_agents = self.cfg.num_uavs
        self.n_mds = self.cfg.num_mds
        self.n_actions = self.n_mds + 1          # MD indices plus no-op
        self.obs_dim = 8 + 4 * self.n_mds + 3 * (self.n_agents - 1) + self.n_agents
        self.state_dim = self.n_agents * self.obs_dim + 3 * self.n_mds
        self._diag = float(np.hypot(self.cfg.area_width, self.cfg.area_height))
        self._start3 = np.array([*self.cfg.start, self.cfg.altitude])
        self._end3 = np.array([*self.cfg.end, self.cfg.altitude])
        md = scenario.md_positions
        self.md_state = np.concatenate([2 * md[:, 0] / self.cfg.area_width - 1,
                                        2 * md[:, 1] / self.cfg.area_height - 1])
        self.state = self.live = self.end_state = self.success = self.flight = None
        self._gains = None      # (positions, squared gains) last computed

    # -- lifecycle ---------------------------------------------------------

    def reset(self, *, fleets: int = 1):
        """``fleets`` fleets on the start pad, nothing collected, full batteries,
        and (with ``record``) new flight arrays for horizon_slots slots."""
        m = self.n_agents

        def on_pad(slot):
            return FleetState(
                slot=slot,
                positions=np.tile(self._start3, (fleets, m, 1)),
                headings=np.zeros((fleets, m)),
                residual_energy=np.full((fleets, m), self.cfg.e_total),
                collected=np.zeros((fleets, self.n_mds), dtype=np.uint8),
                energy_per_uav=np.zeros((fleets, m)))

        self.state = on_pad(0)
        self.end_state = on_pad(np.zeros(fleets, dtype=int))
        self.live = np.arange(fleets)
        self.success = np.zeros(fleets, dtype=bool)
        self.flight = (Flight.empty((fleets, self.cfg.horizon_slots), m, self.n_mds)
                       if self.record else None)

    def flown(self, fleet: int = 0) -> Flight:
        """The flight rows of the slots ``fleet`` stepped since reset, as views."""
        slots = (self.state.slot if fleet in self.live
                 else self.end_state.slot[fleet])
        return self.flight.take((fleet, slice(slots)))

    # -- observation/state construction -------------------------------------

    def _bearings(self, origins, points) -> np.ndarray:
        """(B, M, N, 3): from each origin (B, M, 3) to each point (B, N, 3),
        the unit direction (cos, sin) and a bounded scaled distance."""
        delta = points[:, None, :, :2] - origins[:, :, None, :2]
        dist = np.hypot(delta[..., 0], delta[..., 1])
        safe = np.maximum(dist, 1e-9)
        return np.stack([delta[..., 0] / safe, delta[..., 1] / safe,
                         2.0 * np.minimum(dist / self._diag, 1.0) - 1.0], axis=-1)

    def observations(self) -> np.ndarray:
        """(live, M, obs_dim) per-agent views, all features scaled to [-1, 1].

        Row m of a fleet holds: heading (cos, sin), position, residual
        energy, the bearing of the landing pad, per MD its bearing and
        collection flag, the bearings of the other UAVs in index order, and
        the agent one-hot. Directions are unit vectors with a separate
        bounded distance channel, which keeps nearby targets well
        conditioned for the policy net.
        """
        s = self.state
        cfg = self.cfg
        m_count, n_md = self.n_agents, self.n_mds
        pos = s.positions
        n_fleets = len(pos)
        fixed = np.concatenate([self._end3[None], self.scenario.md_positions])
        bearings = self._bearings(pos, np.concatenate(
            [np.broadcast_to(fixed, (n_fleets, *fixed.shape)), pos], axis=1))
        out = np.empty((n_fleets, m_count, self.obs_dim))
        out[..., 0] = np.cos(s.headings)
        out[..., 1] = np.sin(s.headings)
        out[..., 2] = 2 * pos[..., 0] / cfg.area_width - 1
        out[..., 3] = 2 * pos[..., 1] / cfg.area_height - 1
        out[..., 4] = 2 * s.residual_energy / cfg.e_total - 1
        out[..., 5:8] = bearings[:, :, 0]
        md_feat = out[..., 8:8 + 4 * n_md].reshape(n_fleets, m_count, n_md, 4)
        md_feat[..., :3] = bearings[:, :, 1:1 + n_md]
        md_feat[..., 3] = s.collected[:, None]
        others = bearings[:, :, 1 + n_md:][:, ~np.eye(m_count, dtype=bool)]
        out[..., 8 + 4 * n_md:-m_count] = others.reshape(n_fleets, m_count, -1)
        out[..., -m_count:] = np.eye(m_count)
        return out

    def critic_state(self, obs=None) -> np.ndarray:
        """(live, state_dim): each fleet's joint observations plus the global
        MD locations and collection status (joint_states).

        ``obs`` may pass this state's observations() when the caller already
        holds them."""
        if obs is None:
            obs = self.observations()
        return joint_states(obs, self.md_state, self.state.collected)

    # -- action masking ------------------------------------------------------

    def gain2(self) -> np.ndarray:
        """Squared UAV-MD gains (live, M, I) at the live fleets' positions,
        read-only. Kept for the positions array, so the masks, the controller
        and the step of a slot share one; the positions are made read-only,
        so a step or an injected state assigns new ones."""
        pos, kept = self.state.positions, self._gains
        if kept is None or kept[0] is not pos:
            gain2 = uplink_gain2(pos, self.scenario)
            pos.flags.writeable = gain2.flags.writeable = False
            self._gains = (pos, gain2)
        return self._gains[1]

    def predicted_sinr(self) -> np.ndarray:
        """Interference-free uplink SINR of every (UAV, MD) pair this slot."""
        return interference_free_sinr(self.gain2(), self.cfg)

    def open_masks(self) -> np.ndarray:
        """(live, M, n_actions) choices open to each agent before any claim
        this slot: the schedulable MDs, plus the no-op, which is always on."""
        mask = np.ones((len(self.live), self.n_agents, self.n_actions), dtype=bool)
        mask[..., :-1] = schedulable(self.gain2(), self.state.collected, self.cfg)
        return mask

    def action_mask(self, m: int, claimed=()) -> np.ndarray:
        """(live, n_actions): agent m's valid MD choices in each live fleet
        given earlier agents' claims, the same in every fleet; no-op always on.

        Only MD indices (0 .. n_mds-1) in ``claimed`` are claims; -1, None and
        the no-op index are not."""
        mask = self.open_masks()[:, m]
        for i in claimed:
            if i is not None and 0 <= i < self.n_mds:
                mask[:, i] = False
        return mask

    # -- transition ----------------------------------------------------------

    def step(self, action: JointAction):
        """Apply one joint action, arrays (live, M), to the live fleets and
        write the slot into ``flight``; returns (done, success) of the stepped
        fleets, and the done ones leave ``state`` for ``end_state``."""
        s, cfg, live = self.state, self.cfg, self.live
        if s is None or not len(live):
            raise RuntimeError("no live fleet: each has landed, run out of "
                               "battery or reached the horizon; reset() first")
        md_choice, heading, speed = map(np.asarray, (
            action.md_choice, action.heading, action.speed))
        # checked before the casts, which would turn a NaN or a fraction into
        # a valid-looking choice; int and uint8 arrays pass some by type
        if (not md_choice.shape == heading.shape == speed.shape
                == (len(live), self.n_agents)
                or not np.isfinite(heading).all()
                or not (speed.max() <= 1 if speed.dtype == np.uint8
                        else ((speed == 0) | (speed == 1)).all())
                or md_choice.min() < -1
                or (top := md_choice.max()) >= self.n_mds
                or not (md_choice.dtype.kind in "iu"
                        or (md_choice % 1 == 0).all())):
            raise ValueError("malformed joint action")
        md_choice = np.asarray(md_choice, dtype=int)
        heading = np.asarray(heading, dtype=float)
        speed = np.asarray(speed, dtype=np.uint8)

        # a joint action is valid when claim_targets grants every choice: a
        # chosen MD is schedulable and chosen by no lower-index UAV
        gain2 = self.gain2()
        if top >= 0:
            ungranted = claim_targets(md_choice, schedulable(
                gain2, s.collected, cfg)) != md_choice
            if np.count_nonzero(ungranted):
                b, m = np.argwhere(ungranted)[0]
                raise ValueError(f"action mask violation: fleet {live[b]} "
                                 f"UAV {m} chose MD {md_choice[b, m]}")

        t, f = s.slot, self.flight
        if f is not None:
            f.start[live, t], f.collected[live, t] = s.positions, s.collected
            f.served[live, t] = md_choice
        out = fleet_transition(s.positions, s.collected, gain2, md_choice,
                               heading, speed, cfg, self._slot_costs)
        if f is not None:
            for name, value in vars(out).items():
                getattr(f, name)[live, t] = value

        # energy bookkeeping uses the effective motion after overrides
        s.energy_per_uav += out.energy
        s.residual_energy -= out.energy
        s.positions = out.final
        s.headings = out.heading
        s.slot += 1
        success, done = mission_status(s.positions, s.collected,
                                       s.residual_energy, s.slot, cfg)
        if np.count_nonzero(done):
            ended, keep = live[done], ~done
            self.success[ended] = success[done]
            self.end_state.slot[ended] = s.slot
            for name, value in vars(s).items():
                if name != "slot":
                    getattr(self.end_state, name)[ended] = value[done]
                    setattr(s, name, value[keep])
            self.live = live[keep]
        return done, success


def run_episode(env: CorridorEnv, act, *, fleets: int = 1):
    """Reset ``env`` with ``fleets`` fleets and step it with ``act(env)``,
    the live fleets' joint action, until every fleet has ended; returns the
    end states and success flags, (B,). The one loop that flies a fleet; it
    scores no chain link (score_links does)."""
    env.reset(fleets=fleets)
    while len(env.live):
        env.step(act(env))
    return env.end_state, env.success


# -- post-flight rewards, link scoring and constraint audit ---------------------

# slots per link sweep; score_links yields one block at a time, so a
# mission audit holds at most two blocks' designs, never a whole flight's
_BLOCK = 16


def _potentials(env: CorridorEnv, positions, collected) -> np.ndarray:
    """State potentials of (T, M, 3) positions with (T, I) collected sets:
    negative device-deficit and landing distances. States are grouped by
    their collected set, so each one sums exactly its open MDs."""
    r = env.reward_cfg
    value = np.zeros(len(positions))
    sets, group = np.unique(collected, axis=0, return_inverse=True)
    for k, open_md in enumerate(sets == 0):
        rows = group == k
        diff = env.scenario.md_positions[open_md, :2] - positions[rows, :, None, :2]
        dist = np.sqrt((diff ** 2).sum(axis=-1))
        value[rows] -= r.shaping_md * dist.min(axis=1).sum(axis=-1)
    d_end = np.linalg.norm(positions[..., :2] - env._end3[:2], axis=-1)
    return value - r.shaping_end * d_end.sum(axis=-1)


def reward_terms(env: CorridorEnv, links) -> dict:
    """Each slot's reward terms of fleet 0 since reset, (T,) arrays in the
    order they sum to "total"; ``links`` is score_links' (T, E) chain-link
    verdicts, scored link_pass or link_fail each and summed in chain order.
    Only training reads them, after landing: the shaping is the difference
    of each slot's end and start state potentials (Ng, Harada & Russell
    1999)."""
    f, cfg, r = env.flown(), env.cfg, env.reward_cfg
    qos = np.zeros(len(links))
    for link in links.T:
        qos += np.where(link, r.link_pass, r.link_fail)
    end_collected = f.end_collected()
    # pairs that end close or blocked one another, outside the station zones
    near = too_close(f.final, cfg)
    near |= f.overrides[..., None] & (f.blocked[..., None] == np.arange(env.n_agents))
    near = (near | near.swapaxes(-1, -2)) & pairs_above(env.n_agents)
    near &= ~station_exempt(f.final, cfg)
    terms = {
        "collection": r.collect * f.newly.sum(axis=-1),
        "qos": qos,
        "energy": -f.energy.sum(axis=-1) / r.energy_scale,
        "distance": r.distance_penalty * near.sum(axis=(-2, -1)),
        "bonus": np.where(arrived(f.final, end_collected, cfg), r.arrival_bonus, 0.0),
        "shaping": (_potentials(env, f.final, end_collected)
                    - _potentials(env, f.start, f.collected)),
    }
    terms["total"] = reduce(np.add, terms.values())
    return terms


def score_links(flight: Flight, scenario: Scenario, seed: int, separated: bool,
                build: bool, sdr_opts: SdrOptions = LINK_OPTIONS):
    """Decide the chain links of a landed episode's ``flight`` (for an env,
    its flown()) on ``seed``'s link draws, a block of slots at a time: one
    link_feasibility_sweep per block from the "env-channel" stream, as
    sweeping each slot in flight would have. Yields each block's (verdicts,
    designs) as it sweeps it: the verdicts (S, E) bool in chain order, and
    when ``build`` the stack of its links' designs, slot by slot in chain
    order (None when not ``build`` or the block has no link). No link
    verdict moves a UAV or enters an observation."""
    final = flight.final
    rng = rng_stream(seed, "env-channel")
    for start in range(0, len(final), _BLOCK):
        verdicts, built = link_feasibility_sweep(
            final[start:start + _BLOCK], scenario, rng, sdr_opts, separated,
            build)
        yield verdicts, built if build else None


@dataclass
class ConstraintReport:
    md_exclusivity: int = 0        # same MD scheduled twice in one slot
    coverage_missing: int = 0      # MDs never collected
    power_budget: int = 0          # designs above the transmit budget
    psd: int = 0                   # covariance eigenvalue below tolerance
    tbp: int = 0                   # sensing gain below the floor
    min_distance: int = 0          # non-exempt pairs closer than d_min
    uplink_gating: int = 0         # served slots below the MD SINR threshold
    inter_uav_sinr: int | None = 0  # infeasible link-slots; None when N/A


def check_constraints(flight: Flight, designs, scenario: Scenario,
                      connected: bool = True) -> ConstraintReport:
    """Audit an episode's Flight (CorridorEnv.flown(), or a plan's recorded
    replay) and its link designs (score_links' stacks, one per block of
    slots, None for a block without links) against the mission constraints.
    ``designs`` may be a stream: it is read once, a block at a time, and no
    block is kept once measured.

    ``connected`` marks methods that solve the inter-UAV transmit design; for
    disconnected baselines the link SINR constraint is reported
    not-applicable (None).
    """
    cfg = scenario.config
    rep = ConstraintReport(inter_uav_sinr=0 if connected else None)
    close = pairs_above(cfg.num_uavs) & too_close(flight.final, cfg)
    close &= ~station_exempt(flight.final, cfg)
    rep.min_distance = int(close.sum())
    served, sinr = flight.served, flight.served_sinr
    ordered = np.sort(served, axis=1)
    rep.md_exclusivity = int(((ordered[:, 1:] == ordered[:, :-1])
                              & (ordered[:, 1:] >= 0)).sum())
    rep.uplink_gating = int(((served >= 0) & (sinr < cfg.gamma_th_md)).sum())
    # an MD is covered only by an uplink that cleared the gate
    collected = np.zeros(cfg.num_mds, dtype=bool)
    collected[served[(served >= 0) & (sinr >= cfg.gamma_th_md)]] = True
    # each block's designs re-measured from their matrices
    for block in designs:
        if block is None:
            continue
        report = verify_design(block, **vars(block.problem))
        feasible = block.feasible
        tbp_short = report.tbp_residuals.min(axis=-1) < -1e-6
        rep.power_budget += int((report.power_residual < -1e-6).sum())
        rep.psd += int((report.psd_residual < -1e-8).sum())
        rep.tbp += int((feasible & tbp_short).sum())
        if connected:
            rep.inter_uav_sinr += int(
                (~feasible | (report.sinr_residual < -1e-6)).sum())
    rep.coverage_missing = int((~collected).sum())
    return rep


def write_trace_csv(flight: Flight, rewards, designs, scenario: Scenario, path):
    """Per-slot episode trace: kinematics, scheduling, the reward terms
    (reward_terms') and the link margins of score_links' design stacks,
    read a block at a time as the rows are written."""
    m_count = scenario.config.num_uavs
    n_links = m_count - 1
    cols = ["slot"]
    for m in range(m_count):
        cols += [f"x_{m}", f"y_{m}", f"heading_{m}", f"speed_{m}", f"served_md_{m}"]
    cols += [f"r_{name}" for name in rewards]
    cols += [f"link_margin_{k}" for k in range(n_links)]
    margins = (margin for block in designs if block is not None
               for margin in block.margin)
    lines = [",".join(cols)]
    for t, final in enumerate(flight.final):
        row = [str(t + 1)]
        for m in range(m_count):
            row += [f"{final[m, 0]:.6f}", f"{final[m, 1]:.6f}",
                    f"{flight.heading[t, m]:.6f}", str(int(flight.moved[t, m])),
                    str(int(flight.served[t, m]))]
        row += [f"{terms[t]:.6f}" for terms in rewards.values()]
        row += [f"{val:.9g}" for val in
                list(islice(margins, n_links)) or [np.nan] * n_links]
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
