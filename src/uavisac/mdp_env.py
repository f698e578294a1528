"""Slot-stepped multi-UAV data-collection environment.

Per slot, each UAV picks a monitoring device (or none), a heading and a
binary speed; collection succeeds when the scheduled uplink clears the SINR
threshold under the slot's interference. The env writes each slot into its
flight arrays and scores no reward. After landing, reward_terms scores the
shared reward from those arrays: collection progress, an energy penalty, a
safe-distance penalty, the arrival bonus, potential shaping and the per-link
ISAC feasibility outcome that score_links scores.

Safe-distance handling: intended moves that would end a non-exempt pair
closer than d_min (or shrink an already-close pair) are replaced by hover,
junior (higher) UAV index first. Pairs jointly parked at the start or end
station are exempt, since the shared launch/landing pads make co-location
unavoidable there.
"""

from dataclasses import dataclass, fields, replace
from functools import lru_cache, reduce
from itertools import groupby

import numpy as np

from .channel import md_gain_matrix, uplink_sinr
from .energy import PropulsionParams, REFERENCE_PROPULSION, slot_energy
from .isac_sdr import (SdrOptions, _measure_design, link_feasibility_sweep,
                       link_reward)
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
    slot: int
    positions: np.ndarray          # (M, 3)
    headings: np.ndarray           # (M,)
    residual_energy: np.ndarray    # (M,)
    collected: np.ndarray          # (I,) uint8
    energy_per_uav: np.ndarray     # (M,) cumulative J

    @property
    def cumulative_energy(self) -> float:
        return float(self.energy_per_uav.sum())


@dataclass(frozen=True)
class JointAction:
    md_choice: np.ndarray   # (M,) int, -1 for no MD
    heading: np.ndarray     # (M,) radians
    speed: np.ndarray       # (M,) uint8, 0 hover / 1 fly at v_fixed

    @classmethod
    def hover(cls, m: int) -> "JointAction":
        return cls(md_choice=np.full(m, -1), heading=np.zeros(m),
                   speed=np.zeros(m, dtype=np.uint8))


# -- mission rules ---------------------------------------------------------------
# Each rule takes arrays with leading batch axes (B fleets of M UAVs). The env
# steps a batch of one through them; the planners' population rollout steps
# one fleet per candidate plan, so both follow the same rules bit for bit.


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
    """
    cand = intended.copy()
    n_fleets, m_count = cand.shape[:2]
    overrides = np.zeros((n_fleets, m_count), dtype=bool)
    blocked = np.full((n_fleets, m_count), -1)
    for _ in range(m_count * m_count + 1):
        moved = (cand != pre).any(axis=-1)
        close = (pairs_above(m_count) & (moved[:, :, None] | moved[:, None, :])
                 & too_close(cand, cfg))
        if not close.any():
            break
        close &= ~station_exempt(cand, cfg)
        close = close.reshape(n_fleets, -1)
        fleets = np.flatnonzero(close.any(axis=1))
        if not len(fleets):
            break
        a, b = np.divmod(np.argmax(close[fleets], axis=1), m_count)
        junior = np.where(moved[fleets, b], b, a)
        cand[fleets, junior] = pre[fleets, junior]
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
    def empty(cls, slots: int, m_count: int, n_mds: int) -> "Flight":
        dtypes = {"newly": bool, "overrides": bool, "blocked": int,
                  "moved": np.uint8, "served": int}
        arrays = {f.name: np.zeros((slots, m_count), dtypes.get(f.name, float))
                  for f in fields(cls)}
        return cls(**arrays | {"final": np.zeros((slots, m_count, 3)),
                               "start": np.zeros((slots, m_count, 3)),
                               "collected": np.zeros((slots, n_mds), np.uint8)})


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
    if newly.any():
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
    if success.any():
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


class CorridorEnv:
    """Single-owner, sequentially stepped; spawn one instance per worker.

    A step scores no reward and draws no chain link: it writes the slot into
    ``flight``, which reward_terms and score_links (with ``sdr_opts``) read
    after landing."""

    # record selects nothing; it stays only because perfbench passes it
    def __init__(self, scenario: Scenario, reward: RewardConfig = RewardConfig(),
                 propulsion: PropulsionParams = REFERENCE_PROPULSION,
                 sdr_opts: SdrOptions = SdrOptions(certify_only=True),
                 record: bool = False):
        self.scenario = scenario
        self.cfg = scenario.config
        self.reward_cfg = reward
        self.propulsion = propulsion
        self._slot_costs = slot_costs(self.cfg, propulsion)
        self.sdr_opts = sdr_opts
        self.n_agents = self.cfg.num_uavs
        self.n_mds = self.cfg.num_mds
        self.n_actions = self.n_mds + 1          # MD indices plus no-op
        self.obs_dim = 8 + 4 * self.n_mds + 3 * (self.n_agents - 1) + self.n_agents
        self.state_dim = self.n_agents * self.obs_dim + 3 * self.n_mds
        self._diag = float(np.hypot(self.cfg.area_width, self.cfg.area_height))
        self._start3 = np.array([*self.cfg.start, self.cfg.altitude])
        self._end3 = np.array([*self.cfg.end, self.cfg.altitude])
        self.state: FleetState | None = None
        self.flight: Flight | None = None
        self._gains = None      # (positions, squared gains) last computed

    # -- lifecycle ---------------------------------------------------------

    def reset(self, seed: int):
        """All UAVs on the start pad, nothing collected, full batteries, and
        new flight arrays for horizon_slots slots."""
        m = self.n_agents
        self.state = FleetState(
            slot=0,
            positions=np.tile(self._start3, (m, 1)),
            headings=np.zeros(m),
            residual_energy=np.full(m, self.cfg.e_total),
            collected=np.zeros(self.n_mds, dtype=np.uint8),
            energy_per_uav=np.zeros(m),
        )
        self.flight = Flight.empty(self.cfg.horizon_slots, m, self.n_mds)

    def flown(self) -> Flight:
        """The slots stepped since reset: the first state.slot rows of the
        flight arrays, as views."""
        n = self.state.slot
        return Flight(**{name: rows[:n] for name, rows in vars(self.flight).items()})

    # -- observation/state construction -------------------------------------

    def _bearings(self, origins, points) -> np.ndarray:
        """(M, N, 3): from each origin to each point, the unit direction
        (cos, sin) and a bounded scaled distance."""
        delta = points[None, :, :2] - origins[:, None, :2]
        dist = np.hypot(delta[..., 0], delta[..., 1])
        safe = np.maximum(dist, 1e-9)
        return np.stack([delta[..., 0] / safe, delta[..., 1] / safe,
                         2.0 * np.minimum(dist / self._diag, 1.0) - 1.0], axis=-1)

    def observations(self) -> np.ndarray:
        """(M, obs_dim) per-agent views, all features scaled to [-1, 1].

        Row m holds: heading (cos, sin), position, residual energy, the
        bearing of the landing pad, per MD its bearing and collection flag,
        the bearings of the other UAVs in index order, and the agent one-hot.
        Directions are unit vectors with a separate bounded distance channel,
        which keeps nearby targets well conditioned for the policy net.
        """
        s = self.state
        cfg = self.cfg
        m_count, n_md = self.n_agents, self.n_mds
        pos = s.positions
        bearings = self._bearings(pos, np.concatenate(
            [self._end3[None], self.scenario.md_positions, pos]))
        out = np.empty((m_count, self.obs_dim))
        out[:, 0] = np.cos(s.headings)
        out[:, 1] = np.sin(s.headings)
        out[:, 2] = 2 * pos[:, 0] / cfg.area_width - 1
        out[:, 3] = 2 * pos[:, 1] / cfg.area_height - 1
        out[:, 4] = 2 * s.residual_energy / cfg.e_total - 1
        out[:, 5:8] = bearings[:, 0]
        md_feat = out[:, 8:8 + 4 * n_md].reshape(m_count, n_md, 4)
        md_feat[..., :3] = bearings[:, 1:1 + n_md]
        md_feat[..., 3] = s.collected
        others = bearings[:, 1 + n_md:][~np.eye(m_count, dtype=bool)]
        out[:, 8 + 4 * n_md:-m_count] = others.reshape(m_count, -1)
        out[:, -m_count:] = np.eye(m_count)
        return out

    def critic_state(self, obs=None) -> np.ndarray:
        """Joint observations plus global MD locations and collection status.

        ``obs`` may pass this state's observations() when the caller already
        holds them."""
        cfg = self.cfg
        md = self.scenario.md_positions
        if obs is None:
            obs = self.observations()
        glob = np.concatenate([
            (2 * md[:, 0] / cfg.area_width - 1),
            (2 * md[:, 1] / cfg.area_height - 1),
            self.state.collected.astype(float),
        ])
        return np.concatenate([obs.ravel(), glob])

    # -- action masking ------------------------------------------------------

    def gain2(self) -> np.ndarray:
        """Squared UAV-MD gains (M, I) at the fleet's current positions;
        read-only. The last result is kept by value, so the masks, the
        controller and the step of one slot share one gain matrix."""
        pos = self.state.positions
        if self._gains is None or not np.array_equal(self._gains[0], pos):
            gain2 = uplink_gain2(pos, self.scenario)
            gain2.flags.writeable = False
            self._gains = (pos.copy(), gain2)
        return self._gains[1]

    def predicted_sinr(self) -> np.ndarray:
        """Interference-free uplink SINR of every (UAV, MD) pair this slot."""
        return interference_free_sinr(self.gain2(), self.cfg)

    def open_masks(self) -> np.ndarray:
        """(M, n_actions) choices open to each agent before any claim this
        slot: the schedulable MDs, plus the no-op, which is always on."""
        mask = np.ones((self.n_agents, self.n_actions), dtype=bool)
        mask[:, :-1] = schedulable(self.gain2(), self.state.collected, self.cfg)
        return mask

    def action_mask(self, m: int, claimed=()) -> np.ndarray:
        """Valid MD choices for agent m given earlier agents' claims; no-op always on.

        Only MD indices (0 .. n_mds-1) in ``claimed`` are claims; -1, None and
        the no-op index are not."""
        mask = self.open_masks()[m]
        for i in claimed:
            if i is not None and 0 <= i < self.n_mds:
                mask[i] = False
        return mask

    # -- transition ----------------------------------------------------------

    def step(self, action: JointAction):
        """Apply one joint action and write the slot into ``flight``; returns
        (done, success). The new fleet state is ``self.state``."""
        s, cfg = self.state, self.cfg
        if s is None:
            raise RuntimeError("reset() must be called before step()")
        if s.slot >= cfg.horizon_slots:
            raise RuntimeError("step past the horizon; reset() first")
        md_choice, heading, speed = (np.asarray(a) for a in (
            action.md_choice, action.heading, action.speed))
        # checked before the casts, which would turn a NaN or a fraction
        # into a valid-looking choice
        if ({md_choice.shape, heading.shape, speed.shape} != {(self.n_agents,)}
                or not np.isfinite(heading).all()
                or not ((speed == 0) | (speed == 1)).all()
                or not ((md_choice >= -1) & (md_choice < self.n_mds)
                        & (md_choice % 1 == 0)).all()):
            raise ValueError("malformed joint action")
        md_choice = np.asarray(md_choice, dtype=int)
        heading = np.asarray(heading, dtype=float)
        speed = speed.astype(np.uint8)

        # validate scheduling against the sequential masks
        gain2 = self.gain2()
        granted = claim_targets(md_choice[None],
                                schedulable(gain2, s.collected, cfg)[None])
        bad = np.flatnonzero((md_choice >= 0) & (granted[0] != md_choice))
        if len(bad):
            m = bad[0]
            raise ValueError(f"action mask violation: UAV {m} chose MD {md_choice[m]}")

        t, f = s.slot, self.flight
        f.start[t], f.collected[t], f.served[t] = s.positions, s.collected, md_choice
        out = fleet_transition(s.positions[None], s.collected[None], gain2[None],
                               md_choice[None], heading[None], speed[None], cfg,
                               self._slot_costs)
        for name, value in vars(out).items():
            getattr(f, name)[t] = value[0]

        # energy bookkeeping uses the effective motion after overrides
        s.energy_per_uav += out.energy[0]
        s.residual_energy -= out.energy[0]
        s.positions = out.final[0]
        s.headings = out.heading[0]
        s.slot += 1
        success, done = mission_status(s.positions, s.collected,
                                       s.residual_energy, s.slot, cfg)
        return bool(done), bool(success)


def run_episode(env: CorridorEnv, seed: int, act):
    """Reset ``env`` with ``seed`` and step it with ``act(env)`` until the
    episode ends; returns the final FleetState and the success flag. The one
    loop that steps an env; it scores no chain link (score_links does)."""
    env.reset(seed)
    done = False
    while not done:
        done, success = env.step(act(env))
    return env.state, success


# -- post-flight rewards, link scoring and constraint audit ---------------------

_BLOCK = 16  # slots per link sweep or audit pass; whole missions raise peak RSS


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


def reward_terms(env: CorridorEnv, qos) -> dict:
    """Each slot's reward terms since reset, (T,) arrays in the order they sum
    to "total"; ``qos`` is score_links' QoS term. Only training reads them,
    after landing: the shaping is the difference of each slot's end and start
    state potentials (Ng, Harada & Russell 1999)."""
    f, cfg, r = env.flown(), env.cfg, env.reward_cfg
    end_collected = f.collected.copy()
    slots, uavs = np.nonzero(f.newly)
    end_collected[slots, f.served[slots, uavs]] = 1
    # pairs that end close or blocked one another, outside the station zones
    near = too_close(f.final, cfg)
    near |= f.overrides[..., None] & (f.blocked[..., None] == np.arange(env.n_agents))
    near = (near | near.swapaxes(-1, -2)) & pairs_above(env.n_agents)
    near &= ~station_exempt(f.final, cfg)
    terms = {
        "collection": r.collect * f.newly.sum(axis=-1),
        "qos": np.asarray(qos, dtype=float),
        "energy": -f.energy.sum(axis=-1) / r.energy_scale,
        "distance": r.distance_penalty * near.sum(axis=(-2, -1)),
        "bonus": np.where(arrived(f.final, end_collected, cfg), r.arrival_bonus, 0.0),
        "shaping": (_potentials(env, f.final, end_collected)
                    - _potentials(env, f.start, f.collected)),
    }
    terms["total"] = reduce(np.add, terms.values())
    return terms


def score_links(env: CorridorEnv, seed: int, separated: bool, build: bool):
    """Score the chain links of ``env``'s landed episode, reset with ``seed``:
    one link_feasibility_sweep per block of slots from the episode's
    "env-channel" stream, as sweeping each slot in flight would have.
    Returns each slot's QoS term (link_reward), (T,), and every link's
    design, slot by slot in chain order, when ``build`` (else []). No link
    verdict moves a UAV or enters an observation."""
    r = env.reward_cfg
    final = env.flown().final
    rng = rng_stream(seed, "env-channel")
    qos, designs = [], []
    for start in range(0, len(final), _BLOCK):
        feasible, built = link_feasibility_sweep(
            final[start:start + _BLOCK], env.scenario, rng, env.sdr_opts,
            separated, build)
        qos += [link_reward(ok, r.link_pass, r.link_fail) for ok in feasible]
        if build:
            designs += built
    return np.array(qos), designs


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
    """Audit an episode's slots (CorridorEnv.flown()) and its link designs
    (score_links') against the mission constraints.

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
    # each design re-measured from its matrices: per block of slots, the
    # designs that share their problem's scalars at a time
    size = _BLOCK * max(cfg.num_uavs - 1, 1)
    for start in range(0, len(designs), size):
        for _, block in groupby(designs[start:start + size],
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


def write_trace_csv(flight: Flight, rewards, designs, scenario: Scenario, path):
    """Per-slot episode trace: kinematics, scheduling, the reward terms
    (reward_terms') and the link margins of score_links' designs."""
    m_count = scenario.config.num_uavs
    n_links = m_count - 1
    cols = ["slot"]
    for m in range(m_count):
        cols += [f"x_{m}", f"y_{m}", f"heading_{m}", f"speed_{m}", f"served_md_{m}"]
    cols += [f"r_{name}" for name in rewards]
    cols += [f"link_margin_{k}" for k in range(n_links)]
    lines = [",".join(cols)]
    for t, final in enumerate(flight.final):
        row = [str(t + 1)]
        for m in range(m_count):
            row += [f"{final[m, 0]:.6f}", f"{final[m, 1]:.6f}",
                    f"{flight.heading[t, m]:.6f}", str(int(flight.moved[t, m])),
                    str(int(flight.served[t, m]))]
        row += [f"{terms[t]:.6f}" for terms in rewards.values()]
        margins = [d.margin for d in designs[t * n_links:(t + 1) * n_links]]
        row += [f"{val:.9g}" for val in margins or [np.nan] * n_links]
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
