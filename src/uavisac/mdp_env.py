"""Slot-stepped multi-UAV data-collection environment.

Per slot, each UAV picks a monitoring device (or none), a heading and a
binary speed; collection succeeds when the scheduled uplink clears the SINR
threshold under the slot's interference. The shared reward combines
collection progress, the per-link ISAC feasibility outcome, an energy
penalty and a safe-distance penalty.

Safe-distance handling: intended moves that would end a non-exempt pair
closer than d_min (or shrink an already-close pair) are replaced by hover,
junior (higher) UAV index first. Pairs jointly parked at the start or end
station are exempt, since the shared launch/landing pads make co-location
unavoidable there.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import md_gain_matrix, uplink_sinr
from .energy import PropulsionParams, REFERENCE_PROPULSION, slot_energy
from .isac_sdr import (SdrOptions, chain_link_verdicts, link_feasibility_sweep,
                       link_reward, separated_link_sweep, verify_design)
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


@dataclass
class SlotRecord:
    """One slot of the episode trace, enough to re-audit every constraint."""

    slot: int
    positions: np.ndarray
    headings: np.ndarray
    speeds: np.ndarray
    served: np.ndarray
    served_sinr: np.ndarray
    reward: RewardBreakdown
    link_designs: list


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


def pair_distances(positions) -> np.ndarray:
    """(..., M, M) distances between the UAVs of each fleet."""
    return distances(positions[..., :, None, :], positions[..., None, :, :])


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
                 & (pair_distances(cand) < cfg.d_min - 1e-9))
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


def mission_status(positions, collected, residual_energy, slot, cfg):
    """(success, done) per fleet: success is every MD collected with every UAV
    within arrival_radius of the end station; the episode also ends at the
    horizon or on an empty battery."""
    success = collected.all(axis=-1)
    if success.any():
        end = np.array([*cfg.end, cfg.altitude])
        success &= (distances(positions, end) <= cfg.arrival_radius).all(axis=-1)
    done = (success | (slot >= cfg.horizon_slots)
            | (residual_energy <= 0).any(axis=-1))
    return success, done


class CorridorEnv:
    """Single-owner, sequentially stepped; spawn one instance per worker.

    ``link_mode`` scores the chain links each slot with the shared-array
    transmit design ("isac"), the split-array variant ("separated"), or not
    at all ("none")."""

    def __init__(self, scenario: Scenario, reward: RewardConfig = RewardConfig(),
                 propulsion: PropulsionParams = REFERENCE_PROPULSION,
                 sdr_opts: SdrOptions = SdrOptions(certify_only=True),
                 record: bool = False, link_mode: str = "isac"):
        if link_mode not in ("isac", "separated", "none"):
            raise ValueError(f"unknown link mode {link_mode!r}")
        self.scenario = scenario
        self.cfg = scenario.config
        self.reward_cfg = reward
        self.propulsion = propulsion
        self._slot_costs = slot_costs(self.cfg, propulsion)
        self.sdr_opts = sdr_opts
        self.record = record
        self.link_mode = link_mode
        self.n_agents = self.cfg.num_uavs
        self.n_mds = self.cfg.num_mds
        self.n_actions = self.n_mds + 1          # MD indices plus no-op
        self.obs_dim = 8 + 4 * self.n_mds + 3 * (self.n_agents - 1) + self.n_agents
        self.state_dim = self.n_agents * self.obs_dim + 3 * self.n_mds
        self._diag = float(np.hypot(self.cfg.area_width, self.cfg.area_height))
        self._start3 = np.array([*self.cfg.start, self.cfg.altitude])
        self._end3 = np.array([*self.cfg.end, self.cfg.altitude])
        self.state: FleetState | None = None
        self.trace: list[SlotRecord] = []
        self._rng = None
        self._scored = None     # (positions, collected, potential) last scored
        self._gains = None      # (positions, squared gains) last computed

    # -- lifecycle ---------------------------------------------------------

    def reset(self, seed: int):
        """All UAVs on the start pad, nothing collected, full batteries."""
        m = self.n_agents
        self.state = FleetState(
            slot=0,
            positions=np.tile(self._start3, (m, 1)),
            headings=np.zeros(m),
            residual_energy=np.full(m, self.cfg.e_total),
            collected=np.zeros(self.n_mds, dtype=np.uint8),
            energy_per_uav=np.zeros(m),
        )
        self._rng = rng_stream(seed, "env-channel")
        self.trace = []
        obs = self.observations()
        return self.state, obs, self.critic_state(obs)

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
        holds them (step returns them)."""
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
        s = self.state
        cfg = self.cfg
        if s is None:
            raise RuntimeError("reset() must be called before step()")
        md_choice = np.asarray(action.md_choice, dtype=int)
        speed = np.asarray(action.speed).astype(np.uint8)
        if (md_choice.shape != (self.n_agents,) or np.any(speed > 1)
                or np.any(md_choice >= self.n_mds)):
            raise ValueError("malformed joint action")

        # validate scheduling against the sequential masks
        gain2 = self.gain2()
        granted = claim_targets(md_choice[None],
                                schedulable(gain2, s.collected, cfg)[None])
        bad = np.flatnonzero((md_choice >= 0) & (granted[0] != md_choice))
        if len(bad):
            m = bad[0]
            raise ValueError(f"action mask violation: UAV {m} chose MD {md_choice[m]}")

        reward = RewardBreakdown()
        potential_before = self._potential(s.positions, s.collected)
        out = fleet_transition(s.positions[None], s.collected[None], gain2[None],
                               md_choice[None],
                               np.asarray(action.heading, float)[None],
                               speed[None], cfg, self._slot_costs)
        final, overrides, moved = out.final[0], out.overrides[0], out.moved[0]
        reward.collection = self.reward_cfg.collect * int(out.newly.sum())

        # pairs that end close or blocked one another, outside the station zones
        near = pair_distances(final) < cfg.d_min - 1e-9
        near |= overrides[:, None] & (out.blocked[0][:, None] == np.arange(self.n_agents))
        near = (near | near.T) & pairs_above(self.n_agents)
        if near.any():
            near &= ~station_exempt(final, cfg)
        reward.distance = self.reward_cfg.distance_penalty * int(near.sum())

        # energy bookkeeping uses the effective motion after overrides
        slot_e = out.energy[0]
        s.energy_per_uav += slot_e
        s.residual_energy -= slot_e
        reward.energy = -float(slot_e.sum()) / self.reward_cfg.energy_scale

        s.positions = final
        s.headings = out.heading[0]
        s.slot += 1
        reward.shaping = self._potential(final, s.collected) - potential_before

        # per-link ISAC feasibility at the slot's resulting formation: the
        # designs are built only for the trace, which the audit re-verifies
        designs = []
        if self.n_agents >= 2 and self.link_mode != "none":
            links = (s.positions, self.scenario.chain_edges, self.scenario, self._rng)
            separated = self.link_mode == "separated"
            if not self.record:
                feasible = chain_link_verdicts(*links, self.sdr_opts, separated)
            else:
                designs = (separated_link_sweep(*links) if separated
                           else link_feasibility_sweep(*links, self.sdr_opts))
                feasible = [d.feasible for d in designs]
            reward.qos = link_reward(feasible, self.reward_cfg.link_pass,
                                     self.reward_cfg.link_fail)

        success, done = mission_status(s.positions, s.collected,
                                       s.residual_energy, s.slot, cfg)
        success, done = bool(success), bool(done)
        if success:
            reward.bonus = self.reward_cfg.arrival_bonus

        if self.record:
            self.trace.append(SlotRecord(
                slot=s.slot, positions=final.copy(), headings=s.headings.copy(),
                speeds=moved.copy(), served=md_choice.copy(),
                served_sinr=out.served_sinr[0], reward=reward,
                link_designs=designs))

        info = {"success": success}
        return s, reward, self.observations(), done, info

    def _potential(self, positions, collected) -> float:
        """State potential: negative device-deficit and landing distances.

        The last state scored is kept by value, so a slot's start state, which
        the previous slot scored as its end state, is not scored again."""
        r = self.reward_cfg
        if r.shaping_md == 0.0 and r.shaping_end == 0.0:
            return 0.0
        if (self._scored is not None and np.array_equal(self._scored[0], positions)
                and np.array_equal(self._scored[1], collected)):
            return self._scored[2]
        value = 0.0
        if r.shaping_md != 0.0:
            open_md = self.scenario.md_positions[collected == 0, :2]
            if len(open_md):
                diff = open_md[None, :, :] - positions[:, None, :2]
                dist = np.sqrt((diff ** 2).sum(axis=2))
                value -= r.shaping_md * float(dist.min(axis=0).sum())
        if r.shaping_end != 0.0:
            d_end = np.linalg.norm(positions[:, :2] - self._end3[:2], axis=1)
            value -= r.shaping_end * float(d_end.sum())
        self._scored = (positions.copy(), collected.copy(), value)
        return value


def run_episode(env: CorridorEnv, seed: int, act):
    """Reset ``env`` with ``seed`` and step it with ``act(env, obs)`` until the
    episode ends; returns the final FleetState and the success flag."""
    _, obs, _ = env.reset(seed)
    done = False
    while not done:
        state, _, obs, done, info = env.step(act(env, obs))
    return state, info["success"]


# -- offline constraint audit ------------------------------------------------

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

    @property
    def clean(self) -> bool:
        hard = (self.md_exclusivity, self.power_budget, self.psd,
                self.tbp, self.min_distance)
        return all(v == 0 for v in hard)


def check_constraints(trace, scenario: Scenario,
                      connected: bool = True) -> ConstraintReport:
    """Audit an episode trace against the mission constraints.

    ``connected`` marks methods that solve the inter-UAV transmit design; for
    disconnected baselines the link SINR constraint is reported
    not-applicable (None).
    """
    cfg = scenario.config
    rep = ConstraintReport(inter_uav_sinr=0 if connected else None)
    collected = np.zeros(cfg.num_mds, dtype=bool)
    if trace:
        positions = np.stack([rec.positions for rec in trace])
        close = pairs_above(cfg.num_uavs) & (pair_distances(positions)
                                             < cfg.d_min - 1e-9)
        close &= ~station_exempt(positions, cfg)
        rep.min_distance = int(close.sum())
    for rec in trace:
        active = rec.served[rec.served >= 0]
        rep.md_exclusivity += len(active) - len(np.unique(active))
        for m, i in enumerate(rec.served):
            if i >= 0:
                collected[i] = True
                if rec.served_sinr[m] < cfg.gamma_th_md:
                    rep.uplink_gating += 1
        for design in rec.link_designs:
            report = verify_design(design, design.problem.h_eff,
                                   design.problem.noise_uav,
                                   design.problem.gamma_th,
                                   design.problem.tbp_threshold,
                                   design.problem.angles,
                                   design.problem.p_max)
            if report.power_residual < -1e-6:
                rep.power_budget += 1
            if report.psd_residual < -1e-8:
                rep.psd += 1
            if design.feasible:
                if report.tbp_residuals.min() < -1e-6:
                    rep.tbp += 1
                if connected and report.sinr_residual < -1e-6:
                    rep.inter_uav_sinr += 1
            elif connected:
                rep.inter_uav_sinr += 1
    rep.coverage_missing = int((~collected).sum())
    return rep


def write_trace_csv(trace, scenario: Scenario, path):
    """Per-slot episode trace: kinematics, scheduling, rewards, link margins."""
    m_count = scenario.config.num_uavs
    n_links = max(len(scenario.chain_edges), 0)
    cols = ["slot"]
    for m in range(m_count):
        cols += [f"x_{m}", f"y_{m}", f"heading_{m}", f"speed_{m}", f"served_md_{m}"]
    cols += ["r_collection", "r_qos", "r_energy", "r_distance", "r_bonus",
             "r_shaping", "r_total"]
    cols += [f"link_margin_{k}" for k in range(n_links)]
    lines = [",".join(cols)]
    for rec in trace:
        row = [str(rec.slot)]
        for m in range(m_count):
            row += [f"{rec.positions[m, 0]:.6f}", f"{rec.positions[m, 1]:.6f}",
                    f"{rec.headings[m]:.6f}", str(int(rec.speeds[m])),
                    str(int(rec.served[m]))]
        r = rec.reward
        row += [f"{r.collection:.6f}", f"{r.qos:.6f}", f"{r.energy:.6f}",
                f"{r.distance:.6f}", f"{r.bonus:.6f}", f"{r.shaping:.6f}",
                f"{r.total:.6f}"]
        margins = [d.margin for d in rec.link_designs]
        for k in range(n_links):
            val = margins[k] if k < len(margins) else np.nan
            row.append(f"{val:.9g}")
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
