"""The three workloads: inputs from the seed, one timed round, its checks.

Each workload has ``build`` (set-up after the imports), ``prepare`` (the
round's inputs, untimed), ``run`` (the timed calls into the program) and
``check`` (untimed checks of the outputs, made by ``oracles``). A round is
the same operations every time, so the share of failed operations does not
depend on the seed or on how many rounds fit in a run.
"""

import csv
import hashlib
import inspect
import io
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import oracles

# mission_grid: a reduced world so one grid takes a few seconds; the PSO/GA
# budgets are cut through the RunConfig, DRL checkpoints are one training
# episode long (the cells then measure the policy/env replay path).
GRID_WORLD = dict(area_width=1000.0, area_height=1000.0, start=(0.0, 1000.0),
                  end=(1000.0, 0.0), num_mds=10, horizon_slots=200)
GRID_UAVS = (2, 3)
GRID_PSO = dict(swarm=6, iterations=4)
GRID_GA = dict(population=6, generations=4)
GRID_TRAIN_EPISODES = 1
# Named fault probes: greedy_offline plans on fixed worlds (not the run's
# seed), fitness kernel against env replay. Scenario seed, UAV count.
PROBES = ((0, 1), (1, 2), (0, 3), (2, 3), (2, 5))

# mappo_train: default scenario, one PPO update per episode (a 500-slot
# episode of 3 UAVs stores 1500 agent transitions), two episodes.
TRAIN_ROLLOUT = 1500
TRAIN_EPISODES = 2

# transmit_design: one Rician draw per ladder, moved along the distance
# ladder so only the path gain changes. Short links are beampattern-bound,
# the 1.35-2.25 km band runs PDHG, long links are deep SINR deficits.
LADDER_SHORT_M = (200.0, 600.0, 1000.0)
LADDER_BAND_M = tuple(1350.0 + 100.0 * k for k in range(10))
LADDER_DEEP_M = (3200.0, 4000.0, 5000.0)
LADDER_M = LADDER_SHORT_M + LADDER_BAND_M + LADDER_DEEP_M


@dataclass
class RoundResult:
    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)    # unexpected failures
    known: list = field(default_factory=list)       # the named fault
    rates: dict = field(default_factory=dict)       # what summarize() reads


def median_rates(results) -> dict:
    """Rounds that repeat the same inputs: the median damps timing noise."""
    return {k: statistics.median(res.rates[k] for res in results)
            for k in results[0].rates}


class Lib:
    """The program's modules, imported inside the timed set-up."""

    def __init__(self):
        from uavisac import (accel, channel, config, drl_mappo, energy,
                             harness, isac_sdr, mdp_env, planners, scenario)
        self.accel, self.channel, self.config = accel, channel, config
        self.drl_mappo, self.energy, self.harness = drl_mappo, energy, harness
        self.isac_sdr, self.mdp_env, self.planners = isac_sdr, mdp_env, planners
        self.scenario = scenario


def first_beampattern_solve(lib, cfg, scenario):
    """Any solve with p_max > 0 starts with the link-independent beampattern
    design; a short link stops right after it."""
    ch = lib.channel
    h = ch.sample_rician_channel((0.0, 0.0, cfg.altitude), (100.0, 0.0, cfg.altitude),
                                 cfg.rician_k, cfg.beta_ref, cfg.n_antennas,
                                 lib.scenario.rng_stream(0, "perfbench-setup"))
    h_eff = ch.effective_channel(h, scenario.rx_combiner)
    lib.isac_sdr.solve_feasibility(h_eff, cfg.noise_uav, cfg.gamma_th_uav,
                                   cfg.tbp_threshold, cfg.sensing_angles, cfg.p_max)


def propulsion_constants(rc) -> dict:
    return {k: float(v) for k, v in vars(rc.propulsion).items()}


# -- mission_grid ---------------------------------------------------------------

class MissionGrid:
    name = "mission_grid"
    primary = "grid_cells_per_s"
    min_rounds = 2      # results.csv must repeat byte for byte

    def __init__(self, lib, seed, workdir):
        self.lib, self.seed, self.workdir = lib, seed, Path(workdir)

    def build(self):
        lib, seed = self.lib, self.seed
        rc = lib.config.load_config()
        world = replace(rc.scenario, seed=seed, **GRID_WORLD)
        self.rc = replace(rc, scenario=world,
                          pso=replace(rc.pso, seed=seed, **GRID_PSO),
                          ga=replace(rc.ga, seed=seed, **GRID_GA),
                          mappo=replace(rc.mappo, seed=seed))
        self.spec = lib.harness.ExperimentSpec(
            run_config=self.rc, methods=lib.harness.METHODS, axis="uav_count",
            values=GRID_UAVS, seeds=(seed,), out_dir=str(self.workdir / "grid"),
            train_first=False, train_episodes=GRID_TRAIN_EPISODES, workers=1)
        base = lib.scenario.build_scenario(world)
        first_beampattern_solve(lib, world, base)
        for value in GRID_UAVS:
            lib.harness.train_checkpoint(self.spec, value)
        self.reference_csv = None

    def prepare(self, r):
        return None

    def run(self, _inputs):
        t0 = time.perf_counter()
        self.lib.harness.run_experiment(self.spec)
        return time.perf_counter() - t0

    def check(self, r, grid_s):
        lib, cfg = self.lib, self.rc.scenario
        blob = (Path(self.spec.out_dir) / "results.csv").read_bytes()
        rows = list(csv.DictReader(io.StringIO(blob.decode())))
        res = RoundResult(attempted=len(rows) + len(PROBES),
                          rates={"grid_cells_per_s": len(rows) / grid_s,
                                 "grid_s": grid_s})
        circuit = lib.harness.CIRCUIT_POWER_W
        consts = propulsion_constants(self.rc)
        bad_cells = set()
        for row in rows:
            probs = oracles.row_problems(row, cfg.num_mds, cfg.v_fixed, consts, circuit)
            if probs:
                bad_cells.add((row["method"], row["value"]))
            res.problems += probs
        for value, probs in oracles.split_array_problems(rows, circuit).items():
            bad_cells.add(("drl_sc", value))
            res.problems += probs
        if len(rows) != len(GRID_UAVS) * len(lib.harness.METHODS):
            res.problems.append(f"grid wrote {len(rows)} rows")
        if self.reference_csv is None:
            self.reference_csv = blob
        elif blob != self.reference_csv:
            res.problems.append(f"round {r}: results.csv differs from round 0")
        res.failed = len(bad_cells)
        for world_seed, m in PROBES:
            if not self._probe_agrees(world_seed, m, res):
                res.failed += 1
        return res

    def _probe_agrees(self, world_seed, m, res) -> bool:
        """Planner fitness kernel and env replay must agree on one plan."""
        lib, rc = self.lib, self.rc
        cfg = replace(rc.scenario, seed=world_seed, num_uavs=m)
        scen = lib.scenario.build_scenario(cfg)
        plan = lib.planners.greedy_offline(scen)
        _, _, slots, collected = lib.planners.plan_fitness(plan, scen, rc.propulsion)
        replay = lib.planners.evaluate_plan(plan, scen, seed=0, method="greedy_offline",
                                            connected=False, propulsion=rc.propulsion,
                                            reward=rc.reward)
        replay_slots = int(round(replay.time_s / cfg.slot_seconds))
        if (collected, slots) == (replay.collected, replay_slots):
            return True
        res.known.append(
            f"fitness/replay disagree (world seed {world_seed}, M={m}): kernel "
            f"{collected}/{cfg.num_mds} in {slots} slots, replay "
            f"{replay.collected}/{cfg.num_mds} in {replay_slots} slots")
        return False

    summarize = staticmethod(median_rates)

    def finish(self):
        return []


# -- mappo_train ----------------------------------------------------------------

class MappoTrain:
    name = "mappo_train"
    primary = "train_slots_per_s"
    min_rounds = 2      # the learning curve must repeat bit for bit

    def __init__(self, lib, seed, workdir):
        self.lib, self.seed, self.workdir = lib, seed, Path(workdir)
        self.counts = {"steps": 0, "updates": 0}
        self._count_calls()

    def _count_calls(self):
        """Env slots and PPO updates, counted at the layer boundary. Installed
        before any tracer so that removing the tracer keeps them."""
        counts, env_cls, mappo = self.counts, self.lib.mdp_env.CorridorEnv, self.lib.drl_mappo
        step, update = env_cls.step, mappo._update

        def counted_step(env, action):
            counts["steps"] += 1
            return step(env, action)

        def counted_update(*args, **kwargs):
            counts["updates"] += 1
            return update(*args, **kwargs)

        env_cls.step = counted_step
        mappo._update = counted_update

    def build(self):
        lib = self.lib
        rc = lib.config.load_config()
        self.rc = replace(rc, scenario=replace(rc.scenario, seed=self.seed))
        self.mappo = replace(rc.mappo, seed=self.seed, rollout=TRAIN_ROLLOUT,
                             max_episodes=TRAIN_EPISODES)
        self.world = lib.scenario.build_scenario(self.rc.scenario)
        first_beampattern_solve(lib, self.rc.scenario, self.world)
        self.reference = None

    def prepare(self, r):
        return None

    def run(self, _inputs):
        self.counts.update(steps=0, updates=0)
        t0 = time.perf_counter()
        policy, curve = self.lib.drl_mappo.train(self.world, self.mappo, self.rc.reward)
        return policy, curve, time.perf_counter() - t0, dict(self.counts)

    def check(self, r, out):
        policy, curve, train_s, counts = out
        rows = list(zip(curve.reward, curve.smoothed, curve.value_loss))
        res = RoundResult(attempted=TRAIN_EPISODES,
                          rates={"train_slots_per_s": counts["steps"] / train_s,
                                 "train_s": train_s})
        res.problems += oracles.curve_problems(rows, counts["updates"])
        digest = hashlib.sha256()
        for p in policy.actor.params + policy.critic.params:
            digest.update(np.ascontiguousarray(p).tobytes())
        fingerprint = (rows, curve.success, counts, digest.hexdigest())
        if self.reference is None:
            self.reference = fingerprint
            self.policy = policy
        elif fingerprint != self.reference:
            res.problems.append(f"round {r}: curve or weights differ from round 0")
        if len(curve.episode) != TRAIN_EPISODES:
            res.problems.append(f"trained {len(curve.episode)} episodes")
        res.failed = TRAIN_EPISODES if res.problems else 0
        return res

    summarize = staticmethod(median_rates)

    def finish(self):
        """The trained policy must fly one evaluation episode under its masks."""
        lib = self.lib
        env = lib.mdp_env.CorridorEnv(self.world, reward=self.rc.reward,
                                      propulsion=self.rc.propulsion, record=True)
        try:
            _, slots, _, _ = lib.drl_mappo.run_policy_episode(self.policy, env, self.seed)
        except ValueError as exc:
            return [f"evaluation episode failed: {exc}"]
        return [] if slots >= 1 else ["evaluation episode ran no slot"]


# -- transmit_design ------------------------------------------------------------

class TransmitDesign:
    name = "transmit_design"
    primary = "design_band_median_solves_per_s"
    min_rounds = 2

    def __init__(self, lib, seed, workdir):
        self.lib, self.seed, self.workdir = lib, seed, Path(workdir)

    def build(self):
        lib = self.lib
        rc = lib.config.load_config()
        self.cfg = replace(rc.scenario, seed=self.seed)
        self.world = lib.scenario.build_scenario(self.cfg)
        first_beampattern_solve(lib, self.cfg, self.world)
        self.full_opts = lib.isac_sdr.SdrOptions()
        # the per-slot options the env passes to the link sweep
        self.certify_opts = inspect.signature(
            lib.mdp_env.CorridorEnv).parameters["sdr_opts"].default

    def prepare(self, r):
        """One ladder per round: the same fading draw at every rung."""
        lib, cfg = self.lib, self.cfg
        label = f"perfbench-ladder-{r}"
        h_effs = []
        for d in LADDER_M:
            h = lib.channel.sample_rician_channel(
                (0.0, 0.0, cfg.altitude), (d, 0.0, cfg.altitude), cfg.rician_k,
                cfg.beta_ref, cfg.n_antennas, lib.scenario.rng_stream(self.seed, label))
            h_effs.append(lib.channel.effective_channel(h, self.world.rx_combiner))
        return h_effs

    def run(self, h_effs):
        cfg, solve = self.cfg, self.lib.isac_sdr.solve_feasibility
        clock = time.perf_counter
        full, certify, full_s, certify_s = [], [], [], []
        for h_eff in h_effs:
            t0 = clock()
            full.append(solve(h_eff, cfg.noise_uav, cfg.gamma_th_uav, cfg.tbp_threshold,
                              cfg.sensing_angles, cfg.p_max, self.full_opts))
            t1 = clock()
            certify.append(solve(h_eff, cfg.noise_uav, cfg.gamma_th_uav,
                                 cfg.tbp_threshold, cfg.sensing_angles, cfg.p_max,
                                 self.certify_opts))
            full_s.append(t1 - t0)
            certify_s.append(clock() - t1)
        return h_effs, full, certify, full_s, certify_s

    def check(self, r, out):
        h_effs, full, certify, full_s, certify_s = out
        cfg = self.cfg
        n = len(h_effs)
        res = RoundResult(attempted=2 * n, rates={"full_s": full_s, "certify_s": certify_s})
        failed = set()
        for k, h_eff in enumerate(h_effs):
            hopeless = oracles.sinr_cap_infeasible(h_eff, cfg.noise_uav,
                                                   cfg.gamma_th_uav, cfg.p_max)
            for mode, design in (("full", full[k]), ("certify", certify[k])):
                probs = []
                if design.solver_status == "numerical_failure":
                    probs.append("numerical_failure")
                if design.feasible:
                    probs += oracles.design_problems(
                        design.r_comm, design.r_sens, design.w_c, h_eff,
                        cfg.noise_uav, cfg.gamma_th_uav, cfg.tbp_threshold,
                        cfg.sensing_angles, cfg.p_max)
                    if hopeless:
                        probs.append("feasible although p_max*lambda_max < gamma*sigma^2")
                if probs:
                    failed.add((k, mode))
                    res.problems += [f"ladder {r} rung {LADDER_M[k]:.0f} m {mode}: {p}"
                                     for p in probs]
            if full[k].feasible != certify[k].feasible:
                failed.add((k, "certify"))
                res.problems.append(f"ladder {r} rung {LADDER_M[k]:.0f} m: full says "
                                    f"{full[k].solver_status}, certify-only says "
                                    f"{certify[k].solver_status}")
        gains = [1.0 / d ** 2 for d in LADDER_M]
        for mode, designs in (("full", full), ("certify", certify)):
            probs = oracles.ladder_problems(gains, [d.feasible for d in designs])
            if probs:
                failed.add((-1, mode))
                res.problems += [f"ladder {r} {mode}: {p}" for p in probs]
        res.failed = len(failed)
        return res

    @staticmethod
    def summarize(results):
        """Solve rates pooled over the run's ladders, and at the median solve
        of the PDHG band. Near its feasibility boundary a ladder has one or
        two instances that take 3-4 times the usual PDHG iterations (some hit
        the 20 000 cap), and where that boundary falls depends on the draw,
        so the pooled rate moves with the seed; the band median does not."""
        band = [k for k, d in enumerate(LADDER_M) if d in LADDER_BAND_M]
        out = {}
        for mode in ("full", "certify"):
            times = [t for res in results for t in res.rates[mode + "_s"]]
            band_times = [res.rates[mode + "_s"][k] for res in results for k in band]
            name = "design" if mode == "full" else "certify"
            out[f"{name}_solves_per_s"] = len(times) / sum(times)
            out[f"{name}_band_median_solves_per_s"] = 1.0 / statistics.median(band_times)
        return out

    def finish(self):
        return []


WORKLOADS = {cls.name: cls for cls in (MissionGrid, MappoTrain, TransmitDesign)}
