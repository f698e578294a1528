"""Experiment runner: mission grids over methods, sweep axes and seeds.

Every cell (method, axis value, seed) yields one persisted MissionResult row;
aggregation only ever reads those rows back, so each emitted number traces to
per-seed provenance. Re-running an emit step on persisted results is
idempotent, and single-worker runs are byte-deterministic.

A grid task is one axis value of one TASK_GROUPS entry, every seed; run_cells
flies each of its trajectories once, so a row does not depend on the grouping.
"""

import csv
import json
import platform
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, planners
from .config import RunConfig, config_problems
from .drl_mappo import MappoConfig, MappoPolicy, act_in_env, train
from .mdp_env import CorridorEnv
from .planners import (SEARCHES, MissionResult, fly_env, fly_plans,
                       greedy_offline, mission_result, online_flight,
                       plan_searches)
from .scenario import (ScenarioConfig, build_scenario, db_to_linear,
                       scenario_fingerprint, validate_config)

SOURCE_ROOT = Path(__file__).resolve().parents[2]   # checkout root in a src layout
SEED_MEANING = ("a cell seed varies the env's channel draws and the PSO and GA "
                "search seeds, never the world: the MD layout comes from "
                "scenario.seed, and the MAPPO checkpoint is trained once per "
                "axis value with mappo.seed")
METHODS = ("drl_sdr", "greedy_online", "greedy_offline", "pso", "ga", "drl_sc")
DRL_METHODS = ("drl_sdr", "drl_sc")
# a grid task runs the cells of one group for one axis value, every seed
TASK_GROUPS = (DRL_METHODS, ("greedy_online",), ("greedy_offline", "pso", "ga"))
# how each method's chain links are scored after landing
LINK_MODES = {"drl_sdr": "isac", "greedy_online": "isac", "greedy_offline": "none",
              "pso": "none", "ga": "none", "drl_sc": "separated"}
AXES = ("uav_count", "md_count", "sinr_threshold")
# perfbench reads the split array's circuit draw under this module
CIRCUIT_POWER_W = planners.CIRCUIT_POWER_W

RESULT_FIELDS = [
    "method", "axis", "value", "seed", "energy_j", "time_s", "collected",
    "success", "v_md_exclusivity", "v_coverage_missing", "v_power", "v_psd",
    "v_tbp", "v_min_distance", "v_uplink_gating", "v_inter_uav",
]


@dataclass(frozen=True)
class ExperimentSpec:
    run_config: RunConfig
    methods: tuple
    axis: str = "uav_count"
    values: tuple = (1, 2, 3, 4, 5)
    seeds: tuple = (0, 1, 2, 3, 4)
    out_dir: str = "results"
    train_first: bool = False
    train_episodes: int | None = None
    workers: int = 1


def validate_spec(spec: ExperimentSpec) -> list:
    """The grid's problems, each once; if it has none, its config's and worlds'."""
    problems = []
    if not spec.methods:
        problems.append("method list must not be empty")
    for m in spec.methods:
        if m not in METHODS:
            problems.append(f"unknown method {m!r}")
    if spec.axis not in AXES:
        problems.append(f"unknown sweep axis {spec.axis!r}")
    if not spec.values:
        problems.append("sweep value list must not be empty")
    elif spec.axis in ("uav_count", "md_count"):
        bad = [v for v in spec.values if int(v) != v or v < 1]
        if bad:
            problems.append(f"{spec.axis} values must be positive integers, got {bad}")
    problems += (_repeated("methods", spec.methods)
                 + _repeated("values", spec.values) + seed_problems(spec.seeds))
    if not problems:
        problems = config_problems(spec.run_config)
        for value in spec.values:
            problems += validate_config(
                scenario_config_for(spec.run_config, spec.axis, value))
    return list(dict.fromkeys(problems))


def _repeated(label, items) -> list:
    twice = sorted({x for k, x in enumerate(items) if x in items[:k]})
    return [f"repeated {label}: {twice}"] if twice else []


def seed_problems(seeds) -> list:
    """Empty or repeated seeds: a seed run twice would count (or write) twice."""
    return _repeated("seeds", seeds) if seeds else ["seed list must not be empty"]


def scenario_config_for(run_config: RunConfig, axis: str, value) -> ScenarioConfig:
    """Axis value applied to the base scenario; sinr_threshold is given in dB."""
    cfg = run_config.scenario
    if axis == "uav_count":
        return replace(cfg, num_uavs=int(value))
    if axis == "md_count":
        return replace(cfg, num_mds=int(value))
    if axis == "sinr_threshold":
        return replace(cfg, gamma_th_uav=db_to_linear(float(value)))
    raise ValueError(f"unknown axis {axis!r}")


def checkpoint_path(out_dir, axis, value) -> Path:
    return Path(out_dir) / "checkpoints" / f"mappo_{axis}_{value}.npz"


def training_config(spec: ExperimentSpec) -> MappoConfig:
    """The MAPPO config a checkpoint of ``spec`` trains with: the run
    config's, with ``train_episodes`` (when set) as its episode count."""
    mappo = spec.run_config.mappo
    if spec.train_episodes is not None:
        mappo = replace(mappo, max_episodes=spec.train_episodes)
    return mappo


def train_checkpoint(spec: ExperimentSpec, value, progress=None) -> Path:
    """Train the shared MAPPO policy for one axis value and persist it;
    ``progress`` is train's optional callback(episode, curve)."""
    rc = spec.run_config
    scenario = build_scenario(scenario_config_for(rc, spec.axis, value))
    policy, curve = train(scenario, training_config(spec), rc.reward,
                          progress, rc.propulsion)
    path = checkpoint_path(spec.out_dir, spec.axis, value)
    path.parent.mkdir(parents=True, exist_ok=True)
    policy.save(path)
    curve.write_csv(path.with_suffix(".curve.csv"))
    return path


def _require_fit(path, spec: ExperimentSpec, value):
    """ValueError unless the checkpoint at ``path`` fits the axis value's world."""
    env = CorridorEnv(build_scenario(
        scenario_config_for(spec.run_config, spec.axis, value)))
    meta = MappoPolicy.read_meta(path)
    have = (meta["obs_dim"], meta["n_actions"], meta["state_dim"])
    need = (env.obs_dim, env.n_actions, env.state_dim)
    if have != need:
        raise ValueError(
            f"checkpoint {path} has (obs_dim, n_actions, state_dim) = "
            f"{have}, but the {spec.axis} = {value} world needs {need}")


def run_cell(method: str, spec: ExperimentSpec, value, seed) -> MissionResult:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    return run_cells((method,), spec, value, (seed,))[0]


def run_cells(methods, spec: ExperimentSpec, value, seeds) -> list:
    """MissionResults of the cells (method, seed) of one axis value, in that
    order, each equal to its run_cell.

    A cell seed picks only the link draws that score a flight and a search's
    rng, so each trajectory is flown once and scored for every cell that
    shares it: a DRL episode per checkpoint, greedy_online's pursuit, and
    every offline plan (greedy_offline's and each PSO/GA winner, searched
    jointly by plan_searches) in one recorded fly_plans."""
    rc = spec.run_config
    scenario = build_scenario(scenario_config_for(rc, spec.axis, value))
    cells = [(m, s) for m in methods for s in seeds]

    def key(method, seed):      # what decides the method's trajectory
        if method in DRL_METHODS:
            return checkpoint_path(spec.out_dir, spec.axis, value)
        return (method, seed) if method in SEARCHES else method

    flights = {}
    for method in methods:
        path = key(method, None)
        if method in DRL_METHODS and path not in flights:
            if not path.exists():
                raise FileNotFoundError(
                    f"method {method!r} needs a trained checkpoint at {path}; "
                    "run with train_first or train explicitly")
            policy = MappoPolicy.load(path)
            flights[path] = fly_env(
                scenario, lambda env: act_in_env(policy, env, None)[0],
                rc.propulsion)
    if "greedy_online" in methods:
        flights["greedy_online"] = online_flight(scenario, rc.propulsion)
    searched = [(m, s) for m, s in cells if m in SEARCHES]
    plans = dict(zip(searched, plan_searches(
        [SEARCHES[m](scenario, replace(getattr(rc, m), seed=s))   # rc.pso, rc.ga
         for m, s in searched], scenario, rc.propulsion)))
    if "greedy_offline" in methods:
        plans["greedy_offline"] = greedy_offline(scenario)
    if plans:
        flights.update(zip(plans, fly_plans(list(plans.values()), scenario,
                                            rc.propulsion, record=True)[3]))
    return [mission_result(flights[key(m, s)], scenario, s, m, LINK_MODES[m])
            for m, s in cells]


def _result_row(res: MissionResult, axis, value) -> dict:
    v = res.violations
    return {
        "method": res.method, "axis": axis, "value": value, "seed": res.seed,
        "energy_j": f"{res.energy_j:.6f}", "time_s": f"{res.time_s:.3f}",
        "collected": res.collected, "success": int(res.success),
        "v_md_exclusivity": v.md_exclusivity,
        "v_coverage_missing": v.coverage_missing,
        "v_power": v.power_budget, "v_psd": v.psd, "v_tbp": v.tbp,
        "v_min_distance": v.min_distance, "v_uplink_gating": v.uplink_gating,
        "v_inter_uav": "na" if v.inter_uav_sinr is None else v.inter_uav_sinr,
    }


def _grid_task(args) -> list:
    """Rows of one grid task: the cells of one task group and axis value."""
    methods, spec, value, seeds = args
    return [_result_row(res, spec.axis, value)
            for res in run_cells(methods, spec, value, seeds)]


def run_experiment(spec: ExperimentSpec, progress=None) -> list:
    """Run the grid, persist results.csv/aggregates.csv/manifest.json.
    ``progress(value)``, when given, makes the train progress callback of a
    missing checkpoint that ``spec.train_first`` trains."""
    problems = validate_spec(spec)
    if problems:
        raise ValueError("invalid experiment spec: " + "; ".join(problems))
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    needs_policy = [m for m in spec.methods if m in DRL_METHODS]
    if needs_policy:
        for value in spec.values:
            path = checkpoint_path(spec.out_dir, spec.axis, value)
            if not path.exists():
                if not spec.train_first:
                    raise FileNotFoundError(
                        f"missing checkpoint for {needs_policy[0]!r} at {path}")
                train_checkpoint(spec, value,
                                 None if progress is None else progress(value))
            _require_fit(path, spec, value)

    groups = [tuple(m for m in spec.methods if m in group)
              for group in TASK_GROUPS]
    tasks = [(methods, spec, v, spec.seeds) for v in spec.values
             for methods in groups if methods]
    if spec.workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            parts = list(pool.map(_grid_task, tasks))
    else:
        parts = [_grid_task(t) for t in tasks]
    rows = [row for part in parts for row in part]
    rows.sort(key=lambda r: (r["method"], spec.values.index(r["value"]),
                             r["seed"]))

    with open(out / "results.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    _write_aggregates(rows, out / "aggregates.csv")
    _write_manifest(spec, out / "manifest.json")
    return rows


def _cell_means(rows) -> dict:
    """Per (method, value) cell of result rows: its row count ``n``, its axis
    and the mean of each averaged field, over the rows in their given order."""
    cells: dict = {}
    for r in rows:
        cells.setdefault((r["method"], r["value"]), []).append(r)
    return {key: {"n": len(group), "axis": group[0]["axis"],
                  **{field: np.mean([float(g[field]) for g in group])
                     for field in ("energy_j", "time_s", "success", "collected")}}
            for key, group in cells.items()}


def _write_aggregates(rows, path):
    lines = ["method,axis,value,n_seeds,mean_energy_j,mean_time_s,"
             "success_rate,mean_collected"]
    for (method, value), c in _cell_means(rows).items():   # in the rows' order
        lines.append(f"{method},{c['axis']},{value},{c['n']},"
                     f"{c['energy_j']:.6f},{c['time_s']:.3f},{c['success']:.3f},"
                     f"{c['collected']:.3f}")
    Path(path).write_text("\n".join(lines) + "\n")


def git_revision(root: Path) -> str | None:
    """HEAD commit of the checkout at ``root``, read from .git without running
    git; None when there is no readable repository."""
    git = Path(root) / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except (OSError, ValueError):
        pass
    return None


def _write_manifest(spec: ExperimentSpec, path):
    base = build_scenario(spec.run_config.scenario)
    manifest = {
        "package_version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "git_revision": git_revision(SOURCE_ROOT),
        "methods": list(spec.methods),
        "axis": spec.axis,
        "values": list(spec.values),
        "seeds": list(spec.seeds),
        "seed_meaning": SEED_MEANING,
        "train_episodes": spec.train_episodes,
        "scenario_fingerprint": scenario_fingerprint(base),
        "config": asdict(spec.run_config),
    }
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def read_results(out_dir) -> list:
    with open(Path(out_dir) / "results.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _axis_means(out_dir, axis):
    """The per-cell means of the persisted rows of one sweep axis, with the
    axis values in numeric order and the methods sorted."""
    rows = [r for r in read_results(out_dir) if r["axis"] == axis]
    if not rows:
        raise ValueError(f"no {axis} results found")
    cells = _cell_means(rows)
    return (cells, sorted({v for _, v in cells}, key=float),
            sorted({m for m, _ in cells}))


def emit_comparison_table(out_dir) -> Path:
    """Methods x {energy, time} against UAV counts, plus a minima sidecar."""
    cells, values, methods = _axis_means(out_dir, "uav_count")
    lines = ["method,metric," + ",".join(f"uav_{v}" for v in values)]
    marks = ["metric,uav_count,best_method"]
    for metric, field, scale in (("energy_1e5_j", "energy_j", 1e-5),
                                 ("total_time_s", "time_s", 1.0)):
        for method in methods:
            lines.append(f"{method},{metric}," + ",".join(
                f"{cells[method, v][field] * scale:.4f}" if (method, v) in cells
                else "" for v in values))
        for v in values:
            best = min((cells[m, v][field], m) for m in methods if (m, v) in cells)
            marks.append(f"{metric},{v},{best[1]}")
    table_path = Path(out_dir) / "comparison_table.csv"
    table_path.write_text("\n".join(lines) + "\n")
    (Path(out_dir) / "comparison_table_minima.csv").write_text(
        "\n".join(marks) + "\n")
    return table_path


def emit_sweep_data(out_dir, axis) -> Path:
    """Long-format mean energy per (value, method) plus percentage reductions
    of the proposed method against every baseline."""
    cells, values, methods = _axis_means(out_dir, axis)
    lines = ["value,method,mean_energy_j"] + [
        f"{v},{m},{cells[m, v]['energy_j']:.6f}"
        for v in values for m in methods if (m, v) in cells]
    sweep_path = Path(out_dir) / f"sweep_{axis}.csv"
    sweep_path.write_text("\n".join(lines) + "\n")

    red = ["value,baseline,reduction_pct"]
    for v in values:
        if ("drl_sdr", v) not in cells:
            continue
        ours = cells["drl_sdr", v]["energy_j"]
        for m in methods:
            if m == "drl_sdr" or (m, v) not in cells:
                continue
            base = cells[m, v]["energy_j"]
            pct = 100.0 * (base - ours) / base if base > 0 else 0.0
            red.append(f"{v},{m},{pct:.4f}")
    (Path(out_dir) / f"sweep_{axis}_reductions.csv").write_text(
        "\n".join(red) + "\n")
    return sweep_path
