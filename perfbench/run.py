#!/usr/bin/env python3
"""Layered benchmark for uavisac: mission grid, MAPPO training, transmit design.

    python3 perfbench/run.py --workload mission_grid --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root; the package is imported from ``src/``. Each run
sets up once in this process and twice more in fresh child processes
(``setup_s`` is their median), then repeats whole rounds of the workload
until ``--seconds`` have passed and reports medians. ``--trace 1``
alternates untraced and traced copies of each round and reports per-layer
figures from the traced ones, the tracing overhead and a span file under
``.bench_out/``. The last line of standard output is the JSON result.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("mission_grid", "mappo_train", "transmit_design")
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 170
# fixed here like every per-layer metric name listed in BENCHMARK.json
METHODS = ("drl_sdr", "greedy_online", "greedy_offline", "pso", "ga", "drl_sc")
NAMED_UNITS = {"grid_cells_per_s": "1/s", "grid_s": "s",
               "train_slots_per_s": "1/s", "train_s": "s",
               "design_solves_per_s": "1/s", "certify_solves_per_s": "1/s",
               "design_band_median_solves_per_s": "1/s",
               "certify_band_median_solves_per_s": "1/s"}


def git_revision(root: Path) -> str:
    """HEAD commit read from .git without running git; 'unavailable' otherwise."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def provenance(lib) -> dict:
    import numpy as np
    return {"lane": "numpy" if lib.accel.NUMBA_DISABLED else "numba",
            "numba_disabled": bool(lib.accel.NUMBA_DISABLED),
            "numpy": np.__version__, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_revision": git_revision(ROOT)}


def setup(workload, seed, workdir, trace):
    """Imports, scenario build, first beampattern solve (and, for the grid,
    checkpoint training). Returns (workload, tracer, counters, seconds)."""
    t0 = time.perf_counter()
    import workloads
    lib = workloads.Lib()
    wl = workloads.WORKLOADS[workload](lib, seed, workdir)
    tracer, counters = None, None
    if trace:
        tracer = tracing.Tracer()
        counters = defaultdict(float)
        tracer.hooks.update(counter_hooks(counters))
        tracer.install()
    wl.build()
    return wl, tracer, counters, time.perf_counter() - t0


def counter_hooks(c):
    def pdhg(args, kwargs, result, seconds):
        c["pdhg_solves"] += 1
        c["pdhg_iterations"] += result[3]
        c["pdhg_iterations_max"] = max(c["pdhg_iterations_max"], result[3])

    def solve(args, kwargs, result, seconds):
        c["status." + result.solver_status] += 1

    def sweep(args, kwargs, result, seconds):
        if kwargs.get("cache") is not None:
            c["cache_lookups"] += len(args[1])
            c["cache_hits"] += sum(d is None for d in result[0])

    def replay(args, kwargs, result, seconds):
        c["replay_slots"] += result.time_s / args[1].config.slot_seconds

    def cell(args, kwargs, result, seconds):
        c["cell_s." + args[0]] += seconds

    return {"isac_sdr._pdhg_margin": pdhg, "isac_sdr.solve_feasibility": solve,
            "isac_sdr.link_feasibility_sweep": sweep,
            "planners.evaluate_plan": replay, "harness.run_cell": cell}


def setup_probe(workload, seed):
    """Child-process entry: one set-up, timed, printed as JSON."""
    workdir = Path.cwd() / ".bench_out" / f"setup-{workload}-{seed}-{os.getpid()}"
    try:
        _, _, _, seconds = setup(workload, seed, workdir, trace=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": seconds}))


def child_setups(workload, seed, n):
    samples = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_round(wl, r, tracer=None):
    """Prepare, run (traced when a tracer is given) and check round r.
    Returns (check result, wall seconds of the run step)."""
    inputs = wl.prepare(r)
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        out = wl.run(inputs)
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    return wl.check(r, out), elapsed


def measure(workload, seed, seconds, trace):
    workdir = Path.cwd() / ".bench_out" / f"{workload}-{seed}-{os.getpid()}"
    try:
        wl, tracer, counters, setup_s = setup(workload, seed, workdir, trace)
        if tracer is not None:
            tracer.uninstall()
            setup_mark = tracer.mark()
            setup_summary = tracer.summarize(0, setup_mark)
            setup_counters = dict(counters)
            counters.clear()
        results, untraced_s, traced_s = [], [], []
        start = time.perf_counter()
        r = 0
        # a traced run repeats every round, so half as many reach the minimum
        min_rounds = -(-wl.min_rounds // 2) if tracer is not None else wl.min_rounds
        while r < min_rounds or time.perf_counter() - start < seconds:
            res, elapsed = run_round(wl, r)
            results.append(res)
            untraced_s.append(elapsed)
            if tracer is not None:
                res, elapsed = run_round(wl, r, tracer)
                results.append(res)
                traced_s.append(elapsed)
            r += 1
        problems = [p for res in results for p in res.problems] + wl.finish()
        known = sorted({p for res in results for p in res.known})
        detail = {"workload": workload, "seed": seed, "rounds": len(results),
                  "provenance": provenance(wl.lib), "known_failures": known,
                  "problems": problems[:20]}
        if tracer is None:
            setups = [setup_s] + child_setups(workload, seed, SETUP_CHILDREN)
            named = {k: {"value": v, "unit": NAMED_UNITS[k]}
                     for k, v in wl.summarize(results).items()}
            detail.update(named_metrics=named, setup_samples_s=setups,
                          round_seconds=untraced_s)
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
                "ops_per_s": {"value": named[wl.primary]["value"], "unit": "1/s"},
            }
        else:
            n_traced = len(traced_s)
            summary = tracer.summarize(setup_mark)
            metrics = layer_metrics(summary, counters, n_traced)
            metrics.update(setup_metrics(setup_summary, setup_counters))
            metrics["trace.overhead_pct"] = {
                "value": 100.0 * (sum(traced_s) / sum(untraced_s) - 1.0),
                "unit": "%"}
            metrics["trace.spans"] = {
                "value": (len(tracer.start) - setup_mark) / n_traced, "unit": "count/round"}
            span_file = tracer.write(Path.cwd() / ".bench_out" / "spans"
                                     / f"{workload}-seed{seed}.npz")
            detail["span_file"] = str(span_file.relative_to(Path.cwd()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(detail, sort_keys=True))
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return {"correct": not problems,
            "attempted": sum(res.attempted for res in results),
            "failed": sum(res.failed for res in results),
            "metrics": metrics}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(s, c, n):
    """Per-layer figures from the traced rounds, each per round."""
    calls, total, own = s["calls"], s["total"], s["self"]
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value / n if "/round" in unit else value, "unit": unit}

    def t(*names):
        return sum(total.get(x, 0.0) for x in names)

    def k(name):
        return float(calls.get(name, 0))

    search = t("planners.pso_plan", "planners.ga_plan")
    put("planners.fitness_calls", k("planners.plan_fitness"), "count/round")
    put("planners.fitness_s", t("planners.plan_fitness"), "s/round")
    put("planners.search_s", search - t("planners.plan_fitness"), "s/round")
    put("planners.greedy_plan_s", t("planners.greedy_offline"), "s/round")
    put("planners.replay_s", t("planners.evaluate_plan"), "s/round")
    put("planners.replay_slots", c.get("replay_slots", 0.0), "count/round")
    put("mdp_env.step_calls", k("mdp_env.CorridorEnv.step"), "count/round")
    put("mdp_env.step_s", t("mdp_env.CorridorEnv.step"), "s/round")
    put("mdp_env.step_self_s", own.get("mdp_env.CorridorEnv.step", 0.0), "s/round")
    put("mdp_env.observations_calls", k("mdp_env.CorridorEnv.observations"), "count/round")
    put("mdp_env.observations_s", t("mdp_env.CorridorEnv.observations"), "s/round")
    put("mdp_env.action_mask_calls", k("mdp_env.CorridorEnv.action_mask"), "count/round")
    put("mdp_env.action_mask_s", t("mdp_env.CorridorEnv.action_mask"), "s/round")
    put("mdp_env.audit_s", t("mdp_env.check_constraints"), "s/round")
    put("channel.md_gain_matrix_calls", k("channel.md_gain_matrix"), "count/round")
    put("channel.md_gain_matrix_s", t("channel.md_gain_matrix"), "s/round")
    put("channel.rician_draws", k("channel.sample_rician_channel"), "count/round")
    put("isac_sdr.pdhg_solves", c.get("pdhg_solves", 0.0), "count/round")
    put("isac_sdr.pdhg_iterations", c.get("pdhg_iterations", 0.0), "count/round")
    put("isac_sdr.pdhg_iterations_max", c.get("pdhg_iterations_max", 0.0), "count")
    put("isac_sdr.solve_calls", k("isac_sdr.solve_feasibility"), "count/round")
    put("isac_sdr.solve_s", t("isac_sdr.solve_feasibility"), "s/round")
    put("isac_sdr.verify_calls", k("isac_sdr.verify_design"), "count/round")
    put("isac_sdr.verify_s", t("isac_sdr.verify_design"), "s/round")
    put("isac_sdr.sweep_s", t("isac_sdr.link_feasibility_sweep",
                              "isac_sdr.separated_link_sweep"), "s/round")
    lookups = c.get("cache_lookups", 0.0)
    put("isac_sdr.cache_lookups", lookups, "count/round")
    put("isac_sdr.cache_hit_ratio", c.get("cache_hits", 0.0) / lookups if lookups else 0.0,
        "ratio")
    for status in ("feasible", "infeasible", "numerical_failure"):
        put(f"isac_sdr.status.{status}", c.get("status." + status, 0.0), "count/round")
    put("drl_mappo.act_calls", k("drl_mappo.act_in_env"), "count/round")
    put("drl_mappo.act_s", t("drl_mappo.act_in_env"), "s/round")
    put("drl_mappo.critic_forward_s", t("drl_mappo.critic_forward"), "s/round")
    put("drl_mappo.actor_update_calls", k("drl_mappo.ppo_actor_update"), "count/round")
    put("drl_mappo.actor_update_s", t("drl_mappo.ppo_actor_update"), "s/round")
    put("drl_mappo.critic_update_s", t("drl_mappo.critic_update"), "s/round")
    for method in METHODS:
        put(f"harness.cell_s.{method}", c.get("cell_s." + method, 0.0), "s/round")
    put("harness.persist_s", own.get("harness.run_experiment", 0.0)
        + t("harness._write_aggregates", "harness._write_manifest"), "s/round")
    for layer in tracing.LAYERS:
        put(f"layer.{layer}.busy_s", s["busy"].get(layer, 0.0), "s/round")
        put(f"layer.{layer}.self_s", s["layer_self"].get(layer, 0.0), "s/round")
    return out


def setup_metrics(s, c):
    return {
        "scenario.build_s": {"value": s["total"].get("scenario.build_scenario", 0.0),
                             "unit": "s"},
        "isac_sdr.beampattern_setup_s": {
            "value": s["total"].get("isac_sdr._tbp_only_design", 0.0), "unit": "s"},
        "isac_sdr.beampattern_setup_iterations": {
            "value": c.get("pdhg_iterations", 0.0), "unit": "count"},
    }


def smoke() -> int:
    """Every workload end to end: one untraced and one traced round each."""
    ok = True
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", "0", "--seconds", "0", "--trace", "1"],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        passed = bool(result and result["correct"])
        ok &= passed
        summary = (f"attempted={result['attempted']} failed={result['failed']} "
                   f"metrics={len(result['metrics'])}" if result
                   else f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
        print(f"{workload}: {'ok' if passed else 'FAILED'} {summary}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once, traced, and report pass/fail")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "uavisac" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'uavisac'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
