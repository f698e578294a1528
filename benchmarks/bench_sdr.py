#!/usr/bin/env python3
"""Benchmark the transmit-design solver with and without numba.

Runs each lane in a subprocess (the lane is chosen at import time via
UAVISAC_DISABLE_NUMBA) and reports the per-call time of the transmit-design
solver, the only jitted code. Each worker reports the lane it actually ran
(``uavisac.accel.NUMBA_DISABLED`` in its own process); when numba is not
importable both lanes run numpy, and only the numpy time is printed.

Usage: python benchmarks/bench_sdr.py [--solves N]
"""

import argparse
import json
import os
import subprocess
import sys

WORKER = r"""
import json, sys, time
import numpy as np
from uavisac import accel
from uavisac.scenario import ScenarioConfig, build_scenario, rng_stream
from uavisac.channel import effective_channel, sample_rician_channel
from uavisac.isac_sdr import SdrOptions, solve_feasibility

n_solves = int(sys.argv[1])
cfg = ScenarioConfig()
sc = build_scenario(cfg)
rng = rng_stream(0, "bench")

# mix of beampattern-bound, SINR-bound and infeasible instances
cases = []
for k in range(n_solves):
    d = 100.0 + (k % 16) * 150.0
    h = sample_rician_channel((0, 0, 80), (d, 0, 80), cfg.rician_k,
                              cfg.beta_ref, cfg.n_antennas, rng)
    cases.append(effective_channel(h, sc.rx_combiner))

opts = SdrOptions()
solve_feasibility(cases[0], cfg.noise_uav, cfg.gamma_th_uav,
                  cfg.tbp_threshold, cfg.sensing_angles, cfg.p_max, opts)  # warm up
t0 = time.perf_counter()
feasible = 0
for h_eff in cases:
    des = solve_feasibility(h_eff, cfg.noise_uav, cfg.gamma_th_uav,
                            cfg.tbp_threshold, cfg.sensing_angles,
                            cfg.p_max, opts)
    feasible += des.feasible
solve_s = time.perf_counter() - t0

print(json.dumps({
    "numba_disabled": accel.NUMBA_DISABLED,
    "solves": n_solves, "feasible": feasible,
    "solve_ms_per_call": 1e3 * solve_s / n_solves,
}))
"""


def run_lane(disabled: bool, n_solves: int) -> dict:
    env = dict(os.environ, UAVISAC_DISABLE_NUMBA="1" if disabled else "0")
    out = subprocess.run(
        [sys.executable, "-c", WORKER, str(n_solves)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--solves", type=int, default=64)
    args = parser.parse_args()

    jit = run_lane(False, args.solves)
    plain = run_lane(True, args.solves)
    assert plain["numba_disabled"], "the numpy lane ran numba"
    assert jit["feasible"] == plain["feasible"], "lanes disagree on decisions"
    label, key = "transmit design solve", "solve_ms_per_call"

    if jit["numba_disabled"]:
        print("numba is not importable: both lanes ran numpy, no speedup to report")
        print(f"{'kernel':<28}{'numpy':>12}")
        print(f"{label:<28}{plain[key]:>10.3f}ms")
        return

    ratio = plain[key] / jit[key] if jit[key] > 0 else float("inf")
    print(f"{'kernel':<28}{'numba':>12}{'numpy':>12}{'speedup':>10}")
    print(f"{label:<28}{jit[key]:>10.3f}ms{plain[key]:>10.3f}ms{ratio:>9.1f}x")


if __name__ == "__main__":
    main()
