#!/usr/bin/env python3
"""Time one default-scale search round: the first joint PSO/GA generation.

    python3 tools/search_round.py --rounds 9

Run from the repository root (``src`` is put on the import path after any
``PYTHONPATH`` entry, so ``PYTHONPATH=<other tree>/src`` measures that tree).
On the default world (M = 3, 30 MDs, 500 slots) it builds the first
generation of the PSO and GA searches of seeds 0-4 at the default budgets,
700 plans, as ``plan_searches`` asks for them in ``uavisac run``'s grid, and
times ``population_fitness`` on all of them in one call, once per round.
Printed: the median and quartiles of the round times, the env steps and
fleet-slots of one round, and a sha256 of its four result arrays (fitness,
energy, slots, collected), so two runs compare two trees' time and bits.
Alternate the trees, and run with ``OPENBLAS_NUM_THREADS=1``: single rounds
on a shared host say little.
"""

import argparse
import hashlib
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from uavisac.config import load_config  # noqa: E402
from uavisac.planners import SEARCHES, population_fitness  # noqa: E402
from uavisac.scenario import build_scenario  # noqa: E402

SEEDS = range(5)


def first_round(rc, world) -> list:
    """The first generation of every (method, seed) search, method-major."""
    return [plan for name, search in SEARCHES.items() for seed in SEEDS
            for plan in next(search(world, replace(getattr(rc, name), seed=seed)))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5,
                        help="timed population_fitness calls, at least 2 "
                             "(default 5)")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    rc = load_config()
    world = build_scenario(rc.scenario)
    plans = first_round(rc, world)
    times = []
    for _ in range(args.rounds):
        start = time.perf_counter()
        result = population_fitness(plans, world, rc.propulsion)
        times.append(time.perf_counter() - start)
    _, _, slots, _ = result
    digest = hashlib.sha256(b"".join(a.tobytes() for a in result)).hexdigest()
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    print(f"plans {len(plans)}, env steps {slots.max()}, "
          f"fleet-slots {slots.sum()}")
    print(f"round s: median {median:.3f}, quartiles {q1:.3f} {q3:.3f} "
          f"over {len(times)} rounds")
    print(f"sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
