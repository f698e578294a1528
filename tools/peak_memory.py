#!/usr/bin/env python3
"""Peak memory of one PPO update and of one mission's scoring, at paper scale.

    python3 tools/peak_memory.py

Run from the repository root (``src`` is put on the import path after any
``PYTHONPATH`` entry, so ``PYTHONPATH=<other tree>/src`` measures that tree).
Each measured call runs under ``tracemalloc``, started as the call begins and
stopped as it returns, so the rest runs untraced; a call's transient is the
peak of the memory allocated during it. Printed, in MB:

- ``drl_mappo._update`` at the ``MappoConfig`` defaults (rollout 4096,
  minibatch 256) on the default world: ``train`` runs the defaults up to its
  first update, which is measured, and stops there;
- ``planners.mission_result`` ("isac" link mode, as greedy_online scores it)
  of the greedy_online flights of the default world at M = 3 and M = 5.

No perfbench workload runs either call at these sizes.
"""

import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from uavisac import drl_mappo, planners  # noqa: E402
from uavisac.config import load_config  # noqa: E402
from uavisac.energy import REFERENCE_PROPULSION  # noqa: E402
from uavisac.scenario import build_scenario  # noqa: E402

MB = 2 ** 20


def transient(call):
    """(call's result, the peak MB allocated while it ran)."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / MB


class FirstUpdate(Exception):
    """Raised once the first update has been measured, to end training."""


def update_transient(rc) -> tuple:
    """(slots in the rollout, MB) of train's first update at the defaults."""
    update, seen = drl_mappo._update, []

    def measured(policy, opt_actor, opt_critic, rollout, *args):
        slots = rollout.n
        _, mb = transient(lambda: update(policy, opt_actor, opt_critic,
                                         rollout, *args))
        seen.append((slots, mb))
        raise FirstUpdate

    drl_mappo._update = measured
    try:
        drl_mappo.train(build_scenario(rc.scenario), rc.mappo, rc.reward)
    except FirstUpdate:
        pass
    finally:
        drl_mappo._update = update
    return seen[0]


def mission_transient(rc, m_count: int) -> tuple:
    """(slots flown, MB) of mission_result on greedy_online's flight."""
    world = build_scenario(replace(rc.scenario, num_uavs=m_count))
    flight = planners.online_flight(world, REFERENCE_PROPULSION)
    _, mb = transient(lambda: planners.mission_result(
        flight, world, 0, "greedy_online", "isac"))
    return len(flight.final), mb


def main():
    rc = load_config()
    slots, mb = update_transient(rc)
    print(f"_update, rollout {rc.mappo.rollout}, minibatch {rc.mappo.minibatch}"
          f" ({slots} slots, M = {rc.scenario.num_uavs}): {mb:.2f} MB")
    for m_count in (3, 5):
        slots, mb = mission_transient(rc, m_count)
        print(f"mission_result, greedy_online, M = {m_count} ({slots} slots):"
              f" {mb:.2f} MB")


if __name__ == "__main__":
    main()
