#!/usr/bin/env python3
"""Check that the working tree writes the same outputs as a parent revision.

    python3 tools/same_outputs.py --parent HEAD~1

Run from the repository root. The parent revision is unpacked with
``git archive`` (``ab_bench.unpack``); in each tree the ``uavisac`` CLI then
runs with ``OPENBLAS_NUM_THREADS=1`` on the ``mission_grid`` world of
``perfbench/workloads.py`` with its cut PSO/GA budgets:

- ``run --train-first --episodes 1 --values 2,3 --seeds 0,1`` for scenario
  (and MAPPO) seeds 0-4, and once more with ``--workers 2`` on the seed-0
  world, so the grid's tasks also run in a worker pool;
- the same ``run`` with ``--values 1,4,5`` on the seed-0 world: one UAV has
  no UAV pair and no chain link, and four or five UAVs revert more moves;
- ``curves --episodes 2 --seeds 0,1,2`` on the seed-0 world;
- ``curves --episodes 4 --seeds 0`` on the seed-0 world with ``rollout =
  1024``: three UAVs give 600 transitions per 200-slot episode, so each
  rollout spans two episodes and an update follows every second one;
- ``table`` and ``sweep --axis uav_count`` on each ``run`` output;
- ``curves --episodes 2 --seeds 0,1,2`` and the ``run`` grid above (with
  its ``table`` and ``sweep``) once more, on the default-size seed-0 world
  with a 22 dB inter-UAV SINR floor. No chain link of the runs on the
  ``mission_grid`` world fails, so only these outputs can show a change to
  the QoS reward or to the link audit counts of ``results.csv``.

Elsewhere the ``[mappo]`` section sets ``rollout = 256``, fewer agent samples
than one episode gives, so every training episode ends in a PPO update.

``results.csv``, ``aggregates.csv``, the comparison tables, the sweep CSVs
and the curve CSVs are compared byte for byte, each ``run`` output's
``manifest.json`` with its ``git_revision`` removed (the unpacked parent has
no ``.git``), and the checkpoints array by array with ``np.array_equal``.
Each file's digest is printed for both trees, and for a differing checkpoint
the largest absolute difference of each differing array; the exit code is 1
on any difference.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from ab_bench import ROOT, git, unpack

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import GRID_GA, GRID_PSO, GRID_WORLD  # noqa: E402

SCENARIO_SEEDS = range(5)
RUN_ARGS = ("run", "--train-first", "--episodes", "1", "--values", "2,3",
            "--seeds", "0,1")
WIDE_RUN_ARGS = RUN_ARGS[:4] + ("--values", "1,4,5") + RUN_ARGS[6:]
CURVE_ARGS = ("curves", "--episodes", "2", "--seeds", "0,1,2")
SPAN_CURVE_ARGS = ("curves", "--episodes", "4", "--seeds", "0")
SUMMARY_ARGS = (("table",), ("sweep", "--axis", "uav_count"))
MAPPO = {"rollout": 256}
SPAN_MAPPO = {"rollout": 1024}
LINK_WORLD = dict(gamma_th_uav_db=22.0)     # default area: chain links fail
COMPARED = ("results.csv", "aggregates.csv", "comparison_table*.csv",
            "sweep_*.csv", "*.curve.csv", "curve_seed*.csv", "*.npz",
            "manifest.json")


def write_config(path: Path, seed: int, world: dict, mappo: dict) -> None:
    def ini(value):
        return " ".join(map(str, value)) if isinstance(value, tuple) else value

    sections = {"scenario": {**world, "seed": seed}, "pso": GRID_PSO,
                "ga": GRID_GA, "mappo": {"seed": seed, **mappo}}
    path.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {ini(v)}\n" for k, v in keys.items())
        for name, keys in sections.items()))


def produce(tree: Path, work: Path) -> None:
    """Every compared output of one tree, under ``work``."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(tree / "src")}

    def cli(*args, out):
        subprocess.run([sys.executable, "-m", "uavisac.cli", *args, "--out",
                        str(out)],
                       cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL)

    jobs = ([(f"run_seed{seed}", seed, GRID_WORLD, MAPPO, RUN_ARGS)
             for seed in SCENARIO_SEEDS]
            + [("run_workers2_seed0", 0, GRID_WORLD, MAPPO,
                RUN_ARGS + ("--workers", "2")),
               ("run_uavs145_seed0", 0, GRID_WORLD, MAPPO, WIDE_RUN_ARGS),
               ("curves_seed0", 0, GRID_WORLD, MAPPO, CURVE_ARGS),
               ("curves_span_seed0", 0, GRID_WORLD, SPAN_MAPPO, SPAN_CURVE_ARGS),
               ("curves_links_seed0", 0, LINK_WORLD, MAPPO, CURVE_ARGS),
               ("run_links_seed0", 0, LINK_WORLD, MAPPO, RUN_ARGS)])
    for name, seed, world, mappo, args in jobs:
        out = work / name
        config = work / f"{name}.cfg"
        write_config(config, seed, world, mappo)
        cli(*args, "--config", str(config), out=out)
        if args[0] == "run":
            for summary in SUMMARY_ARGS:
                cli(*summary, out=out)


def compared_bytes(path: Path) -> bytes:
    """A CSV's bytes, or a manifest's without its ``git_revision``."""
    if path.name != "manifest.json":
        return path.read_bytes()
    manifest = json.loads(path.read_text())
    manifest.pop("git_revision")
    return json.dumps(manifest, indent=2, sort_keys=True).encode()


def digest(path: Path) -> str:
    if path.suffix != ".npz":
        return hashlib.sha256(compared_bytes(path)).hexdigest()
    h = hashlib.sha256()
    with np.load(path) as data:
        for key in sorted(data.files):
            h.update(key.encode() + np.ascontiguousarray(data[key]).tobytes())
    return h.hexdigest()


def same(a: Path, b: Path) -> bool:
    if a.suffix != ".npz":
        return compared_bytes(a) == compared_bytes(b)
    with np.load(a) as x, np.load(b) as y:
        return (sorted(x.files) == sorted(y.files)
                and all(np.array_equal(x[k], y[k]) for k in x.files))


def array_deltas(a: Path, b: Path) -> dict:
    """Max |a - b| of each numeric array that differs between two checkpoints."""
    with np.load(a) as x, np.load(b) as y:
        return {k: float(np.max(np.abs(x[k] - y[k]))) for k in sorted(x.files)
                if k in y.files and x[k].dtype.kind == "f"
                and x[k].shape == y[k].shape and not np.array_equal(x[k], y[k])}


def outputs(work: Path) -> set:
    return {p.relative_to(work) for pattern in COMPARED
            for p in work.rglob(pattern)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    parent_rev = git("rev-parse", args.parent)
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        tmp = Path(tmp)
        unpack(parent_rev, tmp)
        sides = {"parent": tmp / "tree", "change": ROOT}
        for side, tree in sides.items():
            (tmp / side).mkdir()
            produce(tree, tmp / side)
        files = outputs(tmp / "parent") | outputs(tmp / "change")
        differ = 0
        for rel in sorted(files):
            paths = {side: tmp / side / rel for side in sides}
            ok = (all(p.exists() for p in paths.values())
                  and same(paths["parent"], paths["change"]))
            differ += not ok
            print(f"{'same' if ok else 'DIFF'} {rel}")
            for side, p in paths.items():
                print(f"  {side:6} {digest(p) if p.exists() else 'missing'}")
            if not ok and rel.suffix == ".npz" and all(p.exists() for p in paths.values()):
                for key, delta in array_deltas(paths["parent"], paths["change"]).items():
                    print(f"  max |delta| {key} {delta:.3g}")
    print(f"{len(files)} files compared against {parent_rev}, {differ} differ")
    return 1 if differ or not files else 0


if __name__ == "__main__":
    sys.exit(main())
