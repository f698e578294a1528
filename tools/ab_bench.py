#!/usr/bin/env python3
"""A/B runs of one perfbench workload: a parent revision against the working tree.

    python3 tools/ab_bench.py --parent HEAD~1 --workload mappo_train --pairs 10

Run from the repository root. The parent revision is unpacked with
``git archive`` into a temporary directory, and the working tree as it
stands is copied next to it (``copy_worktree``), so both sides run from the
same kind of fresh directory; each pair then runs
``perfbench/run.py --workload W --seed S --seconds T`` once on each side, in
alternating order (the parent first in even pairs), with seed ``S`` =
``--seed`` + pair index on both sides. ``BENCH_<workload>.json`` gets every
run's end-to-end metrics and, per metric, each side's median and quartiles,
the pairs the working tree won (ties count for neither side), whether a
gain may be claimed (at least nine tenths of the pairs won, and medians
apart by more than the parent's interquartile range) and the median
change/parent ratio over the pairs run parent first and over those run
change first, so that a run-order effect shows. ``BENCH_history.jsonl``
gets the same report, less the per-run records, as one appended line, so
the runs of earlier revisions stay on record.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def unpack(rev: str, into: Path) -> None:
    archive = into / "parent.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                       check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(into / "tree", filter="data")
    archive.unlink()


def copy_worktree(root: Path, into: Path) -> None:
    """Copy the checkout at ``root`` into ``into`` as it stands: tracked files
    with their uncommitted edits and the untracked files that no ignore rule
    excludes; tracked files deleted from the working tree stay out."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, check=True, capture_output=True).stdout.decode()
    for name in filter(None, listed.split("\0")):
        if (root / name).is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, into / name)


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"seed": seed, "wall_s": time.perf_counter() - t0,
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def spread(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def parent_first(pair: int) -> bool:
    """Whether the parent side runs first in pair ``pair``: the even ones."""
    return pair % 2 == 0


def order_ratio(parent, change, first: bool):
    """Median change/parent ratio over the pairs whose parent_first is
    ``first``; None when no such pair has a nonzero parent value."""
    ratios = [c / p for k, (p, c) in enumerate(zip(parent, change))
              if parent_first(k) == first and p]
    return statistics.median(ratios) if ratios else None


def summarize(runs, end_to_end) -> dict:
    """Per end-to-end metric, the comparison of ``runs``, a list of
    (parent, change) run records in pair order."""
    out = {}
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        parent = [p["metrics"][name] for p, _ in runs]
        change = [c["metrics"][name] for _, c in runs]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        losses = sum((c < p) if higher else (c > p) for p, c in zip(parent, change))
        base, new = spread(parent), spread(change)
        gap = (new["median"] - base["median"]) * (1 if higher else -1)
        out[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent": base, "change": new, "change_wins": wins,
            "parent_wins": losses, "pairs": len(runs),
            "median_ratio": new["median"] / base["median"] if base["median"] else None,
            "ratio_parent_first": order_ratio(parent, change, True),
            "ratio_change_first": order_ratio(parent, change, False),
            "gain_claimable": wins >= 0.9 * len(runs) and gap > base["iqr"],
            "worse_than_bound": -gap > spec["bound"] * abs(base["median"]),
        }
    return out


def append_history(path: Path, report: dict) -> None:
    """Append ``report`` without its per-run records to ``path`` as one JSON
    line; the lines already there are left as they are."""
    line = json.dumps({k: v for k, v in report.items() if k != "runs"})
    with open(path, "a") as fh:
        fh.write(line + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    parser.add_argument("--out", type=Path, help="default: BENCH_<workload>.json")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    out = args.out or ROOT / f"BENCH_{args.workload}.json"
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    parent_rev = git("rev-parse", args.parent)
    runs = []
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        unpack(parent_rev, Path(tmp))
        copy_worktree(ROOT, Path(tmp) / "change")
        sides = {"parent": Path(tmp) / "tree", "change": Path(tmp) / "change"}
        for k in range(args.pairs):
            seed = args.seed + k
            order = ("parent", "change") if parent_first(k) else ("change", "parent")
            pair = {side: run_side(sides[side], args.workload, seed, args.seconds)
                    for side in order}
            runs.append((pair["parent"], pair["change"]))
            print(f"pair {k} seed {seed} first {order[0]}: " + ", ".join(
                f"{side} ops_per_s {pair[side]['metrics']['ops_per_s']:.4g}"
                for side in order), flush=True)

    report = {
        "workload": args.workload, "seconds": args.seconds, "pairs": args.pairs,
        "parent_rev": parent_rev, "change_rev": git("rev-parse", "HEAD"),
        "change_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "nproc": os.cpu_count(),
                 "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")},
        "summary": summarize(runs, end_to_end),
        "runs": [{"pair": k, "parent_first": parent_first(k), "parent": p, "change": c}
                 for k, (p, c) in enumerate(runs)],
    }
    out.write_text(json.dumps(report, indent=1) + "\n")
    append_history(ROOT / "BENCH_history.jsonl", report)

    def fmt(ratio):
        return "n/a" if ratio is None else f"{ratio:.4f}"

    for name, s in report["summary"].items():
        print(f"{name}: parent {s['parent']['median']:.4g} "
              f"[{s['parent']['q1']:.4g}, {s['parent']['q3']:.4g}], change "
              f"{s['change']['median']:.4g} [{s['change']['q1']:.4g}, "
              f"{s['change']['q3']:.4g}], change won {s['change_wins']}/{s['pairs']}; "
              f"change/parent median {fmt(s['ratio_parent_first'])} parent first, "
              f"{fmt(s['ratio_change_first'])} change first")
    print(f"wrote {out}, appended to {ROOT / 'BENCH_history.jsonl'}")
    failed = sum(p["failed"] + c["failed"] for p, c in runs)
    correct = all(p["correct"] and c["correct"] for p, c in runs)
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
