"""tools/ab_bench.py's summaries, fed synthetic run pairs, its copy of
the working tree and its history file."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

AB_BENCH = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
SPECS = [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
         {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]


def load_ab_bench():
    spec = importlib.util.spec_from_file_location("ab_bench", AB_BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pairs(parent, change):
    return [({"metrics": {"ops_per_s": p, "setup_s": 1.0}},
             {"metrics": {"ops_per_s": c, "setup_s": 1.0}})
            for p, c in zip(parent, change)]


def test_ratios_split_by_run_order():
    # the side that runs second is 10 % faster: pairs 0, 2, 4 run the parent
    # first, pairs 1, 3, 5 the change
    summary = load_ab_bench().summarize(
        pairs([10.0, 11.0, 10.0, 11.0, 10.0, 11.0],
              [11.0, 10.0, 11.0, 10.0, 11.0, 10.0]), SPECS)
    ops = summary["ops_per_s"]
    assert ops["ratio_parent_first"] == pytest.approx(1.1)
    assert ops["ratio_change_first"] == pytest.approx(10.0 / 11.0)
    assert (ops["change_wins"], ops["parent_wins"], ops["pairs"]) == (3, 3, 6)
    assert ops["median_ratio"] == pytest.approx(1.0)
    assert not ops["gain_claimable"] and not ops["worse_than_bound"]
    setup = summary["setup_s"]
    assert setup["ratio_parent_first"] == setup["ratio_change_first"] == 1.0
    assert setup["change_wins"] == setup["parent_wins"] == 0


def test_gain_claimable_on_both_orders():
    summary = load_ab_bench().summarize(
        pairs([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0]), SPECS)
    ops = summary["ops_per_s"]
    assert ops["gain_claimable"] and ops["change_wins"] == 4
    assert ops["ratio_parent_first"] == pytest.approx(
        (12.0 / 10.0 + 11.9 / 9.9) / 2)
    assert ops["ratio_change_first"] == pytest.approx(
        (12.1 / 10.1 + 12.0 / 10.0) / 2)


def test_zero_parent_values_give_no_ratio():
    summary = load_ab_bench().summarize(pairs([0.0, 0.0], [1.0, 1.0]), SPECS)
    assert summary["ops_per_s"]["ratio_parent_first"] is None
    assert summary["ops_per_s"]["ratio_change_first"] is None


def test_copy_worktree_takes_the_tree_as_it_stands(tmp_path):
    repo, into = tmp_path / "repo", tmp_path / "copy"
    (repo / "pkg").mkdir(parents=True)
    files = {".gitignore": "*.log\n", "edited.py": "old\n", "deleted.py": "x\n",
             "pkg/kept.py": "kept\n"}
    for name, text in files.items():
        (repo / name).write_text(text)
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    subprocess.run(["git", "add", *files], cwd=repo, check=True)
    (repo / "edited.py").write_text("new\n")
    (repo / "deleted.py").unlink()
    (repo / "pkg" / "untracked.py").write_text("fresh\n")
    (repo / "run.log").write_text("ignored\n")
    load_ab_bench().copy_worktree(repo, into)
    copied = sorted(str(p.relative_to(into)) for p in into.rglob("*") if p.is_file())
    assert copied == [".gitignore", "edited.py", "pkg/kept.py", "pkg/untracked.py"]
    assert (into / "edited.py").read_text() == "new\n"


def test_history_appends_one_line_per_run(tmp_path):
    ab_bench, path = load_ab_bench(), tmp_path / "BENCH_history.jsonl"
    reports = [{"workload": name, "pairs": 3, "summary": {"ops_per_s": {}},
                "runs": [{"pair": 0}]} for name in ("mission_grid", "mappo_train")]
    ab_bench.append_history(path, reports[0])
    first = path.read_bytes()
    ab_bench.append_history(path, reports[1])
    assert path.read_bytes().startswith(first)
    lines = path.read_text().splitlines()
    assert [json.loads(line) for line in lines] == [
        {k: v for k, v in r.items() if k != "runs"} for r in reports]
