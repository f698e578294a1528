import csv
import json
import platform
import re
from dataclasses import replace

import numpy as np
import pytest

from uavisac.cli import main
from uavisac.config import load_config
from uavisac.drl_mappo import (ActorNet, CriticNet, MappoConfig, MappoPolicy,
                               run_policy_episode)
from uavisac.harness import (CIRCUIT_POWER_W, LINK_MODES, METHODS,
                             SEED_MEANING, ExperimentSpec, _result_row,
                             checkpoint_path, emit_comparison_table,
                             emit_sweep_data, git_revision, run_cell,
                             run_experiment, scenario_config_for,
                             train_checkpoint, validate_spec)
from uavisac.mdp_env import CorridorEnv
from uavisac.planners import mission_result
from uavisac.scenario import build_scenario


def small_run_config(num_mds=5, horizon=150):
    rc = load_config()
    return replace(
        rc,
        scenario=replace(rc.scenario, num_mds=num_mds, area_width=800.0,
                         area_height=800.0, start=(0.0, 800.0),
                         end=(800.0, 0.0), horizon_slots=horizon),
        pso=replace(rc.pso, swarm=8, iterations=10),
        ga=replace(rc.ga, population=8, generations=10),
        mappo=replace(rc.mappo, hidden=32, rollout=512, minibatch=128,
                      epochs=2, max_episodes=4),
    )


def small_spec(out_dir, methods=("greedy_offline", "greedy_online"),
               values=(1, 2), seeds=(0, 1)):
    return ExperimentSpec(run_config=small_run_config(), methods=methods,
                          axis="uav_count", values=values, seeds=seeds,
                          out_dir=str(out_dir))


class TestSpecValidation:
    def test_empty_methods_rejected(self, tmp_path):
        spec = replace(small_spec(tmp_path), methods=())
        assert any("method" in p for p in validate_spec(spec))
        with pytest.raises(ValueError):
            run_experiment(spec)

    def test_unknown_method_rejected(self, tmp_path):
        spec = replace(small_spec(tmp_path), methods=("warp_drive",))
        assert validate_spec(spec)

    def test_bad_axis_values_rejected(self, tmp_path):
        spec = replace(small_spec(tmp_path), values=(0,))
        assert validate_spec(spec)

    def test_repeated_entries_rejected(self, tmp_path):
        spec = replace(small_spec(tmp_path), methods=("ga", "pso", "ga"),
                       values=(2, 3, 2.0), seeds=(0, 0))
        assert validate_spec(spec) == ["repeated methods: ['ga']",
                                       "repeated values: [2.0]",
                                       "repeated seeds: [0]"]


class TestRunExperiment:
    def test_grid_shape_and_persistence(self, tmp_path):
        rows = run_experiment(small_spec(tmp_path))
        assert len(rows) == 2 * 2 * 2
        header = (tmp_path / "results.csv").read_text().splitlines()[0]
        assert header == ("method,axis,value,seed,energy_j,time_s,collected,"
                          "success,v_md_exclusivity,v_coverage_missing,"
                          "v_power,v_psd,v_tbp,v_min_distance,"
                          "v_uplink_gating,v_inter_uav")
        assert (tmp_path / "aggregates.csv").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["methods"] == ["greedy_offline", "greedy_online"]
        assert "scenario_fingerprint" in manifest
        assert manifest["config"]["scenario"]["num_mds"] == 5
        assert manifest["numpy_version"] == np.__version__
        assert manifest["python_version"] == platform.python_version()
        revision = manifest["git_revision"]
        assert revision is None or (len(revision) == 40
                                    and int(revision, 16) >= 0)
        assert manifest["seed_meaning"] == SEED_MEANING

    def test_seed_repeat_byte_identical(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        run_experiment(small_spec(a_dir))
        run_experiment(small_spec(b_dir))
        assert (a_dir / "results.csv").read_bytes() == \
            (b_dir / "results.csv").read_bytes()
        assert (a_dir / "aggregates.csv").read_bytes() == \
            (b_dir / "aggregates.csv").read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        one, two = tmp_path / "one", tmp_path / "two"
        run_experiment(small_spec(one))
        run_experiment(replace(small_spec(two), workers=2))
        for name in ("results.csv", "aggregates.csv"):
            assert (one / name).read_bytes() == (two / name).read_bytes()

    def test_worker_count_does_not_change_search_bytes(self, tmp_path):
        methods = ("pso", "ga", "greedy_offline")
        one, two = tmp_path / "one", tmp_path / "two"
        run_experiment(small_spec(one, methods=methods))
        run_experiment(replace(small_spec(two, methods=methods), workers=2))
        for name in ("results.csv", "aggregates.csv"):
            assert (one / name).read_bytes() == (two / name).read_bytes()

    def test_grouped_search_rows_equal_their_cells(self, tmp_path):
        # a task flies each trajectory of its group and axis value once: the
        # DRL pair shares one episode, greedy_online one pursuit, and the
        # offline plans (PSO and GA searched jointly) one batched replay
        spec = replace(small_spec(tmp_path, methods=METHODS), workers=2,
                       train_first=True, train_episodes=1)
        rows = run_experiment(spec)
        assert [(r["method"], r["value"], r["seed"]) for r in rows] == [
            (m, v, s) for m in sorted(METHODS) for v in (1, 2) for s in (0, 1)]
        for r in rows:
            cell = run_cell(r["method"], spec, r["value"], r["seed"])
            assert r == _result_row(cell, "uav_count", r["value"])

    def test_missing_checkpoint_names_method(self, tmp_path):
        spec = replace(small_spec(tmp_path), methods=("drl_sdr",))
        with pytest.raises(FileNotFoundError, match="drl_sdr"):
            run_experiment(spec)

    def test_aggregates_keep_numeric_value_order(self, tmp_path):
        spec = replace(small_spec(tmp_path, methods=("greedy_offline",),
                                  values=(5, 10), seeds=(0,)), axis="md_count")
        run_experiment(spec)
        for name in ("results.csv", "aggregates.csv"):
            rows = list(csv.DictReader(open(tmp_path / name)))
            assert [r["value"] for r in rows] == ["5", "10"]

    def test_stale_checkpoint_runs_no_cell(self, tmp_path, capsys, monkeypatch):
        # a checkpoint trained for a 5-MD world, found by a 4-MD run
        cfg = tmp_path / "four.cfg"
        cfg.write_text("[scenario]\nnum_mds = 4\n")
        path = checkpoint_path(tmp_path / "out", "uav_count", 2)
        path.parent.mkdir(parents=True)
        stale = CorridorEnv(build_scenario(replace(load_config().scenario,
                                                   num_uavs=2, num_mds=5)))
        rng = np.random.default_rng(0)
        MappoPolicy(ActorNet(rng, stale.obs_dim, stale.n_actions, 8),
                    CriticNet(rng, stale.state_dim, 8),
                    MappoConfig(hidden=8)).save(path)
        cells = []
        monkeypatch.setattr("uavisac.harness.run_cells",
                            lambda *args: cells.append(args))
        assert main(["run", "--config", str(cfg), "--methods", "drl_sdr",
                     "--values", "2", "--seeds", "0",
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert "(33, 6, 81)" in err and "(29, 5, 70)" in err
        assert cells == []
        assert not (tmp_path / "out" / "results.csv").exists()

    def test_offline_rows_mark_link_constraint_na(self, tmp_path):
        run_experiment(small_spec(tmp_path, methods=("greedy_offline",),
                                  values=(2,), seeds=(0,)))
        rows = list(csv.DictReader(open(tmp_path / "results.csv")))
        assert rows[0]["v_inter_uav"] == "na"

    def test_train_first_builds_checkpoint_and_runs_drl(self, tmp_path):
        spec = replace(small_spec(tmp_path, methods=("drl_sdr", "drl_sc"),
                                  values=(2,), seeds=(0,)),
                       train_first=True, train_episodes=2)
        rows = run_experiment(spec)
        assert checkpoint_path(tmp_path, "uav_count", 2).exists()
        assert len(rows) == 2
        sdr = next(r for r in rows if r["method"] == "drl_sdr")
        sc = next(r for r in rows if r["method"] == "drl_sc")
        # identical trajectories, but the split-array variant pays 2 W per UAV
        for field in ("time_s", "collected", "success"):
            assert sc[field] == sdr[field]
        extra = 2.0 * 2 * float(sc["time_s"])
        assert float(sc["energy_j"]) == pytest.approx(
            float(sdr["energy_j"]) + extra, rel=1e-9)


    def test_drl_cells_fly_the_policy_episode(self, tmp_path):
        spec = replace(small_spec(tmp_path, methods=("drl_sdr",), values=(2,)),
                       train_episodes=1)
        policy = MappoPolicy.load(train_checkpoint(spec, 2))
        rc = spec.run_config
        scenario = build_scenario(scenario_config_for(rc, "uav_count", 2))
        cfg = scenario.config
        for method in ("drl_sdr", "drl_sc"):
            for seed in spec.seeds:
                env = CorridorEnv(scenario, reward=rc.reward,
                                  propulsion=rc.propulsion)
                success, slots, energy, collected = run_policy_episode(
                    policy, env, seed)
                res = run_cell(method, spec, 2, seed)
                circuit = (CIRCUIT_POWER_W * cfg.num_uavs * slots
                           * cfg.slot_seconds if method == "drl_sc" else 0.0)
                assert res.time_s == slots * cfg.slot_seconds
                assert res.energy_j == energy + circuit
                assert (res.collected, res.success) == (collected, success)
                assert res == mission_result(env.flown(), scenario, seed,
                                             method, LINK_MODES[method])
        # one flight in each link mode: only the split array's row adds the
        # circuit draw to the flown energy
        flight = env.flown()
        energy = {mode: mission_result(flight, scenario, 0, "drl", mode).energy_j
                  for mode in ("isac", "separated", "none")}
        circuit = (CIRCUIT_POWER_W * cfg.num_uavs * len(flight.final)
                   * cfg.slot_seconds)
        assert energy["isac"] == energy["none"] < energy["separated"]
        assert energy["separated"] == energy["isac"] + circuit


class TestGitRevision:
    REV = "0123456789abcdef0123456789abcdef01234567"

    def test_no_repository_gives_none(self, tmp_path):
        assert git_revision(tmp_path) is None

    def test_unreadable_head_gives_none(self, tmp_path):
        (tmp_path / ".git").write_text("gitdir: elsewhere\n")
        assert git_revision(tmp_path) is None

    def test_branch_missing_from_refs_gives_none(self, tmp_path):
        (tmp_path / ".git").mkdir()
        (tmp_path / ".git" / "HEAD").write_text("ref: refs/heads/main\n")
        assert git_revision(tmp_path) is None

    def test_detached_loose_and_packed_heads(self, tmp_path):
        git = tmp_path / ".git"
        (git / "refs" / "heads").mkdir(parents=True)
        (git / "HEAD").write_text(self.REV + "\n")
        assert git_revision(tmp_path) == self.REV
        (git / "HEAD").write_text("ref: refs/heads/main\n")
        (git / "packed-refs").write_text(
            f"# pack-refs with: peeled\n{self.REV} refs/heads/main\n")
        assert git_revision(tmp_path) == self.REV
        loose = self.REV[::-1]
        (git / "refs" / "heads" / "main").write_text(loose + "\n")
        assert git_revision(tmp_path) == loose


class TestEmitters:
    def test_comparison_table_layout_roundtrip(self, tmp_path):
        run_experiment(small_spec(tmp_path))
        path = emit_comparison_table(tmp_path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "method,metric,uav_1,uav_2"
        assert len(lines) == 1 + 2 * 2
        reparsed = [line.split(",") for line in lines[1:]]
        for row in reparsed:
            assert row[1] in ("energy_1e5_j", "total_time_s")
            float(row[2]), float(row[3])
        marks = (tmp_path / "comparison_table_minima.csv").read_text()
        assert marks.startswith("metric,uav_count,best_method")

    def test_emitters_idempotent(self, tmp_path):
        run_experiment(small_spec(tmp_path))
        first = emit_comparison_table(tmp_path).read_bytes()
        second = emit_comparison_table(tmp_path).read_bytes()
        assert first == second

    def test_sweep_reductions_zero_for_equal_energy(self, tmp_path):
        # synthetic results: proposed equals the baseline
        out = tmp_path
        out.mkdir(exist_ok=True)
        header = ("method,axis,value,seed,energy_j,time_s,collected,success,"
                  "v_md_exclusivity,v_coverage_missing,v_power,v_psd,v_tbp,"
                  "v_min_distance,v_uplink_gating,v_inter_uav")
        rows = [
            "drl_sdr,md_count,10,0,50000.0,200.0,10,1,0,0,0,0,0,0,0,0",
            "ga,md_count,10,0,50000.0,220.0,10,1,0,0,0,0,0,0,0,na",
            "pso,md_count,10,0,100000.0,260.0,10,1,0,0,0,0,0,0,0,na",
        ]
        (out / "results.csv").write_text(header + "\n" + "\n".join(rows) + "\n")
        emit_sweep_data(out, "md_count")
        red = dict()
        for line in (out / "sweep_md_count_reductions.csv").read_text() \
                .strip().split("\n")[1:]:
            v, m, pct = line.split(",")
            red[m] = float(pct)
        assert red["ga"] == pytest.approx(0.0)
        assert red["pso"] == pytest.approx(50.0)

    def test_sweep_on_missing_axis_rejected(self, tmp_path):
        run_experiment(small_spec(tmp_path))
        with pytest.raises(ValueError):
            emit_sweep_data(tmp_path, "md_count")


class TestCli:
    def test_validate_ok(self, capsys):
        assert main(["validate"]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_bad_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[scenario]\np_max = 0\n")
        assert main(["validate", "--config", str(bad)]) == 1
        assert "p_max" in capsys.readouterr().out

    @pytest.mark.parametrize("verb", ["validate", "run"])
    @pytest.mark.parametrize("text, named", [
        ("[propulsion]\nair_density = -1\n", "air_density"),
        ("[propulsion]\ntip_speed = 0\n", "tip_speed"),
        ("[scenario]\nnum_uav = 5\n", "num_uav"),
        ("[scenario]\nnum_lines = 20\n", "num_lines"),
        ("[pso]\nswarm = 0\n", "swarm"),
        ("[ga]\npopulation = 0\n", "population"),
        ("[mappo]\nhidden = 0\n", "hidden"),
        ("[mappo]\nminibatch = 0\n", "minibatch"),
        ("[mappo]\nepochs = 0\n", "epochs"),
        ("[mappo]\nsmooth_window = 0\n", "smooth_window"),
        ("[mappo]\nmax_episodes = 0\n", "max_episodes"),
        ("[mappo]\nrollout = 0\n", "rollout"),
        ("[scenario]\nstart = 0, 2500, 80\n", "start"),
        ("[scenario]\nend = 7\n", "end"),
        ("[scenario]\nsensing_angles_deg = nan\n", "sensing_angles"),
        ("[scenario]\nrician_k = nan\n", "rician_k"),
        ("[reward]\ncollect = inf\n", "collect"),
        ("[reward]\nenergy_scale = 0\n", "energy_scale"),
        ("[reward]\nenergy_scale = -1e4\n", "energy_scale"),
        ("[pso]\ninertia = nan\n", "inertia"),
        ("[mappo]\nactor_lr = nan\n", "actor_lr"),
        ("[pso]\niterations = -3\n", "iterations"),
        ("[ga]\ngenerations = -2\n", "generations"),
        ("[pso]\nwaypoint_span = -60\n", "waypoint_span")])
    def test_bad_config_exits_1(self, tmp_path, capsys, verb, text, named):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        args = [verb, "--config", str(bad), "--out", str(tmp_path / "out")]
        if verb == "run":
            args += ["--methods", "greedy_offline", "--values", "1",
                     "--seeds", "0"]
        assert main(args) == 1
        out, err = capsys.readouterr()
        # scenario violations are listed on stdout, load errors on stderr
        assert named in (out if "violation(s)" in err else err)

    def test_training_verbs_print_progress_to_stderr(self, tmp_path, capsys):
        # every 50 episodes and after the last: the episode, the smoothed
        # reward and the success rate over the smoothing window; stdout
        # names only the files written
        cfg = tmp_path / "small.cfg"
        cfg.write_text("[scenario]\nnum_mds = 3\narea_width = 600\n"
                       "area_height = 600\nstart = 0, 600\nend = 600, 0\n"
                       "horizon_slots = 20\n[mappo]\nhidden = 16\n"
                       "rollout = 64\nepochs = 1\nsmooth_window = 4\n")
        line = (r"(curves seed 0|train uav_count = 2): episode (\d+)/(\d+), "
                r"smoothed reward (-?\d+\.\d{3}), success (\d\.\d{2})")
        out = tmp_path / "out"
        assert main(["curves", "--config", str(cfg), "--episodes", "52",
                     "--seeds", "0", "--out", str(out)]) == 0
        stdout, err = capsys.readouterr()
        assert stdout == f"learning curve written: {out / 'curve_seed0.csv'}\n"
        rows = list(csv.DictReader(
            (out / "curve_seed0.csv").read_text().splitlines()))
        reports = [re.fullmatch(line, text).groups() for text in err.splitlines()]
        assert [(int(done), int(total)) for _, done, total, _, _ in reports] \
            == [(50, 52), (52, 52)]
        for _, done, _, smoothed, success in reports:
            done = int(done)
            assert float(smoothed) == pytest.approx(
                float(rows[done - 1]["smoothed_reward"]), abs=1e-3)
            window = [int(r["success"]) for r in rows[done - 4:done]]
            assert success == f"{sum(window) / 4:.2f}"

        assert main(["train", "--config", str(cfg), "--methods", "drl_sdr",
                     "--axis", "uav_count", "--values", "2", "--episodes", "2",
                     "--out", str(out)]) == 0
        stdout, err = capsys.readouterr()
        path = checkpoint_path(out, "uav_count", 2)
        assert stdout == f"checkpoint written: {path}\n"
        ((label, done, total, _, _),) = [re.fullmatch(line, text).groups()
                                         for text in err.splitlines()]
        assert (label, done, total) == ("train uav_count = 2", "2", "2")

    def test_run_train_first_prints_training_progress(self, tmp_path, capsys):
        # the checkpoints that run --train-first trains report as train's
        # do, on stderr; stdout and the written files are those of a run
        # whose checkpoints were trained beforehand
        cfg = tmp_path / "small.cfg"
        cfg.write_text("[scenario]\nnum_mds = 3\narea_width = 600\n"
                       "area_height = 600\nstart = 0, 600\nend = 600, 0\n"
                       "horizon_slots = 20\n[mappo]\nhidden = 16\n"
                       "rollout = 64\nepochs = 1\nsmooth_window = 4\n")
        grid = ["--config", str(cfg), "--methods", "drl_sdr,greedy_online",
                "--axis", "uav_count", "--values", "2,3", "--seeds", "0",
                "--episodes", "2"]
        first = tmp_path / "first"
        assert main(["run", "--train-first", *grid, "--out", str(first)]) == 0
        stdout, err = capsys.readouterr()
        assert stdout == f"4 result rows written to {first}/results.csv\n"
        labels = [re.fullmatch(r"(train uav_count = \d): episode 2/2, smoothed "
                               r"reward -?\d+\.\d{3}, success \d\.\d{2}",
                               line).group(1) for line in err.splitlines()]
        assert labels == ["train uav_count = 2", "train uav_count = 3"]

        trained = tmp_path / "trained"
        assert main(["train", *grid, "--out", str(trained)]) == 0
        assert main(["run", *grid, "--out", str(trained)]) == 0
        capsys.readouterr()
        for name in ("results.csv", "aggregates.csv"):
            assert (first / name).read_bytes() == (trained / name).read_bytes()
        for value in (2, 3):
            for suffix in (".npz", ".curve.csv"):
                a = checkpoint_path(first, "uav_count", value).with_suffix(suffix)
                b = checkpoint_path(trained, "uav_count", value).with_suffix(suffix)
                assert a.read_bytes() == b.read_bytes()

    def test_zero_energy_scale_exits_1_before_training(self, tmp_path, capsys):
        # the energy reward divides by the scale
        bad = tmp_path / "bad.cfg"
        bad.write_text("[reward]\nenergy_scale = 0\n")
        out = tmp_path / "out"
        assert main(["curves", "--config", str(bad), "--episodes", "1",
                     "--seeds", "0", "--out", str(out)]) == 1
        assert "energy_scale" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, named", [
        (["curves", "--episodes", "-3"], "--episodes"),
        (["curves", "--episodes", "0", "--seeds", "0"], "--episodes"),
        (["train", "--episodes", "-1"], "--episodes"),
        (["run", "--episodes", "0", "--train-first"], "--episodes"),
        (["run", "--workers", "0"], "--workers"),
        (["train", "--workers", "-2"], "--workers")])
    def test_bad_count_flag_exits_1(self, tmp_path, capsys, args, named):
        out = tmp_path / "out"
        assert main(args + ["--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()      # nothing trained or written

    def test_run_and_table_verbs(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("""
[scenario]
num_mds = 4
area_width = 800
area_height = 800
start = 0, 800
end = 800, 0
horizon_slots = 120
""")
        out = tmp_path / "res"
        rc = main(["run", "--config", str(cfg), "--methods", "greedy_offline",
                   "--axis", "uav_count", "--values", "1,2", "--seeds", "0",
                   "--out", str(out)])
        assert rc == 0
        assert (out / "results.csv").exists()
        assert main(["table", "--out", str(out)]) == 0
        assert (out / "comparison_table.csv").exists()

    def test_exponent_sweep_value_is_a_float(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("""
[scenario]
num_mds = 3
area_width = 600
area_height = 600
start = 0, 600
end = 600, 0
horizon_slots = 100
""")
        out = tmp_path / "res"
        assert main(["run", "--config", str(cfg), "--methods", "greedy_offline",
                     "--axis", "sinr_threshold", "--values", "1e1", "--seeds", "0",
                     "--out", str(out)]) == 0
        with open(out / "results.csv") as fh:
            (row,) = csv.DictReader(fh)
        assert (row["axis"], row["value"]) == ("sinr_threshold", "10.0")

    @pytest.mark.parametrize("args, named", [
        (["run", "--axis", "num_mds"], "invalid choice"),
        (["run", "--episodes", "x"], "invalid int value"),
        (["validate", "--nope"], "unrecognized arguments"),
        ([], "required")])
    def test_usage_error_exits_1(self, tmp_path, capsys, args, named):
        with pytest.raises(SystemExit) as exc:
            main(args + (["--out", str(tmp_path / "out")] if args else []))
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: uavisac") and named in err
        assert not (tmp_path / "out").exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        assert "--axis" in capsys.readouterr().out

    def test_run_unknown_method_exits_1(self, tmp_path):
        assert main(["run", "--methods", "nope", "--out",
                     str(tmp_path)]) == 1

    def test_runtime_value_error_exits_2(self, tmp_path, monkeypatch):
        def broken_cell(*args, **kwargs):
            raise ValueError("action mask violation: UAV 0 chose MD 3")

        monkeypatch.setattr("uavisac.harness.run_cells", broken_cell)
        assert main(["run", "--methods", "greedy_offline", "--values", "1",
                     "--seeds", "0", "--out", str(tmp_path)]) == 2

    def test_repeated_grid_entries_exit_1(self, tmp_path, capsys):
        assert main(["run", "--methods", "greedy_offline,greedy_offline",
                     "--values", "2,2", "--seeds", "0,0",
                     "--out", str(tmp_path)]) == 1
        assert "repeated methods" in capsys.readouterr().out
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("verb", ["run", "train", "curves"])
    @pytest.mark.parametrize("seeds, named", [
        ("", "seed list must not be empty"), ("0,0", "repeated seeds: [0]")])
    def test_empty_or_repeated_seeds_exit_1(self, tmp_path, capsys, verb,
                                            seeds, named):
        out = tmp_path / "out"
        args = [verb, "--seeds", seeds, "--out", str(out)]
        if verb != "curves":
            args += ["--methods", "greedy_offline"]
        assert main(args) == 1
        assert named in capsys.readouterr().out
        assert not out.exists()      # nothing trained or written

    def test_bad_seed_list_exits_1(self, tmp_path):
        assert main(["run", "--methods", "greedy_offline", "--seeds", "0,x",
                     "--out", str(tmp_path)]) == 1

    def test_table_without_results_exits_2(self, tmp_path):
        assert main(["table", "--out", str(tmp_path / "empty")]) == 2

    def test_env_var_output_root(self, tmp_path, monkeypatch):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("""
[scenario]
num_mds = 3
area_width = 600
area_height = 600
start = 0, 600
end = 600, 0
horizon_slots = 100
""")
        monkeypatch.setenv("UAVISAC_OUT", str(tmp_path / "envout"))
        rc = main(["run", "--config", str(cfg), "--methods", "greedy_offline",
                   "--axis", "uav_count", "--values", "1", "--seeds", "0"])
        assert rc == 0
        assert (tmp_path / "envout" / "results.csv").exists()
