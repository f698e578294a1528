"""The array-form transmit designs against a frozen copy of the per-link path.

The ``reference_*`` functions are the design path as it stood when every
link was built on its own: ``_case_design`` -> ``_finish_design`` ->
``extract_rank_one`` / ``_psd_clip`` -> ``_measure_design``, plus the
split-array loop. The array form runs the same IEEE operations per link
(numpy's stacked matmul, eigh and eigvalsh call the same kernels slice by
slice), so statuses, verdicts, Newton step counts and dual bounds must be
equal, and every matrix, beam, margin and residual must agree within 1e-12
relative. Here all of them are also bit-equal, and the tests assert that
too. Scoring a recorded trace after the episode, in blocks of slots, must
give what sweeping each slot as it was flown gives, and leave the rng in the
same state.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from test_isac_sdr import ANGLES, CERTIFY, GAMMA_LIN, NOISE_U, P_MAX, make_h_eff
from uavisac import isac_sdr, mdp_env
from uavisac.isac_sdr import (BEAM, CAP, DEEP, FEAS_TOL, NO_FLOOR, PSD_TOL,
                              SOLVE, VERIFY_TOL, ZERO, SdrOptions, SdrProblem,
                              _chain_gains, _link_ladder, _sinr_cap,
                              _solve_margin, link_feasibility_sweep,
                              link_reward, solve_feasibility, tbp_quadratic,
                              verify_design)
from uavisac.mdp_env import CorridorEnv, score_links
from uavisac.scenario import ScenarioConfig, build_scenario, rng_stream

REL = 1e-12


# -- frozen per-link path ------------------------------------------------------

def reference_herm(a):
    return 0.5 * (a + a.conj().T)


def reference_quadratic(r, phi):
    a = isac_sdr._steering(float(phi), r.shape[0])
    return float(np.real(a.conj() @ (r @ a)))


def reference_measure(r_comm, r_sens, problem):
    total = r_comm + r_sens
    slacks = [reference_quadratic(total, phi) - problem.tbp_threshold
              for phi in problem.angles]
    tbp_scale = max(abs(problem.tbp_threshold), 1e-300)
    tbp_res = np.array([slack / tbp_scale for slack in slacks])
    gamma_th = problem.gamma_th
    if gamma_th > 0:
        num = float(np.real(np.trace(r_comm @ problem.h_eff)))
        den = float(np.real(np.trace(r_sens @ problem.h_eff))) + problem.noise_uav
        slacks.append((num - gamma_th * den) / (gamma_th * problem.noise_uav))
        sinr_res = (num / den - gamma_th) / gamma_th
    else:
        sinr_res = 0.0
    power = float(np.real(np.trace(total)))
    power_res = (problem.p_max - power) / max(problem.p_max, 1e-300)
    psd_res = float(min(np.linalg.eigvalsh(reference_herm(r_comm))[0],
                        np.linalg.eigvalsh(reference_herm(r_sens))[0])
                    / max(power, 1.0e-30))
    passed = bool(tbp_res.min() >= -VERIFY_TOL and sinr_res >= -VERIFY_TOL
                  and power_res >= -VERIFY_TOL and psd_res >= -PSD_TOL)
    return float(min(slacks)), (tbp_res, float(sinr_res), float(power_res),
                                psd_res, passed)


def reference_psd_clip(r):
    r = reference_herm(r)
    w, v = np.linalg.eigh(r)
    if w[0] >= 0.0:
        return r
    return reference_herm((v * np.maximum(w, 0.0)) @ v.conj().T)


def reference_extract(r_total, g):
    gain = float(np.real(g.conj() @ (r_total @ g)))
    if gain <= 0.0:
        return np.zeros(len(g), dtype=complex), np.zeros_like(r_total), r_total
    w_c = (r_total @ g) / np.sqrt(gain)
    r_comm = np.outer(w_c, w_c.conj())
    return w_c, r_comm, reference_psd_clip(r_total - r_comm)


def reference_finish(r_total, g, problem, iterations, bound):
    if problem.gamma_th > 0.0:
        w_c, r_comm, r_sens = reference_extract(r_total, g)
    else:
        w_c = np.zeros(len(g), dtype=complex)
        r_comm, r_sens = np.zeros_like(r_total), r_total
    margin, report = reference_measure(r_comm, r_sens, problem)
    if margin >= -FEAS_TOL and report[-1]:
        status = "feasible"
    elif float(bound) < -FEAS_TOL:
        status = "infeasible"
    else:
        status = "numerical_failure"
    return SimpleNamespace(r_comm=r_comm, r_sens=r_sens, w_c=w_c, margin=margin,
                           solver_status=status, iterations=iterations,
                           dual_bound=float(bound), problem=problem)


def reference_case_design(case, bound, r_tbp, g, lead, problem, opts):
    iterations = 0
    if case == DEEP:
        r_total = problem.p_max * np.outer(g, g.conj()) / lead
    elif case == SOLVE:
        r_total, _, bound, iterations = _solve_margin(
            problem.angles, problem.tbp_threshold, problem.p_max, len(g),
            (g, problem.gamma_th * problem.noise_uav), opts)
    else:
        r_total = r_tbp
    return reference_finish(r_total, g, problem, iterations, bound)


def reference_isac_links(g, lead, scenario, opts):
    """Every link's design, one link at a time; returns (cases, designs)."""
    cfg = scenario.config
    case, bound, (r_tbp, _, _, _) = _link_ladder(
        g, lead, cfg.noise_uav, cfg.gamma_th_uav, cfg.tbp_threshold,
        cfg.sensing_angles, cfg.p_max, opts)
    designs = []
    for k in range(len(g)):
        problem = SdrProblem(
            h_eff=reference_herm(np.outer(g[k], g[k].conj())),
            noise_uav=cfg.noise_uav, gamma_th=cfg.gamma_th_uav,
            tbp_threshold=cfg.tbp_threshold, angles=cfg.sensing_angles,
            p_max=cfg.p_max)
        designs.append(reference_case_design(case[k], bound[k], r_tbp, g[k],
                                             lead[k], problem, opts))
    return case, designs


def reference_separated_links(g, lead, scenario):
    cfg = scenario.config
    margin = _sinr_cap(lead, cfg.noise_uav, cfg.gamma_th_uav, cfg.p_max)
    feasible = margin >= -FEAS_TOL
    w = np.sqrt(cfg.p_max) * g / np.sqrt(np.where(lead > 0, lead, np.inf))[:, None]
    return [SimpleNamespace(
        r_comm=np.outer(w[k], w[k].conj()),
        r_sens=np.zeros((cfg.n_antennas, cfg.n_antennas), dtype=complex),
        w_c=w[k], margin=float(margin[k]),
        solver_status="feasible" if feasible[k] else "infeasible",
        iterations=0, dual_bound=float(margin[k]), problem=SdrProblem(
            h_eff=np.outer(g[k], g[k].conj()), noise_uav=cfg.noise_uav,
            gamma_th=cfg.gamma_th_uav, tbp_threshold=0.0,
            angles=cfg.sensing_angles, p_max=cfg.p_max))
        for k in range(len(g))]


# -- comparisons -------------------------------------------------------------------

def assert_same(got, want):
    """Bit-equal arrays and floats (hence also within 1e-12 relative)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=REL, atol=0.0)
    assert np.array_equal(got, want, equal_nan=True)


def assert_same_design(got, want):
    assert got.solver_status == want.solver_status
    assert got.iterations == want.iterations
    assert got.dual_bound == want.dual_bound
    for name in ("r_comm", "r_sens", "w_c", "margin"):
        assert_same(getattr(got, name), getattr(want, name))
    assert replace(got.problem, h_eff=None) == replace(want.problem, h_eff=None)
    assert_same(got.problem.h_eff, want.problem.h_eff)
    report = verify_design(got, got.problem.h_eff, got.problem.noise_uav,
                           got.problem.gamma_th, got.problem.tbp_threshold,
                           got.problem.angles, got.problem.p_max)
    ref = reference_measure(np.asarray(want.r_comm), np.asarray(want.r_sens),
                            want.problem)[1]
    for got_res, want_res in zip((report.tbp_residuals, report.sinr_residual,
                                  report.power_residual, report.psd_residual,
                                  report.passed), ref):
        assert_same(got_res, want_res)


WORLD = build_scenario(ScenarioConfig(num_uavs=3, seed=0))
# chain link lengths from co-located (the 1 m clamp) to 5 km: beampattern-
# bound, Newton band, certify-cap and deep-deficit links
CHAIN_LINKS_M = ((0.0, 900.0), (150.0, 1400.0), (1430.0, 1460.0),
                 (1480.0, 1520.0), (1600.0, 1800.0), (2000.0, 2300.0),
                 (2600.0, 3000.0), (3500.0, 5000.0), (1440.0, 0.0))


def ladder_gains(scenario, seed):
    """g (N, L) and ||g||^2 (N,) of every CHAIN_LINKS_M link, drawn from one
    stream, plus a zero channel."""
    rng = rng_stream(seed, "design-reference")
    formations = []
    for k, (d1, d2) in enumerate(CHAIN_LINKS_M):
        p0 = np.array([300.0 + 40.0 * k, 2200.0 - 90.0 * k, 80.0])
        p1 = p0 + d1 * np.array([np.cos(0.7 * k), np.sin(0.7 * k), 0.0])
        formations.append(np.stack([p0, p1, p1 + d2 * np.array(
            [np.cos(-0.7 * k), np.sin(-0.7 * k), 0.0])]))
    g, lead = _chain_gains(np.stack(formations), scenario, rng)
    g = np.concatenate([g.reshape(-1, g.shape[-1]), np.zeros((1, g.shape[-1]))])
    return g, np.append(lead.ravel(), 0.0)


WORLDS = {"reference": WORLD,
          "no_floor": replace(WORLD, config=replace(WORLD.config, gamma_th_uav=0.0))}


class TestArrayDesigns:
    @pytest.mark.parametrize("world", sorted(WORLDS))
    @pytest.mark.parametrize("opts", [SdrOptions(), CERTIFY], ids=["full", "certify"])
    def test_isac_links_match_per_link_designs(self, world, opts):
        scenario = WORLDS[world]
        cases = set()
        for seed in range(3):
            g, lead = ladder_gains(scenario, seed)
            case, want = reference_isac_links(g, lead, scenario, opts)
            feasible, got = isac_sdr._isac_links(g, lead, scenario, opts, True)
            bare, solved = isac_sdr._isac_links(g, lead, scenario, opts, False)
            assert len(got) == len(want) == len(g)
            for des, ref in zip(got, want):
                assert_same_design(des, ref)
            assert list(feasible) == list(bare) == [
                d.solver_status == "feasible" for d in want]
            for des, k in zip(solved, np.flatnonzero(case == SOLVE)):
                assert_same_design(des, want[k])
            cases |= set(case.tolist())
        if world == "no_floor":
            assert cases == {NO_FLOOR}
        else:
            wanted = {ZERO, BEAM, DEEP, SOLVE} | ({CAP} if opts.certify_only else set())
            assert cases == wanted

    def test_separated_links_match_per_link_designs(self):
        for seed in range(3):
            g, lead = ladder_gains(WORLD, seed)
            want = reference_separated_links(g, lead, WORLD)
            feasible, got = isac_sdr._separated_links(g, lead, WORLD, True)
            assert list(feasible) == [d.solver_status == "feasible" for d in want]
            for des, ref in zip(got, want):
                for name in ("solver_status", "iterations", "dual_bound", "margin"):
                    assert getattr(des, name) == getattr(ref, name)
                for name in ("r_comm", "r_sens", "w_c"):
                    assert_same(getattr(des, name), getattr(ref, name))
                assert replace(des.problem, h_eff=None) == replace(ref.problem, h_eff=None)
                assert_same(des.problem.h_eff, ref.problem.h_eff)

    @pytest.mark.parametrize("kw", [{}, dict(gamma_lin=0.0), dict(p_max=0.0)],
                             ids=["floor", "no_floor", "no_power"])
    @pytest.mark.parametrize("opts", [SdrOptions(), CERTIFY], ids=["full", "certify"])
    def test_solve_feasibility_matches_per_link_path(self, kw, opts):
        gam = kw.get("gamma_lin", 10 ** 0.8)
        p_max = kw.get("p_max", P_MAX)
        for dist in (200.0, 1000.0, 1450.0, 1500.0, 1700.0, 2500.0, 5000.0):
            h_eff = reference_herm(make_h_eff(dist, seed=1, label="parity"))
            problem = SdrProblem(h_eff=h_eff, noise_uav=NOISE_U, gamma_th=gam,
                                 tbp_threshold=GAMMA_LIN, angles=ANGLES,
                                 p_max=p_max)
            w, v = np.linalg.eigh(h_eff)
            g = v[:, -1] * np.sqrt(max(float(w[-1]), 0.0))
            if p_max <= 0.0:
                zero = np.zeros_like(h_eff)
                want = reference_finish(zero, g, problem, 0,
                                        reference_measure(zero, zero, problem)[0])
            else:
                case, bound, tbp = _link_ladder(
                    g[None], np.array([float(w[-1])]), NOISE_U, gam, GAMMA_LIN,
                    ANGLES, p_max, opts)
                want = reference_case_design(case[0], bound[0], tbp[0], g,
                                             float(w[-1]), problem, opts)
            got = solve_feasibility(h_eff, NOISE_U, gam, GAMMA_LIN, ANGLES,
                                    p_max, opts)
            assert_same_design(got, want)

    def test_extract_rank_one_of_a_stack_is_per_link(self):
        rng = rng_stream(20, "rank1-stack")
        x = rng.standard_normal((9, 12, 4)) + 1j * rng.standard_normal((9, 12, 4))
        r_total = 0.01 * x @ x.conj().swapaxes(-1, -2)
        g = rng.standard_normal((9, 12)) + 1j * rng.standard_normal((9, 12))
        g[4] = 0.0                      # no gain: the whole covariance senses
        r_total[6] -= 0.5 * np.eye(12)  # an indefinite residual gets clipped
        stacked = isac_sdr.extract_rank_one(r_total, g)
        for k in range(len(g)):
            for got, want in zip(stacked, reference_extract(r_total[k], g[k])):
                assert_same(got[k], want)

    def test_tbp_quadratic_of_a_stack_is_per_matrix(self):
        rng = rng_stream(21, "quad-stack")
        x = rng.standard_normal((5, 12, 12)) + 1j * rng.standard_normal((5, 12, 12))
        r = x @ x.conj().swapaxes(-1, -2)
        for phi in ANGLES:
            assert_same(tbp_quadratic(r, phi),
                        [reference_quadratic(r[k], phi) for k in range(len(r))])


def block_flight(n_slots, seed):
    """``n_slots`` random 3-UAV formations over a 3 km square, (S, 3, 3)."""
    rng = rng_stream(seed, "score-trace")
    return np.stack([np.column_stack(
        [rng.uniform(0.0, 3000.0, (3, 2)), np.full(3, 80.0)])
        for _ in range(n_slots)])


def scoring_env(world, opts, positions):
    """An env that flew one slot per formation of ``positions``."""
    env = CorridorEnv(world, sdr_opts=opts)
    env.reset(0)
    env.flight.final[:len(positions)] = positions
    env.state.slot = len(positions)
    return env


def opened_streams(monkeypatch):
    """The rng streams that score_links opens, in order."""
    streams = []

    def opened(*args):
        streams.append(rng_stream(*args))
        return streams[-1]

    monkeypatch.setattr(mdp_env, "rng_stream", opened)
    return streams


class TestPostFlightScoring:
    @pytest.mark.parametrize("n_slots", [1, mdp_env._BLOCK, mdp_env._BLOCK + 1])
    @pytest.mark.parametrize("mode", ["full", "certify", "separated"])
    def test_blocks_match_slot_by_slot(self, n_slots, mode, monkeypatch):
        opts = SdrOptions() if mode == "full" else CERTIFY
        separated = mode == "separated"
        positions = block_flight(n_slots, n_slots)
        env = scoring_env(WORLD, opts, positions)
        streams = opened_streams(monkeypatch)
        qos, designs = score_links(env, 7, separated, build=True)
        (rng,), ref_rng = streams, rng_stream(7, "env-channel")
        r = env.reward_cfg
        statuses = set()
        assert len(qos) == n_slots and len(designs) == 2 * n_slots
        for k, formation in enumerate(positions):
            verdict, want = link_feasibility_sweep(formation, WORLD, ref_rng,
                                                   opts, separated)
            slot_designs = designs[2 * k:2 * k + 2]
            assert len(want) == 2
            assert [d.feasible for d in slot_designs] == list(verdict)
            assert qos[k] == link_reward(verdict, r.link_pass, r.link_fail)
            for des, ref in zip(slot_designs, want):
                assert_same_design(des, ref)
                statuses.add(des.solver_status)
        assert rng.random() == ref_rng.random()
        if n_slots > 1:
            assert statuses == {"feasible", "infeasible"}

    def test_one_uav_scores_no_links_and_draws_nothing(self, monkeypatch):
        solo = build_scenario(ScenarioConfig(num_uavs=1, seed=0))
        env = scoring_env(solo, CERTIFY, np.array(
            [[[10.0 * k, 0.0, 80.0]] for k in range(3)]))
        streams = opened_streams(monkeypatch)
        qos, designs = score_links(env, 8, False, build=True)
        assert designs == []
        assert qos.tolist() == [0.0, 0.0, 0.0]
        (rng,) = streams
        assert rng.random() == rng_stream(8, "env-channel").random()
