from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from uavisac import isac_sdr
from uavisac.channel import (effective_channel, sample_rician_channel,
                             steering_vector, tbp_gain)
from uavisac.isac_sdr import (FEAS_TOL, PSD_TOL, VERIFY_TOL, SdrOptions,
                              SdrProblem, TransmitDesign, _finish_designs,
                              _herm, _measure_design, _newton_margin,
                              _tbp_only_design, extract_rank_one,
                              link_feasibility_sweep, solve_feasibility,
                              tbp_quadratic, verify_design)
from uavisac.mdp_env import (CorridorEnv, JointAction, reward_terms,
                             run_episode, score_links)
from uavisac.scenario import ScenarioConfig, build_scenario, rng_stream

L = 12
P_MAX = 0.1
GAMMA_LIN = 10 ** (-4 / 10)          # sensing floor, -4 dB
NOISE_U = 10 ** ((-94 - 30) / 10)    # -94 dBm
ANGLES = tuple(np.deg2rad((-10.0, 0.0, 10.0)))
COMBINER = np.ones(L, dtype=complex) / np.sqrt(L)


def make_h_eff(dist, seed=0, rician_k=10.0, label="sdr-test"):
    rng = rng_stream(seed, label)
    h = sample_rician_channel((0, 0, 80), (dist, 0, 80), rician_k, 1e-6, L, rng)
    return effective_channel(h, COMBINER)


def solve(h_eff, gamma_db=8.0, gamma_lin=None, tbp=GAMMA_LIN, p_max=P_MAX,
          angles=ANGLES, opts=SdrOptions()):
    gam = 10 ** (gamma_db / 10) if gamma_lin is None else gamma_lin
    return solve_feasibility(h_eff, NOISE_U, gam, tbp, angles, p_max, opts)


def links_of(*stacks):
    """Each link's design of the design stacks, in order, by take(k); a None
    stack holds no link."""
    return [stack.take(k) for stack in stacks if stack is not None
            for k in range(len(stack.margin))]


class TestSolveFeasibility:
    @pytest.mark.parametrize("kw", [dict(gamma_lin=0.0), dict(gamma_lin=-1.0),
                                    dict(gamma_lin=np.nan), dict(p_max=0.0),
                                    dict(p_max=-0.1)])
    def test_needs_a_positive_sinr_floor_and_budget(self, kw):
        with pytest.raises(ValueError, match="must be positive"):
            solve(make_h_eff(100), **kw)

    def test_table_scale_instance_feasible_and_verified(self):
        h_eff = make_h_eff(100)
        des = solve(h_eff, gamma_db=8.0)
        assert des.solver_status == "feasible"
        report = verify_design(des, h_eff, NOISE_U, 10 ** 0.8, GAMMA_LIN,
                               ANGLES, P_MAX)
        assert report.passed

    def test_design_invariants(self):
        des = solve(make_h_eff(400, seed=3))
        total = np.real(np.trace(des.r_comm) + np.trace(des.r_sens))
        assert total <= P_MAX + 1e-6
        assert np.linalg.eigvalsh(des.r_comm)[0] >= -1e-8
        assert np.linalg.eigvalsh(des.r_sens)[0] >= -1e-8
        w_outer = np.outer(des.w_c, des.w_c.conj())
        assert np.linalg.norm(w_outer - des.r_comm) <= 1e-8 * max(1.0, np.linalg.norm(des.r_comm))

    def test_zero_channel_cannot_carry_data(self):
        des = solve(np.zeros((L, L)), gamma_db=8.0)
        assert des.solver_status == "infeasible"

    def test_soundness_over_seeded_instances(self):
        # no design flagged feasible may fail the independent constraint check
        for seed in range(60):
            rng = rng_stream(seed, "sound")
            dist = float(rng.uniform(20, 3000))
            gam_db = float(rng.uniform(0, 14))
            h_eff = make_h_eff(dist, seed=seed, label="sound-ch")
            des = solve(h_eff, gamma_db=gam_db)
            if des.solver_status == "feasible":
                rep = verify_design(des, h_eff, NOISE_U, 10 ** (gam_db / 10),
                                    GAMMA_LIN, ANGLES, P_MAX)
                assert rep.passed, f"false positive at seed {seed}"

    def test_hand_built_feasible_point_detected(self):
        # an explicit rank-one pair that passes verification must be found
        h_eff = make_h_eff(150, seed=1, rician_k=1e6)
        a = [steering_vector(phi, L) / np.sqrt(L) for phi in ANGLES]
        w = np.sqrt(P_MAX / 3) * a[1]
        r_s = (P_MAX / 3) * (np.outer(a[0], a[0].conj()) + np.outer(a[2], a[2].conj()))
        hand = TransmitDesign(r_comm=np.outer(w, w.conj()), r_sens=r_s, w_c=w,
                              margin=0.0, solver_status="pending")
        rep = verify_design(hand, h_eff, NOISE_U, 10 ** 0.8, GAMMA_LIN, ANGLES, P_MAX)
        assert rep.passed  # the construction is feasible...
        des = solve(h_eff, gamma_db=8.0)
        assert des.solver_status == "feasible"  # ...so the solver must agree

    def test_margin_monotone_in_power_budget(self):
        h_eff = make_h_eff(1500, seed=2)
        margins = [solve(h_eff, gamma_db=10.0, p_max=p).margin
                   for p in (0.02, 0.05, 0.1, 0.2, 0.4)]
        assert all(b >= a - 1e-6 for a, b in zip(margins, margins[1:]))

    def test_margin_monotone_in_tbp_floor(self):
        h_eff = make_h_eff(300, seed=4)
        margins = [solve(h_eff, gamma_db=8.0, tbp=g).margin
                   for g in (0.1, 0.2, 0.4, 0.6)]
        assert all(b <= a + 1e-6 for a, b in zip(margins, margins[1:]))

    def test_margin_monotone_in_sinr_floor(self):
        h_eff = make_h_eff(1200, seed=5)
        margins = [solve(h_eff, gamma_db=db).margin
                   for db in (4.0, 8.0, 11.0, 14.0)]
        assert all(b <= a + 1e-6 for a, b in zip(margins, margins[1:]))

    def test_certify_only_agrees_on_decisions(self):
        fast = SdrOptions(certify_only=True, gap_tol=1e-5)
        for seed, dist, gdb in [(0, 100, 8.0), (1, 2000, 8.0), (2, 1200, 14.0),
                                (3, 500, 11.0), (4, 3000, 6.0)]:
            h_eff = make_h_eff(dist, seed=seed, label="fastdec")
            full = solve(h_eff, gamma_db=gdb)
            quick = solve(h_eff, gamma_db=gdb, opts=fast)
            assert full.solver_status == quick.solver_status


class TestVerifyDesign:
    def test_all_zero_design_fails_each_angle(self):
        zero = np.zeros((L, L))
        des = TransmitDesign(r_comm=zero, r_sens=zero, w_c=np.zeros(L),
                             margin=0.0, solver_status="pending")
        rep = verify_design(des, make_h_eff(100), NOISE_U, 0.0, GAMMA_LIN,
                            ANGLES, P_MAX)
        assert not rep.passed
        # the gain deficit at every angle is the full floor
        assert np.allclose(rep.tbp_residuals, -1.0)

    def test_isotropic_sensing_only_passes_without_sinr(self):
        des = TransmitDesign(r_comm=np.zeros((L, L)),
                             r_sens=(P_MAX / L) * np.eye(L),
                             w_c=np.zeros(L), margin=0.0, solver_status="pending")
        rep = verify_design(des, make_h_eff(100), NOISE_U, 0.0, 0.05, ANGLES, P_MAX)
        assert rep.passed
        assert rep.power_residual >= -1e-12

    def test_solver_feasible_always_passes(self):
        for seed in range(10):
            h_eff = make_h_eff(float(50 + 100 * seed), seed=seed, label="vd")
            des = solve(h_eff)
            if des.feasible:
                rep = verify_design(des, h_eff, NOISE_U, 10 ** 0.8, GAMMA_LIN,
                                    ANGLES, P_MAX)
                assert rep.passed


class TestIsotropicIdentity:
    def test_gain_equals_budget_at_sensing_angles(self):
        r_s = (P_MAX / L) * np.eye(L)
        for phi in ANGLES:
            assert tbp_gain(r_s, phi) == pytest.approx(P_MAX, rel=1e-12)


class TestExtractRankOne:
    def test_split_keeps_total_and_hides_residual(self):
        rng = rng_stream(20, "rank1")
        x = rng.standard_normal((L, 4)) + 1j * rng.standard_normal((L, 4))
        r_total = 0.01 * x @ x.conj().T
        g = rng.standard_normal(L) + 1j * rng.standard_normal(L)
        w_c, r_comm, r_sens = extract_rank_one(r_total, g)
        assert np.allclose(r_comm, np.outer(w_c, w_c.conj()), atol=1e-15)
        assert np.allclose(r_comm + r_sens, r_total, atol=1e-14)
        assert np.linalg.eigvalsh(r_sens)[0] >= -1e-15
        # the receiver sees the whole gain through the beam, none through r_sens
        assert abs(g.conj() @ r_sens @ g) <= 1e-12 * abs(g.conj() @ r_total @ g)

    def test_solver_outputs_survive_extraction(self):
        for seed in range(100):
            rng = rng_stream(seed, "extract")
            dist = float(rng.uniform(50, 1500))
            h_eff = make_h_eff(dist, seed=seed, label="extract-ch")
            des = solve(h_eff)
            if not des.feasible:
                continue
            w_outer = np.outer(des.w_c, des.w_c.conj())
            assert np.linalg.norm(w_outer - des.r_comm) <= \
                1e-12 * max(1.0, np.linalg.norm(des.r_comm)), f"seed {seed}"
            rep = verify_design(des, h_eff, NOISE_U, 10 ** 0.8, GAMMA_LIN,
                                ANGLES, P_MAX)
            assert rep.passed, f"extraction broke feasibility at seed {seed}"


CERTIFY = SdrOptions(certify_only=True)   # the env's options
LADDER_M = (200.0, 1000.0, 1400.0, 1500.0, 1700.0, 2500.0, 5000.0)


def span_projector(vectors):
    u = np.stack(vectors, axis=1)
    u = u / np.linalg.norm(u, axis=0)
    left, sv, _ = np.linalg.svd(u, full_matrices=False)
    q = left[:, sv > sv[0] * max(u.shape) * np.finfo(float).eps]
    return q @ q.conj().T, q.shape[1]


def full_space_rows(h, gam):
    """The margin program of the link solve for a Hermitian h_eff, on the
    uncompressed L x L rows: (rows, dn, cn) as _newton_margin takes them."""
    scale = gam * NOISE_U
    mats = [np.outer(steering_vector(phi, L), steering_vector(phi, L).conj())
            for phi in ANGLES] + [h]
    ds = np.array([1.0] * len(ANGLES) + [scale])
    cs = np.array([GAMMA_LIN] * len(ANGLES) + [scale])
    norms = np.sqrt(np.array([np.linalg.norm(m) ** 2 for m in mats]) + ds ** 2)
    return np.stack(mats) / norms[:, None, None], ds / norms, cs / norms


def full_space_design(h_eff, gam, opts):
    """The link solve of solve_feasibility, run on the uncompressed L x L rows."""
    h = _herm(np.asarray(h_eff, dtype=complex))
    w, v = np.linalg.eigh(h)
    g = v[:, -1] * np.sqrt(float(w[-1]))
    r, _, bound, iters = _newton_margin(*full_space_rows(h, gam), P_MAX, opts)
    problem = SdrProblem(h_eff=h, noise_uav=NOISE_U, gamma_th=gam,
                         tbp_threshold=GAMMA_LIN, angles=ANGLES, p_max=P_MAX)
    return _finish_designs(_herm(r)[None], g[None],
                           replace(problem, h_eff=h[None]), np.array([iters]),
                           np.array([bound])).take(0), g


class TestSubspaceSolve:
    """The (K+1)-dimensional solve agrees with a solve on the full rows."""

    def check_parity(self, h_eff, opts, gamma_db=8.0):
        """Compare one solve with its full-space run; return the rank of S,
        or None when a shortcut answered and no Newton solve ran."""
        gam = 10 ** (gamma_db / 10)
        des = solve(h_eff, gamma_db=gamma_db, opts=opts)
        if des.iterations == 0:
            return None
        ref, g = full_space_design(h_eff, gam, opts)
        assert des.solver_status == ref.solver_status
        if not opts.certify_only:
            # both runs stop within the gap of the same optimum
            assert abs(des.margin - ref.margin) <= \
                opts.gap_tol * (1.0 + abs(des.margin))
        proj, rank = span_projector(
            [steering_vector(phi, L) for phi in ANGLES] + [g])
        total = des.r_comm + des.r_sens
        assert np.linalg.norm(proj @ total @ proj - total) <= \
            1e-12 * np.linalg.norm(total)
        return rank

    @pytest.mark.parametrize("mode,seed", [("full", 0), ("full", 2),
                                           ("certify", 0), ("certify", 1),
                                           ("certify", 2)])
    def test_ladder_matches_full_space(self, mode, seed):
        opts = SdrOptions() if mode == "full" else CERTIFY
        ran = 0
        for dist in LADDER_M:
            rank = self.check_parity(
                make_h_eff(dist, seed=seed, label="parity"), opts)
            ran += rank is not None
        assert ran >= 2     # the ladder crosses the band where the solver runs

    @pytest.mark.parametrize("opts", [SdrOptions(), CERTIFY])
    def test_channel_inside_beampattern_span(self, opts):
        # a pure line-of-sight channel along broadside: g is a multiple of
        # a(0), so the basis of span{a(phi_k), g} has rank K, not K + 1
        h_eff = make_h_eff(1500.0, seed=0, rician_k=1e40, label="parity")
        assert self.check_parity(h_eff, opts) == len(ANGLES)


# statuses of the former first-order (PDHG) solver, 20 000-iteration cap,
# check every 50, on make_h_eff(d, seed, label="ladder") at the rungs below:
# f = feasible, i = infeasible
TABLE_M = ((200.0, 600.0, 1000.0) + tuple(1300.0 + 30.0 * k for k in range(15))
           + (2000.0, 3000.0, 5000.0))
FIRST_ORDER_STATUSES = {
    (0, "full"): "ffffffffffiiiiiiiiiii", (0, "certify"): "ffffffffffiiiiiiiiiii",
    (1, "full"): "ffffffffiiiiiiiiiiiii", (1, "certify"): "ffffffffiiiiiiiiiiiii",
    (2, "full"): "ffffffffffiiiiiiiiiii", (2, "certify"): "ffffffffffiiiiiiiiiii",
}


@lru_cache(maxsize=None)
def table_ladder(seed, mode):
    opts = SdrOptions() if mode == "full" else CERTIFY
    return tuple(solve(make_h_eff(d, seed=seed, label="ladder"), opts=opts)
                 for d in TABLE_M)


class TestNewtonSolve:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("mode", ["full", "certify"])
    def test_statuses_match_first_order_solver(self, seed, mode):
        statuses = "".join(d.solver_status[0] for d in table_ladder(seed, mode))
        assert statuses == FIRST_ORDER_STATUSES[seed, mode]

    @pytest.mark.parametrize("seed", range(3))
    def test_certify_only_never_reads_gap_tol(self, seed):
        loose = SdrOptions(certify_only=True, gap_tol=1e-5)
        for d, des in zip(TABLE_M, table_ladder(seed, "certify")):
            other = solve(make_h_eff(d, seed=seed, label="ladder"), opts=loose)
            assert (other.solver_status, other.iterations, other.margin,
                    other.dual_bound) == (des.solver_status, des.iterations,
                                          des.margin, des.dual_bound), d

    @pytest.mark.parametrize("seed", range(3))
    def test_full_mode_band_solves_converge(self, seed):
        # the first-order solver stopped at its iteration cap on one rung of
        # each of these ladders, with a gap up to 1.4e4 times the tolerance
        tol = SdrOptions().gap_tol
        band = [d for d in table_ladder(seed, "full") if d.iterations > 0]
        assert len(band) >= 10
        for des in band:
            assert des.dual_bound - des.margin <= tol * (1.0 + abs(des.margin))

    @pytest.mark.parametrize("opts", [SdrOptions(), CERTIFY,
                                      SdrOptions(gap_tol=0.0)])
    def test_degenerate_inputs_return_a_status(self, opts):
        # gap_tol=0 never converges: tau grows until the slacks run out of
        # precision, where a solve must still end with a status
        cases = [(make_h_eff(d, seed=0, rician_k=1e40, label="parity"), {})
                 for d in (200.0, 1500.0, 2500.0, 5000.0)]
        cases += [(make_h_eff(d, seed=s), {}) for d in (200.0, 5000.0)
                  for s in range(3)]
        # scaling p_max and both floors together keeps the band instance on
        # the link-solve path, with a covariance 1e-12 or 1e-30 times smaller
        cases += [(make_h_eff(1500.0, seed=0), dict(p_max=P_MAX * k,
                                                    tbp=GAMMA_LIN * k,
                                                    gamma_lin=10 ** 0.8 * k))
                  for k in (1e-12, 1e-30)]
        lo, hi = 1300.0, 1600.0          # bracket the feasibility boundary
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            des = solve(make_h_eff(mid, seed=0), opts=opts)
            assert des.solver_status in ("feasible", "infeasible",
                                         "numerical_failure")
            lo, hi = (mid, hi) if des.feasible else (lo, mid)
        assert 1300.0 < lo < hi < 1600.0
        cases += [(make_h_eff(d, seed=0), {}) for d in (lo, hi)]
        for h_eff, kw in cases:
            des = solve(h_eff, opts=opts, **kw)
            assert des.solver_status in ("feasible", "infeasible",
                                         "numerical_failure")
            assert des.iterations <= opts.max_iter

    def test_certify_only_matches_full_at_the_boundary(self):
        # bisect onto the feasibility boundary, where certify-only mode used
        # to stop on its own gap before either certificate held
        lo, hi = 1300.0, 1600.0
        for _ in range(34):
            mid = 0.5 * (lo + hi)
            h_eff = make_h_eff(mid, seed=0)
            full, cert = solve(h_eff), solve(h_eff, opts=CERTIFY)
            assert cert.solver_status != "numerical_failure", mid
            assert cert.solver_status == full.solver_status, mid
            lo, hi = (mid, hi) if full.feasible else (lo, mid)
        assert hi - lo < 1e-6

    @pytest.mark.parametrize("opts", [SdrOptions(), CERTIFY])
    def test_small_gap_without_a_certificate_is_not_infeasible(self, opts):
        # a converged gap once let this instance through as "infeasible"
        # (margin -1.04e-7, bound -5.6e-8); stepping on until a certificate
        # holds finds a margin above the slack
        des = solve(make_h_eff(1477.641487121582, seed=0), opts=opts)
        assert des.solver_status == "feasible"
        assert des.margin >= -FEAS_TOL

    def test_infeasible_needs_the_dual_bound(self):
        # the isotropic design misses a beampattern floor p_max + 2e-7 by
        # exactly 2e-7 and clears the SINR floor by far; only a bound below
        # -FEAS_TOL may call that infeasible
        r = np.eye(L, dtype=complex) * (P_MAX / L)
        g = np.full(L, 1e-3, dtype=complex)
        problem = SdrProblem(h_eff=_herm(np.outer(g, g.conj()))[None],
                             noise_uav=NOISE_U, gamma_th=10 ** 0.8,
                             tbp_threshold=P_MAX + 2e-7, angles=ANGLES,
                             p_max=P_MAX)

        def finish(bound):
            return _finish_designs(r[None], g[None], problem, np.zeros(1, int),
                                   np.array([bound])).take(0)

        near = finish(-0.5 * FEAS_TOL)
        assert near.margin == pytest.approx(-2e-7, rel=1e-6)
        assert near.solver_status == "numerical_failure"
        assert finish(-1.5 * FEAS_TOL).solver_status == "infeasible"

    def test_beampattern_design_ignores_caller_options(self):
        # the link-independent design is cached for the whole process, so
        # the first caller's options must not decide every later solve
        links = [make_h_eff(d, seed=s) for s in range(3)
                 for d in (200.0, 600.0, 1000.0, 1400.0)]
        try:
            _tbp_only_design.cache_clear()
            fresh = [solve(h_eff).solver_status for h_eff in links]
            _tbp_only_design.cache_clear()
            solve(make_h_eff(200.0, seed=0), opts=SdrOptions(max_iter=1))
            after = [solve(h_eff).solver_status for h_eff in links]
        finally:
            _tbp_only_design.cache_clear()
        assert fresh == ["feasible"] * len(links)
        assert after == fresh


def pair_margin_oracle(r_comm, r_sens, problem):
    """Worst slack of a design in the margin program's units, measured on
    its own (the solver's margin before the shared measurement pass)."""
    total = r_comm + r_sens
    slacks = [tbp_quadratic(total, phi) - problem.tbp_threshold
              for phi in problem.angles]
    if problem.gamma_th > 0:
        num = float(np.real(np.trace(r_comm @ problem.h_eff)))
        den = float(np.real(np.trace(r_sens @ problem.h_eff))) + problem.noise_uav
        scale = problem.gamma_th * problem.noise_uav
        slacks.append((num - problem.gamma_th * den) / scale)
    return float(min(slacks))


def verify_oracle(design, h_eff, noise_uav, gamma_th, tbp_threshold, angles,
                  p_max):
    """verify_design written out on its own, residual by residual."""
    r_comm, r_sens = np.asarray(design.r_comm), np.asarray(design.r_sens)
    total = r_comm + r_sens
    tbp_scale = max(abs(tbp_threshold), 1e-300)
    tbp_res = np.array([(tbp_quadratic(total, phi) - tbp_threshold) / tbp_scale
                        for phi in angles])
    sinr_res = 0.0
    if gamma_th > 0:
        num = float(np.real(np.trace(r_comm @ h_eff)))
        den = float(np.real(np.trace(r_sens @ h_eff))) + noise_uav
        sinr_res = (num / den - gamma_th) / gamma_th
    power = float(np.real(np.trace(total)))
    power_res = (p_max - power) / max(p_max, 1e-300)
    scale = max(float(np.real(np.trace(total))), 1.0e-30)
    psd_res = float(min(np.linalg.eigvalsh(_herm(r_comm))[0],
                        np.linalg.eigvalsh(_herm(r_sens))[0]) / scale)
    passed = bool(tbp_res.min() >= -VERIFY_TOL and sinr_res >= -VERIFY_TOL
                  and power_res >= -VERIFY_TOL and psd_res >= -PSD_TOL)
    return tbp_res, float(sinr_res), float(power_res), psd_res, passed


class TestDesignMeasurement:
    """One measurement pass gives the solver's margin and its verify report."""

    def check(self, des, h_eff, gam, tbp=GAMMA_LIN, p_max=P_MAX):
        margin, report = _measure_design(des.r_comm, des.r_sens, des.problem)
        assert des.margin == margin
        assert des.margin == pair_margin_oracle(des.r_comm, des.r_sens,
                                                des.problem)
        expected = verify_oracle(des, h_eff, NOISE_U, gam, tbp, ANGLES, p_max)
        for rep in (report, verify_design(des, h_eff, NOISE_U, gam, tbp,
                                          ANGLES, p_max)):
            assert np.array_equal(rep.tbp_residuals, expected[0])
            assert (rep.sinr_residual, rep.power_residual, rep.psd_residual,
                    rep.passed) == expected[1:]
        return des.solver_status

    def test_seeded_instances(self):
        statuses = set()
        for seed in range(100):
            rng = rng_stream(seed, "extract")
            dist = float(rng.uniform(50, 1500))
            h_eff = make_h_eff(dist, seed=seed, label="extract-ch")
            statuses.add(self.check(solve(h_eff), h_eff, 10 ** 0.8))
        assert statuses == {"feasible", "infeasible"}

    def test_ladder_branches(self):
        # beampattern-bound, solver and deep-deficit rungs in certify-only mode
        for dist in LADDER_M:
            h_eff = make_h_eff(dist, seed=1, label="parity")
            self.check(solve(h_eff, opts=CERTIFY), h_eff, 10 ** 0.8)


class TestLinkSweep:
    def setup_method(self):
        self.scenario = build_scenario(ScenarioConfig(num_uavs=3, seed=0))

    def test_single_uav_neutral(self):
        solo = build_scenario(ScenarioConfig(num_uavs=1, seed=0))
        feasible, designs = link_feasibility_sweep(
            np.array([[0.0, 2500.0, 80.0]]), solo, rng_stream(0, "sweep"))
        assert designs is None
        assert feasible.shape == (0,)

    def test_all_links_feasible_aggregation(self):
        pos = np.array([[0.0, 2500.0, 80.0], [150.0, 2400.0, 80.0],
                        [280.0, 2300.0, 80.0]])
        _, stack = link_feasibility_sweep(pos, self.scenario,
                                          rng_stream(1, "sweep"))
        designs = links_of(stack)
        assert len(designs) == 2
        assert all(d.feasible for d in designs)

    def test_margin_no_larger_at_longer_range(self):
        near = np.array([[0.0, 0.0, 80.0], [100.0, 0.0, 80.0]])
        far = np.array([[0.0, 0.0, 80.0], [2000.0, 0.0, 80.0]])
        two = build_scenario(ScenarioConfig(num_uavs=2, seed=0))
        _, d_near = link_feasibility_sweep(near, two, rng_stream(5, "dist"))
        _, d_far = link_feasibility_sweep(far, two, rng_stream(5, "dist"))
        assert d_far.take(0).margin <= d_near.take(0).margin + 1e-9

    def chain_draws(self, pos, seed):
        """The sweeps' channels, drawn here in chain order from the same rng."""
        cfg = self.scenario.config
        rng = rng_stream(seed, "sweep")
        return [sample_rician_channel(pos[m], pos[m + 1], cfg.rician_k,
                                      cfg.beta_ref, cfg.n_antennas, rng)
                for m in range(len(pos) - 1)]

    def test_separated_margin_is_matched_filter_snr(self):
        pos = np.array([[0.0, 2500.0, 80.0], [150.0, 2400.0, 80.0],
                        [3150.0, 2400.0, 80.0]])
        cfg = self.scenario.config
        _, stack = link_feasibility_sweep(
            pos, self.scenario, rng_stream(2, "sweep"), separated=True)
        designs = links_of(stack)
        scale = cfg.gamma_th_uav * cfg.noise_uav
        for des, h in zip(designs, self.chain_draws(pos, 2)):
            g = h.conj().T @ self.scenario.rx_combiner
            expected = (cfg.p_max * np.linalg.norm(g) ** 2 - scale) / scale
            assert des.margin == pytest.approx(expected, rel=1e-12)
        assert [d.feasible for d in designs] == [True, False]

    def test_separated_feasible_iff_margin_clears_tolerance(self):
        cfg = self.scenario.config
        statuses = set()
        for seed, gap in enumerate((1000.0, 2000.0, 3000.0, 5000.0)):
            # chain links from 100 m to 5 km, both sides of the SINR floor
            pos = np.array([[0.0, 0.0, 80.0], [100.0, 0.0, 80.0],
                            [100.0 + gap, 0.0, 80.0]])
            _, stack = link_feasibility_sweep(
                pos, self.scenario, rng_stream(seed, "sweep"), separated=True)
            for des in links_of(stack):
                assert des.feasible == (des.margin >= -FEAS_TOL)
                assert des.feasible == (des.solver_status == "feasible")
                w_gain = np.linalg.norm(des.w_c) ** 2
                assert w_gain == pytest.approx(cfg.p_max, rel=1e-12)
                statuses.add(des.solver_status)
        assert statuses == {"feasible", "infeasible"}

    def test_both_link_modes_see_the_same_channel(self):
        # the first pair is co-located, so the 1 m clamp is drawn too
        pos = np.array([[0.0, 2500.0, 80.0], [0.0, 2500.0, 80.0],
                        [900.0, 2300.0, 80.0]])
        _, isac = link_feasibility_sweep(pos, self.scenario,
                                         rng_stream(7, "sweep"))
        _, split = link_feasibility_sweep(pos, self.scenario,
                                          rng_stream(7, "sweep"), separated=True)
        assert len(links_of(isac)) == len(links_of(split)) == 2
        for a, b in zip(links_of(isac), links_of(split)):
            # solve_feasibility keeps the Hermitian part of g g^H
            assert np.array_equal(a.problem.h_eff, _herm(b.problem.h_eff))

    def test_chain_is_consecutive_pairs(self):
        # four UAVs: the links 0->1, 1->2 and 2->3, drawn in that order
        four = build_scenario(ScenarioConfig(num_uavs=4, seed=0))
        cfg = four.config
        pos = np.array([[0.0, 2500.0, 80.0], [150.0, 2400.0, 80.0],
                        [300.0, 2450.0, 80.0], [420.0, 2300.0, 80.0]])
        ref_rng = rng_stream(3, "chain")
        _, stack = link_feasibility_sweep(pos, four, rng_stream(3, "chain"),
                                          separated=True)
        designs = links_of(stack)
        assert len(designs) == 3
        for des, (tx, rx) in zip(designs, ((0, 1), (1, 2), (2, 3))):
            h = sample_rician_channel(pos[tx], pos[rx], cfg.rician_k,
                                      cfg.beta_ref, cfg.n_antennas, ref_rng)
            g = h.conj().T @ four.rx_combiner
            np.testing.assert_allclose(des.problem.h_eff, np.outer(g, g.conj()),
                                       rtol=1e-12)
        want, _ = per_link_verdicts(pos, four, rng_stream(3, "chain"),
                                    SdrOptions(), False)
        got, _ = link_feasibility_sweep(pos, four, rng_stream(3, "chain"))
        assert list(got) == want
        # one UAV: no link, and nothing drawn
        solo = build_scenario(ScenarioConfig(num_uavs=1, seed=0))
        rng, ref_rng = rng_stream(4, "chain"), rng_stream(4, "chain")
        got, designs = link_feasibility_sweep(pos[:1], solo, rng)
        assert got.shape == (0,) and designs is None
        assert rng.random() == ref_rng.random()


def per_link_verdicts(pos, scenario, rng, opts, separated):
    """The per-link reference: one draw per chain link in chain order (1 m
    clamp for co-located pairs), decided by solve_feasibility on the
    effective channel or by the matched-filter margin rule."""
    cfg = scenario.config
    f = scenario.rx_combiner
    verdicts, designs = [], []
    for m in range(len(pos) - 1):           # UAV m to UAV m + 1
        ref = pos[m + 1]
        if np.linalg.norm(pos[m] - pos[m + 1]) < 1.0:
            ref = pos[m] + np.array([1.0, 0.0, 0.0])
        h = sample_rician_channel(pos[m], ref, cfg.rician_k, cfg.beta_ref,
                                  cfg.n_antennas, rng)
        g = h.conj().T @ f
        if separated:
            scale = cfg.gamma_th_uav * cfg.noise_uav
            verdicts.append((cfg.p_max * np.linalg.norm(g) ** 2 - scale) / scale
                            >= -FEAS_TOL)
            continue
        des = solve_feasibility(effective_channel(h, f), cfg.noise_uav,
                                cfg.gamma_th_uav, cfg.tbp_threshold,
                                cfg.sensing_angles, cfg.p_max, opts)
        verdicts.append(des.feasible)
        designs.append(des)
    return verdicts, designs


def branch_of(des, tbp_threshold):
    """Which solve_feasibility branch decided a design with p_max, gamma > 0."""
    if des.iterations > 0:
        return "band-" + des.solver_status
    if des.feasible:
        return "beampattern"
    return "deep" if des.dual_bound <= -tbp_threshold else "certify-cap"


# chain link lengths from co-located (the 1 m clamp) to 5 km: beampattern-
# bound, band, certify-cap and deep-deficit links
CHAIN_LINKS_M = ((0.0, 900.0), (150.0, 1400.0), (1430.0, 1460.0),
                 (1480.0, 1520.0), (1600.0, 1800.0), (2000.0, 2300.0),
                 (2600.0, 3000.0), (3500.0, 5000.0), (1440.0, 0.0))


class TestChainVerdicts:
    def setup_method(self):
        self.scenario = build_scenario(ScenarioConfig(num_uavs=3, seed=0))

    def formations(self):
        for k, (d1, d2) in enumerate(CHAIN_LINKS_M):
            heading = 0.7 * k
            p0 = np.array([300.0 + 40.0 * k, 2200.0 - 90.0 * k, 80.0])
            p1 = p0 + d1 * np.array([np.cos(heading), np.sin(heading), 0.0])
            p2 = p1 + d2 * np.array([np.cos(-heading), np.sin(-heading), 0.0])
            yield k, np.stack([p0, p1, p2])

    def check(self, scenario, opts, separated, label):
        branches = []
        for k, pos in self.formations():
            for seed in range(3):
                ref_rng = rng_stream(seed, f"{label}-{k}")
                rng = rng_stream(seed, f"{label}-{k}")
                want, designs = per_link_verdicts(pos, scenario, ref_rng, opts,
                                                  separated)
                got, _ = link_feasibility_sweep(pos, scenario, rng, opts,
                                                separated, build=False)
                assert got.dtype == bool and list(got) == want, (k, seed)
                assert rng.random() == ref_rng.random()
                branches += [branch_of(d, scenario.config.tbp_threshold)
                             for d in designs]
        return branches

    @pytest.mark.parametrize("opts", [SdrOptions(), CERTIFY])
    def test_isac_matches_per_link_solves(self, opts, monkeypatch):
        solves = []
        solve_margin = isac_sdr._solve_margin

        def counted(angles, tbp_threshold, p_max, dim, link, opts):
            if link is not None:        # not the cached beampattern solve
                solves.append(link)
            return solve_margin(angles, tbp_threshold, p_max, dim, link, opts)

        monkeypatch.setattr(isac_sdr, "_solve_margin", counted)
        branches = self.check(self.scenario, opts, False, "isac")
        expected = {"beampattern", "deep", "band-feasible", "band-infeasible"}
        if opts.certify_only:
            expected.add("certify-cap")
        assert expected <= set(branches)
        # the closed-form cases keep every other link away from the Newton
        # solver: one solve per band link in the pass, one in the reference
        assert len(solves) == 2 * sum(b.startswith("band-") for b in branches)

    def test_separated_matches_margin_rule(self):
        self.check(self.scenario, SdrOptions(), True, "split")

    @pytest.mark.parametrize("opts", [SdrOptions(), CERTIFY])
    @pytest.mark.parametrize("field, value", [
        ("p_max", 1e-12), ("gamma_th_uav", 1e-12),
        ("tbp_threshold", 20.0)])        # above p_max * L: no link can sense
    def test_degenerate_worlds(self, opts, field, value):
        cfg = replace(self.scenario.config, **{field: value})
        world = replace(self.scenario, config=cfg)
        self.check(world, opts, False, field)

    def test_no_links(self):
        solo = build_scenario(ScenarioConfig(num_uavs=1, seed=0))
        got, _ = link_feasibility_sweep(np.array([[0.0, 0.0, 80.0]]), solo,
                                        rng_stream(0, "solo"), build=False)
        assert got.shape == (0,)
        # a one-UAV flight has no chain link and a zero QoS term every slot
        env = CorridorEnv(build_scenario(ScenarioConfig(
            num_uavs=1, num_mds=2, seed=0, horizon_slots=20)))
        run_episode(env, lambda env: JointAction(
            md_choice=np.full((1, 1), -1), heading=np.zeros((1, 1)),
            speed=np.ones((1, 1), dtype=np.uint8)))
        verdicts, designs = zip(*score_links(env.flown(), env.scenario, 0,
                                             separated=False, build=True))
        links = np.concatenate(verdicts)
        assert links.shape == (len(env.flown().final), 0) == (20, 0)
        assert designs == (None, None)
        assert reward_terms(env, links)["qos"].tolist() == [0.0] * 20

    @pytest.mark.parametrize("opts", [SdrOptions(), CERTIFY])
    @pytest.mark.parametrize("separated", [False, True])
    def test_build_keeps_verdicts_and_draws(self, separated, opts):
        for k, pos in self.formations():
            rng, bare_rng = rng_stream(k, "build"), rng_stream(k, "build")
            feasible, designs = link_feasibility_sweep(
                pos, self.scenario, rng, opts, separated, build=True)
            bare, _ = link_feasibility_sweep(
                pos, self.scenario, bare_rng, opts, separated, build=False)
            assert list(bare) == list(feasible) == [
                d.feasible for d in links_of(designs)]
            assert rng.random() == bare_rng.random()


@pytest.mark.slow
class TestAgainstConvexSolver:
    def test_margins_match_reference_sdp(self):
        cp = pytest.importorskip("cvxpy")
        for seed, dist, gdb in [(0, 100, 8.0), (1, 1200, 12.0), (2, 1800, 8.0),
                                (3, 600, 10.0), (4, 2500, 6.0), (5, 300, 14.0)]:
            h_eff = make_h_eff(dist, seed=seed, label="cvx")
            gam = 10 ** (gdb / 10)
            mine = solve(h_eff, gamma_db=gdb)

            r = cp.Variable((L, L), hermitian=True)
            t = cp.Variable()
            cons = [r >> 0, cp.real(cp.trace(r)) <= P_MAX]
            for phi in ANGLES:
                a = steering_vector(phi, L)
                cons.append(cp.real(cp.trace(r @ np.outer(a, a.conj())))
                            >= GAMMA_LIN + t)
            cons.append(cp.real(cp.trace(r @ (h_eff / (gam * NOISE_U)))) >= 1.0 + t)
            prob = cp.Problem(cp.Maximize(t), cons)
            prob.solve(solver=cp.SCS, eps=1e-9, max_iters=200000)
            assert mine.margin == pytest.approx(float(t.value), abs=3e-5), \
                f"margin mismatch at seed {seed}"
