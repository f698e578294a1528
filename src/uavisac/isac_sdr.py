"""Per-link ISAC transmit design via a small log-barrier semidefinite solver.

The rank-relaxed design problem is solved in phase-I margin form: maximize the
worst constraint slack t over the transmit covariance subject to beampattern
floors at the sensing angles, the receiver SINR floor, and the power budget.
Three structural facts keep this small and exact:

* any feasible (comm, sensing) covariance pair can be merged into a single
  total covariance with the same margin, and conversely an optimal total
  covariance splits back into an exactly rank-one communication part
  w = R g / sqrt(g^H R g) whose residual is invisible to the receiver, so the
  relaxation is tight whenever the effective channel has rank one;
* the beampattern/power subproblem does not depend on the link at all, so its
  optimum is solved once and reused; a per-link solve is only needed when the
  SINR constraint actually binds;
* every constraint matrix is rank one, u u^H with u in S = span{a(phi_1..K), g},
  so the solve runs in an orthonormal basis Q of S (dimension K + 1, not L).
  Compressing R to P_S R P_S keeps every constraint value and does not raise
  the trace or leave the PSD cone, so the compressed and full-space programs
  share their optimum and solves of either agree there (not per iterate).
  The dual bound needs no correction either: the nonzero eigenvalues of
  sum_j mu_j u_j u_j^H are the same in both bases, so the infeasibility
  certificate stays exact.

The solver is a log-barrier Newton method (Boyd & Vandenberghe 2004, ch. 11)
on the real coordinates of the compressed covariance. Every reported margin
is recomputed from the returned (lifted, L x L) matrices, and a Lagrangian
dual bound certifies infeasibility, so "feasible" answers are sound by
construction rather than by solver convergence flags.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import effective_channel, sample_rician_channel, steering_vector

FEAS_TOL = 1e-7          # margin slack accepted as feasible
VERIFY_TOL = 1e-6        # relative residual floor in verify_design
PSD_TOL = 1e-8           # eigenvalue tolerance for the PSD checks


@dataclass(frozen=True)
class SdrProblem:
    """Inputs of one feasibility check, kept with the design for re-verification."""

    h_eff: np.ndarray
    noise_uav: float
    gamma_th: float
    tbp_threshold: float
    angles: tuple
    p_max: float


@dataclass(frozen=True)
class SdrOptions:
    max_iter: int = 200      # Newton steps
    gap_tol: float = FEAS_TOL
    # stop as soon as the feasible/infeasible decision is certified, even if
    # the margin itself has not converged (gap_tol is then unused); used by
    # the per-slot reward sweeps
    certify_only: bool = False


@dataclass
class TransmitDesign:
    r_comm: np.ndarray       # (L, L) Hermitian PSD communication covariance
    r_sens: np.ndarray       # (L, L) Hermitian PSD sensing covariance
    w_c: np.ndarray          # (L,) extracted communication beam
    margin: float            # worst constraint slack of the returned matrices
    solver_status: str       # feasible | infeasible | numerical_failure
    iterations: int = 0
    dual_bound: float = np.inf
    problem: SdrProblem | None = None

    @property
    def feasible(self) -> bool:
        return self.solver_status == "feasible"


@dataclass(frozen=True)
class DesignReport:
    """Signed relative residuals of one design; pass iff all >= -1e-6."""

    tbp_residuals: np.ndarray
    sinr_residual: float
    power_residual: float
    psd_residual: float
    passed: bool


def _herm(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


@lru_cache(maxsize=None)
def _hermitian_basis(dim: int) -> np.ndarray:
    """Orthonormal real basis of the dim x dim Hermitian matrices: column a
    is the row-major vec of basis matrix B_a, so a Hermitian Y has the real
    coordinates Re(basis^H vec(Y)) and vec(Y) = basis @ coordinates."""
    eye = np.eye(dim)
    mats = [np.outer(eye[k], eye[k]) for k in range(dim)]
    for k in range(dim):
        for m in range(k + 1, dim):
            pair = np.outer(eye[k], eye[m])
            mats += [(pair + pair.T) / np.sqrt(2.0), 1j * (pair - pair.T) / np.sqrt(2.0)]
    basis = np.stack([b.ravel() for b in mats], axis=1).astype(complex)
    basis.flags.writeable = False
    return basis


def _newton_margin(rows, dn, cn, p_max, opts: SdrOptions):
    """Maximize the worst slack t of <rows[j], X> - dn[j]*t >= cn[j].

    X ranges over Hermitian positive definite matrices with trace at most
    p_max; rows are already normalized to unit size. Newton steps minimize
    -tau*t - sum_j log s_j - log(1 - tr Y) - log det Y over t and the real
    coordinates of Y = X / p_max, from Y = I/(2d) with t one unit below every
    row; tau grows 30-fold at each point centred to a squared Newton
    decrement of 1e-6 (a looser centring leaves the dual's weakly
    complementary directions off by the residual). mu_j = 1/(tau*s_j), scaled
    to sum_j mu_j*dn[j] = 1, gives the Lagrangian dual bound
    p_max*max(lambda_max(sum_j mu_j*rows[j]), 0) - mu.cn, sound for any
    mu >= 0. No solve stops before one certificate holds: a margin of at
    least -FEAS_TOL or a bound below -FEAS_TOL. A certify-only solve stops
    there; a full solve also waits for a gap of opts.gap_tol. Both follow the
    same iterates, so they reach the same status. A solve that runs into the
    step cap or the slacks' precision with neither certificate is left for
    _finish_design to report as a numerical failure. Returns the best
    iterate, its achieved margin, the best bound, the Newton step count and
    a convergence flag.
    """
    n_rows, dim, _ = rows.shape
    basis = _hermitian_basis(dim)
    basis_h = basis.conj().T
    a = (basis_h @ rows.reshape(n_rows, dim * dim).T).real.T * p_max
    e = (basis_h @ np.eye(dim).ravel()).real
    # slacks s = G z - h of z = (y, t): the rows, then the trace bound
    g_mat = np.vstack([np.column_stack([a, -dn]), np.append(-e, 0.0)])
    h = np.append(cn, -1.0)
    y = e / (2 * dim)
    start = (a @ y - cn) / dn
    z = np.append(y, start.min() - 1.0)
    tau = float(np.sum(1.0 / (start - z[-1])))      # centred in t at the start
    unit_t = np.eye(len(z))[-1]

    best_y, best_margin, best_bound = np.eye(dim) / (2 * dim), -np.inf, np.inf
    converged, steps = False, 0
    # the slacks are carried along with z: near the optimum the active ones
    # are far smaller than the terms of g_mat @ z, whose rounding would
    # swamp them if they were recomputed, while each step's increment is
    # small too
    s = g_mat @ z - h
    try:
        while steps < opts.max_iter:
            y_mat = (basis @ z[:-1]).reshape(dim, dim)
            w, v = np.linalg.eigh(y_mat)
            if not (s.min() > 0.0 and w[0] > 0.0):
                break           # the slacks have run out of precision
            margin = np.min(s[:-1] / dn) + z[-1]
            if margin > best_margin:
                best_margin, best_y = margin, y_mat
            mu = 1.0 / s[:-1]
            mu /= mu @ dn
            lam = np.linalg.eigvalsh(np.tensordot(mu, rows, 1))[-1]
            best_bound = min(best_bound, p_max * max(lam, 0.0) - mu @ cn)
            if best_margin >= -FEAS_TOL or best_bound < -FEAS_TOL:
                # _finish_design can classify the pair; a full solve also
                # waits for the margin to converge
                if opts.certify_only:
                    break
                if best_bound - best_margin <= opts.gap_tol * (1.0 + abs(best_margin)):
                    converged = True
                    break

            # the Hessian does not depend on tau: solve once for the barrier
            # and the objective parts of the step, then pick tau
            inv = (v / w) @ v.conj().T
            hess = (g_mat.T / s ** 2) @ g_mat
            hess[:-1, :-1] += (basis_h @ np.kron(inv, inv.T) @ basis).real
            grad = -(g_mat.T @ (1.0 / s)) - np.append((basis_h @ inv.ravel()).real, 0.0)
            dz_bar, dz_t = np.linalg.solve(hess, np.column_stack([-grad, unit_t])).T
            if -(grad - tau * unit_t) @ (dz_bar + tau * dz_t) <= 1e-6:
                tau *= 30.0
                if len(s) + dim < 1e-12 * tau * (1.0 + abs(best_margin)):
                    break       # the central path's gap is below the slacks' precision
            dz = dz_bar + tau * dz_t
            decrement = -(grad - tau * unit_t) @ dz
            # the barrier along dz in closed form, with the eigenvalues of
            # Y^-1/2 dY Y^-1/2: backtrack from the boundary to the first
            # step that passes the Armijo test
            dy = v.conj().T @ (basis @ dz[:-1]).reshape(dim, dim) @ v / np.sqrt(np.outer(w, w))
            g_dz = g_mat @ dz
            ratios = np.append(g_dz / s, np.linalg.eigvalsh(dy))
            alphas = min(1.0, 0.99 / max(-ratios.min(), 1e-300)) * 0.5 ** np.arange(40)
            drop = -tau * dz[-1] * alphas - np.log1p(alphas[:, None] * ratios).sum(axis=1)
            ok = drop <= -0.01 * alphas * decrement
            if not (np.isfinite(dz).all() and ok.any()):
                break
            alpha = alphas[np.argmax(ok)]
            z = z + alpha * dz
            s = s + alpha * g_dz
            steps += 1
    except np.linalg.LinAlgError:
        pass                    # a singular Newton system: keep the best pair
    return p_max * best_y, best_margin, best_bound, steps, converged


# perfbench wraps and counts the kernel under its former name
_pdhg_margin = _newton_margin


def _solve_margin(angles, tbp_threshold, p_max, dim, link, opts: SdrOptions):
    """The margin program written in the span S of its constraints.

    The rows are a(phi) a(phi)^H >= tbp_threshold + t per sensing angle and,
    for a link solve with ``link = (g, scale)``, g g^H >= scale * (1 + t).
    They are compressed to Q^H u u^H Q in an orthonormal basis Q of S, solved
    for X, and X is lifted back to Q X Q^H. Returns the lifted covariance,
    the margin, the dual bound and the Newton step count.
    """
    vecs = [_steering(phi, dim) for phi in angles]
    ds = [1.0] * len(vecs)
    cs = [tbp_threshold] * len(vecs)
    if link is not None:
        vecs.append(link[0])
        ds.append(link[1])
        cs.append(link[1])
    u = np.stack(vecs, axis=1)
    sq_norms = np.sum(np.abs(u) ** 2, axis=0)
    # relative rank cut, so a g inside span{a(phi)} adds no direction
    left, sv, _ = np.linalg.svd(u / np.sqrt(sq_norms), full_matrices=False)
    q = left[:, sv > sv[0] * max(u.shape) * np.finfo(float).eps]
    c = q.conj().T @ u
    # ||u u^H||_F = ||u||^2, so rows keep the scaling of the full-space rows
    scales = np.sqrt(sq_norms ** 2 + np.square(ds))
    rows = np.einsum("in,jn->nij", c, c.conj()) / scales[:, None, None]
    x, margin, bound, steps, _ = _newton_margin(
        rows, np.asarray(ds) / scales, np.asarray(cs) / scales, p_max, opts)
    return _herm(q @ x @ q.conj().T), float(margin), float(bound), steps


# fixed, so no caller's options can decide what every later solve reuses
_TBP_OPTS = SdrOptions(gap_tol=1e-9)


@lru_cache(maxsize=None)
def _tbp_only_design(angles, tbp_threshold, p_max, n_antennas):
    """Max-min beampattern covariance; link-independent, solved once and
    cached. Returns it with its margin, its dual bound and whether its own
    matrices re-verify as a design without a SINR floor, measured once here."""
    r, margin, bound, _ = _solve_margin(angles, tbp_threshold, p_max,
                                        n_antennas, None, _TBP_OPTS)
    zero = np.zeros_like(r)
    measured, report = _measure_design(zero, r, SdrProblem(
        h_eff=zero, noise_uav=0.0, gamma_th=0.0, tbp_threshold=tbp_threshold,
        angles=angles, p_max=p_max))
    return r, margin, bound, measured >= -FEAS_TOL and report.passed


@lru_cache(maxsize=256)
def _steering(phi: float, n_antennas: int) -> np.ndarray:
    """steering_vector, cached per (angle, array size); read-only."""
    a = steering_vector(phi, n_antennas)
    a.flags.writeable = False
    return a


def tbp_quadratic(r, phi) -> float:
    a = _steering(float(phi), r.shape[0])
    return float(np.real(a.conj() @ (r @ a)))


# the cases of _link_ladder, in its order; SOLVE: none holds
NO_FLOOR, ZERO, BEAM, DEEP, CAP, SOLVE = range(6)


def _link_ladder(g, lead, noise_uav, gamma_th, tbp_threshold, angles, p_max,
                 opts: SdrOptions):
    """The closed-form cases of the transmit design with p_max > 0, per link.

    ``g`` (E, L) holds each link's channel top mode and ``lead`` (E,) its
    ||g||^2. The first case that holds decides the link: no SINR floor, where
    the cached beampattern optimum r_tbp is optimal; a zero channel, whose
    SINR slack is pinned at -1; a beampattern-bound link, g^H r_tbp g giving
    an SINR slack of at least r_tbp's margin, so dropping the SINR row costs
    nothing; a deep deficit, where the cap (p_max ||g||^2 - gamma sigma^2) /
    (gamma sigma^2) on the SINR slack of any covariance within the budget is
    below -FEAS_TOL and at most -tbp_threshold, the least a beampattern slack
    can be, so all power on g is optimal; and, certify-only, a cap below
    -FEAS_TOL. Returns each link's case and its dual bound, and the cached
    beampattern design.
    """
    tbp = _tbp_only_design(tuple(float(a) for a in angles), float(tbp_threshold),
                           float(p_max), g.shape[-1])
    r_tbp, tbp_margin, tbp_bound, _ = tbp
    if gamma_th <= 0.0:
        return np.full(len(lead), NO_FLOOR), np.full(len(lead), tbp_bound), tbp
    scale = gamma_th * noise_uav
    sinr_slack = (np.vecdot(g, g @ r_tbp.T).real - scale) / scale
    sinr_cap = (p_max * lead - scale) / scale
    deficit = sinr_cap < -FEAS_TOL
    case = np.where(lead <= 0.0, ZERO, np.where(
        sinr_slack >= tbp_margin, BEAM, np.where(
            deficit & (sinr_cap <= -tbp_threshold), DEEP,
            np.where(deficit & opts.certify_only, CAP, SOLVE))))
    bound = np.where(case == ZERO, min(tbp_bound, -1.0),
                     np.where(case == BEAM, tbp_bound, sinr_cap))
    return case, bound, tbp


def solve_feasibility(h_eff, noise_uav, gamma_th, tbp_threshold, angles,
                      p_max, opts: SdrOptions = SdrOptions()) -> TransmitDesign:
    """Solve the relaxed transmit feasibility check for one directed link.

    ``h_eff`` is the effective channel through the receive combiner (rank one
    in this pipeline); the SINR row is written with its top mode g g^H, which
    is h_eff itself at rank one, and the returned matrices are re-verified
    against h_eff. Returns matrices, the extracted beam, the achieved margin
    and a status; feasible iff the margin clears -1e-7 and the matrices
    themselves re-verify.
    """
    h_eff = _herm(np.asarray(h_eff, dtype=complex))
    angles = tuple(float(a) for a in angles)
    if len(angles) == 0:
        raise ValueError("at least one sensing angle is required")
    dim = h_eff.shape[0]
    problem = SdrProblem(h_eff=h_eff, noise_uav=float(noise_uav),
                         gamma_th=float(gamma_th),
                         tbp_threshold=float(tbp_threshold),
                         angles=angles, p_max=float(p_max))

    eigvals, eigvecs = np.linalg.eigh(h_eff)
    lead = float(eigvals[-1])
    g = eigvecs[:, -1] * np.sqrt(max(lead, 0.0))

    if p_max <= 0.0:
        # zero power forces R = 0, so the margin of the zero design is exact
        zero = np.zeros((dim, dim), dtype=complex)
        return _finish_design(zero, g, problem, 0,
                              _measure_design(zero, zero, problem)[0])

    case, bound, (r_total, _, _, _) = _link_ladder(
        g[None], np.array([lead]), noise_uav, gamma_th, tbp_threshold, angles,
        p_max, opts)
    case, bound, iterations = case[0], bound[0], 0
    if case == DEEP:
        r_total = p_max * np.outer(eigvecs[:, -1], eigvecs[:, -1].conj())
    elif case == SOLVE:
        r_total, _, bound, iterations = _solve_margin(
            angles, tbp_threshold, p_max, dim, (g, gamma_th * noise_uav), opts)
    return _finish_design(r_total, g, problem, iterations, bound)


def _psd_clip(r: np.ndarray) -> np.ndarray:
    r = _herm(r)
    w, v = np.linalg.eigh(r)
    if w[0] >= 0.0:
        return r
    return _herm((v * np.maximum(w, 0.0)) @ v.conj().T)


def extract_rank_one(r_total, g):
    """Split a total covariance into an exactly rank-one communication beam
    w = R g / sqrt(g^H R g) and a sensing residual the receiver cannot see.

    Returns (w, w w^H, R - w w^H); the residual is PSD and g^H (R - w w^H) g
    = 0, so the split keeps every beampattern value and the SINR numerator.
    """
    gain = float(np.real(g.conj() @ (r_total @ g)))
    if gain <= 0.0:
        return np.zeros(len(g), dtype=complex), np.zeros_like(r_total), r_total
    w_c = (r_total @ g) / np.sqrt(gain)
    r_comm = np.outer(w_c, w_c.conj())
    return w_c, r_comm, _psd_clip(r_total - r_comm)


def _finish_design(r_total, g, problem: SdrProblem, iterations, bound):
    """Split the total covariance, measure the returned matrices once and
    classify them: "feasible" needs the matrices to re-verify, "infeasible"
    needs the dual bound."""
    if problem.gamma_th > 0.0:
        w_c, r_comm, r_sens = extract_rank_one(r_total, g)
    else:
        w_c = np.zeros(len(g), dtype=complex)
        r_comm, r_sens = np.zeros_like(r_total), r_total
    margin, report = _measure_design(r_comm, r_sens, problem)
    design = TransmitDesign(
        r_comm=r_comm, r_sens=r_sens, w_c=w_c, margin=margin,
        solver_status="pending", iterations=iterations,
        dual_bound=float(bound), problem=problem)
    if design.margin >= -FEAS_TOL and report.passed:
        design.solver_status = "feasible"
    elif design.dual_bound < -FEAS_TOL:
        # dual certificate: no covariance pair can clear the slack threshold
        design.solver_status = "infeasible"
    else:
        # neither certificate holds, however small the gap
        design.solver_status = "numerical_failure"
    return design


def _measure_design(r_comm, r_sens, problem: SdrProblem):
    """One pass over a design's matrices: the beampattern gains, the SINR
    traces and the power, read once and turned into both the worst slack in
    the margin program's own units and the signed relative residuals of
    verify_design. Returns (margin, DesignReport)."""
    total = r_comm + r_sens
    slacks = [tbp_quadratic(total, phi) - problem.tbp_threshold
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

    psd_res = float(min(np.linalg.eigvalsh(_herm(r_comm))[0],
                        np.linalg.eigvalsh(_herm(r_sens))[0]) / max(power, 1.0e-30))

    passed = bool(tbp_res.min() >= -VERIFY_TOL and sinr_res >= -VERIFY_TOL
                  and power_res >= -VERIFY_TOL and psd_res >= -PSD_TOL)
    return float(min(slacks)), DesignReport(
        tbp_residuals=tbp_res, sinr_residual=float(sinr_res),
        power_residual=float(power_res), psd_residual=psd_res, passed=passed)


def verify_design(design: TransmitDesign, h_eff, noise_uav, gamma_th,
                  tbp_threshold, angles, p_max) -> DesignReport:
    """Independent constraint check straight from the matrices.

    Beampattern gains are evaluated per angle, the SINR through the trace
    identity, and the power sum directly; residuals are signed and relative.
    """
    problem = SdrProblem(h_eff=np.asarray(h_eff), noise_uav=noise_uav,
                         gamma_th=gamma_th, tbp_threshold=tbp_threshold,
                         angles=tuple(angles), p_max=p_max)
    return _measure_design(np.asarray(design.r_comm), np.asarray(design.r_sens),
                           problem)[1]


def _chain_channels(uav_positions, chain_edges, scenario, rng) -> np.ndarray:
    """(E, L, L): one Rician draw per chain link, in chain order, from one
    rng call; co-located transceivers are clamped to the 1 m reference
    distance."""
    cfg = scenario.config
    positions = np.asarray(uav_positions, dtype=float)
    edges = np.asarray(chain_edges, dtype=int).reshape(-1, 2)
    tx, rx = positions[edges[:, 0]], positions[edges[:, 1]]
    diff = tx - rx
    close = np.sqrt(np.vecdot(diff, diff)) < 1.0
    ref = np.where(close[:, None], tx + np.array([1.0, 0.0, 0.0]), rx)
    return sample_rician_channel(tx, ref, cfg.rician_k, cfg.beta_ref,
                                 cfg.n_antennas, rng)


def link_reward(feasible, r_link_pass: float, r_link_fail: float) -> float:
    """QoS reward of a slot's links: +r_link_pass per feasible link,
    r_link_fail per infeasible or failed link, summed in chain order."""
    return sum((r_link_pass if ok else r_link_fail for ok in feasible), 0.0)


def _separated_margins(h, scenario) -> np.ndarray:
    """Matched-filter margins (p_max ||g||^2 - gamma sigma^2)/(gamma sigma^2)
    of g = h^H f, for channels (..., L, L)."""
    cfg = scenario.config
    g = h.conj().swapaxes(-1, -2) @ scenario.rx_combiner
    scale = cfg.gamma_th_uav * cfg.noise_uav
    return (cfg.p_max * np.vecdot(g, g).real - scale) / scale


def _isac_verdicts(h, scenario, opts: SdrOptions) -> np.ndarray:
    """solve_feasibility's verdict on each channel of h (E, L, L): the cases
    of _link_ladder on g = h^H f, and a solve of each link that no case
    covers. A case that keeps r_tbp needs no per-link split: w = R g /
    sqrt(g^H R g) leaves a residual R - w w^H that is PSD (a Schur
    complement) and that the receiver cannot see, so such a link is feasible
    iff r_tbp re-verified when it was cached."""
    cfg = scenario.config
    args = (cfg.noise_uav, cfg.gamma_th_uav, cfg.tbp_threshold,
            cfg.sensing_angles, cfg.p_max, opts)
    if cfg.p_max <= 0.0:
        # R = 0 on every link, and its measurement does not see the channel
        zero = np.zeros((cfg.n_antennas, cfg.n_antennas), dtype=complex)
        return np.full(len(h), solve_feasibility(zero, *args).feasible)
    g = h.conj().swapaxes(-1, -2) @ scenario.rx_combiner
    case, _, (_, _, _, tbp_ok) = _link_ladder(g, np.vecdot(g, g).real, *args)
    feasible = tbp_ok & ((case == NO_FLOOR) | (case == BEAM))
    for k in np.flatnonzero(case == SOLVE):
        feasible[k] = solve_feasibility(
            effective_channel(h[k], scenario.rx_combiner), *args).feasible
    return feasible


def chain_link_verdicts(uav_positions, chain_edges, scenario, rng,
                        opts: SdrOptions = SdrOptions(),
                        separated: bool = False) -> np.ndarray:
    """Feasible or not, per chain link, (E,) bool: the verdicts of the
    designs link_feasibility_sweep (separated_link_sweep when ``separated``)
    would return for the same rng, drawn the same way but decided in one
    array pass, without building the designs."""
    h = _chain_channels(uav_positions, chain_edges, scenario, rng)
    if separated:
        return _separated_margins(h, scenario) >= -FEAS_TOL
    return _isac_verdicts(h, scenario, opts)


def link_feasibility_sweep(uav_positions, chain_edges, scenario, rng,
                           opts: SdrOptions = SdrOptions()):
    """Solve the shared-array transmit design for every chain link.

    Every call draws each link's fading afresh from ``rng``, and
    solve_feasibility decides the link on the draw's effective channel
    through the receive combiner. Returns the per-link designs in chain
    order.
    """
    cfg = scenario.config
    return [solve_feasibility(effective_channel(h, scenario.rx_combiner),
                              cfg.noise_uav, cfg.gamma_th_uav,
                              cfg.tbp_threshold, cfg.sensing_angles,
                              cfg.p_max, opts)
            for h in _chain_channels(uav_positions, chain_edges, scenario, rng)]


def separated_link_sweep(uav_positions, chain_edges, scenario, rng):
    """Link outcomes for the split-array variant: sensing on a dedicated
    radar aperture, communication as a full-budget matched-filter beam.

    The links see the same chain draws as link_feasibility_sweep. With no
    covariance sharing the beam w = sqrt(p_max) g/||g||, g = h^H f, is
    optimal, so the margin is (p_max ||g||^2 - gamma sigma^2)/(gamma sigma^2)
    and the link is feasible iff it clears -FEAS_TOL; the sensing floor is
    met off-array by construction. Returns the per-link designs in chain
    order.
    """
    cfg = scenario.config
    h = _chain_channels(uav_positions, chain_edges, scenario, rng)
    g = h.conj().swapaxes(-1, -2) @ scenario.rx_combiner
    gain = np.vecdot(g, g).real
    w = np.sqrt(cfg.p_max) * g / np.sqrt(np.where(gain > 0, gain, np.inf))[:, None]
    return [TransmitDesign(
        r_comm=np.outer(w[k], w[k].conj()),
        r_sens=np.zeros((cfg.n_antennas, cfg.n_antennas), dtype=complex),
        w_c=w[k], margin=float(margin),
        solver_status="feasible" if margin >= -FEAS_TOL else "infeasible",
        dual_bound=float(margin), problem=SdrProblem(
            h_eff=np.outer(g[k], g[k].conj()), noise_uav=cfg.noise_uav,
            gamma_th=cfg.gamma_th_uav, tbp_threshold=0.0,
            angles=cfg.sensing_angles, p_max=cfg.p_max))
        for k, margin in enumerate(_separated_margins(h, scenario))]
