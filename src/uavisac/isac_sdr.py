"""Per-link ISAC transmit design via a first-order semidefinite feasibility solver.

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
  the trace or leave the PSD cone, and the PDHG step maps S-supported iterates
  to S-supported iterates, so the compressed and full-space iterations agree
  in exact arithmetic. The dual bound needs no correction either: the nonzero
  eigenvalues of sum_j mu_j u_j u_j^H are the same in both bases, so the
  infeasibility certificate stays exact.

The iterative solver is a primal-dual hybrid-gradient loop with row
normalization and PSD-cone projection by Hermitian eigendecomposition. Every
reported margin is recomputed from the returned (lifted, L x L) matrices, and
a Lagrangian dual bound certifies infeasibility, so "feasible" answers are
sound by construction rather than by solver convergence flags.
"""

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .accel import njit
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
    max_iter: int = 20000
    gap_tol: float = 1e-7
    check_every: int = 50
    # stop as soon as the feasible/infeasible decision is certified, even if
    # the margin itself has not converged; used by the per-slot reward sweeps
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


@njit(cache=True)
def _project_spectrum(w, budget):
    # project eigenvalues onto {x >= 0, sum(x) <= budget}
    n = w.shape[0]
    clipped = np.maximum(w, 0.0)
    if clipped.sum() <= budget:
        return clipped
    u = np.sort(w)[::-1]
    css = np.cumsum(u)
    theta = 0.0
    for k in range(n):
        cand = (css[k] - budget) / (k + 1)
        if u[k] - cand > 0.0:
            theta = cand
    return np.maximum(w - theta, 0.0)


@njit(cache=True)
def _pdhg_margin(rows, dn, cn, p_max, t_lo, t_hi, r_init, mu_init,
                 max_iter, check_every, gap_tol, feas_tol, certify_only):
    """Maximize the worst slack t of <rows[j], R> - dn[j]*t >= cn[j].

    R ranges over Hermitian PSD matrices with trace at most p_max; rows are
    already normalized to unit size. Returns the best feasible-in-cone
    iterate, its achieved margin, a Lagrangian dual upper bound on the
    optimal margin, the iteration count and a convergence flag.
    """
    n_rows, dim, _ = rows.shape
    dd = dim * dim
    step = 0.99 / np.sqrt(n_rows)
    # rows flattened to interleaved (re, im) pairs: sum_j mu[j]*rows[j] and
    # every Frobenius inner product <rows[j], R> is then one real matrix product
    flat = np.ascontiguousarray(rows).reshape(n_rows, dd).view(np.float64)

    # the iterates stay exactly Hermitian, as eigh (lower triangle) assumes
    r_cur = 0.5 * (r_init + r_init.conj().T)
    t_cur = 0.0
    mu = mu_init.copy()

    best_r = r_cur.copy()
    best_margin = -1e300
    best_bound = 1e300
    converged = False
    it_done = 0

    for it in range(max_iter):
        # primal step with current multipliers
        grad = (mu @ flat).view(np.complex128).reshape(dim, dim)
        w, v = np.linalg.eigh(r_cur + step * grad)
        w = _project_spectrum(w, p_max)
        r_new = (v * w.astype(np.complex128)) @ v.conj().T
        r_new = 0.5 * (r_new + r_new.conj().T)
        t_new = min(max(t_cur + step * (1.0 - mu @ dn), t_lo), t_hi)

        # dual step with extrapolated primal
        r_bar = 2.0 * r_new - r_cur
        t_bar = 2.0 * t_new - t_cur
        viol = cn - (flat @ r_bar.reshape(dd).view(np.float64) - dn * t_bar)
        mu = np.maximum(mu + step * viol, 0.0)
        r_cur = r_new
        t_cur = t_new
        it_done = it + 1

        if (it + 1) % check_every == 0 or it + 1 == max_iter:
            margin = np.min((flat @ r_cur.reshape(dd).view(np.float64) - cn) / dn)
            if margin > best_margin:
                best_margin = margin
                best_r = r_cur.copy()
            # Lagrangian dual bound from the post-update multipliers
            wsum = (mu @ flat).view(np.complex128).reshape(dim, dim)
            lam = np.linalg.eigvalsh(wsum)
            lin = 1.0 - mu @ dn
            tail = max(t_lo * lin, t_hi * lin)
            bound = p_max * max(lam[-1], 0.0) + tail - mu @ cn
            if bound < best_bound:
                best_bound = bound
            if certify_only and (best_bound < -feas_tol or best_margin >= 0.0):
                break
            gap = best_bound - best_margin
            if gap <= gap_tol * (1.0 + abs(best_margin)):
                converged = True
                break
    return best_r, best_margin, best_bound, it_done, converged


def _solve_margin(angles, tbp_threshold, p_max, t_hi, r_init, link,
                  max_iter, check_every, gap_tol, certify_only):
    """PDHG on the margin program written in the span S of its constraints.

    The rows are a(phi) a(phi)^H >= tbp_threshold + t per sensing angle and,
    for a link solve with ``link = (g, scale)``, g g^H >= scale * (1 + t).
    They are compressed to Q^H u u^H Q in an orthonormal basis Q of S, the
    start point to Q^H r_init Q (no loss when r_init lies in S), and the
    solution X is lifted back to Q X Q^H. Returns the lifted covariance, the
    margin, the dual bound and the iteration count.
    """
    dim = r_init.shape[0]
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
    t_lo = min(-c_j / d_j for c_j, d_j in zip(cs, ds)) - 1.0
    x, margin, bound, iterations, _ = _pdhg_margin(
        rows, np.asarray(ds) / scales, np.asarray(cs) / scales, p_max, t_lo,
        max(t_hi, t_lo + 1.0), q.conj().T @ r_init @ q, np.zeros(len(vecs)),
        max_iter, check_every, gap_tol, FEAS_TOL, certify_only)
    return _herm(q @ x @ q.conj().T), float(margin), float(bound), iterations


_TBP_CACHE: dict = {}


def _tbp_only_design(angles, tbp_threshold, p_max, n_antennas, opts: SdrOptions):
    """Max-min beampattern covariance; link-independent, solved once and cached."""
    key = (n_antennas, tuple(np.round(angles, 12)), float(tbp_threshold), float(p_max))
    hit = _TBP_CACHE.get(key)
    if hit is not None:
        return hit
    # the isotropic start compresses to the isotropic start of S: only the
    # transient differs from a full-space run, since the optimum lies in S
    r0 = np.eye(n_antennas, dtype=complex) * (p_max / n_antennas)
    r, margin, bound, _ = _solve_margin(
        angles, tbp_threshold, p_max, p_max * n_antennas - tbp_threshold, r0,
        None, opts.max_iter, opts.check_every, min(opts.gap_tol, 1e-9), False)
    result = (r, margin, bound)
    _TBP_CACHE[key] = result
    return result


@lru_cache(maxsize=256)
def _steering(phi: float, n_antennas: int) -> np.ndarray:
    """steering_vector, cached per (angle, array size); read-only."""
    a = steering_vector(phi, n_antennas)
    a.flags.writeable = False
    return a


def tbp_quadratic(r, phi) -> float:
    a = _steering(float(phi), r.shape[0])
    return float(np.real(a.conj() @ (r @ a)))


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

    r_tbp, tbp_margin, tbp_bound = _tbp_only_design(
        angles, tbp_threshold, p_max, dim, opts)

    if gamma_th <= 0.0:
        # no SINR row: the link-independent design is optimal
        r_total = r_tbp
        iterations, bound = 0, tbp_bound
    elif lead <= 0.0:
        # a zero effective channel pins the SINR slack at exactly -1
        r_total = r_tbp
        iterations, bound = 0, min(tbp_bound, -1.0)
    else:
        scale = gamma_th * noise_uav
        sinr_slack = (float(np.real(g.conj() @ (r_tbp @ g))) - scale) / scale
        t_hi = min(p_max * dim - tbp_threshold,
                   (p_max * lead - scale) / scale)
        sinr_cap = (p_max * lead - scale) / scale
        if sinr_slack >= tbp_margin:
            # beampattern-bound instance: reuse the cached optimum, certified
            # because dropping the SINR row can only increase the margin
            r_total = r_tbp
            iterations, bound = 0, tbp_bound
        elif sinr_cap <= -tbp_threshold and sinr_cap < -FEAS_TOL:
            # deep SINR deficit: all power on the channel's top mode is the
            # exact optimum, since the beampattern floors are already slacker
            r_total = p_max * np.outer(eigvecs[:, -1], eigvecs[:, -1].conj())
            iterations, bound = 0, sinr_cap
        elif opts.certify_only and sinr_cap < -FEAS_TOL:
            # infeasibility already certified by the single-mode power cap
            r_total = r_tbp
            iterations, bound = 0, sinr_cap
        else:
            # r_tbp lies in span{a(phi)}, inside the link solve's span
            r_total, _, bound, iterations = _solve_margin(
                angles, tbp_threshold, p_max, t_hi, r_tbp, (g, scale),
                opts.max_iter, opts.check_every, opts.gap_tol, opts.certify_only)
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
    elif design.dual_bound - design.margin <= 10.0 * FEAS_TOL * (1.0 + abs(design.margin)):
        # converged to the optimum, which sits below the feasibility slack
        design.solver_status = "infeasible"
    else:
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


def link_feasibility_sweep(uav_positions, chain_edges, scenario, rng,
                           r_link_pass: float = 0.05, r_link_fail: float = -1.0,
                           opts: SdrOptions = SdrOptions(),
                           cache=None, slot_key: int = 0):
    """Solve the transmit design for every chain link at the given positions.

    Returns the per-link designs (in chain order) and the aggregated QoS
    reward: +r_link_pass per feasible link, r_link_fail per infeasible or
    failed link. During training a dict ``cache`` keyed by (edge index,
    slot_key, 5 m distance bucket) skips repeat solves; cached entries yield
    a None design. Evaluation runs pass cache=None and always solve.
    """
    cfg = scenario.config
    positions = np.asarray(uav_positions, dtype=float)
    designs = []
    quality = 0.0
    for idx, (tx, rx) in enumerate(chain_edges):
        d = float(np.linalg.norm(positions[tx] - positions[rx]))
        if cache is not None:
            key = (idx, slot_key, int(d // 5.0))
            hit = cache.get(key)
            if hit is not None:
                designs.append(None)
                quality += r_link_pass if hit else r_link_fail
                continue
        ref = positions[rx]
        if d < 1.0:
            # co-located transceivers are clamped to the 1 m reference distance
            ref = positions[tx] + np.array([1.0, 0.0, 0.0])
        h = sample_rician_channel(positions[tx], ref, cfg.rician_k,
                                  cfg.beta_ref, cfg.n_antennas, rng)
        h_eff = effective_channel(h, scenario.rx_combiner)
        design = solve_feasibility(h_eff, cfg.noise_uav, cfg.gamma_th_uav,
                                   cfg.tbp_threshold, cfg.sensing_angles,
                                   cfg.p_max, opts)
        if cache is not None:
            cache[key] = design.feasible
        designs.append(design)
        quality += r_link_pass if design.feasible else r_link_fail
    return designs, quality


def separated_link_sweep(uav_positions, chain_edges, scenario, rng,
                         r_link_pass: float = 0.05, r_link_fail: float = -1.0):
    """Link outcomes for the split-array variant: sensing on a dedicated
    radar aperture, communication as a full-budget matched-filter beam.

    With no covariance sharing the beam w = sqrt(p_max) g/||g|| is optimal
    and the link is feasible iff p_max ||g||^2 clears the SINR floor; the
    sensing floor is met off-array by construction.
    """
    cfg = scenario.config
    positions = np.asarray(uav_positions, dtype=float)
    scale = cfg.gamma_th_uav * cfg.noise_uav
    designs = []
    quality = 0.0
    for tx, rx in chain_edges:
        d = float(np.linalg.norm(positions[tx] - positions[rx]))
        ref = positions[rx]
        if d < 1.0:
            ref = positions[tx] + np.array([1.0, 0.0, 0.0])
        h = sample_rician_channel(positions[tx], ref, cfg.rician_k,
                                  cfg.beta_ref, cfg.n_antennas, rng)
        g = h.conj().T @ scenario.rx_combiner
        gain = float(np.real(g.conj() @ g))
        margin = (cfg.p_max * gain - scale) / scale
        if gain > 0:
            w = np.sqrt(cfg.p_max) * g / np.sqrt(gain)
        else:
            w = np.zeros(cfg.n_antennas, dtype=complex)
        problem = SdrProblem(h_eff=np.outer(g, g.conj()), noise_uav=cfg.noise_uav,
                             gamma_th=cfg.gamma_th_uav, tbp_threshold=0.0,
                             angles=cfg.sensing_angles, p_max=cfg.p_max)
        design = TransmitDesign(
            r_comm=np.outer(w, w.conj()),
            r_sens=np.zeros((cfg.n_antennas, cfg.n_antennas), dtype=complex),
            w_c=w, margin=float(margin),
            solver_status="feasible" if margin >= -FEAS_TOL else "infeasible",
            dual_bound=float(margin), problem=problem)
        designs.append(design)
        quality += r_link_pass if design.feasible else r_link_fail
    return designs, quality
