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

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.linalg import _umath_linalg

from .channel import sample_rician_channel, steering_vector

FEAS_TOL = 1e-7          # margin slack accepted as feasible
VERIFY_TOL = 1e-6        # relative residual floor in verify_design
PSD_TOL = 1e-8           # eigenvalue tolerance for the PSD checks
_EPS = np.finfo(float).eps

# the gufuncs behind np.linalg.eigh, eigvalsh and solve (lower triangle for
# the Hermitian ones), called without the wrappers; see _newton_margin
_eigh = _umath_linalg.eigh_lo
_eigvalsh = _umath_linalg.eigvalsh_lo
_solve = _umath_linalg.solve


@dataclass(frozen=True)
class SdrProblem:
    """Inputs of one feasibility check, kept with the design for re-verification;
    h_eff (L, L), or (N, L, L) for a stack of links that share the scalars."""

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
    # the post-flight link sweeps
    certify_only: bool = False


@dataclass
class TransmitDesign:
    """The designs of a stack of N links, every array led by the links and
    problem.h_eff (N, L, L); take(k) gives link k's design, whose arrays
    drop the link axis."""

    r_comm: np.ndarray       # (N, L, L) Hermitian PSD communication covariances
    r_sens: np.ndarray       # (N, L, L) Hermitian PSD sensing covariances
    w_c: np.ndarray          # (N, L) extracted communication beams
    margin: np.ndarray       # (N,) worst constraint slack of the returned matrices
    solver_status: np.ndarray  # (N,) feasible | infeasible | numerical_failure
    iterations: np.ndarray = 0
    dual_bound: np.ndarray = np.inf
    problem: SdrProblem | None = None

    @property
    def feasible(self):
        return self.solver_status == "feasible"

    def take(self, index) -> "TransmitDesign":
        """The TransmitDesign of ``array[index]`` for every array and h_eff."""
        *arrays, p = vars(self).values()
        return TransmitDesign(*(value[index] for value in arrays), SdrProblem(
            p.h_eff[index], p.noise_uav, p.gamma_th, p.tbp_threshold, p.angles,
            p.p_max))


@dataclass(frozen=True)
class DesignReport:
    """Signed relative residuals of a design (or stack); pass iff all >= -1e-6."""

    tbp_residuals: np.ndarray
    sinr_residual: float
    power_residual: float
    psd_residual: float
    passed: bool


def _herm(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def _outer(v: np.ndarray) -> np.ndarray:
    """v v^H of each vector of v (..., L), as np.outer(v, v.conj()) gives it."""
    return v[..., :, None] * v.conj()[..., None, :]


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


@lru_cache(maxsize=None)
def _basis_products(dim: int):
    """The per-dimension constants of _newton_margin: basis^H, kept as the
    conjugate-transpose view that every product with it reads, and the real
    coordinates e of the identity."""
    basis_h = _hermitian_basis(dim).conj().T
    e = (basis_h @ np.eye(dim).ravel()).real
    e.flags.writeable = False
    return basis_h, e


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
    _finish_designs to report as a numerical failure.

    One step takes the eigendecomposition Y = V diag(w) V^H, the dual bound
    from the eigenvalues of sum_j mu_j*rows[j], the Hessian of the barrier
    (the log-det part is basis^H (Y^-1 kron Y^-T) basis) and one linear solve
    for two right-hand sides, -grad and the unit t direction, so that the
    step for any tau is their combination. It then backtracks from 0.99 of
    the distance to the boundary by halving, at most 40 times, to the first
    step that passes the Armijo test. Apart from each step's Y, which may be
    kept as the best iterate, its dY and G dz, a step writes its results
    into buffers made once per solve, with the views that read them: among
    them the (n, 2) right-hand side, whose second column stays the unit t
    direction, and the log-det gradient, whose t entry stays 0.

    The four LAPACK calls of a step (eigh of Y, eigvalsh for the bound, the
    solve, eigvalsh for the step) go to the gufuncs that np.linalg.eigh,
    eigvalsh and solve call (_eigh, _eigvalsh, _solve), which give the same
    bits without the wrappers' argument handling; the arguments' dtypes
    pick the wrappers' loops. Where a wrapper raises LinAlgError, its gufunc
    fills its outputs with NaN, and the solve ends where the error ended
    it: a NaN w[0] fails the positivity test, a NaN bound eigenvalue is
    tested for, a NaN solve gives a dz that is not finite, and NaN step
    eigenvalues fail every Armijo test. The loop runs under the wrappers'
    errstate with invalid ignored instead of raised, so a failure adds no
    warning. Returns the best iterate, its achieved margin, the best bound
    and the Newton step count.
    """
    n_rows, dim, _ = rows.shape
    basis = _hermitian_basis(dim)
    basis_h, e = _basis_products(dim)
    d2 = dim * dim
    n = d2 + 1
    flat_rows = rows.reshape(n_rows, d2)
    a = (basis_h @ flat_rows.T).real.T * p_max
    # slacks s = G z - h of z = (y, t): the rows, then the trace bound;
    # column-major, since the BLAS products' bits depend on the layout and
    # tests/test_newton_reference.py's frozen kernel holds G column-major
    g_mat = np.empty((n_rows + 1, n), order="F")
    g_mat[:-1, :-1] = a
    np.negative(dn, out=g_mat[:-1, -1])
    np.negative(e, out=g_mat[-1, :-1])
    g_mat[-1, -1] = 0.0
    g_mat_t = g_mat.T
    y = e / (2 * dim)
    start = (a @ y - cn) / dn
    z = np.empty(n)
    z[:-1] = y
    z[-1] = start.min() - 1.0
    tau = float(np.sum(1.0 / (start - z[-1])))      # centred in t at the start
    # the slacks are carried along with z: near the optimum the active ones
    # are far smaller than the terms of g_mat @ z, whose rounding would
    # swamp them if they were recomputed, while each step's increment is
    # small too
    s = g_mat @ z - np.append(cn, -1.0)
    rhs_rows = np.zeros((2, n))
    rhs_rows[1, -1] = 1.0
    rhs = rhs_rows.T                # column 0 takes -grad, column 1 the unit t
    neg_grad = rhs_rows[0]
    logdet_grad = np.zeros(n)
    sol_rows = np.empty((2, n))     # the solve's two columns, as rows
    inv_s, mu = np.empty(n_rows + 1), np.empty(n_rows)
    dual = np.empty((1, d2), dtype=complex)     # sum_j mu_j*rows[j], flattened
    w, v = np.empty(dim), np.empty((dim, dim), dtype=complex)   # Y = V diag(w) V^H
    inv = np.empty((dim, dim), dtype=complex)
    inv_kron = np.empty((dim,) * 4, dtype=complex)
    hess = np.empty((n, n))
    dz = np.empty(n)
    ratios = np.empty(n_rows + 1 + dim)
    # the views that every step reads and writes
    z_y, s_rows, dz_y, inv_flat = z[:-1], s[:-1], dz[:-1], inv.ravel()
    sol, (dz_bar, dz_t) = sol_rows.T, sol_rows
    inv_rows, mu_row, dual_mat = inv_s[:-1], mu.reshape(1, n_rows), dual.reshape(dim, dim)
    kron_left, kron_right = inv[:, None, :, None], inv.T[:, None, :]
    kron_flat, hess_y, logdet_y = inv_kron.reshape(d2, d2), hess[:-1, :-1], logdet_grad[:-1]
    slack_ratios, eig_ratios = ratios[:n_rows + 1], ratios[n_rows + 1:]

    best_y, best_margin, best_bound = np.eye(dim) / (2 * dim), -np.inf, np.inf
    steps = 0
    with np.errstate(all="ignore"):
        while steps < opts.max_iter:
            y_mat = (basis @ z_y).reshape(dim, dim)
            _eigh(y_mat, out=(w, v))
            if not (s.min() > 0.0 and w[0] > 0.0):
                break           # the slacks have run out of precision
            margin = float((s_rows / dn).min() + z[-1])
            if margin > best_margin:
                best_margin, best_y = margin, y_mat
            np.divide(1.0, s, out=inv_s)
            np.divide(inv_rows, inv_rows @ dn, out=mu)
            np.dot(mu_row, flat_rows, out=dual)
            lam = float(_eigvalsh(dual_mat)[-1])
            if lam != lam:
                break           # LAPACK failed, where eigvalsh raised LinAlgError
            best_bound = min(best_bound, p_max * max(lam, 0.0) - float(mu @ cn))
            if best_margin >= -FEAS_TOL or best_bound < -FEAS_TOL:
                # _finish_designs can classify the pair; a full solve also
                # waits for the margin to converge
                if opts.certify_only:
                    break
                if best_bound - best_margin <= opts.gap_tol * (1.0 + abs(best_margin)):
                    break

            # the Hessian does not depend on tau: solve once for the barrier
            # and the objective parts of the step, then pick tau
            vh = v.conj().T
            np.matmul(v / w, vh, out=inv)
            np.matmul(g_mat_t / s ** 2, g_mat, out=hess)
            # kron(inv, inv.T), without np.kron's argument handling
            np.multiply(kron_left, kron_right, out=inv_kron)
            hess_y += (basis_h @ kron_flat @ basis).real
            logdet_y[:] = (basis_h @ inv_flat).real
            # -grad = G^T (1/s) + the log-det gradient
            np.add(g_mat_t @ inv_s, logdet_grad, out=neg_grad)
            _solve(hess, rhs, out=sol)
            # the decrement -(grad - tau*unit_t) @ dz reads -grad with tau
            # added to its t entry
            neg_grad_t = float(neg_grad[-1])
            np.multiply(dz_t, tau, out=dz)
            dz += dz_bar
            neg_grad[-1] = neg_grad_t + tau
            decrement = float(neg_grad @ dz)
            if decrement <= 1e-6:
                tau *= 30.0
                if n_rows + 1 + dim < 1e-12 * tau * (1.0 + abs(best_margin)):
                    break       # the central path's gap is below the slacks' precision
                np.multiply(dz_t, tau, out=dz)
                dz += dz_bar
                neg_grad[-1] = neg_grad_t + tau
                decrement = float(neg_grad @ dz)
            # a finite decrement has a finite dz: any other entry of dz
            # would make its dot product inf or NaN
            if not (math.isfinite(decrement) or np.isfinite(dz).all()):
                break
            # the barrier along dz in closed form, with the eigenvalues of
            # Y^-1/2 dY Y^-1/2: try alpha_0 * 0.5**k, from 0.99 of the way
            # to the boundary, until a step passes the Armijo test
            dy = vh @ (basis @ dz_y).reshape(dim, dim) @ v / np.sqrt(w[:, None] * w)
            g_dz = g_mat @ dz
            np.divide(g_dz, s, out=slack_ratios)
            _eigvalsh(dy, out=(eig_ratios,))
            alpha_0 = min(1.0, 0.99 / max(-float(ratios.min()), 1e-300))
            slope = -tau * float(dz[-1])
            for k in range(40):
                alpha = alpha_0 * 0.5 ** k
                if slope * alpha - np.log1p(alpha * ratios).sum() <= -0.01 * alpha * decrement:
                    break
            else:
                break
            z += alpha * dz
            s += alpha * g_dz
            steps += 1
    return p_max * best_y, best_margin, best_bound, steps


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
    steering = _steering_block(angles, dim)
    n_angles = steering.shape[1]
    ds = [1.0] * n_angles
    cs = [tbp_threshold] * n_angles
    u = np.empty((dim, n_angles + (link is not None)), dtype=complex)
    u[:, :n_angles] = steering
    if link is not None:
        u[:, -1] = link[0]
        ds.append(link[1])
        cs.append(link[1])
    sq_norms = np.sum(np.abs(u) ** 2, axis=0)
    # relative rank cut, so a g inside span{a(phi)} adds no direction
    left, sv, _ = np.linalg.svd(u / np.sqrt(sq_norms), full_matrices=False)
    q = left[:, sv > sv[0] * max(u.shape) * _EPS]
    c = q.conj().T @ u
    # ||u u^H||_F = ||u||^2, so rows keep the scaling of the full-space rows
    scales = np.sqrt(sq_norms ** 2 + np.square(ds))
    rows = np.einsum("in,jn->nij", c, c.conj()) / scales[:, None, None]
    x, margin, bound, steps = _newton_margin(
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
    return r, margin, bound, bool(measured >= -FEAS_TOL and report.passed)


@lru_cache(maxsize=256)
def _steering(phi: float, n_antennas: int) -> np.ndarray:
    """steering_vector, cached per (angle, array size); read-only."""
    a = steering_vector(phi, n_antennas)
    a.flags.writeable = False
    return a


@lru_cache(maxsize=64)
def _steering_block(angles: tuple, n_antennas: int) -> np.ndarray:
    """The steering vectors of ``angles`` as the columns of an (L, K) array;
    read-only."""
    block = np.stack([_steering(phi, n_antennas) for phi in angles], axis=1)
    block.flags.writeable = False
    return block


def tbp_quadratic(r, phi):
    """a(phi)^H R a(phi) of each covariance of r (..., L, L)."""
    a = _steering(float(phi), r.shape[-1])
    return np.real(a.conj() @ (r @ a)[..., None])[..., 0]


def _sinr_cap(lead, noise_uav, gamma_th, p_max):
    """Per-link SINR slack cap (p_max ||g||^2 - gamma sigma^2)/(gamma sigma^2),
    met by the full-budget matched-filter beam."""
    scale = gamma_th * noise_uav
    return (p_max * lead - scale) / scale


# the cases of _link_ladder, in its order; SOLVE: none holds
ZERO, BEAM, DEEP, CAP, SOLVE = range(5)


def _link_ladder(g, lead, noise_uav, gamma_th, tbp_threshold, angles, p_max,
                 opts: SdrOptions):
    """The closed-form cases of the transmit design with p_max, gamma_th > 0.

    ``g`` (E, L) holds each link's channel top mode and ``lead`` (E,) its
    ||g||^2. The first case that holds decides the link: a zero channel, whose
    SINR slack is pinned at -1; a beampattern-bound link, g^H r_tbp g (r_tbp
    the cached beampattern optimum) giving an SINR slack of at least r_tbp's
    margin, so dropping the SINR row costs nothing; a deep deficit, where the
    cap (p_max ||g||^2 - gamma sigma^2) / (gamma sigma^2) on the SINR slack of
    any covariance within the budget is below -FEAS_TOL and at most
    -tbp_threshold, the least a beampattern slack can be, so all power on g is
    optimal; and, certify-only, a cap below -FEAS_TOL. Returns each link's
    case and its dual bound, and the cached beampattern design.
    """
    tbp = _tbp_only_design(tuple(float(a) for a in angles), float(tbp_threshold),
                           float(p_max), g.shape[-1])
    r_tbp, tbp_margin, tbp_bound, _ = tbp
    scale = gamma_th * noise_uav
    sinr_slack = (np.vecdot(g, g @ r_tbp.T).real - scale) / scale
    sinr_cap = _sinr_cap(lead, noise_uav, gamma_th, p_max)
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
    themselves re-verify. The SINR floor and the power budget must be
    positive, as validate_config requires of a world.
    """
    h_eff = _herm(np.asarray(h_eff, dtype=complex))
    angles = tuple(float(a) for a in angles)
    if len(angles) == 0:
        raise ValueError("at least one sensing angle is required")
    if not (gamma_th > 0.0 and p_max > 0.0):
        raise ValueError(f"gamma_th and p_max must be positive, got "
                         f"{gamma_th} and {p_max}")
    problem = SdrProblem(h_eff=h_eff[None], noise_uav=float(noise_uav),
                         gamma_th=float(gamma_th),
                         tbp_threshold=float(tbp_threshold),
                         angles=angles, p_max=float(p_max))

    eigvals, eigvecs = np.linalg.eigh(h_eff)
    lead = float(eigvals[-1])
    g = eigvecs[:, -1] * np.sqrt(max(lead, 0.0))
    case, bound, tbp = _link_ladder(g[None], np.array([lead]), noise_uav,
                                    gamma_th, tbp_threshold, angles, p_max, opts)
    return _build_designs(case, bound, tbp[0], g[None], np.array([lead]),
                          problem, opts).take(0)


def _build_designs(case, bound, r_tbp, g, lead, problem: SdrProblem, opts):
    """The designs of links g (N, L), ||g||^2 ``lead`` (N,), from their
    _link_ladder cases, in array form: all power on g for DEEP, the Newton
    margin solve for SOLVE and the cached beampattern covariance r_tbp
    otherwise, finished by _finish_designs. ``problem.h_eff`` is (N, L, L)."""
    r_total = np.repeat(r_tbp[None], len(g), axis=0)
    deep = case == DEEP
    if deep.any():
        r_total[deep] = problem.p_max * _outer(g[deep]) / lead[deep, None, None]
    bound = np.array(bound, dtype=float)
    iterations = np.zeros(len(g), dtype=int)
    for k in np.flatnonzero(case == SOLVE):
        r_total[k], _, bound[k], iterations[k] = _solve_margin(
            problem.angles, problem.tbp_threshold, problem.p_max, g.shape[-1],
            (g[k], problem.gamma_th * problem.noise_uav), opts)
    return _finish_designs(r_total, g, problem, iterations, bound)


def _finish_designs(r_total, g, problem: SdrProblem, iterations, bound):
    """Split each total covariance (N, L, L), measure the returned matrices in
    one stacked pass and classify them: "feasible" needs the matrices to
    re-verify, "infeasible" needs the dual bound (N,). Returns the stack."""
    w_c, r_comm, r_sens = extract_rank_one(r_total, g)
    margin, report = _measure_design(r_comm, r_sens, problem)
    verified = (margin >= -FEAS_TOL) & report.passed
    # numerical_failure: neither certificate holds, however small the gap; a
    # list, as numpy's string where costs more than a small stack's loop
    status = np.array(["feasible" if ok else "infeasible" if low < -FEAS_TOL
                       else "numerical_failure"
                       for ok, low in zip(verified.tolist(), bound.tolist())])
    return TransmitDesign(r_comm, r_sens, w_c, margin, status, iterations,
                          bound, problem)


def _psd_clip(r: np.ndarray) -> np.ndarray:
    r = _herm(r)
    w, v = np.linalg.eigh(r)
    keep = w[..., :1] >= 0.0
    if keep.all():
        return r
    return np.where(keep[..., None], r, _herm(
        (v * np.maximum(w, 0.0)[..., None, :]) @ v.conj().swapaxes(-1, -2)))


def extract_rank_one(r_total, g):
    """Split a total covariance into an exactly rank-one communication beam
    w = R g / sqrt(g^H R g) and a sensing residual the receiver cannot see.

    Returns (w, w w^H, R - w w^H); the residual is PSD and g^H (R - w w^H) g
    = 0, so the split keeps every beampattern value and the SINR numerator.
    A stack r_total (..., L, L), g (..., L) is split link by link.
    """
    rg = (r_total @ g[..., None])[..., 0]
    gain = np.real(g.conj()[..., None, :] @ rg[..., None])[..., 0, 0]
    seen = gain > 0.0
    w_c = np.where(seen[..., None],
                   rg / np.sqrt(np.where(seen, gain, 1.0))[..., None], 0.0)
    r_comm = _outer(w_c)
    return w_c, r_comm, np.where(seen[..., None, None],
                                 _psd_clip(r_total - r_comm), r_total)


def _measure_design(r_comm, r_sens, problem: SdrProblem):
    """One pass over designs' matrices (..., L, L): the beampattern gains, the
    SINR traces and the power, read once and turned into both the worst slack
    in the margin program's own units and the signed relative residuals of
    verify_design. Returns (margin, DesignReport) over the leading axes."""
    pair = np.array((r_comm, r_sens))
    total = r_comm + r_sens
    gamma_th = problem.gamma_th
    n_angles = len(problem.angles)
    # the beampattern slacks, then the SINR slack when there is a floor
    slacks = np.empty((*total.shape[:-2], n_angles + (gamma_th > 0)))
    for k, phi in enumerate(problem.angles):
        slacks[..., k] = tbp_quadratic(total, phi) - problem.tbp_threshold
    tbp_res = slacks[..., :n_angles] / max(abs(problem.tbp_threshold), 1e-300)

    if gamma_th > 0:
        # both traces from one stacked product, slice by slice
        num, den = (pair @ problem.h_eff).trace(axis1=-2, axis2=-1).real
        den = den + problem.noise_uav
        slacks[..., -1] = (num - gamma_th * den) / (gamma_th * problem.noise_uav)
        sinr_res = (num / den - gamma_th) / gamma_th
    else:
        sinr_res = np.zeros(total.shape[:-2])

    power = total.trace(axis1=-2, axis2=-1).real
    power_res = (problem.p_max - power) / max(problem.p_max, 1e-300)

    lowest = np.linalg.eigvalsh(_herm(pair))[..., 0]
    psd_res = np.minimum(lowest[0], lowest[1]) / np.maximum(power, 1.0e-30)

    passed = ((tbp_res.min(axis=-1) >= -VERIFY_TOL) & (sinr_res >= -VERIFY_TOL)
              & (power_res >= -VERIFY_TOL) & (psd_res >= -PSD_TOL))
    return slacks.min(axis=-1), DesignReport(
        tbp_residuals=tbp_res, sinr_residual=sinr_res,
        power_residual=power_res, psd_residual=psd_res, passed=passed)


def verify_design(design: TransmitDesign, h_eff, noise_uav, gamma_th,
                  tbp_threshold, angles, p_max) -> DesignReport:
    """Independent constraint check straight from the matrices.

    Beampattern gains are evaluated per angle, the SINR through the trace
    identity, and the power sum directly; residuals are signed and relative.
    A stack of designs is checked link by link, with h_eff (N, L, L).
    """
    problem = SdrProblem(h_eff=np.asarray(h_eff), noise_uav=noise_uav,
                         gamma_th=gamma_th, tbp_threshold=tbp_threshold,
                         angles=tuple(angles), p_max=p_max)
    return _measure_design(np.asarray(design.r_comm), np.asarray(design.r_sens),
                           problem)[1]


def _chain_gains(uav_positions, scenario, rng):
    """g = h^H f (..., E, L) and ||g||^2 (..., E) of each chain link, UAV m
    to UAV m + 1 in chain order, for positions (..., M, 3): one Rician draw
    per link from one rng call, in the order of the leading axes, none for a
    single UAV; co-located transceivers are clamped to the 1 m reference
    distance."""
    cfg = scenario.config
    positions = np.asarray(uav_positions, dtype=float)
    tx, rx = positions[..., :-1, :], positions[..., 1:, :]
    diff = tx - rx
    close = np.sqrt(np.vecdot(diff, diff)) < 1.0
    ref = np.where(close[..., None], tx + np.array([1.0, 0.0, 0.0]), rx)
    h = sample_rician_channel(tx, ref, cfg.rician_k, cfg.beta_ref,
                              cfg.n_antennas, rng)
    g = h.conj().swapaxes(-1, -2) @ scenario.rx_combiner
    return g, np.vecdot(g, g).real


def _isac_links(g, lead, scenario, opts: SdrOptions, build: bool):
    """One _link_ladder pass over chain links g (N, L), ||g||^2 ``lead`` (N,).
    Returns (feasible (N,) bool, designs): the stack of every link's design
    in chain order when ``build``, else of the SOLVE links', built by
    _build_designs, or None when it would be empty. A case that keeps r_tbp
    is feasible iff r_tbp re-verified when cached: its split w = R g /
    sqrt(g^H R g) leaves a PSD residual (a Schur complement) that the
    receiver cannot see."""
    cfg = scenario.config
    case, bound, (r_tbp, _, _, tbp_ok) = _link_ladder(
        g, lead, cfg.noise_uav, cfg.gamma_th_uav, cfg.tbp_threshold,
        cfg.sensing_angles, cfg.p_max, opts)
    feasible = tbp_ok & (case == BEAM)
    links = np.arange(len(g)) if build else np.flatnonzero(case == SOLVE)
    if not len(links):
        return feasible, None
    problem = SdrProblem(
        h_eff=_herm(_outer(g[links])), noise_uav=cfg.noise_uav,
        gamma_th=cfg.gamma_th_uav, tbp_threshold=cfg.tbp_threshold,
        angles=cfg.sensing_angles, p_max=cfg.p_max)
    designs = _build_designs(case[links], bound[links], r_tbp, g[links],
                             lead[links], problem, opts)
    feasible[links] = designs.feasible
    return feasible, designs


def _separated_links(g, lead, scenario, build: bool):
    """_isac_links for the split-array variant: sensing on a dedicated radar
    aperture, communication on the full-budget matched-filter beam w =
    sqrt(p_max) g/||g||, optimal with no covariance sharing. A link's margin
    is then its SINR cap, feasible iff it clears -FEAS_TOL; the sensing floor
    is met off-array. Designs: the stack of every link's when ``build``, else
    (or with no link) None."""
    cfg = scenario.config
    margin = _sinr_cap(lead, cfg.noise_uav, cfg.gamma_th_uav, cfg.p_max)
    feasible = margin >= -FEAS_TOL
    if not (build and len(g)):
        return feasible, None
    w = np.sqrt(cfg.p_max) * g / np.sqrt(np.where(lead > 0, lead, np.inf))[:, None]
    r_comm = _outer(w)
    return feasible, TransmitDesign(
        r_comm=r_comm, r_sens=np.zeros_like(r_comm), w_c=w, margin=margin,
        solver_status=np.where(feasible, "feasible", "infeasible"),
        iterations=np.zeros(len(g), dtype=int), dual_bound=margin,
        problem=SdrProblem(h_eff=_outer(g), noise_uav=cfg.noise_uav,
                           gamma_th=cfg.gamma_th_uav, tbp_threshold=0.0,
                           angles=cfg.sensing_angles, p_max=cfg.p_max))


def link_feasibility_sweep(uav_positions, scenario, rng,
                           opts: SdrOptions = SdrOptions(),
                           separated: bool = False, build: bool = True):
    """Decide every chain link, UAV m to UAV m + 1, of one slot's formation
    (M, 3) or a block of slots' (S, M, 3), on fresh fading draws from
    ``rng``: by the shared-array design, or by the split-array one when
    ``separated``. Returns (feasible (..., E) bool, designs): the stack of
    every link's design, slot by slot in chain order, when ``build``, else of
    those that a Newton solve built; None when no link has one. Verdicts and
    rng use depend on neither ``build`` nor the blocking."""
    g, lead = _chain_gains(uav_positions, scenario, rng)
    shape, g, lead = lead.shape, g.reshape(-1, g.shape[-1]), lead.ravel()
    feasible, designs = (_separated_links(g, lead, scenario, build) if separated
                         else _isac_links(g, lead, scenario, opts, build))
    return feasible.reshape(shape), designs


def separated_link_sweep(uav_positions, scenario, rng):
    """link_feasibility_sweep of the split-array variant."""
    return link_feasibility_sweep(uav_positions, scenario, rng, separated=True)
