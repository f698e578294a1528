"""The Newton transmit-design kernel against a frozen copy of its earlier form.

``reference_newton_margin`` is ``isac_sdr._newton_margin`` as it stood before
its per-step work was rewritten with fewer numpy calls: ``np.kron``,
``np.tensordot``, ``np.append`` and ``np.column_stack`` in every step, and
all 40 Armijo candidates evaluated at once. The rewrite does the same IEEE
operations in the same order, so each solve below must give the same
covariance, margin, dual bound and step count, bit for bit. The kernel now
reaches LAPACK through numpy's gufuncs rather than np.linalg, so a LAPACK
failure must also end both kernels at the same point, and the gufuncs must
give np.linalg's bits.
"""

import itertools
import warnings

import numpy as np
import pytest

from test_isac_sdr import (ANGLES, CERTIFY, GAMMA_LIN, L, LADDER_M, P_MAX,
                           TABLE_M, full_space_rows, make_h_eff, solve)
from uavisac import drl_mappo, isac_sdr
from uavisac.drl_mappo import MappoConfig, train
from uavisac.isac_sdr import FEAS_TOL, SdrOptions, _hermitian_basis
from uavisac.mdp_env import score_links
from uavisac.scenario import ScenarioConfig, build_scenario, db_to_linear


def reference_newton_margin(rows, dn, cn, p_max, opts: SdrOptions):
    """Frozen: the kernel before the per-step rewrite, returning also its
    convergence flag, which no caller read."""
    n_rows, dim, _ = rows.shape
    basis = _hermitian_basis(dim)
    basis_h = basis.conj().T
    a = (basis_h @ rows.reshape(n_rows, dim * dim).T).real.T * p_max
    e = (basis_h @ np.eye(dim).ravel()).real
    g_mat = np.vstack([np.column_stack([a, -dn]), np.append(-e, 0.0)])
    h = np.append(cn, -1.0)
    y = e / (2 * dim)
    start = (a @ y - cn) / dn
    z = np.append(y, start.min() - 1.0)
    tau = float(np.sum(1.0 / (start - z[-1])))
    unit_t = np.eye(len(z))[-1]

    best_y, best_margin, best_bound = np.eye(dim) / (2 * dim), -np.inf, np.inf
    converged, steps = False, 0
    s = g_mat @ z - h
    try:
        while steps < opts.max_iter:
            y_mat = (basis @ z[:-1]).reshape(dim, dim)
            w, v = np.linalg.eigh(y_mat)
            if not (s.min() > 0.0 and w[0] > 0.0):
                break
            margin = np.min(s[:-1] / dn) + z[-1]
            if margin > best_margin:
                best_margin, best_y = margin, y_mat
            mu = 1.0 / s[:-1]
            mu /= mu @ dn
            lam = np.linalg.eigvalsh(np.tensordot(mu, rows, 1))[-1]
            best_bound = min(best_bound, p_max * max(lam, 0.0) - mu @ cn)
            if best_margin >= -FEAS_TOL or best_bound < -FEAS_TOL:
                if opts.certify_only:
                    break
                if best_bound - best_margin <= opts.gap_tol * (1.0 + abs(best_margin)):
                    converged = True
                    break

            inv = (v / w) @ v.conj().T
            hess = (g_mat.T / s ** 2) @ g_mat
            hess[:-1, :-1] += (basis_h @ np.kron(inv, inv.T) @ basis).real
            grad = -(g_mat.T @ (1.0 / s)) - np.append((basis_h @ inv.ravel()).real, 0.0)
            dz_bar, dz_t = np.linalg.solve(hess, np.column_stack([-grad, unit_t])).T
            if -(grad - tau * unit_t) @ (dz_bar + tau * dz_t) <= 1e-6:
                tau *= 30.0
                if len(s) + dim < 1e-12 * tau * (1.0 + abs(best_margin)):
                    break
            dz = dz_bar + tau * dz_t
            decrement = -(grad - tau * unit_t) @ dz
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
        pass
    return p_max * best_y, best_margin, best_bound, steps, converged


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture
def compared(monkeypatch):
    """Route every kernel call through both kernels; yields the list of
    (inputs, result, reference result) the calls leave behind."""
    calls = []
    kernel = isac_sdr._newton_margin

    def both(rows, dn, cn, p_max, opts):
        out = kernel(rows, dn, cn, p_max, opts)
        calls.append(((rows.shape, p_max, opts), out,
                      reference_newton_margin(rows, dn, cn, p_max, opts)))
        return out

    monkeypatch.setattr(isac_sdr, "_newton_margin", both)
    return calls


def assert_identical(calls, min_calls=1):
    assert len(calls) >= min_calls
    for k, (inputs, out, ref) in enumerate(calls):
        x, margin, bound, steps = out
        assert same_bits(x, ref[0]), (k, inputs)
        assert same_bits(margin, ref[1]), (k, inputs, margin, ref[1])
        assert same_bits(bound, ref[2]), (k, inputs, bound, ref[2])
        assert steps == ref[3], (k, inputs, steps, ref[3])


BAND_M = tuple(d for d in TABLE_M if 1300.0 <= d <= 1800.0)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("mode", ["full", "certify"])
def test_table_ladders(compared, seed, mode):
    opts = SdrOptions() if mode == "full" else CERTIFY
    for d in TABLE_M:
        solve(make_h_eff(d, seed=seed, label="ladder"), opts=opts)
    assert_identical(compared, min_calls=10)


@pytest.mark.parametrize("seed", [0, 2])
@pytest.mark.parametrize("opts", [SdrOptions(), CERTIFY])
def test_full_space_rows(compared, seed, opts):
    # dimension L = 12 rows, solved without the span compression
    for d in LADDER_M:
        h = make_h_eff(d, seed=seed, label="parity")
        isac_sdr._newton_margin(*full_space_rows(h, 10 ** 0.8), P_MAX, opts)
    assert_identical(compared, min_calls=len(LADDER_M))


@pytest.mark.parametrize("opts", [SdrOptions(), CERTIFY, SdrOptions(gap_tol=0.0)])
def test_rank_k_channel(compared, opts):
    # g inside span{a(phi_k)}: the compressed dimension is K, not K + 1
    for d in (1400.0, 1500.0, 1700.0):
        solve(make_h_eff(d, seed=0, rician_k=1e40, label="parity"), opts=opts)
    assert_identical(compared)


def test_zero_gap_tolerance(compared):
    # tau grows until the slacks or the central path run out of precision
    for seed in range(3):
        for d in BAND_M:
            solve(make_h_eff(d, seed=seed, label="ladder"),
                  opts=SdrOptions(gap_tol=0.0))
    assert_identical(compared, min_calls=10)


@pytest.mark.parametrize("k", [1e-12, 1e-30])
@pytest.mark.parametrize("opts", [SdrOptions(), CERTIFY, SdrOptions(gap_tol=0.0)])
def test_tiny_power_budget(compared, k, opts):
    for d in BAND_M:
        solve(make_h_eff(d, seed=0), p_max=P_MAX * k, tbp=GAMMA_LIN * k,
              gamma_lin=10 ** 0.8 * k, opts=opts)
    assert_identical(compared)


@pytest.mark.parametrize("certify_only", [False, True])
def test_one_step_cap(compared, certify_only):
    for d in BAND_M:
        solve(make_h_eff(d, seed=1, label="ladder"),
              opts=SdrOptions(max_iter=1, certify_only=certify_only))
    assert_identical(compared, min_calls=len(BAND_M))
    assert all(out[3] <= 1 for _, out, _ in compared)


@pytest.mark.parametrize("angles", [ANGLES, ANGLES[1:], ANGLES[:1]])
def test_beampattern_solve(compared, angles):
    # the link-independent design that _tbp_only_design caches
    isac_sdr._solve_margin(angles, GAMMA_LIN, P_MAX, L, None, isac_sdr._TBP_OPTS)
    assert_identical(compared, min_calls=1)


# -- LAPACK failures ------------------------------------------------------------

def band_inputs():
    """The kernel inputs of a full and a certify-only band solve, without the
    beampattern solve that the first solve of a process makes."""
    calls = []
    kernel = isac_sdr._newton_margin

    def recorded(*args):
        calls.append(args)
        return kernel(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(isac_sdr, "_newton_margin", recorded)
        for opts in (SdrOptions(), CERTIFY):
            solve(make_h_eff(1500.0, seed=0, label="ladder"), opts=opts)
    links = [(args[:4], args[4]) for args in calls
             if args[4] is not isac_sdr._TBP_OPTS]
    assert [opts for _, opts in links] == [SdrOptions(), CERTIFY]
    return links


def failing_gufunc(gufunc, fail_at, hits):
    """``gufunc`` whose call number ``fail_at`` (from 0) fails as a LAPACK
    failure does: every output filled with NaN and the invalid flag raised."""
    count = itertools.count()

    def call(*args, **kwargs):
        out = gufunc(*args, **kwargs)
        if next(count) != fail_at:
            return out
        hits.append(fail_at)
        nan = np.multiply(np.inf, 0.0)      # raises the invalid flag
        for array in out if isinstance(out, tuple) else (out,):
            array[...] = nan
        return out
    return call


def raising_linalg(function, fail_at, hits):
    """np.linalg ``function`` whose call number ``fail_at`` raises LinAlgError."""
    count = itertools.count()

    def call(*args, **kwargs):
        if next(count) == fail_at:
            hits.append(fail_at)
            raise np.linalg.LinAlgError("injected")
        return function(*args, **kwargs)
    return call


# the kernel's gufunc handle and the np.linalg call of the frozen reference;
# eigvalsh is called twice a step, for the dual bound and then for the step
HANDLES = {"_eigh": "eigh", "_eigvalsh": "eigvalsh", "_solve": "solve"}


@pytest.mark.parametrize("handle, fail_at", [
    ("_eigh", 0), ("_eigh", 6), ("_eigh", 25),
    ("_eigvalsh", 0), ("_eigvalsh", 1), ("_eigvalsh", 12), ("_eigvalsh", 13),
    ("_eigvalsh", 40), ("_eigvalsh", 41),
    ("_solve", 0), ("_solve", 9), ("_solve", 24)])
def test_lapack_failure_ends_the_solve_where_linalg_error_did(handle, fail_at,
                                                               monkeypatch):
    for (rows, dn, cn, p_max), opts in band_inputs():
        kernel_hits, reference_hits = [], []
        with monkeypatch.context() as mp:
            mp.setattr(isac_sdr, handle, failing_gufunc(
                getattr(isac_sdr, handle), fail_at, kernel_hits))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = isac_sdr._newton_margin(rows, dn, cn, p_max, opts)
        name = HANDLES[handle]
        with monkeypatch.context() as mp:
            mp.setattr(np.linalg, name, raising_linalg(
                getattr(np.linalg, name), fail_at, reference_hits))
            ref = reference_newton_margin(rows, dn, cn, p_max, opts)
        assert kernel_hits == reference_hits
        assert_identical([((rows.shape, p_max, opts), out, ref)])
        # the full solve reaches every injected failure; a certify-only
        # solve may stop before it
        assert kernel_hits == [fail_at] or opts.certify_only


# -- the private gufuncs ------------------------------------------------------------

def hermitian_stack(rng, count, dim):
    a = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    return a @ a.conj().swapaxes(-1, -2) + np.eye(dim)


@pytest.mark.parametrize("dim", [4, 12])
def test_hermitian_gufuncs_give_the_linalg_bits(dim):
    # numpy's wrappers call the same gufuncs; a numpy whose private module
    # changes must fail here rather than in a bit comparison downstream
    rng = np.random.default_rng(dim)
    stack = hermitian_stack(rng, 6, dim)
    for a in (stack, stack[0], stack[1]):
        w_ref, v_ref = np.linalg.eigh(a)
        w, v = isac_sdr._eigh(a)
        assert same_bits(w, w_ref) and same_bits(v, v_ref)
        # written into buffers, as the kernel calls them
        w, v = np.empty_like(w_ref), np.empty_like(v_ref)
        isac_sdr._eigh(a, out=(w, v))
        assert same_bits(w, w_ref) and same_bits(v, v_ref)
        w_ref = np.linalg.eigvalsh(a)
        assert same_bits(isac_sdr._eigvalsh(a), w_ref)
        w = np.empty_like(w_ref)
        isac_sdr._eigvalsh(a, out=(w,))
        assert same_bits(w, w_ref)


@pytest.mark.parametrize("dim", [5, 17])
def test_solve_gufunc_gives_the_linalg_bits(dim):
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((6, dim, dim))
    spd = a @ a.swapaxes(-1, -2) + np.eye(dim)
    rhs = rng.standard_normal((6, dim, 2))
    for m, b in ((spd, rhs), (spd[0], rhs[0]), (spd[0], np.ascontiguousarray(rhs[0].T).T)):
        x_ref = np.linalg.solve(m, b)
        assert same_bits(isac_sdr._solve(m, b), x_ref)
        # into the transposed rows the kernel reads its two columns from
        x = np.empty(x_ref.swapaxes(-1, -2).shape).swapaxes(-1, -2)
        isac_sdr._solve(m, b, out=x)
        assert same_bits(np.ascontiguousarray(x), x_ref)


# -- the program's own kernel calls -------------------------------------------------

def test_link_scoring_of_a_22_db_flight(compared, monkeypatch):
    # tools/same_outputs.py's LINK_WORLD: the default world with a 22 dB
    # inter-UAV SINR floor. The untrained policy keeps its UAVs close enough
    # that every chain link is beampattern-bound; after the first PPO update
    # (rollout 256) the second episode's links reach the kernel
    world = build_scenario(ScenarioConfig(gamma_th_uav=db_to_linear(22.0), seed=0))
    flights = []
    scored = drl_mappo.score_links

    def recorded(flight, scenario, seed, **kwargs):
        flights.append((flight, seed))
        return scored(flight, scenario, seed, **kwargs)

    monkeypatch.setattr(drl_mappo, "score_links", recorded)
    train(world, MappoConfig(max_episodes=2, rollout=256))
    trained = len(compared)
    flight, seed = flights[-1]          # views of the last episode's rows
    list(score_links(flight, world, seed, separated=False, build=True))
    assert trained >= 10 and len(compared) > trained
    assert_identical(compared)
