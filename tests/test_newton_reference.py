"""The Newton transmit-design kernel against a frozen copy of its earlier form.

``reference_newton_margin`` is ``isac_sdr._newton_margin`` as it stood before
its per-step work was rewritten with fewer numpy calls: ``np.kron``,
``np.tensordot``, ``np.append`` and ``np.column_stack`` in every step, and
all 40 Armijo candidates evaluated at once. The rewrite does the same IEEE
operations in the same order, so each solve below must give the same
covariance, margin, dual bound and step count, bit for bit.
"""

import numpy as np
import pytest

from test_isac_sdr import (ANGLES, CERTIFY, GAMMA_LIN, L, LADDER_M, P_MAX,
                           TABLE_M, full_space_rows, make_h_eff, solve)
from uavisac import isac_sdr
from uavisac.isac_sdr import FEAS_TOL, SdrOptions, _hermitian_basis


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
