"""Propagation models.

Air-to-ground links use a probabilistic line-of-sight model: the LoS
probability grows with elevation angle as 1/(1 + C*exp(-D*(theta - C))) and
the expected amplitude gain is P_los*sqrt(beta)/d + (1-P_los)*kappa*sqrt(beta)/d.
Squared gain is used as channel power in every SINR expression.

Inter-UAV links use a Rician channel over a vertical uniform linear array;
with all UAVs at one altitude the LoS part is the scaled all-ones matrix.
"""

from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class UplinkSinrReport:
    """Per-(UAV, MD) uplink SINR for one slot's schedule."""

    sinr: np.ndarray      # (M, I) linear; nonzero only where served
    serving: np.ndarray   # (M,) MD index per UAV, -1 for idle


def elevation_angle(q_uav, u_md) -> float:
    """Elevation angle in degrees from the device to the UAV, in [-90, 90]."""
    q = np.asarray(q_uav, dtype=float)
    u = np.asarray(u_md, dtype=float)
    d = np.linalg.norm(q - u)
    if d == 0.0:
        raise ValueError("coincident UAV and MD positions")
    return float(np.degrees(np.arcsin((q[2] - u[2]) / d)))


def los_probability(theta_deg, c, d):
    """LoS probability at elevation angle theta (degrees); strictly in (0, 1)."""
    return 1.0 / (1.0 + c * np.exp(-d * (np.asarray(theta_deg, dtype=float) - c)))


def expected_md_channel(q_uav, u_md, beta, kappa, c, d) -> float:
    """Expected amplitude gain of the UAV-MD link (downstream power is gain**2)."""
    q = np.asarray(q_uav, dtype=float)
    u = np.asarray(u_md, dtype=float)
    dist = np.linalg.norm(q - u)
    if dist == 0.0:
        raise ValueError("coincident UAV and MD positions")
    p_los = los_probability(np.degrees(np.arcsin((q[2] - u[2]) / dist)), c, d)
    return float((p_los + (1.0 - p_los) * kappa) * np.sqrt(beta) / dist)


def md_gain_matrix(uav_pos, md_pos, beta, kappa, c, d) -> np.ndarray:
    """Expected amplitude gains, shape (..., M, I) for UAV positions (..., M, 3)."""
    q = np.asarray(uav_pos, dtype=float)[..., :, None, :]
    diff = q - np.asarray(md_pos, dtype=float)
    dx, dy, dz = diff[..., 0], diff[..., 1], diff[..., 2]
    # the terms in the order a sum over the last axis adds them, without
    # its reduction overhead
    dist = np.sqrt(dx * dx + dy * dy + dz * dz)
    if np.count_nonzero(dist == 0.0):
        raise ValueError("coincident UAV and MD positions")
    theta = np.degrees(np.arcsin(dz / dist))
    p_los = los_probability(theta, c, d)
    return (p_los + (1.0 - p_los) * kappa) * np.sqrt(beta) / dist


def uplink_sinr(gain2, serving, p_md, noise_md) -> np.ndarray:
    """SINR of each UAV's scheduled uplink, shape (B, M); 0 where idle.

    ``gain2`` holds squared gains (B, M, I) and ``serving`` (B, M) the MD each
    UAV schedules (-1 for none). The interference at UAV m is summed over the
    other served MDs in UAV order, so every batch size gives the same bits.
    """
    n_fleets, m_count = serving.shape
    active = serving >= 0
    if not np.count_nonzero(active):
        return np.zeros(serving.shape)
    # power[b, m, k]: received power at UAV m from the MD that UAV k serves
    power = p_md * gain2[np.arange(n_fleets)[:, None, None],
                         np.arange(m_count)[:, None],
                         np.maximum(serving, 0)[:, None, :]]
    others = active[:, None, :] & ~np.eye(m_count, dtype=bool)
    interference = np.cumsum(np.where(others, power, 0.0), axis=-1)[..., -1]
    own = np.diagonal(power, axis1=1, axis2=2)
    return np.where(active, own / (interference + noise_md), 0.0)


def md_uplink_sinr(uav_pos, md_pos, serving, p_md, noise_md,
                   beta, kappa, c, d) -> UplinkSinrReport:
    """Uplink SINR per served (UAV, MD) pair under inter-cell interference.

    ``serving[m]`` is the MD index scheduled by UAV m (-1 for none); each UAV
    serves at most one MD by construction and an MD may appear at most once.
    """
    serving = np.asarray(serving, dtype=int)
    active = serving[serving >= 0]
    if len(np.unique(active)) != len(active):
        raise ValueError("schedule assigns one MD to several UAVs")

    gain2 = md_gain_matrix(uav_pos, md_pos, beta, kappa, c, d) ** 2
    sinr = np.zeros_like(gain2)
    served = np.flatnonzero(serving >= 0)
    sinr[served, serving[served]] = uplink_sinr(gain2[None], serving[None],
                                                p_md, noise_md)[0, served]
    return UplinkSinrReport(sinr=sinr, serving=serving)


def steering_vector(phi, n_antennas) -> np.ndarray:
    """ULA steering vector: element l is exp(j*pi*l*sin(phi))."""
    return np.exp(1j * np.pi * np.arange(n_antennas) * np.sin(phi))


def tbp_gain(r_total, phi) -> float:
    """Transmit beampattern gain a(phi)^H R a(phi) of a Hermitian PSD covariance."""
    r = np.asarray(r_total)
    if not np.allclose(r, r.conj().T, atol=HERMITIAN_TOL * max(1.0, np.abs(r).max())):
        raise ValueError("covariance must be Hermitian")
    a = steering_vector(phi, r.shape[0])
    return float(np.real(a.conj() @ (r @ a)))


def sample_rician_channel(q_a, q_b, rician_k, beta, n_antennas,
                          rng: np.random.Generator) -> np.ndarray:
    """Rician fading draws of the inter-UAV MIMO channel, shape (..., L, L)
    for positions (..., 3).

    Both the all-ones LoS part and the unit-variance scattered part carry the
    large-scale amplitude sqrt(beta)/d, so the channel scale decays as 1/d.
    One ``standard_normal`` call fills every link's real part, then its
    imaginary part, link after link, so a batch takes the same stream and
    gives the same bits as one call per link in batch order.
    """
    diff = np.asarray(q_a, float) - np.asarray(q_b, float)
    # vecdot sums like the dot product of np.linalg.norm on one vector
    d = np.sqrt(np.vecdot(diff, diff))
    if (d == 0.0).any():
        raise ValueError("coincident UAV positions")
    draws = rng.standard_normal((*d.shape, 2, n_antennas, n_antennas))
    los = np.ones((n_antennas, n_antennas), dtype=complex)
    nlos = (draws[..., 0, :, :] + 1j * draws[..., 1, :, :]) / np.sqrt(2.0)
    w_los = np.sqrt(rician_k / (rician_k + 1.0))
    w_nlos = np.sqrt(1.0 / (rician_k + 1.0))
    return (np.sqrt(beta) / d)[..., None, None] * (w_los * los + w_nlos * nlos)


def inter_uav_sinr(h, w_c, r_s, f, noise_uav) -> float:
    """Receive SINR |f^H H w_c|^2 / (f^H H R_s H^H f + sigma^2)."""
    h = np.asarray(h)
    f = np.asarray(f)
    num = np.abs(f.conj() @ (h @ np.asarray(w_c))) ** 2
    hf = h.conj().T @ f
    den = float(np.real(hf.conj() @ (np.asarray(r_s) @ hf))) + noise_uav
    return float(num / den)


def effective_channel(h, f) -> np.ndarray:
    """Rank-one effective channel H^H f f^H H seen through the receive combiner."""
    g = np.asarray(h).conj().T @ np.asarray(f)
    return np.outer(g, g.conj())
