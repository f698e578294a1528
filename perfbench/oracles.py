"""Output checks written apart from the program.

Every check here recomputes what it needs with its own numpy code from the
program's outputs (matrices, CSV rows, curves) and returns a list of
problems; an empty list means the output passed. None of them calls the
program's own verifiers (``verify_design``, ``check_constraints``).
"""

import math

import numpy as np

# twice the program's own verify tolerance, so that rounding differences
# between the two computations cannot flip a verdict at the boundary
REL_TOL = 2e-6          # relative slack on floors, SINR and power
PSD_TOL = 1e-8          # eigenvalue floor, relative to the total trace
CSV_ABS_TOL = 2e-6      # energy_j is written with six decimals
HARD_COUNTERS = ("v_md_exclusivity", "v_power", "v_psd", "v_tbp",
                 "v_min_distance")
OFFLINE_METHODS = ("greedy_offline", "pso", "ga")


# -- transmit design ---------------------------------------------------------

def ula_steering(phi, n):
    return np.exp(1j * np.pi * np.arange(n) * np.sin(phi))


def leading_mode(h_eff):
    """(lambda_max, g) with h_eff ~= g g^H for a rank-one effective channel."""
    h = 0.5 * (np.asarray(h_eff) + np.asarray(h_eff).conj().T)
    w, v = np.linalg.eigh(h)
    return float(w[-1]), v[:, -1] * math.sqrt(max(float(w[-1]), 0.0))


def design_problems(r_comm, r_sens, w_c, h_eff, noise, gamma, tbp_floor,
                    angles, p_max):
    """Re-check a design reported feasible straight from its matrices."""
    problems = []
    r_comm = np.asarray(r_comm, dtype=complex)
    r_sens = np.asarray(r_sens, dtype=complex)
    w_c = np.asarray(w_c, dtype=complex)
    total = r_comm + r_sens
    n = total.shape[0]
    for phi in angles:
        a = ula_steering(phi, n)
        gain = float(np.real(a.conj() @ total @ a))
        if gain < tbp_floor * (1.0 - REL_TOL):
            problems.append(f"beampattern {gain:.6g} below floor {tbp_floor:.6g} "
                            f"at {math.degrees(phi):.1f} deg")
    _, g = leading_mode(h_eff)
    signal = float(np.real(g.conj() @ r_comm @ g))
    leak = float(np.real(g.conj() @ r_sens @ g))
    sinr = signal / (leak + noise)
    if sinr < gamma * (1.0 - REL_TOL):
        problems.append(f"SINR {sinr:.6g} below {gamma:.6g}")
    power = float(np.real(np.trace(total)))
    if power > p_max * (1.0 + REL_TOL):
        problems.append(f"trace {power:.6g} above p_max {p_max:.6g}")
    scale = max(power, 1e-30)
    for label, r in (("r_comm", r_comm), ("r_sens", r_sens)):
        if np.abs(r - r.conj().T).max() > 1e-9 * scale:
            problems.append(f"{label} not Hermitian")
        low = float(np.linalg.eigvalsh(0.5 * (r + r.conj().T))[0])
        if low < -PSD_TOL * scale:
            problems.append(f"{label} not PSD (eigenvalue {low:.3g})")
    outer = np.outer(w_c, w_c.conj())
    if np.linalg.norm(r_comm - outer) > 1e-9 * max(np.linalg.norm(r_comm), 1e-30):
        problems.append("r_comm is not w_c w_c^H")
    return problems


def sinr_cap_infeasible(h_eff, noise, gamma, p_max) -> bool:
    """True when p_max * lambda_max(h_eff) < gamma * noise: no design can work."""
    lam, _ = leading_mode(h_eff)
    return p_max * lam < gamma * noise


def ladder_problems(gains, feasible):
    """Decisions must be monotone in path gain: once feasible, feasible above."""
    order = np.argsort(np.asarray(gains, dtype=float), kind="stable")
    flags = [bool(feasible[k]) for k in order]
    for lo, hi in zip(range(len(flags) - 1), range(1, len(flags))):
        if flags[lo] and not flags[hi]:
            return [f"feasible at gain {gains[order[lo]]:.4g} but infeasible "
                    f"at larger gain {gains[order[hi]]:.4g}"]
    return []


# -- missions ----------------------------------------------------------------

def rotary_wing_power(v, p):
    """Propulsion power in W at level speed v; ``p`` holds the model constants."""
    blade = p["p0_blade"] * (1.0 + 3.0 * v * v / p["tip_speed"] ** 2)
    v0sq = p["mean_rotor_induced_velocity"] ** 2
    induced = p["pi_induced"] * math.sqrt(
        math.sqrt(1.0 + v ** 4 / (4.0 * v0sq * v0sq)) - v * v / (2.0 * v0sq))
    parasite = (0.5 * p["fuselage_drag_ratio"] * p["air_density"]
                * p["rotor_solidity"] * p["rotor_disc_area"] * v ** 3)
    return blade + induced + parasite


def energy_bounds(m_uavs, time_s, v_fixed, p, circuit_w=0.0):
    """[M T P_hover, M T P_fly] (+ circuit draw) for a mission of time_s seconds."""
    hover = rotary_wing_power(0.0, p)
    fly = rotary_wing_power(v_fixed, p)
    lo, hi = sorted((hover, fly))
    extra = circuit_w * m_uavs * time_s
    return m_uavs * time_s * lo + extra, m_uavs * time_s * hi + extra


def row_problems(row, num_mds, v_fixed, p, circuit_w):
    """Checks on one results.csv row (strings, as the CSV reader returns them)."""
    problems = []
    m = int(row["value"])
    time_s = float(row["time_s"])
    energy = float(row["energy_j"])
    extra = circuit_w if row["method"] == "drl_sc" else 0.0
    lo, hi = energy_bounds(m, time_s, v_fixed, p, extra)
    tol = CSV_ABS_TOL + 1e-9 * hi
    if not lo - tol <= energy <= hi + tol:
        problems.append(f"{row['method']} M={m}: energy {energy:.6f} outside "
                        f"propulsion bounds [{lo:.6f}, {hi:.6f}]")
    if int(row["success"]) and int(row["collected"]) != num_mds:
        problems.append(f"{row['method']} M={m}: success with "
                        f"{row['collected']}/{num_mds} collected")
    for key in HARD_COUNTERS:
        if int(row[key]) != 0:
            problems.append(f"{row['method']} M={m}: {key}={row[key]}")
    offline = row["method"] in OFFLINE_METHODS
    if offline != (row["v_inter_uav"] == "na"):
        problems.append(f"{row['method']} M={m}: v_inter_uav={row['v_inter_uav']}")
    return problems


def split_array_problems(rows, circuit_w):
    """drl_sc flies drl_sdr's trajectory, so it costs exactly the circuit draw
    more. Returns {axis value: problems} for the drl_sc cells that fail."""
    problems = {}
    by_key = {(r["method"], r["value"], r["seed"]): r for r in rows}
    for (method, value, seed), sc in by_key.items():
        if method != "drl_sc":
            continue
        sdr = by_key.get(("drl_sdr", value, seed))
        if sdr is None:
            problems.setdefault(value, []).append(f"drl_sc M={value} has no drl_sdr partner")
            continue
        if sc["time_s"] != sdr["time_s"]:
            problems.setdefault(value, []).append(
                f"M={value}: drl_sc time {sc['time_s']} != drl_sdr time {sdr['time_s']}")
            continue
        want = circuit_w * int(value) * float(sc["time_s"])
        got = float(sc["energy_j"]) - float(sdr["energy_j"])
        if abs(got - want) > 2 * CSV_ABS_TOL + 1e-9 * want:
            problems.setdefault(value, []).append(
                f"M={value}: drl_sc - drl_sdr energy {got:.6f} != {want:.6f}")
    return problems


# -- training ----------------------------------------------------------------

def curve_problems(curve_rows, updates, min_updates=2):
    problems = []
    for row in curve_rows:
        if not all(math.isfinite(x) for x in row):
            problems.append(f"non-finite learning-curve row {row}")
            break
    if updates < min_updates:
        problems.append(f"only {updates} PPO update(s) ran, need {min_updates}")
    return problems
