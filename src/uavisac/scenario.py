"""World construction: corridor geometry, device placement and seeded RNG streams.

The corridor runs diagonally across a rectangular area; towers are equally
spaced along the start-to-end segment, monitoring devices sit either on a
line span or on the ground near a tower. Everything is a deterministic
function of the configuration, including its seed.
"""

import hashlib
from dataclasses import dataclass

import numpy as np


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """Static mission description; all values in linear SI units (m, s, W, J)."""

    area_width: float = 2500.0
    area_height: float = 2500.0
    num_towers: int = 20
    num_mds: int = 30
    num_uavs: int = 3
    altitude: float = 80.0
    start: tuple = (0.0, 2500.0)
    end: tuple = (2500.0, 0.0)
    slot_seconds: float = 1.0
    horizon_slots: int = 500
    v_fixed: float = 20.0
    d_min: float = 10.0
    e_total: float = 1.5e5
    los_c: float = 11.95
    los_d: float = 0.136
    kappa_nlos: float = 0.2
    beta_ref: float = 1e-6          # path gain at 1 m (-60 dB)
    rician_k: float = 10.0
    noise_md: float = dbm_to_watts(-101.0)
    noise_uav: float = dbm_to_watts(-94.0)
    p_md: float = 5e-3
    p_max: float = 100e-3
    gamma_th_md: float = db_to_linear(3.0)
    gamma_th_uav: float = db_to_linear(8.0)
    tbp_threshold: float = db_to_linear(-4.0)
    sensing_angles: tuple = tuple(np.deg2rad((-10.0, 0.0, 10.0)))
    n_antennas: int = 12
    arrival_radius: float = 40.0
    seed: int = 0


@dataclass(frozen=True)
class Scenario:
    """Built world; arrays are read-only and safe to share across workers."""

    config: ScenarioConfig
    md_positions: np.ndarray        # (I, 3)
    tower_positions: np.ndarray     # (num_towers, 2)
    chain_edges: tuple              # ((0,1), (1,2), ...) directed UAV pairs
    rx_combiner: np.ndarray         # (L,) complex, unit norm


def validate_config(cfg: ScenarioConfig) -> list:
    """Return a list of human-readable invariant violations (empty iff valid)."""
    v = []

    def positive(name):
        if not np.isfinite(getattr(cfg, name)) or getattr(cfg, name) <= 0:
            v.append(f"{name} must be positive, got {getattr(cfg, name)}")

    for name in ("area_width", "area_height", "altitude", "slot_seconds",
                 "v_fixed", "d_min", "e_total", "los_c", "los_d", "beta_ref",
                 "noise_md", "noise_uav", "p_md", "p_max", "gamma_th_md",
                 "gamma_th_uav", "tbp_threshold", "arrival_radius"):
        positive(name)
    for name in ("num_towers", "num_mds", "num_uavs", "horizon_slots"):
        if getattr(cfg, name) < 1:
            v.append(f"{name} must be at least 1, got {getattr(cfg, name)}")
    if not 0.0 < cfg.kappa_nlos <= 1.0:
        v.append(f"kappa_nlos must lie in (0, 1], got {cfg.kappa_nlos}")
    if cfg.rician_k < 0:
        v.append(f"rician_k must be nonnegative, got {cfg.rician_k}")
    if len(cfg.sensing_angles) < 1:
        v.append("sensing_angles must contain at least one direction")
    if cfg.n_antennas < 2:
        v.append(f"n_antennas must be at least 2, got {cfg.n_antennas}")
    if cfg.num_towers < 2:
        v.append(f"num_towers must be at least 2, got {cfg.num_towers}")
    if tuple(cfg.start) == tuple(cfg.end):
        v.append("start and end must differ")
    for name in ("start", "end"):
        x, y = getattr(cfg, name)
        if not (0 <= x <= cfg.area_width and 0 <= y <= cfg.area_height):
            v.append(f"{name} must lie inside the area, got {(x, y)}")
    if cfg.altitude <= 25.0:
        # MD altitude bands are [0, 5] on the ground and [10, z0 - 10] on spans
        v.append(f"altitude must exceed 25 m to leave room for line-mounted devices, got {cfg.altitude}")
    return v


def rng_stream(seed: int, label: str) -> np.random.Generator:
    """Independent reproducible substream for (seed, label).

    Counter-based (Philox) so substreams are order-independent: drawing from
    one stream never perturbs another.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    key = int.from_bytes(digest[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def build_scenario(cfg: ScenarioConfig) -> Scenario:
    """Deterministically place towers and MDs and fix the comm chain.

    Towers are equally spaced on the start-to-end diagonal. Each MD is
    attached 50/50 to a random span midpoint (altitude in [10, z0-10]) or to
    the ground near a random tower (altitude in [0, 5], lateral scatter up to
    100 m, clipped to the area).
    """
    problems = validate_config(cfg)
    if problems:
        raise ValueError("invalid scenario config: " + "; ".join(problems))

    rng = rng_stream(cfg.seed, "scenario")
    start = np.asarray(cfg.start, dtype=float)
    end = np.asarray(cfg.end, dtype=float)

    frac = np.linspace(0.0, 1.0, cfg.num_towers)[:, None]
    towers = start[None, :] + frac * (end - start)[None, :]

    n_spans = cfg.num_towers - 1
    midpoints = 0.5 * (towers[:-1] + towers[1:])

    md = np.empty((cfg.num_mds, 3), dtype=float)
    for i in range(cfg.num_mds):
        if rng.random() < 0.5:
            span = rng.integers(n_spans)
            md[i, :2] = midpoints[span]
            md[i, 2] = rng.uniform(10.0, cfg.altitude - 10.0)
        else:
            tower = rng.integers(cfg.num_towers)
            md[i, :2] = towers[tower] + rng.uniform(-100.0, 100.0, size=2)
            md[i, 2] = rng.uniform(0.0, 5.0)
    md[:, 0] = np.clip(md[:, 0], 0.0, cfg.area_width)
    md[:, 1] = np.clip(md[:, 1], 0.0, cfg.area_height)

    chain = tuple((m, m + 1) for m in range(cfg.num_uavs - 1))
    combiner = np.ones(cfg.n_antennas, dtype=complex) / np.sqrt(cfg.n_antennas)

    return Scenario(
        config=cfg,
        md_positions=_readonly(md),
        tower_positions=_readonly(towers),
        chain_edges=chain,
        rx_combiner=_readonly(combiner),
    )


def scenario_fingerprint(sc: Scenario) -> str:
    """Stable hash of the built world, for manifests and determinism checks."""
    h = hashlib.sha256()
    h.update(repr(sc.config).encode())
    h.update(sc.md_positions.tobytes())
    h.update(sc.tower_positions.tobytes())
    h.update(sc.rx_combiner.tobytes())
    return h.hexdigest()
