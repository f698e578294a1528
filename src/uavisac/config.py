"""INI-style run configuration mirroring the dataclass schemas.

The dataclass field defaults are the only defaults; a file overrides them.
Sections map to components: [scenario], [propulsion], [reward], [pso], [ga],
[mappo]. Keys mirror the dataclass field names and use linear SI units; the
two human-facing exceptions are ``sensing_angles_deg`` (degrees in the file,
radians internally) and the ``*_db``/``*_dbm`` convenience keys, which
override their linear counterparts when present. Any other section or key is
rejected, so a misspelt one cannot leave its default silently in force.
"""

import configparser
from dataclasses import dataclass, fields, replace

from .drl_mappo import MappoConfig
from .energy import PropulsionParams
from .mdp_env import RewardConfig
from .planners import GaConfig, PsoConfig
from .scenario import ScenarioConfig, db_to_linear, dbm_to_watts

import numpy as np


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioConfig
    propulsion: PropulsionParams
    reward: RewardConfig
    pso: PsoConfig
    ga: GaConfig
    mappo: MappoConfig


def _coerce(raw: str, like):
    if isinstance(like, int):
        return int(raw)
    if isinstance(like, float):
        return float(raw)
    if isinstance(like, tuple):
        return tuple(float(x) for x in raw.replace(",", " ").split())
    return raw


def _apply_section(instance, section, extra=()):
    """``instance`` with the section's keys set; a key that is neither a field
    nor in ``extra`` is rejected."""
    known = {f.name: getattr(instance, f.name) for f in fields(instance)}
    unknown = [key for key in section if key not in known and key not in extra]
    if unknown:
        raise ValueError(f"unknown keys in [{section.name}]: {', '.join(unknown)}")
    updates = {key: _coerce(raw, known[key]) for key, raw in section.items()
               if key in known}
    return replace(instance, **updates) if updates else instance


_DB_KEYS = {
    "gamma_th_md_db": ("gamma_th_md", db_to_linear),
    "gamma_th_uav_db": ("gamma_th_uav", db_to_linear),
    "tbp_threshold_db": ("tbp_threshold", db_to_linear),
    "noise_md_dbm": ("noise_md", dbm_to_watts),
    "noise_uav_dbm": ("noise_uav", dbm_to_watts),
    "p_md_dbm": ("p_md", dbm_to_watts),
    "p_max_dbm": ("p_max", dbm_to_watts),
}


def _apply_scenario_section(scenario: ScenarioConfig, section) -> ScenarioConfig:
    raw = dict(section)
    scenario = _apply_section(scenario, section,
                              extra=(*_DB_KEYS, "sensing_angles_deg"))
    # db/deg convenience keys override the linear fields set in the same file
    for key, (target, conv) in _DB_KEYS.items():
        if key in raw:
            scenario = replace(scenario, **{target: conv(float(raw[key]))})
    if "sensing_angles_deg" in raw:
        degs = tuple(float(x) for x in raw["sensing_angles_deg"]
                     .replace(",", " ").split())
        scenario = replace(scenario, sensing_angles=tuple(
            float(a) for a in np.deg2rad(degs)))
    return scenario


def load_config(path=None) -> RunConfig:
    """The dataclass defaults, with the config file at ``path`` (if any)
    applied on top.

    A section or key the schema does not know raises ValueError."""
    parts = {f.name: f.type() for f in fields(RunConfig)}
    if path is None:
        return RunConfig(**parts)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path) as fh:
        parser.read_file(fh)
    unknown = [name for name in parser.sections() if name not in parts]
    if unknown:
        raise ValueError(f"unknown config sections: {', '.join(unknown)}")
    for name in parser.sections():
        apply = _apply_scenario_section if name == "scenario" else _apply_section
        parts[name] = apply(parts[name], parser[name])
    return RunConfig(**parts)
