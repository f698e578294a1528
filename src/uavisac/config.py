"""INI-style run configuration mirroring the dataclass schemas.

The dataclass field defaults are the only defaults; a file overrides them.
Sections map to components: [scenario], [propulsion], [reward], [pso], [ga],
[mappo]. Keys mirror the dataclass field names and use linear SI units; the
two human-facing exceptions are ``sensing_angles_deg`` (degrees in the file,
radians internally) and the ``*_db``/``*_dbm`` convenience keys, which
override their linear counterparts when present. Any other section or key is
rejected, so a misspelt one cannot leave its default silently in force.
``config_problems`` is the one judge of the values a file may hold.
"""

import configparser
import math
from dataclasses import dataclass, fields, replace

from .drl_mappo import MappoConfig
from .energy import PropulsionParams
from .mdp_env import RewardConfig
from .planners import GaConfig, PsoConfig
from .scenario import (ScenarioConfig, db_to_linear, dbm_to_watts,
                       validate_config)

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


# bounds of the non-scenario keys (counts that size a loop or an array are at
# least 1); every other real of these sections only has to be finite
_TESTS = {"above 0": lambda v: v > 0, "at least 1": lambda v: v >= 1,
          "at least 0": lambda v: v >= 0, "in [0, 1]": lambda v: 0 <= v <= 1}
_BOUNDS = {
    "propulsion": {f.name: "above 0" for f in fields(PropulsionParams)},
    "reward": {"energy_scale": "above 0"},    # the energy reward divides by it
    "pso": {"swarm": "at least 1", "iterations": "at least 0",
            "waypoint_span": "at least 0"},
    "ga": {"population": "at least 1", "generations": "at least 0",
           "crossover": "in [0, 1]", "mutation": "in [0, 1]"},
    "mappo": {"clip_ratio": "above 0", "actor_lr": "above 0",
              "critic_lr": "above 0", "discount": "in [0, 1]",
              "gae_lambda": "in [0, 1]", **dict.fromkeys(
                  ("hidden", "minibatch", "epochs", "smooth_window",
                   "max_episodes", "rollout"), "at least 1")},
}


def config_problems(run_config: RunConfig) -> list:
    """The base world's validate_config problems, then each ``[section] key``
    of the other sections that is not finite or out of its _BOUNDS."""
    problems = validate_config(run_config.scenario)
    for section, bounds in _BOUNDS.items():
        for key, value in vars(getattr(run_config, section)).items():
            if isinstance(value, float) and not math.isfinite(value):
                problems.append(f"[{section}] {key} must be finite, got {value}")
            elif key in bounds and not _TESTS[bounds[key]](value):
                problems.append(f"[{section}] {key} must be {bounds[key]}, got {value}")
    return problems
