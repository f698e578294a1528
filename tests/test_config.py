from dataclasses import fields

import numpy as np
import pytest

from uavisac.config import RunConfig, load_config
from uavisac.scenario import (ScenarioConfig, build_scenario,
                              scenario_fingerprint, validate_config)


def test_bundled_defaults_match_reference_setup():
    rc = load_config()
    sc = rc.scenario
    assert sc.area_width == 2500 and sc.area_height == 2500
    assert sc.num_towers == 20
    assert sc.num_mds == 30 and sc.num_uavs == 3
    assert sc.altitude == 80 and sc.v_fixed == 20 and sc.d_min == 10
    assert sc.start == (0.0, 2500.0) and sc.end == (2500.0, 0.0)
    assert sc.horizon_slots == 500 and sc.slot_seconds == 1.0
    assert sc.n_antennas == 12
    assert sc.p_md == pytest.approx(5e-3)
    assert sc.p_max == pytest.approx(0.1)
    assert sc.noise_uav == pytest.approx(10 ** ((-94 - 30) / 10))
    assert sc.noise_md == pytest.approx(10 ** ((-101 - 30) / 10))
    assert sc.gamma_th_md == pytest.approx(10 ** 0.3)
    assert sc.gamma_th_uav == pytest.approx(10 ** 0.8)
    assert sc.tbp_threshold == pytest.approx(10 ** -0.4)
    assert np.allclose(np.rad2deg(sc.sensing_angles), (-10, 0, 10))
    assert validate_config(sc) == []


def test_bundled_defaults_match_training_hyperparameters():
    rc = load_config()
    assert rc.mappo.hidden == 256
    assert rc.mappo.actor_lr == pytest.approx(1e-4)
    assert rc.mappo.critic_lr == pytest.approx(3e-4)
    assert rc.mappo.clip_ratio == pytest.approx(0.2)
    assert rc.mappo.entropy_coef == pytest.approx(0.01)
    assert rc.mappo.discount == pytest.approx(0.99)
    assert rc.mappo.gae_lambda == pytest.approx(0.95)
    assert rc.mappo.minibatch == 256


def test_file_overrides_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("""
[scenario]
num_mds = 7
num_uavs = 2
gamma_th_uav_db = 11
sensing_angles_deg = -20, 20

[pso]
swarm = 9

[mappo]
max_episodes = 42
""")
    rc = load_config(cfg)
    assert rc.scenario.num_mds == 7 and rc.scenario.num_uavs == 2
    assert rc.scenario.gamma_th_uav == pytest.approx(10 ** 1.1)
    assert np.allclose(np.rad2deg(rc.scenario.sensing_angles), (-20, 20))
    # untouched keys keep their defaults
    assert rc.scenario.p_max == pytest.approx(0.1)
    assert rc.pso.swarm == 9 and rc.pso.iterations == 300
    assert rc.mappo.max_episodes == 42 and rc.mappo.hidden == 256


def test_linear_keys_accepted(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[scenario]\ngamma_th_uav = 4.0\np_max = 0.25\n")
    rc = load_config(cfg)
    assert rc.scenario.gamma_th_uav == 4.0
    assert rc.scenario.p_max == 0.25


def test_loader_defaults_are_the_dataclass_defaults():
    rc = load_config()
    for part in fields(RunConfig):
        loaded, default = getattr(rc, part.name), part.type()
        for field in fields(default):
            a, b = getattr(loaded, field.name), getattr(default, field.name)
            assert a == b, (part.name, field.name)
            assert type(a) is type(b), (part.name, field.name)
            if isinstance(a, tuple):
                assert [type(x) for x in a] == [type(x) for x in b]


def test_default_world_fingerprint_does_not_depend_on_the_loader():
    assert (scenario_fingerprint(build_scenario(ScenarioConfig()))
            == scenario_fingerprint(build_scenario(load_config().scenario)))


def test_unknown_section_rejected_by_name(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[scenari]\nnum_uavs = 2\n")
    with pytest.raises(ValueError, match="scenari"):
        load_config(cfg)
