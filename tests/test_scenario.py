import numpy as np
import pytest

from uavisac.scenario import (ScenarioConfig, build_scenario, rng_stream,
                              scenario_fingerprint, validate_config)


def test_default_config_is_valid():
    assert validate_config(ScenarioConfig()) == []


def test_zero_power_budget_flagged():
    bad = ScenarioConfig(p_max=0.0)
    violations = validate_config(bad)
    assert len(violations) == 1
    assert "p_max" in violations[0]


def test_negative_safe_distance_flagged():
    bad = ScenarioConfig(d_min=-1.0)
    violations = validate_config(bad)
    assert len(violations) == 1
    assert "d_min" in violations[0]


def test_start_equals_end_flagged():
    bad = ScenarioConfig(start=(10.0, 10.0), end=(10.0, 10.0))
    assert any("start" in v and "end" in v for v in validate_config(bad))


def test_malformed_points_flagged():
    bad = ScenarioConfig(start=(0.0, 2500.0, 80.0), end=(7.0,))
    assert validate_config(bad) == [
        "start must be an (x, y) point, got (0.0, 2500.0, 80.0)",
        "end must be an (x, y) point, got (7.0,)"]


@pytest.mark.parametrize("field, value", [
    ("rician_k", np.nan), ("rician_k", np.inf),
    ("sensing_angles", (0.1, np.nan))])
def test_non_finite_channel_values_flagged(field, value):
    violations = validate_config(ScenarioConfig(**{field: value}))
    assert len(violations) == 1
    assert field in violations[0] and "finite" in violations[0]


def test_build_rejects_invalid_config():
    with pytest.raises(ValueError):
        build_scenario(ScenarioConfig(kappa_nlos=0.0))


def test_build_is_deterministic_byte_for_byte():
    a = build_scenario(ScenarioConfig(seed=7))
    b = build_scenario(ScenarioConfig(seed=7))
    assert a.md_positions.tobytes() == b.md_positions.tobytes()
    assert a.tower_positions.tobytes() == b.tower_positions.tobytes()
    assert a.rx_combiner.tobytes() == b.rx_combiner.tobytes()
    assert scenario_fingerprint(a) == scenario_fingerprint(b)


def test_seeds_change_layout():
    a = build_scenario(ScenarioConfig(seed=7))
    b = build_scenario(ScenarioConfig(seed=8))
    assert scenario_fingerprint(a) != scenario_fingerprint(b)


def test_all_mds_inside_area():
    sc = build_scenario(ScenarioConfig(num_mds=30, seed=3))
    md = sc.md_positions
    assert md.shape == (30, 3)
    assert np.all(md[:, 0] >= 0) and np.all(md[:, 0] <= 2500)
    assert np.all(md[:, 1] >= 0) and np.all(md[:, 1] <= 2500)
    assert np.all(md[:, 2] >= 0) and np.all(md[:, 2] < sc.config.altitude)
    assert np.all(np.isfinite(md))


def test_counts_match_config():
    cfg = ScenarioConfig(num_mds=13, num_towers=9, num_uavs=4, seed=1)
    sc = build_scenario(cfg)
    assert len(sc.md_positions) == 13
    assert len(sc.tower_positions) == 9


def test_towers_follow_the_diagonal():
    sc = build_scenario(ScenarioConfig())
    t = sc.tower_positions
    assert np.allclose(t[0], (0.0, 2500.0))
    assert np.allclose(t[-1], (2500.0, 0.0))
    # equal spacing along the segment
    steps = np.diff(t, axis=0)
    assert np.allclose(steps, steps[0])


def test_rx_combiner_is_unit_norm_uniform():
    sc = build_scenario(ScenarioConfig())
    f = sc.rx_combiner
    assert f.shape == (12,)
    assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(f, f[0])


def test_scenario_arrays_are_readonly():
    sc = build_scenario(ScenarioConfig())
    with pytest.raises(ValueError):
        sc.md_positions[0, 0] = 1.0


class TestRngStream:
    def test_same_inputs_same_draws(self):
        a = rng_stream(7, "channel").random(100)
        b = rng_stream(7, "channel").random(100)
        assert np.array_equal(a, b)

    def test_labels_separate_streams(self):
        a = rng_stream(7, "channel").random(100)
        b = rng_stream(7, "noise").random(100)
        assert not np.array_equal(a, b)

    def test_seeds_separate_streams(self):
        a = rng_stream(7, "x").random(100)
        b = rng_stream(8, "x").random(100)
        assert not np.array_equal(a, b)
