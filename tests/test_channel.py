import numpy as np
import pytest

from uavisac.channel import (effective_channel, elevation_angle,
                             expected_md_channel, inter_uav_sinr,
                             los_probability, md_gain_matrix, md_uplink_sinr,
                             sample_rician_channel, steering_vector, tbp_gain)
from uavisac.mdp_env import CorridorEnv, uplink_gain2
from uavisac.scenario import ScenarioConfig, build_scenario, rng_stream

C, D = 11.95, 0.136


class TestElevation:
    def test_directly_above_is_90(self):
        assert elevation_angle((0, 0, 100), (0, 0, 0)) == pytest.approx(90.0)

    def test_same_altitude_is_0(self):
        assert elevation_angle((50, 0, 80), (0, 0, 80)) == pytest.approx(0.0)

    def test_isosceles_right_triangle_is_45(self):
        assert elevation_angle((80, 0, 80), (0, 0, 0)) == pytest.approx(45.0)

    def test_coincident_rejected(self):
        with pytest.raises(ValueError):
            elevation_angle((1, 2, 3), (1, 2, 3))


class TestLosProbability:
    def test_theta_equal_c_cancels_exponent(self):
        assert los_probability(C, C, D) == pytest.approx(1.0 / (1.0 + C))

    def test_value_at_45_degrees(self):
        # frozen from a direct scalar evaluation: 1/(1 + 11.95*exp(-0.136*(45-11.95)))
        assert los_probability(45.0, C, D) == pytest.approx(0.8822663081, abs=1e-9)

    def test_strictly_increasing_in_range(self):
        thetas = np.linspace(-90, 90, 361)
        p = los_probability(thetas, C, D)
        assert np.all(np.diff(p) > 0)
        assert np.all(p > 0) and np.all(p < 1)


class TestExpectedChannel:
    def test_kappa_one_merges_terms(self):
        q, u = (100, 0, 80), (0, 0, 0)
        d = np.linalg.norm(np.subtract(q, u))
        h = expected_md_channel(q, u, beta=1e-6, kappa=1.0, c=C, d=D)
        assert h == pytest.approx(np.sqrt(1e-6) / d, rel=1e-12)

    def test_inverse_distance_scaling(self):
        # doubling the distance at a fixed elevation angle halves the gain
        h1 = expected_md_channel((80, 0, 80), (0, 0, 0), 1e-6, 0.2, C, D)
        h2 = expected_md_channel((160, 0, 160), (0, 0, 0), 1e-6, 0.2, C, D)
        assert h1 == pytest.approx(2 * h2, rel=1e-12)

    def test_value_at_45_degrees_100m(self):
        # frozen from evaluating the LoS mix at theta=45, d=100:
        # (0.8822663081 + 0.1177336919*0.2) * 1e-3 / 100
        off = 100.0 / np.sqrt(2.0)
        h = expected_md_channel((off, 0, off), (0, 0, 0), 1e-6, 0.2, C, D)
        assert h == pytest.approx(9.0581304650e-6, rel=1e-9)

    def test_matches_matrix_helper(self):
        rng = rng_stream(5, "gainmat")
        uav = rng.uniform(0, 2500, size=(3, 3)) + [0, 0, 80]
        md = rng.uniform(0, 2500, size=(7, 3)) * [1, 1, 0]
        mat = md_gain_matrix(uav, md, 1e-6, 0.2, C, D)
        for m in range(3):
            for i in range(7):
                assert mat[m, i] == pytest.approx(
                    expected_md_channel(uav[m], md[i], 1e-6, 0.2, C, D), rel=1e-12)


def summed_gain_matrix(uav_pos, md_pos, beta, kappa, c, d):
    """md_gain_matrix as first written: the squared distance summed over the
    coordinate axis."""
    diff = np.asarray(uav_pos, float)[..., :, None, :] - np.asarray(md_pos, float)
    dist = np.sqrt((diff ** 2).sum(axis=-1))
    p_los = los_probability(np.degrees(np.arcsin(diff[..., 2] / dist)), c, d)
    return (p_los + (1.0 - p_los) * kappa) * np.sqrt(beta) / dist


class TestGainMatrixBits:
    """The explicit squared distance gives the bits of the summed one."""

    def test_random_positions(self):
        rng = rng_stream(11, "gain-bits")
        uav = rng.uniform([-100.0, -100.0, 10.0], [2600.0, 2600.0, 300.0],
                          (2000, 5, 3))
        md = rng.uniform([0.0, 0.0, 0.0], [2500.0, 2500.0, 20.0], (12, 3))
        got = md_gain_matrix(uav, md, 1e-6, 0.2, C, D)
        assert got.size >= 10 ** 5
        assert got.tobytes() == summed_gain_matrix(uav, md, 1e-6, 0.2, C,
                                                   D).tobytes()

    def test_env_and_batched_gain2(self):
        sc = build_scenario(ScenarioConfig(seed=4))
        cfg = sc.config
        rng = rng_stream(12, "gain2-bits")
        fleets = rng.uniform(0.0, [cfg.area_width, cfg.area_height, 0.0],
                             (1200, cfg.num_uavs, 3)) + [0.0, 0.0, cfg.altitude]
        want = summed_gain_matrix(fleets, sc.md_positions, cfg.beta_ref,
                                  cfg.kappa_nlos, cfg.los_c, cfg.los_d) ** 2
        assert want.size >= 10 ** 5
        assert uplink_gain2(fleets, sc).tobytes() == want.tobytes()
        env = CorridorEnv(sc)
        env.reset()
        for fleet, gain2 in zip(fleets, want):
            env.state.positions = fleet[None]
            assert env.gain2()[0].tobytes() == gain2.tobytes()


class TestUplinkSinr:
    NOISE = 7.943e-14
    P = 5e-3

    def test_single_uav_no_interference(self):
        uav = np.array([[0.0, 0.0, 80.0]])
        md = np.array([[30.0, 0.0, 0.0]])
        rep = md_uplink_sinr(uav, md, [0], self.P, self.NOISE, 1e-6, 0.2, C, D)
        h = expected_md_channel(uav[0], md[0], 1e-6, 0.2, C, D)
        assert rep.sinr[0, 0] == pytest.approx(self.P * h * h / self.NOISE, rel=1e-12)

    def test_idle_uav_gets_zero(self):
        uav = np.array([[0.0, 0.0, 80.0], [500.0, 0.0, 80.0]])
        md = np.array([[30.0, 0.0, 0.0], [470.0, 0.0, 0.0]])
        rep = md_uplink_sinr(uav, md, [-1, 1], self.P, self.NOISE, 1e-6, 0.2, C, D)
        assert np.all(rep.sinr[0] == 0.0)

    def test_mirrored_layout_gives_equal_sinr(self):
        # two UAV/MD pairs mirrored about x=500: identical SINR by symmetry
        uav = np.array([[0.0, 0.0, 80.0], [1000.0, 0.0, 80.0]])
        md = np.array([[100.0, 0.0, 0.0], [900.0, 0.0, 0.0]])
        rep = md_uplink_sinr(uav, md, [0, 1], self.P, self.NOISE, 1e-6, 0.2, C, D)
        assert rep.sinr[0, 0] == pytest.approx(rep.sinr[1, 1], rel=1e-12)
        # and interference from the other MD is present
        solo = md_uplink_sinr(uav, md, [0, -1], self.P, self.NOISE, 1e-6, 0.2, C, D)
        assert rep.sinr[0, 0] < solo.sinr[0, 0]

    def test_duplicate_md_rejected(self):
        uav = np.array([[0.0, 0.0, 80.0], [10.0, 0.0, 80.0]])
        md = np.array([[30.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            md_uplink_sinr(uav, md, [0, 0], self.P, self.NOISE, 1e-6, 0.2, C, D)


class TestSteeringAndBeampattern:
    def test_zero_angle_is_all_ones(self):
        assert np.allclose(steering_vector(0.0, 8), np.ones(8))

    def test_two_element_broadside(self):
        a = steering_vector(np.pi / 2, 2)
        assert np.allclose(a, [1.0, -1.0], atol=1e-12)

    def test_norm_is_l(self):
        for phi in (-1.2, 0.3, 1.0):
            a = steering_vector(phi, 12)
            assert np.linalg.norm(a) ** 2 == pytest.approx(12.0, rel=1e-12)

    def test_isotropic_covariance_gain(self):
        p = 0.1
        r = (p / 12) * np.eye(12)
        for phi in np.deg2rad([-10, 0, 10, 37]):
            assert tbp_gain(r, phi) == pytest.approx(p, rel=1e-12)

    def test_matched_rank_one_gain(self):
        p, L = 0.1, 12
        a0 = steering_vector(0.7, L)
        r = (p / L) * np.outer(a0, a0.conj())
        assert tbp_gain(r, 0.7) == pytest.approx(p * L, rel=1e-12)

    def test_zero_covariance(self):
        assert tbp_gain(np.zeros((12, 12)), 0.2) == 0.0

    def test_non_hermitian_rejected(self):
        r = np.eye(4, dtype=complex)
        r[0, 1] = 1.0
        with pytest.raises(ValueError):
            tbp_gain(r, 0.0)

    def test_nonnegative_and_linear_in_psd_inputs(self):
        rng = rng_stream(11, "tbp")
        for _ in range(20):
            x = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
            r = x @ x.conj().T
            phi = rng.uniform(-np.pi / 2, np.pi / 2)
            g = tbp_gain(r, phi)
            assert g >= 0
            assert tbp_gain(2.5 * r, phi) == pytest.approx(2.5 * g, rel=1e-12)


class TestRician:
    Q1 = np.array([0.0, 0.0, 80.0])
    Q2 = np.array([200.0, 0.0, 80.0])

    def test_large_k_limit_is_los(self):
        rng = rng_stream(1, "rician")
        h = sample_rician_channel(self.Q1, self.Q2, 1e12, 1e-6, 8, rng)
        los = (np.sqrt(1e-6) / 200.0) * np.ones((8, 8))
        assert np.allclose(h, los, rtol=1e-5)

    def test_pure_nlos_entry_variance(self):
        # at beta=1, d=1 the scattered entries have unit variance by definition
        rng = rng_stream(2, "rician")
        q2 = self.Q1 + [1.0, 0.0, 0.0]
        draws = np.array([sample_rician_channel(self.Q1, q2, 0.0, 1.0, 4, rng)
                          for _ in range(10_000)])
        var = np.mean(np.abs(draws) ** 2)
        assert abs(var - 1.0) < 0.05

    def test_mean_converges_to_los_term(self):
        rng = rng_stream(3, "rician")
        acc = np.zeros((4, 4), dtype=complex)
        n = 10_000
        for _ in range(n):
            acc += sample_rician_channel(self.Q1, self.Q2, 10.0, 1e-6, 4, rng)
        mean = acc / n
        los = np.sqrt(10 / 11) * (np.sqrt(1e-6) / 200.0) * np.ones((4, 4))
        # per-entry std of the mean is sqrt(1/11)*(sqrt(beta)/d)/sqrt(n)
        mc_err = np.sqrt(1 / 11) * (np.sqrt(1e-6) / 200.0) / np.sqrt(n)
        assert np.all(np.abs(mean - los) < 5 * mc_err)

    def test_same_stream_state_reproduces(self):
        a = sample_rician_channel(self.Q1, self.Q2, 10.0, 1e-6, 6, rng_stream(4, "x"))
        b = sample_rician_channel(self.Q1, self.Q2, 10.0, 1e-6, 6, rng_stream(4, "x"))
        assert np.array_equal(a, b)

    def test_coincident_rejected(self):
        with pytest.raises(ValueError):
            sample_rician_channel(self.Q1, self.Q1, 10.0, 1e-6, 4, rng_stream(5, "x"))

    @staticmethod
    def one_link_oracle(q_a, q_b, rician_k, beta, n_antennas, rng):
        """One link per call: the real part, then the imaginary part."""
        d = float(np.linalg.norm(np.asarray(q_a, float) - np.asarray(q_b, float)))
        los = np.ones((n_antennas, n_antennas), dtype=complex)
        nlos = (rng.standard_normal((n_antennas, n_antennas))
                + 1j * rng.standard_normal((n_antennas, n_antennas))) / np.sqrt(2.0)
        return (np.sqrt(beta) / d) * (np.sqrt(rician_k / (rician_k + 1.0)) * los
                                      + np.sqrt(1.0 / (rician_k + 1.0)) * nlos)

    @pytest.mark.parametrize("batch", [(), (1,), (5,), (2, 3)])
    def test_batch_equals_per_link_draws(self, batch):
        pts = rng_stream(6, "pts").uniform(0.0, 2500.0, (*batch, 2, 3))
        pts[..., 2] = 80.0
        pts[..., 1, :] += [1e-3, 0.0, 0.0]     # one near-coincident pair at most
        batched, looped = rng_stream(7, "x"), rng_stream(7, "x")
        h = sample_rician_channel(pts[..., 0, :], pts[..., 1, :], 10.0, 1e-6, 12,
                                  batched)
        assert h.shape == (*batch, 12, 12)
        flat = pts.reshape(-1, 2, 3)
        ref = [self.one_link_oracle(a, b, 10.0, 1e-6, 12, looped) for a, b in flat]
        assert np.array_equal(h.reshape(-1, 12, 12), np.array(ref).reshape(-1, 12, 12))
        assert batched.random() == looped.random()

    def test_batch_with_a_coincident_link_rejected(self):
        with pytest.raises(ValueError):
            sample_rician_channel(np.array([self.Q1, self.Q2]),
                                  np.array([self.Q2, self.Q2]),
                                  10.0, 1e-6, 4, rng_stream(5, "x"))


class TestInterUavSinr:
    def setup_method(self):
        rng = rng_stream(9, "sinr")
        self.h = sample_rician_channel((0, 0, 80), (300, 0, 80), 10.0, 1e-6, 12, rng)
        self.f = np.ones(12, dtype=complex) / np.sqrt(12)
        self.w = (rng.standard_normal(12) + 1j * rng.standard_normal(12)) * 0.01
        x = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        self.r_s = 1e-4 * (x @ x.conj().T)

    def test_no_sensing_interference(self):
        noise = 3.98e-13
        val = inter_uav_sinr(self.h, self.w, np.zeros((12, 12)), self.f, noise)
        assert val == pytest.approx(
            np.abs(self.f.conj() @ self.h @ self.w) ** 2 / noise, rel=1e-12)

    def test_zero_beam_gives_zero(self):
        assert inter_uav_sinr(self.h, np.zeros(12), self.r_s, self.f, 1e-13) == 0.0

    def test_quadratic_in_beam_scale(self):
        base = inter_uav_sinr(self.h, self.w, self.r_s, self.f, 1e-13)
        scaled = inter_uav_sinr(self.h, 3.0 * self.w, self.r_s, self.f, 1e-13)
        assert scaled == pytest.approx(9.0 * base, rel=1e-12)

    def test_trace_identity_matches_direct_form(self):
        # the combiner-side rewrite must agree with the direct SINR expression
        rng = rng_stream(12, "identity")
        worst = 0.0
        for _ in range(200):
            h = (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
            f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            f /= np.linalg.norm(f)
            w = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            r_s = x @ x.conj().T
            noise = 10 ** rng.uniform(-13, -9)
            direct = inter_uav_sinr(h, w, r_s, f, noise)
            h_eff = effective_channel(h, f)
            r_c = np.outer(w, w.conj())
            trace_form = np.real(np.trace(r_c @ h_eff)) / (
                np.real(np.trace(r_s @ h_eff)) + noise)
            worst = max(worst, abs(direct - trace_form) / max(direct, 1e-300))
        assert worst < 1e-9


class TestEffectiveChannel:
    def test_identity_channel_basis_combiner(self):
        f = np.zeros(4, dtype=complex)
        f[0] = 1.0
        h_eff = effective_channel(np.eye(4, dtype=complex), f)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        assert np.allclose(h_eff, expected)

    def test_rank_one_psd_with_trace(self):
        rng = rng_stream(13, "heff")
        h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        h_eff = effective_channel(h, f)
        ev = np.linalg.eigvalsh(h_eff)
        assert ev[0] > -1e-12
        assert sum(ev > 1e-12 * ev[-1]) == 1
        g = h.conj().T @ f
        assert np.trace(h_eff).real == pytest.approx(np.linalg.norm(g) ** 2, rel=1e-12)
