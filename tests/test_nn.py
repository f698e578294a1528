import numpy as np
import pytest

from uavisac.nn import Adam, Linear, log_softmax_masked, orthogonal, softplus
from uavisac.scenario import rng_stream


def test_orthogonal_columns():
    q = orthogonal(rng_stream(0, "init"), (16, 8), gain=1.0)
    assert np.allclose(q.T @ q, np.eye(8), atol=1e-10)


def test_orthogonal_gain_scales():
    q = orthogonal(rng_stream(0, "init"), (8, 8), gain=2.0)
    assert np.allclose(q.T @ q, 4 * np.eye(8), atol=1e-9)


def test_linear_backward_matches_fd():
    rng = rng_stream(1, "linear")
    layer = Linear(rng, 5, 3)
    x = rng.standard_normal((4, 5))
    target = rng.standard_normal((4, 3))

    def loss():
        return 0.5 * np.sum((layer.forward(x) - target) ** 2)

    grad_out = layer.forward(x) - target
    gw, gb = layer.backward(x, grad_out)
    h = 1e-6
    for idx in [(0, 0), (2, 1), (4, 2)]:
        layer.w[idx] += h
        up = loss()
        layer.w[idx] -= 2 * h
        dn = loss()
        layer.w[idx] += h
        assert (up - dn) / (2 * h) == pytest.approx(gw[idx], rel=1e-6)
    layer.b[1] += h
    up = loss()
    layer.b[1] -= 2 * h
    dn = loss()
    layer.b[1] += h
    assert (up - dn) / (2 * h) == pytest.approx(gb[1], rel=1e-6)


def test_adam_minimizes_quadratic():
    p = [np.array([5.0, -3.0])]
    opt = Adam(p, lr=0.1)
    for _ in range(500):
        opt.step(p, [2 * p[0]])
    assert np.all(np.abs(p[0]) < 1e-3)


def test_log_softmax_masked_restricts_support():
    logits = np.array([[1.0, 2.0, 3.0, 0.5]])
    mask = np.array([[True, False, True, True]])
    lp = log_softmax_masked(logits, mask)
    assert lp[0, 1] == -np.inf
    probs = np.exp(lp[0][mask[0]])
    assert probs.sum() == pytest.approx(1.0, rel=1e-12)


def test_softplus_stable():
    assert softplus(800.0) == pytest.approx(800.0)
    assert softplus(-800.0) == pytest.approx(0.0, abs=1e-12)
    assert softplus(0.0) == pytest.approx(np.log(2.0))
