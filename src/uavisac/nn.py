"""Minimal dense networks with explicit backward passes.

Everything is float64 numpy; gradients are hand-derived and validated
against central finite differences in the test suite. Layout convention:
activations are (batch, features), weights are (in, out).
"""

import numpy as np


def orthogonal(rng: np.random.Generator, shape, gain=1.0) -> np.ndarray:
    """Orthogonal initializer (QR of a Gaussian draw), scaled by ``gain``."""
    rows, cols = shape
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q *= np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]


class Linear:
    def __init__(self, rng, n_in, n_out, gain=1.0):
        self.w = orthogonal(rng, (n_in, n_out), gain)
        self.b = np.zeros(n_out)

    def forward(self, x):
        return x @ self.w + self.b

    def backward(self, x, grad_out):
        """Returns (grad_x, grad_w, grad_b) for upstream gradient grad_out."""
        return grad_out @ self.w.T, x.T @ grad_out, grad_out.sum(axis=0)

    @property
    def params(self):
        return [self.w, self.b]


class Adam:
    """Adaptive moment estimation over a flat list of parameter arrays."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads):
        self.step_count += 1
        b1c = 1.0 - self.beta1 ** self.step_count
        b2c = 1.0 - self.beta2 ** self.step_count
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def log_softmax_masked(logits, mask):
    """Row-wise log-softmax over the unmasked entries; masked cells -> -inf."""
    neg = np.where(mask, logits, -np.inf)
    mx = neg.max(axis=1, keepdims=True)
    z = np.exp(neg - mx)
    return neg - mx - np.log(z.sum(axis=1, keepdims=True))


def softplus(x):
    return np.logaddexp(0.0, x)
