"""Minimal dense networks with explicit backward passes.

Arithmetic runs in the weights' dtype; gradients are hand-derived and
validated against central finite differences in the test suite. Layout
convention: activations are (batch, features), weights are (in, out).
"""

import math

import numpy as np

K_BLOCK = 384   # deeper products rounded per thread count on OpenBLAS 0.3.31


def matmul(a, b, out=None):
    """2-D ``a @ b`` summed over inner blocks of K_BLOCK in order, so its bits
    do not depend on the BLAS thread count; one block is np.matmul's bits."""
    out = np.matmul(a[:, :K_BLOCK], b[:K_BLOCK], out=out)
    for lo in range(K_BLOCK, len(b), K_BLOCK):
        out += np.matmul(a[:, lo:lo + K_BLOCK], b[lo:lo + K_BLOCK])
    return out


def orthogonal(rng: np.random.Generator, shape, gain=1.0) -> np.ndarray:
    """Orthogonal initializer (QR of a Gaussian draw), scaled by ``gain``."""
    rows, cols = shape
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q *= np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]


def pack(arrays, dtype=None):
    """One vector holding ``arrays`` in order, cast to ``dtype`` (kept when
    None), and a view of it shaped like each array."""
    vec = np.concatenate([np.ravel(a) for a in arrays], dtype=dtype)
    parts = np.split(vec, np.cumsum([a.size for a in arrays[:-1]]))
    return vec, [part.reshape(a.shape) for part, a in zip(parts, arrays)]


class Linear:
    def __init__(self, rng, n_in, n_out, gain=1.0):
        self.w = orthogonal(rng, (n_in, n_out), gain)
        self.b = np.zeros(n_out)

    @classmethod
    def over(cls, w, b):
        """A layer over the given weight and bias arrays (or views)."""
        layer = cls.__new__(cls)
        layer.w, layer.b = w, b
        return layer

    def forward(self, x, out=None):
        out = matmul(x, self.w, out=out)
        out += self.b
        return out

    def backward(self, x, grad_out, out=None):
        """Returns (grad_w, grad_b) for upstream gradient grad_out, grad_w in
        ``out`` when given. The input gradient ``grad_out @ w.T`` is left to
        the caller, which forms it only where a layer below needs it."""
        return matmul(x.T, grad_out, out=out), grad_out.sum(axis=0)


class Workspace:
    """Scratch arrays by name, reused from one call to the next.

    ``array(name, shape)`` returns an array of ``shape`` and of the
    workspace's dtype, laid over the named buffer, which a larger request
    replaces. A loop over equal-sized batches thus allocates its large
    temporaries once instead of paging in fresh ones on every pass. The
    next request under a name overwrites what the last one handed out.
    """

    def __init__(self, dtype=np.float64):
        self.dtype = dtype
        self._buffers = {}

    def array(self, name, shape):
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size, self.dtype)
        return buf[:size].reshape(shape)


class Adam:
    """Adaptive moment estimation, one moment pair per parameter array."""

    CHUNK = 16384   # elements per block: a block's six arrays stay in cache

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self._work = Workspace(params[0].dtype)

    def step(self, params, grads):
        """One update, in place. Each parameter is updated a block of rows at
        a time, about CHUNK elements, through two block-sized scratch arrays,
        so a block's arrays stay in cache. Every product, sum and quotient
        rounds as in ``p -= lr * (m / b1c) / (sqrt(v / b2c) + eps)``."""
        work = self._work
        self.step_count += 1
        b1c = 1.0 - self.beta1 ** self.step_count
        b2c = 1.0 - self.beta2 ** self.step_count
        for param, grad, m_all, v_all in zip(params, grads, self.m, self.v,
                                             strict=True):
            rows = max(1, self.CHUNK * len(param) // param.size)
            for lo in range(0, len(param), rows):
                block = slice(lo, lo + rows)
                p, g, m, v = param[block], grad[block], m_all[block], v_all[block]
                t = np.multiply(g, 1.0 - self.beta1, out=work.array("adam_t", p.shape))
                m *= self.beta1
                m += t
                np.multiply(g, 1.0 - self.beta2, out=t)
                t *= g
                v *= self.beta2
                v += t
                np.divide(m, b1c, out=t)
                t *= self.lr
                d = np.divide(v, b2c, out=work.array("adam_d", p.shape))
                np.sqrt(d, out=d)
                d += self.eps
                t /= d
                p -= t


def tanh_layer(layer, x, out):
    """tanh(x @ w + b), computed in ``out``."""
    out = layer.forward(x, out)
    return np.tanh(out, out=out)


def tanh_backward(grad, h):
    """grad * (1 - h**2) for h = tanh(z), written over ``grad``; ``h`` is
    overwritten with 1 - h**2."""
    np.square(h, out=h)
    np.subtract(1.0, h, out=h)
    grad *= h
    return grad


def log_softmax_masked(logits, mask):
    """Row-wise log-softmax over the unmasked entries; masked cells -> -inf."""
    neg = np.where(mask, logits, -np.inf)
    mx = neg.max(axis=1, keepdims=True)
    z = np.exp(neg - mx)
    return neg - mx - np.log(z.sum(axis=1, keepdims=True))


def softplus(x):
    return np.logaddexp(0.0, x)
