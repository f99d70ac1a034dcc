"""Shared test helpers: finite-difference oracle, tolerance assertions, unfused
references, and a one-chunk content pass."""

import numpy as np
import pytest

from arpg import model as md
from arpg import numcore as nc
from arpg.attention import _heads, _joined, attention_backward, attention_forward
from arpg.decoding import KvCache


def fd_grad(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f wrt every element of x (in place probes)."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + eps
        fp = f()
        flat[i] = saved - eps
        fm = f()
        flat[i] = saved
        gf[i] = (fp - fm) / (2.0 * eps)
    return g


def assert_grads_close(analytic: np.ndarray, numeric: np.ndarray,
                       abs_tol: float = 1e-5, rel_tol: float = 1e-6) -> None:
    """Pass when every element is within abs_tol absolutely or rel_tol relatively."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    assert analytic.shape == numeric.shape
    diff = np.abs(analytic - numeric)
    ok = (diff <= abs_tol) | (diff <= rel_tol * np.abs(numeric))
    if not ok.all():
        worst = np.unravel_index(np.argmax(diff), diff.shape)
        raise AssertionError(
            "gradient mismatch at %r: analytic %.3e vs numeric %.3e (|diff| %.3e)"
            % (worst, analytic[worst], numeric[worst], diff[worst]))


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), floor)))


# ---------------------------------------------------------------- unfused references
# Elementwise tape nodes the tests build losses and compositions from. They
# never broadcast: b is a tensor or a constant (array or scalar) whose
# product or sum with a has a's shape.

def _const(b, a):
    c = np.asarray(b, dtype=a.dtype)
    assert np.broadcast_shapes(a.shape, c.shape) == a.shape, (a.shape, c.shape)
    return c


def add(a, b):
    """a + b as its own node."""
    if isinstance(b, nc.Tensor):
        assert a.shape == b.shape, (a.shape, b.shape)
        return nc.from_op(a.data + b.data, (a, b), lambda g: (g, g))
    return nc.from_op(a.data + _const(b, a), (a,), lambda g: (g,))


def mul(a, b):
    """a * b as its own node."""
    if isinstance(b, nc.Tensor):
        assert a.shape == b.shape, (a.shape, b.shape)
        return nc.from_op(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))
    c = _const(b, a)
    return nc.from_op(a.data * c, (a,), lambda g: (g * c,))


def sum_all(x):
    """The sum of every element of x, a 0-d node."""
    def bwd(g):
        return (np.broadcast_to(g, x.shape).astype(x.dtype, copy=True),)
    return nc.from_op(np.asarray(x.data.sum()), (x,), bwd)


# The standalone RMSNorm and SwiGLU tape nodes that the fused gemm nodes
# replace. Each holds its output on the tape; the fused nodes must match
# their compositions bit for bit.

def _rowdot(a, b):
    return np.einsum("...i,...i->...", a, b)[..., None]


def rms_norm_node(x, gain, eps=1e-6):
    """x * s * gain with s = 1 / rms(x) per row, as its own node."""
    n = x.shape[-1]
    s = 1.0 / np.sqrt(_rowdot(x.data, x.data) / n + eps)

    def bwd(g):
        xs = x.data * s
        gy = g * gain.data
        t = xs * (_rowdot(gy, xs) / n)
        gy -= t
        gy *= s
        return gy, np.einsum("ri,ri->i", g.reshape(-1, n), xs.reshape(-1, n))
    return nc.from_op(x.data * s * gain.data, (x, gain), bwd)


def swiglu_node(h):
    """silu(a) * b for h = a|b [..., 2f], as its own node."""
    f = h.shape[-1] // 2
    a, b = h.data[..., :f], h.data[..., f:]

    def sigmoid():
        sig = np.negative(a)
        np.exp(sig, out=sig)
        sig += 1.0
        np.reciprocal(sig, out=sig)
        return sig
    out = a * sigmoid()
    out *= b

    def bwd(g):
        sig = sigmoid()
        d = np.empty(h.shape, dtype=h.dtype)
        da, db = d[..., :f], d[..., f:]
        np.multiply(g, b, out=db)
        np.subtract(1.0, sig, out=da)
        da *= a
        da += 1.0
        da *= sig
        da *= db
        np.multiply(a, sig, out=db)
        db *= g
        return (d,)
    return nc.from_op(out, (h,), bwd)


def swiglu_residual(x, h, w, keep=None):
    """x + (silu(a) * b @ w) * keep for h = a|b [..., 2f] and w [f, d], as one node.

    The SwiGLU residual node that ffn_residual replaces: it holds the
    gate|up product h and rebuilds silu(a) * b from it. Bit for bit
    swiglu_node feeding residual_matmul_node.
    """
    f = h.shape[-1] // 2
    a, b = h.data[..., :f], h.data[..., f:]
    u = a * nc._sigmoid(a)
    u *= b
    out = nc.residual_sum(x.data, (u.reshape(-1, f) @ w.data).reshape(h.shape[:-1] + w.shape[1:]),
                          keep)
    del u

    def bwd(g):
        g2 = (g if keep is None else g * keep).reshape(-1, g.shape[-1])
        d = np.empty(h.shape, dtype=h.dtype)
        da, db = d[..., :f], d[..., f:]
        u = nc._sigmoid(a)
        db[...] = u
        sig = db
        np.multiply(a, u, out=u)
        u *= b
        u2 = u.reshape(-1, f)
        dw = u2.T @ g2
        du = np.matmul(g2, w.data.T, out=u2).reshape(u.shape)
        # da = sig * (1 + a * (1 - sig)) * (du * b), db = silu(a) * du
        np.subtract(1.0, sig, out=da)
        da *= a
        da += 1.0
        da *= sig
        np.multiply(a, sig, out=db)
        db *= du
        du *= b
        da *= du
        return g, d, dw
    return nc.from_op(out, (x, h, w), bwd)


# The standalone attention and residual gemm nodes that the fused attention
# nodes replace. They hold the probs and the joined heads on the tape.

def self_attention_node(qkv, mask, heads):
    """Joined heads [B, T, d] of self-attention over q|k|v rows [B, T, 3d]."""
    b, t, d3 = qkv.shape
    x = qkv.data.reshape(b, t, 3 * heads, d3 // (3 * heads)).transpose(0, 2, 1, 3)
    q, k, v = x[:, :heads], x[:, heads:2 * heads], x[:, 2 * heads:]
    out, probs = attention_forward(q, k, v, mask)
    out = _joined(out)

    def bwd(g):
        grads = attention_backward(q, k, v, probs, _heads(out, heads), _heads(g, heads))
        return (_joined(*grads),)
    return nc.from_op(out, (qkv,), bwd)


def cross_attention_node(q, kv, mask, heads):
    """Joined heads [B, Q, d] of q [B, Q, d] attending to k|v rows kv [B, S, 2d]."""
    d = q.shape[-1]
    qh = _heads(q.data, heads)
    kh, vh = _heads(kv.data[..., :d], heads), _heads(kv.data[..., d:], heads)
    out, probs = attention_forward(qh, kh, vh, mask)
    out = _joined(out)

    def bwd(g):
        dq, dk, dv = attention_backward(qh, kh, vh, probs, _heads(out, heads), _heads(g, heads))
        return _joined(dq), _joined(dk, dv)
    return nc.from_op(out, (q, kv), bwd)


def residual_matmul_node(x, a, w, keep=None):
    """x + (a @ w) * keep as one node that holds a."""
    d = a.shape[-1]
    out = (a.data.reshape(-1, d) @ w.data).reshape(x.shape)
    if keep is not None:
        out *= keep
    out += x.data

    def bwd(g):
        gk = (g if keep is None else g * keep).reshape(-1, g.shape[-1])
        dw = a.data.reshape(-1, d).T @ gk
        da = np.empty(a.shape, dtype=a.dtype)
        np.matmul(gk, w.data.T, out=da.reshape(-1, d))
        return g, da, dw
    return nc.from_op(out, (x, a, w), bwd)


# ---------------------------------------------------------------- sampling reference

def filtered_sample_loop(logits, temperature, top_k, top_p, rng):
    """decoding.sample_tokens' filtered draw as a loop over finite logit rows.

    The reference the whole-array sampler must match id for id and draw for
    draw: per row a stable sort by descending probability, the top-k slice,
    the shortest prefix whose mass reaches top_p, renormalization and one
    inverse-cdf draw.
    """
    z = np.asarray(logits, dtype=np.float64) / temperature
    z = z - z.max(axis=-1, keepdims=True)
    probs = np.exp(z)
    probs /= probs.sum(axis=-1, keepdims=True)
    out = np.empty(probs.shape[0], dtype=np.int64)
    for i in range(probs.shape[0]):
        order = np.argsort(-probs[i], kind="stable")
        if top_k is not None:
            order = order[:top_k]
        kept = probs[i][order]
        if top_p < 1.0:
            cum = np.cumsum(kept)
            cut = int(np.searchsorted(cum, top_p - 1e-9, side="left")) + 1
            order = order[:cut]
            kept = kept[:cut]
        kept = kept / kept.sum()
        j = int(np.searchsorted(np.cumsum(kept), rng.random(), side="right"))
        out[i] = order[min(j, len(order) - 1)]
    return out


# ---------------------------------------------------------------- content pass

def content_kv(params, ids, positions, pattern="causal"):
    """Outgoing (k, v) per kv stream after one content pass over [condition, ...]
    into a fresh cache of 1 + seq_len rows, the width a generation's has."""
    cache = KvCache(params.config, 1 + params.config.seq_len, params.dtype)
    md.forward_pass1(params, ids, positions, cache, pattern)
    return cache.out_kv()
