"""Shared test helpers: finite-difference oracle and tolerance assertions."""

import numpy as np
import pytest

from arpg import numcore as nc


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
