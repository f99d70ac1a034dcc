"""Softmax attention with a hand-derived backward, rotary embeddings, masks.

Layouts: batched attention works on [..., H, T, head_dim]; rotary embedding
works on [..., T, H, head_dim] (rotation happens before the head transpose).
The decoding engine uses the per-query-row kernel at the bottom, whose bits
never depend on how queries are grouped into calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numcore as nc
from .numcore import Parameter, Tensor

NEG_BIAS = -1e9  # large negative bias standing in for -inf pre-softmax


# ---------------------------------------------------------------- rotary table

@dataclass
class RopeTable:
    """Per-position pairwise rotation angles: theta[p, j] = p * base^(-2j/head_dim)."""

    max_positions: int
    head_dim: int
    base: float
    cos: np.ndarray = field(repr=False)  # [max_positions, head_dim//2] float64
    sin: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, max_positions: int, head_dim: int, base: float = 10000.0) -> "RopeTable":
        if head_dim % 2 != 0:
            raise ValueError("rotary head_dim must be even, got %d" % head_dim)
        if max_positions < 1:
            raise ValueError("max_positions must be >= 1")
        j = np.arange(head_dim // 2, dtype=np.float64)
        inv_freq = base ** (-2.0 * j / head_dim)
        theta = np.arange(max_positions, dtype=np.float64)[:, None] * inv_freq[None, :]
        return cls(max_positions, head_dim, base, np.cos(theta), np.sin(theta))

    def gather(self, positions: np.ndarray, dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
        """cos/sin rows for integer positions of any shape, cast to dtype."""
        p = np.asarray(positions)
        if p.size and (p.min() < 0 or p.max() >= self.max_positions):
            raise IndexError(
                "position out of rotary table range [0, %d)" % self.max_positions)
        return self.cos[p].astype(dtype), self.sin[p].astype(dtype)


def rotate_pairs(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate even/odd feature pairs of x [..., T, H, hd] by cos/sin [..., T, hd//2]."""
    hd = x.shape[-1]
    xp = x.reshape(x.shape[:-1] + (hd // 2, 2))
    c = cos[..., None, :]  # broadcast over the head axis
    s = sin[..., None, :]
    x0, x1 = xp[..., 0], xp[..., 1]
    out = np.empty(x.shape, dtype=x.dtype)  # owns its buffer, unlike a reshape
    op = out.reshape(xp.shape)
    op[..., 0] = x0 * c - x1 * s
    op[..., 1] = x0 * s + x1 * c
    return out


def apply_rope(x: Tensor, positions: np.ndarray, table: RopeTable) -> Tensor:
    """Tape op: rotate x [..., T, H, head_dim] at the given positions [..., T]."""
    if x.shape[-1] != table.head_dim:
        raise ValueError("head_dim mismatch: x has %d, table %d" % (x.shape[-1], table.head_dim))
    p = np.asarray(positions)
    if p.shape != x.shape[:-2]:
        raise ValueError("positions shape %r does not match x %r" % (p.shape, x.shape))
    cos, sin = table.gather(p, dtype=x.dtype)
    out = rotate_pairs(x.data, cos, sin)

    def bwd(g):
        # inverse rotation (transpose of each 2x2 block)
        return (rotate_pairs(g, cos, -sin),)
    return nc.from_op(out, (x,), bwd)


# ---------------------------------------------------------------- masks

@dataclass
class AttentionMask:
    """Boolean allow-matrix [Tq, Tk] tagged with the pattern that built it."""

    kind: str
    allowed: np.ndarray = field(repr=False)

    def bias(self, dtype) -> np.ndarray:
        return np.where(self.allowed, 0.0, NEG_BIAS).astype(dtype)


def causal_mask(n: int) -> AttentionMask:
    return AttentionMask("causal", np.tril(np.ones((n, n), dtype=bool)))


def cross_full_mask(num_queries: int, num_keys: int) -> AttentionMask:
    return AttentionMask("cross_full", np.ones((num_queries, num_keys), dtype=bool))


def prefix_lengths(mask: AttentionMask) -> np.ndarray:
    """Per-query allowed-key count, valid only when each row allows a prefix."""
    allowed = mask.allowed
    lens = allowed.sum(axis=1)
    rows = np.arange(allowed.shape[0])
    if not all(allowed[r, :lens[r]].all() for r in rows):
        raise ValueError("mask rows are not key prefixes")
    return lens


# ---------------------------------------------------------------- multi-head params

@dataclass
class MultiHeadParams:
    """Projection weights of one self-attention block, all d x d."""

    wq: Parameter
    wk: Parameter
    wv: Parameter
    wo: Parameter
    num_heads: int

    def __post_init__(self):
        d = self.wq.shape[0]
        if d % self.num_heads != 0:
            raise ValueError("hidden %d not divisible by %d heads" % (d, self.num_heads))

    @property
    def head_dim(self) -> int:
        return self.wq.shape[0] // self.num_heads


# ---------------------------------------------------------------- batched kernel

def attention_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                      mask: AttentionMask) -> tuple[np.ndarray, np.ndarray]:
    """Masked softmax attention on [..., H, T, head_dim]; returns (out, probs).

    Disallowed entries get a -1e9 bias; with max-subtraction their exp
    underflows to exact zero, and they are zeroed explicitly as well so a row
    with no allowed key yields the zero vector instead of NaN.
    """
    if q.shape[-1] != k.shape[-1] or k.shape[:-1] != v.shape[:-1]:
        raise ValueError("q/k/v head shapes disagree: %r %r %r"
                         % (q.shape, k.shape, v.shape))
    if mask.allowed.shape != (q.shape[-2], k.shape[-2]):
        raise ValueError("mask %r does not match Tq=%d, Tk=%d"
                         % (mask.allowed.shape, q.shape[-2], k.shape[-2]))
    scale = 1.0 / np.sqrt(q.shape[-1])
    p = q @ k.swapaxes(-1, -2)  # scores, turned into probs in place
    p *= scale
    p += mask.bias(q.dtype)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p *= mask.allowed
    denom = p.sum(axis=-1, keepdims=True)
    p /= np.where(denom == 0.0, 1.0, denom)
    return p @ v, p


def attention_backward(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                       probs: np.ndarray, out: np.ndarray, d_out: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients from saved forward activations.

    dP_ij = do_i . v_j ; dS_ij = P_ij (dP_ij - do_i . o_i) ; dq_i = sum_j dS_ij k_j
    (and symmetrically for dk), with the 1/sqrt(head_dim) scale threaded through.
    A query row with do_i = 0 therefore gets dq_i = 0 exactly, while its keys
    and values still receive gradient through other rows.
    """
    scale = 1.0 / np.sqrt(q.shape[-1])
    dv = probs.swapaxes(-1, -2) @ d_out
    ds = d_out @ v.swapaxes(-1, -2)  # dP, turned into dS in place
    ds -= (d_out * out).sum(axis=-1, keepdims=True)
    ds *= probs
    dq = ds @ k
    dq *= scale
    dk = ds.swapaxes(-1, -2) @ q
    dk *= scale
    return dq, dk, dv


def attention(q: Tensor, k: Tensor, v: Tensor, mask: AttentionMask,
              probs_sink: list | None = None) -> Tensor:
    """Tape op wrapping attention_forward/attention_backward."""
    out, probs = attention_forward(q.data, k.data, v.data, mask)
    if probs_sink is not None:
        probs_sink.append(probs)

    def bwd(g):
        return attention_backward(q.data, k.data, v.data, probs, out, g)
    return nc.from_op(out, (q, k, v), bwd)


# ---------------------------------------------------------------- row kernel

def attention_rows(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                   lens: np.ndarray) -> np.ndarray:
    """Per-query attention: q [m, H, hd], k/v [H, L, hd], lens[i] = allowed prefix.

    Every query row is its own gufunc stack entry, and scores, softmax, and
    the value mix each reduce inside one row only, so results are
    bit-identical however queries are batched, and identical to a
    from-scratch recompute that sees the same key prefix. Rows sharing one
    prefix length run as a single stacked call; mixed lengths fall back to a
    per-row loop over the same cores. lens must be >= 1.
    """
    m, num_heads, hd = q.shape
    qs = q * np.asarray(1.0 / np.sqrt(hd), dtype=q.dtype)  # pre-scale once
    n0 = int(lens[0])
    if m == 1 or (np.asarray(lens) == n0).all():
        s = np.matmul(k[None, :, :n0, :], qs[:, :, :, None])[..., 0]  # [m, H, n0]
        s -= s.max(axis=-1, keepdims=True)
        p = np.exp(s)
        p /= p.sum(axis=-1, keepdims=True)
        return np.matmul(p[:, :, None, :], v[None, :, :n0, :])[:, :, 0]
    out = np.empty_like(q)
    for i in range(m):
        n = int(lens[i])
        s = np.matmul(k[:, :n, :], qs[i][:, :, None])[..., 0]  # [H, n]
        s -= s.max(axis=-1, keepdims=True)
        p = np.exp(s)
        p /= p.sum(axis=-1, keepdims=True)
        out[i] = np.matmul(p[:, None, :], v[:, :n, :])[:, 0, :]
    return out
