"""Softmax attention with a hand-derived backward, rotary embeddings, masks.

Layouts: the batched kernels (attention_forward/attention_backward) work on
[..., H, T, head_dim]. The training route keeps activations joined,
[B, T, H * head_dim]: `attention_block` runs a whole block, from its input
through the rotated projection and the kernels, which read per-head strided
views (reshape + transpose, no copy), to the residual sum, as one tape node
that holds neither the projection nor the probs nor the joined heads.
Rotary embedding rotates each head_dim group of the last axis, in either
layout, at per-token positions by the interleaved rows of RopeTable.rows,
the one table format of both routes; on the training route it turns q|k, q
or k inside the projection's own buffer. The decoding engine uses the
per-query-row kernel at the bottom, whose bits never depend on how queries
are grouped. Both kernels mask one way: a blocked key scores -inf and weighs
exactly +0; a query with no open key (only the batched kernel takes one)
outputs zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numcore as nc
from .numcore import Tensor

ROWS_BLOCK = 1 << 14  # score entries attention_rows holds at once


# ---------------------------------------------------------------- rotary table

class RopeTable:
    """Rotary angles theta[p, j] = p * base^(-2j/head_dim) for positions [0, size).

    The table decides its own size: rows() grows it to the largest position
    it is asked for. Each row is computed in float64 from its own position
    alone, so growth changes no row's bits. One interleaved (c, c), (-s, s)
    pair [size, head_dim] is kept per dtype, cast on its first use, so
    repeated calls cast nothing; growth drops them all.
    """

    def __init__(self, head_dim: int, size: int, base: float = 10000.0):
        if head_dim % 2 != 0 or size < 1:
            raise ValueError("rotary head_dim must be even and size >= 1, got %d and %d"
                             % (head_dim, size))
        self.head_dim, self.size, self.base = head_dim, size, base
        self._interleaved: dict = {}  # dtype -> (cc, ss)

    def rows(self, positions: np.ndarray, dtype) -> tuple[np.ndarray, np.ndarray]:
        """Interleaved rows (c, c) and (-s, s) [..., head_dim] for integer positions.

        The one table format: rotate_pairs and rotary_matmul both read these
        rows. Raises IndexError for a negative position.
        """
        p = np.asarray(positions)
        if p.size and p.min() < 0:
            raise IndexError("rotary position %d is negative" % p.min())
        if p.size and p.max() >= self.size:
            self.size = int(p.max()) + 1
            self._interleaved.clear()
        if np.dtype(dtype) not in self._interleaved:
            j = np.arange(self.head_dim // 2, dtype=np.float64)
            inv_freq = self.base ** (-2.0 * j / self.head_dim)
            theta = np.arange(self.size, dtype=np.float64)[:, None] * inv_freq
            ss = np.repeat(np.sin(theta), 2, axis=-1)
            ss[:, 0::2] *= -1.0
            self._interleaved[np.dtype(dtype)] = (
                np.repeat(np.cos(theta), 2, axis=-1).astype(dtype), ss.astype(dtype))
        cc, ss = self._interleaved[np.dtype(dtype)]
        return cc[p], ss[p]


def rotate_pairs(x: np.ndarray, cc: np.ndarray, ss: np.ndarray) -> np.ndarray:
    """Rotate even/odd feature pairs of x [..., T, H, hd] by RopeTable.rows [..., T, hd].

    x * (c, c) plus the pair-swapped x * (-s, s): bit for bit
    (x0*c - x1*s, x0*s + x1*c), since x1*(-s) is -(x1*s) and IEEE addition
    commutes. Passing -ss turns the other way. The result is a fresh array
    that owns its buffer.
    """
    out = x * cc[..., None, :]  # broadcast over the head axis
    out += _swapped(x, ss[..., None, :])  # after the product, which takes ufunc buffers
    return out


def _swapped(x: np.ndarray, ss: np.ndarray) -> np.ndarray:
    """Fresh x with each even/odd feature pair swapped, times ss."""
    sw = np.empty(x.shape, dtype=x.dtype)
    sw[..., 0::2] = x[..., 1::2]
    sw[..., 1::2] = x[..., 0::2]
    sw *= ss
    return sw


def apply_rope(x: Tensor, positions: np.ndarray, table: RopeTable) -> Tensor:
    """Tape op: rotate x at the given positions [..., T].

    x is [..., T, H, head_dim], or joined [..., T, H * head_dim] when the
    positions cover every axis but the last.
    """
    hd = table.head_dim
    p = np.asarray(positions)
    joined = p.shape == x.shape[:-1]
    if x.shape[-1] % hd != 0 or not (joined or x.shape[-1] == hd):
        raise ValueError("head_dim mismatch: x has %d, table %d" % (x.shape[-1], hd))
    if not joined and p.shape != x.shape[:-2]:
        raise ValueError("positions shape %r does not match x %r" % (p.shape, x.shape))
    heads = x.shape[:-1] + (x.shape[-1] // hd, hd) if joined else x.shape
    cc, ss = table.rows(p, x.dtype)
    out = rotate_pairs(x.data.reshape(heads), cc, ss).reshape(x.shape)

    def bwd(g):
        # inverse rotation (transpose of each 2x2 block)
        return (rotate_pairs(g.reshape(heads), cc, -ss).reshape(x.shape),)
    return nc.from_op(out, (x,), bwd)


def _rotate_leading(x: np.ndarray, width: int, cc: np.ndarray, ss: np.ndarray) -> None:
    """Rotate the first `width` columns of x [..., T, f] in place by rows cc/ss [..., T, hd].

    Three full-width ops: sw = the pair-swapped columns times (-s, s),
    x *= (c, c), x += sw. Bit for bit rotate_pairs.
    """
    lead = x[..., :width].reshape(x.shape[:-1] + (width // cc.shape[-1], cc.shape[-1]))
    sw = _swapped(lead, ss[..., None, :])  # broadcast over the head axis
    lead *= cc[..., None, :]
    lead += sw


def _rotary_projection(a: Tensor, w: Tensor, rotated: int, table: RopeTable,
                       positions: np.ndarray, gain: Tensor | None) -> tuple:
    """(saved, out) of nc.gemm_rows, out's first `rotated` columns rotated at positions."""
    saved, out = nc.gemm_rows(a, w, gain)
    cc, ss = table.rows(positions, out.dtype)
    _rotate_leading(out, rotated, cc, ss)
    return saved, out


def _rotary_projection_grads(a: Tensor, saved: np.ndarray, w: Tensor, g: np.ndarray,
                             rotated: int, table: RopeTable, positions: np.ndarray,
                             gain: Tensor | None) -> tuple[np.ndarray, ...]:
    """Grads of _rotary_projection at g, overwritten: turn back, then nc.gemm_rows_grads."""
    cc, ss = table.rows(positions, g.dtype)
    _rotate_leading(g, rotated, cc, -ss)
    return nc.gemm_rows_grads(a, saved, w, g, gain)


def rotary_matmul(a: Tensor, w: Tensor, rotated: int, table: RopeTable,
                  positions: np.ndarray, gain: Tensor | None = None) -> Tensor:
    """Tape op: a @ w [..., T, f] with its first `rotated` columns rotated in place.

    Those columns turn per head_dim group by table.rows at positions [..., T],
    so the tape holds one buffer for the projection and its rotation, and the
    positions: backward gathers the rows again to turn back. Bit for bit
    apply_rope of the matmul over those columns. With gain the gemm reads
    RMSNorm(a) * gain, rebuilt in backward (see nc.gemm_rows).
    """
    hd = table.head_dim
    if rotated % hd or not 0 <= rotated <= w.shape[-1]:
        raise ValueError("cannot rotate %d of %d columns in whole heads of %d"
                         % (rotated, w.shape[-1], hd))
    saved, out = _rotary_projection(a, w, rotated, table, positions, gain)
    return nc.from_op(out, (a, w) if gain is None else (a, gain, w),
                      lambda g: _rotary_projection_grads(a, saved, w, g, rotated, table,
                                                         positions, gain))


# ---------------------------------------------------------------- masks

@dataclass
class AttentionMask:
    """Boolean allow-matrix [Tq, Tk] tagged with the pattern that built it."""

    kind: str
    allowed: np.ndarray = field(repr=False)


def causal_mask(n: int) -> AttentionMask:
    return AttentionMask("causal", np.tril(np.ones((n, n), dtype=bool)))


def cross_full_mask(num_queries: int, num_keys: int) -> AttentionMask:
    return AttentionMask("cross_full", np.ones((num_queries, num_keys), dtype=bool))


# ---------------------------------------------------------------- batched kernel

def _row_max(p: np.ndarray) -> np.ndarray:
    """p.max(axis=-1, keepdims=True) in a fresh array, as a halving np.maximum tree.

    Max is exact, so the tree gives the reduction's values (a zero max may
    differ in sign, which p -= max cannot tell apart); on short rows it runs
    faster than numpy's per-row reduction loop. An odd width folds its last
    column into the first at each level.
    """
    if p.shape[-1] < 2:
        return p.max(axis=-1, keepdims=True)
    m = p
    while m.shape[-1] > 1:
        n = m.shape[-1]
        h = n // 2
        top = np.maximum(m[..., :h], m[..., h:2 * h])
        if n % 2:
            np.maximum(top[..., :1], m[..., 2 * h:], out=top[..., :1])
        m = top
    return m


def attention_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray, mask: AttentionMask,
                      stats: list | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Masked softmax attention on [..., H, T, head_dim]; returns (out, probs).

    A blocked key scores -inf, so it weighs exactly +0 whatever finite k and
    v it holds; a query with no open key takes max 0 and outputs zeros.
    stats carries each query row's max score (0 with no open key) and
    softmax divisor [..., H, T, 1]: an empty list receives them, and a list
    holding them stands in for the two reductions, so the call rebuilds the
    probs and out of an earlier call bit for bit.
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
    np.copyto(p, -np.inf, where=~mask.allowed)
    rebuild = bool(stats)
    row_max = stats[0] if rebuild else _row_max(p)
    row_max[row_max == -np.inf] = 0.0  # no open key: every weight is exp(-inf) = +0
    p -= row_max
    np.exp(p, out=p)
    if rebuild:
        divisor = stats[1]
    else:
        denom = p.sum(axis=-1, keepdims=True)
        divisor = np.where(denom == 0.0, 1.0, denom)
        if stats is not None:
            stats += [row_max, divisor]
    p /= divisor
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


def _heads(x: np.ndarray, heads: int) -> np.ndarray:
    """Joined [B, T, H * hd] as a per-head view [B, H, T, hd]."""
    b, t, d = x.shape
    return x.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3)


def _joined(*parts: np.ndarray) -> np.ndarray:
    """Per-head [B, H, T, hd] arrays side by side in a fresh joined [B, T, n * H * hd]."""
    b, h, t, hd = parts[0].shape
    out = np.empty((b, t, len(parts) * h * hd), dtype=parts[0].dtype)
    joined = out.reshape(b, t, len(parts) * h, hd)
    for i, x in enumerate(parts):
        joined[:, :, i * h:(i + 1) * h] = x.transpose(0, 2, 1, 3)
    return out


def _qkv_heads(p: np.ndarray, kv: Tensor | None, heads: int) -> tuple[np.ndarray, ...]:
    """Per-head views q, k, v [B, H, T, hd] of q|k|v rows p, or of q rows p and kv's k|v."""
    if kv is None:
        xh = _heads(p, 3 * heads)
        return xh[:, :heads], xh[:, heads:2 * heads], xh[:, 2 * heads:]
    d = p.shape[-1]
    return _heads(p, heads), _heads(kv.data[..., :d], heads), _heads(kv.data[..., d:], heads)


def attention_block(x: Tensor, gain: Tensor, w: Tensor, table: RopeTable,
                    positions: np.ndarray, kv: Tensor | None, wo: Tensor,
                    mask: AttentionMask, heads: int, keep: np.ndarray | None = None,
                    probs_sink: list | None = None) -> Tensor:
    """Tape op: one attention block of x [B, T, d], projection to residual sum.

    p = RMSNorm(x) * gain @ w, its q (and k) columns rotated at positions
    [B, T] as rotary_matmul does. With kv None, w is wq|wk|wv [d, 3d] and the
    block is x + (self-attention over p) @ wo * keep; with k|v rows kv
    [B, S, 2d], w is wq [d, d] and the block is p + (attention of p over kv)
    @ wo * keep, the rotated query being the residual carrier. The node holds
    x, its per-row scale, the positions and two softmax statistics
    [B, H, T, 1]; backward rebuilds p, the probs and the joined heads with
    the forward's own calls. Bit for bit rotary_matmul feeding an attention
    node and a residual gemm node (dx + g for x has the bits of g + dx).
    """
    width = w.shape[-1]
    if kv is None and width % (3 * heads):
        raise ValueError("fused q|k|v width %d does not hold 3 x %d heads" % (width, heads))
    if kv is not None and kv.shape[-1] != 2 * width:
        raise ValueError("k|v width %d is not twice the query width %d" % (kv.shape[-1], width))
    rotated = width if kv is not None else 2 * width // 3
    saved, p = _rotary_projection(x, w, rotated, table, positions, gain)
    stats: list = []
    o, probs = attention_forward(*_qkv_heads(p, kv, heads), mask, stats)
    if probs_sink is not None:
        probs_sink.append(probs)
    del probs
    a = Tensor(_joined(o))
    del o
    out = nc.residual_sum(x.data if kv is None else p, nc.gemm_rows(a, wo)[1], keep)

    def bwd(g):
        p = _rotary_projection(x, w, rotated, table, positions, gain)[1]
        q, k, v = _qkv_heads(p, kv, heads)
        o, probs = attention_forward(q, k, v, mask, stats)
        a = Tensor(_joined(o))
        del o
        da, dwo = nc.gemm_rows_grads(a, a.data.reshape(-1, a.shape[-1]), wo,
                                     g if keep is None else g * keep)
        dq, dk, dv = attention_backward(q, k, v, probs, _heads(a.data, heads),
                                        _heads(da, heads))
        del probs, a, da, q, k, v, p
        if kv is None:
            dp = _joined(dq, dk, dv)
        else:  # the carrier's gradient g + dq, in g's buffer
            dp, dkv = np.add(g, _joined(dq), out=g), _joined(dk, dv)
        del dq, dk, dv
        dx, dgain, dw = _rotary_projection_grads(x, saved, w, dp, rotated, table, positions,
                                                 gain)
        if kv is not None:
            return dx, dgain, dw, dkv, dwo
        dx += g  # the residual's gradient
        return dx, dgain, dw, dwo
    return nc.from_op(out, (x, gain, w, wo) if kv is None else (x, gain, w, kv, wo), bwd)


# ---------------------------------------------------------------- row kernel

def attention_rows(q: np.ndarray, k: np.ndarray, v: np.ndarray, lens: np.ndarray,
                   masked: np.ndarray | None = None) -> np.ndarray:
    """Per-query attention: q [m, H, hd], k/v [H, C, hd], lens[i] = allowed prefix.

    Every row reduces over all C keys: scores of keys at or past its prefix
    are set to -inf, so their weights are exactly +0 whatever finite k and v
    those rows hold. A row's bits therefore depend only on its own q, its
    prefix and C, never on the other rows of the call or their prefixes:
    every query row (per head) is its own gufunc stack entry, and the
    softmax and value mix each reduce inside one row only. Calls of any mix
    of prefix lengths run as stacked calls over blocks of at most
    ROWS_BLOCK // (H * C) rows, which bounds the scores buffer; the blocking
    changes no bit. lens must lie in [1, C]. masked is
    np.arange(C) >= lens[:, None, None] when the caller already holds it
    (one content pass builds it once for all its layers); otherwise it is
    built here, and not at all when every prefix covers all C keys.
    """
    m, num_heads, hd = q.shape
    width = k.shape[1]
    scale = np.asarray(1.0 / np.sqrt(hd), dtype=q.dtype)
    if masked is None:
        lens = np.asarray(lens)[:, None, None]
        if np.minimum.reduce(lens, axis=None) < width:
            masked = np.arange(width) >= lens
    step = max(1, ROWS_BLOCK // (num_heads * width))
    out = np.empty_like(q)
    for a in range(0, m, step):
        s = np.matmul(k, q[a:a + step, :, :, None] * scale)[..., 0]  # [rows, H, C]
        if masked is not None:
            np.copyto(s, -np.inf, where=masked[a:a + step])
        s -= np.maximum.reduce(s, axis=-1, keepdims=True)
        np.exp(s, out=s)
        s /= np.add.reduce(s, axis=-1, keepdims=True)
        np.matmul(s[:, :, None, :], v, out=out[a:a + step, :, None, :])
    return out
