"""Two-pass decoder: a causal content stack producing shared key/values from
known tokens, and a query stack decoding arbitrary target positions from a
single learned [MASK] embedding rotated to each target position.

Projections that run as one matmul are stored as one fused weight: wq|wk|wv
([d, 3d]) per content layer, w1|w3 ([d, 2f]) per SwiGLU, and one k|v weight
([d, 2d]) per outgoing kv stream. Both forward routes read these same arrays.
The batched tape route (forward_train_batch) runs BLAS matmuls and feeds the
optimizer. On it each RMSNorm is folded into the gemm that reads it, and each
FFN and each attention block, from its input to its residual sum, is one
node, so the tape holds the residual stream with its per-row norm scales,
the k|v and logits products and two per-row softmax statistics per
attention block; backward rebuilds the q|k|v and q projections, the w1|w3
products, the SwiGLU outputs, the attention probs and the joined heads. The
single-sample inference route (forward_pass1 / forward_pass2) computes every
matmul row by row and attention per query, so its bits are invariant to how
tokens are chunked into calls; the decoding engine's cache-equality
guarantees rest on that. The content pass only extends a cache it is
given; the decoding module opens every cache and picks its width. A content
row attends over every row of that cache, keys past its prefix at exactly
zero weight, so the cache's capacity is part of its bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .attention import (AttentionMask, RopeTable, attention_block, attention_rows,
                        causal_mask, rotary_matmul, rotate_pairs)
from .attention import apply_rope  # noqa: F401 -- profilers patch model.apply_rope
from .numcore import Parameter, Tensor, rowwise_matmul
from .ordering import check_int, is_permutation


# ---------------------------------------------------------------- configuration

@dataclass
class ModelConfig:
    vocab_size: int = 16
    num_classes: int = 4
    hidden: int = 128
    heads: int = 4
    pass1_layers: int = 4
    pass2_layers: int = 4
    seq_len: int = 64
    rope_base: float = 10000.0
    dropout: float = 0.0
    shared_kv: bool = True

    def __post_init__(self):
        for name in ("vocab_size", "num_classes", "hidden", "heads", "pass1_layers",
                     "pass2_layers", "seq_len"):
            check_int(name, getattr(self, name))
        if self.hidden < 1 or self.heads < 1:
            raise ValueError("need hidden >= 1 and heads >= 1, got %d and %d"
                             % (self.hidden, self.heads))
        if self.hidden % self.heads != 0:
            raise ValueError("hidden %d not divisible by heads %d" % (self.hidden, self.heads))
        if self.pass1_layers < 0 or self.pass2_layers < 1:
            raise ValueError("need pass1_layers >= 0 and pass2_layers >= 1")
        if self.vocab_size < 2 or self.num_classes < 1 or self.seq_len < 1:
            raise ValueError("vocab_size >= 2, num_classes >= 1, seq_len >= 1 required")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if not 0.0 < self.rope_base < np.inf:
            raise ValueError("rope_base must be finite and > 0, got %r" % (self.rope_base,))

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads

    @property
    def ffn_hidden(self) -> int:
        return int(round(8.0 * self.hidden / 3.0 / 8.0)) * 8

    # embedding-row layout: [image tokens | class tokens | null class | mask]
    def class_token(self, class_id: int) -> int:
        if not 0 <= class_id < self.num_classes:
            raise ValueError("class_id %d outside [0, %d)" % (class_id, self.num_classes))
        return self.vocab_size + class_id

    @property
    def null_class_token(self) -> int:
        return self.vocab_size + self.num_classes

    @property
    def mask_token(self) -> int:
        return self.vocab_size + self.num_classes + 1

    @property
    def embed_rows(self) -> int:
        return self.vocab_size + self.num_classes + 2


def param_count(config: ModelConfig) -> int:
    """Exact trainable-scalar count for a config (closed form, no allocation)."""
    d, f = config.hidden, config.ffn_hidden
    emb = config.embed_rows * d
    p1 = config.pass1_layers * (4 * d * d + 3 * d * f + 2 * d)
    kv = d + (2 * d * d if config.shared_kv else 2 * d * d * config.pass2_layers)
    p2 = config.pass2_layers * (2 * d * d + 3 * d * f + 2 * d)
    head = d + d * config.vocab_size
    return emb + p1 + kv + p2 + head


# ---------------------------------------------------------------- parameters

@dataclass
class Pass1Layer:
    wqkv: Parameter  # [d, 3d], q|k|v column blocks
    wo: Parameter
    attn_norm: Parameter
    ffn_norm: Parameter
    w13: Parameter  # [d, 2f], SwiGLU gate|up column blocks
    w2: Parameter


@dataclass
class Pass2Layer:
    q_norm: Parameter
    wq: Parameter
    wo: Parameter
    ffn_norm: Parameter
    w13: Parameter
    w2: Parameter


def _trunc_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    x = rng.standard_normal(shape)
    bad = np.abs(x) > 2.0
    while bad.any():
        x[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(x) > 2.0
    return x * std


class ArpgParams:
    """All weights of the two-pass decoder, named uniquely for checkpointing.

    kv_proj holds one fused k|v weight [d, 2d] per outgoing kv stream: one
    shared stream, or one per query layer.
    """

    def __init__(self, config: ModelConfig, dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype)
        self.token_embedding: Parameter | None = None
        self.pass1: list[Pass1Layer] = []
        self.kv_norm: Parameter | None = None
        self.kv_proj: list[Parameter] = []
        self.pass2: list[Pass2Layer] = []
        self.final_norm: Parameter | None = None
        self.head: Parameter | None = None
        self.rope = RopeTable(config.head_dim, config.rope_base)

    @classmethod
    def init(cls, config: ModelConfig, rng: np.random.Generator,
             dtype=np.float32, init_std: float = 0.02) -> "ArpgParams":
        self = cls(config, dtype)
        d, f = config.hidden, config.ffn_hidden

        def draw(rows, cols):
            return _trunc_normal(rng, (rows, cols), init_std)

        def mat(name, *blocks):
            # blocks are drawn one by one, then joined column-wise
            return Parameter(name, np.concatenate(blocks, axis=1).astype(dtype))

        def gain(name):
            return Parameter(name, np.ones(d, dtype=dtype))

        self.token_embedding = Parameter(
            "embed.tokens", _trunc_normal(rng, (config.embed_rows, d), init_std).astype(dtype))
        for i in range(config.pass1_layers):
            p = "pass1.layer%d." % i
            wqkv = mat(p + "wqkv", draw(d, d), draw(d, d), draw(d, d))
            wo = mat(p + "wo", draw(d, d))
            w1, w2, w3 = draw(d, f), draw(f, d), draw(d, f)
            self.pass1.append(Pass1Layer(
                wqkv=wqkv, wo=wo, attn_norm=gain(p + "attn_norm"),
                ffn_norm=gain(p + "ffn_norm"), w13=mat(p + "w13", w1, w3), w2=mat(p + "w2", w2)))
        self.kv_norm = gain("kv.norm")
        if config.shared_kv:
            self.kv_proj.append(mat("kv.proj", draw(d, 2 * d)))
        for i in range(config.pass2_layers):
            p = "pass2.layer%d." % i
            wq, wo, w1, w2, w3 = draw(d, d), draw(d, d), draw(d, f), draw(f, d), draw(d, f)
            self.pass2.append(Pass2Layer(
                q_norm=gain(p + "q_norm"), wq=mat(p + "wq", wq), wo=mat(p + "wo", wo),
                ffn_norm=gain(p + "ffn_norm"), w13=mat(p + "w13", w1, w3), w2=mat(p + "w2", w2)))
            if not config.shared_kv:
                self.kv_proj.append(mat(p + "wkv", draw(d, d), draw(d, d)))
        self.final_norm = gain("final.norm")
        self.head = mat("head.proj", draw(d, config.vocab_size))
        return self

    def parameters(self) -> list[Parameter]:
        out = [self.token_embedding]
        for l in self.pass1:
            out += [l.wqkv, l.wo, l.attn_norm, l.ffn_norm, l.w13, l.w2]
        out += [self.kv_norm] + self.kv_proj
        for l in self.pass2:
            out += [l.q_norm, l.wq, l.wo, l.ffn_norm, l.w13, l.w2]
        out += [self.final_norm, self.head]
        return out


# ---------------------------------------------------------------- batched (tape) route

def _keep_mask(x: Tensor, rate: float, rng: np.random.Generator | None) -> np.ndarray | None:
    """Scaled dropout keep mask for a residual branch added to x; None when off."""
    if rng is None or rate <= 0.0:
        return None
    return (rng.random(x.shape) >= rate).astype(x.dtype) / (1.0 - rate)


def _ffn_residual(x: Tensor, layer: Pass1Layer | Pass2Layer, rate: float,
                  rng: np.random.Generator | None) -> Tensor:
    return nc.ffn_residual(x, layer.ffn_norm, layer.w13, layer.w2, _keep_mask(x, rate, rng))


def pass1_hidden(params: ArpgParams, input_ids: np.ndarray, positions: np.ndarray,
                 mask: AttentionMask, probs_sink: list | None = None,
                 dropout_rng: np.random.Generator | None = None) -> Tensor:
    """Content stack over [B, S] tokens at [B, S] rotary positions.

    probs_sink, when given, receives each layer's attention probabilities
    [B, H, S, S], first layer first.
    """
    rate = params.config.dropout
    x = nc.embedding(params.token_embedding, input_ids)
    for layer in params.pass1:
        x = attention_block(x, layer.attn_norm, layer.wqkv, params.rope, positions, None,
                            layer.wo, mask, params.config.heads,
                            _keep_mask(x, rate, dropout_rng), probs_sink)
        x = _ffn_residual(x, layer, rate, dropout_rng)
    return x


def project_kv(params: ArpgParams, h: Tensor, positions: np.ndarray) -> list[Tensor]:
    """RMSNorm(h) * kv_norm @ each weight in params.kv_proj: k|v tensors [B, S, 2d].

    k, the first d columns, is rotated at its position.
    """
    return [rotary_matmul(h, w, params.config.hidden, params.rope, positions, params.kv_norm)
            for w in params.kv_proj]


def pass2_logits(params: ArpgParams, kv: list[Tensor], target_positions: np.ndarray,
                 mask: AttentionMask, probs_sink: list | None = None,
                 dropout_rng: np.random.Generator | None = None) -> Tensor:
    """Query stack: [MASK] embedding rotated to each target, cross-attending kv.

    kv holds project_kv's k|v tensors: one shared, or one per layer. probs_sink,
    when given, receives each layer's attention probs [B, H, Q, S], first layer first.
    """
    cfg = params.config
    b, q_len = target_positions.shape
    rate = cfg.dropout
    # every query enters as the one [MASK] row: a broadcast, not a gathered copy
    o = nc.broadcast_row(params.token_embedding, cfg.mask_token, (b, q_len))
    for li, layer in enumerate(params.pass2):
        # the rotated query itself is the residual carrier
        o = attention_block(o, layer.q_norm, layer.wq, params.rope, target_positions,
                            kv[0 if cfg.shared_kv else li], layer.wo, mask, cfg.heads,
                            _keep_mask(o, rate, dropout_rng), probs_sink)
        o = _ffn_residual(o, layer, rate, dropout_rng)
    return nc.matmul(o, params.head, params.final_norm)


def forward_train_batch(params: ArpgParams, input_ids: np.ndarray,
                        cond_tokens: np.ndarray, perms: np.ndarray,
                        dropout_rng: np.random.Generator | None = None,
                        probs_sink: list | None = None) -> tuple[Tensor, np.ndarray]:
    """Teacher forcing on shuffled sequences.

    input_ids [B, T] raster-order tokens; cond_tokens [B] embedding rows for
    the condition slot (class token, or null for CFG dropout); perms [B, T]
    1-indexed orders. Tokens and positions are shuffled together, the inputs
    right-shifted behind the condition, and every shuffled slot is predicted.
    probs_sink goes to pass1_hidden, then pass2_logits: content layers' probs first.
    Returns (logits [B, T, V], shuffled_targets [B, T]).
    """
    b, t = input_ids.shape
    for row in perms:
        if not is_permutation(row, t):
            raise ValueError("perm is not a bijection over 1..%d" % t)
    shuffled = np.take_along_axis(input_ids, perms - 1, axis=1)
    in_ids = np.concatenate([cond_tokens[:, None], shuffled[:, :-1]], axis=1)
    in_pos = np.concatenate([np.zeros((b, 1), dtype=perms.dtype), perms[:, :-1]], axis=1)
    h = pass1_hidden(params, in_ids, in_pos, causal_mask(t), probs_sink, dropout_rng)
    kv = project_kv(params, h, in_pos)
    logits = pass2_logits(params, kv, perms, causal_mask(t), probs_sink, dropout_rng)
    return logits, shuffled


# ---------------------------------------------------------------- inference route

def _rms_np(x: np.ndarray, gain: Parameter) -> np.ndarray:
    # the ops of x * (1 / sqrt(mean(x * x) + eps)) * gain, without mean's overhead
    s = np.add.reduce(x * x, axis=-1, keepdims=True)
    s /= x.shape[-1]
    s += nc.RMS_EPS
    np.sqrt(s, out=s)
    np.divide(1.0, s, out=s)
    out = x * s
    out *= gain.data
    return out


def _ffn_np(x: np.ndarray, layer: Pass1Layer | Pass2Layer) -> np.ndarray:
    h13 = rowwise_matmul(_rms_np(x, layer.ffn_norm), layer.w13.data)
    f = h13.shape[1] // 2
    gate = h13[:, :f]
    # silu(gate) * up = gate / (1 + exp(-gate)) * up, built in one buffer
    h = np.negative(gate)
    np.exp(h, out=h)
    h += 1.0
    np.divide(gate, h, out=h)
    h *= h13[:, f:]
    del gate, h13  # not held under the w2 product
    return rowwise_matmul(h, layer.w2.data)


def forward_pass1(params: ArpgParams, input_ids: np.ndarray, positions: np.ndarray,
                  cache, pattern: str = "causal") -> None:
    """Content pass over one token chunk, extending cache (a decoding.KvCache).

    Per-layer self-attention keys and the outgoing kv streams are appended,
    and the chunk attends to everything cached plus the intra-chunk pattern
    (causal, or bidirectional under block_causal). The first chunk a cache
    takes must be the condition at position 0. Every row attends over all
    `capacity` rows of the layer buffers with a boolean mask built once for
    the pass; masked keys weigh exactly +0 (see attention_rows).

    A cache holding S decode streams (see KvCache) is extended for all of
    them in this one pass: ids [m] feed every stream, ids [S, m] give each
    stream its own (the CFG condition rows); positions [m] are shared. Rows
    run position-major, [m * S, d], and attention folds the streams into the
    head axis, so every stream's bits equal those of a one-stream pass.
    """
    cfg = params.config
    ids = np.asarray(input_ids)
    pos = np.asarray(positions)
    m = pos.size
    streams = cache.streams
    if pos.ndim != 1 or m == 0 or ids.shape not in ((m,), (streams, m)):
        raise ValueError("ids must be [m] or [%d, m] for 1-d positions [m], got %r/%r"
                         % (streams, ids.shape, pos.shape))
    if ids.min() < 0 or ids.max() >= cfg.embed_rows:
        raise IndexError("token id outside embedding table [0, %d)" % cfg.embed_rows)
    past = cache.length
    if past == 0 and pos[0] != 0:
        raise ValueError("first fed token must be the condition at position 0")
    # rows run position-major: row i * S + s is position i of stream s
    cc, ss = params.rope.rows(np.repeat(pos, streams), params.dtype)
    if pattern == "causal":
        lens = past + np.arange(1, m + 1)
    elif pattern == "block_causal":
        lens = np.full(m, past + m)
    else:
        raise ValueError("unknown attention pattern %r" % pattern)

    masked = np.arange(cache.capacity) >= lens[:, None, None]
    heads, hd = cfg.heads, cfg.head_dim
    rows, fold = m * streams, streams * heads
    x = params.token_embedding.data[np.repeat(ids, streams) if ids.ndim == 1
                                    else ids.T.reshape(-1)]
    for li, layer in enumerate(params.pass1):
        qkv = rowwise_matmul(_rms_np(x, layer.attn_norm), layer.wqkv.data)
        qkv = qkv.reshape(rows, 3 * heads, hd)
        qk = rotate_pairs(qkv[:, :2 * heads], cc, ss)
        cache.layer_append(li, qk[:, heads:].reshape(m, fold, hd),
                           qkv[:, 2 * heads:].reshape(m, fold, hd))
        del qkv  # the cache holds k and v now; free it before the scores
        k, v = cache.layer_rows(li)
        a = attention_rows(qk[:, :heads].reshape(m, fold, hd), k.transpose(1, 0, 2),
                           v.transpose(1, 0, 2), lens, masked)
        x += rowwise_matmul(a.reshape(rows, cfg.hidden), layer.wo.data)
        del qk, a  # free the attention block before the FFN's
        x += _ffn_np(x, layer)

    hn = _rms_np(x, params.kv_norm)
    for si, w in enumerate(params.kv_proj):
        kv = rowwise_matmul(hn, w.data).reshape(rows, 2 * heads, hd)
        cache.out_append(si, rotate_pairs(kv[:, :heads], cc, ss).reshape(m, fold, hd),
                         np.ascontiguousarray(kv[:, heads:]).reshape(m, fold, hd))


def forward_pass2(params: ArpgParams, target_positions: np.ndarray,
                  kv: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Decode logits [Q, V] at target positions against cached content kv.

    kv holds (k, v) rows [L, H, hd] per stream (one stream when shared).
    Queries never see each other; each attends to every cached row. Computed
    per query row, so any chunking of the query set yields bit-identical
    logits.
    """
    cfg = params.config
    tgt = np.asarray(target_positions)
    if tgt.ndim != 1 or tgt.size == 0:
        raise ValueError("target positions must be non-empty 1-d")
    if (tgt < 1).any():
        raise ValueError("target positions start at 1 (0 is the condition)")
    if not kv or kv[0][0].shape[0] == 0:
        raise ValueError("kv must hold at least one cached token")
    q_len = tgt.size
    length = kv[0][0].shape[0]
    cc, ss = params.rope.rows(tgt, params.dtype)
    lens = np.full(q_len, length)

    o = params.token_embedding.data[[cfg.mask_token]]
    for li, layer in enumerate(params.pass2):
        on = _rms_np(o, layer.q_norm)
        q = rowwise_matmul(on, layer.wq.data)
        if li == 0:  # every query enters as the same [MASK] row: project it once
            q = np.repeat(q, q_len, axis=0)
        q = rotate_pairs(q.reshape(q_len, cfg.heads, -1), cc, ss)
        del on, o  # not held under the scores
        k, v = kv[0] if cfg.shared_kv else kv[li]
        a = attention_rows(q, k.transpose(1, 0, 2), v.transpose(1, 0, 2), lens)
        o = rowwise_matmul(a.reshape(q_len, cfg.hidden), layer.wo.data)
        del a
        o += q.reshape(q_len, cfg.hidden)  # IEEE addition commutes: q + wo(a) bit for bit
        del q  # not held under the FFN
        o += _ffn_np(o, layer)
    return rowwise_matmul(_rms_np(o, params.final_norm), params.head.data)
