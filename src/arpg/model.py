"""Two-pass decoder: a causal content stack producing shared key/values from
known tokens, and a query stack decoding arbitrary target positions from a
single learned [MASK] embedding rotated to each target position.

Two forward routes exist on purpose. The batched tape route (forward_train)
runs BLAS matmuls and feeds the optimizer. The single-sample inference route
(forward_pass1 / forward_pass2) computes every matmul row by row and attention
per query, so its bits are invariant to how tokens are chunked into calls;
the decoding engine's cache-equality guarantees rest on that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .attention import (AttentionMask, MultiHeadParams, RopeTable, apply_rope,
                        attention, attention_rows, causal_mask, prefix_lengths,
                        rotate_pairs)
from .numcore import Parameter, Tensor, rowwise_matmul


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
        if self.hidden % self.heads != 0:
            raise ValueError("hidden %d not divisible by heads %d" % (self.hidden, self.heads))
        if self.pass1_layers < 0 or self.pass2_layers < 1:
            raise ValueError("need pass1_layers >= 0 and pass2_layers >= 1")
        if self.vocab_size < 2 or self.num_classes < 1 or self.seq_len < 1:
            raise ValueError("vocab_size >= 2, num_classes >= 1, seq_len >= 1 required")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads

    @property
    def ffn_hidden(self) -> int:
        return int(round(8.0 * self.hidden / 3.0 / 8.0)) * 8

    # embedding-row layout: [image tokens | class tokens | null class | mask]
    def class_token(self, class_id: int) -> int:
        if not 0 <= class_id < self.num_classes:
            raise ValueError("class id %d outside [0, %d)" % (class_id, self.num_classes))
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


def param_count(config: ModelConfig, shared_kv: bool | None = None) -> int:
    """Exact trainable-scalar count for a config (closed form, no allocation)."""
    shared = config.shared_kv if shared_kv is None else shared_kv
    d, f = config.hidden, config.ffn_hidden
    emb = config.embed_rows * d
    p1 = config.pass1_layers * (4 * d * d + 3 * d * f + 2 * d)
    kv = d + (2 * d * d if shared else 2 * d * d * config.pass2_layers)
    p2 = config.pass2_layers * (2 * d * d + 3 * d * f + 2 * d)
    head = d + d * config.vocab_size
    return emb + p1 + kv + p2 + head


# ---------------------------------------------------------------- parameters

@dataclass
class Pass1Layer:
    attn: MultiHeadParams
    attn_norm: Parameter
    ffn_norm: Parameter
    w1: Parameter
    w2: Parameter
    w3: Parameter


@dataclass
class Pass2Layer:
    q_norm: Parameter
    wq: Parameter
    wo: Parameter
    ffn_norm: Parameter
    w1: Parameter
    w2: Parameter
    w3: Parameter
    wk: Parameter | None = None  # only without the shared projection
    wv: Parameter | None = None


@dataclass
class ActivationBlock:
    """Optional capture of one forward's final-layer attention probabilities."""

    pass1_probs: np.ndarray | None = None  # final content layer [B, H, S, S]
    pass2_probs: np.ndarray | None = None  # final query layer [B, H, Q, S]


def _trunc_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    x = rng.standard_normal(shape)
    bad = np.abs(x) > 2.0
    while bad.any():
        x[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(x) > 2.0
    return x * std


class ArpgParams:
    """All weights of the two-pass decoder, named uniquely for checkpointing."""

    def __init__(self, config: ModelConfig, dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype)
        self.token_embedding: Parameter | None = None
        self.pass1: list[Pass1Layer] = []
        self.kv_norm: Parameter | None = None
        self.kv_proj: Parameter | None = None
        self.pass2: list[Pass2Layer] = []
        self.final_norm: Parameter | None = None
        self.head: Parameter | None = None
        self._rope: RopeTable | None = None
        self._pack: dict | None = None

    @classmethod
    def init(cls, config: ModelConfig, rng: np.random.Generator,
             dtype=np.float32, init_std: float = 0.02) -> "ArpgParams":
        self = cls(config, dtype)
        d, f, h = config.hidden, config.ffn_hidden, config.heads

        def mat(name, rows, cols):
            return Parameter(name, _trunc_normal(rng, (rows, cols), init_std).astype(dtype))

        def gain(name):
            return Parameter(name, np.ones(d, dtype=dtype))

        self.token_embedding = Parameter(
            "embed.tokens", _trunc_normal(rng, (config.embed_rows, d), init_std).astype(dtype))
        for i in range(config.pass1_layers):
            p = "pass1.layer%d." % i
            self.pass1.append(Pass1Layer(
                attn=MultiHeadParams(mat(p + "wq", d, d), mat(p + "wk", d, d),
                                     mat(p + "wv", d, d), mat(p + "wo", d, d), h),
                attn_norm=gain(p + "attn_norm"), ffn_norm=gain(p + "ffn_norm"),
                w1=mat(p + "w1", d, f), w2=mat(p + "w2", f, d), w3=mat(p + "w3", d, f)))
        self.kv_norm = gain("kv.norm")
        if config.shared_kv:
            self.kv_proj = mat("kv.proj", d, 2 * d)
        for i in range(config.pass2_layers):
            p = "pass2.layer%d." % i
            layer = Pass2Layer(
                q_norm=gain(p + "q_norm"), wq=mat(p + "wq", d, d), wo=mat(p + "wo", d, d),
                ffn_norm=gain(p + "ffn_norm"),
                w1=mat(p + "w1", d, f), w2=mat(p + "w2", f, d), w3=mat(p + "w3", d, f))
            if not config.shared_kv:
                layer.wk = mat(p + "wk", d, d)
                layer.wv = mat(p + "wv", d, d)
            self.pass2.append(layer)
        self.final_norm = gain("final.norm")
        self.head = mat("head.proj", d, config.vocab_size)
        return self

    def parameters(self) -> list[Parameter]:
        out = [self.token_embedding]
        for l in self.pass1:
            out += [l.attn.wq, l.attn.wk, l.attn.wv, l.attn.wo,
                    l.attn_norm, l.ffn_norm, l.w1, l.w2, l.w3]
        out.append(self.kv_norm)
        if self.kv_proj is not None:
            out.append(self.kv_proj)
        for l in self.pass2:
            out += [l.q_norm, l.wq, l.wo, l.ffn_norm, l.w1, l.w2, l.w3]
            if l.wk is not None:
                out += [l.wk, l.wv]
        out += [self.final_norm, self.head]
        return out

    def astype(self, dtype) -> "ArpgParams":
        """Deep copy with every weight cast (used to run oracles in float64)."""
        rebuilt = ArpgParams.init(self.config, np.random.default_rng(0), dtype)
        src = {p.name: p for p in self.parameters()}
        for p in rebuilt.parameters():
            p.data = src[p.name].data.astype(dtype)
            p.grad = np.zeros_like(p.data)
        rebuilt.dtype = np.dtype(dtype)
        return rebuilt

    def rope_table(self, min_positions: int | None = None) -> RopeTable:
        """Rotary table covering at least [0, min_positions); grown by recompute."""
        need = min_positions if min_positions is not None else self.config.seq_len + 1
        if self._rope is None or self._rope.max_positions < need:
            self._rope = RopeTable.build(max(need, self.config.seq_len + 1),
                                         self.config.head_dim, self.config.rope_base)
        return self._rope

    def inference_pack(self) -> dict:
        """Fused per-layer weights for the per-row decode route, built lazily.

        Concatenating wq|wk|wv and w1|w3 column-wise halves the gemv count
        per decoded row; each output column is still its own dot product, so
        row independence is untouched. The optimizer drops the pack after
        every update; call drop_pack() yourself after hand-editing weights.
        """
        if self._pack is None:
            p1 = [(np.concatenate([l.attn.wq.data, l.attn.wk.data,
                                   l.attn.wv.data], axis=1),
                   np.concatenate([l.w1.data, l.w3.data], axis=1))
                  for l in self.pass1]
            p2 = [np.concatenate([l.w1.data, l.w3.data], axis=1)
                  for l in self.pass2]
            self._pack = {"p1": p1, "p2": p2}
        return self._pack

    def drop_pack(self) -> None:
        self._pack = None


# ---------------------------------------------------------------- batched (tape) route

def _split_heads(t: Tensor, heads: int) -> Tensor:
    b, s, d = t.shape
    return nc.reshape(t, (b, s, heads, d // heads))


def _join_heads(t: Tensor) -> Tensor:
    # [B, H, S, hd] -> [B, S, d]
    b, h, s, hd = t.shape
    return nc.reshape(nc.transpose(t, 1, 2), (b, s, h * hd))


def _ffn(x: Tensor, norm: Parameter, w1: Parameter, w2: Parameter, w3: Parameter) -> Tensor:
    # one gemm against w1|w3, as inference_pack fuses them for decoding
    xn = nc.rms_norm(x, norm)
    h1, h3 = nc.split(nc.matmul(xn, nc.concat([w1, w3])), [w1.shape[1], w3.shape[1]])
    return nc.matmul(nc.mul(nc.silu(h1), h3), w2)


def _maybe_drop(t: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    if rng is None or rate <= 0.0:
        return t
    keep = (rng.random(t.shape) >= rate).astype(t.dtype) / (1.0 - rate)
    return nc.mul(t, keep)


def pass1_hidden(params: ArpgParams, input_ids: np.ndarray, positions: np.ndarray,
                 mask: AttentionMask, capture: ActivationBlock | None = None,
                 dropout_rng: np.random.Generator | None = None) -> Tensor:
    """Content stack over [B, S] tokens at [B, S] rotary positions."""
    table = params.rope_table(int(positions.max()) + 1)
    heads = params.config.heads
    rate = params.config.dropout
    x = nc.embedding(params.token_embedding, input_ids)
    for li, layer in enumerate(params.pass1):
        sink: list | None = [] if (capture is not None and li == len(params.pass1) - 1) else None
        xn = nc.rms_norm(x, layer.attn_norm)
        wqkv = nc.concat([layer.attn.wq, layer.attn.wk, layer.attn.wv])
        q, k, v = nc.split(nc.matmul(xn, wqkv), [layer.attn.wq.shape[1]] * 3)
        q = apply_rope(_split_heads(q, heads), positions, table)
        k = apply_rope(_split_heads(k, heads), positions, table)
        v = _split_heads(v, heads)
        a = attention(nc.transpose(q, 1, 2), nc.transpose(k, 1, 2),
                      nc.transpose(v, 1, 2), mask, probs_sink=sink)
        x = nc.add(x, _maybe_drop(nc.matmul(_join_heads(a), layer.attn.wo), rate, dropout_rng))
        x = nc.add(x, _maybe_drop(_ffn(x, layer.ffn_norm, layer.w1, layer.w2, layer.w3),
                                  rate, dropout_rng))
        if sink is not None:
            capture.pass1_probs = sink[0]
    return x


def project_kv(params: ArpgParams, h: Tensor,
               positions: np.ndarray) -> list[tuple[Tensor, Tensor]]:
    """Normalized content states -> per-stream (k, v), k rotated at its position.

    One stream with the shared projection; one per query layer without it.
    k, v come back as [B, S, H, head_dim].
    """
    cfg = params.config
    table = params.rope_table(int(positions.max()) + 1)
    hn = nc.rms_norm(h, params.kv_norm)
    pairs = []
    if cfg.shared_kv:
        kv = nc.matmul(hn, params.kv_proj)
        k, v = nc.split(kv, [cfg.hidden, cfg.hidden], axis=-1)
        k = apply_rope(_split_heads(k, cfg.heads), positions, table)
        pairs.append((k, _split_heads(v, cfg.heads)))
    else:
        for layer in params.pass2:
            k = apply_rope(_split_heads(nc.matmul(hn, layer.wk), cfg.heads), positions, table)
            pairs.append((k, _split_heads(nc.matmul(hn, layer.wv), cfg.heads)))
    return pairs


def pass2_logits(params: ArpgParams, kv: list[tuple[Tensor, Tensor]],
                 target_positions: np.ndarray, mask: AttentionMask,
                 capture: ActivationBlock | None = None,
                 dropout_rng: np.random.Generator | None = None) -> Tensor:
    """Query stack: [MASK] embedding rotated to each target, cross-attending kv."""
    cfg = params.config
    table = params.rope_table(int(target_positions.max()) + 1)
    b, q_len = target_positions.shape
    rate = cfg.dropout
    o = nc.embedding(params.token_embedding,
                     np.full((b, q_len), cfg.mask_token, dtype=np.int64))
    for li, layer in enumerate(params.pass2):
        sink: list | None = [] if (capture is not None and li == len(params.pass2) - 1) else None
        on = nc.rms_norm(o, layer.q_norm)
        q = apply_rope(_split_heads(nc.matmul(on, layer.wq), cfg.heads),
                       target_positions, table)
        k, v = kv[0] if cfg.shared_kv else kv[li]
        a = attention(nc.transpose(q, 1, 2), nc.transpose(k, 1, 2),
                      nc.transpose(v, 1, 2), mask, probs_sink=sink)
        # the rotated query itself is the residual carrier
        o = nc.add(nc.reshape(q, (b, q_len, cfg.hidden)),
                   _maybe_drop(nc.matmul(_join_heads(a), layer.wo), rate, dropout_rng))
        o = nc.add(o, _maybe_drop(_ffn(o, layer.ffn_norm, layer.w1, layer.w2, layer.w3),
                                  rate, dropout_rng))
        if sink is not None:
            capture.pass2_probs = sink[0]
    return nc.matmul(nc.rms_norm(o, params.final_norm), params.head)


def forward_train_batch(params: ArpgParams, input_ids: np.ndarray,
                        cond_tokens: np.ndarray, perms: np.ndarray,
                        dropout_rng: np.random.Generator | None = None
                        ) -> tuple[Tensor, np.ndarray]:
    """Teacher forcing on shuffled sequences.

    input_ids [B, T] raster-order tokens; cond_tokens [B] embedding rows for
    the condition slot (class token, or null for CFG dropout); perms [B, T]
    1-indexed orders. Tokens and positions are shuffled together, the inputs
    right-shifted behind the condition, and every shuffled slot is predicted.
    Returns (logits [B, T, V], shuffled_targets [B, T]).
    """
    b, t = input_ids.shape
    for row in perms:
        if not np.array_equal(np.sort(row), np.arange(1, t + 1)):
            raise ValueError("perm is not a bijection over 1..%d" % t)
    shuffled = np.take_along_axis(input_ids, perms - 1, axis=1)
    in_ids = np.concatenate([cond_tokens[:, None], shuffled[:, :-1]], axis=1)
    in_pos = np.concatenate([np.zeros((b, 1), dtype=perms.dtype), perms[:, :-1]], axis=1)
    h = pass1_hidden(params, in_ids, in_pos, causal_mask(t), dropout_rng=dropout_rng)
    kv = project_kv(params, h, in_pos)
    logits = pass2_logits(params, kv, perms, causal_mask(t), dropout_rng=dropout_rng)
    return logits, shuffled


def forward_train(params: ArpgParams, input_ids: np.ndarray, class_id: int,
                  permutation: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """Single-sample wrapper around forward_train_batch; logits [T, V]."""
    cond = np.array([params.config.class_token(class_id)])
    logits, shuffled = forward_train_batch(
        params, np.asarray(input_ids)[None, :], cond, np.asarray(permutation)[None, :])
    return nc.reshape(logits, logits.shape[1:]), shuffled[0]


# ---------------------------------------------------------------- inference route

def _rms_np(x: np.ndarray, gain: Parameter, eps: float = 1e-6) -> np.ndarray:
    s = 1.0 / np.sqrt((x * x).mean(axis=-1, keepdims=True) + eps)
    return x * s * gain.data


def _silu_np(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-x))


def _ffn_np(x, norm, w2, w13):
    xn = _rms_np(x, norm)
    h13 = rowwise_matmul(xn, w13)
    f = w13.shape[1] // 2
    return rowwise_matmul(_silu_np(h13[:, :f]) * h13[:, f:], w2.data)


def forward_pass1(params: ArpgParams, input_ids: np.ndarray, positions: np.ndarray,
                  cache=None, pattern: str = "causal") -> list[tuple[np.ndarray, np.ndarray]]:
    """Content pass over one token chunk; returns per-stream (k, v) [m, H, hd].

    Without a cache this is a from-scratch forward over the whole chunk (the
    condition token must sit first at position 0). With a cache, the chunk
    extends it: per-layer self-attention keys and the outgoing kv stream are
    appended, and the chunk attends to everything cached plus the intra-chunk
    pattern (causal, or bidirectional under block_causal).
    """
    cfg = params.config
    ids = np.asarray(input_ids)
    pos = np.asarray(positions)
    if ids.ndim != 1 or ids.shape != pos.shape or ids.size == 0:
        raise ValueError("ids/positions must be equal-length 1-d, got %r/%r"
                         % (ids.shape, pos.shape))
    if ids.min() < 0 or ids.max() >= cfg.embed_rows:
        raise IndexError("token id outside embedding table [0, %d)" % cfg.embed_rows)
    m = ids.size
    past = 0 if cache is None else cache.length
    if past == 0 and pos[0] != 0:
        raise ValueError("first fed token must be the condition at position 0")
    table = params.rope_table(int(pos.max()) + 1)
    cos, sin = table.gather(pos, dtype=params.dtype)
    if pattern == "causal":
        lens = past + np.arange(1, m + 1)
    elif pattern == "block_causal":
        lens = np.full(m, past + m)
    else:
        raise ValueError("unknown attention pattern %r" % pattern)

    pack = params.inference_pack()
    d = cfg.hidden
    x = params.token_embedding.data[ids]
    for li, layer in enumerate(params.pass1):
        wqkv, w13 = pack["p1"][li]
        xn = _rms_np(x, layer.attn_norm)
        qkv = rowwise_matmul(xn, wqkv)
        q = rotate_pairs(qkv[:, :d].reshape(m, cfg.heads, -1), cos, sin)
        k = rotate_pairs(qkv[:, d:2 * d].reshape(m, cfg.heads, -1), cos, sin)
        v = qkv[:, 2 * d:].reshape(m, cfg.heads, -1)
        if cache is None:
            k_all, v_all = k, v
        else:
            cache.layer_append(li, k, v)
            k_all, v_all = cache.layer_view(li)
        a = attention_rows(q, k_all.transpose(1, 0, 2), v_all.transpose(1, 0, 2), lens)
        x = x + rowwise_matmul(a.reshape(m, cfg.hidden), layer.attn.wo.data)
        x = x + _ffn_np(x, layer.ffn_norm, layer.w2, w13)

    hn = _rms_np(x, params.kv_norm)
    pairs = []
    if cfg.shared_kv:
        kv = rowwise_matmul(hn, params.kv_proj.data)
        k, v = kv[:, :cfg.hidden], kv[:, cfg.hidden:]
        pairs.append((rotate_pairs(k.reshape(m, cfg.heads, -1), cos, sin),
                      np.ascontiguousarray(v.reshape(m, cfg.heads, -1))))
    else:
        for layer in params.pass2:
            k = rotate_pairs(rowwise_matmul(hn, layer.wk.data).reshape(m, cfg.heads, -1),
                             cos, sin)
            pairs.append((k, rowwise_matmul(hn, layer.wv.data).reshape(m, cfg.heads, -1)))
    if cache is not None:
        for si, (k, v) in enumerate(pairs):
            cache.out_append(si, k, v)
    return pairs


def forward_pass2(params: ArpgParams, target_positions: np.ndarray,
                  kv: list[tuple[np.ndarray, np.ndarray]],
                  mask: AttentionMask | None = None) -> np.ndarray:
    """Decode logits [Q, V] at target positions against cached content kv.

    kv holds (k, v) rows [L, H, hd] per stream (one stream when shared).
    Queries never see each other; each attends to the key prefix its mask row
    allows (whole cache by default). Computed per query row, so any chunking
    of the query set yields bit-identical logits.
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
    table = params.rope_table(int(tgt.max()) + 1)
    cos, sin = table.gather(tgt, dtype=params.dtype)
    lens = np.full(q_len, length) if mask is None else prefix_lengths(mask)

    pack = params.inference_pack()
    o = params.token_embedding.data[np.full(q_len, cfg.mask_token)]
    for li, layer in enumerate(params.pass2):
        on = _rms_np(o, layer.q_norm)
        q = rotate_pairs(rowwise_matmul(on, layer.wq.data).reshape(q_len, cfg.heads, -1),
                         cos, sin)
        k, v = kv[0] if cfg.shared_kv else kv[li]
        a = attention_rows(q, k.transpose(1, 0, 2), v.transpose(1, 0, 2), lens)
        o = q.reshape(q_len, cfg.hidden) + rowwise_matmul(a.reshape(q_len, cfg.hidden),
                                                          layer.wo.data)
        o = o + _ffn_np(o, layer.ffn_norm, layer.w2, pack["p2"][li])
    return rowwise_matmul(_rms_np(o, params.final_norm), params.head.data)
