"""Parallel decoding: KV cache, schedule-driven step loop, CFG, sampling, editing.

The engine decodes a permutation of the grid in S chunks. Each chunk's logits
are read by [MASK] queries against the cache built so far, tokens are sampled,
and the sampled chunk is fed through the content pass to extend the cache.
Everything runs on the row-stable inference kernels, so a chunked run and the
from-scratch sequential rebuild agree bit for bit at S = T, and query chunking
never changes logits. One core, _decode_region, runs every decode: generate
is its empty-prefix case, while inpaint and expand prefill the known tokens
into the cache first and decode only the positions left.
"""

from dataclasses import dataclass
from math import isqrt

import numpy as np

from . import model as md
from .ordering import (CfgSchedule, DecodeSchedule, cfg_scale_at, fixed_order,
                       sample_permutation, schedule_counts)

# Largest position count the rotary table will be rebuilt for during expansion.
EXPAND_POSITION_LIMIT = 4096

ATTENTION_PATTERNS = ("causal", "block_causal")


# ---------------------------------------------------------------- token grids

@dataclass
class TokenGrid:
    """H x W grid of token ids with its conditioning class."""

    tokens: np.ndarray
    class_id: int

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens)
        if self.tokens.ndim != 2 or self.tokens.size == 0:
            raise ValueError("tokens must be a non-empty 2-d grid, got shape %r"
                             % (self.tokens.shape,))
        if int(self.class_id) < 0:
            raise ValueError("class_id must be nonnegative")

    @property
    def flat(self) -> np.ndarray:
        return self.tokens.reshape(-1)

    def validate(self, vocab_size: int, seq_len: int | None = None) -> "TokenGrid":
        if self.tokens.min() < 0 or self.tokens.max() >= vocab_size:
            raise ValueError("grid ids must lie in [0, %d)" % vocab_size)
        if seq_len is not None and self.tokens.size != seq_len:
            raise ValueError("grid holds %d tokens, model expects %d"
                             % (self.tokens.size, seq_len))
        return self


# ---------------------------------------------------------------- kv cache

class KvCache:
    """Append-only (k, v) row storage for one generation.

    Two stream groups: per-layer self-attention rows for the content pass, and
    the outgoing content kv that [MASK] queries read (one stream when shared,
    else one per query layer). Rows are written once and never moved, so views
    handed out earlier stay valid; `length` counts condition plus decoded
    tokens and is advanced by the content pass appending a chunk.
    """

    def __init__(self, config: md.ModelConfig, capacity: int, dtype=np.float32):
        if capacity < 1:
            raise ValueError("capacity must be at least 1 (the condition row)")
        self.config = config
        self.capacity = capacity
        head_dim = config.hidden // config.heads
        shape = (capacity, config.heads, head_dim)
        self._layer_k = [np.empty(shape, dtype) for _ in range(config.pass1_layers)]
        self._layer_v = [np.empty(shape, dtype) for _ in range(config.pass1_layers)]
        self._layer_fill = [0] * config.pass1_layers
        n_out = 1 if config.shared_kv else config.pass2_layers
        self._out_k = [np.empty(shape, dtype) for _ in range(n_out)]
        self._out_v = [np.empty(shape, dtype) for _ in range(n_out)]
        self._out_fill = [0] * n_out

    @property
    def length(self) -> int:
        return self._out_fill[0]

    @property
    def out_streams(self) -> int:
        return len(self._out_k)

    def scalar_count(self) -> int:
        buffers = self._layer_k + self._layer_v + self._out_k + self._out_v
        return sum(b.size for b in buffers)

    def _append(self, buf_k, buf_v, fills, idx, k, v):
        n = k.shape[0]
        fill = fills[idx]
        if fill + n > self.capacity:
            raise RuntimeError("kv cache overflow: %d + %d rows exceed capacity %d "
                               "(schedule and capacity disagree)"
                               % (fill, n, self.capacity))
        buf_k[idx][fill:fill + n] = k
        buf_v[idx][fill:fill + n] = v
        fills[idx] = fill + n

    def layer_append(self, layer: int, k: np.ndarray, v: np.ndarray) -> None:
        self._append(self._layer_k, self._layer_v, self._layer_fill, layer, k, v)

    def layer_view(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        fill = self._layer_fill[layer]
        return self._layer_k[layer][:fill], self._layer_v[layer][:fill]

    def out_append(self, stream: int, k: np.ndarray, v: np.ndarray) -> None:
        self._append(self._out_k, self._out_v, self._out_fill, stream, k, v)

    def out_view(self, stream: int) -> tuple[np.ndarray, np.ndarray]:
        fill = self._out_fill[stream]
        return self._out_k[stream][:fill], self._out_v[stream][:fill]

    def out_kv(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return [self.out_view(s) for s in range(self.out_streams)]


def cache_scalar_count(config: md.ModelConfig, seq_len: int) -> int:
    """Closed-form peak cache size in scalars: streams * 2 * hidden * (1 + T)."""
    streams = config.pass1_layers + (1 if config.shared_kv else config.pass2_layers)
    return streams * 2 * config.hidden * (1 + seq_len)


# ---------------------------------------------------------------- config

@dataclass
class DecodeConfig:
    """Knobs for one generation: schedule, guidance, sampling, pattern, seed."""

    steps: int = 8
    schedule: str = "arccos"
    cfg_scale: float = 1.0
    cfg_schedule: str = "linear"
    temperature: float = 1.0
    top_k: int | None = None
    top_p: float = 1.0
    attention_pattern: str = "causal"
    order: str = "random"
    seed: int = 0
    grid_h: int | None = None
    grid_w: int | None = None

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0 (0 means argmax)")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must lie in (0, 1]")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError("top_k must be >= 1 when set")
        if self.attention_pattern not in ATTENTION_PATTERNS:
            raise ValueError("attention_pattern must be one of %s"
                             % "|".join(ATTENTION_PATTERNS))
        if self.cfg_scale < 0:
            raise ValueError("cfg_scale must be >= 0")


@dataclass
class GenerationState:
    """One in-flight generation: order, tokens in decode order, caches."""

    permutation: np.ndarray
    tokens: np.ndarray
    caches: tuple


def _grid_shape(config: md.ModelConfig, dc: DecodeConfig) -> tuple[int, int]:
    if dc.grid_h is not None or dc.grid_w is not None:
        if dc.grid_h is None or dc.grid_w is None:
            raise ValueError("grid_h and grid_w must be set together")
        if dc.grid_h * dc.grid_w != config.seq_len:
            raise ValueError("grid %dx%d holds %d tokens, model expects %d"
                             % (dc.grid_h, dc.grid_w, dc.grid_h * dc.grid_w,
                                config.seq_len))
        return dc.grid_h, dc.grid_w
    side = isqrt(config.seq_len)
    if side * side != config.seq_len:
        raise ValueError("seq_len %d is not square; set grid_h/grid_w"
                         % config.seq_len)
    return side, side


# ---------------------------------------------------------------- sampling

def cfg_combine(cond_logits: np.ndarray, uncond_logits: np.ndarray,
                scale: float) -> np.ndarray:
    """Guided logits: uncond + scale * (cond - uncond); scale 1 is a no-op."""
    if cond_logits.shape != uncond_logits.shape:
        raise ValueError("logit shapes differ: %r vs %r"
                         % (cond_logits.shape, uncond_logits.shape))
    if scale == 1.0:
        return cond_logits
    if scale == 0.0:
        return uncond_logits
    return uncond_logits + scale * (cond_logits - uncond_logits)


def sample_tokens(logits: np.ndarray, temperature: float = 1.0,
                  top_k: int | None = None, top_p: float = 1.0,
                  rng: np.random.Generator | None = None) -> np.ndarray:
    """Draw one id per logit row; temperature 0 short-circuits to argmax.

    Filters apply in order: temperature scaling, top-k truncation, nucleus
    truncation keeping the smallest prefix of descending probabilities whose
    mass reaches top_p, renormalize, then one inverse-cdf draw per row.
    A row holding a NaN or infinite logit raises RuntimeError.
    """
    lg = np.asarray(logits, dtype=np.float64)
    if lg.ndim != 2:
        raise ValueError("logits must be [rows, vocab], got shape %r" % (lg.shape,))
    finite = np.isfinite(lg).all(axis=-1)
    if not finite.all():
        raise RuntimeError("non-finite logits in row %d" % int(np.argmin(finite)))
    if temperature == 0.0:
        return np.argmax(lg, axis=-1)
    z = lg / temperature
    z = z - z.max(axis=-1, keepdims=True)
    probs = np.exp(z)
    probs /= probs.sum(axis=-1, keepdims=True)
    if top_k is None and top_p >= 1.0:
        # No filtering: invert each row cdf over raw id order. cumsum along
        # the last axis scans rows independently and rng.random(m) consumes
        # the stream exactly like m scalar draws, so this matches the
        # filtered branch's per-row arithmetic draw for draw.
        cum = np.cumsum(probs, axis=-1)
        u = rng.random(lg.shape[0]) * cum[:, -1]
        j = (cum <= u[:, None]).sum(axis=-1)
        return np.minimum(j, lg.shape[1] - 1)
    out = np.empty(lg.shape[0], dtype=np.int64)
    for i in range(lg.shape[0]):
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


# ---------------------------------------------------------------- step loop

def _step_scales(dc: DecodeConfig, counts: list[int], total: int) -> list[float]:
    sched = CfgSchedule(dc.cfg_schedule, dc.cfg_scale)
    done = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return [cfg_scale_at(sched, d / total) for d in done]


def _open_caches(params: md.ArpgParams, class_id: int, capacity: int,
                 use_cfg: bool, pattern: str) -> tuple[KvCache, KvCache | None]:
    cfg = params.config
    cond = KvCache(cfg, capacity, params.dtype)
    md.forward_pass1(params, [cfg.class_token(class_id)], [0],
                     cache=cond, pattern=pattern)
    if not use_cfg:
        return cond, None
    uncond = KvCache(cfg, capacity, params.dtype)
    md.forward_pass1(params, [cfg.null_class_token], [0],
                     cache=uncond, pattern=pattern)
    return cond, uncond


def _prefill(params, caches, ids, positions):
    cond, uncond = caches
    md.forward_pass1(params, ids, positions, cache=cond, pattern="causal")
    if uncond is not None:
        md.forward_pass1(params, ids, positions, cache=uncond, pattern="causal")


def _decode_positions(params, caches, order_pos, counts, scales, dc, rng):
    """Run the chunked step loop over order_pos; returns ids in decode order."""
    cond, uncond = caches
    sampled = np.empty(order_pos.size, dtype=np.int64)
    cursor = 0
    for n, scale in zip(counts, scales):
        chunk = order_pos[cursor:cursor + n]
        logits = md.forward_pass2(params, chunk, cond.out_kv())
        if uncond is not None:
            logits = cfg_combine(logits,
                                 md.forward_pass2(params, chunk, uncond.out_kv()),
                                 scale)
        ids = sample_tokens(logits, dc.temperature, dc.top_k, dc.top_p, rng)
        sampled[cursor:cursor + n] = ids
        md.forward_pass1(params, ids, chunk, cache=cond,
                         pattern=dc.attention_pattern)
        if uncond is not None:
            md.forward_pass1(params, ids, chunk, cache=uncond,
                             pattern=dc.attention_pattern)
        cursor += n
    return sampled


def _decode_order(dc: DecodeConfig, grid_h: int, grid_w: int,
                  rng: np.random.Generator) -> np.ndarray:
    if dc.order == "random":
        return sample_permutation(grid_h * grid_w, rng)
    return fixed_order(dc.order, grid_h, grid_w)


def _rank_of_positions(dc: DecodeConfig, grid_h: int, grid_w: int,
                       flat_idx: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Decode order restricted to a subset of raster indices, as positions."""
    if dc.order == "random":
        return flat_idx[rng.permutation(flat_idx.size)] + 1
    order = fixed_order(dc.order, grid_h, grid_w)
    rank = np.empty(grid_h * grid_w, dtype=np.int64)
    rank[order - 1] = np.arange(order.size)
    return flat_idx[np.argsort(rank[flat_idx], kind="stable")] + 1


def _decode_region(params, class_id, prefix_ids, prefix_pos, todo_idx,
                   grid_h, grid_w, steps, dc, state_sink):
    """Decode raster indices todo_idx of a grid_h x grid_w grid in steps chunks.

    The known prefix_ids are fed into the cache behind the condition at
    rotary positions prefix_pos (raster index + 1) before decoding starts;
    together with todo_idx they cover the grid. state_sink, when given,
    receives the GenerationState (decode order as positions, tokens in decode
    order, caches).
    """
    out = np.empty(grid_h * grid_w, dtype=np.int64)
    out[prefix_pos - 1] = prefix_ids
    if todo_idx.size:
        rng = np.random.default_rng(dc.seed)
        order_pos = _rank_of_positions(dc, grid_h, grid_w, todo_idx, rng)
        counts = schedule_counts(DecodeSchedule(dc.schedule, steps, todo_idx.size))
        scales = _step_scales(dc, counts, todo_idx.size)
        use_cfg = any(s != 1.0 for s in scales)
        caches = _open_caches(params, class_id, 1 + out.size, use_cfg,
                              dc.attention_pattern)
        if prefix_ids.size:
            _prefill(params, caches, prefix_ids, prefix_pos)
        sampled = _decode_positions(params, caches, order_pos, counts, scales,
                                    dc, rng)
        if state_sink is not None:
            state_sink.append(GenerationState(order_pos, sampled, caches))
        out[order_pos - 1] = sampled
    return TokenGrid(out.reshape(grid_h, grid_w), class_id)


# ---------------------------------------------------------------- generate

def generate(params: md.ArpgParams, class_id: int, dc: DecodeConfig,
             state_sink: list | None = None) -> TokenGrid:
    """Decode a full grid conditioned on class_id in dc.steps chunks.

    state_sink, when given, receives the GenerationState (permutation, tokens
    in decode order, caches) for callers that log or inspect the run.
    """
    grid_h, grid_w = _grid_shape(params.config, dc)
    empty = np.empty(0, dtype=np.int64)
    return _decode_region(params, class_id, empty, empty,
                          np.arange(grid_h * grid_w), grid_h, grid_w,
                          dc.steps, dc, state_sink)


def sequential_reference_generate(params: md.ArpgParams, class_id: int,
                                  dc: DecodeConfig) -> TokenGrid:
    """Cacheless oracle: one token per step, content pass rebuilt from scratch.

    Consumes the rng exactly like generate at S = T, so with greedy sampling
    (and with stochastic sampling too) the outputs must match bit for bit.
    dc.steps is ignored; this always takes T steps.
    """
    cfg = params.config
    grid_h, grid_w = _grid_shape(cfg, dc)
    total = cfg.seq_len
    rng = np.random.default_rng(dc.seed)
    perm = _decode_order(dc, grid_h, grid_w, rng)
    sched = CfgSchedule(dc.cfg_schedule, dc.cfg_scale)
    scales = [cfg_scale_at(sched, i / total) for i in range(total)]
    use_cfg = any(s != 1.0 for s in scales)
    cond_ids = [cfg.class_token(class_id)]
    uncond_ids = [cfg.null_class_token]
    sampled: list[int] = []
    for i in range(total):
        ids = np.asarray(cond_ids + sampled)
        pos = np.concatenate([[0], perm[:i]])
        kv = md.forward_pass1(params, ids, pos, pattern="causal")
        logits = md.forward_pass2(params, perm[i:i + 1], kv)
        if use_cfg:
            kv_u = md.forward_pass1(params, np.asarray(uncond_ids + sampled),
                                    pos, pattern="causal")
            logits = cfg_combine(logits,
                                 md.forward_pass2(params, perm[i:i + 1], kv_u),
                                 scales[i])
        ids_out = sample_tokens(logits, dc.temperature, dc.top_k, dc.top_p, rng)
        sampled.append(int(ids_out[0]))
    out = np.empty(total, dtype=np.int64)
    out[perm - 1] = np.asarray(sampled)
    return TokenGrid(out.reshape(grid_h, grid_w), class_id)


# ---------------------------------------------------------------- editing

def _known_indices(known, grid_size: int) -> np.ndarray:
    arr = np.asarray(known)
    if arr.dtype == bool:
        idx = np.flatnonzero(arr.reshape(-1))
    else:
        idx = np.unique(arr.reshape(-1))
    if idx.size and (idx.min() < 0 or idx.max() >= grid_size):
        raise ValueError("known indices outside the grid")
    return idx


def inpaint(params: md.ArpgParams, partial: TokenGrid, known,
            class_id: int, dc: DecodeConfig,
            state_sink: list | None = None) -> TokenGrid:
    """Decode only the unknown positions; known tokens are kept bit-exact.

    known is a boolean grid or a set of flat raster indices. Known tokens are
    prefilled behind the condition in raster order; the remaining positions
    are decoded by the schedule over their own count.
    """
    cfg = params.config
    grid_h, grid_w = _grid_shape(cfg, dc)
    partial.validate(cfg.vocab_size, cfg.seq_len)
    idx = _known_indices(known, cfg.seq_len)
    if idx.size == 0:
        raise ValueError("known set is empty; use generate instead")
    todo = np.setdiff1d(np.arange(cfg.seq_len), idx)
    return _decode_region(params, class_id, partial.flat[idx], idx + 1, todo,
                          grid_h, grid_w, min(dc.steps, todo.size), dc,
                          state_sink)


def expand(params: md.ArpgParams, base: TokenGrid, new_h: int, new_w: int,
           mode: str, dc: DecodeConfig,
           state_sink: list | None = None) -> TokenGrid:
    """Grow a grid to new_h x new_w, decoding only the new positions.

    mode "outpaint" anchors the base at the top-left corner; "resolution"
    centers it. Positions are re-indexed on the target raster and the rotary
    table is rebuilt for the longer sequence, never extrapolated.
    """
    cfg = params.config
    old_h, old_w = base.tokens.shape
    base.validate(cfg.vocab_size)
    if new_h < old_h or new_w < old_w:
        raise ValueError("target %dx%d smaller than base %dx%d"
                         % (new_h, new_w, old_h, old_w))
    total = new_h * new_w
    if total > EXPAND_POSITION_LIMIT:
        raise ValueError("target holds %d positions, above the %d rotary "
                         "rebuild limit" % (total, EXPAND_POSITION_LIMIT))
    if mode == "outpaint":
        off_r, off_c = 0, 0
    elif mode == "resolution":
        off_r, off_c = (new_h - old_h) // 2, (new_w - old_w) // 2
    else:
        raise ValueError("mode must be outpaint or resolution, got %r" % mode)
    rows = np.arange(old_h)[:, None] + off_r
    cols = np.arange(old_w)[None, :] + off_c
    base_idx = (rows * new_w + cols).reshape(-1)
    todo = np.setdiff1d(np.arange(total), base_idx)
    return _decode_region(params, base.class_id, base.flat, base_idx + 1, todo,
                          new_h, new_w, min(dc.steps, todo.size), dc,
                          state_sink)
