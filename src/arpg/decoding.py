"""Parallel decoding: KV cache, schedule-driven step loop, CFG, sampling, editing.

The engine decodes a permutation of the grid in S chunks. Each chunk's logits
are read by [MASK] queries against the cache built so far, tokens are sampled,
and the sampled chunk is fed through the content pass to extend the cache;
the last chunk is never fed, since no query reads its rows.
Everything runs on the row-stable inference kernels, so query chunking never
changes logits. One core, _decode_region, runs every decode from one request
shape: the known cells, as ids and raster indices, from which it works out
the cells left, the prefill's positions and each step's CFG scale. generate
is its no-known-cell case, while inpaint and expand prefill the known tokens
into the cache first, PREFILL_ROWS content rows per pass, and decode only
the cells left. Its sequential reference (sequential_reference_decode) takes
the same request and runs the same loop one token per step with the content
rebuilt from scratch at every step, and any decode at one step per cell left
equals it bit for bit. Under CFG the conditional and unconditional streams
share one cache and one content pass per step; only their [MASK] queries
run apart.
"""

from copy import copy
from dataclasses import dataclass
from math import isqrt

import numpy as np

from . import model as md
from .ordering import (CFG_KINDS, FIXED_ORDER_KINDS, SCHEDULE_KINDS, DecodeSchedule,
                       cfg_scale_at, check_int, check_seed, fixed_order, schedule_counts)

# Most positions an expand target may hold; the rotary table grows to cover them.
EXPAND_POSITION_LIMIT = 4096

# Most content rows (positions times CFG streams) one prefill pass feeds.
PREFILL_ROWS = 32

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

    Two buffer groups: per-layer self-attention rows for the content pass, and
    the outgoing content kv that [MASK] queries read (one kv stream when
    shared, else one per query layer). Rows are written once and never moved,
    so views handed out earlier stay valid; `length` counts condition plus
    fed tokens and is advanced by the content pass appending a chunk.
    Caches are opened here alone: the decode loop and its sequential
    reference size each to the rows a generation writes (the condition, the
    prefill and every chunk but the last, which is never fed), and
    model.forward_pass1 only extends the cache it is given, so a
    generation's cache ends full. The content pass attends over every row
    of the per-layer buffers, so `capacity` enters the bits of each content
    row, and those buffers start zero-filled.

    A cache may hold several decode streams (the conditional and the
    unconditional one of CFG) that feed the same ids at the same positions.
    Every buffer is then one array [capacity, streams * H, hd]: row r holds
    position r of each stream, stream-major along the folded head axis, so
    one content pass appends and attends for all streams at once. The decode
    loop appends to this joint cache and hands pass 2 `stream(s)`: a
    read-only one-stream cache whose buffers are views of stream s's slice
    [capacity, H, hd] and whose fill counts are shared, so it reads and
    measures exactly that stream.
    """

    def __init__(self, config: md.ModelConfig, capacity: int, dtype=np.float32,
                 streams: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be at least 1 (the condition row)")
        if streams < 1:
            raise ValueError("a cache holds at least 1 stream, got %d" % streams)
        self.config = config
        self.capacity = capacity
        self.streams = streams
        self.joint = None  # the multi-stream cache this one is a stream view of
        shape = (capacity, streams * config.heads, config.head_dim)
        # masked weights are +0, and +0 times np.empty garbage could be NaN
        self._layer_k = [np.zeros(shape, dtype) for _ in range(config.pass1_layers)]
        self._layer_v = [np.zeros(shape, dtype) for _ in range(config.pass1_layers)]
        self._layer_fill = [0] * config.pass1_layers
        n_out = 1 if config.shared_kv else config.pass2_layers
        self._out_k = [np.empty(shape, dtype) for _ in range(n_out)]
        self._out_v = [np.empty(shape, dtype) for _ in range(n_out)]
        self._out_fill = [0] * n_out

    def stream(self, s: int) -> "KvCache":
        """Read-only one-stream cache over stream s's slice of every buffer."""
        if not 0 <= s < self.streams:
            raise IndexError("stream %d outside [0, %d)" % (s, self.streams))
        view = copy(self)  # shares the fill lists, so its length follows appends
        view.streams, view.joint = 1, self
        heads = slice(s * self.config.heads, (s + 1) * self.config.heads)
        for name in ("_layer_k", "_layer_v", "_out_k", "_out_v"):
            setattr(view, name, [b[:, heads] for b in getattr(self, name)])
        return view

    @property
    def length(self) -> int:
        return self._out_fill[0]

    def scalar_count(self) -> int:
        buffers = self._layer_k + self._layer_v + self._out_k + self._out_v
        return sum(b.size for b in buffers)

    def _append(self, buf_k, buf_v, fills, idx, k, v):
        if self.joint is not None:
            raise RuntimeError("a stream view is read-only; append to its joint cache")
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

    def layer_rows(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """A layer's whole (k, v) buffers [capacity, ...]; rows past the fill are zero."""
        return self._layer_k[layer], self._layer_v[layer]

    def out_append(self, stream: int, k: np.ndarray, v: np.ndarray) -> None:
        self._append(self._out_k, self._out_v, self._out_fill, stream, k, v)

    def out_kv(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The filled (k, v) rows of each outgoing kv stream, as views."""
        return [(k[:n], v[:n]) for k, v, n in zip(self._out_k, self._out_v, self._out_fill)]


def cache_scalar_count(config: md.ModelConfig, rows: int) -> int:
    """Closed-form size in scalars of a one-stream cache of `rows` rows:
    kv streams * 2 * hidden * rows."""
    streams = config.pass1_layers + (1 if config.shared_kv else config.pass2_layers)
    return streams * 2 * config.hidden * rows


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
        check_seed("seed", self.seed)
        for name in ("steps", "top_k", "grid_h", "grid_w"):
            if name == "steps" or getattr(self, name) is not None:
                check_int(name, getattr(self, name))
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not 0 <= self.temperature < np.inf:
            raise ValueError("temperature must be finite and >= 0 (0 means argmax)")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must lie in (0, 1]")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError("top_k must be >= 1 when set")
        for name, kinds in (("attention_pattern", ATTENTION_PATTERNS),
                            ("order", ("random",) + FIXED_ORDER_KINDS),
                            ("schedule", SCHEDULE_KINDS),
                            ("cfg_schedule", CFG_KINDS)):
            if getattr(self, name) not in kinds:
                raise ValueError("%s must be one of %s, got %r"
                                 % (name, "|".join(kinds), getattr(self, name)))
        if not 0 <= self.cfg_scale < np.inf:
            raise ValueError("cfg_scale must be finite and >= 0")


@dataclass
class GenerationState:
    """One generation: order, tokens in decode order, caches.

    permutation holds the decoded cells' positions (raster index + 1) in
    decode order and tokens the ids sampled there. The caches hold the
    condition row, the prefill and every decoded chunk but the last, which
    no query reads and so is never fed; they are sized to exactly those
    rows, so each ends full. A request with no cell left decodes nothing:
    permutation and tokens are empty and caches is ().
    """

    permutation: np.ndarray
    tokens: np.ndarray
    caches: tuple


def _grid_shape(config: md.ModelConfig, dc: DecodeConfig) -> tuple[int, int]:
    if dc.grid_h is not None or dc.grid_w is not None:
        if dc.grid_h is None or dc.grid_w is None:
            raise ValueError("grid_h and grid_w must be set together")
        if dc.grid_h < 1 or dc.grid_w < 1:
            raise ValueError("grid_h and grid_w must be >= 1, got %d and %d"
                             % (dc.grid_h, dc.grid_w))
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

class NonFiniteLogits(RuntimeError):
    """A logit row holding a NaN or infinity; `row` indexes the rows sampled."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


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
    mass reaches top_p, renormalize, then one inverse-cdf draw per row from
    rng (ValueError without one). A row holding a NaN or infinite logit
    raises NonFiniteLogits.
    """
    lg = np.asarray(logits, dtype=np.float64)
    if lg.ndim != 2:
        raise ValueError("logits must be [rows, vocab], got shape %r" % (lg.shape,))
    finite = np.isfinite(lg).all(axis=-1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise NonFiniteLogits(row, "non-finite logits in row %d" % row)
    if temperature == 0.0:
        return np.argmax(lg, axis=-1)
    if rng is None:
        raise ValueError("a draw at temperature %r > 0 needs an rng" % temperature)
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
    # Filtered: whole-array steps with the arithmetic of a per-row loop. A
    # row keeps its first `cut` ids by descending probability. Its cumsum is
    # a non-decreasing in-order scan, so counting the entries below a bound
    # is a 1-d searchsorted (entries past the cut only add to a count that
    # is capped at cut - 1), and each kept prefix is summed as one
    # contiguous row, pairwise like a 1-d sum.
    order = np.argsort(-probs, axis=-1, kind="stable")[:, :top_k]
    kept = np.take_along_axis(probs, order, axis=-1)
    width = kept.shape[1]
    cut = np.full(kept.shape[0], width)
    if top_p < 1.0:
        below = np.cumsum(kept, axis=-1) < top_p - 1e-9
        cut = np.minimum(below.sum(axis=-1) + 1, width)
    mass = np.empty(kept.shape[0])
    for c in np.unique(cut):
        rows = np.flatnonzero(cut == c)
        mass[rows] = kept[rows, :c].sum(axis=-1)
    cum = np.cumsum(kept / mass[:, None], axis=-1)
    j = (cum <= rng.random(kept.shape[0])[:, None]).sum(axis=-1)
    return np.take_along_axis(order, np.minimum(j, cut - 1)[:, None], axis=-1)[:, 0]


# ---------------------------------------------------------------- step loop

def _prefill(params, cache, ids, positions):
    """Feed the known cells behind the condition, in their given order.

    The cells go through the content pass as causal chunks of at most
    PREFILL_ROWS rows over all of the cache's streams, so the pass's
    buffers stay that small whatever the known count. A causal content
    row's bits depend only on its own query, its prefix and the cache
    width, never on the chunk it came in, so every cache row equals that of
    one pass over all the known cells.
    """
    step = max(1, PREFILL_ROWS // cache.streams)
    for a in range(0, len(ids), step):
        md.forward_pass1(params, ids[a:a + step], positions[a:a + step], cache, "causal")


def _rank_of_positions(dc: DecodeConfig, grid_h: int, grid_w: int,
                       flat_idx: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Decode order restricted to a subset of raster indices, as positions."""
    if dc.order == "random":
        return flat_idx[rng.permutation(flat_idx.size)] + 1
    order = fixed_order(dc.order, grid_h, grid_w)
    rank = np.empty(grid_h * grid_w, dtype=np.int64)
    rank[order - 1] = np.arange(order.size)
    return flat_idx[np.argsort(rank[flat_idx], kind="stable")] + 1


def _decode_region(params, class_id, known_ids, known_idx, grid_h, grid_w,
                   steps, dc, state_sink=None, rebuild=False):
    """Decode every cell of a grid_h x grid_w grid but the known ones, in steps chunks.

    known_ids sit at the distinct raster indices known_idx (ValueError for a
    repeated, negative or out-of-grid index, or an id outside [0, vocab_size))
    and are prefilled behind the condition at rotary positions known_idx + 1,
    PREFILL_ROWS content rows at a time (see _prefill); the cells left are
    decoded in dc's order, each step under dc's CFG scale for the fraction
    decoded before it. One cache holds every CFG stream: the condition rows,
    then the prefill, then each step's sampled chunk but the last, which no
    query reads; its width, 1 + grid_h * grid_w - the last chunk, is exactly
    those rows. Under rebuild (the sequential reference) every step instead
    reads fresh one-stream caches of that width, one per condition, fed
    [condition, known cells, decoded so far] in one causal pass; its last
    chunk is one cell, so the final step fills them. state_sink, when given,
    receives the GenerationState, empty when no cell is left.
    """
    cfg = params.config
    known_ids = np.asarray(known_ids, dtype=np.int64)
    known_idx = np.asarray(known_idx, dtype=np.int64)
    out = np.empty(grid_h * grid_w, dtype=np.int64)
    todo_idx = np.setdiff1d(np.arange(out.size), known_idx)
    if known_idx.size + todo_idx.size != out.size:  # a known index repeats or is off-grid
        raise ValueError("known indices must be distinct raster indices in [0, %d)" % out.size)
    if known_ids.size and not 0 <= known_ids.min() <= known_ids.max() < cfg.vocab_size:
        raise ValueError("known ids must lie in [0, %d)" % cfg.vocab_size)
    out[known_idx] = known_ids
    if todo_idx.size == 0:
        if state_sink is not None:
            state_sink.append(GenerationState(todo_idx + 1, known_ids[:0], ()))
        return TokenGrid(out.reshape(grid_h, grid_w), class_id)
    rng = np.random.default_rng(dc.seed)
    order_pos = _rank_of_positions(dc, grid_h, grid_w, todo_idx, rng)
    counts = schedule_counts(DecodeSchedule(dc.schedule, steps, todo_idx.size))
    scales = [cfg_scale_at(dc.cfg_schedule, dc.cfg_scale, d / todo_idx.size)
              for d in np.cumsum([0] + counts[:-1])]
    conds = [cfg.class_token(class_id)]
    if any(s != 1.0 for s in scales):
        conds.append(cfg.null_class_token)
    width = 1 + out.size - counts[-1]
    if not rebuild:
        cache = KvCache(cfg, width, params.dtype, streams=len(conds))
        md.forward_pass1(params, np.array(conds)[:, None], [0], cache)
        if known_ids.size:
            _prefill(params, cache, known_ids, known_idx + 1)
        caches = (cache.stream(0), cache.stream(1)) if len(conds) == 2 else (cache,)
    sampled = np.empty(order_pos.size, dtype=np.int64)
    start = 0
    for step, (n, scale) in enumerate(zip(counts, scales)):
        chunk = order_pos[start:start + n]
        if rebuild:
            fed = np.concatenate([known_ids, sampled[:start]])
            pos = np.concatenate([[0], known_idx + 1, order_pos[:start]])
            caches = tuple(KvCache(cfg, width, params.dtype) for _ in conds)
            for cond, fresh in zip(conds, caches):
                md.forward_pass1(params, np.concatenate([[cond], fed]), pos, fresh)
        logits = md.forward_pass2(params, chunk, caches[0].out_kv())
        if len(caches) == 2:
            logits = cfg_combine(logits, md.forward_pass2(params, chunk, caches[1].out_kv()),
                                 scale)
        try:
            ids = sample_tokens(logits, dc.temperature, dc.top_k, dc.top_p, rng)
        except NonFiniteLogits as e:
            r, c = divmod(int(chunk[e.row]) - 1, grid_w)
            raise NonFiniteLogits(
                e.row, "non-finite logits at decode step %d of %d, grid position "
                "(%d, %d) (row %d of the step)" % (step + 1, len(counts), r, c, e.row)
            ) from None
        sampled[start:start + n] = ids
        if not rebuild and step + 1 < len(counts):  # no query reads the last chunk's rows
            md.forward_pass1(params, ids, chunk, cache, dc.attention_pattern)
        start += n
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
    return _decode_region(params, class_id, [], [], grid_h, grid_w, dc.steps, dc,
                          state_sink)


def sequential_reference_decode(params: md.ArpgParams, class_id: int,
                                known_ids: np.ndarray, known_idx: np.ndarray,
                                grid_h: int, grid_w: int,
                                dc: DecodeConfig) -> TokenGrid:
    """Oracle for _decode_region: one token per step, no cache carried over.

    known_ids sit at the distinct raster indices known_idx (ValueError for a
    repeated, negative or out-of-grid index, or an id outside the
    vocabulary); every other cell is decoded.
    Every step reads fresh caches fed [condition, known cells in the given
    order, decoded so far]. It consumes the rng exactly like the cached route
    at one step per cell left, so generate, inpaint and expand at that step
    count must equal it bit for bit, with any sampling. dc.steps is ignored.
    """
    return _decode_region(params, class_id, known_ids, known_idx, grid_h, grid_w,
                          grid_h * grid_w - np.size(known_idx), dc, rebuild=True)


def sequential_reference_generate(params: md.ArpgParams, class_id: int,
                                  dc: DecodeConfig) -> TokenGrid:
    """sequential_reference_decode over the full grid: generate's oracle at S = T."""
    grid_h, grid_w = _grid_shape(params.config, dc)
    return sequential_reference_decode(params, class_id, [], [], grid_h, grid_w, dc)


# ---------------------------------------------------------------- editing

def inpaint_layout(partial_shape: tuple[int, ...], known, grid_h: int,
                   grid_w: int) -> np.ndarray:
    """Raster indices of inpaint's known cells on the grid_h x grid_w grid.

    known is a boolean grid of that shape or a set of flat raster indices.
    Raises ValueError for a partial grid or mask of another shape, an index
    outside the grid, or an empty known set.
    """
    if partial_shape != (grid_h, grid_w):
        raise ValueError("partial grid has shape %r, grid is %r"
                         % (partial_shape, (grid_h, grid_w)))
    arr = np.asarray(known)
    if arr.dtype == bool:
        if arr.shape != (grid_h, grid_w):
            raise ValueError("known mask has shape %r, grid is %r"
                             % (arr.shape, (grid_h, grid_w)))
        idx = np.flatnonzero(arr)
    else:
        idx = np.unique(arr.reshape(-1))
    if idx.size == 0:
        raise ValueError("known set is empty; use generate instead")
    if idx.min() < 0 or idx.max() >= grid_h * grid_w:
        raise ValueError("known indices outside the grid")
    return idx


def inpaint(params: md.ArpgParams, partial: TokenGrid, known,
            class_id: int, dc: DecodeConfig,
            state_sink: list | None = None) -> TokenGrid:
    """Decode only the unknown positions; known tokens are kept bit-exact.

    known is a boolean grid of the decode grid's shape or a set of flat
    raster indices. Known tokens are prefilled behind the condition in raster
    order; the remaining positions are decoded by the schedule over their own
    count.
    """
    cfg = params.config
    grid_h, grid_w = _grid_shape(cfg, dc)
    partial.validate(cfg.vocab_size)
    idx = inpaint_layout(partial.tokens.shape, known, grid_h, grid_w)
    return _decode_region(params, class_id, partial.flat[idx], idx, grid_h, grid_w,
                          min(dc.steps, cfg.seq_len - idx.size), dc, state_sink)


def expand(params: md.ArpgParams, base: TokenGrid, new_h: int, new_w: int,
           mode: str, dc: DecodeConfig,
           state_sink: list | None = None) -> TokenGrid:
    """Grow a grid to new_h x new_w, decoding only the new positions.

    mode "outpaint" anchors the base at the top-left corner; "resolution"
    centers it. Positions are re-indexed on the target raster and the rotary
    table grows to the longer sequence, never extrapolated. dc.grid_h
    and dc.grid_w, when set, must name the target grid.
    """
    base_idx = expand_layout(base.tokens.shape, new_h, new_w, mode, dc)
    return _decode_region(params, base.class_id, base.flat, base_idx, new_h, new_w,
                          min(dc.steps, new_h * new_w - base_idx.size), dc, state_sink)


def expand_layout(base_shape: tuple[int, int], new_h: int, new_w: int,
                  mode: str, dc: DecodeConfig) -> np.ndarray:
    """Raster indices of the base cells on the new_h x new_w target (see expand).

    Raises ValueError for a target smaller than the base, past
    EXPAND_POSITION_LIMIT, other than dc's grid when one is set, or an unknown mode.
    """
    if (dc.grid_h, dc.grid_w) not in ((None, None), (new_h, new_w)):
        raise ValueError("decode grid %sx%s is not the expand target %dx%d"
                         % (dc.grid_h, dc.grid_w, new_h, new_w))
    old_h, old_w = base_shape
    if new_h < old_h or new_w < old_w:
        raise ValueError("target %dx%d smaller than base %dx%d"
                         % (new_h, new_w, old_h, old_w))
    total = new_h * new_w
    if total > EXPAND_POSITION_LIMIT:
        raise ValueError("target holds %d positions, above the expand limit of %d"
                         % (total, EXPAND_POSITION_LIMIT))
    if mode == "outpaint":
        off_r, off_c = 0, 0
    elif mode == "resolution":
        off_r, off_c = (new_h - old_h) // 2, (new_w - old_w) // 2
    else:
        raise ValueError("mode must be outpaint or resolution, got %r" % mode)
    rows = np.arange(old_h)[:, None] + off_r
    cols = np.arange(old_w)[None, :] + off_c
    return (rows * new_w + cols).reshape(-1)
