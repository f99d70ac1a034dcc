"""Synthetic shape grids, the shuffled teacher-forcing loop, AdamW, evaluation.

The dataset stands in for a tokenized image corpus: four procedural shape
families drawn with class-specific palettes on a background token, paired
with a rule-based verifier that classifies any clean sample perfectly. The
training loop samples a fresh permutation per sample per step, drops the
class condition at a fixed rate for guidance training, and aborts on NaN.
masked_baseline_grad_demo contrasts a mask-row-only loss (exactly zero query
gradient on content rows) against this model's all-slots objective.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import numcore as nc
from .attention import attention_backward, attention_forward, cross_full_mask
from .decoding import DecodeConfig, TokenGrid, generate
from .model import ArpgParams, forward_train_batch
from .ordering import check_int, check_seed

FAMILY_NAMES = ("filled_rect", "hollow_rect", "diagonal_stripe", "checker")
BACKGROUND = 0  # the token of every cell outside the shape; palettes start at 1
PURITY_THRESHOLD = 0.6  # strict verify_grid: least share of the majority palette
MATCH_THRESHOLD = 0.75  # strict verify_grid: least Jaccard overlap with the ideal shape


# ---------------------------------------------------------------- dataset

@dataclass
class ToyDatasetSpec:
    """Procedural grid corpus: shape family per class, disjoint 3-token palettes."""

    grid_h: int = 8
    grid_w: int = 8
    vocab_size: int = 16
    num_classes: int = 4
    noise_rate: float = 0.0

    def __post_init__(self):
        for name in ("grid_h", "grid_w", "vocab_size", "num_classes"):
            check_int(name, getattr(self, name))
        if self.grid_h < 4 or self.grid_w < 4:
            raise ValueError("grids below 4x4 cannot hold the shape families")
        if not 0.0 <= self.noise_rate < 1.0:
            raise ValueError("noise_rate must lie in [0, 1)")
        if self.vocab_size < 1 + 3 * self.num_classes:
            raise ValueError("need %d tokens for background plus %d palettes"
                             % (1 + 3 * self.num_classes, self.num_classes))

    def palette(self, class_id: int) -> np.ndarray:
        if not 0 <= class_id < self.num_classes:
            raise ValueError("class_id %d outside [0, %d)"
                             % (class_id, self.num_classes))
        return np.arange(1 + 3 * class_id, 4 + 3 * class_id)

    def family(self, class_id: int) -> str:
        return FAMILY_NAMES[class_id % len(FAMILY_NAMES)]


def _shape_cells(spec: ToyDatasetSpec, family: str,
                 rng: np.random.Generator) -> np.ndarray:
    h, w = spec.grid_h, spec.grid_w
    rows = np.arange(h)[:, None]
    cols = np.arange(w)[None, :]
    cells = np.zeros((h, w), dtype=bool)
    if family == "filled_rect" or family == "hollow_rect":
        lo = 3 if family == "filled_rect" else 4
        sh = int(rng.integers(lo, h + 1))
        sw = int(rng.integers(lo, w + 1))
        r0 = int(rng.integers(0, h - sh + 1))
        c0 = int(rng.integers(0, w - sw + 1))
        cells[r0:r0 + sh, c0:c0 + sw] = True
        if family == "hollow_rect":
            cells[r0 + 1:r0 + sh - 1, c0 + 1:c0 + sw - 1] = False
    elif family == "diagonal_stripe":
        phase = int(rng.integers(0, 4))
        cells = (rows + cols) % 4 == phase
    elif family == "checker":
        parity = int(rng.integers(0, 2))
        cells = (rows + cols) % 2 == parity
    else:
        raise ValueError("unknown family %r" % family)
    return cells


def make_sample(spec: ToyDatasetSpec, class_id: int,
                rng: np.random.Generator) -> TokenGrid:
    """One grid of the class's family in a single palette color, plus noise."""
    palette = spec.palette(class_id)
    cells = _shape_cells(spec, spec.family(class_id), rng)
    color = int(rng.choice(palette))
    tokens = np.full((spec.grid_h, spec.grid_w), BACKGROUND, dtype=np.int64)
    tokens[cells] = color
    if spec.noise_rate > 0.0:
        hit = rng.random((spec.grid_h, spec.grid_w)) < spec.noise_rate
        noise = rng.integers(0, spec.vocab_size, (spec.grid_h, spec.grid_w))
        tokens = np.where(hit, noise, tokens)
    return TokenGrid(tokens, class_id)


def make_dataset(spec: ToyDatasetSpec, n: int,
                 rng: np.random.Generator) -> list[TokenGrid]:
    """n samples, classes round-robin so the histogram is balanced within 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [make_sample(spec, i % spec.num_classes, rng) for i in range(n)]


def _bbox_ideal(cells: np.ndarray, hollow: bool) -> np.ndarray:
    rows = np.flatnonzero(cells.any(axis=1))
    cols = np.flatnonzero(cells.any(axis=0))
    ideal = np.zeros_like(cells)
    ideal[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1] = True
    if hollow:
        ideal[rows[0] + 1:rows[-1], cols[0] + 1:cols[-1]] = False
    return ideal


def _best_pattern_ideal(cells: np.ndarray, period: int) -> np.ndarray:
    h, w = cells.shape
    diag = np.arange(h)[:, None] + np.arange(w)[None, :]
    best, best_hits = None, -1
    for phase in range(period):
        ideal = diag % period == phase
        hits = int((cells & ideal).sum())
        if hits > best_hits:
            best, best_hits = ideal, hits
    return best


def verify_grid(tokens: np.ndarray, spec: ToyDatasetSpec,
                strict: bool = False) -> int:
    """Rule-based class assignment by palette majority; clean samples always
    land on their true class.

    The default mode assigns whichever class owns the most palette-colored
    cells (so garbage grids land on a roughly uniform class, chance level for
    the validity metric); -1 only when no palette cell exists at all. Strict
    mode additionally demands that the majority palette own PURITY_THRESHOLD
    of the palette cells and that the best-fitting ideal shape of its family
    overlap them with Jaccard at least MATCH_THRESHOLD, else -1.
    """
    tokens = np.asarray(tokens)
    counts = np.array([np.isin(tokens, spec.palette(c)).sum()
                       for c in range(spec.num_classes)])
    total = counts.sum()
    if total == 0:
        return -1
    best = int(np.argmax(counts))
    if not strict:
        return best
    if counts[best] / total < PURITY_THRESHOLD:
        return -1
    cells = np.isin(tokens, spec.palette(best))
    family = spec.family(best)
    if family == "filled_rect":
        ideal = _bbox_ideal(cells, hollow=False)
    elif family == "hollow_rect":
        ideal = _bbox_ideal(cells, hollow=True)
    elif family == "diagonal_stripe":
        ideal = _best_pattern_ideal(cells, 4)
    else:
        ideal = _best_pattern_ideal(cells, 2)
    jaccard = (cells & ideal).sum() / (cells | ideal).sum()
    return best if jaccard >= MATCH_THRESHOLD else -1


def dataset_arrays(dataset: list[TokenGrid]) -> tuple[np.ndarray, np.ndarray]:
    toks = np.stack([g.flat for g in dataset])
    classes = np.array([g.class_id for g in dataset])
    return toks, classes


# ---------------------------------------------------------------- optimizer

@dataclass
class OptimState:
    """AdamW moments and hyperparameters; lr is set from the schedule per step."""

    lr: float
    betas: tuple[float, float] = (0.9, 0.95)
    weight_decay: float = 0.05
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @classmethod
    def init(cls, params: ArpgParams, lr: float, betas=(0.9, 0.95),
             weight_decay: float = 0.05) -> "OptimState":
        state = cls(lr=lr, betas=betas, weight_decay=weight_decay)
        for p in params.parameters():
            state.m[p.name] = np.zeros_like(p.data)
            state.v[p.name] = np.zeros_like(p.data)
        return state


def _decayed(p: nc.Parameter) -> bool:
    # norm gains (1-d) and the token table are excluded from decay
    return p.data.ndim >= 2 and p.name != "embed.tokens"


def adamw_update(optim: OptimState, params: ArpgParams) -> ArpgParams:
    """Bias-corrected AdamW step with decoupled decay applied before the step."""
    optim.step += 1
    b1, b2 = optim.betas
    c1 = 1.0 - b1 ** optim.step
    c2 = 1.0 - b2 ** optim.step
    for p in params.parameters():
        g = p.grad
        m = optim.m[p.name]
        v = optim.v[p.name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        if _decayed(p):
            p.data *= 1.0 - optim.lr * optim.weight_decay
        p.data -= optim.lr * (m / c1) / (np.sqrt(v / c2) + optim.eps)
    return params


def lr_at(step: int, total_steps: int, base_lr: float,
          warmup_frac: float = 0.1, min_lr: float = 0.0) -> float:
    """Linear warmup to base_lr, then cosine down to min_lr."""
    warm = max(1, int(round(total_steps * warmup_frac)))
    if step < warm:
        return base_lr * (step + 1) / warm
    if total_steps <= warm:
        return base_lr
    u = (step - warm) / (total_steps - warm)
    return min_lr + 0.5 * (base_lr - min_lr) * (1.0 + np.cos(np.pi * u))


# ---------------------------------------------------------------- train step

def _batch_arrays(batch) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(batch, tuple):
        toks, classes = batch
        return np.asarray(toks), np.asarray(classes)
    return dataset_arrays(list(batch))


def train_step(params: ArpgParams, optim: OptimState, batch,
               rng: np.random.Generator, class_dropout: float = 0.1,
               grad_clip: float | None = None) -> float:
    """One optimization step; returns the mean cross-entropy over all slots.

    Per sample: a fresh permutation, and with probability class_dropout the
    condition is replaced by the null class. rng is consumed in that fixed
    order (permutations, then dropout, then model dropout), which is what
    makes snapshot resume bit-exact.
    """
    return _train_step(params, optim, batch, rng, class_dropout, grad_clip)["loss"]


def _train_step(params: ArpgParams, optim: OptimState, batch,
                rng: np.random.Generator, class_dropout: float,
                grad_clip: float | None) -> dict:
    """train_step's work; returns {loss, grad_norm, clipped}.

    grad_norm is the global L2 norm of the gradients before clipping, and
    clipped says whether it exceeded grad_clip and was scaled down to it.
    """
    toks, classes = _batch_arrays(batch)
    if toks.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    cfg = params.config
    bsz, t = toks.shape
    nc.zero_grads(params.parameters())
    perms = np.stack([rng.permutation(t) for _ in range(bsz)]) + 1
    cond = np.array([cfg.class_token(c) for c in classes])
    if class_dropout > 0.0:
        cond = np.where(rng.random(bsz) < class_dropout,
                        cfg.null_class_token, cond)
    drop_rng = rng if cfg.dropout > 0.0 else None
    logits, targets = forward_train_batch(params, toks, cond, perms,
                                          dropout_rng=drop_rng)
    loss = nc.cross_entropy(nc.reshape(logits, (bsz * t, cfg.vocab_size)),
                            targets.reshape(-1))
    value = float(loss.data)
    if not np.isfinite(value):
        raise RuntimeError("loss is %r at optimizer step %d; aborting"
                           % (value, optim.step))
    loss.backward()
    norm = np.sqrt(sum(float((p.grad * p.grad).sum()) for p in params.parameters()))
    if not np.isfinite(norm):
        bad = next((p.name for p in params.parameters() if not np.isfinite(p.grad).all()),
                   None)
        raise RuntimeError("gradient %s at optimizer step %d; aborting before the update"
                           % ("of %s is not finite" % bad if bad else "norm overflows",
                              optim.step))
    clipped = grad_clip is not None and norm > grad_clip
    if clipped:
        scale = grad_clip / norm
        for p in params.parameters():
            p.grad *= scale
    adamw_update(optim, params)
    return {"loss": value, "grad_norm": float(norm), "clipped": bool(clipped)}


@dataclass
class TrainConfig:
    """Loop hyperparameters for the desk-scale run."""

    steps: int = 512
    batch_size: int = 32
    lr: float = 3e-3
    min_lr: float = 1e-4
    warmup_frac: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.95
    weight_decay: float = 0.05
    class_dropout: float = 0.1
    grad_clip: float | None = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("steps", "batch_size"):
            check_int(name, getattr(self, name))
        check_seed("seed", self.seed)
        if self.steps < 1 or self.batch_size < 1:
            raise ValueError("steps and batch_size must be >= 1")
        for key, ok, rule in (("lr", 0 < self.lr < np.inf, "finite and > 0"),
                              ("beta1", 0 <= self.beta1 < 1, "in [0, 1)"),
                              ("beta2", 0 <= self.beta2 < 1, "in [0, 1)"),
                              ("min_lr", 0 <= self.min_lr < np.inf, "finite and >= 0"),
                              ("warmup_frac", 0 <= self.warmup_frac <= 1, "in [0, 1]"),
                              ("weight_decay", 0 <= self.weight_decay < np.inf, "finite and >= 0"),
                              ("class_dropout", 0 <= self.class_dropout <= 1, "in [0, 1]")):
            if not ok:
                raise ValueError("%s must be %s, got %r" % (key, rule, getattr(self, key)))
        if self.grad_clip is not None and not 0 < self.grad_clip < np.inf:
            raise ValueError("grad_clip must be None or finite and > 0, got %r" % self.grad_clip)


def train_loop(params: ArpgParams, dataset: list[TokenGrid], cfg: TrainConfig,
               optim: OptimState | None = None,
               rng: np.random.Generator | None = None, start_step: int = 0,
               stop_step: int | None = None,
               on_step=None) -> tuple[OptimState, list[dict]]:
    """Run steps [start_step, stop_step or cfg.steps) with replacement batches.

    The lr schedule is always anchored at cfg.steps; stop_step just interrupts
    early. One rng stream drives batch indices, permutations, and dropout, so
    a resumed (params, optim, rng, start_step) continues the exact run.
    on_step receives one record per step: {step, loss, grad_norm, clipped,
    lr, wall_ms}; grad_norm is the gradient norm before clipping, and
    clipped says whether cfg.grad_clip scaled the gradients down.
    """
    toks, classes = dataset_arrays(dataset)
    if toks.shape[1] != params.config.seq_len:
        raise ValueError("dataset grids hold %d tokens, model expects %d"
                         % (toks.shape[1], params.config.seq_len))
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    if optim is None:
        optim = OptimState.init(params, cfg.lr, (cfg.beta1, cfg.beta2),
                                cfg.weight_decay)
    history = []
    for step in range(start_step, cfg.steps if stop_step is None else stop_step):
        t0 = time.perf_counter()
        optim.lr = lr_at(step, cfg.steps, cfg.lr, cfg.warmup_frac, cfg.min_lr)
        idx = rng.integers(0, toks.shape[0], cfg.batch_size)
        stats = _train_step(params, optim, (toks[idx], classes[idx]), rng,
                            cfg.class_dropout, cfg.grad_clip)
        record = {"step": step, **stats, "lr": optim.lr,
                  "wall_ms": (time.perf_counter() - t0) * 1e3}
        history.append(record)
        if on_step is not None:
            on_step(record)
    return optim, history


# ---------------------------------------------------------------- grad demo

def masked_baseline_grad_demo(seed: int, rows: int = 8,
                              masked=None) -> dict:
    """Per-row query/key/value grad norms when loss reads mask rows only.

    The baseline is one coupled self-attention layer over 11 token ids plus
    a mask id. Content rows provably get exactly zero query gradient (their
    attention outputs never reach the loss), while their keys and values
    still receive gradient through the mask rows that attend to them. Raises
    ValueError for rows < 1 or a masked flag count other than rows, and
    AssertionError if any unmasked row shows a nonzero dq norm.
    """
    if rows < 1:
        raise ValueError("rows must be >= 1, got %d" % rows)
    rng = np.random.default_rng(seed)
    vocab, dim = 11, 16
    mask_id = vocab

    def w(name, shape):
        return nc.Parameter(name, rng.normal(0.0, 0.2, shape))
    embed = w("embed", (vocab + 1, dim))
    wq, wk, wv = (w(name, (dim, dim)) for name in ("wq", "wk", "wv"))
    wo = w("wo", (dim, vocab))
    ids = rng.integers(0, vocab, rows)
    if masked is None:
        masked = rng.random(rows) < 0.5
        if masked.all() or not masked.any():
            masked[rows // 2] = not masked[rows // 2]
    masked = np.asarray(masked, dtype=bool)
    if masked.shape != (rows,):
        raise ValueError("masked must hold %d flags, got shape %r" % (rows, masked.shape))
    fed = np.where(masked, mask_id, ids)
    x = nc.embedding(embed, fed[None])  # one batch of rows: [1, rows, dim]
    # one head: q and k|v as [1, 1, rows, dim] views, the layout the model's heads take
    q = nc.matmul(x, wq).data[:, None]
    kv = np.concatenate([nc.matmul(x, wk).data, nc.matmul(x, wv).data], axis=-1)[:, None]
    k, v = kv[..., :dim], kv[..., dim:]
    o, probs = attention_forward(q, k, v, cross_full_mask(rows, rows))
    # the attention output is a leaf; attention_backward carries its gradient on
    out = nc.Tensor(o[:, 0], requires_grad=True)
    logits = nc.reshape(nc.matmul(out, wo), (rows, vocab))
    sel = np.flatnonzero(masked)
    grads = (np.zeros_like(o),) * 3
    if sel.size:
        nc.cross_entropy(nc.embedding(logits, sel), ids[sel]).backward()
        grads = attention_backward(q, k, v, probs, o, out.grad[:, None])

    def norms(g):
        g = g[0, 0]
        return np.sqrt((g * g).sum(axis=-1))

    dq, dk, dv = grads
    report = {"masked": masked.tolist(),
              "dq_norms": norms(dq).tolist(),
              "dk_norms": norms(dk).tolist(),
              "dv_norms": norms(dv).tolist()}
    for i, is_masked in enumerate(masked):
        if not is_masked:
            assert report["dq_norms"][i] == 0.0, \
                "content row %d leaked query gradient" % i
    return report


# ---------------------------------------------------------------- evaluation

def evaluate(params: ArpgParams, dataset: list[TokenGrid], dc: DecodeConfig,
             spec: ToyDatasetSpec | None = None, n_eval: int | None = None,
             n_generate: int = 32) -> dict:
    """Teacher-forcing token accuracy plus verifier validity of fresh samples.

    Accuracy: raster-order argmax against ground truth over min(n_eval, all)
    grids. Validity: n_generate decodes, classes round-robin, seeds dc.seed+i;
    a sample counts when the verifier assigns exactly the conditioning class.
    """
    cfg = params.config
    toks, classes = dataset_arrays(dataset)
    if n_eval is not None:
        toks, classes = toks[:n_eval], classes[:n_eval]
    if spec is None:
        spec = ToyDatasetSpec(vocab_size=cfg.vocab_size,
                              num_classes=cfg.num_classes)
    t = cfg.seq_len
    hits = total = 0
    with nc.no_grad():
        for lo in range(0, toks.shape[0], 256):
            chunk = toks[lo:lo + 256]
            cond = np.array([cfg.class_token(c) for c in classes[lo:lo + 256]])
            perms = np.tile(np.arange(1, t + 1), (chunk.shape[0], 1))
            logits, targets = forward_train_batch(params, chunk, cond, perms)
            hits += int((np.argmax(logits.data, axis=-1) == targets).sum())
            total += targets.size
    valid = strict_valid = 0
    for i in range(n_generate):
        cls = i % cfg.num_classes
        grid = generate(params, cls, replace(dc, seed=dc.seed + i))
        valid += verify_grid(grid.tokens, spec) == cls
        strict_valid += verify_grid(grid.tokens, spec, strict=True) == cls
    return {"token_accuracy": hits / total,
            "validity": valid / n_generate,
            "strict_validity": strict_valid / n_generate,
            "n_eval": int(toks.shape[0]),
            "n_generate": n_generate}
