"""The benchmark's workloads: inputs made from a seed, timed operations, checks.

A workload is set up from `--seed` alone, runs in rounds of the same
operations, keeps what each operation returned, and checks those outputs
after the timed pass. Every operation returns (tokens, cache_bytes): the
tokens it trained on or decoded, and the bytes of the kv caches it allocated.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

import arpg.numcore as nc
from arpg import (ArpgParams, DecodeConfig, DecodeSchedule, ModelConfig,
                  OptimState, ToyDatasetSpec, TokenGrid, TrainConfig, expand,
                  generate, inpaint, make_dataset, schedule_counts,
                  sequential_reference_generate, train_step)
from arpg.attention import AttentionMask, causal_mask
from arpg.model import forward_pass2, forward_train_batch, pass1_hidden, pass2_logits, project_kv
from arpg.training import dataset_arrays, lr_at

import checks as ck

INIT_SEED = 0  # weights are the same in every run; --seed picks the inputs
DATASET_SIZE = 512
REPLAYED_REQUESTS = 3  # generate_parallel requests replayed step by step
REFERENCE_REQUESTS = 2  # generate_sequential requests rebuilt without a cache


def desk_params() -> ArpgParams:
    return ArpgParams.init(ModelConfig(), np.random.default_rng(INIT_SEED), np.float32)


def cache_bytes(state) -> int:
    """Allocated bytes of the kv caches a generation state holds."""
    total = 0
    for cache in getattr(state, "caches", ()):
        if cache is None:
            continue
        for value in vars(cache).values():
            if isinstance(value, list):
                total += sum(b.nbytes for b in value if isinstance(b, np.ndarray))
    return total


# ---------------------------------------------------------------- train

class Train:
    """Desk training: batch 32 AdamW steps on the shape-grid dataset."""

    name = "train"

    def __init__(self, seed: int):
        self.tc = TrainConfig()
        self.params = desk_params()
        grids = make_dataset(ToyDatasetSpec(), DATASET_SIZE, np.random.default_rng([seed, 0]))
        self.toks, self.classes = dataset_arrays(grids)
        self.rng = np.random.default_rng([seed, 1])
        self.optim = OptimState.init(self.params, self.tc.lr,
                                     (self.tc.beta1, self.tc.beta2), self.tc.weight_decay)
        self.seed = seed
        self.losses: list[float] = []  # warm-up step, timed steps, memory step

    def _step(self):
        tc = self.tc
        self.optim.lr = lr_at(len(self.losses) % tc.steps, tc.steps, tc.lr,
                              tc.warmup_frac, tc.min_lr)
        idx = self.rng.integers(0, self.toks.shape[0], tc.batch_size)
        self.losses.append(train_step(self.params, self.optim,
                                      (self.toks[idx], self.classes[idx]), self.rng,
                                      tc.class_dropout, tc.grad_clip))
        return tc.batch_size * self.toks.shape[1], 0

    def round(self, r: int):
        return [("train_step", self._step)]

    def check(self, timed: int) -> list[str]:
        ck.check_first_loss(self.losses[0], self.params.config.vocab_size)
        ck.check_finite(self.losses, "losses")
        ck.check_loss_falls(self.losses[1:1 + timed] if timed >= 4 else self.losses)
        for p in self.params.parameters():
            ck.check_finite(p.data, p.name)
        tape, fd = tape_and_fd_gradients(self.seed)
        ck.check_gradients(tape, fd)
        return ["first_loss", "finite", "loss_falls", "fd_gradients"]


def tape_and_fd_gradients(seed: int, coords: int = 24, eps: float = 1e-5):
    """Tape gradients and central differences on a tiny float64 model."""
    cfg = ModelConfig(hidden=16, heads=2, pass1_layers=1, pass2_layers=1, seq_len=16)
    rng = np.random.default_rng([seed, 2])
    params = ArpgParams.init(cfg, rng, np.float64, init_std=0.3)
    toks = rng.integers(0, cfg.vocab_size, (2, cfg.seq_len))
    cond = np.array([cfg.class_token(int(rng.integers(cfg.num_classes))),
                     cfg.null_class_token])
    perms = np.stack([rng.permutation(cfg.seq_len) + 1 for _ in range(2)])

    def loss():
        logits, targets = forward_train_batch(params, toks, cond, perms)
        flat = nc.reshape(logits, (-1, cfg.vocab_size))
        return nc.cross_entropy(flat, targets.reshape(-1))

    plist = params.parameters()
    nc.zero_grads(plist)
    loss().backward()
    tape, fd = [], []
    for _ in range(coords):
        p = plist[int(rng.integers(len(plist)))]
        i = int(rng.integers(p.data.size))
        tape.append(float(p.grad.flat[i]))
        saved = p.data.flat[i]
        with nc.no_grad():
            p.data.flat[i] = saved + eps
            up = float(loss().data)
            p.data.flat[i] = saved - eps
            down = float(loss().data)
        p.data.flat[i] = saved
        fd.append((up - down) / (2 * eps))
    return np.array(tape), np.array(fd)


# ---------------------------------------------------------------- decoding

class _Decode:
    """Decode workloads: untrained desk weights, one full grid per request.

    Decode cost does not depend on weight values and no check relies on
    sample quality, so the weights stay as initialised.
    """

    DC: DecodeConfig

    def __init__(self, seed: int):
        self.params = desk_params()
        self.seed = seed
        self.base_seed = int(np.random.default_rng([seed, 3]).integers(2 ** 31))
        self.outputs: list[tuple] = []

    def round(self, r: int):
        dc = replace(self.DC, seed=self.base_seed + r)
        cls = r % self.params.config.num_classes  # classes round-robin

        def op():
            sink: list = []
            grid = generate(self.params, cls, dc, state_sink=sink)
            self.outputs.append((r, cls, dc, grid.tokens, sink[0].permutation))
            return grid.tokens.size, cache_bytes(sink[0])
        return [("generate", op)]

    def check_grids(self) -> None:
        cfg = self.params.config
        cells = np.arange(1, cfg.seq_len + 1)
        for r, _, _, tokens, order in self.outputs:
            ck.check_order(order, cells, "request %d" % r)
            ck.check_ids(tokens, cfg.vocab_size, "request %d" % r)


class GenerateParallel(_Decode):
    """Full grids in 8 arccos steps, linear CFG ramp to 3, top-k and top-p."""

    name = "generate_parallel"
    DC = DecodeConfig(steps=8, schedule="arccos", cfg_scale=3.0, cfg_schedule="linear",
                      temperature=1.0, top_k=8, top_p=0.9, order="random")

    def check(self, timed: int) -> list[str]:
        self.check_grids()
        for r, cls, dc, tokens, _ in self.outputs[:REPLAYED_REQUESTS]:
            replay_request(self.params, cls, dc, tokens, "request %d" % r)
        return ["order", "ids", "replay_logits", "filtered_set"]


def replay_steps(params: ArpgParams, class_id: int, dc: DecodeConfig):
    """Re-run one request and replay each of its steps in both routes.

    Returns the re-run's tokens and, per step, (chunk positions, ids sampled
    there, cache-route logits per stream, tape-route logits per stream, CFG
    scale of the linear ramp). The cache route re-runs forward_pass2 against
    the cache prefix that existed at the step; the tape route teacher-forces
    the same order in one batched pass whose mask lets each query see exactly
    its step's prefix.
    """
    cfg = params.config
    sink: list = []
    grid = generate(params, class_id, dc, state_sink=sink)
    order = np.asarray(sink[0].permutation)
    fed = np.asarray(sink[0].tokens)  # ids in decode order
    total = order.size
    counts = schedule_counts(DecodeSchedule(dc.schedule, dc.steps, total))
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    prefix = np.repeat(1 + starts, counts)  # keys visible to each query
    mask = AttentionMask("step_prefix", np.arange(total + 1)[None, :] < prefix[:, None])
    pos = np.concatenate([[0], order])[None, :]
    streams, tape = [], []
    for cond, cache in zip([cfg.class_token(class_id), cfg.null_class_token], sink[0].caches):
        if cache is None:
            continue
        with nc.no_grad():
            ids = np.concatenate([[cond], fed])[None, :]
            h = pass1_hidden(params, ids, pos, causal_mask(total + 1))
            logits = pass2_logits(params, project_kv(params, h, pos), order[None, :], mask)
        streams.append(cache)
        tape.append(logits.data[0])
    steps = []
    for start, n in zip(starts, counts):
        chunk = order[start:start + n]
        cache_logits = [forward_pass2(params, chunk,
                                      [(k[:1 + start], v[:1 + start]) for k, v in c.out_kv()])
                        for c in streams]
        scale = 1.0 + (dc.cfg_scale - 1.0) * start / total
        steps.append((chunk, fed[start:start + n], cache_logits,
                      [t[start:start + n] for t in tape], scale))
    return grid.tokens, steps


def replay_request(params, class_id, dc, timed_tokens, what: str) -> None:
    tokens, steps = replay_steps(params, class_id, dc)
    ck.check_equal(tokens, timed_tokens, what + " re-run")
    for s, (_, ids, cache_logits, tape_logits, scale) in enumerate(steps):
        for stream, (c, t) in enumerate(zip(cache_logits, tape_logits)):
            ck.check_close(c, t, "%s step %d stream %d logits" % (what, s, stream))
        guided = cache_logits[0].astype(np.float64)
        if len(cache_logits) == 2:
            uncond = cache_logits[1].astype(np.float64)
            guided = uncond + scale * (guided - uncond)
        ck.check_in_filtered_set(ids, guided, dc.temperature, dc.top_k, dc.top_p,
                                 "%s step %d" % (what, s))


class GenerateSequential(_Decode):
    """Full grids one token per step (S = T), greedy, no CFG."""

    name = "generate_sequential"
    DC = DecodeConfig(steps=64, temperature=0.0, cfg_scale=1.0, order="random")

    def check(self, timed: int) -> list[str]:
        self.check_grids()
        for r, cls, dc, tokens, _ in self.outputs[:REFERENCE_REQUESTS]:
            ref = sequential_reference_generate(self.params, cls, dc)
            ck.check_equal(tokens, ref.tokens, "request %d against the cacheless reference" % r)
        return ["order", "ids", "sequential_reference"]


class Edit(_Decode):
    """Rounds of inpaint (random half masks), outpaint 8->12, resolution 8->12."""

    name = "edit"
    DC = DecodeConfig(steps=8, temperature=1.0)
    NEW_SIDE = 12

    def __init__(self, seed: int):
        super().__init__(seed)
        self.bases = make_dataset(ToyDatasetSpec(), 64, np.random.default_rng([seed, 4]))

    def round(self, r: int):
        dc = replace(self.DC, seed=self.base_seed + r)
        base = self.bases[r % len(self.bases)]
        known = np.random.default_rng([self.seed, 5, r]).random(base.tokens.size) < 0.5
        if known.all() or not known.any():
            known[0] = not known[0]
        known_idx = np.flatnonzero(known)
        n = self.NEW_SIDE

        def op_inpaint():
            sink: list = []
            partial = TokenGrid(base.tokens.copy(), base.class_id)
            out = inpaint(self.params, partial, known_idx, base.class_id, dc, state_sink=sink)
            self.outputs.append(("inpaint", r, base.tokens, known_idx, out.tokens,
                                 sink[0].permutation))
            return base.tokens.size - known_idx.size, cache_bytes(sink[0])

        def op_expand(mode):
            def op():
                sink: list = []
                out = expand(self.params, base, n, n, mode, dc, state_sink=sink)
                self.outputs.append((mode, r, base.tokens, None, out.tokens,
                                     sink[0].permutation))
                return n * n - base.tokens.size, cache_bytes(sink[0])
            return op
        return [("inpaint", op_inpaint), ("outpaint", op_expand("outpaint")),
                ("resolution", op_expand("resolution"))]

    def check(self, timed: int) -> list[str]:
        vocab = self.params.config.vocab_size
        for kind, r, base, known_idx, out, order in self.outputs:
            what = "%s round %d" % (kind, r)
            if kind == "inpaint":
                ck.check_kept(out, base, known_idx, what)
                unknown = np.setdiff1d(np.arange(base.size), known_idx)
            else:
                h, w = base.shape
                H, W = out.shape
                off = (0, 0) if kind == "outpaint" else ((H - h) // 2, (W - w) // 2)
                ck.check_anchor(out, base, off[0], off[1], what)
                inside = np.zeros((H, W), dtype=bool)
                inside[off[0]:off[0] + h, off[1]:off[1] + w] = True
                unknown = np.flatnonzero(~inside)
            ck.check_order(order, unknown + 1, what)
            ck.check_ids(out.reshape(-1)[unknown], vocab, what)
        return ["known_kept", "anchor", "order", "ids"]


WORKLOADS = {w.name: w for w in (Train, GenerateParallel, GenerateSequential, Edit)}
