"""Print sha256 digests of training and decoding bits, to compare two trees.

Run it on a tree before a change and again after it; a change that claims to
keep the bits must print the same lines:

    python tools/bit_hashes.py [--steps 4] [--requests 6] [--threads 2]

Training digests cover the loss, every weight and every gradient after each
of --steps train steps: the desk config (float32, batch 32) and a tiny
float64 model with unshared kv and dropout. Decoding digests cover the grid,
the decode order and the kv-cache rows that some query reads of --requests
fixed requests each of parallel generate (8 steps, CFG, top-k/top-p),
sequential generate (one token per step, greedy), inpaint and expand
(outpaint and resolution), on the desk config's initial weights: sampled ids
rarely move when logits move in their last bits, the cache rows do. The rows
hashed are those below each cache's `length`, the rows the last step's
queries read, so a tree that also caches the last chunk prints the same
digests as one that does not. BLAS threads are pinned before
numpy loads, since training bits depend on the thread count. The package is
imported from the `src` directory next to this script. A last line gives the
package's line total, as `wc -l src/arpg/*.py` counts it.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--steps", type=int, default=4, help="train steps per model")
    p.add_argument("--requests", type=int, default=6, help="requests per decode kind")
    p.add_argument("--threads", type=int, default=2, help="BLAS threads")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.threads)
    sys.path.insert(0, SRC)
    import numpy as np
    from dataclasses import replace

    from arpg import (ArpgParams, DecodeConfig, ModelConfig, OptimState, ToyDatasetSpec,
                      TokenGrid, TrainConfig, expand, generate, inpaint, make_dataset,
                      train_step)
    from arpg.training import dataset_arrays

    def digest(arrays) -> str:
        h = hashlib.sha256()
        for a in arrays:
            a = np.ascontiguousarray(a)
            h.update(str((a.dtype.str, a.shape)).encode())
            h.update(a.tobytes())
        return h.hexdigest()

    def train_arrays(config, dtype, batch):
        tc = TrainConfig()
        params = ArpgParams.init(config, np.random.default_rng(0), dtype)
        optim = OptimState.init(params, tc.lr, (tc.beta1, tc.beta2), tc.weight_decay)
        grids = make_dataset(ToyDatasetSpec(), 64, np.random.default_rng(1))
        toks, classes = dataset_arrays(grids)
        rng = np.random.default_rng(2)
        for _ in range(args.steps):
            idx = rng.integers(0, toks.shape[0], batch)
            loss = train_step(params, optim, (toks[idx], classes[idx]), rng,
                              tc.class_dropout, tc.grad_clip)
            yield np.float64(loss)
            for p in params.parameters():
                yield p.data
                yield p.grad

    tiny = ModelConfig(hidden=32, heads=4, pass1_layers=2, pass2_layers=3,
                       shared_kv=False, dropout=0.2)
    print("train desk float32, %d steps: %s"
          % (args.steps, digest(train_arrays(ModelConfig(), np.float32, 32))))
    print("train tiny float64 unshared kv dropout, %d steps: %s"
          % (args.steps, digest(train_arrays(tiny, np.float64, 4))))

    params = ArpgParams.init(ModelConfig(), np.random.default_rng(0), np.float32)
    bases = make_dataset(ToyDatasetSpec(), args.requests, np.random.default_rng(3))
    parallel = DecodeConfig(steps=8, cfg_scale=3.0, top_k=8, top_p=0.9)
    sequential = DecodeConfig(steps=params.config.seq_len, temperature=0.0)

    def outputs(kind, r):
        sink: list = []
        cls = r % params.config.num_classes
        if kind == "generate_parallel":
            grid = generate(params, cls, replace(parallel, seed=r), state_sink=sink)
        elif kind == "generate_sequential":
            grid = generate(params, cls, replace(sequential, seed=r), state_sink=sink)
        elif kind == "inpaint":
            base = bases[r]
            known = np.random.default_rng([4, r]).random(base.tokens.shape) < 0.5
            known.flat[0] = True
            grid = inpaint(params, TokenGrid(base.tokens.copy(), base.class_id), known,
                           base.class_id, DecodeConfig(seed=r), state_sink=sink)
        else:
            mode = ("outpaint", "resolution")[r % 2]
            grid = expand(params, bases[r], 12, 12, mode, DecodeConfig(seed=r),
                          state_sink=sink)
        caches = sink[0].caches
        rows = [a[:c.length] for c in caches for li in range(params.config.pass1_layers)
                for a in c.layer_rows(li)]
        return [grid.tokens, sink[0].permutation] + rows + [
            a for c in caches for kv in c.out_kv() for a in kv]

    for kind in ("generate_parallel", "generate_sequential", "inpaint", "expand"):
        arrays = [a for r in range(args.requests) for a in outputs(kind, r)]
        print("%s, %d requests: %s" % (kind, args.requests, digest(arrays)))
    lines = 0
    for path in glob.glob(os.path.join(SRC, "arpg", "*.py")):
        with open(path, "rb") as f:
            lines += f.read().count(b"\n")
    print("src/arpg lines: %d" % lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
