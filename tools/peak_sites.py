"""Print where one desk training step holds and peaks in memory.

    python tools/peak_sites.py [--batch 32] [--threads 2] [--seed 0] [--top 5]

After one warm-up step, one train_step of the desk config (float32, AdamW)
runs under tracemalloc with every tape node's backward wrapped in a probe.
One line per node, in the order backward() runs them: the op that recorded
it, the first weight among its inputs, its output shape, the memory held
when its backward starts and the peak inside it. The forward's peak, the
memory held when backward() starts, the step's peak and the largest sites
close the report. Figures are MB above the step's start as tracemalloc
counts them (numpy buffers and Python objects, not BLAS workspace), the way
`bench/run.py` measures `peak_mb`. BLAS threads are pinned before numpy
loads. The package is imported from the `src` directory next to this script.
"""

from __future__ import annotations

import argparse
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--batch", type=int, default=32, help="sequences per step")
    p.add_argument("--threads", type=int, default=2, help="BLAS threads")
    p.add_argument("--seed", type=int, default=0, help="init, data and step seed")
    p.add_argument("--top", type=int, default=5, help="largest sites listed last")
    args = p.parse_args(argv)
    if args.batch < 1 or args.threads < 1 or args.top < 0:
        p.error("--batch and --threads must be >= 1, --top >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.threads)
    sys.path.insert(0, SRC)
    import tracemalloc

    import numpy as np

    from arpg import (ArpgParams, ModelConfig, OptimState, ToyDatasetSpec, TrainConfig,
                      make_dataset, train_step)
    from arpg import numcore as nc
    from arpg.training import dataset_arrays

    tc = TrainConfig()
    params = ArpgParams.init(ModelConfig(), np.random.default_rng(args.seed), np.float32)
    optim = OptimState.init(params, tc.lr, (tc.beta1, tc.beta2), tc.weight_decay)
    toks, classes = dataset_arrays(make_dataset(ToyDatasetSpec(), 512,
                                                np.random.default_rng([args.seed, 0])))
    rng = np.random.default_rng([args.seed, 1])

    def step():
        idx = rng.integers(0, toks.shape[0], args.batch)
        train_step(params, optim, (toks[idx], classes[idx]), rng, tc.class_dropout,
                   tc.grad_clip)

    step()  # warm-up: lazily built tables are not the step's own
    sites: list[tuple[str, str, tuple, int, int]] = []
    forward_peak = [0]
    from_op = nc.from_op

    def probed(data, parents, backward):
        op = backward.__qualname__.split(".<locals>")[0]
        weight = next((p.name for p in parents if isinstance(p, nc.Parameter)), "-")
        shape = data.shape  # not data: the probe must hold no array

        def probe(g):
            entry, peak = tracemalloc.get_traced_memory()
            if not sites:
                forward_peak[0] = peak
            tracemalloc.reset_peak()
            grads = backward(g)
            sites.append((op, weight, shape, entry, tracemalloc.get_traced_memory()[1]))
            return grads
        return from_op(data, parents, probe)

    nc.from_op = probed
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step()
        step_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        nc.from_op = from_op

    def mb(n: int) -> str:
        return "%8.3f" % ((n - base) / 1e6)

    print("%3s  %-22s %-22s %-16s %8s %8s" % ("#", "op", "weight", "shape", "entry", "peak"))
    for i, (op, weight, shape, entry, peak) in enumerate(sites):
        print("%3d  %-22s %-22s %-16s %s %s" % (i, op, weight, "x".join(map(str, shape)),
                                                mb(entry), mb(peak)))
    print("forward peak: %s MB" % mb(forward_peak[0]).strip())
    print("held when backward() starts: %s MB" % mb(sites[0][3]).strip())
    step_peak = max(step_peak, forward_peak[0], *(s[4] for s in sites))
    print("step peak: %s MB" % mb(step_peak).strip())
    order = sorted(range(len(sites)), key=lambda i: -sites[i][4])[:args.top]
    for i in order:
        op, weight, _, _, peak = sites[i]
        print("site #%d %s (%s): %s MB" % (i, op, weight, mb(peak).strip()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
