"""Full-stack gate: exactness oracles, leakage, efficiency trend, learning.

Each check carries its tolerance and time budget inline; the desk training
run is shared by the learnability and pattern-ordering checks.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from arpg import numcore as nc
from arpg import model as md
from arpg import decoding as dec
from arpg.attention import attention_backward, attention_forward, causal_mask
from arpg.cli import run_bench
from arpg.decoding import DecodeConfig, TokenGrid, cache_scalar_count
from arpg.model import ArpgParams, ModelConfig, param_count
from arpg.ordering import DecodeSchedule, is_permutation, schedule_counts
from arpg.training import (ToyDatasetSpec, TrainConfig, evaluate,
                           make_dataset, masked_baseline_grad_demo,
                           train_loop, verify_grid)

TINY = dict(vocab_size=16, num_classes=4, hidden=32, heads=4,
            pass1_layers=2, pass2_layers=2, seq_len=16)


def tiny_params(seed=0, dtype=np.float32):
    return ArpgParams.init(ModelConfig(**TINY), np.random.default_rng(seed),
                           dtype)


@pytest.fixture(scope="module")
def desk_params():
    """Untrained desk-scale weights (hidden 128, 4+4 layers, 8x8 grid)."""
    return ArpgParams.init(ModelConfig(), np.random.default_rng(0))


@pytest.fixture(scope="module")
def desk_run():
    """The committed desk training run: defaults only, wall time recorded."""
    spec = ToyDatasetSpec()
    data = make_dataset(spec, 512, np.random.default_rng(0))
    params = ArpgParams.init(ModelConfig(), np.random.default_rng(0))
    t0 = time.perf_counter()
    _, history = train_loop(params, data, TrainConfig())
    wall_s = time.perf_counter() - t0
    return {"params": params, "spec": spec, "wall_s": wall_s,
            "history": history}


# ------------------------------------------------- gradient correctness

def test_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)

    # attention kernel against central differences
    q = rng.standard_normal((1, 2, 6, 4))
    k = rng.standard_normal((1, 2, 6, 4))
    v = rng.standard_normal((1, 2, 6, 4))
    w = rng.standard_normal((1, 2, 6, 4))
    mask = causal_mask(6)
    out, probs = attention_forward(q, k, v, mask)
    dq, dk, dv = attention_backward(q, k, v, probs, out, w)
    eps = 1e-6
    for arr, grad in ((q, dq), (k, dk), (v, dv)):
        for _ in range(8):
            idx = tuple(rng.integers(0, s) for s in arr.shape)
            saved = arr[idx]
            arr[idx] = saved + eps
            fp = float((attention_forward(q, k, v, mask)[0] * w).sum())
            arr[idx] = saved - eps
            fm = float((attention_forward(q, k, v, mask)[0] * w).sum())
            arr[idx] = saved
            num = (fp - fm) / (2 * eps)
            assert abs(grad[idx] - num) / max(abs(num), 1e-8) < 1e-3

    # full model loss against central differences on sampled coordinates
    params = tiny_params(seed=1, dtype=np.float64)
    ids = rng.integers(0, 16, 16)
    perm = rng.permutation(16) + 1
    cond = np.array([params.config.class_token(1)])

    def loss():
        logits, targets = md.forward_train_batch(params, ids[None], cond, perm[None])
        return nc.cross_entropy(nc.reshape(logits, (16, 16)), targets[0])

    def loss_val():
        return float(loss().data)

    loss().backward()
    tensors = [p for p in params.parameters()]
    checked = 0
    eps = 1e-5
    while checked < 24:
        t = tensors[int(rng.integers(0, len(tensors)))]
        flat = int(rng.integers(0, t.data.size))
        saved = t.data.flat[flat]
        t.data.flat[flat] = saved + eps
        fp = loss_val()
        t.data.flat[flat] = saved - eps
        fm = loss_val()
        t.data.flat[flat] = saved
        num = (fp - fm) / (2 * eps)
        if abs(num) < 1e-6:
            continue  # flat direction: relative error is meaningless
        ana = 0.0 if t.grad is None else t.grad.flat[flat]
        assert abs(ana - num) / abs(num) < 1e-3, \
            "%s[%d]: analytic %.3e vs numeric %.3e" % (t.name, flat, ana, num)
        checked += 1
    assert time.perf_counter() - t0 < 60.0


# ------------------------------------------------- sequential oracle

def test_engine_matches_sequential_oracle_bit_exact(desk_params):
    t0 = time.perf_counter()
    for seed in range(10):
        dc = DecodeConfig(steps=64, temperature=0.0, seed=seed)
        fast = dec.generate(desk_params, seed % 4, dc)
        slow = dec.sequential_reference_generate(desk_params, seed % 4, dc)
        assert np.array_equal(fast.tokens, slow.tokens), "seed %d" % seed
    assert time.perf_counter() - t0 < 30.0


# ------------------------------------------------- leakage

def test_future_slots_cannot_touch_past_logits():
    params = tiny_params(seed=2)
    rng = np.random.default_rng(3)
    cond = np.array([params.config.class_token(0)])
    with nc.no_grad():
        for _ in range(100):
            ids = rng.integers(0, 16, 16)
            perm = rng.permutation(16) + 1
            cut = int(rng.integers(1, 16))
            base, _ = md.forward_train_batch(params, ids[None], cond, perm[None])
            ids2 = ids.copy()
            for j in range(cut, 16):  # perturb shuffled slots >= cut
                ids2[perm[j] - 1] = (ids2[perm[j] - 1] + 1
                                     + rng.integers(0, 15)) % 16
            pert, _ = md.forward_train_batch(params, ids2[None], cond, perm[None])
            assert np.array_equal(base.data[0, :cut + 1], pert.data[0, :cut + 1])


def test_later_blocks_cannot_touch_earlier_block_logits():
    params = tiny_params(seed=4)
    rng = np.random.default_rng(5)
    counts = schedule_counts(DecodeSchedule("uniform", 4, 16))
    for trial in range(10):
        perm = rng.permutation(16) + 1
        ids = [rng.integers(0, 16, n) for n in counts]
        j = int(rng.integers(0, 4))
        ids_pert = [a.copy() for a in ids]
        ids_pert[j] = (ids_pert[j] + 1 + rng.integers(0, 15, ids_pert[j].size)) % 16

        def run(chunk_ids):
            cond = dec.KvCache(params.config, 17, params.dtype)
            md.forward_pass1(params, [params.config.class_token(1)], [0], cache=cond,
                             pattern="block_causal")
            logits, cursor = [], 0
            for n, cids in zip(counts, chunk_ids):
                chunk = perm[cursor:cursor + n]
                logits.append(md.forward_pass2(params, chunk, cond.out_kv()))
                md.forward_pass1(params, cids, chunk, cache=cond,
                                 pattern="block_causal")
                cursor += n
            return logits

        base, pert = run(ids), run(ids_pert)
        for b in range(j + 1):  # blocks up to and including j saw no change
            assert np.array_equal(base[b], pert[b]), \
                "trial %d block %d" % (trial, b)


# ------------------------------------------------- masked-query sparsity

def test_unmasked_rows_get_exact_zero_query_grads():
    for seed in range(10):
        report = masked_baseline_grad_demo(seed)
        for is_masked, dq in zip(report["masked"], report["dq_norms"]):
            if is_masked:
                assert dq > 0.0
            else:
                assert dq == 0.0


# ------------------------------------------------- coverage and schedules

def test_permutations_and_decodes_cover_every_cell():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        assert is_permutation(rng.permutation(64) + 1, 64)

    params = tiny_params(seed=7)
    kinds = ("arccos", "cosine", "uniform")
    for i in range(1000):
        dc = DecodeConfig(steps=int(rng.integers(1, 17)),
                          schedule=kinds[i % 3],
                          attention_pattern="causal" if i % 2 else "block_causal",
                          seed=i)
        sink: list = []
        grid = dec.generate(params, i % 4, dc, state_sink=sink)
        assert is_permutation(sink[0].permutation, 16)
        assert grid.tokens.shape == (4, 4)
        assert grid.tokens.min() >= 0 and grid.tokens.max() < 16


def test_schedule_counts_sum_to_total():
    for total in (16, 64, 256):
        for kind in ("arccos", "cosine", "uniform"):
            for steps in range(1, total + 1):
                counts = schedule_counts(DecodeSchedule(kind, steps, total))
                assert sum(counts) == total
                assert all(c >= 1 for c in counts)


# ------------------------------------------------- cache consistency

def test_cached_logits_match_rebuilt(desk_params):
    params = desk_params
    cfg = params.config
    rng = np.random.default_rng(8)
    with nc.no_grad():
        for trial in range(5):
            counts = schedule_counts(DecodeSchedule(
                ("arccos", "cosine", "uniform")[trial % 3],
                int(rng.integers(2, 12)), 64))
            perm = rng.permutation(64) + 1
            cond = dec.KvCache(cfg, 65, params.dtype)
            md.forward_pass1(params, [cfg.class_token(trial % 4)], [0], cache=cond)
            decoded_ids: list[int] = []
            decoded_pos: list[int] = []
            cursor = 0
            for n in counts:
                chunk = perm[cursor:cursor + n]
                cached = md.forward_pass2(params, chunk, cond.out_kv())
                fresh = dec.KvCache(cfg, 65, params.dtype)
                md.forward_pass1(params, [cfg.class_token(trial % 4)] + decoded_ids,
                                 [0] + decoded_pos, cache=fresh, pattern="causal")
                rebuilt = md.forward_pass2(params, chunk, fresh.out_kv())
                assert np.max(np.abs(cached - rebuilt)) <= 1e-5
                ids = rng.integers(0, 16, n)
                md.forward_pass1(params, ids, chunk, cache=cond,
                                 pattern="causal")
                decoded_ids += [int(x) for x in ids]
                decoded_pos += [int(p) for p in chunk]
                cursor += n


# ------------------------------------------------- efficiency trend

def test_fewer_steps_cut_wall_time(desk_params):
    t0 = time.perf_counter()
    report = run_bench(desk_params, steps_list=[8, 64],
                       patterns=("causal", "block_causal"),
                       batch=16, repeats=3, seed=0)
    by = {(r["pattern"], r["steps"]): r for r in report["rows"]}
    want = {s: cache_scalar_count(desk_params.config, 1 + 64 - schedule_counts(
        DecodeSchedule("arccos", s, 64))[-1]) for s in (8, 64)}
    for pattern in ("causal", "block_causal"):
        wall8 = by[(pattern, 8)]["wall_ms_mean"]
        wall64 = by[(pattern, 64)]["wall_ms_mean"]
        assert wall64 / wall8 >= 3.0, \
            "%s: %.1f ms at S=8 vs %.1f ms at S=64" % (pattern, wall8, wall64)
        assert by[(pattern, 8)]["cache_scalars"] == want[8]
        assert by[(pattern, 64)]["cache_scalars"] == want[64]
    assert time.perf_counter() - t0 < 300.0


# ------------------------------------------------- learnability

def test_desk_training_reaches_thresholds(desk_run):
    assert desk_run["wall_s"] < 600.0, \
        "training took %.0f s" % desk_run["wall_s"]
    params, spec = desk_run["params"], desk_run["spec"]
    heldout = make_dataset(spec, 128, np.random.default_rng(999))
    rep = evaluate(params, heldout, DecodeConfig(steps=8, seed=100), spec,
                   n_generate=48)
    assert rep["token_accuracy"] > 0.6, rep
    assert rep["validity"] > 0.5, rep  # chance for four classes is 0.25

    # editing keeps what it was given, bit for bit
    base = heldout[0]
    known = np.zeros((spec.grid_h, spec.grid_w), dtype=bool)
    known[::2] = True
    out = dec.inpaint(params, base, known, base.class_id,
                      DecodeConfig(steps=4, seed=9))
    assert np.array_equal(out.tokens[known], base.tokens[known])
    assert out.tokens.min() >= 0 and out.tokens.max() < 16


# ------------------------------------------------- parameter accounting

def test_parameter_accounting():
    cfg = ModelConfig()
    allocated = sum(p.data.size for p in
                    ArpgParams.init(cfg, np.random.default_rng(0)).parameters())
    assert allocated == param_count(cfg)
    delta = param_count(replace(cfg, shared_kv=False)) - param_count(cfg)
    assert delta == (cfg.pass2_layers - 1) * 2 * cfg.hidden * cfg.hidden

    big = ModelConfig(vocab_size=16384, num_classes=1000, hidden=1024,
                      heads=16, pass1_layers=12, pass2_layers=12, seq_len=256)
    assert abs(param_count(big) - 320e6) / 320e6 <= 0.05


# ------------------------------------------------- pattern ordering

def class_validity(params, spec, dc, n):
    hits = 0
    for i in range(n):
        cls = i % 4
        grid = dec.generate(params, cls, replace(dc, seed=dc.seed + i))
        hits += verify_grid(grid.tokens, spec) == cls
    return hits / n


def test_block_pattern_at_least_as_valid_at_low_steps(desk_run):
    params, spec = desk_run["params"], desk_run["spec"]
    for steps in (8, 16):
        wins = 0
        for trial in range(5):
            base = DecodeConfig(steps=steps, seed=2000 + 101 * trial)
            v_causal = class_validity(
                params, spec, replace(base, attention_pattern="causal"), 24)
            v_block = class_validity(
                params, spec, replace(base, attention_pattern="block_causal"), 24)
            wins += v_block >= v_causal
        assert wins >= 3, "S=%d: block pattern won %d/5" % (steps, wins)
