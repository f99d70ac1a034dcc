"""Cache mechanics, sampling filters, CFG, the step loop, and the editing ops."""

import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arpg import attention as at
from arpg import decoding as dec
from arpg import model as md
from arpg.ordering import FIXED_ORDER_KINDS, DecodeSchedule, schedule_counts
from conftest import content_kv, filtered_sample_loop


def tiny_params(seed=0, dtype=np.float64, **kw):
    base = dict(vocab_size=16, num_classes=4, hidden=32, heads=4,
                pass1_layers=2, pass2_layers=2, seq_len=16)
    base.update(kw)
    cfg = md.ModelConfig(**base)
    return md.ArpgParams.init(cfg, np.random.default_rng(seed), dtype)


# ---------------------------------------------------------------- kv cache

def test_cache_length_after_condition():
    params = tiny_params()
    cache = dec.KvCache(params.config, 17, params.dtype)
    assert cache.length == 0
    md.forward_pass1(params, [params.config.class_token(0)], [0], cache=cache)
    assert cache.length == 1


def test_cache_append_never_mutates():
    params = tiny_params(seed=1)
    cache = dec.KvCache(params.config, 17, params.dtype)
    md.forward_pass1(params, [params.config.class_token(1)], [0], cache=cache)
    before = [tuple(np.array(b) for b in kv) for kv in cache.out_kv()]
    md.forward_pass1(params, [3, 7, 1], [2, 9, 5], cache=cache)
    for s, (k0, v0) in enumerate(before):
        k1, v1 = cache.out_kv()[s]
        assert np.array_equal(k1[:1], k0)
        assert np.array_equal(v1[:1], v0)


def test_cache_overflow_is_contract_error():
    params = tiny_params()
    cache = dec.KvCache(params.config, 2, params.dtype)
    md.forward_pass1(params, [params.config.class_token(0)], [0], cache=cache)
    md.forward_pass1(params, [5], [3], cache=cache)
    with pytest.raises(RuntimeError):
        md.forward_pass1(params, [6], [4], cache=cache)


def test_cache_stream_count_and_index_are_checked():
    cfg = tiny_params().config
    for streams in (0, -1):
        with pytest.raises(ValueError):
            dec.KvCache(cfg, 5, streams=streams)
    cache = dec.KvCache(cfg, 5, streams=2)
    for s in (2, -1, 3):
        with pytest.raises(IndexError):
            cache.stream(s)
    for s in (0, 1):
        assert cache.stream(s)._k[cfg.pass1_layers].shape == (5, cfg.heads, cfg.head_dim)


def test_unfilled_layer_rows_are_zero():
    # the content pass attends over whole layer buffers; their rows past the
    # fill must hold zeros, not np.empty garbage, and so do the outgoing ones
    params = tiny_params(seed=12, dtype=np.float32)
    cfg = params.config
    cache = dec.KvCache(cfg, 17, params.dtype, streams=2)
    n_out = 1 if cfg.shared_kv else cfg.pass2_layers
    assert len(cache._k) == len(cache._v) == cfg.pass1_layers + n_out
    assert not any(b.any() for b in cache._k + cache._v)
    md.forward_pass1(params, np.array([[cfg.class_token(0)], [cfg.null_class_token]]), [0],
                     cache=cache)
    md.forward_pass1(params, [3, 7, 1], [2, 9, 5], cache=cache)
    for buf in cache._k + cache._v:
        assert buf.shape == (17, 2 * cfg.heads, cfg.head_dim)
        assert buf[:4].all(axis=(1, 2)).all() and not buf[4:].any()


def test_wide_prefill_scores_stay_within_the_block_bound(monkeypatch):
    # a content pass of 400 rows against a 577-row cache: attention_rows
    # scores at most ROWS_BLOCK entries at once, so besides its result it
    # holds about two blocks (the scores and numpy's broadcasting buffers),
    # not the [m, H, C] scores of the whole call
    params = tiny_params(seed=13, dtype=np.float32)
    cfg = params.config
    assert cfg.heads * 577 <= at.ROWS_BLOCK  # a block holds at least one whole row
    calls = []
    rows = md.attention_rows

    def traced(q, k, *args):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = rows(q, k, *args)
        calls.append((q.shape[0] * k.shape[0] * k.shape[1],
                      tracemalloc.get_traced_memory()[1] - base - out.nbytes))
        return out
    monkeypatch.setattr(md, "attention_rows", traced)
    ids = np.random.default_rng(14).integers(0, 16, 400)
    cache = dec.KvCache(cfg, 577, params.dtype)
    md.forward_pass1(params, [cfg.class_token(1)], [0], cache)
    tracemalloc.start()
    try:
        md.forward_pass1(params, ids, np.arange(1, 401), cache)
    finally:
        tracemalloc.stop()
    assert max(scores for scores, _ in calls) >= 40 * at.ROWS_BLOCK
    assert max(held for _, held in calls) <= 3 * at.ROWS_BLOCK * 4


@pytest.mark.parametrize("cfg_scale", [1.0, 3.0])
def test_prefill_feeds_at_most_prefill_rows_per_content_pass(monkeypatch, cfg_scale):
    # expanding a 20 x 20 grid to 24 x 24 prefills 400 known cells; they
    # reach the content pass in their given order, PREFILL_ROWS rows (over
    # both CFG streams) at a time
    params = tiny_params(seed=13, dtype=np.float32)
    passes = []
    pass1 = md.forward_pass1

    def traced(params, ids, positions, cache, pattern="causal"):
        passes.append((np.asarray(positions), cache.streams, pattern))
        return pass1(params, ids, positions, cache, pattern)
    monkeypatch.setattr(md, "forward_pass1", traced)
    base = dec.TokenGrid(np.random.default_rng(14).integers(0, 16, (20, 20)), 1)
    dc = dec.DecodeConfig(steps=2, seed=3, cfg_scale=cfg_scale)
    dec.expand(params, base, 24, 24, "outpaint", dc)
    known = dec.expand_layout((20, 20), 24, 24, "outpaint", dc) + 1
    prefill = [p for p in passes if np.isin(p[0], known).all()]
    assert np.array_equal(np.concatenate([pos for pos, _, _ in prefill]), known)
    streams = 2 if cfg_scale != 1.0 else 1
    assert all(s == streams and pattern == "causal" for _, s, pattern in prefill)
    assert max(pos.size * s for pos, s, _ in prefill) == dec.PREFILL_ROWS
    assert len(prefill) == -(-400 * streams // dec.PREFILL_ROWS)


def test_cache_scalar_count_closed_form():
    for shared, p2 in ((True, 2), (False, 3)):
        cfg = md.ModelConfig(vocab_size=16, num_classes=4, hidden=32, heads=4,
                             pass1_layers=2, pass2_layers=p2, seq_len=16,
                             shared_kv=shared)
        cache = dec.KvCache(cfg, 1 + cfg.seq_len)
        assert cache.scalar_count() == dec.cache_scalar_count(cfg, 1 + cfg.seq_len)
    cfg = md.ModelConfig()
    streams = cfg.pass1_layers + 1
    assert dec.cache_scalar_count(cfg, 65) == streams * 2 * cfg.hidden * 65


def test_cache_vs_rebuild_logits_on_trajectory():
    # three chunked steps against the cache vs a from-scratch content pass
    params = tiny_params(seed=2)
    rng = np.random.default_rng(3)
    cache = dec.KvCache(params.config, 17, params.dtype)
    cond = params.config.class_token(2)
    md.forward_pass1(params, [cond], [0], cache=cache)
    fed_ids, fed_pos = [cond], [0]
    perm = rng.permutation(16) + 1
    cursor = 0
    for n in (5, 4, 3):
        chunk = perm[cursor:cursor + n]
        cursor += n
        queries = perm[cursor:cursor + 2]
        ids = rng.integers(0, 16, n)
        md.forward_pass1(params, ids, chunk, cache=cache)
        fed_ids += list(ids)
        fed_pos += list(chunk)
        cached = md.forward_pass2(params, queries, cache.out_kv())
        rebuilt = md.forward_pass2(params, queries, content_kv(params, fed_ids, fed_pos))
        assert np.array_equal(cached, rebuilt)


def test_block_causal_chunk_kv_differs_but_s_equals_t_invariant():
    params = tiny_params(seed=4)
    ids = np.array([3, 1, 9])
    pos = np.array([2, 7, 5])
    cache_c = dec.KvCache(params.config, 17, params.dtype)
    cache_b = dec.KvCache(params.config, 17, params.dtype)
    cond = params.config.class_token(0)
    md.forward_pass1(params, [cond], [0], cache=cache_c)
    md.forward_pass1(params, [cond], [0], cache=cache_b)
    md.forward_pass1(params, ids, pos, cache=cache_c, pattern="causal")
    md.forward_pass1(params, ids, pos, cache=cache_b, pattern="block_causal")
    assert not np.array_equal(cache_c.out_kv()[0][0], cache_b.out_kv()[0][0])

    dc_c = dec.DecodeConfig(steps=16, temperature=0.0, seed=11)
    dc_b = dec.DecodeConfig(steps=16, temperature=0.0, seed=11,
                            attention_pattern="block_causal")
    a = dec.generate(params, 1, dc_c)
    b = dec.generate(params, 1, dc_b)
    assert np.array_equal(a.tokens, b.tokens)


def cache_arrays(cache, config):
    """Every filled buffer of a one-stream cache: per-layer k, v, then out k, v."""
    out = [a[:cache.length] for li in range(config.pass1_layers) for a in cache.layer_rows(li)]
    return out + [a for kv in cache.out_kv() for a in kv]


def assert_bits_equal(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


@settings(derandomize=True, max_examples=80, deadline=None)
@given(cuts=st.lists(st.integers(1, 6), min_size=1, max_size=5),
       prefill=st.integers(0, 6), pattern=st.sampled_from(dec.ATTENTION_PATTERNS),
       shared=st.booleans(), layers=st.sampled_from([0, 2]),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**16))
def test_two_stream_pass_equals_two_one_stream_passes(cuts, prefill, pattern, shared,
                                                      layers, dtype, seed):
    # one content pass over both CFG streams against a separate pass per
    # stream: condition rows, an optional causal prefill with its own ids per
    # stream, then chunks whose ids both streams share
    params = tiny_params(seed=seed % 7, dtype=dtype, pass1_layers=layers,
                         pass2_layers=3, shared_kv=shared)
    cfg = params.config
    rng = np.random.default_rng(seed)
    bounds = np.cumsum([0, prefill] + cuts)
    bounds = bounds[bounds <= cfg.seq_len]
    pos = rng.permutation(cfg.seq_len) + 1
    ids = rng.integers(0, cfg.vocab_size, (2, cfg.seq_len))
    conds = [cfg.class_token(int(rng.integers(cfg.num_classes))), cfg.null_class_token]
    joint = dec.KvCache(cfg, 1 + cfg.seq_len, params.dtype, streams=2)
    singles = [dec.KvCache(cfg, 1 + cfg.seq_len, params.dtype) for _ in conds]
    md.forward_pass1(params, np.array(conds)[:, None], [0], cache=joint, pattern=pattern)
    for cond, cache in zip(conds, singles):
        md.forward_pass1(params, [cond], [0], cache=cache, pattern=pattern)
    for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        if a == b:  # no prefill
            continue
        if i == 0 and prefill:
            md.forward_pass1(params, ids[:, a:b], pos[a:b], cache=joint)
            for s, cache in enumerate(singles):
                md.forward_pass1(params, ids[s, a:b], pos[a:b], cache=cache)
            continue
        for cache in [joint] + singles:
            md.forward_pass1(params, ids[0, a:b], pos[a:b], cache=cache, pattern=pattern)
    for s, single in enumerate(singles):
        view = joint.stream(s)
        assert view.length == single.length == 1 + bounds[-1]
        for got, want in zip(cache_arrays(view, cfg), cache_arrays(single, cfg), strict=True):
            assert_bits_equal(got, want)


def test_cfg_streams_are_isolated_and_counted_once():
    params = tiny_params(seed=6, dtype=np.float32, shared_kv=False)
    cfg = params.config
    sink = []
    dec.generate(params, 2, dec.DecodeConfig(steps=5, cfg_scale=3.0), sink)
    caches = sink[0].caches
    one = dec.cache_scalar_count(cfg, 1 + cfg.seq_len - schedule_counts(
        DecodeSchedule("arccos", 5, cfg.seq_len))[-1])
    assert sum(c.scalar_count() for c in caches) == 2 * one
    for cache in caches:  # the arrays a cache's attributes list, as bench sums them
        arrays = [b for v in vars(cache).values() if isinstance(v, list)
                  for b in v if isinstance(b, np.ndarray)]
        assert sum(b.nbytes for b in arrays) == one * params.dtype.itemsize
    # a write through one stream's buffers never shows in the other's
    for written, other in (caches, caches[::-1]):
        kept = [np.array(a) for a in cache_arrays(other, cfg)]
        for a in cache_arrays(written, cfg):
            a[...] = np.nan
        assert all(np.isnan(a).all() for a in cache_arrays(written, cfg))
        for got, want in zip(cache_arrays(other, cfg), kept, strict=True):
            assert_bits_equal(got, want)
    with pytest.raises(RuntimeError, match="read-only"):
        md.forward_pass1(params, [3], [5], cache=caches[0])


# ---------------------------------------------------------------- cfg + sampling

def test_cfg_combine_anchors_and_closed_form():
    cond = np.array([[2.0, 0.0]])
    uncond = np.array([[1.0, 0.0]])
    assert dec.cfg_combine(cond, uncond, 1.0) is cond
    assert dec.cfg_combine(cond, uncond, 0.0) is uncond
    assert np.array_equal(dec.cfg_combine(cond, uncond, 3.0), [[4.0, 0.0]])
    with pytest.raises(ValueError):
        dec.cfg_combine(cond, np.zeros((2, 2)), 2.0)


def test_sample_tokens_one_hot_and_greedy():
    rng = np.random.default_rng(0)
    logits = np.full((3, 8), -40.0)
    logits[0, 5] = 40.0
    logits[1, 0] = 40.0
    logits[2, 7] = 40.0
    assert list(dec.sample_tokens(logits, 1.0, None, 1.0, rng)) == [5, 0, 7]
    assert list(dec.sample_tokens(logits, 0.0)) == [5, 0, 7]
    assert list(dec.sample_tokens(logits, 1.0, 1, 1.0, rng)) == [5, 0, 7]


def test_sample_tokens_plain_categorical_frequencies():
    rng = np.random.default_rng(1)
    logits = np.log(np.array([[0.5, 0.3, 0.2]])).repeat(4000, axis=0)
    draws = dec.sample_tokens(logits, 1.0, None, 1.0, rng)
    freq = np.bincount(draws, minlength=3) / 4000
    assert np.abs(freq - [0.5, 0.3, 0.2]).max() < 0.03


def test_sample_tokens_nucleus_support():
    rng = np.random.default_rng(2)
    logits = np.log(np.array([4.0, 2.0, 1.0, 1.0]))[None].repeat(3000, axis=0)
    draws = dec.sample_tokens(logits, 1.0, None, 0.75, rng)
    assert set(draws) == {0, 1}
    freq = np.bincount(draws, minlength=2) / 3000
    assert np.abs(freq - [2 / 3, 1 / 3]).max() < 0.03


def test_sample_tokens_top_k_truncates():
    rng = np.random.default_rng(3)
    logits = np.log(np.array([[0.4, 0.3, 0.2, 0.1]])).repeat(2000, axis=0)
    draws = dec.sample_tokens(logits, 1.0, 2, 1.0, rng)
    assert set(draws) == {0, 1}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rows=st.integers(1, 25), vocab=st.integers(2, 39), ties=st.booleans(),
       top_k=st.none() | st.integers(1, 42),
       top_p=st.sampled_from([1.0, 1 - 1e-9]) | st.floats(1e-3, 1 - 1e-9),
       temperature=st.sampled_from([0.25, 1.0, 3.0]),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**16))
def test_filtered_sample_matches_the_row_loop(rows, vocab, ties, top_k, top_p,
                                              temperature, dtype, seed):
    # the whole-array filtered draw against the per-row loop: same ids, and
    # the rng left in the same state; top_k runs past the vocab, and tied
    # logits test the stable sort
    if top_k is None and top_p == 1.0:
        top_k = vocab
    rng = np.random.default_rng(seed)
    logits = (rng.integers(-2, 3, (rows, vocab)) if ties
              else 4 * rng.standard_normal((rows, vocab))).astype(dtype)
    got_rng, want_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    got = dec.sample_tokens(logits, temperature, top_k, top_p, got_rng)
    want = filtered_sample_loop(logits, temperature, top_k, top_p, want_rng)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_sample_tokens_rejects_non_finite_rows():
    logits = np.zeros((3, 8))
    logits[1] = np.nan
    for kw in ({}, {"top_k": 4, "top_p": 0.9}, {"temperature": 0.0}):
        with pytest.raises(RuntimeError, match="row 1"):
            dec.sample_tokens(logits, rng=np.random.default_rng(0), **kw)
    one = np.zeros((3, 8))
    one[2, 5] = np.nan
    with pytest.raises(RuntimeError, match="row 2"):
        dec.sample_tokens(one, rng=np.random.default_rng(0))


@pytest.mark.parametrize("kw", [{}, {"top_k": 4}, {"top_p": 0.9}, {"temperature": 0.5}])
def test_sample_tokens_without_rng_draws_only_at_temperature_zero(kw):
    # the unfiltered and the filtered branch both need an rng to draw
    logits = np.random.default_rng(2).standard_normal((3, 8))
    with pytest.raises(ValueError, match="needs an rng"):
        dec.sample_tokens(logits, **kw)
    greedy = dec.sample_tokens(logits, **dict(kw, temperature=0.0))
    assert np.array_equal(greedy, logits.argmax(axis=-1))


def test_non_finite_logits_name_step_and_grid_position(monkeypatch):
    # raster order, 4 uniform steps of 4: position 7 (grid cell (1, 2)) is row
    # 2 of step 2
    params = tiny_params(seed=3)
    forward_pass2 = md.forward_pass2

    def poisoned(params, positions, kv):
        logits = forward_pass2(params, positions, kv)
        logits[np.asarray(positions) == 7] = np.nan
        return logits
    monkeypatch.setattr(md, "forward_pass2", poisoned)
    dc = dec.DecodeConfig(steps=4, schedule="uniform", order="raster")
    with pytest.raises(dec.NonFiniteLogits,
                       match=r"step 2 of 4, grid position \(1, 2\) \(row 2 of"):
        dec.generate(params, 0, dc)


def test_decode_config_validation():
    with pytest.raises(ValueError):
        dec.DecodeConfig(steps=0)
    with pytest.raises(ValueError):
        dec.DecodeConfig(temperature=-0.1)
    with pytest.raises(ValueError):
        dec.DecodeConfig(top_p=0.0)
    with pytest.raises(ValueError):
        dec.DecodeConfig(top_k=0)
    with pytest.raises(ValueError):
        dec.DecodeConfig(attention_pattern="full")
    for field in ("order", "schedule", "cfg_schedule"):
        with pytest.raises(ValueError, match="%s must be one of" % field):
            dec.DecodeConfig(**{field: "bogus"})
    for field in ("steps", "seed", "top_k", "grid_h", "grid_w"):
        for bad in (2.5, True):
            with pytest.raises(ValueError, match="%s must be an integer" % field):
                dec.DecodeConfig(**{field: bad})
    for field in ("steps", "seed"):
        with pytest.raises(ValueError, match="%s must be an integer" % field):
            dec.DecodeConfig(**{field: None})
    with pytest.raises(ValueError, match="seed must be an integer >= 0, got -1"):
        dec.DecodeConfig(seed=-1)  # numpy would reject it only when the decode starts
    for field in ("temperature", "cfg_scale"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="must be finite"):
                dec.DecodeConfig(**{field: bad})
    dc = dec.DecodeConfig(steps=np.int64(4), seed=np.int64(1), top_k=np.int64(3))
    assert (dc.steps, dc.seed, dc.top_k) == (4, 1, 3)


# ---------------------------------------------------------------- generate

def test_generate_deterministic_and_covering():
    params = tiny_params(seed=5, dtype=np.float32)
    dc = dec.DecodeConfig(steps=5, seed=9)
    a = dec.generate(params, 3, dc)
    b = dec.generate(params, 3, dc)
    assert np.array_equal(a.tokens, b.tokens)
    assert a.tokens.shape == (4, 4)
    assert a.tokens.min() >= 0 and a.tokens.max() < 16
    c = dec.generate(params, 3, dec.DecodeConfig(steps=5, seed=10))
    assert not np.array_equal(a.tokens, c.tokens)


def test_generate_matches_sequential_oracle():
    for params in (tiny_params(seed=6), tiny_params(seed=6, pass1_layers=0)):
        for seed in (0, 1, 2):
            dc = dec.DecodeConfig(steps=16, temperature=0.0, seed=seed)
            fast = dec.generate(params, seed % 4, dc)
            slow = dec.sequential_reference_generate(params, seed % 4, dc)
            assert np.array_equal(fast.tokens, slow.tokens)


def test_generate_matches_oracle_with_cfg_and_sampling():
    params = tiny_params(seed=7)
    dc = dec.DecodeConfig(steps=16, seed=4, cfg_scale=3.0, top_p=0.9)
    fast = dec.generate(params, 1, dc)
    slow = dec.sequential_reference_generate(params, 1, dc)
    assert np.array_equal(fast.tokens, slow.tokens)


def test_generate_cfg_schedule_anchors():
    params = tiny_params(seed=8)
    base = dec.generate(params, 2, dec.DecodeConfig(steps=4, temperature=0.0, seed=1))
    w1 = dec.generate(params, 2, dec.DecodeConfig(steps=4, temperature=0.0, seed=1,
                                                  cfg_schedule="constant",
                                                  cfg_scale=1.0))
    assert np.array_equal(base.tokens, w1.tokens)
    guided = dec.generate(params, 2, dec.DecodeConfig(steps=4, temperature=0.0,
                                                      seed=1, cfg_scale=8.0))
    assert not np.array_equal(base.tokens, guided.tokens)


# Oracles written apart from the decode loop: each restates one part of the
# request (order, CFG condition, CFG scale) from the config alone.

def test_random_order_is_the_seeded_permutation():
    # generate decodes rng.permutation(T) + 1 of the decode seed's rng; an
    # inpaint decodes its cells left in raster order, permuted by that draw
    params = tiny_params(seed=3, dtype=np.float32)
    total = params.config.seq_len
    known = np.array([0, 5, 6, 15])
    left = np.setdiff1d(np.arange(total), known)
    partial = dec.TokenGrid(np.zeros((4, 4), dtype=np.int64), 1)
    for seed in (0, 1, 5):
        dc = dec.DecodeConfig(steps=4, seed=seed)
        sink = []
        dec.generate(params, 1, dc, sink)
        dec.inpaint(params, partial, known, 1, dc, sink)
        want = np.random.default_rng(seed).permutation(total) + 1
        assert np.array_equal(sink[0].permutation, want)
        draw = np.random.default_rng(seed).permutation(left.size)
        assert np.array_equal(sink[1].permutation, left[draw] + 1)


def test_random_order_first_cell_is_uniform():
    # over 1,600 decode seeds the cell generate decodes first is a uniform draw
    # over the 16 cells: at this fixed seed set the chi-square statistic (15
    # degrees of freedom) stays under 37.70, its 0.1% tail bound. A raster
    # order starts at cell 0 every time and fails the bound at 32 seeds
    params = tiny_params(seed=4, hidden=16, heads=2, pass1_layers=1, pass2_layers=1)
    total = params.config.seq_len

    def chi_square(order, seeds):
        first = []
        for seed in seeds:
            sink = []
            dec.generate(params, 0, dec.DecodeConfig(steps=1, order=order, seed=seed), sink)
            first.append(sink[0].permutation[0] - 1)
        counts = np.bincount(first, minlength=total)
        expected = len(seeds) / total
        return float(((counts - expected) ** 2 / expected).sum())

    assert chi_square("random", range(1600)) < 37.70
    assert chi_square("raster", range(32)) > 37.70


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shared", [True, False])
def test_cfg_streams_feed_the_class_and_the_null_class(dtype, shared):
    # each stream's cache equals one causal pass of a fresh one-stream cache
    # over its condition, then the sampled tokens at their positions
    params = tiny_params(seed=4, dtype=dtype, shared_kv=shared)
    cfg = params.config
    sink = []
    dec.generate(params, 2, dec.DecodeConfig(steps=5, cfg_scale=3.0, seed=6), sink)
    state = sink[0]
    width = state.caches[0].capacity
    pos = np.concatenate([[0], state.permutation[:width - 1]])
    for cond, got in zip((cfg.class_token(2), cfg.null_class_token), state.caches, strict=True):
        want = dec.KvCache(cfg, width, params.dtype)
        md.forward_pass1(params, np.concatenate([[cond], state.tokens[:width - 1]]), pos, want)
        assert got.length == want.length == width
        for a, b in zip(cache_arrays(got, cfg), cache_arrays(want, cfg), strict=True):
            assert_bits_equal(a, b)


@pytest.mark.parametrize("steps", [5, 3])
def test_cfg_scale_ramps_with_the_cells_decoded_before_each_step(monkeypatch, steps):
    # linear ramp: a step after d of T cells decoded guides at 1 + (s - 1) * d / T
    params = tiny_params(seed=5, dtype=np.float32)
    total = params.config.seq_len
    combine, seen = dec.cfg_combine, []

    def recording(cond, uncond, scale):
        seen.append(scale)
        return combine(cond, uncond, scale)
    monkeypatch.setattr(dec, "cfg_combine", recording)
    dec.generate(params, 1, dec.DecodeConfig(steps=steps, cfg_scale=2.5, seed=2))
    decoded = np.cumsum([0] + schedule_counts(DecodeSchedule("arccos", steps, total))[:-1])
    np.testing.assert_allclose(seen, 1 + (2.5 - 1) * decoded / total, rtol=1e-15)
    if steps == 5:
        assert seen == [1.0, 1.1875, 1.375, 1.65625, 1.84375]


def test_generate_fixed_order_deterministic():
    params = tiny_params(seed=9, dtype=np.float32)
    dc = dec.DecodeConfig(steps=4, order="spiral_in", seed=2)
    a = dec.generate(params, 0, dc)
    b = dec.generate(params, 0, dc)
    assert np.array_equal(a.tokens, b.tokens)
    assert a.tokens.min() >= 0 and a.tokens.max() < 16


def test_generate_rejects_bad_grid_or_class():
    params = tiny_params()
    with pytest.raises(ValueError):
        dec.generate(params, 9, dec.DecodeConfig(steps=4))
    with pytest.raises(ValueError):
        dec.generate(params, 0, dec.DecodeConfig(steps=4, grid_h=3, grid_w=5))
    for h, w in ((-4, -4), (-2, -8)):  # the product is seq_len, the sides are not
        with pytest.raises(ValueError, match="got %d and %d" % (h, w)):
            dec.generate(params, 0, dec.DecodeConfig(steps=4, grid_h=h, grid_w=w))
    with pytest.raises(ValueError):
        dec.generate(params, 0, dec.DecodeConfig(steps=17))


# Golden decodes: literal grids and decode orders for S < T and the edit
# paths, which no bit-exact oracle covers.
GOLDEN_PARTIAL = dec.TokenGrid(np.array([[14, 6, 3, 11], [13, 4, 5, 1],
                                         [15, 15, 11, 9], [9, 10, 11, 9]]), 3)
GOLDEN_KNOWN = np.array([[1, 1, 1, 0], [0, 0, 0, 1],
                         [0, 0, 0, 0], [1, 0, 0, 1]], dtype=bool)
# The CFG edit cases prefill both streams. They run on weights drawn wide
# enough that the unconditional stream moves the samples: at the default
# init_std a wrong unconditional prefill leaves these grids unchanged.
GOLDEN_CFG_PARAMS = md.ArpgParams.init(tiny_params().config, np.random.default_rng(17),
                                       np.float64, init_std=0.3)
GOLDEN = {
    "generate_random_cfg_topk_topp": (
        lambda p, sink: dec.generate(
            p, 1, dec.DecodeConfig(steps=5, cfg_scale=3.0, top_k=8, top_p=0.9,
                                   seed=21), sink),
        [[6, 4, 13, 1], [6, 11, 9, 10], [15, 3, 14, 13], [8, 10, 7, 6]],
        [5, 10, 7, 13, 8, 12, 1, 6, 2, 9, 15, 14, 11, 4, 16, 3]),
    "generate_spiral_block_causal": (
        lambda p, sink: dec.generate(
            p, 2, dec.DecodeConfig(steps=5, order="spiral_in",
                                   attention_pattern="block_causal", seed=3), sink),
        [[1, 3, 12, 9], [8, 7, 9, 1], [5, 15, 12, 7], [2, 11, 2, 7]],
        [1, 2, 3, 4, 8, 12, 16, 15, 14, 13, 9, 5, 6, 7, 11, 10]),
    "inpaint_random_mask": (
        lambda p, sink: dec.inpaint(p, GOLDEN_PARTIAL, GOLDEN_KNOWN, 3,
                                    dec.DecodeConfig(steps=4, seed=5), sink),
        [[14, 6, 3, 15], [15, 4, 10, 1], [6, 13, 0, 0], [9, 6, 14, 9]],
        [12, 11, 5, 7, 6, 9, 4, 15, 10, 14]),
    "expand_outpaint": (
        lambda p, sink: dec.expand(p, GOLDEN_PARTIAL, 6, 7, "outpaint",
                                   dec.DecodeConfig(steps=6, seed=8), sink),
        [[14, 6, 3, 11, 0, 1, 0], [13, 4, 5, 1, 10, 3, 14],
         [15, 15, 11, 9, 7, 6, 9], [9, 10, 11, 9, 9, 4, 9],
         [5, 6, 10, 2, 6, 3, 5], [3, 15, 2, 7, 14, 6, 11]],
        [41, 34, 28, 21, 31, 40, 32, 30, 27, 5, 36, 33, 20, 12, 39, 26, 13,
         38, 29, 6, 35, 19, 42, 14, 7, 37]),
    "expand_resolution": (
        lambda p, sink: dec.expand(p, GOLDEN_PARTIAL, 6, 7, "resolution",
                                   dec.DecodeConfig(steps=6, seed=8), sink),
        [[0, 1, 0, 9, 3, 13, 7], [6, 14, 6, 3, 11, 9, 9],
         [4, 13, 4, 5, 1, 9, 5], [5, 15, 15, 11, 9, 10, 2],
         [6, 9, 10, 11, 9, 3, 5], [3, 15, 2, 7, 14, 6, 11]],
        [41, 34, 20, 13, 27, 40, 28, 22, 15, 1, 36, 29, 8, 4, 39, 14, 5, 38,
         21, 2, 35, 7, 42, 6, 3, 37]),
    "inpaint_cfg_topk_topp": (
        lambda p, sink: dec.inpaint(GOLDEN_CFG_PARAMS, GOLDEN_PARTIAL, GOLDEN_KNOWN, 3,
                                    dec.DecodeConfig(steps=4, cfg_scale=3.0, top_k=8,
                                                     top_p=0.9, seed=5), sink),
        [[14, 6, 3, 6], [9, 14, 14, 1], [12, 14, 11, 14], [9, 2, 3, 9]],
        [12, 11, 5, 7, 6, 9, 4, 15, 10, 14]),
    "expand_resolution_cfg": (
        lambda p, sink: dec.expand(GOLDEN_CFG_PARAMS, GOLDEN_PARTIAL, 6, 7, "resolution",
                                   dec.DecodeConfig(steps=6, cfg_scale=3.0,
                                                    cfg_schedule="constant", seed=8), sink),
        [[0, 7, 0, 3, 11, 12, 7], [15, 14, 6, 3, 11, 11, 15],
         [6, 13, 4, 5, 1, 2, 2], [6, 15, 15, 11, 9, 14, 1],
         [11, 9, 10, 11, 9, 6, 2], [15, 14, 2, 2, 14, 6, 15]],
        [41, 34, 20, 13, 27, 40, 28, 22, 15, 1, 36, 29, 8, 4, 39, 14, 5, 38,
         21, 2, 35, 7, 42, 6, 3, 37]),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_decode_golden(case):
    run, want_grid, want_perm = GOLDEN[case]
    sink = []
    out = run(tiny_params(seed=17), sink)
    assert out.tokens.tolist() == want_grid
    assert sink[0].permutation.tolist() == want_perm
    assert np.array_equal(sink[0].tokens, out.flat[sink[0].permutation - 1])


# The cache rows that the float64 CFG generate golden leaves for its queries
# (the last chunk is never fed): out_kv() k and v of each stream (cond, then
# uncond), every row projected onto one fixed random [H, hd] matrix. Sampled
# ids rarely move when the rows drift in their last bits; these values do.
GOLDEN_CACHE_ROWS = [
    [0.09150630925005875, -0.392191754875782, 0.6940252084572085, -0.20809501435939257,
     -0.30204674462725295, -0.3038098278959297, -0.08881315282798208,
     -0.40916319981384996, 0.9502020049533852, 0.7842240430957881],
    [-0.25693972954967254, 1.0214944600560663, 0.6876111614468665, 0.2965941706539576,
     0.5408184490237282, 0.7373464791099802, -0.24498380682903, 1.038325355880493,
     -0.7589134649537344, -0.4315495821207602],
    [0.2822616716720082, -0.5142035112772002, 0.5429633832907212, -0.2805888127862969,
     -0.3586349483040143, -0.30882044092869465, -0.12597553323366628,
     -0.40549158502400273, 0.9239963156343978, 0.7829069658862182],
    [0.21913144593823902, 0.9226625850106922, 0.6842598052246589, 0.35056451143118483,
     0.570607377148191, 0.7850244864850104, -0.18744667995284187, 1.0393863141337163,
     -0.7169175729239525, -0.3828200189229474],
]


def test_decode_golden_cache_rows():
    sink = []
    GOLDEN["generate_random_cfg_topk_topp"][0](tiny_params(seed=17), sink)
    w = np.random.default_rng(0).standard_normal((4, 8))
    got = [np.einsum("lhd,hd->l", a, w) for c in sink[0].caches for a in c.out_kv()[0]]
    np.testing.assert_allclose(got, GOLDEN_CACHE_ROWS, rtol=1e-12, atol=0)


# ---------------------------------------------------------------- editing

INPAINT_PARAMS = tiny_params(seed=10, dtype=np.float32)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(shape=st.sampled_from([(4, 4), (2, 8), (8, 2)]), bits=st.integers(1, 2**16 - 1),
       as_indices=st.booleans(), pattern=st.sampled_from(dec.ATTENTION_PATTERNS),
       steps=st.integers(1, 16), cfg=st.booleans(), seed=st.integers(0, 2**16))
def test_inpaint_preserves_known(shape, bits, as_indices, pattern, steps, cfg, seed):
    # any non-empty known set, as a boolean grid or flat indices; the square
    # grid takes the default shape, the others set grid_h/grid_w
    rng = np.random.default_rng(seed)
    grid = dec.TokenGrid(rng.integers(0, 16, shape), 1)
    known = ((bits >> np.arange(16)) & 1).astype(bool).reshape(shape)
    grid_h, grid_w = (None, None) if shape == (4, 4) else shape
    guide = dict(cfg_scale=3.0, top_k=8, top_p=0.9) if cfg else {}
    dc = dec.DecodeConfig(steps=steps, attention_pattern=pattern, seed=seed,
                          grid_h=grid_h, grid_w=grid_w, **guide)
    out = dec.inpaint(INPAINT_PARAMS, grid, np.flatnonzero(known) if as_indices else known,
                      1, dc)
    assert out.tokens.shape == shape
    assert np.array_equal(out.tokens[known], grid.tokens[known])
    assert out.tokens.min() >= 0 and out.tokens.max() < 16


def test_inpaint_all_known_returns_input():
    params = tiny_params(dtype=np.float32)
    grid = dec.TokenGrid(np.arange(16).reshape(4, 4) % 16, 0)
    sink = []
    out = dec.inpaint(params, grid, np.ones((4, 4), bool), 0,
                      dec.DecodeConfig(steps=4), sink)
    assert np.array_equal(out.tokens, grid.tokens)
    assert out.tokens is not grid.tokens
    assert sink[0].permutation.size == sink[0].tokens.size == 0
    assert sink[0].caches == ()


def test_inpaint_all_but_one():
    params = tiny_params(seed=12, dtype=np.float32)
    grid = dec.TokenGrid(np.full((4, 4), 7), 2)
    known = np.ones((4, 4), bool)
    known[2, 3] = False
    out = dec.inpaint(params, grid, known, 2, dec.DecodeConfig(steps=4, seed=0))
    diff = out.tokens != grid.tokens
    assert diff.sum() <= 1
    assert not diff[known].any()


def test_inpaint_empty_known_rejected():
    params = tiny_params(dtype=np.float32)
    grid = dec.TokenGrid(np.zeros((4, 4), int), 0)
    wide = dec.TokenGrid(np.zeros((2, 8), int), 0)  # 16 cells, not 4x4
    first_row = np.zeros((2, 8), bool)
    first_row[0] = True
    # a 0/1 int grid is not a mask: read as indices it would mark cells 0 and 1
    bottom = np.zeros((4, 4), int)
    bottom[2:] = 1
    not_indices = "boolean grid or 1-d integer raster indices"
    cases = [(grid, np.zeros((4, 4), bool), "empty"),
             (grid, [], "empty"),
             (wide, first_row, r"\(2, 8\).*\(4, 4\)"),
             (wide, np.arange(8), r"\(2, 8\).*\(4, 4\)"),
             (grid, np.ones(16, bool), r"\(16,\).*\(4, 4\)"),
             (grid, bottom, not_indices),
             (grid, np.arange(4).reshape(2, 2), not_indices),
             (grid, [0.5, 3.2], not_indices)]
    for partial, known, match in cases:
        with pytest.raises(ValueError, match=match):
            dec.inpaint(params, partial, known, 0, dec.DecodeConfig(steps=4))


def test_expand_identity_and_outpaint():
    params = tiny_params(seed=13, dtype=np.float32)
    rng = np.random.default_rng(14)
    base = dec.TokenGrid(rng.integers(0, 16, (4, 4)), 3)
    sink = []
    same = dec.expand(params, base, 4, 4, "outpaint", dec.DecodeConfig(steps=4), sink)
    assert np.array_equal(same.tokens, base.tokens)
    assert sink[0].permutation.size == sink[0].tokens.size == 0
    assert sink[0].caches == ()
    wide = dec.expand(params, base, 4, 8, "outpaint",
                      dec.DecodeConfig(steps=4, seed=5))
    assert wide.tokens.shape == (4, 8)
    assert np.array_equal(wide.tokens[:, :4], base.tokens)
    fresh = wide.tokens[:, 4:]
    assert fresh.size == 16 and fresh.min() >= 0 and fresh.max() < 16


def test_expand_resolution_centers_base():
    params = tiny_params(seed=15, dtype=np.float32)
    rng = np.random.default_rng(16)
    base = dec.TokenGrid(rng.integers(0, 16, (4, 4)), 0)
    big = dec.expand(params, base, 8, 8, "resolution",
                     dec.DecodeConfig(steps=8, seed=6))
    assert np.array_equal(big.tokens[2:6, 2:6], base.tokens)
    assert (big.tokens >= 0).all() and (big.tokens < 16).all()


def test_expand_limits_and_modes():
    params = tiny_params(dtype=np.float32)
    base = dec.TokenGrid(np.zeros((4, 4), int), 0)
    with pytest.raises(ValueError):
        dec.expand(params, base, 2, 4, "outpaint", dec.DecodeConfig(steps=4))
    with pytest.raises(ValueError):
        dec.expand(params, base, 70, 70, "outpaint", dec.DecodeConfig(steps=4))
    with pytest.raises(ValueError):
        dec.expand(params, base, 4, 8, "mirror", dec.DecodeConfig(steps=4))
    with pytest.raises(ValueError, match="known ids must lie"):
        dec.expand(params, dec.TokenGrid(np.full((4, 4), 16), 0), 6, 6, "outpaint",
                   dec.DecodeConfig(steps=4))
    # a grid set on dc must name the target, as generate holds it to the model's
    for grid_h, grid_w in ((1, 3), (6, None), (None, 6), (6, 4)):
        with pytest.raises(ValueError, match="not the expand target 6x6"):
            dec.expand(params, base, 6, 6, "outpaint",
                       dec.DecodeConfig(steps=4, grid_h=grid_h, grid_w=grid_w))
    dc = dec.DecodeConfig(steps=4, grid_h=6, grid_w=6)
    assert dec.expand(params, base, 6, 6, "outpaint", dc).tokens.shape == (6, 6)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(kind=st.sampled_from(["inpaint", "outpaint", "resolution"]),
       shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
       grow=st.tuples(st.integers(0, 2), st.integers(0, 2)), bits=st.integers(0, 2**16 - 1),
       pattern=st.sampled_from(dec.ATTENTION_PATTERNS),
       order=st.sampled_from(("random",) + FIXED_ORDER_KINDS), cfg=st.booleans(),
       greedy=st.booleans(), shared=st.booleans(),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**16),
       prefill_rows=st.sampled_from([1, 2, 3, 32]))
def test_edits_at_one_token_per_step_equal_the_sequential_reference(
        kind, shape, grow, bits, pattern, order, cfg, greedy, shared, dtype, seed,
        prefill_rows):
    # inpaint and expand at S = |todo| against a reference that rebuilds
    # [condition, known cells, decoded so far] at every step; the large init
    # spreads the logits, so a prefill fed at wrong positions, in another
    # order or under another pattern moves sampled tokens, not only low bits.
    # The cached route's prefill is split into passes of prefill_rows rows,
    # the reference's is one pass, and the bits must not tell them apart.
    h, w = shape
    mc = md.ModelConfig(vocab_size=16, num_classes=4, hidden=16, heads=2, pass1_layers=2,
                        pass2_layers=2, seq_len=h * w, shared_kv=shared)
    params = md.ArpgParams.init(mc, np.random.default_rng(seed), dtype, init_std=0.5)
    base = dec.TokenGrid(np.random.default_rng(seed + 1).integers(0, 16, shape), 1)
    grid_h, grid_w = (h, w) if kind == "inpaint" else (h + grow[0], w + grow[1])
    guide = dict(cfg_scale=3.0, top_k=8, top_p=0.9) if cfg else {}
    dc = dec.DecodeConfig(steps=grid_h * grid_w, attention_pattern=pattern, order=order,
                          temperature=0.0 if greedy else 1.0, seed=seed, **guide)
    if kind == "inpaint":
        known = ((bits >> np.arange(h * w)) & 1).astype(bool)
        known[bits % (h * w)] = True
        dc = replace(dc, grid_h=h, grid_w=w)
        with mock.patch.object(dec, "PREFILL_ROWS", prefill_rows):
            got = dec.inpaint(params, base, known.reshape(shape), 1, dc)
        idx = np.flatnonzero(known)
        prefix = base.flat[idx]
    else:
        with mock.patch.object(dec, "PREFILL_ROWS", prefill_rows):
            got = dec.expand(params, base, grid_h, grid_w, kind, dc)
        idx = dec.expand_layout(shape, grid_h, grid_w, kind, dc)
        prefix = base.flat
    want = dec.sequential_reference_decode(params, 1, prefix, idx, grid_h, grid_w, dc)
    assert np.array_equal(got.tokens, want.tokens)


def test_sequential_reference_rejects_a_bad_known_set():
    # the known cells alone fix the cells left, so a repeated, negative or
    # off-grid index is refused rather than leaving a cell unset
    params = tiny_params(dtype=np.float32)
    dc = dec.DecodeConfig()
    for idx in ([1, 2, 2], [-1, 2, 3], [1, 2, 16]):
        with pytest.raises(ValueError, match="distinct raster indices in \\[0, 16\\)"):
            dec.sequential_reference_decode(params, 0, [3, 4, 5], idx, 4, 4, dc)
    # a known id outside the vocabulary would be fed as a class or [MASK] token
    for ids in ([16, 21, 3], [3, -1, 4]):
        with pytest.raises(ValueError, match="known ids must lie in \\[0, 16\\)"):
            dec.sequential_reference_decode(params, 0, ids, [0, 1, 2], 4, 4, dc)
    # a float or bool id or index is refused, not truncated to an integer
    for ids, idx in (([3.9, 5.2], [0, 1]), ([3, 5], [0.7, 1.9]),
                     ([True, False], [0, 1]), ([3, 5], [True, False])):
        with pytest.raises(ValueError, match="must be integers"):
            dec.sequential_reference_decode(params, 0, ids, idx, 4, 4, dc)
    out = dec.sequential_reference_decode(params, 0, [3, 4, 5], [1, 2, 3], 4, 4, dc)
    assert np.array_equal(out.flat[1:4], [3, 4, 5])
    assert out.tokens.min() >= 0 and out.tokens.max() < params.config.vocab_size


@settings(derandomize=True, max_examples=60, deadline=None)
@given(kind=st.sampled_from(["generate", "inpaint", "outpaint", "resolution"]),
       bits=st.integers(1, 2**16 - 2), grow=st.sampled_from([(0, 1), (1, 0), (2, 2), (4, 4)]),
       pattern=st.sampled_from(dec.ATTENTION_PATTERNS), cfg=st.booleans(),
       steps=st.integers(1, 64), seed=st.integers(0, 2**16))
def test_every_generation_ends_with_full_caches(kind, bits, grow, pattern, cfg, steps, seed):
    # a cache is opened with exactly the rows the generation feeds, so every
    # buffer ends full and one more row overflows it
    params = INPAINT_PARAMS
    base = dec.TokenGrid(np.random.default_rng(seed).integers(0, 16, (4, 4)), 1)
    guide = dict(cfg_scale=3.0, top_k=8, top_p=0.9) if cfg else {}
    dc = dec.DecodeConfig(steps=steps, attention_pattern=pattern, seed=seed, **guide)
    sink = []
    if kind == "generate":
        dec.generate(params, 1, replace(dc, steps=min(steps, 16)), sink)
    elif kind == "inpaint":
        known = ((bits >> np.arange(16)) & 1).astype(bool).reshape(4, 4)
        dec.inpaint(params, base, known, 1, dc, sink)
    else:
        dec.expand(params, base, 4 + grow[0], 4 + grow[1], kind, dc, sink)
    mc = params.config
    for cache in sink[0].caches:
        assert cache.length == cache.capacity
        assert cache._fill == [cache.capacity] * len(cache._fill)
        joint = cache.joint or cache
        row = np.zeros((1, joint.streams * mc.heads, mc.head_dim), params.dtype)
        with pytest.raises(RuntimeError, match="kv cache overflow"):
            joint.out_append(0, row, row)
        with pytest.raises(RuntimeError, match="kv cache overflow"):
            joint.layer_append(0, row, row)


def test_token_grid_validation():
    with pytest.raises(ValueError):
        dec.TokenGrid(np.zeros(16, int), 0)
    with pytest.raises(ValueError):
        dec.TokenGrid(np.zeros((4, 4), int), -1)
    grid = dec.TokenGrid(np.full((4, 4), 20), 0)
    with pytest.raises(ValueError):
        grid.validate(16)
