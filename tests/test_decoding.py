"""Cache mechanics, sampling filters, CFG, the step loop, and the editing ops."""

import numpy as np
import pytest

from arpg import decoding as dec
from arpg import model as md


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
    before = [tuple(np.array(b) for b in cache.out_view(s))
              for s in range(cache.out_streams)]
    md.forward_pass1(params, [3, 7, 1], [2, 9, 5], cache=cache)
    for s, (k0, v0) in enumerate(before):
        k1, v1 = cache.out_view(s)
        assert np.array_equal(k1[:1], k0)
        assert np.array_equal(v1[:1], v0)


def test_cache_overflow_is_contract_error():
    params = tiny_params()
    cache = dec.KvCache(params.config, 2, params.dtype)
    md.forward_pass1(params, [params.config.class_token(0)], [0], cache=cache)
    md.forward_pass1(params, [5], [3], cache=cache)
    with pytest.raises(RuntimeError):
        md.forward_pass1(params, [6], [4], cache=cache)


def test_cache_scalar_count_closed_form():
    for shared, p2 in ((True, 2), (False, 3)):
        cfg = md.ModelConfig(vocab_size=16, num_classes=4, hidden=32, heads=4,
                             pass1_layers=2, pass2_layers=p2, seq_len=16,
                             shared_kv=shared)
        cache = dec.KvCache(cfg, 1 + cfg.seq_len)
        assert cache.scalar_count() == dec.cache_scalar_count(cfg, cfg.seq_len)
    cfg = md.ModelConfig()
    streams = cfg.pass1_layers + 1
    assert dec.cache_scalar_count(cfg, cfg.seq_len) == streams * 2 * cfg.hidden * 65


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
        rebuilt = md.forward_pass2(
            params, queries, md.forward_pass1(params, fed_ids, fed_pos))
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
    assert not np.array_equal(cache_c.out_view(0)[0], cache_b.out_view(0)[0])

    dc_c = dec.DecodeConfig(steps=16, temperature=0.0, seed=11)
    dc_b = dec.DecodeConfig(steps=16, temperature=0.0, seed=11,
                            attention_pattern="block_causal")
    a = dec.generate(params, 1, dc_c)
    b = dec.generate(params, 1, dc_b)
    assert np.array_equal(a.tokens, b.tokens)


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
    with pytest.raises(ValueError):
        dec.generate(params, 0, dec.DecodeConfig(steps=17))


# Golden decodes: literal grids and decode orders for S < T and the edit
# paths, which no bit-exact oracle covers.
GOLDEN_PARTIAL = dec.TokenGrid(np.array([[14, 6, 3, 11], [13, 4, 5, 1],
                                         [15, 15, 11, 9], [9, 10, 11, 9]]), 3)
GOLDEN_KNOWN = np.array([[1, 1, 1, 0], [0, 0, 0, 1],
                         [0, 0, 0, 0], [1, 0, 0, 1]], dtype=bool)
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
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_decode_golden(case):
    run, want_grid, want_perm = GOLDEN[case]
    sink = []
    out = run(tiny_params(seed=17), sink)
    assert out.tokens.tolist() == want_grid
    assert sink[0].permutation.tolist() == want_perm
    assert np.array_equal(sink[0].tokens, out.flat[sink[0].permutation - 1])


# ---------------------------------------------------------------- editing

def test_inpaint_preserves_known():
    params = tiny_params(seed=10, dtype=np.float32)
    rng = np.random.default_rng(11)
    grid = dec.TokenGrid(rng.integers(0, 16, (4, 4)), 1)
    known = np.zeros((4, 4), dtype=bool)
    known.reshape(-1)[rng.permutation(16)[:8]] = True
    out = dec.inpaint(params, grid, known, 1, dec.DecodeConfig(steps=4, seed=3))
    assert np.array_equal(out.tokens[known], grid.tokens[known])
    assert out.tokens.min() >= 0 and out.tokens.max() < 16


def test_inpaint_all_known_returns_input():
    params = tiny_params(dtype=np.float32)
    grid = dec.TokenGrid(np.arange(16).reshape(4, 4) % 16, 0)
    out = dec.inpaint(params, grid, np.ones((4, 4), bool), 0,
                      dec.DecodeConfig(steps=4))
    assert np.array_equal(out.tokens, grid.tokens)
    assert out.tokens is not grid.tokens


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
    with pytest.raises(ValueError):
        dec.inpaint(params, grid, np.zeros((4, 4), bool), 0,
                    dec.DecodeConfig(steps=4))


def test_expand_identity_and_outpaint():
    params = tiny_params(seed=13, dtype=np.float32)
    rng = np.random.default_rng(14)
    base = dec.TokenGrid(rng.integers(0, 16, (4, 4)), 3)
    same = dec.expand(params, base, 4, 4, "outpaint", dec.DecodeConfig(steps=4))
    assert np.array_equal(same.tokens, base.tokens)
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


def test_token_grid_validation():
    with pytest.raises(ValueError):
        dec.TokenGrid(np.zeros(16, int), 0)
    with pytest.raises(ValueError):
        dec.TokenGrid(np.zeros((4, 4), int), -1)
    grid = dec.TokenGrid(np.full((4, 4), 20), 0)
    with pytest.raises(ValueError):
        grid.validate(16)
