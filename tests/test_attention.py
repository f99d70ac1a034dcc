"""Rotary embedding properties, attention kernels and tape ops vs oracles."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arpg import attention as at
from arpg import numcore as nc
from arpg.decoding import EXPAND_POSITION_LIMIT
from conftest import (add, assert_grads_close, cross_attention_node, fd_grad, mul,
                      residual_matmul_node, rms_norm_node, self_attention_node, sum_all)


# ---------------------------------------------------------------- rope

def test_rope_position_zero_identity():
    rng = np.random.default_rng(0)
    table = at.RopeTable(16)
    x = nc.Tensor(rng.standard_normal((3, 2, 16)))
    y = at.apply_rope(x, np.zeros(3, dtype=int), table)
    assert np.array_equal(y.data, x.data)


def test_rope_preserves_norm():
    rng = np.random.default_rng(1)
    table = at.RopeTable(8)
    x = nc.Tensor(rng.standard_normal((5, 4, 8)))
    y = at.apply_rope(x, np.array([0, 7, 13, 21, 63]), table)
    assert np.allclose(np.linalg.norm(y.data, axis=-1),
                       np.linalg.norm(x.data, axis=-1), atol=1e-12)


def test_rope_relative_shift_invariance():
    # dot(R_m q, R_n k) depends only on m - n; 1000 random (q, k, m, n, s)
    rng = np.random.default_rng(2)
    table = at.RopeTable(8)
    for _ in range(1000):
        q = rng.standard_normal(8)
        k = rng.standard_normal(8)
        m, n, s = rng.integers(0, 128, 3)
        qt = nc.Tensor(q.reshape(1, 1, 8))
        kt = nc.Tensor(k.reshape(1, 1, 8))
        d1 = float(np.dot(at.apply_rope(qt, np.array([m]), table).data.ravel(),
                          at.apply_rope(kt, np.array([n]), table).data.ravel()))
        d2 = float(np.dot(at.apply_rope(qt, np.array([m + s]), table).data.ravel(),
                          at.apply_rope(kt, np.array([n + s]), table).data.ravel()))
        assert abs(d1 - d2) < 1e-10


def test_rope_odd_head_dim_rejected():
    with pytest.raises(ValueError):
        at.RopeTable(7)


def test_rope_position_out_of_range():
    table = at.RopeTable(4)
    x = nc.Tensor(np.zeros((1, 1, 4)))
    with pytest.raises(IndexError):
        at.apply_rope(x, np.array([-1]), table)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rope_growth_keeps_row_bits(dtype):
    # a position past the table grows it; every row it held keeps its bits
    pos = np.array([[0, 1, 7], [16, 3, 16]])
    table = at.RopeTable(8)
    assert table.size == 0
    before = table.rows(pos, dtype)
    assert table.size == 17
    far = np.array([EXPAND_POSITION_LIMIT + 5])
    table.rows(far, dtype)
    assert table.size == EXPAND_POSITION_LIMIT + 6
    for x, y in zip(before, table.rows(pos, dtype)):
        assert x.dtype == dtype and np.array_equal(x, y)
    # and the grown rows equal those of a table built that large at once
    fresh = at.RopeTable(8)
    for x, y in zip(table.rows(far, dtype), fresh.rows(far, dtype)):
        assert np.array_equal(x, y)


def test_rope_gradient_fd():
    rng = np.random.default_rng(3)
    table = at.RopeTable(8)
    x = nc.Parameter("x", rng.standard_normal((4, 2, 8)))
    pos = np.array([1, 5, 9, 15])
    w = rng.standard_normal((4, 2, 8))

    def run():
        return float((at.rotate_pairs(x.data, *table.rows(pos, np.float64)) * w).sum())

    sum_all(mul(at.apply_rope(x, pos, table), w)).backward()
    assert_grads_close(x.grad, fd_grad(run, x.data), rel_tol=1e-6)


def test_rope_joined_layout_matches_heads_fd():
    # joined [B, T, H * hd] rotates each head_dim group like [B, T, H, hd]
    rng = np.random.default_rng(14)
    table = at.RopeTable(4)
    x = nc.Parameter("x", rng.standard_normal((2, 3, 8)))
    pos = np.array([[0, 5, 9], [15, 2, 7]])
    w = rng.standard_normal((2, 3, 8))
    heads = at.apply_rope(nc.Tensor(x.data.reshape(2, 3, 2, 4)), pos, table)
    joined = at.apply_rope(x, pos, table)
    assert np.array_equal(joined.data, heads.data.reshape(2, 3, 8))

    def run():
        cc, ss = table.rows(pos, np.float64)
        return float((at.rotate_pairs(x.data.reshape(2, 3, 2, 4), cc, ss).reshape(2, 3, 8)
                      * w).sum())

    sum_all(mul(joined, w)).backward()
    assert_grads_close(x.grad, fd_grad(run, x.data), rel_tol=1e-6)
    with pytest.raises(ValueError):
        at.apply_rope(nc.Tensor(np.zeros((2, 3, 6))), pos, table)


@pytest.mark.parametrize("rotated", [16, 24])
def test_rotary_matmul_fd(rotated):
    # q|k of a fused q|k|v (16 of 24 columns) or every column rotated
    rng = np.random.default_rng(17)
    table = at.RopeTable(4)
    a = nc.Parameter("a", rng.standard_normal((2, 5, 6)))
    m = nc.Parameter("m", rng.standard_normal((6, 24)))
    pos = np.stack([rng.permutation(16)[:5] for _ in range(2)])
    cc, ss = table.rows(pos, np.float64)
    w = rng.standard_normal((2, 5, 24))

    def run():
        y = a.data @ m.data
        heads = y[..., :rotated].reshape(2, 5, -1, 4)
        y[..., :rotated] = at.rotate_pairs(heads, cc, ss).reshape(2, 5, rotated)
        return float((y * w).sum())

    sum_all(mul(at.rotary_matmul(a, m, rotated, table, pos), w)).backward()
    assert_grads_close(a.grad, fd_grad(run, a.data), rel_tol=1e-6)
    assert_grads_close(m.grad, fd_grad(run, m.data), rel_tol=1e-6)
    for bad in (6, 28):  # not whole heads; more columns than the product has
        with pytest.raises(ValueError):
            at.rotary_matmul(a, m, bad, table, pos)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rotary_matmul_bit_equals_matmul_then_rope(dtype):
    rng = np.random.default_rng(18)
    table = at.RopeTable(8)
    pos = np.stack([rng.permutation(32)[:7] for _ in range(3)])
    a0, m0, w = (rng.standard_normal(s).astype(dtype) for s in ((3, 7, 12), (12, 16), (3, 7, 16)))

    def run(fused):
        a, m = nc.Parameter("a", a0.copy()), nc.Parameter("m", m0.copy())
        if fused:
            out = at.rotary_matmul(a, m, 16, table, pos)
        else:
            out = at.apply_rope(nc.matmul(a, m), pos, table)
        sum_all(mul(out, w)).backward()
        return out.data, a.grad, m.grad

    for x, y in zip(run(True), run(False)):
        assert x.dtype == dtype and np.array_equal(x, y)


def test_rotary_matmul_norm_fd():
    # RMSNorm folded in
    rng = np.random.default_rng(19)
    table = at.RopeTable(4)
    a = nc.Parameter("a", rng.standard_normal((2, 5, 6)))
    g = nc.Parameter("g", rng.standard_normal(6))
    m = nc.Parameter("m", rng.standard_normal((6, 8)))
    pos = np.stack([rng.permutation(16)[:5] for _ in range(2)])
    cc, ss = table.rows(pos, np.float64)
    w = rng.standard_normal((2, 5, 8))

    def run():
        xn = a.data / np.sqrt((a.data ** 2).mean(axis=-1, keepdims=True) + 1e-6) * g.data
        y = xn @ m.data
        y[..., :4] = at.rotate_pairs(y[..., :4].reshape(2, 5, 1, 4), cc, ss).reshape(2, 5, 4)
        return float((y * w).sum())

    out = at.rotary_matmul(a, m, 4, table, pos, g)
    assert out.shape == (2, 5, 8)
    sum_all(mul(out, w)).backward()
    for p in (a, g, m):
        assert_grads_close(p.grad, fd_grad(run, p.data), rel_tol=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rotary_matmul_norm_bit_equals_rms_norm_then_rotary(dtype):
    rng = np.random.default_rng(20)
    table = at.RopeTable(8)
    pos = np.stack([rng.permutation(32)[:7] for _ in range(3)])
    x0 = rng.standard_normal((3, 7, 12)).astype(dtype)
    g0 = rng.standard_normal(12).astype(dtype)
    m0 = rng.standard_normal((12, 16)).astype(dtype)
    w = rng.standard_normal((3, 7, 16)).astype(dtype)

    def run(fused):
        p, g, m = (nc.Parameter(n, v.copy()) for n, v in (("p", x0), ("g", g0), ("m", m0)))
        x = mul(p, 1.5)
        if fused:
            out = at.rotary_matmul(x, m, 8, table, pos, g)
        else:
            out = at.rotary_matmul(rms_norm_node(x, g), m, 8, table, pos)
        sum_all(mul(out, w)).backward()
        return out.data, p.grad, g.grad, m.grad

    for u, v in zip(run(True), run(False)):
        assert u.dtype == dtype and np.array_equal(u, v)


# ---------------------------------------------------------------- forward kernel

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_row_max_tree_equals_max(dtype):
    # every width up to 70, odd ones included, with some rows wholly -inf
    # (a query with no open key) and some holding ties
    rng = np.random.default_rng(40)
    for n in range(1, 71):
        shape = tuple(rng.integers(1, 4, rng.integers(0, 3))) + (5, n)
        p = rng.standard_normal(shape).astype(dtype)
        p[..., 1, :] = -np.inf
        p[..., 2, :] = np.round(p[..., 2, :])
        got = at._row_max(p)
        assert got.shape == shape[:-1] + (1,) and got.dtype == dtype
        assert np.array_equal(got, p.max(axis=-1, keepdims=True)), n
        assert not np.shares_memory(got, p)


def test_attention_equal_scores_mean_values():
    q = np.zeros((1, 1, 4))
    k = np.zeros((1, 2, 4))
    v = np.stack([np.full(4, 2.0), np.full(4, 6.0)])[None]
    out, _ = at.attention_forward(q, k, v, at.cross_full_mask(1, 2))
    assert np.allclose(out[0, 0], 4.0)


def test_attention_first_query_takes_first_value():
    rng = np.random.default_rng(4)
    q, k, v = (rng.standard_normal((1, 3, 4)) for _ in range(3))
    out, _ = at.attention_forward(q, k, v, at.causal_mask(3))
    assert np.allclose(out[0, 0], v[0, 0], atol=1e-15)


def test_attention_brute_force_oracle():
    rng = np.random.default_rng(5)
    q, k, v = (rng.standard_normal((1, 3, 4)) for _ in range(3))
    mask = at.causal_mask(3)
    out, probs = at.attention_forward(q, k, v, mask)
    scale = 1.0 / np.sqrt(4)
    for i in range(3):
        s = np.array([q[0, i] @ k[0, j] * scale for j in range(i + 1)])
        e = np.exp(s - s.max())
        p = e / e.sum()
        ref = sum(p[j] * v[0, j] for j in range(i + 1))
        assert np.abs(out[0, i] - ref).max() < 1e-12
        assert np.abs(probs[0, i, :i + 1] - p).max() < 1e-12
        assert probs[0, i, i + 1:].max(initial=0.0) == 0.0


def test_attention_empty_key_row_zero_output():
    rng = np.random.default_rng(6)
    q, k, v = (rng.standard_normal((1, 2, 4)) for _ in range(3))
    mask = at.AttentionMask("cross_full", np.array([[False, False], [True, True]]))
    out, probs = at.attention_forward(q, k, v, mask)
    assert np.array_equal(out[0, 0], np.zeros(4))
    assert np.array_equal(probs[0, 0], np.zeros(2))
    assert np.isfinite(out).all()


def test_attention_causal_leakage_exact():
    # perturbing key/value rows > i leaves output row i bit-identical, also
    # when a future key's score beats every open one by far more than 1e9
    rng = np.random.default_rng(7)
    q = rng.standard_normal((2, 6, 8))
    k = rng.standard_normal((2, 6, 8))
    v = rng.standard_normal((2, 6, 8))
    mask = at.causal_mask(6)
    base, _ = at.attention_forward(q, k, v, mask)
    for key_scale in (1.0, 1e10):
        for trial in range(20):
            i = int(rng.integers(0, 5))
            k2, v2 = k.copy(), v.copy()
            k2[:, i + 1:] = key_scale * rng.standard_normal(k2[:, i + 1:].shape)
            v2[:, i + 1:] = rng.standard_normal(v2[:, i + 1:].shape)
            pert, _ = at.attention_forward(q, k2, v2, mask)
            assert np.array_equal(pert[:, :i + 1], base[:, :i + 1]), (key_scale, i)
            assert not np.array_equal(pert[:, i + 1:], base[:, i + 1:])


# ---------------------------------------------------------------- backward

def test_attention_backward_zero_upstream():
    rng = np.random.default_rng(8)
    q, k, v = (rng.standard_normal((1, 4, 8)) for _ in range(3))
    out, probs = at.attention_forward(q, k, v, at.causal_mask(4))
    dq, dk, dv = at.attention_backward(q, k, v, probs, out, np.zeros_like(out))
    assert not dq.any() and not dk.any() and not dv.any()


def test_attention_backward_unmasked_query_sparsity():
    # loss touching only "masked-slot" query rows: the other rows' dq is exactly 0
    rng = np.random.default_rng(9)
    q, k, v = (rng.standard_normal((2, 8, 4)) for _ in range(3))
    out, probs = at.attention_forward(q, k, v, at.cross_full_mask(8, 8))
    d_out = rng.standard_normal(out.shape)
    loss_rows = np.array([0, 3, 4])
    quiet = np.setdiff1d(np.arange(8), loss_rows)
    d_out[:, quiet] = 0.0
    dq, dk, dv = at.attention_backward(q, k, v, probs, out, d_out)
    assert np.array_equal(dq[:, quiet], np.zeros_like(dq[:, quiet]))
    assert np.linalg.norm(dq[:, loss_rows], axis=-1).min() > 0
    # indirect gradients still reach every key/value row
    assert np.linalg.norm(dk, axis=-1).min() > 0
    assert np.linalg.norm(dv, axis=-1).min() > 0


def test_attention_fd_two_heads():
    # the pass-2 block: q + (attention of q over kv) @ wo, q = the rotated
    # RMSNorm(x) * gain @ wq the residual carrier
    rng = np.random.default_rng(10)
    table = at.RopeTable(4)
    x = nc.Parameter("x", rng.standard_normal((2, 4, 8)))
    gain = nc.Parameter("gain", rng.standard_normal(8))
    wq = nc.Parameter("wq", rng.standard_normal((8, 8)))
    kv = nc.Parameter("kv", rng.standard_normal((2, 4, 16)))  # k|v
    wo = nc.Parameter("wo", rng.standard_normal((8, 8)))
    pos = np.stack([rng.permutation(16)[:4] for _ in range(2)])
    mask = at.causal_mask(4)
    w = rng.standard_normal((2, 4, 8))

    def run():
        q = _projection_ref(x.data, gain.data, wq.data, 8, pos, table)
        out, _ = at.attention_forward(*(_joined_heads(y, 2) for y in
                                        (q, kv.data[..., :8], kv.data[..., 8:])), mask)
        return float(((q + _unjoined(out) @ wo.data) * w).sum())

    sum_all(mul(at.attention_block(x, gain, wq, table, pos, kv, wo, mask, 2), w)).backward()
    for p in (x, gain, wq, kv, wo):
        assert_grads_close(p.grad, fd_grad(run, p.data), rel_tol=1e-6)
    with pytest.raises(ValueError):
        at.attention_block(x, gain, wq, table, pos, nc.Tensor(kv.data[..., :8]), wo, mask, 2)


def _projection_ref(x, gain, w, rotated, pos, table):
    # RMSNorm(x) * gain @ w with its first `rotated` columns rotated: the unfused composition
    y = x / np.sqrt((x ** 2).mean(axis=-1, keepdims=True) + 1e-6) * gain @ w
    b, t = pos.shape
    cc, ss = table.rows(pos, np.float64)
    heads = y[..., :rotated].reshape(b, t, -1, table.head_dim)
    y[..., :rotated] = at.rotate_pairs(heads, cc, ss).reshape(b, t, rotated)
    return y


def _joined_heads(x, heads):
    b, t, d = x.shape
    return x.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3)


def _unjoined(x):
    b, h, t, hd = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * hd)


def _self_attention_ref(qkv, pos, table, mask, heads):
    # split, rotate per head, attend, join: the unfused composition
    b, t, d3 = qkv.shape
    d = d3 // 3
    cc, ss = table.rows(pos, np.float64)
    q, k, v = (qkv[..., i * d:(i + 1) * d].reshape(b, t, heads, -1) for i in range(3))
    q, k = at.rotate_pairs(q, cc, ss), at.rotate_pairs(k, cc, ss)
    out, _ = at.attention_forward(*(x.transpose(0, 2, 1, 3) for x in (q, k, v)), mask)
    return _unjoined(out)


def test_self_attention_op_fd():
    # the pass-1 block x + (self-attention over RMSNorm(x) * gain @ wqkv) @ wo
    # * keep, without and with a keep mask: fused q|k|v rows, causal mask,
    # shuffled positions, 2 heads of 4
    rng = np.random.default_rng(15)
    table = at.RopeTable(4)
    x = nc.Parameter("x", rng.standard_normal((2, 5, 8)))
    gain = nc.Parameter("gain", rng.standard_normal(8))
    wqkv = nc.Parameter("wqkv", rng.standard_normal((8, 24)))
    wo = nc.Parameter("wo", rng.standard_normal((8, 8)))
    pos = np.stack([rng.permutation(16)[:5] for _ in range(2)])
    mask = at.causal_mask(5)
    w = rng.standard_normal((2, 5, 8))
    for keep in (None, (rng.random((2, 5, 8)) >= 0.3) / 0.7):
        def ref():
            qkv = _projection_ref(x.data, gain.data, wqkv.data, 0, pos, table)
            y = _self_attention_ref(qkv, pos, table, mask, 2) @ wo.data
            return x.data + (y if keep is None else y * keep)

        def run():
            return float((ref() * w).sum())

        nc.zero_grads([x, gain, wqkv, wo])
        sink = []
        out = at.attention_block(x, gain, wqkv, table, pos, None, wo, mask, 2, keep,
                                 probs_sink=sink)
        assert out.shape == (2, 5, 8) and sink[0].shape == (2, 2, 5, 5)
        assert np.abs(out.data - ref()).max() < 1e-12
        sum_all(mul(out, w)).backward()
        for p in (x, gain, wqkv, wo):
            assert_grads_close(p.grad, fd_grad(run, p.data), rel_tol=1e-6)
    with pytest.raises(ValueError):
        at.attention_block(x, gain, wqkv, table, pos, None, wo, mask, 3)
    with pytest.raises(ValueError):  # the residual does not match the product
        at.attention_block(x, gain, wqkv, table, pos, None, nc.Tensor(np.zeros((8, 6))),
                           mask, 2)


def test_cross_attention_op_shared_kv_fd():
    # two query blocks read one k|v stream, so their gradients sum into it
    rng = np.random.default_rng(16)
    table = at.RopeTable(4)
    x1, x2 = (nc.Parameter(n, rng.standard_normal((2, 3, 8))) for n in ("x1", "x2"))
    g1, g2 = (nc.Parameter(n, rng.standard_normal(8)) for n in ("g1", "g2"))
    wq1, wq2, wo1, wo2 = (nc.Parameter(n, rng.standard_normal((8, 8)))
                          for n in ("wq1", "wq2", "wo1", "wo2"))
    kv = nc.Parameter("kv", rng.standard_normal((2, 5, 16)))  # k|v
    pos = np.stack([rng.permutation(16)[:3] for _ in range(2)])
    allowed = np.zeros((3, 5), dtype=bool)
    for i, n in enumerate([2, 5, 3]):
        allowed[i, :n] = True
    mask = at.AttentionMask("cross_full", allowed)
    w1, w2 = rng.standard_normal((2, 2, 3, 8))

    def one(x, g, wq, wo, w):
        q = _projection_ref(x, g, wq, 8, pos, table)
        out, _ = at.attention_forward(_joined_heads(q, 2), _joined_heads(kv.data[..., :8], 2),
                                      _joined_heads(kv.data[..., 8:], 2), mask)
        return ((q + _unjoined(out) @ wo) * w).sum()

    def run():
        return float(one(x1.data, g1.data, wq1.data, wo1.data, w1)
                     + one(x2.data, g2.data, wq2.data, wo2.data, w2))

    o1 = at.attention_block(x1, g1, wq1, table, pos, kv, wo1, mask, 2)
    o2 = at.attention_block(x2, g2, wq2, table, pos, kv, wo2, mask, 2)
    add(sum_all(mul(o1, w1)), sum_all(mul(o2, w2))).backward()
    for p in (x1, x2, g1, g2, wq1, wq2, wo1, wo2, kv):
        assert_grads_close(p.grad, fd_grad(run, p.data), rel_tol=1e-6)


def _same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dropout", [False, True])
@pytest.mark.parametrize("streams", [0, 1, 3])
def test_attention_residual_bit_equals_attention_then_residual(dtype, dropout, streams):
    # streams 0: a pass-1 stack of attention blocks; 1: two query blocks on
    # one shared k|v stream; 3: three query blocks, one stream each. The fused
    # side runs attention_block; the reference feeds the model's rotary
    # projection to the unfused attention and residual gemm nodes. The inputs
    # are non-leaves, so the gradients meet in the same sums as in training.
    rng = np.random.default_rng(30)
    b, t, d, heads, layers = 2, 5, 8, 2, 2 if streams == 1 else 3
    table = at.RopeTable(d // heads)
    pos = np.stack([rng.permutation(16)[:t] for _ in range(b)])
    mask = at.causal_mask(t)

    def draw(*shape):
        return rng.standard_normal(shape).astype(dtype)
    x0, r0, w = draw(b, t, d), draw(b, t, d), draw(b, t, d)
    weights = {"gain": draw(d)}
    for li in range(layers):
        weights["in%d" % li] = draw(d, 3 * d if streams == 0 else d)
        weights["gain%d" % li] = draw(d)
        weights["wo%d" % li] = draw(d, d)
    for si in range(streams):
        weights["kv%d" % si] = draw(d, 2 * d)
    keeps = [((rng.random((b, t, d)) >= 0.2).astype(dtype) / 0.8) if dropout else None
             for _ in range(layers)]

    def run(fused):
        p = {n: nc.Parameter(n, v.copy()) for n, v in weights.items()}
        px, pr = nc.Parameter("x", x0.copy()), nc.Parameter("r", r0.copy())
        x = mul(px, 1.5)
        if streams:
            kv = [at.rotary_matmul(x, p["kv%d" % si], d, table, pos, p["gain"])
                  for si in range(streams)]
            x = mul(pr, 0.5)
        for li, keep in enumerate(keeps):
            w_in, gain, wo = p["in%d" % li], p["gain%d" % li], p["wo%d" % li]
            kvi = kv[0 if streams == 1 else li] if streams else None
            if fused:
                x = at.attention_block(x, gain, w_in, table, pos, kvi, wo, mask, heads, keep)
            elif streams == 0:
                qkv = at.rotary_matmul(x, w_in, 2 * d, table, pos, gain)
                x = residual_matmul_node(x, self_attention_node(qkv, mask, heads), wo, keep)
            else:
                q = at.rotary_matmul(x, w_in, d, table, pos, gain)
                x = residual_matmul_node(q, cross_attention_node(q, kvi, mask, heads), wo, keep)
        sum_all(mul(x, w)).backward()
        return [x.data, px.grad, pr.grad] + [p[n].grad for n in sorted(p)]

    for u, v in zip(run(True), run(False)):
        assert u.dtype == dtype and _same_bits(u, v)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("sign", [1, -1])
def test_rotate_leading_bit_equals_rotate_pairs(dtype, sign):
    # both directions the tape turns: forward by ss, backward by -ss
    rng = np.random.default_rng(31)
    table = at.RopeTable(8)
    pos = np.stack([rng.permutation(32)[:7] for _ in range(3)])
    cc, ss = table.rows(pos, dtype)
    x0 = rng.standard_normal((3, 7, 40)).astype(dtype)
    x0[0, 0, :4] = [0.0, -0.0, -0.0, 0.0]
    x = x0.copy()
    at._rotate_leading(x, 24, cc, sign * ss)
    ref = x0.copy()
    ref[..., :24] = at.rotate_pairs(x0[..., :24].reshape(3, 7, 3, 8), cc,
                                    sign * ss).reshape(3, 7, 24)
    assert _same_bits(x, ref)


# ---------------------------------------------------------------- row kernel

def test_attention_rows_matches_batched():
    rng = np.random.default_rng(12)
    H, L, hd, m = 4, 9, 8, 5
    k = rng.standard_normal((H, L, hd))
    v = rng.standard_normal((H, L, hd))
    q = rng.standard_normal((m, H, hd))
    lens = np.array([3, 9, 1, 7, 9])
    out = at.attention_rows(q, k, v, lens)
    allowed = np.zeros((m, L), dtype=bool)
    for i, n in enumerate(lens):
        allowed[i, :n] = True
    ref, _ = at.attention_forward(q.transpose(1, 0, 2), k, v,
                                  at.AttentionMask("cross_full", allowed))
    assert np.abs(out - ref.transpose(1, 0, 2)).max() < 1e-12


@settings(derandomize=True, max_examples=150, deadline=None)
@given(lens=st.lists(st.integers(1, 12), min_size=1, max_size=8), width=st.integers(1, 12),
       heads=st.integers(1, 3), hd=st.sampled_from([2, 4, 8]), block=st.integers(1, 64),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**16))
def test_attention_rows_grouping_invariant(lens, width, heads, hd, block, dtype, seed):
    # rows of mixed prefix lengths over one C-key buffer: a mask built by the
    # caller gives the same bits, each row equals its solo call, huge finite
    # k/v at or past its prefix (q.k may overflow to inf there) leave it
    # unchanged, and row blocking changes no bit
    rng = np.random.default_rng(seed)
    lens = np.minimum(lens, width)
    m = lens.size
    q = rng.standard_normal((m, heads, hd)).astype(dtype)
    k, v = rng.standard_normal((2, heads, width, hd)).astype(dtype)
    joint = at.attention_rows(q, k, v, lens)
    assert _same_bits(at.attention_rows(q, k, v, lens, np.arange(width) >= lens[:, None, None]),
                      joint)
    big = np.finfo(dtype)
    for i, n in enumerate(lens):
        assert _same_bits(at.attention_rows(q[i:i + 1], k, v, lens[i:i + 1])[0], joint[i])
        k2, v2 = k.copy(), v.copy()
        for x in (k2, v2):
            shape = x[:, n:].shape
            x[:, n:] = rng.uniform(-1, 1, shape) * big.max / 10.0 ** rng.integers(
                0, big.maxexp // 4, shape)
        with np.errstate(over="ignore", invalid="ignore"):
            assert _same_bits(at.attention_rows(q[i:i + 1], k2, v2, lens[i:i + 1])[0], joint[i])
    with mock.patch.object(at, "ROWS_BLOCK", block):
        assert _same_bits(at.attention_rows(q, k, v, lens), joint)
