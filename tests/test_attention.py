"""Rotary embedding properties, mask builders, attention kernels vs oracles."""

import numpy as np
import pytest

from arpg import attention as at
from arpg import numcore as nc
from conftest import assert_grads_close, fd_grad


# ---------------------------------------------------------------- rope

def test_rope_position_zero_identity():
    rng = np.random.default_rng(0)
    table = at.RopeTable.build(8, 16)
    x = nc.Tensor(rng.standard_normal((3, 2, 16)))
    y = at.apply_rope(x, np.zeros(3, dtype=int), table)
    assert np.array_equal(y.data, x.data)


def test_rope_preserves_norm():
    rng = np.random.default_rng(1)
    table = at.RopeTable.build(64, 8)
    x = nc.Tensor(rng.standard_normal((5, 4, 8)))
    y = at.apply_rope(x, np.array([0, 7, 13, 21, 63]), table)
    assert np.allclose(np.linalg.norm(y.data, axis=-1),
                       np.linalg.norm(x.data, axis=-1), atol=1e-12)


def test_rope_relative_shift_invariance():
    # dot(R_m q, R_n k) depends only on m - n; 1000 random (q, k, m, n, s)
    rng = np.random.default_rng(2)
    table = at.RopeTable.build(256, 8)
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
        at.RopeTable.build(8, 7)


def test_rope_position_out_of_range():
    table = at.RopeTable.build(8, 4)
    x = nc.Tensor(np.zeros((1, 1, 4)))
    with pytest.raises(IndexError):
        at.apply_rope(x, np.array([8]), table)


def test_rope_gradient_fd():
    rng = np.random.default_rng(3)
    table = at.RopeTable.build(16, 8)
    x = nc.Parameter("x", rng.standard_normal((4, 2, 8)))
    pos = np.array([1, 5, 9, 15])
    w = rng.standard_normal((4, 2, 8))

    def run():
        cos, sin = table.gather(pos)
        return float((at.rotate_pairs(x.data, cos, sin) * w).sum())

    nc.sum_all(nc.mul(at.apply_rope(x, pos, table), w)).backward()
    assert_grads_close(x.grad, fd_grad(run, x.data), rel_tol=1e-6)


# ---------------------------------------------------------------- masks

def test_prefix_lengths():
    lens = at.prefix_lengths(at.causal_mask(4))
    assert np.array_equal(lens, [1, 2, 3, 4])
    bad = at.AttentionMask("causal", np.array([[False, True]]))
    with pytest.raises(ValueError):
        at.prefix_lengths(bad)


# ---------------------------------------------------------------- forward kernel

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
    # perturbing key/value rows > i leaves output row i bit-identical
    rng = np.random.default_rng(7)
    q = rng.standard_normal((2, 6, 8))
    k = rng.standard_normal((2, 6, 8))
    v = rng.standard_normal((2, 6, 8))
    mask = at.causal_mask(6)
    base, _ = at.attention_forward(q, k, v, mask)
    for trial in range(20):
        i = int(rng.integers(0, 5))
        k2, v2 = k.copy(), v.copy()
        k2[:, i + 1:] = rng.standard_normal(k2[:, i + 1:].shape)
        v2[:, i + 1:] = rng.standard_normal(v2[:, i + 1:].shape)
        pert, _ = at.attention_forward(q, k2, v2, mask)
        assert np.array_equal(pert[:, :i + 1], base[:, :i + 1])
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
    rng = np.random.default_rng(10)
    q = nc.Parameter("q", rng.standard_normal((2, 4, 6)))
    k = nc.Parameter("k", rng.standard_normal((2, 4, 6)))
    v = nc.Parameter("v", rng.standard_normal((2, 4, 6)))
    mask = at.causal_mask(4)
    w = rng.standard_normal((2, 4, 6))

    def run():
        out, _ = at.attention_forward(q.data, k.data, v.data, mask)
        return float((out * w).sum())

    nc.sum_all(nc.mul(at.attention(q, k, v, mask), w)).backward()
    assert_grads_close(q.grad, fd_grad(run, q.data), rel_tol=1e-6)
    assert_grads_close(k.grad, fd_grad(run, k.data), rel_tol=1e-6)
    assert_grads_close(v.grad, fd_grad(run, v.data), rel_tol=1e-6)


def test_attention_backward_matches_primitive_tape():
    # same math built from matmul+softmax primitives; grads agree to 1e-12
    rng = np.random.default_rng(11)
    shape = (2, 5, 8)
    mask = at.causal_mask(5)
    w = rng.standard_normal(shape)
    qa, ka, va = (rng.standard_normal(shape) for _ in range(3))

    fused = [nc.Parameter(n, x.copy()) for n, x in (("q", qa), ("k", ka), ("v", va))]
    nc.sum_all(nc.mul(at.attention(*fused, mask), w)).backward()

    prim = [nc.Parameter(n, x.copy()) for n, x in (("q", qa), ("k", ka), ("v", va))]
    q, k, v = prim
    scale = 1.0 / np.sqrt(shape[-1])
    scores = nc.add(nc.mul(nc.matmul(q, nc.transpose(k, -1, -2)), scale),
                    mask.bias(np.float64))
    probs = nc.softmax(scores, axis=-1)
    nc.sum_all(nc.mul(nc.matmul(probs, v), w)).backward()

    for f, p in zip(fused, prim):
        assert np.abs(f.grad - p.grad).max() < 1e-12


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


def test_attention_rows_grouping_invariant():
    rng = np.random.default_rng(13)
    H, L, hd, m = 2, 6, 4, 4
    k = rng.standard_normal((H, L, hd))
    v = rng.standard_normal((H, L, hd))
    q = rng.standard_normal((m, H, hd))
    lens = np.array([2, 6, 4, 5])
    joint = at.attention_rows(q, k, v, lens)
    for i in range(m):
        solo = at.attention_rows(q[i:i + 1], k, v, lens[i:i + 1])
        assert np.array_equal(joint[i], solo[0])
