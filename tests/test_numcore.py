"""Tape autograd: per-op closed forms plus finite-difference oracles (double precision)."""

import tracemalloc
import weakref

import numpy as np
import pytest

from arpg import numcore as nc
from conftest import (add, assert_grads_close, fd_grad, mul, residual_matmul_node, rms_norm_node,
                      sum_all, swiglu_node, swiglu_residual)


def test_matmul_identity():
    a = nc.Tensor(np.eye(2))
    b = nc.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(nc.matmul(a, b).data, b.data)


def test_matmul_projector():
    p = nc.Tensor(np.array([[1.0, 0.0], [0.0, 0.0]]))
    b = nc.Tensor(np.array([[5.0, 6.0], [7.0, 8.0]]))
    assert np.array_equal(nc.matmul(p, b).data, np.array([[5.0, 6.0], [0.0, 0.0]]))


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        nc.matmul(nc.Tensor(np.zeros((3, 4))), nc.Tensor(np.zeros((3, 2))))
    # the right operand is always one [d, f] matrix
    for right in (np.zeros((2, 4, 2)), np.zeros(4)):
        with pytest.raises(ValueError):
            nc.matmul(nc.Tensor(np.zeros((2, 3, 4))), nc.Tensor(right))


def test_matmul_fd():
    rng = np.random.default_rng(0)
    a = nc.Parameter("a", rng.standard_normal((3, 4)))
    b = nc.Parameter("b", rng.standard_normal((4, 2)))
    w = rng.standard_normal((3, 2))

    def run():
        return float(((a.data @ b.data) * w).sum())

    loss = sum_all(mul(nc.matmul(a, b), w))
    loss.backward()
    assert_grads_close(a.grad, fd_grad(run, a.data), rel_tol=1e-6)
    assert_grads_close(b.grad, fd_grad(run, b.data), rel_tol=1e-6)


def test_matmul_batched_fd():
    rng = np.random.default_rng(1)
    a = nc.Parameter("a", rng.standard_normal((2, 3, 4)))
    b = nc.Parameter("b", rng.standard_normal((4, 5)))
    w = rng.standard_normal((2, 3, 5))

    def run():
        return float(((a.data @ b.data) * w).sum())

    loss = sum_all(mul(nc.matmul(a, b), w))
    loss.backward()
    assert_grads_close(a.grad, fd_grad(run, a.data))
    assert_grads_close(b.grad, fd_grad(run, b.data))

    # left operand a transposed view: the [N, d] flatten has to copy
    base = rng.standard_normal((3, 2, 4))
    left = nc.Parameter("left", base.swapaxes(0, 1))
    b2 = nc.Parameter("b2", rng.standard_normal((4, 5)))
    assert not left.data.flags.c_contiguous

    def run_t():
        return float(((base.swapaxes(0, 1) @ b2.data) * w).sum())

    sum_all(mul(nc.matmul(left, b2), w)).backward()
    assert_grads_close(left.grad.swapaxes(0, 1), fd_grad(run_t, base))
    assert_grads_close(b2.grad, fd_grad(run_t, b2.data))


def _rms_ref(x, eps=1e-6):
    return x / np.sqrt((x ** 2).mean(axis=-1, keepdims=True) + eps)


def test_rms_norm_zeros():
    # a zero row stays zero through the norm the gemm reads
    x = nc.Tensor(np.zeros((2, 4)))
    g = nc.Parameter("g", np.ones(4))
    assert np.array_equal(nc.matmul(x, nc.Tensor(np.eye(4)), g).data, np.zeros((2, 4)))


def test_rms_norm_closed_form():
    x = nc.Tensor(np.array([3.0, 4.0]))
    g = nc.Parameter("g", np.ones(2))
    y = nc.matmul(x, nc.Tensor(np.eye(2)), g)
    assert np.allclose(y.data, np.array([3.0, 4.0]) / np.sqrt(12.5))


def test_rms_norm_fd():
    # RMSNorm folded into the gemm that reads it: gradients for x, gain and w
    rng = np.random.default_rng(4)
    x = nc.Parameter("x", rng.standard_normal((2, 3, 6)))
    g = nc.Parameter("g", rng.standard_normal(6))
    m = nc.Parameter("m", rng.standard_normal((6, 5)))
    w = rng.standard_normal((2, 3, 5))

    def run():
        return float(((_rms_ref(x.data) * g.data) @ m.data * w).sum())

    loss = sum_all(mul(nc.matmul(x, m, g), w))
    loss.backward()
    for p in (x, g, m):
        assert_grads_close(p.grad, fd_grad(run, p.data), rel_tol=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_norm_matmul_bit_equals_rms_norm_then_matmul(dtype):
    # x is a non-leaf, as on the model's residual stream
    rng = np.random.default_rng(21)
    x0, w = (rng.standard_normal(s).astype(dtype) for s in ((4, 6, 8), (4, 6, 5)))
    g0, m0 = rng.standard_normal(8).astype(dtype), rng.standard_normal((8, 5)).astype(dtype)

    def run(fused):
        p, g, m = (nc.Parameter(n, v.copy()) for n, v in (("p", x0), ("g", g0), ("m", m0)))
        x = mul(p, 1.5)
        out = nc.matmul(x, m, g) if fused else nc.matmul(rms_norm_node(x, g), m)
        sum_all(mul(out, w)).backward()
        return out.data, p.grad, g.grad, m.grad

    for u, v in zip(run(True), run(False)):
        assert u.dtype == dtype and np.array_equal(u, v)


def test_cross_entropy_aligned_margin():
    logits = nc.Tensor(np.full((2, 4), -100.0))
    logits.data[0, 1] = 100.0
    logits.data[1, 2] = 100.0
    loss = nc.cross_entropy(logits, np.array([1, 2]))
    assert float(loss.data) < 1e-12


def test_cross_entropy_uniform():
    loss = nc.cross_entropy(nc.Tensor(np.zeros((3, 16))), np.array([0, 5, 15]))
    assert abs(float(loss.data) - np.log(16.0)) < 1e-12


def test_cross_entropy_out_of_range():
    with pytest.raises(IndexError):
        nc.cross_entropy(nc.Tensor(np.zeros((2, 4))), np.array([0, 4]))


def test_cross_entropy_fd():
    rng = np.random.default_rng(5)
    x = nc.Parameter("x", rng.standard_normal((4, 16)))
    t = rng.integers(0, 16, 4)

    def run():
        z = x.data - x.data.max(axis=-1, keepdims=True)
        lse = np.log(np.exp(z).sum(axis=-1))
        return float((lse - z[np.arange(4), t]).mean())

    nc.cross_entropy(x, t).backward()
    assert_grads_close(x.grad, fd_grad(run, x.data), rel_tol=1e-6)


def test_embedding_gather_and_grad():
    table = nc.Parameter("emb", np.arange(12.0).reshape(4, 3))
    ids = np.array([[0, 2], [2, 2]])
    y = nc.embedding(table, ids)
    assert y.shape == (2, 2, 3)
    sum_all(y).backward()
    # row 2 gathered three times, row 0 once, rows 1 and 3 never
    assert np.array_equal(table.grad[:, 0], np.array([1.0, 0.0, 3.0, 0.0]))
    with pytest.raises(IndexError):
        nc.embedding(table, np.array([4]))

    # every slot gathers one row, the gather broadcast_row is held to
    nc.zero_grads([table])
    w = np.arange(30.0).reshape(2, 5, 3)
    sum_all(mul(nc.embedding(table, np.full((2, 5), 3)), w)).backward()
    assert np.array_equal(table.grad[:3], np.zeros((3, 3)))
    assert np.array_equal(table.grad[3], w.reshape(10, 3).sum(axis=0))


def test_broadcast_row_bit_equals_gather():
    # one row read at every slot through zero leading strides: the values and
    # the summed row gradient of embedding's gather of that row
    rng = np.random.default_rng(5)
    t0 = rng.standard_normal((4, 7)).astype(np.float32)
    w = rng.standard_normal((3, 50, 7)).astype(np.float32)

    def run(broadcast):
        table = nc.Parameter("emb", t0.copy())
        y = (nc.broadcast_row(table, 2, (3, 50)) if broadcast
             else nc.embedding(table, np.full((3, 50), 2)))
        sum_all(mul(y, w)).backward()
        return y.data, table.grad

    (y, grad), (y_ref, grad_ref) = run(True), run(False)
    assert y.shape == (3, 50, 7) and y.strides[:2] == (0, 0) and not y.flags.writeable
    assert np.array_equal(y, y_ref) and np.array_equal(grad, grad_ref)
    assert np.flatnonzero(np.abs(grad).sum(axis=1)).tolist() == [2]


def test_ffn_residual_fd():
    # x + (silu(a) * b @ w2) * keep for a|b = RMSNorm(x) * gain @ w13, without
    # and with a keep mask; odd f
    rng = np.random.default_rng(6)
    x = nc.Parameter("x", rng.standard_normal((2, 3, 4)))
    gain = nc.Parameter("gain", rng.standard_normal(4))
    w13 = nc.Parameter("w13", rng.standard_normal((4, 10)))
    w2 = nc.Parameter("w2", rng.standard_normal((5, 4)))
    w = rng.standard_normal((2, 3, 4))
    for keep in (None, (rng.random((2, 3, 4)) >= 0.3) / 0.7):
        def run():
            h = _rms_ref(x.data) * gain.data @ w13.data
            a, b = h[..., :5], h[..., 5:]
            y = (a / (1.0 + np.exp(-a)) * b) @ w2.data
            return float(((x.data + (y if keep is None else y * keep)) * w).sum())

        nc.zero_grads([x, gain, w13, w2])
        y = nc.ffn_residual(x, gain, w13, w2, keep)
        assert y.shape == (2, 3, 4)
        sum_all(mul(y, w)).backward()
        for p in (x, gain, w13, w2):
            assert_grads_close(p.grad, fd_grad(run, p.data), rel_tol=1e-6)


def test_ffn_residual_rejects_mismatched_weights():
    rng = np.random.default_rng(23)
    x = nc.Parameter("x", rng.standard_normal((2, 3, 4)))
    gain = nc.Parameter("gain", np.ones(4))
    w13 = nc.Parameter("w13", rng.standard_normal((4, 10)))
    for w2 in (np.zeros((4, 4)), np.zeros((10, 4)), np.zeros(20)):
        with pytest.raises(ValueError):
            nc.ffn_residual(x, gain, w13, nc.Tensor(w2))
    with pytest.raises(ValueError):  # gate|up rows must match x's width
        nc.ffn_residual(x, gain, nc.Tensor(np.zeros((3, 10))), nc.Tensor(np.zeros((5, 4))))
    with pytest.raises(ValueError):  # the down projection must return to x's width
        nc.ffn_residual(x, gain, w13, nc.Tensor(np.zeros((5, 3))))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dropout", [False, True])
def test_ffn_residual_bit_equals_norm_matmul_then_swiglu_residual(dtype, dropout):
    # the fused node against a gain gemm node feeding the SwiGLU residual
    # reference node; x is a non-leaf, as on the model's residual stream; odd f.
    # 150 rows span two whole backward row blocks and a partial one
    rng = np.random.default_rng(24)
    for lead in ((4, 6), (3, 50)):
        x0, w = (rng.standard_normal(lead + (8,)).astype(dtype) for _ in range(2))
        g0 = (1.0 + 0.1 * rng.standard_normal(8)).astype(dtype)
        w13_0 = rng.standard_normal((8, 14)).astype(dtype)
        w2_0 = rng.standard_normal((7, 8)).astype(dtype)
        keep = ((rng.random(lead + (8,)) >= 0.2).astype(dtype) / 0.8) if dropout else None

        def run(fused):
            p, gain, w13, w2 = (nc.Parameter(n, v.copy()) for n, v in
                                (("p", x0), ("gain", g0), ("w13", w13_0), ("w2", w2_0)))
            x = mul(p, 1.5)
            if fused:
                out = nc.ffn_residual(x, gain, w13, w2, keep)
            else:
                out = swiglu_residual(x, nc.matmul(x, w13, gain), w2, keep)
            sum_all(mul(out, w)).backward()
            return out.data, p.grad, gain.grad, w13.grad, w2.grad

        for u, v in zip(run(True), run(False)):
            assert u.dtype == dtype and np.array_equal(u, v)


def test_ffn_residual_backward_scratch():
    # backward holds the rebuilt gate|up product [N, 2f], one [N, f] buffer
    # and one row block: under 4 N f items, where a second [N, 2f] array for
    # the gradient would take it past 5
    assert nc.FFN_BLOCK < 1024 // 8
    rng = np.random.default_rng(25)
    n, d, f = 1024, 8, 97
    x = nc.Parameter("x", rng.standard_normal((n, d)).astype(np.float32))
    gain = nc.Parameter("gain", np.ones(d, dtype=np.float32))
    w13 = nc.Parameter("w13", rng.standard_normal((d, 2 * f)).astype(np.float32))
    w2 = nc.Parameter("w2", rng.standard_normal((f, d)).astype(np.float32))
    y = nc.ffn_residual(x, gain, w13, w2)
    g = rng.standard_normal((n, d)).astype(np.float32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        grads = y._backward(g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert [v.shape for v in grads] == [(n, d), (d,), (d, 2 * f), (f, d)]
    assert peak < 4 * n * f * 4


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dropout", [False, True])
def test_swiglu_residual_bit_equals_swiglu_then_residual(dtype, dropout):
    # the reference node ffn_residual is held to, against its own unfused
    # composition; x and h are non-leaves, as on the model's residual stream; odd f
    rng = np.random.default_rng(22)
    x0, h0, w = (rng.standard_normal(s).astype(dtype) for s in ((4, 6, 8), (4, 6, 14), (4, 6, 8)))
    m0 = rng.standard_normal((7, 8)).astype(dtype)
    keep = ((rng.random((4, 6, 8)) >= 0.2).astype(dtype) / 0.8) if dropout else None

    def run(fused):
        p, q, m = (nc.Parameter(n, v.copy()) for n, v in (("p", x0), ("q", h0), ("m", m0)))
        x, h = mul(p, 1.5), mul(q, 0.5)
        if fused:
            out = swiglu_residual(x, h, m, keep)
        else:
            out = residual_matmul_node(x, swiglu_node(h), m, keep)
        sum_all(mul(out, w)).backward()
        return out.data, p.grad, q.grad, m.grad

    for u, v in zip(run(True), run(False)):
        assert u.dtype == dtype and np.array_equal(u, v)


@pytest.mark.parametrize("dropout", [False, True])
def test_residual_matmul_fd(dropout):
    # the unfused reference the SwiGLU reference and the attention nodes are held to
    rng = np.random.default_rng(7)
    x = nc.Parameter("x", rng.standard_normal((2, 3, 5)))
    a = nc.Parameter("a", rng.standard_normal((2, 3, 4)))
    m = nc.Parameter("m", rng.standard_normal((4, 5)))
    keep = (rng.random((2, 3, 5)) >= 0.3) / 0.7 if dropout else None
    w = rng.standard_normal((2, 3, 5))

    def run():
        y = a.data @ m.data
        return float(((x.data + (y if keep is None else y * keep)) * w).sum())

    sum_all(mul(residual_matmul_node(x, a, m, keep), w)).backward()
    for p in (x, a, m):
        assert_grads_close(p.grad, fd_grad(run, p.data), rel_tol=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dropout", [False, True])
def test_residual_matmul_bit_equals_matmul_mul_add(dtype, dropout):
    # the unfused reference; x is a non-leaf, as on the model's residual stream
    rng = np.random.default_rng(8)
    x0, a0, w = (rng.standard_normal(s).astype(dtype) for s in ((4, 6, 8), (4, 6, 5), (4, 6, 8)))
    m0 = rng.standard_normal((5, 8)).astype(dtype)
    keep = ((rng.random((4, 6, 8)) >= 0.2).astype(dtype) / 0.8) if dropout else None

    def run(fused):
        p, a, m = (nc.Parameter(n, v.copy()) for n, v in (("p", x0), ("a", a0), ("m", m0)))
        x = mul(p, 1.5)
        if fused:
            out = residual_matmul_node(x, a, m, keep)
        else:
            y = nc.matmul(a, m)
            out = add(x, y if keep is None else mul(y, keep))
        sum_all(mul(out, w)).backward()
        return out.data, p.grad, a.grad, m.grad

    for u, v in zip(run(True), run(False)):
        assert u.dtype == dtype and np.array_equal(u, v)


def test_backward_sum_ones():
    x = nc.Parameter("x", np.random.default_rng(8).standard_normal((2, 3, 4)))
    sum_all(x).backward()
    assert np.array_equal(x.grad, np.ones((2, 3, 4)))


def test_backward_square():
    x = nc.Parameter("x", np.random.default_rng(9).standard_normal(5))
    sum_all(mul(x, x)).backward()
    assert np.allclose(x.grad, 2 * x.data, atol=1e-14)


def test_backward_non_scalar_root():
    x = nc.Parameter("x", np.zeros(3))
    with pytest.raises(ValueError):
        x.backward()


def test_backward_unused_param_zero_grad():
    x = nc.Parameter("x", np.ones(3))
    y = nc.Parameter("y", np.ones(3))
    sum_all(mul(x, 2.0)).backward()
    assert np.array_equal(y.grad, np.zeros(3))


def test_backward_accumulates_until_zeroed():
    x = nc.Parameter("x", np.ones(3))
    sum_all(x).backward()
    sum_all(x).backward()
    assert np.array_equal(x.grad, 2 * np.ones(3))
    nc.zero_grads([x])
    assert np.array_equal(x.grad, np.zeros(3))


def test_self_add_of_non_leaf_fd():
    # add hands its own .grad to both parents; y adopts it once and then adds
    # the second copy into itself, so x must see exactly twice w0
    rng = np.random.default_rng(12)
    x = nc.Parameter("x", rng.standard_normal((3, 4)))
    w0 = rng.standard_normal((3, 4))

    def run():
        return float((2.0 * x.data * w0).sum())

    y = mul(x, w0)
    s = add(y, y)
    sum_all(s).backward()
    assert_grads_close(x.grad, fd_grad(run, x.data))
    assert np.array_equal(x.grad, 2.0 * w0)


def test_diamond_through_non_leaf_fd():
    # z = swiglu(y) w2 w + y * y v with y = x @ m: two paths write into y.grad
    rng = np.random.default_rng(13)
    x = nc.Parameter("x", rng.standard_normal((2, 3, 4)))
    m = nc.Parameter("m", rng.standard_normal((4, 6)))
    m2 = nc.Parameter("m2", rng.standard_normal((3, 2)))
    w = rng.standard_normal((2, 3, 2))
    v = rng.standard_normal((2, 3, 6))

    def run():
        y = x.data @ m.data
        a, b = y[..., :3], y[..., 3:]
        return float(((a / (1.0 + np.exp(-a)) * b) @ m2.data * w).sum() + (y * y * v).sum())

    y = nc.matmul(x, m)
    r = nc.Tensor(np.zeros((2, 3, 2)))
    add(sum_all(mul(swiglu_residual(r, y, m2), w)),
        sum_all(mul(mul(y, y), v))).backward()
    for p in (x, m, m2):
        assert_grads_close(p.grad, fd_grad(run, p.data))


@pytest.mark.parametrize("rotate", [0, 1, 2])
def test_read_back_non_leaf_grads_stay_exact(rotate):
    # a = y + 1 hands a.grad itself to y and r = reshape(y) a view of r.grad;
    # later accumulation into y must leak into neither, whichever of y's
    # consumers runs backward first, so x reads back the exact sum
    rng = np.random.default_rng(14)
    x = nc.Parameter("x", rng.standard_normal((3, 4)))
    w1, w2 = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    w3 = rng.standard_normal((4, 3))
    y = mul(x, 3.0)
    a = add(y, 1.0)
    r = nc.reshape(y, (4, 3))
    terms = [sum_all(mul(a, w1)), sum_all(mul(y, w2)),
             sum_all(mul(r, w3))]
    terms = terms[rotate:] + terms[:rotate]
    add(add(terms[0], terms[1]), terms[2]).backward()
    total = w1 + w2 + w3.reshape(3, 4)
    assert np.allclose(x.grad, 3.0 * total, rtol=0.0, atol=1e-13)

    # one fresh array handed to two non-leaf parents in one call: h1 may
    # adopt it, h2 must copy it, or h1's later w1 term leaks into x2
    x1 = nc.Parameter("x1", x.data.copy())
    x2 = nc.Parameter("x2", x.data.copy())
    h1, h2 = mul(x1, 1.0), mul(x2, 1.0)
    pair = nc.from_op(h1.data + h2.data, (h1, h2), lambda g: (2.0 * g,) * 2)
    sum_all(add(pair, mul(h1, w1))).backward()
    assert np.array_equal(x2.grad, np.full((3, 4), 2.0))
    assert np.allclose(x1.grad, 2.0 + w1, rtol=0.0, atol=1e-15)

    # the same array handed to h3 twice and to h4 once: h3 adopts it and adds
    # its second hand into it, so h4 must hold a copy
    x3 = nc.Parameter("x3", x.data.copy())
    x4 = nc.Parameter("x4", x.data.copy())
    h3, h4 = mul(x3, 1.0), mul(x4, 1.0)
    sum_all(nc.from_op(h3.data, (h3, h4, h3), lambda g: (2.0 * g,) * 3)).backward()
    assert np.array_equal(x3.grad, np.full((3, 4), 4.0))
    assert np.array_equal(x4.grad, np.full((3, 4), 2.0))


def test_backward_releases_graph():
    # backward consumes the graph: activations only the graph holds are
    # collected, non-leaf grads are dropped, leaf grads stay exact
    rng = np.random.default_rng(15)
    x = nc.Parameter("x", rng.standard_normal((2, 3, 4)))
    m = nc.Parameter("m", rng.standard_normal((4, 6)))
    m2 = nc.Parameter("m2", rng.standard_normal((3, 4)))
    m3 = nc.Parameter("m3", rng.standard_normal((4, 3)))
    gain = nc.Parameter("gain", rng.standard_normal(4))
    w = rng.standard_normal((2, 3, 3))

    def run():
        y = x.data @ m.data
        a, b = y[..., :3], y[..., 3:]
        h = x.data + (a / (1.0 + np.exp(-a)) * b) @ m2.data
        return float((_rms_ref(h) * gain.data @ m3.data * w).sum())

    y = nc.matmul(x, m)
    probe = weakref.ref(y.data)  # Tensor has __slots__; its array is the activation
    h = swiglu_residual(x, y, m2)
    n = nc.matmul(h, m3, gain)
    out = mul(n, w)
    loss = sum_all(out)
    del y  # from here on only the graph holds y
    loss.backward()
    assert probe() is None
    assert all(t.grad is None for t in (h, n, out, loss))
    for p in (x, m, m2, m3, gain):
        assert_grads_close(p.grad, fd_grad(run, p.data), rel_tol=1e-6)


def test_no_grad_blocks_recording():
    x = nc.Parameter("x", np.ones(3))
    with nc.no_grad():
        y = mul(x, 3.0)
    assert not y.requires_grad and y._backward is None


def test_rowwise_matmul_matches_and_is_row_stable():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((8, 16))
    b = rng.standard_normal((16, 12))
    y = nc.rowwise_matmul(a, b)
    assert np.allclose(y, a @ b, atol=1e-12)
    for m in (1, 2, 3, 8):
        sub = nc.rowwise_matmul(a[:m], b)
        for i in range(m):
            assert np.array_equal(sub[i], nc.rowwise_matmul(a[i:i + 1], b)[0])
