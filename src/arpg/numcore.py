"""Dense-tensor numerics with reverse-mode differentiation on numpy arrays.

A tape of (parents, backward) links built op by op; backward() walks it in
reverse topological order. Double precision is used in gradient tests, single
precision in training; ops never change the dtype they are given.

backward() consumes the graph: each node is released as soon as its backward
has run (closure, parent links and .grad dropped), so saved activations and
gradients die as the walk passes them. Only leaves keep .grad: Parameters,
and any requires_grad tensor without a backward. A caller that wants the
gradient of an intermediate value makes it a leaf. A released node reads as
a leaf, so a graph cannot be walked twice.

Gradient buffers of non-leaf tensors are adopted rather than allocated: the
first gradient a backward hands to a non-leaf parent becomes that parent's
.grad outright when it is a private array (owns its data, right shape and
dtype, not already adopted by another parent in the same call). The child's
own .grad qualifies, since the child is released right after. Views are
copied. A backward must therefore never return an owned array that it keeps
using elsewhere. A backward may overwrite g, its node's own private .grad.

Every op here is one the model runs; the unfused references that the fused
nodes are held to live with the tests. A gemm node given a gain reads
RMSNorm(x) * gain without holding it: it keeps x and x's per-row scale s,
and its backward rebuilds x * s * gain.
ffn_residual keeps only the same x and s: its backward rebuilds the gate|up
product h with the forward's own gemm, then silu(a) * b from it, and writes
the gate|up gradient over h FFN_BLOCK rows at a time; besides h it holds one
[N, f] buffer and one row block. Gemms are never split into row blocks,
since their bits depend on the row count; pointwise ops keep theirs.
broadcast_row reads one table row at every slot through zero strides, with
the gather's gradient.
attention.attention_block keeps the same x and s and two per-row softmax
statistics, and rebuilds its rotated projection, the probs and the joined
heads. Each rebuild repeats the forward's own ops, so the backward sees bit
for bit the values the forward used.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

# ---------------------------------------------------------------- tape core

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Suspend graph recording inside the block."""
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


class Tensor:
    """N-d array with an optional grad buffer and a link into the tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def backward(self) -> None:
        """Reverse-mode accumulation from a scalar root; consumes the graph.

        Every node with a backward is released once processed; afterwards
        only leaves hold .grad (see the module docstring).
        """
        if self.data.size != 1:
            raise ValueError("backward requires a scalar root, got shape %r" % (self.shape,))
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        while topo:
            node = topo.pop()  # reverse topological order; the list lets go of it
            backward, parents, g = node._backward, node._parents, node.grad
            if backward is None:
                continue
            node._backward, node._parents, node.grad = None, (), None
            if g is None:
                continue
            grads = backward(g)
            del backward, g  # free the closure's saved arrays before any copy below
            adopted: list[np.ndarray] = []
            for parent, pg in zip(parents, grads):
                if pg is None or not parent.requires_grad:
                    continue
                # a private gradient becomes one non-leaf's buffer (see top)
                if (parent.grad is None and parent._backward is not None
                        and not any(pg is a for a in adopted)
                        and _fresh_buffer_for(pg, parent)):
                    parent.grad = pg
                    adopted.append(pg)
                else:
                    parent._accumulate(pg)

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.empty_like(self.data)
            self.grad[...] = g
        else:
            self.grad += g

    def __repr__(self):
        return "Tensor(shape=%r, dtype=%s, requires_grad=%r)" % (
            self.shape, self.dtype, self.requires_grad)


class Parameter(Tensor):
    """Named leaf tensor; grad preallocated so unused parameters report exact zeros."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def __repr__(self):
        return "Parameter(%r, shape=%r)" % (self.name, self.shape)


def _fresh_buffer_for(g: np.ndarray, t: Tensor) -> bool:
    """g owns its writable memory and has t's shape and dtype."""
    return (g.flags.owndata and g.flags.writeable
            and g.shape == t.shape and g.dtype == t.dtype)


def from_op(data: np.ndarray, parents: Sequence[Tensor], backward: Callable) -> Tensor:
    """Wrap an op result; backward(g) must return per-parent grads (None to skip)."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def zero_grads(params: Sequence[Parameter]) -> None:
    for p in params:
        p.grad[...] = 0


# ---------------------------------------------------------------- gemm nodes

RMS_EPS = 1e-6  # RMSNorm's epsilon, added to the mean square
FFN_BLOCK = 64  # rows of the gate|up gradient ffn_residual's backward forms at once


def _gemm_into(shape: tuple[int, ...], x2: np.ndarray, y2: np.ndarray) -> np.ndarray:
    """x2 @ y2 written straight into a fresh array of `shape` (no reshape view)."""
    out = np.empty(shape, dtype=np.result_type(x2, y2))
    np.matmul(x2, y2, out=out.reshape(x2.shape[0], y2.shape[1]))
    return out


def _rms_scale(x: np.ndarray) -> np.ndarray:
    """Per-row RMSNorm scale 1 / rms(x) [..., 1] of x [..., d]."""
    return 1.0 / np.sqrt(_rowdot(x, x) / x.shape[-1] + RMS_EPS)


def gemm_rows(a: Tensor, w: Tensor,
              gain: Tensor | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a [..., d] times w [d, f] as one [N, d] gemm.

    Returns (saved, out [..., f]). With gain the gemm reads RMSNorm(a) * gain,
    that is a * s * gain for a's per-row scale s; saved is s, so the tape
    keeps a and s and gemm_rows_grads rebuilds the rows bit for bit. Without
    gain, saved is a as [N, d].
    """
    d = a.shape[-1]
    if w.ndim != 2 or w.shape[0] != d:
        raise ValueError("gemm takes [..., d] @ [d, f], got %r @ %r" % (a.shape, w.shape))
    if gain is None:
        saved = rows = a.data.reshape(-1, d)
    else:
        saved = _rms_scale(a.data)
        rows = a.data * saved  # a * s * gain in one buffer
        rows *= gain.data
    return saved, _gemm_into(a.shape[:-1] + w.shape[1:], rows.reshape(-1, d), w.data)


def gemm_rows_grads(a: Tensor, saved: np.ndarray, w: Tensor, g: np.ndarray,
                    gain: Tensor | None = None) -> tuple[np.ndarray, ...]:
    """Gradients of gemm_rows at g [..., f]: (da, dgain, dw), dgain only with gain."""
    g2 = g.reshape(-1, g.shape[-1])
    if gain is None:
        rows = saved
    else:
        xs = a.data * saved
        rows = (xs * gain.data).reshape(-1, a.shape[-1])
    dw = rows.T @ g2
    del rows
    da = _gemm_into(a.shape, g2, w.data.T)
    if gain is None:
        return da, dw
    return (*_rms_grads(da, xs, saved, gain), dw)


def _rms_grads(g: np.ndarray, xs: np.ndarray, s: np.ndarray,
               gain: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """(dx, dgain) of y = xs * gain, xs = x * s, at gradient g; g and xs are overwritten.

    dx = s * (gy - xs * mean(gy * xs)) with gy = g * gain.
    """
    n = g.shape[-1]
    dgain = np.einsum("ri,ri->i", g.reshape(-1, n), xs.reshape(-1, n))
    g *= gain.data
    xs *= _rowdot(g, xs) / n
    g -= xs
    g *= s
    return g, dgain


def matmul(a: Tensor, b: Tensor, gain: Tensor | None = None) -> Tensor:
    """[..., d] @ [d, f]; with gain, RMSNorm(a) * gain @ b as one node (see gemm_rows)."""
    saved, out = gemm_rows(a, b, gain)
    return from_op(out, (a, b) if gain is None else (a, gain, b),
                   lambda g: gemm_rows_grads(a, saved, b, g, gain))


def residual_sum(x: np.ndarray, out: np.ndarray, keep: np.ndarray | None) -> np.ndarray:
    """x + out * keep, in out's buffer."""
    if x.shape != out.shape:
        raise ValueError("residual %r does not match the product %r" % (x.shape, out.shape))
    if keep is not None:
        out *= keep
    out += x
    return out


def ffn_residual(x: Tensor, gain: Tensor, w13: Tensor, w2: Tensor,
                 keep: np.ndarray | None = None) -> Tensor:
    """x + (silu(a) * b @ w2) * keep for a|b = RMSNorm(x) * gain @ w13, as one node.

    w13 [d, 2f] holds the gate|up columns, w2 [f, d] the down projection.
    The tape keeps x and its per-row scale, not the gate|up product h = a|b
    [..., 2f] or the SwiGLU output: the backward rebuilds h with the
    forward's own gemm_rows call and silu(a) * b from h. Bit for bit a gain
    gemm node whose output feeds a SwiGLU node and a residual gemm node.
    """
    if w13.ndim != 2 or w2.ndim != 2 or w13.shape[1] != 2 * w2.shape[0]:
        raise ValueError("a %r gate|up weight cannot feed a %r down weight"
                         % (w13.shape, w2.shape))
    f = w2.shape[0]
    saved, h = gemm_rows(x, w13, gain)
    a, b = h[..., :f], h[..., f:]
    u = a * _sigmoid(a)
    u *= b
    del h, a, b
    out = residual_sum(x.data, _gemm_into(x.shape[:-1] + w2.shape[1:], u.reshape(-1, f),
                                          w2.data), keep)
    del u

    def bwd(g):
        # scratch besides the rebuilt h = a|b is one [N, f] buffer: u, then
        # du = gk @ w2^T; da|db are then formed FFN_BLOCK rows at a time and
        # written over h's a|b columns, which hold the gemm grads' input
        h = gemm_rows(x, w13, gain)[1]
        h2 = h.reshape(-1, 2 * f)
        a, b = h2[:, :f], h2[:, f:]
        g2 = (g if keep is None else g * keep).reshape(-1, g.shape[-1])
        u = a * _sigmoid(a)
        u *= b
        dw2 = u.T @ g2
        du = np.matmul(g2, w2.data.T, out=u)
        del u, g2
        for r in range(0, h2.shape[0], FFN_BLOCK):
            _swiglu_grads_over(a[r:r + FFN_BLOCK], b[r:r + FFN_BLOCK], du[r:r + FFN_BLOCK])
        del a, b, du, h2  # a live view of du would keep it under the gemm grads
        dx, dgain, dw13 = gemm_rows_grads(x, saved, w13, h, gain)
        dx += g  # the residual's gradient; da + g has the bits of the unfused g + da
        return dx, dgain, dw13, dw2
    return from_op(out, (x, gain, w13, w2), bwd)


def _swiglu_grads_over(a: np.ndarray, b: np.ndarray, du: np.ndarray) -> None:
    """Overwrite a with da and b with db of u = silu(a) * b at gradient du.

    da = sig * (1 + a * (1 - sig)) * (du * b), db = silu(a) * du, with sig
    rebuilt by the forward's _sigmoid; du is overwritten. Every op is
    pointwise, so any split of the rows keeps the bits.
    """
    sig = _sigmoid(a)
    da = np.subtract(1.0, sig)
    da *= a
    da += 1.0
    da *= sig
    np.multiply(a, sig, out=sig)
    sig *= du
    du *= b
    da *= du
    a[...] = da
    b[...] = sig


def reshape(x: Tensor, shape) -> Tensor:
    old = x.data.shape

    def bwd(g):
        return (g.reshape(old),)
    return from_op(np.ascontiguousarray(x.data).reshape(shape), (x,), bwd)


# ---------------------------------------------------------------- nonlinear ops

def _sigmoid(a: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-a)) in a fresh array, one fixed op sequence."""
    sig = np.negative(a)
    np.exp(sig, out=sig)
    sig += 1.0
    np.reciprocal(sig, out=sig)
    return sig


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row dot product over the last axis, kept as a trailing unit axis."""
    return np.einsum("...i,...i->...", a, b)[..., None]


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean NLL of targets under softmax(logits); logits [N, V], targets int [N]."""
    if logits.ndim != 2:
        raise ValueError("cross_entropy expects 2-d logits, got %r" % (logits.shape,))
    t = np.asarray(targets)
    n, v = logits.shape
    if t.shape != (n,):
        raise ValueError("targets shape %r does not match logits rows %d" % (t.shape, n))
    if t.min() < 0 or t.max() >= v:
        raise IndexError("target id out of range [0, %d)" % v)
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    loss = (lse - z[np.arange(n), t]).mean()

    def bwd(g):
        p = np.exp(z - lse[:, None])
        p[np.arange(n), t] -= 1.0
        return (p * (g / n),)
    return from_op(np.asarray(loss, dtype=logits.dtype), (logits,), bwd)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather: table [R, d], ids int [...] -> [..., d]."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError("embedding id out of range [0, %d)" % table.shape[0])
    out = table.data[ids]

    def bwd(g):
        # segment sums over sorted ids, added into the rows they touch only
        flat = ids.reshape(-1)
        if not flat.size:
            return (None,)
        order = np.argsort(flat, kind="stable")
        rows = flat[order]
        starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        sums = np.add.reduceat(g.reshape(-1, table.shape[-1])[order], starts, axis=0)
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        table.grad[rows[starts]] += sums
        return (None,)
    return from_op(out, (table,), bwd)


def broadcast_row(table: Tensor, row: int, shape: tuple[int, ...]) -> Tensor:
    """table[row] read at every slot of shape: a read-only [*shape, d] broadcast.

    The gather embedding(table, ids) for ids all equal to row, without its
    [*shape, d] copy: the data is one private copy of the row with zero
    leading strides. Backward sums every slot's gradient into that row with
    embedding's own reduction, so the bits are the gather's.
    """
    d = table.shape[-1]
    out = np.broadcast_to(table.data[row].copy(), tuple(shape) + (d,))

    def bwd(g):
        if not g.size:
            return (None,)
        # the contiguous rows embedding's sorted gather hands reduceat
        sums = np.add.reduceat(np.ascontiguousarray(g.reshape(-1, d)), [0], axis=0)
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        table.grad[row] += sums[0]
        return (None,)
    return from_op(out, (table,), bwd)


# ---------------------------------------------------------------- inference helper

def rowwise_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a [m, k] @ b [k, n] with one independent [1, k] core per row.

    Rows are fed to the stacked-matmul gufunc as separate stack entries,
    never as rows of one gemm call, so a row's bits depend only on its own
    data: any sub-batch, m = 1 included, reproduces the row exactly. The
    decoding engine relies on this for joint-vs-separate and
    cached-vs-recomputed bit equality; plain gemm does not have the property.
    """
    return np.matmul(a[:, None, :], b[None])[:, 0]
